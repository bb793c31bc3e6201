//! Host-device optimization (§VII-B of the paper).
//!
//! After raising, the host's `sycl.host.constructor` /
//! `sycl.host.schedule_kernel` ops expose each kernel's *invocation
//! context*. For every kernel in the joint module this pass analyses
//! every distinct command group that launches the kernel (`hostgen` emits
//! one host function per distinct command group, so a kernel submitted k
//! times with one command group is one launch site) and writes what holds
//! at every launch site onto the kernel as launch facts
//! ([`sycl_mlir_sycl::facts`], the one owner of their encoding):
//!
//! * **Constant ND-range propagation** — constant global/local ranges;
//! * **Scalar constant propagation** — kernel scalar arguments constant at
//!   every launch site are materialized as constants in the kernel, and
//!   each folded argument's constant is recorded as a launch fact, which
//!   the runtime's host-fact audit holds every launch to;
//! * **Accessor member propagation** — constant accessor ranges, and
//!   *buffer identities* so the SYCL-aware alias analysis can separate
//!   accessors over distinct buffers (the refinement §VII-B motivates with
//!   Listing 8);
//! * **Constant-array arguments** — read-only accessors over buffers whose
//!   host data is a compile-time constant (the Sobel filter case of §VIII),
//!   whose loads the device may then treat as constant-memory accesses.
//!
//! [`fold_device_queries`] then folds the range queries the facts pin
//! down (`sycl.nd_item.get_global_range`, …, `sycl.accessor.get_range`) to
//! constants. It is the one fold: AdaptiveCpp's launch-time JIT
//! (`Flow::jit_specialize`) calls it too, after writing the ranges it
//! learns at the first launch.
//!
//! [`DeadArgumentEliminationPass`] is the paper's *SYCL Dead Argument
//! Elimination*: kernel arguments left unused after propagation are
//! recorded as a launch fact so the runtime skips passing them, "making
//! kernel launches more efficient on the host side".

use sycl_mlir_ir::{Attribute, Builder, FxHashMap, Module, OpId, Pass, ValueId, WalkControl};
use sycl_mlir_sycl::facts;
use sycl_mlir_sycl::host::schedule_info;
use sycl_mlir_sycl::types::{accessor_info, AccessMode, Target};

/// Statistics of one propagation run.
#[derive(Debug, Default, Clone)]
pub struct HostDevStats {
    pub nd_ranges_propagated: usize,
    pub scalars_propagated: usize,
    pub kernels_annotated: usize,
    pub const_array_args: usize,
    pub getters_folded: usize,
}

/// Host-device constant propagation over a joint module.
#[derive(Default)]
pub struct HostDeviceConstantPropagationPass {
    pub stats: HostDevStats,
}

/// Everything we learned about one kernel argument at one launch site.
#[derive(Clone, Debug, PartialEq)]
enum ArgFact {
    /// Scalar with a compile-time constant value.
    ConstScalar(Attribute),
    /// Accessor over host buffer `buffer_ctor`, with optionally constant
    /// range extents and optionally constant init data.
    Accessor {
        buffer_ctor: OpId,
        range: Option<Vec<i64>>,
        const_data: bool,
        read_only: bool,
    },
    /// Work-group local accessor.
    Local,
    /// Nothing provable.
    Opaque,
}

impl ArgFact {
    /// Whether two launch sites say the same of an argument: constants
    /// agree when they print alike ([`Attribute::same_constant`], CSE's
    /// equivalence), so `0.0` and `-0.0` do not.
    fn same_as(&self, other: &ArgFact) -> bool {
        match (self, other) {
            (ArgFact::ConstScalar(a), ArgFact::ConstScalar(b)) => a.same_constant(b),
            _ => self == other,
        }
    }
}

/// One launch site of a kernel.
#[derive(Clone, Debug)]
struct LaunchInfo {
    global_range: Option<Vec<i64>>,
    local_range: Option<Vec<i64>>,
    args: Vec<ArgFact>,
}

impl Pass for HostDeviceConstantPropagationPass {
    fn name(&self) -> &'static str {
        "host-device-constprop"
    }

    fn note(&self) -> Option<String> {
        Some(format!(
            "propagated {} nd-ranges, {} scalars, {} const arrays; folded {} getters",
            self.stats.nd_ranges_propagated,
            self.stats.scalars_propagated,
            self.stats.const_array_args,
            self.stats.getters_folded
        ))
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        // Gather launches per kernel.
        let mut launches: FxHashMap<OpId, Vec<LaunchInfo>> = FxHashMap::default();
        let Some(schedule_kernel) = m.ctx().lookup_op("sycl.host.schedule_kernel") else {
            return Ok(false);
        };
        for func in m.funcs_in(m.top()) {
            let mut schedules = Vec::new();
            m.walk(func, &mut |op| {
                if m.op_name(op) == schedule_kernel {
                    schedules.push(op);
                }
                WalkControl::Advance
            });
            for s in schedules {
                let Some(kernel) = schedule_info::resolve_kernel(m, s) else {
                    continue;
                };
                let info = analyze_launch(m, func, s);
                launches.entry(kernel).or_default().push(info);
            }
        }

        let mut changed = false;
        for (kernel, infos) in launches {
            changed |= self.apply_to_kernel(m, kernel, &infos);
        }
        Ok(changed)
    }
}

/// Find the unique `sycl.host.constructor` in `func` whose destination is
/// `v`: among the users of `v`, not by walking `func`.
fn ctor_of(m: &Module, func: OpId, v: ValueId) -> Option<OpId> {
    let constructor = m.ctx().lookup_op("sycl.host.constructor")?;
    let mut found = m
        .value_uses(v)
        .iter()
        .filter(|u| u.index == 0 && m.op_name(u.op) == constructor && m.is_ancestor(func, u.op))
        .map(|u| u.op);
    let first = found.next()?;
    found.next().is_none().then_some(first)
}

/// Constant extents of a raised range constructor.
fn const_extents(m: &Module, ctor: OpId) -> Option<Vec<i64>> {
    m.op_operands(ctor)[1..]
        .iter()
        .map(|&v| sycl_mlir_dialects::arith::const_int_of(m, v))
        .collect()
}

fn analyze_launch(m: &Module, func: OpId, schedule: OpId) -> LaunchInfo {
    let range_of = |v: ValueId| -> Option<Vec<i64>> {
        let ctor = ctor_of(m, func, v)?;
        const_extents(m, ctor)
    };
    let global_range = range_of(schedule_info::global_range(m, schedule));
    let local_range = schedule_info::local_range(m, schedule).and_then(range_of);

    let mut args = Vec::new();
    for arg in schedule_info::kernel_args(m, schedule) {
        args.push(analyze_arg(m, func, arg));
    }
    LaunchInfo {
        global_range,
        local_range,
        args,
    }
}

fn analyze_arg(m: &Module, func: OpId, arg: ValueId) -> ArgFact {
    // Scalars passed by value.
    if !matches!(m.value_type(arg).kind(), sycl_mlir_ir::TypeKind::Ptr) {
        if let Some(attr) = sycl_mlir_dialects::arith::const_of(m, arg) {
            return ArgFact::ConstScalar(attr);
        }
        return ArgFact::Opaque;
    }
    // Pointers: look for the raised constructor.
    let Some(ctor) = ctor_of(m, func, arg) else {
        return ArgFact::Opaque;
    };
    let Some(ty) = m.attr(ctor, "type").and_then(|a| a.as_type()).cloned() else {
        return ArgFact::Opaque;
    };
    if let Some(acc) = accessor_info(&ty) {
        if acc.target == Target::Local {
            return ArgFact::Local;
        }
        // Global accessor: (dst, buffer, cgh [, range, offset]).
        let ranged = m.op_operands(ctor).len() > 3;
        let Some(&buffer_ptr) = m.op_operands(ctor).get(1) else {
            return ArgFact::Opaque;
        };
        let Some(buffer_ctor) = ctor_of(m, func, buffer_ptr) else {
            return ArgFact::Opaque;
        };
        // Buffer: (dst, host_data, range).
        let range = if ranged {
            None // conservatively unknown for ranged accessors
        } else {
            m.op_operands(buffer_ctor)
                .get(2)
                .and_then(|&r| ctor_of(m, func, r))
                .and_then(|rc| const_extents(m, rc))
        };
        let const_data = m.attr(buffer_ctor, "init_data").is_some()
            && !buffer_written_elsewhere(m, func, buffer_ctor);
        return ArgFact::Accessor {
            buffer_ctor,
            range,
            const_data,
            read_only: acc.mode == AccessMode::Read && !ranged,
        };
    }
    ArgFact::Opaque
}

/// `true` if any *other* accessor over the same buffer could write it
/// (which would invalidate treating the init data as constant).
fn buffer_written_elsewhere(m: &Module, func: OpId, buffer_ctor: OpId) -> bool {
    let buffer_ptr = m.op_operands(buffer_ctor)[0];
    m.value_uses(buffer_ptr).iter().any(|u| {
        u.index == 1
            && u.op != buffer_ctor
            && m.op_is(u.op, "sycl.host.constructor")
            && m.is_ancestor(func, u.op)
            && m.attr(u.op, "type")
                .and_then(|a| a.as_type())
                .and_then(accessor_info)
                .is_some_and(|acc| acc.mode.can_write())
    })
}

impl HostDeviceConstantPropagationPass {
    fn apply_to_kernel(&mut self, m: &mut Module, kernel: OpId, infos: &[LaunchInfo]) -> bool {
        let mut changed = false;
        let first = &infos[0];

        // --- Constant ND-range propagation ---
        let all_equal = |f: fn(&LaunchInfo) -> &Option<Vec<i64>>| -> Option<Vec<i64>> {
            let v = f(first).clone()?;
            infos.iter().all(|i| f(i).as_ref() == Some(&v)).then_some(v)
        };
        if let Some(g) = all_equal(|i| &i.global_range) {
            facts::GLOBAL_RANGE.set(m, kernel, g);
            self.stats.nd_ranges_propagated += 1;
            changed = true;
        }
        if let Some(l) = all_equal(|i| &i.local_range) {
            facts::LOCAL_RANGE.set(m, kernel, l);
            changed = true;
        }

        // --- Per-argument facts, merged across launch sites ---
        let nargs = first.args.len();
        if infos.iter().any(|i| i.args.len() != nargs) {
            return changed;
        }
        let entry = m.op_region_block(kernel, 0);
        let params = m.block_args(entry).to_vec();

        // Buffer identities: use the first launch's partition if every
        // launch induces the same equality pattern.
        let mut buffer_ids = vec![-1_i64; nargs];
        {
            let pattern_consistent = infos.iter().all(|info| {
                for i in 0..nargs {
                    for j in (i + 1)..nargs {
                        let same_first = buffers_same(&first.args[i], &first.args[j]);
                        let same_here = buffers_same(&info.args[i], &info.args[j]);
                        if same_first != same_here {
                            return false;
                        }
                    }
                }
                true
            });
            if pattern_consistent {
                let mut next = 0_i64;
                let mut assigned: FxHashMap<OpId, i64> = FxHashMap::default();
                for (i, fact) in first.args.iter().enumerate() {
                    // An id says "this buffer, at every launch": an
                    // argument that is a USM pointer or opaque at some
                    // launch site may alias anything there, so it gets
                    // none.
                    let accessor_everywhere =
                        (infos.iter()).all(|info| matches!(info.args[i], ArgFact::Accessor { .. }));
                    if !accessor_everywhere {
                        continue;
                    }
                    if let ArgFact::Accessor { buffer_ctor, .. } = fact {
                        let id = *assigned.entry(*buffer_ctor).or_insert_with(|| {
                            let id = next;
                            next += 1;
                            id
                        });
                        buffer_ids[i] = id;
                    }
                }
                facts::BUFFER_IDS.set(m, kernel, buffer_ids);
                self.stats.kernels_annotated += 1;
                changed = true;
            }
        }

        // Scalar constants, const arrays and accessor ranges.
        let mut scalars: Vec<Option<Attribute>> = vec![None; nargs];
        let mut const_args = Vec::new();
        let mut arg_ranges: Vec<Option<Vec<i64>>> = Vec::new();
        for i in 0..nargs {
            let fact = &first.args[i];
            let agree = infos.iter().all(|info| info.args[i].same_as(fact));
            match fact {
                ArgFact::ConstScalar(attr) if agree => {
                    if i < params.len() && m.value_has_uses(params[i]) {
                        let mut b = Builder::at(m, entry, 0);
                        let ty = b.module().value_type(params[i]).clone();
                        let cst =
                            b.build_value("arith.constant", &[], ty, [("value", attr.clone())]);
                        b.module().replace_all_uses(params[i], cst);
                        scalars[i] = Some(attr.clone());
                        self.stats.scalars_propagated += 1;
                        changed = true;
                    }
                    arg_ranges.push(None);
                }
                ArgFact::Accessor {
                    range,
                    const_data,
                    read_only,
                    ..
                } => {
                    if *const_data && *read_only && agree {
                        const_args.push(i as i64);
                    }
                    arg_ranges.push(range.clone().filter(|_| agree));
                }
                _ => arg_ranges.push(None),
            }
        }
        if !const_args.is_empty() {
            self.stats.const_array_args += const_args.len();
            facts::CONST_ARGS.set(m, kernel, const_args);
            changed = true;
        }
        facts::set_arg_ranges(m, kernel, arg_ranges);
        // A folded parameter has no uses left, so a second run folds
        // nothing and keeps what the first one recorded.
        if scalars.iter().any(Option::is_some) {
            facts::set_folded_args(m, kernel, scalars);
        }

        // --- Device-side folding of getters ---
        let folded = fold_device_queries(m, kernel);
        self.stats.getters_folded += folded;
        changed | (folded > 0)
    }
}

/// Replace `get_global_range` / `get_local_range` / `get_group_range` /
/// `accessor.get_range` with constants where the kernel's launch facts
/// pin them down; returns how many queries were folded. Host-device
/// propagation calls it after writing the facts, and so does
/// AdaptiveCpp's launch-time JIT, which knows the ranges but no accessor
/// ranges.
pub fn fold_device_queries(m: &mut Module, kernel: OpId) -> usize {
    let entry = m.op_region_block(kernel, 0);
    let params = m.block_args(entry);
    let global = facts::GLOBAL_RANGE.get(m, kernel);
    let local = facts::LOCAL_RANGE.get(m, kernel);

    let mut targets: Vec<(OpId, i64)> = Vec::new();
    m.walk(kernel, &mut |op| {
        let name = m.op_name_str(op);
        let dim = m
            .op_operands(op)
            .get(1)
            .and_then(|&d| sycl_mlir_dialects::arith::const_int_of(m, d))
            .unwrap_or(-1) as usize;
        let value = match &*name {
            "sycl.nd_item.get_global_range" | "sycl.item.get_range" => {
                global.and_then(|g| g.get(dim).copied())
            }
            "sycl.nd_item.get_local_range" => local.and_then(|l| l.get(dim).copied()),
            "sycl.nd_item.get_group_range" => match (global, local) {
                (Some(g), Some(l)) => g.get(dim).zip(l.get(dim)).map(|(&g, &l)| g / l),
                _ => None,
            },
            "sycl.accessor.get_range" => {
                let acc = m.op_operand(op, 0);
                params
                    .iter()
                    .position(|&p| p == acc)
                    .and_then(|arg| facts::arg_ranges(m, kernel)?.nth(arg)?)
                    .and_then(|r| r.get(dim).copied())
            }
            _ => None,
        };
        if let Some(v) = value {
            targets.push((op, v));
        }
        WalkControl::Advance
    });
    let folded = targets.len();
    for (op, value) in targets {
        let block = m.op_parent_block(op).expect("attached");
        let index = m.op_index_in_block(op);
        let name = m.ctx().op("arith.constant");
        let ty = m.value_type(m.op_result(op, 0)).clone();
        let cst = m.create_op(name, &[], &[ty], [("value", Attribute::Int(value))]);
        m.insert_op(block, index, cst);
        let new_v = m.op_result(cst, 0);
        m.replace_all_uses(m.op_result(op, 0), new_v);
        m.erase_op(op);
    }
    folded
}

/// Do two arg facts refer to the same host buffer?
fn buffers_same(a: &ArgFact, b: &ArgFact) -> bool {
    match (a, b) {
        (ArgFact::Accessor { buffer_ctor: x, .. }, ArgFact::Accessor { buffer_ctor: y, .. }) => {
            x == y
        }
        _ => false,
    }
}

/// SYCL Dead Argument Elimination (§VII-B): record kernel arguments that
/// are unused after propagation so the runtime can skip them at launch.
#[derive(Default)]
pub struct DeadArgumentEliminationPass {
    pub dead_args_found: usize,
}

impl Pass for DeadArgumentEliminationPass {
    fn name(&self) -> &'static str {
        "sycl-dae"
    }

    fn note(&self) -> Option<String> {
        Some(format!("dead kernel arguments: {}", self.dead_args_found))
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        let Some(device) = m.lookup_symbol(m.top(), sycl_mlir_sycl::DEVICE_MODULE_SYM) else {
            return Ok(false);
        };
        let mut changed = false;
        for kernel in m.funcs_in(device) {
            if !sycl_mlir_sycl::device::is_kernel(m, kernel) {
                continue;
            }
            let entry = m.op_region_block(kernel, 0);
            let params = m.block_args(entry).to_vec();
            let mut dead = Vec::new();
            for (i, &p) in params.iter().enumerate() {
                let ty = m.value_type(p);
                if sycl_mlir_sycl::types::is_item_like(ty) {
                    continue;
                }
                if !m.value_has_uses(p) {
                    dead.push(i as i64);
                }
            }
            if !dead.is_empty() {
                self.dead_args_found += dead.len();
                facts::DEAD_ARGS.set(m, kernel, dead);
                changed = true;
            }
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raise::RaiseHostPass;
    use sycl_mlir_dialects::arith::{addi, constant_int};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_dialects::llvm;
    use sycl_mlir_ir::{Context, Type};
    use sycl_mlir_sycl::types::{accessor_type, item_type};

    /// The range-form kernel `K(params.., item<1>)`, its body built by
    /// `body` over its parameters, after raising and propagation, with `K`
    /// launched from `cgfs` host functions `cgf_i(cgh)`, each built by
    /// `cgf`, as `hostgen` emits them.
    fn propagated_with(
        params: impl FnOnce(&Context) -> Vec<Type>,
        body: impl FnOnce(&mut Builder<'_>, &[ValueId]),
        cgfs: usize,
        cgf: impl Fn(&mut Builder<'_>, ValueId),
    ) -> (Module, OpId) {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        let mut m = Module::new(&c);
        let device = m.create_op(
            c.op("builtin.module"),
            &[],
            &[],
            [("sym_name", c.str_attr(sycl_mlir_sycl::DEVICE_MODULE_SYM))],
        );
        let region = m.add_region(device);
        m.add_block(region, &[]);
        let top_block = m.top_block();
        m.append_op(top_block, device);
        let params = [params(&c), vec![item_type(&c, 1)]].concat();
        let (kernel, entry) = build_func(&mut m, device, "K", &params, &[]);
        sycl_mlir_sycl::device::mark_kernel(&mut m, kernel);
        let args = m.block_args(entry).to_vec();
        let mut b = Builder::at_end(&mut m, entry);
        body(&mut b, &args);
        build_return(&mut b, &[]);

        for i in 0..cgfs {
            let top = m.top();
            let (_, entry) = build_func(&mut m, top, &format!("cgf_{i}"), &[c.ptr_type()], &[]);
            let cgh = m.block_arg(entry, 0);
            let mut b = Builder::at_end(&mut m, entry);
            cgf(&mut b, cgh);
            build_return(&mut b, &[]);
        }
        assert!(RaiseHostPass::default().run(&mut m).unwrap());
        HostDeviceConstantPropagationPass::default()
            .run(&mut m)
            .unwrap();
        (m, kernel)
    }

    /// A `sycl::range` of 32.
    fn range(b: &mut Builder<'_>) -> ValueId {
        let r = llvm::alloca(b, "sycl::range");
        let i64t = b.ctx().i64_type();
        let n = constant_int(b, 32, i64t);
        llvm::call(b, "sycl_range_ctor", &[r, n], &[]);
        r
    }

    /// A buffer of 32 `f32`s, with the initial data `init` if any.
    fn buffer(b: &mut Builder<'_>, init: Option<Attribute>) -> ValueId {
        let brange = range(b);
        let host_data = llvm::alloca(b, "host_data");
        let buf = llvm::alloca(b, "sycl::buffer");
        let ctor = "sycl_buffer_ctor_f32_1";
        let call = llvm::call(b, ctor, &[buf, host_data, brange], &[]);
        if let Some(data) = init {
            b.module().set_attr(call, "init_data", data);
        }
        buf
    }

    /// An accessor over `buf` in `mode`.
    fn accessor(b: &mut Builder<'_>, buf: ValueId, cgh: ValueId, mode: &str) -> ValueId {
        let acc = llvm::alloca(b, "sycl::accessor");
        let ctor = format!("sycl_accessor_ctor_f32_1_{mode}");
        llvm::call(b, &ctor, &[acc, buf, cgh], &[]);
        acc
    }

    /// The kernel `K(accessor<f32, 1, read_write>, i64)`, which reads its
    /// scalar, launched from `cgfs` host functions that each construct a
    /// buffer of 32 elements of their own and pass the scalar as 7: a
    /// kernel submitted k times with one command group is one function,
    /// with two buffers two.
    fn propagated(cgfs: usize) -> (Module, OpId) {
        propagated_with(
            |c| {
                let acc = accessor_type(c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
                vec![acc, c.i64_type()]
            },
            |b, args| {
                addi(b, args[1], args[1]);
            },
            cgfs,
            |b, cgh| {
                let grange = range(b);
                let buf = buffer(b, None);
                let acc = accessor(b, buf, cgh, "read_write");
                let i64t = b.ctx().i64_type();
                let seven = constant_int(b, 7, i64t);
                let launch = "sycl_parallel_for_range_K";
                llvm::call(b, launch, &[cgh, grange, acc, seven], &[]);
            },
        )
    }

    /// The accessor ranges of [`propagated`]'s kernel.
    fn arg_ranges_with(cgfs: usize) -> Vec<Option<Vec<i64>>> {
        let (m, kernel) = propagated(cgfs);
        facts::arg_ranges(&m, kernel)
            .expect("annotated")
            .map(|r| r.map(<[i64]>::to_vec))
            .collect()
    }

    #[test]
    fn one_command_group_pins_the_accessor_range() {
        assert_eq!(arg_ranges_with(1), [Some(vec![32]), None]);
    }

    #[test]
    fn two_buffers_leave_the_accessor_range_unknown() {
        assert_eq!(arg_ranges_with(2), [None, None]);
    }

    /// Propagation records the scalar it folds; a second run, which finds
    /// the parameter unused, keeps the record.
    #[test]
    fn a_second_run_keeps_the_folded_scalar() {
        let (mut m, kernel) = propagated(1);
        let folded = |m: &Module| -> Vec<Option<Attribute>> {
            (facts::folded_args(m, kernel).expect("recorded"))
                .map(Option::<&Attribute>::cloned)
                .collect()
        };
        let first = folded(&m);
        assert_eq!(first, [None, Some(Attribute::Int(7))]);
        HostDeviceConstantPropagationPass::default()
            .run(&mut m)
            .unwrap();
        assert_eq!(folded(&m), first);
    }

    /// A buffer with initial data that one accessor reads is constant to
    /// the kernel only while no other accessor over it can write it: with
    /// a second accessor that reads, both are constant arrays; with a
    /// second that writes, neither is.
    #[test]
    fn a_buffer_another_accessor_writes_is_not_constant() {
        let const_args = |second: &str| {
            let f32_acc =
                |c: &Context, mode| accessor_type(c, c.f32_type(), 1, mode, Target::Global);
            let second_mode = AccessMode::parse(second).unwrap();
            let (m, kernel) = propagated_with(
                |c| vec![f32_acc(c, AccessMode::Read), f32_acc(c, second_mode)],
                |_, _| {},
                1,
                |b, cgh| {
                    let grange = range(b);
                    let buf = buffer(b, Some(Attribute::DenseF64(vec![1.5; 32])));
                    let reader = accessor(b, buf, cgh, "read");
                    let other = accessor(b, buf, cgh, second);
                    let launch = "sycl_parallel_for_range_K";
                    llvm::call(b, launch, &[cgh, grange, reader, other], &[]);
                },
            );
            facts::CONST_ARGS.get(&m, kernel).map(<[i64]>::to_vec)
        };
        assert_eq!(const_args("read"), Some(vec![0, 1]));
        assert_eq!(const_args("write"), None);
    }
}
