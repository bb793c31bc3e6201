//! Host-device optimization (§VII-B of the paper).
//!
//! After raising, the host's `sycl.host.constructor` /
//! `sycl.host.schedule_kernel` ops expose each kernel's *invocation
//! context*. This pass analyses every launch site of every kernel in the
//! joint module and propagates into the device code:
//!
//! * **Constant ND-range propagation** — constant global/local ranges land
//!   as kernel attributes and the corresponding getter ops
//!   (`sycl.nd_item.get_global_range`, …) fold to constants;
//! * **Scalar constant propagation** — kernel scalar arguments constant at
//!   every launch site are materialized as constants in the kernel;
//! * **Accessor member propagation** — constant accessor ranges fold
//!   `sycl.accessor.get_range`, and *buffer identities* are attached so the
//!   SYCL-aware alias analysis can separate accessors over distinct buffers
//!   (the refinement §VII-B motivates with Listing 8);
//! * **Constant-array arguments** — read-only accessors over buffers whose
//!   host data is a compile-time constant (the Sobel filter case of §VIII)
//!   are marked `sycl.const_args`, letting the device treat their loads as
//!   constant-memory accesses.
//!
//! [`DeadArgumentEliminationPass`] is the paper's *SYCL Dead Argument
//! Elimination*: kernel arguments left unused after propagation are
//! recorded so the runtime skips passing them, "making kernel launches more
//! efficient on the host side".

use std::collections::HashMap;
use sycl_mlir_ir::{Attribute, Builder, Module, OpId, Pass, ValueId, WalkControl};
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
        let mut launches: HashMap<OpId, Vec<LaunchInfo>> = HashMap::new();
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
            m.set_attr(
                kernel,
                sycl_mlir_sycl::KERNEL_GLOBAL_RANGE_ATTR,
                Attribute::DenseI64(g),
            );
            self.stats.nd_ranges_propagated += 1;
            changed = true;
        }
        if let Some(l) = all_equal(|i| &i.local_range) {
            m.set_attr(
                kernel,
                sycl_mlir_sycl::KERNEL_LOCAL_RANGE_ATTR,
                Attribute::DenseI64(l),
            );
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
                let mut assigned: HashMap<OpId, i64> = HashMap::new();
                for (i, fact) in first.args.iter().enumerate() {
                    if let ArgFact::Accessor { buffer_ctor, .. } = fact {
                        let id = *assigned.entry(*buffer_ctor).or_insert_with(|| {
                            let id = next;
                            next += 1;
                            id
                        });
                        buffer_ids[i] = id;
                    }
                }
                m.set_attr(
                    kernel,
                    sycl_mlir_analysis::alias::ARG_BUFFER_IDS_ATTR,
                    Attribute::DenseI64(buffer_ids),
                );
                self.stats.kernels_annotated += 1;
                changed = true;
            }
        }

        // Scalar constants, const arrays and accessor ranges.
        let mut const_args = Vec::new();
        let mut arg_ranges: Vec<Attribute> = Vec::new();
        for i in 0..nargs {
            let fact = &first.args[i];
            let agree = infos.iter().all(|info| &info.args[i] == fact);
            match fact {
                ArgFact::ConstScalar(attr) if agree => {
                    if i < params.len() && m.value_has_uses(params[i]) {
                        let mut b = Builder::at(m, entry, 0);
                        let ty = b.module().value_type(params[i]);
                        let cst = b.build_value(
                            "arith.constant",
                            &[],
                            ty,
                            vec![("value".into(), attr.clone())],
                        );
                        b.module().replace_all_uses(params[i], cst);
                        self.stats.scalars_propagated += 1;
                        changed = true;
                    }
                    arg_ranges.push(Attribute::Int(-1));
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
                    match range {
                        Some(r) if agree => arg_ranges.push(Attribute::DenseI64(r.clone())),
                        _ => arg_ranges.push(Attribute::Int(-1)),
                    }
                }
                _ => arg_ranges.push(Attribute::Int(-1)),
            }
        }
        if !const_args.is_empty() {
            self.stats.const_array_args += const_args.len();
            m.set_attr(kernel, "sycl.const_args", Attribute::DenseI64(const_args));
            changed = true;
        }
        m.set_attr(kernel, "sycl.arg_ranges", Attribute::Array(arg_ranges));

        // --- Device-side folding of getters ---
        changed |= self.fold_device_queries(m, kernel);
        changed
    }

    /// Replace `get_global_range` / `get_local_range` / `get_group_range` /
    /// `accessor.get_range` with constants where the kernel attributes pin
    /// them down.
    fn fold_device_queries(&mut self, m: &mut Module, kernel: OpId) -> bool {
        let global = m
            .attr(kernel, sycl_mlir_sycl::KERNEL_GLOBAL_RANGE_ATTR)
            .and_then(|a| a.as_dense_i64())
            .map(|v| v.to_vec());
        let local = m
            .attr(kernel, sycl_mlir_sycl::KERNEL_LOCAL_RANGE_ATTR)
            .and_then(|a| a.as_dense_i64())
            .map(|v| v.to_vec());
        let arg_ranges = m.attr(kernel, "sycl.arg_ranges").cloned();
        let entry = m.op_region_block(kernel, 0);
        let params = m.block_args(entry).to_vec();

        let mut targets: Vec<(OpId, i64)> = Vec::new();
        m.walk(kernel, &mut |op| {
            let name = m.op_name_str(op);
            let dim = m
                .op_operands(op)
                .get(1)
                .and_then(|&d| sycl_mlir_dialects::arith::const_int_of(m, d))
                .unwrap_or(-1);
            let value = match &*name {
                "sycl.nd_item.get_global_range" | "sycl.item.get_range" => {
                    global.as_ref().and_then(|g| g.get(dim as usize).copied())
                }
                "sycl.nd_item.get_local_range" => {
                    local.as_ref().and_then(|l| l.get(dim as usize).copied())
                }
                "sycl.nd_item.get_group_range" => match (&global, &local) {
                    (Some(g), Some(l)) => g
                        .get(dim as usize)
                        .zip(l.get(dim as usize))
                        .map(|(&g, &l)| g / l),
                    _ => None,
                },
                "sycl.accessor.get_range" => {
                    let acc = m.op_operand(op, 0);
                    params
                        .iter()
                        .position(|&p| p == acc)
                        .and_then(|arg_idx| {
                            arg_ranges
                                .as_ref()
                                .and_then(|a| a.as_array())
                                .and_then(|ranges| ranges.get(arg_idx).cloned())
                        })
                        .and_then(|entry| match entry {
                            Attribute::DenseI64(r) => r.get(dim as usize).copied(),
                            _ => None,
                        })
                }
                _ => None,
            };
            if let Some(v) = value {
                targets.push((op, v));
            }
            WalkControl::Advance
        });
        let changed = !targets.is_empty();
        for (op, value) in targets {
            let block = m.op_parent_block(op).expect("attached");
            let index = m.op_index_in_block(op);
            let name = m.ctx().op("arith.constant");
            let ty = m.value_type(m.op_result(op, 0));
            let cst = m.create_op(
                name,
                &[],
                &[ty],
                vec![("value".into(), Attribute::Int(value))],
            );
            m.insert_op(block, index, cst);
            let new_v = m.op_result(cst, 0);
            m.replace_all_uses(m.op_result(op, 0), new_v);
            m.erase_op(op);
            self.stats.getters_folded += 1;
        }
        changed
    }
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
                if sycl_mlir_sycl::types::is_item_like(&ty) {
                    continue;
                }
                if !m.value_has_uses(p) {
                    dead.push(i as i64);
                }
            }
            if !dead.is_empty() {
                self.dead_args_found += dead.len();
                m.set_attr(
                    kernel,
                    sycl_mlir_sycl::KERNEL_DEAD_ARGS_ATTR,
                    Attribute::DenseI64(dead),
                );
                changed = true;
            }
        }
        Ok(changed)
    }
}
