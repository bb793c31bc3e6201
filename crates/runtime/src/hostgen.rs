//! Host IR generation: what clang + `mlir-translate` produce in Fig. 1.
//!
//! For every distinct recorded command group this emits a host
//! `func.func` whose body is `llvm`-dialect calls into the
//! (simplified-mangled) SYCL runtime: range/buffer/accessor constructions
//! and the `parallel_for` submission. A command group is the source-level
//! lambda a program hands to `q.submit`, so one inside a loop is one
//! function however many times it runs: submissions that would print the
//! same function share the first one's, and the host IR grows with the
//! program, not with its trace. This is the *low-level* form §VII-A calls
//! "too low-level for analysis"; the raising pass recovers the semantics
//! from it.

use crate::buffer::{BufferId, SyclRuntime, UsmId};
use crate::queue::{CgArg, CommandGroup, Queue};
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};
use sycl_mlir_dialects::{arith, llvm};
use sycl_mlir_ir::{Attribute, Builder, Module, OpId, ValueId};
use sycl_mlir_sim::DataVec;
use sycl_mlir_sycl::types::AccessMode;

fn mode_name(mode: AccessMode) -> &'static str {
    mode.as_str()
}

/// Refill `buf` with `args` and borrow the result. Every function and
/// callee name of the host IR is formatted into one reused buffer; the
/// builders intern it, so a name already in the context costs nothing.
fn name_in<'b>(buf: &'b mut String, args: fmt::Arguments<'_>) -> &'b str {
    buf.clear();
    buf.write_fmt(args)
        .expect("formatting into a String cannot fail");
    buf
}

/// Exactly what the emitter reads of a command group: two submissions
/// with equal keys print the same function.
#[derive(PartialEq, Eq, Hash)]
struct CgKey<'a> {
    kernel: &'a str,
    nd_form: bool,
    global: &'a [i64],
    /// Empty in range form, which emits no local range.
    local: &'a [i64],
    args: Vec<ArgKey>,
}

/// One argument of a [`CgKey`]. Floats are keyed by their bits, so `0.0`
/// and `-0.0` stay apart and a NaN equals itself; run-time scalars and USM
/// pointers are emitted as `llvm.undef` whatever their value, so only
/// their kind counts.
#[derive(PartialEq, Eq, Hash)]
enum ArgKey {
    Acc(BufferId, AccessMode),
    I64(i64),
    F64(u64),
    F32(u32),
    RuntimeI64,
    RuntimeF64,
    Usm,
}

impl<'a> CgKey<'a> {
    fn of(cg: &'a CommandGroup) -> CgKey<'a> {
        let rank = cg.nd.rank as usize;
        CgKey {
            kernel: &cg.kernel,
            nd_form: cg.nd_form,
            global: &cg.nd.global[..rank],
            local: if cg.nd_form {
                &cg.nd.local[..rank]
            } else {
                &[]
            },
            args: cg
                .args
                .iter()
                .map(|arg| match *arg {
                    CgArg::Acc { buffer, mode } => ArgKey::Acc(buffer, mode),
                    CgArg::ScalarI64(v) => ArgKey::I64(v),
                    CgArg::ScalarF64(v) => ArgKey::F64(v.to_bits()),
                    CgArg::ScalarF32(v) => ArgKey::F32(v.to_bits()),
                    CgArg::RuntimeI64(_) => ArgKey::RuntimeI64,
                    CgArg::RuntimeF64(_) => ArgKey::RuntimeF64,
                    CgArg::Usm { .. } => ArgKey::Usm,
                })
                .collect(),
        }
    }
}

/// What binding a kernel launch's arguments reads of its command group:
/// two launches with equal keys bind equal argument lists, so
/// [`crate::exec::run`] binds each distinct key once and shares the list.
///
/// It is finer than [`CgKey`] where binding reads a value the host IR
/// does not print: a run-time scalar and a USM pointer bind by value (the
/// scalar, the allocation and its length), while the host IR prints
/// `llvm.undef` for each. It is coarser where binding reads nothing: the
/// access mode and the nd-range are not part of an argument's value. A
/// constant and a run-time scalar of equal value bind equally. Floats are
/// compared by their bits, as in [`CgKey`].
pub(crate) struct BindKey<'a> {
    pub kernel: OpId,
    pub args: &'a [CgArg],
}

/// One argument as it binds.
#[derive(PartialEq, Eq, Hash)]
enum BoundArg {
    Buffer(BufferId),
    Int(i64),
    F64(u64),
    F32(u32),
    Usm(UsmId, i64),
}

impl BoundArg {
    fn of(arg: &CgArg) -> BoundArg {
        match *arg {
            CgArg::Acc { buffer, .. } => BoundArg::Buffer(buffer),
            CgArg::ScalarI64(v) | CgArg::RuntimeI64(v) => BoundArg::Int(v),
            CgArg::ScalarF64(v) | CgArg::RuntimeF64(v) => BoundArg::F64(v.to_bits()),
            CgArg::ScalarF32(v) => BoundArg::F32(v.to_bits()),
            CgArg::Usm { id, len } => BoundArg::Usm(id, len),
        }
    }
}

impl PartialEq for BindKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.kernel == other.kernel
            && self.args.len() == other.args.len()
            && (self.args.iter().zip(other.args)).all(|(a, b)| BoundArg::of(a) == BoundArg::of(b))
    }
}

impl Eq for BindKey<'_> {}

impl Hash for BindKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kernel.hash(state);
        state.write_usize(self.args.len());
        for arg in self.args {
            BoundArg::of(arg).hash(state);
        }
    }
}

/// Append one host function per distinct command group to the joint
/// module, named `cgf_{i}` after the first submission `i` that records it;
/// a later identical submission gets none, as a `q.submit` lambda in a
/// source loop is one function. Host tasks are skipped: their bodies are
/// arbitrary host code outside the compiler's view (no CGF to raise),
/// which is exactly why the paper's host analyses must treat them as
/// opaque.
pub fn generate_host_ir(m: &mut Module, runtime: &SyclRuntime, queue: &Queue) {
    let mut emitted = HashSet::new();
    // Reused by every function: the name being formatted, a call's
    // operands, and the command group's buffers and kernel arguments.
    let mut name = String::new();
    let mut operands: Vec<ValueId> = Vec::new();
    let mut buffer_ptrs: HashMap<BufferId, ValueId> = HashMap::new();
    let mut arg_values: Vec<ValueId> = Vec::new();
    for (i, cg) in queue.groups.iter().enumerate() {
        if cg.host.is_some() || !emitted.insert(CgKey::of(cg)) {
            continue;
        }
        let ptr = m.ctx().ptr_type();
        let top = m.top();
        let func_name = name_in(&mut name, format_args!("cgf_{i}"));
        let (_func, entry) = sycl_mlir_dialects::func::build_func(m, top, func_name, &[ptr], &[]);
        let cgh = m.block_arg(entry, 0);
        let mut b = Builder::at_end(m, entry);
        let i64t = b.ctx().i64_type();

        // ND-range objects: a `sycl::range` slot constructed from one
        // constant per dimension.
        let range = |b: &mut Builder<'_>, operands: &mut Vec<ValueId>, extents: &[i64]| {
            let slot = llvm::alloca(b, "sycl::range");
            operands.clear();
            operands.push(slot);
            for &extent in extents {
                operands.push(arith::constant_int(b, extent, i64t.clone()));
            }
            llvm::call(b, "sycl_range_ctor", operands, &[]);
            slot
        };
        let rank = cg.nd.rank as usize;
        let grange = range(&mut b, &mut operands, &cg.nd.global[..rank]);
        let lrange = cg
            .nd_form
            .then(|| range(&mut b, &mut operands, &cg.nd.local[..rank]));

        // Buffers are constructed once per CGF even when several accessors
        // share them (that sharing is exactly what the host analysis uses
        // for buffer identities).
        buffer_ptrs.clear();
        arg_values.clear();
        for arg in &cg.args {
            match arg {
                CgArg::Acc { buffer, mode } => {
                    let info = &runtime.buffers[buffer.0];
                    let buf_ptr = if let Some(&p) = buffer_ptrs.get(buffer) {
                        p
                    } else {
                        let extents = &info.range[..info.rank as usize];
                        let brange = range(&mut b, &mut operands, extents);
                        let host_data = llvm::alloca(&mut b, "host_data");
                        let buf = llvm::alloca(&mut b, "sycl::buffer");
                        let callee = name_in(
                            &mut name,
                            format_args!("sycl_buffer_ctor_{}_{}", info.dtype().name(), info.rank),
                        );
                        let call = llvm::call(&mut b, callee, &[buf, host_data, brange], &[]);
                        if let Some(data) = info.const_data() {
                            // The frontend sees a `const` initializer: bake
                            // it into the IR (the Sobel filter path).
                            let attr = match data {
                                DataVec::F32(v) => {
                                    Attribute::DenseF64(v.iter().map(|&x| x as f64).collect())
                                }
                                DataVec::F64(v) => Attribute::DenseF64(v.clone()),
                                DataVec::I32(v) => {
                                    Attribute::DenseI64(v.iter().map(|&x| x as i64).collect())
                                }
                                DataVec::I64(v) => Attribute::DenseI64(v.clone()),
                            };
                            b.module().set_attr(call, "init_data", attr);
                        }
                        buffer_ptrs.insert(*buffer, buf);
                        buf
                    };
                    let acc = llvm::alloca(&mut b, "sycl::accessor");
                    let callee = name_in(
                        &mut name,
                        format_args!(
                            "sycl_accessor_ctor_{}_{}_{}",
                            info.dtype().name(),
                            info.rank,
                            mode_name(*mode)
                        ),
                    );
                    llvm::call(&mut b, callee, &[acc, buf_ptr, cgh], &[]);
                    arg_values.push(acc);
                }
                CgArg::ScalarI64(v) => {
                    arg_values.push(arith::constant_int(&mut b, *v, i64t.clone()))
                }
                CgArg::ScalarF64(v) => {
                    let f64t = b.ctx().f64_type();
                    arg_values.push(arith::constant_float(&mut b, *v, f64t));
                }
                CgArg::ScalarF32(v) => {
                    let f32t = b.ctx().f32_type();
                    arg_values.push(arith::constant_float(&mut b, *v as f64, f32t));
                }
                CgArg::RuntimeI64(_) => {
                    let v = b.build_value("llvm.undef", &[], i64t.clone(), vec![]);
                    arg_values.push(v);
                }
                CgArg::RuntimeF64(_) => {
                    let f64t = b.ctx().f64_type();
                    let v = b.build_value("llvm.undef", &[], f64t, vec![]);
                    arg_values.push(v);
                }
                CgArg::Usm { .. } => {
                    // USM pointers are opaque to the host analysis: the
                    // user manages them manually (§II-A).
                    let v = b.build_value("llvm.undef", &[], b.ctx().ptr_type(), vec![]);
                    arg_values.push(v);
                }
            }
        }

        operands.clear();
        operands.extend([cgh, grange]);
        operands.extend(lrange);
        operands.extend_from_slice(&arg_values);
        let form = if cg.nd_form { "nd" } else { "range" };
        let callee = name_in(
            &mut name,
            format_args!("sycl_parallel_for_{form}_{}", cg.kernel),
        );
        llvm::call(&mut b, callee, &operands, &[]);
        sycl_mlir_dialects::func::build_return(&mut b, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Handler, HostOp};

    #[test]
    fn host_ir_emitted_and_raisable() {
        let ctx = sycl_mlir_frontend::full_context();
        let mut rt = SyclRuntime::new();
        let a = rt.buffer_f32(vec![0.0; 16], &[16]);
        let w = rt.buffer_const_f32(vec![1.0, 2.0, 3.0], &[3]);
        let mut q = Queue::new();
        q.submit(|h| {
            h.accessor(a, AccessMode::ReadWrite);
            h.accessor(w, AccessMode::Read);
            h.scalar_i64(3);
            h.parallel_for_nd("conv", &[16], &[4]);
        });
        let mut kb = sycl_mlir_frontend::KernelModuleBuilder::new(&ctx);
        generate_host_ir(kb.module(), &rt, &q);
        let m = kb.finish();
        sycl_mlir_ir::verify(&m).unwrap();
        let text = sycl_mlir_ir::print_module(&m);
        assert!(text.contains("func.func @cgf_0"), "{text}");
        assert!(text.contains("sycl_parallel_for_nd_conv"), "{text}");
        assert!(text.contains("sycl_buffer_ctor_f32_1"), "{text}");
        assert!(text.contains("init_data"), "{text}");
        assert!(
            text.contains("sycl_accessor_ctor_f32_1_read_write"),
            "{text}"
        );
    }

    /// Names of the host functions `generate_host_ir` emits for `q`.
    fn host_functions(rt: &SyclRuntime, q: &Queue) -> Vec<String> {
        let ctx = sycl_mlir_frontend::full_context();
        let mut kb = sycl_mlir_frontend::KernelModuleBuilder::new(&ctx);
        generate_host_ir(kb.module(), rt, q);
        let m = kb.finish();
        sycl_mlir_ir::verify(&m).unwrap();
        m.funcs_in(m.top())
            .into_iter()
            .map(|f| m.symbol_name(f).expect("named").to_string())
            .collect()
    }

    #[test]
    fn a_command_group_submitted_three_times_is_one_function() {
        let mut rt = SyclRuntime::new();
        let a = rt.buffer_f32(vec![0.0; 64], &[64]);
        let mut q = Queue::new();
        for _ in 0..3 {
            q.submit(|h| {
                h.accessor(a, AccessMode::ReadWrite);
                h.scalar_i64(3);
                h.parallel_for_nd("k", &[64], &[16]);
            });
        }
        assert_eq!(host_functions(&rt, &q), ["cgf_0"]);
    }

    #[test]
    fn every_emitted_field_tells_command_groups_apart() {
        let mut rt = SyclRuntime::new();
        let a = rt.buffer_f32(vec![0.0; 64], &[64]);
        let c = rt.buffer_f32(vec![0.0; 64], &[64]);
        let cg = |buffer, mode, x: f64, global: i64, local: Option<i64>| {
            move |h: &mut Handler| {
                h.accessor(buffer, mode);
                h.scalar_f64(x);
                match local {
                    Some(l) => h.parallel_for_nd("k", &[global], &[l]),
                    None => h.parallel_for("k", &[global]),
                }
            }
        };
        let base = cg(a, AccessMode::ReadWrite, 0.0, 64, Some(16));
        let variants = [
            ("buffer", cg(c, AccessMode::ReadWrite, 0.0, 64, Some(16))),
            ("access mode", cg(a, AccessMode::Read, 0.0, 64, Some(16))),
            (
                "scalar value",
                cg(a, AccessMode::ReadWrite, 1.0, 64, Some(16)),
            ),
            ("-0.0", cg(a, AccessMode::ReadWrite, -0.0, 64, Some(16))),
            (
                "global extent",
                cg(a, AccessMode::ReadWrite, 0.0, 128, Some(16)),
            ),
            (
                "local extent",
                cg(a, AccessMode::ReadWrite, 0.0, 64, Some(32)),
            ),
            ("range form", cg(a, AccessMode::ReadWrite, 0.0, 64, None)),
        ];
        for (what, variant) in variants {
            let mut q = Queue::new();
            q.submit(base);
            q.submit(variant);
            assert_eq!(host_functions(&rt, &q), ["cgf_0", "cgf_1"], "{what}");
        }
    }

    #[test]
    fn run_time_values_and_usm_allocations_do_not_split_a_command_group() {
        let mut rt = SyclRuntime::new();
        let u = rt.usm_alloc_f32(vec![0.0; 64]);
        let v = rt.usm_alloc_f32(vec![0.0; 64]);
        let mut q = Queue::new();
        for (n, x, usm) in [(1, 0.5, u), (2, -3.0, v)] {
            q.submit(|h| {
                h.runtime_i64(n);
                h.runtime_f64(x);
                h.usm(usm, 64);
                h.scalar_f64(f64::NAN);
                h.parallel_for("k", &[64]);
            });
        }
        assert_eq!(host_functions(&rt, &q), ["cgf_0"]);
    }

    #[test]
    fn host_tasks_emit_nothing_and_do_not_break_sharing() {
        let mut rt = SyclRuntime::new();
        let a = rt.buffer_f32(vec![0.0; 64], &[64]);
        let host = HostOp::Scale {
            buffer: a,
            factor: 2.0,
        };
        let kernel = |h: &mut Handler| {
            h.accessor(a, AccessMode::ReadWrite);
            h.parallel_for("k", &[64]);
        };
        let mut q = Queue::new();
        q.submit(|h| h.host_task(host));
        assert!(host_functions(&rt, &q).is_empty());
        q.submit(kernel);
        q.submit(|h| h.host_task(host));
        q.submit(kernel);
        assert_eq!(host_functions(&rt, &q), ["cgf_1"]);
    }
}
