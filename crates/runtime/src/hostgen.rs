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

use crate::buffer::{BufferId, SyclRuntime};
use crate::queue::{CgArg, CommandGroup, Queue};
use std::collections::{HashMap, HashSet};
use sycl_mlir_dialects::{arith, llvm};
use sycl_mlir_ir::{Attribute, Builder, Module, ValueId};
use sycl_mlir_sim::DataVec;
use sycl_mlir_sycl::types::AccessMode;

fn elem_name(d: &DataVec) -> &'static str {
    match d {
        DataVec::F32(_) => "f32",
        DataVec::F64(_) => "f64",
        DataVec::I32(_) => "i32",
        DataVec::I64(_) => "i64",
    }
}

fn mode_name(mode: AccessMode) -> &'static str {
    mode.as_str()
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

/// Append one host function per distinct command group to the joint
/// module, named `cgf_{i}` after the first submission `i` that records it;
/// a later identical submission gets none, as a `q.submit` lambda in a
/// source loop is one function. Host tasks are skipped: their bodies are
/// arbitrary host code outside the compiler's view (no CGF to raise),
/// which is exactly why the paper's host analyses must treat them as
/// opaque.
pub fn generate_host_ir(m: &mut Module, runtime: &SyclRuntime, queue: &Queue) {
    let mut emitted = HashSet::new();
    for (i, cg) in queue.groups.iter().enumerate() {
        if cg.host.is_some() || !emitted.insert(CgKey::of(cg)) {
            continue;
        }
        let ptr = m.ctx().ptr_type();
        let top = m.top();
        let (_func, entry) =
            sycl_mlir_dialects::func::build_func(m, top, &format!("cgf_{i}"), &[ptr], &[]);
        let cgh = m.block_arg(entry, 0);
        let mut b = Builder::at_end(m, entry);
        let i64t = b.ctx().i64_type();

        // ND-range objects.
        let grange = llvm::alloca(&mut b, "sycl::range");
        let mut gargs = vec![grange];
        for d in 0..cg.nd.rank as usize {
            gargs.push(arith::constant_int(&mut b, cg.nd.global[d], i64t.clone()));
        }
        llvm::call(&mut b, "sycl_range_ctor", &gargs, &[]);
        let lrange = if cg.nd_form {
            let lrange = llvm::alloca(&mut b, "sycl::range");
            let mut largs = vec![lrange];
            for d in 0..cg.nd.rank as usize {
                largs.push(arith::constant_int(&mut b, cg.nd.local[d], i64t.clone()));
            }
            llvm::call(&mut b, "sycl_range_ctor", &largs, &[]);
            Some(lrange)
        } else {
            None
        };

        // Buffers are constructed once per CGF even when several accessors
        // share them (that sharing is exactly what the host analysis uses
        // for buffer identities).
        let mut buffer_ptrs: HashMap<BufferId, ValueId> = HashMap::new();
        let mut arg_values: Vec<ValueId> = Vec::new();
        for arg in &cg.args {
            match arg {
                CgArg::Acc { buffer, mode } => {
                    let info = &runtime.buffers[buffer.0];
                    let buf_ptr = if let Some(&p) = buffer_ptrs.get(buffer) {
                        p
                    } else {
                        let brange = llvm::alloca(&mut b, "sycl::range");
                        let mut bargs = vec![brange];
                        for d in 0..info.rank as usize {
                            bargs.push(arith::constant_int(&mut b, info.range[d], i64t.clone()));
                        }
                        llvm::call(&mut b, "sycl_range_ctor", &bargs, &[]);
                        let host_data = llvm::alloca(&mut b, "host_data");
                        let buf = llvm::alloca(&mut b, "sycl::buffer");
                        let callee =
                            format!("sycl_buffer_ctor_{}_{}", elem_name(&info.data), info.rank);
                        let call = llvm::call(&mut b, &callee, &[buf, host_data, brange], &[]);
                        if info.const_init {
                            // The frontend sees a `const` initializer: bake
                            // it into the IR (the Sobel filter path).
                            let attr = match &info.data {
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
                    let callee = format!(
                        "sycl_accessor_ctor_{}_{}_{}",
                        elem_name(&runtime.buffers[buffer.0].data),
                        runtime.buffers[buffer.0].rank,
                        mode_name(*mode)
                    );
                    llvm::call(&mut b, &callee, &[acc, buf_ptr, cgh], &[]);
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

        let (callee, mut call_args) = if cg.nd_form {
            (
                format!("sycl_parallel_for_nd_{}", cg.kernel),
                vec![cgh, grange, lrange.expect("nd form has local range")],
            )
        } else {
            (
                format!("sycl_parallel_for_range_{}", cg.kernel),
                vec![cgh, grange],
            )
        };
        call_args.extend(arg_values);
        llvm::call(&mut b, &callee, &call_args, &[]);
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
