//! Program compilation + execution: ties the compiler flows, the runtime
//! state and the simulated device together.

use crate::buffer::SyclRuntime;
use crate::queue::{CgArg, HostOp, Queue};
use std::collections::HashSet;
use sycl_mlir_core::{CompileOutcome, Flow, FlowKind};
use sycl_mlir_ir::{Module, OpId};
use sycl_mlir_sim::{
    AccessorVal, BatchLaunch, Device, Dtype, ExecStats, HostNode, HostView, MemId, MemoryPool,
    RtValue, SimError,
};
use sycl_mlir_sycl::facts;

/// A compiled SYCL application (joint module + flow that produced it).
pub struct Program {
    /// The compiled joint module.
    pub module: Module,
    /// The flow that compiled it.
    pub flow: Flow,
    /// Pipeline diagnostics recorded during compilation.
    pub outcome: CompileOutcome,
    jit_done: HashSet<String>,
}

/// Compile the joint module under the given flow.
///
/// # Errors
///
/// Propagates pipeline failures (pass errors, verifier reports).
pub fn compile_program(kind: FlowKind, mut module: Module) -> Result<Program, String> {
    let flow = Flow::new(kind);
    let outcome = flow.compile(&mut module)?;
    Ok(Program {
        module,
        flow,
        outcome,
        jit_done: HashSet::new(),
    })
}

/// Execution record of one kernel launch.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Kernel name as submitted.
    pub kernel: String,
    /// Dynamic statistics of the launch, cycles charged.
    pub stats: ExecStats,
    /// Host-side launch overhead (reduced by dead-argument elimination).
    pub launch_cycles: f64,
    /// One-time JIT cost charged at this launch (AdaptiveCpp first run).
    pub jit_cycles: f64,
}

/// Execution record of a full queue.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// One record per command group, in submission order.
    pub kernel_runs: Vec<KernelRun>,
}

impl RunReport {
    /// Device + launch cycles — the quantity the paper's figures compare
    /// (after the warm-up run absorbed JIT costs, §VIII).
    pub fn measured_cycles(&self) -> f64 {
        self.kernel_runs
            .iter()
            .map(|k| k.stats.device_cycles + k.launch_cycles)
            .sum()
    }

    /// Including one-time JIT costs (what the discarded warm-up run pays).
    pub fn cold_cycles(&self) -> f64 {
        self.measured_cycles() + self.kernel_runs.iter().map(|k| k.jit_cycles).sum::<f64>()
    }

    /// Sum of the per-kernel statistics.
    pub fn total_stats(&self) -> ExecStats {
        let mut s = ExecStats::default();
        for k in &self.kernel_runs {
            s.add(&k.stats);
        }
        s
    }
}

/// Execute every command group of `queue` on `device`, reading/writing the
/// runtime's buffers.
///
/// The whole program is ONE launch graph: every command group — kernel
/// or host task — is a node, ordered by the queue's hazard edges
/// ([`Queue::dep_graph`]), and the graph is handed to
/// [`Device::launch_graph`]. The plan engine runs it out of order (a
/// launch starts the moment its own dependencies retire); the tree-walk
/// engine is the serial reference and runs the nodes in submission order.
/// Both produce bit-identical buffers, statistics and report tables; only
/// wall time differs.
///
/// Host tasks ([`crate::queue::HostOp`]) are first-class graph nodes
/// ([`HostNode`]): hazard-tracked and metered at a fixed weight like any
/// kernel launch — kernels with no hazard on a host task overlap it
/// freely.
///
/// # Errors
///
/// Fails on unresolved kernels, interpreter errors, or divergent barriers.
/// With several failing work-groups anywhere in the program, the error of
/// the lexicographically smallest `(submission, work-group)` position is
/// reported, identically under both engines and every thread count. Every
/// error — limit trips, kernel failures and host-task failures alike —
/// carries the **submission index** of the offending command group
/// (launch index and submission index coincide in the whole-program
/// graph); a wedged kernel program fails instead of hanging, and the
/// device stays usable for the next run.
pub fn run(
    program: &mut Program,
    runtime: &mut SyclRuntime,
    queue: &Queue,
    device: &Device,
) -> Result<RunReport, SimError> {
    let mut pool = MemoryPool::new();
    let (buf_mems, usm_mems) = runtime.upload_to_device(&mut pool);

    // Resolve and (for AdaptiveCpp) JIT-specialize every kernel in
    // **submission order**, before any launch. Specialization reads only
    // the module and the seeding command group's geometry/buffer ids —
    // never execution results — so hoisting it is unobservable; doing it
    // in submission order guarantees the same command group seeds a
    // kernel's one-shot specialization however the scheduler reorders
    // execution (a kernel name can appear at several dependency levels).
    let mut kernels: Vec<Option<OpId>> = Vec::with_capacity(queue.groups.len());
    let mut jit_cycles_of: Vec<f64> = Vec::with_capacity(queue.groups.len());
    for cg in &queue.groups {
        if cg.host.is_some() {
            kernels.push(None);
            jit_cycles_of.push(0.0);
            continue;
        }
        let kernel = resolve_kernel(&program.module, &cg.kernel).ok_or_else(|| {
            SimError::msg(format!(
                "kernel `{}` not found in the device module",
                cg.kernel
            ))
        })?;

        // AdaptiveCpp: JIT-specialize on first launch with runtime
        // context.
        let mut jit_cycles = 0.0;
        if program.flow.kind == FlowKind::AdaptiveCpp && !program.jit_done.contains(&cg.kernel) {
            let ids: Vec<i64> = cg
                .args
                .iter()
                .map(|a| match a {
                    CgArg::Acc { buffer, .. } => buffer.0 as i64,
                    _ => -1,
                })
                .collect();
            let rank = cg.nd.rank as usize;
            program
                .flow
                .jit_specialize(
                    &mut program.module,
                    kernel,
                    &cg.nd.global[..rank],
                    &cg.nd.local[..rank],
                    &ids,
                )
                .map_err(|e| SimError::msg(format!("JIT specialization failed: {e}")))?;
            program.jit_done.insert(cg.kernel.clone());
            jit_cycles = device.cost.jit_compile;
        }
        kernels.push(Some(kernel));
        jit_cycles_of.push(jit_cycles);
    }

    // One launch-graph node per command group. Kernel arguments are bound
    // now, after every JIT specialization above (they may have refreshed
    // the constant-argument attributes); host nodes carry none — their
    // closures captured the buffer ids.
    let dag = queue.dep_graph();
    let mut launches: Vec<BatchLaunch> = Vec::with_capacity(queue.groups.len());
    for (cg, kernel) in queue.groups.iter().zip(&kernels) {
        let Some(kernel) = *kernel else {
            let op = cg.host.expect("a command group is a kernel or a host task");
            launches.push(BatchLaunch::host_node(host_node_of(op, &buf_mems)));
            continue;
        };
        let const_args = facts::CONST_ARGS
            .get(&program.module, kernel)
            .unwrap_or_default();
        let args = cg
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| match a {
                CgArg::Acc { buffer, .. } => {
                    let info = &runtime.buffers[buffer.0];
                    RtValue::Accessor(AccessorVal {
                        mem: buf_mems[buffer.0],
                        range: info.range,
                        offset: [0; 3],
                        rank: info.rank,
                        constant: const_args.contains(&(i as i64)),
                    })
                }
                CgArg::ScalarI64(v) | CgArg::RuntimeI64(v) => RtValue::Int(*v),
                CgArg::ScalarF64(v) | CgArg::RuntimeF64(v) => RtValue::F64(*v),
                CgArg::ScalarF32(v) => RtValue::F32(*v),
                CgArg::Usm { id, len } => RtValue::Accessor(AccessorVal {
                    mem: usm_mems[id.0],
                    range: [*len, 1, 1],
                    offset: [0; 3],
                    rank: 1,
                    constant: false,
                }),
            })
            .collect();
        launches.push(BatchLaunch::kernel(kernel, args, cg.nd));
    }

    // Errors come back stamped by the device with the launch's index in
    // this graph — which IS the submission index.
    let stats = device.launch_graph(&program.module, &launches, &dag, &mut pool)?;

    // Report rows in submission order (the graph's node order), so
    // downstream sums (f64 cycle totals) are bit-identical under both
    // engines and every thread count.
    let kernel_runs = queue
        .groups
        .iter()
        .zip(&launches)
        .zip(stats.into_iter().zip(jit_cycles_of))
        .map(|((cg, launch), (stats, jit_cycles))| match launch {
            BatchLaunch::Kernel { kernel, .. } => {
                let kernel = *kernel;
                // Launch overhead: DAE-marked arguments are not passed
                // (§VII-B).
                let dead = facts::DEAD_ARGS
                    .get(&program.module, kernel)
                    .map_or(0, <[i64]>::len);
                let passed = cg.args.len().saturating_sub(dead);
                let launch_cycles =
                    device.cost.launch_base + device.cost.launch_per_arg * passed as f64;
                KernelRun {
                    kernel: cg.kernel.clone(),
                    stats,
                    launch_cycles,
                    jit_cycles,
                }
            }
            // Host rows: zeroed stats and no launch overhead.
            BatchLaunch::Host(_) => KernelRun {
                kernel: cg.kernel.clone(),
                stats: ExecStats::default(),
                launch_cycles: 0.0,
                jit_cycles: 0.0,
            },
        })
        .collect();
    let report = RunReport { kernel_runs };
    runtime.download_from_device(&pool, &buf_mems, &usm_mems);
    Ok(report)
}

/// Build the [`HostNode`] closure of a host task over the device-resident
/// buffers. Element updates go through `f64` for every element type (with
/// the exact legacy conversions: `i32` elements saturate through `as i32`
/// before the truncating store), so the result is deterministic and
/// independent of the schedule position granted by the hazard DAG. A
/// type-mismatched `AddInto` reports a structured [`SimError`] with
/// pinned text instead of panicking a worker.
fn host_node_of(op: HostOp, buf_mems: &[MemId]) -> HostNode {
    let apply = |mem: MemId, f: Box<dyn Fn(f64) -> f64 + Send + Sync>| {
        HostNode::new(move |view: &HostView<'_, '_>| {
            let n = view.len(mem)? as i64;
            match view.dtype(mem)? {
                Dtype::F32 => {
                    for i in 0..n {
                        let RtValue::F32(x) = view.load(mem, i)? else {
                            unreachable!("f32 buffer loads f32")
                        };
                        view.store(mem, i, RtValue::F32(f(x as f64) as f32))?;
                    }
                }
                Dtype::F64 => {
                    for i in 0..n {
                        let RtValue::F64(x) = view.load(mem, i)? else {
                            unreachable!("f64 buffer loads f64")
                        };
                        view.store(mem, i, RtValue::F64(f(x)))?;
                    }
                }
                Dtype::I32 => {
                    for i in 0..n {
                        let RtValue::Int(x) = view.load(mem, i)? else {
                            unreachable!("i32 buffer loads int")
                        };
                        view.store(mem, i, RtValue::Int(f(x as f64) as i32 as i64))?;
                    }
                }
                Dtype::I64 => {
                    for i in 0..n {
                        let RtValue::Int(x) = view.load(mem, i)? else {
                            unreachable!("i64 buffer loads int")
                        };
                        view.store(mem, i, RtValue::Int(f(x as f64) as i64))?;
                    }
                }
            }
            Ok(())
        })
    };
    match op {
        HostOp::Scale { buffer, factor } => {
            apply(buf_mems[buffer.0], Box::new(move |x| x * factor))
        }
        HostOp::Shift { buffer, delta } => apply(buf_mems[buffer.0], Box::new(move |x| x + delta)),
        HostOp::AddInto { dst, src } => {
            let (dst, src) = (buf_mems[dst.0], buf_mems[src.0]);
            HostNode::new(move |view: &HostView<'_, '_>| {
                let (dd, sd) = (view.dtype(dst)?, view.dtype(src)?);
                if dd != sd {
                    return Err(SimError::msg(format!(
                        "host AddInto over mismatched element types {} -> {}",
                        sd.name(),
                        dd.name()
                    )));
                }
                // The legacy zip clamps to the shorter buffer.
                let n = view.len(dst)?.min(view.len(src)?) as i64;
                for i in 0..n {
                    match (view.load(dst, i)?, view.load(src, i)?) {
                        (RtValue::F32(d), RtValue::F32(s)) => {
                            view.store(dst, i, RtValue::F32(d + s))?
                        }
                        (RtValue::F64(d), RtValue::F64(s)) => {
                            view.store(dst, i, RtValue::F64(d + s))?
                        }
                        // i32 sums stay in range in i64 and the store
                        // truncates — exactly i32 wrapping addition.
                        (RtValue::Int(d), RtValue::Int(s)) => {
                            view.store(dst, i, RtValue::Int(d.wrapping_add(s)))?
                        }
                        _ => unreachable!("element types checked equal above"),
                    }
                }
                Ok(())
            })
        }
    }
}

fn resolve_kernel(m: &Module, name: &str) -> Option<OpId> {
    let device = m.lookup_symbol(m.top(), sycl_mlir_sycl::DEVICE_MODULE_SYM)?;
    m.lookup_symbol(device, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostgen::generate_host_ir;
    use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
    use sycl_mlir_sycl::types::AccessMode;

    /// End-to-end: build a vadd application, compile with each flow, run,
    /// and check all three produce identical results.
    #[test]
    fn vadd_end_to_end_all_flows() {
        let n = 64_i64;
        for kind in FlowKind::all() {
            let ctx = full_context();
            let mut kb = KernelModuleBuilder::new(&ctx);
            let sig = KernelSig::new("vadd", 1, true)
                .accessor(ctx.f32_type(), 1, AccessMode::Read)
                .accessor(ctx.f32_type(), 1, AccessMode::Read)
                .accessor(ctx.f32_type(), 1, AccessMode::Write);
            kb.add_kernel(&sig, |b, args, item| {
                let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
                let va = sycl_mlir_sycl::device::load_via_id(b, args[0], &[gid]);
                let vb = sycl_mlir_sycl::device::load_via_id(b, args[1], &[gid]);
                let sum = sycl_mlir_dialects::arith::addf(b, va, vb);
                sycl_mlir_sycl::device::store_via_id(b, sum, args[2], &[gid]);
            });

            let mut rt = SyclRuntime::new();
            let a = rt.buffer_f32((0..n).map(|i| i as f32).collect(), &[n]);
            let b_buf = rt.buffer_f32(vec![100.0; n as usize], &[n]);
            let c_buf = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let mut q = Queue::new();
            q.submit(|h| {
                h.accessor(a, AccessMode::Read)
                    .accessor(b_buf, AccessMode::Read)
                    .accessor(c_buf, AccessMode::Write);
                h.parallel_for_nd("vadd", &[n], &[16]);
            });
            generate_host_ir(kb.module(), &rt, &q);
            let module = kb.finish();

            let mut program =
                compile_program(kind, module).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            let device = Device::new();
            let report = run(&mut program, &mut rt, &q, &device)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));

            let out = rt.read_f32(c_buf);
            assert_eq!(out[0], 100.0, "{}", kind.name());
            assert_eq!(out[63], 163.0, "{}", kind.name());
            assert!(report.measured_cycles() > 0.0);
            if kind == FlowKind::AdaptiveCpp {
                assert!(report.cold_cycles() > report.measured_cycles());
            }
        }
    }

    /// A kernel name appearing at *different dependency levels* must be
    /// JIT-specialized by the same (submission-order-first) command group
    /// whether the scheduler reorders execution (plan engine, 4 workers)
    /// or not (the tree-walk serial reference) — otherwise the two
    /// schedules would bake different geometries into the kernel and the
    /// bit-identical contract of [`run`] would break. Exercises
    /// AdaptiveCpp (the only flow that JIT-specializes) with kernel `k`
    /// submitted at level 1 first (reads what `p` wrote) and at level 0
    /// second.
    #[test]
    fn batching_preserves_jit_specialization_order() {
        use sycl_mlir_sim::Engine;
        let n = 32_i64;
        let build_and_run = |engine: Engine| {
            let ctx = full_context();
            let mut kb = KernelModuleBuilder::new(&ctx);
            let sig_p = KernelSig::new("p", 1, true)
                .accessor(ctx.f32_type(), 1, AccessMode::Write)
                .scalar(ctx.f32_type());
            kb.add_kernel(&sig_p, |b, args, item| {
                let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
                sycl_mlir_sycl::device::store_via_id(b, args[1], args[0], &[gid]);
            });
            let sig_k = KernelSig::new("k", 1, true)
                .accessor(ctx.f32_type(), 1, AccessMode::Read)
                .accessor(ctx.f32_type(), 1, AccessMode::Write);
            kb.add_kernel(&sig_k, |b, args, item| {
                let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
                let v = sycl_mlir_sycl::device::load_via_id(b, args[0], &[gid]);
                let d = sycl_mlir_dialects::arith::addf(b, v, v);
                sycl_mlir_sycl::device::store_via_id(b, d, args[1], &[gid]);
            });

            let mut rt = SyclRuntime::new();
            let a = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let b_buf = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let c_buf = rt.buffer_f32(vec![1.0; n as usize], &[n]);
            let d_buf = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let mut q = Queue::new();
            // CG0: p writes a (level 0).
            q.submit(|h| {
                h.accessor(a, AccessMode::Write).scalar_f32(2.5);
                h.parallel_for_nd("p", &[n], &[16]);
            });
            // CG1: k reads a — level 1, but first submission of `k`, so it
            // must seed the JIT specialization under the scheduler too.
            q.submit(|h| {
                h.accessor(a, AccessMode::Read)
                    .accessor(b_buf, AccessMode::Write);
                h.parallel_for_nd("k", &[n], &[16]);
            });
            // CG2: k again, over unrelated buffers — level 0, i.e. the
            // scheduler may *execute* it before CG1.
            q.submit(|h| {
                h.accessor(c_buf, AccessMode::Read)
                    .accessor(d_buf, AccessMode::Write);
                h.parallel_for_nd("k", &[n], &[16]);
            });
            generate_host_ir(kb.module(), &rt, &q);
            let module = kb.finish();

            let mut program = compile_program(FlowKind::AdaptiveCpp, module).unwrap();
            let device = Device::with_engine(engine).threads(4);
            let report = run(&mut program, &mut rt, &q, &device).unwrap();
            let per_kernel: Vec<(String, f64, sycl_mlir_sim::ExecStats)> = report
                .kernel_runs
                .iter()
                .map(|k| (k.kernel.clone(), k.jit_cycles, k.stats.clone()))
                .collect();
            (
                per_kernel,
                rt.read_f32(b_buf).to_vec(),
                rt.read_f32(d_buf).to_vec(),
            )
        };
        let (seq_runs, seq_b, seq_d) = build_and_run(Engine::TreeWalk);
        let (bat_runs, bat_b, bat_d) = build_and_run(Engine::Plan);
        assert_eq!(seq_b, bat_b, "level-1 output differs under the scheduler");
        assert_eq!(seq_d, bat_d, "level-0 output differs under the scheduler");
        assert_eq!(seq_runs, bat_runs, "per-kernel reports differ");
        // The JIT cost lands on CG1 — `k`'s first *submission* — not CG2.
        assert!(seq_runs[1].1 > 0.0, "CG1 must carry k's JIT cost");
        assert_eq!(seq_runs[2].1, 0.0, "CG2 must not re-specialize");
    }

    /// DAE shrinks the launch cost: a kernel with an unused accessor
    /// argument launches cheaper under SYCL-MLIR than under DPC++.
    #[test]
    fn dead_argument_elimination_reduces_launch_cost() {
        let n = 32_i64;
        let mut cycles = Vec::new();
        for kind in [FlowKind::Dpcpp, FlowKind::SyclMlir] {
            let ctx = full_context();
            let mut kb = KernelModuleBuilder::new(&ctx);
            let sig = KernelSig::new("writer", 1, true)
                .accessor(ctx.f32_type(), 1, AccessMode::Write)
                .accessor(ctx.f32_type(), 1, AccessMode::Read) // never used
                .scalar(ctx.f32_type());
            kb.add_kernel(&sig, |b, args, item| {
                let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
                sycl_mlir_sycl::device::store_via_id(b, args[2], args[0], &[gid]);
            });
            let mut rt = SyclRuntime::new();
            let out = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let unused = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let mut q = Queue::new();
            q.submit(|h| {
                h.accessor(out, AccessMode::Write)
                    .accessor(unused, AccessMode::Read)
                    .scalar_f32(7.5);
                h.parallel_for_nd("writer", &[n], &[16]);
            });
            generate_host_ir(kb.module(), &rt, &q);
            let module = kb.finish();
            let mut program = compile_program(kind, module).unwrap();
            let device = Device::new();
            let report = run(&mut program, &mut rt, &q, &device).unwrap();
            assert_eq!(rt.read_f32(out)[5], 7.5);
            cycles.push(report.kernel_runs[0].launch_cycles);
        }
        assert!(
            cycles[1] < cycles[0],
            "SYCL-MLIR launch {} should be cheaper than DPC++ {}",
            cycles[1],
            cycles[0]
        );
    }
}
