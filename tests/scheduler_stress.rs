//! Randomized hazard-DAG stress testing for the launch scheduler.
//!
//! A seeded generator produces random command-group graphs — shared
//! buffers under every access-mode mix, aliased USM allocations, host
//! tasks, indirect-index gathers through a shared index buffer,
//! barrier-ladder work-group reductions, 1–64 submissions — and executes
//! each one under both schedules: the plan engine's out-of-order
//! scheduler (1 and 4 worker threads) and the tree-walk serial
//! reference. Outputs (every buffer and USM allocation, compared
//! bit-for-bit), per-kernel statistics,
//! launch/JIT cycles and the report's cycle totals must be identical
//! everywhere; when the generator injects a failing kernel, all
//! configurations must report the *same* error — the lexicographically
//! first `(submission, work-group)` failure.
//!
//! The deterministic tests at the bottom pin the error contract exactly:
//! divergent barriers and out-of-bounds accesses (panics) injected at
//! known positions in multi-launch graphs.
//!
//! The queue's hazard table emits a sparse edge set with the reachability
//! of the all-pairs hazard relation it replaced (`tests/hazard_graph_diff.rs`
//! holds the two to one transitive closure). The fault-injection shapes
//! and a slice of the random population also run at the scheduler level
//! under **both** DAGs: statuses, cancellation causes, failure positions
//! and statistics must not tell them apart.

mod common;

use common::{reference_dependencies, Arg, GraphSpec, Sub, LEN, WG_SUM_LOCAL};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::arith;
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::runtime::{
    compile_program, hostgen::generate_host_ir, BufferId, CgArg, HostOp, Program, Queue,
    SyclRuntime, UsmId,
};
use sycl_mlir_repro::sim::{
    decode_kernel, run_plan_graph_report, AccessorVal, BatchLaunch, CostModel, DataVec, Device,
    Engine, ExecLimits, ExecStats, FaultPlan, FaultSite, HostNode, HostView, KernelPlan, LaunchDag,
    LaunchStatus, MemFault, MemId, MemoryPool, NdRangeSpec, PlanLaunch, RtValue, SimError,
};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;

/// Build the kernel module every generated graph uses (three templates).
fn build_module(rt: &SyclRuntime, q: &Queue) -> sycl_mlir_repro::ir::Module {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();

    // combine: dst[g] = dst[g] * 0.75 + src[g] * 0.5 + 0.25
    let sig = KernelSig::new("combine", 1, true)
        .accessor(f32t.clone(), 1, AccessMode::Read)
        .accessor(f32t.clone(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let va = sdev::load_via_id(b, args[0], &[gid]);
        let vb = sdev::load_via_id(b, args[1], &[gid]);
        let f32t = b.ctx().f32_type();
        let c0 = arith::constant_float(b, 0.75, f32t.clone());
        let c1 = arith::constant_float(b, 0.5, f32t.clone());
        let c2 = arith::constant_float(b, 0.25, f32t);
        let t = arith::mulf(b, vb, c0);
        let u = arith::mulf(b, va, c1);
        let s = arith::addf(b, t, u);
        let s2 = arith::addf(b, s, c2);
        sdev::store_via_id(b, s2, args[1], &[gid]);
    });

    // scale_io: a[g] = a[g] * 0.5 + 3.0
    let sig = KernelSig::new("scale_io", 1, true).accessor(f32t.clone(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let f32t = b.ctx().f32_type();
        let c0 = arith::constant_float(b, 0.5, f32t.clone());
        let c1 = arith::constant_float(b, 3.0, f32t);
        let t = arith::mulf(b, v, c0);
        let s = arith::addf(b, t, c1);
        sdev::store_via_id(b, s, args[0], &[gid]);
    });

    // gather: dst[g] += src[idx[g]] — the sparse-family indirect-index
    // shape (the subscript is loaded, widened with index_cast, and used
    // unmasked: the shared index buffer carries in-bounds values in the
    // random graphs; the OOB pin below feeds it out-of-bounds ones).
    let sig = KernelSig::new("gather", 1, true)
        .accessor(ctx.i32_type(), 1, AccessMode::Read)
        .accessor(f32t.clone(), 1, AccessMode::Read)
        .accessor(f32t.clone(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let raw = sdev::load_via_id(b, args[0], &[gid]);
        let index_ty = b.ctx().index_type();
        let j = arith::index_cast(b, raw, index_ty);
        let v = sdev::load_via_id(b, args[1], &[j]);
        let d = sdev::load_via_id(b, args[2], &[gid]);
        let s = arith::addf(b, d, v);
        sdev::store_via_id(b, s, args[2], &[gid]);
    });

    // wg_sum: each work-group replaces its slice of `a` with the group
    // sum — the reduction-family shape (local tile + barrier ladder,
    // unrolled for WG_SUM_LOCAL). Every group touches only its own
    // slice, so the result is schedule-independent even when launches
    // alias.
    let sig = KernelSig::new("wg_sum", 1, true).accessor(f32t.clone(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let lid = sdev::local_id(b, item, 0);
        let g = sdev::get_group(b, item);
        let f32t = b.ctx().f32_type();
        let tile = sdev::local_alloca(b, f32t, &[WG_SUM_LOCAL]);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        sycl_mlir_repro::dialects::memref::store(b, v, tile, &[lid]);
        sdev::group_barrier(b, g);
        let mut stride = WG_SUM_LOCAL / 2;
        while stride >= 1 {
            let s = arith::constant_index(b, stride);
            let active = arith::cmpi(b, "slt", lid, s);
            sycl_mlir_repro::dialects::scf::build_if(
                b,
                active,
                &[],
                |inner| {
                    let lo = sycl_mlir_repro::dialects::memref::load(inner, tile, &[lid]);
                    let partner = arith::addi(inner, lid, s);
                    let hi = sycl_mlir_repro::dialects::memref::load(inner, tile, &[partner]);
                    let sum = arith::addf(inner, lo, hi);
                    sycl_mlir_repro::dialects::memref::store(inner, sum, tile, &[lid]);
                    vec![]
                },
                |_| vec![],
            );
            sdev::group_barrier(b, g);
            stride /= 2;
        }
        let zero = arith::constant_index(b, 0);
        let total = sycl_mlir_repro::dialects::memref::load(b, tile, &[zero]);
        sdev::store_via_id(b, total, args[0], &[gid]);
    });

    // bad_late: work-groups >= 2 hit a divergent barrier (only the group
    // leader reaches it).
    let sig = KernelSig::new("bad_late", 1, true);
    kb.add_kernel(&sig, |b, _args, item| {
        divergent_from(b, item, 2);
    });

    generate_host_ir(kb.module(), rt, q);
    kb.finish()
}

/// Emit "if (local_id == 0 && group_id >= from) barrier" — a divergent
/// barrier for every group at or past `from`.
fn divergent_from(
    b: &mut sycl_mlir_repro::ir::Builder<'_>,
    item: sycl_mlir_repro::ir::ValueId,
    from: i64,
) {
    let lid = sdev::local_id(b, item, 0);
    let gid = sdev::group_id(b, item, 0);
    let zero = arith::constant_index(b, 0);
    let thr = arith::constant_index(b, from);
    let leader = arith::cmpi(b, "eq", lid, zero);
    let late = arith::cmpi(b, "sge", gid, thr);
    let cond = b.build_value("arith.andi", &[leader, late], b.ctx().i1_type(), vec![]);
    let g = sdev::get_group(b, item);
    sycl_mlir_repro::dialects::scf::build_if(
        b,
        cond,
        &[],
        |inner| {
            sdev::group_barrier(inner, g);
            vec![]
        },
        |_| vec![],
    );
}

/// Every observable of one run: the report table plus final memory.
type Observation = Result<
    (
        Vec<(String, ExecStats, u64, u64)>,
        u64,
        Vec<Vec<u32>>,
        Vec<Vec<u32>>,
    ),
    String,
>;

fn observe(spec: &GraphSpec, program: &mut Program, q: &Queue, device: &Device) -> Observation {
    let mut rt = spec.runtime();
    let report = sycl_mlir_repro::runtime::exec::run(program, &mut rt, q, device)
        .map_err(|e| e.to_string())?;
    let rows = report
        .kernel_runs
        .iter()
        .map(|k| {
            (
                k.kernel.clone(),
                k.stats.clone(),
                k.launch_cycles.to_bits(),
                k.jit_cycles.to_bits(),
            )
        })
        .collect();
    let cycles = report.measured_cycles().to_bits();
    let bufs = (0..spec.bufs.len())
        .map(|b| {
            rt.read_f32(BufferId(b))
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();
    let usms = (0..spec.usms.len())
        .map(|u| {
            rt.usm_read_f32(UsmId(u))
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();
    Ok((rows, cycles, bufs, usms))
}

/// The sweep every graph (and every error pin) runs under: the
/// tree-walk serial reference, then the plan engine on 1 and 4 worker
/// threads. Every knob the sweep varies is pinned, so the differential
/// means the same under any environment.
fn configs() -> Vec<(&'static str, Device)> {
    vec![
        ("tree-serial", Device::with_engine(Engine::TreeWalk)),
        ("plan-t1", Device::with_engine(Engine::Plan).threads(1)),
        ("plan-t4", Device::with_engine(Engine::Plan).threads(4)),
    ]
}

/// One graph's full differential round trip.
fn check_graph(seed: u64) {
    let spec = GraphSpec::generate(seed);
    let q = spec.queue();
    let rt0 = spec.runtime();
    let module = build_module(&rt0, &q);
    let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");

    let mut reference: Option<(&'static str, Observation)> = None;
    for (name, device) in configs() {
        let got = observe(&spec, &mut program, &q, &device);
        match &reference {
            None => reference = Some((name, got)),
            Some((ref_name, want)) => {
                assert_eq!(
                    want,
                    &got,
                    "seed {seed}: `{name}` diverges from `{ref_name}` \
                     ({} submissions)",
                    spec.subs.len()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// ~200 random hazard DAGs: identical outputs, statistics, report
    /// tables — or identical errors — under both schedules, every thread
    /// count and both plan tiers.
    #[test]
    fn random_graphs_bit_identical_across_schedulers(seed in 0u64..u64::MAX) {
        check_graph(seed);
    }
}

/// The generated population must actually cover the interesting shapes —
/// host tasks, USM aliases, failing kernels, long queues — otherwise the
/// property above quietly degenerates.
#[test]
fn generator_population_covers_the_interesting_shapes() {
    let (mut hosts, mut usm_args, mut bads, mut long) = (0, 0, 0, 0);
    let (mut gathers, mut wg_sums) = (0, 0);
    for seed in 0..200_u64 {
        let spec = GraphSpec::generate(seed * 65_537 + 7);
        if spec.subs.len() >= 32 {
            long += 1;
        }
        for sub in &spec.subs {
            match sub {
                Sub::Host(_) => hosts += 1,
                Sub::BadLate { .. } => bads += 1,
                Sub::Combine { src, dst, .. } => {
                    if matches!(src, Arg::Usm(_)) || matches!(dst, Arg::Usm(_)) {
                        usm_args += 1;
                    }
                }
                Sub::Gather { src, dst, .. } => {
                    gathers += 1;
                    if matches!(src, Arg::Usm(_)) || matches!(dst, Arg::Usm(_)) {
                        usm_args += 1;
                    }
                }
                Sub::WgSum { a, .. } => {
                    wg_sums += 1;
                    if matches!(a, Arg::Usm(_)) {
                        usm_args += 1;
                    }
                }
                Sub::ScaleIo { a: Arg::Usm(_), .. } => usm_args += 1,
                Sub::ScaleIo { .. } => {}
            }
        }
    }
    assert!(hosts > 100, "host tasks underrepresented: {hosts}");
    assert!(usm_args > 100, "USM arguments underrepresented: {usm_args}");
    assert!(bads > 5, "failing kernels underrepresented: {bads}");
    assert!(long > 10, "long queues underrepresented: {long}");
    assert!(
        gathers > 100,
        "indirect-index kernels underrepresented: {gathers}"
    );
    assert!(
        wg_sums > 50,
        "reduction-family kernels underrepresented: {wg_sums}"
    );
}

// ----------------------------------------------------------------------
// Deterministic error-ordering pins
// ----------------------------------------------------------------------

/// Build a module with `scale_io`, the divergent `bad_late` and an
/// out-of-bounds `oob` kernel, submit the given kernel names in order
/// over one shared buffer, and return each configuration's failure text.
/// A `fault` plan, when given, is injected into every configuration's
/// device.
fn run_error_graph(
    kernels: &[&str],
    fault: Option<FaultPlan>,
) -> Vec<(String, Result<SimError, String>)> {
    let build = || {
        let ctx = full_context();
        let mut kb = KernelModuleBuilder::new(&ctx);
        let f32t = ctx.f32_type();
        let sig =
            KernelSig::new("scale_io", 1, true).accessor(f32t.clone(), 1, AccessMode::ReadWrite);
        kb.add_kernel(&sig, |b, args, item| {
            let gid = sdev::global_id(b, item, 0);
            let v = sdev::load_via_id(b, args[0], &[gid]);
            let f32t = b.ctx().f32_type();
            let c = arith::constant_float(b, 0.5, f32t);
            let t = arith::mulf(b, v, c);
            sdev::store_via_id(b, t, args[0], &[gid]);
        });
        let sig = KernelSig::new("bad_late", 1, true);
        kb.add_kernel(&sig, |b, _args, item| divergent_from(b, item, 2));
        // oob: stores to gid + 1000 — an out-of-bounds panic in every
        // work-group.
        let sig = KernelSig::new("oob", 1, true).accessor(f32t, 1, AccessMode::Write);
        kb.add_kernel(&sig, |b, args, item| {
            let gid = sdev::global_id(b, item, 0);
            let big = arith::constant_index(b, 1000);
            let idx = arith::addi(b, gid, big);
            let f32t = b.ctx().f32_type();
            let v = arith::constant_float(b, 1.0, f32t);
            sdev::store_via_id(b, v, args[0], &[idx]);
        });
        kb
    };

    let mut out = Vec::new();
    for (name, device) in configs() {
        let device = match fault {
            Some(f) => device.fault(f),
            None => device,
        };
        let mut rt = SyclRuntime::new();
        let buf = rt.buffer_f32(vec![1.0; LEN as usize], &[LEN]);
        let mut q = Queue::new();
        for k in kernels {
            q.submit(|h| {
                if *k != "bad_late" {
                    h.accessor(buf, AccessMode::ReadWrite);
                }
                h.parallel_for_nd(k, &[LEN], &[8]);
            });
        }
        let mut kb = build();
        generate_host_ir(kb.module(), &rt, &q);
        let module = kb.finish();
        let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");
        let failure = match catch_unwind(AssertUnwindSafe(|| {
            sycl_mlir_repro::runtime::exec::run(&mut program, &mut rt, &q, &device)
        })) {
            Ok(Ok(_)) => panic!("`{name}`: expected the graph to fail"),
            Ok(Err(e)) => Ok(e),
            Err(payload) => Err(payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<opaque panic>".into())),
        };
        out.push((name.to_string(), failure));
    }
    out
}

/// Both schedules and all thread counts must report launch 1's group 2 —
/// the lexicographically first divergent barrier — even though launch 3
/// diverges everywhere (including its group 0).
#[test]
fn divergent_barrier_position_is_mode_independent() {
    let results = run_error_graph(&["scale_io", "bad_late", "scale_io", "bad_late"], None);
    let (ref_name, want) = &results[0];
    assert!(
        matches!(
            want,
            Ok(SimError::DivergentBarrier {
                group: [2, 0, 0],
                ..
            })
        ),
        "`{ref_name}` reported: {want:?}"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}

/// An out-of-bounds access in launch 1 must win over a divergent barrier
/// in launch 2, under both schedules — and surface as the same *structured
/// error* text: kernel-reachable out-of-bounds is a `SimError`, not a
/// panic, under every engine.
#[test]
fn oob_error_position_is_mode_independent() {
    let results = run_error_graph(&["scale_io", "oob", "bad_late"], None);
    let (ref_name, want) = &results[0];
    assert!(
        want.as_ref()
            .is_ok_and(|e| e.message().contains("out of bounds")),
        "`{ref_name}` reported: {want:?}"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}

/// The mirror ordering: a divergent barrier in launch 1 must win over an
/// out-of-bounds panic in launch 3, under both schedules.
#[test]
fn earlier_divergence_beats_later_oob_panic() {
    let results = run_error_graph(&["scale_io", "bad_late", "scale_io", "oob"], None);
    let (ref_name, want) = &results[0];
    assert!(
        matches!(
            want,
            Ok(SimError::DivergentBarrier {
                group: [2, 0, 0],
                ..
            })
        ),
        "`{ref_name}` reported: {want:?}"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}

/// An out-of-bounds access reached through a **fuzzed gather** — the
/// faulting index is data (loaded out of the index buffer), not a
/// static subscript — must surface as the identical structured error at
/// the identical `(launch, group)` position under every engine
/// (tree walk, plan bytecode) and thread count. The index
/// data comes from a seeded rng over a range that overruns the buffer,
/// exactly how a fuzzer would feed it.
#[test]
fn fuzzed_gather_oob_position_is_engine_independent() {
    // Fuzzed indices in 0..48 over a length-32 buffer: some overrun.
    let mut rng = TestRng::new(0xFEED);
    let idx: Vec<i32> = (0..LEN).map(|_| rng.below(48) as i32).collect();
    let first_oob = idx.iter().position(|&j| j >= LEN as i32);
    assert!(
        first_oob.is_some(),
        "the fuzzed index data must contain an out-of-bounds entry"
    );

    let mut results = Vec::new();
    for (name, device) in configs() {
        let mut rt = SyclRuntime::new();
        let src = rt.buffer_f32(vec![1.0; LEN as usize], &[LEN]);
        let dst = rt.buffer_f32(vec![0.0; LEN as usize], &[LEN]);
        let idx_buf = rt.buffer_i32(idx.clone(), &[LEN]);
        let mut q = Queue::new();
        // A clean launch first, then the faulting gather, then another
        // clean launch the failure bound must prune consistently.
        q.submit(|h| {
            h.accessor(src, AccessMode::ReadWrite);
            h.parallel_for_nd("scale_io", &[LEN], &[8]);
        });
        q.submit(|h| {
            h.accessor(idx_buf, AccessMode::Read);
            h.accessor(src, AccessMode::Read);
            h.accessor(dst, AccessMode::ReadWrite);
            h.parallel_for_nd("gather", &[LEN], &[8]);
        });
        q.submit(|h| {
            h.accessor(dst, AccessMode::ReadWrite);
            h.parallel_for_nd("scale_io", &[LEN], &[8]);
        });

        let ctx = full_context();
        let mut kb = KernelModuleBuilder::new(&ctx);
        let f32t = ctx.f32_type();
        let sig =
            KernelSig::new("scale_io", 1, true).accessor(f32t.clone(), 1, AccessMode::ReadWrite);
        kb.add_kernel(&sig, |b, args, item| {
            let gid = sdev::global_id(b, item, 0);
            let v = sdev::load_via_id(b, args[0], &[gid]);
            let f32t = b.ctx().f32_type();
            let c = arith::constant_float(b, 0.5, f32t);
            let t = arith::mulf(b, v, c);
            sdev::store_via_id(b, t, args[0], &[gid]);
        });
        let sig = KernelSig::new("gather", 1, true)
            .accessor(ctx.i32_type(), 1, AccessMode::Read)
            .accessor(f32t.clone(), 1, AccessMode::Read)
            .accessor(f32t, 1, AccessMode::ReadWrite);
        kb.add_kernel(&sig, |b, args, item| {
            let gid = sdev::global_id(b, item, 0);
            let raw = sdev::load_via_id(b, args[0], &[gid]);
            let index_ty = b.ctx().index_type();
            let j = arith::index_cast(b, raw, index_ty);
            let v = sdev::load_via_id(b, args[1], &[j]);
            let d = sdev::load_via_id(b, args[2], &[gid]);
            let s = arith::addf(b, d, v);
            sdev::store_via_id(b, s, args[2], &[gid]);
        });
        generate_host_ir(kb.module(), &rt, &q);
        let module = kb.finish();
        let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");
        let err = sycl_mlir_repro::runtime::exec::run(&mut program, &mut rt, &q, &device)
            .expect_err("the fuzzed gather must fail");
        results.push((name, err.to_string()));
    }

    let (ref_name, want) = &results[0];
    assert!(
        want.contains("out of bounds"),
        "`{ref_name}` reported: {want}"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}

// ----------------------------------------------------------------------
// Fault injection
// ----------------------------------------------------------------------

/// The generated graphs' kernel templates, each decoded into a
/// standalone plan (the templates do not depend on the graph).
fn decoded_templates() -> Vec<(&'static str, KernelPlan)> {
    let m = build_module(&SyclRuntime::new(), &Queue::new());
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    ["combine", "scale_io", "gather", "wg_sum", "bad_late"]
        .into_iter()
        .map(|name| {
            let op = m.lookup_symbol(dev, name).expect("kernel symbol");
            (name, decode_kernel(&m, op).expect("template decodes"))
        })
        .collect()
}

/// The `scale_io` template's plan, for the direct graph-report tests
/// below.
fn decoded_scale_plan() -> KernelPlan {
    let (_, plan) = decoded_templates()
        .into_iter()
        .find(|(name, _)| *name == "scale_io")
        .expect("scale_io is a template");
    plan
}

/// A whole-buffer 1-d accessor over `mem` (every buffer here is `LEN`
/// long).
fn accessor_over(mem: MemId) -> RtValue {
    RtValue::Accessor(AccessorVal {
        mem,
        range: [LEN, 1, 1],
        offset: [0, 0, 0],
        rank: 1,
        constant: false,
    })
}

/// The all-pairs reference DAG and the hazard-table DAG of one queue, in
/// that order. The deterministic shapes below run under both: the dense
/// edge set and the sparse one must be the same schedule.
fn reference_and_table_dags(q: &Queue) -> [(&'static str, LaunchDag); 2] {
    let reference = LaunchDag::from_edges(q.groups.len(), &reference_dependencies(q));
    [
        ("all-pairs reference", reference),
        ("hazard table", q.dep_graph()),
    ]
}

/// One graph-report run of the fault-injection shape: a `0 -> 1 -> 2`
/// chain over buffer A plus an independent launch 3 over buffer B, under
/// the given DAG over that shape. Returns the report and the final bits
/// of both buffers.
fn fault_shape_run(
    plan: &KernelPlan,
    dag: &LaunchDag,
    threads: usize,
    limits: &ExecLimits,
) -> (sycl_mlir_repro::sim::GraphReport, Vec<u32>, Vec<u32>) {
    let nd = NdRangeSpec::d1(LEN, 8);
    let mut pool = MemoryPool::new();
    let ma = pool.alloc(DataVec::F32((0..LEN).map(|i| i as f32).collect()));
    let mb = pool.alloc(DataVec::F32((0..LEN).map(|i| 0.125 * i as f32).collect()));
    let args_a = [accessor_over(ma)];
    let args_b = [accessor_over(mb)];
    let launches = [
        PlanLaunch::kernel(plan, &args_a, nd),
        PlanLaunch::kernel(plan, &args_a, nd),
        PlanLaunch::kernel(plan, &args_a, nd),
        PlanLaunch::kernel(plan, &args_b, nd),
    ];
    let report = run_plan_graph_report(
        &launches,
        dag,
        &mut pool,
        &CostModel::default(),
        threads,
        false,
        limits,
    )
    .expect("well-formed graph");
    let bits = |mem| {
        let DataVec::F32(f) = pool.data(mem) else {
            panic!("f32 buffer")
        };
        f.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
    };
    let (ba, bb) = (bits(ma), bits(mb));
    (report, ba, bb)
}

/// Injected faults — decode, claim-site, instruction-count — fail their
/// launch with the pinned error at a deterministic work-group, cancel
/// every transitive successor with the root cause, and leave independent
/// launches bit-identical to a clean run, at every thread count — under
/// the all-pairs DAG (which cancels launch 2 over its direct `0 -> 2`
/// edge) and under the hazard table's (which reaches it only through the
/// cancelled launch 1) alike.
#[test]
fn injected_fault_cancels_successors_and_spares_independents() {
    let plan = decoded_scale_plan();
    let (a, b) = (BufferId(0), BufferId(1));
    let mut q = Queue::new();
    for buf in [a, a, a, b] {
        q.submit(|h| {
            h.accessor(buf, AccessMode::ReadWrite);
            h.parallel_for_nd("scale_io", &[LEN], &[8]);
        });
    }
    let dags = reference_and_table_dags(&q);
    assert_eq!(dags[0].1.succs[0], vec![1, 2]);
    assert_eq!(dags[1].1.succs[0], vec![1]);
    for threads in [1_usize, 4] {
        // Every report of the sweep, per DAG: they must be the same list.
        let mut seen = Vec::new();
        for (dag_name, dag) in &dags {
            let mut reports = Vec::new();
            let (clean, clean_a, clean_b) =
                fault_shape_run(&plan, dag, threads, &ExecLimits::none());
            assert!(
                clean.statuses.iter().all(|s| *s == LaunchStatus::Completed),
                "clean run must complete everywhere (threads={threads}, {dag_name})"
            );
            for site in [FaultSite::Decode, FaultSite::Claim(2), FaultSite::Instr(7)] {
                let ctx = format!("threads={threads} {site:?} ({dag_name})");
                let fault = FaultPlan { launch: 0, site };
                let limits = ExecLimits {
                    fault: Some(fault),
                    ..ExecLimits::none()
                };
                let (report, faulted_a, faulted_b) = fault_shape_run(&plan, dag, threads, &limits);
                let want_group = match site {
                    FaultSite::Claim(g) => g as usize,
                    _ => 0,
                };
                match &report.statuses[0] {
                    LaunchStatus::Failed { group, error } => {
                        // The recorded error is the raw fault text stamped
                        // with its `(launch, group)` position.
                        assert_eq!(
                            error.message(),
                            format!(
                                "{} (launch 0, work-group {want_group})",
                                fault.error().message()
                            ),
                            "{ctx}: wrong error"
                        );
                        assert_eq!(*group, want_group, "{ctx}: wrong failing group");
                    }
                    other => panic!("{ctx}: launch 0 reported {other:?}"),
                }
                // Transitive successors are cancelled with the root cause
                // and report zeroed statistics.
                for li in [1, 2] {
                    assert_eq!(
                        report.statuses[li],
                        LaunchStatus::Cancelled { cause: 0 },
                        "{ctx}: launch {li} not cancelled"
                    );
                    assert_eq!(report.stats[li].work_groups, 0);
                    assert_eq!(report.stats[li].work_items, 0);
                }
                // The independent launch completes bit-identically to the
                // clean run: same statistics, same final buffer bits.
                assert_eq!(report.statuses[3], LaunchStatus::Completed);
                assert_eq!(
                    report.stats[3], clean.stats[3],
                    "{ctx}: independent launch stats diverge"
                );
                assert_eq!(faulted_b, clean_b, "{ctx}: independent buffer diverges");
                // Buffer A saw at most the faulted launch's partial groups
                // — never launch 1's or 2's writes. The decode fault runs
                // no group at all, so A must be untouched; all clean-run
                // values differ from the initial ones, so equality would
                // be a leak.
                if site == FaultSite::Decode {
                    let initial: Vec<u32> = (0..LEN).map(|i| (i as f32).to_bits()).collect();
                    assert_eq!(faulted_a, initial, "decode fault must run no group");
                    assert_ne!(clean_a, initial);
                }
                // The lexicographic first-failure bound.
                let (fl, fg, _) = report.first_failure().expect("a failure is recorded");
                assert_eq!((fl, fg), (0, want_group), "{ctx}");
                reports.push((report.statuses, report.stats));
            }
            reports.push((clean.statuses, clean.stats));
            seen.push(reports);
        }
        assert_eq!(
            seen[0], seen[1],
            "threads={threads}: the two edge sets schedule differently"
        );
    }
}

/// An injected fault must surface as the same pinned error text under
/// both schedules and every thread count — even when a later
/// independent launch also fails (the lexicographic bound holds for
/// faults too).
#[test]
fn injected_fault_position_is_mode_independent() {
    let fault = FaultPlan {
        launch: 1,
        site: FaultSite::Claim(1),
    };
    let results = run_error_graph(&["scale_io", "scale_io", "bad_late"], Some(fault));
    let (ref_name, want) = &results[0];
    assert_eq!(
        want.as_ref().map(SimError::to_string),
        Ok(format!(
            "simulation error: {} (launch 1, work-group 1)",
            fault.error().message()
        )),
        "`{ref_name}` must report the pinned fault text"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}

// ----------------------------------------------------------------------
// Host tasks in the failure-position contract
// ----------------------------------------------------------------------

/// Build the two-kernel module (`scale_io`, `bad_late`) the host-task
/// pins below run, for the given runtime + queue.
fn host_pin_module(rt: &SyclRuntime, q: &Queue) -> sycl_mlir_repro::ir::Module {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();
    let sig = KernelSig::new("scale_io", 1, true).accessor(f32t, 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let f32t = b.ctx().f32_type();
        let c = arith::constant_float(b, 0.5, f32t);
        let t = arith::mulf(b, v, c);
        sdev::store_via_id(b, t, args[0], &[gid]);
    });
    let sig = KernelSig::new("bad_late", 1, true);
    kb.add_kernel(&sig, |b, _args, item| divergent_from(b, item, 2));
    generate_host_ir(kb.module(), rt, q);
    kb.finish()
}

/// A divergent kernel submitted *after* a host task must report its
/// **submission-order** `(launch, work-group)` position — the host task
/// is a node of the same graph, so it counts as launch 1 and the
/// divergent kernel is launch 2 — under both engines, threads 1/4 and
/// both plan tiers: all must agree on `(launch 2, work-group 2)`.
#[test]
fn divergent_kernel_after_host_task_reports_submission_position() {
    let mut results = Vec::new();
    for (name, device) in configs() {
        let mut rt = SyclRuntime::new();
        let buf = rt.buffer_f32(vec![1.0; LEN as usize], &[LEN]);
        let mut q = Queue::new();
        // Submission 0: a clean kernel. 1: a host task. 2: the divergent
        // kernel. 3: a clean kernel pruned by the failure.
        q.submit(|h| {
            h.accessor(buf, AccessMode::ReadWrite);
            h.parallel_for_nd("scale_io", &[LEN], &[8]);
        });
        q.submit(|h| {
            h.host_task(HostOp::Scale {
                buffer: buf,
                factor: 2.0,
            })
        });
        q.submit(|h| h.parallel_for_nd("bad_late", &[LEN], &[8]));
        q.submit(|h| {
            h.accessor(buf, AccessMode::ReadWrite);
            h.parallel_for_nd("scale_io", &[LEN], &[8]);
        });
        let module = host_pin_module(&rt, &q);
        let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");
        let err = sycl_mlir_repro::runtime::exec::run(&mut program, &mut rt, &q, &device)
            .expect_err("the divergent kernel must fail the run");
        results.push((name, err));
    }
    let (ref_name, want) = &results[0];
    assert!(
        matches!(
            want,
            SimError::DivergentBarrier {
                at: Some((2, 2)),
                ..
            }
        ),
        "`{ref_name}` must report the submission-order position, got: {want}"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}

/// A type-mismatched host `AddInto` surfaces as a **structured
/// [`SimError`]** with pinned text and the submission position — not as
/// the raw panic that used to escape `run_host_op` — under both engines
/// and at every thread count; and the device stays usable for the next
/// run.
#[test]
fn host_addinto_type_mismatch_is_a_structured_error() {
    for (name, device) in configs() {
        let mut rt = SyclRuntime::new();
        let dst = rt.buffer_f32(vec![1.0; LEN as usize], &[LEN]);
        let src = rt.buffer_i32(vec![3; LEN as usize], &[LEN]);
        let mut q = Queue::new();
        q.submit(|h| {
            h.accessor(dst, AccessMode::ReadWrite);
            h.parallel_for_nd("scale_io", &[LEN], &[8]);
        });
        q.submit(|h| h.host_task(HostOp::AddInto { dst, src }));
        let module = host_pin_module(&rt, &q);
        let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");
        let err = catch_unwind(AssertUnwindSafe(|| {
            sycl_mlir_repro::runtime::exec::run(&mut program, &mut rt, &q, &device)
        }))
        .unwrap_or_else(|_| panic!("`{name}`: the mismatch must not escape as a panic"))
        .expect_err("the mismatched AddInto must fail the run");
        assert_eq!(
            err.to_string(),
            "simulation error: host AddInto over mismatched element types i32 -> f32 \
             (launch 1, work-group 0)",
            "`{name}`: wrong error"
        );

        // The failure is contained: the same device runs the next
        // (well-typed) program cleanly.
        let mut rt2 = SyclRuntime::new();
        let ok = rt2.buffer_f32(vec![4.0; LEN as usize], &[LEN]);
        let mut q2 = Queue::new();
        q2.submit(|h| {
            h.accessor(ok, AccessMode::ReadWrite);
            h.parallel_for_nd("scale_io", &[LEN], &[8]);
        });
        q2.submit(|h| {
            h.host_task(HostOp::Shift {
                buffer: ok,
                delta: 1.0,
            })
        });
        let module2 = host_pin_module(&rt2, &q2);
        let mut program2 = compile_program(FlowKind::SyclMlir, module2).expect("compiles");
        sycl_mlir_repro::runtime::exec::run(&mut program2, &mut rt2, &q2, &device)
            .unwrap_or_else(|e| panic!("`{name}`: device unusable after the mismatch: {e}"));
        assert_eq!(rt2.read_f32(ok)[0], 3.0, "`{name}`: 4.0 * 0.5 + 1.0");
    }
}

/// An injected fault targeting a **host node** fails it at its single
/// logical work-group with the pinned fault text and cascades the
/// cancellation to every dependent launch — at every fault site and
/// thread count, under the all-pairs DAG and the hazard table's alike.
#[test]
fn injected_fault_on_host_node_cascades_to_successors() {
    let plan = decoded_scale_plan();
    let nd = NdRangeSpec::d1(LEN, 8);
    let mut pool = MemoryPool::new();
    let ma = pool.alloc(DataVec::F32((0..LEN).map(|i| i as f32).collect()));
    let args_a = [accessor_over(ma)];
    let host = HostNode::new(move |view: &HostView<'_, '_>| {
        let n = view.len(ma)? as i64;
        for i in 0..n {
            let RtValue::F32(x) = view.load(ma, i)? else {
                panic!("f32 buffer")
            };
            view.store(ma, i, RtValue::F32(x + 100.0))?;
        }
        Ok(())
    });
    // 0 (kernel) -> 1 (host) -> 2 (kernel), all over buffer A.
    let launches = [
        PlanLaunch::kernel(&plan, &args_a, nd),
        PlanLaunch::host(&host),
        PlanLaunch::kernel(&plan, &args_a, nd),
    ];
    // The same shape as a queue, for its two edge sets: the all-pairs
    // DAG adds the direct `0 -> 2` hazard.
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(BufferId(0), AccessMode::ReadWrite);
        h.parallel_for_nd("scale_io", &[LEN], &[8]);
    });
    q.submit(|h| {
        h.host_task(HostOp::Shift {
            buffer: BufferId(0),
            delta: 100.0,
        })
    });
    q.submit(|h| {
        h.accessor(BufferId(0), AccessMode::ReadWrite);
        h.parallel_for_nd("scale_io", &[LEN], &[8]);
    });
    let dags = reference_and_table_dags(&q);
    assert_eq!(dags[0].1.preds, vec![0, 1, 2]);
    assert_eq!(dags[1].1, LaunchDag::chain(3));
    for threads in [1_usize, 4] {
        for site in [FaultSite::Decode, FaultSite::Claim(0), FaultSite::Instr(7)] {
            let fault = FaultPlan { launch: 1, site };
            let limits = ExecLimits {
                fault: Some(fault),
                ..ExecLimits::none()
            };
            let mut seen = Vec::new();
            for (dag_name, dag) in &dags {
                let ctx = format!("threads={threads} {site:?} ({dag_name})");
                let report = run_plan_graph_report(
                    &launches,
                    dag,
                    &mut pool,
                    &CostModel::default(),
                    threads,
                    false,
                    &limits,
                )
                .expect("well-formed graph");
                assert_eq!(report.statuses[0], LaunchStatus::Completed, "{ctx}");
                match &report.statuses[1] {
                    LaunchStatus::Failed { group, error } => {
                        assert_eq!(*group, 0, "a host node has exactly one group");
                        assert_eq!(
                            error.message(),
                            format!("{} (launch 1, work-group 0)", fault.error().message()),
                            "{ctx}: wrong cause text"
                        );
                    }
                    other => panic!("{ctx}: host reported {other:?}"),
                }
                assert_eq!(
                    report.statuses[2],
                    LaunchStatus::Cancelled { cause: 1 },
                    "{ctx}: successor not cancelled"
                );
                // The faulted host closure never ran and the cancelled
                // kernel never wrote: buffer A holds exactly launch 0's
                // output each round (the iterations stack one scale each).
                assert_eq!(report.stats[1], ExecStats::default());
                let (fl, fg, _) = report.first_failure().expect("a failure is recorded");
                assert_eq!((fl, fg), (1, 0), "{ctx}");
                seen.push((report.statuses, report.stats));
            }
            assert_eq!(
                seen[0], seen[1],
                "threads={threads} {site:?}: the two edge sets schedule differently"
            );
        }
    }
}

/// One graph-report run of a generated graph under a caller-chosen DAG —
/// what `exec::run` does with `Queue::dep_graph`, with the edge set left
/// open. Returns the per-launch statuses and statistics plus the final
/// bits of every f32 buffer and USM allocation.
fn spec_graph_run(
    spec: &GraphSpec,
    q: &Queue,
    plans: &[(&'static str, KernelPlan)],
    dag: &LaunchDag,
    threads: usize,
    limits: &ExecLimits,
) -> (Vec<LaunchStatus>, Vec<ExecStats>, Vec<Vec<u32>>) {
    let mut pool = MemoryPool::new();
    let mut bufs: Vec<MemId> = spec
        .bufs
        .iter()
        .map(|d| pool.alloc(DataVec::F32(d.clone())))
        .collect();
    bufs.push(pool.alloc(DataVec::I32(spec.idx.clone())));
    let usms: Vec<MemId> = spec
        .usms
        .iter()
        .map(|d| pool.alloc(DataVec::F32(d.clone())))
        .collect();

    // Host tasks over f32 buffers, as closures over the device memory.
    let f32_at = |view: &HostView<'_, '_>, mem, i| match view.load(mem, i) {
        Ok(RtValue::F32(x)) => x,
        other => panic!("f32 buffer loaded {other:?}"),
    };
    let hosts: Vec<Option<HostNode>> = q
        .groups
        .iter()
        .map(|cg| {
            type Update = fn(f32, f32, f32) -> f32;
            let (dst, src, k, f): (MemId, MemId, f64, Update) = match cg.host? {
                HostOp::Scale { buffer, factor } => {
                    (bufs[buffer.0], bufs[buffer.0], factor, |x, _, k| x * k)
                }
                HostOp::Shift { buffer, delta } => {
                    (bufs[buffer.0], bufs[buffer.0], delta, |x, _, k| x + k)
                }
                HostOp::AddInto { dst, src } => (bufs[dst.0], bufs[src.0], 0.0, |x, y, _| x + y),
            };
            let k = k as f32;
            Some(HostNode::new(move |view: &HostView<'_, '_>| {
                for i in 0..view.len(dst)? as i64 {
                    let x = f(f32_at(view, dst, i), f32_at(view, src, i), k);
                    view.store(dst, i, RtValue::F32(x))?;
                }
                Ok(())
            }))
        })
        .collect();
    let args: Vec<Vec<RtValue>> = q
        .groups
        .iter()
        .map(|cg| {
            cg.args
                .iter()
                .map(|a| match a {
                    CgArg::Acc { buffer, .. } => accessor_over(bufs[buffer.0]),
                    CgArg::Usm { id, .. } => accessor_over(usms[id.0]),
                    other => panic!("the generator binds no {other:?}"),
                })
                .collect()
        })
        .collect();
    let launches: Vec<PlanLaunch<'_>> = q
        .groups
        .iter()
        .zip(&hosts)
        .zip(&args)
        .map(|((cg, host), args)| match host {
            Some(node) => PlanLaunch::host(node),
            None => {
                let (_, plan) = plans
                    .iter()
                    .find(|(name, _)| *name == cg.kernel)
                    .expect("a generated kernel name");
                PlanLaunch::kernel(plan, args, cg.nd)
            }
        })
        .collect();
    let report = run_plan_graph_report(
        &launches,
        dag,
        &mut pool,
        &CostModel::default(),
        threads,
        false,
        limits,
    )
    .expect("well-formed graph");
    let memory = bufs[..spec.bufs.len()]
        .iter()
        .chain(&usms)
        .map(|&mem| match pool.data(mem) {
            DataVec::F32(f) => f.iter().map(|x| x.to_bits()).collect(),
            _ => panic!("f32 buffer"),
        })
        .collect();
    (report.statuses, report.stats, memory)
}

/// The scheduler cannot tell the hazard table's sparse edge set from the
/// all-pairs one: over the generated population — clean, with its own
/// divergent kernels, and with a fault injected at a random launch — the
/// per-launch statuses (every `Failed { group }` and every
/// `Cancelled { cause }`) and statistics are equal at every thread
/// count, and so is final memory whenever every launch completed (a
/// failing launch's partial writes are schedule-dependent under either).
#[test]
fn random_graphs_schedule_identically_under_both_edge_sets() {
    let plans = decoded_templates();
    let (mut sparser, mut cancelled) = (0, 0);
    for case in 0..48_u64 {
        let seed = case * 65_537 + 7;
        let spec = GraphSpec::generate(seed);
        let q = spec.queue();
        let dags = reference_and_table_dags(&q);
        if dags[0].1 != dags[1].1 {
            sparser += 1;
        }
        let mut rng = TestRng::new(seed ^ 0xFA17);
        let fault = FaultPlan {
            launch: rng.below(q.groups.len()),
            site: [FaultSite::Decode, FaultSite::Claim(0), FaultSite::Instr(7)][rng.below(3)],
        };
        for fault in [None, Some(fault)] {
            let limits = ExecLimits {
                fault,
                ..ExecLimits::none()
            };
            for threads in [1_usize, 4] {
                let [want, got] = [&dags[0].1, &dags[1].1]
                    .map(|dag| spec_graph_run(&spec, &q, &plans, dag, threads, &limits));
                let ctx = format!("seed {seed}, threads={threads}, fault {fault:?}");
                assert_eq!(want.0, got.0, "{ctx}: statuses diverge");
                assert_eq!(want.1, got.1, "{ctx}: statistics diverge");
                if got.0.iter().all(|s| *s == LaunchStatus::Completed) {
                    assert_eq!(want.2, got.2, "{ctx}: memory diverges");
                }
                cancelled += got
                    .0
                    .iter()
                    .filter(|s| matches!(s, LaunchStatus::Cancelled { .. }))
                    .count();
            }
        }
    }
    // The population must actually tell the edge sets apart and cascade.
    assert!(sparser > 40, "only {sparser} graphs had a sparser edge set");
    assert!(cancelled > 200, "only {cancelled} cancellations observed");
}

/// A clean host node in a graph runs its closure exactly once between
/// its predecessor and successor (hazard order), reports zeroed
/// statistics, and the result is bit-identical at both thread counts.
#[test]
fn host_node_in_graph_runs_in_hazard_order() {
    let plan = decoded_scale_plan();
    let nd = NdRangeSpec::d1(LEN, 8);
    let mut want: Option<Vec<u32>> = None;
    for threads in [1_usize, 4] {
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(DataVec::F32((0..LEN).map(|i| i as f32).collect()));
        let args_a = [accessor_over(ma)];
        let host = HostNode::new(move |view: &HostView<'_, '_>| {
            let n = view.len(ma)? as i64;
            for i in 0..n {
                let RtValue::F32(x) = view.load(ma, i)? else {
                    panic!("f32 buffer")
                };
                view.store(ma, i, RtValue::F32(x + 100.0))?;
            }
            Ok(())
        });
        let launches = [
            PlanLaunch::kernel(&plan, &args_a, nd),
            PlanLaunch::host(&host),
            PlanLaunch::kernel(&plan, &args_a, nd),
        ];
        let dag = LaunchDag::from_edges(3, &[(0, 1), (1, 2)]);
        let report = run_plan_graph_report(
            &launches,
            &dag,
            &mut pool,
            &CostModel::default(),
            threads,
            false,
            &ExecLimits::none(),
        )
        .expect("well-formed graph");
        assert!(report
            .statuses
            .iter()
            .all(|s| *s == LaunchStatus::Completed));
        // Host rows report zeroed statistics.
        assert_eq!(report.stats[1], ExecStats::default());
        assert_eq!(report.stats[1].work_groups, 0);
        let DataVec::F32(f) = pool.data(ma) else {
            panic!("f32 buffer")
        };
        // Element 0: ((0 * 0.5 + 3) + 100) * 0.5 + 3 = 54.5 — the
        // closure ran exactly once, strictly between the kernels.
        assert_eq!(f[0], 54.5, "threads={threads}");
        let bits: Vec<u32> = f.iter().map(|x| x.to_bits()).collect();
        match &want {
            None => want = Some(bits),
            Some(w) => assert_eq!(&bits, w, "threads={threads}"),
        }
    }
}

/// A host closure that reads past its buffer gets the fault as a value
/// from `HostView` and fails its node with the kernels' out-of-bounds
/// text, at every thread count and under the serial reference; like any
/// plain kernel error it does not cascade, so the dependent launch still
/// runs. A closure that panics is a bug, not a fault: the scheduler's
/// `catch_unwind` only carries the payload to the launching thread, which
/// re-throws it unclassified.
#[test]
fn host_view_fault_fails_the_node_and_a_host_panic_is_rethrown() {
    let plan = decoded_scale_plan();
    let nd = NdRangeSpec::d1(LEN, 8);
    let graph = |host: &HostNode, threads: usize| {
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(DataVec::F32(vec![2.0; LEN as usize]));
        assert_eq!(ma, MemId(0), "the closures below name buffer 0");
        let args_a = [accessor_over(ma)];
        let launches = [
            PlanLaunch::host(host),
            PlanLaunch::kernel(&plan, &args_a, nd),
        ];
        let report = run_plan_graph_report(
            &launches,
            &LaunchDag::chain(2),
            &mut pool,
            &CostModel::default(),
            threads,
            false,
            &ExecLimits::none(),
        )
        .expect("well-formed graph");
        (report, pool.data(ma).clone())
    };

    let overrun = HostNode::new(|view: &HostView<'_, '_>| {
        view.load(MemId(0), view.len(MemId(0))? as i64)?;
        Ok(())
    });
    let text = format!(
        "device memory access out of bounds: index {LEN} of buffer 0 (len {LEN}) \
         (launch 0, work-group 0)"
    );
    for threads in [1_usize, 4] {
        let (report, a) = graph(&overrun, threads);
        let LaunchStatus::Failed { group: 0, error } = &report.statuses[0] else {
            panic!("threads={threads}: {:?}", report.statuses[0]);
        };
        assert_eq!(error.message(), text, "threads={threads}");
        assert!(!error.message().contains("injected fault"));
        assert_eq!(report.statuses[1], LaunchStatus::Completed);
        // 2 * 0.5 + 3: the successor ran.
        assert_eq!(
            a,
            DataVec::F32(vec![4.0; LEN as usize]),
            "threads={threads}"
        );
    }
    // The serial reference runs the closure on the calling thread.
    let ctx = full_context();
    let m = sycl_mlir_repro::ir::Module::new(&ctx);
    let mut pool = MemoryPool::new();
    pool.alloc(DataVec::F32(vec![2.0; LEN as usize]));
    let err = Device::with_engine(Engine::TreeWalk)
        .launch_graph(
            &m,
            &[BatchLaunch::host_node(overrun)],
            &LaunchDag::independent(1),
            &mut pool,
        )
        .unwrap_err();
    assert_eq!(err.message(), text);

    let boom = HostNode::new(|_: &HostView<'_, '_>| panic!("boom"));
    for threads in [1_usize, 4] {
        let payload = catch_unwind(AssertUnwindSafe(|| graph(&boom, threads)))
            .expect_err("a panicking closure panics the launcher");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "threads={threads}"
        );
    }
}

/// A launch argument naming a buffer the pool does not hold is outside
/// input: the launch fails with a `MemFault` at `(launch, 0)` — the same
/// error under both engines — instead of panicking the host, and takes
/// no other launch of its graph down.
#[test]
fn unknown_buffer_argument_fails_its_launch_only() {
    let m = build_module(&SyclRuntime::new(), &Queue::new());
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let scale_io = m.lookup_symbol(dev, "scale_io").expect("kernel symbol");
    let nd = NdRangeSpec::d1(LEN, 8);
    for (name, device) in configs() {
        // Past the pool, and an id with the worker-arena tag bit set.
        for stranger in [MemId(9), MemId(1 << 31)] {
            let mut pool = MemoryPool::new();
            pool.alloc(DataVec::F32(vec![0.0; LEN as usize]));
            let err = device
                .launch(&m, scale_io, &[accessor_over(stranger)], nd, &mut pool)
                .expect_err("the argument names no buffer");
            let want = format!(
                "unknown device buffer {} (launch 0, work-group 0)",
                stranger.0
            );
            assert_eq!(err.message(), want, "`{name}`");
        }
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(DataVec::F32(vec![2.0; LEN as usize]));
        let mb = pool.alloc(DataVec::F32(vec![4.0; LEN as usize]));
        let batch = [ma, MemId(9), mb]
            .map(|mem| BatchLaunch::kernel(scale_io, vec![accessor_over(mem)], nd));
        let err = device
            .launch_graph(&m, &batch, &LaunchDag::independent(3), &mut pool)
            .expect_err("launch 1 names no buffer");
        assert_eq!(
            err.message(),
            "unknown device buffer 9 (launch 1, work-group 0)",
            "`{name}`"
        );
        // x * 0.5 + 3. The serial reference stops at the first failing
        // launch; the graph scheduler still completes the independent one
        // after it.
        let after = if name == "tree-serial" { 4.0 } else { 5.0 };
        assert_eq!(
            pool.data(ma),
            &DataVec::F32(vec![4.0; LEN as usize]),
            "`{name}`"
        );
        assert_eq!(
            pool.data(mb),
            &DataVec::F32(vec![after; LEN as usize]),
            "`{name}`"
        );
    }
}

/// A buffer id a host closure names is outside input exactly like a
/// launch argument: whichever `HostView` method meets the stranger —
/// `len`, `dtype`, `load` or `store` — returns the fault, the node fails
/// with it at `(launch, 0)` under both engines, and like any plain error
/// it cancels nothing: the kernel that depends on the node still runs.
#[test]
fn unknown_buffer_in_a_host_closure_fails_its_node_only() {
    let m = build_module(&SyclRuntime::new(), &Queue::new());
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let scale_io = m.lookup_symbol(dev, "scale_io").expect("kernel symbol");
    let nd = NdRangeSpec::d1(LEN, 8);
    const STRANGER: MemId = MemId(9);
    type Probe = fn(&HostView<'_, '_>) -> Result<(), MemFault>;
    let probes: [(&str, Probe); 4] = [
        ("len", |v| v.len(STRANGER).map(drop)),
        ("dtype", |v| v.dtype(STRANGER).map(drop)),
        ("load", |v| v.load(STRANGER, 0).map(drop)),
        ("store", |v| v.store(STRANGER, 0, RtValue::F32(1.0))),
    ];
    for (method, probe) in probes {
        let host = HostNode::new(move |v| Ok(probe(v)?));
        for (name, device) in configs() {
            let mut pool = MemoryPool::new();
            let ma = pool.alloc(DataVec::F32(vec![2.0; LEN as usize]));
            let kernel = || BatchLaunch::kernel(scale_io, vec![accessor_over(ma)], nd);
            let batch = [kernel(), BatchLaunch::host_node(host.clone()), kernel()];
            let err = device
                .launch_graph(&m, &batch, &LaunchDag::chain(3), &mut pool)
                .expect_err("the closure names no buffer");
            assert_eq!(
                err.message(),
                "unknown device buffer 9 (launch 1, work-group 0)",
                "`{method}` under `{name}`"
            );
            // x * 0.5 + 3, once before the node; the serial reference
            // stops there, the graph scheduler runs the dependent kernel.
            let after = if name == "tree-serial" { 4.0 } else { 5.0 };
            assert_eq!(
                pool.data(ma),
                &DataVec::F32(vec![after; LEN as usize]),
                "`{method}` under `{name}`"
            );
        }
    }
}

/// Two up-front failures of one launch sit at the same position,
/// `(launch, 0)`: the launch reports the one recorded first — the armed
/// decode fault, which the serial reference also meets before it looks
/// at the arguments — at every thread count.
#[test]
fn decode_fault_beats_an_unknown_buffer_argument_of_the_same_launch() {
    let m = build_module(&SyclRuntime::new(), &Queue::new());
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let scale_io = m.lookup_symbol(dev, "scale_io").expect("kernel symbol");
    let fault = FaultPlan {
        launch: 0,
        site: FaultSite::Decode,
    };
    for (name, device) in configs() {
        let mut pool = MemoryPool::new();
        pool.alloc(DataVec::F32(vec![0.0; LEN as usize]));
        let args = [accessor_over(MemId(9))];
        let err = (device.fault(fault))
            .launch(&m, scale_io, &args, NdRangeSpec::d1(LEN, 8), &mut pool)
            .expect_err("both failures are armed");
        assert_eq!(
            err.message(),
            "injected fault: decode of launch 0 (launch 0, work-group 0)",
            "`{name}`"
        );
    }
}

/// A plain kernel error earlier in the queue beats a later injected
/// fault, under both schedules: faults obey the same lexicographic
/// first-failure contract as organic failures.
#[test]
fn earlier_kernel_error_beats_later_injected_fault() {
    let fault = FaultPlan {
        launch: 2,
        site: FaultSite::Decode,
    };
    let results = run_error_graph(&["scale_io", "oob", "scale_io"], Some(fault));
    let (ref_name, want) = &results[0];
    assert!(
        want.as_ref()
            .is_ok_and(|e| e.message().contains("out of bounds")),
        "`{ref_name}` reported: {want:?}"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}
