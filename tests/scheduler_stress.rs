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
//! holds the two to one transitive closure). The failure shapes — a
//! kernel that faults before or after doing its work, a kernel the plan
//! decoder rejects, a host closure that overruns its buffer — and a slice
//! of the random population, with one of those failures at a random
//! launch, also run at the scheduler level under **both** DAGs: the
//! outcome (statistics, or the one failure and its position) must not
//! tell them apart.
//!
//! A run has one failure, and it stops where the serial reference stops:
//! launches before the failing one complete, no successor of the failing
//! launch runs, and whether a later independent launch ran is left
//! unspecified (`failure_stops_every_successor_under_every_engine`).

mod common;

use common::{reference_dependencies, Arg, GraphSpec, Sub, LEN, WG_SUM_LOCAL};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::arith;
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::runtime::exec::audit_facts_on_this_thread;
use sycl_mlir_repro::runtime::{
    compile_program, hostgen::generate_host_ir, BufferId, CgArg, HostOp, Program, Queue,
    SyclRuntime, UsmId,
};
use sycl_mlir_repro::sim::{
    decode_kernel, run_plan_graph_report, verify_and_fuse, AccessorVal, BatchLaunch, CostModel,
    DataVec, Device, Engine, ExecLimits, ExecStats, GraphReport, HostNode, KernelPlan, LaunchDag,
    MemFault, MemId, MemoryPool, NdRangeSpec, PlanFacts, PlanLaunch, RtValue, SharedPool, SimError,
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
        .map(|u| rt.read_f32(UsmId(u)).iter().map(|x| x.to_bits()).collect())
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
    // The host-propagated launch facts hold at every launch: a run under
    // the host-fact audit observes what the reference did.
    audit_facts_on_this_thread(true);
    let audited = observe(&spec, &mut program, &q, &Device::with_engine(Engine::Plan));
    audit_facts_on_this_thread(false);
    let (_, want) = reference.expect("one config at least");
    assert_eq!(want, audited, "seed {seed}: the host-fact audit fails");
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

/// `scale_io`'s computation, `v * 0.5 + 3.0`, for the failing twins
/// below.
fn scaled(
    b: &mut sycl_mlir_repro::ir::Builder<'_>,
    v: sycl_mlir_repro::ir::ValueId,
) -> sycl_mlir_repro::ir::ValueId {
    let f32t = b.ctx().f32_type();
    let c0 = arith::constant_float(b, 0.5, f32t.clone());
    let c1 = arith::constant_float(b, 3.0, f32t);
    let t = arith::mulf(b, v, c0);
    arith::addf(b, t, c1)
}

/// `gid + (group / 2) * 1000`: the work-item's own element in
/// work-groups 0 and 1, out of bounds from work-group 2 on (`LEN` 32,
/// groups of 8; work-group 2's first item reaches index 1016).
fn out_of_bounds_from_group_2(
    b: &mut sycl_mlir_repro::ir::Builder<'_>,
    item: sycl_mlir_repro::ir::ValueId,
    gid: sycl_mlir_repro::ir::ValueId,
) -> sycl_mlir_repro::ir::ValueId {
    let group = sdev::group_id(b, item, 0);
    let two = arith::constant_index(b, 2);
    let far = arith::constant_index(b, 1000);
    let half = arith::divsi(b, group, two);
    let offset = arith::muli(b, half, far);
    arith::addi(b, gid, offset)
}

/// The kernels of the error pins, each over at most one f32 accessor:
/// * `scale_io` — `a[g] *= 0.5`;
/// * `bad_late` — work-groups from 2 on hit a divergent barrier;
/// * `oob` — stores to `gid + 1000`: out of bounds in every work-group;
/// * `scale_oob_first` — `scale_io`'s twin (`a[g] = a[g] * 0.5 + 3`) whose
///   work-groups from 2 on read out of bounds before they store;
/// * `scale_oob_after` — that twin, then work-groups from 2 on store out
///   of bounds: they fail after doing their work;
/// * `opaque` — the twin behind an `llvm.alloca`, which the plan decoder
///   rejects and the tree walk refuses when it reaches it.
fn error_kernels() -> KernelModuleBuilder {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();
    let sig = KernelSig::new("scale_io", 1, true).accessor(f32t.clone(), 1, AccessMode::ReadWrite);
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
    let sig = KernelSig::new("oob", 1, true).accessor(f32t.clone(), 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let big = arith::constant_index(b, 1000);
        let idx = arith::addi(b, gid, big);
        let f32t = b.ctx().f32_type();
        let v = arith::constant_float(b, 1.0, f32t);
        sdev::store_via_id(b, v, args[0], &[idx]);
    });
    let sig =
        KernelSig::new("scale_oob_first", 1, true).accessor(f32t.clone(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let at = out_of_bounds_from_group_2(b, item, gid);
        let v = sdev::load_via_id(b, args[0], &[at]);
        let s = scaled(b, v);
        sdev::store_via_id(b, s, args[0], &[gid]);
    });
    let sig =
        KernelSig::new("scale_oob_after", 1, true).accessor(f32t.clone(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let s = scaled(b, v);
        sdev::store_via_id(b, s, args[0], &[gid]);
        let at = out_of_bounds_from_group_2(b, item, gid);
        sdev::store_via_id(b, s, args[0], &[at]);
    });
    let sig = KernelSig::new("opaque", 1, true).accessor(f32t, 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        // `llvm.alloca` is registered (host-side lowering uses it) but
        // foreign to both device engines.
        sycl_mlir_repro::dialects::llvm::alloca(b, "opaque");
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let s = scaled(b, v);
        sdev::store_via_id(b, s, args[0], &[gid]);
    });
    kb
}

/// [`error_kernels`] as a module of its own, for launching them directly.
fn error_module() -> sycl_mlir_repro::ir::Module {
    let mut kb = error_kernels();
    generate_host_ir(kb.module(), &SyclRuntime::new(), &Queue::new());
    kb.finish()
}

/// Submit the given [`error_kernels`] in order over one shared buffer
/// and return each configuration's failure text.
fn run_error_graph(kernels: &[&str]) -> Vec<(String, Result<SimError, String>)> {
    let mut out = Vec::new();
    for (name, device) in configs() {
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
        let mut kb = error_kernels();
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
    let results = run_error_graph(&["scale_io", "bad_late", "scale_io", "bad_late"]);
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
    let results = run_error_graph(&["scale_io", "oob", "bad_late"]);
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
    let results = run_error_graph(&["scale_io", "bad_late", "scale_io", "oob"]);
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
// Failing launches at the scheduler level
// ----------------------------------------------------------------------

/// A decoded plan made ready to launch ([`verify_and_fuse`]): the
/// verifier's facts and the fused plan.
type Ready = (PlanFacts, KernelPlan);

/// The generated graphs' kernel templates, each decoded into a
/// standalone plan (the templates do not depend on the graph) and made
/// ready to launch.
fn decoded_templates() -> Vec<(&'static str, Ready)> {
    let m = build_module(&SyclRuntime::new(), &Queue::new());
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    ["combine", "scale_io", "gather", "wg_sum", "bad_late"]
        .into_iter()
        .map(|name| {
            let op = m.lookup_symbol(dev, name).expect("kernel symbol");
            let plan = decode_kernel(&m, op).expect("template decodes");
            (name, verify_and_fuse(plan).expect("template verifies"))
        })
        .collect()
}

/// The `scale_io` template's plan, for the direct graph-report tests
/// below.
fn decoded_scale_plan() -> Ready {
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

/// The failing kernels' plans, decoded from [`error_module`] and made
/// ready to launch, and the decoder's refusal of `opaque`.
struct FailingPlans {
    oob_first: Ready,
    oob_after: Ready,
    rejection: SimError,
}

fn failing_plans() -> FailingPlans {
    let m = error_module();
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let decode = |name| decode_kernel(&m, m.lookup_symbol(dev, name).expect("kernel symbol"));
    FailingPlans {
        oob_first: verify_and_fuse(decode("scale_oob_first").expect("the twin decodes"))
            .expect("the twin verifies"),
        oob_after: verify_and_fuse(decode("scale_oob_after").expect("the twin decodes"))
            .expect("the twin verifies"),
        rejection: decode("opaque").expect_err("the decoder must reject `llvm.alloca`"),
    }
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

/// One graph-report run of the failure shape: a `0 -> 1 -> 2` chain over
/// buffer A plus an independent launch 3 over buffer B, under the given
/// DAG over that shape. Launch 0 runs `first` — or is a kernel the
/// decoder rejected with that error — and the others run `plan`. Returns
/// the outcome and the final bits of buffer A.
fn fault_shape_run(
    first: Result<&Ready, &SimError>,
    (facts, plan): &Ready,
    dag: &LaunchDag,
    threads: usize,
) -> (Result<GraphReport, SimError>, Vec<u32>) {
    let nd = NdRangeSpec::d1(LEN, 8);
    let mut pool = MemoryPool::new();
    let ma = pool.alloc(DataVec::F32((0..LEN).map(|i| i as f32).collect()));
    let mb = pool.alloc(DataVec::F32((0..LEN).map(|i| 0.125 * i as f32).collect()));
    let args_a = [accessor_over(ma)];
    let args_b = [accessor_over(mb)];
    let launches = [
        match first {
            Ok((facts, first)) => PlanLaunch::kernel(first, facts, &args_a, nd),
            Err(error) => PlanLaunch::Rejected { nd, error },
        },
        PlanLaunch::kernel(plan, facts, &args_a, nd),
        PlanLaunch::kernel(plan, facts, &args_a, nd),
        PlanLaunch::kernel(plan, facts, &args_b, nd),
    ];
    let report = run_plan_graph_report(
        &launches,
        dag,
        &mut pool,
        &CostModel::default(),
        threads,
        false,
        &ExecLimits::none(),
        None,
    );
    let DataVec::F32(a) = pool.read(ma) else {
        panic!("f32 buffer")
    };
    (report, a.iter().map(|x| x.to_bits()).collect())
}

/// A failing launch 0 — a kernel whose work-groups from 2 on fault
/// before their work (`scale_oob_first`) or after it (`scale_oob_after`),
/// or a kernel the decoder rejected — fails the run at a deterministic
/// `(launch, work-group)` position, and no successor of it writes, at
/// every thread count — under the all-pairs DAG (with its direct `0 -> 2`
/// edge) and under the hazard table's (which reaches launch 2 only
/// through launch 1) alike. Whether the independent launch 3 ran is
/// unspecified, so nothing is asserted about it.
#[test]
fn injected_fault_stops_its_successors() {
    let plan = decoded_scale_plan();
    let failing = failing_plans();
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
    // Buffer A element `i` before any launch, and after one `scale_io`.
    let initial = |i: usize| (i as f32).to_bits();
    let once = |i: usize| (i as f32 * 0.5 + 3.0).to_bits();
    let out_of_bounds = format!(
        "device memory access out of bounds: index 1016 of buffer 0 (len {LEN}) \
         (launch 0, work-group 2)"
    );
    // (kind, launch 0, the error, the failing work-group, whether the
    // groups from it on may have stored)
    let kinds = [
        (
            "fault before work",
            Ok(&failing.oob_first),
            out_of_bounds.clone(),
            2,
            false,
        ),
        (
            "fault after work",
            Ok(&failing.oob_after),
            out_of_bounds,
            2,
            true,
        ),
        (
            "rejected kernel",
            Err(&failing.rejection),
            format!("{} (launch 0, work-group 0)", failing.rejection.message()),
            0,
            false,
        ),
    ];
    for threads in [1_usize, 4] {
        // Every outcome of the sweep, per DAG: they must be the same list.
        let mut seen = Vec::new();
        for (dag_name, dag) in &dags {
            let (clean, _) = fault_shape_run(Ok(&plan), &plan, dag, threads);
            let clean = clean.unwrap_or_else(|e| {
                panic!("clean run must complete (threads={threads}, {dag_name}): {e}")
            });
            let mut outcomes = vec![Ok(clean.stats)];
            for (kind, first, text, failing_group, stored) in &kinds {
                let ctx = format!("threads={threads} {kind} ({dag_name})");
                let (report, faulted_a) = fault_shape_run(*first, &plan, dag, threads);
                let error = report.expect_err(&ctx);
                assert_eq!(&error.message(), text, "{ctx}: wrong error");
                // Launches 1 and 2 never wrote: no element of A was
                // scaled twice. The groups below the failing one ran once;
                // from it on, a group stored only if it fails after its
                // work.
                for (i, &bits) in faulted_a.iter().enumerate() {
                    let want: &[u32] = if i / 8 < *failing_group {
                        &[once(i)]
                    } else if *stored {
                        &[initial(i), once(i)]
                    } else {
                        &[initial(i)]
                    };
                    assert!(want.contains(&bits), "{ctx}: element {i} of A");
                }
                outcomes.push(Err(error.message()));
            }
            seen.push(outcomes);
        }
        assert_eq!(
            seen[0], seen[1],
            "threads={threads}: the two edge sets schedule differently"
        );
    }
}

/// A failure in the middle of a launch — `scale_oob_first`'s work-group 2
/// reads out of bounds — surfaces as the same error text under both
/// schedules and every thread count, even though the later `bad_late`
/// launch fails too: the lexicographic bound holds mid-launch.
#[test]
fn injected_fault_position_is_mode_independent() {
    let results = run_error_graph(&["scale_io", "scale_oob_first", "bad_late"]);
    let (ref_name, want) = &results[0];
    assert_eq!(
        want.as_ref().map(SimError::to_string),
        Ok(format!(
            "simulation error: device memory access out of bounds: index 1016 of buffer 0 \
             (len {LEN}) (launch 1, work-group 2)"
        )),
        "`{ref_name}` must report the twin's first out-of-bounds read"
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

/// A failing **host node** — its closure shifts buffer A, then reads past
/// its end — fails the run at the node's single logical work-group with
/// the out-of-bounds text, and nothing after it runs: the dependent
/// kernel does not — at every thread count, under the all-pairs DAG and
/// the hazard table's alike.
#[test]
fn injected_fault_on_host_node_cascades_to_successors() {
    let (facts, plan) = decoded_scale_plan();
    let nd = NdRangeSpec::d1(LEN, 8);
    let mut pool = MemoryPool::new();
    let ma = pool.alloc(DataVec::F32((0..LEN).map(|i| i as f32).collect()));
    let args_a = [accessor_over(ma)];
    let host = HostNode::new(move |shared: &SharedPool<'_>| {
        let a = shared.resolve(ma)?;
        let n = a.len() as i64;
        for i in 0..n {
            let RtValue::F32(x) = a.load(i)?.into() else {
                panic!("f32 buffer")
            };
            a.store(i, RtValue::F32(x + 100.0))?;
        }
        a.load(n)?;
        Ok(())
    });
    // 0 (kernel) -> 1 (host) -> 2 (kernel), all over buffer A.
    let launches = [
        PlanLaunch::kernel(&plan, &facts, &args_a, nd),
        PlanLaunch::host(&host),
        PlanLaunch::kernel(&plan, &facts, &args_a, nd),
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
    let a_now = |pool: &MemoryPool| match pool.read(ma) {
        DataVec::F32(f) => f,
        _ => panic!("f32 buffer"),
    };
    for threads in [1_usize, 4] {
        let mut seen = Vec::new();
        for (dag_name, dag) in &dags {
            let ctx = format!("threads={threads} ({dag_name})");
            let before = a_now(&pool);
            let error = run_plan_graph_report(
                &launches,
                dag,
                &mut pool,
                &CostModel::default(),
                threads,
                false,
                &ExecLimits::none(),
                None,
            )
            .expect_err(&ctx);
            assert!(
                matches!(
                    error,
                    SimError::Fault {
                        at: Some((1, 0)),
                        ..
                    }
                ),
                "{ctx}: wrong failure {error:?}"
            );
            assert_eq!(
                error.message(),
                format!(
                    "device memory access out of bounds: index {LEN} of buffer 0 (len {LEN}) \
                     (launch 1, work-group 0)"
                ),
                "{ctx}: wrong cause text"
            );
            // Launch 0 ran, then the closure's shift, and the kernel after
            // it did not: A holds one more scale and one shift.
            let want: Vec<f32> = before.iter().map(|x| x * 0.5 + 3.0 + 100.0).collect();
            assert_eq!(a_now(&pool), want, "{ctx}");
            seen.push(error.message());
        }
        assert_eq!(
            seen[0], seen[1],
            "threads={threads}: the two edge sets schedule differently"
        );
    }
}

/// An organic failure a test puts in place of one launch of a generated
/// graph, over a scratch buffer no other launch touches.
#[derive(Clone, Copy, Debug)]
enum Failing {
    /// `scale_oob_first`: work-group 2 fails before its work.
    BeforeWork,
    /// `scale_oob_after`: work-group 2 fails after its work.
    AfterWork,
    /// The rejected `opaque` kernel: the launch fails up front.
    Rejected,
    /// A host closure that reads past the scratch buffer.
    HostOverrun,
}

/// One graph-report run of a generated graph under a caller-chosen DAG —
/// what `exec::run` does with `Queue::dep_graph`, with the edge set left
/// open — with the launch `failing` names replaced by that failure.
/// Returns the outcome — the per-launch statistics, or the error text —
/// plus the final bits of every f32 buffer and USM allocation.
fn spec_graph_run(
    spec: &GraphSpec,
    q: &Queue,
    plans: &[(&'static str, Ready)],
    failing_plans: &FailingPlans,
    dag: &LaunchDag,
    threads: usize,
    failing: Option<(usize, Failing)>,
) -> (Result<Vec<ExecStats>, String>, Vec<Vec<u32>>) {
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
    let scratch = pool.alloc(DataVec::F32(vec![1.0; LEN as usize]));
    let scratch_args = [accessor_over(scratch)];
    let overrun = HostNode::new(move |shared: &SharedPool<'_>| {
        shared.resolve(scratch)?.load(LEN)?;
        Ok(())
    });

    // Host tasks over f32 buffers, as closures over the device memory.
    let f32_at = |shared: &SharedPool<'_>, mem, i| -> Result<f32, MemFault> {
        match shared.resolve(mem)?.load(i)?.into() {
            RtValue::F32(x) => Ok(x),
            other => panic!("f32 buffer loaded {other:?}"),
        }
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
            Some(HostNode::new(move |shared: &SharedPool<'_>| {
                let out = shared.resolve(dst)?;
                for i in 0..out.len() as i64 {
                    let x = f(f32_at(shared, dst, i)?, f32_at(shared, src, i)?, k);
                    out.store(i, RtValue::F32(x))?;
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
    let nd = NdRangeSpec::d1(LEN, 8);
    let launches: Vec<PlanLaunch<'_>> = q
        .groups
        .iter()
        .zip(&hosts)
        .zip(&args)
        .enumerate()
        .map(|(li, ((cg, host), args))| {
            let failure = failing.and_then(|(at, kind)| (at == li).then_some(kind));
            match (failure, host) {
                (Some(Failing::BeforeWork), _) => {
                    let (facts, plan) = &failing_plans.oob_first;
                    PlanLaunch::kernel(plan, facts, &scratch_args, nd)
                }
                (Some(Failing::AfterWork), _) => {
                    let (facts, plan) = &failing_plans.oob_after;
                    PlanLaunch::kernel(plan, facts, &scratch_args, nd)
                }
                (Some(Failing::Rejected), _) => PlanLaunch::Rejected {
                    nd,
                    error: &failing_plans.rejection,
                },
                (Some(Failing::HostOverrun), _) => PlanLaunch::host(&overrun),
                (None, Some(node)) => PlanLaunch::host(node),
                (None, None) => {
                    let (_, (facts, plan)) = plans
                        .iter()
                        .find(|(name, _)| *name == cg.kernel)
                        .expect("a generated kernel name");
                    PlanLaunch::kernel(plan, facts, args, cg.nd)
                }
            }
        })
        .collect();
    let outcome = run_plan_graph_report(
        &launches,
        dag,
        &mut pool,
        &CostModel::default(),
        threads,
        false,
        &ExecLimits::none(),
        None,
    )
    .map(|report| report.stats)
    .map_err(|e| e.message());
    let memory = bufs[..spec.bufs.len()]
        .iter()
        .chain(&usms)
        .map(|&mem| match pool.read(mem) {
            DataVec::F32(f) => f.iter().map(|x| x.to_bits()).collect(),
            _ => panic!("f32 buffer"),
        })
        .collect();
    (outcome, memory)
}

/// The scheduler cannot tell the hazard table's sparse edge set from the
/// all-pairs one: over the generated population — clean, with its own
/// divergent kernels, and with a seeded [`Failing`] launch in place of a
/// random one — the outcome (every statistic of a clean run, the
/// failure's text and position otherwise) is equal at every thread
/// count, and so is final
/// memory whenever the run is clean (after a failure, whether a later
/// independent launch ran is schedule-dependent under either).
#[test]
fn random_graphs_schedule_identically_under_both_edge_sets() {
    let plans = decoded_templates();
    let failing_plans = failing_plans();
    let (mut sparser, mut failed) = (0, 0);
    for case in 0..48_u64 {
        let seed = case * 65_537 + 7;
        let spec = GraphSpec::generate(seed);
        let q = spec.queue();
        let dags = reference_and_table_dags(&q);
        if dags[0].1 != dags[1].1 {
            sparser += 1;
        }
        let mut rng = TestRng::new(seed ^ 0xFA17);
        let failure = (
            rng.below(q.groups.len()),
            [
                Failing::BeforeWork,
                Failing::AfterWork,
                Failing::Rejected,
                Failing::HostOverrun,
            ][rng.below(4)],
        );
        for failing in [None, Some(failure)] {
            for threads in [1_usize, 4] {
                let [want, got] = [&dags[0].1, &dags[1].1].map(|dag| {
                    spec_graph_run(&spec, &q, &plans, &failing_plans, dag, threads, failing)
                });
                let ctx = format!("seed {seed}, threads={threads}, failing {failing:?}");
                assert_eq!(want.0, got.0, "{ctx}: outcomes diverge");
                if got.0.is_ok() {
                    assert_eq!(want.1, got.1, "{ctx}: memory diverges");
                } else {
                    failed += 1;
                }
            }
        }
    }
    // The population must actually tell the edge sets apart and fail.
    assert!(sparser > 40, "only {sparser} graphs had a sparser edge set");
    assert!(failed > 90, "only {failed} of 192 runs failed");
}

/// A clean host node in a graph runs its closure exactly once between
/// its predecessor and successor (hazard order), reports zeroed
/// statistics, and the result is bit-identical at both thread counts.
#[test]
fn host_node_in_graph_runs_in_hazard_order() {
    let (facts, plan) = decoded_scale_plan();
    let nd = NdRangeSpec::d1(LEN, 8);
    let mut want: Option<Vec<u32>> = None;
    for threads in [1_usize, 4] {
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(DataVec::F32((0..LEN).map(|i| i as f32).collect()));
        let args_a = [accessor_over(ma)];
        let host = HostNode::new(move |shared: &SharedPool<'_>| {
            let a = shared.resolve(ma)?;
            for i in 0..a.len() as i64 {
                let RtValue::F32(x) = a.load(i)?.into() else {
                    panic!("f32 buffer")
                };
                a.store(i, RtValue::F32(x + 100.0))?;
            }
            Ok(())
        });
        let launches = [
            PlanLaunch::kernel(&plan, &facts, &args_a, nd),
            PlanLaunch::host(&host),
            PlanLaunch::kernel(&plan, &facts, &args_a, nd),
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
            None,
        )
        .expect("a clean run");
        // Host rows report zeroed statistics.
        assert_eq!(report.stats[1], ExecStats::default());
        assert_eq!(report.stats[1].work_groups, 0);
        let DataVec::F32(f) = pool.read(ma) else {
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
/// from its `Buf` and fails the run with the kernels' out-of-bounds
/// text, at every thread count and under the serial reference; the
/// dependent kernel does not run. A closure that panics is a bug, not a
/// fault: the scheduler's `catch_unwind` only carries the payload to the
/// launching thread, which re-throws it unclassified.
#[test]
fn host_view_fault_fails_the_node_and_a_host_panic_is_rethrown() {
    let (facts, plan) = decoded_scale_plan();
    let nd = NdRangeSpec::d1(LEN, 8);
    let two = || DataVec::F32(vec![2.0; LEN as usize]);
    let graph = |host: &HostNode, threads: usize| {
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(two());
        assert_eq!(ma, MemId(0), "the closures below name buffer 0");
        let args_a = [accessor_over(ma)];
        let launches = [
            PlanLaunch::host(host),
            PlanLaunch::kernel(&plan, &facts, &args_a, nd),
        ];
        let report = run_plan_graph_report(
            &launches,
            &LaunchDag::chain(2),
            &mut pool,
            &CostModel::default(),
            threads,
            false,
            &ExecLimits::none(),
            None,
        );
        (report, pool.read(ma))
    };

    let overrun = HostNode::new(|shared: &SharedPool<'_>| {
        let a = shared.resolve(MemId(0))?;
        a.load(a.len() as i64)?;
        Ok(())
    });
    let text = format!(
        "device memory access out of bounds: index {LEN} of buffer 0 (len {LEN}) \
         (launch 0, work-group 0)"
    );
    for threads in [1_usize, 4] {
        let (report, a) = graph(&overrun, threads);
        let error = report.expect_err("the closure reads past its buffer");
        assert_eq!(error.message(), text, "threads={threads}");
        // The successor did not run.
        assert_eq!(a, two(), "threads={threads}");
    }
    // The serial reference runs the same two-node graph, the closure on
    // the calling thread.
    let m = build_module(&SyclRuntime::new(), &Queue::new());
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let scale_io = m.lookup_symbol(dev, "scale_io").expect("kernel symbol");
    let mut pool = MemoryPool::new();
    let ma = pool.alloc(two());
    let batch = [
        BatchLaunch::host_node(overrun),
        BatchLaunch::kernel(scale_io, vec![accessor_over(ma)], nd),
    ];
    let err = Device::with_engine(Engine::TreeWalk)
        .launch_graph(&m, &batch, &LaunchDag::chain(2), &mut pool)
        .unwrap_err();
    assert_eq!(err.message(), text);
    assert_eq!(pool.read(ma), two());

    let boom = HostNode::new(|_: &SharedPool<'_>| panic!("boom"));
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
/// error under both engines — instead of panicking the host. It is known
/// before any work-group runs, so under every engine the launches before
/// it complete and none after it starts.
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
        // Launch 0 ran (2 * 0.5 + 3), launch 2 did not.
        for mem in [ma, mb] {
            assert_eq!(
                pool.read(mem),
                DataVec::F32(vec![4.0; LEN as usize]),
                "`{name}`"
            );
        }
    }
}

/// A buffer id a host closure names is outside input exactly like a
/// launch argument: `SharedPool::resolve`, a closure's one way to a
/// buffer, returns the fault when it meets the stranger, the node fails with it
/// at `(launch, 0)` under both engines, and the kernel that depends on
/// the node does not run.
#[test]
fn unknown_buffer_in_a_host_closure_fails_its_node_only() {
    let m = build_module(&SyclRuntime::new(), &Queue::new());
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let scale_io = m.lookup_symbol(dev, "scale_io").expect("kernel symbol");
    let nd = NdRangeSpec::d1(LEN, 8);
    const STRANGER: MemId = MemId(9);
    type Probe = fn(&SharedPool<'_>) -> Result<(), MemFault>;
    let probes: [(&str, Probe); 1] = [("resolve", |v| v.resolve(STRANGER).map(drop))];
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
            // x * 0.5 + 3, once before the node and not after it.
            assert_eq!(
                pool.read(ma),
                DataVec::F32(vec![4.0; LEN as usize]),
                "`{method}` under `{name}`"
            );
        }
    }
}

/// A kernel the plan decoder rejects fails at its own position, up
/// front: the out-of-bounds access of the launch before it wins, under
/// both schedules and every thread count — `(launch 1, work-group 0)`
/// everywhere, though the serial reference has no decoder and the plan
/// engine knows of the rejection before any work-group runs.
#[test]
fn earlier_kernel_error_beats_a_later_rejected_kernel() {
    let results = run_error_graph(&["scale_io", "oob", "opaque"]);
    let (ref_name, want) = &results[0];
    assert!(
        want.as_ref().is_ok_and(|e| matches!(
            e,
            SimError::Fault {
                at: Some((1, 0)),
                ..
            }
        ) && e.message().contains("out of bounds")),
        "`{ref_name}` reported: {want:?}"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}

// ----------------------------------------------------------------------
// One failure per run: where a failure stops the graph
// ----------------------------------------------------------------------

/// A failing launch 0, a counting host node that depends on it and a
/// later independent counting node, for every plain failure kind, under
/// the serial reference and the graph scheduler at 1 and 4 threads: no
/// successor of the failing launch runs, so the dependent counter reads
/// 0 everywhere — the serial reference's stopping point. When the
/// failure is known before any work-group runs (an unknown-buffer
/// argument, a kernel the decoder rejects) no later launch starts
/// either, so the
/// independent counter reads 0 too; otherwise whether it ran is
/// unspecified.
#[test]
fn failure_stops_every_successor_under_every_engine() {
    let m = error_module();
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let kernel = |name| m.lookup_symbol(dev, name).expect("kernel symbol");
    let nd = NdRangeSpec::d1(LEN, 8);
    let overrun = HostNode::new(|shared: &SharedPool<'_>| {
        let a = shared.resolve(MemId(0))?;
        a.load(a.len() as i64)?;
        Ok(())
    });
    // (kind, failing launch 0, known before any group runs, the error's
    // position)
    let kinds = [
        (
            "host view fault",
            BatchLaunch::host_node(overrun),
            false,
            (0, 0),
        ),
        (
            "unknown buffer argument",
            BatchLaunch::kernel(kernel("scale_io"), vec![accessor_over(MemId(9))], nd),
            true,
            (0, 0),
        ),
        (
            "divergent barrier",
            BatchLaunch::kernel(kernel("bad_late"), Vec::new(), nd),
            false,
            (0, 2),
        ),
        (
            "rejected kernel",
            BatchLaunch::kernel(kernel("opaque"), vec![accessor_over(MemId(0))], nd),
            true,
            (0, 0),
        ),
    ];
    let counter = |count: &Arc<AtomicUsize>| {
        let count = count.clone();
        BatchLaunch::host_node(HostNode::new(move |_: &SharedPool<'_>| {
            count.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }))
    };
    for (kind, failing, upfront, at) in kinds {
        for (name, device) in configs() {
            let (successor, independent) = (Arc::default(), Arc::default());
            let batch = [failing.clone(), counter(&successor), counter(&independent)];
            let mut pool = MemoryPool::new();
            pool.alloc(DataVec::F32(vec![2.0; LEN as usize]));
            let err = device
                .launch_graph(&m, &batch, &LaunchDag::from_edges(3, &[(0, 1)]), &mut pool)
                .expect_err("launch 0 fails");
            let ctx = format!("{kind} under `{name}`: {err}");
            assert!(
                err.message()
                    .ends_with(&format!("(launch {}, work-group {})", at.0, at.1)),
                "{ctx}"
            );
            assert_eq!(
                successor.load(Ordering::Relaxed),
                0,
                "{ctx}: the successor ran"
            );
            if upfront {
                assert_eq!(
                    independent.load(Ordering::Relaxed),
                    0,
                    "{ctx}: a later launch ran"
                );
            }
        }
    }
}
