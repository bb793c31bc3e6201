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

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::arith;
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::runtime::{
    compile_program, hostgen::generate_host_ir, HostOp, Program, Queue, SyclRuntime,
};
use sycl_mlir_repro::sim::{
    decode_kernel, run_plan_graph_report, AccessorVal, CostModel, DataVec, Device, Engine,
    ExecLimits, ExecStats, FaultPlan, FaultSite, HostNode, HostView, KernelPlan, LaunchDag,
    LaunchStatus, MemoryPool, NdRangeSpec, PlanLaunch, RtValue,
};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;

const LEN: i64 = 32;

/// One kernel argument of a generated submission: a buffer accessor or a
/// USM allocation (aliasing is the point — several submissions naming the
/// same id exercise the hazard edges).
#[derive(Clone, Copy, Debug)]
enum Arg {
    Buf(usize),
    Usm(usize),
}

/// One generated command group.
#[derive(Clone, Debug)]
enum Sub {
    /// `combine(src read, dst read+write)`.
    Combine {
        src: Arg,
        dst: Arg,
        global: i64,
        local: i64,
    },
    /// `scale_io(a read+write)`.
    ScaleIo { a: Arg, global: i64, local: i64 },
    /// `gather(idx read, src read, dst read+write)` — the sparse-family
    /// indirect-index shape: the subscript into `src` is *loaded* from
    /// the shared index buffer.
    Gather {
        src: Arg,
        dst: Arg,
        global: i64,
        local: i64,
    },
    /// `wg_sum(a read+write)` — the reduction-family shape: a
    /// work-group-local tile plus a barrier ladder; each group replaces
    /// its slice of `a` with the group sum.
    WgSum { a: Arg, global: i64 },
    /// A kernel with work-groups >= 2 stuck at a divergent barrier.
    BadLate { global: i64, local: i64 },
    /// A host task over buffers.
    Host(HostOp),
}

/// The fixed work-group size of `wg_sum` (its barrier ladder is unrolled
/// at build time, so the launch must match).
const WG_SUM_LOCAL: i64 = 8;

/// A fully determined random graph: initial data plus the submission list.
struct GraphSpec {
    bufs: Vec<Vec<f32>>,
    usms: Vec<Vec<f32>>,
    /// The shared index buffer `gather` reads through (in-bounds values;
    /// allocated after the f32 buffers so their ids stay stable).
    idx: Vec<i32>,
    subs: Vec<Sub>,
}

impl GraphSpec {
    fn generate(seed: u64) -> GraphSpec {
        let mut rng = TestRng::new(seed);
        let n_buf = 2 + rng.below(3);
        let n_usm = 1 + rng.below(2);
        let bufs = (0..n_buf)
            .map(|b| {
                (0..LEN)
                    .map(|i| (i as f32) * 0.25 + b as f32)
                    .collect::<Vec<f32>>()
            })
            .collect();
        let usms = (0..n_usm)
            .map(|u| {
                (0..LEN)
                    .map(|i| (i as f32) * 0.5 - u as f32)
                    .collect::<Vec<f32>>()
            })
            .collect();
        let idx = (0..LEN).map(|_| rng.below(LEN as usize) as i32).collect();
        let n_sub = 1 + rng.below(64);
        // ~1 in 8 graphs carries one divergent kernel at a random spot.
        let bad_at = if rng.below(8) == 0 {
            Some(rng.below(n_sub))
        } else {
            None
        };
        let mut subs = Vec::with_capacity(n_sub);
        for s in 0..n_sub {
            if bad_at == Some(s) {
                let local = [4, 8][rng.below(2)];
                subs.push(Sub::BadLate { global: LEN, local });
                continue;
            }
            let arg = |rng: &mut TestRng| -> Arg {
                if rng.below(4) == 0 {
                    Arg::Usm(rng.below(n_usm))
                } else {
                    Arg::Buf(rng.below(n_buf))
                }
            };
            let local = [4, 8][rng.below(2)];
            let global = [8, 16, 32][rng.below(3)].max(local);
            match rng.below(14) {
                0 | 1 => {
                    // Host task (buffers only).
                    let op = match rng.below(3) {
                        0 => HostOp::Scale {
                            buffer: sycl_mlir_repro::runtime::BufferId(rng.below(n_buf)),
                            factor: [0.5, 2.0, 1.5][rng.below(3)],
                        },
                        1 => HostOp::Shift {
                            buffer: sycl_mlir_repro::runtime::BufferId(rng.below(n_buf)),
                            delta: [1.0, -2.0][rng.below(2)],
                        },
                        _ => HostOp::AddInto {
                            dst: sycl_mlir_repro::runtime::BufferId(rng.below(n_buf)),
                            src: sycl_mlir_repro::runtime::BufferId(rng.below(n_buf)),
                        },
                    };
                    subs.push(Sub::Host(op));
                }
                2..=5 => subs.push(Sub::Combine {
                    src: arg(&mut rng),
                    dst: arg(&mut rng),
                    global,
                    local,
                }),
                6 | 7 => {
                    let src = arg(&mut rng);
                    let mut dst = arg(&mut rng);
                    // `gather` reads `src` at data-dependent positions
                    // while writing `dst[gid]`: if both name the same
                    // resource, the result depends on work-item order
                    // *within* the launch. Keep them distinct — aliasing
                    // across launches (the hazard DAG's job) is still
                    // generated freely.
                    match (src, dst) {
                        (Arg::Buf(a), Arg::Buf(b)) if a == b => dst = Arg::Buf((a + 1) % n_buf),
                        (Arg::Usm(a), Arg::Usm(b)) if a == b => dst = Arg::Buf(0),
                        _ => {}
                    }
                    subs.push(Sub::Gather {
                        src,
                        dst,
                        global,
                        local,
                    });
                }
                8 => subs.push(Sub::WgSum {
                    a: arg(&mut rng),
                    global: global.max(WG_SUM_LOCAL),
                }),
                _ => subs.push(Sub::ScaleIo {
                    a: arg(&mut rng),
                    global,
                    local,
                }),
            }
        }
        GraphSpec {
            bufs,
            usms,
            idx,
            subs,
        }
    }

    /// A fresh runtime with the spec's initial data (ids are allocation
    /// order, so every call produces the same id assignment).
    fn runtime(&self) -> SyclRuntime {
        let mut rt = SyclRuntime::new();
        for data in &self.bufs {
            rt.buffer_f32(data.clone(), &[LEN]);
        }
        // The index buffer comes after every f32 buffer so their ids
        // (allocation order) stay stable across the generator history.
        rt.buffer_i32(self.idx.clone(), &[LEN]);
        for data in &self.usms {
            rt.usm_alloc_f32(data.clone());
        }
        rt
    }

    /// The shared index buffer's id (allocated right after the f32
    /// buffers).
    fn idx_buf(&self) -> sycl_mlir_repro::runtime::BufferId {
        sycl_mlir_repro::runtime::BufferId(self.bufs.len())
    }

    /// Record the submissions on a queue.
    fn queue(&self) -> Queue {
        let mut q = Queue::new();
        for sub in &self.subs {
            match *sub {
                Sub::Combine {
                    src,
                    dst,
                    global,
                    local,
                } => {
                    q.submit(|h| {
                        match src {
                            Arg::Buf(b) => {
                                h.accessor(sycl_mlir_repro::runtime::BufferId(b), AccessMode::Read);
                            }
                            Arg::Usm(u) => {
                                h.usm(sycl_mlir_repro::runtime::UsmId(u), LEN);
                            }
                        }
                        match dst {
                            Arg::Buf(b) => {
                                h.accessor(
                                    sycl_mlir_repro::runtime::BufferId(b),
                                    AccessMode::ReadWrite,
                                );
                            }
                            Arg::Usm(u) => {
                                h.usm(sycl_mlir_repro::runtime::UsmId(u), LEN);
                            }
                        }
                        h.parallel_for_nd("combine", &[global], &[local]);
                    });
                }
                Sub::ScaleIo { a, global, local } => {
                    q.submit(|h| {
                        match a {
                            Arg::Buf(b) => {
                                h.accessor(
                                    sycl_mlir_repro::runtime::BufferId(b),
                                    AccessMode::ReadWrite,
                                );
                            }
                            Arg::Usm(u) => {
                                h.usm(sycl_mlir_repro::runtime::UsmId(u), LEN);
                            }
                        }
                        h.parallel_for_nd("scale_io", &[global], &[local]);
                    });
                }
                Sub::Gather {
                    src,
                    dst,
                    global,
                    local,
                } => {
                    q.submit(|h| {
                        h.accessor(self.idx_buf(), AccessMode::Read);
                        match src {
                            Arg::Buf(b) => {
                                h.accessor(sycl_mlir_repro::runtime::BufferId(b), AccessMode::Read);
                            }
                            Arg::Usm(u) => {
                                h.usm(sycl_mlir_repro::runtime::UsmId(u), LEN);
                            }
                        }
                        match dst {
                            Arg::Buf(b) => {
                                h.accessor(
                                    sycl_mlir_repro::runtime::BufferId(b),
                                    AccessMode::ReadWrite,
                                );
                            }
                            Arg::Usm(u) => {
                                h.usm(sycl_mlir_repro::runtime::UsmId(u), LEN);
                            }
                        }
                        h.parallel_for_nd("gather", &[global], &[local]);
                    });
                }
                Sub::WgSum { a, global } => {
                    q.submit(|h| {
                        match a {
                            Arg::Buf(b) => {
                                h.accessor(
                                    sycl_mlir_repro::runtime::BufferId(b),
                                    AccessMode::ReadWrite,
                                );
                            }
                            Arg::Usm(u) => {
                                h.usm(sycl_mlir_repro::runtime::UsmId(u), LEN);
                            }
                        }
                        h.parallel_for_nd("wg_sum", &[global], &[WG_SUM_LOCAL]);
                    });
                }
                Sub::BadLate { global, local } => {
                    q.submit(|h| h.parallel_for_nd("bad_late", &[global], &[local]));
                }
                Sub::Host(op) => {
                    q.submit(|h| h.host_task(op));
                }
            }
        }
        q
    }
}

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
            rt.read_f32(sycl_mlir_repro::runtime::BufferId(b))
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();
    let usms = (0..spec.usms.len())
        .map(|u| {
            rt.usm_read_f32(sycl_mlir_repro::runtime::UsmId(u))
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
fn run_error_graph(kernels: &[&str], fault: Option<FaultPlan>) -> Vec<(String, String)> {
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
            Ok(Err(e)) => format!("error: {e}"),
            Err(payload) => {
                let text = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<opaque panic>".into());
                format!("panic: {text}")
            }
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
        want.contains("divergent barrier") && want.contains("[2, 0, 0]"),
        "`{ref_name}` reported: {want}"
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
        want.starts_with("error:") && want.contains("out of bounds"),
        "`{ref_name}` reported: {want}"
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
        want.contains("divergent barrier") && want.contains("[2, 0, 0]"),
        "`{ref_name}` reported: {want}"
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

/// Decode the `scale_io` template into a standalone kernel plan for the
/// direct graph-report tests below.
fn decoded_scale_plan() -> KernelPlan {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();
    let sig = KernelSig::new("scale_io", 1, true).accessor(f32t, 1, AccessMode::ReadWrite);
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
    let m = kb.finish();
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let op = m.lookup_symbol(dev, "scale_io").expect("kernel symbol");
    decode_kernel(&m, op).expect("scale_io decodes")
}

/// One graph-report run of the fault-injection shape: a `0 -> 1 -> 2`
/// chain over buffer A plus an independent launch 3 over buffer B.
/// Returns the report and the final bits of both buffers.
fn fault_shape_run(
    plan: &KernelPlan,
    threads: usize,
    limits: &ExecLimits,
) -> (sycl_mlir_repro::sim::GraphReport, Vec<u32>, Vec<u32>) {
    let nd = NdRangeSpec::d1(LEN, 8);
    let acc = |mem| {
        RtValue::Accessor(AccessorVal {
            mem,
            range: [LEN, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        })
    };
    let mut pool = MemoryPool::new();
    let ma = pool.alloc(DataVec::F32((0..LEN).map(|i| i as f32).collect()));
    let mb = pool.alloc(DataVec::F32((0..LEN).map(|i| 0.125 * i as f32).collect()));
    let args_a = [acc(ma)];
    let args_b = [acc(mb)];
    let launches = [
        PlanLaunch::kernel(plan, &args_a, nd),
        PlanLaunch::kernel(plan, &args_a, nd),
        PlanLaunch::kernel(plan, &args_a, nd),
        PlanLaunch::kernel(plan, &args_b, nd),
    ];
    let dag = LaunchDag::from_edges(4, &[(0, 1), (1, 2)]);
    let report = run_plan_graph_report(
        &launches,
        &dag,
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
/// launches bit-identical to a clean run, at every thread count.
#[test]
fn injected_fault_cancels_successors_and_spares_independents() {
    let plan = decoded_scale_plan();
    for threads in [1_usize, 4] {
        let (clean, clean_a, clean_b) = fault_shape_run(&plan, threads, &ExecLimits::none());
        assert!(
            clean.statuses.iter().all(|s| *s == LaunchStatus::Completed),
            "clean run must complete everywhere (threads={threads})"
        );
        for site in [FaultSite::Decode, FaultSite::Claim(2), FaultSite::Instr(7)] {
            let fault = FaultPlan { launch: 0, site };
            let limits = ExecLimits {
                fault: Some(fault),
                ..ExecLimits::none()
            };
            let (report, faulted_a, faulted_b) = fault_shape_run(&plan, threads, &limits);
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
                        "threads={threads} {site:?}: wrong error"
                    );
                    assert_eq!(
                        *group, want_group,
                        "threads={threads} {site:?}: wrong failing group"
                    );
                }
                other => panic!("threads={threads} {site:?}: launch 0 reported {other:?}"),
            }
            // Transitive successors are cancelled with the root cause and
            // report zeroed statistics.
            for li in [1, 2] {
                assert_eq!(
                    report.statuses[li],
                    LaunchStatus::Cancelled { cause: 0 },
                    "threads={threads} {site:?}: launch {li} not cancelled"
                );
                assert_eq!(report.stats[li].work_groups, 0);
                assert_eq!(report.stats[li].work_items, 0);
            }
            // The independent launch completes bit-identically to the
            // clean run: same statistics, same final buffer bits.
            assert_eq!(report.statuses[3], LaunchStatus::Completed);
            assert_eq!(
                report.stats[3], clean.stats[3],
                "threads={threads} {site:?}: independent launch stats diverge"
            );
            assert_eq!(
                faulted_b, clean_b,
                "threads={threads} {site:?}: independent buffer diverges"
            );
            // Buffer A saw at most the faulted launch's partial groups —
            // never launch 1's or 2's writes. The decode fault runs no
            // group at all, so A must be untouched; all clean-run values
            // differ from the initial ones, so equality would be a leak.
            if site == FaultSite::Decode {
                let initial: Vec<u32> = (0..LEN).map(|i| (i as f32).to_bits()).collect();
                assert_eq!(faulted_a, initial, "decode fault must run no group");
                assert_ne!(clean_a, initial);
            }
            // The lexicographic first-failure bound.
            let (fl, fg, _) = report.first_failure().expect("a failure is recorded");
            assert_eq!((fl, fg), (0, want_group), "threads={threads} {site:?}");
        }
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
        want,
        &format!(
            "error: simulation error: {} (launch 1, work-group 1)",
            fault.error().message()
        ),
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
        results.push((name, err.to_string()));
    }
    let (ref_name, want) = &results[0];
    assert!(
        want.contains("divergent barrier") && want.contains("(launch 2, work-group 2)"),
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
/// thread count.
#[test]
fn injected_fault_on_host_node_cascades_to_successors() {
    let plan = decoded_scale_plan();
    let nd = NdRangeSpec::d1(LEN, 8);
    let mut pool = MemoryPool::new();
    let ma = pool.alloc(DataVec::F32((0..LEN).map(|i| i as f32).collect()));
    let args_a = [RtValue::Accessor(AccessorVal {
        mem: ma,
        range: [LEN, 1, 1],
        offset: [0, 0, 0],
        rank: 1,
        constant: false,
    })];
    let host = HostNode::new(move |view: &HostView<'_, '_>| {
        let n = view.len(ma) as i64;
        for i in 0..n {
            let RtValue::F32(x) = view.load(ma, i) else {
                panic!("f32 buffer")
            };
            view.store(ma, i, RtValue::F32(x + 100.0));
        }
        Ok(())
    });
    // 0 (kernel) -> 1 (host) -> 2 (kernel), all over buffer A.
    let launches = [
        PlanLaunch::kernel(&plan, &args_a, nd),
        PlanLaunch::host(&host),
        PlanLaunch::kernel(&plan, &args_a, nd),
    ];
    let dag = LaunchDag::from_edges(3, &[(0, 1), (1, 2)]);
    for threads in [1_usize, 4] {
        for site in [FaultSite::Decode, FaultSite::Claim(0), FaultSite::Instr(7)] {
            let fault = FaultPlan { launch: 1, site };
            let limits = ExecLimits {
                fault: Some(fault),
                ..ExecLimits::none()
            };
            let report = run_plan_graph_report(
                &launches,
                &dag,
                &mut pool,
                &CostModel::default(),
                threads,
                false,
                &limits,
            )
            .expect("well-formed graph");
            assert_eq!(
                report.statuses[0],
                LaunchStatus::Completed,
                "threads={threads} {site:?}"
            );
            match &report.statuses[1] {
                LaunchStatus::Failed { group, error } => {
                    assert_eq!(*group, 0, "a host node has exactly one group");
                    assert_eq!(
                        error.message(),
                        format!("{} (launch 1, work-group 0)", fault.error().message()),
                        "threads={threads} {site:?}: wrong cause text"
                    );
                }
                other => panic!("threads={threads} {site:?}: host reported {other:?}"),
            }
            assert_eq!(
                report.statuses[2],
                LaunchStatus::Cancelled { cause: 1 },
                "threads={threads} {site:?}: successor not cancelled"
            );
            // The faulted host closure never ran and the cancelled
            // kernel never wrote: buffer A holds exactly launch 0's
            // output each round (the iterations stack one scale each).
            assert_eq!(report.stats[1], ExecStats::default());
            let (fl, fg, _) = report.first_failure().expect("a failure is recorded");
            assert_eq!((fl, fg), (1, 0), "threads={threads} {site:?}");
        }
    }
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
        let args_a = [RtValue::Accessor(AccessorVal {
            mem: ma,
            range: [LEN, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        })];
        let host = HostNode::new(move |view: &HostView<'_, '_>| {
            let n = view.len(ma) as i64;
            for i in 0..n {
                let RtValue::F32(x) = view.load(ma, i) else {
                    panic!("f32 buffer")
                };
                view.store(ma, i, RtValue::F32(x + 100.0));
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
        want.starts_with("error:") && want.contains("out of bounds"),
        "`{ref_name}` reported: {want}"
    );
    for (name, got) in &results[1..] {
        assert_eq!(got, want, "`{name}` diverges from `{ref_name}`");
    }
}
