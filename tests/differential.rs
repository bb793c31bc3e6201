//! Property-based differential testing: for randomly generated inputs, the
//! optimized (SYCL-MLIR) and baseline (DPC++) compilations of a kernel must
//! produce identical results — optimizations may never change semantics.

use proptest::prelude::*;
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::{affine, arith};
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::runtime::{compile_program, hostgen::generate_host_ir, Queue, SyclRuntime};
use sycl_mlir_repro::sim::Device;
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;

/// Run a tiny matmul-with-accumulation app and return the output buffer.
fn run_matmul(kind: FlowKind, n: i64, a_data: &[f32], b_data: &[f32]) -> Vec<f32> {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let sig = KernelSig::new("mm", 2, true)
        .accessor(ctx.f32_type(), 2, AccessMode::Read)
        .accessor(ctx.f32_type(), 2, AccessMode::Read)
        .accessor(ctx.f32_type(), 2, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let j = sdev::global_id(b, item, 1);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, n);
        let one = arith::constant_index(b, 1);
        affine::build_affine_for(b, zero, nn, one, &[], |inner, k, _| {
            let av = sdev::load_via_id(inner, args[0], &[i, k]);
            let bv = sdev::load_via_id(inner, args[1], &[k, j]);
            let prod = arith::mulf(inner, av, bv);
            let c = sdev::load_via_id(inner, args[2], &[i, j]);
            let sum = arith::addf(inner, c, prod);
            sdev::store_via_id(inner, sum, args[2], &[i, j]);
            vec![]
        });
    });

    let mut rt = SyclRuntime::new();
    let a = rt.buffer_f32(a_data.to_vec(), &[n, n]);
    let b = rt.buffer_f32(b_data.to_vec(), &[n, n]);
    let c = rt.buffer_f32(vec![0.0; (n * n) as usize], &[n, n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(b, AccessMode::Read)
            .accessor(c, AccessMode::ReadWrite);
        h.parallel_for_nd("mm", &[n, n], &[4, 4]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let mut program = compile_program(kind, module).expect("compiles");
    let device = Device::new();
    sycl_mlir_repro::runtime::exec::run(&mut program, &mut rt, &q, &device).expect("runs");
    rt.read_f32(c).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The reduction + internalization pipeline preserves matmul results
    /// bit-for-bit (same accumulation order) on random inputs.
    #[test]
    fn optimized_matmul_matches_baseline(
        a in proptest::collection::vec(-8i16..8, 64),
        b in proptest::collection::vec(-8i16..8, 64),
    ) {
        let n = 8;
        let a: Vec<f32> = a.into_iter().map(f32::from).collect();
        let b: Vec<f32> = b.into_iter().map(f32::from).collect();
        let base = run_matmul(FlowKind::Dpcpp, n, &a, &b);
        let opt = run_matmul(FlowKind::SyclMlir, n, &a, &b);
        prop_assert_eq!(base, opt);
    }
}

// ----------------------------------------------------------------------
// Engine differential: the pre-decoded plan executor vs the tree-walk
// reference interpreter, over every benchsuite workload.
// ----------------------------------------------------------------------

mod engine_differential {
    use std::collections::BTreeMap;
    use sycl_mlir_bench::quick_size;
    use sycl_mlir_repro::benchsuite::{all_workloads, run_workload_on};
    use sycl_mlir_repro::core::FlowKind;
    use sycl_mlir_repro::sim::{decode_kernel, Device, Engine};

    /// Bitwise-comparable view of an `f64` that may be the NaN "missing
    /// bar" marker.
    fn cycles_eq(a: f64, b: f64) -> bool {
        a == b || (a.is_nan() && b.is_nan())
    }

    /// Every workload, under every compilation flow, must produce identical
    /// outputs (all buffers and USM allocations), identical dynamic stats
    /// (arith ops, memory transactions, barriers, cycles) and identical
    /// validation verdicts on both engines.
    #[test]
    fn plan_engine_matches_tree_walk_on_all_workloads() {
        let tree_dev = Device::with_engine(Engine::TreeWalk);
        let plan_dev = Device::with_engine(Engine::Plan);
        for w in all_workloads() {
            let size = quick_size(&w);
            for kind in FlowKind::all() {
                let label = format!("{} [{}] at size {size}", w.name, kind.name());
                let tree = run_workload_on(&w, size, kind, &tree_dev);
                let plan = run_workload_on(&w, size, kind, &plan_dev);
                match (tree, plan) {
                    (Ok((tres, trt)), Ok((pres, prt))) => {
                        assert_eq!(tres.valid(), pres.valid(), "validation differs: {label}");
                        assert_eq!(tres.stats, pres.stats, "stats differ: {label}");
                        assert!(
                            cycles_eq(tres.cycles, pres.cycles),
                            "cycles differ: {label}: {} vs {}",
                            tres.cycles,
                            pres.cycles
                        );
                        assert_eq!(
                            trt.buffers.len(),
                            prt.buffers.len(),
                            "buffer count differs: {label}"
                        );
                        for (i, (tb, pb)) in trt.buffers.iter().zip(&prt.buffers).enumerate() {
                            assert_eq!(tb.data, pb.data, "buffer {i} contents differ: {label}");
                        }
                        assert_eq!(trt.usm, prt.usm, "usm contents differ: {label}");
                    }
                    (Err(te), Err(pe)) => {
                        assert_eq!(te, pe, "engines fail differently: {label}")
                    }
                    (t, p) => panic!(
                        "one engine failed, the other did not: {label}: tree={t:?} plan={p:?}",
                        t = t.is_ok(),
                        p = p.is_ok()
                    ),
                }
            }
        }
    }

    /// Every workload, under every compilation flow, must produce
    /// identical outputs, statistics and cycles when its work-groups run
    /// on 4 worker threads instead of sequentially — the determinism
    /// contract of the work-group thread pool, held over the whole suite.
    #[test]
    fn four_worker_threads_match_sequential_on_all_workloads() {
        let seq_dev = Device::with_engine(Engine::Plan).threads(1);
        let par_dev = Device::with_engine(Engine::Plan).threads(4);
        for w in all_workloads() {
            let size = quick_size(&w);
            for kind in FlowKind::all() {
                let label = format!("{} [{}] at size {size}", w.name, kind.name());
                let seq = run_workload_on(&w, size, kind, &seq_dev);
                let par = run_workload_on(&w, size, kind, &par_dev);
                match (seq, par) {
                    (Ok((sres, srt)), Ok((pres, prt))) => {
                        assert_eq!(sres.valid(), pres.valid(), "validation differs: {label}");
                        assert_eq!(sres.stats, pres.stats, "stats differ: {label}");
                        assert!(
                            cycles_eq(sres.cycles, pres.cycles),
                            "cycles differ: {label}: {} vs {}",
                            sres.cycles,
                            pres.cycles
                        );
                        for (i, (sb, pb)) in srt.buffers.iter().zip(&prt.buffers).enumerate() {
                            assert_eq!(sb.data, pb.data, "buffer {i} contents differ: {label}");
                        }
                        assert_eq!(srt.usm, prt.usm, "usm contents differ: {label}");
                    }
                    // Both failing is equivalence enough: the pool only
                    // guarantees the sequential engine's exact error when a
                    // single work-group is at fault (with several failing
                    // groups, which group's error gets observed first is
                    // scheduling-dependent — see crates/sim/src/pool.rs).
                    (Err(_), Err(_)) => {}
                    (s, p) => panic!(
                        "one thread count failed, the other did not: {label}: seq={s:?} par={p:?}",
                        s = s.is_ok(),
                        p = p.is_ok()
                    ),
                }
            }
        }
    }

    /// The order-and-proof audit, over the whole suite: with a work-group's
    /// sub-groups, and the two halves of every split, run in the opposite
    /// order, and with the bounds check kept at every site the interval
    /// prover marked in-bounds (a failing one is an error of its own),
    /// every workload under every flow must produce what the normal run
    /// does — outputs, statistics, cycles, or the same failure. A kernel
    /// that depended on item order between barriers, or a wrong proof,
    /// fails here.
    #[test]
    fn audit_run_matches_the_normal_run_on_all_workloads() {
        use sycl_mlir_repro::sim::plan::audit_on_this_thread;
        let dev = Device::with_engine(Engine::Plan);
        for w in all_workloads() {
            let size = quick_size(&w);
            for kind in FlowKind::all() {
                let label = format!("{} [{}] at size {size}", w.name, kind.name());
                let normal = run_workload_on(&w, size, kind, &dev);
                audit_on_this_thread(true);
                let audited = run_workload_on(&w, size, kind, &dev);
                audit_on_this_thread(false);
                match (normal, audited) {
                    (Ok((nres, nrt)), Ok((ares, art))) => {
                        assert_eq!(nres.valid(), ares.valid(), "validation differs: {label}");
                        assert_eq!(nres.stats, ares.stats, "stats differ: {label}");
                        assert!(
                            cycles_eq(nres.cycles, ares.cycles),
                            "cycles differ: {label}: {} vs {}",
                            nres.cycles,
                            ares.cycles
                        );
                        for (i, (nb, ab)) in nrt.buffers.iter().zip(&art.buffers).enumerate() {
                            assert_eq!(nb.data, ab.data, "buffer {i} contents differ: {label}");
                        }
                        assert_eq!(nrt.usm, art.usm, "usm contents differ: {label}");
                    }
                    (Err(ne), Err(ae)) => assert_eq!(ne, ae, "failures differ: {label}"),
                    (n, a) => panic!(
                        "one run failed, the other did not: {label}: normal={n:?} audit={a:?}",
                        n = n.is_ok(),
                        a = a.is_ok()
                    ),
                }
            }
        }
    }

    /// Every workload, under every compilation flow, must produce
    /// identical outputs, statistics and cycles with *all* executor
    /// upgrades engaged at once — plan engine, peephole fusion, 4 worker
    /// threads and the out-of-order launch scheduler — as under the
    /// tree-walk serial reference. This is the "everything on" column of
    /// the differential sweep: any fusion pattern or launch reordering
    /// that changes semantics anywhere in the suite fails here.
    #[test]
    fn fused_batched_parallel_matches_tree_walk_on_all_workloads() {
        let ref_dev = Device::with_engine(Engine::TreeWalk).threads(1);
        let opt_dev = Device::with_engine(Engine::Plan).threads(4);
        for w in all_workloads() {
            let size = quick_size(&w);
            for kind in FlowKind::all() {
                let label = format!("{} [{}] at size {size}", w.name, kind.name());
                let reference = run_workload_on(&w, size, kind, &ref_dev);
                let optimized = run_workload_on(&w, size, kind, &opt_dev);
                match (reference, optimized) {
                    (Ok((rres, rrt)), Ok((ores, ort))) => {
                        assert_eq!(rres.valid(), ores.valid(), "validation differs: {label}");
                        assert_eq!(rres.stats, ores.stats, "stats differ: {label}");
                        assert!(
                            cycles_eq(rres.cycles, ores.cycles),
                            "cycles differ: {label}: {} vs {}",
                            rres.cycles,
                            ores.cycles
                        );
                        for (i, (rb, ob)) in rrt.buffers.iter().zip(&ort.buffers).enumerate() {
                            assert_eq!(rb.data, ob.data, "buffer {i} contents differ: {label}");
                        }
                        assert_eq!(rrt.usm, ort.usm, "usm contents differ: {label}");
                    }
                    // Both failing is equivalence enough (see the threads
                    // sweep above for why exact error identity is only
                    // guaranteed with a single failing group).
                    (Err(_), Err(_)) => {}
                    (r, o) => panic!(
                        "one configuration failed, the other did not: {label}: ref={r:?} opt={o:?}",
                        r = r.is_ok(),
                        o = o.is_ok()
                    ),
                }
            }
        }
    }

    /// Superinstruction mnemonic -> a count.
    type PerWindow<T> = BTreeMap<&'static str, T>;

    /// Per flow, how often each superinstruction occurs in the fused
    /// plans of the kernels the benchsuite compiles, plus every such
    /// mnemonic's `Instr::op_weight`.
    fn benchsuite_windows() -> (Vec<(FlowKind, PerWindow<u32>)>, PerWindow<u64>) {
        use sycl_mlir_repro::sim::fuse_plan;
        let mut weights = BTreeMap::new();
        let mut per_flow = Vec::new();
        for kind in [FlowKind::Dpcpp, FlowKind::AdaptiveCpp, FlowKind::SyclMlir] {
            let mut c = PerWindow::new();
            for w in all_workloads() {
                if kind == FlowKind::AdaptiveCpp && w.acpp_fails {
                    continue;
                }
                let app = (w.build)(quick_size(&w));
                let program = sycl_mlir_repro::runtime::compile_program(kind, app.module)
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, kind.name()));
                let m = &program.module;
                let device_mod = m
                    .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
                    .expect("device module");
                for f in m.funcs_in(device_mod) {
                    if sycl_mlir_repro::sycl::device::is_kernel(m, f) {
                        if let Ok(mut plan) = decode_kernel(m, f) {
                            fuse_plan(&mut plan);
                            for i in plan.superinstructions() {
                                *c.entry(i.mnemonic()).or_insert(0) += 1;
                                weights.insert(i.mnemonic(), i.op_weight());
                            }
                        }
                    }
                }
            }
            println!("benchsuite fusion [{}]: {c:?}", kind.name());
            per_flow.push((kind, c));
        }
        (per_flow, weights)
    }

    /// The windows fusion forms in the kernels the benchsuite compiles,
    /// per flow and per mnemonic, exactly. The matcher's legality is a
    /// read count over `Instr::operands`: an operand dropped from that
    /// table (or a window that stops matching) moves a number here, in a
    /// named test, instead of shifting a cycle count. The one window is
    /// the indexed accessor load. That a window which occurs is also
    /// *executed* is `every_window_in_a_compiled_kernel_executes`'s job.
    #[test]
    fn fusion_fires_on_benchsuite_kernels() {
        let (per_flow, _) = benchsuite_windows();
        // A change to a pass or to the matcher that moves these on
        // purpose pastes the rows `benchsuite fusion [...]` prints.
        let expect: [(FlowKind, &[(&str, u32)]); 3] = [
            (FlowKind::Dpcpp, &[("acc.load.idx", 73)]),
            (FlowKind::AdaptiveCpp, &[("acc.load.idx", 66)]),
            (FlowKind::SyclMlir, &[("acc.load.idx", 73)]),
        ];
        for ((kind, got), (expect_kind, want)) in per_flow.iter().zip(expect) {
            assert_eq!(*kind, expect_kind);
            let want: PerWindow<u32> = want.iter().copied().collect();
            assert_eq!(*got, want, "[{}]", kind.name());
        }
    }

    /// Traffic, not baits: a superinstruction that occurs in some compiled
    /// kernel but never *executes* over the whole quick suite is a window
    /// nobody runs. Runs the suite on a profiled device and
    /// prints, per window, its executions and the share of dispatches it
    /// saves: `(length - 1) x executions / total dispatches`.
    #[test]
    fn every_window_in_a_compiled_kernel_executes() {
        let (per_flow, weights) = benchsuite_windows();
        let device = Device::with_engine(Engine::Plan).profile(true);
        for w in all_workloads() {
            for kind in FlowKind::all() {
                if kind == FlowKind::AdaptiveCpp && w.acpp_fails {
                    continue;
                }
                run_workload_on(&w, quick_size(&w), kind, &device)
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, kind.name()));
            }
        }
        // The opcode mix: executions per opcode mnemonic.
        let executions = device.report().ops;
        assert!(!executions.is_empty(), "profiled launches ran");
        let total: u64 = executions.values().sum();
        println!("{total} dispatches over the quick suite");
        println!(
            "{:<18}{:>8}{:>14}{:>10}",
            "window", "sites", "executions", "saved"
        );
        for (&window, &weight) in &weights {
            let sites: u32 = per_flow.iter().filter_map(|(_, c)| c.get(window)).sum();
            let n = executions.get(window).copied().unwrap_or(0);
            let saved = 100.0 * ((weight - 1) * n) as f64 / total as f64;
            println!("{window:<18}{sites:>8}{n:>14}{saved:>9.2}%");
            assert!(
                n > 0,
                "{window} occurs at {sites} sites of the compiled kernels but never executed"
            );
        }
    }

    /// Re-running a workload on the same device must serve the repeat
    /// launches of unmutated kernels from the cross-launch plan cache.
    #[test]
    fn repeat_runs_hit_the_plan_cache() {
        let device = Device::with_engine(Engine::Plan);
        let w = all_workloads()
            .into_iter()
            .find(|w| w.name == "GEMM")
            .expect("GEMM registered");
        let size = quick_size(&w);
        run_workload_on(&w, size, FlowKind::SyclMlir, &device).expect("first run");
        let misses_before = device.report().cache_misses;
        assert!(
            misses_before > 0,
            "first run must decode at least one kernel"
        );
        // A fresh build of the same workload produces a *new* module (new
        // module id), so this exercises miss-then-hit bookkeeping rather
        // than cross-module collisions.
        run_workload_on(&w, size, FlowKind::SyclMlir, &device).expect("second run");
        let misses_after = device.report().cache_misses;
        assert!(misses_after > misses_before, "a new module re-decodes");

        // Within one run, iterative workloads relaunch unmutated kernels:
        // the heat-transfer stencil launches its kernel 50 times and must
        // decode it exactly once per module.
        let device = Device::with_engine(Engine::Plan);
        let w = all_workloads()
            .into_iter()
            .find(|w| w.name == "1D HeatTransfer (buffer)")
            .expect("heat transfer registered");
        run_workload_on(&w, quick_size(&w), FlowKind::SyclMlir, &device).expect("runs");
        let report = device.report();
        let (hits, misses) = (report.cache_hits, report.cache_misses);
        assert!(
            hits >= 49,
            "iterative launches must reuse the decoded plan (hits={hits}, misses={misses})"
        );
    }

    /// The profile counts are work counters, not timings: a dense, a
    /// stencil, a reduction and a sparse workload, run on a profiled device
    /// sequentially and on 4 worker threads, must leave equal reports —
    /// opcode, pair and per-kernel lane/dispatch sums, cache traffic and
    /// verifier totals — once the verifier's wall time is set aside.
    #[test]
    fn profile_counts_do_not_depend_on_the_thread_count() {
        let names = ["GEMM", "Sobel7", "TreeReduce (float32)", "SpMV (CSR)"];
        let workloads: Vec<_> = all_workloads()
            .into_iter()
            .filter(|w| names.contains(&w.name))
            .collect();
        assert_eq!(workloads.len(), names.len(), "all four registered");
        let report_at = |threads: usize| {
            let device = Device::with_engine(Engine::Plan)
                .threads(threads)
                .profile(true);
            for w in &workloads {
                for kind in FlowKind::all() {
                    run_workload_on(w, quick_size(w), kind, &device)
                        .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, kind.name()));
                }
            }
            let mut report = device.report();
            report.verify.verify_ns = 0;
            report
        };
        let seq = report_at(1);
        assert!(!seq.kernels.is_empty(), "profiled launches ran");
        assert_eq!(
            seq,
            report_at(4),
            "profile counts moved with the thread count"
        );
    }

    /// The decoder must understand every kernel the benchsuite compiles —
    /// a kernel it refuses fails its launch under the plan engine.
    #[test]
    fn all_workload_kernels_are_plan_decodable() {
        for w in all_workloads() {
            // Every flow's pipeline output must decode.
            for kind in FlowKind::all() {
                let app = (w.build)(quick_size(&w));
                let program = sycl_mlir_repro::runtime::compile_program(kind, app.module)
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, kind.name()));
                let m = &program.module;
                let device_mod = m
                    .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
                    .expect("device module");
                let mut kernels = 0;
                for f in m.funcs_in(device_mod) {
                    if sycl_mlir_repro::sycl::device::is_kernel(m, f) {
                        kernels += 1;
                        if let Err(e) = decode_kernel(m, f) {
                            panic!("{} [{}]: kernel not decodable: {e}", w.name, kind.name());
                        }
                    }
                }
                assert!(
                    kernels > 0,
                    "{} [{}]: no kernels found",
                    w.name,
                    kind.name()
                );
            }
        }
    }
}

/// The decode-time plan verifier: what it proves over the suite, what it
/// does with a plan it cannot prove (runs it with every check in place and
/// reports the finding as data), and how an undecodable kernel fails. That
/// elision is bit-invisible is `audit_run_matches_the_normal_run_on_all_workloads`.
mod verify_differential {
    use sycl_mlir_bench::quick_size;
    use sycl_mlir_repro::benchsuite::{all_workloads, run_workload_on};
    use sycl_mlir_repro::core::FlowKind;
    use sycl_mlir_repro::dialects::{arith, scf};
    use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
    use sycl_mlir_repro::runtime::exec::run;
    use sycl_mlir_repro::runtime::hostgen::generate_host_ir;
    use sycl_mlir_repro::runtime::{compile_program, Queue, SyclRuntime};
    use sycl_mlir_repro::sim::{Device, Engine, SimError};
    use sycl_mlir_repro::sycl::device as sdev;
    use sycl_mlir_repro::sycl::types::AccessMode;

    /// What the verifier proves over the quick sweep — the in-figure
    /// workloads under all three flows, as `repro_all --quick` runs them
    /// and `verify_stats` reports them — exactly: every kernel verifies
    /// clean (no finding anywhere), the interval pass proves the majority
    /// of accessor sites in-bounds (otherwise the elision fast path is
    /// dead code). A read, write or class dropped from `Instr::operands`
    /// moves these.
    #[test]
    fn verifier_proves_majority_of_accessor_sites_on_benchsuite() {
        let dev = Device::with_engine(Engine::Plan);
        for w in all_workloads().into_iter().filter(|w| w.in_figure) {
            for kind in FlowKind::all() {
                run_workload_on(&w, quick_size(&w), kind, &dev)
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, kind.name()));
            }
        }
        let vc = dev.report().verify;
        assert_eq!(
            (vc.rejected, vc.lint_findings),
            (0, 0),
            "kernels verify clean"
        );
        assert_eq!(vc.plans, 174, "plans verified");
        assert_eq!(
            (vc.sites_proven, vc.sites_total),
            (642, 792),
            "sites proven"
        );
    }

    /// Build and run a kernel whose loop trip count is **loaded from
    /// memory** with a barrier inside the loop — decodable and, since
    /// every work-item loads the same count, perfectly runnable.
    fn run_data_dependent_barrier_loop(device: &Device) -> Result<Vec<i32>, SimError> {
        let ctx = full_context();
        let idx_ty = ctx.index_type();
        let mut kb = KernelModuleBuilder::new(&ctx);
        let sig = KernelSig::new("ddbar", 1, true)
            .accessor(ctx.i32_type(), 1, AccessMode::Read)
            .accessor(ctx.i32_type(), 1, AccessMode::ReadWrite);
        kb.add_kernel(&sig, |b, args, item| {
            let i = sdev::global_id(b, item, 0);
            let zero = arith::constant_index(b, 0);
            let one = arith::constant_index(b, 1);
            // Trip count read from the input buffer: data-dependent.
            let trip = sdev::load_via_id(b, args[0], &[zero]);
            let ub = arith::index_cast(b, trip, idx_ty.clone());
            scf::build_for(b, zero, ub, one, &[], |inner, _k, _| {
                let g = sdev::get_group(inner, item);
                sdev::group_barrier(inner, g);
                vec![]
            });
            let v = sdev::load_via_id(b, args[0], &[i]);
            sdev::store_via_id(b, v, args[1], &[i]);
        });

        let mut rt = SyclRuntime::new();
        let a = rt.buffer_i32(vec![3; 8], &[8]);
        let out = rt.buffer_i32(vec![0; 8], &[8]);
        let mut q = Queue::new();
        q.submit(|h| {
            h.accessor(a, AccessMode::Read)
                .accessor(out, AccessMode::ReadWrite);
            h.parallel_for_nd("ddbar", &[8], &[4]);
        });
        generate_host_ir(kb.module(), &rt, &q);
        let module = kb.finish();
        let mut program = compile_program(FlowKind::Dpcpp, module).expect("compiles");
        run(&mut program, &mut rt, &q, device)?;
        Ok(rt.read_i32(out).to_vec())
    }

    /// The barrier in a data-dependent loop is no verifier finding — the
    /// round loop checks every barrier round at run time — so the plan
    /// verifies clean, and the kernel gives the same output on the tree
    /// walk and on the plan engine with one worker and four. Nothing is
    /// written to stderr: the stderr half runs this test again in a child
    /// process (`DDBAR_CHILD` set) and reads what it wrote there.
    #[test]
    fn data_dependent_barrier_loop_verifies_clean_on_every_engine() {
        const CHILD: &str = "DDBAR_CHILD";
        if std::env::var_os(CHILD).is_none() {
            let name =
                "verify_differential::data_dependent_barrier_loop_verifies_clean_on_every_engine";
            let child = std::process::Command::new(std::env::current_exe().unwrap())
                .args([name, "--exact", "--nocapture", "--test-threads=1"])
                .env(CHILD, "1")
                .output()
                .expect("re-run this test in a child process");
            let stdout = String::from_utf8_lossy(&child.stdout);
            assert!(child.status.success(), "child failed:\n{stdout}");
            assert!(
                stdout.contains("1 passed"),
                "the child ran no test:\n{stdout}"
            );
            assert_eq!(
                String::from_utf8_lossy(&child.stderr),
                "",
                "stderr must stay empty"
            );
        }
        let tree = Device::with_engine(Engine::TreeWalk);
        let out = run_data_dependent_barrier_loop(&tree).expect("the kernel runs");
        assert_eq!(out, vec![3; 8], "tree walk output wrong");
        for threads in [1, 4] {
            let device = Device::with_engine(Engine::Plan).threads(threads);
            let plan_out = run_data_dependent_barrier_loop(&device).expect("the kernel runs");
            assert_eq!(plan_out, out, "plan engine on {threads} worker(s)");
            let vc = device.report().verify;
            assert_eq!(
                (vc.plans, vc.rejected, vc.lint_findings),
                (1, 0, 0),
                "the kernel verifies clean"
            );
        }
    }

    /// Build and run a kernel containing an op no engine understands: the
    /// plan decoder refuses it, and the launch fails with the decode
    /// failure itself.
    fn run_undecodable_kernel(device: &Device) -> Result<Vec<i32>, SimError> {
        let ctx = full_context();
        let mut kb = KernelModuleBuilder::new(&ctx);
        let sig =
            KernelSig::new("opaque", 1, true).accessor(ctx.i32_type(), 1, AccessMode::ReadWrite);
        kb.add_kernel(&sig, |b, args, item| {
            let i = sdev::global_id(b, item, 0);
            // `llvm.alloca` is registered (host-side lowering uses it) but
            // deliberately foreign to both device engines.
            sycl_mlir_repro::dialects::llvm::alloca(b, "opaque");
            let v = sdev::load_via_id(b, args[0], &[i]);
            sdev::store_via_id(b, v, args[0], &[i]);
        });

        let mut rt = SyclRuntime::new();
        let a = rt.buffer_i32(vec![7; 8], &[8]);
        let mut q = Queue::new();
        q.submit(|h| {
            h.accessor(a, AccessMode::ReadWrite);
            h.parallel_for_nd("opaque", &[8], &[4]);
        });
        generate_host_ir(kb.module(), &rt, &q);
        let module = kb.finish();
        let mut program = compile_program(FlowKind::Dpcpp, module).expect("compiles");
        run(&mut program, &mut rt, &q, device)?;
        Ok(rt.read_i32(a).to_vec())
    }

    /// The `DecodeError` path: an undecodable kernel is a structured
    /// `plan decode error` carrying the submission position — not a
    /// panic, not a tree-walk fallback — deterministically, and the device
    /// survives.
    #[test]
    fn decode_failures_surface_with_position() {
        let device = Device::with_engine(Engine::Plan);
        let e1 = run_undecodable_kernel(&device).expect_err("the launch must fail");
        let msg = e1.message();
        assert!(
            msg.contains("plan decode error"),
            "expected a structured decode error, got: {msg}"
        );
        assert!(
            msg.contains("op `llvm.alloca` is not plan-decodable"),
            "expected the offending op to be named, got: {msg}"
        );
        assert!(
            msg.contains("(launch 0, work-group 0)"),
            "decode failure must carry the launch position, got: {msg}"
        );
        let e2 = run_undecodable_kernel(&device).expect_err("still fails");
        assert_eq!(e1, e2, "the decode error must be deterministic");

        // Device stays usable.
        let w = all_workloads()
            .into_iter()
            .find(|w| w.name == "GEMM")
            .expect("GEMM registered");
        let (res, _) = run_workload_on(&w, quick_size(&w), FlowKind::SyclMlir, &device)
            .expect("device must stay usable after a decode failure");
        assert!(res.valid(), "post-failure run must still validate");

        // The serial reference has no decoder; it reaches the op and
        // refuses it at run time.
        let tree = run_undecodable_kernel(&Device::with_engine(Engine::TreeWalk))
            .expect_err("the tree walk rejects the op");
        assert!(
            tree.message()
                .contains("op `llvm.alloca` is not executable on the device"),
            "expected the tree-walk op error, got: {}",
            tree.message()
        );
    }
}

/// Device-memory faults are values with one rendering: whatever engine or
/// worker count hits them, the `SimError` and its `(launch, work-group)`
/// stamp are the same.
mod fault_differential {
    use sycl_mlir_repro::core::FlowKind;
    use sycl_mlir_repro::dialects::{arith, scf};
    use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
    use sycl_mlir_repro::runtime::exec::run;
    use sycl_mlir_repro::runtime::hostgen::generate_host_ir;
    use sycl_mlir_repro::runtime::{compile_program, Queue, SyclRuntime};
    use sycl_mlir_repro::sim::{Device, Engine, SimError};
    use sycl_mlir_repro::sycl::device as sdev;
    use sycl_mlir_repro::sycl::types::AccessMode;

    /// Two launches of `fill`, which stores `1.5f32` to `acc[gid]` from
    /// work-group 2 on: first over an `f32` buffer (clean), then over an
    /// `i32` buffer the kernel's accessor type does not match.
    fn run_f32_stores_into_i32_buffer(device: &Device) -> Result<(), SimError> {
        let ctx = full_context();
        let mut kb = KernelModuleBuilder::new(&ctx);
        let sig = KernelSig::new("fill", 1, true).accessor(ctx.f32_type(), 1, AccessMode::Write);
        kb.add_kernel(&sig, |b, args, item| {
            let gid = sdev::global_id(b, item, 0);
            let group = sdev::group_id(b, item, 0);
            let two = arith::constant_index(b, 2);
            let late = arith::cmpi(b, "sge", group, two);
            let acc = args[0];
            scf::build_if(
                b,
                late,
                &[],
                |inner| {
                    let f32t = inner.ctx().f32_type();
                    let v = arith::constant_float(inner, 1.5, f32t);
                    sdev::store_via_id(inner, v, acc, &[gid]);
                    vec![]
                },
                |_| vec![],
            );
        });

        let mut rt = SyclRuntime::new();
        let floats = rt.buffer_f32(vec![0.0; 32], &[32]);
        let ints = rt.buffer_i32(vec![0; 32], &[32]);
        let mut q = Queue::new();
        for buf in [floats, ints] {
            q.submit(|h| {
                h.accessor(buf, AccessMode::Write);
                h.parallel_for_nd("fill", &[32], &[8]);
            });
        }
        generate_host_ir(kb.module(), &rt, &q);
        let module = kb.finish();
        let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");
        run(&mut program, &mut rt, &q, device).map(drop)
    }

    #[test]
    fn type_mismatched_store_is_engine_and_thread_independent() {
        let tree = run_f32_stores_into_i32_buffer(&Device::with_engine(Engine::TreeWalk))
            .expect_err("an f32 store into an i32 buffer fails");
        // One line, no heap address, no buffer contents: the value kind,
        // the buffer and its element type.
        assert_eq!(
            tree.message(),
            "type-mismatched store of f32 into buffer 1 (i32) (launch 1, work-group 2)"
        );
        for threads in [1, 4] {
            let plan =
                run_f32_stores_into_i32_buffer(&Device::with_engine(Engine::Plan).threads(threads))
                    .expect_err("an f32 store into an i32 buffer fails");
            assert_eq!(plan, tree, "threads={threads}");
        }
    }
}

/// Aggregates that *move*. The benchsuite's kernels build an id or a view
/// and consume it on the spot; here ids, memref views and accessors are
/// carried around loops, selected, passed to and returned from callees —
/// the whole-register moves in which the plan engine, whose registers
/// keep an aggregate's payload out of line, has to give the destination a
/// copy of its own. Hand-built IR launched directly (no pass pipeline to
/// fold the shapes away), held bit-identical — outputs, statistics,
/// cycles, fault text and position — to the tree-walk reference.
mod aggregate_moves {
    use sycl_mlir_repro::dialects::func::{build_call, build_func, build_return};
    use sycl_mlir_repro::dialects::{arith, memref, scf};
    use sycl_mlir_repro::frontend::full_context;
    use sycl_mlir_repro::ir::{Builder, Module, OpId, Type, ValueId};
    use sycl_mlir_repro::sim::{
        decode_kernel, AccessorVal, BatchLaunch, DataVec, Device, Engine, ExecStats, LaunchDag,
        MemoryPool, NdRangeSpec, RtValue, SimError,
    };
    use sycl_mlir_repro::sycl::device as sdev;
    use sycl_mlir_repro::sycl::types::{accessor_type, id_type, nd_item_type, AccessMode, Target};

    /// Elements per buffer; 16 work-items in groups of 4 each own
    /// elements `gid` and `gid + 16` of both buffers.
    const N: i64 = 32;

    fn f32_accessor(m: &Module) -> Type {
        let c = m.ctx();
        accessor_type(c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global)
    }

    fn f32_view(m: &Module) -> Type {
        m.ctx().memref_type(m.ctx().f32_type(), &[-1])
    }

    fn id_get(b: &mut Builder<'_>, id: ValueId) -> ValueId {
        let i32t = b.ctx().i32_type();
        let zero = arith::constant_int(b, 0, i32t);
        let index = b.ctx().index_type();
        b.build_value("sycl.id.get", &[id, zero], index, vec![])
    }

    fn index_to_f32(b: &mut Builder<'_>, v: ValueId) -> ValueId {
        let (i64t, f32t) = (b.ctx().i64_type(), b.ctx().f32_type());
        let wide = arith::index_cast(b, v, i64t);
        arith::sitofp(b, wide, f32t)
    }

    /// A helper function `name(inputs) -> results` next to the kernel.
    fn helper(
        m: &mut Module,
        name: &str,
        inputs: &[Type],
        results: &[Type],
        body: impl FnOnce(&mut Builder<'_>, &[ValueId]) -> Vec<ValueId>,
    ) {
        let top = m.top();
        let (_, entry) = build_func(m, top, name, inputs, results);
        let args = m.block_args(entry).to_vec();
        let mut b = Builder::at_end(m, entry);
        let rets = body(&mut b, &args);
        build_return(&mut b, &rets);
    }

    /// The kernel `k(a: accessor, b: accessor, nd_item<1>)`.
    fn kernel(
        m: &mut Module,
        body: impl FnOnce(&mut Builder<'_>, ValueId, ValueId, ValueId),
    ) -> OpId {
        named_kernel(m, "k", body)
    }

    /// The kernel `name(a: accessor, b: accessor, nd_item<1>)`.
    fn named_kernel(
        m: &mut Module,
        name: &str,
        body: impl FnOnce(&mut Builder<'_>, ValueId, ValueId, ValueId),
    ) -> OpId {
        let acc = f32_accessor(m);
        let item = nd_item_type(m.ctx(), 1);
        let top = m.top();
        let (func, entry) = build_func(m, top, name, &[acc.clone(), acc, item], &[]);
        sdev::mark_kernel(m, func);
        let args = m.block_args(entry).to_vec();
        let mut b = Builder::at_end(m, entry);
        body(&mut b, args[0], args[1], args[2]);
        build_return(&mut b, &[]);
        func
    }

    type Outcome = Result<(ExecStats, Vec<f32>, Vec<f32>), SimError>;

    /// Launch `k` over `a = [0, 1, ..]`, `b = [100, 101, ..]`.
    fn launch(m: &Module, k: OpId, device: &Device) -> Outcome {
        let mut pool = MemoryPool::new();
        let mut args = Vec::new();
        for base in [0.0_f32, 100.0] {
            let mem = pool.alloc(DataVec::F32((0..N).map(|i| base + i as f32).collect()));
            args.push(RtValue::Accessor(AccessorVal {
                mem,
                range: [N, 1, 1],
                offset: [0, 0, 0],
                rank: 1,
                constant: false,
            }));
        }
        let stats = device.launch(m, k, &args, NdRangeSpec::d1(16, 4), &mut pool)?;
        let image = |arg: &RtValue| {
            let RtValue::Accessor(a) = arg else {
                unreachable!()
            };
            let DataVec::F32(v) = pool.read(a.mem) else {
                unreachable!()
            };
            v.clone()
        };
        Ok((stats, image(&args[0]), image(&args[1])))
    }

    /// The tree walk's outcome, after holding the plan engine to it —
    /// one worker and four.
    fn launch_on_both_engines(m: &Module, k: OpId) -> Outcome {
        decode_kernel(m, k).expect("the plan engine runs this kernel itself");
        let tree = launch(m, k, &Device::with_engine(Engine::TreeWalk));
        for threads in [1, 4] {
            let plan = launch(m, k, &Device::with_engine(Engine::Plan).threads(threads));
            assert_eq!(plan, tree, "threads={threads}");
        }
        tree
    }

    /// An `scf.for` carries two ids and two views. Every iteration moves
    /// one carried id into the other's place, replaces it by an id built
    /// in the body, and swaps the views: each parallel copy overwrites a
    /// register another copy of the same round still reads.
    #[test]
    fn loop_carried_ids_and_views_survive_overwritten_sources() {
        let ctx = full_context();
        let mut m = Module::new(&ctx);
        let k = kernel(&mut m, |b, acc_a, acc_b, item| {
            let gid = sdev::global_id(b, item, 0);
            let sixteen = arith::constant_index(b, 16);
            let hi = arith::addi(b, gid, sixteen);
            let id_lo = sdev::make_id(b, &[gid]);
            let id_hi = sdev::make_id(b, &[hi]);
            let view_a = sdev::subscript(b, acc_a, id_lo);
            let view_b = sdev::subscript(b, acc_b, id_hi);
            let zero = arith::constant_index(b, 0);
            let one = arith::constant_index(b, 1);
            let three = arith::constant_index(b, 3);
            let inits = [id_lo, id_hi, view_a, view_b];
            let l = scf::build_for(b, zero, three, one, &inits, |inner, _, carried| {
                let q = id_get(inner, carried[1]);
                let one = arith::constant_index(inner, 1);
                let n = arith::constant_index(inner, N);
                let next = arith::addi(inner, q, one);
                let wrapped = arith::remsi(inner, next, n);
                let fresh = sdev::make_id(inner, &[wrapped]);
                vec![carried[1], fresh, carried[3], carried[2]]
            });
            let res = b.module().op_results(l).to_vec();
            let (p, q) = (id_get(b, res[0]), id_get(b, res[1]));
            let from_s = memref::load(b, res[2], &[zero]);
            let from_t = memref::load(b, res[3], &[zero]);
            let (pf, qf) = (index_to_f32(b, p), index_to_f32(b, q));
            let to_s = arith::addf(b, from_t, pf);
            let to_t = arith::addf(b, from_s, qf);
            memref::store(b, to_s, res[2], &[zero]);
            memref::store(b, to_t, res[3], &[zero]);
        });
        let (_, a, b) = launch_on_both_engines(&m, k).expect("runs");
        // Three rounds: (p, q) = ((g+18) % 32, (g+19) % 32), the views
        // swapped an odd number of times — s is b[g+16], t is a[g].
        for g in 0..16_usize {
            let (p, q) = (((g + 18) % 32) as f32, ((g + 19) % 32) as f32);
            assert_eq!(b[g + 16], g as f32 + p, "b[{}]", g + 16);
            assert_eq!(a[g], 100.0 + (g + 16) as f32 + q, "a[{g}]");
            assert_eq!((a[g + 16], b[g]), ((g + 16) as f32, 100.0 + g as f32));
        }
    }

    /// `arith.select` between two views, and between two ids.
    #[test]
    fn select_between_views_and_between_ids() {
        let ctx = full_context();
        let mut m = Module::new(&ctx);
        let k = kernel(&mut m, |b, acc_a, acc_b, item| {
            let gid = sdev::global_id(b, item, 0);
            let zero = arith::constant_index(b, 0);
            let two = arith::constant_index(b, 2);
            let sixteen = arith::constant_index(b, 16);
            let rem = arith::remsi(b, gid, two);
            let even = arith::cmpi(b, "eq", rem, zero);
            let hi = arith::addi(b, gid, sixteen);
            let id_lo = sdev::make_id(b, &[gid]);
            let id_hi = sdev::make_id(b, &[hi]);
            let view_a = sdev::subscript(b, acc_a, id_lo);
            let view_b = sdev::subscript(b, acc_b, id_lo);
            let view = arith::select(b, even, view_a, view_b);
            let id = arith::select(b, even, id_hi, id_lo);
            let f32t = b.ctx().f32_type();
            let seven = arith::constant_float(b, 7.0, f32t.clone());
            memref::store(b, seven, view, &[zero]);
            let through_id = sdev::subscript(b, acc_b, id);
            let nine = arith::constant_float(b, 9.0, f32t);
            memref::store(b, nine, through_id, &[zero]);
        });
        let (_, a, b) = launch_on_both_engines(&m, k).expect("runs");
        for g in 0..16_usize {
            if g % 2 == 0 {
                assert_eq!((a[g], b[g], b[g + 16]), (7.0, 100.0 + g as f32, 9.0));
            } else {
                assert_eq!((a[g], b[g], b[g + 16]), (g as f32, 9.0, 116.0 + g as f32));
            }
        }
    }

    /// A callee receives an accessor and subscripts it, and returns the
    /// view and the id it built in its own frame. The second call reuses
    /// that frame's registers; the first call's results must not notice.
    #[test]
    fn callee_built_view_and_id_outlive_its_frame() {
        let ctx = full_context();
        let mut m = Module::new(&ctx);
        let (acc, index) = (f32_accessor(&m), ctx.index_type());
        let results = [f32_view(&m), id_type(&ctx, 1)];
        helper(&mut m, "view_at", &[acc, index], &results, |b, args| {
            let id = sdev::make_id(b, &[args[1]]);
            let view = sdev::subscript(b, args[0], id);
            vec![view, id]
        });
        let k = kernel(&mut m, |b, acc_a, acc_b, item| {
            let gid = sdev::global_id(b, item, 0);
            let sixteen = arith::constant_index(b, 16);
            let hi = arith::addi(b, gid, sixteen);
            let first = build_call(b, "view_at", &[acc_a, hi], &results);
            let second = build_call(b, "view_at", &[acc_b, gid], &results);
            let (dst, dst_id) = (
                b.module().op_result(first, 0),
                b.module().op_result(first, 1),
            );
            let src = b.module().op_result(second, 0);
            let zero = arith::constant_index(b, 0);
            let loaded = memref::load(b, src, &[zero]);
            let at = id_get(b, dst_id);
            let at = index_to_f32(b, at);
            let sum = arith::addf(b, loaded, at);
            memref::store(b, sum, dst, &[zero]);
        });
        let (_, a, b) = launch_on_both_engines(&m, k).expect("runs");
        for g in 0..16_usize {
            assert_eq!(a[g + 16], 100.0 + g as f32 + (g + 16) as f32);
            assert_eq!((a[g], b[g]), (g as f32, 100.0 + g as f32));
        }
    }

    /// Six return values, an id and a view among the scalars.
    #[test]
    fn more_than_four_return_values_with_aggregates() {
        let ctx = full_context();
        let mut m = Module::new(&ctx);
        let (acc, index, f32t) = (f32_accessor(&m), ctx.index_type(), ctx.f32_type());
        let results = [
            index.clone(),
            f32t.clone(),
            id_type(&ctx, 1),
            f32_view(&m),
            index.clone(),
            f32t.clone(),
        ];
        helper(&mut m, "six", &[acc, index], &results, |b, args| {
            let one = arith::constant_index(b, 1);
            let two = arith::constant_index(b, 2);
            let succ = arith::addi(b, args[1], one);
            let twice = arith::muli(b, args[1], two);
            let f32t = b.ctx().f32_type();
            let x = arith::constant_float(b, 2.5, f32t.clone());
            let y = arith::constant_float(b, 4.0, f32t);
            let id = sdev::make_id(b, &[args[1]]);
            let view = sdev::subscript(b, args[0], id);
            vec![succ, x, id, view, twice, y]
        });
        let k = kernel(&mut m, |b, acc_a, _, item| {
            let gid = sdev::global_id(b, item, 0);
            let call = build_call(b, "six", &[acc_a, gid], &results);
            let r = b.module().op_results(call).to_vec();
            let at = id_get(b, r[2]);
            let ints = arith::addi(b, r[0], r[4]);
            let ints = arith::addi(b, ints, at);
            let ints = index_to_f32(b, ints);
            let floats = arith::addf(b, r[1], r[5]);
            let sum = arith::addf(b, ints, floats);
            let zero = arith::constant_index(b, 0);
            memref::store(b, sum, r[3], &[zero]);
        });
        let (_, a, _) = launch_on_both_engines(&m, k).expect("runs");
        for (g, out) in a.iter().take(16).enumerate() {
            assert_eq!(*out, (g + 1 + 2 * g + g) as f32 + 6.5);
        }
    }

    /// One callee loads `a[gid]`; the even lanes call it from one call
    /// site and the odd lanes from another. Both inlined copies of the
    /// load are the one IR op the tree walk numbers its instances by, so
    /// the two halves of a sub-group coalesce into one segment: one
    /// transaction per group for the load and one for the store. A site
    /// per copy would count two for the load.
    #[test]
    fn inlined_copies_of_a_load_share_its_site() {
        let ctx = full_context();
        let mut m = Module::new(&ctx);
        let (acc, index) = (f32_accessor(&m), ctx.index_type());
        let results = [ctx.f32_type()];
        helper(&mut m, "load_at", &[acc, index], &results, |b, args| {
            vec![sdev::load_via_id(b, args[0], &[args[1]])]
        });
        let k = kernel(&mut m, |b, acc_a, acc_b, item| {
            let gid = sdev::global_id(b, item, 0);
            let lid = sdev::local_id(b, item, 0);
            let (zero, two) = (arith::constant_index(b, 0), arith::constant_index(b, 2));
            let parity = arith::remsi(b, lid, two);
            let even = arith::cmpi(b, "eq", parity, zero);
            let call = |b: &mut Builder<'_>| {
                let call = build_call(b, "load_at", &[acc_a, gid], &results);
                vec![b.module().op_result(call, 0)]
            };
            let split = scf::build_if(b, even, &results, call, call);
            let loaded = b.module().op_result(split, 0);
            sdev::store_via_id(b, loaded, acc_b, &[gid]);
        });
        let (stats, a, b) = launch_on_both_engines(&m, k).expect("runs");
        assert_eq!(
            stats.global_transactions,
            4 + 4,
            "a load and a store per group"
        );
        assert_eq!(b[..16], a[..16]);
    }

    /// SYCL device code may not recurse. A kernel whose calls reach a
    /// self-recursive function, or a two-function cycle, is refused by
    /// both engines before any of its groups runs, at work-group 0 of its
    /// launch with one text; the launch before it completes.
    #[test]
    fn recursive_kernels_are_refused_before_they_run() {
        let cases: [(&str, &[(&str, &str)]); 2] =
            [("f", &[("f", "f")]), ("g", &[("g", "h"), ("h", "g")])];
        for (named, calls) in cases {
            let ctx = full_context();
            let mut m = Module::new(&ctx);
            let (acc, index) = (f32_accessor(&m), ctx.index_type());
            for &(caller, callee) in calls {
                helper(
                    &mut m,
                    caller,
                    &[acc.clone(), index.clone()],
                    &[],
                    |b, args| {
                        build_call(b, callee, args, &[]);
                        vec![]
                    },
                );
            }
            // Launch 0 sets `a[gid]`; the recursive launch 1 would set
            // `b[gid]` before its call.
            let set = |b: &mut Builder<'_>, acc: ValueId, gid: ValueId| {
                let seven = arith::constant_float(b, 7.0, b.ctx().f32_type());
                sdev::store_via_id(b, seven, acc, &[gid]);
            };
            let setter = named_kernel(&mut m, "set", |b, acc_a, _, item| {
                let gid = sdev::global_id(b, item, 0);
                set(b, acc_a, gid);
            });
            let recursive = kernel(&mut m, |b, _, acc_b, item| {
                let gid = sdev::global_id(b, item, 0);
                set(b, acc_b, gid);
                build_call(b, calls[0].0, &[acc_b, gid], &[]);
            });
            let want = format!(
                "recursive call of `{named}`: SYCL device code may not recurse (launch 1, work-group 0)"
            );
            let devices = [
                Device::with_engine(Engine::TreeWalk),
                Device::with_engine(Engine::Plan).threads(1),
                Device::with_engine(Engine::Plan).threads(4),
            ];
            for device in devices {
                let mut pool = MemoryPool::new();
                let (ma, mb) = (
                    pool.alloc(DataVec::F32(vec![0.0; N as usize])),
                    pool.alloc(DataVec::F32(vec![0.0; N as usize])),
                );
                let accessor = |mem| {
                    RtValue::Accessor(AccessorVal {
                        mem,
                        range: [N, 1, 1],
                        offset: [0, 0, 0],
                        rank: 1,
                        constant: false,
                    })
                };
                let args = vec![accessor(ma), accessor(mb)];
                let nd = NdRangeSpec::d1(16, 4);
                let batch = [
                    BatchLaunch::kernel(setter, args.clone(), nd),
                    BatchLaunch::kernel(recursive, args, nd),
                ];
                let error = device
                    .launch_graph(&m, &batch, &LaunchDag::independent(2), &mut pool)
                    .expect_err("the recursive launch is refused");
                let engine = (device.engine, device.threads);
                assert_eq!(error.message(), want, "{engine:?}");
                let set_a: Vec<f32> = (0..N).map(|i| if i < 16 { 7.0 } else { 0.0 }).collect();
                assert_eq!(pool.read(ma), DataVec::F32(set_a), "{engine:?}");
                assert_eq!(
                    pool.read(mb),
                    DataVec::F32(vec![0.0; N as usize]),
                    "{engine:?}"
                );
            }
        }
    }

    /// A call whose result count differs from what its callee returns is
    /// refused by the decoder.
    #[test]
    fn call_result_count_mismatch_is_a_decode_error() {
        let ctx = full_context();
        let mut m = Module::new(&ctx);
        let (acc, index) = (f32_accessor(&m), ctx.index_type());
        helper(&mut m, "none", &[acc, index.clone()], &[], |_, _| vec![]);
        let k = kernel(&mut m, |b, acc_a, _, item| {
            let gid = sdev::global_id(b, item, 0);
            build_call(b, "none", &[acc_a, gid], &[index]);
        });
        let error = decode_kernel(&m, k).expect_err("the call is refused");
        assert_eq!(
            error.to_string(),
            "plan decode error: call expects 1 results but the callee returns 0"
        );
    }

    /// Storing an aggregate is the type-mismatch fault, named by the
    /// value's kind, at the first work-group.
    #[test]
    fn type_mismatched_store_of_an_aggregate() {
        // Picks the stored value out of `[id, view, accessor, item]`.
        type Pick = fn(&mut Builder<'_>, [ValueId; 4]) -> ValueId;
        let cases: [(&str, Pick); 4] = [
            ("vec", |_, v| v[0]),
            ("memref", |_, v| v[1]),
            ("accessor", |_, v| v[2]),
            ("item", |b, v| sdev::get_group(b, v[3])),
        ];
        for (kind, pick) in cases {
            let ctx = full_context();
            let mut m = Module::new(&ctx);
            let k = kernel(&mut m, |b, acc_a, _, item| {
                let gid = sdev::global_id(b, item, 0);
                let id = sdev::make_id(b, &[gid]);
                let view = sdev::subscript(b, acc_a, id);
                let value = pick(b, [id, view, acc_a, item]);
                let zero = arith::constant_index(b, 0);
                memref::store(b, value, view, &[zero]);
            });
            let fault = launch_on_both_engines(&m, k).expect_err("the store faults");
            assert_eq!(
                fault.message(),
                format!(
                    "type-mismatched store of {kind} into buffer 0 (f32) (launch 0, work-group 0)"
                )
            );
        }
    }
}
