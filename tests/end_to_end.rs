//! End-to-end equivalence: every workload must validate under every flow —
//! the optimizations may only change performance, never results. (The
//! paper's own validation methodology, §VIII.)

use sycl_mlir_bench::quick_size;
use sycl_mlir_repro::benchsuite::{all_workloads, run_workload, Category};
use sycl_mlir_repro::core::FlowKind;

fn check_category(category: Category) {
    for w in all_workloads() {
        if w.category != category {
            continue;
        }
        // Small sizes keep the suite fast; kernels are size-generic.
        let size = match category {
            Category::Polybench => 32,
            Category::SingleKernel => {
                if w.name.starts_with("Sobel") {
                    32
                } else if w.name.starts_with("NBody") {
                    64
                } else {
                    256
                }
            }
            Category::Stencil => w.scaled_size.min(64),
            // Group-aligned (WG = 16) so the dyn nd-range variants take
            // their zero-extent tail launch here too.
            Category::Reduction | Category::Sparse => 64,
        };
        for kind in FlowKind::all() {
            let r = run_workload(&w, size, kind)
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, kind.name()));
            if kind == FlowKind::AdaptiveCpp && w.acpp_fails {
                assert!(
                    !r.valid(),
                    "{} should mirror the paper's ACpp failure",
                    w.name
                );
                continue;
            }
            if let Err(e) = &r.validation {
                panic!("{} [{}] failed validation: {e}", w.name, kind.name());
            }
            assert!(r.cycles.is_finite() && r.cycles > 0.0);
        }
    }
}

#[test]
fn polybench_validates_under_all_flows() {
    check_category(Category::Polybench);
}

#[test]
fn single_kernel_validates_under_all_flows() {
    check_category(Category::SingleKernel);
}

#[test]
fn stencils_validate_under_all_flows() {
    check_category(Category::Stencil);
}

#[test]
fn reductions_validate_under_all_flows() {
    check_category(Category::Reduction);
}

#[test]
fn sparse_validates_under_all_flows() {
    check_category(Category::Sparse);
}

/// Validation is never vacuous: every registered program's validator
/// rejects the application as built, before any kernel ran. A reference
/// that compared a buffer with itself, or was computed from the buffer it
/// checks, would pass here.
#[test]
fn every_validator_rejects_the_unrun_application() {
    let mut programs = 0;
    for w in all_workloads() {
        let app = (w.build)(quick_size(&w));
        assert!(
            (app.validate)(&app.runtime).is_err(),
            "{}: validates before any kernel ran",
            w.name
        );
        programs += 1;
    }
    assert_eq!(programs, 48, "registered programs");
}

/// The headline direction of Fig. 3: SYCL-MLIR beats DPC++ decisively on
/// the internalization + reduction workloads and never loses elsewhere by
/// more than noise.
#[test]
fn fig3_shape_holds_at_small_scale() {
    let names_win = ["GEMM", "SYR2K", "SYRK", "Covariance"];
    for name in names_win {
        let w = all_workloads()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let base = run_workload(&w, w.scaled_size.min(48), FlowKind::Dpcpp).unwrap();
        let sm = run_workload(&w, w.scaled_size.min(48), FlowKind::SyclMlir).unwrap();
        assert!(base.valid() && sm.valid());
        let speedup = base.cycles / sm.cycles;
        assert!(
            speedup > 1.2,
            "{name}: expected a clear win, got {speedup:.2}x"
        );
    }
    // SYR2K (4 refs) must beat GEMM (2 refs) — the paper's peak.
    let gemm = all_workloads()
        .into_iter()
        .find(|w| w.name == "GEMM")
        .unwrap();
    let syr2k = all_workloads()
        .into_iter()
        .find(|w| w.name == "SYR2K")
        .unwrap();
    let g = run_workload(&gemm, 48, FlowKind::Dpcpp).unwrap().cycles
        / run_workload(&gemm, 48, FlowKind::SyclMlir).unwrap().cycles;
    let s = run_workload(&syr2k, 48, FlowKind::Dpcpp).unwrap().cycles
        / run_workload(&syr2k, 48, FlowKind::SyclMlir).unwrap().cycles;
    assert!(s > g, "SYR2K ({s:.2}x) should out-speed GEMM ({g:.2}x)");
}

/// Dead-argument elimination translates into cheaper launches under
/// SYCL-MLIR when constants make arguments dead (§VII-B).
#[test]
fn sobel7_constant_filter_pays_off() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "Sobel7")
        .unwrap();
    let base = run_workload(&w, 32, FlowKind::Dpcpp).unwrap();
    let sm = run_workload(&w, 32, FlowKind::SyclMlir).unwrap();
    assert!(base.valid() && sm.valid());
    assert!(
        sm.stats.constant_accesses > 0,
        "filter loads must hit the constant cache under SYCL-MLIR"
    );
    assert!(sm.cycles < base.cycles, "Sobel7 should benefit (§VIII)");
}
