//! Runs the complete evaluation of §VIII: Fig. 2, Fig. 3, the stencil
//! table, the reduction/scan and sparse indirect-index extension
//! families, and the overall geo-means the paper quotes ("Overall, on
//! SYCL-Bench, SYCL-MLIR achieves a geo.-mean speedup of 1.18x over DPC++
//! and also performs better than AdaptiveCpp (geo.-mean 1.13x)") — the
//! geo-means cover SYCL-Bench (Fig. 2 + Fig. 3) only.
//!
//! `--json` switches the output to a machine-readable summary (one JSON
//! object on stdout: per-workload cycles/validity/wall-milliseconds plus
//! the sweep configuration and total wall time). Less its wall-time
//! fields, it is what `scripts/ci.sh`'s fidelity gate holds to the
//! checked-in `scripts/bench-baseline.json`.

use sycl_mlir_bench::{print_table, quick_flag, run_category_on, run_row};
use sycl_mlir_benchsuite::{geo_mean, Category};

/// Stable lowercase tag for a category in the `--json` summary.
fn category_tag(c: Category) -> &'static str {
    match c {
        Category::SingleKernel => "single-kernel",
        Category::Polybench => "polybench",
        Category::Stencil => "stencil",
        Category::Reduction => "reduction",
        Category::Sparse => "sparse",
    }
}

/// A JSON number that round-trips `NaN` (not representable in JSON) as
/// `null`, matching the "missing bar" meaning it has in the tables.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    sycl_mlir_bench::handle_help_flag(
        "repro_all",
        "the complete evaluation of §VIII: Fig. 2, Fig. 3, stencils, the reduction/scan and sparse extension families, and overall geo-means",
    );
    let t0 = std::time::Instant::now();
    let quick = quick_flag();
    let json = std::env::args().any(|a| a == "--json");
    // One device for the whole sweep: the `--profile` accumulators live
    // on the device that ran the workloads.
    let device = sycl_mlir_bench::device_from_args();

    if json {
        // Machine-readable sweep: same workloads and device as the table
        // mode, but each row is timed individually and printed as one
        // JSON object (hand-rolled — the output is flat enough that a
        // serializer dependency would be overkill).
        let mut entries = Vec::new();
        for category in [
            Category::SingleKernel,
            Category::Polybench,
            Category::Stencil,
            Category::Reduction,
            Category::Sparse,
        ] {
            for w in sycl_mlir_benchsuite::all_workloads() {
                if w.category != category || !w.in_figure {
                    continue;
                }
                let row_t0 = std::time::Instant::now();
                let row = run_row(&w, quick, &device);
                let wall_ms = row_t0.elapsed().as_secs_f64() * 1e3;
                entries.push((category, row, wall_ms));
            }
        }
        let mut sm = Vec::new();
        let mut acpp = Vec::new();
        for (category, r, _) in &entries {
            if !matches!(category, Category::SingleKernel | Category::Polybench) {
                continue; // geo-means cover SYCL-Bench (Fig. 2 + Fig. 3)
            }
            let s = r.speedup(2);
            let a = r.speedup(1);
            if s.is_finite() {
                sm.push(s);
            }
            if a.is_finite() {
                acpp.push(a);
            }
        }
        let workloads: Vec<String> = entries
            .iter()
            .map(|(category, r, wall_ms)| {
                format!(
                    "    {{\"name\": \"{}\", \"category\": \"{}\", \"cycles\": [{}, {}, {}], \"valid\": [{}, {}, {}], \"wall_ms\": {:.3}}}",
                    r.name,
                    category_tag(*category),
                    json_f64(r.cycles[0]),
                    json_f64(r.cycles[1]),
                    json_f64(r.cycles[2]),
                    r.valid[0],
                    r.valid[1],
                    r.valid[2],
                    wall_ms,
                )
            })
            .collect();
        println!("{{");
        println!("  \"schema\": 1,");
        println!("  \"quick\": {quick},");
        // The effective configuration, one key per knob of the table
        // (counts as JSON numbers, everything else as strings).
        for (knob, value) in device.settings() {
            if value.parse::<u64>().is_ok() {
                println!("  \"{knob}\": {value},");
            } else {
                println!("  \"{knob}\": \"{value}\",");
            }
        }
        // Schema-additive verifier accumulators (all zero when the
        // verifier is off or the tree-walk engine runs): how many plans
        // were verified, how much of the suite the static passes proved.
        let vc = device.verify_counters();
        println!(
            "  \"verify_stats\": {{\"plans\": {}, \"sites_proven\": {}, \"sites_total\": {}, \"barriers_uniform\": {}, \"barriers_total\": {}, \"rejected\": {}, \"lint_findings\": {}, \"verify_us\": {}}},",
            vc.plans,
            vc.sites_proven,
            vc.sites_total,
            vc.barriers_uniform,
            vc.barriers_total,
            vc.rejected,
            vc.lint_findings,
            vc.verify_ns / 1_000,
        );
        println!("  \"workloads\": [");
        println!("{}", workloads.join(",\n"));
        println!("  ],");
        println!("  \"geo_mean_sycl_mlir\": {},", json_f64(geo_mean(&sm)));
        println!("  \"geo_mean_adaptivecpp\": {},", json_f64(geo_mean(&acpp)));
        println!("  \"wall_time_seconds\": {:.3}", t0.elapsed().as_secs_f64());
        println!("}}");
        return;
    }

    let fig2 = run_category_on(Category::SingleKernel, quick, &device);
    let fig3 = run_category_on(Category::Polybench, quick, &device);
    let stencil = run_category_on(Category::Stencil, quick, &device);
    let reduction = run_category_on(Category::Reduction, quick, &device);
    let sparse = run_category_on(Category::Sparse, quick, &device);

    print_table("Fig. 2: single-kernel benchmarks", &fig2);
    print_table("Fig. 3: polybench benchmarks", &fig3);
    print_table("Stencil workloads", &stencil);
    print_table("Reduction/scan workloads (extension)", &reduction);
    print_table("Sparse indirect-index workloads (extension)", &sparse);

    // Overall SYCL-Bench geo-means (Fig. 2 + Fig. 3 categories).
    let mut sm = Vec::new();
    let mut acpp = Vec::new();
    for r in fig2.iter().chain(&fig3) {
        let s = r.speedup(2);
        let a = r.speedup(1);
        if s.is_finite() {
            sm.push(s);
        }
        if a.is_finite() {
            acpp.push(a);
        }
    }
    println!("\n== Overall (SYCL-Bench: Fig. 2 + Fig. 3) ==");
    println!(
        "SYCL-MLIR geo.-mean over DPC++:  {:.2}x   (paper: 1.18x)",
        geo_mean(&sm)
    );
    println!(
        "AdaptiveCpp geo.-mean over DPC++: {:.2}x   (paper: 1.13x)",
        geo_mean(&acpp)
    );

    // The `--profile` dump: per-opcode execution totals plus the hottest
    // dataflow-adjacent pairs — the ranked candidates for the next
    // fusion superinstruction.
    if let Some(report) = device.profile_report() {
        println!("\n{report}");
    }

    // Machine-readable wall-time line for the perf trajectory in the
    // BENCH_*.json harness records. Covers the whole sweep (compilation of
    // every flow + simulation); simulation dominates and is what the
    // engine/thread choice moves. The parenthesis is the device's
    // effective configuration (its `Display`).
    println!(
        "\nrepro_wall_time_seconds: {:.3} ({device}, quick: {quick})",
        t0.elapsed().as_secs_f64(),
    );
}
