//! # sycl-mlir-bench — the evaluation harness (§VIII of the paper)
//!
//! Binaries regenerating every figure/table of the evaluation:
//!
//! * `repro_fig1` — prints the compilation flow of Fig. 1 per implementation
//!   (pipeline stages + IR after each stage on a matmul walkthrough);
//! * `repro_fig2` — the single-kernel speedup comparison of Fig. 2;
//! * `repro_fig3` — the polybench speedup comparison of Fig. 3;
//! * `repro_stencil` — the stencil results reported in §VIII's prose;
//! * `repro_all` — everything above plus the overall geo-means.
//!
//! The simulator is deterministic, so the paper's warm-up + 30-repetition
//! protocol collapses to a single measured run per configuration (JIT costs
//! still land on the AdaptiveCpp "warm-up" and are excluded, like §VIII).

use sycl_mlir_benchsuite::{geo_mean, run_workload_on, Category, RunResult, WorkloadSpec};
use sycl_mlir_core::FlowKind;
use sycl_mlir_sim::Device;

/// One row of a speedup table.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    /// Cycles per flow, ordered as [`FlowKind::all`]. `NaN` = validation
    /// failed (a "missing bar").
    pub cycles: [f64; 3],
    pub valid: [bool; 3],
}

impl Row {
    /// Speedup of `flow` over the DPC++ baseline.
    pub fn speedup(&self, flow: usize) -> f64 {
        if !self.valid[flow] || !self.valid[0] {
            return f64::NAN;
        }
        self.cycles[0] / self.cycles[flow]
    }
}

/// Run every workload of a category; scale factors below 1.0 shrink the
/// (already scaled) problem sizes further for quick runs. Runs on the
/// device the flags and environment configure ([`device_from_args`]).
pub fn run_category(category: Category, quick: bool) -> Vec<Row> {
    run_category_on(category, quick, &device_from_args())
}

/// [`run_category`] on an explicit device — lets a caller thread one
/// device through a whole sweep (the `--profile` accumulators live on the
/// device, so the final report must come from the device that ran).
pub fn run_category_on(category: Category, quick: bool, device: &Device) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in sycl_mlir_benchsuite::all_workloads() {
        if w.category != category || !w.in_figure {
            continue;
        }
        rows.push(run_row(&w, quick, device));
    }
    rows
}

/// Run a single workload under all three flows on `device`.
pub fn run_row(w: &WorkloadSpec, quick: bool, device: &Device) -> Row {
    let size = if quick { quick_size(w) } else { w.scaled_size };
    let mut cycles = [f64::NAN; 3];
    let mut valid = [false; 3];
    for (i, kind) in FlowKind::all().into_iter().enumerate() {
        match run_workload_on(w, size, kind, device) {
            Ok((
                RunResult {
                    cycles: c,
                    valid: v,
                    ..
                },
                _,
            )) => {
                cycles[i] = c;
                valid[i] = v;
            }
            Err(e) => {
                // A tripped execution limit (--max-ops / --mem-cap /
                // --deadline-ms) means the workload was wedged and the
                // safety net caught it: exit with the distinct limit
                // status instead of reporting a missing bar.
                if e.sim_error().is_some_and(|e| e.limit_kind().is_some()) {
                    eprintln!("error: {} [{}]: {e}", w.name, kind.name());
                    std::process::exit(LIMIT_EXIT);
                }
                eprintln!("warning: {} [{}] failed: {e}", w.name, kind.name());
            }
        }
    }
    Row {
        name: w.name,
        cycles,
        valid,
    }
}

/// Quick-mode problem size for a workload (shared with the differential
/// tests, which sweep every workload at these sizes).
pub fn quick_size(w: &WorkloadSpec) -> i64 {
    match w.category {
        Category::Polybench => (w.scaled_size / 2).max(32),
        Category::SingleKernel => (w.scaled_size / 4).max(64),
        Category::Stencil => w.scaled_size,
        // Group-aligned so the dynamic-nd-range variants keep their
        // zero-extent tail launch in quick mode too.
        Category::Reduction => (w.scaled_size / 4).max(64),
        Category::Sparse => (w.scaled_size / 4).max(64),
    }
}

/// Print a speedup table in the paper's format (speedup over DPC++,
/// higher is better; `--` marks a failed validation / missing bar).
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>12} {:>12}",
        "benchmark", "AdaptiveCpp", "SYCL-MLIR"
    );
    let mut acpp = Vec::new();
    let mut sm = Vec::new();
    for r in rows {
        let a = r.speedup(1);
        let s = r.speedup(2);
        let fmt = |v: f64| {
            if v.is_nan() {
                "--".to_string()
            } else {
                format!("{v:.2}x")
            }
        };
        println!("{:<28} {:>12} {:>12}", r.name, fmt(a), fmt(s));
        if a.is_finite() {
            acpp.push(a);
        }
        if s.is_finite() {
            sm.push(s);
        }
    }
    println!(
        "{:<28} {:>12} {:>12}",
        "geo.-mean",
        format!("{:.2}x", geo_mean(&acpp)),
        format!("{:.2}x", geo_mean(&sm))
    );
}

/// Parse the shared `--quick` flag.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Exit status of a `repro_*` binary when an execution limit tripped
/// (`--max-ops`, `--mem-cap`, `--deadline-ms`): distinct from success
/// (0), ordinary failures (1) and flag errors (2), so CI can tell "the
/// workload was wedged and the safety net caught it" apart from
/// everything else.
pub const LIMIT_EXIT: i32 = 3;

/// Print usage for a `repro_*` binary and exit when `--help`/`-h` was
/// passed: the simulator's knob table ([`sycl_mlir_sim::knob_table`] —
/// the one definition of every flag, README.md embeds the same text)
/// plus the harness's own `--quick`/`--json`.
pub fn handle_help_flag(binary: &str, purpose: &str) {
    if !std::env::args().any(|a| a == "--help" || a == "-h") {
        return;
    }
    println!("{binary} — {purpose}\n");
    println!("usage: {binary} [--quick] [--json] [--<knob>=<value>]...\n");
    print!("{}", sycl_mlir_sim::knob_table());
    println!("--quick\n    shrink problem sizes for a fast sweep");
    println!("--json\n    machine-readable summary instead of tables (repro_all only)");
    println!(
        "\nFlags win over environment variables; a malformed or unknown setting\nis an error (exit status 2) from either. Outputs, statistics and cycle\ntables are bit-identical across every engine and thread count (held\nby tests/differential.rs); those knobs only change wall time. The\nlimit knobs (--max-ops, --mem-cap, --deadline-ms) are safety nets: a\nkernel exceeding one fails with a structured error and exit status 3\ninstead of hanging the run."
    );
    std::process::exit(0);
}

/// The device the repro binaries run on: the knob-table defaults, then
/// the `SYCL_MLIR_SIM_*` environment variables, then the
/// `--<knob>=<value>` flags. A setting that does not parse — from either
/// source — is printed and the process exits with status 2 rather than
/// silently benchmarking the wrong configuration.
pub fn device_from_args() -> Device {
    Device::try_from_env()
        .and_then(|device| device.with_flags(std::env::args().skip(1)))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_handles_missing_bars() {
        let r = Row {
            name: "x",
            cycles: [100.0, f64::NAN, 50.0],
            valid: [true, false, true],
        };
        assert!(r.speedup(1).is_nan());
        assert!((r.speedup(2) - 2.0).abs() < 1e-12);
    }
}
