//! # sycl-mlir-benchsuite — the paper's evaluation workloads (§VIII)
//!
//! Reimplementations of every benchmark in the paper's evaluation:
//!
//! * [`polybench`] — the 14 Fig. 3 workloads (plus 3D Convolution, which
//!   §VIII sizes but does not plot);
//! * [`single_kernel`] — the 20 Fig. 2 workload variants;
//! * [`stencil`] — the four oneAPI-samples stencil workloads;
//! * [`reduction`] — tree reduction, segmented scan and a work-group-local
//!   dot product (collective access patterns, §VIII);
//! * [`sparse`] — CSR SpMV, gather/scatter and a segmented histogram
//!   (indirect-index access patterns).
//!
//! Each workload builds a complete application: device kernels through the
//! frontend, recorded command groups, generated host IR, input data
//! (seeded), and a host-side reference validation. Building computes no
//! reference: the validator keeps a copy of the seeded inputs and computes
//! the reference from them when it is called, so a caller that only
//! compiles pays nothing for it, and a run that writes a buffer in place
//! cannot change what it is checked against. Problem sizes are scaled
//! from the paper's (the simulator interprets IR; EXPERIMENTS.md documents
//! the scaling) — the *shape* of each kernel is preserved exactly.

pub mod polybench;
pub mod reduction;
pub mod single_kernel;
pub mod sparse;
pub mod stencil;

use sycl_mlir_core::FlowKind;
use sycl_mlir_ir::Module;
use sycl_mlir_runtime::{Queue, SyclRuntime};
use sycl_mlir_sim::{Device, ExecStats, SimError};

pub use sycl_mlir_sim::Engine;

/// Evaluation category (§VIII, plus this reproduction's extension
/// families: reduction/scan and sparse indirect-index).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    Polybench,
    SingleKernel,
    Stencil,
    Reduction,
    Sparse,
}

/// Host-side validation callback of a workload: checks the runtime's
/// final buffer/USM contents against a reference computation, which it
/// performs on each call from the inputs the workload generated — never
/// from the runtime's buffers, which the run may have overwritten. The
/// error names the first element that differs.
pub type ValidateFn = Box<dyn Fn(&SyclRuntime) -> Result<(), String>>;

/// A complete runnable application.
pub struct App {
    pub module: Module,
    pub runtime: SyclRuntime,
    pub queue: Queue,
    /// Host-side validation against a reference computation.
    pub validate: ValidateFn,
}

/// One benchmark of the evaluation.
pub struct WorkloadSpec {
    /// Label as it appears in the paper's figures.
    pub name: &'static str,
    pub category: Category,
    /// Problem size used in §VIII.
    pub paper_size: i64,
    /// Scaled size used by this reproduction's simulator.
    pub scaled_size: i64,
    /// AdaptiveCpp "failed validation" in the paper (missing bar /
    /// stencil prose). Only the stencil failures are identifiable.
    pub acpp_fails: bool,
    /// Plotted in Fig. 2 / Fig. 3 (3D Convolution is sized but not shown).
    pub in_figure: bool,
    pub build: fn(i64) -> App,
}

/// Every workload, in figure order (the extension families follow the
/// paper's three categories).
pub fn all_workloads() -> Vec<WorkloadSpec> {
    let mut v = single_kernel::workloads();
    v.extend(polybench::workloads());
    v.extend(stencil::workloads());
    v.extend(reduction::workloads());
    v.extend(sparse::workloads());
    v
}

/// Result of running one workload under one flow.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Simulated cycles (device + launch overhead, post-warm-up).
    pub cycles: f64,
    /// Cycles including one-time JIT costs (the warm-up run).
    pub cold_cycles: f64,
    /// What the workload's [`ValidateFn`] returned.
    pub validation: Result<(), String>,
    pub stats: ExecStats,
    pub compile_notes: Vec<String>,
}

impl RunResult {
    /// Whether the run's results passed validation.
    pub fn valid(&self) -> bool {
        self.validation.is_ok()
    }
}

/// Why a workload produced no [`RunResult`]: its pipeline failed to
/// compile the program, or the simulator failed the run. Displays as
/// `name [flow]: cause`; the simulator's error stays a value, so callers
/// tell a tripped execution limit from other failures by
/// [`SimError::limit_kind`], not by its text.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadError {
    /// `name [flow]` of the run that failed.
    pub run: String,
    pub cause: WorkloadFailure,
}

/// What went wrong in a [`WorkloadError`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadFailure {
    /// The flow's pipeline rejected the program (pass error, verifier
    /// report), as text.
    Compile(String),
    /// The simulator failed the run.
    Sim(SimError),
}

impl WorkloadError {
    /// The simulator's error, when the run (not the compilation) failed.
    pub fn sim_error(&self) -> Option<&SimError> {
        match &self.cause {
            WorkloadFailure::Sim(e) => Some(e),
            WorkloadFailure::Compile(_) => None,
        }
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cause {
            WorkloadFailure::Compile(e) => write!(f, "{}: {e}", self.run),
            WorkloadFailure::Sim(e) => write!(f, "{}: {e}", self.run),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Compile and execute a workload under `kind` at `size`, validating the
/// results. Runs on the default [`Device`] (the plan engine, unless
/// overridden via `SYCL_MLIR_SIM_ENGINE`).
///
/// # Errors
///
/// Returns compilation or simulation errors; a *validation* failure is
/// reported through [`RunResult::validation`] (that is data, not an error —
/// the paper plots it as a missing bar).
pub fn run_workload(
    spec: &WorkloadSpec,
    size: i64,
    kind: FlowKind,
) -> Result<RunResult, WorkloadError> {
    run_workload_on(spec, size, kind, &Device::new()).map(|(result, _)| result)
}

/// [`run_workload`] with an explicit device (engine selection), returning
/// the final runtime state alongside the result so callers — the
/// differential suite in particular — can compare every output buffer
/// across engines.
pub fn run_workload_on(
    spec: &WorkloadSpec,
    size: i64,
    kind: FlowKind,
    device: &Device,
) -> Result<(RunResult, SyclRuntime), WorkloadError> {
    if kind == FlowKind::AdaptiveCpp && spec.acpp_fails {
        // Mirrors §VIII: "The validation of results failed for a number of
        // benchmarks with AdaptiveCpp".
        return Ok((
            RunResult {
                cycles: f64::NAN,
                cold_cycles: f64::NAN,
                validation: Err("validation failed (per §VIII)".into()),
                stats: ExecStats::default(),
                compile_notes: vec!["validation failed (per §VIII)".into()],
            },
            SyclRuntime::new(),
        ));
    }
    let failed = |cause| WorkloadError {
        run: format!("{} [{}]", spec.name, kind.name()),
        cause,
    };
    let mut app = (spec.build)(size);
    let mut program = sycl_mlir_runtime::compile_program(kind, app.module)
        .map_err(|e| failed(WorkloadFailure::Compile(e)))?;
    let report = sycl_mlir_runtime::exec::run(&mut program, &mut app.runtime, &app.queue, device)
        .map_err(|e| failed(WorkloadFailure::Sim(e)))?;
    let result = RunResult {
        cycles: report.measured_cycles(),
        cold_cycles: report.cold_cycles(),
        validation: (app.validate)(&app.runtime),
        stats: report.total_stats(),
        compile_notes: program.outcome.notes.clone(),
    };
    Ok((result, app.runtime))
}

/// Geometric mean over positive values.
pub fn geo_mean(values: &[f64]) -> f64 {
    let vals: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

// ----------------------------------------------------------------------
// Shared helpers for workload construction
// ----------------------------------------------------------------------

pub(crate) mod util {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    pub fn rand_f32(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0_f32..1.0)).collect()
    }

    pub fn rand_f64(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(-1.0_f64..1.0)).collect()
    }

    pub fn rand_i32(rng: &mut StdRng, n: usize) -> Vec<i32> {
        (0..n).map(|_| rng.gen_range(-100_i32..100)).collect()
    }

    pub fn rand_i64(rng: &mut StdRng, n: usize) -> Vec<i64> {
        (0..n).map(|_| rng.gen_range(-100_i64..100)).collect()
    }

    pub fn check_f32(name: &str, got: &[f32], want: &[f32], tol: f32) -> Result<(), String> {
        if got.len() != want.len() {
            return Err(format!("{name}: length mismatch"));
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let scale = w.abs().max(1.0);
            if (g - w).abs() > tol * scale {
                return Err(format!("{name}[{i}]: got {g}, want {w}"));
            }
        }
        Ok(())
    }

    pub fn check_f64(name: &str, got: &[f64], want: &[f64], tol: f64) -> Result<(), String> {
        if got.len() != want.len() {
            return Err(format!("{name}: length mismatch"));
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let scale = w.abs().max(1.0);
            if (g - w).abs() > tol * scale {
                return Err(format!("{name}[{i}]: got {g}, want {w}"));
            }
        }
        Ok(())
    }

    pub fn check_exact<T: PartialEq + std::fmt::Debug>(
        name: &str,
        got: &[T],
        want: &[T],
    ) -> Result<(), String> {
        if got != want {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                if g != w {
                    return Err(format!("{name}[{i}]: got {g:?}, want {w:?}"));
                }
            }
            return Err(format!("{name}: length mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_figures() {
        let all = all_workloads();
        let fig2 = all
            .iter()
            .filter(|w| w.category == Category::SingleKernel && w.in_figure)
            .count();
        let fig3 = all
            .iter()
            .filter(|w| w.category == Category::Polybench && w.in_figure)
            .count();
        let stencils = all
            .iter()
            .filter(|w| w.category == Category::Stencil)
            .count();
        let reductions = all
            .iter()
            .filter(|w| w.category == Category::Reduction)
            .count();
        let sparse = all
            .iter()
            .filter(|w| w.category == Category::Sparse)
            .count();
        assert_eq!(fig2, 20, "Fig. 2 has 20 bars");
        assert_eq!(fig3, 14, "Fig. 3 has 14 benchmarks");
        assert_eq!(stencils, 4, "four stencil workloads");
        assert_eq!(reductions, 4, "four reduction/scan workloads");
        assert_eq!(sparse, 5, "five sparse indirect-index workloads");
        // AdaptiveCpp stencil failures per §VIII prose.
        let acpp_fail: Vec<&str> = all
            .iter()
            .filter(|w| w.acpp_fails)
            .map(|w| w.name)
            .collect();
        assert_eq!(
            acpp_fail,
            vec![
                "1D HeatTransfer (buffer)",
                "1D HeatTransfer (USM)",
                "jacobi"
            ]
        );
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geo_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geo_mean(&[f64::NAN, 4.0]).is_finite());
        assert!(geo_mean(&[]).is_nan());
    }
}
