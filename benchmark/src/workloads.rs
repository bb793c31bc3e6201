//! The five workloads and every size they run at.
//!
//! Sizes are written out here as numbers. They equal what `repro_all
//! --quick` used when the benchmark was defined, but they are not read from
//! `crates/bench`: a later edit to the quick sizes must not move the
//! benchmark without anyone noticing.

use crate::launch_dag;
use sycl_mlir_benchsuite::{all_workloads, App};
use sycl_mlir_core::FlowKind;

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 5] = [
    "paper_sweep",
    "exec_dense",
    "exec_irregular",
    "launch_dag",
    "compile_only",
];

/// Why each workload is in the benchmark (one line, also in BENCHMARK.json).
pub fn why(name: &str) -> &'static str {
    match name {
        "paper_sweep" => "Fig. 2 + Fig. 3 (34 programs) under all three flows at quick sizes: what a user of repro_all waits for, every layer in its real proportion",
        "exec_dense" => "GEMM, Sobel7 and iso2dfd at larger sizes: the simulator's instruction loop on statically proven, fusable accesses does >=95% of the work",
        "exec_irregular" => "reduction/scan and sparse programs at 8x size: data-dependent subscripts that keep their bounds check, barrier ladders, empty tail launches",
        "launch_dag" => "seeded DAG of 600 host tasks and 1800 one-group kernels: queue hazards, host raising and the launch scheduler dominate, the instruction loop idles",
        "compile_only" => "all 48 registered programs x 3 flows, build and compile only: the one place a pass or IR change shows, and the no-change control for simulator work",
        _ => "",
    }
}

/// Quick size of every registered benchsuite program: single-kernel
/// `scaled/4` (min 64), polybench `scaled/2` (min 32), stencils at their
/// scaled size, reduction and sparse `scaled/4`.
const QUICK_SIZES: [(&str, i64); 48] = [
    ("KMeans (float32)", 2048),
    ("KMeans (float64)", 2048),
    ("LinReg (float32)", 2048),
    ("LinReg (float64)", 2048),
    ("LinReg Coeff. (float32)", 2048),
    ("LinReg Coeff. (float64)", 2048),
    ("MolDyn", 512),
    ("NBody (float32)", 64),
    ("NBody (float64)", 64),
    ("ScalProd (float32)", 4096),
    ("ScalProd (float64)", 4096),
    ("ScalProd (int32)", 4096),
    ("ScalProd (int64)", 4096),
    ("Sobel3", 64),
    ("Sobel5", 64),
    ("Sobel7", 64),
    ("VecAdd (float32)", 4096),
    ("VecAdd (float64)", 4096),
    ("VecAdd (int32)", 4096),
    ("VecAdd (int64)", 4096),
    ("2D Convolution", 64),
    ("2mm", 32),
    ("3mm", 32),
    ("Atax", 64),
    ("Bicg", 64),
    ("Correlation", 32),
    ("Covariance", 32),
    ("FDTD2D", 32),
    ("GEMM", 32),
    ("GESUMMV", 64),
    ("Gramschmidt", 32),
    ("MVT", 64),
    ("SYR2K", 32),
    ("SYRK", 32),
    ("3D Convolution", 32),
    ("1D HeatTransfer (buffer)", 100),
    ("1D HeatTransfer (USM)", 100),
    ("iso2dfd", 64),
    ("jacobi", 64),
    ("TreeReduce (float32)", 1024),
    ("SegScan (float32)", 1024),
    ("DotProd (WG-local)", 1024),
    ("TreeReduce (dyn nd-range)", 1024),
    ("SpMV (CSR)", 512),
    ("Gather", 2048),
    ("Scatter", 2048),
    ("Histogram (segmented)", 1024),
    ("Gather (dyn nd-range)", 2048),
];

/// The first 34 entries of [`QUICK_SIZES`] are the bars of Fig. 2 and Fig. 3.
const PAPER_FIGURE_PROGRAMS: usize = 34;

/// `exec_dense`: larger than quick so that execution is >=95% of an op.
const DENSE_SIZES: [(&str, i64); 3] = [("GEMM", 96), ("Sobel7", 128), ("iso2dfd", 64)];

/// `exec_irregular`: 8x the registry's scaled size.
const IRREGULAR_SIZES: [(&str, i64); 9] = [
    ("TreeReduce (float32)", 32768),
    ("SegScan (float32)", 32768),
    ("DotProd (WG-local)", 32768),
    ("TreeReduce (dyn nd-range)", 32768),
    ("SpMV (CSR)", 16384),
    ("Gather", 65536),
    ("Scatter", 65536),
    ("Histogram (segmented)", 32768),
    ("Gather (dyn nd-range)", 65536),
];

/// `compile_only` repeats its op list this many times per iteration, so an
/// iteration is long enough to time.
const COMPILE_ONLY_PASSES: usize = 4;

const ALL_FLOWS: [FlowKind; 3] = [FlowKind::Dpcpp, FlowKind::AdaptiveCpp, FlowKind::SyclMlir];
const TWO_FLOWS: [FlowKind; 2] = [FlowKind::Dpcpp, FlowKind::SyclMlir];

/// Where an op's application comes from.
pub enum Source {
    /// A registered benchsuite program at a pinned size.
    Suite { build: fn(i64) -> App, size: i64 },
    /// The seeded host-task DAG of [`launch_dag`].
    LaunchDag { seed: u64 },
}

/// One (application, flow) attempt.
pub struct OpSpec {
    pub label: String,
    pub source: Source,
    pub flow: FlowKind,
}

impl OpSpec {
    /// Construct the application: kernels, command groups, host IR, input
    /// data and the host-side reference check.
    pub fn build(&self) -> App {
        match &self.source {
            Source::Suite { build, size } => build(*size),
            Source::LaunchDag { seed } => launch_dag::build(*seed),
        }
    }
}

pub struct Workload {
    pub ops: Vec<OpSpec>,
    /// Passes over `ops` in one iteration.
    pub passes: usize,
    /// Timed ops stop after `compile_program`. The warm-up iteration still
    /// executes and validates every program once, which is both the
    /// correctness check of the compiled code and the source of
    /// `sim_cycles_sycl_mlir` on this workload.
    pub compile_only: bool,
    /// Worker threads of the device.
    pub threads: usize,
    /// `(program, size)` pairs for the environment record.
    pub sizes: Vec<(String, i64)>,
}

impl Workload {
    pub fn ops_per_iteration(&self) -> usize {
        self.ops.len() * self.passes
    }
}

pub fn flow_key(flow: FlowKind) -> &'static str {
    match flow {
        FlowKind::Dpcpp => "dpcpp",
        FlowKind::AdaptiveCpp => "acpp",
        FlowKind::SyclMlir => "sycl_mlir",
    }
}

fn suite_ops(sizes: &[(&str, i64)], flows: &[FlowKind]) -> Result<Vec<OpSpec>, String> {
    let registry = all_workloads();
    let mut ops = Vec::new();
    for &(name, size) in sizes {
        let spec = registry
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("benchsuite no longer registers `{name}`"))?;
        for &flow in flows {
            // The paper's missing AdaptiveCpp bars are skipped, not attempted.
            if flow == FlowKind::AdaptiveCpp && spec.acpp_fails {
                continue;
            }
            ops.push(OpSpec {
                label: format!("{name}@{size} [{}]", flow_key(flow)),
                source: Source::Suite {
                    build: spec.build,
                    size,
                },
                flow,
            });
        }
    }
    Ok(ops)
}

fn owned(sizes: &[(&str, i64)]) -> Vec<(String, i64)> {
    sizes.iter().map(|&(n, s)| (n.to_string(), s)).collect()
}

/// Build the named workload. `seed` shapes only the `launch_dag` graph; the
/// benchsuite's input data is seeded inside `crates/benchsuite` and fixed.
pub fn workload(name: &str, seed: u64) -> Result<Workload, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(match name {
        "paper_sweep" => {
            let sizes = &QUICK_SIZES[..PAPER_FIGURE_PROGRAMS];
            Workload {
                ops: suite_ops(sizes, &ALL_FLOWS)?,
                passes: 1,
                compile_only: false,
                threads: 1,
                sizes: owned(sizes),
            }
        }
        "exec_dense" => Workload {
            ops: suite_ops(&DENSE_SIZES, &TWO_FLOWS)?,
            passes: 1,
            compile_only: false,
            threads: 1,
            sizes: owned(&DENSE_SIZES),
        },
        "exec_irregular" => Workload {
            ops: suite_ops(&IRREGULAR_SIZES, &TWO_FLOWS)?,
            passes: 1,
            compile_only: false,
            threads: 1,
            sizes: owned(&IRREGULAR_SIZES),
        },
        "launch_dag" => Workload {
            ops: vec![OpSpec {
                label: format!("launch_dag seed {seed} [sycl_mlir]"),
                source: Source::LaunchDag { seed },
                flow: FlowKind::SyclMlir,
            }],
            passes: 1,
            compile_only: false,
            // Never more workers than the machine has cores.
            threads: nproc.min(2),
            sizes: launch_dag::sizes(),
        },
        "compile_only" => Workload {
            ops: suite_ops(&QUICK_SIZES, &ALL_FLOWS)?,
            passes: COMPILE_ONLY_PASSES,
            compile_only: true,
            threads: 1,
            sizes: owned(&QUICK_SIZES),
        },
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_program_is_registered() {
        let registry = all_workloads();
        for (name, _) in QUICK_SIZES
            .iter()
            .chain(&DENSE_SIZES)
            .chain(&IRREGULAR_SIZES)
        {
            assert!(registry.iter().any(|w| w.name == *name), "{name}");
        }
        let figure = registry
            .iter()
            .filter(|w| w.in_figure)
            .take(PAPER_FIGURE_PROGRAMS);
        for (w, (name, _)) in figure.zip(&QUICK_SIZES) {
            assert_eq!(w.name, *name);
        }
    }

    #[test]
    fn op_counts() {
        assert_eq!(workload("paper_sweep", 1).unwrap().ops_per_iteration(), 102);
        assert_eq!(workload("exec_dense", 1).unwrap().ops_per_iteration(), 6);
        assert_eq!(
            workload("exec_irregular", 1).unwrap().ops_per_iteration(),
            18
        );
        assert_eq!(workload("launch_dag", 1).unwrap().ops_per_iteration(), 1);
        // 48 programs x 3 flows minus the three missing AdaptiveCpp bars.
        assert_eq!(
            workload("compile_only", 1).unwrap().ops_per_iteration(),
            141 * 4
        );
        assert!(workload("nope", 1).is_err());
    }
}
