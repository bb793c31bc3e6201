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

use std::cmp::Ordering;
use sycl_mlir_benchsuite::{geo_mean, run_workload_on, Category, WorkloadSpec};
use sycl_mlir_core::FlowKind;
use sycl_mlir_dialects::{arith, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_ir::Module;
use sycl_mlir_runtime::hostgen::generate_host_ir;
use sycl_mlir_runtime::{BufferId, HostOp, Queue, SyclRuntime};
use sycl_mlir_sim::Device;
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

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
            Ok((r, _)) => {
                cycles[i] = r.cycles;
                valid[i] = r.valid();
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

/// Geo-means of `(SYCL-MLIR, AdaptiveCpp)` speed-ups over DPC++ across
/// `rows`; missing bars are left out.
pub fn geo_means<'r>(rows: impl IntoIterator<Item = &'r Row>) -> (f64, f64) {
    let (mut sm, mut acpp) = (Vec::new(), Vec::new());
    for r in rows {
        for (flow, out) in [(2, &mut sm), (1, &mut acpp)] {
            let s = r.speedup(flow);
            if s.is_finite() {
                out.push(s);
            }
        }
    }
    (geo_mean(&sm), geo_mean(&acpp))
}

/// Print a speedup table in the paper's format (speedup over DPC++,
/// higher is better; `--` marks a failed validation / missing bar).
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>12} {:>12}",
        "benchmark", "AdaptiveCpp", "SYCL-MLIR"
    );
    let fmt = |v: f64| {
        if v.is_nan() {
            "--".to_string()
        } else {
            format!("{v:.2}x")
        }
    };
    for r in rows {
        println!(
            "{:<28} {:>12} {:>12}",
            r.name,
            fmt(r.speedup(1)),
            fmt(r.speedup(2))
        );
    }
    let (sm, acpp) = geo_means(rows);
    println!(
        "{:<28} {:>12} {:>12}",
        "geo.-mean",
        format!("{acpp:.2}x"),
        format!("{sm:.2}x")
    );
}

/// A geo-mean over SYCL-Bench (Fig. 2 + Fig. 3) as the paper reports it
/// and as this reproduction's quick sweep pins it.
#[derive(Debug, Clone, Copy)]
pub struct GeoMeanPin {
    pub paper: f64,
    pub reproduced: f64,
}

/// The fidelity pins of `data/paper_pins.txt`: §VIII's headline
/// geo-means beside the reproduced ones, the direction of every
/// SYCL-MLIR speed-up of the quick sweep, and the workloads whose
/// AdaptiveCpp failure is injected. See the file for its format.
#[derive(Debug, Clone)]
pub struct Pins {
    pub sycl_mlir: GeoMeanPin,
    pub adaptivecpp: GeoMeanPin,
    /// How far a reproduced geo-mean may move from its pin.
    pub tolerance: f64,
    /// Workload name → [`speedup_sign`] of its SYCL-MLIR speed-up.
    pub signs: Vec<(String, Ordering)>,
    /// Workloads whose AdaptiveCpp bar is missing by injection.
    pub acpp_injected: Vec<String>,
}

/// Speed-ups within this of 1.0 count as "no gain" (the tables print
/// them as `1.00x`).
pub const NO_GAIN_BAND: f64 = 0.005;

/// A speed-up's direction: `Greater` for a gain, `Less` for a loss,
/// `Equal` within [`NO_GAIN_BAND`] of 1.0.
pub fn speedup_sign(speedup: f64) -> Ordering {
    if speedup > 1.0 + NO_GAIN_BAND {
        Ordering::Greater
    } else if speedup < 1.0 - NO_GAIN_BAND {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

/// The pins, parsed from the data file compiled into this crate.
///
/// # Panics
///
/// Panics if the file is malformed; `tests/paper_pins.rs` parses it.
pub fn pins() -> Pins {
    fn malformed<T>(n: usize, line: &str) -> T {
        panic!("data/paper_pins.txt:{}: malformed line `{line}`", n + 1)
    }
    let (mut geo, mut tolerance) = (Vec::new(), None);
    let (mut signs, mut acpp_injected) = (Vec::new(), Vec::new());
    for (n, line) in include_str!("../data/paper_pins.txt").lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((kind, rest)) = line.split_once(' ') else {
            return malformed(n, line);
        };
        let number = |text: Option<&str>| -> f64 {
            text.and_then(|t| t.parse().ok())
                .unwrap_or_else(|| malformed(n, line))
        };
        match (kind, rest.split_once(' ')) {
            ("geo-mean", Some((flow, values))) => {
                let (paper, reproduced) =
                    values.split_once(' ').unwrap_or_else(|| malformed(n, line));
                let pin = GeoMeanPin {
                    paper: number(paper.strip_prefix("paper=")),
                    reproduced: number(reproduced.strip_prefix("reproduced=")),
                };
                geo.push((flow.to_string(), pin));
            }
            ("tolerance", None) => tolerance = Some(number(Some(rest))),
            ("speed-up", Some((sign, name))) => {
                let sign = match sign {
                    "+" => Ordering::Greater,
                    "-" => Ordering::Less,
                    "=" => Ordering::Equal,
                    _ => malformed(n, line),
                };
                signs.push((name.to_string(), sign));
            }
            ("acpp-injected", _) => acpp_injected.push(rest.to_string()),
            _ => malformed(n, line),
        }
    }
    let geo_pin = |flow: &str| {
        let pin = geo.iter().find(|(f, _)| f == flow);
        pin.unwrap_or_else(|| panic!("data/paper_pins.txt: no `geo-mean {flow}` line"))
            .1
    };
    Pins {
        sycl_mlir: geo_pin("sycl_mlir"),
        adaptivecpp: geo_pin("adaptivecpp"),
        tolerance: tolerance.expect("data/paper_pins.txt: no `tolerance` line"),
        signs,
        acpp_injected,
    }
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

/// Buffers the rounds of [`hostdag`] rotate over (the fan-out width of
/// the DAG).
pub const HOSTDAG_BUFS: usize = 8;

/// The host-task-interleaved launch graph `repro_hostdag` runs, ready to
/// compile: the joint module with its host IR, the buffers and the queue.
pub struct HostDag {
    pub module: Module,
    pub rt: SyclRuntime,
    pub q: Queue,
    pub bufs: Vec<BufferId>,
    /// Elements per buffer.
    pub n: i64,
    /// Rounds of one host task and three kernels.
    pub rounds: usize,
}

/// A tiny deterministic xorshift so the graph is "random" but identical
/// on every run and machine.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Build `repro_hostdag`'s graph: a randomized wide fan-out whose rounds
/// interleave one host task with three independent kernels.
pub fn hostdag(quick: bool) -> HostDag {
    // Problem size: element count per buffer, inner-loop trip count of
    // the kernel, and interleaved rounds — many rounds of modest kernels,
    // so scheduling overhead per command group is what shows.
    let (n, trips, rounds): (i64, i64, usize) = if quick { (256, 8, 40) } else { (512, 16, 300) };

    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();
    // `churn`: an iterated multiply-add per element.
    let sig = KernelSig::new("churn", 1, true).accessor(f32t, 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let zero = arith::constant_index(b, 0);
        let one = arith::constant_index(b, 1);
        let end = arith::constant_index(b, trips);
        let lp = scf::build_for(b, zero, end, one, &[v], |inner, _iv, iters| {
            let f32t = inner.ctx().f32_type();
            let c0 = arith::constant_float(inner, 1.0001, f32t.clone());
            let c1 = arith::constant_float(inner, 0.001, f32t);
            let t = arith::mulf(inner, iters[0], c0);
            vec![arith::addf(inner, t, c1)]
        });
        let out = b.module().op_result(lp, 0);
        sdev::store_via_id(b, out, args[0], &[gid]);
    });

    let mut rt = SyclRuntime::new();
    let bufs: Vec<_> = (0..HOSTDAG_BUFS)
        .map(|bi| {
            rt.buffer_f32(
                (0..n)
                    .map(|i| 0.5 + (i + bi as i64) as f32 * 0.01)
                    .collect(),
                &[n],
            )
        })
        .collect();

    // Each round: one host task on a rotating buffer plus three kernels
    // on *other* buffers — independent of the host task, so they overlap
    // it.
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    let mut q = Queue::new();
    for r in 0..rounds {
        let hb = r % HOSTDAG_BUFS;
        let op = match rng.below(3) {
            0 => HostOp::Scale {
                buffer: bufs[hb],
                factor: 1.25,
            },
            1 => HostOp::Shift {
                buffer: bufs[hb],
                delta: 0.125,
            },
            _ => HostOp::AddInto {
                dst: bufs[hb],
                src: bufs[(hb + 1) % HOSTDAG_BUFS],
            },
        };
        q.submit(|h| h.host_task(op));
        for k in 0..3 {
            let kb_idx = (hb + 2 + k + rng.below(3)) % HOSTDAG_BUFS;
            q.submit(|h| {
                h.accessor(bufs[kb_idx], AccessMode::ReadWrite);
                h.parallel_for_nd("churn", &[n], &[64]);
            });
        }
    }
    generate_host_ir(kb.module(), &rt, &q);
    HostDag {
        module: kb.finish(),
        rt,
        q,
        bufs,
        n,
        rounds,
    }
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
