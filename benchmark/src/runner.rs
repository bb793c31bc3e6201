//! Runs ops and iterations, and turns what was observed into metrics.
//!
//! Closed loop, one process, one driver thread: the next op starts when the
//! previous one returned. Every layer is measured from outside, by timing a
//! call into a public function of the crate that owns it.

use crate::launch_dag::Rng;
use crate::machine::{reset_peak_rss, scale_series, status_mb, Probe};
use crate::metrics::{self, EVENTS, FLOWS, PASSES};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{flow_key, workload, OpSpec, Workload};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use sycl_mlir_benchsuite::App;
use sycl_mlir_core::FlowKind;
use sycl_mlir_ir::{Module, WalkControl};
use sycl_mlir_runtime::exec::run;
use sycl_mlir_runtime::{compile_program, RunReport};
use sycl_mlir_sim::Device;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A run reports percentiles, so it never stops below this many iterations
/// however short `--seconds` is.
const MIN_TIMED_ITERATIONS: usize = 5;
const MIN_TRACED_ITERATIONS: usize = 3;
/// Traced iterations whose spans are kept for `trace.json`; later ones still
/// feed the medians.
const TRACE_FILE_ITERATIONS: usize = 7;

/// The paper's geo-mean speed-ups over DPC++ (Fig. 2 + Fig. 3).
const PAPER_GEOMEAN_SYCL_MLIR: f64 = 1.18;
const PAPER_GEOMEAN_ACPP: f64 = 1.13;

/// Recording state of a traced iteration.
pub struct Traced {
    pub tracer: Tracer,
    /// `(op index, counter, amount)`, summed in op-index order so that
    /// floating-point totals do not depend on the shuffled execution order.
    counts: Vec<(usize, String, f64)>,
    /// Also time a warm run on a two-worker device, for the `_t2` metrics
    /// (`exec_dense` on a machine with at least two cores only).
    two_workers: bool,
}

impl Traced {
    fn new(two_workers: bool) -> Traced {
        Traced {
            tracer: Tracer::new(),
            counts: Vec::new(),
            two_workers,
        }
    }

    fn count(&mut self, op: usize, name: impl Into<String>, amount: f64) {
        self.counts.push((op, name.into(), amount));
    }
}

/// Run `f` inside a span when tracing.
fn span<T>(tr: &mut Option<&mut Traced>, name: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => {
            let id = t.tracer.open(name);
            let out = f();
            t.tracer.close(id);
            out
        }
        None => f(),
    }
}

fn count_ops(module: &Module) -> f64 {
    let mut n = 0u64;
    module.walk(module.top(), &mut |_| {
        n += 1;
        WalkControl::Advance
    });
    n as f64
}

fn same_cycles(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: {got} simulated cycles, expected {want}"))
    }
}

/// One (application, flow) attempt: build, compile and — unless `execute`
/// is off — run on `device` and validate against the application's
/// host-side reference. Returns the simulated cycles of the run.
///
/// When tracing, each call into a layer is a child span of the op, and the
/// op is followed through a second, warm `exec::run` of the same program on
/// the same device with a rebuilt runtime and queue.
fn run_op(
    index: usize,
    op: &OpSpec,
    device: &Device,
    execute: bool,
    mut tr: Option<&mut Traced>,
) -> Result<Option<f64>, String> {
    let (cycles, leftovers) = attempt(index, op, device, execute, tr.as_deref_mut())?;
    // Freeing the IR, the buffers and the queue is part of the op: 5% of
    // one on `compile_only`.
    span(&mut tr, "teardown", || drop(leftovers));
    Ok(cycles)
}

/// The body of [`run_op`]. Also hands back everything the op still holds
/// when it is done, so that the caller can time dropping it.
fn attempt(
    index: usize,
    op: &OpSpec,
    device: &Device,
    execute: bool,
    mut tr: Option<&mut Traced>,
) -> Result<(Option<f64>, Box<dyn Any>), String> {
    let flow = flow_key(op.flow);
    let mut app = span(&mut tr, "build", || op.build());
    if let Some(t) = tr.as_deref_mut() {
        t.count(index, "ir.ops_built", count_ops(&app.module));
        t.count(
            index,
            "runtime.command_groups",
            app.queue.groups.len() as f64,
        );
    }

    let compile_span = tr.as_deref_mut().map(|t| {
        let id = t.tracer.open(&format!("compile.{flow}"));
        (id, t.tracer.now_ns())
    });
    let compiled = compile_program(op.flow, app.module);
    if let (Some(t), Some((id, start))) = (tr.as_deref_mut(), compile_span) {
        if let Ok(program) = &compiled {
            // `PassStats` gives durations, not clock readings: the pass
            // children are laid end to end from the start of the compile
            // span. What is left over is the compile span's self time —
            // the verifier between passes and pipeline bookkeeping.
            let mut at = start;
            for (pass, dur, changed) in &program.outcome.pass_stats.per_pass {
                let dur = dur.as_nanos() as u64;
                t.tracer.child(&format!("pass.{pass}"), at, dur);
                at += dur;
                if *changed {
                    t.count(index, format!("transform.pass_changed.{pass}"), 1.0);
                }
            }
        }
        t.tracer.close(id);
    }
    let mut program = compiled?;
    if let Some(t) = tr.as_deref_mut() {
        t.count(
            index,
            format!("ir.ops_after.{flow}"),
            count_ops(&program.module),
        );
    }
    if !execute {
        return Ok((None, Box::new((program, app.runtime, app.queue))));
    }

    let report: RunReport = span(&mut tr, "exec_cold", || {
        run(&mut program, &mut app.runtime, &app.queue, device)
    })
    .map_err(|e| e.to_string())?;
    span(&mut tr, "validate", || (app.validate)(&app.runtime))?;
    let cycles = report.measured_cycles();

    // The rebuilt applications of the warm runs.
    let mut rebuilt: Vec<App> = Vec::new();
    if tr.is_some() {
        let edges = span(&mut tr, "dep_graph", || app.queue.dependencies()).len();
        let mut again = span(&mut tr, "rebuild", || op.build());
        let warm = span(&mut tr, "exec_warm", || {
            run(&mut program, &mut again.runtime, &again.queue, device)
        })
        .map_err(|e| format!("warm run: {e}"))?;
        same_cycles("warm run", warm.measured_cycles(), cycles)?;
        rebuilt.push(again);

        let t = tr.as_deref_mut().expect("tracing");
        t.count(index, "runtime.dep_edges", edges as f64);
        t.count(
            index,
            "runtime.bytes_to_device",
            app.runtime.bytes_to_device as f64,
        );
        t.count(
            index,
            "runtime.bytes_to_host",
            app.runtime.bytes_to_host as f64,
        );
        t.count(index, format!("sim.cycles.{flow}"), cycles);
        let s = report.total_stats();
        let events = [
            s.arith_ops,
            s.global_accesses,
            s.global_transactions,
            s.local_accesses,
            s.constant_accesses,
            s.private_accesses,
            s.barriers,
            s.work_groups,
            s.work_items,
        ];
        for (name, n) in EVENTS.iter().zip(events) {
            t.count(index, format!("sim.events.{name}"), n as f64);
        }

        if t.two_workers {
            // The two-worker device has its own plan cache: one run fills
            // it, the next is the warm one that is reported.
            let device_t2 = Device::new().threads(2);
            let mut prime = span(&mut tr, "rebuild", || op.build());
            span(&mut tr, "t2_prime", || {
                run(&mut program, &mut prime.runtime, &prime.queue, &device_t2)
            })
            .map_err(|e| format!("two-worker run: {e}"))?;
            let mut again = span(&mut tr, "rebuild", || op.build());
            let warm = span(&mut tr, "exec_warm_t2", || {
                run(&mut program, &mut again.runtime, &again.queue, &device_t2)
            })
            .map_err(|e| format!("two-worker warm run: {e}"))?;
            same_cycles("two-worker warm run", warm.measured_cycles(), cycles)?;
            rebuilt.extend([prime, again]);
        }
    }
    // Freeing them is also work only a traced op does.
    span(&mut tr, "rebuild", || drop(rebuilt));
    let leftovers = (program, app.runtime, app.queue, report);
    Ok((Some(cycles), Box::new(leftovers)))
}

/// What one run of a workload remembers between iterations.
pub struct State {
    pub workload: Workload,
    order: Rng,
    /// Simulated cycles of each op, fixed by the first iteration that
    /// executed it; a later iteration that reads differently has failed.
    cycles: Vec<Option<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl State {
    pub fn new(name: &str, seed: u64) -> Result<State, String> {
        let workload = workload(name, seed)?;
        let cycles = vec![None; workload.ops.len()];
        Ok(State {
            workload,
            // Offset so the op order is not the launch_dag graph's stream.
            order: Rng(seed ^ 0x0DDB_1A5E_5BAD_5EED),
            cycles,
            attempted: 0,
            failed: 0,
        })
    }

    /// One pass (or, on `compile_only`, four) over the op list in a freshly
    /// shuffled order, on a fresh device: users of `repro_all` pay cold
    /// caches on every run, so the benchmark does too. `warm_up` executes
    /// and validates even on `compile_only`. Returns the wall milliseconds.
    pub fn iteration(&mut self, warm_up: bool, mut tr: Option<&mut Traced>) -> f64 {
        let start = Instant::now();
        let device = Device::new().threads(self.workload.threads);
        let execute = warm_up || !self.workload.compile_only;
        let iteration_span = tr.as_deref_mut().map(|t| t.tracer.open("iteration"));
        // One pass is enough to validate every program once.
        let passes = if warm_up { 1 } else { self.workload.passes };
        for _ in 0..passes {
            let mut order: Vec<usize> = (0..self.workload.ops.len()).collect();
            self.order.shuffle(&mut order);
            for index in order {
                let op = &self.workload.ops[index];
                let op_span = tr.as_deref_mut().map(|t| t.tracer.open_op(&op.label));
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_op(index, op, &device, execute, tr.as_deref_mut())
                }))
                .unwrap_or_else(|panic| {
                    let text = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    Err(format!("panicked: {text}"))
                })
                .and_then(|cycles| match (cycles, self.cycles[index]) {
                    (Some(got), Some(want)) => same_cycles("this iteration", got, want),
                    (Some(got), None) => {
                        self.cycles[index] = Some(got);
                        Ok(())
                    }
                    (None, _) => Ok(()),
                });
                if let (Some(t), Some(id)) = (tr.as_deref_mut(), op_span) {
                    t.tracer.close_through(id);
                }
                self.attempted += 1;
                if let Err(e) = outcome {
                    self.failed += 1;
                    eprintln!("FAILED {}: {e}", op.label);
                }
            }
        }
        if let (Some(t), Some(id)) = (tr, iteration_span) {
            t.tracer.close(id);
        }
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Simulated cycles summed over the SYCL-MLIR ops, in op order.
    pub fn sim_cycles_sycl_mlir(&self) -> f64 {
        self.workload
            .ops
            .iter()
            .zip(&self.cycles)
            .filter(|(op, _)| op.flow == FlowKind::SyclMlir)
            .filter_map(|(_, c)| *c)
            .sum()
    }
}

/// Construct the workload and run its warm-up iteration; returns the state
/// and the seconds it took.
fn set_up(name: &str, seed: u64) -> Result<(State, f64), String> {
    let start = Instant::now();
    let mut state = State::new(name, seed)?;
    state.iteration(true, None);
    Ok((state, start.elapsed().as_secs_f64()))
}

/// What a run hands back: metric values by name, plus the op totals.
pub struct RunResult {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Unscaled wall time of every timed (untraced) iteration.
    pub raw_iter_ms: Vec<f64>,
    /// Median reading of the machine-speed probe during the run.
    pub probe_ms: f64,
    pub ops_per_iteration: usize,
}

/// The timed pass: tracing off, end-to-end metrics. Every set-up and every
/// iteration sits between two readings of the machine-speed probe, and its
/// wall time is scaled by them before any statistic is taken.
pub fn timed_run(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let probe = Probe::new();
    let mut probe_ms = vec![probe.run()];

    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut attempted, mut failed) = (0, 0);
    let mut state = None;
    for _ in 0..SETUPS {
        let (fresh, secs) = set_up(name, seed)?;
        setup_s.push(secs);
        probe_ms.push(probe.run());
        if let Some(old) = state.replace(fresh) {
            attempted += old.attempted;
            failed += old.failed;
        }
    }
    let mut state = state.expect("SETUPS is not zero");

    let (mut raw_iter_ms, mut peak_mb) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while raw_iter_ms.len() < MIN_TIMED_ITERATIONS || start.elapsed() < budget {
        reset_peak_rss();
        raw_iter_ms.push(state.iteration(false, None));
        // The probe's own arrays are not the workload's memory.
        peak_mb.push(status_mb("VmHWM:") - probe.resident_mb);
        probe_ms.push(probe.run());
    }
    attempted += state.attempted;
    failed += state.failed;

    let setup_s = scale_series(&setup_s, &probe_ms[..=SETUPS]);
    let iter_ms = scale_series(&raw_iter_ms, &probe_ms[SETUPS..]);
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".to_string(), median(&setup_s));
    metrics.insert("iter_ms_p50".to_string(), median(&iter_ms));
    metrics.insert("iter_ms_p10".to_string(), quantile(&iter_ms, 0.10));
    metrics.insert(
        "sim_cycles_sycl_mlir".to_string(),
        state.sim_cycles_sycl_mlir(),
    );
    metrics.insert("peak_rss_mb".to_string(), median(&peak_mb));
    metrics.insert(
        "ok_share".to_string(),
        (attempted - failed) as f64 / attempted as f64,
    );
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        raw_iter_ms,
        probe_ms: median(&probe_ms),
        ops_per_iteration: state.workload.ops_per_iteration(),
    })
}

/// Per-iteration totals of one traced iteration, by metric name.
fn layer_sums(t: &Traced, first_span: usize) -> BTreeMap<String, f64> {
    let mut ns: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &t.tracer.spans[first_span..] {
        *ns.entry(s.name.as_str()).or_default() += s.dur_ns();
    }
    let ms = |name: &str| ns.get(name).copied().unwrap_or(0) as f64 / 1e6;

    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut counts = t.counts.clone();
    counts.sort_by_key(|&(op, _, _)| op);
    for (_, name, amount) in counts {
        *out.entry(name).or_default() += amount;
    }

    out.insert("benchsuite.build_ms".into(), ms("build"));
    out.insert("benchsuite.validate_ms".into(), ms("validate"));
    let mut compile_total = 0.0;
    for flow in FLOWS {
        let v = ms(&format!("compile.{flow}"));
        compile_total += v;
        out.insert(format!("core.compile_ms.{flow}"), v);
    }
    let mut pass_total = 0.0;
    for (name, &v) in &ns {
        if let Some(pass) = name.strip_prefix("pass.") {
            pass_total += v as f64 / 1e6;
            // `licm (conservative)`-style suffixes never occur in
            // `PassStats`; a pass outside PASSES is left out of the
            // per-pass rows but still counts towards the total.
            if PASSES.contains(&pass) {
                out.insert(format!("transform.pass_ms.{pass}"), v as f64 / 1e6);
            }
        }
    }
    out.insert(
        "ir.verify_between_passes_ms".into(),
        (compile_total - pass_total).max(0.0),
    );
    out.insert("ir.teardown_ms".into(), ms("teardown"));
    let (cold, warm) = (ms("exec_cold"), ms("exec_warm"));
    out.insert("runtime.exec_cold_ms".into(), cold);
    out.insert("runtime.exec_warm_ms".into(), warm);
    out.insert("runtime.onetime_ms".into(), cold - warm);
    out.insert("runtime.dep_graph_ms".into(), ms("dep_graph"));
    let groups = out.get("runtime.command_groups").copied().unwrap_or(0.0);
    if groups > 0.0 {
        out.insert("runtime.launch_us".into(), warm * 1e3 / groups);
    }
    let events: f64 = EVENTS
        .iter()
        .filter_map(|e| out.get(&format!("sim.events.{e}")))
        .sum();
    if events > 0.0 {
        out.insert("sim.host_ns_per_event".into(), warm * 1e6 / events);
    }
    let warm_t2 = ms("exec_warm_t2");
    if warm_t2 > 0.0 {
        out.insert("sim.exec_warm_ms_t2".into(), warm_t2);
        out.insert("sim.parallel_speedup_t2".into(), warm / warm_t2);
    }

    // Share of each op span that its direct children account for.
    let own = t.tracer.self_times_ns();
    let (mut op_ns, mut op_self_ns) = (0u64, 0u64);
    for s in &t.tracer.spans[first_span..] {
        if s.name == "op" {
            op_ns += s.dur_ns();
            op_self_ns += own[s.id as usize];
        }
    }
    if op_ns > 0 {
        out.insert(
            "bench.op_span_coverage_pct".into(),
            100.0 * (op_ns - op_self_ns) as f64 / op_ns as f64,
        );
    }
    // The part of a traced iteration that a timed iteration also does.
    let extra = ms("dep_graph") + ms("rebuild") + warm + ms("t2_prime") + warm_t2;
    out.insert("bench.traced_equivalent_ms".into(), ms("iteration") - extra);
    out
}

fn geo_mean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// The traced pass: per-layer metrics. Untraced and traced iterations
/// alternate, so the tracing overhead is measured inside one run, under the
/// same machine conditions. Returns the result and the trace to write.
pub fn traced_run(name: &str, seed: u64, seconds: f64) -> Result<(RunResult, Tracer), String> {
    let (mut state, _) = set_up(name, seed)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut traced = Traced::new(name == "exec_dense" && nproc >= 2);
    // Layer times are reported as measured; the probe reading beside them
    // says what state the machine was in.
    let probe = Probe::new();
    let mut probe_ms = Vec::new();
    let mut iter_ms = Vec::new();
    let mut rows: Vec<BTreeMap<String, f64>> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while rows.len() < MIN_TRACED_ITERATIONS || start.elapsed() < budget {
        probe_ms.push(probe.run());
        iter_ms.push(state.iteration(false, None));

        traced.counts.clear();
        let first_span = traced.tracer.spans.len();
        let first_label = traced.tracer.op_labels.len();
        // The probe leaves the caches as it left them for the untraced
        // iteration; without it the traced one starts warmer and reads
        // faster than the untraced one (-4% on `launch_dag`).
        probe_ms.push(probe.run());
        state.iteration(false, Some(&mut traced));
        rows.push(layer_sums(&traced, first_span));
        if rows.len() > TRACE_FILE_ITERATIONS {
            traced.tracer.spans.truncate(first_span);
            traced.tracer.op_labels.truncate(first_label);
        }
    }

    // Times are medians over the traced iterations. Counts repeat exactly,
    // so their median is their value; a count that moved between
    // iterations is reported as a failure below.
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut unstable = Vec::new();
    for def in metrics::per_layer() {
        let column: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.get(&def.name).copied())
            .collect();
        // 0 stands for "does not occur on this workload".
        metrics.insert(
            def.name.clone(),
            if column.is_empty() {
                0.0
            } else {
                median(&column)
            },
        );
        if metrics::repeats_exactly(def.unit)
            && column.windows(2).any(|w| w[0].to_bits() != w[1].to_bits())
        {
            unstable.push(def.name);
        }
    }
    for name in &unstable {
        eprintln!("FAILED count `{name}` differs between traced iterations");
    }

    if name == "paper_sweep" {
        // Speed-up of each program over DPC++, from the cycles `State` pinned.
        let mut speedups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let ops = &state.workload.ops;
        for (i, op) in ops.iter().enumerate() {
            if op.flow == FlowKind::Dpcpp {
                continue;
            }
            // Ops of one program are adjacent and start with its DPC++ op.
            let base = (0..=i).rev().find(|&j| ops[j].flow == FlowKind::Dpcpp);
            if let (Some(c), Some(b)) = (state.cycles[i], base.and_then(|j| state.cycles[j])) {
                speedups.entry(flow_key(op.flow)).or_default().push(b / c);
            }
        }
        for (flow, paper) in [
            ("sycl_mlir", PAPER_GEOMEAN_SYCL_MLIR),
            ("acpp", PAPER_GEOMEAN_ACPP),
        ] {
            if let Some(r) = speedups.get(flow) {
                let g = geo_mean(r);
                metrics.insert(format!("benchsuite.geomean_{flow}"), g);
                metrics.insert(format!("benchsuite.paper_gap_{flow}"), (g - paper).abs());
            }
        }
    }

    // Each traced iteration against the untraced one just before it: the
    // two ran under the same machine conditions, two medians need not have.
    let overhead_pct: Vec<f64> = rows
        .iter()
        .zip(&iter_ms)
        .map(|(r, untraced)| 100.0 * (r["bench.traced_equivalent_ms"] / untraced - 1.0))
        .collect();
    metrics.insert("bench.iter_ms_p75".into(), quantile(&iter_ms, 0.75));
    metrics.insert("bench.trace_overhead_pct".into(), median(&overhead_pct));
    metrics.insert("bench.machine_probe_ms".into(), median(&probe_ms));
    metrics.insert("bench.iterations".into(), rows.len() as f64);
    metrics.insert("bench.ops_attempted".into(), state.attempted as f64);
    let failed = state.failed + unstable.len() as u64;
    metrics.insert("bench.ops_failed".into(), failed as f64);

    Ok((
        RunResult {
            metrics,
            attempted: state.attempted,
            failed,
            raw_iter_ms: iter_ms,
            probe_ms: median(&probe_ms),
            ops_per_iteration: state.workload.ops_per_iteration(),
        },
        traced.tracer,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    #[test]
    fn one_iteration_of_every_workload_has_no_failed_op() {
        for name in NAMES {
            let mut state = State::new(name, 1).unwrap();
            state.iteration(true, None);
            assert_eq!(state.failed, 0, "{name}");
            assert_eq!(state.attempted as usize, state.workload.ops.len(), "{name}");
            assert!(state.sim_cycles_sycl_mlir() > 0.0, "{name}");
            if state.workload.compile_only {
                // The timed form stops after compile and still fails nothing.
                state.iteration(false, None);
                assert_eq!(state.failed, 0, "{name} (timed)");
            }
        }
    }

    #[test]
    fn sim_cycles_do_not_depend_on_the_seed() {
        // The seed reorders ops and reshapes the launch_dag graph; the work
        // simulated is the same, so the deterministic metric has no spread.
        let cycles = |name, seed| {
            let mut state = State::new(name, seed).unwrap();
            state.iteration(true, None);
            state.sim_cycles_sycl_mlir()
        };
        for name in ["launch_dag", "exec_irregular"] {
            assert_eq!(
                cycles(name, 1).to_bits(),
                cycles(name, 2).to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn traced_op_is_covered_by_its_child_spans() {
        let mut state = State::new("launch_dag", 3).unwrap();
        let mut traced = Traced::new(false);
        state.iteration(false, Some(&mut traced));
        assert_eq!(state.failed, 0);
        let names: Vec<&str> = traced
            .tracer
            .spans
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        for expected in [
            "iteration",
            "op",
            "build",
            "compile.sycl_mlir",
            "pass.raise-host",
            "exec_cold",
            "validate",
            "exec_warm",
            "teardown",
        ] {
            assert!(
                names.contains(&expected),
                "no `{expected}` span in {names:?}"
            );
        }
        let sums = layer_sums(&traced, 0);
        assert!(sums["bench.op_span_coverage_pct"] >= 95.0, "{sums:?}");
        assert_eq!(sums["runtime.command_groups"], 2400.0);
        assert!(sums["runtime.dep_edges"] > 0.0);
        assert!(sums["ir.ops_after.sycl_mlir"] > 0.0);
        // Every pass span hangs under the compile span of the same op.
        for s in traced
            .tracer
            .spans
            .iter()
            .filter(|s| s.name.starts_with("pass."))
        {
            let parent = &traced.tracer.spans[s.parent.unwrap() as usize];
            assert_eq!(parent.name, "compile.sycl_mlir");
            assert_eq!(parent.op, s.op);
        }
    }
}
