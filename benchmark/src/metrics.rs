//! Every metric the benchmark reports: name, unit, direction and, for the
//! end-to-end ones, the bound by which it may worsen before a change counts
//! as a regression. `BENCHMARK.json` restates this table; a test keeps the
//! two equal.

use crate::json::Value;
use crate::workloads;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median; end-to-end only.
    pub bound: Option<f64>,
}

/// Metrics in these units are counts made by the program: they repeat
/// exactly between iterations and between runs, and compare bit for bit.
pub fn repeats_exactly(unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "cycles")
}

/// Wall seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Compiler passes whose time and change count are reported. `canonicalize`
/// and `cse` run twice in the SYCL-MLIR pipeline; both runs are summed.
pub const PASSES: [&str; 8] = [
    "canonicalize",
    "cse",
    "licm",
    "raise-host",
    "host-device-constprop",
    "detect-reduction",
    "loop-internalization",
    "sycl-dae",
];

pub const FLOWS: [&str; 3] = ["dpcpp", "acpp", "sycl_mlir"];

pub const EVENTS: [&str; 9] = [
    "arith",
    "global_accesses",
    "global_transactions",
    "local_accesses",
    "constant_accesses",
    "private_accesses",
    "barriers",
    "work_groups",
    "work_items",
];

pub fn end_to_end() -> Vec<MetricDef> {
    let def = |name: &str, unit, better, bound| MetricDef {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
    };
    // Times are scaled to the quiet machine by the probe in `machine.rs`.
    // Even so, ten runs of one commit spread by up to 11% (p50), 17% (p10)
    // and 14% (set-up) while a neighbour loads the machine, against 2-4%
    // when it is quiet; the bounds are set by the noisy state.
    vec![
        // Workload construction plus the validated warm-up iteration; the
        // median of several set-ups in one run.
        def("setup_s", "s", Better::Lower, 0.25),
        def("iter_ms_p50", "ms", Better::Lower, 0.20),
        def("iter_ms_p10", "ms", Better::Lower, 0.25),
        // Simulated time of the generated code. It repeats exactly, so any
        // increase is a regression: simulator-only changes must leave it
        // identical, compiler changes may lower it.
        def("sim_cycles_sycl_mlir", "cycles", Better::Lower, 0.0),
        // Median over the timed iterations of the peak resident memory
        // during one iteration. On `compile_only` it spreads by 9% between
        // runs of one commit.
        def("peak_rss_mb", "MB", Better::Lower, 0.20),
        // 1 - failed/attempted. Stated as the share that succeeded because
        // a metric whose good value is 0 has no ratio to its parent.
        def("ok_share", "share", Better::Higher, 0.0),
    ]
}

pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    let mut add = |name: String, unit, better| {
        defs.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
        })
    };
    use Better::{Higher, Lower};
    add("benchsuite.build_ms".into(), "ms", Lower);
    add("benchsuite.validate_ms".into(), "ms", Lower);
    for flow in FLOWS {
        add(format!("core.compile_ms.{flow}"), "ms", Lower);
    }
    for pass in PASSES {
        add(format!("transform.pass_ms.{pass}"), "ms", Lower);
    }
    for pass in PASSES {
        add(format!("transform.pass_changed.{pass}"), "count", Higher);
    }
    add("ir.verify_between_passes_ms".into(), "ms", Lower);
    add("ir.ops_built".into(), "count", Lower);
    for flow in FLOWS {
        add(format!("ir.ops_after.{flow}"), "count", Lower);
    }
    add("ir.teardown_ms".into(), "ms", Lower);
    add("runtime.exec_cold_ms".into(), "ms", Lower);
    add("runtime.exec_warm_ms".into(), "ms", Lower);
    add("runtime.onetime_ms".into(), "ms", Lower);
    add("runtime.dep_graph_ms".into(), "ms", Lower);
    add("runtime.command_groups".into(), "count", Lower);
    add("runtime.dep_edges".into(), "count", Lower);
    add("runtime.launch_us".into(), "us", Lower);
    add("runtime.bytes_to_device".into(), "bytes", Lower);
    add("runtime.bytes_to_host".into(), "bytes", Lower);
    for event in EVENTS {
        add(format!("sim.events.{event}"), "count", Lower);
    }
    for flow in FLOWS {
        add(format!("sim.cycles.{flow}"), "cycles", Lower);
    }
    add("sim.host_ns_per_event".into(), "ns", Lower);
    add("sim.exec_warm_ms_t2".into(), "ms", Lower);
    add("sim.parallel_speedup_t2".into(), "x", Higher);
    add("benchsuite.geomean_sycl_mlir".into(), "x", Higher);
    add("benchsuite.geomean_acpp".into(), "x", Higher);
    add("benchsuite.paper_gap_sycl_mlir".into(), "x", Lower);
    add("benchsuite.paper_gap_acpp".into(), "x", Lower);
    add("bench.iter_ms_p75".into(), "ms", Lower);
    add("bench.trace_overhead_pct".into(), "%", Lower);
    add("bench.op_span_coverage_pct".into(), "%", Higher);
    add("bench.machine_probe_ms".into(), "ms", Lower);
    add("bench.iterations".into(), "count", Higher);
    add("bench.ops_attempted".into(), "count", Higher);
    add("bench.ops_failed".into(), "count", Lower);
    defs
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let metric = |d: &MetricDef| {
        let mut pairs = vec![
            ("name", Value::str(d.name.as_str())),
            ("unit", Value::str(d.unit)),
            ("better", Value::str(d.better.as_str())),
        ];
        if let Some(bound) = d.bound {
            pairs.push(("bound", Value::Num(bound)));
        }
        Value::obj(pairs)
    };
    Value::obj(vec![
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                workloads::NAMES
                    .iter()
                    .map(|&name| {
                        Value::obj(vec![
                            ("name", Value::str(name)),
                            ("why", Value::str(workloads::why(name))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in end_to_end().iter().chain(&per_layer()) {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "{}",
                d.unit
            );
        }
        assert!(per_layer().len() <= 128);
        for d in end_to_end() {
            assert!(d.bound.unwrap() <= 0.25);
        }
        for name in workloads::NAMES {
            assert!(valid_name(name));
            let why = workloads::why(name);
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
        // setup_s carries the largest bound.
        let setup = end_to_end()
            .into_iter()
            .find(|d| d.name == "setup_s")
            .unwrap();
        assert!(end_to_end().iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_in_the_repo_root_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(crate::json::parse(&text).unwrap(), benchmark_json());
    }
}
