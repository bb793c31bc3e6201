//! The repo benchmark. See README.md for what is measured and why.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//! run.sh [--seed N] [--seconds S] [--runs K] [--out F]    every workload, timed and traced
//! run.sh compare A.json B.json                            apply the bounds to two result files
//! run.sh describe                                         print the content of BENCHMARK.json
//! ```

mod compare;
mod json;
mod launch_dag;
mod machine;
mod metrics;
mod runner;
mod stats;
mod trace;
mod workloads;

use json::Value;
use metrics::MetricDef;
use std::process::{Command, ExitCode, Stdio};

/// Directory for what a run leaves behind, relative to the repo root that
/// `run.sh` changes into.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        runs: 1,
        out: format!("{OUT_DIR}/results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(format!(
                        "--seconds must be in (0, 3600], got {}",
                        parsed.seconds
                    ));
                }
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                parsed.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(1..=100).contains(&parsed.runs) {
                    return Err(format!("--runs must be 1..=100, got {}", parsed.runs));
                }
            }
            "--out" => parsed.out = value()?.to_string(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The benchmark measures the defaults. A `SYCL_MLIR_SIM_*` variable would
/// silently select another engine, tier or schedule, so it refuses to start.
fn refuse_simulator_overrides() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SYCL_MLIR_SIM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} is set; the benchmark measures the simulator's defaults — unset it and run again",
            set.join(", ")
        ))
    }
}

fn describe(def: &MetricDef) -> String {
    let bound = def
        .bound
        .map_or(String::new(), |b| format!(", may worsen by {}%", b * 100.0));
    format!("{} is better{bound}", def.better.as_str())
}

/// One run of one workload. Prints every metric of the pass by name, then
/// the one-line JSON result.
fn single_run(args: &Args, workload: &str) -> Result<(), String> {
    let (result, defs) = if args.trace {
        let (result, tracer) = runner::traced_run(workload, args.seed, args.seconds)?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace.json");
        std::fs::write(&path, tracer.to_json().render()).map_err(|e| format!("{path}: {e}"))?;
        (result, metrics::per_layer())
    } else {
        (
            runner::timed_run(workload, args.seed, args.seconds)?,
            metrics::end_to_end(),
        )
    };

    println!(
        "# {workload} seed {} trace {}: {} untraced iterations of {} ops, {} attempted, {} failed",
        args.seed,
        u8::from(args.trace),
        result.raw_iter_ms.len(),
        result.ops_per_iteration,
        result.attempted,
        result.failed,
    );
    println!(
        "# as measured: iteration p50 {:.3} ms; machine-speed probe {:.3} ms (quiet machine: {} ms)",
        stats::median(&result.raw_iter_ms),
        result.probe_ms,
        machine::QUIET_PROBE_MS,
    );
    let mut out = Vec::new();
    for def in &defs {
        let value = result.metrics[&def.name];
        println!(
            "{:<44} {:>18.6} {:<7} ({})",
            def.name,
            value,
            def.unit,
            describe(def)
        );
        out.push((
            def.name.as_str(),
            Value::obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::str(def.unit)),
            ]),
        ));
    }
    let line = Value::obj(vec![
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", Value::obj(out)),
    ]);
    println!("{}", line.render());
    Ok(())
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run this executable once on one workload in a process of its own — so
/// `peak_rss_mb` is that workload's alone — and parse its last line.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("run of {workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Pass on the run's own summary (iterations, unscaled median, probe).
    for line in stdout.lines().filter(|l| l.starts_with("# ")) {
        eprintln!("{line}");
    }
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    json::parse(last)
}

/// Every workload, timed pass then traced pass, `runs` times over with
/// seeds `seed`, `seed + 1`, …; writes the result file and prints every
/// metric by name.
fn suite(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all_ok = true;
    let mut workloads_json = Vec::new();
    let mut sizes_json = Vec::new();
    for name in workloads::NAMES {
        let w = workloads::workload(name, args.seed)?;
        sizes_json.push((
            name,
            Value::Obj(
                w.sizes
                    .iter()
                    .map(|(p, s)| (p.clone(), Value::Num(*s as f64)))
                    .collect(),
            ),
        ));

        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut sections = Vec::new();
        for (section, trace, defs) in [
            ("end_to_end", false, metrics::end_to_end()),
            ("per_layer", true, metrics::per_layer()),
        ] {
            let mut values: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
            for run in 0..args.runs {
                let seed = args.seed + run as u64;
                eprintln!(
                    "# {name}: {section} run {} of {} (seed {seed})",
                    run + 1,
                    args.runs
                );
                let line = child_run(name, seed, args.seconds, trace)?;
                let field = |k: &str| {
                    line.get(k)
                        .and_then(Value::as_f64)
                        .ok_or(format!("no `{k}`"))
                };
                attempted += field("attempted")?;
                failed += field("failed")?;
                for (def, column) in defs.iter().zip(&mut values) {
                    let v = line
                        .get("metrics")
                        .and_then(|m| m.get(&def.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{name}: run did not report `{}`", def.name))?;
                    column.push(v);
                }
            }
            let mut entries = Vec::new();
            for (def, column) in defs.iter().zip(values) {
                let med = stats::median(&column);
                let spread = stats::spread(&column)
                    .map_or(String::new(), |s| format!(", spread {:.2}%", s * 100.0));
                println!(
                    "{name:<15} {:<44} {med:>18.6} {:<7} ({}{spread})",
                    def.name,
                    def.unit,
                    describe(def)
                );
                let mut pairs = vec![
                    ("unit", Value::str(def.unit)),
                    ("better", Value::str(def.better.as_str())),
                ];
                if let Some(bound) = def.bound {
                    pairs.push(("bound", Value::Num(bound)));
                }
                pairs.push(("median", Value::Num(med)));
                pairs.push((
                    "values",
                    Value::Arr(column.into_iter().map(Value::Num).collect()),
                ));
                entries.push((def.name.clone(), Value::obj(pairs)));
            }
            sections.push((section, Value::Obj(entries)));
        }
        all_ok &= failed == 0.0;
        let mut pairs = vec![
            (
                "ops_per_iteration",
                Value::Num(w.ops_per_iteration() as f64),
            ),
            ("threads", Value::Num(w.threads as f64)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
        ];
        pairs.extend(sections);
        workloads_json.push((name, Value::obj(pairs)));
    }

    let results = Value::obj(vec![
        ("schema", Value::Num(1.0)),
        (
            "env",
            Value::obj(vec![
                ("nproc", Value::Num(nproc as f64)),
                ("rustc", Value::str(command_output("rustc", &["--version"]))),
                (
                    "git_commit",
                    Value::str(command_output("git", &["rev-parse", "HEAD"])),
                ),
                ("seed", Value::Num(args.seed as f64)),
                ("seconds", Value::Num(args.seconds)),
                ("runs", Value::Num(args.runs as f64)),
                ("sizes", Value::obj(sizes_json)),
            ]),
        ),
        ("workloads", Value::obj(workloads_json)),
        // The change that defines the benchmark claims no gain.
        ("claim", Value::Null),
    ]);
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, results.render_pretty()).map_err(|e| format!("{}: {e}", args.out))?;
    println!("# wrote {} (\"claim\": null)", args.out);
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", metrics::benchmark_json().render_pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        _ => refuse_simulator_overrides()
            .and_then(|()| parse_args(&args))
            .and_then(|parsed| match parsed.workload.clone() {
                // A failed op is reported in the JSON line, not by the
                // exit status: the run itself completed.
                Some(w) => single_run(&parsed, &w).map(|()| true),
                None => suite(&parsed),
            }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
