//! `compare A.json B.json`: apply each end-to-end metric's bound to two
//! result files written by the suite, A being the parent and B the change.

use crate::json::{self, Value};
use crate::metrics::{repeats_exactly, Better};
use crate::stats::{median, spread};

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Pass,
    Regress,
    /// The run-to-run spread is wider than the bound, so the two medians
    /// cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regress => "regress",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B's median is worse (negative: better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        // No ratio exists; any move in the wrong direction is infinite.
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = worsening(median(a), median(b), better);
    // With one value a side the spread is unknown and only the bound speaks.
    let wide = [spread(a), spread(b)]
        .into_iter()
        .flatten()
        .any(|s| s > bound);
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if wide && !b_always_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    }
}

fn values(metric: &Value) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Value::as_arr)
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one row per (workload, end-to-end metric) and the layer counts
/// that are not bit-identical. `Ok(false)` when any row regressed.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |v: &Value, path: &str| {
        v.get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| format!("{path}: no `workloads`"))
    };
    let (wa, wb) = (workloads(&a, path_a)?, workloads(&b, path_b)?);

    println!("A = {path_a}\nB = {path_b}\nratio = B / A (base A)\n");
    println!(
        "{:<15} {:<22} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "ratio", "bound"
    );
    let mut ok = true;
    let (mut same, mut differing) = (0, Vec::new());
    for (name, in_a) in &wa {
        let Some((_, in_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<15} missing from B");
            ok = false;
            continue;
        };
        let metrics = |w: &Value, section: &str| {
            w.get(section)
                .and_then(Value::as_obj)
                .map(<[_]>::to_vec)
                .unwrap_or_default()
        };
        for (metric, ma) in metrics(in_a, "end_to_end") {
            let field = |k: &str| {
                ma.get(k)
                    .ok_or_else(|| format!("{name}.{metric}: no `{k}`"))
            };
            let better = field("better")?
                .as_str()
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}.{metric}: bad `better`"))?;
            let bound = field("bound")?.as_f64().unwrap_or(0.0);
            let (va, vb) = (
                values(&ma),
                in_b.get("end_to_end")
                    .and_then(|e| e.get(&metric))
                    .map(values),
            );
            let Some(vb) = vb.filter(|v| !v.is_empty()) else {
                println!("{name:<15} {metric:<22} missing from B");
                ok = false;
                continue;
            };
            let v = verdict(&va, &vb, better, bound);
            ok &= v != Verdict::Regress;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{name:<15} {metric:<22} {ma:>16.4} {mb:>16.4} {:>8.4} {:>6.1}%  {}",
                mb / ma,
                bound * 100.0,
                v.as_str()
            );
        }
        // Counts made by the program compare exactly. The benchmark's own
        // iteration and op totals depend on how long a run lasted.
        for (metric, ma) in metrics(in_a, "per_layer") {
            let exact = ma
                .get("unit")
                .and_then(Value::as_str)
                .is_some_and(repeats_exactly);
            if !exact || metric.starts_with("bench.") {
                continue;
            }
            let vb = in_b
                .get("per_layer")
                .and_then(|p| p.get(&metric))
                .map(values);
            if vb.as_deref().map(median) == Some(median(&values(&ma))) {
                same += 1;
            } else {
                differing.push(format!("{name}.{metric}"));
            }
        }
    }
    println!(
        "\nexact layer counts identical: {same}; differing: {}",
        differing.len()
    );
    for d in &differing {
        println!("  differs: {d}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_decides_when_spread_is_unknown_or_narrow() {
        assert_eq!(
            verdict(&[100.0], &[109.0], Better::Lower, 0.10),
            Verdict::Pass
        );
        assert_eq!(
            verdict(&[100.0], &[111.0], Better::Lower, 0.10),
            Verdict::Regress
        );
        assert_eq!(
            verdict(&[100.0], &[50.0], Better::Lower, 0.10),
            Verdict::Pass
        );
        assert_eq!(
            verdict(&[1.0], &[0.99], Better::Higher, 0.0),
            Verdict::Regress
        );
        assert_eq!(verdict(&[1.0], &[1.0], Better::Higher, 0.0), Verdict::Pass);
        let a = [100.0, 101.0, 99.0, 100.5];
        let b = [120.0, 121.0, 119.0, 120.5];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Regress);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &[105.0, 110.0, 95.0, 125.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[60.0, 70.0, 50.0, 75.0], Better::Lower, 0.10),
            Verdict::Pass
        );
    }

    #[test]
    fn zero_base_has_no_ratio() {
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
