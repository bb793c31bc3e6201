//! Order statistics over small samples of wall-time measurements.

/// The `q`-quantile (0..=1) of `values`, interpolating linearly between the
/// two nearest ranks, so the median of an even count is the mean of the two
/// middle values. `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median —
/// the run-to-run spread the acceptance rule is stated in. The quartiles
/// are Python's `statistics.quantiles(values, n=4)` (exclusive method), so
/// the number matches what a reviewer computes from the same values.
/// `None` with fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let med = median(&sorted);
    (med != 0.0).then(|| (cut(3) - cut(1)).abs() / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        // 0.1 * 4 = rank 0.4 between 1 and 2.
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((spread(&[1.0, 2.0]).unwrap() - 1.5 / 1.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0, 3.0, 3.0]), Some(0.0));
        assert_eq!(spread(&[3.0]), None);
    }
}
