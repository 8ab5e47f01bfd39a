//! Order statistics shared by the timed runs and the repeat mode.

/// Samples a tail percentile `p` needs so that at least ten samples lie
/// beyond it: `ceil(10 / (1 - p))` (100 for p90, 1,000 for p99).
pub fn samples_for_tail(p: f64) -> usize {
    assert!((0.0..1.0).contains(&p), "tail percentile must be in [0, 1)");
    (10.0 / (1.0 - p) - 1e-9).ceil() as usize
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p` percentile.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.iter().filter(|&&v| v > cut).count()
}

/// Sort a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), so the repeat mode reports exactly
/// the spread an outside checker computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(samples_for_tail(0.90), 100);
        assert_eq!(samples_for_tail(0.95), 200);
        assert_eq!(samples_for_tail(0.99), 1000);
        for p in [0.90, 0.95, 0.99] {
            let n = samples_for_tail(p);
            let data: Vec<f64> = (0..n).map(|v| v as f64).collect();
            assert!(beyond(&data, p) >= 10, "p{p}: {n} samples");
            let short: Vec<f64> = (0..n - 1).map(|v| v as f64).collect();
            assert!(beyond(&short, p) < 10, "p{p}: {} samples", n - 1);
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.5), 5.0);
        assert_eq!(percentile(&data, 0.9), 9.0);
        assert_eq!(percentile(&data, 1.0), 10.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&data) - 1.0).abs() < 1e-12);
    }
}
