//! Order statistics used throughout the ledger.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q·n)` (1-based).  `q` in `(0, 1]`.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// The tail percentile, reported only when at least ten samples lie
/// beyond it (so the figure is a percentile, not one outlier).
#[must_use]
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty() && samples_beyond(sorted.len(), q) >= 10).then(|| percentile(sorted, q))
}

/// Sort ascending (total order; the ledger never produces NaN times).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median by nearest rank of an unsorted sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// The quartile cut points of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), which is what the PR driver computes.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    assert!(m >= 2, "quartiles need two samples");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the driver's
/// steadiness figure.
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
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
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100: rank 90, ten samples beyond.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        // p99 of 100 leaves one sample beyond: not reported.
        assert_eq!(tail_percentile(&v, 0.99), None);
        // 99 samples: p90 is rank 90, nine beyond.
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
        // p99 needs 1000.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), [1.5, 3.0, 8.5]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0, 4.0, 4.0]), 0.0);
    }
}
