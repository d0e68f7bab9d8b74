//! Order statistics for the harness: quartiles the way the driver takes
//! them, nearest-rank percentiles, and the rule for the highest percentile
//! a sample can support.

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so a spread
/// printed here is the spread the driver will compute. A single value is
/// its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // j = i*(n+1) div 4, delta = i*(n+1) mod 4, clamped to 1..=n-1.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median (second quartile) of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still leaves at least ten
/// samples beyond it in a sample of `n`; `None` below twenty samples
/// (where even the median has fewer than ten beyond).
pub fn highest_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (90.0, 10),
        (50.0, 2),
    ]
    .into_iter()
    .find(|(_, one_in)| n / one_in >= 10)
    .map(|(p, _)| p)
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        // 8 000 ops: 80 beyond p99, only 8 beyond p99.9.
        assert_eq!(highest_percentile(8_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
