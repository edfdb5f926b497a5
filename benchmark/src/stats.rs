//! Order statistics: the percentile picker, the median-of-slices reducer
//! and the spread that `compare` holds against a metric's bound.

/// Percentiles the benchmark is willing to report as a tail, highest first.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// How many samples must lie beyond a percentile before it is reported: a
/// tail resting on fewer is the luck of a handful of requests.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Index of percentile `p` in a sorted sample of `n` values, by the
/// nearest-rank rule: the smallest index with at least `p·n` values at or
/// below it.
pub fn percentile_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // `0.999 * 10_000.0` is a hair above 9990 in binary; without the small
    // slack the product would round up a whole rank.
    let rank = (p.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Percentile `p` of an ascending `sorted` sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[percentile_index(sorted.len(), p)]
}

/// Number of samples strictly beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - percentile_index(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so a spread computed here matches
/// the one the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; with fewer
/// than four values, the full range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let (q1, q3) = quartiles(values);
        q3 - q1
    } else {
        let (lo, hi) = min_max(values);
        hi - lo
    };
    (width / mid).abs()
}

pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_index_is_nearest_rank() {
        // 100 samples: p50 is the 50th value, p99 the 99th, p100 the last.
        assert_eq!(percentile_index(100, 0.50), 49);
        assert_eq!(percentile_index(100, 0.99), 98);
        assert_eq!(percentile_index(100, 1.0), 99);
        assert_eq!(percentile_index(100, 0.0), 0);
        // Rounds up: p99 of 150 samples covers ceil(148.5) = 149 values.
        assert_eq!(percentile_index(150, 0.99), 148);
        assert_eq!(percentile_index(1, 0.99), 0);
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_eq!(percentile(&sorted, 0.91), 10.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 has exactly 10 beyond; of 999 only 9.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(999), Some(0.95));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(40), Some(0.75));
        assert_eq!(highest_supported_tail(20), Some(0.50));
        assert_eq!(highest_supported_tail(19), None);
        assert_eq!(highest_supported_tail(0), None);
    }

    #[test]
    fn median_of_slices_ignores_order_and_one_outlier() {
        assert_eq!(median(&[21.1, 8.0, 19.4]), 19.4);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert!((spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        // Fewer than four values: the range over the median.
        assert!((spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
