//! Order statistics for the harness's own samples.
//!
//! Kept here rather than borrowed from `sprite-util` so that the
//! instrument does not change when the code it measures does.

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`:
/// the smallest rank with at least `p` percent of the sample at or below
/// it, clamped to `1..=n`.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // `p·n` first: for whole `p` the product is exact, so a rank that is a
    // whole number is never nudged up by the rounding of `p / 100`.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `p`-th percentile of an ascending-sorted sample.
#[must_use]
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> T {
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
/// A percentile is worth reporting only with at least ten samples beyond
/// it; the harness prints this count next to every p95.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median of `values` (mean of the two middle values when the count is
/// even). Sorts in place.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 95.0), 95);
        assert_eq!(nearest_rank(&v, 100.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[7u32], 95.0), 7);
    }

    #[test]
    fn nearest_rank_rounds_the_rank_up() {
        // 95 % of 10 is 9.5: the 10th value is the first with ≥ 95 % at or
        // below it.
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 95.0), 10);
        assert_eq!(nearest_rank(&v, 90.0), 9);
        assert_eq!(nearest_rank(&v, 50.0), 5);
    }

    #[test]
    fn ten_samples_beyond() {
        // p95 first has ten samples beyond it at n = 200; p99 needs 1,000.
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1_000, 99.0), 10);
        assert_eq!(beyond(28_800, 95.0), 1_440);
        assert_eq!(beyond(10, 100.0), 0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }
}
