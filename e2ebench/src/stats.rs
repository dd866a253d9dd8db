//! Order statistics used by every metric the benchmark reports.
//!
//! Per-call latencies use the nearest-rank percentile: the value at rank
//! `ceil(p/100 · n)` of the sorted samples, so every reported latency is
//! one that was actually measured. A tail percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond its rank; otherwise it
//! would describe a handful of calls rather than a tail.

/// Samples that must lie beyond a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of already sorted samples; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

/// Nearest-rank tail percentile: `None` unless at least [`MIN_BEYOND`]
/// samples lie beyond its rank (for p99 that takes 1000 samples).
pub fn tail_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || n - nearest_rank(p, n) < MIN_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// Median of per-round aggregates (mean of the two middle values for an
/// even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let xs: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5));
        assert_eq!(percentile(&xs, 51.0), Some(6));
        assert_eq!(percentile(&xs, 100.0), Some(10));
        assert_eq!(percentile(&xs, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 99.0), Some(7));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_its_rank() {
        let below: Vec<u64> = (1..=999).collect();
        // rank ceil(989.01) = 990 leaves 9 beyond.
        assert_eq!(tail_percentile(&below, 99.0), None);
        let enough: Vec<u64> = (1..=1000).collect();
        // rank 990 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(&enough, 99.0), Some(990));
        assert_eq!(tail_percentile(&enough, 50.0), Some(500));
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
