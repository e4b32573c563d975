//! Medians and percentiles over per-request samples.

/// Percentiles the benchmark may report, ascending, in tenths of a
/// percent (integers, so that sample counts compare exactly).
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// A tail is trusted only with this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] that leaves at least ten of
/// `n` samples beyond it; the median when even that is not met.
pub fn highest_percentile(n: usize) -> usize {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n * (1000 - p) / 1000 >= MIN_BEYOND)
        .unwrap_or(LADDER[0])
}

/// Nearest-rank percentile (`p` in tenths of a percent) of an ascending
/// slice.
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * p).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of one latency series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    /// The percentile `tail` was taken at, in tenths of a percent: the
    /// one asked for, or the highest the sample count supports if that
    /// is lower.
    pub tail_percentile: usize,
    pub tail: f64,
}

/// Summarises `samples`, taking the tail at `wanted` when enough
/// samples lie beyond it.
pub fn latency(samples: &[f64], wanted: usize) -> Latency {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_percentile = wanted.min(highest_percentile(sorted.len()));
    Latency {
        samples: sorted.len(),
        p50: percentile(&sorted, 500),
        tail_percentile,
        tail: percentile(&sorted, tail_percentile),
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 500)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), 500);
        assert_eq!(highest_percentile(20), 500);
        assert_eq!(highest_percentile(39), 500);
        assert_eq!(highest_percentile(40), 750);
        assert_eq!(highest_percentile(99), 750);
        assert_eq!(highest_percentile(100), 900);
        assert_eq!(highest_percentile(199), 900);
        assert_eq!(highest_percentile(200), 950);
        assert_eq!(highest_percentile(999), 950);
        assert_eq!(highest_percentile(1000), 990);
        assert_eq!(highest_percentile(9_999), 990);
        assert_eq!(highest_percentile(10_000), 999);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 950), 95.0);
        assert_eq!(percentile(&v, 999), 100.0);
        assert_eq!(percentile(&[3.0], 990), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_falls_back_when_samples_are_few() {
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        let l = latency(&v, 950);
        assert_eq!(l.tail_percentile, 900);
        assert_eq!(l.tail, 135.0);
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let l = latency(&v, 950);
        assert_eq!((l.tail_percentile, l.tail, l.p50), (950, 380.0, 200.0));
    }
}
