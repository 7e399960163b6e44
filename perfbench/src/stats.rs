//! Order statistics over timing samples.

/// The percentiles a tail is picked from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must leave above it.
const MIN_BEYOND: usize = 10;

/// A timing summary: the median and the highest percentile of
/// [`TAIL_LADDER`] that leaves at least [`MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarised.
    pub n: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// The percentile the tail value stands for.
    pub tail_pct: f64,
    /// The value at `tail_pct` (nearest rank).
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return None;
        }
        let tail_pct = tail_percentile(n);
        Some(Summary {
            n,
            p50: nearest_rank(&sorted, 50.0),
            tail_pct,
            tail: nearest_rank(&sorted, tail_pct),
        })
    }

    /// `p50`/`pNN` label of the tail, as printed in reports.
    pub fn tail_label(&self) -> String {
        format!("p{}", self.tail_pct)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples ranked above it; the median when `n` is too small for any.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&pct| n - rank(n, pct) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// One-based nearest rank of percentile `pct` among `n` samples (the
/// small slack keeps `99.9% of 10_000` from rounding up past 9_990).
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile of an ascending, non-empty slice.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The median of `samples` (nearest rank), or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 20 samples: p50 leaves 10 above it, p75 only 5.
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn the_summary_reports_its_sample_count_and_nearest_ranks() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let summary = Summary::of(&samples).expect("non-empty");
        assert_eq!(summary.n, 40);
        assert_eq!(summary.p50, 20.0);
        assert_eq!(summary.tail_pct, 75.0);
        assert_eq!(summary.tail, 30.0);
        assert_eq!(summary.tail_label(), "p75");
        // Exactly ten samples (31..=40) lie beyond the tail.
        assert_eq!(samples.iter().filter(|&&s| s > summary.tail).count(), 10);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
