//! Nearest-rank percentiles and the sample-count rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p90 needs 100 samples and a p50 needs 20.

/// Samples that must rank above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: `⌈p/100 · n⌉`, at least 1.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples rank strictly above percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// One series of measurements (milliseconds, KiB, …).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The nearest-rank percentile, or `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
            .get(nearest_rank(sorted.len(), p).checked_sub(1)?)
            .copied()
    }

    /// The percentile only when the sample-count rule allows reporting it.
    pub fn reportable(&self, p: f64) -> Option<f64> {
        if beyond(self.len(), p) >= MIN_BEYOND {
            self.percentile(p)
        } else {
            None
        }
    }

    /// The median without the sample-count rule: the middle sample, or
    /// the mean of the middle two for an even count (0 without samples).
    /// Used for set-up time and per-layer decompositions, whose sample
    /// counts are printed beside them.
    pub fn median(&self) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        match (sorted.get(mid.wrapping_sub(1)), sorted.get(mid)) {
            (Some(&lo), Some(&hi)) if sorted.len().is_multiple_of(2) => (lo + hi) / 2.0,
            (_, Some(&middle)) => middle,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        // Pushed out of order: percentiles must sort.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(10, 50.0), 5);
        assert_eq!(nearest_rank(11, 50.0), 6);
        assert_eq!(nearest_rank(100, 90.0), 90);
        assert_eq!(nearest_rank(101, 90.0), 91);
        assert_eq!(nearest_rank(1, 1.0), 1);
        assert_eq!(nearest_rank(5, 100.0), 5);
        assert_eq!(samples(10).percentile(50.0), Some(5.0));
        assert_eq!(samples(100).percentile(90.0), Some(90.0));
        assert_eq!(samples(3).percentile(100.0), Some(3.0));
        assert_eq!(Samples::default().percentile(50.0), None);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(19, 50.0), 9);
        assert_eq!(beyond(0, 50.0), 0);
        assert_eq!(samples(100).reportable(90.0), Some(90.0));
        assert_eq!(samples(99).reportable(90.0), None);
        assert_eq!(samples(20).reportable(50.0), Some(10.0));
        assert_eq!(samples(19).reportable(50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(samples(1).median(), 1.0);
        assert_eq!(samples(2).median(), 1.5);
        assert_eq!(samples(5).median(), 3.0);
        assert_eq!(samples(10).median(), 5.5);
    }
}
