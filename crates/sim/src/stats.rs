//! Summary statistics over trial outcomes.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample of real values (stabilization times, MIS
/// sizes, bit counts, …).
///
/// # Example
///
/// ```
/// use mis_sim::stats::Summary;
///
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count, 4);
/// assert!((s.mean - 2.5).abs() < 1e-12);
/// assert!((s.median - 2.5).abs() < 1e-12);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (unbiased, 0 if fewer than two samples).
    pub std_dev: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
    /// Median (interpolated).
    pub median: f64,
    /// 10th percentile (interpolated).
    pub p10: f64,
    /// 90th percentile (interpolated).
    pub p90: f64,
}

impl Summary {
    /// Computes summary statistics of `samples`.
    ///
    /// An empty slice yields the all-zero summary; NaN values are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "samples must not contain NaN"
        );
        let count = samples.len();
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p10: 0.0,
                p90: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: quantile(&sorted, 0.5),
            p10: quantile(&sorted, 0.1),
            p90: quantile(&sorted, 0.9),
        }
    }

    /// Convenience constructor from integer samples (e.g. round counts).
    pub fn from_counts<I: IntoIterator<Item = usize>>(samples: I) -> Self {
        let v: Vec<f64> = samples.into_iter().map(|x| x as f64).collect();
        Summary::from_samples(&v)
    }
}

/// Linear-interpolation quantile of an already sorted, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sample() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[7.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.p10, 7.5);
        assert_eq!(s.p90, 7.5);
    }

    #[test]
    fn known_statistics() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn from_counts_matches_from_samples() {
        let a = Summary::from_counts([1usize, 2, 3]);
        let b = Summary::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::from_samples(&[1.0, f64::NAN]);
    }

    proptest! {
        /// Invariants: min ≤ p10 ≤ median ≤ p90 ≤ max and min ≤ mean ≤ max.
        #[test]
        fn quantile_ordering(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::from_samples(&samples);
            prop_assert!(s.min <= s.p10 + 1e-9);
            prop_assert!(s.p10 <= s.median + 1e-9);
            prop_assert!(s.median <= s.p90 + 1e-9);
            prop_assert!(s.p90 <= s.max + 1e-9);
            prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
            prop_assert!(s.std_dev >= 0.0);
        }
    }
}
