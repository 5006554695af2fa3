//! Summary statistics over repeated experiment runs.
//!
//! The paper (§5.1) observes high run-to-run variance in convergence
//! time and therefore reports *the median of 5 repetitions* for every
//! experiment setting; [`median`] is that statistic, and
//! [`Summary`] captures the spread that Figure 2 visualizes.

use serde::{Deserialize, Serialize};

/// Five-number summary plus mean and standard deviation.
///
/// # Example
///
/// ```
/// use lagover_sim::stats::Summary;
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
/// assert_eq!(s.median, 3.0);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 100.0);
/// assert_eq!(s.count, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median (linear interpolation).
    pub median: f64,
    /// Third quartile (linear interpolation).
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for a single sample).
    pub stddev: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for empty input or any NaN.
    pub fn from_samples(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
        // Both sums fold over the pre-sorted sample buffer, so the
        // accumulation order is fixed for any input permutation.
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let stddev = if sorted.len() < 2 {
            0.0
        } else {
            // Sorted order again: see the mean above.
            let var =
                sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (sorted.len() - 1) as f64;
            var.sqrt()
        };
        Some(Summary {
            count: sorted.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean,
            stddev,
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Linear-interpolation quantile of an already-sorted, non-empty slice.
///
/// # Panics
///
/// Panics (via debug assertion) if `sorted` is empty or `q` is outside
/// `[0, 1]` — both are programming errors in this workspace.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of unsorted samples; `None` if empty or contains NaN.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::from_samples(samples).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_data() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert!((s.stddev - 2.138).abs() < 0.01);
        assert_eq!(s.median, 4.5);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!(s.iqr() > 0.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 3.0);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(Summary::from_samples(&[]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
    }
}

/// A two-sided percentile-bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub low: f64,
    /// Upper bound.
    pub high: f64,
    /// Nominal coverage (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.low && value <= self.high
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.high - self.low
    }
}

/// Percentile-bootstrap confidence interval for the *median* of
/// `samples` at the given `level` (e.g. 0.95), using `iterations`
/// resamples. Deterministic in the RNG.
///
/// Returns `None` for empty/NaN input or a level outside `(0, 1)`.
pub fn bootstrap_median_ci(
    samples: &[f64],
    level: f64,
    iterations: usize,
    rng: &mut crate::rng::SimRng,
) -> Option<ConfidenceInterval> {
    if samples.is_empty()
        || samples.iter().any(|x| x.is_nan())
        || !(0.0..1.0).contains(&level)
        || level <= 0.0
        || iterations == 0
    {
        return None;
    }
    let mut medians = Vec::with_capacity(iterations);
    let mut resample = vec![0.0; samples.len()];
    for _ in 0..iterations {
        for slot in resample.iter_mut() {
            *slot = samples[rng.index(samples.len())];
        }
        medians.push(median(&resample).expect("non-empty, no NaN"));
    }
    medians.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let alpha = (1.0 - level) / 2.0;
    Some(ConfidenceInterval {
        low: quantile_sorted(&medians, alpha),
        high: quantile_sorted(&medians, 1.0 - alpha),
        level,
    })
}

#[cfg(test)]
mod bootstrap_tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn ci_brackets_the_true_median_of_a_tight_sample() {
        let mut rng = SimRng::seed_from(5);
        let samples: Vec<f64> = (0..200).map(|_| 50.0 + rng.f64()).collect();
        let ci = bootstrap_median_ci(&samples, 0.95, 500, &mut rng).unwrap();
        assert!(ci.contains(median(&samples).unwrap()));
        assert!(ci.width() < 1.0, "width {}", ci.width());
        assert!(ci.low >= 50.0 && ci.high <= 51.0);
    }

    #[test]
    fn wider_spread_gives_wider_ci() {
        let mut rng = SimRng::seed_from(6);
        let tight: Vec<f64> = (0..100).map(|i| 10.0 + (i % 3) as f64).collect();
        let wide: Vec<f64> = (0..100).map(|i| 10.0 + (i % 37) as f64).collect();
        let ci_tight = bootstrap_median_ci(&tight, 0.95, 400, &mut rng).unwrap();
        let ci_wide = bootstrap_median_ci(&wide, 0.95, 400, &mut rng).unwrap();
        assert!(ci_wide.width() >= ci_tight.width());
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let mut rng = SimRng::seed_from(7);
        assert!(bootstrap_median_ci(&[], 0.95, 100, &mut rng).is_none());
        assert!(bootstrap_median_ci(&[1.0], 1.5, 100, &mut rng).is_none());
        assert!(bootstrap_median_ci(&[1.0], 0.95, 0, &mut rng).is_none());
        assert!(bootstrap_median_ci(&[f64::NAN], 0.95, 100, &mut rng).is_none());
    }

    #[test]
    fn single_sample_collapses_to_a_point() {
        let mut rng = SimRng::seed_from(8);
        let ci = bootstrap_median_ci(&[42.0], 0.9, 100, &mut rng).unwrap();
        assert_eq!(ci.low, 42.0);
        assert_eq!(ci.high, 42.0);
        assert_eq!(ci.width(), 0.0);
    }
}

/// Result of a one-sided Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MannWhitney {
    /// The U statistic for the first sample.
    pub u: f64,
    /// Normal-approximation z-score (tie-corrected).
    pub z: f64,
    /// One-sided p-value for the alternative "sample `a` is
    /// stochastically smaller than sample `b`".
    pub p_less: f64,
}

/// One-sided Mann–Whitney U test that sample `a` tends to be *smaller*
/// than sample `b` (e.g. hybrid latencies vs greedy latencies), using
/// the tie-corrected normal approximation. Adequate for n >= ~8 per
/// side; returns `None` for empty/NaN inputs or when both samples are
/// a single constant value (no variance).
pub fn mann_whitney_less(a: &[f64], b: &[f64]) -> Option<MannWhitney> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    if a.iter().chain(b.iter()).any(|x| x.is_nan()) {
        return None;
    }
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;
    // Rank the pooled samples with midranks for ties.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&x| (x, 0usize))
        .chain(b.iter().map(|&x| (x, 1usize)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("no NaN"));
    let total = pooled.len();
    let mut rank_sum_a = 0.0;
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < total {
        let mut j = i;
        while j + 1 < total && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        // Midrank of positions i..=j (1-based ranks).
        let midrank = (i + 1 + j + 1) as f64 / 2.0;
        let tie_size = (j - i + 1) as f64;
        tie_term += tie_size.powi(3) - tie_size;
        for item in pooled.iter().take(j + 1).skip(i) {
            if item.1 == 0 {
                rank_sum_a += midrank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
    let mean_u = n1 * n2 / 2.0;
    let n = n1 + n2;
    let var_u = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if var_u <= 0.0 {
        return None;
    }
    // Continuity-corrected z for the "less" alternative.
    let z = (u - mean_u + 0.5) / var_u.sqrt();
    Some(MannWhitney {
        u,
        z,
        p_less: normal_cdf(z),
    })
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (absolute error < 1.5e-7 — ample for reporting p-values).
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf(x))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod mann_whitney_tests {
    use super::*;

    #[test]
    fn clearly_smaller_sample_gets_tiny_p() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect(); // 0..19
        let b: Vec<f64> = (0..20).map(|i| 100.0 + i as f64).collect(); // 100..119
        let mw = mann_whitney_less(&a, &b).unwrap();
        assert!(mw.p_less < 1e-6, "p {}", mw.p_less);
        assert_eq!(mw.u, 0.0, "no b beats any a");
    }

    #[test]
    fn identical_distributions_give_large_p() {
        let a: Vec<f64> = (0..30).map(|i| (i % 10) as f64).collect();
        let b = a.clone();
        let mw = mann_whitney_less(&a, &b).unwrap();
        assert!(mw.p_less > 0.4, "p {}", mw.p_less);
    }

    #[test]
    fn reversed_samples_give_p_near_one() {
        let a: Vec<f64> = (0..15).map(|i| 50.0 + i as f64).collect();
        let b: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let mw = mann_whitney_less(&a, &b).unwrap();
        assert!(mw.p_less > 0.999, "p {}", mw.p_less);
    }

    #[test]
    fn ties_are_handled() {
        let a = vec![1.0, 1.0, 1.0, 2.0, 2.0];
        let b = vec![2.0, 2.0, 3.0, 3.0, 3.0];
        let mw = mann_whitney_less(&a, &b).unwrap();
        assert!(mw.p_less < 0.05, "p {}", mw.p_less);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(mann_whitney_less(&[], &[1.0]).is_none());
        assert!(mann_whitney_less(&[1.0], &[]).is_none());
        assert!(mann_whitney_less(&[f64::NAN], &[1.0]).is_none());
        assert!(mann_whitney_less(&[1.0, 1.0], &[1.0, 1.0]).is_none());
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        object(vec![
            ("count", self.count.to_json()),
            ("min", Json::F64(self.min)),
            ("q1", Json::F64(self.q1)),
            ("median", Json::F64(self.median)),
            ("q3", Json::F64(self.q3)),
            ("max", Json::F64(self.max)),
            ("mean", Json::F64(self.mean)),
            ("stddev", Json::F64(self.stddev)),
        ])
    }
}

impl FromJson for Summary {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Summary {
            count: usize::from_json(value.get("count")?)?,
            min: value.get("min")?.as_f64()?,
            q1: value.get("q1")?.as_f64()?,
            median: value.get("median")?.as_f64()?,
            q3: value.get("q3")?.as_f64()?,
            max: value.get("max")?.as_f64()?,
            mean: value.get("mean")?.as_f64()?,
            stddev: value.get("stddev")?.as_f64()?,
        })
    }
}

impl ToJson for ConfidenceInterval {
    fn to_json(&self) -> Json {
        object(vec![
            ("low", Json::F64(self.low)),
            ("high", Json::F64(self.high)),
            ("level", Json::F64(self.level)),
        ])
    }
}

impl FromJson for ConfidenceInterval {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ConfidenceInterval {
            low: value.get("low")?.as_f64()?,
            high: value.get("high")?.as_f64()?,
            level: value.get("level")?.as_f64()?,
        })
    }
}

impl ToJson for MannWhitney {
    fn to_json(&self) -> Json {
        object(vec![
            ("u", Json::F64(self.u)),
            ("z", Json::F64(self.z)),
            ("p_less", Json::F64(self.p_less)),
        ])
    }
}

impl FromJson for MannWhitney {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(MannWhitney {
            u: value.get("u")?.as_f64()?,
            z: value.get("z")?.as_f64()?,
            p_less: value.get("p_less")?.as_f64()?,
        })
    }
}
