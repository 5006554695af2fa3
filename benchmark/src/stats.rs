//! Order statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the exclusive method), because that is the arithmetic the
//! acceptance check applies to the numbers this benchmark prints.

/// Percentiles tried by [`tail_percentile`], ascending.
const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// ten samples beyond it, when one above the median exists.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A number for a report: six decimals, or three significant digits
/// where those would round a small number away.
pub fn number(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.3e}")
    } else {
        format!("{value:.6}")
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `k`-th of `n` cut points of `sorted`, exclusive method: the
/// position is `k·(len+1)/n` in 1-based ranks, interpolated linearly
/// and clamped to the ends.
fn cut_point(sorted: &[f64], k: usize, n: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let pos = k * (len + 1);
    let j = (pos / n).clamp(1, len - 1);
    let frac = (pos as f64 - (j * n) as f64) / n as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
}

/// Median of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    cut_point(&sorted(samples), 1, 2)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of the `sorted` samples beyond it, with its nearest-rank value.
fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let (v, n) = (sorted, sorted.len());
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, ((p / 100.0) * n as f64).ceil() as usize))
        .find(|&(_, rank)| rank >= 1 && n - rank >= TAIL_MIN_BEYOND)
        .map(|(p, rank)| (p, v[rank - 1]))
}

/// Summarizes `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let v = sorted(samples);
    Summary {
        n: v.len(),
        min: v[0],
        q1: cut_point(&v, 1, 4),
        median: cut_point(&v, 2, 4),
        q3: cut_point(&v, 3, 4),
        max: v[v.len() - 1],
        tail: tail_percentile(&v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// `statistics.quantiles([1..10], n=4)` is `[2.75, 5.5, 8.25]`;
    /// `statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4)` is
    /// `[2.0, 8.0, 32.0]`.
    #[test]
    fn quartiles_match_the_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        let s = summarize(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
    }

    /// With two samples the exclusive positions fall outside the data
    /// (0.75 and 2.25) and Python extrapolates: `quantiles([1, 2],
    /// n=4)` is `[0.75, 1.5, 2.25]`.
    #[test]
    fn quartiles_of_two_samples_extrapolate_like_python() {
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn small_numbers_keep_three_significant_digits() {
        assert_eq!(number(2.359699), "2.359699");
        assert_eq!(number(3.04e-7), "3.040e-7");
        assert_eq!(number(0.0), "0.000000");
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summarize(&ten).spread(), 1.0);
        assert_eq!(summarize(&[5.0]).spread(), 0.0);
    }

    /// Ten samples beyond p90 need 100 samples; 28 samples (the
    /// `recover_crash` count) have only 7 beyond p75, so no tail.
    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let of = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&of(7)), None);
        assert_eq!(tail_percentile(&of(28)), None);
        assert_eq!(tail_percentile(&of(40)), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&of(99)), Some((75.0, 75.0)));
        assert_eq!(tail_percentile(&of(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&of(200)), Some((95.0, 190.0)));
        assert_eq!(tail_percentile(&of(1000)), Some((99.0, 990.0)));
    }
}
