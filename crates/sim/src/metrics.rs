//! Measurement primitive: the time series.
//!
//! Every experiment in the harness records a per-round time series of the
//! *satisfied fraction* (online peers whose latency constraint is met and
//! whose chain reaches the source). The type is deliberately simple,
//! allocation-light, and serializable so the experiment runners can
//! emit it as JSON/CSV.

use serde::{Deserialize, Serialize};

/// A sequence of `(x, y)` samples, typically `(round, value)`.
///
/// # Example
///
/// ```
/// use lagover_sim::metrics::TimeSeries;
/// let mut s = TimeSeries::new("satisfied_fraction");
/// s.push(0.0, 0.0);
/// s.push(1.0, 0.5);
/// assert_eq!(s.last(), Some((1.0, 0.5)));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, x: f64, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        match (self.xs.last(), self.ys.last()) {
            (Some(&x), Some(&y)) => Some((x, y)),
            _ => None,
        }
    }

    /// Iterates over `(x, y)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.xs.iter().copied().zip(self.ys.iter().copied())
    }

    /// The x-values.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-values.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mean of the y-values over the final `window` samples (useful for
    /// steady-state summaries of churn runs). Returns `None` when the
    /// series has fewer than `window` samples or `window` is zero.
    pub fn tail_mean(&self, window: usize) -> Option<f64> {
        if window == 0 || self.ys.len() < window {
            return None;
        }
        let tail = &self.ys[self.ys.len() - window..];
        Some(tail.iter().sum::<f64>() / window as f64)
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for TimeSeries {
    fn to_json(&self) -> Json {
        object(vec![
            ("name", Json::Str(self.name.clone())),
            ("xs", self.xs.to_json()),
            ("ys", self.ys.to_json()),
        ])
    }
}

impl FromJson for TimeSeries {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(TimeSeries {
            name: value.get("name")?.as_str()?.to_string(),
            xs: Vec::from_json(value.get("xs")?)?,
            ys: Vec::from_json(value.get("ys")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_round_trip() {
        let mut s = TimeSeries::new("frac");
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        for i in 0..5 {
            s.push(i as f64, i as f64 * 0.1);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.last(), Some((4.0, 0.4)));
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected[2], (2.0, 0.2));
        assert_eq!(s.xs().len(), s.ys().len());
    }

    #[test]
    fn time_series_tail_mean() {
        let mut s = TimeSeries::new("v");
        for i in 0..10 {
            s.push(i as f64, if i < 5 { 0.0 } else { 1.0 });
        }
        assert_eq!(s.tail_mean(5), Some(1.0));
        assert_eq!(s.tail_mean(10), Some(0.5));
        assert_eq!(s.tail_mean(11), None);
        assert_eq!(s.tail_mean(0), None);
    }

    #[test]
    fn jsonio_round_trip() {
        let mut s = TimeSeries::new("frac");
        s.push(1.0, 2.0);
        let json = lagover_jsonio::to_string(&s);
        let back: TimeSeries = lagover_jsonio::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
