//! Feed publication schedules.
//!
//! RSS updates are *"irregular and small content updates occurring at
//! possibly unpredictable times"* (§6). The periodic schedule models
//! regular publishers (news tickers); the Poisson schedule models the
//! unpredictable ones (blogs).

use std::collections::TryReserveError;
use std::fmt;

use serde::{Deserialize, Serialize};

use lagover_sim::SimRng;

/// When the source publishes new items.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PublishSchedule {
    /// A new item every `interval` rounds, starting at `interval`.
    Periodic {
        /// Rounds between items (>= 1).
        interval: u64,
    },
    /// Items arrive as a Poisson process with the given mean
    /// inter-arrival time in rounds.
    Poisson {
        /// Mean rounds between items (> 0).
        mean_interval: f64,
    },
}

/// A horizon whose publication list cannot be held in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HorizonTooLong {
    /// The horizon, in rounds.
    pub horizon: u64,
}

impl fmt::Display for HorizonTooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a {}-round horizon publishes more items than memory holds",
            self.horizon
        )
    }
}

impl std::error::Error for HorizonTooLong {}

impl PublishSchedule {
    /// Publication rounds within `(0, horizon]`. The list is reserved
    /// fallibly: the periodic count exactly, the Poisson mean up front
    /// and each item past it as it is drawn.
    ///
    /// # Errors
    ///
    /// [`HorizonTooLong`] when the list cannot be reserved.
    ///
    /// # Panics
    ///
    /// Panics on a zero periodic interval or non-positive Poisson mean.
    pub fn publication_rounds(
        &self,
        horizon: u64,
        rng: &mut SimRng,
    ) -> Result<Vec<u64>, HorizonTooLong> {
        let too_long = |_: TryReserveError| HorizonTooLong { horizon };
        let mut out = Vec::new();
        match *self {
            PublishSchedule::Periodic { interval } => {
                assert!(interval >= 1, "publication interval must be positive");
                let count = horizon / interval;
                out.try_reserve_exact(usize::try_from(count).unwrap_or(usize::MAX))
                    .map_err(too_long)?;
                out.extend((1..=count).map(|k| k * interval));
            }
            PublishSchedule::Poisson { mean_interval } => {
                assert!(mean_interval > 0.0, "mean interval must be positive");
                // A float-to-int `as` saturates, so a mean count past
                // `usize` fails the reservation.
                out.try_reserve((horizon as f64 / mean_interval) as usize)
                    .map_err(too_long)?;
                let mut t = 0.0_f64;
                loop {
                    t += rng.exponential(mean_interval);
                    let round = t.ceil() as u64;
                    if round > horizon {
                        break;
                    }
                    out.try_reserve(1).map_err(too_long)?;
                    out.push(round);
                }
            }
        }
        Ok(out)
    }
}

impl std::fmt::Display for PublishSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishSchedule::Periodic { interval } => write!(f, "periodic({interval})"),
            PublishSchedule::Poisson { mean_interval } => write!(f, "poisson({mean_interval})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_rounds_are_multiples() {
        let mut rng = SimRng::seed_from(1);
        let s = PublishSchedule::Periodic { interval: 5 };
        assert_eq!(
            s.publication_rounds(22, &mut rng).unwrap(),
            vec![5, 10, 15, 20]
        );
    }

    #[test]
    fn periodic_every_round() {
        let mut rng = SimRng::seed_from(1);
        let s = PublishSchedule::Periodic { interval: 1 };
        assert_eq!(s.publication_rounds(4, &mut rng).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn poisson_rate_matches_mean() {
        let mut rng = SimRng::seed_from(2);
        let s = PublishSchedule::Poisson { mean_interval: 4.0 };
        let rounds = s.publication_rounds(100_000, &mut rng).unwrap();
        let rate = rounds.len() as f64 / 100_000.0;
        assert!((0.23..=0.27).contains(&rate), "rate {rate}");
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(rounds.iter().all(|&r| (1..=100_000).contains(&r)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let mut rng = SimRng::seed_from(3);
        let _ = PublishSchedule::Periodic { interval: 0 }.publication_rounds(10, &mut rng);
    }

    #[test]
    fn empty_horizon_yields_nothing() {
        let mut rng = SimRng::seed_from(4);
        let s = PublishSchedule::Periodic { interval: 3 };
        assert!(s.publication_rounds(2, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn an_unreservable_horizon_is_an_error() {
        let mut rng = SimRng::seed_from(5);
        for s in [
            PublishSchedule::Periodic { interval: 1 },
            PublishSchedule::Periodic { interval: 3 },
            PublishSchedule::Poisson { mean_interval: 1.5 },
        ] {
            assert_eq!(
                s.publication_rounds(u64::MAX, &mut rng),
                Err(HorizonTooLong { horizon: u64::MAX }),
                "{s}"
            );
        }
        assert_eq!(rng.draws(), 0, "fails before the first draw");
    }
}
