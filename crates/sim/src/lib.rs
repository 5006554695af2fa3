#![warn(missing_docs)]

//! # lagover-sim
//!
//! Deterministic simulation kernel for the LagOver (ICDCS 2007)
//! reproduction.
//!
//! The paper evaluates its overlay-construction algorithms with a
//! *discrete time simulator* (§4): construction proceeds in rounds, each
//! round every active peer performs at most one interaction, and churn is
//! applied as independent Bernoulli transitions per peer per round. The
//! extended experiments (§5.3) additionally run *asynchronous*
//! interactions, where each interaction takes a peer-specific amount of
//! (real-valued) time; those are driven by the event queue in [`event`].
//!
//! This crate provides the substrate shared by every other crate in the
//! workspace:
//!
//! * [`rng`] — a self-contained, splittable, seedable PRNG
//!   ([`rng::SimRng`]) so that every experiment is exactly reproducible
//!   from a single master seed,
//! * [`time`] — strongly-typed rounds and virtual timestamps,
//! * [`event`] — a monotonic discrete-event queue for the asynchronous
//!   mode,
//! * [`churn`] — membership-dynamics processes (the paper's Bernoulli
//!   model plus session-length extensions),
//! * [`faults`] — declarative message-loss / oracle-outage
//!   scenarios ([`faults::FaultPlan`]) replayed deterministically, and
//!   the crash-stop cohort ([`faults::crash_cohort`]),
//! * [`corruption`] — adversarial snapshot-corruption plans
//!   ([`corruption::CorruptionPlan`]) for self-stabilization runs,
//! * [`metrics`] — the time-series recorder,
//! * [`stats`] — summary statistics (median-of-k runs is the paper's
//!   reporting convention, §5.1).
//!
//! # Example
//!
//! ```
//! use lagover_sim::rng::SimRng;
//! use lagover_sim::churn::{BernoulliChurn, ChurnProcess};
//!
//! let mut rng = SimRng::seed_from(42);
//! let mut churn = BernoulliChurn::new(0.01, 0.2);
//! let mut online = vec![true; 100];
//! let transitions = churn.step(&mut online, &mut rng);
//! assert!(transitions.departures <= 100);
//! ```

pub mod churn;
pub mod corruption;
pub mod event;
pub mod faults;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod time;

pub use churn::{BernoulliChurn, ChurnProcess, NoChurn, Transitions};
pub use corruption::{CorruptionClass, CorruptionPlan};
pub use event::EventQueue;
pub use faults::{Blackout, FaultPlan};
pub use metrics::TimeSeries;
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{Round, VirtualTime};
