#![warn(missing_docs)]

//! # lagover-net
//!
//! Synthetic network-latency substrate for the LagOver reproduction.
//!
//! The paper's asynchronous experiments (§5.3) let *"different peers need
//! different amounts of time to complete the interactions"*. The authors
//! ran on an unspecified latency model; we substitute a standard
//! synthetic one (documented in `DESIGN.md` §3): peers are embedded in a
//! 2-D Euclidean coordinate space (the same abstraction network
//! coordinate systems such as Vivaldi recover from real round-trip
//! times), and the RTT between two peers is an affine function of their
//! distance plus optional jitter. Only the *relative heterogeneity* of
//! interaction durations matters for the asynchrony result, which this
//! model preserves.
//!
//! # Example
//!
//! ```
//! use lagover_net::{LatencySpace, LatencyConfig};
//! use lagover_sim::SimRng;
//!
//! let mut rng = SimRng::seed_from(1);
//! let space = LatencySpace::generate(50, &LatencyConfig::default(), &mut rng);
//! let rtt = space.rtt(0, 1);
//! assert!(rtt >= LatencyConfig::default().base_rtt);
//! ```

pub mod clusters;
pub mod coords;
pub mod duration;
pub mod latency;
pub mod measured;
pub mod spacespec;

pub use clusters::{ClusterConfig, ClusteredSpace};
pub use coords::Coord;
pub use duration::{DurationModel, FixedDuration, RttInteractionModel};
pub use latency::{LatencyConfig, LatencySpace};
pub use measured::{MeasuredConfig, MeasuredInteractionModel, MeasuredSpace, MeasuredSpaceError};
pub use spacespec::{SpaceSpec, Substrate, SubstrateModel};
