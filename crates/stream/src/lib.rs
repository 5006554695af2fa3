#![warn(missing_docs)]

//! # lagover-stream
//!
//! Sustained streaming over a LagOver: the "heavy traffic" rung of the
//! roadmap. Where `lagover-feed` pushes single small updates down one
//! tree, this crate stripes a chunked stream across **k
//! interior-disjoint trees** carved from the same overlay
//! ([`lagover_core::forest`]), following "Deterministic Near-Optimal
//! P2P Streaming": every node forwards chunks in at most one tree, so
//! its whole upload budget concentrates where it matters, and the k
//! trees' capacities add.
//!
//! The [`scheduler`] drives the forest round by round under per-node
//! upload budgets (the streaming generalization of the paper's fanout
//! constraint) and a per-edge backpressure model: bounded in-flight
//! windows, deterministic stall/retry accounting, and TTL-based drops
//! — all journaled through the `lagover-obs` pipeline (`Delivery`
//! events carry chunk ids; `ChunkStalled` / `ChunkDropped` are new
//! kinds) so delivered bytes and staleness gate in committed work
//! units like everything else.
//!
//! # Example
//!
//! ```
//! use lagover_core::{Algorithm, ConstructionConfig, Engine, OracleKind, StreamBudgets};
//! use lagover_stream::{stream, StreamConfig};
//! use lagover_workload::{TopologicalConstraint, WorkloadSpec};
//!
//! let population = WorkloadSpec::new(TopologicalConstraint::Rand, 30)
//!     .generate(5)
//!     .unwrap();
//! let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
//! let mut engine = Engine::new(&population, &config, 5);
//! engine.run_to_convergence().expect("feasible");
//!
//! let budgets = StreamBudgets::uniform(30, 16, 32);
//! let report = stream(
//!     engine.overlay(),
//!     &population,
//!     &budgets,
//!     &StreamConfig::default(),
//!     5,
//! )
//! .expect("budgets are ample");
//! assert_eq!(report.deliveries, report.expected_deliveries);
//! ```

pub mod scheduler;

pub use lagover_core::forest::{carve, CarveError, ForestPlan, StreamBudgets, TreePlan};
pub use scheduler::{
    stream, stream_observed, StalenessStats, StreamConfig, StreamError, StreamObserved,
    StreamReport,
};
