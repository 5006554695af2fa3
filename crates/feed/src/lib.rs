#![warn(missing_docs)]

//! # lagover-feed
//!
//! RSS-style feed dissemination over a constructed LagOver.
//!
//! The paper's motivation (§1) is the RSS *bandwidth overload problem*:
//! every client polls the source continuously whether or not anything
//! is new, so a popular but resource-constrained source melts. The
//! LagOver fix: only the direct children of the source keep pulling (at
//! interval `T`, §2.1.2); everything downstream receives *pushes*. This
//! crate closes the loop on that story:
//!
//! * [`schedule`] — publication schedules (periodic and Poisson);
//! * [`dissemination`] — a round-based message-propagation simulation
//!   over a (fixed) overlay, measuring per-consumer staleness, which
//!   validates end-to-end that a converged LagOver delivers every item
//!   within each consumer's declared latency constraint;
//! * [`server_load`] — the E8 experiment kernel: source request rate
//!   under LagOver versus the direct-polling baseline.
//!
//! # Example
//!
//! ```
//! use lagover_core::{construct, Algorithm, ConstructionConfig, OracleKind};
//! use lagover_core::Engine;
//! use lagover_feed::{disseminate, DisseminationConfig, PublishSchedule};
//! use lagover_workload::{TopologicalConstraint, WorkloadSpec};
//!
//! let population = WorkloadSpec::new(TopologicalConstraint::Rand, 30)
//!     .generate(5)
//!     .unwrap();
//! let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
//! let mut engine = Engine::new(&population, &config, 5);
//! engine.run_to_convergence().expect("feasible");
//!
//! let report = disseminate(
//!     engine.overlay(),
//!     &population,
//!     &DisseminationConfig::default(),
//!     5,
//! )
//! .unwrap();
//! assert!(report.constraint_violations.is_empty());
//! ```

pub mod dissemination;
pub mod live;
pub mod multifeed;
pub mod schedule;
pub mod server_load;

pub use dissemination::{disseminate, DisseminationConfig, DisseminationReport, NodeDelivery};
pub use live::{run_live, LiveConfig, LiveOutcome};
pub use multifeed::{
    BudgetPolicy, FeedError, FeedSpec, MultiFeedOutcome, MultiFeedSystem, Subscription,
};
pub use schedule::{HorizonTooLong, PublishSchedule};
pub use server_load::{compare_server_load, ServerLoadReport};
