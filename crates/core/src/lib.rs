#![warn(missing_docs)]

//! # lagover-core
//!
//! The primary contribution of *"LagOver: Latency Gradated Overlays"*
//! (Datta, Stoica, Franklin — ICDCS 2007): self-organizing dissemination
//! trees in which every consumer's individual **latency constraint**
//! (`l_i`, maximum tolerated staleness) and **fanout constraint** (`f_i`,
//! maximum children served) are first-class.
//!
//! The crate provides:
//!
//! * [`node`] — peer identities, `(f, l)` constraints, populations;
//! * [`overlay`] — the dissemination forest with `Parent` / `Children` /
//!   `Root` / `DelayAt` queries and invariant-checked mutations;
//! * [`oracle`] — the four partial-global-information Oracles of §2.1.4
//!   (`Random`, `Random-Capacity`, `Random-Delay-Capacity`,
//!   `Random-Delay`) behind a trait that substrate realizations plug
//!   into;
//! * the **greedy** (§3.1) and **hybrid** (§3.4, Algorithm 2)
//!   construction algorithms with the maintenance protocol
//!   (Algorithm 1), executed by the [`Engine`];
//! * [`sufficiency`] — the §3.3 existence condition and an exact
//!   feasibility checker;
//! * [`run`] — one [`Run`] description and its verbs (construct, and
//!   perturb under a [`Plan`] of churn, crashes and corruption) on
//!   the round clock, whose terminal rule ([`Goal`]) the node runtime
//!   steps too, and construction under heterogeneous durations on
//!   virtual time, observed or not; [`outcome`] holds what they
//!   record, [`runner`] the deterministic thread fan-out the
//!   experiment drivers use;
//! * [`stabilize`] — self-stabilization from arbitrary corrupted
//!   state: adversarial snapshot injection
//!   (`lagover_sim::CorruptionPlan`) and the always-on local
//!   detect-and-repair rule that re-converges from it.
//!
//! # Quickstart
//!
//! ```
//! use lagover_core::{construct, Algorithm, ConstructionConfig, OracleKind};
//! use lagover_core::node::{Constraints, Population};
//!
//! // A source that serves 2 direct consumers, and four consumers with
//! // mixed constraints.
//! let population = Population::new(2, vec![
//!     Constraints::new(2, 1),   // strict: must hear within 1 time unit
//!     Constraints::new(1, 2),
//!     Constraints::new(0, 2),
//!     Constraints::new(0, 3),   // lax: anywhere in the tree works
//! ]);
//!
//! let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
//! let outcome = construct(&population, &config, 42);
//! assert!(outcome.converged());
//! ```

pub mod analysis;
pub mod config;
pub mod engine;
pub mod forest;
pub mod node;
pub mod oracle;
pub mod outcome;
pub mod overlay;
pub mod run;
pub mod runner;
pub mod stabilize;
pub mod sufficiency;

mod greedy;
mod hybrid;
mod maintenance;
mod oracle_index;
mod schedule;
mod schedule_tests;
mod settled_tests;
mod stale_chain_tests;

pub use config::{Algorithm, ConstructionConfig, SourceMode};
pub use engine::{Engine, EngineCounters, EngineSnapshot};
pub use forest::{carve, CarveError, ForestPlan, StreamBudgets, TreePlan};
pub use lagover_obs::DetachCause;
pub use node::{Constraints, Liveness, Member, PeerId, Population};
pub use oracle::{Oracle, OracleKind, OracleView};
pub use outcome::{AsyncOutcome, ConstructionOutcome, Observed, PerturbOutcome, Trail};
pub use overlay::{ChainRoot, Overlay, OverlayError};
pub use run::{construct, FaultScenario, Goal, InteractionDurations, Plan, Run, TimedRun};
pub use runner::parallel_runs;
pub use stabilize::apply_corruption;
pub use sufficiency::{check as check_sufficiency, exact_feasibility, SufficiencyReport};
