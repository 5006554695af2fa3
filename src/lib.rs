#![warn(missing_docs)]

//! # lagover
//!
//! Facade crate for the reproduction of *"LagOver: Latency Gradated
//! Overlays"* (Datta, Stoica, Franklin — ICDCS 2007).
//!
//! A LagOver is a self-organizing dissemination tree in which information
//! consumers place themselves according to their individual latency
//! tolerance and fanout (bandwidth) budget. This workspace implements the
//! paper's construction algorithms (greedy and hybrid), the four Oracles,
//! the maintenance protocol, every workload class from the evaluation,
//! substrate realizations of the oracles (Chord-style DHT directory and
//! random-walk sampling over an unstructured overlay), and an RSS-style
//! feed-dissemination layer, together with the experiment harness that
//! regenerates every figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use lagover::core::{ConstructionConfig, Algorithm, OracleKind};
//! use lagover::workload::{WorkloadSpec, TopologicalConstraint};
//!
//! // 120 peers with random constraints, as in the paper's §5.2.
//! let spec = WorkloadSpec::new(TopologicalConstraint::Rand, 120);
//! let population = spec.generate(7).expect("feasible population");
//!
//! let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
//! let outcome = lagover::core::construct(&population, &config, 7);
//! assert!(outcome.converged());
//! ```

pub use lagover_core as core;
pub use lagover_dht as dht;
pub use lagover_experiments as experiments;
pub use lagover_feed as feed;
pub use lagover_gossip as gossip;
pub use lagover_net as net;
pub use lagover_node as node;
pub use lagover_obs as obs;
pub use lagover_sim as sim;
pub use lagover_workload as workload;
