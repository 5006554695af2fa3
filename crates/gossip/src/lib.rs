#![warn(missing_docs)]

//! # lagover-gossip
//!
//! Unstructured-overlay substrate realizing Oracle *Random*.
//!
//! The paper (§2.1.4) suggests that Oracle *Random* — "a random contact
//! which is interested in the same feed" with *no* global information —
//! can be realized with *random walkers on an unstructured network*.
//! This crate builds that substrate: a connected random membership graph
//! over the feed's consumers ([`graph::MembershipGraph`]) and two
//! random-walk samplers ([`walk`]):
//!
//! * a plain simple random walk, whose stationary distribution is biased
//!   towards high-degree peers, and
//! * a Metropolis–Hastings corrected walk, whose stationary distribution
//!   is uniform — the property Oracle *Random* actually needs.
//!
//! The experiment `realizations` (DESIGN.md E9) compares LagOver
//! construction using the reference in-memory oracle against this
//! realization.
//!
//! # Example
//!
//! ```
//! use lagover_gossip::{MembershipGraph, MhWalkSampler, PeerSampler};
//! use lagover_sim::SimRng;
//!
//! let mut rng = SimRng::seed_from(11);
//! let graph = MembershipGraph::random_connected(30, 4, &mut rng);
//! let mut sampler = MhWalkSampler::new(graph, 20);
//! let peer = sampler.sample_peer(0, &mut rng).unwrap();
//! assert_ne!(peer, 0);
//! ```

pub mod graph;
pub mod walk;

pub use graph::MembershipGraph;
pub use walk::{MhWalkSampler, PeerSampler, SimpleWalkSampler};
