#![warn(missing_docs)]

//! # lagover-dht
//!
//! Chord-style distributed-hash-table substrate realizing the
//! directory-service Oracles.
//!
//! The paper (§2.1.4) proposes that the informed Oracles
//! (*Random-Capacity*, *Random-Delay-Capacity*, *Random-Delay*) be
//! realized by a directory service — "a centralized authority like
//! Syndic8 … but can also be realized if the nodes organize as a
//! distributed hash table", concretely naming OpenDHT as the open
//! service to use. Neither Syndic8 nor OpenDHT exists anymore, so this
//! crate builds the substitution (DESIGN.md §3): a simulated Chord ring
//! ([`ring::Ring`]) with successor lists, finger tables, iterative
//! lookup, and periodic stabilization, plus a feed [`directory`] stored
//! on the ring. Directory entries are *refreshed* by their owners and
//! therefore go stale under churn — exactly the imperfection a deployed
//! oracle would exhibit, which experiment E9 measures.
//!
//! # Example
//!
//! ```
//! use lagover_dht::{Key, Ring};
//! use lagover_sim::SimRng;
//!
//! let mut rng = SimRng::seed_from(5);
//! let ring = Ring::bootstrap(32, &mut rng);
//! let key = Key::hash_str("feeds/boston-globe");
//! let owner = ring.lookup(key).expect("non-empty ring");
//! assert!(ring.is_responsible(owner, key));
//! ```

pub mod directory;
pub mod id;
pub mod ring;

pub use directory::{Directory, DirectoryConfig, DirectoryEntry};
pub use id::Key;
pub use ring::{LookupStats, Ring};
