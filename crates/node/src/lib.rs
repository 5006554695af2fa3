#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # lagover-node
//!
//! The sans-IO node runtime: the step from "deterministic simulator"
//! to "deployable system" (ROADMAP "from simulator to wire").
//!
//! ## Design: lockstep state-machine replication
//!
//! The simulator's per-peer protocol logic is already free of clocks,
//! sockets, and hidden randomness — every run is a pure function of
//! `(population, config, seed)`. The runtime exploits that directly:
//! each node carries a full engine **replica** ([`replica::Replica`])
//! that steps the simulator's round clock one turn at a time — every
//! online peer once a round, in the round's keyed slot order, a pure
//! function of `(seed, round, peer)` every host derives for itself —
//! and the wire carries only *progress tokens* ("my first `k` actions
//! are executed", [`wire::Message::Ordered`]) that release turns for
//! application on remote replicas. Convergence, crash injection, and
//! healing are core's one terminal rule (`lagover_core::Goal`), met on
//! the same round on every node, so the per-node journals merge back
//! into the exact byte sequence the simulator twin ([`replica::twin`]:
//! `Run::perturb`) journals — pinned by `results/nodesim.json`.
//!
//! ## Layers
//!
//! * [`core`] — [`core::NodeCore`]: the sans-IO state machine.
//!   `handle(input, &mut out)`; inputs are wire messages, timer fires,
//!   and local commands; outputs, appended to the transport's reused
//!   buffer, are sends, timer arms, journal entries, and a halt
//!   marker. No I/O, no clocks, no ambient RNG.
//! * [`wire`] — message taxonomy and length-prefixed `jsonio` framing.
//! * [`mesh`] — in-process transport: a virtual-time scheduler
//!   delivering frames with zero latency (a FIFO of in-flight frames
//!   beside a heap of Action timers); fully deterministic.
//! * [`udp`] — UDP loopback transport: real sockets, real time,
//!   bounded-backoff retransmission of the idempotent tokens.
//! * [`harness`] — multi-process integration harness: spawns one OS
//!   process per node, collects per-node journal reports, merges them
//!   into one `ObsReport`, and checks convergence.

pub mod core;
pub mod harness;
pub mod journal;
pub mod mesh;
pub mod replica;
pub mod udp;
pub mod wire;

pub use crate::core::{Command, Input, NodeCore, NodeOutcome, Output, TimerKind};
pub use harness::{run_harness, HarnessOptions, HarnessOutcome};
pub use journal::{merge_reports, JournalEntry, MergedRun, NodeReport};
pub use mesh::{run_mesh, MeshRun};
pub use replica::{twin, Replica, Scenario, ScenarioSpec, Twin};
#[cfg(feature = "wall-clock")]
pub use udp::{node_port, run_udp_node, UdpNodeOptions};
pub use wire::{decode, encode, DecodeError, Message, MAX_FRAME};
