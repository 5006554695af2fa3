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
//! plus the simulator's exact virtual-time action schedule, and the
//! wire carries only *progress tokens* ("my first `k` actions are
//! executed", [`wire::Message::Ordered`]) that release schedule
//! entries for application on remote replicas. Convergence, crash
//! injection, and healing are detected at the same global action index
//! on every node, so the per-node journals merge back into the exact
//! byte sequence the simulator twin (`Run::timed` at
//! `FixedActionDuration(1.0)`, verbs `construct` / `recover`) journals
//! — pinned by replay-diff.
//!
//! ## Layers
//!
//! * [`core`] — [`core::NodeCore`]: the sans-IO state machine.
//!   `handle(Input) -> impl Iterator<Item = Output>`; inputs are wire
//!   messages, timer fires, and local commands; outputs are sends,
//!   timer arms, journal entries, and a halt marker. No I/O, no
//!   clocks, no ambient RNG.
//! * [`wire`] — message taxonomy and length-prefixed `jsonio` framing.
//! * [`mesh`] — in-process transport: a virtual-time scheduler
//!   delivering frames with zero latency; fully deterministic.
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
pub use replica::{Replica, Scenario, ScenarioSpec};
#[cfg(feature = "wall-clock")]
pub use udp::{run_udp_node, UdpNodeOptions};
pub use wire::{decode, encode, DecodeError, Message, MAX_FRAME};
