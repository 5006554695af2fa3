//! The unified event taxonomy: one enum for everything the simulator
//! can tell the telemetry pipeline.
//!
//! Before this crate existed the repo had three disconnected event
//! surfaces (structural trace events, metric counters, ad-hoc engine
//! counters). [`Event`] subsumes the structural events and adds the
//! protocol-level ones — oracle contacts, retry backoff, fault
//! detection, content delivery — so a single journal tells the whole
//! story of a run.
//!
//! Events refer to peers by their raw `u32` id (and to the source via
//! [`Node::Source`]) so this crate stays below `lagover-core` in the
//! dependency order.

use std::fmt;

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};
use serde::{Deserialize, Serialize};

/// A dissemination-tree member as the journal sees it: the source, or a
/// peer by raw id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// The content source (root of every tree).
    Source,
    /// A peer, by id.
    Peer(u32),
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Source => f.write_str("source"),
            Node::Peer(id) => write!(f, "peer {id}"),
        }
    }
}

impl ToJson for Node {
    fn to_json(&self) -> Json {
        match self {
            Node::Source => Json::Str("source".into()),
            Node::Peer(id) => Json::U64(u64::from(*id)),
        }
    }
}

impl FromJson for Node {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Str(s) if s == "source" => Ok(Node::Source),
            _ => Ok(Node::Peer(u32::from_json(value)?)),
        }
    }
}

/// Why a peer lost its parent.
///
/// Lives here (rather than in `lagover-core`, where it originated) so
/// the journal can record detaches without depending on the engine;
/// `lagover_core::trace` re-exports it for existing consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetachCause {
    /// The maintenance rule fired (`DelayAt > l` while rooted).
    Maintenance,
    /// Displaced by another peer's reconfiguration.
    Displaced,
    /// Discarded by its own parent to make room during a swap.
    Discarded,
    /// The peer (or its parent) churned offline.
    Churn,
    /// A crash-stop failure was detected after `DETECTION_TIMEOUT`
    /// silent rounds (either a child giving up on a dead parent, or the
    /// engine reclaiming a detected crash victim's remaining edges).
    Failure,
}

impl DetachCause {
    /// Every cause, in a fixed order (used by report rollups).
    pub const ALL: [DetachCause; 5] = [
        DetachCause::Maintenance,
        DetachCause::Displaced,
        DetachCause::Discarded,
        DetachCause::Churn,
        DetachCause::Failure,
    ];

    /// Stable lower-case name (also the JSON encoding).
    pub fn name(self) -> &'static str {
        match self {
            DetachCause::Maintenance => "maintenance",
            DetachCause::Displaced => "displaced",
            DetachCause::Discarded => "discarded",
            DetachCause::Churn => "churn",
            DetachCause::Failure => "failure",
        }
    }

    /// Parses [`DetachCause::name`] back.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        DetachCause::ALL
            .into_iter()
            .find(|c| c.name() == text)
            .ok_or_else(|| JsonError(format!("unknown detach cause {text:?}")))
    }
}

impl fmt::Display for DetachCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for DetachCause {
    fn to_json(&self) -> Json {
        Json::Str(self.name().into())
    }
}

impl FromJson for DetachCause {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        DetachCause::parse(&String::from_json(value)?)
    }
}

/// What a peer's local self-stabilization check found wrong with its
/// cached chain state (the detection taxonomy of the `stabilize` rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InconsistencyCause {
    /// The peer's parent pointer named the peer itself.
    SelfParent,
    /// Walking the parent chain revisited the peer (or exceeded the
    /// population bound) — a parent cycle.
    Cycle,
    /// The recorded parent does not list the peer as a child.
    BrokenBacklink,
    /// The cached `root`/`hops` disagree with the parent's reply.
    CacheMismatch,
    /// A parentless peer still carried a rooted (or foreign) cached
    /// [`ChainRoot`] entry.
    StaleRoot,
    /// The peer served more children than its advertised fanout.
    FanoutOverflow,
    /// A child entry whose own parent pointer names someone else.
    ForeignChild,
}

impl InconsistencyCause {
    /// Every cause, in a fixed order (used by report rollups).
    pub const ALL: [InconsistencyCause; 7] = [
        InconsistencyCause::SelfParent,
        InconsistencyCause::Cycle,
        InconsistencyCause::BrokenBacklink,
        InconsistencyCause::CacheMismatch,
        InconsistencyCause::StaleRoot,
        InconsistencyCause::FanoutOverflow,
        InconsistencyCause::ForeignChild,
    ];

    /// Stable lower-case name (also the JSON encoding).
    pub fn name(self) -> &'static str {
        match self {
            InconsistencyCause::SelfParent => "self_parent",
            InconsistencyCause::Cycle => "cycle",
            InconsistencyCause::BrokenBacklink => "broken_backlink",
            InconsistencyCause::CacheMismatch => "cache_mismatch",
            InconsistencyCause::StaleRoot => "stale_root",
            InconsistencyCause::FanoutOverflow => "fanout_overflow",
            InconsistencyCause::ForeignChild => "foreign_child",
        }
    }

    /// Parses [`InconsistencyCause::name`] back.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        InconsistencyCause::ALL
            .into_iter()
            .find(|c| c.name() == text)
            .ok_or_else(|| JsonError(format!("unknown inconsistency cause {text:?}")))
    }
}

impl fmt::Display for InconsistencyCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for InconsistencyCause {
    fn to_json(&self) -> Json {
        Json::Str(self.name().into())
    }
}

impl FromJson for InconsistencyCause {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        InconsistencyCause::parse(&String::from_json(value)?)
    }
}

/// How a detected inconsistency was repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairKind {
    /// The corrupt parent link was severed (re-attachment follows via
    /// the normal construction ladder).
    Detach,
    /// The cached `root`/`hops` were rewritten from the parent's truth.
    CacheRewrite,
    /// A foreign or overflow child entry was evicted.
    ChildEvict,
    /// A forged fanout advertisement was restored from the population.
    FanoutRestore,
    /// Edges a corruption re-granted to a detected corpse were
    /// reclaimed.
    Reclaim,
}

impl RepairKind {
    /// Every kind, in a fixed order (used by report rollups).
    pub const ALL: [RepairKind; 5] = [
        RepairKind::Detach,
        RepairKind::CacheRewrite,
        RepairKind::ChildEvict,
        RepairKind::FanoutRestore,
        RepairKind::Reclaim,
    ];

    /// Stable lower-case name (also the JSON encoding).
    pub fn name(self) -> &'static str {
        match self {
            RepairKind::Detach => "detach",
            RepairKind::CacheRewrite => "cache_rewrite",
            RepairKind::ChildEvict => "child_evict",
            RepairKind::FanoutRestore => "fanout_restore",
            RepairKind::Reclaim => "reclaim",
        }
    }

    /// Parses [`RepairKind::name`] back.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        RepairKind::ALL
            .into_iter()
            .find(|c| c.name() == text)
            .ok_or_else(|| JsonError(format!("unknown repair kind {text:?}")))
    }
}

impl fmt::Display for RepairKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for RepairKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().into())
    }
}

impl FromJson for RepairKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        RepairKind::parse(&String::from_json(value)?)
    }
}

/// The kind of an [`Event`], for counting and filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// [`Event::Attach`].
    Attach,
    /// [`Event::Detach`].
    Detach,
    /// [`Event::OracleHit`].
    OracleHit,
    /// [`Event::OracleMiss`].
    OracleMiss,
    /// [`Event::OracleOutage`].
    OracleOutage,
    /// [`Event::SourceContact`].
    SourceContact,
    /// [`Event::Backoff`].
    Backoff,
    /// [`Event::MessageLost`].
    MessageLost,
    /// [`Event::Crash`].
    Crash,
    /// [`Event::FaultDetected`].
    FaultDetected,
    /// [`Event::Delivery`].
    Delivery,
    /// [`Event::InconsistencyDetected`].
    InconsistencyDetected,
    /// [`Event::RepairAction`].
    RepairAction,
    /// [`Event::ChunkStalled`].
    ChunkStalled,
    /// [`Event::ChunkDropped`].
    ChunkDropped,
}

impl EventKind {
    /// Every kind, in the fixed order the registry enumerates counters.
    pub const ALL: [EventKind; 15] = [
        EventKind::Attach,
        EventKind::Detach,
        EventKind::OracleHit,
        EventKind::OracleMiss,
        EventKind::OracleOutage,
        EventKind::SourceContact,
        EventKind::Backoff,
        EventKind::MessageLost,
        EventKind::Crash,
        EventKind::FaultDetected,
        EventKind::Delivery,
        EventKind::InconsistencyDetected,
        EventKind::RepairAction,
        EventKind::ChunkStalled,
        EventKind::ChunkDropped,
    ];

    /// Stable snake-case name (also the JSON `"type"` tag).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Attach => "attach",
            EventKind::Detach => "detach",
            EventKind::OracleHit => "oracle_hit",
            EventKind::OracleMiss => "oracle_miss",
            EventKind::OracleOutage => "oracle_outage",
            EventKind::SourceContact => "source_contact",
            EventKind::Backoff => "backoff",
            EventKind::MessageLost => "message_lost",
            EventKind::Crash => "crash",
            EventKind::FaultDetected => "fault_detected",
            EventKind::Delivery => "delivery",
            EventKind::InconsistencyDetected => "inconsistency_detected",
            EventKind::RepairAction => "repair_action",
            EventKind::ChunkStalled => "chunk_stalled",
            EventKind::ChunkDropped => "chunk_dropped",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observable occurrence in a run, stamped with its round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// `child` gained `parent`.
    Attach {
        /// Round of the event.
        round: u64,
        /// The new child.
        child: u32,
        /// Its new parent.
        parent: Node,
    },
    /// `child` lost `parent`.
    Detach {
        /// Round of the event.
        round: u64,
        /// The detached peer.
        child: u32,
        /// The parent it lost.
        parent: Node,
        /// Why.
        cause: DetachCause,
    },
    /// An oracle query returned candidate `target`.
    OracleHit {
        /// Round of the query.
        round: u64,
        /// The querying peer.
        peer: u32,
        /// The candidate returned.
        target: u32,
    },
    /// An oracle query found no usable candidate (the peer waits).
    OracleMiss {
        /// Round of the query.
        round: u64,
        /// The querying peer.
        peer: u32,
    },
    /// An oracle query fell into a blackout window and went unanswered.
    OracleOutage {
        /// Round of the query.
        round: u64,
        /// The querying peer.
        peer: u32,
    },
    /// A parent-less peer contacted the source directly (timeout
    /// fallback or referral).
    SourceContact {
        /// Round of the contact.
        round: u64,
        /// The contacting peer.
        peer: u32,
    },
    /// The peer sat out one round of its retry backoff.
    Backoff {
        /// Round spent waiting.
        round: u64,
        /// The waiting peer.
        peer: u32,
        /// Rounds still to wait after this one.
        remaining: u32,
    },
    /// The peer's selected interaction was lost in flight.
    MessageLost {
        /// Round of the loss.
        round: u64,
        /// The sending peer.
        peer: u32,
    },
    /// A crash-stop failure was injected.
    Crash {
        /// Round of the crash.
        round: u64,
        /// The victim.
        peer: u32,
    },
    /// `peer` declared its parent crashed after `DETECTION_TIMEOUT`
    /// silent rounds.
    FaultDetected {
        /// Round of the detection.
        round: u64,
        /// The detecting child.
        peer: u32,
        /// The parent it declared dead.
        parent: u32,
    },
    /// One content item reached `peer`.
    Delivery {
        /// Round of the receipt.
        round: u64,
        /// The consumer.
        peer: u32,
        /// The consumer's tree depth at delivery time.
        depth: u32,
        /// Stream chunk id, when the item is one chunk of a striped
        /// stream (`None` for single-item feed deliveries).
        chunk: Option<u64>,
    },
    /// `peer`'s self-stabilization check found its cached chain state
    /// inconsistent with its neighbours.
    InconsistencyDetected {
        /// Round of the detection.
        round: u64,
        /// The detecting peer.
        peer: u32,
        /// What was wrong.
        cause: InconsistencyCause,
    },
    /// `peer` repaired a detected inconsistency.
    RepairAction {
        /// Round of the repair.
        round: u64,
        /// The repairing peer.
        peer: u32,
        /// How it was repaired.
        action: RepairKind,
    },
    /// A stream chunk owed to `peer` was deferred this round because
    /// its parent edge's in-flight window (or the parent's upload
    /// budget) was exhausted — backpressure, retried next round.
    ChunkStalled {
        /// Round of the stall.
        round: u64,
        /// The waiting consumer.
        peer: u32,
        /// The deferred chunk.
        chunk: u64,
    },
    /// A stream chunk owed to `peer` outlived its retry TTL and was
    /// abandoned — the consumer permanently misses the chunk.
    ChunkDropped {
        /// Round of the drop.
        round: u64,
        /// The consumer that misses the chunk.
        peer: u32,
        /// The abandoned chunk.
        chunk: u64,
    },
}

impl Event {
    /// The round the event happened in.
    pub fn round(&self) -> u64 {
        match *self {
            Event::Attach { round, .. }
            | Event::Detach { round, .. }
            | Event::OracleHit { round, .. }
            | Event::OracleMiss { round, .. }
            | Event::OracleOutage { round, .. }
            | Event::SourceContact { round, .. }
            | Event::Backoff { round, .. }
            | Event::MessageLost { round, .. }
            | Event::Crash { round, .. }
            | Event::FaultDetected { round, .. }
            | Event::Delivery { round, .. }
            | Event::InconsistencyDetected { round, .. }
            | Event::RepairAction { round, .. }
            | Event::ChunkStalled { round, .. }
            | Event::ChunkDropped { round, .. } => round,
        }
    }

    /// The peer the event is about (the child for structural events).
    pub fn peer(&self) -> u32 {
        match *self {
            Event::Attach { child, .. } | Event::Detach { child, .. } => child,
            Event::OracleHit { peer, .. }
            | Event::OracleMiss { peer, .. }
            | Event::OracleOutage { peer, .. }
            | Event::SourceContact { peer, .. }
            | Event::Backoff { peer, .. }
            | Event::MessageLost { peer, .. }
            | Event::Crash { peer, .. }
            | Event::FaultDetected { peer, .. }
            | Event::Delivery { peer, .. }
            | Event::InconsistencyDetected { peer, .. }
            | Event::RepairAction { peer, .. }
            | Event::ChunkStalled { peer, .. }
            | Event::ChunkDropped { peer, .. } => peer,
        }
    }

    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Attach { .. } => EventKind::Attach,
            Event::Detach { .. } => EventKind::Detach,
            Event::OracleHit { .. } => EventKind::OracleHit,
            Event::OracleMiss { .. } => EventKind::OracleMiss,
            Event::OracleOutage { .. } => EventKind::OracleOutage,
            Event::SourceContact { .. } => EventKind::SourceContact,
            Event::Backoff { .. } => EventKind::Backoff,
            Event::MessageLost { .. } => EventKind::MessageLost,
            Event::Crash { .. } => EventKind::Crash,
            Event::FaultDetected { .. } => EventKind::FaultDetected,
            Event::Delivery { .. } => EventKind::Delivery,
            Event::InconsistencyDetected { .. } => EventKind::InconsistencyDetected,
            Event::RepairAction { .. } => EventKind::RepairAction,
            Event::ChunkStalled { .. } => EventKind::ChunkStalled,
            Event::ChunkDropped { .. } => EventKind::ChunkDropped,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Attach {
                round,
                child,
                parent,
            } => write!(f, "r{round}: peer {child} <- {parent}"),
            Event::Detach {
                round,
                child,
                parent,
                cause,
            } => write!(f, "r{round}: peer {child} !<- {parent} ({cause})"),
            Event::OracleHit {
                round,
                peer,
                target,
            } => write!(f, "r{round}: peer {peer} oracle -> peer {target}"),
            Event::OracleMiss { round, peer } => write!(f, "r{round}: peer {peer} oracle miss"),
            Event::OracleOutage { round, peer } => {
                write!(f, "r{round}: peer {peer} oracle outage")
            }
            Event::SourceContact { round, peer } => {
                write!(f, "r{round}: peer {peer} contacts source")
            }
            Event::Backoff {
                round,
                peer,
                remaining,
            } => write!(f, "r{round}: peer {peer} backs off ({remaining} left)"),
            Event::MessageLost { round, peer } => {
                write!(f, "r{round}: peer {peer} message lost")
            }
            Event::Crash { round, peer } => write!(f, "r{round}: peer {peer} crashed"),
            Event::FaultDetected {
                round,
                peer,
                parent,
            } => write!(f, "r{round}: peer {peer} detects crash of peer {parent}"),
            Event::Delivery {
                round,
                peer,
                depth,
                chunk,
            } => match chunk {
                None => write!(f, "r{round}: peer {peer} delivered at depth {depth}"),
                Some(c) => write!(
                    f,
                    "r{round}: peer {peer} delivered chunk {c} at depth {depth}"
                ),
            },
            Event::InconsistencyDetected { round, peer, cause } => {
                write!(f, "r{round}: peer {peer} inconsistent ({cause})")
            }
            Event::RepairAction {
                round,
                peer,
                action,
            } => write!(f, "r{round}: peer {peer} repairs ({action})"),
            Event::ChunkStalled { round, peer, chunk } => {
                write!(f, "r{round}: peer {peer} chunk {chunk} stalled")
            }
            Event::ChunkDropped { round, peer, chunk } => {
                write!(f, "r{round}: peer {peer} chunk {chunk} dropped")
            }
        }
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let tag = ("type", Json::Str(self.kind().name().into()));
        match *self {
            Event::Attach {
                round,
                child,
                parent,
            } => object(vec![
                tag,
                ("round", round.to_json()),
                ("child", child.to_json()),
                ("parent", parent.to_json()),
            ]),
            Event::Detach {
                round,
                child,
                parent,
                cause,
            } => object(vec![
                tag,
                ("round", round.to_json()),
                ("child", child.to_json()),
                ("parent", parent.to_json()),
                ("cause", cause.to_json()),
            ]),
            Event::OracleHit {
                round,
                peer,
                target,
            } => object(vec![
                tag,
                ("round", round.to_json()),
                ("peer", peer.to_json()),
                ("target", target.to_json()),
            ]),
            Event::OracleMiss { round, peer }
            | Event::OracleOutage { round, peer }
            | Event::SourceContact { round, peer }
            | Event::MessageLost { round, peer }
            | Event::Crash { round, peer } => object(vec![
                tag,
                ("round", round.to_json()),
                ("peer", peer.to_json()),
            ]),
            Event::Backoff {
                round,
                peer,
                remaining,
            } => object(vec![
                tag,
                ("round", round.to_json()),
                ("peer", peer.to_json()),
                ("remaining", remaining.to_json()),
            ]),
            Event::FaultDetected {
                round,
                peer,
                parent,
            } => object(vec![
                tag,
                ("round", round.to_json()),
                ("peer", peer.to_json()),
                ("parent", parent.to_json()),
            ]),
            Event::Delivery {
                round,
                peer,
                depth,
                chunk,
            } => {
                // `chunk` is serialized only when present so single-item
                // feed deliveries keep their pre-streaming byte layout.
                let mut fields = vec![
                    tag,
                    ("round", round.to_json()),
                    ("peer", peer.to_json()),
                    ("depth", depth.to_json()),
                ];
                if let Some(c) = chunk {
                    fields.push(("chunk", c.to_json()));
                }
                object(fields)
            }
            Event::InconsistencyDetected { round, peer, cause } => object(vec![
                tag,
                ("round", round.to_json()),
                ("peer", peer.to_json()),
                ("cause", cause.to_json()),
            ]),
            Event::RepairAction {
                round,
                peer,
                action,
            } => object(vec![
                tag,
                ("round", round.to_json()),
                ("peer", peer.to_json()),
                ("action", action.to_json()),
            ]),
            Event::ChunkStalled { round, peer, chunk }
            | Event::ChunkDropped { round, peer, chunk } => object(vec![
                tag,
                ("round", round.to_json()),
                ("peer", peer.to_json()),
                ("chunk", chunk.to_json()),
            ]),
        }
    }
}

impl FromJson for Event {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let tag = String::from_json(value.get("type")?)?;
        let round = u64::from_json(value.get("round")?)?;
        let peer = |key: &str| -> Result<u32, JsonError> { u32::from_json(value.get(key)?) };
        Ok(match tag.as_str() {
            "attach" => Event::Attach {
                round,
                child: peer("child")?,
                parent: Node::from_json(value.get("parent")?)?,
            },
            "detach" => Event::Detach {
                round,
                child: peer("child")?,
                parent: Node::from_json(value.get("parent")?)?,
                cause: DetachCause::from_json(value.get("cause")?)?,
            },
            "oracle_hit" => Event::OracleHit {
                round,
                peer: peer("peer")?,
                target: peer("target")?,
            },
            "oracle_miss" => Event::OracleMiss {
                round,
                peer: peer("peer")?,
            },
            "oracle_outage" => Event::OracleOutage {
                round,
                peer: peer("peer")?,
            },
            "source_contact" => Event::SourceContact {
                round,
                peer: peer("peer")?,
            },
            "backoff" => Event::Backoff {
                round,
                peer: peer("peer")?,
                remaining: peer("remaining")?,
            },
            "message_lost" => Event::MessageLost {
                round,
                peer: peer("peer")?,
            },
            "crash" => Event::Crash {
                round,
                peer: peer("peer")?,
            },
            "fault_detected" => Event::FaultDetected {
                round,
                peer: peer("peer")?,
                parent: peer("parent")?,
            },
            "delivery" => Event::Delivery {
                round,
                peer: peer("peer")?,
                depth: peer("depth")?,
                chunk: match value.get_opt("chunk")? {
                    Some(v) => Some(u64::from_json(v)?),
                    None => None,
                },
            },
            "inconsistency_detected" => Event::InconsistencyDetected {
                round,
                peer: peer("peer")?,
                cause: InconsistencyCause::from_json(value.get("cause")?)?,
            },
            "repair_action" => Event::RepairAction {
                round,
                peer: peer("peer")?,
                action: RepairKind::from_json(value.get("action")?)?,
            },
            "chunk_stalled" => Event::ChunkStalled {
                round,
                peer: peer("peer")?,
                chunk: u64::from_json(value.get("chunk")?)?,
            },
            "chunk_dropped" => Event::ChunkDropped {
                round,
                peer: peer("peer")?,
                chunk: u64::from_json(value.get("chunk")?)?,
            },
            other => return Err(JsonError(format!("unknown event type {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: Event) {
        let json = lagover_jsonio::to_string(&event);
        let back: Event = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(back, event, "{json}");
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        let samples = [
            Event::Attach {
                round: 1,
                child: 2,
                parent: Node::Source,
            },
            Event::Detach {
                round: 2,
                child: 3,
                parent: Node::Peer(4),
                cause: DetachCause::Displaced,
            },
            Event::OracleHit {
                round: 3,
                peer: 5,
                target: 6,
            },
            Event::OracleMiss { round: 4, peer: 7 },
            Event::OracleOutage { round: 5, peer: 8 },
            Event::SourceContact { round: 6, peer: 9 },
            Event::Backoff {
                round: 7,
                peer: 10,
                remaining: 3,
            },
            Event::MessageLost { round: 8, peer: 11 },
            Event::Crash { round: 9, peer: 12 },
            Event::FaultDetected {
                round: 10,
                peer: 13,
                parent: 14,
            },
            Event::Delivery {
                round: 11,
                peer: 15,
                depth: 2,
                chunk: None,
            },
            Event::InconsistencyDetected {
                round: 12,
                peer: 16,
                cause: InconsistencyCause::Cycle,
            },
            Event::RepairAction {
                round: 13,
                peer: 17,
                action: RepairKind::CacheRewrite,
            },
            Event::ChunkStalled {
                round: 14,
                peer: 18,
                chunk: 41,
            },
            Event::ChunkDropped {
                round: 15,
                peer: 19,
                chunk: 42,
            },
        ];
        assert_eq!(samples.len(), EventKind::ALL.len());
        for (event, kind) in samples.into_iter().zip(EventKind::ALL) {
            assert_eq!(event.kind(), kind, "sample order matches ALL");
            round_trip(event);
        }
    }

    #[test]
    fn display_formats() {
        let attach = Event::Attach {
            round: 3,
            child: 7,
            parent: Node::Source,
        };
        assert_eq!(attach.to_string(), "r3: peer 7 <- source");
        let detach = Event::Detach {
            round: 4,
            child: 2,
            parent: Node::Peer(9),
            cause: DetachCause::Displaced,
        };
        assert_eq!(detach.to_string(), "r4: peer 2 !<- peer 9 (displaced)");
        let hit = Event::OracleHit {
            round: 5,
            peer: 1,
            target: 8,
        };
        assert_eq!(hit.to_string(), "r5: peer 1 oracle -> peer 8");
    }

    #[test]
    fn accessors_agree_with_payload() {
        let e = Event::FaultDetected {
            round: 12,
            peer: 3,
            parent: 4,
        };
        assert_eq!(e.round(), 12);
        assert_eq!(e.peer(), 3);
        assert_eq!(e.kind(), EventKind::FaultDetected);
        assert_eq!(e.kind().name(), "fault_detected");
    }

    #[test]
    fn delivery_chunk_field_is_optional_and_round_trips() {
        // A chunk-less delivery serializes exactly as it did before the
        // streaming layer existed — old journals stay parseable and
        // byte-stable.
        let plain = Event::Delivery {
            round: 3,
            peer: 7,
            depth: 2,
            chunk: None,
        };
        let json = lagover_jsonio::to_string(&plain);
        assert_eq!(
            json,
            "{\"type\":\"delivery\",\"round\":3,\"peer\":7,\"depth\":2}"
        );
        round_trip(plain);

        let chunked = Event::Delivery {
            round: 3,
            peer: 7,
            depth: 2,
            chunk: Some(9),
        };
        let json = lagover_jsonio::to_string(&chunked);
        assert!(json.contains("\"chunk\":9"), "{json}");
        round_trip(chunked);
        assert_eq!(
            chunked.to_string(),
            "r3: peer 7 delivered chunk 9 at depth 2"
        );
        assert_eq!(
            Event::ChunkStalled {
                round: 4,
                peer: 1,
                chunk: 5
            }
            .to_string(),
            "r4: peer 1 chunk 5 stalled"
        );
        assert_eq!(
            Event::ChunkDropped {
                round: 4,
                peer: 1,
                chunk: 5
            }
            .to_string(),
            "r4: peer 1 chunk 5 dropped"
        );
    }

    #[test]
    fn detach_cause_parse_rejects_unknown() {
        assert!(DetachCause::parse("maintenance").is_ok());
        assert!(DetachCause::parse("gravity").is_err());
    }

    #[test]
    fn stabilization_taxonomies_round_trip() {
        for cause in InconsistencyCause::ALL {
            assert_eq!(InconsistencyCause::parse(cause.name()).unwrap(), cause);
            assert_eq!(cause.to_string(), cause.name());
        }
        for action in RepairKind::ALL {
            assert_eq!(RepairKind::parse(action.name()).unwrap(), action);
            assert_eq!(action.to_string(), action.name());
        }
        assert!(InconsistencyCause::parse("entropy").is_err());
        assert!(RepairKind::parse("reboot").is_err());
        let e = Event::InconsistencyDetected {
            round: 9,
            peer: 4,
            cause: InconsistencyCause::SelfParent,
        };
        assert_eq!(e.to_string(), "r9: peer 4 inconsistent (self_parent)");
        let r = Event::RepairAction {
            round: 9,
            peer: 4,
            action: RepairKind::Detach,
        };
        assert_eq!(r.to_string(), "r9: peer 4 repairs (detach)");
    }
}
