//! Node identities, per-node constraints, populations, and who of a
//! population is online.
//!
//! The paper writes a consumer as `i_f^l` — node `i` with maximum fanout
//! `f` and delay constraint `l` (Table 1). The feed source is *node 0*;
//! here it is the distinguished [`Member::Source`] variant rather than
//! index 0, so peer indices stay dense and the type system rules out
//! "source used as a consumer" bugs.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a consumer peer (dense index into the population).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeerId(u32);

impl PeerId {
    /// Creates a peer id from a dense index.
    pub fn new(index: u32) -> Self {
        PeerId(index)
    }

    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw id value.
    pub fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer {}", self.0)
    }
}

/// A participant in the overlay: the feed source (the paper's node 0) or
/// a consumer peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Member {
    /// The feed source.
    Source,
    /// A consumer.
    Peer(PeerId),
}

impl Member {
    /// The peer id if this member is a consumer.
    pub fn peer(self) -> Option<PeerId> {
        match self {
            Member::Source => None,
            Member::Peer(p) => Some(p),
        }
    }

    /// Whether this member is the source.
    pub fn is_source(self) -> bool {
        matches!(self, Member::Source)
    }
}

impl From<PeerId> for Member {
    fn from(p: PeerId) -> Self {
        Member::Peer(p)
    }
}

impl fmt::Display for Member {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Member::Source => write!(f, "source"),
            Member::Peer(p) => write!(f, "{p}"),
        }
    }
}

/// Converts a typed tree member to the event journal's raw form.
pub fn member_to_node(member: Member) -> lagover_obs::Node {
    match member {
        Member::Source => lagover_obs::Node::Source,
        Member::Peer(p) => lagover_obs::Node::Peer(p.get()),
    }
}

/// Converts the event journal's raw member form back to the typed one.
pub fn node_to_member(node: lagover_obs::Node) -> Member {
    match node {
        lagover_obs::Node::Source => Member::Source,
        lagover_obs::Node::Peer(id) => Member::Peer(PeerId::new(id)),
    }
}

/// A consumer's declared constraints: the paper's `(f_i, l_i)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Constraints {
    /// Maximum number of children this peer will serve (`f_i`, may be 0).
    pub fanout: u32,
    /// Maximum tolerated delay in time units / overlay hops (`l_i` ≥ 1).
    pub latency: u32,
}

impl Constraints {
    /// Creates a constraint pair.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`: a node one hop from the source already
    /// observes delay 1, so `l = 0` is unsatisfiable by definition.
    pub fn new(fanout: u32, latency: u32) -> Self {
        assert!(latency >= 1, "latency constraint must be at least 1");
        Constraints { fanout, latency }
    }
}

impl fmt::Display for Constraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f={} l={}", self.fanout, self.latency)
    }
}

/// The consumer population plus the source's own fanout budget.
///
/// # Example
///
/// ```
/// use lagover_core::node::{Constraints, Population};
///
/// let pop = Population::new(3, vec![
///     Constraints::new(3, 1),
///     Constraints::new(2, 2),
/// ]);
/// assert_eq!(pop.len(), 2);
/// assert_eq!(pop.source_fanout(), 3);
/// assert_eq!(pop.constraints(lagover_core::node::PeerId::new(1)).latency, 2);
/// ```
/// Stored struct-of-arrays: the engine's hot loops read latency and
/// fanout in independent streaks over dense `PeerId` indices, so each
/// constraint lives in its own parallel array rather than a
/// `Vec<Constraints>` of interleaved pairs (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Population {
    source_fanout: u32,
    fanout: Vec<u32>,
    latency: Vec<u32>,
}

impl Population {
    /// Creates a population.
    ///
    /// # Panics
    ///
    /// Panics if `source_fanout == 0` (the source must serve someone) or
    /// the population is empty.
    pub fn new(source_fanout: u32, peers: Vec<Constraints>) -> Self {
        assert!(source_fanout >= 1, "source fanout must be at least 1");
        assert!(!peers.is_empty(), "population must be non-empty");
        Population {
            source_fanout,
            fanout: peers.iter().map(|c| c.fanout).collect(),
            latency: peers.iter().map(|c| c.latency).collect(),
        }
    }

    /// Number of consumers.
    pub fn len(&self) -> usize {
        self.latency.len()
    }

    /// Whether there are no consumers (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.latency.is_empty()
    }

    /// The source's fanout budget (`f_0`).
    pub fn source_fanout(&self) -> u32 {
        self.source_fanout
    }

    /// Constraints of one peer.
    ///
    /// # Panics
    ///
    /// Panics if the peer id is out of range.
    pub fn constraints(&self, p: PeerId) -> Constraints {
        Constraints {
            fanout: self.fanout[p.index()],
            latency: self.latency[p.index()],
        }
    }

    /// Latency constraint `l_p`.
    pub fn latency(&self, p: PeerId) -> u32 {
        self.latency[p.index()]
    }

    /// Fanout constraint `f_p`.
    pub fn fanout(&self, p: PeerId) -> u32 {
        self.fanout[p.index()]
    }

    /// The latency column, indexed by `PeerId`.
    pub fn latencies(&self) -> &[u32] {
        &self.latency
    }

    /// The fanout column, indexed by `PeerId`.
    pub fn fanouts(&self) -> &[u32] {
        &self.fanout
    }

    /// Iterates over `(PeerId, Constraints)`.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, Constraints)> + '_ {
        self.fanout
            .iter()
            .zip(&self.latency)
            .enumerate()
            .map(|(i, (&fanout, &latency))| {
                (PeerId::new(i as u32), Constraints { fanout, latency })
            })
    }

    /// All peer ids.
    pub fn peer_ids(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.latency.len() as u32).map(PeerId::new)
    }

    /// The largest latency constraint present.
    pub fn max_latency(&self) -> u32 {
        self.latency.iter().copied().max().unwrap_or(0)
    }

    /// Total consumer-side fanout capacity.
    pub fn total_fanout(&self) -> u64 {
        self.fanout.iter().map(|&f| u64::from(f)).sum()
    }
}

/// Which peers of a population are online: one bit per peer, 64 to a
/// word (bit `i % 64` of word `i / 64`), and how many are set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl Liveness {
    /// `n` peers, every one online.
    pub fn all(n: usize) -> Self {
        Self::from_flags(&vec![true; n])
    }

    /// Peer `i` online iff `flags[i]`.
    pub fn from_flags(flags: &[bool]) -> Self {
        Liveness {
            words: flags
                .chunks(64)
                .map(|chunk| {
                    (0..)
                        .zip(chunk)
                        .fold(0, |word, (bit, &set)| word | u64::from(set) << bit)
                })
                .collect(),
            len: flags.len(),
            count: flags.iter().filter(|&&on| on).count(),
        }
    }

    /// One flag per peer, `true` for the online ones.
    pub fn to_flags(&self) -> Vec<bool> {
        (0..self.len as u32)
            .map(|i| self.contains(PeerId::new(i)))
            .collect()
    }

    /// Whether `p` is online.
    #[inline]
    pub fn contains(&self, p: PeerId) -> bool {
        self.words[p.index() >> 6] >> (p.index() & 63) & 1 != 0
    }

    /// Marks `p` online or offline.
    pub(crate) fn set(&mut self, p: PeerId, on: bool) {
        let (word, bit) = (p.index() >> 6, 1 << (p.index() & 63));
        if (self.words[word] & bit != 0) != on {
            self.words[word] ^= bit;
            if on {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
    }

    /// How many peers are online.
    pub fn count(&self) -> usize {
        self.count
    }

    /// How many peers there are, online or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no peers at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bitmap's words, for word-at-a-time scans.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for PeerId {
    fn to_json(&self) -> Json {
        Json::U64(u64::from(self.0))
    }
}

impl FromJson for PeerId {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(PeerId(u32::from_json(value)?))
    }
}

impl ToJson for Member {
    fn to_json(&self) -> Json {
        match self {
            Member::Source => Json::Str("source".to_string()),
            Member::Peer(p) => p.to_json(),
        }
    }
}

impl FromJson for Member {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Str(s) if s == "source" => Ok(Member::Source),
            other => Ok(Member::Peer(PeerId::from_json(other)?)),
        }
    }
}

impl ToJson for Constraints {
    fn to_json(&self) -> Json {
        object(vec![
            ("fanout", self.fanout.to_json()),
            ("latency", self.latency.to_json()),
        ])
    }
}

impl FromJson for Constraints {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let fanout = u32::from_json(value.get("fanout")?)?;
        let latency = u32::from_json(value.get("latency")?)?;
        if latency == 0 {
            return Err(JsonError("latency constraint must be at least 1".into()));
        }
        Ok(Constraints { fanout, latency })
    }
}

impl ToJson for Population {
    fn to_json(&self) -> Json {
        // The wire shape stays the AoS `peers` list from before the SoA
        // split, so committed documents and snapshots are unaffected.
        let peers: Vec<Constraints> = self.iter().map(|(_, c)| c).collect();
        object(vec![
            ("source_fanout", self.source_fanout.to_json()),
            ("peers", peers.to_json()),
        ])
    }
}

impl FromJson for Population {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let source_fanout = u32::from_json(value.get("source_fanout")?)?;
        let peers = Vec::<Constraints>::from_json(value.get("peers")?)?;
        if source_fanout == 0 {
            return Err(JsonError("source_fanout must be positive".into()));
        }
        if peers.is_empty() {
            return Err(JsonError("population must not be empty".into()));
        }
        Ok(Population::new(source_fanout, peers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_id_round_trips() {
        let p = PeerId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.get(), 7);
        assert_eq!(p.to_string(), "peer 7");
    }

    #[test]
    fn member_node_round_trip() {
        for member in [Member::Source, Member::Peer(PeerId::new(5))] {
            assert_eq!(node_to_member(member_to_node(member)), member);
        }
    }

    #[test]
    fn member_conversions() {
        let p = PeerId::new(3);
        let m: Member = p.into();
        assert_eq!(m.peer(), Some(p));
        assert!(!m.is_source());
        assert!(Member::Source.is_source());
        assert_eq!(Member::Source.peer(), None);
        assert_eq!(Member::Source.to_string(), "source");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_latency_rejected() {
        Constraints::new(1, 0);
    }

    #[test]
    fn population_accessors() {
        let pop = Population::new(
            2,
            vec![
                Constraints::new(3, 1),
                Constraints::new(0, 4),
                Constraints::new(1, 2),
            ],
        );
        assert_eq!(pop.len(), 3);
        assert_eq!(pop.latency(PeerId::new(1)), 4);
        assert_eq!(pop.fanout(PeerId::new(1)), 0);
        assert_eq!(pop.max_latency(), 4);
        assert_eq!(pop.total_fanout(), 4);
        assert_eq!(pop.peer_ids().count(), 3);
        let collected: Vec<_> = pop.iter().collect();
        assert_eq!(collected[2].0, PeerId::new(2));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_population_rejected() {
        Population::new(1, vec![]);
    }

    #[test]
    #[should_panic(expected = "source fanout")]
    fn zero_source_fanout_rejected() {
        Population::new(0, vec![Constraints::new(1, 1)]);
    }
}
