//! The overlay forest: parent/child links, delay and root queries, and
//! the invariant-checked mutation primitives every construction
//! algorithm is built from.
//!
//! During construction the overlay is a *forest*: fragments whose roots
//! are still looking for a parent, plus the tree rooted at the source.
//! The paper's local knowledge assumptions (§2.1.3) — every node knows
//! `Parent()`, `Children()`, `Root()` and `DelayAt()` of its chain — map
//! to the query methods here. `DelayAt` follows the worked example of
//! §3.2: a direct child of the source observes delay 1 (one pull
//! interval), and every further hop adds one time unit, i.e.
//! `DelayAt(i) = depth(i)`.
//!
//! # Stamps and the horizon
//!
//! Every peer carries a *stamp* `(root, hops)`: the root of its chain
//! and `min(depth, horizon)`, with `horizon = max_latency + 1` fixed
//! by [`Overlay::new`]. Every protocol decision compares `DelayAt`
//! with some `l ≤ max_latency`, so a peer needs its position in the
//! latency gradient, not its distance past it: any depth at or beyond
//! the horizon fails exactly the comparisons the saturated stamp
//! fails. A mutation re-stamps top-down from the moved peer — each
//! child takes `(root, min(parent_hops + 1, horizon))` — and stops at
//! the first peer whose stamp does not change, because a child's stamp
//! is a function of its parent's: a displacement that shifts a subtree
//! one hop deeper under the same root costs what lies above the
//! horizon, not what it carries (DESIGN.md §13.2).
//!
//! Decisions read the stamp in O(1) ([`Overlay::stamped_delay`],
//! [`Overlay::stamped_hops`]); reports read exact depths
//! ([`Overlay::delay`], [`Overlay::hops_to_root`],
//! [`Overlay::speculative_delay`] resolve a saturated stamp by walking
//! up to the first ancestor below the horizon, and [`Overlay::delays`]
//! takes the whole population in one pass), so no observed number ever
//! saturates.
//!
//! # Settled peers
//!
//! The forest also carries one private bit per peer for the engine's
//! quiescence skip (DESIGN.md §13.4): *settled* means the peer's next
//! action would change nothing. The engine sets it; the forest's part
//! is to clear it whenever a write changes what that action does — the
//! peer a mutation moves, the peer whose child list it edits, every
//! peer a re-stamp leaves rooted past its latency (every peer it visits
//! while the lists may lie), and everybody on any raw mutation — and to
//! count the settled peers whose stamp is unrooted. The bits are not
//! serialized and take no part in equality. While the engine has a
//! round open, the forest also reports which peers went from settled
//! to unsettled, so the round can schedule them (DESIGN.md §13.4, "The
//! schedule").
//!
//! # Checked forests
//!
//! `attach`, `detach`, `interpose` and `remove_peer` keep every child
//! list in agreement with the parent pointers and the forest acyclic;
//! so does a forest parsed from JSON, which is validated. The raw
//! mutations and repair primitives do not, so each marks the forest
//! *lists may lie* for good ([`Overlay::lists_may_lie`]). Three engine
//! readers trust a forest without the mark: the stale-chain count
//! walks down the child lists, the stabilize rule is skipped (nothing
//! it checks can disagree), and the displacement cycle pre-check reads
//! one stamp's root instead of walking up.
//!
//! # Memory layout
//!
//! Storage is arena-backed struct-of-arrays (DESIGN.md §13): peers are
//! dense `PeerId` indices into parallel `parent`/`root`/`hops` arrays
//! (parent and root packed into `u32` sentinels), and all child lists
//! live in one shared pool, each peer owning the fixed slice
//! `child_pool[child_off[i] .. child_off[i] + min(fanout[i], n)]` of
//! which the first `child_cnt[i]` slots are live. Child insertion
//! appends to the slice; removal swap-removes within it — exactly the
//! `Vec::push` / `Vec::swap_remove` ordering of the previous per-peer
//! `Vec` layout, so iteration order (and therefore every RNG-visible
//! choice built on it) is unchanged.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::node::{peers_in_word, Member, PeerId, Population};

/// Packed `parent` sentinel: no parent.
const NO_PARENT: u32 = u32::MAX;
/// Packed `parent` sentinel: the source.
const PARENT_SOURCE: u32 = u32::MAX - 1;
/// Packed `root` sentinel: the chain reaches the source.
const ROOT_SOURCE: u32 = u32::MAX;

/// Root of a peer's chain: either the source (the chain can actually
/// receive the feed) or the topmost parent-less peer of a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChainRoot {
    /// The chain reaches node 0; `DelayAt` is real.
    Source,
    /// The chain dangles from a fragment root still seeking a parent.
    Fragment(PeerId),
}

impl ChainRoot {
    #[inline]
    fn pack(self) -> u32 {
        match self {
            ChainRoot::Source => ROOT_SOURCE,
            ChainRoot::Fragment(p) => p.get(),
        }
    }

    #[inline]
    fn unpack(raw: u32) -> ChainRoot {
        if raw == ROOT_SOURCE {
            ChainRoot::Source
        } else {
            ChainRoot::Fragment(PeerId::new(raw))
        }
    }
}

#[inline]
fn pack_parent(m: Option<Member>) -> u32 {
    match m {
        None => NO_PARENT,
        Some(Member::Source) => PARENT_SOURCE,
        Some(Member::Peer(p)) => p.get(),
    }
}

#[inline]
fn unpack_parent(raw: u32) -> Option<Member> {
    match raw {
        NO_PARENT => None,
        PARENT_SOURCE => Some(Member::Source),
        id => Some(Member::Peer(PeerId::new(id))),
    }
}

/// Why a mutation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayError {
    /// The child already has a parent (detach first).
    HasParent,
    /// The prospective parent has no unused fanout.
    ParentFull,
    /// The attachment would create a cycle (the parent is in the
    /// child's subtree).
    WouldCycle,
    /// A peer may not adopt itself.
    SelfParent,
    /// The peer has no parent to detach from.
    NoParent,
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            OverlayError::HasParent => "child already has a parent",
            OverlayError::ParentFull => "parent fanout is fully used",
            OverlayError::WouldCycle => "attachment would create a cycle",
            OverlayError::SelfParent => "a peer cannot be its own parent",
            OverlayError::NoParent => "peer has no parent",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for OverlayError {}

/// The dissemination forest over a fixed population.
///
/// # Example
///
/// ```
/// use lagover_core::node::{Constraints, Member, PeerId, Population};
/// use lagover_core::overlay::Overlay;
///
/// let pop = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(0, 2)]);
/// let mut overlay = Overlay::new(&pop);
/// let (a, b) = (PeerId::new(0), PeerId::new(1));
/// overlay.attach(a, Member::Source)?;
/// overlay.attach(b, Member::Peer(a))?;
/// assert_eq!(overlay.delay(b), Some(2));
/// # Ok::<(), lagover_core::overlay::OverlayError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Overlay {
    source_fanout: u32,
    fanout: Vec<u32>,
    /// Packed parent per peer: [`NO_PARENT`], [`PARENT_SOURCE`], or a
    /// peer id.
    parent: Vec<u32>,
    /// The fanout each peer was built with, immune to forgery.
    capacity: Vec<u32>,
    /// Each peer's latency constraint: what a re-stamp compares a new
    /// stamp with to decide whom it wakes. All zero in a forest parsed
    /// on its own, which wakes every rooted peer a re-stamp visits,
    /// until [`Overlay::set_latencies`] installs the population's.
    latency: Vec<u32>,
    /// Start of peer `i`'s child slice in `child_pool`, one extra
    /// terminal entry (see [`child_layout`]).
    child_off: Vec<u32>,
    /// Live children of peer `i`: the first `child_cnt[i]` slots of its
    /// slice.
    child_cnt: Vec<u32>,
    /// The shared child arena; slots beyond a peer's live count hold
    /// stale garbage and never participate in equality or
    /// serialization.
    child_pool: Vec<PeerId>,
    source_children: Vec<PeerId>,
    /// Cached chain root per peer (packed; [`ROOT_SOURCE`] or the
    /// fragment head id), maintained incrementally on every mutation so
    /// [`Overlay::root`] and friends are O(1) instead of O(depth). A
    /// parent-less peer is its own fragment root.
    root: Vec<u32>,
    /// Stamped hops-to-root per peer — 0 for a fragment root, depth for
    /// a peer rooted at the source — saturated at `horizon` and kept in
    /// lockstep with `root`.
    hops: Vec<u32>,
    /// Where `hops` saturates: `max_latency + 1` of the population the
    /// forest was built for.
    horizon: u32,
    /// One settled bit per peer, 64 to a word (see the module docs).
    /// Derived state: never serialized, never compared.
    #[serde(skip)]
    settled: Vec<u64>,
    /// How many settled peers carry an unrooted stamp: the settled
    /// peers that are not satisfied, which the engine's monitor cannot
    /// skip. Kept with the bits.
    #[serde(skip)]
    settled_unrooted: usize,
    /// Whether un-settle transitions are being reported (a round is
    /// open; see [`Overlay::report_wakes`]).
    #[serde(skip)]
    reporting: bool,
    /// Peers un-settled since the last [`Overlay::clear_woken`].
    #[serde(skip)]
    woken: Vec<PeerId>,
    /// Whether a raw mutation or repair primitive ever wrote this
    /// forest, so its child lists may disagree with its parent pointers
    /// (see the module docs). Never cleared; carried by `Clone`, not
    /// serialized, not compared.
    #[serde(skip)]
    lists_may_lie: bool,
    /// Reusable traversal stack of `(peer, its new hops)` for
    /// re-stamping. Always left empty between calls, so equality stays
    /// purely structural and serialization carries no transient state.
    #[serde(skip)]
    scratch: Vec<(PeerId, u32)>,
    /// When set, cache updates append to the delta buffers below so an
    /// external index (the engine's oracle index) can mirror this
    /// structure without rescanning it.
    #[serde(skip)]
    track_deltas: bool,
    /// Per-written-peer `(peer, stamped delay after the change)`
    /// records, in mutation order. A peer may appear several times;
    /// applying the records in order reproduces the final state.
    #[serde(skip)]
    delay_deltas: Vec<(PeerId, Option<u32>)>,
    /// Peers whose child count changed (free-fanout candidates for the
    /// index). May contain duplicates.
    #[serde(skip)]
    fanout_deltas: Vec<PeerId>,
}

// Equality is logical: live child slices only, never pool garbage, the
// settled bits, the lists-may-lie mark or the transient scratch/delta
// state.
impl PartialEq for Overlay {
    fn eq(&self, other: &Self) -> bool {
        self.source_fanout == other.source_fanout
            && self.fanout == other.fanout
            && self.parent == other.parent
            && self.source_children == other.source_children
            && self.root == other.root
            && self.hops == other.hops
            && self.horizon == other.horizon
            && (0..self.fanout.len()).all(|i| self.kids(i) == other.kids(i))
    }
}

impl Eq for Overlay {}

/// The child arena's layout for the fanouts of `n` peers: where each
/// peer's slice starts, plus the end. A peer can never hold more than
/// n − 1 children, so a slice is at most `n` slots however large the
/// fanout; `None` if even that overflows `u32` offsets.
fn child_layout(fanout: &[u32]) -> Option<Vec<u32>> {
    let n = u32::try_from(fanout.len()).ok()?;
    let mut child_off = Vec::with_capacity(fanout.len() + 1);
    let mut total = 0u32;
    for &f in fanout {
        child_off.push(total);
        total = total.checked_add(f.min(n))?;
    }
    child_off.push(total);
    Some(child_off)
}

impl Overlay {
    /// Creates an empty forest (every peer parent-less) for a population.
    pub fn new(population: &Population) -> Self {
        let n = population.len();
        let fanout: Vec<u32> = population.fanouts().to_vec();
        let child_off = child_layout(&fanout).expect("at most n^2 child slots fit u32 offsets");
        Overlay {
            source_fanout: population.source_fanout(),
            capacity: fanout.clone(),
            latency: population.latencies().to_vec(),
            fanout,
            parent: vec![NO_PARENT; n],
            child_pool: vec![PeerId::new(u32::MAX); child_off[n] as usize],
            child_off,
            child_cnt: vec![0; n],
            source_children: Vec::new(),
            root: (0..n as u32).collect(),
            hops: vec![0; n],
            horizon: population.max_latency().saturating_add(1),
            settled: vec![0; n.div_ceil(64)],
            settled_unrooted: 0,
            reporting: false,
            woken: Vec::new(),
            lists_may_lie: false,
            scratch: Vec::new(),
            track_deltas: false,
            delay_deltas: Vec::new(),
            fanout_deltas: Vec::new(),
        }
    }

    /// The number of child slots of peer index `i` in the arena.
    fn slots(&self, i: usize) -> u32 {
        self.child_off[i + 1] - self.child_off[i]
    }

    /// The live child slice of peer index `i`.
    #[inline]
    fn kids(&self, i: usize) -> &[PeerId] {
        let off = self.child_off[i] as usize;
        &self.child_pool[off..off + self.child_cnt[i] as usize]
    }

    /// Turns delta recording on or off, clearing any pending records.
    /// The engine enables this exactly while it maintains an oracle
    /// index over the overlay.
    pub fn set_delta_tracking(&mut self, on: bool) {
        self.track_deltas = on;
        self.delay_deltas.clear();
        self.fanout_deltas.clear();
    }

    /// Moves the pending delta records into the caller's buffers
    /// (swapping, so allocation capacity circulates instead of being
    /// reallocated every drain). The caller's buffers must be empty.
    pub fn take_deltas_into(
        &mut self,
        delays: &mut Vec<(PeerId, Option<u32>)>,
        fanouts: &mut Vec<PeerId>,
    ) {
        debug_assert!(delays.is_empty() && fanouts.is_empty());
        std::mem::swap(&mut self.delay_deltas, delays);
        std::mem::swap(&mut self.fanout_deltas, fanouts);
    }

    /// Whether any delta records are pending.
    pub fn has_pending_deltas(&self) -> bool {
        !self.delay_deltas.is_empty() || !self.fanout_deltas.is_empty()
    }

    #[inline]
    fn note_fanout_delta(&mut self, parent: Member) {
        if self.track_deltas {
            if let Member::Peer(p) = parent {
                self.fanout_deltas.push(p);
            }
        }
    }

    /// Whether `p` is marked settled: its next action would change
    /// nothing (the engine's claim; see the module docs).
    #[inline]
    pub(crate) fn is_settled(&self, p: PeerId) -> bool {
        self.settled[p.index() >> 6] >> (p.index() & 63) & 1 != 0
    }

    /// Marks `p` settled. The caller has just watched `p`'s action
    /// change nothing.
    ///
    /// Nobody settles while the lists may lie, and [`Overlay::mark_raw`]
    /// clears every bit before it marks: so a marked forest has no bit
    /// set, and neither [`Overlay::unsettle_all`] nor a re-stamp through
    /// a lying list ever finds a settled peer to wake.
    #[inline]
    pub(crate) fn settle(&mut self, p: PeerId) {
        debug_assert!(
            !self.lists_may_lie,
            "nobody settles while the lists may lie"
        );
        let (word, bit) = (p.index() >> 6, 1 << (p.index() & 63));
        if self.settled[word] & bit == 0 {
            self.settled[word] |= bit;
            self.settled_unrooted += usize::from(!self.is_rooted(p));
        }
    }

    /// Un-settles `p`: something its action reads is about to change.
    /// A settled `p` is reported woken while reporting is on.
    #[inline]
    pub(crate) fn unsettle(&mut self, p: PeerId) {
        let (word, bit) = (p.index() >> 6, 1 << (p.index() & 63));
        if self.settled[word] & bit != 0 {
            self.settled[word] &= !bit;
            self.settled_unrooted -= usize::from(!self.is_rooted(p));
            if self.reporting {
                self.woken.push(p);
            }
        }
    }

    /// Un-settles everybody — the rule for the raw writers, which do not
    /// track whom they touch. Mid-round it wakes nobody: only a marked
    /// forest gets here then, and a marked forest has no bit set (see
    /// [`Overlay::settle`]).
    pub(crate) fn unsettle_all(&mut self) {
        self.settled.fill(0);
        self.settled_unrooted = 0;
    }

    /// How many settled peers carry an unrooted stamp — exactly the
    /// settled peers that are not satisfied, since a re-stamp wakes a
    /// settled peer it leaves rooted and violated. O(1).
    pub(crate) fn settled_unrooted(&self) -> usize {
        self.settled_unrooted
    }

    /// Installs the population's latency constraints, which a forest
    /// parsed on its own does not know (see the `latency` field).
    pub(crate) fn set_latencies(&mut self, latencies: &[u32]) {
        debug_assert_eq!(latencies.len(), self.latency.len());
        self.latency.copy_from_slice(latencies);
    }

    /// The peers marked in `among` (a bitmap over peer indices, 64 to a
    /// word) that are not settled, in ascending order: one word at a
    /// time, so O(n/64 + the peers found).
    pub(crate) fn unsettled_among<'a>(
        &'a self,
        among: &'a [u64],
    ) -> impl Iterator<Item = PeerId> + 'a {
        (0u32..)
            .zip(among.iter().zip(&self.settled))
            .flat_map(|(w, (&mark, &settled))| peers_in_word(w, mark & !settled))
    }

    /// Whether a raw mutation or repair primitive has written this
    /// forest, so that a child list may disagree with the parent
    /// pointers (a one-sided graft, an evicted entry) or the pointers
    /// may cycle. `false` on a forest built only by the checked
    /// mutations, or parsed from a validated document.
    pub fn lists_may_lie(&self) -> bool {
        self.lists_may_lie
    }

    /// What every raw mutation and repair primitive does first: nothing
    /// it writes is tracked, so everybody is un-settled, and the child
    /// lists are no longer vouched for.
    fn mark_raw(&mut self) {
        self.unsettle_all();
        self.lists_may_lie = true;
    }

    /// Starts (a round opens) or stops (it closes) reporting which peers
    /// [`Overlay::unsettle`] wakes, dropping whatever is pending.
    pub(crate) fn report_wakes(&mut self, on: bool) {
        self.reporting = on;
        self.clear_woken();
    }

    /// The peers woken since the last [`Overlay::clear_woken`].
    pub(crate) fn woken(&self) -> &[PeerId] {
        &self.woken
    }

    /// Forgets who was woken.
    pub(crate) fn clear_woken(&mut self) {
        self.woken.clear();
    }

    /// Un-settles the listed children of `p`, whose actions read what
    /// the engine keeps about `p` (its liveness).
    pub(crate) fn unsettle_children(&mut self, p: PeerId) {
        let off = self.child_off[p.index()] as usize;
        for slot in off..off + self.child_cnt[p.index()] as usize {
            self.unsettle(self.child_pool[slot]);
        }
    }

    #[inline]
    fn unsettle_member(&mut self, m: Member) {
        if let Member::Peer(p) = m {
            self.unsettle(p);
        }
    }

    /// Re-stamps the subtree of `top` top-down: `top` takes
    /// `(packed_root, hops)` and every child its parent's root and one
    /// more hop, saturating at the horizon — and the descent stops at
    /// the first peer whose stamp does not change, since a child's
    /// stamp is a function of its parent's. A root change therefore
    /// visits the whole subtree, a same-root shift only what lies above
    /// the horizon. This is the *only* place `attach`/`detach`/
    /// `interpose` change a stamp, and a delta record is pushed only for
    /// a peer actually written.
    ///
    /// `top`, whose parent pointer moved, is un-settled. A peer below
    /// it keeps its bit unless its new stamp is rooted past its
    /// latency (see [`Overlay::restamp_settled`]). On a forest whose
    /// lists may lie a listed child need not be the parent's, but no
    /// bit is set there (see [`Overlay::settle`]), so nobody visited
    /// keeps one.
    fn update_subtree_cache(&mut self, top: PeerId, packed_root: u32, hops: u32) {
        let rooted = packed_root == ROOT_SOURCE;
        let mut stack = std::mem::take(&mut self.scratch);
        debug_assert!(stack.is_empty());
        stack.push((top, hops));
        self.unsettle(top);
        // A valid subtree visits each peer once; a corrupted child
        // structure (grafted ancestors) would go round until the stamps
        // saturate, so the writes are capped at the population size.
        let mut budget = self.parent.len();
        while let Some((s, hops)) = stack.pop() {
            let i = s.index();
            self.restamp_settled(s, packed_root, hops);
            if self.root[i] == packed_root && self.hops[i] == hops {
                continue;
            }
            if budget == 0 {
                // Children of re-stamped peers are still stacked; only
                // lying lists loop, so none of them holds a bit.
                break;
            }
            budget -= 1;
            self.root[i] = packed_root;
            self.hops[i] = hops;
            if self.track_deltas {
                self.delay_deltas.push((s, rooted.then_some(hops)));
            }
            let below = hops.saturating_add(1).min(self.horizon);
            stack.extend(self.kids(i).iter().map(|&c| (c, below)));
        }
        stack.clear();
        self.scratch = stack; // capacity retained
    }

    /// What a re-stamp does to the bit of a peer below its top, before
    /// writing `(packed_root, hops)` over its stamp: the peer's parent
    /// pointer, child lists, counters and liveness are untouched and
    /// its new stamp agrees with its parent's, so its action changes
    /// nothing again unless the stamp leaves it rooted and violated,
    /// which wakes it. A kept peer whose stamp changes side moves in or
    /// out of the unrooted count.
    #[inline]
    fn restamp_settled(&mut self, s: PeerId, packed_root: u32, hops: u32) {
        if !self.is_settled(s) {
            return;
        }
        let rooted = packed_root == ROOT_SOURCE;
        if rooted && hops > self.latency[s.index()] {
            self.unsettle(s);
        } else if rooted != self.is_rooted(s) {
            if rooted {
                self.settled_unrooted -= 1;
            } else {
                self.settled_unrooted += 1;
            }
        }
    }

    /// The stamp a peer attached directly under `parent` takes on,
    /// root packed.
    #[inline]
    fn stamp_under(&self, parent: Member) -> (u32, u32) {
        match parent {
            Member::Source => (ROOT_SOURCE, 1),
            Member::Peer(p) => (
                self.root[p.index()],
                self.hops[p.index()].saturating_add(1).min(self.horizon),
            ),
        }
    }

    /// Whether `p` carries the stamp its `parent` implies: the local
    /// check a valid overlay passes at every parented peer.
    #[inline]
    pub(crate) fn stamp_is_under(&self, p: PeerId, parent: Member) -> bool {
        (self.root[p.index()], self.hops[p.index()]) == self.stamp_under(parent)
    }

    /// Appends `child` to the live child slots of `parent`, which has
    /// room for it.
    #[inline]
    fn push_child(&mut self, parent: Member, child: PeerId) {
        match parent {
            Member::Source => self.source_children.push(child),
            Member::Peer(p) => {
                let i = p.index();
                let slot = self.child_off[i] as usize + self.child_cnt[i] as usize;
                self.child_pool[slot] = child;
                self.child_cnt[i] += 1;
            }
        }
    }

    /// Number of peers the forest was sized for.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest tracks no peers.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// `Parent(p)`, if any.
    pub fn parent(&self, p: PeerId) -> Option<Member> {
        unpack_parent(self.parent[p.index()])
    }

    /// `Children(p)`.
    pub fn children(&self, p: PeerId) -> &[PeerId] {
        self.kids(p.index())
    }

    /// Children of the source.
    pub fn source_children(&self) -> &[PeerId] {
        &self.source_children
    }

    /// Unused fanout of a member. Saturating: a corrupted state may
    /// carry more children than the advertised fanout (see the raw
    /// mutation surface below), which simply reads as zero free slots.
    pub fn free_fanout(&self, m: Member) -> u32 {
        match m {
            Member::Source => self
                .source_fanout
                .saturating_sub(self.source_children.len() as u32),
            Member::Peer(p) => self.fanout[p.index()].saturating_sub(self.child_cnt[p.index()]),
        }
    }

    /// The fanout `p` currently advertises (normally its constraint;
    /// a corruption may have forged it below the child count).
    pub fn advertised_fanout(&self, p: PeerId) -> u32 {
        self.fanout[p.index()]
    }

    /// The child capacity of `p` — the fanout the forest was built
    /// with, immune to forgery.
    pub fn child_capacity(&self, p: PeerId) -> u32 {
        self.capacity[p.index()]
    }

    /// Whether a member has unused fanout.
    pub fn has_free_fanout(&self, m: Member) -> bool {
        self.free_fanout(m) > 0
    }

    /// Whether `m` can take one more child: unused fanout, and for a
    /// peer a free slot in the child arena (at most n, see
    /// [`child_layout`]).
    fn can_adopt(&self, m: Member) -> bool {
        self.has_free_fanout(m)
            && match m {
                Member::Source => true,
                Member::Peer(p) => self.child_cnt[p.index()] < self.slots(p.index()),
            }
    }

    /// `Root(p)`: the source or the fragment root of `p`'s chain. O(1)
    /// via the incrementally maintained cache.
    pub fn root(&self, p: PeerId) -> ChainRoot {
        ChainRoot::unpack(self.root[p.index()])
    }

    /// Whether `p`'s chain reaches the source. O(1).
    pub fn is_rooted(&self, p: PeerId) -> bool {
        self.root[p.index()] == ROOT_SOURCE
    }

    /// Where the stamped hop counts saturate: `max_latency + 1` of the
    /// population the forest was built for.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// `min(hops_to_root, horizon)` as stamped on `p`. O(1) — the read
    /// every protocol decision makes.
    pub fn stamped_hops(&self, p: PeerId) -> u32 {
        self.hops[p.index()]
    }

    /// `min(DelayAt, horizon)` as stamped on `p`, defined only when the
    /// chain reaches the source. O(1). Any comparison with a latency
    /// constraint comes out as it would on the exact
    /// [`Overlay::delay`], which is what reports want instead.
    pub fn stamped_delay(&self, p: PeerId) -> Option<u32> {
        if self.root[p.index()] == ROOT_SOURCE {
            Some(self.hops[p.index()])
        } else {
            None
        }
    }

    /// Number of edges between `p` and its chain root (0 when `p` *is*
    /// the fragment root; depth when rooted at the source). Exact: O(1)
    /// above the horizon; a saturated stamp is resolved by walking up
    /// to the first ancestor stamped below the horizon (or the chain's
    /// end).
    pub fn hops_to_root(&self, p: PeerId) -> u32 {
        let mut cur = p;
        for steps in 0..=self.parent.len() as u32 {
            let hops = self.hops[cur.index()];
            if hops < self.horizon {
                return hops + steps;
            }
            match unpack_parent(self.parent[cur.index()]) {
                Some(Member::Peer(q)) => cur = q,
                Some(Member::Source) => return steps + 1,
                None => return steps,
            }
        }
        // A forged cycle of saturated stamps has no exact depth.
        self.horizon
    }

    /// `DelayAt(p)`: the actual observed delay, defined only when the
    /// chain reaches the source. A direct child of the source observes
    /// delay 1 (§3.2 worked example); each hop adds one time unit.
    /// Exact, like [`Overlay::hops_to_root`].
    pub fn delay(&self, p: PeerId) -> Option<u32> {
        self.is_rooted(p).then(|| self.hops_to_root(p))
    }

    /// The delay `p` *would* observe if its fragment root attached
    /// directly to the source — the optimistic estimate peers use when
    /// negotiating inside unrooted fragments. Equals [`Overlay::delay`]
    /// for rooted peers. Exact, like [`Overlay::hops_to_root`].
    pub fn speculative_delay(&self, p: PeerId) -> u32 {
        self.hops_to_root(p) + u32::from(!self.is_rooted(p))
    }

    /// [`Overlay::delay`] of every peer in one O(N) top-down pass over
    /// the child lists, from the source down — what a whole-population
    /// profile reads, where N walks up from deep peers would cost
    /// O(N·depth).
    pub fn delays(&self) -> Vec<Option<u32>> {
        let mut delays = vec![None; self.parent.len()];
        let mut stack = Vec::new();
        let (mut level, mut delay) = (&self.source_children[..], 1);
        loop {
            for &c in level {
                // First visit wins, so a grafted child list cannot loop.
                if delays[c.index()].is_none() {
                    delays[c.index()] = Some(delay);
                    stack.push(c);
                }
            }
            let Some(p) = stack.pop() else {
                return delays;
            };
            level = self.kids(p.index());
            delay = delays[p.index()].expect("stacked with a delay") + 1;
        }
    }

    /// [`Overlay::root`] recomputed by walking the parent chain —
    /// O(depth). The reference implementation the cache is checked
    /// against (see [`Overlay::validate`] and the cache-coherence
    /// proptests/benchmarks); production code wants [`Overlay::root`].
    pub fn walk_root(&self, p: PeerId) -> ChainRoot {
        let mut current = p;
        loop {
            match unpack_parent(self.parent[current.index()]) {
                Some(Member::Source) => return ChainRoot::Source,
                Some(Member::Peer(q)) => current = q,
                None => return ChainRoot::Fragment(current),
            }
        }
    }

    /// [`Overlay::hops_to_root`] recomputed by walking the parent chain —
    /// O(depth). Reference implementation for cache-coherence checks.
    pub fn walk_hops_to_root(&self, p: PeerId) -> u32 {
        let mut hops = 0;
        let mut current = p;
        loop {
            match unpack_parent(self.parent[current.index()]) {
                Some(Member::Source) => return hops + 1,
                Some(Member::Peer(q)) => {
                    hops += 1;
                    current = q;
                }
                None => return hops,
            }
        }
    }

    /// [`Overlay::delay`] recomputed by walking the parent chain —
    /// O(depth). Reference implementation for cache-coherence checks.
    pub fn walk_delay(&self, p: PeerId) -> Option<u32> {
        match self.walk_root(p) {
            ChainRoot::Source => Some(self.walk_hops_to_root(p)),
            ChainRoot::Fragment(_) => None,
        }
    }

    /// Attaches `child` under `parent`.
    ///
    /// The child's entire subtree comes along (its own children keep
    /// their links), so the cycle check walks *up* from the parent.
    ///
    /// # Errors
    ///
    /// [`OverlayError::HasParent`], [`OverlayError::ParentFull`],
    /// [`OverlayError::SelfParent`], or [`OverlayError::WouldCycle`].
    pub fn attach(&mut self, child: PeerId, parent: Member) -> Result<(), OverlayError> {
        if parent == Member::Peer(child) {
            return Err(OverlayError::SelfParent);
        }
        if self.parent[child.index()] != NO_PARENT {
            return Err(OverlayError::HasParent);
        }
        if !self.can_adopt(parent) {
            return Err(OverlayError::ParentFull);
        }
        // A parent-less child is the root of its own fragment, so the
        // prospective parent descends from it iff the parent's cached
        // chain root *is* the child — an O(1) cycle check.
        if matches!(parent, Member::Peer(p) if self.root[p.index()] == child.get()) {
            return Err(OverlayError::WouldCycle);
        }
        let (new_root, hops) = self.stamp_under(parent);
        self.parent[child.index()] = pack_parent(Some(parent));
        self.push_child(parent, child);
        self.unsettle_member(parent);
        self.note_fanout_delta(parent);
        // The child was a fragment root, so its whole subtree adopts
        // the new root.
        self.update_subtree_cache(child, new_root, hops);
        Ok(())
    }

    /// The paper's `j ← i ← k` as one reconfiguration: parent-less `i`
    /// takes the place of `j` under `j`'s parent `k` and adopts `j`,
    /// whose subtree comes along one hop deeper.
    ///
    /// The outcome — child-slot order, stamps, and the state of an
    /// index fed by the delta records — is exactly that of `detach(j)`,
    /// `attach(i, k)`, `attach(j, i)`, but `j` keeps its root, so only
    /// the part of its subtree above the horizon is re-stamped (the
    /// stepwise calls re-stamp all of it twice), and nothing is touched
    /// unless all three calls would succeed.
    ///
    /// # Errors
    ///
    /// [`OverlayError::NoParent`] if `j` has no parent or its parent
    /// does not list it; otherwise whatever either attach would return:
    /// [`OverlayError::SelfParent`], [`OverlayError::HasParent`] (`i`
    /// has a parent), [`OverlayError::ParentFull`] (`i` is full, or `k`
    /// holds more children than it advertises), or
    /// [`OverlayError::WouldCycle`] (`k`'s cached root names `i` or
    /// `j`).
    pub fn interpose(&mut self, i: PeerId, j: PeerId) -> Result<(), OverlayError> {
        let parent = unpack_parent(self.parent[j.index()]).ok_or(OverlayError::NoParent)?;
        if i == j || parent == Member::Peer(i) {
            return Err(OverlayError::SelfParent);
        }
        if self.parent[i.index()] != NO_PARENT {
            return Err(OverlayError::HasParent);
        }
        let (siblings, advertised) = match parent {
            Member::Source => (&self.source_children[..], self.source_fanout),
            Member::Peer(k) => (self.kids(k.index()), self.fanout[k.index()]),
        };
        let pos = siblings
            .iter()
            .position(|&c| c == j)
            .ok_or(OverlayError::NoParent)?;
        // Removing j frees the one slot i needs — unless a corruption
        // left the parent over its advertised fanout.
        if siblings.len() as u32 > advertised || !self.can_adopt(Member::Peer(i)) {
            return Err(OverlayError::ParentFull);
        }
        // attach(i, k) refuses a k inside i's fragment; attach(j, i)
        // then reads the root i inherited from k.
        if let Member::Peer(k) = parent {
            let root_k = self.root[k.index()];
            if root_k == i.get() || root_k == j.get() {
                return Err(OverlayError::WouldCycle);
            }
        }

        // Slot order of swap_remove-then-push: the last sibling moves
        // into j's slot and i goes last.
        match parent {
            Member::Source => {
                self.source_children.swap_remove(pos);
                self.source_children.push(i);
            }
            Member::Peer(k) => {
                let off = self.child_off[k.index()] as usize;
                let last = off + self.child_cnt[k.index()] as usize - 1;
                self.child_pool[off + pos] = self.child_pool[last];
                self.child_pool[last] = i;
                self.unsettle(k);
            }
        }
        let (new_root, hops) = self.stamp_under(parent);
        self.parent[i.index()] = pack_parent(Some(parent));
        // i's own fragment moves under k before j joins it, so j's
        // subtree is not visited with i's.
        self.update_subtree_cache(i, new_root, hops);
        self.parent[j.index()] = i.get();
        self.push_child(Member::Peer(i), j);
        self.note_fanout_delta(Member::Peer(i));
        // j keeps its root and sinks one hop: the descent ends where
        // its subtree crosses the horizon.
        let (root, hops) = self.stamp_under(Member::Peer(i));
        self.update_subtree_cache(j, root, hops);
        Ok(())
    }

    /// Detaches `child` from its parent (the paper's `j ↚ i`). The
    /// child keeps its own subtree and becomes a fragment root.
    ///
    /// # Errors
    ///
    /// [`OverlayError::NoParent`] if the child has no parent.
    pub fn detach(&mut self, child: PeerId) -> Result<Member, OverlayError> {
        let parent = unpack_parent(self.parent[child.index()]).ok_or(OverlayError::NoParent)?;
        self.parent[child.index()] = NO_PARENT;
        // A corrupted (dangling) parent pointer may have no matching
        // backlink; detaching then simply clears the pointer — on a
        // valid overlay the position lookup always succeeds.
        match parent {
            Member::Source => {
                if let Some(pos) = self.source_children.iter().position(|&c| c == child) {
                    self.source_children.swap_remove(pos);
                }
            }
            Member::Peer(p) => {
                let i = p.index();
                let off = self.child_off[i] as usize;
                let cnt = self.child_cnt[i] as usize;
                if let Some(pos) = self.child_pool[off..off + cnt]
                    .iter()
                    .position(|&c| c == child)
                {
                    // Same ordering as `Vec::swap_remove` on the old layout.
                    self.child_pool[off + pos] = self.child_pool[off + cnt - 1];
                    self.child_cnt[i] -= 1;
                }
            }
        }
        self.unsettle_member(parent);
        self.note_fanout_delta(parent);
        // The detached subtree keeps its shape, rooted at the child.
        self.update_subtree_cache(child, ChainRoot::Fragment(child).pack(), 0);
        Ok(parent)
    }

    /// Removes a departing peer from the overlay (churn): detaches it
    /// from its parent and orphans each of its children, which keep
    /// their own subtrees and become fragment roots (§3.2 argues this
    /// reuse of past structure matters). The peer leaves as a bare
    /// fragment root named in no list, even where a corruption forged
    /// its stamp or grafted it into a list: an offline peer takes no
    /// action that could repair either, and a re-stamp through a graft
    /// would write its stamp.
    ///
    /// Returns the orphaned children.
    pub fn remove_peer(&mut self, p: PeerId) -> Vec<PeerId> {
        if self.parent[p.index()] != NO_PARENT {
            self.detach(p).expect("checked parent");
        }
        if self.lists_may_lie {
            while self.evict_child(Member::Source, p) {}
            for q in 0..self.len() as u32 {
                while self.evict_child(Member::Peer(PeerId::new(q)), p) {}
            }
        }
        let orphans: Vec<PeerId> = self.kids(p.index()).to_vec();
        self.child_cnt[p.index()] = 0;
        self.update_subtree_cache(p, ChainRoot::Fragment(p).pack(), 0);
        self.note_fanout_delta(Member::Peer(p));
        for &c in &orphans {
            self.parent[c.index()] = NO_PARENT;
            self.update_subtree_cache(c, ChainRoot::Fragment(c).pack(), 0);
        }
        orphans
    }

    /// Iterates over the subtree of `p` (including `p`), breadth-first.
    pub fn subtree(&self, p: PeerId) -> Vec<PeerId> {
        let mut out = vec![p];
        let mut i = 0;
        while i < out.len() {
            out.extend_from_slice(self.kids(out[i].index()));
            i += 1;
        }
        out
    }

    /// Number of peers currently attached (having any parent).
    pub fn attached_count(&self) -> usize {
        self.parent.iter().filter(|&&p| p != NO_PARENT).count()
    }

    /// A cheap O(fanout) local invariant probe for one peer, run even
    /// in release builds where the full [`Overlay::validate`] sweep is
    /// too expensive: parent/child backlinks in both directions, the
    /// fanout bound, and cache coherence of `p` against its parent.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn spot_check(&self, p: PeerId) -> Result<(), String> {
        let i = p.index();
        if self.child_cnt[i] > self.fanout[i] {
            return Err(format!(
                "fanout bound violated at {p}: {} children > fanout {}",
                self.child_cnt[i], self.fanout[i]
            ));
        }
        if self.source_children.len() as u32 > self.source_fanout {
            return Err(format!(
                "fanout bound violated at source: {} children > fanout {}",
                self.source_children.len(),
                self.source_fanout
            ));
        }
        match unpack_parent(self.parent[i]) {
            None => {
                if self.root[i] != p.get() || self.hops[i] != 0 {
                    return Err(format!("parent-less {p} is not its own fragment root"));
                }
            }
            Some(Member::Source) => {
                if !self.source_children.contains(&p) {
                    return Err(format!("{p} missing from source children"));
                }
                if !self.stamp_is_under(p, Member::Source) {
                    return Err(format!("source child {p} has bad cache"));
                }
            }
            Some(Member::Peer(q)) => {
                if !self.kids(q.index()).contains(&p) {
                    return Err(format!("{p} missing from children of {q}"));
                }
                if !self.stamp_is_under(p, Member::Peer(q)) {
                    return Err(format!("{p} cache disagrees with parent {q}"));
                }
            }
        }
        for &c in self.kids(i) {
            if unpack_parent(self.parent[c.index()]) != Some(Member::Peer(p)) {
                return Err(format!("{c} not linked back to {p}"));
            }
        }
        Ok(())
    }

    /// Walks the parent chain of `p`, bounded by the population size,
    /// returning the true `(root, hops)` pair — the single chain-walk
    /// both validators are built on.
    ///
    /// # Errors
    ///
    /// Names the starting peer when the walk exceeds `n` edges (a
    /// parent cycle).
    pub fn checked_walk(&self, p: PeerId) -> Result<(ChainRoot, u32), String> {
        let mut cur = p;
        let mut hops = 0u32;
        loop {
            match unpack_parent(self.parent[cur.index()]) {
                Some(Member::Source) => return Ok((ChainRoot::Source, hops + 1)),
                Some(Member::Peer(q)) => {
                    hops += 1;
                    if hops as usize > self.parent.len() {
                        return Err(format!(
                            "acyclicity violated: parent chain of {p} cycles (through {cur})"
                        ));
                    }
                    cur = q;
                }
                None => return Ok((ChainRoot::Fragment(cur), hops)),
            }
        }
    }

    /// Exhaustively checks structural invariants; used by tests and
    /// debug assertions. Cheap enough (O(n + edges)) to run after every
    /// round in test builds at paper scale — the engine size-gates it
    /// (see `Engine`) so 10^5-peer debug runs stay usable.
    ///
    /// The invariants: fanout bounds; every child list entry, the
    /// source's included, names its owner as the child's parent, and no
    /// list names a child twice; every parented peer is listed by its
    /// parent; no parent chain cycles; every stamp matches its chain.
    /// A forest that passes is one the checked mutations could have
    /// built, so nothing [`crate::stabilize`] diagnoses can hold in it —
    /// what lets a parsed forest start without the lists-may-lie mark.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation,
    /// naming the offending peers and the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.source_children.len() as u32 > self.source_fanout {
            return Err(format!(
                "fanout bound violated at source: {} children > fanout {}",
                self.source_children.len(),
                self.source_fanout
            ));
        }
        for i in 0..self.parent.len() {
            let p = PeerId::new(i as u32);
            if self.child_cnt[i] > self.fanout[i] {
                return Err(format!(
                    "fanout bound violated at {p}: {} children > fanout {}",
                    self.child_cnt[i], self.fanout[i]
                ));
            }
            for &c in self.kids(i) {
                if self.parent[c.index()] != p.get() {
                    return Err(format!(
                        "backlink violated: {p} lists child {c}, but {c}'s parent is {:?}",
                        unpack_parent(self.parent[c.index()])
                    ));
                }
            }
        }
        for &c in &self.source_children {
            if self.parent[c.index()] != PARENT_SOURCE {
                return Err(format!(
                    "backlink violated: source lists child {c}, but {c}'s parent is {:?}",
                    unpack_parent(self.parent[c.index()])
                ));
            }
        }
        // Every entry now names a peer whose parent owns the list, so no
        // two lists share a peer, and the entries outnumber the parented
        // peers exactly when some list names a child twice.
        let entries =
            self.child_cnt.iter().map(|&c| c as usize).sum::<usize>() + self.source_children.len();
        if entries > self.attached_count() {
            let lists = (0..self.parent.len())
                .map(|i| (Member::Peer(PeerId::new(i as u32)), self.kids(i)))
                .chain([(Member::Source, &self.source_children[..])]);
            for (owner, kids) in lists {
                if let Some(k) = (1..kids.len()).find(|&k| kids[..k].contains(&kids[k])) {
                    return Err(format!(
                        "duplicate entry: {owner} lists child {} twice",
                        kids[k]
                    ));
                }
            }
        }
        for i in 0..self.parent.len() {
            let p = PeerId::new(i as u32);
            match unpack_parent(self.parent[i]) {
                Some(Member::Source) if !self.source_children.contains(&p) => {
                    return Err(format!(
                        "backlink violated: {p}'s parent is the source, \
                         but the source does not list {p}"
                    ));
                }
                Some(Member::Peer(q)) if !self.kids(q.index()).contains(&p) => {
                    return Err(format!(
                        "backlink violated: {p}'s parent is {q}, but {q} does not list {p}"
                    ));
                }
                _ => {}
            }
            // One bounded walk serves the cycle check and both cache
            // coherence checks.
            let (true_root, true_hops) = self.checked_walk(p)?;
            if ChainRoot::unpack(self.root[i]) != true_root {
                return Err(format!(
                    "root cache violated at {p}: cached {:?}, chain walk says {true_root:?}",
                    ChainRoot::unpack(self.root[i]),
                ));
            }
            if self.hops[i] != true_hops.min(self.horizon) {
                return Err(format!(
                    "hops cache violated at {p}: cached {}, chain walk says {true_hops} \
                     (horizon {})",
                    self.hops[i], self.horizon,
                ));
            }
        }
        Ok(())
    }

    /// Extends [`Overlay::validate`] with the crash-stop liveness
    /// invariant: once detection has completed for a peer (`detected`
    /// marks crash victims whose silence has outlasted the detection
    /// timeout), no node may reference it — a detected peer holds no
    /// parent, serves no children, and in particular no live node's
    /// parent is a detected corpse. The engine debug-asserts this after
    /// every fault sweep.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation, or
    /// of a `detected` slice whose length disagrees with the overlay.
    pub fn validate_liveness(&self, detected: &[bool]) -> Result<(), String> {
        if detected.len() != self.parent.len() {
            return Err(format!(
                "detected bitmap has {} entries for {} peers",
                detected.len(),
                self.parent.len()
            ));
        }
        for (i, &dead) in detected.iter().enumerate() {
            let p = PeerId::new(i as u32);
            if dead {
                if let Some(parent) = unpack_parent(self.parent[i]) {
                    return Err(format!(
                        "liveness violated: detected crash victim {p} \
                         still holds parent {parent:?}"
                    ));
                }
                if self.child_cnt[i] != 0 {
                    return Err(format!(
                        "liveness violated: detected crash victim {p} still serves {} children",
                        self.child_cnt[i]
                    ));
                }
            }
            if let Some(Member::Peer(q)) = unpack_parent(self.parent[i]) {
                if detected[q.index()] {
                    return Err(format!(
                        "liveness violated: live peer {p}'s parent {q} \
                         is a detected crash victim"
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Raw mutation surface — adversarial snapshot corruption and local
    // repair primitives.
    //
    // Unlike `attach`/`detach`, nothing here maintains invariants or
    // caches: these are the operations a `CorruptionPlan` interpreter
    // uses to force the forest into an *arbitrary* state, and the
    // minimal counter-operations the `stabilize` rule repairs with.
    // After any raw mutation [`Overlay::validate`] may (intentionally)
    // fail until stabilization completes. None of them tracks whose
    // action reads the word it writes, so each un-settles everybody
    // (they are rare) and marks the child lists untrusted
    // (`mark_raw`). Delta records ARE maintained
    // here: the oracle sampling index stays subscribed through repair,
    // and a stale index would hide the very slots re-attachment needs.
    // ------------------------------------------------------------------

    /// Overwrites `p`'s parent pointer, touching no child list and no
    /// cache — the corrupt half of a dangling pointer or cycle splice.
    pub fn raw_set_parent(&mut self, p: PeerId, parent: Option<Member>) {
        self.mark_raw();
        self.parent[p.index()] = pack_parent(parent);
    }

    /// Overwrites `p`'s cached chain root and hop count — forged
    /// depth/delay state ([`ChainRoot`] staleness included).
    pub fn raw_set_cache(&mut self, p: PeerId, root: ChainRoot, hops: u32) {
        self.mark_raw();
        self.root[p.index()] = root.pack();
        self.hops[p.index()] = hops;
        if self.track_deltas {
            let delay = matches!(root, ChainRoot::Source).then_some(hops);
            self.delay_deltas.push((p, delay));
        }
    }

    /// Forges `p`'s advertised fanout. Clamped to the physical slot
    /// capacity (the build-time fanout), so only downward forgery —
    /// the kind that overflows the bound — is possible.
    pub fn raw_set_fanout(&mut self, p: PeerId, fanout: u32) {
        self.mark_raw();
        self.fanout[p.index()] = fanout.min(self.child_capacity(p));
        self.note_fanout_delta(Member::Peer(p));
    }

    /// Appends `child` to `p`'s live child slots without touching
    /// `child`'s parent pointer (a one-sided graft). Returns `false`
    /// when every physical slot is taken or the entry already exists.
    pub fn raw_add_child(&mut self, p: PeerId, child: PeerId) -> bool {
        self.mark_raw();
        let i = p.index();
        if self.child_cnt[i] >= self.slots(i) || self.kids(i).contains(&child) {
            return false;
        }
        self.push_child(Member::Peer(p), child);
        self.note_fanout_delta(Member::Peer(p));
        true
    }

    /// Appends `child` to the source's child list without touching
    /// `child`'s parent pointer. The source list is unbounded storage,
    /// so this can overflow the source fanout.
    pub fn raw_push_source_child(&mut self, child: PeerId) {
        self.mark_raw();
        self.source_children.push(child);
    }

    /// Repair primitive: removes `child` from `parent`'s live slots (or
    /// the source list) without touching `child`'s parent pointer —
    /// the counter-operation to a one-sided graft. Returns whether an
    /// entry was removed.
    pub fn evict_child(&mut self, parent: Member, child: PeerId) -> bool {
        self.mark_raw();
        match parent {
            Member::Source => match self.source_children.iter().position(|&c| c == child) {
                Some(pos) => {
                    self.source_children.swap_remove(pos);
                    true
                }
                None => false,
            },
            Member::Peer(q) => {
                let i = q.index();
                let off = self.child_off[i] as usize;
                let cnt = self.child_cnt[i] as usize;
                match self.child_pool[off..off + cnt]
                    .iter()
                    .position(|&c| c == child)
                {
                    Some(pos) => {
                        self.child_pool[off + pos] = self.child_pool[off + cnt - 1];
                        self.child_cnt[i] -= 1;
                        self.note_fanout_delta(parent);
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Repair primitive: restores `p`'s advertised fanout to the
    /// physical capacity it was built with.
    pub fn restore_fanout(&mut self, p: PeerId) {
        self.mark_raw();
        self.fanout[p.index()] = self.child_capacity(p);
        self.note_fanout_delta(Member::Peer(p));
    }

    /// Repair primitive: resolves a self-parent loop by clearing `p`'s
    /// parent pointer, removing `p` from its own child slots, and
    /// resetting its cache to a fragment root. `p`'s genuine children
    /// keep their links (their caches converge via their own checks).
    pub fn heal_self_parent(&mut self, p: PeerId) {
        self.parent[p.index()] = NO_PARENT;
        self.evict_child(Member::Peer(p), p);
        self.raw_set_cache(p, ChainRoot::Fragment(p), 0);
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for ChainRoot {
    fn to_json(&self) -> Json {
        match self {
            ChainRoot::Source => Json::Str("source".to_string()),
            ChainRoot::Fragment(p) => p.to_json(),
        }
    }
}

impl FromJson for ChainRoot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Str(s) if s == "source" => Ok(ChainRoot::Source),
            other => Ok(ChainRoot::Fragment(PeerId::from_json(other)?)),
        }
    }
}

impl ToJson for Overlay {
    fn to_json(&self) -> Json {
        // The wire shape is per peer (`children` lists, `Option<Member>`
        // parents, `ChainRoot` roots), not the arena: `from_json`
        // rebuilds the arena from it.
        let parent: Vec<Option<Member>> = self.parent.iter().map(|&r| unpack_parent(r)).collect();
        let children: Vec<Vec<PeerId>> = (0..self.parent.len())
            .map(|i| self.kids(i).to_vec())
            .collect();
        let root: Vec<ChainRoot> = self.root.iter().map(|&r| ChainRoot::unpack(r)).collect();
        object(vec![
            ("source_fanout", self.source_fanout.to_json()),
            ("fanout", self.fanout.to_json()),
            ("parent", parent.to_json()),
            ("children", children.to_json()),
            ("source_children", self.source_children.to_json()),
            ("root", root.to_json()),
            ("hops", self.hops.to_json()),
            ("horizon", self.horizon.to_json()),
        ])
    }
}

impl FromJson for Overlay {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let fanout = Vec::<u32>::from_json(value.get("fanout")?)?;
        let parent = Vec::<Option<Member>>::from_json(value.get("parent")?)?;
        let children = Vec::<Vec<PeerId>>::from_json(value.get("children")?)?;
        let source_children = Vec::<PeerId>::from_json(value.get("source_children")?)?;
        let root = Vec::<ChainRoot>::from_json(value.get("root")?)?;
        let hops = Vec::<u32>::from_json(value.get("hops")?)?;
        // `validate` indexes every per-peer array by every peer id it
        // meets, so shapes and ids are checked first.
        let n = fanout.len();
        for (name, len) in [
            ("parent", parent.len()),
            ("children", children.len()),
            ("root", root.len()),
            ("hops", hops.len()),
        ] {
            if len != n {
                return Err(JsonError(format!(
                    "overlay {name} has {len} entries for {n} fanout entries"
                )));
            }
        }
        let parents = parent.iter().filter_map(|&m| match m {
            Some(Member::Peer(q)) => Some(q),
            _ => None,
        });
        let fragment_roots = root.iter().filter_map(|&r| match r {
            ChainRoot::Fragment(q) => Some(q),
            ChainRoot::Source => None,
        });
        let named = children.iter().flatten().chain(&source_children).copied();
        if let Some(q) = named
            .chain(parents)
            .chain(fragment_roots)
            .find(|q| q.index() >= n)
        {
            return Err(JsonError(format!("overlay names {q} of {n} peers")));
        }
        let child_off = child_layout(&fanout)
            .ok_or_else(|| JsonError("overlay fanouts overflow the child arena".into()))?;
        let mut child_cnt = vec![0u32; n];
        let mut child_pool = vec![PeerId::new(u32::MAX); child_off[n] as usize];
        for (i, kids) in children.iter().enumerate() {
            if kids.len() > (child_off[i + 1] - child_off[i]) as usize {
                return Err(JsonError(format!("peer {i} fanout exceeded")));
            }
            child_cnt[i] = kids.len() as u32;
            let off = child_off[i] as usize;
            child_pool[off..off + kids.len()].copy_from_slice(kids);
        }
        let overlay = Overlay {
            source_fanout: u32::from_json(value.get("source_fanout")?)?,
            capacity: fanout.clone(),
            latency: vec![0; n],
            fanout,
            parent: parent.into_iter().map(pack_parent).collect(),
            child_off,
            child_cnt,
            child_pool,
            source_children,
            root: root.into_iter().map(ChainRoot::pack).collect(),
            hops,
            horizon: u32::from_json(value.get("horizon")?)?,
            settled: vec![0; children.len().div_ceil(64)],
            settled_unrooted: 0,
            reporting: false,
            woken: Vec::new(),
            lists_may_lie: false,
            scratch: Vec::new(),
            track_deltas: false,
            delay_deltas: Vec::new(),
            fanout_deltas: Vec::new(),
        };
        overlay.validate().map_err(JsonError)?;
        Ok(overlay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Constraints;

    fn pop(source_fanout: u32, specs: &[(u32, u32)]) -> Population {
        Population::new(
            source_fanout,
            specs.iter().map(|&(f, l)| Constraints::new(f, l)).collect(),
        )
    }

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    #[test]
    fn validate_liveness_flags_references_to_detected_peers() {
        let population = pop(2, &[(2, 5), (1, 5), (0, 5)]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(1))).unwrap();

        let nobody = vec![false; 3];
        assert_eq!(o.validate_liveness(&nobody), Ok(()));

        // Declaring peer 1 detected while it still has edges violates
        // all three clauses.
        let dead1 = vec![false, true, false];
        assert!(o.validate_liveness(&dead1).is_err());

        // Removing it the way the engine's sweep does restores the
        // invariant.
        o.remove_peer(p(1));
        assert_eq!(o.validate_liveness(&dead1), Ok(()));

        // Length mismatch is rejected, not ignored.
        assert!(o.validate_liveness(&[false, true]).is_err());
    }

    #[test]
    fn attach_detach_round_trip() {
        let population = pop(2, &[(2, 1), (1, 2), (0, 3)]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(1))).unwrap();
        assert_eq!(o.delay(p(2)), Some(3));
        assert_eq!(o.parent(p(1)), Some(Member::Peer(p(0))));
        assert_eq!(o.children(p(0)), &[p(1)]);
        assert!(o.is_rooted(p(2)));
        o.validate().unwrap();

        let old_parent = o.detach(p(1)).unwrap();
        assert_eq!(old_parent, Member::Peer(p(0)));
        assert_eq!(o.delay(p(2)), None, "fragment has no actual delay");
        assert_eq!(o.root(p(2)), ChainRoot::Fragment(p(1)));
        assert_eq!(o.speculative_delay(p(2)), 2);
        o.validate().unwrap();
    }

    #[test]
    fn attach_rejects_full_parent() {
        let population = pop(1, &[(0, 1), (0, 1)]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        assert_eq!(
            o.attach(p(1), Member::Source),
            Err(OverlayError::ParentFull)
        );
        assert_eq!(
            o.attach(p(1), Member::Peer(p(0))),
            Err(OverlayError::ParentFull)
        );
    }

    #[test]
    fn attach_rejects_double_parent_and_self() {
        let population = pop(2, &[(1, 1), (1, 2)]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        assert_eq!(o.attach(p(0), Member::Source), Err(OverlayError::HasParent));
        assert_eq!(
            o.attach(p(1), Member::Peer(p(1))),
            Err(OverlayError::SelfParent)
        );
    }

    #[test]
    fn attach_rejects_cycle() {
        let population = pop(2, &[(1, 1), (1, 2), (1, 3)]);
        let mut o = Overlay::new(&population);
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(1))).unwrap();
        // 0 under 2 would close the loop 0 -> 1 -> 2 -> 0.
        assert_eq!(
            o.attach(p(0), Member::Peer(p(2))),
            Err(OverlayError::WouldCycle)
        );
        o.validate().unwrap();
    }

    /// The chain source ← 0 ← 1 ← 2 beside the fragment 3 ← 4; every
    /// peer has fanout 2.
    fn chain_and_fragment() -> Overlay {
        let population = pop(1, &[(2, 9); 5]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(1))).unwrap();
        o.attach(p(4), Member::Peer(p(3))).unwrap();
        o
    }

    #[test]
    fn interpose_splices_a_fragment_root_above_a_child() {
        let mut o = chain_and_fragment();
        o.interpose(p(3), p(1)).unwrap();
        assert_eq!(o.children(p(0)), &[p(3)]);
        assert_eq!(o.children(p(3)), &[p(4), p(1)]);
        let delays: Vec<_> = (0..5).map(|i| o.delay(p(i))).collect();
        assert_eq!(delays, [Some(1), Some(3), Some(4), Some(2), Some(3)]);
        o.validate().unwrap();

        // Under the source too, where the last sibling fills j's slot.
        let population = pop(3, &[(0, 9), (0, 9), (0, 9), (1, 9)]);
        let mut o = Overlay::new(&population);
        for i in 0..3 {
            o.attach(p(i), Member::Source).unwrap();
        }
        o.interpose(p(3), p(0)).unwrap();
        assert_eq!(o.source_children(), &[p(2), p(1), p(3)]);
        assert_eq!(o.delay(p(0)), Some(2));
        o.validate().unwrap();
    }

    #[test]
    fn interpose_refuses_before_mutating() {
        let refused = |corrupt: &dyn Fn(&mut Overlay), error: OverlayError| {
            let mut o = chain_and_fragment();
            corrupt(&mut o);
            o.set_delta_tracking(true);
            let before = o.clone();
            assert_eq!(o.interpose(p(3), p(1)), Err(error));
            assert_eq!(o, before);
            assert!(!o.has_pending_deltas());
        };
        // k's forged root cache names i: attach(i, k) would refuse.
        refused(
            &|o| o.raw_set_cache(p(0), ChainRoot::Fragment(p(3)), 1),
            OverlayError::WouldCycle,
        );
        // ... or names j, which i would inherit: attach(j, i) would.
        refused(
            &|o| o.raw_set_cache(p(0), ChainRoot::Fragment(p(1)), 1),
            OverlayError::WouldCycle,
        );
        // i advertises no slot for j.
        refused(&|o| o.raw_set_fanout(p(3), 1), OverlayError::ParentFull);
        // k holds more children than it advertises, so j's leaving
        // frees no slot for i.
        refused(
            &|o| {
                o.raw_add_child(p(0), p(4));
                o.raw_set_fanout(p(0), 1);
            },
            OverlayError::ParentFull,
        );
        // The checks either attach makes on a valid overlay.
        refused(&|o| assert!(o.detach(p(1)).is_ok()), OverlayError::NoParent);
        refused(
            &|o| o.attach(p(3), Member::Peer(p(2))).unwrap(),
            OverlayError::HasParent,
        );
    }

    #[test]
    fn interpose_terminates_on_a_grafted_ancestor() {
        // 2 lists its own ancestor 0 as a child: the child lists below
        // j = 1 loop (1 → 2 → 0 → 1 …). The re-stamp goes round until
        // the stamps saturate, within a budget of the population size.
        let mut o = chain_and_fragment();
        assert!(o.raw_add_child(p(2), p(0)));
        o.set_delta_tracking(true);
        o.interpose(p(3), p(1)).unwrap();
        assert_eq!(o.parent(p(1)), Some(Member::Peer(p(3))));
        assert_eq!(o.children(p(3)), &[p(4), p(1)]);
        let (mut delays, mut fanouts) = (Vec::new(), Vec::new());
        o.take_deltas_into(&mut delays, &mut fanouts);
        // i's pass stamps 3 and 4; j's pass stops after one budget.
        assert!(delays.len() <= 2 + o.len());
    }

    /// The source feeds a chain of `n` peers (0 on top), each with
    /// latency 4, so the horizon is 5; peer `n` is a spare fragment
    /// root.
    fn long_chain(n: u32) -> Overlay {
        let population = pop(1, &vec![(1, 4); n as usize + 1]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        for i in 1..n {
            o.attach(p(i), Member::Peer(p(i - 1))).unwrap();
        }
        o
    }

    #[test]
    fn a_same_root_shift_writes_what_lies_above_the_horizon() {
        const N: u32 = 5_000;
        let mut o = long_chain(N);
        assert_eq!(o.horizon(), 5);
        o.set_delta_tracking(true);
        let (mut delays, mut fanouts) = (Vec::new(), Vec::new());

        // The spare takes the source slot and the chain sinks one hop:
        // only the peers that were above the horizon get a new stamp.
        o.interpose(p(N), p(0)).unwrap();
        o.take_deltas_into(&mut delays, &mut fanouts);
        assert!(
            delays.len() <= o.horizon() as usize + 2,
            "{} records",
            delays.len()
        );
        assert_eq!(o.validate(), Ok(()));
        // Reports stay exact where the stamp is saturated.
        let last = p(N - 1);
        assert_eq!(o.stamped_delay(last), Some(5));
        assert_eq!(o.delay(last), Some(N + 1));
        assert_eq!(o.delay(last), o.walk_delay(last));
        assert_eq!(o.delays()[last.index()], Some(N + 1));

        // A root change is not prunable: every peer of the subtree
        // hears about it.
        delays.clear();
        fanouts.clear();
        o.detach(p(N)).unwrap();
        o.take_deltas_into(&mut delays, &mut fanouts);
        assert_eq!(delays.len(), N as usize + 1);
        assert_eq!(o.delay(last), None);
        assert_eq!(o.speculative_delay(last), N + 1);
        o.attach(p(N), Member::Source).unwrap();
        assert_eq!(o.validate(), Ok(()));
    }

    #[test]
    fn detach_without_parent_errors() {
        let population = pop(1, &[(1, 1)]);
        let mut o = Overlay::new(&population);
        assert_eq!(o.detach(p(0)), Err(OverlayError::NoParent));
    }

    #[test]
    fn remove_peer_orphans_children_with_subtrees() {
        let population = pop(1, &[(2, 1), (1, 2), (1, 2), (0, 3)]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(0))).unwrap();
        o.attach(p(3), Member::Peer(p(1))).unwrap();
        let orphans = o.remove_peer(p(0));
        assert_eq!(orphans.len(), 2);
        assert_eq!(o.parent(p(1)), None);
        // 3 stays under 1: the fragment is reusable (§3.2).
        assert_eq!(o.parent(p(3)), Some(Member::Peer(p(1))));
        assert_eq!(o.root(p(3)), ChainRoot::Fragment(p(1)));
        assert_eq!(o.source_children(), &[] as &[PeerId]);
        o.validate().unwrap();
    }

    #[test]
    fn free_fanout_accounting() {
        let population = pop(2, &[(3, 1), (0, 2)]);
        let mut o = Overlay::new(&population);
        assert_eq!(o.free_fanout(Member::Source), 2);
        assert_eq!(o.free_fanout(Member::Peer(p(0))), 3);
        assert!(!o.has_free_fanout(Member::Peer(p(1))));
        o.attach(p(0), Member::Source).unwrap();
        assert_eq!(o.free_fanout(Member::Source), 1);
    }

    #[test]
    fn subtree_is_breadth_first_closure() {
        let population = pop(1, &[(2, 1), (1, 2), (0, 2), (0, 3)]);
        let mut o = Overlay::new(&population);
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(0))).unwrap();
        o.attach(p(3), Member::Peer(p(1))).unwrap();
        let sub = o.subtree(p(0));
        assert_eq!(sub, vec![p(0), p(1), p(2), p(3)]);
        assert_eq!(o.subtree(p(3)), vec![p(3)]);
    }

    #[test]
    fn speculative_delay_of_fragment_root() {
        let population = pop(1, &[(1, 1)]);
        let o = Overlay::new(&population);
        assert_eq!(o.speculative_delay(p(0)), 1);
        assert_eq!(o.hops_to_root(p(0)), 0);
    }

    #[test]
    fn attached_count_tracks_links() {
        let population = pop(2, &[(1, 1), (1, 2)]);
        let mut o = Overlay::new(&population);
        assert_eq!(o.attached_count(), 0);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        assert_eq!(o.attached_count(), 2);
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn equality_ignores_arena_garbage() {
        // Drive two overlays to the same logical state along different
        // mutation paths, leaving different garbage beyond the live
        // child counts; they must still compare equal.
        let population = pop(2, &[(2, 1), (0, 2), (0, 2)]);
        let mut a = Overlay::new(&population);
        a.attach(p(0), Member::Source).unwrap();
        a.attach(p(1), Member::Peer(p(0))).unwrap();
        let mut b = a.clone();
        assert_eq!(a, b);
        b.attach(p(2), Member::Peer(p(0))).unwrap();
        assert_ne!(a, b);
        b.detach(p(2)).unwrap();
        // b's pool slot 1 still holds stale garbage from peer 2's stay.
        assert_eq!(a, b);
    }

    #[test]
    fn spot_check_accepts_every_peer_of_a_valid_forest() {
        let population = pop(2, &[(2, 1), (1, 2), (0, 3), (0, 3)]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(1))).unwrap();
        for i in 0..4 {
            assert_eq!(o.spot_check(p(i)), Ok(()), "peer {i}");
        }
        o.detach(p(1)).unwrap();
        for i in 0..4 {
            assert_eq!(o.spot_check(p(i)), Ok(()), "peer {i} after detach");
        }
    }

    #[test]
    fn delta_tracking_records_cache_movements() {
        let population = pop(2, &[(2, 1), (1, 2), (0, 3)]);
        let mut o = Overlay::new(&population);
        o.set_delta_tracking(true);
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(0), Member::Source).unwrap();
        let mut delays = Vec::new();
        let mut fanouts = Vec::new();
        o.take_deltas_into(&mut delays, &mut fanouts);
        assert!(!o.has_pending_deltas());
        // First attach roots nothing (fragment), second roots both.
        assert!(delays.contains(&(p(1), None)));
        assert!(delays.contains(&(p(0), Some(1))));
        assert!(delays.contains(&(p(1), Some(2))));
        assert_eq!(fanouts, vec![p(0)]);
        // Replaying the final records per peer matches the live state.
        for peer in [p(0), p(1), p(2)] {
            let last = delays.iter().rev().find(|(q, _)| *q == peer);
            match last {
                Some((_, d)) => assert_eq!(*d, o.delay(peer)),
                None => assert_eq!(o.delay(peer), None),
            }
        }
    }

    #[test]
    fn fanouts_past_the_population_reserve_n_slots_each() {
        // 2^31 + 2^31 wraps a u32 sum to 0; a peer reserves at most n
        // slots, so the arena is 3 + 3 slots and nothing wraps.
        let population = pop(1, &[(1 << 31, 1), (1 << 31, 2), (0, 2)]);
        let mut o = Overlay::new(&population);
        assert_eq!(o.child_off, vec![0, 3, 6, 6]);
        assert_eq!(o.child_capacity(p(1)), 1 << 31, "the declared fanout");
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(0))).unwrap();
        assert_eq!(o.children(p(0)), &[p(1), p(2)]);
        o.validate().unwrap();
        let back = Overlay::from_json(&o.to_json()).unwrap();
        assert_eq!(o, back);
        // A self-graft and a one-sided graft of 2 fill the three slots:
        // fanout to spare, no room to attach 2 for real.
        o.detach(p(2)).unwrap();
        assert!(o.raw_add_child(p(0), p(0)) && o.raw_add_child(p(0), p(2)));
        assert!(o.has_free_fanout(Member::Peer(p(0))));
        assert_eq!(
            o.attach(p(2), Member::Peer(p(0))),
            Err(OverlayError::ParentFull)
        );
    }

    #[test]
    fn json_round_trip_preserves_arena_state() {
        let population = pop(2, &[(2, 1), (1, 2), (0, 3)]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        o.attach(p(2), Member::Peer(p(1))).unwrap();
        o.detach(p(1)).unwrap();
        let json = o.to_json();
        let back = Overlay::from_json(&json).unwrap();
        assert_eq!(o, back);
        assert_eq!(back.children(p(1)), &[p(2)]);
    }

    #[test]
    fn json_round_trips_saturated_stamps() {
        // Stamps past the horizon survive the round trip with it.
        let o = long_chain(12);
        assert_eq!(o.stamped_hops(p(11)), o.horizon());
        let back = Overlay::from_json(&o.to_json()).unwrap();
        assert_eq!(o, back);
        assert_eq!(back.horizon(), o.horizon());
    }
}
