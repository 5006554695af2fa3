//! Incremental sampling index for the four reference oracles.
//!
//! The naive oracle path answers every query with an O(n) scan; one
//! construction round issues O(n) queries, so rounds cost O(n²) — the
//! wall that kept the reproduction at 10⁴ peers. This index answers the
//! same queries in O(log n) by maintaining, under the engine's delta
//! feed (DESIGN.md §13):
//!
//! * a Fenwick tree over the online bitmap (O1),
//! * a Fenwick tree over "online with unused fanout" (O2a),
//! * per-delay bitmaps (over peer ids, with a member count per 512
//!   ids) of online rooted peers *inside the latency horizon* (O3),
//!   plus the free-fanout subset of each (O2b).
//!
//! # Latency horizon
//!
//! O3/O2b only ever read buckets `DelayAt < l` with `l ≤
//! population.max_latency()`, so a peer at `DelayAt ≥ max_latency` can
//! never be a candidate and is not filed at all (its mirrored delay is
//! [`DELAY_NONE`], like an unrooted peer's). A displacement burst that
//! pushes subtrees hundreds of hops deep therefore touches the buckets
//! only while a peer crosses the horizon, and the buckets number at
//! most `max_latency`: worst-case memory is `2 · max_latency · n/8`
//! bytes of bitmap (plus 1/16 of that in counts), each bitmap
//! allocated on its bucket's first insert.
//!
//! # Draw-order contract
//!
//! Every sampler consumes **exactly** the RNG stream of the naive
//! reference path: one `rng.index(count)` draw when any candidate
//! exists, none otherwise. O1/O2a enumerate candidates in id order —
//! the historical order — so they are bit-compatible with the original
//! scan. O3/O2b enumerate in *(delay asc, id asc)* order, the only
//! order the bucketed index can serve without a scan of the peers
//! (a query costs `l` bucket lengths, n/512 counts and ≤ 8 popcounts);
//! the naive
//! implementations in [`crate::oracle`] use the same order, so indexed
//! and unindexed runs stay bit-identical (the distribution is uniform
//! over the same candidate set either way).
//!
//! All mirror updates are idempotent — the index recomputes each peer's
//! target membership from its mirrored online bit, so replaying stale
//! deltas after an online transition converges to the current overlay
//! state.

use lagover_sim::SimRng;

use crate::node::{Liveness, Member, PeerId, Population};
use crate::overlay::Overlay;

/// Packed "not in any delay bucket" sentinel (offline, unrooted, or at
/// or beyond the latency horizon).
const DELAY_NONE: u32 = u32::MAX;

/// 64-bit words per [`BitSet`] count group (512 ids).
const GROUP_WORDS: usize = 8;

/// A Fenwick (binary indexed) tree over 0/1 slot occupancy, supporting
/// O(log n) point update, prefix count, and k-th-member selection.
#[derive(Debug, Clone)]
struct Fenwick {
    /// 1-based tree; `tree[0]` unused.
    tree: Vec<u32>,
    total: u32,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
            total: 0,
        }
    }

    /// Adds `delta` (±1) to slot `i` (0-based).
    fn add(&mut self, i: usize, delta: i32) {
        self.total = (i64::from(self.total) + i64::from(delta)) as u32;
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (i64::from(self.tree[i]) + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of set slots with index `< i`.
    fn prefix(&self, i: usize) -> u32 {
        let mut sum = 0;
        let mut i = i;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// 0-based index of the `(k+1)`-th set slot (`k < total`).
    fn select(&self, mut k: u32) -> usize {
        debug_assert!(k < self.total);
        let mut pos = 0usize;
        let mut mask = (self.tree.len() - 1).next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            if next < self.tree.len() && self.tree[next] <= k {
                pos = next;
                k -= self.tree[next];
            }
            mask >>= 1;
        }
        pos
    }
}

/// A set of peer ids as a bitmap over the id universe plus a member
/// count per [`GROUP_WORDS`] words: insert/remove are two word writes,
/// select/rank scan n/512 counts and popcount at most one group.
/// Enumeration order is ascending id. The bitmap is allocated by the
/// first insert, so a bucket nobody ever enters costs nothing.
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
    /// Members in each group of [`GROUP_WORDS`] words.
    counts: Vec<u32>,
    len: usize,
}

impl BitSet {
    fn len(&self) -> usize {
        self.len
    }

    /// Adds `id`, absent until now, out of a universe of `universe` ids.
    fn insert(&mut self, id: u32, universe: usize) {
        if self.words.is_empty() {
            let words = universe.div_ceil(64);
            self.words = vec![0; words];
            self.counts = vec![0; words.div_ceil(GROUP_WORDS)];
        }
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        debug_assert!(self.words[w] & bit == 0, "duplicate insert");
        self.words[w] |= bit;
        self.counts[w / GROUP_WORDS] += 1;
        self.len += 1;
    }

    /// Removes `id`, a member until now.
    fn remove(&mut self, id: u32) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        debug_assert!(self.words[w] & bit != 0, "remove of absent id");
        self.words[w] &= !bit;
        self.counts[w / GROUP_WORDS] -= 1;
        self.len -= 1;
    }

    /// The `(k+1)`-th smallest member (`k < len`).
    fn select(&self, k: usize) -> u32 {
        let mut k = k as u32;
        for (g, &count) in self.counts.iter().enumerate() {
            if k >= count {
                k -= count;
                continue;
            }
            for (w, &word) in self.words.iter().enumerate().skip(g * GROUP_WORDS) {
                let ones = word.count_ones();
                if k >= ones {
                    k -= ones;
                    continue;
                }
                let mut rest = word;
                for _ in 0..k {
                    rest &= rest - 1; // clear the lowest set bit
                }
                return (w * 64) as u32 + rest.trailing_zeros();
            }
        }
        unreachable!("select index out of range")
    }

    /// Number of members `< id`, for an `id` inside the universe of a
    /// set that has seen an insert.
    fn rank(&self, id: u32) -> usize {
        let w = id as usize / 64;
        let first = w / GROUP_WORDS * GROUP_WORDS;
        let below_in_word = self.words[w] & ((1u64 << (id % 64)) - 1);
        let rank = self.counts[..w / GROUP_WORDS].iter().sum::<u32>()
            + self.words[first..w]
                .iter()
                .map(|word| word.count_ones())
                .sum::<u32>()
            + below_in_word.count_ones();
        rank as usize
    }
}

/// The engine-owned sampling index. Rebuilt in O(n log n) from any
/// overlay/online state ([`OracleIndex::build`]); kept current through
/// [`OracleIndex::note_delay`] / [`OracleIndex::note_free_fanout`]
/// (fed by the overlay's delta records) and
/// [`OracleIndex::set_online`] / [`OracleIndex::set_offline`] (called
/// at membership transitions).
#[derive(Debug, Clone)]
pub(crate) struct OracleIndex {
    /// Online peers, by id (O1's candidate set).
    online_fw: Fenwick,
    /// Online peers with unused fanout, by id (O2a's candidate set).
    free_fw: Fenwick,
    /// Online rooted peers with `DelayAt < horizon`, bucketed by
    /// `DelayAt` (O3's candidate set).
    by_delay: Vec<BitSet>,
    /// The unused-fanout subset of each delay bucket (O2b).
    free_by_delay: Vec<BitSet>,
    /// Mirror of the engine's online bitmap.
    online: Vec<bool>,
    /// Whether the peer is currently a member of `free_fw`.
    in_free: Vec<bool>,
    /// The delay bucket each peer currently occupies ([`DELAY_NONE`]
    /// when in none).
    delay: Vec<u32>,
    /// `population.max_latency()`: no query reads a bucket at or past
    /// it, so no peer is filed there.
    horizon: u32,
}

impl OracleIndex {
    /// Builds the index from scratch for the given state.
    pub(crate) fn build(overlay: &Overlay, population: &Population, online: &Liveness) -> Self {
        let n = population.len();
        let mut index = OracleIndex {
            online_fw: Fenwick::new(n),
            free_fw: Fenwick::new(n),
            by_delay: Vec::new(),
            free_by_delay: Vec::new(),
            online: vec![false; n],
            in_free: vec![false; n],
            delay: vec![DELAY_NONE; n],
            horizon: population.max_latency(),
        };
        for p in population.peer_ids().filter(|&p| online.contains(p)) {
            index.set_online(p, overlay);
        }
        index
    }

    /// Marks `p` online, pulling its free-fanout and delay state from
    /// the (current) overlay.
    pub(crate) fn set_online(&mut self, p: PeerId, overlay: &Overlay) {
        if !self.online[p.index()] {
            self.online[p.index()] = true;
            self.online_fw.add(p.index(), 1);
        }
        self.note_free_fanout(p, overlay.has_free_fanout(Member::Peer(p)));
        self.note_delay(p, overlay.stamped_delay(p));
    }

    /// Marks `p` offline, removing it from every candidate set.
    pub(crate) fn set_offline(&mut self, p: PeerId) {
        if self.online[p.index()] {
            self.online[p.index()] = false;
            self.online_fw.add(p.index(), -1);
        }
        // With the online mirror cleared, both target memberships
        // resolve to "absent" regardless of the hint arguments.
        self.note_free_fanout(p, false);
        self.note_delay(p, None);
    }

    /// Applies a free-fanout change: `has_free` is the overlay's
    /// current answer for `p`.
    pub(crate) fn note_free_fanout(&mut self, p: PeerId, has_free: bool) {
        let i = p.index();
        let target = self.online[i] && has_free;
        if self.in_free[i] == target {
            return;
        }
        self.in_free[i] = target;
        self.free_fw.add(i, if target { 1 } else { -1 });
        let d = self.delay[i];
        if d != DELAY_NONE {
            if target {
                self.free_by_delay[d as usize].insert(p.get(), self.online.len());
            } else {
                self.free_by_delay[d as usize].remove(p.get());
            }
        }
    }

    /// Applies a stamp change: `new` is the overlay's current
    /// [`Overlay::stamped_delay`] of `p`, which saturates one past this
    /// index's horizon — where a peer is not filed anyway.
    pub(crate) fn note_delay(&mut self, p: PeerId, new: Option<u32>) {
        let i = p.index();
        let target = match new {
            Some(d) if d < self.horizon && self.online[i] => d,
            _ => DELAY_NONE,
        };
        let old = self.delay[i];
        if old == target {
            return;
        }
        if old != DELAY_NONE {
            self.by_delay[old as usize].remove(p.get());
            if self.in_free[i] {
                self.free_by_delay[old as usize].remove(p.get());
            }
        }
        if target != DELAY_NONE {
            let d = target as usize;
            if d >= self.by_delay.len() {
                self.by_delay.resize_with(d + 1, BitSet::default);
                self.free_by_delay.resize_with(d + 1, BitSet::default);
            }
            self.by_delay[d].insert(p.get(), self.online.len());
            if self.in_free[i] {
                self.free_by_delay[d].insert(p.get(), self.online.len());
            }
        }
        self.delay[i] = target;
    }

    /// O1: uniform over online peers other than the enquirer.
    pub(crate) fn sample_uniform(&self, enquirer: PeerId, rng: &mut SimRng) -> Option<PeerId> {
        self.sample_fenwick(
            &self.online_fw,
            self.online[enquirer.index()],
            enquirer,
            rng,
        )
    }

    /// O2a: uniform over online peers with unused fanout.
    pub(crate) fn sample_free_capacity(
        &self,
        enquirer: PeerId,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        self.sample_fenwick(&self.free_fw, self.in_free[enquirer.index()], enquirer, rng)
    }

    /// O3: uniform over online rooted peers with `DelayAt < l`.
    pub(crate) fn sample_delay_below(
        &self,
        enquirer: PeerId,
        l: u32,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        // `DELAY_NONE` is `u32::MAX`, so `delay < l` also implies the
        // enquirer occupies a bucket.
        let enq_in = self.delay[enquirer.index()] < l;
        self.sample_buckets(&self.by_delay, enq_in, enquirer, l, rng)
    }

    /// O2b: O3 restricted to peers with unused fanout.
    pub(crate) fn sample_delay_below_free(
        &self,
        enquirer: PeerId,
        l: u32,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        let enq_in = self.delay[enquirer.index()] < l && self.in_free[enquirer.index()];
        self.sample_buckets(&self.free_by_delay, enq_in, enquirer, l, rng)
    }

    /// One draw over a Fenwick candidate set, skipping the enquirer —
    /// candidates enumerated in id order, matching the naive scan.
    fn sample_fenwick(
        &self,
        fw: &Fenwick,
        enq_in: bool,
        enquirer: PeerId,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        let mut count = fw.total as usize;
        if enq_in {
            count -= 1;
        }
        if count == 0 {
            return None;
        }
        let mut k = rng.index(count) as u32;
        if enq_in && k >= fw.prefix(enquirer.index()) {
            // The k-th non-enquirer candidate sits one past the
            // enquirer's own slot.
            k += 1;
        }
        Some(PeerId::new(fw.select(k) as u32))
    }

    /// One draw over the first `l` delay buckets, skipping the
    /// enquirer — candidates enumerated in (delay asc, id asc) order.
    fn sample_buckets(
        &self,
        buckets: &[BitSet],
        enq_in: bool,
        enquirer: PeerId,
        l: u32,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        debug_assert!(
            l <= self.horizon,
            "a query past the horizon sees no deeper peers"
        );
        let lim = (l as usize).min(buckets.len());
        let mut count: usize = buckets[..lim].iter().map(BitSet::len).sum();
        if enq_in {
            count -= 1;
        }
        if count == 0 {
            return None;
        }
        let mut k = rng.index(count);
        if enq_in {
            let ed = self.delay[enquirer.index()] as usize;
            let rank = buckets[..ed].iter().map(BitSet::len).sum::<usize>()
                + buckets[ed].rank(enquirer.get());
            if k >= rank {
                k += 1;
            }
        }
        for set in &buckets[..lim] {
            if k < set.len() {
                return Some(PeerId::new(set.select(k)));
            }
            k -= set.len();
        }
        unreachable!("count covers the scanned buckets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_add_prefix_select_agree_with_a_bitmap() {
        let n = 67;
        let mut fw = Fenwick::new(n);
        let mut bits = vec![false; n];
        // Deterministic pseudo-random membership churn.
        let mut x = 9u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % n;
            if bits[i] {
                bits[i] = false;
                fw.add(i, -1);
            } else {
                bits[i] = true;
                fw.add(i, 1);
            }
            let total = bits.iter().filter(|&&b| b).count();
            assert_eq!(fw.total as usize, total);
            for probe in [0, 1, n / 2, n] {
                let expect = bits[..probe].iter().filter(|&&b| b).count();
                assert_eq!(fw.prefix(probe) as usize, expect, "prefix({probe})");
            }
            let members: Vec<usize> = (0..n).filter(|&i| bits[i]).collect();
            for (k, &m) in members.iter().enumerate() {
                assert_eq!(fw.select(k as u32), m, "select({k})");
            }
        }
    }

    #[test]
    fn bitset_tracks_a_sorted_vec_through_churn() {
        // 31 whole words plus 16 bits: three whole count groups, a
        // partial fourth, a partial last word.
        const UNIVERSE: u32 = 2_000;
        // Both sides of every word / count-group seam, and the two ends.
        const SEAMS: [u32; 12] = [0, 1, 63, 64, 65, 511, 512, 513, 1_023, 1_024, 1_984, 1_999];
        let check = |set: &BitSet, reference: &[u32]| {
            assert_eq!(set.len(), reference.len());
            for (k, &id) in reference.iter().enumerate() {
                assert_eq!(set.select(k), id, "select({k})");
                assert_eq!(set.rank(id), k, "rank({id})");
            }
            // Rank of an absent id is its insertion point.
            for id in SEAMS {
                assert_eq!(
                    set.rank(id),
                    reference.partition_point(|&x| x < id),
                    "rank({id})"
                );
            }
        };
        let mut set = BitSet::default();
        let mut reference: Vec<u32> = Vec::new();
        for id in SEAMS {
            set.insert(id, UNIVERSE as usize);
            reference.push(id);
        }
        check(&set, &reference);
        let mut x = 3u64;
        for step in 0..4_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Every fourth toggle lands on a seam, the rest anywhere.
            let id = if step % 4 == 0 {
                SEAMS[(x >> 40) as usize % SEAMS.len()]
            } else {
                (x >> 40) as u32 % UNIVERSE
            };
            match reference.binary_search(&id) {
                Ok(pos) => {
                    reference.remove(pos);
                    set.remove(id);
                }
                Err(pos) => {
                    reference.insert(pos, id);
                    set.insert(id, UNIVERSE as usize);
                }
            }
            if step % 101 == 0 {
                check(&set, &reference);
            }
        }
        check(&set, &reference);
    }
}
