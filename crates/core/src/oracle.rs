//! The four Oracles of §2.1.4 and the trait that lets substrates
//! (DHT directory, random walks) stand in for them.
//!
//! An Oracle answers one question: *give me a random peer, interested in
//! the same feed, matching some amount of partial global information*.
//! The four reference semantics:
//!
//! | Oracle | Filter applied to candidate `j` for enquirer `i` |
//! |---|---|
//! | `Random` (O1) | none — any other online peer |
//! | `Random-Capacity` (O2a) | `j` has unused fanout |
//! | `Random-Delay-Capacity` (O2b) | `DelayAt(j) < l_i` **and** unused fanout |
//! | `Random-Delay` (O3) | `DelayAt(j) < l_i` |
//!
//! `DelayAt(j)` is the *actual observed* delay, which only exists for
//! peers whose chain reaches the source; the delay-filtered oracles
//! therefore return nothing until the first peers root themselves (the
//! timeout path to the source bootstraps them). The paper's headline
//! result is that O3 dominates: capacity filtering (O2a/O2b) starves the
//! construction of the very interactions that enable reconfiguration.

use std::fmt;

use serde::{Deserialize, Serialize};

use lagover_sim::SimRng;

use crate::node::{Liveness, PeerId, Population};
use crate::overlay::Overlay;

/// Read-only snapshot the oracle consults.
#[derive(Debug, Clone, Copy)]
pub struct OracleView<'a> {
    overlay: &'a Overlay,
    population: &'a Population,
    online: &'a Liveness,
}

impl<'a> OracleView<'a> {
    /// Bundles the pieces of state an oracle may consult.
    ///
    /// # Panics
    ///
    /// Panics if the online bitmap size disagrees with the population.
    pub fn new(overlay: &'a Overlay, population: &'a Population, online: &'a Liveness) -> Self {
        assert_eq!(online.len(), population.len(), "bitmap/population mismatch");
        OracleView {
            overlay,
            population,
            online,
        }
    }

    /// Whether `p` is currently online.
    pub fn is_online(&self, p: PeerId) -> bool {
        self.online.contains(p)
    }

    /// Observed delay of `p` (None while its chain is unrooted), as
    /// stamped: exact up to `max_latency + 1` and saturated there, so
    /// every `DelayAt(p) < l` / `≤ l` filter an oracle applies comes
    /// out as on the exact value. [`Overlay::delay`] (through
    /// [`OracleView::overlay`]) is the exact one, at a walk per deep
    /// peer.
    pub fn delay(&self, p: PeerId) -> Option<u32> {
        self.overlay.stamped_delay(p)
    }

    /// Whether `p` has unused fanout.
    pub fn has_free_fanout(&self, p: PeerId) -> bool {
        self.overlay.has_free_fanout(crate::node::Member::Peer(p))
    }

    /// Latency constraint of `p`.
    pub fn latency(&self, p: PeerId) -> u32 {
        self.population.latency(p)
    }

    /// The population size.
    pub fn len(&self) -> usize {
        self.population.len()
    }

    /// Whether the population is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.population.is_empty()
    }

    /// The overlay snapshot.
    pub fn overlay(&self) -> &Overlay {
        self.overlay
    }
}

/// A source of random interaction partners.
pub trait Oracle {
    /// Returns a random peer for `enquirer` matching this oracle's
    /// filter, or `None` if no peer qualifies right now (the enquirer
    /// waits and retries next round).
    fn sample(
        &mut self,
        enquirer: PeerId,
        view: &OracleView<'_>,
        rng: &mut SimRng,
    ) -> Option<PeerId>;

    /// Short display name (used in experiment tables).
    fn name(&self) -> &'static str;
}

/// Selector for the four reference oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OracleKind {
    /// O1 — no global information.
    Random,
    /// O2a — free capacity only.
    RandomCapacity,
    /// O2b — latency satisfied and free capacity.
    RandomDelayCapacity,
    /// O3 — latency satisfied (the paper's recommendation).
    RandomDelay,
}

impl OracleKind {
    /// All four kinds, in the paper's O1/O2a/O2b/O3 order (Figure 3).
    pub const ALL: [OracleKind; 4] = [
        OracleKind::Random,
        OracleKind::RandomCapacity,
        OracleKind::RandomDelayCapacity,
        OracleKind::RandomDelay,
    ];

    /// Instantiates the reference implementation.
    pub fn build(self) -> Box<dyn Oracle> {
        match self {
            OracleKind::Random => Box::new(RandomOracle),
            OracleKind::RandomCapacity => Box::new(RandomCapacityOracle),
            OracleKind::RandomDelayCapacity => Box::new(RandomDelayCapacityOracle),
            OracleKind::RandomDelay => Box::new(RandomDelayOracle),
        }
    }

    /// The paper's figure label (O1, O2a, O2b, O3).
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::Random => "O1",
            OracleKind::RandomCapacity => "O2a",
            OracleKind::RandomDelayCapacity => "O2b",
            OracleKind::RandomDelay => "O3",
        }
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OracleKind::Random => "Random",
            OracleKind::RandomCapacity => "Random-Capacity",
            OracleKind::RandomDelayCapacity => "Random-Delay-Capacity",
            OracleKind::RandomDelay => "Random-Delay",
        };
        f.write_str(name)
    }
}

/// Uniform sampling over candidates that pass `filter`, excluding the
/// enquirer and offline peers. Shared by all reference oracles.
///
/// Allocation-free two-pass counting selection: the first pass counts
/// eligible peers, a single RNG draw picks an index, and the second
/// pass walks to it. This consumes *exactly* the same RNG stream as the
/// original collect-then-`choose` implementation (one `index(count)`
/// draw when any candidate exists, none otherwise), so experiment
/// outputs stay bit-identical while the per-query `Vec` disappears.
fn sample_filtered<F>(
    enquirer: PeerId,
    view: &OracleView<'_>,
    rng: &mut SimRng,
    filter: F,
) -> Option<PeerId>
where
    F: Fn(PeerId) -> bool,
{
    let eligible = |p: PeerId| p != enquirer && view.is_online(p) && filter(p);
    let count = (0..view.len() as u32)
        .map(PeerId::new)
        .filter(|&p| eligible(p))
        .count();
    if count == 0 {
        return None;
    }
    let k = rng.index(count);
    (0..view.len() as u32)
        .map(PeerId::new)
        .filter(|&p| eligible(p))
        .nth(k)
}

/// Oracle O1: any other online peer interested in the feed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomOracle;

impl Oracle for RandomOracle {
    fn sample(
        &mut self,
        enquirer: PeerId,
        view: &OracleView<'_>,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        sample_filtered(enquirer, view, rng, |_| true)
    }

    fn name(&self) -> &'static str {
        "Random"
    }
}

/// Oracle O2a: any online peer with unused fanout.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomCapacityOracle;

impl Oracle for RandomCapacityOracle {
    fn sample(
        &mut self,
        enquirer: PeerId,
        view: &OracleView<'_>,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        sample_filtered(enquirer, view, rng, |p| view.has_free_fanout(p))
    }

    fn name(&self) -> &'static str {
        "Random-Capacity"
    }
}

/// Uniform sampling over candidates with `DelayAt < l` that also pass
/// `extra`, excluding the enquirer and offline peers — enumerated in
/// *(delay asc, id asc)* order. Shared by O2b/O3.
///
/// The delay-filtered oracles enumerate by delay bucket rather than by
/// id because that is the only order the engine's incremental sampling
/// index ([`crate::oracle_index`]) can serve in O(log n); this naive
/// path mirrors it so indexed and unindexed runs draw identical peers
/// from identical RNG streams. The draw-order contract is unchanged:
/// one `rng.index(count)` draw when any candidate exists, none
/// otherwise, and the selection is uniform over the same candidate set
/// as the historical id-order scan.
fn sample_delay_ordered<F>(
    enquirer: PeerId,
    view: &OracleView<'_>,
    rng: &mut SimRng,
    extra: F,
) -> Option<PeerId>
where
    F: Fn(PeerId) -> bool,
{
    let l = view.latency(enquirer);
    let eligible = |p: PeerId| -> Option<u32> {
        if p == enquirer || !view.is_online(p) || !extra(p) {
            return None;
        }
        match view.delay(p) {
            Some(d) if d < l => Some(d),
            _ => None,
        }
    };
    // Observed delays never exceed the population size (depth of the
    // deepest possible chain), so the histogram stays O(n) even for
    // huge latency constraints.
    let lim = (l as usize).min(view.len() + 1);
    let mut hist = vec![0usize; lim];
    let mut count = 0usize;
    for p in (0..view.len() as u32).map(PeerId::new) {
        if let Some(d) = eligible(p) {
            hist[d as usize] += 1;
            count += 1;
        }
    }
    if count == 0 {
        return None;
    }
    let mut k = rng.index(count);
    let mut target = 0u32;
    for (d, &c) in hist.iter().enumerate() {
        if k < c {
            target = d as u32;
            break;
        }
        k -= c;
    }
    (0..view.len() as u32)
        .map(PeerId::new)
        .filter(|&p| eligible(p) == Some(target))
        .nth(k)
}

/// Oracle O2b: observed delay satisfies the enquirer's constraint
/// (`DelayAt(j) < l_i`) *and* unused fanout.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomDelayCapacityOracle;

impl Oracle for RandomDelayCapacityOracle {
    fn sample(
        &mut self,
        enquirer: PeerId,
        view: &OracleView<'_>,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        sample_delay_ordered(enquirer, view, rng, |p| view.has_free_fanout(p))
    }

    fn name(&self) -> &'static str {
        "Random-Delay-Capacity"
    }
}

/// Oracle O3: observed delay satisfies the enquirer's constraint,
/// capacity ignored — saturated peers are still useful because the
/// overlay can be *reconfigured* around them (§5.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomDelayOracle;

impl Oracle for RandomDelayOracle {
    fn sample(
        &mut self,
        enquirer: PeerId,
        view: &OracleView<'_>,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        sample_delay_ordered(enquirer, view, rng, |_| true)
    }

    fn name(&self) -> &'static str {
        "Random-Delay"
    }
}

use lagover_jsonio::{FromJson, Json, JsonError, ToJson};

impl ToJson for OracleKind {
    fn to_json(&self) -> Json {
        let name = match self {
            OracleKind::Random => "Random",
            OracleKind::RandomCapacity => "RandomCapacity",
            OracleKind::RandomDelayCapacity => "RandomDelayCapacity",
            OracleKind::RandomDelay => "RandomDelay",
        };
        Json::Str(name.to_string())
    }
}

impl FromJson for OracleKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str()? {
            "Random" => Ok(OracleKind::Random),
            "RandomCapacity" => Ok(OracleKind::RandomCapacity),
            "RandomDelayCapacity" => Ok(OracleKind::RandomDelayCapacity),
            "RandomDelay" => Ok(OracleKind::RandomDelay),
            other => Err(JsonError(format!("unknown oracle kind '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Constraints, Member, Population};

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    /// Population: 0 (f=1,l=1) rooted at source; 1 (f=0,l=2) child of 0;
    /// 2 (f=2,l=3) unattached; 3 (f=1,l=2) unattached & offline.
    fn fixture() -> (Overlay, Population, Liveness) {
        let pop = Population::new(
            2,
            vec![
                Constraints::new(1, 1),
                Constraints::new(0, 2),
                Constraints::new(2, 3),
                Constraints::new(1, 2),
            ],
        );
        let mut o = Overlay::new(&pop);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        let online = Liveness::from_flags(&[true, true, true, false]);
        (o, pop, online)
    }

    #[test]
    fn random_oracle_excludes_self_and_offline() {
        let (o, pop, online) = fixture();
        let view = OracleView::new(&o, &pop, &online);
        let mut rng = SimRng::seed_from(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let s = RandomOracle.sample(p(2), &view, &mut rng).unwrap();
            assert_ne!(s, p(2));
            assert_ne!(s, p(3), "offline peer must not be sampled");
            seen.insert(s);
        }
        assert!(seen.contains(&p(0)) && seen.contains(&p(1)));
    }

    #[test]
    fn capacity_oracle_only_returns_free_peers() {
        let (o, pop, online) = fixture();
        let view = OracleView::new(&o, &pop, &online);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..100 {
            let s = RandomCapacityOracle.sample(p(1), &view, &mut rng).unwrap();
            // 0 is full (child 1), 1 has f=0, so only 2 qualifies.
            assert_eq!(s, p(2));
        }
    }

    #[test]
    fn delay_capacity_oracle_requires_both() {
        let (o, pop, online) = fixture();
        let view = OracleView::new(&o, &pop, &online);
        let mut rng = SimRng::seed_from(3);
        // Enquirer 2 has l=3: candidates need delay < 3 AND free fanout.
        // 0 is rooted (delay 1) but full; 1 is rooted (delay 2) but f=0;
        // 2 is the enquirer. Nothing qualifies.
        assert_eq!(
            RandomDelayCapacityOracle.sample(p(2), &view, &mut rng),
            None
        );
    }

    #[test]
    fn delay_oracle_ignores_capacity() {
        let (o, pop, online) = fixture();
        let view = OracleView::new(&o, &pop, &online);
        let mut rng = SimRng::seed_from(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let s = RandomDelayOracle.sample(p(2), &view, &mut rng).unwrap();
            // delay(0)=1 < 3, delay(1)=2 < 3 — both valid despite being
            // saturated; unrooted peers are not.
            assert!(s == p(0) || s == p(1));
            seen.insert(s);
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn delay_oracle_strict_inequality() {
        let (o, pop, online) = fixture();
        let view = OracleView::new(&o, &pop, &online);
        let mut rng = SimRng::seed_from(5);
        // Enquirer 1 (l=2): only delay < 2 qualifies => peer 0 alone.
        for _ in 0..50 {
            assert_eq!(RandomDelayOracle.sample(p(1), &view, &mut rng), Some(p(0)));
        }
        // Enquirer 0 (l=1): needs delay < 1 — impossible.
        assert_eq!(RandomDelayOracle.sample(p(0), &view, &mut rng), None);
    }

    #[test]
    fn kinds_build_their_named_oracle() {
        for kind in OracleKind::ALL {
            let oracle = kind.build();
            assert_eq!(oracle.name(), kind.to_string());
        }
        assert_eq!(OracleKind::RandomDelay.label(), "O3");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn view_checks_bitmap_length() {
        let (o, pop, _) = fixture();
        let bad = Liveness::all(2);
        let _ = OracleView::new(&o, &pop, &bad);
    }
}
