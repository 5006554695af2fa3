//! Substrate realizations of the Oracles (§2.1.4).
//!
//! The paper sketches two deployment stories: Oracle *Random* via
//! random walkers on an unstructured overlay, and the informed oracles
//! via a directory service hosted on a DHT (Syndic8 / OpenDHT). These
//! adapters implement [`lagover_core::Oracle`] on top of
//! `lagover-gossip` and `lagover-dht`, so the construction engine can
//! run against them unchanged. Unlike the in-memory reference oracles,
//! both are *imperfect*: walk answers may be offline peers, and
//! directory records go stale between refreshes — experiment E9
//! quantifies the cost.

use lagover_core::{Oracle, OracleKind, OracleView, PeerId};
use lagover_dht::{Directory, DirectoryConfig, DirectoryEntry, Key};
use lagover_gossip::{MembershipGraph, MhWalkSampler, PeerSampler};
use lagover_sim::SimRng;

/// Oracle *Random* realized as a Metropolis–Hastings random walk on a
/// connected membership graph over the feed's consumers.
#[derive(Debug, Clone)]
pub struct GossipWalkOracle {
    sampler: MhWalkSampler,
}

impl GossipWalkOracle {
    /// Builds the membership graph over `peers` consumers and the walk
    /// sampler.
    ///
    /// # Panics
    ///
    /// Panics if `peers < 2`.
    pub fn new(peers: usize, avg_degree: usize, walk_length: usize, rng: &mut SimRng) -> Self {
        let graph = MembershipGraph::random_connected(peers, avg_degree, rng);
        GossipWalkOracle {
            sampler: MhWalkSampler::new(graph, walk_length),
        }
    }
}

impl Oracle for GossipWalkOracle {
    fn sample(
        &mut self,
        enquirer: PeerId,
        _view: &OracleView<'_>,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        // The walk has no global knowledge: it may land on an offline
        // peer, which costs the enquirer the round (the engine treats
        // it as a miss).
        self.sampler
            .sample_peer(enquirer.index(), rng)
            .map(|i| PeerId::new(i as u32))
    }

    fn name(&self) -> &'static str {
        "Random (gossip walk)"
    }
}

/// The informed oracles realized over the Chord-hosted feed directory.
///
/// Every query also performs a few *refresh publishes* (the enquirer's
/// own record plus `refreshes_per_query` random peers'), modelling the
/// background refresh traffic of a deployment; records expire after the
/// directory's TTL, so answers can lag the true overlay state.
#[derive(Debug, Clone)]
pub struct DirectoryOracle {
    directory: Directory,
    feed: Key,
    kind: OracleKind,
    tick: u64,
    refreshes_per_query: usize,
    /// Probability per query that a random ring node crashes (and a new
    /// one joins), modelling churn of the *directory infrastructure*
    /// itself. Zero by default.
    ring_churn_per_query: f64,
    /// Stabilization steps run per query.
    stabilize_per_query: usize,
}

impl DirectoryOracle {
    /// Bootstraps a directory ring of `ring_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`OracleKind::Random`] — the uninformed
    /// oracle has no directory realization (use [`GossipWalkOracle`]).
    pub fn new(
        kind: OracleKind,
        ring_size: usize,
        ttl_ticks: u64,
        refreshes_per_query: usize,
        rng: &mut SimRng,
    ) -> Self {
        assert!(
            kind != OracleKind::Random,
            "Oracle Random is realized by random walks, not a directory"
        );
        let config = DirectoryConfig {
            replication: 2,
            entry_ttl: ttl_ticks,
        };
        DirectoryOracle {
            directory: Directory::bootstrap(ring_size, config, rng),
            feed: Key::hash_str("lagover/feed"),
            kind,
            tick: 0,
            refreshes_per_query,
            ring_churn_per_query: 0.0,
            stabilize_per_query: 0,
        }
    }

    /// Enables churn of the directory's own ring: per query, a random
    /// ring node crashes (losing its records) and a fresh node joins
    /// with probability `p`, while `stabilize_per_query` incremental
    /// stabilization steps run to repair routing.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    #[must_use]
    pub fn with_ring_churn(mut self, p: f64, stabilize_per_query: usize) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        self.ring_churn_per_query = p;
        self.stabilize_per_query = stabilize_per_query;
        self
    }

    fn publish_record(&mut self, p: PeerId, view: &OracleView<'_>) {
        let entry = DirectoryEntry {
            peer: p.index(),
            delay: view.delay(p),
            free_capacity: view.has_free_fanout(p),
            latency_constraint: view.latency(p),
            refreshed_at: self.tick,
        };
        self.directory.publish(self.feed, entry);
    }

    /// The underlying directory (for inspection in tests/experiments).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }
}

impl Oracle for DirectoryOracle {
    fn sample(
        &mut self,
        enquirer: PeerId,
        view: &OracleView<'_>,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        self.tick += 1;
        if self.ring_churn_per_query > 0.0 && rng.chance(self.ring_churn_per_query) {
            // One ring node crashes (its records are lost) and a fresh
            // node joins elsewhere on the ring.
            let members = self.directory.ring().member_keys();
            if members.len() > 2 {
                let victim = members[rng.index(members.len())];
                self.directory.node_crash(victim);
            }
            self.directory.node_join(Key::random(rng));
        }
        for _ in 0..self.stabilize_per_query {
            self.directory.stabilize();
        }
        // Background refresh traffic: the enquirer republishes itself,
        // plus a few random online peers refresh their records.
        self.publish_record(enquirer, view);
        for _ in 0..self.refreshes_per_query {
            let p = PeerId::new(rng.index(view.len()) as u32);
            if view.is_online(p) {
                self.publish_record(p, view);
            }
        }
        let l = view.latency(enquirer);
        let kind = self.kind;
        let me = enquirer.index();
        let hit = self.directory.query(
            self.feed,
            self.tick,
            move |e: &DirectoryEntry| {
                if e.peer == me {
                    return false;
                }
                match kind {
                    OracleKind::Random => true,
                    OracleKind::RandomCapacity => e.free_capacity,
                    OracleKind::RandomDelayCapacity => {
                        matches!(e.delay, Some(d) if d < l) && e.free_capacity
                    }
                    OracleKind::RandomDelay => matches!(e.delay, Some(d) if d < l),
                }
            },
            rng,
        )?;
        Some(PeerId::new(hit.peer as u32))
    }

    fn name(&self) -> &'static str {
        match self.kind {
            OracleKind::Random => "Random (directory)",
            OracleKind::RandomCapacity => "Random-Capacity (directory)",
            OracleKind::RandomDelayCapacity => "Random-Delay-Capacity (directory)",
            OracleKind::RandomDelay => "Random-Delay (directory)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::node::{Constraints, Liveness, Member, Population};
    use lagover_core::Overlay;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn fixture() -> (Overlay, Population, Liveness) {
        let pop = Population::new(
            2,
            vec![
                Constraints::new(1, 1),
                Constraints::new(2, 3),
                Constraints::new(0, 5),
            ],
        );
        let mut o = Overlay::new(&pop);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        (o, pop, Liveness::all(3))
    }

    #[test]
    fn gossip_walk_returns_other_peers() {
        let mut rng = SimRng::seed_from(1);
        let mut oracle = GossipWalkOracle::new(10, 3, 8, &mut rng);
        let (o, pop, online) = fixture_with_n(10);
        let view = OracleView::new(&o, &pop, &online);
        for _ in 0..100 {
            if let Some(s) = oracle.sample(p(0), &view, &mut rng) {
                assert_ne!(s, p(0));
                assert!(s.index() < 10);
            }
        }
        assert_eq!(oracle.name(), "Random (gossip walk)");
    }

    fn fixture_with_n(n: usize) -> (Overlay, Population, Liveness) {
        let pop = Population::new(2, vec![Constraints::new(1, 3); n]);
        let o = Overlay::new(&pop);
        (o, pop, Liveness::all(n))
    }

    #[test]
    fn directory_oracle_serves_delay_filtered_records() {
        let mut rng = SimRng::seed_from(2);
        let mut oracle = DirectoryOracle::new(OracleKind::RandomDelay, 16, 50, 3, &mut rng);
        let (o, pop, online) = fixture();
        let view = OracleView::new(&o, &pop, &online);
        // Warm the directory with a few queries so records exist.
        let mut hits = Vec::new();
        for _ in 0..30 {
            if let Some(s) = oracle.sample(p(2), &view, &mut rng) {
                hits.push(s);
            }
        }
        assert!(!hits.is_empty(), "directory never answered");
        for h in &hits {
            // Peer 2 has l=5: both rooted peers (delay 1 and 2) qualify;
            // unrooted peers must never be served.
            assert!(view.delay(*h).is_some(), "served unrooted {h}");
        }
    }

    #[test]
    fn directory_oracle_respects_capacity_filter() {
        let mut rng = SimRng::seed_from(3);
        let mut oracle = DirectoryOracle::new(OracleKind::RandomDelayCapacity, 16, 50, 3, &mut rng);
        let (o, pop, online) = fixture();
        let view = OracleView::new(&o, &pop, &online);
        for _ in 0..30 {
            if let Some(s) = oracle.sample(p(2), &view, &mut rng) {
                // Peer 0 is saturated (f=1, child 1): only peer 1 has
                // both delay < 5 and free capacity.
                assert_eq!(s, p(1));
            }
        }
    }

    #[test]
    fn stale_records_expire() {
        let mut rng = SimRng::seed_from(4);
        // TTL of 2 ticks with no background refreshes: a record
        // published at tick t is gone by t+3.
        let mut oracle = DirectoryOracle::new(OracleKind::RandomDelay, 8, 2, 0, &mut rng);
        let (o, pop, online) = fixture();
        let view = OracleView::new(&o, &pop, &online);
        // Tick 1: publish peer 0's record via its own query.
        let _ = oracle.sample(p(0), &view, &mut rng);
        // Ticks 2..=5: peer 2 queries; after the TTL passes only its own
        // (filtered-out) record remains fresh, plus records its queries
        // republished — which is only peer 2 itself. So eventually None.
        let mut last = None;
        for _ in 0..5 {
            last = oracle.sample(p(2), &view, &mut rng);
        }
        assert_eq!(last, None, "expired record still served");
    }

    #[test]
    #[should_panic(expected = "random walks")]
    fn directory_refuses_uninformed_kind() {
        let mut rng = SimRng::seed_from(5);
        DirectoryOracle::new(OracleKind::Random, 8, 10, 1, &mut rng);
    }
}

/// Locality-aware variant of Oracle *Random-Delay* — the paper's §7
/// future-work direction: *"building the LagOver based on locality
/// contexts, like clients within same domain, ISP or timezone … may
/// substantially improve the global performance and resource usage."*
///
/// Same filter as O3 (actual delay < the enquirer's constraint), but
/// instead of a uniform pick, it samples a few candidates and returns
/// the one with the lowest RTT to the enquirer in the synthetic
/// coordinate space — what a domain/ISP-bucketed directory would do.
#[derive(Debug, Clone)]
pub struct LocalityDelayOracle {
    space: lagover_net::LatencySpace,
    /// Candidates sampled per query before picking the nearest.
    probe_count: usize,
}

impl LocalityDelayOracle {
    /// Creates the oracle over an existing latency space (peer `i` of
    /// the population maps to coordinate `i`).
    ///
    /// # Panics
    ///
    /// Panics if `probe_count == 0`.
    pub fn new(space: lagover_net::LatencySpace, probe_count: usize) -> Self {
        assert!(probe_count >= 1, "need at least one probe");
        LocalityDelayOracle { space, probe_count }
    }

    /// The latency space used for proximity decisions.
    pub fn space(&self) -> &lagover_net::LatencySpace {
        &self.space
    }
}

impl Oracle for LocalityDelayOracle {
    fn sample(
        &mut self,
        enquirer: PeerId,
        view: &OracleView<'_>,
        rng: &mut SimRng,
    ) -> Option<PeerId> {
        let l = view.latency(enquirer);
        let candidates: Vec<PeerId> = (0..view.len() as u32)
            .map(PeerId::new)
            .filter(|&p| {
                p != enquirer && view.is_online(p) && matches!(view.delay(p), Some(d) if d < l)
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        // Probe a few uniform candidates, keep the closest — O(probes)
        // rather than a full scan, as a real bucketed directory behaves.
        let mut best: Option<(f64, PeerId)> = None;
        for _ in 0..self.probe_count {
            let p = candidates[rng.index(candidates.len())];
            let rtt = self.space.rtt(enquirer.index(), p.index());
            if best.map(|(b, _)| rtt < b).unwrap_or(true) {
                best = Some((rtt, p));
            }
        }
        best.map(|(_, p)| p)
    }

    fn name(&self) -> &'static str {
        "Random-Delay (locality)"
    }
}
