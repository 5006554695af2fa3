//! Property-based tests for the gossip substrate.

use proptest::prelude::*;

use lagover_gossip::{MembershipGraph, MhWalkSampler, PeerSampler, SimpleWalkSampler};
use lagover_sim::SimRng;

proptest! {
    /// Random membership graphs are always connected, symmetric, and
    /// free of self-loops and duplicate edges.
    #[test]
    fn random_graphs_are_well_formed(
        seed in any::<u64>(),
        n in 2usize..200,
        degree in 1usize..8,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let g = MembershipGraph::random_connected(n, degree, &mut rng);
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.len(), n);
        for v in 0..n {
            let ns = g.neighbors(v);
            prop_assert!(!ns.contains(&v), "self-loop at {v}");
            let mut sorted = ns.to_vec();
            sorted.sort_unstable();
            let before = sorted.len();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), before, "duplicate edge at {}", v);
            for &w in ns {
                prop_assert!(g.neighbors(w).contains(&v), "asymmetric edge {v}-{w}");
            }
        }
    }

    /// Walk samplers always return valid, non-enquirer peers on
    /// connected graphs.
    #[test]
    fn walks_return_valid_peers(
        seed in any::<u64>(),
        n in 2usize..100,
        walk_len in 1usize..30,
        enquirer in 0usize..100,
    ) {
        let enquirer = enquirer % n;
        let mut rng = SimRng::seed_from(seed);
        let g = MembershipGraph::random_connected(n, 4, &mut rng);
        let mut simple = SimpleWalkSampler::new(g.clone(), walk_len);
        let mut mh = MhWalkSampler::new(g, walk_len);
        for _ in 0..16 {
            if let Some(s) = simple.sample_peer(enquirer, &mut rng) {
                prop_assert!(s < n && s != enquirer);
            }
            if let Some(s) = mh.sample_peer(enquirer, &mut rng) {
                prop_assert!(s < n && s != enquirer);
            }
        }
    }

    /// On any connected graph of at least three peers, a long MH walk
    /// eventually samples more than one distinct peer (it does not get
    /// stuck).
    #[test]
    fn mh_walk_mixes(seed in any::<u64>(), n in 3usize..60) {
        let mut rng = SimRng::seed_from(seed);
        let g = MembershipGraph::random_connected(n, 3, &mut rng);
        let mut mh = MhWalkSampler::new(g, 16);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            if let Some(s) = mh.sample_peer(0, &mut rng) {
                seen.insert(s);
            }
        }
        prop_assert!(seen.len() >= 2, "walk stuck: only {seen:?}");
    }
}
