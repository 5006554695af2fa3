//! Property-based tests for feed dissemination.

use proptest::prelude::*;

use lagover_core::node::{Constraints, Member, PeerId, Population};
use lagover_core::overlay::Overlay;
use lagover_feed::{compare_server_load, disseminate, DisseminationConfig, PublishSchedule};
use lagover_sim::SimRng;

/// Builds a random rooted tree over `n` peers (peer 0 is the source
/// child chain root) with ample fanout, returning the overlay.
fn random_tree(n: usize, source_fanout: u32, seed: u64) -> (Overlay, Population) {
    let population = Population::new(
        source_fanout,
        (0..n).map(|_| Constraints::new(n as u32, 64)).collect(),
    );
    let mut overlay = Overlay::new(&population);
    let mut rng = SimRng::seed_from(seed);
    for i in 0..n {
        let p = PeerId::new(i as u32);
        if i == 0 || (overlay.free_fanout(Member::Source) > 0 && rng.chance(0.2)) {
            overlay.attach(p, Member::Source).unwrap();
        } else {
            // Attach under a random already-attached peer.
            let parent = PeerId::new(rng.index(i) as u32);
            overlay.attach(p, Member::Peer(parent)).unwrap();
        }
    }
    (overlay, population)
}

proptest! {
    /// On any rooted tree with unit pull interval, every delivered
    /// item's staleness equals the consumer's depth, for both schedules.
    #[test]
    fn staleness_equals_depth(
        n in 1usize..40,
        seed in any::<u64>(),
        periodic in any::<bool>(),
    ) {
        let (overlay, population) = random_tree(n, 4, seed);
        let schedule = if periodic {
            PublishSchedule::Periodic { interval: 3 }
        } else {
            PublishSchedule::Poisson { mean_interval: 4.0 }
        };
        let config = DisseminationConfig {
            pull_interval: 1,
            rounds: 120,
            schedule,
        };
        let report = disseminate(&overlay, &population, &config, seed).expect("short horizon");
        for node in &report.per_node {
            let depth = overlay.delay(PeerId::new(node.peer)).unwrap() as u64;
            if node.received > 0 {
                prop_assert_eq!(node.max_staleness, Some(depth), "peer {}", node.peer);
                prop_assert_eq!(node.mean_staleness, Some(depth as f64));
            }
        }
        prop_assert!(report.constraint_violations.is_empty());
    }

    /// Items published at least `max_depth + pull_interval` rounds
    /// before the horizon are delivered to every rooted consumer.
    #[test]
    fn eventual_delivery(n in 1usize..30, seed in any::<u64>(), pull in 1u64..4) {
        let (overlay, population) = random_tree(n, 4, seed);
        let config = DisseminationConfig {
            pull_interval: pull,
            rounds: 200,
            schedule: PublishSchedule::Periodic { interval: 5 },
        };
        let report = disseminate(&overlay, &population, &config, seed).expect("short horizon");
        let max_depth = (0..n)
            .filter_map(|i| overlay.delay(PeerId::new(i as u32)))
            .max()
            .unwrap() as u64;
        let safe_horizon = 200u64.saturating_sub(max_depth + pull + 1);
        let safe_items = (1..=200 / 5).filter(|k| k * 5 <= safe_horizon).count();
        for node in &report.per_node {
            prop_assert!(
                node.received >= safe_items,
                "peer {} received {} < {safe_items}",
                node.peer,
                node.received
            );
        }
    }

    /// The server-load comparison is internally consistent: the LagOver
    /// rate counts only direct children, the baseline sums poll rates,
    /// and the reduction is their ratio.
    #[test]
    fn server_load_arithmetic(n in 1usize..50, seed in any::<u64>(), pull in 1u64..5) {
        let (overlay, population) = random_tree(n, 3, seed);
        let report = compare_server_load(&overlay, &population, pull);
        prop_assert_eq!(report.consumers, n);
        prop_assert_eq!(report.direct_children, overlay.source_children().len());
        let expected_rate = overlay.source_children().len() as f64 / pull as f64;
        prop_assert!((report.lagover_rate - expected_rate).abs() < 1e-12);
        if report.lagover_rate > 0.0 {
            let expected_reduction = report.direct_polling_rate / report.lagover_rate;
            prop_assert!((report.reduction_factor - expected_reduction).abs() < 1e-9);
        }
    }
}
