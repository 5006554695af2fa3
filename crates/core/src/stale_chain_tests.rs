//! Tests of the readers that trust a checked forest. On a checked
//! forest [`Engine::stale_chain_count`] walks down from the offline
//! peers (DESIGN.md §13.3), [`Engine::act_on`] skips the stabilize rule
//! and the displacement cycle pre-check reads one stamp (§15.2); once a
//! raw mutation or repair primitive has marked the forest "lists may
//! lie" the count walks up from every online peer, and the other two
//! go back to verifying and walking. Each fast path must answer what
//! its walk answers, and runs free of corruption must stay checked.

#![cfg(test)]

use lagover_sim::BernoulliChurn;
use proptest::prelude::*;

use crate::config::{Algorithm, ConstructionConfig};
use crate::engine::{chain_is_stale, Engine};
use crate::node::{Constraints, Liveness, Member, PeerId, Population};
use crate::oracle::OracleKind;
use crate::overlay::{ChainRoot, Overlay};

fn p(i: usize) -> PeerId {
    PeerId::new(i as u32)
}

/// The online peers whose chain crosses an offline peer, one walk up
/// per peer.
fn stale_by_walk(engine: &Engine) -> usize {
    let flags: Vec<bool> = engine
        .population
        .peer_ids()
        .map(|q| engine.is_online(q))
        .collect();
    let online = Liveness::from_flags(&flags);
    engine
        .population
        .peer_ids()
        .filter(|&q| online.contains(q) && chain_is_stale(&engine.overlay, &online, q))
        .count()
}

/// One step of a checked history: nothing in it may make a child list
/// disagree with a parent pointer.
#[derive(Debug, Clone)]
enum Op {
    Step,
    /// Crash the `k`-th online peer with children (mod their number).
    Crash(usize),
    Churn,
    Remove(usize),
    Interpose(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Step),
        Just(Op::Step),
        Just(Op::Step),
        (0usize..64).prop_map(Op::Crash),
        (0usize..64).prop_map(Op::Crash),
        Just(Op::Churn),
        (0usize..64).prop_map(Op::Remove),
        (0usize..64, 0usize..64).prop_map(|(i, j)| Op::Interpose(i, j)),
        (0usize..64, 0usize..64).prop_map(|(i, j)| Op::Interpose(i, j)),
    ]
}

fn apply(engine: &mut Engine, op: &Op) {
    let n = engine.population.len();
    match *op {
        Op::Step => engine.step(),
        Op::Crash(k) => {
            let interior: Vec<PeerId> = engine
                .population
                .peer_ids()
                .filter(|&q| engine.is_online(q) && !engine.overlay.children(q).is_empty())
                .collect();
            if !interior.is_empty() {
                engine.inject_crash(interior[k % interior.len()]);
            }
        }
        Op::Churn => engine.apply_churn(&mut BernoulliChurn::new(0.1, 0.3)),
        Op::Remove(q) => drop(engine.overlay.remove_peer(p(q % n))),
        Op::Interpose(i, j) => {
            // As the protocol displaces: between live peers only.
            let (i, j) = (p(i % n), p(j % n));
            if engine.is_online(i) && engine.is_online(j) {
                let _ = engine.overlay.interpose(i, j);
            }
        }
    }
}

/// 2..=24 peers in latency tiers as wide as the source's fanout
/// (1..=3), each peer with fanout 1..=4 and at most one unit of slack:
/// tight enough that Hybrid displaces often.
fn population_strategy() -> impl Strategy<Value = Population> {
    (
        1u32..=3,
        prop::collection::vec((1u32..=4, 0u32..=1), 2..=24),
    )
        .prop_map(|(width, specs)| {
            let peers = specs
                .into_iter()
                .zip(0u32..)
                .map(|((fanout, slack), i)| Constraints::new(fanout, i / width + 1 + slack));
            Population::new(width, peers.collect())
        })
}

/// Runs a checked history of `ops` from an empty forest, checking after
/// every operation that the lists are still vouched for, and then
/// `check`.
fn checked_history(
    population: &Population,
    seed: u64,
    ops: &[Op],
    check: impl Fn(&Engine, &Op) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(3_000);
    let mut engine = Engine::new(population, &config, seed);
    for op in ops {
        apply(&mut engine, op);
        prop_assert!(!engine.overlay.lists_may_lie(), "{:?} marked the lists", op);
        check(&engine, op)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Construction and Hybrid rounds, crashes inside the tree, churn,
    /// removals and displacements, in any order: the forest stays
    /// checked, and the walk down counts what the walks up find.
    #[test]
    fn the_walk_down_counts_what_the_walks_up_find_on_checked_histories(
        population in population_strategy(),
        seed in 0u64..100_000,
        ops in prop::collection::vec(op_strategy(), 0..60),
    ) {
        checked_history(&population, seed, &ops, |engine, op| {
            prop_assert_eq!(engine.stale_chain_count(), stale_by_walk(engine), "after {:?}", op);
            Ok(())
        })?;
    }

    /// The same histories: whether a peer lies in a fragment root's
    /// fragment reads the same from its stamp as from the walk up its
    /// parent pointers, for every pair.
    #[test]
    fn the_fragment_test_reads_what_the_walk_up_finds_on_checked_histories(
        population in population_strategy(),
        seed in 0u64..100_000,
        ops in prop::collection::vec(op_strategy(), 0..60),
    ) {
        checked_history(&population, seed, &ops, |engine, op| {
            let roots = population.peer_ids().filter(|&i| engine.overlay.parent(i).is_none());
            for i in roots {
                for j in population.peer_ids() {
                    prop_assert_eq!(
                        engine.is_in_subtree_of(j, i),
                        engine.walks_up_to(j, i),
                        "{} under {} after {:?}", j, i, op
                    );
                }
            }
            Ok(())
        })?;
    }
}

/// 60 peers in latency tiers three wide under a source that feeds
/// three, fanouts 1–3, one unit of slack in every third peer.
fn tiered_population() -> Population {
    let peers = (0u32..60).map(|i| Constraints::new(1 + i % 3, i / 3 + 1 + u32::from(i % 3 == 0)));
    Population::new(3, peers.collect())
}

/// Runs free of corruption never write through a raw mutation or repair
/// primitive, so they end on a forest whose lists are vouched for — and
/// every action on the way skipped the stabilize rule.
#[test]
fn construction_crash_recovery_and_churn_leave_the_lists_checked() {
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(3_000);
    let mut engine = Engine::new(&tiered_population(), &config, 7);
    assert!(engine.run_to_convergence().is_some(), "construction");
    assert!(!engine.overlay.lists_may_lie(), "after construction");

    let interior: Vec<PeerId> = engine
        .population
        .peer_ids()
        .filter(|&q| !engine.overlay.children(q).is_empty())
        .take(4)
        .collect();
    for &q in &interior {
        assert!(engine.inject_crash(q));
    }
    let healed = (0..3_000).any(|_| {
        engine.step();
        engine.is_converged() && engine.stale_chain_count() == 0
    });
    assert!(healed, "crash recovery");
    assert!(engine.counters().failure_detections > 0);
    assert!(!engine.overlay.lists_may_lie(), "after crash recovery");

    let mut churn = BernoulliChurn::paper();
    for _ in 0..300 {
        engine.apply_churn(&mut churn);
        engine.step();
    }
    assert!(engine.counters().churn_departures > 0);
    assert!(!engine.overlay.lists_may_lie(), "after churn");
    assert_eq!(engine.counters().inconsistencies_detected, 0);
}

/// The source feeds 0 and 1; 0 feeds 2, which feeds 3; 1 feeds 4,
/// which feeds 5. Then 0 crashes, so 2 and 3 are stale. `site` is
/// applied to that forest.
fn after_site(site: impl FnOnce(&mut Overlay)) -> Engine {
    let population = Population::new(2, vec![Constraints::new(3, 9); 6]);
    let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
    let mut engine = Engine::new(&population, &config, 1);
    let overlay = &mut engine.overlay;
    for (child, parent) in [
        (0, None),
        (1, None),
        (2, Some(0)),
        (3, Some(2)),
        (4, Some(1)),
        (5, Some(4)),
    ] {
        let parent = parent.map_or(Member::Source, |q| Member::Peer(p(q)));
        overlay.attach(p(child), parent).unwrap();
    }
    engine.inject_crash(p(0));
    assert!(!engine.overlay.lists_may_lie());
    assert_eq!(engine.stale_chain_count(), 2);
    site(&mut engine.overlay);
    engine
}

/// The site marked the lists, and the count is the walk's `stale`.
fn assert_marked_and_walked(engine: &Engine, stale: usize) {
    assert!(engine.overlay.lists_may_lie(), "the site marks the lists");
    assert_eq!(stale_by_walk(engine), stale);
    assert_eq!(engine.stale_chain_count(), stale);
}

#[test]
fn raw_set_parent_marks_the_lists() {
    // 1 ← 5 closes the loop 1 → 4 → 5 → 1, which no list shows: all
    // three are stale, but a walk down from 0 finds only 2 and 3.
    let engine = after_site(|o| o.raw_set_parent(p(1), Some(Member::Peer(p(5)))));
    assert_marked_and_walked(&engine, 5);
}

#[test]
fn raw_add_child_marks_the_lists() {
    // 2 lists 4, whose pointer still leads to 1: a walk down from 0
    // would count 4 and 5.
    let engine = after_site(|o| assert!(o.raw_add_child(p(2), p(4))));
    assert_marked_and_walked(&engine, 2);
}

#[test]
fn evict_child_marks_the_lists() {
    // 0 no longer lists 2, whose pointer still leads to the corpse: a
    // walk down from 0 would find nobody.
    let engine = after_site(|o| assert!(o.evict_child(Member::Peer(p(0)), p(2))));
    assert_marked_and_walked(&engine, 2);
}

#[test]
fn heal_self_parent_marks_the_lists() {
    // 2 drops its pointer while 0 still lists it: 2 and 3 head a
    // fragment now, but a walk down from 0 would count them.
    let engine = after_site(|o| o.heal_self_parent(p(2)));
    assert_marked_and_walked(&engine, 0);
}

#[test]
fn raw_push_source_child_marks_the_lists() {
    let engine = after_site(|o| o.raw_push_source_child(p(2)));
    assert_marked_and_walked(&engine, 2);
}

#[test]
fn raw_set_cache_marks_the_lists() {
    let engine = after_site(|o| o.raw_set_cache(p(3), ChainRoot::Source, 1));
    assert_marked_and_walked(&engine, 2);
}

#[test]
fn raw_set_fanout_marks_the_lists() {
    let engine = after_site(|o| o.raw_set_fanout(p(2), 0));
    assert_marked_and_walked(&engine, 2);
}

#[test]
fn restore_fanout_marks_the_lists() {
    let engine = after_site(|o| o.restore_fanout(p(2)));
    assert_marked_and_walked(&engine, 2);
}

#[test]
fn the_mark_survives_a_clone_but_not_a_document_and_is_not_compared() {
    // Re-writing 3's true stamp marks the forest and changes nothing
    // else.
    let marked = after_site(|o| o.raw_set_cache(p(3), ChainRoot::Source, 3)).overlay;
    let checked = after_site(|_| {}).overlay;
    assert!(marked.lists_may_lie() && !checked.lists_may_lie());
    assert_eq!(marked, checked, "the mark takes no part in equality");
    assert!(marked.clone().lists_may_lie(), "Clone carries the mark");
    let parsed: Overlay = lagover_jsonio::from_str(&lagover_jsonio::to_string(&marked))
        .expect("the forest validates");
    assert!(
        !parsed.lists_may_lie(),
        "a validated document starts checked"
    );
}
