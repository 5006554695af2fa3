//! Tests of the settled-peer invariant (DESIGN.md §13.4): a settled
//! peer's action changes nothing — no field, no draw, no counter, no
//! event — so [`Engine::act_on`] may skip it.
//!
//! Two judges. [`Engine::action_is_noop`] is the read-only audit every
//! skip runs in debug builds; [`acting_changes_nothing`] is the ground
//! truth it stands in for: take the bit away, let the peer act in full,
//! and compare the engine's whole serialized state.

#![cfg(test)]

use lagover_obs::InconsistencyCause;
use lagover_sim::BernoulliChurn;
use proptest::prelude::*;

use crate::config::{Algorithm, ConstructionConfig};
use crate::engine::{Engine, EngineSnapshot};
use crate::node::{Constraints, Member, PeerId, Population};
use crate::oracle::OracleKind;
use crate::overlay::ChainRoot;

fn p(i: usize) -> PeerId {
    PeerId::new(i as u32)
}

fn hybrid() -> ConstructionConfig {
    ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(3_000)
}

fn settled_peers(engine: &Engine) -> Vec<PeerId> {
    engine
        .population
        .peer_ids()
        .filter(|&q| engine.overlay.is_settled(q))
        .collect()
}

/// Everything an action could change: the simulation state (overlay,
/// protocol bookkeeping, counters, RNG, round, fault state) and the
/// number of events emitted.
fn fingerprint(engine: &Engine) -> (String, u64) {
    let journal = engine.obs().journal().expect("journal enabled");
    (
        engine.snapshot().to_json_string(),
        journal.len() as u64 + journal.dropped(),
    )
}

/// The ground truth behind a settled bit: without it, `q`'s full action
/// leaves the engine as it found it.
fn acting_changes_nothing(engine: &mut Engine, q: PeerId) -> bool {
    let before = fingerprint(engine);
    engine.overlay.unsettle(q);
    engine.act_on(q);
    fingerprint(engine) == before
}

/// The monitor reads as O(n) scans over every online peer — what the
/// active-set reads of `is_converged`, `satisfied_fraction`,
/// `orphan_count` and `online_count` stand in for.
fn monitor_by_scan(engine: &Engine) -> (bool, f64, usize, usize) {
    let online: Vec<PeerId> = engine
        .population
        .peer_ids()
        .filter(|&q| engine.is_online(q))
        .collect();
    let satisfied = online.iter().filter(|&&q| engine.is_satisfied(q)).count();
    let orphans = online
        .iter()
        .filter(|&&q| engine.overlay.parent(q).is_none())
        .count();
    let fraction = if online.is_empty() {
        1.0
    } else {
        satisfied as f64 / online.len() as f64
    };
    (satisfied == online.len(), fraction, orphans, online.len())
}

fn check_settled(engine: &mut Engine, after: &str) -> Result<(), TestCaseError> {
    let monitor = (
        engine.is_converged(),
        engine.satisfied_fraction(),
        engine.orphan_count(),
        engine.online_count(),
    );
    prop_assert_eq!(monitor, monitor_by_scan(engine), "monitor after {}", after);
    for q in settled_peers(engine) {
        // What lets the monitor skip the settled peers.
        prop_assert!(
            engine.is_online(q) && engine.overlay.parent(q).is_some() && engine.is_satisfied(q),
            "settled {q} is offline, orphaned or unsatisfied after {after}"
        );
        prop_assert!(!engine.stabilizing(), "{q} settled while stabilizing");
        prop_assert!(engine.action_is_noop(q), "audit fails at {q} after {after}");
        prop_assert!(
            acting_changes_nothing(engine, q),
            "{q} was settled, but its action changed something after {after}"
        );
        prop_assert!(engine.overlay.is_settled(q), "{q} re-settles");
    }
    Ok(())
}

/// One step of a random history: the invariant-keeping mutations, the
/// engine's own events, every raw mutation and repair primitive, and
/// peers acting in between.
#[derive(Debug, Clone)]
enum Op {
    Act(usize),
    ActAll,
    Step,
    Attach(usize, Option<usize>),
    Detach(usize),
    Interpose(usize, usize),
    Remove(usize),
    Crash(usize),
    Churn,
    Stabilizing(bool),
    Raw(RawOp),
}

/// The raw mutations and repair primitives: after any of them the
/// overlay may be invalid in ways `validate` cannot see (a duplicate
/// source entry, say).
#[derive(Debug, Clone)]
enum RawOp {
    SetParent(usize, Option<Option<usize>>),
    SetCache(usize, Option<usize>, u32),
    SetFanout(usize, u32),
    AddChild(usize, usize),
    PushSourceChild(usize),
    EvictChild(Option<usize>, usize),
    RestoreFanout(usize),
    HealSelfParent(usize),
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    let member = move || prop::option::weighted(0.8, 0..n);
    prop_oneof![
        // Acting is what settles peers; weigh it up.
        (0..n).prop_map(Op::Act),
        (0..n).prop_map(Op::Act),
        Just(Op::ActAll),
        Just(Op::ActAll),
        Just(Op::Step),
        (0..n, member()).prop_map(|(c, m)| Op::Attach(c, m)),
        (0..n, member()).prop_map(|(c, m)| Op::Attach(c, m)),
        (0..n).prop_map(Op::Detach),
        (0..n, 0..n).prop_map(|(i, j)| Op::Interpose(i, j)),
        (0..n).prop_map(Op::Remove),
        (0..n).prop_map(Op::Crash),
        Just(Op::Churn),
        // Nobody settles while the mode is on: mostly switch it off.
        (0u32..4).prop_map(|k| Op::Stabilizing(k == 0)),
        raw_op_strategy(n).prop_map(Op::Raw),
        raw_op_strategy(n).prop_map(Op::Raw),
        raw_op_strategy(n).prop_map(Op::Raw),
    ]
}

fn raw_op_strategy(n: usize) -> impl Strategy<Value = RawOp> {
    let member = move || prop::option::weighted(0.8, 0..n);
    prop_oneof![
        (0..n, prop::option::weighted(0.8, member())).prop_map(|(q, m)| RawOp::SetParent(q, m)),
        (0..n, member(), 0u32..9).prop_map(|(q, root, hops)| RawOp::SetCache(q, root, hops)),
        (0..n, 0u32..5).prop_map(|(q, f)| RawOp::SetFanout(q, f)),
        (0..n, 0..n).prop_map(|(q, c)| RawOp::AddChild(q, c)),
        (0..n).prop_map(RawOp::PushSourceChild),
        (member(), 0..n).prop_map(|(m, c)| RawOp::EvictChild(m, c)),
        (0..n).prop_map(RawOp::RestoreFanout),
        (0..n).prop_map(RawOp::HealSelfParent),
    ]
}

/// Applies `op` — a peer index past the population wraps, a `None`
/// member is the source; `raw` remembers whether a raw mutation has
/// ever been applied.
fn apply(engine: &mut Engine, op: &Op, raw: &mut bool) {
    let n = engine.population.len();
    let peer = |i: usize| p(i % n);
    let member = |m: Option<usize>| m.map_or(Member::Source, |i| Member::Peer(peer(i)));
    let overlay = &mut engine.overlay;
    match *op {
        Op::Act(q) => {
            if engine.is_online(peer(q)) {
                engine.act_on(peer(q));
            }
        }
        Op::ActAll => {
            for q in (0..n).map(p) {
                if engine.is_online(q) {
                    engine.act_on(q);
                }
            }
        }
        Op::Step => {
            // A round ends in the invariant checks too.
            if engine.stabilizing() || !*raw {
                engine.step();
            }
        }
        Op::Attach(c, m) => drop(overlay.attach(peer(c), member(m))),
        Op::Detach(q) => drop(overlay.detach(peer(q))),
        Op::Interpose(i, j) => drop(overlay.interpose(peer(i), peer(j))),
        Op::Remove(q) => drop(overlay.remove_peer(peer(q))),
        Op::Crash(q) => drop(engine.inject_crash(peer(q))),
        Op::Churn => {
            // Churn ends in the round-end invariant checks, which a
            // corrupted overlay is only allowed to fail in
            // stabilizing mode.
            if engine.stabilizing() || !*raw {
                engine.apply_churn(&mut BernoulliChurn::new(0.2, 0.5));
            }
        }
        Op::Stabilizing(on) => engine.set_stabilizing(on),
        Op::Raw(ref raw_op) => {
            *raw = true;
            match *raw_op {
                RawOp::SetParent(q, m) => overlay.raw_set_parent(peer(q), m.map(member)),
                RawOp::SetCache(q, root, hops) => {
                    let root = root.map_or(ChainRoot::Source, |r| ChainRoot::Fragment(peer(r)));
                    overlay.raw_set_cache(peer(q), root, hops);
                }
                RawOp::SetFanout(q, f) => overlay.raw_set_fanout(peer(q), f),
                RawOp::AddChild(q, c) => drop(overlay.raw_add_child(peer(q), peer(c))),
                RawOp::PushSourceChild(c) => overlay.raw_push_source_child(peer(c)),
                RawOp::EvictChild(m, c) => drop(overlay.evict_child(member(m), peer(c))),
                RawOp::RestoreFanout(q) => overlay.restore_fanout(peer(q)),
                RawOp::HealSelfParent(q) => overlay.heal_self_parent(peer(q)),
            }
        }
    }
}

/// 2..=12 peers in latency tiers as wide as the source's fanout
/// (1..=3), each peer with fanout 1..=4 and up to two units of slack:
/// every tier fits under the one above, so construction converges and
/// the history below starts from a fully settled overlay.
fn population_strategy() -> impl Strategy<Value = Population> {
    (
        1u32..=3,
        prop::collection::vec((1u32..=4, 0u32..=2), 2..=12),
    )
        .prop_map(|(width, specs)| {
            let peers = specs
                .into_iter()
                .zip(0u32..)
                .map(|((fanout, slack), i)| Constraints::new(fanout, i / width + 1 + slack));
            Population::new(width, peers.collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever happens to the overlay and the engine, in whatever
    /// order, a peer still marked settled has nothing to do — checked
    /// after every single operation, against the audit and against the
    /// action itself.
    #[test]
    fn a_settled_peer_never_has_anything_to_do(
        population in population_strategy(),
        algorithm in prop_oneof![Just(Algorithm::Greedy), Just(Algorithm::Hybrid)],
        seed in 0u64..100_000,
        ops in prop::collection::vec(op_strategy(12), 0..80),
    ) {
        let config = ConstructionConfig::new(algorithm, OracleKind::RandomDelay)
            .with_max_rounds(3_000);
        let mut engine = Engine::new(&population, &config, seed);
        engine.obs_mut().enable_journal(1 << 16);
        if engine.run_to_convergence().is_some() {
            // One more round and everybody has found nothing to do.
            engine.step();
            prop_assert_eq!(settled_peers(&engine).len(), population.len());
        }
        check_settled(&mut engine, "construction")?;
        let mut raw = false;
        for op in &ops {
            apply(&mut engine, op, &mut raw);
            check_settled(&mut engine, &format!("{op:?}"))?;
        }
    }
}

/// A converged engine in which every peer has acted once more — so
/// every online peer is settled.
fn settled_engine(population: &Population, seed: u64) -> Engine {
    let mut engine = Engine::new(population, &hybrid(), seed);
    engine.obs_mut().enable_journal(1 << 12);
    engine.run_to_convergence().expect("converges");
    engine.step();
    assert_eq!(settled_peers(&engine).len(), population.len());
    engine
}

/// The source feeds 0, which feeds 1 and 2; 3 hangs below 1. The only
/// shape these constraints admit.
fn small_tree() -> Population {
    Population::new(
        1,
        vec![
            Constraints::new(2, 1),
            Constraints::new(1, 2),
            Constraints::new(0, 2),
            Constraints::new(0, 3),
        ],
    )
}

#[test]
fn a_converged_round_settles_everyone_and_the_next_one_is_skipped() {
    let mut engine = settled_engine(&small_tree(), 5);
    let (state, events) = fingerprint(&engine);
    let draws = engine.rng_draws();
    engine.step();
    // The order is derived, not drawn: nothing moved but the round.
    assert_eq!(engine.rng_draws(), draws);
    assert_eq!(fingerprint(&engine).1, events);
    assert_ne!(fingerprint(&engine).0, state, "the round advanced");
    assert_eq!(settled_peers(&engine).len(), 4);
}

#[test]
fn crashing_a_parent_unsettles_its_children_who_count_the_silence() {
    let mut engine = settled_engine(&small_tree(), 5);
    assert_eq!(engine.overlay.parent(p(1)), Some(Member::Peer(p(0))));
    engine.inject_crash(p(0));
    assert_eq!(
        settled_peers(&engine),
        [p(3)],
        "0 is gone, 1 and 2 must probe"
    );
    // detection_timeout defaults to 3: the edge survives two silent
    // probes and falls at the third.
    for observed in 1..3 {
        engine.act_on(p(1));
        assert_eq!(engine.proto[1].parent_silent_rounds, observed);
        assert!(engine.overlay.parent(p(1)).is_some());
    }
    engine.act_on(p(1));
    assert_eq!(engine.overlay.parent(p(1)), None, "parent declared crashed");
    assert_eq!(engine.counters().failure_detections, 1);
    // 3 rode along into the fragment, and heard about it.
    assert!(settled_peers(&engine).is_empty());
}

/// The causes journalled so far, in order.
fn detected(engine: &Engine) -> Vec<(u32, InconsistencyCause)> {
    let journal = engine.obs().journal().expect("journal enabled");
    journal
        .iter()
        .filter_map(|event| match *event {
            lagover_obs::Event::InconsistencyDetected { peer, cause, .. } => Some((peer, cause)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_forged_cache_is_detected_by_the_next_action_without_stabilizing_mode() {
    let mut engine = settled_engine(&small_tree(), 5);
    // Forge the stamp of 1 — which its settled child 3 compares with.
    engine.overlay.raw_set_cache(p(1), ChainRoot::Source, 1);
    assert!(!engine.stabilizing());
    engine.act_on(p(3));
    assert_eq!(detected(&engine), [(3, InconsistencyCause::CacheMismatch)]);
    engine.act_on(p(1));
    assert_eq!(detected(&engine)[1], (1, InconsistencyCause::CacheMismatch));
    assert_eq!(engine.overlay.validate(), Ok(()));
}

#[test]
fn a_grafted_child_is_detected_by_the_next_action_without_stabilizing_mode() {
    let mut engine = settled_engine(&small_tree(), 5);
    // 1 has one slot and 3 in it; 2 has none. Graft 3 under 0's spare
    // slot instead: 0 is settled and must notice a child it never
    // adopted.
    engine.overlay.detach(p(2)).unwrap();
    engine.act_on(p(0));
    assert!(engine.overlay.is_settled(p(0)));
    assert!(engine.overlay.raw_add_child(p(0), p(3)));
    engine.act_on(p(0));
    assert_eq!(detected(&engine), [(0, InconsistencyCause::ForeignChild)]);
    assert_eq!(engine.overlay.children(p(0)), &[p(1)]);
}

#[test]
fn a_shift_that_saturates_a_parent_unsettles_the_children_it_prunes() {
    // The source feeds the chain 0 ← 1 ← 2 ← 3 ← 4; every latency is 2,
    // so stamps saturate at 3: peer 1 sits at H − 1, peers 2.. at H.
    let population = Population::new(1, vec![Constraints::new(1, 2); 6]);
    let mut engine = Engine::new(&population, &hybrid(), 1);
    engine.overlay.attach(p(0), Member::Source).unwrap();
    for i in 1..5 {
        engine.overlay.attach(p(i), Member::Peer(p(i - 1))).unwrap();
    }
    let horizon = engine.overlay.horizon();
    assert_eq!(engine.overlay.stamped_hops(p(1)), horizon - 1);
    assert_eq!(engine.overlay.stamped_hops(p(2)), horizon);
    // No peer at the horizon is satisfied, so none settles by acting;
    // the rule under test is the overlay's, so set the bits by hand.
    for i in 0..5 {
        engine.overlay.settle(p(i));
    }
    // 5 takes the source slot: 0 and 1 sink and are re-stamped, 1 to
    // the horizon; 2 is compared with its new stamp, found unchanged
    // and pruned — but the parent stamp its action reads did change;
    // 3 and 4 are never visited.
    engine.overlay.interpose(p(5), p(0)).unwrap();
    assert_eq!(engine.overlay.stamped_hops(p(1)), horizon);
    assert_eq!(settled_peers(&engine), [p(3), p(4)]);
}

#[test]
fn a_restamp_that_runs_out_of_budget_unsettles_everyone() {
    // The source feeds 0 ← 1 ← 2, 2 also feeds 4 — and lists its own
    // ancestor 0, so the child lists loop (1 → 2 → 0 → 3 → 1 …) once 3
    // is spliced in above 1. With the horizon (10) past the population
    // (6) the re-stamp is stopped by its budget, not by saturation,
    // with 4 — whose parent it did re-stamp — still on the stack.
    let population = Population::new(1, vec![Constraints::new(2, 9); 6]);
    let mut engine = Engine::new(&population, &hybrid(), 1);
    let overlay = &mut engine.overlay;
    overlay.attach(p(0), Member::Source).unwrap();
    overlay.attach(p(1), Member::Peer(p(0))).unwrap();
    overlay.attach(p(2), Member::Peer(p(1))).unwrap();
    overlay.attach(p(4), Member::Peer(p(2))).unwrap();
    assert!(overlay.raw_add_child(p(2), p(0)));
    overlay.settle(p(4));
    overlay.settle(p(5));
    overlay.interpose(p(3), p(1)).unwrap();
    assert_eq!(overlay.stamped_hops(p(4)), 4, "never reached");
    assert!(settled_peers(&engine).is_empty());
}

#[test]
fn mutations_unsettle_the_peer_whose_child_list_they_edit() {
    let population = Population::new(2, vec![Constraints::new(3, 9); 5]);
    let mut engine = Engine::new(&population, &hybrid(), 1);
    let overlay = &mut engine.overlay;
    overlay.attach(p(0), Member::Source).unwrap();
    overlay.attach(p(1), Member::Peer(p(0))).unwrap();

    overlay.settle(p(0));
    overlay.attach(p(2), Member::Peer(p(0))).unwrap();
    assert!(!overlay.is_settled(p(0)), "attach edits 0's list");

    overlay.settle(p(0));
    overlay.detach(p(2)).unwrap();
    assert!(!overlay.is_settled(p(0)), "detach edits 0's list");

    overlay.settle(p(0));
    overlay.interpose(p(3), p(1)).unwrap();
    assert!(!overlay.is_settled(p(0)), "interpose reorders 0's list");

    // A parent-less peer never settles by acting; by hand, so that the
    // detach inside remove_peer has nothing to visit.
    overlay.detach(p(3)).unwrap();
    overlay.settle(p(3));
    assert_eq!(overlay.remove_peer(p(3)), [p(1)]);
    assert!(!overlay.is_settled(p(3)), "remove_peer empties 3's list");
}

#[test]
fn every_raw_mutation_and_repair_primitive_unsettles_everyone() {
    type Raw = fn(&mut crate::overlay::Overlay);
    let primitives: [(&str, Raw); 8] = [
        ("raw_set_parent", |o| o.raw_set_parent(p(1), None)),
        ("raw_set_cache", |o| {
            o.raw_set_cache(p(1), ChainRoot::Source, 2)
        }),
        ("raw_set_fanout", |o| o.raw_set_fanout(p(1), 1)),
        ("raw_add_child", |o| assert!(o.raw_add_child(p(1), p(2)))),
        ("raw_push_source_child", |o| o.raw_push_source_child(p(2))),
        ("evict_child", |o| {
            assert!(o.evict_child(Member::Peer(p(0)), p(1)))
        }),
        ("restore_fanout", |o| o.restore_fanout(p(1))),
        ("heal_self_parent", |o| o.heal_self_parent(p(1))),
    ];
    for (name, primitive) in primitives {
        let population = Population::new(2, vec![Constraints::new(3, 9); 70]);
        let mut engine = Engine::new(&population, &hybrid(), 1);
        let overlay = &mut engine.overlay;
        overlay.attach(p(0), Member::Source).unwrap();
        overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        // A bystander in the bitmap's second word.
        overlay.settle(p(0));
        overlay.settle(p(69));
        primitive(overlay);
        assert!(settled_peers(&engine).is_empty(), "{name}");
    }
}

#[test]
fn a_restored_engine_starts_with_nobody_settled_and_the_same_bytes() {
    let engine = settled_engine(&small_tree(), 5);
    let json = engine.snapshot().to_json_string();

    // The bits are no part of the document …
    let mut plain = Engine::restore(engine.snapshot());
    assert!(settled_peers(&plain).is_empty(), "in-memory restore");
    assert_eq!(plain.snapshot().to_json_string(), json);

    // … and a restored engine earns them again, replaying identically.
    let mut parsed = Engine::restore(EngineSnapshot::from_json_str(&json).unwrap());
    assert!(settled_peers(&parsed).is_empty(), "restore from JSON");
    for engine in [&mut plain, &mut parsed] {
        engine.step();
        assert_eq!(settled_peers(engine).len(), 4);
    }
    assert_eq!(
        plain.snapshot().to_json_string(),
        parsed.snapshot().to_json_string()
    );
}

#[test]
fn entering_and_leaving_stabilizing_mode_unsettles_everyone() {
    let mut engine = settled_engine(&small_tree(), 5);
    engine.set_stabilizing(true);
    assert!(settled_peers(&engine).is_empty());
    engine.step();
    assert!(
        settled_peers(&engine).is_empty(),
        "nobody settles while stabilizing"
    );
    engine.set_stabilizing(false);
    engine.overlay.settle(p(0));
    engine.begin_stabilizing();
    assert!(settled_peers(&engine).is_empty());
}
