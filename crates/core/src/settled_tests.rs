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
        // What lets the monitor skip the settled peers, counting the
        // unrooted ones.
        prop_assert!(
            engine.is_online(q)
                && engine.overlay.parent(q).is_some()
                && (engine.is_satisfied(q) || !engine.overlay.is_rooted(q)),
            "settled {q} is offline, orphaned or rooted and unsatisfied after {after}"
        );
        prop_assert!(
            !engine.overlay.lists_may_lie(),
            "{q} settled while the lists may lie"
        );
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
    /// An in-memory restore, journal re-enabled.
    Restore,
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
        Just(Op::Restore),
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
/// member is the source.
fn apply(engine: &mut Engine, op: &Op) {
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
        Op::Step => engine.step(),
        Op::Attach(c, m) => drop(overlay.attach(peer(c), member(m))),
        Op::Detach(q) => drop(overlay.detach(peer(q))),
        Op::Interpose(i, j) => drop(overlay.interpose(peer(i), peer(j))),
        Op::Remove(q) => drop(overlay.remove_peer(peer(q))),
        Op::Crash(q) => drop(engine.inject_crash(peer(q))),
        Op::Churn => engine.apply_churn(&mut BernoulliChurn::new(0.2, 0.5)),
        Op::Restore => {
            *engine = Engine::restore(engine.snapshot());
            engine.obs_mut().enable_journal(1 << 16);
        }
        Op::Raw(ref raw_op) => match *raw_op {
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
        },
    }
}

/// 2..=`max` peers in latency tiers as wide as the source's fanout
/// (1..=3), each peer with fanout 1..=4 and up to two units of slack:
/// every tier fits under the one above, so construction converges and
/// the history below starts from a fully settled overlay.
fn population_strategy(max: usize) -> impl Strategy<Value = Population> {
    (
        1u32..=3,
        prop::collection::vec((1u32..=4, 0u32..=2), 2..=max),
    )
        .prop_map(|(width, specs)| {
            let peers = specs
                .into_iter()
                .zip(0u32..)
                .map(|((fanout, slack), i)| Constraints::new(fanout, i / width + 1 + slack));
            Population::new(width, peers.collect())
        })
}

/// Builds `population` to convergence, then runs `ops`, checking the
/// settled peers after construction and after every single operation.
fn settled_history(
    population: &Population,
    algorithm: Algorithm,
    seed: u64,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let config = ConstructionConfig::new(algorithm, OracleKind::RandomDelay).with_max_rounds(3_000);
    let mut engine = Engine::new(population, &config, seed);
    engine.obs_mut().enable_journal(1 << 16);
    if engine.run_to_convergence().is_some() {
        // One more round and everybody has found nothing to do.
        engine.step();
        prop_assert_eq!(settled_peers(&engine).len(), population.len());
    }
    check_settled(&mut engine, "construction")?;
    for op in ops {
        apply(&mut engine, op);
        check_settled(&mut engine, &format!("{op:?}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever happens to the overlay and the engine, in whatever
    /// order, a peer still marked settled has nothing to do — checked
    /// after every single operation, against the audit and against the
    /// action itself.
    #[test]
    fn a_settled_peer_never_has_anything_to_do(
        population in population_strategy(12),
        algorithm in prop_oneof![Just(Algorithm::Greedy), Just(Algorithm::Hybrid)],
        seed in 0u64..100_000,
        ops in prop::collection::vec(op_strategy(12), 0..80),
    ) {
        settled_history(&population, algorithm, seed, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The property above at 4 096 cases and up to 24 peers: too slow
    /// for a debug build, so run weekly in release
    /// (`cargo test --release -p lagover-core --lib -- --ignored`).
    #[test]
    #[ignore]
    fn a_settled_peer_never_has_anything_to_do_at_scale(
        population in population_strategy(24),
        algorithm in prop_oneof![Just(Algorithm::Greedy), Just(Algorithm::Hybrid)],
        seed in 0u64..100_000,
        ops in prop::collection::vec(op_strategy(24), 0..80),
    ) {
        settled_history(&population, algorithm, seed, &ops)?;
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
    // DETECTION_TIMEOUT is 3: the edge survives two silent
    // probes and falls at the third.
    for observed in 1..3 {
        engine.act_on(p(1));
        assert_eq!(engine.proto[1].parent_silent_rounds, observed);
        assert!(engine.overlay.parent(p(1)).is_some());
    }
    engine.act_on(p(1));
    assert_eq!(engine.overlay.parent(p(1)), None, "parent declared crashed");
    assert_eq!(engine.counters().failure_detections, 1);
    // 3 rode along into the fragment, whose root negotiates for it: its
    // parent still answers, so it has nothing to do.
    assert_eq!(engine.overlay.root(p(3)), ChainRoot::Fragment(p(1)));
    assert_eq!(settled_peers(&engine), [p(3)]);
    assert!(engine.action_is_noop(p(3)));
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

/// No mode is switched on by hand in the two tests below: the raw write
/// alone marks the forest, and the mark turns the stabilize rule on.
#[test]
fn a_forged_cache_is_detected_by_the_next_action_without_stabilizing_mode() {
    let mut engine = settled_engine(&small_tree(), 5);
    // Forge the stamp of 1 — which its settled child 3 compares with.
    engine.overlay.raw_set_cache(p(1), ChainRoot::Source, 1);
    assert!(engine.overlay.lists_may_lie());
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
fn a_restamp_through_looping_lists_stops_at_its_budget() {
    // The source feeds 0 ← 1 ← 2, 2 also feeds 4 — and lists its own
    // ancestor 0, so the child lists loop (1 → 2 → 0 → 3 → 1 …) once 3
    // is spliced in above 1. With the horizon (10) past the population
    // (6) the re-stamp is stopped by its budget, not by saturation,
    // with 4 — whose parent it did re-stamp — still on the stack. The
    // graft marked the forest, so nobody holds a bit to lose.
    let population = Population::new(1, vec![Constraints::new(2, 9); 6]);
    let mut engine = Engine::new(&population, &hybrid(), 1);
    let overlay = &mut engine.overlay;
    overlay.attach(p(0), Member::Source).unwrap();
    overlay.attach(p(1), Member::Peer(p(0))).unwrap();
    overlay.attach(p(2), Member::Peer(p(1))).unwrap();
    overlay.attach(p(4), Member::Peer(p(2))).unwrap();
    assert!(overlay.raw_add_child(p(2), p(0)));
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

/// Every raw mutation and repair primitive also marks the forest, which
/// is what turns the stabilize rule back on (DESIGN.md §15.2).
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
        assert!(!overlay.lists_may_lie());
        primitive(overlay);
        assert!(
            overlay.lists_may_lie(),
            "{name} leaves the lists vouched for"
        );
        assert!(settled_peers(&engine).is_empty(), "{name}");
    }
}

#[test]
fn an_in_memory_restore_keeps_the_bits_and_a_json_restore_replays_the_same_bytes() {
    let engine = settled_engine(&small_tree(), 5);
    let json = engine.snapshot().to_json_string();

    // An in-memory snapshot clones the bits …
    let mut plain = Engine::restore(engine.snapshot());
    assert_eq!(settled_peers(&plain).len(), 4, "in-memory restore");
    assert_eq!(plain.snapshot().to_json_string(), json);

    // … the document carries none, and a parsed engine earns them
    // again, replaying identically.
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

/// The chain source ← 0 ← 1 ← 2, every peer settled, with 2's latency
/// `l2`; then 3 is spliced in above 0, one hop deeper for all three.
fn shift_a_settled_chain(l2: u32) -> Engine {
    let population = Population::new(
        1,
        vec![
            Constraints::new(1, 2),
            Constraints::new(1, 3),
            Constraints::new(0, l2),
            Constraints::new(1, 1),
        ],
    );
    let mut engine = Engine::new(&population, &hybrid(), 1);
    engine.overlay.attach(p(0), Member::Source).unwrap();
    engine.overlay.attach(p(1), Member::Peer(p(0))).unwrap();
    engine.overlay.attach(p(2), Member::Peer(p(1))).unwrap();
    for i in 0..3 {
        engine.act_on(p(i));
    }
    assert_eq!(settled_peers(&engine), [p(0), p(1), p(2)]);
    engine.overlay.interpose(p(3), p(0)).unwrap();
    assert_eq!(engine.overlay.stamped_delay(p(2)), Some(4));
    engine
}

#[test]
fn a_restamp_that_leaves_a_peer_satisfied_keeps_it_settled() {
    let engine = shift_a_settled_chain(4);
    // 0 moved; 1 and 2 sank one hop each and are still satisfied.
    assert_eq!(settled_peers(&engine), [p(1), p(2)]);
}

#[test]
fn a_restamp_that_leaves_a_peer_violated_wakes_it() {
    let mut engine = shift_a_settled_chain(3);
    assert_eq!(settled_peers(&engine), [p(1)]);
    assert!(!engine.action_is_noop(p(2)));
    engine.act_on(p(2));
    assert_eq!(
        engine.proto[2].violation_rounds, 1,
        "2 counts its violation"
    );
}

#[test]
fn a_fragment_that_roots_satisfied_wakes_nobody() {
    // The fragment 0 ← 1 ← 2: its members have nothing to do while 0
    // negotiates, so they settle, and the monitor counts them.
    let population = Population::new(
        1,
        vec![
            Constraints::new(1, 1),
            Constraints::new(1, 2),
            Constraints::new(0, 3),
        ],
    );
    let mut engine = Engine::new(&population, &hybrid(), 1);
    engine.overlay.attach(p(1), Member::Peer(p(0))).unwrap();
    engine.overlay.attach(p(2), Member::Peer(p(1))).unwrap();
    engine.act_on(p(1));
    engine.act_on(p(2));
    assert_eq!(settled_peers(&engine), [p(1), p(2)]);
    assert!(!engine.is_converged());
    assert_eq!(engine.satisfied_fraction(), 0.0);

    // 0 takes the source slot: the whole fragment is re-stamped rooted
    // and satisfied, and nobody is woken.
    engine.overlay.report_wakes(true);
    engine.overlay.attach(p(0), Member::Source).unwrap();
    assert!(engine.overlay.woken().is_empty());
    engine.overlay.report_wakes(false);
    assert_eq!(settled_peers(&engine), [p(1), p(2)]);
    assert!(engine.is_converged());
    assert_eq!(engine.satisfied_fraction(), 1.0);
}

#[test]
fn a_restamp_through_a_lying_child_list_finds_nobody_settled() {
    // The source feeds 0 and 1; 2 hangs below one of them.
    let population = Population::new(
        2,
        vec![
            Constraints::new(2, 1),
            Constraints::new(2, 1),
            Constraints::new(0, 2),
        ],
    );
    let mut engine = settled_engine(&population, 3);
    let Some(Member::Peer(parent)) = engine.overlay.parent(p(2)) else {
        panic!("2 hangs below a peer");
    };
    let other = p(1 - parent.index());
    assert!(!settled_peers(&engine).is_empty());
    // Graft 2 onto the other's list, one-sidedly: the graft un-settles
    // everybody and marks the forest, and 2, whose own neighbourhood is
    // clean, finds nothing to do — yet stays unsettled.
    assert!(engine.overlay.raw_add_child(other, p(2)));
    assert!(settled_peers(&engine).is_empty());
    engine.act_on(p(2));
    assert!(
        settled_peers(&engine).is_empty(),
        "nobody settles while the lists may lie"
    );
    // Detaching the other re-stamps the peers it lists, 2 among them,
    // into its fragment: a stamp 2's real parent contradicts, and the
    // re-stamp finds no bit to clear.
    engine.overlay.detach(other).unwrap();
    assert_eq!(engine.overlay.root(p(2)), ChainRoot::Fragment(other));
    assert!(settled_peers(&engine).is_empty());
    assert!(!engine.action_is_noop(p(2)));
    engine.act_on(p(2));
    assert_eq!(detected(&engine), [(2, InconsistencyCause::CacheMismatch)]);
}

/// What keeps every wake-everybody path dead: a bit set on a marked
/// forest is refused.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "nobody settles while the lists may lie")]
fn settling_a_peer_on_a_marked_forest_is_refused() {
    let mut engine = settled_engine(&small_tree(), 5);
    engine.overlay.raw_push_source_child(p(0));
    engine.overlay.settle(p(0));
}

/// The mark is the engine's corruption mode, and `Clone` carries it:
/// an engine restored from an in-memory snapshot of a marked one keeps
/// the round-end checks off, keeps sweeping and settles nobody.
#[test]
fn an_in_memory_restore_of_a_marked_engine_keeps_sweeping_and_settles_nobody() {
    let mut engine = settled_engine(&small_tree(), 5);
    // A second source entry for 0: past the source's fanout, so the
    // round-end validation would reject it, and only the sweep evicts
    // it (the source never acts).
    engine.overlay.raw_push_source_child(p(0));
    assert!(engine.overlay.validate().is_err());
    let mut restored = Engine::restore(engine.snapshot());
    assert!(
        restored.overlay.lists_may_lie(),
        "the restore keeps the mark"
    );
    restored.obs_mut().enable_journal(1 << 12);
    restored.step();
    assert_eq!(detected(&restored), [(0, InconsistencyCause::ForeignChild)]);
    assert_eq!(restored.overlay.source_children(), &[p(0)]);
    assert_eq!(restored.overlay.validate(), Ok(()));
    assert!(settled_peers(&restored).is_empty(), "nobody settles");
    restored.step();
    assert!(settled_peers(&restored).is_empty(), "nor in the next round");
}
