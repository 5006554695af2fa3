//! Property-based tests for the core invariants.
//!
//! Strategy overview:
//!
//! * arbitrary populations are drawn as `(source_fanout, Vec<(f, l)>)`;
//! * arbitrary *op sequences* drive the overlay through
//!   attach/detach/interpose/remove operations, after which the full
//!   structural validator must pass — from an empty forest, and from a
//!   chain several stamp horizons deep;
//! * full construction runs must never violate fanout, create cycles,
//!   or (greedy) break the `l_parent <= l_child` invariant — regardless
//!   of workload, oracle, or seed.

use std::ops::RangeInclusive;

use proptest::prelude::*;

use lagover_core::engine::DETECTION_TIMEOUT;
use lagover_core::node::{Constraints, Member, PeerId, Population};
use lagover_core::overlay::Overlay;
use lagover_core::sufficiency::{check, exact_feasibility, validate_assignment};
use lagover_core::{
    construct, Algorithm, ConstructionConfig, Engine, FaultScenario, Goal, OracleKind, Plan, Run,
};
use lagover_sim::{BernoulliChurn, CorruptionClass, CorruptionPlan, SimRng};

/// Strategy: a population of `peers` peers with the given fanout and
/// latency ranges under a source with the given fanout range.
fn populations(
    source_fanout: RangeInclusive<u32>,
    fanout: RangeInclusive<u32>,
    latency: RangeInclusive<u32>,
    peers: RangeInclusive<usize>,
) -> impl Strategy<Value = Population> {
    (
        source_fanout,
        prop::collection::vec((fanout, latency), peers),
    )
        .prop_map(|(source_fanout, specs)| {
            Population::new(
                source_fanout,
                specs
                    .into_iter()
                    .map(|(f, l)| Constraints::new(f, l))
                    .collect(),
            )
        })
}

/// Strategy: a population of 1..=12 peers with fanout 0..=4 and latency
/// 1..=6, source fanout 1..=3.
fn population_strategy() -> impl Strategy<Value = Population> {
    populations(1..=3, 0..=4, 1..=6, 1..=12)
}

/// Strategy: 13..=20 peers of fanout 1..=2 and latency 1..=3 under a
/// source of fanout 1..=2. Stamps saturate at 4 hops or fewer, so the
/// [`chain`] over such a population is at least three horizons deep
/// and the mutations that follow work across the horizon, not above it.
fn thin_population_strategy() -> impl Strategy<Value = Population> {
    populations(1..=2, 1..=2, 1..=3, 13..=20)
}

/// The forest a mutation sequence starts from: empty, or the peers
/// strung into the chain source ← 0 ← 1 ← … as far as fanouts allow.
fn forest_strategy() -> impl Strategy<Value = (Population, Overlay)> {
    prop_oneof![
        population_strategy().prop_map(|population| {
            let overlay = Overlay::new(&population);
            (population, overlay)
        }),
        thin_population_strategy().prop_map(|population| {
            let overlay = chain(&population);
            let last = PeerId::new(population.len() as u32 - 1);
            assert!(overlay.walk_hops_to_root(last) >= 3 * overlay.horizon());
            (population, overlay)
        }),
    ]
}

fn chain(population: &Population) -> Overlay {
    let mut overlay = Overlay::new(population);
    let mut parent = Member::Source;
    for p in population.peer_ids() {
        if overlay.attach(p, parent).is_err() {
            break;
        }
        parent = Member::Peer(p);
    }
    overlay
}

/// The stamp contract: the stored pair is the chain walk's, with hops
/// saturated at the horizon; the public reads are the chain walk's.
fn stamps_track_chain_walks(overlay: &Overlay) -> Result<(), TestCaseError> {
    for i in 0..overlay.len() {
        let p = PeerId::new(i as u32);
        prop_assert_eq!(overlay.root(p), overlay.walk_root(p));
        prop_assert_eq!(
            overlay.stamped_hops(p),
            overlay.walk_hops_to_root(p).min(overlay.horizon())
        );
        prop_assert_eq!(overlay.hops_to_root(p), overlay.walk_hops_to_root(p));
        prop_assert_eq!(overlay.delay(p), overlay.walk_delay(p));
    }
    let walked: Vec<Option<u32>> = (0..overlay.len())
        .map(|i| overlay.walk_delay(PeerId::new(i as u32)))
        .collect();
    prop_assert_eq!(overlay.delays(), walked);
    Ok(())
}

/// An abstract overlay mutation.
#[derive(Debug, Clone)]
enum Op {
    Attach { child: usize, parent: Option<usize> },
    Detach { peer: usize },
    Interpose { i: usize, j: usize },
    Remove { peer: usize },
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n, prop::option::weighted(0.8, 0..n))
            .prop_map(|(child, parent)| Op::Attach { child, parent }),
        (0..n).prop_map(|peer| Op::Detach { peer }),
        (0..n, 0..n).prop_map(|(i, j)| Op::Interpose { i, j }),
        (0..n).prop_map(|peer| Op::Remove { peer }),
    ]
}

/// Applies `op` where its indices exist in the overlay. The mutation
/// may legitimately fail; it must never corrupt.
fn apply_op(overlay: &mut Overlay, op: &Op) {
    let n = overlay.len();
    match *op {
        Op::Attach { child, parent } => {
            if child < n {
                let parent = match parent {
                    Some(p) if p < n => Member::Peer(PeerId::new(p as u32)),
                    _ => Member::Source,
                };
                let _ = overlay.attach(PeerId::new(child as u32), parent);
            }
        }
        Op::Detach { peer } => {
            if peer < n {
                let _ = overlay.detach(PeerId::new(peer as u32));
            }
        }
        Op::Interpose { i, j } => {
            if i < n && j < n {
                let _ = overlay.interpose(PeerId::new(i as u32), PeerId::new(j as u32));
            }
        }
        Op::Remove { peer } => {
            if peer < n {
                let _ = overlay.remove_peer(PeerId::new(peer as u32));
            }
        }
    }
}

/// What an oracle index that mirrored `before` holds for every peer
/// once it has drained `after`'s delta feed: its bucket key, the
/// stamped delay. A peer the re-stamp pruned has no record and keeps
/// what the index already held.
fn index_after_draining(before: &Overlay, after: &mut Overlay) -> Vec<Option<u32>> {
    let mut mirror: Vec<Option<u32>> = (0..before.len())
        .map(|i| before.stamped_delay(PeerId::new(i as u32)))
        .collect();
    let (mut delays, mut fanouts) = (Vec::new(), Vec::new());
    after.take_deltas_into(&mut delays, &mut fanouts);
    for (p, delay) in delays {
        mirror[p.index()] = delay;
    }
    mirror
}

proptest! {
    /// Any sequence of overlay mutations leaves the structure valid:
    /// parent/child links consistent, fanouts respected, no cycles.
    #[test]
    fn overlay_survives_arbitrary_op_sequences(
        population in population_strategy(),
        ops in prop::collection::vec(op_strategy(12), 0..60),
    ) {
        let mut overlay = Overlay::new(&population);
        for op in ops {
            apply_op(&mut overlay, &op);
            prop_assert_eq!(overlay.validate(), Ok(()));
        }
    }

    /// Stamp coherence: after any random sequence of attach/detach/
    /// interpose/remove (churn) mutations — over an empty forest, and
    /// over a chain at least three horizons deep — every stored stamp
    /// is the chain walk's `(root, min(hops, horizon))` and the public
    /// `root`, `hops_to_root`, `delay` and `delays` equal a fresh
    /// chain-walk recomputation for every peer — checked, with
    /// `validate()`, after *every* mutation, not just at the end.
    #[test]
    fn cached_root_and_delay_match_chain_walk(
        forest in forest_strategy(),
        ops in prop::collection::vec(op_strategy(20), 0..60),
    ) {
        let (_, mut overlay) = forest;
        stamps_track_chain_walks(&overlay)?;
        for op in ops {
            apply_op(&mut overlay, &op);
            prop_assert_eq!(overlay.validate(), Ok(()));
            stamps_track_chain_walks(&overlay)?;
        }
    }

    /// `interpose(i, j)` is `detach(j); attach(i, k); attach(j, i)` in
    /// one pass: on any forest it succeeds exactly when all three calls
    /// do, and then leaves the same overlay (child order and stamps
    /// included), a valid one, and a delta feed that drains into the
    /// same index — the live stamps — though it holds no record for a
    /// peer the one-hop shift left at the horizon; when it refuses,
    /// nothing has changed.
    #[test]
    fn interpose_equals_detach_attach_attach(
        forest in forest_strategy(),
        ops in prop::collection::vec(op_strategy(20), 0..60),
        picks in (0usize..20, 0usize..20),
        aimed in any::<bool>(),
    ) {
        let (population, mut before) = forest;
        for op in &ops {
            apply_op(&mut before, op);
        }
        // Half the cases aim at a pair that can splice (a fragment root
        // and a parented peer), the rest take any pair, errors and all.
        let peers: Vec<PeerId> = population.peer_ids().collect();
        let (roots, parented): (Vec<PeerId>, Vec<PeerId>) =
            peers.iter().partition(|&&p| before.parent(p).is_none());
        let (i, j) = if aimed && !roots.is_empty() && !parented.is_empty() {
            (roots[picks.0 % roots.len()], parented[picks.1 % parented.len()])
        } else {
            (peers[picks.0 % peers.len()], peers[picks.1 % peers.len()])
        };
        before.set_delta_tracking(true);

        let mut stepwise = before.clone();
        let all_three = stepwise.detach(j).and_then(|k| {
            stepwise.attach(i, k)?;
            stepwise.attach(j, Member::Peer(i))
        });
        let mut spliced = before.clone();
        let outcome = spliced.interpose(i, j);
        prop_assert_eq!(outcome.is_ok(), all_three.is_ok(), "{:?} vs {:?}", outcome, all_three);
        if outcome.is_ok() {
            prop_assert_eq!(&spliced, &stepwise);
            prop_assert_eq!(spliced.validate(), Ok(()));
            let live: Vec<Option<u32>> = population
                .peer_ids()
                .map(|p| spliced.stamped_delay(p))
                .collect();
            prop_assert_eq!(&index_after_draining(&before, &mut spliced), &live);
            prop_assert_eq!(&index_after_draining(&before, &mut stepwise), &live);
        } else {
            prop_assert_eq!(&spliced, &before);
            prop_assert!(!spliced.has_pending_deltas());
        }
    }

    /// Stamp coherence under full engine dynamics: a construction run
    /// under churn (displacements, adoptions, maintenance detaches,
    /// departures) and one mid-run crash-stop keeps every stamp at the
    /// chain walk's saturated value and the public reads equal to chain
    /// walks — and the engine's four O(N) probes equal to the same
    /// counts taken from independent chain walks. The thin populations
    /// cannot be satisfied, so their rooted chains sink past the
    /// horizon while construction thrashes.
    #[test]
    fn engine_churn_keeps_caches_coherent(
        population in prop_oneof![population_strategy(), thin_population_strategy()],
        seed in 0u64..1_000_000,
    ) {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(10_000);
        let mut engine = Engine::new(&population, &config, seed);
        let mut churn = BernoulliChurn::new(0.1, 0.3);
        for round in 0..30 {
            if round == 10 {
                // A crashed interior peer keeps its edges until it is
                // detected, so stale chains are not vacuously zero.
                let victim = population
                    .peer_ids()
                    .find(|&p| engine.is_online(p) && !engine.overlay().children(p).is_empty());
                if let Some(p) = victim {
                    engine.inject_crash(p);
                }
            }
            engine.apply_churn(&mut churn);
            engine.step();
            let (mut online, mut satisfied, mut orphans, mut stale) = (0usize, 0usize, 0usize, 0usize);
            stamps_track_chain_walks(engine.overlay())?;
            for p in population.peer_ids() {
                if !engine.is_online(p) {
                    continue;
                }
                online += 1;
                if matches!(engine.overlay().walk_delay(p), Some(d) if d <= population.latency(p)) {
                    satisfied += 1;
                }
                if engine.overlay().parent(p).is_none() {
                    orphans += 1;
                }
                let mut cur = p;
                for _ in 0..population.len() {
                    match engine.overlay().parent(cur) {
                        Some(Member::Peer(q)) if engine.is_online(q) => cur = q,
                        Some(Member::Peer(_)) => {
                            stale += 1;
                            break;
                        }
                        Some(Member::Source) | None => break,
                    }
                }
            }
            prop_assert_eq!(engine.orphan_count(), orphans);
            prop_assert_eq!(engine.stale_chain_count(), stale);
            prop_assert_eq!(engine.is_converged(), satisfied == online);
            let fraction = if online == 0 { 1.0 } else { satisfied as f64 / online as f64 };
            prop_assert_eq!(engine.satisfied_fraction(), fraction);
        }
    }

    /// DelayAt is defined exactly for rooted peers, equals the hop
    /// count, and the speculative delay coincides with it when rooted.
    #[test]
    fn delay_definitions_are_consistent(
        population in population_strategy(),
        ops in prop::collection::vec(op_strategy(12), 0..40),
    ) {
        let n = population.len();
        let mut overlay = Overlay::new(&population);
        for op in ops {
            if let Op::Attach { child, parent } = op {
                if child < n {
                    let parent = match parent {
                        Some(p) if p < n => Member::Peer(PeerId::new(p as u32)),
                        _ => Member::Source,
                    };
                    let _ = overlay.attach(PeerId::new(child as u32), parent);
                }
            }
        }
        for p in population.peer_ids() {
            match overlay.delay(p) {
                Some(d) => {
                    prop_assert!(overlay.is_rooted(p));
                    prop_assert_eq!(d, overlay.hops_to_root(p));
                    prop_assert_eq!(overlay.speculative_delay(p), d);
                    prop_assert!(d >= 1);
                }
                None => {
                    prop_assert!(!overlay.is_rooted(p));
                    prop_assert_eq!(
                        overlay.speculative_delay(p),
                        overlay.hops_to_root(p) + 1
                    );
                }
            }
        }
    }

    /// The §3.3 lemma, empirically: sufficiency implies a feasible
    /// depth assignment exists.
    #[test]
    fn sufficiency_implies_feasibility(population in population_strategy()) {
        if check(&population).satisfied {
            let depths = exact_feasibility(&population);
            prop_assert!(depths.is_some(), "sufficient but infeasible: {population:?}");
            validate_assignment(&population, &depths.unwrap())
                .map_err(TestCaseError::fail)?;
        }
    }

    /// Feasibility witnesses returned by the exact search always
    /// validate.
    #[test]
    fn exact_feasibility_witnesses_validate(population in population_strategy()) {
        if let Some(depths) = exact_feasibility(&population) {
            validate_assignment(&population, &depths)
                .map_err(TestCaseError::fail)?;
        }
    }

    /// Full construction runs keep the overlay valid and, if they
    /// converge, satisfy every constraint; the greedy run additionally
    /// preserves `l_parent <= l_child` on every edge.
    #[test]
    fn construction_preserves_invariants(
        population in population_strategy(),
        algorithm_is_greedy in any::<bool>(),
        oracle_idx in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let algorithm = if algorithm_is_greedy {
            Algorithm::Greedy
        } else {
            Algorithm::Hybrid
        };
        let oracle = OracleKind::ALL[oracle_idx];
        let config = ConstructionConfig::new(algorithm, oracle).with_max_rounds(300);
        let mut engine = Engine::new(&population, &config, seed);
        let converged = engine.run_to_convergence();
        prop_assert_eq!(engine.overlay().validate(), Ok(()));
        if converged.is_some() {
            for p in population.peer_ids() {
                let d = engine.overlay().delay(p);
                prop_assert!(
                    matches!(d, Some(d) if d <= population.latency(p)),
                    "converged but {p} unsatisfied"
                );
            }
        }
        if algorithm_is_greedy {
            for p in population.peer_ids() {
                if let Some(Member::Peer(q)) = engine.overlay().parent(p) {
                    prop_assert!(
                        population.latency(q) <= population.latency(p),
                        "greedy invariant broken on {q} -> {p}"
                    );
                }
            }
        }
    }

    /// Construction under churn never corrupts the overlay, and offline
    /// peers are always fully out of it.
    #[test]
    fn churn_preserves_structure(
        population in population_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(10_000);
        let mut engine = Engine::new(&population, &config, seed);
        let mut churn = BernoulliChurn::new(0.1, 0.3);
        for _ in 0..50 {
            engine.apply_churn(&mut churn);
            engine.step();
            prop_assert_eq!(engine.overlay().validate(), Ok(()));
            for p in population.peer_ids() {
                if !engine.is_online(p) {
                    prop_assert_eq!(engine.overlay().parent(p), None);
                    prop_assert!(engine.overlay().children(p).is_empty());
                }
            }
        }
    }

    /// The convergence predicate is exactly "every online peer rooted
    /// within its constraint".
    #[test]
    fn convergence_predicate_matches_definition(
        population in population_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random)
            .with_max_rounds(150);
        let outcome = construct(&population, &config, seed);
        if let Some(at) = outcome.converged_at {
            prop_assert!(at <= 150);
            prop_assert_eq!(outcome.final_satisfied_fraction, 1.0);
        }
        // The satisfied series never exceeds 1 and never goes negative.
        for (_, y) in outcome.satisfied_series.iter() {
            prop_assert!((0.0..=1.0).contains(&y));
        }
    }

    /// Deterministic replay: the same (population, config, seed) gives
    /// the identical outcome.
    #[test]
    fn construction_is_deterministic(
        population in population_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(200);
        let a = construct(&population, &config, seed);
        let b = construct(&population, &config, seed);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feasible-and-sufficient populations always converge under the
    /// hybrid algorithm with the recommended oracle — the engine's
    /// completeness on its intended domain — on the round clock and on
    /// the virtual-time clock with uniform durations alike. (Off that
    /// domain the two clocks can disagree on *whether* a population
    /// converges within the cap.)
    #[test]
    fn hybrid_converges_on_sufficient_populations(
        population in population_strategy(),
        seed in 0u64..100_000,
    ) {
        if check(&population).satisfied {
            let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                .with_max_rounds(5_000);
            let outcome = construct(&population, &config, seed);
            prop_assert!(
                outcome.converged(),
                "hybrid failed on a sufficient population: {population:?}"
            );
            let timed = Run::new(&population, &config, seed)
                .timed(|_, _: &mut SimRng| 1.0, 5_000.0)
                .construct()
                .outcome;
            prop_assert!(
                timed.converged(),
                "hybrid failed on the virtual-time clock: {population:?}"
            );
        }
    }

    /// RNG determinism and stream independence: the engine's behaviour
    /// is a pure function of the seed.
    #[test]
    fn seeds_fully_determine_runs(seed in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash-stop detection completes: after `DETECTION_TIMEOUT + 1`
    /// further rounds every trace of an arbitrary crashed cohort is
    /// gone — no live peer's parent chain traverses a corpse, crashed
    /// peers hold no edges, and both the structural and the liveness
    /// validators pass.
    #[test]
    fn crash_detection_clears_every_stale_chain(
        population in population_strategy(),
        crash_mask in prop::collection::vec(any::<bool>(), 12..13),
        seed in 0u64..100_000,
    ) {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(5_000);
        let mut engine = Engine::new(&population, &config, seed);
        engine.run_to_convergence();
        for p in population.peer_ids() {
            if crash_mask.get(p.index()).copied().unwrap_or(false) {
                engine.inject_crash(p);
            }
        }
        for _ in 0..=DETECTION_TIMEOUT {
            engine.step();
        }
        prop_assert_eq!(engine.stale_chain_count(), 0);
        let detected: Vec<bool> = population
            .peer_ids()
            .map(|p| engine.is_crashed(p))
            .collect();
        prop_assert_eq!(engine.overlay().validate(), Ok(()));
        prop_assert_eq!(engine.overlay().validate_liveness(&detected), Ok(()));
        for p in population.peer_ids() {
            if engine.is_crashed(p) {
                prop_assert_eq!(engine.overlay().parent(p), None);
                prop_assert!(engine.overlay().children(p).is_empty());
            }
        }
    }

    /// Cache coherence survives the fault path: crash injection,
    /// delayed detection, blackout backoff, and message loss never let
    /// the incrementally maintained `root`/`delay` caches drift from a
    /// fresh chain-walk recomputation.
    #[test]
    fn fault_dynamics_keep_caches_coherent(
        population in population_strategy(),
        crash_mask in prop::collection::vec(any::<bool>(), 12..13),
        seed in 0u64..100_000,
    ) {
        use lagover_sim::FaultPlan;
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(5_000);
        let mut engine = Engine::new(&population, &config, seed);
        engine.run_to_convergence();
        for p in population.peer_ids() {
            if crash_mask.get(p.index()).copied().unwrap_or(false) {
                engine.inject_crash(p);
            }
        }
        engine.set_faults(
            FaultPlan::none()
                .with_message_loss(0.2)
                .with_blackout(engine.round().get(), 5),
        );
        for _ in 0..20 {
            engine.step();
            for p in population.peer_ids() {
                prop_assert_eq!(engine.overlay().root(p), engine.overlay().walk_root(p));
                prop_assert_eq!(engine.overlay().delay(p), engine.overlay().walk_delay(p));
            }
        }
    }
}

/// Deterministic population of `n` peers derived from `seed`: mixed
/// fanout 0..=6 and latency 1..=10 so every oracle sees empty,
/// partial, and saturated candidate sets over a run.
fn sized_population(n: usize, seed: u64) -> Population {
    let mut rng = SimRng::seed_from(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    let source_fanout = 1 + rng.index(4) as u32;
    let peers = (0..n)
        .map(|_| Constraints::new(rng.index(7) as u32, 1 + rng.index(10) as u32))
        .collect();
    Population::new(source_fanout, peers)
}

/// `n` peers of fanout 2 and latency 2..=4 under a source of fanout 2:
/// trees this thin cannot hold everyone within four hops, so while
/// construction thrashes, displacement pushes rooted subtrees well
/// below every latency constraint.
fn low_fanout_population(n: usize, seed: u64) -> Population {
    let mut rng = SimRng::seed_from(seed ^ 0x0C4A_1200_0C4A_1200);
    let peers = (0..n)
        .map(|_| Constraints::new(2, 2 + rng.index(3) as u32))
        .collect();
    Population::new(2, peers)
}

/// Asserts two engines are on byte-identical trajectories: same RNG
/// draw count, same counters, and the same overlay down to children
/// order and online sets.
fn engines_agree(a: &Engine, b: &Engine, population: &Population) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.rng_draws(), b.rng_draws(), "RNG streams diverged");
    prop_assert_eq!(a.counters(), b.counters());
    for p in population.peer_ids() {
        prop_assert_eq!(
            a.overlay().parent(p),
            b.overlay().parent(p),
            "parent of {}",
            p
        );
        prop_assert_eq!(a.overlay().delay(p), b.overlay().delay(p), "delay of {}", p);
        prop_assert_eq!(a.overlay().children(p), b.overlay().children(p));
        prop_assert_eq!(a.is_online(p), b.is_online(p));
    }
    prop_assert_eq!(a.overlay().source_children(), b.overlay().source_children());
    Ok(())
}

/// Steps an indexed engine and a naive-scan engine side by side,
/// asserting agreement after every round; returns the deepest rooted
/// `DelayAt` seen on the way.
fn index_tracks_reference(
    population: &Population,
    oracle: OracleKind,
    seed: u64,
) -> Result<u32, TestCaseError> {
    let config = ConstructionConfig::new(Algorithm::Hybrid, oracle).with_max_rounds(5_000);
    let mut indexed = Engine::new(population, &config, seed);
    let mut reference = Engine::with_oracle(population, &config, config.oracle.build(), seed);
    let rounds = if population.len() >= 1_000 { 25 } else { 60 };
    let mut deepest = 0;
    for _ in 0..rounds {
        indexed.step();
        reference.step();
        engines_agree(&indexed, &reference, population)?;
        let depths = population
            .peer_ids()
            .filter_map(|p| indexed.overlay().delay(p));
        deepest = deepest.max(depths.max().unwrap_or(0));
    }
    Ok(deepest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The indexed oracle sampler (Fenwick / delay-bitmap path) against
    /// the retained naive reference path: identical attach/detach
    /// trajectories, depths, and RNG draw counts at the sizes the scale
    /// scenarios care about, for every oracle kind — and, under all
    /// four oracles, on the low-fanout population whose rooted peers
    /// sink to `max_latency`, where the index stops filing them, and
    /// (under at least one oracle) past `max_latency + 1`, where the
    /// overlay's stamps saturate, so both horizons are held against
    /// the naive scan too.
    #[test]
    fn indexed_oracle_matches_reference_path(
        size_idx in 0usize..3,
        oracle_idx in 0usize..4,
        seed in 0u64..100_000,
    ) {
        let population = sized_population([16, 120, 1_000][size_idx], seed);
        index_tracks_reference(&population, OracleKind::ALL[oracle_idx], seed)?;
        let thin = low_fanout_population(120, seed);
        let mut sunk = 0;
        for oracle in OracleKind::ALL {
            let deepest = index_tracks_reference(&thin, oracle, seed)?;
            prop_assert!(
                deepest >= thin.max_latency(),
                "{:?}: rooted depth {} never reached the horizon {}",
                oracle,
                deepest,
                thin.max_latency()
            );
            sunk = sunk.max(deepest);
        }
        prop_assert!(
            sunk > thin.max_latency() + 1,
            "rooted depth {} never passed the stamp horizon",
            sunk
        );
    }

    /// The same equivalence through the fault paths: churn departures
    /// and arrivals, plus a mid-run crash cohort, never let the index
    /// drift from the reference sampler.
    #[test]
    fn indexed_oracle_matches_reference_under_churn_and_crashes(
        oracle_idx in 0usize..4,
        seed in 0u64..100_000,
    ) {
        let population = sized_population(120, seed);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::ALL[oracle_idx])
            .with_max_rounds(5_000);
        let mut indexed = Engine::new(&population, &config, seed);
        let mut reference =
            Engine::with_oracle(&population, &config, config.oracle.build(), seed);
        let mut churn_a = BernoulliChurn::new(0.05, 0.25);
        let mut churn_b = BernoulliChurn::new(0.05, 0.25);
        for round in 0..40 {
            indexed.apply_churn(&mut churn_a);
            reference.apply_churn(&mut churn_b);
            if round == 10 {
                for p in population.peer_ids().filter(|p| p.index() % 7 == 3) {
                    indexed.inject_crash(p);
                    reference.inject_crash(p);
                }
            }
            indexed.step();
            reference.step();
            engines_agree(&indexed, &reference, &population)?;
        }
    }
}

proptest! {
    /// Analysis profiles are consistent with the overlay they describe:
    /// depth counts + unrooted = population, slack classes partition the
    /// rooted peers, and per-level usage never exceeds capacity.
    #[test]
    fn analysis_profiles_are_consistent(
        population in population_strategy(),
        ops in prop::collection::vec(op_strategy(12), 0..50),
    ) {
        use lagover_core::analysis::{depth_profile, slack_profile, utilization_profile};
        let n = population.len();
        let mut overlay = Overlay::new(&population);
        for op in ops {
            if let Op::Attach { child, parent } = op {
                if child < n {
                    let parent = match parent {
                        Some(p) if p < n => Member::Peer(PeerId::new(p as u32)),
                        _ => Member::Source,
                    };
                    let _ = overlay.attach(PeerId::new(child as u32), parent);
                }
            }
        }
        let d = depth_profile(&overlay, &population);
        prop_assert_eq!(d.counts.iter().sum::<usize>() + d.unrooted, n);
        let s = slack_profile(&overlay, &population);
        prop_assert_eq!(s.violated + s.tight + s.slackful + d.unrooted, n);
        let u = utilization_profile(&overlay, &population);
        for (level, (&used, &cap)) in u.used.iter().zip(u.capacity.iter()).enumerate() {
            prop_assert!(used <= cap, "level {level}: {used} > {cap}");
        }
    }
}

/// A constructible population of `n` peers: the [`sized_population`]
/// shape (mixed fanout 0..=6, latency 1..=10) pushed through the same
/// minimal latency-relaxation repair the workload generators use —
/// while some level is overloaded per the §3.3 check, the first peer
/// at that level has its constraint relaxed by one time unit — so
/// stabilization runs always start from a convergeable overlay. `None`
/// when relaxing cannot help: with too little fanout to hold everyone,
/// the violation sinks past depth `n`.
fn sufficient_population(n: usize, seed: u64) -> Option<Population> {
    let mut rng = SimRng::seed_from(seed ^ 0x5EED_C0DE);
    let source_fanout = 2 + rng.index(3) as u32;
    let mut peers: Vec<Constraints> = (0..n)
        .map(|_| Constraints::new(rng.index(7) as u32, 1 + rng.index(10) as u32))
        .collect();
    loop {
        let population = Population::new(source_fanout, peers.clone());
        let Some(level) = check(&population).first_violation else {
            return Some(population);
        };
        if level as usize > n {
            return None;
        }
        let victim = peers
            .iter()
            .position(|c| c.latency == level)
            .expect("a violated level has at least one occupant");
        peers[victim].latency += 1;
    }
}

/// The classes of `class_mask` (bit i: `CorruptionClass::ALL[i]`) at
/// `severity`, the victims drawn from `seed`.
fn corruption_plan(class_mask: u32, severity: f64, seed: u64) -> CorruptionPlan {
    let mut plan = CorruptionPlan::new(seed ^ 0x0BAD_5EED).with_severity(severity);
    for (i, &class) in CorruptionClass::ALL.iter().enumerate() {
        if class_mask & (1 << i) != 0 {
            plan = plan.with_class(class);
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Self-stabilization: for *every* generated corruption — an
    /// arbitrary subset of the six corruption classes at arbitrary
    /// severity, injected into a converged overlay of 16, 120, or
    /// 1000 peers — the always-on local detect-and-repair rule returns
    /// the engine to a `validate()`-clean, fully converged,
    /// stale-chain-free state within a bounded round count.
    #[test]
    fn stabilization_recovers_from_arbitrary_corruption(
        size_idx in 0usize..3,
        class_mask in 1u32..64,
        severity in 0.05f64..0.5,
        seed in 0u64..100_000,
    ) {
        let n = [16, 120, 1_000][size_idx];
        let population = sufficient_population(n, seed).expect("sufficient");
        let plan = corruption_plan(class_mask, severity, seed);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(20_000);
        let horizon = 2_500;
        let outcome = Run::new(&population, &config, seed)
            .perturb(&Plan::corruption(plan.clone()), horizon)
            .outcome;
        prop_assert!(
            outcome.converged_at.is_some(),
            "pre-corruption construction failed on a sufficient population"
        );
        prop_assert!(
            outcome.came_clean(),
            "no recovery within {} rounds (n {}, seed {}, classes {:?}, severity {}, \
             {} states corrupted, constructed at {:?})",
            horizon,
            n,
            seed,
            plan.classes(),
            severity,
            outcome.corrupted_states,
            outcome.converged_at
        );
        if outcome.corrupted_states > 0 {
            prop_assert!(
                outcome.counters.inconsistencies_detected > 0,
                "corruption applied but never detected"
            );
        }
    }
}

/// Every corruption class in isolation, at every scale the scale
/// scenarios care about: injection visibly perturbs the overlay, the
/// structural classes defeat `Overlay::validate`, and the engine
/// re-converges to a clean state within the horizon.
#[test]
fn every_corruption_class_recovers_at_all_scales() {
    let structural = [
        CorruptionClass::ParentCycle,
        CorruptionClass::DanglingParent,
        CorruptionClass::OrphanGraft,
        CorruptionClass::FanoutOverflow,
    ];
    for &n in &[16usize, 120, 1_000] {
        let population = sufficient_population(n, 4242).expect("sufficient");
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(20_000);
        for class in CorruptionClass::ALL {
            let plan = CorruptionPlan::new(9).with_class(class).with_severity(0.35);
            let outcome = Run::new(&population, &config, 7)
                .perturb(&Plan::corruption(plan), 2_500)
                .outcome;
            assert!(
                outcome.converged_at.is_some(),
                "n={n} {class}: construction failed"
            );
            assert!(
                outcome.corrupted_states > 0,
                "n={n} {class}: plan was a no-op"
            );
            if structural.contains(&class) {
                assert!(
                    !outcome.valid_after_injection,
                    "n={n} {class}: snapshot still validates after injection"
                );
            }
            assert!(
                outcome.came_clean(),
                "n={n} {class}: no recovery within 2500 rounds ({} states corrupted)",
                outcome.corrupted_states
            );
            assert!(
                outcome.counters.inconsistencies_detected > 0,
                "n={n} {class}: corruption never detected"
            );
        }
    }
}

/// Rounds a composed run has to come clean once injection has stopped.
/// Never widened to make a case pass.
const COMPOSED_HORIZON: u64 = 2_500;

/// One case of the composed property: `n` peers built by Greedy or
/// Hybrid, and which of churn (stopping after round `churn_stop`),
/// crash-stop faults and snapshot corruption the plan holds (`mask`
/// bits 0, 1, 2; never empty), with each one's parameters.
#[derive(Debug, Clone, Copy)]
struct Composed {
    n: usize,
    greedy: bool,
    mask: u32,
    churn: (f64, f64),
    churn_stop: u64,
    faults: (f64, f64, u64),
    corruption: (u32, f64),
    seed: u64,
}

/// Strategy: a composed case of up to `max_n` peers.
fn composed(max_n: usize) -> impl Strategy<Value = Composed> {
    (
        (1..=max_n, any::<bool>(), 1u32..8, 0u64..=50),
        (0.005f64..0.1, 0.05f64..0.5),
        (0.0f64..0.5, 0.0f64..0.2, 0u64..30),
        ((1u32..64, 0.05f64..0.5), 0u64..100_000),
    )
        .prop_map(
            |((n, greedy, mask, churn_stop), churn, faults, (corruption, seed))| Composed {
                n,
                greedy,
                mask,
                churn,
                churn_stop,
                faults,
                corruption,
                seed,
            },
        )
}

impl Composed {
    fn plan(&self) -> Plan<BernoulliChurn> {
        let (p_off, p_on) = self.churn;
        let (crash_fraction, message_loss, blackout_rounds) = self.faults;
        let (class_mask, severity) = self.corruption;
        Plan {
            churn: (self.mask & 1 != 0).then(|| BernoulliChurn::new(p_off, p_on)),
            faults: (self.mask & 2 != 0).then_some(FaultScenario {
                crash_fraction,
                message_loss,
                blackout_rounds,
            }),
            corruption: (self.mask & 4 != 0)
                .then(|| corruption_plan(class_mask, severity, self.seed)),
        }
    }
}

/// Drives `plan` the way `lagover-node`'s replica does — the engine,
/// the plan's [`Goal`] at every round boundary, and the plan's churn
/// before every round until `churn_stop` — and checks, every round:
/// the crash-stop liveness invariant, `spot_check` on every peer and
/// no peer over its declared fanout (for a corrupted run, from its
/// first validate-clean round on). Runs until the overlay is clean
/// once injection has stopped — churn stopped and the one-shot
/// crash and corruption in — which must take at most
/// [`COMPOSED_HORIZON`] rounds, unless the peers still online fail the
/// §3.3 sufficiency condition, which no rule can heal. Returns the
/// engine and goal of a run that came clean.
fn drive_composed(
    population: &Population,
    config: &ConstructionConfig,
    plan: &Plan<BernoulliChurn>,
    churn_stop: u64,
    seed: u64,
) -> Result<Option<(Engine, Goal)>, TestCaseError> {
    let mut engine = Engine::new(population, config, seed);
    let mut goal = Goal::new(plan, seed, config.max_rounds, COMPOSED_HORIZON);
    let mut churn = plan.churn;
    let mut quiet_from = if churn.is_some() { churn_stop } else { 0 };
    let timeout = u64::from(DETECTION_TIMEOUT);
    let (mut crashed_at, mut corrupted, mut armed) = (None, false, true);
    goal.check(&mut engine);
    loop {
        let round = engine.round().get();
        if round >= quiet_from && goal.clean_at().is_some() {
            return Ok(Some((engine, goal)));
        }
        if round >= quiet_from + COMPOSED_HORIZON {
            let online = population
                .iter()
                .filter(|&(p, _)| engine.is_online(p))
                .map(|(_, c)| c)
                .collect();
            let survivors = Population::new(population.source_fanout(), online);
            prop_assert!(
                !check(&survivors).satisfied,
                "not clean {COMPOSED_HORIZON} rounds after injection stopped at round \
                 {quiet_from}, though the {} peers online are sufficient",
                survivors.len()
            );
            return Ok(None);
        }
        if let Some(churn) = churn.as_mut().filter(|_| round < churn_stop) {
            engine.apply_churn(churn);
        }
        engine.step();
        goal.check(&mut engine);
        let round = engine.round().get();
        if crashed_at.is_none() && !goal.victims().is_empty() {
            crashed_at = Some(round);
            quiet_from = quiet_from.max(round);
        }
        if !corrupted && goal.corrupted_states() > 0 {
            corrupted = true;
            armed = false;
            quiet_from = quiet_from.max(round);
        }
        armed = armed || engine.overlay().validate().is_ok();
        if !armed {
            continue;
        }
        let detected: Vec<bool> = population
            .peer_ids()
            .map(|p| {
                crashed_at.is_some_and(|at| round >= at + timeout) && goal.victims().contains(&p)
            })
            .collect();
        let overlay = engine.overlay();
        prop_assert_eq!(
            overlay.validate_liveness(&detected),
            Ok(()),
            "round {}",
            round
        );
        for (p, c) in population.iter() {
            prop_assert_eq!(overlay.spot_check(p), Ok(()), "round {}", round);
            prop_assert!(
                overlay.children(p).len() <= c.fanout as usize,
                "round {round}: {p} holds {} children over fanout {}",
                overlay.children(p).len(),
                c.fanout
            );
        }
    }
}

/// One case of the composed property; see [`drive_composed`]. A
/// churn-free case is also held to `Run::perturb`: the verb steps the
/// same rule, so it comes clean on the same round with the same
/// counters.
fn composed_case(case: Composed) -> Result<(), TestCaseError> {
    let Some(population) = sufficient_population(case.n, case.seed) else {
        return Err(TestCaseError::reject(
            "no population of this draw is sufficient",
        ));
    };
    let algorithm = if case.greedy {
        Algorithm::Greedy
    } else {
        Algorithm::Hybrid
    };
    let config = ConstructionConfig::new(algorithm, OracleKind::RandomDelay)
        .with_max_rounds(COMPOSED_HORIZON);
    let plan = case.plan();
    let ended = match drive_composed(&population, &config, &plan, case.churn_stop, case.seed) {
        Err(TestCaseError::Fail(message)) => {
            Err(TestCaseError::fail(format!("{message} ({case:?})")))
        }
        ended => ended,
    }?;
    let Some((engine, goal)) = ended else {
        return Ok(());
    };
    if plan.churn.is_none() {
        let outcome = Run::new(&population, &config, case.seed)
            .perturb(&plan, COMPOSED_HORIZON)
            .outcome;
        let clean_at = outcome.rounds_to_clean.map(|r| outcome.injected_at + r);
        prop_assert_eq!(clean_at, goal.clean_at());
        prop_assert_eq!(outcome.counters, *engine.counters());
    }
    Ok(())
}

/// A counterexample the composed property found,
/// minimized to churn and one corruption class under Hybrid.
fn churn_then_corruption(
    n: usize,
    churn: (f64, f64),
    churn_stop: u64,
    corruption: (u32, f64),
    seed: u64,
) -> Composed {
    let faults = (0.0, 0.0, 0);
    let (greedy, mask) = (false, 0b101);
    Composed {
        n,
        greedy,
        mask,
        churn,
        churn_stop,
        faults,
        corruption,
        seed,
    }
}

/// Composed-property counterexample, fixed (draw seed 20 049): a stale
/// root forged into a peer churn had taken offline was never repaired,
/// because an offline peer takes no action. A corruption now passes
/// over offline peers.
#[test]
fn a_corruption_passes_over_offline_peers() {
    let churn = (0.074_552_980_415_198_82, 0.085_045_364_005_937_07);
    let stale_root = (1 << 5, 0.101_490_300_538_337_52);
    let case = churn_then_corruption(24, churn, 1, stale_root, 20_049);
    assert_eq!(composed_case(case), Ok(()));
}

/// Composed-property counterexample, fixed (draw seed 14 907): a peer
/// whose stamp a corruption forged, and that churn then took offline,
/// kept the forgery for good. A departing peer now leaves as a bare
/// fragment root.
#[test]
fn a_departing_peer_drops_a_forged_stamp() {
    let churn = (0.054_195_115_453_495_64, 0.222_831_531_903_333_05);
    let stale_root = (1 << 5, 0.399_311_246_186_828_4);
    let case = churn_then_corruption(24, churn, 18, stale_root, 14_907);
    assert_eq!(composed_case(case), Ok(()));
}

/// Composed-property counterexample, fixed (draw seed 20 688): a peer
/// grafted into a list that never adopted it went offline, and a
/// re-stamp through the graft rewrote its stamp after the repair had
/// passed. A departing peer now leaves every list.
#[test]
fn a_departing_peer_leaves_every_list() {
    let churn = (0.057_328_332_579_473_59, 0.051_330_819_284_524_196);
    let orphan_graft = (1 << 4, 0.428_032_893_529_531_9);
    let case = churn_then_corruption(23, churn, 32, orphan_graft, 20_688);
    assert_eq!(composed_case(case), Ok(()));
}

/// Runs a composed counterexample routed to ROADMAP [L] (the frozen
/// fragment) and pins it as stuck: safe every round, but not clean once
/// injection stops although the peers online are sufficient. A soak of
/// the property at 20 000 cases found these beyond its committed ones.
/// Fix [L], then turn each into a `composed_case(..) == Ok(())`.
fn stays_stuck(case: Composed) {
    let error = composed_case(case).expect_err("the run comes clean");
    assert!(
        matches!(&error, TestCaseError::Fail(m) if m.starts_with("not clean")),
        "{error}"
    );
}

/// Soak draw seed 66 800, minimized to the crash alone: crashing 48% of
/// the interior of 15 peers leaves the source's three slots to lax
/// zero-fanout leaves, and the strict survivors buried under a lax
/// fragment root that cannot displace them.
#[test]
fn a_crash_can_freeze_a_fragment() {
    let faults = (0.480_929_137_241_783_5, 0.0, 0);
    let (churn, corruption) = ((0.0, 0.0), (0, 0.0));
    let (greedy, mask, churn_stop) = (false, 0b010, 0);
    let (n, seed) = (15, 66_800);
    stays_stuck(Composed {
        n,
        greedy,
        mask,
        churn,
        churn_stop,
        faults,
        corruption,
        seed,
    });
}

/// Soak draw seed 95 410, minimized to three classes: parent cycles,
/// orphan grafts and stale roots at severity 0.42 over 70 peers leave
/// fragment roots of latency 2 that no displacement rule seats.
#[test]
fn a_corruption_can_freeze_a_fragment() {
    let corruption = (0b11_0001, 0.421_456_415_875_085_4);
    let (churn, faults) = ((0.0, 0.0), (0.0, 0.0, 0));
    let (greedy, mask, churn_stop) = (false, 0b100, 0);
    let (n, seed) = (70, 95_410);
    stays_stuck(Composed {
        n,
        greedy,
        mask,
        churn,
        churn_stop,
        faults,
        corruption,
        seed,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every mix of churn, crash-stop faults (with loss and blackout)
    /// and snapshot corruption keeps the overlay safe every round and
    /// brings it back clean once injection stops (DESIGN.md §6.2).
    #[test]
    fn composed_perturbations_stay_safe_and_come_clean(case in composed(24)) {
        composed_case(case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    /// [`composed_perturbations_stay_safe_and_come_clean`] at scale:
    /// 2 048 cases up to 200 peers. Seconds in a release build, too
    /// slow for the debug suite, so `#[ignore]`d; CI's weekly job runs
    /// it.
    #[test]
    #[ignore]
    fn composed_perturbations_stay_safe_and_come_clean_at_scale(case in composed(200)) {
        composed_case(case)?;
    }
}
