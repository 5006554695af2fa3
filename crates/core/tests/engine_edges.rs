//! Engine edge cases: adversarial oracles, journal coherence, and
//! referral robustness.

use std::collections::HashMap;

use lagover_core::node::{node_to_member, Constraints, Member, PeerId, Population};
use lagover_core::oracle::{Oracle, OracleView};
use lagover_core::{Algorithm, ConstructionConfig, Engine, OracleKind};
use lagover_obs::Event;
use lagover_sim::{ChurnProcess, SimRng, Transitions};

fn population() -> Population {
    Population::new(
        2,
        vec![
            Constraints::new(2, 1),
            Constraints::new(1, 2),
            Constraints::new(0, 2),
            Constraints::new(0, 3),
        ],
    )
}

/// An oracle that always answers with a fixed peer — even if it is the
/// enquirer, offline, or out of range semantics-wise.
struct StubbornOracle(PeerId);

impl Oracle for StubbornOracle {
    fn sample(&mut self, _: PeerId, _: &OracleView<'_>, _: &mut SimRng) -> Option<PeerId> {
        Some(self.0)
    }

    fn name(&self) -> &'static str {
        "stubborn"
    }
}

/// An oracle that never answers.
struct SilentOracle;

impl Oracle for SilentOracle {
    fn sample(&mut self, _: PeerId, _: &OracleView<'_>, _: &mut SimRng) -> Option<PeerId> {
        None
    }

    fn name(&self) -> &'static str {
        "silent"
    }
}

#[test]
fn construction_survives_an_oracle_returning_the_enquirer() {
    // Peer 0's own id is returned to everyone, including peer 0: the
    // engine must treat self-answers as misses and still converge via
    // timeouts (the population is a feasible two-level tree).
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(2_000);
    let mut engine = Engine::with_oracle(
        &population(),
        &config,
        Box::new(StubbornOracle(PeerId::new(0))),
        1,
    );
    assert!(engine.run_to_convergence().is_some());
    // Peer 0's answers to everyone else were legitimate interactions;
    // its answers to itself were misses.
    assert!(engine.counters().oracle_misses > 0);
}

#[test]
fn silent_oracle_builds_flat_trees_via_timeouts() {
    // Everyone demands depth 1 and the source has room: timeout-driven
    // source contacts suffice, no oracle needed.
    let flat = Population::new(4, vec![Constraints::new(0, 1); 4]);
    let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
        .with_timeout_rounds(2)
        .with_max_rounds(200);
    let mut engine = Engine::with_oracle(&flat, &config, Box::new(SilentOracle), 2);
    assert!(engine.run_to_convergence().is_some());
    assert_eq!(
        engine.counters().oracle_misses,
        engine.counters().oracle_queries
    );
    assert!(engine.counters().source_contacts > 0);
}

#[test]
fn silent_oracle_cannot_build_depth() {
    // The layered population needs peers to find each other: with no
    // oracle the only depth-2 placements come from displacement
    // adoptions at the source, which cannot serve everyone. The engine
    // must stall gracefully (partial tree, no panic, no corruption) —
    // this documents *why* the oracle exists.
    let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
        .with_timeout_rounds(2)
        .with_max_rounds(500);
    let mut engine = Engine::with_oracle(&population(), &config, Box::new(SilentOracle), 2);
    assert!(engine.run_to_convergence().is_none());
    engine.overlay().validate().unwrap();
    // The source itself still fills up.
    assert_eq!(engine.overlay().source_children().len(), 2);
    assert!(engine.satisfied_fraction() >= 0.5);
}

#[test]
fn oracle_answers_pointing_at_offline_peers_are_misses() {
    struct KillPeer3;
    impl ChurnProcess for KillPeer3 {
        fn step(&mut self, online: &mut [bool], _rng: &mut SimRng) -> Transitions {
            if online[3] {
                online[3] = false;
                Transitions {
                    departures: 1,
                    arrivals: 0,
                }
            } else {
                Transitions::default()
            }
        }
    }
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(2_000);
    for seed in 0..12 {
        let mut engine = Engine::with_oracle(
            &population(),
            &config,
            Box::new(StubbornOracle(PeerId::new(3))),
            seed,
        );
        engine.apply_churn(&mut KillPeer3);
        // Every oracle answer now names an offline peer: all misses. The
        // remaining three peers converge through timeouts on some seeds
        // only (ROADMAP item 4), so the run just has to end cleanly.
        engine.run_to_convergence();
        engine.overlay().validate().unwrap();
        assert!(engine.counters().oracle_misses > 0, "seed {seed}");
        assert_eq!(
            engine.counters().oracle_misses,
            engine.counters().oracle_queries,
            "seed {seed}"
        );
    }
}

#[test]
fn trace_replay_reconstructs_the_final_overlay() {
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(5_000);
    let population =
        lagover_workload::WorkloadSpec::new(lagover_workload::TopologicalConstraint::Rand, 30)
            .generate(5)
            .unwrap();
    let mut engine = Engine::new(&population, &config, 5);
    engine.obs_mut().enable_journal(1_000_000);
    engine.run_to_convergence().expect("converges");

    // Replay every structural event over an empty parent map; the
    // result must equal the engine's final parent map. This proves the
    // journal is complete (no unjournaled mutation paths).
    let mut parents: HashMap<PeerId, Member> = HashMap::new();
    let log = engine.obs().journal().expect("enabled");
    assert_eq!(log.dropped(), 0, "capacity must not truncate this test");
    for event in log.iter() {
        match *event {
            Event::Attach { child, parent, .. } => {
                let child = PeerId::new(child);
                let prev = parents.insert(child, node_to_member(parent));
                assert!(prev.is_none(), "attach over existing parent for {child}");
            }
            Event::Detach { child, parent, .. } => {
                let child = PeerId::new(child);
                let prev = parents.remove(&child);
                assert_eq!(
                    prev,
                    Some(node_to_member(parent)),
                    "detach mismatch for {child}"
                );
            }
            _ => {}
        }
    }
    for p in population.peer_ids() {
        assert_eq!(
            parents.get(&p).copied(),
            engine.overlay().parent(p),
            "replayed parent of {p} disagrees"
        );
    }
}

#[test]
fn trace_survives_churn_runs() {
    let population =
        lagover_workload::WorkloadSpec::new(lagover_workload::TopologicalConstraint::BiCorr, 40)
            .generate(9)
            .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);
    let mut engine = Engine::new(&population, &config, 9);
    engine.obs_mut().enable_journal(100_000);
    let mut churn = lagover_sim::BernoulliChurn::new(0.05, 0.3);
    for _ in 0..200 {
        engine.apply_churn(&mut churn);
        engine.step();
    }
    let log = engine.obs_mut().take_journal().expect("enabled");
    assert!(
        engine.obs().journal().is_none(),
        "take_journal disables journaling"
    );
    // Churn-caused detaches must appear.
    let churn_detaches = log
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Detach {
                    cause: lagover_core::DetachCause::Churn,
                    ..
                }
            )
        })
        .count();
    assert!(churn_detaches > 0, "no churn detaches traced");
}

#[test]
fn disabled_trace_costs_nothing_and_returns_none() {
    let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay);
    let mut engine = Engine::new(&population(), &config, 7);
    assert!(engine.obs().journal().is_none());
    engine.run_to_convergence().expect("converges");
    assert!(engine.obs_mut().take_journal().is_none());
}

#[test]
fn snapshot_restore_replays_bit_exactly() {
    let population =
        lagover_workload::WorkloadSpec::new(lagover_workload::TopologicalConstraint::BiCorr, 40)
            .generate(33)
            .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);
    let mut original = Engine::new(&population, &config, 33);
    let mut churn = lagover_sim::BernoulliChurn::new(0.02, 0.3);
    for _ in 0..25 {
        original.apply_churn(&mut churn);
        original.step();
    }
    // Checkpoint through JSON (prove the snapshot is persistable).
    let snapshot = original.snapshot();
    let json = snapshot.to_json_string();
    let restored_snapshot =
        lagover_core::EngineSnapshot::from_json_str(&json).expect("snapshot deserializes");
    assert_eq!(restored_snapshot.round(), original.round());
    let mut restored = Engine::restore(restored_snapshot);

    // The churn process is external state: give both the same fresh one.
    let mut churn_a = lagover_sim::BernoulliChurn::new(0.02, 0.3);
    let mut churn_b = lagover_sim::BernoulliChurn::new(0.02, 0.3);
    for _ in 0..25 {
        original.apply_churn(&mut churn_a);
        original.step();
        restored.apply_churn(&mut churn_b);
        restored.step();
    }
    assert_eq!(original.overlay(), restored.overlay(), "replay diverged");
    assert_eq!(original.counters(), restored.counters());
    assert_eq!(original.round(), restored.round());
}

#[test]
fn snapshot_preserves_overlay_view() {
    let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay);
    let mut engine = Engine::new(&population(), &config, 44);
    engine.run_to_convergence().expect("converges");
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.overlay(), engine.overlay());
}

#[test]
fn large_snapshot_round_trips_through_json() {
    // Parsing used to re-validate the whole remaining document for
    // every string character, so a checkpoint of this size took
    // minutes; it must read back in time linear in its length.
    let n = 20_000u32;
    let population = Population::new(
        4,
        (0..n)
            .map(|i| Constraints::new(i % 4, 1 + i % 20))
            .collect(),
    );
    let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
    let mut engine = Engine::new(&population, &config, 5);
    for _ in 0..3 {
        engine.step();
    }
    let json = engine.snapshot().to_json_string();
    let back = lagover_core::EngineSnapshot::from_json_str(&json).expect("snapshot deserializes");
    assert_eq!(back.round(), engine.round());
    assert_eq!(back.overlay(), engine.overlay());
    assert_eq!(
        back.to_json_string(),
        json,
        "re-serializes to the same bytes"
    );
}
