//! Failure injection and churn-recovery integration tests.

use lagover::core::{Algorithm, ConstructionConfig, Engine, FaultScenario, OracleKind, Plan, Run};
use lagover::sim::{BernoulliChurn, ChurnProcess, FaultPlan, SimRng, Transitions};
use lagover::workload::{TopologicalConstraint, WorkloadSpec};

/// Kills an explicit set of peers once, then does nothing.
struct KillOnce {
    victims: Vec<usize>,
    fired: bool,
}

impl ChurnProcess for KillOnce {
    fn step(&mut self, online: &mut [bool], _rng: &mut SimRng) -> Transitions {
        if self.fired {
            return Transitions::default();
        }
        self.fired = true;
        let mut t = Transitions::default();
        for &v in &self.victims {
            if online[v] {
                online[v] = false;
                t.departures += 1;
            }
        }
        t
    }
}

/// Brings everyone back online.
struct ReviveAll;

impl ChurnProcess for ReviveAll {
    fn step(&mut self, online: &mut [bool], _rng: &mut SimRng) -> Transitions {
        let mut t = Transitions::default();
        for o in online.iter_mut() {
            if !*o {
                *o = true;
                t.arrivals += 1;
            }
        }
        t
    }
}

#[test]
fn overlay_recovers_after_all_source_children_crash() {
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, 50)
        .generate(5)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);
    let mut engine = Engine::new(&population, &config, 5);
    engine.run_to_convergence().expect("initial convergence");

    // Decapitate: every direct child of the source leaves at once.
    let victims: Vec<usize> = engine
        .overlay()
        .source_children()
        .iter()
        .map(|p| p.index())
        .collect();
    assert!(!victims.is_empty());
    engine.apply_churn(&mut KillOnce {
        victims,
        fired: false,
    });
    assert!(!engine.is_converged(), "decapitation must break the tree");

    // The survivors rebuild a complete LagOver.
    let recovered = engine.run_to_convergence();
    assert!(recovered.is_some(), "no recovery after decapitation");
    engine.overlay().validate().unwrap();
}

#[test]
fn returning_peers_are_reintegrated() {
    let population = WorkloadSpec::new(TopologicalConstraint::BiUnCorr, 40)
        .generate(8)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);
    let mut engine = Engine::new(&population, &config, 8);
    engine.run_to_convergence().expect("initial convergence");

    // A third of the population churns out…
    let victims: Vec<usize> = (0..population.len()).step_by(3).collect();
    engine.apply_churn(&mut KillOnce {
        victims: victims.clone(),
        fired: false,
    });
    engine.run_to_convergence().expect("survivors re-converge");

    // …and comes back: the full population must converge again.
    engine.apply_churn(&mut ReviveAll);
    assert_eq!(engine.online_count(), population.len());
    let full = engine.run_to_convergence();
    assert!(full.is_some(), "returning peers were not reintegrated");
}

#[test]
fn paper_churn_sustains_high_satisfaction_on_all_workloads() {
    for class in TopologicalConstraint::PAPER_CLASSES {
        let population = WorkloadSpec::new(class, 60).generate(13).unwrap();
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(10_000);
        let outcome = Run::new(&population, &config, 13)
            .perturb(&Plan::churn(BernoulliChurn::paper()), 600)
            .outcome;
        assert!(
            outcome.steady_state_fraction() > 0.6,
            "{class}: steady state {} too low under paper churn",
            outcome.steady_state_fraction()
        );
        assert!(outcome.counters.churn_departures > 0);
        assert!(outcome.counters.churn_arrivals > 0);
    }
}

#[test]
fn silent_crashes_heal_end_to_end_through_the_facade() {
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, 50)
        .generate(21)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);
    let scenario = FaultScenario {
        crash_fraction: 0.2,
        message_loss: 0.05,
        blackout_rounds: 15,
    };
    let outcome = Run::new(&population, &config, 21)
        .perturb(&Plan::faults(scenario), 5_000)
        .outcome;
    assert!(!outcome.victims.is_empty(), "nothing crashed");
    assert!(
        outcome.came_clean(),
        "compound fault scenario did not heal: {outcome:?}"
    );
    assert!(
        outcome.stale_rounds >= 1,
        "silent crashes must leave a staleness window"
    );
    assert!(outcome.counters.failure_detections >= 1);
}

#[test]
fn oracle_blackout_alone_only_delays_construction() {
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, 40)
        .generate(23)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);
    let mut engine = Engine::new(&population, &config, 23);
    engine.set_faults(FaultPlan::none().with_blackout(0, 40));
    let converged = engine.run_to_convergence();
    assert!(
        converged.is_some(),
        "blackout permanently broke construction"
    );
    assert!(
        engine.counters().oracle_outages > 0,
        "blackout never observed"
    );
}

#[test]
fn faultless_scenario_is_byte_identical_to_plain_construction() {
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, 40)
        .generate(29)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);
    let mut plain = Engine::new(&population, &config, 29);
    let plain_converged = plain.run_to_convergence().map(|r| r.get());
    assert!(plain_converged.is_some());
    let outcome = Run::new(&population, &config, 29)
        .perturb(&Plan::faults(FaultScenario::none()), 100)
        .outcome;
    assert_eq!(
        outcome.converged_at, plain_converged,
        "an empty fault plan changed construction"
    );
    assert!(outcome.victims.is_empty());
    assert_eq!(outcome.orphan_peak, 0);
    assert_eq!(outcome.stale_rounds, 0);
}

#[test]
fn repeated_decapitation_cannot_corrupt_state() {
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, 30)
        .generate(17)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay).with_max_rounds(10_000);
    let mut engine = Engine::new(&population, &config, 17);
    for wave in 0..8 {
        engine.run_to_convergence();
        let victims: Vec<usize> = engine
            .overlay()
            .source_children()
            .iter()
            .map(|p| p.index())
            .collect();
        engine.apply_churn(&mut KillOnce {
            victims,
            fired: false,
        });
        engine.overlay().validate().unwrap_or_else(|e| {
            panic!("wave {wave}: corrupted overlay: {e}");
        });
        engine.apply_churn(&mut ReviveAll);
    }
    assert!(engine.run_to_convergence().is_some());
}
