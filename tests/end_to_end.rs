//! End-to-end integration: workload generation → construction → feed
//! dissemination → server-load accounting, across every workload class,
//! both algorithms, and the recommended oracle.

use lagover::core::{Algorithm, ConstructionConfig, Engine, OracleKind, PeerId};
use lagover::feed::{compare_server_load, disseminate, DisseminationConfig, PublishSchedule};
use lagover::workload::{TopologicalConstraint, WorkloadSpec};

#[test]
fn every_workload_converges_and_delivers_within_constraints() {
    for class in TopologicalConstraint::PAPER_CLASSES {
        for algorithm in [Algorithm::Greedy, Algorithm::Hybrid] {
            let population = WorkloadSpec::new(class, 60)
                .generate(11)
                .expect("repairable");
            let config =
                ConstructionConfig::new(algorithm, OracleKind::RandomDelay).with_max_rounds(5_000);
            let mut engine = Engine::new(&population, &config, 11);
            let converged = engine.run_to_convergence();
            assert!(
                converged.is_some(),
                "{algorithm} failed to converge on {class}"
            );
            engine.overlay().validate().unwrap();

            // The tree actually delivers every update within each
            // consumer's declared tolerance.
            let report = disseminate(
                engine.overlay(),
                &population,
                &DisseminationConfig {
                    pull_interval: 1,
                    rounds: 100,
                    schedule: PublishSchedule::Periodic { interval: 3 },
                },
                11,
            )
            .expect("short horizon");
            assert!(
                report.constraint_violations.is_empty(),
                "{algorithm}/{class}: staleness violations {:?}",
                report.constraint_violations
            );
            for node in &report.per_node {
                assert!(node.received > 0, "{class}: peer {} starved", node.peer);
            }

            // And the source serves at most its fanout in pulls/round.
            let load = compare_server_load(engine.overlay(), &population, 1);
            assert!(load.lagover_rate <= population.source_fanout() as f64 + 1e-9);
            assert!(load.reduction_factor > 1.0, "{class}: no load reduction");
        }
    }
}

#[test]
fn constructed_depth_never_exceeds_latency_constraint() {
    let population = WorkloadSpec::new(TopologicalConstraint::BiCorr, 80)
        .generate(3)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(5_000);
    let mut engine = Engine::new(&population, &config, 3);
    engine.run_to_convergence().expect("converges");
    for p in population.peer_ids() {
        let delay = engine.overlay().delay(p).expect("all rooted");
        assert!(
            delay <= population.latency(p),
            "{p}: delay {delay} > l {}",
            population.latency(p)
        );
    }
}

#[test]
fn counters_tell_a_consistent_story() {
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, 50)
        .generate(9)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay).with_max_rounds(5_000);
    let outcome = lagover::core::construct(&population, &config, 9);
    assert!(outcome.converged());
    let c = outcome.counters;
    // Everyone attached at least once.
    assert!(c.attaches >= 50);
    // Attach/detach balance: peers currently attached = attaches - detaches.
    assert_eq!(c.attaches - c.detaches, 50);
    // Oracle delay-filtering misses early (nothing rooted yet).
    assert!(c.oracle_misses > 0);
    assert!(c.oracle_queries >= c.oracle_misses);
}

#[test]
fn push_capable_source_also_converges() {
    use lagover::core::SourceMode;
    let population = WorkloadSpec::new(TopologicalConstraint::BiUnCorr, 60)
        .generate(21)
        .unwrap();
    let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
        .with_source_mode(SourceMode::Push)
        .with_max_rounds(5_000);
    let outcome = lagover::core::construct(&population, &config, 21);
    assert!(outcome.converged(), "push-mode construction failed");
}

#[test]
fn facade_reexports_are_wired() {
    // Each substrate crate is reachable through the facade.
    let mut rng = lagover::sim::SimRng::seed_from(1);
    let ring = lagover::dht::Ring::bootstrap(8, &mut rng);
    assert_eq!(ring.len(), 8);
    let graph = lagover::gossip::MembershipGraph::random_connected(8, 3, &mut rng);
    assert!(graph.is_connected());
    let space =
        lagover::net::LatencySpace::generate(8, &lagover::net::LatencyConfig::default(), &mut rng);
    assert!(space.rtt(0, 1) > 0.0);
    let _ = PeerId::new(0);
}
