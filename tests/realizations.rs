//! Oracle realizations over the DHT and gossip substrates, end to end.

use lagover::core::{Algorithm, ConstructionConfig, OracleKind, Run};
use lagover::experiments::oracle_impls::{DirectoryOracle, GossipWalkOracle};
use lagover::sim::SimRng;
use lagover::workload::{TopologicalConstraint, WorkloadSpec};

#[test]
fn construction_over_dht_directory_oracle_converges() {
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, 50)
        .generate(2)
        .unwrap();
    for algorithm in [Algorithm::Greedy, Algorithm::Hybrid] {
        let config =
            ConstructionConfig::new(algorithm, OracleKind::RandomDelay).with_max_rounds(8_000);
        let mut rng = SimRng::seed_from(2).split(7);
        let oracle = DirectoryOracle::new(OracleKind::RandomDelay, 32, 200, 4, &mut rng);
        let outcome = Run::new(&population, &config, 2)
            .oracle(Box::new(oracle))
            .construct()
            .outcome;
        assert!(
            outcome.converged(),
            "{algorithm} over the directory oracle failed to converge"
        );
    }
}

#[test]
fn construction_over_gossip_walk_oracle_converges() {
    let population = WorkloadSpec::new(TopologicalConstraint::BiUnCorr, 50)
        .generate(4)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::Random).with_max_rounds(8_000);
    let mut rng = SimRng::seed_from(4).split(9);
    let oracle = GossipWalkOracle::new(50, 5, 10, &mut rng);
    let outcome = Run::new(&population, &config, 4)
        .oracle(Box::new(oracle))
        .construct()
        .outcome;
    assert!(outcome.converged(), "gossip-walk oracle failed to converge");
}

#[test]
fn directory_oracle_with_tiny_ttl_still_makes_progress() {
    // Aggressive expiry: answers are frequently missing, but the
    // timeout path to the source keeps construction alive.
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, 30)
        .generate(6)
        .unwrap();
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);
    let mut rng = SimRng::seed_from(6).split(3);
    let oracle = DirectoryOracle::new(OracleKind::RandomDelay, 16, 5, 1, &mut rng);
    let outcome = Run::new(&population, &config, 6)
        .oracle(Box::new(oracle))
        .construct()
        .outcome;
    assert!(
        outcome.final_satisfied_fraction > 0.8,
        "tiny-TTL directory collapsed construction: {}",
        outcome.final_satisfied_fraction
    );
}
