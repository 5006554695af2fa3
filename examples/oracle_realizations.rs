//! Running construction against *deployable* oracles (§2.1.4):
//! the Chord-hosted directory (the OpenDHT/Syndic8 stand-in) and the
//! random-walk sampler on an unstructured overlay.
//!
//! ```text
//! cargo run --example oracle_realizations
//! ```

use lagover::core::{construct, Algorithm, ConstructionConfig, OracleKind, Run};
use lagover::experiments::oracle_impls::{DirectoryOracle, GossipWalkOracle};
use lagover::sim::SimRng;
use lagover::workload::{TopologicalConstraint, WorkloadSpec};

fn main() {
    let peers = 80;
    let seed = 3;
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, peers)
        .generate(seed)
        .expect("repairable");
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(10_000);

    println!("{peers} peers, Rand constraints, Hybrid algorithm\n");

    // 1. The in-memory reference oracle (what the paper simulates).
    let reference = construct(&population, &config, seed);
    println!(
        "Random-Delay (reference)     : converged in {:>4} rounds",
        reference.converged_at.expect("converges")
    );

    // 2. The same semantics served from a Chord ring directory with
    //    TTL-expiring records and background refresh traffic.
    let mut rng = SimRng::seed_from(seed).split(1);
    let directory =
        DirectoryOracle::new(OracleKind::RandomDelay, 32, 4 * peers as u64, 4, &mut rng);
    let over_dht = Run::new(&population, &config, seed)
        .oracle(Box::new(directory))
        .construct()
        .outcome;
    println!(
        "Random-Delay (DHT directory) : converged in {:>4} rounds",
        over_dht.converged_at.expect("converges")
    );

    // 3. No information at all: Metropolis–Hastings random walks over a
    //    gossip membership graph (Oracle Random's realization).
    let random_config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::Random).with_max_rounds(10_000);
    let mut rng = SimRng::seed_from(seed).split(2);
    let walker = GossipWalkOracle::new(peers, 6, 10, &mut rng);
    let over_gossip = Run::new(&population, &random_config, seed)
        .oracle(Box::new(walker))
        .construct()
        .outcome;
    println!(
        "Random (gossip walk)         : converged in {:>4} rounds",
        over_gossip.converged_at.expect("converges")
    );

    println!(
        "\noracle traffic (reference run): {} queries, {} returned nothing",
        reference.counters.oracle_queries, reference.counters.oracle_misses
    );
    println!(
        "oracle traffic (gossip run)   : {} queries, {} returned nothing",
        over_gossip.counters.oracle_queries, over_gossip.counters.oracle_misses
    );
}
