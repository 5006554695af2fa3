//! The paper's motivating scenario (§1): a popular but
//! resource-constrained RSS source — the "Boston Globe" problem.
//!
//! Constructs a LagOver over 120 subscribers, publishes a Poisson
//! stream of feed items, and compares the source's request rate against
//! the everyone-polls-directly baseline.
//!
//! ```text
//! cargo run --example rss_dissemination
//! ```

use lagover::core::{Algorithm, ConstructionConfig, Engine, OracleKind};
use lagover::feed::{compare_server_load, disseminate, DisseminationConfig, PublishSchedule};
use lagover::workload::{TopologicalConstraint, WorkloadSpec};

fn main() {
    let subscribers = 120;
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, subscribers)
        .generate(7)
        .expect("repairable");

    let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
    let mut engine = Engine::new(&population, &config, 7);
    let converged = engine.run_to_convergence().expect("converges");
    println!(
        "LagOver over {subscribers} subscribers built in {} rounds",
        converged.get()
    );

    // Publish blog-style updates: unpredictable timing, ~1 item per 6
    // time units, for 600 time units.
    let report = disseminate(
        engine.overlay(),
        &population,
        &DisseminationConfig {
            pull_interval: 1,
            rounds: 600,
            schedule: PublishSchedule::Poisson { mean_interval: 6.0 },
        },
        7,
    )
    .expect("a 600-round horizon fits in memory");
    println!(
        "published {} items; every subscriber received feed items with max staleness {:?}",
        report.items_published,
        report.max_staleness()
    );
    assert!(
        report.constraint_violations.is_empty(),
        "someone's declared tolerance was violated: {:?}",
        report.constraint_violations
    );

    // Staleness distribution across subscribers.
    let mut by_staleness = std::collections::BTreeMap::<u64, usize>::new();
    for node in &report.per_node {
        if let Some(max) = node.max_staleness {
            *by_staleness.entry(max).or_default() += 1;
        }
    }
    println!("\nmax-staleness distribution:");
    for (staleness, count) in by_staleness {
        println!(
            "  {staleness} time units: {count:3} subscribers  {}",
            "#".repeat(count)
        );
    }

    // The headline number.
    let load = compare_server_load(engine.overlay(), &population, 1);
    println!(
        "\nsource request rate:\n  direct polling : {:6.1} req/round ({} subscribers, each at its own deadline)\n  LagOver        : {:6.1} req/round ({} direct children)\n  reduction      : {:6.1}x",
        load.direct_polling_rate,
        load.consumers,
        load.lagover_rate,
        load.direct_children,
        load.reduction_factor,
    );
}
