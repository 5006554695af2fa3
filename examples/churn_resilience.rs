//! Construction and self-repair under membership dynamics (§5.3).
//!
//! Runs the paper's churn model (depart w.p. 0.01/round, rejoin
//! w.p. 0.2/round) over a bimodal-correlated population and prints the
//! satisfied-fraction timeline for both algorithms.
//!
//! ```text
//! cargo run --example churn_resilience
//! ```

use lagover::core::{Algorithm, ConstructionConfig, OracleKind, Run};
use lagover::workload::{ChurnSpec, TopologicalConstraint, WorkloadSpec};

fn sparkline(ys: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    ys.iter()
        .map(|&y| BARS[((y.clamp(0.0, 1.0) * 7.0).round()) as usize])
        .collect()
}

fn main() {
    let rounds = 600;
    let population = WorkloadSpec::new(TopologicalConstraint::BiCorr, 120)
        .generate(42)
        .expect("repairable");
    println!(
        "120 peers, BiCorr constraints (strict peers are weak), churn 0.01/0.2, {rounds} rounds\n"
    );

    for algorithm in [Algorithm::Greedy, Algorithm::Hybrid] {
        let config =
            ConstructionConfig::new(algorithm, OracleKind::RandomDelay).with_max_rounds(10_000);
        let mut churn = ChurnSpec::Paper.build();
        let outcome = Run::new(&population, &config, 42)
            .under_churn(churn.as_mut(), rounds)
            .outcome;

        // Downsample the series to an 80-character sparkline.
        let ys: Vec<f64> = outcome.satisfied_series.ys().to_vec();
        let step = (ys.len() / 80).max(1);
        let sampled: Vec<f64> = ys.iter().copied().step_by(step).collect();

        println!("{algorithm}:");
        println!("  {}", sparkline(&sampled));
        println!(
            "  first fully satisfied: {}",
            outcome
                .first_converged_at
                .map(|r| format!("round {r}"))
                .unwrap_or_else(|| "never".into())
        );
        println!(
            "  steady-state satisfied fraction: {:.3}",
            outcome.steady_state_fraction
        );
        println!(
            "  churn events: {} departures, {} rejoins; {} maintenance detaches\n",
            outcome.counters.churn_departures,
            outcome.counters.churn_arrivals,
            outcome.counters.maintenance_detaches,
        );
    }
}
