//! Live dissemination under churn (experiment E14, extension): the
//! metric a subscriber actually feels — what fraction of feed items
//! reach them, and how stale — while the overlay is simultaneously
//! being churned and repaired.
//!
//! Sweeps the per-round departure probability (rejoin fixed at the
//! paper's 0.2) and compares the two construction algorithms driving
//! the repair.

use serde::{Deserialize, Serialize};

use lagover_core::{Algorithm, ConstructionConfig, Engine, OracleKind};
use lagover_feed::{run_live, LiveConfig};
use lagover_sim::{stats, BernoulliChurn};
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// One (churn rate, algorithm) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LivenessRow {
    /// Per-round departure probability.
    pub p_off: f64,
    /// Repair algorithm.
    pub algorithm: String,
    /// Median delivery ratio.
    pub delivery_ratio: f64,
    /// Median mean-staleness of deliveries.
    pub mean_staleness: f64,
    /// Median p99 staleness.
    pub p99_staleness: f64,
    /// Median mean satisfied fraction over the run.
    pub satisfied_fraction: f64,
}

/// The E14 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LivenessReport {
    /// Parameters used.
    pub params: Params,
    /// Workload label.
    pub workload: String,
    /// Rows, churn-rate-major.
    pub rows: Vec<LivenessRow>,
}

impl LivenessReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "p_off".into(),
            "algorithm".into(),
            "delivery".into(),
            "mean staleness".into(),
            "p99 staleness".into(),
            "satisfied".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{:.3}", r.p_off),
                r.algorithm.clone(),
                format!("{:.3}", r.delivery_ratio),
                format!("{:.1}", r.mean_staleness),
                format!("{:.0}", r.p99_staleness),
                format!("{:.3}", r.satisfied_fraction),
            ]);
        }
        format!(
            "Live dissemination under churn — delivery as experienced by subscribers ({})\n{}",
            self.workload,
            t.render()
        )
    }

    /// Finds a row.
    pub fn row(&self, p_off: f64, algorithm: Algorithm) -> &LivenessRow {
        self.rows
            .iter()
            .find(|r| (r.p_off - p_off).abs() < 1e-12 && r.algorithm == algorithm.to_string())
            .expect("complete grid")
    }
}

/// Runs the sweep.
pub fn run(params: &Params) -> LivenessReport {
    let class = TopologicalConstraint::Rand;
    let rates = [0.0, 0.005, 0.01, 0.02, 0.05];
    let mut rows = Vec::new();
    for (ri, &p_off) in rates.iter().enumerate() {
        for algorithm in [Algorithm::Greedy, Algorithm::Hybrid] {
            let mut delivery = Vec::new();
            let mut staleness = Vec::new();
            let mut p99 = Vec::new();
            let mut satisfied = Vec::new();
            for r in 0..params.runs {
                let seed = params.run_seed(1_000 + ri as u64, r as u64);
                let population = satisfiable_population(class, params.peers, seed);
                let config = ConstructionConfig::new(algorithm, OracleKind::RandomDelay)
                    .with_max_rounds(params.max_rounds);
                let mut engine = Engine::new(&population, &config, seed);
                let outcome = run_live(
                    &mut engine,
                    &mut BernoulliChurn::new(p_off, 0.2),
                    &LiveConfig {
                        rounds: 600,
                        ..LiveConfig::default()
                    },
                    seed,
                )
                .expect("a 600-round horizon fits in memory");
                delivery.push(outcome.delivery_ratio);
                staleness.push(outcome.mean_staleness);
                p99.push(outcome.p99_staleness.unwrap_or(0) as f64);
                satisfied.push(outcome.mean_satisfied_fraction);
            }
            rows.push(LivenessRow {
                p_off,
                algorithm: algorithm.to_string(),
                delivery_ratio: stats::median(&delivery).expect("runs >= 1"),
                mean_staleness: stats::median(&staleness).expect("runs >= 1"),
                p99_staleness: stats::median(&p99).expect("runs >= 1"),
                satisfied_fraction: stats::median(&satisfied).expect("runs >= 1"),
            });
        }
    }
    LivenessReport {
        params: *params,
        workload: class.to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_degrades_monotonically_ish_with_churn() {
        let mut params = Params::quick();
        params.runs = 2;
        let report = run(&params);
        assert_eq!(report.rows.len(), 10);
        for algorithm in [Algorithm::Greedy, Algorithm::Hybrid] {
            let calm = report.row(0.0, algorithm);
            let stormy = report.row(0.05, algorithm);
            assert!(
                calm.delivery_ratio >= stormy.delivery_ratio,
                "{algorithm}: churn improved delivery?!"
            );
            assert!(calm.delivery_ratio > 0.95, "{algorithm} calm delivery low");
            assert!(stormy.delivery_ratio > 0.4, "{algorithm} collapsed");
        }
        assert!(report.render().contains("delivery"));
    }
}
