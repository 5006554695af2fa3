//! Ablations of the design choices DESIGN.md calls out (experiment
//! E11, beyond the paper's evaluation):
//!
//! * **source-contact timeout** — how aggressively parent-less peers
//!   fall back to the source;
//! * **maintenance damping** — the hybrid's knee-jerk protection;
//! * **source mode** — pull-only (the paper) vs push-capable;
//! * **churn model** — the paper's Bernoulli process vs heavy-tailed
//!   (Pareto) sessions at a matched online fraction.

use serde::{Deserialize, Serialize};

use lagover_core::{construct, Algorithm, ConstructionConfig, OracleKind, Run, SourceMode};
use lagover_sim::churn::{SessionChurn, SessionDistribution};
use lagover_sim::stats;
use lagover_workload::{ChurnSpec, TopologicalConstraint, WorkloadSpec};

use crate::table::TextTable;
use crate::Params;

/// One ablation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which knob was varied.
    pub knob: String,
    /// The knob's value.
    pub value: String,
    /// Median construction latency (no churn) or median steady-state
    /// fraction (churn-model rows).
    pub metric: f64,
    /// Which metric `metric` is.
    pub metric_name: String,
    /// Runs converged (where applicable).
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

/// The E11 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationReport {
    /// Parameters used.
    pub params: Params,
    /// All rows, grouped by knob.
    pub rows: Vec<AblationRow>,
}

impl AblationReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "knob".into(),
            "value".into(),
            "metric".into(),
            "result".into(),
            "converged".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.knob.clone(),
                r.value.clone(),
                r.metric_name.clone(),
                format!("{:.2}", r.metric),
                format!("{}/{}", r.converged_runs, r.total_runs),
            ]);
        }
        format!(
            "Design-choice ablations (Hybrid, Oracle Random-Delay)\n{}",
            t.render()
        )
    }

    /// All rows for one knob.
    pub fn knob(&self, knob: &str) -> Vec<&AblationRow> {
        self.rows.iter().filter(|r| r.knob == knob).collect()
    }
}

/// Median construction latency over `params.runs` fresh BiCorr
/// populations under `config`.
fn median_latency(params: &Params, config: &ConstructionConfig, setting: u64) -> (f64, usize) {
    let mut latencies = Vec::new();
    let mut converged = 0usize;
    for r in 0..params.runs {
        let seed = params.run_seed(setting, r as u64);
        let population = WorkloadSpec::new(TopologicalConstraint::BiCorr, params.peers)
            .generate(seed)
            .expect("repairable");
        let outcome = construct(&population, config, seed);
        if outcome.converged() {
            converged += 1;
        }
        latencies.push(outcome.latency_or(params.max_rounds as f64));
    }
    (stats::median(&latencies).expect("runs >= 1"), converged)
}

/// Runs all four ablations.
pub fn run(params: &Params) -> AblationReport {
    let mut rows = Vec::new();

    // 1. Source-contact timeout sweep.
    for (i, timeout) in [1u32, 2, 4, 8, 16].into_iter().enumerate() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_timeout_rounds(timeout)
            .with_max_rounds(params.max_rounds);
        let (median, converged) = median_latency(params, &config, 700 + i as u64);
        rows.push(AblationRow {
            knob: "timeout_rounds".into(),
            value: timeout.to_string(),
            metric: median,
            metric_name: "median latency".into(),
            converged_runs: converged,
            total_runs: params.runs,
        });
    }

    // 2. Maintenance damping sweep.
    for (i, damping) in [1u32, 3, 8].into_iter().enumerate() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_maintenance_timeout(damping)
            .with_max_rounds(params.max_rounds);
        let (median, converged) = median_latency(params, &config, 720 + i as u64);
        rows.push(AblationRow {
            knob: "maintenance_timeout".into(),
            value: damping.to_string(),
            metric: median,
            metric_name: "median latency".into(),
            converged_runs: converged,
            total_runs: params.runs,
        });
    }

    // 3. Pull-only vs push-capable source.
    for (i, mode) in [SourceMode::Pull, SourceMode::Push].into_iter().enumerate() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_source_mode(mode)
            .with_max_rounds(params.max_rounds);
        let (median, converged) = median_latency(params, &config, 740 + i as u64);
        rows.push(AblationRow {
            knob: "source_mode".into(),
            value: mode.to_string(),
            metric: median,
            metric_name: "median latency".into(),
            converged_runs: converged,
            total_runs: params.runs,
        });
    }

    // 4. Churn model: Bernoulli (paper) vs heavy-tailed sessions with a
    //    matched ~95% stationary online fraction.
    let horizon = params.max_rounds.min(1_000);
    for (i, model) in ["bernoulli(0.01/0.2)", "pareto sessions"]
        .into_iter()
        .enumerate()
    {
        let mut fractions = Vec::new();
        let mut converged = 0usize;
        for r in 0..params.runs {
            let seed = params.run_seed(760 + i as u64, r as u64);
            let population = WorkloadSpec::new(TopologicalConstraint::BiCorr, params.peers)
                .generate(seed)
                .expect("repairable");
            let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                .with_max_rounds(params.max_rounds);
            let outcome = if i == 0 {
                let mut churn = ChurnSpec::Paper.build();
                Run::new(&population, &config, seed)
                    .under_churn(churn.as_mut(), horizon)
                    .outcome
            } else {
                // Mean on-session 100 rounds (heavy-tailed), mean
                // off-session ~5 rounds: same ~95% availability as the
                // paper's rates, very different burst structure.
                let mut churn = SessionChurn::new(
                    SessionDistribution::Pareto {
                        x_min: 25.0,
                        alpha: 1.5,
                    },
                    SessionDistribution::Exponential { mean: 5.0 },
                );
                Run::new(&population, &config, seed)
                    .under_churn(&mut churn, horizon)
                    .outcome
            };
            if outcome.first_converged_at.is_some() {
                converged += 1;
            }
            fractions.push(outcome.steady_state_fraction);
        }
        rows.push(AblationRow {
            knob: "churn_model".into(),
            value: model.into(),
            metric: stats::median(&fractions).expect("runs >= 1"),
            metric_name: "steady-state fraction".into(),
            converged_runs: converged,
            total_runs: params.runs,
        });
    }

    AblationReport {
        params: *params,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_knobs_produce_rows() {
        let mut params = Params::quick();
        params.runs = 2;
        let report = run(&params);
        assert_eq!(report.knob("timeout_rounds").len(), 5);
        assert_eq!(report.knob("maintenance_timeout").len(), 3);
        assert_eq!(report.knob("source_mode").len(), 2);
        assert_eq!(report.knob("churn_model").len(), 2);
        assert!(report.render().contains("timeout_rounds"));
    }

    #[test]
    fn no_churn_ablations_converge_except_degenerate_timeout() {
        let mut params = Params::quick();
        params.runs = 2;
        let report = run(&params);
        for row in &report.rows {
            if row.metric_name == "median latency" {
                if row.knob == "timeout_rounds" && row.value == "1" {
                    // A one-round timeout starves the oracle entirely:
                    // every parent-less peer stampedes the source every
                    // round and exploration dies. The sweep documents
                    // this cliff; no convergence assertion here.
                    continue;
                }
                assert_eq!(
                    row.converged_runs, row.total_runs,
                    "{}={} failed to converge",
                    row.knob, row.value
                );
            }
        }
    }

    #[test]
    fn one_round_timeout_starves_the_oracle() {
        // The cliff documented above must actually be visible: the
        // timeout=1 setting performs far worse than timeout=4.
        let mut params = Params::quick();
        params.runs = 2;
        let report = run(&params);
        let rows = report.knob("timeout_rounds");
        let t1 = rows.iter().find(|r| r.value == "1").unwrap();
        let t4 = rows.iter().find(|r| r.value == "4").unwrap();
        assert!(
            t1.metric > t4.metric * 2.0,
            "timeout=1 ({}) should be far slower than timeout=4 ({})",
            t1.metric,
            t4.metric
        );
    }
}
