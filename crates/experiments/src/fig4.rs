//! Figure 4 — Greedy vs Hybrid, bimodal-correlated constraints, with
//! and without churn.
//!
//! §5.3: the BiCorr workload (strict peers are weak — the systematic
//! conflict of interest), the paper's churn model (depart w.p. 0.01,
//! rejoin w.p. 0.2, everyone initially online), and the finding that
//! *"both without and under churn, for various workloads, the Hybrid
//! algorithm outperforms the Greedy algorithm."*

use serde::{Deserialize, Serialize};

use lagover_core::{construct, parallel_runs, Algorithm, ConstructionConfig, OracleKind, Run};
use lagover_sim::stats;
use lagover_sim::stats::mann_whitney_less;
use lagover_workload::{ChurnSpec, TopologicalConstraint, WorkloadSpec};

use crate::table::TextTable;
use crate::Params;

/// One (algorithm, churn) measurement row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Greedy or Hybrid.
    pub algorithm: String,
    /// Churn setting label.
    pub churn: String,
    /// Median construction latency (first round with every online peer
    /// satisfied), non-converged runs counted at the cap.
    pub median_latency: f64,
    /// Runs reaching full satisfaction at least once.
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
    /// Median steady-state satisfied fraction (final quarter of the
    /// run); 1.0 for converged no-churn runs.
    pub steady_state_fraction: f64,
}

/// The full Figure 4 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Report {
    /// Parameters used.
    pub params: Params,
    /// Workload label (BiCorr in the paper; parameterized for
    /// ablations).
    pub workload: String,
    /// Rounds simulated per churn run.
    pub churn_rounds: u64,
    /// The four rows: {Greedy, Hybrid} x {no churn, churn}.
    pub rows: Vec<Fig4Row>,
    /// One-sided Mann-Whitney p-value that the hybrid's no-churn
    /// latencies are stochastically smaller than the greedy's (`None`
    /// when the samples are degenerate).
    pub hybrid_faster_p: Option<f64>,
}

impl Fig4Report {
    /// Renders as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "algorithm".into(),
            "churn".into(),
            "median latency".into(),
            "converged".into(),
            "steady-state".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                r.churn.clone(),
                format!("{:.0}", r.median_latency),
                format!("{}/{}", r.converged_runs, r.total_runs),
                format!("{:.3}", r.steady_state_fraction),
            ]);
        }
        let significance = self
            .hybrid_faster_p
            .map(|p| format!("Mann-Whitney (hybrid faster than greedy, no churn): p = {p:.4}\n"))
            .unwrap_or_default();
        format!(
            "Figure 4 — Greedy vs Hybrid on {} ({} peers, median of {})\n{}{}",
            self.workload,
            self.params.peers,
            self.params.runs,
            t.render(),
            significance
        )
    }

    /// Finds a row.
    pub fn row(&self, algorithm: Algorithm, with_churn: bool) -> &Fig4Row {
        let churn = if with_churn {
            "churn(0.01/0.2)"
        } else {
            "no churn"
        };
        self.rows
            .iter()
            .find(|r| r.algorithm == algorithm.to_string() && r.churn == churn)
            .expect("all four rows present")
    }
}

/// Runs Figure 4 on the given workload class (the paper uses BiCorr).
pub fn run_on(params: &Params, class: TopologicalConstraint) -> Fig4Report {
    let churn_rounds = params.max_rounds.min(1_500);
    let mut rows = Vec::new();
    let mut no_churn_latencies: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (ai, algorithm) in [Algorithm::Greedy, Algorithm::Hybrid]
        .into_iter()
        .enumerate()
    {
        for (ci, churn_spec) in [ChurnSpec::None, ChurnSpec::Paper].into_iter().enumerate() {
            // Each run derives everything from its own seed (`ChurnSpec`
            // is `Copy`, so each run builds a private churn process), so
            // the parallel map is bit-identical to the sequential loop.
            let results = parallel_runs(params.runs, |r| {
                let seed = params.run_seed((ai * 2 + ci) as u64 + 100, r as u64);
                let population = WorkloadSpec::new(class, params.peers)
                    .generate(seed)
                    .expect("repairable");
                let config = ConstructionConfig::new(algorithm, OracleKind::RandomDelay)
                    .with_max_rounds(params.max_rounds);
                match churn_spec {
                    ChurnSpec::None => {
                        let outcome = construct(&population, &config, seed);
                        (
                            outcome.converged(),
                            outcome.latency_or(params.max_rounds as f64),
                            outcome.final_satisfied_fraction,
                        )
                    }
                    _ => {
                        let mut churn = churn_spec.build();
                        let outcome = Run::new(&population, &config, seed)
                            .under_churn(churn.as_mut(), churn_rounds)
                            .outcome;
                        (
                            outcome.first_converged_at.is_some(),
                            outcome
                                .first_converged_at
                                .map(|v| v as f64)
                                .unwrap_or(churn_rounds as f64),
                            outcome.steady_state_fraction,
                        )
                    }
                }
            });
            let converged = results.iter().filter(|(c, _, _)| *c).count();
            let latencies: Vec<f64> = results.iter().map(|&(_, l, _)| l).collect();
            let steady: Vec<f64> = results.iter().map(|&(_, _, s)| s).collect();
            if churn_spec == ChurnSpec::None {
                no_churn_latencies[ai].extend_from_slice(&latencies);
            }
            rows.push(Fig4Row {
                algorithm: algorithm.to_string(),
                churn: churn_spec.to_string(),
                median_latency: stats::median(&latencies).expect("runs >= 1"),
                converged_runs: converged,
                total_runs: params.runs,
                steady_state_fraction: stats::median(&steady).expect("runs >= 1"),
            });
        }
    }
    Fig4Report {
        params: *params,
        workload: class.to_string(),
        churn_rounds,
        rows,
        hybrid_faster_p: mann_whitney_less(&no_churn_latencies[1], &no_churn_latencies[0])
            .map(|mw| mw.p_less),
    }
}

/// Runs the paper's Figure 4 (BiCorr).
pub fn run(params: &Params) -> Fig4Report {
    run_on(params, TopologicalConstraint::BiCorr)
}

/// Observes the (Hybrid, no churn) BiCorr cell with the `lagover-obs`
/// pipeline enabled — the same seeds [`run`] uses for that cell, merged
/// over `params.runs` repetitions.
pub fn observed(params: &Params) -> lagover_obs::ObsReport {
    let class = TopologicalConstraint::BiCorr;
    // Salt of the (ai = 1 Hybrid, ci = 0 no-churn) cell in `run_on`:
    // (ai * 2 + ci) + 100.
    let salt = 102;
    crate::obs_exp::observe_construction(
        &format!("fig4 {class} hybrid/no-churn n={}", params.peers),
        params,
        salt,
        |seed| {
            WorkloadSpec::new(class, params.peers)
                .generate(seed)
                .expect("repairable")
        },
        || {
            ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                .with_max_rounds(params.max_rounds)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_all_four_rows() {
        let report = run(&Params::quick());
        assert_eq!(report.rows.len(), 4);
        let _ = report.row(Algorithm::Greedy, false);
        let _ = report.row(Algorithm::Hybrid, true);
        assert!(report.render().contains("Hybrid"));
    }

    #[test]
    fn no_churn_runs_converge_fully() {
        let report = run(&Params::quick());
        for algorithm in [Algorithm::Greedy, Algorithm::Hybrid] {
            let row = report.row(algorithm, false);
            assert_eq!(
                row.converged_runs, row.total_runs,
                "{algorithm} failed to converge on BiCorr without churn"
            );
            assert_eq!(row.steady_state_fraction, 1.0);
        }
    }

    #[test]
    fn churn_keeps_most_peers_satisfied() {
        let report = run(&Params::quick());
        let row = report.row(Algorithm::Hybrid, true);
        assert!(
            row.steady_state_fraction > 0.6,
            "steady state {} collapsed under churn",
            row.steady_state_fraction
        );
    }
}
