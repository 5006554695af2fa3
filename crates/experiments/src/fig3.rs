//! Figure 3 — impact of the Oracle on (greedy) construction.
//!
//! §5.2: 120 peers, the four workload classes, no churn, Oracles O1
//! (Random), O2a (Random-Capacity), O2b (Random-Delay-Capacity), O3
//! (Random-Delay); median construction latency of `runs` repetitions.
//! The paper's findings this runner must reproduce:
//!
//! * O3 has the best performance in many settings and good performance
//!   overall;
//! * O2a/O2b "often not only take long time, but sometimes simply do
//!   not converge" — capacity filtering starves reconfiguration;
//! * O1 converges but slowly (no information at all).

use serde::{Deserialize, Serialize};

use lagover_core::{construct, parallel_runs, Algorithm, ConstructionConfig, OracleKind};
use lagover_sim::stats;
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// One (workload, oracle) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleCell {
    /// Workload label.
    pub workload: String,
    /// Oracle label (O1/O2a/O2b/O3).
    pub oracle: String,
    /// Median construction latency over the runs, with non-converged
    /// runs counted at the round cap.
    pub median_latency: f64,
    /// Runs that converged.
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

/// The full Figure 3 grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Report {
    /// Parameters used.
    pub params: Params,
    /// Which algorithm the grid was run with (the paper shows Greedy and
    /// reports the same ordering for Hybrid).
    pub algorithm: String,
    /// All cells, workload-major.
    pub cells: Vec<OracleCell>,
}

impl Fig3Report {
    /// Renders as a workload x oracle median-latency matrix.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload".into(),
            "O1 Random".into(),
            "O2a Rnd-Cap".into(),
            "O2b Rnd-Del-Cap".into(),
            "O3 Rnd-Delay".into(),
        ]);
        for class in TopologicalConstraint::PAPER_CLASSES {
            let label = class.to_string();
            let mut row = vec![label.clone()];
            for kind in OracleKind::ALL {
                let cell = self
                    .cells
                    .iter()
                    .find(|c| c.workload == label && c.oracle == kind.label())
                    .expect("grid is complete");
                let text = if cell.converged_runs == cell.total_runs {
                    format!("{:.0}", cell.median_latency)
                } else {
                    format!(
                        "{:.0} ({}/{} conv)",
                        cell.median_latency, cell.converged_runs, cell.total_runs
                    )
                };
                row.push(text);
            }
            t.row(row);
        }
        format!(
            "Figure 3 — median construction latency by Oracle ({}, {} peers, no churn, median of {})\n{}",
            self.algorithm, self.params.peers, self.params.runs, t.render()
        )
    }

    /// The cell for a given workload and oracle.
    pub fn cell(&self, class: TopologicalConstraint, kind: OracleKind) -> &OracleCell {
        self.cells
            .iter()
            .find(|c| c.workload == class.to_string() && c.oracle == kind.label())
            .expect("grid is complete")
    }
}

/// Runs the full grid with the given algorithm.
pub fn run_with_algorithm(params: &Params, algorithm: Algorithm) -> Fig3Report {
    let mut cells = Vec::new();
    for (wi, class) in TopologicalConstraint::PAPER_CLASSES.iter().enumerate() {
        for (oi, kind) in OracleKind::ALL.iter().enumerate() {
            // Seed-per-run keeps the parallel map bit-identical to the
            // sequential loop.
            let results = parallel_runs(params.runs, |r| {
                let seed = params.run_seed((wi * 4 + oi) as u64, r as u64);
                let population = satisfiable_population(*class, params.peers, seed);
                let config =
                    ConstructionConfig::new(algorithm, *kind).with_max_rounds(params.max_rounds);
                let outcome = construct(&population, &config, seed);
                (
                    outcome.converged(),
                    outcome.latency_or(params.max_rounds as f64),
                )
            });
            let converged = results.iter().filter(|(c, _)| *c).count();
            let latencies: Vec<f64> = results.iter().map(|&(_, l)| l).collect();
            cells.push(OracleCell {
                workload: class.to_string(),
                oracle: kind.label().to_string(),
                median_latency: stats::median(&latencies).expect("runs >= 1"),
                converged_runs: converged,
                total_runs: params.runs,
            });
        }
    }
    Fig3Report {
        params: *params,
        algorithm: algorithm.to_string(),
        cells,
    }
}

/// Runs the paper's Figure 3 (Greedy).
pub fn run(params: &Params) -> Fig3Report {
    run_with_algorithm(params, Algorithm::Greedy)
}

/// Observes the grid's (first workload, Oracle Random-Delay) cell with
/// the `lagover-obs` pipeline enabled — the same seeds [`run`] uses for
/// that cell, merged over `params.runs` repetitions.
pub fn observed(params: &Params) -> lagover_obs::ObsReport {
    let class = TopologicalConstraint::PAPER_CLASSES[0];
    let kind = OracleKind::RandomDelay;
    let oi = OracleKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("random-delay is a reference oracle");
    crate::obs_exp::observe_construction(
        &format!("fig3 {class} greedy/{} n={}", kind.label(), params.peers),
        params,
        oi as u64,
        |seed| satisfiable_population(class, params.peers, seed),
        || ConstructionConfig::new(Algorithm::Greedy, kind).with_max_rounds(params.max_rounds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::fmt_latency;

    #[test]
    fn grid_is_complete_and_renders() {
        let report = run(&Params::quick());
        assert_eq!(report.cells.len(), 16);
        let text = report.render();
        assert!(text.contains("O3 Rnd-Delay"));
        let _ = fmt_latency(Some(1), 2); // keep the table helper exercised
    }

    #[test]
    fn random_delay_beats_random_on_average() {
        // The paper's central Figure 3 ordering, checked on the quick
        // scale: O3's mean median-latency across workloads is below
        // O1's.
        let mut params = Params::quick();
        params.runs = 3;
        let report = run(&params);
        let mean_of = |kind: OracleKind| -> f64 {
            TopologicalConstraint::PAPER_CLASSES
                .iter()
                .map(|c| report.cell(*c, kind).median_latency)
                .sum::<f64>()
                / 4.0
        };
        let o1 = mean_of(OracleKind::Random);
        let o3 = mean_of(OracleKind::RandomDelay);
        assert!(
            o3 < o1,
            "Random-Delay ({o3:.0}) should beat Random ({o1:.0})"
        );
    }
}
