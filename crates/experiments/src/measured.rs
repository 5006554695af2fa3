//! Measured-substrate variant of Figures 3/4 (extension, experiment
//! E17).
//!
//! The paper's evaluation runs on synthetic workloads; its latency
//! model is implicit in Oracle Random-Delay's ranking. This extension
//! re-runs the oracle comparison (Figure 3's O1-vs-O3 axis) and the
//! algorithm comparison (Figure 4's Greedy-vs-Hybrid axis) on two
//! interaction substrates behind the same [`SpaceSpec`] seam:
//!
//! * `synthetic` — the unit-square embedding every RTT of which obeys
//!   the triangle inequality;
//! * `measured` — the committed king-style matrix, whose triangle
//!   inequality violations are exactly what a metric embedding cannot
//!   express.
//!
//! Both substrates are normalized so the fastest interaction takes one
//! time unit (the [`crate::asynchrony`] convention), so a row differs
//! from its sibling only in the *shape* of the latency distribution.
//! The claim under test: construction converges on real-shaped
//! latencies too, and the paper's orderings (O3 beats O1, Hybrid is
//! competitive with Greedy) are substrate-robust.

use serde::{Deserialize, Serialize};

use lagover_core::{Algorithm, ConstructionConfig, OracleKind, Run};
use lagover_net::{MeasuredConfig, MeasuredSpace, SpaceSpec};
use lagover_sim::{stats, SimRng};
use lagover_workload::TopologicalConstraint;

use crate::asynchrony::NormalizedModel;
use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// One (substrate, algorithm, oracle) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredRow {
    /// Substrate label ([`SpaceSpec::kind`]).
    pub substrate: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Oracle label (O1/O3).
    pub oracle: String,
    /// Median virtual-time convergence instant; non-converged runs at
    /// the cap.
    pub median_time: f64,
    /// Runs that converged.
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

/// The E17 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredReport {
    /// Parameters used.
    pub params: Params,
    /// Workload label.
    pub workload: String,
    /// The substrates compared, as data.
    pub substrates: Vec<SpaceSpec>,
    /// Triangle-inequality-violation fraction of the measured matrix —
    /// how non-metric the real-shaped substrate is.
    pub tiv_fraction: f64,
    /// Rows, substrate-major.
    pub rows: Vec<MeasuredRow>,
}

impl MeasuredReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "substrate".into(),
            "algorithm".into(),
            "oracle".into(),
            "median time".into(),
            "converged".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.substrate.clone(),
                r.algorithm.clone(),
                r.oracle.clone(),
                format!("{:.0}", r.median_time),
                format!("{}/{}", r.converged_runs, r.total_runs),
            ]);
        }
        format!(
            "measured substrate — fig3/fig4 axes on synthetic vs king-style RTTs ({}, TIV {:.1}%)\n{}",
            self.workload,
            self.tiv_fraction * 100.0,
            t.render()
        )
    }

    /// Finds a row.
    pub fn row(&self, substrate: &str, algorithm: &str, oracle: &str) -> &MeasuredRow {
        self.rows
            .iter()
            .find(|r| r.substrate == substrate && r.algorithm == algorithm && r.oracle == oracle)
            .expect("complete grid")
    }
}

/// Runs the (substrate × algorithm × oracle) grid on the Rand workload.
pub fn run(params: &Params) -> MeasuredReport {
    let class = TopologicalConstraint::Rand;
    let substrates = vec![SpaceSpec::synthetic(params.peers), SpaceSpec::measured()];
    let axes = [
        (Algorithm::Greedy, OracleKind::Random),
        (Algorithm::Greedy, OracleKind::RandomDelay),
        (Algorithm::Hybrid, OracleKind::RandomDelay),
    ];
    let max_time = params.max_rounds as f64;
    let mut rows = Vec::new();
    for (si, spec) in substrates.iter().enumerate() {
        for (xi, (algorithm, kind)) in axes.iter().enumerate() {
            let mut times = Vec::new();
            let mut converged = 0usize;
            for r in 0..params.runs {
                let seed = params.run_seed(1_100 + (si * axes.len() + xi) as u64, r as u64);
                let population = satisfiable_population(class, params.peers, seed);
                let config =
                    ConstructionConfig::new(*algorithm, *kind).with_max_rounds(params.max_rounds);
                let mut model_rng = SimRng::seed_from(seed).split(5);
                let model = NormalizedModel::new(spec, params.peers, &mut model_rng);
                let durations =
                    move |p: lagover_core::PeerId, rng: &mut SimRng| model.duration(p.index(), rng);
                let outcome = Run::new(&population, &config, seed)
                    .timed(durations, max_time)
                    .construct()
                    .outcome;
                if let Some(at) = outcome.converged_at {
                    converged += 1;
                    times.push(at);
                } else {
                    times.push(max_time);
                }
            }
            rows.push(MeasuredRow {
                substrate: spec.kind().to_string(),
                algorithm: algorithm.to_string(),
                oracle: kind.label().to_string(),
                median_time: stats::median(&times).expect("runs >= 1"),
                converged_runs: converged,
                total_runs: params.runs,
            });
        }
    }
    MeasuredReport {
        params: *params,
        workload: class.to_string(),
        substrates,
        tiv_fraction: MeasuredSpace::king_sample(MeasuredConfig::default()).tiv_fraction(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_converges_on_both_substrates() {
        let mut params = Params::quick();
        params.runs = 3;
        let report = run(&params);
        assert_eq!(report.rows.len(), 6);
        assert!(report.tiv_fraction > 0.0, "king sample must be non-metric");
        // The substrate-robustness claim: every cell converges on the
        // non-metric measured matrix exactly as on the synthetic
        // embedding. (The O1-vs-O3 latency ordering is a paper-scale
        // statement; quick-scale medians of 3 are too noisy to pin.)
        for row in &report.rows {
            assert_eq!(
                row.converged_runs, row.total_runs,
                "{} {} {} failed to converge",
                row.substrate, row.algorithm, row.oracle
            );
            assert!(row.median_time > 0.0);
        }
        let _ = report.row("measured", "Greedy", "O3");
        assert!(report.render().contains("measured"));
    }
}
