//! Figure 2 — variation in the rate of convergence.
//!
//! *"For the same workload … each variant of the LagOver construction
//! algorithm has a high variation in the time required to converge"*
//! (§5.1). The paper shows this for the Greedy algorithm with Oracle
//! Random-Delay across workloads, and concludes that medians of 5 runs
//! are the statistic to report. This runner executes many independent
//! runs per workload and reports the spread (five-number summary plus
//! the coefficient of variation).

use serde::{Deserialize, Serialize};

use lagover_core::{construct, parallel_runs, Algorithm, ConstructionConfig, OracleKind};
use lagover_sim::stats::{bootstrap_median_ci, ConfidenceInterval, Summary};
use lagover_sim::SimRng;
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// Spread of convergence latency for one workload class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadVariance {
    /// Workload label.
    pub workload: String,
    /// Runs that converged within the cap.
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
    /// Spread over the converged runs' latencies (None if none
    /// converged).
    pub summary: Option<Summary>,
    /// 95% percentile-bootstrap confidence interval of the median.
    pub median_ci: Option<ConfidenceInterval>,
}

/// The full Figure 2 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Report {
    /// Parameters used.
    pub params: Params,
    /// Runs per workload (more than `params.runs`: the figure is about
    /// variance).
    pub runs_per_workload: usize,
    /// Per-workload spreads.
    pub workloads: Vec<WorkloadVariance>,
}

impl Fig2Report {
    /// Renders the report as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload".into(),
            "runs".into(),
            "converged".into(),
            "min".into(),
            "q1".into(),
            "median".into(),
            "q3".into(),
            "max".into(),
            "cv".into(),
            "median 95% CI".into(),
        ]);
        for w in &self.workloads {
            match &w.summary {
                Some(s) => t.row(vec![
                    w.workload.clone(),
                    w.total_runs.to_string(),
                    w.converged_runs.to_string(),
                    format!("{:.0}", s.min),
                    format!("{:.0}", s.q1),
                    format!("{:.0}", s.median),
                    format!("{:.0}", s.q3),
                    format!("{:.0}", s.max),
                    format!("{:.2}", s.stddev / s.mean),
                    w.median_ci
                        .map(|ci| format!("[{:.0}, {:.0}]", ci.low, ci.high))
                        .unwrap_or_else(|| "-".into()),
                ]),
                None => t.row(vec![
                    w.workload.clone(),
                    w.total_runs.to_string(),
                    "0".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
        format!(
            "Figure 2 — convergence-latency variance (Greedy, Oracle Random-Delay, no churn)\n{}",
            t.render()
        )
    }
}

/// Runs the experiment with `runs_per_workload` repetitions per class.
pub fn run(params: &Params, runs_per_workload: usize) -> Fig2Report {
    let mut workloads = Vec::new();
    for (wi, class) in TopologicalConstraint::PAPER_CLASSES.iter().enumerate() {
        // Each run owns its seed, so the parallel map is bit-identical
        // to the sequential loop it replaces.
        let outcomes = parallel_runs(runs_per_workload, |r| {
            let seed = params.run_seed(wi as u64, r as u64);
            let population = satisfiable_population(*class, params.peers, seed);
            let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
                .with_max_rounds(params.max_rounds);
            construct(&population, &config, seed).converged_at
        });
        let latencies: Vec<f64> = outcomes.iter().flatten().map(|&at| at as f64).collect();
        let converged = latencies.len();
        let mut ci_rng = SimRng::seed_from(params.seed).split(0xC1 + wi as u64);
        workloads.push(WorkloadVariance {
            workload: class.to_string(),
            converged_runs: converged,
            total_runs: runs_per_workload,
            summary: Summary::from_samples(&latencies),
            median_ci: bootstrap_median_ci(&latencies, 0.95, 1_000, &mut ci_rng),
        });
    }
    Fig2Report {
        params: *params,
        runs_per_workload,
        workloads,
    }
}

/// Observes this figure's first-workload runs (Greedy, Oracle
/// Random-Delay) with the `lagover-obs` pipeline enabled: same seeds as
/// [`run`]'s first class, merged over `params.runs` repetitions.
pub fn observed(params: &Params) -> lagover_obs::ObsReport {
    let class = TopologicalConstraint::PAPER_CLASSES[0];
    crate::obs_exp::observe_construction(
        &format!("fig2 {class} greedy/oracle-random-delay n={}", params.peers),
        params,
        0,
        |seed| satisfiable_population(class, params.peers, seed),
        || {
            ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
                .with_max_rounds(params.max_rounds)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_spreads_for_all_classes() {
        let report = run(&Params::quick(), 6);
        assert_eq!(report.workloads.len(), 4);
        for w in &report.workloads {
            assert!(
                w.converged_runs > 0,
                "{} never converged in quick mode",
                w.workload
            );
        }
        let text = report.render();
        assert!(text.contains("Tf1"));
        assert!(text.contains("BiCorr"));
        // Every converged workload carries a CI that brackets its median.
        for w in &report.workloads {
            if let (Some(s), Some(ci)) = (&w.summary, &w.median_ci) {
                assert!(ci.contains(s.median), "{}: CI misses median", w.workload);
            }
        }
    }

    #[test]
    fn variance_is_visible() {
        // The paper's point: convergence latency varies run to run.
        let report = run(&Params::quick(), 8);
        let any_spread = report
            .workloads
            .iter()
            .filter_map(|w| w.summary.as_ref())
            .any(|s| s.max > s.min);
        assert!(any_spread, "no run-to-run variance observed at all");
    }
}
