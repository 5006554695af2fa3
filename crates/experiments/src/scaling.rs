//! Scalability beyond the paper's 120 peers (experiment E12): how
//! construction latency (in rounds) and total interaction volume grow
//! with the consumer population — the property the Boston Globe
//! motivation actually needs.

use serde::{Deserialize, Serialize};

use lagover_core::{construct, parallel_runs, Algorithm, ConstructionConfig, OracleKind};
use lagover_sim::stats;
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// One population-size measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Consumers.
    pub peers: usize,
    /// Median construction latency in rounds.
    pub median_latency: f64,
    /// Median pairwise interactions until convergence.
    pub median_interactions: f64,
    /// Median interactions *per peer* (the per-node cost).
    pub median_interactions_per_peer: f64,
    /// Runs converged.
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

/// The E12 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingReport {
    /// Parameters used (`params.peers` is ignored; the sweep sets it).
    pub params: Params,
    /// Workload label.
    pub workload: String,
    /// Rows by population size.
    pub rows: Vec<ScalingRow>,
}

impl ScalingReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "peers".into(),
            "median latency".into(),
            "interactions".into(),
            "interactions/peer".into(),
            "converged".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.peers.to_string(),
                format!("{:.0}", r.median_latency),
                format!("{:.0}", r.median_interactions),
                format!("{:.1}", r.median_interactions_per_peer),
                format!("{}/{}", r.converged_runs, r.total_runs),
            ]);
        }
        format!(
            "Scaling — construction cost vs population ({}, Hybrid, Oracle Random-Delay)\n{}",
            self.workload,
            t.render()
        )
    }
}

/// Runs the sweep over the given population sizes.
pub fn run_sizes(params: &Params, sizes: &[usize]) -> ScalingReport {
    let class = TopologicalConstraint::Rand;
    let mut rows = Vec::new();
    for (i, &peers) in sizes.iter().enumerate() {
        // Seed-per-run parallel map; bit-identical to the sequential loop.
        let results = parallel_runs(params.runs, |r| {
            let seed = params.run_seed(800 + i as u64, r as u64);
            let population = satisfiable_population(class, peers, seed);
            let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                .with_max_rounds(params.max_rounds);
            let outcome = construct(&population, &config, seed);
            (
                outcome.converged(),
                outcome.latency_or(params.max_rounds as f64),
                outcome.counters.interactions as f64,
            )
        });
        let converged = results.iter().filter(|(c, _, _)| *c).count();
        let latencies: Vec<f64> = results.iter().map(|&(_, l, _)| l).collect();
        let interactions: Vec<f64> = results.iter().map(|&(_, _, n)| n).collect();
        let median_interactions = stats::median(&interactions).expect("runs >= 1");
        rows.push(ScalingRow {
            peers,
            median_latency: stats::median(&latencies).expect("runs >= 1"),
            median_interactions,
            median_interactions_per_peer: median_interactions / peers as f64,
            converged_runs: converged,
            total_runs: params.runs,
        });
    }
    ScalingReport {
        params: *params,
        workload: class.to_string(),
        rows,
    }
}

/// The default sweep: 60 to 1920 peers.
pub fn run(params: &Params) -> ScalingReport {
    run_sizes(params, &[60, 120, 240, 480, 960, 1920])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_peer_cost_stays_bounded() {
        let mut params = Params::quick();
        params.runs = 2;
        let report = run_sizes(&params, &[30, 60, 120]);
        for row in &report.rows {
            assert_eq!(row.converged_runs, row.total_runs, "n={}", row.peers);
        }
        // Total interactions grow, but per-peer cost must not explode:
        // allow at most ~4x growth across a 4x population increase.
        let first = report.rows[0].median_interactions_per_peer;
        let last = report.rows[2].median_interactions_per_peer;
        assert!(
            last < first * 4.0 + 10.0,
            "per-peer interaction cost exploded: {first} -> {last}"
        );
        assert!(report.render().contains("interactions/peer"));
    }
}
