//! §2.1.4 — oracle realizations versus the in-memory references
//! (experiment E9).
//!
//! The simulation-level oracles answer from perfect, instantaneous
//! global state. A deployment would answer from a DHT-hosted directory
//! (refresh-lagged, TTL-expired, crash-lossy) or from random walks (no
//! information at all beyond membership). This runner measures how much
//! construction latency those imperfections cost.

use serde::{Deserialize, Serialize};

use lagover_core::{construct, Algorithm, ConstructionConfig, OracleKind, Run};
use lagover_sim::{stats, SimRng};
use lagover_workload::{TopologicalConstraint, WorkloadSpec};

use crate::oracle_impls::{DirectoryOracle, GossipWalkOracle};
use crate::table::TextTable;
use crate::Params;

/// One oracle-implementation measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealizationRow {
    /// Implementation label.
    pub implementation: String,
    /// Median construction latency (cap-counted).
    pub median_latency: f64,
    /// Runs converged.
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

/// The E9 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealizationsReport {
    /// Parameters used.
    pub params: Params,
    /// Workload label.
    pub workload: String,
    /// Rows for each implementation.
    pub rows: Vec<RealizationRow>,
}

impl RealizationsReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "oracle implementation".into(),
            "median latency".into(),
            "converged".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.implementation.clone(),
                format!("{:.0}", r.median_latency),
                format!("{}/{}", r.converged_runs, r.total_runs),
            ]);
        }
        format!(
            "§2.1.4 oracle realizations — reference vs substrate ({}, Greedy)\n{}",
            self.workload,
            t.render()
        )
    }

    /// Finds a row by label.
    pub fn row(&self, implementation: &str) -> &RealizationRow {
        self.rows
            .iter()
            .find(|r| r.implementation == implementation)
            .expect("implementation measured")
    }
}

/// Runs all four implementations on the Rand workload.
pub fn run(params: &Params) -> RealizationsReport {
    let class = TopologicalConstraint::Rand;
    let mut rows = Vec::new();

    let mut measure = |label: &str, f: &mut dyn FnMut(u64) -> Option<u64>| {
        let mut latencies = Vec::new();
        let mut converged = 0usize;
        for r in 0..params.runs {
            let seed = params.run_seed(500, r as u64);
            match f(seed) {
                Some(at) => {
                    converged += 1;
                    latencies.push(at as f64);
                }
                None => latencies.push(params.max_rounds as f64),
            }
        }
        rows.push(RealizationRow {
            implementation: label.to_string(),
            median_latency: stats::median(&latencies).expect("runs >= 1"),
            converged_runs: converged,
            total_runs: params.runs,
        });
    };

    let peers = params.peers;
    let max_rounds = params.max_rounds;
    let population_for = |seed: u64| {
        WorkloadSpec::new(class, peers)
            .generate(seed)
            .expect("repairable")
    };

    measure("Random (reference)", &mut |seed| {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random)
            .with_max_rounds(max_rounds);
        construct(&population_for(seed), &config, seed).converged_at
    });
    measure("Random (gossip walk)", &mut |seed| {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random)
            .with_max_rounds(max_rounds);
        let mut rng = SimRng::seed_from(seed).split(91);
        let oracle = GossipWalkOracle::new(peers, 6, 10, &mut rng);
        Run::new(&population_for(seed), &config, seed)
            .oracle(Box::new(oracle))
            .construct()
            .outcome
            .converged_at
    });
    measure("Random-Delay (reference)", &mut |seed| {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
            .with_max_rounds(max_rounds);
        construct(&population_for(seed), &config, seed).converged_at
    });
    measure("Random-Delay (directory)", &mut |seed| {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
            .with_max_rounds(max_rounds);
        let mut rng = SimRng::seed_from(seed).split(92);
        // TTL of ~4 rounds' worth of ticks; 4 background refreshes per
        // query keep records reasonably fresh.
        let ttl = 4 * peers as u64;
        let oracle = DirectoryOracle::new(OracleKind::RandomDelay, 32, ttl, 4, &mut rng);
        Run::new(&population_for(seed), &config, seed)
            .oracle(Box::new(oracle))
            .construct()
            .outcome
            .converged_at
    });
    measure("Random-Delay (directory, ring churn)", &mut |seed| {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
            .with_max_rounds(max_rounds);
        let mut rng = SimRng::seed_from(seed).split(93);
        let ttl = 4 * peers as u64;
        // ~2% of queries crash a ring node; one stabilize pass per
        // query repairs routing incrementally.
        let oracle = DirectoryOracle::new(OracleKind::RandomDelay, 32, ttl, 4, &mut rng)
            .with_ring_churn(0.02, 1);
        Run::new(&population_for(seed), &config, seed)
            .oracle(Box::new(oracle))
            .construct()
            .outcome
            .converged_at
    });

    RealizationsReport {
        params: *params,
        workload: class.to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_implementations_converge_on_quick_scale() {
        let mut params = Params::quick();
        params.runs = 2;
        let report = run(&params);
        assert_eq!(report.rows.len(), 5);
        for row in &report.rows {
            assert!(
                row.converged_runs > 0,
                "{} never converged",
                row.implementation
            );
        }
        assert!(report.render().contains("directory"));
    }

    #[test]
    fn realized_oracles_cost_no_more_than_the_uninformed_reference_times_ten() {
        // A loose sanity bound: substrate imperfections slow
        // construction but not catastrophically.
        let mut params = Params::quick();
        params.runs = 2;
        let report = run(&params);
        let reference = report.row("Random-Delay (reference)").median_latency;
        let directory = report.row("Random-Delay (directory)").median_latency;
        assert!(
            directory <= reference * 10.0 + 100.0,
            "directory realization pathologically slow: {directory} vs {reference}"
        );
    }
}
