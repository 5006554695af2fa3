//! §7 future work — locality-aware LagOver construction (experiment
//! E10, an extension beyond the paper's evaluation).
//!
//! The paper suggests *"building the LagOver based on locality
//! contexts, like clients within same domain, ISP or timezone"*. We
//! embed peers (and the source) in the synthetic coordinate space of
//! `lagover-net` and compare Oracle Random-Delay against its
//! locality-aware variant (same latency filter, nearest-of-k-probes
//! choice) on two outcomes: construction latency, and the *network
//! cost* of the finished tree — the total RTT across overlay edges,
//! which is what pushing every feed item will repeatedly pay.

use serde::{Deserialize, Serialize};

use lagover_core::node::Member;
use lagover_core::{Algorithm, ConstructionConfig, Engine, OracleKind};
use lagover_net::{ClusterConfig, LatencyConfig, LatencySpace, SpaceSpec};
use lagover_sim::{stats, SimRng};
use lagover_workload::TopologicalConstraint;

use crate::oracle_impls::LocalityDelayOracle;
use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// One oracle-variant measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalityRow {
    /// Oracle label.
    pub oracle: String,
    /// Median construction latency.
    pub median_latency: f64,
    /// Median total RTT over the tree's edges.
    pub median_tree_cost: f64,
    /// Median mean-RTT per edge.
    pub median_edge_cost: f64,
    /// Runs converged.
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

/// The E10 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalityReport {
    /// Parameters used.
    pub params: Params,
    /// Workload label.
    pub workload: String,
    /// Rows: {uniform, locality} x {smooth, clustered} topologies.
    pub rows: Vec<LocalityRow>,
}

impl LocalityReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "oracle".into(),
            "median latency".into(),
            "tree RTT cost".into(),
            "mean edge RTT".into(),
            "converged".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.oracle.clone(),
                format!("{:.0}", r.median_latency),
                format!("{:.1}", r.median_tree_cost),
                format!("{:.3}", r.median_edge_cost),
                format!("{}/{}", r.converged_runs, r.total_runs),
            ]);
        }
        format!(
            "§7 locality extension — uniform vs locality-aware Random-Delay ({}, Hybrid)\n{}",
            self.workload,
            t.render()
        )
    }

    /// Finds a row by oracle label.
    pub fn row(&self, oracle: &str) -> &LocalityRow {
        self.rows
            .iter()
            .find(|r| r.oracle == oracle)
            .expect("both variants measured")
    }
}

/// Total and per-edge RTT of the constructed tree. The source occupies
/// coordinate index `population.len()` in the space.
fn tree_cost(engine: &Engine, space: &LatencySpace) -> (f64, f64) {
    let n = engine.population().len();
    let mut total = 0.0;
    let mut edges = 0usize;
    for p in engine.population().peer_ids() {
        match engine.overlay().parent(p) {
            Some(Member::Source) => {
                total += space.rtt(p.index(), n);
                edges += 1;
            }
            Some(Member::Peer(q)) => {
                total += space.rtt(p.index(), q.index());
                edges += 1;
            }
            None => {}
        }
    }
    (
        total,
        if edges == 0 {
            0.0
        } else {
            total / edges as f64
        },
    )
}

/// Names the coordinate space for one topology: a smooth uniform
/// square or an ISP-style clustered placement, always over `peers + 1`
/// points (the source is the last index).
fn space_spec(topology: &str, peers: usize) -> SpaceSpec {
    let latency = LatencyConfig {
        base_rtt: 0.05,
        rtt_per_unit: 1.0,
        jitter: 0.0,
    };
    match topology {
        "smooth" => SpaceSpec::Synthetic {
            peers: peers + 1,
            config: latency,
        },
        _ => SpaceSpec::Clustered {
            peers: peers + 1,
            config: ClusterConfig {
                clusters: 4,
                scatter: 0.03,
                latency,
            },
        },
    }
}

/// Builds the coordinate space for one run from its spec.
fn build_space(spec: &SpaceSpec, seed: u64) -> LatencySpace {
    let mut space_rng = SimRng::seed_from(seed).split(0x10CA);
    spec.build(&mut space_rng)
        .latency_space()
        .expect("locality substrates carry coordinates")
        .clone()
}

/// Runs both oracle variants on both topologies, Rand workload.
pub fn run(params: &Params) -> LocalityReport {
    let class = TopologicalConstraint::Rand;
    let mut rows = Vec::new();
    for topology in ["smooth", "clustered"] {
        let spec = space_spec(topology, params.peers);
        for variant in ["uniform", "locality"] {
            let mut latencies = Vec::new();
            let mut costs = Vec::new();
            let mut edge_costs = Vec::new();
            let mut converged = 0usize;
            for r in 0..params.runs {
                let seed = params.run_seed(600, r as u64);
                let population = satisfiable_population(class, params.peers, seed);
                let space = build_space(&spec, seed);
                let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                    .with_max_rounds(params.max_rounds);
                let mut engine = if variant == "uniform" {
                    Engine::new(&population, &config, seed)
                } else {
                    let oracle = LocalityDelayOracle::new(space.clone(), 4);
                    Engine::with_oracle(&population, &config, Box::new(oracle), seed)
                };
                match engine.run_to_convergence() {
                    Some(at) => {
                        converged += 1;
                        latencies.push(at.get() as f64);
                    }
                    None => latencies.push(params.max_rounds as f64),
                }
                let (total, per_edge) = tree_cost(&engine, &space);
                costs.push(total);
                edge_costs.push(per_edge);
            }
            rows.push(LocalityRow {
                oracle: format!("Random-Delay ({variant}, {topology})"),
                median_latency: stats::median(&latencies).expect("runs >= 1"),
                median_tree_cost: stats::median(&costs).expect("runs >= 1"),
                median_edge_cost: stats::median(&edge_costs).expect("runs >= 1"),
                converged_runs: converged,
                total_runs: params.runs,
            });
        }
    }
    LocalityReport {
        params: *params,
        workload: class.to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_lowers_edge_cost_without_breaking_convergence() {
        let mut params = Params::quick();
        params.runs = 4;
        let report = run(&params);
        for topology in ["smooth", "clustered"] {
            let uniform = report.row(&format!("Random-Delay (uniform, {topology})"));
            let locality = report.row(&format!("Random-Delay (locality, {topology})"));
            assert_eq!(uniform.converged_runs, uniform.total_runs);
            assert_eq!(locality.converged_runs, locality.total_runs);
            assert!(
                locality.median_edge_cost < uniform.median_edge_cost,
                "{topology}: locality ({}) did not beat uniform ({}) on per-edge RTT",
                locality.median_edge_cost,
                uniform.median_edge_cost
            );
        }
        assert!(report.render().contains("locality"));
    }
}
