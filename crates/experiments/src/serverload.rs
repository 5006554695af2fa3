//! §1 motivation — the bandwidth-overload relief (experiment E8).
//!
//! For growing populations, construct a LagOver and compare the
//! source's request rate against the direct-polling baseline in which
//! every consumer polls at its own freshness deadline `l_i`. The
//! LagOver rate is bounded by the source fanout regardless of
//! population size; the baseline grows linearly — the "Boston Globe"
//! number.

use serde::{Deserialize, Serialize};

use lagover_core::{Algorithm, ConstructionConfig, Engine, OracleKind};
use lagover_feed::{compare_server_load, disseminate, DisseminationConfig};
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// One population-size measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadRow {
    /// Consumers.
    pub peers: usize,
    /// Requests/round under direct polling.
    pub direct_rate: f64,
    /// Requests/round under the LagOver.
    pub lagover_rate: f64,
    /// Reduction factor.
    pub reduction: f64,
    /// Measured max staleness across consumers during dissemination
    /// (sanity: every constraint met).
    pub max_staleness: Option<u64>,
    /// Number of consumers whose constraint the overlay broke: a
    /// measured staleness past it, or no item at all (an unrooted
    /// consumer, which only a run cut short by the round cap leaves).
    /// 0 on a converged run.
    pub violations: usize,
}

/// The E8 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerLoadReportE8 {
    /// Parameters used.
    pub params: Params,
    /// Workload class used (Rand by default).
    pub workload: String,
    /// Rows by population size.
    pub rows: Vec<LoadRow>,
}

impl ServerLoadReportE8 {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "peers".into(),
            "direct req/round".into(),
            "lagover req/round".into(),
            "reduction".into(),
            "max staleness".into(),
            "violations".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.peers.to_string(),
                format!("{:.1}", r.direct_rate),
                format!("{:.1}", r.lagover_rate),
                format!("{:.1}x", r.reduction),
                r.max_staleness
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "-".into()),
                r.violations.to_string(),
            ]);
        }
        format!(
            "§1 motivation — source request rate: direct polling vs LagOver ({})\n{}",
            self.workload,
            t.render()
        )
    }
}

/// Runs E8 over the given population sizes.
pub fn run_sizes(params: &Params, sizes: &[usize]) -> ServerLoadReportE8 {
    let class = TopologicalConstraint::Rand;
    let mut rows = Vec::new();
    for (i, &peers) in sizes.iter().enumerate() {
        let seed = params.run_seed(400 + i as u64, 0);
        let population = satisfiable_population(class, peers, seed);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(params.max_rounds);
        let mut engine = Engine::new(&population, &config, seed);
        // A round cap the run cannot meet shows as the consumers the
        // overlay it reached leaves unserved.
        engine.run_to_convergence();
        let load = compare_server_load(engine.overlay(), &population, 1);
        let report = disseminate(
            engine.overlay(),
            &population,
            &DisseminationConfig::default(),
            seed,
        )
        .expect("the default horizon fits in memory");
        rows.push(LoadRow {
            peers,
            direct_rate: load.direct_polling_rate,
            lagover_rate: load.lagover_rate,
            reduction: load.reduction_factor,
            max_staleness: report.max_staleness(),
            violations: report.constraint_violations.len()
                + report.per_node.iter().filter(|n| n.received == 0).count(),
        });
    }
    ServerLoadReportE8 {
        params: *params,
        workload: class.to_string(),
        rows,
    }
}

/// Runs E8 with the default size sweep.
pub fn run(params: &Params) -> ServerLoadReportE8 {
    run_sizes(params, &[30, 60, 120, 240, 480])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_grows_with_population_and_constraints_hold() {
        let params = Params::quick();
        let report = run_sizes(&params, &[20, 40, 80]);
        assert_eq!(report.rows.len(), 3);
        for r in &report.rows {
            assert_eq!(r.violations, 0, "staleness violations at n={}", r.peers);
            assert!(
                r.lagover_rate <= 3.0,
                "lagover rate bounded by source fanout"
            );
        }
        assert!(
            report.rows[2].reduction > report.rows[0].reduction,
            "reduction should grow with population"
        );
        assert!(report.render().contains("reduction"));
    }
}
