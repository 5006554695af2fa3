//! Multi-tree streaming throughput (experiment E19, extension): carve
//! k interior-disjoint trees from one converged LagOver, stripe a
//! sustained chunk stream across them under per-node upload budgets,
//! and measure delivered bytes, staleness, and backpressure as the
//! budgets tighten toward the infeasible point.
//!
//! The grid crosses three budget tiers against k ∈ {1, 2, 4} and both
//! construction algorithms. The per-edge window stays below the full
//! publish rate, so a single tree structurally cannot keep up — its
//! delivered fraction collapses and TTL drops mount — while k = 2 just
//! keeps pace and k = 4 leaves slack: the multi-tree pitch in one
//! table. The starved tier sits below the feasibility bound for every
//! k and is recorded as the carve error instead of a measurement.

use serde::{Deserialize, Serialize};

use lagover_core::node::Population;
use lagover_core::{
    parallel_runs, Algorithm, ConstructionConfig, Engine, OracleKind, Run, StreamBudgets,
};
use lagover_feed::PublishSchedule;
use lagover_obs::ObsReport;
use lagover_sim::stats;
use lagover_stream::{stream, stream_observed, StreamConfig, StreamError, StreamReport};
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// Source upload budget (chunks per round) across the whole grid:
/// `rate` chunks per tree at k = 4, the paper's fanout-4 source scaled
/// to streaming.
pub const SOURCE_BUDGET: u64 = 16;

/// Chunks published per publication round.
pub const RATE: u64 = 4;

/// Publication horizon in rounds; the run drains twice as long so
/// in-flight chunks can land before the report closes the books.
pub const ROUNDS: u64 = 32;

/// Base salt for this experiment's run seeds (recovery owns the
/// 2_000s, the obs footprint 7_000, stabilization the 8_000s;
/// streams take the 9_000s).
const STREAMS_SALT: u64 = 9_000;

/// The budget tiers swept, ample to starved, in report order.
pub fn budget_tiers() -> Vec<(&'static str, u64)> {
    vec![("ample", 12), ("tight", 5), ("starved", 2)]
}

/// Tree counts swept.
pub fn tree_counts() -> Vec<usize> {
    vec![1, 2, 4]
}

/// The shared streaming configuration of a grid cell (everything but
/// `k`, which the cell supplies).
pub fn cell_config(k: usize) -> StreamConfig {
    StreamConfig {
        k,
        rate: RATE,
        schedule: PublishSchedule::Periodic { interval: 1 },
        rounds: ROUNDS,
        drain_rounds: 2 * ROUNDS,
        window: 2,
        ttl: 16,
        chunk_bytes: 1024,
    }
}

/// One (budget tier, k, algorithm) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamsRow {
    /// Budget tier label.
    pub budget: String,
    /// Per-peer upload budget, chunks per round.
    pub per_peer_budget: u64,
    /// Trees carved.
    pub k: usize,
    /// Construction algorithm of the base overlay.
    pub algorithm: String,
    /// Runs whose budgets carved a feasible forest.
    pub feasible_runs: usize,
    /// Runs attempted.
    pub total_runs: usize,
    /// The carve error when the cell is infeasible (`None` otherwise).
    pub infeasible: Option<String>,
    /// Median fraction of `(chunk, subscriber)` pairs delivered.
    pub median_delivered_fraction: f64,
    /// Median delivered bytes per simulated round.
    pub median_bytes_per_round: f64,
    /// Median 95th-percentile chunk staleness, in rounds.
    pub median_staleness_p95: f64,
    /// Median stalled edge-rounds.
    pub median_stalls: f64,
    /// Median chunks abandoned to TTL expiry.
    pub median_drops: f64,
    /// Median deepest seat across the carved trees.
    pub median_max_depth: f64,
}

/// The E19 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamsReport {
    /// Parameters used.
    pub params: Params,
    /// Workload label.
    pub workload: String,
    /// Source upload budget.
    pub source_budget: u64,
    /// Chunks per publication round.
    pub rate: u64,
    /// Publication horizon in rounds.
    pub rounds: u64,
    /// Rows, budget-tier-major, then k, then algorithm.
    pub rows: Vec<StreamsRow>,
}

impl StreamsReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "budget".into(),
            "k".into(),
            "algorithm".into(),
            "feasible".into(),
            "delivered".into(),
            "bytes/round".into(),
            "p95 stale".into(),
            "stalls".into(),
            "drops".into(),
            "note".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{} b={}", r.budget, r.per_peer_budget),
                r.k.to_string(),
                r.algorithm.clone(),
                format!("{}/{}", r.feasible_runs, r.total_runs),
                format!("{:.3}", r.median_delivered_fraction),
                format!("{:.0}", r.median_bytes_per_round),
                format!("{:.0}", r.median_staleness_p95),
                format!("{:.0}", r.median_stalls),
                format!("{:.0}", r.median_drops),
                r.infeasible.clone().unwrap_or_default(),
            ]);
        }
        format!(
            "Multi-tree streaming under upload budgets: rate {} on {} ({})\n{}",
            self.rate,
            self.workload,
            format_args!("source budget {}", self.source_budget),
            t.render()
        )
    }

    /// Finds a row.
    pub fn row(&self, budget: &str, k: usize, algorithm: Algorithm) -> &StreamsRow {
        self.rows
            .iter()
            .find(|r| r.budget == budget && r.k == k && r.algorithm == algorithm.to_string())
            .expect("complete grid")
    }
}

/// Seed salt of the cell at (budget tier `bi`, tree count `ki`,
/// algorithm `ai`).
fn cell_salt(bi: usize, ki: usize, ai: usize) -> u64 {
    STREAMS_SALT + (bi * tree_counts().len() * 2 + ki * 2 + ai) as u64
}

/// Builds the overlay one run streams over: a converged Rand
/// construction under the given algorithm.
fn built_overlay(
    population: &Population,
    algorithm: Algorithm,
    max_rounds: u64,
    seed: u64,
) -> lagover_core::Overlay {
    let config =
        ConstructionConfig::new(algorithm, OracleKind::RandomDelay).with_max_rounds(max_rounds);
    let mut engine = Engine::new(population, &config, seed);
    let _ = engine.run_to_convergence();
    engine.overlay().clone()
}

/// Runs the sweep.
pub fn run(params: &Params) -> StreamsReport {
    let class = TopologicalConstraint::Rand;
    let mut rows = Vec::new();
    for (bi, (tier, per_peer)) in budget_tiers().into_iter().enumerate() {
        for (ki, k) in tree_counts().into_iter().enumerate() {
            for (ai, algorithm) in [Algorithm::Greedy, Algorithm::Hybrid]
                .into_iter()
                .enumerate()
            {
                let salt = cell_salt(bi, ki, ai);
                let config = cell_config(k);
                let outcomes: Vec<Result<StreamReport, StreamError>> =
                    parallel_runs(params.runs, |r| {
                        let seed = params.run_seed(salt, r as u64);
                        let population = satisfiable_population(class, params.peers, seed);
                        let overlay =
                            built_overlay(&population, algorithm, params.max_rounds, seed);
                        let budgets = StreamBudgets::uniform(params.peers, per_peer, SOURCE_BUDGET);
                        stream(&overlay, &population, &budgets, &config, seed)
                    });
                let delivered: Vec<Result<&StreamReport, &StreamError>> =
                    outcomes.iter().map(|o| o.as_ref()).collect();
                let ok: Vec<&StreamReport> = delivered.iter().filter_map(|o| o.ok()).collect();
                let med = |f: &dyn Fn(&StreamReport) -> f64| {
                    let values: Vec<f64> = ok.iter().map(|r| f(r)).collect();
                    stats::median(&values).unwrap_or(0.0)
                };
                rows.push(StreamsRow {
                    budget: tier.to_string(),
                    per_peer_budget: per_peer,
                    k,
                    algorithm: algorithm.to_string(),
                    feasible_runs: ok.len(),
                    total_runs: outcomes.len(),
                    infeasible: delivered
                        .iter()
                        .find_map(|o| o.err())
                        .map(|e| e.to_string()),
                    median_delivered_fraction: med(&|r| r.delivered_fraction),
                    median_bytes_per_round: med(&|r| r.bytes_per_round),
                    median_staleness_p95: med(&|r| r.staleness.p95 as f64),
                    median_stalls: med(&|r| r.stalls as f64),
                    median_drops: med(&|r| r.drops as f64),
                    median_max_depth: med(&|r| f64::from(r.max_depth)),
                });
            }
        }
    }
    StreamsReport {
        params: *params,
        workload: class.to_string(),
        source_budget: SOURCE_BUDGET,
        rate: RATE,
        rounds: ROUNDS,
        rows,
    }
}

/// Observes the representative (ample, k = 4, Hybrid) cell with the
/// `lagover-obs` pipeline enabled — the same seeds [`run`] uses for
/// that cell, merged over `params.runs` repetitions. One timeline
/// covers both phases: the construction journal/scrapes come first,
/// then the streaming events and `stream.*` scrapes with their rounds
/// offset past the construction clock. `converged` here means the
/// overlay converged *and* every chunk reached every subscriber.
pub fn observed(params: &Params) -> ObsReport {
    let class = TopologicalConstraint::Rand;
    // Salt of the (bi = 0 "ample", ki = 2 "k=4", ai = 1 Hybrid) cell.
    let salt = cell_salt(0, 2, 1);
    let (_, per_peer) = budget_tiers()[0];
    let k = tree_counts()[2];
    let config = cell_config(k);
    let reports = parallel_runs(params.runs, |r| {
        let seed = params.run_seed(salt, r as u64);
        let population = satisfiable_population(class, params.peers, seed);
        let construction = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(params.max_rounds);

        // Observed construction on an engine kept in hand, so its
        // overlay is there to stream over.
        let interval = crate::obs_exp::SAMPLE_INTERVAL;
        let mut run = Run::new(&population, &construction, seed)
            .observe(crate::obs_exp::JOURNAL_CAPACITY, interval);
        let mut engine = run.engine();
        let constructed = run.construct_on(&mut engine);
        let construction_rounds = constructed.outcome.rounds_run;
        let label = format!("streams ample k=4 hybrid {class} n={}", params.peers);
        let mut report = constructed.into_report(&label, population.len(), seed);

        let budgets = StreamBudgets::uniform(params.peers, per_peer, SOURCE_BUDGET);
        let streamed = stream_observed(
            engine.overlay(),
            &population,
            &budgets,
            &config,
            seed,
            crate::obs_exp::JOURNAL_CAPACITY,
            interval,
        )
        .expect("the ample tier is feasible");
        let journal = report.journal.as_mut().expect("observed");
        for event in streamed.journal.iter() {
            journal.push(*event);
        }
        report
            .scrapes
            .extend(streamed.scrapes.into_iter().map(|mut scrape| {
                scrape.round += construction_rounds;
                scrape
            }));
        report.profile.merge(&streamed.profile);
        report.rounds += streamed.report.rounds_run;
        if streamed.report.undelivered != 0 {
            report.converged = 0;
        }
        report
    });
    crate::obs_exp::merge_reports(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_obs::EventKind;

    #[test]
    fn grid_tightens_toward_the_infeasible_point() {
        let params = Params::quick();
        let report = run(&params);
        assert_eq!(report.rows.len(), 18, "3 tiers x 3 tree counts x 2 algs");

        for algorithm in [Algorithm::Greedy, Algorithm::Hybrid] {
            // Ample budgets with enough trees: the window spreads the
            // rate and everything lands exactly once.
            for k in [2, 4] {
                let row = report.row("ample", k, algorithm);
                assert_eq!(row.feasible_runs, row.total_runs);
                assert_eq!(
                    row.median_delivered_fraction, 1.0,
                    "ample k={k} {algorithm} must fully deliver"
                );
                assert_eq!(row.median_drops, 0.0);
            }
            // A single tree cannot carry rate 4 through window-2 edges
            // no matter the budget: backpressure and TTL drops are
            // structural.
            let single = report.row("ample", 1, algorithm);
            assert_eq!(single.feasible_runs, single.total_runs);
            assert!(single.median_stalls > 0.0, "k=1 must stall");
            assert!(single.median_drops > 0.0, "k=1 must drop");
            assert!(single.median_delivered_fraction < 1.0);
            // Starved budgets sit below the feasibility bound for
            // every k: the carve refuses rather than mis-seating.
            for k in tree_counts() {
                let row = report.row("starved", k, algorithm);
                assert_eq!(row.feasible_runs, 0, "starved k={k} must not carve");
                assert!(
                    row.infeasible
                        .as_deref()
                        .is_some_and(|e| e.contains("infeasible")),
                    "starved k={k} records the carve error"
                );
            }
        }
        // Tighter feasible budgets carve deeper trees.
        let ample = report.row("ample", 4, Algorithm::Hybrid);
        let tight = report.row("tight", 4, Algorithm::Hybrid);
        assert_eq!(tight.feasible_runs, tight.total_runs);
        assert!(tight.median_max_depth >= ample.median_max_depth);

        let text = report.render();
        assert!(text.contains("bytes/round"));
        assert!(text.contains("infeasible"));
    }

    #[test]
    fn report_is_deterministic() {
        let mut params = Params::quick();
        params.runs = 2;
        assert_eq!(run(&params), run(&params));
    }

    #[test]
    fn observed_cell_converges_delivers_and_journals_chunks() {
        let mut params = Params::quick();
        params.runs = 2;
        let report = observed(&params);
        assert_eq!(report.runs, 2);
        assert_eq!(report.converged, 2, "overlay converged and stream drained");
        assert!(!report.health.is_empty());
        let journal = report.journal.as_ref().expect("journal enabled");
        let delivered: u64 = journal
            .counts_by_kind()
            .iter()
            .find(|(kind, _)| *kind == EventKind::Delivery)
            .map(|&(_, c)| c)
            .expect("delivery kind exists");
        assert!(delivered > 0, "chunk deliveries reach the shared journal");
        let last = report.scrapes.last().expect("final scrape");
        assert!(last.counter("stream.bytes_delivered") > 0);
        assert_eq!(last.counter("stream.drops"), 0, "ample tier never drops");
        assert!(report.profile.phase("stream").is_some());
        assert_eq!(observed(&params), observed(&params));
    }
}
