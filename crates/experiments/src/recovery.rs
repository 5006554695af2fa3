//! Self-healing recovery (experiment E15, extension): crash a fraction
//! of interior nodes right after convergence — optionally with an
//! oracle blackout and lossy interactions — and measure how long the
//! overlay takes to re-converge with no live chain crossing a corpse.
//!
//! Unlike the churn experiments, crashes here are *silent*: children
//! only learn their parent died after `DETECTION_TIMEOUT` silent
//! rounds, so the report also tracks how long stale chains linger and
//! how large the orphan population gets while the overlay heals.

use serde::{Deserialize, Serialize};

use lagover_core::{
    parallel_runs, Algorithm, ConstructionConfig, FaultScenario, OracleKind, PerturbOutcome, Plan,
    Run,
};
use lagover_sim::{stats, TimeSeries};
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{perturbed_runs, satisfiable_population, Params};

/// The fault scenarios swept, in report order: a tenth of the interior
/// crashes, alone, under an oracle blackout, with lossy interactions,
/// and with both.
pub fn scenarios() -> Vec<(&'static str, FaultScenario)> {
    let faults = |message_loss, blackout_rounds| FaultScenario {
        crash_fraction: 0.10,
        message_loss,
        blackout_rounds,
    };
    vec![
        ("crash", faults(0.0, 0)),
        ("crash+blackout", faults(0.0, 30)),
        ("crash+loss", faults(0.05, 0)),
        ("compound", faults(0.05, 30)),
    ]
}

/// One (scenario, algorithm) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRow {
    /// Scenario label.
    pub scenario: String,
    /// Repair algorithm.
    pub algorithm: String,
    /// Median number of interior nodes crashed.
    pub median_crashed: f64,
    /// Median rounds from injection to full recovery (non-recovered
    /// runs count as the horizon).
    pub median_recovery_rounds: f64,
    /// Median peak orphan population during recovery.
    pub median_orphan_peak: f64,
    /// Median rounds during which some live chain crossed a
    /// crashed-but-undetected peer.
    pub median_stale_rounds: f64,
    /// Runs that fully healed within the horizon.
    pub recovered_runs: usize,
    /// Runs attempted.
    pub total_runs: usize,
    /// Orphan population over time for the first run of the cell
    /// (representative trace; x = round, y = orphans).
    pub orphan_series: TimeSeries,
}

/// The E15 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Parameters used.
    pub params: Params,
    /// Workload label.
    pub workload: String,
    /// Recovery horizon in rounds (cap for non-recovered runs).
    pub horizon: u64,
    /// Rows, scenario-major.
    pub rows: Vec<RecoveryRow>,
    /// Substrate realization rows (compound scenario, Hybrid): healing
    /// through a refresh-lagged DHT directory whose ring itself churns,
    /// and through an uninformed gossip random walk.
    pub realization_rows: Vec<RecoveryRow>,
}

impl RecoveryReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "scenario".into(),
            "algorithm".into(),
            "crashed".into(),
            "recovery rounds".into(),
            "orphan peak".into(),
            "stale rounds".into(),
            "recovered".into(),
        ]);
        for r in self.rows.iter().chain(self.realization_rows.iter()) {
            t.row(vec![
                r.scenario.clone(),
                r.algorithm.clone(),
                format!("{:.0}", r.median_crashed),
                format!("{:.0}", r.median_recovery_rounds),
                format!("{:.0}", r.median_orphan_peak),
                format!("{:.0}", r.median_stale_rounds),
                format!("{}/{}", r.recovered_runs, r.total_runs),
            ]);
        }
        format!(
            "Self-healing after crash-stop failures, oracle blackouts, and message loss ({})\n{}",
            self.workload,
            t.render()
        )
    }

    /// Finds a row.
    pub fn row(&self, scenario: &str, algorithm: Algorithm) -> &RecoveryRow {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario && r.algorithm == algorithm.to_string())
            .expect("complete grid")
    }
}

/// Summarizes one cell's outcomes into its row.
fn row(
    scenario: &str,
    algorithm: String,
    horizon: u64,
    outcomes: &[PerturbOutcome],
) -> RecoveryRow {
    let median = |f: &dyn Fn(&PerturbOutcome) -> f64| {
        let values: Vec<f64> = outcomes.iter().map(f).collect();
        stats::median(&values).expect("runs >= 1")
    };
    RecoveryRow {
        scenario: scenario.to_string(),
        algorithm,
        median_crashed: median(&|o| o.victims.len() as f64),
        median_recovery_rounds: median(&|o| o.clean_or(horizon as f64)),
        median_orphan_peak: median(&|o| o.orphan_peak as f64),
        median_stale_rounds: median(&|o| o.stale_rounds as f64),
        recovered_runs: outcomes.iter().filter(|o| o.came_clean()).count(),
        total_runs: outcomes.len(),
        orphan_series: outcomes[0].orphan_series.clone(),
    }
}

/// Runs the sweep.
pub fn run(params: &Params) -> RecoveryReport {
    let class = TopologicalConstraint::Rand;
    let horizon = params.max_rounds;
    let mut rows = Vec::new();
    for (si, (label, faults)) in scenarios().into_iter().enumerate() {
        let plan = Plan::faults(faults);
        for (ai, algorithm) in [Algorithm::Greedy, Algorithm::Hybrid]
            .into_iter()
            .enumerate()
        {
            let salt = 2_000 + (si * 2 + ai) as u64;
            let kind = OracleKind::RandomDelay;
            let outcomes =
                perturbed_runs(params, salt, params.peers, algorithm, kind, None, |_| {
                    plan.clone()
                });
            rows.push(row(label, algorithm.to_string(), horizon, &outcomes));
        }
    }
    // Substrate realizations: the compound scenario healed through
    // imperfect oracles — a DHT directory whose entries go stale under
    // its own ring churn, and a gossip random walk.
    let compound = Plan::faults(scenarios()[3].1);
    let realized = |label: &str, salt: u64, kind: OracleKind, split: u64| {
        let hybrid = Algorithm::Hybrid;
        let outcomes = perturbed_runs(
            params,
            salt,
            params.peers,
            hybrid,
            kind,
            Some(split),
            |_| compound.clone(),
        );
        row("compound", label.to_string(), horizon, &outcomes)
    };
    let realization_rows = vec![
        realized(
            "Hybrid / directory, ring churn",
            2_950,
            OracleKind::RandomDelay,
            96,
        ),
        realized("Hybrid / gossip walk", 2_951, OracleKind::Random, 97),
    ];

    RecoveryReport {
        params: *params,
        workload: class.to_string(),
        horizon,
        rows,
        realization_rows,
    }
}

/// Observes the base ("crash", Hybrid) cell with the `lagover-obs`
/// pipeline enabled — the same seeds [`run`] uses for that cell, merged
/// over `params.runs` repetitions. Convergence here means *recovery*:
/// `converged_rounds` sums rounds from injection to full healing.
pub fn observed(params: &Params) -> lagover_obs::ObsReport {
    let class = TopologicalConstraint::Rand;
    let horizon = params.max_rounds;
    let plan = Plan::faults(scenarios()[0].1);
    // Salt of the (si = 0 "crash", ai = 1 Hybrid) cell: 2_000 + si*2 + ai.
    let salt = 2_001;
    let reports = parallel_runs(params.runs, |r| {
        let seed = params.run_seed(salt, r as u64);
        let population = satisfiable_population(class, params.peers, seed);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(params.max_rounds);
        let observed = Run::new(&population, &config, seed)
            .observe(
                crate::obs_exp::JOURNAL_CAPACITY,
                crate::obs_exp::SAMPLE_INTERVAL,
            )
            .perturb(&plan, horizon);
        let label = format!("recovery crash/hybrid {class} n={}", params.peers);
        observed.into_report(&label, population.len(), seed)
    });
    crate::obs_exp::merge_reports(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::check_sufficiency;
    use lagover_core::node::Population;

    #[test]
    fn every_scenario_heals() {
        // Full quick params: the same cells `replay-diff` exercises.
        let params = Params::quick();
        let report = run(&params);
        assert_eq!(report.rows.len(), 8);
        for row in &report.rows {
            // Every run heals but one, which cannot: run 0 of
            // crash+blackout / Greedy
            // (`the_run_that_does_not_heal_lost_what_sufficiency_needs`).
            let unhealable =
                usize::from(row.scenario == "crash+blackout" && row.algorithm == "Greedy");
            assert_eq!(
                row.recovered_runs + unhealable,
                row.total_runs,
                "{}/{} did not fully recover",
                row.scenario,
                row.algorithm
            );
            assert!(
                row.median_crashed >= 1.0,
                "{}: no interior node crashed",
                row.scenario
            );
            assert!(
                row.median_recovery_rounds < params.max_rounds as f64,
                "{}/{} recovery hit the horizon",
                row.scenario,
                row.algorithm
            );
        }
        // Silent crashes must produce at least a window of staleness.
        let base = report.row("crash", Algorithm::Hybrid);
        assert!(base.median_stale_rounds >= 1.0, "crash was not silent");
        // Realization substrates must heal the compound scenario too.
        assert_eq!(report.realization_rows.len(), 2);
        for row in &report.realization_rows {
            assert_eq!(
                row.recovered_runs, row.total_runs,
                "{} did not fully recover",
                row.algorithm
            );
        }
        assert!(report.render().contains("recovery rounds"));
        assert!(report.render().contains("gossip walk"));
    }

    #[test]
    fn the_run_that_does_not_heal_lost_what_sufficiency_needs() {
        // Run 0 of the crash+blackout / Greedy cell (cell 2 of `run`):
        // the crash takes a hub the population cannot do without, so the
        // survivors fail the §3.3 condition and no rule can heal them.
        let params = Params::quick();
        let seed = params.run_seed(2_002, 0);
        let population = satisfiable_population(TopologicalConstraint::Rand, params.peers, seed);
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
            .with_max_rounds(params.max_rounds);
        let outcome = Run::new(&population, &config, seed)
            .perturb(&Plan::faults(scenarios()[1].1), params.max_rounds)
            .outcome;
        assert!(!outcome.came_clean());
        assert!(check_sufficiency(&population).satisfied);
        let survivors = population
            .iter()
            .filter(|(p, _)| !outcome.victims.contains(p))
            .map(|(_, c)| c)
            .collect();
        let survivors = Population::new(population.source_fanout(), survivors);
        assert!(!check_sufficiency(&survivors).satisfied);
    }

    #[test]
    fn report_is_deterministic() {
        let mut params = Params::quick();
        params.runs = 2;
        assert_eq!(run(&params), run(&params));
    }
}
