//! `obs` — the unified observability timeline document (extension).
//!
//! Re-runs one representative cell of each instrumented experiment
//! (fig2, fig3, fig4, asynchrony, recovery, stabilization, streams)
//! with the `lagover-obs` pipeline fully enabled and collects the
//! merged [`ObsReport`]s into one document. Each hook reuses the *exact* seeds of its source
//! experiment, and observation is read-only, so the observed outcomes
//! are the very runs the figures report — the timeline explains the
//! numbers instead of sampling different ones.
//!
//! The document serializes deterministically (journal, scrapes, health,
//! and the cost profile are all work-counter based), so `cargo xtask
//! replay-diff` byte-compares it across thread counts and chunkings
//! like any other figure.

use lagover_jsonio::{object, Json, ToJson};
use lagover_obs::ObsReport;

use lagover_core::node::Population;
use lagover_core::{parallel_runs, ConstructionConfig, Run};

use crate::Params;

/// Journal capacity used by the observed experiment runs: large enough
/// to keep a full quick-scale run, bounded so churny runs stay small.
pub const JOURNAL_CAPACITY: usize = 8_192;

/// Scrape/health sampling interval, in rounds.
pub const SAMPLE_INTERVAL: u64 = 10;

/// Observes `params.runs` construction runs — seeded
/// `params.run_seed(salt, r)` like the source experiment — and merges
/// them, first seed's timeline kept, in seed order.
pub fn observe_construction(
    label: &str,
    params: &Params,
    salt: u64,
    make_population: impl Fn(u64) -> Population + Sync,
    make_config: impl Fn() -> ConstructionConfig + Sync,
) -> ObsReport {
    let reports = parallel_runs(params.runs, |r| {
        let seed = params.run_seed(salt, r as u64);
        let population = make_population(seed);
        let config = make_config();
        Run::new(&population, &config, seed)
            .observe(JOURNAL_CAPACITY, SAMPLE_INTERVAL)
            .construct()
            .into_report(label, population.len(), seed)
    });
    merge_reports(reports)
}

/// Folds per-run reports into one, in seed order.
///
/// # Panics
///
/// Panics on an empty list: a report of zero runs has no label.
pub fn merge_reports(reports: Vec<ObsReport>) -> ObsReport {
    let mut it = reports.into_iter();
    let mut merged = it.next().expect("at least one run to merge");
    for report in it {
        merged.merge(&report);
    }
    merged
}

/// The full `obs` document: one merged report per instrumented
/// experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsExpReport {
    /// Parameters used.
    pub params: Params,
    /// Merged per-experiment reports, in a fixed order.
    pub reports: Vec<ObsReport>,
}

impl ObsExpReport {
    /// Renders every section, separated by rules.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Observability timelines — one representative cell per instrumented experiment\n",
        );
        for report in &self.reports {
            out.push_str(&"-".repeat(72));
            out.push('\n');
            out.push_str(&report.render());
        }
        out
    }
}

impl ToJson for ObsExpReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            (
                "reports",
                Json::Array(self.reports.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

/// Runs every observed hook and bundles the result.
pub fn run(params: &Params) -> ObsExpReport {
    ObsExpReport {
        params: *params,
        reports: vec![
            crate::fig2::observed(params),
            crate::fig3::observed(params),
            crate::fig4::observed(params),
            crate::asynchrony::observed(params),
            crate::recovery::observed(params),
            crate::stabilization::observed(params),
            crate::streams::observed(params),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_covers_all_seven_experiments_and_is_deterministic() {
        let mut params = Params::quick();
        params.runs = 2;
        let report = run(&params);
        assert_eq!(report.reports.len(), 7);
        for section in &report.reports {
            assert_eq!(section.runs, 2, "{}: wrong run count", section.label);
            assert!(
                section.converged > 0,
                "{}: nothing converged",
                section.label
            );
            assert!(
                section.journal.as_ref().is_some_and(|j| !j.is_empty()),
                "{}: empty journal",
                section.label
            );
            assert!(
                !section.health.is_empty(),
                "{}: no health timeline",
                section.label
            );
            assert!(
                !section.profile.phases().is_empty(),
                "{}: empty profile",
                section.label
            );
        }
        assert_eq!(report, run(&params), "obs document must be deterministic");
        let text = report.render();
        assert!(text.contains("fig2"));
        assert!(text.contains("recovery"));
        assert!(text.contains("stabilization"));
        assert!(text.contains("streams"));
    }

    #[test]
    fn json_output_is_byte_stable() {
        let mut params = Params::quick();
        params.runs = 1;
        let report = run(&params);
        let a = lagover_jsonio::to_string_pretty(&report);
        let b = lagover_jsonio::to_string_pretty(&run(&params));
        assert_eq!(a, b);
    }
}
