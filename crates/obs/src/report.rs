//! The observability report: one document tying the journal, the
//! registry scrapes, the health timeline, and the cost profile
//! together.
//!
//! Reports are built per run and merged across seeds (`lagover obs
//! --runs R`); the merged report is what the CI `obs-report` job
//! byte-compares across thread counts, so everything here serializes
//! deterministically and `render` uses only fixed-width formatting.

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};
use serde::{Deserialize, Serialize};

use crate::counters::EngineCounters;
use crate::health::HealthSample;
use crate::journal::Journal;
use crate::profiler::Profiler;
use crate::registry::Scrape;

/// Everything observed about one run (or, after [`ObsReport::merge`],
/// several runs of the same configuration).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// What was observed (e.g. `"fig2 n=200"`).
    pub label: String,
    /// Population size.
    pub peers: u64,
    /// Runs aggregated into this report.
    pub runs: u64,
    /// Seed of the first aggregated run.
    pub seed: u64,
    /// Rounds executed, summed over runs.
    pub rounds: u64,
    /// Runs that converged.
    pub converged: u64,
    /// Convergence round, summed over converged runs (divide by
    /// `converged` for the mean).
    pub converged_rounds: u64,
    /// Engine counters, summed over runs.
    pub counters: EngineCounters,
    /// Cost profile, phases summed over runs.
    pub profile: Profiler,
    /// Registry scrapes from the *first* run (a representative
    /// timeline; summing timelines across seeds has no meaning).
    pub scrapes: Vec<Scrape>,
    /// Health probe timeline from the first run.
    pub health: Vec<HealthSample>,
    /// Event journal from the first run, when journaling was enabled.
    pub journal: Option<Journal>,
}

impl ObsReport {
    /// Mean convergence round over the runs that converged.
    pub fn mean_converged_round(&self) -> Option<f64> {
        (self.converged > 0).then(|| self.converged_rounds as f64 / self.converged as f64)
    }

    /// Folds another run's report into this one. Counters, the
    /// profile, and convergence tallies are summed; the timeline
    /// (scrapes, health, journal) keeps the first run's view.
    pub fn merge(&mut self, other: &ObsReport) {
        self.runs += other.runs;
        self.rounds += other.rounds;
        self.converged += other.converged;
        self.converged_rounds += other.converged_rounds;
        self.counters.merge(&other.counters);
        self.profile.merge(&other.profile);
        if self.scrapes.is_empty() {
            self.scrapes = other.scrapes.clone();
        }
        if self.health.is_empty() {
            self.health = other.health.clone();
        }
        if self.journal.is_none() {
            self.journal = other.journal.clone();
        }
    }

    /// Renders the full text report: summary, counters, cost profile,
    /// health timeline, and the tail of the journal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("observability report: {}\n", self.label));
        out.push_str(&format!(
            "peers {} | runs {} | first seed {} | rounds {}\n",
            self.peers, self.runs, self.seed, self.rounds
        ));
        match self.mean_converged_round() {
            Some(mean) => out.push_str(&format!(
                "converged {}/{} runs, mean round {mean:.2}\n",
                self.converged, self.runs
            )),
            None => out.push_str(&format!("converged 0/{} runs\n", self.runs)),
        }

        out.push_str("\nengine counters (summed over runs)\n");
        for (name, value) in self.counters.to_named() {
            out.push_str(&format!("  {name:<22} {value:>10}\n"));
        }

        if !self.profile.phases().is_empty() {
            out.push_str("\ncost profile (work units, summed over runs)\n");
            for line in self.profile.render().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }

        if !self.health.is_empty() {
            out.push_str("\nhealth timeline (first run)\n");
            out.push_str("  ");
            out.push_str(&HealthSample::render_header());
            out.push('\n');
            for sample in &self.health {
                out.push_str("  ");
                out.push_str(&sample.render_row());
                out.push('\n');
            }
        }

        if let Some(journal) = &self.journal {
            out.push_str(&format!(
                "\njournal (first run): {} events retained, {} dropped\n",
                journal.len(),
                journal.dropped()
            ));
            for (kind, count) in journal.counts_by_kind() {
                if count > 0 {
                    out.push_str(&format!("  {:<16} {count:>10}\n", kind.name()));
                }
            }
            let tail: Vec<_> = journal.iter().collect();
            let shown = tail.len().min(JOURNAL_TAIL);
            if shown > 0 {
                out.push_str(&format!("  last {shown} events:\n"));
                for event in &tail[tail.len() - shown..] {
                    out.push_str(&format!("    {event}\n"));
                }
            }
        }
        out
    }
}

/// Journal tail length shown in the rendered report.
const JOURNAL_TAIL: usize = 12;

impl ToJson for ObsReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("label", self.label.to_json()),
            ("peers", self.peers.to_json()),
            ("runs", self.runs.to_json()),
            ("seed", self.seed.to_json()),
            ("rounds", self.rounds.to_json()),
            ("converged", self.converged.to_json()),
            ("converged_rounds", self.converged_rounds.to_json()),
            ("counters", self.counters.to_json()),
            ("profile", self.profile.to_json()),
            (
                "scrapes",
                Json::Array(self.scrapes.iter().map(ToJson::to_json).collect()),
            ),
            (
                "health",
                Json::Array(self.health.iter().map(ToJson::to_json).collect()),
            ),
        ];
        if let Some(journal) = &self.journal {
            fields.push(("journal", journal.to_json()));
        }
        object(fields)
    }
}

impl FromJson for ObsReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ObsReport {
            label: String::from_json(value.get("label")?)?,
            peers: u64::from_json(value.get("peers")?)?,
            runs: u64::from_json(value.get("runs")?)?,
            seed: u64::from_json(value.get("seed")?)?,
            rounds: u64::from_json(value.get("rounds")?)?,
            converged: u64::from_json(value.get("converged")?)?,
            converged_rounds: u64::from_json(value.get("converged_rounds")?)?,
            counters: EngineCounters::from_json(value.get("counters")?)?,
            profile: Profiler::from_json(value.get("profile")?)?,
            scrapes: Vec::from_json(value.get("scrapes")?)?,
            health: Vec::from_json(value.get("health")?)?,
            journal: match value.get_opt("journal")? {
                Some(v) => Some(Journal::from_json(v)?),
                None => None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Node};
    use crate::profiler::Work;

    fn single_run_report(seed: u64, converged_at: Option<u64>) -> ObsReport {
        let mut journal = Journal::new(8);
        journal.push(Event::Attach {
            round: 0,
            child: 1,
            parent: Node::Source,
        });
        let mut profile = Profiler::new();
        profile.record(
            "construction",
            Work {
                actions: 5,
                ..Default::default()
            },
        );
        ObsReport {
            label: "test".into(),
            peers: 4,
            runs: 1,
            seed,
            rounds: 10,
            converged: converged_at.is_some() as u64,
            converged_rounds: converged_at.unwrap_or(0),
            counters: EngineCounters {
                attaches: 1,
                ..Default::default()
            },
            profile,
            scrapes: Vec::new(),
            health: vec![HealthSample {
                round: 10,
                online: 4,
                ..Default::default()
            }],
            journal: Some(journal),
        }
    }

    #[test]
    fn merge_sums_tallies_and_keeps_first_timeline() {
        let mut merged = single_run_report(1, Some(6));
        merged.merge(&single_run_report(2, Some(8)));
        merged.merge(&single_run_report(3, None));
        assert_eq!(merged.runs, 3);
        assert_eq!(merged.rounds, 30);
        assert_eq!(merged.counters.attaches, 3);
        assert_eq!(merged.profile.total().actions, 15);
        assert_eq!(merged.mean_converged_round(), Some(7.0));
        assert_eq!(merged.health.len(), 1, "first run's timeline kept");
        assert_eq!(merged.seed, 1, "first seed kept");
    }

    #[test]
    fn json_round_trip_is_byte_stable() {
        let report = single_run_report(9, Some(4));
        let json = lagover_jsonio::to_string_pretty(&report);
        let back: ObsReport = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(back, report);
        assert_eq!(lagover_jsonio::to_string_pretty(&back), json);
    }

    #[test]
    fn json_omits_journal_when_absent() {
        let mut report = single_run_report(9, None);
        report.journal = None;
        let json = lagover_jsonio::to_string(&report);
        assert!(!json.contains("\"journal\""));
        let back: ObsReport = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(back.journal, None);
    }

    #[test]
    fn render_covers_every_section() {
        let report = single_run_report(7, Some(5));
        let text = report.render();
        assert!(text.contains("observability report: test"));
        assert!(text.contains("engine counters"));
        assert!(text.contains("cost profile"));
        assert!(text.contains("health timeline"));
        assert!(text.contains("journal (first run)"));
        assert!(text.contains("r0: peer 1 <- source"));
    }
}
