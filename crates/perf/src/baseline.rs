//! The work-unit baseline document model.
//!
//! A [`Baseline`] is what the harness emits and `cargo xtask
//! bench-gate` diffs: a schema version and one [`ScenarioBaseline`]
//! row per scenario, each carrying the gate tier and the parameters it
//! ran under beside its deterministic work layer (see the crate docs
//! and DESIGN.md §12 for the rationale).

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};
use lagover_obs::ObsReport;

/// Version stamp of the baseline document layout. `cargo xtask
/// bench-gate` refuses to diff documents with mismatched versions, so
/// bump this whenever the metric set or the row structure changes
/// incompatibly (and regenerate `BENCH.json` in the same PR).
pub const SCHEMA_VERSION: u64 = 2;

/// Experiment sizing parameters, re-exported so harness callers sit on
/// the same knobs as the figure drivers.
pub type PerfParams = lagover_experiments::Params;

/// The figure-sized pin of the registry's first seven rows. Literals
/// (not `Params::paper()`) so a figure-protocol change cannot silently
/// re-seed the perf baseline.
pub const fn baseline_params() -> PerfParams {
    PerfParams {
        peers: 120,
        runs: 5,
        max_rounds: 3_000,
        seed: 42,
    }
}

/// Per-field replacements for a row's pinned parameters — what the
/// `--peers` / `--runs` / `--seed` / `--max-rounds` / `--quick` flags
/// of `lagover-perf` and `lagover perf` parse into. `None` keeps the
/// pin; a document produced under any override is an ad-hoc run, not
/// comparable with the committed `BENCH.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParamOverrides {
    /// Replacement for [`PerfParams::peers`].
    pub peers: Option<usize>,
    /// Replacement for [`PerfParams::runs`].
    pub runs: Option<usize>,
    /// Replacement for [`PerfParams::max_rounds`].
    pub max_rounds: Option<u64>,
    /// Replacement for [`PerfParams::seed`].
    pub seed: Option<u64>,
}

impl ParamOverrides {
    /// Overrides that replace every field with `params`'s.
    pub fn all(params: PerfParams) -> Self {
        ParamOverrides {
            peers: Some(params.peers),
            runs: Some(params.runs),
            max_rounds: Some(params.max_rounds),
            seed: Some(params.seed),
        }
    }

    /// `pinned` with every overridden field replaced.
    pub fn apply(&self, pinned: PerfParams) -> PerfParams {
        PerfParams {
            peers: self.peers.unwrap_or(pinned.peers),
            runs: self.runs.unwrap_or(pinned.runs),
            max_rounds: self.max_rounds.unwrap_or(pinned.max_rounds),
            seed: self.seed.unwrap_or(pinned.seed),
        }
    }
}

/// Which gate a registry row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Regenerated and diffed on every PR by `cargo xtask bench-gate`.
    Pr,
    /// Too heavy for every PR: regenerated and diffed only by the
    /// weekly `cargo xtask bench-gate --strict`.
    Weekly,
}

impl Tier {
    /// The tier's name in the document (`"pr"` / `"weekly"`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Pr => "pr",
            Tier::Weekly => "weekly",
        }
    }
}

/// The deterministic layer of one scenario: convergence outcome plus a
/// flat, insertion-ordered list of named work-unit metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkLayer {
    /// Rounds executed, summed over the scenario's runs.
    pub rounds: u64,
    /// Runs that converged (for recovery: runs that fully healed).
    pub converged: u64,
    /// Convergence round, summed over converged runs.
    pub converged_rounds: u64,
    /// Named work-unit metrics, in a fixed emission order:
    /// `counters.*` (engine counters), `work.*` (profiler totals),
    /// `phase.*` (per-phase profiler deltas), `events.*` /
    /// `journal.*` (first-run journal), `scrape.*` (final first-run
    /// registry scrape), and the sampling tallies.
    pub metrics: Vec<(String, u64)>,
}

impl WorkLayer {
    /// Extracts the work layer from a (possibly multi-run, merged)
    /// observability report. Every value here is a deterministic
    /// function of the run seeds.
    pub fn from_report(report: &ObsReport) -> WorkLayer {
        let mut metrics = Vec::new();
        for (name, value) in report.counters.to_named() {
            metrics.push((format!("counters.{name}"), value));
        }
        for (name, value) in report.profile.total().to_named() {
            metrics.push((format!("work.{name}"), value));
        }
        for (name, value) in report.profile.to_named() {
            metrics.push((format!("phase.{name}"), value));
        }
        if let Some(journal) = &report.journal {
            metrics.push(("journal.events".to_string(), journal.len() as u64));
            metrics.push(("journal.dropped".to_string(), journal.dropped()));
            for (kind, count) in journal.counts_by_kind() {
                if count > 0 {
                    metrics.push((format!("events.{}", kind.name()), count));
                }
            }
        }
        metrics.push(("scrapes".to_string(), report.scrapes.len() as u64));
        metrics.push(("health_probes".to_string(), report.health.len() as u64));
        if let Some(last) = report.scrapes.last() {
            for (name, value) in last.to_named() {
                metrics.push((format!("scrape.{name}"), value));
            }
        }
        WorkLayer {
            rounds: report.rounds,
            converged: report.converged,
            converged_rounds: report.converged_rounds,
            metrics,
        }
    }

    /// Value of the metric `name`, if present.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// One scenario's row in the baseline document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioBaseline {
    /// Registry name (`fig2`, `obs_1e3`, `construction_1e5`, …).
    pub name: String,
    /// The gate the row belongs to.
    pub tier: Tier,
    /// The parameters the row ran under.
    pub params: PerfParams,
    /// Human-readable description of what ran.
    pub label: String,
    /// The deterministic work-unit layer (committed, diffed exactly).
    pub work: WorkLayer,
}

/// The full baseline document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Layout version; see [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Per-scenario rows, in registry order. Empty when the document
    /// was written under another schema version: its rows have a
    /// layout this build does not know.
    pub scenarios: Vec<ScenarioBaseline>,
}

impl Baseline {
    /// The scenario entry named `name`, if present.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioBaseline> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Renders the fixed-width summary table `lagover perf` prints.
    pub fn render(&self) -> String {
        let mut out = format!("perf baseline (schema v{})\n", self.schema_version);
        out.push_str(&format!(
            "{:<16} {:<6} {:>7} {:>7} {:>6} {:>10} {:>11} {:>9} {:>11}\n",
            "scenario",
            "tier",
            "peers",
            "rounds",
            "conv",
            "actions",
            "rng_draws",
            "oracle",
            "interact"
        ));
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<16} {:<6} {:>7} {:>7} {:>4}/{:<1} {:>10} {:>11} {:>9} {:>11}\n",
                s.name,
                s.tier.name(),
                s.params.peers,
                s.work.rounds,
                s.work.converged,
                s.params.runs,
                s.work.metric("work.actions").unwrap_or(0),
                s.work.metric("work.rng_draws").unwrap_or(0),
                s.work.metric("work.oracle_queries").unwrap_or(0),
                s.work.metric("work.interactions").unwrap_or(0),
            ));
        }
        out
    }
}

impl ToJson for WorkLayer {
    fn to_json(&self) -> Json {
        object(vec![
            ("rounds", self.rounds.to_json()),
            ("converged", self.converged.to_json()),
            ("converged_rounds", self.converged_rounds.to_json()),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(name, value)| (name.clone(), value.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for WorkLayer {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let metrics = match value.get("metrics")? {
            Json::Object(entries) => entries
                .iter()
                .map(|(name, v)| Ok((name.clone(), u64::from_json(v)?)))
                .collect::<Result<Vec<_>, JsonError>>()?,
            _ => return Err(JsonError("metrics must be an object".into())),
        };
        Ok(WorkLayer {
            rounds: u64::from_json(value.get("rounds")?)?,
            converged: u64::from_json(value.get("converged")?)?,
            converged_rounds: u64::from_json(value.get("converged_rounds")?)?,
            metrics,
        })
    }
}

impl ToJson for ScenarioBaseline {
    fn to_json(&self) -> Json {
        object(vec![
            ("name", self.name.to_json()),
            ("tier", self.tier.name().to_string().to_json()),
            ("params", self.params.to_json()),
            ("label", self.label.to_json()),
            ("work", self.work.to_json()),
        ])
    }
}

impl FromJson for ScenarioBaseline {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let tier = match String::from_json(value.get("tier")?)?.as_str() {
            "pr" => Tier::Pr,
            "weekly" => Tier::Weekly,
            other => return Err(JsonError(format!("unknown tier `{other}`"))),
        };
        let p = value.get("params")?;
        Ok(ScenarioBaseline {
            name: String::from_json(value.get("name")?)?,
            tier,
            params: PerfParams {
                peers: u64::from_json(p.get("peers")?)? as usize,
                runs: u64::from_json(p.get("runs")?)? as usize,
                max_rounds: u64::from_json(p.get("max_rounds")?)?,
                seed: u64::from_json(p.get("seed")?)?,
            },
            label: String::from_json(value.get("label")?)?,
            work: WorkLayer::from_json(value.get("work")?)?,
        })
    }
}

impl ToJson for Baseline {
    fn to_json(&self) -> Json {
        object(vec![
            ("schema_version", self.schema_version.to_json()),
            (
                "scenarios",
                Json::Array(self.scenarios.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for Baseline {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let schema_version = u64::from_json(value.get("schema_version")?)?;
        Ok(Baseline {
            schema_version,
            scenarios: if schema_version == SCHEMA_VERSION {
                Vec::from_json(value.get("scenarios")?)?
            } else {
                Vec::new()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> WorkLayer {
        WorkLayer {
            rounds: 40,
            converged: 5,
            converged_rounds: 35,
            metrics: vec![
                ("work.actions".to_string(), 100),
                ("work.rng_draws".to_string(), 250),
            ],
        }
    }

    #[test]
    fn baseline_json_round_trips_byte_stable() {
        let baseline = Baseline {
            schema_version: SCHEMA_VERSION,
            scenarios: vec![ScenarioBaseline {
                name: "fig2".to_string(),
                tier: Tier::Weekly,
                params: baseline_params(),
                label: "fig2 tf1".to_string(),
                work: layer(),
            }],
        };
        let json = lagover_jsonio::to_string_pretty(&baseline);
        let back: Baseline = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(back, baseline);
        assert_eq!(lagover_jsonio::to_string_pretty(&back), json);
    }

    #[test]
    fn another_schema_version_parses_to_its_version_only() {
        let v1 = r#"{"schema_version": 1, "params": {}, "scenarios": [{"name": "fig2"}]}"#;
        let doc: Baseline = lagover_jsonio::from_str(v1).expect("parses");
        assert_eq!(doc.schema_version, 1);
        assert!(doc.scenarios.is_empty());
    }

    #[test]
    fn overrides_replace_only_the_named_fields() {
        let pinned = baseline_params();
        assert_eq!(ParamOverrides::default().apply(pinned), pinned);
        let seeded = ParamOverrides {
            seed: Some(7),
            ..ParamOverrides::default()
        };
        assert_eq!(seeded.apply(pinned), PerfParams { seed: 7, ..pinned });
        let quick = PerfParams::quick();
        assert_eq!(ParamOverrides::all(quick).apply(pinned), quick);
    }

    #[test]
    fn metric_lookup_finds_named_entries() {
        let layer = layer();
        assert_eq!(layer.metric("work.actions"), Some(100));
        assert_eq!(layer.metric("missing"), None);
    }

    #[test]
    fn render_lists_scenarios() {
        let baseline = Baseline {
            schema_version: SCHEMA_VERSION,
            scenarios: vec![ScenarioBaseline {
                name: "fig3".to_string(),
                tier: Tier::Pr,
                params: baseline_params(),
                label: "fig3".to_string(),
                work: layer(),
            }],
        };
        let text = baseline.render();
        assert!(text.contains("schema v2"));
        assert!(text.contains("fig3"));
    }
}
