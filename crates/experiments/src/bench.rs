//! `bench` — the work-unit baseline (DESIGN.md §12).
//!
//! Runs the instrumented drivers (fig2, fig3, fig4, recovery,
//! stabilization, obs, streaming, and the n = 10^3 / 10^5 scale rows)
//! and records one row of **work units** per driver: rounds to
//! converge, engine counters, RNG draws, oracle queries and the
//! per-phase [`lagover_obs::Profiler`] deltas. Every row reuses an
//! `observed()` hook of the figure it is named after, so the work the
//! document commits is the work the figures report. Every number is a
//! deterministic function of the seed, so the document is byte-stable
//! across machines, `LAGOVER_THREADS` and chunkings, and it is checked
//! the way every other `results/` document is: regenerated and diffed.
//! Host time is not measured here; that is the `benchmark/` package's
//! job.
//!
//! The rows at the figure size run under the run's [`Params`], like
//! every other experiment; the n = 10^3 and n = 10^5 rows keep their
//! own pinned parameters whatever the run's.

use lagover_core::{Algorithm, ConstructionConfig, FaultScenario, OracleKind, Plan, Run};
use lagover_obs::ObsReport;
use lagover_workload::{layered_population, TopologicalConstraint, WorkloadSpec};

use crate::table::TextTable;
use crate::{fig2, fig3, fig4, obs_exp, recovery, stabilization, streams, Params};

/// Version stamp of the document layout: bump it whenever the metric
/// set or the row structure changes incompatibly.
pub(crate) const SCHEMA_VERSION: u64 = 2;

/// Salt for the `obs` footprint rows' run seeds (distinct from every
/// experiment salt in this crate).
const OBS_SALT: u64 = 7_000;

/// Interior crash fraction injected by `recovery_1e5`.
const SCALE_CRASH_FRACTION: f64 = 0.05;
/// Journal ring capacity / metric sample cadence for observed scale
/// runs — sparse on purpose, so the report stays memory-bounded at a
/// million peers.
const SCALE_JOURNAL_CAPACITY: usize = 1 << 16;
const SCALE_SAMPLE_INTERVAL: u64 = 200;

/// One registry row: a named driver and, for the rows not at the
/// figure size, the parameters it always runs under.
struct Scenario {
    name: &'static str,
    /// `None`: the run's parameters.
    pin: Option<Params>,
    driver: fn(&str, &Params) -> ObsReport,
}

/// The N = 1000 single-run pin of `obs_1e3` / `recovery_1e3`. The seed
/// is the one the first committed N=1k documents were generated under.
const fn pin_1e3(seed: u64) -> Option<Params> {
    Some(Params {
        peers: 1_000,
        runs: 1,
        max_rounds: 2_000,
        seed,
    })
}

/// The n = 10^5 pin of the scale rows: one run — at this size a single
/// run is the statistic — under a round cap far above convergence
/// (construction converges near round 90; the cap only bounds a
/// pathological non-converging run so CI fails in minutes, not hours).
const PIN_1E5: Params = Params {
    peers: 100_000,
    runs: 1,
    max_rounds: 400,
    seed: 42,
};

static REGISTRY: [Scenario; 11] = [
    Scenario {
        name: "fig2",
        pin: None,
        driver: |_, p| fig2::observed(p),
    },
    Scenario {
        name: "fig3",
        pin: None,
        driver: |_, p| fig3::observed(p),
    },
    Scenario {
        name: "fig4",
        pin: None,
        driver: |_, p| fig4::observed(p),
    },
    Scenario {
        name: "recovery",
        pin: None,
        driver: |_, p| recovery::observed(p),
    },
    Scenario {
        name: "stabilization",
        pin: None,
        driver: |_, p| stabilization::observed(p),
    },
    Scenario {
        name: "obs",
        pin: None,
        driver: |_, p| obs_footprint(p),
    },
    Scenario {
        name: "streaming",
        pin: None,
        driver: |_, p| streams::observed(p),
    },
    Scenario {
        name: "obs_1e3",
        pin: pin_1e3(51_132_825_602),
        driver: |_, p| obs_footprint(p),
    },
    Scenario {
        name: "recovery_1e3",
        pin: pin_1e3(51_132_825_601),
        driver: |_, p| recovery::observed(p),
    },
    Scenario {
        name: "construction_1e5",
        pin: Some(PIN_1E5),
        driver: construction_at_scale,
    },
    Scenario {
        name: "recovery_1e5",
        pin: Some(PIN_1E5),
        driver: recovery_at_scale,
    },
];

/// The deterministic layer of one row: convergence outcome plus a
/// flat, insertion-ordered list of named work-unit metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkLayer {
    /// Rounds executed, summed over the row's runs.
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
    fn from_report(report: &ObsReport) -> WorkLayer {
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
    fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// One registry row of the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// Registry name (`fig2`, `obs_1e3`, `construction_1e5`, …).
    pub name: String,
    /// The parameters the row ran under.
    pub params: Params,
    /// Human-readable description of what ran.
    pub label: String,
    /// The deterministic work-unit layer.
    pub work: WorkLayer,
}

/// The work-unit baseline document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// One row per registry entry, in registry order.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// Renders the per-row summary table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "scenario".into(),
            "peers".into(),
            "rounds".into(),
            "conv".into(),
            "actions".into(),
            "rng_draws".into(),
            "oracle".into(),
            "interact".into(),
        ]);
        for row in &self.rows {
            let metric = |name| row.work.metric(name).unwrap_or(0).to_string();
            t.row(vec![
                row.name.clone(),
                row.params.peers.to_string(),
                row.work.rounds.to_string(),
                format!("{}/{}", row.work.converged, row.params.runs),
                metric("work.actions"),
                metric("work.rng_draws"),
                metric("work.oracle_queries"),
                metric("work.interactions"),
            ]);
        }
        format!(
            "Work-unit baseline — deterministic work per instrumented driver (schema v{})\n{}",
            SCHEMA_VERSION,
            t.render()
        )
    }
}

/// Runs every registry row — the figure-size rows under `params`, the
/// others under their pins — and assembles the document.
pub fn run(params: &Params) -> BenchReport {
    collect(REGISTRY.iter().map(|s| (s, s.pin.unwrap_or(*params))))
}

fn collect<'a>(rows: impl Iterator<Item = (&'a Scenario, Params)>) -> BenchReport {
    let rows = rows
        .map(|(s, params)| {
            let report = (s.driver)(s.name, &params);
            BenchRow {
                name: s.name.to_string(),
                params,
                label: report.label.clone(),
                work: WorkLayer::from_report(&report),
            }
        })
        .collect();
    BenchReport { rows }
}

/// An observed large-n Hybrid/Random-Delay construction on the
/// layered population. Always one run (`params.runs` is not read).
fn construction_at_scale(name: &str, params: &Params) -> ObsReport {
    let peers = params.peers;
    let population = layered_population(peers);
    let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
        .with_max_rounds(params.max_rounds);
    let label = format!("{name} layered hybrid/oracle-random-delay n={peers}");
    Run::new(&population, &config, params.seed)
        .observe(SCALE_JOURNAL_CAPACITY, SCALE_SAMPLE_INTERVAL)
        .construct()
        .into_report(&label, peers, params.seed)
}

/// Large-n crash recovery on the layered population: converge, crash
/// a fraction of interior peers, and observe the healing run. Always
/// one run (`params.runs` is not read).
fn recovery_at_scale(name: &str, params: &Params) -> ObsReport {
    let peers = params.peers;
    let population = layered_population(peers);
    let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
        .with_max_rounds(params.max_rounds);
    let label = format!("{name} layered hybrid/oracle-random-delay n={peers}");
    Run::new(&population, &config, params.seed)
        .observe(SCALE_JOURNAL_CAPACITY, SCALE_SAMPLE_INTERVAL)
        .perturb(
            &Plan::faults(FaultScenario {
                crash_fraction: SCALE_CRASH_FRACTION,
                ..FaultScenario::none()
            }),
            params.max_rounds,
        )
        .into_report(&label, peers, params.seed)
}

/// The `obs` rows: the instrumentation footprint of a fully observed
/// Rand/Hybrid construction — journal volume, scrape count, and
/// pipeline work (the `obs` row at the figure size, `obs_1e3` at
/// n = 1000).
fn obs_footprint(params: &Params) -> ObsReport {
    obs_exp::observe_construction(
        &format!("obs rand hybrid/oracle-random-delay n={}", params.peers),
        params,
        OBS_SALT,
        |seed| {
            WorkloadSpec::new(TopologicalConstraint::Rand, params.peers)
                .generate(seed)
                .expect("Rand workloads are repairable")
        },
        || {
            ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                .with_max_rounds(params.max_rounds)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_defaults_then_scale_scenarios() {
        let rows: Vec<(&str, Option<usize>)> = REGISTRY
            .iter()
            .map(|s| (s.name, s.pin.map(|p| p.peers)))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("fig2", None),
                ("fig3", None),
                ("fig4", None),
                ("recovery", None),
                ("stabilization", None),
                ("obs", None),
                ("streaming", None),
                ("obs_1e3", Some(1_000)),
                ("recovery_1e3", Some(1_000)),
                ("construction_1e5", Some(100_000)),
                ("recovery_1e5", Some(100_000)),
            ]
        );
    }

    #[test]
    fn collect_covers_the_default_registry_in_order() {
        let quick = Params {
            runs: 2,
            ..Params::quick()
        };
        let report = collect(REGISTRY.iter().map(|s| (s, quick)));
        let names: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
        let registry: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        assert_eq!(names, registry);
        for row in &report.rows {
            assert_eq!(row.params, quick);
            assert!(row.work.converged > 0, "{}: nothing converged", row.name);
            assert!(
                row.work.metric("work.actions").unwrap_or(0) > 0,
                "{}: no work recorded",
                row.name
            );
            assert!(
                row.work.metric("journal.events").unwrap_or(0) > 0,
                "{}: empty journal",
                row.name
            );
        }
        let table = report.render();
        for name in registry {
            assert!(table.contains(name), "{name} missing from\n{table}");
        }
    }

    #[test]
    fn render_lists_scenarios() {
        let report = BenchReport {
            rows: vec![BenchRow {
                name: "fig3".to_string(),
                params: Params::quick(),
                label: "fig3".to_string(),
                work: WorkLayer {
                    rounds: 7,
                    converged: 1,
                    metrics: vec![("work.actions".to_string(), 42)],
                    ..WorkLayer::default()
                },
            }],
        };
        let text = report.render();
        assert!(text.contains(&format!("schema v{SCHEMA_VERSION}")), "{text}");
        assert!(text.contains("fig3"), "{text}");
        assert!(text.contains("42"), "{text}");
    }

    #[test]
    fn metric_lookup_finds_named_entries() {
        let layer = WorkLayer {
            metrics: vec![("work.actions".to_string(), 100)],
            ..WorkLayer::default()
        };
        assert_eq!(layer.metric("work.actions"), Some(100));
        assert_eq!(layer.metric("missing"), None);
    }

    fn scale_params(peers: usize, seed: u64) -> Params {
        Params {
            peers,
            seed,
            ..PIN_1E5
        }
    }

    #[test]
    fn scale_drivers_converge_and_recover_at_test_size() {
        // The pinned 1e5 size is far too heavy for a unit test; the
        // same drivers at a small size exercise every code path.
        let construction = construction_at_scale("construction_test", &scale_params(600, 11));
        assert_eq!(construction.converged, 1, "construction converged");
        assert!(construction.converged_rounds > 0);
        assert!(construction.journal.as_ref().is_some_and(|j| !j.is_empty()));

        let healing = recovery_at_scale("recovery_test", &scale_params(600, 11));
        assert_eq!(healing.converged, 1, "overlay healed after the crash");
        assert!(healing.counters.crashes > 0, "crash was injected");
    }

    /// The displacement burst sinks rooted chains far past the stamp
    /// horizon (`max_latency + 1` = 14 here); what a run observes is
    /// the exact depth all the same.
    #[test]
    fn observed_depth_does_not_saturate_at_the_stamp_horizon() {
        let population = layered_population(1_000);
        assert_eq!(population.max_latency(), 13);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
        let mut engine = lagover_core::Engine::new(&population, &config, 42);
        let mut deepest = (0, 0);
        while !engine.is_converged() {
            engine.step();
            let depth = engine.health_sample().max_depth;
            if depth > deepest.0 {
                deepest = (depth, engine.round().get());
            }
        }
        assert_eq!(deepest, (66, 5), "(max_depth, round)");
    }

    #[test]
    fn scale_drivers_are_deterministic() {
        let a = construction_at_scale("construction_test", &scale_params(400, 5));
        let b = construction_at_scale("construction_test", &scale_params(400, 5));
        assert_eq!(WorkLayer::from_report(&a), WorkLayer::from_report(&b));
    }
}
