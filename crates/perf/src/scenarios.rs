//! The scenario registry: which instrumented drivers the harness
//! runs, under which pinned parameters and gate tier, and how their
//! reports become baseline rows.
//!
//! Every scenario reuses an `observed()` hook from
//! `lagover-experiments`, so the work units the baseline commits are
//! the *same numbers* the figures report — the perf trajectory and the
//! paper reproduction cannot drift apart. All hooks derive per-run
//! seeds from the master seed, so the work layer is byte-identical
//! across `LAGOVER_THREADS` settings and chunkings.

use lagover_core::{Algorithm, ConstructionConfig, FaultScenario, OracleKind, Plan, Run};
use lagover_experiments::{fig2, fig3, fig4, obs_exp, recovery, stabilization, streams};
use lagover_obs::ObsReport;
use lagover_workload::{layered_population, TopologicalConstraint, WorkloadSpec};

use crate::baseline::{
    baseline_params, Baseline, ParamOverrides, PerfParams, ScenarioBaseline, Tier, WorkLayer,
    SCHEMA_VERSION,
};

/// Salt for the `obs` footprint scenario's run seeds (distinct from
/// every experiment salt in `lagover-experiments`).
const OBS_SALT: u64 = 7_000;

/// Interior crash fraction injected by `recovery_1e5`.
const SCALE_CRASH_FRACTION: f64 = 0.05;
/// Journal ring capacity / metric sample cadence for observed scale
/// runs — sparse on purpose, so the report stays memory-bounded at a
/// million peers.
const SCALE_JOURNAL_CAPACITY: usize = 1 << 16;
const SCALE_SAMPLE_INTERVAL: u64 = 200;

/// One registry row: a named driver with the gate tier and the
/// parameters its committed `BENCH.json` row is generated under.
pub struct Scenario {
    /// Row name (`--scenario NAME`).
    pub name: &'static str,
    /// The gate that regenerates and diffs the row.
    pub tier: Tier,
    /// The pinned parameters of the committed row.
    pub params: PerfParams,
    driver: fn(&str, &PerfParams) -> ObsReport,
}

/// The N = 1000 single-run pin of `obs_1e3` / `recovery_1e3`. The seed
/// is the one the first committed N=1k documents were generated under.
const fn pin_1e3(seed: u64) -> PerfParams {
    PerfParams {
        peers: 1_000,
        runs: 1,
        max_rounds: 2_000,
        seed,
    }
}

/// The n = 10^5 pin of the scale rows: one run — at this size a single
/// run is the statistic — under a round cap far above convergence
/// (construction converges near round 90; the cap only bounds a
/// pathological non-converging run so CI fails in minutes, not hours).
const PIN_1E5: PerfParams = PerfParams {
    peers: 100_000,
    runs: 1,
    max_rounds: 400,
    seed: 42,
};

static REGISTRY: [Scenario; 11] = [
    Scenario {
        name: "fig2",
        tier: Tier::Pr,
        params: baseline_params(),
        driver: |_, p| fig2::observed(p),
    },
    Scenario {
        name: "fig3",
        tier: Tier::Pr,
        params: baseline_params(),
        driver: |_, p| fig3::observed(p),
    },
    Scenario {
        name: "fig4",
        tier: Tier::Pr,
        params: baseline_params(),
        driver: |_, p| fig4::observed(p),
    },
    Scenario {
        name: "recovery",
        tier: Tier::Pr,
        params: baseline_params(),
        driver: |_, p| recovery::observed(p),
    },
    Scenario {
        name: "stabilization",
        tier: Tier::Pr,
        params: baseline_params(),
        driver: |_, p| stabilization::observed(p),
    },
    Scenario {
        name: "obs",
        tier: Tier::Pr,
        params: baseline_params(),
        driver: |_, p| obs_footprint(p),
    },
    Scenario {
        name: "streaming",
        tier: Tier::Pr,
        params: baseline_params(),
        driver: |_, p| streams::observed(p),
    },
    Scenario {
        name: "obs_1e3",
        tier: Tier::Pr,
        params: pin_1e3(51_132_825_602),
        driver: |_, p| obs_footprint(p),
    },
    Scenario {
        name: "recovery_1e3",
        tier: Tier::Pr,
        params: pin_1e3(51_132_825_601),
        driver: |_, p| recovery::observed(p),
    },
    Scenario {
        name: "construction_1e5",
        tier: Tier::Weekly,
        params: PIN_1E5,
        driver: construction_at_scale,
    },
    Scenario {
        name: "recovery_1e5",
        tier: Tier::Weekly,
        params: PIN_1E5,
        driver: recovery_at_scale,
    },
];

/// Every row the harness knows, in `BENCH.json` order.
pub fn registry() -> &'static [Scenario] {
    &REGISTRY
}

/// The registry's row names, in order.
pub fn scenario_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|s| s.name).collect()
}

/// The row named `name`, or `None` for an unknown name.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// The figure drivers `cargo xtask replay-diff` byte-compares across
/// parallel schedules, derived from the registry: every row at the
/// figure-sized pin ([`baseline_params`]) is also a
/// `lagover-experiments run` subcommand, plus the `scaling` sweep (the
/// widest fan-out driver, which has no row of its own) and the
/// `nodesim` cross-validation (whose report embeds the mesh-vs-twin
/// journal, so schedule-invariance of the node runtime itself is
/// pinned byte-for-byte). The `streaming` row maps to the `streams`
/// experiments subcommand (the E19 document it reuses the observed
/// cell of).
pub fn replay_figures() -> Vec<&'static str> {
    let mut figures: Vec<&'static str> = REGISTRY
        .iter()
        .filter(|s| s.params == baseline_params())
        .map(|s| {
            if s.name == "streaming" {
                "streams"
            } else {
                s.name
            }
        })
        .collect();
    let at = figures
        .iter()
        .position(|&n| n == "recovery")
        .unwrap_or(figures.len());
    figures.insert(at, "scaling");
    figures.push("nodesim");
    figures
}

/// An observed large-n Hybrid/Random-Delay construction on the
/// layered population. Always one run (`params.runs` is not read).
fn construction_at_scale(name: &str, params: &PerfParams) -> ObsReport {
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
fn recovery_at_scale(name: &str, params: &PerfParams) -> ObsReport {
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

/// The `obs` scenario: the instrumentation footprint of a fully
/// observed Rand/Hybrid construction — journal volume, scrape count,
/// and pipeline work (the `obs` row at the figure size, `obs_1e3` at
/// n = 1000).
fn obs_footprint(params: &PerfParams) -> ObsReport {
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

/// Runs every registry row (or the `only` subset, when non-empty),
/// each under its pinned parameters with `overrides` applied, and
/// assembles the baseline document. With no subset and no override
/// the result is the committed `BENCH.json`.
pub fn collect_baseline(only: &[String], overrides: &ParamOverrides) -> Baseline {
    let scenarios = REGISTRY
        .iter()
        .filter(|s| only.is_empty() || only.iter().any(|o| o == s.name))
        .map(|s| {
            let params = overrides.apply(s.params);
            let report = (s.driver)(s.name, &params);
            ScenarioBaseline {
                name: s.name.to_string(),
                tier: s.tier,
                params,
                label: report.label.clone(),
                work: WorkLayer::from_report(&report),
            }
        })
        .collect();
    Baseline {
        schema_version: SCHEMA_VERSION,
        scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ParamOverrides {
        ParamOverrides::all(PerfParams {
            runs: 2,
            ..PerfParams::quick()
        })
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(scenario("nope").is_none());
        assert_eq!(scenario("fig2").map(|s| s.name), Some("fig2"));
    }

    #[test]
    fn registry_contains_defaults_then_scale_scenarios() {
        let rows: Vec<(&str, Tier, usize)> = registry()
            .iter()
            .map(|s| (s.name, s.tier, s.params.peers))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("fig2", Tier::Pr, 120),
                ("fig3", Tier::Pr, 120),
                ("fig4", Tier::Pr, 120),
                ("recovery", Tier::Pr, 120),
                ("stabilization", Tier::Pr, 120),
                ("obs", Tier::Pr, 120),
                ("streaming", Tier::Pr, 120),
                ("obs_1e3", Tier::Pr, 1_000),
                ("recovery_1e3", Tier::Pr, 1_000),
                ("construction_1e5", Tier::Weekly, 100_000),
                ("recovery_1e5", Tier::Weekly, 100_000),
            ]
        );
    }

    #[test]
    fn replay_figures_derive_from_the_default_registry() {
        assert_eq!(
            replay_figures(),
            vec![
                "fig2",
                "fig3",
                "fig4",
                "scaling",
                "recovery",
                "stabilization",
                "obs",
                "streams",
                "nodesim"
            ]
        );
    }

    fn scale_params(peers: usize, seed: u64) -> PerfParams {
        PerfParams {
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

    #[test]
    fn collect_covers_the_default_registry_in_order() {
        let overrides = quick();
        let baseline = collect_baseline(&[], &overrides);
        let names: Vec<&str> = baseline.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, scenario_names());
        for (row, pinned) in baseline.scenarios.iter().zip(registry()) {
            assert_eq!(
                row.tier, pinned.tier,
                "{}: tier comes from the pin",
                row.name
            );
            assert_eq!(row.params, overrides.apply(pinned.params));
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
    }

    #[test]
    fn subset_filter_selects_scenarios() {
        // A partial override keeps the rest of the row's own pin.
        let seeded = ParamOverrides {
            seed: Some(9),
            ..quick()
        };
        let baseline = collect_baseline(&["obs_1e3".to_string()], &seeded);
        assert_eq!(baseline.scenarios.len(), 1);
        assert_eq!(baseline.scenarios[0].name, "obs_1e3");
        assert_eq!(baseline.scenarios[0].params.seed, 9);
    }

    #[test]
    fn work_layer_is_deterministic_across_collections() {
        let only = ["fig2".to_string(), "recovery_1e3".to_string()];
        let a = collect_baseline(&only, &quick());
        let b = collect_baseline(&only, &quick());
        assert_eq!(a, b, "work units must not depend on the run");
        assert_eq!(
            lagover_jsonio::to_string_pretty(&a),
            lagover_jsonio::to_string_pretty(&b),
        );
    }
}
