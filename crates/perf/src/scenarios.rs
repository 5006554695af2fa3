//! The scenario registry: which instrumented drivers the harness runs
//! and how their reports become baseline entries.
//!
//! Every scenario reuses an `observed()` hook from
//! `lagover-experiments`, so the work units the baseline commits are
//! the *same numbers* the figures report — the perf trajectory and the
//! paper reproduction cannot drift apart. All hooks derive per-run
//! seeds from the master seed, so the work layer is byte-identical
//! across `LAGOVER_THREADS` settings and chunkings.

use lagover_core::{
    Algorithm, Constraints, ConstructionConfig, FaultScenario, OracleKind, Population, Run,
};
use lagover_experiments::{fig2, fig3, fig4, obs_exp, recovery, stabilization, streams};
use lagover_obs::ObsReport;
use lagover_workload::{TopologicalConstraint, WorkloadSpec};

use crate::baseline::{Baseline, PerfParams, ScenarioBaseline, WorkLayer, SCHEMA_VERSION};
use crate::wall;

/// Salt for the `obs` footprint scenario's run seeds (distinct from
/// every experiment salt in `lagover-experiments`).
const OBS_SALT: u64 = 7_000;

/// Pinned sizes of the scale scenarios. The `params.peers` knob does
/// not apply to them — their whole point is a fixed large-n data
/// point, and the committed `BENCH_scale.json` work units only mean
/// something at the pinned size.
const SCALE_1E5: usize = 100_000;
const SCALE_1E6: usize = 1_000_000;
/// Round cap for the scale scenarios (convergence sits far below it —
/// construction at 1e5 converges near round 90; the cap only bounds a
/// pathological non-converging run so CI fails in minutes, not hours).
const SCALE_MAX_ROUNDS: u64 = 400;
/// Interior crash fraction injected by `recovery_1e5`.
const SCALE_CRASH_FRACTION: f64 = 0.05;
/// Journal ring capacity / metric sample cadence for observed scale
/// runs — sparse on purpose, so the report stays memory-bounded at a
/// million peers.
const SCALE_JOURNAL_CAPACITY: usize = 1 << 16;
const SCALE_SAMPLE_INTERVAL: u64 = 200;

/// Every scenario the harness knows, in baseline order. The trailing
/// scale scenarios only run when named explicitly (`--scenario`); see
/// [`default_scenario_names`].
pub fn scenario_names() -> &'static [&'static str] {
    &[
        "fig2",
        "fig3",
        "fig4",
        "recovery",
        "stabilization",
        "obs",
        "streaming",
        "construction_1e5",
        "recovery_1e5",
        "construction_1e6",
    ]
}

/// The scenarios a bare `lagover-perf` invocation collects — the
/// registry minus the opt-in scale scenarios, whose pinned 1e5/1e6
/// sizes would dominate the default document's runtime.
pub fn default_scenario_names() -> &'static [&'static str] {
    &[
        "fig2",
        "fig3",
        "fig4",
        "recovery",
        "stabilization",
        "obs",
        "streaming",
    ]
}

/// The figure drivers `cargo xtask replay-diff` byte-compares across
/// parallel schedules, derived from the registry: every default
/// scenario is also a `lagover-experiments run` subcommand, plus the
/// `scaling` sweep (the widest fan-out driver, which has no baseline
/// scenario of its own) and the `nodesim` cross-validation (whose
/// report embeds the mesh-vs-twin journal, so schedule-invariance of
/// the node runtime itself is pinned byte-for-byte). The scale
/// scenarios are excluded — their schedule-invariance is checked
/// directly on `lagover-perf` output by the `construction-1e5-smoke`
/// CI job. The `streaming` scenario maps to the `streams` experiments
/// subcommand (the E19 document it reuses the observed cell of).
pub fn replay_figures() -> Vec<&'static str> {
    let mut figures: Vec<&'static str> = default_scenario_names()
        .iter()
        .map(|&n| if n == "streaming" { "streams" } else { n })
        .collect();
    let at = figures
        .iter()
        .position(|&n| n == "recovery")
        .unwrap_or(figures.len());
    figures.insert(at, "scaling");
    figures.push("nodesim");
    figures
}

/// Runs one named scenario and returns its merged observability
/// report, or `None` for an unknown name.
pub fn run_scenario(name: &str, params: &PerfParams) -> Option<ObsReport> {
    match name {
        "fig2" => Some(fig2::observed(params)),
        "fig3" => Some(fig3::observed(params)),
        "fig4" => Some(fig4::observed(params)),
        "recovery" => Some(recovery::observed(params)),
        "stabilization" => Some(stabilization::observed(params)),
        "obs" => Some(obs_footprint(params)),
        "streaming" => Some(streams::observed(params)),
        "construction_1e5" => Some(construction_at_scale(name, SCALE_1E5, params.seed)),
        "recovery_1e5" => Some(recovery_at_scale(name, SCALE_1E5, params.seed)),
        "construction_1e6" => Some(construction_at_scale(name, SCALE_1E6, params.seed)),
        _ => None,
    }
}

/// Deterministic capacity-rich population for the scale scenarios:
/// every peer offers fanout 8 and tolerates its layer's depth plus
/// four levels of slack. Each layer is filled to only a *quarter* of
/// the slots the layer above offers, so every sufficiency level keeps
/// at least 4x capacity headroom — tighter packings are satisfiable
/// but the maintenance rule detaches enough transiently-violated peers
/// that randomized construction thrashes instead of converging at
/// n >= 5000 (measured: half-filled layers with two levels of slack
/// stall below 0.72 satisfied). No RNG and no repair pass, so building
/// the population stays O(n) at a million peers.
fn layered_population(peers: usize) -> Population {
    const FANOUT: u32 = 8;
    const SLACK: u32 = 4;
    let mut constraints = Vec::with_capacity(peers);
    let mut layer = 1u32;
    let mut slots = u64::from(FANOUT); // total slots at `layer`
    let mut filled = 0u64;
    for _ in 0..peers {
        if filled == (slots / 4).max(1) {
            // Slots below come only from the peers actually placed.
            slots = filled.saturating_mul(u64::from(FANOUT));
            layer += 1;
            filled = 0;
        }
        filled += 1;
        constraints.push(Constraints::new(FANOUT, layer + SLACK));
    }
    Population::new(FANOUT, constraints)
}

/// An observed large-n Hybrid/Random-Delay construction on the
/// layered population. One run: at these sizes a single construction
/// is the statistic.
fn construction_at_scale(name: &str, peers: usize, seed: u64) -> ObsReport {
    let population = layered_population(peers);
    let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
        .with_max_rounds(SCALE_MAX_ROUNDS);
    let label = format!("{name} layered hybrid/oracle-random-delay n={peers}");
    Run::new(&population, &config, seed)
        .observe(SCALE_JOURNAL_CAPACITY, SCALE_SAMPLE_INTERVAL)
        .construct()
        .into_report(&label, peers, seed)
}

/// Large-n crash recovery on the layered population: converge, crash
/// a fraction of interior peers, and observe the healing run.
fn recovery_at_scale(name: &str, peers: usize, seed: u64) -> ObsReport {
    let population = layered_population(peers);
    let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
        .with_max_rounds(SCALE_MAX_ROUNDS);
    let label = format!("{name} layered hybrid/oracle-random-delay n={peers}");
    Run::new(&population, &config, seed)
        .observe(SCALE_JOURNAL_CAPACITY, SCALE_SAMPLE_INTERVAL)
        .recover(
            &FaultScenario {
                crash_fraction: SCALE_CRASH_FRACTION,
                ..FaultScenario::none()
            },
            SCALE_MAX_ROUNDS,
        )
        .into_report(&label, peers, seed)
}

/// The `obs` scenario: the instrumentation footprint of a fully
/// observed Rand/Hybrid construction — journal volume, scrape count,
/// and pipeline work (the committed `BENCH_obs.json` is this scenario
/// at n = 1000).
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

/// Runs every default scenario (or the `only` subset, when non-empty)
/// and assembles the baseline document. `wall_samples > 0` re-runs
/// each scenario that many times to attach the environment-tagged
/// wall-clock layer; `0` keeps the document fully deterministic. The
/// scale scenarios only run when `only` names them.
pub fn collect_baseline(params: &PerfParams, wall_samples: usize, only: &[String]) -> Baseline {
    let mut scenarios = Vec::new();
    for &name in scenario_names() {
        let selected = if only.is_empty() {
            default_scenario_names().contains(&name)
        } else {
            only.iter().any(|o| o == name)
        };
        if !selected {
            continue;
        }
        let report = run_scenario(name, params).expect("registry names are valid");
        let wall = wall::try_measure(wall_samples, || {
            run_scenario(name, params);
        });
        scenarios.push(ScenarioBaseline {
            name: name.to_string(),
            label: report.label.clone(),
            work: WorkLayer::from_report(&report),
            wall,
        });
    }
    Baseline {
        schema_version: SCHEMA_VERSION,
        params: *params,
        scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_experiments::Params;

    fn quick() -> Params {
        let mut p = Params::quick();
        p.runs = 2;
        p
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_scenario("nope", &quick()).is_none());
    }

    #[test]
    fn registry_contains_defaults_then_scale_scenarios() {
        let names = scenario_names();
        assert_eq!(
            &names[..default_scenario_names().len()],
            default_scenario_names()
        );
        for name in names {
            assert!(
                run_scenario_is_known(name),
                "registry name `{name}` has no driver"
            );
        }
        assert!(names.contains(&"construction_1e5"));
        assert!(names.contains(&"recovery_1e5"));
        assert!(names.contains(&"construction_1e6"));
    }

    /// `run_scenario` would execute the driver; for the scale names
    /// that is too heavy for a unit test, so knownness is checked via
    /// the registry order instead of a dispatch probe.
    fn run_scenario_is_known(name: &str) -> bool {
        scenario_names().contains(&name)
    }

    #[test]
    fn replay_figures_derive_from_the_default_registry() {
        let figures = replay_figures();
        for &name in default_scenario_names() {
            let driver = if name == "streaming" { "streams" } else { name };
            assert!(
                figures.contains(&driver),
                "default scenario `{name}` not replayed"
            );
        }
        assert!(figures.contains(&"scaling"), "scaling sweep rides along");
        assert!(
            figures.contains(&"nodesim"),
            "node cross-validation rides along"
        );
        assert!(
            !figures
                .iter()
                .any(|f| f.ends_with("_1e5") || f.ends_with("_1e6")),
            "scale scenarios are not experiments drivers"
        );
        assert_eq!(
            figures,
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

    #[test]
    fn layered_population_quarter_fills_levels_with_slack() {
        let population = layered_population(100);
        assert_eq!(population.len(), 100);
        let latencies = population.latencies();
        // Quarter-filled layers of a fanout-8 tree: 2 peers at layer
        // 1, 4 at layer 2, 8 at layer 3, 16 at layer 4, 32 at layer 5,
        // the rest spilling into layer 6 — each with 4 rounds of
        // latency slack.
        assert!(latencies[..2].iter().all(|&l| l == 5));
        assert!(latencies[2..6].iter().all(|&l| l == 6));
        assert!(latencies[6..14].iter().all(|&l| l == 7));
        assert!(latencies[14..30].iter().all(|&l| l == 8));
        assert!(latencies[30..62].iter().all(|&l| l == 9));
        assert!(latencies[62..].iter().all(|&l| l == 10));
        assert!(population.fanouts().iter().all(|&f| f == 8));
        let sufficiency = lagover_core::check_sufficiency(&population);
        assert!(sufficiency.satisfied, "layered population is feasible");
    }

    #[test]
    fn scale_drivers_converge_and_recover_at_test_size() {
        // The pinned 1e5/1e6 sizes are far too heavy for a unit test;
        // the same drivers at a small size exercise every code path.
        let construction = construction_at_scale("construction_test", 600, 11);
        assert_eq!(construction.converged, 1, "construction converged");
        assert!(construction.converged_rounds > 0);
        assert!(construction.journal.as_ref().is_some_and(|j| !j.is_empty()));

        let healing = recovery_at_scale("recovery_test", 600, 11);
        assert_eq!(healing.converged, 1, "overlay healed after the crash");
        assert!(healing.counters.crashes > 0, "crash was injected");
    }

    #[test]
    fn scale_drivers_are_deterministic() {
        let a = construction_at_scale("construction_test", 400, 5);
        let b = construction_at_scale("construction_test", 400, 5);
        assert_eq!(WorkLayer::from_report(&a), WorkLayer::from_report(&b));
    }

    #[test]
    fn collect_covers_the_default_registry_in_order() {
        let baseline = collect_baseline(&quick(), 0, &[]);
        let names: Vec<&str> = baseline.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, default_scenario_names());
        for s in &baseline.scenarios {
            assert!(s.wall.is_none(), "{}: wall layer off by default", s.name);
            assert!(s.work.converged > 0, "{}: nothing converged", s.name);
            assert!(
                s.work.metric("work.actions").unwrap_or(0) > 0,
                "{}: no work recorded",
                s.name
            );
            assert!(
                s.work.metric("journal.events").unwrap_or(0) > 0,
                "{}: empty journal",
                s.name
            );
        }
    }

    #[test]
    fn subset_filter_selects_scenarios() {
        let baseline = collect_baseline(&quick(), 0, &["fig2".to_string()]);
        assert_eq!(baseline.scenarios.len(), 1);
        assert_eq!(baseline.scenarios[0].name, "fig2");
    }

    #[test]
    fn work_layer_is_deterministic_across_collections() {
        let params = quick();
        let a = collect_baseline(&params, 0, &[]);
        let b = collect_baseline(&params, 0, &[]);
        assert_eq!(a, b, "work units must not depend on the run");
        assert_eq!(
            lagover_jsonio::to_string_pretty(&a),
            lagover_jsonio::to_string_pretty(&b),
        );
    }

    #[test]
    fn wall_sampling_attaches_the_layer_without_touching_work() {
        let params = quick();
        let dry = collect_baseline(&params, 0, &["fig2".to_string()]);
        let wet = collect_baseline(&params, 2, &["fig2".to_string()]);
        assert_eq!(wet.scenarios[0].work, dry.scenarios[0].work);
        let wall = wet.scenarios[0].wall.as_ref().expect("wall layer present");
        assert_eq!(wall.samples_secs.len(), 2);
    }
}
