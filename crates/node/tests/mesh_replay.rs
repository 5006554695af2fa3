//! Replay property: the in-process mesh, driven purely by wire
//! tokens and timers, merges to a journal byte-identical to the
//! simulator twin — the observed round clock, verbs `construct` and
//! `recover` — across seeds and at both a small (16) and a wide (120)
//! population.
//!
//! Thread counts are pinned by CI instead: the `documents` step
//! regenerates `results/nodesim.json`, which embeds this comparison,
//! under `LAGOVER_THREADS` ∈ {1, 8}, which an in-process test cannot
//! vary safely.

use proptest::prelude::*;

use lagover_core::{Algorithm, Constraints, ConstructionConfig, OracleKind, Population};
use lagover_jsonio::to_string;
use lagover_node::{run_mesh, twin, Scenario, ScenarioSpec};

/// A feasible tiered population: four peers per latency tier, fanout 3
/// (twelve child slots per tier), so construction always converges.
fn population(n: u32) -> Population {
    let constraints = (0..n).map(|i| Constraints::new(3, i / 4 + 1)).collect();
    Population::new(4, constraints)
}

fn spec(scenario: Scenario) -> ScenarioSpec {
    ScenarioSpec {
        scenario,
        config: ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
            .with_max_rounds(20_000),
        // Low enough that a pathological seed (slow heal) stays cheap:
        // the property is twin-identity, which holds just as well for
        // a capped run — both sides cut at the same round.
        max_time: 1_500.0,
        journal_capacity: 16_384,
    }
}

fn assert_construction_matches(n: u32, seed: u64) {
    let pop = population(n);
    let s = spec(Scenario::Construction);
    let run = run_mesh(&pop, &s, seed).expect("mesh completes");
    let twin = twin(&pop, &s, seed);
    assert_eq!(run.merged.report.converged_at, twin.converged_at);
    assert_eq!(run.merged.report.counters, twin.counters);
    assert_eq!(
        to_string(&run.merged.journal),
        to_string(&twin.journal),
        "n={n} seed={seed}: merged mesh journal diverged from the twin"
    );
}

fn assert_recovery_matches(n: u32, seed: u64, crash_fraction: f64) {
    let s = spec(Scenario::Recovery { crash_fraction });
    assert_recovery_spec_matches(n, seed, crash_fraction, &s);
}

fn assert_recovery_spec_matches(n: u32, seed: u64, crash_fraction: f64, s: &ScenarioSpec) {
    let pop = population(n);
    let run = run_mesh(&pop, s, seed).expect("mesh completes");
    let twin = twin(&pop, s, seed);
    assert_eq!(
        to_string(&run.merged.journal),
        to_string(&twin.journal),
        "n={n} seed={seed} f={crash_fraction} capacity={}: recovery journal diverged from the twin",
        s.journal_capacity
    );
    assert_eq!(run.merged.report.converged_at, twin.converged_at);
    assert_eq!(run.merged.report.healed_at, twin.healed_at);
    assert_eq!(run.merged.report.crashed_peers, twin.crashed_peers);
    assert_eq!(run.merged.report.counters, twin.counters);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mesh_construction_matches_twin_n16(seed in 0u64..1_000_000) {
        assert_construction_matches(16, seed);
    }

    #[test]
    fn mesh_recovery_matches_twin_n16(
        seed in 0u64..1_000_000,
        crash_fraction in 0.05f64..0.5,
    ) {
        assert_recovery_matches(16, seed, crash_fraction);
    }
}

proptest! {
    // The wide population is ~60x the work per case; fewer cases keep
    // the suite inside the tier-1 budget while still sweeping seeds.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn mesh_construction_matches_twin_n120(seed in 0u64..1_000_000) {
        assert_construction_matches(120, seed);
    }

    #[test]
    fn mesh_recovery_matches_twin_n120(seed in 0u64..1_000_000) {
        assert_recovery_matches(120, seed, 0.2);
    }
}

/// Deterministic anchors on top of the proptest sweep: the exact pair
/// of populations the issue pins, at a fixed seed, so a regression is
/// reproducible without the proptest seed file.
#[test]
fn pinned_anchor_populations_match() {
    assert_construction_matches(16, 42);
    assert_construction_matches(120, 42);
    assert_recovery_matches(16, 42, 0.25);
    assert_recovery_matches(120, 42, 0.25);
}

/// One apply can push more events than the journal ring holds — the
/// crash injection of a 15-victim cohort here, or a displacement at
/// capacity 1 or 2. The replicas hand every event on and the ring
/// applies once, at merge, so even then the merged journal (its
/// `dropped` count included) is the twin's.
#[test]
fn merged_journal_counts_every_drop_when_one_apply_outruns_the_ring() {
    for journal_capacity in [1, 2, 8] {
        let s = ScenarioSpec {
            journal_capacity,
            ..spec(Scenario::Recovery {
                crash_fraction: 0.6,
            })
        };
        assert_recovery_spec_matches(48, 7, 0.6, &s);
    }
}
