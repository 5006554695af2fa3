//! Golden-file pin: the event journal of a small fixed-seed
//! construction run, byte for byte. Any change to the protocol's event
//! emission — ordering, payloads, new or dropped events, JSON encoding
//! — shows up here as a diff against a reviewable fixture.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! LAGOVER_BLESS=1 cargo test -p lagover-core --test obs_golden
//! cargo test -p lagover-core --test obs_golden   # recompiles the fixture in
//! ```

use lagover_core::{Algorithm, ConstructionConfig, OracleKind, Run};
use lagover_workload::{TopologicalConstraint, WorkloadSpec};

const PEERS: usize = 12;
const SEED: u64 = 11;

fn journal_json() -> String {
    let population = WorkloadSpec::new(TopologicalConstraint::Rand, PEERS)
        .generate(SEED)
        .expect("repairable");
    let config =
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(400);
    let observed = Run::new(&population, &config, SEED)
        .observe(4_096, 5)
        .construct();
    assert!(
        observed.outcome.converged(),
        "the pinned run must converge so the journal is complete"
    );
    let journal = observed.trail.expect("observed").journal;
    assert_eq!(journal.dropped(), 0, "capacity covers the run");
    assert!(
        journal.len() > 10,
        "the pinned run should produce a non-trivial journal"
    );
    lagover_jsonio::to_string_pretty(&journal)
}

#[test]
fn journal_of_a_small_fixed_seed_run_matches_the_golden_file() {
    let actual = journal_json();
    if std::env::var_os("LAGOVER_BLESS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/journal_small.json"
        );
        std::fs::write(path, &actual).expect("writable golden fixture");
        return;
    }
    let expected = include_str!("golden/journal_small.json");
    assert_eq!(
        actual, expected,
        "journal drifted from the golden fixture; if the change is \
         intentional, rerun with LAGOVER_BLESS=1 and commit the diff"
    );
}

#[test]
fn golden_journal_parses_back_to_the_recorded_events() {
    let journal: lagover_obs::Journal =
        lagover_jsonio::from_str(include_str!("golden/journal_small.json"))
            .expect("golden fixture parses");
    let live = journal_json();
    let reparsed: lagover_obs::Journal = lagover_jsonio::from_str(&live).expect("live parses");
    assert_eq!(journal.len(), reparsed.len());
    assert_eq!(
        journal.counts_by_kind(),
        reparsed.counts_by_kind(),
        "fixture and live run disagree on event composition"
    );
}
