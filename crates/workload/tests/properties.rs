//! Property-based tests for the workload generators.

use proptest::prelude::*;

use lagover_core::{
    check_sufficiency, Algorithm, ConstructionConfig, Engine, OracleKind, Population,
};
use lagover_workload::{adversarial_population, TopologicalConstraint, WorkloadSpec};

fn paper_class_strategy() -> impl Strategy<Value = TopologicalConstraint> {
    prop_oneof![
        Just(TopologicalConstraint::Tf1),
        Just(TopologicalConstraint::Rand),
        Just(TopologicalConstraint::BiCorr),
        Just(TopologicalConstraint::BiUnCorr),
    ]
}

proptest! {
    /// Every paper-class population that generates (tiny random draws
    /// can be genuinely unsatisfiable, e.g. all-zero fanouts) has the
    /// requested size, satisfies the sufficiency condition, and is
    /// deterministic in the seed.
    #[test]
    fn paper_classes_generate_valid_populations(
        class in paper_class_strategy(),
        peers in 5usize..150,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec::new(class, peers);
        match spec.generate(seed) {
            Ok(population) => {
                prop_assert_eq!(population.len(), peers);
                prop_assert!(check_sufficiency(&population).satisfied);
                prop_assert_eq!(population, spec.generate(seed).unwrap());
            }
            Err(_) => {
                // Only the random classes may fail, and only rarely; the
                // deterministic Tf1 class must always succeed.
                prop_assert!(class != TopologicalConstraint::Tf1);
                // Failure must also be deterministic.
                prop_assert!(spec.generate(seed).is_err());
            }
        }
    }

    /// BiCorr's defining correlation: strict peers (l < 3) never have
    /// broadband fanout.
    #[test]
    fn bicorr_correlation_always_holds(peers in 10usize..200, seed in any::<u64>()) {
        let population = WorkloadSpec::new(TopologicalConstraint::BiCorr, peers)
            .generate(seed)
            .unwrap();
        for (_, c) in population.iter() {
            if c.latency < 3 {
                prop_assert!(c.fanout <= 2, "strict broadband peer: {c}");
            }
            prop_assert!(matches!(c.fanout, 1 | 2 | 7 | 8));
        }
    }

    /// Tf1 populations have homogeneous fanout equal to the source
    /// fanout, and latencies form contiguous layers starting at 1.
    #[test]
    fn tf1_layer_structure(peers in 1usize..200, sf in 2u32..5, seed in any::<u64>()) {
        let population = WorkloadSpec::new(TopologicalConstraint::Tf1, peers)
            .with_source_fanout(sf)
            .generate(seed)
            .unwrap();
        let mut max_l = 0;
        for (_, c) in population.iter() {
            prop_assert_eq!(c.fanout, sf);
            max_l = max_l.max(c.latency);
        }
        for l in 1..=max_l {
            prop_assert!(
                population.iter().any(|(_, c)| c.latency == l),
                "layer {l} empty"
            );
        }
    }

    /// The adversarial family always violates sufficiency at the leaf
    /// level and has the documented size.
    #[test]
    fn adversarial_family_shape(chain in 1u32..8, hub in 1u32..8) {
        let population = adversarial_population(chain, hub).unwrap();
        prop_assert_eq!(population.len(), (chain + 1 + hub) as usize);
        let report = check_sufficiency(&population);
        prop_assert!(!report.satisfied);
        prop_assert_eq!(report.first_violation, Some(chain + 2));
    }

    /// Generated latencies are never relaxed below their drawn value's
    /// class floor (always >= 1) and fanouts are never altered by
    /// repair.
    #[test]
    fn repair_never_breaks_basic_ranges(peers in 5usize..120, seed in any::<u64>()) {
        let Ok(population) = WorkloadSpec::new(TopologicalConstraint::Rand, peers).generate(seed)
        else {
            // Genuinely unsatisfiable draw; nothing to check.
            return Ok(());
        };
        for (_, c) in population.iter() {
            prop_assert!(c.latency >= 1);
            prop_assert!(c.fanout <= 8);
        }
    }
}

/// `lagover spec --workload bicorr --peers 60`'s document: a population.
fn population_document() -> String {
    let spec = WorkloadSpec::new(TopologicalConstraint::BiCorr, 60);
    lagover_jsonio::to_string_pretty(&spec.generate(42).expect("repairable"))
}

/// The document of a 60-peer workload spec of class `class` (of six).
fn workload_document(class: usize) -> String {
    let classes = [
        TopologicalConstraint::Tf1,
        TopologicalConstraint::Rand,
        TopologicalConstraint::BiCorr,
        TopologicalConstraint::BiUnCorr,
        TopologicalConstraint::Zipf { exponent_x100: 150 },
        TopologicalConstraint::Adversarial {
            chain: 2,
            hub_fanout: 2,
        },
    ];
    lagover_jsonio::to_string(&WorkloadSpec::new(classes[class], 60))
}

fn population(text: &str) -> Option<Population> {
    lagover_jsonio::from_str(text).ok()
}

fn workload(text: &str) -> Option<Population> {
    let spec: WorkloadSpec = lagover_jsonio::from_str(text).ok()?;
    spec.generate(7).ok()
}

/// `doc` with the byte at `at` (modulo its length) xored with `flip`.
fn flipped(doc: String, at: usize, flip: u8) -> Vec<u8> {
    let mut bytes = doc.into_bytes();
    let i = at % bytes.len();
    bytes[i] ^= flip;
    bytes
}

/// The spec boundary's contract on any input: `parse` returns no
/// population, or one an engine builds on and steps 5 rounds over (a
/// panic fails the case).
fn steps_if_parsed(bytes: &[u8], parse: fn(&str) -> Option<Population>) {
    if let Some(population) = parse(&String::from_utf8_lossy(bytes)) {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
        let mut engine = Engine::new(&population, &config, 1);
        for _ in 0..5 {
            engine.step();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn population_boundary_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..=512),
    ) {
        steps_if_parsed(&bytes, population);
    }

    #[test]
    fn population_boundary_survives_one_byte_flipped(at in any::<usize>(), flip in 1u8..=255) {
        steps_if_parsed(&flipped(population_document(), at, flip), population);
    }

    #[test]
    fn workload_boundary_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..=512),
    ) {
        steps_if_parsed(&bytes, workload);
    }

    #[test]
    fn workload_boundary_survives_one_byte_flipped(
        class in 0usize..6,
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        steps_if_parsed(&flipped(workload_document(class), at, flip), workload);
    }
}
