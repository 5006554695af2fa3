//! Population generation for each §4.1 constraint class, plus the
//! sufficiency repair loop.
//!
//! The random classes draw every peer independently, so a population
//! can overload a level; the repair then relaxes one peer of the first
//! overloaded level at a time until the §3.3 condition holds. A step
//! costs O(log n): its victim is one select in a per-level index of
//! peer ids. The loop needs no step cap: a step raises one latency by
//! one, and no latency passes [`MAX_RELAXED_LATENCY`], so n peers whose
//! latencies start at 1 or more are repaired, or found unrepairable,
//! within `(MAX_RELAXED_LATENCY - 1) · n` steps.

use lagover_core::node::{Constraints, Population};
use lagover_core::sufficiency;
use lagover_sim::SimRng;

use crate::adversarial::adversarial_population;
use crate::{GenerateError, TopologicalConstraint, WorkloadSpec};

/// Latency constraints for the random classes span 1..=10 time units
/// (§4.1: "latency constraints such that it could be anywhere between 1
/// to 10 time units").
const LATENCY_RANGE: (u32, u32) = (1, 10);
/// Latency constraints are never relaxed beyond this bound by repair,
/// so no generated latency exceeds it.
pub const MAX_RELAXED_LATENCY: u32 = 60;

/// Draws a population for `spec` from `seed`. A random class comes
/// back unrepaired, with the RNG that drew it: [`repair`] continues
/// that stream (and the tests run the reference loop over the very
/// same draws). A deterministic class comes back final, with `None`.
pub(crate) fn generate(
    spec: &WorkloadSpec,
    seed: u64,
) -> Result<(Population, Option<SimRng>), GenerateError> {
    let mut rng = SimRng::seed_from(seed ^ 0x9E37_79B9_7F4A_7C15);
    let peers: Vec<Constraints> = match spec.constraint {
        TopologicalConstraint::Tf1 => return Ok((tf1(spec.peers, spec.source_fanout), None)),
        TopologicalConstraint::Rand => (0..spec.peers)
            .map(|_| {
                Constraints::new(
                    rng.range_u32(0, 8),
                    rng.range_u32(LATENCY_RANGE.0, LATENCY_RANGE.1),
                )
            })
            .collect(),
        TopologicalConstraint::BiCorr => {
            (0..spec.peers)
                .map(|_| {
                    let latency = rng.range_u32(LATENCY_RANGE.0, LATENCY_RANGE.1);
                    // Strict peers are also weak (the systematic conflict
                    // of interest); lax peers are modem or broadband with
                    // equal probability.
                    let fanout = if latency < 3 || rng.chance(0.5) {
                        rng.range_u32(1, 2)
                    } else {
                        rng.range_u32(7, 8)
                    };
                    Constraints::new(fanout, latency)
                })
                .collect()
        }
        TopologicalConstraint::BiUnCorr => (0..spec.peers)
            .map(|_| {
                let latency = rng.range_u32(LATENCY_RANGE.0, LATENCY_RANGE.1);
                let fanout = if rng.chance(0.5) {
                    rng.range_u32(1, 2)
                } else {
                    rng.range_u32(7, 8)
                };
                Constraints::new(fanout, latency)
            })
            .collect(),
        TopologicalConstraint::Adversarial { chain, hub_fanout } => {
            return Ok((adversarial_population(chain, hub_fanout)?, None));
        }
        TopologicalConstraint::Zipf { exponent_x100 } => {
            let s_exp = f64::from(exponent_x100) / 100.0;
            // Zipf over ranks 1..=10 via inverse-CDF on the normalized
            // weights 1/k^s; rank 10 = laxest is the most common when
            // we *reverse* the rank (strict latencies are rare).
            let weights: Vec<f64> = (1..=10u32)
                .map(|k| 1.0 / f64::from(k).powf(s_exp))
                .collect();
            let total: f64 = weights.iter().sum();
            (0..spec.peers)
                .map(|_| {
                    let mut u = rng.f64() * total;
                    let mut rank = 10u32;
                    for (i, w) in weights.iter().enumerate() {
                        if u < *w {
                            rank = i as u32 + 1;
                            break;
                        }
                        u -= w;
                    }
                    // rank 1 (most probable) maps to the laxest latency.
                    let latency = 11 - rank;
                    Constraints::new(rng.range_u32(0, 8), latency)
                })
                .collect()
        }
    };
    Ok((Population::new(spec.source_fanout, peers), Some(rng)))
}

/// The *use full available capacity* workload: every peer has fanout
/// `f`, and layer `l` holds exactly `f^l` peers (`f`, `f²`, `f³`, …)
/// until `n` peers are produced, so upstream capacity is exactly
/// consumed when layers are complete.
fn tf1(n: usize, source_fanout: u32) -> Population {
    let f = source_fanout;
    let mut peers = Vec::with_capacity(n);
    let mut layer_size: u64 = u64::from(f);
    let mut latency = 1u32;
    while peers.len() < n {
        for _ in 0..layer_size {
            if peers.len() >= n {
                break;
            }
            peers.push(Constraints::new(f, latency));
        }
        layer_size *= u64::from(f);
        latency += 1;
    }
    Population::new(source_fanout, peers)
}

/// Minimally relaxes latency constraints until the §3.3 sufficiency
/// condition holds: while some level is overloaded, one random peer at
/// that level has its constraint increased by one time unit. Preserves
/// fanouts and the overall latency *shape*; documented in DESIGN.md.
///
/// The condition is [`sufficiency::check`]'s, re-evaluated each step in
/// O(levels) ([`sufficiency::level_reports`]) from per-latency
/// histograms a relaxation updates in place. The victim is the k-th
/// peer of the overloaded level in index order, k being the step's one
/// draw, found by one select in that level's [`LevelIndex`]; moving it
/// up is one remove and one insert, O(log n). No step cap is needed:
/// each step raises one latency by one, and none passes
/// [`MAX_RELAXED_LATENCY`].
///
/// # Errors
///
/// [`GenerateError::CannotSatisfy`] if a level at
/// [`MAX_RELAXED_LATENCY`] is overloaded: relaxing it would pass the
/// bound.
pub(crate) fn repair(
    population: Population,
    rng: &mut SimRng,
) -> Result<Population, GenerateError> {
    let source_fanout = population.source_fanout();
    let mut peers: Vec<Constraints> = population.iter().map(|(_, c)| c).collect();
    // A relaxed peer never passes the bound.
    let levels = population.max_latency().max(MAX_RELAXED_LATENCY) as usize + 1;
    let words = peers.len().div_ceil(64);
    let mut demand = vec![0u64; levels];
    let mut fanout_sum = vec![0u64; levels];
    let mut bits = vec![Vec::new(); levels];
    for (id, c) in peers.iter().enumerate() {
        let level = c.latency as usize;
        demand[level] += 1;
        fanout_sum[level] += u64::from(c.fanout);
        if bits[level].is_empty() {
            bits[level] = vec![0u64; words];
        }
        bits[level][id / 64] |= 1 << (id % 64);
    }
    // A level's index is built when it first holds a peer.
    let mut index: Vec<Option<LevelIndex>> = bits
        .into_iter()
        .map(|w| (!w.is_empty()).then(|| LevelIndex::from_words(w)))
        .collect();
    loop {
        let overloaded = sufficiency::level_reports(source_fanout, &demand, &fanout_sum)
            .find(|l| l.is_overloaded());
        let Some(level) = overloaded.map(|l| l.level as usize) else {
            return Ok(Population::new(source_fanout, peers));
        };
        if level >= MAX_RELAXED_LATENCY as usize {
            return Err(GenerateError::CannotSatisfy);
        }
        // An overloaded level has demand, so the draw is over a
        // non-empty range and the k-th peer exists.
        let k = rng.index(demand[level] as usize);
        let at_level = index[level]
            .as_mut()
            .expect("an overloaded level has peers");
        let victim = at_level.select(k);
        at_level.remove(victim);
        index[level + 1]
            .get_or_insert_with(|| LevelIndex::from_words(vec![0; words]))
            .insert(victim);
        peers[victim].latency += 1;
        let fanout = u64::from(peers[victim].fanout);
        demand[level] -= 1;
        demand[level + 1] += 1;
        fanout_sum[level] -= fanout;
        fanout_sum[level + 1] += fanout;
    }
}

/// The peers at one latency level as a set of ids: a bitmap, and a
/// Fenwick tree over its 64-id words' popcounts, so the k-th id in
/// index order is one descent of the tree and an insert or a remove
/// one climb, O(log n) each.
struct LevelIndex {
    words: Vec<u64>,
    /// 1-based; `tree[i]` counts the ids in words `i - lowbit(i)..i`.
    tree: Vec<usize>,
}

impl LevelIndex {
    /// The set of the ids whose bits `words` sets, in O(words).
    fn from_words(words: Vec<u64>) -> Self {
        let mut tree = vec![0; words.len() + 1];
        for i in 1..tree.len() {
            tree[i] += words[i - 1].count_ones() as usize;
            let parent = i + (i & i.wrapping_neg());
            if parent < tree.len() {
                tree[parent] += tree[i];
            }
        }
        LevelIndex { words, tree }
    }

    /// Adds `id`, absent until now.
    fn insert(&mut self, id: usize) {
        debug_assert!(
            self.words[id / 64] & 1 << (id % 64) == 0,
            "duplicate insert"
        );
        self.words[id / 64] |= 1 << (id % 64);
        let mut i = id / 64 + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Removes `id`, a member until now.
    fn remove(&mut self, id: usize) {
        debug_assert!(
            self.words[id / 64] & 1 << (id % 64) != 0,
            "remove of absent id"
        );
        self.words[id / 64] &= !(1 << (id % 64));
        let mut i = id / 64 + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// The `(k+1)`-th smallest member (`k` below the set's size).
    fn select(&self, mut k: usize) -> usize {
        // Descend to the word that holds it, taking the members of the
        // words skipped off `k`.
        let mut word = 0;
        let mut mask = self.words.len().next_power_of_two();
        while mask > 0 {
            let next = word + mask;
            if next < self.tree.len() && self.tree[next] <= k {
                word = next;
                k -= self.tree[next];
            }
            mask >>= 1;
        }
        let mut rest = self.words[word];
        for _ in 0..k {
            rest &= rest - 1; // clear the lowest set bit
        }
        word * 64 + rest.trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::check_sufficiency;

    #[test]
    fn tf1_120_is_the_paper_shape() {
        let population = tf1(120, 3);
        assert_eq!(population.len(), 120);
        // Layer sizes 3, 9, 27, 81.
        let mut counts = [0usize; 5];
        for (_, c) in population.iter() {
            assert_eq!(c.fanout, 3);
            counts[c.latency as usize] += 1;
        }
        assert_eq!(&counts[1..], &[3, 9, 27, 81]);
        let report = check_sufficiency(&population);
        assert!(report.satisfied);
        for lr in &report.levels {
            assert_eq!(lr.demand, lr.available, "Tf1 consumes all capacity");
        }
    }

    #[test]
    fn tf1_partial_layer_is_still_sufficient() {
        let population = tf1(100, 3);
        assert_eq!(population.len(), 100);
        assert!(check_sufficiency(&population).satisfied);
    }

    #[test]
    fn rand_populations_are_sufficient_and_in_range() {
        for seed in 0..10 {
            let spec = WorkloadSpec::new(TopologicalConstraint::Rand, 120);
            let population = spec.generate(seed).unwrap();
            assert!(check_sufficiency(&population).satisfied, "seed {seed}");
            for (_, c) in population.iter() {
                assert!(c.fanout <= 8);
                assert!((1..=MAX_RELAXED_LATENCY).contains(&c.latency));
            }
        }
    }

    #[test]
    fn bicorr_strict_peers_are_weak() {
        let spec = WorkloadSpec::new(TopologicalConstraint::BiCorr, 200);
        let population = spec.generate(3).unwrap();
        assert!(check_sufficiency(&population).satisfied);
        let mut saw_high = false;
        for (_, c) in population.iter() {
            assert!(
                matches!(c.fanout, 1 | 2 | 7 | 8),
                "bimodal fanout violated: {c}"
            );
            if c.latency < 3 {
                assert!(c.fanout <= 2, "strict peer with broadband fanout: {c}");
            }
            saw_high |= c.fanout >= 7;
        }
        assert!(saw_high, "no broadband peers generated");
    }

    #[test]
    fn biuncorr_has_strict_broadband_peers() {
        // The contrast with BiCorr: strict latency does NOT imply low
        // fanout. With 400 peers at least one strict broadband peer
        // appears with overwhelming probability. Note repair can push a
        // level-1 or level-2 peer upward, so scan several seeds.
        let mut found = false;
        for seed in 0..5 {
            let spec = WorkloadSpec::new(TopologicalConstraint::BiUnCorr, 400);
            let population = spec.generate(seed).unwrap();
            assert!(check_sufficiency(&population).satisfied);
            found |= population
                .iter()
                .any(|(_, c)| c.latency < 3 && c.fanout >= 7);
        }
        assert!(found, "no strict broadband peer in any seed");
    }

    /// The repair loop as first written — every step re-checks a fresh
    /// `Population` and collects the candidates — kept as the reference
    /// [`repair`] must reproduce draw for draw. Like [`repair`], it is
    /// bounded by its own rule: it ends once no candidate is left below
    /// [`MAX_RELAXED_LATENCY`].
    fn repair_reference(
        population: Population,
        rng: &mut SimRng,
    ) -> Result<Population, GenerateError> {
        let source_fanout = population.source_fanout();
        let mut peers: Vec<Constraints> = population.iter().map(|(_, c)| c).collect();
        loop {
            let current = Population::new(source_fanout, peers.clone());
            let report = sufficiency::check(&current);
            let Some(level) = report.first_violation else {
                return Ok(current);
            };
            let candidates: Vec<usize> = peers
                .iter()
                .enumerate()
                .filter(|(_, c)| c.latency == level && c.latency < MAX_RELAXED_LATENCY)
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                return Err(GenerateError::CannotSatisfy);
            }
            let victim = candidates[rng.index(candidates.len())];
            peers[victim].latency += 1;
        }
    }

    const RANDOM_CLASSES: [TopologicalConstraint; 4] = [
        TopologicalConstraint::Rand,
        TopologicalConstraint::BiCorr,
        TopologicalConstraint::BiUnCorr,
        TopologicalConstraint::Zipf { exponent_x100: 150 },
    ];

    /// Repairs `population` with both loops from `rng` and asserts they
    /// agree, draws included; returns the repair's result.
    fn repair_like_the_reference(
        population: Population,
        rng: SimRng,
        context: &str,
    ) -> Result<Population, GenerateError> {
        let (mut rng, mut reference_rng) = (rng.clone(), rng);
        let repaired = repair(population.clone(), &mut rng);
        assert_eq!(
            repaired,
            repair_reference(population, &mut reference_rng),
            "{context}"
        );
        assert_eq!(rng, reference_rng, "{context}: the same draws");
        repaired
    }

    fn assert_repair_matches_reference(peers: usize, seeds: std::ops::Range<u64>) {
        for constraint in RANDOM_CLASSES {
            let spec = WorkloadSpec::new(constraint, peers);
            for seed in seeds.clone() {
                let Ok((population, Some(rng))) = generate(&spec, seed) else {
                    panic!("{constraint:?} is a random class");
                };
                let context = format!("{constraint:?}, n = {peers}, seed {seed}");
                let _ = repair_like_the_reference(population, rng, &context);
            }
        }
    }

    #[test]
    fn repair_reproduces_the_reference_loop() {
        assert_repair_matches_reference(120, 0..20);
        assert_repair_matches_reference(1_000, 0..20);

        // A proptest regression: 11 Rand peers whose fanouts cannot
        // carry them, so relaxation climbs to the bound and gives up.
        let spec = WorkloadSpec::new(TopologicalConstraint::Rand, 11);
        let Ok((population, Some(rng))) = generate(&spec, 9_204_441_872_613_338_733) else {
            panic!("Rand is a random class");
        };
        assert_eq!(
            repair_like_the_reference(population, rng, "the regression"),
            Err(GenerateError::CannotSatisfy)
        );

        // Source fanout 2 feeds level 1, which holds six fanout-1 peers:
        // it overloads first, and its overflow then overloads levels 2
        // and 3 in turn, which have peers of their own. The ids of the
        // levels interleave and span several words.
        let peers: Vec<Constraints> = (0..150u32)
            .map(|i| match i % 5 {
                0 | 1 if i < 15 => Constraints::new(1, 1),
                2 => Constraints::new(1, 2),
                3 => Constraints::new(2, 3),
                _ => Constraints::new(3, 5),
            })
            .collect();
        let population = Population::new(2, peers);
        assert_eq!(sufficiency::check(&population).first_violation, Some(1));
        for seed in 0..20 {
            let context = format!("several overloaded levels, seed {seed}");
            let repaired =
                repair_like_the_reference(population.clone(), SimRng::seed_from(seed), &context)
                    .expect("the fanout-3 peers carry everybody");
            assert!(check_sufficiency(&repaired).satisfied, "{context}");
            let relaxed: std::collections::BTreeSet<u32> = population
                .iter()
                .zip(repaired.iter())
                .filter(|((_, before), (_, after))| after.latency > before.latency)
                .map(|((_, before), _)| before.latency)
                .collect();
            assert!(relaxed.len() >= 3, "{context}: relaxed from {relaxed:?}");
        }
    }

    #[test]
    fn level_index_tracks_a_sorted_vec_through_churn() {
        // 31 whole words plus 16 bits; both sides of every word seam
        // the churn visits, and the two ends.
        const UNIVERSE: usize = 2_000;
        const SEAMS: [usize; 10] = [0, 1, 63, 64, 65, 511, 512, 513, 1_984, 1_999];
        let check = |set: &LevelIndex, reference: &[usize]| {
            for (k, &id) in reference.iter().enumerate() {
                assert_eq!(set.select(k), id, "select({k})");
            }
        };
        let mut words = vec![0u64; UNIVERSE.div_ceil(64)];
        for id in SEAMS {
            words[id / 64] |= 1 << (id % 64);
        }
        let mut set = LevelIndex::from_words(words);
        let mut reference: Vec<usize> = SEAMS.to_vec();
        check(&set, &reference);
        let mut x = 3u64;
        for step in 0..4_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Every fourth toggle lands on a seam, the rest anywhere.
            let id = if step % 4 == 0 {
                SEAMS[(x >> 40) as usize % SEAMS.len()]
            } else {
                (x >> 40) as usize % UNIVERSE
            };
            match reference.binary_search(&id) {
                Ok(pos) => {
                    set.remove(id);
                    reference.remove(pos);
                }
                Err(pos) => {
                    set.insert(id);
                    reference.insert(pos, id);
                }
            }
            if step % 97 == 0 {
                check(&set, &reference);
            }
        }
        check(&set, &reference);
        // Emptied to nothing, then refilled from the top down.
        for id in reference.drain(..) {
            set.remove(id);
        }
        for id in (0..UNIVERSE).rev().step_by(7) {
            set.insert(id);
            reference.insert(0, id);
        }
        check(&set, &reference);
    }

    fn assert_every_random_class_generates(peers: usize) {
        for constraint in RANDOM_CLASSES {
            let population = WorkloadSpec::new(constraint, peers)
                .generate(7)
                .unwrap_or_else(|e| panic!("{constraint:?}, n = {peers}: {e}"));
            assert_eq!(population.len(), peers);
            assert!(check_sufficiency(&population).satisfied, "{constraint:?}");
        }
    }

    #[test]
    fn every_random_class_generates_at_thirty_thousand_peers() {
        assert_every_random_class_generates(30_000);
    }

    #[test]
    #[ignore = "four populations of a million peers: seconds in a release \
                build; the weekly CI job runs it with --release"]
    fn every_random_class_generates_at_a_million_peers() {
        assert_every_random_class_generates(1_000_000);
    }

    #[test]
    #[ignore = "minutes of the quadratic reference loop in a debug build; \
                the weekly CI job runs it with --release"]
    fn repair_reproduces_the_reference_loop_at_ten_thousand_peers() {
        assert_repair_matches_reference(10_000, 0..20);
    }

    #[test]
    fn repair_relaxes_overloaded_levels_only_upward() {
        // A population that badly overloads level 1: 20 peers at l=1,
        // source fanout 3.
        let peers = vec![Constraints::new(2, 1); 20];
        let population = Population::new(3, peers);
        let mut rng = SimRng::seed_from(1);
        let repaired = repair(population, &mut rng).unwrap();
        assert!(check_sufficiency(&repaired).satisfied);
        // Latencies only ever increase, and exactly 3 stay at level 1.
        let at_l1 = repaired.iter().filter(|(_, c)| c.latency == 1).count();
        assert_eq!(at_l1, 3);
    }

    #[test]
    fn repair_gives_up_on_zero_capacity() {
        // Total capacity 1 (source) + 0 (peers): only one peer can ever
        // attach; the rest can never be placed at any level.
        let peers = vec![Constraints::new(0, 1); 5];
        let population = Population::new(1, peers);
        let mut rng = SimRng::seed_from(2);
        assert_eq!(
            repair(population, &mut rng),
            Err(GenerateError::CannotSatisfy)
        );
    }

    #[test]
    fn zipf_latencies_are_skewed_toward_lax() {
        let spec = WorkloadSpec::new(TopologicalConstraint::Zipf { exponent_x100: 150 }, 400);
        let population = spec.generate(6).unwrap();
        assert!(check_sufficiency(&population).satisfied);
        let lax = population.iter().filter(|(_, c)| c.latency >= 8).count();
        let strict = population.iter().filter(|(_, c)| c.latency <= 3).count();
        assert!(
            lax > 3 * strict,
            "Zipf skew missing: {lax} lax vs {strict} strict"
        );
    }

    #[test]
    fn zipf_exponent_zero_is_roughly_uniform() {
        let spec = WorkloadSpec::new(TopologicalConstraint::Zipf { exponent_x100: 0 }, 500);
        let population = spec.generate(8).unwrap();
        // With s = 0 every latency 1..=10 is equally likely pre-repair.
        let high = population.iter().filter(|(_, c)| c.latency >= 6).count();
        assert!((150..=350).contains(&high), "high-latency count {high}");
    }

    #[test]
    fn adversarial_size_matches_family_parameters() {
        let spec = WorkloadSpec::new(
            TopologicalConstraint::Adversarial {
                chain: 2,
                hub_fanout: 2,
            },
            1, // ignored
        );
        let population = spec.generate(0).unwrap();
        assert_eq!(population.len(), 5);
    }
}
