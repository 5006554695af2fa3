//! The §3.3 sufficiency condition for the existence of a LagOver, plus
//! an exact feasibility checker used to demonstrate that the condition
//! is sufficient but *not* necessary (§3.3.1).
//!
//! With `N_l` the set of nodes whose latency constraint is exactly `l`
//! (and `N_0 = {source}`), the paper's lemma states that all constraints
//! can be met level by level if
//!
//! ```text
//! |N_l| <= sum_{p in N_{l-1}} f_p + sum_{l' < l-1} ( sum_{p in N_{l'}} f_p - |N_{l'+1}| )
//! ```
//!
//! i.e. each level fits in the fanout of the previous level plus the
//! accumulated surplus of all earlier levels. [`check`] evaluates the
//! telescoped form of that inequality; [`exact_feasibility`] does a
//! backtracking search over depth assignments for small populations.

use serde::{Deserialize, Serialize};

use crate::node::{PeerId, Population};

/// Per-level bookkeeping of the sufficiency evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelReport {
    /// The latency value `l` of this level.
    pub level: u32,
    /// `|N_l|` — nodes demanding this level.
    pub demand: u64,
    /// Capacity available to this level (previous level's fanout plus
    /// carried surplus).
    pub available: u64,
}

impl LevelReport {
    /// Whether demand exceeds availability: the condition fails here.
    pub fn is_overloaded(&self) -> bool {
        self.demand > self.available
    }
}

/// Outcome of the sufficiency check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SufficiencyReport {
    /// Whether the condition holds at every level.
    pub satisfied: bool,
    /// The first level where demand exceeded availability, if any.
    pub first_violation: Option<u32>,
    /// Per-level detail, for levels `1..=max_latency`.
    pub levels: Vec<LevelReport>,
}

/// Evaluates the §3.3 sufficiency condition.
///
/// # Example
///
/// ```
/// use lagover_core::node::{Constraints, Population};
/// use lagover_core::sufficiency::check;
///
/// // Source feeds 1; a chain of two peers fits.
/// let pop = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(0, 2)]);
/// assert!(check(&pop).satisfied);
///
/// // Two peers demanding level 1 from a fanout-1 source do not.
/// let pop = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(1, 1)]);
/// let report = check(&pop);
/// assert!(!report.satisfied);
/// assert_eq!(report.first_violation, Some(1));
/// ```
pub fn check(population: &Population) -> SufficiencyReport {
    let max_l = population.max_latency();
    let mut demand = vec![0u64; max_l as usize + 1];
    let mut fanout_sum = vec![0u64; max_l as usize + 1];
    for (_, c) in population.iter() {
        demand[c.latency as usize] += 1;
        fanout_sum[c.latency as usize] += u64::from(c.fanout);
    }
    let levels: Vec<LevelReport> =
        level_reports(population.source_fanout(), &demand, &fanout_sum).collect();
    let first_violation = levels.iter().find(|l| l.is_overloaded()).map(|l| l.level);
    SufficiencyReport {
        satisfied: first_violation.is_none(),
        first_violation,
        levels,
    }
}

/// The telescoped condition, level by level, over per-latency
/// histograms: `demand[l]` is `|N_l|` and `fanout_sum[l]` the total
/// fanout of `N_l`, for `l` in `1..demand.len()` (index 0 is unused —
/// the source's fanout is passed apart). What [`check`] evaluates, for
/// a caller that keeps the histograms itself and re-evaluates after
/// every small change, in O(levels).
pub fn level_reports<'a>(
    source_fanout: u32,
    demand: &'a [u64],
    fanout_sum: &'a [u64],
) -> impl Iterator<Item = LevelReport> + 'a {
    // Capacity the previous level's members contribute.
    let mut prev_fanout = u64::from(source_fanout);
    // Surplus carried from all earlier levels (none past an
    // overloaded one).
    let mut surplus: u64 = 0;
    (1..demand.len()).map(move |l| {
        let available = prev_fanout + surplus;
        surplus = available.saturating_sub(demand[l]);
        prev_fanout = fanout_sum[l];
        LevelReport {
            level: l as u32,
            demand: demand[l],
            available,
        }
    })
}

/// A feasible depth assignment: `depths[i]` is the depth (= delay) of
/// peer `i`, with `1 <= depths[i] <= l_i`.
pub type DepthAssignment = Vec<u32>;

/// Exhaustively decides whether *any* LagOver exists for the population,
/// returning a witness depth assignment if so.
///
/// A depth profile is realizable as a tree iff, level by level, the
/// number of nodes at depth `d+1` is at most the total fanout of the
/// nodes placed at depth `d` (children can be distributed arbitrarily).
/// The search branches on which peers sit at each depth, pruning
/// dominated choices; intended for populations of at most ~16 peers
/// (the §3.3.1 counter-example has 5).
///
/// # Panics
///
/// Panics if the population exceeds 24 peers — use [`check`] or the
/// construction algorithms for large instances.
pub fn exact_feasibility(population: &Population) -> Option<DepthAssignment> {
    assert!(
        population.len() <= 24,
        "exact feasibility search is exponential; population too large"
    );
    let n = population.len();
    let constraints: Vec<(u32, u32)> = population
        .iter()
        .map(|(_, c)| (c.fanout, c.latency))
        .collect();
    let mut depths = vec![0u32; n];
    let all_mask: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    search(
        &constraints,
        all_mask,
        1,
        u64::from(population.source_fanout()),
        &mut depths,
    )
    .then_some(depths)
}

/// Recursive level-filling search. `remaining` is the bitmask of
/// unplaced peers, `depth` the level being filled, `slots` the capacity
/// available at this level.
fn search(
    constraints: &[(u32, u32)],
    remaining: u32,
    depth: u32,
    slots: u64,
    depths: &mut [u32],
) -> bool {
    if remaining == 0 {
        return true;
    }
    // Any peer whose deadline is the current depth must be placed now.
    let mut must: Vec<usize> = Vec::new();
    let mut optional: Vec<usize> = Vec::new();
    for (i, &(_, l)) in constraints.iter().enumerate() {
        if remaining & (1 << i) != 0 {
            if l == depth {
                must.push(i);
            } else if l > depth {
                optional.push(i);
            } else {
                // Deadline already passed: infeasible on this branch.
                return false;
            }
        }
    }
    if (must.len() as u64) > slots {
        return false;
    }
    let extra_slots = (slots - must.len() as u64).min(optional.len() as u64) as usize;
    // Enumerate subsets of `optional` of size up to `extra_slots`.
    // Iterate sizes descending: filling more early tends to succeed
    // sooner, and the empty subset is still tried for completeness.
    let mut chosen: Vec<usize> = Vec::new();
    for size in (0..=extra_slots).rev() {
        chosen.clear();
        if choose_and_recurse(
            constraints,
            remaining,
            depth,
            &must,
            &optional,
            size,
            0,
            &mut chosen,
            depths,
        ) {
            return true;
        }
    }
    false
}

/// Enumerates `size`-subsets of `optional[start..]` into `chosen` and
/// recurses on each completed placement.
#[allow(clippy::too_many_arguments)]
fn choose_and_recurse(
    constraints: &[(u32, u32)],
    remaining: u32,
    depth: u32,
    must: &[usize],
    optional: &[usize],
    size: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    depths: &mut [u32],
) -> bool {
    if chosen.len() == size {
        let mut next_remaining = remaining;
        let mut next_slots: u64 = 0;
        for &i in must.iter().chain(chosen.iter()) {
            next_remaining &= !(1 << i);
            next_slots += u64::from(constraints[i].0);
            depths[i] = depth;
        }
        if next_remaining == 0 {
            return true;
        }
        if next_slots > 0 && search(constraints, next_remaining, depth + 1, next_slots, depths) {
            return true;
        }
        return false;
    }
    let needed = size - chosen.len();
    if optional.len() - start < needed {
        return false;
    }
    for idx in start..optional.len() {
        chosen.push(optional[idx]);
        if choose_and_recurse(
            constraints,
            remaining,
            depth,
            must,
            optional,
            size,
            idx + 1,
            chosen,
            depths,
        ) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// Validates that `depths` is a realizable assignment for `population`:
/// every depth within the peer's deadline, and every level fitting in
/// the previous level's fanout.
pub fn validate_assignment(population: &Population, depths: &[u32]) -> Result<(), String> {
    if depths.len() != population.len() {
        return Err("assignment length mismatch".into());
    }
    let max_d = depths.iter().copied().max().unwrap_or(0);
    let mut count = vec![0u64; max_d as usize + 1];
    let mut fanout = vec![0u64; max_d as usize + 1];
    for (i, &d) in depths.iter().enumerate() {
        let p = PeerId::new(i as u32);
        let c = population.constraints(p);
        if d == 0 || d > c.latency {
            return Err(format!("{p} at depth {d} violates l={}", c.latency));
        }
        count[d as usize] += 1;
        fanout[d as usize] += u64::from(c.fanout);
    }
    let mut capacity = u64::from(population.source_fanout());
    for d in 1..=max_d as usize {
        if count[d] > capacity {
            return Err(format!(
                "level {d}: {} nodes exceed capacity {capacity}",
                count[d]
            ));
        }
        capacity = fanout[d];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Constraints;

    fn pop(source_fanout: u32, specs: &[(u32, u32)]) -> Population {
        Population::new(
            source_fanout,
            specs.iter().map(|&(f, l)| Constraints::new(f, l)).collect(),
        )
    }

    #[test]
    fn tf1_population_is_exactly_sufficient() {
        // 3 peers at l=1..4 layers: 3, 9, 27 (fanout 3 each), capacity
        // exactly consumed.
        let mut specs = Vec::new();
        for (l, count) in [(1u32, 3usize), (2, 9), (3, 27)] {
            for _ in 0..count {
                specs.push((3u32, l));
            }
        }
        let population = pop(3, &specs);
        let report = check(&population);
        assert!(report.satisfied);
        // Exactly zero slack everywhere.
        for lr in &report.levels {
            assert_eq!(lr.demand, lr.available, "level {}", lr.level);
        }
    }

    #[test]
    fn surplus_carries_forward() {
        // Source fanout 3 but only one l=1 node; the two spare source
        // slots serve l=3 demand even though N_2 contributes nothing.
        let population = pop(3, &[(0, 1), (0, 3), (0, 3)]);
        let report = check(&population);
        assert!(report.satisfied, "{report:?}");
    }

    #[test]
    fn overload_is_reported_at_first_failing_level() {
        let population = pop(1, &[(1, 1), (0, 2), (0, 2)]);
        let report = check(&population);
        assert!(!report.satisfied);
        assert_eq!(report.first_violation, Some(2));
    }

    #[test]
    fn counter_example_structure_fails_sufficiency_but_is_feasible() {
        // The §3.3.1-style instance (latencies adjusted per DESIGN.md):
        // {0_1, 1(f1,l1), 2(f1,l2), 3(f2,l4), 4(f1,l4), 5(f0,l4)}.
        // Level demand: N_4 = 3, but N_3 is empty — the level-by-level
        // condition fails, yet the chain 0->1->2->3->{4,5} satisfies
        // everyone.
        let population = pop(1, &[(1, 1), (1, 2), (2, 4), (1, 4), (0, 4)]);
        let report = check(&population);
        assert!(!report.satisfied, "sufficiency should fail: {report:?}");
        let depths = exact_feasibility(&population).expect("instance is feasible");
        validate_assignment(&population, &depths).unwrap();
    }

    #[test]
    fn exact_feasibility_detects_infeasible() {
        // Two l=1 peers, fanout-1 source.
        let population = pop(1, &[(1, 1), (1, 1)]);
        assert!(exact_feasibility(&population).is_none());
    }

    #[test]
    fn exact_feasibility_matches_sufficiency_on_satisfied_instances() {
        // Sufficiency => feasibility (the lemma's direction).
        let cases: Vec<Vec<(u32, u32)>> = vec![
            vec![(2, 1), (1, 2), (0, 2), (0, 3)],
            vec![(1, 1), (1, 2), (1, 3), (1, 4)],
            vec![(3, 1), (0, 2), (0, 2), (0, 2)],
        ];
        for specs in cases {
            let population = pop(2, &specs);
            if check(&population).satisfied {
                let depths = exact_feasibility(&population)
                    .unwrap_or_else(|| panic!("sufficient but not feasible: {specs:?}"));
                validate_assignment(&population, &depths).unwrap();
            }
        }
    }

    #[test]
    fn validate_assignment_rejects_bad_depths() {
        let population = pop(1, &[(1, 1), (0, 2)]);
        assert!(validate_assignment(&population, &[1, 2]).is_ok());
        assert!(
            validate_assignment(&population, &[2, 2]).is_err(),
            "deadline"
        );
        assert!(validate_assignment(&population, &[1]).is_err(), "length");
        assert!(
            validate_assignment(&population, &[1, 1]).is_err(),
            "level capacity"
        );
        assert!(
            validate_assignment(&population, &[0, 1]).is_err(),
            "depth 0"
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exact_feasibility_guards_population_size() {
        let specs = vec![(1u32, 5u32); 25];
        exact_feasibility(&pop(3, &specs));
    }
}
