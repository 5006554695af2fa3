//! Forest carving: k interior-disjoint dissemination trees over one
//! constructed LagOver.
//!
//! "Deterministic Near-Optimal P2P Streaming" stripes a sustained
//! stream across multiple trees such that every node is **interior**
//! (has children) in at most one tree and a **leaf** in all others; a
//! node's whole upload budget then concentrates on the single tree it
//! forwards, and the per-tree capacities add up to near-optimal
//! throughput. This module carves such a forest out of an existing
//! overlay:
//!
//! * rooted peers are ordered by their base-overlay delay (ties by id)
//!   so low-latency peers land near each tree's root,
//! * the ordered peers are dealt round-robin into k disjoint *interior
//!   groups* — group i supplies the interior of tree i and nothing
//!   else, which makes interior-disjointness true by construction,
//! * each tree is then built breadth-first: the source first (it is
//!   interior in every tree), then group i's members in delay order,
//!   then everyone else as leaves.
//!
//! Capacities generalize the paper's fanout constraint into a
//! bandwidth budget `b_v` (chunks per round a node can upload). With a
//! publish rate of `rate` chunks per round striped over k trees, an
//! interior node of tree i forwards `rate / k` chunks per round to
//! each child, so it can serve `⌊b_v · k / rate⌋` children; the
//! source, interior everywhere, splits its budget evenly and serves
//! `⌊b_src / rate⌋` direct children per tree.
//!
//! Carving is **pure**: it reads the overlay and never mutates it, and
//! it draws no randomness — the same overlay, budgets, and k always
//! yield the same forest, byte for byte.

use crate::node::{Member, PeerId, Population};
use crate::overlay::Overlay;

use std::collections::VecDeque;
use std::fmt;

/// Per-node upload budgets, in chunks per round.
///
/// The streaming generalization of the paper's fanout constraint: a
/// fanout of `f` at one item per round is exactly a budget of `f`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamBudgets {
    /// Chunks per round the source can upload (split across all trees).
    pub source: u64,
    /// Chunks per round each peer can upload, indexed by peer id.
    pub peers: Vec<u64>,
}

impl StreamBudgets {
    /// Budgets derived from the population's fanout constraints scaled
    /// by `per_unit` — fanout `f` becomes budget `f · per_unit`, and
    /// the source fanout likewise. `per_unit = rate` reproduces the
    /// single-tree feed regime exactly.
    pub fn from_fanouts(population: &Population, per_unit: u64) -> Self {
        StreamBudgets {
            source: u64::from(population.source_fanout()) * per_unit,
            peers: population
                .fanouts()
                .iter()
                .map(|&f| u64::from(f) * per_unit)
                .collect(),
        }
    }

    /// A uniform budget: every peer uploads at most `per_peer`, the
    /// source at most `source`.
    pub fn uniform(n: usize, per_peer: u64, source: u64) -> Self {
        StreamBudgets {
            source,
            peers: vec![per_peer; n],
        }
    }
}

/// Why a forest could not be carved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CarveError {
    /// `k == 0` — a forest needs at least one tree.
    ZeroTrees,
    /// `rate == 0` — a stream needs at least one chunk per round.
    ZeroRate,
    /// Tree `tree`'s interior group (plus the source) cannot seat every
    /// rooted peer: `capacity` child slots for `required` peers.
    Infeasible {
        /// The tree that cannot be built.
        tree: usize,
        /// Child slots its interior group and the source provide.
        capacity: u64,
        /// Rooted peers that each need a slot.
        required: u64,
    },
}

impl fmt::Display for CarveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CarveError::ZeroTrees => f.write_str("cannot carve a forest of zero trees"),
            CarveError::ZeroRate => f.write_str("cannot stripe a stream of zero chunks per round"),
            CarveError::Infeasible {
                tree,
                capacity,
                required,
            } => write!(
                f,
                "tree {tree} infeasible: {capacity} child slots for {required} peers"
            ),
        }
    }
}

/// One carved tree: a parent/children view over the shared peer set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlan {
    /// Parent per peer index (`None` for peers unrooted in the base
    /// overlay, which take part in no tree).
    pub parent: Vec<Option<Member>>,
    /// Depth per peer index (0 is the source; meaningful only where
    /// `parent` is `Some`).
    pub depth: Vec<u32>,
    /// Children per peer index.
    pub children: Vec<Vec<PeerId>>,
    /// The source's direct children in this tree.
    pub source_children: Vec<PeerId>,
    /// This tree's interior group (the only peers allowed children
    /// here), in attach order.
    pub interior: Vec<PeerId>,
}

impl TreePlan {
    fn empty(n: usize) -> Self {
        TreePlan {
            parent: vec![None; n],
            depth: vec![0; n],
            children: vec![Vec::new(); n],
            source_children: Vec::new(),
            interior: Vec::new(),
        }
    }

    /// Peers that actually have children in this tree — must be a
    /// subset of `interior` (and of no other tree's interior).
    pub fn interior_peers(&self) -> Vec<PeerId> {
        (0..self.children.len())
            .filter(|&i| !self.children[i].is_empty())
            .map(|i| PeerId::new(i as u32))
            .collect()
    }
}

/// The carved forest: k interior-disjoint trees plus the group map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestPlan {
    /// Number of trees.
    pub k: usize,
    /// The trees, index i striping chunks `c` with `c % k == i`.
    pub trees: Vec<TreePlan>,
    /// The tree in whose interior each peer serves (`None` for peers
    /// that are leaves everywhere or unrooted).
    pub group: Vec<Option<usize>>,
    /// Rooted peers, in the (base delay, id) order the carve used.
    pub rooted: Vec<PeerId>,
    /// Per-tree source child capacity the budgets allowed.
    pub source_capacity: u64,
}

impl ForestPlan {
    /// Maximum depth across all trees (the worst single-tree path).
    pub fn max_depth(&self) -> u32 {
        self.trees
            .iter()
            .flat_map(|t| {
                t.parent
                    .iter()
                    .zip(&t.depth)
                    .filter_map(|(p, d)| p.map(|_| *d))
            })
            .max()
            .unwrap_or(0)
    }
}

/// Per-tree child capacity of peer `p`: its whole budget serves the
/// one tree it is interior in, forwarding `rate / k` chunks per round
/// per child.
fn peer_capacity(budget: u64, k: usize, rate: u64) -> u64 {
    budget.saturating_mul(k as u64) / rate
}

/// Carves `k` interior-disjoint trees over `overlay`'s rooted peers.
///
/// `rate` is the source publish rate in chunks per round; chunk `c`
/// travels tree `c % k`. The overlay is only read — construction,
/// carving, and streaming compose without interference — and no
/// randomness is drawn.
pub fn carve(
    overlay: &Overlay,
    population: &Population,
    budgets: &StreamBudgets,
    k: usize,
    rate: u64,
) -> Result<ForestPlan, CarveError> {
    if k == 0 {
        return Err(CarveError::ZeroTrees);
    }
    if rate == 0 {
        return Err(CarveError::ZeroRate);
    }
    let n = population.len();

    // Rooted peers by (base-overlay delay, id): the delay gradation the
    // LagOver construction earned orders who sits near each root.
    let mut order: Vec<(u32, PeerId)> = population
        .peer_ids()
        .filter_map(|p| overlay.delay(p).map(|d| (d, p)))
        .collect();
    order.sort_unstable_by_key(|&(d, p)| (d, p.get()));
    let rooted: Vec<PeerId> = order.iter().map(|&(_, p)| p).collect();
    let required = rooted.len() as u64;

    // Deal the ordered peers round-robin into k interior groups, so
    // every tree's interior spans the full latency gradient.
    let mut group: Vec<Option<usize>> = vec![None; n];
    for (j, &p) in rooted.iter().enumerate() {
        group[p.index()] = Some(j % k);
    }

    let source_capacity = budgets.source / rate;
    let mut trees = Vec::with_capacity(k);
    for tree_idx in 0..k {
        // Interior candidates: group members whose budget seats at
        // least one child. Everyone else (other groups, zero-budget
        // group members) attaches as a leaf.
        let interior: Vec<PeerId> = rooted
            .iter()
            .copied()
            .filter(|p| {
                group[p.index()] == Some(tree_idx)
                    && peer_capacity(budgets.peers[p.index()], k, rate) > 0
            })
            .collect();

        let capacity: u64 = source_capacity
            + interior
                .iter()
                .map(|p| peer_capacity(budgets.peers[p.index()], k, rate))
                .sum::<u64>();
        if capacity < required {
            return Err(CarveError::Infeasible {
                tree: tree_idx,
                capacity,
                required,
            });
        }

        let mut tree = TreePlan::empty(n);
        tree.interior = interior.clone();

        // Breadth-first seating: a queue of open (node, remaining
        // slots) pairs. Interior members attach first — in delay order
        // — so their capacity opens near the root; leaves fill in
        // after.
        let mut open: VecDeque<(Member, u64)> = VecDeque::new();
        if source_capacity > 0 {
            open.push_back((Member::Source, source_capacity));
        }
        let is_interior = |p: PeerId| {
            group[p.index()] == Some(tree_idx)
                && peer_capacity(budgets.peers[p.index()], k, rate) > 0
        };
        let seating: Vec<PeerId> = rooted
            .iter()
            .copied()
            .filter(|&p| is_interior(p))
            .chain(rooted.iter().copied().filter(|&p| !is_interior(p)))
            .collect();
        for p in seating {
            let (slot, remaining) = match open.front_mut() {
                Some(&mut (m, ref mut r)) => {
                    *r -= 1;
                    (m, *r)
                }
                // Unreachable given the capacity check above, but keep
                // the carve total rather than panicking.
                None => {
                    return Err(CarveError::Infeasible {
                        tree: tree_idx,
                        capacity,
                        required,
                    })
                }
            };
            if remaining == 0 {
                open.pop_front();
            }
            tree.parent[p.index()] = Some(slot);
            tree.depth[p.index()] = match slot.peer() {
                None => 1,
                Some(parent) => tree.depth[parent.index()] + 1,
            };
            match slot.peer() {
                None => tree.source_children.push(p),
                Some(parent) => tree.children[parent.index()].push(p),
            }
            if is_interior(p) {
                let cap = peer_capacity(budgets.peers[p.index()], k, rate);
                open.push_back((Member::Peer(p), cap));
            }
        }
        trees.push(tree);
    }

    Ok(ForestPlan {
        k,
        trees,
        group,
        rooted,
        source_capacity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, ConstructionConfig};
    use crate::engine::Engine;
    use crate::node::Constraints;
    use crate::oracle::OracleKind;

    fn population(n: usize) -> Population {
        let peers = (0..n)
            .map(|i| Constraints::new(2 + (i % 3) as u32, 2 + (i % 5) as u32))
            .collect();
        Population::new(4, peers)
    }

    fn built_overlay(n: usize, seed: u64) -> (Population, Overlay) {
        let population = population(n);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(5_000);
        let mut engine = Engine::new(&population, &config, seed);
        while !engine.is_converged() && engine.round().get() < 5_000 {
            engine.step();
        }
        assert!(engine.is_converged(), "fixture must converge");
        let overlay = engine.overlay().clone();
        (population, overlay)
    }

    #[test]
    fn carve_is_interior_disjoint_and_total() {
        let (population, overlay) = built_overlay(60, 11);
        let budgets = StreamBudgets::uniform(60, 8, 16);
        for k in [1usize, 2, 4] {
            let plan = carve(&overlay, &population, &budgets, k, 4).expect("feasible");
            assert_eq!(plan.trees.len(), k);
            let rooted = plan.rooted.len();
            let mut interior_in: Vec<Option<usize>> = vec![None; 60];
            for (i, tree) in plan.trees.iter().enumerate() {
                // Every rooted peer is seated exactly once per tree.
                let seated = tree.parent.iter().filter(|p| p.is_some()).count();
                assert_eq!(seated, rooted, "tree {i} seats all rooted peers");
                for p in tree.interior_peers() {
                    assert_eq!(
                        interior_in[p.index()].replace(i),
                        None,
                        "peer {} interior in two trees",
                        p.get()
                    );
                    assert_eq!(plan.group[p.index()], Some(i));
                }
            }
        }
    }

    #[test]
    fn carve_respects_budget_capacities() {
        let (population, overlay) = built_overlay(40, 7);
        let budgets = StreamBudgets::uniform(40, 6, 12);
        let (k, rate) = (2usize, 4u64);
        let plan = carve(&overlay, &population, &budgets, k, rate).expect("feasible");
        for tree in &plan.trees {
            assert!(tree.source_children.len() as u64 <= budgets.source / rate);
            for p in tree.interior_peers() {
                let cap = budgets.peers[p.index()] * k as u64 / rate;
                assert!(tree.children[p.index()].len() as u64 <= cap);
            }
        }
    }

    #[test]
    fn depths_are_parent_plus_one() {
        let (population, overlay) = built_overlay(50, 3);
        let budgets = StreamBudgets::uniform(50, 8, 8);
        let plan = carve(&overlay, &population, &budgets, 4, 4).expect("feasible");
        for tree in &plan.trees {
            for p in &plan.rooted {
                match tree.parent[p.index()].expect("seated") {
                    Member::Source => assert_eq!(tree.depth[p.index()], 1),
                    Member::Peer(q) => {
                        assert_eq!(tree.depth[p.index()], tree.depth[q.index()] + 1)
                    }
                }
            }
        }
        assert!(plan.max_depth() >= 1);
    }

    #[test]
    fn infeasible_budgets_are_rejected_with_the_gap() {
        let (population, overlay) = built_overlay(30, 5);
        // rate 8 over k=2 trees: per-peer budget 1 gives capacity
        // 1*2/8 = 0 children — only the source can serve, and it can't
        // seat 30 peers alone.
        let budgets = StreamBudgets::uniform(30, 1, 16);
        match carve(&overlay, &population, &budgets, 2, 8) {
            Err(CarveError::Infeasible {
                tree,
                capacity,
                required,
            }) => {
                assert_eq!(tree, 0);
                assert_eq!(capacity, 2);
                assert_eq!(required, 30);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let (population, overlay) = built_overlay(10, 1);
        let budgets = StreamBudgets::uniform(10, 4, 4);
        assert_eq!(
            carve(&overlay, &population, &budgets, 0, 4),
            Err(CarveError::ZeroTrees)
        );
        assert_eq!(
            carve(&overlay, &population, &budgets, 2, 0),
            Err(CarveError::ZeroRate)
        );
    }

    #[test]
    fn carve_does_not_mutate_the_overlay() {
        let (population, overlay) = built_overlay(40, 9);
        let before: Vec<_> = population
            .peer_ids()
            .map(|p| (overlay.parent(p), overlay.delay(p)))
            .collect();
        let budgets = StreamBudgets::uniform(40, 8, 8);
        let _ = carve(&overlay, &population, &budgets, 4, 4).expect("feasible");
        let after: Vec<_> = population
            .peer_ids()
            .map(|p| (overlay.parent(p), overlay.delay(p)))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn budgets_from_fanouts_match_the_feed_regime() {
        let population = population(12);
        let budgets = StreamBudgets::from_fanouts(&population, 4);
        assert_eq!(budgets.source, u64::from(population.source_fanout()) * 4);
        for p in population.peer_ids() {
            assert_eq!(
                budgets.peers[p.index()],
                u64::from(population.fanout(p)) * 4
            );
        }
    }
}
