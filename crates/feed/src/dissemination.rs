//! Round-based feed propagation over a fixed overlay.
//!
//! Semantics (§2.1.2 and the §3.2 worked example):
//!
//! * the source exposes all items it has published;
//! * each *direct child* of the source pulls every `pull_interval`
//!   rounds — an item published during round `t` reaches it at the next
//!   pull tick, so its staleness is at most `pull_interval`;
//! * every other node receives, one round per hop, the items its parent
//!   already held at the end of the previous round (push).
//!
//! With `pull_interval = 1` an item published at round `t` reaches a
//! depth-`d` consumer at round `t + d`: measured staleness equals
//! `DelayAt`, closing the loop between the overlay's delay accounting
//! and actual content delivery.

use serde::{Deserialize, Serialize};

use lagover_core::node::{PeerId, Population};
use lagover_core::overlay::Overlay;
use lagover_obs::{Event, Journal};
use lagover_sim::SimRng;

use crate::schedule::PublishSchedule;

/// Dissemination run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisseminationConfig {
    /// Pull interval `T` of the source's direct children.
    pub pull_interval: u64,
    /// Rounds to simulate.
    pub rounds: u64,
    /// Publication schedule.
    pub schedule: PublishSchedule,
}

impl Default for DisseminationConfig {
    /// `T = 1`, 200 rounds, one item every 4 rounds.
    fn default() -> Self {
        DisseminationConfig {
            pull_interval: 1,
            rounds: 200,
            schedule: PublishSchedule::Periodic { interval: 4 },
        }
    }
}

/// Delivery statistics for one consumer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeDelivery {
    /// The consumer.
    pub peer: u32,
    /// Overlay depth (`DelayAt`), if rooted.
    pub depth: Option<u32>,
    /// Items received within the horizon.
    pub received: usize,
    /// Largest staleness observed (rounds from publish to receipt).
    pub max_staleness: Option<u64>,
    /// Mean staleness over received items.
    pub mean_staleness: Option<f64>,
    /// Item copies this consumer pushed to its children — its actual
    /// upload spend.
    pub pushes_sent: u64,
}

/// Outcome of a dissemination run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisseminationReport {
    /// Items the source published.
    pub items_published: usize,
    /// Per-consumer delivery statistics.
    pub per_node: Vec<NodeDelivery>,
    /// Consumers whose *measured* max staleness exceeded their declared
    /// latency constraint (should be empty on a converged LagOver with
    /// `T = 1`; items still in flight at the horizon are not counted).
    pub constraint_violations: Vec<u32>,
    /// Total pull requests the source served.
    pub source_pulls: u64,
}

impl DisseminationReport {
    /// Largest staleness across all consumers.
    pub fn max_staleness(&self) -> Option<u64> {
        self.per_node.iter().filter_map(|n| n.max_staleness).max()
    }
}

/// Runs the propagation simulation.
///
/// Unrooted consumers receive nothing (they are disconnected from the
/// source); they appear in the report with `received = 0`.
///
/// # Panics
///
/// Panics if `pull_interval == 0` or the overlay and population sizes
/// disagree.
pub fn disseminate(
    overlay: &Overlay,
    population: &Population,
    config: &DisseminationConfig,
    seed: u64,
) -> DisseminationReport {
    disseminate_inner(overlay, population, config, seed, None)
}

/// [`disseminate`] with an event journal attached: every item receipt
/// is recorded as an [`Event::Delivery`] (round, consumer, overlay
/// depth at delivery), so the obs report can interleave content
/// delivery with the structural timeline. The report itself is
/// byte-identical to the unobserved run's.
pub fn disseminate_observed(
    overlay: &Overlay,
    population: &Population,
    config: &DisseminationConfig,
    seed: u64,
    journal: &mut Journal,
) -> DisseminationReport {
    disseminate_inner(overlay, population, config, seed, Some(journal))
}

fn disseminate_inner(
    overlay: &Overlay,
    population: &Population,
    config: &DisseminationConfig,
    seed: u64,
    mut journal: Option<&mut Journal>,
) -> DisseminationReport {
    assert!(config.pull_interval >= 1, "pull interval must be positive");
    assert_eq!(
        overlay.len(),
        population.len(),
        "overlay/population mismatch"
    );
    let mut rng = SimRng::seed_from(seed ^ 0xFEED_F00D);
    let publish_rounds = config.schedule.publication_rounds(config.rounds, &mut rng);
    let n_items = publish_rounds.len();
    let n = population.len();

    // received[node][item] = receipt round.
    let mut received: Vec<Vec<Option<u64>>> = vec![vec![None; n_items]; n];
    let mut source_pulls = 0u64;
    let mut pushes_sent = vec![0u64; n];

    let by_depth = depth_order(overlay, population.peer_ids());
    for r in 1..=config.rounds {
        source_pulls += propagate_round(
            overlay,
            &by_depth,
            &publish_rounds,
            config.pull_interval,
            r,
            &mut received,
            |p, depth, from| {
                if let Some(parent) = from {
                    pushes_sent[parent.index()] += 1;
                }
                if let Some(journal) = journal.as_deref_mut() {
                    journal.push(Event::Delivery {
                        round: r,
                        peer: p.get(),
                        depth,
                        chunk: None,
                    });
                }
            },
        );
    }

    let mut per_node = Vec::with_capacity(n);
    let mut violations = Vec::new();
    for p in population.peer_ids() {
        let rec = &received[p.index()];
        let stalenesses: Vec<u64> = rec
            .iter()
            .enumerate()
            .filter_map(|(item, at)| at.map(|at| at - publish_rounds[item]))
            .collect();
        let max_staleness = stalenesses.iter().copied().max();
        let mean_staleness = if stalenesses.is_empty() {
            None
        } else {
            Some(stalenesses.iter().sum::<u64>() as f64 / stalenesses.len() as f64)
        };
        if let Some(max) = max_staleness {
            if max > u64::from(population.latency(p)) {
                violations.push(p.get());
            }
        }
        per_node.push(NodeDelivery {
            peer: p.get(),
            depth: overlay.delay(p),
            received: stalenesses.len(),
            max_staleness,
            mean_staleness,
            pushes_sent: pushes_sent[p.index()],
        });
    }

    DisseminationReport {
        items_published: n_items,
        per_node,
        constraint_violations: violations,
        source_pulls,
    }
}

/// The rooted peers among `peers` as `(depth, peer)`, in the order one
/// propagation round processes them: ascending depth, so a parent's
/// receipt at round `r - 1` is visible when its children are processed
/// at round `r`.
pub(crate) fn depth_order(
    overlay: &Overlay,
    peers: impl Iterator<Item = PeerId>,
) -> Vec<(u32, PeerId)> {
    let mut by_depth: Vec<(u32, PeerId)> = peers
        .filter_map(|p| overlay.delay(p).map(|d| (d, p)))
        .collect();
    by_depth.sort_unstable();
    by_depth
}

/// One propagation round `r` over `by_depth` (from [`depth_order`]):
/// on a pull tick each direct source child takes every item published
/// before `r`; every deeper peer takes what its parent already held at
/// the end of round `r - 1` (one hop per round). `received[peer][item]`
/// is the receipt round; `on_delivery(peer, depth, from)` sees each new
/// receipt, `from` being the pushing parent (`None` for a pull).
/// Returns the pulls the source served.
pub(crate) fn propagate_round(
    overlay: &Overlay,
    by_depth: &[(u32, PeerId)],
    publish_rounds: &[u64],
    pull_interval: u64,
    r: u64,
    received: &mut [Vec<Option<u64>>],
    mut on_delivery: impl FnMut(PeerId, u32, Option<PeerId>),
) -> u64 {
    let mut source_pulls = 0;
    for &(depth, p) in by_depth {
        if depth == 1 {
            if r.is_multiple_of(pull_interval) {
                source_pulls += 1;
                for (item, &published) in publish_rounds.iter().enumerate() {
                    // An item published *at* round r is picked up at the
                    // next tick — "no staler than T".
                    if published < r && received[p.index()][item].is_none() {
                        received[p.index()][item] = Some(r);
                        on_delivery(p, depth, None);
                    }
                }
            }
        } else if let Some(parent) = overlay.parent(p).and_then(|m| m.peer()) {
            // Take p's row so the parent's row stays borrowable.
            let mut row = std::mem::take(&mut received[p.index()]);
            for (item, slot) in row.iter_mut().enumerate() {
                if slot.is_none() && received[parent.index()][item].is_some_and(|at| at < r) {
                    *slot = Some(r);
                    on_delivery(p, depth, Some(parent));
                }
            }
            received[p.index()] = row;
        }
    }
    source_pulls
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::node::{Constraints, Member};

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    /// source -> 0 -> 1 -> 2 chain.
    fn chain() -> (Overlay, Population) {
        let population = Population::new(
            1,
            vec![
                Constraints::new(1, 1),
                Constraints::new(1, 2),
                Constraints::new(0, 3),
            ],
        );
        let mut overlay = Overlay::new(&population);
        overlay.attach(p(0), Member::Source).unwrap();
        overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        overlay.attach(p(2), Member::Peer(p(1))).unwrap();
        (overlay, population)
    }

    #[test]
    fn staleness_equals_depth_with_unit_pull() {
        let (overlay, population) = chain();
        let config = DisseminationConfig {
            pull_interval: 1,
            rounds: 50,
            schedule: PublishSchedule::Periodic { interval: 3 },
        };
        let report = disseminate(&overlay, &population, &config, 1);
        assert!(report.constraint_violations.is_empty());
        for node in &report.per_node {
            let depth = node.depth.unwrap() as u64;
            // Every delivered item aged exactly `depth` rounds.
            assert_eq!(node.max_staleness, Some(depth), "peer {}", node.peer);
            assert_eq!(node.mean_staleness, Some(depth as f64));
            assert!(node.received > 0);
        }
    }

    #[test]
    fn slower_pull_interval_bounds_staleness_by_t_plus_hops() {
        let (overlay, population) = chain();
        let config = DisseminationConfig {
            pull_interval: 3,
            rounds: 90,
            schedule: PublishSchedule::Periodic { interval: 1 },
        };
        let report = disseminate(&overlay, &population, &config, 1);
        for node in &report.per_node {
            let depth = node.depth.unwrap() as u64;
            let bound = 3 + (depth - 1); // T at the puller + push hops
            assert!(
                node.max_staleness.unwrap() <= bound,
                "peer {} staleness {} > bound {bound}",
                node.peer,
                node.max_staleness.unwrap()
            );
        }
        // Depth-1 violates its l=1 declaration under T=3 — the report
        // must say so.
        assert!(report.constraint_violations.contains(&0));
    }

    #[test]
    fn unrooted_nodes_receive_nothing() {
        let population = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(0, 2)]);
        let mut overlay = Overlay::new(&population);
        // Peer 1 dangles under unrooted peer 0.
        overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        let report = disseminate(&overlay, &population, &DisseminationConfig::default(), 1);
        for node in &report.per_node {
            assert_eq!(node.received, 0);
            assert_eq!(node.depth, None);
        }
        assert_eq!(report.source_pulls, 0);
    }

    #[test]
    fn source_pull_count_scales_with_direct_children_only() {
        let (overlay, population) = chain();
        let config = DisseminationConfig {
            pull_interval: 2,
            rounds: 100,
            schedule: PublishSchedule::Periodic { interval: 10 },
        };
        let report = disseminate(&overlay, &population, &config, 1);
        // One depth-1 child pulling every 2 rounds over 100 rounds.
        assert_eq!(report.source_pulls, 50);
    }

    #[test]
    fn poisson_schedule_delivers_everything_eventually() {
        let (overlay, population) = chain();
        let config = DisseminationConfig {
            pull_interval: 1,
            rounds: 500,
            schedule: PublishSchedule::Poisson { mean_interval: 7.0 },
        };
        let report = disseminate(&overlay, &population, &config, 9);
        assert!(report.items_published > 30);
        let leaf = &report.per_node[2];
        // Everything published at least 3 rounds before the horizon
        // arrives at the leaf; allow the tail.
        assert!(leaf.received >= report.items_published - 3);
        assert!(report.constraint_violations.is_empty());
    }

    #[test]
    fn upload_accounting_matches_tree_shape() {
        let (overlay, population) = chain();
        let config = DisseminationConfig {
            pull_interval: 1,
            rounds: 60,
            schedule: PublishSchedule::Periodic { interval: 2 },
        };
        let report = disseminate(&overlay, &population, &config, 1);
        let items = report.items_published as u64;
        // Peer 0 pushes every item to its one child (peer 1), peer 1 to
        // peer 2; the leaf pushes nothing. Items still in flight at the
        // horizon may shave a copy or two.
        let sent: Vec<u64> = report.per_node.iter().map(|nd| nd.pushes_sent).collect();
        assert!(sent[0] >= items - 2 && sent[0] <= items, "{sent:?}");
        assert!(sent[1] >= items - 2 && sent[1] <= items, "{sent:?}");
        assert_eq!(sent[2], 0, "leaf with no children uploaded");
    }

    #[test]
    fn observed_run_journals_every_delivery_without_perturbing_the_report() {
        let (overlay, population) = chain();
        let config = DisseminationConfig {
            pull_interval: 1,
            rounds: 40,
            schedule: PublishSchedule::Periodic { interval: 4 },
        };
        let plain = disseminate(&overlay, &population, &config, 1);
        let mut journal = Journal::new(4096);
        let observed = disseminate_observed(&overlay, &population, &config, 1, &mut journal);
        assert_eq!(observed, plain, "observation must not change the run");
        let delivered: usize = plain.per_node.iter().map(|nd| nd.received).sum();
        assert_eq!(journal.len(), delivered);
        assert!(journal.iter().all(|e| matches!(e, Event::Delivery { .. })));
    }

    #[test]
    fn report_max_staleness_is_global_max() {
        let (overlay, population) = chain();
        let report = disseminate(&overlay, &population, &DisseminationConfig::default(), 1);
        assert_eq!(report.max_staleness(), Some(3));
    }
}
