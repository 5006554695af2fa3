//! Multi-feed participation — the paper's future-work direction (§7):
//! *"each peer participates in multiple LagOvers with different time
//! constraints — one LagOver for each"*, with one overlay per source.
//!
//! The binding constraint is that a peer's *upload budget is shared*
//! across all the feeds it serves: a peer with fanout 4 subscribed to
//! two feeds cannot serve 4 children in each. [`MultiFeedSystem`]
//! models this by partitioning each subscriber's fanout across its
//! subscriptions (proportional, remainder to the feeds with the
//! strictest constraint) and constructing one LagOver per feed over
//! the induced sub-population. The aggregate satisfaction and the
//! per-feed trees are reported; the oversubscribed alternative (full
//! fanout promised to every feed) is available as a baseline for the
//! ablation experiment.

use std::fmt;

use serde::{Deserialize, Serialize};

use lagover_core::node::{Constraints, PeerId, Population};
use lagover_core::{construct, ConstructionConfig, ConstructionOutcome};

/// One peer's subscription to one feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subscription {
    /// Index of the peer in the global population.
    pub peer: u32,
    /// Latency tolerated for this feed (may differ per feed).
    pub latency: u32,
}

/// A feed: its source's fanout plus the subscriber list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedSpec {
    /// Human-readable feed name.
    pub name: String,
    /// The feed source's own fanout budget.
    pub source_fanout: u32,
    /// Who subscribes, with what tolerance.
    pub subscriptions: Vec<Subscription>,
}

/// How each subscriber's global fanout is split across feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetPolicy {
    /// Split the budget across subscribed feeds, near-evenly, remainder
    /// to the subscriptions with the strictest latency (they need
    /// capacity near the source most). Honest: total promised fanout
    /// never exceeds the peer's budget.
    Shared,
    /// Promise the full budget to every feed — the naive oversubscribed
    /// baseline a deployment must avoid.
    Oversubscribed,
}

impl fmt::Display for BudgetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetPolicy::Shared => "shared",
            BudgetPolicy::Oversubscribed => "oversubscribed",
        })
    }
}

/// Outcome of constructing one feed's LagOver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedOutcome {
    /// Feed name.
    pub name: String,
    /// Subscribers of this feed.
    pub subscribers: usize,
    /// The construction outcome over the feed's sub-population.
    pub outcome: ConstructionOutcome,
}

/// Aggregate outcome across feeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFeedOutcome {
    /// Per-feed results.
    pub feeds: Vec<FeedOutcome>,
    /// Fraction of (peer, feed) subscriptions satisfied at the end.
    pub satisfied_subscription_fraction: f64,
    /// Sum over peers of fanout *promised* to feeds, divided by the sum
    /// of actual budgets (1.0 = exactly honest, >1 oversubscribed).
    pub promise_ratio: f64,
}

impl MultiFeedOutcome {
    /// Whether every feed's LagOver converged.
    pub fn all_converged(&self) -> bool {
        self.feeds.iter().all(|f| f.outcome.converged())
    }
}

/// A set of feeds over one global peer population.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiFeedSystem {
    /// Global upload budget of each peer.
    pub peer_fanouts: Vec<u32>,
    /// The feeds.
    pub feeds: Vec<FeedSpec>,
}

/// Why a set of feeds cannot form a [`MultiFeedSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedError {
    /// The named feed has no subscribers, so no LagOver to build.
    NoSubscribers(String),
    /// A subscription references a peer outside the population.
    UnknownPeer(u32),
    /// A subscription tolerates a latency of zero.
    ZeroLatency,
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::NoSubscribers(name) => write!(f, "feed {name} has no subscribers"),
            FeedError::UnknownPeer(p) => write!(f, "subscription references unknown peer {p}"),
            FeedError::ZeroLatency => f.write_str("zero latency subscription"),
        }
    }
}

impl std::error::Error for FeedError {}

impl MultiFeedSystem {
    /// Creates a system, or names the first feed or subscription that
    /// cannot take part in one.
    ///
    /// # Errors
    ///
    /// [`FeedError::NoSubscribers`], [`FeedError::UnknownPeer`] (outside
    /// `peer_fanouts`) or [`FeedError::ZeroLatency`].
    pub fn try_new(peer_fanouts: Vec<u32>, feeds: Vec<FeedSpec>) -> Result<Self, FeedError> {
        for feed in &feeds {
            if feed.subscriptions.is_empty() {
                return Err(FeedError::NoSubscribers(feed.name.clone()));
            }
            for sub in &feed.subscriptions {
                if sub.peer as usize >= peer_fanouts.len() {
                    return Err(FeedError::UnknownPeer(sub.peer));
                }
                if sub.latency == 0 {
                    return Err(FeedError::ZeroLatency);
                }
            }
        }
        Ok(MultiFeedSystem {
            peer_fanouts,
            feeds,
        })
    }

    /// Creates a system.
    ///
    /// # Panics
    ///
    /// On any [`FeedError`] of [`MultiFeedSystem::try_new`].
    pub fn new(peer_fanouts: Vec<u32>, feeds: Vec<FeedSpec>) -> Self {
        Self::try_new(peer_fanouts, feeds).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of feeds.
    pub fn feed_count(&self) -> usize {
        self.feeds.len()
    }

    /// Total number of subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.feeds.iter().map(|f| f.subscriptions.len()).sum()
    }

    /// Fanout promised by `peer` to each of its subscribed feeds under
    /// `policy`, in feed order (entries only for subscribed feeds).
    fn budget_split(&self, peer: u32, policy: BudgetPolicy) -> Vec<(usize, u32)> {
        let subscribed: Vec<(usize, u32)> = self
            .feeds
            .iter()
            .enumerate()
            .filter_map(|(fi, f)| {
                f.subscriptions
                    .iter()
                    .find(|s| s.peer == peer)
                    .map(|s| (fi, s.latency))
            })
            .collect();
        if subscribed.is_empty() {
            return Vec::new();
        }
        let budget = self.peer_fanouts[peer as usize];
        match policy {
            BudgetPolicy::Oversubscribed => {
                subscribed.iter().map(|&(fi, _)| (fi, budget)).collect()
            }
            BudgetPolicy::Shared => {
                let k = subscribed.len() as u32;
                let base = budget / k;
                let mut remainder = budget % k;
                // Strictest subscriptions get the remainder first.
                let mut order = subscribed.clone();
                order.sort_by_key(|&(_, l)| l);
                let mut split: Vec<(usize, u32)> = Vec::with_capacity(order.len());
                for (fi, _) in order {
                    let extra = if remainder > 0 {
                        remainder -= 1;
                        1
                    } else {
                        0
                    };
                    split.push((fi, base + extra));
                }
                split
            }
        }
    }

    /// Constructs one LagOver per feed and reports aggregate
    /// satisfaction.
    pub fn construct_all(
        &self,
        config: &ConstructionConfig,
        policy: BudgetPolicy,
        seed: u64,
    ) -> MultiFeedOutcome {
        // Promised fanout per (feed, peer).
        let mut promised: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.feeds.len()];
        let mut total_promised = 0u64;
        for peer in 0..self.peer_fanouts.len() as u32 {
            for (fi, fanout) in self.budget_split(peer, policy) {
                promised[fi].push((peer, fanout));
                total_promised += u64::from(fanout);
            }
        }
        let total_budget: u64 = self
            .peer_fanouts
            .iter()
            .enumerate()
            .filter(|&(p, _)| {
                self.feeds
                    .iter()
                    .any(|f| f.subscriptions.iter().any(|s| s.peer as usize == p))
            })
            .map(|(_, &f)| u64::from(f))
            .sum();

        let mut feeds = Vec::with_capacity(self.feeds.len());
        let mut satisfied = 0usize;
        for (fi, feed) in self.feeds.iter().enumerate() {
            // The feed's sub-population, in subscription order.
            let constraints: Vec<Constraints> = feed
                .subscriptions
                .iter()
                .map(|s| {
                    let fanout = promised[fi]
                        .iter()
                        .find(|&&(p, _)| p == s.peer)
                        .map(|&(_, f)| f)
                        .expect("promise computed for every subscriber");
                    Constraints::new(fanout, s.latency)
                })
                .collect();
            let population = Population::new(feed.source_fanout, constraints);
            let outcome = construct(&population, config, seed.wrapping_add(fi as u64));
            satisfied +=
                (outcome.final_satisfied_fraction * population.len() as f64).round() as usize;
            feeds.push(FeedOutcome {
                name: feed.name.clone(),
                subscribers: population.len(),
                outcome,
            });
        }
        MultiFeedOutcome {
            feeds,
            satisfied_subscription_fraction: satisfied as f64 / self.subscription_count() as f64,
            promise_ratio: if total_budget == 0 {
                1.0
            } else {
                total_promised as f64 / total_budget as f64
            },
        }
    }

    /// The peer ids subscribed to a given feed (by index).
    ///
    /// # Panics
    ///
    /// Panics if `feed` is out of range.
    pub fn subscribers(&self, feed: usize) -> Vec<PeerId> {
        self.feeds[feed]
            .subscriptions
            .iter()
            .map(|s| PeerId::new(s.peer))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::{Algorithm, OracleKind};
    use lagover_sim::SimRng;

    /// Two feeds over 30 peers; everyone subscribes to feed 0, every
    /// third peer also to feed 1.
    fn system(seed: u64) -> MultiFeedSystem {
        let mut rng = SimRng::seed_from(seed);
        let n = 30u32;
        let peer_fanouts: Vec<u32> = (0..n).map(|_| rng.range_u32(2, 6)).collect();
        let all: Vec<Subscription> = (0..n)
            .map(|p| Subscription {
                peer: p,
                latency: rng.range_u32(2, 8),
            })
            .collect();
        let some: Vec<Subscription> = (0..n)
            .step_by(3)
            .map(|p| Subscription {
                peer: p,
                latency: rng.range_u32(3, 9),
            })
            .collect();
        MultiFeedSystem::new(
            peer_fanouts,
            vec![
                FeedSpec {
                    name: "news".into(),
                    source_fanout: 3,
                    subscriptions: all,
                },
                FeedSpec {
                    name: "blog".into(),
                    source_fanout: 2,
                    subscriptions: some,
                },
            ],
        )
    }

    #[test]
    fn shared_budget_is_honest() {
        let sys = system(1);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(5_000);
        let outcome = sys.construct_all(&config, BudgetPolicy::Shared, 1);
        assert!(outcome.promise_ratio <= 1.0 + 1e-9, "oversubscribed!");
        assert!(outcome.satisfied_subscription_fraction > 0.9);
    }

    #[test]
    fn oversubscribed_baseline_promises_more() {
        let sys = system(2);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(5_000);
        let honest = sys.construct_all(&config, BudgetPolicy::Shared, 2);
        let naive = sys.construct_all(&config, BudgetPolicy::Oversubscribed, 2);
        assert!(naive.promise_ratio > honest.promise_ratio);
        assert!(naive.promise_ratio > 1.0, "multi-subscribers overpromise");
    }

    #[test]
    fn budget_split_sums_to_budget() {
        let sys = system(3);
        for peer in 0..30u32 {
            let split = sys.budget_split(peer, BudgetPolicy::Shared);
            if !split.is_empty() {
                let total: u32 = split.iter().map(|&(_, f)| f).sum();
                assert_eq!(total, sys.peer_fanouts[peer as usize], "peer {peer}");
            }
        }
    }

    #[test]
    fn remainder_goes_to_strictest_subscription() {
        // One peer, budget 3, two feeds with latencies 5 (feed 0) and 2
        // (feed 1): feed 1 must get 2, feed 0 gets 1.
        let sys = MultiFeedSystem::new(
            vec![3],
            vec![
                FeedSpec {
                    name: "lax".into(),
                    source_fanout: 1,
                    subscriptions: vec![Subscription {
                        peer: 0,
                        latency: 5,
                    }],
                },
                FeedSpec {
                    name: "strict".into(),
                    source_fanout: 1,
                    subscriptions: vec![Subscription {
                        peer: 0,
                        latency: 2,
                    }],
                },
            ],
        );
        let split = sys.budget_split(0, BudgetPolicy::Shared);
        let strict = split.iter().find(|&&(fi, _)| fi == 1).unwrap().1;
        let lax = split.iter().find(|&&(fi, _)| fi == 0).unwrap().1;
        assert_eq!(strict, 2);
        assert_eq!(lax, 1);
    }

    #[test]
    fn per_feed_trees_are_independent() {
        let sys = system(4);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(5_000);
        let outcome = sys.construct_all(&config, BudgetPolicy::Shared, 4);
        assert_eq!(outcome.feeds.len(), 2);
        assert_eq!(outcome.feeds[0].subscribers, 30);
        assert_eq!(outcome.feeds[1].subscribers, 10);
        assert_eq!(sys.subscribers(1).len(), 10);
        assert_eq!(sys.subscription_count(), 40);
    }

    #[test]
    #[should_panic(expected = "no subscribers")]
    fn empty_feed_rejected() {
        MultiFeedSystem::new(
            vec![1],
            vec![FeedSpec {
                name: "ghost".into(),
                source_fanout: 1,
                subscriptions: vec![],
            }],
        );
    }

    #[test]
    #[should_panic(expected = "unknown peer")]
    fn dangling_subscription_rejected() {
        MultiFeedSystem::new(
            vec![1],
            vec![FeedSpec {
                name: "x".into(),
                source_fanout: 1,
                subscriptions: vec![Subscription {
                    peer: 5,
                    latency: 1,
                }],
            }],
        );
    }
}
