//! Live dissemination: feed propagation over an overlay that is being
//! churned and repaired *at the same time*.
//!
//! [`disseminate`](crate::dissemination::disseminate) measures a frozen
//! tree; a deployment never has one. Here each round interleaves
//! (1) churn, (2) one construction/maintenance round of the engine, and
//! (3) one propagation round over the *current* overlay: direct source
//! children pull on their tick, everyone else receives whatever its
//! current parent already held at the end of the previous round.
//! Offline peers receive nothing but keep their cache, so returning
//! peers catch up through their new parent.
//!
//! The headline metric is the **delivery ratio**: the fraction of
//! (item, peer) pairs delivered by the horizon, over items published
//! early enough to have had time to propagate.

use serde::{Deserialize, Serialize};

use lagover_core::Engine;
use lagover_sim::{ChurnProcess, SimRng};

use crate::dissemination::{depth_order, propagate_round};
use crate::schedule::PublishSchedule;

/// Parameters of a live run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiveConfig {
    /// Rounds to simulate.
    pub rounds: u64,
    /// Pull interval of the source's direct children.
    pub pull_interval: u64,
    /// Publication schedule.
    pub schedule: PublishSchedule,
    /// Items published within this many rounds of the horizon are
    /// excluded from the delivery-ratio denominator (they may be
    /// legitimately still in flight).
    pub settle_rounds: u64,
}

impl Default for LiveConfig {
    /// 600 rounds, unit pulls, one item per 5 rounds, 30-round settle
    /// window.
    fn default() -> Self {
        LiveConfig {
            rounds: 600,
            pull_interval: 1,
            schedule: PublishSchedule::Periodic { interval: 5 },
            settle_rounds: 30,
        }
    }
}

/// Outcome of a live run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveOutcome {
    /// Items the source published.
    pub items_published: usize,
    /// Items counted in the delivery-ratio denominator (published
    /// before the settle window).
    pub items_counted: usize,
    /// Fraction of (counted item, peer) pairs delivered by the horizon.
    pub delivery_ratio: f64,
    /// Mean staleness over all deliveries of counted items.
    pub mean_staleness: f64,
    /// 99th-percentile staleness over those deliveries (`None` if there
    /// were none).
    pub p99_staleness: Option<u64>,
    /// Mean satisfied fraction of the overlay across the run.
    pub mean_satisfied_fraction: f64,
}

/// Runs live dissemination. The `engine` is used as-is (typically
/// freshly constructed — cold start — or pre-converged), and `churn`
/// drives membership.
pub fn run_live(
    engine: &mut Engine,
    churn: &mut dyn ChurnProcess,
    config: &LiveConfig,
    seed: u64,
) -> LiveOutcome {
    let n = engine.population().len();
    let mut rng = SimRng::seed_from(seed ^ 0x11FE);
    let publish_rounds = config.schedule.publication_rounds(config.rounds, &mut rng);
    let n_items = publish_rounds.len();
    let mut received: Vec<Vec<Option<u64>>> = vec![vec![None; n_items]; n];
    let mut satisfied_sum = 0.0;

    for r in 1..=config.rounds {
        engine.apply_churn(churn);
        engine.step();
        satisfied_sum += engine.satisfied_fraction();

        // Propagation over the *current* overlay's online peers; a
        // same-round receipt at the parent is not forwarded until next
        // round (one hop per round).
        let overlay = engine.overlay();
        let online = engine
            .population()
            .peer_ids()
            .filter(|&p| engine.is_online(p));
        let by_depth = depth_order(overlay, online);
        propagate_round(
            overlay,
            &by_depth,
            &publish_rounds,
            config.pull_interval,
            r,
            &mut received,
            |_, _, _| {},
        );
    }

    // Delivery accounting over items with time to settle.
    let cutoff = config.rounds.saturating_sub(config.settle_rounds);
    let counted: Vec<usize> = publish_rounds
        .iter()
        .enumerate()
        .filter(|&(_, &pr)| pr <= cutoff)
        .map(|(i, _)| i)
        .collect();
    let mut delivered = 0usize;
    let mut staleness_sum = 0u64;
    let mut stalenesses: Vec<u64> = Vec::new();
    for row in received.iter().take(n) {
        for &item in &counted {
            if let Some(at) = row[item] {
                delivered += 1;
                let s = at - publish_rounds[item];
                staleness_sum += s;
                stalenesses.push(s);
            }
        }
    }
    stalenesses.sort_unstable();
    let pairs = counted.len() * n;
    LiveOutcome {
        items_published: n_items,
        items_counted: counted.len(),
        delivery_ratio: if pairs == 0 {
            0.0
        } else {
            delivered as f64 / pairs as f64
        },
        mean_staleness: if delivered == 0 {
            0.0
        } else {
            staleness_sum as f64 / delivered as f64
        },
        p99_staleness: if stalenesses.is_empty() {
            None
        } else {
            Some(stalenesses[((stalenesses.len() - 1) as f64 * 0.99) as usize])
        },
        mean_satisfied_fraction: satisfied_sum / config.rounds.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::{Algorithm, ConstructionConfig, OracleKind};
    use lagover_sim::{BernoulliChurn, NoChurn};
    use lagover_workload::{TopologicalConstraint, WorkloadSpec};

    fn engine(seed: u64) -> Engine {
        let population = WorkloadSpec::new(TopologicalConstraint::Rand, 40)
            .generate(seed)
            .unwrap();
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(10_000);
        Engine::new(&population, &config, seed)
    }

    #[test]
    fn cold_start_without_churn_delivers_everything_settled() {
        let mut e = engine(3);
        let outcome = run_live(&mut e, &mut NoChurn, &LiveConfig::default(), 3);
        assert!(outcome.items_published > 100);
        assert!(
            outcome.delivery_ratio > 0.99,
            "delivery ratio {} too low without churn",
            outcome.delivery_ratio
        );
        // Staleness bounded by the deepest constraint (10 for Rand) for
        // items published after convergence; early items can exceed it
        // slightly during bootstrap.
        assert!(outcome.mean_staleness < 12.0, "{}", outcome.mean_staleness);
    }

    #[test]
    fn churn_degrades_delivery_gracefully() {
        let mut quiet = engine(7);
        let calm = run_live(&mut quiet, &mut NoChurn, &LiveConfig::default(), 7);
        let mut stormy = engine(7);
        let mut churn = BernoulliChurn::new(0.05, 0.3);
        let rough = run_live(&mut stormy, &mut churn, &LiveConfig::default(), 7);
        assert!(rough.delivery_ratio <= calm.delivery_ratio + 1e-9);
        // Even heavy churn (5%/round) keeps the majority of deliveries
        // flowing thanks to repair.
        assert!(
            rough.delivery_ratio > 0.5,
            "delivery collapsed: {}",
            rough.delivery_ratio
        );
        assert!(rough.mean_satisfied_fraction < calm.mean_satisfied_fraction);
    }

    #[test]
    fn offline_peers_catch_up_on_return() {
        // One-shot blackout of half the peers mid-run, then everyone
        // returns: the cache + parent catch-up must deliver old items.
        struct Blackout {
            at: u64,
            back: u64,
            now: u64,
        }
        impl ChurnProcess for Blackout {
            fn step(&mut self, online: &mut [bool], _rng: &mut SimRng) -> lagover_sim::Transitions {
                self.now += 1;
                let mut t = lagover_sim::Transitions::default();
                if self.now == self.at {
                    for (i, o) in online.iter_mut().enumerate() {
                        if i % 2 == 0 && *o {
                            *o = false;
                            t.departures += 1;
                        }
                    }
                } else if self.now == self.back {
                    for o in online.iter_mut() {
                        if !*o {
                            *o = true;
                            t.arrivals += 1;
                        }
                    }
                }
                t
            }
        }
        let mut e = engine(11);
        let mut churn = Blackout {
            at: 200,
            back: 260,
            now: 0,
        };
        let config = LiveConfig {
            rounds: 600,
            settle_rounds: 60,
            ..LiveConfig::default()
        };
        let outcome = run_live(&mut e, &mut churn, &config, 11);
        assert!(
            outcome.delivery_ratio > 0.95,
            "returnees did not catch up: {}",
            outcome.delivery_ratio
        );
    }

    #[test]
    fn zero_rounds_is_well_formed() {
        let mut e = engine(1);
        let outcome = run_live(
            &mut e,
            &mut NoChurn,
            &LiveConfig {
                rounds: 0,
                ..LiveConfig::default()
            },
            1,
        );
        assert_eq!(outcome.items_published, 0);
        assert_eq!(outcome.delivery_ratio, 0.0);
    }
}
