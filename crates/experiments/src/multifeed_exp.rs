//! §7 future work — multiple feeds over one consumer population
//! (experiment E13): each peer participates in one LagOver per
//! subscribed feed, sharing its upload budget across them.
//!
//! Compares the honest shared-budget policy against the naive
//! oversubscribed baseline (each feed promised the full fanout): the
//! shared policy keeps the aggregate promise within the real budget at
//! a modest satisfaction cost.

use serde::{Deserialize, Serialize};

use lagover_core::{Algorithm, ConstructionConfig, OracleKind};
use lagover_feed::{BudgetPolicy, FeedError, FeedSpec, MultiFeedSystem, Subscription};
use lagover_sim::{stats, SimRng};

use crate::table::TextTable;
use crate::Params;

/// One (feed count, policy) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFeedRow {
    /// Number of concurrent feeds.
    pub feeds: usize,
    /// Budget policy.
    pub policy: String,
    /// Median fraction of subscriptions satisfied.
    pub median_satisfaction: f64,
    /// Median promise ratio (promised fanout / real budget; > 1 means
    /// oversubscription).
    pub median_promise_ratio: f64,
    /// Runs where every feed's LagOver converged.
    pub all_converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

/// The E13 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFeedReport {
    /// Parameters used.
    pub params: Params,
    /// All rows.
    pub rows: Vec<MultiFeedRow>,
}

impl MultiFeedReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "feeds".into(),
            "budget policy".into(),
            "satisfied subs".into(),
            "promise ratio".into(),
            "all converged".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.feeds.to_string(),
                r.policy.clone(),
                format!("{:.3}", r.median_satisfaction),
                format!("{:.2}", r.median_promise_ratio),
                format!("{}/{}", r.all_converged_runs, r.total_runs),
            ]);
        }
        format!(
            "§7 multi-feed extension — shared vs oversubscribed upload budgets (Hybrid)\n{}",
            t.render()
        )
    }
}

/// Builds a random `k`-feed system over `peers` consumers: everyone
/// subscribes to feed 0; each further feed draws a random ~half of the
/// population — which, in a small population, may be nobody.
fn random_system(peers: usize, k: usize, rng: &mut SimRng) -> Result<MultiFeedSystem, FeedError> {
    let peer_fanouts: Vec<u32> = (0..peers).map(|_| rng.range_u32(2, 8)).collect();
    let mut feeds = Vec::with_capacity(k);
    for f in 0..k {
        let mut subscriptions = Vec::new();
        for p in 0..peers as u32 {
            if f == 0 || rng.chance(0.5) {
                subscriptions.push(Subscription {
                    peer: p,
                    latency: rng.range_u32(2, 10),
                });
            }
        }
        feeds.push(FeedSpec {
            name: format!("feed-{f}"),
            source_fanout: 3,
            subscriptions,
        });
    }
    MultiFeedSystem::try_new(peer_fanouts, feeds)
}

/// Runs the sweep over 1, 2, and 4 concurrent feeds.
///
/// # Errors
///
/// The first drawn system that is not one ([`FeedError::NoSubscribers`]
/// when a feed draws nobody, which only a population of a few peers
/// makes likely).
pub fn run(params: &Params) -> Result<MultiFeedReport, FeedError> {
    let mut rows = Vec::new();
    for (ki, k) in [1usize, 2, 4].into_iter().enumerate() {
        for policy in [BudgetPolicy::Shared, BudgetPolicy::Oversubscribed] {
            let mut sats = Vec::new();
            let mut promises = Vec::new();
            let mut all_converged = 0usize;
            for r in 0..params.runs {
                let seed = params.run_seed(900 + ki as u64, r as u64);
                let mut rng = SimRng::seed_from(seed).split(0xFEED5);
                let system = random_system(params.peers, k, &mut rng)?;
                let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                    .with_max_rounds(params.max_rounds);
                let outcome = system.construct_all(&config, policy, seed);
                if outcome.all_converged() {
                    all_converged += 1;
                }
                sats.push(outcome.satisfied_subscription_fraction);
                promises.push(outcome.promise_ratio);
            }
            rows.push(MultiFeedRow {
                feeds: k,
                policy: policy.to_string(),
                median_satisfaction: stats::median(&sats).expect("runs >= 1"),
                median_promise_ratio: stats::median(&promises).expect("runs >= 1"),
                all_converged_runs: all_converged,
                total_runs: params.runs,
            });
        }
    }
    Ok(MultiFeedReport {
        params: *params,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_budget_never_overpromises() {
        let mut params = Params::quick();
        params.runs = 2;
        let report = run(&params).expect("every feed draws a subscriber");
        for row in &report.rows {
            if row.policy == "shared" {
                assert!(
                    row.median_promise_ratio <= 1.0 + 1e-9,
                    "shared policy overpromised at k={}",
                    row.feeds
                );
            }
        }
        // With multiple feeds, the naive baseline overpromises.
        let naive4 = report
            .rows
            .iter()
            .find(|r| r.feeds == 4 && r.policy == "oversubscribed")
            .unwrap();
        assert!(naive4.median_promise_ratio > 1.0);
        assert!(report.render().contains("promise ratio"));
    }
}
