#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # lagover-experiments
//!
//! The experiment harness: one runner per figure/claim of the paper,
//! each regenerating the corresponding table or series (see `DESIGN.md`
//! §5 for the experiment index and `EXPERIMENTS.md` for recorded
//! results).
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`fig2`] | Figure 2 — run-to-run variance of convergence (Greedy, Oracle Random-Delay, no churn) |
//! | [`fig3`] | Figure 3 — oracle comparison O1/O2a/O2b/O3 across the four workloads |
//! | [`fig4`] | Figure 4 — Greedy vs Hybrid on BiCorr, with and without churn |
//! | [`counterexample`] | §3.3.1 — adversarial family convergence rates |
//! | [`asynchrony`] | §5.3 — asynchronous interactions slow but do not break construction |
//! | [`sufficiency`] | §3.3 — sufficiency is sufficient (and not necessary) |
//! | [`serverload`] | §1 motivation — source request-rate reduction |
//! | [`realizations`] | §2.1.4 — reference oracles vs DHT-directory and random-walk realizations |
//! | [`locality`] | §7 future work — locality-aware construction (extension) |
//! | [`multifeed_exp`] | §7 future work — multiple feeds, shared upload budgets (extension) |
//! | [`ablations`] | design-choice ablations: timeout, maintenance damping, source mode, churn model (extension) |
//! | [`scaling`] | construction cost vs population size (extension) |
//! | [`liveness`] | live dissemination under churn: delivery ratio & staleness (extension) |
//! | [`recovery`] | self-healing after crash-stop failures, oracle blackouts, and message loss (extension) |
//! | [`stabilization`] | self-stabilization from adversarially corrupted snapshots (extension) |
//! | [`obs_exp`] | observability timelines — one observed cell per instrumented experiment (extension) |
//! | [`measured`] | fig3/fig4 axes re-run on the measured king-style RTT matrix (extension) |
//! | [`nodesim`] | node-runtime cross-validation — mesh journals vs the simulator twin (extension) |
//! | [`streams`] | multi-tree streaming under upload budgets — throughput, staleness, backpressure (extension) |
//!
//! Every runner takes a [`Params`] (use [`Params::paper`] for the
//! paper-scale settings and [`Params::quick`] in tests), is
//! deterministic in its seed, and returns a serializable report with a
//! `render()` text table.

pub mod ablations;
pub mod asynchrony;
pub mod counterexample;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod json;
pub mod liveness;
pub mod locality;
pub mod measured;
pub mod multifeed_exp;
pub mod nodesim;
pub mod obs_exp;
pub mod oracle_impls;
pub mod realizations;
pub mod recovery;
pub mod scaling;
pub mod serverload;
pub mod stabilization;
pub mod streams;
pub mod sufficiency;
pub mod table;

use lagover_core::node::Population;
use lagover_workload::{TopologicalConstraint, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Shared experiment sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Params {
    /// Consumers per run (the paper uses 120, §5.2).
    pub peers: usize,
    /// Repetitions per setting (the paper reports the median of 5).
    pub runs: usize,
    /// Round cap per run; non-converged runs report the cap.
    pub max_rounds: u64,
    /// Master seed; every run derives its own stream from it.
    pub seed: u64,
}

impl Params {
    /// The paper's evaluation scale: 120 peers, median of 5, generous
    /// round cap.
    pub fn paper() -> Self {
        Params {
            peers: 120,
            runs: 5,
            max_rounds: 3_000,
            seed: 42,
        }
    }

    /// A small fast configuration for unit/integration tests.
    pub fn quick() -> Self {
        Params {
            peers: 40,
            runs: 3,
            max_rounds: 1_200,
            seed: 7,
        }
    }

    /// Derives the seed of run `r` under setting `s`.
    pub fn run_seed(&self, s: u64, r: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(s.wrapping_mul(0x1000_0000_01B3))
            .wrapping_add(r)
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::paper()
    }
}

/// Generates the run's population, deterministically nudging the seed
/// past the rare draws whose sufficiency repair loop gives up.
pub(crate) fn satisfiable_population(
    class: TopologicalConstraint,
    peers: usize,
    seed: u64,
) -> Population {
    (0u64..64)
        .find_map(|nudge| {
            WorkloadSpec::new(class, peers)
                .generate(seed.wrapping_add(nudge.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .ok()
        })
        .expect("repairable within 64 nudges")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_match_evaluation_section() {
        let p = Params::paper();
        assert_eq!(p.peers, 120);
        assert_eq!(p.runs, 5);
    }

    #[test]
    fn run_seeds_are_distinct() {
        let p = Params::paper();
        let mut seen = std::collections::HashSet::new();
        for s in 0..8 {
            for r in 0..8 {
                assert!(seen.insert(p.run_seed(s, r)), "collision at ({s},{r})");
            }
        }
    }
}
