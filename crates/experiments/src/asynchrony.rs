//! §5.3 (end) — asynchronous interactions (experiment E6).
//!
//! *"We conducted further experiments where peers interacted
//! asynchronously, i.e. different peers need different amounts of time
//! to complete the interactions. Asynchrony slowed down the overlay
//! construction, but interestingly did not affect the eventual
//! convergence to a LagOver."*
//!
//! The synchronous baseline is the lockstep round clock (`Run::construct`:
//! every online peer acts once a round, a round is one time unit); the
//! asynchronous condition draws per-peer interaction durations from the
//! `lagover-net` RTT model, normalized so the fastest interaction takes
//! one time unit — every peer is at best as fast as the lockstep round
//! and usually slower, matching the paper's premise.

use serde::{Deserialize, Serialize};

use lagover_core::{Algorithm, ConstructionConfig, OracleKind, Run};
use lagover_net::{DurationModel, SpaceSpec, SubstrateModel};
use lagover_sim::{stats, SimRng};
use lagover_workload::TopologicalConstraint;

use crate::table::TextTable;
use crate::{satisfiable_population, Params};

/// One (workload, mode) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncRow {
    /// Workload label.
    pub workload: String,
    /// "lockstep" or "async".
    pub mode: String,
    /// Median convergence time — the round on the lockstep clock, the
    /// virtual-time instant under asynchrony; non-converged runs at the
    /// cap.
    pub median_time: f64,
    /// Runs that converged.
    pub converged_runs: usize,
    /// Total runs.
    pub total_runs: usize,
}

/// The E6 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncReport {
    /// Parameters used.
    pub params: Params,
    /// All rows, workload-major.
    pub rows: Vec<AsyncRow>,
}

impl AsyncReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload".into(),
            "mode".into(),
            "median time".into(),
            "converged".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.mode.clone(),
                format!("{:.0}", r.median_time),
                format!("{}/{}", r.converged_runs, r.total_runs),
            ]);
        }
        format!(
            "§5.3 asynchrony — lockstep vs heterogeneous interaction durations (Hybrid, Oracle Random-Delay)\n{}",
            t.render()
        )
    }

    /// Finds a row.
    pub fn row(&self, workload: &str, mode: &str) -> &AsyncRow {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.mode == mode)
            .expect("complete grid")
    }
}

/// Normalizes a substrate's duration model so the *fastest* observed
/// interaction takes ~1 time unit: asynchrony makes peers slower than
/// the lockstep round, never faster (the paper's "different peers need
/// different amounts of time" premise). Works over any [`SpaceSpec`],
/// so the measured-matrix experiment reuses the same normalization.
pub struct NormalizedModel {
    inner: SubstrateModel,
    scale: f64,
}

impl NormalizedModel {
    /// Builds the substrate named by `spec` from `rng` (same draws as
    /// the inline construction it replaced) and probes its minimum.
    pub fn new(spec: &SpaceSpec, peers: usize, rng: &mut SimRng) -> Self {
        let inner = spec.build(rng).into_model(2.0);
        // Estimate the minimum duration empirically for normalization.
        let mut probe_rng = rng.split(17);
        let min = (0..512)
            .map(|i| inner.interaction_duration(i % peers, &mut probe_rng))
            .fold(f64::INFINITY, f64::min);
        NormalizedModel {
            inner,
            scale: 1.0 / min,
        }
    }

    /// The normalized interaction duration for `peer`.
    pub fn duration(&self, peer: usize, rng: &mut SimRng) -> f64 {
        self.inner.interaction_duration(peer, rng) * self.scale
    }
}

/// Runs lockstep and async conditions across Rand and BiCorr.
pub fn run(params: &Params) -> AsyncReport {
    let classes = [TopologicalConstraint::Rand, TopologicalConstraint::BiCorr];
    let max_time = params.max_rounds as f64;
    let mut rows = Vec::new();
    for (wi, class) in classes.iter().enumerate() {
        for (mi, mode) in ["lockstep", "async"].into_iter().enumerate() {
            let mut times = Vec::new();
            let mut converged = 0usize;
            for r in 0..params.runs {
                let seed = params.run_seed((200 + wi * 2 + mi) as u64, r as u64);
                let population = satisfiable_population(*class, params.peers, seed);
                let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                    .with_max_rounds(params.max_rounds);
                let run = Run::new(&population, &config, seed);
                let converged_at = if mode == "lockstep" {
                    run.construct()
                        .outcome
                        .converged_at
                        .map(|round| round as f64)
                } else {
                    let mut model_rng = SimRng::seed_from(seed).split(5);
                    let model = NormalizedModel::new(
                        &SpaceSpec::synthetic(params.peers),
                        params.peers,
                        &mut model_rng,
                    );
                    let durations = move |p: lagover_core::PeerId, rng: &mut SimRng| {
                        model.duration(p.index(), rng)
                    };
                    run.timed(durations, max_time)
                        .construct()
                        .outcome
                        .converged_at
                };
                if let Some(at) = converged_at {
                    converged += 1;
                    times.push(at);
                } else {
                    times.push(max_time);
                }
            }
            rows.push(AsyncRow {
                workload: class.to_string(),
                mode: mode.to_string(),
                median_time: stats::median(&times).expect("runs >= 1"),
                converged_runs: converged,
                total_runs: params.runs,
            });
        }
    }
    AsyncReport {
        params: *params,
        rows,
    }
}

/// Observes the (Rand, async) condition with the `lagover-obs`
/// pipeline enabled — the same seeds [`run`] uses for that cell, merged
/// over `params.runs` repetitions. The event-driven engine has no
/// rounds; `rounds` here is the ceiling of the final virtual time.
pub fn observed(params: &Params) -> lagover_obs::ObsReport {
    let class = TopologicalConstraint::Rand;
    let max_time = params.max_rounds as f64;
    // Salt of the (wi = 0 Rand, mi = 1 async) cell: 200 + wi*2 + mi.
    let salt = 201;
    let reports: Vec<lagover_obs::ObsReport> = (0..params.runs)
        .map(|r| {
            let seed = params.run_seed(salt, r as u64);
            let population = satisfiable_population(class, params.peers, seed);
            let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                .with_max_rounds(params.max_rounds);
            let mut model_rng = SimRng::seed_from(seed).split(5);
            let model = NormalizedModel::new(
                &SpaceSpec::synthetic(params.peers),
                params.peers,
                &mut model_rng,
            );
            let durations =
                move |p: lagover_core::PeerId, rng: &mut SimRng| model.duration(p.index(), rng);
            let label = format!("async {class} hybrid/rtt n={}", params.peers);
            Run::new(&population, &config, seed)
                .observe(
                    crate::obs_exp::JOURNAL_CAPACITY,
                    crate::obs_exp::SAMPLE_INTERVAL,
                )
                .timed(durations, max_time)
                .construct()
                .into_report(&label, population.len(), seed)
        })
        .collect();
    crate::obs_exp::merge_reports(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_converge() {
        let report = run(&Params::quick());
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            assert_eq!(
                row.converged_runs, row.total_runs,
                "{} {} failed to converge",
                row.workload, row.mode
            );
        }
        for workload in ["Rand", "BiCorr"] {
            let (lockstep, asynchronous) = (
                report.row(workload, "lockstep").median_time,
                report.row(workload, "async").median_time,
            );
            assert!(
                asynchronous > lockstep,
                "{workload}: asynchrony must slow construction ({asynchronous} vs {lockstep})"
            );
        }
        assert!(report.render().contains("async"));
    }
}
