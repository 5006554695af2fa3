//! What a run records: one plain-data outcome per verb and clock (the
//! figure JSON serializes these), and [`Observed`] — the outcome plus
//! the observability [`Trail`] when the run was built with
//! [`crate::Run::observe`].

use lagover_obs::{HealthSample, Journal, ObsReport, Profiler, Scrape};
use lagover_sim::TimeSeries;
use serde::{Deserialize, Serialize};

use crate::engine::EngineCounters;
use crate::node::PeerId;

/// Everything recorded about one construction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstructionOutcome {
    /// Round at which every online peer was first satisfied, if reached
    /// within the round cap — the paper's *construction latency*.
    pub converged_at: Option<u64>,
    /// Rounds actually executed.
    pub rounds_run: u64,
    /// Per-round satisfied fraction (x = round, y = fraction).
    pub satisfied_series: TimeSeries,
    /// Final satisfied fraction.
    pub final_satisfied_fraction: f64,
    /// Event counters accumulated over the run.
    pub counters: EngineCounters,
}

impl ConstructionOutcome {
    /// Whether the run converged within its round cap.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// Construction latency as a float, with non-convergence mapped to
    /// `cap` (the paper plots truncated bars for non-converged runs).
    pub fn latency_or(&self, cap: f64) -> f64 {
        self.converged_at.map(|r| r as f64).unwrap_or(cap)
    }
}

/// Everything recorded about one perturbed run ([`crate::Run::perturb`]):
/// construction, the injection, and the measured phase after it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerturbOutcome {
    /// Round at which every online peer was first satisfied before any
    /// one-shot injection, if it was within the round cap.
    pub converged_at: Option<u64>,
    /// Round the measured phase opened: 0 under churn, otherwise the
    /// round the crash cohort and the corruption went in.
    pub injected_at: u64,
    /// The interior nodes crashed, ascending.
    pub victims: Vec<PeerId>,
    /// Peer states the corruption actually mutated.
    pub corrupted_states: u64,
    /// Whether [`crate::Overlay::validate`] passed when the measured
    /// phase opened (the structural corruption classes guarantee it
    /// does not; pure cache forgeries may pass structure and fail only
    /// the cache coherence checks).
    pub valid_after_injection: bool,
    /// Rounds from the injection until the overlay came clean (see
    /// [`crate::Goal`]) — the *time to clean* — if it was clean when
    /// the run ended. A run without churn ends on its first clean round.
    pub rounds_to_clean: Option<u64>,
    /// Rounds actually executed after the injection.
    pub rounds_run: u64,
    /// Peak orphan population of the measured phase.
    pub orphan_peak: u64,
    /// Measured rounds that ended with some live peer's chain not
    /// reaching the source through live peers (a crashed-but-undetected
    /// ancestor, or a corrupted cycle).
    pub stale_rounds: u64,
    /// Per-round satisfied fraction from the injection on.
    pub satisfied_series: TimeSeries,
    /// Orphan population per round from the injection on.
    pub orphan_series: TimeSeries,
    /// Per-round cumulative repair actions from the injection on — the
    /// time-to-clean series the stabilization experiment plots.
    pub repair_series: TimeSeries,
    /// Event counters accumulated over the whole run.
    pub counters: EngineCounters,
}

impl PerturbOutcome {
    /// Whether the overlay was clean when the run ended.
    pub fn came_clean(&self) -> bool {
        self.rounds_to_clean.is_some()
    }

    /// Time to clean as a float, with a run that did not come clean
    /// mapped to `cap`.
    pub fn clean_or(&self, cap: f64) -> f64 {
        self.rounds_to_clean.map(|r| r as f64).unwrap_or(cap)
    }

    /// Mean satisfied fraction over the final quarter of the measured
    /// phase — the steady-state quality under membership dynamics.
    pub fn steady_state_fraction(&self) -> f64 {
        let series = &self.satisfied_series;
        let window = (self.rounds_run as usize / 4).max(1).min(series.len());
        series.tail_mean(window).unwrap_or(0.0)
    }

    /// Fraction of measured rounds that ended with every online peer
    /// satisfied.
    pub fn fully_satisfied_round_fraction(&self) -> f64 {
        let ys = self.satisfied_series.ys();
        let full = ys.iter().skip(1).filter(|&&y| y == 1.0).count();
        full as f64 / self.rounds_run.max(1) as f64
    }
}

/// Outcome of a construction run on virtual time: the convergence
/// instant plus the per-action series used to compare against the
/// round clock.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncOutcome {
    /// Virtual time at which every peer was satisfied, if reached.
    pub converged_at: Option<f64>,
    /// Total actions (events) processed.
    pub actions: u64,
    /// Satisfied fraction sampled after each action (x = virtual time).
    pub satisfied_series: TimeSeries,
    /// Final satisfied fraction.
    pub final_satisfied_fraction: f64,
    /// Event counters accumulated over the run.
    pub counters: EngineCounters,
}

impl AsyncOutcome {
    /// Whether the run converged before the time limit.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }
}

/// What the observability pipeline recorded over an observed run.
///
/// Everything here derives deterministically from the run itself, so
/// two observed runs of the same seed compare byte-equal — including
/// through the JSON forms the report generator emits.
#[derive(Debug, Clone, PartialEq)]
pub struct Trail {
    /// The bounded event journal recorded over the whole run.
    pub journal: Journal,
    /// Registry scrapes, one per sample (see [`crate::Run::observe`]
    /// for the cadence).
    pub scrapes: Vec<Scrape>,
    /// Overlay health probes, taken with the scrapes.
    pub health: Vec<HealthSample>,
    /// Clock reading of each scrape/health entry: the engine round on
    /// the round clock, the virtual time on the event clock.
    pub sample_times: Vec<f64>,
    /// Per-phase work profile (pre-injection construction included).
    pub profile: Profiler,
    /// How long the clock ran the verb's measured phase: rounds, or
    /// the virtual time of the last event rounded up.
    pub rounds: u64,
    /// When the verb reported its goal reached (convergence, healing,
    /// clean), counted like `rounds`, if it did.
    pub reached_at: Option<u64>,
    /// The engine's event counters when the run ended.
    pub counters: EngineCounters,
}

/// A verb's outcome, plus the [`Trail`] exactly when the run was built
/// with [`crate::Run::observe`]. Observation only reads engine state,
/// so `outcome` is bit-identical with and without it.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed<O> {
    /// The verb's plain outcome.
    pub outcome: O,
    /// The observability record; `None` for an unobserved run.
    pub trail: Option<Trail>,
}

impl<O> Observed<O> {
    /// The single-run [`ObsReport`] of an observed run; merge several
    /// with [`ObsReport::merge`].
    ///
    /// # Panics
    ///
    /// Panics if the run was not built with [`crate::Run::observe`].
    pub fn into_report(self, label: &str, peers: usize, seed: u64) -> ObsReport {
        let trail = self.trail.expect("into_report needs an observed run");
        ObsReport {
            label: label.to_string(),
            peers: peers as u64,
            runs: 1,
            seed,
            rounds: trail.rounds,
            turns: None,
            converged: trail.reached_at.is_some() as u64,
            converged_rounds: trail.reached_at.unwrap_or(0),
            counters: trail.counters,
            profile: trail.profile,
            scrapes: trail.scrapes,
            health: trail.health,
            journal: Some(trail.journal),
        }
    }
}
