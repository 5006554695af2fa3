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

/// Everything recorded about a run under churn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnOutcome {
    /// Round at which all online peers were first satisfied, if ever.
    pub first_converged_at: Option<u64>,
    /// Rounds executed.
    pub rounds_run: u64,
    /// Per-round satisfied fraction.
    pub satisfied_series: TimeSeries,
    /// Mean satisfied fraction over the final quarter of the run — the
    /// steady-state quality under membership dynamics.
    pub steady_state_fraction: f64,
    /// Fraction of rounds in which all online peers were satisfied.
    pub fully_satisfied_round_fraction: f64,
    /// Event counters accumulated over the run.
    pub counters: EngineCounters,
}

/// Everything recorded about one crash-and-heal run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOutcome {
    /// Round at which the initial (pre-fault) construction converged,
    /// if it did within the configured cap.
    pub construction_converged_at: Option<u64>,
    /// Round at which the faults were injected.
    pub crash_round: u64,
    /// Number of interior nodes crashed.
    pub crashed_peers: usize,
    /// The interior nodes crashed, ascending.
    pub victims: Vec<PeerId>,
    /// Rounds from injection until every live peer was satisfied again
    /// with no chain crossing a corpse, if reached within the horizon.
    pub recovery_rounds: Option<u64>,
    /// Rounds actually executed after the injection.
    pub rounds_run: u64,
    /// Peak orphan population observed during recovery.
    pub orphan_peak: u64,
    /// Orphan population per round (x = round, y = orphans).
    pub orphan_series: TimeSeries,
    /// Rounds during which at least one live peer's chain crossed a
    /// crashed-but-undetected ancestor (staleness violations).
    pub stale_rounds: u64,
    /// Event counters accumulated over the whole run.
    pub counters: EngineCounters,
}

impl RecoveryOutcome {
    /// Whether the overlay healed within the recovery horizon.
    pub fn recovered(&self) -> bool {
        self.recovery_rounds.is_some()
    }

    /// Recovery time as a float, with non-recovery mapped to `cap`.
    pub fn recovery_or(&self, cap: f64) -> f64 {
        self.recovery_rounds.map(|r| r as f64).unwrap_or(cap)
    }
}

/// Everything recorded about one corrupt-and-stabilize run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilizationOutcome {
    /// Round at which the initial (pre-corruption) construction
    /// converged, if it did within the configured cap.
    pub construction_converged_at: Option<u64>,
    /// Round at which the corruption plan was applied.
    pub corruption_round: u64,
    /// Peer states the plan actually mutated.
    pub corrupted_states: u64,
    /// Whether [`crate::Overlay::validate`] rejected the snapshot right
    /// after injection (the structural corruption classes guarantee it;
    /// pure cache forgeries may pass structure and fail only the cache
    /// coherence checks).
    pub valid_after_injection: bool,
    /// Rounds from injection until the overlay was validate-clean,
    /// every live peer satisfied, and no chain crossed a corpse — the
    /// *time to clean* — if reached within the horizon.
    pub clean_rounds: Option<u64>,
    /// Rounds actually executed after the injection.
    pub rounds_run: u64,
    /// Per-round satisfied fraction from the corruption round on.
    pub satisfied_series: TimeSeries,
    /// Per-round cumulative repair actions from the corruption round on
    /// — the time-to-clean series the stabilization experiment plots.
    pub repair_series: TimeSeries,
    /// Event counters accumulated over the whole run.
    pub counters: EngineCounters,
}

impl StabilizationOutcome {
    /// Whether the overlay re-stabilized within the horizon.
    pub fn stabilized(&self) -> bool {
        self.clean_rounds.is_some()
    }

    /// Time-to-clean as a float, with non-recovery mapped to `cap`.
    pub fn clean_or(&self, cap: f64) -> f64 {
        self.clean_rounds.map(|r| r as f64).unwrap_or(cap)
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
