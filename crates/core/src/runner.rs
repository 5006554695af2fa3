//! High-level run orchestration: single construction runs, runs under
//! churn, and the recorded outcomes the experiment harness consumes.

use lagover_obs::{HealthSample, Journal, Profiler, Scrape};
use lagover_sim::{ChurnProcess, CorruptionPlan, FaultPlan, Round, SimRng, TimeSeries};
use serde::{Deserialize, Serialize};

use crate::config::ConstructionConfig;
use crate::engine::{Engine, EngineCounters};
use crate::node::Population;
use crate::oracle::Oracle;

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

/// Runs construction (no churn) until convergence or the configured
/// round cap, recording the satisfied-fraction series.
///
/// # Example
///
/// ```
/// use lagover_core::{construct, Algorithm, ConstructionConfig, OracleKind};
/// use lagover_core::node::{Constraints, Population};
///
/// let pop = Population::new(2, vec![
///     Constraints::new(1, 1),
///     Constraints::new(0, 2),
/// ]);
/// let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay);
/// let outcome = construct(&pop, &config, 1);
/// assert!(outcome.converged());
/// assert_eq!(outcome.final_satisfied_fraction, 1.0);
/// ```
pub fn construct(
    population: &Population,
    config: &ConstructionConfig,
    seed: u64,
) -> ConstructionOutcome {
    let engine = Engine::new(population, config, seed);
    construct_with_engine(engine)
}

/// [`construct`] with a custom oracle (DHT directory, random-walk
/// sampler, …).
pub fn construct_with_oracle(
    population: &Population,
    config: &ConstructionConfig,
    oracle: Box<dyn Oracle>,
    seed: u64,
) -> ConstructionOutcome {
    let engine = Engine::with_oracle(population, config, oracle, seed);
    construct_with_engine(engine)
}

fn construct_with_engine(mut engine: Engine) -> ConstructionOutcome {
    let mut series = TimeSeries::new("satisfied_fraction");
    series.push(0.0, engine.satisfied_fraction());
    let mut converged_at: Option<Round> = if engine.is_converged() {
        Some(engine.round())
    } else {
        None
    };
    while converged_at.is_none() && engine.round().get() < engine.config().max_rounds {
        engine.step();
        series.push(engine.round().get() as f64, engine.satisfied_fraction());
        if engine.is_converged() {
            converged_at = Some(engine.round());
        }
    }
    ConstructionOutcome {
        converged_at: converged_at.map(Round::get),
        rounds_run: engine.round().get(),
        final_satisfied_fraction: engine.satisfied_fraction(),
        satisfied_series: series,
        counters: *engine.counters(),
    }
}

/// A construction run with the full observability pipeline attached:
/// the plain outcome plus the event journal, the per-interval registry
/// scrapes and health probes, and the cost-model profile.
///
/// Everything here derives deterministically from the run itself, so
/// two observed runs of the same seed compare byte-equal — including
/// through the JSON forms the report generator emits.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedRun {
    /// The plain construction outcome (identical to [`construct`]'s).
    pub outcome: ConstructionOutcome,
    /// The bounded event journal recorded over the run.
    pub journal: Journal,
    /// Registry scrapes, one per sample interval plus the final round.
    pub scrapes: Vec<Scrape>,
    /// Overlay health probes, taken at the same cadence as the scrapes.
    pub health: Vec<HealthSample>,
    /// Per-phase work profile.
    pub profile: Profiler,
}

/// [`construct`] with the observability pipeline enabled: records every
/// protocol event into a journal bounded by `journal_capacity`, probes
/// overlay health and scrapes the metrics registry every
/// `sample_interval` rounds (clamped to at least 1) and once more at
/// the final round, and attributes per-phase work to the profiler.
///
/// The observed run consumes **exactly** the same RNG stream as the
/// plain one: observation only reads engine state, so
/// `construct_observed(p, c, s, ..).outcome == construct(p, c, s)`.
pub fn construct_observed(
    population: &Population,
    config: &ConstructionConfig,
    seed: u64,
    journal_capacity: usize,
    sample_interval: u64,
) -> ObservedRun {
    let interval = sample_interval.max(1);
    let mut engine = Engine::new(population, config, seed);
    engine
        .obs_mut()
        .enable_journal(journal_capacity)
        .enable_registry()
        .enable_profiler();

    let mut series = TimeSeries::new("satisfied_fraction");
    series.push(0.0, engine.satisfied_fraction());
    let mut scrapes = Vec::new();
    let mut health = Vec::new();
    health.push(engine.health_sample());
    scrapes.push(engine.scrape().expect("registry enabled"));
    let mut converged_at: Option<Round> = if engine.is_converged() {
        Some(engine.round())
    } else {
        None
    };
    while converged_at.is_none() && engine.round().get() < engine.config().max_rounds {
        engine.step();
        series.push(engine.round().get() as f64, engine.satisfied_fraction());
        if engine.is_converged() {
            converged_at = Some(engine.round());
        }
        if engine.round().get().is_multiple_of(interval) || converged_at.is_some() {
            health.push(engine.health_sample());
            scrapes.push(engine.scrape().expect("registry enabled"));
        }
    }
    let outcome = ConstructionOutcome {
        converged_at: converged_at.map(Round::get),
        rounds_run: engine.round().get(),
        final_satisfied_fraction: engine.satisfied_fraction(),
        satisfied_series: series,
        counters: *engine.counters(),
    };
    let profile = engine.obs().profiler().cloned().expect("profiler enabled");
    let journal = engine.obs_mut().take_journal().expect("journal enabled");
    ObservedRun {
        outcome,
        journal,
        scrapes,
        health,
        profile,
    }
}

/// Runs `job(i)` for every index in `0..count` across worker threads,
/// returning results in index order.
///
/// Determinism: each job must derive all of its randomness from its own
/// index (the drivers map the index to an independent `SimRng` seed), so
/// the result vector is **bit-identical** to the sequential
/// `(0..count).map(job)` loop — only the wall-clock changes. This is
/// what lets the median-of-k experiment drivers parallelize without
/// perturbing any published figure.
///
/// Indices are split into contiguous chunks, one scoped thread per
/// chunk, capped at the machine's available parallelism (overridable
/// via the `LAGOVER_THREADS` environment variable). Falls back to the
/// plain sequential loop when only one worker would run.
pub fn parallel_runs<T, F>(count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_runs_with(count, default_threads(), job)
}

/// Worker count for [`parallel_runs`]: `LAGOVER_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
fn default_threads() -> usize {
    std::env::var("LAGOVER_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Chunk width for splitting `count` indices across `threads` workers:
/// `ceil(count / threads)` by default, overridable via the
/// `LAGOVER_CHUNK` environment variable (clamped to `[1, count]`).
///
/// The override exists for `cargo xtask replay-diff`, which re-runs the
/// figure drivers under several chunkings to prove the results do not
/// depend on how work is split.
fn chunk_size(count: usize, threads: usize) -> usize {
    let default = count.div_ceil(threads.max(1)).max(1);
    std::env::var("LAGOVER_CHUNK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c: &usize| c >= 1)
        .map_or(default, |c| c.min(count.max(1)))
}

/// The contiguous `(start, len)` chunk assignment [`parallel_runs_with`]
/// hands to its worker threads. Pure and public so the concurrency model
/// tests exercise the *actual* work-splitting logic, not a copy of it.
pub fn chunk_plan(count: usize, threads: usize) -> Vec<(usize, usize)> {
    if count == 0 {
        return Vec::new();
    }
    let chunk = chunk_size(count, threads);
    (0..count)
        .step_by(chunk)
        .map(|start| (start, chunk.min(count - start)))
        .collect()
}

/// [`parallel_runs`] with an explicit worker count. The result is
/// bit-identical for every `threads` value; the knob only controls how
/// the index range is chunked across scoped threads.
pub fn parallel_runs_with<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(count);
    if threads <= 1 {
        return (0..count).map(job).collect();
    }
    let chunk = chunk_size(count, threads);
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(count, || None);
    let job = &job;
    std::thread::scope(|scope| {
        for (start, slots) in (0..count).step_by(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(job(start + offset));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index filled by its chunk thread"))
        .collect()
}

/// Minimum index-space size for which [`parallel_fold`] goes wide.
/// Below it, spawning scoped threads costs more than the scan itself.
const PAR_FOLD_MIN: usize = 1 << 15;

/// Deterministic fold over the index space `[0, count)`, split by the
/// same [`chunk_plan`] that [`parallel_runs_with`] uses: each chunk is
/// folded sequentially by `map`, and chunk results are combined
/// left-to-right in chunk order. The output is therefore byte-identical
/// for every `LAGOVER_THREADS` / `LAGOVER_CHUNK` setting — including
/// order-sensitive accumulators — which is what lets the engine's O(N)
/// probes go wide inside a *single* large run without perturbing it.
///
/// Small index spaces (below an internal threshold) and single-thread
/// configurations fold inline with no thread setup at all.
pub fn parallel_fold<T, M, C>(count: usize, map: M, combine: C) -> T
where
    T: Send,
    M: Fn(std::ops::Range<usize>) -> T + Sync,
    C: Fn(T, T) -> T,
{
    // Size first: the thread count costs an env lookup and a syscall,
    // and the engine's per-round probes land here on every round.
    if count < PAR_FOLD_MIN {
        return map(0..count);
    }
    let threads = default_threads().min(count);
    if threads <= 1 {
        return map(0..count);
    }
    let plan = chunk_plan(count, threads);
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(plan.len(), || None);
    let map = &map;
    std::thread::scope(|scope| {
        for ((start, len), slot) in plan.iter().copied().zip(results.iter_mut()) {
            scope.spawn(move || {
                *slot = Some(map(start..start + len));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk folded by its thread"))
        .reduce(combine)
        .expect("count >= PAR_FOLD_MIN implies at least one chunk")
}

/// One construction run per seed, in parallel, results in seed order —
/// the common inner loop of the figure drivers.
pub fn construct_many(
    population: &Population,
    config: &ConstructionConfig,
    seeds: &[u64],
) -> Vec<ConstructionOutcome> {
    parallel_runs(seeds.len(), |i| construct(population, config, seeds[i]))
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

/// Runs construction for exactly `rounds` rounds, applying one churn
/// step before each construction round (the paper's §5.3 protocol:
/// everyone starts online; each time step peers leave w.p. 0.01 and
/// rejoin w.p. 0.2).
pub fn run_with_churn(
    population: &Population,
    config: &ConstructionConfig,
    churn: &mut dyn ChurnProcess,
    rounds: u64,
    seed: u64,
) -> ChurnOutcome {
    let mut engine = Engine::new(population, config, seed);
    let mut series = TimeSeries::new("satisfied_fraction");
    let mut first_converged_at = None;
    let mut fully_satisfied_rounds = 0u64;
    series.push(0.0, engine.satisfied_fraction());
    for _ in 0..rounds {
        engine.apply_churn(churn);
        engine.step();
        let frac = engine.satisfied_fraction();
        series.push(engine.round().get() as f64, frac);
        if engine.is_converged() {
            fully_satisfied_rounds += 1;
            if first_converged_at.is_none() {
                first_converged_at = Some(engine.round().get());
            }
        }
    }
    let window = (rounds as usize / 4).max(1).min(series.len());
    let steady = series.tail_mean(window).unwrap_or(0.0);
    ChurnOutcome {
        first_converged_at,
        rounds_run: rounds,
        satisfied_series: series,
        steady_state_fraction: steady,
        fully_satisfied_round_fraction: if rounds == 0 {
            0.0
        } else {
            fully_satisfied_rounds as f64 / rounds as f64
        },
        counters: *engine.counters(),
    }
}

/// A declarative fault scenario for [`run_recovery`]: crash a fraction
/// of the converged overlay's interior, optionally black out the
/// oracle and drop interactions while the overlay heals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Fraction of *interior* nodes (online peers serving at least one
    /// child) to crash-stop at the moment convergence is reached.
    pub crash_fraction: f64,
    /// Per-interaction message-loss probability during recovery.
    pub message_loss: f64,
    /// Oracle blackout length, starting at the crash round (`0` for no
    /// outage).
    pub blackout_rounds: u64,
}

impl FaultScenario {
    /// A scenario injecting no faults at all.
    pub fn none() -> Self {
        FaultScenario {
            crash_fraction: 0.0,
            message_loss: 0.0,
            blackout_rounds: 0,
        }
    }
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

/// Builds the overlay to convergence, then injects the scenario —
/// crash-stop a cohort of interior nodes, start an oracle blackout,
/// switch on message loss — and measures self-healing for up to
/// `recovery_horizon` further rounds.
///
/// Recovery means more than the paper's convergence criterion: every
/// live peer satisfied **and** no live chain crossing a crashed peer
/// (right after a silent crash the old chain still *looks* rooted, so
/// satisfaction alone would declare victory while peers reference a
/// corpse).
///
/// The victim cohort is drawn from a stream split off `seed`, not from
/// the engine's own RNG, so the same peers crash regardless of how the
/// construction phase consumed randomness.
pub fn run_recovery(
    population: &Population,
    config: &ConstructionConfig,
    scenario: &FaultScenario,
    recovery_horizon: u64,
    seed: u64,
) -> RecoveryOutcome {
    recovery_inner(
        population,
        config,
        scenario,
        recovery_horizon,
        seed,
        None,
        None,
    )
    .0
}

/// [`run_recovery`] against a substrate oracle realization (DHT
/// directory, random-walk sampler, …) instead of the reference oracle —
/// the crash-and-heal path of the realization experiments.
pub fn run_recovery_with_oracle(
    population: &Population,
    config: &ConstructionConfig,
    oracle: Box<dyn Oracle>,
    scenario: &FaultScenario,
    recovery_horizon: u64,
    seed: u64,
) -> RecoveryOutcome {
    recovery_inner(
        population,
        config,
        scenario,
        recovery_horizon,
        seed,
        None,
        Some(oracle),
    )
    .0
}

/// A crash-and-heal run with the observability pipeline attached. The
/// scrape/health timeline starts at the crash round: recovery is what
/// this run exists to observe.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedRecovery {
    /// The plain recovery outcome (identical to [`run_recovery`]'s).
    pub outcome: RecoveryOutcome,
    /// The bounded event journal recorded over the whole run.
    pub journal: Journal,
    /// Registry scrapes: crash round, every interval, and the final round.
    pub scrapes: Vec<Scrape>,
    /// Health probes at the same cadence.
    pub health: Vec<HealthSample>,
    /// Per-phase work profile (construction phase included).
    pub profile: Profiler,
}

/// [`run_recovery`] with the observability pipeline enabled; the
/// outcome is bit-identical to the unobserved run's.
pub fn run_recovery_observed(
    population: &Population,
    config: &ConstructionConfig,
    scenario: &FaultScenario,
    recovery_horizon: u64,
    seed: u64,
    journal_capacity: usize,
    sample_interval: u64,
) -> ObservedRecovery {
    recovery_inner(
        population,
        config,
        scenario,
        recovery_horizon,
        seed,
        Some((journal_capacity, sample_interval.max(1))),
        None,
    )
    .1
    .expect("observation requested")
}

fn recovery_inner(
    population: &Population,
    config: &ConstructionConfig,
    scenario: &FaultScenario,
    recovery_horizon: u64,
    seed: u64,
    observe: Option<(usize, u64)>,
    oracle: Option<Box<dyn Oracle>>,
) -> (RecoveryOutcome, Option<ObservedRecovery>) {
    let mut engine = match oracle {
        Some(oracle) => Engine::with_oracle(population, config, oracle, seed),
        None => Engine::new(population, config, seed),
    };
    if let Some((capacity, _)) = observe {
        engine
            .obs_mut()
            .enable_journal(capacity)
            .enable_registry()
            .enable_profiler();
    }
    let construction_converged_at = engine.run_to_convergence().map(Round::get);
    let crash_round = engine.round().get();

    // Interior nodes: online peers currently serving at least one
    // child. Crashing leaves hurts nobody downstream; crashing the
    // interior is what the detection path exists for.
    let interior: Vec<u32> = population
        .peer_ids()
        .filter(|&p| engine.is_online(p) && !engine.overlay().children(p).is_empty())
        .map(|p| p.get())
        .collect();
    let mut cohort_rng = SimRng::seed_from(seed).split(0xFA17_C0DE);
    let victims =
        lagover_sim::faults::crash_cohort(&interior, scenario.crash_fraction, &mut cohort_rng);
    for &v in &victims {
        engine.inject_crash(crate::node::PeerId::new(v));
    }
    engine.set_faults(
        FaultPlan::none()
            .with_message_loss(scenario.message_loss)
            .with_blackout(crash_round, scenario.blackout_rounds),
    );

    let mut scrapes = Vec::new();
    let mut health = Vec::new();
    if observe.is_some() {
        // Timeline starts at the moment of injection.
        health.push(engine.health_sample());
        scrapes.push(engine.scrape().expect("registry enabled"));
    }

    let mut orphan_series = TimeSeries::new("orphans");
    let mut orphan_peak = engine.orphan_count() as u64;
    orphan_series.push(crash_round as f64, orphan_peak as f64);
    let mut stale_rounds = 0u64;
    let mut recovery_rounds = None;
    let mut rounds_run = 0u64;
    for _ in 0..recovery_horizon {
        engine.step();
        rounds_run += 1;
        let orphans = engine.orphan_count() as u64;
        orphan_peak = orphan_peak.max(orphans);
        orphan_series.push(engine.round().get() as f64, orphans as f64);
        let stale = engine.stale_chain_count();
        if stale > 0 {
            stale_rounds += 1;
        }
        let healed = engine.is_converged() && stale == 0;
        if let Some((_, interval)) = observe {
            if rounds_run.is_multiple_of(interval) || healed {
                health.push(engine.health_sample());
                scrapes.push(engine.scrape().expect("registry enabled"));
            }
        }
        if healed {
            recovery_rounds = Some(engine.round().get() - crash_round);
            break;
        }
    }
    let outcome = RecoveryOutcome {
        construction_converged_at,
        crash_round,
        crashed_peers: victims.len(),
        recovery_rounds,
        rounds_run,
        orphan_peak,
        orphan_series,
        stale_rounds,
        counters: *engine.counters(),
    };
    let observed = observe.map(|_| ObservedRecovery {
        outcome: outcome.clone(),
        journal: engine.obs_mut().take_journal().expect("journal enabled"),
        scrapes,
        health,
        profile: engine.obs().profiler().cloned().expect("profiler enabled"),
    });
    (outcome, observed)
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

/// A corrupt-and-stabilize run with the observability pipeline
/// attached; the timeline starts at the corruption round.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedStabilization {
    /// The plain outcome (identical to [`run_stabilization`]'s).
    pub outcome: StabilizationOutcome,
    /// The bounded event journal recorded over the whole run —
    /// including every `InconsistencyDetected` / `RepairAction`.
    pub journal: Journal,
    /// Registry scrapes: corruption round, every interval, the clean
    /// round.
    pub scrapes: Vec<Scrape>,
    /// Health probes at the same cadence.
    pub health: Vec<HealthSample>,
    /// Per-phase work profile.
    pub profile: Profiler,
}

/// Builds the overlay to convergence, applies `plan` as a one-shot
/// snapshot corruption, and measures self-stabilization for up to
/// `horizon` further rounds.
///
/// *Clean* is stricter than the paper's convergence criterion: the
/// overlay must pass the full [`crate::Overlay::validate`] sweep (a
/// forged cache can make every peer *look* satisfied), every live peer
/// must be satisfied, and no chain may cross a crashed peer. Reaching
/// it re-arms the engine's round-end invariant assertions.
pub fn run_stabilization(
    population: &Population,
    config: &ConstructionConfig,
    plan: &CorruptionPlan,
    horizon: u64,
    seed: u64,
) -> StabilizationOutcome {
    stabilization_inner(population, config, plan, horizon, seed, None, None).0
}

/// [`run_stabilization`] against a substrate oracle realization.
pub fn run_stabilization_with_oracle(
    population: &Population,
    config: &ConstructionConfig,
    oracle: Box<dyn Oracle>,
    plan: &CorruptionPlan,
    horizon: u64,
    seed: u64,
) -> StabilizationOutcome {
    stabilization_inner(population, config, plan, horizon, seed, None, Some(oracle)).0
}

/// [`run_stabilization`] with the observability pipeline enabled; the
/// outcome is bit-identical to the unobserved run's.
pub fn run_stabilization_observed(
    population: &Population,
    config: &ConstructionConfig,
    plan: &CorruptionPlan,
    horizon: u64,
    seed: u64,
    journal_capacity: usize,
    sample_interval: u64,
) -> ObservedStabilization {
    stabilization_inner(
        population,
        config,
        plan,
        horizon,
        seed,
        Some((journal_capacity, sample_interval.max(1))),
        None,
    )
    .1
    .expect("observation requested")
}

fn stabilization_inner(
    population: &Population,
    config: &ConstructionConfig,
    plan: &CorruptionPlan,
    horizon: u64,
    seed: u64,
    observe: Option<(usize, u64)>,
    oracle: Option<Box<dyn Oracle>>,
) -> (StabilizationOutcome, Option<ObservedStabilization>) {
    let mut engine = match oracle {
        Some(oracle) => Engine::with_oracle(population, config, oracle, seed),
        None => Engine::new(population, config, seed),
    };
    if let Some((capacity, _)) = observe {
        engine
            .obs_mut()
            .enable_journal(capacity)
            .enable_registry()
            .enable_profiler();
    }
    let construction_converged_at = engine.run_to_convergence().map(Round::get);
    let corruption_round = engine.round().get();
    let corrupted_states = crate::stabilize::apply_corruption(&mut engine, plan);
    let valid_after_injection = engine.overlay().validate().is_ok();

    let mut scrapes = Vec::new();
    let mut health = Vec::new();
    if observe.is_some() {
        health.push(engine.health_sample());
        scrapes.push(engine.scrape().expect("registry enabled"));
    }

    let repairs_at_injection = engine.counters().repair_actions;
    let mut satisfied_series = TimeSeries::new("satisfied_fraction");
    let mut repair_series = TimeSeries::new("repairs");
    satisfied_series.push(corruption_round as f64, engine.satisfied_fraction());
    repair_series.push(corruption_round as f64, 0.0);
    let mut clean_rounds = None;
    let mut rounds_run = 0u64;
    for _ in 0..horizon {
        engine.step();
        rounds_run += 1;
        let round = engine.round().get() as f64;
        satisfied_series.push(round, engine.satisfied_fraction());
        repair_series.push(
            round,
            (engine.counters().repair_actions - repairs_at_injection) as f64,
        );
        let clean = engine.overlay().validate().is_ok()
            && engine.is_converged()
            && engine.stale_chain_count() == 0;
        if let Some((_, interval)) = observe {
            if rounds_run.is_multiple_of(interval) || clean {
                health.push(engine.health_sample());
                scrapes.push(engine.scrape().expect("registry enabled"));
            }
        }
        if clean {
            engine.set_stabilizing(false);
            clean_rounds = Some(engine.round().get() - corruption_round);
            break;
        }
    }
    let outcome = StabilizationOutcome {
        construction_converged_at,
        corruption_round,
        corrupted_states,
        valid_after_injection,
        clean_rounds,
        rounds_run,
        satisfied_series,
        repair_series,
        counters: *engine.counters(),
    };
    let observed = observe.map(|_| ObservedStabilization {
        outcome: outcome.clone(),
        journal: engine.obs_mut().take_journal().expect("journal enabled"),
        scrapes,
        health,
        profile: engine.obs().profiler().cloned().expect("profiler enabled"),
    });
    (outcome, observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::node::Constraints;
    use crate::oracle::OracleKind;
    use lagover_sim::{BernoulliChurn, NoChurn};

    fn population() -> Population {
        // Source feeds 2; two tiers.
        Population::new(
            2,
            vec![
                Constraints::new(2, 1),
                Constraints::new(2, 1),
                Constraints::new(0, 2),
                Constraints::new(0, 2),
                Constraints::new(0, 2),
                Constraints::new(0, 2),
            ],
        )
    }

    #[test]
    fn construct_records_monotone_progress_to_one() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let outcome = construct(&population(), &config, 5);
        assert!(outcome.converged());
        assert_eq!(outcome.final_satisfied_fraction, 1.0);
        assert_eq!(outcome.satisfied_series.last().map(|(_, y)| y), Some(1.0));
        assert_eq!(outcome.rounds_run, outcome.converged_at.unwrap());
        assert!(outcome.counters.attaches >= 6);
    }

    #[test]
    fn latency_or_caps_nonconverged() {
        let o = ConstructionOutcome {
            converged_at: None,
            rounds_run: 10,
            satisfied_series: TimeSeries::new("s"),
            final_satisfied_fraction: 0.5,
            counters: EngineCounters::default(),
        };
        assert_eq!(o.latency_or(99.0), 99.0);
        assert!(!o.converged());
    }

    #[test]
    fn run_with_no_churn_matches_construct_quality() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let outcome = run_with_churn(&population(), &config, &mut NoChurn, 300, 5);
        assert!(outcome.first_converged_at.is_some());
        assert_eq!(outcome.steady_state_fraction, 1.0);
        assert!(outcome.fully_satisfied_round_fraction > 0.8);
    }

    #[test]
    fn run_with_paper_churn_keeps_high_steady_state() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(10_000);
        let mut churn = BernoulliChurn::paper();
        let outcome = run_with_churn(&population(), &config, &mut churn, 600, 9);
        assert!(
            outcome.steady_state_fraction > 0.7,
            "steady state {} too low",
            outcome.steady_state_fraction
        );
        assert!(outcome.counters.churn_departures > 0);
    }

    #[test]
    fn parallel_runs_matches_sequential_order() {
        let sequential: Vec<u64> = (0..37).map(|i| (i as u64) * 3 + 1).collect();
        let parallel = parallel_runs(37, |i| (i as u64) * 3 + 1);
        assert_eq!(parallel, sequential);
        assert_eq!(parallel_runs(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_runs(1, |i| i), vec![0]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        // Forces the scoped-thread path even on single-CPU machines,
        // including ragged final chunks (37 is not divisible by 4).
        let sequential: Vec<u64> = (0..37)
            .map(|i| (i as u64).wrapping_mul(0x9E37) ^ 7)
            .collect();
        for threads in [2, 4, 16, 64] {
            let parallel = parallel_runs_with(37, threads, |i| (i as u64).wrapping_mul(0x9E37) ^ 7);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn construct_many_is_bit_identical_to_sequential_construct() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let pop = population();
        let seeds = [5u64, 6, 7, 8, 9];
        let parallel = construct_many(&pop, &config, &seeds);
        for (seed, outcome) in seeds.iter().zip(&parallel) {
            assert_eq!(outcome, &construct(&pop, &config, *seed), "seed {seed}");
        }
    }

    #[test]
    fn observed_run_matches_plain_construct_exactly() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let pop = population();
        let observed = construct_observed(&pop, &config, 5, 1024, 10);
        // Observation must not perturb the run: same outcome, bit for bit.
        assert_eq!(observed.outcome, construct(&pop, &config, 5));
        assert!(!observed.journal.is_empty(), "attaches were journaled");
        assert_eq!(observed.health.len(), observed.scrapes.len());
        // The profile's phase totals reconcile with the engine counters.
        let total = observed.profile.total();
        assert_eq!(total.attaches, observed.outcome.counters.attaches);
        assert_eq!(
            total.oracle_queries,
            observed.outcome.counters.oracle_queries
        );
        assert_eq!(total.interactions, observed.outcome.counters.interactions);
        // Health converged: final probe satisfied and orphan-free.
        let last = observed.health.last().expect("sampled at least once");
        assert_eq!(last.satisfied_fraction, 1.0);
        assert_eq!(last.orphans, 0);
        // Scrapes carry the event-counter view of the journal.
        let final_scrape = observed.scrapes.last().expect("scraped at least once");
        assert_eq!(
            final_scrape.counter("engine.attaches"),
            observed.outcome.counters.attaches
        );
    }

    #[test]
    fn observed_run_is_deterministic() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let pop = population();
        let a = construct_observed(&pop, &config, 9, 256, 5);
        let b = construct_observed(&pop, &config, 9, 256, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_round_churn_run_is_well_formed() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let outcome = run_with_churn(&population(), &config, &mut NoChurn, 0, 1);
        assert_eq!(outcome.rounds_run, 0);
        assert_eq!(outcome.fully_satisfied_round_fraction, 0.0);
    }

    /// Two interior relays with slack: crashing either leaves enough
    /// capacity (the freed source slot plus the survivor) for all four
    /// leaves to re-home.
    fn recovery_population() -> Population {
        Population::new(
            2,
            vec![
                Constraints::new(3, 1),
                Constraints::new(3, 1),
                Constraints::new(0, 3),
                Constraints::new(0, 3),
                Constraints::new(0, 3),
                Constraints::new(0, 3),
            ],
        )
    }

    #[test]
    fn recovery_run_heals_after_interior_crash() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.0,
            blackout_rounds: 0,
        };
        let outcome = run_recovery(&recovery_population(), &config, &scenario, 1_000, 11);
        assert!(outcome.construction_converged_at.is_some());
        assert_eq!(outcome.crashed_peers, 1, "half of two interior nodes");
        assert_eq!(outcome.counters.crashes, 1);
        assert!(
            outcome.stale_rounds >= 1,
            "silent crash must leave stale chains during the detection window"
        );
        assert!(outcome.orphan_peak >= 1, "someone is orphaned by detection");
        assert!(outcome.recovered(), "survivors re-converge: {outcome:?}");
    }

    #[test]
    fn recovery_run_survives_blackout_and_loss() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.1,
            blackout_rounds: 20,
        };
        let outcome = run_recovery(&recovery_population(), &config, &scenario, 1_500, 12);
        assert!(outcome.recovered(), "compound scenario heals: {outcome:?}");
        assert!(outcome.counters.oracle_outages > 0 || outcome.counters.messages_lost > 0);
    }

    #[test]
    fn recovery_run_is_deterministic() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.05,
            blackout_rounds: 10,
        };
        let a = run_recovery(&recovery_population(), &config, &scenario, 800, 21);
        let b = run_recovery(&recovery_population(), &config, &scenario, 800, 21);
        assert_eq!(a, b);
    }

    #[test]
    fn observed_recovery_matches_plain_run() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.0,
            blackout_rounds: 5,
        };
        let plain = run_recovery(&recovery_population(), &config, &scenario, 800, 11);
        let observed =
            run_recovery_observed(&recovery_population(), &config, &scenario, 800, 11, 2048, 5);
        assert_eq!(observed.outcome, plain, "observation must not perturb");
        assert!(!observed.journal.is_empty());
        assert_eq!(observed.health.len(), observed.scrapes.len());
        assert!(observed.health.len() >= 2, "crash round plus healed round");
        // The crash itself is on the journal.
        assert!(observed
            .journal
            .iter()
            .any(|e| e.kind() == lagover_obs::EventKind::Crash));
    }

    #[test]
    fn stabilization_run_heals_every_class_at_once() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let plan = lagover_sim::CorruptionPlan::new(3)
            .with_all_classes()
            .with_severity(0.3);
        let outcome = run_stabilization(&recovery_population(), &config, &plan, 1_000, 11);
        assert!(outcome.construction_converged_at.is_some());
        assert!(outcome.corrupted_states > 0);
        assert!(
            !outcome.valid_after_injection,
            "structural classes must break validation"
        );
        assert!(outcome.stabilized(), "did not re-stabilize: {outcome:?}");
        assert!(outcome.counters.inconsistencies_detected > 0);
        assert!(outcome.counters.repair_actions > 0);
        assert_eq!(
            outcome.repair_series.last().map(|(_, y)| y),
            Some(outcome.counters.repair_actions as f64),
            "repair series ends at the cumulative total"
        );
    }

    #[test]
    fn stabilization_run_is_deterministic() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let plan = lagover_sim::CorruptionPlan::new(8)
            .with_all_classes()
            .with_severity(0.4);
        let a = run_stabilization(&recovery_population(), &config, &plan, 800, 21);
        let b = run_stabilization(&recovery_population(), &config, &plan, 800, 21);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_corruption_plan_is_clean_immediately() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let plan = lagover_sim::CorruptionPlan::new(1);
        let outcome = run_stabilization(&recovery_population(), &config, &plan, 50, 5);
        assert_eq!(outcome.corrupted_states, 0);
        assert!(outcome.valid_after_injection);
        assert_eq!(outcome.clean_rounds, Some(1), "clean at the first check");
        assert_eq!(outcome.counters.inconsistencies_detected, 0);
    }

    #[test]
    fn observed_stabilization_matches_plain_run() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let plan = lagover_sim::CorruptionPlan::new(5)
            .with_all_classes()
            .with_severity(0.3);
        let plain = run_stabilization(&recovery_population(), &config, &plan, 800, 13);
        let observed =
            run_stabilization_observed(&recovery_population(), &config, &plan, 800, 13, 4096, 5);
        assert_eq!(observed.outcome, plain, "observation must not perturb");
        assert!(observed
            .journal
            .iter()
            .any(|e| e.kind() == lagover_obs::EventKind::InconsistencyDetected));
        assert!(observed
            .journal
            .iter()
            .any(|e| e.kind() == lagover_obs::EventKind::RepairAction));
        let last = observed.scrapes.last().expect("scraped at least once");
        assert_eq!(
            last.counter("engine.repair_actions"),
            plain.counters.repair_actions
        );
    }

    #[test]
    fn recovery_with_reference_oracle_realization_matches_builtin_shape() {
        // A custom oracle exercising the with-oracle path end to end:
        // the reference RandomDelay built explicitly.
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.0,
            blackout_rounds: 0,
        };
        let outcome = run_recovery_with_oracle(
            &recovery_population(),
            &config,
            OracleKind::RandomDelay.build(),
            &scenario,
            1_000,
            11,
        );
        assert!(outcome.recovered(), "oracle-realization path heals");
        assert_eq!(outcome.crashed_peers, 1);
    }

    #[test]
    fn faultless_scenario_recovers_instantly() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let outcome = run_recovery(
            &recovery_population(),
            &config,
            &FaultScenario::none(),
            50,
            5,
        );
        assert_eq!(outcome.crashed_peers, 0);
        assert!(outcome.recovered());
        assert_eq!(outcome.orphan_peak, 0);
        assert_eq!(outcome.stale_rounds, 0);
    }
}
