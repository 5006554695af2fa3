//! Runs: one description, two clocks.
//!
//! A [`Run`] describes *what* to run — population, configuration,
//! seed, optionally a substrate oracle ([`Run::oracle`]) and the
//! observability pipeline ([`Run::observe`]) — and a verb says what
//! happens to the overlay: [`Run::construct`], [`Run::under_churn`],
//! [`Run::recover`], [`Run::stabilize`]. The verbs run on the
//! synchronous **round clock**; [`Run::timed`] moves the same
//! description onto the **virtual-time clock**, where each peer
//! schedules its next action `duration(peer)` time units after the
//! previous one, so peers drift out of lockstep (the paper's §5.3
//! observation — asynchrony slows construction but does not prevent
//! convergence — is experiment E6). The lockstep baseline is
//! `.timed(FixedActionDuration(1.0), ..)`.
//!
//! Every verb returns an [`Observed`]: the verb's plain outcome, plus
//! the [`Trail`] exactly when `.observe(..)` was called. There is one
//! loop per clock; a verb is the closure it hands that loop.

use lagover_sim::faults::crash_cohort;
use lagover_sim::{
    ChurnProcess, CorruptionPlan, EventQueue, FaultPlan, Round, SimRng, TimeSeries, VirtualTime,
};
use serde::{Deserialize, Serialize};

use crate::config::ConstructionConfig;
use crate::engine::{ActionLedger, Engine};
use crate::node::{PeerId, Population};
use crate::oracle::Oracle;
use crate::outcome::{
    AsyncChurnOutcome, AsyncOutcome, AsyncRecoveryOutcome, AsyncStabilizationOutcome, ChurnOutcome,
    ConstructionOutcome, Observed, RecoveryOutcome, StabilizationOutcome, Trail,
};
use crate::stabilize::apply_corruption;

/// Runs construction (no churn) until convergence or the configured
/// round cap, recording the satisfied-fraction series — the quick-start
/// spelling of `Run::new(population, config, seed).construct().outcome`.
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
    Run::new(population, config, seed).construct().outcome
}

/// A declarative fault scenario for [`Run::recover`]: crash a fraction
/// of the converged overlay's interior, optionally black out the
/// oracle and drop interactions while the overlay heals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Fraction of *interior* nodes (online peers serving at least one
    /// child) to crash-stop at the moment convergence is reached.
    pub crash_fraction: f64,
    /// Per-interaction message-loss probability during recovery.
    pub message_loss: f64,
    /// Oracle blackout length in engine rounds, starting at the crash
    /// round (`0` for no outage). The virtual-time clock never advances
    /// the engine's round, so there a non-zero blackout lasts for the
    /// rest of the run.
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

    /// Crashes the scenario's share of the interior — online peers
    /// currently serving at least one child; crashing leaves hurts
    /// nobody downstream, crashing the interior is what the detection
    /// path exists for — and installs its loss and blackout. Returns the
    /// cohort, in ascending id order.
    ///
    /// The cohort is drawn from a stream split off `seed`, not from the
    /// engine's own RNG, so the same peers crash however the engine got
    /// here — the simulator's [`Run::recover`] verbs and the node
    /// runtime's replicas all call this one function.
    pub fn inject(&self, engine: &mut Engine, seed: u64) -> Vec<PeerId> {
        let interior: Vec<u32> = engine
            .population()
            .peer_ids()
            .filter(|&p| engine.is_online(p) && !engine.overlay().children(p).is_empty())
            .map(|p| p.get())
            .collect();
        let mut cohort_rng = SimRng::seed_from(seed).split(0xFA17_C0DE);
        let victims: Vec<PeerId> = crash_cohort(&interior, self.crash_fraction, &mut cohort_rng)
            .into_iter()
            .map(PeerId::new)
            .collect();
        for &v in &victims {
            engine.inject_crash(v);
        }
        engine.set_faults(
            FaultPlan::none()
                .with_message_loss(self.message_loss)
                .with_blackout(engine.round().get(), self.blackout_rounds),
        );
        victims
    }
}

/// Supplies per-peer interaction durations. Implemented by
/// `lagover-net`'s models; kept as a local trait so `lagover-core` does
/// not depend on the network substrate.
pub trait InteractionDurations {
    /// Strictly positive duration of the next action of `peer`.
    fn duration(&mut self, peer: PeerId, rng: &mut SimRng) -> f64;
}

impl<F> InteractionDurations for F
where
    F: FnMut(PeerId, &mut SimRng) -> f64,
{
    fn duration(&mut self, peer: PeerId, rng: &mut SimRng) -> f64 {
        self(peer, rng)
    }
}

/// Every action takes the same fixed duration; `FixedActionDuration(1.0)`
/// is the lockstep schedule the `lagover-node` transports replicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedActionDuration(pub f64);

impl InteractionDurations for FixedActionDuration {
    fn duration(&mut self, _peer: PeerId, _rng: &mut SimRng) -> f64 {
        self.0
    }
}

/// Journal capacity and sample interval of an observed run.
#[derive(Debug, Clone, Copy)]
struct Observe {
    journal_capacity: usize,
    interval: u64,
}

/// The description of one run. See the [module docs](self).
pub struct Run<'a> {
    population: &'a Population,
    config: &'a ConstructionConfig,
    seed: u64,
    oracle: Option<Box<dyn Oracle>>,
    observe: Option<Observe>,
}

impl<'a> Run<'a> {
    /// A run of `config` over `population`, every random choice derived
    /// from `seed`.
    pub fn new(population: &'a Population, config: &'a ConstructionConfig, seed: u64) -> Self {
        Run {
            population,
            config,
            seed,
            oracle: None,
            observe: None,
        }
    }

    /// Samples from a substrate oracle realization (DHT directory,
    /// random-walk sampler, …) instead of the configured reference
    /// oracle.
    pub fn oracle(mut self, oracle: Box<dyn Oracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Attaches the observability pipeline — journal (bounded by
    /// `journal_capacity`), metrics registry and profiler, always all
    /// three — so the verb also returns a [`Trail`].
    ///
    /// Health is probed and the registry scraped when the verb's
    /// measured phase starts (round 0 / time 0 for construction and
    /// churn, the injection for recovery and stabilization), then every
    /// `sample_interval` rounds or virtual-time units of that phase (an
    /// interval of 0 is read as 1, on both clocks), and at the step
    /// that reaches the verb's goal. A run that instead stops at its
    /// cap is *not* sampled once more: its last sample is the last
    /// multiple of the interval.
    ///
    /// Observation only reads engine state: the observed run consumes
    /// exactly the same RNG stream and returns the same outcome.
    pub fn observe(mut self, journal_capacity: usize, sample_interval: u64) -> Self {
        self.observe = Some(Observe {
            journal_capacity,
            interval: sample_interval.max(1),
        });
        self
    }

    /// Moves the run onto the virtual-time clock: every peer's first
    /// action is scheduled at an independent offset in `[0, 1)`, each
    /// further one `durations.duration(peer)` after the previous, and
    /// the run stops once the next event lies beyond `max_time`.
    ///
    /// # Example
    ///
    /// ```
    /// use lagover_core::{Algorithm, ConstructionConfig, OracleKind, Run};
    /// use lagover_core::node::{Constraints, Population, PeerId};
    /// use lagover_sim::SimRng;
    ///
    /// let pop = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(0, 2)]);
    /// let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
    /// // Heterogeneous action durations: peers alternate fast and slow.
    /// let durations = |p: PeerId, rng: &mut SimRng| {
    ///     0.5 + rng.f64() * (p.index() as f64 % 2.0 + 1.0) / 2.0
    /// };
    /// let run = Run::new(&pop, &config, 3).timed(durations, 1_000.0);
    /// assert!(run.construct().outcome.converged());
    /// ```
    pub fn timed<D: InteractionDurations>(self, durations: D, max_time: f64) -> TimedRun<'a, D> {
        TimedRun {
            run: self,
            durations,
            max_time,
        }
    }

    /// Builds the engine this run describes, pipeline enabled if
    /// observed. The verbs call this themselves; it is public for
    /// [`Run::construct_on`]. It moves the custom oracle, if any, into
    /// the engine.
    pub fn engine(&mut self) -> Engine {
        let mut engine = match self.oracle.take() {
            Some(oracle) => Engine::with_oracle(self.population, self.config, oracle, self.seed),
            None => Engine::new(self.population, self.config, self.seed),
        };
        if let Some(observe) = self.observe {
            engine
                .obs_mut()
                .enable_journal(observe.journal_capacity)
                .enable_registry()
                .enable_profiler();
        }
        engine
    }

    /// Runs construction (no churn) until convergence or the configured
    /// round cap.
    pub fn construct(mut self) -> Observed<ConstructionOutcome> {
        let mut engine = self.engine();
        self.construct_on(&mut engine)
    }

    /// [`Run::construct`] on an engine from [`Run::engine`] that the
    /// caller keeps — to stream over the overlay it built, say.
    pub fn construct_on(&self, engine: &mut Engine) -> Observed<ConstructionOutcome> {
        let mut series = TimeSeries::new("satisfied_fraction");
        series.push(engine.round().get() as f64, engine.satisfied_fraction());
        let mut converged_at = engine.is_converged().then(|| engine.round().get());
        let (until, done) = (engine.config().max_rounds, converged_at.is_some());
        let trail = rounds(engine, self.observe, until, None, done, |engine| {
            series.push(engine.round().get() as f64, engine.satisfied_fraction());
            converged_at = engine.is_converged().then(|| engine.round().get());
            converged_at.is_some()
        });
        let outcome = ConstructionOutcome {
            converged_at,
            rounds_run: engine.round().get(),
            final_satisfied_fraction: engine.satisfied_fraction(),
            satisfied_series: series,
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }

    /// Runs construction for exactly `rounds` rounds, applying one churn
    /// step before each construction round (the paper's §5.3 protocol:
    /// everyone starts online; each time step peers leave w.p. 0.01 and
    /// rejoin w.p. 0.2).
    pub fn under_churn(
        mut self,
        churn: &mut dyn ChurnProcess,
        rounds_to_run: u64,
    ) -> Observed<ChurnOutcome> {
        let mut engine = self.engine();
        let mut series = TimeSeries::new("satisfied_fraction");
        series.push(0.0, engine.satisfied_fraction());
        let mut first_converged_at = None;
        let mut fully_satisfied_rounds = 0u64;
        let after_step = |engine: &mut Engine| {
            series.push(engine.round().get() as f64, engine.satisfied_fraction());
            if engine.is_converged() {
                fully_satisfied_rounds += 1;
                first_converged_at.get_or_insert(engine.round().get());
            }
            false
        };
        let trail = rounds(
            &mut engine,
            self.observe,
            rounds_to_run,
            Some(churn),
            false,
            after_step,
        );
        let window = (rounds_to_run as usize / 4).max(1).min(series.len());
        let outcome = ChurnOutcome {
            first_converged_at,
            rounds_run: rounds_to_run,
            steady_state_fraction: series.tail_mean(window).unwrap_or(0.0),
            satisfied_series: series,
            fully_satisfied_round_fraction: fully_satisfied_rounds as f64
                / rounds_to_run.max(1) as f64,
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }

    /// Builds the overlay to convergence, then injects the scenario —
    /// crash-stop a cohort of interior nodes, start an oracle blackout,
    /// switch on message loss — and measures self-healing for up to
    /// `horizon` further rounds.
    ///
    /// Recovery means more than the paper's convergence criterion: every
    /// live peer satisfied **and** no live chain crossing a crashed peer
    /// (right after a silent crash the old chain still *looks* rooted, so
    /// satisfaction alone would declare victory while peers reference a
    /// corpse).
    ///
    /// The victim cohort is drawn from a stream split off the seed, not
    /// from the engine's own RNG, so the same peers crash regardless of
    /// how the construction phase consumed randomness.
    pub fn recover(mut self, scenario: &FaultScenario, horizon: u64) -> Observed<RecoveryOutcome> {
        let mut engine = self.engine();
        let construction_converged_at = engine.run_to_convergence().map(Round::get);
        let crash_round = engine.round().get();
        let victims = scenario.inject(&mut engine, self.seed);

        let mut orphan_series = TimeSeries::new("orphans");
        let mut orphan_peak = engine.orphan_count() as u64;
        orphan_series.push(crash_round as f64, orphan_peak as f64);
        let mut stale_rounds = 0u64;
        let mut recovery_rounds = None;
        let until = crash_round + horizon;
        let trail = rounds(&mut engine, self.observe, until, None, false, |engine| {
            let orphans = engine.orphan_count() as u64;
            orphan_peak = orphan_peak.max(orphans);
            orphan_series.push(engine.round().get() as f64, orphans as f64);
            let stale = engine.stale_chain_count();
            if stale > 0 {
                stale_rounds += 1;
            }
            if engine.is_converged() && stale == 0 {
                recovery_rounds = Some(engine.round().get() - crash_round);
            }
            recovery_rounds.is_some()
        });
        let outcome = RecoveryOutcome {
            construction_converged_at,
            crash_round,
            crashed_peers: victims.len(),
            victims,
            recovery_rounds,
            rounds_run: engine.round().get() - crash_round,
            orphan_peak,
            orphan_series,
            stale_rounds,
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }

    /// Builds the overlay to convergence, applies `plan` as a one-shot
    /// snapshot corruption, and measures self-stabilization for up to
    /// `horizon` further rounds.
    ///
    /// *Clean* is stricter than the paper's convergence criterion: the
    /// overlay must pass the full [`crate::Overlay::validate`] sweep (a
    /// forged cache can make every peer *look* satisfied), every live
    /// peer must be satisfied, and no chain may cross a crashed peer.
    pub fn stabilize(
        mut self,
        plan: &CorruptionPlan,
        horizon: u64,
    ) -> Observed<StabilizationOutcome> {
        let mut engine = self.engine();
        let construction_converged_at = engine.run_to_convergence().map(Round::get);
        let corruption_round = engine.round().get();
        let corrupted_states = apply_corruption(&mut engine, plan);
        let valid_after_injection = engine.overlay().validate().is_ok();

        let repairs_at_injection = engine.counters().repair_actions;
        let mut satisfied_series = TimeSeries::new("satisfied_fraction");
        let mut repair_series = TimeSeries::new("repairs");
        satisfied_series.push(corruption_round as f64, engine.satisfied_fraction());
        repair_series.push(corruption_round as f64, 0.0);
        let mut clean_rounds = None;
        let until = corruption_round + horizon;
        let trail = rounds(&mut engine, self.observe, until, None, false, |engine| {
            let round = engine.round().get();
            satisfied_series.push(round as f64, engine.satisfied_fraction());
            let repairs = engine.counters().repair_actions - repairs_at_injection;
            repair_series.push(round as f64, repairs as f64);
            if is_clean(engine) {
                clean_rounds = Some(round - corruption_round);
            }
            clean_rounds.is_some()
        });
        let outcome = StabilizationOutcome {
            construction_converged_at,
            corruption_round,
            corrupted_states,
            valid_after_injection,
            clean_rounds,
            rounds_run: engine.round().get() - corruption_round,
            satisfied_series,
            repair_series,
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }
}

/// A [`Run`] on the virtual-time clock; built by [`Run::timed`]. The
/// verbs mirror [`Run`]'s, bounded by `max_time` instead of a round
/// count, and inject their fault or corruption at the very action that
/// first observes convergence, so the whole trajectory stays a pure
/// function of `(population, config, seed)` — the property the
/// multi-process node harness relies on to replicate it.
pub struct TimedRun<'a, D> {
    run: Run<'a>,
    durations: D,
    max_time: f64,
}

impl<D: InteractionDurations> TimedRun<'_, D> {
    /// Runs construction until convergence or `max_time`.
    pub fn construct(mut self) -> Observed<AsyncOutcome> {
        let mut engine = self.run.engine();
        let mut series = TimeSeries::new("satisfied_fraction");
        series.push(0.0, engine.satisfied_fraction());
        let mut converged_at = None;
        let (actions, trail) = self.events(&mut engine, None, |engine, now, _| {
            series.push(now, engine.satisfied_fraction());
            converged_at = engine.is_converged().then_some(now);
            converged_at.is_some()
        });
        let outcome = AsyncOutcome {
            converged_at,
            actions,
            final_satisfied_fraction: engine.satisfied_fraction(),
            satisfied_series: series,
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }

    /// Runs construction until `max_time` with churn applied once per
    /// unit of virtual time (the paper's per-round churn semantics
    /// mapped onto the continuous clock).
    ///
    /// # Example
    ///
    /// ```
    /// use lagover_core::{Algorithm, ConstructionConfig, FixedActionDuration, OracleKind, Run};
    /// use lagover_core::node::{Constraints, Population};
    /// use lagover_sim::BernoulliChurn;
    ///
    /// let pop = Population::new(2, vec![Constraints::new(1, 1), Constraints::new(0, 2)]);
    /// let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
    /// let mut churn = BernoulliChurn::new(0.01, 0.2);
    /// let run = Run::new(&pop, &config, 3).timed(FixedActionDuration(1.0), 500.0);
    /// assert!(run.under_churn(&mut churn).outcome.steady_state_fraction > 0.5);
    /// ```
    pub fn under_churn(mut self, churn: &mut dyn ChurnProcess) -> Observed<AsyncChurnOutcome> {
        let mut engine = self.run.engine();
        let mut series = TimeSeries::new("satisfied_fraction");
        series.push(0.0, engine.satisfied_fraction());
        let mut first_converged_at = None;
        let (actions, trail) = self.events(&mut engine, Some(churn), |engine, now, event| {
            match event {
                Event::Act(_) => {
                    if first_converged_at.is_none() && engine.is_converged() {
                        first_converged_at = Some(now);
                    }
                }
                Event::ChurnTick => series.push(now, engine.satisfied_fraction()),
            }
            false
        });
        let window = (series.len() / 4).max(1);
        let outcome = AsyncChurnOutcome {
            first_converged_at,
            actions,
            steady_state_fraction: series.tail_mean(window).unwrap_or(0.0),
            satisfied_series: series,
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }

    /// Runs construction to convergence, injects `scenario` (the same
    /// cohort [`Run::recover`] would crash), then runs on until the
    /// overlay is satisfied and stale-free again or `max_time` passes.
    /// An empty cohort counts as healed on the spot.
    pub fn recover(mut self, scenario: &FaultScenario) -> Observed<AsyncRecoveryOutcome> {
        let mut engine = self.run.engine();
        let seed = self.run.seed;
        let mut construction_converged_at = None;
        let mut crashed_peers = None;
        let mut healed_at = None;
        let (actions, trail) = self.events(&mut engine, None, |engine, now, _| {
            if crashed_peers.is_none() {
                if engine.is_converged() {
                    construction_converged_at = Some(now);
                    let victims = scenario.inject(engine, seed).len();
                    crashed_peers = Some(victims);
                    if victims == 0 {
                        healed_at = Some(now);
                    }
                }
            } else if engine.is_converged() && engine.stale_chain_count() == 0 {
                healed_at = Some(now);
            }
            healed_at.is_some()
        });
        let outcome = AsyncRecoveryOutcome {
            construction_converged_at,
            crashed_peers: crashed_peers.unwrap_or(0),
            healed_at,
            actions,
            final_satisfied_fraction: engine.satisfied_fraction(),
            final_stale_chains: engine.stale_chain_count(),
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }

    /// Runs construction to convergence, applies `plan`, then runs on
    /// until the overlay is clean (as [`Run::stabilize`] defines it)
    /// again or `max_time` passes. A plan that mutates nothing counts
    /// as clean on the spot. Repair here is the per-action check alone:
    /// the stabilizing sweep belongs to `Engine::step`, which this
    /// clock never calls, and the `dangling_parent` and `orphan_graft`
    /// classes are measured not to come clean without it.
    pub fn stabilize(mut self, plan: &CorruptionPlan) -> Observed<AsyncStabilizationOutcome> {
        let mut engine = self.run.engine();
        let mut construction_converged_at = None;
        let mut corrupted_states = None;
        let mut valid_after_injection = true;
        let mut clean_at = None;
        let (actions, trail) = self.events(&mut engine, None, |engine, now, _| {
            if corrupted_states.is_none() {
                if engine.is_converged() {
                    construction_converged_at = Some(now);
                    let corrupted = apply_corruption(engine, plan);
                    corrupted_states = Some(corrupted);
                    valid_after_injection = engine.overlay().validate().is_ok();
                    if corrupted == 0 {
                        clean_at = Some(now);
                    }
                }
            } else if is_clean(engine) {
                clean_at = Some(now);
            }
            clean_at.is_some()
        });
        let outcome = AsyncStabilizationOutcome {
            construction_converged_at,
            corrupted_states: corrupted_states.unwrap_or(0),
            valid_after_injection,
            clean_at,
            actions,
            final_satisfied_fraction: engine.satisfied_fraction(),
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }

    /// The virtual-time clock: pops events up to `max_time`, lets the
    /// due peer act (or churn tick), reschedules it, and calls `after`
    /// for every event that did something, until `after` says done.
    /// Returns the number of actions and the trail of an observed run.
    fn events(
        &mut self,
        engine: &mut Engine,
        mut churn: Option<&mut dyn ChurnProcess>,
        mut after: impl FnMut(&mut Engine, f64, Event) -> bool,
    ) -> (u64, Option<Trail>) {
        // Churned runs have always drawn their schedule from a stream
        // of their own; both salts are pinned by the figure documents.
        let salt = if churn.is_some() {
            0x5EED_A57D
        } else {
            0x5EED_A57C
        };
        let mut schedule_rng = SimRng::seed_from(self.run.seed).split(salt);
        let mut queue: EventQueue<Event> = EventQueue::with_capacity(engine.population().len() + 1);
        for p in engine.population().peer_ids() {
            let offset = schedule_rng.f64();
            queue.schedule(
                VirtualTime::new(offset).expect("offset in [0,1)"),
                Event::Act(p),
            );
        }
        if churn.is_some() {
            queue.schedule(VirtualTime::new(1.0).expect("positive"), Event::ChurnTick);
        }

        let mut sampler = self.run.observe.map(|o| Sampler::start(engine, 0.0, o));
        // Per-action profiling, mirroring the round engine's phase
        // attribution; flushed ahead of whatever else records a phase.
        let profiling = engine.obs().profiling();
        let mut ledger = ActionLedger::default();
        let (mut actions, mut last, mut done) = (0u64, 0.0f64, false);
        while !done {
            let Some((now, event)) = queue.pop() else {
                break;
            };
            let now = now.get();
            if now > self.max_time {
                break;
            }
            done = match event {
                Event::Act(p) => {
                    let acts = engine.is_online(p);
                    if acts {
                        if profiling {
                            engine.act_on_profiled(&mut ledger, p);
                        } else {
                            engine.act_on(p);
                        }
                        actions += 1;
                    }
                    let d = self.durations.duration(p, &mut schedule_rng);
                    assert!(d > 0.0, "interaction durations must be positive");
                    queue.schedule_after(d, event);
                    if !acts {
                        continue;
                    }
                    after(engine, now, event)
                }
                Event::ChurnTick => {
                    let churn = churn
                        .as_deref_mut()
                        .expect("ticks are scheduled under churn");
                    engine.flush_actions(&mut ledger);
                    engine.apply_churn(churn);
                    queue.schedule_after(1.0, event);
                    after(engine, now, event)
                }
            };
            last = now;
            if let Some(sampler) = sampler.as_mut() {
                sampler.tick(engine, now, done);
            }
        }
        engine.flush_actions(&mut ledger);
        let ran = last.ceil() as u64;
        (actions, sampler.map(|s| s.finish(engine, ran, done)))
    }
}

/// Event payload of the virtual-time queue.
#[derive(Clone, Copy)]
enum Event {
    /// A peer's next own-action.
    Act(PeerId),
    /// The once-per-time-unit churn tick.
    ChurnTick,
}

/// The round clock: (churn step, if any, then) `Engine::step` until
/// the engine reaches round `until`, calling `after_step` after each
/// round until it says done (`done` is the verb's state before the
/// first step). Returns the trail of an observed run.
fn rounds(
    engine: &mut Engine,
    observe: Option<Observe>,
    until: u64,
    mut churn: Option<&mut dyn ChurnProcess>,
    mut done: bool,
    mut after_step: impl FnMut(&mut Engine) -> bool,
) -> Option<Trail> {
    let start = engine.round().get();
    let mut sampler = observe.map(|o| Sampler::start(engine, start as f64, o));
    while !done && engine.round().get() < until {
        if let Some(churn) = churn.as_deref_mut() {
            engine.apply_churn(churn);
        }
        engine.step();
        done = after_step(engine);
        if let Some(sampler) = sampler.as_mut() {
            sampler.tick(engine, engine.round().get() as f64, done);
        }
    }
    let ran = engine.round().get() - start;
    sampler.map(|s| s.finish(engine, ran, done))
}

/// Validate-clean, every live peer satisfied, no chain across a corpse.
fn is_clean(engine: &Engine) -> bool {
    engine.overlay().validate().is_ok() && engine.is_converged() && engine.stale_chain_count() == 0
}

/// The sample cadence of an observed run, on either clock: once at the
/// start, then whenever the clock has passed the next multiple of the
/// interval since the start, and when the verb is done.
struct Sampler {
    interval: f64,
    next: f64,
    scrapes: Vec<lagover_obs::Scrape>,
    health: Vec<lagover_obs::HealthSample>,
    times: Vec<f64>,
}

impl Sampler {
    fn start(engine: &mut Engine, now: f64, observe: Observe) -> Self {
        let interval = observe.interval as f64;
        let mut sampler = Sampler {
            interval,
            next: now + interval,
            scrapes: Vec::new(),
            health: Vec::new(),
            times: Vec::new(),
        };
        sampler.sample(engine, now);
        sampler
    }

    fn tick(&mut self, engine: &mut Engine, now: f64, done: bool) {
        if done || now >= self.next {
            self.sample(engine, now);
            while self.next <= now {
                self.next += self.interval;
            }
        }
    }

    fn sample(&mut self, engine: &mut Engine, now: f64) {
        self.health.push(engine.health_sample());
        let scrape = engine.scrape().expect("registry enabled");
        self.scrapes.push(scrape);
        self.times.push(now);
    }

    /// Hands the trail off: the clock ran `ran` rounds (or time units,
    /// rounded up) and stopped because the verb was `done`, or at its cap.
    fn finish(self, engine: &mut Engine, ran: u64, done: bool) -> Trail {
        Trail {
            profile: engine.obs().profiler().cloned().expect("profiler enabled"),
            journal: engine.obs_mut().take_journal().expect("journal enabled"),
            rounds: ran,
            reached_at: done.then_some(ran),
            counters: *engine.counters(),
            scrapes: self.scrapes,
            health: self.health,
            sample_times: self.times,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use lagover_obs::EventKind;
    use lagover_sim::{BernoulliChurn, CorruptionClass, NoChurn};

    use super::*;
    use crate::config::Algorithm;
    use crate::engine::EngineCounters;
    use crate::node::Constraints;
    use crate::oracle::OracleKind;

    fn hybrid() -> ConstructionConfig {
        ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(2_000)
    }

    fn greedy() -> ConstructionConfig {
        ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay).with_max_rounds(10_000)
    }

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

    fn wide_population(n: u32) -> Population {
        // Feasible by construction: 4 peers per latency tier, fanout 3
        // each, so tier k offers 12 slots to tier k+1's 4 demands.
        let constraints = (0..n).map(|i| Constraints::new(3, i / 4 + 1)).collect();
        Population::new(4, constraints)
    }

    /// What a table row's outcome says about itself.
    struct Facts {
        counters: EngineCounters,
        /// Whether the verb's goal was reached (so a final sample exists).
        reached: bool,
        /// Actions processed, on the virtual-time clock.
        actions: Option<u64>,
    }

    /// One row of the observation table: the verb run plain and
    /// observed must give equal outcomes, a trail exactly when observed,
    /// and a trail that reconciles with the outcome.
    fn observation_row<'a, O: PartialEq + Debug>(
        name: &str,
        run: impl Fn() -> Run<'a>,
        verb: impl Fn(Run<'a>) -> Observed<O>,
        facts: impl Fn(&O) -> Facts,
        journaled: &[EventKind],
    ) -> Trail {
        let plain = verb(run());
        assert!(plain.trail.is_none(), "{name}: trail without .observe");
        let observed = verb(run().observe(8_192, 5));
        assert_eq!(
            observed.outcome, plain.outcome,
            "{name}: observation must not perturb"
        );
        let trail = observed.trail.expect("trail with .observe");
        let facts = facts(&plain.outcome);

        assert!(!trail.journal.is_empty(), "{name}: empty journal");
        for kind in journaled {
            assert!(
                trail.journal.iter().any(|e| e.kind() == *kind),
                "{name}: no {kind:?} on the journal"
            );
        }
        assert!(!trail.health.is_empty(), "{name}: sampled at the start");
        assert_eq!(trail.health.len(), trail.scrapes.len(), "{name}");
        assert_eq!(trail.health.len(), trail.sample_times.len(), "{name}");
        // The clock's own summary agrees with the verb's outcome.
        assert_eq!(trail.counters, facts.counters, "{name}");
        assert_eq!(trail.reached_at.is_some(), facts.reached, "{name}");
        // The profile's phase totals reconcile with the engine counters.
        let total = trail.profile.total();
        assert_eq!(total.attaches, facts.counters.attaches, "{name}");
        assert_eq!(
            total.oracle_queries, facts.counters.oracle_queries,
            "{name}"
        );
        assert_eq!(total.interactions, facts.counters.interactions, "{name}");
        if let Some(actions) = facts.actions {
            assert_eq!(total.actions, actions, "{name}");
        }
        if facts.reached {
            // Sampled at the step that reached the goal: the last probe
            // is satisfied and orphan-free, and the last scrape carries
            // the final counters.
            let last = trail.health.last().expect("sampled");
            assert_eq!(last.satisfied_fraction, 1.0, "{name}");
            assert_eq!(last.orphans, 0, "{name}");
            let last = trail.scrapes.last().expect("scraped");
            assert_eq!(
                last.counter("engine.attaches"),
                facts.counters.attaches,
                "{name}"
            );
            assert_eq!(
                last.counter("engine.repair_actions"),
                facts.counters.repair_actions,
                "{name}"
            );
        }
        trail
    }

    #[test]
    fn observed_runs_match_plain_runs_for_every_verb_on_both_clocks() {
        let pop = population();
        let heal_pop = recovery_population();
        let wide = wide_population(24);
        let (hybrid, greedy) = (hybrid(), greedy());
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.0,
            blackout_rounds: 5,
        };
        let all_classes = CorruptionPlan::new(5).with_all_classes().with_severity(0.3);
        let cycle = CorruptionPlan::new(5)
            .with_class(CorruptionClass::ParentCycle)
            .with_severity(0.3);
        fn lockstep(run: Run<'_>) -> TimedRun<'_, FixedActionDuration> {
            run.timed(FixedActionDuration(1.0), 10_000.0)
        }

        // Round clock.
        observation_row(
            "construct / rounds",
            || Run::new(&pop, &hybrid, 5),
            |run| run.construct(),
            |o| Facts {
                counters: o.counters,
                reached: o.converged(),
                actions: None,
            },
            &[EventKind::Attach],
        );
        observation_row(
            "construct / rounds / custom oracle",
            || Run::new(&pop, &hybrid, 5).oracle(OracleKind::RandomDelay.build()),
            |run| run.construct(),
            |o| Facts {
                counters: o.counters,
                reached: o.converged(),
                actions: None,
            },
            &[EventKind::Attach],
        );
        observation_row(
            "under_churn / rounds",
            || Run::new(&pop, &hybrid, 9),
            |run| run.under_churn(&mut BernoulliChurn::paper(), 600),
            |o| Facts {
                counters: o.counters,
                reached: false,
                actions: None,
            },
            &[EventKind::Attach],
        );
        let trail = observation_row(
            "recover / rounds",
            || Run::new(&heal_pop, &hybrid, 11),
            |run| run.recover(&scenario, 800),
            |o| Facts {
                counters: o.counters,
                reached: o.recovered(),
                actions: None,
            },
            &[EventKind::Crash],
        );
        assert!(trail.health.len() >= 2, "crash round plus healed round");
        observation_row(
            "stabilize / rounds",
            || Run::new(&heal_pop, &hybrid, 13),
            |run| run.stabilize(&all_classes, 800),
            |o| Facts {
                counters: o.counters,
                reached: o.stabilized(),
                actions: None,
            },
            &[EventKind::InconsistencyDetected, EventKind::RepairAction],
        );

        // Virtual time.
        observation_row(
            "construct / virtual time",
            || Run::new(&pop, &hybrid, 7),
            |run| lockstep(run).construct(),
            |o| Facts {
                counters: o.counters,
                reached: o.converged(),
                actions: Some(o.actions),
            },
            &[EventKind::Attach],
        );
        observation_row(
            "under_churn / virtual time",
            || Run::new(&pop, &hybrid, 9),
            |run| {
                run.timed(FixedActionDuration(1.0), 600.0)
                    .under_churn(&mut BernoulliChurn::paper())
            },
            |o| Facts {
                counters: o.counters,
                reached: false,
                actions: Some(o.actions),
            },
            &[EventKind::Attach],
        );
        observation_row(
            "recover / virtual time",
            || Run::new(&wide, &greedy, 7),
            |run| {
                lockstep(run).recover(&FaultScenario {
                    crash_fraction: 0.2,
                    ..FaultScenario::none()
                })
            },
            |o| Facts {
                counters: o.counters,
                reached: o.healed(),
                actions: Some(o.actions),
            },
            &[EventKind::Crash],
        );
        observation_row(
            "stabilize / virtual time",
            || Run::new(&wide, &greedy, 7),
            |run| lockstep(run).stabilize(&cycle),
            |o| {
                assert!(o.corrupted_states > 0, "the plan must bite");
                assert!(o.clean_at.is_some(), "cycles heal without the sweep");
                Facts {
                    counters: o.counters,
                    reached: o.clean_at.is_some(),
                    actions: Some(o.actions),
                }
            },
            &[EventKind::InconsistencyDetected],
        );
    }

    #[test]
    fn observed_run_is_deterministic() {
        let (pop, config) = (population(), hybrid());
        let a = Run::new(&pop, &config, 9).observe(256, 5).construct();
        let b = Run::new(&pop, &config, 9).observe(256, 5).construct();
        assert_eq!(a, b);
    }

    #[test]
    fn sample_interval_zero_reads_as_one_on_both_clocks() {
        let (pop, config) = (population(), hybrid());
        let zero = Run::new(&pop, &config, 5).observe(256, 0).construct();
        let one = Run::new(&pop, &config, 5).observe(256, 1).construct();
        assert_eq!(zero, one);
        let timed = |interval| {
            Run::new(&pop, &config, 5)
                .observe(256, interval)
                .timed(FixedActionDuration(1.0), 5_000.0)
                .construct()
        };
        assert_eq!(timed(0), timed(1));
    }

    #[test]
    fn capped_run_is_not_sampled_past_the_last_interval_multiple() {
        // 7 rounds of churn sampled every 5: start, round 5, and no
        // "once more at the end".
        let (pop, config) = (population(), hybrid());
        let observed = Run::new(&pop, &config, 5)
            .observe(256, 5)
            .under_churn(&mut NoChurn, 7);
        let trail = observed.trail.expect("observed");
        assert_eq!(trail.sample_times, vec![0.0, 5.0]);
    }

    #[test]
    fn construct_records_monotone_progress_to_one() {
        let outcome = construct(&population(), &hybrid(), 5);
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
        let (pop, config) = (population(), greedy());
        let outcome = Run::new(&pop, &config, 5)
            .under_churn(&mut NoChurn, 300)
            .outcome;
        assert!(outcome.first_converged_at.is_some());
        assert_eq!(outcome.steady_state_fraction, 1.0);
        assert!(outcome.fully_satisfied_round_fraction > 0.8);
    }

    #[test]
    fn run_with_paper_churn_keeps_high_steady_state() {
        let (pop, config) = (population(), hybrid().with_max_rounds(10_000));
        let mut churn = BernoulliChurn::paper();
        let outcome = Run::new(&pop, &config, 9)
            .under_churn(&mut churn, 600)
            .outcome;
        assert!(
            outcome.steady_state_fraction > 0.7,
            "steady state {} too low",
            outcome.steady_state_fraction
        );
        assert!(outcome.counters.churn_departures > 0);
    }

    #[test]
    fn zero_round_churn_run_is_well_formed() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let pop = population();
        let outcome = Run::new(&pop, &config, 1)
            .under_churn(&mut NoChurn, 0)
            .outcome;
        assert_eq!(outcome.rounds_run, 0);
        assert_eq!(outcome.fully_satisfied_round_fraction, 0.0);
    }

    #[test]
    fn recovery_run_heals_after_interior_crash() {
        let (pop, config) = (recovery_population(), hybrid());
        let outcome = Run::new(&pop, &config, 11)
            .recover(
                &FaultScenario {
                    crash_fraction: 0.5,
                    ..FaultScenario::none()
                },
                1_000,
            )
            .outcome;
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
        let (pop, config) = (recovery_population(), hybrid());
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.1,
            blackout_rounds: 20,
        };
        let outcome = Run::new(&pop, &config, 12)
            .recover(&scenario, 1_500)
            .outcome;
        assert!(outcome.recovered(), "compound scenario heals: {outcome:?}");
        assert!(outcome.counters.oracle_outages > 0 || outcome.counters.messages_lost > 0);
    }

    #[test]
    fn recovery_run_is_deterministic() {
        let (pop, config) = (recovery_population(), hybrid());
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.05,
            blackout_rounds: 10,
        };
        let a = Run::new(&pop, &config, 21).recover(&scenario, 800);
        let b = Run::new(&pop, &config, 21).recover(&scenario, 800);
        assert_eq!(a, b);
    }

    #[test]
    fn recovery_over_a_custom_oracle_heals() {
        // A custom oracle exercising the substrate path end to end: the
        // reference RandomDelay built explicitly.
        let (pop, config) = (recovery_population(), hybrid());
        let outcome = Run::new(&pop, &config, 11)
            .oracle(OracleKind::RandomDelay.build())
            .recover(
                &FaultScenario {
                    crash_fraction: 0.5,
                    ..FaultScenario::none()
                },
                1_000,
            )
            .outcome;
        assert!(outcome.recovered(), "oracle-realization path heals");
        assert_eq!(outcome.crashed_peers, 1);
    }

    #[test]
    fn faultless_scenario_recovers_instantly() {
        let (pop, config) = (recovery_population(), hybrid());
        let outcome = Run::new(&pop, &config, 5)
            .recover(&FaultScenario::none(), 50)
            .outcome;
        assert_eq!(outcome.crashed_peers, 0);
        assert!(outcome.recovered());
        assert_eq!(outcome.orphan_peak, 0);
        assert_eq!(outcome.stale_rounds, 0);
    }

    #[test]
    fn stabilization_run_heals_every_class_at_once() {
        let (pop, config) = (recovery_population(), hybrid());
        let plan = CorruptionPlan::new(3).with_all_classes().with_severity(0.3);
        let outcome = Run::new(&pop, &config, 11).stabilize(&plan, 1_000).outcome;
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
        let (pop, config) = (recovery_population(), hybrid());
        let plan = CorruptionPlan::new(8).with_all_classes().with_severity(0.4);
        let a = Run::new(&pop, &config, 21).stabilize(&plan, 800);
        let b = Run::new(&pop, &config, 21).stabilize(&plan, 800);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_corruption_plan_is_clean_immediately() {
        let (pop, config) = (recovery_population(), hybrid());
        let plan = CorruptionPlan::new(1);
        let outcome = Run::new(&pop, &config, 5).stabilize(&plan, 50).outcome;
        assert_eq!(outcome.corrupted_states, 0);
        assert!(outcome.valid_after_injection);
        assert_eq!(outcome.clean_rounds, Some(1), "clean at the first check");
        assert_eq!(outcome.counters.inconsistencies_detected, 0);
    }

    fn async_population() -> Population {
        Population::new(
            2,
            vec![
                Constraints::new(2, 1),
                Constraints::new(1, 2),
                Constraints::new(0, 2),
                Constraints::new(0, 3),
            ],
        )
    }

    #[test]
    fn lockstep_async_converges() {
        let (pop, config) = (async_population(), greedy());
        let outcome = Run::new(&pop, &config, 7)
            .timed(FixedActionDuration(1.0), 5_000.0)
            .construct()
            .outcome;
        assert!(outcome.converged());
        assert_eq!(outcome.final_satisfied_fraction, 1.0);
    }

    #[test]
    fn heterogeneous_durations_still_converge() {
        let (pop, config) = (async_population(), hybrid());
        // Peers 0/1 fast, peers 2/3 up to 4x slower.
        let durations = |p: PeerId, rng: &mut SimRng| {
            if p.index() < 2 {
                0.5 + rng.f64() * 0.1
            } else {
                1.5 + rng.f64() * 2.5
            }
        };
        let outcome = Run::new(&pop, &config, 11)
            .timed(durations, 10_000.0)
            .construct()
            .outcome;
        assert!(outcome.converged());
        assert!(outcome.actions > 0);
    }

    #[test]
    fn time_limit_truncates() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let pop = async_population();
        let outcome = Run::new(&pop, &config, 3)
            .timed(FixedActionDuration(10.0), 5.0)
            .construct()
            .outcome;
        // Only the initial offsets fit inside the limit.
        assert!(outcome.actions <= 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_durations_rejected() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let pop = async_population();
        let _ = Run::new(&pop, &config, 3)
            .timed(FixedActionDuration(0.0), 10.0)
            .construct();
    }

    #[test]
    fn async_recovery_heals_after_interior_crash() {
        let (pop, config) = (wide_population(24), greedy());
        let outcome = Run::new(&pop, &config, 7)
            .timed(FixedActionDuration(1.0), 10_000.0)
            .recover(&FaultScenario {
                crash_fraction: 0.2,
                ..FaultScenario::none()
            })
            .outcome;
        assert!(outcome.construction_converged_at.is_some());
        assert!(outcome.crashed_peers > 0, "cohort must crash somebody");
        assert!(outcome.healed(), "overlay must re-converge: {outcome:?}");
        assert_eq!(outcome.final_stale_chains, 0);
        assert!(outcome.healed_at > outcome.construction_converged_at);
    }

    #[test]
    fn async_recovery_zero_fraction_heals_instantly() {
        let (pop, config) = (wide_population(16), greedy());
        let outcome = Run::new(&pop, &config, 3)
            .timed(FixedActionDuration(1.0), 10_000.0)
            .recover(&FaultScenario::none())
            .outcome;
        assert_eq!(outcome.crashed_peers, 0);
        assert_eq!(outcome.healed_at, outcome.construction_converged_at);
    }
}
