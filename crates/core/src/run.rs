//! Runs: one description, two clocks.
//!
//! A [`Run`] describes *what* to run — population, configuration,
//! seed, optionally a substrate oracle ([`Run::oracle`]) and the
//! observability pipeline ([`Run::observe`]) — and a verb says what
//! happens to the overlay: [`Run::construct`], [`Run::under_churn`],
//! [`Run::recover`], [`Run::stabilize`]. The verbs run on the
//! synchronous **round clock**, the lockstep schedule: every online
//! peer acts once a round. Construction and recovery end by one
//! terminal rule, [`Goal`], which the node runtime's replicas step
//! too, a turn at a time.
//!
//! [`Run::timed`] moves a construction onto the **virtual-time clock**,
//! where each peer schedules its next action `duration(peer)` time
//! units after the previous one, so peers with heterogeneous durations
//! drift out of lockstep (the paper's §5.3 observation — asynchrony
//! slows construction but does not prevent convergence — is
//! experiment E6). That clock has one verb, [`TimedRun::construct`].
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
    AsyncOutcome, ChurnOutcome, ConstructionOutcome, Observed, RecoveryOutcome,
    StabilizationOutcome, Trail,
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
    /// round (`0` for no outage).
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
    /// here.
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
        let mut goal = Goal::construction(engine.config().max_rounds);
        goal.check(engine);
        let (until, done) = (goal.until(), goal.done());
        let trail = rounds(engine, self.observe, until, None, done, |engine| {
            series.push(engine.round().get() as f64, engine.satisfied_fraction());
            goal.check(engine);
            goal.done()
        });
        let outcome = ConstructionOutcome {
            converged_at: goal.converged_at(),
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
        let cap = engine.config().max_rounds;
        let mut goal = Goal::recovery(*scenario, self.seed, cap, horizon);
        goal.check(&mut engine);
        // Construction is not sampled: the measured phase opens at the
        // crash.
        while goal.crash_round().is_none() {
            engine.step();
            goal.check(&mut engine);
        }
        let crash_round = engine.round().get();
        let mut orphan_series = TimeSeries::new("orphans");
        let mut orphan_peak = engine.orphan_count() as u64;
        orphan_series.push(crash_round as f64, orphan_peak as f64);
        let until = goal.until();
        let trail = rounds(&mut engine, self.observe, until, None, false, |engine| {
            let orphans = engine.orphan_count() as u64;
            orphan_peak = orphan_peak.max(orphans);
            orphan_series.push(engine.round().get() as f64, orphans as f64);
            goal.check(engine);
            goal.done()
        });
        let outcome = RecoveryOutcome {
            construction_converged_at: goal.converged_at(),
            crash_round,
            crashed_peers: goal.victims().len(),
            victims: goal.victims().to_vec(),
            recovery_rounds: goal.healed_at().map(|round| round - crash_round),
            rounds_run: engine.round().get() - crash_round,
            orphan_peak,
            orphan_series,
            stale_rounds: goal.stale_rounds(),
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

/// A construction on the virtual-time clock; built by [`Run::timed`].
/// The run is bounded by `max_time` instead of a round count and
/// stays a pure function of `(population, config, seed, durations)`.
pub struct TimedRun<'a, D> {
    run: Run<'a>,
    durations: D,
    max_time: f64,
}

impl<D: InteractionDurations> TimedRun<'_, D> {
    /// Runs construction until convergence or `max_time`: each due
    /// online peer acts, then the run checks for convergence and
    /// samples.
    pub fn construct(mut self) -> Observed<AsyncOutcome> {
        let mut engine = self.run.engine();
        let (population, seed) = (self.run.population, self.run.seed);
        let mut clock = EventClock::new(population, seed, self.durations, self.max_time);
        let mut series = TimeSeries::new("satisfied_fraction");
        series.push(0.0, engine.satisfied_fraction());
        let mut sampler = self
            .run
            .observe
            .map(|o| Sampler::start(&mut engine, 0.0, o));
        // Per-action profiling, mirroring the round engine's phase
        // attribution; flushed ahead of whatever else records a phase.
        let profiling = engine.obs().profiling();
        let mut ledger = ActionLedger::default();
        let (mut actions, mut last, mut converged_at) = (0u64, 0.0f64, None);
        while converged_at.is_none() {
            let Some((now, peer)) = clock.next(&engine) else {
                break;
            };
            if profiling {
                engine.act_on_profiled(&mut ledger, peer);
            } else {
                engine.act_on(peer);
            }
            actions += 1;
            converged_at = engine.is_converged().then_some(now);
            series.push(now, engine.satisfied_fraction());
            last = now;
            if let Some(sampler) = sampler.as_mut() {
                sampler.tick(&mut engine, now, converged_at.is_some());
            }
        }
        engine.flush_actions(&mut ledger);
        let (ran, done) = (last.ceil() as u64, converged_at.is_some());
        let trail = sampler.map(|s| s.finish(&mut engine, ran, done));
        let outcome = AsyncOutcome {
            converged_at,
            actions,
            final_satisfied_fraction: engine.satisfied_fraction(),
            satisfied_series: series,
            counters: *engine.counters(),
        };
        Observed { outcome, trail }
    }
}

/// The virtual-time schedule, one action at a time.
///
/// Every peer's first action lands at an independent offset in
/// `[0, 1)` drawn from a stream split off the seed, each further one
/// `durations.duration(peer)` after the previous; ties pop in insertion
/// order. An offline peer's turn is a no-op that only reschedules it.
struct EventClock<D> {
    rng: SimRng,
    queue: EventQueue<PeerId>,
    durations: D,
    max_time: f64,
}

impl<D: InteractionDurations> EventClock<D> {
    /// The clock over `population` from `seed`, cut once the next
    /// action lies beyond `max_time`.
    fn new(population: &Population, seed: u64, durations: D, max_time: f64) -> Self {
        let mut rng = SimRng::seed_from(seed).split(0x5EED_A57C);
        let mut queue = EventQueue::with_capacity(population.len() + 1);
        for p in population.peer_ids() {
            let offset = rng.f64();
            queue.schedule(VirtualTime::new(offset).expect("offset in [0,1)"), p);
        }
        EventClock {
            rng,
            queue,
            durations,
            max_time,
        }
    }

    /// Pops the next action of a peer online in `engine` and schedules
    /// that peer's following one, passing over offline peers' turns;
    /// `None` once the next action lies beyond `max_time`.
    ///
    /// # Panics
    ///
    /// Panics if a duration is not strictly positive.
    fn next(&mut self, engine: &Engine) -> Option<(f64, PeerId)> {
        loop {
            if self.queue.peek_time()?.get() > self.max_time {
                return None;
            }
            let (now, peer) = self.queue.pop()?;
            let d = self.durations.duration(peer, &mut self.rng);
            assert!(d > 0.0, "interaction durations must be positive");
            self.queue.schedule_after(d, peer);
            if engine.is_online(peer) {
                return Some((now.get(), peer));
            }
        }
    }
}

/// The terminal rule of a lockstep run, applied at every round
/// boundary (and once before the first round). Construction is done
/// once converged. A recovery constructs until converged or its round
/// cap, crashes its cohort there ([`FaultScenario::inject`]), and is
/// done once *healed* — converged with no stale chain — in a later
/// round. The one copy of the rule: [`Run::construct`],
/// [`Run::recover`] and the `lagover-node` replica all step it.
#[derive(Debug, Clone, PartialEq)]
pub struct Goal {
    fault: Option<FaultScenario>,
    seed: u64,
    cap: u64,
    horizon: u64,
    converged_at: Option<u64>,
    crash_round: Option<u64>,
    victims: Vec<PeerId>,
    stale_rounds: u64,
    healed_at: Option<u64>,
}

impl Goal {
    /// Construction, for at most `cap` rounds.
    pub fn construction(cap: u64) -> Self {
        Goal {
            fault: None,
            seed: 0,
            cap,
            horizon: 0,
            converged_at: None,
            crash_round: None,
            victims: Vec::new(),
            stale_rounds: 0,
            healed_at: None,
        }
    }

    /// E15 recovery: construction for at most `cap` rounds, then
    /// `fault` injected with its cohort drawn from `seed`, then healing
    /// for at most `horizon` rounds.
    pub fn recovery(fault: FaultScenario, seed: u64, cap: u64, horizon: u64) -> Self {
        Goal {
            fault: Some(fault),
            seed,
            horizon,
            ..Goal::construction(cap)
        }
    }

    /// Applies the rule to `engine` at a round boundary.
    pub fn check(&mut self, engine: &mut Engine) {
        let round = engine.round().get();
        let Some(fault) = self.fault else {
            self.converged_at = engine.is_converged().then_some(round);
            return;
        };
        if self.crash_round.is_none() {
            self.converged_at = engine.is_converged().then_some(round);
            if self.converged_at.is_some() || round >= self.cap {
                self.victims = fault.inject(engine, self.seed);
                self.crash_round = Some(round);
            }
            return;
        }
        let stale = engine.stale_chain_count();
        self.stale_rounds += u64::from(stale > 0);
        if engine.is_converged() && stale == 0 {
            self.healed_at = Some(round);
        }
    }

    /// Whether the scenario is done: converged, or healed.
    pub fn done(&self) -> bool {
        match self.fault {
            None => self.converged_at.is_some(),
            Some(_) => self.healed_at.is_some(),
        }
    }

    /// The round the current phase is cut at: the cap while
    /// constructing, `horizon` rounds past the crash once healing.
    pub(crate) fn until(&self) -> u64 {
        match self.crash_round {
            Some(crash) => crash.saturating_add(self.horizon),
            None => self.cap,
        }
    }

    /// Whether another round runs: not done, and the phase not cut.
    pub fn runs_on(&self, engine: &Engine) -> bool {
        !self.done() && engine.round().get() < self.until()
    }

    /// The round construction converged, once reached.
    pub fn converged_at(&self) -> Option<u64> {
        self.converged_at
    }

    /// The round the cohort crashed (recovery only), once injected.
    pub(crate) fn crash_round(&self) -> Option<u64> {
        self.crash_round
    }

    /// The crashed cohort, in ascending id order.
    pub fn victims(&self) -> &[PeerId] {
        &self.victims
    }

    /// Healing rounds that ended with a stale chain.
    pub(crate) fn stale_rounds(&self) -> u64 {
        self.stale_rounds
    }

    /// The round the overlay healed (recovery only), once reached.
    pub fn healed_at(&self) -> Option<u64> {
        self.healed_at
    }
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
    use lagover_sim::{BernoulliChurn, NoChurn};

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
        let hybrid = hybrid();
        let scenario = FaultScenario {
            crash_fraction: 0.5,
            message_loss: 0.0,
            blackout_rounds: 5,
        };
        let all_classes = CorruptionPlan::new(5).with_all_classes().with_severity(0.3);

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
            |run| run.timed(uneven, 10_000.0).construct(),
            |o| Facts {
                counters: o.counters,
                reached: o.converged(),
                actions: Some(o.actions),
            },
            &[EventKind::Attach],
        );
    }

    fn crash_only(crash_fraction: f64) -> FaultScenario {
        FaultScenario {
            crash_fraction,
            ..FaultScenario::none()
        }
    }

    /// Heterogeneous action durations: even peers fast, odd peers up to
    /// twice as slow.
    fn uneven(p: PeerId, rng: &mut SimRng) -> f64 {
        1.0 + rng.f64() * (p.index() % 2) as f64
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
                .timed(uneven, 5_000.0)
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
            .timed(|_, _: &mut SimRng| 1.0, 5_000.0)
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
            .timed(|_, _: &mut SimRng| 10.0, 5.0)
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
            .timed(|_, _: &mut SimRng| 0.0, 10.0)
            .construct();
    }

    #[test]
    fn event_clock_pops_each_peer_at_its_offset_then_once_a_duration() {
        let (pop, config) = (async_population(), greedy());
        let engine = Engine::new(&pop, &config, 3);
        let mut clock = EventClock::new(&pop, 3, |_, _: &mut SimRng| 1.0, 2.0);
        let mut offsets = vec![None; pop.len()];
        let mut last = 0.0;
        for pass in 0..2 {
            let mut seen = vec![false; pop.len()];
            for _ in 0..pop.len() {
                let (now, p) = clock.next(&engine).expect("inside max_time");
                let offset = *offsets[p.index()].get_or_insert(now);
                assert!((0.0..1.0).contains(&offset));
                assert_eq!(now, offset + f64::from(pass));
                assert!(now >= last, "time runs forward");
                last = now;
                seen[p.index()] = true;
            }
            assert!(seen.iter().all(|&s| s), "every peer once per pass");
        }
        assert_eq!(clock.next(&engine), None, "cut past max_time");
    }

    #[test]
    fn goal_injects_at_convergence_and_heals_on_a_later_round() {
        let (pop, config) = (wide_population(24), greedy());
        let fault = crash_only(0.2);
        let mut engine = Engine::new(&pop, &config, 7);
        let mut goal = Goal::recovery(fault, 7, config.max_rounds, 10_000);
        goal.check(&mut engine);
        while goal.runs_on(&engine) {
            engine.step();
            goal.check(&mut engine);
        }
        let crash = goal.crash_round().expect("injected");
        assert_eq!(goal.converged_at(), Some(crash), "crashed on convergence");
        assert!(!goal.victims().is_empty(), "cohort must crash somebody");
        let healed = goal.healed_at().expect("overlay must re-converge");
        assert!(healed > crash);
        assert_eq!(engine.stale_chain_count(), 0);
        // The twin verb reads the same rule.
        let outcome = Run::new(&pop, &config, 7).recover(&fault, 10_000).outcome;
        assert_eq!(outcome.victims, goal.victims());
        assert_eq!(outcome.recovery_rounds, Some(healed - crash));
        assert_eq!(outcome.stale_rounds, goal.stale_rounds());
        assert_eq!(outcome.counters, *engine.counters());
    }
}
