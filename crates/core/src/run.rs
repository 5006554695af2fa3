//! Runs: one description, two clocks.
//!
//! A [`Run`] describes *what* to run — population, configuration,
//! seed, optionally a substrate oracle ([`Run::oracle`]) and the
//! observability pipeline ([`Run::observe`]) — and a verb says what
//! happens to the overlay: [`Run::construct`] builds it, and
//! [`Run::perturb`] builds it under a [`Plan`] of churn, crash-stop
//! faults and snapshot corruption and measures what follows. Both
//! verbs run on the synchronous **round clock**, the lockstep
//! schedule: every online peer acts once a round. Every lockstep run
//! ends by one terminal rule, [`Goal`], which the node runtime's
//! replicas step too, a turn at a time.
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
    ChurnProcess, CorruptionPlan, EventQueue, FaultPlan, NoChurn, SimRng, TimeSeries, VirtualTime,
};
use serde::{Deserialize, Serialize};

use crate::config::ConstructionConfig;
use crate::engine::{ActionLedger, Engine};
use crate::node::{PeerId, Population};
use crate::oracle::Oracle;
use crate::outcome::{AsyncOutcome, ConstructionOutcome, Observed, PerturbOutcome, Trail};
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

/// A declarative crash-stop fault scenario for a [`Plan`]: crash a
/// fraction of the converged overlay's interior, optionally black out
/// the oracle and drop interactions while the overlay heals.
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

/// What [`Run::perturb`] injects into a converging overlay: any mix of
/// the three perturbation families, each at its fixed time.
///
/// * `churn` steps before every round from round 0 (the paper's §5.3
///   protocol: everyone starts online; each round peers leave and
///   rejoin at random).
/// * `faults` crash a cohort of the interior and `corruption` mutates
///   the snapshot, both once, on the round construction converges, or
///   at the round cap if it does not.
///
/// A plan has no timing fields: no caller needs any other times.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan<C = NoChurn> {
    /// Membership churn, stepped before every round.
    pub churn: Option<C>,
    /// Crash-stop faults, message loss and an oracle blackout (E15).
    pub faults: Option<FaultScenario>,
    /// A one-shot snapshot corruption (E16).
    pub corruption: Option<CorruptionPlan>,
}

impl Plan {
    /// Nothing injected: a plain construction.
    pub fn none() -> Self {
        Plan {
            churn: None,
            faults: None,
            corruption: None,
        }
    }

    /// Crash-stop faults alone.
    pub fn faults(faults: FaultScenario) -> Self {
        Plan {
            faults: Some(faults),
            ..Plan::none()
        }
    }

    /// A snapshot corruption alone.
    pub fn corruption(corruption: CorruptionPlan) -> Self {
        Plan {
            corruption: Some(corruption),
            ..Plan::none()
        }
    }
}

impl<C> Plan<C> {
    /// Churn alone.
    pub fn churn(churn: C) -> Self {
        Plan {
            churn: Some(churn),
            faults: None,
            corruption: None,
        }
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
        let cap = engine.config().max_rounds;
        let mut goal = Goal::new(&Plan::none(), self.seed, cap, cap);
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

    /// Builds the overlay under `plan` and measures the `horizon`
    /// rounds that follow its first injection: round 0 under churn,
    /// otherwise the round construction converges (or the round cap),
    /// where the crash cohort and the corruption go in. Construction
    /// before that round is not sampled. A churn plan runs its whole
    /// horizon; any other plan stops at its first *clean* round
    /// ([`Goal`]).
    ///
    /// The victim cohort is drawn from a stream split off the seed, not
    /// from the engine's own RNG, so the same peers crash regardless of
    /// how the construction phase consumed randomness.
    pub fn perturb<C: ChurnProcess + Clone>(
        mut self,
        plan: &Plan<C>,
        horizon: u64,
    ) -> Observed<PerturbOutcome> {
        let mut engine = self.engine();
        let mut goal = Goal::new(plan, self.seed, engine.config().max_rounds, horizon);
        goal.check(&mut engine);
        while goal.injected_at().is_none() {
            engine.step();
            goal.check(&mut engine);
        }
        let injected_at = engine.round().get();
        let valid_after_injection = engine.overlay().validate().is_ok();
        let repairs_at_injection = engine.counters().repair_actions;
        let mut satisfied_series = TimeSeries::new("satisfied_fraction");
        let mut orphan_series = TimeSeries::new("orphans");
        let mut repair_series = TimeSeries::new("repairs");
        let mut record = |engine: &Engine| {
            let round = engine.round().get() as f64;
            satisfied_series.push(round, engine.satisfied_fraction());
            orphan_series.push(round, engine.orphan_count() as f64);
            let repairs = engine.counters().repair_actions - repairs_at_injection;
            repair_series.push(round, repairs as f64);
        };
        record(&engine);
        let mut churn = plan.churn.clone();
        let churn = churn.as_mut().map(|c| c as &mut dyn ChurnProcess);
        let (until, done) = (goal.until(), goal.done());
        let trail = rounds(&mut engine, self.observe, until, churn, done, |engine| {
            record(engine);
            goal.check(engine);
            goal.done()
        });
        let outcome = PerturbOutcome {
            converged_at: goal.converged_at(),
            injected_at,
            victims: goal.victims().to_vec(),
            corrupted_states: goal.corrupted_states(),
            valid_after_injection,
            rounds_to_clean: goal.clean_at().map(|round| round - injected_at),
            rounds_run: engine.round().get() - injected_at,
            orphan_peak: orphan_series.ys().iter().fold(0.0, |a: f64, &b| a.max(b)) as u64,
            stale_rounds: goal.stale_rounds,
            satisfied_series,
            orphan_series,
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
/// boundary (and once before the first round), and the one-shot half
/// of its [`Plan`].
///
/// The run's measured phase opens at the plan's first injection: round
/// 0 under churn or with nothing to inject (a plain construction),
/// otherwise the round construction converges, or the round cap, where
/// the goal crashes the cohort ([`FaultScenario::inject`]) and applies
/// the corruption. A later round is *clean* when every online peer is
/// satisfied, no live chain crosses a corpse, and
/// [`crate::Overlay::validate`] passes — validate last, so its O(n)
/// sweep runs only on a candidate round. (A forged cache can make
/// every peer merely *look* satisfied; right after a silent crash the
/// old chains still look rooted.) A churn plan runs its whole horizon;
/// a one-shot plan is done on its first clean round. A plan with
/// nothing to inject is a plain construction, done once converged —
/// with no corpse and no forgery, converged is clean — so its check
/// reads nothing else. The one copy of the rule:
/// [`Run::construct`], [`Run::perturb`] and the `lagover-node` replica
/// all step it.
#[derive(Debug, Clone, PartialEq)]
pub struct Goal {
    churn: bool,
    faults: Option<FaultScenario>,
    corruption: Option<CorruptionPlan>,
    seed: u64,
    cap: u64,
    horizon: u64,
    converged_at: Option<u64>,
    injected_at: Option<u64>,
    fired: bool,
    victims: Vec<PeerId>,
    corrupted_states: u64,
    stale_rounds: u64,
    clean_at: Option<u64>,
}

impl Goal {
    /// The rule of `plan`: construction for at most `cap` rounds before
    /// a one-shot injection, its cohort drawn from `seed`, and a
    /// measured phase of at most `horizon` rounds.
    pub fn new<C>(plan: &Plan<C>, seed: u64, cap: u64, horizon: u64) -> Self {
        let one_shot = plan.faults.is_some() || plan.corruption.is_some();
        Goal {
            churn: plan.churn.is_some(),
            faults: plan.faults,
            corruption: plan.corruption.clone(),
            seed,
            cap,
            horizon,
            converged_at: None,
            injected_at: (plan.churn.is_some() || !one_shot).then_some(0),
            fired: false,
            victims: Vec::new(),
            corrupted_states: 0,
            stale_rounds: 0,
            clean_at: None,
        }
    }

    /// Applies the rule to `engine` at a round boundary.
    pub fn check(&mut self, engine: &mut Engine) {
        let round = engine.round().get();
        if !self.fired {
            if self.converged_at.is_none() {
                self.converged_at = engine.is_converged().then_some(round);
            }
            if self.faults.is_some() || self.corruption.is_some() {
                if self.converged_at.is_some() || round >= self.cap {
                    self.inject(engine, round);
                }
                return;
            }
            if !self.churn {
                return;
            }
        }
        let stale = engine.stale_chain_count();
        self.stale_rounds += u64::from(stale > 0);
        let clean = stale == 0 && engine.is_converged() && engine.overlay().validate().is_ok();
        self.clean_at = if clean {
            self.clean_at.or(Some(round))
        } else {
            None
        };
    }

    /// Crashes the cohort and applies the corruption on `round`.
    fn inject(&mut self, engine: &mut Engine, round: u64) {
        if let Some(faults) = self.faults {
            self.victims = faults.inject(engine, self.seed);
        }
        if let Some(corruption) = &self.corruption {
            self.corrupted_states = apply_corruption(engine, corruption);
        }
        self.fired = true;
        self.injected_at.get_or_insert(round);
    }

    /// Whether the run is done: converged if nothing was injected,
    /// clean after an injection, never under churn.
    pub fn done(&self) -> bool {
        let reached = if self.fired {
            self.clean_at
        } else {
            self.converged_at
        };
        !self.churn && reached.is_some()
    }

    /// The round the current phase is cut at: the cap while
    /// constructing toward an injection, `horizon` rounds past it once
    /// measuring.
    pub(crate) fn until(&self) -> u64 {
        match self.injected_at {
            Some(injected) => injected.saturating_add(self.horizon),
            None => self.cap,
        }
    }

    /// Whether another round runs: not done, and the phase not cut.
    pub fn runs_on(&self, engine: &Engine) -> bool {
        !self.done() && engine.round().get() < self.until()
    }

    /// The round construction converged before any one-shot injection,
    /// once reached.
    pub fn converged_at(&self) -> Option<u64> {
        self.converged_at
    }

    /// The round the measured phase opened, once it has.
    pub fn injected_at(&self) -> Option<u64> {
        self.injected_at
    }

    /// The crashed cohort, in ascending id order.
    pub fn victims(&self) -> &[PeerId] {
        &self.victims
    }

    /// Peer states the corruption mutated (0 before it went in).
    pub fn corrupted_states(&self) -> u64 {
        self.corrupted_states
    }

    /// The round the overlay came clean, if it still is.
    pub fn clean_at(&self) -> Option<u64> {
        self.clean_at
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
            "perturb churn / rounds",
            || Run::new(&pop, &hybrid, 9),
            |run| run.perturb(&Plan::churn(BernoulliChurn::paper()), 600),
            |o| Facts {
                counters: o.counters,
                reached: false,
                actions: None,
            },
            &[EventKind::Attach],
        );
        let trail = observation_row(
            "perturb faults / rounds",
            || Run::new(&heal_pop, &hybrid, 11),
            |run| run.perturb(&Plan::faults(scenario), 800),
            |o| Facts {
                counters: o.counters,
                reached: o.came_clean(),
                actions: None,
            },
            &[EventKind::Crash],
        );
        assert!(trail.health.len() >= 2, "crash round plus healed round");
        observation_row(
            "perturb corruption / rounds",
            || Run::new(&heal_pop, &hybrid, 13),
            |run| run.perturb(&Plan::corruption(all_classes.clone()), 800),
            |o| Facts {
                counters: o.counters,
                reached: o.came_clean(),
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
            .perturb(&Plan::churn(NoChurn), 7);
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
            .perturb(&Plan::churn(NoChurn), 300)
            .outcome;
        assert!(outcome.converged_at.is_some());
        assert_eq!(outcome.steady_state_fraction(), 1.0);
        assert!(outcome.fully_satisfied_round_fraction() > 0.8);
        assert_eq!(outcome.rounds_run, 300, "churn runs its whole horizon");
    }

    #[test]
    fn run_with_paper_churn_keeps_high_steady_state() {
        let (pop, config) = (population(), hybrid().with_max_rounds(10_000));
        let outcome = Run::new(&pop, &config, 9)
            .perturb(&Plan::churn(BernoulliChurn::paper()), 600)
            .outcome;
        assert!(
            outcome.steady_state_fraction() > 0.7,
            "steady state {} too low",
            outcome.steady_state_fraction()
        );
        assert!(outcome.counters.churn_departures > 0);
    }

    #[test]
    fn zero_round_churn_run_is_well_formed() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let pop = population();
        let outcome = Run::new(&pop, &config, 1)
            .perturb(&Plan::churn(NoChurn), 0)
            .outcome;
        assert_eq!(outcome.rounds_run, 0);
        assert_eq!(outcome.fully_satisfied_round_fraction(), 0.0);
    }

    #[test]
    fn recovery_run_heals_after_interior_crash() {
        let (pop, config) = (recovery_population(), hybrid());
        let outcome = Run::new(&pop, &config, 11)
            .perturb(&Plan::faults(crash_only(0.5)), 1_000)
            .outcome;
        assert!(outcome.converged_at.is_some());
        assert_eq!(outcome.victims.len(), 1, "half of two interior nodes");
        assert_eq!(outcome.counters.crashes, 1);
        assert!(
            outcome.stale_rounds >= 1,
            "silent crash must leave stale chains during the detection window"
        );
        assert!(outcome.orphan_peak >= 1, "someone is orphaned by detection");
        assert!(outcome.came_clean(), "survivors re-converge: {outcome:?}");
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
            .perturb(&Plan::faults(scenario), 1_500)
            .outcome;
        assert!(outcome.came_clean(), "compound scenario heals: {outcome:?}");
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
        let plan = Plan::faults(scenario);
        let a = Run::new(&pop, &config, 21).perturb(&plan, 800);
        let b = Run::new(&pop, &config, 21).perturb(&plan, 800);
        assert_eq!(a, b);
    }

    #[test]
    fn recovery_over_a_custom_oracle_heals() {
        // A custom oracle exercising the substrate path end to end: the
        // reference RandomDelay built explicitly.
        let (pop, config) = (recovery_population(), hybrid());
        let outcome = Run::new(&pop, &config, 11)
            .oracle(OracleKind::RandomDelay.build())
            .perturb(&Plan::faults(crash_only(0.5)), 1_000)
            .outcome;
        assert!(outcome.came_clean(), "oracle-realization path heals");
        assert_eq!(outcome.victims.len(), 1);
    }

    #[test]
    fn faultless_scenario_recovers_instantly() {
        let (pop, config) = (recovery_population(), hybrid());
        let outcome = Run::new(&pop, &config, 5)
            .perturb(&Plan::faults(FaultScenario::none()), 50)
            .outcome;
        assert!(outcome.victims.is_empty());
        assert!(outcome.came_clean());
        assert_eq!(outcome.orphan_peak, 0);
        assert_eq!(outcome.stale_rounds, 0);
    }

    #[test]
    fn stabilization_run_heals_every_class_at_once() {
        let (pop, config) = (recovery_population(), hybrid());
        let plan = CorruptionPlan::new(3).with_all_classes().with_severity(0.3);
        let outcome = Run::new(&pop, &config, 11)
            .perturb(&Plan::corruption(plan), 1_000)
            .outcome;
        assert!(outcome.converged_at.is_some());
        assert!(outcome.corrupted_states > 0);
        assert!(
            !outcome.valid_after_injection,
            "structural classes must break validation"
        );
        assert!(outcome.came_clean(), "did not re-stabilize: {outcome:?}");
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
        let plan = Plan::corruption(CorruptionPlan::new(8).with_all_classes().with_severity(0.4));
        let a = Run::new(&pop, &config, 21).perturb(&plan, 800);
        let b = Run::new(&pop, &config, 21).perturb(&plan, 800);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_corruption_plan_is_clean_immediately() {
        let (pop, config) = (recovery_population(), hybrid());
        let plan = Plan::corruption(CorruptionPlan::new(1));
        let outcome = Run::new(&pop, &config, 5).perturb(&plan, 50).outcome;
        assert_eq!(outcome.corrupted_states, 0);
        assert!(outcome.valid_after_injection);
        assert_eq!(outcome.rounds_to_clean, Some(1), "clean at the first check");
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
        let plan = Plan::faults(fault);
        let mut goal = Goal::new(&plan, 7, config.max_rounds, 10_000);
        goal.check(&mut engine);
        while goal.runs_on(&engine) {
            engine.step();
            goal.check(&mut engine);
        }
        let crash = goal.injected_at().expect("injected");
        assert_eq!(goal.converged_at(), Some(crash), "crashed on convergence");
        assert!(!goal.victims().is_empty(), "cohort must crash somebody");
        let healed = goal.clean_at().expect("overlay must re-converge");
        assert!(healed > crash);
        assert_eq!(engine.stale_chain_count(), 0);
        // The verb reads the same rule.
        let outcome = Run::new(&pop, &config, 7).perturb(&plan, 10_000).outcome;
        assert_eq!(outcome.victims, goal.victims());
        assert_eq!(outcome.rounds_to_clean, Some(healed - crash));
        assert_eq!(outcome.stale_rounds, goal.stale_rounds);
        assert_eq!(outcome.counters, *engine.counters());
    }
}
