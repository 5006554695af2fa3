//! The replicated lockstep engine each node carries.
//!
//! The node runtime is lockstep state-machine replication: every node
//! holds a full [`Engine`] replica plus the same virtual-time action
//! schedule the simulator's lockstep `Run::timed` clock uses (initial offsets
//! from `SimRng::seed_from(seed).split(0x5EED_A57C)`, one entry per
//! peer rescheduled one time unit after each pop, FIFO tie-break by
//! insertion order — literally the same [`EventQueue`]). The whole
//! trajectory is a pure function of `(population, scenario, seed)`, so
//! nodes never ship state — only *progress tokens* saying "my first k
//! actions are executed", which [`crate::core::NodeCore`] turns into
//! apply-permissions for the shared schedule.
//!
//! [`Replica`] owns the twin-fidelity part: consuming schedule entries
//! in exactly the simulator's order, applying `act_on`, detecting the
//! scenario's terminal condition at the same global action on every
//! node, and attributing each journal event to the node that owns it.

use lagover_core::{ConstructionConfig, Engine, EngineCounters, FaultScenario, PeerId, Population};
use lagover_obs::Event;
use lagover_sim::{EventQueue, SimRng, VirtualTime};

/// Which end-to-end run the nodes replicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Fig2-style construction: run until every peer is satisfied.
    Construction,
    /// E15 recovery: construct, crash an interior cohort at the moment
    /// of convergence (the simulator's own [`FaultScenario::inject`]),
    /// run on until satisfied and stale-free again.
    Recovery {
        /// Fraction of the interior cohort to crash.
        crash_fraction: f64,
    },
}

impl Scenario {
    /// Stable label for reports and CLI flags.
    pub fn kind(&self) -> &'static str {
        match self {
            Scenario::Construction => "construction",
            Scenario::Recovery { .. } => "recovery",
        }
    }
}

/// Everything a node needs to replicate one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario to replicate.
    pub scenario: Scenario,
    /// Engine configuration (algorithm, oracle, fault model knobs).
    pub config: ConstructionConfig,
    /// Virtual-time cap; the run halts when the schedule head passes it.
    pub max_time: f64,
    /// Per-replica journal capacity (ring semantics, as in the
    /// simulator twin — the merged journal reproduces the same drops).
    pub journal_capacity: usize,
}

/// A journal event with its global position and owner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OwnedEvent {
    /// The node whose journal carries this event.
    pub owner: u32,
    /// Position within the action's event segment.
    pub sub: u32,
    /// The event itself.
    pub event: Event,
}

/// Result of applying one pending action.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedAction {
    /// Global online-action index (0-based).
    pub index: u64,
    /// Virtual time of the action.
    pub time: f64,
    /// The acting peer.
    pub peer: PeerId,
    /// Events this apply produced, with owners: the acting peer for
    /// action events, each victim for crash-injection events.
    pub events: Vec<OwnedEvent>,
    /// Whether this action ended the run.
    pub halted: bool,
}

/// The next online action waiting for permission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingAction {
    /// Virtual time of the schedule entry.
    pub time: f64,
    /// The acting peer.
    pub peer: PeerId,
}

/// Why the replica halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltCause {
    /// The scenario's terminal condition was reached.
    Finished,
    /// The schedule head passed `max_time`.
    TimeLimit,
}

/// A full engine replica plus the shared schedule.
#[derive(Debug)]
pub struct Replica {
    engine: Engine,
    queue: EventQueue<PeerId>,
    lookahead: Option<(f64, PeerId)>,
    scenario: Scenario,
    max_time: f64,
    offsets: Vec<f64>,
    seed: u64,
    actions: u64,
    per_peer_actions: Vec<u64>,
    events_seen: u64,
    converged_at: Option<f64>,
    crashed: Option<usize>,
    healed_at: Option<f64>,
    halted: Option<HaltCause>,
}

impl Replica {
    /// Builds the replica: engine, journal, and the simulator's exact
    /// initial schedule.
    pub fn new(population: &Population, spec: &ScenarioSpec, seed: u64) -> Self {
        let mut engine = Engine::new(population, &spec.config, seed);
        engine.obs_mut().enable_journal(spec.journal_capacity);
        let mut schedule_rng = SimRng::seed_from(seed).split(0x5EED_A57C);
        let mut queue: EventQueue<PeerId> = EventQueue::with_capacity(population.len() + 1);
        let mut offsets = Vec::with_capacity(population.len());
        for p in population.peer_ids() {
            let offset = schedule_rng.f64();
            offsets.push(offset);
            queue.schedule(VirtualTime::new(offset).expect("offset in [0,1)"), p);
        }
        Replica {
            engine,
            queue,
            lookahead: None,
            scenario: spec.scenario,
            max_time: spec.max_time,
            offsets,
            seed,
            actions: 0,
            per_peer_actions: vec![0; population.len()],
            events_seen: 0,
            converged_at: None,
            crashed: None,
            healed_at: None,
            halted: None,
        }
    }

    /// The virtual time of a peer's first schedule entry (its k-th
    /// entry is at `offset + k`).
    pub fn offset_of(&self, peer: PeerId) -> f64 {
        self.offsets[peer.index()]
    }

    /// Advances past offline pops (which are no-ops needing no
    /// permission) to the next *online* action, or halts at the time
    /// limit. Returns `None` once halted.
    pub fn pending(&mut self) -> Option<PendingAction> {
        loop {
            if self.halted.is_some() {
                return None;
            }
            if self.lookahead.is_none() {
                let t = self.queue.peek_time().expect("peers always rescheduled");
                if t.get() > self.max_time {
                    self.halted = Some(HaltCause::TimeLimit);
                    return None;
                }
                let (now, p) = self.queue.pop().expect("peeked");
                self.lookahead = Some((now.get(), p));
            }
            let (time, peer) = self.lookahead.expect("just filled");
            if self.engine.is_online(peer) {
                return Some(PendingAction { time, peer });
            }
            // Offline pop: a no-op in the simulator too — consume and
            // reschedule without waiting for any token.
            self.lookahead = None;
            self.queue.schedule_after(1.0, peer);
        }
    }

    /// Applies the pending action (the caller has checked permissions),
    /// mirroring one iteration of the simulator loop: `act_on`, the
    /// scenario's terminal/crash logic, then reschedule.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending action.
    pub fn apply_pending(&mut self) -> AppliedAction {
        let (time, peer) = self.lookahead.take().expect("pending() returned Some");
        let index = self.actions;
        self.engine.act_on(peer);
        self.actions += 1;
        self.per_peer_actions[peer.index()] += 1;
        let mut events: Vec<OwnedEvent> = self
            .drain_new_events()
            .into_iter()
            .map(|event| OwnedEvent {
                owner: peer.get(),
                sub: 0,
                event,
            })
            .collect();

        let mut finished = false;
        match self.scenario {
            Scenario::Construction => {
                if self.engine.is_converged() {
                    self.converged_at = Some(time);
                    finished = true;
                }
            }
            Scenario::Recovery { crash_fraction } => {
                if self.crashed.is_none() {
                    if self.engine.is_converged() {
                        self.converged_at = Some(time);
                        let scenario = FaultScenario {
                            crash_fraction,
                            ..FaultScenario::none()
                        };
                        let victims = scenario.inject(&mut self.engine, self.seed);
                        // Each crash event belongs to its victim's node.
                        for event in self.drain_new_events() {
                            events.push(OwnedEvent {
                                owner: event.peer(),
                                sub: 0,
                                event,
                            });
                        }
                        self.crashed = Some(victims.len());
                        if victims.is_empty() {
                            self.healed_at = Some(time);
                            finished = true;
                        }
                    }
                } else if self.engine.is_converged() && self.engine.stale_chain_count() == 0 {
                    self.healed_at = Some(time);
                    finished = true;
                }
            }
        }
        for (sub, owned) in events.iter_mut().enumerate() {
            owned.sub = sub as u32;
        }
        if finished {
            self.halted = Some(HaltCause::Finished);
        } else {
            // The simulator reschedules the acting peer unless the run
            // ended on this action.
            self.queue.schedule_after(1.0, peer);
        }
        AppliedAction {
            index,
            time,
            peer,
            events,
            halted: finished,
        }
    }

    fn drain_new_events(&mut self) -> Vec<Event> {
        let journal = self.engine.obs().journal().expect("journal enabled");
        let pushed = journal.len() as u64 + journal.dropped();
        let new = (pushed - self.events_seen) as usize;
        self.events_seen = pushed;
        debug_assert!(new <= journal.len(), "one apply overflowed the journal");
        journal
            .iter()
            .skip(journal.len().saturating_sub(new))
            .copied()
            .collect()
    }

    /// Whether (and why) the replica halted.
    pub fn halted(&self) -> Option<HaltCause> {
        self.halted
    }

    /// Total online actions applied.
    pub fn actions(&self) -> u64 {
        self.actions
    }

    /// Online actions applied for one peer — the token counter the
    /// protocol gates on.
    pub fn peer_actions(&self, peer: PeerId) -> u64 {
        self.per_peer_actions[peer.index()]
    }

    /// Virtual time construction converged, if reached.
    pub fn converged_at(&self) -> Option<f64> {
        self.converged_at
    }

    /// Virtual time the overlay healed (recovery scenario), if reached.
    pub fn healed_at(&self) -> Option<f64> {
        self.healed_at
    }

    /// Crashed cohort size, once injected.
    pub fn crashed_peers(&self) -> Option<usize> {
        self.crashed
    }

    /// Current satisfied fraction over online peers.
    pub fn satisfied_fraction(&self) -> f64 {
        self.engine.satisfied_fraction()
    }

    /// Current stale-chain count.
    pub fn stale_chain_count(&self) -> usize {
        self.engine.stale_chain_count()
    }

    /// Accumulated engine counters.
    pub fn counters(&self) -> EngineCounters {
        *self.engine.counters()
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.per_peer_actions.len()
    }

    /// Whether the population is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.per_peer_actions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::{Algorithm, Constraints, FixedActionDuration, OracleKind, Run, TimedRun};

    fn population(n: u32) -> Population {
        let constraints = (0..n).map(|i| Constraints::new(3, i / 4 + 1)).collect();
        Population::new(4, constraints)
    }

    fn spec(scenario: Scenario) -> ScenarioSpec {
        ScenarioSpec {
            scenario,
            config: ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
                .with_max_rounds(10_000),
            max_time: 10_000.0,
            journal_capacity: 8_192,
        }
    }

    /// The simulator twin of `spec`, plain or journaled.
    fn twin<'a>(
        pop: &'a Population,
        spec: &'a ScenarioSpec,
        observe: bool,
    ) -> TimedRun<'a, FixedActionDuration> {
        let mut run = Run::new(pop, &spec.config, 7);
        if observe {
            run = run.observe(spec.journal_capacity, 10);
        }
        run.timed(FixedActionDuration(1.0), spec.max_time)
    }

    /// Drives a replica unconditionally (no token gating) and collects
    /// the full journal in (index, sub) order.
    fn drive(replica: &mut Replica) -> Vec<Event> {
        let mut events = Vec::new();
        while replica.pending().is_some() {
            let applied = replica.apply_pending();
            events.extend(applied.events.iter().map(|o| o.event));
            if applied.halted {
                break;
            }
        }
        events
    }

    #[test]
    fn construction_matches_lockstep_twin() {
        let pop = population(24);
        let s = spec(Scenario::Construction);
        let mut replica = Replica::new(&pop, &s, 7);
        let events = drive(&mut replica);
        let observed = twin(&pop, &s, true).construct();
        assert_eq!(replica.converged_at(), observed.outcome.converged_at);
        assert_eq!(replica.actions(), observed.outcome.actions);
        let journal = observed.trail.expect("observed").journal;
        let twin_events: Vec<Event> = journal.iter().copied().collect();
        assert_eq!(events, twin_events, "journal event streams must match");
        let plain = twin(&pop, &s, false).construct().outcome;
        assert_eq!(replica.satisfied_fraction(), plain.final_satisfied_fraction);
    }

    #[test]
    fn recovery_matches_lockstep_twin() {
        let pop = population(24);
        let s = spec(Scenario::Recovery {
            crash_fraction: 0.2,
        });
        let mut replica = Replica::new(&pop, &s, 7);
        let events = drive(&mut replica);
        let crash = FaultScenario {
            crash_fraction: 0.2,
            ..FaultScenario::none()
        };
        let observed = twin(&pop, &s, true).recover(&crash);
        let outcome = &observed.outcome;
        assert_eq!(replica.converged_at(), outcome.construction_converged_at);
        assert_eq!(replica.healed_at(), outcome.healed_at);
        assert_eq!(replica.crashed_peers(), Some(outcome.crashed_peers));
        assert_eq!(replica.actions(), outcome.actions);
        assert_eq!(replica.counters(), outcome.counters);
        let journal = observed.trail.expect("observed").journal;
        let twin_events: Vec<Event> = journal.iter().copied().collect();
        assert_eq!(events, twin_events, "journal event streams must match");
        let plain = twin(&pop, &s, false).recover(&crash).outcome;
        assert!(plain.healed());
    }

    #[test]
    fn event_ownership_partitions_the_stream() {
        let pop = population(24);
        let s = spec(Scenario::Recovery {
            crash_fraction: 0.2,
        });
        let mut replica = Replica::new(&pop, &s, 11);
        let mut last_key = None;
        while replica.pending().is_some() {
            let applied = replica.apply_pending();
            for owned in &applied.events {
                let key = (applied.index, owned.sub);
                assert!(Some(key) > last_key, "keys must strictly increase");
                last_key = Some(key);
                assert!((owned.owner as usize) < pop.len());
            }
            if applied.halted {
                break;
            }
        }
        assert!(last_key.is_some(), "run must produce events");
    }
}
