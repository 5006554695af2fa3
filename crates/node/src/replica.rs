//! The replicated lockstep engine each node carries.
//!
//! The node runtime is lockstep state-machine replication: every node
//! holds a full [`Engine`] replica and steps the simulator's own
//! virtual-time clock, [`EventClock`] at `FixedActionDuration(1.0)` —
//! the schedule, the `max_time` cut and the scenario's terminal rule of
//! `Run::timed`, not a copy of them. The whole trajectory is a pure
//! function of `(population, scenario, seed)`, so nodes never ship
//! state — only *progress tokens* saying "my first k actions are
//! executed", which [`crate::core::NodeCore`] turns into
//! apply-permissions for the shared schedule.
//!
//! [`Replica`] keeps only what is node-specific: the one action popped
//! and waiting for permission, the per-peer action counters tokens
//! gate on, and the owner of each journal event.

pub use lagover_core::Scenario;
use lagover_core::{
    ConstructionConfig, Engine, EventClock, FixedActionDuration, PeerId, Population,
};
use lagover_obs::Event;

/// Everything a node needs to replicate one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario to replicate.
    pub scenario: Scenario,
    /// Engine configuration (algorithm, oracle, fault model knobs).
    pub config: ConstructionConfig,
    /// Virtual-time cap; the run halts when the schedule head passes it.
    pub max_time: f64,
    /// Journal ring capacity, applied once when the node reports merge
    /// (as in the simulator twin — the merged journal reproduces the
    /// same drops).
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
    /// Every event this apply produced, with owners: the acting peer
    /// for action events, each victim for crash-injection events.
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

/// A full engine replica stepping the shared clock.
#[derive(Debug)]
pub struct Replica {
    engine: Engine,
    clock: EventClock<FixedActionDuration>,
    lookahead: Option<(f64, PeerId)>,
    per_peer_actions: Vec<u64>,
    halted: bool,
}

impl Replica {
    /// Builds the replica: engine, journal, and the simulator's clock.
    pub fn new(population: &Population, spec: &ScenarioSpec, seed: u64) -> Self {
        let mut engine = Engine::new(population, &spec.config, seed);
        // Unbounded: each apply hands every event on, so the ring
        // applies once, at merge.
        engine.obs_mut().enable_journal(usize::MAX);
        let lockstep = FixedActionDuration(1.0);
        Replica {
            engine,
            clock: EventClock::new(population, spec.scenario, seed, lockstep, spec.max_time),
            lookahead: None,
            per_peer_actions: vec![0; population.len()],
            halted: false,
        }
    }

    /// The next *online* action (offline turns need no permission and
    /// pass by), or `None` once halted — at the time limit, or after
    /// the action that finished the scenario.
    pub fn pending(&mut self) -> Option<PendingAction> {
        if self.halted {
            return None;
        }
        if self.lookahead.is_none() {
            self.lookahead = self.clock.next(&self.engine);
            self.halted = self.lookahead.is_none();
        }
        self.lookahead
            .map(|(time, peer)| PendingAction { time, peer })
    }

    /// Applies the pending action (the caller has checked permissions),
    /// as one iteration of the simulator loop: `act_on`, then the
    /// clock's terminal rule, which may inject the recovery cohort.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending action.
    pub fn apply_pending(&mut self) -> AppliedAction {
        let (time, peer) = self.lookahead.take().expect("pending() returned Some");
        let index = self.clock.actions();
        self.engine.act_on(peer);
        self.per_peer_actions[peer.index()] += 1;
        let mut events = Vec::new();
        self.hand_on(&mut events, |_| peer.get());
        self.halted = self.clock.after_action(&mut self.engine, time);
        // Each crash event belongs to its victim's node.
        self.hand_on(&mut events, Event::peer);
        AppliedAction {
            index,
            time,
            peer,
            events,
            halted: self.halted,
        }
    }

    /// Drains the journal into `events`, each owned by `owner(event)`.
    fn hand_on(&mut self, events: &mut Vec<OwnedEvent>, owner: impl Fn(&Event) -> u32) {
        let journal = self
            .engine
            .obs_mut()
            .journal_mut()
            .expect("journal enabled");
        for event in journal.drain() {
            let sub = events.len() as u32;
            events.push(OwnedEvent {
                owner: owner(&event),
                sub,
                event,
            });
        }
    }

    /// Whether the replica halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total online actions applied.
    pub fn actions(&self) -> u64 {
        self.clock.actions()
    }

    /// Online actions applied for one peer — the token counter the
    /// protocol gates on.
    pub fn peer_actions(&self, peer: PeerId) -> u64 {
        self.per_peer_actions[peer.index()]
    }

    /// The clock: the scenario's convergence, cohort and healing.
    pub fn clock(&self) -> &EventClock<FixedActionDuration> {
        &self.clock
    }

    /// The engine replica.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::{Algorithm, Constraints, OracleKind, Run, TimedRun};

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
        assert_eq!(
            replica.clock().converged_at(),
            observed.outcome.converged_at
        );
        assert_eq!(replica.actions(), observed.outcome.actions);
        let journal = observed.trail.expect("observed").journal;
        let twin_events: Vec<Event> = journal.iter().copied().collect();
        assert_eq!(events, twin_events, "journal event streams must match");
        let plain = twin(&pop, &s, false).construct().outcome;
        assert_eq!(
            replica.engine().satisfied_fraction(),
            plain.final_satisfied_fraction
        );
    }

    #[test]
    fn recovery_matches_lockstep_twin() {
        let pop = population(24);
        let s = spec(Scenario::Recovery {
            crash_fraction: 0.2,
        });
        let mut replica = Replica::new(&pop, &s, 7);
        let events = drive(&mut replica);
        let observed = twin(&pop, &s, true).recover(0.2);
        let outcome = &observed.outcome;
        let clock = replica.clock();
        assert_eq!(clock.converged_at(), outcome.construction_converged_at);
        assert_eq!(clock.healed_at(), outcome.healed_at);
        assert_eq!(clock.crashed_peers(), Some(outcome.crashed_peers));
        assert_eq!(replica.actions(), outcome.actions);
        assert_eq!(*replica.engine().counters(), outcome.counters);
        let journal = observed.trail.expect("observed").journal;
        let twin_events: Vec<Event> = journal.iter().copied().collect();
        assert_eq!(events, twin_events, "journal event streams must match");
        let plain = twin(&pop, &s, false).recover(0.2).outcome;
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
