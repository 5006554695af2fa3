//! The replicated lockstep engine each node carries.
//!
//! The node runtime is lockstep state-machine replication: every node
//! holds a full [`Engine`] replica and steps the simulator's round
//! clock one turn at a time — the round opens, every online peer takes
//! one turn in the round's keyed slot order (the all-peers round the
//! active-set `Engine::step` is held byte-equal to), the round closes —
//! and ends by core's terminal rule, [`Goal`], the one `Run::construct`
//! and `Run::perturb` step. The whole trajectory is a pure function of
//! `(population, scenario, seed)`, so nodes never ship state — only
//! *progress tokens* saying "my first k actions are executed", which
//! [`crate::core::NodeCore`] turns into apply-permissions for the
//! shared schedule.
//!
//! [`Replica`] keeps only what is node-specific: the turn waiting for
//! permission, the per-peer action counters tokens gate on, and the
//! owner of each journal event.

use lagover_core::{
    ConstructionConfig, Engine, EngineCounters, FaultScenario, Goal, Observed, PeerId, Plan,
    Population, Run,
};
use lagover_obs::{Event, Journal};

/// What a replicated run is after, and so when it ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Fig2-style construction: done once every peer is satisfied.
    Construction,
    /// E15 recovery: construct, crash an interior cohort on the round
    /// construction converged, and run on until satisfied and
    /// stale-free again.
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
    /// Engine configuration (algorithm, oracle, fault model knobs);
    /// its own round cap is replaced by `max_time`.
    pub config: ConstructionConfig,
    /// Round cap, in whole rounds: construction runs at most this many
    /// rounds, and so does healing after a recovery's crash.
    pub max_time: f64,
    /// Journal ring capacity, applied once when the node reports merge
    /// (as in the simulator twin — the merged journal reproduces the
    /// same drops).
    pub journal_capacity: usize,
}

impl ScenarioSpec {
    /// The round cap, `max_time` in whole rounds.
    pub(crate) fn rounds(&self) -> u64 {
        self.max_time as u64
    }

    /// The configuration the replicas and their twin run: `config`
    /// with [`Self::rounds`] as its round cap.
    fn capped_config(&self) -> ConstructionConfig {
        self.config.with_max_rounds(self.rounds())
    }

    /// What this scenario injects: nothing, or the crash cohort.
    fn plan(&self) -> Plan {
        match self.scenario {
            Scenario::Construction => Plan::none(),
            Scenario::Recovery { crash_fraction } => Plan::faults(FaultScenario {
                crash_fraction,
                ..FaultScenario::none()
            }),
        }
    }
}

/// What the simulator twin of a replicated run says, in the terms of a
/// node report.
#[derive(Debug, Clone, PartialEq)]
pub struct Twin {
    /// The twin's journal, at the spec's capacity.
    pub journal: Journal,
    /// Engine counters at the end of the run.
    pub counters: EngineCounters,
    /// Round construction converged, if reached.
    pub converged_at: Option<f64>,
    /// Crashed cohort size (0 in construction).
    pub crashed_peers: u64,
    /// Round the overlay healed (recovery), if reached.
    pub healed_at: Option<f64>,
}

/// The simulator twin of `spec` from `seed`: the observed round-clock
/// verb the replicas step, [`Run::perturb`] with the spec's plan.
pub fn twin(population: &Population, spec: &ScenarioSpec, seed: u64) -> Twin {
    let config = spec.capped_config();
    let Observed { outcome, trail } = Run::new(population, &config, seed)
        .observe(spec.journal_capacity, 10)
        .perturb(&spec.plan(), spec.rounds());
    Twin {
        journal: trail.expect("observed").journal,
        counters: outcome.counters,
        converged_at: outcome.converged_at.map(|r| r as f64),
        crashed_peers: outcome.victims.len() as u64,
        healed_at: outcome
            .rounds_to_clean
            .map(|r| (outcome.injected_at + r) as f64),
    }
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

/// Result of applying one pending action. Its events borrow the
/// replica's buffer, which the next apply refills.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedAction<'a> {
    /// Global action index (0-based).
    pub index: u64,
    /// The acting peer.
    pub peer: PeerId,
    /// Every event this apply produced, with owners: the acting peer
    /// for its action's events; the peer an event concerns for those
    /// of the round close and the crash injection that may follow it.
    pub events: &'a [OwnedEvent],
    /// Whether this action ended the run.
    pub halted: bool,
}

/// The next turn waiting for permission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingAction {
    /// The acting peer.
    pub peer: PeerId,
}

/// A full engine replica stepping the shared round clock.
#[derive(Debug)]
pub struct Replica {
    engine: Engine,
    goal: Goal,
    turn: Option<PeerId>,
    per_peer_actions: Vec<u64>,
    actions: u64,
    events: Vec<OwnedEvent>,
}

impl Replica {
    /// Builds the replica: engine, journal, and the scenario's goal,
    /// with the first round open.
    pub fn new(population: &Population, spec: &ScenarioSpec, seed: u64) -> Self {
        let mut engine = Engine::new(population, &spec.capped_config(), seed);
        // Unbounded: each apply hands every event on, so the ring
        // applies once, at merge.
        engine.obs_mut().enable_journal(usize::MAX);
        let rounds = spec.rounds();
        let mut goal = Goal::new(&spec.plan(), seed, rounds, rounds);
        goal.check(&mut engine);
        let mut replica = Replica {
            engine,
            goal,
            turn: None,
            per_peer_actions: vec![0; population.len()],
            actions: 0,
            events: Vec::new(),
        };
        if replica.goal.runs_on(&replica.engine) {
            replica.engine.open_turns();
            replica.advance();
        }
        replica
    }

    /// The next turn, or `None` once halted — at the round cap, or
    /// after the round that finished the scenario.
    pub fn pending(&self) -> Option<PendingAction> {
        self.turn.map(|peer| PendingAction { peer })
    }

    /// Applies the pending turn (the caller has checked permissions).
    /// If it was the round's last, the round closes, the goal is
    /// checked — which may crash the recovery cohort — and the next
    /// round opens, unless the run is over.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending action.
    pub fn apply_pending(&mut self) -> AppliedAction<'_> {
        let peer = self.turn.take().expect("pending() returned Some");
        let index = self.actions;
        self.engine.act_on(peer);
        self.actions += 1;
        self.per_peer_actions[peer.index()] += 1;
        self.events.clear();
        self.hand_on(|_| peer.get());
        self.advance();
        // Round-close and crash events belong to the peer they concern.
        self.hand_on(Event::peer);
        AppliedAction {
            index,
            peer,
            events: &self.events,
            halted: self.halted(),
        }
    }

    /// Takes the open round's next turn; a round out of turns closes,
    /// the goal is checked, and the next opens while the goal runs on.
    fn advance(&mut self) {
        loop {
            self.turn = self.engine.next_turn();
            if self.turn.is_some() {
                return;
            }
            self.engine.close_turns();
            self.goal.check(&mut self.engine);
            if !self.goal.runs_on(&self.engine) {
                return;
            }
            self.engine.open_turns();
        }
    }

    /// Drains the journal into the event buffer, each event owned by
    /// `owner(event)`.
    fn hand_on(&mut self, owner: impl Fn(&Event) -> u32) {
        let journal = self
            .engine
            .obs_mut()
            .journal_mut()
            .expect("journal enabled");
        for event in journal.drain() {
            let sub = self.events.len() as u32;
            self.events.push(OwnedEvent {
                owner: owner(&event),
                sub,
                event,
            });
        }
    }

    /// Whether the replica halted.
    pub fn halted(&self) -> bool {
        self.turn.is_none()
    }

    /// Total actions applied.
    pub fn actions(&self) -> u64 {
        self.actions
    }

    /// Actions applied for one peer — the token counter the protocol
    /// gates on.
    pub fn peer_actions(&self, peer: PeerId) -> u64 {
        self.per_peer_actions[peer.index()]
    }

    /// The goal: the scenario's convergence, cohort and healing.
    pub fn goal(&self) -> &Goal {
        &self.goal
    }

    /// The engine replica.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::{Algorithm, Constraints, OracleKind};
    use lagover_jsonio::to_string;
    use proptest::prelude::*;

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

    /// Drives a replica of `spec` and checks it against its twin:
    /// journal bytes, counters, convergence round, crashed count and
    /// healed round.
    fn assert_matches_twin(pop: &Population, spec: &ScenarioSpec, seed: u64) {
        let mut replica = Replica::new(pop, spec, seed);
        let events = drive(&mut replica);
        let twin = twin(pop, spec, seed);
        let mut journal = Journal::new(spec.journal_capacity);
        for event in events {
            journal.push(event);
        }
        assert_eq!(to_string(&journal), to_string(&twin.journal), "journal");
        assert_eq!(*replica.engine().counters(), twin.counters, "counters");
        let goal = replica.goal();
        let round = |r: Option<u64>| r.map(|r| r as f64);
        assert_eq!(round(goal.converged_at()), twin.converged_at, "converged");
        assert_eq!(goal.victims().len() as u64, twin.crashed_peers, "crashed");
        assert_eq!(round(goal.clean_at()), twin.healed_at, "healed");
    }

    #[test]
    fn construction_matches_lockstep_twin() {
        let pop = population(24);
        let s = spec(Scenario::Construction);
        assert_matches_twin(&pop, &s, 7);
        let mut replica = Replica::new(&pop, &s, 7);
        drive(&mut replica);
        let converged = replica.goal().converged_at().expect("converges");
        // One turn per online peer per round, every peer online.
        assert_eq!(replica.actions(), converged * pop.len() as u64);
    }

    #[test]
    fn recovery_matches_lockstep_twin() {
        let pop = population(24);
        let s = spec(Scenario::Recovery {
            crash_fraction: 0.2,
        });
        assert_matches_twin(&pop, &s, 7);
        let twin = twin(&pop, &s, 7);
        assert!(twin.crashed_peers > 0 && twin.healed_at.is_some());
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
            for owned in applied.events {
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

    /// An arbitrary population of 1 to 40 peers: feasible or not, so
    /// runs cut at the round cap are drawn as well as finished ones.
    fn populations() -> impl Strategy<Value = Population> {
        let peer = (0u32..=4, 1u32..=6);
        (1u32..=4, prop::collection::vec(peer, 1..=40)).prop_map(|(source, peers)| {
            let constraints = peers
                .into_iter()
                .map(|(fanout, latency)| Constraints::new(fanout, latency))
                .collect();
            Population::new(source, constraints)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A replica stepped without token gating is its round-clock
        /// twin, over arbitrary populations, seeds and crash fractions.
        #[test]
        fn replica_matches_the_round_clock_twin(
            pop in populations(),
            seed in any::<u64>(),
            crash in prop::option::weighted(0.75, 0.0f64..0.6),
        ) {
            let scenario = match crash {
                Some(crash_fraction) => Scenario::Recovery { crash_fraction },
                None => Scenario::Construction,
            };
            let spec = ScenarioSpec {
                scenario,
                config: ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay),
                max_time: 200.0,
                journal_capacity: 512,
            };
            assert_matches_twin(&pop, &spec, seed);
        }
    }
}
