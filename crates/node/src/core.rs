//! [`NodeCore`]: the sans-IO protocol state machine.
//!
//! `NodeCore` contains no sockets, no clocks, and no ambient
//! randomness. The transport feeds it [`Input`]s (decoded wire frames,
//! timer fires, local commands) and executes the [`Output`]s it emits
//! (frames to send, timers to arm, journal entries to persist, a halt
//! marker). That inversion makes the protocol logic testable at
//! virtual time and lets the mesh and UDP transports share one
//! implementation byte-for-byte.
//!
//! ## Protocol
//!
//! 1. **Join barrier** — every node but 0 sends [`Message::Hello`] to
//!    node 0 (retransmitted until answered). Once node 0 has seen every
//!    peer it broadcasts [`Message::Start`]; stragglers that keep
//!    hello-ing get `Start` again.
//! 2. **Lockstep run** — each node owns the turns of its own peer id,
//!    one a round. A fire of [`TimerKind::Action`] releases one own
//!    turn; applying it broadcasts the cumulative token
//!    [`Message::Ordered`]`{me, upto}`. A remote peer's turn may be
//!    applied once that peer's token covers it. Offline peers have no
//!    turns.
//! 3. **Shutdown** — when the replica reaches its terminal condition
//!    (the same global action index on every node), the node broadcasts
//!    [`Message::Done`] and emits [`Output::Halted`].
//!
//! Tokens are cumulative and idempotent, so any retransmission policy
//! is sound; [`TimerKind::Retransmit`] drives a bounded exponential
//! backoff mirroring the engine's oracle-retry rule
//! (`min(2^attempts, cap)` plus deterministic jitter).

use lagover_core::{PeerId, Population};
use lagover_sim::faults::deterministic_jitter;

use crate::journal::{JournalEntry, NodeReport};
use crate::replica::{Replica, ScenarioSpec};
use crate::wire::Message;

/// Cap (in abstract time units) on the retransmit backoff.
const RETRANSMIT_CAP: u32 = 32;

/// Local commands from the process hosting the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Boot the node: join the barrier (or, on node 0, open it).
    Start,
}

/// Timers the core asks the transport to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Releases the node's next own turn.
    Action,
    /// Drives retransmission of the current idempotent state.
    Retransmit,
}

/// Everything that can happen to a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    /// A decoded wire frame arrived.
    Frame(Message),
    /// A previously armed timer fired.
    Timer(TimerKind),
    /// A local command from the hosting process.
    Command(Command),
}

/// Everything a node can ask its transport to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Send a frame to one peer.
    Send {
        /// Destination node id.
        to: u32,
        /// The message to frame and send.
        message: Message,
    },
    /// Arm a timer `delay` abstract time units from now. Timers do not
    /// repeat; the core re-arms on each fire.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Delay from now, in abstract time units (the mesh reads them
        /// as virtual time; the UDP transport scales them to wall
        /// milliseconds).
        delay: f64,
    },
    /// Persist one owned journal entry.
    Journal(JournalEntry),
    /// The node halted; after draining the remaining outputs the
    /// transport may linger only to answer retransmits.
    Halted,
}

/// Final summary of a node's replicated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutcome {
    /// Global actions applied.
    pub actions: u64,
    /// Of those, this node's own.
    pub own_actions: u64,
    /// Rounds the replica ran.
    pub rounds: u64,
    /// Round construction converged, if reached.
    pub converged_at: Option<f64>,
    /// Round the overlay healed, if reached.
    pub healed_at: Option<f64>,
    /// Crashed cohort size (0 before injection / in construction).
    pub crashed_peers: u64,
    /// Final satisfied fraction over online peers.
    pub final_satisfied_fraction: f64,
    /// Final stale-chain count.
    pub final_stale_chains: u64,
    /// Whether the run hit its round cap instead of finishing.
    pub time_limited: bool,
}

/// The sans-IO node state machine. See the module docs for the
/// protocol.
#[derive(Debug)]
pub struct NodeCore {
    me: u32,
    n: u32,
    replica: Replica,
    spec: ScenarioSpec,
    seed: u64,
    started: bool,
    halted: bool,
    hello_seen: Vec<bool>,
    confirmed: Vec<u64>,
    own_due: u64,
    retry_attempts: u32,
}

impl NodeCore {
    /// Builds the node `me` of the population. Every node must be
    /// built from the identical `(population, spec, seed)` triple —
    /// that is what makes the replicas lockstep.
    pub fn new(population: &Population, spec: &ScenarioSpec, seed: u64, me: u32) -> Self {
        let n = population.len() as u32;
        assert!(me < n, "node id {me} out of range for {n} peers");
        NodeCore {
            me,
            n,
            replica: Replica::new(population, spec, seed),
            spec: spec.clone(),
            seed,
            started: false,
            halted: false,
            hello_seen: vec![false; n as usize],
            confirmed: vec![0; n as usize],
            own_due: 0,
            retry_attempts: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> u32 {
        self.me
    }

    /// Population size.
    pub fn peers(&self) -> u32 {
        self.n
    }

    /// Whether the node has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether the run phase has begun (the join barrier opened).
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Handles one input, appending the outputs to execute, in order,
    /// to `out`. The transport owns `out` and reuses it across calls,
    /// so handling a frame allocates nothing once it has grown.
    pub fn handle(&mut self, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Command(Command::Start) => self.boot(out),
            Input::Frame(message) => self.on_frame(message, out),
            Input::Timer(TimerKind::Action) => self.on_action_timer(out),
            Input::Timer(TimerKind::Retransmit) => self.on_retransmit_timer(out),
        }
    }

    fn boot(&mut self, out: &mut Vec<Output>) {
        if self.me == 0 {
            self.hello_seen[0] = true;
            self.maybe_open_barrier(out);
        } else {
            out.push(Output::Send {
                to: 0,
                message: Message::Hello { peer: self.me },
            });
            self.arm_retransmit(out);
        }
    }

    fn on_frame(&mut self, message: Message, out: &mut Vec<Output>) {
        match message {
            Message::Hello { peer } => {
                if self.me != 0 || peer as usize >= self.hello_seen.len() {
                    return;
                }
                self.hello_seen[peer as usize] = true;
                if self.started {
                    // The straggler missed the broadcast; answer again.
                    out.push(Output::Send {
                        to: peer,
                        message: Message::Start,
                    });
                } else {
                    self.maybe_open_barrier(out);
                }
            }
            Message::Start => {
                if self.me != 0 && !self.started {
                    self.started = true;
                    self.begin_acting(out);
                }
            }
            Message::Ordered { peer, upto } => {
                let Some(slot) = self.confirmed.get_mut(peer as usize) else {
                    return;
                };
                *slot = (*slot).max(upto);
                if self.halted {
                    // Our Done may have been lost; the peer is still
                    // actively talking, so answer with it again. (Done
                    // frames are deliberately never answered — two
                    // halted nodes echoing Done at each other would
                    // never converge.)
                    out.push(Output::Send {
                        to: peer,
                        message: self.done_token(),
                    });
                } else {
                    self.drain(out);
                }
            }
            Message::Done { peer, upto } => {
                let Some(slot) = self.confirmed.get_mut(peer as usize) else {
                    return;
                };
                *slot = (*slot).max(upto);
                if !self.halted {
                    self.drain(out);
                }
            }
        }
    }

    fn on_action_timer(&mut self, out: &mut Vec<Output>) {
        if self.halted || !self.started {
            return;
        }
        self.own_due += 1;
        self.drain(out);
        if !self.halted {
            out.push(Output::SetTimer {
                kind: TimerKind::Action,
                delay: 1.0,
            });
        }
    }

    fn on_retransmit_timer(&mut self, out: &mut Vec<Output>) {
        if self.halted {
            self.broadcast(self.done_token(), out);
        } else if !self.started {
            if self.me != 0 {
                out.push(Output::Send {
                    to: 0,
                    message: Message::Hello { peer: self.me },
                });
            }
        } else {
            let token = Message::Ordered {
                peer: self.me,
                upto: self.replica.peer_actions(PeerId::new(self.me)),
            };
            self.broadcast(token, out);
        }
        self.arm_retransmit(out);
    }

    fn maybe_open_barrier(&mut self, out: &mut Vec<Output>) {
        if self.started || !self.hello_seen.iter().all(|&seen| seen) {
            return;
        }
        self.started = true;
        self.broadcast(Message::Start, out);
        self.begin_acting(out);
    }

    fn begin_acting(&mut self, out: &mut Vec<Output>) {
        // A peer has one turn a round: the first fire releases round 0's
        // at once, every later one a time unit after the previous.
        out.push(Output::SetTimer {
            kind: TimerKind::Action,
            delay: 0.0,
        });
        self.arm_retransmit(out);
        // Tokens that raced ahead of Start may already permit remote
        // actions.
        self.drain(out);
    }

    /// Applies every turn whose permission has arrived: own turns
    /// released by Action fires, remote ones covered by their peer's
    /// cumulative token.
    fn drain(&mut self, out: &mut Vec<Output>) {
        if self.halted {
            return;
        }
        while let Some(pending) = self.replica.pending() {
            let peer = pending.peer;
            let permitted = if peer.get() == self.me {
                self.replica.peer_actions(peer) < self.own_due
            } else {
                self.confirmed[peer.index()] > self.replica.peer_actions(peer)
            };
            if !permitted {
                break;
            }
            let applied = self.replica.apply_pending();
            for owned in applied.events {
                if owned.owner == self.me {
                    out.push(Output::Journal(JournalEntry::from_owned(
                        applied.index,
                        owned,
                    )));
                }
            }
            // The events borrow the replica; done with them here.
            let halted = applied.halted;
            if peer.get() == self.me {
                let token = Message::Ordered {
                    peer: self.me,
                    upto: self.replica.peer_actions(peer),
                };
                self.broadcast(token, out);
            }
            if halted {
                break;
            }
        }
        if self.replica.halted() {
            self.halted = true;
            self.broadcast(self.done_token(), out);
            out.push(Output::Halted);
        }
    }

    fn done_token(&self) -> Message {
        Message::Done {
            peer: self.me,
            upto: self.replica.peer_actions(PeerId::new(self.me)),
        }
    }

    fn broadcast(&self, message: Message, out: &mut Vec<Output>) {
        out.extend(
            (0..self.n)
                .filter(|&q| q != self.me)
                .map(|q| Output::Send { to: q, message }),
        );
    }

    fn arm_retransmit(&mut self, out: &mut Vec<Output>) {
        // Mirrors the engine's oracle-retry rule: bounded exponential
        // backoff plus deterministic jitter keyed by (node, attempt).
        let base = 1u32
            .checked_shl(self.retry_attempts.min(16))
            .unwrap_or(RETRANSMIT_CAP)
            .min(RETRANSMIT_CAP);
        let jitter = deterministic_jitter(
            (u64::from(self.me) << 32) | u64::from(self.retry_attempts),
            base / 2,
        );
        self.retry_attempts = self.retry_attempts.saturating_add(1);
        out.push(Output::SetTimer {
            kind: TimerKind::Retransmit,
            delay: f64::from(base + jitter),
        });
    }

    /// Final summary; meaningful once [`Self::is_halted`].
    pub fn outcome(&self) -> NodeOutcome {
        let (goal, engine) = (self.replica.goal(), self.replica.engine());
        NodeOutcome {
            actions: self.replica.actions(),
            own_actions: self.replica.peer_actions(PeerId::new(self.me)),
            rounds: engine.round().get(),
            converged_at: goal.converged_at().map(|r| r as f64),
            healed_at: goal.clean_at().map(|r| r as f64),
            crashed_peers: goal.victims().len() as u64,
            final_satisfied_fraction: engine.satisfied_fraction(),
            final_stale_chains: engine.stale_chain_count() as u64,
            time_limited: self.replica.halted() && !goal.done(),
        }
    }

    /// Assembles this node's report from the journal entries the
    /// transport accumulated from [`Output::Journal`].
    pub fn report(&self, transport: &str, entries: Vec<JournalEntry>) -> NodeReport {
        let outcome = self.outcome();
        NodeReport {
            peer: self.me,
            peers: u64::from(self.n),
            seed: self.seed,
            scenario: self.spec.scenario.kind().to_string(),
            transport: transport.to_string(),
            actions: outcome.actions,
            own_actions: outcome.own_actions,
            rounds: outcome.rounds,
            converged_at: outcome.converged_at,
            healed_at: outcome.healed_at,
            crashed_peers: outcome.crashed_peers,
            final_satisfied_fraction: outcome.final_satisfied_fraction,
            final_stale_chains: outcome.final_stale_chains,
            time_limited: outcome.time_limited,
            counters: *self.replica.engine().counters(),
            journal_capacity: self.spec.journal_capacity as u64,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Scenario;
    use lagover_core::{Algorithm, Constraints, ConstructionConfig, OracleKind};

    fn population(n: u32) -> Population {
        let constraints = (0..n).map(|i| Constraints::new(3, i / 4 + 1)).collect();
        Population::new(4, constraints)
    }

    /// Clears `out`, hands `node` the input, and returns its outputs.
    fn outputs<'a>(node: &mut NodeCore, input: Input, out: &'a mut Vec<Output>) -> &'a [Output] {
        out.clear();
        node.handle(input, out);
        out
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            scenario: Scenario::Construction,
            config: ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
                .with_max_rounds(10_000),
            max_time: 10_000.0,
            journal_capacity: 8_192,
        }
    }

    #[test]
    fn barrier_opens_only_when_every_hello_arrived() {
        let pop = population(8);
        let s = spec();
        let mut zero = NodeCore::new(&pop, &s, 3, 0);
        let mut out = Vec::new();
        let boot = outputs(&mut zero, Input::Command(Command::Start), &mut out);
        assert!(boot.is_empty(), "node 0 waits for hellos: {boot:?}");
        for peer in 1..7 {
            let outs = outputs(&mut zero, Input::Frame(Message::Hello { peer }), &mut out);
            assert!(
                !outs.iter().any(|o| matches!(
                    o,
                    Output::Send {
                        message: Message::Start,
                        ..
                    }
                )),
                "barrier must not open at {peer}/7 hellos"
            );
        }
        let outs = outputs(
            &mut zero,
            Input::Frame(Message::Hello { peer: 7 }),
            &mut out,
        );
        let starts = outs
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Output::Send {
                        message: Message::Start,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(starts, 7, "Start broadcast to every other node");
        assert!(zero.is_started());
    }

    #[test]
    fn straggler_hello_is_answered_with_start_again() {
        let pop = population(4);
        let s = spec();
        let mut zero = NodeCore::new(&pop, &s, 3, 0);
        let mut out = Vec::new();
        zero.handle(Input::Command(Command::Start), &mut out);
        for peer in 1..4 {
            zero.handle(Input::Frame(Message::Hello { peer }), &mut out);
        }
        let outs = outputs(
            &mut zero,
            Input::Frame(Message::Hello { peer: 2 }),
            &mut out,
        );
        assert_eq!(
            outs,
            [Output::Send {
                to: 2,
                message: Message::Start,
            }]
        );
    }

    #[test]
    fn own_actions_wait_for_the_action_timer() {
        let pop = population(4);
        let s = spec();
        let mut node = NodeCore::new(&pop, &s, 3, 1);
        let mut out = Vec::new();
        node.handle(Input::Command(Command::Start), &mut out);
        let on_start = outputs(&mut node, Input::Frame(Message::Start), &mut out);
        // Started, but no Action fire yet: nothing applied, no token.
        assert!(
            !on_start.iter().any(|o| matches!(
                o,
                Output::Send {
                    message: Message::Ordered { .. },
                    ..
                }
            )),
            "no own action before the timer: {on_start:?}"
        );
        // Whether the first Action fire applies the own action depends
        // on the global schedule (earlier remote entries may gate it) —
        // but with every remote token maxed out it must go through.
        for peer in [0u32, 2, 3] {
            let token = Message::Ordered {
                peer,
                upto: u64::MAX,
            };
            node.handle(Input::Frame(token), &mut out);
        }
        let outs = outputs(&mut node, Input::Timer(TimerKind::Action), &mut out);
        assert!(
            outs.iter().any(|o| matches!(
                o,
                Output::Send {
                    message: Message::Ordered { peer: 1, .. },
                    ..
                }
            )),
            "own action releases and broadcasts a token: {outs:?}"
        );
    }

    #[test]
    fn halted_node_answers_tokens_with_done() {
        let pop = population(4);
        let s = spec();
        let mut node = NodeCore::new(&pop, &s, 3, 1);
        let mut out = Vec::new();
        node.handle(Input::Command(Command::Start), &mut out);
        node.handle(Input::Frame(Message::Start), &mut out);
        // Release everything: all remote tokens plus unlimited own
        // fires drives the replica to its terminal state single-handed.
        for peer in [0u32, 2, 3] {
            let token = Message::Ordered {
                peer,
                upto: u64::MAX,
            };
            node.handle(Input::Frame(token), &mut out);
        }
        let mut halted = false;
        for _ in 0..100_000 {
            let outs = outputs(&mut node, Input::Timer(TimerKind::Action), &mut out);
            if outs.contains(&Output::Halted) {
                halted = true;
                break;
            }
        }
        assert!(halted, "run must finish");
        let token = Message::Ordered { peer: 0, upto: 1 };
        let outs = outputs(&mut node, Input::Frame(token), &mut out);
        assert_eq!(outs.len(), 1);
        assert!(
            matches!(
                outs[0],
                Output::Send {
                    to: 0,
                    message: Message::Done { peer: 1, .. },
                }
            ),
            "{outs:?}"
        );
    }

    #[test]
    fn retransmit_backoff_is_bounded_and_jittered() {
        let pop = population(4);
        let s = spec();
        let mut node = NodeCore::new(&pop, &s, 3, 1);
        let mut out = Vec::new();
        node.handle(Input::Command(Command::Start), &mut out);
        let mut last = 0.0f64;
        for _ in 0..24 {
            let outs = outputs(&mut node, Input::Timer(TimerKind::Retransmit), &mut out);
            let delay = outs
                .iter()
                .find_map(|o| match o {
                    Output::SetTimer {
                        kind: TimerKind::Retransmit,
                        delay,
                    } => Some(*delay),
                    _ => None,
                })
                .expect("retransmit re-arms");
            assert!(delay >= 1.0);
            assert!(delay <= f64::from(RETRANSMIT_CAP + RETRANSMIT_CAP / 2));
            last = delay;
        }
        assert!(last >= f64::from(RETRANSMIT_CAP), "backoff reaches its cap");
    }
}
