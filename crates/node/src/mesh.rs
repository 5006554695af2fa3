//! In-process transport: an N-node mesh driven at virtual time.
//!
//! Every node's [`NodeCore`] runs in one address space; frames are
//! delivered with zero latency and timers fire on a shared virtual
//! clock, in `(time, arming sequence)` order — FIFO among simultaneous
//! events, like the simulator's `EventQueue`. The clock has two lanes.
//! A frame is always armed at the current instant, after everything
//! already armed, so in-flight frames wait in a FIFO; Action timers
//! wait in a heap keyed `(time, seq)`, and a pop takes the smaller
//! head. Time never passes a queued frame, so the FIFO is sorted and
//! this is exactly the order of one heap over everything (a property
//! test keeps that heap as its oracle) — at the cost of a queue slot
//! per frame, not a heap sift, and holding in-flight frames only.
//!
//! Each node's outputs go through one reused buffer:
//! [`NodeCore::handle`] appends to it and the mesh drains it. The
//! whole run is a pure function of `(population, spec, seed)`:
//! byte-identical journals on every execution, and — the property
//! `results/nodesim.json` pins — byte-identical to the simulator twin.
//!
//! Because delivery is reliable and instant, the mesh *drops*
//! [`TimerKind::Retransmit`] arms: nothing is ever lost, so the
//! retransmission machinery would only reorder duplicate idempotent
//! tokens. [`TimerKind::Action`] arms are honored exactly; with
//! zero-latency frames round `r` of the replicated run plays out at
//! virtual time `r`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use lagover_core::Population;

use crate::core::{Command, Input, NodeCore, Output, TimerKind};
use crate::journal::{merge_reports, JournalEntry, MergedRun, NodeReport};
use crate::replica::ScenarioSpec;
use crate::wire::Message;

/// One completed mesh run.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshRun {
    /// Each node's report, indexed by node id.
    pub reports: Vec<NodeReport>,
    /// The cross-checked merge of those reports.
    pub merged: MergedRun,
}

/// What the schedule hands back: a frame to deliver or a node whose
/// Action timer fired.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Due {
    Frame { to: u32, message: Message },
    Action { node: u32 },
}

/// The two-lane virtual-time schedule of the module docs: pops in
/// `(time, arming seq)` order. Times are non-negative, so
/// `f64::to_bits` preserves their order.
#[derive(Debug, Default)]
struct Sched {
    now: f64,
    seq: u64,
    frames: VecDeque<(u64, u32, Message)>,
    timers: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl Sched {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Queues a frame for delivery at the current instant.
    fn deliver(&mut self, to: u32, message: Message) {
        let seq = self.next_seq();
        self.frames.push_back((seq, to, message));
    }

    /// Arms `node`'s Action timer `delay` time units from now.
    fn arm(&mut self, delay: f64, node: u32) {
        let seq = self.next_seq();
        let time = self.now + delay;
        self.timers.push(Reverse((time.to_bits(), seq, node)));
    }

    /// The earliest due item, advancing `now` to its time.
    fn pop(&mut self) -> Option<Due> {
        // Every queued frame sits at `now`, and no timer is earlier, so
        // a timer goes first only if it is due now and was armed first.
        let timer_first = match (self.frames.front(), self.timers.peek()) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(&(frame_seq, ..)), Some(&Reverse((time_bits, timer_seq, _)))) => {
                (time_bits, timer_seq) < (self.now.to_bits(), frame_seq)
            }
        };
        if timer_first {
            let Reverse((time_bits, _, node)) = self.timers.pop()?;
            self.now = f64::from_bits(time_bits);
            Some(Due::Action { node })
        } else {
            let (_, to, message) = self.frames.pop_front()?;
            Some(Due::Frame { to, message })
        }
    }
}

/// Runs the full population in-process and merges the per-node
/// journals.
///
/// # Errors
///
/// Returns a description of the failure if the nodes do not all halt
/// (a protocol liveness bug) or their reports fail to merge (a
/// lockstep divergence bug). Both are defects, never load conditions.
pub fn run_mesh(
    population: &Population,
    spec: &ScenarioSpec,
    seed: u64,
) -> Result<MeshRun, String> {
    let n = population.len() as u32;
    let mut nodes: Vec<NodeCore> = (0..n)
        .map(|me| NodeCore::new(population, spec, seed, me))
        .collect();
    let mut mesh = Mesh {
        sched: Sched::default(),
        entries: vec![Vec::new(); n as usize],
        halted: vec![false; n as usize],
        halted_count: 0,
    };
    // One output buffer for the whole run: `handle` appends to it and
    // `execute` drains it.
    let mut out: Vec<Output> = Vec::new();

    // Boot every node at t = 0, in node order.
    for me in 0..n {
        nodes[me as usize].handle(Input::Command(Command::Start), &mut out);
        mesh.execute(me, &mut out);
    }

    // A loose safety net: the protocol is deterministic, so any
    // overrun here is a livelock bug, not load. Recovery may run the
    // round cap twice over (construction, then healing).
    let budget = 64u64
        .saturating_mul(spec.rounds().saturating_mul(2).saturating_add(2))
        .saturating_mul(u64::from(n).max(1))
        .saturating_add(1_000_000);
    let mut steps = 0u64;
    while mesh.halted_count < n as usize {
        let Some(due) = mesh.sched.pop() else {
            return Err(format!(
                "mesh ran dry with {}/{n} nodes halted",
                mesh.halted_count
            ));
        };
        steps += 1;
        if steps > budget {
            return Err(format!(
                "mesh exceeded its step budget ({budget}) with {}/{n} halted",
                mesh.halted_count
            ));
        }
        let (target, input) = match due {
            Due::Frame { to, message } => (to, Input::Frame(message)),
            // Halted nodes only answer frames (lost-Done recovery);
            // their leftover timers are inert.
            Due::Action { node } if mesh.halted[node as usize] => continue,
            Due::Action { node } => (node, Input::Timer(TimerKind::Action)),
        };
        nodes[target as usize].handle(input, &mut out);
        mesh.execute(target, &mut out);
    }

    let reports: Vec<NodeReport> = nodes
        .iter()
        .zip(mesh.entries)
        .map(|(node, entries)| node.report("mesh", entries))
        .collect();
    let merged = merge_reports(&reports)?;
    Ok(MeshRun { reports, merged })
}

/// The transport's state besides the nodes themselves.
struct Mesh {
    sched: Sched,
    entries: Vec<Vec<JournalEntry>>,
    halted: Vec<bool>,
    halted_count: usize,
}

impl Mesh {
    /// Executes (and drains) the outputs node `from` just emitted.
    fn execute(&mut self, from: u32, out: &mut Vec<Output>) {
        for output in out.drain(..) {
            match output {
                // Zero-latency link: delivered at the current instant,
                // after everything already scheduled there (FIFO).
                Output::Send { to, message } => self.sched.deliver(to, message),
                Output::SetTimer { kind, delay } => match kind {
                    TimerKind::Action => self.sched.arm(delay, from),
                    // Reliable transport: retransmission would only
                    // duplicate idempotent tokens. Dropped by policy.
                    TimerKind::Retransmit => {}
                },
                Output::Journal(entry) => self.entries[from as usize].push(entry),
                Output::Halted => {
                    if !self.halted[from as usize] {
                        self.halted[from as usize] = true;
                        self.halted_count += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{twin, Scenario};
    use lagover_core::{Algorithm, Constraints, ConstructionConfig, OracleKind};
    use lagover_jsonio::to_string;
    use lagover_obs::Event;
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

    /// The schedule before the split, kept as the oracle: one heap over
    /// `(time, arming seq)` and every item ever armed.
    #[derive(Default)]
    struct HeapSched {
        now: f64,
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        pendings: Vec<Due>,
    }

    impl HeapSched {
        fn push(&mut self, time: f64, due: Due) {
            let seq = self.pendings.len() as u64;
            self.pendings.push(due);
            self.heap.push(Reverse((time.to_bits(), seq)));
        }

        fn pop(&mut self) -> Option<Due> {
            let Reverse((time_bits, seq)) = self.heap.pop()?;
            self.now = f64::from_bits(time_bits);
            Some(self.pendings[seq as usize])
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of same-instant deliveries, timers
        /// (delays 0, 1 and dyadic fractions, so times tie across
        /// arming instants) and pops: the two lanes pop exactly what
        /// the one heap pops, at the same time.
        #[test]
        fn two_lanes_pop_in_the_one_heap_order(
            ops in prop::collection::vec((0u8..4, 0u32..64), 0..200),
        ) {
            let (mut sched, mut oracle) = (Sched::default(), HeapSched::default());
            for (label, &(op, x)) in ops.iter().enumerate() {
                let label = label as u32;
                match op {
                    0 | 1 => {
                        let message = Message::Hello { peer: x };
                        sched.deliver(label, message);
                        oracle.push(oracle.now, Due::Frame { to: label, message });
                    }
                    2 => {
                        let delay = match x % 3 {
                            0 => 0.0,
                            1 => 1.0,
                            _ => f64::from(x) / 64.0,
                        };
                        sched.arm(delay, label);
                        oracle.push(oracle.now + delay, Due::Action { node: label });
                    }
                    _ => {
                        prop_assert_eq!(sched.pop(), oracle.pop());
                        prop_assert_eq!(sched.now.to_bits(), oracle.now.to_bits());
                    }
                }
            }
            while let Some(due) = oracle.pop() {
                prop_assert_eq!(sched.pop(), Some(due));
                prop_assert_eq!(sched.now.to_bits(), oracle.now.to_bits());
            }
            prop_assert_eq!(sched.pop(), None);
        }
    }

    #[test]
    fn mesh_construction_journal_is_byte_identical_to_the_twin() {
        let pop = population(24);
        let s = spec(Scenario::Construction);
        let run = run_mesh(&pop, &s, 7).expect("mesh completes");
        let twin = twin(&pop, &s, 7);
        assert_eq!(run.merged.report.converged_at, twin.converged_at);
        assert_eq!(run.merged.report.counters, twin.counters);
        assert_eq!(
            to_string(&run.merged.journal),
            to_string(&twin.journal),
            "merged mesh journal must serialize byte-identically to the twin"
        );
        assert!(run.merged.finished());
    }

    #[test]
    fn mesh_recovery_journal_is_byte_identical_to_the_twin() {
        let pop = population(24);
        let s = spec(Scenario::Recovery {
            crash_fraction: 0.2,
        });
        let run = run_mesh(&pop, &s, 7).expect("mesh completes");
        let twin = twin(&pop, &s, 7);
        assert_eq!(to_string(&run.merged.journal), to_string(&twin.journal));
        assert_eq!(run.merged.report.converged_at, twin.converged_at);
        assert_eq!(run.merged.report.healed_at, twin.healed_at);
        assert_eq!(run.merged.report.crashed_peers, twin.crashed_peers);
        assert!(
            run.merged
                .journal
                .iter()
                .any(|e| matches!(e, Event::Crash { .. })),
            "recovery journal must carry the crash injections"
        );
    }

    #[test]
    fn every_node_reports_the_same_outcome_and_owns_disjoint_entries() {
        let pop = population(16);
        let s = spec(Scenario::Construction);
        let run = run_mesh(&pop, &s, 3).expect("mesh completes");
        assert_eq!(run.reports.len(), 16);
        let own_total: u64 = run.reports.iter().map(|r| r.own_actions).sum();
        assert_eq!(own_total, run.merged.report.actions);
        let obs = run.merged.to_obs_report("nodesim n=16");
        assert_eq!(obs.converged, 1);
        assert_eq!(
            obs.journal.as_ref().map(|j| j.len()),
            Some(run.merged.journal.len())
        );
    }

    #[test]
    fn a_capped_run_halts_at_the_round_cap_with_its_twin() {
        let pop = population(16);
        let s = ScenarioSpec {
            max_time: 2.0,
            ..spec(Scenario::Construction)
        };
        let run = run_mesh(&pop, &s, 3).expect("mesh completes");
        let report = &run.merged.report;
        assert!(report.time_limited && !run.merged.finished());
        assert_eq!(report.actions, 2 * 16, "two rounds of every peer");
        let twin = twin(&pop, &s, 3);
        assert_eq!(to_string(&run.merged.journal), to_string(&twin.journal));
        assert_eq!(report.converged_at, twin.converged_at);
    }

    /// The widest cap the CLI accepts: the livelock budget saturates
    /// instead of overflowing, and the run still ends by converging.
    #[test]
    fn the_widest_round_cap_saturates_the_step_budget() {
        let s = ScenarioSpec {
            max_time: 9_007_199_254_740_992.0,
            ..spec(Scenario::Construction)
        };
        let run = run_mesh(&population(8), &s, 3).expect("mesh completes");
        assert!(run.merged.finished());
    }
}
