//! In-process transport: an N-node mesh driven at virtual time.
//!
//! Every node's [`NodeCore`] runs in one address space; frames are
//! delivered with zero latency and timers fire on a shared virtual
//! clock (a binary heap ordered by `(time, arming sequence)` — FIFO
//! among simultaneous events, like the simulator's `EventQueue`). The
//! whole run is a pure function of `(population, spec, seed)`:
//! byte-identical journals on every execution, and — the property the
//! replay-diff pins — byte-identical to the simulator twin.
//!
//! Because delivery is reliable and instant, the mesh *drops*
//! [`TimerKind::Retransmit`] arms: nothing is ever lost, so the
//! retransmission machinery would only reorder duplicate idempotent
//! tokens. [`TimerKind::Action`] arms are honored exactly; with
//! zero-latency frames this reproduces the simulator's own schedule
//! times on top of the protocol's correctness-by-construction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pending {
    Deliver { to: u32, message: Message },
    Timer { node: u32, kind: TimerKind },
}

/// The virtual-time event heap: pops in `(time, arming seq)` order.
/// Times are non-negative, so `f64::to_bits` preserves their order.
#[derive(Debug, Default)]
struct Sched {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    pendings: Vec<Pending>,
}

impl Sched {
    fn push(&mut self, time: f64, pending: Pending) {
        let seq = self.pendings.len() as u64;
        self.pendings.push(pending);
        self.heap.push(Reverse((time.to_bits(), seq)));
    }

    fn pop(&mut self) -> Option<(f64, Pending)> {
        let Reverse((time_bits, seq)) = self.heap.pop()?;
        Some((f64::from_bits(time_bits), self.pendings[seq as usize]))
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
    let mut entries: Vec<Vec<JournalEntry>> = vec![Vec::new(); n as usize];
    let mut halted = vec![false; n as usize];
    let mut halted_count = 0usize;
    let mut sched = Sched::default();

    // Boot every node at t = 0, in node order.
    for me in 0..n {
        let outs: Vec<Output> = nodes[me as usize]
            .handle(Input::Command(Command::Start))
            .collect();
        execute(
            me,
            outs,
            0.0,
            &mut sched,
            &mut entries,
            &mut halted,
            &mut halted_count,
        );
    }

    // A loose safety net: the protocol is deterministic, so any
    // overrun here is a livelock bug, not load.
    let budget = 64 * (spec.max_time as u64 + 2) * u64::from(n).max(1) + 1_000_000;
    let mut steps = 0u64;
    while halted_count < n as usize {
        let Some((now, pending)) = sched.pop() else {
            return Err(format!("mesh ran dry with {halted_count}/{n} nodes halted"));
        };
        steps += 1;
        if steps > budget {
            return Err(format!(
                "mesh exceeded its step budget ({budget}) with {halted_count}/{n} halted"
            ));
        }
        let (target, input) = match pending {
            Pending::Deliver { to, message } => (to, Input::Frame(message)),
            Pending::Timer { node, kind } => (node, Input::Timer(kind)),
        };
        // Halted nodes only answer frames (lost-Done recovery); their
        // leftover timers are inert.
        if halted[target as usize] && matches!(input, Input::Timer(_)) {
            continue;
        }
        let outs: Vec<Output> = nodes[target as usize].handle(input).collect();
        execute(
            target,
            outs,
            now,
            &mut sched,
            &mut entries,
            &mut halted,
            &mut halted_count,
        );
    }

    let reports: Vec<NodeReport> = nodes
        .iter()
        .zip(entries)
        .map(|(node, entries)| node.report("mesh", entries))
        .collect();
    let merged = merge_reports(&reports)?;
    Ok(MeshRun { reports, merged })
}

fn execute(
    from: u32,
    outs: Vec<Output>,
    now: f64,
    sched: &mut Sched,
    entries: &mut [Vec<JournalEntry>],
    halted: &mut [bool],
    halted_count: &mut usize,
) {
    for output in outs {
        match output {
            Output::Send { to, message } => {
                // Zero-latency link: delivered at the current instant,
                // after everything already scheduled there (FIFO).
                sched.push(now, Pending::Deliver { to, message });
            }
            Output::SetTimer { kind, delay } => match kind {
                TimerKind::Action => {
                    sched.push(now + delay, Pending::Timer { node: from, kind });
                }
                // Reliable transport: retransmission would only
                // duplicate idempotent tokens. Dropped by policy.
                TimerKind::Retransmit => {}
            },
            Output::Journal(entry) => entries[from as usize].push(entry),
            Output::Halted => {
                if !halted[from as usize] {
                    halted[from as usize] = true;
                    *halted_count += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Scenario;
    use lagover_core::{
        Algorithm, Constraints, ConstructionConfig, FixedActionDuration, OracleKind, Run,
    };
    use lagover_jsonio::to_string;
    use lagover_obs::Event;

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

    #[test]
    fn mesh_construction_journal_is_byte_identical_to_the_twin() {
        let pop = population(24);
        let s = spec(Scenario::Construction);
        let run = run_mesh(&pop, &s, 7).expect("mesh completes");
        let twin = Run::new(&pop, &s.config, 7)
            .observe(s.journal_capacity, 10)
            .timed(FixedActionDuration(1.0), s.max_time)
            .construct();
        assert_eq!(run.merged.report.converged_at, twin.outcome.converged_at);
        assert_eq!(run.merged.report.counters, twin.outcome.counters);
        assert_eq!(
            to_string(&run.merged.journal),
            to_string(&twin.trail.expect("observed").journal),
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
        let twin = Run::new(&pop, &s.config, 7)
            .observe(s.journal_capacity, 10)
            .timed(FixedActionDuration(1.0), s.max_time)
            .recover(0.2);
        assert_eq!(
            to_string(&run.merged.journal),
            to_string(&twin.trail.as_ref().expect("observed").journal)
        );
        assert_eq!(
            run.merged.report.converged_at,
            twin.outcome.construction_converged_at
        );
        assert_eq!(run.merged.report.healed_at, twin.outcome.healed_at);
        assert_eq!(
            run.merged.report.crashed_peers,
            twin.outcome.crashed_peers as u64
        );
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
}
