//! Tokens survive reordering, duplication and loss (DESIGN.md §16.1).
//!
//! The mesh delivers every frame at once and drops retransmit arms, and
//! the UDP transport runs on clean loopback, so neither exercises the
//! claim that cumulative, idempotent tokens make a bad network harmless.
//! This sans-IO loop over `NodeCore`s does: each send is delayed by a
//! seeded draw in `[0, 3)` time units (so frames overtake each other),
//! 20% of sends are delivered twice and 10% never, and every timer —
//! retransmits included — fires when armed. The merged journal must
//! still be byte-equal to the simulator twin's.

use lagover_core::{Algorithm, Constraints, ConstructionConfig, OracleKind, Population};
use lagover_jsonio::to_string;
use lagover_node::{
    merge_reports, twin, Command, Input, JournalEntry, MergedRun, Message, NodeCore, Output,
    Scenario, ScenarioSpec, TimerKind,
};
use lagover_sim::{EventQueue, SimRng};

/// A feasible tiered population: four peers per latency tier, fanout 3.
fn population(n: u32) -> Population {
    let constraints = (0..n).map(|i| Constraints::new(3, i / 4 + 1)).collect();
    Population::new(4, constraints)
}

fn spec(scenario: Scenario) -> ScenarioSpec {
    ScenarioSpec {
        scenario,
        config: ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
            .with_max_rounds(20_000),
        max_time: 1_500.0,
        journal_capacity: 16_384,
    }
}

#[derive(Debug, Clone, Copy)]
enum Due {
    Frame { to: u32, message: Message },
    Timer { node: u32, kind: TimerKind },
}

/// The misbehaving network: a delay queue, the seeded coin it flips
/// for every send, and each node's persisted journal entries.
struct Network {
    queue: EventQueue<Due>,
    rng: SimRng,
    entries: Vec<Vec<JournalEntry>>,
    lost: u64,
    duplicated: u64,
    retransmits: u64,
}

impl Network {
    /// Executes (and drains) the outputs node `from` just emitted.
    fn execute(&mut self, from: u32, out: &mut Vec<Output>) {
        for output in out.drain(..) {
            match output {
                Output::Send { to, message } => {
                    if self.rng.chance(0.1) {
                        self.lost += 1;
                        continue;
                    }
                    let copies = if self.rng.chance(0.2) { 2 } else { 1 };
                    self.duplicated += copies - 1;
                    for _ in 0..copies {
                        let delay = self.rng.f64() * 3.0;
                        self.queue.schedule_after(delay, Due::Frame { to, message });
                    }
                }
                Output::SetTimer { kind, delay } => {
                    self.queue
                        .schedule_after(delay, Due::Timer { node: from, kind });
                }
                Output::Journal(entry) => self.entries[from as usize].push(entry),
                Output::Halted => {}
            }
        }
    }
}

/// Runs every node over the lossy network until all have halted.
fn run_lossy(pop: &Population, spec: &ScenarioSpec, seed: u64) -> (MergedRun, Network) {
    let n = pop.len() as u32;
    let mut nodes: Vec<NodeCore> = (0..n)
        .map(|me| NodeCore::new(pop, spec, seed, me))
        .collect();
    let mut net = Network {
        queue: EventQueue::new(),
        rng: SimRng::seed_from(seed).split(0x0010_55E5),
        entries: vec![Vec::new(); n as usize],
        lost: 0,
        duplicated: 0,
        retransmits: 0,
    };
    let mut out = Vec::new();
    for me in 0..n {
        nodes[me as usize].handle(Input::Command(Command::Start), &mut out);
        net.execute(me, &mut out);
    }
    let mut steps = 0u64;
    while !nodes.iter().all(NodeCore::is_halted) {
        steps += 1;
        assert!(steps < 2_000_000, "lossy run livelocked");
        let (_, due) = net.queue.pop().expect("a running node has a timer armed");
        let (target, input) = match due {
            Due::Frame { to, message } => (to, Input::Frame(message)),
            // A halted node only answers frames.
            Due::Timer { node, .. } if nodes[node as usize].is_halted() => continue,
            Due::Timer { node, kind } => {
                net.retransmits += u64::from(kind == TimerKind::Retransmit);
                (node, Input::Timer(kind))
            }
        };
        nodes[target as usize].handle(input, &mut out);
        net.execute(target, &mut out);
    }
    let reports: Vec<_> = nodes
        .iter()
        .zip(std::mem::take(&mut net.entries))
        .map(|(node, entries)| node.report("lossy", entries))
        .collect();
    let merged = merge_reports(&reports).expect("replicas stay in lockstep");
    (merged, net)
}

fn assert_lossy_matches_twin(n: u32, seed: u64, scenario: Scenario) {
    let pop = population(n);
    let s = spec(scenario);
    let (merged, net) = run_lossy(&pop, &s, seed);
    assert!(
        net.lost > 0 && net.duplicated > 0 && net.retransmits > 0,
        "the network must misbehave: {} lost, {} duplicated, {} retransmit fires",
        net.lost,
        net.duplicated,
        net.retransmits
    );
    let twin = twin(&pop, &s, seed);
    assert_eq!(merged.report.converged_at, twin.converged_at);
    assert_eq!(merged.report.healed_at, twin.healed_at);
    assert_eq!(
        to_string(&merged.journal),
        to_string(&twin.journal),
        "n={n} seed={seed} {}: lossy journal diverged from the twin",
        scenario.kind()
    );
}

#[test]
fn construction_survives_a_lossy_network() {
    for seed in 0..6 {
        assert_lossy_matches_twin(16, seed, Scenario::Construction);
    }
}

#[test]
fn recovery_survives_a_lossy_network() {
    for seed in 0..6 {
        let recovery = Scenario::Recovery {
            crash_fraction: 0.3,
        };
        assert_lossy_matches_twin(24, seed, recovery);
    }
}
