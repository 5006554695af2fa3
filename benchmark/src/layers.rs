//! The traced run: one child process per workload that fills the
//! per-layer ledger.
//!
//! It alternates untraced and traced operations on input 0 (their
//! ratio is the tracing overhead, their digests must agree), derives
//! the `core.engine.*` / `stream.scheduler.*` rows from the recorded
//! spans, and runs the extras that only make sense off the end-to-end
//! path: the microbenchmarks, the obs-on operation, the
//! `LAGOVER_THREADS=1` operation and the smaller-size operations
//! behind the two scaling exponents. End-to-end numbers never come
//! from here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use lagover_core::{carve, EngineSnapshot, Member, PeerId};
use lagover_node::{decode, encode, Message, Replica};
use lagover_sim::{EventQueue, SimRng, VirtualTime};

use crate::spec::{PER_LAYER, PINNED_THREADS};
use crate::stats::median;
use crate::trace::Trace;
use crate::workloads::{
    construct, layered_population, mesh_op, Constructed, Kind, Outcome, Workload,
};

/// Steps counted as "the burst" of a construction.
const BURST_STEPS: usize = 3;
/// Peers of the snapshot `jsonio.snapshot_roundtrip_s` round-trips.
const ROUNDTRIP_PEERS: usize = 1000;

/// What the traced child hands back to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Every per-layer metric; 0 where the workload does not exercise
    /// the layer.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations run (paired, obs-on, single-thread, smaller-size).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

struct Ledger {
    report: TraceReport,
    first_digest: Option<u64>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            report: TraceReport {
                layers: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
                attempted: 0,
                failures: Vec::new(),
            },
            first_digest: None,
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        *self
            .report
            .layers
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in spec::PER_LAYER")) = value;
    }

    /// Books one operation; `same_input` says its digest must equal
    /// the first such operation's.
    fn book(&mut self, what: &str, outcome: &Outcome, same_input: bool) {
        self.report.attempted += 1;
        if let Some(why) = &outcome.failure {
            self.report.failures.push(format!("{what}: {why}"));
        } else if same_input && *self.first_digest.get_or_insert(outcome.digest) != outcome.digest {
            self.report
                .failures
                .push(format!("{what}: digest differs from the first operation's"));
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn count(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .counts
        .iter()
        .find(|&&(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

/// Runs `f` with `LAGOVER_THREADS` set to `threads` (unset for
/// `None`), then pins it back. The repo reads the variable on every
/// parallel call, and this process has no other thread to race with.
fn with_threads<T>(threads: Option<usize>, f: impl FnOnce() -> T) -> T {
    match threads {
        Some(n) => std::env::set_var("LAGOVER_THREADS", n.to_string()),
        None => std::env::remove_var("LAGOVER_THREADS"),
    }
    let result = f();
    std::env::set_var("LAGOVER_THREADS", PINNED_THREADS.to_string());
    result
}

/// `VmHWM` of this process, in kB (0 where /proc does not say).
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Resets this process's `VmHWM` to its current RSS, so the next
/// reading is the peak of what ran in between. Where the kernel
/// refuses, readings stay the running maximum — still a peak, only
/// that of every operation so far.
pub fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Two-point scaling exponent: `ln(wall_big / wall_small) / ln(ratio)`.
fn scale_exp(wall_big: f64, wall_small: f64, size_ratio: f64) -> f64 {
    (wall_big / wall_small).ln() / size_ratio.ln()
}

/// The `core.engine.step_*` rows of one traced sample.
fn step_rows(trace: &Trace, sample: u32, peers: usize, op_ns: u64) -> Option<[f64; 4]> {
    let mut steps = trace.durations_ns(sample, "core.engine.step");
    if steps.is_empty() {
        return None;
    }
    steps.sort_unstable_by(|a, b| b.cmp(a));
    let burst: u64 = steps.iter().take(BURST_STEPS).sum();
    let steady: Vec<f64> = steps.iter().skip(BURST_STEPS).map(|&s| s as f64).collect();
    let steady_ns = if steady.is_empty() {
        0.0
    } else {
        median(&steady) / peers as f64
    };
    Some([
        secs(burst),
        burst as f64 / op_ns as f64,
        steps[0] as f64 / 1e6,
        steady_ns,
    ])
}

/// Median over the traced samples of the total time in spans `name`.
fn span_total_s(trace: &Trace, samples: &[u32], name: &str) -> f64 {
    let totals: Vec<f64> = samples
        .iter()
        .map(|&s| secs(trace.durations_ns(s, name).iter().sum()))
        .collect();
    median(&totals)
}

fn rng_ns_per_draw(seed: u64, draws: u64) -> f64 {
    let mut rng = SimRng::seed_from(seed);
    let start = Instant::now();
    let mut acc = 0usize;
    for _ in 0..draws {
        acc = acc.wrapping_add(rng.index(1000));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / draws as f64
}

/// One `pop` + `schedule` on a queue holding a thousand events.
fn eventq_ns_per_op(ops: u64) -> f64 {
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(1024);
    for i in 0..1000u32 {
        let at = VirtualTime::new(f64::from(i) / 1000.0).expect("finite, non-negative");
        queue.schedule(at, i);
    }
    let start = Instant::now();
    for _ in 0..ops {
        let (_, payload) = queue.pop().expect("never drained");
        queue.schedule_after(1.0, payload);
    }
    black_box(queue.len());
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// `(encode_ns, decode_ns)` per frame, over the four message variants.
fn wire_ns(frames: usize) -> (f64, f64) {
    let messages = [
        Message::Hello { peer: 17 },
        Message::Start,
        Message::Ordered {
            peer: 95,
            upto: 1431,
        },
        Message::Done {
            peer: 95,
            upto: 1431,
        },
    ];
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = (0..frames).map(|i| encode(&messages[i % 4])).collect();
    let encode_ns = start.elapsed().as_nanos() as f64 / frames as f64;
    let start = Instant::now();
    for frame in &encoded {
        black_box(decode(frame).expect("own frames decode"));
    }
    let decode_ns = start.elapsed().as_nanos() as f64 / frames as f64;
    (encode_ns, decode_ns)
}

/// Detach and re-attach every source child of a converged overlay
/// with delta tracking on, draining the deltas as the engine does:
/// the subtree re-stamp a displacement near the root pays.
fn restamp_ns_per_peer(built: &Constructed) -> f64 {
    let mut overlay = built.engine.overlay().clone();
    overlay.set_delta_tracking(true);
    let children: Vec<PeerId> = overlay.source_children().to_vec();
    let restamped: usize = children.iter().map(|&c| overlay.subtree(c).len()).sum();
    let (mut delays, mut fanouts) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for &child in &children {
        overlay.detach(child).expect("source child is attached");
        overlay
            .attach(child, Member::Source)
            .expect("the slot just freed");
        overlay.take_deltas_into(&mut delays, &mut fanouts);
        delays.clear();
        fanouts.clear();
    }
    start.elapsed().as_nanos() as f64 / restamped.max(1) as f64
}

/// Runs the traced child's whole programme for `kind`.
///
/// At least `min_pairs` untraced/traced pairs run, and pairs keep
/// coming until `seconds` have passed since the start. The spans go to
/// `dir`.
///
/// # Errors
///
/// If the set-up fails or the trace files cannot be written.
pub fn traced_run(
    kind: Kind,
    seed: u64,
    divisor: usize,
    min_pairs: usize,
    seconds: f64,
    dir: &Path,
) -> Result<TraceReport, String> {
    let clock = Instant::now();
    let mut trace = Trace::on();
    let mut ledger = Ledger::new();
    let workload = Workload::setup(kind, seed, divisor, &mut trace)?;
    let peers = workload.population.len();
    // Iteration counts shrink with the sizes under --smoke.
    let iterations = |full: u64| full / divisor.max(1) as u64;

    // Extras first: their cost is fixed, the pairs fill what is left.
    let mut single_thread_ns = None;
    let mut observed = None;
    let mut smaller_ns = None;
    let mut lone_replica_ns = None;
    let mut unpinned_ns = None;
    match kind {
        Kind::ConstructBurst | Kind::ConstructTail => {
            let (round_cap, work) = workload.construction().expect("construction workload");
            let built = construct(
                &workload.population,
                round_cap,
                seed,
                true,
                &mut Trace::off(),
            );
            ledger.book("obs-on op", &built.outcome(work), true);
            observed = Some(built);
            if kind == Kind::ConstructBurst {
                let built = with_threads(Some(1), || {
                    construct(
                        &workload.population,
                        round_cap,
                        seed,
                        false,
                        &mut Trace::off(),
                    )
                });
                ledger.book("LAGOVER_THREADS=1 op", &built.outcome(work), true);
                single_thread_ns = Some(built.wall_ns);
                ledger.set(
                    "core.overlay.restamp_ns_per_peer",
                    restamp_ns_per_peer(&built),
                );
                let start = Instant::now();
                let valid = built.engine.overlay().validate();
                ledger.set("core.overlay.validate_s", start.elapsed().as_secs_f64());
                black_box(valid.is_ok());

                let third = layered_population(peers / 3);
                let small = construct(&third, round_cap, seed, false, &mut Trace::off());
                ledger.book("n/3 op", &small.outcome(work), false);
                smaller_ns = Some(small.wall_ns);
            } else {
                ledger.set(
                    "sim.rng.ns_per_draw",
                    rng_ns_per_draw(seed, iterations(10_000_000)),
                );
                let generate = trace.durations_ns(0, "workload.generate");
                ledger.set("workload.generate_s", secs(generate.iter().sum()));
            }
        }
        Kind::RecoverCrash => {
            let outcome = with_threads(Some(1), || workload.op(0, &mut Trace::off()));
            ledger.book("LAGOVER_THREADS=1 op", &outcome, true);
            single_thread_ns = Some(outcome.wall_ns);
            // Not the workload's own 20 000-peer snapshot: parsing is
            // quadratic in the document today (0.3 s at 1 000 peers,
            // 25 s at 8 000, minutes at 20 000).
            let small = Workload::setup(
                kind,
                seed,
                kind.full_peers() / ROUNDTRIP_PEERS * divisor,
                &mut Trace::off(),
            )?;
            let snapshot = small.snapshot().expect("recover_crash keeps a snapshot");
            let start = Instant::now();
            let text = snapshot.to_json_string();
            let back = EngineSnapshot::from_json_str(&text);
            ledger.set("jsonio.snapshot_roundtrip_s", start.elapsed().as_secs_f64());
            if let Err(e) = back {
                ledger
                    .report
                    .failures
                    .push(format!("snapshot JSON round trip: {e}"));
            }
        }
        Kind::StreamForest => {
            let (overlay, budgets) = workload.stream_inputs().expect("stream_forest inputs");
            let start = Instant::now();
            let plan = carve(overlay, &workload.population, budgets, 4, 4);
            ledger.set("core.forest.carve_s", start.elapsed().as_secs_f64());
            if let Err(e) = plan {
                ledger.report.failures.push(format!("carve: {e:?}"));
            }
        }
        Kind::NodeMesh => {
            ledger.set(
                "sim.eventq.ns_per_op",
                eventq_ns_per_op(iterations(1_000_000)),
            );
            let (encode_ns, decode_ns) = wire_ns(iterations(1_000_000) as usize);
            ledger.set("node.wire.encode_ns", encode_ns);
            ledger.set("node.wire.decode_ns", decode_ns);

            let mut replica = Replica::new(&workload.population, &Workload::mesh_spec(), seed);
            let start = Instant::now();
            while replica.pending().is_some() {
                black_box(replica.apply_pending());
            }
            let lone_ns = start.elapsed().as_nanos() as u64;
            lone_replica_ns = Some(lone_ns);
            ledger.set("node.replica.actions", replica.actions() as f64);
            ledger.set(
                "node.replica.ns_per_action",
                lone_ns as f64 / replica.actions().max(1) as f64,
            );

            let half = layered_population(peers / 2);
            let small = mesh_op(&half, seed, &mut Trace::off());
            ledger.book("n/2 op", &small, false);
            smaller_ns = Some(small.wall_ns);

            let outcome = with_threads(None, || workload.op(0, &mut Trace::off()));
            ledger.book("LAGOVER_THREADS unset op", &outcome, true);
            unpinned_ns = Some(outcome.wall_ns);
        }
    }

    // The pairs: one untraced and one traced operation on the same
    // input, until the window ends.
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut samples = Vec::new();
    let mut last = None;
    while plain_s.len() < min_pairs || clock.elapsed().as_secs_f64() < seconds {
        // Which of the two goes first alternates, so that whatever
        // the first operation of a pair leaves behind favours neither.
        for traced in [plain_s.len() % 2 == 1, plain_s.len() % 2 == 0] {
            if traced {
                trace.next_sample();
                let outcome = workload.op(0, &mut trace);
                ledger.book("traced op", &outcome, true);
                traced_s.push(secs(outcome.wall_ns));
                samples.push((trace.sample(), outcome.wall_ns));
                last = Some(outcome);
            } else {
                let outcome = workload.op(0, &mut Trace::off());
                ledger.book("untraced op", &outcome, true);
                plain_s.push(secs(outcome.wall_ns));
            }
        }
    }
    let outcome = last.expect("at least one pair");
    let wall_s = median(&plain_s);
    ledger.set(
        "bench.trace_overhead_frac",
        median(&traced_s) / wall_s - 1.0,
    );
    let sample_ids: Vec<u32> = samples.iter().map(|&(id, _)| id).collect();

    // Rows read off the spans: the median over the traced samples.
    let rows: Vec<[f64; 4]> = samples
        .iter()
        .filter_map(|&(id, op_ns)| step_rows(&trace, id, peers, op_ns))
        .collect();
    if !rows.is_empty() {
        let column = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        ledger.set("core.engine.step_burst_s", column(0));
        ledger.set("core.engine.step_burst_frac", column(1));
        ledger.set("core.engine.step_max_ms", column(2));
        ledger.set("core.engine.step_steady_ns_per_peer_round", column(3));
        ledger.set(
            "core.engine.scan_s",
            span_total_s(&trace, &sample_ids, "core.engine.scan"),
        );
        for (row, counter) in [
            ("core.engine.interactions", "interactions"),
            ("core.engine.oracle_queries", "oracle_queries"),
            ("core.engine.displacements", "displacements"),
            ("core.engine.attaches", "attaches"),
            ("core.engine.detaches", "detaches"),
            ("core.engine.failure_detections", "failure_detections"),
            ("sim.rng.draws", "rng_draws"),
        ] {
            ledger.set(row, count(&outcome, counter));
        }
        // On every engine workload `sim_time` is the rounds executed.
        let peer_rounds = (peers as u64 * outcome.sim_time).max(1) as f64;
        ledger.set(
            "core.engine.idle_action_frac",
            1.0 - count(&outcome, "interactions") / peer_rounds,
        );
    }
    match kind {
        Kind::ConstructBurst | Kind::ConstructTail => {
            ledger.set(
                "core.engine.new_s",
                span_total_s(&trace, &sample_ids, "core.engine.new"),
            );
        }
        Kind::RecoverCrash => {
            ledger.set(
                "core.engine.restore_s",
                span_total_s(&trace, &sample_ids, "core.engine.restore"),
            );
        }
        Kind::StreamForest => {
            let clean_s = span_total_s(&trace, &sample_ids, "stream.scheduler.clean");
            ledger.set("stream.scheduler.clean_s", clean_s);
            ledger.set(
                "stream.scheduler.backpressure_s",
                span_total_s(&trace, &sample_ids, "stream.scheduler.backpressure"),
            );
            let delivered_a = count(&outcome, "a.deliveries");
            let delivered_b = count(&outcome, "b.deliveries");
            ledger.set(
                "stream.scheduler.ns_per_delivery",
                clean_s * 1e9 / delivered_a.max(1.0),
            );
            ledger.set("stream.scheduler.deliveries", delivered_a + delivered_b);
            ledger.set(
                "stream.scheduler.stalls",
                count(&outcome, "a.stalls") + count(&outcome, "b.stalls"),
            );
            ledger.set(
                "stream.scheduler.drops",
                count(&outcome, "a.drops") + count(&outcome, "b.drops"),
            );
            ledger.set(
                "stream.scheduler.delivered_frac_b",
                delivered_b / count(&outcome, "b.expected").max(1.0),
            );
            ledger.set(
                "stream.scheduler.rss_bytes_per_delivery",
                vm_hwm_kb() as f64 * 1024.0 / (delivered_a + delivered_b).max(1.0),
            );
        }
        Kind::NodeMesh => {}
    }

    // Ratios against the untraced median of this same process.
    if let Some(ns) = single_thread_ns {
        ledger.set("core.runner.threads1_wall_ratio", secs(ns) / wall_s);
    }
    if let Some(ns) = unpinned_ns {
        ledger.set("core.runner.unpinned_wall_ratio", secs(ns) / wall_s);
    }
    if let Some(built) = &observed {
        let journal = built.engine.obs().journal().expect("journal was enabled");
        let events = journal.len() as u64 + journal.dropped();
        let extra_s = secs(built.wall_ns) - wall_s;
        ledger.set("obs.pipeline_overhead_frac", extra_s / wall_s);
        ledger.set("obs.journal_events", events as f64);
        ledger.set("obs.journal_dropped", journal.dropped() as f64);
        ledger.set("obs.ns_per_event", extra_s * 1e9 / events.max(1) as f64);
    }
    match (kind, smaller_ns) {
        (Kind::ConstructBurst, Some(ns)) => {
            ledger.set("core.engine.scale_exp", scale_exp(wall_s, secs(ns), 3.0));
        }
        (Kind::NodeMesh, Some(ns)) => {
            ledger.set("node.mesh.scale_exp", scale_exp(wall_s, secs(ns), 2.0));
        }
        _ => {}
    }
    if let Some(ns) = lone_replica_ns {
        ledger.set(
            "node.mesh.overhead_ratio",
            wall_s / (peers as f64 * secs(ns)),
        );
    }

    trace
        .write(dir, kind.name())
        .map_err(|e| format!("writing the trace under {}: {e}", dir.display()))?;
    Ok(ledger.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_exponent_of_a_quadratic_is_two() {
        assert!((scale_exp(9.0, 1.0, 3.0) - 2.0).abs() < 1e-12);
        assert!((scale_exp(2.0, 1.0, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_digest_that_moves_between_operations_is_a_failure() {
        let outcome = |digest| Outcome {
            wall_ns: 1,
            work: 1,
            sim_time: 1,
            failure: None,
            digest,
            counts: Vec::new(),
        };
        let mut ledger = Ledger::new();
        ledger.book("first", &outcome(7), true);
        ledger.book("other input", &outcome(8), false);
        ledger.book("same", &outcome(7), true);
        assert!(ledger.report.failures.is_empty());
        ledger.book("moved", &outcome(9), true);
        assert_eq!(ledger.report.attempted, 4);
        assert_eq!(ledger.report.failures.len(), 1);
        assert!(ledger.report.failures[0].starts_with("moved"));
    }

    #[test]
    fn vm_hwm_is_read_from_proc() {
        assert!(vm_hwm_kb() > 0);
    }
}
