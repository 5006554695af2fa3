//! The chunk scheduler: stripes a sustained source stream across a
//! carved forest under per-node upload budgets, with per-edge
//! backpressure.
//!
//! Round model (all orders fixed, no randomness beyond the publish
//! schedule's own seeded stream):
//!
//! 1. **Send.** Senders act in a fixed order — the source first, then
//!    rooted peers in the carve order. Each sender spends at most its
//!    upload budget (chunks per round) across its out-edges,
//!    round-robin from a round-rotated start so no edge starves, and
//!    at most [`StreamConfig::window`] chunks per edge per round (the
//!    bounded in-flight window). A chunk waiting at the head of an
//!    edge queue longer than [`StreamConfig::ttl`] rounds is abandoned
//!    — [`Event::ChunkDropped`] — and its subtree below that edge
//!    permanently misses it. An edge left non-empty when the budget or
//!    window runs out stalls — one [`Event::ChunkStalled`] per edge
//!    per round, retried next round.
//! 2. **Receive.** Sends land at the end of the round (one hop per
//!    round, like the feed layer): the child records the chunk —
//!    [`Event::Delivery`] with the chunk id — and, if it is interior
//!    in the chunk's tree, enqueues it for its own children.
//! 3. **Publish.** Chunks published this round enter the source's
//!    edge queues of their tree (`chunk % k`), to be sent starting
//!    next round. A publication-free round still drains queues.
//!
//! With ample budgets every chunk therefore reaches a depth-`d` peer
//! with staleness exactly `d`; stalls and drops measure how far a
//! budget sits from that ideal.

use lagover_core::forest::{carve, CarveError, StreamBudgets};
use lagover_core::node::{PeerId, Population};
use lagover_core::overlay::Overlay;
use lagover_feed::PublishSchedule;
use lagover_jsonio::{object, Json, ToJson};
use lagover_obs::{Event, Journal, Profiler, Registry, Scrape, Work};
use lagover_sim::SimRng;

use std::collections::VecDeque;

/// Salt folded into the run seed for the publish-schedule RNG stream,
/// mirroring the feed layer's `^ 0xFEED_F00D` discipline so streaming
/// never perturbs construction draws.
const STREAM_SALT: u64 = 0x57A7_57A7;

/// Sentinel for "chunk not received".
const NOT_RECEIVED: u64 = u64::MAX;

/// Streaming parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Number of interior-disjoint trees to carve.
    pub k: usize,
    /// Chunks emitted per publication.
    pub rate: u64,
    /// When publications happen (the feed layer's schedules).
    pub schedule: PublishSchedule,
    /// Publication horizon, in rounds.
    pub rounds: u64,
    /// Extra drain rounds after publishing stops, so in-flight chunks
    /// can land.
    pub drain_rounds: u64,
    /// Per-edge in-flight bound: chunks one edge may carry per round.
    pub window: u32,
    /// Rounds a chunk may wait at the head of an edge queue before it
    /// is dropped.
    pub ttl: u64,
    /// Payload size per chunk, for byte accounting.
    pub chunk_bytes: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            k: 2,
            rate: 4,
            schedule: PublishSchedule::Periodic { interval: 1 },
            rounds: 48,
            drain_rounds: 48,
            window: 2,
            ttl: 12,
            chunk_bytes: 1024,
        }
    }
}

/// Order statistics over per-delivery staleness (rounds between a
/// chunk's publication and its receipt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessStats {
    /// Mean staleness.
    pub mean: f64,
    /// Median staleness.
    pub median: u64,
    /// 95th-percentile staleness.
    pub p95: u64,
    /// Worst staleness observed.
    pub max: u64,
}

impl StalenessStats {
    fn from_sorted(sorted: &[u64]) -> Self {
        if sorted.is_empty() {
            return StalenessStats {
                mean: 0.0,
                median: 0,
                p95: 0,
                max: 0,
            };
        }
        let sum: u64 = sorted.iter().sum();
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
        StalenessStats {
            mean: sum as f64 / sorted.len() as f64,
            median: at(0.5),
            p95: at(0.95),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

impl ToJson for StalenessStats {
    fn to_json(&self) -> Json {
        object(vec![
            ("mean", self.mean.to_json()),
            ("median", self.median.to_json()),
            ("p95", self.p95.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

/// Everything one streaming run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Population size.
    pub peers: usize,
    /// Rooted peers (the subscribers).
    pub rooted: usize,
    /// Trees carved.
    pub k: usize,
    /// Chunks per publication.
    pub rate: u64,
    /// Rounds simulated (horizon + drain).
    pub rounds_run: u64,
    /// Chunks the source published.
    pub chunks_published: u64,
    /// `chunks_published * rooted` — what full delivery means.
    pub expected_deliveries: u64,
    /// Chunk receipts that happened.
    pub deliveries: u64,
    /// `deliveries / expected_deliveries` (1.0 when nothing published).
    pub delivered_fraction: f64,
    /// `deliveries * chunk_bytes`.
    pub bytes_delivered: u64,
    /// Delivered bytes per simulated round — the throughput headline.
    pub bytes_per_round: f64,
    /// Stalled edge-rounds (a non-empty edge queue the budget or
    /// window could not serve).
    pub stalls: u64,
    /// Chunks abandoned after waiting [`StreamConfig::ttl`] rounds.
    pub drops: u64,
    /// `(chunk, subscriber)` pairs still missing when the run ended.
    pub undelivered: u64,
    /// Deepest seat across the carved trees.
    pub max_depth: u32,
    /// Per-tree source child capacity the budgets allowed.
    pub source_capacity: u64,
    /// Staleness order statistics over all deliveries.
    pub staleness: StalenessStats,
}

impl ToJson for StreamReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("peers", self.peers.to_json()),
            ("rooted", self.rooted.to_json()),
            ("k", self.k.to_json()),
            ("rate", self.rate.to_json()),
            ("rounds_run", self.rounds_run.to_json()),
            ("chunks_published", self.chunks_published.to_json()),
            ("expected_deliveries", self.expected_deliveries.to_json()),
            ("deliveries", self.deliveries.to_json()),
            ("delivered_fraction", self.delivered_fraction.to_json()),
            ("bytes_delivered", self.bytes_delivered.to_json()),
            ("bytes_per_round", self.bytes_per_round.to_json()),
            ("stalls", self.stalls.to_json()),
            ("drops", self.drops.to_json()),
            ("undelivered", self.undelivered.to_json()),
            ("max_depth", self.max_depth.to_json()),
            ("source_capacity", self.source_capacity.to_json()),
            ("staleness", self.staleness.to_json()),
        ])
    }
}

/// A streaming run with the obs pipeline attached.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamObserved {
    /// The measurements.
    pub report: StreamReport,
    /// Chunk-level event journal (deliveries, stalls, drops).
    pub journal: Journal,
    /// Periodic registry scrapes (`stream.*` work counters plus
    /// `events.*` folds).
    pub scrapes: Vec<Scrape>,
    /// Carve/stream cost profile.
    pub profile: Profiler,
}

/// One edge's pending chunks: `(chunk, round enqueued)` FIFO.
type EdgeQueue = VecDeque<(u64, u64)>;

/// The per-sender sending state: out-edges in child order, each with
/// its queue.
struct Outbox {
    edges: Vec<(PeerId, EdgeQueue)>,
}

/// Runs the scheduler without instrumentation.
pub fn stream(
    overlay: &Overlay,
    population: &Population,
    budgets: &StreamBudgets,
    config: &StreamConfig,
    seed: u64,
) -> Result<StreamReport, CarveError> {
    run(overlay, population, budgets, config, seed, None).map(|o| o.report)
}

/// Runs the scheduler with the journal/registry/profiler pipeline
/// attached. `journal_capacity` bounds the event ring;
/// `sample_interval` sets the scrape cadence in rounds.
pub fn stream_observed(
    overlay: &Overlay,
    population: &Population,
    budgets: &StreamBudgets,
    config: &StreamConfig,
    seed: u64,
    journal_capacity: usize,
    sample_interval: u64,
) -> Result<StreamObserved, CarveError> {
    let sink = ObsSink {
        journal: Journal::new(journal_capacity),
        registry: Registry::new(),
        scrapes: Vec::new(),
        sample_interval: sample_interval.max(1),
    };
    run(overlay, population, budgets, config, seed, Some(sink))
}

struct ObsSink {
    journal: Journal,
    registry: Registry,
    scrapes: Vec<Scrape>,
    sample_interval: u64,
}

impl ObsSink {
    fn record(&mut self, event: Event) {
        self.journal.push(event);
        self.registry.record_event(&event);
    }
}

fn run(
    overlay: &Overlay,
    population: &Population,
    budgets: &StreamBudgets,
    config: &StreamConfig,
    seed: u64,
    mut sink: Option<ObsSink>,
) -> Result<StreamObserved, CarveError> {
    let mut profile = Profiler::new();
    let plan = carve(overlay, population, budgets, config.k, config.rate)?;
    let n = population.len();
    let rooted = plan.rooted.len();
    profile.record(
        "carve",
        Work {
            actions: (rooted * config.k) as u64,
            attaches: (rooted * config.k) as u64,
            ..Work::default()
        },
    );

    // Publish plan: each publication round emits `rate` consecutive
    // chunk ids; chunk c rides tree c % k. The schedule owns the only
    // RNG stream streaming ever draws from.
    let mut rng = SimRng::seed_from(seed ^ STREAM_SALT);
    let publications = config.schedule.publication_rounds(config.rounds, &mut rng);
    let schedule_draws = rng.draws();
    let mut publish_round: Vec<u64> = Vec::new();
    for &p in &publications {
        for _ in 0..config.rate {
            publish_round.push(p);
        }
    }
    let chunks = publish_round.len();

    // received[peer][chunk] = round, NOT_RECEIVED until it lands.
    let mut received: Vec<Vec<u64>> = vec![vec![NOT_RECEIVED; chunks]; n];

    // One outbox per potential sender. Peer v's outbox covers its
    // children in the single tree it is interior in; the source's
    // outbox concatenates its per-tree child lists (tree-major), so
    // round-robin sending interleaves trees fairly.
    let mut outboxes: Vec<Outbox> = (0..n)
        .map(|i| {
            let p = PeerId::new(i as u32);
            let edges = match plan.group[i] {
                Some(tree) => plan.trees[tree].children[p.index()]
                    .iter()
                    .map(|&c| (c, EdgeQueue::new()))
                    .collect(),
                None => Vec::new(),
            };
            Outbox { edges }
        })
        .collect();
    let mut source_outbox: Vec<Outbox> = plan
        .trees
        .iter()
        .map(|t| Outbox {
            edges: t
                .source_children
                .iter()
                .map(|&c| (c, EdgeQueue::new()))
                .collect(),
        })
        .collect();

    let horizon = config.rounds + config.drain_rounds;
    let mut deliveries = 0u64;
    let mut stalls = 0u64;
    let mut drops = 0u64;
    let mut sends = 0u64;
    let mut staleness: Vec<u64> = Vec::new();
    let mut staleness_sum = 0u64;
    let mut next_publish = 0usize; // index into publications

    for r in 1..=horizon {
        // -- Send phase: source first, then peers in carve order. --
        let mut arrivals: Vec<(PeerId, u64)> = Vec::new();

        // The source spends one budget across all k trees; each tree's
        // outbox is drained round-robin with a rotated start.
        {
            let mut budget = budgets.source;
            let trees = source_outbox.len();
            for t in 0..trees {
                let tree = (t + r as usize) % trees;
                drain_outbox(
                    &mut source_outbox[tree],
                    &mut budget,
                    config,
                    r,
                    &mut arrivals,
                    &mut stalls,
                    &mut drops,
                    &mut sink,
                );
            }
        }
        for &p in &plan.rooted {
            let mut budget = budgets.peers[p.index()];
            drain_outbox(
                &mut outboxes[p.index()],
                &mut budget,
                config,
                r,
                &mut arrivals,
                &mut stalls,
                &mut drops,
                &mut sink,
            );
        }
        sends += arrivals.len() as u64;

        // -- Receive phase: land the sends, extend the relay chain. --
        for (p, chunk) in arrivals {
            let slot = &mut received[p.index()][chunk as usize];
            debug_assert_eq!(*slot, NOT_RECEIVED, "chunk delivered twice");
            *slot = r;
            deliveries += 1;
            let stale = r - publish_round[chunk as usize];
            staleness.push(stale);
            staleness_sum += stale;
            let tree = (chunk as usize) % config.k;
            if let Some(s) = sink.as_mut() {
                s.record(Event::Delivery {
                    round: r,
                    peer: p.get(),
                    depth: plan.trees[tree].depth[p.index()],
                    chunk: Some(chunk),
                });
            }
            if plan.group[p.index()] == Some(tree) {
                for (_, queue) in &mut outboxes[p.index()].edges {
                    queue.push_back((chunk, r));
                }
            }
        }

        // -- Publish phase: this round's chunks enter the source. --
        while next_publish < publications.len() && publications[next_publish] == r {
            let base = (next_publish as u64) * config.rate;
            for c in base..base + config.rate {
                let tree = (c as usize) % config.k;
                for (_, queue) in &mut source_outbox[tree].edges {
                    queue.push_back((c, r));
                }
            }
            next_publish += 1;
        }

        if let Some(s) = sink.as_mut() {
            if r % s.sample_interval == 0 {
                sample(
                    s,
                    r,
                    deliveries,
                    stalls,
                    drops,
                    staleness_sum,
                    chunks as u64,
                    config,
                );
            }
        }
    }

    profile.record(
        "stream",
        Work {
            actions: sends + stalls,
            rng_draws: schedule_draws,
            interactions: deliveries,
            messages_lost: drops,
            ..Work::default()
        },
    );

    let expected = (chunks as u64) * rooted as u64;
    let undelivered = expected - deliveries;
    staleness.sort_unstable();
    let report = StreamReport {
        peers: n,
        rooted,
        k: config.k,
        rate: config.rate,
        rounds_run: horizon,
        chunks_published: chunks as u64,
        expected_deliveries: expected,
        deliveries,
        delivered_fraction: if expected == 0 {
            1.0
        } else {
            deliveries as f64 / expected as f64
        },
        bytes_delivered: deliveries * config.chunk_bytes,
        bytes_per_round: if horizon == 0 {
            0.0
        } else {
            (deliveries * config.chunk_bytes) as f64 / horizon as f64
        },
        stalls,
        drops,
        undelivered,
        max_depth: plan.max_depth(),
        source_capacity: plan.source_capacity,
        staleness: StalenessStats::from_sorted(&staleness),
    };

    let (journal, scrapes) = match sink {
        Some(mut s) => {
            // Final scrape so the committed work layer carries the
            // end-of-run stream counters even off the sample cadence.
            sample(
                &mut s,
                horizon,
                deliveries,
                stalls,
                drops,
                staleness_sum,
                chunks as u64,
                config,
            );
            (s.journal, s.scrapes)
        }
        None => (Journal::new(1), Vec::new()),
    };
    Ok(StreamObserved {
        report,
        journal,
        scrapes,
        profile,
    })
}

#[allow(clippy::too_many_arguments)]
fn sample(
    s: &mut ObsSink,
    round: u64,
    deliveries: u64,
    stalls: u64,
    drops: u64,
    staleness_sum: u64,
    chunks: u64,
    config: &StreamConfig,
) {
    s.registry.set_counter("stream.chunks_published", chunks);
    s.registry.set_counter("stream.deliveries", deliveries);
    s.registry
        .set_counter("stream.bytes_delivered", deliveries * config.chunk_bytes);
    s.registry.set_counter("stream.stalls", stalls);
    s.registry.set_counter("stream.drops", drops);
    s.registry
        .set_counter("stream.staleness_rounds", staleness_sum);
    s.scrapes.push(s.registry.sample(round));
}

/// Spends up to `budget` sends from one outbox: round-rotated
/// round-robin across edges, at most `window` chunks per edge, TTL
/// expiry at queue heads, one stall event per edge left pending.
#[allow(clippy::too_many_arguments)]
fn drain_outbox(
    outbox: &mut Outbox,
    budget: &mut u64,
    config: &StreamConfig,
    r: u64,
    arrivals: &mut Vec<(PeerId, u64)>,
    stalls: &mut u64,
    drops: &mut u64,
    sink: &mut Option<ObsSink>,
) {
    let edges = outbox.edges.len();
    if edges == 0 {
        return;
    }
    // Expire overdue heads first: drops consume no budget — the edge
    // gave up on those chunks.
    for (child, queue) in &mut outbox.edges {
        while let Some(&(chunk, enqueued)) = queue.front() {
            if r.saturating_sub(enqueued) > config.ttl {
                queue.pop_front();
                *drops += 1;
                if let Some(s) = sink.as_mut() {
                    s.record(Event::ChunkDropped {
                        round: r,
                        peer: child.get(),
                        chunk,
                    });
                }
            } else {
                break;
            }
        }
    }
    let start = (r as usize) % edges;
    let mut sent_per_edge = vec![0u32; edges];
    // Passes over the edges until nothing can move: budget exhausted,
    // every window full, or every queue empty.
    loop {
        let mut moved = false;
        for i in 0..edges {
            let at = (start + i) % edges;
            if *budget == 0 {
                break;
            }
            if sent_per_edge[at] >= config.window {
                continue;
            }
            let (child, queue) = &mut outbox.edges[at];
            if let Some((chunk, _)) = queue.pop_front() {
                arrivals.push((*child, chunk));
                *budget -= 1;
                sent_per_edge[at] += 1;
                moved = true;
            }
        }
        if !moved || *budget == 0 {
            break;
        }
    }
    for (child, queue) in &outbox.edges {
        if !queue.is_empty() {
            *stalls += 1;
            if let Some(s) = sink.as_mut() {
                let (chunk, _) = queue.front().expect("non-empty");
                s.record(Event::ChunkStalled {
                    round: r,
                    peer: child.get(),
                    chunk: *chunk,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::{Algorithm, ConstructionConfig, Engine, OracleKind};
    use lagover_workload::{TopologicalConstraint, WorkloadSpec};

    fn built(n: usize, seed: u64) -> (Population, Overlay) {
        let population = WorkloadSpec::new(TopologicalConstraint::Rand, n)
            .generate(seed)
            .expect("Rand workloads are repairable");
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(10_000);
        let mut engine = Engine::new(&population, &config, seed);
        engine.run_to_convergence().expect("feasible");
        let overlay = engine.overlay().clone();
        (population, overlay)
    }

    fn ample(n: usize, config: &StreamConfig) -> StreamBudgets {
        StreamBudgets::uniform(n, config.rate * 4, config.rate * 8)
    }

    #[test]
    fn ample_budgets_deliver_every_chunk_exactly_once() {
        let (population, overlay) = built(40, 5);
        let config = StreamConfig::default();
        let budgets = ample(40, &config);
        let report = stream(&overlay, &population, &budgets, &config, 5).expect("feasible");
        assert_eq!(report.chunks_published, config.rounds * config.rate);
        assert_eq!(report.deliveries, report.expected_deliveries);
        assert_eq!(report.undelivered, 0);
        assert_eq!(report.drops, 0);
        assert_eq!(report.delivered_fraction, 1.0);
        assert!(report.bytes_per_round > 0.0);
        // One hop per round: staleness is bounded by the forest depth
        // when nothing stalls for long.
        assert!(report.staleness.max >= u64::from(report.max_depth));
    }

    #[test]
    fn staleness_equals_depth_when_nothing_stalls() {
        let (population, overlay) = built(30, 9);
        let config = StreamConfig {
            window: 64,
            ..StreamConfig::default()
        };
        let budgets = StreamBudgets::uniform(30, 1024, 4096);
        let observed = stream_observed(&overlay, &population, &budgets, &config, 9, 1 << 14, 8)
            .expect("feasible");
        assert_eq!(
            observed.report.stalls, 0,
            "budgets are effectively infinite"
        );
        for event in observed.journal.iter() {
            if let Event::Delivery {
                round,
                peer: _,
                depth,
                chunk: Some(c),
            } = *event
            {
                let published = (c / config.rate) + 1; // periodic(1)
                assert_eq!(round - published, u64::from(depth));
            }
        }
    }

    #[test]
    fn tight_budgets_stall_and_tighter_ones_drop() {
        let (population, overlay) = built(40, 7);
        let config = StreamConfig {
            k: 2,
            rate: 4,
            window: 1,
            ..StreamConfig::default()
        };
        // Caps of 2 children per interior peer (just feasible for 40
        // rooted peers) with a 1-chunk window: every interior edge
        // needs 2 chunks per round but may carry 1, so backlogs grow
        // without bound.
        let tight = StreamBudgets::uniform(40, 4, 8);
        let report = stream(&overlay, &population, &tight, &config, 7).expect("feasible");
        assert!(report.stalls > 0, "backpressure must register");
        assert!(
            report.deliveries < report.expected_deliveries,
            "a chain of {} peers cannot drain in {} rounds",
            report.rooted,
            report.rounds_run
        );
        assert!(report.drops > 0, "ttl expiries under sustained pressure");
    }

    #[test]
    fn infeasible_budgets_surface_the_carve_error() {
        let (population, overlay) = built(30, 3);
        let config = StreamConfig {
            k: 1,
            rate: 4,
            ..StreamConfig::default()
        };
        let starved = StreamBudgets::uniform(30, 2, 8);
        match stream(&overlay, &population, &starved, &config, 3) {
            Err(CarveError::Infeasible { required, .. }) => assert_eq!(required, 30),
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn runs_are_deterministic_and_journal_matches_report() {
        let (population, overlay) = built(36, 11);
        let config = StreamConfig {
            k: 4,
            window: 1,
            ..StreamConfig::default()
        };
        let budgets = StreamBudgets::uniform(36, 6, 16);
        let a = stream_observed(&overlay, &population, &budgets, &config, 11, 1 << 14, 10)
            .expect("feasible");
        let b = stream_observed(&overlay, &population, &budgets, &config, 11, 1 << 14, 10)
            .expect("feasible");
        assert_eq!(a, b, "observed streaming must be deterministic");

        let counted: u64 = a
            .journal
            .counts_by_kind()
            .iter()
            .find(|(k, _)| *k == lagover_obs::EventKind::Delivery)
            .map(|&(_, c)| c)
            .expect("delivery kind exists");
        assert_eq!(
            counted, a.report.deliveries,
            "journal fold equals the report (capacity covers the run)"
        );
        let last = a.scrapes.last().expect("final scrape");
        assert_eq!(last.counter("stream.deliveries"), a.report.deliveries);
        assert_eq!(
            last.counter("stream.bytes_delivered"),
            a.report.bytes_delivered
        );
        assert_eq!(last.counter("stream.stalls"), a.report.stalls);
        assert_eq!(last.counter("stream.drops"), a.report.drops);
        let mean = last.counter("stream.staleness_rounds") as f64 / a.report.deliveries as f64;
        assert_eq!(mean, a.report.staleness.mean, "counter carries the mean");
        assert!(a.profile.phase("carve").is_some());
        assert!(a.profile.phase("stream").is_some());
    }

    #[test]
    fn poisson_schedule_draws_only_its_own_stream() {
        let (population, overlay) = built(24, 13);
        let config = StreamConfig {
            schedule: PublishSchedule::Poisson { mean_interval: 2.0 },
            ..StreamConfig::default()
        };
        let budgets = ample(24, &config);
        let a = stream(&overlay, &population, &budgets, &config, 13).expect("feasible");
        let b = stream(&overlay, &population, &budgets, &config, 13).expect("feasible");
        assert_eq!(a, b);
        assert!(a.chunks_published > 0);
    }

    #[test]
    fn report_json_is_byte_stable() {
        let (population, overlay) = built(24, 17);
        let config = StreamConfig::default();
        let budgets = ample(24, &config);
        let report = stream(&overlay, &population, &budgets, &config, 17).expect("feasible");
        let a = lagover_jsonio::to_string_pretty(&report);
        let again = stream(&overlay, &population, &budgets, &config, 17).expect("feasible");
        assert_eq!(a, lagover_jsonio::to_string_pretty(&again));
        assert!(a.contains("\"bytes_per_round\""));
    }
}
