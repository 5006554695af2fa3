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
//!    edge longer than [`StreamConfig::ttl`] rounds is abandoned —
//!    [`Event::ChunkDropped`] — and its subtree below that edge
//!    permanently misses it. An edge left non-empty when the budget or
//!    window runs out stalls — one [`Event::ChunkStalled`] per edge
//!    per round, retried next round.
//! 2. **Receive.** Sends land at the end of the round (one hop per
//!    round, like the feed layer): the child records the chunk —
//!    [`Event::Delivery`] with the chunk id — and, if it is interior
//!    in the chunk's tree, relays it to its own children.
//! 3. **Publish.** Chunks published this round enter the source's
//!    outbox of their tree (`chunk % k`), to be sent starting next
//!    round. A publication-free round still drains the backlog.
//!
//! With ample budgets every chunk therefore reaches a depth-`d` peer
//! with staleness exactly `d`; stalls and drops measure how far a
//! budget sits from that ideal.
//!
//! A run holds the forest's state, not the stream's history
//! (DESIGN.md §17.2): O(n·k + forest edges + backlog), whatever the
//! number of chunks.
//!
//! * **Relay logs.** Every out-edge of one sender carries the same
//!   chunk sequence, so each sender — the source once per tree, or an
//!   interior peer — keeps one `(chunk, round enqueued)` log and each
//!   out-edge is a cursor into it. The log forgets the prefix every
//!   cursor has passed.
//! * **Exactly-once.** Edges are FIFO and logs fill in chunk order, so
//!   the chunks of one tree reach a peer in strictly increasing order:
//!   one `n·k` array of the next chunk each (peer, tree) may receive
//!   catches any duplicate, in every build.
//! * **Staleness** is an exact histogram, grown to the largest
//!   staleness seen.

use lagover_core::forest::{carve, CarveError, ForestPlan, StreamBudgets};
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
    /// Rounds a chunk may wait at the head of an edge before it is
    /// dropped.
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
    const NONE: StalenessStats = StalenessStats {
        mean: 0.0,
        median: 0,
        p95: 0,
        max: 0,
    };

    /// The definition [`Histogram::stats`] is tested against.
    #[cfg(test)]
    fn from_sorted(sorted: &[u64]) -> Self {
        if sorted.is_empty() {
            return StalenessStats::NONE;
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

/// Exact staleness histogram: `counts[s]` deliveries landed `s` rounds
/// after their chunk's publication. Grows to the largest staleness
/// seen.
#[derive(Debug, Default)]
struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    fn record(&mut self, stale: u64) {
        let s = stale as usize;
        if s >= self.counts.len() {
            self.counts.resize(s + 1, 0);
        }
        self.counts[s] += 1;
    }

    /// The statistics `from_sorted` takes of the sorted samples: rank
    /// `⌊(len − 1)·q⌋` is the first bucket whose running count passes
    /// it.
    fn stats(&self) -> StalenessStats {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return StalenessStats::NONE;
        }
        let sum: u64 = self.counts.iter().zip(0u64..).map(|(&c, s)| c * s).sum();
        let at = |q: f64| {
            let rank = ((total - 1) as f64 * q) as u64;
            let mut seen = 0;
            self.counts
                .iter()
                .position(|&c| {
                    seen += c;
                    seen > rank
                })
                .unwrap_or(0) as u64
        };
        StalenessStats {
            mean: sum as f64 / total as f64,
            median: at(0.5),
            p95: at(0.95),
            max: self.counts.len() as u64 - 1,
        }
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
    /// Stalled edge-rounds (a non-empty edge the budget or window
    /// could not serve).
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
    let sink = ObsSink::new(journal_capacity, sample_interval);
    run(overlay, population, budgets, config, seed, Some(sink))
}

struct ObsSink {
    journal: Journal,
    registry: Registry,
    scrapes: Vec<Scrape>,
    sample_interval: u64,
}

impl ObsSink {
    fn new(journal_capacity: usize, sample_interval: u64) -> Self {
        ObsSink {
            journal: Journal::new(journal_capacity),
            registry: Registry::new(),
            scrapes: Vec::new(),
            sample_interval: sample_interval.max(1),
        }
    }

    fn record(&mut self, event: Event) {
        self.journal.push(event);
        self.registry.record_event(&event);
    }
}

/// Running totals of one streaming run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counters {
    deliveries: u64,
    stalls: u64,
    drops: u64,
    sends: u64,
    /// Sum of per-delivery staleness, so the mean is pinned exactly.
    staleness_sum: u64,
}

/// Per-round buffers, reused across rounds and senders.
#[derive(Default)]
struct Scratch {
    /// This round's sends, `(child, chunk)`, in send order.
    arrivals: Vec<(PeerId, u64)>,
    /// Chunks each edge of the current sender carried this round.
    sent_per_edge: Vec<u32>,
}

/// One sender's relay log: the `(chunk, round enqueued)` sequence all
/// of its out-edges carry, and one cursor per out-edge.
struct RelayLog {
    /// Entries from absolute position `base` on; every cursor has
    /// passed the ones before it.
    entries: VecDeque<(u64, u64)>,
    base: usize,
    /// Out-edges in child order: the child, and the absolute position
    /// of the next entry the edge carries.
    edges: Vec<(PeerId, usize)>,
}

impl RelayLog {
    fn new(children: &[PeerId]) -> Self {
        RelayLog {
            entries: VecDeque::new(),
            base: 0,
            edges: children.iter().map(|&c| (c, 0)).collect(),
        }
    }

    /// Queues `chunk` on every out-edge; a log without edges keeps
    /// nothing.
    fn push(&mut self, chunk: u64, round: u64) {
        if !self.edges.is_empty() {
            self.entries.push_back((chunk, round));
        }
    }

    /// Spends up to `budget` sends: TTL expiry at edge heads,
    /// round-rotated round-robin across edges with at most `window`
    /// chunks per edge, one stall per edge left pending. Then forgets
    /// the prefix every cursor has passed.
    fn drain(
        &mut self,
        budget: &mut u64,
        config: &StreamConfig,
        r: u64,
        scratch: &mut Scratch,
        counters: &mut Counters,
        sink: &mut Option<ObsSink>,
    ) {
        let edges = self.edges.len();
        if edges == 0 {
            return;
        }
        let end = self.base + self.entries.len();
        // Expire overdue heads first: drops consume no budget — the edge
        // gave up on those chunks.
        for (child, cursor) in &mut self.edges {
            while *cursor < end {
                let (chunk, enqueued) = self.entries[*cursor - self.base];
                if r.saturating_sub(enqueued) <= config.ttl {
                    break;
                }
                *cursor += 1;
                counters.drops += 1;
                if let Some(s) = sink.as_mut() {
                    s.record(Event::ChunkDropped {
                        round: r,
                        peer: child.get(),
                        chunk,
                    });
                }
            }
        }
        let start = (r as usize) % edges;
        let sent = &mut scratch.sent_per_edge;
        sent.clear();
        sent.resize(edges, 0);
        // Passes over the edges until nothing can move: budget exhausted,
        // every window full, or every edge caught up.
        loop {
            let mut moved = false;
            for i in 0..edges {
                let at = (start + i) % edges;
                if *budget == 0 {
                    break;
                }
                let (child, cursor) = &mut self.edges[at];
                if sent[at] >= config.window || *cursor == end {
                    continue;
                }
                scratch
                    .arrivals
                    .push((*child, self.entries[*cursor - self.base].0));
                *cursor += 1;
                *budget -= 1;
                sent[at] += 1;
                moved = true;
            }
            if !moved || *budget == 0 {
                break;
            }
        }
        let mut passed = end;
        for &(child, cursor) in &self.edges {
            passed = passed.min(cursor);
            if cursor < end {
                counters.stalls += 1;
                if let Some(s) = sink.as_mut() {
                    s.record(Event::ChunkStalled {
                        round: r,
                        peer: child.get(),
                        chunk: self.entries[cursor - self.base].0,
                    });
                }
            }
        }
        self.entries.drain(..passed - self.base);
        self.base = passed;
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
    let chunks = publications.len() as u64 * config.rate;

    let (counters, staleness) = relay(&plan, budgets, config, &publications, &mut sink);
    let Counters {
        deliveries,
        stalls,
        drops,
        sends,
        ..
    } = counters;
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

    let horizon = config.rounds + config.drain_rounds;
    let expected = chunks * rooted as u64;
    let undelivered = expected - deliveries;
    let report = StreamReport {
        peers: population.len(),
        rooted,
        k: config.k,
        rate: config.rate,
        rounds_run: horizon,
        chunks_published: chunks,
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
        staleness,
    };

    let (journal, scrapes) = match sink {
        Some(mut s) => {
            // Final scrape so the committed work layer carries the
            // end-of-run stream counters even off the sample cadence.
            sample(&mut s, horizon, &counters, chunks, config);
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

/// Drives the carved forest for `rounds + drain_rounds` rounds, the
/// source publishing `rate` chunks at each of `publications`.
fn relay(
    plan: &ForestPlan,
    budgets: &StreamBudgets,
    config: &StreamConfig,
    publications: &[u64],
    sink: &mut Option<ObsSink>,
) -> (Counters, StalenessStats) {
    let n = plan.group.len();
    let k = config.k;
    // Peer v's log feeds its children in the one tree it is interior
    // in. The source keeps one log per tree, drained tree by tree from
    // a round-rotated start so its budget interleaves trees fairly.
    let mut logs: Vec<RelayLog> = (0..n)
        .map(|i| match plan.group[i] {
            Some(tree) => RelayLog::new(&plan.trees[tree].children[i]),
            None => RelayLog::new(&[]),
        })
        .collect();
    let mut source: Vec<RelayLog> = plan
        .trees
        .iter()
        .map(|t| RelayLog::new(&t.source_children))
        .collect();
    let senders: Vec<PeerId> = plan
        .rooted
        .iter()
        .copied()
        .filter(|p| !logs[p.index()].edges.is_empty())
        .collect();
    // next_chunk[v·k + t]: the least chunk of tree t peer v may still
    // receive.
    let mut next_chunk = vec![0u64; n * k];
    let mut staleness = Histogram::default();
    let mut counters = Counters::default();
    let mut scratch = Scratch::default();
    let chunks = publications.len() as u64 * config.rate;
    let mut next_publish = 0usize; // index into publications

    for r in 1..=config.rounds + config.drain_rounds {
        // -- Send phase: source first, then peers in carve order. --
        let mut budget = budgets.source;
        let trees = source.len();
        for t in 0..trees {
            let tree = (t + r as usize) % trees;
            source[tree].drain(&mut budget, config, r, &mut scratch, &mut counters, sink);
        }
        for &p in &senders {
            let mut budget = budgets.peers[p.index()];
            logs[p.index()].drain(&mut budget, config, r, &mut scratch, &mut counters, sink);
        }
        counters.sends += scratch.arrivals.len() as u64;

        // -- Receive phase: land the sends, extend the relay chain. --
        for &(p, chunk) in &scratch.arrivals {
            let tree = (chunk as usize) % k;
            let next = &mut next_chunk[p.index() * k + tree];
            assert!(
                chunk >= *next,
                "chunk {chunk} reached peer {} twice or out of order",
                p.get()
            );
            *next = chunk + 1;
            counters.deliveries += 1;
            let stale = r - publications[(chunk / config.rate) as usize];
            staleness.record(stale);
            counters.staleness_sum += stale;
            if let Some(s) = sink.as_mut() {
                s.record(Event::Delivery {
                    round: r,
                    peer: p.get(),
                    depth: plan.trees[tree].depth[p.index()],
                    chunk: Some(chunk),
                });
            }
            if plan.group[p.index()] == Some(tree) {
                logs[p.index()].push(chunk, r);
            }
        }
        scratch.arrivals.clear();

        // -- Publish phase: this round's chunks enter the source. --
        while next_publish < publications.len() && publications[next_publish] == r {
            let base = (next_publish as u64) * config.rate;
            for c in base..base + config.rate {
                source[(c as usize) % k].push(c, r);
            }
            next_publish += 1;
        }

        if let Some(s) = sink.as_mut() {
            if r % s.sample_interval == 0 {
                sample(s, r, &counters, chunks, config);
            }
        }
    }
    (counters, staleness.stats())
}

fn sample(s: &mut ObsSink, round: u64, counters: &Counters, chunks: u64, config: &StreamConfig) {
    s.registry.set_counter("stream.chunks_published", chunks);
    s.registry
        .set_counter("stream.deliveries", counters.deliveries);
    s.registry.set_counter(
        "stream.bytes_delivered",
        counters.deliveries * config.chunk_bytes,
    );
    s.registry.set_counter("stream.stalls", counters.stalls);
    s.registry.set_counter("stream.drops", counters.drops);
    s.registry
        .set_counter("stream.staleness_rounds", counters.staleness_sum);
    s.scrapes.push(s.registry.sample(round));
}

#[cfg(test)]
mod reference {
    //! The scheduler before relay logs, kept as the reference
    //! [`relay`](super::relay) must match event for event: one queue
    //! per edge holding its own copy of every relayed chunk, an
    //! n × chunks receipt matrix, and every staleness sample kept and
    //! sorted.

    use super::*;

    /// One edge's pending chunks: `(chunk, round enqueued)` FIFO.
    type EdgeQueue = VecDeque<(u64, u64)>;

    /// One sender's out-edges in child order, each with its queue.
    type Outbox = Vec<(PeerId, EdgeQueue)>;

    pub(super) fn relay(
        plan: &ForestPlan,
        budgets: &StreamBudgets,
        config: &StreamConfig,
        publications: &[u64],
        sink: &mut Option<ObsSink>,
    ) -> (Counters, StalenessStats) {
        let n = plan.group.len();
        let publish_round: Vec<u64> = publications
            .iter()
            .flat_map(|&p| (0..config.rate).map(move |_| p))
            .collect();
        let chunks = publish_round.len();
        let mut received = vec![vec![false; chunks]; n];
        let outbox = |children: &[PeerId]| -> Outbox {
            children.iter().map(|&c| (c, EdgeQueue::new())).collect()
        };
        let mut outboxes: Vec<Outbox> = (0..n)
            .map(|i| match plan.group[i] {
                Some(tree) => outbox(&plan.trees[tree].children[i]),
                None => Vec::new(),
            })
            .collect();
        let mut source_outbox: Vec<Outbox> = plan
            .trees
            .iter()
            .map(|t| outbox(&t.source_children))
            .collect();
        let mut counters = Counters::default();
        let mut staleness: Vec<u64> = Vec::new();
        let mut next_publish = 0usize;

        for r in 1..=config.rounds + config.drain_rounds {
            let mut arrivals: Vec<(PeerId, u64)> = Vec::new();
            let mut budget = budgets.source;
            let trees = source_outbox.len();
            for t in 0..trees {
                let tree = (t + r as usize) % trees;
                let outbox = &mut source_outbox[tree];
                drain_outbox(
                    outbox,
                    &mut budget,
                    config,
                    r,
                    &mut arrivals,
                    &mut counters,
                    sink,
                );
            }
            for &p in &plan.rooted {
                let mut budget = budgets.peers[p.index()];
                let outbox = &mut outboxes[p.index()];
                drain_outbox(
                    outbox,
                    &mut budget,
                    config,
                    r,
                    &mut arrivals,
                    &mut counters,
                    sink,
                );
            }
            counters.sends += arrivals.len() as u64;

            for (p, chunk) in arrivals {
                let slot = &mut received[p.index()][chunk as usize];
                assert!(!*slot, "chunk delivered twice");
                *slot = true;
                counters.deliveries += 1;
                let stale = r - publish_round[chunk as usize];
                staleness.push(stale);
                counters.staleness_sum += stale;
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
                    for (_, queue) in &mut outboxes[p.index()] {
                        queue.push_back((chunk, r));
                    }
                }
            }

            while next_publish < publications.len() && publications[next_publish] == r {
                let base = (next_publish as u64) * config.rate;
                for c in base..base + config.rate {
                    for (_, queue) in &mut source_outbox[(c as usize) % config.k] {
                        queue.push_back((c, r));
                    }
                }
                next_publish += 1;
            }

            if let Some(s) = sink.as_mut() {
                if r % s.sample_interval == 0 {
                    sample(s, r, &counters, chunks as u64, config);
                }
            }
        }
        staleness.sort_unstable();
        (counters, StalenessStats::from_sorted(&staleness))
    }

    fn drain_outbox(
        outbox: &mut Outbox,
        budget: &mut u64,
        config: &StreamConfig,
        r: u64,
        arrivals: &mut Vec<(PeerId, u64)>,
        counters: &mut Counters,
        sink: &mut Option<ObsSink>,
    ) {
        let edges = outbox.len();
        if edges == 0 {
            return;
        }
        for (child, queue) in outbox.iter_mut() {
            while let Some(&(chunk, enqueued)) = queue.front() {
                if r.saturating_sub(enqueued) <= config.ttl {
                    break;
                }
                queue.pop_front();
                counters.drops += 1;
                if let Some(s) = sink.as_mut() {
                    s.record(Event::ChunkDropped {
                        round: r,
                        peer: child.get(),
                        chunk,
                    });
                }
            }
        }
        let start = (r as usize) % edges;
        let mut sent_per_edge = vec![0u32; edges];
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
                let (child, queue) = &mut outbox[at];
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
        for (child, queue) in outbox.iter() {
            if let Some(&(chunk, _)) = queue.front() {
                counters.stalls += 1;
                if let Some(s) = sink.as_mut() {
                    s.record(Event::ChunkStalled {
                        round: r,
                        peer: child.get(),
                        chunk,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::{Algorithm, ConstructionConfig, Engine, OracleKind};
    use lagover_workload::{TopologicalConstraint, WorkloadSpec};
    use proptest::prelude::*;

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

    fn histogram_of(samples: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &s in samples {
            h.record(s);
        }
        h
    }

    fn sorted_stats(samples: &[u64]) -> StalenessStats {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        StalenessStats::from_sorted(&sorted)
    }

    #[test]
    fn histogram_equals_sorted_at_the_edges() {
        for samples in [
            &[][..],
            &[7],
            &[3; 17],
            // The median and p95 ranks land in the last bucket.
            &[0, 9, 9],
            &[
                40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 40,
            ],
        ] {
            assert_eq!(
                histogram_of(samples).stats(),
                sorted_stats(samples),
                "{samples:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn histogram_equals_sorted(samples in prop::collection::vec(0u64..48, 0..300)) {
            prop_assert_eq!(histogram_of(&samples).stats(), sorted_stats(&samples));
        }

        #[test]
        fn relay_logs_match_the_per_edge_queue_reference(
            n in 12usize..48,
            seed in 0u64..300,
            k in 1usize..5,
            window in 1u32..4,
            ttl in 0u64..10,
            per_peer in 1u64..12,
            poisson in any::<bool>(),
        ) {
            let (population, overlay) = built(n, seed);
            let config = StreamConfig {
                k,
                schedule: if poisson {
                    PublishSchedule::Poisson { mean_interval: 1.5 }
                } else {
                    PublishSchedule::Periodic { interval: 1 }
                },
                rounds: 24,
                drain_rounds: 16,
                window,
                ttl,
                ..StreamConfig::default()
            };
            let budgets = StreamBudgets::uniform(n, per_peer, 4 * per_peer + 4);
            let plan = carve(&overlay, &population, &budgets, k, config.rate);
            prop_assume!(plan.is_ok());
            let plan = plan.expect("checked");
            let mut rng = SimRng::seed_from(seed);
            let publications = config.schedule.publication_rounds(config.rounds, &mut rng);
            let mut ours = Some(ObsSink::new(1 << 16, 5));
            let mut theirs = Some(ObsSink::new(1 << 16, 5));
            prop_assert_eq!(
                relay(&plan, &budgets, &config, &publications, &mut ours),
                reference::relay(&plan, &budgets, &config, &publications, &mut theirs)
            );
            let (ours, theirs) = (ours.expect("attached"), theirs.expect("attached"));
            prop_assert_eq!(ours.journal, theirs.journal);
            prop_assert_eq!(ours.scrapes, theirs.scrapes);
        }
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
