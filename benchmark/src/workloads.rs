//! The five workloads: their inputs, their set-up, one timed
//! operation each, and the checks that decide whether the operation's
//! output is correct.
//!
//! Every operation goes through the repo's public verb-level entry
//! points only (`Engine::*`, `stream`, `run_mesh`) — never through
//! `runner::construct*` / `run_recovery*`, which ROADMAP item 2 means
//! to collapse. The driver loops below are therefore the benchmark's
//! own, and they are where the traced run puts its spans.

use std::hint::black_box;
use std::time::Instant;

use lagover_core::{
    Algorithm, Constraints, ConstructionConfig, Engine, EngineCounters, EngineSnapshot, OracleKind,
    Overlay, PeerId, Population, StreamBudgets,
};
use lagover_feed::PublishSchedule;
use lagover_node::{run_mesh, Scenario, ScenarioSpec};
use lagover_sim::faults::crash_cohort;
use lagover_sim::{FaultPlan, SimRng};
use lagover_stream::{stream, StreamConfig, StreamReport};
use lagover_workload::{TopologicalConstraint, WorkloadSpec};

use crate::trace::Trace;

/// Fanout every layered peer offers.
const LAYERED_FANOUT: u32 = 8;
/// Latency slack of a layered peer over its layer's depth.
const LAYERED_SLACK: u32 = 4;

/// Round cap of the layered constructions (they converge near 70).
const LAYERED_ROUND_CAP: u64 = 400;
/// Round cap of the paper's Rand workload (converges in the thousands).
const TAIL_ROUND_CAP: u64 = 20_000;
/// Share of interior peers `recover_crash` crashes.
const CRASH_FRACTION: f64 = 0.2;
/// Rounds `recover_crash` may take to heal.
const RECOVERY_HORIZON: u64 = 400;
/// Salt of the crash-cohort stream, as in `runner::run_recovery`.
const COHORT_SALT: u64 = 0xFA17_C0DE;
/// Journal ring capacity of an obs-on construction.
pub const OBS_JOURNAL_CAPACITY: usize = 65_536;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hybrid × Random-Delay on the layered population: the
    /// displacement burst near the root.
    ConstructBurst,
    /// The paper's Rand workload: the long idle convergence tail.
    ConstructTail,
    /// Crash a fifth of the interior of a converged overlay and heal.
    RecoverCrash,
    /// Stream over a converged overlay, clean and under backpressure.
    StreamForest,
    /// Full lockstep replicas over the in-process mesh.
    NodeMesh,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::ConstructBurst,
        Kind::ConstructTail,
        Kind::RecoverCrash,
        Kind::StreamForest,
        Kind::NodeMesh,
    ];

    /// The workload's name in every report.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ConstructBurst => "construct_burst",
            Kind::ConstructTail => "construct_tail",
            Kind::RecoverCrash => "recover_crash",
            Kind::StreamForest => "stream_forest",
            Kind::NodeMesh => "node_mesh",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Operations per pass. `recover_crash` is an order of magnitude
    /// shorter than the seconds-long operations and `node_mesh` (with
    /// the thread count pinned) shorter again, so they run several to
    /// a pass.
    pub fn ops_per_pass(self) -> usize {
        match self {
            Kind::RecoverCrash => 4,
            Kind::NodeMesh => 8,
            _ => 1,
        }
    }

    /// Peers at full size (`--smoke` divides by ten).
    pub fn full_peers(self) -> usize {
        match self {
            Kind::ConstructBurst => 30_000,
            Kind::ConstructTail => 10_000,
            Kind::RecoverCrash => 20_000,
            Kind::StreamForest => 10_000,
            Kind::NodeMesh => 96,
        }
    }

    /// What `work_per_s` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Kind::ConstructBurst => "interactions",
            Kind::ConstructTail | Kind::RecoverCrash => "peer-rounds",
            Kind::StreamForest => "chunk deliveries",
            Kind::NodeMesh => "replica action applications",
        }
    }

    /// Unit of `sim_time` on this workload.
    pub fn sim_unit(self) -> &'static str {
        match self {
            Kind::NodeMesh => "actions",
            _ => "rounds",
        }
    }
}

/// Capacity-rich deterministic population: every peer offers fanout 8
/// and tolerates its layer's depth plus four levels of slack, and each
/// layer is filled to a quarter of the slots the layer above offers
/// (2, 4, 8, … peers). The same shape as `lagover-perf`'s private
/// `layered_population`; see there for why tighter packings thrash.
pub fn layered_population(peers: usize) -> Population {
    let mut constraints = Vec::with_capacity(peers);
    let mut layer = 1u32;
    let mut slots = u64::from(LAYERED_FANOUT);
    let mut filled = 0u64;
    for _ in 0..peers {
        if filled == (slots / 4).max(1) {
            slots = filled.saturating_mul(u64::from(LAYERED_FANOUT));
            layer += 1;
            filled = 0;
        }
        filled += 1;
        constraints.push(Constraints::new(LAYERED_FANOUT, layer + LAYERED_SLACK));
    }
    Population::new(LAYERED_FANOUT, constraints)
}

/// The seed of input number `input` of a run seeded `seed`. Input 0 is
/// the run seed itself; the others are SplitMix64 hashes of it.
pub fn derive_seed(seed: u64, input: u64) -> u64 {
    if input == 0 {
        return seed;
    }
    let mut z = seed ^ input.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the outcome digest.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

fn hybrid_config(round_cap: u64) -> ConstructionConfig {
    ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay).with_max_rounds(round_cap)
}

/// What one operation did.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Wall time of the operation, checks excluded.
    pub wall_ns: u64,
    /// Work done, in the workload's [`Kind::work_unit`].
    pub work: u64,
    /// Simulated time to the goal, in the workload's [`Kind::sim_unit`].
    pub sim_time: u64,
    /// Why the operation failed, if it did.
    pub failure: Option<String>,
    /// Hash of every exact count of the outcome: the same input must
    /// give the same digest every time, traced or not.
    pub digest: u64,
    /// Exact counts for the per-layer ledger.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// An operation whose entry point returned an error.
    fn failed(wall_ns: u64, why: String) -> Self {
        Outcome {
            wall_ns,
            work: 0,
            sim_time: 0,
            failure: Some(why),
            digest: 0,
            counts: Vec::new(),
        }
    }
}

/// What a construction's `work` counts: the count its cost follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructWork {
    /// Pairwise interactions performed. The layered population's cost
    /// is its placement burst, which is the same size at every seed
    /// (64–66 k interactions at n = 30 000) however long the cheap
    /// rounds after it trail on (62 to 109).
    Interactions,
    /// Simulated peer-rounds, n × rounds executed. The Rand
    /// population's cost is its thousands of idle rounds.
    PeerRounds,
}

/// A finished construction, kept so the ledger can look at the engine.
pub struct Constructed {
    /// The engine after the run.
    pub engine: Engine,
    /// The convergence round, if reached within the cap.
    pub converged_at: Option<u64>,
    /// Wall time of `Engine::new` plus the run.
    pub wall_ns: u64,
}

/// `Engine::new` + run to convergence, Hybrid × Random-Delay. With
/// tracing off this is `Engine::run_to_convergence`; with tracing on
/// it is the same loop spelled out, one span per `step` and per scan.
/// `observed` switches the engine's whole obs pipeline on.
pub fn construct(
    population: &Population,
    round_cap: u64,
    seed: u64,
    observed: bool,
    trace: &mut Trace,
) -> Constructed {
    let config = hybrid_config(round_cap);
    let root = trace.begin("op");
    let start = Instant::now();
    let span = trace.begin("core.engine.new");
    let mut engine = Engine::new(population, &config, seed);
    trace.end(span);
    if observed {
        engine
            .obs_mut()
            .enable_journal(OBS_JOURNAL_CAPACITY)
            .enable_registry()
            .enable_profiler();
    }
    let converged_at = if trace.enabled() {
        let scan = |engine: &Engine, trace: &mut Trace| {
            let span = trace.begin("core.engine.scan");
            let converged = engine.is_converged();
            trace.end(span);
            converged
        };
        let mut converged = scan(&engine, trace);
        while !converged && engine.round().get() < round_cap {
            let span = trace.begin("core.engine.step");
            engine.step();
            trace.end(span);
            converged = scan(&engine, trace);
        }
        converged.then(|| engine.round().get())
    } else {
        engine.run_to_convergence().map(|round| round.get())
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    count_engine(
        trace,
        &engine,
        engine.round().get(),
        &EngineCounters::default(),
        0,
    );
    trace.end(root);
    Constructed {
        engine,
        converged_at,
        wall_ns,
    }
}

/// Records an operation's headline counts against the open root
/// span: its rounds, and the engine's interactions and RNG draws
/// since `base` / `base_draws`.
fn count_engine(
    trace: &mut Trace,
    engine: &Engine,
    rounds: u64,
    base: &EngineCounters,
    base_draws: u64,
) {
    trace.count("rounds", rounds);
    trace.count(
        "interactions",
        engine.counters().interactions - base.interactions,
    );
    trace.count("rng_draws", engine.rng_draws() - base_draws);
}

/// Structural checks every engine-backed operation ends with.
fn check_engine(engine: &Engine) -> Option<String> {
    if let Err(why) = engine.overlay().validate() {
        return Some(format!("overlay fails validate(): {why}"));
    }
    match engine.stale_chain_count() {
        0 => None,
        stale => Some(format!("{stale} stale chains at the end")),
    }
}

/// Counters of an engine since `base`, plus its RNG draws since
/// `base_draws`, named for the ledger.
fn engine_counts(
    engine: &Engine,
    base: &EngineCounters,
    base_draws: u64,
) -> Vec<(&'static str, u64)> {
    let mut counts: Vec<(&'static str, u64)> = engine
        .counters()
        .to_named()
        .iter()
        .zip(base.to_named())
        .map(|(&(name, now), (_, before))| (name, now - before))
        .collect();
    counts.push(("rng_draws", engine.rng_draws() - base_draws));
    counts
}

impl Constructed {
    /// Checks the construction and folds it into an [`Outcome`].
    pub fn outcome(&self, work: ConstructWork) -> Outcome {
        let rounds = self.engine.round().get();
        let counts = engine_counts(&self.engine, &EngineCounters::default(), 0);
        let failure = match self.converged_at {
            None => Some(format!("not converged within {rounds} rounds")),
            Some(_) => check_engine(&self.engine),
        };
        Outcome {
            wall_ns: self.wall_ns,
            work: match work {
                ConstructWork::Interactions => self.engine.counters().interactions,
                ConstructWork::PeerRounds => self.engine.population().len() as u64 * rounds,
            },
            sim_time: self.converged_at.unwrap_or(rounds),
            failure,
            digest: digest(
                [rounds, u64::from(self.converged_at.is_some())]
                    .into_iter()
                    .chain(counts.iter().map(|&(_, v)| v)),
            ),
            counts,
        }
    }
}

/// The two cells of `stream_forest`: cell A (k = 4) delivers
/// everything without a stall; cell B (k = 1) drives the same
/// scheduler through its stall / retry / TTL-drop path.
pub fn stream_cells() -> [StreamConfig; 2] {
    let cell = |k| StreamConfig {
        k,
        rate: 4,
        schedule: PublishSchedule::Periodic { interval: 1 },
        rounds: 200,
        drain_rounds: 400,
        window: 2,
        ttl: 16,
        chunk_bytes: 1024,
    };
    [cell(4), cell(1)]
}

fn stream_counts(prefix: [&'static str; 5], report: &StreamReport) -> Vec<(&'static str, u64)> {
    let values = [
        report.deliveries,
        report.stalls,
        report.drops,
        report.undelivered,
        report.staleness.p95,
    ];
    prefix.into_iter().zip(values).collect()
}

/// State a workload's set-up leaves behind for its operations.
enum State {
    Construct {
        round_cap: u64,
        work: ConstructWork,
    },
    Recover {
        snapshot: Box<EngineSnapshot>,
        base: EngineCounters,
        base_draws: u64,
    },
    Stream {
        overlay: Overlay,
        budgets: StreamBudgets,
    },
    Mesh,
}

/// A set-up workload, ready to run operations.
pub struct Workload {
    /// The run seed the inputs were made from.
    pub seed: u64,
    /// The population every operation works on.
    pub population: Population,
    state: State,
}

impl Workload {
    /// The workload's set-up column: builds the population and
    /// whatever converged state the operation starts from. `divisor`
    /// shrinks the population (`--smoke` passes 10).
    ///
    /// # Errors
    ///
    /// If the Rand generator cannot satisfy the sufficiency condition
    /// or a set-up construction does not converge.
    pub fn setup(kind: Kind, seed: u64, divisor: usize, trace: &mut Trace) -> Result<Self, String> {
        let peers = (kind.full_peers() / divisor.max(1)).max(2);
        let root = trace.begin("setup");
        let population = match kind {
            Kind::ConstructTail => {
                let span = trace.begin("workload.generate");
                let generated =
                    WorkloadSpec::new(TopologicalConstraint::Rand, peers).generate(seed);
                trace.end(span);
                generated.map_err(|e| format!("Rand n={peers} seed={seed}: {e}"))?
            }
            _ => layered_population(peers),
        };
        let state = match kind {
            Kind::ConstructBurst => State::Construct {
                round_cap: LAYERED_ROUND_CAP,
                work: ConstructWork::Interactions,
            },
            Kind::ConstructTail => State::Construct {
                round_cap: TAIL_ROUND_CAP,
                work: ConstructWork::PeerRounds,
            },
            Kind::NodeMesh => State::Mesh,
            Kind::RecoverCrash | Kind::StreamForest => {
                let mut engine = Engine::new(&population, &hybrid_config(LAYERED_ROUND_CAP), seed);
                if engine.run_to_convergence().is_none() {
                    return Err(format!(
                        "{}: set-up construction did not converge",
                        kind.name()
                    ));
                }
                if kind == Kind::RecoverCrash {
                    State::Recover {
                        snapshot: Box::new(engine.snapshot()),
                        base: *engine.counters(),
                        base_draws: engine.rng_draws(),
                    }
                } else {
                    State::Stream {
                        overlay: engine.overlay().clone(),
                        budgets: StreamBudgets::uniform(peers, 8, 16),
                    }
                }
            }
        };
        trace.end(root);
        Ok(Workload {
            seed,
            population,
            state,
        })
    }

    /// The converged snapshot `recover_crash` restores from.
    pub fn snapshot(&self) -> Option<&EngineSnapshot> {
        match &self.state {
            State::Recover { snapshot, .. } => Some(snapshot),
            _ => None,
        }
    }

    /// The converged overlay and budgets `stream_forest` streams over.
    pub fn stream_inputs(&self) -> Option<(&Overlay, &StreamBudgets)> {
        match &self.state {
            State::Stream { overlay, budgets } => Some((overlay, budgets)),
            _ => None,
        }
    }

    /// The round cap and work unit of a construction workload.
    pub fn construction(&self) -> Option<(u64, ConstructWork)> {
        match self.state {
            State::Construct { round_cap, work } => Some((round_cap, work)),
            _ => None,
        }
    }

    /// The scenario `node_mesh` replicates.
    pub fn mesh_spec() -> ScenarioSpec {
        ScenarioSpec {
            scenario: Scenario::Construction,
            config: ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay),
            max_time: 400.0,
            journal_capacity: 8192,
        }
    }

    /// Runs one operation on input number `input` and checks it.
    pub fn op(&self, input: u64, trace: &mut Trace) -> Outcome {
        let seed = derive_seed(self.seed, input);
        match &self.state {
            State::Construct { round_cap, work } => {
                construct(&self.population, *round_cap, seed, false, trace).outcome(*work)
            }
            State::Recover {
                snapshot,
                base,
                base_draws,
            } => self.recover(snapshot, base, *base_draws, seed, trace),
            State::Stream { overlay, budgets } => self.stream(overlay, budgets, seed, trace),
            State::Mesh => mesh_op(&self.population, seed, trace),
        }
    }

    /// Restore the converged snapshot, crash a fifth of the interior
    /// (cohort drawn as `run_recovery` draws it), and step until every
    /// online peer is satisfied again and no chain crosses a dead peer.
    fn recover(
        &self,
        snapshot: &EngineSnapshot,
        base: &EngineCounters,
        base_draws: u64,
        seed: u64,
        trace: &mut Trace,
    ) -> Outcome {
        let root = trace.begin("op");
        let start = Instant::now();
        let span = trace.begin("core.engine.restore");
        let mut engine = Engine::restore(snapshot.clone());
        trace.end(span);
        let interior: Vec<u32> = self
            .population
            .peer_ids()
            .filter(|&p| engine.is_online(p) && !engine.overlay().children(p).is_empty())
            .map(PeerId::get)
            .collect();
        let mut cohort_rng = SimRng::seed_from(seed).split(COHORT_SALT);
        let victims = crash_cohort(&interior, CRASH_FRACTION, &mut cohort_rng);
        for &victim in &victims {
            engine.inject_crash(PeerId::new(victim));
        }
        engine.set_faults(FaultPlan::none());
        let mut rounds = 0u64;
        let mut healed = false;
        while rounds < RECOVERY_HORIZON && !healed {
            let span = trace.begin("core.engine.step");
            engine.step();
            trace.end(span);
            rounds += 1;
            let span = trace.begin("core.engine.scan");
            black_box(engine.orphan_count());
            let stale = engine.stale_chain_count();
            healed = engine.is_converged() && stale == 0;
            trace.end(span);
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        trace.count("victims", victims.len() as u64);
        count_engine(trace, &engine, rounds, base, base_draws);
        trace.end(root);

        let mut counts = engine_counts(&engine, base, base_draws);
        counts.push(("victims", victims.len() as u64));
        let failure = if healed {
            check_engine(&engine)
        } else {
            Some(format!("not healed within {rounds} rounds"))
        };
        Outcome {
            wall_ns,
            work: self.population.len() as u64 * rounds,
            sim_time: rounds,
            failure,
            digest: digest(
                [rounds, u64::from(healed)]
                    .into_iter()
                    .chain(counts.iter().map(|&(_, v)| v)),
            ),
            counts,
        }
    }

    /// Both stream cells over the read-only overlay.
    fn stream(
        &self,
        overlay: &Overlay,
        budgets: &StreamBudgets,
        seed: u64,
        trace: &mut Trace,
    ) -> Outcome {
        let [clean, backpressure] = stream_cells();
        let root = trace.begin("op");
        let start = Instant::now();
        let span = trace.begin("stream.scheduler.clean");
        let a = stream(overlay, &self.population, budgets, &clean, seed);
        trace.end(span);
        let span = trace.begin("stream.scheduler.backpressure");
        let b = stream(overlay, &self.population, budgets, &backpressure, seed);
        trace.end(span);
        let wall_ns = start.elapsed().as_nanos() as u64;
        for report in [&a, &b].into_iter().flatten() {
            trace.count("deliveries", report.deliveries);
            trace.count("stalls", report.stalls);
            trace.count("drops", report.drops);
        }
        trace.end(root);

        let (a, b) = match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                return Outcome::failed(wall_ns, format!("carve failed: {e:?}"))
            }
        };
        let failure = if a.delivered_fraction != 1.0 {
            Some(format!(
                "cell A delivered {} of {}",
                a.deliveries, a.expected_deliveries
            ))
        } else if b.deliveries + b.undelivered != b.expected_deliveries
            || (b.undelivered > 0 && b.drops == 0)
        {
            Some(format!(
                "cell B unaccounted: {} delivered + {} undelivered of {}, {} drops",
                b.deliveries, b.undelivered, b.expected_deliveries, b.drops
            ))
        } else {
            None
        };
        let mut counts = stream_counts(
            [
                "a.deliveries",
                "a.stalls",
                "a.drops",
                "a.undelivered",
                "a.p95",
            ],
            &a,
        );
        counts.extend(stream_counts(
            [
                "b.deliveries",
                "b.stalls",
                "b.drops",
                "b.undelivered",
                "b.p95",
            ],
            &b,
        ));
        counts.push(("b.expected", b.expected_deliveries));
        Outcome {
            wall_ns,
            work: a.deliveries + b.deliveries,
            sim_time: a.staleness.p95 + b.staleness.p95,
            failure,
            digest: digest(counts.iter().map(|&(_, v)| v)),
            counts,
        }
    }
}

/// One `run_mesh` of the construction scenario over `population`.
pub fn mesh_op(population: &Population, seed: u64, trace: &mut Trace) -> Outcome {
    let spec = Workload::mesh_spec();
    let root = trace.begin("op");
    let start = Instant::now();
    let span = trace.begin("node.mesh.run");
    let run = run_mesh(population, &spec, seed);
    trace.end(span);
    let wall_ns = start.elapsed().as_nanos() as u64;
    if let Ok(run) = &run {
        trace.count("actions", run.merged.report.actions);
    }
    trace.end(root);
    let run = match run {
        Ok(run) => run,
        Err(why) => return Outcome::failed(wall_ns, format!("run_mesh: {why}")),
    };
    let report = &run.merged.report;
    let mut counts: Vec<(&'static str, u64)> = report.counters.to_named().to_vec();
    counts.push(("actions", report.actions));
    counts.push(("journal_events", run.merged.journal.len() as u64));
    counts.push(("journal_dropped", run.merged.journal.dropped()));
    Outcome {
        wall_ns,
        work: report.actions * population.len() as u64,
        sim_time: report.actions,
        failure: (!run.merged.finished()).then(|| "mesh hit the time limit".to_string()),
        digest: digest(
            [report.converged_at.map_or(u64::MAX, f64::to_bits)]
                .into_iter()
                .chain(counts.iter().map(|&(_, v)| v)),
        ),
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layers hold 2, 4, 8, … peers and layer `d` tolerates `d + 4`.
    #[test]
    fn layered_population_has_doubling_layers_with_four_levels_of_slack() {
        let population = layered_population(2 + 4 + 8 + 16 + 5);
        assert_eq!(population.source_fanout(), 8);
        let mut per_latency = std::collections::BTreeMap::new();
        for (_, constraints) in population.iter() {
            assert_eq!(constraints.fanout, 8);
            *per_latency.entry(constraints.latency).or_insert(0usize) += 1;
        }
        let layers: Vec<(u32, usize)> = per_latency.into_iter().collect();
        assert_eq!(layers, vec![(5, 2), (6, 4), (7, 8), (8, 16), (9, 5)]);
    }

    #[test]
    fn layered_population_sizes_are_exact() {
        for n in [1, 2, 3, 96, 3000] {
            assert_eq!(layered_population(n).len(), n);
        }
    }

    #[test]
    fn input_zero_is_the_run_seed_and_the_others_differ() {
        assert_eq!(derive_seed(42, 0), 42);
        let derived: Vec<u64> = (0..8).map(|i| derive_seed(42, i)).collect();
        let mut unique = derived.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 8);
        assert_eq!(
            derived,
            (0..8).map(|i| derive_seed(42, i)).collect::<Vec<_>>()
        );
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    /// The spelled-out traced loop must be `run_to_convergence`.
    #[test]
    fn traced_and_untraced_constructions_agree() {
        let population = layered_population(300);
        let work = ConstructWork::PeerRounds;
        let plain = construct(&population, 400, 9, false, &mut Trace::off()).outcome(work);
        let mut trace = Trace::on();
        let traced = construct(&population, 400, 9, false, &mut trace).outcome(work);
        assert_eq!(plain.failure, None);
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.sim_time, traced.sim_time);
        let steps = trace.durations_ns(0, "core.engine.step").len() as u64;
        assert_eq!(steps, plain.sim_time);
        // One scan before the first step, one after every step.
        assert_eq!(
            trace.durations_ns(0, "core.engine.scan").len() as u64,
            steps + 1
        );
    }

    #[test]
    fn every_workload_sets_up_and_passes_its_checks_at_smoke_size() {
        for kind in Kind::ALL {
            let workload = Workload::setup(kind, 7, 10, &mut Trace::off()).expect("set-up");
            let first = workload.op(0, &mut Trace::off());
            assert_eq!(first.failure, None, "{}", kind.name());
            assert!(first.work > 0 && first.sim_time > 0, "{}", kind.name());
            let again = workload.op(0, &mut Trace::on());
            assert_eq!(first.digest, again.digest, "{}", kind.name());
        }
    }

    #[test]
    fn an_unconverged_construction_is_a_failure() {
        let population = layered_population(300);
        let outcome = construct(&population, 2, 9, false, &mut Trace::off())
            .outcome(ConstructWork::Interactions);
        assert!(outcome
            .failure
            .expect("cap of 2 rounds")
            .contains("not converged"));
    }
}
