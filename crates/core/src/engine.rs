//! The round-based construction engine.
//!
//! One [`Engine::step`] is one simulator round (§2.1.1's construction
//! clock): every online peer acts once, in a uniformly random order
//! derived from per-peer slot keys (`schedule.rs`) — parent-less
//! peers run a construction step of the configured algorithm (greedy or
//! hybrid), parented peers run the maintenance check. Churn is applied
//! between rounds by [`Engine::apply_churn`].
//!
//! The engine also hosts the mutation helpers shared by both algorithms:
//! latency-checked attaches, child displacement, and the
//! replace-and-adopt reconfiguration (`j ← i ← k`).

use lagover_obs::{
    DetachCause, Event, HealthSample, InconsistencyCause, Pipeline, RepairKind, Scrape, Work,
};
use lagover_sim::{ChurnProcess, FaultPlan, Round, SimRng};
use serde::{Deserialize, Serialize};

use crate::config::{Algorithm, ConstructionConfig};
use crate::node::{member_to_node, Liveness, Member, PeerId, Population};
use crate::oracle::{Oracle, OracleKind, OracleView};
use crate::oracle_index::OracleIndex;
use crate::overlay::Overlay;
use crate::schedule::{schedule_key, Schedule};
use crate::{greedy, hybrid, maintenance, stabilize};

// Moved to `lagover-obs` (the counters are the registry's raw
// material); re-exported here so `lagover_core::engine::EngineCounters`
// stays a valid path with identical serialization.
pub use lagover_obs::EngineCounters;

/// Populations at or below this size get the full O(N·depth)
/// [`Overlay::validate`] cross-check after every round in debug builds.
/// Larger debug runs fall back to the O(1) rotating spot-check alone —
/// full validation at 10⁵ peers would make debug construction unusable.
#[cfg(debug_assertions)]
const FULL_VALIDATE_LIMIT: usize = 4096;

/// Victim-selection policy for [`Engine::displace_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DisplacePolicy {
    /// Strict latency order: the victim must be strictly laxer than the
    /// incomer (greedy invariant).
    Greedy,
    /// Capacity-aware: the victim must not out-fan the incomer; prefer
    /// the lowest-fanout victim.
    Hybrid,
}

/// Per-peer protocol bookkeeping.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct ProtoState {
    /// Interaction target carried over from a referral ("use `k` as the
    /// next reference"), consulted before the oracle.
    pub referral: Option<Member>,
    /// Consecutive own-actions spent without a parent; drives the
    /// timeout fallback to the source.
    pub rounds_unparented: u32,
    /// Consecutive own-actions with `DelayAt > l` while rooted; drives
    /// the hybrid maintenance timeout.
    pub violation_rounds: u32,
    /// Consecutive own-actions that found the parent silent (offline
    /// without a goodbye). Reaching `detection_timeout` declares the
    /// parent crashed. Always zero under graceful churn, where edges to
    /// departed peers are removed in the same round.
    pub parent_silent_rounds: u32,
    /// Fault-induced contact failures since the peer last held a
    /// parent; drives the exponential backoff.
    pub failed_attempts: u32,
    /// Rounds the peer still waits before retrying the oracle (bounded
    /// exponential backoff with deterministic jitter).
    pub backoff_remaining: u32,
}

impl ProtoState {
    pub(crate) fn reset(&mut self) {
        *self = ProtoState::default();
    }
}

/// The two phases a peer action is profiled under, by whether the peer
/// has a parent.
const ACTION_PHASES: [&str; 2] = ["construction", "maintenance"];

/// The profiler's per-action accounting, batched (see
/// [`Engine::act_on_profiled`]): consecutive actions of one phase share
/// one counter span, the work of both phases waits in two fixed slots,
/// and [`Engine::flush_actions`] hands it over. A profile is a sum, so
/// its totals are those of one record per action.
#[derive(Debug, Default)]
pub(crate) struct ActionLedger {
    /// Work per phase, indexed like [`ACTION_PHASES`].
    work: [Work; 2],
    /// The phase that acted first since the last flush — the one a
    /// record per action would have shown the profiler first.
    first: Option<usize>,
    /// The open span: its phase, and the draws and counters it started
    /// at.
    open: Option<(usize, u64, EngineCounters)>,
}

/// A serializable checkpoint of an [`Engine`]'s simulation state.
///
/// Produced by [`Engine::snapshot`] and consumed by [`Engine::restore`];
/// serializable, so campaigns can persist checkpoints to disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    population: Population,
    config: ConstructionConfig,
    overlay: Overlay,
    online: Vec<bool>,
    proto: Vec<ProtoState>,
    counters: EngineCounters,
    rng: SimRng,
    schedule_key: u64,
    round: Round,
    faults: FaultPlan,
    crashed: Vec<bool>,
    crash_silent: Vec<u32>,
    next_crash: usize,
}

impl EngineSnapshot {
    /// The round the snapshot was taken at.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The snapshotted overlay (read-only).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Serializes the checkpoint as a compact JSON document.
    pub fn to_json_string(&self) -> String {
        lagover_jsonio::to_string(self)
    }

    /// Parses a checkpoint produced by [`EngineSnapshot::to_json_string`],
    /// revalidating the overlay's structural invariants.
    ///
    /// # Errors
    ///
    /// On malformed JSON, shape mismatch, or an overlay that fails
    /// validation.
    pub fn from_json_str(text: &str) -> Result<Self, lagover_jsonio::JsonError> {
        lagover_jsonio::from_str(text)
    }
}

/// The construction simulator for one population and one configuration.
///
/// # Example
///
/// ```
/// use lagover_core::{Algorithm, ConstructionConfig, Engine, OracleKind};
/// use lagover_core::node::{Constraints, Population};
///
/// let pop = Population::new(2, vec![
///     Constraints::new(1, 1),
///     Constraints::new(0, 2),
/// ]);
/// let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
/// let mut engine = Engine::new(&pop, &config, 42);
/// let converged = engine.run_to_convergence();
/// assert!(converged.is_some());
/// ```
pub struct Engine {
    pub(crate) population: Population,
    pub(crate) config: ConstructionConfig,
    pub(crate) overlay: Overlay,
    /// Who is online: what a round and the convergence monitor scan, a
    /// word at a time, against the overlay's settled bits.
    online: Liveness,
    pub(crate) proto: Vec<ProtoState>,
    pub(crate) counters: EngineCounters,
    oracle: Box<dyn Oracle>,
    /// Incremental sampling index serving the reference oracles in
    /// O(log n) per query: built by [`Engine::new`] / [`Engine::restore`],
    /// `None` when a custom oracle is installed (its logic cannot be
    /// indexed). Kept current lazily: the overlay records cache deltas
    /// and [`Engine::sync_oracle_index`] drains them before each query.
    index: Option<OracleIndex>,
    /// Reusable buffers for draining the overlay's delta records.
    delay_delta_scratch: Vec<(PeerId, Option<u32>)>,
    fanout_delta_scratch: Vec<PeerId>,
    pub(crate) rng: SimRng,
    round: Round,
    /// The round's visit order over the active peers; its key is part
    /// of the snapshot.
    schedule: Schedule,
    /// The observability pipeline (journal + registry + profiler).
    /// Disabled by default, in which case every emission site reduces
    /// to a branch and the run is byte-identical to an uninstrumented
    /// one.
    obs: Pipeline,
    /// Reusable one-flag-per-peer copy of `online` for
    /// [`Engine::apply_churn`].
    churn_scratch: Vec<bool>,
    /// The installed fault scenario (empty by default).
    faults: FaultPlan,
    /// Which peers have crash-stop failed (permanent; disjoint from
    /// graceful churn, which clears overlay edges immediately).
    pub(crate) crashed: Vec<bool>,
    /// Rounds each crashed peer has been silent, saturating at
    /// `detection_timeout` once its remaining edges are reclaimed.
    pub(crate) crash_silent: Vec<u32>,
    /// The crash victims still short of `detection_timeout`: what
    /// [`Engine::detect_crashes`] ages, in ascending index order once it
    /// has sorted them.
    undetected: Vec<PeerId>,
    /// Cursor into the fault plan's sorted crash schedule.
    next_crash: usize,
    /// Crash victims so far (kept to make the no-fault fast path in
    /// [`Engine::apply_faults`] a field read, not a vector scan).
    crashed_total: usize,
    /// Whether a snapshot corruption is being repaired. While set, the
    /// round-end invariant assertions are suspended (corrupted state is
    /// *expected* to fail them) and the per-round stabilization sweep
    /// runs. Deliberately not serialized: snapshots are a facility for
    /// clean checkpoints, and a restored engine starts un-corrupted.
    stabilizing: bool,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("population", &self.population.len())
            .field("round", &self.round)
            .field("oracle", &self.oracle.name())
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine using the reference oracle named in `config`,
    /// served by the incremental sampling index.
    pub fn new(population: &Population, config: &ConstructionConfig, seed: u64) -> Self {
        let mut engine = Self::with_oracle(population, config, config.oracle.build(), seed);
        engine.build_oracle_index();
        engine
    }

    /// Creates an engine with a custom oracle implementation (used to
    /// plug in the DHT-directory and random-walk realizations). Every
    /// query goes through `oracle`'s own scan; handed the reference
    /// oracle `config.oracle.build()`, this is the naive path the index
    /// of [`Engine::new`] must replay bit for bit.
    pub fn with_oracle(
        population: &Population,
        config: &ConstructionConfig,
        oracle: Box<dyn Oracle>,
        seed: u64,
    ) -> Self {
        let n = population.len();
        let rng = SimRng::seed_from(seed);
        Engine {
            population: population.clone(),
            config: *config,
            overlay: Overlay::new(population),
            online: Liveness::all(n),
            proto: vec![ProtoState::default(); n],
            counters: EngineCounters::default(),
            oracle,
            index: None,
            delay_delta_scratch: Vec::new(),
            fanout_delta_scratch: Vec::new(),
            schedule: Schedule::new(schedule_key(&rng)),
            rng,
            round: Round::ZERO,
            obs: Pipeline::disabled(),
            churn_scratch: Vec::new(),
            faults: FaultPlan::none(),
            crashed: vec![false; n],
            crash_silent: vec![0; n],
            undetected: Vec::new(),
            next_crash: 0,
            crashed_total: 0,
            stabilizing: false,
        }
    }

    /// The observability pipeline.
    pub fn obs(&self) -> &Pipeline {
        &self.obs
    }

    /// Mutable access to the observability pipeline (enable components,
    /// take the journal).
    pub fn obs_mut(&mut self) -> &mut Pipeline {
        &mut self.obs
    }

    /// Installs an observability pipeline wholesale, replacing the
    /// current one.
    pub fn set_obs(&mut self, obs: Pipeline) {
        self.obs = obs;
    }

    /// Lifetime RNG draws consumed by this engine's generator (the
    /// profiler's denominator; also what the byte-identity tests pin).
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }

    /// Captures the engine's complete simulation state (overlay,
    /// membership, protocol bookkeeping, counters, RNG, round). A
    /// snapshot restored with [`Engine::restore`] under the same
    /// configuration and a stateless oracle replays *identically* —
    /// the checkpoint/resume facility a long experiment campaign needs.
    ///
    /// The observability pipeline is not part of the snapshot.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            population: self.population.clone(),
            config: self.config,
            overlay: self.overlay.clone(),
            online: self.online.to_flags(),
            proto: self.proto.clone(),
            counters: self.counters,
            rng: self.rng.clone(),
            schedule_key: self.schedule.key(),
            round: self.round,
            faults: self.faults.clone(),
            crashed: self.crashed.clone(),
            crash_silent: self.crash_silent.clone(),
            next_crash: self.next_crash,
        }
    }

    /// Reconstructs an engine from a snapshot, using the reference
    /// oracle named in the snapshot's configuration.
    ///
    /// Replay is bit-exact only if the oracle is stateless (all four
    /// reference oracles are); substrate oracles carry their own state
    /// and should be re-injected via [`Engine::restore_with_oracle`].
    pub fn restore(snapshot: EngineSnapshot) -> Self {
        let oracle = snapshot.config.oracle.build();
        let mut engine = Self::restore_with_oracle(snapshot, oracle);
        engine.build_oracle_index();
        engine
    }

    /// [`Engine::restore`] with a custom oracle.
    pub fn restore_with_oracle(snapshot: EngineSnapshot, oracle: Box<dyn Oracle>) -> Self {
        let crashed_total = snapshot.crashed.iter().filter(|&&c| c).count();
        // An in-memory snapshot cloned from a delta-tracking engine may
        // carry stale delta records; the restored engine rebuilds its
        // index from scratch, so drop them.
        let mut overlay = snapshot.overlay;
        overlay.set_delta_tracking(false);
        // Likewise the settled bits of the engine it was cloned from:
        // what they vouched for included that engine's mode.
        overlay.unsettle_all();
        let timeout = snapshot.config.detection_timeout;
        let undetected = (0..snapshot.crashed.len())
            .filter(|&i| snapshot.crashed[i] && snapshot.crash_silent[i] < timeout)
            .map(|i| PeerId::new(i as u32))
            .collect();
        Engine {
            population: snapshot.population,
            config: snapshot.config,
            overlay,
            online: Liveness::from_flags(&snapshot.online),
            proto: snapshot.proto,
            counters: snapshot.counters,
            oracle,
            index: None,
            delay_delta_scratch: Vec::new(),
            fanout_delta_scratch: Vec::new(),
            rng: snapshot.rng,
            schedule: Schedule::new(snapshot.schedule_key),
            round: snapshot.round,
            obs: Pipeline::disabled(),
            churn_scratch: Vec::new(),
            faults: snapshot.faults,
            crashed: snapshot.crashed,
            crash_silent: snapshot.crash_silent,
            undetected,
            next_crash: snapshot.next_crash,
            crashed_total,
            stabilizing: false,
        }
    }

    /// (Re)builds the incremental sampling index from the current state.
    /// Indexed and naive queries draw the same RNG stream and return the
    /// same peer — the index changes per-query cost (O(log n) vs O(n)),
    /// never the sample — which is what the equivalence suite in
    /// `tests/properties.rs` pins against [`Engine::with_oracle`].
    fn build_oracle_index(&mut self) {
        self.index = Some(OracleIndex::build(
            &self.overlay,
            &self.population,
            &self.online,
        ));
        // (Re)starting tracking clears any stale delta records; the
        // fresh index already reflects the current overlay.
        self.overlay.set_delta_tracking(true);
    }

    /// Drains the overlay's delta records into the index. Replaying the
    /// whole queue is idempotent: membership updates re-derive each
    /// peer's target state from the mirrored online bit (and, for
    /// fanout, from the *current* overlay), and the queue's last delay
    /// record per peer matches the overlay's current cache, so the
    /// index always converges to the live state.
    fn sync_oracle_index(&mut self) {
        if !self.overlay.has_pending_deltas() {
            return;
        }
        let index = self.index.as_mut().expect("sync only runs when indexed");
        let mut delays = std::mem::take(&mut self.delay_delta_scratch);
        let mut fanouts = std::mem::take(&mut self.fanout_delta_scratch);
        self.overlay.take_deltas_into(&mut delays, &mut fanouts);
        for &(p, delay) in &delays {
            index.note_delay(p, delay);
        }
        for &p in &fanouts {
            index.note_free_fanout(p, self.overlay.has_free_fanout(Member::Peer(p)));
        }
        delays.clear();
        fanouts.clear();
        self.delay_delta_scratch = delays;
        self.fanout_delta_scratch = fanouts;
    }

    /// Answers one oracle query for `p` — through the incremental index
    /// when there is one, else the installed [`Oracle`]'s own scan. Both
    /// paths draw the same RNG stream and return the same peer.
    fn oracle_sample(&mut self, p: PeerId) -> Option<PeerId> {
        if self.index.is_some() {
            self.sync_oracle_index();
            let index = self.index.as_ref().expect("checked above");
            let sampled = match self.config.oracle {
                OracleKind::Random => index.sample_uniform(p, &mut self.rng),
                OracleKind::RandomCapacity => index.sample_free_capacity(p, &mut self.rng),
                OracleKind::RandomDelayCapacity => {
                    index.sample_delay_below_free(p, self.population.latency(p), &mut self.rng)
                }
                OracleKind::RandomDelay => {
                    index.sample_delay_below(p, self.population.latency(p), &mut self.rng)
                }
            };
            debug_assert!(
                sampled.is_none_or(|j| j != p && self.online.contains(j)),
                "index produced an invalid candidate"
            );
            sampled
        } else {
            let view = OracleView::new(&self.overlay, &self.population, &self.online);
            match self.oracle.sample(p, &view, &mut self.rng) {
                Some(j) if j != p && self.online.contains(j) => Some(j),
                Some(_) | None => None,
            }
        }
    }

    fn emit_attach(&mut self, child: PeerId, parent: Member) {
        if self.obs.is_enabled() {
            self.obs.record(Event::Attach {
                round: self.round.get(),
                child: child.get(),
                parent: member_to_node(parent),
            });
        }
    }

    fn emit_detach(&mut self, child: PeerId, parent: Member, cause: DetachCause) {
        if self.obs.is_enabled() {
            self.obs.record(Event::Detach {
                round: self.round.get(),
                child: child.get(),
                parent: member_to_node(parent),
                cause,
            });
        }
    }

    /// Current round number.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The overlay under construction.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The population being organized.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The active configuration.
    pub fn config(&self) -> &ConstructionConfig {
        &self.config
    }

    /// Event counters so far.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// Whether `p` is currently online.
    pub fn is_online(&self, p: PeerId) -> bool {
        self.online.contains(p)
    }

    /// Number of peers currently online.
    pub fn online_count(&self) -> usize {
        self.online.count()
    }

    /// The online peers that are not settled, in ascending order: all a
    /// monitor has to look at, since a settled peer is online, parented
    /// and satisfied (DESIGN.md §13.4). O(n/64 + the peers found).
    fn active_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.overlay.unsettled_among(self.online.words())
    }

    /// Whether `p`'s constraints are currently met: chain rooted at the
    /// source and `DelayAt(p) <= l_p`.
    pub fn is_satisfied(&self, p: PeerId) -> bool {
        matches!(self.overlay.stamped_delay(p), Some(d) if d <= self.population.latency(p))
    }

    /// Fraction of *online* peers currently satisfied (1.0 when nobody
    /// is online).
    pub fn satisfied_fraction(&self) -> f64 {
        let online = self.online.count();
        if online == 0 {
            return 1.0;
        }
        let unsatisfied = self
            .active_peers()
            .filter(|&p| !self.is_satisfied(p))
            .count();
        (online - unsatisfied) as f64 / online as f64
    }

    /// Whether every online peer is satisfied — the paper's convergence
    /// criterion for construction latency.
    pub fn is_converged(&self) -> bool {
        self.active_peers().all(|p| self.is_satisfied(p))
    }

    /// Installs a fault plan, replacing any previous one. The crash
    /// schedule restarts from its first event; events whose round has
    /// already passed fire at the next step.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
        self.next_crash = 0;
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Injects a crash-stop failure of `p` right now: the peer goes
    /// permanently silent, but — unlike a graceful churn departure —
    /// **keeps every overlay edge** until neighbours detect the silence
    /// (`detection_timeout` consecutive silent rounds). Returns whether
    /// the crash was injected (`false` if `p` is already offline).
    pub fn inject_crash(&mut self, p: PeerId) -> bool {
        if !self.online.contains(p) {
            return false;
        }
        self.online.set(p, false);
        // The victim stops acting, and its children's next probe goes
        // unanswered.
        self.overlay.unsettle(p);
        self.overlay.unsettle_children(p);
        if let Some(index) = self.index.as_mut() {
            index.set_offline(p);
        }
        self.crashed[p.index()] = true;
        self.crash_silent[p.index()] = 0;
        self.undetected.push(p);
        self.crashed_total += 1;
        self.counters.crashes += 1;
        if self.obs.is_enabled() {
            self.obs.record(Event::Crash {
                round: self.round.get(),
                peer: p.get(),
            });
        }
        self.proto[p.index()].reset();
        true
    }

    /// Whether the engine is repairing a snapshot corruption (see
    /// [`crate::stabilize::apply_corruption`]).
    pub fn stabilizing(&self) -> bool {
        self.stabilizing
    }

    /// Manually toggles stabilizing mode. Runners clear the flag once
    /// the overlay is validate-clean and converged again; tests set it
    /// before hand-crafting corrupt states through the raw overlay
    /// mutators.
    pub fn set_stabilizing(&mut self, on: bool) {
        self.stabilizing = on;
        self.overlay.unsettle_all();
    }

    /// Enters stabilizing mode after a corruption was applied: suspends
    /// the round-end invariant assertions and rebuilds the oracle
    /// sampling index, since cached delays may have been forged
    /// wholesale underneath it.
    pub(crate) fn begin_stabilizing(&mut self) {
        self.set_stabilizing(true);
        if self.index.is_some() {
            self.build_oracle_index();
        }
    }

    /// Records one detected local inconsistency (counter + event).
    pub(crate) fn note_inconsistency(&mut self, p: PeerId, cause: InconsistencyCause) {
        self.counters.inconsistencies_detected += 1;
        if self.obs.is_enabled() {
            self.obs.record(Event::InconsistencyDetected {
                round: self.round.get(),
                peer: p.get(),
                cause,
            });
        }
    }

    /// Records one repair performed by the stabilize rule.
    pub(crate) fn note_repair(&mut self, p: PeerId, action: RepairKind) {
        self.counters.repair_actions += 1;
        if self.obs.is_enabled() {
            self.obs.record(Event::RepairAction {
                round: self.round.get(),
                peer: p.get(),
                action,
            });
        }
    }

    /// Detaches `p` as a stabilization repair — the failure-detach
    /// ladder generalized to corrupted edges (the detach itself is
    /// lenient about missing backlinks) — and resets `p`'s protocol
    /// state so ordinary construction re-attaches it.
    pub(crate) fn stabilize_detach(&mut self, p: PeerId) {
        let parent = self
            .overlay
            .detach(p)
            .expect("stabilize detach on parented peer");
        self.counters.detaches += 1;
        self.emit_detach(p, parent, DetachCause::Failure);
        self.proto[p.index()].reset();
        self.note_repair(p, RepairKind::Detach);
    }

    /// Whether `p` has crash-stop failed.
    pub fn is_crashed(&self, p: PeerId) -> bool {
        self.crashed[p.index()]
    }

    /// Crash-stop failures so far.
    pub fn crashed_count(&self) -> usize {
        self.crashed_total
    }

    /// Number of online peers currently without a parent (fragment
    /// roots still negotiating re-attachment). An orphan is never
    /// settled, so only the active peers are looked at.
    pub fn orphan_count(&self) -> usize {
        self.active_peers()
            .filter(|&p| self.overlay.parent(p).is_none())
            .count()
    }

    /// Number of online peers whose ancestor chain crosses an offline
    /// peer — the staleness violation of the crash-stop model: the
    /// chain still looks rooted, but the dead ancestor relays nothing.
    /// Always zero under graceful churn, which clears such edges in the
    /// departure round.
    ///
    /// One O(N) pass: a walk up from an online peer stops at the first
    /// offline ancestor (stale), the chain's end (fresh), a peer whose
    /// verdict is known (inherited), or a peer of the walk itself — a
    /// corrupted parent cycle, which can never deliver the feed and
    /// counts as stale — and everybody walked past, online and below
    /// the same stop, takes the same verdict.
    pub fn stale_chain_count(&self) -> usize {
        const UNKNOWN: u8 = 0;
        const FRESH: u8 = 1;
        const STALE: u8 = 2;
        const ON_WALK: u8 = 3;
        let mut verdict = vec![UNKNOWN; self.population.len()];
        let mut walk = Vec::new();
        let mut stale_chains = 0;
        for start in self.population.peer_ids() {
            if !self.online.contains(start) {
                continue;
            }
            let mut cur = start;
            while verdict[cur.index()] == UNKNOWN {
                verdict[cur.index()] = ON_WALK;
                walk.push(cur);
                match self.overlay.parent(cur) {
                    Some(Member::Peer(q)) if self.online.contains(q) => cur = q,
                    Some(Member::Peer(_)) => verdict[cur.index()] = STALE,
                    Some(Member::Source) | None => verdict[cur.index()] = FRESH,
                }
            }
            let found = if verdict[cur.index()] == FRESH {
                FRESH
            } else {
                STALE
            };
            for p in walk.drain(..) {
                verdict[p.index()] = found;
            }
            stale_chains += usize::from(found == STALE);
        }
        stale_chains
    }

    /// Fires the fault plan's scheduled crashes whose round has come —
    /// at the *start* of the round, so a victim never acts in the round
    /// it dies. With an empty schedule this is a strict no-op that
    /// consumes no randomness, so fault-free runs stay byte-identical.
    fn fire_scheduled_crashes(&mut self) {
        while let Some(&event) = self.faults.crashes().get(self.next_crash) {
            if event.round > self.round.get() {
                break;
            }
            self.next_crash += 1;
            self.inject_crash(PeerId::new(event.peer));
        }
    }

    /// Ages each crash victim's silence at the *end* of the round —
    /// after the act phase, so children counting the same silence via
    /// `parent_silent_rounds` reach `detection_timeout` first and
    /// `failure_detach` themselves. Once the engine's own count gets
    /// there it reclaims whatever edges neighbours could not drop on
    /// their own (the corpse's parent edge, offline children). Only the
    /// victims still counting are visited, in ascending index order —
    /// the order of the reclaims' journal events.
    fn detect_crashes(&mut self) {
        if self.crashed_total == 0 {
            return;
        }
        let timeout = self.config.detection_timeout;
        let mut undetected = std::mem::take(&mut self.undetected);
        undetected.sort_unstable();
        undetected.retain(|&p| {
            let silent = &mut self.crash_silent[p.index()];
            if *silent >= timeout {
                return false;
            }
            *silent += 1;
            let detected = *silent >= timeout;
            if detected {
                self.reclaim_crashed(p);
            }
            !detected
        });
        self.undetected = undetected;
        #[cfg(debug_assertions)]
        if self.population.len() <= FULL_VALIDATE_LIMIT && !self.stabilizing {
            let detected: Vec<bool> = (0..self.population.len())
                .map(|i| self.crashed[i] && self.crash_silent[i] >= self.config.detection_timeout)
                .collect();
            debug_assert_eq!(self.overlay.validate_liveness(&detected), Ok(()));
        }
    }

    /// Detection completed for crash victim `p`: drop its parent edge
    /// and orphan any children that have not yet walked away on their
    /// own (offline children, or children whose own silence count
    /// lagged the engine's).
    fn reclaim_crashed(&mut self, p: PeerId) {
        if let Some(parent) = self.overlay.parent(p) {
            self.emit_detach(p, parent, DetachCause::Failure);
        }
        let orphans = self.overlay.remove_peer(p);
        for orphan in orphans {
            self.emit_detach(orphan, Member::Peer(p), DetachCause::Failure);
            self.proto[orphan.index()].reset();
        }
    }

    /// Work done since a `(rng draws, counters)` baseline — the
    /// profiler's per-phase delta.
    fn work_since(&self, draws0: u64, counters0: &EngineCounters, actions: u64) -> Work {
        let c = &self.counters;
        Work {
            actions,
            rng_draws: self.rng.draws() - draws0,
            oracle_queries: c.oracle_queries - counters0.oracle_queries,
            interactions: c.interactions - counters0.interactions,
            attaches: c.attaches - counters0.attaches,
            detaches: c.detaches - counters0.detaches,
            messages_lost: c.messages_lost - counters0.messages_lost,
        }
    }

    /// Runs one construction round: every online peer acts once, in the
    /// round's slot order (DESIGN.md §13.4).
    ///
    /// Only the active peers — online and not settled — are visited: a
    /// settled peer's action changes nothing, and one that an action
    /// un-settles mid-round is scheduled if its slot is still ahead, so
    /// the round is byte-for-byte the one that visits everybody.
    ///
    /// When the pipeline's profiler is enabled the round is accounted
    /// into phases — `detection` (crash schedule + silence aging) and
    /// per-action `construction` / `maintenance`, batched per round —
    /// purely from counter and RNG-draw deltas, so the profile is
    /// deterministic and profiling never perturbs the run.
    pub fn step(&mut self) {
        let profiling = self.obs.profiling();
        self.open_round(profiling);
        self.schedule.open(
            self.round,
            self.overlay.unsettled_among(self.online.words()),
        );
        self.overlay.report_wakes(true);
        let mut ledger = ActionLedger::default();
        while let Some(p) = self.schedule.pop() {
            if profiling {
                self.act_on_profiled(&mut ledger, p);
            } else {
                self.act_on(p);
            }
            self.reschedule();
        }
        self.overlay.report_wakes(false);
        self.flush_actions(&mut ledger);
        self.close_round(profiling);
    }

    /// Hands the peers the last action woke to the open round.
    fn reschedule(&mut self) {
        match self.overlay.woken() {
            Some(woken) => {
                for &q in woken {
                    debug_assert!(self.online.contains(q), "a settled peer is online");
                    self.schedule.wake(q);
                }
            }
            None => self
                .schedule
                .reopen(self.overlay.unsettled_among(self.online.words())),
        }
        self.overlay.clear_woken();
    }

    /// What a round does before anybody acts: the scheduled crashes
    /// fire and, while stabilizing, the sweep runs (profiled as
    /// `detection`).
    fn open_round(&mut self, profiling: bool) {
        let (draws0, counters0) = (self.rng.draws(), self.counters);
        self.fire_scheduled_crashes();
        if self.stabilizing {
            stabilize::sweep(self);
        }
        if profiling {
            let work = self.work_since(draws0, &counters0, 0);
            self.obs.record_phase("detection", work);
        }
    }

    /// What a round does after everybody acted: crash silences age
    /// (profiled as `detection`), the round advances, the invariants
    /// are checked.
    fn close_round(&mut self, profiling: bool) {
        let (draws0, counters0) = (self.rng.draws(), self.counters);
        self.detect_crashes();
        if profiling {
            let work = self.work_since(draws0, &counters0, 0);
            self.obs.record_phase("detection", work);
        }
        self.round = self.round.next();
        self.check_invariants();
    }

    /// [`Engine::step`] as the paper states it: every online peer in
    /// slot order, the settled skip in [`Engine::act_on`] doing the
    /// rest. The reference the active-set round is held to, byte for
    /// byte.
    #[cfg(test)]
    pub(crate) fn step_visiting_everyone(&mut self) {
        let profiling = self.obs.profiling();
        self.open_round(profiling);
        let online: Vec<PeerId> = self
            .population
            .peer_ids()
            .filter(|&p| self.online.contains(p))
            .collect();
        self.schedule.open(self.round, online.into_iter());
        while let Some(p) = self.schedule.pop() {
            self.act_on(p);
        }
        self.close_round(profiling);
    }

    /// Post-round structural checking. The full O(N·depth)
    /// [`Overlay::validate`] cross-check runs only in debug builds on
    /// populations up to [`FULL_VALIDATE_LIMIT`] — at 10⁵ peers it
    /// would dominate the round — while a rotating O(1)
    /// [`Overlay::spot_check`] stays on in every build as a cheap
    /// corruption tripwire that covers the whole population over time.
    fn check_invariants(&self) {
        if self.stabilizing {
            // Corrupted state is *supposed* to fail these until the
            // stabilize rule has repaired it; the runner re-arms the
            // checks once validate() comes back clean.
            return;
        }
        #[cfg(debug_assertions)]
        if self.population.len() <= FULL_VALIDATE_LIMIT {
            assert_eq!(self.overlay.validate(), Ok(()));
        }
        let probe = PeerId::new((self.round.get() % self.population.len() as u64) as u32);
        assert_eq!(self.overlay.spot_check(probe), Ok(()));
    }

    /// Performs one action for peer `p`: a construction step if it has
    /// no parent, otherwise the maintenance check. Exposed to the
    /// asynchronous (event-driven) engine.
    pub fn act_on(&mut self, p: PeerId) {
        debug_assert!(self.online.contains(p), "offline peers do not act");
        // A settled peer found nothing to do last time and nothing it
        // reads has been written since (DESIGN.md §13.4).
        if self.overlay.is_settled(p) {
            debug_assert!(self.action_is_noop(p), "settled {p} has something to do");
            return;
        }
        // The stabilize rule: verify cached chain state against the
        // neighbours' actual replies before acting on it. On a valid
        // overlay this is a handful of reads (no RNG, no events), so
        // corruption-free runs stay byte-identical; a detected
        // inconsistency is repaired in place of the normal action.
        if stabilize::verify(self, p) {
            return;
        }
        if self.overlay.parent(p).is_none() {
            self.construction_step(p);
        } else {
            maintenance::maintain(self, p);
        }
    }

    /// [`Engine::act_on`] with the action's work attributed to its
    /// phase on `ledger`. An action that does nothing — a settled
    /// peer's — costs the ledger one count: the span it runs in stays
    /// open, and the counters are read only where the phase changes.
    /// Nothing but actions may draw or count between two calls without
    /// an [`Engine::flush_actions`] in between.
    pub(crate) fn act_on_profiled(&mut self, ledger: &mut ActionLedger, p: PeerId) {
        let phase = usize::from(self.overlay.parent(p).is_some());
        if !matches!(ledger.open, Some((open, ..)) if open == phase) {
            self.close_span(ledger);
            ledger.open = Some((phase, self.rng.draws(), self.counters));
            ledger.first.get_or_insert(phase);
        }
        ledger.work[phase].actions += 1;
        self.act_on(p);
    }

    fn close_span(&self, ledger: &mut ActionLedger) {
        if let Some((phase, draws0, counters0)) = ledger.open.take() {
            ledger.work[phase].add(self.work_since(draws0, &counters0, 0));
        }
    }

    /// Records what `ledger` holds with the profiler, the phase that
    /// acted first going first and an idle phase not at all, and leaves
    /// it empty.
    pub(crate) fn flush_actions(&mut self, ledger: &mut ActionLedger) {
        self.close_span(ledger);
        if let Some(first) = ledger.first.take() {
            for phase in [first, 1 - first] {
                let work = std::mem::take(&mut ledger.work[phase]);
                if work.actions > 0 {
                    self.obs.record_phase(ACTION_PHASES[phase], work);
                }
            }
        }
    }

    /// Whether [`Engine::act_on`] would change nothing at `p` — no
    /// field, no draw, no counter, no event: what a settled bit claims,
    /// re-derived read-only from the checks the action itself runs. The
    /// audit behind every skip in debug builds.
    pub(crate) fn action_is_noop(&self, p: PeerId) -> bool {
        self.online.contains(p)
            && !self.stabilizing
            && self.overlay.parent(p).is_some()
            && stabilize::diagnose(self, p).is_none()
            && maintenance::is_quiet(self, p)
    }

    /// One construction step for a parent-less peer.
    fn construction_step(&mut self, p: PeerId) {
        self.proto[p.index()].rounds_unparented += 1;

        // Target selection: referral first, then the timeout fallback to
        // the source, then the oracle.
        let referral = self.proto[p.index()].referral.take();
        let target: Option<Member> = match referral {
            Some(Member::Source) => Some(Member::Source),
            Some(Member::Peer(j)) if self.online.contains(j) && j != p => Some(Member::Peer(j)),
            // Dead or degenerate referral: fall through to the normal
            // selection path this same round.
            _ => {
                if self.proto[p.index()].rounds_unparented >= self.config.timeout_rounds {
                    // The degradation ladder bottoms out at the source
                    // (the paper's timeout rule); backoff never delays
                    // this last resort.
                    Some(Member::Source)
                } else if self.proto[p.index()].backoff_remaining > 0 {
                    self.proto[p.index()].backoff_remaining -= 1;
                    self.counters.backoff_rounds += 1;
                    if self.obs.is_enabled() {
                        self.obs.record(Event::Backoff {
                            round: self.round.get(),
                            peer: p.get(),
                            remaining: self.proto[p.index()].backoff_remaining,
                        });
                    }
                    None
                } else if self.faults.oracle_blacked_out(self.round.get()) {
                    // Directory outage: the query goes out but nobody
                    // answers. No sample is drawn, so the blackout
                    // itself consumes no randomness.
                    self.counters.oracle_queries += 1;
                    self.counters.oracle_outages += 1;
                    if self.obs.is_enabled() {
                        self.obs.record(Event::OracleOutage {
                            round: self.round.get(),
                            peer: p.get(),
                        });
                    }
                    self.register_failure(p);
                    None
                } else {
                    self.counters.oracle_queries += 1;
                    match self.oracle_sample(p) {
                        Some(j) => {
                            if self.obs.is_enabled() {
                                self.obs.record(Event::OracleHit {
                                    round: self.round.get(),
                                    peer: p.get(),
                                    target: j.get(),
                                });
                            }
                            Some(Member::Peer(j))
                        }
                        None => {
                            self.counters.oracle_misses += 1;
                            if self.obs.is_enabled() {
                                self.obs.record(Event::OracleMiss {
                                    round: self.round.get(),
                                    peer: p.get(),
                                });
                            }
                            None
                        }
                    }
                }
            }
        };

        // Fault gate: the selected interaction may be lost in flight.
        // `chance` draws nothing when the loss probability is zero, and
        // a lost source contact does not reset the unparented clock, so
        // the timeout fallback keeps escalating.
        let target = if target.is_some() && self.rng.chance(self.faults.message_loss()) {
            self.counters.messages_lost += 1;
            if self.obs.is_enabled() {
                self.obs.record(Event::MessageLost {
                    round: self.round.get(),
                    peer: p.get(),
                });
            }
            self.register_failure(p);
            None
        } else {
            target
        };

        match target {
            None => {}
            Some(Member::Source) => {
                self.counters.source_contacts += 1;
                if self.obs.is_enabled() {
                    self.obs.record(Event::SourceContact {
                        round: self.round.get(),
                        peer: p.get(),
                    });
                }
                self.proto[p.index()].rounds_unparented = 0;
                self.source_interaction(p);
            }
            Some(Member::Peer(j)) => {
                self.counters.interactions += 1;
                match self.config.algorithm {
                    Algorithm::Greedy => greedy::interact(self, p, j),
                    Algorithm::Hybrid => hybrid::interact(self, p, j),
                }
            }
        }

        if self.overlay.parent(p).is_some() {
            let st = &mut self.proto[p.index()];
            st.rounds_unparented = 0;
            st.failed_attempts = 0;
            st.backoff_remaining = 0;
        }
    }

    /// Records a fault-induced contact failure (lost interaction or
    /// oracle blackout — never an ordinary oracle miss) and schedules
    /// the next oracle retry: bounded exponential backoff
    /// (`min(2^attempts, backoff_cap)` rounds) plus deterministic
    /// jitter. The jitter is an RNG-free hash of `(peer, attempt)`, so
    /// peers failed by the same round desynchronize their retries
    /// without advancing any random stream.
    fn register_failure(&mut self, p: PeerId) {
        let st = &mut self.proto[p.index()];
        st.failed_attempts = st.failed_attempts.saturating_add(1);
        let base = 1u32
            .checked_shl(st.failed_attempts.min(16))
            .expect("shift bounded at 16")
            .min(self.config.backoff_cap.max(1));
        let key = (u64::from(p.get()) << 32) | u64::from(st.failed_attempts);
        st.backoff_remaining =
            (base - 1) + lagover_sim::faults::deterministic_jitter(key, base / 2);
    }

    /// Interaction of a parent-less peer directly at the source — shared
    /// by both algorithms (Algorithm 2 lines 2–7): attach if the source
    /// has a free slot, otherwise displace a direct child `c` and adopt
    /// it if possible. With a pull-only source the victim is the laxest
    /// child with `l_c > l_p`; with a push-capable source (Algorithm 2
    /// lines 29–33) it is the smallest-fanout child with `f_c < f_p`.
    pub(crate) fn source_interaction(&mut self, p: PeerId) {
        if self.overlay.has_free_fanout(Member::Source) {
            self.overlay
                .attach(p, Member::Source)
                .expect("free source slot");
            self.counters.attaches += 1;
            self.emit_attach(p, Member::Source);
            return;
        }
        let victim = match self.config.source_mode {
            crate::config::SourceMode::Pull => {
                let l_p = self.population.latency(p);
                // Laxest direct child strictly laxer than p (ties broken
                // by id for determinism).
                self.overlay
                    .source_children()
                    .iter()
                    .copied()
                    .filter(|&c| self.population.latency(c) > l_p)
                    .max_by_key(|&c| (self.population.latency(c), c.get()))
            }
            crate::config::SourceMode::Push => {
                // Fanout decides first (lines 29–33); latency remains
                // the safety valve (lines 24–25): a strictly stricter
                // node may displace the laxest child when no
                // fanout-justified victim exists.
                let f_p = self.population.fanout(p);
                let l_p = self.population.latency(p);
                self.overlay
                    .source_children()
                    .iter()
                    .copied()
                    .filter(|&c| self.population.fanout(c) < f_p)
                    .min_by_key(|&c| (self.population.fanout(c), c.get()))
                    .or_else(|| {
                        self.overlay
                            .source_children()
                            .iter()
                            .copied()
                            .filter(|&c| self.population.latency(c) > l_p)
                            .max_by_key(|&c| (self.population.latency(c), c.get()))
                    })
            }
        };
        if let Some(c) = victim {
            // The displacer's claim takes priority: the victim is
            // orphaned if it cannot be adopted.
            self.replace_and_adopt_impl(Member::Source, c, p, true);
        }
    }

    /// `DelayAt` if rooted, speculative delay otherwise — the estimate
    /// peers negotiate with inside fragments, read off the stamp: at
    /// most `max_latency + 2`, which fails every latency comparison a
    /// deeper exact value fails.
    pub(crate) fn effective_delay(&self, p: PeerId) -> u32 {
        self.overlay.stamped_hops(p) + u32::from(!self.overlay.is_rooted(p))
    }

    /// Latency-checked attach: `child` goes under `parent` only if the
    /// parent has a free slot and the child's (speculative) delay there
    /// would respect the child's own constraint. Returns whether the
    /// attach happened.
    pub(crate) fn try_attach(&mut self, child: PeerId, parent: Member) -> bool {
        let would_be = match parent {
            Member::Source => 1,
            Member::Peer(q) => self.effective_delay(q) + 1,
        };
        if would_be > self.population.latency(child) {
            return false;
        }
        if self.overlay.attach(child, parent).is_ok() {
            self.counters.attaches += 1;
            self.emit_attach(child, parent);
            true
        } else {
            false
        }
    }

    /// Displacement into a full parent `j`: enquirer `i` becomes a child
    /// of `j` by taking over one of `j`'s current children `m`
    /// (`m ← i ← j`). The victim is *adopted* by `i` when that keeps it
    /// satisfied (discarding `i`'s laxest fragment child if its fanout
    /// is full — Algorithm 2's "i may need to discard one child node");
    /// a *strictly laxer* victim may instead be orphaned when adoption
    /// is impossible, mirroring the priority rule at the source (the
    /// stricter node's claim wins). The victim policy depends on the
    /// algorithm:
    ///
    /// * greedy (`DisplacePolicy::Greedy`) — only strictly laxer
    ///   victims (preserving the `l_parent <= l_child` invariant),
    ///   laxest first;
    /// * hybrid (`DisplacePolicy::Hybrid`) — a victim qualifies if
    ///   demoting it is capacity-cheap (`f_m <= f_i`, adoption required)
    ///   or latency-justified (`l_m > l_i`); adoptable low-fanout
    ///   victims are preferred, so high-fanout children are demoted
    ///   only as a last resort.
    ///
    /// Returns whether the reconfiguration happened.
    pub(crate) fn displace_into(&mut self, i: PeerId, j: PeerId, policy: DisplacePolicy) -> bool {
        let d_j = self.effective_delay(j);
        let l_i = self.population.latency(i);
        if d_j + 1 > l_i {
            return false;
        }
        let f_i = self.population.fanout(i);
        // Whether adopting m (at depth d_j + 2) keeps it satisfied.
        let adoptable = |m: PeerId| f_i > 0 && d_j + 2 <= self.population.latency(m);
        let eligible = |m: PeerId| {
            if m == i {
                return false;
            }
            // An orphan-graft corruption can place a peer in j's child
            // list without the backlink; displacing it would detach it
            // from its *real* parent. Always true on a valid overlay.
            if self.overlay.parent(m) != Some(Member::Peer(j)) {
                return false;
            }
            let strictly_laxer = self.population.latency(m) > l_i;
            match policy {
                DisplacePolicy::Greedy => strictly_laxer,
                DisplacePolicy::Hybrid => {
                    strictly_laxer || (self.population.fanout(m) <= f_i && adoptable(m))
                }
            }
        };
        let victim = match policy {
            // Laxest victim first; prefer one that can be adopted.
            DisplacePolicy::Greedy => self
                .overlay
                .children(j)
                .iter()
                .copied()
                .filter(|&m| eligible(m))
                .max_by_key(|&m| (adoptable(m), self.population.latency(m), m.get())),
            // Adoptable victims first, then lowest fanout, then laxest.
            DisplacePolicy::Hybrid => self
                .overlay
                .children(j)
                .iter()
                .copied()
                .filter(|&m| eligible(m))
                .max_by_key(|&m| {
                    (
                        adoptable(m),
                        u32::MAX - self.population.fanout(m),
                        self.population.latency(m),
                        m.get(),
                    )
                }),
        };
        let Some(m) = victim else {
            return false;
        };
        // i is parent-less, so it cannot be an ancestor of j; the only
        // cycle risk is j being inside i's own fragment, which
        // overlay.attach rejects — pre-check to keep this transactional.
        if self.is_in_subtree_of(j, i) {
            return false;
        }
        // A fanout-overflow corruption can leave j with more children
        // than it advertises — detaching one victim then frees no slot.
        // Always false on a valid overlay.
        if self.overlay.children(j).len() > self.overlay.advertised_fanout(j) as usize {
            return false;
        }
        let adopt = adoptable(m);
        // m restarts construction from j's neighborhood if orphaned.
        self.swap_in(Member::Peer(j), m, i, adopt, Member::Peer(j))
    }

    /// The `j ← i ← k` reconfiguration: parent-less `i` takes `j`'s slot
    /// under `parent`, adopting `j` (and thereby `j`'s subtree) as its
    /// own child when feasible. If `i`'s fanout is full, its laxest
    /// current child is discarded to make room (Algorithm 2: "i may need
    /// to discard one child node"). Fails — with no state change —
    /// unless the adoption keeps `j` satisfied. Returns whether the
    /// reconfiguration happened.
    pub(crate) fn replace_and_adopt(&mut self, parent: Member, j: PeerId, i: PeerId) -> bool {
        self.replace_and_adopt_impl(parent, j, i, false)
    }

    /// [`Engine::replace_and_adopt`] with a policy switch: when
    /// `orphan_if_unadoptable` is set (source displacement, where the
    /// stricter/stronger node's claim takes priority) the swap proceeds
    /// even if `j` cannot be adopted, leaving `j` a fragment root.
    pub(crate) fn replace_and_adopt_impl(
        &mut self,
        parent: Member,
        j: PeerId,
        i: PeerId,
        orphan_if_unadoptable: bool,
    ) -> bool {
        // Callers pick j out of parent's child list; an orphan-graft
        // corruption can plant an entry there without the backlink, in
        // which case displacing j would detach it from its real parent.
        // Always true on a valid overlay.
        if self.overlay.parent(j) != Some(parent) {
            return false;
        }
        if i == j || self.overlay.parent(i).is_some() {
            return false;
        }
        let slot_delay = match parent {
            Member::Source => 1,
            Member::Peer(k) => self.effective_delay(k) + 1,
        };
        let l_i = self.population.latency(i);
        let l_j = self.population.latency(j);
        if slot_delay > l_i {
            return false;
        }
        let can_adopt = self.population.fanout(i) > 0 && slot_delay < l_j;
        if !can_adopt && !orphan_if_unadoptable {
            return false;
        }
        // Cycle pre-check: the slot's parent must not sit inside i's
        // fragment. (j itself cannot: j's parent is outside i's
        // fragment, while every non-root member of i's fragment has its
        // parent inside it.)
        if let Member::Peer(k) = parent {
            if self.is_in_subtree_of(k, i) {
                return false;
            }
        }
        // A fanout-overflow (or source-graft) corruption can leave the
        // parent with more children than it advertises — detaching j
        // then frees no slot. Always false on a valid overlay.
        let overflowed = match parent {
            Member::Source => {
                self.overlay.source_children().len() > self.population.source_fanout() as usize
            }
            Member::Peer(k) => {
                self.overlay.children(k).len() > self.overlay.advertised_fanout(k) as usize
            }
        };
        if overflowed {
            return false;
        }
        // An orphaned j restarts construction pointed back at its
        // displacer, so its fragment can re-merge nearby.
        self.swap_in(parent, j, i, can_adopt, Member::Peer(i))
    }

    /// The shared tail of both displacement forms, entered once every
    /// protocol check has passed: parent-less `i` takes `victim`'s slot
    /// under `parent`. With `adopt`, `i` also adopts the victim —
    /// [`Overlay::interpose`], one pass over the victim's subtree —
    /// after orphaning its own laxest child if its fanout is full;
    /// otherwise the victim becomes a fragment root with `referral` as
    /// its restart hint. Returns whether `i` got the slot.
    fn swap_in(
        &mut self,
        parent: Member,
        victim: PeerId,
        i: PeerId,
        adopt: bool,
        referral: Member,
    ) -> bool {
        if adopt && !self.overlay.has_free_fanout(Member::Peer(i)) {
            // A forged fanout cache can report i full with no children
            // to discard; impossible on a valid overlay.
            let Some(discard) = self
                .overlay
                .children(i)
                .iter()
                .copied()
                .max_by_key(|&c| (self.population.latency(c), c.get()))
            else {
                return false;
            };
            self.overlay.detach(discard).expect("child of i");
            self.counters.detaches += 1;
            self.emit_detach(discard, Member::Peer(i), DetachCause::Discarded);
        }
        // Forged caches can make the splice refuse what the caller's
        // checks approved (impossible on a valid overlay); the stepwise
        // calls below then fail at the same check, as they always have.
        let spliced = adopt && self.overlay.interpose(i, victim).is_ok();
        if !spliced {
            self.overlay
                .detach(victim)
                .expect("victim is a child of parent");
        }
        self.emit_detach(victim, parent, DetachCause::Displaced);
        if !spliced && self.overlay.attach(i, parent).is_err() {
            self.proto[victim.index()].referral = Some(referral);
            self.counters.detaches += 1;
            return false;
        }
        self.emit_attach(i, parent);
        if spliced || (adopt && self.overlay.attach(victim, Member::Peer(i)).is_ok()) {
            self.counters.attaches += 1;
            self.emit_attach(victim, Member::Peer(i));
        } else {
            self.proto[victim.index()].referral = Some(referral);
        }
        self.counters.displacements += 1;
        self.counters.detaches += 1;
        self.counters.attaches += 1;
        true
    }

    /// Whether `node` lies in the subtree rooted at `root` (walking up
    /// from `node`; O(depth)). Bounded by the population size: a walk
    /// that fails to terminate (a corrupted parent cycle) conservatively
    /// answers `true`, so every caller refuses its reconfiguration.
    pub(crate) fn is_in_subtree_of(&self, node: PeerId, root: PeerId) -> bool {
        let mut cur = node;
        let mut budget = self.population.len();
        loop {
            if cur == root {
                return true;
            }
            if budget == 0 {
                return true;
            }
            budget -= 1;
            match self.overlay.parent(cur) {
                Some(Member::Peer(q)) => cur = q,
                Some(Member::Source) | None => return false,
            }
        }
    }

    /// Detaches `p` from its parent as a maintenance action and resets
    /// its protocol state so construction restarts next round.
    pub(crate) fn maintenance_detach(&mut self, p: PeerId) {
        let parent = self
            .overlay
            .detach(p)
            .expect("maintenance on parented peer");
        self.counters.detaches += 1;
        self.counters.maintenance_detaches += 1;
        self.emit_detach(p, parent, DetachCause::Maintenance);
        self.proto[p.index()].reset();
    }

    /// Detaches `p` from a parent it has declared crashed
    /// (`detection_timeout` consecutive silent rounds) and resets its
    /// protocol state so construction restarts next round. `p` keeps
    /// its own subtree, exactly like a maintenance detach.
    pub(crate) fn failure_detach(&mut self, p: PeerId) {
        let parent = self
            .overlay
            .detach(p)
            .expect("failure detach on parented peer");
        self.counters.detaches += 1;
        self.counters.failure_detections += 1;
        if self.obs.is_enabled() {
            // The declared-dead parent is always a peer: the source
            // cannot crash.
            if let Member::Peer(q) = parent {
                self.obs.record(Event::FaultDetected {
                    round: self.round.get(),
                    peer: p.get(),
                    parent: q.get(),
                });
            }
        }
        self.emit_detach(p, parent, DetachCause::Failure);
        self.proto[p.index()].reset();
    }

    /// Applies one round of churn. Departing peers leave the overlay
    /// (children become fragment roots, §3.2); arriving peers come back
    /// fresh.
    pub fn apply_churn(&mut self, churn: &mut dyn ChurnProcess) {
        let profiling = self.obs.profiling();
        let draws0 = self.rng.draws();
        let counters0 = self.counters;
        let mut flags = std::mem::take(&mut self.churn_scratch);
        flags.clear();
        flags.extend(self.population.peer_ids().map(|p| self.online.contains(p)));
        churn.step(&mut flags, &mut self.rng);
        for (i, &now) in flags.iter().enumerate() {
            let p = PeerId::new(i as u32);
            let was = self.online.contains(p);
            if was && !now {
                self.counters.churn_departures += 1;
                self.online.set(p, false);
                if let Some(index) = self.index.as_mut() {
                    index.set_offline(p);
                }
                if let Some(parent) = self.overlay.parent(p) {
                    self.emit_detach(p, parent, DetachCause::Churn);
                }
                let orphans = self.overlay.remove_peer(p);
                for orphan in orphans {
                    self.emit_detach(orphan, Member::Peer(p), DetachCause::Churn);
                }
                self.proto[p.index()].reset();
            } else if !was && now {
                if self.crashed[i] {
                    // Crash-stop is permanent: the churn process may
                    // propose a rejoin, but crashed processes never
                    // resurrect.
                    continue;
                }
                self.counters.churn_arrivals += 1;
                self.online.set(p, true);
                if let Some(index) = self.index.as_mut() {
                    index.set_online(p, &self.overlay);
                }
                self.proto[p.index()].reset();
            }
        }
        self.churn_scratch = flags; // capacity reused next round
        if profiling {
            let work = self.work_since(draws0, &counters0, 0);
            self.obs.record_phase("churn", work);
        }
        self.check_invariants();
    }

    /// Steps until convergence or the configured round cap, returning
    /// the convergence round if reached.
    pub fn run_to_convergence(&mut self) -> Option<Round> {
        if self.is_converged() {
            return Some(self.round);
        }
        while self.round.get() < self.config.max_rounds {
            self.step();
            if self.is_converged() {
                return Some(self.round);
            }
        }
        None
    }

    /// Probes the overlay's current health in O(N): depth histogram,
    /// slack distribution, orphan / stale-chain counts, fanout
    /// utilization, and the oracle's cumulative load. Read-only; works
    /// whether or not the pipeline is enabled.
    pub fn health_sample(&self) -> HealthSample {
        let depth = crate::analysis::depth_profile(&self.overlay, &self.population);
        let slack = crate::analysis::slack_profile(&self.overlay, &self.population);
        let util = crate::analysis::utilization_profile(&self.overlay, &self.population);
        HealthSample {
            round: self.round.get(),
            online: self.online_count() as u64,
            orphans: self.orphan_count() as u64,
            unrooted: depth.unrooted as u64,
            stale_chains: self.stale_chain_count() as u64,
            satisfied_fraction: self.satisfied_fraction(),
            depth_counts: depth.counts.iter().map(|&c| c as u64).collect(),
            max_depth: depth.max_depth,
            mean_depth: depth.mean_depth,
            violated: slack.violated as u64,
            tight: slack.tight as u64,
            slackful: slack.slackful as u64,
            min_slack: slack.min_slack,
            mean_slack: slack.mean_slack,
            fanout_used: util.used.iter().sum(),
            fanout_capacity: util.capacity.iter().sum(),
            oracle_load: self.counters.oracle_queries,
        }
    }

    /// Scrapes the registry: absorbs the engine counters, refreshes the
    /// health gauges, and returns the round-stamped sample. `None` when
    /// the registry is not enabled.
    pub fn scrape(&mut self) -> Option<Scrape> {
        self.obs.registry()?;
        // Compute health first: the probe reads the whole engine while
        // the registry update needs it mutably.
        let health = self.health_sample();
        let counters = self.counters;
        let round = self.round.get();
        let registry = self.obs.registry_mut().expect("registry checked above");
        registry.absorb_engine_counters(&counters);
        registry.set_gauge("health.satisfied_fraction", health.satisfied_fraction);
        registry.set_gauge("health.orphans", health.orphans as f64);
        registry.set_gauge("health.stale_chains", health.stale_chains as f64);
        registry.set_gauge("health.mean_depth", health.mean_depth);
        registry.set_gauge("health.mean_slack", health.mean_slack);
        registry.set_gauge(
            "health.fanout_utilization",
            health.fanout_utilization().unwrap_or(0.0),
        );
        Some(registry.sample(round))
    }
}

/// Whether `p`'s ancestor chain crosses an offline peer. Bounded by
/// the population size: a chain that fails to terminate (a corrupted
/// parent cycle) can never deliver the feed, so it counts as stale.
/// The per-peer reference [`Engine::stale_chain_count`] is tested
/// against.
#[cfg(test)]
fn chain_is_stale(overlay: &Overlay, online: &Liveness, p: PeerId) -> bool {
    let mut cur = p;
    let mut budget = online.len();
    loop {
        match overlay.parent(cur) {
            Some(Member::Peer(q)) => {
                if !online.contains(q) || budget == 0 {
                    return true;
                }
                budget -= 1;
                cur = q;
            }
            Some(Member::Source) | None => return false,
        }
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for ProtoState {
    fn to_json(&self) -> Json {
        object(vec![
            ("referral", self.referral.to_json()),
            ("rounds_unparented", self.rounds_unparented.to_json()),
            ("violation_rounds", self.violation_rounds.to_json()),
            ("parent_silent_rounds", self.parent_silent_rounds.to_json()),
            ("failed_attempts", self.failed_attempts.to_json()),
            ("backoff_remaining", self.backoff_remaining.to_json()),
        ])
    }
}

impl FromJson for ProtoState {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ProtoState {
            referral: Option::from_json(value.get("referral")?)?,
            rounds_unparented: u32::from_json(value.get("rounds_unparented")?)?,
            violation_rounds: u32::from_json(value.get("violation_rounds")?)?,
            // Absent in snapshots taken before the fault subsystem.
            parent_silent_rounds: match value.get_opt("parent_silent_rounds")? {
                Some(v) => u32::from_json(v)?,
                None => 0,
            },
            failed_attempts: match value.get_opt("failed_attempts")? {
                Some(v) => u32::from_json(v)?,
                None => 0,
            },
            backoff_remaining: match value.get_opt("backoff_remaining")? {
                Some(v) => u32::from_json(v)?,
                None => 0,
            },
        })
    }
}

impl ToJson for EngineSnapshot {
    fn to_json(&self) -> Json {
        object(vec![
            ("population", self.population.to_json()),
            ("config", self.config.to_json()),
            ("overlay", self.overlay.to_json()),
            ("online", self.online.to_json()),
            ("proto", self.proto.to_json()),
            ("counters", self.counters.to_json()),
            ("rng", self.rng.to_json()),
            ("schedule_key", self.schedule_key.to_json()),
            ("round", self.round.to_json()),
            ("faults", self.faults.to_json()),
            ("crashed", self.crashed.to_json()),
            ("crash_silent", self.crash_silent.to_json()),
            ("next_crash", self.next_crash.to_json()),
        ])
    }
}

impl FromJson for EngineSnapshot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let population = Population::from_json(value.get("population")?)?;
        let n = population.len();
        let rng = SimRng::from_json(value.get("rng")?)?;
        let snapshot = EngineSnapshot {
            population,
            config: ConstructionConfig::from_json(value.get("config")?)?,
            overlay: Overlay::from_json(value.get("overlay")?)?,
            online: Vec::from_json(value.get("online")?)?,
            proto: Vec::from_json(value.get("proto")?)?,
            counters: EngineCounters::from_json(value.get("counters")?)?,
            // Absent in snapshots taken before the keyed schedule: a
            // key derived from the stream state the document carries.
            schedule_key: match value.get_opt("schedule_key")? {
                Some(v) => u64::from_json(v)?,
                None => schedule_key(&rng),
            },
            rng,
            round: Round::from_json(value.get("round")?)?,
            // Absent in snapshots taken before the fault subsystem:
            // no faults, nobody crashed.
            faults: match value.get_opt("faults")? {
                Some(v) => FaultPlan::from_json(v)?,
                None => FaultPlan::none(),
            },
            crashed: match value.get_opt("crashed")? {
                Some(v) => Vec::from_json(v)?,
                None => vec![false; n],
            },
            crash_silent: match value.get_opt("crash_silent")? {
                Some(v) => Vec::from_json(v)?,
                None => vec![0; n],
            },
            next_crash: match value.get_opt("next_crash")? {
                Some(v) => usize::from_json(v)?,
                None => 0,
            },
        };
        if snapshot.online.len() != n
            || snapshot.proto.len() != n
            || snapshot.crashed.len() != n
            || snapshot.crash_silent.len() != n
        {
            return Err(JsonError(format!(
                "snapshot per-peer vectors disagree with population size {n}"
            )));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Constraints;
    use crate::oracle::OracleKind;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn chain_population() -> Population {
        Population::new(
            1,
            vec![
                Constraints::new(1, 1),
                Constraints::new(1, 2),
                Constraints::new(0, 3),
            ],
        )
    }

    #[test]
    fn trivial_chain_converges_under_both_algorithms() {
        for algorithm in [Algorithm::Greedy, Algorithm::Hybrid] {
            for oracle in OracleKind::ALL {
                let config = ConstructionConfig::new(algorithm, oracle).with_max_rounds(2_000);
                let mut engine = Engine::new(&chain_population(), &config, 7);
                let at = engine.run_to_convergence();
                assert!(at.is_some(), "{algorithm} with {oracle} failed to converge");
                assert!(engine.is_converged());
                assert_eq!(engine.satisfied_fraction(), 1.0);
                engine.overlay().validate().unwrap();
            }
        }
    }

    #[test]
    fn source_interaction_attaches_when_free() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let mut engine = Engine::new(&chain_population(), &config, 1);
        engine.source_interaction(p(0));
        assert_eq!(engine.overlay.parent(p(0)), Some(Member::Source));
        assert_eq!(engine.counters.attaches, 1);
    }

    #[test]
    fn source_interaction_displaces_laxer_child() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let mut engine = Engine::new(&chain_population(), &config, 1);
        // Peer 1 (l=2) grabs the only source slot first.
        engine.source_interaction(p(1));
        assert_eq!(engine.overlay.parent(p(1)), Some(Member::Source));
        // Peer 0 (l=1) displaces it and adopts it.
        engine.source_interaction(p(0));
        assert_eq!(engine.overlay.parent(p(0)), Some(Member::Source));
        assert_eq!(engine.overlay.parent(p(1)), Some(Member::Peer(p(0))));
        assert_eq!(engine.counters.displacements, 1);
        engine.overlay.validate().unwrap();
    }

    #[test]
    fn source_interaction_does_not_displace_stricter_child() {
        let pop = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(1, 1)]);
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let mut engine = Engine::new(&pop, &config, 1);
        engine.source_interaction(p(0));
        engine.source_interaction(p(1));
        // Equal latency: no displacement; peer 1 stays parent-less.
        assert_eq!(engine.overlay.parent(p(1)), None);
        assert_eq!(engine.counters.displacements, 0);
    }

    #[test]
    fn try_attach_enforces_latency() {
        let pop = Population::new(2, vec![Constraints::new(2, 1), Constraints::new(0, 1)]);
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let mut engine = Engine::new(&pop, &config, 1);
        assert!(engine.try_attach(p(0), Member::Source));
        // Peer 1 has l=1; attaching under peer 0 would put it at delay 2.
        assert!(!engine.try_attach(p(1), Member::Peer(p(0))));
        assert!(engine.try_attach(p(1), Member::Source));
    }

    #[test]
    fn replace_and_adopt_moves_subtrees() {
        // source(f=1); a(f=1,l=4) holds b(f=0,l=4); i(f=2,l=1) swaps in.
        let pop = Population::new(
            1,
            vec![
                Constraints::new(1, 4),
                Constraints::new(0, 4),
                Constraints::new(2, 1),
            ],
        );
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::Random);
        let mut engine = Engine::new(&pop, &config, 1);
        engine.overlay.attach(p(0), Member::Source).unwrap();
        engine.overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        assert!(engine.replace_and_adopt(Member::Source, p(0), p(2)));
        assert_eq!(engine.overlay.parent(p(2)), Some(Member::Source));
        assert_eq!(engine.overlay.parent(p(0)), Some(Member::Peer(p(2))));
        // b rides along under a.
        assert_eq!(engine.overlay.parent(p(1)), Some(Member::Peer(p(0))));
        assert_eq!(engine.overlay.delay(p(1)), Some(3));
        engine.overlay.validate().unwrap();
    }

    #[test]
    fn replace_and_adopt_refuses_when_old_child_would_break() {
        // j has l=1; being adopted at delay 2 would violate it.
        let pop = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(2, 1)]);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::Random);
        let mut engine = Engine::new(&pop, &config, 1);
        engine.overlay.attach(p(0), Member::Source).unwrap();
        assert!(!engine.replace_and_adopt(Member::Source, p(0), p(1)));
        assert_eq!(engine.overlay.parent(p(0)), Some(Member::Source));
        assert_eq!(engine.overlay.parent(p(1)), None);
    }

    #[test]
    fn churn_departure_orphans_children_and_arrival_restores() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let mut engine = Engine::new(&chain_population(), &config, 3);
        engine.run_to_convergence().expect("converges");

        // Force peer 0 (the source child) offline.
        struct KillPeer0;
        impl ChurnProcess for KillPeer0 {
            fn step(&mut self, online: &mut [bool], _rng: &mut SimRng) -> lagover_sim::Transitions {
                online[0] = false;
                lagover_sim::Transitions {
                    departures: 1,
                    arrivals: 0,
                }
            }
        }
        engine.apply_churn(&mut KillPeer0);
        assert!(!engine.is_online(p(0)));
        assert!(!engine.is_converged());
        assert_eq!(engine.overlay.parent(p(1)), None, "orphaned");
        // The orphan keeps its own child: fragment reuse.
        assert_eq!(engine.overlay.parent(p(2)), Some(Member::Peer(p(1))));

        // Remaining two peers re-converge (l=2 and l=3 both fit).
        let at = engine.run_to_convergence();
        assert!(at.is_some(), "survivors re-converge");
    }

    #[test]
    fn satisfied_fraction_is_one_when_everyone_offline() {
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let mut engine = Engine::new(&chain_population(), &config, 5);
        struct KillAll;
        impl ChurnProcess for KillAll {
            fn step(&mut self, online: &mut [bool], _rng: &mut SimRng) -> lagover_sim::Transitions {
                let n = online.len();
                online.iter_mut().for_each(|o| *o = false);
                lagover_sim::Transitions {
                    departures: n,
                    arrivals: 0,
                }
            }
        }
        engine.apply_churn(&mut KillAll);
        assert_eq!(engine.satisfied_fraction(), 1.0);
        assert!(engine.is_converged());
        assert_eq!(engine.online_count(), 0);
    }

    #[test]
    fn crash_is_silent_until_detected_then_reclaimed() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let mut engine = Engine::new(&chain_population(), &config, 3);
        engine.run_to_convergence().expect("converges");
        // Converged chain: source -> 0 -> 1 -> 2 (the only feasible
        // shape with source fanout 1 and these constraints).
        assert_eq!(engine.overlay.parent(p(1)), Some(Member::Peer(p(0))));

        assert!(engine.inject_crash(p(0)));
        assert!(engine.is_crashed(p(0)));
        assert!(!engine.is_online(p(0)));
        // Silent: unlike churn, the victim keeps its edges for now.
        assert_eq!(engine.overlay.parent(p(1)), Some(Member::Peer(p(0))));
        assert_eq!(engine.overlay.parent(p(0)), Some(Member::Source));
        assert!(
            engine.stale_chain_count() >= 1,
            "live chain through a corpse"
        );

        // After detection_timeout rounds every edge touching the victim
        // is gone — either the children walked away or the engine
        // reclaimed them.
        for _ in 0..=engine.config().detection_timeout {
            engine.step();
        }
        assert_eq!(engine.overlay.parent(p(0)), None);
        assert!(engine.overlay.children(p(0)).is_empty());
        assert_eq!(engine.stale_chain_count(), 0);
        assert!(engine.counters().crashes == 1);
        assert!(engine.counters().failure_detections >= 1 || engine.orphan_count() > 0);

        // The survivors re-converge without the victim (l=2 under the
        // source, l=3 below).
        assert!(engine.run_to_convergence().is_some(), "self-healing");
        engine.overlay().validate().unwrap();
    }

    #[test]
    fn batched_action_profiling_keeps_first_action_order_and_every_sum() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
        let mut engine = Engine::new(&chain_population(), &config, 1);
        engine.obs_mut().enable_profiler();
        engine.overlay.attach(p(0), Member::Source).unwrap();
        let mut ledger = ActionLedger::default();
        let phases = |engine: &Engine| -> Vec<(String, Work)> {
            let profiler = engine.obs().profiler().expect("enabled");
            let phases = profiler.phases().iter();
            phases
                .map(|phase| (phase.name.clone(), phase.work))
                .collect()
        };

        // A maintenance action, then the same peer settled: one more
        // count and nothing else; the idle phase is not recorded.
        engine.act_on_profiled(&mut ledger, p(0));
        engine.act_on_profiled(&mut ledger, p(0));
        assert!(phases(&engine).is_empty(), "nothing before the flush");
        engine.flush_actions(&mut ledger);
        let idle = Work {
            actions: 2,
            ..Work::default()
        };
        assert_eq!(phases(&engine), [("maintenance".to_string(), idle)]);

        // Interleaved phases: spans open and close, sums stay exact.
        for q in [p(1), p(0), p(2)] {
            engine.act_on_profiled(&mut ledger, q);
        }
        engine.flush_actions(&mut ledger);
        let recorded = phases(&engine);
        assert_eq!(recorded[0].0, "maintenance");
        assert_eq!(recorded[1].0, "construction");
        assert_eq!(recorded[0].1.actions, 3);
        assert_eq!(recorded[1].1.actions, 2);
        assert_eq!(recorded[0].1.rng_draws, 0);
        assert_eq!(recorded[1].1.rng_draws, engine.rng_draws());
        assert_eq!(
            recorded[1].1.oracle_queries,
            engine.counters().oracle_queries
        );
        assert_eq!(recorded[1].1.attaches, engine.counters().attaches);
        engine.flush_actions(&mut ledger);
        assert_eq!(phases(&engine), recorded, "an empty ledger records nothing");
    }

    proptest::proptest! {
        /// The one-pass count is the per-peer walk's, on random forests
        /// with crashed interiors — and with raw parent cycles spliced
        /// in, self-parents included, where the walk runs out of budget
        /// and the pass meets itself.
        #[test]
        fn stale_chain_count_matches_the_walk_from_every_peer(
            links in proptest::collection::vec((0u32..5, 0usize..64), 1..48),
            cycles in proptest::collection::vec((0usize..64, 0usize..64), 0..4),
            crashed in proptest::collection::vec(0usize..64, 0..12),
        ) {
            let n = links.len();
            let population = Population::new(1, vec![Constraints::new(0, 1); n]);
            let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::Random);
            let mut engine = Engine::new(&population, &config, 1);
            // Only parent pointers and liveness matter to either count.
            for (i, &(kind, k)) in links.iter().enumerate() {
                let parent = match kind {
                    0 => None,
                    1 => Some(Member::Source),
                    _ if i == 0 => Some(Member::Source),
                    _ => Some(Member::Peer(p((k % i) as u32))),
                };
                engine.overlay.raw_set_parent(p(i as u32), parent);
            }
            for &(a, b) in &cycles {
                let parent = Some(Member::Peer(p((b % n) as u32)));
                engine.overlay.raw_set_parent(p((a % n) as u32), parent);
            }
            for &q in &crashed {
                engine.inject_crash(p((q % n) as u32));
            }
            let walked = population
                .peer_ids()
                .filter(|&q| engine.is_online(q) && chain_is_stale(&engine.overlay, &engine.online, q))
                .count();
            proptest::prop_assert_eq!(engine.stale_chain_count(), walked);
        }
    }

    #[test]
    fn crashed_peers_never_rejoin_through_churn() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
        let mut engine = Engine::new(&chain_population(), &config, 4);
        engine.inject_crash(p(1));
        // A churn process that revives every offline peer.
        let mut revive = lagover_sim::BernoulliChurn::new(0.0, 1.0);
        engine.apply_churn(&mut revive);
        assert!(!engine.is_online(p(1)), "crash-stop is permanent");
        assert_eq!(engine.counters().churn_arrivals, 0);
        // A second crash of the same (now offline) peer is a no-op.
        assert!(!engine.inject_crash(p(1)));
        assert_eq!(engine.counters().crashes, 1);
    }

    #[test]
    fn scheduled_crashes_fire_from_the_plan() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let mut engine = Engine::new(&chain_population(), &config, 5);
        engine.set_faults(FaultPlan::none().with_crash(3, 2));
        for _ in 0..2 {
            engine.step();
        }
        assert!(!engine.is_crashed(p(2)), "not yet due");
        for _ in 0..3 {
            engine.step();
        }
        assert!(engine.is_crashed(p(2)));
        assert_eq!(engine.crashed_count(), 1);
    }

    #[test]
    fn oracle_blackout_degrades_to_source_and_recovers() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let mut engine = Engine::new(&chain_population(), &config, 6);
        engine.set_faults(FaultPlan::none().with_blackout(0, 6));
        let at = engine.run_to_convergence();
        assert!(at.is_some(), "timeout fallback routes around the outage");
        assert!(engine.counters().oracle_outages > 0);
    }

    #[test]
    fn message_loss_slows_but_does_not_stop_construction() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(5_000);
        let mut engine = Engine::new(&chain_population(), &config, 7);
        engine.set_faults(FaultPlan::none().with_message_loss(0.5));
        assert!(engine.run_to_convergence().is_some());
        assert!(engine.counters().messages_lost > 0);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(2_000);
        let mut plain = Engine::new(&chain_population(), &config, 9);
        let mut faulted = Engine::new(&chain_population(), &config, 9);
        faulted.set_faults(FaultPlan::none());
        for _ in 0..50 {
            plain.step();
            faulted.step();
        }
        assert_eq!(
            plain.snapshot().to_json_string(),
            faulted.snapshot().to_json_string(),
            "an empty plan must not perturb the run"
        );
    }

    #[test]
    fn snapshot_round_trips_fault_state() {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
        let mut engine = Engine::new(&chain_population(), &config, 10);
        engine.set_faults(FaultPlan::none().with_message_loss(0.1).with_blackout(4, 2));
        engine.inject_crash(p(2));
        engine.step();
        let json = engine.snapshot().to_json_string();
        let restored = Engine::restore(EngineSnapshot::from_json_str(&json).unwrap());
        assert!(restored.is_crashed(p(2)));
        assert_eq!(restored.crashed_count(), 1);
        assert_eq!(restored.faults(), engine.faults());
        assert_eq!(restored.snapshot().to_json_string(), json);
    }
}
