//! Self-stabilization from arbitrary corrupted state.
//!
//! Two halves of one robustness story:
//!
//! * **Injection** — [`apply_corruption`] interprets a
//!   `lagover_sim::CorruptionPlan` against a live engine, mutating the
//!   overlay's raw state (parent pointers, child lists, cached chain
//!   roots, advertised fanouts) into shapes [`Overlay::validate`]
//!   rejects: parent cycles, forged caches, dangling pointers, fanout
//!   overflows, orphaned-subtree grafts, stale `ChainRoot` entries.
//! * **Detection and repair** — [`verify`] runs at the top of every
//!   peer action that is not skipped as settled, on a forest whose
//!   lists may lie (the `stabilize` maintenance rule): the peer checks
//!   its own cached chain state against its parent's actual reply and
//!   its child list against each child's actual pointer. Only a raw
//!   mutation or repair primitive can make any of that state lie, and
//!   each one marks the forest for good
//!   ([`crate::overlay::Overlay::lists_may_lie`]) and un-settles
//!   everybody, so detection is never delayed: the first action of
//!   every peer after an injection runs the rule in full. The mark is
//!   the engine's whole corruption mode: while it is set the round-end
//!   invariant checks are off, the [`sweep`] runs every round and
//!   nobody settles, and nothing clears it. On a forest
//!   written only by the checked mutations, or parsed from a validated
//!   document, [`diagnose`] has nothing to find — debug builds assert
//!   so at every action — and the rule is skipped. Where it runs on a
//!   valid overlay every check is a pure comparison — no RNG draw, no
//!   counter, no event — so runs are byte-identical either way. On an
//!   inconsistency the peer emits `InconsistencyDetected` (with a
//!   cause from the [`InconsistencyCause`] taxonomy), repairs with the
//!   *least* destructive local action — cache rewrite, child eviction,
//!   fanout restoration — and falls back to the detach/re-attach
//!   ladder (`RepairKind::Detach`) only when the edge itself is the
//!   lie.
//!
//! Convergence (proved as a property test at n ∈ {16, 120, 1000}; the
//! bound is argued in DESIGN.md §15): every forged cache is rewritten
//! the first time its owner acts; any parent cycle either contains an
//! edge violating `hops(p) == min(hops(parent) + 1, horizon)` (hops
//! cannot strictly increase around a cycle), so some member detects a
//! mismatch, or has every member stamped at the horizon, where the
//! clamp holds all the way round — so while the lists may lie a
//! saturated peer takes the walk regardless; either way the bounded
//! [`Overlay::checked_walk`] names the cycle and detaches it;
//! one-sided edges are detected from both ends
//! (`BrokenBacklink` by the child, `ForeignChild` by the parent), and
//! either repair alone restores consistency. Each round strictly
//! shrinks the set of inconsistent local states, and the ordinary
//! construction protocol re-attaches the detached remainder.

use lagover_obs::{InconsistencyCause, RepairKind};
use lagover_sim::{CorruptionClass, CorruptionPlan};

use crate::engine::{Engine, DETECTION_TIMEOUT};
use crate::node::{Member, PeerId};
use crate::overlay::ChainRoot;

/// Applies a corruption plan to the engine's current overlay as a
/// one-shot snapshot mutation, returning the number of peer states
/// mutated. Victim choice and payloads come entirely from the plan's
/// own seeded streams — the engine's RNG is never touched, so a plan
/// with no effect leaves the run byte-identical.
///
/// A corruption models a transient fault in a running peer's memory,
/// so an offline victim is passed over, and no list of an offline peer
/// is grafted onto: an offline peer takes no action, so nothing could
/// repair its state until it rejoins.
///
/// A non-zero application has marked the forest — every corruption is
/// a raw write — which suspends the round-end invariant assertions
/// that corrupted state is *supposed* to fail; it also rebuilds the
/// oracle index, since cached delays may have been forged wholesale.
pub fn apply_corruption(engine: &mut Engine, plan: &CorruptionPlan) -> u64 {
    if plan.is_empty() {
        return 0;
    }
    let n = engine.population().len();
    let mut injected = 0u64;
    for &class in plan.classes() {
        for v in plan.victims(class, n) {
            let p = PeerId::new(v);
            if engine.is_online(p) && corrupt_one(engine, plan, class, p) {
                injected += 1;
            }
        }
    }
    if injected > 0 {
        engine.counters.corruptions_injected += injected;
        engine.rebuild_oracle_index();
    }
    injected
}

/// Applies one corruption of `class` to peer `p`. Returns whether any
/// state actually changed (a victim with no children cannot overflow a
/// fanout, for example).
fn corrupt_one(
    engine: &mut Engine,
    plan: &CorruptionPlan,
    class: CorruptionClass,
    p: PeerId,
) -> bool {
    let n = engine.population().len() as u64;
    let payload = plan.payload(class, p.get());
    // An orphan graft's target list: index n is the source's.
    let graft = payload % (n + 1);
    let graftable =
        graft < n && graft != u64::from(p.get()) && engine.is_online(PeerId::new(graft as u32));
    let overlay = &mut engine.overlay;
    match class {
        CorruptionClass::ParentCycle => {
            let old_parent = overlay.parent(p);
            let kids = overlay.children(p);
            if let Some(&c) = kids.get((payload % kids.len().max(1) as u64) as usize) {
                // Splice p under its own child: a genuine cycle, with
                // the backlink added when a slot is free so the only
                // local evidence is the hops contradiction.
                if let Some(parent) = old_parent {
                    overlay.evict_child(parent, p);
                }
                overlay.raw_set_parent(p, Some(Member::Peer(c)));
                overlay.raw_add_child(c, p);
            } else {
                // Childless victim: the degenerate one-node cycle.
                if let Some(parent) = old_parent {
                    overlay.evict_child(parent, p);
                }
                overlay.raw_set_parent(p, Some(Member::Peer(p)));
                overlay.raw_add_child(p, p);
            }
            true
        }
        CorruptionClass::ForgedCache => {
            let hops = (payload % (n + 1)) as u32;
            let root = if payload & 1 == 1 {
                ChainRoot::Source
            } else {
                ChainRoot::Fragment(p)
            };
            // Guarantee an actual change.
            let hops = if root == overlay.root(p) && hops == overlay.stamped_hops(p) {
                hops.wrapping_add(1)
            } else {
                hops
            };
            overlay.raw_set_cache(p, root, hops);
            true
        }
        CorruptionClass::DanglingParent => {
            if n < 2 {
                return false;
            }
            let mut target = (payload % n) as u32;
            if target == p.get() {
                target = (target + 1) % n as u32;
            }
            // One-sided overwrite: the old parent keeps listing p
            // (ForeignChild there) and the new target never agreed to
            // serve p (BrokenBacklink here).
            overlay.raw_set_parent(p, Some(Member::Peer(PeerId::new(target))));
            true
        }
        CorruptionClass::FanoutOverflow => {
            let kids = overlay.children(p).len() as u64;
            if kids == 0 {
                return false;
            }
            // Forge the advertised fanout strictly below the live child
            // count (children physically cannot exceed the build-time
            // capacity, so overflow can only be forged downward).
            overlay.raw_set_fanout(p, (payload % kids) as u32);
            true
        }
        CorruptionClass::OrphanGraft => {
            // Graft p into a child list that never adopted it, or else
            // the source's, whose list is unbounded and therefore also
            // models fanout overflow at the root.
            if !(graftable && overlay.raw_add_child(PeerId::new(graft as u32), p)) {
                overlay.raw_push_source_child(p);
            }
            true
        }
        CorruptionClass::StaleRoot => {
            match overlay.parent(p) {
                None => {
                    // Already a fragment root: forge its cache to claim
                    // the chain reaches the source.
                    overlay.raw_set_cache(p, ChainRoot::Source, (payload % n) as u32 + 1);
                }
                Some(parent) => {
                    // Cut p loose one-sidedly, leaving its whole
                    // subtree's caches claiming the old root.
                    overlay.evict_child(parent, p);
                    overlay.raw_set_parent(p, None);
                }
            }
            true
        }
    }
}

/// The least destructive local repair for a diagnosed inconsistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repair {
    /// Clear the self-loop: pointer, own child entry, cache.
    HealSelfParent,
    /// Drop this entry from the peer's child list.
    EvictChild(PeerId),
    /// Advertise the build-time fanout again.
    RestoreFanout,
    /// Overwrite the peer's stamp with this `(root, hops)`.
    RewriteCache(ChainRoot, u32),
    /// The edge itself is the lie: detach and re-enter construction.
    Detach,
    /// The peer's stamp already matches the chain walk — the
    /// *parent's* is the forged one, and its own verification rewrites
    /// it.
    LeaveToParent,
}

/// The detection half of the stabilize rule: one bounded local
/// verification for `p` — its cached chain state against its parent's
/// actual reply, its child list against each child's actual pointer —
/// naming the first inconsistency and its repair. Read-only, and on a
/// valid overlay nothing but equality checks on cached state, which is
/// what lets the settled-peer audit ([`Engine::action_is_noop`]) and
/// the checked-forest audit in [`Engine::act_on`] re-run it.
pub(crate) fn diagnose(engine: &Engine, p: PeerId) -> Option<(InconsistencyCause, Repair)> {
    let overlay = &engine.overlay;
    let parent = overlay.parent(p);

    // A peer listing itself as its own parent can never receive the
    // feed; the degenerate cycle is broken immediately.
    if parent == Some(Member::Peer(p)) {
        return Some((InconsistencyCause::SelfParent, Repair::HealSelfParent));
    }

    // Children are polled every round anyway; a listed child whose own
    // pointer disagrees is a grafted or half-spliced entry. A child
    // listed *twice* is a ghost: a stale entry left behind by a
    // one-sided corruption that the victim later re-attached over, so
    // both entries carry a consistent backlink and only the duplicate
    // scan can see it. Ghosts silently pin a child slot, shrinking the
    // overlay's usable capacity below the sufficiency bound.
    let kids = overlay.children(p);
    let foreign = kids
        .iter()
        .enumerate()
        .find(|&(k, &c)| overlay.parent(c) != Some(Member::Peer(p)) || kids[..k].contains(&c));
    if let Some((_, &c)) = foreign {
        return Some((InconsistencyCause::ForeignChild, Repair::EvictChild(c)));
    }

    // An advertised fanout that disagrees with the build-time capacity
    // was forged — too high overflows the child list, too low silently
    // hides capacity the overlay needs (a detached peer advertising 0
    // can never adopt a displacement victim, deadlocking repair).
    // Restoring the constraint the peer itself knows is always correct.
    if overlay.advertised_fanout(p) != overlay.child_capacity(p) {
        return Some((InconsistencyCause::FanoutOverflow, Repair::RestoreFanout));
    }

    let Some(parent) = parent else {
        // A fragment root's cache must say so; anything else is a
        // stale ChainRoot entry that would fool `DelayAt`.
        let says_so = overlay.root(p) == ChainRoot::Fragment(p) && overlay.stamped_hops(p) == 0;
        return (!says_so).then_some((
            InconsistencyCause::StaleRoot,
            Repair::RewriteCache(ChainRoot::Fragment(p), 0),
        ));
    };
    // The parent's reply to the round's liveness probe carries its
    // child list; a parent that does not list p never agreed to serve
    // it.
    let listed = match parent {
        Member::Source => overlay.source_children().contains(&p),
        Member::Peer(q) => overlay.children(q).contains(&p),
    };
    if !listed {
        return Some((InconsistencyCause::BrokenBacklink, Repair::Detach));
    }
    // The same reply carries the parent's stamp; p's must sit one hop
    // below it, saturating at the horizon. A mismatch either means a
    // stale cache somewhere on the chain or a genuine cycle; the
    // bounded walk distinguishes the two. Saturation also makes a
    // cycle of peers stamped at the horizon locally consistent
    // (`min(horizon + 1, horizon)` all the way round), so while the
    // lists may lie a saturated peer takes the walk regardless.
    let mismatch = !overlay.stamp_is_under(p, parent);
    let suspect = overlay.lists_may_lie() && overlay.stamped_hops(p) >= overlay.horizon();
    if mismatch || suspect {
        match overlay.checked_walk(p) {
            Err(_) => return Some((InconsistencyCause::Cycle, Repair::Detach)),
            Ok((true_root, true_hops)) if mismatch => {
                let true_hops = true_hops.min(overlay.horizon());
                let repair = if (overlay.root(p), overlay.stamped_hops(p)) != (true_root, true_hops)
                {
                    Repair::RewriteCache(true_root, true_hops)
                } else {
                    Repair::LeaveToParent
                };
                return Some((InconsistencyCause::CacheMismatch, repair));
            }
            Ok(_) => {}
        }
    }
    None
}

/// The stabilize rule, run at the top of `p`'s action: [`diagnose`],
/// then carry out the repair it names. Returns whether an inconsistency
/// was found (in which case the repair consumed `p`'s action for this
/// round). A clean diagnosis draws no RNG, moves no counter and emits
/// no event, which is what lets [`Engine::act_on`] skip the rule on a
/// checked forest without moving a byte.
pub(crate) fn verify(engine: &mut Engine, p: PeerId) -> bool {
    let Some((cause, repair)) = diagnose(engine, p) else {
        return false;
    };
    engine.note_inconsistency(p, cause);
    match repair {
        Repair::HealSelfParent => {
            engine.overlay.heal_self_parent(p);
            engine.proto[p.index()].reset();
            engine.note_repair(p, RepairKind::Detach);
        }
        Repair::EvictChild(c) => {
            engine.overlay.evict_child(Member::Peer(p), c);
            engine.note_repair(p, RepairKind::ChildEvict);
        }
        Repair::RestoreFanout => {
            engine.overlay.restore_fanout(p);
            engine.note_repair(p, RepairKind::FanoutRestore);
        }
        Repair::RewriteCache(root, hops) => {
            engine.overlay.raw_set_cache(p, root, hops);
            engine.note_repair(p, RepairKind::CacheRewrite);
        }
        Repair::Detach => engine.stabilize_detach(p),
        Repair::LeaveToParent => {}
    }
    true
}

/// The engine-side stabilization sweep, run once per round while the
/// lists may lie. Covers the two inconsistencies no
/// peer action can reach:
///
/// * the **source's** child list (the source never runs `act_on`) —
///   foreign and duplicate entries are evicted, which also clears any
///   grafted overflow of the source fanout;
/// * **detected crash victims** — a corpse never acts, so edges a
///   corruption re-created on it (a dangling parent pointer, grafted
///   children) are reclaimed here, exactly like the original
///   post-detection reclaim.
pub(crate) fn sweep(engine: &mut Engine) {
    // Source list: entry c is legitimate iff c's own pointer says
    // source *and* this is its first occurrence.
    loop {
        let stale = engine
            .overlay
            .source_children()
            .iter()
            .enumerate()
            .find(|&(i, &c)| {
                engine.overlay.parent(c) != Some(Member::Source)
                    || engine.overlay.source_children()[..i].contains(&c)
            })
            .map(|(_, &c)| c);
        let Some(c) = stale else { break };
        engine.note_inconsistency(c, InconsistencyCause::ForeignChild);
        engine.overlay.evict_child(Member::Source, c);
        engine.note_repair(c, RepairKind::ChildEvict);
    }

    // Fully-detected corpses must stay edge-free.
    for i in 0..engine.crashed.len() {
        if !engine.crashed[i] || engine.crash_silent[i] < DETECTION_TIMEOUT {
            continue;
        }
        let p = PeerId::new(i as u32);
        if engine.overlay.parent(p).is_some() || !engine.overlay.children(p).is_empty() {
            engine.note_inconsistency(p, InconsistencyCause::BrokenBacklink);
            let orphans = engine.overlay.remove_peer(p);
            for orphan in orphans {
                engine.proto[orphan.index()].reset();
            }
            engine.note_repair(p, RepairKind::Reclaim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, ConstructionConfig};
    use crate::node::{Constraints, Population};
    use crate::oracle::OracleKind;
    use lagover_sim::FaultPlan;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    /// Source feeds 2; enough slack for any single-peer damage.
    fn population() -> Population {
        Population::new(
            2,
            vec![
                Constraints::new(3, 1),
                Constraints::new(3, 2),
                Constraints::new(1, 3),
                Constraints::new(1, 3),
                Constraints::new(0, 4),
                Constraints::new(0, 4),
            ],
        )
    }

    fn converged_engine(seed: u64) -> Engine {
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
            .with_max_rounds(3_000);
        let mut engine = Engine::new(&population(), &config, seed);
        engine.run_to_convergence().expect("converges");
        engine
    }

    fn heal(engine: &mut Engine, horizon: u64) -> Option<u64> {
        for round in 1..=horizon {
            engine.step();
            if engine.overlay().validate().is_ok()
                && engine.is_converged()
                && engine.stale_chain_count() == 0
            {
                return Some(round);
            }
        }
        None
    }

    #[test]
    fn every_class_applies_and_heals() {
        for class in CorruptionClass::ALL {
            let mut engine = converged_engine(11);
            let plan = CorruptionPlan::new(7).with_class(class).with_severity(0.5);
            let injected = apply_corruption(&mut engine, &plan);
            assert!(injected > 0, "{class}: nothing injected");
            assert!(engine.overlay().lists_may_lie());
            let healed = heal(&mut engine, 600);
            assert!(healed.is_some(), "{class}: did not re-stabilize");
            assert!(engine.counters().inconsistencies_detected > 0, "{class}");
            assert_eq!(engine.counters().corruptions_injected, injected);
        }
    }

    #[test]
    fn structural_classes_break_validation() {
        for class in [
            CorruptionClass::ParentCycle,
            CorruptionClass::DanglingParent,
            CorruptionClass::OrphanGraft,
            CorruptionClass::FanoutOverflow,
        ] {
            let mut engine = converged_engine(13);
            let plan = CorruptionPlan::new(3).with_class(class).with_severity(0.5);
            assert!(apply_corruption(&mut engine, &plan) > 0);
            assert!(
                engine.overlay().validate().is_err(),
                "{class}: snapshot still validates"
            );
        }
    }

    #[test]
    fn empty_plan_is_a_strict_no_op() {
        let mut a = converged_engine(17);
        let b = converged_engine(17);
        assert_eq!(apply_corruption(&mut a, &CorruptionPlan::new(9)), 0);
        assert!(!a.overlay().lists_may_lie());
        assert_eq!(
            a.snapshot().to_json_string(),
            b.snapshot().to_json_string(),
            "an empty plan must not perturb the engine"
        );
    }

    #[test]
    fn self_parent_loop_is_healed_in_one_action() {
        let mut engine = converged_engine(19);
        let victim = p(2);
        if let Some(parent) = engine.overlay().parent(victim) {
            engine.overlay.evict_child(parent, victim);
        }
        engine
            .overlay
            .raw_set_parent(victim, Some(Member::Peer(victim)));
        engine.overlay.raw_add_child(victim, victim);
        assert!(engine.overlay().validate().is_err());
        assert!(verify(&mut engine, victim), "self-parent detected");
        assert_eq!(engine.overlay().parent(victim), None);
        assert!(!engine.overlay().children(victim).contains(&victim));
        assert!(heal(&mut engine, 400).is_some());
    }

    #[test]
    fn two_node_cycle_is_detected_and_broken() {
        let mut engine = converged_engine(23);
        // Find a parent-child pair of real peers and splice the parent
        // under the child.
        let (a, b) = population()
            .peer_ids()
            .find_map(|q| match engine.overlay().parent(q) {
                Some(Member::Peer(parent)) => Some((parent, q)),
                _ => None,
            })
            .expect("a converged tree on 6 peers has a peer-peer edge");
        if let Some(grand) = engine.overlay().parent(a) {
            engine.overlay.evict_child(grand, a);
        }
        engine.overlay.raw_set_parent(a, Some(Member::Peer(b)));
        engine.overlay.raw_add_child(b, a);
        assert!(engine.overlay().validate().is_err());
        assert!(
            heal(&mut engine, 600).is_some(),
            "cycle broken and re-converged"
        );
        assert!(engine.counters().inconsistencies_detected > 0);
    }

    /// The causes journalled so far, in order.
    fn detected_causes(engine: &Engine) -> Vec<InconsistencyCause> {
        let journal = engine.obs().journal().expect("journal enabled");
        journal
            .iter()
            .filter_map(|event| match *event {
                lagover_obs::Event::InconsistencyDetected { cause, .. } => Some(cause),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_cycle_of_saturated_stamps_is_walked_and_broken_within_a_round() {
        // 0 → 1 → 2 → 0, backlinks and all, every member claiming the
        // source from the horizon: `min(horizon + 1, horizon)` holds
        // all the way round, so no stamp comparison can see it, and
        // Greedy's "violated while my parent is satisfied" never fires
        // inside it either.
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay);
        let mut engine = Engine::new(&population(), &config, 43);
        let horizon = engine.overlay.horizon();
        for (child, parent) in [(0, 2), (1, 0), (2, 1)] {
            engine
                .overlay
                .raw_set_parent(p(child), Some(Member::Peer(p(parent))));
            assert!(engine.overlay.raw_add_child(p(parent), p(child)));
            engine
                .overlay
                .raw_set_cache(p(child), ChainRoot::Source, horizon);
        }
        for member in 0..3 {
            assert_eq!(engine.overlay.spot_check(p(member)), Ok(()));
            assert!(engine.overlay.checked_walk(p(member)).is_err());
        }
        engine.obs_mut().enable_journal(64);
        engine.step();
        assert!(detected_causes(&engine).contains(&InconsistencyCause::Cycle));
        for q in population().peer_ids() {
            assert!(engine.overlay.checked_walk(q).is_ok(), "{q} still cycles");
        }
        assert!(heal(&mut engine, 600).is_some());
    }

    #[test]
    fn a_stamp_forged_past_the_horizon_is_rewritten_to_the_clamped_truth() {
        // The source feeds the chain 0 ← 1 ← … ← 6; every latency is 2,
        // so stamps saturate at 3.
        let pop = Population::new(1, vec![Constraints::new(1, 2); 7]);
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
        let mut engine = Engine::new(&pop, &config, 1);
        engine.overlay.attach(p(0), Member::Source).unwrap();
        for i in 1..7 {
            engine.overlay.attach(p(i), Member::Peer(p(i - 1))).unwrap();
        }
        engine.obs_mut().enable_journal(64);
        // A shallow peer (depth 2) and a deep one (depth 6, stamped 3).
        for (victim, truth) in [(p(1), 2), (p(5), 3)] {
            engine.overlay.raw_set_cache(victim, ChainRoot::Source, 9);
            assert!(verify(&mut engine, victim), "forged {victim} detected");
            assert_eq!(engine.overlay.stamped_hops(victim), truth);
            assert!(!verify(&mut engine, victim), "{victim} clean again");
        }
        assert_eq!(
            detected_causes(&engine),
            [InconsistencyCause::CacheMismatch; 2]
        );
        assert_eq!(engine.overlay.validate(), Ok(()));
    }

    #[test]
    fn ghost_duplicate_child_entry_is_evicted() {
        // A one-sided corruption leaves a stale entry at the old
        // parent; if the victim detaches and re-attaches to that same
        // parent before the stale entry is evicted, the list holds the
        // child twice with a consistent backlink — invisible to the
        // foreign-child rule alone, and silently pinning a child slot
        // the sufficiency bound counts on.
        let pop = Population::new(
            1,
            vec![
                Constraints::new(3, 1),
                Constraints::new(0, 2),
                Constraints::new(0, 9),
            ],
        );
        let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay);
        let mut engine = Engine::new(&pop, &config, 1);
        engine.overlay.attach(p(0), Member::Source).unwrap();
        engine.overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        // Dangling-parent corruption: p1's pointer forged to p2, while
        // p0 keeps listing p1.
        engine
            .overlay
            .raw_set_parent(p(1), Some(Member::Peer(p(2))));
        // p1 verifies first: p2 never agreed to serve it.
        assert!(verify(&mut engine, p(1)), "broken backlink detected");
        assert_eq!(engine.overlay.parent(p(1)), None);
        // p1 re-attaches to p0 before p0 acts: a second, fully
        // consistent entry lands next to the stale one.
        engine.overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        assert_eq!(
            engine
                .overlay
                .children(p(0))
                .iter()
                .filter(|&&c| c == p(1))
                .count(),
            2,
            "the stale entry plus the re-attach make a ghost"
        );
        // p0's own verification names the ghost and evicts exactly one
        // occurrence; the surviving edge stays consistent.
        assert!(verify(&mut engine, p(0)), "ghost detected");
        assert_eq!(engine.overlay.children(p(0)), &[p(1)]);
        assert_eq!(engine.overlay.parent(p(1)), Some(Member::Peer(p(0))));
        assert!(!verify(&mut engine, p(0)), "clean after one eviction");
        assert!(!verify(&mut engine, p(1)), "backlink still consistent");
    }

    #[test]
    fn corruption_of_a_detected_corpse_is_reclaimed_by_the_sweep() {
        let mut engine = converged_engine(29);
        let victim = p(1);
        engine.inject_crash(victim);
        for _ in 0..=u64::from(DETECTION_TIMEOUT) {
            engine.step();
        }
        assert_eq!(engine.overlay().parent(victim), None, "already reclaimed");
        // The adversary re-wires the corpse: a dangling parent pointer
        // and a grafted child entry.
        let plan = CorruptionPlan::new(5)
            .with_class(CorruptionClass::DanglingParent)
            .with_severity(1.0);
        assert!(apply_corruption(&mut engine, &plan) > 0);
        assert!(
            heal(&mut engine, 600).is_some(),
            "corpse edges reclaimed and survivors re-converged"
        );
        assert_eq!(engine.overlay().parent(victim), None);
        assert!(engine.overlay().children(victim).is_empty());
    }

    #[test]
    fn corruption_during_an_oracle_blackout_still_heals() {
        let mut engine = converged_engine(31);
        let blackout_start = engine.round().get();
        engine.set_faults(FaultPlan::none().with_blackout(blackout_start, 30));
        let plan = CorruptionPlan::new(41)
            .with_all_classes()
            .with_severity(0.4);
        assert!(apply_corruption(&mut engine, &plan) > 0);
        assert!(
            heal(&mut engine, 1_200).is_some(),
            "the timeout ladder routes repairs around the outage"
        );
        assert!(
            engine.counters().oracle_outages > 0,
            "blackout was exercised"
        );
    }

    proptest::proptest! {
        /// What the engine's one corruption mode rests on: on a random
        /// converged engine — some of it crashed, so that victims are
        /// passed over — a plan of any class and severity injects
        /// something exactly when it marks the forest.
        #[test]
        fn a_corruption_injects_something_exactly_when_it_marks_the_lists(
            width in 1u32..=3,
            specs in proptest::collection::vec((1u32..=3, 0u32..=2), 2..=16),
            seed in 0u64..100_000,
            crashes in proptest::collection::vec(0u32..16, 0..3),
        ) {
            // Latency tiers as wide as the source's fanout: converges.
            let peers = specs
                .iter()
                .zip(0u32..)
                .map(|(&(fanout, slack), i)| Constraints::new(fanout, i / width + 1 + slack));
            let population = Population::new(width, peers.collect());
            let config = ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
                .with_max_rounds(3_000);
            let mut converged = Engine::new(&population, &config, seed);
            proptest::prop_assert!(converged.run_to_convergence().is_some());
            for &q in &crashes {
                converged.inject_crash(p(q % population.len() as u32));
            }
            for class in CorruptionClass::ALL {
                for severity in [0.0, 0.05, 0.3, 1.0] {
                    let mut engine = Engine::restore(converged.snapshot());
                    let plan = CorruptionPlan::new(seed)
                        .with_class(class)
                        .with_severity(severity);
                    let injected = apply_corruption(&mut engine, &plan) > 0;
                    let marked = engine.overlay().lists_may_lie();
                    proptest::prop_assert!(injected == marked, "{class} at {severity}");
                }
            }
        }
    }

    #[test]
    fn verification_is_silent_on_a_valid_overlay() {
        let mut engine = converged_engine(37);
        let draws = engine.rng_draws();
        for q in population().peer_ids() {
            assert!(!verify(&mut engine, q), "false positive at {q}");
        }
        assert_eq!(engine.rng_draws(), draws, "verification draws no RNG");
        assert_eq!(engine.counters().inconsistencies_detected, 0);
        assert_eq!(engine.counters().repair_actions, 0);
    }
}
