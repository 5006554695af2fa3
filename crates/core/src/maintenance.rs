//! The maintenance protocol (Algorithm 1 and §3.4).
//!
//! A node whose chain reaches the source but whose latency constraint is
//! violated must eventually discard its parent and re-enter
//! construction — but *knee-jerk* reactions waste the structure already
//! built (§3.2), so only the node best positioned to act should leave:
//!
//! * **Greedy** — the §3.2 lemma proves the *first* (most upstream)
//!   violated node in a chain observes exactly `DelayAt = l + 1`, and
//!   only it needs to act; it leaves immediately. We implement the
//!   direct generalization "violated while my parent is satisfied",
//!   which coincides with the lemma's condition on greedily-built
//!   chains and stays safe after source displacements.
//! * **Hybrid** — edges carry no latency ordering, so any violated node
//!   may need to act; to dampen reactions it waits
//!   `maintenance_timeout` consecutive violated rounds before leaving
//!   (§3.4: "a more aggressive manner of discarding parent node is
//!   necessary … node i waits for a (maintenance) timeout").
//!
//! Maintenance applies only to *rooted* nodes (`Root(i) = 0` is part of
//! the paper's trigger); fragments keep negotiating through their root.

use crate::config::Algorithm;
use crate::engine::{Engine, DETECTION_TIMEOUT};
use crate::node::{Member, PeerId};

/// The answer to `p`'s liveness probe of its parent: `None` for the
/// source, which is never probed.
fn parent_answers(engine: &Engine, p: PeerId) -> Option<bool> {
    match engine.overlay.parent(p) {
        Some(Member::Peer(q)) => Some(engine.is_online(q)),
        Some(Member::Source) | None => None,
    }
}

/// One maintenance evaluation at parented peer `p`.
///
/// Before the latency check, `p` probes its parent's liveness: a
/// crash-stop failed parent is still in the overlay (crashes are
/// silent), so `p` counts consecutive silent rounds and — once
/// `DETECTION_TIMEOUT` of them accumulate — declares the parent dead
/// and detaches, keeping its own subtree. Graceful churn never reaches
/// this path: a churn departure clears its edges in the same round, so
/// a parented peer's parent is online in every churn-only run.
///
/// A satisfied peer, and a member of an unrooted fragment, leave here
/// with the parent answering, both counters at zero and — their
/// verification having passed on the way in — nothing to do until a
/// neighbour changes: the two places a peer is marked settled
/// (DESIGN.md §13.4). Never while the lists may lie: there the
/// stabilize rule verifies past the neighbourhood (the saturated-cycle
/// walk).
pub(crate) fn maintain(engine: &mut Engine, p: PeerId) {
    match parent_answers(engine, p) {
        Some(false) => {
            engine.proto[p.index()].parent_silent_rounds += 1;
            if engine.proto[p.index()].parent_silent_rounds >= DETECTION_TIMEOUT {
                engine.failure_detach(p);
            }
            return;
        }
        Some(true) => engine.proto[p.index()].parent_silent_rounds = 0,
        None => {}
    }
    // No actual DelayAt on an unrooted chain; the fragment root
    // negotiates.
    if engine.is_satisfied(p) || !engine.overlay.is_rooted(p) {
        engine.proto[p.index()].violation_rounds = 0;
        if !engine.overlay.lists_may_lie() {
            engine.overlay.settle(p);
        }
        return;
    }
    match engine.config.algorithm {
        Algorithm::Greedy => {
            if parent_is_satisfied(engine, p) {
                engine.maintenance_detach(p);
            }
        }
        Algorithm::Hybrid => {
            engine.proto[p.index()].violation_rounds += 1;
            if engine.proto[p.index()].violation_rounds >= engine.config.maintenance_timeout {
                engine.maintenance_detach(p);
            }
        }
    }
}

/// Whether [`maintain`] would leave everything at `p` as it is: the
/// parent answers, `p` is satisfied or its chain unrooted, and neither
/// counter has anything to forget. Read-only; with a clean
/// [`crate::stabilize::diagnose`] this is what a settled bit claims.
pub(crate) fn is_quiet(engine: &Engine, p: PeerId) -> bool {
    let st = &engine.proto[p.index()];
    let heard = match parent_answers(engine, p) {
        Some(answers) => answers && st.parent_silent_rounds == 0,
        None => true,
    };
    heard && (engine.is_satisfied(p) || !engine.overlay.is_rooted(p)) && st.violation_rounds == 0
}

/// Whether `p`'s parent meets its own latency constraint (the source
/// trivially does) — i.e. `p` is the most upstream violated node of its
/// chain.
fn parent_is_satisfied(engine: &Engine, p: PeerId) -> bool {
    match engine.overlay.parent(p) {
        Some(Member::Source) => true,
        Some(Member::Peer(q)) => engine.is_satisfied(q),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, ConstructionConfig};
    use crate::node::{Constraints, Population};
    use crate::oracle::OracleKind;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    /// source(f1) -> a(l1) -> b(l1!) -> c(l3): b is violated (delay 2),
    /// c is violated only transitively (delay 3 <= 3 actually fine).
    fn violated_engine(algorithm: Algorithm) -> Engine {
        let pop = Population::new(
            1,
            vec![
                Constraints::new(1, 1),
                Constraints::new(1, 1),
                Constraints::new(0, 3),
            ],
        );
        let config =
            ConstructionConfig::new(algorithm, OracleKind::Random).with_maintenance_timeout(2);
        let mut e = Engine::new(&pop, &config, 1);
        e.overlay.attach(p(0), Member::Source).unwrap();
        e.overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        e.overlay.attach(p(2), Member::Peer(p(1))).unwrap();
        e
    }

    #[test]
    fn greedy_detaches_first_violated_node_immediately() {
        let mut e = violated_engine(Algorithm::Greedy);
        // b (peer 1) observes DelayAt = l + 1 = 2 and its parent is
        // satisfied: the lemma condition.
        assert_eq!(e.overlay.delay(p(1)), Some(2));
        maintain(&mut e, p(1));
        assert_eq!(e.overlay.parent(p(1)), None);
        assert_eq!(e.counters.maintenance_detaches, 1);
        // c rides along in b's fragment.
        assert_eq!(e.overlay.parent(p(2)), Some(Member::Peer(p(1))));
    }

    #[test]
    fn greedy_downstream_node_does_not_react() {
        let pop = Population::new(
            1,
            vec![
                Constraints::new(1, 1),
                Constraints::new(1, 1),
                Constraints::new(0, 2),
            ],
        );
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let mut e = Engine::new(&pop, &config, 1);
        e.overlay.attach(p(0), Member::Source).unwrap();
        e.overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        e.overlay.attach(p(2), Member::Peer(p(1))).unwrap();
        // c (peer 2, delay 3 > l=2) is violated, but so is its parent b:
        // only b acts (§3.2 proof: downstream nodes "do not need to do
        // any thing").
        maintain(&mut e, p(2));
        assert_eq!(e.overlay.parent(p(2)), Some(Member::Peer(p(1))));
        maintain(&mut e, p(1));
        assert_eq!(e.overlay.parent(p(1)), None);
    }

    #[test]
    fn satisfied_node_is_left_alone() {
        let mut e = violated_engine(Algorithm::Greedy);
        maintain(&mut e, p(0));
        maintain(&mut e, p(2));
        assert_eq!(e.counters.maintenance_detaches, 0);
    }

    #[test]
    fn hybrid_waits_for_the_timeout() {
        let mut e = violated_engine(Algorithm::Hybrid);
        maintain(&mut e, p(1));
        assert!(e.overlay.parent(p(1)).is_some(), "damped");
        maintain(&mut e, p(1));
        assert_eq!(e.overlay.parent(p(1)), None, "timeout of 2 reached");
        assert_eq!(e.counters.maintenance_detaches, 1);
    }

    #[test]
    fn hybrid_violation_counter_resets_when_cleared() {
        let mut e = violated_engine(Algorithm::Hybrid);
        maintain(&mut e, p(1));
        assert_eq!(e.proto[1].violation_rounds, 1);
        // The violation clears: a (peer 0) leaves, chain unroots.
        e.overlay.detach(p(0)).unwrap();
        maintain(&mut e, p(1));
        assert_eq!(e.proto[1].violation_rounds, 0, "unrooted resets damping");
    }

    #[test]
    fn silent_parent_is_detected_after_timeout() {
        // DETECTION_TIMEOUT is 3.
        let mut e = violated_engine(Algorithm::Hybrid);
        e.inject_crash(p(0));
        // The edge survives while b is still counting silence.
        for observed in 1..3 {
            maintain(&mut e, p(1));
            assert!(
                e.overlay.parent(p(1)).is_some(),
                "still counting after {observed} silent round(s)"
            );
            assert_eq!(e.proto[1].parent_silent_rounds, observed);
        }
        maintain(&mut e, p(1));
        assert_eq!(e.overlay.parent(p(1)), None, "parent declared crashed");
        assert_eq!(e.counters.failure_detections, 1);
        assert_eq!(e.counters.maintenance_detaches, 0, "not a latency detach");
        // c rides along in b's fragment, exactly like a maintenance
        // detach.
        assert_eq!(e.overlay.parent(p(2)), Some(Member::Peer(p(1))));
    }

    #[test]
    fn silence_counter_resets_while_parent_is_alive() {
        let mut e = violated_engine(Algorithm::Hybrid);
        e.proto[1].parent_silent_rounds = 2;
        maintain(&mut e, p(1));
        assert_eq!(e.proto[1].parent_silent_rounds, 0);
    }

    #[test]
    fn unrooted_fragments_never_trigger_maintenance() {
        let pop = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(0, 1)]);
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::Random);
        let mut e = Engine::new(&pop, &config, 1);
        e.overlay.attach(p(1), Member::Peer(p(0))).unwrap();
        // Peer 1's speculative delay (2) violates l=1, but the chain is
        // unrooted: Root(i) = 0 is part of the paper's trigger.
        maintain(&mut e, p(1));
        assert_eq!(e.overlay.parent(p(1)), Some(Member::Peer(p(0))));
        assert_eq!(e.counters.maintenance_detaches, 0);
    }
}
