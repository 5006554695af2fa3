//! Tests of the round clock's schedule (DESIGN.md §13.4, "The
//! schedule"): the round that visits only the active peers is, byte for
//! byte, the round that visits every online peer in slot order and lets
//! the settled skip do the rest ([`Engine::step_visiting_everyone`]) —
//! under churn, crashes, corruption and repairs that wake the whole
//! overlay mid-round — and a snapshot carries the schedule with it.

#![cfg(test)]

use lagover_sim::{BernoulliChurn, CorruptionClass, CorruptionPlan, SimRng};
use proptest::prelude::*;

use crate::config::{Algorithm, ConstructionConfig};
use crate::engine::{Engine, EngineSnapshot};
use crate::node::{Constraints, PeerId, Population};
use crate::oracle::OracleKind;
use crate::stabilize::apply_corruption;
use crate::sufficiency::level_reports;

/// Everything a round can change: the serialized engine and its
/// journal.
fn state(engine: &Engine) -> (String, String) {
    let journal = engine.obs().journal().expect("journal enabled");
    (
        engine.snapshot().to_json_string(),
        lagover_jsonio::to_string(journal),
    )
}

/// What happens between two rounds, to both engines alike.
#[derive(Debug, Clone)]
struct History {
    churn: Option<(f64, f64)>,
    /// `(round, peers)`: crash-stop these peers at the start of `round`.
    crashes: (u64, Vec<usize>),
    /// `(round, class, severity)`: one snapshot corruption, repaired in
    /// stabilizing mode, which the engines leave once clean.
    corruption: Option<(u64, usize, f64)>,
    /// `(round, peer, forge)`: forge a fanout downward *outside*
    /// stabilizing mode. It validates clean, so the round runs on, and
    /// the peer's next action repairs it — un-settling everybody while
    /// the peers that acted before it are settled.
    forged: Vec<(u64, usize, u32)>,
}

fn history_strategy(n: usize) -> impl Strategy<Value = History> {
    (
        prop::option::weighted(0.5, (0.0..0.2f64, 0.0..0.6f64)),
        (0u64..40, prop::collection::vec(0..n, 0..6)),
        prop::option::weighted(0.5, (0u64..40, 0..CorruptionClass::ALL.len(), 0.05..0.5f64)),
        prop::collection::vec((0u64..60, 0..n, 0u32..4), 0..6),
    )
        .prop_map(|(churn, crashes, corruption, forged)| History {
            churn,
            crashes,
            corruption,
            forged,
        })
}

/// Applies what `history` schedules before `round` to `engine`.
fn between_rounds(engine: &mut Engine, history: &History, round: u64, seed: u64) {
    let n = engine.population.len();
    if engine.stabilizing()
        && engine.overlay.validate().is_ok()
        && engine.is_converged()
        && engine.stale_chain_count() == 0
    {
        engine.set_stabilizing(false);
    }
    if history.crashes.0 == round {
        for &q in &history.crashes.1 {
            engine.inject_crash(PeerId::new((q % n) as u32));
        }
    }
    if let Some((at, class, severity)) = history.corruption {
        if at == round {
            let plan = CorruptionPlan::new(seed)
                .with_class(CorruptionClass::ALL[class])
                .with_severity(severity);
            apply_corruption(engine, &plan);
        }
    }
    for &(at, q, forge) in &history.forged {
        let q = PeerId::new((q % n) as u32);
        let kids = engine.overlay.children(q).len() as u32;
        if at == round && kids < engine.overlay.child_capacity(q) {
            engine.overlay.raw_set_fanout(q, kids + forge);
        }
    }
    if let Some((off, on)) = history.churn {
        engine.apply_churn(&mut BernoulliChurn::new(off, on));
    }
}

/// 2..=24 peers with random constraints under a source of fanout 1..=3:
/// some populations converge and settle, some never do.
fn population_strategy() -> impl Strategy<Value = Population> {
    (
        1u32..=3,
        prop::collection::vec((0u32..=4, 1u32..=6), 2..=24),
    )
        .prop_map(|(source_fanout, specs)| {
            let peers = specs.into_iter().map(|(f, l)| Constraints::new(f, l));
            Population::new(source_fanout, peers.collect())
        })
}

/// Steps one engine with [`Engine::step`] and its twin with the
/// all-peers reference through `rounds` rounds of `history`, asserting
/// after every round that they agree, byte for byte.
fn assert_twins_agree(
    population: &Population,
    config: &ConstructionConfig,
    seed: u64,
    history: &History,
    rounds: u64,
    compare_every: u64,
) -> Result<(), TestCaseError> {
    let mut active = Engine::new(population, config, seed);
    let mut reference = Engine::new(population, config, seed);
    for engine in [&mut active, &mut reference] {
        engine.obs_mut().enable_journal(1 << 20);
    }
    for round in 0..rounds {
        between_rounds(&mut active, history, round, seed);
        between_rounds(&mut reference, history, round, seed);
        active.step();
        reference.step_visiting_everyone();
        prop_assert_eq!(active.rng_draws(), reference.rng_draws(), "round {}", round);
        if round % compare_every == 0 || round + 1 == rounds {
            prop_assert!(state(&active) == state(&reference), "round {}", round);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_active_set_round_is_the_all_peers_round(
        population in population_strategy(),
        algorithm in prop_oneof![Just(Algorithm::Greedy), Just(Algorithm::Hybrid)],
        oracle in (0..OracleKind::ALL.len()).prop_map(|i| OracleKind::ALL[i]),
        seed in 0u64..100_000,
        history in history_strategy(24),
        rounds in 1u64..80,
    ) {
        let config = ConstructionConfig::new(algorithm, oracle);
        assert_twins_agree(&population, &config, seed, &history, rounds, 1)?;
    }
}

/// The paper's Rand class at `n` peers (fanout 0..=8, latency 1..=10,
/// source fanout 3), relaxed one latency step at a time at the first
/// overloaded level until the §3.3 sufficiency condition holds — the
/// shape of `lagover_workload`'s Rand, which this crate cannot depend
/// on.
fn rand_population(n: usize, seed: u64) -> Population {
    let mut rng = SimRng::seed_from(seed);
    let mut peers: Vec<Constraints> = (0..n)
        .map(|_| Constraints::new(rng.range_u32(0, 8), rng.range_u32(1, 10)))
        .collect();
    let mut demand = vec![0u64; 64];
    let mut fanout_sum = vec![0u64; 64];
    for c in &peers {
        demand[c.latency as usize] += 1;
        fanout_sum[c.latency as usize] += u64::from(c.fanout);
    }
    loop {
        let overloaded = level_reports(3, &demand, &fanout_sum).find(|l| l.is_overloaded());
        let Some(level) = overloaded.map(|l| l.level as usize) else {
            return Population::new(3, peers);
        };
        let k = rng.index(demand[level] as usize);
        let victim = peers
            .iter_mut()
            .filter(|c| c.latency as usize == level)
            .nth(k)
            .expect("demand counts the level");
        victim.latency += 1;
        demand[level] -= 1;
        demand[level + 1] += 1;
        fanout_sum[level] -= u64::from(victim.fanout);
        fanout_sum[level + 1] += u64::from(victim.fanout);
    }
}

/// Fanout-8 layers, each a quarter full, with four rounds of latency
/// slack — the benchmark's burst population.
fn layered_population(n: usize) -> Population {
    let (mut layer, mut slots, mut filled) = (1u32, 8u64, 0u64);
    let peers = (0..n).map(|_| {
        if filled == (slots / 4).max(1) {
            (slots, layer, filled) = (filled * 8, layer + 1, 0);
        }
        filled += 1;
        Constraints::new(8, layer + 4)
    });
    Population::new(8, peers.collect())
}

/// The property at n = 10^4 on the two benchmark shapes, to
/// convergence and past it under churn, a crash cohort and a
/// corruption: minutes in a debug build, so run weekly in release
/// (`cargo test --release -p lagover-core --lib -- --ignored`).
#[test]
#[ignore]
fn the_active_set_round_is_the_all_peers_round_at_ten_thousand_peers() {
    let history = History {
        churn: None,
        crashes: (300, (0..10_000).step_by(97).collect()),
        corruption: Some((500, 1, 0.05)),
        forged: vec![(700, 17, 0), (700, 4_242, 1)],
    };
    let churned = History {
        churn: Some((0.001, 0.2)),
        ..history.clone()
    };
    for (population, algorithm, rounds) in [
        (rand_population(10_000, 42), Algorithm::Greedy, 3_000),
        (layered_population(10_000), Algorithm::Hybrid, 1_000),
    ] {
        let config = ConstructionConfig::new(algorithm, OracleKind::RandomDelay);
        for history in [&history, &churned] {
            assert_twins_agree(&population, &config, 42, history, rounds, 100)
                .expect("twins agree");
        }
    }
}

/// The case the property cannot reach: a repair that un-settles
/// everybody while a peer ahead of the cursor is settled *and* has
/// something to do. Everywhere else a woken-by-everybody peer is either
/// behind the cursor or finds nothing to do, because every raw mutation
/// un-settles everybody before the next round and a debug build's
/// round-end `validate` stops a corruption from outliving its round
/// without stabilizing mode — unless the population is past the full
/// validation limit, as here. `p` is cut loose one-sidedly with a
/// stale stamp and a forged fanout; its child `c` settles on the stale
/// stamp while `p` repairs the fanout, and when `p` rewrites the stamp
/// next round, `c` must act after it in that same round.
#[test]
fn a_repair_that_wakes_everybody_brings_back_the_settled_peers_ahead_of_the_cursor() {
    use crate::node::Member;
    use crate::schedule::{schedule_key, Schedule};
    use lagover_sim::{ChurnProcess, Round, Transitions};

    /// Sends everybody but the first three peers offline.
    struct KeepThree;
    impl ChurnProcess for KeepThree {
        fn step(&mut self, online: &mut [bool], _rng: &mut SimRng) -> Transitions {
            online.iter_mut().skip(3).for_each(|o| *o = false);
            Transitions {
                departures: online.len() - 3,
                arrivals: 0,
            }
        }
    }
    let (a, p, c) = (PeerId::new(0), PeerId::new(1), PeerId::new(2));
    let mut peers = vec![Constraints::new(0, 9); 4_200];
    peers[..3].copy_from_slice(&[
        Constraints::new(1, 1),
        Constraints::new(2, 2),
        Constraints::new(0, 3),
    ]);
    let population = Population::new(1, peers);
    // A seed whose rounds 3 and 4 both put c after p.
    let after = |seed: u64, round: u64| {
        let mut schedule = Schedule::new(schedule_key(&SimRng::seed_from(seed)));
        schedule.open(Round::new(round), [p, c].into_iter());
        schedule.pop() == Some(p)
    };
    let seed = (0..)
        .find(|&seed| after(seed, 3) && after(seed, 4))
        .expect("a quarter of the seeds");
    let mut twins: Vec<Engine> = (0..2)
        .map(|_| {
            let mut engine = Engine::new(&population, &config(), seed);
            engine.obs_mut().enable_journal(1 << 12);
            engine.apply_churn(&mut KeepThree);
            engine.overlay.attach(a, Member::Source).expect("free");
            engine.overlay.attach(p, Member::Peer(a)).expect("free");
            engine.overlay.attach(c, Member::Peer(p)).expect("free");
            for _ in 0..3 {
                engine.step();
            }
            engine.overlay.evict_child(Member::Peer(a), p);
            engine.overlay.raw_set_parent(p, None);
            engine.overlay.raw_set_fanout(p, 1);
            engine
        })
        .collect();
    for _ in 3..5 {
        twins[0].step();
        twins[1].step_visiting_everyone();
        assert!(
            state(&twins[0]) == state(&twins[1]),
            "round {}",
            twins[0].round().get()
        );
    }
    let caught_by_c = twins[0]
        .obs()
        .journal()
        .expect("enabled")
        .iter()
        .filter(|event| {
            matches!(
                event,
                lagover_obs::Event::InconsistencyDetected {
                    round: 4,
                    peer: 2,
                    ..
                }
            )
        })
        .count();
    assert_eq!(
        caught_by_c, 1,
        "c noticed the rewrite in the round it happened"
    );
}

fn small_population() -> Population {
    Population::new(
        2,
        vec![
            Constraints::new(2, 1),
            Constraints::new(1, 2),
            Constraints::new(0, 2),
            Constraints::new(2, 3),
            Constraints::new(0, 4),
            Constraints::new(1, 4),
        ],
    )
}

fn config() -> ConstructionConfig {
    ConstructionConfig::new(Algorithm::Hybrid, OracleKind::RandomDelay)
}

/// Steps `engine` `rounds` times and returns its serialized state.
fn replay(mut engine: Engine, rounds: u64) -> String {
    for _ in 0..rounds {
        engine.step();
    }
    engine.snapshot().to_json_string()
}

#[test]
fn a_snapshot_replays_identically_through_json() {
    let mut engine = Engine::new(&small_population(), &config(), 8);
    for _ in 0..3 {
        engine.step();
    }
    let json = engine.snapshot().to_json_string();
    assert!(json.contains("\"schedule_key\""));
    let restored = Engine::restore(EngineSnapshot::from_json_str(&json).expect("parses"));
    assert_eq!(restored.snapshot().to_json_string(), json);
    assert_eq!(replay(restored, 40), replay(engine, 40));
}

/// A document from before the keyed schedule carries no key; it
/// restores with one derived from the stream state it does carry —
/// which, for an engine that has not drawn yet, is the key the engine
/// itself was built with.
#[test]
fn a_snapshot_without_a_schedule_key_restores_with_one_from_its_stream() {
    let strip = |json: &str| {
        let at = json.find(",\"schedule_key\":").expect("key present");
        let end = at + json[at + 1..].find(',').expect("a field follows") + 1;
        format!("{}{}", &json[..at], &json[end..])
    };
    let fresh = Engine::new(&small_population(), &config(), 8);
    let legacy = strip(&fresh.snapshot().to_json_string());
    assert!(!legacy.contains("schedule_key"));
    let restored = Engine::restore(EngineSnapshot::from_json_str(&legacy).expect("parses"));
    assert_eq!(
        restored.snapshot().to_json_string(),
        fresh.snapshot().to_json_string()
    );
    assert_eq!(replay(restored, 40), replay(fresh, 40));

    // Mid-run the derived key is a different one, but restoring is
    // still a function of the document.
    let mut engine = Engine::new(&small_population(), &config(), 8);
    for _ in 0..3 {
        engine.step();
    }
    let legacy = strip(&engine.snapshot().to_json_string());
    let once = Engine::restore(EngineSnapshot::from_json_str(&legacy).expect("parses"));
    let twice = Engine::restore(EngineSnapshot::from_json_str(&legacy).expect("parses"));
    assert_eq!(replay(once, 40), replay(twice, 40));
}
