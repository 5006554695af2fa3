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
    /// `(round, class, severity)`: one snapshot corruption, repaired
    /// while the lists may lie.
    corruption: Option<(u64, usize, f64)>,
    /// `(round, peer, forge)`: forge a fanout downward, a raw write that
    /// marks the forest. It validates clean, and the peer's next action
    /// repairs it.
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

/// `lagover_workload::layered_population` (fanout-8 layers, each a
/// quarter full, with four rounds of latency slack — the benchmark's
/// burst population), rebuilt as this crate's `Population`: the
/// dev-dependency links its own build of `lagover_core`.
fn layered_population(n: usize) -> Population {
    let layered = lagover_workload::layered_population(n);
    let peers = layered.fanouts().iter().zip(layered.latencies());
    let peers = peers.map(|(&f, &l)| Constraints::new(f, l)).collect();
    Population::new(layered.source_fanout(), peers)
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

/// A repair un-settles everybody mid-round, yet the round needs no
/// rebuilding: only a raw write un-settles everybody, it marks the
/// forest, and nobody settles while the lists may lie, so no settled
/// peer sits ahead of the cursor. `p` is cut loose one-sidedly with a
/// stale stamp and a forged fanout; its child `c` finds nothing to do
/// while `p` repairs the fanout, yet stays active, and when `p`
/// rewrites the stamp next round, `c` acts after it in that same round.
#[test]
fn a_repair_under_lying_lists_finds_nobody_settled_ahead_of_the_cursor() {
    use crate::node::Member;
    use crate::schedule::{schedule_key, Schedule};
    use lagover_sim::Round;

    let (a, p, c) = (PeerId::new(0), PeerId::new(1), PeerId::new(2));
    let population = Population::new(
        1,
        vec![
            Constraints::new(1, 1),
            Constraints::new(2, 2),
            Constraints::new(0, 3),
        ],
    );
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
    for round in 3..5 {
        twins[0].step();
        twins[1].step_visiting_everyone();
        assert!(state(&twins[0]) == state(&twins[1]), "round {round}");
        for q in [a, p, c] {
            assert!(!twins[0].overlay.is_settled(q), "the lists may lie");
        }
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
