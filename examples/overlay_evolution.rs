//! Figure 1 replay: the §3.2 toy system, round by round.
//!
//! Source `0_3`; consumers `a..j`, all fanout 2, latency constraints
//! (a,d)=1, e=2, (b,c,f,g,h,i)=3, j=4. Watch fragments form, coalesce,
//! and get repaired by maintenance until the LagOver stands.
//!
//! ```text
//! cargo run --example overlay_evolution
//! ```

use lagover::core::node::{Constraints, Member, PeerId, Population};
use lagover::core::{Algorithm, ConstructionConfig, Engine, OracleKind};
use lagover::obs::{Event, Node, Pipeline};

const NAMES: [&str; 10] = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];

fn name(p: PeerId) -> &'static str {
    NAMES[p.index()]
}

fn node_name(node: Node) -> &'static str {
    match node {
        Node::Source => "source",
        Node::Peer(id) => NAMES[id as usize],
    }
}

fn render(engine: &Engine, population: &Population) -> String {
    let mut out = String::from("  source\n");
    let mut stack: Vec<(PeerId, usize)> = engine
        .overlay()
        .source_children()
        .iter()
        .rev()
        .map(|&c| (c, 1))
        .collect();
    let mut seen = vec![false; population.len()];
    while let Some((p, depth)) = stack.pop() {
        seen[p.index()] = true;
        let sat = if engine.is_satisfied(p) {
            ""
        } else {
            "  <- violated"
        };
        out += &format!(
            "  {}└ {}_{}^{}{}\n",
            "  ".repeat(depth),
            name(p),
            population.fanout(p),
            population.latency(p),
            sat,
        );
        for &c in engine.overlay().children(p).iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    // Fragments: trees not yet hanging off the source.
    for p in population.peer_ids() {
        if !seen[p.index()] && engine.overlay().parent(p).is_none() {
            let mut frag: Vec<(PeerId, usize)> = vec![(p, 0)];
            let mut lines = String::new();
            while let Some((q, depth)) = frag.pop() {
                seen[q.index()] = true;
                lines += &format!(
                    "  {}{} {}_{}^{}\n",
                    "  ".repeat(depth),
                    if depth == 0 { "·" } else { "└" },
                    name(q),
                    population.fanout(q),
                    population.latency(q),
                );
                for &c in engine.overlay().children(q).iter().rev() {
                    frag.push((c, depth + 1));
                }
            }
            out += &format!("  (fragment)\n{lines}");
        }
    }
    out
}

fn main() {
    // The Figure 1 population.
    let latencies = [1u32, 3, 3, 1, 2, 3, 3, 3, 3, 4];
    let population = Population::new(
        3,
        latencies.iter().map(|&l| Constraints::new(2, l)).collect(),
    );

    let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay);
    let mut engine = Engine::new(&population, &config, 20);

    // Record the run's structural history through the unified
    // observability pipeline.
    let mut pipeline = Pipeline::disabled();
    pipeline.enable_journal(4_096);
    engine.set_obs(pipeline);

    let mut last = String::new();
    println!("round 0:\n{}", render(&engine, &population));
    for round in 1..=500 {
        engine.step();
        let snapshot = render(&engine, &population);
        if snapshot != last {
            println!("round {round}:\n{snapshot}");
            last = snapshot;
        }
        if engine.is_converged() {
            println!("converged at round {round}: every consumer within its latency constraint");
            break;
        }
    }
    assert!(engine.is_converged(), "Figure 1 system failed to converge");

    // The strict consumers a and d pull directly from the source, as
    // the paper's final configuration shows.
    for strict in [PeerId::new(0), PeerId::new(3)] {
        assert_eq!(engine.overlay().parent(strict), Some(Member::Source));
    }

    // Replay the journal: every attach/detach the run went through,
    // told in the paper's peer names.
    let journal = engine
        .obs_mut()
        .take_journal()
        .expect("journal was enabled above");
    println!("\nstructural history ({} events):", journal.len());
    for event in journal.iter() {
        match *event {
            Event::Attach {
                round,
                child,
                parent,
            } => println!(
                "  r{round}: {} <- {}",
                NAMES[child as usize],
                node_name(parent)
            ),
            Event::Detach {
                round,
                child,
                parent,
                cause,
            } => println!(
                "  r{round}: {} !<- {} ({cause})",
                NAMES[child as usize],
                node_name(parent)
            ),
            _ => {}
        }
    }
    println!("event totals:");
    for (kind, count) in journal.counts_by_kind() {
        println!("  {kind}: {count}");
    }
}
