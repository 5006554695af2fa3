//! The scale scenarios' population: fanout-8 layers, each a quarter
//! full, with four rounds of latency slack.

use lagover_core::node::{Constraints, Population};

/// Deterministic capacity-rich population for the scale scenarios
/// (the work-unit baseline's `construction_*`/`recovery_*` rows):
/// every peer offers fanout 8 and tolerates its layer's depth plus
/// four levels of slack. Each layer is filled to only a *quarter* of
/// the slots the layer above offers, so every sufficiency level keeps
/// at least 4x capacity headroom — tighter packings are satisfiable
/// but the maintenance rule detaches enough transiently-violated peers
/// that randomized construction thrashes instead of converging at
/// n >= 5000 (measured: half-filled layers with two levels of slack
/// stall below 0.72 satisfied). No RNG and no repair pass, so building
/// the population stays O(n) at a million peers.
pub fn layered_population(peers: usize) -> Population {
    const FANOUT: u32 = 8;
    const SLACK: u32 = 4;
    let mut constraints = Vec::with_capacity(peers);
    let mut layer = 1u32;
    let mut slots = u64::from(FANOUT); // total slots at `layer`
    let mut filled = 0u64;
    for _ in 0..peers {
        if filled == (slots / 4).max(1) {
            // Slots below come only from the peers actually placed.
            slots = filled.saturating_mul(u64::from(FANOUT));
            layer += 1;
            filled = 0;
        }
        filled += 1;
        constraints.push(Constraints::new(FANOUT, layer + SLACK));
    }
    Population::new(FANOUT, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_core::check_sufficiency;

    #[test]
    fn layered_population_quarter_fills_levels_with_slack() {
        let population = layered_population(100);
        assert_eq!(population.len(), 100);
        let latencies = population.latencies();
        // Quarter-filled layers of a fanout-8 tree: 2 peers at layer
        // 1, 4 at layer 2, 8 at layer 3, 16 at layer 4, 32 at layer 5,
        // the rest spilling into layer 6 — each with 4 rounds of
        // latency slack.
        assert!(latencies[..2].iter().all(|&l| l == 5));
        assert!(latencies[2..6].iter().all(|&l| l == 6));
        assert!(latencies[6..14].iter().all(|&l| l == 7));
        assert!(latencies[14..30].iter().all(|&l| l == 8));
        assert!(latencies[30..62].iter().all(|&l| l == 9));
        assert!(latencies[62..].iter().all(|&l| l == 10));
        assert!(population.fanouts().iter().all(|&f| f == 8));
        let sufficiency = check_sufficiency(&population);
        assert!(sufficiency.satisfied, "layered population is feasible");
    }
}
