//! Fixture: a clean crate root (scanned as `crates/core/src/lib.rs`) —
//! deterministic RNG, ordered maps, messaged expects. Expected
//! findings: none, under every rule.

use std::collections::BTreeMap;

struct Clean {
    per_peer: BTreeMap<usize, f64>,
}

impl Clean {
    fn to_json(&self) -> String {
        let mut out = String::new();
        for (peer, value) in &self.per_peer {
            out.push_str(&format!("{peer}:{value},"));
        }
        out
    }

    fn pick(&self, seed: u64) -> u64 {
        // Seeded, deterministic — not ambient.
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn first(&self) -> f64 {
        self.per_peer
            .values()
            .next()
            .copied()
            .expect("invariant: report is never empty")
            + self.pick(1) as f64 * 0.0
    }
}
