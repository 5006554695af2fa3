//! Fixture: SimRng draw-site enumeration. Draws group per enclosing
//! function; decoys in comments, strings, and test modules are
//! invisible, and so is the zero-argument `PeerId::index()` accessor.
//! `r.index(4)` in this comment is not a draw.

fn pick(r: &mut SimRng, v: &[u8], peer: PeerId) -> u8 {
    let i = r.index(v.len());
    let j = r.index(v.len());
    let c = r.choose(v).copied();
    let _s = "r.f64() in a string is not a draw";
    // `PeerId::index()` takes no argument and draws nothing.
    v[i] + v[j] + c.unwrap_or(0) + v[peer.index()]
}

fn spread(r: &mut SimRng, v: &mut [u8]) -> f64 {
    r.shuffle(v);
    r.exponential(2.0)
}

#[cfg(test)]
mod tests {
    fn t(r: &mut SimRng) {
        // Test draws never perturb committed replay output.
        r.pareto(1.0, 2.0);
    }
}
