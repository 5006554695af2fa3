//! Fixture: observability bypasses (scanned as if it were a
//! `crates/core/src` file). Expected findings: exactly three
//! `obs-bypass` hits — `println!` in this comment, the string decoy,
//! the `Reconstructed` struct, and everything inside `#[cfg(test)]`
//! must stay silent.

fn violation_raw_stdout(round: u64) {
    println!("round {round}: still converging");
}

fn violation_raw_stderr(round: u64) {
    eprintln!("round {round}: oracle backoff");
}

/// An ad-hoc tally struct the `lagover-obs` registry should own.
struct ShadowCounters {
    attaches: u64,
}

struct FineReconstructed {
    depth: u32,
}

fn fine_string_decoy() -> &'static str {
    "println! and struct FakeCounters in a string are fine"
}

fn fine_use(s: &ShadowCounters, r: &FineReconstructed) -> u64 {
    s.attaches + u64::from(r.depth)
}

#[cfg(test)]
mod tests {
    struct TestOnlyCounters {
        hits: u64,
    }

    #[test]
    fn printing_in_tests_is_fine() {
        let c = TestOnlyCounters { hits: 1 };
        println!("{}", c.hits);
    }
}
