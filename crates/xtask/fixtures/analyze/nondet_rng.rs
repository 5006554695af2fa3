//! Fixture: ambient RNG. Expected findings: exactly two
//! `nondet-rng` hits (the decoys below must stay silent).
//!
//! A comment mentioning thread_rng must not count.

fn decoys() -> &'static str {
    "thread_rng and rand::random in a string are fine"
}

fn violation_one() {
    let mut rng = rand::thread_rng();
    let _ = rng;
}

fn violation_two() -> u64 {
    rand::random()
}
