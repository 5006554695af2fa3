//! The analyzer's rule set. Each rule is a pure function from the
//! shared [`Model`](super::model::Model) to findings (plus, for some
//! rules, deterministic metrics for the report); `analyze::analyze`
//! wires them together and `analyze::run` renders the report.

pub mod feature_gate;
pub mod forbid_unsafe;
pub mod layering;
pub mod nondet_rng;
pub mod obs_bypass;
pub mod panic_surface;
pub mod rng_discipline;
pub mod unordered;

/// One analyzer hit. Every finding fails `cargo xtask analyze`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// The offending source line (or a structural message), trimmed.
    pub excerpt: String,
}

/// Every rule `cargo xtask analyze` runs, in report order.
pub const RULES: &[&str] = &[
    rng_discipline::RULE,
    unordered::RULE,
    panic_surface::RULE,
    layering::RULE,
    feature_gate::RULE,
    forbid_unsafe::RULE,
    nondet_rng::RULE,
    obs_bypass::RULE,
];
