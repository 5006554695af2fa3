#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # lagover-perf
//!
//! The perf-baseline harness: runs the instrumented experiment drivers
//! (fig2, fig3, fig4, recovery, obs, …) under fixed seeds and emits one
//! schema-versioned document of **work units** per scenario
//! (DESIGN.md §12): rounds-to-converge, engine counters, RNG draws,
//! oracle queries, and the per-phase [`lagover_obs::Profiler`] deltas.
//! Every number is a deterministic function of the seed, so the
//! document is byte-stable across machines, thread counts
//! (`LAGOVER_THREADS`), and chunkings; it is committed to the repo as
//! `BENCH.json` and diffed **exactly** by `cargo xtask bench-gate`.
//!
//! Each row of the [`scenarios`] registry pins its own parameters and
//! a gate tier: `pr` rows are regenerated on every PR, `weekly` rows
//! (the n = 10^5 scale runs) only by `bench-gate --strict`. Host time
//! is not measured here — that is the `benchmark/` package's job
//! (`BENCHMARK.json`). `lagover perf` exposes the harness from the CLI.

pub mod baseline;
pub mod scenarios;

pub use baseline::{
    baseline_params, Baseline, ParamOverrides, PerfParams, ScenarioBaseline, Tier, WorkLayer,
    SCHEMA_VERSION,
};
pub use scenarios::{
    collect_baseline, registry, replay_figures, scenario, scenario_names, Scenario,
};
