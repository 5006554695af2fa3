#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # lagover-perf
//!
//! The perf-baseline harness: runs the instrumented experiment drivers
//! (fig2, fig3, fig4, recovery, obs) under fixed seeds and emits one
//! schema-versioned baseline document with **two layers** per scenario
//! (DESIGN.md §12):
//!
//! - **Work units** — rounds-to-converge, engine counters, RNG draws,
//!   oracle queries, and the per-phase [`lagover_obs::Profiler`]
//!   deltas. Every number is a deterministic function of the seed, so
//!   the layer is byte-stable across machines, thread counts
//!   (`LAGOVER_THREADS`), and chunkings; it is committed to the repo as
//!   `BENCH_baseline.json` and diffed **exactly** by
//!   `cargo xtask bench-gate`.
//! - **Wall clock** — optional median-of-K elapsed-seconds samples with
//!   IQR plus peak RSS, tagged with the environment they were taken in.
//!   Wall samples are never committed and are only compared between
//!   runs on the same runner, within the `perf.gate.toml` percentage
//!   budget.
//!
//! The committed single-scenario documents (`BENCH_obs.json`,
//! `BENCH_recovery.json`) are this crate's binary run with one
//! `--scenario` (DESIGN.md §12.2 gives the invocations), and
//! `lagover perf` exposes the harness from the CLI.

pub mod baseline;
pub mod scenarios;
pub mod wall;

pub use baseline::{
    baseline_params, Baseline, PerfParams, ScenarioBaseline, WorkLayer, SCHEMA_VERSION,
};
pub use scenarios::{
    collect_baseline, default_scenario_names, replay_figures, run_scenario, scenario_names,
};
pub use wall::{EnvTag, WallLayer};
