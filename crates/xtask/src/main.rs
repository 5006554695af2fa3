//! `cargo xtask` — the determinism & invariant audit harness.
//!
//! Subcommands:
//!
//! * `lint` — token-level scan of every workspace `src/` tree for the
//!   determinism hazards DESIGN.md §9 bans (ambient RNG, wall clocks,
//!   unordered-map iteration feeding serialized output, float
//!   accumulation-order hazards, bare `unwrap()` in core hot paths),
//!   checked against the justified allowlist `crates/xtask/lint.allow.toml`.
//! * `replay-diff` — runs the figure drivers at `LAGOVER_THREADS=1` vs
//!   `8` plus two forced chunkings and byte-diffs the JSON outputs,
//!   proving the parallel run loops are schedule-invariant.
//! * `loom` — runs the `parallel_runs` interleaving model suite
//!   (`crates/core/tests/parallel_protocol.rs`).
//! * `miri` — runs the core + sim unit tests under Miri when the
//!   component is installed; detects its absence and skips cleanly.
//! * `bench-gate` — regenerates the perf baseline with the
//!   `lagover-perf` harness and diffs it exactly against the committed
//!   `BENCH.json`, rendering a markdown regression table.
//! * `analyze` — structural static analysis (DESIGN.md §14): the
//!   SimRng draw-site registry, alias-aware hash-container detection,
//!   the tiered panic-surface audit, crate-DAG layering, wall-clock
//!   feature gating, and the `#![forbid(unsafe_code)]` check, with a
//!   deterministic report under `target/analyze/`.

#![forbid(unsafe_code)]

mod allowlist;
mod analyze;
mod bench_gate;
mod lint;
mod replay;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(&args[1..]),
        Some("analyze") => analyze::run(&args[1..]),
        Some("replay-diff") => replay::run(&args[1..]),
        Some("loom") => run_loom(),
        Some("miri") => run_miri(),
        Some("bench-gate") => bench_gate::run(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`\n");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <subcommand>\n\
         \n\
         subcommands:\n\
         \x20 lint                  scan workspace sources for determinism hazards\n\
         \x20 analyze [--bless]     structural static analysis: rng draw-site\n\
         \x20                       registry, aliases, panic surface, layering,\n\
         \x20                       feature gates (--bless regenerates\n\
         \x20                       crates/xtask/rng_sites.toml)\n\
         \x20 replay-diff [FIGS..]  byte-diff figure JSON across thread counts and\n\
         \x20                       chunkings (default: fig2 fig3 fig4 scaling;\n\
         \x20                       --full for paper-scale parameters)\n\
         \x20 loom                  run the parallel_runs interleaving model suite\n\
         \x20 miri                  run core+sim unit tests under Miri (skips if\n\
         \x20                       the component is not installed)\n\
         \x20 bench-gate            diff a fresh lagover-perf run of the `pr` rows\n\
         \x20                       against the committed BENCH.json (--strict:\n\
         \x20                       every row, warnings fail; --compare\n\
         \x20                       BASE.json HEAD.json: diff two documents)"
    );
}

/// Workspace root, derived from this crate's manifest directory
/// (`crates/xtask` → two levels up).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// The cargo that invoked us (falls back to `cargo` on PATH when run
/// directly as a binary).
fn cargo() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

/// The cargo target directory (honours `CARGO_TARGET_DIR`).
fn target_dir(root: &std::path::Path) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"))
}

fn run_loom() -> ExitCode {
    println!("xtask loom: running the parallel_runs interleaving model suite");
    let status = Command::new(cargo())
        .current_dir(workspace_root())
        .args(["test", "-p", "lagover-core", "--test", "parallel_protocol"])
        .status();
    match status {
        Ok(s) if s.success() => {
            println!("xtask loom: PASS");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("xtask loom: model suite FAILED");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask loom: could not invoke cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_miri() -> ExitCode {
    // Probe for the component first: `cargo miri --version` exits
    // non-zero (or cargo itself errors) when Miri is not installed.
    let probe = Command::new(cargo()).args(["miri", "--version"]).output();
    let available = matches!(&probe, Ok(out) if out.status.success());
    if !available {
        println!(
            "xtask miri: Miri is not installed — skipping (install with\n\
             \x20 `rustup +nightly component add miri`)"
        );
        return ExitCode::SUCCESS;
    }
    println!("xtask miri: running core + sim unit tests under Miri");
    let status = Command::new(cargo())
        .current_dir(workspace_root())
        .args([
            "miri",
            "test",
            "-p",
            "lagover-core",
            "-p",
            "lagover-sim",
            "--lib",
        ])
        .status();
    match status {
        Ok(s) if s.success() => {
            println!("xtask miri: PASS");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("xtask miri: FAILED");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask miri: could not invoke cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
