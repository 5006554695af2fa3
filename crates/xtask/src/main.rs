//! `cargo xtask` — the static audit harness.
//!
//! Subcommands:
//!
//! * `analyze` — the one static analyzer (DESIGN.md §14): the SimRng
//!   draw-site registry, alias-aware hash-container detection, the
//!   tiered panic-surface audit, crate-DAG layering, wall-clock feature
//!   gating, the `#![forbid(unsafe_code)]` check, ambient-RNG and
//!   obs-facade bypass detection, with a deterministic report under
//!   `target/analyze/`. Any finding fails it; there is no allowlist.
//! * `miri` — runs the core + sim unit tests under Miri when the
//!   component is installed; detects its absence and skips cleanly.
//!
//! That every committed document regenerates, at any thread count, is
//! not an xtask: it is `lagover-experiments run all --json DIR` and
//! `diff -r` against `results/` (DESIGN.md §9.2).

#![forbid(unsafe_code)]

mod analyze;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze::run(&args[1..]),
        Some("miri") => run_miri(),
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
         \x20 analyze [--bless]     static analysis: rng draw-site registry,\n\
         \x20                       hash containers, panic surface, layering,\n\
         \x20                       wall-clock gates, forbid(unsafe), ambient rng,\n\
         \x20                       obs bypass (--bless regenerates\n\
         \x20                       crates/xtask/rng_sites.toml)\n\
         \x20 miri                  run core+sim unit tests under Miri (skips if\n\
         \x20                       the component is not installed)"
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
