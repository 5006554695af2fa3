//! The `lagover-perf` binary: emits the baseline document.
//!
//! ```text
//! lagover-perf [--out PATH] [--scenario NAME]...
//!              [--peers N] [--runs N] [--seed N] [--max-rounds N] [--quick]
//! ```
//!
//! With no flags it runs every registry row under its pinned
//! parameters and prints the (fully deterministic) document to stdout
//! — exactly what is committed as `BENCH.json` and what `cargo xtask
//! bench-gate` regenerates to diff against it. `--scenario` selects
//! rows; the sizing flags override the named field of every selected
//! row's pin, and `--quick` switches all four to the small test
//! parameters.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use lagover_perf::{collect_baseline, scenario, scenario_names, ParamOverrides, PerfParams};

fn usage() -> ExitCode {
    eprintln!(
        "usage: lagover-perf [--out PATH] [--scenario <{}>]... \
         [--peers N] [--runs N] [--seed N] [--max-rounds N] [--quick]",
        scenario_names().join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut overrides = ParamOverrides::default();
    let mut out_path: Option<String> = None;
    let mut only: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => match it.next() {
                Some(v) => out_path = Some(v.clone()),
                None => return usage(),
            },
            "--scenario" => match it.next() {
                Some(v) if scenario(v).is_some() => only.push(v.clone()),
                Some(v) => {
                    eprintln!("lagover-perf: unknown scenario `{v}`");
                    return usage();
                }
                None => return usage(),
            },
            "--peers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => overrides.peers = Some(v),
                None => return usage(),
            },
            "--runs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => overrides.runs = Some(v),
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => overrides.seed = Some(v),
                None => return usage(),
            },
            "--max-rounds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => overrides.max_rounds = Some(v),
                None => return usage(),
            },
            "--quick" => overrides = ParamOverrides::all(PerfParams::quick()),
            other => {
                eprintln!("lagover-perf: unknown flag `{other}`");
                return usage();
            }
        }
    }

    let baseline = collect_baseline(&only, &overrides);
    let json = lagover_jsonio::to_string_pretty(&baseline);
    println!("{json}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("lagover-perf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
