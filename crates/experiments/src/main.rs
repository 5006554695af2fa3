//! The `lagover-experiments` binary: regenerates every committed
//! document — the paper's tables and figures, the extensions, and the
//! work-unit baseline.
//!
//! ```text
//! lagover-experiments run <EXPERIMENT|all> [--quick] [--peers N] [--runs N] [--seed N]
//!                         [--max-rounds N] [--json DIR]
//!
//! EXPERIMENT: fig2 fig3 fig4 counterexample async sufficiency serverload realizations
//!             locality multifeed ablations scaling liveness recovery stabilization obs
//!             measured nodesim streams bench
//! ```
//!
//! `run all --json results` writes every document under `results/`
//! (`results/all_results.txt` is its output). The run starts from the
//! paper's parameters, or from the small test ones under `--quick`
//! wherever it stands; each sizing flag then replaces one field.
//! `--peers` and `--runs` must be at least 1 (`--peers` at least 2 for
//! `realizations`, whose gossip graph needs two peers). A bad command
//! line, or parameters an experiment cannot draw an instance from (a
//! `multifeed` feed nobody subscribes to), prints the usage line and
//! exits 2.

use std::process::ExitCode;

use lagover_experiments::{
    ablations, asynchrony, bench, counterexample, fig2, fig3, fig4, liveness, locality, measured,
    multifeed_exp, nodesim, obs_exp, realizations, recovery, scaling, serverload, stabilization,
    streams, sufficiency, Params,
};

const EXPERIMENTS: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "counterexample",
    "async",
    "sufficiency",
    "serverload",
    "realizations",
    "locality",
    "multifeed",
    "ablations",
    "scaling",
    "liveness",
    "recovery",
    "stabilization",
    "obs",
    "measured",
    "nodesim",
    "streams",
    "bench",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: lagover-experiments run <{}|all> [--quick] [--peers N] [--runs N] [--seed N] [--max-rounds N] [--json DIR]",
        EXPERIMENTS.join("|")
    );
    ExitCode::from(2)
}

fn bad_flag(flag: &str, wants: &str) -> ExitCode {
    eprintln!("lagover-experiments: {flag} needs {wants}");
    usage()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return usage();
    };
    if cmd != "run" {
        return usage();
    }
    let Some(which) = it.next().cloned() else {
        return usage();
    };

    let mut quick = false;
    let (mut peers, mut runs, mut seed, mut max_rounds) = (None, None, None, None);
    let mut json_dir: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--peers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(0) | None => return bad_flag(flag, "a positive integer"),
                v => peers = v,
            },
            "--runs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(0) | None => return bad_flag(flag, "a positive integer"),
                v => runs = v,
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                None => return bad_flag(flag, "an integer"),
                v => seed = v,
            },
            "--max-rounds" => match it.next().and_then(|v| v.parse().ok()) {
                None => return bad_flag(flag, "an integer"),
                v => max_rounds = v,
            },
            "--json" => match it.next() {
                Some(v) => json_dir = Some(v.clone()),
                None => return bad_flag(flag, "a directory"),
            },
            _ => return usage(),
        }
    }
    // `--quick` picks the base wherever it stands; the sizing flags
    // replace single fields of it.
    let base = if quick {
        Params::quick()
    } else {
        Params::paper()
    };
    let params = Params {
        peers: peers.unwrap_or(base.peers),
        runs: runs.unwrap_or(base.runs),
        max_rounds: max_rounds.unwrap_or(base.max_rounds),
        seed: seed.unwrap_or(base.seed),
    };

    let selected: Vec<&str> = if which == "all" {
        EXPERIMENTS.to_vec()
    } else if EXPERIMENTS.contains(&which.as_str()) {
        vec![which.as_str()]
    } else {
        return usage();
    };

    // A gossip membership graph needs two peers.
    if params.peers < 2 && selected.contains(&"realizations") {
        return bad_flag("--peers", "at least 2 for realizations");
    }

    for name in selected {
        let (text, json) = match run_one(name, &params) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("lagover-experiments: {name} cannot run with these flags: {e}");
                return usage();
            }
        };
        println!("{text}");
        if let Some(dir) = &json_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {dir}: {e}");
                return ExitCode::FAILURE;
            }
            let path = format!("{dir}/{name}.json");
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}

/// Runs one experiment, returning (rendered text, JSON), or why the
/// parameters make no instance of it.
fn run_one(name: &str, params: &Params) -> Result<(String, String), String> {
    Ok(match name {
        "fig2" => {
            // The variance figure wants more repetitions than the
            // median-of-5 protocol.
            let report = fig2::run(params, params.runs.max(5) * 6);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "fig3" => {
            let report = fig3::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "fig4" => {
            let report = fig4::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "counterexample" => {
            let report = counterexample::run(params, params.runs.max(5) * 10);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "async" => {
            let report = asynchrony::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "sufficiency" => {
            let report = sufficiency::run(params, 500);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "serverload" => {
            let report = serverload::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "realizations" => {
            let report = realizations::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "locality" => {
            let report = locality::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "multifeed" => {
            let report = multifeed_exp::run(params).map_err(|e| e.to_string())?;
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "ablations" => {
            let report = ablations::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "scaling" => {
            let report = scaling::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "liveness" => {
            let report = liveness::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "recovery" => {
            let report = recovery::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "stabilization" => {
            let report = stabilization::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "obs" => {
            let report = obs_exp::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "measured" => {
            let report = measured::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "nodesim" => {
            let report = nodesim::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "streams" => {
            let report = streams::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        "bench" => {
            let report = bench::run(params);
            (report.render(), lagover_jsonio::to_string_pretty(&report))
        }
        other => unreachable!("unknown experiment {other} filtered by main"),
    })
}
