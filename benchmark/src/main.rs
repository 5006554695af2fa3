#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # lagover-benchmark
//!
//! The repo's host-time benchmark: five verb-level workloads, seven
//! end-to-end metrics, a per-layer ledger and a traced run. See
//! `README.md` beside this crate for the glossary and
//! `BENCHMARK.json` at the repo root for the contract.
//!
//! ```text
//! lagover-benchmark run [--workload NAME] [--seed N] [--inputs N]
//!                       [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! lagover-benchmark compare A.json B.json
//! ```

mod compare;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::RunArgs;
use workloads::Kind;

const USAGE: &str = "usage:
  lagover-benchmark run [--workload NAME] [--seed N] [--inputs N] [--seconds S]
                        [--trace 0|1] [--smoke] [--out FILE]
  lagover-benchmark compare A.json B.json

run      every workload (or the one named) for 1 warm-up + 7 kept passes, or
         for --seconds; then the traced children. --trace 0 skips the traced
         children, --trace 1 runs only them. --inputs N cycles the kept
         operations through N inputs made from the seed (default 1).
compare  judges report B against report A (both written by run --out) with
         the benchmark's bounds; exits 1 if any row is worse.";

/// Flags of one invocation, as `(name, value)`; `--smoke` has no value.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag:?}"));
            }
            let value = if flag == "--smoke" {
                None
            } else {
                Some(
                    rest.next()
                        .ok_or_else(|| format!("{flag} needs a value"))?
                        .clone(),
                )
            };
            flags.push((flag.clone(), value));
        }
        Ok(Flags(flags))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(flag, _)| flag == name)
    }

    /// The last value given for `name`, parsed.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .and_then(|(_, value)| value.as_deref())
            .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {name}")))
            .transpose()
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .0
            .iter()
            .find(|(flag, _)| !allowed.contains(&flag.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag {flag}")),
            None => Ok(()),
        }
    }

    fn workload(&self) -> Result<Option<Kind>, String> {
        self.get::<String>("--workload")?
            .map(|name| Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}")))
            .transpose()
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    flags.only(&[
        "--workload",
        "--seed",
        "--inputs",
        "--seconds",
        "--trace",
        "--smoke",
        "--out",
    ])?;
    let inputs = flags.get("--inputs")?.unwrap_or(1u64);
    let seconds = flags.get::<f64>("--seconds")?;
    if inputs == 0 || seconds.is_some_and(|s| !s.is_finite() || s < 0.0) {
        return Err("--inputs must be at least 1 and --seconds a non-negative number".to_string());
    }
    let trace = match flags.get::<u8>("--trace")? {
        None => None,
        Some(0) => Some(false),
        Some(1) => Some(true),
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(RunArgs {
        workloads: flags
            .workload()?
            .map_or(Kind::ALL.to_vec(), |kind| vec![kind]),
        seed: flags.get("--seed")?.unwrap_or(42),
        inputs,
        seconds,
        trace,
        smoke: flags.has("--smoke"),
        out: flags.get::<String>("--out")?.map(Into::into),
    })
}

/// Arguments of the two internal subcommands the parent spawns.
fn child_args(flags: &Flags) -> Result<(Kind, u64, usize), String> {
    let missing = |what: &str| format!("internal subcommand needs {what}");
    Ok((
        flags.workload()?.ok_or_else(|| missing("--workload"))?,
        flags.get("--seed")?.ok_or_else(|| missing("--seed"))?,
        flags
            .get("--divisor")?
            .ok_or_else(|| missing("--divisor"))?,
    ))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => {
            run::run(&run_args(&Flags::parse(rest)?)?)?;
            Ok(ExitCode::SUCCESS)
        }
        "compare" => match rest {
            [a, b] => Ok(if compare::compare(a, b)? {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }),
            _ => Err(USAGE.to_string()),
        },
        "child" => {
            let (kind, seed, divisor) = child_args(&Flags::parse(rest)?)?;
            run::child_main(kind, seed, divisor)?;
            Ok(ExitCode::SUCCESS)
        }
        "trace-child" => {
            let flags = Flags::parse(rest)?;
            let (kind, seed, divisor) = child_args(&flags)?;
            let pairs = flags.get("--pairs")?.unwrap_or(1usize);
            let seconds = flags.get("--seconds")?.unwrap_or(0.0f64);
            run::trace_child_main(kind, seed, divisor, pairs, seconds)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
