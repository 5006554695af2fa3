#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # lagover-cli
//!
//! The `lagover` command-line tool: build, inspect, and exercise
//! LagOver dissemination trees from the shell.
//!
//! ```text
//! lagover spec       --workload rand --peers 60 [--seed N] [--source-fanout F]
//! lagover check      (--spec FILE | --workload …)
//! lagover construct  (--spec FILE | --workload …) [--algorithm hybrid] [--oracle random-delay]
//! lagover disseminate(--spec FILE | --workload …) [--rounds N] [--pull-interval T]
//! lagover stream     (--spec FILE | --workload …) [--trees K] [--stream-rate R] [--budget B]
//!                    [--source-budget B] [--rounds N] [--window W] [--ttl N] [--json]
//! lagover evolve     (--spec FILE | --workload …) [--trace N]
//! lagover recover    (--spec FILE | --workload …) [--crash-fraction F] [--message-loss P] [--blackout N]
//! lagover obs        (--spec FILE | --workload …) [--runs N] [--json]
//! lagover node       (--spec FILE | --workload …) [--transport mesh|udp] [--scenario-kind construction|recovery]
//!                    [--node-id I --out-dir DIR] [--base-port P] [--tick-ms T] [--deadline-ms T] [--max-time T]
//! ```
//!
//! `spec` emits a population as JSON (editable by hand); every other
//! command accepts either such a file or workload-generation flags.
//!
//! `node` runs the lockstep node runtime (`lagover-node`): the default
//! mesh transport executes all nodes in-process at virtual time; the
//! udp transport without `--node-id` spawns one OS process per node on
//! loopback (the multi-process harness), and with `--node-id` runs a
//! single node, writing its report to `--out-dir` (the child mode the
//! harness uses).

use std::fmt;

use lagover_core::analysis;
use lagover_core::node::{PeerId, Population};
use lagover_core::{
    check_sufficiency, exact_feasibility, parallel_runs, Algorithm, ConstructionConfig, Engine,
    FaultScenario, OracleKind, Plan, Run,
};
use lagover_feed::{compare_server_load, disseminate, DisseminationConfig, PublishSchedule};
use lagover_node::{
    node_port, run_harness, run_mesh, run_udp_node, HarnessOptions, Scenario, ScenarioSpec,
    UdpNodeOptions,
};
use lagover_obs::{Event, Node, ObsReport};
use lagover_stream::{stream, StreamConfig, StreamError};
use lagover_workload::generators::MAX_RELAXED_LATENCY;
use lagover_workload::{TopologicalConstraint, WorkloadSpec};

/// A CLI failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What went wrong.
    pub message: String,
    /// The arguments themselves cannot be served — a run would need
    /// a forest the budgets cannot carve or a horizon past what can be
    /// held — as opposed to a run that was tried and failed.
    pub usage: bool,
}

impl CliError {
    /// The process exit status: 2 for a usage error, as for arguments
    /// that do not parse, and 1 for a failed run.
    pub fn exit_code(&self) -> u8 {
        if self.usage {
            2
        } else {
            1
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        usage: false,
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        usage: true,
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The subcommand.
    pub command: String,
    /// `--spec FILE` (JSON population).
    pub spec_path: Option<String>,
    /// `--workload <tf1|rand|bicorr|biuncorr|adversarial|zipf>`.
    pub workload: String,
    /// `--peers N`.
    pub peers: usize,
    /// `--seed N`.
    pub seed: u64,
    /// `--source-fanout F`.
    pub source_fanout: u32,
    /// `--algorithm <greedy|hybrid>`.
    pub algorithm: Algorithm,
    /// `--oracle <random|random-capacity|random-delay-capacity|random-delay>`.
    pub oracle: OracleKind,
    /// `--max-rounds N`.
    pub max_rounds: u64,
    /// `--rounds N` (dissemination horizon).
    pub rounds: u64,
    /// `--pull-interval T`.
    pub pull_interval: u64,
    /// `--trees K` (stream: interior-disjoint trees to carve).
    pub trees: usize,
    /// `--stream-rate R` (stream: chunks per publication round).
    pub stream_rate: u64,
    /// `--budget B` (stream: per-peer upload budget, chunks/round).
    pub budget: u64,
    /// `--source-budget B` (stream: source upload budget, chunks/round).
    pub source_budget: u64,
    /// `--window W` (stream: per-edge in-flight chunks per round).
    pub window: u32,
    /// `--ttl N` (stream: rounds a chunk may wait at an edge head).
    pub ttl: u64,
    /// `--trace N` (evolve: max trace events to print).
    pub trace: usize,
    /// `--crash-fraction F` (recover: fraction of interior nodes to
    /// crash-stop).
    pub crash_fraction: f64,
    /// `--message-loss P` (recover: per-interaction loss probability).
    pub message_loss: f64,
    /// `--blackout N` (recover: oracle blackout length in rounds).
    pub blackout: u64,
    /// `--runs N` (obs: observed repetitions to merge).
    pub runs: usize,
    /// `--json` (obs: emit the report as JSON instead of text).
    pub json: bool,
    /// `--transport <mesh|udp>` (node).
    pub transport: String,
    /// `--scenario-kind <construction|recovery>` (node).
    pub scenario_kind: String,
    /// `--node-id I` (node, udp: run this single node instead of the
    /// harness).
    pub node_id: Option<u32>,
    /// `--out-dir DIR` (node, udp: where per-node reports land).
    pub out_dir: Option<String>,
    /// `--base-port P` (node, udp: node `i` binds `P + i`).
    pub base_port: u16,
    /// `--tick-ms T` (node, udp: wall ms per abstract time unit).
    pub tick_ms: f64,
    /// `--deadline-ms T` (node, udp: per-node hard timeout and harness
    /// kill deadline).
    pub deadline_ms: u64,
    /// `--max-time T` (node: round cap on the replicated run).
    pub max_time: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: String::new(),
            spec_path: None,
            workload: "rand".into(),
            peers: 60,
            seed: 42,
            source_fanout: 3,
            algorithm: Algorithm::Hybrid,
            oracle: OracleKind::RandomDelay,
            max_rounds: 20_000,
            rounds: 300,
            pull_interval: 1,
            trees: 2,
            stream_rate: 4,
            budget: 12,
            source_budget: 16,
            window: 2,
            ttl: 16,
            trace: 200,
            crash_fraction: 0.1,
            message_loss: 0.0,
            blackout: 0,
            runs: 1,
            json: false,
            transport: "mesh".into(),
            scenario_kind: "construction".into(),
            node_id: None,
            out_dir: None,
            base_port: 47000,
            tick_ms: 2.0,
            deadline_ms: 120_000,
            max_time: 4_000.0,
        }
    }
}

/// The widest `--max-time`: 2^53 rounds, up to which every whole
/// number is an exact `f64`.
const MAX_ROUND_CAP: f64 = 9_007_199_254_740_992.0;

/// The usage string.
pub const USAGE: &str =
    "usage: lagover <spec|check|construct|disseminate|stream|evolve|recover|obs|node> \
[--spec FILE] [--workload tf1|rand|bicorr|biuncorr|adversarial|zipf] [--peers N] [--seed N] \
[--source-fanout F] [--algorithm greedy|hybrid] \
[--oracle random|random-capacity|random-delay-capacity|random-delay] \
[--max-rounds N] [--rounds N] [--pull-interval T] \
[--trees K] [--stream-rate R] [--budget B] [--source-budget B] [--window W] [--ttl N] [--trace N] \
[--crash-fraction F] [--message-loss P] [--blackout N] [--runs N] [--json] \
[--transport mesh|udp] [--scenario-kind construction|recovery] [--node-id I] \
[--out-dir DIR] [--base-port P] [--tick-ms T] [--deadline-ms T] [--max-time T]";

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a message naming the offending flag or value.
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| err(USAGE))?.clone();
    if ![
        "spec",
        "check",
        "construct",
        "disseminate",
        "stream",
        "evolve",
        "recover",
        "obs",
        "node",
    ]
    .contains(&command.as_str())
    {
        return Err(err(format!("unknown command '{command}'\n{USAGE}")));
    }
    let mut opts = Options {
        command,
        ..Options::default()
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--spec" => opts.spec_path = Some(value()?),
            "--workload" => opts.workload = value()?,
            "--peers" => {
                opts.peers = value()?
                    .parse()
                    .map_err(|_| err("--peers needs an integer"))?;
                if opts.peers == 0 {
                    return Err(err("--peers must be at least 1"));
                }
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| err("--seed needs an integer"))?;
            }
            "--source-fanout" => {
                opts.source_fanout = value()?
                    .parse()
                    .map_err(|_| err("--source-fanout needs an integer"))?;
                if opts.source_fanout == 0 {
                    return Err(err("--source-fanout must be at least 1"));
                }
            }
            "--algorithm" => {
                opts.algorithm = match value()?.as_str() {
                    "greedy" => Algorithm::Greedy,
                    "hybrid" => Algorithm::Hybrid,
                    other => return Err(err(format!("unknown algorithm '{other}'"))),
                }
            }
            "--oracle" => {
                opts.oracle = match value()?.as_str() {
                    "random" => OracleKind::Random,
                    "random-capacity" => OracleKind::RandomCapacity,
                    "random-delay-capacity" => OracleKind::RandomDelayCapacity,
                    "random-delay" => OracleKind::RandomDelay,
                    other => return Err(err(format!("unknown oracle '{other}'"))),
                }
            }
            "--max-rounds" => {
                opts.max_rounds = value()?
                    .parse()
                    .map_err(|_| err("--max-rounds needs an integer"))?;
            }
            "--rounds" => {
                opts.rounds = value()?
                    .parse()
                    .map_err(|_| err("--rounds needs an integer"))?
            }
            "--pull-interval" => {
                opts.pull_interval = value()?
                    .parse()
                    .map_err(|_| err("--pull-interval needs an integer"))?
            }
            "--trees" => {
                opts.trees = value()?
                    .parse()
                    .map_err(|_| err("--trees needs an integer"))?;
                if opts.trees == 0 {
                    return Err(err("--trees must be at least 1"));
                }
            }
            "--stream-rate" => {
                opts.stream_rate = value()?
                    .parse()
                    .map_err(|_| err("--stream-rate needs an integer"))?;
                if opts.stream_rate == 0 {
                    return Err(err("--stream-rate must be at least 1"));
                }
            }
            "--budget" => {
                opts.budget = value()?
                    .parse()
                    .map_err(|_| err("--budget needs an integer"))?
            }
            "--source-budget" => {
                opts.source_budget = value()?
                    .parse()
                    .map_err(|_| err("--source-budget needs an integer"))?
            }
            "--window" => {
                opts.window = value()?
                    .parse()
                    .map_err(|_| err("--window needs an integer"))?;
                if opts.window == 0 {
                    return Err(err("--window must be at least 1"));
                }
            }
            "--ttl" => {
                opts.ttl = value()?
                    .parse()
                    .map_err(|_| err("--ttl needs an integer"))?
            }
            "--trace" => {
                opts.trace = value()?
                    .parse()
                    .map_err(|_| err("--trace needs an integer"))?
            }
            "--crash-fraction" => {
                opts.crash_fraction = value()?
                    .parse()
                    .map_err(|_| err("--crash-fraction needs a number"))?;
                if !(0.0..=1.0).contains(&opts.crash_fraction) {
                    return Err(err("--crash-fraction must be in [0, 1]"));
                }
            }
            "--message-loss" => {
                opts.message_loss = value()?
                    .parse()
                    .map_err(|_| err("--message-loss needs a number"))?;
                if !(0.0..=1.0).contains(&opts.message_loss) {
                    return Err(err("--message-loss must be in [0, 1]"));
                }
            }
            "--blackout" => {
                opts.blackout = value()?
                    .parse()
                    .map_err(|_| err("--blackout needs an integer"))?
            }
            "--runs" => {
                opts.runs = value()?
                    .parse()
                    .map_err(|_| err("--runs needs an integer"))?;
                if opts.runs == 0 {
                    return Err(err("--runs must be at least 1"));
                }
            }
            "--json" => opts.json = true,
            "--transport" => {
                opts.transport = value()?;
                if !["mesh", "udp"].contains(&opts.transport.as_str()) {
                    return Err(err(format!(
                        "unknown transport '{}' (expected mesh or udp)",
                        opts.transport
                    )));
                }
            }
            "--scenario-kind" => {
                opts.scenario_kind = value()?;
                if !["construction", "recovery"].contains(&opts.scenario_kind.as_str()) {
                    return Err(err(format!(
                        "unknown scenario kind '{}' (expected construction or recovery)",
                        opts.scenario_kind
                    )));
                }
            }
            "--node-id" => {
                opts.node_id = Some(
                    value()?
                        .parse()
                        .map_err(|_| err("--node-id needs an integer"))?,
                )
            }
            "--out-dir" => opts.out_dir = Some(value()?),
            "--base-port" => {
                opts.base_port = value()?
                    .parse()
                    .map_err(|_| err("--base-port needs a port number"))?
            }
            "--tick-ms" => {
                opts.tick_ms = value()?
                    .parse()
                    .map_err(|_| err("--tick-ms needs a number"))?;
                if opts.tick_ms.is_nan() || opts.tick_ms <= 0.0 {
                    return Err(err("--tick-ms must be positive"));
                }
            }
            "--deadline-ms" => {
                opts.deadline_ms = value()?
                    .parse()
                    .map_err(|_| err("--deadline-ms needs an integer"))?
            }
            "--max-time" => {
                opts.max_time = value()?
                    .parse()
                    .map_err(|_| err("--max-time needs a number"))?;
                if !(1.0..=MAX_ROUND_CAP).contains(&opts.max_time) || opts.max_time.fract() != 0.0 {
                    return Err(err(format!(
                        "--max-time must be a whole number of rounds in 1..={MAX_ROUND_CAP}"
                    )));
                }
            }
            other => return Err(err(format!("unknown flag '{other}'\n{USAGE}"))),
        }
    }
    Ok(opts)
}

/// Resolves the population: from `--spec` JSON if given, else generated
/// from the workload flags.
pub fn resolve_population(opts: &Options) -> Result<Population, CliError> {
    if let Some(path) = &opts.spec_path {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        let population: Population = lagover_jsonio::from_str(&text)
            .map_err(|e| err(format!("cannot parse {path}: {e}")))?;
        // Latency-indexed state is sized from the largest latency, so an
        // absurd one would abort on the allocation. Past the population
        // size no chain is that deep; the generators' ceiling stays
        // allowed so that every `lagover spec` document reads back.
        let limit = u32::try_from(population.len())
            .unwrap_or(u32::MAX)
            .max(MAX_RELAXED_LATENCY);
        if let Some((p, c)) = population.iter().find(|(_, c)| c.latency > limit) {
            return Err(err(format!(
                "{path}: {p} has latency {}, above the limit {limit} \
                 (the population size, or {MAX_RELAXED_LATENCY} if larger)",
                c.latency
            )));
        }
        return Ok(population);
    }
    let constraint = match opts.workload.as_str() {
        "tf1" => TopologicalConstraint::Tf1,
        "rand" => TopologicalConstraint::Rand,
        "bicorr" => TopologicalConstraint::BiCorr,
        "biuncorr" => TopologicalConstraint::BiUnCorr,
        "adversarial" => TopologicalConstraint::Adversarial {
            chain: 2,
            hub_fanout: 2,
        },
        "zipf" => TopologicalConstraint::Zipf { exponent_x100: 150 },
        other => return Err(err(format!("unknown workload '{other}'"))),
    };
    WorkloadSpec::new(constraint, opts.peers)
        .with_source_fanout(opts.source_fanout)
        .generate(opts.seed)
        .map_err(|e| err(format!("generation failed: {e}")))
}

/// Runs the parsed command, returning the text to print.
///
/// # Errors
///
/// Any population/IO/parse failure, with a user-facing message.
pub fn run(opts: &Options) -> Result<String, CliError> {
    match opts.command.as_str() {
        "spec" => cmd_spec(opts),
        "check" => cmd_check(opts),
        "construct" => cmd_construct(opts),
        "disseminate" => cmd_disseminate(opts),
        "stream" => cmd_stream(opts),
        "evolve" => cmd_evolve(opts),
        "recover" => cmd_recover(opts),
        "obs" => cmd_obs(opts),
        "node" => cmd_node(opts),
        other => Err(err(format!("unknown command '{other}'"))),
    }
}

fn cmd_spec(opts: &Options) -> Result<String, CliError> {
    let population = resolve_population(opts)?;
    Ok(lagover_jsonio::to_string_pretty(&population))
}

fn cmd_check(opts: &Options) -> Result<String, CliError> {
    let population = resolve_population(opts)?;
    let report = check_sufficiency(&population);
    let mut out = format!(
        "{} peers, source fanout {}\nsufficiency condition: {}\n",
        population.len(),
        population.source_fanout(),
        if report.satisfied {
            "SATISFIED"
        } else {
            "violated"
        },
    );
    if let Some(level) = report.first_violation {
        out += &format!("first overloaded level: {level}\n");
    }
    for lr in &report.levels {
        out += &format!(
            "  level {:>2}: demand {:>4}  available {:>4}\n",
            lr.level, lr.demand, lr.available
        );
    }
    if population.len() <= 16 {
        match exact_feasibility(&population) {
            Some(depths) => {
                out += "exact feasibility: a LagOver exists; witness depths:\n";
                for (i, d) in depths.iter().enumerate() {
                    out += &format!("  peer {i}: depth {d}\n");
                }
            }
            None => out += "exact feasibility: NO LagOver exists for this population\n",
        }
    } else {
        out += "exact feasibility: population too large for exhaustive search (<= 16)\n";
    }
    Ok(out)
}

fn render_tree(engine: &Engine, population: &Population) -> String {
    let mut out = String::from("source\n");
    let mut stack: Vec<(PeerId, u32)> = engine
        .overlay()
        .source_children()
        .iter()
        .rev()
        .map(|&c| (c, 1))
        .collect();
    while let Some((p, depth)) = stack.pop() {
        let c = population.constraints(p);
        out += &format!(
            "{}└─ peer {} (l={}, f={}, delay={})\n",
            "   ".repeat(depth as usize),
            p.get(),
            c.latency,
            c.fanout,
            engine
                .overlay()
                .delay(p)
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
        );
        for &child in engine.overlay().children(p).iter().rev() {
            stack.push((child, depth + 1));
        }
    }
    let fragments: Vec<u32> = population
        .peer_ids()
        .filter(|&p| engine.overlay().parent(p).is_none())
        .map(PeerId::get)
        .collect();
    if !fragments.is_empty() {
        out += &format!("unattached peers: {fragments:?}\n");
    }
    out
}

fn build(opts: &Options, population: &Population) -> Engine {
    let config =
        ConstructionConfig::new(opts.algorithm, opts.oracle).with_max_rounds(opts.max_rounds);
    Engine::new(population, &config, opts.seed)
}

fn cmd_construct(opts: &Options) -> Result<String, CliError> {
    let population = resolve_population(opts)?;
    let mut engine = build(opts, &population);
    let converged = engine.run_to_convergence();
    let mut out = match converged {
        Some(round) => format!("converged in {} rounds\n", round.get()),
        None => format!(
            "did not converge within {} rounds (satisfied fraction {:.3})\n",
            opts.max_rounds,
            engine.satisfied_fraction()
        ),
    };
    out += &render_tree(&engine, &population);
    let depth = analysis::depth_profile(engine.overlay(), &population);
    let slack = analysis::slack_profile(engine.overlay(), &population);
    out += &format!(
        "depth: max {}, mean {:.2}; slack: min {:?}, mean {:.2} ({} tight, {} violated)\n",
        depth.max_depth,
        depth.mean_depth,
        slack.min_slack,
        slack.mean_slack,
        slack.tight,
        slack.violated,
    );
    if let Some(g) = analysis::gradation_coefficient(engine.overlay(), &population) {
        out += &format!("latency gradation coefficient: {g:.3}\n");
    }
    Ok(out)
}

fn cmd_disseminate(opts: &Options) -> Result<String, CliError> {
    let population = resolve_population(opts)?;
    let mut engine = build(opts, &population);
    engine
        .run_to_convergence()
        .ok_or_else(|| err("construction did not converge; cannot disseminate"))?;
    let report = disseminate(
        engine.overlay(),
        &population,
        &DisseminationConfig {
            pull_interval: opts.pull_interval,
            rounds: opts.rounds,
            schedule: PublishSchedule::Periodic { interval: 3 },
        },
        opts.seed,
    )
    .map_err(|e| usage(format!("cannot disseminate: {e}")))?;
    let load = compare_server_load(engine.overlay(), &population, opts.pull_interval);
    Ok(format!(
        "published {} items over {} rounds\nmax staleness: {:?} (constraint violations: {})\nserver load: {:.1} req/round direct polling vs {:.1} via LagOver ({:.1}x reduction)\n",
        report.items_published,
        opts.rounds,
        report.max_staleness(),
        report.constraint_violations.len(),
        load.direct_polling_rate,
        load.lagover_rate,
        load.reduction_factor,
    ))
}

fn cmd_stream(opts: &Options) -> Result<String, CliError> {
    // Chunks still in flight when publishing stops get twice as long
    // again to land.
    let drain_rounds = opts.rounds.checked_mul(2).ok_or_else(|| {
        usage(format!(
            "cannot stream: --rounds {} leaves no room on the round clock for its drain",
            opts.rounds
        ))
    })?;
    let population = resolve_population(opts)?;
    let mut engine = build(opts, &population);
    engine
        .run_to_convergence()
        .ok_or_else(|| err("construction did not converge; cannot stream"))?;
    let budgets =
        lagover_core::StreamBudgets::uniform(population.len(), opts.budget, opts.source_budget);
    let config = StreamConfig {
        k: opts.trees,
        rate: opts.stream_rate,
        schedule: PublishSchedule::Periodic { interval: 1 },
        rounds: opts.rounds,
        drain_rounds,
        window: opts.window,
        ttl: opts.ttl,
        chunk_bytes: 1024,
    };
    let report = stream(engine.overlay(), &population, &budgets, &config, opts.seed).map_err(
        |e| match e {
            StreamError::Carve(e) => usage(format!("cannot carve {} tree(s): {e}", opts.trees)),
            e => usage(format!("cannot stream: {e}")),
        },
    )?;
    if opts.json {
        return Ok(lagover_jsonio::to_string_pretty(&report));
    }
    Ok(format!(
        "striped {} chunks across {} tree(s) over {} rounds ({} subscribers)\n\
         delivered {:.1}% ({} of {} chunk-subscriber pairs), {:.0} bytes/round\n\
         staleness rounds: median {}, p95 {}, max {}\n\
         backpressure: {} stalled edge-rounds, {} chunks dropped at ttl {}\n\
         forest: max depth {}, source capacity {} children/tree\n",
        report.chunks_published,
        report.k,
        report.rounds_run,
        report.rooted,
        100.0 * report.delivered_fraction,
        report.deliveries,
        report.expected_deliveries,
        report.bytes_per_round,
        report.staleness.median,
        report.staleness.p95,
        report.staleness.max,
        report.stalls,
        report.drops,
        opts.ttl,
        report.max_depth,
        report.source_capacity,
    ))
}

fn cmd_evolve(opts: &Options) -> Result<String, CliError> {
    let population = resolve_population(opts)?;
    let mut engine = build(opts, &population);
    engine.obs_mut().enable_journal(1_000_000);
    let converged = engine.run_to_convergence();
    let journal = engine.obs_mut().take_journal().expect("journal enabled");
    // Only the structural (attach/detach) events, oldest first; only
    // the first `--trace` of them are rendered.
    let mut total = 0usize;
    let mut out = String::new();
    for event in journal.iter() {
        let line = match *event {
            Event::Attach {
                round,
                child,
                parent,
            } => format!("r{round}: {} <- {parent}\n", Node::Peer(child)),
            Event::Detach {
                round,
                child,
                parent,
                cause,
            } => format!("r{round}: {} !<- {parent} ({cause})\n", Node::Peer(child)),
            _ => continue,
        };
        total += 1;
        if total <= opts.trace {
            out += &line;
        }
    }
    if total > opts.trace {
        out += &format!("… {} more events (raise --trace)\n", total - opts.trace);
    }
    out += &match converged {
        Some(round) => format!(
            "converged in {} rounds, {} structural events\n",
            round.get(),
            total
        ),
        None => format!("not converged after {} rounds\n", opts.max_rounds),
    };
    Ok(out)
}

fn cmd_recover(opts: &Options) -> Result<String, CliError> {
    let population = resolve_population(opts)?;
    let config =
        ConstructionConfig::new(opts.algorithm, opts.oracle).with_max_rounds(opts.max_rounds);
    let scenario = FaultScenario {
        crash_fraction: opts.crash_fraction,
        message_loss: opts.message_loss,
        blackout_rounds: opts.blackout,
    };
    let outcome = Run::new(&population, &config, opts.seed)
        .perturb(&Plan::faults(scenario), opts.rounds)
        .outcome;
    let mut out = match outcome.converged_at {
        Some(round) => format!("constructed in {round} rounds\n"),
        None => format!(
            "construction did not converge within {} rounds\n",
            opts.max_rounds
        ),
    };
    out += &format!(
        "crashed {} interior peer(s) at round {}",
        outcome.victims.len(),
        outcome.injected_at
    );
    if opts.blackout > 0 {
        out += &format!(", oracle blacked out for {} rounds", opts.blackout);
    }
    if opts.message_loss > 0.0 {
        out += &format!(", message loss {}", opts.message_loss);
    }
    out += "\n";
    out += &match outcome.rounds_to_clean {
        Some(r) => format!("recovered in {r} rounds\n"),
        None => format!("NOT recovered within the {}-round horizon\n", opts.rounds),
    };
    out += &format!(
        "orphan peak: {}; stale-chain rounds: {}; detections: {}; lost messages: {}; oracle outages: {}\n",
        outcome.orphan_peak,
        outcome.stale_rounds,
        outcome.counters.failure_detections,
        outcome.counters.messages_lost,
        outcome.counters.oracle_outages,
    );
    Ok(out)
}

/// Journal capacity for `lagover obs` runs.
const OBS_JOURNAL_CAPACITY: usize = 8_192;
/// Registry scrape / health-probe cadence in rounds for `lagover obs`.
const OBS_SAMPLE_INTERVAL: u64 = 10;

fn cmd_obs(opts: &Options) -> Result<String, CliError> {
    let population = resolve_population(opts)?;
    let config =
        ConstructionConfig::new(opts.algorithm, opts.oracle).with_max_rounds(opts.max_rounds);
    let label = format!(
        "{} {}/{} n={}",
        opts.workload,
        opts.algorithm,
        opts.oracle.label(),
        population.len()
    );
    // Each run derives everything from its own seed, so the parallel
    // map is bit-identical to the sequential loop (and to any
    // `LAGOVER_THREADS` setting).
    let reports: Vec<ObsReport> = parallel_runs(opts.runs, |r| {
        let seed = opts.seed.wrapping_add(r as u64);
        Run::new(&population, &config, seed)
            .observe(OBS_JOURNAL_CAPACITY, OBS_SAMPLE_INTERVAL)
            .construct()
            .into_report(&label, population.len(), seed)
    });
    let mut it = reports.into_iter();
    let mut merged = it.next().expect("--runs >= 1");
    for report in it {
        merged.merge(&report);
    }
    if opts.json {
        Ok(lagover_jsonio::to_string_pretty(&merged))
    } else {
        Ok(merged.render())
    }
}

fn node_scenario(opts: &Options) -> Result<Scenario, CliError> {
    Ok(match opts.scenario_kind.as_str() {
        "construction" => Scenario::Construction,
        "recovery" => Scenario::Recovery {
            crash_fraction: opts.crash_fraction,
        },
        other => return Err(err(format!("unknown scenario kind '{other}'"))),
    })
}

fn node_spec(opts: &Options) -> Result<ScenarioSpec, CliError> {
    Ok(ScenarioSpec {
        scenario: node_scenario(opts)?,
        config: ConstructionConfig::new(opts.algorithm, opts.oracle)
            .with_max_rounds(opts.max_rounds),
        max_time: opts.max_time,
        journal_capacity: OBS_JOURNAL_CAPACITY,
    })
}

fn node_summary(merged: &lagover_node::MergedRun) -> String {
    let r = &merged.report;
    let mut out = format!(
        "halted: {} | actions {} | satisfied {:.3} | stale chains {}\n",
        if merged.finished() {
            "finished"
        } else {
            "round cap"
        },
        r.actions,
        r.final_satisfied_fraction,
        r.final_stale_chains,
    );
    // The replicas run the lockstep round clock: both stamps are
    // rounds, whatever the report's `f64` fields suggest.
    if let Some(round) = r.converged_at {
        out += &format!("converged at round {round:.0}\n");
    }
    if r.scenario == "recovery" {
        out += &format!("crashed {} interior peer(s)\n", r.crashed_peers);
        match r.healed_at {
            Some(round) => out += &format!("healed at round {round:.0}\n"),
            None => out += "NOT healed within the round cap\n",
        }
    }
    out
}

fn cmd_node(opts: &Options) -> Result<String, CliError> {
    let population = resolve_population(opts)?;
    let spec = node_spec(opts)?;
    // Node i binds base-port + i: refuse before spawning anything if
    // the last node's port does not exist.
    let last_node = u32::try_from(population.len().saturating_sub(1)).unwrap_or(u32::MAX);
    if opts.transport == "udp" && node_port(opts.base_port, last_node).is_none() {
        return Err(err(format!(
            "--base-port {} with {} peers needs ports up to {}, past 65535",
            opts.base_port,
            population.len(),
            u64::from(opts.base_port) + u64::from(last_node)
        )));
    }
    let label = format!(
        "nodesim {} {} n={} seed={}",
        opts.transport,
        opts.scenario_kind,
        population.len(),
        opts.seed
    );
    match (opts.transport.as_str(), opts.node_id) {
        ("mesh", None) => {
            let run = run_mesh(&population, &spec, opts.seed).map_err(err)?;
            let obs = run.merged.to_obs_report(&label);
            if opts.json {
                Ok(lagover_jsonio::to_string_pretty(&obs))
            } else {
                Ok(format!(
                    "{} peers over the in-process mesh transport\n{}{}",
                    population.len(),
                    node_summary(&run.merged),
                    obs.render(),
                ))
            }
        }
        ("mesh", Some(_)) => Err(err("--node-id only applies to --transport udp")),
        ("udp", Some(me)) => {
            // Child mode: run one node, write its report where the
            // harness will collect it.
            let out_dir = opts
                .out_dir
                .as_deref()
                .ok_or_else(|| err("--node-id needs --out-dir for the report"))?;
            let report = run_udp_node(
                &population,
                &spec,
                opts.seed,
                &UdpNodeOptions {
                    me,
                    base_port: opts.base_port,
                    tick_ms: opts.tick_ms,
                    linger_ms: 500,
                    hard_timeout_ms: opts.deadline_ms,
                },
            )
            .map_err(err)?;
            std::fs::create_dir_all(out_dir)
                .map_err(|e| err(format!("creating {out_dir}: {e}")))?;
            let path = std::path::Path::new(out_dir).join(format!("node_{me}.json"));
            std::fs::write(&path, lagover_jsonio::to_string(&report))
                .map_err(|e| err(format!("writing {}: {e}", path.display())))?;
            // Quiet on stdout: the harness inherits it, so anything
            // printed here would interleave with the parent's own
            // output (notably `--json`). The report file is the result.
            eprintln!(
                "node {me}: halted after {} own actions ({} global)",
                report.own_actions, report.actions
            );
            Ok(String::new())
        }
        ("udp", None) => {
            // Harness mode: spawn one child per node on loopback.
            let program = std::env::current_exe()
                .map_err(|e| err(format!("cannot locate own binary: {e}")))?;
            let out_dir = match &opts.out_dir {
                Some(dir) => std::path::PathBuf::from(dir),
                None => std::env::temp_dir().join(format!(
                    "lagover-node-{}-{}",
                    std::process::id(),
                    opts.seed
                )),
            };
            let mut common_args: Vec<String> = vec![
                "node".into(),
                "--transport".into(),
                "udp".into(),
                "--scenario-kind".into(),
                opts.scenario_kind.clone(),
                "--seed".into(),
                opts.seed.to_string(),
                "--algorithm".into(),
                match opts.algorithm {
                    Algorithm::Greedy => "greedy".into(),
                    Algorithm::Hybrid => "hybrid".into(),
                },
                "--oracle".into(),
                match opts.oracle {
                    OracleKind::Random => "random".into(),
                    OracleKind::RandomCapacity => "random-capacity".into(),
                    OracleKind::RandomDelayCapacity => "random-delay-capacity".into(),
                    OracleKind::RandomDelay => "random-delay".into(),
                },
                "--max-rounds".into(),
                opts.max_rounds.to_string(),
                "--max-time".into(),
                opts.max_time.to_string(),
                "--crash-fraction".into(),
                opts.crash_fraction.to_string(),
                "--base-port".into(),
                opts.base_port.to_string(),
                "--tick-ms".into(),
                opts.tick_ms.to_string(),
                "--deadline-ms".into(),
                opts.deadline_ms.to_string(),
                "--out-dir".into(),
                out_dir.to_string_lossy().into_owned(),
            ];
            match &opts.spec_path {
                Some(path) => {
                    common_args.push("--spec".into());
                    common_args.push(path.clone());
                }
                None => {
                    common_args.extend([
                        "--workload".into(),
                        opts.workload.clone(),
                        "--peers".into(),
                        opts.peers.to_string(),
                        "--source-fanout".into(),
                        opts.source_fanout.to_string(),
                    ]);
                }
            }
            let outcome = run_harness(&HarnessOptions {
                program,
                common_args,
                peers: population.len() as u32,
                out_dir,
                deadline_ms: opts.deadline_ms,
                label: label.clone(),
            })
            .map_err(err)?;
            if opts.json {
                Ok(lagover_jsonio::to_string_pretty(&outcome.obs))
            } else {
                Ok(format!(
                    "{} node processes over UDP loopback (ports {}..{})\n{}{}",
                    population.len(),
                    opts.base_port,
                    u32::from(opts.base_port) + population.len() as u32 - 1,
                    node_summary(&outcome.merged),
                    outcome.obs.render(),
                ))
            }
        }
        (other, _) => Err(err(format!("unknown transport '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let opts = parse_args(&args(
            "construct --workload bicorr --peers 50 --seed 9 --algorithm greedy \
             --oracle random --max-rounds 100 --source-fanout 5",
        ))
        .unwrap();
        assert_eq!(opts.command, "construct");
        assert_eq!(opts.workload, "bicorr");
        assert_eq!(opts.peers, 50);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.algorithm, Algorithm::Greedy);
        assert_eq!(opts.oracle, OracleKind::Random);
        assert_eq!(opts.max_rounds, 100);
        assert_eq!(opts.source_fanout, 5);
    }

    #[test]
    fn rejects_unknown_bits() {
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("check --bogus 1")).is_err());
        assert!(parse_args(&args("check --peers")).is_err());
        assert!(parse_args(&args("check --peers x")).is_err());
        assert!(parse_args(&args("construct --oracle psychic")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn spec_round_trips_through_check() {
        let opts = parse_args(&args("spec --workload rand --peers 20 --seed 3")).unwrap();
        let json = run(&opts).unwrap();
        let population: Population = lagover_jsonio::from_str(&json).unwrap();
        assert_eq!(population.len(), 20);
    }

    #[test]
    fn check_reports_sufficiency_and_feasibility() {
        let opts = parse_args(&args("check --workload adversarial")).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("violated"), "{out}");
        assert!(out.contains("a LagOver exists"), "{out}");
    }

    #[test]
    fn construct_prints_tree_and_analysis() {
        let opts = parse_args(&args("construct --workload rand --peers 25 --seed 4")).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("converged in"), "{out}");
        assert!(out.contains("source\n"), "{out}");
        assert!(out.contains("gradation coefficient"), "{out}");
    }

    #[test]
    fn disseminate_reports_load_reduction() {
        let opts =
            parse_args(&args("disseminate --workload rand --peers 25 --rounds 100")).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("reduction"), "{out}");
        assert!(out.contains("constraint violations: 0"), "{out}");
    }

    #[test]
    fn stream_flags_parse_and_validate() {
        let opts = parse_args(&args(
            "stream --workload rand --peers 30 --trees 4 --stream-rate 8 --budget 20 \
             --source-budget 32 --window 3 --ttl 24 --rounds 40",
        ))
        .unwrap();
        assert_eq!(opts.command, "stream");
        assert_eq!(opts.trees, 4);
        assert_eq!(opts.stream_rate, 8);
        assert_eq!(opts.budget, 20);
        assert_eq!(opts.source_budget, 32);
        assert_eq!(opts.window, 3);
        assert_eq!(opts.ttl, 24);
        assert!(parse_args(&args("stream --trees 0")).is_err());
        assert!(parse_args(&args("stream --stream-rate 0")).is_err());
        assert!(parse_args(&args("stream --window 0")).is_err());
    }

    #[test]
    fn stream_reports_throughput_and_backpressure() {
        let opts = parse_args(&args(
            "stream --workload rand --peers 30 --seed 5 --rounds 32",
        ))
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("striped"), "{out}");
        assert!(out.contains("bytes/round"), "{out}");
        assert!(out.contains("backpressure"), "{out}");
    }

    #[test]
    fn stream_json_is_byte_stable() {
        let opts = parse_args(&args(
            "stream --workload rand --peers 30 --seed 5 --rounds 32 --json",
        ))
        .unwrap();
        let a = run(&opts).unwrap();
        assert_eq!(a, run(&opts).unwrap());
        assert!(a.contains("\"delivered_fraction\""), "{a}");
    }

    #[test]
    fn stream_surfaces_infeasible_budgets_cleanly() {
        let opts = parse_args(&args(
            "stream --workload rand --peers 30 --seed 5 --trees 1 --budget 2",
        ))
        .unwrap();
        let e = run(&opts).unwrap_err();
        assert!(e.message.contains("cannot carve"), "{e}");
        assert!(e.message.contains("infeasible"), "{e}");
        assert_eq!(e.exit_code(), 2, "the budgets cannot serve the request");
    }

    #[test]
    fn a_horizon_past_the_round_clock_is_a_usage_error() {
        // Fails before the publication list is allocated; a horizon that
        // overflows only once allocated depends on the machine's memory.
        for (verb, message) in [
            ("stream", "leaves no room on the round clock"),
            ("disseminate", "publishes more items than memory holds"),
        ] {
            let opts = parse_args(&args(&format!(
                "{verb} --workload rand --peers 30 --seed 5 --rounds {}",
                u64::MAX
            )))
            .unwrap();
            let e = run(&opts).unwrap_err();
            assert!(e.message.contains(message), "{verb}: {e}");
            assert_eq!(e.exit_code(), 2, "{verb}: {e}");
        }
    }

    #[test]
    fn a_run_that_fails_is_not_a_usage_error() {
        let opts = parse_args(&args(
            "stream --workload rand --peers 30 --seed 5 --max-rounds 1",
        ))
        .unwrap();
        let e = run(&opts).unwrap_err();
        assert!(e.message.contains("did not converge"), "{e}");
        assert_eq!(e.exit_code(), 1, "{e}");
    }

    #[test]
    fn evolve_prints_trace_events() {
        let opts = parse_args(&args(
            "evolve --workload adversarial --algorithm hybrid --trace 50",
        ))
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("<-"), "{out}");
        assert!(out.contains("converged in"), "{out}");
    }

    #[test]
    fn recover_flags_parse_and_validate() {
        let opts = parse_args(&args(
            "recover --workload rand --peers 30 --crash-fraction 0.2 --message-loss 0.05 \
             --blackout 10 --rounds 400",
        ))
        .unwrap();
        assert_eq!(opts.command, "recover");
        assert_eq!(opts.crash_fraction, 0.2);
        assert_eq!(opts.message_loss, 0.05);
        assert_eq!(opts.blackout, 10);
        assert!(parse_args(&args("recover --crash-fraction 1.5")).is_err());
        assert!(parse_args(&args("recover --message-loss -0.1")).is_err());
    }

    #[test]
    fn recover_reports_healing() {
        let opts = parse_args(&args(
            "recover --workload rand --peers 30 --seed 5 --crash-fraction 0.2 --rounds 600",
        ))
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("crashed"), "{out}");
        assert!(out.contains("recovered in"), "{out}");
        assert!(out.contains("orphan peak"), "{out}");
    }

    #[test]
    fn obs_renders_report_sections() {
        let opts = parse_args(&args("obs --workload rand --peers 25 --seed 4 --runs 2")).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("converged"), "{out}");
        assert!(out.contains("counters"), "{out}");
        assert!(out.contains("health"), "{out}");
    }

    #[test]
    fn obs_json_is_byte_stable_and_parseable() {
        let opts = parse_args(&args(
            "obs --workload rand --peers 25 --seed 4 --runs 2 --json",
        ))
        .unwrap();
        let a = run(&opts).unwrap();
        let b = run(&opts).unwrap();
        assert_eq!(a, b, "obs --json output is not byte-stable");
        let report: ObsReport = lagover_jsonio::from_str(&a).unwrap();
        assert_eq!(report.runs, 2);
        assert_eq!(report.peers, 25);
    }

    #[test]
    fn obs_rejects_zero_runs() {
        assert!(parse_args(&args("obs --runs 0")).is_err());
    }

    #[test]
    fn node_flags_parse_and_validate() {
        let opts = parse_args(&args(
            "node --transport udp --scenario-kind recovery --crash-fraction 0.25 \
             --node-id 3 --out-dir /tmp/x --base-port 48000 --tick-ms 1.5 \
             --deadline-ms 30000 --max-time 2000",
        ))
        .unwrap();
        assert_eq!(opts.command, "node");
        assert_eq!(opts.transport, "udp");
        assert_eq!(opts.scenario_kind, "recovery");
        assert_eq!(opts.node_id, Some(3));
        assert_eq!(opts.out_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(opts.base_port, 48000);
        assert_eq!(opts.tick_ms, 1.5);
        assert_eq!(opts.deadline_ms, 30_000);
        assert_eq!(opts.max_time, 2_000.0);
        assert!(parse_args(&args("node --transport carrier-pigeon")).is_err());
        assert!(parse_args(&args("node --scenario-kind demolition")).is_err());
        assert!(parse_args(&args("node --tick-ms 0")).is_err());
        assert!(parse_args(&args("node --max-time -5")).is_err());
        for cap in ["inf", "NaN", "1e17", "0", "2.5"] {
            let parsed = parse_args(&args(&format!("node --max-time {cap} --peers 8")));
            assert!(parsed.is_err(), "--max-time {cap} must be rejected");
        }
        let widest = parse_args(&args("node --max-time 9007199254740992")).unwrap();
        assert_eq!(widest.max_time, MAX_ROUND_CAP);
    }

    #[test]
    fn node_udp_rejects_ports_past_65535_before_spawning() {
        let opts =
            parse_args(&args("node --transport udp --base-port 65000 --peers 1000")).unwrap();
        let e = run(&opts).expect_err("node 999 would need port 65999");
        assert!(e.message.contains("past 65535"), "{e}");
    }

    #[test]
    fn node_mesh_runs_and_summarizes() {
        let opts = parse_args(&args("node --workload rand --peers 16 --seed 3")).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("in-process mesh transport"), "{out}");
        assert!(out.contains("halted: finished"), "{out}");
        assert!(out.contains("observability report: nodesim mesh"), "{out}");
        // The replicas run the simulator's round clock: the summary
        // names the round `construct` converges in.
        let construct =
            run(&parse_args(&args("construct --workload rand --peers 16 --seed 3")).unwrap())
                .unwrap();
        let rounds = construct
            .strip_prefix("converged in ")
            .and_then(|rest| rest.split(' ').next())
            .expect("construct converges");
        assert!(
            out.contains(&format!("converged at round {rounds}\n")),
            "{out}"
        );
    }

    #[test]
    fn node_mesh_recovery_reports_healing() {
        let opts = parse_args(&args(
            "node --workload rand --peers 16 --seed 3 --scenario-kind recovery \
             --crash-fraction 0.2",
        ))
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("crashed"), "{out}");
        assert!(out.contains("healed at round "), "{out}");
    }

    #[test]
    fn node_mesh_json_is_byte_stable_and_parseable() {
        let opts = parse_args(&args("node --workload rand --peers 16 --seed 3 --json")).unwrap();
        let a = run(&opts).unwrap();
        let b = run(&opts).unwrap();
        assert_eq!(a, b, "node --json output is not byte-stable");
        let report: ObsReport = lagover_jsonio::from_str(&a).unwrap();
        assert_eq!(report.converged, 1);
        assert!(report.journal.is_some());
    }

    #[test]
    fn node_rejects_contradictory_modes() {
        let opts = parse_args(&args("node --node-id 1")).unwrap();
        let e = run(&opts).unwrap_err();
        assert!(e.message.contains("--transport udp"), "{e}");
        let opts = parse_args(&args("node --transport udp --node-id 1")).unwrap();
        let e = run(&opts).unwrap_err();
        assert!(e.message.contains("--out-dir"), "{e}");
    }

    #[test]
    fn spec_file_round_trip() {
        let dir = std::env::temp_dir().join("lagover-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pop.json");
        let spec_opts = parse_args(&args("spec --workload tf1 --peers 12")).unwrap();
        std::fs::write(&path, run(&spec_opts).unwrap()).unwrap();
        let check_opts = parse_args(&[
            "check".to_string(),
            "--spec".to_string(),
            path.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let out = run(&check_opts).unwrap();
        assert!(out.contains("12 peers"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_peers_is_a_clean_error() {
        let e = parse_args(&args("construct --peers 0")).unwrap_err();
        assert!(e.message.contains("--peers must be at least 1"), "{e}");
    }

    #[test]
    fn zero_source_fanout_is_a_clean_error() {
        let e = parse_args(&args("construct --source-fanout 0")).unwrap_err();
        assert!(
            e.message.contains("--source-fanout must be at least 1"),
            "{e}"
        );
    }

    #[test]
    fn a_spec_latency_past_the_population_is_a_clean_error() {
        let dir = std::env::temp_dir().join("lagover-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge-latency.json");
        let spec = r#"{"source_fanout": 2, "peers": [
            {"fanout": 1, "latency": 1},
            {"fanout": 0, "latency": 4294967295}
        ]}"#;
        std::fs::write(&path, spec).unwrap();
        let path = path.to_string_lossy().into_owned();
        let opts =
            parse_args(&["construct".to_string(), "--spec".to_string(), path.clone()]).unwrap();
        let e = run(&opts).unwrap_err();
        assert!(
            e.message
                .contains("peer 1 has latency 4294967295, above the limit 60"),
            "{e}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_spec_fanout_past_the_population_constructs() {
        // One fanout past any allocation, and two whose u32 sum wraps.
        let dir = std::env::temp_dir().join("lagover-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, peers) in [
            (
                "huge-fanout.json",
                r#"{"fanout": 4294967295, "latency": 1}"#,
            ),
            (
                "wrapping-fanouts.json",
                r#"{"fanout": 2147483648, "latency": 1}, {"fanout": 2147483648, "latency": 2},
                   {"fanout": 0, "latency": 2}"#,
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(r#"{{"source_fanout": 1, "peers": [{peers}]}}"#),
            )
            .unwrap();
            let path = path.to_string_lossy().into_owned();
            let opts = parse_args(&["construct".to_string(), "--spec".to_string(), path.clone()]);
            let out = run(&opts.unwrap()).unwrap();
            assert!(out.starts_with("converged in"), "{name}: {out}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn missing_spec_file_is_a_clean_error() {
        let opts = parse_args(&[
            "check".to_string(),
            "--spec".to_string(),
            "/nonexistent/pop.json".to_string(),
        ])
        .unwrap();
        let e = run(&opts).unwrap_err();
        assert!(e.message.contains("cannot read"));
    }
}
