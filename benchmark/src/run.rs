//! The `run` command: the parent that schedules operations, the
//! resident end-to-end child it talks to, and the report.
//!
//! Load shape: a closed loop with one client. Each workload lives in
//! its own child process (the parent re-executes itself), which does
//! the set-up and then blocks on stdin. The parent triggers one
//! operation at a time — one per workload per pass (four for
//! `recover_crash`), round-robin — so only one child ever runs, slow
//! drift of a shared host lands on all workloads alike, and each
//! workload's samples span the whole run. Pass 0 warms up and is
//! discarded. After the passes a separate traced child per workload
//! fills the per-layer ledger (`layers.rs`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use lagover_jsonio::{object, parse, FromJson, Json, ToJson};

use crate::layers::{reset_vm_hwm, traced_run, vm_hwm_kb, TraceReport};
use crate::spec::{
    END_TO_END, GATED, MIN_KEPT_PASSES, PASSES, PER_LAYER, PINNED_THREADS, SMOKE_PASSES,
};
use crate::stats::{number, summarize, Summary};
use crate::trace::Trace;
use crate::workloads::{Kind, Workload};

/// Where the traced children write their spans, relative to the
/// working directory.
const TRACE_DIR: &str = "target/benchmark/trace";

/// Set-up repetitions: at least three, and more while a quarter
/// second has not been spent, so that a set-up of microseconds still
/// has a steady median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 1000;
const SETUP_FILL_S: f64 = 0.25;

/// A count-bounded run's traced child makes at least this many
/// traced/untraced pairs, and keeps pairing until this many seconds
/// are up (extras included), so short operations get enough pairs for
/// a steady overhead figure.
const TRACE_PAIRS: usize = 3;
const TRACE_FILL_S: f64 = 5.0;
/// Pairs a time-bounded traced child runs even if its window is over.
const TRACE_MIN_PAIRS: usize = 2;

/// Everything `run` was asked.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workloads to run, in report order.
    pub workloads: Vec<Kind>,
    /// The run seed every input is made from.
    pub seed: u64,
    /// Distinct inputs the kept operations cycle through. With 1 every
    /// operation repeats input 0 and the spread of a metric is the
    /// host's noise alone; a run that must read the same at any seed
    /// asks for more.
    pub inputs: u64,
    /// Measure for this long instead of a fixed number of passes.
    pub seconds: Option<f64>,
    /// `Some(false)`: end-to-end passes only; `Some(true)`: traced
    /// children only; `None`: both.
    pub trace: Option<bool>,
    /// All sizes ÷ 10, one kept pass.
    pub smoke: bool,
    /// Also write the report as JSON here.
    pub out: Option<PathBuf>,
}

impl RunArgs {
    fn divisor(&self) -> usize {
        if self.smoke {
            10
        } else {
            1
        }
    }
}

/// The field `key` of a child's reply, as a `T`.
fn field<T: FromJson>(value: &Json, key: &str) -> Result<T, String> {
    value
        .get(key)
        .and_then(T::from_json)
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- child

/// The resident end-to-end child: set up (repeatedly, timing each),
/// announce readiness, then serve `op <input>` and `setup` lines until
/// stdin ends.
///
/// # Errors
///
/// If the set-up fails or the pipes to the parent break.
pub fn child_main(kind: Kind, seed: u64, divisor: usize) -> Result<(), String> {
    let io = |e: std::io::Error| format!("child pipe: {e}");
    let timed_setup = || -> Result<(Workload, f64), String> {
        let start = Instant::now();
        let workload = Workload::setup(kind, seed, divisor, &mut Trace::off())?;
        Ok((workload, start.elapsed().as_secs_f64()))
    };
    let clock = Instant::now();
    let (mut workload, first) = timed_setup()?;
    let mut setup_s = vec![first];
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && clock.elapsed().as_secs_f64() < SETUP_FILL_S)
    {
        let (again, sample) = timed_setup()?;
        workload = again;
        setup_s.push(sample);
    }
    let stdout = std::io::stdout();
    let reply = |json: Json| -> Result<(), String> {
        let mut out = stdout.lock();
        writeln!(out, "{}", json.to_string_compact()).map_err(io)?;
        out.flush().map_err(io)
    };
    reply(object(vec![("setup_s", setup_s.to_json())]))?;

    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(io)?;
        if line == "setup" {
            let (_, sample) = timed_setup()?;
            reply(object(vec![("setup_s", vec![sample].to_json())]))?;
            continue;
        }
        let input: u64 = line
            .strip_prefix("op ")
            .and_then(|input| input.trim().parse().ok())
            .ok_or_else(|| format!("bad request {line:?}"))?;
        reset_vm_hwm();
        let outcome = workload.op(input, &mut Trace::off());
        reply(object(vec![
            ("wall_ns", outcome.wall_ns.to_json()),
            ("work", outcome.work.to_json()),
            ("sim_time", outcome.sim_time.to_json()),
            ("failure", outcome.failure.to_json()),
            ("digest", outcome.digest.to_json()),
            ("vm_hwm_kb", vm_hwm_kb().to_json()),
        ]))?;
    }
    Ok(())
}

/// The traced child: runs [`traced_run`] and prints its report as one
/// JSON line.
///
/// # Errors
///
/// Whatever [`traced_run`] reports.
pub fn trace_child_main(
    kind: Kind,
    seed: u64,
    divisor: usize,
    min_pairs: usize,
    seconds: f64,
) -> Result<(), String> {
    let report = traced_run(
        kind,
        seed,
        divisor,
        min_pairs,
        seconds,
        Path::new(TRACE_DIR),
    )?;
    let layers: Vec<(&str, Json)> = report
        .layers
        .iter()
        .map(|(&name, &value)| (name, value.to_json()))
        .collect();
    let json = object(vec![
        ("layers", object(layers)),
        ("attempted", report.attempted.to_json()),
        ("failures", report.failures.to_json()),
    ]);
    println!("{}", json.to_string_compact());
    Ok(())
}

// --------------------------------------------------------------- parent

fn spawn_self(
    subcommand: &str,
    kind: Kind,
    args: &RunArgs,
    extra: &[String],
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Command::new(exe)
        .arg(subcommand)
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--divisor", &args.divisor().to_string()])
        .args(extra)
        .env("LAGOVER_THREADS", PINNED_THREADS.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the {} child: {e}", kind.name()))
}

/// One kept operation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    wall_s: f64,
    work: u64,
    sim_time: u64,
    peak_rss_mb: f64,
}

/// The parent's handle on one resident child. Dropping it kills the
/// child, so an error on any path leaves no process behind.
struct Resident {
    kind: Kind,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    setup_s: Vec<f64>,
    attempted: u64,
    kept_ops: u64,
    samples: Vec<Sample>,
    failures: Vec<String>,
    digests: BTreeMap<u64, u64>,
}

impl Drop for Resident {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Resident {
    fn spawn(kind: Kind, args: &RunArgs) -> Result<Self, String> {
        let mut child = spawn_self("child", kind, args, &[])?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut resident = Resident {
            kind,
            child,
            stdin,
            stdout,
            setup_s: Vec::new(),
            attempted: 0,
            kept_ops: 0,
            samples: Vec::new(),
            failures: Vec::new(),
            digests: BTreeMap::new(),
        };
        resident.book_setups()?;
        Ok(resident)
    }

    /// Reads a reply that carries set-up times and keeps them.
    fn book_setups(&mut self) -> Result<(), String> {
        let reply = self.read_reply()?;
        self.setup_s.extend(field::<Vec<f64>>(&reply, "setup_s")?);
        Ok(())
    }

    /// Has the child repeat its set-up once (it keeps the state it has).
    fn run_setup(&mut self) -> Result<(), String> {
        self.send("setup")?;
        self.book_setups()
    }

    fn read_reply(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let read = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading from the {} child: {e}", self.kind.name()))?;
        if read == 0 {
            return Err(format!("the {} child exited early", self.kind.name()));
        }
        parse(&line).map_err(|e| format!("{} child said {line:?}: {e}", self.kind.name()))
    }

    fn send(&mut self, request: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        writeln!(stdin, "{request}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the {} child: {e}", self.kind.name()))
    }

    /// Triggers one operation and books its outcome. A warm-up runs
    /// input 0 and is not kept; kept operations cycle the inputs.
    fn run_op(&mut self, warm_up: bool, inputs: u64) -> Result<(), String> {
        let input = if warm_up { 0 } else { self.kept_ops % inputs };
        self.send(&format!("op {input}"))?;
        let reply = self.read_reply()?;
        self.attempted += 1;
        let digest: u64 = field(&reply, "digest")?;
        let failure = match field::<Option<String>>(&reply, "failure")? {
            None => (*self.digests.entry(input).or_insert(digest) != digest)
                .then(|| format!("digest of input {input} moved between operations")),
            why => why,
        };
        if let Some(why) = failure {
            self.failures
                .push(format!("op {}: {why}", self.attempted - 1));
        }
        if !warm_up {
            self.kept_ops += 1;
            self.samples.push(Sample {
                wall_s: field::<u64>(&reply, "wall_ns")? as f64 / 1e9,
                work: field(&reply, "work")?,
                sim_time: field(&reply, "sim_time")?,
                peak_rss_mb: field::<u64>(&reply, "vm_hwm_kb")? as f64 / 1024.0,
            });
        }
        Ok(())
    }

    /// Ends the child by closing its stdin, and reaps it.
    fn finish(mut self) -> Result<Measured, String> {
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the {} child: {e}", self.kind.name()))?;
        if !status.success() {
            return Err(format!(
                "the {} child exited with {status}",
                self.kind.name()
            ));
        }
        Ok(Measured {
            kind: self.kind,
            kept_ops: self.samples.len(),
            attempted: self.attempted,
            rows: self.rows(),
            failures: std::mem::take(&mut self.failures),
        })
    }

    /// The end-to-end rows of everything booked so far.
    fn rows(&self) -> Vec<Row> {
        let of = |f: &dyn Fn(&Sample) -> f64| self.samples.iter().map(f).collect::<Vec<f64>>();
        let rates = of(&|s| s.work as f64 / s.wall_s);
        let failed = self.failures.len() as f64 / self.attempted.max(1) as f64;
        END_TO_END
            .iter()
            .map(|metric| {
                let samples = match metric.name {
                    "wall_s" => of(&|s| s.wall_s),
                    "work_per_s" => rates.clone(),
                    // One value, not a sample per operation: the
                    // fastest operation is the estimate.
                    "best_work_per_s" => vec![rates.iter().copied().fold(0.0, f64::max)],
                    "setup_s" => self.setup_s.clone(),
                    "peak_rss_mb" => of(&|s| s.peak_rss_mb),
                    "sim_time" => of(&|s| s.sim_time as f64),
                    "fail_frac" => vec![failed],
                    other => unreachable!("{other} is not an end-to-end metric"),
                };
                Row {
                    name: metric.name,
                    unit: if metric.name == "sim_time" {
                        self.kind.sim_unit()
                    } else {
                        metric.unit
                    },
                    summary: summarize(&samples),
                    samples,
                }
            })
            .collect()
    }
}

/// One end-to-end row of the report.
struct Row {
    name: &'static str,
    unit: &'static str,
    summary: Summary,
    samples: Vec<f64>,
}

/// What the end-to-end passes measured on one workload.
struct Measured {
    kind: Kind,
    kept_ops: usize,
    attempted: u64,
    failures: Vec<String>,
    rows: Vec<Row>,
}

fn run_passes(args: &RunArgs) -> Result<Vec<Measured>, String> {
    let mut residents = Vec::new();
    for &kind in &args.workloads {
        residents.push(Resident::spawn(kind, args)?);
    }
    let passes = if args.smoke { SMOKE_PASSES } else { PASSES };
    let clock = Instant::now();
    let mut pass = 0usize;
    loop {
        for resident in &mut residents {
            for _ in 0..resident.kind.ops_per_pass() {
                resident.run_op(pass == 0, args.inputs)?;
            }
            // A count-bounded run repeats the set-up with every kept
            // pass, so that its samples span the run like every other
            // metric's; a time-bounded run's window is for operations.
            if pass > 0 && args.seconds.is_none() {
                resident.run_setup()?;
            }
        }
        pass += 1;
        let done = match args.seconds {
            Some(window) => clock.elapsed().as_secs_f64() >= window && pass > MIN_KEPT_PASSES,
            None => pass >= passes,
        };
        if done {
            break;
        }
    }
    residents.into_iter().map(Resident::finish).collect()
}

fn run_traced(kind: Kind, args: &RunArgs) -> Result<TraceReport, String> {
    let (pairs, seconds) = match (args.smoke, args.seconds) {
        (true, _) => (1, 0.0),
        (false, None) => (TRACE_PAIRS, TRACE_FILL_S),
        (false, Some(window)) => (TRACE_MIN_PAIRS, window),
    };
    let extra = [
        "--pairs".to_string(),
        pairs.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];
    let output = spawn_self("trace-child", kind, args, &extra)?
        .wait_with_output()
        .map_err(|e| format!("waiting for the traced {} child: {e}", kind.name()))?;
    if !output.status.success() {
        return Err(format!(
            "the traced {} child exited with {}",
            kind.name(),
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    let reply =
        parse(line).map_err(|e| format!("traced {} child said {line:?}: {e}", kind.name()))?;
    let values = reply.get("layers").map_err(|e| e.to_string())?;
    let mut layers = BTreeMap::new();
    for (name, _) in PER_LAYER {
        layers.insert(name, field(values, name)?);
    }
    Ok(TraceReport {
        layers,
        attempted: field(&reply, "attempted")?,
        failures: field(&reply, "failures")?,
    })
}

// --------------------------------------------------------------- report

/// Facts about the host and the run that every report starts with.
struct Header {
    nproc: usize,
    cpu: String,
    rustc: String,
    commit: String,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Header {
    fn gather() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Header {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: tool_line("rustc", &["--version"]),
            commit: tool_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

fn kept_passes(measured: &[Measured]) -> usize {
    measured
        .iter()
        .map(|m| m.kept_ops / m.kind.ops_per_pass())
        .min()
        .unwrap_or(0)
}

fn header_json(header: &Header, args: &RunArgs, passes_kept: usize) -> Json {
    let sizes: Vec<(&str, Json)> = Kind::ALL
        .iter()
        .map(|k| {
            (
                k.name(),
                ((k.full_peers() / args.divisor()) as u64).to_json(),
            )
        })
        .collect();
    object(vec![
        ("nproc", (header.nproc as u64).to_json()),
        ("cpu", header.cpu.to_json()),
        ("rustc", header.rustc.to_json()),
        ("commit", header.commit.to_json()),
        ("seed", args.seed.to_json()),
        ("inputs", args.inputs.to_json()),
        ("threads", (PINNED_THREADS as u64).to_json()),
        ("passes_kept", (passes_kept as u64).to_json()),
        ("sizes", object(sizes)),
    ])
}

fn row_json(row: &Row) -> Json {
    let s = &row.summary;
    let mut fields = vec![
        ("unit", row.unit.to_string().to_json()),
        ("value", s.median.to_json()),
        ("q1", s.q1.to_json()),
        ("q3", s.q3.to_json()),
        ("min", s.min.to_json()),
        ("max", s.max.to_json()),
        ("n", (s.n as u64).to_json()),
        ("samples", row.samples.to_json()),
    ];
    if let Some((percentile, value)) = s.tail {
        fields.push(("tail_percentile", percentile.to_json()));
        fields.push(("tail_value", value.to_json()));
    }
    object(fields)
}

fn metric_json(value: f64, unit: &str) -> Json {
    object(vec![
        ("value", value.to_json()),
        ("unit", unit.to_string().to_json()),
    ])
}

fn print_rows(measured: &Measured) {
    println!(
        "workload {}  attempted={} failed={}  (work = {})",
        measured.kind.name(),
        measured.attempted,
        measured.failures.len(),
        measured.kind.work_unit()
    );
    for why in &measured.failures {
        println!("  FAILED {why}");
    }
    for row in &measured.rows {
        let s = &row.summary;
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!(" p{p}={}", number(v)));
        println!(
            "  {:<15} {:>16} {:<7} q1={} q3={} min={} max={} n={}{tail}",
            row.name,
            number(s.median),
            row.unit,
            number(s.q1),
            number(s.q3),
            number(s.min),
            number(s.max),
            s.n
        );
    }
}

fn print_layers(kind: Kind, report: &TraceReport) {
    println!(
        "traced {}  attempted={} failed={}",
        kind.name(),
        report.attempted,
        report.failures.len()
    );
    for why in &report.failures {
        println!("  FAILED {why}");
    }
    // A row that reads 0 belongs to a layer this workload's traced
    // run does not exercise; the result line carries it all the same.
    for (name, unit) in PER_LAYER {
        if report.layers[name] != 0.0 {
            println!("  {name:<44} {:>18} {unit}", number(report.layers[name]));
        }
    }
}

/// Runs the benchmark and prints the report; the last line of stdout
/// is the result object, whose `correct` says whether every operation
/// passed.
///
/// # Errors
///
/// If the host has fewer cores than the pinned thread count, a child
/// cannot be run, or the report cannot be written.
pub fn run(args: &RunArgs) -> Result<(), String> {
    let header = Header::gather();
    if header.nproc < PINNED_THREADS {
        return Err(format!(
            "this host has {} core(s); the benchmark pins LAGOVER_THREADS={PINNED_THREADS} and will not run on fewer",
            header.nproc
        ));
    }

    let measured = if args.trace == Some(true) {
        Vec::new()
    } else {
        run_passes(args)?
    };
    let passes_kept = kept_passes(&measured);
    println!(
        "# lagover-benchmark seed={} inputs={} threads={PINNED_THREADS} nproc={} passes_kept={passes_kept} smoke={}",
        args.seed, args.inputs, header.nproc, args.smoke
    );
    println!(
        "# cpu=\"{}\" rustc=\"{}\" commit={}",
        header.cpu, header.rustc, header.commit
    );
    for m in &measured {
        print_rows(m);
    }

    let mut traced = Vec::new();
    if args.trace != Some(false) {
        for &kind in &args.workloads {
            let report = run_traced(kind, args)?;
            print_layers(kind, &report);
            traced.push((kind, report));
        }
        println!("# spans and folded stacks are under {TRACE_DIR}/");
    }

    let attempted: u64 = measured.iter().map(|m| m.attempted).sum::<u64>()
        + traced.iter().map(|(_, r)| r.attempted).sum::<u64>();
    let failed: usize = measured.iter().map(|m| m.failures.len()).sum::<usize>()
        + traced.iter().map(|(_, r)| r.failures.len()).sum::<usize>();

    if let Some(path) = &args.out {
        let workloads: Vec<Json> = args
            .workloads
            .iter()
            .map(|&kind| {
                let mut fields = vec![("name", kind.name().to_string().to_json())];
                if let Some(m) = measured.iter().find(|m| m.kind == kind) {
                    fields.push(("attempted", m.attempted.to_json()));
                    fields.push(("failed", (m.failures.len() as u64).to_json()));
                    fields.push(("failures", m.failures.to_json()));
                    let rows: Vec<(&str, Json)> =
                        m.rows.iter().map(|r| (r.name, row_json(r))).collect();
                    fields.push(("end_to_end", object(rows)));
                }
                if let Some((_, report)) = traced.iter().find(|(k, _)| *k == kind) {
                    let layers: Vec<(&str, Json)> = PER_LAYER
                        .iter()
                        .map(|&(name, unit)| (name, metric_json(report.layers[name], unit)))
                        .collect();
                    fields.push(("per_layer", object(layers)));
                    fields.push(("traced_failures", report.failures.to_json()));
                }
                object(fields)
            })
            .collect();
        let doc = object(vec![
            ("schema", 1u64.to_json()),
            ("header", header_json(&header, args, passes_kept)),
            ("workloads", Json::Array(workloads)),
        ]);
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // The result line. One workload: bare metric names, the gated
    // end-to-end metrics or (traced) the per-layer ledger. Several:
    // every metric, prefixed with its workload.
    let single = args.workloads.len() == 1;
    let qualified = |kind: Kind, name: &str| {
        if single {
            name.to_string()
        } else {
            format!("{}.{name}", kind.name())
        }
    };
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for m in &measured {
        for row in &m.rows {
            if !single || GATED.contains(&row.name) {
                let value = metric_json(row.summary.median, row.unit);
                metrics.push((qualified(m.kind, row.name), value));
            }
        }
    }
    for (kind, report) in &traced {
        for (name, unit) in PER_LAYER {
            let value = metric_json(report.layers[name], unit);
            metrics.push((qualified(*kind, name), value));
        }
    }
    let result = Json::Object(vec![
        ("correct".to_string(), (failed == 0).to_json()),
        ("attempted".to_string(), attempted.to_json()),
        ("failed".to_string(), (failed as u64).to_json()),
        ("metrics".to_string(), Json::Object(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    Ok(())
}
