//! `cargo xtask bench-gate` — the perf regression gate.
//!
//! Regenerates the baseline document with the release `lagover-perf`
//! harness and diffs it against the committed `BENCH.json`. Every
//! number in it is a deterministic work unit, so the diff has three
//! outcomes and no tolerance:
//!
//! * **regression** — any drift in any metric, or a row or metric
//!   that disappeared (an unacknowledged improvement counts: either
//!   way `BENCH.json` must be regenerated in the same PR);
//! * **warning** — an added metric or row, promoted to a failure by
//!   `--strict`;
//! * **not comparable** — schema version, or a row's tier or
//!   parameters, differ: an error, not a verdict.
//!
//! The default run regenerates and gates the `pr` rows; `--strict`
//! (the weekly full-matrix job) regenerates every row, so a `weekly`
//! row missing from a non-strict fresh document is not a finding.
//!
//! The verdict is rendered as a markdown regression table, printed and
//! written to `target/bench-gate/REGRESSIONS.md` for the CI artifact
//! upload. `--compare A.json B.json` diffs two existing documents
//! instead of running the harness — CI uses it to compare the
//! committed `BENCH.json` between base and head.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use lagover_perf::{Baseline, Tier};

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the gate.
    Regression,
    /// Reported; fails only under `--strict`.
    Warning,
}

/// One divergence between the baseline and the fresh document.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Scenario the divergence is in.
    pub scenario: String,
    /// Metric name (or a structural pseudo-metric like `scenario`).
    pub metric: String,
    /// Baseline-side value, rendered.
    pub baseline: String,
    /// Fresh-side value, rendered.
    pub fresh: String,
    /// Regression or warning.
    pub severity: Severity,
    /// One-line explanation.
    pub note: String,
}

/// Everything the gate found, plus coverage tallies for the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Divergences, in scenario order.
    pub findings: Vec<Finding>,
    /// Scenarios compared.
    pub scenarios: usize,
    /// Work-unit metrics compared exactly.
    pub work_metrics: usize,
}

impl GateReport {
    /// Number of regression-severity findings.
    pub fn regressions(&self) -> usize {
        self.count(Severity::Regression)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Whether the gate fails: any regression, or any warning under
    /// `--strict`.
    pub fn failed(&self, strict: bool) -> bool {
        self.regressions() > 0 || (strict && self.warnings() > 0)
    }

    /// Renders the markdown regression table CI uploads.
    pub fn render_markdown(&self, strict: bool) -> String {
        let mut out = String::from("# bench-gate report\n\n");
        out.push_str(&format!(
            "Compared {} scenario(s): {} work-unit metrics exactly.\n\n",
            self.scenarios, self.work_metrics
        ));
        if self.findings.is_empty() {
            out.push_str("No divergences.\n\n");
        } else {
            out.push_str("| scenario | metric | baseline | fresh | severity | note |\n");
            out.push_str("|---|---|---|---|---|---|\n");
            for f in &self.findings {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} |\n",
                    f.scenario,
                    f.metric,
                    f.baseline,
                    f.fresh,
                    match f.severity {
                        Severity::Regression => "REGRESSION",
                        Severity::Warning => "warning",
                    },
                    f.note
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "Verdict: **{}** ({} regression(s), {} warning(s){})\n",
            if self.failed(strict) { "FAIL" } else { "PASS" },
            self.regressions(),
            self.warnings(),
            if strict { ", strict mode" } else { "" }
        ));
        out
    }
}

/// Diffs `fresh` against `baseline`. Errors (schema, tier or
/// parameter mismatch) mean the documents are not comparable at all —
/// distinct from a regression verdict. `strict` says whether `fresh`
/// is expected to carry the `weekly` rows too.
pub fn compare(baseline: &Baseline, fresh: &Baseline, strict: bool) -> Result<GateReport, String> {
    if baseline.schema_version != fresh.schema_version {
        return Err(format!(
            "schema version mismatch: baseline v{}, fresh v{} — \
             regenerate BENCH.json in the PR that bumped the schema",
            baseline.schema_version, fresh.schema_version
        ));
    }

    let mut report = GateReport::default();
    for base in &baseline.scenarios {
        let Some(new) = fresh.scenario(&base.name) else {
            if base.tier == Tier::Pr || strict {
                report.findings.push(Finding {
                    scenario: base.name.clone(),
                    metric: "scenario".into(),
                    baseline: "present".into(),
                    fresh: "missing".into(),
                    severity: Severity::Regression,
                    note: "scenario disappeared from the harness".into(),
                });
            }
            continue;
        };
        if (base.tier, base.params) != (new.tier, new.params) {
            let (p, q) = (&base.params, &new.params);
            return Err(format!(
                "{} is not comparable: baseline tier={} peers={} runs={} max_rounds={} seed={}, \
                 fresh tier={} peers={} runs={} max_rounds={} seed={}",
                base.name,
                base.tier.name(),
                p.peers,
                p.runs,
                p.max_rounds,
                p.seed,
                new.tier.name(),
                q.peers,
                q.runs,
                q.max_rounds,
                q.seed
            ));
        }
        report.scenarios += 1;
        compare_work(base, new, &mut report);
    }
    for new in &fresh.scenarios {
        if baseline.scenario(&new.name).is_none() {
            report.findings.push(Finding {
                scenario: new.name.clone(),
                metric: "scenario".into(),
                baseline: "missing".into(),
                fresh: "present".into(),
                severity: Severity::Warning,
                note: "new scenario not in the committed baseline".into(),
            });
        }
    }
    Ok(report)
}

/// Exact comparison of the deterministic layer.
fn compare_work(
    base: &lagover_perf::ScenarioBaseline,
    new: &lagover_perf::ScenarioBaseline,
    report: &mut GateReport,
) {
    let scenario = &base.name;
    fn exact(report: &mut GateReport, scenario: &str, metric: &str, b: u64, f: u64) {
        report.work_metrics += 1;
        if b != f {
            report.findings.push(Finding {
                scenario: scenario.to_string(),
                metric: metric.to_string(),
                baseline: b.to_string(),
                fresh: f.to_string(),
                severity: Severity::Regression,
                note: "work units are exact; regenerate the baseline if intended".into(),
            });
        }
    }
    exact(
        report,
        scenario,
        "rounds",
        base.work.rounds,
        new.work.rounds,
    );
    exact(
        report,
        scenario,
        "converged",
        base.work.converged,
        new.work.converged,
    );
    exact(
        report,
        scenario,
        "converged_rounds",
        base.work.converged_rounds,
        new.work.converged_rounds,
    );
    for (name, b) in &base.work.metrics {
        match new.work.metric(name) {
            Some(f) => exact(report, scenario, name, *b, f),
            None => report.findings.push(Finding {
                scenario: scenario.clone(),
                metric: name.clone(),
                baseline: b.to_string(),
                fresh: "missing".into(),
                severity: Severity::Regression,
                note: "metric disappeared".into(),
            }),
        }
    }
    for (name, f) in &new.work.metrics {
        if base.work.metric(name).is_none() {
            report.findings.push(Finding {
                scenario: scenario.clone(),
                metric: name.clone(),
                baseline: "missing".into(),
                fresh: f.to_string(),
                severity: Severity::Warning,
                note: "new metric not in the committed baseline".into(),
            });
        }
    }
}

/// Entry point for `cargo xtask bench-gate [FLAGS]`.
pub fn run(args: &[String]) -> ExitCode {
    let root = crate::workspace_root();
    let mut strict = false;
    let mut compare_paths: Option<(PathBuf, PathBuf)> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--strict" => strict = true,
            "--compare" => match (it.next(), it.next()) {
                (Some(a), Some(b)) => compare_paths = Some((PathBuf::from(a), PathBuf::from(b))),
                _ => return usage(),
            },
            other => {
                eprintln!("xtask bench-gate: unknown flag `{other}`");
                return usage();
            }
        }
    }

    let documents = match &compare_paths {
        Some((a, b)) => read_baseline(a).and_then(|x| Ok((x, read_baseline(b)?))),
        None => read_baseline(&root.join("BENCH.json"))
            .and_then(|committed| Ok((committed, run_harness(&root, strict)?))),
    };
    let report = match documents.and_then(|(baseline, fresh)| compare(&baseline, &fresh, strict)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask bench-gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let markdown = report.render_markdown(strict);
    print!("{markdown}");
    let out_dir = crate::target_dir(&root).join("bench-gate");
    let out_path = out_dir.join("REGRESSIONS.md");
    if let Err(e) = fs::create_dir_all(&out_dir).and_then(|()| fs::write(&out_path, &markdown)) {
        eprintln!("xtask bench-gate: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("(table written to {})", out_path.display());
    if report.failed(strict) {
        eprintln!("xtask bench-gate: FAIL");
        ExitCode::FAILURE
    } else {
        println!("xtask bench-gate: PASS");
        ExitCode::SUCCESS
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask bench-gate [--strict] [--compare BASE.json HEAD.json]");
    ExitCode::from(2)
}

fn read_baseline(path: &Path) -> Result<Baseline, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    lagover_jsonio::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Builds (no-op when current) and runs the release `lagover-perf`
/// harness for the fresh document: the `pr` rows, or every row under
/// `strict`.
fn run_harness(root: &Path, strict: bool) -> Result<Baseline, String> {
    println!("xtask bench-gate: building lagover-perf (release)");
    let status = Command::new(crate::cargo())
        .current_dir(root)
        .args(["build", "--release", "-p", "lagover-perf"])
        .status()
        .map_err(|e| format!("cannot invoke cargo: {e}"))?;
    if !status.success() {
        return Err("building lagover-perf failed".to_string());
    }
    let binary = crate::target_dir(root)
        .join("release")
        .join(format!("lagover-perf{}", std::env::consts::EXE_SUFFIX));
    println!("xtask bench-gate: running {}", binary.display());
    let rows = lagover_perf::registry()
        .iter()
        .filter(|s| strict || s.tier == Tier::Pr)
        .flat_map(|s| ["--scenario", s.name]);
    let out = Command::new(&binary)
        .current_dir(root)
        .args(rows)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if !out.status.success() {
        return Err(format!(
            "lagover-perf exited with {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    lagover_jsonio::from_str(&text).map_err(|e| format!("cannot parse harness output: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(text: &str) -> Baseline {
        lagover_jsonio::from_str(text).expect("fixture parses")
    }

    /// Two `pr` rows (`fig2`, `recovery_1e3`) and one `weekly` row
    /// (`construction_1e5`), each under its own parameters.
    fn baseline() -> Baseline {
        fixture(include_str!("../fixtures/bench_gate/baseline.json"))
    }

    #[test]
    fn identical_documents_pass() {
        let report = compare(
            &baseline(),
            &fixture(include_str!("../fixtures/bench_gate/fresh_identical.json")),
            true,
        )
        .unwrap();
        assert_eq!(report.findings, vec![]);
        assert!(!report.failed(false));
        assert!(!report.failed(true));
        assert_eq!(report.scenarios, 3);
        assert!(report.work_metrics > 0);
        let md = report.render_markdown(false);
        assert!(md.contains("**PASS**"), "{md}");
        assert!(md.contains("No divergences"), "{md}");
    }

    #[test]
    fn work_unit_drift_is_a_regression() {
        let report = compare(
            &baseline(),
            &fixture(include_str!("../fixtures/bench_gate/fresh_work_drift.json")),
            false,
        )
        .unwrap();
        assert!(report.failed(false), "exact layer must fail on any drift");
        assert_eq!(report.regressions(), 1);
        let f = &report.findings[0];
        assert_eq!(f.scenario, "fig2");
        assert_eq!(f.metric, "work.rng_draws");
        assert_eq!((f.baseline.as_str(), f.fresh.as_str()), ("250", "251"));
        let md = report.render_markdown(false);
        assert!(
            md.contains("| fig2 | work.rng_draws | 250 | 251 | REGRESSION |"),
            "{md}"
        );
        assert!(md.contains("**FAIL**"), "{md}");
    }

    #[test]
    fn schema_version_mismatch_is_an_error_not_a_verdict() {
        // The fixture is a real schema-v1 document (one shared `params`
        // header, rows without `tier`).
        let e = compare(
            &baseline(),
            &fixture(include_str!("../fixtures/bench_gate/fresh_schema.json")),
            false,
        )
        .unwrap_err();
        assert!(e.contains("schema version mismatch"), "{e}");
        assert!(e.contains("baseline v2, fresh v1"), "{e}");
        assert!(e.contains("regenerate BENCH.json in the PR"), "{e}");
    }

    #[test]
    fn added_metric_warns_and_strict_promotes_it() {
        let report = compare(
            &baseline(),
            &fixture(include_str!(
                "../fixtures/bench_gate/fresh_added_metric.json"
            )),
            true,
        )
        .unwrap();
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.warnings(), 1);
        assert!(!report.failed(false), "warnings pass by default");
        assert!(report.failed(true), "--strict fails on warnings");
        let md = report.render_markdown(true);
        assert!(md.contains("strict mode"), "{md}");
        assert!(md.contains("| warning |"), "{md}");
    }

    #[test]
    fn missing_scenario_and_metric_are_regressions() {
        let mut fresh = baseline();
        fresh.scenarios[1].work.metrics.remove(0);
        fresh.scenarios.remove(0);
        let report = compare(&baseline(), &fresh, false).unwrap();
        assert_eq!(report.regressions(), 2);
        assert!(report
            .findings
            .iter()
            .any(|f| f.metric == "scenario" && f.fresh == "missing"));
    }

    #[test]
    fn absent_weekly_row_is_a_finding_only_under_strict() {
        let mut fresh = baseline();
        fresh.scenarios.retain(|s| s.tier == Tier::Pr);
        let report = compare(&baseline(), &fresh, false).unwrap();
        assert_eq!(report.findings, vec![], "the PR gate does not run it");
        assert_eq!(report.scenarios, 2);

        let report = compare(&baseline(), &fresh, true).unwrap();
        assert_eq!(report.regressions(), 1);
        let f = &report.findings[0];
        assert_eq!(
            (f.scenario.as_str(), f.fresh.as_str()),
            ("construction_1e5", "missing")
        );
    }

    #[test]
    fn parameter_mismatch_is_an_error() {
        // Per row: the other rows' parameters differ from this one's
        // anyway, so only the same-named pair is checked.
        let mut fresh = baseline();
        fresh.scenarios[1].params.seed += 1;
        let e = compare(&baseline(), &fresh, false).unwrap_err();
        assert!(e.contains("recovery_1e3 is not comparable"), "{e}");
        assert!(e.contains("seed=7, fresh"), "{e}");

        let mut fresh = baseline();
        fresh.scenarios[2].tier = Tier::Pr;
        let e = compare(&baseline(), &fresh, false).unwrap_err();
        assert!(e.contains("construction_1e5 is not comparable"), "{e}");
    }
}
