//! `cargo xtask analyze` — the one static analyzer over the whole
//! workspace (DESIGN.md §14).
//!
//! It builds a model first — every source file tokenized with exact
//! byte offsets ([`lexer`]), `#[cfg(...)]` regions tracked by brace
//! depth ([`lexer::CfgMap`]), and every `Cargo.toml` parsed into a
//! crate DAG ([`manifest`]) — and then runs its rules over it
//! ([`rules`]). It keeps only what the compiler cannot check; hash
//! containers, `RandomState` and `unsafe` are the toolchain's (the root
//! `clippy.toml` and `[workspace.lints]`, DESIGN.md §14.2):
//!
//! * `rng-discipline` — every `SimRng` draw call site diffed against
//!   the committed registry `crates/xtask/rng_sites.toml`; re-bless
//!   with `cargo xtask analyze --bless` (or `LAGOVER_BLESS=1`).
//! * `panic-surface` — tiered unwrap/expect/panic audit of
//!   `crates/core/src` and the input boundary (`cli`, `workload`,
//!   `jsonio`, `node::wire`).
//! * `layering` — the declared crate DAG holds; externals resolve to
//!   `stubs/`; every member inherits the workspace lints, and the root
//!   forbids `unsafe_code`.
//! * `feature-gate` — wall-clock reads sit inside
//!   `#[cfg(feature = "wall-clock")]` regions.
//! * `obs-bypass` — no raw prints or ad-hoc `*Counters` structs in
//!   `crates/core/src`.
//!
//! There is no allowlist: any finding fails the run. Findings land in
//! `target/analyze/REPORT.json` + `REPORT.md`, rendered
//! deterministically — byte-identical across runs on the same tree.

pub mod lexer;
pub mod manifest;
pub mod model;
#[cfg(test)]
mod props;
pub mod report;
pub mod rules;

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use model::Model;
use report::Report;
use rules::rng_discipline::{self, DrawSite};
use rules::{feature_gate, layering, obs_bypass, panic_surface};
pub use rules::{Finding, RULES};

/// Relative path of the draw-site registry, from the workspace root.
pub const REGISTRY_PATH: &str = "crates/xtask/rng_sites.toml";

/// One full rule pass over a loaded model, pure and IO-free: findings
/// are sorted (path, line, rule, excerpt).
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub sites: Vec<DrawSite>,
    pub panic: panic_surface::PanicMetrics,
}

pub fn analyze(model: &Model, registry: &[DrawSite]) -> Analysis {
    let sites = rng_discipline::enumerate(model);
    let mut findings = rng_discipline::diff(&sites, registry, REGISTRY_PATH);
    let (panic_findings, panic) = panic_surface::check(model);
    findings.extend(panic_findings);
    findings.extend(layering::check(&model.workspace));
    findings.extend(feature_gate::check(model));
    findings.extend(obs_bypass::check(model));
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.excerpt).cmp(&(&b.path, b.line, b.rule, &b.excerpt))
    });
    Analysis {
        findings,
        sites,
        panic,
    }
}

/// Entry point for `cargo xtask analyze [--bless]`.
pub fn run(args: &[String]) -> ExitCode {
    let mut bless = std::env::var_os("LAGOVER_BLESS").is_some();
    for arg in args {
        match arg.as_str() {
            "--bless" => bless = true,
            other => {
                eprintln!("xtask analyze: unknown argument `{other}` (expected --bless)");
                return ExitCode::from(2);
            }
        }
    }
    let root = crate::workspace_root();
    let model = match Model::load(&root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    if bless {
        let sites = rng_discipline::enumerate(&model);
        let text = rng_discipline::render_registry(&sites);
        if let Err(e) = fs::write(root.join(REGISTRY_PATH), &text) {
            eprintln!("xtask analyze: cannot write {REGISTRY_PATH}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "xtask analyze: blessed {REGISTRY_PATH} ({} sites, {} draw calls) — review and commit it",
            sites.len(),
            sites.iter().map(|s| s.count).sum::<u64>()
        );
    }

    let registry_text = match fs::read_to_string(root.join(REGISTRY_PATH)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "xtask analyze: cannot read {REGISTRY_PATH}: {e}\n\
                 \x20 generate it with `cargo xtask analyze --bless` and commit it"
            );
            return ExitCode::FAILURE;
        }
    };
    let registry = match rng_discipline::parse_registry(&registry_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {REGISTRY_PATH}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = Report::new(model.files.len(), analyze(&model, &registry));
    let out_dir = crate::target_dir(&root).join("analyze");
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("xtask analyze: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = write_reports(&out_dir, &report) {
        eprintln!("xtask analyze: {e}");
        return ExitCode::FAILURE;
    }

    for v in &report.findings {
        println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.excerpt);
    }
    println!(
        "xtask analyze: {} files, {} rules, {} rng draw sites — {} violation(s) (report: {})",
        report.files_scanned,
        RULES.len(),
        report.rng_sites,
        report.findings.len(),
        out_dir.join("REPORT.json").display()
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_reports(out_dir: &Path, report: &Report) -> Result<(), String> {
    let json_path = out_dir.join("REPORT.json");
    fs::write(&json_path, report.render_json())
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    let md_path = out_dir.join("REPORT.md");
    fs::write(&md_path, report.render_markdown())
        .map_err(|e| format!("cannot write {}: {e}", md_path.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::manifest::{self, WorkspaceModel};
    use super::model::{FileKind, SourceFile};
    use super::*;

    fn committed_registry(root: &Path) -> Vec<DrawSite> {
        let text = std::fs::read_to_string(root.join(REGISTRY_PATH)).expect("registry committed");
        rng_discipline::parse_registry(&text).expect("registry parses")
    }

    /// The end-to-end property `cargo xtask analyze` enforces, run
    /// in-process: the committed registry matches the tree, and the
    /// real workspace has no finding at all.
    #[test]
    fn real_workspace_analyzes_clean() {
        let root = crate::workspace_root();
        let model = Model::load(&root).expect("model loads");
        let analysis = analyze(&model, &committed_registry(&root));
        assert!(
            analysis.findings.is_empty(),
            "violations:\n{}",
            analysis
                .findings
                .iter()
                .map(|f| format!("  {}:{} [{}] {}", f.path, f.line, f.rule, f.excerpt))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// A one-crate workspace — a virtual root plus `lagover-core` at
    /// `crates/core`, lints wired — holding one fixture: a source file
    /// at `path`, or, for a `Cargo.toml` path, the core manifest itself.
    fn fixture_model(path: &str, text: &str) -> Model {
        let mut core = "[package]\nname = \"lagover-core\"\n[lints]\nworkspace = true\n";
        let mut files = Vec::new();
        if path.ends_with("Cargo.toml") {
            core = text;
        } else {
            files.push(SourceFile::from_source(
                path.to_string(),
                FileKind::Src,
                text.to_string(),
            ));
        }
        Model {
            workspace: WorkspaceModel {
                manifests: vec![
                    manifest::parse("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n", "")
                        .expect("root parses"),
                    manifest::parse(core, "crates/core").expect("fixture manifest parses"),
                ],
            },
            files,
        }
    }

    /// No rule is vacuous: each one in [`RULES`] fires on its own
    /// fixture, and no rule fires on the clean one (analyzed against an
    /// empty draw-site registry, so an unregistered draw would show).
    #[test]
    fn every_rule_fires_on_its_fixture_and_none_on_the_clean_one() {
        let fixtures: &[(&str, &str, &str)] = &[
            (
                rng_discipline::RULE,
                "crates/core/src/engine.rs",
                include_str!("../../fixtures/analyze/rng_sites.rs"),
            ),
            (
                panic_surface::RULE,
                "crates/core/src/engine.rs",
                include_str!("../../fixtures/analyze/panic_tiers.rs"),
            ),
            (
                layering::RULE,
                "crates/core/Cargo.toml",
                include_str!("../../fixtures/analyze/layering.toml"),
            ),
            (
                feature_gate::RULE,
                "crates/core/src/engine.rs",
                include_str!("../../fixtures/analyze/feature_gate.rs"),
            ),
            (
                obs_bypass::RULE,
                "crates/core/src/engine.rs",
                include_str!("../../fixtures/analyze/obs_bypass.rs"),
            ),
        ];
        let covered: Vec<&str> = fixtures.iter().map(|f| f.0).collect();
        assert_eq!(covered, RULES, "one fixture per rule, in rule-list order");
        for &(rule, path, text) in fixtures {
            let analysis = analyze(&fixture_model(path, text), &[]);
            assert!(
                analysis.findings.iter().any(|f| f.rule == rule),
                "rule {rule} finds nothing on its fixture"
            );
        }
        let clean = analyze(
            &fixture_model(
                "crates/core/src/lib.rs",
                include_str!("../../fixtures/analyze/clean.rs"),
            ),
            &[],
        );
        assert_eq!(clean.findings, Vec::new());
    }

    /// Clippy is not part of `cargo test`: this keeps the root
    /// `clippy.toml` from dropping a type no analyzer rule checks any
    /// more.
    #[test]
    fn clippy_toml_bans_the_unordered_types() {
        let text = std::fs::read_to_string(crate::workspace_root().join("clippy.toml"))
            .expect("clippy.toml committed");
        let (_, list) = text
            .split_once("disallowed-types = [")
            .expect("clippy.toml has a disallowed-types list");
        let list: Vec<&str> = list
            .lines()
            .take_while(|line| *line != "]")
            .filter(|line| !line.trim_start().starts_with('#'))
            .collect();
        for ty in [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState",
        ] {
            let entry = format!("path = \"{ty}\"");
            assert!(
                list.iter().any(|line| line.contains(&entry)),
                "clippy.toml no longer bans {ty}"
            );
        }
    }

    /// The committed registry is byte-identical to what `--bless`
    /// would regenerate — i.e. never hand-edited into drift.
    #[test]
    fn committed_registry_matches_a_fresh_bless() {
        let root = crate::workspace_root();
        let model = Model::load(&root).expect("model loads");
        let sites = rng_discipline::enumerate(&model);
        let fresh = rng_discipline::render_registry(&sites);
        let committed =
            std::fs::read_to_string(root.join(REGISTRY_PATH)).expect("registry committed");
        assert_eq!(
            committed, fresh,
            "rng_sites.toml drifted — rerun `cargo xtask analyze --bless`"
        );
    }

    /// REPORT.json must not depend on iteration order or wall time:
    /// two passes over the same tree render identical bytes.
    #[test]
    fn report_is_byte_identical_across_passes() {
        let root = crate::workspace_root();
        let render = || {
            let model = Model::load(&root).expect("model loads");
            let analysis = analyze(&model, &committed_registry(&root));
            Report::new(model.files.len(), analysis).render_json()
        };
        assert_eq!(render(), render());
    }
}
