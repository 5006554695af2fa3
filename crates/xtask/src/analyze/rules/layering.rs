//! Rule `layering`: the workspace crate DAG must match the declared
//! architecture (DESIGN.md §4): jsonio and propcheck at the bottom,
//! the sim kernel above them, obs below core, core below the
//! workload/feed/experiment stack, harnesses on top. A normal
//! dependency may only point at a strictly lower layer; dev-deps are
//! exempt from ordering (cargo allows test-only cycles such as
//! core ⇄ workload) but must still resolve in-workspace or to a stub.
//! External crates.io dependencies are banned unless patched onto an
//! in-tree `stubs/` crate — the build stays hermetic by construction.
//! The same manifests carry the lint wiring the compiler enforces: the
//! root forbids `unsafe_code` in `[workspace.lints.rust]`, and every
//! member inherits it through `[lints] workspace = true`, so no crate
//! or target can opt out of the lint by omission.

use super::super::manifest::{Manifest, Resolved, WorkspaceModel};
use super::Finding;

pub const RULE: &str = "layering";

/// The declared layers, lowest first. A crate absent from this table
/// is itself a finding: growing the workspace means declaring where
/// the new crate sits.
pub const LAYERS: &[(&str, u32)] = &[
    ("lagover-jsonio", 0),
    ("propcheck", 0),
    ("lagover-sim", 1),
    ("lagover-dht", 2),
    ("lagover-gossip", 2),
    ("lagover-net", 2),
    ("lagover-obs", 2),
    ("lagover-core", 3),
    ("lagover-workload", 4),
    ("lagover-feed", 5),
    ("lagover-node", 5),
    ("lagover-stream", 6),
    ("lagover-experiments", 7),
    ("lagover", 8),
    ("lagover-cli", 8),
    ("xtask", 8),
];

fn tier(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
}

pub fn check(workspace: &WorkspaceModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !workspace.root().forbids_unsafe {
        findings.push(finding(
            workspace.root(),
            "[workspace.lints.rust] must set unsafe_code = \"forbid\"".to_string(),
        ));
    }
    for (name, path) in &workspace.root().patches {
        if !path.starts_with("stubs/") {
            findings.push(finding(
                workspace.root(),
                format!("[patch.crates-io] {name} must point into stubs/, not {path}"),
            ));
        }
    }
    for m in &workspace.manifests {
        if m.name.is_empty() {
            continue; // virtual manifest
        }
        if !m.inherits_lints {
            findings.push(finding(
                m,
                format!(
                    "crate `{}` must inherit the workspace lints ([lints] workspace = true)",
                    m.name
                ),
            ));
        }
        let Some(my_tier) = tier(&m.name) else {
            findings.push(finding(
                m,
                format!(
                    "crate `{}` is not in the declared layer map (analyze::rules::layering::LAYERS) — place it",
                    m.name
                ),
            ));
            continue;
        };
        for dep in &m.deps {
            match workspace.resolve(&m.dir, dep) {
                Resolved::Internal(target) => {
                    let Some(dep_tier) = tier(&target) else {
                        findings.push(finding(
                            m,
                            format!("dependency `{target}` is not in the declared layer map"),
                        ));
                        continue;
                    };
                    if !dep.dev && dep_tier >= my_tier {
                        findings.push(finding(
                            m,
                            format!(
                                "layering violation: `{}` (layer {}) must not depend on `{}` (layer {})",
                                m.name, my_tier, target, dep_tier
                            ),
                        ));
                    }
                }
                Resolved::Stubbed(_) => {}
                Resolved::External(target) => {
                    findings.push(finding(
                        m,
                        format!(
                            "external dependency `{target}` has no in-tree stub — \
                             vendor a stub under stubs/ and patch it, or drop the dependency"
                        ),
                    ));
                }
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, &a.excerpt).cmp(&(&b.path, &b.excerpt)));
    findings
}

fn finding(m: &Manifest, excerpt: String) -> Finding {
    let path = if m.dir.is_empty() {
        "Cargo.toml".to_string()
    } else {
        format!("{}/Cargo.toml", m.dir)
    };
    Finding {
        path,
        line: 1,
        rule: RULE,
        excerpt,
    }
}

#[cfg(test)]
mod tests {
    use super::super::super::manifest::parse;
    use super::*;

    fn workspace(members: Vec<(&str, &str)>) -> WorkspaceModel {
        let root = r#"
[package]
name = "lagover"

[workspace.dependencies]
lagover-sim = { path = "crates/sim" }
lagover-core = { path = "crates/core" }
lagover-obs = { path = "crates/obs" }
rand = "0.8"
rayon = "1"

[patch.crates-io]
rand = { path = "stubs/rand" }

[lints]
workspace = true

[workspace.lints.rust]
unsafe_code = "forbid"
"#;
        let mut manifests = vec![parse(root, "").unwrap()];
        for (dir, text) in members {
            manifests.push(parse(&format!("{text}[lints]\nworkspace = true\n"), dir).unwrap());
        }
        WorkspaceModel { manifests }
    }

    #[test]
    fn the_real_workspace_layers_cleanly() {
        let root = crate::workspace_root();
        let ws = WorkspaceModel::load(&root).unwrap();
        let findings = check(&ws);
        assert!(
            findings.is_empty(),
            "layering violations: {:?}",
            findings.iter().map(|f| &f.excerpt).collect::<Vec<_>>()
        );
    }

    #[test]
    fn inverted_edges_are_findings() {
        let ws = workspace(vec![
            ("crates/sim", "[package]\nname = \"lagover-sim\"\n[dependencies]\nlagover-core.workspace = true\n"),
            ("crates/core", "[package]\nname = \"lagover-core\"\n"),
            ("crates/obs", "[package]\nname = \"lagover-obs\"\n"),
        ]);
        let findings = check(&ws);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].excerpt.contains("layering violation"));
        assert_eq!(findings[0].path, "crates/sim/Cargo.toml");
    }

    #[test]
    fn dev_dep_back_edges_are_legal() {
        let ws = workspace(vec![
            ("crates/sim", "[package]\nname = \"lagover-sim\"\n[dev-dependencies]\nlagover-core.workspace = true\n"),
            ("crates/core", "[package]\nname = \"lagover-core\"\n"),
            ("crates/obs", "[package]\nname = \"lagover-obs\"\n"),
        ]);
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn unstubbed_external_deps_are_findings() {
        let ws = workspace(vec![
            (
                "crates/obs",
                "[package]\nname = \"lagover-obs\"\n[dependencies]\nrayon.workspace = true\n",
            ),
            ("crates/sim", "[package]\nname = \"lagover-sim\"\n"),
            ("crates/core", "[package]\nname = \"lagover-core\"\n"),
        ]);
        let findings = check(&ws);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].excerpt.contains("no in-tree stub"));
        // Stubbed externals are fine.
        let ok = workspace(vec![
            (
                "crates/obs",
                "[package]\nname = \"lagover-obs\"\n[dependencies]\nrand.workspace = true\n",
            ),
            ("crates/sim", "[package]\nname = \"lagover-sim\"\n"),
            ("crates/core", "[package]\nname = \"lagover-core\"\n"),
        ]);
        assert!(check(&ok).is_empty());
    }

    #[test]
    fn undeclared_crates_are_findings() {
        let ws = workspace(vec![
            ("crates/new", "[package]\nname = \"lagover-shiny\"\n"),
            ("crates/sim", "[package]\nname = \"lagover-sim\"\n"),
            ("crates/core", "[package]\nname = \"lagover-core\"\n"),
            ("crates/obs", "[package]\nname = \"lagover-obs\"\n"),
        ]);
        let findings = check(&ws);
        assert_eq!(findings.len(), 1);
        assert!(findings[0]
            .excerpt
            .contains("not in the declared layer map"));
    }

    #[test]
    fn lint_wiring_is_checked_on_the_root_and_every_member() {
        let member = "[package]\nname = \"lagover-sim\"\n";
        let root = "[package]\nname = \"lagover\"\n[lints]\nworkspace = true\n";
        let ws = WorkspaceModel {
            manifests: vec![
                parse(root, "").unwrap(),
                parse(member, "crates/sim").unwrap(),
            ],
        };
        let excerpts: Vec<_> = check(&ws)
            .into_iter()
            .map(|f| (f.path, f.excerpt))
            .collect();
        assert_eq!(excerpts.len(), 2, "{excerpts:?}");
        assert_eq!(excerpts[0].0, "Cargo.toml");
        assert!(excerpts[0].1.contains("unsafe_code = \"forbid\""));
        assert_eq!(excerpts[1].0, "crates/sim/Cargo.toml");
        assert!(excerpts[1].1.contains("[lints] workspace = true"));
    }
}
