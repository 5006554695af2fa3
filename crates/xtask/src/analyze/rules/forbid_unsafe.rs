//! Rule `forbid-unsafe`: every crate root (lib and bin targets) must
//! carry `#![forbid(unsafe_code)]`. The workspace has zero `unsafe`
//! today — the deterministic parallel fold and the SoA arenas are all
//! safe Rust — and `forbid` (unlike `deny`) cannot be overridden
//! further down the tree, so the attribute is a one-line proof the
//! property still holds. This rule keeps it from being silently
//! dropped.

use super::super::lexer::find_idents;
use super::super::model::Model;
use super::Finding;

pub const RULE: &str = "forbid-unsafe";

const ATTR: &str = "#![forbid(unsafe_code)]";

/// Workspace-relative paths of every crate-root file: declared lib and
/// `[[bin]]` paths plus the conventional `src/lib.rs`, `src/main.rs`,
/// and `src/bin/*.rs` targets that exist.
pub fn crate_roots(model: &Model) -> Vec<String> {
    let exists = |p: &str| model.files.iter().any(|f| f.path == p);
    let mut roots = Vec::new();
    for m in &model.workspace.manifests {
        if m.name.is_empty() {
            continue;
        }
        let prefix = if m.dir.is_empty() {
            String::new()
        } else {
            format!("{}/", m.dir)
        };
        let mut candidates: Vec<String> = Vec::new();
        match &m.lib_path {
            Some(p) => candidates.push(format!("{prefix}{p}")),
            None => candidates.push(format!("{prefix}src/lib.rs")),
        }
        for p in &m.bin_paths {
            candidates.push(format!("{prefix}{p}"));
        }
        candidates.push(format!("{prefix}src/main.rs"));
        for f in &model.files {
            if f.path.starts_with(&format!("{prefix}src/bin/")) {
                candidates.push(f.path.clone());
            }
        }
        for c in candidates {
            if exists(&c) && !roots.contains(&c) {
                roots.push(c);
            }
        }
    }
    roots.sort();
    roots
}

pub fn check(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for root in crate_roots(model) {
        let file = model
            .files
            .iter()
            .find(|f| f.path == root)
            .expect("crate_roots returns existing files");
        if find_idents(&file.stripped, ATTR).is_empty() {
            findings.push(Finding {
                path: root,
                line: 1,
                rule: RULE,
                excerpt: format!("crate root is missing `{ATTR}`"),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::super::super::manifest;
    use super::super::super::manifest::WorkspaceModel;
    use super::super::super::model::{FileKind, SourceFile};
    use super::*;

    fn model(sources: Vec<(&str, &str)>) -> Model {
        let manifest_text = "[package]\nname = \"demo\"\n";
        Model {
            workspace: WorkspaceModel {
                manifests: vec![manifest::parse(manifest_text, "crates/demo").unwrap()],
            },
            files: sources
                .into_iter()
                .map(|(p, s)| SourceFile::from_source(p.to_string(), FileKind::Src, s.to_string()))
                .collect(),
        }
    }

    #[test]
    fn fixture_pins_present_vs_missing() {
        let present = include_str!("../../../fixtures/analyze/forbid_unsafe_ok.rs");
        let missing = include_str!("../../../fixtures/analyze/forbid_unsafe_missing.rs");
        let m = model(vec![
            ("crates/demo/src/lib.rs", present),
            ("crates/demo/src/main.rs", missing),
            ("crates/demo/src/bin/tool.rs", missing),
            ("crates/demo/src/helper.rs", missing), // not a root: exempt
        ]);
        let findings = check(&m);
        let paths: Vec<_> = findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            ["crates/demo/src/bin/tool.rs", "crates/demo/src/main.rs"]
        );
        assert!(findings[0].excerpt.contains("forbid(unsafe_code)"));
    }

    #[test]
    fn a_commented_attribute_does_not_count() {
        let m = model(vec![(
            "crates/demo/src/lib.rs",
            "// #![forbid(unsafe_code)]\nfn f() {}\n",
        )]);
        assert_eq!(check(&m).len(), 1);
    }

    #[test]
    fn every_real_crate_root_is_covered() {
        let root = crate::workspace_root();
        let m = Model::load(&root).unwrap();
        let roots = crate_roots(&m);
        // The known root inventory: one lib or main per crate plus the
        // bins beside a lib; growing the workspace grows this list.
        assert!(roots.contains(&"src/lib.rs".to_string()));
        assert!(roots.contains(&"crates/xtask/src/main.rs".to_string()));
        assert!(roots.contains(&"crates/perf/src/main.rs".to_string()));
        assert!(
            roots.len() >= 20,
            "expected >= 20 crate roots, got {}",
            roots.len()
        );
    }
}
