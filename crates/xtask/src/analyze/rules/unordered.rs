//! Rule `alias-unordered-iter`: `HashMap`/`HashSet` anywhere in
//! production code, workspace-wide, including uses reached through
//! `use ... as` renames and `type` aliases. Iteration order of the
//! std hash containers is seeded per process, so *any* reachable
//! instance is a replay hazard waiting for someone to iterate it, not
//! only one near serialization code or spelled with its literal name.
//! Deterministic alternatives: `BTreeMap`/`BTreeSet`, or index-keyed
//! arenas (`DESIGN.md §13.1`).

use super::super::aliases;
use super::super::lexer::find_idents;
use super::super::model::{FileKind, Model};
use super::Finding;

pub const RULE: &str = "alias-unordered-iter";

const TARGETS: &[&str] = &["HashMap", "HashSet"];

pub fn check(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in model.files_of(&[FileKind::Src, FileKind::Examples]) {
        let masked = file.masked();
        let local = aliases::resolve(&masked, TARGETS);
        let mut offsets: Vec<(usize, String)> = Vec::new();
        for target in TARGETS {
            for offset in find_idents(&masked, target) {
                offsets.push((offset, target.to_string()));
            }
        }
        for alias in &local {
            for offset in find_idents(&masked, &alias.name) {
                // The declaration itself already reports via its
                // target token; flag only the downstream uses.
                if offset < alias.decl_start || offset >= alias.decl_end {
                    offsets.push((offset, format!("{} (= {})", alias.name, alias.target)));
                }
            }
        }
        offsets.sort();
        for (offset, what) in offsets {
            findings.push(Finding {
                path: file.path.clone(),
                line: file.line_of(offset),
                rule: RULE,
                excerpt: format!("{what}: {}", file.excerpt_at(offset)),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::super::super::model::SourceFile;
    use super::*;

    fn check_src(kind: FileKind, source: &str) -> Vec<Finding> {
        let model = Model {
            workspace: Default::default(),
            files: vec![SourceFile::from_source(
                "crates/fake/src/lib.rs".to_string(),
                kind,
                source.to_string(),
            )],
        };
        check(&model)
    }

    #[test]
    fn fixture_pins_alias_and_type_alias_detection() {
        let findings = check_src(
            FileKind::Src,
            include_str!("../../../fixtures/analyze/alias_unordered.rs"),
        );
        // One for each import token, one per renamed use, one per
        // type-alias use — and none for the BTreeMap decoys.
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [4, 5, 8, 11, 14, 15]);
        assert!(findings.iter().all(|f| f.rule == RULE));
        assert!(findings[2].excerpt.contains("Dict (= HashMap)"));
        assert!(findings[5].excerpt.contains("Seen (= HashSet)"));
    }

    #[test]
    fn plain_tokens_are_still_caught_workspace_wide() {
        let src =
            "use std::collections::HashMap;\nfn f() { let _: HashMap<u8, u8> = HashMap::new(); }\n";
        assert_eq!(check_src(FileKind::Src, src).len(), 3);
    }

    #[test]
    fn tests_and_benches_are_exempt() {
        let src = "use std::collections::HashMap;\n";
        assert!(check_src(FileKind::Tests, src).is_empty());
        assert!(check_src(FileKind::Benches, src).is_empty());
        let in_test_mod = "#[cfg(test)]\nmod t { use std::collections::HashSet; }\n";
        assert!(check_src(FileKind::Src, in_test_mod).is_empty());
    }
}
