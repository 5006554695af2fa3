//! Rule `feature-gate`: wall-clock reads (`Instant::now`,
//! `SystemTime`) must sit inside a `#[cfg(feature = "wall-clock")]`
//! region — a *structural* guarantee that the nondeterministic clock
//! surface is compile-time scoped, not excused file by file on the
//! honour system. `tests/` and `benches/` are exempt
//! (measuring a benchmark is the point); `#[cfg(test)]` modules
//! likewise. A `not(feature = "wall-clock")` region does not count as
//! gated.

use super::super::lexer::{find_idents, is_test_predicate};
use super::super::model::{FileKind, Model};
use super::Finding;

pub const RULE: &str = "feature-gate";

const TOKENS: &[&str] = &["Instant::now", "SystemTime"];

pub fn check(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in model.files_of(&[FileKind::Src, FileKind::Examples]) {
        let masked = file.masked();
        let mut offsets: Vec<(usize, &str)> = Vec::new();
        for token in TOKENS {
            for offset in find_idents(&masked, token) {
                let gated = file.cfg.feature_gated(offset, "wall-clock")
                    // A test-gated region is already masked, but a
                    // region like `all(test, feature = "slow")` keeps
                    // the honest exemption visible here too.
                    || file.cfg.gated_by(offset, is_test_predicate);
                if !gated {
                    offsets.push((offset, *token));
                }
            }
        }
        offsets.sort();
        for (offset, token) in offsets {
            findings.push(Finding {
                path: file.path.clone(),
                line: file.line_of(offset),
                rule: RULE,
                excerpt: format!(
                    "{token} outside a `feature = \"wall-clock\"` region: {}",
                    file.excerpt_at(offset)
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::super::super::model::SourceFile;
    use super::*;

    fn check_one(kind: FileKind, source: &str) -> Vec<Finding> {
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
    fn fixture_pins_gated_vs_ungated() {
        let findings = check_one(
            FileKind::Src,
            include_str!("../../../fixtures/analyze/feature_gate.rs"),
        );
        // Exactly the ungated call and the not()-gated call; the
        // properly gated region, the decoys, and the test module pass.
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].line, 15);
        assert!(findings[0].excerpt.contains("Instant::now"));
        assert_eq!(findings[1].line, 21);
        assert!(findings[1].excerpt.contains("SystemTime"));
    }

    #[test]
    fn benches_and_tests_are_exempt() {
        let src = "fn f() { let _t = std::time::Instant::now(); }\n";
        assert!(check_one(FileKind::Benches, src).is_empty());
        assert!(check_one(FileKind::Tests, src).is_empty());
        assert_eq!(check_one(FileKind::Src, src).len(), 1);
    }

    #[test]
    fn whole_file_inner_gate_passes() {
        let src =
            "#![cfg(feature = \"wall-clock\")]\nfn f() { let _ = std::time::Instant::now(); }\n";
        assert!(check_one(FileKind::Src, src).is_empty());
    }
}
