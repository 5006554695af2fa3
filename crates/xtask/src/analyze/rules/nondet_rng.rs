//! Rule `nondet-rng`: ambient randomness (`thread_rng`, `rand::random`)
//! anywhere in the workspace — every tree, `#[cfg(test)]` modules
//! included, because a nondeterministic test is still a broken test.
//! Every random choice derives from a seeded `SimRng` stream.

use super::super::lexer::find_idents;
use super::super::model::Model;
use super::Finding;

pub const RULE: &str = "nondet-rng";

const TOKENS: &[&str] = &["thread_rng", "rand::random"];

pub fn check(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &model.files {
        let mut offsets: Vec<(usize, &str)> = Vec::new();
        for token in TOKENS {
            for offset in find_idents(&file.stripped, token) {
                offsets.push((offset, *token));
            }
        }
        offsets.sort();
        for (offset, token) in offsets {
            findings.push(Finding {
                path: file.path.clone(),
                line: file.line_of(offset),
                rule: RULE,
                excerpt: format!("ambient {token}: {}", file.excerpt_at(offset)),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::super::super::model::{FileKind, SourceFile};
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
    fn fixture_nondet_rng_is_caught() {
        let findings = check_one(
            FileKind::Src,
            include_str!("../../../fixtures/analyze/nondet_rng.rs"),
        );
        // The two real uses, not the decoys in comments and strings.
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [11, 16]);
        assert!(findings[0].excerpt.contains("rand::thread_rng()"));
        assert!(findings[1].excerpt.contains("rand::random()"));
    }

    #[test]
    fn nondet_rng_applies_to_every_tree() {
        let source = "fn f() { let _ = thread_rng(); }\n";
        for kind in [
            FileKind::Src,
            FileKind::Tests,
            FileKind::Examples,
            FileKind::Benches,
        ] {
            assert_eq!(check_one(kind, source).len(), 1, "kind {kind:?}");
        }
        let in_test_mod = "#[cfg(test)]\nmod t { fn f() { let _ = thread_rng(); } }\n";
        assert_eq!(check_one(FileKind::Src, in_test_mod).len(), 1);
    }

    #[test]
    fn identifier_boundaries_are_respected() {
        let source = "fn my_thread_rng_helper() {}\nfn f() { my_rand::random_walk(); }\n";
        assert!(check_one(FileKind::Src, source).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        let source = r##"
// thread_rng in a comment is fine
/* rand::random in /* a nested */ block comment */
fn f() -> &'static str {
    let _lifetime: &'static str = "thread_rng in a string";
    let _raw = r#"rand::random() in a raw string"#;
    let _ch = '"';
    "done"
}
"##;
        assert!(check_one(FileKind::Src, source).is_empty());
    }

    #[test]
    fn line_numbers_survive_stripping() {
        let source = "// comment\n\nfn f() {\n    let r = thread_rng();\n}\n";
        let findings = check_one(FileKind::Src, source);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].excerpt.contains("let r = thread_rng();"));
    }

    #[test]
    fn the_real_workspace_draws_no_ambient_randomness() {
        let model = Model::load(&crate::workspace_root()).expect("model loads");
        // The rule's reach beyond `src/` is real: test trees are loaded.
        assert!(model.files.iter().any(|f| f.kind == FileKind::Tests));
        let findings = check(&model);
        assert!(
            findings.is_empty(),
            "ambient randomness: {:?}",
            findings
                .iter()
                .map(|f| format!("{}:{}", f.path, f.line))
                .collect::<Vec<_>>()
        );
    }
}
