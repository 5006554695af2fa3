//! Rule `obs-bypass`: telemetry in the engine crate goes through the
//! `lagover-obs` facade — no raw `println!` / `eprintln!` and no ad-hoc
//! `struct *Counters` in `crates/core/src` production code (the one
//! blessed counter set lives in `crates/obs/src/counters.rs`).
//! `#[cfg(test)]` regions are exempt.

use super::super::lexer::{find_idents, is_ident_byte};
use super::super::model::{FileKind, Model};
use super::Finding;

pub const RULE: &str = "obs-bypass";

pub fn check(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in model.files_of(&[FileKind::Src]) {
        if !file.path.starts_with("crates/core/src") {
            continue;
        }
        let masked = file.masked();
        let mut offsets: Vec<(usize, &str)> = Vec::new();
        for mac in ["println!", "eprintln!"] {
            for offset in find_idents(&masked, mac) {
                offsets.push((offset, "raw print outside the obs facade"));
            }
        }
        let bytes = masked.as_bytes();
        for offset in find_idents(&masked, "struct") {
            let mut j = offset + "struct".len();
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let start = j;
            while j < bytes.len() && is_ident_byte(bytes[j]) {
                j += 1;
            }
            if masked[start..j].ends_with("Counters") {
                offsets.push((offset, "ad-hoc counter struct outside lagover-obs"));
            }
        }
        offsets.sort();
        for (offset, label) in offsets {
            findings.push(Finding {
                path: file.path.clone(),
                line: file.line_of(offset),
                rule: RULE,
                excerpt: format!("{label}: {}", file.excerpt_at(offset)),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::super::super::model::SourceFile;
    use super::*;

    fn check_at(path: &str, source: &str) -> Vec<Finding> {
        let model = Model {
            workspace: Default::default(),
            files: vec![SourceFile::from_source(
                path.to_string(),
                FileKind::Src,
                source.to_string(),
            )],
        };
        check(&model)
    }

    #[test]
    fn fixture_obs_bypass_is_caught_in_core_only() {
        let source = include_str!("../../../fixtures/analyze/obs_bypass.rs");
        let findings = check_at("crates/core/src/engine.rs", source);
        // One print of each stream plus the shadow-counter struct —
        // and none of the decoys or the test module.
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [8, 12, 16]);
        assert!(findings[0].excerpt.contains("println!"));
        assert!(findings[1].excerpt.contains("eprintln!"));
        assert!(findings[2].excerpt.contains("ShadowCounters"));
        // Outside the engine crate the rule does not apply (the obs
        // crate itself defines the blessed `EngineCounters`).
        assert!(check_at("crates/obs/src/counters.rs", source).is_empty());
    }

    #[test]
    fn obs_bypass_requires_the_counters_suffix() {
        let source = "struct Countersign { field: u8 }\nstruct Counters { a: u64 }\n";
        let findings = check_at("crates/core/src/engine.rs", source);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let source = "
fn real() {}
#[cfg(test)]
mod tests {
    struct TallyCounters;
    #[test]
    fn t() {
        println!(\"debug output\");
    }
}
";
        assert!(check_at("crates/core/src/engine.rs", source).is_empty());
    }

    #[test]
    fn non_test_code_after_a_test_module_is_still_scanned() {
        let source = "
#[cfg(test)]
mod tests { fn t() { } }
fn late() { eprintln!(\"late\"); }
";
        let findings = check_at("crates/core/src/engine.rs", source);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }
}
