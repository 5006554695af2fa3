//! Rule `panic-surface`: a tiered audit of release-reachable panic
//! sites in [`SCOPE`] — the engine crate every committed figure runs
//! through, and the input boundary (CLI, workload specs, the JSON
//! parser, the node wire codec, the stream scheduler that takes the
//! CLI's `--window` / `--ttl` / `--stream-rate`), where bad input must
//! come back as an error, never a panic.
//!
//! * **Deny** (fails the build): panics that carry no invariant —
//!   `.unwrap()`, `.expect("")`, bare `panic!()` / `unreachable!()`,
//!   and `todo!` / `unimplemented!` placeholders.
//! * **Warn** (counted in the report): messaged `.expect("...")`,
//!   `panic!("...")`, `unreachable!("...")` — legitimate invariant
//!   assertions, tracked so growth is visible in REPORT.json diffs.
//! * **Info** (counted): direct slice-index expressions, the implicit
//!   panic surface of the SoA arenas (DESIGN.md §13.1).
//!
//! `#[cfg(test)]` and `#[cfg(debug_assertions)]` regions are masked:
//! debug-only validation (e.g. `Overlay::validate`) may assert freely.

use super::super::lexer::{find_from, find_idents, is_ident_byte};
use super::super::model::{FileKind, Model};
use super::Finding;

pub const RULE: &str = "panic-surface";

/// Path prefixes the audit covers.
pub const SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/cli/src/",
    "crates/workload/src/",
    "crates/jsonio/src/",
    "crates/node/src/wire.rs",
    "crates/stream/src/",
];

/// Warn/info-tier counters, serialized into REPORT.json.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PanicMetrics {
    pub expect_msg: u64,
    pub panic_msg: u64,
    pub unreachable_msg: u64,
    pub slice_index: u64,
}

pub fn check(model: &Model) -> (Vec<Finding>, PanicMetrics) {
    let mut findings = Vec::new();
    let mut metrics = PanicMetrics::default();
    for file in model.files_of(&[FileKind::Src]) {
        if !SCOPE.iter().any(|prefix| file.path.starts_with(prefix)) {
            continue;
        }
        let masked = file.cfg.mask_matching(&file.masked(), |p| {
            p.contains("debug_assertions") && !p.contains("not(debug_assertions")
        });
        let mut offsets: Vec<(usize, &'static str)> = Vec::new();
        for offset in find_idents(&masked, ".unwrap()") {
            offsets.push((offset, ".unwrap() without an invariant message"));
        }
        for offset in find_idents(&masked, ".expect(") {
            // Strings are space-blanked *preserving length*, so a
            // surviving `""` really was empty in the source.
            if masked[offset..].starts_with(".expect(\"\")") {
                offsets.push((offset, ".expect(\"\") without an invariant message"));
            } else {
                metrics.expect_msg += 1;
            }
        }
        for (mac, bare_label, msg_counter) in [
            ("panic!", "bare panic!() without a message", 0usize),
            ("unreachable!", "bare unreachable!() without a message", 1),
        ] {
            for offset in find_idents(&masked, mac) {
                if macro_args_empty(&masked, offset + mac.len()) {
                    offsets.push((offset, bare_label));
                } else if msg_counter == 0 {
                    metrics.panic_msg += 1;
                } else {
                    metrics.unreachable_msg += 1;
                }
            }
        }
        for mac in ["todo!", "unimplemented!"] {
            for offset in find_idents(&masked, mac) {
                offsets.push((offset, "unfinished-code placeholder"));
            }
        }
        metrics.slice_index += slice_index_count(&masked);
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
    (findings, metrics)
}

/// Whether the macro invocation whose bang just ended at `after` has
/// an empty (or missing) argument list.
fn macro_args_empty(text: &str, after: usize) -> bool {
    let bytes = text.as_bytes();
    let mut j = after;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    let Some(&open) = bytes.get(j) else {
        return true;
    };
    let close = match open {
        b'(' => b')',
        b'[' => b']',
        b'{' => b'}',
        _ => return true,
    };
    let end = find_from(bytes, &[close], j + 1).unwrap_or(bytes.len());
    text[j + 1..end].trim().is_empty()
}

/// Counts direct index expressions `expr[...]`: a `[` immediately
/// following an identifier, `)`, or `]`. Array types (`[u8; 4]`),
/// attributes (`#[...]`), and array literals don't qualify. A lexical
/// heuristic, reported as an info metric only.
fn slice_index_count(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let mut count = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'[' && i > 0 {
            let prev = bytes[i - 1];
            if is_ident_byte(prev) || prev == b')' || prev == b']' {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::super::super::model::SourceFile;
    use super::*;

    fn run_on(path: &str, source: &str) -> (Vec<Finding>, PanicMetrics) {
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
    fn fixture_pins_both_tiers() {
        let source = include_str!("../../../fixtures/analyze/panic_tiers.rs");
        let (findings, metrics) = run_on("crates/core/src/engine.rs", source);
        let labels: Vec<_> = findings
            .iter()
            .map(|f| f.excerpt.split(':').next().unwrap())
            .collect();
        assert_eq!(
            labels,
            [
                ".unwrap() without an invariant message",
                ".expect(\"\") without an invariant message",
                "bare panic!() without a message",
                "bare unreachable!() without a message",
                "unfinished-code placeholder",
            ]
        );
        assert_eq!(
            metrics,
            PanicMetrics {
                expect_msg: 1,
                panic_msg: 1,
                unreachable_msg: 1,
                slice_index: 2,
            }
        );
    }

    #[test]
    fn rule_is_scoped_to_core_and_the_input_boundary() {
        let source = include_str!("../../../fixtures/analyze/panic_tiers.rs");
        for path in [
            "crates/cli/src/lib.rs",
            "crates/workload/src/lib.rs",
            "crates/jsonio/src/parse.rs",
            "crates/node/src/wire.rs",
            "crates/stream/src/scheduler.rs",
        ] {
            assert_eq!(run_on(path, source).0.len(), 5, "{path}");
        }
        for path in ["crates/node/src/mesh.rs", "crates/experiments/src/lib.rs"] {
            let (findings, metrics) = run_on(path, source);
            assert!(findings.is_empty(), "{path}");
            assert_eq!(metrics, PanicMetrics::default());
        }
    }

    #[test]
    fn debug_assertions_regions_are_exempt() {
        let source = "\
#[cfg(debug_assertions)]\nfn validate(x: Option<u8>) { x.unwrap(); }\n\
fn live() -> u8 { 3 }\n";
        let (findings, _) = run_on("crates/core/src/overlay.rs", source);
        assert!(findings.is_empty());
    }

    #[test]
    fn messaged_invariants_pass_but_are_counted() {
        let source = "fn f(x: Option<u8>) -> u8 { x.expect(\"invariant: filled\") }\n";
        let (findings, metrics) = run_on("crates/core/src/engine.rs", source);
        assert!(findings.is_empty());
        assert_eq!(metrics.expect_msg, 1);
    }
}
