//! Property tests for the lexer core (`analyze::lexer`), run on the
//! in-tree `propcheck` shim. Every rule in the engine leans on three
//! invariants — stripping never moves a byte, masking never moves a
//! byte, and identifier search never reports a phantom occurrence —
//! so they are pinned here over generated token soups rather than a
//! handful of hand-picked fixtures, plus deterministic round-trip
//! cases for the trickiest literal forms.

use proptest::prelude::*;

use super::lexer::{find_idents, is_ident_byte, line_of, strip_code, CfgMap};

/// Source fragments the generator splices together. Deliberately
/// adversarial: nested block comments, raw strings with hashes,
/// escaped quotes, char literals, lifetimes, cfg attributes, and an
/// identifier next to look-alikes that extend it.
const PIECES: &[&str] = &[
    "fn f() {\n",
    "}\n",
    "let x = 1;\n",
    "// line comment with thread_rng\n",
    "/* block /* nested */ comment */",
    "\"string with \\\" escape and thread_rng\"",
    "r#\"raw \"quoted\" thread_rng\"#",
    "b\"byte string\"",
    "'x'",
    "'\\''",
    "'\\n'",
    "&'static str",
    "#[cfg(test)]\nmod t { let _ = 1; }\n",
    "#[cfg(feature = \"wall-clock\")]\nfn gated() {}\n",
    "thread_rng()",
    "my_thread_rng_helper()",
    "ident",
    "\n\n",
    "struct S;\n",
];

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..PIECES.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect::<String>())
}

fn newline_offsets(s: &str) -> Vec<usize> {
    s.bytes()
        .enumerate()
        .filter(|(_, b)| *b == b'\n')
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    /// Stripping replaces bytes but never inserts, deletes, or moves
    /// one: total length and every newline offset are preserved, so
    /// any offset into the stripped text indexes the same line of the
    /// original.
    #[test]
    fn strip_preserves_byte_offsets_and_lines(src in soup()) {
        let stripped = strip_code(&src);
        prop_assert_eq!(stripped.len(), src.len());
        prop_assert_eq!(newline_offsets(&stripped), newline_offsets(&src));
        for offset in (0..src.len()).step_by(7) {
            prop_assert_eq!(line_of(&stripped, offset), line_of(&src, offset));
        }
    }

    /// Stripping already-stripped text is a no-op — blanked string
    /// and char-literal bodies re-lex to the same spans.
    #[test]
    fn strip_is_idempotent(src in soup()) {
        let once = strip_code(&src);
        prop_assert_eq!(strip_code(&once), once);
    }

    /// Masking cfg regions only ever blanks: every output byte is
    /// either the input byte or a space, newlines always survive.
    #[test]
    fn mask_only_blanks_in_place(src in soup()) {
        let stripped = strip_code(&src);
        let map = CfgMap::build(&stripped, &src);
        let masked = map.mask_matching(&stripped, |_| true);
        prop_assert_eq!(masked.len(), stripped.len());
        for (m, s) in masked.bytes().zip(stripped.bytes()) {
            prop_assert!(m == s || (m == b' ' && s != b'\n'));
        }
        prop_assert_eq!(newline_offsets(&masked), newline_offsets(&src));
    }

    /// Every offset `find_idents` reports carries a verbatim needle
    /// occurrence with free identifier boundaries on both sides — and
    /// it finds *all* of them (no phantom or missed hits).
    #[test]
    fn find_idents_is_exact(src in soup()) {
        let stripped = strip_code(&src);
        let needle = "thread_rng";
        let offsets = find_idents(&stripped, needle);
        for &o in &offsets {
            prop_assert_eq!(&stripped[o..o + needle.len()], needle);
            prop_assert!(o == 0 || !is_ident_byte(stripped.as_bytes()[o - 1]));
            let after = o + needle.len();
            prop_assert!(
                after >= stripped.len() || !is_ident_byte(stripped.as_bytes()[after])
            );
        }
        // Exhaustive cross-check against a naive scan.
        let naive: Vec<usize> = (0..stripped.len().saturating_sub(needle.len() - 1))
            .filter(|&i| {
                stripped[i..].starts_with(needle)
                    && (i == 0 || !is_ident_byte(stripped.as_bytes()[i - 1]))
                    && (i + needle.len() >= stripped.len()
                        || !is_ident_byte(stripped.as_bytes()[i + needle.len()]))
            })
            .collect();
        prop_assert_eq!(offsets, naive);
    }
}

#[cfg(test)]
mod round_trips {
    use super::super::lexer::strip_code;

    /// Each tricky literal, with the exact bytes stripping must leave.
    #[test]
    fn tricky_tokens_strip_to_pinned_bytes() {
        let cases: &[(&str, &str)] = &[
            // Escaped quote inside a string: contents blanked, quotes kept.
            (r#"let s = "a\"b";"#, r#"let s = "    ";"#),
            // Raw string with hashes: hashes and quotes survive.
            (r###"let r = r#"x"y"#;"###, r###"let r = r#"   "#;"###),
            // Byte string.
            (r#"let b = b"xyz";"#, r#"let b = b"   ";"#),
            // Char literal vs lifetime: only the literal is blanked.
            (
                "let c = 'q'; let s: &'static str = s;",
                "let c = ' '; let s: &'static str = s;",
            ),
            // Escaped-quote char literal.
            (r"let c = '\'';", "let c = '  ';"),
            // Nested block comment, fully blanked.
            ("a /* x /* y */ z */ b", "a                   b"),
            // Line comment stops at the newline.
            ("code // tail\nmore", "code        \nmore"),
        ];
        for (src, want) in cases {
            assert_eq!(&strip_code(src), want, "stripping {src:?}");
        }
    }
}
