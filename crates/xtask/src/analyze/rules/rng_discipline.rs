//! Rule `rng-discipline`: every `SimRng` draw call site in production
//! code is enumerated and diffed against the committed registry
//! `crates/xtask/rng_sites.toml`. Replay determinism is a property of
//! the *draw sequence*, so adding, removing, or moving a draw — the
//! exact edits that silently break byte-identical replay — must be a
//! conscious act: the build fails until the registry is re-blessed
//! (`cargo xtask analyze --bless`, reviewed like the golden journal).
//!
//! Sites are keyed `(path, enclosing function, method)` with a count:
//! coarse enough that reordering lines inside a function doesn't churn
//! the registry, fine enough that a draw migrating between functions
//! or files — a draw-order change — always shows up.

use super::super::lexer::{enclosing_fn, find_idents, fn_spans};
use super::super::model::{FileKind, Model};
use super::Finding;

/// The `SimRng` drawing surface (`crates/sim/src/rng.rs`). `split`,
/// `state`, and `draws` are not draws.
pub const DRAW_METHODS: &[&str] = &[
    "chance",
    "choose",
    "exponential",
    "f64",
    "index",
    "pareto",
    "range_u32",
    "shuffle",
];

pub const RULE: &str = "rng-discipline";

/// One aggregated draw site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrawSite {
    pub path: String,
    pub function: String,
    pub method: &'static str,
    pub count: u64,
    /// Line of the first occurrence — reported in findings, never
    /// serialized into the registry (line churn must not invalidate
    /// it).
    pub first_line: usize,
}

impl DrawSite {
    fn key(&self) -> (&str, &str, &str) {
        (&self.path, &self.function, self.method)
    }
}

/// Enumerates every draw site in `src/` production code (tests are
/// masked; `tests/`, `examples/`, and `benches/` draws don't perturb
/// committed replay output, so they stay out of the registry).
pub fn enumerate(model: &Model) -> Vec<DrawSite> {
    let mut sites: Vec<DrawSite> = Vec::new();
    for file in model.files_of(&[FileKind::Src]) {
        let masked = file.masked();
        let spans = fn_spans(&masked);
        for method in DRAW_METHODS {
            for offset in draw_calls(&masked, method) {
                let function = enclosing_fn(&spans, offset).to_string();
                let line = file.line_of(offset);
                match sites
                    .iter_mut()
                    .find(|s| s.path == file.path && s.function == function && s.method == *method)
                {
                    Some(s) => {
                        s.count += 1;
                        s.first_line = s.first_line.min(line);
                    }
                    None => sites.push(DrawSite {
                        path: file.path.clone(),
                        function,
                        method,
                        count: 1,
                        first_line: line,
                    }),
                }
            }
        }
    }
    sites.sort_by(|a, b| a.key().cmp(&b.key()));
    sites
}

/// Offsets of `.{method}(` calls (turbofish tolerated) in `text`.
/// `index` needs an argument: `SimRng::index` always takes its bound,
/// and the zero-argument `.index()` is `PeerId`'s accessor — a read,
/// called all over the engine.
fn draw_calls(text: &str, method: &str) -> Vec<usize> {
    let pattern = format!(".{method}");
    let bytes = text.as_bytes();
    find_idents(text, &pattern)
        .into_iter()
        .filter(|&offset| {
            let mut j = offset + pattern.len();
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            // `::<T>` turbofish between name and argument list.
            if bytes.get(j) == Some(&b':') && bytes.get(j + 1) == Some(&b':') {
                j += 2;
                if bytes.get(j) == Some(&b'<') {
                    let mut depth = 0usize;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'<' => depth += 1,
                            b'>' => {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                } else {
                    return false;
                }
            }
            if bytes.get(j) != Some(&b'(') {
                return false;
            }
            let first_in_parens = bytes[j + 1..].iter().find(|b| !b.is_ascii_whitespace());
            method != "index" || first_in_parens != Some(&b')')
        })
        .collect()
}

/// Diffs the enumerated sites against the parsed registry. Every
/// mismatch — new site, changed count, vanished site — is a finding.
pub fn diff(current: &[DrawSite], registry: &[DrawSite], registry_path: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for site in current {
        match registry.iter().find(|r| r.key() == site.key()) {
            None => findings.push(Finding {
                path: site.path.clone(),
                line: site.first_line,
                rule: RULE,
                excerpt: format!(
                    "unregistered draw site: {}() ×{} in fn {} — re-bless with `cargo xtask analyze --bless`",
                    site.method, site.count, site.function
                ),
            }),
            Some(r) if r.count != site.count => findings.push(Finding {
                path: site.path.clone(),
                line: site.first_line,
                rule: RULE,
                excerpt: format!(
                    "draw count changed: {}() in fn {} is ×{}, registry says ×{}",
                    site.method, site.function, site.count, r.count
                ),
            }),
            Some(_) => {}
        }
    }
    for site in registry {
        if !current.iter().any(|c| c.key() == site.key()) {
            findings.push(Finding {
                path: registry_path.to_string(),
                line: 1,
                rule: RULE,
                excerpt: format!(
                    "stale registry entry: {}() in fn {} of {} no longer exists",
                    site.method, site.function, site.path
                ),
            });
        }
    }
    findings
}

/// Parses the registry: a tiny TOML subset — `[[site]]` tables of
/// quoted strings plus one integer key, `#` comments.
pub fn parse_registry(text: &str) -> Result<Vec<DrawSite>, String> {
    let mut sites: Vec<DrawSite> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[site]]" {
            sites.push(DrawSite {
                path: String::new(),
                function: String::new(),
                method: "",
                count: 0,
                first_line: 0,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `[[site]]` or `key = value`"
            ));
        };
        let (key, value) = (key.trim(), value.trim());
        let Some(site) = sites.last_mut() else {
            return Err(format!("line {lineno}: `{key}` outside a [[site]] table"));
        };
        match key {
            "path" => site.path = unquote(value, lineno)?,
            "function" => site.function = unquote(value, lineno)?,
            "method" => {
                let v = unquote(value, lineno)?;
                site.method = DRAW_METHODS
                    .iter()
                    .find(|m| **m == v)
                    .ok_or_else(|| format!("line {lineno}: unknown draw method `{v}`"))?;
            }
            "count" => {
                site.count = value
                    .parse()
                    .map_err(|_| format!("line {lineno}: count must be an integer"))?
            }
            other => return Err(format!("line {lineno}: unknown key `{other}`")),
        }
    }
    for (i, s) in sites.iter().enumerate() {
        if s.path.is_empty() || s.function.is_empty() || s.method.is_empty() || s.count == 0 {
            return Err(format!(
                "[[site]] entry {}: needs path, function, method, and a nonzero count",
                i + 1
            ));
        }
    }
    Ok(sites)
}

/// Renders the registry deterministically (sites must be pre-sorted,
/// as [`enumerate`] returns them).
pub fn render_registry(sites: &[DrawSite]) -> String {
    let mut out = String::from(
        "# SimRng draw-site registry — regenerated by `cargo xtask analyze --bless`.\n\
         #\n\
         # Every production draw call site, keyed (path, function, method) with a\n\
         # count. `cargo xtask analyze` fails when the workspace drifts from this\n\
         # file: adding or moving a draw changes the replayed draw sequence, so it\n\
         # must be re-blessed (and reviewed) like the golden journal.\n",
    );
    let mut draws = 0u64;
    for site in sites {
        out.push_str(&format!(
            "\n[[site]]\npath = \"{}\"\nfunction = \"{}\"\nmethod = \"{}\"\ncount = {}\n",
            site.path, site.function, site.method, site.count
        ));
        draws += site.count;
    }
    out.push_str(&format!(
        "\n# {} sites, {} draw calls.\n",
        sites.len(),
        draws
    ));
    out
}

fn unquote(value: &str, lineno: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string"))
}

#[cfg(test)]
mod tests {
    use super::super::super::model::SourceFile;
    use super::*;

    fn model_with(path: &str, source: &str) -> Model {
        Model {
            workspace: Default::default(),
            files: vec![SourceFile::from_source(
                path.to_string(),
                FileKind::Src,
                source.to_string(),
            )],
        }
    }

    #[test]
    fn fixture_sites_are_enumerated_per_function() {
        let model = model_with(
            "crates/fake/src/lib.rs",
            include_str!("../../../fixtures/analyze/rng_sites.rs"),
        );
        let sites = enumerate(&model);
        let keys: Vec<_> = sites
            .iter()
            .map(|s| (s.function.as_str(), s.method, s.count))
            .collect();
        assert_eq!(
            keys,
            [
                ("pick", "choose", 1),
                ("pick", "index", 2),
                ("spread", "exponential", 1),
                ("spread", "shuffle", 1),
            ]
        );
    }

    #[test]
    fn turbofish_and_spacing_are_tolerated_but_decoys_are_not() {
        let src = "fn f(r: &mut R) { r.index(4); r.index ::<u8>(4); self.reindex(); index(3); v.indexes(1); }\n";
        let model = model_with("crates/fake/src/lib.rs", src);
        let sites = enumerate(&model);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].count, 2);
    }

    #[test]
    fn a_zero_argument_index_is_an_accessor_not_a_draw() {
        let src =
            "fn f(r: &mut R, p: PeerId) { v[p.index()] = r.index(n); p.index( ); r.f64(); }\n";
        let sites = enumerate(&model_with("crates/fake/src/lib.rs", src));
        let keys: Vec<_> = sites.iter().map(|s| (s.method, s.count)).collect();
        assert_eq!(keys, [("f64", 1), ("index", 1)]);
    }

    #[test]
    fn registry_round_trips() {
        let model = model_with(
            "crates/fake/src/lib.rs",
            include_str!("../../../fixtures/analyze/rng_sites.rs"),
        );
        let sites = enumerate(&model);
        let text = render_registry(&sites);
        let parsed = parse_registry(&text).unwrap();
        assert_eq!(parsed.len(), sites.len());
        for (p, s) in parsed.iter().zip(&sites) {
            assert_eq!(p.key(), s.key());
            assert_eq!(p.count, s.count);
        }
        assert!(diff(&sites, &parsed, "reg.toml").is_empty());
    }

    #[test]
    fn added_moved_and_stale_sites_each_produce_the_pinned_finding() {
        let model = model_with(
            "crates/fake/src/lib.rs",
            include_str!("../../../fixtures/analyze/rng_sites.rs"),
        );
        let sites = enumerate(&model);
        let registry = parse_registry(&render_registry(&sites)).unwrap();

        // Added draw: count drifts.
        let mut grown = sites.clone();
        grown[1].count += 1;
        let f = diff(&grown, &registry, "reg.toml");
        assert_eq!(f.len(), 1);
        assert!(f[0].excerpt.contains("draw count changed"));

        // Moved draw: one site vanishes, a new one appears.
        let mut moved = sites.clone();
        moved[0].function = "elsewhere".to_string();
        let f = diff(&moved, &registry, "reg.toml");
        assert_eq!(f.len(), 2);
        assert!(f[0].excerpt.contains("unregistered draw site"));
        assert!(f[1].excerpt.contains("stale registry entry"));
        assert_eq!(f[1].path, "reg.toml");
    }

    #[test]
    fn draws_in_test_modules_are_invisible() {
        let src = "#[cfg(test)]\nmod tests { fn t(r: &mut R) { r.f64(); } }\nfn live() {}\n";
        assert!(enumerate(&model_with("crates/fake/src/lib.rs", src)).is_empty());
    }

    #[test]
    fn registry_rejects_malformed_entries() {
        assert!(parse_registry("[[site]]\npath = \"p\"\n").is_err());
        assert!(parse_registry(
            "[[site]]\npath = \"p\"\nfunction = \"f\"\nmethod = \"nope\"\ncount = 1\n"
        )
        .is_err());
        assert!(parse_registry("count = 1\n").is_err());
    }
}
