//! Deterministic report rendering for `cargo xtask analyze`:
//! `target/analyze/REPORT.json` (machine-readable, byte-identical
//! across runs on the same tree — no timestamps, no absolute paths,
//! insertion-ordered objects, findings pre-sorted) plus a markdown
//! findings table for humans and CI job summaries.

use lagover_jsonio::{object, Json};

use super::rules::panic_surface::PanicMetrics;
use super::rules::{Finding, RULES};
use super::Analysis;

/// Everything one analyze pass produced.
pub struct Report {
    pub files_scanned: usize,
    /// Registered SimRng draw sites and total draw calls.
    pub rng_sites: usize,
    pub rng_draws: u64,
    pub panic: PanicMetrics,
    /// Every finding, sorted by (path, line, rule, excerpt).
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn new(files_scanned: usize, analysis: Analysis) -> Report {
        Report {
            files_scanned,
            rng_sites: analysis.sites.len(),
            rng_draws: analysis.sites.iter().map(|s| s.count).sum(),
            panic: analysis.panic,
            findings: analysis.findings,
        }
    }

    pub fn to_json(&self) -> Json {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                object(vec![
                    ("path", Json::Str(f.path.clone())),
                    ("line", Json::U64(f.line as u64)),
                    ("rule", Json::Str(f.rule.to_string())),
                    ("finding", Json::Str(f.excerpt.clone())),
                ])
            })
            .collect();
        object(vec![
            ("schema", Json::Str("lagover.analyze.report/v2".to_string())),
            (
                "rules",
                Json::Array(RULES.iter().map(|r| Json::Str((*r).to_string())).collect()),
            ),
            ("files_scanned", Json::U64(self.files_scanned as u64)),
            (
                "rng",
                object(vec![
                    ("sites", Json::U64(self.rng_sites as u64)),
                    ("draws", Json::U64(self.rng_draws)),
                ]),
            ),
            (
                "panic_surface",
                object(vec![
                    ("expect_msg", Json::U64(self.panic.expect_msg)),
                    ("panic_msg", Json::U64(self.panic.panic_msg)),
                    ("unreachable_msg", Json::U64(self.panic.unreachable_msg)),
                    ("slice_index", Json::U64(self.panic.slice_index)),
                ]),
            ),
            ("violations", Json::U64(self.findings.len() as u64)),
            ("findings", Json::Array(findings)),
        ])
    }

    /// The JSON document as written to disk (pretty, trailing newline).
    pub fn render_json(&self) -> String {
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        text
    }

    pub fn render_markdown(&self) -> String {
        let mut out = String::from("# cargo xtask analyze\n\n");
        out.push_str("| metric | value |\n|---|---:|\n");
        out.push_str(&format!("| files scanned | {} |\n", self.files_scanned));
        out.push_str(&format!(
            "| registered rng draw sites | {} ({} draws) |\n",
            self.rng_sites, self.rng_draws
        ));
        out.push_str(&format!(
            "| messaged panics (expect / panic! / unreachable!) | {} / {} / {} |\n",
            self.panic.expect_msg, self.panic.panic_msg, self.panic.unreachable_msg
        ));
        out.push_str(&format!(
            "| slice-index expressions in panic-surface scope | {} |\n",
            self.panic.slice_index
        ));
        out.push_str(&format!("| violations | {} |\n", self.findings.len()));
        out.push('\n');
        if self.findings.is_empty() {
            out.push_str("No violations.\n");
        } else {
            out.push_str("## Findings\n\n| path | line | rule | finding |\n|---|---:|---|---|\n");
            for f in &self.findings {
                out.push_str(&format!(
                    "| {} | {} | {} | {} |\n",
                    f.path,
                    f.line,
                    f.rule,
                    f.excerpt.replace('|', "\\|")
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            files_scanned: 3,
            rng_sites: 2,
            rng_draws: 5,
            panic: PanicMetrics {
                expect_msg: 4,
                panic_msg: 1,
                unreachable_msg: 2,
                slice_index: 7,
            },
            findings: vec![Finding {
                path: "crates/a/src/lib.rs".to_string(),
                line: 9,
                rule: "feature-gate",
                excerpt: "Instant::now outside a gate".to_string(),
            }],
        }
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let a = sample().render_json();
        let b = sample().render_json();
        assert_eq!(a, b);
        // Insertion order is serialization order: schema first,
        // findings last.
        let schema_at = a.find("\"schema\"").unwrap();
        let findings_at = a.find("\"findings\"").unwrap();
        assert!(schema_at < findings_at);
        assert!(a.ends_with('\n'));
        // Round-trips through the parser.
        let parsed = lagover_jsonio::parse(&a).unwrap();
        assert_eq!(parsed.get("violations").unwrap().as_u64().unwrap(), 1);
        assert_eq!(
            parsed.get("rules").unwrap().as_array().unwrap().len(),
            RULES.len()
        );
    }

    #[test]
    fn markdown_lists_findings_or_declares_clean() {
        let md = sample().render_markdown();
        assert!(md.contains("| crates/a/src/lib.rs | 9 | feature-gate |"));
        let clean = Report {
            findings: Vec::new(),
            ..sample()
        };
        assert!(clean.render_markdown().contains("No violations."));
    }
}
