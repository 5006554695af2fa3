//! `cargo xtask replay-diff` — proves the figure pipeline is
//! schedule-invariant by running each figure under two parallel
//! schedules and byte-diffing the JSON they emit:
//!
//! * `LAGOVER_THREADS=1` (the sequential baseline),
//! * `LAGOVER_THREADS=8` (eight chunks of runs on scoped threads).
//!
//! Any divergence means per-run state leaked across the chunk
//! boundaries of `lagover_core::parallel_runs`.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The two schedules: `(label, LAGOVER_THREADS)`; the first is the
/// baseline the second diffs against.
const VARIANTS: &[(&str, &str)] = &[("threads-1", "1"), ("threads-8", "8")];

/// Entry point for `cargo xtask replay-diff [FIGS..] [--full]`.
///
/// The figure list is derived from the perf scenario registry
/// ([`lagover_perf::replay_figures`]), so a scenario added there is
/// automatically replay-diffed here — no hand-maintained list to
/// drift.
pub fn run(args: &[String]) -> ExitCode {
    let known = lagover_perf::replay_figures();
    let mut figures: Vec<String> = Vec::new();
    let mut full = false;
    for arg in args {
        match arg.as_str() {
            "--full" => full = true,
            name if known.contains(&name) => figures.push(name.to_string()),
            other => {
                eprintln!(
                    "xtask replay-diff: unknown argument `{other}` (figures: {})",
                    known.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if figures.is_empty() {
        figures = known.iter().map(|s| s.to_string()).collect();
    }

    let root = crate::workspace_root();
    let binary = match experiments_binary(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask replay-diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out_root = target_dir(&root).join("replay-diff");
    let mut failures = 0usize;
    for fig in &figures {
        let mut baseline: Option<Vec<u8>> = None;
        for &(variant, threads) in VARIANTS {
            let out_dir = out_root.join(fig).join(variant);
            if let Err(e) = fs::create_dir_all(&out_dir) {
                eprintln!(
                    "xtask replay-diff: cannot create {}: {e}",
                    out_dir.display()
                );
                return ExitCode::FAILURE;
            }
            let mut cmd = Command::new(&binary);
            cmd.current_dir(&root)
                .args(["run", fig])
                .args(["--json", &out_dir.to_string_lossy()])
                .env("LAGOVER_THREADS", threads);
            if !full {
                cmd.arg("--quick");
            }
            // Capture the driver's (chatty) table output; surface it
            // only when the run itself fails.
            match cmd.output() {
                Ok(out) if out.status.success() => {}
                Ok(out) => {
                    eprintln!(
                        "xtask replay-diff: {fig} [{variant}] driver exited with {}\n{}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr)
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("xtask replay-diff: cannot run {}: {e}", binary.display());
                    return ExitCode::FAILURE;
                }
            }
            let json_path = out_dir.join(format!("{fig}.json"));
            let bytes = match fs::read(&json_path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!(
                        "xtask replay-diff: driver wrote no {}: {e}",
                        json_path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            match &baseline {
                None => {
                    println!("  {fig} [{variant}]: baseline, {} bytes", bytes.len());
                    baseline = Some(bytes);
                }
                Some(base) => match first_divergence(base, &bytes) {
                    None => println!("  {fig} [{variant}]: IDENTICAL"),
                    Some(at) => {
                        failures += 1;
                        println!(
                            "  {fig} [{variant}]: DIFFERS from threads-1 at byte {at}\n    baseline: {}\n    variant:  {}",
                            context(base, at),
                            context(&bytes, at)
                        );
                    }
                },
            }
        }
    }
    if failures == 0 {
        println!(
            "xtask replay-diff: PASS — {} figure(s) byte-identical across {} schedules",
            figures.len(),
            VARIANTS.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask replay-diff: FAIL — {failures} schedule divergence(s)");
        ExitCode::FAILURE
    }
}

/// Locates (building if necessary) the release `lagover-experiments`
/// binary.
fn experiments_binary(root: &std::path::Path) -> Result<PathBuf, String> {
    let binary = target_dir(root).join("release").join(format!(
        "lagover-experiments{}",
        std::env::consts::EXE_SUFFIX
    ));
    if binary.is_file() {
        return Ok(binary);
    }
    println!("xtask replay-diff: building lagover-experiments (release)");
    let status = Command::new(crate::cargo())
        .current_dir(root)
        .args(["build", "--release", "-p", "lagover-experiments"])
        .status()
        .map_err(|e| format!("cannot invoke cargo: {e}"))?;
    if !status.success() {
        return Err("building lagover-experiments failed".to_string());
    }
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("built, but {} does not exist", binary.display()))
    }
}

use crate::target_dir;

/// The core comparison `replay-diff` is built on: byte offset of the
/// first divergence between two outputs, or `None` when they are
/// identical (a length mismatch diverges at the shorter length).
pub fn first_divergence(a: &[u8], b: &[u8]) -> Option<usize> {
    let shared = a.len().min(b.len());
    (0..shared).find(|&i| a[i] != b[i]).or({
        if a.len() == b.len() {
            None
        } else {
            Some(shared)
        }
    })
}

/// A short printable window around `at` for divergence reports.
fn context(bytes: &[u8], at: usize) -> String {
    let start = at.saturating_sub(20);
    let end = (at + 20).min(bytes.len());
    let window = String::from_utf8_lossy(&bytes[start..end]).into_owned();
    format!("…{}…", window.escape_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_buffers_have_no_divergence() {
        assert_eq!(first_divergence(b"", b""), None);
        assert_eq!(first_divergence(b"{\"a\":1}", b"{\"a\":1}"), None);
    }

    #[test]
    fn divergence_reports_the_first_differing_byte() {
        assert_eq!(first_divergence(b"abcd", b"abXd"), Some(2));
        assert_eq!(first_divergence(b"abc", b"abcd"), Some(3));
        assert_eq!(first_divergence(b"abcd", b"abc"), Some(3));
    }
}

#[cfg(test)]
mod props {
    //! Property tests for the comparison: a replayed run that produced
    //! the *same* bytes must always be accepted, and a run whose
    //! sampled value was perturbed (the observable effect of an
    //! injected `thread_rng` draw) must always be rejected, with the
    //! divergence located no earlier than the perturbation.

    use super::first_divergence;
    use proptest::prelude::*;

    /// Renders a miniature figure-report JSON whose only
    /// schedule-sensitive content is one sampled value.
    fn render(seed: u64, sample: u64, runs: &[u64]) -> Vec<u8> {
        let runs_csv = runs
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"seed\":{seed},\"sample\":{sample},\"runs\":[{runs_csv}]}}").into_bytes()
    }

    proptest! {
        #[test]
        fn identical_replays_are_accepted(
            seed in proptest::prelude::any::<u64>(),
            sample in proptest::prelude::any::<u64>(),
            runs in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..8),
        ) {
            let a = render(seed, sample, &runs);
            let b = render(seed, sample, &runs);
            prop_assert_eq!(first_divergence(&a, &b), None);
        }

        #[test]
        fn thread_rng_style_perturbation_is_rejected(
            seed in proptest::prelude::any::<u64>(),
            sample in 0u64..u64::MAX,
            delta in 1u64..1000,
            runs in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..8),
        ) {
            // An ambient-RNG draw changes the sampled value but leaves
            // the surrounding report structure alone.
            let perturbed = sample.wrapping_add(delta);
            prop_assume!(perturbed != sample);
            let a = render(seed, sample, &runs);
            let b = render(seed, perturbed, &runs);
            let at = first_divergence(&a, &b);
            prop_assert!(at.is_some(), "perturbed replay accepted");
            // The prefix before the sample is identical, so the diff
            // must land inside or after the sample field.
            let prefix = format!("{{\"seed\":{seed},\"sample\":");
            prop_assert!(at.expect("checked above") >= prefix.len());
        }
    }
}
