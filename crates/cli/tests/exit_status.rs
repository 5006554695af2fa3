//! The `lagover` binary's exit statuses: 2 when the arguments cannot be
//! served, whether they fail to parse or ask for a horizon no run can
//! hold.

use std::process::Command;

/// Runs the built `lagover` binary; returns its exit status and stderr.
fn lagover(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lagover"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_horizon_past_the_round_clock_exits_2() {
    let max = u64::MAX.to_string();
    for verb in ["stream", "disseminate"] {
        let (code, stderr) = lagover(&[
            verb,
            "--workload",
            "rand",
            "--peers",
            "30",
            "--rounds",
            &max,
        ]);
        assert_eq!(code, Some(2), "{verb}: {stderr}");
        assert!(stderr.starts_with("error: cannot "), "{verb}: {stderr}");
        assert!(!stderr.contains("panicked"), "{verb}: {stderr}");
    }
}

#[test]
fn a_zero_pull_interval_is_a_usage_error() {
    let (code, stderr) = lagover(&[
        "disseminate",
        "--workload",
        "rand",
        "--peers",
        "100",
        "--pull-interval",
        "0",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--pull-interval must be at least 1"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
