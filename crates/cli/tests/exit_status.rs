//! The `lagover` binary's exit statuses: 2 when the arguments cannot be
//! served, whether they fail to parse or ask for a horizon no run can
//! hold; 1 when a run was tried and failed, its report still on stdout;
//! 0 when a run succeeds, even if the reader stops reading its report.

use std::process::{Command, Stdio};

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

#[test]
fn an_unknown_workload_is_a_usage_error() {
    let (code, stderr) = lagover(&["construct", "--workload", "foo", "--peers", "30"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr, "unknown workload 'foo'\n");
}

#[test]
fn a_run_that_does_not_converge_exits_1_after_its_report() {
    for verb in ["construct", "obs", "recover", "evolve"] {
        let run = |extra: &[&str]| {
            Command::new(env!("CARGO_BIN_EXE_lagover"))
                .args([verb, "--workload", "rand", "--peers", "30", "--seed", "5"])
                .args(extra)
                .output()
                .expect("binary runs")
        };
        let cut = run(&["--max-rounds", "1"]);
        let stderr = String::from_utf8_lossy(&cut.stderr);
        assert_eq!(cut.status.code(), Some(1), "{verb}: {stderr}");
        assert_eq!(
            stderr, "error: construction did not converge within 1 rounds\n",
            "{verb}"
        );
        assert!(!cut.stdout.is_empty(), "{verb} reports where it stopped");
        let done = run(&[]);
        assert_eq!(done.status.code(), Some(0), "{verb} converges");
        assert!(done.stderr.is_empty(), "{verb}");
    }
}

/// Runs `lagover` on a whitespace-separated argument line.
fn run(line: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lagover"))
        .args(line.split_whitespace())
        .output()
        .expect("binary runs")
}

#[test]
fn a_crashed_overlay_that_does_not_recover_exits_1_after_its_report() {
    let recover = "recover --workload rand --peers 200 --crash-fraction 0.3";
    let cut = run(&format!("{recover} --seed 3 --rounds 1"));
    let stdout = String::from_utf8_lossy(&cut.stdout);
    let stderr = String::from_utf8_lossy(&cut.stderr);
    assert_eq!(cut.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: the crashed overlay did not recover within 1 rounds\n"
    );
    assert!(
        stdout.contains("NOT recovered within the 1-round horizon"),
        "{stdout}"
    );
    let healed = run(&format!("{recover} --seed 5 --rounds 300"));
    assert_eq!(healed.status.code(), Some(0), "recovered in 300 rounds");
    assert!(healed.stderr.is_empty());
}

#[test]
fn a_node_run_cut_at_its_round_cap_exits_1_after_its_report() {
    let dir = std::env::temp_dir().join(format!("lagover-exit-status-{}", std::process::id()));
    let udp = format!(
        "--transport udp --base-port 48540 --tick-ms 1 --out-dir {}",
        dir.display()
    );
    for (kind, goal) in [("construction", "converging"), ("recovery", "healing")] {
        for transport in ["--transport mesh", &udp] {
            let node = format!(
                "node --workload rand --peers 6 --seed 7 --scenario-kind {kind} {transport}"
            );
            let cut = run(&format!("{node} --max-time 1"));
            let stderr = String::from_utf8_lossy(&cut.stderr);
            assert_eq!(cut.status.code(), Some(1), "{node}: {stderr}");
            let error = format!("error: the run stopped at its 1-round cap without {goal}\n");
            assert!(stderr.ends_with(&error), "{node}: {stderr}");
            let stdout = String::from_utf8_lossy(&cut.stdout);
            assert!(stdout.contains("halted: round cap"), "{node}: {stdout}");
            assert_eq!(run(&node).status.code(), Some(0), "{node} finishes");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reader_that_stops_reading_ends_the_report_quietly() {
    // Far more than a pipe holds, so a write meets the closed pipe
    // however the reader's exit and the writer's output interleave.
    for verb in ["spec", "construct"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lagover"))
            .args([verb, "--workload", "rand", "--peers", "5000", "--seed", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{verb}: {stderr}");
        assert!(stderr.is_empty(), "{verb}: {stderr}");
    }
}
