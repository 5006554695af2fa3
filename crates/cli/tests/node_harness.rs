//! End-to-end exercise of `lagover node --transport udp`: the real
//! binary spawns one OS process per node on loopback, collects the
//! per-node reports, and the merged run must match the in-process mesh
//! (and therefore the simulator twin) exactly.

use std::process::Command;

/// Runs the built `lagover` binary with the given arguments.
fn lagover(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lagover"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn udp_harness_converges_and_matches_the_mesh() {
    let dir = std::env::temp_dir().join(format!("lagover-cli-harness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.to_string_lossy().into_owned();

    let (ok, udp, stderr) = lagover(&[
        "node",
        "--transport",
        "udp",
        "--workload",
        "rand",
        "--peers",
        "8",
        "--seed",
        "11",
        "--base-port",
        "48460",
        "--tick-ms",
        "1",
        "--deadline-ms",
        "60000",
        "--max-time",
        "2000",
        "--out-dir",
        &out_dir,
        "--json",
    ]);
    assert!(ok, "harness failed:\n{stderr}");

    let (ok, mesh, stderr) = lagover(&[
        "node",
        "--workload",
        "rand",
        "--peers",
        "8",
        "--seed",
        "11",
        "--max-time",
        "2000",
        "--json",
    ]);
    assert!(ok, "mesh failed:\n{stderr}");

    // The two documents differ only in their label ("udp" vs "mesh");
    // normalize it and demand byte equality — journal included.
    let normalize = |s: &str| s.replace("nodesim udp construction", "nodesim mesh construction");
    assert_eq!(
        normalize(&udp),
        mesh,
        "udp harness and mesh must produce the same merged report"
    );

    // The per-node reports were collected where we asked.
    for me in 0..8 {
        assert!(
            dir.join(format!("node_{me}.json")).exists(),
            "missing node_{me}.json"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `lagover node` reports rounds, as `lagover construct` does: the same
/// run converges in the same round under both verbs, and the turns every
/// replica applied — one per online peer per round — are reported as
/// turns.
#[test]
fn node_and_construct_agree_on_the_convergence_round() {
    let run = ["--workload", "rand", "--peers", "32", "--seed", "7"];
    let (ok, construct, stderr) = lagover(&[&["construct"][..], &run].concat());
    assert!(ok, "construct failed:\n{stderr}");
    let rounds: u64 = construct
        .strip_prefix("converged in ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no convergence round in:\n{construct}"));

    let (ok, node, stderr) =
        lagover(&[&["node"][..], &run, &["--max-time", "4000", "--json"]].concat());
    assert!(ok, "node failed:\n{stderr}");
    let report: lagover_obs::ObsReport = lagover_jsonio::from_str(&node).expect("an obs report");
    assert_eq!(report.converged, 1);
    assert_eq!(report.rounds, rounds);
    assert_eq!(report.converged_rounds, rounds);
    assert_eq!(report.turns, Some(32 * rounds));
}
