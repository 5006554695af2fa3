//! Flag surface of the `lagover-perf` binary.

use std::process::Command;

#[test]
fn removed_and_unknown_flags_are_usage_errors() {
    for args in [
        &["--wall", "3"][..],
        &["--scenario", "construction_1e6"],
        &["--peers"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lagover-perf"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: lagover-perf"), "{args:?}: {stderr}");
    }
}
