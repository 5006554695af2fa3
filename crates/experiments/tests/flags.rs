//! Flag surface of the `lagover-experiments` binary: a bad command
//! line is a usage error (exit 2), never a panic, and `--quick` is the
//! base the sizing flags apply to wherever it stands.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lagover-experiments"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn bad_command_lines_are_usage_errors() {
    for args in [
        &["run", "nope"][..],
        &["run", "fig2", "--wall", "3"],
        &["run", "fig2", "--peers"],
        &["run", "fig2", "--json"],
        &["run", "fig2", "--peers", "0"],
        &["run", "fig3", "--runs", "0"],
        &["run", "scaling", "--runs", "0"],
        &["run", "fig2", "--quick", "--peers", "0"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: lagover-experiments"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn quick_is_the_base_wherever_it_stands() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("flags");
    let mut documents = Vec::new();
    for (i, args) in [["--peers", "50", "--quick"], ["--quick", "--peers", "50"]]
        .iter()
        .enumerate()
    {
        let dir = tmp.join(i.to_string());
        let out = run(&[
            &["run", "fig4"][..],
            args,
            &["--json", dir.to_str().unwrap()],
        ]
        .concat());
        assert!(out.status.success(), "{args:?}: {out:?}");
        documents.push(std::fs::read(dir.join("fig4.json")).expect("fig4.json written"));
    }
    assert_eq!(documents[0], documents[1]);
    let json = String::from_utf8_lossy(&documents[0]);
    assert!(json.contains("\"peers\": 50"), "{json}");
    assert!(json.contains("\"runs\": 3"), "quick base kept: {json}");
}
