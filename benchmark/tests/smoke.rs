//! Drives the built binary the way users and the contract do:
//! `run --smoke` (every workload, every check, every metric name),
//! the single-workload result lines, and `compare` on real reports.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use lagover_jsonio::{parse, Json};

const EXE: &str = env!("CARGO_BIN_EXE_lagover-benchmark");
const END_TO_END: [&str; 7] = [
    "wall_s",
    "work_per_s",
    "best_work_per_s",
    "setup_s",
    "peak_rss_mb",
    "sim_time",
    "fail_frac",
];

/// A fresh working directory for one test (trace files land in it).
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test's working directory");
    dir
}

fn benchmark(dir: &Path, args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run the benchmark binary")
}

fn result_line(output: &Output) -> Json {
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("array")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics").expect("metrics") {
        Json::Object(fields) => fields.iter().map(|(name, _)| name.clone()).collect(),
        other => panic!("metrics is {other:?}"),
    }
}

fn assert_clean(result: &Json) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Ok(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Ok(0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
}

#[test]
fn smoke_run_prints_every_metric_for_every_workload_within_ten_seconds() {
    let dir = workdir("smoke-all");
    let start = Instant::now();
    let output = benchmark(&dir, &["run", "--smoke", "--out", "a.json"]);
    let elapsed = start.elapsed();
    let result = result_line(&output);
    assert!(elapsed < Duration::from_secs(10), "smoke took {elapsed:?}");
    assert_clean(&result);

    let contract = contract();
    let per_layer = names(&contract, "per_layer");
    let mut expected = Vec::new();
    for workload in names(&contract, "workloads") {
        for metric in END_TO_END {
            expected.push(format!("{workload}.{metric}"));
        }
    }
    for workload in names(&contract, "workloads") {
        for metric in &per_layer {
            expected.push(format!("{workload}.{metric}"));
        }
    }
    assert_eq!(metric_names(&result), expected);

    // Every number is finite, and each workload's own layers are live.
    let value = |name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect(name)
    };
    for name in &expected {
        assert!(value(name).is_finite(), "{name}");
    }
    for live in [
        "construct_burst.core.engine.step_burst_s",
        "construct_burst.core.overlay.restamp_ns_per_peer",
        "construct_tail.sim.rng.ns_per_draw",
        "construct_tail.obs.journal_events",
        "recover_crash.core.engine.failure_detections",
        "recover_crash.jsonio.snapshot_roundtrip_s",
        "stream_forest.stream.scheduler.drops",
        "node_mesh.node.replica.actions",
        "node_mesh.core.runner.unpinned_wall_ratio",
    ] {
        assert!(value(live) > 0.0, "{live}");
    }
    for workload in names(&contract, "workloads") {
        assert_eq!(value(&format!("{workload}.fail_frac")), 0.0);
        assert!(dir
            .join(format!("target/benchmark/trace/{workload}.trace.jsonl"))
            .is_file());
        assert!(dir
            .join(format!("target/benchmark/trace/{workload}.folded"))
            .is_file());
    }

    // A report is never worse than itself (a one-pass smoke run is
    // too noisy for every row to resolve), and `compare` refuses a
    // report of another seed.
    let same = benchmark(&dir, &["compare", "a.json", "a.json"]);
    assert!(same.status.success());
    let table = String::from_utf8_lossy(&same.stdout);
    let verdicts = |v: &str| table.matches(&format!("  {v} (bound")).count();
    assert_eq!(verdicts("worse"), 0, "{table}");
    assert_eq!(
        verdicts("ok") + verdicts("unresolved"),
        5 * END_TO_END.len(),
        "{table}"
    );
    assert!(verdicts("ok") >= 5 * 3, "{table}");
    let other = benchmark(
        &dir,
        &[
            "run", "--smoke", "--seed", "7", "--trace", "0", "--out", "b.json",
        ],
    );
    assert_clean(&result_line(&other));
    let refused = benchmark(&dir, &["compare", "a.json", "b.json"]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("differ in seed"));
}

#[test]
fn single_workload_result_lines_carry_exactly_the_contract_s_metrics() {
    let dir = workdir("smoke-single");
    let contract = contract();
    let common = [
        "run",
        "--inputs",
        "8",
        "--smoke",
        "--workload",
        "recover_crash",
        "--seed",
        "3",
        "--seconds",
        "0",
    ];
    let end_to_end = result_line(&benchmark(&dir, &[&common[..], &["--trace", "0"]].concat()));
    assert_clean(&end_to_end);
    assert_eq!(metric_names(&end_to_end), names(&contract, "end_to_end"));

    let per_layer = result_line(&benchmark(&dir, &[&common[..], &["--trace", "1"]].concat()));
    assert_clean(&per_layer);
    assert_eq!(metric_names(&per_layer), names(&contract, "per_layer"));
}

#[test]
fn bad_arguments_exit_with_a_message_and_no_result() {
    let dir = workdir("smoke-args");
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--inputs", "0"],
        &["run", "--frobnicate", "1"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let output = benchmark(&dir, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        assert!(!output.stderr.is_empty(), "{args:?}");
    }
}
