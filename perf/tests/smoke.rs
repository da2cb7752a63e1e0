//! Every workload for half a second, untraced and traced: the result line
//! carries exactly the metrics `BENCHMARK.json` names, with their units,
//! and the traced run writes its trace file.

use std::path::{Path, PathBuf};
use std::process::Command;

use ssr_ctl::Json;

const EXE: &str = env!("CARGO_BIN_EXE_ssr-perf");

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn entries<'a>(spec: &'a Json, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|e| {
            (
                e.get("name").and_then(Json::as_str).expect("named"),
                e.get("unit").and_then(Json::as_str),
            )
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssr-perf-smoke-{tag}-{}", std::process::id()))
}

/// Run the benchmark and return its stdout, asserting a clean exit.
fn run(args: &[&str]) -> String {
    let output = Command::new(EXE).args(args).output().expect("spawn ssr-perf");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "ssr-perf {args:?} exited {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn every_workload_reports_every_benchmark_metric() {
    let spec = spec();
    let dir = out_dir("all");
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    for (workload, _) in entries(&spec, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.5",
                "--trace",
                trace,
                "--out",
                dir_arg,
            ];
            let stdout = run(&args);
            let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{stdout}");
            assert!(result.get("attempted").and_then(Json::as_u64).is_some_and(|n| n >= 1));
            assert!(result.get("failed").and_then(Json::as_u64).is_some());
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {stdout}");
            };
            let expected = entries(&spec, list);
            assert_eq!(metrics.len(), expected.len(), "{workload} trace={trace}: {stdout}");
            for (name, unit) in expected {
                let metric = result.get("metrics").and_then(|m| m.get(name));
                let metric = metric.unwrap_or_else(|| panic!("{workload}: no {name} in {stdout}"));
                let value = metric.get("value").and_then(Json::as_f64).expect("numeric value");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert_eq!(metric.get("unit").and_then(Json::as_str), unit, "{workload} {name}");
            }
        }
        let trace = dir.join(format!("trace-{workload}.json"));
        let spans = Json::parse(&std::fs::read_to_string(&trace).expect("trace file written"))
            .expect("trace is JSON");
        assert!(!spans.as_arr().expect("array of spans").is_empty(), "{workload}: empty trace");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn run_reports_tracing_overhead() {
    let dir = out_dir("run");
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let args = ["run", "--workloads", "des-long", "--seconds", "0.5", "--trace", "--out", dir_arg];
    let stdout = run(&args);
    assert!(stdout.contains("tracing overhead des-long"), "{stdout}");
    assert!(stdout.ends_with("all workloads correct\n"), "{stdout}");
    assert!(dir.join("trace-des-long.json").exists());
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "des-long", "--trace", "2"],
        &["--workload", "des-long", "--seconds", "0"],
        &["--workload", "des-long", "--bogus", "1"],
    ] {
        let output = Command::new(EXE).args(args).output().expect("spawn ssr-perf");
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
