//! The benchmark's own contract: the metric names it prints are the ones
//! `BENCHMARK.json` declares, every op checks out, and the deterministic
//! metrics repeat exactly for a fixed seed.

use service::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["serve", "session"];

/// Metrics that are a function of the seed alone, by run mode.
const DETERMINISTIC_E2E: [&str; 1] = ["gap_to_lb_pct"];
const DETERMINISTIC_LAYERS: [&str; 3] = [
    "engine.builds_per_op",
    "session.rounds_per_op",
    "journal.bytes_per_op",
];

/// Run one workload and return its result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    // Long enough for the session workload to reach the fixed op counts
    // its deterministic metrics are taken over, on a slow host too.
    let seconds = if workload == "session" { "4" } else { "1" };
    let work_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("contract-{workload}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            seconds,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--work-dir")
        .arg(&work_dir)
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: run not correct: {stdout}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    result
}

/// `name → unit` of the printed metrics.
fn printed(result: &Json) -> BTreeMap<String, String> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no numeric value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.to_owned(), unit.to_owned())
        })
        .collect()
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {name} in {result}"))
}

#[test]
fn printed_metrics_match_benchmark_json_and_deterministic_ones_repeat() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, names, deterministic) in [
            (false, &end_to_end, &DETERMINISTIC_E2E[..]),
            (true, &per_layer, &DETERMINISTIC_LAYERS[..]),
        ] {
            let first = run(workload, 7, trace);
            let second = run(workload, 7, trace);
            assert_eq!(&printed(&first), names, "{workload} trace={trace}");
            for name in deterministic {
                assert_eq!(
                    value(&first, name),
                    value(&second, name),
                    "{workload}: {name} differs between two runs of seed 7"
                );
            }
        }
    }
}

#[test]
fn layer_counts_match_each_workloads_path() {
    for workload in WORKLOADS {
        let result = run(workload, 11, true);
        assert_eq!(value(&result, "engine.builds_per_op"), 0.0, "{workload}");
        if workload == "session" {
            assert_eq!(value(&result, "session.rounds_per_op"), 1.0);
            assert!(
                value(&result, "journal.bytes_per_op") > 0.0,
                "the journal grows per op"
            );
        }
    }
}
