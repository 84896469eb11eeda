//! Runs the built benchmark at smoke scale and holds what it prints to
//! what `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use mssp_benchmark::json::{parse, Json};
use mssp_benchmark::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

const EXE: &str = env!("CARGO_BIN_EXE_mssp-benchmark");

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// The names `BENCHMARK.json` lists under `key`, in order.
fn declared_in_benchmark_json(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn names(list: &[Metric]) -> Vec<String> {
    list.iter().map(|m| m.name.to_string()).collect()
}

/// Runs one workload as the driver does and returns the parsed last line.
fn driver_run(workload: &str, trace: &str) -> Json {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", trace, "--smoke", "--out-dir"])
        .arg(out_dir("driver"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    parse(stdout.lines().last().unwrap()).unwrap()
}

#[test]
fn result_line_has_exactly_the_declared_keys_and_metrics() {
    assert_eq!(declared_in_benchmark_json("end_to_end"), names(END_TO_END));
    assert_eq!(declared_in_benchmark_json("per_layer"), names(PER_LAYER));
    for (trace, declared) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let line = driver_run("phase_flip_frozen", trace);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(emitted, names(declared), "--trace {trace}");
        for (metric, (_, value)) in declared.iter().zip(metrics) {
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(metric.unit));
            let v = value.get("value").and_then(Json::as_f64).unwrap();
            assert!(v.is_finite() && v >= 0.0, "{}: {v}", metric.name);
            if metric.bound.is_some() {
                assert!(v > 0.0, "end-to-end metric {} must never be 0", metric.name);
            }
        }
    }
}

#[test]
fn smoke_run_emits_every_declared_metric_for_every_workload() {
    let dir = out_dir("smoke");
    let started = Instant::now();
    let out = Command::new(EXE)
        .args(["--smoke", "--out-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The budget is for the optimised build the benchmark is run with.
    if !cfg!(debug_assertions) {
        assert!(elapsed < 15.0, "smoke run took {elapsed:.1} s");
    }

    let doc = parse(&std::fs::read_to_string(dir.join("results.json")).unwrap()).unwrap();
    for key in [
        "nproc",
        "available_parallelism",
        "loadavg_start",
        "loadavg_end",
        "rustc",
    ] {
        assert!(
            doc.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key}"
        );
    }
    let sets = doc.get("sets").and_then(Json::as_arr).unwrap();
    assert_eq!(sets.len(), 1);
    let records = sets[0].as_arr().unwrap();
    let workloads: Vec<&str> = records
        .iter()
        .map(|r| r.get("workload").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for record in records {
        assert_eq!(record.get("error_rate").and_then(Json::as_f64), Some(0.0));
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let emitted: BTreeSet<&str> = record
                .get(key)
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let wanted: BTreeSet<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(emitted, wanted, "{key}");
        }
        let trace = dir.join(format!(
            "trace-{}.json",
            record.get("workload").and_then(Json::as_str).unwrap()
        ));
        let events = parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        assert!(!events
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "vortex_like"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let out = Command::new(EXE).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
