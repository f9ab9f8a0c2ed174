//! Benchmark self-test at smoke length: every workload, timed and traced,
//! emits exactly the metrics `BENCHMARK.json` names, each with its unit,
//! and fails no operation; every name in the file is well formed.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

use fe_sim::json::{parse, Json};

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.req(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|entry| {
            let field = |f: &str| {
                entry
                    .req(f)
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke-length workload and parses its result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn well_formed(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let bench = benchmark();
    for (workload, _) in names(&bench, "workloads") {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(&workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.req("failed").and_then(Json::as_u64),
                Ok(0),
                "{workload}"
            );
            assert!(result.req("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let expected = names(&bench, key);
            assert_eq!(metrics.len(), expected.len(), "{workload} trace={trace}");
            for (name, unit) in expected {
                let metric = result.req("metrics").and_then(|m| m.req(&name));
                let metric = metric.unwrap_or_else(|_| panic!("{workload}: {name} missing"));
                assert_eq!(metric.req("unit").and_then(Json::as_str), Ok(unit.as_str()));
                let value = metric.req("value").and_then(Json::as_f64);
                assert!(
                    value.as_ref().is_ok_and(|v| v.is_finite()),
                    "{workload}: {name} = {value:?}"
                );
            }
        }
    }
}

#[test]
fn every_name_is_well_formed() {
    let bench = benchmark();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for (name, _) in names(&bench, key) {
            assert!(well_formed(&name), "{key}: `{name}`");
        }
    }
}
