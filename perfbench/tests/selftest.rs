//! Runs every workload named in `BENCHMARK.json` at toy size, traced and
//! untraced, and checks that each catalogued metric is printed, by name
//! and with its unit, both in the human-readable lines and in the final
//! JSON line — so that a metric cannot be dropped silently.

use chameleon_obs::json::Json;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn metrics(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a {key} entry lacks {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--toy"])
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let printed = result.get("metrics").expect("metrics object");
            let expected = metrics(&doc, key);
            for (name, unit) in &expected {
                let m = printed
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} omits {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
                assert!(
                    stdout.lines().any(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(name.as_str()) && words.last() == Some(unit.as_str())
                    }),
                    "{workload} --trace {trace} prints no `{name} <value> {unit}` line"
                );
            }
            let Json::Obj(fields) = printed else {
                panic!("metrics is not an object")
            };
            assert_eq!(
                fields.len(),
                expected.len(),
                "{workload} --trace {trace} prints metrics BENCHMARK.json does not name"
            );
        }
    }
}
