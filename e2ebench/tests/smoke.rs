//! A tiny-size run of every workload prints every metric `BENCHMARK.json`
//! names for its mode, with the declared unit, and a well-formed result
//! line.

use mcgp_runtime::Json;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_every_named_metric() {
    let doc = benchmark_json();
    for w in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let workload = w.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::as_i64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
            let metrics = result.get("metrics").expect("metrics");
            let expected = names(&doc, key);
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace} lacks {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload} {name} = {v:?}");
            }
            let Json::Obj(pairs) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(
                pairs.len(),
                expected.len(),
                "{workload} trace {trace}: extra metrics"
            );
        }
    }
}
