//! Smoke self-test of the benchmark: every workload at its minimal size
//! emits every metric `BENCHMARK.json` names, with its unit, and passes its
//! output checks; a deliberately broken check shows up as a failure.

use serde::Value;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json reads");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Seq(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            other => panic!("malformed metric {other:?}"),
        })
        .collect()
}

/// Runs the benchmark at smoke size and parses its last line.
fn run(workload: &str, trace: &str, extra: &[&str]) -> Value {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--size", "smoke"])
        .args(extra)
        .output()
        .expect("benchmark starts");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("benchmark prints a result");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        Some(Value::I64(x)) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn assert_emits(result: &Value, metrics: &[(String, String)], workload: &str) {
    assert!(
        matches!(result.get("correct"), Some(Value::Bool(true))),
        "{workload}: {result:?}"
    );
    assert_eq!(number(result.get("failed")), 0.0, "{workload}");
    assert!(number(result.get("attempted")) >= 1.0, "{workload}");
    let Some(Value::Map(got)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    assert_eq!(got.len(), metrics.len(), "{workload}: metric count");
    for (name, unit) in metrics {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit"),
            Some(&Value::Str(unit.clone())),
            "{workload}: {name}"
        );
        assert!(number(m.get("value")).is_finite(), "{workload}: {name}");
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in ["paper-sweep", "serve-contended", "replay-store-watch"] {
        let plain = run(workload, "0", &[]);
        assert_emits(&plain, &end_to_end, workload);
        for (name, _) in &end_to_end {
            let v = number(
                plain
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value")),
            );
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
        assert_emits(&run(workload, "1", &[]), &per_layer, workload);
    }
}

#[test]
fn a_broken_check_counts_as_a_failed_operation() {
    let result = run("paper-sweep", "0", &["--break-golden"]);
    assert!(number(result.get("failed")) > 0.0, "{result:?}");
    assert!(matches!(result.get("correct"), Some(Value::Bool(false))));
}
