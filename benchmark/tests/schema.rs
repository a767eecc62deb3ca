//! Schema self-test: every workload at its `--quick` size, untraced and
//! traced, must emit exactly the metrics `BENCHMARK.json` declares — each
//! once, finite, with the declared unit — and nothing else. Nothing is
//! measured here; the sizes are toys.

use rasc_benchmark::json::{self, Value};
use rasc_benchmark::workloads::WORKLOADS;
use rasc_benchmark::{run, Options};
use std::collections::BTreeMap;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one section of the contract.
fn declared(contract: &Value, section: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for decl in contract.get(section).expect("section").elements() {
        let name = decl.get("name").and_then(Value::as_str).expect("name");
        let unit = decl.get("unit").and_then(Value::as_str).expect("unit");
        let better = decl.get("better").and_then(Value::as_str).expect("better");
        assert!(
            matches!(better, "higher" | "lower"),
            "{name}: better = {better}"
        );
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} of {name}"
        );
        assert!(
            out.insert(name.to_string(), unit.to_string()).is_none(),
            "{name} declared twice"
        );
    }
    out
}

#[test]
fn contract_names_the_workload_table() {
    let contract = contract();
    let names: Vec<&str> = contract
        .get("workloads")
        .expect("workloads")
        .elements()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS.map(|s| s.name));
    for w in contract.get("workloads").unwrap().elements() {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    // setup_s is mandatory, bounds are capped at a quarter.
    let e2e = contract.get("end_to_end").unwrap().elements();
    assert!(e2e.iter().any(|m| {
        m.get("name").and_then(Value::as_str) == Some("setup_s")
            && m.get("unit").and_then(Value::as_str) == Some("s")
            && m.get("better").and_then(Value::as_str) == Some("lower")
    }));
    for m in e2e {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

#[test]
fn every_declared_metric_is_emitted_exactly_once() {
    let contract = contract();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = declared(&contract, section);
        for spec in WORKLOADS {
            let outcome = run(&Options {
                spec: spec.quick(),
                seed: 1,
                seconds: 0.0,
                trace,
                out_dir: None,
            });
            assert!(
                outcome.correct,
                "{} trace={trace}: {:#?}",
                spec.name, outcome.checks
            );
            assert!(outcome.attempted >= 1);
            assert_eq!(outcome.failed, 0);
            let mut emitted = BTreeMap::new();
            for m in &outcome.metrics.0 {
                assert!(m.value.is_finite(), "{}: {} not finite", spec.name, m.name);
                assert!(
                    emitted
                        .insert(m.name.to_string(), m.unit.to_string())
                        .is_none(),
                    "{}: {} emitted twice",
                    spec.name,
                    m.name
                );
            }
            assert_eq!(
                emitted, declared,
                "{} trace={trace}: emitted (left) vs BENCHMARK.json {section} (right)",
                spec.name
            );
            // The result line is what the contract says it is.
            let line = json::parse(&outcome.to_json()).expect("result line parses");
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("metrics").unwrap().members().len(), declared.len());
        }
    }
}
