//! The committed speed record must match the benchmark contract.
//!
//! `BENCHMARK.json` names the workloads and metrics; the newest
//! `results/BENCH_<n>.json` is the latest point of the trajectory (see
//! EXPERIMENTS.md for how it is assembled). A record that drops a
//! workload or a metric, or that was taken from a run with failed checks,
//! fails here rather than in front of whoever reads the numbers next.
//! Needs no benchmark build: both files are parsed as committed.

use std::path::Path;

use exageostat_rs::runtime::{parse_json, JsonValue};

fn load(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(contract: &JsonValue, list: &str) -> Vec<String> {
    contract
        .get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` array"))
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(JsonValue::as_str);
            name.expect("contract entry without a name").to_string()
        })
        .collect()
}

#[test]
fn newest_record_covers_the_benchmark_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = load(&root.join("BENCHMARK.json"));

    let (pr, newest) = std::fs::read_dir(root.join("results"))
        .unwrap()
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            let stem = path.file_name()?.to_str()?.strip_prefix("BENCH_")?;
            let pr: u64 = stem.strip_suffix(".json")?.parse().ok()?;
            Some((pr, path))
        })
        .max()
        .expect("no results/BENCH_<n>.json is committed");
    let record = load(&newest);
    assert_eq!(record.get("pr").and_then(JsonValue::as_u64), Some(pr));

    for workload in names(&contract, "workloads") {
        let point = record
            .get("workloads")
            .and_then(|w| w.get(&workload))
            .unwrap_or_else(|| panic!("BENCH_{pr}.json lacks workload `{workload}`"));
        assert!(point.get("env").is_some(), "{workload}: no env");
        // `result` is the untraced run's result line, `layers` the traced run's.
        for (section, list) in [("result", "end_to_end"), ("layers", "per_layer")] {
            let run = point
                .get(section)
                .unwrap_or_else(|| panic!("{workload}: no `{section}`"));
            assert_eq!(
                run.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{workload}.{section}: recorded from a run with failed checks"
            );
            for metric in names(&contract, list) {
                let value = run
                    .get("metrics")
                    .and_then(|m| m.get(&metric))
                    .and_then(|m| m.get("value"))
                    .and_then(JsonValue::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}.{section}: metric `{metric}` missing or not finite"
                );
            }
        }
    }
}
