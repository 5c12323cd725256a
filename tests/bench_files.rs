//! Every committed benchmark result — the `BENCH_*.json` trajectory points
//! at the repository root, plus the two files under `bench/baseline/` as
//! known-good inputs — must follow the contract in `BENCHMARK.json`, so a
//! malformed trajectory point fails tier-1 instead of a later comparison.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::Value;

/// What `BENCHMARK.json` fixes about a result file.
struct Contract {
    workloads: Vec<String>,
    /// Metrics every workload must report.
    end_to_end: Vec<String>,
    /// Unit by metric name, `end_to_end` ∪ `per_layer`.
    units: BTreeMap<String, String>,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .as_object()
        .and_then(|fields| Value::get_field(fields, key))
        .ok_or_else(|| format!("no `{key}` field"))
}

fn text<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    match field(value, key)? {
        Value::String(s) => Ok(s),
        other => Err(format!("`{key}` is not a string: {other:?}")),
    }
}

fn entries<'a>(manifest: &'a Value, list: &str) -> &'a [Value] {
    field(manifest, list)
        .ok()
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
}

fn contract() -> Contract {
    let manifest = read_json(&repo_root().join("BENCHMARK.json"));
    let name = |entry: &Value| text(entry, "name").expect("named entry").to_owned();
    let unit = |entry: &Value| text(entry, "unit").expect("metric with a unit").to_owned();
    let end_to_end = entries(&manifest, "end_to_end");
    Contract {
        workloads: entries(&manifest, "workloads").iter().map(name).collect(),
        end_to_end: end_to_end.iter().map(name).collect(),
        units: end_to_end
            .iter()
            .chain(entries(&manifest, "per_layer"))
            .map(|entry| (name(entry), unit(entry)))
            .collect(),
    }
}

/// The first way one workload's row breaks `contract`, if any.
fn check_row(contract: &Contract, row: &Value) -> Result<(), String> {
    if field(row, "failed")?.as_u64() != Some(0) {
        return Err("has failed operations".into());
    }
    let metrics = field(row, "metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?;
    for (metric, cell) in metrics {
        let unit = contract
            .units
            .get(metric)
            .ok_or(format!("`{metric}` is not a metric of BENCHMARK.json"))?;
        let got = text(cell, "unit").map_err(|e| format!("`{metric}`: {e}"))?;
        if got != unit {
            return Err(format!("`{metric}` is in `{got}`, contract says `{unit}`"));
        }
        if field(cell, "value").ok().and_then(Value::as_f64).is_none() {
            return Err(format!("`{metric}` has no numeric value"));
        }
    }
    match contract
        .end_to_end
        .iter()
        .find(|m| Value::get_field(metrics, m).is_none())
    {
        Some(missing) => Err(format!("end-to-end metric `{missing}` missing")),
        None => Ok(()),
    }
}

/// The first way `result` breaks `contract`, if any.
fn check(contract: &Contract, result: &Value) -> Result<(), String> {
    let schema = text(result, "schema")?;
    if schema != "qsbench-1" {
        return Err(format!("schema is `{schema}`, not `qsbench-1`"));
    }
    let workloads = field(result, "workloads")?
        .as_object()
        .ok_or("`workloads` is not an object")?;
    if workloads.is_empty() {
        return Err("no workload reported".into());
    }
    for (workload, row) in workloads {
        if !contract.workloads.contains(workload) {
            return Err(format!("`{workload}` is not a workload of BENCHMARK.json"));
        }
        check_row(contract, row).map_err(|why| format!("{workload}: {why}"))?;
    }
    Ok(())
}

fn result_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![
        root.join("bench/baseline/result.json"),
        root.join("bench/baseline/result-trace.json"),
    ];
    for entry in std::fs::read_dir(&root).expect("read repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            files.push(path);
        }
    }
    files.sort();
    files
}

#[test]
fn committed_results_follow_the_benchmark_contract() {
    let contract = contract();
    assert_eq!(contract.end_to_end.len(), 6);
    for path in result_files() {
        if let Err(why) = check(&contract, &read_json(&path)) {
            panic!("{}: {why}", path.display());
        }
    }
}

fn fields_mut(value: &mut Value) -> &mut Vec<(String, Value)> {
    match value {
        Value::Object(fields) => fields,
        other => panic!("not an object: {other:?}"),
    }
}

fn child_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let slot = fields_mut(value).iter_mut().find(|(k, _)| k == key);
    &mut slot.unwrap_or_else(|| panic!("no `{key}` field")).1
}

/// The first metric of the first workload, as `(name, cell)`.
fn first_metric_mut(result: &mut Value) -> &mut (String, Value) {
    let workload = &mut fields_mut(child_mut(result, "workloads"))[0].1;
    &mut fields_mut(child_mut(workload, "metrics"))[0]
}

#[test]
fn a_renamed_metric_or_a_wrong_unit_is_rejected() {
    let contract = contract();
    let good = read_json(&repo_root().join("bench/baseline/result.json"));

    let mut renamed = good.clone();
    first_metric_mut(&mut renamed).0.push_str("_renamed");
    let why = check(&contract, &renamed).expect_err("renamed metric");
    assert!(why.contains("_renamed` is not a metric"), "{why}");

    let mut wrong_unit = good;
    let cell = &mut first_metric_mut(&mut wrong_unit).1;
    *child_mut(cell, "unit") = Value::String("furlongs".into());
    let why = check(&contract, &wrong_unit).expect_err("wrong unit");
    assert!(why.contains("is in `furlongs`"), "{why}");
}
