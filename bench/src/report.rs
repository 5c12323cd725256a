//! Result files and their comparison.
//!
//! A workload process prints one JSON line; `qsbench run` gathers the
//! lines of all workloads into `result.json` together with where and on
//! what the run happened; `qsbench agree` compares two such files metric
//! by metric against the bounds.

use std::path::Path;
use std::process::Command;

use serde::Value;

use crate::json::{field, object, text, text_of};
use crate::metrics::{self, Better, Bound, Scope};
use crate::run::Outcome;

/// Which rows a workload process prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// The driver's untraced run: every end-to-end metric, nothing else.
    EndToEnd,
    /// The driver's traced run: every other metric in the table, 0 where
    /// the workload has no such layer.
    PerLayer,
    /// Everything the run computed, with spreads (`qsbench run`).
    Full,
}

/// The line a workload process prints last. For the driver it has exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn outcome_line(outcome: &Outcome, select: Select) -> Result<String, String> {
    let value_of = |name: &str| outcome.rows.iter().find(|r| r.name == name);
    let mut metrics_out: Vec<(String, Value)> = Vec::new();
    for m in metrics::METRICS {
        let wanted = match select {
            Select::EndToEnd => m.scope == Scope::EndToEnd,
            Select::PerLayer => m.scope != Scope::EndToEnd,
            Select::Full => true,
        };
        if !wanted {
            continue;
        }
        let row = value_of(m.name);
        let value = match (row, m.scope, select) {
            (Some(r), _, _) => r.value,
            (None, Scope::EndToEnd, _) => {
                return Err(format!("{}: no value for {}", outcome.workload, m.name))
            }
            (None, _, Select::Full) => continue,
            (None, _, _) => 0.0,
        };
        if !value.is_finite() || (m.scope == Scope::EndToEnd && value <= 0.0) {
            return Err(format!("{}: {} = {value}", outcome.workload, m.name));
        }
        let mut fields = vec![("value", Value::Float(value)), ("unit", text(m.unit))];
        if select == Select::Full {
            if let Some(spread) = row.and_then(|r| r.spread) {
                fields.push(("spread", Value::Float(spread)));
            }
        }
        metrics_out.push((m.name.to_string(), object(fields)));
    }
    let mut fields = vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", Value::Object(metrics_out)),
    ];
    if select == Select::Full {
        fields.push(("workload", text(outcome.workload)));
        fields.push(("passes", Value::UInt(outcome.passes as u64)));
        fields.push((
            "pass_ops_s",
            Value::Array(
                outcome
                    .pass_ops_s
                    .iter()
                    .map(|&v| Value::Float(v))
                    .collect(),
            ),
        ));
        if let Some(e) = &outcome.first_error {
            fields.push(("first_error", text(e)));
        }
        if !outcome.self_times.is_empty() {
            let spans = outcome
                .self_times
                .iter()
                .map(|(name, n, total, own)| {
                    (
                        name.clone(),
                        object(vec![
                            ("count", Value::UInt(*n)),
                            ("total_ns", Value::UInt(*total)),
                            ("self_ns", Value::UInt(*own)),
                        ]),
                    )
                })
                .collect();
            fields.push(("spans", Value::Object(spans)));
        }
    }
    serde_json::to_string(&object(fields)).map_err(|e| e.to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and on what a result was measured.
pub fn environment() -> Value {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    let unknown = || "unknown".to_string();
    object(vec![
        (
            "commit",
            text(&command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("nproc", Value::UInt(cores as u64)),
        ("cpu_model", text(&cpu)),
        (
            "rustc",
            text(&command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("load_average_1m", Value::Float(load1)),
        // A run started on a busy machine measures the neighbours too.
        ("started_loaded", Value::Bool(load1 > cores as f64)),
    ])
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Rows that depend on the input alone, so two fixed-count runs of one
/// commit with one seed must agree on them to the bit.
const EXACT: [&str; 10] = [
    "plan_speedup_x",
    "core.portfolio.rl_win_ratio",
    "core.portfolio.chain_gap_pct",
    "engine.executor.conversions",
    "loadgen.input_fnv",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.coalesced",
    "serve.cache.spill_loads",
    "serve.cache.evictions",
];

/// Whether `metric` on `workload` is input-determined. Eviction order
/// under 32 requests in flight, and which donor a warm start finds,
/// depend on timing.
fn exact_on(workload: &str, metric: &str) -> bool {
    EXACT.contains(&metric)
        && match workload {
            "churn_spill" => !metric.starts_with("serve.cache."),
            "mix_open" => metric == "loadgen.input_fnv",
            _ => true,
        }
}

/// Bounds by metric name: `BENCHMARK.json` for what it lists with a
/// bound, this benchmark's table for the workload-specific rest.
fn bounds(manifest: &Value) -> Result<Vec<(String, Better, Bound)>, String> {
    let listed = field(manifest, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = Vec::new();
    for m in listed {
        let name = field(m, "name")
            .and_then(text_of)
            .ok_or("metric without a name")?;
        let bound = field(m, "bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no bound"))?;
        let better = match field(m, "better").and_then(text_of) {
            Some("higher") => Better::Higher,
            _ => Better::Lower,
        };
        out.push((name.to_string(), better, Bound::Rel(bound)));
    }
    for m in metrics::in_scope(Scope::Specific) {
        if let Some(bound) = m.bound {
            out.push((m.name.to_string(), m.better, bound));
        }
    }
    Ok(out)
}

fn metric_of<'a>(result: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    field(field(field(result, "workloads")?, workload)?, "metrics").and_then(|m| field(m, metric))
}

/// Compares result `b` with result `a`; prints a table; `Ok(true)` when no
/// bound is breached.
pub fn agree(a_path: &Path, b_path: &Path, manifest_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bounds = bounds(&read_json(manifest_path)?)?;
    let same_input = field(&a, "seed") == field(&b, "seed")
        && field(&a, "budget").and_then(text_of) == Some("fixed")
        && field(&b, "budget").and_then(text_of) == Some("fixed");
    let workloads = field(&a, "workloads")
        .and_then(Value::as_object)
        .ok_or("first file has no workloads")?;
    println!(
        "{:<12} {:<30} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    let mut all_ok = true;
    for (workload, _) in workloads {
        for (metric, better, bound) in &bounds {
            let (Some(ma), Some(mb)) = (
                metric_of(&a, workload, metric),
                metric_of(&b, workload, metric),
            ) else {
                continue;
            };
            let (Some(va), Some(vb)) = (
                field(ma, "value").and_then(Value::as_f64),
                field(mb, "value").and_then(Value::as_f64),
            ) else {
                continue;
            };
            // Positive = B is worse than A.
            let worse = match better {
                Better::Lower => vb - va,
                Better::Higher => va - vb,
            };
            let (worsening, limit, shown) = match bound {
                Bound::Rel(r) if va != 0.0 => (
                    worse / va.abs(),
                    *r,
                    format!("{:>8.2}%", (vb - va) / va.abs() * 100.0),
                ),
                Bound::Rel(r) => (worse, *r, format!("{:>9.4}", vb - va)),
                Bound::Abs(x) => (worse, *x, format!("{:>9.4}", vb - va)),
            };
            let spread = [ma, mb]
                .iter()
                .filter_map(|m| field(m, "spread").and_then(Value::as_f64))
                .fold(0.0f64, f64::max);
            let verdict = if worsening <= limit {
                "ok"
            } else if matches!(bound, Bound::Rel(_)) && spread > limit {
                // The passes of one run already differ by more than the
                // bound: two runs cannot resolve it.
                "unresolved"
            } else {
                all_ok = false;
                "BREACH"
            };
            let limit_shown = match bound {
                Bound::Rel(r) => format!("{:.1}%", r * 100.0),
                Bound::Abs(x) => format!("{x}"),
            };
            println!(
                "{workload:<12} {metric:<30} {va:>14.4} {vb:>14.4} {shown} {limit_shown:>8}  {verdict}"
            );
        }
        if !same_input {
            continue;
        }
        let rows = field(field(&a, "workloads").expect("checked above"), workload)
            .and_then(|w| field(w, "metrics"))
            .and_then(Value::as_object);
        for (metric, ma) in rows.into_iter().flatten() {
            if !exact_on(workload, metric) {
                continue;
            }
            let (Some(va), Some(vb)) = (
                field(ma, "value").and_then(Value::as_f64),
                metric_of(&b, workload, metric)
                    .and_then(|m| field(m, "value"))
                    .and_then(Value::as_f64),
            ) else {
                continue;
            };
            if va.to_bits() != vb.to_bits() {
                all_ok = false;
                println!(
                    "{workload:<12} {metric:<30} {va:>14.6} {vb:>14.6} {:>9} {:>8}  BREACH (must repeat exactly)",
                    "", "exact"
                );
            }
        }
    }
    if same_input {
        println!("same seed, fixed counts: input-determined rows compared bit for bit");
    }
    for (label, file) in [("A", &a), ("B", &b)] {
        if field(file, "env").and_then(|e| field(e, "started_loaded")) == Some(&Value::Bool(true)) {
            println!("note: {label} started with a load average above its core count");
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(throughput: f64, hits: f64, spread: f64) -> Value {
        let m = |v: f64| {
            object(vec![
                ("value", Value::Float(v)),
                ("spread", Value::Float(spread)),
            ])
        };
        object(vec![
            ("seed", Value::UInt(1)),
            ("budget", text("fixed")),
            (
                "workloads",
                object(vec![(
                    "hit_small",
                    object(vec![(
                        "metrics",
                        object(vec![
                            ("throughput_ops_s", m(throughput)),
                            ("serve.cache.hits", m(hits)),
                        ]),
                    )]),
                )]),
            ),
        ])
    }

    fn agree_on(a: Value, b: Value) -> bool {
        let dir = crate::default_out_dir().join(format!("test-agree-{}", std::process::id()));
        let (pa, pb, pm) = (dir.join("a.json"), dir.join("b.json"), dir.join("m.json"));
        write_json(&pa, &a).unwrap();
        write_json(&pb, &b).unwrap();
        write_json(&pm, &metrics::manifest()).unwrap();
        let verdict = agree(&pa, &pb, &pm).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        verdict
    }

    #[test]
    fn agree_flags_a_breach_an_inexact_count_and_spares_a_noisy_metric() {
        assert!(agree_on(
            result(1000.0, 5.0, 0.01),
            result(950.0, 5.0, 0.01)
        ));
        // 40% less throughput against a 25% bound.
        assert!(!agree_on(
            result(1000.0, 5.0, 0.01),
            result(600.0, 5.0, 0.01)
        ));
        // Same drop, but the passes themselves spread 50%: unresolved.
        assert!(agree_on(result(1000.0, 5.0, 0.5), result(600.0, 5.0, 0.5)));
        // A count that must repeat exactly and does not.
        assert!(!agree_on(
            result(1000.0, 5.0, 0.01),
            result(1000.0, 6.0, 0.01)
        ));
    }
}
