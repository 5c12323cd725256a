//! `qsbench` — the standing benchmark of the QS-DNN plan service.
//!
//! ```text
//! qsbench run [--seed N] [--trace] [--smoke] [--seconds S]   every workload, one child process each
//! qsbench list [--seed N]                                    parameters and input fingerprints, nothing runs
//! qsbench agree A.json B.json [--manifest BENCHMARK.json]    compare two results against the bounds
//! qsbench manifest                                           print BENCHMARK.json
//! qsbench --workload W --seed N --seconds S --trace 0|1      one workload; last stdout line is its result
//! ```
//!
//! See `bench/README.md` for why each workload exists and which layer
//! metric is expected to move which end-to-end metric.

mod infer;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod report;
mod rng;
mod run;
mod service;
mod stats;
mod telemetry;
mod trace;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::Value;

use crate::json::field;
use crate::report::Select;
use crate::run::{Budget, Options};
use crate::workloads::{Kind, Spec, Traffic, WORKLOADS};

/// Results, traces and scratch directories go here unless `--out` says
/// otherwise; `bench/.gitignore` covers it.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if flags.contains(&key) => args.options.push((key.to_string(), None)),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.options.push((key.to_string(), Some(value.clone())));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: `{v}` is not a number")),
        }
    }

    fn known(&self, keys: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !keys.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("run") => cmd_run(&raw[1..]),
        Some("list") => cmd_list(&raw[1..]),
        Some("agree") => cmd_agree(&raw[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest_text());
            Ok(true)
        }
        Some(first) if first.starts_with("--") => cmd_workload(&raw),
        _ => Err("usage: qsbench run|list|agree|manifest, or --workload W --seed N --seconds S --trace 0|1".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("qsbench: {why}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. Prints its result as the last line of
/// stdout; an invalid run prints none and exits non-zero.
fn cmd_workload(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["fixed", "full", "quick"])?;
    args.known(&[
        "workload", "seed", "seconds", "trace", "fixed", "full", "quick", "out",
    ])?;
    let name = args.value("workload").ok_or("--workload is required")?;
    let spec = workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match args.value("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds: f64 = args.number("seconds", metrics::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let opts = Options {
        seed: args.number("seed", 42u64)?,
        budget: if args.flag("fixed") {
            Budget::Fixed
        } else {
            Budget::Seconds(seconds)
        },
        trace,
        quick: args.flag("quick"),
        out_dir: args
            .value("out")
            .map_or_else(default_out_dir, PathBuf::from),
    };
    let outcome = run::run(spec, &opts)?;
    if let Some(e) = &outcome.first_error {
        eprintln!("qsbench: {name}: first failure: {e}");
    }
    let select = match (args.flag("full"), trace) {
        (true, _) => Select::Full,
        (false, false) => Select::EndToEnd,
        (false, true) => Select::PerLayer,
    };
    println!("{}", report::outcome_line(&outcome, select)?);
    Ok(true)
}

fn describe(spec: &Spec) -> String {
    let shape = match spec.kind {
        Kind::Closed { window } => format!(
            "closed loop, window {window}, v{}, passes of {} ops, {} passes when fixed",
            spec.protocol, spec.pass_ops, spec.fixed_passes
        ),
        Kind::Open { rate_per_s } => format!(
            "open loop, {rate_per_s} req/s, v{}, {} s when fixed",
            spec.protocol,
            workloads::MIX_FIXED_SECONDS
        ),
        Kind::Infer => format!(
            "no server, {:?} in rotation, {} rotations a pass, {} passes when fixed",
            infer::NETWORKS,
            infer::ROUNDS_PER_PASS,
            spec.fixed_passes
        ),
    };
    let server = match (spec.cache_entries, spec.spill) {
        (0, false) => String::new(),
        (n, spill) => format!(", cache_max_entries {n}, spill dir {spill}"),
    };
    format!(
        "{shape}, ws episodes {}{server}, set-up x{}",
        spec.ws_episodes, spec.setup_reps
    )
}

/// What each workload would send for a seed, without sending it.
fn cmd_list(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &[])?;
    args.known(&["seed"])?;
    let seed: u64 = args.number("seed", 42)?;
    for spec in &WORKLOADS {
        let fnv = if spec.traffic == Traffic::None {
            infer::fingerprint(&infer::inputs(seed))
        } else {
            let n = workloads::pass_size(spec, workloads::MIX_FIXED_SECONDS);
            workloads::fingerprint(&workloads::Stream::new(spec, seed).pass(n))
        };
        println!("{:<12} input_fnv {fnv:016x}  {}", spec.name, describe(spec));
        println!("{:<12} why: {}", "", spec.why);
    }
    Ok(true)
}

fn cmd_agree(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &[])?;
    args.known(&["manifest"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("agree takes two result files".into());
    };
    let manifest = args.value("manifest").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        PathBuf::from,
    );
    report::agree(Path::new(a), Path::new(b), &manifest)
}

/// Every workload, each in a fresh child process so that set-up time and
/// peak memory are per workload.
fn cmd_run(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["trace", "smoke"])?;
    args.known(&["seed", "trace", "smoke", "seconds", "out"])?;
    let seed: u64 = args.number("seed", 42)?;
    let smoke = args.flag("smoke");
    let trace = args.flag("trace") || smoke;
    let out_dir = args
        .value("out")
        .map_or_else(default_out_dir, PathBuf::from);
    let seconds = match (args.value("seconds"), smoke) {
        (Some(_), _) => Some(args.number("seconds", 0.0)?),
        (None, true) => Some(1.0),
        (None, false) => None,
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let env = report::environment();
    if field(&env, "started_loaded") == Some(&Value::Bool(true)) {
        eprintln!("qsbench: load average is above the core count; the numbers will show it");
    }

    let started = Instant::now();
    let mut workloads_out: Vec<(String, Value)> = Vec::new();
    let mut ok = true;
    for spec in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", spec.name, "--seed", &seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }, "--full"])
            .args(["--out", &out_dir.to_string_lossy()]);
        match seconds {
            Some(s) => child.args(["--seconds", &s.to_string()]),
            None => child.arg("--fixed"),
        };
        if smoke {
            child.arg("--quick");
        }
        let output = child
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", spec.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout
            .lines()
            .last()
            .filter(|_| output.status.success())
            .and_then(|line| serde_json::parse(line).ok());
        let Some(result) = parsed else {
            eprintln!(
                "qsbench: {} produced no result ({})",
                spec.name, output.status
            );
            ok = false;
            continue;
        };
        let rows = field(&result, "metrics")
            .and_then(Value::as_object)
            .ok_or("child result has no metrics")?;
        for (name, m) in rows {
            let value = field(m, "value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = match field(m, "unit") {
                Some(Value::String(u)) => u.as_str(),
                _ => "",
            };
            println!("{} {name} {value} {unit}", spec.name);
        }
        if field(&result, "failed").and_then(Value::as_u64) != Some(0) {
            eprintln!("qsbench: {} had failed operations", spec.name);
            ok = false;
        }
        // Schema completeness: every metric this kind of run produces.
        for m in metrics::METRICS
            .iter()
            .filter(|m| m.on.applies(spec, trace))
        {
            if Value::get_field(rows, m.name).is_none() {
                eprintln!("qsbench: {} is missing {}", spec.name, m.name);
                ok = false;
            }
        }
        workloads_out.push((spec.name.to_string(), result));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let result = Value::Object(vec![
        ("schema".into(), Value::String("qsbench-1".into())),
        ("env".into(), env),
        ("seed".into(), Value::UInt(seed)),
        (
            "budget".into(),
            Value::String(
                if seconds.is_some() {
                    "seconds"
                } else {
                    "fixed"
                }
                .into(),
            ),
        ),
        ("traced".into(), Value::Bool(trace)),
        ("elapsed_s".into(), Value::Float(elapsed)),
        ("workloads".into(), Value::Object(workloads_out)),
    ]);
    let file = match (smoke, trace) {
        (true, _) => "smoke.json",
        (false, true) => "result-trace.json",
        (false, false) => "result.json",
    };
    let path = out_dir.join(file);
    report::write_json(&path, &result)?;
    eprintln!("qsbench: wrote {} after {elapsed:.1} s", path.display());
    if smoke && elapsed > 60.0 {
        eprintln!("qsbench: the smoke run took {elapsed:.1} s, over its 60 s budget");
        ok = false;
    }
    Ok(ok)
}
