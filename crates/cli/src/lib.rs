//! Implementation of the `qsdnn-cli` command-line tool.
//!
//! Eight subcommands drive the full pipeline from a shell:
//!
//! ```text
//! qsdnn-cli networks
//! qsdnn-cli profile --network mobilenet_v1 --mode gpgpu --out lut.json
//! qsdnn-cli search  --lut lut.json --episodes 2000 --out report.json
//! qsdnn-cli report  --lut lut.json --report report.json
//! qsdnn-cli serve   --addr 127.0.0.1:7878 --spill /var/cache/qsdnn
//! qsdnn-cli submit  --addr 127.0.0.1:7878 --network mobilenet_v1
//! qsdnn-cli top     --addr 127.0.0.1:7878
//! qsdnn-cli reproduce > REPRODUCTION.json
//! ```
//!
//! Argument parsing is hand-rolled (no external CLI dependency) and kept in
//! this library crate so it can be unit-tested. Unknown `--options` are
//! rejected per subcommand rather than silently ignored.

use std::collections::HashMap;

use qsdnn::baselines::{
    pbqp_search, solve_chain_dp, RandomSearch, SimulatedAnnealing, SimulatedAnnealingConfig,
};
use qsdnn::engine::{CostLut, Mode, Objective, PlatformRegistry, Profiler};
use qsdnn::nn::zoo;
use qsdnn::{ApproxQsDnnSearch, QsDnnConfig, QsDnnSearch, SearchReport};
use qsdnn_serve::protocol::{
    EventMsg, EventsResponse, HistogramMsg, MetricValue, MetricsResponse, PlanRequest,
    PlanResponse, ProfileRequest, TasksResponse, TraceInfo, TransferMode,
};
use qsdnn_serve::{PlanClient, PlanServer, ServerConfig};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Subcommand name.
    pub command: String,
    /// `--key value` options.
    pub options: HashMap<String, String>,
}

/// Parses `argv[1..]` into a subcommand plus `--key value` pairs.
///
/// # Errors
///
/// Returns a usage message when the subcommand is missing or an option has
/// no value.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let help = || {
        Ok(Args {
            command: "help".to_string(),
            options: HashMap::new(),
        })
    };
    let mut it = argv.iter();
    let command = it.next().ok_or_else(usage)?.clone();
    if command == "--help" || command == "-h" {
        return help();
    }
    let mut options = HashMap::new();
    while let Some(key) = it.next() {
        // `--help`/`-h` wins in any *key* position (`search --lut x --help`),
        // but an option's value is consumed verbatim — `--out -h` names a
        // file, it does not request help.
        if key == "--help" || key == "-h" {
            return help();
        }
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got `{key}`\n{}", usage()))?;
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for --{key}\n{}", usage()))?;
        options.insert(key.to_string(), value.clone());
    }
    Ok(Args { command, options })
}

/// Rejects any option key the subcommand does not understand — a silently
/// ignored `--episods 2000` typo would otherwise run a misconfigured
/// search.
///
/// # Errors
///
/// Returns a message naming every unknown key and the accepted set.
pub fn reject_unknown_options(args: &Args, allowed: &[&str]) -> Result<(), String> {
    let mut unknown: Vec<&str> = args
        .options
        .keys()
        .filter(|k| !allowed.contains(&k.as_str()))
        .map(String::as_str)
        .collect();
    if unknown.is_empty() {
        return Ok(());
    }
    unknown.sort_unstable();
    let mut accepted: Vec<&str> = allowed.to_vec();
    accepted.sort_unstable();
    Err(format!(
        "unknown option{} for `{}`: {}\naccepted options: {}\n{}",
        if unknown.len() == 1 { "" } else { "s" },
        args.command,
        unknown
            .iter()
            .map(|k| format!("--{k}"))
            .collect::<Vec<_>>()
            .join(", "),
        accepted
            .iter()
            .map(|k| format!("--{k}"))
            .collect::<Vec<_>>()
            .join(", "),
        usage()
    ))
}

/// The tool's usage text.
pub fn usage() -> String {
    "usage:\n  \
     qsdnn-cli networks\n  \
     qsdnn-cli profile --network <name> [--mode cpu|gpgpu] [--platform <name>]\n            \
     [--platform-dir <dir>] [--repeats N] [--batch N] --out <lut.json>\n            \
     (--platform takes a registry name such as sim-tx2 or sim-gpu-heavy, a\n            \
     spec from --platform-dir, or the aliases analytical|measured)\n  \
     qsdnn-cli search --lut <lut.json> [--method qsdnn|linear|random|annealing|pbqp|dp]\n            \
     [--episodes N] [--seed N] [--objective latency|energy|weighted:<lambda>] [--out <report.json>]\n  \
     qsdnn-cli report --lut <lut.json> --report <report.json>\n  \
     qsdnn-cli serve [--addr host:port] [--threads N] [--spill <dir>] [--repeats N]\n            \
     [--cache-entries N] [--max-in-flight N] [--transfer auto|off]\n            \
     [--index-entries N] [--metrics-addr host:port] [--slow-ms N]\n            \
     [--platform <name>] [--platform-dir <dir>]\n            \
     (one poll(2) readiness loop drives every connection. --metrics-addr\n            \
     serves Prometheus text at /metrics; requests slower than --slow-ms are\n            \
     logged with a stage breakdown and journaled as flight-recorder\n            \
     exemplars; SIGTERM or a handler panic\n            \
     flushes the recorder to a post-mortem dump under --spill;\n            \
     --platform-dir loads extra platform specs from *.json files and\n            \
     --platform picks the server's default target)\n  \
     qsdnn-cli submit --addr <host:port>\n            \
     [--request plan|profile|search|platforms|stats|metrics|events|tasks]\n            \
     [--network <name> | --networks a,b,c] [--batch N | --batches 1,2,4,8]\n            \
     [--mode cpu|gpgpu] [--objective <obj>] [--episodes N] [--seeds a,b,c]\n            \
     [--transfer auto|off] [--repeats N] [--lut <lut.json>] [--trace true]\n            \
     [--histograms true] [--platform <name>] [--protocol 2|3]\n            \
     (--networks pipelines a batch over one connection; --batches sweeps\n            \
     batch sizes so each warm-starts from the previous one; --trace echoes\n            \
     per-stage server timings; --histograms adds latency quantiles to stats;\n            \
     --platform pins plan/profile/search requests to a named server platform\n            \
     and --request platforms lists what the server offers; --request events\n            \
     dumps the flight-recorder journal and slow-request exemplars and\n            \
     --request tasks shows what every worker thread is doing right now;\n            \
     --protocol 2 pins the JSON wire framing — the default, 3, negotiates\n            \
     the binary framing)\n  \
     qsdnn-cli top --addr <host:port> [--interval-ms N] [--frames N]\n            \
     (live dashboard: worker task table, rolling p50/p99 request latency and\n            \
     event rate from flight-recorder deltas; --frames N renders N frames and\n            \
     exits, for scripts and CI)\n  \
     qsdnn-cli reproduce   (the paper's tables and figures as JSON: REPRODUCTION.json)\n  \
     qsdnn-cli help | --help | -h"
        .to_string()
}

/// Parses the `--mode` option.
///
/// # Errors
///
/// Returns a message for unknown modes.
pub fn parse_mode(s: &str) -> Result<Mode, String> {
    match s {
        "cpu" => Ok(Mode::Cpu),
        "gpgpu" => Ok(Mode::Gpgpu),
        other => Err(format!("unknown mode `{other}` (cpu|gpgpu)")),
    }
}

/// Parses the `--objective` option (`latency`, `energy`, `weighted:<λ>`).
///
/// # Errors
///
/// Returns a message for unknown objectives or a malformed λ.
pub fn parse_objective(s: &str) -> Result<Objective, String> {
    match s {
        "latency" => Ok(Objective::Latency),
        "energy" => Ok(Objective::Energy),
        other => {
            if let Some(lambda) = other.strip_prefix("weighted:") {
                let lambda: f64 = lambda
                    .parse()
                    .map_err(|_| format!("bad lambda in `{other}`"))?;
                Ok(Objective::Weighted { lambda })
            } else {
                Err(format!(
                    "unknown objective `{other}` (latency|energy|weighted:<l>)"
                ))
            }
        }
    }
}

/// Parses the `--transfer` option (`auto`, `off`).
///
/// # Errors
///
/// Returns a message for unknown modes.
pub fn parse_transfer(s: &str) -> Result<TransferMode, String> {
    s.parse()
}

fn opt_parse<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, String> {
    match args.options.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{key}: `{v}`")),
    }
}

fn required<'a>(args: &'a Args, key: &str) -> Result<&'a String, String> {
    args.options
        .get(key)
        .ok_or_else(|| format!("missing --{key}\n{}", usage()))
}

fn cmd_networks(args: &Args) -> Result<String, String> {
    reject_unknown_options(args, &[])?;
    let mut out = String::from("available networks:\n");
    for name in zoo::PAPER_ROSTER {
        let net = zoo::by_name(name, 1).expect("roster");
        out.push_str(&format!(
            "  {:<15} {:>4} layers {:>10.1} MMACs {:>9.2} Mparams\n",
            name,
            net.len(),
            net.total_macs() as f64 / 1e6,
            net.total_params() as f64 / 1e6
        ));
    }
    out.push_str("  (plus test-scale: tiny_cnn, toy_branchy)\n");
    Ok(out)
}

fn cmd_profile(args: &Args) -> Result<String, String> {
    reject_unknown_options(
        args,
        &[
            "network",
            "mode",
            "platform",
            "platform-dir",
            "repeats",
            "batch",
            "out",
        ],
    )?;
    let name = required(args, "network")?;
    let batch = opt_parse(args, "batch", 1usize)?;
    let net = zoo::by_name(name, batch).ok_or_else(|| format!("unknown network `{name}`"))?;
    let mode = parse_mode(args.options.get("mode").map_or("gpgpu", String::as_str))?;
    let repeats = opt_parse(args, "repeats", 50usize)?;
    // `analytical`/`measured` predate the registry and stay as aliases for
    // `sim-tx2` and `measured-host`; every name resolves in the registry
    // ("sim-gpu-heavy", specs from --platform-dir, ...).
    let platform = match args.options.get("platform").map(String::as_str) {
        None | Some("analytical") => "sim-tx2",
        Some("measured") => "measured-host",
        Some(name) => name,
    };
    let mut registry = PlatformRegistry::builtin();
    if let Some(dir) = args.options.get("platform-dir") {
        registry
            .load_dir(std::path::Path::new(dir))
            .map_err(|e| e.to_string())?;
    }
    let spec = registry
        .resolve(platform)
        .map_err(|e| format!("{e} (or use the aliases `analytical`/`measured`)"))?;
    if !spec.supports(mode) {
        return Err(format!(
            "platform `{}` has no GPU; mode `{mode}` is unavailable on it",
            spec.name
        ));
    }
    let lut = Profiler::with_repeats(registry.instantiate(spec), repeats).profile(&net, mode);
    let out_path = required(args, "out")?;
    let json = serde_json::to_string(&lut).map_err(|e| e.to_string())?;
    std::fs::write(out_path, json).map_err(|e| e.to_string())?;
    Ok(format!(
        "profiled {} ({} layers, {} mode, {} repeats) -> {out_path}\n\
         design space: {:.2e} implementations",
        net.name(),
        lut.len(),
        mode,
        repeats,
        lut.design_space_size()
    ))
}

fn load_lut(args: &Args) -> Result<CostLut, String> {
    let path = required(args, "lut")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lut: CostLut = serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?;
    // A hand-edited or truncated LUT file would otherwise panic deep in
    // the search; surface a clean message instead.
    lut.validate()
        .map_err(|e| format!("{path}: invalid LUT: {e}"))?;
    Ok(lut)
}

fn cmd_search(args: &Args) -> Result<String, String> {
    reject_unknown_options(
        args,
        &["lut", "method", "episodes", "seed", "objective", "out"],
    )?;
    let raw = load_lut(args)?;
    let objective = parse_objective(
        args.options
            .get("objective")
            .map_or("latency", String::as_str),
    )?;
    let lut = raw.with_objective(objective);
    let episodes = opt_parse(args, "episodes", qsdnn::reproduce::episodes_for(&lut))?;
    let seed = opt_parse(args, "seed", 0x5EEDu64)?;
    let method = args.options.get("method").map_or("qsdnn", String::as_str);
    let report: SearchReport = match method {
        "qsdnn" => QsDnnSearch::new(QsDnnConfig::with_episodes(episodes).with_seed(seed)).run(&lut),
        "linear" => {
            ApproxQsDnnSearch::new(QsDnnConfig::with_episodes(episodes).with_seed(seed)).run(&lut)
        }
        "random" => RandomSearch::new(episodes, seed).run(&lut),
        "annealing" => SimulatedAnnealing::new(SimulatedAnnealingConfig {
            evaluations: episodes,
            seed,
            ..Default::default()
        })
        .run(&lut),
        "pbqp" => pbqp_search(&lut),
        "dp" => {
            let (assign, cost) =
                solve_chain_dp(&lut).ok_or("network is not a chain; dp unavailable")?;
            SearchReport {
                method: "chain-dp".into(),
                network: lut.network().to_string(),
                best_assignment: assign,
                best_cost_ms: cost,
                episodes: 0,
                curve: Vec::new(),
                wall_time_ms: 0.0,
            }
        }
        other => return Err(format!("unknown method `{other}`")),
    };
    let mut summary = format!(
        "{} on {}: best objective value {:.3} (latency {:.3} ms, energy {:.3} mJ)\n\
         vs vanilla {:.3} ms | search wall time {:.1} ms",
        report.method,
        report.network,
        report.best_cost_ms,
        raw.cost(&report.best_assignment),
        raw.energy_cost(&report.best_assignment),
        raw.cost(&raw.vanilla_assignment()),
        report.wall_time_ms
    );
    if let Some(out_path) = args.options.get("out") {
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        std::fs::write(out_path, json).map_err(|e| e.to_string())?;
        summary.push_str(&format!("\nreport written to {out_path}"));
    }
    Ok(summary)
}

fn cmd_report(args: &Args) -> Result<String, String> {
    reject_unknown_options(args, &["lut", "report"])?;
    let lut = load_lut(args)?;
    let path = required(args, "report")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report: SearchReport = serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?;
    if report.best_assignment.len() != lut.len() {
        return Err("report does not match this LUT".to_string());
    }
    let mut out = format!(
        "{} on {}: {:.3} ms ({} episodes, {:.1} ms wall time)\n\nper-layer primitives:\n",
        report.method, report.network, report.best_cost_ms, report.episodes, report.wall_time_ms
    );
    for (l, &ci) in report.best_assignment.iter().enumerate() {
        let entry = &lut.layers()[l];
        out.push_str(&format!(
            "  {:<28} {:>9.4} ms  {}\n",
            entry.name,
            lut.time(l, ci),
            entry.candidates[ci]
        ));
    }
    Ok(out)
}

fn parse_batches(s: &str) -> Result<Vec<usize>, String> {
    let batches: Vec<usize> = s
        .split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.parse::<usize>()
                .ok()
                .filter(|&b| b >= 1)
                .ok_or_else(|| format!("bad batch `{part}` in --batches (need integers >= 1)"))
        })
        .collect::<Result<_, _>>()?;
    if batches.is_empty() {
        return Err("--batches needs at least one batch size".to_string());
    }
    Ok(batches)
}

fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    s.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad seed `{part}` in --seeds"))
        })
        .collect()
}

fn format_plan(plan: &PlanResponse) -> String {
    let mut out = format!(
        "plan {} for {}: {:.3} ms ({}; {:.2}x vs vanilla {:.3} ms){}\n",
        plan.plan_key,
        plan.network,
        plan.best.best_cost_ms,
        plan.winner,
        plan.speedup(),
        plan.vanilla_cost_ms,
        if plan.cache_hit { " [cache hit]" } else { "" },
    );
    match &plan.warm_start {
        Some(w) => out.push_str(&format!(
            "warm start: donor {} ({}, distance {:.3}), {} states transferred, \
             {} episodes\n",
            w.donor_key, w.donor_network, w.donor_distance, w.transferred_states, w.episodes
        )),
        None => out.push_str("cold start\n"),
    }
    out.push_str("\nportfolio:\n");
    for m in &plan.members {
        match m.best_cost_ms {
            Some(cost) => out.push_str(&format!(
                "  {:<22} {:>10.3} ms  ({:>8.1} ms wall)\n",
                m.label, cost, m.wall_time_ms
            )),
            None => out.push_str(&format!("  {:<22} inapplicable\n", m.label)),
        }
    }
    out.push_str(&format!(
        "\nassignment ({} layers): {:?}",
        plan.best.best_assignment.len(),
        plan.best.best_assignment
    ));
    if let Some(trace) = &plan.trace {
        out.push('\n');
        out.push_str(&format_trace(trace));
    }
    out
}

/// Renders a `trace: true` stage breakdown as one line per stage.
fn format_trace(trace: &TraceInfo) -> String {
    let mut out = format!("server span ({:.3} ms total):", trace.total_ms);
    for s in &trace.stages {
        out.push_str(&format!("\n  {:<10} {:>10.3} ms", s.stage, s.ms));
    }
    out
}

/// Renders a metrics snapshot: histogram quantile tables first, then
/// counters and gauges, one labeled sample per line.
fn format_metrics(metrics: &MetricsResponse) -> String {
    let label = |labels: &[(String, String)]| -> String {
        if labels.is_empty() {
            String::new()
        } else {
            format!(
                "{{{}}}",
                labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        }
    };
    let mut out = format!(
        "server metrics (up {:.1} s)\n\n{:<46} {:>9} {:>9} {:>9} {:>9} {:>9}",
        metrics.uptime_ms as f64 / 1e3,
        "histogram",
        "count",
        "p50_us",
        "p90_us",
        "p99_us",
        "p999_us"
    );
    for family in &metrics.families {
        for sample in &family.samples {
            if let MetricValue::Histogram(h) = &sample.value {
                out.push_str(&format!(
                    "\n{:<46} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    format!("{}{}", family.name, label(&sample.labels)),
                    h.count,
                    h.p50_us,
                    h.p90_us,
                    h.p99_us,
                    h.p999_us
                ));
            }
        }
    }
    out.push_str("\n\ncounters & gauges:");
    for family in &metrics.families {
        for sample in &family.samples {
            match &sample.value {
                MetricValue::Counter(v) => out.push_str(&format!(
                    "\n  {:<46} {v}",
                    format!("{}{}", family.name, label(&sample.labels))
                )),
                MetricValue::Gauge(v) => out.push_str(&format!(
                    "\n  {:<46} {v}",
                    format!("{}{}", family.name, label(&sample.labels))
                )),
                MetricValue::Histogram(_) => {}
            }
        }
    }
    out
}

/// Renders one journaled event as a fixed-width line.
fn format_event_line(ev: &EventMsg) -> String {
    let req = if ev.serial == 0 {
        "       ".to_string()
    } else {
        format!("req#{:<3}", ev.serial)
    };
    format!(
        "  {:>12.3} ms  {:<20} {:<18} {req}  {}\n",
        ev.ts_us as f64 / 1e3,
        ev.thread,
        ev.event,
        ev.detail
    )
}

/// Renders the flight-recorder journal plus slow-request exemplars.
fn format_events(resp: &EventsResponse) -> String {
    let mut out = format!(
        "flight recorder: {} | {} events journaled | ring capacity {} per thread\n",
        if resp.recorder_enabled { "on" } else { "off" },
        resp.events_total,
        resp.ring_capacity
    );
    // The rings can retain thousands of events; the journal dump shows the
    // newest tail and says so, rather than scrolling the terminal away.
    const SHOWN: usize = 50;
    let skip = resp.events.len().saturating_sub(SHOWN);
    if skip > 0 {
        out.push_str(&format!(
            "\nnewest {SHOWN} of {} retained events:\n",
            resp.events.len()
        ));
    } else {
        out.push_str(&format!("\n{} retained events:\n", resp.events.len()));
    }
    for ev in &resp.events[skip..] {
        out.push_str(&format_event_line(ev));
    }
    if !resp.exemplars.is_empty() {
        out.push_str("\nslow-request exemplars:\n");
        for ex in &resp.exemplars {
            out.push_str(&format!(
                "  {} req#{}: {:.3} ms{}{}\n",
                ex.kind,
                ex.serial,
                ex.total_ms,
                if ex.plan_key.is_empty() {
                    String::new()
                } else {
                    format!(", plan {}", ex.plan_key)
                },
                if ex.panicked { "  [PANICKED]" } else { "" }
            ));
            for s in &ex.stages {
                out.push_str(&format!("    {:<10} {:>10.3} ms\n", s.stage, s.ms));
            }
            for ev in &ex.events {
                out.push_str(&format!("  {}", format_event_line(ev)));
            }
        }
    }
    out
}

/// Renders the live task table: one row per serving thread.
fn format_tasks(resp: &TasksResponse) -> String {
    let mut out = format!(
        "flight recorder: {} | {} events journaled | {} threads\n\n\
         {:<22} {:<14} {:<8} {:<10} {:<18} {:>11}",
        if resp.recorder_enabled { "on" } else { "off" },
        resp.events_total,
        resp.tasks.len(),
        "thread",
        "state",
        "req",
        "stage",
        "plan key",
        "elapsed"
    );
    for t in &resp.tasks {
        out.push_str(&format!(
            "\n{:<22} {:<14} {:<8} {:<10} {:<18} {:>9.1}ms",
            t.thread,
            t.state,
            if t.serial == 0 {
                "-".to_string()
            } else {
                format!("#{}", t.serial)
            },
            if t.stage.is_empty() {
                "-"
            } else {
                t.stage.as_str()
            },
            if t.key.is_empty() {
                "-"
            } else {
                t.key.as_str()
            },
            t.elapsed_ms
        ));
    }
    out
}

fn cmd_serve(args: &Args) -> Result<String, String> {
    reject_unknown_options(
        args,
        &[
            "addr",
            "threads",
            "spill",
            "repeats",
            "cache-entries",
            "max-in-flight",
            "transfer",
            "index-entries",
            "metrics-addr",
            "slow-ms",
            "platform",
            "platform-dir",
        ],
    )?;
    let addr = args
        .options
        .get("addr")
        .map_or("127.0.0.1:7878", String::as_str)
        .to_string();
    let config = ServerConfig {
        addr,
        threads: opt_parse(args, "threads", 0usize)?,
        spill_dir: args.options.get("spill").map(std::path::PathBuf::from),
        profile_repeats: opt_parse(args, "repeats", 10usize)?,
        cache_max_entries: opt_parse(args, "cache-entries", 0usize)?,
        max_in_flight: opt_parse(args, "max-in-flight", 0usize)?,
        transfer: parse_transfer(args.options.get("transfer").map_or("auto", String::as_str))?,
        index_entries: opt_parse(args, "index-entries", 0usize)?,
        metrics_addr: args.options.get("metrics-addr").cloned(),
        slow_ms: opt_parse(args, "slow-ms", qsdnn_serve::DEFAULT_SLOW_MS)?,
        platform: args.options.get("platform").cloned().unwrap_or_default(),
        platform_dir: args
            .options
            .get("platform-dir")
            .map(std::path::PathBuf::from),
        ..ServerConfig::default()
    };
    let spill_note = config
        .spill_dir
        .as_ref()
        .map(|d| format!(", spilling plans to {}", d.display()))
        .unwrap_or_default();
    let server = PlanServer::start(config).map_err(|e| e.to_string())?;
    let metrics_note = server
        .metrics_addr()
        .map(|a| format!(", Prometheus metrics on http://{a}/metrics"))
        .unwrap_or_default();
    // A handler panic anywhere in the process flushes the flight recorder
    // to a post-mortem dump before the default hook prints the backtrace:
    // the journal explains *what the server was doing* when it died, which
    // the backtrace alone does not.
    {
        let write_dump = server.postmortem_writer();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(path) = write_dump("panic") {
                eprintln!(
                    "qsdnn-serve: post-mortem dump written to {}",
                    path.display()
                );
            }
            previous(info);
        }));
    }
    qsdnn_serve::signals::install_term_handler();
    eprintln!(
        "qsdnn-serve listening on {} (JSON-lines requests: \
         profile/search/plan/platforms/stats/metrics/events/tasks){spill_note}{metrics_note}",
        server.local_addr()
    );
    // Serve until SIGTERM. The latch is polled rather than waited on so the
    // handler itself stays async-signal-safe (one atomic store).
    while !qsdnn_serve::signals::term_requested() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    let dump_note = server
        .write_postmortem("sigterm")
        .map(|p| format!("; post-mortem dump at {}", p.display()))
        .unwrap_or_default();
    server.shutdown();
    Ok(format!(
        "qsdnn-serve: SIGTERM, shut down cleanly{dump_note}"
    ))
}

fn cmd_submit(args: &Args) -> Result<String, String> {
    reject_unknown_options(
        args,
        &[
            "addr",
            "request",
            "network",
            "networks",
            "batch",
            "batches",
            "mode",
            "objective",
            "episodes",
            "seeds",
            "transfer",
            "repeats",
            "lut",
            "trace",
            "histograms",
            "platform",
            "protocol",
        ],
    )?;
    let addr = required(args, "addr")?;
    // --protocol 2 pins the JSON framing (older servers, wire debugging,
    // the whole learning curve); the default negotiates the v3 binary
    // framing.
    let protocol = opt_parse(args, "protocol", 3u32)?;
    let mut client = match protocol {
        3 => PlanClient::connect(addr.as_str()),
        1 | 2 => PlanClient::connect_with_version(addr.as_str(), protocol),
        other => {
            return Err(format!(
                "unsupported --protocol {other} (expected 1, 2 or 3)"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    let kind = args.options.get("request").map_or("plan", String::as_str);
    let network = || required(args, "network").cloned();
    let batch = opt_parse(args, "batch", 1usize)?;
    let mode = parse_mode(args.options.get("mode").map_or("gpgpu", String::as_str))?;
    let objective = parse_objective(
        args.options
            .get("objective")
            .map_or("latency", String::as_str),
    )?;
    let episodes = opt_parse(args, "episodes", 0usize)?;
    let seeds = parse_seeds(args.options.get("seeds").map_or("", String::as_str))?;
    let transfer = parse_transfer(args.options.get("transfer").map_or("auto", String::as_str))?;
    let trace = opt_parse(args, "trace", false)?;
    let platform = args.options.get("platform").cloned().unwrap_or_default();
    match kind {
        "plan" => {
            // `--batches 1,2,4,8` sweeps batch sizes for one network over
            // one pipelined (protocol-v2) connection. The sweep submits
            // strictly in order — each plan lands in the scenario index
            // before the next batch is requested, so every step
            // warm-starts from the previous one (the natural transfer
            // demo); concurrent submission would race all batches cold.
            if let Some(list) = args.options.get("batches") {
                if args.options.contains_key("batch") {
                    return Err("--batch and --batches are mutually exclusive; \
                         fold the single batch into --batches"
                        .to_string());
                }
                if args.options.contains_key("networks") {
                    return Err("--batches sweeps one --network, not --networks".to_string());
                }
                let batches = parse_batches(list)?;
                let network = network()?;
                let started = std::time::Instant::now();
                let mut out = String::new();
                for &batch in &batches {
                    let ticket = client
                        .submit_plan(PlanRequest {
                            network: network.clone(),
                            batch,
                            mode,
                            objective,
                            episodes,
                            seeds: seeds.clone(),
                            transfer,
                            trace,
                            platform: platform.clone(),
                        })
                        .map_err(|e| e.to_string())?;
                    let plan = client.wait_plan(ticket).map_err(|e| e.to_string())?;
                    out.push_str(&format!("batch {batch}: "));
                    out.push_str(&format_plan(&plan));
                    out.push_str("\n\n");
                }
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                out.push_str(&format!(
                    "{} batch sizes swept over one connection in {wall_ms:.0} ms",
                    batches.len()
                ));
                return Ok(out);
            }
            // `--networks a,b,c` pipelines the whole batch over this one
            // connection (tagged protocol-v2 requests): the server works
            // all plans concurrently and replies as each finishes.
            if let Some(list) = args.options.get("networks") {
                if args.options.contains_key("network") {
                    return Err("--network and --networks are mutually exclusive; \
                         fold the single network into --networks"
                        .to_string());
                }
                let names: Vec<&str> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.is_empty() {
                    return Err("--networks needs at least one name".to_string());
                }
                let reqs: Vec<PlanRequest> = names
                    .iter()
                    .map(|name| PlanRequest {
                        network: (*name).to_string(),
                        batch,
                        mode,
                        objective,
                        episodes,
                        seeds: seeds.clone(),
                        transfer,
                        trace,
                        platform: platform.clone(),
                    })
                    .collect();
                let started = std::time::Instant::now();
                let plans = client.plan_many(&reqs).map_err(|e| e.to_string())?;
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                let mut out = String::new();
                for plan in &plans {
                    out.push_str(&format_plan(plan));
                    out.push_str("\n\n");
                }
                out.push_str(&format!(
                    "{} plans pipelined over one connection in {wall_ms:.0} ms",
                    plans.len()
                ));
                return Ok(out);
            }
            let plan = client
                .plan(PlanRequest {
                    network: network()?,
                    batch,
                    mode,
                    objective,
                    episodes,
                    seeds,
                    transfer,
                    trace,
                    platform,
                })
                .map_err(|e| e.to_string())?;
            Ok(format_plan(&plan))
        }
        "profile" => {
            let resp = client
                .profile(ProfileRequest {
                    network: network()?,
                    batch,
                    mode,
                    repeats: opt_parse(args, "repeats", 0usize)?,
                    platform,
                })
                .map_err(|e| e.to_string())?;
            let json = serde_json::to_string(&resp.lut).map_err(|e| e.to_string())?;
            if let Some(out_path) = args.options.get("lut") {
                std::fs::write(out_path, &json).map_err(|e| e.to_string())?;
                Ok(format!(
                    "profiled {} ({} layers, fingerprint {}) -> {out_path}",
                    resp.lut.network(),
                    resp.lut.len(),
                    resp.fingerprint
                ))
            } else {
                Ok(json)
            }
        }
        "search" => {
            let lut = load_lut(args)?;
            let plan = client
                .search_on(lut, objective, episodes, seeds, platform)
                .map_err(|e| e.to_string())?;
            Ok(format_plan(&plan))
        }
        "platforms" => {
            let listing = client.platforms().map_err(|e| e.to_string())?;
            let mut out = format!("{} platforms registered:", listing.platforms.len());
            for p in &listing.platforms {
                out.push_str(&format!(
                    "\n  {:<16} {:<10} {:<8} fingerprint {}{}",
                    p.name,
                    p.kind,
                    if p.gpu { "cpu+gpu" } else { "cpu-only" },
                    p.fingerprint,
                    if p.is_default { "  (default)" } else { "" }
                ));
                if !p.description.is_empty() {
                    out.push_str(&format!("\n                   {}", p.description));
                }
            }
            Ok(out)
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            let mut out = format!(
                "qsdnn-serve v{} up {:.1} s | {} requests, {} plans, {} pipelined \
                 (peak {} in flight, cap {}) | plan cache: {} hits, \
                 {} misses, {} coalesced, {} spill loads, {} entries ({:.0}% hit rate), \
                 {} evictions, {} stalls over {} shards | profile cache: {} entries | \
                 {} workers | {} accept errors",
                stats.version,
                stats.uptime_ms as f64 / 1e3,
                stats.requests,
                stats.plans,
                stats.pipelined,
                stats.in_flight_peak,
                stats.max_in_flight,
                stats.plan_cache.hits,
                stats.plan_cache.misses,
                stats.plan_cache.coalesced,
                stats.plan_cache.spill_loads,
                stats.plan_cache.entries,
                stats.plan_cache.hit_rate() * 100.0,
                stats.plan_cache.evictions,
                stats.plan_cache.capacity_stalls,
                stats.plan_cache.shards,
                stats.profile_cache.entries,
                stats.workers,
                stats.accept_errors
            );
            out.push_str(&format!(
                "\ntransfer ({}): {} hits, {} warm starts, mean donor distance {:.3}, \
                 {} indexed scenarios",
                stats.transfer,
                stats.transfer_hits,
                stats.warm_starts,
                stats.mean_donor_distance,
                stats.index_entries
            ));
            for (i, s) in stats.plan_cache_shards.iter().enumerate() {
                out.push_str(&format!(
                    "\n  plan shard {i}: {}/{} resident ({} in flight), {} hits, {} misses, \
                     {} coalesced, {} evictions",
                    s.entries + s.in_flight,
                    s.capacity,
                    s.in_flight,
                    s.hits,
                    s.misses,
                    s.coalesced,
                    s.evictions
                ));
            }
            if opt_parse(args, "histograms", false)? {
                let metrics = client.metrics().map_err(|e| e.to_string())?;
                out.push_str("\n\n");
                out.push_str(&format_metrics(&metrics));
            }
            Ok(out)
        }
        "metrics" => {
            let metrics = client.metrics().map_err(|e| e.to_string())?;
            Ok(format_metrics(&metrics))
        }
        "events" => {
            let events = client.events().map_err(|e| e.to_string())?;
            Ok(format_events(&events))
        }
        "tasks" => {
            let tasks = client.tasks().map_err(|e| e.to_string())?;
            Ok(format_tasks(&tasks))
        }
        other => Err(format!(
            "unknown request `{other}` (plan|profile|search|platforms|stats|metrics|events|tasks)"
        )),
    }
}

/// One sampled `top` frame: the merged request-latency histogram (summed
/// over the per-kind samples) plus the recorder's event counter, so
/// consecutive frames can be differenced into a rolling window.
struct TopSample {
    /// Bucket index -> (upper bound in us, cumulative count).
    buckets: HashMap<u64, (u64, u64)>,
    sum_us: u64,
    count: u64,
    events_total: u64,
    uptime_ms: u64,
}

fn top_sample(metrics: &MetricsResponse, events_total: u64) -> TopSample {
    let mut buckets: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut sum_us = 0u64;
    let mut count = 0u64;
    for family in &metrics.families {
        if family.name != "qsdnn_request_us" {
            continue;
        }
        for sample in &family.samples {
            if let MetricValue::Histogram(h) = &sample.value {
                sum_us += h.sum_us;
                count += h.count;
                for &(i, upper, n) in &h.buckets {
                    buckets.entry(i).or_insert((upper, 0)).1 += n;
                }
            }
        }
    }
    TopSample {
        buckets,
        sum_us,
        count,
        events_total,
        uptime_ms: metrics.uptime_ms,
    }
}

/// Differences two samples and re-quantiles the interval through the wire
/// histogram's own snapshot reconstruction. Returns
/// `(requests, p50_us, p99_us, events)` for the window.
fn top_delta(prev: &TopSample, cur: &TopSample) -> (u64, u64, u64, u64) {
    let mut buckets: Vec<(u64, u64, u64)> = cur
        .buckets
        .iter()
        .map(|(&i, &(upper, n))| {
            let before = prev.buckets.get(&i).map_or(0, |&(_, p)| p);
            (i, upper, n.saturating_sub(before))
        })
        .filter(|&(_, _, n)| n > 0)
        .collect();
    buckets.sort_unstable();
    let count = cur.count.saturating_sub(prev.count);
    let window = HistogramMsg {
        count,
        sum_us: cur.sum_us.saturating_sub(prev.sum_us),
        p50_us: 0,
        p90_us: 0,
        p99_us: 0,
        p999_us: 0,
        buckets,
    }
    .to_snapshot();
    (
        count,
        window.p50(),
        window.p99(),
        cur.events_total.saturating_sub(prev.events_total),
    )
}

fn render_top(
    addr: &str,
    tasks: &TasksResponse,
    sample: &TopSample,
    delta: Option<(u64, u64, u64, u64)>,
    interval_ms: u64,
) -> String {
    let mut out = format!(
        "qsdnn-top — {addr} | up {:.1} s",
        sample.uptime_ms as f64 / 1e3
    );
    match delta {
        Some((reqs, p50, p99, events)) => {
            let secs = (interval_ms as f64 / 1e3).max(1e-3);
            out.push_str(&format!(
                "\nlast {secs:.1} s: {reqs} requests ({:.1}/s), p50 {p50} us, p99 {p99} us, \
                 {:.1} events/s",
                reqs as f64 / secs,
                events as f64 / secs
            ));
        }
        None => out.push_str("\nrolling p50/p99 and event rate appear from the second frame on"),
    }
    out.push_str("\n\n");
    out.push_str(&format_tasks(tasks));
    out
}

fn cmd_top(args: &Args) -> Result<String, String> {
    reject_unknown_options(args, &["addr", "interval-ms", "frames"])?;
    let addr = required(args, "addr")?;
    let interval_ms = opt_parse(args, "interval-ms", 1000u64)?;
    // 0 = refresh until the process is interrupted; N renders N frames and
    // returns the last one, for scripts and CI smoke tests.
    let frames = opt_parse(args, "frames", 0u64)?;
    let mut client = PlanClient::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let mut prev: Option<TopSample> = None;
    let mut frame = 0u64;
    loop {
        frame += 1;
        let tasks = client.tasks().map_err(|e| e.to_string())?;
        let metrics = client.metrics().map_err(|e| e.to_string())?;
        let sample = top_sample(&metrics, tasks.events_total);
        let delta = prev.as_ref().map(|p| top_delta(p, &sample));
        let body = render_top(addr, &tasks, &sample, delta, interval_ms);
        if frames != 0 && frame >= frames {
            return Ok(body);
        }
        // Interactive frame: clear, redraw, sleep until the next sample.
        println!("\x1b[2J\x1b[H{body}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        prev = Some(sample);
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Every table and figure of the paper, as pretty JSON.
fn cmd_reproduce(args: &Args) -> Result<String, String> {
    reject_unknown_options(args, &[])?;
    serde_json::to_string_pretty(&qsdnn::reproduce::all()).map_err(|e| e.to_string())
}

/// Dispatches a parsed command line; returns the text to print.
///
/// # Errors
///
/// Returns a user-facing error message (bad arguments, I/O failures,
/// unknown names).
pub fn run(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "networks" => cmd_networks(args),
        "profile" => cmd_profile(args),
        "search" => cmd_search(args),
        "report" => cmd_report(args),
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "top" => cmd_top(args),
        "reproduce" => cmd_reproduce(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_command_and_options() {
        let args = parse_args(&argv(&["search", "--lut", "x.json", "--episodes", "50"])).unwrap();
        assert_eq!(args.command, "search");
        assert_eq!(args.options["lut"], "x.json");
        assert_eq!(args.options["episodes"], "50");
    }

    #[test]
    fn parse_rejects_bare_options() {
        assert!(parse_args(&argv(&["search", "oops"])).is_err());
        assert!(parse_args(&argv(&["search", "--lut"])).is_err());
        assert!(parse_args(&argv(&[])).is_err());
    }

    #[test]
    fn objective_parsing() {
        assert_eq!(parse_objective("latency").unwrap(), Objective::Latency);
        assert_eq!(parse_objective("energy").unwrap(), Objective::Energy);
        assert_eq!(
            parse_objective("weighted:0.5").unwrap(),
            Objective::Weighted { lambda: 0.5 }
        );
        assert!(parse_objective("weighted:abc").is_err());
        assert!(parse_objective("speed").is_err());
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode("cpu").unwrap(), Mode::Cpu);
        assert_eq!(parse_mode("gpgpu").unwrap(), Mode::Gpgpu);
        assert!(parse_mode("tpu").is_err());
    }

    #[test]
    fn networks_lists_roster() {
        let out = run(&parse_args(&argv(&["networks"])).unwrap()).unwrap();
        for name in qsdnn::nn::zoo::PAPER_ROSTER {
            assert!(out.contains(name), "{name} missing");
        }
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run(&parse_args(&argv(&["frobnicate"])).unwrap()).unwrap_err();
        assert!(err.contains("usage:"));
    }

    #[test]
    fn unknown_options_are_rejected_not_ignored() {
        let err = run(&parse_args(&argv(&["networks", "--frobnicate", "1"])).unwrap()).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        assert!(err.contains("--frobnicate"), "{err}");
        let err = run(&parse_args(&argv(&["reproduce", "--seed", "1"])).unwrap()).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        // A typo'd key on a real command names the accepted set.
        let err =
            run(&parse_args(&argv(&["search", "--lut", "x.json", "--episods", "50"])).unwrap())
                .unwrap_err();
        assert!(err.contains("--episods"), "{err}");
        assert!(err.contains("accepted options"), "{err}");
        assert!(err.contains("--episodes"), "{err}");
    }

    #[test]
    fn help_flags_short_circuit_anywhere() {
        for argvv in [
            vec!["--help"],
            vec!["-h"],
            vec!["search", "--help"],
            vec!["profile", "--network", "lenet5", "-h"],
        ] {
            let args = parse_args(&argv(&argvv)).unwrap();
            assert_eq!(args.command, "help", "{argvv:?}");
            assert!(run(&args).unwrap().contains("usage:"));
        }
        // In a *value* position, `-h` is data, not a help request.
        let args = parse_args(&argv(&["profile", "--network", "lenet5", "--out", "-h"])).unwrap();
        assert_eq!(args.command, "profile");
        assert_eq!(args.options["out"], "-h");
    }

    #[test]
    fn serve_rejects_unknown_cache_flags_and_accepts_real_ones() {
        // A typo'd cache flag must be rejected, naming the accepted set.
        let err = run(&parse_args(&argv(&["serve", "--cache-entry", "4", "--addr", "x"])).unwrap())
            .unwrap_err();
        assert!(
            err.contains("unknown option for `serve`: --cache-entry\n"),
            "{err}"
        );
        assert!(err.contains("--cache-entries"), "{err}");
        // A flag whose setting was removed fails as unknown, so a stale
        // script stops instead of starting a server with defaults.
        for (flag, value) in [
            ("--eviction", "cost"),
            ("--cache-shards", "4"),
            ("--dispatchers", "8"),
        ] {
            let err = run(&parse_args(&argv(&["serve", flag, value])).unwrap()).unwrap_err();
            assert!(
                err.contains(&format!("unknown option for `serve`: {flag}\n")),
                "{flag}: {err}"
            );
        }
        // The accepted set is exactly the twelve real options.
        let err = run(&parse_args(&argv(&["serve", "--x", "1"])).unwrap()).unwrap_err();
        let accepted = err
            .lines()
            .find_map(|l| l.strip_prefix("accepted options: "))
            .expect("the error lists the accepted set");
        assert_eq!(accepted.split(", ").count(), 12, "{accepted}");
    }

    #[test]
    fn seeds_lists_parse() {
        assert_eq!(parse_seeds("").unwrap(), Vec::<u64>::new());
        assert_eq!(parse_seeds("1,2,3").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_seeds("42").unwrap(), vec![42]);
        assert!(parse_seeds("1,x").is_err());
    }

    #[test]
    fn submit_round_trips_against_an_in_process_server() {
        let server = qsdnn_serve::start_local().expect("server");
        let addr = server.local_addr().to_string();
        let out = run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--network",
            "tiny_cnn",
            "--episodes",
            "150",
            "--seeds",
            "7",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("plan"), "{out}");
        assert!(out.contains("tiny_cnn"), "{out}");
        assert!(out.contains("portfolio:"), "{out}");
        // Second submission of the identical scenario hits the cache.
        let out = run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--network",
            "tiny_cnn",
            "--episodes",
            "150",
            "--seeds",
            "7",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("[cache hit]"), "{out}");
        let stats =
            run(&parse_args(&argv(&["submit", "--addr", &addr, "--request", "stats"])).unwrap())
                .unwrap();
        assert!(stats.contains("plan cache: 1 hits"), "{stats}");
        server.shutdown();
    }

    /// `--protocol 2` pins JSON framing, `--protocol 3` (the default)
    /// negotiates binary — both must produce the same rendered plan for
    /// the same scenario, cache hit included.
    #[test]
    fn submit_protocol_flag_selects_the_wire_framing() {
        let server = qsdnn_serve::start_local().expect("server");
        let addr = server.local_addr().to_string();
        let submit = |protocol: &str| {
            run(&parse_args(&argv(&[
                "submit",
                "--addr",
                &addr,
                "--network",
                "tiny_cnn",
                "--episodes",
                "140",
                "--seeds",
                "3",
                "--protocol",
                protocol,
            ]))
            .unwrap())
            .unwrap()
        };
        let via_v2 = submit("2");
        assert!(via_v2.contains("tiny_cnn"), "{via_v2}");
        // The v3 repeat is a cache hit served from the preserialized
        // binary body; the rendered plan must match the JSON one.
        let via_v3 = submit("3");
        assert!(via_v3.contains("[cache hit]"), "{via_v3}");
        let normalize = |s: &str| -> String {
            s.replace("[cache hit]", "")
                .lines()
                .map(str::trim_end)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            normalize(&via_v2),
            normalize(&via_v3),
            "wire framing changed the rendered plan"
        );
        let err = run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--request",
            "stats",
            "--protocol",
            "9",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("unsupported --protocol"), "{err}");
        server.shutdown();
    }

    #[test]
    fn submit_networks_pipelines_a_batch_over_one_connection() {
        let server = qsdnn_serve::start_local().expect("server");
        let addr = server.local_addr().to_string();
        let out = run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--networks",
            "tiny_cnn, toy_branchy",
            "--episodes",
            "120",
            "--seeds",
            "3",
        ]))
        .unwrap())
        .unwrap();
        assert!(
            out.contains("2 plans pipelined over one connection"),
            "{out}"
        );
        assert!(out.contains("for tiny_cnn"), "{out}");
        assert!(out.contains("for toy_branchy"), "{out}");
        // The server really saw tagged (v2) requests.
        let stats =
            run(&parse_args(&argv(&["submit", "--addr", &addr, "--request", "stats"])).unwrap())
                .unwrap();
        assert!(stats.contains("2 pipelined"), "{stats}");
        // An empty list is rejected before touching the server.
        let err = run(&parse_args(&argv(&["submit", "--addr", &addr, "--networks", ","])).unwrap())
            .unwrap_err();
        assert!(err.contains("at least one name"), "{err}");
        // Conflicting --network/--networks is an error, not a silent drop.
        let err = run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--network",
            "vgg16",
            "--networks",
            "lenet5,tiny_cnn",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        server.shutdown();
    }

    #[test]
    fn transfer_and_batches_parsing() {
        assert_eq!(parse_transfer("auto").unwrap(), TransferMode::Auto);
        assert_eq!(parse_transfer("off").unwrap(), TransferMode::Off);
        assert!(parse_transfer("on").is_err());
        assert_eq!(parse_batches("1,2,4,8").unwrap(), vec![1, 2, 4, 8]);
        assert_eq!(parse_batches(" 2 , 16 ").unwrap(), vec![2, 16]);
        assert!(parse_batches("").is_err());
        assert!(parse_batches("1,0").is_err(), "batch 0 is invalid");
        assert!(parse_batches("1,x").is_err());
        // A bad serve transfer flag is a clean error, not a started server.
        let err = run(&parse_args(&argv(&["serve", "--transfer", "on"])).unwrap()).unwrap_err();
        assert!(err.contains("unknown transfer mode"), "{err}");
    }

    #[test]
    fn submit_batches_sweeps_warm_starts_over_one_connection() {
        let server = qsdnn_serve::start_local().expect("server");
        let addr = server.local_addr().to_string();
        let out = run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--network",
            "tiny_cnn",
            "--batches",
            "1,2,4",
            "--episodes",
            "150",
            "--seeds",
            "7",
        ]))
        .unwrap())
        .unwrap();
        assert!(
            out.contains("3 batch sizes swept over one connection"),
            "{out}"
        );
        assert!(out.contains("batch 1: "), "{out}");
        assert!(out.contains("batch 4: "), "{out}");
        // The first batch is a cold start; every later one prints its
        // warm-start provenance (donor key + distance + episode budget).
        assert!(out.contains("cold start"), "{out}");
        assert!(out.contains("warm start: donor "), "{out}");
        let warm_lines = out.matches("warm start: donor ").count();
        assert_eq!(warm_lines, 2, "batches 2 and 4 warm-start: {out}");
        // Stats confirm the server really transferred.
        let stats =
            run(&parse_args(&argv(&["submit", "--addr", &addr, "--request", "stats"])).unwrap())
                .unwrap();
        assert!(stats.contains("transfer (auto):"), "{stats}");
        assert!(!stats.contains("transfer (auto): 0 hits"), "{stats}");
        // Conflicting flags are rejected before touching the server.
        let err = run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--network",
            "x",
            "--batch",
            "2",
            "--batches",
            "1,2",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--networks",
            "a,b",
            "--batches",
            "1,2",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("one --network"), "{err}");
        server.shutdown();
    }

    #[test]
    fn submit_events_and_tasks_surface_the_flight_recorder() {
        let server = qsdnn_serve::start_local().expect("server");
        let addr = server.local_addr().to_string();
        // Drive one plan so the journal has request/cache/stage events.
        run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--network",
            "tiny_cnn",
            "--episodes",
            "120",
            "--seeds",
            "3",
        ]))
        .unwrap())
        .unwrap();
        let out =
            run(&parse_args(&argv(&["submit", "--addr", &addr, "--request", "events"])).unwrap())
                .unwrap();
        assert!(out.contains("flight recorder: on"), "{out}");
        assert!(out.contains("request_begin"), "{out}");
        assert!(out.contains("cache_miss"), "{out}");
        let out =
            run(&parse_args(&argv(&["submit", "--addr", &addr, "--request", "tasks"])).unwrap())
                .unwrap();
        assert!(out.contains("thread"), "{out}");
        assert!(out.contains("state"), "{out}");
        server.shutdown();
    }

    #[test]
    fn top_renders_noninteractive_frames() {
        let server = qsdnn_serve::start_local().expect("server");
        let addr = server.local_addr().to_string();
        run(&parse_args(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--network",
            "tiny_cnn",
            "--episodes",
            "120",
            "--seeds",
            "3",
        ]))
        .unwrap())
        .unwrap();
        let out = run(&parse_args(&argv(&[
            "top",
            "--addr",
            &addr,
            "--frames",
            "2",
            "--interval-ms",
            "50",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("qsdnn-top"), "{out}");
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("plan key"), "{out}");
        server.shutdown();
    }

    #[test]
    fn end_to_end_profile_search_report_via_tempfiles() {
        let dir = std::env::temp_dir().join("qsdnn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let lut_path = dir.join("lut.json");
        let report_path = dir.join("report.json");
        let lut_s = lut_path.to_str().unwrap();
        let report_s = report_path.to_str().unwrap();

        let out = run(&parse_args(&argv(&[
            "profile",
            "--network",
            "lenet5",
            "--mode",
            "gpgpu",
            "--repeats",
            "2",
            "--out",
            lut_s,
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("profiled lenet5"));

        let out = run(&parse_args(&argv(&[
            "search",
            "--lut",
            lut_s,
            "--episodes",
            "200",
            "--out",
            report_s,
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("qs-dnn on lenet5"));

        let out =
            run(&parse_args(&argv(&["report", "--lut", lut_s, "--report", report_s])).unwrap())
                .unwrap();
        assert!(out.contains("per-layer primitives"));
        assert!(out.contains("conv1"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
