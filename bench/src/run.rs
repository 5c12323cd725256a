//! One run of one workload: set-up (repeated, timed), measured passes,
//! verification, traffic checks, and the rows that come out of it.
//!
//! A run is a sequence of passes over seeded input. The reported
//! throughput and latency percentiles are those of the median untraced
//! pass, so one disturbed second does not decide a run. With tracing on,
//! every second pass of a closed loop records spans; the end-to-end rows
//! still come from the untraced passes, and the difference between the
//! two kinds is `loadgen.trace_overhead_pct`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use qsdnn::baselines::solve_chain_dp;

use crate::infer;
use crate::layers;
use crate::loadgen::{closed_pass, open_run, PassOutcome, Sample, Served, Verifier};
use crate::service::{references, set_up, Service};
use crate::stats::{geomean, median, quantile, spread, MIB};
use crate::telemetry::{self, Window};
use crate::trace::Tracer;
use crate::verify::lut_for;
use crate::workloads::{
    fingerprint, pass_size, working_set, Class, Kind, Scenario, Spec, Stream, Traffic,
    MIX_FIXED_SECONDS,
};

/// How late (send time minus due time) a tenth of the generator's sends
/// may be before an open-loop run stops being an open loop. The p99 is
/// reported but does not decide: one 100 ms stall of the whole VM, which
/// the shared runner has a few of an hour, makes 1% of a run's sends late.
const MAX_LAG_P90_US: f64 = 25_000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Passes until this much time has been measured (the driver's mode).
    Seconds(f64),
    /// The workload's fixed pass count: byte-identical input on every
    /// commit, so count-type rows repeat exactly (`qsbench run`).
    Fixed,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Smoke mode: one set-up, short probe batches.
    pub quick: bool,
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    /// Interquartile range over passes (or set-up repetitions) as a share
    /// of the median, where the row is a median of several.
    pub spread: Option<f64>,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// Throughput of each pass in order, traced ones included: the time
    /// structure behind the median.
    pub pass_ops_s: Vec<f64>,
    pub rows: Vec<Row>,
    pub first_error: Option<String>,
    /// Per span name `(count, total ns, self ns)` of the traced passes.
    pub self_times: Vec<(String, u64, u64, u64)>,
}

#[derive(Default)]
struct Rows(Vec<Row>);

impl Rows {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push(Row {
            name: name.to_string(),
            value,
            spread: None,
        });
    }

    /// The median of `samples`, with their spread.
    fn put_median(&mut self, name: &str, samples: &[f64]) -> f64 {
        let value = median(samples);
        self.0.push(Row {
            name: name.to_string(),
            value,
            spread: Some(spread(samples)),
        });
        value
    }

    /// The rows about the generator itself that every kind of run has.
    fn generator(
        &mut self,
        latencies_us: &[f64],
        input_fnv: u64,
        untraced_ops_s: f64,
        traced_ops_s: Option<f64>,
    ) {
        self.put("loadgen.latency_p99_us", quantile(latencies_us, 0.99));
        self.put("loadgen.latency_p999_us", quantile(latencies_us, 0.999));
        self.put("loadgen.samples", latencies_us.len() as f64);
        // 48 bits of the fingerprint: exact in the f64 every row travels as.
        self.put("loadgen.input_fnv", (input_fnv & 0xFFFF_FFFF_FFFF) as f64);
        self.put(
            "loadgen.trace_overhead_pct",
            traced_ops_s.map_or(0.0, |traced| {
                (untraced_ops_s - traced) / untraced_ops_s * 100.0
            }),
        );
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path) -> Result<Self, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process: the server runs in it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn more_passes(budget: Budget, spec: &Spec, done: usize, trace: bool, started: Instant) -> bool {
    // A traced closed loop needs one pass of each kind.
    if trace && done < 2 {
        return true;
    }
    match budget {
        Budget::Seconds(s) => started.elapsed().as_secs_f64() < s,
        Budget::Fixed => done < spec.fixed_passes,
    }
}

fn latencies(samples: &[Sample], keep: impl Fn(Class) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s.class))
        .map(|s| s.latency_us)
        .collect()
}

/// Cuts an open-loop window into one-second slices by due time, so that
/// its rows are medians over slices the way a closed loop's are medians
/// over passes. Counts that belong to the window as a whole stay with the
/// first slice.
fn slices(mut window: PassOutcome) -> Vec<PassOutcome> {
    let n = (window.wall_s.ceil() as usize).max(1);
    let mut out: Vec<PassOutcome> = (0..n)
        .map(|i| PassOutcome {
            wall_s: (window.wall_s - i as f64).min(1.0),
            ..Default::default()
        })
        .collect();
    let samples = std::mem::take(&mut window.samples);
    out[0] = PassOutcome {
        wall_s: out[0].wall_s,
        ..window
    };
    for sample in samples {
        out[(sample.at_s as usize).min(n - 1)].samples.push(sample);
    }
    out
}

/// Median over passes of each pass's `q`-quantile.
fn pass_quantiles(
    passes: &[&PassOutcome],
    keep: impl Fn(Class) -> bool + Copy,
    q: f64,
) -> Vec<f64> {
    passes
        .iter()
        .map(|p| latencies(&p.samples, keep))
        .filter(|l| !l.is_empty())
        .map(|l| quantile(&l, q))
        .collect()
}

/// Values with how many verified replies each stands for. A hit's reply is
/// the one verified in set-up, so hits are booked as a count per scenario
/// instead of one entry per reply.
#[derive(Default)]
struct Weighted(Vec<(f64, u64)>);

impl Weighted {
    fn push(&mut self, value: f64, weight: u64) {
        if weight > 0 {
            self.0.push((value, weight));
        }
    }

    fn weight(&self) -> u64 {
        self.0.iter().map(|(_, w)| w).sum()
    }

    /// Summed in ascending order of value: replies arrive in whatever
    /// order the server finishes them, and a float sum that followed
    /// arrival order would differ in the last place between two runs of
    /// the same input.
    fn sum(&mut self) -> f64 {
        self.0.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.0.iter().map(|&(v, w)| v * w as f64).sum()
    }

    fn mean(&mut self) -> f64 {
        self.sum() / self.weight().max(1) as f64
    }

    fn median(&mut self) -> f64 {
        self.0.sort_by(|a, b| a.0.total_cmp(&b.0));
        let half = self.weight().div_ceil(2);
        let mut seen = 0;
        for &(v, w) in &self.0 {
            seen += w;
            if seen >= half {
                return v;
            }
        }
        0.0
    }
}

/// Geomean over the working-set scenarios of the mean (log) speed-up
/// served for each: per scenario first, then across scenarios, so how
/// often a scenario happened to be drawn does not move it. Replies at
/// fresh batches are left out: no two runs ask for the same ones.
fn plan_speedup(served: &[(Served, u64)], ws: &[Scenario]) -> f64 {
    let mut by_scenario: HashMap<Scenario, Weighted> = HashMap::new();
    for (s, n) in served {
        by_scenario
            .entry(s.scenario)
            .or_default()
            .push(s.speedup.ln(), *n);
    }
    let means: Vec<f64> = ws
        .iter()
        .filter_map(|scenario| by_scenario.remove(scenario))
        .map(|mut logs| logs.mean().exp())
        .collect();
    geomean(&means)
}

pub fn run(spec: &'static Spec, opts: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::new(&opts.out_dir)?;
    let mut tracer = Tracer::new(false);
    let mut outcome = match spec.kind {
        Kind::Infer => run_infer(spec, opts, &mut tracer)?,
        _ => run_socket(spec, opts, &mut tracer, &scratch.0)?,
    };
    if opts.trace {
        for (name, value) in layers::run(&mut tracer, opts.quick, &scratch.0)? {
            outcome.rows.push(Row {
                name,
                value,
                spread: None,
            });
        }
        let path = opts.out_dir.join(format!("trace-{}.jsonl", spec.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.self_times = tracer
            .self_times()
            .into_iter()
            .map(|(name, (n, total, own))| (name.to_string(), n, total, own))
            .collect();
    }
    Ok(outcome)
}

fn run_socket(
    spec: &'static Spec,
    opts: &Options,
    tracer: &mut Tracer,
    scratch: &Path,
) -> Result<Outcome, String> {
    let ws = working_set();
    let refs = references(&ws, spec.ws_episodes, spec.traffic != Traffic::Misses);

    // Set-up is timed several times over, and the *first* instance is the
    // measured one: a process that has already run and torn down other
    // servers keeps their malloc arenas, and its peak memory then depends
    // on which of them the new threads happen to land in.
    let timed_set_up = |rep: usize| -> Result<(Service, Verifier, f64), String> {
        let spill = spec.spill.then(|| scratch.join(format!("spill-{rep}")));
        let started = Instant::now();
        let (service, verifier) = set_up(spec, &ws, &refs, spill.as_deref())?;
        Ok((service, verifier, started.elapsed().as_secs_f64()))
    };
    let (mut service, mut verifier, first_setup_s) = timed_set_up(0)?;
    for (scenario, lut) in ws.iter().zip(&refs.luts) {
        verifier.luts.insert(*scenario, lut.clone());
    }

    let seconds = match opts.budget {
        Budget::Seconds(s) => s,
        Budget::Fixed => MIX_FIXED_SECONDS,
    };
    let mut stream = Stream::new(spec, opts.seed);
    let mut passes: Vec<(bool, PassOutcome)> = Vec::new();
    let mut open_ops_s = None;
    let mut input_fnv = 0u64;
    let mut op_base = 0u64;
    let before = telemetry::snapshot(&mut service.control)?;
    let started = Instant::now();
    loop {
        let index = passes.len();
        let mut ops = stream.pass(pass_size(spec, seconds));
        if index == 0 {
            input_fnv = fingerprint(&ops);
        }
        // Cost models for the searched requests, built outside the pass.
        for op in ops.iter().filter(|op| op.class != Class::Hit) {
            verifier
                .luts
                .entry(op.scenario)
                .or_insert_with(|| Arc::new(lut_for(&op.scenario)));
        }
        let pass = match spec.kind {
            Kind::Closed { window } => {
                let traced = opts.trace && index % 2 == 1;
                tracer.set_enabled(traced);
                let pass = closed_pass(
                    &mut service.load,
                    &mut ops,
                    window,
                    &verifier,
                    tracer,
                    op_base,
                );
                (traced, pass)
            }
            Kind::Open { rate_per_s } => {
                tracer.set_enabled(opts.trace);
                let pass = open_run(&mut service.load, &mut ops, rate_per_s, &verifier, tracer);
                (opts.trace, pass)
            }
            Kind::Infer => unreachable!("infer_host has no socket"),
        };
        tracer.set_enabled(false);
        op_base += ops.len() as u64;
        let broken = pass.1.first_error.is_some() && pass.1.samples.is_empty();
        if let Kind::Open { .. } = spec.kind {
            // One window, reported like passes: in one-second slices. Its
            // throughput is the window's: a slice holds what was *due* in
            // it, which is the schedule, not a measurement.
            let (traced, window) = pass;
            open_ops_s = Some(window.samples.len() as f64 / window.wall_s.max(f64::MIN_POSITIVE));
            passes.extend(slices(window).into_iter().map(|slice| (traced, slice)));
            break;
        }
        passes.push(pass);
        if broken || !more_passes(opts.budget, spec, passes.len(), opts.trace, started) {
            break;
        }
    }
    let after = telemetry::snapshot(&mut service.control)?;
    let peak_rss = peak_rss_mib();
    service.server.shutdown();
    let window = telemetry::window(&before, &after);
    let mut setup_s = vec![first_setup_s];
    for rep in 1..if opts.quick { 1 } else { spec.setup_reps } {
        let (service, _, seconds) = timed_set_up(rep)?;
        service.server.shutdown();
        setup_s.push(seconds);
    }

    let all: Vec<&PassOutcome> = passes.iter().map(|(_, p)| p).collect();
    let untraced: Vec<&PassOutcome> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<&PassOutcome> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    // An open loop is one window; traced or not, it is all there is.
    let measured = if untraced.is_empty() { &all } else { &untraced };
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let first_error = all.iter().find_map(|p| p.first_error.clone());

    let mut rows = Rows::default();
    rows.put_median("setup_s", &setup_s);
    let throughput = |ps: &[&PassOutcome]| -> Vec<f64> {
        ps.iter()
            .filter(|p| p.wall_s > 0.0)
            .map(|p| p.samples.len() as f64 / p.wall_s)
            .collect()
    };
    let untraced_ops_s = match open_ops_s {
        Some(ops_s) => {
            rows.put("throughput_ops_s", ops_s);
            ops_s
        }
        None => rows.put_median("throughput_ops_s", &throughput(measured)),
    };
    // On the mix the headline latencies are the hit class's: 90% of the
    // traffic, and what queues behind the searches. Misses have their own
    // row. Everywhere else there is one class and these are all requests.
    let mix = spec.traffic == Traffic::Mix;
    let headline = move |c: Class| !mix || c == Class::Hit;
    let p50 = rows.put_median("latency_p50_us", &pass_quantiles(measured, headline, 0.5));
    rows.put_median("latency_p90_us", &pass_quantiles(measured, headline, 0.9));
    rows.put("peak_rss_mib", peak_rss);

    // Every verified reply with how often it was served: searched replies
    // one by one, hits as counts of the replies verified in set-up.
    let mut served: Vec<(Served, u64)> = Vec::new();
    for (ws, reply) in verifier.served.iter().enumerate() {
        let count = all.iter().filter_map(|p| p.hits.get(ws)).sum();
        served.push((*reply, count));
    }
    served.extend(all.iter().flat_map(|p| p.searched.iter().map(|s| (*s, 1))));
    rows.put("plan_speedup_x", plan_speedup(&served, &ws));

    rows.put("fail_ratio", failed as f64 / attempted.max(1) as f64);
    if mix {
        let is_hit = |c| c == Class::Hit;
        let is_miss = |c| c != Class::Hit;
        rows.put_median("hit_p50_us", &pass_quantiles(measured, is_hit, 0.5));
        rows.put_median("hit_p90_us", &pass_quantiles(measured, is_hit, 0.9));
        rows.put_median("miss_p50_us", &pass_quantiles(measured, is_miss, 0.5));
        let ok: u64 = all.iter().map(|p| p.slo_ok).sum();
        rows.put("slo_ok_ratio", ok as f64 / attempted.max(1) as f64);
    }

    // Plan quality over every verified reply.
    let mut optimum: HashMap<Scenario, Option<f64>> = HashMap::new();
    let (mut gaps, mut rl_wins, mut bytes) = (
        Weighted::default(),
        Weighted::default(),
        Weighted::default(),
    );
    for (s, n) in &served {
        let best = *optimum.entry(s.scenario).or_insert_with(|| {
            verifier
                .luts
                .get(&s.scenario)
                .and_then(|lut| solve_chain_dp(lut))
                .map(|(_, cost)| cost)
        });
        if let Some(best) = best {
            gaps.push((s.cost_ms / best - 1.0) * 100.0, *n);
        }
        rl_wins.push(f64::from(u8::from(s.rl_won)), *n);
        bytes.push(s.reply_bytes as f64, *n);
    }
    rows.put("core.portfolio.rl_win_ratio", rl_wins.mean());
    rows.put("core.portfolio.chain_gap_pct", gaps.mean());

    // The generator's own rows.
    let pooled: Vec<f64> = measured
        .iter()
        .flat_map(|p| latencies(&p.samples, headline))
        .collect();
    rows.put("loadgen.reply_bytes_p50", bytes.median());
    let wall: f64 = all.iter().map(|p| p.wall_s).sum();
    rows.put(
        "loadgen.reply_mib_s",
        bytes.sum() / MIB / wall.max(f64::MIN_POSITIVE),
    );
    let lag: Vec<f64> = all.iter().flat_map(|p| p.lag_us.iter().copied()).collect();
    rows.put("loadgen.lag_p99_us", quantile(&lag, 0.99));
    let lag_p90 = quantile(&lag, 0.9);
    let traced_ops_s =
        (!untraced.is_empty() && !traced.is_empty()).then(|| median(&throughput(&traced)));
    rows.generator(&pooled, input_fnv, untraced_ops_s, traced_ops_s);
    rows.put("loadgen.reference_s", refs.seconds);

    // The server's account of the same window.
    for (name, value) in &window.rows {
        rows.put(name, *value);
    }
    rows.put("serve.residual_p50_us", p50 - window.request_p50_us);
    let cache = window.plan_cache;
    rows.put("serve.cache.hits", cache.hits as f64);
    rows.put("serve.cache.misses", cache.misses as f64);
    rows.put("serve.cache.coalesced", cache.coalesced as f64);
    rows.put("serve.cache.spill_loads", cache.spill_loads as f64);
    rows.put("serve.cache.evictions", cache.evictions as f64);
    rows.put("serve.cache.hit_ratio", cache.hit_ratio());
    rows.put(
        "serve.profile_cache.hit_ratio",
        window.profile_cache.hit_ratio(),
    );
    rows.put("serve.transfer.warm_starts", window.warm_starts as f64);
    let sent = |class: Class| -> u64 {
        all.iter()
            .flat_map(|p| p.samples.iter())
            .filter(|s| s.class == class)
            .count() as u64
    };
    let warm_sent = sent(Class::Warm);
    rows.put(
        "serve.transfer.hit_ratio",
        if warm_sent == 0 {
            0.0
        } else {
            window.transfer_hits as f64 / warm_sent as f64
        },
    );
    rows.put(
        "serve.pipeline.in_flight_peak",
        window.in_flight_peak as f64,
    );

    if failed == 0 {
        traffic_checks(
            spec,
            &window,
            attempted,
            warm_sent,
            sent(Class::Cold),
            lag_p90,
        )?;
    }
    Ok(Outcome {
        workload: spec.name,
        attempted,
        failed,
        passes: passes.len(),
        pass_ops_s: throughput(&all),
        rows: rows.0,
        first_error,
        self_times: Vec::new(),
    })
}

/// Did the run exercise what its workload claims? A run that did not is
/// invalid: it is refused, not reported.
fn traffic_checks(
    spec: &Spec,
    window: &Window,
    attempted: u64,
    warm: u64,
    cold: u64,
    lag_p90_us: f64,
) -> Result<(), String> {
    let cache = window.plan_cache;
    let bad = |what: String| Err(format!("{}: traffic check failed: {what}", spec.name));
    match spec.traffic {
        Traffic::Hits if spec.spill => {
            if (cache.spill_loads as f64) < 0.5 * attempted as f64 || cache.evictions == 0 {
                return bad(format!(
                    "{} spill loads and {} evictions in {attempted} requests",
                    cache.spill_loads, cache.evictions
                ));
            }
        }
        Traffic::Hits => {
            if cache.hits != attempted || cache.lookups() != attempted {
                return bad(format!("{cache:?} for {attempted} hits"));
            }
        }
        Traffic::Misses => {
            if cache.misses != attempted {
                return bad(format!("{} misses for {attempted} requests", cache.misses));
            }
        }
        Traffic::Mix => {
            if cache.misses != warm + cold {
                return bad(format!(
                    "{} misses for {warm} warm and {cold} cold requests",
                    cache.misses
                ));
            }
            if (window.transfer_hits as f64) < 0.9 * warm as f64 {
                return bad(format!(
                    "{} transfer hits for {warm} warm requests",
                    window.transfer_hits
                ));
            }
            if lag_p90_us > MAX_LAG_P90_US {
                return bad(format!(
                    "the generator ran {lag_p90_us:.0} µs late at p90 (limit {MAX_LAG_P90_US:.0})"
                ));
            }
        }
        Traffic::None => {}
    }
    Ok(())
}

fn run_infer(spec: &'static Spec, opts: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let reps = if opts.quick { 1 } else { spec.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut vanilla_ms: Vec<Vec<f64>> = vec![Vec::new(); infer::NETWORKS.len()];
    let mut prepared = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        prepared = infer::set_up(infer::inputs(opts.seed));
        setup_s.push(started.elapsed().as_secs_f64());
        for (times, p) in vanilla_ms.iter_mut().zip(&prepared) {
            times.push(p.vanilla_ms);
        }
    }
    let input_fnv = infer::fingerprint(&infer::inputs(opts.seed));

    let mut passes: Vec<(bool, infer::PassOutcome)> = Vec::new();
    let mut op_base = 0u64;
    let started = Instant::now();
    loop {
        let traced = opts.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let pass = infer::pass(&mut prepared, tracer, op_base);
        tracer.set_enabled(false);
        op_base += pass.attempted;
        passes.push((traced, pass));
        if !more_passes(opts.budget, spec, passes.len(), opts.trace, started) {
            break;
        }
    }
    let untraced: Vec<&infer::PassOutcome> =
        passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<&infer::PassOutcome> =
        passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let attempted: u64 = passes.iter().map(|(_, p)| p.attempted).sum();
    let failed: u64 = passes.iter().map(|(_, p)| p.failed).sum();
    let first_error = passes.iter().find_map(|(_, p)| p.first_error.clone());

    // One thread runs one inference at a time, so a pass's throughput is
    // its verified inferences over the time they took.
    let throughput = |ps: &[&infer::PassOutcome]| -> Vec<f64> {
        ps.iter()
            .filter(|p| !p.samples.is_empty())
            .map(|p| p.samples.len() as f64 / p.samples.iter().map(|s| s.1 / 1e6).sum::<f64>())
            .collect()
    };
    let quantiles = |q: f64| -> Vec<f64> {
        untraced
            .iter()
            .filter(|p| !p.samples.is_empty())
            .map(|p| quantile(&p.samples.iter().map(|s| s.1).collect::<Vec<_>>(), q))
            .collect()
    };
    let mut rows = Rows::default();
    rows.put_median("setup_s", &setup_s);
    let untraced_ops_s = rows.put_median("throughput_ops_s", &throughput(&untraced));
    rows.put_median("latency_p50_us", &quantiles(0.5));
    rows.put_median("latency_p90_us", &quantiles(0.9));
    rows.put("peak_rss_mib", peak_rss_mib());
    let predicted: Vec<f64> = prepared.iter().map(|p| p.predicted_speedup).collect();
    rows.put("plan_speedup_x", geomean(&predicted));
    rows.put("fail_ratio", failed as f64 / attempted.max(1) as f64);

    // Measured speed-up per network: median all-Vanilla wall time over the
    // median best-plan inference.
    let mut measured = Vec::new();
    for (i, times) in vanilla_ms.iter().enumerate() {
        let best: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.samples.iter())
            .filter(|s| s.0 == i)
            .map(|s| s.1 / 1e3)
            .collect();
        if !best.is_empty() {
            measured.push(median(times) / median(&best));
        }
    }
    rows.put("infer_speedup_x", geomean(&measured));

    let n = prepared.len().max(1) as f64;
    rows.put(
        "core.portfolio.rl_win_ratio",
        prepared.iter().filter(|p| p.rl_won).count() as f64 / n,
    );
    let gaps: Vec<f64> = prepared.iter().filter_map(|p| p.chain_gap_pct).collect();
    rows.put(
        "core.portfolio.chain_gap_pct",
        gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
    );
    rows.put(
        "engine.executor.conversions",
        prepared.iter().map(|p| p.conversions).sum::<usize>() as f64,
    );
    let pooled: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| s.1))
        .collect();
    let traced_ops_s = (!traced.is_empty()).then(|| median(&throughput(&traced)));
    rows.generator(&pooled, input_fnv, untraced_ops_s, traced_ops_s);
    Ok(Outcome {
        workload: spec.name,
        attempted,
        failed,
        passes: passes.len(),
        pass_ops_s: throughput(&passes.iter().map(|(_, p)| p).collect::<Vec<_>>()),
        rows: rows.0,
        first_error,
        self_times: Vec::new(),
    })
}
