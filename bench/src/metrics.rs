//! Every metric the benchmark reports: name, unit, direction, and for the
//! end-to-end ones the bound by which they may worsen. `BENCHMARK.json`
//! is generated from this table (`qsbench manifest`), and a test keeps
//! the committed file equal to it.
//!
//! Three scopes:
//!
//! * [`Scope::EndToEnd`] — what a user of the system sees; reported by
//!   every workload and never 0, as the driver's contract requires.
//! * [`Scope::Specific`] — end-to-end too, but defined on some workloads
//!   only (`hit_p50_us` needs a hit class). The contract has no place for
//!   those, so the manifest lists them with the per-layer metrics, and
//!   `qsbench agree` applies the bounds from this table.
//! * [`Scope::Layer`] — one layer's number; no bound. 0 where a layer
//!   does not take part in a workload (`serve.*` on `infer_host`).

use serde::Value;

use crate::json::{object, text};
use crate::workloads::{Kind, Spec, Traffic, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the reference value.
    Rel(f64),
    /// Absolute difference, for ratios that sit at 0 or 1.
    Abs(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    EndToEnd,
    Specific,
    Layer,
}

/// Which runs produce a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    /// Every run of every workload.
    Run,
    /// Runs that drive a server.
    Socket,
    /// `mix_open`: the only workload with more than one class.
    Mix,
    /// `infer_host`: the only workload that executes plans.
    Infer,
    /// The in-process layer pass of a traced run, whatever the workload.
    Probe,
}

impl On {
    pub fn applies(self, spec: &Spec, trace: bool) -> bool {
        match self {
            On::Run => true,
            On::Socket => spec.kind != Kind::Infer,
            On::Mix => spec.traffic == Traffic::Mix,
            On::Infer => spec.kind == Kind::Infer,
            On::Probe => trace,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub scope: Scope,
    pub bound: Option<Bound>,
    pub on: On,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        scope: Scope::EndToEnd,
        bound: Some(Bound::Rel(bound)),
        on: On::Run,
    }
}

const fn specific(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    on: On,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        scope: Scope::Specific,
        bound: Some(bound),
        on,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, on: On) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        scope: Scope::Layer,
        bound: None,
        on,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[MetricSpec] = &[
    // End to end, every workload.
    // Bounds are three times the run-to-run spread of the noisiest
    // workload on the 2-core runner (README, "Bounds").
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p90_us", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("plan_speedup_x", "x", Higher, 0.02),
    // End to end, where the workload has the class or the kernels.
    specific("fail_ratio", "ratio", Lower, Bound::Abs(0.001), On::Run),
    specific("hit_p50_us", "us", Lower, Bound::Rel(0.25), On::Mix),
    specific("hit_p90_us", "us", Lower, Bound::Rel(0.25), On::Mix),
    specific("miss_p50_us", "us", Lower, Bound::Rel(0.25), On::Mix),
    specific("slo_ok_ratio", "ratio", Higher, Bound::Abs(0.01), On::Mix),
    specific("infer_speedup_x", "x", Higher, Bound::Rel(0.15), On::Infer),
    // The server's own telemetry over the measured window.
    layer("serve.stage.parse_p50_us", "us", Lower, On::Socket),
    layer("serve.stage.queue_p50_us", "us", Lower, On::Socket),
    layer("serve.stage.profile_p50_us", "us", Lower, On::Socket),
    layer("serve.stage.cache_p50_us", "us", Lower, On::Socket),
    layer("serve.stage.search_p50_us", "us", Lower, On::Socket),
    layer("serve.stage.serialize_p50_us", "us", Lower, On::Socket),
    layer("serve.stage.write_p50_us", "us", Lower, On::Socket),
    layer("serve.request_p50_us", "us", Lower, On::Socket),
    layer("serve.residual_p50_us", "us", Lower, On::Socket),
    layer("serve.cache.hits", "count", Higher, On::Socket),
    layer("serve.cache.misses", "count", Lower, On::Socket),
    layer("serve.cache.coalesced", "count", Lower, On::Socket),
    layer("serve.cache.spill_loads", "count", Lower, On::Socket),
    layer("serve.cache.evictions", "count", Lower, On::Socket),
    layer("serve.cache.hit_ratio", "ratio", Higher, On::Socket),
    layer("serve.profile_cache.hit_ratio", "ratio", Higher, On::Socket),
    layer("serve.transfer.warm_starts", "count", Higher, On::Socket),
    layer("serve.transfer.hit_ratio", "ratio", Higher, On::Socket),
    layer("serve.pipeline.in_flight_peak", "count", Higher, On::Socket),
    layer("serve.reactor.loop_p50_us", "us", Lower, On::Socket),
    layer("serve.reactor.ready_events", "count", Higher, On::Socket),
    layer("serve.outbox.high_water_bytes", "bytes", Lower, On::Socket),
    // serve, in process.
    layer("serve.protocol.json_parse_req_ns", "ns", Lower, On::Probe),
    layer("serve.protocol.bin_parse_req_ns", "ns", Lower, On::Probe),
    layer("serve.protocol.frame_small_ns", "ns", Lower, On::Probe),
    layer(
        "serve.protocol.bin_decode_reply_mib_s",
        "MiB/s",
        Higher,
        On::Probe,
    ),
    layer(
        "serve.protocol.framebuf_bin_mib_s",
        "MiB/s",
        Higher,
        On::Probe,
    ),
    layer(
        "serve.protocol.json_encode_reply_mib_s",
        "MiB/s",
        Higher,
        On::Probe,
    ),
    layer(
        "serve.protocol.json_decode_reply_mib_s",
        "MiB/s",
        Higher,
        On::Probe,
    ),
    layer(
        "serve.protocol.framebuf_json_mib_s",
        "MiB/s",
        Higher,
        On::Probe,
    ),
    layer(
        "serve.protocol.bin_encode_reply_mib_s",
        "MiB/s",
        Higher,
        On::Probe,
    ),
    layer("serve.cache.peek_ns", "ns", Lower, On::Probe),
    layer("serve.cache.peek_2t_ns", "ns", Lower, On::Probe),
    layer("serve.cache.hit_get_ns", "ns", Lower, On::Probe),
    layer("serve.cache.wire_body_ns", "ns", Lower, On::Probe),
    layer("serve.cache.miss_insert_ns", "ns", Lower, On::Probe),
    layer("serve.cache.evict_insert_ns", "ns", Lower, On::Probe),
    layer("serve.cache.spill_reload_us", "us", Lower, On::Probe),
    layer("serve.transfer.nearest_us", "us", Lower, On::Probe),
    layer("serve.transfer.insert_us", "us", Lower, On::Probe),
    layer("serve.portfolio.parallel_ms", "ms", Lower, On::Probe),
    layer("serve.portfolio.parallel_speedup_x", "x", Higher, On::Probe),
    layer("serve.pool.roundtrip_us", "us", Lower, On::Probe),
    layer("serve.client.idle_roundtrip_us", "us", Lower, On::Probe),
    layer(
        "serve.client.idle_roundtrip_json_us",
        "us",
        Lower,
        On::Probe,
    ),
    // core and pbqp.
    layer("core.search.episodes_per_s", "1/s", Higher, On::Probe),
    layer("core.random.episodes_per_s", "1/s", Higher, On::Probe),
    layer("core.annealing.evals_per_s", "1/s", Higher, On::Probe),
    layer("core.chain_dp.solve_us", "us", Lower, On::Probe),
    layer("core.pbqp.search_us", "us", Lower, On::Probe),
    layer("core.portfolio.sequential_ms", "ms", Lower, On::Probe),
    layer("core.qtable.update_per_s", "1/s", Higher, On::Probe),
    layer("core.transfer.mapping_us", "us", Lower, On::Probe),
    layer("core.portfolio.rl_win_ratio", "ratio", Higher, On::Run),
    layer("core.portfolio.chain_gap_pct", "%", Lower, On::Run),
    layer("pbqp.solve_us", "us", Lower, On::Probe),
    // engine.
    layer("engine.profiler.layers_per_s", "1/s", Higher, On::Probe),
    layer("engine.lut.cost_evals_per_s", "1/s", Higher, On::Probe),
    layer("engine.lut.step_cost_ns", "ns", Lower, On::Probe),
    layer("engine.lut.fingerprint_us", "us", Lower, On::Probe),
    layer("engine.lut.with_objective_us", "us", Lower, On::Probe),
    layer("engine.scenario.of_us", "us", Lower, On::Probe),
    layer("engine.scenario.distance_ns", "ns", Lower, On::Probe),
    layer("engine.profiler.measured_lenet5_ms", "ms", Lower, On::Probe),
    layer("engine.executor.conversions", "count", Lower, On::Infer),
    // Kernels: work computed from shapes over measured time.
    layer("gemm.naive_gflops", "GFLOP/s", Higher, On::Probe),
    layer("gemm.blocked_gflops", "GFLOP/s", Higher, On::Probe),
    layer("gemm.packed_gflops", "GFLOP/s", Higher, On::Probe),
    layer("gemm.gemv_gflops", "GFLOP/s", Higher, On::Probe),
    layer(
        "primitives.conv_direct_vanilla_gflops",
        "GFLOP/s",
        Higher,
        On::Probe,
    ),
    layer(
        "primitives.conv_direct_opt_gflops",
        "GFLOP/s",
        Higher,
        On::Probe,
    ),
    layer(
        "primitives.conv_im2col_gflops",
        "GFLOP/s",
        Higher,
        On::Probe,
    ),
    layer(
        "primitives.conv_im2row_gflops",
        "GFLOP/s",
        Higher,
        On::Probe,
    ),
    layer(
        "primitives.conv_kn2row_gflops",
        "GFLOP/s",
        Higher,
        On::Probe,
    ),
    layer(
        "primitives.conv_winograd_gflops",
        "GFLOP/s",
        Higher,
        On::Probe,
    ),
    layer("primitives.depthwise_gflops", "GFLOP/s", Higher, On::Probe),
    layer("primitives.fc_gflops", "GFLOP/s", Higher, On::Probe),
    layer("primitives.pool_gib_s", "GiB/s", Higher, On::Probe),
    layer("primitives.weights_gen_ms", "ms", Lower, On::Probe),
    layer("tensor.to_layout_gib_s", "GiB/s", Higher, On::Probe),
    layer("nn.zoo.build_us", "us", Lower, On::Probe),
    // obs.
    layer("obs.hist.record_ns", "ns", Lower, On::Probe),
    layer("obs.recorder.emit_ns", "ns", Lower, On::Probe),
    layer("obs.registry.snapshot_us", "us", Lower, On::Probe),
    // The generator itself, so that its own cost is visible.
    layer("loadgen.latency_p99_us", "us", Lower, On::Run),
    layer("loadgen.latency_p999_us", "us", Lower, On::Run),
    layer("loadgen.samples", "count", Higher, On::Run),
    layer("loadgen.reply_bytes_p50", "bytes", Lower, On::Socket),
    layer("loadgen.reply_mib_s", "MiB/s", Higher, On::Socket),
    layer("loadgen.lag_p99_us", "us", Lower, On::Socket),
    layer("loadgen.input_fnv", "count", Higher, On::Run),
    layer("loadgen.trace_overhead_pct", "%", Lower, On::Run),
    layer("loadgen.reference_s", "s", Lower, On::Socket),
];

#[cfg(test)]
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    METRICS.iter().find(|m| m.name == name)
}

pub fn in_scope(scope: Scope) -> impl Iterator<Item = &'static MetricSpec> {
    METRICS.iter().filter(move |m| m.scope == scope)
}

/// Seconds one driver run measures: long enough that the median pass
/// outlasts the runner's few-second disturbances. With the oracle, three
/// set-ups and the layer pass a traced run takes about 17 s, so the
/// driver's 4 + 22 × 7 runs and two builds fit its 3420 s with a margin.
pub const RUN_SECONDS: u64 = 8;

fn better(b: Better) -> Value {
    text(match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    })
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
    ];
    let end_to_end = in_scope(Scope::EndToEnd)
        .map(|m| {
            let Some(Bound::Rel(bound)) = m.bound else {
                unreachable!("every end-to-end metric has a relative bound");
            };
            object(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", better(m.better)),
                ("bound", Value::Float(bound)),
            ])
        })
        .collect();
    let per_layer = METRICS
        .iter()
        .filter(|m| m.scope != Scope::EndToEnd)
        .map(|m| {
            object(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", better(m.better)),
            ])
        })
        .collect();
    object(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| text(c)).collect()),
        ),
        ("paths", Value::Array(vec![text("bench")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ])
}

pub fn manifest_text() -> String {
    let mut text = serde_json::to_string_pretty(&manifest()).expect("the manifest is shallow");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_contract_limits() {
        let names: HashSet<_> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), METRICS.len(), "metric names are used once");
        for m in METRICS {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(
                (1..=16).contains(&m.unit.len())
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        let e2e: Vec<_> = in_scope(Scope::EndToEnd).collect();
        assert!((1..=16).contains(&e2e.len()));
        assert!(e2e
            .iter()
            .all(|m| matches!(m.bound, Some(Bound::Rel(b)) if b > 0.0 && b <= 0.25)));
        let setup = spec("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(METRICS.len() - e2e.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_text().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_text(),
            "run `qsbench manifest > BENCHMARK.json`"
        );
    }
}
