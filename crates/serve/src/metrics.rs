//! Server-side instrumentation: request spans, stage histograms, and the
//! event-loop/pool health gauges.
//!
//! Every request carries a [`RequestSpan`] from the byte that framed it
//! to the byte that acknowledged it. The span accumulates per-stage
//! durations (`parse → queue → profile → cache → search → serialize →
//! write`) and is observed exactly once into the server's
//! [`ServeMetrics`] — request and stage latency histograms, plus the
//! slow-request log. Spans are plain data (`Send`), so the reactor can
//! carry them from its thread through a dispatcher and back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qsdnn_obs::log::FieldValue;
use qsdnn_obs::{Counter, EventKind, FlightRecorder, Gauge, Histogram, Registry, Snapshot};

use crate::protocol::{
    HistogramMsg, MetricFamily, MetricSample, MetricValue, Request, StageTiming, TraceInfo,
};

/// Pipeline stages of one request, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Frame → `Request` parse time.
    Parse,
    /// Dispatch queue wait (enqueue → a worker picks the request up).
    Queue,
    /// Phase-1 profiling (or profile-cache lookup) time.
    Profile,
    /// Plan-cache lookup/index time (excludes the search it may trigger).
    Cache,
    /// Portfolio search / transfer warm-start time.
    Search,
    /// Response → bytes serialization time.
    Serialize,
    /// Outbox write time (queue → last byte handed to the kernel).
    Write,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub(crate) const ALL: [Stage; 7] = [
        Stage::Parse,
        Stage::Queue,
        Stage::Profile,
        Stage::Cache,
        Stage::Search,
        Stage::Serialize,
        Stage::Write,
    ];

    /// Lowercase label (histogram `stage` label, trace stage name).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Profile => "profile",
            Stage::Cache => "cache",
            Stage::Search => "search",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }
}

/// Request kinds, the `kind` label of `qsdnn_request_us`. `error` covers
/// lines that never parsed into a request.
pub(crate) const KINDS: [&str; 10] = [
    "ping",
    "profile",
    "search",
    "plan",
    "stats",
    "metrics",
    "platforms",
    "events",
    "tasks",
    "error",
];

/// Task-table kind id for a search worker running a portfolio-member job.
/// Lives outside the [`KINDS`] index range on purpose: pool jobs are not
/// requests.
pub(crate) const TASK_KIND_SEARCH_JOB: u16 = 100;

/// Task-table kind id for a dispatcher running a whole request.
pub(crate) const TASK_KIND_DISPATCH_JOB: u16 = 101;

/// Index of a kind label in [`KINDS`] (unknown labels fold into `error`).
/// Doubles as the flight recorder's request/task-kind id space, extended
/// by the pool-job ids [`TASK_KIND_SEARCH_JOB`]/[`TASK_KIND_DISPATCH_JOB`].
pub(crate) fn kind_index(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(KINDS.len() - 1)
}

/// The `kind` label for a parsed request.
pub(crate) fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::Ping { .. } => "ping",
        Request::Profile(_) => "profile",
        Request::Search(_) => "search",
        Request::Plan(_) => "plan",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Platforms => "platforms",
        Request::Events => "events",
        Request::Tasks => "tasks",
    }
}

/// Whether the client asked for its span to be echoed in the response.
pub(crate) fn trace_requested(req: &Request) -> bool {
    match req {
        Request::Search(r) => r.trace,
        Request::Plan(r) => r.trace,
        _ => false,
    }
}

/// Per-request span: birth instant plus accumulated stage durations.
///
/// Inactive spans (instrumentation disabled) skip every clock read; the
/// only cost left on the hot path is a branch.
#[derive(Debug)]
pub(crate) struct RequestSpan {
    kind: &'static str,
    active: bool,
    trace: bool,
    start: Instant,
    stages: [Duration; Stage::ALL.len()],
    /// Flight-recorder request serial (0 when the recorder is off).
    serial: u64,
    /// Plan key the request resolved to, packed (0 = none/unknown).
    key: u64,
}

impl RequestSpan {
    /// Accumulates `d` into a stage.
    pub(crate) fn record(&mut self, stage: Stage, d: Duration) {
        if self.active {
            self.stages[stage as usize] += d;
        }
    }

    /// Times `f` into a stage (runs it untimed when inactive).
    pub(crate) fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.active {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed());
        out
    }

    /// Re-labels the span once the request kind is known.
    pub(crate) fn set_kind(&mut self, kind: &'static str) {
        self.kind = kind;
    }

    /// Total duration accumulated into one stage so far.
    pub(crate) fn stage_total(&self, stage: Stage) -> Duration {
        self.stages[stage as usize]
    }

    /// Marks that the client asked for a trace echo.
    pub(crate) fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
    }

    /// The flight-recorder request serial (0 = recorder off).
    pub(crate) fn serial(&self) -> u64 {
        self.serial
    }

    /// Records the packed plan key the request resolved to.
    pub(crate) fn set_key(&mut self, key: u64) {
        self.key = key;
    }

    /// The span's kind label.
    pub(crate) fn kind(&self) -> &'static str {
        self.kind
    }

    /// Whether a trace echo was requested (and the span can supply one).
    pub(crate) fn trace_requested(&self) -> bool {
        self.trace && self.active
    }

    /// The span's age.
    pub(crate) fn total(&self) -> Duration {
        self.start.elapsed()
    }

    /// Builds the client-facing echo: stages with nonzero time so far, in
    /// pipeline order. Called before serialization, so `serialize` and
    /// `write` can never appear — documented on `TraceInfo`.
    pub(crate) fn trace_info(&self) -> TraceInfo {
        let stages = Stage::ALL
            .iter()
            .filter(|&&s| !self.stages[s as usize].is_zero())
            .map(|&s| StageTiming {
                stage: s.as_str().to_string(),
                ms: self.stages[s as usize].as_secs_f64() * 1e3,
            })
            .collect();
        TraceInfo {
            stages,
            total_ms: self.total().as_secs_f64() * 1e3,
        }
    }
}

/// All instruments the serve stack records into, pre-registered so the
/// exposition endpoint lists every family from the first scrape.
pub(crate) struct ServeMetrics {
    enabled: bool,
    slow: Option<Duration>,
    /// This server's own registry: concurrent servers in one process
    /// never mix counters.
    registry: Registry,
    /// The always-on flight recorder (journal, task table, exemplars).
    recorder: Arc<FlightRecorder>,
    request_us: Vec<Arc<Histogram>>,
    stage_us: Vec<Arc<Histogram>>,
    slow_requests: Arc<Counter>,
    /// Open client connections.
    pub(crate) connections: Arc<Gauge>,
    /// Microseconds the reactor spent blocked in its last readiness wait.
    pub(crate) reactor_wait_stall_us: Arc<Gauge>,
    /// Ready events delivered by the last readiness wait.
    pub(crate) reactor_ready_events: Arc<Gauge>,
    /// Time spent processing one reactor wakeup.
    pub(crate) reactor_loop_us: Arc<Histogram>,
    /// Largest single-connection outbox observed, bytes.
    pub(crate) outbox_high_water_bytes: Arc<Gauge>,
    /// Search-pool gauges, handed to the `WorkerPool`.
    pub(crate) search_pool: crate::pool::PoolGauges,
    /// Dispatcher-pool gauges, handed to the `qsdnn-dispatch` pool.
    pub(crate) dispatch_pool: crate::pool::PoolGauges,
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("enabled", &self.enabled)
            .field("slow", &self.slow)
            .finish()
    }
}

impl ServeMetrics {
    /// Registers every serve-level instrument in a fresh registry.
    pub(crate) fn new(enabled: bool, slow_ms: u64, recorder: Arc<FlightRecorder>) -> ServeMetrics {
        let registry = Registry::new();
        registry
            .gauge(
                "qsdnn_build_info",
                "Build metadata carried in labels; the value is always 1",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("git_hash", env!("QSDNN_GIT_HASH")),
                ],
            )
            .set(1);
        let request_us = KINDS
            .iter()
            .map(|kind| {
                registry.histogram(
                    "qsdnn_request_us",
                    "End-to-end request latency, by request kind",
                    &[("kind", kind)],
                )
            })
            .collect();
        let stage_us = Stage::ALL
            .iter()
            .map(|s| {
                registry.histogram(
                    "qsdnn_request_stage_us",
                    "Per-stage request latency",
                    &[("stage", s.as_str())],
                )
            })
            .collect();
        let slow_requests = registry.counter(
            "qsdnn_slow_requests_total",
            "Requests whose total span exceeded the slow threshold",
            &[],
        );
        let connections = registry.gauge("qsdnn_connections", "Open client connections", &[]);
        let reactor_wait_stall_us = registry.gauge(
            "qsdnn_reactor_wait_stall_us",
            "Microseconds the reactor was blocked in its last readiness wait",
            &[],
        );
        let reactor_ready_events = registry.gauge(
            "qsdnn_reactor_ready_events",
            "Ready events delivered by the reactor's last readiness wait",
            &[],
        );
        let reactor_loop_us = registry.histogram(
            "qsdnn_reactor_loop_us",
            "Time spent processing one reactor wakeup",
            &[],
        );
        let outbox_high_water_bytes = registry.gauge(
            "qsdnn_outbox_high_water_bytes",
            "Largest single-connection outbox observed",
            &[],
        );
        let pool_gauges = |pool: &str| crate::pool::PoolGauges {
            queue_depth: registry.gauge(
                "qsdnn_pool_queue_depth",
                "Jobs queued but not yet picked up, by pool",
                &[("pool", pool)],
            ),
            busy: registry.gauge(
                "qsdnn_pool_busy_workers",
                "Workers currently running a job, by pool",
                &[("pool", pool)],
            ),
        };
        let search_pool = pool_gauges("search");
        let dispatch_pool = pool_gauges("dispatch");
        ServeMetrics {
            enabled,
            slow: (slow_ms > 0).then(|| Duration::from_millis(slow_ms)),
            registry,
            recorder,
            request_us,
            stage_us,
            slow_requests,
            connections,
            reactor_wait_stall_us,
            reactor_ready_events,
            reactor_loop_us,
            outbox_high_water_bytes,
            search_pool,
            dispatch_pool,
        }
    }

    /// Whether per-request instrumentation is on.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// The registry all serve instruments live in.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The server's flight recorder.
    pub(crate) fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Opens a span for a request of (not yet necessarily known) kind,
    /// allocating its flight-recorder serial.
    pub(crate) fn span(&self, kind: &'static str) -> RequestSpan {
        RequestSpan {
            kind,
            active: self.enabled,
            trace: false,
            start: Instant::now(),
            stages: [Duration::ZERO; Stage::ALL.len()],
            serial: if self.recorder.enabled() {
                self.recorder.next_serial()
            } else {
                0
            },
            key: 0,
        }
    }

    /// Observes a finished span: request + stage histograms, the
    /// journal's stage/end events, the slow-request warn event and slow
    /// exemplar when the total crossed the threshold. Call exactly once
    /// per span.
    pub(crate) fn observe(&self, span: &RequestSpan) {
        let total = span.total();
        let kind_index = kind_index(span.kind);
        if self.recorder.enabled() && span.serial != 0 {
            // One ring access for the whole breakdown: the per-emit cost
            // is the hook lookup + clock read, and this runs per request.
            let mut batch = [(EventKind::RequestEnd, 0u64, 0u64, 0u64); Stage::ALL.len() + 1];
            let mut n = 0;
            for stage in Stage::ALL {
                let d = span.stages[stage as usize];
                if !d.is_zero() {
                    batch[n] = (
                        EventKind::StageEnd,
                        span.key,
                        stage as u64,
                        d.as_micros() as u64,
                    );
                    n += 1;
                }
            }
            batch[n] = (
                EventKind::RequestEnd,
                span.key,
                kind_index as u64,
                total.as_micros() as u64,
            );
            n += 1;
            self.recorder.emit_batch(span.serial, &batch[..n]);
            if let Some(threshold) = self.slow {
                if total > threshold {
                    self.recorder.capture_exemplar(
                        kind_index as u16,
                        span.serial,
                        total.as_micros() as u64,
                        span.key,
                        false,
                    );
                }
            }
        }
        if !span.active {
            return;
        }
        self.request_us[kind_index].record_duration(total);
        for stage in Stage::ALL {
            let d = span.stages[stage as usize];
            if !d.is_zero() {
                self.stage_us[stage as usize].record_duration(d);
            }
        }
        if let Some(threshold) = self.slow {
            if total > threshold {
                self.slow_requests.inc();
                let mut fields: Vec<(&str, FieldValue)> = vec![
                    ("kind", FieldValue::from(span.kind)),
                    ("total_ms", FieldValue::from(total.as_secs_f64() * 1e3)),
                ];
                for stage in Stage::ALL {
                    let d = span.stages[stage as usize];
                    if !d.is_zero() {
                        fields.push((stage.as_str(), FieldValue::from(d.as_secs_f64() * 1e3)));
                    }
                }
                qsdnn_obs::log::warn("slow_request", &fields);
            }
        }
    }

    /// Journals a handler panic and captures the request's journal
    /// excerpt as a panic exemplar. Called from the dispatch firewall;
    /// the span is still observed afterwards.
    pub(crate) fn capture_panic(&self, span: &RequestSpan) {
        if !self.recorder.enabled() || span.serial == 0 {
            return;
        }
        let kind_index = kind_index(span.kind);
        self.recorder.emit_for(
            span.serial,
            EventKind::HandlerPanic,
            span.key,
            kind_index as u64,
            0,
        );
        self.recorder.capture_exemplar(
            kind_index as u16,
            span.serial,
            span.total().as_micros() as u64,
            span.key,
            true,
        );
    }
}

/// Converts an observability snapshot into wire metric families.
pub(crate) fn families_from_snapshot(snap: &Snapshot) -> Vec<MetricFamily> {
    snap.families
        .iter()
        .map(|family| MetricFamily {
            name: family.name.clone(),
            help: family.help.clone(),
            kind: family.kind.as_str().to_string(),
            samples: family
                .samples
                .iter()
                .map(|sample| MetricSample {
                    labels: sample.labels.clone(),
                    value: match &sample.value {
                        qsdnn_obs::SampleValue::Counter(v) => MetricValue::Counter(*v),
                        qsdnn_obs::SampleValue::Gauge(v) => MetricValue::Gauge(*v),
                        qsdnn_obs::SampleValue::Histogram(h) => {
                            MetricValue::Histogram(HistogramMsg::from_snapshot(h))
                        }
                    },
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_metrics(slow_ms: u64) -> ServeMetrics {
        ServeMetrics::new(true, slow_ms, Arc::new(FlightRecorder::new(true)))
    }

    #[test]
    fn spans_accumulate_stages_and_feed_histograms() {
        let metrics = test_metrics(1000);
        let mut span = metrics.span("plan");
        span.record(Stage::Parse, Duration::from_micros(80));
        span.record(Stage::Search, Duration::from_micros(900));
        span.record(Stage::Search, Duration::from_micros(100));
        metrics.observe(&span);
        let snap = metrics.registry().snapshot();
        let request = snap
            .families
            .iter()
            .find(|f| f.name == "qsdnn_request_us")
            .expect("request family");
        let plan_sample = request
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "plan"))
            .expect("plan sample");
        match &plan_sample.value {
            qsdnn_obs::SampleValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        let stages = snap
            .families
            .iter()
            .find(|f| f.name == "qsdnn_request_stage_us")
            .expect("stage family");
        let search = stages
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "search"))
            .expect("search stage");
        match &search.value {
            // Two records into one span merge before observation.
            qsdnn_obs::SampleValue::Histogram(h) => {
                assert_eq!(h.count(), 1);
                assert!(h.sum() >= 1000);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn inactive_spans_observe_nothing() {
        let metrics = ServeMetrics::new(false, 1000, Arc::new(FlightRecorder::disabled()));
        let mut span = metrics.span("plan");
        span.record(Stage::Search, Duration::from_micros(500));
        metrics.observe(&span);
        let snap = metrics.registry().snapshot();
        for family in &snap.families {
            for sample in &family.samples {
                if let qsdnn_obs::SampleValue::Histogram(h) = &sample.value {
                    assert_eq!(h.count(), 0, "family {} recorded", family.name);
                }
            }
        }
    }

    #[test]
    fn slow_requests_emit_one_warn_event_with_the_breakdown() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel::<String>();
        qsdnn_obs::log::capture_to(move |line| {
            let _ = tx.send(line.to_string());
        });
        // Threshold 0 disables; threshold 1ms with a span older than that
        // fires exactly once.
        let metrics = test_metrics(1);
        let mut span = metrics.span("plan");
        span.record(Stage::Search, Duration::from_millis(30));
        std::thread::sleep(Duration::from_millis(5));
        metrics.observe(&span);
        qsdnn_obs::log::capture_to_stderr();
        let line = rx.recv_timeout(Duration::from_secs(1)).expect("warn event");
        assert!(line.contains("\"event\":\"slow_request\""), "line: {line}");
        assert!(line.contains("\"kind\":\"plan\""));
        assert!(line.contains("\"search\":30."));
        assert!(rx.try_recv().is_err(), "exactly one event");
    }

    #[test]
    fn trace_info_lists_only_touched_stages_in_order() {
        let metrics = test_metrics(0);
        let mut span = metrics.span("plan");
        span.set_trace(true);
        span.record(Stage::Search, Duration::from_micros(2000));
        span.record(Stage::Parse, Duration::from_micros(50));
        assert!(span.trace_requested());
        let info = span.trace_info();
        let names: Vec<&str> = info.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            ["parse", "search"],
            "pipeline order, zero stages dropped"
        );
        assert!(info.total_ms >= 0.0);
    }
}
