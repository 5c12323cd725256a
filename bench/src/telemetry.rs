//! The server's own account of a run: `metrics` and `stats` replies taken
//! before and after the measured window, turned into `serve.*` rows.
//!
//! Nothing here is a stopwatch of the benchmark's: these are the
//! histograms and counters the shipping server keeps anyway, read over
//! the wire. They double as traffic checks (did the run exercise what
//! its workload claims?).

use qsdnn_obs::HistogramSnapshot;
use qsdnn_serve::protocol::{MetricValue, MetricsResponse, StatsResponse};
use qsdnn_serve::{CacheStats, PlanClient};

const STAGES: [&str; 7] = [
    "parse",
    "queue",
    "profile",
    "cache",
    "search",
    "serialize",
    "write",
];

pub struct Snapshot {
    pub stats: StatsResponse,
    pub metrics: MetricsResponse,
}

pub fn snapshot(control: &mut PlanClient) -> Result<Snapshot, String> {
    Ok(Snapshot {
        stats: control.stats().map_err(|e| format!("stats: {e}"))?,
        metrics: control.metrics().map_err(|e| format!("metrics: {e}"))?,
    })
}

fn has_label(labels: &[(String, String)], key: &str, value: &str) -> bool {
    labels.iter().any(|(k, v)| k == key && v == value)
}

/// The histogram of `family` whose labels include `label` (any sample
/// when `label` is `None`).
fn histogram(
    metrics: &MetricsResponse,
    family: &str,
    label: Option<(&str, &str)>,
) -> HistogramSnapshot {
    let Some(family) = metrics.family(family) else {
        return HistogramSnapshot::empty();
    };
    for sample in &family.samples {
        if label.is_some_and(|(k, v)| !has_label(&sample.labels, k, v)) {
            continue;
        }
        if let MetricValue::Histogram(h) = &sample.value {
            return h.to_snapshot();
        }
    }
    HistogramSnapshot::empty()
}

fn gauge(metrics: &MetricsResponse, family: &str) -> f64 {
    metrics
        .family(family)
        .and_then(|f| f.samples.first())
        .map_or(0.0, |s| match &s.value {
            MetricValue::Gauge(v) => *v as f64,
            MetricValue::Counter(v) => *v as f64,
            _ => 0.0,
        })
}

/// Median of what a histogram recorded between two snapshots. The
/// server's histograms only grow, so the window is a bucket-wise
/// difference.
fn window_p50(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let earlier: std::collections::HashMap<usize, u64> = before
        .nonzero_buckets()
        .into_iter()
        .map(|(i, _, n)| (i, n))
        .collect();
    let entries: Vec<(usize, u64)> = after
        .nonzero_buckets()
        .into_iter()
        .map(|(i, _, n)| (i, n - earlier.get(&i).copied().unwrap_or(0).min(n)))
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot::from_raw(&entries, after.sum().saturating_sub(before.sum())).p50() as f64
}

/// Counter movement of one cache between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheWindow {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub spill_loads: u64,
    pub evictions: u64,
}

impl CacheWindow {
    fn between(before: &CacheStats, after: &CacheStats) -> Self {
        CacheWindow {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            coalesced: after.coalesced - before.coalesced,
            spill_loads: after.spill_loads - before.spill_loads,
            evictions: after.evictions - before.evictions,
        }
    }

    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.coalesced + self.spill_loads
    }

    /// Share of lookups answered from memory.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// What the server did during the measured window.
pub struct Window {
    pub plan_cache: CacheWindow,
    pub profile_cache: CacheWindow,
    pub warm_starts: u64,
    pub transfer_hits: u64,
    pub in_flight_peak: u64,
    /// `serve.stage.*`, `serve.request_p50_us` and the reactor rows.
    pub rows: Vec<(String, f64)>,
    pub request_p50_us: f64,
}

pub fn window(before: &Snapshot, after: &Snapshot) -> Window {
    let mut rows = Vec::new();
    for stage in STAGES {
        let label = Some(("stage", stage));
        rows.push((
            format!("serve.stage.{stage}_p50_us"),
            window_p50(
                &histogram(&before.metrics, "qsdnn_request_stage_us", label),
                &histogram(&after.metrics, "qsdnn_request_stage_us", label),
            ),
        ));
    }
    let plan = Some(("kind", "plan"));
    let request_p50_us = window_p50(
        &histogram(&before.metrics, "qsdnn_request_us", plan),
        &histogram(&after.metrics, "qsdnn_request_us", plan),
    );
    rows.push(("serve.request_p50_us".into(), request_p50_us));
    rows.push((
        "serve.reactor.loop_p50_us".into(),
        window_p50(
            &histogram(&before.metrics, "qsdnn_reactor_loop_us", None),
            &histogram(&after.metrics, "qsdnn_reactor_loop_us", None),
        ),
    ));
    // Gauges: the server keeps the last value, not a distribution.
    rows.push((
        "serve.reactor.ready_events".into(),
        gauge(&after.metrics, "qsdnn_reactor_ready_events"),
    ));
    rows.push((
        "serve.outbox.high_water_bytes".into(),
        gauge(&after.metrics, "qsdnn_outbox_high_water_bytes"),
    ));
    Window {
        plan_cache: CacheWindow::between(&before.stats.plan_cache, &after.stats.plan_cache),
        profile_cache: CacheWindow::between(
            &before.stats.profile_cache,
            &after.stats.profile_cache,
        ),
        warm_starts: after.stats.warm_starts - before.stats.warm_starts,
        transfer_hits: after.stats.transfer_hits - before.stats.transfer_hits,
        in_flight_peak: after.stats.in_flight_peak,
        rows,
        request_p50_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_p50_sees_only_what_was_recorded_in_between() {
        let h = qsdnn_obs::Histogram::new();
        for _ in 0..100 {
            h.record(10);
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.record(5_000);
        }
        let after = h.snapshot();
        let p50 = window_p50(&before, &after);
        assert!((4_500.0..=5_700.0).contains(&p50), "{p50}");
        assert_eq!(window_p50(&after, &after), 0.0);
    }
}
