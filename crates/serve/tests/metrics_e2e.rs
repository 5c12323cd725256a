//! Acceptance for the observability layer: the `metrics` wire request
//! and the Prometheus exposition endpoint both report per-stage latency
//! histograms with consistent quantiles under concurrent pipelined
//! load; `trace: true` echoes a span without changing a single plan
//! bit; and slow requests land in the structured log with a breakdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use qsdnn::engine::{Mode, Objective};
use qsdnn_serve::protocol::{
    HistogramMsg, MetricValue, MetricsResponse, PlanRequest, TransferMode,
};
use qsdnn_serve::{PlanClient, PlanServer, ServerConfig};

/// Every family the serve stack itself registers or synthesizes — the
/// catalog both exposure paths must list (global engine/core families
/// ride along but depend on process-wide test ordering, so they are
/// asserted separately).
const SERVE_FAMILIES: [&str; 20] = [
    "qsdnn_build_info",
    "qsdnn_recorder_events_total",
    "qsdnn_request_us",
    "qsdnn_request_stage_us",
    "qsdnn_slow_requests_total",
    "qsdnn_connections",
    "qsdnn_reactor_wait_stall_us",
    "qsdnn_reactor_ready_events",
    "qsdnn_reactor_loop_us",
    "qsdnn_outbox_high_water_bytes",
    "qsdnn_pool_queue_depth",
    "qsdnn_pool_busy_workers",
    "qsdnn_uptime_ms",
    "qsdnn_requests_total",
    "qsdnn_plans_total",
    "qsdnn_index_entries",
    "qsdnn_cache_entries",
    "qsdnn_cache_requests_total",
    "qsdnn_cache_evictions_total",
    "qsdnn_spill_corrupt_total",
];

fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        max_in_flight: 8,
        ..ServerConfig::default()
    }
}

fn plan_request(network: &str, episodes: usize, trace: bool) -> PlanRequest {
    PlanRequest {
        network: network.to_string(),
        batch: 1,
        mode: Mode::Gpgpu,
        objective: Objective::Latency,
        episodes,
        seeds: vec![0x5EED],
        transfer: TransferMode::Off,
        trace,
        platform: String::new(),
    }
}

/// Drives `clients` concurrent connections, each pipelining `per_client`
/// plan requests, and returns the total number of plan requests sent.
fn drive_load(addr: std::net::SocketAddr, clients: usize, per_client: usize) -> usize {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                let reqs: Vec<PlanRequest> = (0..per_client)
                    .map(|i| {
                        let net = ["tiny_cnn", "toy_branchy"][(c + i) % 2];
                        plan_request(net, 120 + (c + i) % 3, false)
                    })
                    .collect();
                let plans = client.plan_many(&reqs).expect("pipelined batch");
                assert_eq!(plans.len(), per_client);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("load thread");
    }
    clients * per_client
}

fn quantiles_ordered(h: &HistogramMsg, context: &str) {
    assert!(
        h.p50_us <= h.p90_us && h.p90_us <= h.p99_us && h.p99_us <= h.p999_us,
        "{context}: quantiles out of order: p50={} p90={} p99={} p999={}",
        h.p50_us,
        h.p90_us,
        h.p99_us,
        h.p999_us
    );
}

fn histogram<'a>(metrics: &'a MetricsResponse, family: &str, label: &str) -> &'a HistogramMsg {
    let sample = metrics
        .family(family)
        .unwrap_or_else(|| panic!("family {family} missing"))
        .samples
        .iter()
        .find(|s| s.labels.iter().any(|(_, v)| v == label))
        .unwrap_or_else(|| panic!("{family} has no sample labeled {label}"));
    match &sample.value {
        MetricValue::Histogram(h) => h,
        other => panic!("{family}{{{label}}} is not a histogram: {other:?}"),
    }
}

#[test]
fn metrics_request_reports_stage_histograms_under_pipelined_load() {
    let server = PlanServer::start(config()).expect("start server");
    let sent = drive_load(server.local_addr(), 4, 6);

    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let metrics = client.metrics().expect("metrics request");
    assert!(metrics.uptime_ms >= 1, "uptime must be monotonic and >= 1");
    for family in SERVE_FAMILIES {
        assert!(
            metrics.family(family).is_some(),
            "family {family} missing from the metrics response"
        );
    }
    // The load above ran cold searches, so the global engine/core
    // families must be registered by now too.
    for family in [
        "qsdnn_search_episodes_total",
        "qsdnn_portfolio_member_us",
        "qsdnn_profile_us",
    ] {
        assert!(
            metrics.family(family).is_some(),
            "global family {family} missing from the metrics response"
        );
    }

    // Every pipelined plan request was observed end to end.
    let plan_us = histogram(&metrics, "qsdnn_request_us", "plan");
    assert_eq!(plan_us.count as usize, sent, "one observation per plan");
    quantiles_ordered(plan_us, "qsdnn_request_us{kind=plan}");

    // Each pipeline stage saw traffic, with internally consistent
    // quantiles, and the wire form reconstructs into a snapshot that
    // re-derives the same quantiles (the mergeability contract).
    for stage in ["parse", "queue", "search", "cache", "serialize", "write"] {
        let h = histogram(&metrics, "qsdnn_request_stage_us", stage);
        assert!(h.count > 0, "stage {stage} never recorded");
        quantiles_ordered(h, stage);
        let snap = h.to_snapshot();
        assert_eq!(snap.count(), h.count, "stage {stage} roundtrip count");
        assert_eq!(snap.sum(), h.sum_us, "stage {stage} roundtrip sum");
        assert_eq!(snap.p50(), h.p50_us, "stage {stage} roundtrip p50");
        assert_eq!(snap.p99(), h.p99_us, "stage {stage} roundtrip p99");
    }

    // Synthesized counters agree with what the load sent.
    let requests = metrics
        .family("qsdnn_requests_total")
        .expect("requests family");
    match &requests.samples[0].value {
        MetricValue::Counter(n) => assert!(
            *n as usize >= sent,
            "{n} requests counted, at least {sent} sent"
        ),
        other => panic!("qsdnn_requests_total is not a counter: {other:?}"),
    }

    server.shutdown();
}

/// One parsed exposition sample: base series name, rendered label set,
/// numeric value.
struct PromSample {
    name: String,
    labels: String,
    value: f64,
}

/// A deliberately small Prometheus text-format parser: `# HELP`/`# TYPE`
/// headers plus `name{labels} value` samples. Returns the `HELP` table,
/// the `TYPE` table, and every sample; panics (failing the test) on any
/// malformed line.
#[allow(clippy::type_complexity)]
fn parse_exposition(
    body: &str,
) -> (
    Vec<(String, String)>,
    Vec<(String, String)>,
    Vec<PromSample>,
) {
    let mut helps = Vec::new();
    let mut types = Vec::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE name").to_string();
            let kind = parts.next().expect("TYPE kind").to_string();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "unknown TYPE {kind} for {name}"
            );
            types.push((name, kind));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("HELP line without text: {line}"));
            assert!(
                !help.trim().is_empty(),
                "family {name} has an empty HELP text"
            );
            helps.push((name.to_string(), help.to_string()));
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment line: {line}");
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in: {line}"));
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unterminated labels in: {line}"));
                (name.to_string(), labels.to_string())
            }
            None => (series.to_string(), String::new()),
        };
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    (helps, types, samples)
}

#[test]
fn prometheus_endpoint_serves_parseable_exposition_mid_load() {
    let server = PlanServer::start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..config()
    })
    .expect("start server");
    let scrape_addr = server.metrics_addr().expect("exposition bound");

    // Scrape while load is in flight — the snapshot must be coherent
    // regardless of what the request pipeline is doing.
    let addr = server.local_addr();
    let load = std::thread::spawn(move || drive_load(addr, 3, 5));
    let scrape = |path: &str| -> String {
        let mut conn = TcpStream::connect(scrape_addr).expect("scrape connect");
        write!(
            conn,
            "GET {path} HTTP/1.1\r\nHost: qsdnn\r\nConnection: close\r\n\r\n"
        )
        .expect("scrape request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("scrape response");
        response
    };
    let mid_load = scrape("/metrics");
    assert!(mid_load.starts_with("HTTP/1.1 200 OK\r\n"), "{mid_load}");
    load.join().expect("load thread");

    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "wrong content type: {head}"
    );

    let (helps, types, samples) = parse_exposition(body);
    for family in SERVE_FAMILIES {
        assert!(
            types.iter().any(|(n, _)| n == family),
            "family {family} missing a TYPE header"
        );
    }
    // Every declared family carries both headers, with non-empty HELP
    // text (the parser rejects empty HELP lines outright).
    for (name, _) in &types {
        assert!(
            helps.iter().any(|(n, _)| n == name),
            "family {name} has a TYPE header but no HELP header"
        );
    }
    for (name, _) in &helps {
        assert!(
            types.iter().any(|(n, _)| n == name),
            "family {name} has a HELP header but no TYPE header"
        );
    }

    // Build metadata rides as labels on a constant-1 gauge.
    let build = samples
        .iter()
        .find(|s| s.name == "qsdnn_build_info")
        .expect("qsdnn_build_info sample");
    assert_eq!(build.value, 1.0, "build info gauge must be constant 1");
    assert!(
        build.labels.contains("version=\""),
        "build info missing version label: {}",
        build.labels
    );
    assert!(
        build.labels.contains("git_hash=\""),
        "build info missing git_hash label: {}",
        build.labels
    );
    // Every sample's base series maps back to a declared family
    // (histograms expand to _bucket/_sum/_count).
    for s in &samples {
        let base = s
            .name
            .strip_suffix("_bucket")
            .or_else(|| s.name.strip_suffix("_sum"))
            .or_else(|| s.name.strip_suffix("_count"))
            .filter(|base| types.iter().any(|(n, k)| n == base && k == "histogram"))
            .unwrap_or(&s.name);
        assert!(
            types.iter().any(|(n, _)| n == base),
            "sample {} has no TYPE header",
            s.name
        );
    }

    // Histogram buckets must be cumulative: non-decreasing in `le` order
    // and capped by the series' +Inf bucket, which equals its _count.
    let stage_buckets: Vec<&PromSample> = samples
        .iter()
        .filter(|s| s.name == "qsdnn_request_stage_us_bucket")
        .collect();
    assert!(!stage_buckets.is_empty(), "no stage buckets exported");
    let series: std::collections::BTreeSet<String> = stage_buckets
        .iter()
        .map(|s| {
            s.labels
                .split(',')
                .filter(|l| !l.starts_with("le="))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    for key in &series {
        let mut last = -1.0;
        let mut inf = None;
        for s in &stage_buckets {
            let rest: Vec<&str> = s
                .labels
                .split(',')
                .filter(|l| !l.starts_with("le="))
                .collect();
            if rest.join(",") != *key {
                continue;
            }
            let le = s
                .labels
                .split(',')
                .find_map(|l| l.strip_prefix("le=\""))
                .and_then(|v| v.strip_suffix('"'))
                .expect("le label");
            assert!(
                s.value >= last,
                "{key}: bucket counts not cumulative at le={le}"
            );
            last = s.value;
            if le == "+Inf" {
                inf = Some(s.value);
            }
        }
        let inf = inf.unwrap_or_else(|| panic!("{key}: no +Inf bucket"));
        let count = samples
            .iter()
            .find(|s| s.name == "qsdnn_request_stage_us_count" && s.labels == *key)
            .unwrap_or_else(|| panic!("{key}: no _count sample"));
        assert_eq!(inf, count.value, "{key}: +Inf bucket != _count");
    }

    // Wrong paths and methods answer with errors, not metrics.
    assert!(scrape("/nope").starts_with("HTTP/1.1 404"));

    server.shutdown();
}

#[test]
fn tracing_echoes_a_span_without_changing_plan_bits() {
    let server = PlanServer::start(config()).expect("start server");
    let addr = server.local_addr();

    let mut plain = PlanClient::connect(addr).expect("connect");
    let mut traced = PlanClient::connect(addr).expect("connect");
    let cold = plain
        .plan(plan_request("tiny_cnn", 140, false))
        .expect("cold plan");
    assert!(!cold.cache_hit);
    assert!(cold.trace.is_none(), "untraced requests carry no trace");

    let hit = traced
        .plan(plan_request("tiny_cnn", 140, true))
        .expect("traced repeat");
    assert!(hit.cache_hit, "same scenario must be cache-served");
    let trace = hit.trace.as_ref().expect("trace echoed on request");
    assert!(trace.total_ms > 0.0);
    assert!(!trace.stages.is_empty(), "at least one stage timed");
    for s in &trace.stages {
        assert!(
            ["parse", "queue", "profile", "cache", "search"].contains(&s.stage.as_str()),
            "unexpected echoed stage {}",
            s.stage
        );
    }

    // The plan content itself is bit-identical: tracing only adds the
    // side-channel `trace` field.
    assert_eq!(cold.plan_key, hit.plan_key);
    assert_eq!(cold.best, hit.best);
    assert_eq!(cold.winner, hit.winner);
    assert_eq!(cold.members, hit.members);
    assert_eq!(cold.vanilla_cost_ms, hit.vanilla_cost_ms);

    server.shutdown();
}

#[test]
fn slow_requests_land_in_the_log_with_a_stage_breakdown() {
    use std::sync::mpsc;
    let (tx, rx) = mpsc::channel::<String>();
    qsdnn_obs::log::capture_to(move |line| {
        let _ = tx.send(line.to_string());
    });
    // Threshold 1 ms: every cold search is "slow" — given enough episodes
    // that even a release build on a fast machine searches for longer.
    let server = PlanServer::start(ServerConfig {
        slow_ms: 1,
        ..config()
    })
    .expect("start server");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let plan = client
        .plan(plan_request("toy_branchy", 2000, false))
        .expect("plan");
    assert!(!plan.cache_hit);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut slow_line = None;
    while std::time::Instant::now() < deadline {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(line) if line.contains("\"event\":\"slow_request\"") => {
                slow_line = Some(line);
                break;
            }
            _ => {}
        }
    }
    qsdnn_obs::log::capture_to_stderr();
    let line = slow_line.expect("a slow_request event for the cold plan");
    assert!(line.contains("\"kind\":\"plan\""), "line: {line}");
    assert!(line.contains("\"total_ms\":"), "line: {line}");
    assert!(line.contains("\"search\":"), "line: {line}");

    let metrics = client.metrics().expect("metrics");
    match &metrics
        .family("qsdnn_slow_requests_total")
        .expect("slow counter family")
        .samples[0]
        .value
    {
        MetricValue::Counter(n) => assert!(*n >= 1, "slow counter never ticked"),
        other => panic!("not a counter: {other:?}"),
    }

    server.shutdown();
}

/// A scraper whose request head dribbles in across multiple packets —
/// with a stall longer than any single read tick — must still get the
/// full exposition. The listener historically treated the first read
/// timeout as end-of-head, so a mid-head pause truncated the request
/// line and turned `GET /metrics` into a 404 for `GET /met`. The head
/// read now resumes across stalls up to an overall deadline; a scraper
/// that never finishes its head inside that deadline is answered 408
/// instead of holding the single-threaded listener forever.
#[test]
fn dribbling_scraper_still_gets_a_complete_exposition() {
    let server = PlanServer::start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..config()
    })
    .expect("start server");
    let scrape_addr = server.metrics_addr().expect("exposition bound");

    // Dribble: request line split mid-path, with the stall sized to
    // outlast the per-read tick many times over (and the pre-fix 2s
    // single-shot timeout) while staying inside the head deadline.
    let mut conn = TcpStream::connect(scrape_addr).expect("scrape connect");
    conn.write_all(b"GET /met").expect("first chunk");
    conn.flush().expect("flush first chunk");
    std::thread::sleep(Duration::from_millis(2300));
    conn.write_all(b"rics HTTP/1.1\r\nHost: qsdnn\r\nConnection: close\r\n\r\n")
        .expect("second chunk");
    conn.flush().expect("flush second chunk");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("scrape response");
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "dribbled head was not reassembled: {response}"
    );
    assert!(
        response.contains("qsdnn_build_info"),
        "dribbled scrape missing exposition body: {response}"
    );

    // A scraper that stalls forever mid-head is bounded by the deadline
    // and told why, rather than silently misparsed or held open.
    let mut stalled = TcpStream::connect(scrape_addr).expect("stalled connect");
    stalled
        .write_all(b"GET /metrics HTTP/1.1\r\n")
        .expect("partial head");
    stalled.flush().expect("flush partial head");
    let mut response = String::new();
    stalled
        .read_to_string(&mut response)
        .expect("stalled response");
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "stalled head should time out with 408: {response}"
    );

    server.shutdown();
}
