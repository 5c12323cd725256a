//! Acceptance: the service answers reproducibly, run to run. One request
//! script runs against two fresh servers with identical configs; every
//! response must match bit for bit — modulo wall-clock and host-sizing
//! fields (`wall_time_ms`, `uptime_ms`, `workers`, `in_flight_peak`),
//! which no run can reproduce deterministically; those are range-checked
//! and then canonicalized before comparison. Inside the script, v3 replies
//! are pinned bit-identical to their v2 renderings with the learning curve
//! summarised.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use qsdnn::engine::{Mode, Objective};
use qsdnn::reproduce::lut;
use qsdnn_serve::protocol::{
    parse_binary_response, read_binary_frame_resumable, write_binary_message, write_message,
    FrameBuffer, MetricValue, PlanRequest, PlanResponse, Request, Response, ResponseFrame,
    SearchRequest, StatsResponse, TransferMode, MAX_FRAME_BYTES,
};
use qsdnn_serve::{summary_curve, PlanClient, PlanServer, ServerConfig};

fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        max_in_flight: 4,
        ..ServerConfig::default()
    }
}

fn plan_request(network: &str, episodes: usize) -> PlanRequest {
    PlanRequest {
        network: network.to_string(),
        batch: 1,
        mode: Mode::Gpgpu,
        objective: Objective::Latency,
        episodes,
        seeds: vec![0x5EED, 7],
        transfer: TransferMode::Off,
        trace: false,
        platform: String::new(),
    }
}

/// Zeroes the only nondeterministic fields a plan response carries.
fn normalize(mut plan: PlanResponse) -> PlanResponse {
    plan.best.wall_time_ms = 0.0;
    for member in &mut plan.members {
        member.wall_time_ms = 0.0;
    }
    plan
}

/// Property-checks the fields no run can reproduce exactly, then
/// canonicalizes them so the REST of the struct — every counter, cache
/// shard, and transfer field — is compared in full. `uptime_ms` must be
/// nonzero (the serve stack guarantees ≥ 1).
fn canonical_stats(mut stats: StatsResponse) -> StatsResponse {
    assert!(stats.uptime_ms > 0, "uptime must be monotonic and >= 1 ms");
    assert!(stats.workers > 0, "worker pool cannot be empty");
    assert!(
        (1..=stats.max_in_flight).contains(&stats.in_flight_peak),
        "in-flight peak {} outside [1, {}]",
        stats.in_flight_peak,
        stats.max_in_flight
    );
    stats.uptime_ms = 1;
    stats.workers = 1;
    stats.in_flight_peak = 1;
    // Whether two concurrent identical requests overlap on the
    // single-flight slot (one hit + one coalesced) or arrive a tick
    // apart (two hits) is scheduler timing, not service semantics —
    // the pipelined batch profiles the same two networks from six
    // dispatchers. Their *sum* is the deterministic quantity; fold it
    // so every other counter still compares exactly.
    for cache in [&mut stats.plan_cache, &mut stats.profile_cache] {
        cache.hits += cache.coalesced;
        cache.coalesced = 0;
    }
    for shard in stats
        .plan_cache_shards
        .iter_mut()
        .chain(stats.profile_cache_shards.iter_mut())
    {
        shard.hits += shard.coalesced;
        shard.coalesced = 0;
    }
    stats
}

/// Runs the whole script against one server and returns every observation
/// in a deterministic order, normalized for comparison.
fn run_script() -> Vec<String> {
    let server = PlanServer::start(config()).expect("start server");
    let addr = server.local_addr();
    let mut out = Vec::new();

    // 1. Raw framing: handshake, version rejection, a blank keepalive
    //    line, a malformed line, and a wrong-shape envelope.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let send_recv = |conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, bytes: &[u8]| {
        conn.write_all(bytes).expect("write");
        conn.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        line
    };
    let mut ping = Vec::new();
    write_message(&mut ping, &Request::Ping { version: 1 }).expect("serialize");
    out.push(send_recv(&mut raw, &mut reader, &ping));
    let mut bad_ping = Vec::new();
    write_message(&mut bad_ping, &Request::Ping { version: 99 }).expect("serialize");
    out.push(send_recv(&mut raw, &mut reader, &bad_ping));
    // A keepalive newline produces no reply; prepend it to a real request
    // to show it is skipped.
    let mut with_keepalive = b"\n  \n".to_vec();
    with_keepalive.extend_from_slice(&ping);
    out.push(send_recv(&mut raw, &mut reader, &with_keepalive));
    out.push(send_recv(&mut raw, &mut reader, b"{totally not json\n"));
    out.push(send_recv(&mut raw, &mut reader, b"{\"id\":3}\n"));
    // Invalid UTF-8: an error reply, and the connection stays usable (the
    // next step reuses it).
    out.push(send_recv(&mut raw, &mut reader, b"\"Stats\xff\xfe\"\n"));
    out.push(send_recv(&mut raw, &mut reader, &ping));
    // The same, but with a valid prefix stalled for 250 ms (so it arrives
    // in its own read) before the invalid bytes: the whole line must be
    // discarded — a stale prefix must not prepend itself to the next
    // (valid) request.
    raw.write_all(b"\"Sta").expect("valid prefix");
    raw.flush().expect("flush");
    std::thread::sleep(std::time::Duration::from_millis(250));
    out.push(send_recv(&mut raw, &mut reader, b"ts\xff\xfe\"\n"));
    out.push(send_recv(&mut raw, &mut reader, &ping));
    drop(raw);

    // 2. Typed clients: cold plan, cached repeat, a search over a
    //    client-supplied LUT, and a rejected request. The default client
    //    negotiates the v3 binary framing; a second client pinned to v2
    //    fetches the same cached plan so the decoded v3 response is
    //    pinned bit-identical to its JSON rendering with the curve
    //    summarised — the binary codec must be a pure transport change,
    //    including the zero-copy cached-body path the v3 hit exercises.
    let mut client = PlanClient::connect(addr).expect("connect");
    assert!(client.is_binary(), "default client must negotiate v3");
    let cold = client.plan(plan_request("tiny_cnn", 140)).expect("cold");
    assert!(!cold.cache_hit, "first plan must be a fresh search");
    out.push(format!("{:?}", normalize(cold)));
    let warm = client.plan(plan_request("tiny_cnn", 140)).expect("hit");
    assert!(warm.cache_hit, "repeat must be cache-served");
    out.push(format!("{:?}", normalize(warm)));
    let mut v2 = PlanClient::connect_with_version(addr, 2).expect("v2 connect");
    assert!(!v2.is_binary(), "v2 client must stay on JSON framing");
    let warm_v2 = v2.plan(plan_request("tiny_cnn", 140)).expect("v2 hit");
    assert!(warm_v2.cache_hit, "v2 repeat must be cache-served");
    let warm_v3 = client.plan(plan_request("tiny_cnn", 140)).expect("v3 hit");
    assert!(warm_v3.cache_hit, "v3 repeat must be cache-served");
    let (warm_v2, warm_v3) = (normalize(warm_v2), normalize(warm_v3));
    let mut summary = warm_v2.clone();
    summary.best.curve = summary_curve(&summary.best.curve);
    assert_eq!(
        warm_v3, summary,
        "v3 plan must decode bit-identical to v2 with its curve summarised"
    );
    out.push(format!("{warm_v2:?}"));
    out.push(format!("{warm_v3:?}"));
    let lut = lut("toy_branchy", 1, Mode::Gpgpu, 3);
    match client
        .request(&Request::Search(SearchRequest {
            lut,
            objective: Objective::Latency,
            episodes: 120,
            seeds: vec![11],
            transfer: TransferMode::Off,
            trace: false,
            platform: String::new(),
        }))
        .expect("search")
    {
        Response::Plan(plan) => out.push(format!("{:?}", normalize(plan))),
        other => panic!("search answered with {other:?}"),
    }
    let err = client
        .plan(plan_request("no_such_network", 10))
        .expect_err("unknown network");
    out.push(err.to_string());

    // 3. Pipelined batch (tagged envelopes through the cap), collected in
    //    request order.
    let reqs: Vec<PlanRequest> = (0..6)
        .map(|i| plan_request(["tiny_cnn", "toy_branchy"][i % 2], 150 + i))
        .collect();
    for plan in client.plan_many(&reqs).expect("pipelined batch") {
        out.push(format!("{:?}", normalize(plan)));
    }

    // 4. Raw v3 negotiation: a bare JSON ping with version 3 is answered
    //    with a JSON pong — the connection's last JSON line — after which
    //    both directions are binary. A binary Stats request must decode
    //    to the same canonical struct on every run.
    let mut raw3 = TcpStream::connect(addr).expect("raw v3 connect");
    let mut reader3 = BufReader::new(raw3.try_clone().expect("clone"));
    let mut ping3 = Vec::new();
    write_message(&mut ping3, &Request::Ping { version: 3 }).expect("serialize");
    out.push(send_recv(&mut raw3, &mut reader3, &ping3));
    write_binary_message(&mut raw3, None, &Request::Stats).expect("binary stats request");
    let mut frames = FrameBuffer::new();
    let frame = read_binary_frame_resumable(&mut reader3, &mut frames, MAX_FRAME_BYTES)
        .expect("binary stats reply")
        .expect("connection open");
    assert_eq!(frame.id, None, "bare request gets a bare reply");
    match parse_binary_response(&frame).expect("decode binary stats") {
        ResponseFrame::Untagged(Response::Stats(stats)) => {
            out.push(format!("{:?}", canonical_stats(stats)));
        }
        other => panic!("binary stats answered with {other:?}"),
    }
    drop(raw3);

    // 5. Final counters: both runs must have counted the same
    //    requests, plans, pipelined envelopes, hits and misses — the
    //    whole struct, not a field whitelist, so new counters are
    //    covered by default.
    let stats = client.stats().expect("stats");
    out.push(format!("{:?}", canonical_stats(stats)));

    // 6. One dispatcher pool: every request — bare ones included — runs
    //    on a `qsdnn-dispatch-N` thread, so the pool gauges and the task
    //    table read the same on every run.
    let metrics = client.metrics().expect("metrics");
    for family in ["qsdnn_pool_busy_workers", "qsdnn_pool_queue_depth"] {
        let dispatch = metrics
            .family(family)
            .and_then(|f| {
                f.samples.iter().find(|s| {
                    s.labels
                        .contains(&("pool".to_string(), "dispatch".to_string()))
                })
            })
            .unwrap_or_else(|| panic!("no {family}{{pool=\"dispatch\"}} sample"));
        if family == "qsdnn_pool_busy_workers" {
            assert!(
                matches!(dispatch.value, MetricValue::Gauge(busy) if busy >= 1),
                "the dispatcher answering `metrics` is not counted busy: {dispatch:?}"
            );
        }
        out.push(format!("{family} {:?}", dispatch.labels));
    }
    let tasks = client.tasks().expect("tasks");
    let role = |thread: &str| thread.trim_end_matches(char::is_numeric).to_string();
    // The pools that do the work, by thread-name prefix.
    let mut pools: Vec<String> = tasks
        .tasks
        .iter()
        .map(|t| role(&t.thread))
        .filter(|r| r.ends_with('-'))
        .collect();
    pools.sort();
    pools.dedup();
    out.push(format!("task table pools {pools:?}"));
    let answering = tasks
        .tasks
        .iter()
        .find(|t| t.state == "tasks")
        .unwrap_or_else(|| panic!("no thread admits to answering `tasks`"));
    out.push(format!("tasks answered on {}", role(&answering.thread)));

    server.shutdown();
    out
}

#[test]
fn two_fresh_servers_answer_the_same_script_bit_identically() {
    let first = run_script();
    let second = run_script();
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "script step {i} diverged between two fresh servers");
    }
}
