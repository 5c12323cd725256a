//! Acceptance for the one plan-hit path: a repeat plan request resolves
//! through the request-fingerprint front whatever its `transfer` mode,
//! and the front is an optimisation only — the full path is its oracle.
//!
//! * **Differential:** for {v1, v2, v3} × {`off`, `auto`} × {trace off,
//!   on}, a repeat's reply is byte-identical (modulo the trace echo's
//!   timings) to what a freshly started server on the same spill dir —
//!   empty front, so the full path serves the spilled plan — gives to its
//!   first such request. The v3 reply is the v2 one with its curve
//!   summarised.
//! * **Framings:** a cache entry carries one attached body per framing,
//!   and neither answers the other's requests: v2 hits keep the whole
//!   curve and v3 hits the summary, in either order, resident or reloaded
//!   after an eviction dropped both bodies.
//! * **Accounting:** N repeats move `plan_cache.hits`, `requests` and
//!   `plans` by exactly N and touch neither the profile cache nor the
//!   scenario index; stale front entries fall back to the full path with
//!   exactly one counted cache event.
//! * **Concurrency:** eight threads in mixed transfer modes under forced
//!   evictions never see a reply that differs from the single-threaded
//!   oracle, and every plan request is counted exactly once.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use qsdnn::engine::{Mode, Objective};
use qsdnn_serve::protocol::{
    decode_response, encode_body, read_binary_frame_resumable, write_binary_message, write_message,
    FrameBuffer, PlanRequest, PlanResponse, Request, Response, StatsResponse, TaggedRequest,
    TaggedResponse, TransferMode, MAX_FRAME_BYTES,
};
use qsdnn_serve::{
    summary_curve, CacheStats, PlanClient, PlanServer, ServerConfig, SUMMARY_CURVE_POINTS,
};

const TRANSFERS: [TransferMode; 2] = [TransferMode::Off, TransferMode::Auto];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsdnn_hit_path_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(spill_dir: Option<&PathBuf>) -> ServerConfig {
    ServerConfig {
        threads: 2,
        spill_dir: spill_dir.cloned(),
        ..ServerConfig::default()
    }
}

fn request(network: &str, batch: usize, mode: Mode, episodes: usize) -> PlanRequest {
    PlanRequest {
        network: network.to_string(),
        batch,
        mode,
        objective: Objective::Latency,
        episodes,
        seeds: vec![0x5EED, 7],
        transfer: TransferMode::Auto,
        trace: false,
        platform: String::new(),
    }
}

fn with(req: &PlanRequest, transfer: TransferMode, trace: bool) -> PlanRequest {
    PlanRequest {
        transfer,
        trace,
        ..req.clone()
    }
}

/// Stats over an existing connection, so a snapshot costs exactly one
/// request (a fresh connection's handshake is one too).
fn stats(client: &mut PlanClient) -> StatsResponse {
    client.stats().expect("stats")
}

/// Cache lookups answered, whatever the outcome.
fn lookups(c: &CacheStats) -> u64 {
    c.hits + c.misses + c.coalesced + c.spill_loads
}

/// One raw reply over wire protocol `version`: the exact bytes the server
/// sent (a JSON line; for v3 the frame id and body).
fn raw_reply(addr: SocketAddr, version: u32, req: &PlanRequest) -> (Option<u64>, Vec<u8>) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let read_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        line.into_bytes()
    };
    let req = Request::Plan(req.clone());
    match version {
        1 => {
            write_message(&mut conn, &req).expect("send");
            (None, read_line(&mut reader))
        }
        2 => {
            write_message(&mut conn, &TaggedRequest { id: 7, req }).expect("send");
            (None, read_line(&mut reader))
        }
        _ => {
            write_message(&mut conn, &Request::Ping { version }).expect("handshake");
            conn.flush().expect("flush");
            assert!(String::from_utf8_lossy(&read_line(&mut reader)).contains("Pong"));
            write_binary_message(&mut conn, Some(7), &req).expect("send");
            let mut frames = FrameBuffer::new();
            let frame = read_binary_frame_resumable(&mut reader, &mut frames, MAX_FRAME_BYTES)
                .expect("binary reply")
                .expect("connection open");
            (frame.id, frame.body)
        }
    }
}

/// A raw reply decoded: the v2 envelope id, if any, and the plan.
fn decode(version: u32, bytes: &[u8]) -> (Option<u64>, PlanResponse) {
    let text = || std::str::from_utf8(bytes).expect("utf8 line");
    let (id, resp) = match version {
        1 => (None, serde_json::from_str(text()).expect("v1 reply")),
        2 => {
            let TaggedResponse { id, resp } = serde_json::from_str(text()).expect("v2 reply");
            (Some(id), resp)
        }
        _ => (None, decode_response(bytes).expect("v3 reply")),
    };
    match resp {
        Response::Plan(plan) => (id, plan),
        other => panic!("expected a plan, got {other:?}"),
    }
}

fn plan_of(version: u32, bytes: &[u8]) -> PlanResponse {
    decode(version, bytes).1
}

/// A plan as v3 renders it: the same reply with its curve summarised.
fn summarised(mut plan: PlanResponse) -> PlanResponse {
    plan.best.curve = summary_curve(&plan.best.curve);
    plan
}

/// Re-renders a traced reply with the echo removed, after checking there
/// was one: everything but the timings must still match byte for byte.
fn without_trace(version: u32, bytes: &[u8]) -> Vec<u8> {
    let (id, mut plan) = decode(version, bytes);
    let trace = plan.trace.take().expect("traced reply carries an echo");
    assert!(trace.total_ms >= 0.0);
    let resp = Response::Plan(plan);
    match id {
        Some(id) => serde_json::to_string(&TaggedResponse { id, resp }).map(String::into_bytes),
        None if version == 1 => serde_json::to_string(&resp).map(String::into_bytes),
        None => return encode_body(&resp).expect("render"),
    }
    .expect("render")
}

#[test]
fn front_replies_match_the_full_path_byte_for_byte() {
    let engaged = PlanRequest {
        platform: "sim-gpu-heavy".to_string(),
        ..request("tiny_cnn", 2, Mode::Gpgpu, 30)
    };
    let scenarios = [
        ("default", request("tiny_cnn", 1, Mode::Gpgpu, 30)),
        ("engaged", engaged),
        ("episodes0", request("lenet5", 1, Mode::Cpu, 0)),
        // QS-DNN wins at this budget: a winner with a curve to summarise.
        ("long_curve", request("tiny_cnn", 1, Mode::Cpu, 300)),
    ];
    let mut long_curves = 0;
    for (tag, base) in scenarios {
        let dir = scratch_dir(tag);
        let variants: Vec<(u32, PlanRequest)> = [1u32, 2, 3]
            .into_iter()
            .flat_map(|version| {
                TRANSFERS
                    .into_iter()
                    .flat_map(move |transfer| [false, true].map(|trace| (version, transfer, trace)))
            })
            .map(|(version, transfer, trace)| (version, with(&base, transfer, trace)))
            .collect();

        // Front path: one cold `auto` request computes, spills, registers
        // the scenario and primes the front; every variant after it is a
        // repeat, and none of them may touch the profile cache.
        let front: Vec<(Option<u64>, Vec<u8>)> = {
            let server = PlanServer::start(config(Some(&dir))).expect("server");
            let addr = server.local_addr();
            let mut control = PlanClient::connect(addr).expect("connect");
            let cold = plan_of(1, &raw_reply(addr, 1, &base).1);
            assert!(!cold.cache_hit, "{tag}: first request searches");
            let before = stats(&mut control);
            let replies = variants
                .iter()
                .map(|(version, req)| raw_reply(addr, *version, req))
                .collect();
            let after = stats(&mut control);
            assert_eq!(
                after.profile_cache, before.profile_cache,
                "{tag}: repeats resolve through the front"
            );
            assert_eq!(
                after.plan_cache.hits - before.plan_cache.hits,
                variants.len() as u64
            );
            server.shutdown();
            replies
        };

        // For the same key, v3 decodes to the v2 reply with its curve
        // summarised; nothing else differs but the trace echo's timings.
        let untraced = |mut plan: PlanResponse| {
            plan.trace = None;
            plan
        };
        for ((version, req), (_, bytes)) in variants.iter().zip(&front) {
            if *version != 3 {
                continue;
            }
            let twin = variants
                .iter()
                .position(|(v, r)| *v == 2 && r == req)
                .expect("a v2 twin");
            let full = untraced(plan_of(2, &front[twin].1));
            if full.best.curve.len() > SUMMARY_CURVE_POINTS {
                long_curves += 1;
            }
            assert_eq!(
                untraced(plan_of(3, bytes)),
                summarised(full),
                "{tag} transfer={} trace={}: v3 is the summary of v2",
                req.transfer.label(),
                req.trace
            );
        }

        // Oracle: a fresh server per variant on the same spill dir. Its
        // front is empty, so the full path serves the spilled plan.
        for ((version, req), (front_id, front_bytes)) in variants.iter().zip(&front) {
            let server = PlanServer::start(config(Some(&dir))).expect("oracle server");
            let addr = server.local_addr();
            let (id, bytes) = raw_reply(addr, *version, req);
            let oracle = stats(&mut PlanClient::connect(addr).expect("connect"));
            assert_eq!(
                oracle.plan_cache.spill_loads, 1,
                "the spilled plan is served"
            );
            assert_eq!(lookups(&oracle.profile_cache), 1, "by the full path");
            server.shutdown();
            let what = format!(
                "{tag} v{version} transfer={} trace={}",
                req.transfer.label(),
                req.trace
            );
            assert!(plan_of(*version, &bytes).cache_hit, "{what}");
            assert_eq!(*front_id, id, "{what}: frame id");
            if req.trace {
                assert_eq!(
                    without_trace(*version, front_bytes),
                    without_trace(*version, &bytes),
                    "{what}"
                );
            } else {
                assert_eq!(*front_bytes, bytes, "{what}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        long_curves > 0,
        "no scenario's winner had a curve to summarise"
    );
}

#[test]
fn attached_bodies_answer_only_their_own_framing() {
    let dir = scratch_dir("framings");
    let server = PlanServer::start(ServerConfig {
        cache_max_entries: 1,
        ..config(Some(&dir))
    })
    .expect("server");
    let addr = server.local_addr();
    let mut v2 = PlanClient::connect_with_version(addr, 2).expect("v2 connect");
    let mut v3 = PlanClient::connect(addr).expect("v3 connect");
    assert!(v3.is_binary());
    // A budget at which QS-DNN wins, so the winner has a long curve.
    let a = with(
        &request("tiny_cnn", 1, Mode::Cpu, 300),
        TransferMode::Off,
        false,
    );
    let mut full = v2.plan(a.clone()).expect("cold a");
    assert!(!full.cache_hit);
    assert!(
        full.best.curve.len() > SUMMARY_CURVE_POINTS,
        "winner {} carries {} records",
        full.winner,
        full.best.curve.len()
    );
    full.cache_hit = true;
    let summary = summarised(full.clone());
    let hit = |client: &mut PlanClient| {
        let plan = client.plan(a.clone()).expect("hit a");
        assert!(plan.cache_hit);
        plan
    };

    // Resident: the first v3 hit attaches its body, the second serves it,
    // and a v2 hit after both still renders the whole curve.
    assert_eq!(hit(&mut v3), summary);
    assert_eq!(hit(&mut v3), summary);
    assert_eq!(hit(&mut v2), full, "resident v2 hit after v3 hits");
    // That v2 hit attached the JSON body beside the v3 one; from here on
    // each framing is answered by its own.
    assert_eq!(hit(&mut v2), full, "resident v2 hit from the JSON body");
    assert_eq!(hit(&mut v3), summary, "resident v3 hit after v2 hits");

    // Reloaded: `b` takes the one resident slot, so `a` is evicted with
    // both its bodies and comes back from the spill tier — and its first
    // v3 hit attaches a body again.
    let b = with(
        &request("lenet5", 1, Mode::Cpu, 30),
        TransferMode::Off,
        false,
    );
    v2.plan(b.clone()).expect("cold b evicts a");
    let before = v2.stats().expect("stats").plan_cache;
    assert_eq!(hit(&mut v3), summary);
    let after = v2.stats().expect("stats").plan_cache;
    assert_eq!(after.spill_loads - before.spill_loads, 1, "a was reloaded");
    assert_eq!(hit(&mut v3), summary);
    assert_eq!(hit(&mut v2), full, "reloaded v2 hit after v3 hits");
    assert_eq!(hit(&mut v2), full, "reloaded v2 hit from the JSON body");
    assert_eq!(hit(&mut v3), summary, "reloaded v3 hit after v2 hits");

    // The other way round: `b` evicts `a` again, and a v2 hit is the one
    // that reloads it and attaches first.
    v2.plan(b).expect("b reloaded, evicting a");
    let before = v2.stats().expect("stats").plan_cache;
    assert_eq!(hit(&mut v2), full, "v2 hit reloads a");
    let after = v2.stats().expect("stats").plan_cache;
    assert_eq!(after.spill_loads - before.spill_loads, 1, "a was reloaded");
    assert_eq!(
        hit(&mut v2),
        full,
        "second reload's v2 hit from the JSON body"
    );
    assert_eq!(hit(&mut v3), summary, "v3 hit after v2 hits on a reload");
    assert_eq!(hit(&mut v3), summary);
    assert_eq!(hit(&mut v2), full);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeat_hits_are_counted_once_and_touch_nothing_else() {
    const N: u64 = 25;
    let server = PlanServer::start(config(None)).expect("server");
    let addr = server.local_addr();
    let mut client = PlanClient::connect(addr).expect("connect");
    let base = request("tiny_cnn", 1, Mode::Gpgpu, 30);
    // Warm-up: the cold `auto` request registers the scenario; one repeat
    // per mode makes everything after it steady state.
    assert!(!client.plan(base.clone()).expect("cold").cache_hit);
    for transfer in TRANSFERS {
        assert!(
            client
                .plan(with(&base, transfer, false))
                .expect("warm")
                .cache_hit
        );
    }
    for transfer in TRANSFERS {
        let before = stats(&mut client);
        for _ in 0..N {
            let reply = client.plan(with(&base, transfer, false)).expect("hit");
            assert!(reply.cache_hit && reply.warm_start.is_none());
        }
        let after = stats(&mut client);
        let mode = transfer.label();
        assert_eq!(after.plan_cache.hits - before.plan_cache.hits, N, "{mode}");
        assert_eq!(lookups(&after.plan_cache) - lookups(&before.plan_cache), N);
        assert_eq!(after.plans - before.plans, N, "{mode}");
        // The closing `stats` request counts itself.
        assert_eq!(after.requests - before.requests, N + 1, "{mode}");
        assert_eq!(after.profile_cache, before.profile_cache, "{mode}");
        assert_eq!(after.index_entries, before.index_entries, "{mode}");
        assert_eq!(after.transfer_hits, before.transfer_hits, "{mode}");
    }
    server.shutdown();
}

#[test]
fn an_evicted_plan_falls_back_to_the_full_path_with_one_counted_event() {
    for spill in [false, true] {
        let dir = scratch_dir("evicted");
        let server = PlanServer::start(ServerConfig {
            cache_max_entries: 1,
            ..config(spill.then_some(&dir))
        })
        .expect("server");
        let addr = server.local_addr();
        let mut client = PlanClient::connect(addr).expect("connect");
        for (round, transfer) in TRANSFERS.into_iter().enumerate() {
            // Distinct seeds per mode: each round starts from a cold plan.
            let mut a = with(&request("tiny_cnn", 1, Mode::Gpgpu, 30), transfer, false);
            a.seeds = vec![round as u64 + 1];
            let mut b = with(
                &request("lenet5", 1, Mode::Gpgpu, 30),
                TransferMode::Off,
                false,
            );
            b.seeds = a.seeds.clone();
            let first = client.plan(a.clone()).expect("cold a");
            assert!(client.plan(a.clone()).expect("hit a").cache_hit);
            // The one resident slot goes to `b`; `a` is in the front but
            // no longer in memory.
            client.plan(b).expect("cold b evicts a");
            let before = stats(&mut client).plan_cache;
            let again = client.plan(a.clone()).expect("a again");
            let after = stats(&mut client).plan_cache;
            let what = format!("spill={spill} transfer={}", transfer.label());
            assert_eq!(lookups(&after) - lookups(&before), 1, "{what}");
            assert_eq!(again.plan_key, first.plan_key, "{what}");
            assert_eq!(again.best.best_assignment, first.best.best_assignment);
            if spill {
                assert_eq!(after.spill_loads - before.spill_loads, 1, "{what}");
                assert!(again.cache_hit, "{what}: served from the spill tier");
            } else {
                assert_eq!(after.misses - before.misses, 1, "{what}");
                assert!(!again.cache_hit, "{what}: recomputed by the full path");
            }
            // Either way the front is primed again.
            let before = stats(&mut client);
            assert!(client.plan(a).expect("hit a").cache_hit);
            let after = stats(&mut client);
            assert_eq!(after.plan_cache.hits - before.plan_cache.hits, 1, "{what}");
            assert_eq!(after.profile_cache, before.profile_cache, "{what}");
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn an_evicted_index_entry_is_re_registered_once() {
    let dir = scratch_dir("index");
    let server = PlanServer::start(ServerConfig {
        index_entries: 1,
        ..config(Some(&dir))
    })
    .expect("server");
    let addr = server.local_addr();
    let mut client = PlanClient::connect(addr).expect("connect");
    let a = request("tiny_cnn", 1, Mode::Gpgpu, 30);
    let key_a = client.plan(a.clone()).expect("cold a").plan_key;
    let scenario_file = dir.join("scenarios").join(format!("{key_a}.json"));
    assert!(scenario_file.exists(), "the cold search registers a");
    // A second scenario takes the index's only slot.
    client.plan(request("lenet5", 1, Mode::Cpu, 30)).expect("b");
    assert!(!scenario_file.exists(), "a is FIFO-evicted from the index");

    // `off` never asks the index: still a front hit.
    let before = stats(&mut client);
    let off = client
        .plan(with(&a, TransferMode::Off, false))
        .expect("off");
    assert!(off.cache_hit);
    assert_eq!(stats(&mut client).profile_cache, before.profile_cache);
    assert!(!scenario_file.exists());

    // `auto` falls through to the full path, which re-registers a — one
    // counted hit, one profile lookup, the exact plan …
    let before = stats(&mut client);
    let auto = client.plan(a.clone()).expect("auto");
    let after = stats(&mut client);
    assert!(auto.cache_hit && auto.warm_start.is_none());
    assert_eq!(auto.plan_key, key_a);
    assert_eq!(after.plan_cache.hits - before.plan_cache.hits, 1);
    assert_eq!(
        lookups(&after.profile_cache) - lookups(&before.profile_cache),
        1
    );
    assert!(scenario_file.exists(), "a is registered again");
    assert_eq!(after.index_entries, 1);

    // … and only once: the next `auto` repeat is a front hit again.
    let before = after;
    assert!(client.plan(a).expect("auto again").cache_hit);
    let after = stats(&mut client);
    assert_eq!(after.plan_cache.hits - before.plan_cache.hits, 1);
    assert_eq!(after.profile_cache, before.profile_cache);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_mixed_mode_hits_match_the_oracle_under_eviction() {
    const NETWORKS: [&str; 10] = [
        "lenet5",
        "alexnet",
        "vgg19",
        "googlenet",
        "mobilenet_v1",
        "squeezenet_v11",
        "resnet18",
        "sphereface20",
        "tiny_yolo_v2",
        "tiny_cnn",
    ];
    const ROUNDS: usize = 3;
    let dir = scratch_dir("hammer");
    let server = PlanServer::start(ServerConfig {
        cache_max_entries: 4,
        ..config(Some(&dir))
    })
    .expect("server");
    let addr = server.local_addr();
    let scenarios: Vec<PlanRequest> = NETWORKS
        .iter()
        .flat_map(|network| {
            [1, 2].into_iter().flat_map(move |batch| {
                [Mode::Gpgpu, Mode::Cpu].map(|mode| request(network, batch, mode, 20))
            })
        })
        .collect();
    assert_eq!(scenarios.len(), 40);

    // The single-threaded oracle: each scenario searched once, cold. A
    // four-entry cache keeps almost none of them resident, so the hammer
    // below is served from the spill tier as often as from memory.
    let mut control = PlanClient::connect(addr).expect("connect");
    let oracle: Vec<PlanResponse> = scenarios
        .iter()
        .map(|req| {
            let mut cold = control
                .plan(with(req, TransferMode::Off, false))
                .expect("cold");
            assert!(!cold.cache_hit);
            cold.cache_hit = true;
            cold
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let (scenarios, oracle) = (&scenarios, &oracle);
            scope.spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                for round in 0..ROUNDS {
                    for i in 0..scenarios.len() {
                        // Each thread walks the set from its own offset,
                        // alternating modes per thread, round and slot.
                        let at = (i + t * 5) % scenarios.len();
                        let transfer = TRANSFERS[(t + round + i) % 2];
                        let reply = client
                            .plan(with(&scenarios[at], transfer, false))
                            .expect("hammer");
                        assert_eq!(reply, oracle[at], "thread {t} scenario {at}");
                    }
                }
            });
        }
        // The ninth: fresh seeds, so every request is a cold search whose
        // plan takes a slot from the working set.
        scope.spawn(move || {
            let mut client = PlanClient::connect(addr).expect("connect");
            for seed in 0..24u64 {
                let mut req = request("lenet5", 1, Mode::Gpgpu, 20);
                req.transfer = TransferMode::Off;
                req.seeds = vec![0xE71C7 + seed];
                assert!(!client.plan(req).expect("evictor").cache_hit);
            }
        });
    });

    let after = stats(&mut control);
    let plan_requests = (40 + 8 * ROUNDS * 40 + 24) as u64;
    assert_eq!(after.plans, plan_requests);
    assert_eq!(lookups(&after.plan_cache), plan_requests);
    assert_eq!(after.plan_cache.misses, 40 + 24, "only cold searches miss");
    assert!(after.plan_cache.evictions > 0 && after.plan_cache.spill_loads > 0);
    assert_eq!(after.warm_starts, 0, "a spilled plan is never re-searched");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
