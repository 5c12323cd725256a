//! End-to-end tests of protocol-v2 pipelining: one connection holding many
//! tagged plan requests in flight, answered out of order as searches
//! finish, with the per-connection in-flight cap providing backpressure —
//! while untagged v1 traffic on the same server keeps its in-order,
//! one-at-a-time contract.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use qsdnn::engine::{Mode, Objective};
use qsdnn_serve::protocol::{
    parse_request_frame, parse_response_frame, write_message, FrameBuffer, PlanRequest, Request,
    RequestFrame, Response, ResponseFrame, TaggedResponse, TransferMode, PROTOCOL_VERSION,
};
use qsdnn_serve::{PlanClient, PlanServer, ServerConfig};

const NETWORKS: [&str; 3] = ["lenet5", "tiny_cnn", "toy_branchy"];

/// Blocks for the next complete JSON line on a raw socket, framed by
/// `frames` the way both ends of a real connection frame it.
fn read_line(stream: &mut TcpStream, frames: &mut FrameBuffer) -> String {
    loop {
        if let Some(line) = frames.next_frame() {
            return String::from_utf8(line).expect("UTF-8 line");
        }
        assert_ne!(frames.fill_from(stream).expect("read"), 0, "peer closed");
    }
}

/// A batch of distinct plan requests (distinct episode budgets give every
/// request its own plan key, so nothing coalesces in the cache).
fn batch(n: usize, base_episodes: usize, step: usize) -> Vec<PlanRequest> {
    (0..n)
        .map(|i| PlanRequest {
            network: NETWORKS[i % NETWORKS.len()].to_string(),
            batch: 1,
            mode: Mode::Gpgpu,
            objective: Objective::Latency,
            episodes: base_episodes + i * step,
            seeds: vec![0x5EED],
            // This suite pins the cold-path pipelining contract (replies
            // bit-identical to v1 references); scenario transfer would let
            // earlier-finishing budgets seed later ones.
            transfer: TransferMode::Off,
            trace: false,
            platform: String::new(),
        })
        .collect()
}

#[test]
fn thirty_two_tagged_requests_pipeline_out_of_order_under_a_small_cap() {
    let server = PlanServer::start(ServerConfig {
        max_in_flight: 4,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let mut client = PlanClient::connect(addr).expect("connect");

    // Mixed costs: request 0 is far more expensive than the rest, so its
    // reply cannot come first if pipelining really overlaps requests.
    let mut reqs = batch(32, 40, 1);
    reqs[0].episodes = 2500;

    let mut tickets = Vec::new();
    for req in &reqs {
        tickets.push(client.submit_plan(req.clone()).expect("submit"));
    }
    // Collect replies in *completion* order.
    let mut completion = Vec::new();
    for _ in 0..reqs.len() {
        let (ticket, resp) = client.wait_any().expect("wait_any");
        let plan = match resp {
            Response::Plan(plan) => plan,
            other => panic!("ticket {} answered with {other:?}", ticket.id()),
        };
        completion.push((ticket, plan));
    }
    assert_eq!(completion.len(), 32);

    // Out of order: the expensive request was submitted first but must
    // not complete first — and the overall completion order must differ
    // from submission order.
    assert_ne!(
        completion[0].0, tickets[0],
        "the expensive head request cannot finish first"
    );
    let submitted: Vec<u64> = tickets.iter().map(|t| t.id()).collect();
    let completed: Vec<u64> = completion.iter().map(|(t, _)| t.id()).collect();
    assert_ne!(completed, submitted, "replies arrived strictly in order");

    // Every ticket answered exactly once.
    let mut seen = completed.clone();
    seen.sort_unstable();
    let mut expected = submitted.clone();
    expected.sort_unstable();
    assert_eq!(seen, expected);

    // Id ↔ response matching: each ticket's reply must be *the* plan for
    // its request. A fresh v1 client re-requests every scenario (all
    // cached now) and the plan keys must line up pairwise.
    let mut check = PlanClient::connect(addr).expect("connect for check");
    for (ticket, plan) in &completion {
        let idx = submitted
            .iter()
            .position(|id| id == &ticket.id())
            .expect("known ticket");
        assert_eq!(
            plan.network,
            reqs[idx].network,
            "ticket {} answered with another request's network",
            ticket.id()
        );
        let reference = check.plan(reqs[idx].clone()).expect("cached reference");
        assert!(reference.cache_hit, "pipelined plan must be cached");
        assert_eq!(
            plan.plan_key,
            reference.plan_key,
            "ticket {} carries the wrong plan",
            ticket.id()
        );
        assert_eq!(plan.best.best_assignment, reference.best.best_assignment);
    }

    // Backpressure: the reader stopped parsing at the cap, so the server
    // never had more than 4 of this connection's requests in flight even
    // though 32 were submitted back to back.
    let stats = check.stats().expect("stats");
    assert_eq!(stats.pipelined, 32, "all 32 rode the v2 envelope");
    assert_eq!(stats.max_in_flight, 4);
    assert!(
        stats.in_flight_peak <= 4,
        "in-flight cap violated: peak {}",
        stats.in_flight_peak
    );
    assert!(
        stats.in_flight_peak >= 2,
        "no overlap observed: peak {}",
        stats.in_flight_peak
    );
    server.shutdown();
}

#[test]
fn v1_untagged_requests_stay_in_order_on_a_pipelining_server() {
    let server = PlanServer::start(ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    // Concurrent pipelined traffic on another connection, to show the v1
    // contract holds on a server that is actively answering out of order.
    let churn = std::thread::spawn(move || {
        let mut client = PlanClient::connect(addr).expect("connect");
        client.plan_many(&batch(8, 90, 3)).expect("pipelined batch")
    });

    // A raw v1 client: write several bare requests back to back without
    // reading, then read every reply. Replies must come back in request
    // order — bare requests are handled inline, one at a time.
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let mut frames = FrameBuffer::new();
    let reqs = batch(6, 150, 7);
    for req in &reqs {
        write_message(&mut stream, &Request::Plan(req.clone())).expect("write");
    }
    for req in &reqs {
        let line = read_line(&mut stream, &mut frames);
        match parse_response_frame(&line).expect("reply") {
            ResponseFrame::Untagged(Response::Plan(plan)) => assert_eq!(
                plan.network, req.network,
                "v1 replies must arrive in request order"
            ),
            other => panic!("unexpected v1 reply {other:?}"),
        }
    }
    let pipelined = churn.join().expect("churn thread");
    assert_eq!(pipelined.len(), 8);
    server.shutdown();
}

/// Acceptance check: one pipelined connection issuing 16 distinct plan
/// requests completes within 2× the wall-clock of 16 parallel connections
/// issuing the same requests. Each phase gets a fresh server so the second
/// phase cannot ride the first phase's cache.
#[test]
fn one_pipelined_connection_keeps_pace_with_sixteen_parallel_connections() {
    let reqs = batch(16, 120, 5);

    // Phase A: 16 connections, one request each, all in parallel.
    let parallel_server = PlanServer::start(ServerConfig::default()).expect("bind");
    let parallel_addr = parallel_server.local_addr();
    let started = Instant::now();
    let mut handles = Vec::new();
    for req in reqs.clone() {
        handles.push(std::thread::spawn(move || {
            let mut client = PlanClient::connect(parallel_addr).expect("connect");
            client.plan(req).expect("plan")
        }));
    }
    let parallel_plans: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let t_parallel = started.elapsed();
    parallel_server.shutdown();

    // Phase B: the same 16 requests pipelined over one connection.
    let pipelined_server = PlanServer::start(ServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(pipelined_server.local_addr()).expect("connect");
    client.set_window(16);
    let started = Instant::now();
    let pipelined_plans = client.plan_many(&reqs).expect("pipelined batch");
    let t_pipelined = started.elapsed();
    pipelined_server.shutdown();

    // Same work, same deterministic reduction: the transports must agree
    // bit for bit, request by request.
    assert_eq!(pipelined_plans.len(), parallel_plans.len());
    for (p, q) in pipelined_plans.iter().zip(&parallel_plans) {
        assert_eq!(p.plan_key, q.plan_key);
        assert_eq!(p.best.best_assignment, q.best.best_assignment);
        assert_eq!(p.best.best_cost_ms.to_bits(), q.best.best_cost_ms.to_bits());
    }

    // The floor keeps sub-300 ms baselines (where scheduler noise
    // dominates) from flaking the ratio; real runs are well above it.
    let budget = (2 * t_parallel).max(Duration::from_millis(300));
    assert!(
        t_pipelined <= budget,
        "one pipelined connection took {t_pipelined:?}, parallel fan-out took {t_parallel:?} \
         (budget {budget:?})"
    );
}

#[test]
fn failed_plan_many_drains_its_batch() {
    let server = PlanServer::start(ServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let mut reqs = batch(3, 80, 1);
    reqs[1].network = "no_such_network".to_string();
    let err = client.plan_many(&reqs).expect_err("mid-batch rejection");
    assert!(err.to_string().contains("unknown network"), "{err}");
    // The batch's other tickets were drained with it: no stale replies
    // leak into later pipelined work.
    let err = client
        .wait_any()
        .expect_err("nothing must remain in flight");
    assert!(err.to_string().contains("no requests in flight"), "{err}");
    // And the connection is still fully usable, both pipelined and v1.
    let again = client.plan_many(&batch(2, 200, 3)).expect("clean batch");
    assert_eq!(again.len(), 2);
    let single = client.plan(batch(1, 260, 0)[0].clone()).expect("v1 plan");
    assert!(single.best.best_cost_ms.is_finite());
    server.shutdown();
}

/// Regression for two client framing bugs. `PlanClient` once read with a
/// reader that dropped a partially received line when the read timed out:
/// after `set_timeout`, a slow response lost its first bytes and desynced
/// the connection for good. Its replacement, `BufRead::read_line` into a
/// persistent `String`, kept an ASCII half-line but still threw away every
/// byte of a timed-out call that ended inside a multibyte character. The
/// client now splits raw bytes in a `FrameBuffer` and validates UTF-8 per
/// complete line, so a timed-out read resumes the same line at any cut.
#[test]
fn client_framing_survives_a_mid_response_timeout() {
    json_reply_split_at("resumable-framing-marker", |reply| reply.len() / 2);
    // Just after the lead byte of `ñ`.
    json_reply_split_at("resumable-framing-marker-señal", |reply| {
        reply.iter().position(|&b| b == 0xC3).expect("ñ") + 1
    });
}

/// Answers one tagged v2 request with a reply carrying `marker`, written
/// in two parts around `cut(reply)` with a pause that outlives the
/// client's read timeout, and checks the client times out, then resumes.
fn json_reply_split_at(marker: &'static str, cut: fn(&[u8]) -> usize) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");

    let fake_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut frames = FrameBuffer::new();
        // Handshake.
        let ping = parse_request_frame(&read_line(&mut stream, &mut frames)).expect("ping");
        assert!(matches!(ping, RequestFrame::Untagged(Request::Ping { .. })));
        write_message(
            &mut stream,
            &Response::Pong {
                version: PROTOCOL_VERSION,
            },
        )
        .expect("pong");
        let line = read_line(&mut stream, &mut frames);
        assert!(line.contains("\"id\":0"), "expected envelope, got {line}");
        let mut reply = Vec::new();
        write_message(
            &mut reply,
            &TaggedResponse {
                id: 0,
                resp: Response::Error {
                    message: marker.to_string(),
                },
            },
        )
        .expect("serialize");
        let (head, tail) = reply.split_at(cut(&reply));
        stream.write_all(head).expect("first part");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(tail).expect("second part");
        stream.flush().expect("flush");
        // Keep the socket open until the client is done reading.
        std::thread::sleep(Duration::from_millis(400));
    });

    // Pinned to the v2 handshake: this exercises JSON-line resumability
    // against a fake JSON server (its binary twin follows).
    let mut client = PlanClient::connect_with_version(addr, 2).expect("handshake");
    assert!(!client.is_binary());
    let ticket = client.submit(Request::Stats).expect("submit");
    // Let the first part of the reply arrive, then read with a timeout
    // shorter than the server's mid-line pause.
    std::thread::sleep(Duration::from_millis(150));
    client
        .set_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    let err = client.wait(ticket).expect_err("must time out mid-line");
    match err {
        qsdnn_serve::ServeError::Io(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{marker}: unexpected I/O error {e:?}"
        ),
        other => panic!("{marker}: expected a timeout, got {other}"),
    }
    // Retrying the same ticket resumes the half-read line instead of
    // parsing its severed tail as a fresh message.
    client
        .set_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let resp = client
        .wait(ticket)
        .unwrap_or_else(|e| panic!("{marker}: resumed read failed: {e}"));
    assert_eq!(
        resp,
        Response::Error {
            message: marker.to_string()
        }
    );
    fake_server.join().expect("fake server");
}

/// A fake server's side of the v3 handshake: accepts one connection and
/// answers its JSON ping, which upgrades both directions to binary frames.
/// The returned buffer holds whatever the client sent after the ping.
fn accept_v3(listener: &TcpListener) -> (TcpStream, FrameBuffer) {
    let (mut stream, _) = listener.accept().expect("accept");
    let mut frames = FrameBuffer::new();
    let ping = parse_request_frame(&read_line(&mut stream, &mut frames)).expect("ping");
    assert!(matches!(
        ping,
        RequestFrame::Untagged(Request::Ping { version: 3 })
    ));
    write_message(
        &mut stream,
        &Response::Pong {
            version: PROTOCOL_VERSION,
        },
    )
    .expect("pong");
    (stream, frames)
}

/// The binary twin of the mid-response-timeout test: a v3 frame split in
/// two around a pause longer than the client's read timeout must resume
/// from the buffered half, never desync.
#[test]
fn client_binary_framing_survives_a_mid_frame_timeout() {
    use qsdnn_serve::protocol::{
        encode_binary_frame, encode_body, read_binary_frame_resumable, MAX_FRAME_BYTES,
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");
    let marker = "resumable-binary-framing-marker";

    let fake_server = std::thread::spawn(move || {
        let (mut stream, mut frames) = accept_v3(&listener);
        // One tagged *binary* request, answered in two halves with a
        // pause that outlives the client's read timeout.
        let frame = read_binary_frame_resumable(&mut stream, &mut frames, MAX_FRAME_BYTES)
            .expect("tagged request")
            .expect("open");
        assert_eq!(frame.id, Some(0), "expected the first tagged frame");
        let body = encode_body(&Response::Error {
            message: marker.to_string(),
        })
        .expect("encode");
        let reply = encode_binary_frame(Some(0), &body).expect("frame");
        let mid = reply.len() / 2;
        stream.write_all(&reply[..mid]).expect("first half");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(&reply[mid..]).expect("second half");
        stream.flush().expect("flush");
        // Keep the socket open until the client is done reading.
        std::thread::sleep(Duration::from_millis(400));
    });

    let mut client = PlanClient::connect(addr).expect("handshake");
    assert!(client.is_binary(), "v3 handshake negotiates binary");
    let ticket = client.submit(Request::Stats).expect("submit");
    std::thread::sleep(Duration::from_millis(150));
    client
        .set_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    let err = client.wait(ticket).expect_err("must time out mid-frame");
    match err {
        qsdnn_serve::ServeError::Io(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected I/O error {e:?}"
        ),
        other => panic!("expected a timeout, got {other}"),
    }
    // Retrying the same ticket resumes the half-read frame instead of
    // parsing its severed tail as a fresh frame header.
    client
        .set_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let resp = client.wait(ticket).expect("resumed read completes");
    assert_eq!(
        resp,
        Response::Error {
            message: marker.to_string()
        }
    );
    fake_server.join().expect("fake server");
}

/// The client's side of the error contract for plan replies, which it
/// decodes with the typed reader: a reply that is a well-formed frame
/// around a body cut off inside its learning curve is a
/// `ServeError::Protocol` naming the byte, and — the length prefix having
/// kept the framing in sync — the next reply on the connection decodes.
#[test]
fn client_reports_a_torn_plan_reply_and_stays_in_sync() {
    use qsdnn_serve::protocol::{
        encode_binary_frame, encode_body, read_binary_frame_resumable, PlanResponse,
        MAX_FRAME_BYTES,
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");

    let reply = Response::Plan(PlanResponse {
        network: "lenet5".into(),
        plan_key: "00ff".into(),
        cache_hit: true,
        best: qsdnn::SearchReport {
            method: "qs-dnn".into(),
            network: "lenet5".into(),
            best_assignment: vec![0, 1, 2],
            best_cost_ms: 1.0,
            episodes: 2000,
            curve: (0..2000)
                .map(|episode| qsdnn::EpisodeRecord {
                    episode,
                    epsilon: 0.5,
                    cost_ms: 2.0,
                    best_so_far_ms: 1.0,
                })
                .collect(),
            wall_time_ms: 3.5,
        },
        winner: "qs-dnn(seed=0x1)".into(),
        members: Vec::new(),
        vanilla_cost_ms: 5.0,
        warm_start: None,
        trace: None,
    });

    let served = reply.clone();
    let fake_server = std::thread::spawn(move || {
        let (mut stream, mut frames) = accept_v3(&listener);
        for _ in 0..2 {
            read_binary_frame_resumable(&mut stream, &mut frames, MAX_FRAME_BYTES)
                .expect("tagged request")
                .expect("open");
        }
        let body = encode_body(&served).expect("encode");
        let torn = &body[..body.len() * 3 / 4];
        stream
            .write_all(&encode_binary_frame(Some(0), torn).expect("frame"))
            .expect("torn reply");
        stream
            .write_all(&encode_binary_frame(Some(1), &body).expect("frame"))
            .expect("whole reply");
        stream.flush().expect("flush");
        // Keep the socket open until the client is done reading.
        std::thread::sleep(Duration::from_millis(300));
    });

    let mut client = PlanClient::connect(addr).expect("handshake");
    let _torn = client
        .submit_plan(PlanRequest::latency("lenet5"))
        .expect("submit");
    let whole = client
        .submit_plan(PlanRequest::latency("lenet5"))
        .expect("submit");
    match client.wait(whole).expect_err("the torn reply comes first") {
        qsdnn_serve::ServeError::Protocol(m) => {
            assert!(m.starts_with("binary codec error at byte "), "{m}");
            assert!(m.contains("truncated"), "{m}");
        }
        other => panic!("expected a protocol error, got {other}"),
    }
    assert_eq!(client.wait(whole).expect("framing is still in sync"), reply);
    fake_server.join().expect("fake server");
}
