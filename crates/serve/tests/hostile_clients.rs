//! Hostile-client battery against the connection layer: slow-loris
//! writers, mid-frame disconnects, clients that never read their replies,
//! and oversized/garbage frames. Every scenario asserts the one property
//! that matters for a shared server — a concurrent well-behaved client
//! keeps getting answers — plus the scenario-specific contract (the slow
//! request still completes, the garbage still gets an error, the flooder
//! gets cut off).
//!
//! Linux-gated because `shrink_rcvbuf` below hard-codes Linux's
//! `SOL_SOCKET`/`SO_RCVBUF` values.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use qsdnn::engine::{Mode, Objective};
use qsdnn_serve::protocol::{
    encode_binary_frame, encode_body, write_message, PlanRequest, ProfileRequest, Request,
    TaggedRequest, TransferMode, FRAME_MAGIC, MAX_FRAME_BYTES,
};
use qsdnn_serve::{PlanClient, PlanServer, ServerConfig};

/// Caps a socket's `SO_RCVBUF` at 64 KiB (std exposes no setter), so the
/// kernel cannot auto-tune it into absorbing a test's whole reply volume.
fn shrink_rcvbuf(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::os::raw::c_void,
            optlen: u32,
        ) -> i32;
    }
    let size: i32 = 64 * 1024;
    // SAFETY: `stream` owns an open socket so the fd is valid for the
    // duration of the call; `optval` points at a live i32 and `optlen`
    // is exactly its size, matching setsockopt(2)'s contract.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&size as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

fn start() -> PlanServer {
    PlanServer::start(ServerConfig {
        // Replies parked behind a peer that will not read are all "slow";
        // logging each one would make the flood scenarios time the logger.
        slow_ms: 0,
        ..ServerConfig::default()
    })
    .expect("start server")
}

fn plan_request(episodes: usize) -> PlanRequest {
    PlanRequest {
        network: "tiny_cnn".to_string(),
        batch: 1,
        mode: Mode::Gpgpu,
        objective: Objective::Latency,
        episodes,
        seeds: vec![0x5EED],
        transfer: TransferMode::Off,
        trace: false,
        platform: String::new(),
    }
}

/// The well-behaved client every scenario runs alongside its hostile one:
/// it must complete a full plan round-trip with a bounded timeout while
/// the hostile connection is mid-abuse.
fn assert_server_responsive(addr: std::net::SocketAddr, episodes: usize) {
    let mut client = PlanClient::connect(addr).expect("well-behaved client connects");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let plan = client
        .plan(plan_request(episodes))
        .expect("well-behaved client gets its plan");
    assert!(plan.best.best_cost_ms.is_finite());
}

/// Upgrades a raw connection to v3 binary framing: bare JSON ping,
/// JSON pong back (the connection's last JSON line), binary from there.
fn negotiate_binary(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    write_message(conn, &Request::Ping { version: 3 }).expect("v3 ping");
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong line");
    assert!(pong.contains("Pong"), "handshake failed: {pong}");
}

#[test]
fn slow_loris_byte_at_a_time_writer_does_not_stall_other_clients() {
    let server = start();
    let addr = server.local_addr();

    // The loris: a valid request dribbled one byte at a time.
    let mut loris = TcpStream::connect(addr).expect("loris connects");
    let mut line = Vec::new();
    write_message(&mut line, &Request::Stats).expect("serialize");
    let started = Instant::now();
    let mut reader = BufReader::new(loris.try_clone().expect("clone"));
    for &b in &line[..line.len() - 1] {
        loris.write_all(&[b]).expect("dribble");
        loris.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }

    // While the loris is still mid-frame, other clients get full service.
    assert_server_responsive(addr, 120);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "well-behaved client must not wait out the loris"
    );

    // The loris finally finishes its line and still gets its answer — slow
    // is not a crime, only blocking others would be.
    loris
        .write_all(&line[line.len() - 1..])
        .expect("terminator");
    loris.flush().expect("flush");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("loris reply");
    assert!(reply.contains("Stats"), "unexpected loris reply: {reply}");
    server.shutdown();
}

#[test]
fn mid_frame_disconnects_leave_the_server_healthy() {
    let server = start();
    let addr = server.local_addr();

    let mut frame = Vec::new();
    write_message(&mut frame, &Request::Plan(plan_request(100))).expect("serialize");

    // A swarm of clients that die mid-frame: half a request, then a hard
    // drop. Some also half-close politely after a torn frame.
    for i in 0..20 {
        let mut conn = TcpStream::connect(addr).expect("hostile connect");
        let cut = 1 + (i * 7) % (frame.len() - 2);
        conn.write_all(&frame[..cut]).expect("half frame");
        conn.flush().expect("flush");
        if i % 3 == 0 {
            // Half-close: the server sees EOF mid-line, answers the torn
            // tail with a parse error and closes. We don't care about
            // the reply, only that the server survives it.
            conn.shutdown(std::net::Shutdown::Write).ok();
            let mut sink = Vec::new();
            conn.set_read_timeout(Some(Duration::from_secs(2))).ok();
            let _ = conn.read_to_end(&mut sink);
        }
        drop(conn);
    }

    assert_server_responsive(addr, 130);

    // The server's counters are still served on a fresh connection — no
    // reactor wedge, no leaked v1-busy state.
    let mut client = PlanClient::connect(addr).expect("stats client");
    let stats = client.stats().expect("stats");
    assert!(stats.requests >= 1);
    server.shutdown();
}

#[test]
fn a_client_that_never_reads_cannot_block_other_connections() {
    let server = start();
    let addr = server.local_addr();

    // The hostile client pipelines a capful of profile requests for a real
    // network (fat replies: each carries a whole LUT) and never reads a
    // byte of the responses. The server must park those replies in the
    // connection's write queue / kernel buffer and keep serving everyone
    // else.
    let mut hostile = TcpStream::connect(addr).expect("hostile connect");
    for id in 0..32u64 {
        write_message(
            &mut hostile,
            &TaggedRequest {
                id,
                req: Request::Profile(ProfileRequest {
                    network: "mobilenet_v1".to_string(),
                    batch: 1,
                    mode: Mode::Gpgpu,
                    repeats: 2,
                    platform: String::new(),
                }),
            },
        )
        .expect("submit");
    }

    // With the hostile connection's replies piling up unread, a
    // well-behaved client still completes planning work.
    assert_server_responsive(addr, 140);
    assert_server_responsive(addr, 141);

    // Drop the hostile connection without ever reading; the server must
    // clean it up and keep answering.
    drop(hostile);
    let mut client = PlanClient::connect(addr).expect("post-mortem client");
    let stats = client.stats().expect("stats");
    assert!(
        stats.pipelined >= 1,
        "the hostile tagged requests were dispatched: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn garbage_frames_get_errors_and_the_connection_stays_usable() {
    let server = start();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut reply = String::new();

    // Malformed JSON: an untagged error (no id survived the wreckage).
    conn.write_all(b"{nope nope nope\n").expect("garbage");
    reader.read_line(&mut reply).expect("error reply");
    assert!(reply.contains("Error"), "garbage must be answered: {reply}");

    // Invalid UTF-8: same contract — error reply, connection kept.
    conn.write_all(b"\"Stats\xff\xfe\"\n").expect("bad utf8");
    reply.clear();
    reader.read_line(&mut reply).expect("utf8 error reply");
    assert!(reply.contains("Error"), "bad UTF-8 answered: {reply}");

    // Valid JSON of the wrong shape: still an error, still connected.
    conn.write_all(b"{\"id\":1}\n").expect("bad envelope");
    reply.clear();
    reader.read_line(&mut reply).expect("shape error reply");
    assert!(reply.contains("Error"), "bad shape answered: {reply}");

    // After all that abuse the same connection serves real requests.
    write_message(&mut conn, &Request::Ping { version: 2 }).expect("ping");
    reply.clear();
    reader.read_line(&mut reply).expect("pong");
    assert!(reply.contains("Pong"), "connection still usable: {reply}");

    assert_server_responsive(addr, 150);
    server.shutdown();
}

/// Regression: the read cutoff stops at *exactly* the 8 MiB frame bound
/// (a multiple of the 16 KiB read chunk, so a fast flood lands on it
/// precisely). The hostile-line check used to fire only *past* the bound,
/// leaving an exactly-at-the-bound connection unreadable, unclosed and
/// unanswered forever. At the bound, the server must error and close.
#[test]
fn a_frame_of_exactly_the_bound_is_rejected_not_wedged() {
    let server = start();
    let addr = server.local_addr();

    let mut edge = TcpStream::connect(addr).expect("connect");
    edge.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Exactly 8 MiB, no terminator, then stop writing and listen.
    let chunk = vec![b'y'; 64 * 1024];
    for _ in 0..(8 * 1024 * 1024) / chunk.len() {
        edge.write_all(&chunk).expect("flood to the bound");
    }
    let mut tail = Vec::new();
    edge.read_to_end(&mut tail).expect("reply then clean close");
    let reply = String::from_utf8_lossy(&tail);
    assert!(
        reply.contains("frame bound"),
        "expected the frame-bound error, got: {reply:?}"
    );

    assert_server_responsive(addr, 155);
    server.shutdown();
}

/// Regression: parsing pauses once a connection holds more than the
/// outbox high-water mark of unread replies. Garbage frames queue their
/// error replies *synchronously in the parse loop*, so a big enough
/// garbage burst trips the mark mid-batch and strands the remaining
/// frames in the server-side frame buffer — where no future `EPOLLIN`
/// will ever announce them (the bytes already left the kernel, and after
/// the burst's EOF the read side never re-arms). When the client finally
/// reads and the outbox drains, the `EPOLLOUT`-only wakeup must resume
/// parsing, or those frames are silently dropped.
#[test]
fn a_late_reading_client_gets_every_reply_after_outbox_backpressure() {
    // ~85 reply bytes per 2-byte garbage line: 400k lines ≈ 34 MiB of
    // replies — far past the 8 MiB high-water mark *plus* whatever the
    // kernel socket buffers absorb, so the pause provably happens with
    // frames stranded in the server-side buffer.
    const LINES: usize = 400_000;
    let server = start();
    let addr = server.local_addr();

    let mut late = TcpStream::connect(addr).expect("connect");
    late.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    // Pin the client's receive buffer small: with kernel auto-tuning
    // (tcp_rmem max can be tens of MiB) the socket would swallow the
    // whole reply volume and the server's high-water mark would never
    // engage — the exact path this regression test exists to exercise.
    shrink_rcvbuf(&late);
    let burst: Vec<u8> = b"x\n".repeat(LINES);
    late.write_all(&burst).expect("garbage burst");
    late.shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    // Let the server parse into the backpressure wall before reading a
    // single byte, so the pause really happens with frames buffered.
    std::thread::sleep(Duration::from_secs(2));

    // Every line must be answered with its own error reply — the frames
    // past the high-water pause included — and then the half-closed
    // connection drains to a clean EOF.
    let mut reader = BufReader::new(late);
    let mut replies = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read replies");
        if n == 0 {
            break; // EOF: server closed after flushing everything
        }
        assert!(line.contains("Error"), "unexpected reply: {line:.120}");
        replies += 1;
    }
    assert_eq!(
        replies, LINES,
        "replies stranded behind the outbox high-water pause"
    );

    assert_server_responsive(addr, 145);
    server.shutdown();
}

#[test]
fn an_oversized_frame_is_rejected_not_buffered_forever() {
    let server = start();
    let addr = server.local_addr();

    // A 9 MiB line with no terminator: past the 8 MiB frame bound the
    // server answers one error and closes — it will not buffer an
    // unbounded line. The hostile writer may see its write fail early
    // (connection reset mid-flood) or get the error line; both are a
    // rejection.
    let mut flooder = TcpStream::connect(addr).expect("flooder connect");
    flooder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    let mut write_failed = false;
    while sent < 9 * 1024 * 1024 {
        match flooder.write_all(&chunk) {
            Ok(()) => sent += chunk.len(),
            Err(_) => {
                write_failed = true;
                break;
            }
        }
    }
    let mut tail = Vec::new();
    let read_result = flooder.read_to_end(&mut tail);
    let got_error_line = String::from_utf8_lossy(&tail).contains("exceeds");
    assert!(
        write_failed || got_error_line || read_result.is_err() || tail.is_empty(),
        "flood must end in rejection, got {} tail bytes",
        tail.len()
    );
    // Whatever the flood's fate, it must be *over*: the connection is
    // closed server-side, not parked holding 9 MiB.
    drop(flooder);

    assert_server_responsive(addr, 160);
    server.shutdown();
}

/// A binary client whose length prefix never finishes arriving: three
/// bytes of header, then silence, then a hard drop. The torn header must
/// neither wedge the reactor nor stall peer connections.
#[test]
fn a_truncated_binary_length_prefix_does_not_wedge_the_server() {
    let server = start();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    negotiate_binary(&mut conn, &mut reader);
    // Magic + kind + one byte of the four-byte length: a frame the
    // server can never finish sizing.
    conn.write_all(&[FRAME_MAGIC, 0x00, 0x10]).expect("stub");
    conn.flush().expect("flush");

    // Peers get full service while the truncated header sits buffered.
    assert_server_responsive(addr, 210);

    // Half-close: the server sees EOF with a partial frame buffered and
    // must answer the mid-frame diagnostic before closing (explicit
    // lengths make a torn tail corruption, not a completable request).
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut tail = Vec::new();
    reader.read_to_end(&mut tail).expect("error then close");
    assert!(
        String::from_utf8_lossy(&tail).contains("mid-frame"),
        "expected the mid-frame diagnostic, got {tail:?}"
    );

    assert_server_responsive(addr, 211);
    server.shutdown();
}

/// A binary header declaring a body larger than the frame bound is a
/// protocol violation answered with one error frame and a close — the
/// server must not try to buffer what the header promises.
#[test]
fn a_binary_length_past_the_frame_bound_is_rejected_and_closed() {
    let server = start();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    negotiate_binary(&mut conn, &mut reader);
    let oversize = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
    let mut header = vec![FRAME_MAGIC, 0x00];
    header.extend_from_slice(&oversize);
    conn.write_all(&header).expect("oversize header");
    conn.flush().expect("flush");

    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut tail = Vec::new();
    reader.read_to_end(&mut tail).expect("error then close");
    let reply = String::from_utf8_lossy(&tail);
    assert!(
        reply.contains("exceeds") && reply.contains("frame bound"),
        "expected the frame-bound error, got {reply:?}"
    );

    assert_server_responsive(addr, 212);
    server.shutdown();
}

/// Binary clients that vanish mid-frame — header promising a body that
/// never arrives, then a hard drop — must leave the server healthy.
#[test]
fn binary_mid_frame_disconnects_leave_the_server_healthy() {
    let server = start();
    let addr = server.local_addr();

    let body = encode_body(&Request::Stats).expect("encode");
    let frame = encode_binary_frame(Some(7), &body).expect("frame");
    for i in 0..12 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        negotiate_binary(&mut conn, &mut reader);
        // Cut inside the header for some, inside the body for others.
        let cut = 1 + (i * 5) % (frame.len() - 1);
        conn.write_all(&frame[..cut]).expect("torn frame");
        conn.flush().expect("flush");
        drop(conn);
    }

    assert_server_responsive(addr, 213);
    let mut client = PlanClient::connect(addr).expect("post-mortem client");
    let stats = client.stats().expect("stats");
    assert!(stats.requests >= 1);
    server.shutdown();
}

/// JSON text on a *binary* connection: the first byte is not the frame
/// magic, so the framing is unrecoverable — one error naming the magic,
/// then close. Peer connections never notice.
#[test]
fn json_garbage_on_a_binary_connection_is_diagnosed_and_closed() {
    let server = start();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    negotiate_binary(&mut conn, &mut reader);
    // A well-formed JSON request — on the wrong framing. One write, so
    // the whole line lands before the server's error-and-close (a second
    // segment arriving after the close would turn the FIN into an RST).
    let mut line = Vec::new();
    write_message(&mut line, &Request::Stats).expect("serialize");
    conn.write_all(&line).expect("json on binary");
    conn.flush().expect("flush");

    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut tail = Vec::new();
    reader.read_to_end(&mut tail).expect("error then close");
    let reply = String::from_utf8_lossy(&tail);
    assert!(
        reply.contains("bad frame magic") && reply.contains("JSON"),
        "expected the bad-magic diagnostic, got {reply:?}"
    );

    assert_server_responsive(addr, 214);
    server.shutdown();
}

/// A binary frame on a *JSON* connection (no handshake): the magic byte
/// is invalid UTF-8 in a JSON line, so the hostile line gets an error —
/// and because JSON framing resynchronizes at the newline, the *same*
/// connection stays usable afterwards, unlike the binary-side mirror.
#[test]
fn binary_garbage_on_a_json_connection_gets_an_error_and_survives() {
    let server = start();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let body = encode_body(&Request::Stats).expect("encode");
    let mut garbage = encode_binary_frame(None, &body).expect("frame");
    garbage.push(b'\n'); // terminate the "line" so the JSON layer answers
    conn.write_all(&garbage).expect("binary on json");
    conn.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    assert!(reply.contains("Error"), "garbage must be answered: {reply}");

    // The connection resynchronized: real JSON still works on it. The
    // frame's length prefix happens to contain a 0x0A byte, so the JSON
    // splitter may see the garbage as *several* lines — each gets its
    // own error reply before the pong arrives.
    write_message(&mut conn, &Request::Ping { version: 2 }).expect("ping");
    let mut got_pong = false;
    for _ in 0..8 {
        reply.clear();
        reader.read_line(&mut reply).expect("reply line");
        if reply.contains("Pong") {
            got_pong = true;
            break;
        }
        assert!(reply.contains("Error"), "unexpected reply: {reply}");
    }
    assert!(got_pong, "connection must still serve real requests");

    assert_server_responsive(addr, 215);
    server.shutdown();
}

/// Regression: a server that writes replies with no bound and joins
/// every connection at shutdown lets one peer that stopped reading, with
/// more than a socket buffer of replies pending, wedge `shutdown()`
/// forever. The reactor gives such a peer a bounded drain (5 s) and then
/// abandons it.
#[test]
fn shutdown_is_bounded_despite_a_peer_that_never_reads() {
    // `SHUTDOWN_DRAIN` plus slack for joins and a loaded CI runner.
    const SHUTDOWN_BOUND: Duration = Duration::from_secs(9);
    // Default-size `tiny_cnn` replies are ~100 KB (the learning curve
    // rides along): 128 of them are ~13 MB, three times what the kernel
    // lets one TCP socket buffer, so most can only wait for a reader.
    const PLANS: u64 = 128;
    let server = start();
    let addr = server.local_addr();

    let mut hostile = TcpStream::connect(addr).expect("hostile connect");
    shrink_rcvbuf(&hostile);
    for id in 0..PLANS {
        let req = Request::Plan(PlanRequest::latency("tiny_cnn"));
        write_message(&mut hostile, &TaggedRequest { id, req }).expect("submit");
    }

    // Shut down only once the server has answered what it can — the
    // plan count holds still — so what is pending is socket writes,
    // not searches.
    let mut client = PlanClient::connect(addr).expect("observer connects");
    let (mut plans, mut since) = (0, Instant::now());
    while plans == 0 || since.elapsed() < Duration::from_millis(500) {
        let now = client.stats().expect("stats").plans;
        if now != plans {
            (plans, since) = (now, Instant::now());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(client);

    let (done, finished) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    finished.recv_timeout(SHUTDOWN_BOUND).unwrap_or_else(|_| {
        panic!("shutdown() still wedged after {SHUTDOWN_BOUND:?}, {plans} plans answered")
    });
    eprintln!(
        "shutdown took {:?} with {plans} plans answered",
        started.elapsed()
    );
    drop(hostile);
}
