//! `PlanClient`'s read timeout is precise and keeps its contract. Against
//! a fake server that accepts the v3 handshake and then stays silent, a
//! 2 ms timeout must fire close to 2 ms: a timeout kept as `SO_RCVTIMEO`
//! fired at the next scheduler tick on some kernels, 5.5–8 ms late,
//! holding back every request an open-loop client had due meanwhile. The
//! error kind, the refusal of a zero timeout and the resumption of a
//! half-read frame stay as they were.

use std::io::Write as _;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use qsdnn_serve::protocol::{
    encode_binary_frame, encode_body, parse_request_frame, read_binary_frame_resumable,
    write_message, FrameBuffer, Request, RequestFrame, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use qsdnn_serve::{PlanClient, ServeError};

/// The timeout asked for.
const TIMEOUT: Duration = Duration::from_millis(2);
/// How late the median timed-out wait may end: `poll` rounds up to whole
/// milliseconds, and a woken thread still has to be scheduled.
const SLACK: Duration = Duration::from_micros(1500);
/// Timed-out waits the median is taken over.
const WAITS: usize = 21;

/// What the fake server does next, on the test's word.
enum Step {
    /// Write the first half of the reply to ticket 0.
    Head,
    /// Write the rest of it.
    Tail,
}

/// Accepts one client, answers its v3 ping, reads its one tagged request
/// and then writes nothing until told to: first half the reply, then the
/// rest. Holds the socket open until `steps` hangs up.
fn fake_server(listener: TcpListener, reply: Vec<u8>, steps: mpsc::Receiver<Step>) {
    let (mut stream, _) = listener.accept().expect("accept");
    let mut frames = FrameBuffer::new();
    let ping = loop {
        if let Some(line) = frames.next_frame() {
            break String::from_utf8(line).expect("UTF-8 ping");
        }
        assert_ne!(
            frames.fill_from(&mut stream).expect("read"),
            0,
            "peer closed"
        );
    };
    assert!(matches!(
        parse_request_frame(&ping).expect("ping"),
        RequestFrame::Untagged(Request::Ping { .. })
    ));
    write_message(
        &mut stream,
        &Response::Pong {
            version: PROTOCOL_VERSION,
        },
    )
    .expect("pong");
    let frame = read_binary_frame_resumable(&mut stream, &mut frames, MAX_FRAME_BYTES)
        .expect("tagged request")
        .expect("open");
    assert_eq!(frame.id, Some(0), "expected the first tagged frame");
    let (head, tail) = reply.split_at(reply.len() / 2);
    for step in steps {
        let part = match step {
            Step::Head => head,
            Step::Tail => tail,
        };
        stream.write_all(part).expect("write");
        stream.flush().expect("flush");
    }
}

fn assert_timed_out(result: Result<Response, ServeError>) {
    match result {
        Err(ServeError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected I/O error {e:?}"
        ),
        other => panic!("expected a timeout, got {other:?}"),
    }
}

#[test]
fn a_read_timeout_fires_on_time_and_keeps_its_contract() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");
    let marker = "precise-timeout-marker";
    let body = encode_body(&Response::Error {
        message: marker.to_string(),
    })
    .expect("encode");
    let reply = encode_binary_frame(Some(0), &body).expect("frame");
    let (steps, rx) = mpsc::channel();
    let server = std::thread::spawn(move || fake_server(listener, reply, rx));

    let mut client = PlanClient::connect(addr).expect("handshake");
    assert!(client.is_binary(), "v3 handshake negotiates binary");
    let ticket = client.submit(Request::Stats).expect("submit");
    client.set_timeout(Some(TIMEOUT)).expect("timeout");

    let mut waited: Vec<Duration> = (0..WAITS)
        .map(|_| {
            let started = Instant::now();
            assert_timed_out(client.wait(ticket));
            started.elapsed()
        })
        .collect();
    waited.sort();
    let median = waited[WAITS / 2];
    assert!(
        median >= TIMEOUT,
        "a {TIMEOUT:?} timeout fired early: median {median:?}"
    );
    assert!(
        median < TIMEOUT + SLACK,
        "a {TIMEOUT:?} timeout fired {median:?} after the wait began (median of \
         {WAITS}; all: {waited:?})"
    );

    // A zero timeout is refused, as std refuses it, and changes nothing.
    match client.set_timeout(Some(Duration::ZERO)) {
        Err(ServeError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        other => panic!("a zero timeout must be InvalidInput, got {other:?}"),
    }
    let started = Instant::now();
    assert_timed_out(client.wait(ticket));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the refused zero timeout replaced the 2 ms one"
    );

    // Half the reply arrives, then the timeout fires: a retried wait on
    // the same ticket resumes the buffered half instead of parsing the
    // severed tail as a fresh frame.
    steps.send(Step::Head).expect("server alive");
    std::thread::sleep(Duration::from_millis(100));
    assert_timed_out(client.wait(ticket));
    steps.send(Step::Tail).expect("server alive");
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
    drop(steps);
    server.join().expect("fake server");
}
