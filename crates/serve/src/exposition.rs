//! Prometheus text-exposition endpoint: a tiny hand-rolled HTTP/1.1
//! listener over `std::net` (no HTTP crate), serving `GET /metrics`.
//!
//! One thread, blocking per request: a scrape is a point-in-time snapshot
//! render, microseconds of work, and scrapers arrive every few seconds —
//! concurrency would buy nothing. The listener polls `accept` with a
//! short sleep so it notices server shutdown promptly.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::server::ServiceState;
use crate::ServeError;

/// How long the accept loop sleeps when no scraper is waiting.
const ACCEPT_TICK: Duration = Duration::from_millis(25);
/// Read cap on a request head; scrape requests are a few hundred bytes.
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Per-`read` tick while collecting a request head: short, so a stalled
/// scraper can't hold the single-threaded listener long, but the head is
/// *resumed* across ticks up to [`HEAD_DEADLINE`] rather than abandoned
/// at the first stall.
const HEAD_READ_TICK: Duration = Duration::from_millis(100);
/// Overall bound on collecting one request head. A scraper that cannot
/// produce its blank line within this is answered 408 and dropped.
const HEAD_DEADLINE: Duration = Duration::from_secs(3);

/// A running exposition listener.
pub(crate) struct MetricsExposition {
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExposition {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts serving
    /// scrapes of `state` until the server shuts down.
    pub(crate) fn start(addr: &str, state: Arc<ServiceState>) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("qsdnn-metrics-http".to_string())
            .spawn(move || accept_loop(&listener, &state))
            .map_err(ServeError::Io)?;
        qsdnn_obs::log::info(
            "metrics_listener_started",
            &[("addr", qsdnn_obs::log::FieldValue::from(local.to_string()))],
        );
        Ok(MetricsExposition {
            addr: local,
            handle: Some(handle),
        })
    }

    /// The bound address (resolved port for `:0` binds).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the listener thread to notice shutdown and exit.
    pub(crate) fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServiceState>) {
    loop {
        if state.is_shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // A broken scraper connection is its problem, not ours.
                let _ = handle_scrape(stream, state);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_TICK),
            // Transient accept failure (fd pressure): back off, stay up.
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}

/// Reads one HTTP request head and answers it. Any malformed traffic gets
/// a 400; only `GET /metrics` (and `GET /`) return the exposition body.
fn handle_scrape(mut stream: TcpStream, state: &Arc<ServiceState>) -> std::io::Result<()> {
    // On macOS and the BSDs an accepted socket inherits O_NONBLOCK from
    // the (nonblocking) listener, which voids the read timeout: the head
    // loop would spin on WouldBlock and `write_all` could fail mid-response.
    // Linux never inherits it, so there this is a no-op.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(HEAD_READ_TICK))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let started = Instant::now();
    let mut timed_out = false;
    // Read until the blank line ending the head; scrape requests have no
    // body worth waiting for. A read timeout is NOT the end of the head:
    // a scraper whose headers split across packets (or who dribbles
    // them byte by byte) resumes here until the overall deadline — the
    // historical bug was breaking on the first stall, which truncated
    // the request line and turned a legitimate scrape into a 404.
    while !head_complete(&head) && head.len() < MAX_HEAD_BYTES {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(buf.get(..n).unwrap_or(&[])),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if started.elapsed() >= HEAD_DEADLINE || state.is_shutting_down() {
                    timed_out = true;
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    let request_line = std::str::from_utf8(&head)
        .ok()
        .and_then(|s| s.lines().next())
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if timed_out && !head_complete(&head) {
        (
            "408 Request Timeout",
            "request head timed out\n".to_string(),
        )
    } else if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" || path == "/" {
        ("200 OK", state.metrics_text())
    } else {
        ("404 Not Found", "not found; scrape /metrics\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}
