//! The wire contract as one socket-free state machine.
//!
//! A [`Connection`] is everything the server knows about one peer that is
//! not a file descriptor: bytes in → frames → requests ([`Job`]s) →
//! replies → bytes out. The reactor drives it from readiness events and
//! the unit tests below drive it from byte scripts, so the contract below
//! exists exactly once:
//!
//! * every connection starts as JSON lines; a *bare* in-range v3 ping
//!   flips it to length-prefixed binary frames once its pong (the last
//!   JSON line) is queued;
//! * bare (v1) requests run one at a time — parsing pauses until the
//!   reply is queued, so replies stay in request order;
//! * tagged (v2/v3) requests pipeline up to the in-flight cap and
//!   complete out of order;
//! * a malformed line or frame body gets an error reply and the
//!   connection lives; a line or declared body at the frame bound, a bad
//!   frame header, or EOF inside a binary frame gets one error and a
//!   close — there is nothing left to resync on;
//! * reading stops (backpressure, never buffering) at the cap, mid-v1,
//!   at the frame bound, and while more than [`MAX_OUTBOX_BYTES`] of
//!   replies wait for a peer that is not reading them.

use std::collections::VecDeque;
use std::io::Write as _;
use std::time::Instant;

use crate::metrics::{RequestSpan, ServeMetrics, Stage};
use crate::protocol::{
    binary_error_frame, negotiates_binary, parse_binary_request, parse_request_frame,
    BinaryFrameStatus, FrameBuffer, Request, RequestFrame, Response, WireMode,
    BINARY_FRAME_OVERHEAD, MAX_FRAME_BYTES,
};
use crate::ServeError;

/// Outbox high-water mark: a connection whose peer refuses to read its
/// replies stops being read once this many reply bytes queue, so its
/// memory footprint is bounded and nothing else stalls.
pub(crate) const MAX_OUTBOX_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request on its way to a dispatcher, with everything
/// [`crate::server::ServiceState::run_job`] needs to turn it into a
/// [`Reply`] without looking at the connection again.
pub(crate) struct Job {
    pub(crate) req: Request,
    /// The pipelining id; `None` for a bare (v1-semantics) request.
    pub(crate) id: Option<u64>,
    /// Framing the request arrived under, which its reply must use.
    pub(crate) mode: WireMode,
    /// Opened at frame receipt with the parse stage recorded.
    pub(crate) span: RequestSpan,
    /// When parsing finished: the queue stage runs from here to pickup.
    pub(crate) enqueued: Instant,
    /// Tagged requests in flight on the connection when this one was
    /// admitted, itself included.
    pub(crate) depth: usize,
}

/// A finished [`Job`]: the rendered reply and the span it closes.
pub(crate) struct Reply {
    pub(crate) id: Option<u64>,
    pub(crate) bytes: Vec<u8>,
    pub(crate) span: RequestSpan,
}

/// One reply queued for the socket, with the span it closes (observed
/// when its last byte is handed to the kernel).
struct OutLine {
    bytes: Vec<u8>,
    span: Option<RequestSpan>,
    /// When the reply entered the outbox: the write stage measures
    /// queue-to-last-byte.
    queued: Instant,
}

/// Per-connection protocol state. See the module docs for the contract.
pub(crate) struct Connection {
    frames: FrameBuffer,
    mode: WireMode,
    /// Per-connection cap on tagged requests in flight.
    cap: usize,
    /// Replies awaiting the socket; `front_written` bytes of the front
    /// one are already on the wire (partial-write resume).
    outbox: VecDeque<OutLine>,
    front_written: usize,
    outbox_bytes: usize,
    /// Tagged requests handed out by `next_job` and not yet completed.
    in_flight: usize,
    /// A bare request is being handled; parsing is paused so its reply
    /// stays in order.
    v1_busy: bool,
    /// A bare v3 ping is being handled; its pong's completion flips
    /// `mode`. `v1_busy` pauses parsing meanwhile, so no byte the client
    /// sends behind its ping is parsed under the old framing.
    upgrade_pending: bool,
    /// EOF (or half-close) observed on the read side.
    read_closed: bool,
    /// No further request will be parsed: flush the outbox, let in-flight
    /// requests finish, then close.
    closing: bool,
    /// The socket failed or the drain deadline passed: nothing more can
    /// be delivered, late completions are only observed.
    dead: bool,
}

impl Connection {
    pub(crate) fn new(cap: usize) -> Connection {
        Connection {
            frames: FrameBuffer::new(),
            mode: WireMode::Json,
            cap,
            outbox: VecDeque::new(),
            front_written: 0,
            outbox_bytes: 0,
            in_flight: 0,
            v1_busy: false,
            upgrade_pending: false,
            read_closed: false,
            closing: false,
            dead: false,
        }
    }

    /// Appends bytes read from the peer.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        self.frames.push(bytes);
    }

    /// The peer closed (or half-closed) its sending side.
    pub(crate) fn read_eof(&mut self) {
        self.read_closed = true;
    }

    /// Server shutdown: buffered-but-unparsed bytes are dropped, requests
    /// already handed out still get their replies flushed.
    pub(crate) fn drain(&mut self) {
        self.closing = true;
    }

    /// The socket is gone (or given up on): stranded replies never reach
    /// the wire, but their requests did run — their spans are observed
    /// sans write stage, as are those of completions still to come.
    pub(crate) fn abort(&mut self, metrics: &ServeMetrics) {
        self.dead = true;
        for entry in self.outbox.drain(..) {
            if let Some(span) = entry.span {
                metrics.observe(&span);
            }
        }
        self.outbox_bytes = 0;
    }

    /// Read/parse cutoff for the current framing. A binary frame's body
    /// is bounded at [`MAX_FRAME_BYTES`] like a JSON line, but the frame
    /// additionally carries its fixed-size header — without the slack, an
    /// exactly-at-the-bound body could never finish buffering and the
    /// connection would wedge unreadable.
    fn frame_bound(&self) -> usize {
        match self.mode {
            WireMode::Json => MAX_FRAME_BYTES,
            WireMode::Binary => MAX_FRAME_BYTES + BINARY_FRAME_OVERHEAD,
        }
    }

    /// Whether the state machine would parse a request right now.
    fn parsing(&self) -> bool {
        !(self.closing
            || self.dead
            || self.v1_busy
            || self.in_flight >= self.cap
            || self.outbox_bytes > MAX_OUTBOX_BYTES)
    }

    /// Whether the driver should read more bytes from the peer. `false`
    /// is the backpressure signal: the driver stops reading and TCP flow
    /// control pushes back on the client.
    pub(crate) fn wants_read(&self) -> bool {
        !self.read_closed && self.parsing() && self.frames.buffered() < self.frame_bound()
    }

    /// Parses the next request the contract allows to start now. Protocol
    /// errors are answered into the outbox on the way, so the driver must
    /// look at [`Connection::pending_output`] after calling this even when
    /// it returns `None`. Call again after every [`Connection::complete`]
    /// and every [`Connection::advance`]: both can unpause parsing with
    /// bytes already buffered.
    pub(crate) fn next_job(&mut self, metrics: &ServeMetrics) -> Option<Job> {
        while self.parsing() {
            // The span opens at frame receipt as kind `error`; a parsed
            // request re-labels it when it is dispatched.
            let mut span;
            let parsed = match self.mode {
                WireMode::Binary => match self.frames.next_binary_frame(MAX_FRAME_BYTES) {
                    BinaryFrameStatus::Frame(frame) => {
                        span = metrics.span("error");
                        // A body that fails to decode answers under its
                        // header id and the connection lives — the length
                        // prefix already resynced the stream.
                        span.time(Stage::Parse, || parse_binary_request(&frame))
                            .map_err(|e| (frame.id, e))
                    }
                    // Bad magic/kind, or a declared length beyond the
                    // bound, rejected from the header alone.
                    BinaryFrameStatus::Corrupt(message) => return self.fail(&message),
                    BinaryFrameStatus::NeedMore => {
                        if self.read_closed && self.frames.buffered() > 0 {
                            // Explicit lengths make a torn tail corruption,
                            // not a final request — unlike an unterminated
                            // JSON line.
                            return self.fail("connection closed mid-frame");
                        }
                        return None;
                    }
                },
                WireMode::Json => {
                    let line = match self.frames.next_frame() {
                        Some(line) => line,
                        // `>=`, matching the read cutoff exactly: reading
                        // stops at the bound, so a line that *reaches* it
                        // can never grow a terminator.
                        None if self.frames.buffered() >= MAX_FRAME_BYTES => {
                            return self.fail(&format!(
                                "protocol error: request line exceeds the \
                                 {MAX_FRAME_BYTES}-byte frame bound"
                            ));
                        }
                        // EOF with a trailing unterminated line: half-close
                        // clients get their last request answered.
                        None if self.read_closed => self.frames.take_partial()?,
                        None => return None,
                    };
                    span = metrics.span("error");
                    span.time(Stage::Parse, || match std::str::from_utf8(&line) {
                        Ok(text) => parse_request_frame(text),
                        Err(_) => Err(ServeError::Protocol(
                            "request line is not valid UTF-8".to_string(),
                        )),
                    })
                    // Untagged: no id survives a line that did not parse.
                    .map_err(|e| (None, e))
                }
            };
            let (req, id) = match parsed {
                Err((id, e)) => {
                    let message = match e {
                        ServeError::Protocol(message) => message,
                        other => other.to_string(),
                    };
                    self.queue(error_reply(self.mode, id, message), Some(span));
                    continue;
                }
                Ok(RequestFrame::Untagged(req)) => (req, None),
                Ok(RequestFrame::Tagged(tagged)) => (tagged.req, Some(tagged.id)),
            };
            if id.is_some() {
                self.in_flight += 1;
            } else {
                self.v1_busy = true;
                // Only a *bare* ping negotiates: a tagged one is an
                // ordinary pipelined request, and out-of-range versions
                // get the JSON mismatch error.
                self.upgrade_pending = self.mode == WireMode::Json
                    && matches!(&req, Request::Ping { version } if negotiates_binary(*version));
            }
            return Some(Job {
                req,
                id,
                mode: self.mode,
                span,
                enqueued: Instant::now(),
                depth: self.in_flight,
            });
        }
        None
    }

    /// Unsyncable stream: one untagged error, then close.
    fn fail(&mut self, message: &str) -> Option<Job> {
        self.queue(error_reply(self.mode, None, message.to_string()), None);
        self.closing = true;
        None
    }

    /// Queues the reply of a job `next_job` handed out and releases what
    /// the job held: the v1 parse pause, or one in-flight permit.
    pub(crate) fn complete(&mut self, reply: Reply, metrics: &ServeMetrics) {
        if reply.id.is_some() {
            self.in_flight = self.in_flight.saturating_sub(1);
        } else {
            self.v1_busy = false;
            if std::mem::take(&mut self.upgrade_pending) {
                // This reply is the negotiation pong — the last JSON the
                // connection sees. Parsing was paused the whole time, so
                // every byte still buffered parses as binary.
                self.mode = WireMode::Binary;
            }
        }
        if self.dead {
            metrics.observe(&reply.span);
            return;
        }
        self.queue(reply.bytes, Some(reply.span));
        metrics
            .outbox_high_water_bytes
            .set_max(self.outbox_bytes as i64);
    }

    fn queue(&mut self, bytes: Vec<u8>, span: Option<RequestSpan>) {
        if bytes.is_empty() {
            // `binary_error_frame`'s fallback: write nothing, not a torn frame.
            return;
        }
        self.outbox_bytes += bytes.len();
        self.outbox.push_back(OutLine {
            bytes,
            span,
            queued: Instant::now(),
        });
    }

    /// The bytes the driver should write next (empty when there are none).
    pub(crate) fn pending_output(&self) -> &[u8] {
        self.outbox
            .front()
            .and_then(|front| front.bytes.get(self.front_written..))
            .unwrap_or(&[])
    }

    /// The kernel accepted `n` bytes of [`Connection::pending_output`].
    /// A reply whose last byte went out closes its span with the write
    /// stage.
    pub(crate) fn advance(&mut self, n: usize, metrics: &ServeMetrics) {
        self.front_written += n;
        self.outbox_bytes = self.outbox_bytes.saturating_sub(n);
        while let Some(front) = self.outbox.front() {
            if self.front_written < front.bytes.len() {
                return;
            }
            self.front_written -= front.bytes.len();
            if let Some(OutLine {
                span: Some(mut span),
                queued,
                ..
            }) = self.outbox.pop_front()
            {
                span.record(Stage::Write, queued.elapsed());
                metrics.observe(&span);
            }
        }
    }

    /// The connection's useful life is over: aborted, or no request or
    /// reply remains in any stage and none can follow — the connection is
    /// condemned, or the peer is done sending and `next_job` has consumed
    /// every byte it sent.
    pub(crate) fn finished(&self) -> bool {
        self.dead
            || (self.in_flight == 0
                && !self.v1_busy
                && self.outbox.is_empty()
                && (self.closing || (self.read_closed && self.frames.buffered() == 0)))
    }
}

/// Renders an error reply under the connection's current framing.
fn error_reply(mode: WireMode, id: Option<u64>, message: String) -> Vec<u8> {
    match mode {
        WireMode::Json => json_line(None, Response::Error { message }),
        WireMode::Binary => binary_error_frame(id, &message),
    }
}

/// Serializes one reply as a JSON line, enveloped when `id` is given.
/// Serialization of our own response types cannot fail in practice; if it
/// ever does, the client still gets a well-formed error line rather than
/// silence or a torn frame.
pub(crate) fn json_line(id: Option<u64>, resp: Response) -> Vec<u8> {
    match serde_json::to_vec(&resp) {
        Ok(body) => json_frame(id, &body),
        Err(_) => {
            b"{\"Error\":{\"message\":\"internal error: reply serialization failed\"}}\n".to_vec()
        }
    }
}

/// Frames a rendered reply body (a [`Response`] as `serde_json` writes
/// it) as one JSON line: `{"id":N,"resp":` body `}` when `id` is given,
/// the bare body otherwise — the bytes `serde_json` writes for the
/// [`TaggedResponse`](crate::protocol::TaggedResponse) or the bare
/// [`Response`].
pub(crate) fn json_frame(id: Option<u64>, body: &[u8]) -> Vec<u8> {
    let mut line = Vec::with_capacity(body.len() + 32);
    if let Some(id) = id {
        let _ = write!(line, "{{\"id\":{id},\"resp\":");
    }
    line.extend_from_slice(body);
    if id.is_some() {
        line.push(b'}');
    }
    line.push(b'\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        encode_binary_frame, encode_body, parse_binary_response, write_message, ResponseFrame,
        TaggedRequest,
    };
    use std::sync::Arc;

    fn metrics() -> ServeMetrics {
        ServeMetrics::new(false, 0, Arc::new(qsdnn_obs::FlightRecorder::new(false)))
    }

    fn json(msg: &impl serde::Serialize) -> Vec<u8> {
        let mut line = Vec::new();
        write_message(&mut line, msg).expect("serialize");
        line
    }

    fn tagged(id: u64) -> Vec<u8> {
        json(&TaggedRequest {
            id,
            req: Request::Stats,
        })
    }

    /// Delivers `bytes` as two reads split at `cut`, asking for jobs after
    /// each like a driver does. Every test below runs its script once per
    /// cut, so the contract holds wherever the packets happen to break.
    fn feed(conn: &mut Connection, m: &ServeMetrics, bytes: &[u8], cut: usize) -> Vec<Job> {
        let mut jobs = Vec::new();
        for piece in [&bytes[..cut], &bytes[cut..]] {
            conn.push_bytes(piece);
            jobs.extend(std::iter::from_fn(|| conn.next_job(m)));
        }
        jobs
    }

    fn reply(job: Job, bytes: &[u8]) -> Reply {
        Reply {
            id: job.id,
            bytes: bytes.to_vec(),
            span: job.span,
        }
    }

    /// Writes everything pending, three bytes at a time.
    fn flush(conn: &mut Connection, m: &ServeMetrics) -> Vec<u8> {
        let mut wire = Vec::new();
        while !conn.pending_output().is_empty() {
            let n = conn.pending_output().len().min(3);
            wire.extend_from_slice(&conn.pending_output()[..n]);
            conn.advance(n, m);
        }
        wire
    }

    /// A connection already upgraded to binary framing.
    fn binary_connection(m: &ServeMetrics) -> Connection {
        let mut conn = Connection::new(4);
        let ping = json(&Request::Ping { version: 3 });
        let job = feed(&mut conn, m, &ping, 0).pop().expect("ping job");
        conn.complete(reply(job, b"pong\n"), m);
        assert_eq!(flush(&mut conn, m), b"pong\n");
        conn
    }

    #[test]
    fn v1_replies_stay_in_order_while_parsing_pauses() {
        let m = metrics();
        let mut script = json(&Request::Stats);
        script.extend(json(&Request::Ping { version: 1 }));
        for cut in 0..=script.len() {
            let mut conn = Connection::new(4);
            let mut jobs = feed(&mut conn, &m, &script, cut);
            assert_eq!(
                jobs.len(),
                1,
                "cut {cut}: the second bare request must wait"
            );
            assert!(!conn.wants_read(), "cut {cut}: mid-v1 is backpressure");
            let first = jobs.remove(0);
            assert_eq!((&first.req, first.id), (&Request::Stats, None));
            conn.complete(reply(first, b"first\n"), &m);
            let second = conn.next_job(&m).expect("completion resumes parsing");
            assert_eq!(second.req, Request::Ping { version: 1 });
            assert!(conn.next_job(&m).is_none());
            conn.complete(reply(second, b"second\n"), &m);
            assert_eq!(flush(&mut conn, &m), b"first\nsecond\n", "cut {cut}");
            assert!(conn.wants_read() && !conn.finished());
        }
    }

    #[test]
    fn the_cap_stops_next_job_and_complete_resumes_it_from_buffered_bytes() {
        let m = metrics();
        let script: Vec<u8> = (0..3).flat_map(tagged).collect();
        for cut in 0..=script.len() {
            let mut conn = Connection::new(2);
            let mut jobs = feed(&mut conn, &m, &script, cut);
            let ids: Vec<_> = jobs.iter().map(|j| (j.id, j.depth)).collect();
            assert_eq!(ids, [(Some(0), 1), (Some(1), 2)], "cut {cut}");
            assert!(!conn.wants_read(), "cut {cut}: at the cap is backpressure");
            // Out of order: the later request finishes first and frees a permit.
            conn.complete(reply(jobs.remove(1), b"one\n"), &m);
            let third = conn.next_job(&m).expect("a freed permit resumes parsing");
            assert_eq!((third.id, third.depth), (Some(2), 2), "cut {cut}");
            assert!(conn.next_job(&m).is_none() && !conn.wants_read());
            assert_eq!(flush(&mut conn, &m), b"one\n");
        }
    }

    #[test]
    fn bytes_right_behind_a_bare_v3_ping_parse_as_binary_never_as_json() {
        let m = metrics();
        let mut script = json(&Request::Ping { version: 3 });
        let body = encode_body(&Request::Stats).expect("encode");
        script.extend(encode_binary_frame(Some(7), &body).expect("frame"));
        for cut in 0..=script.len() {
            let mut conn = Connection::new(4);
            let mut jobs = feed(&mut conn, &m, &script, cut);
            assert_eq!(
                jobs.len(),
                1,
                "cut {cut}: nothing parses until the pong is queued"
            );
            let ping = jobs.remove(0);
            assert_eq!((ping.id, ping.mode), (None, WireMode::Json));
            conn.complete(reply(ping, b"pong\n"), &m);
            let stats = conn.next_job(&m).expect("the frame behind the ping");
            assert_eq!(
                (&stats.req, stats.id, stats.mode),
                (&Request::Stats, Some(7), WireMode::Binary),
                "cut {cut}"
            );
            // No error reply for "malformed JSON" ever entered the outbox.
            assert_eq!(flush(&mut conn, &m), b"pong\n", "cut {cut}");
        }
    }

    #[test]
    fn eof_mid_binary_frame_is_one_error_frame_then_finished() {
        let m = metrics();
        let body = encode_body(&Request::Stats).expect("encode");
        let frame = encode_binary_frame(Some(9), &body).expect("frame");
        for cut in 1..frame.len() {
            let mut conn = binary_connection(&m);
            assert!(feed(&mut conn, &m, &frame[..cut], cut / 2).is_empty());
            conn.read_eof();
            assert!(conn.next_job(&m).is_none() && !conn.finished(), "cut {cut}");
            let mut wire = FrameBuffer::new();
            wire.push(&flush(&mut conn, &m));
            let BinaryFrameStatus::Frame(error) = wire.next_binary_frame(MAX_FRAME_BYTES) else {
                panic!("cut {cut}: the reply is not a whole frame");
            };
            assert_eq!(wire.buffered(), 0, "cut {cut}: exactly one frame");
            match parse_binary_response(&error).expect("decodes") {
                ResponseFrame::Untagged(Response::Error { message }) => {
                    assert!(message.contains("mid-frame"), "cut {cut}: {message}");
                }
                other => panic!("cut {cut}: expected an error frame, got {other:?}"),
            }
            assert!(conn.finished(), "cut {cut}");
        }
    }

    #[test]
    fn a_trailing_unterminated_json_line_is_answered_at_eof() {
        let m = metrics();
        let mut script = json(&Request::Stats);
        assert_eq!(script.pop(), Some(b'\n'));
        for cut in 0..=script.len() {
            let mut conn = Connection::new(4);
            assert!(feed(&mut conn, &m, &script, cut).is_empty(), "cut {cut}");
            conn.read_eof();
            assert!(!conn.finished(), "cut {cut}: the tail is still a request");
            let job = conn.next_job(&m).expect("EOF hands over the tail");
            assert_eq!(job.req, Request::Stats);
            conn.complete(reply(job, b"stats\n"), &m);
            assert!(!conn.finished());
            assert_eq!(flush(&mut conn, &m), b"stats\n");
            assert!(conn.finished(), "cut {cut}");
        }
    }

    #[test]
    fn an_outbox_past_the_high_water_mark_pauses_reading_until_it_drains() {
        let m = metrics();
        let mut conn = Connection::new(4);
        let script: Vec<u8> = (0..2).flat_map(tagged).collect();
        let first = feed(&mut conn, &m, &script[..script.len() / 2], 0).remove(0);
        conn.push_bytes(&script[script.len() / 2..]);
        conn.complete(reply(first, &vec![b'x'; MAX_OUTBOX_BYTES + 1]), &m);
        assert!(!conn.wants_read(), "over the mark is backpressure");
        assert!(conn.next_job(&m).is_none(), "and pauses parsing");
        conn.advance(1, &m);
        assert!(conn.wants_read(), "at the mark reading resumes");
        assert_eq!(conn.next_job(&m).expect("buffered request").id, Some(1));
    }
}
