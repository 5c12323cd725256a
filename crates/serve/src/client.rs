//! Typed client for the plan-compilation service.
//!
//! Two ways to talk to the server share one connection:
//!
//! * **Synchronous (v1)** — [`PlanClient::request`] and the typed wrappers
//!   ([`PlanClient::plan`], [`PlanClient::profile`], …) send a bare
//!   request and block for its reply, strictly one at a time.
//! * **Pipelined (v2)** — [`PlanClient::submit`] tags a request with a
//!   connection-scoped id and returns a [`Ticket`] immediately;
//!   [`PlanClient::wait`] / [`PlanClient::wait_any`] collect replies,
//!   which the server sends **out of order** as searches finish. Replies
//!   for tickets other than the awaited one are stashed and handed out
//!   when their ticket is waited on. [`PlanClient::plan_many`] pipelines a
//!   whole batch over the connection with a sliding submission window.
//!
//! Both framings read through one persistent [`FrameBuffer`], which splits
//! raw bytes and validates UTF-8 per complete JSON line, so a read timeout
//! mid-response (after [`PlanClient::set_timeout`]) never drops received
//! bytes or desyncs the framing — even inside a multibyte character. The
//! next read resumes the same line or frame.
//!
//! [`PlanClient::connect`] negotiates the **v3 binary framing** (see the
//! protocol module docs); [`PlanClient::connect_with_version`] pins an
//! older revision, whose JSON framing the typed API speaks the same way.
//! Decoded responses are bit-identical across framings except that a v3
//! plan reply's learning curve is down-sampled ([`crate::summary_curve`]);
//! a v2 connection fetches the whole curve.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::Duration;

use qsdnn::engine::{CostLut, Objective};

use crate::protocol::{
    negotiates_binary, parse_binary_response, parse_response_frame, read_binary_frame_resumable,
    write_binary_message, write_message, FrameBuffer, PlanRequest, PlanResponse, ProfileRequest,
    ProfileResponse, Request, Response, ResponseFrame, SearchRequest, StatsResponse, TaggedRequest,
    WireMode, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::reactor::{poll, PollFd};
use crate::ServeError;

/// Default sliding-window size for [`PlanClient::plan_many`]: how many
/// submitted-but-unanswered requests the client keeps on the wire. Equals
/// the server's default per-connection in-flight cap
/// ([`crate::DEFAULT_MAX_IN_FLIGHT`]) so a defaulted client never stalls
/// the server's reader — a stalled reader plus a client that writes
/// without reading is the classic pipelining deadlock.
pub const DEFAULT_CLIENT_WINDOW: usize = 32;

/// Handle to one in-flight pipelined request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// The wire id this ticket correlates with.
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// A connected client. Synchronous requests run one at a time; pipelined
/// requests ([`PlanClient::submit`]) multiplex over the same connection.
pub struct PlanClient {
    stream: TcpStream,
    /// Read timeout, per read: see `TimedRead`. Kept here rather than
    /// as `SO_RCVTIMEO`, which some kernels round up to scheduler ticks.
    read_timeout: Cell<Option<Duration>>,
    /// Received bytes not yet consumed, in either framing: a half-read
    /// reply survives a read timeout here, and bytes that follow the v3
    /// pong are already in place for the binary reader.
    frames: FrameBuffer,
    /// Wire framing in effect: JSON during the handshake (and for life
    /// on a connection pinned below v3), binary after a v3 pong.
    mode: WireMode,
    next_id: u64,
    /// Tickets submitted but not yet returned to the caller.
    outstanding: HashSet<u64>,
    /// Replies received while waiting for a different ticket.
    stashed: HashMap<u64, Response>,
    window: usize,
}

impl PlanClient {
    /// Connects and verifies the protocol revision with a ping,
    /// negotiating the v3 binary framing: [`PlanClient::connect_with_version`]
    /// at [`PROTOCOL_VERSION`].
    ///
    /// # Errors
    ///
    /// Fails on connection errors or when the server rejects the version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::connect_with_version(addr, PROTOCOL_VERSION)
    }

    /// Connects at one protocol revision: the connection speaks binary
    /// frames iff `version` negotiates them (v3+), JSON lines otherwise.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or when the server rejects `version`.
    pub fn connect_with_version(
        addr: impl ToSocketAddrs,
        version: u32,
    ) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = PlanClient {
            stream,
            read_timeout: Cell::new(None),
            frames: FrameBuffer::new(),
            mode: WireMode::Json,
            next_id: 0,
            outstanding: HashSet::new(),
            stashed: HashMap::new(),
            window: DEFAULT_CLIENT_WINDOW,
        };
        match client.request(&Request::Ping { version })? {
            Response::Pong { .. } => {
                if negotiates_binary(version) {
                    // That pong was the last JSON line in either
                    // direction; everything from here is binary frames.
                    client.mode = WireMode::Binary;
                }
                Ok(client)
            }
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected handshake reply {other:?}"
            ))),
        }
    }

    /// Whether this connection negotiated the v3 binary framing.
    pub fn is_binary(&self) -> bool {
        self.mode == WireMode::Binary
    }

    /// Sets the read and write timeouts (`None` blocks forever). Each
    /// read from the socket that finds no byte within the timeout fails
    /// with `WouldBlock`. Reads wait with `poll(2)`, so they end within
    /// about a millisecond of the timeout (it is rounded up to whole
    /// milliseconds), not at the next scheduler tick. Writes still use the
    /// socket's `SO_SNDTIMEO`, because a blocking write can block even
    /// after the socket polled writable.
    ///
    /// A timeout surfacing mid-response keeps the received bytes, so
    /// framing never desyncs. On the pipelined path the interrupted read
    /// is fully recoverable — call [`PlanClient::wait`] on the same ticket
    /// again. The synchronous wrappers ([`PlanClient::plan`] etc.) have no
    /// read-only retry: re-calling one *resends* the request, and the
    /// connection then carries one unconsumed reply — prefer
    /// [`PlanClient::submit`]/[`PlanClient::wait`] when using timeouts.
    ///
    /// # Errors
    ///
    /// A zero timeout is an `InvalidInput` I/O error, as it is for
    /// [`TcpStream::set_read_timeout`]; other socket option failures
    /// propagate. Either way the timeouts stay as they were.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_write_timeout(timeout)?;
        self.read_timeout.set(timeout);
        Ok(())
    }

    /// Sets the sliding-window size used by [`PlanClient::plan_many`]
    /// (clamped to ≥ 1). Keep it at or below the server's per-connection
    /// in-flight cap; a larger window can stall the server's reader.
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Reads the next response frame off the connection, whatever its
    /// framing.
    fn read_frame(&mut self) -> Result<ResponseFrame, ServeError> {
        let closed = || ServeError::Protocol("server closed the connection".into());
        let mut stream = TimedRead {
            stream: &mut self.stream,
            timeout: self.read_timeout.get(),
        };
        match self.mode {
            WireMode::Json => loop {
                if let Some(line) = self.frames.next_frame() {
                    return parse_json_line(&line);
                }
                if self.frames.fill_from(&mut stream)? == 0 {
                    // EOF mid-line hands over what arrived; it fails to
                    // parse unless the server merely omitted the `\n`.
                    return match self.frames.take_partial() {
                        Some(line) => parse_json_line(&line),
                        None => Err(closed()),
                    };
                }
            },
            WireMode::Binary => {
                match read_binary_frame_resumable(&mut stream, &mut self.frames, MAX_FRAME_BYTES)? {
                    Some(frame) => parse_binary_response(&frame),
                    None => Err(closed()),
                }
            }
        }
    }

    /// Sends one bare request and reads its reply. Tagged replies to
    /// earlier [`PlanClient::submit`] calls that arrive first are stashed
    /// for their tickets, not lost.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, malformed responses, or a server-side close.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        match self.mode {
            WireMode::Json => write_message(&mut self.stream, req)?,
            WireMode::Binary => write_binary_message(&mut self.stream, None, req)?,
        }
        loop {
            match self.read_frame()? {
                ResponseFrame::Untagged(resp) => return Ok(resp),
                ResponseFrame::Tagged(tagged) => {
                    self.stashed.insert(tagged.id, tagged.resp);
                }
            }
        }
    }

    /// Pipelines a request: writes it inside a tagged envelope and returns
    /// a ticket without waiting for the reply. The server answers tickets
    /// out of order as their searches finish; collect replies with
    /// [`PlanClient::wait`] or [`PlanClient::wait_any`]. Takes the request
    /// by value — a `search` request carries a whole LUT, which would
    /// otherwise be deep-cloned per submit.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (the write side).
    pub fn submit(&mut self, req: Request) -> Result<Ticket, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.mode {
            WireMode::Json => write_message(&mut self.stream, &TaggedRequest { id, req })?,
            // The binary envelope carries the id in the frame header, so
            // the body is the bare request — no JSON-style wrapper.
            WireMode::Binary => write_binary_message(&mut self.stream, Some(id), &req)?,
        }
        self.outstanding.insert(id);
        Ok(Ticket(id))
    }

    /// Blocks for a specific ticket's reply. Replies for other tickets
    /// that arrive first are stashed.
    ///
    /// On an I/O error (including a read timeout), the ticket stays
    /// outstanding and any half-received reply is preserved — call `wait`
    /// again to resume exactly where the read stopped.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, for a ticket that was never submitted (or
    /// already waited on), or when the server breaks framing.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Response, ServeError> {
        if let Some(resp) = self.stashed.remove(&ticket.0) {
            self.outstanding.remove(&ticket.0);
            return Ok(resp);
        }
        if !self.outstanding.contains(&ticket.0) {
            return Err(ServeError::Protocol(format!(
                "ticket {} is not in flight",
                ticket.0
            )));
        }
        loop {
            match self.read_frame()? {
                ResponseFrame::Tagged(tagged) if tagged.id == ticket.0 => {
                    self.outstanding.remove(&ticket.0);
                    return Ok(tagged.resp);
                }
                ResponseFrame::Tagged(tagged) => {
                    self.stashed.insert(tagged.id, tagged.resp);
                }
                ResponseFrame::Untagged(Response::Error { message }) => {
                    // Framing-level server error (no id survived on the
                    // server side); surface it to the waiter.
                    return Err(ServeError::Remote(message));
                }
                ResponseFrame::Untagged(other) => {
                    return Err(ServeError::Protocol(format!(
                        "untagged reply {other:?} while waiting for ticket {}",
                        ticket.0
                    )));
                }
            }
        }
    }

    /// Blocks for whichever in-flight ticket completes next — the way to
    /// observe the server's out-of-order completion order.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, when nothing is in flight, or when the server
    /// breaks framing.
    pub fn wait_any(&mut self) -> Result<(Ticket, Response), ServeError> {
        if let Some(&id) = self.stashed.keys().next() {
            let resp = self.stashed.remove(&id).expect("key just seen");
            self.outstanding.remove(&id);
            return Ok((Ticket(id), resp));
        }
        if self.outstanding.is_empty() {
            return Err(ServeError::Protocol("no requests in flight".into()));
        }
        loop {
            match self.read_frame()? {
                ResponseFrame::Tagged(tagged) if self.outstanding.remove(&tagged.id) => {
                    return Ok((Ticket(tagged.id), tagged.resp));
                }
                ResponseFrame::Tagged(tagged) => {
                    // Unknown id: keep it — a caller may have leaked the
                    // ticket, and dropping bytes desyncs nothing.
                    self.stashed.insert(tagged.id, tagged.resp);
                }
                ResponseFrame::Untagged(Response::Error { message }) => {
                    return Err(ServeError::Remote(message));
                }
                ResponseFrame::Untagged(other) => {
                    return Err(ServeError::Protocol(format!(
                        "untagged reply {other:?} while waiting for any ticket"
                    )));
                }
            }
        }
    }

    /// [`PlanClient::submit`] for a plan request.
    ///
    /// # Errors
    ///
    /// See [`PlanClient::submit`].
    pub fn submit_plan(&mut self, req: PlanRequest) -> Result<Ticket, ServeError> {
        self.submit(Request::Plan(req))
    }

    /// [`PlanClient::wait`] narrowed to a plan reply.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn wait_plan(&mut self, ticket: Ticket) -> Result<PlanResponse, ServeError> {
        match self.wait(ticket)? {
            Response::Plan(plan) => Ok(plan),
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Pipelines a batch of plan requests over this one connection and
    /// returns the responses in request order. At most
    /// [`PlanClient::set_window`] requests ride the wire unanswered at a
    /// time, so a defaulted client stays under the server's in-flight cap
    /// while still keeping the server's whole worker pool busy.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or the first server-side rejection. On a
    /// rejection, the batch's already-submitted tickets are drained before
    /// returning, so their late replies never leak into a later
    /// [`PlanClient::wait_any`] or pile up in the stash.
    pub fn plan_many(&mut self, reqs: &[PlanRequest]) -> Result<Vec<PlanResponse>, ServeError> {
        let mut tickets = Vec::with_capacity(reqs.len());
        let result = self.plan_many_windowed(reqs, &mut tickets);
        if result.is_err() {
            self.discard(&tickets);
        }
        result
    }

    fn plan_many_windowed(
        &mut self,
        reqs: &[PlanRequest],
        tickets: &mut Vec<Ticket>,
    ) -> Result<Vec<PlanResponse>, ServeError> {
        let head = self.window.min(reqs.len());
        for req in &reqs[..head] {
            tickets.push(self.submit_plan(req.clone())?);
        }
        let mut out = Vec::with_capacity(reqs.len());
        for i in 0..reqs.len() {
            out.push(self.wait_plan(tickets[i])?);
            // One answered, one submitted: the window slides.
            if tickets.len() < reqs.len() {
                let next = tickets.len();
                tickets.push(self.submit_plan(reqs[next].clone())?);
            }
        }
        Ok(out)
    }

    /// Blocks until each ticket's reply has arrived and discards it.
    /// Stops at the first transport or framing failure — the connection
    /// is unusable at that point anyway.
    fn discard(&mut self, tickets: &[Ticket]) {
        for &ticket in tickets {
            let pending = self.outstanding.contains(&ticket.0);
            if !pending && !self.stashed.contains_key(&ticket.0) {
                continue; // already delivered to the caller
            }
            match self.wait(ticket) {
                Ok(_) | Err(ServeError::Remote(_)) => {}
                Err(_) => return,
            }
        }
    }

    fn expect_plan(&mut self, req: &Request) -> Result<PlanResponse, ServeError> {
        match self.request(req)? {
            Response::Plan(plan) => Ok(plan),
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Profiles a zoo network on the server.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn profile(&mut self, req: ProfileRequest) -> Result<ProfileResponse, ServeError> {
        match self.request(&Request::Profile(req))? {
            Response::Profile(p) => Ok(p),
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Runs the search portfolio on a client-supplied LUT (scenario
    /// transfer left to the server's policy; pass a [`SearchRequest`] via
    /// [`PlanClient::request`] to control it per request).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn search(
        &mut self,
        lut: CostLut,
        objective: Objective,
        episodes: usize,
        seeds: Vec<u64>,
    ) -> Result<PlanResponse, ServeError> {
        self.search_on(lut, objective, episodes, seeds, "")
    }

    /// [`PlanClient::search`] pinned to a registered platform (empty =
    /// the server's default platform).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn search_on(
        &mut self,
        lut: CostLut,
        objective: Objective,
        episodes: usize,
        seeds: Vec<u64>,
        platform: impl Into<String>,
    ) -> Result<PlanResponse, ServeError> {
        self.expect_plan(&Request::Search(SearchRequest {
            lut,
            objective,
            episodes,
            seeds,
            transfer: crate::protocol::TransferMode::Auto,
            trace: false,
            platform: platform.into(),
        }))
    }

    /// Requests an end-to-end plan (profile + portfolio search, cached).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn plan(&mut self, req: PlanRequest) -> Result<PlanResponse, ServeError> {
        self.expect_plan(&Request::Plan(req))
    }

    /// Fetches service counters.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn stats(&mut self) -> Result<StatsResponse, ServeError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Fetches the full observability snapshot: every metric family with
    /// histogram quantiles — the wire twin of the Prometheus endpoint.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn metrics(&mut self) -> Result<crate::protocol::MetricsResponse, ServeError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Lists the server's platform registry: every target a request's
    /// `platform` field can select, with spec fingerprints.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn platforms(&mut self) -> Result<crate::protocol::PlatformsResponse, ServeError> {
        match self.request(&Request::Platforms)? {
            Response::Platforms(p) => Ok(p),
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Dumps the server's flight recorder: the event journal across every
    /// thread ring plus the retained slow/panic exemplars.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn events(&mut self) -> Result<crate::protocol::EventsResponse, ServeError> {
        match self.request(&Request::Events)? {
            Response::Events(e) => Ok(e),
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Fetches the live task table: what every worker and dispatcher
    /// thread is doing right now.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side rejection.
    pub fn tasks(&mut self) -> Result<crate::protocol::TasksResponse, ServeError> {
        match self.request(&Request::Tasks)? {
            Response::Tasks(t) => Ok(t),
            Response::Error { message } => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}

/// The client's socket as a reader. With a timeout, each `read` first
/// waits for readability with `poll(2)` and fails with `WouldBlock` if
/// none comes in time: the error kind `SO_RCVTIMEO` gives, per read as
/// with it, so a half-read frame stays buffered for the retry.
struct TimedRead<'a> {
    stream: &'a mut TcpStream,
    timeout: Option<Duration>,
}

impl Read for TimedRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(timeout) = self.timeout {
            let mut fds = [PollFd::readable(self.stream.as_raw_fd())];
            if poll(&mut fds, timeout)? == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
        }
        self.stream.read(buf)
    }
}

/// Parses one complete JSON reply line. UTF-8 is checked only here, on
/// the whole line, never on a partial read.
fn parse_json_line(line: &[u8]) -> Result<ResponseFrame, ServeError> {
    match std::str::from_utf8(line) {
        Ok(text) => parse_response_frame(text),
        Err(_) => Err(ServeError::Protocol(
            "reply line is not valid UTF-8".to_string(),
        )),
    }
}
