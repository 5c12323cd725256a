//! The connection layer: one readiness loop owns every socket.
//!
//! One reactor thread waits on the listener, a wakeup socket and every
//! client socket (all nonblocking), so threads scale with the pools, not
//! with connections. The wire contract lives in [`Connection`]; this
//! module only moves bytes:
//!
//! * **read** — readable bytes are pushed into the connection's state
//!   machine; every [`Connection::next_job`] it yields goes to the bounded
//!   dispatcher pool.
//! * **dispatch** — dispatchers run the job (fanning portfolio members
//!   onto the shared search [`WorkerPool`]), push the rendered reply onto
//!   a completion queue, then write one byte into the wakeup socket so the
//!   loop picks it up. Dispatchers never touch sockets.
//! * **write** — the loop writes as much pending output as the socket
//!   accepts, resumes partial writes once it turns writable again, and
//!   never blocks on a slow reader.
//!
//! Backpressure is interest management: a connection whose state machine
//! does not [`Connection::wants_read`] simply stops being watched for
//! readability, so TCP flow control pushes back on the client while every
//! other connection proceeds.
//!
//! Readiness is `poll(2)` on every target, through direct `extern "C"`
//! FFI: no vendored libc for one syscall. `poll` rescans every fd per
//! wait, so a cached round trip slows as idle connections pile up (about
//! 80 µs p50 at 1000, see the serve README); the benchmark workloads
//! hold two. The one binding, behind the safe [`poll`], also times
//! [`crate::PlanClient`]'s reads.

#![allow(unsafe_code)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qsdnn_obs::EventKind;

use crate::conn::{Connection, Job, Reply};
use crate::pool::WorkerPool;
use crate::server::ServiceState;
use crate::ServeError;

/// Label of the readiness backend, reported as a post-mortem dump's `io`.
pub(crate) const BACKEND: &str = "poll";

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Idle wait tick: bounds how stale the accept back-off and shutdown
/// checks can get even if a wakeup is lost.
const TICK: Duration = Duration::from_millis(100);

/// A reactor work phase (everything between two waits) longer than this
/// journals a `reactor_stall` flight-recorder event: the loop is the only
/// thread moving bytes, so a stall here delays every connection at once.
const STALL_THRESHOLD: Duration = Duration::from_millis(10);

/// A wait that overstays its requested timeout by more than this journals
/// an `epoll_wait_outlier` event (a wire name older than the `poll`
/// backend) — scheduler starvation the latency histograms can't attribute.
const WAIT_OUTLIER_SLACK: Duration = Duration::from_millis(100);

/// How long shutdown keeps delivering in-flight replies before abandoning
/// the remaining connections, so a never-reading client cannot wedge
/// [`crate::PlanServer::shutdown`].
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// First back-off after a transient `accept()` failure (EMFILE & friends).
/// Doubles per consecutive failure up to [`ACCEPT_BACKOFF_MAX`], resets on
/// the next successful accept. Without this, an fd-exhausted listener
/// spins the loop at 100% CPU retrying the same doomed `accept()`.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);

/// Ceiling on the accept back-off.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Readiness tokens for the two non-connection fds.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// What a registered fd is watched for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Interest {
    read: bool,
    write: bool,
}

impl Interest {
    const NONE: Interest = Interest {
        read: false,
        write: false,
    };
    const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// What one wait reported for one fd: bytes (or EOF) to read, room to
/// write, or an error or hang-up (reported whatever the interest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Ready {
    readable: bool,
    writable: bool,
    hangup: bool,
}

// Raw `poll(2)` bindings. The flag values are the same on Linux, Apple
// targets and the BSDs; only POSIX flags are used (no `POLLRDHUP`).
const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` in
/// bionic, Apple's libc and the BSDs — the targets `lib.rs` admits.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

/// `struct pollfd`, identical on every unix.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// `fd` watched for readability.
    pub(crate) fn readable(fd: RawFd) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }
}

mod sys {
    use super::{c_int, NfdsT, PollFd};

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
}

/// Blocks until an fd in `fds` is ready for what it is watched for, or
/// has hung up, or `timeout` passes; returns how many fds report events
/// (0 when the timeout passed). `poll` counts whole milliseconds, and the
/// timeout is rounded *up* to them, so a wait never ends before it is due.
///
/// # Errors
///
/// The OS error, `Interrupted` included.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let timeout_ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    // SAFETY: the pointer and length describe `fds`, live and exclusively
    // borrowed for the call; the kernel reads each entry and writes only
    // its `revents`.
    let ready = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if ready < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ready as usize)
}

/// A level-triggered readiness set over raw fds, each registered under
/// a caller-chosen token: every registered fd as one `pollfd` array,
/// handed whole to each `poll`, plus a map from fd to its slot and
/// token. Delete is `swap_remove`, so slots stay dense.
struct PollSet {
    fds: Vec<PollFd>,
    slots: HashMap<RawFd, (usize, u64)>,
}

fn mask(interest: Interest) -> c_short {
    let read = if interest.read { POLLIN } else { 0 };
    read | if interest.write { POLLOUT } else { 0 }
}

impl PollSet {
    fn new() -> PollSet {
        PollSet {
            fds: Vec::new(),
            slots: HashMap::new(),
        }
    }

    /// Registers `fd`; an fd already in the set is `AlreadyExists`.
    fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.slots.contains_key(&fd) {
            return Err(io::ErrorKind::AlreadyExists.into());
        }
        self.slots.insert(fd, (self.fds.len(), token));
        self.fds.push(PollFd {
            fd,
            events: mask(interest),
            revents: 0,
        });
        Ok(())
    }

    /// Replaces a registered fd's token and interest; an fd not in the
    /// set is `NotFound`.
    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let (slot, slot_token) = self.slots.get_mut(&fd).ok_or(io::ErrorKind::NotFound)?;
        let pfd = self.fds.get_mut(*slot).ok_or(io::ErrorKind::NotFound)?;
        pfd.events = mask(interest);
        *slot_token = token;
        Ok(())
    }

    /// Unregisters `fd`; an fd not in the set is `NotFound`.
    fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        let (slot, _) = self.slots.remove(&fd).ok_or(io::ErrorKind::NotFound)?;
        if slot < self.fds.len() {
            self.fds.swap_remove(slot);
        }
        if let Some(moved) = self.fds.get(slot) {
            self.slots.entry(moved.fd).and_modify(|(s, _)| *s = slot);
        }
        Ok(())
    }

    /// Blocks until something is ready or `timeout` (rounded up to whole
    /// milliseconds) passes, then replaces the contents of `ready` with
    /// every fd that is ready for what it is watched for, or has hung up
    /// (whatever its interest). An interrupted wait reports nothing.
    fn wait(&mut self, ready: &mut Vec<(u64, Ready)>, timeout: Duration) -> io::Result<()> {
        ready.clear();
        if let Err(e) = poll(&mut self.fds, timeout) {
            return match e.kind() {
                io::ErrorKind::Interrupted => Ok(()),
                _ => Err(e),
            };
        }
        for pfd in self.fds.iter().filter(|pfd| pfd.revents != 0) {
            let Some(&(_, token)) = self.slots.get(&pfd.fd) else {
                continue;
            };
            let readiness = Ready {
                readable: pfd.revents & POLLIN != 0,
                writable: pfd.revents & POLLOUT != 0,
                hangup: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
            };
            ready.push((token, readiness));
        }
        Ok(())
    }
}

/// Write end of the reactor's wakeup socket. Cloneable and cheap: one byte
/// per wake, and a full buffer means a wakeup is already pending, so every
/// error is ignorable.
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    pub(crate) fn wake(&self) {
        // WouldBlock: the socket already holds a pending wakeup. A broken
        // pipe: the reactor is gone and nothing needs waking. Both are fine.
        let _ = (&*self.tx).write(&[1]);
    }
}

/// Dispatcher → reactor handoff: finished requests by connection token in
/// a locked queue, plus the wakeup socket.
pub(crate) struct Completions {
    queue: Mutex<Vec<(u64, Reply)>>,
    waker: Waker,
}

impl Completions {
    fn push(&self, completion: (u64, Reply)) {
        let first = {
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push(completion);
            queue.len() == 1
        };
        // The reactor drains the whole queue every turn, so only the push
        // that makes it non-empty needs to wake it: one pending wake
        // covers every completion queued behind it.
        if first {
            self.waker.wake();
        }
    }

    fn drain(&self) -> Vec<(u64, Reply)> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *queue)
    }
}

/// One client socket and its protocol state.
struct Conn {
    stream: TcpStream,
    machine: Connection,
    /// Interest currently installed in the readiness set.
    registered: Interest,
}

/// Starts the reactor on `listener`, returning its join handle and a
/// waker for shutdown. Joining it also drains the dispatcher pool it owns.
pub(crate) fn start(
    listener: TcpListener,
    state: Arc<ServiceState>,
) -> Result<(JoinHandle<()>, Waker), ServeError> {
    listener.set_nonblocking(true)?;
    let mut readiness = PollSet::new();
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let waker = Waker {
        tx: Arc::new(wake_tx),
    };
    readiness.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    readiness.add(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        waker: waker.clone(),
    });
    let mut reactor = Reactor {
        readiness,
        listener,
        listener_armed: true,
        accept_backoff: ACCEPT_BACKOFF_MIN,
        accept_resume: None,
        conns: HashMap::new(),
        next_token: TOKEN_FIRST_CONN,
        dispatchers: state.dispatcher_pool(),
        state,
        completions,
        drain_deadline: None,
        wake_rx,
    };
    let handle = std::thread::Builder::new()
        .name("qsdnn-reactor".into())
        .spawn(move || reactor.run())?;
    Ok((handle, waker))
}

struct Reactor {
    readiness: PollSet,
    listener: TcpListener,
    /// Whether the listener is currently watched for readability
    /// (disarmed during accept back-off and shutdown).
    listener_armed: bool,
    accept_backoff: Duration,
    /// When a backed-off listener re-arms.
    accept_resume: Option<Instant>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    state: Arc<ServiceState>,
    dispatchers: WorkerPool,
    completions: Arc<Completions>,
    /// Set when shutdown begins: how long to keep flushing before
    /// abandoning whatever is left.
    drain_deadline: Option<Instant>,
    /// Declared after `dispatchers` so it drops after them: a dispatcher
    /// finishing during teardown still wakes an open socket.
    wake_rx: UnixStream,
}

impl Reactor {
    fn run(&mut self) {
        let mut ready = Vec::with_capacity(256);
        let instrumented = self.state.metrics.enabled();
        let recorder = Arc::clone(self.state.metrics.recorder());
        loop {
            let timeout = self.wait_timeout();
            let wait_start = Instant::now();
            // A failed wait reports nothing; the loop ticks on.
            let _ = self.readiness.wait(&mut ready, timeout);
            let work_start = Instant::now();
            let waited = work_start.duration_since(wait_start);
            if instrumented {
                // Event-loop health: how long the loop sat blocked, and how
                // much readiness one wakeup delivered.
                self.state
                    .metrics
                    .reactor_wait_stall_us
                    .set(waited.as_micros() as i64);
                self.state
                    .metrics
                    .reactor_ready_events
                    .set(ready.len() as i64);
            }
            if recorder.enabled() && waited > timeout + WAIT_OUTLIER_SLACK {
                recorder.emit(EventKind::EpollWaitOutlier, 0, waited.as_micros() as u64, 0);
            }
            let mut accept_ready = false;
            for &(token, readiness) in &ready {
                match token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.drain_wake_socket(),
                    token => self.on_conn_event(token, readiness),
                }
            }
            // Completions are drained every turn, not only on waker
            // readiness: a wake can coalesce with one already pending.
            for (token, reply) in self.completions.drain() {
                self.deliver(token, reply);
            }
            let worked = work_start.elapsed();
            if instrumented {
                self.state.metrics.reactor_loop_us.record_duration(worked);
            }
            if recorder.enabled() && worked > STALL_THRESHOLD {
                recorder.emit(EventKind::ReactorStall, 0, worked.as_micros() as u64, 0);
            }
            // SeqCst: shutdown must be totally ordered against the
            // acceptor and worker threads' own checks so no thread keeps
            // admitting work after another observed the flag.
            if self.state.shutting_down.load(Ordering::SeqCst) {
                if self.begin_or_check_drain() {
                    return;
                }
                continue;
            }
            if accept_ready {
                self.do_accept();
            }
            if let Some(resume) = self.accept_resume {
                if Instant::now() >= resume {
                    self.accept_resume = None;
                    self.arm_listener(true);
                    // Connections queued during the back-off are still
                    // pending; try them now rather than next readiness.
                    self.do_accept();
                }
            }
        }
    }

    fn wait_timeout(&self) -> Duration {
        let mut timeout = TICK;
        if let Some(resume) = self.accept_resume {
            timeout = timeout.min(resume.saturating_duration_since(Instant::now()));
        }
        timeout.max(Duration::from_millis(1))
    }

    /// First call: stop accepting and parsing, close idle connections,
    /// start the drain clock. Later calls: report whether the drain is
    /// done (everything idle-and-closed, or deadline passed).
    fn begin_or_check_drain(&mut self) -> bool {
        if self.drain_deadline.is_none() {
            self.drain_deadline = Some(Instant::now() + SHUTDOWN_DRAIN);
            self.arm_listener(false);
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.machine.drain();
                }
                self.service(token);
            }
        }
        let expired = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
        self.conns.is_empty() || expired
    }

    fn arm_listener(&mut self, armed: bool) {
        if self.listener_armed == armed {
            return;
        }
        let interest = if armed {
            Interest::READ
        } else {
            Interest::NONE
        };
        if self
            .readiness
            .modify(self.listener.as_raw_fd(), TOKEN_LISTENER, interest)
            .is_ok()
        {
            self.listener_armed = armed;
        }
    }

    fn drain_wake_socket(&mut self) {
        let mut buf = [0u8; 64];
        // A short read means drained; WouldBlock or an error means nothing
        // more to read.
        while let Ok(n) = self.wake_rx.read(&mut buf) {
            if n < buf.len() {
                return;
            }
        }
    }

    fn do_accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .readiness
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.state.metrics.connections.inc();
                    let machine = Connection::new(self.state.config.in_flight_cap());
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            machine,
                            registered: Interest::READ,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // One queued connection died before we accepted it; the
                // queue behind it is healthy — retry immediately.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    // Resource exhaustion (EMFILE, ENFILE, ENOMEM…): with a
                    // level-triggered listener, retrying instantly would
                    // spin the whole loop at 100% CPU. Disarm the
                    // listener and re-arm after an exponential back-off;
                    // pending connections stay queued in the kernel.
                    self.state.accept_errors.fetch_add(1, Ordering::Relaxed);
                    self.arm_listener(false);
                    self.accept_resume = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    return;
                }
            }
        }
    }

    fn on_conn_event(&mut self, token: u64, ready: Ready) {
        // A hang-up with bytes or EOF still to read is read first: poll(2)
        // on macOS reports a peer's half-close as a hang-up, and that peer
        // still waits for its replies. A dead socket fails the write or
        // the read below and closes there.
        if ready.hangup && !ready.readable {
            self.close(token);
            return;
        }
        if ready.writable && !self.flush(token) {
            return;
        }
        if ready.readable && !self.read_ready(token) {
            return;
        }
        // Also on a writable-only wakeup: draining the outbox below its
        // high-water mark unpauses parsing, and the unparsed frames already
        // sit in the state machine — no further readiness will announce
        // them, so parse here or never.
        self.service(token);
    }

    /// Moves readable bytes into the state machine. Returns `false` when
    /// the connection was closed by a read failure.
    fn read_ready(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut chunk = [0u8; READ_CHUNK];
        // `wants_read` bounds the bytes taken per readiness round at the
        // frame bound, so one firehose connection cannot starve the loop;
        // level triggering re-reports the rest next turn.
        while conn.machine.wants_read() {
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.machine.read_eof(),
                Ok(n) => {
                    conn.machine.push_bytes(chunk.get(..n).unwrap_or(&[]));
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return false;
                }
            }
        }
        true
    }

    /// One turn of a connection's crank, after anything that may have
    /// changed its state (bytes read, output flushed, a completion
    /// delivered, shutdown): dispatch every request the state machine
    /// releases, re-arm interest (write interest picks up any error reply
    /// just queued), close if done.
    fn service(&mut self, token: u64) {
        while let Some(job) = self
            .conns
            .get_mut(&token)
            .and_then(|conn| conn.machine.next_job(&self.state.metrics))
        {
            self.dispatch(token, job);
        }
        self.update_interest(token);
        if self
            .conns
            .get(&token)
            .is_some_and(|conn| conn.machine.finished())
        {
            self.close(token);
        }
    }

    fn dispatch(&self, token: u64, job: Job) {
        let state = Arc::clone(&self.state);
        let completions = Arc::clone(&self.completions);
        self.dispatchers.execute(move || {
            completions.push((token, state.run_job(job)));
        });
    }

    fn deliver(&mut self, token: u64, reply: Reply) {
        match self.conns.get_mut(&token) {
            Some(conn) => {
                conn.machine.complete(reply, &self.state.metrics);
                if self.flush(token) {
                    self.service(token);
                }
            }
            // The connection died while its request ran: the reply is
            // undeliverable, but the work still happened — observe the
            // span without a write stage.
            None => self.state.metrics.observe(&reply.span),
        }
    }

    /// Writes as much pending output as the socket accepts. Returns
    /// `false` when the connection is gone (closed by a write failure).
    fn flush(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        while !conn.machine.pending_output().is_empty() {
            match conn.stream.write(conn.machine.pending_output()) {
                Ok(n) => conn.machine.advance(n, &self.state.metrics),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // The peer is gone; in-flight replies for this token
                    // will be discarded at delivery.
                    self.close(token);
                    return false;
                }
            }
        }
        true
    }

    /// Reconciles the registered interest with the connection's state:
    /// read while the state machine wants bytes, write while it holds
    /// unflushed output.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = Interest {
            read: conn.machine.wants_read(),
            write: !conn.machine.pending_output().is_empty(),
        };
        if want != conn.registered
            && self
                .readiness
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.registered = want;
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.readiness.delete(conn.stream.as_raw_fd());
            self.state.metrics.connections.dec();
            conn.machine.abort(&self.state.metrics);
            // Dropping the stream closes the fd.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        write_message, PlanRequest, ProfileRequest, Request, TaggedRequest, TransferMode,
    };
    use crate::{PlanClient, ServerConfig};
    use qsdnn::engine::{Mode, Objective};

    /// Long enough that a step expecting readiness never times out first.
    const READY_WITHIN: Duration = Duration::from_secs(2);
    /// Short wait for steps that expect silence.
    const QUIET: Duration = Duration::from_millis(50);

    const READABLE: Ready = Ready {
        readable: true,
        writable: false,
        hangup: false,
    };
    const WRITABLE: Ready = Ready {
        readable: false,
        writable: true,
        hangup: false,
    };

    /// One wait on `set`, its `(token, Ready)` pairs sorted.
    fn step(set: &mut PollSet, timeout: Duration) -> Vec<(u64, Ready)> {
        let mut ready = Vec::new();
        set.wait(&mut ready, timeout).expect("poll wait");
        ready.sort();
        ready
    }

    /// A connected `(peer, ours)` pair with our end nonblocking.
    fn connected(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (ours, _) = listener.accept().expect("accept");
        ours.set_nonblocking(true).expect("nonblocking");
        (peer, ours)
    }

    /// One event script through a `PollSet`: the expected readiness at
    /// every step, including a token that moves slots on a delete.
    #[test]
    fn a_poll_set_reports_the_scripted_readiness_at_every_step() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (mut peer_a, mut a) = connected(&listener);
        let (mut peer_b, b) = connected(&listener);
        let (mut peer_c, c) = connected(&listener);
        let (wake_rx, wake_tx) = UnixStream::pair().expect("socket pair");
        wake_rx.set_nonblocking(true).expect("nonblocking");
        wake_tx.set_nonblocking(true).expect("nonblocking");
        let waker = Waker {
            tx: Arc::new(wake_tx),
        };
        let mut set = PollSet::new();
        set.add(wake_rx.as_raw_fd(), 1, Interest::READ)
            .expect("add");
        set.add(a.as_raw_fd(), 10, Interest::READ).expect("add");
        set.add(b.as_raw_fd(), 11, Interest::READ).expect("add");
        set.add(c.as_raw_fd(), 12, Interest::READ).expect("add");

        let idle = Duration::from_millis(150);
        let started = Instant::now();
        assert_eq!(step(&mut set, idle), [], "idle");
        let waited = started.elapsed();
        assert!(
            waited >= idle - Duration::from_millis(5) && waited < idle + READY_WITHIN,
            "an idle wait of {idle:?} took {waited:?}"
        );

        peer_a.write_all(b"hello").expect("peer write");
        assert_eq!(step(&mut set, READY_WITHIN), [(10, READABLE)], "peer write");
        let read_write = Interest {
            read: true,
            write: true,
        };
        set.modify(a.as_raw_fd(), 10, read_write).expect("modify");
        let both_ways = Ready {
            readable: true,
            writable: true,
            hangup: false,
        };
        assert_eq!(
            step(&mut set, READY_WITHIN),
            [(10, both_ways)],
            "read+write"
        );
        let write_only = Interest {
            read: false,
            write: true,
        };
        set.modify(a.as_raw_fd(), 10, write_only).expect("modify");
        assert_eq!(step(&mut set, READY_WITHIN), [(10, WRITABLE)], "write-only");
        set.modify(a.as_raw_fd(), 10, Interest::READ)
            .expect("modify");
        let mut buf = [0u8; 16];
        assert_eq!(a.read(&mut buf).expect("read"), 5);
        assert_eq!(step(&mut set, QUIET), [], "drained");

        waker.wake();
        assert_eq!(step(&mut set, READY_WITHIN), [(1, READABLE)], "wake");
        assert_eq!((&wake_rx).read(&mut buf).expect("wake byte"), 1);
        assert_eq!(step(&mut set, QUIET), [], "wake drained");

        // `b` sits in the middle of the poll array: deleting it moves `c`
        // into its slot, which must keep answering under its own token.
        peer_b.write_all(b"x").expect("peer write");
        assert_eq!(step(&mut set, READY_WITHIN), [(11, READABLE)], "b readable");
        set.delete(b.as_raw_fd()).expect("delete");
        assert_eq!(step(&mut set, QUIET), [], "deleted fd");
        peer_c.write_all(b"y").expect("peer write");
        assert_eq!(step(&mut set, READY_WITHIN), [(12, READABLE)], "moved slot");
        set.modify(c.as_raw_fd(), 12, Interest::NONE)
            .expect("modify");
        assert_eq!(step(&mut set, QUIET), [], "no interest");

        drop(peer_a);
        let closed = step(&mut set, READY_WITHIN);
        assert!(
            matches!(closed.as_slice(), [(10, r)] if r.readable || r.hangup),
            "a peer close must report readable EOF or a hang-up: {closed:?}"
        );
        assert_eq!(a.read(&mut buf).expect("read at EOF"), 0);
    }

    /// `poll` counts whole milliseconds: a timeout truncated to them woke
    /// a 1.9 ms wait after 1 ms, for an empty loop turn. Rounded up, an
    /// idle wait never ends before it is due.
    #[test]
    fn an_idle_wait_never_ends_before_its_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (_peer, ours) = connected(&listener);
        let mut set = PollSet::new();
        set.add(ours.as_raw_fd(), 10, Interest::READ).expect("add");
        let timeout = Duration::from_micros(1500);
        for _ in 0..5 {
            let started = Instant::now();
            assert_eq!(step(&mut set, timeout), [], "idle");
            let waited = started.elapsed();
            assert!(
                waited >= timeout,
                "a wait of {timeout:?} ended after {waited:?}"
            );
        }
    }

    /// What the script above does not reach: registering twice, touching
    /// an fd that was never registered, and deleting the last slot, which
    /// moves nothing.
    #[test]
    fn a_poll_set_rejects_double_adds_and_unknown_fds() {
        use io::ErrorKind::{AlreadyExists, NotFound};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (mut peer_a, a) = connected(&listener);
        let (mut peer_b, b) = connected(&listener);
        let (_peer_c, c) = connected(&listener);
        let mut set = PollSet::new();
        set.add(a.as_raw_fd(), 10, Interest::READ).expect("add");
        set.add(b.as_raw_fd(), 11, Interest::READ).expect("add");

        let again = set.add(a.as_raw_fd(), 12, Interest::READ);
        assert_eq!(again.expect_err("double add").kind(), AlreadyExists);
        let modified = set.modify(c.as_raw_fd(), 12, Interest::READ);
        assert_eq!(modified.expect_err("unknown fd").kind(), NotFound);
        let deleted = set.delete(c.as_raw_fd());
        assert_eq!(deleted.expect_err("unknown fd").kind(), NotFound);

        // The rejected add left `a` under its first token.
        peer_a.write_all(b"a").expect("peer write");
        assert_eq!(step(&mut set, READY_WITHIN), [(10, READABLE)], "a");

        // `c` takes the last slot; deleting it swaps nothing.
        set.add(c.as_raw_fd(), 12, Interest::READ).expect("add");
        set.delete(c.as_raw_fd()).expect("delete last");
        peer_b.write_all(b"b").expect("peer write");
        assert_eq!(
            step(&mut set, READY_WITHIN),
            [(10, READABLE), (11, READABLE)],
            "after the last slot went"
        );
        let twice = set.delete(c.as_raw_fd());
        assert_eq!(twice.expect_err("deleted twice").kind(), NotFound);
    }

    fn plan(network: &str, episodes: usize) -> PlanRequest {
        PlanRequest {
            network: network.to_string(),
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

    /// A short end-to-end script against a reactor: v3 handshake, cold
    /// plan, hit, a pipelined batch, a client served beside one that never
    /// reads, then a bounded shutdown with the never-reader still
    /// connected.
    #[test]
    fn a_reactor_answers_the_script() {
        let state = ServiceState::new(ServerConfig {
            threads: 2,
            max_in_flight: 4,
            slow_ms: 0,
            ..ServerConfig::default()
        })
        .expect("state");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (reactor, waker) = start(listener, Arc::clone(&state)).expect("start");

        let mut client = PlanClient::connect(addr).expect("connect");
        assert!(client.is_binary(), "the v3 handshake failed");
        let cold = client.plan(plan("tiny_cnn", 120)).expect("cold plan");
        assert!(!cold.cache_hit, "the first plan must search");
        let hit = client.plan(plan("tiny_cnn", 120)).expect("hit");
        assert!(hit.cache_hit, "the repeat must hit");
        assert_eq!(hit.best.best_assignment, cold.best.best_assignment);
        let batch: Vec<PlanRequest> = (0..6)
            .map(|i| plan(["tiny_cnn", "toy_branchy"][i % 2], 130 + i))
            .collect();
        let replies = client.plan_many(&batch).expect("pipelined batch");
        let networks: Vec<&str> = replies.iter().map(|r| r.network.as_str()).collect();
        let asked: Vec<&str> = batch.iter().map(|r| r.network.as_str()).collect();
        assert_eq!(networks, asked, "pipelined replies in request order");

        // Fat replies (≈100 KB each, a whole LUT) for a peer that never
        // reads them: ≈10 MB, more than the kernel buffers, so they pile up
        // in the outbox. A second client must still be served.
        let mut silent = TcpStream::connect(addr).expect("silent connect");
        for id in 0..96u64 {
            let req = Request::Profile(ProfileRequest {
                network: "mobilenet_v1".to_string(),
                batch: 1,
                mode: Mode::Gpgpu,
                repeats: 2,
                platform: String::new(),
            });
            write_message(&mut silent, &TaggedRequest { id, req }).expect("submit");
        }
        let parked = Instant::now() + Duration::from_secs(60);
        while state.metrics.outbox_high_water_bytes.get() < 1 << 20 {
            assert!(Instant::now() < parked, "no replies parked");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut beside = PlanClient::connect(addr).expect("second client");
        beside
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let served = beside.plan(plan("toy_branchy", 120)).expect("served");
        assert_eq!(served.network, "toy_branchy");

        state.shutting_down.store(true, Ordering::SeqCst);
        waker.wake();
        let deadline = Instant::now() + SHUTDOWN_DRAIN + Duration::from_secs(4);
        while !reactor.is_finished() {
            assert!(Instant::now() < deadline, "shutdown wedged");
            std::thread::sleep(Duration::from_millis(10));
        }
        reactor.join().expect("reactor thread");
        drop(silent);
    }
}
