//! The epoll connection layer: one readiness loop owns every socket.
//!
//! The blocking pump spends two threads per connection; this layer spends
//! one in total — a reactor thread running `epoll_wait` over the
//! listener, a wakeup pipe and every client socket (all nonblocking). The
//! wire contract lives in [`Connection`]; this module only moves bytes:
//!
//! * **read** — readable bytes are pushed into the connection's state
//!   machine; every [`Connection::next_job`] it yields goes to the bounded
//!   dispatcher pool.
//! * **dispatch** — dispatchers run the job (fanning portfolio members
//!   onto the shared search [`WorkerPool`]), push the rendered reply onto
//!   a completion queue, then write one byte into the wakeup pipe so the
//!   loop picks it up. Dispatchers never touch sockets.
//! * **write** — the loop writes as much pending output as the socket
//!   accepts, resumes partial writes on `EPOLLOUT`, and never blocks on a
//!   slow reader.
//!
//! Backpressure is interest management: a connection whose state machine
//! does not [`Connection::wants_read`] simply stops being registered for
//! `EPOLLIN`, so TCP flow control pushes back on the client while every
//! other connection proceeds.
//!
//! The epoll binding is direct `extern "C"` FFI over `std::os::fd` — this
//! build is offline, and the four syscalls involved don't justify a
//! vendored libc.

#![allow(unsafe_code)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qsdnn_obs::EventKind;

use crate::conn::{Connection, Job, Reply};
use crate::pool::WorkerPool;
use crate::server::{ServiceState, ACCEPT_BACKOFF_MAX, ACCEPT_BACKOFF_MIN, SHUTDOWN_DRAIN};
use crate::ServeError;

/// Raw Linux epoll/pipe bindings. Constants match the kernel UAPI headers
/// for every Linux target this workspace builds on.
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;

    /// `struct epoll_event`. The x86-64 kernel ABI packs it to 12 bytes;
    /// every other architecture uses natural alignment — same split libc
    /// makes.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Idle `epoll_wait` tick: bounds how stale the accept back-off and
/// shutdown checks can get even if a wakeup is lost.
const TICK: Duration = Duration::from_millis(100);

/// A reactor work phase (everything between two `epoll_wait`s) longer
/// than this journals a `reactor_stall` flight-recorder event: the loop
/// is the only thread moving bytes, so a stall here delays every
/// connection at once.
const STALL_THRESHOLD: Duration = Duration::from_millis(10);

/// An `epoll_wait` that overstays its requested timeout by more than this
/// journals an `epoll_wait_outlier` event — scheduler starvation the
/// latency histograms can't attribute.
const WAIT_OUTLIER_SLACK: Duration = Duration::from_millis(100);

/// `epoll_wait` data tokens for the two non-connection fds.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Thin safe wrapper over one epoll instance.
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; the flag constant is
        // the kernel's own. A negative return is checked before use.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(last_os_error());
        }
        Ok(Epoll {
            // SAFETY: fd was just returned by epoll_create1 (checked
            // >= 0) and has no other owner; OwnedFd takes sole custody.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live stack value for the duration of the
        // call; epoll_ctl only reads it. Both fds are open (self.fd is
        // owned, `fd` is the caller's live socket).
        let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout: Duration) -> io::Result<usize> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: the pointer and length describe the caller's live
        // mutable slice; the kernel writes at most `events.len()`
        // entries and reports how many via the return value.
        let n = unsafe {
            sys::epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                ms,
            )
        };
        if n < 0 {
            let e = last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

/// Write end of the reactor's wakeup pipe. Cloneable and cheap: one byte
/// per wake, and a full pipe means a wakeup is already pending, so every
/// error is ignorable.
#[derive(Clone)]
pub(crate) struct Waker {
    fd: Arc<OwnedFd>,
}

impl Waker {
    pub(crate) fn wake(&self) {
        let byte = [1u8];
        // EAGAIN: the pipe already holds a pending wakeup. EPIPE: the
        // reactor is gone and nothing needs waking. Both are fine.
        // SAFETY: the pointer/length pair describes the one-byte stack
        // buffer above, live for the whole call; the fd is kept open by
        // the Arc<OwnedFd> this method borrows.
        unsafe {
            sys::write(
                self.fd.as_raw_fd(),
                byte.as_ptr() as *const std::os::raw::c_void,
                1,
            );
        }
    }
}

/// Dispatcher → reactor handoff: finished requests by connection token in
/// a locked queue, plus the wakeup pipe.
pub(crate) struct Completions {
    queue: Mutex<Vec<(u64, Reply)>>,
    waker: Waker,
}

impl Completions {
    fn push(&self, completion: (u64, Reply)) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(completion);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<(u64, Reply)> {
        std::mem::take(
            &mut *self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// One client socket and its protocol state.
struct Conn {
    stream: TcpStream,
    machine: Connection,
    /// Interest mask currently installed in the epoll set.
    registered: u32,
}

/// Starts the epoll connection layer on `listener`. Returns the reactor's
/// join handle and a waker for shutdown. The reactor thread owns the
/// dispatcher pool, so joining it also drains the dispatchers.
pub(crate) fn start(
    listener: TcpListener,
    state: Arc<ServiceState>,
) -> Result<(JoinHandle<()>, Waker), ServeError> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let mut pipe_fds = [0i32; 2];
    // SAFETY: pipe2 writes exactly two fds into the two-element array
    // whose pointer it is given; the flags are kernel constants.
    let rc = unsafe { sys::pipe2(pipe_fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
    if rc < 0 {
        return Err(ServeError::Io(last_os_error()));
    }
    // SAFETY: pipe2 succeeded (rc checked), so both fds are open and
    // owned by nobody else; each OwnedFd takes sole custody of one end.
    let wake_rx = unsafe { OwnedFd::from_raw_fd(pipe_fds[0]) };
    let waker = Waker {
        // SAFETY: as above — the write end from the same successful
        // pipe2 call, moved into exactly one OwnedFd.
        fd: Arc::new(unsafe { OwnedFd::from_raw_fd(pipe_fds[1]) }),
    };
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKER)?;
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        waker: waker.clone(),
    });
    let mut reactor = Reactor {
        epoll,
        listener,
        listener_armed: true,
        accept_backoff: ACCEPT_BACKOFF_MIN,
        accept_resume: None,
        wake_rx,
        conns: HashMap::new(),
        next_token: TOKEN_FIRST_CONN,
        dispatchers: state.dispatcher_pool(),
        state,
        completions,
        drain_deadline: None,
    };
    let handle = std::thread::Builder::new()
        .name("qsdnn-reactor".into())
        .spawn(move || reactor.run())?;
    Ok((handle, waker))
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    /// Whether the listener is currently registered for `EPOLLIN`
    /// (disarmed during accept back-off and shutdown).
    listener_armed: bool,
    accept_backoff: Duration,
    /// When a backed-off listener re-arms.
    accept_resume: Option<Instant>,
    wake_rx: OwnedFd,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    state: Arc<ServiceState>,
    dispatchers: WorkerPool,
    completions: Arc<Completions>,
    /// Set when shutdown begins: how long to keep flushing before
    /// abandoning whatever is left.
    drain_deadline: Option<Instant>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        let instrumented = self.state.metrics.enabled();
        let recorder = Arc::clone(self.state.metrics.recorder());
        loop {
            let timeout = self.wait_timeout();
            let wait_start = Instant::now();
            let n = self.epoll.wait(&mut events, timeout).unwrap_or_default();
            let work_start = Instant::now();
            let waited = work_start.duration_since(wait_start);
            if instrumented {
                // Event-loop health: how long the loop sat blocked, and how
                // much readiness one wakeup delivered.
                self.state
                    .metrics
                    .reactor_wait_stall_us
                    .set(waited.as_micros() as i64);
                self.state.metrics.reactor_ready_events.set(n as i64);
            }
            if recorder.enabled() && waited > timeout + WAIT_OUTLIER_SLACK {
                recorder.emit(EventKind::EpollWaitOutlier, 0, waited.as_micros() as u64, 0);
            }
            let mut accept_ready = false;
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) event before use.
                let token = ev.data;
                let bits = ev.events;
                match token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.drain_wake_pipe(),
                    token => self.on_conn_event(token, bits),
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
        let deadline = *self
            .drain_deadline
            .get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN);
        self.conns.is_empty() || Instant::now() >= deadline
    }

    fn arm_listener(&mut self, armed: bool) {
        if self.listener_armed == armed {
            return;
        }
        let events = if armed { sys::EPOLLIN } else { 0 };
        if self
            .epoll
            .modify(self.listener.as_raw_fd(), events, TOKEN_LISTENER)
            .is_ok()
        {
            self.listener_armed = armed;
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: the pointer/length pair describes the local stack
            // buffer, live across the call; the kernel writes at most
            // `buf.len()` bytes. The fd is owned by self and nonblocking.
            let n = unsafe {
                sys::read(
                    self.wake_rx.as_raw_fd(),
                    buf.as_mut_ptr() as *mut std::os::raw::c_void,
                    buf.len(),
                )
            };
            if n < buf.len() as isize {
                return; // drained (or EAGAIN / error — nothing more to read)
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
                    let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
                    if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                        continue;
                    }
                    self.state.metrics.connections.inc();
                    let machine = Connection::new(self.state.config.in_flight_cap());
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            machine,
                            registered: interest,
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

    fn on_conn_event(&mut self, token: u64, bits: u32) {
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close(token);
            return;
        }
        if bits & sys::EPOLLOUT != 0 && !self.flush(token) {
            return;
        }
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !self.read_ready(token) {
            return;
        }
        // Also on an EPOLLOUT-only wakeup: draining the outbox below its
        // high-water mark unpauses parsing, and the unparsed frames already
        // sit in the state machine — no further EPOLLIN will announce
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
    /// releases, re-arm interest (`EPOLLOUT` picks up any error reply
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

    /// Reconciles the epoll interest mask with the connection's state:
    /// `EPOLLIN` while the state machine wants bytes, `EPOLLOUT` while it
    /// holds unflushed output.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // EPOLLRDHUP rides with EPOLLIN, never alone: once the read side
        // is done (or paused), a half-closed socket would otherwise
        // re-report RDHUP on every single epoll_wait — a busy loop that
        // burns the core until the connection drains.
        let mut want = 0;
        if conn.machine.wants_read() {
            want |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if !conn.machine.pending_output().is_empty() {
            want |= sys::EPOLLOUT;
        }
        if want != conn.registered
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_ok()
        {
            conn.registered = want;
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.state.metrics.connections.dec();
            conn.machine.abort(&self.state.metrics);
            // Dropping the stream closes the fd.
        }
    }
}
