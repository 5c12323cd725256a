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
//! Only the readiness syscall differs by platform, behind [`Readiness`]:
//! `epoll` on Linux (`poll` rescans every fd per wait, which roughly
//! triples a cached round trip at 1000 connections; see the serve README),
//! `poll(2)` elsewhere, picked by the build target alone. Both are direct
//! `extern "C"` FFI: no vendored libc for a handful of syscalls.

#![allow(unsafe_code)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
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

/// The readiness backend of this build target.
#[cfg(target_os = "linux")]
type Backend = epoll::Epoll;
#[cfg(not(target_os = "linux"))]
type Backend = poll::PollSet;

/// Label of this target's readiness backend (`epoll` or `poll`).
pub(crate) const BACKEND: &str = <Backend as Readiness>::NAME;

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
/// an `epoll_wait_outlier` event (whichever backend waited) — scheduler
/// starvation the latency histograms can't attribute.
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
pub(crate) struct Interest {
    pub(crate) read: bool,
    pub(crate) write: bool,
}

impl Interest {
    pub(crate) const NONE: Interest = Interest {
        read: false,
        write: false,
    };
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// What one wait reported for one fd: bytes (or EOF) to read, room to
/// write, or an error or hang-up (reported whatever the interest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Ready {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    pub(crate) hangup: bool,
}

/// A level-triggered readiness set over raw fds, each registered under a
/// caller-chosen token. `wait` blocks until something is ready or the
/// timeout passes, then replaces the contents of `ready` with every fd
/// that is ready for what it is watched for, or has hung up; an
/// interrupted wait reports nothing. No event format leaks out of it.
pub(crate) trait Readiness: Sized + Send + 'static {
    /// Stable lowercase label.
    const NAME: &'static str;
    fn new() -> io::Result<Self>;
    fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;
    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;
    fn delete(&mut self, fd: RawFd) -> io::Result<()>;
    fn wait(&mut self, ready: &mut Vec<(u64, Ready)>, timeout: Duration) -> io::Result<()>;
}

/// A wait timeout in the milliseconds both syscalls take.
fn timeout_ms(timeout: Duration) -> i32 {
    timeout.as_millis().min(i32::MAX as u128) as i32
}

/// A wait that returned -1: an interrupted one reports nothing.
fn wait_failed() -> io::Result<()> {
    match io::Error::last_os_error() {
        e if e.kind() == io::ErrorKind::Interrupted => Ok(()),
        e => Err(e),
    }
}

/// Raw Linux epoll bindings. Constants match the kernel UAPI headers for
/// every Linux target this workspace builds on.
#[cfg(target_os = "linux")]
mod epoll {
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::c_int;
    use std::time::Duration;

    use super::{timeout_ms, wait_failed, Interest, Readiness, Ready};

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`. The x86-64 kernel ABI packs it to 12 bytes;
    /// every other architecture uses natural alignment — same split libc
    /// makes.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
    }

    /// Thin safe wrapper over one epoll instance.
    pub(crate) struct Epoll {
        fd: OwnedFd,
        /// Events taken per wait; level triggering re-reports the rest.
        events: Vec<EpollEvent>,
    }

    impl Epoll {
        fn ctl(&self, op: c_int, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
            // EPOLLRDHUP rides with EPOLLIN, never alone: once the read
            // side is done (or paused), a half-closed socket would
            // otherwise re-report RDHUP on every single wait — a busy loop
            // that burns the core until the connection drains.
            let mut events = if interest.write { EPOLLOUT } else { 0 };
            if interest.read {
                events |= EPOLLIN | EPOLLRDHUP;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live stack value for the duration of the
            // call; epoll_ctl only reads it. Both fds are open (self.fd is
            // owned, `fd` is the caller's live socket).
            if unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Readiness for Epoll {
        const NAME: &'static str = "epoll";

        fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; the flag constant
            // is the kernel's own. A negative return is checked before use.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                // SAFETY: fd was just returned by epoll_create1 (checked
                // >= 0) and has no other owner; OwnedFd takes sole custody.
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
                events: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, Interest::NONE, 0)
        }

        fn wait(&mut self, ready: &mut Vec<(u64, Ready)>, timeout: Duration) -> io::Result<()> {
            ready.clear();
            let (epfd, max) = (self.fd.as_raw_fd(), self.events.len() as c_int);
            // SAFETY: the pointer and length describe `self.events`, live
            // and exclusively borrowed for the call; the kernel writes at
            // most that many entries and reports how many via the return.
            let n = unsafe { epoll_wait(epfd, self.events.as_mut_ptr(), max, timeout_ms(timeout)) };
            if n < 0 {
                return wait_failed();
            }
            for ev in self.events.iter().take(n as usize) {
                // Copy out of the (possibly packed) event before use.
                let (token, bits) = (ev.data, ev.events);
                let readiness = Ready {
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                };
                ready.push((token, readiness));
            }
            Ok(())
        }
    }
}

/// Raw `poll(2)` bindings, for every target but Linux — and for Linux
/// tests, where the differential test below holds them to `epoll` on the
/// same sockets. The flag values are the same on Linux, Apple targets and
/// the BSDs; only POSIX flags are used (no `POLLRDHUP`).
#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    use super::{timeout_ms, wait_failed, Interest, Readiness, Ready};

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
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// Every registered fd as one `pollfd` array, handed whole to each
    /// `poll`, plus a map from fd to its slot and token. Delete is
    /// `swap_remove`, so slots stay dense.
    pub(crate) struct PollSet {
        fds: Vec<PollFd>,
        slots: HashMap<RawFd, (usize, u64)>,
    }

    fn mask(interest: Interest) -> c_short {
        let read = if interest.read { POLLIN } else { 0 };
        read | if interest.write { POLLOUT } else { 0 }
    }

    impl Readiness for PollSet {
        const NAME: &'static str = "poll";

        fn new() -> io::Result<PollSet> {
            Ok(PollSet {
                fds: Vec::new(),
                slots: HashMap::new(),
            })
        }

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

        fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let (slot, slot_token) = self.slots.get_mut(&fd).ok_or(io::ErrorKind::NotFound)?;
            let pfd = self.fds.get_mut(*slot).ok_or(io::ErrorKind::NotFound)?;
            pfd.events = mask(interest);
            *slot_token = token;
            Ok(())
        }

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

        fn wait(&mut self, ready: &mut Vec<(u64, Ready)>, timeout: Duration) -> io::Result<()> {
            ready.clear();
            let nfds = self.fds.len() as NfdsT;
            // SAFETY: the pointer and length describe `self.fds`, live and
            // exclusively borrowed for the call; the kernel reads each
            // entry and writes only its `revents`.
            if unsafe { poll(self.fds.as_mut_ptr(), nfds, timeout_ms(timeout)) } < 0 {
                return wait_failed();
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
    Reactor::<Backend>::start(listener, state)
}

struct Reactor<R> {
    readiness: R,
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

impl<R: Readiness> Reactor<R> {
    fn start(
        listener: TcpListener,
        state: Arc<ServiceState>,
    ) -> Result<(JoinHandle<()>, Waker), ServeError> {
        listener.set_nonblocking(true)?;
        let mut readiness = R::new()?;
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

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::epoll::Epoll;
    use super::poll::PollSet;
    use super::*;
    use crate::protocol::{
        write_message, PlanRequest, PlanResponse, ProfileRequest, Request, TaggedRequest,
        TransferMode,
    };
    use crate::{PlanClient, ServerConfig};
    use qsdnn::engine::{Mode, Objective};

    /// Long enough that a step expecting readiness never times out first.
    const READY_WITHIN: Duration = Duration::from_secs(2);
    /// Short wait for steps that expect silence.
    const QUIET: Duration = Duration::from_millis(50);

    /// One `epoll` and one `PollSet` holding the same fds under the same
    /// tokens, so every step reads one kernel state through both.
    struct Both {
        epoll: Epoll,
        poll: PollSet,
    }

    impl Both {
        fn add(&mut self, fd: &impl AsRawFd, token: u64, interest: Interest) {
            self.epoll
                .add(fd.as_raw_fd(), token, interest)
                .expect("epoll add");
            self.poll
                .add(fd.as_raw_fd(), token, interest)
                .expect("poll add");
        }

        fn modify(&mut self, fd: &impl AsRawFd, token: u64, interest: Interest) {
            let raw = fd.as_raw_fd();
            self.epoll
                .modify(raw, token, interest)
                .expect("epoll modify");
            self.poll.modify(raw, token, interest).expect("poll modify");
        }

        fn delete(&mut self, fd: &impl AsRawFd) {
            self.epoll.delete(fd.as_raw_fd()).expect("epoll delete");
            self.poll.delete(fd.as_raw_fd()).expect("poll delete");
        }

        /// Waits on both backends and requires the same `(token, Ready)`
        /// set from each.
        fn step(&mut self, what: &str, timeout: Duration) -> Vec<(u64, Ready)> {
            let (mut from_epoll, mut from_poll) = (Vec::new(), Vec::new());
            self.epoll
                .wait(&mut from_epoll, timeout)
                .expect("epoll wait");
            self.poll.wait(&mut from_poll, timeout).expect("poll wait");
            from_epoll.sort();
            from_poll.sort();
            assert_eq!(from_epoll, from_poll, "{what}: the backends disagree");
            from_epoll
        }
    }

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

    /// The differential oracle for the portable backend: one event script
    /// through `epoll` and `poll(2)` at once, identical readiness at every
    /// step.
    #[test]
    fn epoll_and_poll_report_the_same_readiness_at_every_step() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let connected = || {
            let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
            let (ours, _) = listener.accept().expect("accept");
            ours.set_nonblocking(true).expect("nonblocking");
            (peer, ours)
        };
        let (mut peer_a, mut a) = connected();
        let (mut peer_b, b) = connected();
        let (mut peer_c, c) = connected();
        let (wake_rx, wake_tx) = UnixStream::pair().expect("socket pair");
        wake_rx.set_nonblocking(true).expect("nonblocking");
        wake_tx.set_nonblocking(true).expect("nonblocking");
        let waker = Waker {
            tx: Arc::new(wake_tx),
        };
        let mut both = Both {
            epoll: Epoll::new().expect("epoll"),
            poll: PollSet::new().expect("poll"),
        };
        both.add(&wake_rx, 1, Interest::READ);
        both.add(&a, 10, Interest::READ);
        both.add(&b, 11, Interest::READ);
        both.add(&c, 12, Interest::READ);

        let idle = Duration::from_millis(150);
        let started = Instant::now();
        assert_eq!(both.step("idle", idle), []);
        let waited = started.elapsed();
        assert!(
            waited >= 2 * idle - Duration::from_millis(10) && waited < 2 * idle + READY_WITHIN,
            "two idle waits of {idle:?} took {waited:?}"
        );

        peer_a.write_all(b"hello").expect("peer write");
        assert_eq!(both.step("peer write", READY_WITHIN), [(10, READABLE)]);
        let read_write = Interest {
            read: true,
            write: true,
        };
        both.modify(&a, 10, read_write);
        let both_ways = Ready {
            readable: true,
            writable: true,
            hangup: false,
        };
        assert_eq!(both.step("read+write", READY_WITHIN), [(10, both_ways)]);
        let write_only = Interest {
            read: false,
            write: true,
        };
        both.modify(&a, 10, write_only);
        assert_eq!(both.step("write-only", READY_WITHIN), [(10, WRITABLE)]);
        both.modify(&a, 10, Interest::READ);
        let mut buf = [0u8; 16];
        assert_eq!(a.read(&mut buf).expect("read"), 5);
        assert_eq!(both.step("drained", QUIET), []);

        waker.wake();
        assert_eq!(both.step("wake", READY_WITHIN), [(1, READABLE)]);
        assert_eq!((&wake_rx).read(&mut buf).expect("wake byte"), 1);
        assert_eq!(both.step("wake drained", QUIET), []);

        // `b` sits in the middle of the poll array: deleting it moves `c`
        // into its slot, which must keep answering under its own token.
        peer_b.write_all(b"x").expect("peer write");
        assert_eq!(both.step("b readable", READY_WITHIN), [(11, READABLE)]);
        both.delete(&b);
        assert_eq!(both.step("deleted fd", QUIET), []);
        peer_c.write_all(b"y").expect("peer write");
        assert_eq!(both.step("moved slot", READY_WITHIN), [(12, READABLE)]);
        both.modify(&c, 12, Interest::NONE);
        assert_eq!(both.step("no interest", QUIET), []);

        drop(peer_a);
        let closed = both.step("peer close", READY_WITHIN);
        assert!(
            matches!(closed.as_slice(), [(10, r)] if r.readable || r.hangup),
            "a peer close must report readable EOF or a hang-up: {closed:?}"
        );
        assert_eq!(a.read(&mut buf).expect("read at EOF"), 0);
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

    /// Zeroes the only nondeterministic fields a plan reply carries.
    fn normalized(mut reply: PlanResponse) -> String {
        reply.best.wall_time_ms = 0.0;
        for member in &mut reply.members {
            member.wall_time_ms = 0.0;
        }
        format!("{reply:?}")
    }

    /// A short end-to-end script against a reactor on backend `R`: v3
    /// handshake, cold plan, hit, a pipelined batch, a client served
    /// beside one that never reads, then a bounded shutdown with the
    /// never-reader still connected.
    fn run_script<R: Readiness>() -> Vec<String> {
        let name = R::NAME;
        let state = ServiceState::new(ServerConfig {
            threads: 2,
            max_in_flight: 4,
            slow_ms: 0,
            ..ServerConfig::default()
        })
        .expect("state");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (reactor, waker) = Reactor::<R>::start(listener, Arc::clone(&state)).expect("start");
        let mut out = Vec::new();

        let mut client = PlanClient::connect(addr).expect("connect");
        assert!(client.is_binary(), "{name}: the v3 handshake failed");
        let cold = client.plan(plan("tiny_cnn", 120)).expect("cold plan");
        assert!(!cold.cache_hit, "{name}: the first plan must search");
        out.push(normalized(cold));
        let hit = client.plan(plan("tiny_cnn", 120)).expect("hit");
        assert!(hit.cache_hit, "{name}: the repeat must hit");
        out.push(normalized(hit));
        let batch: Vec<PlanRequest> = (0..6)
            .map(|i| plan(["tiny_cnn", "toy_branchy"][i % 2], 130 + i))
            .collect();
        for reply in client.plan_many(&batch).expect("pipelined batch") {
            out.push(normalized(reply));
        }

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
            assert!(Instant::now() < parked, "{name}: no replies parked");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut beside = PlanClient::connect(addr).expect("second client");
        beside
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let served = beside.plan(plan("toy_branchy", 120)).expect("served");
        out.push(normalized(served));

        state.shutting_down.store(true, Ordering::SeqCst);
        waker.wake();
        let deadline = Instant::now() + SHUTDOWN_DRAIN + Duration::from_secs(4);
        while !reactor.is_finished() {
            assert!(Instant::now() < deadline, "{name}: shutdown wedged");
            std::thread::sleep(Duration::from_millis(10));
        }
        reactor.join().expect("reactor thread");
        drop(silent);
        out
    }

    #[test]
    fn a_reactor_on_poll_answers_the_script_exactly_as_on_epoll() {
        let (on_poll, on_epoll) = std::thread::scope(|s| {
            let on_poll = s.spawn(run_script::<PollSet>);
            let on_epoll = s.spawn(run_script::<Epoll>);
            (on_poll.join(), on_epoll.join())
        });
        let (on_poll, on_epoll) = (
            on_poll.expect("poll script"),
            on_epoll.expect("epoll script"),
        );
        assert_eq!(on_poll.len(), on_epoll.len());
        for (i, (p, e)) in on_poll.iter().zip(&on_epoll).enumerate() {
            assert_eq!(p, e, "script step {i} diverged between poll and epoll");
        }
    }
}
