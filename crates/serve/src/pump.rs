//! The portable connection layer: a blocking pump over [`Connection`].
//!
//! Where epoll does not exist, each connection gets a reader thread
//! (socket → state machine → dispatcher pool) and a writer thread (state
//! machine → socket) around one `Mutex<Connection>`. Dispatchers only
//! lock, `complete` and notify — they never touch a socket, so a peer
//! that stops reading stalls its own writer and nothing else.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};

use crate::conn::{Connection, Job};
use crate::pool::WorkerPool;
use crate::server::{ServiceState, ACCEPT_BACKOFF_MAX, ACCEPT_BACKOFF_MIN, SHUTDOWN_DRAIN};

/// Longest a blocked read, write or wait goes without re-checking the
/// shutdown flag and the connection's state.
const TICK: Duration = Duration::from_millis(100);

/// One connection's state machine, shared by its reader, its writer and
/// the dispatchers running its jobs. `changed` is signalled on every
/// transition another party may be waiting for: output queued (writer),
/// output drained or a job completed (reader paused by backpressure).
struct Shared {
    conn: Mutex<Connection>,
    changed: Condvar,
}

impl Shared {
    /// Every update leaves the state machine valid at each step, so a
    /// panicked holder poisons nothing worth refusing.
    fn lock(&self) -> MutexGuard<'_, Connection> {
        self.conn.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Connection>) -> MutexGuard<'a, Connection> {
        let waited = self.changed.wait_timeout(guard, TICK);
        waited.unwrap_or_else(PoisonError::into_inner).0
    }
}

/// A read or write that merely timed out (or was interrupted): retry.
fn transient(e: &std::io::Error) -> bool {
    use ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

/// Starts the pump on `listener`. The acceptor thread owns the connection
/// threads and the dispatcher pool, and joins them all before it exits.
pub(crate) fn start(
    listener: TcpListener,
    state: Arc<ServiceState>,
) -> std::io::Result<JoinHandle<()>> {
    Builder::new()
        .name("qsdnn-acceptor".into())
        .spawn(move || accept_loop(&listener, &state))
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServiceState>) {
    let dispatchers = state.dispatcher_pool();
    let mut backoff = ACCEPT_BACKOFF_MIN;
    // The scope joins every connection thread — each observes shutdown
    // within a tick and exits within the drain deadline — before the pool
    // drops and drains.
    std::thread::scope(|conns| loop {
        let accepted = listener.accept();
        // `PlanServer::stop` sets the flag, then pokes us with a connection.
        if state.is_shutting_down() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                let dispatchers = &dispatchers;
                let conn = move || serve_connection(&stream, state, dispatchers);
                let _ = Builder::new()
                    .name("qsdnn-conn".into())
                    .spawn_scoped(conns, conn);
            }
            // One queued connection died before we accepted it; the queue
            // behind it is healthy — retry immediately.
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
            Err(_) => {
                // Resource exhaustion (EMFILE, ENFILE, ENOMEM…): retrying
                // instantly fails the same way and pins a core.
                state.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    });
}

fn serve_connection(stream: &TcpStream, state: &Arc<ServiceState>, dispatchers: &WorkerPool) {
    let timeouts = [
        stream.set_read_timeout(Some(TICK)),
        stream.set_write_timeout(Some(TICK)),
    ];
    if timeouts.iter().any(Result::is_err) {
        return;
    }
    stream.set_nodelay(true).ok();
    let shared = Arc::new(Shared {
        conn: Mutex::new(Connection::new(state.config.in_flight_cap())),
        changed: Condvar::new(),
    });
    state.metrics.connections.inc();
    std::thread::scope(|threads| {
        let writer = Builder::new()
            .name("qsdnn-conn-tx".into())
            .spawn_scoped(threads, || pump_out(stream, &shared, state));
        if writer.is_ok() {
            pump_in(stream, &shared, state, dispatchers);
        }
    });
    state.metrics.connections.dec();
}

/// Socket → state machine → dispatcher pool, until the connection is
/// finished.
fn pump_in(
    mut stream: &TcpStream,
    shared: &Arc<Shared>,
    state: &Arc<ServiceState>,
    dispatchers: &WorkerPool,
) {
    let mut chunk = [0u8; 16 * 1024];
    let mut conn = shared.lock();
    while !conn.finished() {
        if state.is_shutting_down() {
            conn.drain();
        }
        while let Some(job) = conn.next_job(&state.metrics) {
            dispatch(job, dispatchers, Arc::clone(state), Arc::clone(shared));
        }
        // `next_job` may have queued error replies for the writer.
        shared.changed.notify_all();
        if !conn.wants_read() {
            // Backpressure, or EOF with work still in flight.
            conn = shared.wait(conn);
            continue;
        }
        drop(conn);
        let read = stream.read(&mut chunk);
        conn = shared.lock();
        match read {
            Ok(0) => conn.read_eof(),
            Ok(n) => conn.push_bytes(chunk.get(..n).unwrap_or(&[])),
            Err(e) if transient(&e) => {}
            Err(_) => conn.abort(&state.metrics),
        }
    }
    shared.changed.notify_all();
}

/// Runs `job` on the dispatcher pool; its reply goes back into the state
/// machine for the writer to pick up.
fn dispatch(job: Job, dispatchers: &WorkerPool, state: Arc<ServiceState>, shared: Arc<Shared>) {
    dispatchers.execute(move || {
        let reply = state.run_job(job);
        shared.lock().complete(reply, &state.metrics);
        shared.changed.notify_all();
    });
}

/// State machine → socket, until the connection is finished. The bytes
/// are copied out so the socket write happens *without* the lock: a peer
/// that stops reading must not hold up the dispatchers completing this
/// connection's other requests.
fn pump_out(mut stream: &TcpStream, shared: &Shared, state: &ServiceState) {
    let mut buf = Vec::new();
    let mut deadline = None;
    let mut conn = shared.lock();
    while !conn.finished() {
        if state.is_shutting_down()
            && Instant::now() >= *deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN)
        {
            // The peer had its chance; do not wedge `shutdown()`.
            conn.abort(&state.metrics);
            break;
        }
        let pending = conn.pending_output();
        if pending.is_empty() {
            conn = shared.wait(conn);
            continue;
        }
        buf.clear();
        buf.extend_from_slice(pending.get(..64 * 1024).unwrap_or(pending));
        drop(conn);
        let wrote = stream.write(&buf);
        conn = shared.lock();
        match wrote {
            Ok(n) => conn.advance(n, &state.metrics),
            Err(e) if transient(&e) => {}
            Err(_) => conn.abort(&state.metrics),
        }
        // Draining below the outbox high-water mark unpauses the reader.
        shared.changed.notify_all();
    }
    shared.changed.notify_all();
}
