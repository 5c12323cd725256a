//! Flight recorder: an always-on, fixed-capacity journal of compact
//! structured events plus a cooperative live task table.
//!
//! Aggregate histograms (see [`crate::Histogram`]) say *that* a tail
//! latency happened; the flight recorder says *what the server was doing*
//! when it happened. Three pieces:
//!
//! - **Event rings** — every thread that emits gets its own fixed-capacity
//!   ring of [`Event`]s. A ring has exactly one writer (its owning
//!   thread), so writes are a handful of relaxed atomic stores guarded by
//!   a per-slot seqlock; readers ([`FlightRecorder::snapshot_events`])
//!   never block writers and detect torn slots instead of locking them
//!   out. Rings of exited threads are recycled for new threads, so memory
//!   is bounded by peak thread concurrency, not thread churn.
//! - **Task table** — one slot per live emitting thread recording what it
//!   is doing *right now* (task kind, request serial, stage, subject key,
//!   since-when). Updates are relaxed stores; snapshots are a lock-free
//!   read per slot.
//! - **Exemplars** — a bounded last-K-per-kind store of journal excerpts.
//!   When a request turns out slow (or its handler panics), the events
//!   carrying its serial are snapshotted out of the rings and retained,
//!   linking histogram tails to concrete traces.
//!
//! Event semantics are the caller's: `kind` is a [`EventKind`], and
//! `key`/`a`/`b` are kind-specific payloads (the serve crate packs plan
//! cache keys, stage ids, shard indices, donor distances). The recorder
//! itself only timestamps, stores and returns them.
//!
//! Request correlation uses a thread-local current-serial: a dispatcher
//! wraps request handling in [`FlightRecorder::begin_request`], and every
//! [`FlightRecorder::emit`] on that thread (cache lookups, transfer
//! donors, ...) inherits the serial without any parameter plumbing.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Events retained per thread ring. At ~10 events per request this is the
/// last ~100 requests each thread touched — enough journal to explain any
/// slow request while keeping a ring at 56 KiB.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Slow/panic exemplars retained per request kind.
pub const EXEMPLARS_PER_KIND: usize = 4;

/// Hook entries kept per thread before dead-recorder entries are pruned.
const HOOK_PRUNE_LEN: usize = 8;

/// What one journal event records. The numeric payloads (`key`, `a`, `b`)
/// are kind-specific; consumers decode them (see the serve crate's wire
/// `EventMsg` for the canonical decoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// A request entered dispatch. `a` = request-kind id.
    RequestBegin = 1,
    /// A request finished. `a` = request-kind id, `b` = total µs,
    /// `key` = plan key (when the response carried one).
    RequestEnd = 2,
    /// One pipeline stage completed. `a` = stage id, `b` = stage µs.
    StageEnd = 3,
    /// Cache lookup answered from memory. `key` = entry key,
    /// `a` = cache id, `b` = shard index.
    CacheHit = 4,
    /// Cache lookup found nothing; a compute began.
    CacheMiss = 5,
    /// Cache lookup coalesced onto another request's in-flight compute.
    CacheCoalesced = 6,
    /// Cache entry reloaded from the spill tier.
    CacheSpillLoad = 7,
    /// Cache entry evicted. `key` = evicted key.
    CacheEvict = 8,
    /// Cache entry written to the spill tier.
    CacheSpill = 9,
    /// Cache insert stalled waiting for capacity.
    CacheStall = 10,
    /// Scenario-transfer donor selected. `key` = donor plan key,
    /// `a` = donor distance in millionths, `b` = transferred states.
    TransferDonor = 11,
    /// Reactor loop took unusually long to process one wakeup.
    /// `a` = loop µs.
    ReactorStall = 12,
    /// The reactor's readiness wait (`poll`) blocked far past its timeout.
    /// `a` = wait µs. The name predates the `poll` backend and is kept:
    /// it is the journal label `epoll_wait_outlier`.
    EpollWaitOutlier = 13,
    /// Worker-pool queue crossed its saturation threshold.
    /// `a` = pool id, `b` = queue depth.
    PoolSaturated = 14,
    /// A request handler panicked. `a` = request-kind id.
    HandlerPanic = 15,
}

impl EventKind {
    /// Every kind, for enumeration in docs and tests.
    pub const ALL: [EventKind; 15] = [
        EventKind::RequestBegin,
        EventKind::RequestEnd,
        EventKind::StageEnd,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::CacheCoalesced,
        EventKind::CacheSpillLoad,
        EventKind::CacheEvict,
        EventKind::CacheSpill,
        EventKind::CacheStall,
        EventKind::TransferDonor,
        EventKind::ReactorStall,
        EventKind::EpollWaitOutlier,
        EventKind::PoolSaturated,
        EventKind::HandlerPanic,
    ];

    /// Stable snake_case label (wire `event` field, dump files).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::RequestBegin => "request_begin",
            EventKind::RequestEnd => "request_end",
            EventKind::StageEnd => "stage",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheCoalesced => "cache_coalesced",
            EventKind::CacheSpillLoad => "cache_spill_load",
            EventKind::CacheEvict => "cache_evict",
            EventKind::CacheSpill => "cache_spill",
            EventKind::CacheStall => "cache_stall",
            EventKind::TransferDonor => "transfer_donor",
            EventKind::ReactorStall => "reactor_stall",
            EventKind::EpollWaitOutlier => "epoll_wait_outlier",
            EventKind::PoolSaturated => "pool_saturated",
            EventKind::HandlerPanic => "handler_panic",
        }
    }

    /// The kind for a stored discriminant, if it is one.
    pub fn from_u16(v: u16) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| *k as u16 == v)
    }
}

/// One decoded journal event, as returned by snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the recorder started.
    pub ts_us: u64,
    /// Name of the thread that emitted it.
    pub thread: Arc<str>,
    /// Raw kind discriminant (see [`Event::kind`]).
    pub kind_raw: u16,
    /// Request serial the event belongs to (0 = none).
    pub req: u64,
    /// Kind-specific subject key (e.g. a plan cache key).
    pub key: u64,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

impl Event {
    /// The decoded kind, when the discriminant is known.
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::from_u16(self.kind_raw)
    }
}

/// One event slot: a per-slot seqlock (`seq`) over relaxed data fields.
/// `seq` is even when the slot is stable; the n-th completed write into
/// the slot leaves `seq == 2 * n`, so a reader can tell mid-write (odd),
/// never-written and lapped slots apart from the value alone.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    kind: AtomicU64,
    req: AtomicU64,
    key: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            req: AtomicU64::new(0),
            key: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One thread's event ring. Exactly one thread writes (the owner); any
/// thread may snapshot concurrently.
struct Ring {
    /// Owner thread's name. Relabeled when an exited thread's ring is
    /// adopted by a new thread (never concurrent with writes: the old
    /// owner is dead before the ring enters the free list).
    label: Mutex<Arc<str>>,
    /// Total events ever written through this ring; the write cursor is
    /// `head % capacity`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(label: Arc<str>, capacity: usize) -> Ring {
        Ring {
            label: Mutex::new(label),
            head: AtomicU64::new(0),
            slots: (0..capacity.max(2)).map(|_| Slot::new()).collect(),
        }
    }

    fn label(&self) -> Arc<str> {
        Arc::clone(
            &self
                .label
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    fn relabel(&self, label: Arc<str>) {
        *self
            .label
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = label;
    }

    /// Writes one event. Must only be called by the owning thread — the
    /// seqlock protocol below assumes a single writer.
    fn push(&self, ts: u64, kind: u16, req: u64, key: u64, a: u64, b: u64) {
        let cap = self.slots.len() as u64;
        // LINT-ALLOW(atomic-ordering): `head` is a single-writer cursor —
        // the owner loads it relaxed (no one else writes it), publishes
        // with Release so snapshot readers' Acquire load sees completed
        // slots up to it.
        let n = self.head.load(Ordering::Relaxed);
        let Some(slot) = self.slots.get((n % cap) as usize) else {
            return;
        };
        let seq = &slot.seq;
        // Seqlock write: mark the slot dirty (odd), fence so the data
        // stores below cannot be observed without the odd mark, write the
        // fields relaxed, then publish the even seq with Release.
        // LINT-ALLOW(atomic-ordering): `seq` is a seqlock — the writer
        // side uses relaxed ops ordered by the Release fence, the final
        // store and the readers' Acquire loads pair to detect torn reads;
        // a uniform scheme cannot express this protocol.
        let s = seq.load(Ordering::Relaxed);
        seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.req.store(req, Ordering::Relaxed);
        slot.key.store(key, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        seq.store(s.wrapping_add(2), Ordering::Release);
        self.head.store(n.wrapping_add(1), Ordering::Release);
    }

    fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Appends every stable event still resident in the ring to `out`,
    /// oldest first. Slots mid-write, lapped during the scan, or never
    /// written are skipped — a snapshot is torn-free, never blocking.
    fn snapshot(&self, out: &mut Vec<Event>) {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Acquire);
        let label = self.label();
        for n in head.saturating_sub(cap)..head {
            let Some(slot) = self.slots.get((n % cap) as usize) else {
                continue;
            };
            let seq = &slot.seq;
            // The n-th write (0-based) into a slot leaves seq at
            // 2 * (n / cap + 1); anything else means this logical entry
            // is gone (overwritten or in flux).
            let expect = (n / cap).wrapping_add(1).wrapping_mul(2);
            let s1 = seq.load(Ordering::Acquire);
            if s1 != expect {
                continue;
            }
            let event = Event {
                ts_us: slot.ts.load(Ordering::Relaxed),
                thread: Arc::clone(&label),
                kind_raw: slot.kind.load(Ordering::Relaxed) as u16,
                req: slot.req.load(Ordering::Relaxed),
                key: slot.key.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            let s2 = seq.load(Ordering::Relaxed);
            if s2 == expect {
                out.push(event);
            }
        }
    }
}

/// One live thread's task-table slot. `kind` holds `task kind + 1`, so 0
/// reads as idle without a separate flag.
struct TaskSlot {
    thread: Arc<str>,
    kind: AtomicU64,
    serial: AtomicU64,
    key: AtomicU64,
    stage: AtomicU64,
    since_us: AtomicU64,
}

/// Point-in-time view of one thread's task slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSnapshot {
    /// The thread's name.
    pub thread: String,
    /// What the thread is doing (`None` = idle), as the caller-defined
    /// task-kind id passed to [`FlightRecorder::task_begin`].
    pub kind: Option<u16>,
    /// Request serial being worked on (0 = none).
    pub serial: u64,
    /// Subject key (e.g. plan key) of the current task.
    pub key: u64,
    /// Caller-defined stage id last reported for the task.
    pub stage: u16,
    /// Microseconds the thread has been on this task.
    pub elapsed_us: u64,
}

/// One retained journal excerpt for a slow or panicked request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Request-kind id (caller-defined, same space as task kinds).
    pub kind: u16,
    /// The request's serial.
    pub serial: u64,
    /// When it was captured, µs since recorder start.
    pub ts_us: u64,
    /// The request's end-to-end duration, µs.
    pub total_us: u64,
    /// Subject key (e.g. the plan key the request resolved to).
    pub key: u64,
    /// Whether the capture was triggered by a handler panic.
    pub panicked: bool,
    /// Every journal event carrying the request's serial, oldest first.
    pub events: Vec<Event>,
}

/// Interior state shared with thread-local hooks (so a hook outliving the
/// recorder handle can still return its ring to the free list).
struct Shared {
    alive: AtomicBool,
    /// Every ring ever handed to a thread (live and recycled alike);
    /// snapshots walk this.
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Rings whose owner threads exited, awaiting adoption.
    free_rings: Mutex<Vec<Arc<Ring>>>,
    /// Task slots of currently live emitting threads.
    tasks: Mutex<Vec<Arc<TaskSlot>>>,
}

/// The flight recorder. One per server (plus [`FlightRecorder::disabled`]
/// stand-ins); cheap to share via `Arc`.
///
/// A disabled recorder reduces every operation to one branch.
pub struct FlightRecorder {
    id: u64,
    enabled: bool,
    capacity: usize,
    start: Instant,
    serial: AtomicU64,
    shared: Arc<Shared>,
    exemplars: Mutex<HashMap<u16, VecDeque<Exemplar>>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.enabled)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Thread-local binding of one thread to one recorder: its ring and task
/// slot. Dropped at thread exit — the ring is recycled, the task slot
/// removed.
struct Hook {
    recorder_id: u64,
    shared: Arc<Shared>,
    ring: Arc<Ring>,
    slot: Arc<TaskSlot>,
}

impl Drop for Hook {
    fn drop(&mut self) {
        let mut tasks = self
            .shared
            .tasks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tasks.retain(|s| !Arc::ptr_eq(s, &self.slot));
        drop(tasks);
        if self.shared.alive.load(Ordering::Relaxed) {
            self.shared
                .free_rings
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Arc::clone(&self.ring));
        }
    }
}

thread_local! {
    /// This thread's per-recorder hooks. A `Vec` scan, not a map: a
    /// thread talks to one or two recorders in practice.
    static HOOKS: RefCell<Vec<Hook>> = const { RefCell::new(Vec::new()) };
    /// The request serial the current thread is working on (0 = none).
    static CURRENT_REQ: Cell<u64> = const { Cell::new(0) };
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_LABEL: AtomicU64 = AtomicU64::new(1);

/// Restores the previous thread-local current-request serial on drop.
/// Returned by [`FlightRecorder::begin_request`].
pub struct RequestScope {
    prev: u64,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        let _ = CURRENT_REQ.try_with(|c| c.set(self.prev));
    }
}

impl FlightRecorder {
    /// A recorder with the default per-thread ring capacity.
    pub fn new(enabled: bool) -> FlightRecorder {
        FlightRecorder::with_capacity(enabled, DEFAULT_RING_CAPACITY)
    }

    /// A recorder retaining `capacity` events per thread ring.
    pub fn with_capacity(enabled: bool, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            enabled,
            capacity: capacity.max(2),
            start: Instant::now(),
            serial: AtomicU64::new(0),
            shared: Arc::new(Shared {
                alive: AtomicBool::new(true),
                rings: Mutex::new(Vec::new()),
                free_rings: Mutex::new(Vec::new()),
                tasks: Mutex::new(Vec::new()),
            }),
            exemplars: Mutex::new(HashMap::new()),
        }
    }

    /// A recorder that records nothing (every operation is one branch).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::with_capacity(false, 2)
    }

    /// Whether this recorder records at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per-thread ring capacity (events retained per thread).
    pub fn ring_capacity(&self) -> usize {
        self.capacity
    }

    /// Microseconds since the recorder started (the `ts_us` clock).
    /// Computed in `u64` — `Duration::as_micros` goes through `u128`
    /// division, and this runs on every hot-path emit.
    pub fn now_us(&self) -> u64 {
        let d = self.start.elapsed();
        d.as_secs()
            .wrapping_mul(1_000_000)
            .wrapping_add(u64::from(d.subsec_micros()))
    }

    /// Allocates the next request serial (serials start at 1; 0 means
    /// "no request").
    pub fn next_serial(&self) -> u64 {
        self.serial.fetch_add(1, Ordering::Relaxed).wrapping_add(1)
    }

    /// Marks the current thread as working on request `serial` until the
    /// returned scope drops; every [`FlightRecorder::emit`] on this
    /// thread meanwhile carries the serial.
    pub fn begin_request(&self, serial: u64) -> RequestScope {
        let prev = CURRENT_REQ
            .try_with(|c| {
                let prev = c.get();
                c.set(serial);
                prev
            })
            .unwrap_or(0);
        RequestScope { prev }
    }

    /// The request serial the calling thread is currently working on
    /// (0 = none).
    pub fn current_request() -> u64 {
        CURRENT_REQ.try_with(Cell::get).unwrap_or(0)
    }

    /// Records one event attributed to the calling thread's current
    /// request (see [`FlightRecorder::begin_request`]).
    pub fn emit(&self, kind: EventKind, key: u64, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        self.emit_for(Self::current_request(), kind, key, a, b);
    }

    /// Records one event attributed to an explicit request serial.
    pub fn emit_for(&self, req: u64, kind: EventKind, key: u64, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        let ts = self.now_us();
        self.with_hook(|hook| hook.ring.push(ts, kind as u16, req, key, a, b));
    }

    /// Records several events for one request in a single ring access
    /// sharing one timestamp. The per-emit cost is dominated by the
    /// thread-local hook lookup and the clock read, not the seqlock
    /// write, so the hot path journals a request's whole stage breakdown
    /// through this instead of repeated [`FlightRecorder::emit_for`].
    pub fn emit_batch(&self, req: u64, events: &[(EventKind, u64, u64, u64)]) {
        if !self.enabled || events.is_empty() {
            return;
        }
        let ts = self.now_us();
        self.with_hook(|hook| {
            for &(kind, key, a, b) in events {
                hook.ring.push(ts, kind as u16, req, key, a, b);
            }
        });
    }

    /// Journals `request_begin` *and* marks the calling thread's
    /// task-table slot as working on the request, in one ring access —
    /// one per request on the hot path, where
    /// [`FlightRecorder::emit_for`] + [`FlightRecorder::task_begin`]
    /// would pay the hook lookup and clock read twice.
    pub fn request_begin(&self, serial: u64, kind: u16) {
        if !self.enabled {
            return;
        }
        let ts = self.now_us();
        self.with_hook(|hook| {
            hook.ring.push(
                ts,
                EventKind::RequestBegin as u16,
                serial,
                0,
                kind as u64,
                0,
            );
            hook.slot.kind.store(kind as u64 + 1, Ordering::Relaxed);
            hook.slot.serial.store(serial, Ordering::Relaxed);
            hook.slot.key.store(0, Ordering::Relaxed);
            hook.slot.stage.store(0, Ordering::Relaxed);
            hook.slot.since_us.store(ts, Ordering::Relaxed);
        });
    }

    /// Marks the calling thread's task-table slot as working on a task:
    /// caller-defined `kind` id, request `serial`, subject `key`.
    pub fn task_begin(&self, kind: u16, serial: u64, key: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        self.with_hook(|hook| {
            hook.slot.kind.store(kind as u64 + 1, Ordering::Relaxed);
            hook.slot.serial.store(serial, Ordering::Relaxed);
            hook.slot.key.store(key, Ordering::Relaxed);
            hook.slot.stage.store(0, Ordering::Relaxed);
            hook.slot.since_us.store(now, Ordering::Relaxed);
        });
    }

    /// Updates the stage id of the calling thread's current task.
    pub fn task_stage(&self, stage: u16) {
        if !self.enabled {
            return;
        }
        self.with_hook(|hook| hook.slot.stage.store(stage as u64, Ordering::Relaxed));
    }

    /// Records the subject key of the calling thread's current task.
    pub fn task_key(&self, key: u64) {
        if !self.enabled {
            return;
        }
        self.with_hook(|hook| hook.slot.key.store(key, Ordering::Relaxed));
    }

    /// Marks the calling thread's task-table slot idle.
    pub fn task_clear(&self) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        self.with_hook(|hook| {
            hook.slot.kind.store(0, Ordering::Relaxed);
            hook.slot.serial.store(0, Ordering::Relaxed);
            hook.slot.key.store(0, Ordering::Relaxed);
            hook.slot.stage.store(0, Ordering::Relaxed);
            hook.slot.since_us.store(now, Ordering::Relaxed);
        });
    }

    /// Point-in-time view of every live emitting thread, in registration
    /// order.
    pub fn tasks(&self) -> Vec<TaskSnapshot> {
        if !self.enabled {
            return Vec::new();
        }
        let now = self.now_us();
        let tasks = self
            .shared
            .tasks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tasks
            .iter()
            .map(|slot| {
                let kind = slot.kind.load(Ordering::Relaxed);
                TaskSnapshot {
                    thread: slot.thread.to_string(),
                    kind: kind.checked_sub(1).map(|k| k as u16),
                    serial: slot.serial.load(Ordering::Relaxed),
                    key: slot.key.load(Ordering::Relaxed),
                    stage: slot.stage.load(Ordering::Relaxed) as u16,
                    elapsed_us: now.saturating_sub(slot.since_us.load(Ordering::Relaxed)),
                }
            })
            .collect()
    }

    /// Total events ever recorded (including those already overwritten in
    /// their rings) — the event-rate numerator.
    pub fn events_total(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let rings = self
            .shared
            .rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rings.iter().map(|r| r.head()).sum()
    }

    /// Every event still resident in any ring, sorted by timestamp.
    pub fn snapshot_events(&self) -> Vec<Event> {
        if !self.enabled {
            return Vec::new();
        }
        let rings: Vec<Arc<Ring>> = {
            let rings = self
                .shared
                .rings
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rings.clone()
        };
        let mut out = Vec::new();
        for ring in rings {
            ring.snapshot(&mut out);
        }
        out.sort_by_key(|e| e.ts_us);
        out
    }

    /// The journal excerpt for one request: every resident event carrying
    /// `serial`, oldest first.
    pub fn events_for(&self, serial: u64) -> Vec<Event> {
        if serial == 0 {
            return Vec::new();
        }
        let mut events = self.snapshot_events();
        events.retain(|e| e.req == serial);
        events
    }

    /// Captures and retains the journal excerpt for a slow or panicked
    /// request (last [`EXEMPLARS_PER_KIND`] kept per request kind).
    pub fn capture_exemplar(
        &self,
        kind: u16,
        serial: u64,
        total_us: u64,
        key: u64,
        panicked: bool,
    ) {
        if !self.enabled || serial == 0 {
            return;
        }
        let exemplar = Exemplar {
            kind,
            serial,
            ts_us: self.now_us(),
            total_us,
            key,
            panicked,
            events: self.events_for(serial),
        };
        let mut store = self
            .exemplars
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let slot = store.entry(kind).or_default();
        if slot.len() >= EXEMPLARS_PER_KIND {
            slot.pop_front();
        }
        slot.push_back(exemplar);
    }

    /// Every retained exemplar, ordered by kind id then capture time.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let store = self
            .exemplars
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out: Vec<Exemplar> = store.values().flatten().cloned().collect();
        out.sort_by_key(|e| (e.kind, e.ts_us));
        out
    }

    /// Runs `f` with this thread's hook, registering the thread with the
    /// recorder on first use (adopting a recycled ring when one is free).
    fn with_hook(&self, f: impl FnOnce(&Hook)) {
        let _ = HOOKS.try_with(|hooks| {
            let mut hooks = hooks.borrow_mut();
            if let Some(hook) = hooks.iter().find(|h| h.recorder_id == self.id) {
                f(hook);
                return;
            }
            if hooks.len() >= HOOK_PRUNE_LEN {
                hooks.retain(|h| h.shared.alive.load(Ordering::Relaxed));
            }
            let hook = self.register_thread();
            f(&hook);
            hooks.push(hook);
        });
    }

    /// Builds this thread's hook: a ring (recycled or fresh) plus a task
    /// slot, both registered with the recorder.
    fn register_thread(&self) -> Hook {
        let label: Arc<str> = match std::thread::current().name() {
            Some(name) => Arc::from(name),
            None => Arc::from(
                format!(
                    "thread-{}",
                    NEXT_THREAD_LABEL.fetch_add(1, Ordering::Relaxed)
                )
                .as_str(),
            ),
        };
        let ring = {
            let recycled = self
                .shared
                .free_rings
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop();
            match recycled {
                Some(ring) => {
                    ring.relabel(Arc::clone(&label));
                    ring
                }
                None => {
                    let ring = Arc::new(Ring::new(Arc::clone(&label), self.capacity));
                    self.shared
                        .rings
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(Arc::clone(&ring));
                    ring
                }
            }
        };
        let slot = Arc::new(TaskSlot {
            thread: label,
            kind: AtomicU64::new(0),
            serial: AtomicU64::new(0),
            key: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            since_us: AtomicU64::new(self.now_us()),
        });
        self.shared
            .tasks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&slot));
        Hook {
            recorder_id: self.id,
            shared: Arc::clone(&self.shared),
            ring,
            slot,
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        // Lets threads still holding hooks prune them lazily instead of
        // recycling rings into a dead recorder.
        self.shared.alive.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::disabled();
        rec.emit(EventKind::RequestBegin, 1, 2, 3);
        rec.task_begin(0, 1, 2);
        rec.capture_exemplar(0, 1, 10, 2, false);
        assert_eq!(rec.events_total(), 0);
        assert!(rec.snapshot_events().is_empty());
        assert!(rec.tasks().is_empty());
        assert!(rec.exemplars().is_empty());
    }

    #[test]
    fn events_carry_serial_key_and_payloads() {
        let rec = FlightRecorder::new(true);
        let serial = rec.next_serial();
        assert_eq!(serial, 1);
        let scope = rec.begin_request(serial);
        rec.emit(EventKind::CacheHit, 0xabcd, 7, 3);
        drop(scope);
        rec.emit(EventKind::ReactorStall, 0, 999, 0);
        let events = rec.snapshot_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), Some(EventKind::CacheHit));
        assert_eq!(events[0].req, serial);
        assert_eq!(events[0].key, 0xabcd);
        assert_eq!((events[0].a, events[0].b), (7, 3));
        assert_eq!(events[1].req, 0, "scope dropped: no current request");
        assert_eq!(rec.events_total(), 2);
        assert_eq!(rec.events_for(serial).len(), 1);
    }

    #[test]
    fn ring_keeps_only_the_newest_capacity_events() {
        let rec = FlightRecorder::with_capacity(true, 8);
        for i in 0..100u64 {
            rec.emit_for(1, EventKind::StageEnd, 0, i, 0);
        }
        let events = rec.snapshot_events();
        assert_eq!(events.len(), 8);
        let seen: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(seen, (92..100).collect::<Vec<u64>>(), "newest 8, in order");
        assert_eq!(rec.events_total(), 100);
    }

    #[test]
    fn begin_request_nests_and_restores() {
        let rec = FlightRecorder::new(true);
        let outer = rec.begin_request(5);
        assert_eq!(FlightRecorder::current_request(), 5);
        {
            let _inner = rec.begin_request(9);
            assert_eq!(FlightRecorder::current_request(), 9);
        }
        assert_eq!(FlightRecorder::current_request(), 5);
        drop(outer);
        assert_eq!(FlightRecorder::current_request(), 0);
    }

    #[test]
    fn task_table_tracks_begin_stage_clear() {
        let rec = FlightRecorder::new(true);
        rec.task_begin(3, 41, 0xfeed);
        rec.task_stage(4);
        let tasks = rec.tasks();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].kind, Some(3));
        assert_eq!(tasks[0].serial, 41);
        assert_eq!(tasks[0].key, 0xfeed);
        assert_eq!(tasks[0].stage, 4);
        rec.task_clear();
        let tasks = rec.tasks();
        assert_eq!(tasks[0].kind, None, "cleared slot reads idle");
    }

    #[test]
    fn task_slot_disappears_when_its_thread_exits() {
        let rec = Arc::new(FlightRecorder::new(true));
        let r = Arc::clone(&rec);
        std::thread::Builder::new()
            .name("rec-test-worker".into())
            .spawn(move || {
                r.task_begin(1, 1, 0);
                r.emit_for(1, EventKind::RequestBegin, 0, 0, 0);
            })
            .expect("spawn")
            .join()
            .expect("join");
        assert!(
            rec.tasks().iter().all(|t| t.thread != "rec-test-worker"),
            "exited thread's slot removed"
        );
        // Its ring (and events) survive for post-mortems.
        assert_eq!(rec.events_total(), 1);
        let events = rec.snapshot_events();
        assert_eq!(events.len(), 1);
        assert_eq!(&*events[0].thread, "rec-test-worker");
    }

    #[test]
    fn rings_are_recycled_across_thread_churn() {
        let rec = Arc::new(FlightRecorder::with_capacity(true, 16));
        for i in 0..20u64 {
            let r = Arc::clone(&rec);
            std::thread::spawn(move || r.emit_for(i + 1, EventKind::RequestBegin, 0, i, 0))
                .join()
                .expect("join");
        }
        let rings = rec.shared.rings.lock().expect("lock").len();
        assert_eq!(rings, 1, "serial thread churn reuses one ring");
        assert_eq!(rec.events_total(), 20);
    }

    #[test]
    fn exemplars_are_bounded_last_k_per_kind() {
        let rec = FlightRecorder::new(true);
        for serial in 1..=10u64 {
            rec.emit_for(serial, EventKind::CacheMiss, serial, 0, 0);
            rec.capture_exemplar(2, serial, serial * 100, serial, false);
        }
        let exemplars = rec.exemplars();
        assert_eq!(exemplars.len(), EXEMPLARS_PER_KIND);
        let serials: Vec<u64> = exemplars.iter().map(|e| e.serial).collect();
        assert_eq!(serials, vec![7, 8, 9, 10], "the newest K survive");
        assert_eq!(exemplars[3].events.len(), 1);
        assert_eq!(exemplars[3].events[0].key, 10);
    }

    #[test]
    fn event_kind_labels_roundtrip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u16(kind as u16), Some(kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(EventKind::from_u16(0), None);
        assert_eq!(EventKind::from_u16(999), None);
    }
}
