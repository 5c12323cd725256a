//! Fixed-size `std::thread` worker pool with channel-based job intake.
//!
//! Deliberately minimal: an `mpsc` job queue shared behind a mutex, one
//! receiver loop per worker. Search jobs are CPU-bound and coarse (one
//! portfolio member each), so queueing overhead is irrelevant next to job
//! runtime; what matters is that the pool is `Sync`, drains fully on drop,
//! and never unwinds across a worker (a panicking job poisons nothing —
//! the panic is contained and the worker keeps serving).
//!
//! **Do not submit jobs that block on other pool jobs.** The pool has a
//! fixed worker count and no work stealing, so a job that waits for a
//! later-queued job can occupy every worker with blocked parents and
//! deadlock the queue. This is why the server's pipelined request
//! dispatchers are dedicated threads (bounded by the per-connection
//! in-flight cap) that *fan onto* the pool, never pool jobs themselves —
//! only leaf work (individual portfolio members) runs here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use qsdnn_obs::{EventKind, FlightRecorder, Gauge};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Flight-recorder hookup for a pool: workers publish a task-table entry
/// for the duration of every job, and `execute` journals a saturation
/// event when the queue depth first reaches `saturation_threshold`.
#[derive(Clone)]
pub struct PoolRecorder {
    /// The server's flight recorder.
    pub recorder: Arc<FlightRecorder>,
    /// Task-table kind id workers register under (see `metrics::task_kind`).
    pub task_kind: u16,
    /// Distinguishes this pool in `PoolSaturated` events (`a` payload).
    pub pool_id: u64,
    /// Queue depth at which a `PoolSaturated` event is journaled. Emitted
    /// only on the exact crossing so a persistently saturated pool logs
    /// once per excursion, not once per job.
    pub saturation_threshold: i64,
}

/// Health gauges a pool maintains: how many jobs are queued and how many
/// workers are mid-job. Cloned into every worker.
///
/// Both gauges are `Relaxed` atomics internally (see `qsdnn_obs`):
/// statistics only, never used to synchronize — the channel itself is
/// the worker handoff.
#[derive(Debug, Clone)]
pub struct PoolGauges {
    /// Jobs submitted but not yet picked up by a worker.
    pub queue_depth: Arc<Gauge>,
    /// Workers currently running a job.
    pub busy: Arc<Gauge>,
}

/// A fixed-size worker pool.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    gauges: Option<PoolGauges>,
    recorder: Option<PoolRecorder>,
}

impl WorkerPool {
    /// Starts `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        WorkerPool::named_observed("qsdnn-worker", threads, None, None)
    }

    /// Starts `threads` workers (at least one) named `<prefix>-<i>`, so a
    /// second pool with a different role (e.g. the server's request
    /// dispatchers) is tellable apart in thread listings. `gauges` exports
    /// queue depth and busy workers; `recorder` journals worker activity
    /// and queue saturation to the flight recorder.
    pub fn named_observed(
        prefix: &str,
        threads: usize,
        gauges: Option<PoolGauges>,
        recorder: Option<PoolRecorder>,
    ) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let gauges = gauges.clone();
                let recorder = recorder.clone();
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || worker_loop(&rx, gauges.as_ref(), recorder.as_ref()))
                    // LINT-ALLOW(panic-path): pool construction is server
                    // startup, before any connection is accepted; a host
                    // that cannot spawn threads cannot serve at all.
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            gauges,
            recorder,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job; it runs on the first free worker. If the pool can
    /// no longer queue (teardown has begun), the job runs inline on the
    /// caller's thread rather than being dropped or panicking: late
    /// completions still get delivered, just without parallelism.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(g) = &self.gauges {
            let depth = g.queue_depth.get() + 1;
            g.queue_depth.inc();
            if let Some(pr) = &self.recorder {
                // Journal the exact crossing only; the gauge itself tells
                // operators how deep the excursion went.
                if depth == pr.saturation_threshold {
                    pr.recorder
                        .emit(EventKind::PoolSaturated, 0, pr.pool_id, depth as u64);
                }
            }
        }
        let Some(tx) = self.tx.as_ref() else {
            // Only reachable mid-Drop (tx is taken there); run inline.
            run_inline(Box::new(job), self.gauges.as_ref());
            return;
        };
        if let Err(returned) = tx.send(Box::new(job)) {
            // Every worker exited, which only happens at teardown; the
            // send handed the job back, so run it inline.
            run_inline(returned.0, self.gauges.as_ref());
        }
    }
}

/// Fallback execution path when the queue is gone: same gauge accounting
/// and panic containment as a worker, on the submitting thread.
fn run_inline(job: Job, gauges: Option<&PoolGauges>) {
    if let Some(g) = gauges {
        g.queue_depth.dec();
        g.busy.inc();
    }
    let _ = catch_unwind(AssertUnwindSafe(job));
    if let Some(g) = gauges {
        g.busy.dec();
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    gauges: Option<&PoolGauges>,
    recorder: Option<&PoolRecorder>,
) {
    loop {
        // Hold the lock only to dequeue, never while running the job.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match job {
            Ok(job) => {
                if let Some(g) = gauges {
                    g.queue_depth.dec();
                    g.busy.inc();
                }
                if let Some(pr) = recorder {
                    // Register in the live task table for the duration of
                    // the job; the job body may refine stage/key itself.
                    pr.recorder.task_begin(pr.task_kind, 0, 0);
                }
                // A panicking search job must not kill the worker; the
                // submitting side observes the failure through its result
                // channel hanging up.
                let _ = catch_unwind(AssertUnwindSafe(job));
                if let Some(pr) = recorder {
                    pr.recorder.task_clear();
                }
                if let Some(g) = gauges {
                    g.busy.dec();
                }
            }
            Err(_) => return, // all senders dropped: shut down
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn runs_all_jobs_across_workers() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..64 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("boom"));
        let (tx, rx) = channel();
        pool.execute(move || tx.send(42).unwrap());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            42
        );
    }
}
