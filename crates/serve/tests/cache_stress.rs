//! Randomized stress test of the sharded plan cache: 16 threads mixing
//! hits, misses, panicking computes and eviction pressure over a small
//! keyspace, asserting the three contracts the serving layer depends on:
//!
//! (a) the capacity bound is never exceeded in any shard, in-flight
//!     computes included;
//! (b) single-flight holds — no two computes of one key ever overlap;
//! (c) every completed request lands in exactly one stats counter, so the
//!     counters sum to the number of completed requests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use qsdnn_serve::{CacheValue, PlanCache};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

const THREADS: usize = 16;
const OPS_PER_THREAD: usize = 40;

/// A tiny artifact, cheap to compute, so the run stresses the cache
/// rather than the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Payload {
    key_id: usize,
}

impl CacheValue for Payload {}

/// Decrements the per-key concurrent-compute counter even when the
/// compute panics, so a panic op never wedges the single-flight check.
struct ComputeTicket<'a>(&'a AtomicUsize);

impl Drop for ComputeTicket<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn run_stress(seed: u64, keyspace: usize, max_entries: usize, shards: usize) {
    let cache = Arc::new(
        PlanCache::<Payload>::new()
            .with_shards(shards)
            .with_max_entries(max_entries),
    );
    let computing: Arc<Vec<AtomicUsize>> =
        Arc::new((0..keyspace).map(|_| AtomicUsize::new(0)).collect());
    let single_flight_violated = Arc::new(AtomicBool::new(false));
    let workers_done = Arc::new(AtomicBool::new(false));

    // (a) An observer samples every shard throughout the run; a bound
    // overrun at any instant fails the property.
    let observer = {
        let cache = Arc::clone(&cache);
        let done = Arc::clone(&workers_done);
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                for s in cache.shard_stats() {
                    assert!(
                        s.entries + s.in_flight <= s.capacity,
                        "shard over capacity: {} resident vs cap {}",
                        s.entries + s.in_flight,
                        s.capacity
                    );
                }
                std::thread::yield_now();
            }
        })
    };

    let mut workers = Vec::new();
    for tid in 0..THREADS {
        let cache = Arc::clone(&cache);
        let computing = Arc::clone(&computing);
        let violated = Arc::clone(&single_flight_violated);
        workers.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(seed ^ (0xA5A5_0000 + tid as u64));
            let mut completed = 0u64;
            for _ in 0..OPS_PER_THREAD {
                let key_id = rng.gen_range(0..keyspace);
                let key = format!("key-{key_id:04}");
                let should_panic = rng.gen_bool(0.15);
                let pause_us = rng.gen_range(0..120u64);
                let ok = catch_unwind(AssertUnwindSafe(|| {
                    cache.get_or_compute(&key, || {
                        // (b) At most one compute per key may be live.
                        if computing[key_id].fetch_add(1, Ordering::SeqCst) != 0 {
                            violated.store(true, Ordering::SeqCst);
                        }
                        let _ticket = ComputeTicket(&computing[key_id]);
                        std::thread::sleep(std::time::Duration::from_micros(pause_us));
                        assert!(!should_panic, "injected compute panic");
                        Payload { key_id }
                    })
                }))
                .is_ok();
                if ok {
                    completed += 1;
                }
            }
            completed
        }));
    }
    let completed: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    workers_done.store(true, Ordering::SeqCst);
    observer.join().unwrap();

    assert!(
        !single_flight_violated.load(Ordering::SeqCst),
        "two computes of one key overlapped"
    );
    let stats = cache.stats();
    // (c) hit/miss/coalesced/spill_load partition the completed requests.
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced + stats.spill_loads,
        completed,
        "request accounting must partition completed requests: {stats:?}"
    );
    assert_eq!(stats.spill_loads, 0, "memory-only run never touches disk");
    assert_eq!(stats.in_flight, 0, "no compute survives the run");
    // Final occupancy respects the bound too.
    for s in cache.shard_stats() {
        assert!(s.entries + s.in_flight <= s.capacity);
    }
    assert!(cache.len() <= max_entries);
    let rate = stats.hit_rate();
    assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mixed hit/miss/panic/evict traffic across 16 threads holds the
    /// bound, single-flight and stats-accounting invariants for random
    /// cache geometries.
    #[test]
    fn randomized_mixed_ops_hold_cache_invariants(
        seed in 0u64..1_000_000,
        keyspace in 4usize..32,
        max_entries in 1usize..12,
        shards in 1usize..6,
    ) {
        run_stress(seed, keyspace, max_entries, shards);
    }
}
