//! Content-addressed, sharded plan cache with single-flight coalescing,
//! a hard per-shard capacity invariant, LRU eviction and a bounded,
//! crash-safe, checksummed binary spill tier.
//!
//! Keys are stable fingerprints of *(LUT, objective, portfolio spec)* — see
//! [`plan_key`] — so any two requests that could possibly produce different
//! plans get different keys, and identical requests (even from different
//! connections, even across process restarts via the spill directory) share
//! one search.
//!
//! **Sharding:** the cache is split into N independent shards (selected by
//! a stable hash of the key), each its own `Mutex` + `Condvar`, so lookups
//! for different keys never contend on one lock. Single-flight, eviction
//! and the capacity bound are all per-shard.
//!
//! **Single-flight:** when several threads ask for the same missing key
//! concurrently, exactly one runs the compute closure; the rest block on
//! the shard's condvar and receive the same `Arc`'d outcome. A panicking
//! compute removes its in-flight marker on unwind so waiters retry rather
//! than hang.
//!
//! **Bounded — a hard invariant:** every shard holds at most
//! `max_entries / shards` slots, *counting in-flight markers*. A claim on
//! a full shard first evicts a ready victim; when every slot is an
//! in-flight compute, the claimer blocks on the condvar until one
//! publishes or unwinds — it never overruns the bound and never runs a
//! duplicate search for a key someone else owns.
//!
//! **Eviction:** the victim is the least-recently-used ready entry (true
//! LRU via a per-shard generation counter).
//!
//! **Spill tier:** computed artifacts persist as `<dir>/<key>.plan`, one
//! record each: a fixed header (magic, format version, body length, the
//! body's checksum) and the value's v3 body ([`CacheValue::to_spill`]).
//! The writer fsyncs before the atomic rename, so a crash never leaves a
//! torn file behind the durable name. A record that fails its header,
//! length or checksum, or whose body does not decode, is a miss: the file
//! is deleted, counted (`qsdnn_spill_corrupt_total`) and the value
//! recomputed — it never answers. Construction sweeps the directory,
//! deleting orphaned `*.tmp` files and old-format `<key>.json` records
//! and trimming the on-disk entry count (oldest first) to its own bound.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::UNIX_EPOCH;

use qsdnn::engine::{CostLut, Fnv64, Objective};
use qsdnn::PortfolioOutcome;
use qsdnn_obs::{EventKind, FlightRecorder};
use serde::{Deserialize, Serialize};

use crate::codec;
use crate::protocol::WireMode;

/// Locks a cache mutex, recovering from poisoning. Every mutation under
/// these locks is transactional (insert/remove completes before the guard
/// drops), so state left by a panicked peer is still coherent — poisoning
/// must not take the whole cache down with the one request that unwound.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Builds the content address for one plan scenario.
///
/// The LUT fingerprint already covers network, platform, mode and every
/// profiled number; the objective and portfolio fingerprints cover what the
/// search will do with them. `platform` is `Some((name, spec_fingerprint))`
/// only when the request *engaged* a non-default platform (see
/// `write_platform`).
pub fn plan_key(
    lut_fingerprint: u64,
    objective: &Objective,
    portfolio_fingerprint: u64,
    platform: Option<(&str, u64)>,
) -> String {
    let mut h = Fnv64::new();
    h.write_str("qsdnn-plan-v1");
    h.write_u64(lut_fingerprint);
    objective.fingerprint_into(&mut h);
    h.write_u64(portfolio_fingerprint);
    write_platform(&mut h, platform);
    format!("{:016x}", h.finish())
}

/// Content address of a *warm-started* plan: the scenario identity plus
/// the donor plan's key, and the same optional platform component as
/// [`plan_key`]. A warm search's outcome depends on which donor seeded it,
/// so warm plans never share a key with the cold plan for the same
/// scenario (or with a warm plan seeded by a different donor) — a later
/// `transfer: "off"` request therefore can never be served a transferred
/// result.
pub fn warm_plan_key(
    lut_fingerprint: u64,
    objective: &Objective,
    portfolio_fingerprint: u64,
    donor_key: &str,
    platform: Option<(&str, u64)>,
) -> String {
    let mut h = Fnv64::new();
    h.write_str("qsdnn-plan-warm-v1");
    h.write_u64(lut_fingerprint);
    objective.fingerprint_into(&mut h);
    h.write_u64(portfolio_fingerprint);
    h.write_str(donor_key);
    write_platform(&mut h, platform);
    format!("{:016x}", h.finish())
}

/// The one rule for a platform in a content address, shared by the plan,
/// warm-plan and profile keys: `Some((name, spec_fingerprint))` when the
/// request engaged a non-default platform, and no bytes at all for `None`,
/// so default-platform keys keep their historical values.
pub(crate) fn write_platform(h: &mut Fnv64, platform: Option<(&str, u64)>) {
    if let Some((name, fp)) = platform {
        h.write_str("platform");
        h.write_str(name);
        h.write_u64(fp);
    }
}

/// What the cache can hold: cloneable, and writable to the spill tier as
/// one record — a fixed header (magic, format version, body length and
/// the body's checksum) followed by the value's v3 body.
///
/// The body is always written through the tree codec, so there is one
/// file format. The default reader goes through the tree too; an override
/// may read the body with a typed reader, which must accept what the tree
/// accepts, to the same value (`codec.rs`'s reader rule).
pub trait CacheValue: Serialize + Deserialize + Clone {
    /// The spill record for this value; `None` when it cannot be encoded
    /// (it is then not spilled).
    fn to_spill(&self) -> Option<Vec<u8>> {
        codec::spill_record(self)
    }

    /// The value in a spill record; `None` when the header, length or
    /// checksum fails or the body does not decode.
    fn from_spill(record: &[u8]) -> Option<Self> {
        codec::decode_body(codec::spill_body(record)?).ok()
    }
}

/// Plans reload through the typed reader: the body goes straight into the
/// outcome instead of building its `Value` tree first.
impl CacheValue for PortfolioOutcome {
    fn from_spill(record: &[u8]) -> Option<Self> {
        codec::decode_outcome(codec::spill_body(record)?).ok()
    }
}

impl CacheValue for CostLut {}

/// Aggregate cache counters (monotonic since construction).
///
/// Every completed `get_or_compute` call lands in exactly one of `hits`,
/// `misses`, `coalesced` or `spill_loads`, so the four always sum to the
/// number of requests the cache has answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests answered from memory without waiting.
    pub hits: u64,
    /// Requests that ran a fresh search.
    pub misses: u64,
    /// Requests that piggy-backed on another request's in-flight search.
    pub coalesced: u64,
    /// Requests answered from the spill directory.
    pub spill_loads: u64,
    /// Ready entries currently resident in memory (all shards).
    pub entries: u64,
    /// In-flight computes currently holding slots (all shards).
    pub in_flight: u64,
    /// Ready entries evicted to make room (all shards).
    pub evictions: u64,
    /// Times a claim had to block because its shard was full of in-flight
    /// computes (the bound held instead of overrunning).
    pub capacity_stalls: u64,
    /// Number of shards the cache is split into.
    pub shards: u64,
}

impl CacheStats {
    /// Fraction of requests that avoided a fresh search.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced + self.spill_loads;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced + self.spill_loads) as f64 / total as f64
        }
    }
}

/// One shard's counters and occupancy, as reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardStats {
    /// Ready entries resident in this shard.
    pub entries: u64,
    /// In-flight computes holding slots in this shard.
    pub in_flight: u64,
    /// The shard's slot capacity (ready + in-flight never exceeds it).
    pub capacity: u64,
    /// Requests answered from this shard without waiting.
    pub hits: u64,
    /// Requests that ran a fresh search in this shard.
    pub misses: u64,
    /// Requests that piggy-backed on an in-flight search in this shard.
    pub coalesced: u64,
    /// Requests answered from the spill directory via this shard.
    pub spill_loads: u64,
    /// Ready entries evicted from this shard.
    pub evictions: u64,
    /// Claims that blocked on a shard full of in-flight computes.
    pub capacity_stalls: u64,
}

/// Default cap on resident entries across all shards (a plan outcome with
/// a 1000-episode learning curve is tens of kB; ~4k entries keeps the
/// cache far from out-of-memory territory while covering thousands of hot
/// scenarios).
pub const DEFAULT_MAX_ENTRIES: usize = 4096;

/// Default shard count — enough to keep 16-ish connection threads off each
/// other's locks without fragmenting the capacity budget.
pub const DEFAULT_SHARDS: usize = 8;

/// Default cap on spilled `.plan` records (the durable tier is cheap but
/// not free; oldest entries are garbage-collected past this).
pub const DEFAULT_MAX_DISK_ENTRIES: usize = 16384;

/// A rendered response body, shared by a cache entry and replies.
pub type WireBody = Arc<Vec<u8>>;

struct ReadyEntry<T> {
    value: Arc<T>,
    /// Shard generation at last access — larger is more recent.
    last_used: u64,
    /// Preserialized response bodies for the zero-copy cache-hit fast
    /// path, one per framing: the v3 body and the JSON one. Each is
    /// attached lazily after the first eligible hit in its framing and
    /// lives and dies with this slot, so eviction, replacement, and spill
    /// reload (which starts a fresh entry) all invalidate both for free.
    /// Never spilled: the durable tier stores plans, and a body is cheap
    /// to rebuild once per residency.
    binary_body: Option<WireBody>,
    json_body: Option<WireBody>,
}

impl<T> ReadyEntry<T> {
    fn new(value: Arc<T>, last_used: u64) -> Self {
        ReadyEntry {
            value,
            last_used,
            binary_body: None,
            json_body: None,
        }
    }

    fn body(&mut self, mode: WireMode) -> &mut Option<WireBody> {
        match mode {
            WireMode::Binary => &mut self.binary_body,
            WireMode::Json => &mut self.json_body,
        }
    }
}

enum Slot<T> {
    InFlight,
    Ready(ReadyEntry<T>),
}

#[derive(Default, Clone, Copy)]
struct ShardCounters {
    hits: u64,
    misses: u64,
    coalesced: u64,
    spill_loads: u64,
    evictions: u64,
    capacity_stalls: u64,
}

struct ShardState<T> {
    map: HashMap<String, Slot<T>>,
    /// Generation counter backing true-LRU recency.
    tick: u64,
    counters: ShardCounters,
}

struct Shard<T> {
    state: Mutex<ShardState<T>>,
    ready: Condvar,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            state: Mutex::new(ShardState {
                map: HashMap::new(),
                tick: 0,
                counters: ShardCounters::default(),
            }),
            ready: Condvar::new(),
        }
    }
}

/// Extension of a spill record: `<dir>/<key>.plan`.
const SPILL_EXT: &str = "plan";

/// The bounded durable tier: an index of spilled keys in age order, used
/// to garbage-collect the oldest files past the on-disk bound.
struct SpillTier {
    dir: PathBuf,
    max_disk_entries: usize,
    index: Mutex<DiskIndex>,
    /// Records refused on reload (bad header, length, checksum or body).
    corrupt: AtomicU64,
}

#[derive(Default)]
struct DiskIndex {
    /// Keys in eviction order, oldest first.
    order: VecDeque<String>,
    present: HashSet<String>,
}

impl SpillTier {
    /// Opens the tier: creates the directory and [sweeps](SpillTier::sweep)
    /// it.
    fn open(dir: PathBuf, max_disk_entries: usize) -> std::io::Result<SpillTier> {
        std::fs::create_dir_all(&dir)?;
        let tier = SpillTier {
            dir,
            max_disk_entries,
            index: Mutex::new(DiskIndex::default()),
            corrupt: AtomicU64::new(0),
        };
        tier.sweep()?;
        Ok(tier)
    }

    /// Deletes `*.tmp` orphans left by a crashed writer and `<key>.json`
    /// records of the old JSON format, indexes the surviving `.plan`
    /// records by age and trims them to the bound. Every other name —
    /// `scenarios/`, `postmortem-*.dump` — is left alone.
    fn sweep(&self) -> std::io::Result<()> {
        let mut files: Vec<(String, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(ext) = path.extension().and_then(|e| e.to_str()) else {
                continue;
            };
            if ext == "tmp" || ext == "json" {
                // An orphan from a writer that died between create and
                // rename was never part of the durable tier; an old JSON
                // record is not this format and must not be misread.
                let _ = std::fs::remove_file(&path);
            } else if ext == SPILL_EXT {
                let Some(key) = path.file_stem().and_then(|k| k.to_str()) else {
                    continue;
                };
                let mtime = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(UNIX_EPOCH);
                files.push((key.to_string(), mtime));
            }
        }
        files.sort_by_key(|f| f.1);
        let excess = files.len().saturating_sub(self.max_disk_entries);
        let mut index = lock_recover(&self.index);
        *index = DiskIndex::default();
        for (key, _) in files.drain(..excess) {
            let _ = std::fs::remove_file(self.path_for(&key));
        }
        for (key, _) in files {
            index.present.insert(key.clone());
            index.order.push_back(key);
        }
        Ok(())
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.{SPILL_EXT}"))
    }

    fn load(&self, key: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path_for(key)).ok()
    }

    fn store(&self, key: &str, record: &[u8]) {
        if write_durably(&self.path_for(key), record).is_err() {
            return;
        }
        let mut index = lock_recover(&self.index);
        if index.present.insert(key.to_string()) {
            index.order.push_back(key.to_string());
        }
        while index.order.len() > self.max_disk_entries {
            let Some(victim) = index.order.pop_front() else {
                break;
            };
            index.present.remove(&victim);
            let _ = std::fs::remove_file(self.path_for(&victim));
        }
    }

    /// Drops a record that failed to reload: the file goes, the key leaves
    /// the index, and the refusal is counted.
    fn discard(&self, key: &str) {
        let mut index = lock_recover(&self.index);
        let _ = std::fs::remove_file(self.path_for(key));
        if index.present.remove(key) {
            index.order.retain(|k| k != key);
        }
        self.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Spilled entries currently indexed.
    fn len(&self) -> usize {
        lock_recover(&self.index).order.len()
    }
}

/// Writes `bytes` to `path` through a sibling temporary file, `path`'s
/// name with `.tmp` appended: write, fsync, rename. On failure the
/// temporary file is removed and `path` is untouched, so a reader sees the
/// old record or the whole new one.
pub(crate) fn write_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // fsync *before* the rename: the rename is what makes the record
        // durable, so the bytes must already be on disk.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Content-addressed, sharded, single-flight cache. `T` is the cached
/// artifact — `PortfolioOutcome` for plans, `CostLut` for Phase-1
/// profiles.
pub struct PlanCache<T> {
    shards: Vec<Shard<T>>,
    /// Total resident bound requested via [`PlanCache::with_max_entries`].
    max_entries: usize,
    /// Shard count requested via [`PlanCache::with_shards`] (the effective
    /// count is clamped so every shard gets at least one slot).
    requested_shards: usize,
    spill: Option<SpillTier>,
    /// Flight recorder plus this cache's id in `CacheHit`/`CacheMiss`/...
    /// events (`a` payload; the serve stack uses 0 = plans, 1 = profiles).
    recorder: Option<(Arc<FlightRecorder>, u64)>,
}

/// Removes the in-flight marker if the computing thread unwinds, waking
/// waiters so they can retry instead of blocking forever.
struct InFlightGuard<'a, T> {
    shard: &'a Shard<T>,
    key: &'a str,
    completed: bool,
}

impl<T> Drop for InFlightGuard<'_, T> {
    fn drop(&mut self) {
        if !self.completed {
            let mut state = lock_recover(&self.shard.state);
            if matches!(state.map.get(self.key), Some(Slot::InFlight)) {
                state.map.remove(self.key);
            }
            drop(state);
            self.shard.ready.notify_all();
        }
    }
}

impl<T: CacheValue> PlanCache<T> {
    /// In-memory cache: [`DEFAULT_SHARDS`] shards sharing
    /// [`DEFAULT_MAX_ENTRIES`] resident slots, LRU eviction.
    pub fn new() -> Self {
        let mut cache = PlanCache {
            shards: Vec::new(),
            max_entries: DEFAULT_MAX_ENTRIES,
            requested_shards: DEFAULT_SHARDS,
            spill: None,
            recorder: None,
        };
        cache.rebuild_shards();
        cache
    }

    /// Cache that additionally persists every computed artifact as a
    /// `<dir>/<key>.plan` record and warm-starts from such files on miss.
    /// Opening sweeps the directory: orphaned `*.tmp` files and
    /// old-format `<key>.json` records are deleted and the on-disk entry
    /// count is trimmed (oldest first) to [`DEFAULT_MAX_DISK_ENTRIES`].
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or swept.
    pub fn with_spill_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let mut cache = PlanCache::new();
        cache.spill = Some(SpillTier::open(dir.into(), DEFAULT_MAX_DISK_ENTRIES)?);
        Ok(cache)
    }

    /// Returns the cache with a different total resident bound (min 1).
    /// The bound is divided across shards and holds per shard as a hard
    /// invariant, in-flight computes included. Resets resident entries.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries.max(1);
        self.rebuild_shards();
        self
    }

    /// Returns the cache with a different shard count (min 1; clamped to
    /// the resident bound so every shard owns at least one slot). Resets
    /// resident entries.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.requested_shards = shards.max(1);
        self.rebuild_shards();
        self
    }

    /// Returns the cache journaling every hit/miss/coalesce/spill/evict/
    /// stall to `recorder` as flight-recorder events tagged `cache_id`.
    /// Counters stay authoritative for totals; the journal adds per-event
    /// timing, shard and request attribution.
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>, cache_id: u64) -> Self {
        self.recorder = Some((recorder, cache_id));
        self
    }

    /// Returns the cache with a different bound on spilled `.plan` records
    /// (min 1); trims the directory immediately if it is over. No effect
    /// without a spill directory.
    pub fn with_max_disk_entries(mut self, max_disk_entries: usize) -> Self {
        if let Some(spill) = self.spill.as_mut() {
            spill.max_disk_entries = max_disk_entries.max(1);
            let _ = spill.sweep();
        }
        self
    }

    fn rebuild_shards(&mut self) {
        let n = self.requested_shards.min(self.max_entries).max(1);
        self.shards = (0..n).map(|_| Shard::default()).collect();
    }

    /// Slots each shard may hold (ready + in-flight). The floor division
    /// guarantees the total never exceeds `max_entries`.
    fn per_shard_cap(&self) -> usize {
        (self.max_entries / self.shards.len()).max(1)
    }

    /// Selects the shard from a stable hash of the whole key. Hashing
    /// every byte (not just a prefix) keeps the distribution uniform even
    /// for key families that share long common prefixes, e.g. zero-padded
    /// counters or namespaced keys.
    fn shard_index(&self, key: &str) -> usize {
        let mut h = Fnv64::new();
        h.write_str(key);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn shard_for(&self, key: &str) -> &Shard<T> {
        // LINT-ALLOW(panic-path): the index is `hash % len`, in range by
        // construction, and `shards` is never empty (clamped to >= 1).
        &self.shards[self.shard_index(key)]
    }

    /// Journals one cache event when a recorder is attached. Plan keys are
    /// 16 hex chars, so the key packs losslessly into the event's `key`
    /// field; non-hex keys (tests) record as 0.
    fn record(&self, kind: EventKind, key: &str) {
        if let Some((rec, cache_id)) = &self.recorder {
            if rec.enabled() {
                let packed = u64::from_str_radix(key, 16).unwrap_or(0);
                rec.emit(kind, packed, *cache_id, self.shard_index(key) as u64);
            }
        }
    }

    /// The value spilled under `key`. A record that fails its checks is
    /// discarded and reads as absent, so the caller recomputes.
    fn load_spilled(&self, key: &str) -> Option<T> {
        let spill = self.spill.as_ref()?;
        let value = T::from_spill(&spill.load(key)?);
        if value.is_none() {
            spill.discard(key);
        }
        value
    }

    fn spill(&self, key: &str, outcome: &T) {
        if let Some(spill) = &self.spill {
            if let Some(record) = outcome.to_spill() {
                spill.store(key, &record);
            }
        }
    }

    /// Evicts the least-recently-used ready entry; `false` when every slot
    /// is an in-flight compute (nothing is safely removable — threads wait
    /// on those slots).
    fn evict_one(&self, state: &mut ShardState<T>) -> bool {
        let victim = state
            .map
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready(e) => Some((k, e.last_used)),
                Slot::InFlight => None,
            })
            .min_by_key(|&(_, last_used)| last_used)
            .map(|(k, _)| k.clone());
        match victim {
            Some(k) => {
                state.map.remove(&k);
                state.counters.evictions += 1;
                self.record(EventKind::CacheEvict, &k);
                true
            }
            None => false,
        }
    }

    /// Looks up `key` without ever computing: a resident hit refreshes
    /// recency and counts as a cache hit; a spill-tier hit counts as a
    /// spill load and becomes resident when the shard has room (it is
    /// dropped from memory, not blocked on, when every slot is in
    /// flight). A miss touches no counter — callers use `peek` to decide
    /// *which* key to compute under (exact vs warm-started), and the
    /// follow-up `get_or_compute` accounts that request.
    ///
    /// An in-flight slot reads as a miss: peek never waits on another
    /// thread's compute. Use [`PlanCache::is_pending`] to tell "being
    /// computed right now" apart from "gone from both tiers".
    pub fn peek(&self, key: &str) -> Option<Arc<T>> {
        self.peek_inner(key, true, None).map(|(value, _)| value)
    }

    /// [`PlanCache::peek`] that also hands back the body attached to the
    /// resident entry for framing `mode`, read under the same shard lock
    /// as the value. A spill-tier load starts a fresh residency, so it
    /// never carries one.
    pub fn peek_with_body(&self, key: &str, mode: WireMode) -> Option<(Arc<T>, Option<WireBody>)> {
        self.peek_inner(key, true, Some(mode))
    }

    /// [`PlanCache::peek`] for *internal* fetches (e.g. transfer donors):
    /// refreshes recency and loads from spill exactly like `peek`, but
    /// touches none of the request counters, preserving the invariant
    /// that `hits + misses + coalesced + spill_loads` counts only
    /// requests the cache answered for callers.
    pub fn peek_quiet(&self, key: &str) -> Option<Arc<T>> {
        self.peek_inner(key, false, None).map(|(value, _)| value)
    }

    /// Whether `key` currently holds an in-flight compute — some other
    /// request owns the slot via `get_or_compute` and will publish (or
    /// unwind) soon. `peek` reports such slots as misses.
    pub fn is_pending(&self, key: &str) -> bool {
        let state = lock_recover(&self.shard_for(key).state);
        matches!(state.map.get(key), Some(Slot::InFlight))
    }

    /// The preserialized body attached to `key`'s resident entry for
    /// framing `mode`, if any. Recency- and counter-neutral: a fetch of
    /// bytes, not a hit (a hit gets value and body together from
    /// [`PlanCache::peek_with_body`]).
    pub fn body(&self, key: &str, mode: WireMode) -> Option<WireBody> {
        let mut state = lock_recover(&self.shard_for(key).state);
        match state.map.get_mut(key) {
            Some(Slot::Ready(entry)) => entry.body(mode).clone(),
            _ => None,
        }
    }

    /// Attaches a preserialized body for framing `mode` to `key`'s
    /// resident entry so later hits in that framing skip serialization
    /// entirely. A no-op when the key is absent or in flight (the entry
    /// may have been evicted between the hit and the attach — the body is
    /// then rebuilt on the next residency, which is exactly the
    /// invalidation contract).
    pub fn attach_body(&self, key: &str, mode: WireMode, body: WireBody) {
        let mut state = lock_recover(&self.shard_for(key).state);
        if let Some(Slot::Ready(entry)) = state.map.get_mut(key) {
            *entry.body(mode) = Some(body);
        }
    }

    /// [`PlanCache::body`] for the v3 framing.
    pub fn wire_body(&self, key: &str) -> Option<WireBody> {
        self.body(key, WireMode::Binary)
    }

    /// [`PlanCache::attach_body`] for the v3 framing.
    pub fn attach_wire_body(&self, key: &str, body: WireBody) {
        self.attach_body(key, WireMode::Binary, body);
    }

    /// The lookup behind every `peek`: `body` picks the framing whose
    /// attached body comes back with the value.
    fn peek_inner(
        &self,
        key: &str,
        counted: bool,
        body: Option<WireMode>,
    ) -> Option<(Arc<T>, Option<WireBody>)> {
        let shard = self.shard_for(key);
        {
            let mut state = lock_recover(&shard.state);
            // Reborrow so the entry's borrow of `map` can coexist with
            // the disjoint `tick`/`counters` field updates.
            let st = &mut *state;
            if let Some(Slot::Ready(entry)) = st.map.get_mut(key) {
                st.tick += 1;
                if counted {
                    st.counters.hits += 1;
                }
                entry.last_used = st.tick;
                let body = body.and_then(|mode| entry.body(mode).clone());
                let hit = (Arc::clone(&entry.value), body);
                drop(state);
                if counted {
                    self.record(EventKind::CacheHit, key);
                }
                return Some(hit);
            }
        }
        // Not resident: try the durable tier (outside the lock — disk I/O
        // must not serialize the shard).
        let value = Arc::new(self.load_spilled(key)?);
        let cap = self.per_shard_cap();
        let mut state = lock_recover(&shard.state);
        if counted {
            state.counters.spill_loads += 1;
        }
        match state.map.get(key) {
            // Someone published or claimed the key meanwhile; leave their
            // slot alone and serve our loaded copy.
            Some(_) => {}
            None => {
                if state.map.len() < cap || self.evict_one(&mut state) {
                    state.tick += 1;
                    let entry = ReadyEntry::new(Arc::clone(&value), state.tick);
                    state.map.insert(key.to_string(), Slot::Ready(entry));
                }
            }
        }
        drop(state);
        if counted {
            self.record(EventKind::CacheSpillLoad, key);
        }
        Some((value, None))
    }

    /// Looks up `key`, computing it with `compute` on a miss. Guarantees at
    /// most one concurrent `compute` per key (single-flight) and never more
    /// than the shard's capacity in resident slots, in-flight included.
    /// Returns the outcome and whether it was served without running
    /// `compute` on this call.
    pub fn get_or_compute(&self, key: &str, compute: impl FnOnce() -> T) -> (Arc<T>, bool) {
        match self.try_get_or_compute(key, || Ok::<T, std::convert::Infallible>(compute())) {
            Ok(served) => served,
            Err(never) => match never {},
        }
    }

    /// Fallible [`PlanCache::get_or_compute`]: when `compute` fails, the
    /// in-flight slot is released, waiters are woken (the next one retries
    /// the compute), nothing is cached or spilled, and the error is
    /// returned to this caller only.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error verbatim.
    pub fn try_get_or_compute<E>(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let cap = self.per_shard_cap();
        let shard = self.shard_for(key);
        let mut waited = false;
        {
            let mut state = lock_recover(&shard.state);
            loop {
                // Reborrow so the entry's borrow of `map` can coexist
                // with the disjoint `tick`/`counters` field updates.
                let st = &mut *state;
                if let Some(Slot::Ready(entry)) = st.map.get_mut(key) {
                    st.tick += 1;
                    if waited {
                        st.counters.coalesced += 1;
                    } else {
                        st.counters.hits += 1;
                    }
                    entry.last_used = st.tick;
                    let value = Arc::clone(&entry.value);
                    drop(state);
                    self.record(
                        if waited {
                            EventKind::CacheCoalesced
                        } else {
                            EventKind::CacheHit
                        },
                        key,
                    );
                    return Ok((value, true));
                }
                // Ready was handled above, so an occupied slot means an
                // in-flight compute someone else owns: wait for it to
                // publish or unwind. Counted once per request at the
                // end, not once per wakeup.
                if state.map.contains_key(key) {
                    waited = true;
                    state = match shard.ready.wait(state) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    continue;
                }
                // Claim the key — but only if the shard has room. The
                // in-flight marker counts toward the bound, so the
                // capacity invariant holds from claim to publish.
                if state.map.len() < cap || self.evict_one(&mut state) {
                    state.map.insert(key.to_string(), Slot::InFlight);
                    break;
                }
                // Every slot is an in-flight compute: wait for one to
                // publish (then evictable) or unwind — never overrun
                // the bound.
                state.counters.capacity_stalls += 1;
                self.record(EventKind::CacheStall, key);
                waited = true;
                state = match shard.ready.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }

        // We own the in-flight slot. Check disk first, then compute. The
        // guard releases the slot if `compute` fails or unwinds.
        let mut guard = InFlightGuard {
            shard,
            key,
            completed: false,
        };
        let (outcome, from_spill) = match self.load_spilled(key) {
            Some(o) => {
                self.record(EventKind::CacheSpillLoad, key);
                (o, true)
            }
            None => {
                // Journaled before the compute runs so a slow request's
                // exemplar shows the miss *preceding* its search stages.
                self.record(EventKind::CacheMiss, key);
                (compute()?, false)
            }
        };
        let outcome = Arc::new(outcome);
        {
            let mut state = lock_recover(&shard.state);
            state.tick += 1;
            let entry = ReadyEntry::new(Arc::clone(&outcome), state.tick);
            // Replaces our own in-flight marker: occupancy is unchanged,
            // so the bound established at claim time still holds.
            state.map.insert(key.to_string(), Slot::Ready(entry));
            if from_spill {
                state.counters.spill_loads += 1;
            } else {
                state.counters.misses += 1;
            }
        }
        guard.completed = true;
        drop(guard);
        shard.ready.notify_all();
        if !from_spill {
            if self.spill.is_some() {
                self.record(EventKind::CacheSpill, key);
            }
            self.spill(key, &outcome);
        }
        Ok((outcome, from_spill))
    }

    fn shard_stats_locked(state: &MutexGuard<'_, ShardState<T>>, cap: usize) -> ShardStats {
        let in_flight = state
            .map
            .values()
            .filter(|s| matches!(s, Slot::InFlight))
            .count() as u64;
        ShardStats {
            entries: state.map.len() as u64 - in_flight,
            in_flight,
            capacity: cap as u64,
            hits: state.counters.hits,
            misses: state.counters.misses,
            coalesced: state.counters.coalesced,
            spill_loads: state.counters.spill_loads,
            evictions: state.counters.evictions,
            capacity_stalls: state.counters.capacity_stalls,
        }
    }

    /// Per-shard occupancy and counters (one consistent snapshot per
    /// shard; shards are sampled in order, not atomically together).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let cap = self.per_shard_cap();
        self.shards
            .iter()
            .map(|s| Self::shard_stats_locked(&lock_recover(&s.state), cap))
            .collect()
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            hits: 0,
            misses: 0,
            coalesced: 0,
            spill_loads: 0,
            entries: 0,
            in_flight: 0,
            evictions: 0,
            capacity_stalls: 0,
            shards: self.shards.len() as u64,
        };
        for s in self.shard_stats() {
            total.hits += s.hits;
            total.misses += s.misses;
            total.coalesced += s.coalesced;
            total.spill_loads += s.spill_loads;
            total.entries += s.entries;
            total.in_flight += s.in_flight;
            total.evictions += s.evictions;
            total.capacity_stalls += s.capacity_stalls;
        }
        total
    }

    /// Resident slots (ready + in-flight) across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_recover(&s.state).map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spilled `.plan` records currently on disk (0 without a spill dir).
    pub fn spilled_entries(&self) -> usize {
        self.spill.as_ref().map_or(0, SpillTier::len)
    }

    /// Spill records refused on reload since construction — torn,
    /// bit-flipped or undecodable files, each deleted and recomputed (0
    /// without a spill dir).
    pub fn spill_corrupt(&self) -> u64 {
        self.spill
            .as_ref()
            .map_or(0, |spill| spill.corrupt.load(Ordering::Relaxed))
    }
}

impl<T: CacheValue> Default for PlanCache<T> {
    fn default() -> Self {
        PlanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn::engine::toy;
    use qsdnn::Portfolio;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use qsdnn::PortfolioOutcome;

    fn outcome() -> PortfolioOutcome {
        Portfolio::paper_default(60, &[1])
            .run_sequential(&toy::fig1_lut())
            .expect("applicable")
    }

    #[test]
    fn hit_returns_identical_plan() {
        let cache = PlanCache::<PortfolioOutcome>::new();
        let (first, hit1) = cache.get_or_compute("k", outcome);
        assert!(!hit1);
        let (second, hit2) = cache.get_or_compute("k", || panic!("must not recompute"));
        assert!(hit2);
        assert_eq!(*first, *second, "cache hit must return the identical plan");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_identical_requests_run_one_search() {
        let cache = Arc::new(PlanCache::<PortfolioOutcome>::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (out, _) = cache.get_or_compute("same-key", || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    // Give the other threads time to pile up on the slot.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    outcome()
                });
                out.best.best_cost_ms
            }));
        }
        let costs: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight");
        assert!(costs.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 15);
        assert!(stats.hit_rate() > 0.9);
    }

    #[test]
    fn panicking_compute_releases_the_slot() {
        let cache = PlanCache::<PortfolioOutcome>::new();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute("k", || panic!("search exploded"));
        }));
        assert!(boom.is_err());
        // The slot must be free again: a retry computes normally.
        let (out, hit) = cache.get_or_compute("k", outcome);
        assert!(!hit);
        assert!(out.best.best_cost_ms.is_finite());
    }

    #[test]
    fn failing_compute_releases_the_slot_and_caches_nothing() {
        let cache = PlanCache::<PortfolioOutcome>::new();
        let err = cache
            .try_get_or_compute("k", || Err::<PortfolioOutcome, String>("no member".into()))
            .expect_err("compute failure propagates");
        assert_eq!(err, "no member");
        let stats = cache.stats();
        assert_eq!(stats.in_flight, 0, "failed compute must release its slot");
        assert_eq!(stats.entries, 0, "errors are never cached");
        // A retry on the same key computes normally (no poisoned slot, no
        // cached error) and is accounted as an ordinary miss.
        let (out, served_without_compute) = cache
            .try_get_or_compute("k", || Ok::<_, String>(outcome()))
            .unwrap();
        assert!(!served_without_compute);
        assert!(out.best.best_cost_ms.is_finite());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn spill_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!("qsdnn_spill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
            cache.get_or_compute("spilled", outcome);
        }
        let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
        let (out, served_without_compute) =
            cache.get_or_compute("spilled", || panic!("must load from disk"));
        assert!(served_without_compute);
        assert_eq!(out.best.best_assignment, outcome().best.best_assignment);
        assert_eq!(cache.stats().spill_loads, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capacity_bound_evicts_but_keeps_the_newest_entry() {
        let cache = PlanCache::<PortfolioOutcome>::new().with_max_entries(2);
        for key in ["a", "b", "c", "d"] {
            cache.get_or_compute(key, outcome);
            assert!(cache.len() <= 2, "bound must hold after every insert");
        }
        // The most recent insertion always survives its own insert.
        let (_, hit) = cache.get_or_compute("d", || panic!("d must be resident"));
        assert!(hit);
        // Misses on evicted keys recompute (and stay within the bound).
        let recomputed = cache.stats().misses;
        assert_eq!(
            recomputed, 4,
            "each distinct key computed exactly once so far"
        );
    }

    /// Regression for the seed bug: the bound check counted in-flight
    /// slots as evictable, so a shard whose slots were all in-flight
    /// overran `max_entries`. Now the extra claim stalls until a compute
    /// publishes, and the bound holds at every instant.
    #[test]
    fn bound_holds_with_all_slots_in_flight() {
        let cache = Arc::new(
            PlanCache::<PortfolioOutcome>::new()
                .with_shards(1)
                .with_max_entries(2),
        );
        let mut slow = Vec::new();
        for key in ["a", "b"] {
            let cache = Arc::clone(&cache);
            slow.push(std::thread::spawn(move || {
                cache.get_or_compute(key, || {
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    outcome()
                });
            }));
        }
        // Let both slow computes claim their slots.
        while cache.len() < 2 {
            std::thread::yield_now();
        }
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let extra = {
            let cache = Arc::clone(&cache);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                cache.get_or_compute("c", outcome);
                done.store(true, Ordering::SeqCst);
            })
        };
        // The third insert must wait for room, never overrun the bound.
        while !done.load(Ordering::SeqCst) {
            assert!(cache.len() <= 2, "bound violated under in-flight pressure");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        extra.join().unwrap();
        for h in slow {
            h.join().unwrap();
        }
        assert!(cache.len() <= 2);
        let stats = cache.stats();
        assert_eq!(stats.misses, 3, "all three keys computed exactly once");
        assert!(
            stats.capacity_stalls >= 1,
            "the extra claim must have stalled at the full shard"
        );
    }

    /// Regression for the coalesced-counter bug: a request that waits
    /// through several panic-retry wakeups must be accounted exactly once,
    /// so the four request counters always sum to the number of completed
    /// requests and `hit_rate` stays within [0, 1].
    #[test]
    fn coalesced_counts_once_per_request_across_panic_retries() {
        let cache = Arc::new(PlanCache::<PortfolioOutcome>::new().with_shards(1));
        let attempts = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let cache = Arc::clone(&cache);
            let attempts = Arc::clone(&attempts);
            handles.push(std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute("k", || {
                        let n = attempts.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        // The first two claimed computes explode; waiters
                        // wake, one re-claims, and the third succeeds.
                        assert!(n >= 2, "search exploded");
                        outcome()
                    });
                }))
                .is_ok()
            }));
        }
        let succeeded = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|ok| *ok)
            .count() as u64;
        assert_eq!(succeeded, 14, "exactly the two panicking requests fail");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one successful fresh search");
        assert_eq!(
            stats.hits + stats.misses + stats.coalesced + stats.spill_loads,
            succeeded,
            "every completed request is accounted exactly once"
        );
        let rate = stats.hit_rate();
        assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
        assert!(rate >= 13.0 / 14.0 - 1e-9, "13 of 14 served without search");
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = PlanCache::<PortfolioOutcome>::new()
            .with_shards(1)
            .with_max_entries(2);
        cache.get_or_compute("a", outcome);
        cache.get_or_compute("b", outcome);
        // Touch "a" so "b" becomes the LRU victim.
        cache.get_or_compute("a", || panic!("a is resident"));
        cache.get_or_compute("c", outcome);
        let (_, a_hit) = cache.get_or_compute("a", || panic!("a must survive"));
        assert!(a_hit, "recently used entry survives eviction");
        let (_, b_hit) = cache.get_or_compute("b", outcome);
        assert!(!b_hit, "LRU victim was evicted");
    }

    #[test]
    fn startup_sweep_removes_orphaned_tmp_files() {
        let dir = std::env::temp_dir().join(format!("qsdnn_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A crashed writer's orphan and a valid spilled entry.
        std::fs::write(dir.join("deadbeef.json.tmp"), "{half a pla").unwrap();
        {
            let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
            cache.get_or_compute("valid", outcome);
        }
        let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
        assert!(
            !dir.join("deadbeef.json.tmp").exists(),
            "orphaned tmp file must be garbage-collected"
        );
        assert_eq!(cache.spilled_entries(), 1, "valid entry survives the sweep");
        let (_, loaded) = cache.get_or_compute("valid", || panic!("must load from disk"));
        assert!(loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_durable_write_keeps_no_tmp_file() {
        let dir = std::env::temp_dir().join(format!("qsdnn_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cafe.json");
        // A directory where the record goes: the rename fails.
        std::fs::create_dir_all(&path).unwrap();
        assert!(write_durably(&path, b"{}").is_err());
        assert!(!dir.join("cafe.json.tmp").exists(), "tmp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_tier_is_bounded_and_gcs_oldest_first() {
        let dir = std::env::temp_dir().join(format!("qsdnn_diskgc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir)
            .unwrap()
            .with_max_disk_entries(2);
        for key in ["a", "b", "c", "d"] {
            cache.get_or_compute(key, outcome);
        }
        assert_eq!(cache.spilled_entries(), 2, "disk bound enforced");
        let on_disk: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(on_disk.len(), 2);
        assert!(on_disk.contains(&"d.plan".to_string()), "newest survives");
        assert!(!on_disk.contains(&"a.plan".to_string()), "oldest GC'd");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every torn copy of a real outcome's record (each truncation
    /// length) and every single-bit flip of it is refused: the header
    /// holds the length, and FNV-1a-64 changes on any one changed byte.
    #[test]
    fn torn_and_bit_flipped_spill_records_are_refused() {
        let fresh = outcome();
        assert_eq!(fresh.best.curve.len(), 60, "a real search's curve");
        let mut record = fresh.to_spill().expect("encodable");
        assert_eq!(PortfolioOutcome::from_spill(&record), Some(fresh));
        for len in 0..record.len() {
            let torn = &record[..len];
            assert!(PortfolioOutcome::from_spill(torn).is_none(), "cut at {len}");
        }
        for bit in 0..record.len() * 8 {
            record[bit / 8] ^= 1 << (bit % 8);
            assert!(PortfolioOutcome::from_spill(&record).is_none(), "bit {bit}");
            record[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// A damaged record on disk never answers: the lookup is a miss, the
    /// file is deleted, the key leaves the index, the refusal is counted,
    /// and the recompute is the fresh outcome — through `peek` and
    /// through `get_or_compute` alike.
    #[test]
    fn a_damaged_spill_file_is_deleted_counted_and_recomputed() {
        let dir = std::env::temp_dir().join(format!("qsdnn_damaged_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = outcome();
        {
            let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
            cache.get_or_compute("other", || fresh.clone());
            cache.get_or_compute("k", || fresh.clone());
        }
        let path = dir.join("k.plan");
        let record = std::fs::read(&path).unwrap();
        let n = record.len();
        let mut damaged: Vec<Vec<u8>> = [0, 1, 23, 24, 25, n / 2, n - 1]
            .iter()
            .map(|&len| record[..len].to_vec())
            .collect();
        for (at, bit) in [
            (0, 0),
            (4, 1),
            (8, 2),
            (16, 3),
            (24, 4),
            (n / 2, 5),
            (n - 1, 7),
        ] {
            let mut flipped = record.clone();
            flipped[at] ^= 1 << bit;
            damaged.push(flipped);
        }
        for (i, bytes) in damaged.iter().enumerate() {
            // A fresh instance: nothing resident, both records indexed.
            let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
            assert_eq!(cache.spilled_entries(), 2, "sample {i}");
            std::fs::write(&path, bytes).unwrap();
            let refused = || {
                assert!(!path.exists(), "sample {i}: the damaged file is deleted");
                assert_eq!(cache.spilled_entries(), 1, "sample {i}: unindexed");
                assert_eq!(cache.spill_corrupt(), 1, "sample {i}: counted once");
            };
            if i % 2 == 0 {
                assert!(cache.peek("k").is_none(), "sample {i}: never answers");
                refused();
            }
            let (out, served) = cache.get_or_compute("k", || {
                refused();
                fresh.clone()
            });
            assert!(!served, "sample {i}: recomputed");
            assert_eq!(*out, fresh, "sample {i}");
            // The recompute is spilled again, whole.
            assert_eq!(cache.spilled_entries(), 2, "sample {i}");
            assert_eq!(std::fs::read(&path).unwrap(), record, "sample {i}");
            // One request answered (a peek miss counts nothing): a miss.
            let s = cache.stats();
            assert_eq!(s.hits + s.misses + s.coalesced + s.spill_loads, 1);
            assert_eq!(s.misses, 1, "sample {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record of the old JSON format is swept at open, not misread: its
    /// key recomputes.
    #[test]
    fn an_old_json_spill_file_is_deleted_at_open_and_recomputed() {
        let dir = std::env::temp_dir().join(format!("qsdnn_oldjson_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("scenarios")).unwrap();
        let fresh = outcome();
        let old = dir.join("0123456789abcdef.json");
        std::fs::write(&old, serde_json::to_string(&fresh).unwrap()).unwrap();
        let dump = dir.join("postmortem-1.dump");
        std::fs::write(&dump, "{}").unwrap();
        let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
        assert!(!old.exists(), "old-format record swept");
        assert!(
            dump.exists() && dir.join("scenarios").is_dir(),
            "others kept"
        );
        assert_eq!(cache.spilled_entries(), 0);
        let (out, served) = cache.get_or_compute("0123456789abcdef", || fresh.clone());
        assert!(!served, "the key recomputes");
        assert_eq!(*out, fresh);
        assert_eq!(cache.stats().spill_loads, 0);
        assert_eq!(cache.spill_corrupt(), 0, "swept, never read");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_stats_cover_every_shard_and_sum_to_totals() {
        let cache = PlanCache::<PortfolioOutcome>::new()
            .with_shards(4)
            .with_max_entries(64);
        for key in ["a", "b", "c", "d", "e", "f"] {
            cache.get_or_compute(key, outcome);
        }
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.capacity == 16));
        let stats = cache.stats();
        assert_eq!(stats.shards, 4);
        assert_eq!(shards.iter().map(|s| s.entries).sum::<u64>(), stats.entries);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), 6);
        assert!(
            shards.iter().filter(|s| s.entries > 0).count() >= 2,
            "keys spread over shards"
        );
    }

    /// Regression: shard selection once hashed only the key's first 8
    /// bytes, so zero-padded key families (shared long prefix) collapsed
    /// into one shard, silently shrinking capacity and re-serializing
    /// every lookup on one lock.
    #[test]
    fn shared_prefix_keys_spread_over_shards() {
        let cache = PlanCache::<PortfolioOutcome>::new()
            .with_shards(8)
            .with_max_entries(4096);
        for k in 0..32 {
            cache.get_or_compute(&format!("{k:016x}"), outcome);
        }
        let occupied = cache.shard_stats().iter().filter(|s| s.entries > 0).count();
        assert!(
            occupied >= 4,
            "32 zero-padded keys must spread over shards, occupied only {occupied}"
        );
    }

    #[test]
    fn peek_serves_memory_and_spill_without_computing() {
        let dir = std::env::temp_dir().join(format!("qsdnn_peek_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
            assert!(cache.peek("k").is_none(), "cold peek is a miss");
            cache.get_or_compute("k", outcome);
            let hit = cache.peek("k").expect("resident");
            assert_eq!(hit.best.best_assignment, outcome().best.best_assignment);
            assert_eq!(cache.stats().hits, 1, "peek hit is accounted");
        }
        // A fresh instance only has the spill tier; peek must load it.
        let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
        let loaded = cache.peek("k").expect("spilled");
        assert_eq!(loaded.best.best_assignment, outcome().best.best_assignment);
        assert_eq!(cache.stats().spill_loads, 1);
        // …and the entry is resident afterwards: the next peek is a hit.
        cache.peek("k").expect("now resident");
        assert_eq!(cache.stats().hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The protocol-v3 fast path's invalidation contract: a wire body
    /// attaches to the resident entry, is served back verbatim, dies
    /// with the entry on eviction, and does not resurrect through the
    /// spill tier.
    #[test]
    fn wire_body_lives_and_dies_with_the_entry() {
        let dir = std::env::temp_dir().join(format!("qsdnn_wirebody_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
            cache.get_or_compute("k", outcome);
            assert!(cache.wire_body("k").is_none(), "fresh entries start bare");
            let body = Arc::new(vec![0xB3u8, 1, 2, 3]);
            cache.attach_wire_body("k", Arc::clone(&body));
            let got = cache.wire_body("k").expect("attached body is served");
            assert_eq!(*got, *body);
            // The JSON body sits beside the v3 one; each framing is
            // handed its own, by `peek_with_body` as by `body`.
            assert!(cache.body("k", WireMode::Json).is_none());
            let json = Arc::new(b"{\"Plan\":{}}".to_vec());
            cache.attach_body("k", WireMode::Json, Arc::clone(&json));
            for (mode, want) in [(WireMode::Binary, &body), (WireMode::Json, &json)] {
                let (_, got) = cache.peek_with_body("k", mode).expect("resident");
                assert!(got.is_some_and(|got| Arc::ptr_eq(&got, want)), "{mode:?}");
                let got = cache.body("k", mode).expect("attached");
                assert!(Arc::ptr_eq(&got, want), "{mode:?}");
            }
            // Attaching to an absent key is a silent no-op (the entry may
            // have been evicted between hit and attach).
            cache.attach_wire_body("missing", Arc::clone(&body));
            assert!(cache.wire_body("missing").is_none());
        }
        // A fresh instance reloads the plan from spill — the wire body
        // must NOT survive the round trip (fresh residency, fresh body).
        let cache = PlanCache::<PortfolioOutcome>::with_spill_dir(&dir).unwrap();
        assert!(cache.peek("k").is_some(), "plan reloads from spill");
        assert!(
            cache.wire_body("k").is_none(),
            "wire bodies are never spilled"
        );
        assert!(cache.body("k", WireMode::Json).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Eviction drops the attached wire body along with its entry, and a
    /// recomputed residency starts bare again.
    #[test]
    fn wire_body_is_dropped_on_eviction() {
        let cache = PlanCache::<PortfolioOutcome>::new()
            .with_shards(1)
            .with_max_entries(2);
        cache.get_or_compute("aaaa000000000001", outcome);
        cache.attach_wire_body("aaaa000000000001", Arc::new(vec![1, 2, 3]));
        assert!(cache.wire_body("aaaa000000000001").is_some());
        cache.attach_body("aaaa000000000001", WireMode::Json, Arc::new(vec![4]));
        // Fill past capacity so the oldest entry (and its body) evicts.
        cache.get_or_compute("aaaa000000000002", outcome);
        cache.get_or_compute("aaaa000000000003", outcome);
        assert!(cache.peek("aaaa000000000001").is_none(), "entry evicted");
        assert!(
            cache.wire_body("aaaa000000000001").is_none(),
            "body evicted with it"
        );
        // Recompute: the new residency must not inherit the stale body.
        cache.get_or_compute("aaaa000000000001", outcome);
        assert!(cache.wire_body("aaaa000000000001").is_none());
        assert!(
            cache.body("aaaa000000000001", WireMode::Json).is_none(),
            "nor the stale JSON body"
        );
    }

    /// Regression: donor fetches on the transfer path must not inflate
    /// the request counters (the four buckets count answered requests
    /// only), and an in-flight slot must be distinguishable from a key
    /// that is gone from both tiers.
    #[test]
    fn quiet_peek_counts_nothing_and_pending_is_visible() {
        let cache = Arc::new(PlanCache::<PortfolioOutcome>::new());
        cache.get_or_compute("k", outcome);
        let before = cache.stats();
        assert!(cache.peek_quiet("k").is_some());
        assert!(cache.peek_quiet("missing").is_none());
        let after = cache.stats();
        assert_eq!(before.hits, after.hits, "quiet peeks are uncounted");
        assert_eq!(before.spill_loads, after.spill_loads);

        assert!(!cache.is_pending("k"), "ready slots are not pending");
        assert!(!cache.is_pending("missing"));
        // While a compute holds the slot, the key is pending and peek
        // reports a miss instead of waiting.
        let slow = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute("inflight", || {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    outcome()
                });
            })
        };
        while !cache.is_pending("inflight") {
            std::thread::yield_now();
        }
        assert!(cache.peek("inflight").is_none(), "peek never waits");
        slow.join().unwrap();
        assert!(!cache.is_pending("inflight"));
        assert!(cache.peek_quiet("inflight").is_some());
    }

    #[test]
    fn warm_keys_never_collide_with_cold_keys() {
        let lut = toy::fig1_lut();
        let p = Portfolio::paper_default(100, &[1]);
        let cold = plan_key(
            lut.fingerprint(),
            &Objective::Latency,
            p.fingerprint(),
            None,
        );
        let warm_a = warm_plan_key(
            lut.fingerprint(),
            &Objective::Latency,
            p.warmed().fingerprint(),
            "donor-a",
            None,
        );
        let warm_b = warm_plan_key(
            lut.fingerprint(),
            &Objective::Latency,
            p.warmed().fingerprint(),
            "donor-b",
            None,
        );
        assert_ne!(cold, warm_a, "cold and warm plans are separate artifacts");
        assert_ne!(warm_a, warm_b, "the donor is part of the warm identity");
        assert_ne!(
            p.fingerprint(),
            p.warmed().fingerprint(),
            "warm-start mode changes the portfolio fingerprint"
        );
    }

    #[test]
    fn plan_keys_separate_scenarios() {
        let lut = toy::fig1_lut();
        let p = Portfolio::paper_default(100, &[1]);
        let base = plan_key(
            lut.fingerprint(),
            &Objective::Latency,
            p.fingerprint(),
            None,
        );
        assert_eq!(base.len(), 16);
        assert_eq!(
            base,
            plan_key(
                lut.fingerprint(),
                &Objective::Latency,
                p.fingerprint(),
                None
            )
        );
        assert_ne!(
            base,
            plan_key(lut.fingerprint(), &Objective::Energy, p.fingerprint(), None)
        );
        assert_ne!(
            base,
            plan_key(
                toy::small_chain_lut().fingerprint(),
                &Objective::Latency,
                p.fingerprint(),
                None
            )
        );
        assert_ne!(
            base,
            plan_key(
                lut.fingerprint(),
                &Objective::Latency,
                Portfolio::paper_default(101, &[1]).fingerprint(),
                None
            )
        );
    }

    #[test]
    fn platform_component_is_absent_by_default_and_separates_targets() {
        let lut = toy::fig1_lut();
        let p = Portfolio::paper_default(100, &[1]);
        let legacy = plan_key(
            lut.fingerprint(),
            &Objective::Latency,
            p.fingerprint(),
            None,
        );
        // `None` must hash exactly the bytes `plan_key` always hashed:
        // default-platform requests keep their historical addresses.
        let historical = |tag: &str, donor: Option<&str>| {
            let mut h = Fnv64::new();
            h.write_str(tag);
            h.write_u64(lut.fingerprint());
            Objective::Latency.fingerprint_into(&mut h);
            h.write_u64(p.fingerprint());
            if let Some(donor) = donor {
                h.write_str(donor);
            }
            format!("{:016x}", h.finish())
        };
        assert_eq!(legacy, historical("qsdnn-plan-v1", None));
        let pinned = plan_key(
            lut.fingerprint(),
            &Objective::Latency,
            p.fingerprint(),
            Some(("sim-gpu-heavy", 0xABCD)),
        );
        assert_ne!(legacy, pinned);
        assert_ne!(
            pinned,
            plan_key(
                lut.fingerprint(),
                &Objective::Latency,
                p.fingerprint(),
                Some(("sim-gpu-heavy", 0xABCE)),
            ),
            "the spec fingerprint is part of the plan identity"
        );

        let warm_legacy = warm_plan_key(
            lut.fingerprint(),
            &Objective::Latency,
            p.fingerprint(),
            "donor",
            None,
        );
        assert_eq!(warm_legacy, historical("qsdnn-plan-warm-v1", Some("donor")));
        assert_ne!(
            warm_legacy,
            warm_plan_key(
                lut.fingerprint(),
                &Objective::Latency,
                p.fingerprint(),
                "donor",
                Some(("sim-gpu-heavy", 0xABCD)),
            )
        );
    }
}
