//! The scenario transfer index: descriptor → plan-cache key.
//!
//! [`PlanCache`](crate::PlanCache) answers *exact* repeats; this index
//! answers *similar* ones. Every successfully computed plan registers its
//! [`ScenarioDescriptor`] here; on a plan-cache miss the server asks the
//! index for the K nearest cached scenarios and warm-starts the search
//! from the best usable donor (see `qsdnn::QTable::transfer_from`).
//!
//! The index is deliberately loose about staleness — it stores keys, not
//! values, so an entry can outlive its plan (evicted from memory *and*
//! garbage-collected from the spill tier). Callers therefore treat every
//! entry as a hint: fetch the donor through the plan cache, and on failure
//! call [`ScenarioIndex::remove`] so the index converges back onto what is
//! actually fetchable. That keeps the coupling with the cache's eviction
//! machinery one-directional and lock-free between the two structures.
//!
//! **Bounded:** at most `max_entries` scenarios, FIFO by insertion (a
//! re-inserted scenario refreshes its position). **Durable:** with a
//! directory (the server nests `scenarios/` inside its spill dir), every
//! entry persists as `<base_key>.json` and the constructor reloads the
//! surviving files, so a restarted server keeps warm-starting from its
//! previous life's scenarios.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use qsdnn::engine::ScenarioDescriptor;
use serde::{Deserialize, Serialize};

use crate::cache::write_durably;
use crate::protocol::WarmStartInfo;

/// Default bound on indexed scenarios. Distance lookups scan linearly, so
/// the bound also caps miss-path latency (~1k edit-distance evaluations of
/// a few hundred layers each stays far below one search episode).
pub const DEFAULT_INDEX_ENTRIES: usize = 1024;

/// How many nearest donors a lookup hands back for the caller to try in
/// order (a donor can be stale or map to nothing).
pub const DEFAULT_DONOR_CANDIDATES: usize = 4;

/// Donors farther than this are never offered: past a few whole-unit
/// mismatches (network + objective, say) a transferred table is noise.
const MAX_DONOR_DISTANCE: f64 = 6.0;

/// One indexed scenario.
///
/// `base_key` is the identity — the cold plan key of *(LUT, objective,
/// portfolio spec)* — because two scenarios can share a descriptor while
/// differing in search spec (episode budget, seeds), and each must keep
/// its own plan. `plan_key` is where the scenario's plan actually lives:
/// equal to `base_key` after a cold search, a warm key after a
/// warm-started one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEntry {
    /// The scenario's structural descriptor (the distance key).
    pub descriptor: ScenarioDescriptor,
    /// Cold plan key of the scenario — the entry's identity.
    pub base_key: String,
    /// Plan-cache key its plan lives under (cold or warm).
    pub plan_key: String,
    /// Provenance carried by the indexed plan, when it was itself
    /// warm-started — echoed on cached repeats of the same scenario.
    #[serde(default)]
    pub warm_start: Option<WarmStartInfo>,
}

struct IndexState {
    /// `base_key` → `(insertion sequence, entry)`. `Arc`'d so distance
    /// scans can snapshot the set cheaply and score outside the lock;
    /// the sequence drives FIFO eviction and recency tie-breaks.
    map: HashMap<String, (u64, Arc<ScenarioEntry>)>,
    /// FIFO queue of `(sequence, base_key)`; a pair whose sequence no
    /// longer matches the map (the key was re-inserted) is skipped on
    /// eviction instead of evicting the refreshed entry.
    order: VecDeque<(u64, String)>,
    /// Monotonic insertion counter.
    seq: u64,
}

impl IndexState {
    fn empty() -> Self {
        IndexState {
            map: HashMap::new(),
            order: VecDeque::new(),
            seq: 0,
        }
    }
}

/// Concurrent, bounded, optionally durable map from scenario descriptors
/// to plan-cache keys. See the module docs for the staleness contract.
pub struct ScenarioIndex {
    /// Read-mostly: every `auto` plan hit tests presence under the shared
    /// lock; only fresh computes and stale-entry drops take it exclusively.
    state: RwLock<IndexState>,
    dir: Option<PathBuf>,
    max_entries: usize,
}

impl ScenarioIndex {
    /// In-memory index bounded to `max_entries` (min 1).
    pub fn new(max_entries: usize) -> Self {
        ScenarioIndex {
            state: RwLock::new(IndexState::empty()),
            dir: None,
            max_entries: max_entries.max(1),
        }
    }

    /// Durable index: entries persist as `<dir>/<base_key>.json` and
    /// the constructor reloads every parseable file (oldest first by
    /// modification time, trimmed to the bound). Unparseable files — a
    /// torn write, an old format — and orphaned `.json.tmp` files are
    /// deleted, not fatal.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or listed.
    pub fn with_dir(dir: impl Into<PathBuf>, max_entries: usize) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut files: Vec<(PathBuf, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.to_str().is_some_and(|p| p.ends_with(".json.tmp")) {
                // Orphan from a `persist` that died between write and
                // rename; it never became an entry.
                let _ = std::fs::remove_file(&path);
            } else if path.extension().is_some_and(|e| e == "json") {
                let mtime = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::UNIX_EPOCH);
                files.push((path, mtime));
            }
        }
        files.sort_by_key(|f| f.1);
        let index = ScenarioIndex {
            state: RwLock::new(IndexState::empty()),
            dir: Some(dir),
            max_entries: max_entries.max(1),
        };
        for (path, _) in files {
            let parsed = std::fs::read_to_string(&path)
                .ok()
                .and_then(|json| serde_json::from_str::<ScenarioEntry>(&json).ok());
            match parsed {
                // Loaded entries are NOT re-persisted: rewriting them
                // would refresh every file's mtime and erase the very
                // age ordering the next reload sorts by.
                Some(entry) => index.insert_entry(entry, false),
                None => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(index)
    }

    /// Shared access. Poison is recovered, not propagated: every entry is
    /// a hint the plan cache re-validates, so one panicked writer must not
    /// become a panic on every later `auto` request.
    fn read(&self) -> RwLockReadGuard<'_, IndexState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access, recovering poison like [`ScenarioIndex::read`].
    fn write(&self) -> RwLockWriteGuard<'_, IndexState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn path_for(&self, base_key: &str) -> Option<PathBuf> {
        // Base keys are 16-hex-digit fingerprints, safe as file names.
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{base_key}.json")))
    }

    fn persist(&self, entry: &ScenarioEntry) {
        let Some(path) = self.path_for(&entry.base_key) else {
            return;
        };
        // Best effort: a lost index file only costs a future warm start.
        if let Ok(json) = serde_json::to_string(entry) {
            let _ = write_durably(&path, json.as_bytes());
        }
    }

    fn unlink(&self, base_key: &str) {
        if let Some(path) = self.path_for(base_key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Registers a scenario's plan. A scenario already present (by
    /// `base_key`) is replaced and refreshed to the back of the eviction
    /// queue; past the bound the oldest entry (and its file) goes.
    pub fn insert(
        &self,
        descriptor: ScenarioDescriptor,
        base_key: String,
        plan_key: String,
        warm_start: Option<WarmStartInfo>,
    ) {
        self.insert_entry(
            ScenarioEntry {
                descriptor,
                base_key,
                plan_key,
                warm_start,
            },
            true,
        );
    }

    fn insert_entry(&self, entry: ScenarioEntry, persist: bool) {
        let entry = Arc::new(entry);
        let evicted: Vec<String> = {
            let mut state = self.write();
            state.seq += 1;
            let seq = state.seq;
            state
                .map
                .insert(entry.base_key.clone(), (seq, Arc::clone(&entry)));
            state.order.push_back((seq, entry.base_key.clone()));
            // Persisting inside the critical section keeps the disk file
            // in lockstep with the in-memory winner when two requests
            // race on one scenario; inserts only happen on fresh
            // computes, so the hot paths (lookup/nearest) never pay for
            // this I/O.
            if persist {
                self.persist(&entry);
            }
            let mut evicted = Vec::new();
            while state.map.len() > self.max_entries {
                let Some((seq, key)) = state.order.pop_front() else {
                    break;
                };
                match state.map.get(&key) {
                    // A stale queue pair: the key was re-inserted later
                    // and its refreshed entry must survive.
                    Some((current, _)) if *current != seq => continue,
                    _ => {
                        state.map.remove(&key);
                        evicted.push(key);
                    }
                }
            }
            evicted
        };
        for key in evicted {
            self.unlink(&key);
        }
    }

    /// Drops every entry whose plan lives under `plan_key` — called when
    /// a donor's plan turned out to be gone from both cache tiers.
    pub fn remove(&self, plan_key: &str) {
        let dropped: Vec<String> = {
            let mut state = self.write();
            let dropped: Vec<String> = state
                .map
                .values()
                .filter(|(_, e)| e.plan_key == plan_key)
                .map(|(_, e)| e.base_key.clone())
                .collect();
            for key in &dropped {
                state.map.remove(key);
            }
            dropped
        };
        for key in dropped {
            self.unlink(&key);
        }
    }

    /// The entry for exactly this scenario (`base_key` identity) — how a
    /// repeated warm scenario finds its own cached plan, which lives under
    /// a warm key the exact-match cache lookup cannot derive. Clones the
    /// entry; a presence test wants [`ScenarioIndex::contains`].
    pub fn lookup(&self, base_key: &str) -> Option<ScenarioEntry> {
        self.read().map.get(base_key).map(|(_, e)| (**e).clone())
    }

    /// Whether this scenario (`base_key` identity) is registered — the
    /// one index question a plan hit asks, answered under the shared lock
    /// without cloning the entry's descriptor.
    pub fn contains(&self, base_key: &str) -> bool {
        self.read().map.contains_key(base_key)
    }

    /// The up-to-`k` nearest donor scenarios to `probe` by
    /// [`ScenarioDescriptor::distance`], ascending, excluding the probe's
    /// own scenario (`base_key`) and anything past the transferability
    /// cutoff. An identical descriptor under a *different* base key — the
    /// same network searched with another episode budget, say — is a
    /// perfect (distance-0) donor. Ties break to the more recently
    /// inserted entry, so a batch sweep chains each step off the last.
    pub fn nearest(
        &self,
        probe: &ScenarioDescriptor,
        base_key: &str,
        k: usize,
    ) -> Vec<(ScenarioEntry, f64)> {
        // Snapshot under the lock (cheap `Arc` clones), score outside:
        // the O(entries x layers^2) edit-distance scan must not serialize
        // every connection handler on the index mutex.
        let snapshot: Vec<(u64, Arc<ScenarioEntry>)> = {
            self.read()
                .map
                .values()
                .filter(|(_, e)| e.base_key != base_key)
                .map(|(seq, e)| (*seq, Arc::clone(e)))
                .collect()
        };
        let mut scored: Vec<(u64, Arc<ScenarioEntry>, f64)> = snapshot
            .into_iter()
            .map(|(seq, e)| {
                let d = probe.distance(&e.descriptor);
                (seq, e, d)
            })
            .filter(|(_, _, d)| d.is_finite() && *d <= MAX_DONOR_DISTANCE)
            .collect();
        scored.sort_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)));
        scored
            .into_iter()
            .take(k)
            .map(|(_, e, d)| ((*e).clone(), d))
            .collect()
    }

    /// Scenarios currently indexed.
    pub fn len(&self) -> usize {
        self.read().map.len()
    }

    /// Whether the index holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn::engine::{toy, Objective};

    fn desc(batch: usize) -> ScenarioDescriptor {
        ScenarioDescriptor::of(&toy::small_chain_lut())
            .with_batch(batch)
            .with_objective(&Objective::Latency)
    }

    fn other_desc() -> ScenarioDescriptor {
        ScenarioDescriptor::of(&toy::fig1_lut())
            .with_batch(1)
            .with_objective(&Objective::Latency)
    }

    /// Shorthand: base key and plan key coincide (a cold entry).
    fn put(index: &ScenarioIndex, d: ScenarioDescriptor, key: &str) {
        index.insert(d, key.to_string(), key.to_string(), None);
    }

    #[test]
    fn nearest_ranks_batch_neighbors_first() {
        let index = ScenarioIndex::new(16);
        put(&index, other_desc(), "other");
        put(&index, desc(1), "b1");
        put(&index, desc(8), "b8");
        let near = index.nearest(&desc(2), "probe", 3);
        assert_eq!(near.len(), 3);
        assert_eq!(near[0].0.plan_key, "b1", "closest batch first");
        assert_eq!(near[1].0.plan_key, "b8");
        assert!(near[0].1 < near[1].1 && near[1].1 < near[2].1);
        // A scenario is never its own donor…
        let self_near = index.nearest(&desc(1), "b1", 3);
        assert!(self_near.iter().all(|(e, _)| e.base_key != "b1"));
        // …but an identical descriptor under a different base key (same
        // scenario, different search spec) is a perfect distance-0 donor.
        let twin = index.nearest(&desc(8), "not-b8", 1);
        assert_eq!(twin[0].0.plan_key, "b8");
        assert_eq!(twin[0].1, 0.0);
    }

    #[test]
    fn lookup_is_keyed_by_base_key_and_replaces() {
        let index = ScenarioIndex::new(16);
        put(&index, desc(1), "b1");
        assert_eq!(index.lookup("b1").expect("present").plan_key, "b1");
        assert!(index.lookup("b2").is_none());
        // Re-registering the same scenario (e.g. after a warm start moved
        // its plan under a warm key) replaces, never duplicates.
        index.insert(desc(1), "b1".into(), "b1-warm".into(), None);
        assert_eq!(index.len(), 1);
        assert_eq!(index.lookup("b1").expect("present").plan_key, "b1-warm");
        // Same descriptor, different search spec: a separate entry.
        index.insert(desc(1), "b1-eps2".into(), "b1-eps2".into(), None);
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn bound_evicts_oldest_first() {
        let index = ScenarioIndex::new(2);
        put(&index, desc(1), "b1");
        put(&index, desc(2), "b2");
        put(&index, desc(4), "b4");
        assert_eq!(index.len(), 2);
        assert!(index.lookup("b1").is_none(), "oldest evicted");
        assert!(index.lookup("b4").is_some());
    }

    #[test]
    fn remove_drops_stale_plan_keys() {
        let index = ScenarioIndex::new(16);
        index.insert(desc(1), "s1".into(), "gone".into(), None);
        index.insert(desc(2), "s2".into(), "kept".into(), None);
        index.remove("gone");
        assert_eq!(index.len(), 1);
        assert!(index
            .nearest(&desc(4), "probe", 8)
            .iter()
            .all(|(e, _)| e.plan_key == "kept"));
    }

    #[test]
    fn durable_index_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!("qsdnn_scidx_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let index = ScenarioIndex::with_dir(&dir, 16).unwrap();
            put(&index, desc(1), "b1");
            put(&index, desc(2), "b2");
        }
        // Plus one corrupt file that must be swept, not crash the reload.
        std::fs::write(dir.join("deadbeef00000000.json"), "{not json").unwrap();
        let reloaded = ScenarioIndex::with_dir(&dir, 16).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.lookup("b1").expect("reloaded").plan_key, "b1");
        assert!(
            !dir.join("deadbeef00000000.json").exists(),
            "corrupt entries are deleted on reload"
        );
        // Eviction unlinks files, so a re-open honors the bound.
        let bounded = ScenarioIndex::with_dir(&dir, 1).unwrap();
        assert_eq!(bounded.len(), 1);
        drop(bounded);
        let reopened = ScenarioIndex::with_dir(&dir, 16).unwrap();
        assert_eq!(reopened.len(), 1, "evicted entries stay gone on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_tmp_files_are_swept_on_open() {
        let dir = std::env::temp_dir().join(format!("qsdnn_scidx_tmp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let index = ScenarioIndex::with_dir(&dir, 16).unwrap();
            put(&index, desc(1), "b1");
        }
        // A writer that died between `write` and `rename` leaves this.
        let orphan = dir.join("cafef00d00000000.json.tmp");
        std::fs::write(&orphan, "{\"half\":").unwrap();
        let reopened = ScenarioIndex::with_dir(&dir, 16).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(
            !orphan.exists(),
            "orphaned .json.tmp files are deleted on open"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hopeless_donors_are_never_offered() {
        let index = ScenarioIndex::new(16);
        let mut far = other_desc();
        far.platform = "saturn-v".into();
        far.mode = "fpga".into();
        far.objective = "carbon".into();
        // network+platform+mode+objective mismatches: 1+2+2+4 > cutoff.
        put(&index, far, "far");
        assert!(index.nearest(&desc(1), "probe", 4).is_empty());
    }
}
