//! The plan-compilation TCP server.
//!
//! [`ServiceState`] is the service proper: `Request → Response`, with
//! plans and profiles content-addressed in [`PlanCache`]s so concurrent
//! identical requests coalesce into one search regardless of which
//! connection they arrive on, and all search work fanned onto the shared
//! [`WorkerPool`]. [`PlanServer`] puts it behind a TCP listener through
//! one of two connection layers ([`IoModel`]) that both drive the same
//! socket-free [`crate::conn::Connection`] and run every request as a
//! [`ServiceState::run_job`] on one bounded dispatcher pool.
//!
//! Dispatchers are deliberately a **separate** pool from the search
//! workers: a request job blocks on its portfolio members, which are
//! themselves search-pool jobs, so enough concurrent requests sharing one
//! pool would occupy every worker with blocked parents and deadlock it
//! (the classic nested-pool trap).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qsdnn::engine::{
    CostLut, Fnv64, Objective, PlatformRegistry, PlatformSpec, Profiler, ScenarioDescriptor,
};
use qsdnn::nn::zoo;
use qsdnn::{Portfolio, PortfolioOutcome, QTable, TransferMapping};

use qsdnn_obs::{EventKind, FlightRecorder};

use crate::cache::{plan_key_on, warm_plan_key_on, CacheValue, EvictionPolicy, PlanCache};
use crate::conn::{json_line, Job, Reply};
use crate::exposition::MetricsExposition;
use crate::metrics::{
    families_from_snapshot, kind_index, request_kind, trace_requested, RequestSpan, Stage, KINDS,
    TASK_KIND_DISPATCH_JOB,
};
use crate::pool::{PoolRecorder, WorkerPool};
use crate::portfolio::{run_portfolio_parallel, run_portfolio_parallel_with, WarmStart};
use crate::protocol::{
    default_episodes, encode_binary_frame, encode_response, EventMsg, EventsResponse, ExemplarMsg,
    MetricsResponse, PlanRequest, PlanResponse, PlatformInfo, PlatformsResponse, PostmortemDump,
    ProfileRequest, ProfileResponse, Request, Response, SearchRequest, StageTiming, StatsResponse,
    TaskMsg, TasksResponse, TransferMode, WarmStartInfo, WireMode, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use crate::transfer::{ScenarioEntry, ScenarioIndex, DEFAULT_DONOR_CANDIDATES};
use crate::ServeError;

/// How long shutdown waits for in-flight requests to finish and queued
/// replies to flush before abandoning the remaining connections. Keeps a
/// never-reading client from wedging [`PlanServer::shutdown`] on either
/// connection layer.
pub(crate) const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// First back-off after a transient `accept()` failure (EMFILE & friends).
/// Doubles per consecutive failure up to [`ACCEPT_BACKOFF_MAX`], resets on
/// the next successful accept. Without this, an fd-exhausted acceptor spins
/// at 100% CPU retrying the same doomed `accept()`.
pub(crate) const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);

/// Ceiling on the acceptor back-off; also bounds the extra shutdown
/// latency a backed-off blocking acceptor can add.
pub(crate) const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Cache id carried in cache flight-recorder events (`a` payload).
pub(crate) const CACHE_ID_PLAN: u64 = 0;
/// Cache id of the profile cache in flight-recorder events.
pub(crate) const CACHE_ID_PROFILE: u64 = 1;
/// Pool id carried in `PoolSaturated` events (`a` payload).
pub(crate) const POOL_ID_SEARCH: u64 = 0;
/// Pool id of the dispatcher pool in `PoolSaturated` events.
const POOL_ID_DISPATCH: u64 = 1;

/// Which driver moves bytes between sockets and the per-connection
/// protocol state machine. The wire contract, the dispatcher pool and the
/// search [`WorkerPool`] are the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// The portable blocking pump: a reader and a writer thread per
    /// connection. Fine for dozens of clients; threads scale
    /// O(connections).
    Threads,
    /// A single epoll readiness loop owns every socket (Linux only).
    /// Threads scale O(workers + dispatchers), so thousands of idle-ish
    /// connections cost one loop.
    Epoll,
}

impl IoModel {
    /// Stable lowercase CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            IoModel::Threads => "threads",
            IoModel::Epoll => "epoll",
        }
    }

    /// The layer for this build target: `epoll` on Linux, `threads`
    /// elsewhere. No workload prefers the pump where epoll exists, so the
    /// target decides and nothing at run time overrides it.
    pub fn platform_default() -> IoModel {
        if cfg!(target_os = "linux") {
            IoModel::Epoll
        } else {
            IoModel::Threads
        }
    }
}

impl std::fmt::Display for IoModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Default per-connection cap on tagged requests in flight. Matches
/// [`crate::PlanClient`]'s default submission window so a defaulted client
/// never saturates the cap (which would stall the server's reader and,
/// with both TCP buffers full, deadlock a client that writes without
/// reading).
pub const DEFAULT_MAX_IN_FLIGHT: usize = 32;

/// Default slow-request threshold: a request whose end-to-end span
/// exceeds this emits one structured `slow_request` warn event with its
/// per-stage breakdown. `slow_ms: 0` disables the slow log.
pub const DEFAULT_SLOW_MS: u64 = 1000;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Search worker threads (0 = one per core, clamped to [2, 32]).
    pub threads: usize,
    /// Optional plan spill directory (content-addressed JSON files).
    pub spill_dir: Option<std::path::PathBuf>,
    /// Profiling repeats used when a request passes `repeats == 0`.
    pub profile_repeats: usize,
    /// Default QS-DNN seeds when a request passes no seeds.
    pub default_seeds: Vec<u64>,
    /// Plan/profile cache shards (0 = cache default).
    pub cache_shards: usize,
    /// Eviction policy for both the plan and profile caches.
    pub eviction: EvictionPolicy,
    /// Total resident entries for *each* of the plan and profile caches
    /// (0 = cache default).
    pub cache_max_entries: usize,
    /// Per-connection cap on tagged (v2) requests in flight
    /// (0 = [`DEFAULT_MAX_IN_FLIGHT`]).
    pub max_in_flight: usize,
    /// Server-wide scenario-transfer policy. `Off` disables the transfer
    /// index entirely (requests cannot opt back in); `Auto` honors each
    /// request's own `transfer` field.
    pub transfer: TransferMode,
    /// Bound on the scenario-transfer index
    /// (0 = [`crate::transfer::DEFAULT_INDEX_ENTRIES`]).
    pub index_entries: usize,
    /// Connection layer ([`IoModel::platform_default`]: `epoll` on Linux,
    /// `threads` elsewhere). Settable so a Linux test can start the
    /// portable pump; deployments leave it alone.
    pub io: IoModel,
    /// Dispatcher threads (0 = one per search worker, at least 4).
    /// Dispatchers run whole requests — blocking on cache single-flight
    /// waits and portfolio fan-in — and are deliberately a *separate*
    /// pool from the search workers (the nested-pool trap).
    pub dispatchers: usize,
    /// Optional Prometheus text-exposition endpoint: `Some(addr)` binds a
    /// tiny HTTP listener serving `GET /metrics` (port 0 picks an
    /// ephemeral port, see [`PlanServer::metrics_addr`]).
    pub metrics_addr: Option<String>,
    /// Slow-request threshold in milliseconds
    /// ([`DEFAULT_SLOW_MS`] by default; 0 disables the slow log).
    pub slow_ms: u64,
    /// Whether per-request instrumentation (spans, histograms, gauges)
    /// is recorded at all. On by default; off reduces the hot path to one
    /// branch per stage, for overhead benchmarks.
    pub instrument: bool,
    /// Whether the flight recorder journals events and maintains the live
    /// task table. Always on by default — it exists to explain incidents
    /// nobody predicted; off exists for overhead benchmarks only.
    pub recorder: bool,
    /// Metrics registry for this server's instruments. `None` gives the
    /// server a private registry (the default — concurrent servers in one
    /// process never mix counters); inject one to aggregate or inspect.
    pub registry: Option<Arc<qsdnn_obs::Registry>>,
    /// Default platform for requests that do not name one. Empty keeps the
    /// registry default (`sim-tx2`, the historical behavior); otherwise it
    /// must be a registered name.
    pub platform: String,
    /// Directory of extra platform spec files (`*.json`) merged into the
    /// registry at startup. A malformed or duplicate spec fails startup
    /// with an error naming the offending file.
    pub platform_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            spill_dir: None,
            profile_repeats: 10,
            default_seeds: vec![0x5EED, 0x5EED + 1, 0x5EED + 2],
            cache_shards: 0,
            eviction: EvictionPolicy::Lru,
            cache_max_entries: 0,
            max_in_flight: 0,
            transfer: TransferMode::Auto,
            index_entries: 0,
            io: IoModel::platform_default(),
            dispatchers: 0,
            metrics_addr: None,
            slow_ms: DEFAULT_SLOW_MS,
            instrument: true,
            recorder: true,
            registry: None,
            platform: String::new(),
            platform_dir: None,
        }
    }
}

impl ServerConfig {
    /// Applies the config's shard/eviction/bound knobs to a cache.
    fn configure_cache<T: CacheValue>(&self, mut cache: PlanCache<T>) -> PlanCache<T> {
        cache = cache.with_eviction(self.eviction);
        if self.cache_max_entries > 0 {
            cache = cache.with_max_entries(self.cache_max_entries);
        }
        if self.cache_shards > 0 {
            cache = cache.with_shards(self.cache_shards);
        }
        cache
    }

    /// The effective per-connection in-flight cap (always ≥ 1).
    pub(crate) fn in_flight_cap(&self) -> usize {
        if self.max_in_flight == 0 {
            DEFAULT_MAX_IN_FLIGHT
        } else {
            self.max_in_flight
        }
    }

    /// The effective dispatcher-pool size, given the search pool.
    fn dispatcher_count(&self, workers: usize) -> usize {
        if self.dispatchers == 0 {
            workers.max(4)
        } else {
            self.dispatchers
        }
    }
}

pub(crate) struct ServiceState {
    pub(crate) pool: WorkerPool,
    /// Spans, histograms and gauges for this server (its own registry).
    pub(crate) metrics: crate::metrics::ServeMetrics,
    plans: PlanCache<qsdnn::PortfolioOutcome>,
    profiles: PlanCache<CostLut>,
    /// Scenario-transfer index, maintained alongside plan-cache inserts
    /// and consulted on plan-cache misses (unless transfer is off).
    index: ScenarioIndex,
    /// Every platform this server can profile and compile for: the
    /// built-ins plus any specs loaded from `config.platform_dir`.
    platforms: PlatformRegistry,
    pub(crate) config: ServerConfig,
    started: Instant,
    requests: AtomicU64,
    plans_served: AtomicU64,
    /// Plan requests answered via scenario transfer (fresh or cached warm).
    transfer_hits: AtomicU64,
    /// Fresh warm-started portfolio searches executed.
    warm_starts: AtomicU64,
    /// `(sum, count)` of donor distances over transfer hits.
    donor_distance: Mutex<(f64, u64)>,
    /// Tagged (v2) requests dispatched.
    pipelined: AtomicU64,
    /// Highest per-connection in-flight depth observed.
    in_flight_peak: AtomicU64,
    /// Transient `accept()` failures; each one backs the acceptor off.
    pub(crate) accept_errors: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
    /// Request-level memo for the zoo-plan hot path: a cheap fingerprint
    /// of the request parameters → the derived plan key plus the response
    /// scalars no cache entry carries. A repeat scenario skips the
    /// per-request LUT clone, re-scalarization and full-LUT fingerprint
    /// and goes straight to the plan-cache peek; a memo hit whose plan
    /// was evicted falls back to the full path, which re-primes it.
    hot_plans: Mutex<HashMap<u64, HotPlan>>,
}

/// What a hot-path plan hit needs beyond the cached [`PortfolioOutcome`].
/// Every field is a pure function of the memo key's inputs (the profiled
/// LUT is deterministic in the request parameters), so entries never go
/// stale — only the plan cache's residency is checked per hit.
#[derive(Clone)]
struct HotPlan {
    plan_key: String,
    network: String,
    vanilla_cost_ms: f64,
}

/// Bound on the hot-plan memo: at the cap the table is flushed wholesale
/// (no LRU bookkeeping on the hot path) and re-learns the live working
/// set in one round of full-path requests.
const HOT_PLAN_MEMO_CAP: usize = 4096;

impl ServiceState {
    pub(crate) fn new(config: ServerConfig) -> Result<Arc<ServiceState>, ServeError> {
        // The recorder exists before everything it observes: caches, pool
        // and metrics all take their handle at construction.
        let recorder = Arc::new(FlightRecorder::new(config.recorder));
        let plans = config
            .configure_cache(match &config.spill_dir {
                Some(dir) => PlanCache::with_spill_dir(dir)?,
                None => PlanCache::new(),
            })
            .with_recorder(Arc::clone(&recorder), CACHE_ID_PLAN);
        let profiles = config
            .configure_cache(PlanCache::new())
            .with_recorder(Arc::clone(&recorder), CACHE_ID_PROFILE);
        let index_entries = if config.index_entries == 0 {
            crate::transfer::DEFAULT_INDEX_ENTRIES
        } else {
            config.index_entries
        };
        // The index nests inside the spill dir so scenario knowledge has
        // the same lifetime as the plans it points at. A transfer-disabled
        // server never consults or populates it, so it skips the disk
        // reload entirely (any `scenarios/` dir from a previous
        // transfer-enabled life is left untouched for the next one).
        let index = match &config.spill_dir {
            Some(dir) if config.transfer == TransferMode::Auto => {
                ScenarioIndex::with_dir(dir.join("scenarios"), index_entries)?
            }
            _ => ScenarioIndex::new(index_entries),
        };
        // The registry is fixed at startup: a bad spec file or an unknown
        // default platform is a configuration error the operator must see,
        // not something to paper over at request time.
        let mut platforms = PlatformRegistry::builtin();
        if let Some(dir) = &config.platform_dir {
            platforms
                .load_dir(dir)
                .map_err(|e| ServeError::Config(e.to_string()))?;
        }
        if !config.platform.is_empty() {
            platforms
                .set_default(&config.platform)
                .map_err(|e| ServeError::Config(e.to_string()))?;
        }
        // Instruments exist before the pool so the search workers can
        // carry the pool gauges from their first job.
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(qsdnn_obs::Registry::new()));
        let metrics = crate::metrics::ServeMetrics::new(
            config.instrument,
            config.slow_ms,
            registry,
            Arc::clone(&recorder),
        );
        let threads = if config.threads == 0 {
            // Mirrors `WorkerPool::with_default_size`.
            std::thread::available_parallelism()
                .map_or(4, usize::from)
                .clamp(2, 32)
        } else {
            config.threads
        };
        let pool = WorkerPool::named_observed(
            "qsdnn-worker",
            threads,
            config.instrument.then(|| metrics.search_pool.clone()),
            recorder.enabled().then(|| PoolRecorder {
                recorder: Arc::clone(&recorder),
                task_kind: crate::metrics::TASK_KIND_SEARCH_JOB,
                pool_id: POOL_ID_SEARCH,
                saturation_threshold: (threads * 2) as i64,
            }),
        );
        Ok(Arc::new(ServiceState {
            pool,
            metrics,
            plans,
            profiles,
            index,
            platforms,
            config,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            plans_served: AtomicU64::new(0),
            transfer_hits: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            donor_distance: Mutex::new((0.0, 0)),
            pipelined: AtomicU64::new(0),
            in_flight_peak: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            hot_plans: Mutex::new(HashMap::new()),
        }))
    }

    fn episodes_for(&self, requested: usize, layers: usize) -> usize {
        if requested == 0 {
            default_episodes(layers)
        } else {
            requested
        }
    }

    fn seeds_for(&self, requested: &[u64]) -> Vec<u64> {
        if requested.is_empty() {
            self.config.default_seeds.clone()
        } else {
            requested.to_vec()
        }
    }

    /// Resolves a request's `platform` field against the registry.
    ///
    /// The returned flag says whether the request *engaged* a non-default
    /// target: only engaged requests get a platform component in their
    /// cache keys and scenario descriptors, so requests resolving to the
    /// registry default (`sim-tx2`) — whether by naming it or by omission
    /// — keep their historical, pre-registry identities. The flag keys off
    /// [`PlatformRegistry::DEFAULT`], not the server's configured default:
    /// a server whose default *is* another platform must address its plans
    /// under that platform, not under sim-tx2's addresses.
    fn platform_for(&self, requested: &str) -> Result<(&PlatformSpec, bool), ServeError> {
        let spec = self
            .platforms
            .resolve(requested)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        Ok((spec, spec.name != PlatformRegistry::DEFAULT))
    }

    /// Profiles a zoo network, content-addressed on the request parameters
    /// (the analytical platform is deterministic, so equal parameters give
    /// equal LUTs).
    fn profile(&self, req: &ProfileRequest) -> Result<Arc<CostLut>, ServeError> {
        self.task_stage(Stage::Profile);
        if req.batch == 0 {
            return Err(ServeError::BadRequest("batch must be >= 1".into()));
        }
        let (spec, engaged) = self.platform_for(&req.platform)?;
        if !spec.supports(req.mode) {
            return Err(ServeError::BadRequest(format!(
                "platform `{}` has no GPU; mode `{}` is unavailable on it",
                spec.name,
                req.mode.label()
            )));
        }
        let net = zoo::by_name(&req.network, req.batch)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown network `{}`", req.network)))?;
        let repeats = if req.repeats == 0 {
            self.config.profile_repeats
        } else {
            req.repeats
        };
        let key = {
            let mut h = Fnv64::new();
            h.write_str("qsdnn-profile-v1");
            h.write_str(&req.network);
            h.write_usize(req.batch);
            h.write_str(req.mode.label());
            h.write_usize(repeats);
            if engaged {
                h.write_str("platform");
                h.write_str(&spec.name);
                h.write_u64(spec.fingerprint());
            }
            format!("{:016x}", h.finish())
        };
        // Profiles are cheap relative to searches but heavily repeated in a
        // busy service; single-flight them too.
        let mode = req.mode;
        let platform = self.platforms.instantiate(spec);
        let (lut, _) = self.profiles.get_or_compute(&key, move || {
            Profiler::with_repeats(platform, repeats).profile(&net, mode)
        });
        Ok(lut)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_search(
        &self,
        lut: CostLut,
        objective: Objective,
        episodes: usize,
        seeds: &[u64],
        transfer: TransferMode,
        batch: usize,
        platform: &str,
        span: &mut RequestSpan,
    ) -> Result<PlanResponse, ServeError> {
        if lut.is_empty() {
            return Err(ServeError::BadRequest("LUT has no layers".into()));
        }
        // Search requests carry client-supplied LUTs that bypassed
        // `CostLut::from_parts`; a malformed one must become an error
        // response, not a panicked connection thread.
        lut.validate()
            .map_err(|e| ServeError::BadRequest(format!("invalid LUT: {e}")))?;
        // Engaged platforms join the plan's cache identity and its
        // scenario descriptor; the default platform stays absent from
        // both, so pre-registry addresses are preserved.
        let (spec, engaged) = self.platform_for(platform)?;
        let platform = engaged.then_some(spec);
        let episodes = self.episodes_for(episodes, lut.len());
        let seeds = self.seeds_for(seeds);
        let portfolio = Portfolio::paper_default(episodes, &seeds);
        // Everything below is cache/index work except the portfolio runs
        // inside `compute_cold`/`compute_warm`, which record the `search`
        // stage themselves; the remainder is the `cache` stage.
        let cache_start = Instant::now();
        self.task_stage(Stage::Cache);
        let search_before = span.stage_total(Stage::Search);
        // Transfer needs both opt-ins: the server policy and the request.
        let result = if self.config.transfer == TransferMode::Auto && transfer == TransferMode::Auto
        {
            self.search_with_transfer(&portfolio, lut, objective, batch, platform, span)
        } else {
            self.search_with(&portfolio, lut, objective, platform, span)
        };
        if span.is_active() {
            let searched = span.stage_total(Stage::Search) - search_before;
            span.record(Stage::Cache, cache_start.elapsed().saturating_sub(searched));
        }
        result
    }

    fn plan_response(
        &self,
        lut: &CostLut,
        plan_key: String,
        cache_hit: bool,
        outcome: &PortfolioOutcome,
        vanilla_cost_ms: f64,
        warm_start: Option<WarmStartInfo>,
    ) -> PlanResponse {
        self.plans_served.fetch_add(1, Ordering::Relaxed);
        PlanResponse {
            network: lut.network().to_string(),
            plan_key,
            cache_hit,
            best: outcome.best.clone(),
            winner: outcome.winner.clone(),
            members: outcome.members.clone(),
            vanilla_cost_ms,
            warm_start,
            trace: None,
        }
    }

    /// A cheap, pure fingerprint of everything that determines a zoo plan
    /// request's plan key and response scalars. The profiled LUT is a
    /// deterministic function of (network, batch, mode, platform) — the
    /// profile cache is content-addressed on exactly those — and the
    /// portfolio of (episodes, seeds), so hashing the *inputs* is
    /// equivalent to hashing the derived artifacts, without the full LUT
    /// walk [`CostLut::fingerprint`] costs per request.
    fn hot_plan_memo_key(
        &self,
        profile_req: &ProfileRequest,
        objective: &Objective,
        episodes: usize,
        seeds: &[u64],
        lut: &CostLut,
    ) -> Option<u64> {
        let (spec, engaged) = self.platform_for(&profile_req.platform).ok()?;
        let mut h = Fnv64::new();
        h.write_str("qsdnn-hot-plan-v1");
        h.write_str(&profile_req.network);
        h.write_usize(profile_req.batch);
        h.write_str(profile_req.mode.label());
        objective.fingerprint_into(&mut h);
        h.write_usize(self.episodes_for(episodes, lut.len()));
        let seeds = if seeds.is_empty() {
            &self.config.default_seeds[..]
        } else {
            seeds
        };
        h.write_usize(seeds.len());
        for &seed in seeds {
            h.write_u64(seed);
        }
        if engaged {
            h.write_str("platform");
            h.write_str(&spec.name);
            h.write_u64(spec.fingerprint());
        }
        Some(h.finish())
    }

    /// Answers a repeat zoo-plan scenario straight from the plan cache:
    /// a memo lookup, a counted [`PlanCache::peek`] and the response
    /// build — no LUT clone, no re-scalarization, no full-LUT hash.
    /// Returns `None` when the scenario is new or its plan has been
    /// evicted; the caller then takes the full path, whose successful
    /// response re-primes the memo. The response is field-for-field what
    /// the full path builds for the same cache hit, so the two paths are
    /// indistinguishable on the wire.
    fn hot_plan_hit(&self, memo_key: u64, span: &mut RequestSpan) -> Option<PlanResponse> {
        let hot = {
            let memo = self
                .hot_plans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            memo.get(&memo_key).cloned()
        }?;
        let cache_start = Instant::now();
        self.task_stage(Stage::Cache);
        let outcome = self.plans.peek(&hot.plan_key)?;
        self.task_key_hex(&hot.plan_key);
        self.plans_served.fetch_add(1, Ordering::Relaxed);
        let response = PlanResponse {
            network: hot.network,
            plan_key: hot.plan_key,
            cache_hit: true,
            best: outcome.best.clone(),
            winner: outcome.winner.clone(),
            members: outcome.members.clone(),
            vanilla_cost_ms: hot.vanilla_cost_ms,
            warm_start: None,
            trace: None,
        };
        if span.is_active() {
            span.record(Stage::Cache, cache_start.elapsed());
        }
        Some(response)
    }

    /// Primes the hot-plan memo from a full-path response. Warm-started
    /// responses never register: their plans live under warm keys whose
    /// reuse is the scenario index's decision, not a memo shortcut's.
    fn remember_hot_plan(&self, memo_key: u64, response: &PlanResponse) {
        if response.warm_start.is_some() {
            return;
        }
        let mut memo = self
            .hot_plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if memo.len() >= HOT_PLAN_MEMO_CAP {
            memo.clear();
        }
        memo.insert(
            memo_key,
            HotPlan {
                plan_key: response.plan_key.clone(),
                network: response.network.clone(),
                vanilla_cost_ms: response.vanilla_cost_ms,
            },
        );
    }

    /// The cold compute: `portfolio` on `shared` under `key`, single-flight
    /// in the plan cache. A portfolio with no applicable member (or whose
    /// every member panicked) is a request-level error — it must answer
    /// the request, not unwind through the connection handler — and is
    /// never cached.
    fn compute_cold(
        &self,
        portfolio: &Portfolio,
        lut: &CostLut,
        shared: &Arc<CostLut>,
        vanilla_cost_ms: f64,
        key: String,
        span: &mut RequestSpan,
    ) -> Result<PlanResponse, ServeError> {
        let network = lut.network().to_string();
        self.task_key_hex(&key);
        // The compute closure runs on this thread (single-flight), so a
        // Cell smuggles the search wall time out to the span; a cache hit
        // never runs it and records zero search.
        let search_time = std::cell::Cell::new(Duration::ZERO);
        let (outcome, cache_hit) = {
            let shared = Arc::clone(shared);
            let pool = &self.pool;
            let search_time = &search_time;
            let rec = Arc::clone(self.metrics.recorder());
            self.plans.try_get_or_compute(&key, move || {
                if rec.enabled() {
                    rec.task_stage(Stage::Search as u16 + 1);
                }
                let search_start = Instant::now();
                let outcome = run_portfolio_parallel(portfolio, &shared, pool);
                search_time.set(search_start.elapsed());
                outcome.ok_or_else(|| {
                    ServeError::Search(format!(
                        "no portfolio member produced a plan for `{network}` \
                         (every member was inapplicable or failed)"
                    ))
                })
            })?
        };
        span.record(Stage::Search, search_time.get());
        Ok(self.plan_response(lut, key, cache_hit, &outcome, vanilla_cost_ms, None))
    }

    /// Runs `portfolio` on a validated LUT with transfer off — the exact
    /// pre-transfer code path: byte-identical keys, cache behavior and
    /// responses.
    fn search_with(
        &self,
        portfolio: &Portfolio,
        lut: CostLut,
        objective: Objective,
        platform: Option<&PlatformSpec>,
        span: &mut RequestSpan,
    ) -> Result<PlanResponse, ServeError> {
        let scalarized = lut.with_objective(objective);
        let vanilla_cost_ms = scalarized.cost(&scalarized.vanilla_assignment());
        let key = plan_key_on(
            lut.fingerprint(),
            &objective,
            portfolio.fingerprint(),
            platform.map(|s| (s.name.as_str(), s.fingerprint())),
        );
        let shared = Arc::new(scalarized);
        self.compute_cold(portfolio, &lut, &shared, vanilla_cost_ms, key, span)
    }

    /// The transfer-aware plan path:
    ///
    /// 1. exact content-address hit (same key as the transfer-off path);
    /// 2. same-scenario hit via the index — a repeated warm scenario's
    ///    plan lives under a warm key only the index knows;
    /// 3. plan-cache miss: warm-start from the nearest usable cached
    ///    scenario (fetchable plan, non-empty transfer mapping);
    /// 4. no usable donor: cold search under the exact key, identical to
    ///    the transfer-off path.
    ///
    /// Every successful outcome (re-)registers this scenario in the index
    /// so future neighbors can warm-start from it.
    fn search_with_transfer(
        &self,
        portfolio: &Portfolio,
        lut: CostLut,
        objective: Objective,
        batch: usize,
        platform: Option<&PlatformSpec>,
        span: &mut RequestSpan,
    ) -> Result<PlanResponse, ServeError> {
        let scalarized = lut.with_objective(objective);
        let vanilla_cost_ms = scalarized.cost(&scalarized.vanilla_assignment());
        let pin = platform.map(|s| (s.name.as_str(), s.fingerprint()));
        let base_key = plan_key_on(lut.fingerprint(), &objective, portfolio.fingerprint(), pin);
        // An engaged platform adds its feature vector to the descriptor,
        // so the platform term of the scenario distance measures genuine
        // spec divergence instead of the flat mismatch penalty —
        // cross-platform neighbors become usable donors.
        let describe = |scalarized: &CostLut| {
            let mut d = ScenarioDescriptor::of(scalarized)
                .with_batch(batch)
                .with_objective(&objective);
            if let Some(spec) = platform {
                d = d.with_platform_features(spec.features());
            }
            d
        };

        if let Some(outcome) = self.plans.peek(&base_key) {
            // Register the scenario on *first* sight only: re-inserting on
            // every repeated hit would re-extract the descriptor and
            // re-serialize it to the index's disk file per request.
            if self.index.lookup(&base_key).is_none() {
                let descriptor = describe(&scalarized);
                self.index
                    .insert(descriptor, base_key.clone(), base_key.clone(), None);
            }
            return Ok(self.plan_response(&lut, base_key, true, &outcome, vanilla_cost_ms, None));
        }
        let descriptor = describe(&scalarized);
        if let Some(entry) = self.index.lookup(&base_key) {
            // The exact-key peek above already failed, so a plan_key equal
            // to base_key means the plan is not fetchable right now.
            let cached = if entry.plan_key == base_key {
                None
            } else {
                self.plans.peek(&entry.plan_key)
            };
            match cached {
                Some(outcome) => {
                    if let Some(info) = &entry.warm_start {
                        self.note_transfer(info.donor_distance);
                    }
                    return Ok(self.plan_response(
                        &lut,
                        entry.plan_key.clone(),
                        true,
                        &outcome,
                        vanilla_cost_ms,
                        entry.warm_start,
                    ));
                }
                // Drop the entry only when its plan is definitively gone
                // from both tiers — a plan merely being recomputed (an
                // in-flight slot reads as a peek miss) keeps its index
                // entry for future donors.
                None if !self.plans.is_pending(&entry.plan_key) => {
                    self.index.remove(&entry.plan_key);
                }
                None => {}
            }
        }
        let shared = Arc::new(scalarized);
        for (entry, distance) in
            self.index
                .nearest(&descriptor, &base_key, DEFAULT_DONOR_CANDIDATES)
        {
            // Donor fetches are internal work, not answered requests:
            // `peek_quiet` keeps the cache's request counters honest.
            let Some(donor_outcome) = self.plans.peek_quiet(&entry.plan_key) else {
                if self.plans.is_pending(&entry.plan_key) {
                    // Mid-recompute; unusable this round but not stale.
                    continue;
                }
                // Gone from memory *and* disk: the index entry is stale
                // (eviction coupling with the cache).
                self.index.remove(&entry.plan_key);
                continue;
            };
            let mapping = TransferMapping::between(&entry.descriptor, &descriptor);
            if mapping.is_empty() {
                continue;
            }
            let Some(donor) = donor_qtable(&entry, &donor_outcome) else {
                continue;
            };
            // A structurally non-empty mapping can still transfer nothing
            // when the donor's *visited* states (its best path) miss the
            // mapped candidates; the members would then silently fall
            // back to the full cold search and the warm key, counters and
            // provenance would all lie. Replicate the members'
            // deterministic seeding once up front and skip such donors.
            if QTable::new(&shared).transfer_from(&donor, &mapping) == 0 {
                continue;
            }
            return self.compute_warm(
                portfolio,
                &lut,
                &objective,
                &shared,
                vanilla_cost_ms,
                descriptor,
                base_key,
                pin,
                entry,
                distance,
                donor,
                mapping,
                span,
            );
        }
        let response = self.compute_cold(
            portfolio,
            &lut,
            &shared,
            vanilla_cost_ms,
            base_key.clone(),
            span,
        )?;
        self.index
            .insert(descriptor, base_key, response.plan_key.clone(), None);
        Ok(response)
    }

    /// Warm-started compute under a donor-specific warm key — a warm plan
    /// never shares a cache key with the cold plan for the same scenario.
    #[allow(clippy::too_many_arguments)]
    fn compute_warm(
        &self,
        portfolio: &Portfolio,
        lut: &CostLut,
        objective: &Objective,
        shared: &Arc<CostLut>,
        vanilla_cost_ms: f64,
        descriptor: ScenarioDescriptor,
        base_key: String,
        pin: Option<(&str, u64)>,
        entry: ScenarioEntry,
        distance: f64,
        donor: QTable,
        mapping: TransferMapping,
        span: &mut RequestSpan,
    ) -> Result<PlanResponse, ServeError> {
        let warm_portfolio = portfolio.warmed();
        let warm_key = warm_plan_key_on(
            lut.fingerprint(),
            objective,
            warm_portfolio.fingerprint(),
            &entry.plan_key,
            pin,
        );
        let transferred_states = mapping.mapped_states();
        let warm = Arc::new(WarmStart { donor, mapping });
        let network = lut.network().to_string();
        self.task_key_hex(&warm_key);
        {
            // Journal which donor won and how far away it was; distance is
            // packed as microunits so the fixed-width event holds it.
            let rec = self.metrics.recorder();
            if rec.enabled() {
                rec.emit(
                    EventKind::TransferDonor,
                    u64::from_str_radix(&entry.plan_key, 16).unwrap_or(0),
                    (distance * 1e6) as u64,
                    transferred_states as u64,
                );
            }
        }
        let search_time = std::cell::Cell::new(Duration::ZERO);
        let (outcome, cache_hit) = {
            let shared = Arc::clone(shared);
            let warm = Arc::clone(&warm);
            let pool = &self.pool;
            let search_time = &search_time;
            let rec = Arc::clone(self.metrics.recorder());
            self.plans.try_get_or_compute(&warm_key, move || {
                if rec.enabled() {
                    rec.task_stage(Stage::Search as u16 + 1);
                }
                let search_start = Instant::now();
                let outcome =
                    run_portfolio_parallel_with(&warm_portfolio, &shared, pool, Some(&warm));
                search_time.set(search_start.elapsed());
                outcome.ok_or_else(|| {
                    ServeError::Search(format!(
                        "no portfolio member produced a plan for `{network}` \
                         (every member was inapplicable or failed)"
                    ))
                })
            })?
        };
        span.record(Stage::Search, search_time.get());
        if !cache_hit {
            self.warm_starts.fetch_add(1, Ordering::Relaxed);
        }
        self.note_transfer(distance);
        // Report the episodes the warm QS-DNN members actually ran — they
        // fall back to the cold budget when the donor's visited states do
        // not reach this scenario's candidates.
        let episodes = outcome
            .members
            .iter()
            .filter(|m| m.label.starts_with("qs-dnn"))
            .map(|m| m.episodes)
            .max()
            .unwrap_or(0);
        let info = WarmStartInfo {
            donor_key: entry.plan_key,
            donor_network: entry.descriptor.network.clone(),
            donor_distance: distance,
            transferred_states,
            episodes,
        };
        self.index
            .insert(descriptor, base_key, warm_key.clone(), Some(info.clone()));
        Ok(self.plan_response(
            lut,
            warm_key,
            cache_hit,
            &outcome,
            vanilla_cost_ms,
            Some(info),
        ))
    }

    fn note_transfer(&self, distance: f64) {
        self.transfer_hits.fetch_add(1, Ordering::Relaxed);
        let mut acc = self
            .donor_distance
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        acc.0 += distance;
        acc.1 += 1;
    }

    fn handle(&self, req: Request, span: &mut RequestSpan) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Ping { version } => {
                if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
                    Response::Pong {
                        version: PROTOCOL_VERSION,
                    }
                } else {
                    Response::Error {
                        message: format!(
                            "protocol mismatch: client v{version}, server speaks \
                             v{MIN_PROTOCOL_VERSION}..=v{PROTOCOL_VERSION}"
                        ),
                    }
                }
            }
            Request::Profile(req) => match span.time(Stage::Profile, || self.profile(&req)) {
                Ok(lut) => Response::Profile(ProfileResponse {
                    fingerprint: format!("{:016x}", lut.fingerprint()),
                    lut: (*lut).clone(),
                }),
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
            Request::Search(SearchRequest {
                lut,
                objective,
                episodes,
                seeds,
                transfer,
                trace: _,
                platform,
            }) => {
                // A client-supplied LUT carries no batch; the descriptor
                // records it as unknown.
                match self.run_search(
                    lut, objective, episodes, &seeds, transfer, 0, &platform, span,
                ) {
                    Ok(plan) => Response::Plan(plan),
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                }
            }
            Request::Plan(PlanRequest {
                network,
                batch,
                mode,
                objective,
                episodes,
                seeds,
                transfer,
                trace: _,
                platform,
            }) => {
                let profile_req = ProfileRequest {
                    network,
                    batch,
                    mode,
                    repeats: 0,
                    platform: platform.clone(),
                };
                match span
                    .time(Stage::Profile, || self.profile(&profile_req))
                    .and_then(|lut| {
                        // Transfer-off scenarios get the memoized fast
                        // path; anything transfer-eligible keeps the full
                        // path (the scenario index has registration side
                        // effects a memo shortcut must not skip).
                        let transfer_off = !(self.config.transfer == TransferMode::Auto
                            && transfer == TransferMode::Auto);
                        let memo_key = if transfer_off {
                            self.hot_plan_memo_key(&profile_req, &objective, episodes, &seeds, &lut)
                        } else {
                            None
                        };
                        if let Some(key) = memo_key {
                            if let Some(plan) = self.hot_plan_hit(key, span) {
                                return Ok(plan);
                            }
                        }
                        let plan = self.run_search(
                            (*lut).clone(),
                            objective,
                            episodes,
                            &seeds,
                            transfer,
                            batch,
                            &platform,
                            span,
                        )?;
                        if let Some(key) = memo_key {
                            self.remember_hot_plan(key, &plan);
                        }
                        Ok(plan)
                    }) {
                    Ok(plan) => Response::Plan(plan),
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                }
            }
            Request::Events => Response::Events(self.events_response()),
            Request::Tasks => Response::Tasks(self.tasks_response()),
            Request::Platforms => Response::Platforms(PlatformsResponse {
                platforms: self
                    .platforms
                    .specs()
                    .map(|spec| PlatformInfo {
                        name: spec.name.clone(),
                        kind: spec.kind.label().to_string(),
                        description: spec.description.clone(),
                        fingerprint: format!("{:016x}", spec.fingerprint()),
                        is_default: spec.name == self.platforms.default_name(),
                        gpu: spec.gpu.is_some(),
                    })
                    .collect(),
            }),
            Request::Metrics => Response::Metrics(self.metrics_response()),
            Request::Stats => Response::Stats(StatsResponse {
                version: PROTOCOL_VERSION,
                uptime_ms: self.uptime_ms(),
                requests: self.requests.load(Ordering::Relaxed),
                plans: self.plans_served.load(Ordering::Relaxed),
                plan_cache: self.plans.stats(),
                plan_cache_shards: self.plans.shard_stats(),
                profile_cache: self.profiles.stats(),
                profile_cache_shards: self.profiles.shard_stats(),
                workers: self.pool.threads() as u64,
                pipelined: self.pipelined.load(Ordering::Relaxed),
                in_flight_peak: self.in_flight_peak.load(Ordering::Relaxed),
                max_in_flight: self.config.in_flight_cap() as u64,
                transfer: self.config.transfer,
                transfer_hits: self.transfer_hits.load(Ordering::Relaxed),
                warm_starts: self.warm_starts.load(Ordering::Relaxed),
                mean_donor_distance: {
                    let (sum, n) = *self
                        .donor_distance
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if n == 0 {
                        0.0
                    } else {
                        sum / n as f64
                    }
                },
                index_entries: self.index.len() as u64,
                accept_errors: self.accept_errors.load(Ordering::Relaxed),
            }),
        }
    }

    /// [`ServiceState::handle`] with a panic firewall: a handler bug
    /// answers the request with an error instead of unwinding through the
    /// connection (v1) or silently leaking an in-flight permit (v2).
    /// Opens, observes and closes its own span; the connection layers
    /// carry a span across threads via [`ServiceState::dispatch_spanned`],
    /// so this wrapper serves direct callers (tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn dispatch(&self, req: Request) -> Response {
        let mut span = self.metrics.span(request_kind(&req));
        let resp = self.dispatch_spanned(req, &mut span);
        self.metrics.observe(&span);
        resp
    }

    /// [`ServiceState::dispatch`] recording into a caller-owned span; the
    /// caller keeps timing serialize/write stages and observes the span.
    /// When the request asked for a trace echo, the plan response carries
    /// the stages recorded so far.
    pub(crate) fn dispatch_spanned(&self, req: Request, span: &mut RequestSpan) -> Response {
        span.set_kind(request_kind(&req));
        span.set_trace(trace_requested(&req));
        // The request scope tags every event this thread journals while
        // handling — cache hits, donor picks — with the request's serial,
        // and the task-table entry is what `tasks` reports as "doing now".
        let recorder = Arc::clone(self.metrics.recorder());
        let _scope = recorder.begin_request(span.serial());
        if recorder.enabled() && span.serial() != 0 {
            let kind = kind_index(span.kind());
            recorder.request_begin(span.serial(), kind as u16);
        }
        let result = {
            let handler_span = &mut *span;
            catch_unwind(AssertUnwindSafe(move || self.handle(req, handler_span)))
        };
        let mut resp = match result {
            Ok(resp) => resp,
            Err(panic) => {
                // Journal the panic and snapshot the request's events as
                // an exemplar before answering: the wreckage is exactly
                // what a post-mortem needs.
                self.metrics.capture_panic(span);
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                Response::Error {
                    message: format!("internal error: request handler panicked: {reason}"),
                }
            }
        };
        if let Response::Plan(plan) = &resp {
            // Plan keys are 16 hex chars; packed, the span (and through it
            // the slow-request exemplar) names the actual plan served.
            let key = u64::from_str_radix(&plan.plan_key, 16).unwrap_or(0);
            span.set_key(key);
            if recorder.enabled() {
                recorder.task_key(key);
            }
        }
        recorder.task_clear();
        if span.trace_requested() {
            if let Response::Plan(plan) = &mut resp {
                plan.trace = Some(span.trace_info());
            }
        }
        resp
    }

    /// Serializes `resp` into a binary-codec (protocol v3) body, riding
    /// the plan cache's preserialized-body slot when the response is an
    /// eligible cache hit: the first such hit pays one encode and
    /// attaches the bytes to the entry; every later hit is a lookup plus
    /// a memcpy into the frame — zero re-encoding.
    ///
    /// Eligibility is deliberately narrow: `cache_hit` with neither a
    /// trace echo nor warm-start info, because those two fields are
    /// per-request (span timings; donor distance from the *requester's*
    /// descriptor) while everything else in a hit response is a pure
    /// function of the plan key.
    pub(crate) fn render_binary_body(&self, resp: &Response) -> Result<Arc<Vec<u8>>, ServeError> {
        if let Response::Plan(plan) = resp {
            if plan.cache_hit && plan.trace.is_none() && plan.warm_start.is_none() {
                if let Some(body) = self.plans.wire_body(&plan.plan_key) {
                    return Ok(body);
                }
                let body = Arc::new(encode_response(resp)?);
                // Best-effort: if the entry was evicted between the hit
                // and here, the attach is a no-op and the next residency
                // rebuilds the body — never a stale one.
                self.plans
                    .attach_wire_body(&plan.plan_key, Arc::clone(&body));
                return Ok(body);
            }
        }
        Ok(Arc::new(encode_response(resp)?))
    }

    /// Runs one parsed request end to end on the calling (dispatcher)
    /// thread: queue stage → [`ServiceState::dispatch_spanned`] → reply
    /// rendered for the framing and id the request arrived with. The one
    /// place requests become reply bytes, whichever layer carries them.
    pub(crate) fn run_job(&self, job: Job) -> Reply {
        let Job {
            req,
            id,
            mode,
            mut span,
            enqueued,
            depth,
        } = job;
        span.record(Stage::Queue, enqueued.elapsed());
        if id.is_some() {
            self.in_flight_peak
                .fetch_max(depth as u64, Ordering::Relaxed);
            self.pipelined.fetch_add(1, Ordering::Relaxed);
        }
        let resp = self.dispatch_spanned(req, &mut span);
        let bytes = span.time(Stage::Serialize, || match mode {
            WireMode::Json => json_line(id, resp),
            WireMode::Binary => self.render_binary_frame(id, &resp),
        });
        Reply { id, bytes, span }
    }

    /// The bounded pool both connection layers run [`Job`]s on. Never the
    /// search pool — see the module docs.
    pub(crate) fn dispatcher_pool(&self) -> WorkerPool {
        let threads = self.config.dispatcher_count(self.pool.threads());
        WorkerPool::named_observed(
            "qsdnn-dispatch",
            threads,
            self.config
                .instrument
                .then(|| self.metrics.dispatch_pool.clone()),
            self.metrics.recorder().enabled().then(|| PoolRecorder {
                recorder: Arc::clone(self.metrics.recorder()),
                task_kind: TASK_KIND_DISPATCH_JOB,
                pool_id: POOL_ID_DISPATCH,
                saturation_threshold: (threads * 2) as i64,
            }),
        )
    }

    /// [`ServiceState::render_binary_body`] wrapped in a frame header,
    /// ready for the socket. Infallible from the caller's view: a codec
    /// failure (unreachable for well-formed responses — guarded depths
    /// and `u32` lengths) degrades to an error frame naming it.
    fn render_binary_frame(&self, id: Option<u64>, resp: &Response) -> Vec<u8> {
        match self
            .render_binary_body(resp)
            .and_then(|body| encode_binary_frame(id, &body))
        {
            Ok(frame) => frame,
            Err(e) => crate::protocol::binary_error_frame(id, &e.to_string()),
        }
    }

    /// Publishes the stage this thread's task-table entry is in.
    fn task_stage(&self, stage: Stage) {
        let rec = self.metrics.recorder();
        if rec.enabled() {
            rec.task_stage(stage as u16 + 1);
        }
    }

    /// Publishes the plan key this thread's task-table entry works under.
    fn task_key_hex(&self, key: &str) {
        let rec = self.metrics.recorder();
        if rec.enabled() {
            rec.task_key(u64::from_str_radix(key, 16).unwrap_or(0));
        }
    }

    /// The `events` wire reply: full ring dump plus retained exemplars.
    fn events_response(&self) -> EventsResponse {
        let rec = self.metrics.recorder();
        EventsResponse {
            recorder_enabled: rec.enabled(),
            events_total: rec.events_total(),
            ring_capacity: rec.ring_capacity() as u64,
            events: rec.snapshot_events().iter().map(event_msg).collect(),
            exemplars: rec.exemplars().iter().map(exemplar_msg).collect(),
        }
    }

    /// The `tasks` wire reply: what every registered thread is doing now.
    fn tasks_response(&self) -> TasksResponse {
        let rec = self.metrics.recorder();
        TasksResponse {
            recorder_enabled: rec.enabled(),
            events_total: rec.events_total(),
            tasks: rec.tasks().iter().map(task_msg).collect(),
        }
    }

    /// One self-contained post-mortem: task table, full journal and
    /// exemplars at the moment of death, plus enough identity (io model,
    /// uptime, protocol version) to read the file in isolation.
    pub(crate) fn postmortem_dump(&self, reason: &str) -> PostmortemDump {
        let rec = self.metrics.recorder();
        PostmortemDump {
            reason: reason.to_string(),
            version: PROTOCOL_VERSION,
            uptime_ms: self.uptime_ms(),
            io: self.config.io.label().to_string(),
            events_total: rec.events_total(),
            tasks: rec.tasks().iter().map(task_msg).collect(),
            events: rec.snapshot_events().iter().map(event_msg).collect(),
            exemplars: rec.exemplars().iter().map(exemplar_msg).collect(),
        }
    }

    /// Writes [`ServiceState::postmortem_dump`] as JSON under the spill
    /// directory; `None` without a spill dir or when the write fails (a
    /// dying process must not die harder over its own post-mortem).
    ///
    /// The filename deliberately does **not** end in `.json`: the spill
    /// tier's startup sweep indexes (and eventually garbage-collects)
    /// every `*.json` file in this directory as a cache entry.
    pub(crate) fn write_postmortem(&self, reason: &str) -> Option<std::path::PathBuf> {
        let dir = self.config.spill_dir.as_ref()?;
        let json = serde_json::to_string_pretty(&self.postmortem_dump(reason)).ok()?;
        let path = dir.join(format!("postmortem-{}.dump", std::process::id()));
        std::fs::write(&path, json).ok()?;
        Some(path)
    }

    /// Monotonic uptime; always at least 1 ms so "the server is up" reads
    /// as a nonzero value on both I/O layers.
    fn uptime_ms(&self) -> u64 {
        (self.started.elapsed().as_millis() as u64).max(1)
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        // SeqCst: shutdown must be totally ordered against every
        // thread's check — see the store in `PlanServer::stop`.
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// One coherent observability snapshot: this server's registry, the
    /// process-global registry (search/profile internals), and families
    /// synthesized from existing service counters (uptime, request/plan
    /// totals, per-shard cache traffic, index size).
    fn metrics_snapshot(&self) -> qsdnn_obs::Snapshot {
        use qsdnn_obs::{FamilySnapshot, Kind, SampleSnapshot, SampleValue};
        let mut snap = self.metrics.registry().snapshot();
        snap.merge(qsdnn_obs::global().snapshot());
        let gauge = |name: &str, help: &str, v: i64| FamilySnapshot {
            name: name.to_string(),
            help: help.to_string(),
            kind: Kind::Gauge,
            samples: vec![SampleSnapshot {
                labels: Vec::new(),
                value: SampleValue::Gauge(v),
            }],
        };
        let counter = |name: &str, help: &str, v: u64| FamilySnapshot {
            name: name.to_string(),
            help: help.to_string(),
            kind: Kind::Counter,
            samples: vec![SampleSnapshot {
                labels: Vec::new(),
                value: SampleValue::Counter(v),
            }],
        };
        snap.families.push(gauge(
            "qsdnn_uptime_ms",
            "Milliseconds since the server started",
            self.uptime_ms() as i64,
        ));
        snap.families.push(counter(
            "qsdnn_requests_total",
            "Requests handled",
            self.requests.load(Ordering::Relaxed),
        ));
        snap.families.push(counter(
            "qsdnn_plans_total",
            "Plan responses served",
            self.plans_served.load(Ordering::Relaxed),
        ));
        snap.families.push(gauge(
            "qsdnn_index_entries",
            "Scenarios registered in the transfer index",
            self.index.len() as i64,
        ));
        snap.families.push(counter(
            "qsdnn_recorder_events_total",
            "Flight-recorder events journaled since start",
            self.metrics.recorder().events_total(),
        ));
        for (cache, shards) in [
            ("plan", self.plans.shard_stats()),
            ("profile", self.profiles.shard_stats()),
        ] {
            let mut entries = Vec::new();
            let mut requests = Vec::new();
            let mut evictions = Vec::new();
            for (i, s) in shards.iter().enumerate() {
                let base = vec![
                    ("cache".to_string(), cache.to_string()),
                    ("shard".to_string(), i.to_string()),
                ];
                entries.push(SampleSnapshot {
                    labels: base.clone(),
                    value: SampleValue::Gauge(s.entries as i64),
                });
                for (outcome, v) in [
                    ("hit", s.hits),
                    ("miss", s.misses),
                    ("coalesced", s.coalesced),
                    ("spill_load", s.spill_loads),
                ] {
                    let mut labels = base.clone();
                    labels.push(("outcome".to_string(), outcome.to_string()));
                    requests.push(SampleSnapshot {
                        labels,
                        value: SampleValue::Counter(v),
                    });
                }
                evictions.push(SampleSnapshot {
                    labels: base,
                    value: SampleValue::Counter(s.evictions),
                });
            }
            for (name, help, kind, samples) in [
                (
                    "qsdnn_cache_entries",
                    "Ready entries resident, by cache and shard",
                    Kind::Gauge,
                    entries,
                ),
                (
                    "qsdnn_cache_requests_total",
                    "Cache lookups, by cache, shard and outcome",
                    Kind::Counter,
                    requests,
                ),
                (
                    "qsdnn_cache_evictions_total",
                    "Entries evicted, by cache and shard",
                    Kind::Counter,
                    evictions,
                ),
            ] {
                snap.merge(qsdnn_obs::Snapshot {
                    families: vec![FamilySnapshot {
                        name: name.to_string(),
                        help: help.to_string(),
                        kind,
                        samples,
                    }],
                });
            }
        }
        snap
    }

    /// The `metrics` wire reply: the same snapshot the Prometheus endpoint
    /// renders, as typed families.
    fn metrics_response(&self) -> MetricsResponse {
        MetricsResponse {
            uptime_ms: self.uptime_ms(),
            families: families_from_snapshot(&self.metrics_snapshot()),
        }
    }

    /// Prometheus text exposition of [`ServiceState::metrics_snapshot`].
    pub(crate) fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }
}

/// Formats a packed plan key for the wire (empty when there is none).
fn wire_key(key: u64) -> String {
    if key == 0 {
        String::new()
    } else {
        format!("{key:016x}")
    }
}

/// Decodes one raw flight-recorder event into its wire form, rendering
/// the kind-specific `a`/`b` payloads into a human-readable `detail`.
fn event_msg(e: &qsdnn_obs::Event) -> EventMsg {
    let kind = e.kind();
    let detail = match kind {
        Some(EventKind::RequestBegin) => {
            format!("kind={}", KINDS.get(e.a as usize).copied().unwrap_or("?"))
        }
        Some(EventKind::RequestEnd) => format!(
            "kind={} total_us={}",
            KINDS.get(e.a as usize).copied().unwrap_or("?"),
            e.b
        ),
        Some(EventKind::StageEnd) => format!(
            "stage={} {}us",
            Stage::ALL
                .get(e.a as usize)
                .map(|s| s.as_str())
                .unwrap_or("?"),
            e.b
        ),
        Some(
            EventKind::CacheHit
            | EventKind::CacheMiss
            | EventKind::CacheCoalesced
            | EventKind::CacheSpillLoad
            | EventKind::CacheEvict
            | EventKind::CacheSpill
            | EventKind::CacheStall,
        ) => format!(
            "cache={} shard={}",
            match e.a {
                CACHE_ID_PLAN => "plan",
                CACHE_ID_PROFILE => "profile",
                _ => "?",
            },
            e.b
        ),
        Some(EventKind::TransferDonor) => {
            format!("distance={:.6} states={}", e.a as f64 / 1e6, e.b)
        }
        Some(EventKind::ReactorStall) => format!("loop_us={}", e.a),
        Some(EventKind::EpollWaitOutlier) => format!("wait_us={}", e.a),
        Some(EventKind::PoolSaturated) => format!(
            "pool={} depth={}",
            match e.a {
                POOL_ID_SEARCH => "search",
                POOL_ID_DISPATCH => "dispatch",
                _ => "?",
            },
            e.b
        ),
        Some(EventKind::HandlerPanic) => {
            format!("kind={}", KINDS.get(e.a as usize).copied().unwrap_or("?"))
        }
        None => String::new(),
    };
    EventMsg {
        ts_us: e.ts_us,
        thread: e.thread.to_string(),
        event: kind.map(EventKind::label).unwrap_or("unknown").to_string(),
        serial: e.req,
        key: wire_key(e.key),
        a: e.a,
        b: e.b,
        detail,
    }
}

/// Decodes one live task-table entry into its wire form.
fn task_msg(t: &qsdnn_obs::TaskSnapshot) -> TaskMsg {
    let state = match t.kind {
        None => "idle".to_string(),
        Some(crate::metrics::TASK_KIND_SEARCH_JOB) => "search-job".to_string(),
        Some(crate::metrics::TASK_KIND_DISPATCH_JOB) => "dispatch-job".to_string(),
        Some(k) => KINDS
            .get(k as usize)
            .copied()
            .unwrap_or("unknown")
            .to_string(),
    };
    let stage = match t.stage.checked_sub(1) {
        None => String::new(), // 0 = no stage published
        Some(i) => Stage::ALL
            .get(i as usize)
            .map(|s| s.as_str().to_string())
            .unwrap_or_default(),
    };
    TaskMsg {
        thread: t.thread.clone(),
        state,
        serial: t.serial,
        stage,
        key: wire_key(t.key),
        elapsed_ms: t.elapsed_us as f64 / 1000.0,
    }
}

/// Decodes one retained exemplar: its journal excerpt plus a per-stage
/// breakdown distilled from the excerpt's `stage` events.
fn exemplar_msg(x: &qsdnn_obs::Exemplar) -> ExemplarMsg {
    let stages = x
        .events
        .iter()
        .filter(|e| e.kind() == Some(EventKind::StageEnd))
        .map(|e| StageTiming {
            stage: Stage::ALL
                .get(e.a as usize)
                .map(|s| s.as_str().to_string())
                .unwrap_or_default(),
            ms: e.b as f64 / 1000.0,
        })
        .collect();
    ExemplarMsg {
        kind: KINDS
            .get(x.kind as usize)
            .copied()
            .unwrap_or("unknown")
            .to_string(),
        serial: x.serial,
        total_ms: x.total_us as f64 / 1000.0,
        plan_key: wire_key(x.key),
        panicked: x.panicked,
        stages,
        events: x.events.iter().map(event_msg).collect(),
    }
}

/// Rebuilds a donor *policy-backbone* Q-table from an indexed scenario and
/// its cached plan: the cache stores plans, not learned tables, so the
/// donor's best assignment plus the descriptor's per-candidate costs
/// reconstruct the winning path's Q-values (cost-to-go, see
/// [`QTable::from_best_path`]). Returns `None` when the two artifacts
/// disagree — a stale index entry pointing at a plan for a different
/// structure — in which case the caller skips this donor.
fn donor_qtable(entry: &ScenarioEntry, outcome: &PortfolioOutcome) -> Option<QTable> {
    let dims: Vec<usize> = entry
        .descriptor
        .layers
        .iter()
        .map(|l| l.candidates.len())
        .collect();
    let assignment = &outcome.best.best_assignment;
    if assignment.len() != dims.len() {
        return None;
    }
    let costs: Vec<f64> = assignment
        .iter()
        .enumerate()
        .map(|(l, &ci)| {
            entry
                .descriptor
                .layers
                .get(l)
                .and_then(|layer| layer.cost.get(ci))
                .copied()
                .unwrap_or(f64::NAN)
        })
        .collect();
    QTable::from_best_path(&dims, assignment, &costs)
}

/// The connection layer actually running behind a [`PlanServer`].
enum IoRuntime {
    /// Blocking pump: the acceptor thread owns the per-connection threads
    /// and the dispatcher pool, and joins them all before it exits.
    Threads { acceptor: JoinHandle<()> },
    /// Epoll layer: one reactor thread owns every socket and the
    /// dispatcher pool; `waker` pokes its wakeup pipe.
    #[cfg(target_os = "linux")]
    Epoll {
        reactor: JoinHandle<()>,
        waker: crate::reactor::Waker,
    },
}

/// A running plan-compilation server.
pub struct PlanServer {
    state: Arc<ServiceState>,
    addr: SocketAddr,
    runtime: Option<IoRuntime>,
    exposition: Option<MetricsExposition>,
}

impl PlanServer {
    /// Binds and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound, the spill directory cannot
    /// be created, or `io: epoll` is requested off Linux.
    pub fn start(config: ServerConfig) -> Result<PlanServer, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let io = config.io;
        let state = ServiceState::new(config)?;
        let runtime = match io {
            IoModel::Threads => IoRuntime::Threads {
                acceptor: crate::pump::start(listener, Arc::clone(&state))?,
            },
            #[cfg(target_os = "linux")]
            IoModel::Epoll => {
                let (reactor, waker) = crate::reactor::start(listener, Arc::clone(&state))?;
                IoRuntime::Epoll { reactor, waker }
            }
            #[cfg(not(target_os = "linux"))]
            IoModel::Epoll => {
                return Err(ServeError::BadRequest(
                    "io model `epoll` is only available on Linux; use `threads`".into(),
                ))
            }
        };
        let mut server = PlanServer {
            state,
            addr,
            runtime: Some(runtime),
            exposition: None,
        };
        // After the runtime so a bind failure tears the server down via
        // the normal stop path (Drop) instead of leaking threads.
        if let Some(metrics_addr) = server.state.config.metrics_addr.clone() {
            server.exposition = Some(MetricsExposition::start(
                &metrics_addr,
                Arc::clone(&server.state),
            )?);
        }
        Ok(server)
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The Prometheus exposition endpoint's bound address, when
    /// [`ServerConfig::metrics_addr`] asked for one (resolves `:0` binds).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exposition.as_ref().map(MetricsExposition::addr)
    }

    /// The connection layer this server runs on.
    pub fn io_model(&self) -> IoModel {
        self.state.config.io
    }

    /// Writes a flight-recorder post-mortem dump (`postmortem-<pid>.dump`,
    /// JSON) under the spill directory and returns its path. `None`
    /// without a spill directory or when the write fails. `reason` lands
    /// verbatim in the dump (conventionally `panic`, `sigterm` or
    /// `shutdown`).
    pub fn write_postmortem(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.state.write_postmortem(reason)
    }

    /// A standalone dump writer for installing in panic hooks and signal
    /// loops: callable after (and independent of) the server handle itself.
    pub fn postmortem_writer(
        &self,
    ) -> impl Fn(&str) -> Option<std::path::PathBuf> + Send + Sync + 'static {
        let state = Arc::clone(&self.state);
        move |reason| state.write_postmortem(reason)
    }

    /// Stops accepting and joins the connection layer. Either layer stops
    /// parsing new requests, lets in-flight ones finish and flushes their
    /// replies — for at most `SHUTDOWN_DRAIN` (5 s), after which whatever
    /// a stalled peer has not read is abandoned — then drains the
    /// dispatcher pool. No server thread outlives this call.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(runtime) = self.runtime.take() else {
            return;
        };
        // SeqCst: the acceptor, reactor, handler, and exposition threads
        // all poll this flag; a total order guarantees none of them keeps
        // admitting work after any other thread observed shutdown.
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // The exposition accept loop re-checks the flag every tick.
        if let Some(mut exposition) = self.exposition.take() {
            exposition.join();
        }
        match runtime {
            IoRuntime::Threads { acceptor } => {
                // Poke the blocking accept() so the loop observes the flag.
                let _ = TcpStream::connect(self.addr);
                let _ = acceptor.join();
            }
            #[cfg(target_os = "linux")]
            IoRuntime::Epoll { reactor, waker } => {
                waker.wake();
                let _ = reactor.join();
            }
        }
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Convenience for tests and examples: a server on an ephemeral localhost
/// port with default settings.
///
/// # Errors
///
/// See [`PlanServer::start`].
pub fn start_local() -> Result<PlanServer, ServeError> {
    PlanServer::start(ServerConfig::default())
}

/// Resolves an address string, preferring the first result.
///
/// # Errors
///
/// Fails when resolution produces no addresses.
pub fn resolve(addr: &str) -> Result<SocketAddr, ServeError> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| ServeError::BadRequest(format!("cannot resolve `{addr}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn::engine::{AnalyticalPlatform, Mode};
    use qsdnn::PortfolioMember;

    fn branchy_lut() -> CostLut {
        let net = zoo::by_name("toy_branchy", 1).expect("zoo network");
        Profiler::with_repeats(AnalyticalPlatform::tx2(), 2).profile(&net, Mode::Gpgpu)
    }

    /// Regression: a portfolio with no applicable member used to hit
    /// `.expect("portfolio always has applicable members")` inside the
    /// cache compute closure, unwinding through the connection handler and
    /// silently dropping the connection. It must answer with an error.
    #[test]
    fn inapplicable_portfolio_is_an_error_not_a_panic() {
        let state = ServiceState::new(ServerConfig::default()).expect("state");
        // Chain DP is the only member and `toy_branchy` is not a chain, so
        // no member produces a report.
        let portfolio = Portfolio {
            members: vec![PortfolioMember::ChainDp],
        };
        let err = state
            .search_with(
                &portfolio,
                branchy_lut(),
                Objective::Latency,
                None,
                &mut state.metrics.span("plan"),
            )
            .expect_err("no member applies");
        assert!(
            err.to_string().contains("no portfolio member"),
            "unexpected error: {err}"
        );
        // The failure must not have cached anything or leaked the
        // in-flight slot: an identical retry fails again promptly (a
        // leaked slot would deadlock this call in single-flight wait).
        let err = state
            .search_with(
                &portfolio,
                branchy_lut(),
                Objective::Latency,
                None,
                &mut state.metrics.span("plan"),
            )
            .expect_err("still no member");
        assert!(matches!(err, ServeError::Search(_)));
        let stats = state.plans.stats();
        assert_eq!(stats.entries, 0, "failures are never cached");
        assert_eq!(stats.in_flight, 0, "failures release their slot");
        // The same state still serves a working portfolio afterwards.
        let ok = state
            .search_with(
                &Portfolio::paper_default(60, &[1]),
                branchy_lut(),
                Objective::Latency,
                None,
                &mut state.metrics.span("plan"),
            )
            .expect("full portfolio applies");
        assert!(ok.best.best_cost_ms.is_finite());
    }

    /// Satellite of the shim's `write_f64` divergence (non-finite →
    /// `null`): every float the stats response carries must be finite in
    /// every server state, or a typed client's decode breaks. The
    /// historical hazard is `mean_donor_distance` with `warm_starts == 0`
    /// (`0.0 / 0.0 == NaN`); this pins the zero-state answer and that the
    /// rendered JSON round-trips through the typed decoder.
    #[test]
    fn stats_floats_are_finite_in_the_zero_state() {
        let state = ServiceState::new(ServerConfig::default()).expect("state");
        let resp = state.dispatch(Request::Stats);
        let stats = match &resp {
            Response::Stats(s) => s,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(stats.warm_starts, 0, "zero-state precondition");
        assert!(
            stats.mean_donor_distance.is_finite(),
            "mean_donor_distance must never be NaN/inf (got {})",
            stats.mean_donor_distance
        );
        // The shim would render a NaN as `null`, which the typed decoder
        // rejects — so a successful round trip proves no field was
        // non-finite.
        let json = serde_json::to_string(&resp).expect("render");
        assert!(!json.contains("null"), "no float degraded to null: {json}");
        let back: Response = serde_json::from_str(&json).expect("typed round trip");
        assert!(matches!(back, Response::Stats(_)));
    }

    /// The binary fast path serves bit-identical bytes across repeated
    /// eligible hits and attaches the body to the cache entry once.
    #[test]
    fn render_binary_body_caches_eligible_hits() {
        let state = ServiceState::new(ServerConfig::default()).expect("state");
        let req = || {
            Request::Plan(PlanRequest {
                network: "tiny_cnn".into(),
                batch: 1,
                mode: Mode::Gpgpu,
                objective: Objective::Latency,
                episodes: 40,
                seeds: vec![1],
                transfer: TransferMode::Off,
                trace: false,
                platform: String::new(),
            })
        };
        // Cold: not a cache hit, nothing attached.
        let cold = state.dispatch(req());
        let cold_key = match &cold {
            Response::Plan(p) => {
                assert!(!p.cache_hit);
                p.plan_key.clone()
            }
            other => panic!("expected plan, got {other:?}"),
        };
        let _ = state.render_binary_body(&cold).expect("cold renders");
        assert!(
            state.plans.wire_body(&cold_key).is_none(),
            "cold responses never attach a body"
        );
        // Hit: first render attaches, second serves the same allocation.
        let hit = state.dispatch(req());
        match &hit {
            Response::Plan(p) => assert!(p.cache_hit),
            other => panic!("expected plan, got {other:?}"),
        }
        let first = state.render_binary_body(&hit).expect("hit renders");
        assert!(state.plans.wire_body(&cold_key).is_some(), "hit attaches");
        let second = state.render_binary_body(&hit).expect("hit renders");
        assert!(Arc::ptr_eq(&first, &second), "second hit is a cache fetch");
        // The cached bytes decode to the same response a fresh encode
        // would produce.
        let fresh = crate::protocol::encode_body(&hit).expect("encode");
        assert_eq!(*first, fresh, "cached body is bit-identical");
    }

    /// The panic firewall answers rather than unwinding: a handler panic
    /// becomes a `Response::Error` naming the reason, so the connection
    /// (and a v2 in-flight permit) survives.
    #[test]
    fn dispatch_turns_panics_into_error_responses() {
        // An empty default seed list makes `seeds_for` hand
        // `Portfolio::paper_default` an empty slice, which asserts — a
        // deterministic stand-in for any future handler bug.
        let state = ServiceState::new(ServerConfig {
            default_seeds: Vec::new(),
            ..ServerConfig::default()
        })
        .expect("state");
        let req = Request::Plan(PlanRequest {
            network: "tiny_cnn".into(),
            batch: 1,
            mode: Mode::Gpgpu,
            objective: Objective::Latency,
            episodes: 40,
            seeds: Vec::new(),
            transfer: TransferMode::Auto,
            trace: false,
            platform: String::new(),
        });
        let resp =
            catch_unwind(AssertUnwindSafe(|| state.dispatch(req))).expect("dispatch never unwinds");
        match resp {
            Response::Error { message } => {
                assert!(message.contains("panicked"), "{message}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }
}
