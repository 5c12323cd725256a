//! The plan-compilation TCP server.
//!
//! [`ServiceState`] is the service proper: `Request → Response`, with
//! plans and profiles content-addressed in [`PlanCache`]s so concurrent
//! identical requests coalesce into one search regardless of which
//! connection they arrive on, and all search work fanned onto the shared
//! [`WorkerPool`]. [`PlanServer`] puts it behind a TCP listener through
//! the reactor (`crate::reactor`), one readiness loop that drives every
//! socket through the socket-free [`crate::conn::Connection`] and runs
//! every request as a [`ServiceState::run_job`] on one bounded dispatcher
//! pool.
//!
//! A plan request forks once. [`ServiceState::plan_hit`] answers "is this
//! a repeat, and where are its bytes" from the request's own fields — the
//! same way in either `transfer` mode, since transfer is a policy for
//! misses — and a hit leaves as the body its framing attached to the
//! cache entry.
//! Everything else takes the full path, [`ServiceState::search`]: profile,
//! derive the [`Scenario`], exact hit → indexed plan → warm start → cold
//! search, with the index steps skipped when transfer is off; its reply
//! primes the front for the next repeat.
//!
//! Dispatchers are deliberately a **separate** pool from the search
//! workers: a request job blocks on its portfolio members, which are
//! themselves search-pool jobs, so enough concurrent requests sharing one
//! pool would occupy every worker with blocked parents and deadlock it
//! (the classic nested-pool trap).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qsdnn::engine::{
    CostLut, Fnv64, Objective, PlatformRegistry, PlatformSpec, Profiler, ScenarioDescriptor,
};
use qsdnn::nn::zoo;
use qsdnn::{EpisodeRecord, Portfolio, PortfolioOutcome, QTable, SearchReport, TransferMapping};

use qsdnn_obs::{EventKind, FlightRecorder};

use crate::cache::{plan_key, warm_plan_key, write_platform, CacheValue, PlanCache, WireBody};
use crate::conn::{json_frame, json_line, Job, Reply};
use crate::exposition::MetricsExposition;
use crate::metrics::{
    families_from_snapshot, kind_index, request_kind, trace_requested, RequestSpan, Stage, KINDS,
    TASK_KIND_DISPATCH_JOB,
};
use crate::pool::{PoolRecorder, WorkerPool};
use crate::portfolio::{run_portfolio_parallel_with, WarmStart};
use crate::protocol::{
    default_episodes, encode_binary_frame, encode_body, EventMsg, EventsResponse, ExemplarMsg,
    MetricsResponse, PlanRequest, PlanResponse, PlatformInfo, PlatformsResponse, PostmortemDump,
    ProfileRequest, ProfileResponse, Request, Response, StageTiming, StatsResponse, TaskMsg,
    TasksResponse, TransferMode, WarmStartInfo, WireMode, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::reactor::Waker;
use crate::transfer::{ScenarioEntry, ScenarioIndex, DEFAULT_DONOR_CANDIDATES};
use crate::ServeError;

/// Cache id carried in cache flight-recorder events (`a` payload).
pub(crate) const CACHE_ID_PLAN: u64 = 0;
/// Cache id of the profile cache in flight-recorder events.
pub(crate) const CACHE_ID_PROFILE: u64 = 1;
/// Pool id carried in `PoolSaturated` events (`a` payload).
pub(crate) const POOL_ID_SEARCH: u64 = 0;
/// Pool id of the dispatcher pool in `PoolSaturated` events.
const POOL_ID_DISPATCH: u64 = 1;

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
    /// Optional plan spill directory (content-addressed, checksummed
    /// binary `.plan` records).
    pub spill_dir: Option<std::path::PathBuf>,
    /// Profiling repeats used when a request passes `repeats == 0`.
    pub profile_repeats: usize,
    /// Default QS-DNN seeds when a request passes no seeds.
    pub default_seeds: Vec<u64>,
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
            cache_max_entries: 0,
            max_in_flight: 0,
            transfer: TransferMode::Auto,
            index_entries: 0,
            metrics_addr: None,
            slow_ms: DEFAULT_SLOW_MS,
            instrument: true,
            recorder: true,
            platform: String::new(),
            platform_dir: None,
        }
    }
}

impl ServerConfig {
    /// Applies the config's entry bound to a cache.
    fn configure_cache<T: CacheValue>(&self, cache: PlanCache<T>) -> PlanCache<T> {
        if self.cache_max_entries > 0 {
            cache.with_max_entries(self.cache_max_entries)
        } else {
            cache
        }
    }

    /// The effective per-connection in-flight cap (always ≥ 1).
    pub(crate) fn in_flight_cap(&self) -> usize {
        if self.max_in_flight == 0 {
            DEFAULT_MAX_IN_FLIGHT
        } else {
            self.max_in_flight
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
    /// The plan-hit front: request fingerprint ([`front_key`]) → what a
    /// hit reply needs beyond the cached outcome. Read-shared by every
    /// plan request before anything else; see [`ServiceState::plan_hit`].
    front: RwLock<HashMap<u64, Arc<FrontEntry>>>,
}

/// One front entry. Every field is a pure function of the request fields
/// [`front_key`] hashes (the profiled LUT is deterministic in them), so an
/// entry never goes stale — only its plan's residency is checked per hit.
pub(crate) struct FrontEntry {
    /// The scenario's cold plan key: where its plan lives, and its
    /// identity in the scenario index.
    plan_key: String,
    network: String,
    vanilla_cost_ms: f64,
}

/// Bound on the front: at the cap it is flushed wholesale (no LRU
/// bookkeeping on the hit path) and re-learns the live set in one round.
const FRONT_CAP: usize = 4096;

/// A pure fingerprint of the request fields that decide which plan a plan
/// request resolves to: the profiled LUT is a deterministic function of
/// (network, batch, mode, platform), the portfolio of (episodes, seeds),
/// and absent fields default to server-lifetime constants — so recognising
/// a repeat needs no LUT. `transfer` and `trace` change no hit's plan.
fn front_key(req: &PlanRequest) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("qsdnn-front-v1");
    h.write_str(&req.network);
    h.write_usize(req.batch);
    h.write_str(req.mode.label());
    req.objective.fingerprint_into(&mut h);
    h.write_usize(req.episodes);
    h.write_usize(req.seeds.len());
    for &seed in &req.seeds {
        h.write_u64(seed);
    }
    h.write_str(&req.platform);
    h.finish()
}

/// What a request resolved to.
// Returned and consumed, never stored, so the size gap costs a move;
// boxing would cost every non-hit request an allocation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Answer {
    /// A repeat plan request resolved by [`ServiceState::plan_hit`]: the
    /// cached plan by reference, not yet (and usually never) a
    /// [`PlanResponse`].
    Hit {
        entry: Arc<FrontEntry>,
        outcome: Arc<PortfolioOutcome>,
        /// The body an earlier hit in the request's framing attached to
        /// the cache entry.
        body: Option<WireBody>,
    },
    Response(Response),
}

impl Answer {
    /// The typed response. A hit becomes field for field what the full
    /// path builds for the same cache hit: the wire cannot tell them apart.
    pub(crate) fn into_response(self) -> Response {
        match self {
            Answer::Response(resp) => resp,
            Answer::Hit { entry, outcome, .. } => {
                Response::Plan(entry.response(&outcome, outcome.best.clone()))
            }
        }
    }
}

impl FrontEntry {
    /// The reply to a hit on this entry's plan, carrying `best` as the
    /// winning report.
    fn response(&self, outcome: &PortfolioOutcome, best: SearchReport) -> PlanResponse {
        plan_response(
            &self.network,
            self.plan_key.clone(),
            true,
            best,
            outcome,
            self.vanilla_cost_ms,
            None,
        )
    }
}

/// Most learning-curve records a plan reply carries over the v3 binary
/// framing. v1/v2 JSON replies carry the whole curve.
pub const SUMMARY_CURVE_POINTS: usize = 32;

/// The learning curve as a v3 plan reply carries it. A curve of at most
/// [`SUMMARY_CURVE_POINTS`] records is returned whole. A longer one of
/// `n` records keeps the records at positions `i·(n−1)/31` for `i` in
/// `0..32`: the first and last are kept, positions strictly increase,
/// and every kept record is a bit-identical copy with its own `episode`
/// index. A reply's `best.episodes` still counts every episode run.
pub fn summary_curve(curve: &[EpisodeRecord]) -> Vec<EpisodeRecord> {
    let n = curve.len();
    if n <= SUMMARY_CURVE_POINTS {
        return curve.to_vec();
    }
    (0..SUMMARY_CURVE_POINTS)
        // LINT-ALLOW(panic-path): `i < 32` makes the position at most
        // `n - 1`, in range by construction.
        .map(|i| curve[i * (n - 1) / (SUMMARY_CURVE_POINTS - 1)])
        .collect()
}

/// A copy of `report` with its curve summarised, cloning only the kept
/// records.
fn summary_report(report: &SearchReport) -> SearchReport {
    SearchReport {
        method: report.method.clone(),
        network: report.network.clone(),
        best_assignment: report.best_assignment.clone(),
        best_cost_ms: report.best_cost_ms,
        episodes: report.episodes,
        curve: summary_curve(&report.curve),
        wall_time_ms: report.wall_time_ms,
    }
}

fn plan_response(
    network: &str,
    plan_key: String,
    cache_hit: bool,
    best: SearchReport,
    outcome: &PortfolioOutcome,
    vanilla_cost_ms: f64,
    warm_start: Option<WarmStartInfo>,
) -> PlanResponse {
    PlanResponse {
        network: network.to_string(),
        plan_key,
        cache_hit,
        best,
        winner: outcome.winner.clone(),
        members: outcome.members.clone(),
        vanilla_cost_ms,
        warm_start,
        trace: None,
    }
}

fn error_response(e: ServeError) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

/// The search-side fields `Plan` and `Search` requests share.
struct SearchSpec<'a> {
    objective: Objective,
    episodes: usize,
    seeds: &'a [u64],
    transfer: TransferMode,
    /// Batch the LUT was profiled at; 0 = unknown (a client-supplied LUT).
    batch: usize,
    platform: &'a str,
}

/// One validated scenario's search ingredients, derived once per
/// full-path request and handed down the search path as a unit.
struct Scenario<'a> {
    lut: &'a CostLut,
    spec: &'a SearchSpec<'a>,
    /// The engaged platform. `None` on the registry default, which stays
    /// out of cache keys and descriptors so pre-registry addresses hold.
    platform: Option<&'a PlatformSpec>,
    /// `lut` scalarized under `objective`, shared with the search workers.
    scalarized: Arc<CostLut>,
    vanilla_cost_ms: f64,
    /// Cold plan key of (LUT, objective, portfolio, platform): the
    /// scenario's identity in the plan cache and the scenario index.
    base_key: String,
}

impl<'a> Scenario<'a> {
    fn new(
        lut: &'a CostLut,
        spec: &'a SearchSpec<'a>,
        platform: Option<&'a PlatformSpec>,
        portfolio: &Portfolio,
    ) -> Self {
        let scalarized = lut.with_objective(spec.objective);
        let pin = platform.map(|s| (s.name.as_str(), s.fingerprint()));
        Scenario {
            lut,
            spec,
            platform,
            vanilla_cost_ms: scalarized.cost(&scalarized.vanilla_assignment()),
            base_key: plan_key(
                lut.fingerprint(),
                &spec.objective,
                portfolio.fingerprint(),
                pin,
            ),
            scalarized: Arc::new(scalarized),
        }
    }

    /// The structural descriptor the scenario index measures distance
    /// on. An engaged platform adds its feature vector, so the platform
    /// term measures genuine spec divergence instead of the flat mismatch
    /// penalty — cross-platform neighbors become usable donors.
    fn describe(&self) -> ScenarioDescriptor {
        let d = ScenarioDescriptor::of(&self.scalarized)
            .with_batch(self.spec.batch)
            .with_objective(&self.spec.objective);
        match self.platform {
            Some(spec) => d.with_platform_features(spec.features()),
            None => d,
        }
    }

    fn response(
        &self,
        plan_key: String,
        cache_hit: bool,
        outcome: &PortfolioOutcome,
        warm_start: Option<WarmStartInfo>,
    ) -> PlanResponse {
        plan_response(
            self.lut.network(),
            plan_key,
            cache_hit,
            outcome.best.clone(),
            outcome,
            self.vanilla_cost_ms,
            warm_start,
        )
    }
}

/// A usable transfer donor: the indexed scenario, how far it is from the
/// requester, and its rebuilt Q-table mapped onto the requester's LUT.
struct Donor {
    entry: ScenarioEntry,
    distance: f64,
    warm: Arc<WarmStart>,
}

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
        let metrics = crate::metrics::ServeMetrics::new(
            config.instrument,
            config.slow_ms,
            Arc::clone(&recorder),
        );
        let threads = if config.threads == 0 {
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
            front: RwLock::new(HashMap::new()),
        }))
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
            write_platform(
                &mut h,
                engaged.then(|| (spec.name.as_str(), spec.fingerprint())),
            );
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

    /// Whether a request's `transfer` field engages the scenario index:
    /// transfer needs both opt-ins, the server policy and the request.
    fn transfer_on(&self, requested: TransferMode) -> bool {
        self.config.transfer == TransferMode::Auto && requested == TransferMode::Auto
    }

    /// The one plan-hit path: is this request a repeat whose plan is
    /// still fetchable? A shared read of the front and one counted
    /// [`PlanCache::peek_with_body`], which also fetches the body attached
    /// for `mode`, the framing the reply leaves in — no profile lookup,
    /// LUT, scalarization or fingerprint walk, in either transfer mode.
    /// Transfer is a policy for misses; all it asks of a hit is that the
    /// index already holds the scenario, and one it does not hold falls
    /// through to the full path, which registers it on first sight.
    ///
    /// `None` means the full path, whose reply re-primes the front. An
    /// entry whose plan is gone from both cache tiers is dropped here.
    fn plan_hit(
        &self,
        front_key: u64,
        transfer: TransferMode,
        mode: WireMode,
        span: &mut RequestSpan,
    ) -> Option<Answer> {
        let entry = Arc::clone(
            self.front
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&front_key)?,
        );
        self.task_stage(Stage::Cache);
        span.time(Stage::Cache, || {
            if self.transfer_on(transfer) && !self.index.contains(&entry.plan_key) {
                return None;
            }
            let Some((outcome, body)) = self.plans.peek_with_body(&entry.plan_key, mode) else {
                // An in-flight slot also reads as a miss; its plan is
                // about to exist again, so the entry stays.
                if !self.plans.is_pending(&entry.plan_key) {
                    self.front
                        .write()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&front_key);
                }
                return None;
            };
            Some(Answer::Hit {
                entry,
                outcome,
                body,
            })
        })
    }

    /// Primes the front from a full-path reply. Warm-started replies
    /// never register: their plans live under warm keys whose reuse is
    /// the scenario index's decision.
    fn remember(&self, front_key: u64, plan: &PlanResponse) {
        if plan.warm_start.is_some() {
            return;
        }
        let entry = Arc::new(FrontEntry {
            plan_key: plan.plan_key.clone(),
            network: plan.network.clone(),
            vanilla_cost_ms: plan.vanilla_cost_ms,
        });
        let mut front = self.front.write().unwrap_or_else(PoisonError::into_inner);
        if front.len() >= FRONT_CAP {
            front.clear();
        }
        front.insert(front_key, entry);
    }

    /// A zoo plan request end to end: the front first, and only on a
    /// front miss the full path — profile (cached), then search.
    fn plan(
        &self,
        req: &PlanRequest,
        mode: WireMode,
        span: &mut RequestSpan,
    ) -> Result<Answer, ServeError> {
        let front_key = front_key(req);
        if let Some(hit) = self.plan_hit(front_key, req.transfer, mode, span) {
            return Ok(hit);
        }
        let profile_req = ProfileRequest {
            network: req.network.clone(),
            batch: req.batch,
            mode: req.mode,
            repeats: 0,
            platform: req.platform.clone(),
        };
        let lut = span.time(Stage::Profile, || self.profile(&profile_req))?;
        let spec = SearchSpec {
            objective: req.objective,
            episodes: req.episodes,
            seeds: &req.seeds,
            transfer: req.transfer,
            batch: req.batch,
            platform: &req.platform,
        };
        let plan = self.run_search(&lut, &spec, span)?;
        self.remember(front_key, &plan);
        Ok(Answer::Response(Response::Plan(plan)))
    }

    /// The full path from a LUT: validate, derive the scenario, search.
    fn run_search(
        &self,
        lut: &CostLut,
        spec: &SearchSpec<'_>,
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
        let (platform, engaged) = self.platform_for(spec.platform)?;
        let episodes = match spec.episodes {
            0 => default_episodes(lut.len()),
            n => n,
        };
        let seeds = match spec.seeds {
            [] => &self.config.default_seeds[..],
            seeds => seeds,
        };
        let portfolio = Portfolio::paper_default(episodes, seeds);
        // Everything below is cache/index work except the portfolio run
        // inside `compute`, which records the `search` stage itself; the
        // remainder is the `cache` stage.
        let cache_start = Instant::now();
        self.task_stage(Stage::Cache);
        let scenario = Scenario::new(lut, spec, engaged.then_some(platform), &portfolio);
        let transfer = self.transfer_on(spec.transfer);
        let result = self.search(&portfolio, &scenario, transfer, span);
        let searched = span.stage_total(Stage::Search);
        span.record(Stage::Cache, cache_start.elapsed().saturating_sub(searched));
        result
    }

    /// The single-flight compute every miss ends in: `portfolio` on the
    /// scenario under `key`, warm-started when there is a donor. A
    /// portfolio with no applicable member (or whose every member
    /// panicked) is a request-level error — it answers the request rather
    /// than unwinding through the handler — and is never cached.
    fn compute(
        &self,
        portfolio: &Portfolio,
        scenario: &Scenario<'_>,
        key: &str,
        warm: Option<&Arc<WarmStart>>,
        span: &mut RequestSpan,
    ) -> Result<(Arc<PortfolioOutcome>, bool), ServeError> {
        let rec = self.metrics.recorder();
        if rec.enabled() {
            rec.task_key(u64::from_str_radix(key, 16).unwrap_or(0));
        }
        // The compute closure runs on this thread (single-flight), so a
        // Cell smuggles the search wall time out to the span; a cache hit
        // never runs it and records zero search.
        let search_time = std::cell::Cell::new(Duration::ZERO);
        let served = self.plans.try_get_or_compute(key, || {
            self.task_stage(Stage::Search);
            let search_start = Instant::now();
            let outcome =
                run_portfolio_parallel_with(portfolio, &scenario.scalarized, &self.pool, warm);
            search_time.set(search_start.elapsed());
            outcome.ok_or_else(|| {
                ServeError::Search(format!(
                    "no portfolio member produced a plan for `{}` \
                     (every member was inapplicable or failed)",
                    scenario.lut.network()
                ))
            })
        })?;
        span.record(Stage::Search, search_time.get());
        Ok(served)
    }

    /// The full plan path, for whatever the front did not answer:
    ///
    /// 1. exact content-address hit;
    /// 2. same-scenario hit via the index — a repeated warm scenario's
    ///    plan lives under a warm key only the index knows;
    /// 3. plan-cache miss: warm-start from the nearest usable cached
    ///    scenario (fetchable plan, non-empty transfer mapping);
    /// 4. no usable donor: cold search under the exact key.
    ///
    /// With `transfer` off every index step is skipped — no registration
    /// in 1, no 2 or 3, no insert after 4 — leaving exactly the
    /// pre-transfer path. With it on, every successful outcome
    /// (re-)registers the scenario so future neighbors can warm-start.
    fn search(
        &self,
        portfolio: &Portfolio,
        scenario: &Scenario<'_>,
        transfer: bool,
        span: &mut RequestSpan,
    ) -> Result<PlanResponse, ServeError> {
        let base_key = &scenario.base_key;
        if let Some(outcome) = self.plans.peek(base_key) {
            // Register the scenario on *first* sight only: re-inserting on
            // every repeated hit would re-extract the descriptor and
            // re-serialize it to the index's disk file per request.
            if transfer && !self.index.contains(base_key) {
                self.index.insert(
                    scenario.describe(),
                    base_key.clone(),
                    base_key.clone(),
                    None,
                );
            }
            return Ok(scenario.response(base_key.clone(), true, &outcome, None));
        }
        let mut registered = None;
        if transfer {
            if let Some(plan) = self.indexed_plan(scenario) {
                return Ok(plan);
            }
            let descriptor = scenario.describe();
            if let Some(donor) = self.find_donor(scenario, &descriptor) {
                return self.search_warm(portfolio, scenario, descriptor, donor, span);
            }
            registered = Some(descriptor);
        }
        let (outcome, cache_hit) = self.compute(portfolio, scenario, base_key, None, span)?;
        if let Some(descriptor) = registered {
            self.index
                .insert(descriptor, base_key.clone(), base_key.clone(), None);
        }
        Ok(scenario.response(base_key.clone(), cache_hit, &outcome, None))
    }

    /// Step 2 of [`ServiceState::search`]: the plan the index holds for
    /// exactly this scenario, under whatever key it lives.
    fn indexed_plan(&self, scenario: &Scenario<'_>) -> Option<PlanResponse> {
        let entry = self.index.lookup(&scenario.base_key)?;
        // The exact-key peek already failed, so a plan_key equal to
        // base_key means the plan is not fetchable right now.
        let cached = if entry.plan_key == scenario.base_key {
            None
        } else {
            self.plans.peek(&entry.plan_key)
        };
        let Some(outcome) = cached else {
            // Drop the entry only when its plan is definitively gone
            // from both tiers — a plan merely being recomputed (an
            // in-flight slot reads as a peek miss) keeps its index
            // entry for future donors.
            if !self.plans.is_pending(&entry.plan_key) {
                self.index.remove(&entry.plan_key);
            }
            return None;
        };
        if let Some(info) = &entry.warm_start {
            self.note_transfer(info.donor_distance);
        }
        Some(scenario.response(entry.plan_key, true, &outcome, entry.warm_start))
    }

    /// Step 3 of [`ServiceState::search`]: the nearest indexed scenario
    /// whose plan is fetchable and whose Q-values actually reach this
    /// scenario's candidates.
    fn find_donor(
        &self,
        scenario: &Scenario<'_>,
        descriptor: &ScenarioDescriptor,
    ) -> Option<Donor> {
        for (entry, distance) in
            self.index
                .nearest(descriptor, &scenario.base_key, DEFAULT_DONOR_CANDIDATES)
        {
            // Donor fetches are internal work, not answered requests:
            // `peek_quiet` keeps the cache's request counters honest.
            let Some(donor_outcome) = self.plans.peek_quiet(&entry.plan_key) else {
                // Mid-recompute is unusable this round but not stale;
                // gone from memory *and* disk, the index entry is stale
                // (eviction coupling with the cache).
                if !self.plans.is_pending(&entry.plan_key) {
                    self.index.remove(&entry.plan_key);
                }
                continue;
            };
            let mapping = TransferMapping::between(&entry.descriptor, descriptor);
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
            if QTable::new(&scenario.scalarized).transfer_from(&donor, &mapping) == 0 {
                continue;
            }
            return Some(Donor {
                entry,
                distance,
                warm: Arc::new(WarmStart { donor, mapping }),
            });
        }
        None
    }

    /// Warm-started compute under a donor-specific warm key — a warm plan
    /// never shares a cache key with the cold plan for the same scenario.
    fn search_warm(
        &self,
        portfolio: &Portfolio,
        scenario: &Scenario<'_>,
        descriptor: ScenarioDescriptor,
        donor: Donor,
        span: &mut RequestSpan,
    ) -> Result<PlanResponse, ServeError> {
        let (entry, distance) = (donor.entry, donor.distance);
        let warm_portfolio = portfolio.warmed();
        let warm_key = warm_plan_key(
            scenario.lut.fingerprint(),
            &scenario.spec.objective,
            warm_portfolio.fingerprint(),
            &entry.plan_key,
            scenario
                .platform
                .map(|s| (s.name.as_str(), s.fingerprint())),
        );
        let transferred_states = donor.warm.mapping.mapped_states();
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
        let (outcome, cache_hit) = self.compute(
            &warm_portfolio,
            scenario,
            &warm_key,
            Some(&donor.warm),
            span,
        )?;
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
            donor_network: entry.descriptor.network,
            donor_distance: distance,
            transferred_states,
            episodes,
        };
        self.index.insert(
            descriptor,
            scenario.base_key.clone(),
            warm_key.clone(),
            Some(info.clone()),
        );
        Ok(scenario.response(warm_key, cache_hit, &outcome, Some(info)))
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

    fn handle(&self, req: Request, mode: WireMode, span: &mut RequestSpan) -> Answer {
        self.requests.fetch_add(1, Ordering::Relaxed);
        Answer::Response(match req {
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
                Err(e) => error_response(e),
            },
            Request::Search(req) => {
                let spec = SearchSpec {
                    objective: req.objective,
                    episodes: req.episodes,
                    seeds: &req.seeds,
                    transfer: req.transfer,
                    batch: 0,
                    platform: &req.platform,
                };
                match self.run_search(&req.lut, &spec, span) {
                    Ok(plan) => Response::Plan(plan),
                    Err(e) => error_response(e),
                }
            }
            Request::Plan(req) => {
                return self
                    .plan(&req, mode, span)
                    .unwrap_or_else(|e| Answer::Response(error_response(e)))
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
        })
    }

    /// [`ServiceState::handle`] with a panic firewall, recording into a
    /// caller-owned span, for a reply in framing `mode`: a handler bug
    /// answers the request with an error instead of unwinding through
    /// the connection (v1) or silently leaking an in-flight permit (v2).
    /// The caller keeps timing the serialize/write stages and observes
    /// the span. When the request asked for a trace echo, the plan
    /// response carries the stages recorded so far.
    pub(crate) fn dispatch_spanned(
        &self,
        req: Request,
        mode: WireMode,
        span: &mut RequestSpan,
    ) -> Answer {
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
        let result = catch_unwind(AssertUnwindSafe(|| self.handle(req, mode, span)));
        let mut answer = match result {
            Ok(answer) => answer,
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
                Answer::Response(Response::Error {
                    message: format!("internal error: request handler panicked: {reason}"),
                })
            }
        };
        let plan_key = match &answer {
            Answer::Hit { entry, .. } => Some(&entry.plan_key),
            Answer::Response(Response::Plan(plan)) => Some(&plan.plan_key),
            Answer::Response(_) => None,
        };
        if let Some(plan_key) = plan_key {
            self.plans_served.fetch_add(1, Ordering::Relaxed);
            // Plan keys are 16 hex chars; packed, the span (and through it
            // the slow-request exemplar) names the actual plan served.
            let key = u64::from_str_radix(plan_key, 16).unwrap_or(0);
            span.set_key(key);
            if recorder.enabled() {
                recorder.task_key(key);
            }
        }
        recorder.task_clear();
        if span.trace_requested() {
            // The echo is per-request, so a traced hit is materialised.
            let mut resp = answer.into_response();
            if let Response::Plan(plan) = &mut resp {
                plan.trace = Some(span.trace_info());
            }
            answer = Answer::Response(resp);
        }
        answer
    }

    /// Serializes an answer into a reply body for framing `mode`: a v3
    /// body, or a JSON line's text without its envelope. Every plan reply
    /// on v3 carries its winner's curve as [`summary_curve`] renders it;
    /// a JSON one carries the whole curve. Nothing else differs.
    ///
    /// The first front hit of a residency in a framing pays one encode
    /// and attaches the bytes to the cache entry for that framing; every
    /// later one hands forward the body its peek already fetched — no
    /// [`PlanResponse`], no encode, no second lookup. Only front hits
    /// qualify, which keeps an attached body a pure function of the plan
    /// key and the framing: the per-request fields never get here as a
    /// hit (a traced reply is materialised first, a warm-started one never
    /// enters the front).
    pub(crate) fn render_body(
        &self,
        answer: Answer,
        mode: WireMode,
    ) -> Result<WireBody, ServeError> {
        match answer {
            Answer::Hit {
                body: Some(body), ..
            } => Ok(body),
            Answer::Hit {
                entry,
                outcome,
                body: None,
            } => {
                let mut body = match mode {
                    WireMode::Binary => {
                        let plan = entry.response(&outcome, summary_report(&outcome.best));
                        encode_body(&Response::Plan(plan))?
                    }
                    WireMode::Json => {
                        let plan = entry.response(&outcome, outcome.best.clone());
                        serde_json::to_vec(&Response::Plan(plan))
                            .map_err(|e| ServeError::Protocol(e.to_string()))?
                    }
                };
                // The body lives as long as the entry: no growth slack.
                body.shrink_to_fit();
                let body = Arc::new(body);
                // Best-effort: if the entry was evicted between the hit
                // and here, the attach is a no-op and the next residency
                // rebuilds the body — never a stale one.
                self.plans
                    .attach_body(&entry.plan_key, mode, Arc::clone(&body));
                Ok(body)
            }
            Answer::Response(mut resp) => Ok(Arc::new(match mode {
                WireMode::Binary => {
                    if let Response::Plan(plan) = &mut resp {
                        plan.best.curve = summary_curve(&plan.best.curve);
                    }
                    encode_body(&resp)?
                }
                WireMode::Json => {
                    serde_json::to_vec(&resp).map_err(|e| ServeError::Protocol(e.to_string()))?
                }
            })),
        }
    }

    /// Runs one parsed request end to end on the calling (dispatcher)
    /// thread: queue stage → [`ServiceState::dispatch_spanned`] → reply
    /// rendered for the framing and id the request arrived with. The one
    /// place requests become reply bytes.
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
        let answer = self.dispatch_spanned(req, mode, &mut span);
        let bytes = span.time(Stage::Serialize, || self.render_reply(id, mode, answer));
        Reply { id, bytes, span }
    }

    /// The bounded pool the reactor runs [`Job`]s on: one dispatcher per
    /// search worker, at least 4. Never the search pool — see the module
    /// docs.
    pub(crate) fn dispatcher_pool(&self) -> WorkerPool {
        let threads = self.pool.threads().max(4);
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

    /// [`ServiceState::render_body`] framed for `mode` — a binary frame
    /// header, or the JSON envelope and newline — ready for the socket.
    /// Infallible from the caller's view: a codec failure (unreachable for
    /// well-formed responses — guarded depths and `u32` lengths) degrades
    /// to an error reply naming it.
    fn render_reply(&self, id: Option<u64>, mode: WireMode, answer: Answer) -> Vec<u8> {
        let body = self.render_body(answer, mode);
        match mode {
            WireMode::Binary => match body.and_then(|body| encode_binary_frame(id, &body)) {
                Ok(frame) => frame,
                Err(e) => crate::protocol::binary_error_frame(id, &e.to_string()),
            },
            WireMode::Json => match body {
                Ok(body) => json_frame(id, &body),
                Err(e) => json_line(id, error_response(e)),
            },
        }
    }

    /// Publishes the stage this thread's task-table entry is in.
    fn task_stage(&self, stage: Stage) {
        let rec = self.metrics.recorder();
        if rec.enabled() {
            rec.task_stage(stage as u16 + 1);
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
    /// exemplars at the moment of death, plus enough identity (readiness
    /// backend, uptime, protocol version) to read the file in isolation.
    pub(crate) fn postmortem_dump(&self, reason: &str) -> PostmortemDump {
        let rec = self.metrics.recorder();
        PostmortemDump {
            reason: reason.to_string(),
            version: PROTOCOL_VERSION,
            uptime_ms: self.uptime_ms(),
            io: crate::reactor::BACKEND.to_string(),
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
    /// The filename deliberately ends in `.dump`: the spill tier's
    /// startup sweep deletes every `*.json` and `*.tmp` file in this
    /// directory and indexes (and eventually garbage-collects) every
    /// `*.plan` file as a cache entry.
    pub(crate) fn write_postmortem(&self, reason: &str) -> Option<std::path::PathBuf> {
        let dir = self.config.spill_dir.as_ref()?;
        let json = serde_json::to_string_pretty(&self.postmortem_dump(reason)).ok()?;
        let path = dir.join(format!("postmortem-{}.dump", std::process::id()));
        std::fs::write(&path, json).ok()?;
        Some(path)
    }

    /// Monotonic uptime; always at least 1 ms so "the server is up" reads
    /// as a nonzero value even in its first millisecond.
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
        for (cache, shards, spill_corrupt) in [
            ("plan", self.plans.shard_stats(), self.plans.spill_corrupt()),
            (
                "profile",
                self.profiles.shard_stats(),
                self.profiles.spill_corrupt(),
            ),
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
                (
                    "qsdnn_spill_corrupt_total",
                    "Spill records refused on reload (deleted and recomputed), by cache",
                    Kind::Counter,
                    vec![SampleSnapshot {
                        labels: vec![("cache".to_string(), cache.to_string())],
                        value: SampleValue::Counter(spill_corrupt),
                    }],
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

/// A running plan-compilation server.
pub struct PlanServer {
    state: Arc<ServiceState>,
    addr: SocketAddr,
    /// The reactor thread; `None` once stopped.
    reactor: Option<JoinHandle<()>>,
    waker: Waker,
    exposition: Option<MetricsExposition>,
}

impl PlanServer {
    /// Binds and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound, the spill directory cannot
    /// be created, or the readiness set cannot be opened.
    pub fn start(config: ServerConfig) -> Result<PlanServer, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = ServiceState::new(config)?;
        let (reactor, waker) = crate::reactor::start(listener, Arc::clone(&state))?;
        let mut server = PlanServer {
            state,
            addr,
            reactor: Some(reactor),
            waker,
            exposition: None,
        };
        // After the reactor so a bind failure tears the server down via
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

    /// Stops accepting and joins the reactor. It stops parsing new
    /// requests, lets in-flight ones finish and flushes their replies —
    /// for at most 5 s, after which whatever a stalled peer has not read
    /// is abandoned — then drains the dispatcher pool. No server thread
    /// outlives this call.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(reactor) = self.reactor.take() else {
            return;
        };
        // SeqCst: the reactor, dispatcher and exposition threads all poll
        // this flag; a total order guarantees none of them keeps admitting
        // work after any other thread observed shutdown.
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // The exposition accept loop re-checks the flag every tick.
        if let Some(mut exposition) = self.exposition.take() {
            exposition.join();
        }
        self.waker.wake();
        let _ = reactor.join();
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

    impl ServiceState {
        /// [`ServiceState::dispatch_spanned`] for direct callers: opens,
        /// observes and closes its own span (the reactor carries its spans
        /// across threads).
        fn dispatch(&self, req: Request) -> Response {
            let mut span = self.metrics.span(request_kind(&req));
            let answer = self.dispatch_spanned(req, WireMode::Json, &mut span);
            self.metrics.observe(&span);
            answer.into_response()
        }
    }

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
        let lut = branchy_lut();
        let spec = SearchSpec {
            objective: Objective::Latency,
            episodes: 0,
            seeds: &[],
            transfer: TransferMode::Off,
            batch: 1,
            platform: "",
        };
        let search = |portfolio: &Portfolio| {
            let scenario = Scenario::new(&lut, &spec, None, portfolio);
            state.search(portfolio, &scenario, false, &mut state.metrics.span("plan"))
        };
        let err = search(&portfolio).expect_err("no member applies");
        assert!(
            err.to_string().contains("no portfolio member"),
            "unexpected error: {err}"
        );
        // The failure must not have cached anything or leaked the
        // in-flight slot: an identical retry fails again promptly (a
        // leaked slot would deadlock this call in single-flight wait).
        let err = search(&portfolio).expect_err("still no member");
        assert!(matches!(err, ServeError::Search(_)));
        let stats = state.plans.stats();
        assert_eq!(stats.entries, 0, "failures are never cached");
        assert_eq!(stats.in_flight, 0, "failures release their slot");
        // The same state still serves a working portfolio afterwards.
        let ok = search(&Portfolio::paper_default(60, &[1])).expect("full portfolio applies");
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
    /// eligible hits and attaches the body to the cache entry once; that
    /// body is the summarised (v3) rendering.
    #[test]
    fn render_binary_body_caches_eligible_hits() {
        let state = ServiceState::new(ServerConfig::default()).expect("state");
        // A budget at which QS-DNN wins, so the winner has a curve to
        // summarise.
        let req = || {
            Request::Plan(PlanRequest {
                network: "tiny_cnn".into(),
                batch: 1,
                mode: Mode::Cpu,
                objective: Objective::Latency,
                episodes: 300,
                seeds: vec![1],
                transfer: TransferMode::Off,
                trace: false,
                platform: String::new(),
            })
        };
        let answer = |mode| state.dispatch_spanned(req(), mode, &mut state.metrics.span("plan"));
        // Cold: a full-path response, nothing attached.
        let cold = answer(WireMode::Binary);
        let cold_key = match &cold {
            Answer::Response(Response::Plan(p)) => {
                assert!(!p.cache_hit);
                p.plan_key.clone()
            }
            _ => panic!("expected a full-path plan response"),
        };
        let _ = state
            .render_body(cold, WireMode::Binary)
            .expect("cold renders");
        assert!(
            state.plans.wire_body(&cold_key).is_none(),
            "cold responses never attach a body"
        );
        // Hit: first render attaches, second serves the same allocation.
        let hit = answer(WireMode::Binary);
        assert!(
            matches!(&hit, Answer::Hit { body: None, .. }),
            "a repeat resolves through the front; no body yet"
        );
        let first = state
            .render_body(hit, WireMode::Binary)
            .expect("hit renders");
        assert!(state.plans.wire_body(&cold_key).is_some(), "hit attaches");
        let hit = answer(WireMode::Binary);
        assert!(
            matches!(&hit, Answer::Hit { body: Some(_), .. }),
            "the peek hands the attached body forward"
        );
        let second = state
            .render_body(hit, WireMode::Binary)
            .expect("hit renders");
        assert!(Arc::ptr_eq(&first, &second), "second hit is a cache fetch");

        // The JSON framing attaches its own body beside it: the v3 one
        // never answers a JSON hit, and the JSON one is the whole reply
        // as `serde_json` writes it.
        let hit = answer(WireMode::Json);
        assert!(
            matches!(&hit, Answer::Hit { body: None, .. }),
            "the v3 body is not handed to a JSON hit"
        );
        let json = state.render_body(hit, WireMode::Json).expect("hit renders");
        let again = state
            .render_body(answer(WireMode::Json), WireMode::Json)
            .expect("hit renders");
        assert!(
            Arc::ptr_eq(&json, &again),
            "second JSON hit is a cache fetch"
        );
        let whole = answer(WireMode::Json).into_response();
        assert_eq!(
            *json,
            serde_json::to_vec(&whole).expect("render"),
            "the JSON body is the whole reply"
        );
        let v3 = state.plans.wire_body(&cold_key).expect("still attached");
        assert!(Arc::ptr_eq(&v3, &first), "the JSON attach left the v3 body");

        // The cached bytes are what a fresh encode of the summarised
        // response produces.
        let mut typed = answer(WireMode::Binary).into_response();
        let Response::Plan(plan) = &mut typed else {
            panic!("expected a plan, got {typed:?}");
        };
        assert!(plan.cache_hit);
        assert_eq!(plan.best.curve.len(), 300, "the typed reply is whole");
        plan.best.curve = summary_curve(&plan.best.curve);
        let fresh = crate::protocol::encode_body(&typed).expect("encode");
        assert_eq!(*first, fresh, "cached body is bit-identical");
    }

    fn curve(n: usize) -> Vec<EpisodeRecord> {
        (0..n)
            .map(|episode| EpisodeRecord {
                episode,
                epsilon: 1.0 / (episode + 1) as f64,
                cost_ms: (episode as f64).sin(),
                best_so_far_ms: -(episode as f64),
            })
            .collect()
    }

    #[test]
    fn summary_curve_keeps_at_most_32_increasing_records_end_to_end() {
        for n in [0, 1, 31, 32, 33, 1000, 5680] {
            let full = curve(n);
            let summary = summary_curve(&full);
            assert_eq!(summary.len(), n.min(SUMMARY_CURVE_POINTS), "n={n}");
            assert!(
                summary.windows(2).all(|w| w[0].episode < w[1].episode),
                "n={n}: episodes strictly increase"
            );
            assert_eq!(summary.first(), full.first(), "n={n}: first kept");
            assert_eq!(summary.last(), full.last(), "n={n}: last kept");
            for r in &summary {
                let source = &full[r.episode];
                assert_eq!(r.epsilon.to_bits(), source.epsilon.to_bits(), "n={n}");
                assert_eq!(r.cost_ms.to_bits(), source.cost_ms.to_bits(), "n={n}");
                assert_eq!(
                    r.best_so_far_ms.to_bits(),
                    source.best_so_far_ms.to_bits(),
                    "n={n}"
                );
            }
        }
    }

    /// The panic firewall answers rather than unwinding: a handler panic
    /// becomes a `Response::Error` naming the reason, so the connection
    /// (and a v2 in-flight permit) survives.
    #[test]
    fn dispatch_turns_panics_into_error_responses() {
        // An empty default seed list makes `run_search` hand
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
