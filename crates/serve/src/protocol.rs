//! Wire protocol of the plan-compilation service: JSON-lines over TCP.
//!
//! Every message is one JSON document on one `\n`-terminated line —
//! trivially debuggable with `nc` and framing-safe without length
//! prefixes (the serializer never emits raw newlines). Requests and
//! responses are externally-tagged enums, so a `plan` request reads as
//! `{"Plan":{...}}` on the wire.
//!
//! # Multiplexing (protocol v2)
//!
//! A bare request line keeps the v1 contract: the server answers it
//! in order, one at a time per connection. Wrapping a request in a
//! tagged envelope — `{"id":7,"req":{"Plan":{...}}}` — opts that request
//! into pipelining: the connection may hold up to the server's in-flight
//! cap of tagged requests at once, and the server replies
//! `{"id":7,"resp":{...}}` **as each search finishes**, out of order.
//! The two framings share a connection freely; framing-level errors
//! (malformed JSON) are answered with an untagged [`Response::Error`]
//! because no id could be recovered from the broken line.
//!
//! # Binary framing (protocol v3)
//!
//! A connection starts in JSON-lines mode. A **bare** `Ping` whose
//! `version` is at least [`BINARY_MIN_VERSION`] and accepted by the
//! server negotiates an upgrade: the server answers the `Pong` as the
//! connection's final JSON line, and every subsequent frame in *both*
//! directions is length-prefixed binary. v1/v2 clients never send such a
//! ping, so their JSON-lines contract is untouched on the same port.
//!
//! A binary frame is:
//!
//! ```text
//! magic  kind   body_len   [id]       body
//! 0xB3   u8     u32 LE     u64 LE     body_len bytes
//! ```
//!
//! `kind` 0x00 is a bare frame (no `id` field, v1 ordering semantics);
//! `kind` 0x01 is a tagged frame whose `id` correlates request and reply
//! exactly like the v2 JSON envelope — same in-flight cap, same
//! out-of-order completion. The body is the message as one
//! self-describing value — the same [`Value`] tree the JSON framing
//! serializes, so a decoded v3 response is bit-identical to its v2 twin,
//! with one difference by design: a v3 plan reply carries its winner's
//! learning curve down-sampled to at most
//! [`SUMMARY_CURVE_POINTS`](crate::SUMMARY_CURVE_POINTS) records
//! ([`summary_curve`](crate::summary_curve)); v1/v2 carry the whole
//! curve. A body that fails to decode is answered with an error frame (tagged
//! when the id survived) and the connection lives on — the length prefix
//! keeps framing in sync. A violated *header* (bad magic, unknown kind,
//! body length beyond the frame bound) is unrecoverable: one error frame,
//! then close.
//!
//! One writer turns every message into that value's bytes: the `Value`
//! tree ([`encode_body`]), the tree the JSON framing hands to `serde_json`.
//! Requests and the control-plane replies (`Stats`, `Metrics`, `Events`,
//! `Tasks`, `Platforms`, `Profile`, `Pong`, `Error`) are read back through
//! the tree too ([`decode_body`]); a plan reply, in either framing, is read
//! straight against [`PlanResponse`] ([`decode_response`],
//! [`parse_response_frame`]). Those typed readers accept what the tree
//! accepts, to `==` values, so the wire cannot tell which one read it. The
//! tag table, the codecs and the reader rule's fine print live in
//! `codec.rs`, re-exported here.

use std::io::{Read, Write};

use qsdnn::engine::{CostLut, Mode, Objective};
use qsdnn::{MemberSummary, SearchReport};
use serde::{Deserialize, Serialize, Value};

use crate::cache::{CacheStats, ShardStats};
pub use crate::codec::{decode_body, decode_response, decode_value, encode_body};
use crate::codec::{decode_json_plan_line, PlanLine};
use crate::ServeError;

/// Protocol revision; servers accept handshakes from
/// [`MIN_PROTOCOL_VERSION`] up to this revision.
pub const PROTOCOL_VERSION: u32 = 3;

/// Oldest client revision the server still speaks. v1 clients never send
/// tagged envelopes, so serving them needs no translation.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// First revision that negotiates length-prefixed binary framing: a bare
/// `Ping` handshake carrying at least this version switches the
/// connection out of JSON-lines mode once the `Pong` is on the wire.
pub const BINARY_MIN_VERSION: u32 = 3;

/// First byte of every binary frame. `0xB3` is a UTF-8 continuation
/// byte, so no JSON-lines frame can ever start with it — JSON text
/// arriving on a binary connection (and vice versa) is detected on the
/// first byte instead of producing a silently garbled parse.
pub const FRAME_MAGIC: u8 = 0xB3;

/// Hard bound on a single frame's payload, shared by both framings: the
/// JSON framing caps the line length, the binary codec caps the declared
/// body length.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Worst-case binary frame header: magic + kind + body length + tag id.
pub const BINARY_FRAME_OVERHEAD: usize = 1 + 1 + 4 + 8;

/// `kind` byte of a bare binary frame (v1 ordering semantics, no id).
const FRAME_KIND_BARE: u8 = 0x00;
/// `kind` byte of a tagged binary frame (pipelined, u64 id follows).
const FRAME_KIND_TAGGED: u8 = 0x01;

/// Whether a handshake at `version` upgrades the connection to binary
/// framing — true only when the server also accepts the version, which
/// the caller has already checked via the `Ping` reply.
pub fn negotiates_binary(version: u32) -> bool {
    (BINARY_MIN_VERSION..=PROTOCOL_VERSION).contains(&version)
}

/// Which framing a connection currently speaks. Every connection starts
/// as [`WireMode::Json`]; a successful v3 handshake flips it to
/// [`WireMode::Binary`] for the rest of the connection's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// JSON-lines framing (protocol v1/v2).
    Json,
    /// Length-prefixed binary framing (protocol v3+).
    Binary,
}

/// Default episode budget when a request passes `episodes == 0`.
pub fn default_episodes(layers: usize) -> usize {
    1000.max(40 * layers)
}

/// Per-request scenario-transfer policy.
///
/// `Auto` lets the server warm-start the search from the nearest cached
/// scenario when the exact plan is not cached (and the server has transfer
/// enabled); `Off` forces the exact cold path — byte-identical requests
/// and responses to a server without the transfer subsystem.
///
/// On the wire this is the lowercase string `"auto"` / `"off"`; an absent
/// field means `Auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// Warm-start from the nearest cached scenario on a plan-cache miss.
    #[default]
    Auto,
    /// Never consult the scenario index; search cold on every miss.
    Off,
}

impl TransferMode {
    /// Stable lowercase wire/CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            TransferMode::Auto => "auto",
            TransferMode::Off => "off",
        }
    }
}

// Hand-written serde: the vendored derive would emit the variant names
// (`"Auto"`), but the protocol promises lowercase `"auto"`/`"off"`.
impl Serialize for TransferMode {
    fn serialize(&self) -> Value {
        Value::String(self.label().to_string())
    }
}

impl Deserialize for TransferMode {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        match value {
            Value::String(s) => s.parse().map_err(|e: String| serde::Error::custom(&e)),
            _ => Err(serde::Error::custom("expected \"auto\" or \"off\"")),
        }
    }
}

impl std::str::FromStr for TransferMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(TransferMode::Auto),
            "off" => Ok(TransferMode::Off),
            other => Err(format!("unknown transfer mode `{other}` (auto|off)")),
        }
    }
}

impl std::fmt::Display for TransferMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Phase-1 profiling of a zoo network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileRequest {
    /// Zoo network name (e.g. `"mobilenet_v1"`). Absent = `""`, which the
    /// handler rejects as an unknown network — a clean error reply instead
    /// of a dropped frame.
    #[serde(default)]
    pub network: String,
    /// Batch size (≥1). Absent = 0, rejected by the handler.
    #[serde(default)]
    pub batch: usize,
    /// Processor mode. Genuinely mandatory: defaulting it would silently
    /// profile the wrong processor, worse than a parse error.
    // LINT-ALLOW(wire-compat)
    pub mode: Mode,
    /// Profiling repeats (0 = server default).
    #[serde(default)]
    pub repeats: usize,
    /// Registered platform to profile on (absent/empty = the server's
    /// default platform; list names with the `platforms` request).
    #[serde(default)]
    pub platform: String,
}

/// Portfolio search over a client-supplied LUT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchRequest {
    /// The Phase-1 LUT to search (profiled anywhere, e.g. on-device).
    /// Genuinely mandatory: the LUT *is* the request.
    // LINT-ALLOW(wire-compat)
    pub lut: CostLut,
    /// Objective to scalarize the LUT with. Genuinely mandatory:
    /// defaulting it would silently optimize the wrong thing.
    // LINT-ALLOW(wire-compat)
    pub objective: Objective,
    /// Episode budget per stochastic member (0 = server default).
    #[serde(default)]
    pub episodes: usize,
    /// QS-DNN seeds (empty = server default seeds).
    #[serde(default)]
    pub seeds: Vec<u64>,
    /// Scenario-transfer policy for this request (absent = `"auto"`).
    #[serde(default)]
    pub transfer: TransferMode,
    /// Echo this request's span timings in the response (absent = off).
    /// Tracing never changes the plan — only the response's `trace` field.
    #[serde(default)]
    pub trace: bool,
    /// Registered platform the supplied LUT was profiled for (absent/empty
    /// = the server's default platform). The LUT carries its own numbers —
    /// this only pins the plan's cache identity and the scenario-transfer
    /// descriptor to the right target.
    #[serde(default)]
    pub platform: String,
}

/// End-to-end plan compilation: profile (server-side, cached) + portfolio
/// search (cached).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Zoo network name. Absent = `""`, rejected by the handler as an
    /// unknown network.
    #[serde(default)]
    pub network: String,
    /// Batch size (≥1). Absent = 0, rejected by the handler.
    #[serde(default)]
    pub batch: usize,
    /// Processor mode. Genuinely mandatory: defaulting it would silently
    /// compile for the wrong processor.
    // LINT-ALLOW(wire-compat)
    pub mode: Mode,
    /// Objective to optimize. Genuinely mandatory: defaulting it would
    /// silently optimize the wrong thing.
    // LINT-ALLOW(wire-compat)
    pub objective: Objective,
    /// Episode budget per stochastic member (0 = server default).
    #[serde(default)]
    pub episodes: usize,
    /// QS-DNN seeds (empty = server default seeds).
    #[serde(default)]
    pub seeds: Vec<u64>,
    /// Scenario-transfer policy for this request (absent = `"auto"`).
    #[serde(default)]
    pub transfer: TransferMode,
    /// Echo this request's span timings in the response (absent = off).
    /// Tracing never changes the plan — only the response's `trace` field.
    #[serde(default)]
    pub trace: bool,
    /// Registered platform to compile for (absent/empty = the server's
    /// default platform; list names with the `platforms` request).
    #[serde(default)]
    pub platform: String,
}

impl PlanRequest {
    /// Latency plan for a network at batch 1 in GPGPU mode with server
    /// defaults — the common case.
    pub fn latency(network: impl Into<String>) -> Self {
        PlanRequest {
            network: network.into(),
            batch: 1,
            mode: Mode::Gpgpu,
            objective: Objective::Latency,
            episodes: 0,
            seeds: Vec::new(),
            transfer: TransferMode::Auto,
            trace: false,
            platform: String::new(),
        }
    }

    /// Pins the request to a registered platform.
    pub fn on_platform(mut self, platform: impl Into<String>) -> Self {
        self.platform = platform.into();
        self
    }
}

/// Client → server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Protocol handshake / liveness probe.
    Ping {
        /// Client protocol revision.
        version: u32,
    },
    /// Run Phase 1 on the server.
    Profile(ProfileRequest),
    /// Run the search portfolio on a supplied LUT.
    Search(SearchRequest),
    /// Profile + search, both cached.
    Plan(PlanRequest),
    /// Service counters.
    Stats,
    /// Full observability snapshot: every metric family with histogram
    /// quantiles (the wire twin of the Prometheus exposition endpoint).
    Metrics,
    /// The platform registry: every target this server can profile and
    /// compile for, with spec fingerprints.
    Platforms,
    /// The flight recorder's journal: every event still resident in the
    /// per-thread rings, plus the retained slow/panic exemplars.
    Events,
    /// The flight recorder's live task table: what every worker and
    /// dispatcher thread is doing right now.
    Tasks,
}

/// Protocol-v2 envelope: a request tagged with a connection-scoped id so
/// the server may answer out of order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedRequest {
    /// Client-chosen correlation id, echoed verbatim in the reply. Ids are
    /// scoped to the connection; reusing an id while its request is still
    /// in flight makes the two replies indistinguishable. Genuinely
    /// mandatory: a defaulted id could not be correlated — and `{"id":N}`
    /// with no `req` must stay a parse error, not an empty request (the
    /// framing tests pin this).
    // LINT-ALLOW(wire-compat)
    pub id: u64,
    /// The request itself. Genuinely mandatory — see `id`.
    // LINT-ALLOW(wire-compat)
    pub req: Request,
}

/// Protocol-v2 envelope: the reply to a [`TaggedRequest`] with the same id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedResponse {
    /// Correlation id copied from the request. Genuinely mandatory: an
    /// uncorrelatable reply is useless to a pipelining client.
    // LINT-ALLOW(wire-compat)
    pub id: u64,
    /// The response itself. Genuinely mandatory — see `id`.
    // LINT-ALLOW(wire-compat)
    pub resp: Response,
}

/// One parsed client → server line: either a bare v1 request or a v2
/// envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// Bare request — answered in order, one at a time (v1 semantics).
    Untagged(Request),
    /// Tagged request — pipelined, answered out of order (v2 semantics).
    Tagged(TaggedRequest),
}

/// One parsed server → client line: either a bare v1 response or a v2
/// envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseFrame {
    /// Reply to a bare request (or a framing-level error).
    Untagged(Response),
    /// Reply to a tagged request.
    Tagged(TaggedResponse),
}

/// An envelope is any JSON object carrying an `id` field; bare requests
/// and responses are externally-tagged enums whose single key is a variant
/// name, so the two framings can never collide.
fn is_envelope(v: &Value) -> bool {
    v.as_object()
        .is_some_and(|obj| Value::get_field(obj, "id").is_some())
}

/// Parses one wire line from a client into a [`RequestFrame`].
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for malformed JSON or an unknown
/// shape.
pub fn parse_request_frame(line: &str) -> Result<RequestFrame, ServeError> {
    let v = serde_json::parse(line.trim()).map_err(|e| ServeError::Protocol(e.to_string()))?;
    if is_envelope(&v) {
        serde_json::from_value::<TaggedRequest>(&v).map(RequestFrame::Tagged)
    } else {
        serde_json::from_value::<Request>(&v).map(RequestFrame::Untagged)
    }
    .map_err(|e| ServeError::Protocol(e.to_string()))
}

/// Parses one wire line from a server into a [`ResponseFrame`]. A plan
/// reply, bare or tagged, is read straight into [`PlanResponse`] by the
/// typed JSON codec; every other line goes through the `Value` tree. The
/// result is the tree's either way.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for malformed JSON or an unknown
/// shape; a refused plan reply names the byte it was refused at.
pub fn parse_response_frame(line: &str) -> Result<ResponseFrame, ServeError> {
    let line = line.trim();
    match decode_json_plan_line(line) {
        PlanLine::Plan(frame) => Ok(frame),
        PlanLine::Refused(e) => Err(e),
        PlanLine::Unsure(e) => parse_response_tree(line).map_err(|_| e),
        PlanLine::Other => parse_response_tree(line),
    }
}

fn parse_response_tree(line: &str) -> Result<ResponseFrame, ServeError> {
    let v = serde_json::parse(line).map_err(|e| ServeError::Protocol(e.to_string()))?;
    if is_envelope(&v) {
        serde_json::from_value::<TaggedResponse>(&v).map(ResponseFrame::Tagged)
    } else {
        serde_json::from_value::<Response>(&v).map(ResponseFrame::Untagged)
    }
    .map_err(|e| ServeError::Protocol(e.to_string()))
}

/// Result of a profile request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileResponse {
    /// The assembled LUT. Genuinely mandatory: the LUT *is* the reply, and
    /// a defaulted empty LUT would fail `validate()` far from the wire.
    // LINT-ALLOW(wire-compat)
    pub lut: CostLut,
    /// Stable content fingerprint of `lut` (hex).
    #[serde(default)]
    pub fingerprint: String,
}

/// Provenance of a warm-started plan: which cached scenario seeded the
/// search and how much it carried over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStartInfo {
    /// Cache key of the donor plan the Q-tables were seeded from.
    #[serde(default)]
    pub donor_key: String,
    /// Network name of the donor scenario.
    #[serde(default)]
    pub donor_network: String,
    /// Scenario distance between donor and this request (0 = identical
    /// descriptors; batch neighbors score fractions of 1).
    #[serde(default)]
    pub donor_distance: f64,
    /// Upper bound on Q-entries the transfer mapping covers.
    #[serde(default)]
    pub transferred_states: usize,
    /// Episode budget of the warm-started QS-DNN members (shorter than the
    /// cold budget — the point of warm-starting).
    #[serde(default)]
    pub episodes: usize,
}

/// One stage's share of a traced request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (`parse`, `queue`, `profile`, `cache`, `search`).
    #[serde(default)]
    pub stage: String,
    /// Time spent in the stage, milliseconds.
    #[serde(default)]
    pub ms: f64,
}

/// Echoed span timings for a `trace: true` request.
///
/// Only stages that complete before the response is built can appear;
/// `serialize` and `write` happen afterwards and land in the server's
/// histograms (and the slow-request log) instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceInfo {
    /// Stages with nonzero time, in pipeline order.
    #[serde(default)]
    pub stages: Vec<StageTiming>,
    /// Total span age when the response was built, milliseconds.
    #[serde(default)]
    pub total_ms: f64,
}

/// Result of a plan/search request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanResponse {
    /// Network the plan is for.
    #[serde(default)]
    pub network: String,
    /// Content address of this plan in the cache.
    #[serde(default)]
    pub plan_key: String,
    /// Whether the plan was served without running a fresh search.
    #[serde(default)]
    pub cache_hit: bool,
    /// The winning report (assignment, cost, curve). Genuinely mandatory:
    /// the report *is* the reply; a defaulted empty assignment would panic
    /// downstream instead of erroring at the wire. Over v3 its curve is
    /// the [`summary_curve`](crate::summary_curve) of the full one.
    // LINT-ALLOW(wire-compat)
    pub best: SearchReport,
    /// Label of the winning portfolio member.
    #[serde(default)]
    pub winner: String,
    /// Every member's summary, in portfolio order.
    #[serde(default)]
    pub members: Vec<MemberSummary>,
    /// Cost of the all-Vanilla reference on the same objective.
    #[serde(default)]
    pub vanilla_cost_ms: f64,
    /// Set when this plan came from a warm-started (scenario-transfer)
    /// search; `None` for cold searches and `transfer: "off"` requests.
    #[serde(default)]
    pub warm_start: Option<WarmStartInfo>,
    /// Span timings, echoed only for `trace: true` requests. Never part
    /// of the cached plan — two requests for the same plan differing only
    /// in `trace` get bit-identical plan content.
    #[serde(default)]
    pub trace: Option<TraceInfo>,
}

impl PlanResponse {
    /// Speed-up of the plan over the all-Vanilla reference.
    pub fn speedup(&self) -> f64 {
        if self.best.best_cost_ms > 0.0 {
            self.vanilla_cost_ms / self.best.best_cost_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Service counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Server protocol revision.
    #[serde(default)]
    pub version: u32,
    /// Milliseconds since the server started.
    #[serde(default)]
    pub uptime_ms: u64,
    /// Requests handled (any kind).
    #[serde(default)]
    pub requests: u64,
    /// Plan/search requests handled.
    #[serde(default)]
    pub plans: u64,
    /// Plan-cache counters, aggregated over shards.
    #[serde(default)]
    pub plan_cache: CacheStats,
    /// Per-shard plan-cache occupancy and counters, in shard order.
    #[serde(default)]
    pub plan_cache_shards: Vec<ShardStats>,
    /// Profile-cache counters, aggregated over shards.
    #[serde(default)]
    pub profile_cache: CacheStats,
    /// Per-shard profile-cache occupancy and counters, in shard order.
    #[serde(default)]
    pub profile_cache_shards: Vec<ShardStats>,
    /// Worker threads in the search pool.
    #[serde(default)]
    pub workers: u64,
    /// Tagged (protocol-v2) requests handled.
    #[serde(default)]
    pub pipelined: u64,
    /// Highest per-connection in-flight depth observed since start.
    #[serde(default)]
    pub in_flight_peak: u64,
    /// Per-connection cap on tagged requests in flight (the reader stops
    /// parsing once a connection reaches it, so TCP flow control
    /// backpressures the client).
    #[serde(default)]
    pub max_in_flight: u64,
    /// Server-wide scenario-transfer policy (`"auto"` or `"off"`).
    #[serde(default)]
    pub transfer: TransferMode,
    /// Plan requests answered via scenario transfer (a warm-started search
    /// or a cached warm plan) since start.
    #[serde(default)]
    pub transfer_hits: u64,
    /// Fresh warm-started portfolio searches executed since start.
    #[serde(default)]
    pub warm_starts: u64,
    /// Mean donor distance over all transfer hits (0 when none yet).
    #[serde(default)]
    pub mean_donor_distance: f64,
    /// Scenarios currently held in the transfer index.
    #[serde(default)]
    pub index_entries: u64,
    /// Transient `accept()` failures (e.g. fd exhaustion) since start.
    /// Each one triggers an acceptor back-off instead of a hot retry loop.
    #[serde(default)]
    pub accept_errors: u64,
}

/// One latency histogram on the wire: pre-computed quantiles plus the
/// sparse bucket table, so clients can merge and re-quantile snapshots
/// (`qsdnn_obs::HistogramSnapshot::from_raw`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramMsg {
    /// Number of recorded values.
    #[serde(default)]
    pub count: u64,
    /// Sum of recorded values, microseconds.
    #[serde(default)]
    pub sum_us: u64,
    /// Median estimate, microseconds.
    #[serde(default)]
    pub p50_us: u64,
    /// 90th percentile estimate, microseconds.
    #[serde(default)]
    pub p90_us: u64,
    /// 99th percentile estimate, microseconds.
    #[serde(default)]
    pub p99_us: u64,
    /// 99.9th percentile estimate, microseconds.
    #[serde(default)]
    pub p999_us: u64,
    /// Non-empty buckets as `(bucket_index, upper_bound_us, count)`
    /// triples in ascending order.
    #[serde(default)]
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramMsg {
    /// Builds the wire form of a histogram snapshot.
    pub fn from_snapshot(snap: &qsdnn_obs::HistogramSnapshot) -> Self {
        HistogramMsg {
            count: snap.count(),
            sum_us: snap.sum(),
            p50_us: snap.p50(),
            p90_us: snap.p90(),
            p99_us: snap.p99(),
            p999_us: snap.p999(),
            buckets: snap
                .nonzero_buckets()
                .into_iter()
                .map(|(i, upper, n)| (i as u64, upper, n))
                .collect(),
        }
    }

    /// Reconstructs a mergeable snapshot from the wire form.
    pub fn to_snapshot(&self) -> qsdnn_obs::HistogramSnapshot {
        let entries: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .map(|&(i, _, n)| (i as usize, n))
            .collect();
        qsdnn_obs::HistogramSnapshot::from_raw(&entries, self.sum_us)
    }
}

/// One labeled sample's value in a metrics snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Latency distribution.
    Histogram(HistogramMsg),
}

/// One labeled sample inside a metric family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Label key/value pairs.
    #[serde(default)]
    pub labels: Vec<(String, String)>,
    /// The sample's value. Genuinely mandatory: a sample without a value
    /// is not a sample, and `MetricValue` has no meaningful default.
    // LINT-ALLOW(wire-compat)
    pub value: MetricValue,
}

/// One named metric with all its labeled samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricFamily {
    /// Family name (e.g. `qsdnn_request_us`).
    #[serde(default)]
    pub name: String,
    /// Human-readable description.
    #[serde(default)]
    pub help: String,
    /// `"counter"`, `"gauge"` or `"histogram"`.
    #[serde(default)]
    pub kind: String,
    /// Samples in registration order.
    #[serde(default)]
    pub samples: Vec<MetricSample>,
}

/// Full observability snapshot (the `metrics` request's answer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Milliseconds since the server started (monotonic, ≥ 1).
    #[serde(default)]
    pub uptime_ms: u64,
    /// Every metric family the server exports.
    #[serde(default)]
    pub families: Vec<MetricFamily>,
}

impl MetricsResponse {
    /// Finds a family by name.
    pub fn family(&self, name: &str) -> Option<&MetricFamily> {
        self.families.iter().find(|f| f.name == name)
    }
}

/// One registered platform, as reported by the `platforms` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformInfo {
    /// Registry name — the string a request's `platform` field selects.
    #[serde(default)]
    pub name: String,
    /// Spec kind: `"analytical"` or `"measured"`.
    #[serde(default)]
    pub kind: String,
    /// Human-readable description from the spec.
    #[serde(default)]
    pub description: String,
    /// Spec content fingerprint (hex) — the value that joins this
    /// platform's plan and profile cache keys when it is selected
    /// explicitly.
    #[serde(default)]
    pub fingerprint: String,
    /// Whether this is the server's default platform (the one an absent
    /// `platform` field resolves to).
    #[serde(default)]
    pub is_default: bool,
    /// Whether the spec models a GPU (`false` means `"gpgpu"`-mode
    /// requests against this platform are rejected).
    #[serde(default)]
    pub gpu: bool,
}

/// Answer to the `platforms` request: the registry in name order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformsResponse {
    /// Every registered platform, sorted by name.
    #[serde(default)]
    pub platforms: Vec<PlatformInfo>,
}

impl PlatformsResponse {
    /// Finds a platform by registry name.
    pub fn platform(&self, name: &str) -> Option<&PlatformInfo> {
        self.platforms.iter().find(|p| p.name == name)
    }
}

/// One flight-recorder journal event on the wire (and in post-mortem
/// dump files).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventMsg {
    /// Microseconds since the recorder (≈ the server) started.
    #[serde(default)]
    pub ts_us: u64,
    /// Thread that emitted the event.
    #[serde(default)]
    pub thread: String,
    /// Event kind label (`request_begin`, `cache_hit`, `stage`, ...).
    #[serde(default)]
    pub event: String,
    /// Flight-recorder serial of the request the event belongs to
    /// (0 = not tied to a request).
    #[serde(default)]
    pub serial: u64,
    /// Subject cache key as its canonical 16-hex-digit string (empty =
    /// none).
    #[serde(default)]
    pub key: String,
    /// Kind-specific raw payload (e.g. stage id, pool id, distance in
    /// millionths).
    #[serde(default)]
    pub a: u64,
    /// Kind-specific raw payload (e.g. duration µs, shard index, queue
    /// depth).
    #[serde(default)]
    pub b: u64,
    /// Human decoding of the payloads (e.g. `stage=search 1532us`);
    /// empty when the payloads speak for themselves.
    #[serde(default)]
    pub detail: String,
}

/// One retained journal excerpt for a slow or panicked request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExemplarMsg {
    /// Request kind label (`plan`, `search`, ...).
    #[serde(default)]
    pub kind: String,
    /// The request's flight-recorder serial.
    #[serde(default)]
    pub serial: u64,
    /// End-to-end request duration, milliseconds.
    #[serde(default)]
    pub total_ms: f64,
    /// Plan key the request resolved to (empty when it never reached
    /// one).
    #[serde(default)]
    pub plan_key: String,
    /// Whether the capture was triggered by a handler panic rather than
    /// the slow threshold.
    #[serde(default)]
    pub panicked: bool,
    /// Per-stage breakdown decoded from the excerpt's `stage` events, in
    /// pipeline order.
    #[serde(default)]
    pub stages: Vec<StageTiming>,
    /// Every journal event carrying the request's serial, oldest first.
    #[serde(default)]
    pub events: Vec<EventMsg>,
}

/// Answer to the `events` request: journal dump plus exemplars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventsResponse {
    /// Whether the flight recorder is enabled at all.
    #[serde(default)]
    pub recorder_enabled: bool,
    /// Events ever recorded (resident + already overwritten).
    #[serde(default)]
    pub events_total: u64,
    /// Per-thread ring capacity (events retained per thread).
    #[serde(default)]
    pub ring_capacity: u64,
    /// Every event still resident in the rings, oldest first.
    #[serde(default)]
    pub events: Vec<EventMsg>,
    /// Retained slow/panic exemplars, by kind then capture time.
    #[serde(default)]
    pub exemplars: Vec<ExemplarMsg>,
}

/// One live thread in the task table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskMsg {
    /// Thread name (`qsdnn-worker-0`, `qsdnn-dispatch-1`, ...).
    #[serde(default)]
    pub thread: String,
    /// What the thread is doing: `idle`, a request kind (`plan`, ...),
    /// or a pool job (`search-job`, `dispatch-job`).
    #[serde(default)]
    pub state: String,
    /// Flight-recorder serial of the request being worked on (0 = none).
    #[serde(default)]
    pub serial: u64,
    /// Pipeline stage last reported (empty when idle / not staged).
    #[serde(default)]
    pub stage: String,
    /// Subject plan key, canonical hex (empty = none).
    #[serde(default)]
    pub key: String,
    /// Milliseconds the thread has been in this state.
    #[serde(default)]
    pub elapsed_ms: f64,
}

/// Answer to the `tasks` request: the live task table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TasksResponse {
    /// Whether the flight recorder is enabled at all.
    #[serde(default)]
    pub recorder_enabled: bool,
    /// Events ever recorded — delta this between polls for an event
    /// rate.
    #[serde(default)]
    pub events_total: u64,
    /// Every registered thread, in registration order.
    #[serde(default)]
    pub tasks: Vec<TaskMsg>,
}

/// The post-mortem dump a server writes under its spill dir on panic or
/// SIGTERM: the full flight-recorder state at the moment of death, as one
/// JSON document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PostmortemDump {
    /// Why the dump was written (`panic`, `sigterm`, `shutdown`).
    #[serde(default)]
    pub reason: String,
    /// Server protocol revision that wrote the dump.
    #[serde(default)]
    pub version: u32,
    /// Milliseconds the server had been up.
    #[serde(default)]
    pub uptime_ms: u64,
    /// Readiness backend the server's reactor ran on: `poll` (dumps from
    /// older servers may read `epoll` or `threads`).
    #[serde(default)]
    pub io: String,
    /// Events ever recorded.
    #[serde(default)]
    pub events_total: u64,
    /// The task table at the moment of death.
    #[serde(default)]
    pub tasks: Vec<TaskMsg>,
    /// Every event still resident in the rings, oldest first.
    #[serde(default)]
    pub events: Vec<EventMsg>,
    /// Retained slow/panic exemplars.
    #[serde(default)]
    pub exemplars: Vec<ExemplarMsg>,
}

/// Server → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake answer.
    Pong {
        /// Server protocol revision.
        version: u32,
    },
    /// Profile result.
    Profile(ProfileResponse),
    /// Plan/search result.
    Plan(PlanResponse),
    /// Counters.
    Stats(StatsResponse),
    /// Observability snapshot.
    Metrics(MetricsResponse),
    /// Platform registry listing.
    Platforms(PlatformsResponse),
    /// Flight-recorder journal dump.
    Events(EventsResponse),
    /// Flight-recorder live task table.
    Tasks(TasksResponse),
    /// Request-level failure (the connection stays usable).
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Writes one message as a JSON line.
///
/// # Errors
///
/// Propagates serialization and I/O failures.
pub fn write_message<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), ServeError> {
    let json = serde_json::to_string(msg).map_err(|e| ServeError::Protocol(e.to_string()))?;
    debug_assert!(
        !json.contains('\n'),
        "JSON-lines framing requires single-line docs"
    );
    w.write_all(json.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()?;
    Ok(())
}

/// Incremental frame splitter for both ends of a connection: the server's
/// connection state machine and [`crate::PlanClient`].
///
/// The reader appends whatever bytes the socket has;
/// [`FrameBuffer::next_frame`] hands back complete `\n`-terminated lines
/// one at a time, whatever the fragmentation — a frame split mid-byte of a
/// UTF-8 multibyte sequence, or right across the terminator, reassembles
/// identically because splitting happens on raw bytes and UTF-8
/// validation happens per complete frame. Blank (whitespace-only) lines
/// are keepalives and are skipped. [`FrameBuffer::next_binary_frame`] does
/// the same for v3 frames.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Received bytes are `buf[start..end]`. `buf[end..]` is initialized
    /// spare room that only [`FrameBuffer::fill_from`] leaves behind, so
    /// a blocking reader fills it in place with no zero-fill per read; a
    /// buffer fed by [`FrameBuffer::push`] alone never has any.
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so `next_frame` never
    /// memmoves per frame.
    start: usize,
    end: usize,
    /// How far [`FrameBuffer::next_frame`] has searched for a newline:
    /// `buf[start..scanned]` holds none, so a line arriving in many reads
    /// is scanned once, not once per read.
    scanned: usize,
}

/// Least room [`FrameBuffer::fill_from`] offers one `read`: a default
/// plan reply (93 KB at the median) arrives in two reads, not six.
const FILL_BYTES: usize = 64 * 1024;

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Drops the consumed prefix before the buffer grows, so a long-lived
    /// connection's buffer does not accumulate an unbounded one. The
    /// prefix must also cover at least half the received bytes:
    /// compacting a fixed-size prefix off a large parse backlog would
    /// memmove the whole tail over and over (O(n²) on the reactor
    /// thread); halving keeps the copy amortized O(1) per byte.
    fn compact(&mut self) {
        let worthwhile =
            self.start == self.end || (self.start >= 64 * 1024 && self.start * 2 >= self.end);
        if worthwhile {
            self.drop_consumed();
        }
    }

    /// Moves the received, unconsumed bytes to the front of `buf`.
    fn drop_consumed(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned = self.scanned.saturating_sub(self.start);
            self.start = 0;
        }
    }

    /// The received, not yet consumed bytes.
    fn pending(&self) -> &[u8] {
        self.buf.get(self.start..self.end).unwrap_or(&[])
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// Appends what one `read` on `r` returns, read straight into the
    /// buffer (at least 64 KiB of room, no intermediate chunk and
    /// no copy). Returns that read's count — `Ok(0)` is EOF. An error,
    /// a read timeout included, leaves the received bytes as they were.
    ///
    /// # Errors
    ///
    /// Propagates the reader's error.
    pub fn fill_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.compact();
        if self.buf.len() - self.end < FILL_BYTES {
            // Growth moves the consumed prefix along with everything else,
            // so drop it first: the buffer then stays within one partial
            // frame plus a read. Callers fill only when no whole frame is
            // buffered, so what moves here is at most one partial frame.
            self.drop_consumed();
        }
        if self.buf.len() - self.end < FILL_BYTES {
            self.buf.resize(self.end + FILL_BYTES, 0);
        }
        let n = r.read(self.buf.get_mut(self.end..).unwrap_or(&mut []))?;
        self.end += n;
        Ok(n)
    }

    /// Bytes received but not yet consumed as frames — the length of the
    /// (possibly still incomplete) data after the last extracted frame.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Whether the unconsumed bytes contain at least one line terminator
    /// (i.e. whether [`FrameBuffer::buffered`] growth is a single frame
    /// still in flight rather than a parse backlog).
    pub fn has_terminator(&self) -> bool {
        self.pending().contains(&b'\n')
    }

    /// Extracts the next complete, non-blank line (terminator stripped).
    /// Returns `None` when no complete line is buffered yet.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        loop {
            let pending = self.buf.get(self.start..self.end)?;
            let from = self.scanned.saturating_sub(self.start);
            let Some(rel) = pending
                .get(from..)
                .and_then(|unscanned| unscanned.iter().position(|&b| b == b'\n'))
                .map(|at| from + at)
            else {
                self.scanned = self.end;
                return None;
            };
            let line = pending.get(..rel).unwrap_or(&[]);
            // Strip an optional carriage return so `nc -C`-style clients
            // work, mirroring the `trim()` in `parse_request_frame`.
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let blank = line.iter().all(|b| b.is_ascii_whitespace());
            let frame = if blank { None } else { Some(line.to_vec()) };
            self.start += rel + 1;
            if let Some(frame) = frame {
                return Some(frame);
            }
            // Blank keepalive line: skip it and keep scanning.
        }
    }

    /// At EOF: takes a trailing unterminated line, if any, so a client
    /// that half-closes without a final `\n` still gets its last request
    /// answered.
    pub fn take_partial(&mut self) -> Option<Vec<u8>> {
        let tail = self.pending();
        let tail = tail.strip_suffix(b"\r").unwrap_or(tail);
        let frame = if tail.iter().all(|b| b.is_ascii_whitespace()) {
            None
        } else {
            Some(tail.to_vec())
        };
        self.start = 0;
        self.end = 0;
        self.scanned = 0;
        frame
    }

    /// Extracts the next complete binary frame, whatever the
    /// fragmentation — the header and body reassemble across arbitrary
    /// byte-boundary splits exactly like [`FrameBuffer::next_frame`]
    /// reassembles JSON lines. `max_body` bounds the *declared* body
    /// length, so a hostile length prefix is rejected before any body
    /// bytes are awaited (let alone buffered).
    pub fn next_binary_frame(&mut self, max_body: usize) -> BinaryFrameStatus {
        let pending = self.pending();
        let Some(&magic) = pending.first() else {
            return BinaryFrameStatus::NeedMore;
        };
        if magic != FRAME_MAGIC {
            return BinaryFrameStatus::Corrupt(format!(
                "protocol error: bad frame magic 0x{magic:02x} (expected 0x{FRAME_MAGIC:02x}); \
                 JSON lines are not valid on a binary connection"
            ));
        }
        let Some(&kind) = pending.get(1) else {
            return BinaryFrameStatus::NeedMore;
        };
        let tagged = match kind {
            FRAME_KIND_BARE => false,
            FRAME_KIND_TAGGED => true,
            other => {
                return BinaryFrameStatus::Corrupt(format!(
                    "protocol error: unknown frame kind 0x{other:02x}"
                ));
            }
        };
        let Some(len_bytes) = pending.get(2..6) else {
            return BinaryFrameStatus::NeedMore;
        };
        let Ok(len_arr) = <[u8; 4]>::try_from(len_bytes) else {
            return BinaryFrameStatus::NeedMore;
        };
        let body_len = u32::from_le_bytes(len_arr) as usize;
        if body_len > max_body {
            return BinaryFrameStatus::Corrupt(format!(
                "protocol error: declared frame body of {body_len} bytes exceeds the \
                 {max_body}-byte frame bound"
            ));
        }
        let header = if tagged { BINARY_FRAME_OVERHEAD } else { 6 };
        let id = if tagged {
            let Some(id_bytes) = pending.get(6..BINARY_FRAME_OVERHEAD) else {
                return BinaryFrameStatus::NeedMore;
            };
            let Ok(id_arr) = <[u8; 8]>::try_from(id_bytes) else {
                return BinaryFrameStatus::NeedMore;
            };
            Some(u64::from_le_bytes(id_arr))
        } else {
            None
        };
        let Some(body) = pending.get(header..header + body_len) else {
            return BinaryFrameStatus::NeedMore;
        };
        let body = body.to_vec();
        self.start += header + body_len;
        BinaryFrameStatus::Frame(BinaryFrame { id, body })
    }
}

// ---------------------------------------------------------------------------
// Binary framing (protocol v3)
// ---------------------------------------------------------------------------

/// One decoded binary frame: the optional pipelining id from the header
/// and the still-encoded message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryFrame {
    /// Tag id for pipelined frames; `None` for bare (v1-semantics) ones.
    pub id: Option<u64>,
    /// The codec-encoded message payload (see [`decode_body`]).
    pub body: Vec<u8>,
}

/// Outcome of [`FrameBuffer::next_binary_frame`].
#[derive(Debug)]
pub enum BinaryFrameStatus {
    /// The buffered bytes do not yet hold a complete frame.
    NeedMore,
    /// One complete frame, consumed from the buffer.
    Frame(BinaryFrame),
    /// The header violates the framing (bad magic, unknown kind, body
    /// length beyond the bound); the stream cannot be resynced.
    Corrupt(String),
}

/// Wraps an encoded body in a binary frame header — the one copy a
/// preserialized (cached) body pays on its way to the outbox.
///
/// # Errors
///
/// Fails when `body` is longer than a `u32` can declare.
pub fn encode_binary_frame(id: Option<u64>, body: &[u8]) -> Result<Vec<u8>, ServeError> {
    let len = u32::try_from(body.len())
        .map_err(|_| ServeError::Protocol("frame body exceeds u32 length".to_string()))?;
    let mut out = Vec::with_capacity(BINARY_FRAME_OVERHEAD + body.len());
    out.push(FRAME_MAGIC);
    match id {
        Some(id) => {
            out.push(FRAME_KIND_TAGGED);
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
        }
        None => {
            out.push(FRAME_KIND_BARE);
            out.extend_from_slice(&len.to_le_bytes());
        }
    }
    out.extend_from_slice(body);
    Ok(out)
}

/// Writes one message as a binary frame (tagged when `id` is given).
///
/// # Errors
///
/// Propagates codec and I/O failures.
pub fn write_binary_message<T: Serialize + ?Sized>(
    w: &mut impl Write,
    id: Option<u64>,
    msg: &T,
) -> Result<(), ServeError> {
    let body = encode_body(msg)?;
    let frame = encode_binary_frame(id, &body)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one binary frame from a blocking reader, surviving read
/// timeouts: partially received frames stay in `frames` and the next
/// call resumes them. `Ok(None)` is a clean EOF on a frame boundary.
///
/// # Errors
///
/// Propagates I/O failures (timeouts included — buffered bytes stay
/// valid) and framing violations, including EOF mid-frame (a binary
/// frame, unlike a JSON line, has an explicit length — a torn tail is
/// corruption, not a final request).
pub fn read_binary_frame_resumable(
    r: &mut impl std::io::Read,
    frames: &mut FrameBuffer,
    max_body: usize,
) -> Result<Option<BinaryFrame>, ServeError> {
    loop {
        match frames.next_binary_frame(max_body) {
            BinaryFrameStatus::Frame(frame) => return Ok(Some(frame)),
            BinaryFrameStatus::Corrupt(message) => return Err(ServeError::Protocol(message)),
            BinaryFrameStatus::NeedMore => {}
        }
        if frames.fill_from(r)? == 0 {
            return if frames.buffered() == 0 {
                Ok(None)
            } else {
                Err(ServeError::Protocol(
                    "connection closed mid-frame".to_string(),
                ))
            };
        }
    }
}

/// Encodes an error response as a complete binary frame, for reply
/// paths that must not themselves fail. A flat error object cannot trip
/// the codec's depth or length guards; if it somehow did, the empty
/// buffer tells the caller to write nothing rather than a torn frame.
pub(crate) fn binary_error_frame(id: Option<u64>, message: &str) -> Vec<u8> {
    let resp = Response::Error {
        message: message.to_string(),
    };
    encode_body(&resp)
        .and_then(|body| encode_binary_frame(id, &body))
        .unwrap_or_default()
}

/// Decodes a binary frame's body as a request, preserving the header id
/// as the v2-equivalent envelope.
///
/// # Errors
///
/// Fails on codec violations or an unknown request shape.
pub fn parse_binary_request(frame: &BinaryFrame) -> Result<RequestFrame, ServeError> {
    let req: Request = decode_body(&frame.body)?;
    Ok(match frame.id {
        Some(id) => RequestFrame::Tagged(TaggedRequest { id, req }),
        None => RequestFrame::Untagged(req),
    })
}

/// Decodes a binary frame's body as a response ([`decode_response`]: a
/// plan reply through the typed reader), preserving the header id.
///
/// # Errors
///
/// Fails on codec violations or an unknown response shape.
pub fn parse_binary_response(frame: &BinaryFrame) -> Result<ResponseFrame, ServeError> {
    let resp = decode_response(&frame.body)?;
    Ok(match frame.id {
        Some(id) => ResponseFrame::Tagged(TaggedResponse { id, resp }),
        None => ResponseFrame::Untagged(resp),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{
        encode_value_into, MAX_BINARY_DEPTH, TAG_ARRAY, TAG_NULL, TAG_OBJECT, TAG_STRING,
    };
    use qsdnn::engine::toy;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Ping {
                version: PROTOCOL_VERSION,
            },
            Request::Profile(ProfileRequest {
                network: "lenet5".into(),
                batch: 2,
                mode: Mode::Cpu,
                repeats: 5,
                platform: String::new(),
            }),
            Request::Search(SearchRequest {
                lut: toy::fig1_lut(),
                objective: Objective::Weighted { lambda: 0.5 },
                episodes: 300,
                seeds: vec![1, 2, 3],
                transfer: TransferMode::Off,
                trace: true,
                platform: "sim-gpu-heavy".into(),
            }),
            Request::Plan(PlanRequest::latency("mobilenet_v1")),
            Request::Plan(PlanRequest::latency("lenet5").on_platform("sim-cpu-only")),
            Request::Stats,
            Request::Metrics,
            Request::Platforms,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            assert!(!json.contains('\n'));
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::Plan(PlanResponse {
            network: "lenet5".into(),
            plan_key: "00ff".into(),
            cache_hit: true,
            best: SearchReport {
                method: "qs-dnn".into(),
                network: "lenet5".into(),
                best_assignment: vec![0, 1, 2],
                best_cost_ms: 1.25,
                episodes: 10,
                curve: Vec::new(),
                wall_time_ms: 3.5,
            },
            winner: "qs-dnn(seed=0x1)".into(),
            members: vec![MemberSummary {
                label: "pbqp".into(),
                best_cost_ms: Some(1.5),
                episodes: 0,
                wall_time_ms: 0.1,
            }],
            vanilla_cost_ms: 5.0,
            warm_start: Some(WarmStartInfo {
                donor_key: "00aa".into(),
                donor_network: "lenet5".into(),
                donor_distance: 0.5,
                transferred_states: 42,
                episodes: 250,
            }),
            trace: Some(TraceInfo {
                stages: vec![StageTiming {
                    stage: "search".into(),
                    ms: 12.5,
                }],
                total_ms: 13.0,
            }),
        });
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
        let err = Response::Error {
            message: "unknown network".into(),
        };
        let back: Response = serde_json::from_str(&serde_json::to_string(&err).unwrap()).unwrap();
        assert_eq!(err, back);
    }

    #[test]
    fn stats_response_roundtrips_with_shard_breakdown() {
        let shard = ShardStats {
            entries: 3,
            in_flight: 1,
            capacity: 512,
            hits: 10,
            misses: 4,
            coalesced: 2,
            spill_loads: 1,
            evictions: 5,
            capacity_stalls: 1,
        };
        let resp = Response::Stats(StatsResponse {
            version: PROTOCOL_VERSION,
            uptime_ms: 12,
            requests: 20,
            plans: 17,
            plan_cache: CacheStats {
                hits: 10,
                misses: 4,
                coalesced: 2,
                spill_loads: 1,
                entries: 3,
                in_flight: 1,
                evictions: 5,
                capacity_stalls: 1,
                shards: 2,
            },
            plan_cache_shards: vec![shard, shard],
            profile_cache: CacheStats {
                hits: 0,
                misses: 0,
                coalesced: 0,
                spill_loads: 0,
                entries: 0,
                in_flight: 0,
                evictions: 0,
                capacity_stalls: 0,
                shards: 2,
            },
            profile_cache_shards: Vec::new(),
            workers: 8,
            pipelined: 9,
            in_flight_peak: 5,
            max_in_flight: 32,
            transfer: TransferMode::Auto,
            transfer_hits: 3,
            warm_starts: 2,
            mean_donor_distance: 0.25,
            index_entries: 7,
            accept_errors: 1,
        });
        let json = serde_json::to_string(&resp).unwrap();
        assert!(!json.contains('\n'));
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn tagged_envelope_roundtrips_and_is_distinguishable() {
        let tagged = TaggedRequest {
            id: 41,
            req: Request::Plan(PlanRequest::latency("lenet5")),
        };
        let json = serde_json::to_string(&tagged).unwrap();
        assert!(json.starts_with("{\"id\":41,"), "{json}");
        match parse_request_frame(&json).unwrap() {
            RequestFrame::Tagged(back) => assert_eq!(back, tagged),
            other => panic!("envelope parsed as {other:?}"),
        }
        // The same request without the envelope parses as a v1 frame.
        let bare = serde_json::to_string(&tagged.req).unwrap();
        match parse_request_frame(&bare).unwrap() {
            RequestFrame::Untagged(back) => assert_eq!(back, tagged.req),
            other => panic!("bare request parsed as {other:?}"),
        }
        // Unit-variant requests serialize as strings, not objects; they
        // must still parse as v1 frames.
        match parse_request_frame("\"Stats\"").unwrap() {
            RequestFrame::Untagged(Request::Stats) => {}
            other => panic!("stats parsed as {other:?}"),
        }
        assert!(
            parse_request_frame("{\"id\":1}").is_err(),
            "envelope needs req"
        );
        assert!(parse_request_frame("{nope").is_err());
    }

    #[test]
    fn tagged_response_roundtrips() {
        let tagged = TaggedResponse {
            id: 7,
            resp: Response::Error {
                message: "nope".into(),
            },
        };
        let json = serde_json::to_string(&tagged).unwrap();
        match parse_response_frame(&json).unwrap() {
            ResponseFrame::Tagged(back) => assert_eq!(back, tagged),
            other => panic!("envelope parsed as {other:?}"),
        }
        let bare = serde_json::to_string(&tagged.resp).unwrap();
        match parse_response_frame(&bare).unwrap() {
            ResponseFrame::Untagged(back) => assert_eq!(back, tagged.resp),
            other => panic!("bare response parsed as {other:?}"),
        }
    }

    /// Decodes the next complete JSON line in `fb` as a request.
    fn next_request(fb: &mut FrameBuffer) -> Option<Request> {
        let line = fb.next_frame()?;
        Some(serde_json::from_slice(&line).expect("valid request line"))
    }

    #[test]
    fn framing_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Stats).unwrap();
        write_message(&mut buf, &Request::Ping { version: 1 }).unwrap();
        buf.extend_from_slice(b"\n\n"); // stray blank lines must be skipped
        write_message(&mut buf, &Request::Stats).unwrap();
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.fill_from(&mut buf.as_slice()).unwrap(), buf.len());
        assert_eq!(next_request(&mut fb), Some(Request::Stats));
        assert_eq!(next_request(&mut fb), Some(Request::Ping { version: 1 }));
        let c = next_request(&mut fb).expect("blank lines skipped");
        assert_eq!(c, Request::Stats);
        assert!(next_request(&mut fb).is_none());
        assert!(fb.take_partial().is_none(), "nothing trails the last line");
    }

    /// A reader that yields its chunks one `read` at a time, with a
    /// `WouldBlock` wherever a chunk is empty — the shape of a socket
    /// read timeout firing mid-line.
    struct Stutter(std::collections::VecDeque<Vec<u8>>);

    impl std::io::Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                Some(c) if c.is_empty() => {
                    Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
                }
                Some(c) => {
                    buf[..c.len()].copy_from_slice(&c);
                    Ok(c.len())
                }
                None => Ok(0),
            }
        }
    }

    /// The JSON twin of `resumable_binary_read_survives_a_timeout_mid_frame`,
    /// cut just after the lead byte of a two-byte character: a reader
    /// that validated UTF-8 per read would drop the head here.
    #[test]
    fn resumable_read_survives_a_timeout_mid_line() {
        let req = Request::Plan(PlanRequest::latency("señal"));
        let mut line = Vec::new();
        write_message(&mut line, &req).unwrap();
        let lead = line.iter().position(|&b| b == 0xC3).expect("ñ") + 1;
        let (head, tail) = line.split_at(lead);
        let mut r = Stutter(
            [head.to_vec(), Vec::new(), tail.to_vec()]
                .into_iter()
                .collect(),
        );
        let mut fb = FrameBuffer::new();
        // The head arrives, then the timeout fires: the head stays
        // buffered and no line is complete yet.
        assert_eq!(fb.fill_from(&mut r).unwrap(), head.len());
        assert!(fb.next_frame().is_none());
        let err = fb.fill_from(&mut r).expect_err("timeout propagates");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(fb.buffered(), head.len(), "partial line must be preserved");
        // The tail completes the message; then a clean EOF.
        assert_eq!(fb.fill_from(&mut r).unwrap(), tail.len());
        assert_eq!(next_request(&mut fb), Some(req));
        assert_eq!(fb.fill_from(&mut r).unwrap(), 0);
        assert!(fb.take_partial().is_none());
    }

    #[test]
    fn transfer_mode_is_lowercase_on_the_wire_and_defaults_to_auto() {
        assert_eq!(
            serde_json::to_string(&TransferMode::Auto).unwrap(),
            "\"auto\""
        );
        assert_eq!(
            serde_json::to_string(&TransferMode::Off).unwrap(),
            "\"off\""
        );
        let back: TransferMode = serde_json::from_str("\"off\"").unwrap();
        assert_eq!(back, TransferMode::Off);
        assert!(serde_json::from_str::<TransferMode>("\"maybe\"").is_err());
        assert_eq!("auto".parse::<TransferMode>().unwrap(), TransferMode::Auto);
        assert!("on".parse::<TransferMode>().is_err());

        // A v1 request without the field (old clients) parses as Auto, so
        // the wire stays backward compatible.
        let req = PlanRequest::latency("lenet5");
        let mut json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"transfer\":\"auto\""), "{json}");
        json = json.replace(",\"transfer\":\"auto\"", "");
        let back: PlanRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        // Likewise a pre-transfer response without `warm_start` parses.
        let resp = PlanResponse {
            network: "x".into(),
            plan_key: "k".into(),
            cache_hit: false,
            best: SearchReport {
                method: "m".into(),
                network: "x".into(),
                best_assignment: vec![0],
                best_cost_ms: 1.0,
                episodes: 1,
                curve: Vec::new(),
                wall_time_ms: 0.0,
            },
            winner: "m".into(),
            members: Vec::new(),
            vanilla_cost_ms: 2.0,
            warm_start: None,
            trace: None,
        };
        let json = serde_json::to_string(&resp)
            .unwrap()
            .replace(",\"warm_start\":null", "")
            .replace(",\"trace\":null", "");
        let back: PlanResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn frame_buffer_splits_on_newlines_whatever_the_fragmentation() {
        let mut fb = FrameBuffer::new();
        assert!(fb.next_frame().is_none());
        // One frame arriving a byte at a time.
        for b in b"{\"a\":1}" {
            fb.push(&[*b]);
            assert!(fb.next_frame().is_none(), "no terminator yet");
        }
        fb.push(b"\n");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"{\"a\":1}"[..]));
        assert!(fb.next_frame().is_none());
        // Several frames in one push, blank keepalives interleaved, CRLF
        // tolerated, and a trailing partial kept for later.
        fb.push(b"one\n\n  \r\ntwo\r\nthree");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"one"[..]));
        assert_eq!(fb.next_frame().as_deref(), Some(&b"two"[..]));
        assert!(fb.next_frame().is_none(), "`three` has no terminator");
        assert_eq!(fb.buffered(), 5);
        assert!(!fb.has_terminator());
        fb.push(b"!\n");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"three!"[..]));
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_survives_splits_inside_multibyte_utf8() {
        let line = "{\"net\":\"mobilé🔥\"}\n".as_bytes();
        for cut in 0..line.len() {
            let mut fb = FrameBuffer::new();
            fb.push(&line[..cut]);
            fb.push(&line[cut..]);
            let frame = fb.next_frame().expect("complete frame");
            assert_eq!(
                String::from_utf8(frame).expect("valid UTF-8"),
                "{\"net\":\"mobilé🔥\"}",
                "split at byte {cut}"
            );
        }
    }

    #[test]
    fn frame_buffer_hands_over_a_partial_line_at_eof() {
        let mut fb = FrameBuffer::new();
        fb.push(b"done\nhalf-a-request");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"done"[..]));
        assert_eq!(fb.take_partial().as_deref(), Some(&b"half-a-request"[..]));
        assert_eq!(fb.buffered(), 0);
        // Whitespace-only tails are keepalive noise, not a frame.
        fb.push(b"  \t ");
        assert!(fb.take_partial().is_none());
    }

    #[test]
    fn platform_field_is_optional_on_every_request_kind() {
        // Requests from clients predating the platform registry carry no
        // `platform` field; they must parse as the empty string (= the
        // server's default platform).
        let req = PlanRequest::latency("lenet5");
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"platform\":\"\""), "{json}");
        let stripped = json.replace(",\"platform\":\"\"", "");
        assert_ne!(stripped, json, "strip must remove the field");
        let back: PlanRequest = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, req);

        let profile = ProfileRequest {
            network: "lenet5".into(),
            batch: 1,
            mode: Mode::Cpu,
            repeats: 0,
            platform: String::new(),
        };
        let json = serde_json::to_string(&profile).unwrap();
        let back: ProfileRequest =
            serde_json::from_str(&json.replace(",\"platform\":\"\"", "")).unwrap();
        assert_eq!(back, profile);

        // And a pinned request keeps its platform through a roundtrip.
        let pinned = PlanRequest::latency("lenet5").on_platform("sim-gpu-heavy");
        let back: PlanRequest =
            serde_json::from_str(&serde_json::to_string(&pinned).unwrap()).unwrap();
        assert_eq!(back.platform, "sim-gpu-heavy");
    }

    #[test]
    fn platforms_listing_roundtrips() {
        let resp = Response::Platforms(PlatformsResponse {
            platforms: vec![
                PlatformInfo {
                    name: "sim-cpu-only".into(),
                    kind: "analytical".into(),
                    description: "big-core CPU, no GPU".into(),
                    fingerprint: "00ff00ff00ff00ff".into(),
                    is_default: false,
                    gpu: false,
                },
                PlatformInfo {
                    name: "sim-tx2".into(),
                    kind: "analytical".into(),
                    description: "calibrated Jetson TX2 model".into(),
                    fingerprint: "0123456789abcdef".into(),
                    is_default: true,
                    gpu: true,
                },
            ],
        });
        let json = serde_json::to_string(&resp).unwrap();
        assert!(!json.contains('\n'));
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
        if let Response::Platforms(ref list) = back {
            assert!(list.platform("sim-tx2").is_some_and(|p| p.is_default));
            assert!(list.platform("nope").is_none());
        }
    }

    #[test]
    fn speedup_is_vanilla_relative() {
        let mut resp = PlanResponse {
            network: "x".into(),
            plan_key: String::new(),
            cache_hit: false,
            best: SearchReport {
                method: "m".into(),
                network: "x".into(),
                best_assignment: vec![],
                best_cost_ms: 2.0,
                episodes: 0,
                curve: vec![],
                wall_time_ms: 0.0,
            },
            winner: String::new(),
            members: vec![],
            vanilla_cost_ms: 6.0,
            warm_start: None,
            trace: None,
        };
        assert!((resp.speedup() - 3.0).abs() < 1e-12);
        resp.best.best_cost_ms = 0.0;
        assert!(resp.speedup().is_infinite());
    }

    // -- binary framing (protocol v3) -----------------------------------

    fn sample_value() -> Value {
        Value::Object(vec![
            ("null".to_string(), Value::Null),
            ("no".to_string(), Value::Bool(false)),
            ("yes".to_string(), Value::Bool(true)),
            ("int".to_string(), Value::Int(-42)),
            ("big".to_string(), Value::UInt(u64::MAX)),
            ("float".to_string(), Value::Float(std::f64::consts::PI)),
            ("negzero".to_string(), Value::Float(-0.0)),
            (
                "text".to_string(),
                Value::String("héllo \"w\u{7}rld\"\n".to_string()),
            ),
            (
                "arr".to_string(),
                Value::Array(vec![
                    Value::Int(1),
                    Value::String(String::new()),
                    Value::Array(vec![]),
                    Value::Object(vec![]),
                ]),
            ),
        ])
    }

    #[test]
    fn binary_value_roundtrip_every_variant() {
        let v = sample_value();
        let mut out = Vec::new();
        encode_value_into(&v, &mut out, 0).unwrap();
        let back = decode_value(&out).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn binary_float_bits_survive() {
        for bits in [
            0u64,
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NAN.to_bits(),
            5e-324f64.to_bits(),
            1e300f64.to_bits(),
        ] {
            let v = Value::Float(f64::from_bits(bits));
            let mut out = Vec::new();
            encode_value_into(&v, &mut out, 0).unwrap();
            match decode_value(&out).unwrap() {
                Value::Float(f) => assert_eq!(f.to_bits(), bits),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_depth_guard_rejects_both_ways() {
        let mut deep = Value::Int(0);
        for _ in 0..(MAX_BINARY_DEPTH + 10) {
            deep = Value::Array(vec![deep]);
        }
        let mut out = Vec::new();
        assert!(encode_value_into(&deep, &mut out, 0).is_err());
        // Hand-build the same nesting on the wire so the decoder's own
        // guard is exercised, not just the encoder's.
        let mut wire = Vec::new();
        for _ in 0..(MAX_BINARY_DEPTH + 10) {
            wire.push(TAG_ARRAY);
            wire.extend_from_slice(&1u32.to_le_bytes());
        }
        wire.push(TAG_NULL);
        let err = decode_value(&wire).unwrap_err().to_string();
        assert!(err.contains("deep"), "unexpected error: {err}");
    }

    #[test]
    fn binary_decode_rejects_hostile_counts_and_tags() {
        // Array claiming u32::MAX elements with a 1-byte payload.
        let mut wire = vec![TAG_ARRAY];
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.push(TAG_NULL);
        assert!(decode_value(&wire).is_err());
        // Object claiming a huge field count.
        let mut wire = vec![TAG_OBJECT];
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_value(&wire).is_err());
        // Unknown tag.
        assert!(decode_value(&[0x77]).is_err());
        // Truncated string.
        let mut wire = vec![TAG_STRING];
        wire.extend_from_slice(&10u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        assert!(decode_value(&wire).is_err());
        // Invalid UTF-8 in a string.
        let mut wire = vec![TAG_STRING];
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_value(&wire).is_err());
        // Trailing bytes after a complete value.
        assert!(decode_value(&[TAG_NULL, TAG_NULL]).is_err());
    }

    /// A v3 plan reply with a `curve_len`-point curve, and the offset of
    /// the curve's array tag in its body. Every record is the same size.
    fn plan_reply_body(curve_len: usize) -> (Vec<u8>, usize) {
        let point = |episode| qsdnn::EpisodeRecord {
            episode,
            epsilon: 0.5,
            cost_ms: 2.0,
            best_so_far_ms: 1.0,
        };
        let body = encode_body(&Response::Plan(PlanResponse {
            network: "lenet5".into(),
            plan_key: "00ff".into(),
            cache_hit: true,
            best: SearchReport {
                method: "qs-dnn".into(),
                network: "lenet5".into(),
                best_assignment: vec![0, 1, 2],
                best_cost_ms: 1.0,
                episodes: curve_len,
                curve: (0..curve_len).map(point).collect(),
                wall_time_ms: 3.5,
            },
            winner: "qs-dnn(seed=0x1)".into(),
            members: Vec::new(),
            vanilla_cost_ms: 5.0,
            warm_start: None,
            trace: None,
        }))
        .unwrap();
        let key = b"\x05\0\0\0curve";
        let at = body.windows(key.len()).position(|w| w == key).unwrap();
        (body, at + key.len())
    }

    /// Where `{"Plan": {..}}` keeps the plan object's field count: after
    /// the outer tag, its count of 1, the 4-byte variant key and its own
    /// tag. The plan's fields run to the end of the body, so appending
    /// bytes and bumping this count appends a field.
    const PLAN_FIELD_COUNT_AT: usize = 1 + 4 + (4 + 4) + 1;

    fn with_extra_plan_field(mut body: Vec<u8>, key: &[u8], value: &[u8]) -> Vec<u8> {
        let count = &mut body[PLAN_FIELD_COUNT_AT];
        *count += 1;
        body.extend_from_slice(&(key.len() as u32).to_le_bytes());
        body.extend_from_slice(key);
        body.extend_from_slice(value);
        body
    }

    /// The client-side error contract: whatever a hostile server puts in
    /// a plan reply, the typed decoder answers `ServeError::Protocol`
    /// naming the byte, the class of outcome the tree decoder gave.
    #[track_caller]
    fn assert_plan_reply_rejected(body: Vec<u8>, why: &str) {
        assert!(
            decode_body::<Response>(&body).is_err(),
            "the tree decoder accepts this body (expected: {why})"
        );
        match parse_binary_response(&BinaryFrame { id: Some(1), body }) {
            Err(ServeError::Protocol(m)) => {
                assert!(m.starts_with("binary codec error at byte "), "{m}");
                assert!(m.contains(why), "expected `{why}`, got: {m}");
            }
            other => panic!("expected a protocol error ({why}), got {other:?}"),
        }
    }

    #[test]
    fn hostile_plan_replies_are_protocol_errors_naming_the_byte() {
        let (valid, curve_at) = plan_reply_body(2000);
        assert_eq!(valid[PLAN_FIELD_COUNT_AT - 1], TAG_OBJECT);
        assert_eq!(
            valid[PLAN_FIELD_COUNT_AT], 9,
            "PlanResponse has nine fields"
        );
        assert_eq!(valid[curve_at], TAG_ARRAY);
        assert!(parse_binary_response(&BinaryFrame {
            id: None,
            body: valid.clone()
        })
        .is_ok());

        // Array count larger than the remaining payload.
        let mut body = valid.clone();
        body[curve_at + 1..curve_at + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_plan_reply_rejected(body, "array count exceeds payload");

        // Object field count whose minimal fields (5 bytes each) cannot
        // fit in the payload.
        let mut body = valid.clone();
        let too_many = (valid.len() / 5 + 1) as u32;
        body[PLAN_FIELD_COUNT_AT..PLAN_FIELD_COUNT_AT + 4].copy_from_slice(&too_many.to_le_bytes());
        assert_plan_reply_rejected(body, "field count exceeds payload");

        // A depth bomb inside a field the typed decoder does not know
        // and so skips: the skip is held to the depth guard too.
        let mut bomb = Vec::new();
        for _ in 0..(MAX_BINARY_DEPTH + 10) {
            bomb.push(TAG_ARRAY);
            bomb.extend_from_slice(&1u32.to_le_bytes());
        }
        bomb.push(TAG_NULL);
        assert_plan_reply_rejected(
            with_extra_plan_field(valid.clone(), b"future", &bomb),
            "nesting too deep",
        );
        // ... while the same unknown field nested within the bound is
        // skipped, and the reply decodes to what it did without it.
        let shallow = &bomb[bomb.len() - 1 - 5 * 100..];
        assert_eq!(
            decode_response(&with_extra_plan_field(valid.clone(), b"future", shallow)).unwrap(),
            decode_response(&valid).unwrap()
        );

        // A key that is not UTF-8.
        assert_plan_reply_rejected(
            with_extra_plan_field(valid.clone(), &[0xff, 0xfe], &[TAG_NULL]),
            "object key is not valid UTF-8",
        );

        // Truncated inside the 1500th episode record.
        let record = (valid.len() - curve_at - 5) / 2000;
        let mut body = valid.clone();
        body.truncate(curve_at + 5 + 1499 * record + record / 2);
        assert_plan_reply_rejected(body, "truncated payload");

        // Trailing bytes after the value.
        let mut body = valid.clone();
        body.push(TAG_NULL);
        assert_plan_reply_rejected(body, "trailing bytes after value");

        // `best` is mandatory: its absence is an error, not a defaulted
        // empty assignment.
        let Value::Object(mut outer) = decode_value(&valid).unwrap() else {
            panic!("a response is an object");
        };
        let Value::Object(plan) = &mut outer[0].1 else {
            panic!("a plan is an object");
        };
        plan.retain(|(k, _)| k != "best");
        assert_plan_reply_rejected(
            encode_body(&Value::Object(outer)).unwrap(),
            "missing field `best` in PlanResponse",
        );
    }

    #[test]
    fn binary_request_roundtrips_match_json_decode() {
        let reqs = vec![
            Request::Ping {
                version: PROTOCOL_VERSION,
            },
            Request::Stats,
            Request::Plan(PlanRequest {
                network: "lenet5".into(),
                batch: 1,
                mode: Mode::Cpu,
                episodes: 120,
                seeds: vec![7, 8],
                objective: Objective::Latency,
                transfer: TransferMode::Auto,
                trace: false,
                platform: String::new(),
            }),
        ];
        for req in reqs {
            // Bare frame.
            let body = encode_body(&req).unwrap();
            let frame = encode_binary_frame(None, &body).unwrap();
            let mut fb = FrameBuffer::default();
            fb.push(&frame);
            let got = match fb.next_binary_frame(MAX_FRAME_BYTES) {
                BinaryFrameStatus::Frame(f) => f,
                other => panic!("expected frame, got {other:?}"),
            };
            assert_eq!(got.id, None);
            match parse_binary_request(&got).unwrap() {
                RequestFrame::Untagged(back) => {
                    assert_eq!(
                        serde_json::to_string(&back).unwrap(),
                        serde_json::to_string(&req).unwrap()
                    );
                }
                other => panic!("expected untagged, got {other:?}"),
            }
            // Tagged frame with the same body.
            let frame = encode_binary_frame(Some(99), &body).unwrap();
            let mut fb = FrameBuffer::default();
            fb.push(&frame);
            let got = match fb.next_binary_frame(MAX_FRAME_BYTES) {
                BinaryFrameStatus::Frame(f) => f,
                other => panic!("expected frame, got {other:?}"),
            };
            assert_eq!(got.id, Some(99));
        }
    }

    #[test]
    fn binary_frame_reassembles_from_any_split() {
        let resp = Response::Error {
            message: "split me".to_string(),
        };
        let body = encode_body(&resp).unwrap();
        let frame = encode_binary_frame(Some(3), &body).unwrap();
        for split in 0..=frame.len() {
            let mut fb = FrameBuffer::default();
            fb.push(&frame[..split]);
            if split < frame.len() {
                assert!(matches!(
                    fb.next_binary_frame(MAX_FRAME_BYTES),
                    BinaryFrameStatus::NeedMore
                ));
            }
            fb.push(&frame[split..]);
            let got = match fb.next_binary_frame(MAX_FRAME_BYTES) {
                BinaryFrameStatus::Frame(f) => f,
                other => panic!("split {split}: expected frame, got {other:?}"),
            };
            assert_eq!(got.id, Some(3));
            match parse_binary_response(&got).unwrap() {
                ResponseFrame::Tagged(t) => {
                    assert_eq!(t.id, 3);
                    assert!(matches!(t.resp, Response::Error { .. }));
                }
                other => panic!("expected tagged, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_header_violations_are_corrupt() {
        // JSON on a binary connection: '{' is not the magic.
        let mut fb = FrameBuffer::default();
        fb.push(b"{\"ping\":{\"version\":3}}\n");
        assert!(matches!(
            fb.next_binary_frame(MAX_FRAME_BYTES),
            BinaryFrameStatus::Corrupt(_)
        ));
        // Unknown kind byte.
        let mut fb = FrameBuffer::default();
        fb.push(&[FRAME_MAGIC, 0x7f, 0, 0, 0, 0]);
        assert!(matches!(
            fb.next_binary_frame(MAX_FRAME_BYTES),
            BinaryFrameStatus::Corrupt(_)
        ));
        // Declared body length beyond the bound — rejected from the
        // 6-byte header alone, before any body arrives.
        let mut fb = FrameBuffer::default();
        let mut hdr = vec![FRAME_MAGIC, 0x00];
        hdr.extend_from_slice(&(u32::MAX).to_le_bytes());
        fb.push(&hdr);
        match fb.next_binary_frame(MAX_FRAME_BYTES) {
            BinaryFrameStatus::Corrupt(msg) => {
                assert!(msg.contains("exceeds"), "message: {msg}");
                assert!(msg.contains("frame bound"), "message: {msg}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn binary_frames_interleave_with_json_on_separate_buffers() {
        // Two adjacent connections, one per framing, sharing nothing:
        // bytes split across pushes on both; each reassembles its own.
        let req = Request::Stats;
        let bin = encode_binary_frame(None, &encode_body(&req).unwrap()).unwrap();
        let json = format!("{}\n", serde_json::to_string(&req).unwrap());
        let mut fb_bin = FrameBuffer::default();
        let mut fb_json = FrameBuffer::default();
        for (b, j) in bin.iter().zip(json.bytes()) {
            fb_bin.push(&[*b]);
            fb_json.push(&[j]);
        }
        fb_json.push(&json.as_bytes()[bin.len().min(json.len())..]);
        fb_bin.push(&bin[json.len().min(bin.len())..]);
        assert!(matches!(
            fb_bin.next_binary_frame(MAX_FRAME_BYTES),
            BinaryFrameStatus::Frame(_)
        ));
        assert!(fb_json.next_frame().is_some());
    }

    #[test]
    fn resumable_binary_read_survives_a_timeout_mid_frame() {
        let resp = Response::Error {
            message: "x".repeat(3000),
        };
        let frame = encode_binary_frame(Some(5), &encode_body(&resp).unwrap()).unwrap();
        let (head, tail) = frame.split_at(frame.len() / 2);
        let mut r = Stutter(
            [head.to_vec(), Vec::new(), tail.to_vec()]
                .into_iter()
                .collect(),
        );
        let mut fb = FrameBuffer::new();
        // Half the frame arrives, then the timeout fires: the half stays
        // buffered, read in place by `fill_from`.
        let err = read_binary_frame_resumable(&mut r, &mut fb, MAX_FRAME_BYTES)
            .expect_err("timeout propagates");
        assert!(matches!(
            err,
            ServeError::Io(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
        ));
        assert_eq!(fb.buffered(), head.len(), "partial frame must be preserved");
        let got = read_binary_frame_resumable(&mut r, &mut fb, MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(got.id, Some(5));
        assert_eq!(decode_response(&got.body).unwrap(), resp);
        assert_eq!(fb.buffered(), 0);
    }

    /// A reader that hands out at most `.1` bytes per `read`, like a
    /// socket whose peer writes small segments.
    struct Trickle<'a>(&'a [u8], usize);

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.1.min(self.0.len()).min(buf.len());
            let (now, later) = self.0.split_at(n);
            buf[..n].copy_from_slice(now);
            self.0 = later;
            Ok(n)
        }
    }

    #[test]
    fn fill_from_compacts_so_a_long_stream_reuses_one_bounded_buffer() {
        // 300 frames of 40 KB through one buffer, 7000 bytes a read:
        // consumed prefixes pass the 64 KiB compaction threshold with a
        // partial frame behind them many times over.
        let bodies: Vec<Vec<u8>> = (0..300usize)
            .map(|i| (0..40_000).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        let stream: Vec<u8> = bodies
            .iter()
            .enumerate()
            .flat_map(|(i, body)| encode_binary_frame(Some(i as u64), body).unwrap())
            .collect();
        let mut r = Trickle(&stream, 7000);
        let mut fb = FrameBuffer::new();
        for (i, body) in bodies.iter().enumerate() {
            let got = read_binary_frame_resumable(&mut r, &mut fb, MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert_eq!(got.id, Some(i as u64));
            assert!(got.body == *body, "frame {i} mangled");
            assert!(
                fb.buf.len() <= 4 * FILL_BYTES,
                "frame {i}: buffer grew to {}",
                fb.buf.len()
            );
        }
        assert!(
            read_binary_frame_resumable(&mut r, &mut fb, MAX_FRAME_BYTES)
                .unwrap()
                .is_none()
        );
    }

    /// A large line, then a larger one whose head arrived in the same
    /// read as the first one's tail: growing for the second drops the
    /// consumed first, so the buffer ends no bigger than the larger line
    /// plus one read.
    #[test]
    fn fill_from_drops_the_consumed_prefix_before_it_grows() {
        let line = |len: usize, fill: u8| {
            let mut line = vec![fill; len];
            line.push(b'\n');
            line
        };
        let (first, second) = (line(275_000, b'a'), line(640_000, b'b'));
        let mut fb = FrameBuffer::new();
        let (head, tail) = second.split_at(400_000);
        fb.push(&first);
        fb.push(head);
        assert_eq!(fb.next_frame().map(|l| l.len()), Some(first.len() - 1));
        let mut r = Trickle(tail, FILL_BYTES);
        let got = loop {
            if let Some(got) = fb.next_frame() {
                break got;
            }
            assert!(fb.fill_from(&mut r).unwrap() > 0, "the line is complete");
        };
        assert_eq!(got.len(), second.len() - 1);
        assert!(
            fb.buf.len() <= second.len() + FILL_BYTES,
            "buffer grew to {} for a {}-byte line",
            fb.buf.len(),
            second.len()
        );
    }

    /// A line arriving in many reads is searched for its terminator once:
    /// each `next_frame` resumes where the last one stopped, through
    /// compactions and an EOF hand-over.
    #[test]
    fn next_frame_resumes_the_newline_search() {
        let mut fb = FrameBuffer::new();
        fb.push(&[b'x'; 70_000]);
        fb.push(b"\n");
        assert_eq!(fb.next_frame().map(|l| l.len()), Some(70_000));
        for chunk in [&b"{\"a\""[..], b":1", b"}"] {
            fb.push(chunk);
            assert!(fb.next_frame().is_none());
            assert_eq!(fb.scanned, fb.end, "the search stopped at the end");
        }
        fb.push(b"\nrest");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"{\"a\":1}"[..]));
        assert!(fb.next_frame().is_none());
        assert_eq!(fb.take_partial().as_deref(), Some(&b"rest"[..]));
        assert_eq!(fb.scanned, 0, "the hand-over resets the search");
        fb.push(b"next\n");
        assert_eq!(fb.next_frame().as_deref(), Some(&b"next"[..]));
    }

    #[test]
    fn read_binary_frame_resumable_handles_eof() {
        let resp = Response::Pong {
            version: PROTOCOL_VERSION,
        };
        let frame = encode_binary_frame(None, &encode_body(&resp).unwrap()).unwrap();
        // Clean EOF on a frame boundary.
        let mut cursor = std::io::Cursor::new(frame.clone());
        let mut fb = FrameBuffer::default();
        let got = read_binary_frame_resumable(&mut cursor, &mut fb, MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert!(got.id.is_none());
        assert!(
            read_binary_frame_resumable(&mut cursor, &mut fb, MAX_FRAME_BYTES)
                .unwrap()
                .is_none()
        );
        // EOF mid-frame is a protocol error, not a silent drop.
        let torn = &frame[..frame.len() - 1];
        let mut cursor = std::io::Cursor::new(torn.to_vec());
        let mut fb = FrameBuffer::default();
        let err = read_binary_frame_resumable(&mut cursor, &mut fb, MAX_FRAME_BYTES).unwrap_err();
        assert!(err.to_string().contains("mid-frame"), "error: {err}");
    }
}
