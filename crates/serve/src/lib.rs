//! # `qsdnn-serve` — the QS-DNN plan-compilation service
//!
//! The paper's pipeline (profile → Q-learning search) is a batch job; this
//! crate turns it into a long-lived, concurrent service in the spirit of
//! Marco et al.'s *Adaptive Model Selection* setting: many networks, many
//! objectives, many clients, one warm server.
//!
//! Five mechanisms do the work:
//!
//! * **Search portfolio** ([`run_portfolio_parallel`]) — every request
//!   races multi-seed QS-DNN against the baselines (random, annealing,
//!   chain DP, PBQP) on a [`WorkerPool`] of `std::thread` workers with
//!   channel fan-in. The reduction is deterministic (lowest cost, ties to
//!   the lowest member index), so a parallel run is bit-identical to the
//!   sequential reference [`qsdnn::Portfolio::run_sequential`].
//! * **Content-addressed plan cache** ([`PlanCache`]) — plans are keyed by
//!   a stable fingerprint of *(LUT, objective, portfolio spec)*, split over
//!   N independent shards (each its own lock, single-flight coalescing and
//!   hard capacity bound — in-flight computes included), evicted LRU,
//!   with a bounded, crash-safe, checksummed binary spill tier that
//!   survives restarts.
//! * **Scenario transfer** ([`ScenarioIndex`]) — every cached plan
//!   registers a structural [`ScenarioDescriptor`](qsdnn::engine::ScenarioDescriptor);
//!   a plan-cache miss warm-starts its search from the nearest cached
//!   scenario's plan (Q-table transfer with a shortened ε-schedule), so a
//!   batch sweep or platform variant stops being a cold start. Requests
//!   opt out with `transfer: "off"`, which is byte-identical to a
//!   transfer-free server.
//! * **TCP protocol** ([`protocol`]) — `profile`, `search`, `plan`,
//!   `stats` and the observability requests over plain `std::net`. Every
//!   connection starts as JSON lines, one document per line; since
//!   protocol v2 a client may wrap requests in tagged envelopes
//!   (`{"id":N,"req":{...}}`) to pipeline up to the server's in-flight cap
//!   over one connection, and a v3 handshake switches the connection to
//!   length-prefixed binary frames. The server replies to tagged requests
//!   out of order as searches finish, so a single connection can saturate
//!   the whole worker pool ([`PlanServer`] serves it, [`PlanClient`]
//!   speaks it: [`PlanClient::submit`]/[`PlanClient::wait`]/
//!   [`PlanClient::plan_many`]).
//! * **One connection layer** — the wire contract (handshake, v1 in-order
//!   pause, v2/v3 in-flight cap, JSON → binary switch, error and
//!   backpressure rules) is one socket-free state machine, and a single
//!   reactor thread drives every connection through it, so thousands of
//!   pipelined clients cost O(workers + dispatchers) threads, not
//!   O(connections); every request runs on one bounded dispatcher pool.
//!   The loop waits with `poll(2)` on every target — Linux, Android,
//!   Apple targets and the BSDs — through direct `extern "C"` FFI over
//!   `std::os::fd`. No other target builds the crate.
//!
//! # Quickstart
//!
//! ```
//! use qsdnn_serve::{PlanClient, PlanServer, ServerConfig};
//! use qsdnn_serve::protocol::PlanRequest;
//!
//! // Ephemeral port, worker pool sized to the machine.
//! let server = PlanServer::start(ServerConfig::default()).unwrap();
//! let mut client = PlanClient::connect(server.local_addr()).unwrap();
//!
//! let mut req = PlanRequest::latency("lenet5");
//! req.episodes = 200; // small budget to keep the doctest fast
//! let plan = client.plan(req.clone()).unwrap();
//! assert!(plan.speedup() > 1.0, "the plan must beat all-Vanilla");
//!
//! // Same scenario again: served from the content-addressed cache.
//! let again = client.plan(req).unwrap();
//! assert!(again.cache_hit);
//! assert_eq!(again.best.best_assignment, plan.best.best_assignment);
//!
//! // Pipeline a batch over the same connection (protocol v2): the server
//! // answers out of order as searches finish; `plan_many` hands the
//! // responses back in request order.
//! let mut a = PlanRequest::latency("tiny_cnn");
//! a.episodes = 150;
//! let mut b = PlanRequest::latency("toy_branchy");
//! b.episodes = 150;
//! let plans = client.plan_many(&[a, b]).unwrap();
//! assert_eq!(plans[0].network, "tiny_cnn");
//! assert_eq!(plans[1].network, "toy_branchy");
//! server.shutdown();
//! ```
//!
//! From the shell: `qsdnn-cli serve --addr 127.0.0.1:7878` and
//! `qsdnn-cli submit --addr 127.0.0.1:7878 --network mobilenet_v1`.

#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "dragonfly",
    target_os = "netbsd",
    target_os = "openbsd"
)))]
compile_error!(
    "qsdnn-serve builds on Linux, Android, Apple targets and the BSDs only: its reactor binds \
     poll(2) with those targets' nfds_t, and no Windows backend exists"
);

mod cache;
mod client;
mod codec;
mod conn;
mod exposition;
mod metrics;
mod pool;
mod portfolio;
pub mod protocol;
mod reactor;
mod server;
pub mod signals;
pub mod transfer;

pub use cache::{
    plan_key, warm_plan_key, CacheStats, CacheValue, PlanCache, ShardStats, WireBody,
    DEFAULT_MAX_DISK_ENTRIES, DEFAULT_MAX_ENTRIES, DEFAULT_SHARDS,
};
pub use client::{PlanClient, Ticket, DEFAULT_CLIENT_WINDOW};
pub use pool::{PoolGauges, PoolRecorder, WorkerPool};
pub use portfolio::{run_portfolio_parallel, run_portfolio_parallel_with, WarmStart};
pub use server::{
    resolve, start_local, summary_curve, PlanServer, ServerConfig, DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_SLOW_MS, SUMMARY_CURVE_POINTS,
};
pub use transfer::{ScenarioEntry, ScenarioIndex, DEFAULT_INDEX_ENTRIES};

use std::fmt;

/// Service-level error.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure.
    Io(std::io::Error),
    /// Malformed message or framing violation.
    Protocol(String),
    /// The peer reported an error.
    Remote(String),
    /// The request was invalid before any work started.
    BadRequest(String),
    /// The request was valid but the search produced no plan (e.g. no
    /// portfolio member was applicable, or every member failed).
    Search(String),
    /// Server construction failed (e.g. a malformed platform spec file or
    /// an unknown default platform) — reported before the listener binds.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Remote(m) => write!(f, "server error: {m}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Search(m) => write!(f, "search failed: {m}"),
            ServeError::Config(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
