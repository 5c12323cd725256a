//! C1k smoke test: 1000 concurrent pipelined connections against the
//! reactor, completing with a *bounded* thread count — O(workers +
//! dispatchers), not O(connections) — and answers bit-identical to the
//! single-threaded sequential reference.
//!
//! `#[ignore]`-gated: ~2000 sockets live in one process is a lot for a
//! default dev `ulimit`, so the CI release job runs it explicitly
//! (`cargo test -p qsdnn-serve --release --test c1k_e2e -- --ignored`).

#![cfg(target_os = "linux")]

use std::time::Duration;

use qsdnn::engine::{Mode, Objective};
use qsdnn::reproduce::lut;
use qsdnn::Portfolio;
use qsdnn_serve::protocol::{PlanRequest, TransferMode};
use qsdnn_serve::{PlanClient, PlanServer, ServerConfig, Ticket};

const CONNECTIONS: usize = 1000;
const NETWORKS: [&str; 2] = ["tiny_cnn", "toy_branchy"];
const EPISODES: usize = 160;
const SEEDS: [u64; 2] = [0x5EED, 17];

mod rlimit {
    use std::os::raw::c_int;

    const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }

    /// Raises the soft fd limit to `want` (bounded by the hard limit) and
    /// reports what is actually available.
    pub fn raise_nofile(want: u64) -> u64 {
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live, writable `#[repr(C)]` Rlimit matching
        // the kernel's struct rlimit layout (two u64s on 64-bit Linux).
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 0;
        }
        if lim.cur < want {
            let raised = Rlimit {
                cur: want.min(lim.max),
                max: lim.max,
            };
            // SAFETY: `raised` is a valid Rlimit read-only input; the
            // re-read passes the same live `lim` as above.
            unsafe { setrlimit(RLIMIT_NOFILE, &raised) };
            // SAFETY: same contract as the first `getrlimit` call.
            if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
                return 0;
            }
        }
        lim.cur
    }
}

/// `Threads:` from `/proc/self/status` — every thread in this process,
/// server and test harness included.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

fn request_for(i: usize) -> PlanRequest {
    PlanRequest {
        network: NETWORKS[i % NETWORKS.len()].to_string(),
        batch: 1,
        mode: Mode::Gpgpu,
        objective: Objective::Latency,
        episodes: EPISODES,
        seeds: SEEDS.to_vec(),
        transfer: TransferMode::Off,
        trace: false,
        platform: String::new(),
    }
}

fn sequential_reference(network: &str, profile_repeats: usize) -> qsdnn::PortfolioOutcome {
    let lut = lut(network, 1, Mode::Gpgpu, profile_repeats);
    let scalarized = lut.with_objective(Objective::Latency);
    Portfolio::paper_default(EPISODES, &SEEDS)
        .run_sequential(&scalarized)
        .expect("applicable members")
}

#[test]
#[ignore = "c1k smoke: needs ~2100 fds; run explicitly (CI release job does)"]
fn one_thousand_pipelined_connections_with_bounded_threads() {
    // ~2 sockets per connection (client + accepted) plus slack.
    let available = rlimit::raise_nofile(2 * CONNECTIONS as u64 + 256);
    if available < 2 * CONNECTIONS as u64 + 64 {
        eprintln!("skipping c1k: only {available} fds available (hard limit too low)");
        return;
    }

    // Four search workers, hence four dispatchers.
    let config = ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    };
    let profile_repeats = config.profile_repeats;
    let server = PlanServer::start(config).expect("start server");
    let addr = server.local_addr();
    let baseline_threads = process_threads();

    // Open all 1000 connections (each handshakes) and pipeline one tagged
    // plan request per connection without reading any reply — all 1000 in
    // flight against the server at once.
    let mut clients: Vec<(PlanClient, Ticket)> = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let mut client =
            PlanClient::connect(addr).unwrap_or_else(|e| panic!("connection {i} failed: {e}"));
        client
            .set_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        let ticket = client.submit_plan(request_for(i)).expect("submit");
        clients.push((client, ticket));
    }

    // The core claim: all 1000 connections are held by a readiness loop,
    // not a thread each. The whole process — 4 search workers, 4
    // dispatchers, the reactor, the test harness — stays two orders of
    // magnitude below thread-per-connection.
    let held = process_threads();
    assert!(
        held < 100,
        "{held} threads while holding {CONNECTIONS} connections \
         (baseline {baseline_threads}); thread-per-connection would be >1000"
    );

    // Every reply must be bit-identical to the sequential reference for
    // its scenario.
    let references: Vec<qsdnn::PortfolioOutcome> = NETWORKS
        .iter()
        .map(|n| sequential_reference(n, profile_repeats))
        .collect();
    for (i, (mut client, ticket)) in clients.into_iter().enumerate() {
        let plan = client
            .wait_plan(ticket)
            .unwrap_or_else(|e| panic!("connection {i} reply failed: {e}"));
        let reference = &references[i % NETWORKS.len()];
        assert_eq!(plan.network, NETWORKS[i % NETWORKS.len()]);
        assert_eq!(
            plan.best.best_assignment, reference.best.best_assignment,
            "connection {i}: plan diverged from the sequential reference"
        );
        assert_eq!(
            plan.best.best_cost_ms.to_bits(),
            reference.best.best_cost_ms.to_bits(),
            "connection {i}: cost must be bit-identical"
        );
        assert_eq!(plan.winner, reference.winner, "connection {i}");
    }

    // The cache coalesced the flood into one search per scenario.
    let mut observer = PlanClient::connect(addr).expect("observer");
    let stats = observer.stats().expect("stats");
    assert_eq!(stats.pipelined, CONNECTIONS as u64);
    assert_eq!(
        stats.plan_cache.misses,
        NETWORKS.len() as u64,
        "exactly one search per scenario"
    );
    assert_eq!(
        stats.plan_cache.hits + stats.plan_cache.coalesced + stats.plan_cache.spill_loads,
        (CONNECTIONS - NETWORKS.len()) as u64,
        "all other requests cache-served"
    );
    server.shutdown();
}
