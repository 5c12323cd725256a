//! End-to-end acceptance test of the plan-compilation service: ≥32
//! concurrent `plan` requests over ≥3 zoo networks through a real TCP
//! server on an ephemeral port; the cache must report a nonzero hit rate
//! and every returned plan must be bit-identical to a single-threaded
//! `QsDnnSearch` portfolio run with the same seeds.

use std::collections::HashMap;

use qsdnn::engine::{Mode, Objective};
use qsdnn::reproduce::lut;
use qsdnn::Portfolio;
use qsdnn_serve::protocol::{PlanRequest, PlanResponse, TransferMode};
use qsdnn_serve::{PlanClient, PlanServer, ServerConfig, DEFAULT_SHARDS};

const NETWORKS: [&str; 3] = ["lenet5", "tiny_cnn", "toy_branchy"];
const CLIENTS_PER_NETWORK: usize = 12; // 36 concurrent requests total
const EPISODES: usize = 200;
const SEEDS: [u64; 2] = [0x5EED, 41];

fn request_for(network: &str) -> PlanRequest {
    PlanRequest {
        network: network.to_string(),
        batch: 1,
        mode: Mode::Gpgpu,
        objective: Objective::Latency,
        episodes: EPISODES,
        seeds: SEEDS.to_vec(),
        // This suite pins the *cold-path* contract: every plan
        // bit-identical to the sequential reference regardless of arrival
        // order. Scenario transfer (tested in transfer_e2e.rs) would let
        // whichever network finishes first donate to the others.
        transfer: TransferMode::Off,
        trace: false,
        platform: String::new(),
    }
}

/// The single-threaded reference the server must reproduce bit-for-bit:
/// profile with the server's default repeats, scalarize, run the portfolio
/// sequentially.
fn sequential_reference(network: &str, profile_repeats: usize) -> qsdnn::PortfolioOutcome {
    let lut = lut(network, 1, Mode::Gpgpu, profile_repeats);
    let scalarized = lut.with_objective(Objective::Latency);
    Portfolio::paper_default(EPISODES, &SEEDS)
        .run_sequential(&scalarized)
        .expect("applicable members")
}

#[test]
fn thirty_six_concurrent_plans_over_three_networks() {
    let config = ServerConfig::default();
    let profile_repeats = config.profile_repeats;
    let server = PlanServer::start(config).expect("bind ephemeral port");
    let addr = server.local_addr();

    // Fan out: one OS thread per client connection, all planning at once.
    let mut handles = Vec::new();
    for network in NETWORKS {
        for _ in 0..CLIENTS_PER_NETWORK {
            handles.push(std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                client.plan(request_for(network)).expect("plan request")
            }));
        }
    }
    let responses: Vec<PlanResponse> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(responses.len(), NETWORKS.len() * CLIENTS_PER_NETWORK);

    // Every response for one network must be the same plan, and that plan
    // must match the single-threaded reference bit-for-bit.
    let mut by_network: HashMap<String, Vec<PlanResponse>> = HashMap::new();
    for r in responses {
        by_network.entry(r.network.clone()).or_default().push(r);
    }
    assert_eq!(by_network.len(), NETWORKS.len());
    for network in NETWORKS {
        let group = &by_network[network];
        assert_eq!(group.len(), CLIENTS_PER_NETWORK);
        let reference = sequential_reference(network, profile_repeats);
        for resp in group {
            assert_eq!(
                resp.best.best_assignment, reference.best.best_assignment,
                "{network}: served plan must equal the sequential portfolio"
            );
            assert_eq!(
                resp.best.best_cost_ms.to_bits(),
                reference.best.best_cost_ms.to_bits(),
                "{network}: cost must be bit-identical"
            );
            assert_eq!(resp.winner, reference.winner, "{network}");
            assert!(
                resp.speedup() >= 1.0,
                "{network}: plan can never lose to vanilla"
            );
        }
        // All 12 responses share one plan key (content addressing).
        assert!(group.windows(2).all(|w| w[0].plan_key == w[1].plan_key));
    }

    // The cache must have coalesced/served most of the 36 requests: exactly
    // one fresh search per network.
    let mut client = PlanClient::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.plan_cache.misses,
        NETWORKS.len() as u64,
        "one search per scenario"
    );
    let served_without_search =
        stats.plan_cache.hits + stats.plan_cache.coalesced + stats.plan_cache.spill_loads;
    assert_eq!(
        served_without_search,
        (NETWORKS.len() * (CLIENTS_PER_NETWORK - 1)) as u64,
        "all other requests must be cache-served"
    );
    assert!(
        stats.plan_cache.hit_rate() > 0.5,
        "hit rate {}",
        stats.plan_cache.hit_rate()
    );
    assert!(stats.requests > 36 + 36, "pings + plans + stats");

    server.shutdown();
}

#[test]
fn distinct_objectives_get_distinct_plans_and_keys() {
    let server = PlanServer::start(ServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");

    let mut latency_req = request_for("mobilenet_v1");
    latency_req.episodes = 300;
    let mut energy_req = latency_req.clone();
    energy_req.objective = Objective::Energy;

    let latency = client.plan(latency_req).expect("latency plan");
    let energy = client.plan(energy_req).expect("energy plan");
    assert_ne!(
        latency.plan_key, energy.plan_key,
        "objective is part of the address"
    );
    assert!(!latency.cache_hit && !energy.cache_hit);
    assert!(
        latency.best.best_cost_ms != energy.best.best_cost_ms,
        "different objectives score differently"
    );
    server.shutdown();
}

#[test]
fn search_request_plans_a_client_profiled_lut() {
    // The `search` path serves LUTs profiled anywhere — e.g. measured on a
    // real device — not just the server's own zoo profiles.
    let server = PlanServer::start(ServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");

    let lut = lut("tiny_cnn", 1, Mode::Cpu, 3);
    let first = client
        .search(lut.clone(), Objective::Latency, 150, vec![7])
        .expect("search request");
    assert!(!first.cache_hit);
    assert_eq!(first.network, "tiny_cnn");

    // Identical LUT content → same plan key → cache hit, identical plan.
    let second = client
        .search(lut, Objective::Latency, 150, vec![7])
        .expect("repeat search");
    assert!(second.cache_hit, "content-addressed: same LUT bytes hit");
    assert_eq!(first.best, second.best);
    server.shutdown();
}

#[test]
fn bad_requests_get_error_responses_not_disconnects() {
    let server = PlanServer::start(ServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let err = client
        .plan(request_for("no_such_network"))
        .expect_err("must fail");
    assert!(err.to_string().contains("unknown network"), "{err}");
    // The connection survives the error.
    let ok = client.plan(request_for("tiny_cnn"));
    assert!(ok.is_ok(), "connection must remain usable after an error");
    server.shutdown();
}

#[test]
fn malformed_lut_in_search_request_is_rejected_cleanly() {
    // A wire LUT bypasses `CostLut::from_parts`; broken invariants must
    // become an Error response, not a panicked connection thread.
    let server = PlanServer::start(ServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");

    let good = lut("tiny_cnn", 1, Mode::Cpu, 2);
    // Corrupt it through the wire representation: truncate one layer's
    // time vector so arities no longer match.
    let mut json = serde_json::to_string(&good).expect("serializes");
    let needle = "\"time_ms\":[";
    let start = json.find(needle).expect("has times") + needle.len();
    let end = start + json[start..].find(']').expect("closes");
    // Three times on the single-candidate input layer: arity mismatch.
    json.replace_range(start..end, "1.0,2.0,3.0");
    let bad: qsdnn::engine::CostLut = serde_json::from_str(&json).expect("still parses");

    let err = client
        .search(bad, Objective::Latency, 100, vec![1])
        .expect_err("malformed LUT must be rejected");
    assert!(err.to_string().contains("invalid LUT"), "{err}");
    // The connection — and the server — survive.
    let ok = client.plan(request_for("tiny_cnn"));
    assert!(ok.is_ok(), "connection must remain usable after a bad LUT");
    server.shutdown();
}

#[test]
fn shutdown_joins_idle_connection_handlers() {
    // Regression: handler threads used to be detached, so `shutdown`
    // returned while handlers sat blocked in `read` forever. Now an idle
    // open connection must be wound down — its handler observes the flag
    // via the read timeout, exits, and the socket closes.
    let server = PlanServer::start(ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut idle = PlanClient::connect(addr).expect("connect");
    idle.set_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("client timeout");
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "shutdown must not hang on the idle connection"
    );
    // The handler is gone, so the next request fails (EOF or reset)
    // instead of being silently served by a leaked thread.
    let after = idle.stats();
    assert!(after.is_err(), "handler must not outlive the server");
}

#[test]
fn stats_expose_per_shard_cache_breakdown() {
    let server = PlanServer::start(ServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    for network in NETWORKS {
        client.plan(request_for(network)).expect("plan");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.plan_cache.shards, DEFAULT_SHARDS as u64);
    assert_eq!(stats.plan_cache_shards.len(), DEFAULT_SHARDS);
    assert_eq!(stats.profile_cache_shards.len(), DEFAULT_SHARDS);
    // The per-shard breakdown must sum to the aggregate counters.
    let shard_entries: u64 = stats.plan_cache_shards.iter().map(|s| s.entries).sum();
    assert_eq!(shard_entries, stats.plan_cache.entries);
    assert_eq!(shard_entries, NETWORKS.len() as u64);
    let shard_misses: u64 = stats.plan_cache_shards.iter().map(|s| s.misses).sum();
    assert_eq!(shard_misses, stats.plan_cache.misses);
    for s in &stats.plan_cache_shards {
        assert!(s.entries + s.in_flight <= s.capacity, "bound per shard");
        assert!(s.capacity >= 1);
    }
    server.shutdown();
}

#[test]
fn spill_directory_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("qsdnn_e2e_spill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        spill_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let first = {
        let server = PlanServer::start(config()).expect("bind");
        let mut client = PlanClient::connect(server.local_addr()).expect("connect");
        let plan = client.plan(request_for("tiny_cnn")).expect("plan");
        server.shutdown();
        plan
    };
    assert!(!first.cache_hit);

    // Fresh server, cold memory, warm disk.
    let server = PlanServer::start(config()).expect("rebind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let second = client
        .plan(request_for("tiny_cnn"))
        .expect("plan after restart");
    assert!(second.cache_hit, "spilled plan must be reloaded");
    assert_eq!(first.best, second.best);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.plan_cache.spill_loads, 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
