//! Acceptance for the flight recorder: under real traffic, the journal
//! names the request lifecycle (begin/stages/end), the cache and transfer
//! decisions behind it, and a slow request's exemplar ties all of that to
//! the *actual* plan key it produced; the post-mortem dump writes the same
//! story to disk.

use std::collections::HashSet;

use qsdnn::engine::{Mode, Objective};
use qsdnn_serve::protocol::{PlanRequest, PostmortemDump, TransferMode, PROTOCOL_VERSION};
use qsdnn_serve::{PlanClient, PlanServer, ServerConfig};

fn plan_request(network: &str, batch: usize, episodes: usize) -> PlanRequest {
    PlanRequest {
        network: network.to_string(),
        batch,
        mode: Mode::Gpgpu,
        objective: Objective::Latency,
        episodes,
        seeds: vec![0x5EED],
        transfer: TransferMode::Auto,
        trace: false,
        platform: String::new(),
    }
}

/// Plan budget: the warm step runs a quarter of it, which must still take
/// over the 1 ms slow threshold in a release build (at 200 episodes it
/// sometimes did not, and the warm exemplar went missing).
const EPISODES: usize = 2000;

fn spill_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qsdnn_fr_e2e_{}", std::process::id()));
    // A dir left by an aborted run under a reused pid would serve its
    // plans, turning the cold plan into a hit.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("spill dir");
    dir
}

/// Cold plan, then a warm-started batch sweep step, then a cache hit —
/// enough traffic to light up every event source — then assert the
/// journal, the exemplars, and the task table all tell that story. Named
/// for the readiness backend it runs on under Linux, which the dump
/// reports.
#[test]
fn flight_recorder_explains_requests_on_the_epoll_layer() {
    let dir = spill_dir();
    let server = PlanServer::start(ServerConfig {
        threads: 2,
        // Threshold 1 ms: every cold/warm search is "slow", so each plan
        // request leaves an exemplar.
        slow_ms: 1,
        spill_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");

    let cold = client
        .plan(plan_request("tiny_cnn", 1, EPISODES))
        .expect("cold plan");
    assert!(!cold.cache_hit, "first plan must be cold");
    let warm = client
        .plan(plan_request("tiny_cnn", 2, EPISODES))
        .expect("warm plan");
    assert!(
        warm.warm_start.is_some(),
        "batch 2 must warm-start from batch 1"
    );
    let hit = client
        .plan(plan_request("tiny_cnn", 1, EPISODES))
        .expect("repeat plan");
    assert!(hit.cache_hit, "repeat must be cache-served");

    let events = client.events().expect("events request");
    assert!(events.recorder_enabled, "recorder must be always-on");
    assert!(events.ring_capacity > 0);
    assert!(events.events_total > 0, "journal never ticked");
    let seen: HashSet<&str> = events.events.iter().map(|e| e.event.as_str()).collect();
    for expected in [
        "request_begin",
        "request_end",
        "stage",
        "cache_miss",
        "cache_hit",
        "transfer_donor",
    ] {
        assert!(
            seen.contains(expected),
            "journal missing `{expected}` after cold+warm+hit traffic; saw {seen:?}"
        );
    }

    // The warm request's exemplar names the actual plan key it produced,
    // carries a per-stage breakdown, and journals the cache decision and
    // the transfer donor that shaped the search.
    let ex = events
        .exemplars
        .iter()
        .find(|x| x.kind == "plan" && x.plan_key == warm.plan_key)
        .unwrap_or_else(|| {
            panic!(
                "no plan exemplar for key {}; have {:?}",
                warm.plan_key,
                events
                    .exemplars
                    .iter()
                    .map(|x| (&x.kind, &x.plan_key))
                    .collect::<Vec<_>>()
            )
        });
    assert!(!ex.panicked);
    assert!(ex.total_ms >= 1.0, "exemplar below the slow threshold");
    assert!(!ex.stages.is_empty(), "exemplar has no stage breakdown");
    for s in &ex.stages {
        assert!(
            [
                "parse",
                "queue",
                "profile",
                "cache",
                "search",
                "serialize",
                "write"
            ]
            .contains(&s.stage.as_str()),
            "unexpected exemplar stage {}",
            s.stage
        );
        assert!(s.ms >= 0.0);
    }
    let ex_events: HashSet<&str> = ex.events.iter().map(|e| e.event.as_str()).collect();
    assert!(
        ex_events.contains("cache_miss"),
        "warm exemplar missing its cache miss; saw {ex_events:?}"
    );
    assert!(
        ex_events.contains("transfer_donor"),
        "warm exemplar missing its transfer donor; saw {ex_events:?}"
    );
    let donor = ex
        .events
        .iter()
        .find(|e| e.event == "transfer_donor")
        .expect("donor event");
    let provenance = warm.warm_start.as_ref().expect("warm provenance");
    assert_eq!(
        donor.key, provenance.donor_key,
        "journaled donor differs from the response's provenance"
    );

    // The task table shows live threads — at minimum the one answering
    // the `tasks` request itself.
    let tasks = client.tasks().expect("tasks request");
    assert!(tasks.recorder_enabled);
    assert!(!tasks.tasks.is_empty(), "empty task table");
    assert!(
        tasks
            .tasks
            .iter()
            .any(|t| t.state == "tasks" || t.state != "idle"),
        "no thread admits to working: {:?}",
        tasks.tasks.iter().map(|t| &t.state).collect::<Vec<_>>()
    );

    // The post-mortem dump is a well-formed JSON file under the spill dir
    // telling the same story, named *.dump so the spill sweeper never
    // mistakes it for a cached plan.
    let path = server
        .write_postmortem("e2e-test")
        .expect("dump written (spill dir configured)");
    assert!(path.starts_with(&dir));
    assert_eq!(path.extension().and_then(|e| e.to_str()), Some("dump"));
    let json = std::fs::read_to_string(&path).expect("dump readable");
    let dump: PostmortemDump = serde_json::from_str(&json).expect("dump parses");
    assert_eq!(dump.reason, "e2e-test");
    assert_eq!(dump.version, PROTOCOL_VERSION);
    let backend = if cfg!(target_os = "linux") {
        "epoll"
    } else {
        "poll"
    };
    assert_eq!(dump.io, backend, "the dump names the readiness backend");
    assert!(dump.events_total > 0);
    assert!(!dump.events.is_empty(), "dump carries no journal");
    assert!(!dump.exemplars.is_empty(), "dump carries no exemplars");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Without a spill dir there is nowhere to dump: the writer declines
/// instead of scattering files.
#[test]
fn postmortem_needs_a_spill_dir() {
    let server = PlanServer::start(ServerConfig::default()).expect("start server");
    assert!(server.write_postmortem("nowhere").is_none());
    server.shutdown();
}
