//! Satellite pin for the platform-registry refactor: a server asked for
//! nothing platform-specific must answer **byte-identically** to the
//! pre-refactor service.
//!
//! `tests/data/default_platform_reference.txt` was captured by running this
//! exact request script against the commit *before* the registry landed
//! (normalizing only wall-clock fields). The replay below must reproduce
//! every line — plan keys, fingerprints, costs, assignments, cache-hit
//! flags — bit for bit. Any drift means the default path is no longer the
//! historical TX-2 service. The replay runs over the v2 JSON framing, which
//! carries whole learning curves; one v3 leg then pins the binary reply to
//! the v2 one with its curve summarised.
//!
//! A second test pins the aliasing rule: naming the default platform
//! explicitly (`platform: "sim-tx2"`) is indistinguishable from leaving the
//! field absent — same plan key, same fingerprint, and the explicit request
//! hits the cache entry the implicit one created.

use qsdnn::engine::{Mode, Objective};
use qsdnn::reproduce::lut;
use qsdnn_serve::protocol::{
    PlanRequest, PlanResponse, ProfileRequest, Request, Response, SearchRequest, TransferMode,
};
use qsdnn_serve::{summary_curve, PlanClient, PlanServer, ServerConfig};

fn plan_request(network: &str, episodes: usize) -> PlanRequest {
    PlanRequest {
        network: network.to_string(),
        batch: 1,
        mode: Mode::Gpgpu,
        objective: Objective::Latency,
        episodes,
        seeds: vec![0x5EED, 7],
        transfer: TransferMode::Off,
        trace: false,
        platform: String::new(),
    }
}

fn normalize(mut plan: PlanResponse) -> PlanResponse {
    plan.best.wall_time_ms = 0.0;
    for member in &mut plan.members {
        member.wall_time_ms = 0.0;
    }
    plan
}

/// Replays the pre-refactor capture script and diffs line-by-line.
#[test]
fn default_platform_requests_are_byte_identical_to_the_pre_registry_service() {
    let server = PlanServer::start(ServerConfig {
        threads: 2,
        max_in_flight: 4,
        ..ServerConfig::default()
    })
    .expect("start");
    let mut client = PlanClient::connect_with_version(server.local_addr(), 2).expect("connect");
    let mut out: Vec<String> = Vec::new();

    // 1. Profile: full response Debug (covers the LUT bytes and key).
    let prof = client
        .profile(ProfileRequest {
            network: "tiny_cnn".into(),
            batch: 1,
            mode: Mode::Gpgpu,
            repeats: 3,
            platform: String::new(),
        })
        .expect("profile");
    out.push(format!("{prof:?}"));

    // 2. Cold plan + cached repeat (latency objective).
    let cold = client.plan(plan_request("tiny_cnn", 140)).expect("cold");
    assert!(!cold.cache_hit);
    out.push(format!("{:?}", normalize(cold)));
    let hit = client.plan(plan_request("tiny_cnn", 140)).expect("hit");
    assert!(hit.cache_hit);
    let hit = normalize(hit);
    out.push(format!("{hit:?}"));

    // The v3 leg: the same hit over the binary framing is the v2 reply
    // with its curve summarised.
    let mut v3 = PlanClient::connect(server.local_addr()).expect("v3 connect");
    assert!(v3.is_binary());
    let hit_v3 = normalize(v3.plan(plan_request("tiny_cnn", 140)).expect("v3 hit"));
    let mut summary = hit.clone();
    summary.best.curve = summary_curve(&summary.best.curve);
    assert_eq!(hit_v3, summary, "v3 is the summary of v2");

    // 3. Weighted objective plan (exercises the energy path).
    let mut weighted = plan_request("toy_branchy", 120);
    weighted.objective = Objective::Weighted { lambda: 0.5 };
    out.push(format!(
        "{:?}",
        normalize(client.plan(weighted).expect("weighted"))
    ));

    // 4. Search over a client-supplied LUT.
    let lut = lut("toy_branchy", 1, Mode::Gpgpu, 3);
    match client
        .request(&Request::Search(SearchRequest {
            lut,
            objective: Objective::Latency,
            episodes: 120,
            seeds: vec![11],
            transfer: TransferMode::Off,
            trace: false,
            platform: String::new(),
        }))
        .expect("search")
    {
        Response::Plan(plan) => out.push(format!("{:?}", normalize(plan))),
        other => panic!("search answered {other:?}"),
    }

    // 5. Transfer warm start: batch 1 cold, batch 2 warm (auto).
    let mut b1 = plan_request("lenet5", 200);
    b1.transfer = TransferMode::Auto;
    b1.mode = Mode::Cpu;
    out.push(format!("{:?}", normalize(client.plan(b1).expect("b1"))));
    let mut b2 = plan_request("lenet5", 200);
    b2.transfer = TransferMode::Auto;
    b2.mode = Mode::Cpu;
    b2.batch = 2;
    out.push(format!("{:?}", normalize(client.plan(b2).expect("b2"))));

    server.shutdown();

    let reference = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("data")
            .join("default_platform_reference.txt"),
    )
    .expect("committed pre-refactor reference");
    let expected: Vec<&str> = reference.lines().collect();
    assert_eq!(
        expected.len(),
        out.len(),
        "reference has {} lines, replay produced {}",
        expected.len(),
        out.len()
    );
    for (i, (want, got)) in expected.iter().zip(out.iter()).enumerate() {
        assert_eq!(
            *want,
            got,
            "line {} of the replay diverged from the pre-refactor capture",
            i + 1
        );
    }
}

/// `platform: "sim-tx2"` must alias the absent field exactly: the explicit
/// request lands on the cache entry the implicit one created (same plan
/// key, same winning plan) and the profile fingerprints match.
#[test]
fn naming_the_default_platform_is_the_same_as_omitting_it() {
    let server = PlanServer::start(ServerConfig {
        threads: 2,
        max_in_flight: 4,
        ..ServerConfig::default()
    })
    .expect("start");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");

    let implicit = client.plan(plan_request("tiny_cnn", 140)).expect("plan");
    assert!(!implicit.cache_hit);
    let mut named = plan_request("tiny_cnn", 140);
    named.platform = "sim-tx2".to_string();
    let explicit = client.plan(named).expect("plan");
    assert!(
        explicit.cache_hit,
        "explicit sim-tx2 must hit the entry the implicit request cached"
    );
    assert_eq!(implicit.plan_key, explicit.plan_key);
    assert_eq!(implicit.best.best_assignment, explicit.best.best_assignment);

    let implicit_prof = client
        .profile(ProfileRequest {
            network: "tiny_cnn".into(),
            batch: 1,
            mode: Mode::Gpgpu,
            repeats: 3,
            platform: String::new(),
        })
        .expect("profile");
    let explicit_prof = client
        .profile(ProfileRequest {
            network: "tiny_cnn".into(),
            batch: 1,
            mode: Mode::Gpgpu,
            repeats: 3,
            platform: "sim-tx2".into(),
        })
        .expect("profile");
    assert_eq!(implicit_prof.fingerprint, explicit_prof.fingerprint);
    server.shutdown();
}
