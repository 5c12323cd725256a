//! Set-up of the socket workloads: an in-process `PlanServer` with the
//! shipping configuration, driven only through `PlanClient` over loopback
//! TCP, its working set warmed and every warm-up reply verified.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qsdnn::engine::CostLut;
use qsdnn_serve::protocol::{PlanRequest, PlanResponse, ProfileRequest, TransferMode};
use qsdnn_serve::{PlanClient, PlanServer, ServerConfig};
use serde::Value;

use crate::loadgen::{Served, Verifier};
use crate::verify::{check_hit, check_reference, lut_for, reference, Expected};
use crate::workloads::{plan_request, Scenario, Spec, Traffic};

/// Search workers of the benchmark server; everything else is
/// `ServerConfig::default()`. Two, because the sizing is for two cores.
pub const SERVER_THREADS: usize = 2;

pub struct Service {
    pub server: PlanServer,
    /// The measured connection, at the workload's protocol version.
    pub load: PlanClient,
    /// Warm-up, `stats` and `metrics` go here, so the measured connection
    /// carries nothing but the workload.
    pub control: PlanClient,
}

/// The oracle's side of the working set, computed once per process.
pub struct References {
    pub luts: Vec<Arc<CostLut>>,
    /// The sequential portfolio's plan per scenario; empty when the
    /// workload never serves a working-set plan from cache.
    pub expected: Vec<Expected>,
    /// Wall time of building it: the benchmark's cost, not the system's.
    pub seconds: f64,
}

/// Profiles every working-set scenario and, when `search` is set, runs the
/// sequential portfolio on it; two threads, like the server has.
pub fn references(ws: &[Scenario], episodes: usize, search: bool) -> References {
    let started = Instant::now();
    let work = |part: usize| -> Vec<(usize, CostLut, Option<Expected>)> {
        (part..ws.len())
            .step_by(SERVER_THREADS)
            .map(|i| {
                let lut = lut_for(&ws[i]);
                let expected = search.then(|| reference(&lut, episodes));
                (i, lut, expected)
            })
            .collect()
    };
    let mut all: Vec<(usize, CostLut, Option<Expected>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVER_THREADS)
            .map(|part| scope.spawn(move || work(part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    all.sort_by_key(|(i, _, _)| *i);
    let (mut luts, mut expected) = (Vec::new(), Vec::new());
    for (_, lut, e) in all {
        luts.push(Arc::new(lut));
        expected.extend(e);
    }
    References {
        luts,
        expected,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// A profile request, built through the wire format: the struct has no
/// constructor, and a literal would break when it gains a field.
fn profile_request(scenario: &Scenario) -> ProfileRequest {
    let fields = vec![
        (
            "network".to_string(),
            Value::String(scenario.network.into()),
        ),
        ("batch".to_string(), Value::UInt(scenario.batch as u64)),
        ("mode".to_string(), serde_json::to_value(&scenario.mode)),
    ];
    serde_json::from_value(&Value::Object(fields))
        .expect("network, batch and mode make a profile request")
}

fn ws_requests(spec: &Spec, ws: &[Scenario], transfer: TransferMode) -> Vec<PlanRequest> {
    ws.iter()
        .map(|s| plan_request(s, spec.ws_episodes, Vec::new(), transfer))
        .collect()
}

fn each_hit(replies: &[PlanResponse], expected: &[Expected]) -> Result<(), String> {
    replies
        .iter()
        .zip(expected)
        .try_for_each(|(reply, e)| check_hit(reply, e))
}

/// One complete set-up: start the server, connect, warm, verify.
pub fn set_up(
    spec: &Spec,
    ws: &[Scenario],
    refs: &References,
    spill_dir: Option<&Path>,
) -> Result<(Service, Verifier), String> {
    let mut config = ServerConfig {
        threads: SERVER_THREADS,
        ..Default::default()
    };
    config.cache_max_entries = spec.cache_entries;
    config.spill_dir = spill_dir.map(Path::to_path_buf);
    let server = PlanServer::start(config).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let mut control = PlanClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut load = PlanClient::connect_with_version(addr, spec.protocol)
        .map_err(|e| format!("connect v{}: {e}", spec.protocol))?;
    let binary = load.is_binary();
    if binary != (spec.protocol >= 3) {
        return Err(format!(
            "v{} connection has the wrong framing",
            spec.protocol
        ));
    }

    let mut verifier = Verifier {
        expected: Vec::new(),
        served: Vec::new(),
        binary,
        luts: HashMap::new(),
    };
    if spec.traffic == Traffic::Misses {
        // Only the profile cache is warmed: every measured request searches.
        for scenario in ws {
            control
                .profile(profile_request(scenario))
                .map_err(|e| format!("profile warm-up: {e}"))?;
        }
        let service = Service {
            server,
            load,
            control,
        };
        return Ok((service, verifier));
    }

    // Cold searches, two at a time (one per search worker), so warm-up
    // does not trip the server's slow-request log by queueing 44 deep.
    control.set_window(SERVER_THREADS);
    let cold = control
        .plan_many(&ws_requests(spec, ws, TransferMode::Off))
        .map_err(|e| format!("warm-up: {e}"))?;
    if refs.expected.len() != ws.len() {
        return Err("the oracle has no reference plans for this workload".into());
    }
    for (reply, reference) in cold.iter().zip(&refs.expected) {
        if reply.cache_hit {
            return Err(format!(
                "{}: warm-up reply was already cached",
                reply.network
            ));
        }
        check_reference(reply, reference)?;
    }
    verifier.expected = cold.iter().map(Expected::of).collect();

    // Once more over the measured connection: every reply must now be a
    // hit, and a v3 server attaches the rendered body to the cache entry.
    let hits = load
        .plan_many(&ws_requests(spec, ws, TransferMode::Off))
        .map_err(|e| format!("hit warm-up: {e}"))?;
    each_hit(&hits, &verifier.expected)?;
    verifier.served = ws
        .iter()
        .zip(hits)
        .map(|(scenario, reply)| Served::of(*scenario, reply, binary))
        .collect();

    if spec.traffic == Traffic::Mix {
        // `transfer: auto` on a cached scenario is still an exact hit, and
        // registers it in the scenario index, which is what the warm class
        // will look for donors in.
        let registered = control
            .plan_many(&ws_requests(spec, ws, TransferMode::Auto))
            .map_err(|e| format!("index warm-up: {e}"))?;
        each_hit(&registered, &verifier.expected)?;
    }
    let service = Service {
        server,
        load,
        control,
    };
    Ok((service, verifier))
}
