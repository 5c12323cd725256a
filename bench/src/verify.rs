//! Verification that can fail: every reply the benchmark counts as an
//! operation is checked against an oracle built on the benchmark's side
//! of the socket.
//!
//! * Set-up checks each working-set reply bit for bit against
//!   `Portfolio::paper_default(..).run_sequential` on a LUT profiled here.
//! * A hit must say `cache_hit` and equal the set-up reply.
//! * A miss must cost what the benchmark's LUT says its assignment costs
//!   (to rounding), and no more than all-Vanilla.

use qsdnn::engine::{CostLut, Objective, PlatformRegistry, Profiler};
use qsdnn::nn::zoo;
use qsdnn::Portfolio;
use qsdnn_serve::protocol::{default_episodes, PlanResponse};
use qsdnn_serve::ServerConfig;

use crate::workloads::Scenario;

/// The benchmark-side cost model: the LUT the server must have searched,
/// scalarized for latency.
pub fn lut_for(scenario: &Scenario) -> CostLut {
    let registry = PlatformRegistry::builtin();
    let spec = registry
        .resolve("")
        .expect("the built-in registry has a default platform");
    let net = zoo::by_name(scenario.network, scenario.batch).expect("working-set network exists");
    let repeats = ServerConfig::default().profile_repeats;
    Profiler::with_repeats(registry.instantiate(spec), repeats)
        .profile(&net, scenario.mode)
        .with_objective(Objective::Latency)
}

/// What a correct reply for one scenario must carry.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub plan_key: String,
    pub assignment: Vec<usize>,
    pub cost_bits: u64,
    pub winner: String,
}

impl Expected {
    pub fn of(reply: &PlanResponse) -> Self {
        Expected {
            plan_key: reply.plan_key.clone(),
            assignment: reply.best.best_assignment.clone(),
            cost_bits: reply.best.best_cost_ms.to_bits(),
            winner: reply.winner.clone(),
        }
    }
}

/// The sequential reference for a request with `episodes` (0 = server
/// default) and the server's default seeds.
pub fn reference(lut: &CostLut, episodes: usize) -> Expected {
    let episodes = if episodes == 0 {
        default_episodes(lut.len())
    } else {
        episodes
    };
    let seeds = ServerConfig::default().default_seeds;
    let outcome = Portfolio::paper_default(episodes, &seeds)
        .run_sequential(lut)
        .expect("PBQP applies to every network, so the portfolio has a result");
    Expected {
        plan_key: String::new(),
        assignment: outcome.best.best_assignment,
        cost_bits: outcome.best.best_cost_ms.to_bits(),
        winner: outcome.winner,
    }
}

/// Set-up check: the served plan is the sequential reference, bit for bit.
pub fn check_reference(reply: &PlanResponse, reference: &Expected) -> Result<(), String> {
    let got = Expected::of(reply);
    if got.assignment != reference.assignment {
        return Err(format!(
            "{}: assignment differs from the reference",
            reply.network
        ));
    }
    if got.cost_bits != reference.cost_bits {
        return Err(format!(
            "{}: best_cost_ms {} is not the reference's {}",
            reply.network,
            reply.best.best_cost_ms,
            f64::from_bits(reference.cost_bits)
        ));
    }
    if got.winner != reference.winner {
        return Err(format!(
            "{}: winner `{}` is not the reference's `{}`",
            reply.network, got.winner, reference.winner
        ));
    }
    Ok(())
}

/// Run check for a cached scenario.
pub fn check_hit(reply: &PlanResponse, expected: &Expected) -> Result<(), String> {
    if !reply.cache_hit {
        return Err(format!("{}: expected a cache hit", reply.network));
    }
    // Field by field, not via `Expected::of`: this runs once per hit.
    if reply.plan_key != expected.plan_key
        || reply.best.best_assignment != expected.assignment
        || reply.best.best_cost_ms.to_bits() != expected.cost_bits
        || reply.winner != expected.winner
    {
        return Err(format!(
            "{}: hit differs from the reply verified in set-up",
            reply.network
        ));
    }
    Ok(())
}

/// Relative rounding slack between a search's running total and
/// `CostLut::cost` of the same assignment.
const COST_TOLERANCE: f64 = 1e-12;

/// Run check for a searched scenario (`warm`: a warm-started one).
pub fn check_miss(reply: &PlanResponse, lut: &CostLut, warm: bool) -> Result<(), String> {
    if reply.cache_hit {
        return Err(format!("{}: expected a fresh search", reply.network));
    }
    if reply.best.best_assignment.len() != lut.len()
        || reply
            .best
            .best_assignment
            .iter()
            .enumerate()
            .any(|(l, &c)| c >= lut.candidates(l).len())
    {
        return Err(format!(
            "{}: assignment does not fit the LUT",
            reply.network
        ));
    }
    // Not bit for bit: the searches add an episode's step costs up in
    // another order than `CostLut::cost` does, and about one reply in ten
    // differs in the last place.
    let cost = lut.cost(&reply.best.best_assignment);
    if (cost - reply.best.best_cost_ms).abs() > COST_TOLERANCE * cost.abs() {
        return Err(format!(
            "{}: best_cost_ms {} but the assignment costs {cost}",
            reply.network, reply.best.best_cost_ms
        ));
    }
    let vanilla = lut.cost(&lut.vanilla_assignment());
    if vanilla.to_bits() != reply.vanilla_cost_ms.to_bits() {
        return Err(format!(
            "{}: vanilla_cost_ms {} but all-Vanilla costs {vanilla}",
            reply.network, reply.vanilla_cost_ms
        ));
    }
    if cost > vanilla {
        return Err(format!(
            "{}: plan is slower than all-Vanilla",
            reply.network
        ));
    }
    if warm != reply.warm_start.is_some() {
        return Err(format!(
            "{}: warm_start is {}, expected {}",
            reply.network,
            reply.warm_start.is_some(),
            warm
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::working_set;
    use qsdnn::engine::Mode;
    use qsdnn_serve::protocol::TransferMode;
    use qsdnn_serve::{PlanClient, PlanServer};

    #[test]
    fn a_corrupted_reply_fails_every_check() {
        let server = PlanServer::start(ServerConfig {
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let mut client = PlanClient::connect(server.local_addr()).unwrap();
        let scenario = Scenario {
            network: "tiny_cnn",
            batch: 1,
            mode: Mode::Cpu,
        };
        assert!(working_set().contains(&scenario));
        let req = crate::workloads::plan_request(&scenario, 100, Vec::new(), TransferMode::Off);
        let lut = lut_for(&scenario);

        let miss = client.plan(req.clone()).unwrap();
        check_miss(&miss, &lut, false).unwrap();
        check_reference(&miss, &reference(&lut, 100)).unwrap();
        let expected = Expected::of(&miss);
        let hit = client.plan(req).unwrap();
        check_hit(&hit, &expected).unwrap();
        server.shutdown();

        // One layer switched to another candidate: the claimed cost no
        // longer matches the assignment, and the hit no longer matches.
        let mut bad = miss.clone();
        let l = (0..lut.len())
            .find(|&l| lut.candidates(l).len() > 1)
            .unwrap();
        bad.best.best_assignment[l] = (bad.best.best_assignment[l] + 1) % lut.candidates(l).len();
        assert!(check_miss(&bad, &lut, false).is_err());
        assert!(check_reference(&bad, &reference(&lut, 100)).is_err());
        let mut bad_hit = hit.clone();
        bad_hit.best.best_assignment = bad.best.best_assignment.clone();
        assert!(check_hit(&bad_hit, &expected).is_err());

        // A cost off by a millionth, and a hit that claims to be a search.
        let mut off = miss.clone();
        off.best.best_cost_ms *= 1.0 + 1e-6;
        assert!(check_miss(&off, &lut, false).is_err());
        let mut not_hit = hit;
        not_hit.cache_hit = false;
        assert!(check_hit(&not_hit, &expected).is_err());
    }
}
