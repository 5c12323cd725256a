//! `infer_host`: the paper's headline quantity, with no server involved.
//!
//! For three networks the default portfolio picks the best CPU-mode plan
//! on the analytical sim-TX2 LUT (a deterministic plan); `run_network`
//! then executes that plan with the real kernels. One operation is one
//! inference. The all-Vanilla plan is the dependency-free reference: its
//! output is what every inference is checked against, and its wall time,
//! taken when the reference is computed in set-up, is the base of
//! `infer_speedup_x`.

use std::time::Instant;

use qsdnn::baselines::solve_chain_dp;
use qsdnn::engine::{run_network, Assignment, CostLut, Mode};
use qsdnn::nn::{zoo, Network};
use qsdnn::tensor::{DataLayout, Tensor};

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::verify::{lut_for, reference};
use crate::workloads::Scenario;

/// Small, medium and a real ImageNet network; a pass runs them in
/// rotation, so p50 is the medium one and p90 the large one.
pub const NETWORKS: [&str; 3] = ["lenet5", "tiny_cnn", "squeezenet_v11"];

/// Rotations per pass.
pub const ROUNDS_PER_PASS: usize = 3;

/// Outputs may differ from the all-Vanilla reference by this share of the
/// reference's largest magnitude.
const TOLERANCE: f32 = 1e-3;

pub struct Prepared {
    pub name: &'static str,
    net: Network,
    lut: CostLut,
    best: Assignment,
    input: Tensor,
    weight_seed: u64,
    reference: Tensor,
    /// Wall time of the all-Vanilla run that produced `reference`.
    pub vanilla_ms: f64,
    /// `vanilla / best` as the LUT predicts it.
    pub predicted_speedup: f64,
    pub rl_won: bool,
    /// Served cost over the chain-DP optimum, percent; `None` off chains.
    pub chain_gap_pct: Option<f64>,
    /// Layout conversions plus processor transfers of the executed plan.
    pub conversions: usize,
}

/// The seeded part of the workload: an input tensor and a weight seed
/// per network.
pub fn inputs(seed: u64) -> Vec<(Tensor, u64)> {
    let mut rng = Rng::stream(seed, "infer_host", 0);
    NETWORKS
        .iter()
        .map(|&name| {
            let net = zoo::by_name(name, 1).expect("zoo network");
            let input = Tensor::random(
                net.layers()[0].output_shape,
                DataLayout::Nchw,
                rng.next_u64(),
            );
            (input, rng.next_u64())
        })
        .collect()
}

/// Fingerprint of the generated inputs, for `loadgen.input_fnv`.
pub fn fingerprint(inputs: &[(Tensor, u64)]) -> u64 {
    let mut h = qsdnn::engine::Fnv64::new();
    for (input, weight_seed) in inputs {
        h.write_u64(*weight_seed);
        for v in input.as_slice() {
            h.write_u64(u64::from(v.to_bits()));
        }
    }
    h.finish()
}

/// Plans and references for the three networks.
pub fn set_up(inputs: Vec<(Tensor, u64)>) -> Vec<Prepared> {
    NETWORKS
        .iter()
        .zip(inputs)
        .map(|(&name, (input, weight_seed))| {
            let net = zoo::by_name(name, 1).expect("zoo network");
            let lut = lut_for(&Scenario {
                network: name,
                batch: 1,
                mode: Mode::Cpu,
            });
            let plan = reference(&lut, 0);
            let best_cost = f64::from_bits(plan.cost_bits);
            let vanilla = lut.vanilla_assignment();
            let started = Instant::now();
            let reference = run_network(&net, &lut, &vanilla, &input, weight_seed).output;
            let vanilla_ms = started.elapsed().as_secs_f64() * 1e3;
            Prepared {
                name,
                predicted_speedup: lut.cost(&vanilla) / best_cost,
                rl_won: plan.winner.starts_with("qs-dnn"),
                chain_gap_pct: solve_chain_dp(&lut)
                    .map(|(_, optimum)| (best_cost / optimum - 1.0) * 100.0),
                conversions: 0,
                net,
                lut,
                best: plan.assignment,
                input,
                weight_seed,
                reference,
                vanilla_ms,
            }
        })
        .collect()
}

#[derive(Debug, Default)]
pub struct PassOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(network index, latency µs)` per verified inference.
    pub samples: Vec<(usize, f64)>,
    pub first_error: Option<String>,
}

/// One pass: [`ROUNDS_PER_PASS`] rotations over the networks.
pub fn pass(prepared: &mut [Prepared], tracer: &mut Tracer, op_base: u64) -> PassOutcome {
    let mut out = PassOutcome::default();
    for round in 0..ROUNDS_PER_PASS {
        for (i, p) in prepared.iter_mut().enumerate() {
            let op_id = op_base + (round * NETWORKS.len() + i) as u64;
            out.attempted += 1;
            let t0 = Instant::now();
            let op = tracer.open("op", t0, Tracer::root(), op_id);
            let result = run_network(&p.net, &p.lut, &p.best, &p.input, p.weight_seed);
            let t1 = Instant::now();
            tracer.record("exec.run_network", t0, t1, op, op_id);
            let scale = p
                .reference
                .as_slice()
                .iter()
                .fold(f32::MIN_POSITIVE, |m, v| m.max(v.abs()));
            let verdict = match result.output.max_abs_diff(&p.reference) {
                Ok(d) if d <= TOLERANCE * scale => Ok(()),
                Ok(d) => Err(format!(
                    "{}: output is {d} from the all-Vanilla reference (scale {scale})",
                    p.name
                )),
                Err(e) => Err(format!("{}: {e}", p.name)),
            };
            let t2 = Instant::now();
            tracer.record("verify", t1, t2, op, op_id);
            tracer.close(op, t2);
            p.conversions = result.layout_conversions + result.processor_transfers;
            match verdict {
                Ok(()) => out
                    .samples
                    .push((i, t2.duration_since(t0).as_secs_f64() * 1e6)),
                Err(why) => {
                    out.failed += 1;
                    out.first_error.get_or_insert(why);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_output_is_counted_as_failed() {
        let mut prepared: Vec<Prepared> = set_up(inputs(1))
            .into_iter()
            .filter(|p| p.name == "tiny_cnn")
            .collect();
        let mut tracer = Tracer::new(false);
        let good = pass(&mut prepared, &mut tracer, 0);
        assert_eq!((good.attempted, good.failed), (ROUNDS_PER_PASS as u64, 0));
        // Corrupt the reference: every inference now disagrees with it.
        prepared[0].reference.as_mut_slice()[0] += 0.5;
        let bad = pass(&mut prepared, &mut tracer, 0);
        assert_eq!(bad.failed, bad.attempted);
        assert!(bad.first_error.is_some());
    }
}
