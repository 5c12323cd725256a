//! End-to-end network execution under a primitive assignment.
//!
//! Runs the real kernels layer by layer, inserting layout-conversion
//! compatibility layers exactly where the engine would at deployment time,
//! and counts them. Used to verify that *any* assignment computes the same
//! function as the all-Vanilla reference (the searches only change *where*
//! and *how fast*, never *what*).
//!
//! Layer weights come from the process-wide weights memo,
//! [`qsdnn_primitives::weights::shared`], so repeated runs of a network
//! generate them once. The memo is keyed by exactly what weight generation
//! reads (seed, node id, layer parameters, input shapes), holds at most
//! [`MEMO_BUDGET_BYTES`](qsdnn_primitives::weights::MEMO_BUDGET_BYTES),
//! and never retains a layer larger than that. Each value is a pure
//! function of its key, so outputs are bit-identical to generating the
//! weights on every call; the `GOLDEN` fingerprints below pin that.

use std::borrow::Cow;

use qsdnn_nn::Network;
use qsdnn_primitives::{execute_layer, weights, Primitive, Processor};
use qsdnn_tensor::{DataLayout, Tensor};

use crate::{Assignment, CostLut};

/// Outcome of one end-to-end run.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Final layer output, normalized to NCHW.
    pub output: Tensor,
    /// Number of layout conversions (compatibility layers) inserted.
    pub layout_conversions: usize,
    /// Number of CPU↔GPU boundary crossings (simulated residency changes).
    pub processor_transfers: usize,
}

/// Executes `net` with the primitives selected by `assignment` in `lut`.
///
/// Weights are generated deterministically from `seed` and taken from the
/// weights memo ([`weights::shared`]), so only the first run of a network
/// and seed pays for generating them. `input` is the network input tensor
/// (any layout).
///
/// # Panics
///
/// Panics if the assignment length or candidate indices do not match `lut`,
/// or if `lut` was built for a different network.
pub fn run_network(
    net: &Network,
    lut: &CostLut,
    assignment: &Assignment,
    input: &Tensor,
    seed: u64,
) -> ExecutionResult {
    assert_eq!(lut.network(), net.name(), "LUT/network mismatch");
    assert_eq!(assignment.len(), net.len(), "assignment length");
    let mut activations: Vec<Tensor> = Vec::with_capacity(net.len());
    let mut residency: Vec<Processor> = Vec::with_capacity(net.len());
    let mut layout_conversions = 0usize;
    let mut processor_transfers = 0usize;

    for node in net.layers() {
        let prim: Primitive = lut.candidates(node.id.0)[assignment[node.id.0]];
        let in_shapes = net.input_shapes(node.id);
        let weights = weights::shared(node, &in_shapes, seed);
        // Inputs already in the primitive's layout are borrowed, not copied.
        let gathered: Vec<Cow<'_, Tensor>> = if node.inputs.is_empty() {
            if input.layout() != prim.layout {
                layout_conversions += 1;
            }
            vec![input.as_layout(prim.layout)]
        } else {
            node.inputs
                .iter()
                .map(|&p| {
                    let t = &activations[p.0];
                    if residency[p.0] != prim.processor {
                        processor_transfers += 1;
                    }
                    if t.layout() != prim.layout {
                        layout_conversions += 1;
                    }
                    t.as_layout(prim.layout)
                })
                .collect()
        };
        let refs: Vec<&Tensor> = gathered.iter().map(|t| t.as_ref()).collect();
        let out = execute_layer(node, &prim, &refs, &weights);
        activations.push(out);
        residency.push(prim.processor);
    }

    ExecutionResult {
        output: activations
            .pop()
            .expect("non-empty network")
            .into_layout(DataLayout::Nchw),
        layout_conversions,
        processor_transfers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyticalPlatform, Mode, Profiler};
    use qsdnn_nn::zoo;

    fn lut_for(net: &Network, mode: Mode) -> CostLut {
        Profiler::with_repeats(AnalyticalPlatform::tx2(), 1).profile(net, mode)
    }

    #[test]
    fn vanilla_run_produces_probabilities() {
        let net = zoo::tiny_cnn(1);
        let lut = lut_for(&net, Mode::Cpu);
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 5);
        let r = run_network(&net, &lut, &lut.vanilla_assignment(), &input, 7);
        let sum: f32 = r.output.as_slice().iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-4,
            "softmax output sums to 1, got {sum}"
        );
    }

    #[test]
    fn greedy_assignment_matches_vanilla_output() {
        let net = zoo::tiny_cnn(1);
        let lut = lut_for(&net, Mode::Cpu);
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 5);
        let base = run_network(&net, &lut, &lut.vanilla_assignment(), &input, 7);
        let fast = run_network(&net, &lut, &lut.greedy_assignment(), &input, 7);
        let d = base.output.max_abs_diff(&fast.output).unwrap();
        assert!(d < 1e-3, "outputs diverged by {d}");
    }

    #[test]
    fn mixed_layout_assignment_counts_conversions() {
        let net = zoo::tiny_cnn(1);
        let lut = lut_for(&net, Mode::Cpu);
        // Force alternating layouts by picking, per layer, any NHWC
        // candidate when available, else candidate 0.
        let assignment: Assignment = (0..lut.len())
            .map(|l| {
                lut.candidates(l)
                    .iter()
                    .position(|p| p.layout == DataLayout::Nhwc)
                    .unwrap_or(0)
            })
            .collect();
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 5);
        let r = run_network(&net, &lut, &assignment, &input, 7);
        assert!(
            r.layout_conversions > 0,
            "NHWC/NCHW mix must insert conversions"
        );
        // Function must still be preserved.
        let base = run_network(&net, &lut, &lut.vanilla_assignment(), &input, 7);
        assert!(base.output.approx_eq(&r.output, 1e-3).unwrap());
    }

    #[test]
    fn gpgpu_assignment_counts_transfers() {
        let net = zoo::tiny_cnn(1);
        let lut = lut_for(&net, Mode::Gpgpu);
        // Put everything possible on the GPU.
        let assignment: Assignment = (0..lut.len())
            .map(|l| {
                lut.candidates(l)
                    .iter()
                    .position(|p| p.processor == Processor::Gpu)
                    .unwrap_or(0)
            })
            .collect();
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 5);
        let r = run_network(&net, &lut, &assignment, &input, 7);
        assert!(
            r.processor_transfers > 0,
            "CPU input must cross to GPU at least once"
        );
    }

    /// A local optimum of `lut.cost`: starting from the greedy plan, each
    /// layer in turn moves to its cheapest candidate given the others,
    /// until a full sweep changes nothing. Deterministic, and unlike the
    /// greedy plan it pays for the conversions it causes.
    fn descent_assignment(lut: &CostLut) -> Assignment {
        let mut a = lut.greedy_assignment();
        loop {
            let mut moved = false;
            for l in 0..a.len() {
                let current = a[l];
                let mut best = (lut.cost(&a), current);
                for ci in 0..lut.candidates(l).len() {
                    a[l] = ci;
                    let cost = lut.cost(&a);
                    if cost < best.0 {
                        best = (cost, ci);
                    }
                }
                a[l] = best.1;
                moved |= best.1 != current;
            }
            if !moved {
                return a;
            }
        }
    }

    /// `(network, mode, plan, batch, FNV-64 of the output bits, layout
    /// conversions, processor transfers)`, recorded before the slice-order
    /// rewrite of the data-movement kernels. Any change to executed
    /// numerics shows here.
    #[rustfmt::skip]
    const GOLDEN: [(&str, Mode, &str, usize, u64, usize, usize); 36] = [
        ("tiny_cnn", Mode::Cpu, "vanilla", 1, 0x16684977590b06b3, 0, 0),
        ("tiny_cnn", Mode::Cpu, "greedy", 1, 0xbf6398ae95569098, 6, 0),
        ("tiny_cnn", Mode::Cpu, "best", 1, 0xbf6398ae95569098, 2, 0),
        ("tiny_cnn", Mode::Cpu, "vanilla", 2, 0x4613ea789660582e, 0, 0),
        ("tiny_cnn", Mode::Cpu, "greedy", 2, 0x8d49701bde791884, 6, 0),
        ("tiny_cnn", Mode::Cpu, "best", 2, 0x8d49701bde791884, 2, 0),
        ("tiny_cnn", Mode::Gpgpu, "vanilla", 1, 0x16684977590b06b3, 0, 0),
        ("tiny_cnn", Mode::Gpgpu, "greedy", 1, 0xbf6398ae95569098, 6, 0),
        ("tiny_cnn", Mode::Gpgpu, "best", 1, 0xbf6398ae95569098, 2, 0),
        ("tiny_cnn", Mode::Gpgpu, "vanilla", 2, 0x4613ea789660582e, 0, 0),
        ("tiny_cnn", Mode::Gpgpu, "greedy", 2, 0x8d49701bde791884, 6, 0),
        ("tiny_cnn", Mode::Gpgpu, "best", 2, 0x8d49701bde791884, 2, 0),
        ("lenet5", Mode::Cpu, "vanilla", 1, 0x6d6534c14deb8c62, 0, 0),
        ("lenet5", Mode::Cpu, "greedy", 1, 0xaedafc4aaf416265, 6, 0),
        ("lenet5", Mode::Cpu, "best", 1, 0xaedafc4aaf416265, 4, 0),
        ("lenet5", Mode::Cpu, "vanilla", 2, 0x2b5e6e74d239f9ee, 0, 0),
        ("lenet5", Mode::Cpu, "greedy", 2, 0xd139faa8d9e5d41f, 6, 0),
        ("lenet5", Mode::Cpu, "best", 2, 0xd139faa8d9e5d41f, 4, 0),
        ("lenet5", Mode::Gpgpu, "vanilla", 1, 0x6d6534c14deb8c62, 0, 0),
        ("lenet5", Mode::Gpgpu, "greedy", 1, 0x06589e73226c7557, 2, 6),
        ("lenet5", Mode::Gpgpu, "best", 1, 0xaedafc4aaf416265, 4, 0),
        ("lenet5", Mode::Gpgpu, "vanilla", 2, 0x2b5e6e74d239f9ee, 0, 0),
        ("lenet5", Mode::Gpgpu, "greedy", 2, 0xfd426bf660f9272d, 2, 6),
        ("lenet5", Mode::Gpgpu, "best", 2, 0xfd426bf660f9272d, 2, 2),
        ("toy_branchy", Mode::Cpu, "vanilla", 1, 0xd7b57ca1f44e60d0, 0, 0),
        ("toy_branchy", Mode::Cpu, "greedy", 1, 0xb7feb4806e57de39, 3, 0),
        ("toy_branchy", Mode::Cpu, "best", 1, 0xb7feb4806e57de39, 3, 0),
        ("toy_branchy", Mode::Cpu, "vanilla", 2, 0x821f9c2a4c95ace7, 0, 0),
        ("toy_branchy", Mode::Cpu, "greedy", 2, 0x47df2dddc384937e, 3, 0),
        ("toy_branchy", Mode::Cpu, "best", 2, 0x47df2dddc384937e, 3, 0),
        ("toy_branchy", Mode::Gpgpu, "vanilla", 1, 0xd7b57ca1f44e60d0, 0, 0),
        ("toy_branchy", Mode::Gpgpu, "greedy", 1, 0xb7feb4806e57de39, 5, 0),
        ("toy_branchy", Mode::Gpgpu, "best", 1, 0xb7feb4806e57de39, 3, 0),
        ("toy_branchy", Mode::Gpgpu, "vanilla", 2, 0x821f9c2a4c95ace7, 0, 0),
        ("toy_branchy", Mode::Gpgpu, "greedy", 2, 0x47df2dddc384937e, 5, 0),
        ("toy_branchy", Mode::Gpgpu, "best", 2, 0x47df2dddc384937e, 3, 0),
    ];

    #[test]
    fn run_network_outputs_match_golden_fingerprints() {
        let mut got = Vec::new();
        for name in ["tiny_cnn", "lenet5", "toy_branchy"] {
            for mode in [Mode::Cpu, Mode::Gpgpu] {
                for batch in [1, 2] {
                    let net = qsdnn_nn::zoo::by_name(name, batch).expect("zoo network");
                    let lut = lut_for(&net, mode);
                    let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 5);
                    for (plan, assignment) in [
                        ("vanilla", lut.vanilla_assignment()),
                        ("greedy", lut.greedy_assignment()),
                        ("best", descent_assignment(&lut)),
                    ] {
                        let r = run_network(&net, &lut, &assignment, &input, 7);
                        let mut h = crate::Fnv64::new();
                        for v in r.output.as_slice() {
                            h.write_u64(u64::from(v.to_bits()));
                        }
                        got.push((
                            name,
                            mode,
                            plan,
                            batch,
                            h.finish(),
                            r.layout_conversions,
                            r.processor_transfers,
                        ));
                    }
                }
            }
        }
        let table: String = got
            .iter()
            .map(|(n, m, p, b, h, c, t)| {
                format!("    ({n:?}, Mode::{m:?}, {p:?}, {b}, {h:#018x}, {c}, {t}),\n")
            })
            .collect();
        assert_eq!(got, GOLDEN, "executed outputs moved; now:\n{table}");
    }

    /// `run_network` with every layer's weights freshly generated: the
    /// reference the memo must reproduce bit for bit.
    fn run_with_fresh_weights(
        net: &Network,
        lut: &CostLut,
        assignment: &Assignment,
        input: &Tensor,
        seed: u64,
    ) -> Tensor {
        let mut activations: Vec<Tensor> = Vec::new();
        for node in net.layers() {
            let prim = lut.candidates(node.id.0)[assignment[node.id.0]];
            let in_shapes = net.input_shapes(node.id);
            let weights = qsdnn_primitives::generate_weights(node, &in_shapes, seed);
            let gathered: Vec<Tensor> = if node.inputs.is_empty() {
                vec![input.to_layout(prim.layout)]
            } else {
                node.inputs
                    .iter()
                    .map(|&p| activations[p.0].to_layout(prim.layout))
                    .collect()
            };
            let refs: Vec<&Tensor> = gathered.iter().collect();
            activations.push(execute_layer(node, &prim, &refs, &weights));
        }
        activations
            .pop()
            .expect("non-empty network")
            .into_layout(DataLayout::Nchw)
    }

    fn output_bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn same_named_networks_with_different_layers_get_their_own_weights() {
        // lenet5's name, ids and shapes, with sparse convolutions: a memo
        // keyed by network name and layer id would serve one twin's
        // weights to the other.
        use qsdnn_nn::{ConvParams, FcParams, NetworkBuilder, PoolKind, PoolParams};
        let dense = zoo::lenet5(1);
        let conv = |oc| ConvParams::square(oc, 5, 1, 0).with_density(0.5);
        let pool = PoolParams::square(PoolKind::Max, 2, 2, 0);
        let mut b = NetworkBuilder::new("lenet5");
        let x = b.input(qsdnn_tensor::Shape::new(1, 1, 28, 28));
        let x = b.conv("conv1", x, conv(20)).expect("fits");
        let x = b.pool("pool1", x, pool).expect("fits");
        let x = b.conv("conv2", x, conv(50)).expect("fits");
        let x = b.pool("pool2", x, pool).expect("fits");
        let x = b.fc("ip1", x, FcParams::new(500)).expect("fits");
        let x = b.relu("relu1", x);
        let x = b.fc("ip2", x, FcParams::new(10)).expect("fits");
        b.softmax("prob", x);
        let sparse = b.build().expect("sparse lenet5");
        let outline = |net: &Network| -> Vec<_> {
            net.layers()
                .iter()
                .map(|n| (n.desc.name.clone(), n.output_shape))
                .collect()
        };
        assert_eq!(outline(&sparse), outline(&dense));
        assert_ne!(sparse, dense);
        let seed = 0x7_1715;
        let conv1 = &dense.layers()[1];
        let shapes = dense.input_shapes(conv1.id);
        assert_ne!(
            weights::shared(conv1, &shapes, seed).w,
            weights::shared(&sparse.layers()[1], &shapes, seed).w
        );
        for net in [&dense, &sparse, &dense, &sparse] {
            let lut = lut_for(net, Mode::Cpu);
            let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 5);
            let assignment = lut.greedy_assignment();
            let ran = run_network(net, &lut, &assignment, &input, seed).output;
            let fresh = run_with_fresh_weights(net, &lut, &assignment, &input, seed);
            assert_eq!(output_bits(&ran), output_bits(&fresh));
        }
    }

    #[test]
    fn two_threads_running_one_network_agree() {
        let net = zoo::lenet5(1);
        let lut = lut_for(&net, Mode::Cpu);
        let assignment = lut.greedy_assignment();
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 5);
        // A seed no other test uses, so both threads start on a cold memo
        // and race to fill it.
        let seed = 0x2_7EAD;
        let start = std::sync::Barrier::new(2);
        let outputs: Vec<Vec<u32>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        output_bits(&run_network(&net, &lut, &assignment, &input, seed).output)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("run_network thread"))
                .collect()
        });
        let fresh = run_with_fresh_weights(&net, &lut, &assignment, &input, seed);
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], output_bits(&fresh));
    }

    #[test]
    fn branchy_network_executes_correctly() {
        let net = zoo::toy_branchy(1);
        let lut = lut_for(&net, Mode::Cpu);
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 3);
        let base = run_network(&net, &lut, &lut.vanilla_assignment(), &input, 11);
        let fast = run_network(&net, &lut, &lut.greedy_assignment(), &input, 11);
        assert!(base.output.approx_eq(&fast.output, 1e-3).unwrap());
    }
}
