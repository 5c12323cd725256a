//! Synthetic layer weights.
//!
//! Latency of every kernel here is data-independent, so weights are seeded
//! pseudo-random values. Sparsity is applied **at
//! generation time** — a fraction `1 - density` of weights is zeroed — so
//! dense and sparse kernels compute *the same function* and can be
//! cross-checked element-wise.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qsdnn_nn::{LayerKind, Node};
use qsdnn_tensor::Shape;

/// Weights/parameters of one layer in canonical dense storage.
///
/// Layouts: convolution `[OC][IC][KH][KW]`, depth-wise `[C][KH][KW]`,
/// FC `[OUT][IN]` (all row-major), plus per-channel `bias`, batch-norm
/// `scale`/`shift`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerWeights {
    /// Main weight tensor (empty for parameter-free layers).
    pub w: Vec<f32>,
    /// Bias vector (empty if the layer has none).
    pub bias: Vec<f32>,
    /// Batch-norm scale (empty unless BatchNorm).
    pub scale: Vec<f32>,
    /// Batch-norm shift (empty unless BatchNorm).
    pub shift: Vec<f32>,
}

impl LayerWeights {
    /// True if the layer carries no parameters.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty() && self.bias.is_empty() && self.scale.is_empty() && self.shift.is_empty()
    }
}

fn dense(rng: &mut SmallRng, len: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-scale..scale)).collect()
}

fn sparse(rng: &mut SmallRng, len: usize, scale: f32, density: f32) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let v = rng.gen_range(-scale..scale);
            if rng.gen_range(0.0f32..1.0) < density {
                v
            } else {
                0.0
            }
        })
        .collect()
}

/// Generates deterministic weights for `node` given its input shapes.
///
/// The same `(node, seed)` pair always produces identical weights, so every
/// primitive implementing the layer computes the same function. Weight
/// magnitudes are scaled by fan-in to keep activations in range across deep
/// networks.
pub fn generate(node: &Node, in_shapes: &[Shape], seed: u64) -> LayerWeights {
    let mut rng = SmallRng::seed_from_u64(seed ^ (node.id.0 as u64).wrapping_mul(0x9E37_79B9));
    match &node.desc.kind {
        LayerKind::Conv(p) => {
            let in_c = in_shapes[0].c;
            let fan_in = (in_c * p.kernel.0 * p.kernel.1) as f32;
            let scale = (2.0 / fan_in).sqrt();
            let len = p.out_channels * in_c * p.kernel.0 * p.kernel.1;
            LayerWeights {
                w: sparse(&mut rng, len, scale, p.weight_density),
                bias: if p.bias {
                    dense(&mut rng, p.out_channels, 0.1)
                } else {
                    Vec::new()
                },
                ..Default::default()
            }
        }
        LayerKind::DepthwiseConv(p) => {
            let c = in_shapes[0].c;
            let fan_in = (p.kernel.0 * p.kernel.1) as f32;
            let scale = (2.0 / fan_in).sqrt();
            LayerWeights {
                w: sparse(
                    &mut rng,
                    c * p.kernel.0 * p.kernel.1,
                    scale,
                    p.weight_density,
                ),
                bias: if p.bias {
                    dense(&mut rng, c, 0.1)
                } else {
                    Vec::new()
                },
                ..Default::default()
            }
        }
        LayerKind::Fc(p) => {
            let in_features = in_shapes[0].volume() / in_shapes[0].n.max(1);
            let scale = (2.0 / in_features as f32).sqrt();
            LayerWeights {
                w: sparse(
                    &mut rng,
                    p.out_features * in_features,
                    scale,
                    p.weight_density,
                ),
                bias: if p.bias {
                    dense(&mut rng, p.out_features, 0.1)
                } else {
                    Vec::new()
                },
                ..Default::default()
            }
        }
        LayerKind::BatchNorm => {
            let c = in_shapes[0].c;
            LayerWeights {
                scale: (0..c).map(|_| rng.gen_range(0.5f32..1.5)).collect(),
                shift: dense(&mut rng, c, 0.1),
                ..Default::default()
            }
        }
        _ => LayerWeights::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn_nn::{ConvParams, FcParams, NetworkBuilder};
    use qsdnn_tensor::Shape;

    fn conv_net(density: f32) -> qsdnn_nn::Network {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(Shape::new(1, 4, 8, 8));
        b.conv("c", x, ConvParams::square(8, 3, 1, 1).with_density(density))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn deterministic_per_seed() {
        let net = conv_net(1.0);
        let node = &net.layers()[1];
        let shapes = net.input_shapes(node.id);
        assert_eq!(generate(node, &shapes, 7), generate(node, &shapes, 7));
        assert_ne!(generate(node, &shapes, 7).w, generate(node, &shapes, 8).w);
    }

    #[test]
    fn density_controls_zero_fraction() {
        let net = conv_net(0.25);
        let node = &net.layers()[1];
        let w = generate(node, &net.input_shapes(node.id), 1).w;
        let nz = w.iter().filter(|&&v| v != 0.0).count() as f32 / w.len() as f32;
        assert!((nz - 0.25).abs() < 0.08, "non-zero fraction {nz}");
    }

    #[test]
    fn conv_weight_count() {
        let net = conv_net(1.0);
        let node = &net.layers()[1];
        let lw = generate(node, &net.input_shapes(node.id), 1);
        assert_eq!(lw.w.len(), 8 * 4 * 9);
        assert_eq!(lw.bias.len(), 8);
    }

    #[test]
    fn fc_and_bn_weights() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(Shape::new(1, 4, 2, 2));
        let f = b.fc("fc", x, FcParams::new(5)).unwrap();
        b.batch_norm("bn", f);
        let net = b.build().unwrap();
        let fc = generate(&net.layers()[1], &net.input_shapes(qsdnn_nn::LayerId(1)), 1);
        assert_eq!(fc.w.len(), 5 * 16);
        let bn = generate(&net.layers()[2], &net.input_shapes(qsdnn_nn::LayerId(2)), 1);
        assert_eq!(bn.scale.len(), 5);
        assert_eq!(bn.shift.len(), 5);
        assert!(bn.w.is_empty());
    }

    #[test]
    fn parameter_free_layers_are_empty() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(Shape::new(1, 4, 2, 2));
        b.relu("r", x);
        let net = b.build().unwrap();
        assert!(generate(&net.layers()[1], &net.input_shapes(qsdnn_nn::LayerId(1)), 1).is_empty());
    }
}
