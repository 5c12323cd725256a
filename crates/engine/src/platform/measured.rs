//! Wall-clock platform: times the real Rust kernels on the host CPU.

use std::collections::HashMap;
use std::time::Instant;

use qsdnn_nn::{Network, Node};
use qsdnn_primitives::{execute_layer, generate_weights, LayerWeights, Primitive, Processor};
use qsdnn_tensor::{Shape, Tensor};

use super::{AnalyticalPlatform, Platform, PlatformSpec};

/// Times each primitive by actually executing its kernel on the host CPU.
///
/// GPU primitives cannot be timed on the host; they are delegated to an
/// [`AnalyticalPlatform`] built from the same spec, which also holds the
/// spec's name and seed. Host-CPU absolute times will differ from a
/// Cortex-A57, but the *relative* ordering of the algorithm families
/// (direct ≪ GEMM-lowered < Winograd for 3×3) is preserved, which is what
/// the search consumes.
pub struct MeasuredPlatform {
    analytical: AnalyticalPlatform,
    inputs: HashMap<(String, usize), Vec<Tensor>>,
    weights: HashMap<(String, usize), LayerWeights>,
}

impl MeasuredPlatform {
    /// The registry's [`PlatformSpec::measured_host`] with `seed` in place
    /// of its seed: `seed` controls the synthetic inputs and weights and
    /// the GPU fallback's noise, so `new(7)` is exactly `measured-host`.
    pub fn new(seed: u64) -> Self {
        MeasuredPlatform::from_spec(&PlatformSpec {
            seed,
            ..PlatformSpec::measured_host()
        })
    }

    /// Measured platform described by a spec: the spec's name labels the
    /// LUTs, its seed drives the fixtures, and its numbers parameterize
    /// the embedded analytical fallback (GPU primitives, cross-processor
    /// links) and the per-processor powers.
    pub fn from_spec(spec: &PlatformSpec) -> Self {
        MeasuredPlatform {
            analytical: AnalyticalPlatform::from_spec(spec),
            inputs: HashMap::new(),
            weights: HashMap::new(),
        }
    }

    fn fixture(&mut self, net: &Network, node: &Node) -> (Vec<Tensor>, LayerWeights) {
        let key = (net.name().to_string(), node.id.0);
        let seed = self.analytical.spec().seed;
        let inputs = self
            .inputs
            .entry(key.clone())
            .or_insert_with(|| {
                let shapes: Vec<Shape> = if node.inputs.is_empty() {
                    vec![node.output_shape]
                } else {
                    net.input_shapes(node.id)
                };
                shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        Tensor::random(
                            s,
                            qsdnn_tensor::DataLayout::Nchw,
                            seed ^ (node.id.0 as u64) << 8 ^ i as u64,
                        )
                    })
                    .collect()
            })
            .clone();
        let weights = self
            .weights
            .entry(key)
            .or_insert_with(|| generate_weights(node, &net.input_shapes(node.id), seed))
            .clone();
        (inputs, weights)
    }
}

impl Platform for MeasuredPlatform {
    fn layer_time_ms(&mut self, net: &Network, node: &Node, prim: &Primitive) -> f64 {
        if prim.processor == Processor::Gpu {
            return self.analytical.layer_time_ms(net, node, prim);
        }
        let (inputs, weights) = self.fixture(net, node);
        let converted: Vec<Tensor> = inputs.iter().map(|t| t.to_layout(prim.layout)).collect();
        let refs: Vec<&Tensor> = converted.iter().collect();
        let start = Instant::now();
        let out = execute_layer(node, prim, &refs, &weights);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        // Keep the optimizer from discarding the computation.
        std::hint::black_box(out.as_slice().first().copied());
        elapsed
    }

    fn conversion_time_ms(&self, shape: Shape, from: &Primitive, to: &Primitive) -> f64 {
        if from.processor != to.processor {
            // Cross-processor copies cannot be measured on the host.
            return self.analytical.conversion_time_ms(shape, from, to);
        }
        if from.layout == to.layout {
            return 0.0;
        }
        let t = Tensor::random(shape, from.layout, self.analytical.spec().seed);
        let start = Instant::now();
        let converted = t.to_layout(to.layout);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(converted.as_slice().first().copied());
        elapsed
    }

    fn processor_power_w(&self, processor: Processor) -> f64 {
        self.analytical.processor_power_w(processor)
    }

    fn transfer_power_w(&self) -> f64 {
        self.analytical.transfer_power_w()
    }

    fn name(&self) -> &str {
        self.analytical.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn_nn::zoo;
    use qsdnn_primitives::registry;

    #[test]
    fn measures_positive_times_for_cpu_primitives() {
        let net = zoo::tiny_cnn(1);
        let mut p = MeasuredPlatform::new(3);
        let conv = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "conv1")
            .unwrap();
        for prim in registry::candidates(conv) {
            if prim.processor == Processor::Cpu {
                let t = p.layer_time_ms(&net, conv, &prim);
                assert!(t > 0.0, "{prim}: {t}");
            }
        }
    }

    #[test]
    fn vanilla_direct_is_slower_than_gemm_on_bigger_convs() {
        // Use a moderately sized conv so the ordering is reliable.
        let net = zoo::sphereface20(1);
        let conv = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "conv2_1")
            .unwrap();
        let mut p = MeasuredPlatform::new(3);
        let cands = registry::candidates(conv);
        let vanilla = cands[0];
        let gemm = cands
            .iter()
            .find(|c| c.library == qsdnn_primitives::Library::Blas)
            .copied()
            .unwrap();
        // Warm up, then take the best of 3 to de-noise.
        let tv = (0..3)
            .map(|_| p.layer_time_ms(&net, conv, &vanilla))
            .fold(f64::MAX, f64::min);
        let tg = (0..3)
            .map(|_| p.layer_time_ms(&net, conv, &gemm))
            .fold(f64::MAX, f64::min);
        assert!(tv > tg, "vanilla {tv} should be slower than blas gemm {tg}");
    }

    #[test]
    fn gpu_primitives_fall_back_to_analytical() {
        let net = zoo::tiny_cnn(1);
        let conv = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "conv1")
            .unwrap();
        let gpu = registry::candidates(conv)
            .into_iter()
            .find(|c| c.processor == Processor::Gpu)
            .unwrap();
        let mut p = MeasuredPlatform::new(3);
        let t = p.layer_time_ms(&net, conv, &gpu);
        let gpu_launch_ms = PlatformSpec::tx2().gpu.expect("tx2 has a gpu").launch_ms;
        assert!(t >= gpu_launch_ms * 0.9);
    }

    #[test]
    fn new_is_the_registry_measured_host() {
        // `new(7)` and the registry's `measured-host` spec are one
        // platform: same name, and bit-identical analytical fallback rows
        // (GPU layer times, cross-processor conversions) call for call.
        let platforms = crate::PlatformRegistry::builtin();
        let mut via_new = MeasuredPlatform::new(7);
        let mut via_spec = platforms.instantiate(&PlatformSpec::measured_host());
        assert_eq!(via_new.name(), via_spec.name());
        let net = zoo::tiny_cnn(1);
        let conv1 = &net.layers()[1];
        let gpu = registry::candidates(conv1)
            .into_iter()
            .find(|c| c.processor == Processor::Gpu)
            .unwrap();
        for _ in 0..4 {
            assert_eq!(
                via_new.layer_time_ms(&net, conv1, &gpu).to_bits(),
                via_spec.layer_time_ms(&net, conv1, &gpu).to_bits()
            );
        }
        let shape = Shape::new(1, 32, 16, 16);
        let cpu = Primitive::vanilla();
        for (from, to) in [(cpu, gpu), (gpu, cpu)] {
            assert_eq!(
                via_new.conversion_time_ms(shape, &from, &to).to_bits(),
                via_spec.conversion_time_ms(shape, &from, &to).to_bits()
            );
        }
    }

    #[test]
    fn layout_conversion_is_measured() {
        let p = MeasuredPlatform::new(1);
        let mut nhwc = Primitive::vanilla();
        nhwc.layout = qsdnn_tensor::DataLayout::Nhwc;
        let t = p.conversion_time_ms(Shape::new(1, 32, 32, 32), &Primitive::vanilla(), &nhwc);
        assert!(t > 0.0);
        let zero = p.conversion_time_ms(
            Shape::new(1, 32, 32, 32),
            &Primitive::vanilla(),
            &Primitive::vanilla(),
        );
        assert_eq!(zero, 0.0);
    }
}
