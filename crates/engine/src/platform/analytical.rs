//! Roofline-style analytical model of a heterogeneous target, driven by
//! the numbers of one [`PlatformSpec`] (for the paper's Jetson TX-2, the
//! [`PlatformSpec::tx2`] calibration, "sim-TX2").
//!
//! Each layer time is `max(compute, memory) + launch`:
//!
//! * `compute = MACs / (sustained_GMACs · utilization)` — sustained
//!   throughput depends on (library, algorithm, lowering, processor);
//!   utilization droops for small layers (`macs / (macs + knee)`), which is
//!   what makes tiny networks launch/occupancy-bound on the GPU;
//! * `memory = bytes_touched / (bandwidth · efficiency)` — bytes include
//!   inputs, outputs, weights and lowering scratch (e.g. the `im2col` patch
//!   matrix), so FC layers are bandwidth-bound as on real hardware;
//! * `launch` — per-kernel dispatch overhead (dominant for GPU primitives
//!   on small layers; the reason LeNet-5's best GPGPU solution is pure CPU).
//!
//! The per-primitive envelope tables below are TX-2-class; a spec's
//! `compute_scale` scales them per core type. [`PlatformSpec::tx2`] is
//! calibrated so the *relative* shapes of the paper's Table II hold
//! (`tests/paper_claims.rs` pins them; `REPRODUCTION.json` has the table);
//! they are not claimed to be microarchitecturally exact.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qsdnn_nn::{LayerKind, LayerTag, Network, Node};
use qsdnn_primitives::{Algorithm, Library, Lowering, Primitive, Processor};
use qsdnn_tensor::Shape;

use super::spec::absent_gpu;
use super::{CoreSpec, Platform, PlatformSpec};

/// Shape-regime multiplier on sustained convolution throughput.
///
/// Real libraries win in different regimes — NNPACK's Winograd tiling pays
/// off on large spatial maps, ArmCL's on deep narrow ones; `kn2row`
/// degenerates to a single GEMM for 1×1 kernels; `im2col`/`im2row` amortize
/// best on big kernels. This is what makes the *mixed* CPU optimum clearly
/// beat every single library, as in the paper's Table II.
fn conv_regime_factor(prim: &Primitive, node: &Node) -> f64 {
    let (kernel, _) = match &node.desc.kind {
        LayerKind::Conv(p) => (p.kernel, p.stride),
        _ => return 1.0,
    };
    let spatial = node.output_shape.h * node.output_shape.w;
    let channels = node.output_shape.c;
    match (prim.library, prim.algorithm, prim.lowering) {
        (Library::Nnpack, Algorithm::Winograd, _) => {
            let mut f = 1.0;
            if spatial >= 32 * 32 {
                f *= 1.30; // large tiles amortize the transforms
            }
            if channels > 256 {
                f *= 0.85;
            }
            f
        }
        (Library::ArmCl, Algorithm::Winograd, _) => {
            let mut f = 1.0;
            if spatial >= 56 * 56 {
                f *= 0.80; // working set falls out of L2 on big maps
            }
            if channels > 256 {
                f *= 1.10;
            }
            f
        }
        // No patch copy at all for pointwise kernels: a single plain GEMM.
        (Library::Blas, _, Lowering::Kn2row) if kernel == (1, 1) => 1.6,
        // Big patches raise the lowered GEMM's arithmetic intensity.
        (Library::Blas, _, Lowering::Im2col | Lowering::Im2row) if kernel.0 >= 5 => 1.3,
        _ => 1.0,
    }
}

/// Sustained throughput (GMAC/s at full utilization) and memory-bandwidth
/// efficiency (fraction of the processor's bandwidth) for one primitive on
/// one layer kind.
fn envelope(prim: &Primitive, tag: LayerTag) -> (f64, f64) {
    use Algorithm as A;
    use Library as L;
    match tag {
        LayerTag::Input => (f64::INFINITY, 1.0),
        LayerTag::Conv => match (prim.library, prim.algorithm, prim.lowering) {
            (L::Vanilla, _, _) => (0.12, 0.30),
            (L::Blas, A::Gemm, Lowering::Im2col) => match prim.blas {
                Some(qsdnn_gemm::BlasBackend::AtlasLike) => (2.0, 0.60),
                _ => (2.8, 0.65),
            },
            (L::Blas, A::Gemm, Lowering::Im2row) => match prim.blas {
                Some(qsdnn_gemm::BlasBackend::AtlasLike) => (2.2, 0.60),
                _ => (3.0, 0.65),
            },
            (L::Blas, A::Gemm, Lowering::Kn2row) => match prim.blas {
                Some(qsdnn_gemm::BlasBackend::AtlasLike) => (2.4, 0.65),
                _ => (3.2, 0.70),
            },
            (L::Nnpack, A::DirectOpt, _) => (2.4, 0.65),
            (L::Nnpack, A::Winograd, _) => (5.0, 0.60),
            (L::ArmCl, A::Gemm, _) => (3.4, 0.70),
            (L::ArmCl, A::Winograd, _) => (6.0, 0.65),
            (L::Sparse, _, _) => (1.6, 0.50),
            (L::CuDnn, A::Gemm, _) => (140.0, 0.80),
            (L::CuDnn, A::Winograd, _) => (240.0, 0.75),
            _ => (0.1, 0.3),
        },
        LayerTag::DepthwiseConv => match prim.library {
            L::Vanilla => (0.10, 0.25),
            L::ArmCl => (1.2, 0.70),
            // Deliberately poor: contemporary cuDNN depth-wise kernels were
            // known to underperform (the paper's MobileNet finding hinges on
            // this).
            L::CuDnn => (1.0, 0.20),
            _ => (0.1, 0.3),
        },
        LayerTag::Pool => match prim.library {
            L::Vanilla => (0.25, 0.35),
            L::Nnpack => (1.5, 0.70),
            L::ArmCl => (1.2, 0.70),
            L::CuDnn => (50.0, 0.75),
            _ => (0.2, 0.3),
        },
        LayerTag::Relu => match prim.library {
            L::Vanilla => (1.2, 0.45),
            L::ArmCl => (2.0, 0.75),
            L::CuDnn => (80.0, 0.80),
            _ => (1.0, 0.4),
        },
        LayerTag::BatchNorm => match prim.library {
            L::Vanilla => (0.9, 0.40),
            L::ArmCl => (1.8, 0.70),
            L::CuDnn => (70.0, 0.80),
            _ => (0.8, 0.4),
        },
        LayerTag::Lrn => match prim.library {
            L::Vanilla => (0.18, 0.30),
            L::CuDnn => (40.0, 0.75),
            _ => (0.15, 0.3),
        },
        LayerTag::Fc => match (prim.library, prim.algorithm) {
            (L::Vanilla, _) => (1.2, 0.60),
            (L::Blas, A::Gemv) => match prim.blas {
                Some(qsdnn_gemm::BlasBackend::AtlasLike) => (1.4, 0.70),
                _ => (1.6, 0.80),
            },
            // Batched GEMM reaches higher arithmetic throughput than GEMV
            // (register blocking over the batch) but pays a transpose/pack,
            // reflected in the slightly lower bandwidth efficiency.
            (L::Blas, A::Gemm) => match prim.blas {
                Some(qsdnn_gemm::BlasBackend::AtlasLike) => (2.0, 0.60),
                _ => (2.2, 0.70),
            },
            (L::Sparse, _) => (1.0, 0.50),
            (L::CuBlas, _) => (80.0, 0.80),
            _ => (0.4, 0.3),
        },
        LayerTag::Softmax => match prim.library {
            L::Vanilla => (0.5, 0.40),
            L::CuDnn => (30.0, 0.75),
            _ => (0.4, 0.3),
        },
        LayerTag::Concat => match prim.library {
            L::Vanilla => (1.5, 0.50),
            L::CuDnn => (60.0, 0.80),
            _ => (1.0, 0.4),
        },
        LayerTag::Add => match prim.library {
            L::Vanilla => (1.2, 0.45),
            L::ArmCl => (2.0, 0.75),
            L::CuDnn => (60.0, 0.80),
            _ => (1.0, 0.4),
        },
    }
}

/// Weight density used by the Sparse library's effective-work model.
fn density_of(node: &Node) -> f64 {
    match &node.desc.kind {
        LayerKind::Conv(p) | LayerKind::DepthwiseConv(p) => p.weight_density as f64,
        LayerKind::Fc(p) => p.weight_density as f64,
        _ => 1.0,
    }
}

/// Scratch bytes a lowering touches beyond inputs/outputs/weights.
fn lowering_scratch_bytes(node: &Node, in_shapes: &[Shape], prim: &Primitive) -> f64 {
    let (kh, kw) = match &node.desc.kind {
        LayerKind::Conv(p) => p.kernel,
        _ => return 0.0,
    };
    let taps = (kh * kw) as f64;
    let out = node.output_shape;
    match prim.lowering {
        // Patch matrix: C*KH*KW x OH*OW floats, written then read.
        Lowering::Im2col | Lowering::Im2row => {
            let c = in_shapes.first().map_or(0, |s| s.c) as f64;
            2.0 * c * taps * (out.h * out.w) as f64 * 4.0
        }
        // Shifted accumulation re-touches the output once per tap.
        Lowering::Kn2row => taps * out.bytes() as f64,
        Lowering::None => {
            if prim.algorithm == Algorithm::Winograd {
                // Input/output transform scratch.
                let in_bytes = in_shapes.first().map_or(0, Shape::bytes) as f64;
                in_bytes + out.bytes() as f64
            } else {
                0.0
            }
        }
    }
}

/// The analytical model of one [`PlatformSpec`].
///
/// # Examples
///
/// ```
/// use qsdnn_engine::{AnalyticalPlatform, Platform};
/// use qsdnn_nn::zoo;
/// use qsdnn_primitives::registry;
///
/// let net = zoo::vgg19(1);
/// let conv = &net.layers()[1];
/// let mut p = AnalyticalPlatform::tx2();
/// let vanilla = registry::candidates(conv)[0];
/// let t = p.layer_time_ms(&net, conv, &vanilla);
/// assert!(t > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AnalyticalPlatform {
    spec: PlatformSpec,
    /// `spec.gpu`, or finite-but-hopeless sentinel numbers for a CPU-only
    /// spec, so a mis-routed GPU primitive prices itself out.
    gpu: CoreSpec,
    rng: SmallRng,
}

impl AnalyticalPlatform {
    /// Platform with the sim-TX2 calibration, [`PlatformSpec::tx2`].
    pub fn tx2() -> Self {
        AnalyticalPlatform::from_spec(&PlatformSpec::tx2())
    }

    /// Platform driven by a data-described target: the spec's numbers
    /// become the model constants and the spec's name becomes the
    /// platform (and therefore LUT) name.
    pub fn from_spec(spec: &PlatformSpec) -> Self {
        AnalyticalPlatform {
            spec: spec.clone(),
            gpu: spec.gpu.clone().unwrap_or_else(absent_gpu),
            rng: SmallRng::seed_from_u64(spec.seed),
        }
    }

    /// The spec this platform models.
    pub(super) fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The core type that runs `processor`'s kernels.
    fn core(&self, processor: Processor) -> &CoreSpec {
        match processor {
            Processor::Cpu => &self.spec.cpu,
            Processor::Gpu => &self.gpu,
        }
    }

    /// Noise-free base time — what the profiler's repeat-averaging should
    /// converge to.
    pub fn base_layer_time_ms(&self, net: &Network, node: &Node, prim: &Primitive) -> f64 {
        if node.desc.tag() == LayerTag::Input {
            return 0.0;
        }
        let in_shapes = net.input_shapes(node.id);
        let mut macs = node.desc.macs(&in_shapes, node.output_shape) as f64;
        if prim.library == Library::Sparse {
            macs *= density_of(node);
        }
        let (mut gmacs, mem_eff) = envelope(prim, node.desc.tag());
        gmacs *= conv_regime_factor(prim, node);
        let core = self.core(prim.processor);
        gmacs *= core.compute_scale;
        let util = macs / (macs + core.saturation_macs);
        let compute_ms = if macs > 0.0 {
            macs / (gmacs * 1e6 * util.max(1e-9))
        } else {
            0.0
        };

        let in_bytes: f64 = in_shapes.iter().map(|s| s.bytes() as f64).sum();
        let mut weight_bytes = node.desc.param_count(&in_shapes) as f64 * 4.0;
        if prim.library == Library::Sparse {
            // CSR stores value + column index per surviving weight.
            weight_bytes *= density_of(node) * 2.0;
        }
        if node.desc.tag() == LayerTag::Fc
            && matches!(prim.algorithm, Algorithm::Gemv | Algorithm::SparseCsr)
        {
            // GEMV/CSR re-stream the weight matrix once per batch element;
            // batched GEMM amortizes it — the classic batched-FC crossover.
            weight_bytes *= node.output_shape.n.max(1) as f64;
        }
        let bytes = in_bytes
            + node.output_shape.bytes() as f64
            + weight_bytes
            + lowering_scratch_bytes(node, &in_shapes, prim);
        let memory_ms = bytes / (core.bandwidth_gbs * mem_eff * 1e6);

        compute_ms.max(memory_ms) + core.launch_ms
    }
}

impl Platform for AnalyticalPlatform {
    fn layer_time_ms(&mut self, net: &Network, node: &Node, prim: &Primitive) -> f64 {
        let base = self.base_layer_time_ms(net, node, prim);
        if base == 0.0 || self.spec.noise == 0.0 {
            return base;
        }
        let eps: f64 = self.rng.gen_range(-1.0..1.0);
        base * (1.0 + self.spec.noise * eps)
    }

    fn conversion_time_ms(&self, shape: Shape, from: &Primitive, to: &Primitive) -> f64 {
        let bytes = shape.bytes() as f64;
        let same_proc = from.processor == to.processor;
        let same_layout = from.layout == to.layout;
        if same_proc && same_layout {
            return 0.0;
        }
        // Layout repack on the processor that holds the data afterwards.
        let repack_ms = |processor| {
            let core = self.core(processor);
            bytes / (core.repack_gbs * 1e6) + core.launch_ms
        };
        if same_proc {
            return repack_ms(from.processor);
        }
        // Cross-processor copy (+ repack at the destination if needed).
        let link = &self.spec.link;
        let mut t = bytes / (link.bandwidth_gbs * 1e6) + link.latency_ms;
        if !same_layout {
            t += repack_ms(to.processor);
        }
        t
    }

    fn processor_power_w(&self, processor: Processor) -> f64 {
        self.core(processor).power_w
    }

    fn transfer_power_w(&self) -> f64 {
        self.spec.link.power_w
    }

    fn name(&self) -> &str {
        &self.spec.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn_nn::zoo;
    use qsdnn_primitives::registry;
    use qsdnn_tensor::DataLayout;

    fn find_prim(cands: &[Primitive], f: impl Fn(&Primitive) -> bool) -> Primitive {
        *cands.iter().find(|p| f(p)).expect("primitive present")
    }

    #[test]
    fn winograd_beats_vanilla_by_order_of_magnitude() {
        let net = zoo::vgg19(1);
        let conv = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "conv3_1")
            .unwrap();
        let cands = registry::candidates(conv);
        let p = AnalyticalPlatform::tx2();
        let vanilla = p.base_layer_time_ms(&net, conv, &cands[0]);
        let wino = find_prim(&cands, |p| {
            p.algorithm == Algorithm::Winograd && p.library == Library::ArmCl
        });
        let fast = p.base_layer_time_ms(&net, conv, &wino);
        assert!(
            vanilla / fast > 20.0,
            "vanilla {vanilla} vs winograd {fast}"
        );
    }

    #[test]
    fn fc_is_bandwidth_bound() {
        // VGG fc6: 103 MMACs but 411 MB of weights. Memory term dominates.
        let net = zoo::vgg19(1);
        let fc6 = net.layers().iter().find(|l| l.desc.name == "fc6").unwrap();
        let cands = registry::candidates(fc6);
        let p = AnalyticalPlatform::tx2();
        let blas = find_prim(&cands, |p| p.library == Library::Blas);
        let t = p.base_layer_time_ms(&net, fc6, &blas);
        // 411 MB at ~6.4 GB/s effective is ~60 ms.
        assert!(t > 20.0 && t < 200.0, "fc6 blas time {t}");
    }

    #[test]
    fn gpu_launch_dominates_tiny_layers() {
        // LeNet pool1 does ~3K ops: the GPU primitive is launch/occupancy
        // bound and loses to the NNPACK fast path outright.
        let net = zoo::lenet5(1);
        let pool1 = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "pool1")
            .unwrap();
        let cands = registry::candidates(pool1);
        let p = AnalyticalPlatform::tx2();
        let gpu = find_prim(&cands, |p| p.processor == Processor::Gpu);
        let cpu = find_prim(&cands, |p| p.library == Library::Nnpack);
        let t_gpu = p.base_layer_time_ms(&net, pool1, &gpu);
        let t_cpu = p.base_layer_time_ms(&net, pool1, &cpu);
        assert!(
            t_gpu > t_cpu,
            "gpu {t_gpu} should lose to cpu {t_cpu} on LeNet pool1"
        );
        assert!(t_gpu >= p.core(Processor::Gpu).launch_ms);
    }

    #[test]
    fn gpu_wins_big_convolutions() {
        let net = zoo::vgg19(1);
        let conv = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "conv2_1")
            .unwrap();
        let cands = registry::candidates(conv);
        let p = AnalyticalPlatform::tx2();
        let gpu = find_prim(&cands, |p| p.library == Library::CuDnn);
        let best_cpu = cands
            .iter()
            .filter(|p| p.processor == Processor::Cpu)
            .map(|pr| p.base_layer_time_ms(&net, conv, pr))
            .fold(f64::INFINITY, f64::min);
        let t_gpu = p.base_layer_time_ms(&net, conv, &gpu);
        assert!(t_gpu < best_cpu, "gpu {t_gpu} vs best cpu {best_cpu}");
    }

    #[test]
    fn sparse_fc_wins_at_low_density() {
        let net = zoo::alexnet(1); // fc6/fc7 density 0.25
        let fc6 = net.layers().iter().find(|l| l.desc.name == "fc6").unwrap();
        let cands = registry::candidates(fc6);
        let p = AnalyticalPlatform::tx2();
        let sparse = find_prim(&cands, |p| p.library == Library::Sparse);
        let blas = find_prim(&cands, |p| {
            p.library == Library::Blas
                && p.blas == Some(qsdnn_gemm::BlasBackend::OpenBlasLike)
                && p.algorithm == Algorithm::Gemv
        });
        let t_sparse = p.base_layer_time_ms(&net, fc6, &sparse);
        let t_blas = p.base_layer_time_ms(&net, fc6, &blas);
        assert!(t_sparse < t_blas, "sparse {t_sparse} vs blas {t_blas}");
    }

    #[test]
    fn conversion_costs_are_ordered() {
        let p = AnalyticalPlatform::tx2();
        let shape = Shape::new(1, 64, 56, 56);
        let cpu_nchw = Primitive::vanilla();
        let mut cpu_nhwc = Primitive::vanilla();
        cpu_nhwc.layout = DataLayout::Nhwc;
        let mut gpu_nchw = Primitive::vanilla();
        gpu_nchw.processor = Processor::Gpu;
        let same = p.conversion_time_ms(shape, &cpu_nchw, &cpu_nchw);
        let repack = p.conversion_time_ms(shape, &cpu_nchw, &cpu_nhwc);
        let transfer = p.conversion_time_ms(shape, &cpu_nchw, &gpu_nchw);
        assert_eq!(same, 0.0);
        assert!(repack > 0.0);
        assert!(transfer > repack, "transfer {transfer} vs repack {repack}");
    }

    #[test]
    fn noise_averages_to_base() {
        let net = zoo::lenet5(1);
        let conv1 = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "conv1")
            .unwrap();
        let prim = registry::candidates(conv1)[1];
        let mut p = AnalyticalPlatform::tx2();
        let base = p.base_layer_time_ms(&net, conv1, &prim);
        let mean: f64 = (0..500)
            .map(|_| p.layer_time_ms(&net, conv1, &prim))
            .sum::<f64>()
            / 500.0;
        assert!(
            (mean - base).abs() / base < 0.01,
            "mean {mean} vs base {base}"
        );
    }

    #[test]
    fn batched_fc_prefers_gemm_over_gemv() {
        // At batch 1 GEMV wins (no transpose/pack overhead modelled in its
        // envelope); by batch 8 the re-streamed weights make GEMM win.
        let p = AnalyticalPlatform::tx2();
        let pick_best = |batch: usize| {
            let net = zoo::lenet5(batch);
            let ip1 = net.layers().iter().find(|l| l.desc.name == "ip1").unwrap();
            registry::candidates(ip1)
                .into_iter()
                .filter(|c| {
                    c.library == Library::Blas
                        && c.blas == Some(qsdnn_gemm::BlasBackend::OpenBlasLike)
                })
                .min_by(|a, b| {
                    p.base_layer_time_ms(&net, ip1, a)
                        .partial_cmp(&p.base_layer_time_ms(&net, ip1, b))
                        .unwrap()
                })
                .unwrap()
        };
        assert_eq!(pick_best(1).algorithm, Algorithm::Gemv);
        assert_eq!(pick_best(8).algorithm, Algorithm::Gemm);
    }

    #[test]
    fn input_layer_is_free() {
        let net = zoo::lenet5(1);
        let mut p = AnalyticalPlatform::tx2();
        assert_eq!(
            p.layer_time_ms(&net, &net.layers()[0], &Primitive::vanilla()),
            0.0
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let net = zoo::lenet5(1);
        let conv1 = &net.layers()[1];
        let prim = registry::candidates(conv1)[1];
        let mut a = AnalyticalPlatform::tx2();
        let mut b = AnalyticalPlatform::tx2();
        for _ in 0..10 {
            assert_eq!(
                a.layer_time_ms(&net, conv1, &prim),
                b.layer_time_ms(&net, conv1, &prim)
            );
        }
    }
}
