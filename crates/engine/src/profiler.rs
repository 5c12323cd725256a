//! Phase 1 of QS-DNN: inference on the (simulated) embedded system to
//! populate the [`CostLut`].
//!
//! Mirrors paper §V.A:
//!
//! 1. every primitive type is benchmarked network-wide (mean over a
//!    configurable number of repeats — 50 in the paper, one per image);
//! 2. all compatibility layers between *consecutive* (graph-adjacent)
//!    layers are profiled, branches included (Fig. 3);
//! 3. the LUT is assembled.

use qsdnn_nn::Network;
use qsdnn_primitives::{registry, Library, Primitive};

use crate::{CostLut, IncomingEdge, LayerEntry, Mode, Platform};

/// Phase-1 profiler driving a [`Platform`].
///
/// # Examples
///
/// ```
/// use qsdnn_engine::{AnalyticalPlatform, Mode, Profiler};
/// use qsdnn_nn::zoo;
///
/// let net = zoo::lenet5(1);
/// let mut profiler = Profiler::new(AnalyticalPlatform::tx2());
/// let lut = profiler.profile(&net, Mode::Cpu);
/// assert_eq!(lut.len(), net.len());
/// ```
#[derive(Debug)]
pub struct Profiler<P: Platform> {
    platform: P,
    repeats: usize,
}

impl<P: Platform> Profiler<P> {
    /// Profiler with the paper's repeat count (50 inferences per primitive).
    pub fn new(platform: P) -> Self {
        Profiler {
            platform,
            repeats: 50,
        }
    }

    /// Profiler with a custom repeat count (≥1).
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero.
    pub fn with_repeats(platform: P, repeats: usize) -> Self {
        assert!(repeats > 0, "at least one repeat is required");
        Profiler { platform, repeats }
    }

    /// Number of whole-network inference sweeps Phase 1 performs: one per
    /// distinct global implementation (per library, its maximum per-layer
    /// variant count), plus one for compatibility profiling (paper §V.A).
    pub fn inference_count(net: &Network, mode: Mode) -> usize {
        let mut sweeps = 0;
        for lib in Library::ALL {
            let max_variants = net
                .layers()
                .iter()
                .map(|node| {
                    registry::candidates(node)
                        .into_iter()
                        .filter(|p| mode.admits(p) && p.library == lib)
                        .count()
                })
                .max()
                .unwrap_or(0);
            sweeps += max_variants;
        }
        sweeps + 1
    }

    /// Runs Phase 1 and assembles the LUT.
    pub fn profile(&mut self, net: &Network, mode: Mode) -> CostLut {
        let profile_start = std::time::Instant::now();
        let mut entries: Vec<LayerEntry> = Vec::with_capacity(net.len());
        // 1) Per-primitive benchmarking, averaged over repeats.
        let mut all_candidates: Vec<Vec<Primitive>> = Vec::with_capacity(net.len());
        for node in net.layers() {
            let candidates: Vec<Primitive> = registry::candidates(node)
                .into_iter()
                .filter(|p| mode.admits(p))
                .collect();
            let mut time_ms = Vec::with_capacity(candidates.len());
            let mut energy_mj = Vec::with_capacity(candidates.len());
            for prim in &candidates {
                let mut acc = 0.0;
                let mut acc_e = 0.0;
                for _ in 0..self.repeats {
                    acc += self.platform.layer_time_ms(net, node, prim);
                    acc_e += self.platform.layer_energy_mj(net, node, prim);
                }
                time_ms.push(acc / self.repeats as f64);
                energy_mj.push(acc_e / self.repeats as f64);
            }
            all_candidates.push(candidates.clone());
            entries.push(LayerEntry {
                name: node.desc.name.clone(),
                tag: node.desc.tag(),
                candidates,
                time_ms,
                energy_mj,
                incoming: Vec::new(),
            });
        }
        // 2) Compatibility layers on every graph edge (branches handled).
        for node in net.layers() {
            let li = node.id.0;
            for &producer in &node.inputs {
                let shape = net.node(producer).output_shape;
                let from_cands = &all_candidates[producer.0];
                let self_cands = &all_candidates[li];
                let mut penalty = Vec::with_capacity(from_cands.len() * self_cands.len());
                let mut penalty_energy_mj = Vec::with_capacity(penalty.capacity());
                for pf in from_cands {
                    for pt in self_cands {
                        penalty.push(self.platform.conversion_time_ms(shape, pf, pt));
                        penalty_energy_mj.push(self.platform.conversion_energy_mj(shape, pf, pt));
                    }
                }
                entries[li].incoming.push(IncomingEdge {
                    from: producer.0,
                    penalty,
                    penalty_energy_mj,
                });
            }
        }
        let registry = qsdnn_obs::global();
        registry
            .histogram(
                "qsdnn_profile_us",
                "Wall time of one Phase-1 profiling run (full network)",
                &[],
            )
            .record_duration(profile_start.elapsed());
        registry
            .counter(
                "qsdnn_profile_layers_total",
                "Network layers profiled in Phase-1 runs",
                &[],
            )
            .add(net.len() as u64);
        CostLut::from_parts(net.name(), self.platform.name(), mode, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyticalPlatform, PlatformKind, PlatformRegistry};
    use qsdnn_nn::zoo;
    use qsdnn_primitives::Processor;

    fn quick_lut(name: &str, mode: Mode) -> CostLut {
        let net = zoo::by_name(name, 1).expect("known net");
        Profiler::with_repeats(AnalyticalPlatform::tx2(), 3).profile(&net, mode)
    }

    /// `(platform, network, mode, CostLut::fingerprint)` of a 3-repeat
    /// profile of every analytical built-in, recorded before `PlatformSpec`
    /// became the only platform description. A change to the analytical
    /// model that moves one bit of one LUT fails here; re-record the table
    /// and say why.
    #[rustfmt::skip]
    const GOLDEN_LUTS: [(&str, &str, Mode, u64); 20] = [
        ("sim-cpu-only", "tiny_cnn", Mode::Cpu, 0x5fd1e0673a9dfb07),
        ("sim-cpu-only", "lenet5", Mode::Cpu, 0x795e68e0c0d0c71f),
        ("sim-cpu-only", "toy_branchy", Mode::Cpu, 0xcca636f84b875e74),
        ("sim-cpu-only", "squeezenet_v11", Mode::Cpu, 0xd8bab32e612e6b4a),
        ("sim-gpu-heavy", "tiny_cnn", Mode::Cpu, 0xb4b4529886c9dc9a),
        ("sim-gpu-heavy", "tiny_cnn", Mode::Gpgpu, 0x1e3c234def71ed39),
        ("sim-gpu-heavy", "lenet5", Mode::Cpu, 0x69553b5fe3859dda),
        ("sim-gpu-heavy", "lenet5", Mode::Gpgpu, 0x219658e5424be645),
        ("sim-gpu-heavy", "toy_branchy", Mode::Cpu, 0x7d17f4aca300fc84),
        ("sim-gpu-heavy", "toy_branchy", Mode::Gpgpu, 0x3cd7f5a40cb678d3),
        ("sim-gpu-heavy", "squeezenet_v11", Mode::Cpu, 0x256f0eb73dc60ec2),
        ("sim-gpu-heavy", "squeezenet_v11", Mode::Gpgpu, 0xb9eea31e46c7e845),
        ("sim-tx2", "tiny_cnn", Mode::Cpu, 0xfcf6561f930c04bb),
        ("sim-tx2", "tiny_cnn", Mode::Gpgpu, 0x165cde0b522280c5),
        ("sim-tx2", "lenet5", Mode::Cpu, 0x0eb7390ffecc82c4),
        ("sim-tx2", "lenet5", Mode::Gpgpu, 0x85608e441d3d0a8c),
        ("sim-tx2", "toy_branchy", Mode::Cpu, 0x3853257dbaf660fe),
        ("sim-tx2", "toy_branchy", Mode::Gpgpu, 0x6f813d70b6c6cf6d),
        ("sim-tx2", "squeezenet_v11", Mode::Cpu, 0x7976118b12095941),
        ("sim-tx2", "squeezenet_v11", Mode::Gpgpu, 0x5d70d14006ca4df6),
    ];

    #[test]
    fn analytical_builtins_profile_to_golden_luts() {
        let r = PlatformRegistry::builtin();
        let mut got = Vec::new();
        for spec in r.specs().filter(|s| s.kind == PlatformKind::Analytical) {
            for net_name in ["tiny_cnn", "lenet5", "toy_branchy", "squeezenet_v11"] {
                let net = zoo::by_name(net_name, 1).expect("zoo");
                for mode in [Mode::Cpu, Mode::Gpgpu] {
                    if spec.supports(mode) {
                        let lut =
                            Profiler::with_repeats(r.instantiate(spec), 3).profile(&net, mode);
                        got.push((spec.name.as_str(), net_name, mode, lut.fingerprint()));
                    }
                }
            }
        }
        let table: String = got
            .iter()
            .map(|(p, n, m, fp)| format!("        ({p:?}, {n:?}, Mode::{m:?}, {fp:#018x}),\n"))
            .collect();
        assert_eq!(got, GOLDEN_LUTS, "profiled LUTs moved; now:\n{table}");
    }

    #[test]
    fn tx2_constructor_matches_the_sim_tx2_golden_rows() {
        let rows: Vec<_> = GOLDEN_LUTS.iter().filter(|r| r.0 == "sim-tx2").collect();
        assert_eq!(rows.len(), 8);
        for &&(_, net_name, mode, fp) in &rows {
            let net = zoo::by_name(net_name, 1).expect("zoo");
            let lut = Profiler::with_repeats(AnalyticalPlatform::tx2(), 3).profile(&net, mode);
            assert_eq!(lut.fingerprint(), fp, "{net_name} {mode}");
        }
    }

    #[test]
    fn lut_covers_every_layer_and_edge() {
        let net = zoo::googlenet(1);
        let lut = Profiler::with_repeats(AnalyticalPlatform::tx2(), 2).profile(&net, Mode::Cpu);
        assert_eq!(lut.len(), net.len());
        let edges: usize = lut.layers().iter().map(|l| l.incoming.len()).sum();
        assert_eq!(edges, net.edges().len(), "all branches profiled (Fig. 3)");
    }

    #[test]
    fn cpu_mode_excludes_gpu_candidates() {
        let lut = quick_lut("lenet5", Mode::Cpu);
        for l in lut.layers() {
            assert!(l.candidates.iter().all(|p| p.processor == Processor::Cpu));
        }
    }

    #[test]
    fn gpgpu_mode_includes_gpu_candidates() {
        let lut = quick_lut("lenet5", Mode::Gpgpu);
        let has_gpu = lut
            .layers()
            .iter()
            .any(|l| l.candidates.iter().any(|p| p.processor == Processor::Gpu));
        assert!(has_gpu);
    }

    #[test]
    fn averaging_repeats_tightens_towards_base() {
        // With many repeats the profiled mean must approach the noise-free
        // base time.
        let net = zoo::lenet5(1);
        let platform = AnalyticalPlatform::tx2();
        let conv1 = &net.layers()[1];
        let prim = qsdnn_primitives::registry::candidates(conv1)[1];
        let base = platform.base_layer_time_ms(&net, conv1, &prim);
        let lut = Profiler::with_repeats(platform, 200).profile(&net, Mode::Cpu);
        let ci = lut.candidates(1).iter().position(|p| *p == prim).unwrap();
        let measured = lut.time(1, ci);
        assert!(
            (measured - base).abs() / base < 0.02,
            "{measured} vs {base}"
        );
    }

    #[test]
    fn inference_count_matches_paper_structure() {
        let net = zoo::vgg19(1);
        // CPU mode: vanilla 1 + blas 6 + nnpack 2 + armcl 2 + sparse 1
        // (fc/pointwise) + 1 compatibility sweep.
        let n = Profiler::<AnalyticalPlatform>::inference_count(&net, Mode::Cpu);
        assert!(n > 5 && n < 30, "sweep count {n}");
        let n_gpu = Profiler::<AnalyticalPlatform>::inference_count(&net, Mode::Gpgpu);
        assert!(n_gpu > n, "GPGPU adds cuDNN/cuBLAS sweeps");
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_rejected() {
        let _ = Profiler::with_repeats(AnalyticalPlatform::tx2(), 0);
    }

    #[test]
    fn energy_is_profiled_alongside_time() {
        let lut = quick_lut("lenet5", Mode::Gpgpu);
        for (l, entry) in lut.layers().iter().enumerate().skip(1) {
            for ci in 0..entry.candidates.len() {
                assert!(lut.energy(l, ci) > 0.0, "{}: candidate {ci}", entry.name);
            }
        }
        let v = lut.vanilla_assignment();
        assert!(lut.energy_cost(&v) > 0.0);
    }

    #[test]
    fn gpu_burns_more_power_per_unit_time() {
        // Energy/time ratio must reflect the processor's power draw.
        let lut = quick_lut("lenet5", Mode::Gpgpu);
        let conv2 = 3; // lenet conv2 entry
        let entry = &lut.layers()[conv2];
        let gpu = entry
            .candidates
            .iter()
            .position(|p| p.processor == Processor::Gpu)
            .expect("gpu candidate");
        let cpu = 0;
        let gpu_ratio = lut.energy(conv2, gpu) / lut.time(conv2, gpu);
        let cpu_ratio = lut.energy(conv2, cpu) / lut.time(conv2, cpu);
        assert!(
            gpu_ratio > cpu_ratio * 2.0,
            "gpu {gpu_ratio} vs cpu {cpu_ratio}"
        );
    }

    #[test]
    fn objective_scalarization_is_linear() {
        use crate::Objective;
        let lut = quick_lut("lenet5", Mode::Gpgpu);
        let a = lut.greedy_assignment();
        let base = lut.cost(&a);
        let energy = lut.energy_cost(&a);
        let weighted = lut.with_objective(Objective::Weighted { lambda: 2.0 });
        assert!((weighted.cost(&a) - (base + 2.0 * energy)).abs() < 1e-9);
        let pure_e = lut.with_objective(Objective::Energy);
        assert!((pure_e.cost(&a) - energy).abs() < 1e-9);
        let identity = lut.with_objective(Objective::Latency);
        assert!((identity.cost(&a) - base).abs() < 1e-12);
    }
}
