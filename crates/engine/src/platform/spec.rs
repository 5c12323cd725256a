//! Platforms as data: [`PlatformSpec`] describes one heterogeneous target
//! — core types, bandwidths, the CPU↔GPU link and per-processor powers —
//! as a plain serializable value, so targets can be committed as JSON,
//! shipped in a `--platform-dir`, fingerprinted into cache keys and
//! compared for transfer distance. A spec never executes anything; the
//! [`PlatformRegistry`](super::PlatformRegistry) instantiates a concrete
//! [`Platform`](super::Platform) impl from it.

use serde::{Deserialize, Serialize};

use super::Mode;
use crate::Fnv64;

/// Which `Platform` implementation a spec instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlatformKind {
    /// Roofline-style analytical model driven entirely by the spec numbers.
    #[default]
    Analytical,
    /// Wall-clock timing of the real kernels on the host CPU; GPU
    /// primitives and cross-processor links fall back to the analytical
    /// model built from the same spec.
    Measured,
}

impl PlatformKind {
    /// Stable lowercase tag (`"analytical"` / `"measured"`).
    pub fn label(&self) -> &'static str {
        match self {
            PlatformKind::Analytical => "analytical",
            PlatformKind::Measured => "measured",
        }
    }
}

impl std::str::FromStr for PlatformKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytical" => Ok(PlatformKind::Analytical),
            "measured" => Ok(PlatformKind::Measured),
            other => Err(format!(
                "unknown platform kind `{other}` (analytical|measured)"
            )),
        }
    }
}

impl std::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for PlatformKind {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for PlatformKind {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::String(s) => s.parse().map_err(|e: String| serde::Error::custom(&e)),
            _ => Err(serde::Error::custom(
                "expected \"analytical\" or \"measured\"",
            )),
        }
    }
}

/// One core type of a platform: the numbers the roofline model needs to
/// time a kernel on it, plus its active power for the energy objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreSpec {
    /// Effective memory bandwidth of this core type (GB/s).
    pub bandwidth_gbs: f64,
    /// Per-kernel dispatch/launch overhead (ms).
    pub launch_ms: f64,
    /// Utilization knee: MACs at which efficiency reaches 50%.
    pub saturation_macs: f64,
    /// Layout-repack bandwidth on this core type (GB/s).
    pub repack_gbs: f64,
    /// Active power of this core type under load (W) — the basis of every
    /// energy number the profiler emits for primitives on this core.
    pub power_w: f64,
    /// Sustained-compute multiplier relative to the TX-2-class calibration
    /// tables (1.0 = TX-2; 2.0 = twice the GMAC/s on every primitive).
    pub compute_scale: f64,
}

/// The CPU↔GPU interconnect of a platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Copy bandwidth across the interconnect (GB/s).
    pub bandwidth_gbs: f64,
    /// Fixed per-transfer latency (ms).
    pub latency_ms: f64,
    /// Power drawn while moving data across the link (W).
    pub power_w: f64,
}

/// A heterogeneous target described as pure data.
///
/// Everything a [`Platform`](super::Platform) impl needs — core types with
/// bandwidth/launch/knee/compute-scale, the CPU↔GPU link, per-processor
/// powers, measurement noise — lives here, so a platform can be committed
/// as JSON, listed over the wire and selected per request. The committed
/// built-ins are [`PlatformSpec::tx2`] (the default), a measured host spec
/// and two synthetic targets; `--platform-dir` adds more from disk.
///
/// # Examples
///
/// ```
/// use qsdnn_engine::{Mode, PlatformSpec};
///
/// let tx2 = PlatformSpec::tx2();
/// assert_eq!(tx2.name, "sim-tx2");
/// assert!(tx2.supports(Mode::Gpgpu));
/// assert!(!PlatformSpec::cpu_only().supports(Mode::Gpgpu));
/// assert_eq!(tx2.fingerprint(), PlatformSpec::tx2().fingerprint());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Registry name clients select with `platform: "<name>"`.
    pub name: String,
    /// One-line human description for `platforms` listings.
    #[serde(default)]
    pub description: String,
    /// Which `Platform` implementation to instantiate.
    #[serde(default)]
    pub kind: PlatformKind,
    /// The CPU core type (always present).
    pub cpu: CoreSpec,
    /// The GPU core type; `None` describes a CPU-only target, which
    /// rejects `gpgpu`-mode requests (see [`PlatformSpec::supports`]).
    #[serde(default)]
    pub gpu: Option<CoreSpec>,
    /// The CPU↔GPU interconnect (unused when `gpu` is `None`).
    pub link: LinkSpec,
    /// Multiplicative measurement-noise amplitude of the analytical model
    /// (0.03 = ±3%).
    #[serde(default)]
    pub noise: f64,
    /// Noise RNG seed (analytical) / fixture seed (measured).
    #[serde(default)]
    pub seed: u64,
}

/// Sentinel GPU numbers for CPU-only specs: finite but hopeless, so a
/// mis-routed GPU primitive prices itself out instead of panicking.
/// Callers are expected to gate on [`PlatformSpec::supports`] first.
pub(super) fn absent_gpu() -> CoreSpec {
    CoreSpec {
        bandwidth_gbs: 1e-3,
        launch_ms: 1e3,
        saturation_macs: 1e12,
        repack_gbs: 1e-3,
        power_w: 0.0,
        compute_scale: 1e-6,
    }
}

impl PlatformSpec {
    /// The calibrated sim-TX2 spec: the registry default and the
    /// calibration of every paper experiment.
    pub fn tx2() -> Self {
        PlatformSpec {
            name: "sim-tx2".to_string(),
            description: "Calibrated analytical Jetson TX-2 model (paper default)".to_string(),
            kind: PlatformKind::Analytical,
            cpu: CoreSpec {
                bandwidth_gbs: 8.0,
                launch_ms: 0.002,
                saturation_macs: 2.0e4,
                repack_gbs: 4.0,
                power_w: 1.8,
                compute_scale: 1.0,
            },
            gpu: Some(CoreSpec {
                bandwidth_gbs: 30.0,
                launch_ms: 0.05,
                saturation_macs: 3.0e6,
                repack_gbs: 25.0,
                power_w: 7.0,
                compute_scale: 1.0,
            }),
            link: LinkSpec {
                bandwidth_gbs: 16.0,
                latency_ms: 0.35,
                power_w: 2.5,
            },
            noise: 0.03,
            seed: 0xDA7E_2019,
        }
    }

    /// Wall-clock host-CPU measurement; GPU primitives and the link fall
    /// back to TX-2-class analytical numbers.
    pub fn measured_host() -> Self {
        let mut spec = PlatformSpec::tx2();
        spec.name = "measured-host".to_string();
        spec.description =
            "Wall-clock timing of the real kernels on the host CPU (GPU falls back to sim-tx2)"
                .to_string();
        spec.kind = PlatformKind::Measured;
        spec.seed = 7;
        spec
    }

    /// Synthetic discrete-GPU-class target: a much faster GPU behind a
    /// thinner, higher-latency link — plans should shift conv work onto
    /// the GPU and batch transfers compared with the TX-2.
    pub fn gpu_heavy() -> Self {
        PlatformSpec {
            name: "sim-gpu-heavy".to_string(),
            description:
                "Synthetic discrete-GPU workstation: 5x GPU compute behind a PCIe-class link"
                    .to_string(),
            kind: PlatformKind::Analytical,
            cpu: CoreSpec {
                bandwidth_gbs: 10.0,
                launch_ms: 0.002,
                saturation_macs: 2.0e4,
                repack_gbs: 5.0,
                power_w: 2.5,
                compute_scale: 1.2,
            },
            gpu: Some(CoreSpec {
                bandwidth_gbs: 160.0,
                launch_ms: 0.02,
                saturation_macs: 1.0e6,
                repack_gbs: 120.0,
                power_w: 15.0,
                compute_scale: 5.0,
            }),
            link: LinkSpec {
                bandwidth_gbs: 12.0,
                latency_ms: 0.08,
                power_w: 4.0,
            },
            noise: 0.03,
            seed: 0xD15C_4A11,
        }
    }

    /// Synthetic big-core CPU-only target (no GPU at all): `gpgpu`-mode
    /// requests are rejected, and all plans stay on the CPU.
    pub fn cpu_only() -> Self {
        PlatformSpec {
            name: "sim-cpu-only".to_string(),
            description: "Synthetic big-core CPU-only embedded target (no GPU)".to_string(),
            kind: PlatformKind::Analytical,
            cpu: CoreSpec {
                bandwidth_gbs: 14.0,
                launch_ms: 0.0015,
                saturation_macs: 1.5e4,
                repack_gbs: 7.0,
                power_w: 3.0,
                compute_scale: 2.0,
            },
            gpu: None,
            link: LinkSpec {
                bandwidth_gbs: 1.0,
                latency_ms: 1.0,
                power_w: 0.1,
            },
            noise: 0.03,
            seed: 0xC0DE_0CB0,
        }
    }

    /// Whether this platform can serve `mode` (CPU-only targets reject
    /// `gpgpu`).
    pub fn supports(&self, mode: Mode) -> bool {
        match mode {
            Mode::Cpu => true,
            Mode::Gpgpu => self.gpu.is_some(),
        }
    }

    /// Stable 64-bit content fingerprint over every field that can change
    /// a profiled number — what joins the profile cache key and the
    /// scenario descriptor when a non-default platform is selected.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("qsdnn-platform-v1");
        h.write_str(&self.name);
        h.write_str(self.kind.label());
        let write_core = |h: &mut Fnv64, core: &CoreSpec| {
            h.write_f64(core.bandwidth_gbs);
            h.write_f64(core.launch_ms);
            h.write_f64(core.saturation_macs);
            h.write_f64(core.repack_gbs);
            h.write_f64(core.power_w);
            h.write_f64(core.compute_scale);
        };
        write_core(&mut h, &self.cpu);
        match &self.gpu {
            Some(gpu) => {
                h.write_str("gpu");
                write_core(&mut h, gpu);
            }
            None => h.write_str("no-gpu"),
        }
        h.write_f64(self.link.bandwidth_gbs);
        h.write_f64(self.link.latency_ms);
        h.write_f64(self.link.power_w);
        h.write_f64(self.noise);
        h.write_u64(self.seed);
        h.finish()
    }

    /// Log-scale numeric summary for [`ScenarioDescriptor::distance`]'s
    /// platform term: nearby specs yield nearby vectors, and divergence in
    /// any bandwidth, compute scale, launch cost, power or link number
    /// moves the vectors apart. The leading element flags GPU absence so
    /// a CPU-only target sits far from every GPU-bearing one.
    ///
    /// [`ScenarioDescriptor::distance`]: crate::ScenarioDescriptor::distance
    pub fn features(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(16);
        out.push(if self.gpu.is_some() { 0.0 } else { 8.0 });
        let core_features = |out: &mut Vec<f64>, core: &CoreSpec| {
            out.push(core.bandwidth_gbs.max(1e-9).ln());
            out.push(core.compute_scale.max(1e-9).ln());
            out.push(core.launch_ms.max(1e-9).ln());
            out.push(core.saturation_macs.max(1e-9).ln());
            out.push(core.power_w.max(1e-9).ln());
            out.push(core.repack_gbs.max(1e-9).ln());
        };
        core_features(&mut out, &self.cpu);
        core_features(&mut out, &self.gpu.clone().unwrap_or_else(absent_gpu));
        out.push(self.link.bandwidth_gbs.max(1e-9).ln());
        out.push(self.link.latency_ms.max(1e-9).ln());
        out
    }

    /// Sanity-checks a spec (names non-empty, all physical quantities
    /// strictly positive, noise within [0, 1)) so a typo in a JSON spec
    /// file is a startup error, not a NaN plan three requests later.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("platform spec has an empty name".to_string());
        }
        // `(field, value, whether zero is allowed)`, in report order.
        let mut checks = Vec::new();
        for (label, core) in [("cpu", Some(&self.cpu)), ("gpu", self.gpu.as_ref())] {
            let Some(core) = core else { continue };
            for (field, v) in [
                ("bandwidth_gbs", core.bandwidth_gbs),
                ("launch_ms", core.launch_ms),
                ("saturation_macs", core.saturation_macs),
                ("repack_gbs", core.repack_gbs),
                ("compute_scale", core.compute_scale),
            ] {
                checks.push((format!("{label}.{field}"), v, false));
            }
            checks.push((format!("{label}.power_w"), core.power_w, true));
        }
        let link = &self.link;
        checks.push(("link.bandwidth_gbs".to_string(), link.bandwidth_gbs, false));
        checks.push(("link.latency_ms".to_string(), link.latency_ms, false));
        checks.push(("link.power_w".to_string(), link.power_w, true));
        for (field, v, zero_ok) in checks {
            if !v.is_finite() || v < 0.0 || (v == 0.0 && !zero_ok) {
                let bound = if zero_ok { ">=" } else { ">" };
                return Err(format!(
                    "{}: {field} must be finite and {bound} 0, got {v}",
                    self.name
                ));
            }
        }
        if !self.noise.is_finite() || !(0.0..1.0).contains(&self.noise) {
            return Err(format!(
                "{}: noise must be in [0, 1), got {}",
                self.name, self.noise
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_validate() {
        for spec in [
            PlatformSpec::tx2(),
            PlatformSpec::measured_host(),
            PlatformSpec::gpu_heavy(),
            PlatformSpec::cpu_only(),
        ] {
            spec.validate().expect(&spec.name);
        }
    }

    #[test]
    fn fingerprints_separate_the_builtins_and_see_single_field_changes() {
        let mut seen = std::collections::HashSet::new();
        for spec in [
            PlatformSpec::tx2(),
            PlatformSpec::measured_host(),
            PlatformSpec::gpu_heavy(),
            PlatformSpec::cpu_only(),
        ] {
            assert!(seen.insert(spec.fingerprint()), "{} collides", spec.name);
        }
        let mut tweaked = PlatformSpec::tx2();
        if let Some(gpu) = &mut tweaked.gpu {
            gpu.power_w += 1e-9;
        }
        assert_ne!(tweaked.fingerprint(), PlatformSpec::tx2().fingerprint());
    }

    #[test]
    fn cpu_only_rejects_gpgpu() {
        let spec = PlatformSpec::cpu_only();
        assert!(spec.supports(Mode::Cpu));
        assert!(!spec.supports(Mode::Gpgpu));
        // The sentinel GPU numbers are finite, so even a mis-routed GPU
        // primitive yields a huge finite time, never NaN.
        let net = qsdnn_nn::zoo::tiny_cnn(1);
        let conv1 = &net.layers()[1];
        let mut gpu = qsdnn_primitives::registry::candidates(conv1)[0];
        gpu.processor = qsdnn_primitives::Processor::Gpu;
        let t = crate::AnalyticalPlatform::from_spec(&spec).base_layer_time_ms(&net, conv1, &gpu);
        assert!(t.is_finite() && t > 1e3, "mis-routed gpu time {t}");
    }

    #[test]
    fn validation_catches_bad_numbers() {
        let mut spec = PlatformSpec::tx2();
        spec.cpu.bandwidth_gbs = 0.0;
        assert!(spec.validate().is_err());
        let mut spec = PlatformSpec::tx2();
        spec.noise = 1.5;
        assert!(spec.validate().is_err());
        let mut spec = PlatformSpec::tx2();
        spec.name.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        for spec in [PlatformSpec::tx2(), PlatformSpec::cpu_only()] {
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: PlatformSpec = serde_json::from_str(&json).expect("parse");
            assert_eq!(spec, back);
            assert_eq!(spec.fingerprint(), back.fingerprint());
        }
    }

    #[test]
    fn gpu_power_alone_flips_the_weighted_cpu_vs_gpu_ranking() {
        // Two specs differing ONLY in GPU power: under Weighted{lambda},
        // the frugal GPU makes the GPU plan win and the hungry GPU hands
        // the win to the CPU plan — energy flows from the spec, not from
        // hardcoded constants.
        use crate::{AnalyticalPlatform, Objective, Platform};
        use qsdnn_nn::zoo;
        use qsdnn_primitives::{registry, Library, Processor};

        let mut frugal = PlatformSpec::tx2();
        frugal.noise = 0.0;
        frugal.gpu.as_mut().expect("tx2 has a gpu").power_w = 0.1;
        let mut hungry = frugal.clone();
        hungry.gpu.as_mut().expect("tx2 has a gpu").power_w = 500.0;
        assert_ne!(frugal.fingerprint(), hungry.fingerprint());

        let net = zoo::vgg19(1);
        let conv = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "conv2_1")
            .expect("conv2_1");
        let cands = registry::candidates(conv);
        let gpu = *cands
            .iter()
            .find(|c| c.library == Library::CuDnn)
            .expect("gpu candidate");
        let cpu = *cands
            .iter()
            .find(|c| c.library == Library::ArmCl && c.processor == Processor::Cpu)
            .expect("cpu candidate");
        let weighted = Objective::Weighted { lambda: 2.0 };
        let cost = |spec: &PlatformSpec, prim| {
            let mut p = AnalyticalPlatform::from_spec(spec);
            let t = p.layer_time_ms(&net, conv, &prim);
            let e = p.layer_energy_mj(&net, conv, &prim);
            weighted.scalarize(t, e)
        };
        assert!(
            cost(&frugal, gpu) < cost(&frugal, cpu),
            "a frugal GPU must win the weighted objective"
        );
        assert!(
            cost(&hungry, gpu) > cost(&hungry, cpu),
            "a power-hungry GPU must lose the weighted objective"
        );
    }

    #[test]
    fn features_diverge_monotonically_with_spec_divergence() {
        let base = PlatformSpec::tx2();
        let mut mild = PlatformSpec::tx2();
        mild.name = "mild".to_string();
        if let Some(gpu) = &mut mild.gpu {
            gpu.compute_scale = 1.5;
        }
        let mut wild = PlatformSpec::gpu_heavy();
        wild.name = "wild".to_string();
        let dist = |a: &PlatformSpec, b: &PlatformSpec| -> f64 {
            let (fa, fb) = (a.features(), b.features());
            fa.iter().zip(&fb).map(|(x, y)| (x - y).abs()).sum::<f64>() / fa.len() as f64
        };
        assert_eq!(dist(&base, &base), 0.0);
        let near = dist(&base, &mild);
        let far = dist(&base, &wild);
        assert!(near > 0.0 && near < far, "near {near} vs far {far}");
        // A CPU-only target is farther still: the presence flag dominates.
        assert!(dist(&base, &PlatformSpec::cpu_only()) > far);
    }
}
