//! Platform abstraction: where layer times and conversion penalties come
//! from.
//!
//! The paper obtains all numbers empirically on a Jetson TX-2. Targets are
//! described as pure data — a [`PlatformSpec`] names the core types, their
//! bandwidths/powers and the CPU↔GPU link — and a [`PlatformRegistry`]
//! instantiates a live [`Platform`] impl from a spec (built-in or loaded
//! from a JSON spec directory). Two implementations exist behind the
//! trait:
//!
//! * [`AnalyticalPlatform`](crate::AnalyticalPlatform) — a roofline-style
//!   model driven by the spec numbers (deterministic, instant; the
//!   [`PlatformSpec::tx2`] calibration is used for all paper-scale
//!   experiments);
//! * [`MeasuredPlatform`](crate::MeasuredPlatform) — wall-clock timing of
//!   the real Rust kernels on the host CPU (GPU primitives fall back to the
//!   analytical model, as the host has no GPU to time).

mod analytical;
mod measured;
mod registry;
mod spec;

pub use analytical::AnalyticalPlatform;
pub use measured::MeasuredPlatform;
pub use registry::{PlatformError, PlatformRegistry};
pub use spec::{CoreSpec, LinkSpec, PlatformKind, PlatformSpec};

use qsdnn_nn::{Network, Node};
use qsdnn_primitives::Primitive;
use qsdnn_tensor::Shape;

/// Source of layer execution times and compatibility-layer penalties.
///
/// `layer_time_ms` takes `&mut self` because implementations may keep
/// internal state (RNG for measurement noise, weight caches, timers).
pub trait Platform {
    /// One measured/modelled execution of `node` under `primitive`, in
    /// milliseconds. Successive calls may return slightly different values
    /// (measurement noise); the profiler averages over its repeat count.
    fn layer_time_ms(&mut self, net: &Network, node: &Node, primitive: &Primitive) -> f64;

    /// Cost (ms) of the compatibility layer needed between a producer
    /// running `from` and a consumer running `to`, for a tensor of `shape`:
    /// layout repack and/or CPU↔GPU transfer. Zero when fully compatible.
    fn conversion_time_ms(&self, shape: Shape, from: &Primitive, to: &Primitive) -> f64;

    /// Active power (W) drawn while `processor` executes a kernel. Every
    /// implementation sources this from its [`PlatformSpec`] powers — the
    /// default energy methods below multiply it into execution time, so
    /// two specs differing only in a core power rank energy-sensitive
    /// plans differently.
    fn processor_power_w(&self, processor: qsdnn_primitives::Processor) -> f64;

    /// Power (W) drawn while a conversion moves data across the
    /// interconnect; from the spec's link description.
    fn transfer_power_w(&self) -> f64;

    /// Energy (mJ) of one execution of `node` under `primitive` — the basis
    /// of the multi-objective reward extension (paper §VII future work).
    /// Default: execution time weighted by the spec's per-processor power.
    fn layer_energy_mj(&mut self, net: &Network, node: &Node, prim: &Primitive) -> f64 {
        let t = self.layer_time_ms(net, node, prim);
        t * self.processor_power_w(prim.processor)
    }

    /// Energy (mJ) of the compatibility layer between `from` and `to`.
    /// Default: the spec's transfer power times the conversion time.
    fn conversion_energy_mj(&self, shape: Shape, from: &Primitive, to: &Primitive) -> f64 {
        self.conversion_time_ms(shape, from, to) * self.transfer_power_w()
    }

    /// Human-readable platform name for reports.
    fn name(&self) -> &str;
}

/// Boxed platforms are platforms, so [`PlatformRegistry::instantiate`] fits
/// anywhere a concrete impl does (e.g. `Profiler<Box<dyn Platform>>`).
/// Every method delegates, overridden energies included.
impl<P: Platform + ?Sized> Platform for Box<P> {
    fn layer_time_ms(&mut self, net: &Network, node: &Node, primitive: &Primitive) -> f64 {
        (**self).layer_time_ms(net, node, primitive)
    }

    fn conversion_time_ms(&self, shape: Shape, from: &Primitive, to: &Primitive) -> f64 {
        (**self).conversion_time_ms(shape, from, to)
    }

    fn processor_power_w(&self, processor: qsdnn_primitives::Processor) -> f64 {
        (**self).processor_power_w(processor)
    }

    fn transfer_power_w(&self) -> f64 {
        (**self).transfer_power_w()
    }

    fn layer_energy_mj(&mut self, net: &Network, node: &Node, prim: &Primitive) -> f64 {
        (**self).layer_energy_mj(net, node, prim)
    }

    fn conversion_energy_mj(&self, shape: Shape, from: &Primitive, to: &Primitive) -> f64 {
        (**self).conversion_energy_mj(shape, from, to)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// What the search minimizes (paper §VII envisions "different reward
/// choices or multi-objective search").
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Objective {
    /// Pure inference latency (the paper's reward).
    Latency,
    /// Pure energy per inference.
    Energy,
    /// `latency_ms + lambda · energy_mj` — a latency/energy trade-off knob.
    Weighted {
        /// Energy weight in ms/mJ.
        lambda: f64,
    },
}

impl Objective {
    /// Scalarizes a `(latency ms, energy mJ)` pair.
    pub fn scalarize(&self, time_ms: f64, energy_mj: f64) -> f64 {
        match self {
            Objective::Latency => time_ms,
            Objective::Energy => energy_mj,
            Objective::Weighted { lambda } => time_ms + lambda * energy_mj,
        }
    }

    /// Stable lowercase tag of the objective, λ included
    /// (`"latency"`, `"energy"`, `"weighted:0.5"`) — used by scenario
    /// descriptors and report tables.
    pub fn tag(&self) -> String {
        match self {
            Objective::Latency => "latency".to_string(),
            Objective::Energy => "energy".to_string(),
            Objective::Weighted { lambda } => format!("weighted:{lambda}"),
        }
    }
}

/// Which processors the search may use — Table II's "CPU" vs "GPGPU" modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Mode {
    /// CPU-only primitives.
    Cpu,
    /// CPU and GPU primitives (the heterogeneous setting).
    Gpgpu,
}

impl Mode {
    /// Whether `primitive` is admissible in this mode.
    pub fn admits(&self, primitive: &Primitive) -> bool {
        match self {
            Mode::Cpu => primitive.processor == qsdnn_primitives::Processor::Cpu,
            Mode::Gpgpu => true,
        }
    }

    /// Lowercase mode label used in report tables.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Cpu => "cpu",
            Mode::Gpgpu => "gpgpu",
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn_primitives::{Algorithm, Library, Lowering, Primitive, Processor};
    use qsdnn_tensor::DataLayout;

    #[test]
    fn cpu_mode_rejects_gpu_primitives() {
        let gpu = Primitive::new(
            Library::CuDnn,
            Algorithm::Gemm,
            Lowering::Im2col,
            None,
            Processor::Gpu,
            DataLayout::Nchw,
        );
        assert!(!Mode::Cpu.admits(&gpu));
        assert!(Mode::Gpgpu.admits(&gpu));
        assert!(Mode::Cpu.admits(&Primitive::vanilla()));
    }

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::Cpu.to_string(), "cpu");
        assert_eq!(Mode::Gpgpu.to_string(), "gpgpu");
    }
}
