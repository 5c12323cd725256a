//! Inference engine optimizer of the QS-DNN reproduction (paper §III).
//!
//! The engine couples the primitive registry to a heterogeneous platform:
//!
//! * [`Platform`] — source of empirical layer times and compatibility-layer
//!   penalties, with two implementations, each built from a
//!   [`PlatformSpec`]: [`AnalyticalPlatform`] (a roofline model; the
//!   [`PlatformSpec::tx2`] calibration drives all paper-scale experiments)
//!   and [`MeasuredPlatform`] (wall-clock timing of the real kernels);
//! * [`Profiler`] — Phase 1 of QS-DNN: benchmarks every primitive type
//!   network-wide, profiles every compatibility layer (branches included),
//!   and assembles the [`CostLut`];
//! * [`CostLut`] — the look-up table Phase 2 searches against: per-layer
//!   candidate times plus pairwise penalties on every graph edge;
//! * [`run_network`] — executes an assignment end to end with real kernels
//!   to verify functional equivalence.
//!
//! # Examples
//!
//! Phase 1 on LeNet-5, then score two baseline implementations:
//!
//! ```
//! use qsdnn_engine::{AnalyticalPlatform, Mode, Profiler};
//! use qsdnn_nn::zoo;
//! use qsdnn_primitives::Library;
//!
//! let net = zoo::lenet5(1);
//! let mut profiler = Profiler::with_repeats(AnalyticalPlatform::tx2(), 5);
//! let lut = profiler.profile(&net, Mode::Cpu);
//!
//! let vanilla = lut.cost(&lut.vanilla_assignment());
//! let blas = lut.cost(&lut.single_library_assignment(Library::Blas));
//! assert!(blas < vanilla, "BLAS must beat the dependency-free baseline");
//! ```

pub mod executor;
mod fingerprint;
mod lut;
mod platform;
mod profiler;
mod scenario;
pub mod toy;

pub use executor::{run_network, ExecutionResult};
pub use fingerprint::Fnv64;
pub use lut::{Assignment, CostLut, IncomingEdge, LayerEntry};
pub use platform::{
    AnalyticalPlatform, CoreSpec, LinkSpec, MeasuredPlatform, Mode, Objective, Platform,
    PlatformError, PlatformKind, PlatformRegistry, PlatformSpec,
};
pub use profiler::Profiler;
pub use scenario::{LayerSummary, ScenarioDescriptor};
