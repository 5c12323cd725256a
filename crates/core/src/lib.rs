//! # QS-DNN: RL-based search for DNN primitive selection
//!
//! Reproduction of de Prado, Pazos & Benini, *"Learning to infer: RL-based
//! search for DNN primitive selection on Heterogeneous Embedded Systems"*,
//! DATE 2019.
//!
//! Given a trained network, QS-DNN finds the per-layer combination of
//! acceleration-library primitives (and processors) that minimizes
//! end-to-end inference latency, *including* the layout-conversion and
//! CPU↔GPU transfer penalties between incompatible choices. The process has
//! two phases:
//!
//! 1. **Inference** ([`qsdnn_engine::Profiler`]) — benchmark every primitive
//!    network-wide on the embedded platform and profile every compatibility
//!    layer, producing a [`qsdnn_engine::CostLut`];
//! 2. **Search** ([`QsDnnSearch`]) — a tabular Q-learning agent walks the
//!    network layer by layer against the LUT with an ε-greedy schedule
//!    ([`EpsilonSchedule::paper`]), reward shaping and experience replay
//!    ([`ReplayBuffer`]), and emits the best implementation plus its
//!    learning curve ([`SearchReport`]).
//!
//! The [`baselines`] module hosts the comparators: Random Search (paper
//! §VI.B), exact chain DP, exhaustive enumeration, simulated annealing and
//! the PBQP formulation of Anderson & Gregg. The [`reproduce`] module
//! regenerates the paper's tables and figures as typed rows.
//!
//! # Examples
//!
//! End-to-end: profile LeNet-5 on the simulated TX-2 and search:
//!
//! ```
//! use qsdnn::{QsDnnConfig, QsDnnSearch};
//! use qsdnn_engine::{AnalyticalPlatform, Mode, Profiler};
//! use qsdnn_nn::zoo;
//!
//! let net = zoo::lenet5(1);
//! let lut = Profiler::with_repeats(AnalyticalPlatform::tx2(), 3)
//!     .profile(&net, Mode::Cpu);
//! let report = QsDnnSearch::new(QsDnnConfig::with_episodes(300)).run(&lut);
//! let vanilla = lut.cost(&lut.vanilla_assignment());
//! assert!(report.best_cost_ms < vanilla, "search must beat the baseline");
//! ```

pub mod approx;
pub mod baselines;
pub mod portfolio;
mod qtable;
mod replay;
mod report;
pub mod reproduce;
mod schedule;
mod search;
mod transfer;

pub use approx::{ApproxQsDnnSearch, LinearQ};
pub use portfolio::{MemberSummary, Portfolio, PortfolioMember, PortfolioOutcome};
pub use qtable::QTable;
pub use replay::{ReplayBuffer, Transition};
pub use report::{EpisodeRecord, SearchReport};
pub use schedule::EpsilonSchedule;
pub use search::{QsDnnConfig, QsDnnSearch};
pub use transfer::TransferMapping;

// Re-export the sibling crates so downstream users (and the examples) can
// drive the whole pipeline through one dependency.
pub use qsdnn_engine as engine;
pub use qsdnn_gemm as gemm;
pub use qsdnn_nn as nn;
pub use qsdnn_pbqp as pbqp;
pub use qsdnn_primitives as primitives;
pub use qsdnn_tensor as tensor;

#[cfg(test)]
mod tests {
    use crate::engine::Mode;
    use crate::primitives::Library;
    use crate::reproduce::{best_single_library, lut, MeanStd, QUICK_REPEATS};

    #[test]
    fn bsl_is_min_over_libraries() {
        let lut = lut("lenet5", 1, Mode::Cpu, QUICK_REPEATS);
        let (lib, cost) = best_single_library(&lut);
        for l in Library::ALL {
            let single = lut.cost(&lut.single_library_assignment(l));
            assert!(single >= cost, "{l} beats reported BSL {lib}");
        }
    }

    #[test]
    fn mean_std_known_values() {
        let m = MeanStd::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m.mean_ms - 2.5).abs() < 1e-12);
        assert!((m.std_ms - (1.25f64).sqrt()).abs() < 1e-12);
    }
}
