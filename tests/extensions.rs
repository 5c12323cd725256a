//! Workspace integration test for the paper §VII future-work extensions:
//! the multi-objective (energy) reward and the linear value-function
//! approximation. `tests/reproduction.rs` holds the energy objective's
//! plans to their trade-off.

use qsdnn::engine::{Mode, Objective};
use qsdnn::reproduce::{lut, QUICK_REPEATS};
use qsdnn::{ApproxQsDnnSearch, QsDnnConfig};

#[test]
fn weighted_objective_interpolates() {
    let base = lut("lenet5", 1, Mode::Gpgpu, QUICK_REPEATS);
    let a = base.greedy_assignment();
    let t = base.cost(&a);
    let e = base.energy_cost(&a);
    for lambda in [0.0, 0.5, 3.0] {
        let s = base.with_objective(Objective::Weighted { lambda });
        assert!(
            (s.cost(&a) - (t + lambda * e)).abs() < 1e-9,
            "lambda {lambda}"
        );
    }
}

#[test]
fn linear_q_beats_random_exploration_alone() {
    use qsdnn::baselines::RandomSearch;
    let base = lut("mobilenet_v1", 1, Mode::Gpgpu, QUICK_REPEATS);
    let mut lin = 0.0;
    let mut rnd = 0.0;
    for seed in 0..3u64 {
        lin += ApproxQsDnnSearch::new(QsDnnConfig::with_episodes(500).with_seed(seed))
            .run(&base)
            .best_cost_ms;
        rnd += RandomSearch::new(500, seed).run(&base).best_cost_ms;
    }
    assert!(lin < rnd, "linear-Q {lin} must beat random search {rnd}");
}

#[test]
fn linear_q_report_is_consistent() {
    let base = lut("squeezenet_v11", 1, Mode::Cpu, QUICK_REPEATS);
    let report = ApproxQsDnnSearch::new(QsDnnConfig::with_episodes(300)).run(&base);
    assert_eq!(report.method, "qs-dnn-linear");
    assert_eq!(report.best_assignment.len(), base.len());
    assert!((base.cost(&report.best_assignment) - report.best_cost_ms).abs() < 1e-9);
    assert!(report.best_cost_ms < base.cost(&base.vanilla_assignment()));
}

#[test]
fn energy_survives_serde_roundtrip() {
    let base = lut("tiny_cnn", 1, Mode::Gpgpu, QUICK_REPEATS);
    let json = serde_json::to_string(&base).expect("serializes");
    let back: qsdnn::engine::CostLut = serde_json::from_str(&json).expect("deserializes");
    let a = base.vanilla_assignment();
    assert_eq!(base.energy_cost(&a), back.energy_cost(&a));
}
