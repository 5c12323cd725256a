//! Workspace integration test: QS-DNN must reach (or closely approach) the
//! exact optimum where the optimum is computable, and must beat Random
//! Search. `tests/reproduction.rs` holds it to the Fig. 1 greedy trap.

use qsdnn::baselines::{exhaustive_search, pbqp_search, solve_chain_dp, RandomSearch};
use qsdnn::engine::Mode;
use qsdnn::reproduce::lut;
use qsdnn::{QsDnnConfig, QsDnnSearch};

#[test]
fn qsdnn_matches_dp_on_lenet_chain() {
    let lut = lut("lenet5", 1, Mode::Gpgpu, 5);
    let (_, dp) = solve_chain_dp(&lut).expect("LeNet-5 is a chain");
    let qs = QsDnnSearch::new(QsDnnConfig::with_episodes(1000)).run(&lut);
    assert!(
        qs.best_cost_ms <= dp * 1.02 + 1e-9,
        "QS-DNN {} must be within 2% of DP optimum {dp}",
        qs.best_cost_ms
    );
}

#[test]
fn qsdnn_matches_exhaustive_on_branchy_toy() {
    let lut = lut("toy_branchy", 1, Mode::Cpu, 5);
    let (_, opt) = exhaustive_search(&lut, 1e7).expect("toy space fits");
    let qs = QsDnnSearch::new(QsDnnConfig::with_episodes(1500)).run(&lut);
    assert!(
        qs.best_cost_ms <= opt * 1.05 + 1e-9,
        "QS-DNN {} vs exhaustive optimum {opt}",
        qs.best_cost_ms
    );
}

#[test]
fn qsdnn_beats_random_search_on_equal_budget() {
    // MobileNet GPGPU, 5 seeds each, 350 episodes (the paper's Fig. 5
    // near-convergence point).
    let lut = lut("mobilenet_v1", 1, Mode::Gpgpu, 3);
    let mut qs_mean = 0.0;
    let mut rs_mean = 0.0;
    for seed in 0..5u64 {
        qs_mean += QsDnnSearch::new(QsDnnConfig::with_episodes(350).with_seed(seed))
            .run(&lut)
            .best_cost_ms;
        rs_mean += RandomSearch::new(350, seed).run(&lut).best_cost_ms;
    }
    qs_mean /= 5.0;
    rs_mean /= 5.0;
    assert!(
        qs_mean < rs_mean,
        "QS-DNN mean {qs_mean} must beat RS mean {rs_mean}"
    );
}

#[test]
fn pbqp_and_dp_agree_on_roster_chains() {
    for name in ["lenet5", "alexnet", "vgg19"] {
        let lut = lut(name, 1, Mode::Cpu, 2);
        let (_, dp) = solve_chain_dp(&lut).expect("classification chains");
        let pb = pbqp_search(&lut);
        assert!(
            (pb.best_cost_ms - dp).abs() < 1e-6,
            "{name}: pbqp {} vs dp {dp}",
            pb.best_cost_ms
        );
    }
}

#[test]
fn search_cost_matches_lut_reevaluation() {
    // The reported best cost must equal re-evaluating the assignment.
    let lut = lut("squeezenet_v11", 1, Mode::Gpgpu, 2);
    let qs = QsDnnSearch::new(QsDnnConfig::with_episodes(200)).run(&lut);
    let re = lut.cost(&qs.best_assignment);
    assert!(
        (re - qs.best_cost_ms).abs() < 1e-9,
        "{re} vs {}",
        qs.best_cost_ms
    );
}
