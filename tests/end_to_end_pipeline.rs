//! Workspace integration test: the full pipeline — profile → search →
//! execute — on both platforms, verifying functional equivalence of the
//! optimized implementation.

use qsdnn::engine::{run_network, AnalyticalPlatform, MeasuredPlatform, Mode, Platform, Profiler};
use qsdnn::nn::zoo;
use qsdnn::reproduce::lut;
use qsdnn::tensor::{DataLayout, Tensor};
use qsdnn::{QsDnnConfig, QsDnnSearch};

#[test]
fn analytical_pipeline_tiny_cnn() {
    let net = zoo::tiny_cnn(1);
    let lut = Profiler::with_repeats(AnalyticalPlatform::tx2(), 5).profile(&net, Mode::Gpgpu);
    let report = QsDnnSearch::new(QsDnnConfig::with_episodes(500)).run(&lut);
    assert!(report.best_cost_ms < lut.cost(&lut.vanilla_assignment()));

    let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 1);
    let base = run_network(&net, &lut, &lut.vanilla_assignment(), &input, 2);
    let fast = run_network(&net, &lut, &report.best_assignment, &input, 2);
    assert!(base
        .output
        .approx_eq(&fast.output, 1e-3)
        .expect("same shape"));
}

#[test]
fn measured_pipeline_tiny_cnn() {
    let net = zoo::tiny_cnn(1);
    let lut = Profiler::with_repeats(MeasuredPlatform::new(3), 3).profile(&net, Mode::Cpu);
    // Measured times must be positive and finite for every candidate.
    for l in lut.layers() {
        for (&t, p) in l.time_ms.iter().zip(&l.candidates) {
            assert!(t.is_finite() && t >= 0.0, "{}: {p} time {t}", l.name);
        }
    }
    let report = QsDnnSearch::new(QsDnnConfig::with_episodes(300)).run(&lut);
    let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 5);
    let base = run_network(&net, &lut, &lut.vanilla_assignment(), &input, 9);
    let fast = run_network(&net, &lut, &report.best_assignment, &input, 9);
    assert!(base
        .output
        .approx_eq(&fast.output, 1e-3)
        .expect("same shape"));
}

#[test]
fn platforms_agree_on_vanilla_being_slowest_conv() {
    // Both cost sources must rank Vanilla as the slowest conv option on a
    // conv big enough to be compute-bound.
    let net = zoo::sphereface20(1);
    let conv = net
        .layers()
        .iter()
        .find(|l| l.desc.name == "conv2_1")
        .unwrap();
    let cands = qsdnn::primitives::registry::candidates(conv);
    let cpu_cands: Vec<_> = cands
        .iter()
        .filter(|p| p.processor == qsdnn::primitives::Processor::Cpu)
        .collect();

    let mut ana = AnalyticalPlatform::tx2();
    let ana_vanilla = ana.layer_time_ms(&net, conv, cpu_cands[0]);
    let ana_best = cpu_cands[1..]
        .iter()
        .map(|p| ana.layer_time_ms(&net, conv, p))
        .fold(f64::INFINITY, f64::min);
    assert!(ana_vanilla > ana_best);

    let mut meas = MeasuredPlatform::new(1);
    let m_vanilla = (0..3)
        .map(|_| meas.layer_time_ms(&net, conv, cpu_cands[0]))
        .fold(f64::MAX, f64::min);
    let m_best = cpu_cands[1..]
        .iter()
        .map(|p| {
            (0..3)
                .map(|_| meas.layer_time_ms(&net, conv, p))
                .fold(f64::MAX, f64::min)
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        m_vanilla > m_best,
        "measured vanilla {m_vanilla} vs best {m_best}"
    );
}

#[test]
fn branchy_network_pipeline_handles_joins() {
    let net = zoo::toy_branchy(1);
    let lut = Profiler::with_repeats(AnalyticalPlatform::tx2(), 3).profile(&net, Mode::Gpgpu);
    // All edges must be present (concat has 2 inputs, add has 2 inputs).
    let edge_count: usize = lut.layers().iter().map(|l| l.incoming.len()).sum();
    assert_eq!(edge_count, net.edges().len());
    let report = QsDnnSearch::new(QsDnnConfig::with_episodes(400)).run(&lut);
    let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 13);
    let base = run_network(&net, &lut, &lut.vanilla_assignment(), &input, 21);
    let fast = run_network(&net, &lut, &report.best_assignment, &input, 21);
    assert!(base
        .output
        .approx_eq(&fast.output, 1e-3)
        .expect("same shape"));
}

#[test]
fn lut_roundtrips_through_json() {
    let lut = lut("lenet5", 1, Mode::Gpgpu, 2);
    let json = serde_json::to_string(&lut).expect("serializes");
    let back: qsdnn::engine::CostLut = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(lut, back);
    // Costs must survive the roundtrip bit-exactly.
    let a = lut.vanilla_assignment();
    assert_eq!(lut.cost(&a), back.cost(&a));
}
