//! Serde roundtrips for every persistable artifact: networks, LUTs, search
//! reports and configurations.

use qsdnn::engine::{CostLut, Mode};
use qsdnn::nn::{zoo, Network};
use qsdnn::reproduce::lut;
use qsdnn::{EpsilonSchedule, QsDnnConfig, QsDnnSearch, SearchReport};

#[test]
fn network_roundtrip() {
    for name in ["lenet5", "toy_branchy", "mobilenet_v1"] {
        let net = zoo::by_name(name, 1).unwrap();
        let json = serde_json::to_string(&net).expect("serializes");
        let back: Network = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(net, back, "{name}");
    }
}

#[test]
fn lut_roundtrip_preserves_costs() {
    let lut = lut("tiny_cnn", 1, Mode::Gpgpu, 2);
    let json = serde_json::to_string(&lut).unwrap();
    let back: CostLut = serde_json::from_str(&json).unwrap();
    let assign = back.greedy_assignment();
    assert_eq!(lut.cost(&assign), back.cost(&assign));
    assert_eq!(lut.mode(), back.mode());
    assert_eq!(lut.network(), back.network());
}

#[test]
fn search_report_roundtrip() {
    let lut = lut("lenet5", 1, Mode::Cpu, 2);
    let report = QsDnnSearch::new(QsDnnConfig::with_episodes(50)).run(&lut);
    let json = serde_json::to_string(&report).unwrap();
    let back: SearchReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

#[test]
fn config_roundtrip() {
    let cfg = QsDnnConfig {
        schedule: EpsilonSchedule::paper(777),
        alpha: 0.1,
        gamma: 0.8,
        replay_capacity: 64,
        replay: false,
        reward_shaping: false,
        jumpstart: false,
        warm_start: true,
        seed: 99,
    };
    let json = serde_json::to_string(&cfg).unwrap();
    let back: QsDnnConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn reports_can_be_keyed_by_network_name() {
    // The report carries enough identity to archive experiment results.
    let lut = lut("lenet5", 1, Mode::Cpu, 2);
    let report = QsDnnSearch::new(QsDnnConfig::with_episodes(10)).run(&lut);
    assert_eq!(report.network, "lenet5");
    assert_eq!(report.method, "qs-dnn");
    assert_eq!(report.episodes, 10);
}
