//! The network zoo evaluated by the QS-DNN reproduction.
//!
//! Covers the paper's three task families: image classification (LeNet-5,
//! AlexNet, VGG-19, GoogLeNet, MobileNet-v1, SqueezeNet-v1.1, ResNet-18),
//! face recognition (SphereFace-20) and object detection (Tiny-YOLO-v2).
//! All weights are synthetic: every kernel's latency is data-independent,
//! so only shapes matter.
//!
//! # Examples
//!
//! ```
//! let nets = qsdnn_nn::zoo::paper_roster(1);
//! assert_eq!(nets.len(), 9);
//! assert!(qsdnn_nn::zoo::by_name("mobilenet_v1", 1).is_some());
//! ```

mod alexnet;
mod googlenet;
mod lenet;
mod mobilenet;
mod resnet;
mod sphereface;
mod squeezenet;
mod tiny;
mod vgg;
mod yolo;

pub use alexnet::alexnet;
pub use googlenet::googlenet;
pub use lenet::lenet5;
pub use mobilenet::mobilenet_v1;
pub use resnet::{resnet18, resnet34};
pub use sphereface::sphereface20;
pub use squeezenet::squeezenet_v11;
pub use tiny::{tiny_cnn, toy_branchy};
pub use vgg::{vgg16, vgg19};
pub use yolo::tiny_yolo_v2;

use crate::Network;

/// Names of the nine paper-roster networks, in Table II presentation order.
pub const PAPER_ROSTER: [&str; 9] = [
    "lenet5",
    "alexnet",
    "vgg19",
    "googlenet",
    "mobilenet_v1",
    "squeezenet_v11",
    "resnet18",
    "sphereface20",
    "tiny_yolo_v2",
];

/// Builds every paper-roster network at the given batch size.
pub fn paper_roster(batch: usize) -> Vec<Network> {
    PAPER_ROSTER
        .iter()
        .map(|n| by_name(n, batch).expect("roster name is valid"))
        .collect()
}

/// Builds a network by name; returns `None` for unknown names.
pub fn by_name(name: &str, batch: usize) -> Option<Network> {
    Some(match name {
        "lenet5" => lenet5(batch),
        "alexnet" => alexnet(batch),
        "vgg19" => vgg19(batch),
        "googlenet" => googlenet(batch),
        "mobilenet_v1" => mobilenet_v1(batch),
        "squeezenet_v11" => squeezenet_v11(batch),
        "resnet18" => resnet18(batch),
        "sphereface20" => sphereface20(batch),
        "tiny_yolo_v2" => tiny_yolo_v2(batch),
        "vgg16" => vgg16(batch),
        "resnet34" => resnet34(batch),
        "tiny_cnn" => tiny_cnn(batch),
        "toy_branchy" => toy_branchy(batch),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerTag;

    #[test]
    fn roster_builds_and_names_match() {
        for net in paper_roster(1) {
            assert!(PAPER_ROSTER.contains(&net.name()), "{}", net.name());
            assert!(net.len() > 5);
        }
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("resnet999", 1).is_none());
    }

    #[test]
    fn batch_size_propagates() {
        let net = lenet5(4);
        assert!(net.layers().iter().all(|n| n.output_shape.n == 4));
    }

    #[test]
    fn classification_nets_end_in_softmax() {
        for name in [
            "lenet5",
            "alexnet",
            "vgg19",
            "googlenet",
            "mobilenet_v1",
            "squeezenet_v11",
            "resnet18",
        ] {
            let net = by_name(name, 1).unwrap();
            assert_eq!(
                net.layers().last().unwrap().desc.tag(),
                LayerTag::Softmax,
                "{name}"
            );
        }
    }

    #[test]
    fn known_macs_magnitudes() {
        // Sanity-check total MACs against published figures (±15%).
        let cases = [
            ("alexnet", 1.14e9, 0.1),       // ungrouped single-tower variant
            ("vgg19", 19.6e9, 0.15),        // ~19.6 GMACs
            ("googlenet", 1.6e9, 0.25),     // ~1.5-2 GMACs with aux heads removed
            ("mobilenet_v1", 0.57e9, 0.15), // ~569 MMACs
            ("resnet18", 1.8e9, 0.15),      // ~1.8 GMACs
        ];
        for (name, expect, tol) in cases {
            let macs = by_name(name, 1).unwrap().total_macs() as f64;
            let rel = (macs - expect).abs() / expect;
            assert!(
                rel < tol,
                "{name}: {macs:.3e} vs {expect:.3e} (rel {rel:.2})"
            );
        }
    }

    #[test]
    fn extra_networks_build_with_canonical_sizes() {
        let vgg16 = by_name("vgg16", 1).unwrap();
        assert!((vgg16.total_params() as f64 - 138.4e6).abs() / 138.4e6 < 0.05);
        assert!((vgg16.total_macs() as f64 - 15.5e9).abs() / 15.5e9 < 0.1);
        let resnet34 = by_name("resnet34", 1).unwrap();
        assert!((resnet34.total_params() as f64 - 21.8e6).abs() / 21.8e6 < 0.1);
        assert!((resnet34.total_macs() as f64 - 3.6e9).abs() / 3.6e9 < 0.1);
    }

    #[test]
    fn known_param_magnitudes() {
        let cases = [
            ("alexnet", 60.9e6, 0.1),
            ("vgg19", 143.6e6, 0.05),
            ("mobilenet_v1", 4.2e6, 0.15),
            ("squeezenet_v11", 1.24e6, 0.15),
            ("resnet18", 11.7e6, 0.1),
        ];
        for (name, expect, tol) in cases {
            let params = by_name(name, 1).unwrap().total_params() as f64;
            let rel = (params - expect).abs() / expect;
            assert!(
                rel < tol,
                "{name}: {params:.3e} vs {expect:.3e} (rel {rel:.2})"
            );
        }
    }
}
