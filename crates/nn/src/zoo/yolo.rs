use qsdnn_tensor::Shape;

use crate::{ConvParams, Network, NetworkBuilder, PoolKind, PoolParams};

/// Tiny-YOLO-v2 (416×416 input, VOC head: 125 = 5 anchors × 25 channels).
///
/// Stands in for the paper's object-detection workload: nine convolutions
/// with batch-norm + activation and six max-pools over a large spatial
/// input, so early layers are bandwidth-bound where later ones are
/// compute-bound — a regime split the primitive selection must navigate.
pub fn tiny_yolo_v2(batch: usize) -> Network {
    let mut b = NetworkBuilder::new("tiny_yolo_v2");
    let x = b.input(Shape::new(batch, 3, 416, 416));

    let mut cur = x;
    let channels = [16, 32, 64, 128, 256, 512];
    for (i, ch) in channels.iter().enumerate() {
        let n = i + 1;
        let c = b
            .conv(&format!("conv{n}"), cur, ConvParams::square(*ch, 3, 1, 1))
            .expect("static shapes");
        let bn = b.batch_norm(&format!("bn{n}"), c);
        let r = b.relu(&format!("leaky{n}"), bn);
        // The sixth pool in the Darknet config is stride-1; floor mode keeps
        // the 13x13 grid close (12x12 here: an unpadded 2x2 window drops one).
        let (stride, name) = if n == 6 { (1, "pool6") } else { (2, "poolx") };
        let pname = if n == 6 {
            name.to_string()
        } else {
            format!("pool{n}")
        };
        cur = b
            .pool(
                &pname,
                r,
                PoolParams::square(PoolKind::Max, 2, stride, 0).with_floor(),
            )
            .expect("fits");
    }

    for (i, ch) in [1024usize, 1024].iter().enumerate() {
        let n = i + 7;
        let c = b
            .conv(&format!("conv{n}"), cur, ConvParams::square(*ch, 3, 1, 1))
            .expect("fits");
        let bn = b.batch_norm(&format!("bn{n}"), c);
        cur = b.relu(&format!("leaky{n}"), bn);
    }
    b.conv("conv9", cur, ConvParams::square(125, 1, 1, 0))
        .expect("fits");
    b.build().expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerTag;

    #[test]
    fn nine_convolutions_six_pools() {
        let net = tiny_yolo_v2(1);
        let convs = net
            .layers()
            .iter()
            .filter(|l| l.desc.tag() == LayerTag::Conv)
            .count();
        let pools = net
            .layers()
            .iter()
            .filter(|l| l.desc.tag() == LayerTag::Pool)
            .count();
        assert_eq!(convs, 9);
        assert_eq!(pools, 6);
    }

    #[test]
    fn detection_head_shape() {
        let net = tiny_yolo_v2(1);
        let last = net.layers().last().unwrap();
        assert_eq!(last.desc.name, "conv9");
        assert_eq!(last.output_shape.c, 125);
        assert_eq!(last.output_shape.h, 12);
    }

    #[test]
    fn early_layers_have_large_spatial_extent() {
        let net = tiny_yolo_v2(1);
        let c1 = net
            .layers()
            .iter()
            .find(|l| l.desc.name == "conv1")
            .unwrap();
        assert_eq!(c1.output_shape, Shape::new(1, 16, 416, 416));
    }
}
