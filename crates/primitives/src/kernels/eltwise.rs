//! Multi-input kernels: element-wise addition and channel concatenation.

use qsdnn_tensor::{DataLayout, Shape, Tensor};

/// Element-wise addition of two equal-shape tensors (layouts may differ);
/// output in `out_layout`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn add(a: &Tensor, b: &Tensor, out_layout: DataLayout) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "add requires equal shapes");
    let mut out = a.to_layout(out_layout);
    for (o, v) in out
        .as_mut_slice()
        .iter_mut()
        .zip(b.as_layout(out_layout).as_slice())
    {
        *o += v;
    }
    out
}

/// Channel-wise concatenation (inception modules); inputs must agree on
/// batch and spatial extents. Output in `out_layout`.
///
/// Each input is copied in runs: per image in NCHW (its channels are one
/// contiguous block of the output image), per pixel in NHWC (its channels
/// are one contiguous run of the output pixel). An input in the other
/// layout is converted first.
///
/// # Panics
///
/// Panics if fewer than two inputs are given or extents disagree.
pub fn concat(inputs: &[&Tensor], out_layout: DataLayout) -> Tensor {
    assert!(inputs.len() >= 2, "concat requires at least two inputs");
    let first = inputs[0].shape();
    let channels: usize = inputs.iter().map(|t| t.shape().c).sum();
    let out_shape = Shape::new(first.n, channels, first.h, first.w);
    let mut out = Tensor::zeros(out_shape, out_layout);
    // Output elements between the starts of two consecutive runs.
    let out_run = match out_layout {
        DataLayout::Nchw => channels * first.spatial(),
        DataLayout::Nhwc => channels,
    };
    let mut c_off = 0;
    for t in inputs {
        let s = t.shape();
        assert_eq!(
            (s.n, s.h, s.w),
            (first.n, first.h, first.w),
            "concat inputs must share batch and spatial extents"
        );
        let t = t.as_layout(out_layout);
        let (run, skip) = match out_layout {
            DataLayout::Nchw => (s.c * s.spatial(), c_off * s.spatial()),
            DataLayout::Nhwc => (s.c, c_off),
        };
        if run > 0 {
            for (src, dst) in t
                .as_slice()
                .chunks_exact(run)
                .zip(out.as_mut_slice().chunks_exact_mut(out_run))
            {
                dst[skip..skip + run].copy_from_slice(src);
            }
        }
        c_off += s.c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{bits, spiky};
    use proptest::prelude::*;

    /// `add` through the accessors, in logical order.
    fn add_oracle(a: &Tensor, b: &Tensor, out_layout: DataLayout) -> Tensor {
        let s = a.shape();
        let mut out = Tensor::zeros(s, out_layout);
        for n in 0..s.n {
            for c in 0..s.c {
                for h in 0..s.h {
                    for w in 0..s.w {
                        out.set(n, c, h, w, a.at(n, c, h, w) + b.at(n, c, h, w));
                    }
                }
            }
        }
        out
    }

    /// `concat` through the accessors, in logical order.
    fn concat_oracle(inputs: &[&Tensor], out_layout: DataLayout) -> Tensor {
        let first = inputs[0].shape();
        let channels: usize = inputs.iter().map(|t| t.shape().c).sum();
        let mut out = Tensor::zeros(Shape::new(first.n, channels, first.h, first.w), out_layout);
        let mut c_off = 0;
        for t in inputs {
            let s = t.shape();
            for n in 0..s.n {
                for c in 0..s.c {
                    for h in 0..s.h {
                        for w in 0..s.w {
                            out.set(n, c_off + c, h, w, t.at(n, c, h, w));
                        }
                    }
                }
            }
            c_off += s.c;
        }
        out
    }

    proptest! {
        #[test]
        fn prop_concat_matches_accessor_oracle(
            n in 1usize..3, h in 1usize..7, w in 1usize..7,
            c0 in 1usize..20, c1 in 1usize..20, c2 in 1usize..20, three in 0usize..2,
            l0 in 0usize..2, l1 in 0usize..2, l2 in 0usize..2, out in 0usize..2,
            seed in 0u64..1000
        ) {
            let part = |c: usize, l: usize, k: u64| {
                spiky(Shape::new(n, c, h, w), DataLayout::ALL[l], seed + k)
            };
            let parts = [part(c0, l0, 0), part(c1, l1, 1), part(c2, l2, 2)];
            let refs: Vec<&Tensor> = parts.iter().take(2 + three).collect();
            let out_layout = DataLayout::ALL[out];
            let got = concat(&refs, out_layout);
            prop_assert_eq!(got.layout(), out_layout);
            prop_assert_eq!(bits(&got), bits(&concat_oracle(&refs, out_layout)));
        }

        #[test]
        fn prop_add_matches_accessor_oracle(
            n in 1usize..3, c in 1usize..20, h in 1usize..7, w in 1usize..7,
            la in 0usize..2, lb in 0usize..2, out in 0usize..2, seed in 0u64..1000
        ) {
            let shape = Shape::new(n, c, h, w);
            let a = spiky(shape, DataLayout::ALL[la], seed);
            let b = spiky(shape, DataLayout::ALL[lb], seed + 1);
            let out_layout = DataLayout::ALL[out];
            let got = add(&a, &b, out_layout);
            prop_assert_eq!(got.layout(), out_layout);
            prop_assert_eq!(bits(&got), bits(&add_oracle(&a, &b, out_layout)));
        }
    }

    #[test]
    fn add_fast_and_slow_paths_agree() {
        let s = Shape::new(1, 3, 4, 4);
        let a = Tensor::random(s, DataLayout::Nchw, 1);
        let b = Tensor::random(s, DataLayout::Nchw, 2);
        let fast = add(&a, &b, DataLayout::Nchw);
        let slow = add(&a.to_layout(DataLayout::Nhwc), &b, DataLayout::Nchw);
        assert!(fast.approx_eq(&slow, 1e-6).unwrap());
    }

    #[test]
    fn add_known_values() {
        let s = Shape::new(1, 1, 1, 2);
        let a = Tensor::from_vec(s, DataLayout::Nchw, vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(s, DataLayout::Nchw, vec![10.0, 20.0]).unwrap();
        assert_eq!(add(&a, &b, DataLayout::Nchw).as_slice(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "equal shapes")]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::zeros(Shape::new(1, 1, 2, 2), DataLayout::Nchw);
        let b = Tensor::zeros(Shape::new(1, 2, 2, 2), DataLayout::Nchw);
        add(&a, &b, DataLayout::Nchw);
    }

    #[test]
    fn concat_stacks_channels_in_order() {
        let a = Tensor::from_fn(Shape::new(1, 2, 2, 2), DataLayout::Nchw, |_, c, _, _| {
            c as f32
        });
        let b = Tensor::from_fn(Shape::new(1, 3, 2, 2), DataLayout::Nhwc, |_, c, _, _| {
            10.0 + c as f32
        });
        let out = concat(&[&a, &b], DataLayout::Nchw);
        assert_eq!(out.shape().c, 5);
        assert_eq!(out.at(0, 0, 0, 0), 0.0);
        assert_eq!(out.at(0, 1, 1, 1), 1.0);
        assert_eq!(out.at(0, 2, 0, 0), 10.0);
        assert_eq!(out.at(0, 4, 1, 0), 12.0);
    }

    #[test]
    fn concat_output_layout_is_respected() {
        let a = Tensor::random(Shape::new(1, 2, 2, 2), DataLayout::Nchw, 5);
        let b = Tensor::random(Shape::new(1, 2, 2, 2), DataLayout::Nchw, 6);
        let nchw = concat(&[&a, &b], DataLayout::Nchw);
        let nhwc = concat(&[&a, &b], DataLayout::Nhwc);
        assert_eq!(nhwc.layout(), DataLayout::Nhwc);
        assert!(nchw.approx_eq(&nhwc, 0.0).unwrap());
    }
}
