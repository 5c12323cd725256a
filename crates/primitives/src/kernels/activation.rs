//! Element-wise and normalization kernels: ReLU, batch-norm, LRN, softmax.

use qsdnn_nn::LrnParams;
use qsdnn_tensor::{DataLayout, Shape, Tensor};

/// ReLU. Element-wise, so the buffer can be processed directly in whatever
/// layout the input uses; the output keeps that layout.
///
/// One branch-free select per element: only values `< 0.0` become `+0.0`,
/// so `-0.0` and NaN pass through unchanged.
pub fn relu(input: &Tensor) -> Tensor {
    let data = input
        .as_slice()
        .iter()
        .map(|&v| if v < 0.0 { 0.0 } else { v })
        .collect();
    Tensor::from_vec(input.shape(), input.layout(), data).expect("same volume as the input")
}

/// Inference-time batch normalization: `y = x * scale[c] + shift[c]`.
/// Output keeps the input layout, walked in its own memory order.
///
/// # Panics
///
/// Panics if `scale` or `shift` has fewer entries than the input has
/// channels.
pub fn batch_norm(input: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    let s = input.shape();
    let (scale, shift) = (&scale[..s.c], &shift[..s.c]);
    let mut out = input.clone();
    if s.is_empty() {
        return out;
    }
    match input.layout() {
        DataLayout::Nchw => {
            for (i, plane) in out.as_mut_slice().chunks_exact_mut(s.spatial()).enumerate() {
                let (sc, sh) = (scale[i % s.c], shift[i % s.c]);
                for v in plane {
                    *v = *v * sc + sh;
                }
            }
        }
        DataLayout::Nhwc => {
            for pixel in out.as_mut_slice().chunks_exact_mut(s.c) {
                for ((v, sc), sh) in pixel.iter_mut().zip(scale).zip(shift) {
                    *v = *v * sc + sh;
                }
            }
        }
    }
    out
}

/// Local response normalization across channels (Caffe `ACROSS_CHANNELS`):
///
/// `y[c] = x[c] / (k + alpha/size * sum_{c'} x[c']^2)^beta` over a window of
/// `size` channels centred on `c`. Output keeps the input layout.
pub fn lrn(input: &Tensor, p: &LrnParams) -> Tensor {
    let s = input.shape();
    let half = p.size / 2;
    let mut out = Tensor::zeros(s, input.layout());
    for n in 0..s.n {
        for h in 0..s.h {
            for w in 0..s.w {
                for c in 0..s.c {
                    let lo = c.saturating_sub(half);
                    let hi = (c + half).min(s.c - 1);
                    let mut sq = 0.0f32;
                    for ci in lo..=hi {
                        let v = input.at(n, ci, h, w);
                        sq += v * v;
                    }
                    let denom = (p.k + p.alpha / p.size as f32 * sq).powf(p.beta);
                    out.set(n, c, h, w, input.at(n, c, h, w) / denom);
                }
            }
        }
    }
    out
}

/// Numerically-stable softmax over channels, per `(n, h, w)` position.
/// Output keeps the input layout.
pub fn softmax(input: &Tensor) -> Tensor {
    let s = input.shape();
    let mut out = Tensor::zeros(s, input.layout());
    for n in 0..s.n {
        for h in 0..s.h {
            for w in 0..s.w {
                let mut max = f32::NEG_INFINITY;
                for c in 0..s.c {
                    max = max.max(input.at(n, c, h, w));
                }
                let mut sum = 0.0f32;
                for c in 0..s.c {
                    sum += (input.at(n, c, h, w) - max).exp();
                }
                for c in 0..s.c {
                    out.set(n, c, h, w, (input.at(n, c, h, w) - max).exp() / sum);
                }
            }
        }
    }
    out
}

/// Helper: output shape equals input shape for all kernels in this module.
pub fn same_shape(input: &Tensor) -> Shape {
    input.shape()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{bits, spiky};
    use proptest::prelude::*;

    /// Batch-norm through the accessors, in logical order.
    fn batch_norm_oracle(input: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
        let s = input.shape();
        let mut out = Tensor::zeros(s, input.layout());
        for n in 0..s.n {
            for c in 0..s.c {
                let (sc, sh) = (scale[c], shift[c]);
                for h in 0..s.h {
                    for w in 0..s.w {
                        out.set(n, c, h, w, input.at(n, c, h, w) * sc + sh);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn relu_keeps_negative_zero_and_nan() {
        let t = Tensor::from_vec(
            Shape::new(1, 1, 1, 5),
            DataLayout::Nchw,
            vec![-0.0, f32::NAN, -f32::NAN, f32::NEG_INFINITY, -1.0],
        )
        .unwrap();
        let got: Vec<u32> = relu(&t).as_slice().iter().map(|v| v.to_bits()).collect();
        let want = [
            (-0.0f32).to_bits(),
            f32::NAN.to_bits(),
            (-f32::NAN).to_bits(),
            0.0f32.to_bits(),
            0.0f32.to_bits(),
        ];
        assert_eq!(got, want);
    }

    proptest! {
        #[test]
        fn prop_relu_matches_branching_oracle(
            n in 1usize..3, c in 1usize..20, h in 1usize..9, w in 1usize..9,
            layout in 0usize..2, seed in 0u64..1000
        ) {
            let t = spiky(Shape::new(n, c, h, w), DataLayout::ALL[layout], seed);
            let mut want = t.clone();
            for v in want.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            let got = relu(&t);
            prop_assert_eq!(got.layout(), t.layout());
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn prop_batch_norm_matches_accessor_oracle(
            n in 1usize..3, c in 1usize..20, h in 1usize..9, w in 1usize..9,
            layout in 0usize..2, seed in 0u64..1000
        ) {
            let t = spiky(Shape::new(n, c, h, w), DataLayout::ALL[layout], seed);
            let scale: Vec<f32> = (0..c).map(|i| 0.5 + i as f32 * 0.37).collect();
            let shift: Vec<f32> = (0..c).map(|i| i as f32 * -0.21).collect();
            let got = batch_norm(&t, &scale, &shift);
            prop_assert_eq!(got.layout(), t.layout());
            prop_assert_eq!(bits(&got), bits(&batch_norm_oracle(&t, &scale, &shift)));
        }
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let t = Tensor::from_vec(
            Shape::new(1, 1, 1, 4),
            DataLayout::Nchw,
            vec![-1.0, 0.0, 2.5, -0.1],
        )
        .unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 0.0, 2.5, 0.0]);
    }

    #[test]
    fn relu_preserves_layout() {
        let t = Tensor::random(Shape::new(1, 3, 2, 2), DataLayout::Nhwc, 3);
        assert_eq!(relu(&t).layout(), DataLayout::Nhwc);
    }

    #[test]
    fn batch_norm_scales_per_channel() {
        let t = Tensor::from_fn(Shape::new(1, 2, 1, 2), DataLayout::Nchw, |_, _, _, _| 2.0);
        let out = batch_norm(&t, &[1.0, 10.0], &[0.5, 0.0]);
        assert_eq!(out.at(0, 0, 0, 0), 2.5);
        assert_eq!(out.at(0, 1, 0, 1), 20.0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let t = Tensor::from_vec(
            Shape::new(1, 3, 1, 1),
            DataLayout::Nchw,
            vec![1.0, 3.0, 2.0],
        )
        .unwrap();
        let s = softmax(&t);
        let sum: f32 = s.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(s.at(0, 1, 0, 0) > s.at(0, 2, 0, 0));
        assert!(s.at(0, 2, 0, 0) > s.at(0, 0, 0, 0));
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let t = Tensor::from_vec(
            Shape::new(1, 2, 1, 1),
            DataLayout::Nchw,
            vec![1000.0, 1001.0],
        )
        .unwrap();
        let s = softmax(&t);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lrn_normalizes_by_neighbourhood_energy() {
        let p = LrnParams {
            size: 3,
            alpha: 1.0,
            beta: 1.0,
            k: 1.0,
        };
        let t = Tensor::from_vec(
            Shape::new(1, 3, 1, 1),
            DataLayout::Nchw,
            vec![3.0, 0.0, 4.0],
        )
        .unwrap();
        let out = lrn(&t, &p);
        // c=0 window {0,1}: sq=9  -> denom = 1 + 9/3 = 4   -> 0.75
        // c=1 window {0,1,2}: sq=25 -> denom = 1 + 25/3    -> 0.0
        // c=2 window {1,2}: sq=16 -> denom = 1 + 16/3      -> 4/(19/3)
        assert!((out.at(0, 0, 0, 0) - 0.75).abs() < 1e-5);
        assert_eq!(out.at(0, 1, 0, 0), 0.0);
        assert!((out.at(0, 2, 0, 0) - 4.0 / (1.0 + 16.0 / 3.0)).abs() < 1e-5);
    }

    #[test]
    fn lrn_identity_when_alpha_zero() {
        let p = LrnParams {
            size: 5,
            alpha: 0.0,
            beta: 0.75,
            k: 1.0,
        };
        let t = Tensor::random(Shape::new(1, 4, 2, 2), DataLayout::Nchw, 8);
        assert!(lrn(&t, &p).approx_eq(&t, 1e-6).unwrap());
    }
}
