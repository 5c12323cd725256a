//! Executable layer kernels behind every primitive in the registry.
//!
//! Each module implements one algorithm family; all variants of a layer are
//! cross-checked against the Vanilla direct reference in unit and
//! integration tests.

pub mod activation;
pub mod conv_direct;
pub mod depthwise;
pub mod eltwise;
pub mod fc;
pub mod lowering;
pub mod pool;
pub mod sparse;
pub mod winograd;

#[cfg(test)]
pub(crate) mod testutil {
    use qsdnn_tensor::{DataLayout, Shape, Tensor};

    /// Random values in `[-1, 1)` with −0.0, +0.0, NaN, infinities and
    /// repeated values mixed in, for bit-exact kernel comparisons.
    pub(crate) fn spiky(shape: Shape, layout: DataLayout, seed: u64) -> Tensor {
        const SPECIAL: [f32; 6] = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5];
        let mut t = Tensor::random(shape, layout, seed);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            if (i as u64).wrapping_mul(seed | 1).is_multiple_of(5) {
                *v = SPECIAL[i % SPECIAL.len()];
            }
        }
        t
    }

    /// The bits of every element, in buffer order. Rust leaves the sign
    /// and payload of a NaN that arithmetic produces unspecified, so every
    /// NaN maps to the bits of `f32::NAN`.
    pub(crate) fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice()
            .iter()
            .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
            .collect()
    }
}
