use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{DataLayout, Shape, TensorError};

/// Dense 4-D `f32` tensor with an explicit [`DataLayout`].
///
/// # Examples
///
/// ```
/// use qsdnn_tensor::{DataLayout, Shape, Tensor};
///
/// let mut t = Tensor::zeros(Shape::new(1, 2, 2, 2), DataLayout::Nchw);
/// t.set(0, 1, 0, 1, 7.0);
/// assert_eq!(t.at(0, 1, 0, 1), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    layout: DataLayout,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape, layout: DataLayout) -> Self {
        Tensor {
            shape,
            layout,
            data: vec![0.0; shape.volume()],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// `shape.volume()`.
    pub fn from_vec(shape: Shape, layout: DataLayout, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                got: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            layout,
            data,
        })
    }

    /// Creates a tensor whose element at logical position `(n, c, h, w)` is
    /// `f(n, c, h, w)`.
    pub fn from_fn<F>(shape: Shape, layout: DataLayout, mut f: F) -> Self
    where
        F: FnMut(usize, usize, usize, usize) -> f32,
    {
        let mut t = Tensor::zeros(shape, layout);
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        t.set(n, c, h, w, f(n, c, h, w));
                    }
                }
            }
        }
        t
    }

    /// Creates a tensor filled with deterministic pseudo-random values in
    /// `[-1, 1)` from `seed`.
    pub fn random(shape: Shape, layout: DataLayout, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = (0..shape.volume())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        Tensor {
            shape,
            layout,
            data,
        }
    }

    /// Logical shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Memory layout.
    pub fn layout(&self) -> DataLayout {
        self.layout
    }

    /// Immutable view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at logical position `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.layout.offset(&self.shape, n, c, h, w)]
    }

    /// Sets the element at logical position `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        let off = self.layout.offset(&self.shape, n, c, h, w);
        self.data[off] = value;
    }

    /// Returns a copy of this tensor converted to `layout`.
    ///
    /// If the layout already matches, this is a plain clone. Otherwise every
    /// element is permuted — exactly the work a *compatibility layer*
    /// performs at inference time. Per image, NCHW is a `[C][HW]` matrix
    /// and NHWC its transpose `[HW][C]`, so the conversion is a tiled
    /// transpose of each image.
    pub fn to_layout(&self, layout: DataLayout) -> Tensor {
        if layout == self.layout {
            return self.clone();
        }
        let (c, hw) = (self.shape.c, self.shape.spatial());
        let (rows, cols) = match self.layout {
            DataLayout::Nchw => (c, hw),
            DataLayout::Nhwc => (hw, c),
        };
        let mut data = vec![0.0; self.data.len()];
        if !data.is_empty() {
            for (src, dst) in self
                .data
                .chunks_exact(c * hw)
                .zip(data.chunks_exact_mut(c * hw))
            {
                transpose(src, dst, rows, cols);
            }
        }
        Tensor {
            shape: self.shape,
            layout,
            data,
        }
    }

    /// This tensor in `layout`: borrowed when the layout already matches,
    /// a converted copy ([`Tensor::to_layout`]) otherwise.
    pub fn as_layout(&self, layout: DataLayout) -> Cow<'_, Tensor> {
        if layout == self.layout {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.to_layout(layout))
        }
    }

    /// Consumes this tensor and returns it in `layout`, converting only if
    /// the layout differs.
    pub fn into_layout(self, layout: DataLayout) -> Tensor {
        if layout == self.layout {
            self
        } else {
            self.to_layout(layout)
        }
    }

    /// Largest absolute element-wise difference between two tensors of the
    /// same shape (layouts may differ). NaN differences are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape,
                right: other.shape,
            });
        }
        let other = other.as_layout(self.layout);
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |max, (a, b)| {
                let d = (a - b).abs();
                if d > max {
                    d
                } else {
                    max
                }
            }))
    }

    /// Whether every element of `self` is within `tol` of the corresponding
    /// element of `other` (layout-agnostic).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> Result<bool, TensorError> {
        Ok(self.max_abs_diff(other)? <= tol)
    }
}

/// Writes the transpose of the row-major `rows × cols` matrix `src` into
/// `dst`, in square tiles so that the strided side of the copy stays in
/// cache.
fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    const TILE: usize = 32;
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                for (j, &v) in src[r * cols + c0..r * cols + c1].iter().enumerate() {
                    dst[(c0 + j) * rows + r] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_set_get() {
        let mut t = Tensor::zeros(Shape::new(1, 2, 3, 4), DataLayout::Nchw);
        assert_eq!(t.at(0, 1, 2, 3), 0.0);
        t.set(0, 1, 2, 3, 42.0);
        assert_eq!(t.at(0, 1, 2, 3), 42.0);
    }

    #[test]
    fn from_vec_checks_length() {
        let err = Tensor::from_vec(Shape::new(1, 1, 2, 2), DataLayout::Nchw, vec![0.0; 3]);
        assert!(matches!(
            err,
            Err(TensorError::LengthMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn from_fn_respects_layout() {
        let shape = Shape::new(1, 2, 2, 2);
        let f = |_n: usize, c: usize, h: usize, w: usize| (c * 100 + h * 10 + w) as f32;
        let a = Tensor::from_fn(shape, DataLayout::Nchw, f);
        let b = Tensor::from_fn(shape, DataLayout::Nhwc, f);
        // Logical view identical, buffers permuted.
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn layout_conversion_roundtrip_exact() {
        let t = Tensor::random(Shape::new(2, 3, 5, 4), DataLayout::Nchw, 7);
        let back = t.to_layout(DataLayout::Nhwc).to_layout(DataLayout::Nchw);
        assert_eq!(t, back);
    }

    #[test]
    fn to_same_layout_is_identity() {
        let t = Tensor::random(Shape::new(1, 4, 3, 3), DataLayout::Nhwc, 3);
        assert_eq!(t, t.to_layout(DataLayout::Nhwc));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let shape = Shape::new(1, 3, 8, 8);
        let a = Tensor::random(shape, DataLayout::Nchw, 11);
        let b = Tensor::random(shape, DataLayout::Nchw, 11);
        let c = Tensor::random(shape, DataLayout::Nchw, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn max_abs_diff_shape_mismatch() {
        let a = Tensor::zeros(Shape::new(1, 1, 2, 2), DataLayout::Nchw);
        let b = Tensor::zeros(Shape::new(1, 1, 2, 3), DataLayout::Nchw);
        assert!(a.max_abs_diff(&b).is_err());
    }

    #[test]
    fn approx_eq_across_layouts() {
        let a = Tensor::random(Shape::new(1, 5, 4, 4), DataLayout::Nchw, 1);
        let b = a.to_layout(DataLayout::Nhwc);
        assert!(a.approx_eq(&b, 0.0).unwrap());
    }

    /// Element-by-element conversion through the accessors: the reference
    /// the tiled transpose must match bit for bit.
    fn to_layout_oracle(t: &Tensor, layout: DataLayout) -> Tensor {
        let s = t.shape();
        let mut out = Tensor::zeros(s, layout);
        for n in 0..s.n {
            for c in 0..s.c {
                for h in 0..s.h {
                    for w in 0..s.w {
                        out.set(n, c, h, w, t.at(n, c, h, w));
                    }
                }
            }
        }
        out
    }

    /// `max_abs_diff` as a walk in logical order through the accessors.
    fn max_abs_diff_oracle(a: &Tensor, b: &Tensor) -> f32 {
        let s = a.shape();
        let mut max = 0.0f32;
        for n in 0..s.n {
            for c in 0..s.c {
                for h in 0..s.h {
                    for w in 0..s.w {
                        let d = (a.at(n, c, h, w) - b.at(n, c, h, w)).abs();
                        if d > max {
                            max = d;
                        }
                    }
                }
            }
        }
        max
    }

    /// Random values with −0.0, +0.0, NaN and infinities mixed in.
    fn spiky(shape: Shape, layout: DataLayout, seed: u64) -> Tensor {
        const SPECIAL: [f32; 5] = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut t = Tensor::random(shape, layout, seed);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            if (i as u64).wrapping_mul(seed | 1).is_multiple_of(7) {
                *v = SPECIAL[i % SPECIAL.len()];
            }
        }
        t
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn as_layout_borrows_only_when_layout_matches() {
        let t = Tensor::random(Shape::new(1, 3, 2, 2), DataLayout::Nchw, 4);
        assert!(matches!(t.as_layout(DataLayout::Nchw), Cow::Borrowed(_)));
        let converted = t.as_layout(DataLayout::Nhwc);
        assert!(matches!(converted, Cow::Owned(_)));
        assert_eq!(*converted, t.to_layout(DataLayout::Nhwc));
        assert_eq!(t.clone().into_layout(DataLayout::Nhwc), *converted);
    }

    proptest! {
        #[test]
        fn prop_to_layout_matches_accessor_oracle(
            n in 1usize..3, c in 1usize..70, h in 1usize..12, w in 1usize..12,
            from in 0usize..2, seed in 0u64..1000
        ) {
            let t = spiky(Shape::new(n, c, h, w), DataLayout::ALL[from], seed);
            for layout in DataLayout::ALL {
                let got = t.to_layout(layout);
                prop_assert_eq!(got.layout(), layout);
                prop_assert_eq!(bits(&got), bits(&to_layout_oracle(&t, layout)));
            }
        }

        #[test]
        fn prop_max_abs_diff_matches_accessor_oracle(
            n in 1usize..3, c in 1usize..40, h in 1usize..8, w in 1usize..8,
            la in 0usize..2, lb in 0usize..2, seed in 0u64..1000
        ) {
            let shape = Shape::new(n, c, h, w);
            let a = spiky(shape, DataLayout::ALL[la], seed);
            let b = spiky(shape, DataLayout::ALL[lb], seed + 1);
            prop_assert_eq!(
                a.max_abs_diff(&b).unwrap().to_bits(),
                max_abs_diff_oracle(&a, &b).to_bits()
            );
        }

        #[test]
        fn prop_layout_roundtrip(
            n in 1usize..3, c in 1usize..6, h in 1usize..6, w in 1usize..6, seed in 0u64..1000
        ) {
            let t = Tensor::random(Shape::new(n, c, h, w), DataLayout::Nchw, seed);
            let rt = t.to_layout(DataLayout::Nhwc).to_layout(DataLayout::Nchw);
            prop_assert_eq!(t, rt);
        }

        #[test]
        fn prop_conversion_preserves_logical_view(
            c in 1usize..5, h in 1usize..5, w in 1usize..5, seed in 0u64..1000
        ) {
            let t = Tensor::random(Shape::new(1, c, h, w), DataLayout::Nchw, seed);
            let u = t.to_layout(DataLayout::Nhwc);
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        prop_assert_eq!(t.at(0, ci, hi, wi), u.at(0, ci, hi, wi));
                    }
                }
            }
        }
    }
}
