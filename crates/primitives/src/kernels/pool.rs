//! Pooling kernels (max / average / global, ceil or floor rounding).

use std::ops::Range;

use qsdnn_nn::{PoolKind, PoolParams};
use qsdnn_tensor::{DataLayout, Shape, Tensor};

/// Generic pooling: any input layout, output in `out_layout`. Average
/// pooling divides by the number of *valid* (inside the un-padded input)
/// window elements, matching Caffe; a window with no valid element yields
/// 0. Global pooling is the window that covers the whole input.
///
/// The input is walked in its own memory order: an NCHW plane one output
/// row at a time, an NHWC image one pixel's channel run at a time. Every
/// output folds its valid taps in `(ky, kx)` order, so average pooling sums
/// in the same order in both layouts. The result is converted to
/// `out_layout` if that differs.
pub fn pool_generic(
    input: &Tensor,
    p: &PoolParams,
    out_shape: Shape,
    out_layout: DataLayout,
) -> Tensor {
    let in_s = input.shape();
    let (kernel, stride, pad) = if p.global {
        ((in_s.h, in_s.w), (1, 1), (0, 0))
    } else {
        (p.kernel, p.stride, p.pad)
    };
    let win = Windows {
        rows: (0..out_shape.h)
            .map(|oy| window(oy, kernel.0, stride.0, pad.0, in_s.h))
            .collect(),
        cols: (0..out_shape.w)
            .map(|ox| window(ox, kernel.1, stride.1, pad.1, in_s.w))
            .collect(),
        in_h: in_s.h,
        in_w: in_s.w,
        kw: kernel.1,
        sw: stride.1,
    };
    let mut out = Tensor::zeros(out_shape, input.layout());
    if in_s.is_empty() || out_shape.is_empty() {
        return out.into_layout(out_layout);
    }
    let (x, o) = (input.as_slice(), out.as_mut_slice());
    match (input.layout(), p.kind) {
        (DataLayout::Nchw, PoolKind::Max) => pool_planes(x, o, &win, f32::NEG_INFINITY, f32::max),
        (DataLayout::Nchw, PoolKind::Avg) => pool_planes(x, o, &win, 0.0, |sum, v| sum + v),
        (DataLayout::Nhwc, PoolKind::Max) => {
            pool_runs(x, o, in_s.c, &win, f32::NEG_INFINITY, f32::max)
        }
        (DataLayout::Nhwc, PoolKind::Avg) => pool_runs(x, o, in_s.c, &win, 0.0, |sum, v| sum + v),
    }
    // A window with no valid tap gives 0; an average divides by its count.
    let run = match input.layout() {
        DataLayout::Nchw => 1,
        DataLayout::Nhwc => in_s.c,
    };
    let empty = win.rows.iter().chain(&win.cols).any(|r| r.is_empty());
    if p.kind == PoolKind::Avg || empty {
        for image in o.chunks_exact_mut(out_shape.h * out_shape.w * run) {
            for (ys, o_row) in win
                .rows
                .iter()
                .zip(image.chunks_exact_mut(out_shape.w * run))
            {
                for (xs, acc) in win.cols.iter().zip(o_row.chunks_exact_mut(run)) {
                    let count = ys.len() * xs.len();
                    if count == 0 {
                        acc.fill(0.0);
                    } else if p.kind == PoolKind::Avg {
                        let count = count as f32;
                        for v in acc {
                            *v /= count;
                        }
                    }
                }
            }
        }
    }
    out.into_layout(out_layout)
}

/// The valid input rows of every output row and columns of every output
/// column, plus what the kernels need of the input and the window.
struct Windows {
    rows: Vec<Range<usize>>,
    cols: Vec<Range<usize>>,
    in_h: usize,
    in_w: usize,
    kw: usize,
    sw: usize,
}

/// Input coordinates covered by window `o` of `kernel` taps at `stride`,
/// shifted by `pad`, clipped to `0..extent`.
fn window(o: usize, kernel: usize, stride: usize, pad: usize, extent: usize) -> Range<usize> {
    let start = o * stride;
    let lo = (start.max(pad) - pad).min(extent);
    let hi = (start + kernel).min(extent + pad).saturating_sub(pad);
    lo..hi.max(lo)
}

/// NCHW: each `[H][W]` plane, one output row at a time. Outputs whose
/// window lies wholly inside the row (the interior) take one tap at a time
/// across the whole row, as independent accumulators; the clipped border
/// outputs fold their windows one by one.
fn pool_planes(x: &[f32], out: &mut [f32], win: &Windows, init: f32, f: impl Fn(f32, f32) -> f32) {
    let (iw, ow) = (win.in_w, win.cols.len());
    let full = |xs: &Range<usize>| xs.len() == win.kw;
    let lo = win.cols.iter().position(full).unwrap_or(ow);
    let hi = lo + win.cols[lo..].iter().take_while(|xs| full(xs)).count();
    let (lo, hi) = if hi - lo > 1 { (lo, hi) } else { (ow, ow) };
    for (plane, o) in x
        .chunks_exact(win.in_h * iw)
        .zip(out.chunks_exact_mut(win.rows.len() * ow))
    {
        for (ys, acc) in win.rows.iter().zip(o.chunks_exact_mut(ow)) {
            acc.fill(init);
            for row in plane[ys.start * iw..ys.end * iw].chunks_exact(iw) {
                for ox in (0..lo).chain(hi..ow) {
                    acc[ox] = row[win.cols[ox].clone()]
                        .iter()
                        .fold(acc[ox], |a, &v| f(a, v));
                }
                if lo < hi {
                    let first = win.cols[lo].start;
                    let span = &row[first..first + (hi - lo - 1) * win.sw + win.kw];
                    for kx in 0..win.kw {
                        for (j, a) in acc[lo..hi].iter_mut().enumerate() {
                            *a = f(*a, span[j * win.sw + kx]);
                        }
                    }
                }
            }
        }
    }
}

/// NHWC: an image is an `[H][W][C]` array in which every window tap is one
/// contiguous run of `c` channels, folded into the output pixel's run.
fn pool_runs(
    x: &[f32],
    out: &mut [f32],
    c: usize,
    win: &Windows,
    init: f32,
    f: impl Fn(f32, f32) -> f32,
) {
    let (iw, ow) = (win.in_w, win.cols.len());
    for (image, o) in x
        .chunks_exact(win.in_h * iw * c)
        .zip(out.chunks_exact_mut(win.rows.len() * ow * c))
    {
        for (ys, o_row) in win.rows.iter().zip(o.chunks_exact_mut(ow * c)) {
            for (xs, acc) in win.cols.iter().zip(o_row.chunks_exact_mut(c)) {
                acc.fill(init);
                for iy in ys.clone() {
                    let taps = &image[(iy * iw + xs.start) * c..(iy * iw + xs.end) * c];
                    for tap in taps.chunks_exact(c) {
                        for (a, &v) in acc.iter_mut().zip(tap) {
                            *a = f(*a, v);
                        }
                    }
                }
            }
        }
    }
}

/// NNPACK-style fast path: 2×2/stride-2 max pooling with raw NCHW indexing.
///
/// # Panics
///
/// Panics unless the parameters are exactly max/2×2/s2/no-pad and `input` is
/// NCHW.
pub fn maxpool_2x2_s2_nchw(input: &Tensor, out_shape: Shape) -> Tensor {
    assert_eq!(
        input.layout(),
        DataLayout::Nchw,
        "fast maxpool requires NCHW input"
    );
    let in_s = input.shape();
    let x = input.as_slice();
    let mut out = Tensor::zeros(out_shape, DataLayout::Nchw);
    let o = out.as_mut_slice();
    let (ih, iw) = (in_s.h, in_s.w);
    let (oh, ow) = (out_shape.h, out_shape.w);
    for nc in 0..in_s.n * in_s.c {
        let src = nc * ih * iw;
        let dst = nc * oh * ow;
        for oy in 0..oh {
            let y0 = oy * 2;
            for ox in 0..ow {
                let x0 = ox * 2;
                let mut best = x[src + y0 * iw + x0];
                if x0 + 1 < iw {
                    best = best.max(x[src + y0 * iw + x0 + 1]);
                }
                if y0 + 1 < ih {
                    best = best.max(x[src + (y0 + 1) * iw + x0]);
                    if x0 + 1 < iw {
                        best = best.max(x[src + (y0 + 1) * iw + x0 + 1]);
                    }
                }
                o[dst + oy * ow + ox] = best;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{bits, spiky};
    use proptest::prelude::*;

    /// Pooling through the accessors, channel by channel in logical order:
    /// the reference the slice-order kernel must match bit for bit.
    fn pool_oracle(
        input: &Tensor,
        p: &PoolParams,
        out_shape: Shape,
        out_layout: DataLayout,
    ) -> Tensor {
        let in_s = input.shape();
        let mut out = Tensor::zeros(out_shape, out_layout);
        if p.global {
            let denom = (in_s.h * in_s.w) as f32;
            for n in 0..in_s.n {
                for c in 0..in_s.c {
                    let mut best = f32::NEG_INFINITY;
                    let mut sum = 0.0f32;
                    for y in 0..in_s.h {
                        for x in 0..in_s.w {
                            let v = input.at(n, c, y, x);
                            best = best.max(v);
                            sum += v;
                        }
                    }
                    let v = match p.kind {
                        PoolKind::Max => best,
                        PoolKind::Avg => sum / denom,
                    };
                    out.set(n, c, 0, 0, v);
                }
            }
            return out;
        }
        let (kh, kw) = p.kernel;
        let (sh, sw) = p.stride;
        let (ph, pw) = p.pad;
        for n in 0..out_shape.n {
            for c in 0..out_shape.c {
                for oy in 0..out_shape.h {
                    for ox in 0..out_shape.w {
                        let mut best = f32::NEG_INFINITY;
                        let mut sum = 0.0f32;
                        let mut count = 0usize;
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as isize - ph as isize;
                            if iy < 0 || iy >= in_s.h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as isize - pw as isize;
                                if ix < 0 || ix >= in_s.w as isize {
                                    continue;
                                }
                                let v = input.at(n, c, iy as usize, ix as usize);
                                best = best.max(v);
                                sum += v;
                                count += 1;
                            }
                        }
                        let v = match (p.kind, count) {
                            (_, 0) => 0.0,
                            (PoolKind::Max, _) => best,
                            (PoolKind::Avg, _) => sum / count as f32,
                        };
                        out.set(n, c, oy, ox, v);
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_pool_matches_accessor_oracle(
            n in 1usize..3, c in 1usize..20, k in 1usize..4, stride in 1usize..3,
            pad in 0usize..3, h in 3usize..10, w in 3usize..10, extra in 0usize..2,
            avg in 0usize..2, global in 0usize..4,
            from in 0usize..2, to in 0usize..2, seed in 0u64..1000
        ) {
            let kind = [PoolKind::Max, PoolKind::Avg][avg];
            let (p, out_shape) = if global == 0 {
                (PoolParams::global(kind), Shape::new(n, c, 1, 1))
            } else {
                // Ceil-mode extents, plus possibly one window wholly in the
                // padding.
                let pad = pad.min(k - 1);
                let extent = |i: usize| (i + 2 * pad - k).div_ceil(stride) + 1 + extra;
                (
                    PoolParams::square(kind, k, stride, pad),
                    Shape::new(n, c, extent(h), extent(w)),
                )
            };
            let input = spiky(Shape::new(n, c, h, w), DataLayout::ALL[from], seed);
            let out_layout = DataLayout::ALL[to];
            let got = pool_generic(&input, &p, out_shape, out_layout);
            prop_assert_eq!(got.layout(), out_layout);
            prop_assert_eq!(
                bits(&got),
                bits(&pool_oracle(&input, &p, out_shape, out_layout))
            );
        }
    }

    #[test]
    fn max_pool_known_values() {
        let in_s = Shape::new(1, 1, 4, 4);
        let input = Tensor::from_fn(in_s, DataLayout::Nchw, |_, _, h, w| (h * 4 + w) as f32);
        let p = PoolParams::square(PoolKind::Max, 2, 2, 0);
        let out = pool_generic(&input, &p, Shape::new(1, 1, 2, 2), DataLayout::Nchw);
        assert_eq!(out.at(0, 0, 0, 0), 5.0);
        assert_eq!(out.at(0, 0, 1, 1), 15.0);
    }

    #[test]
    fn avg_pool_counts_valid_only() {
        // With pad 1 the corner window has a single valid element.
        let in_s = Shape::new(1, 1, 2, 2);
        let input = Tensor::from_fn(in_s, DataLayout::Nchw, |_, _, _, _| 8.0);
        let p = PoolParams::square(PoolKind::Avg, 2, 2, 1);
        let out = pool_generic(&input, &p, Shape::new(1, 1, 2, 2), DataLayout::Nchw);
        assert_eq!(out.at(0, 0, 0, 0), 8.0);
    }

    #[test]
    fn global_avg_and_max() {
        let in_s = Shape::new(1, 2, 3, 3);
        let input = Tensor::from_fn(in_s, DataLayout::Nchw, |_, c, h, w| {
            if c == 0 {
                (h * 3 + w) as f32
            } else {
                1.0
            }
        });
        let avg = pool_generic(
            &input,
            &PoolParams::global(PoolKind::Avg),
            Shape::new(1, 2, 1, 1),
            DataLayout::Nchw,
        );
        assert_eq!(avg.at(0, 0, 0, 0), 4.0);
        assert_eq!(avg.at(0, 1, 0, 0), 1.0);
        let max = pool_generic(
            &input,
            &PoolParams::global(PoolKind::Max),
            Shape::new(1, 2, 1, 1),
            DataLayout::Nchw,
        );
        assert_eq!(max.at(0, 0, 0, 0), 8.0);
    }

    #[test]
    fn fast_path_matches_generic() {
        let in_s = Shape::new(2, 3, 8, 8);
        let input = Tensor::random(in_s, DataLayout::Nchw, 17);
        let p = PoolParams::square(PoolKind::Max, 2, 2, 0);
        let os = Shape::new(2, 3, 4, 4);
        let a = pool_generic(&input, &p, os, DataLayout::Nchw);
        let b = maxpool_2x2_s2_nchw(&input, os);
        assert!(a.approx_eq(&b, 0.0).unwrap());
    }

    #[test]
    fn fast_path_handles_odd_extents() {
        // 5x5 input with ceil-mode output 3x3: ragged bottom/right windows.
        let in_s = Shape::new(1, 1, 5, 5);
        let input = Tensor::random(in_s, DataLayout::Nchw, 23);
        let p = PoolParams::square(PoolKind::Max, 2, 2, 0);
        let os = Shape::new(1, 1, 3, 3);
        let a = pool_generic(&input, &p, os, DataLayout::Nchw);
        let b = maxpool_2x2_s2_nchw(&input, os);
        assert!(a.approx_eq(&b, 0.0).unwrap());
    }

    #[test]
    fn nhwc_output_layout_preserves_values() {
        let in_s = Shape::new(1, 4, 6, 6);
        let input = Tensor::random(in_s, DataLayout::Nchw, 29);
        let p = PoolParams::square(PoolKind::Avg, 3, 2, 0);
        let os = Shape::new(1, 4, 2, 2);
        let a = pool_generic(&input, &p, os, DataLayout::Nchw);
        let b = pool_generic(&input.to_layout(DataLayout::Nhwc), &p, os, DataLayout::Nhwc);
        assert!(a.approx_eq(&b, 1e-6).unwrap());
    }
}
