//! 2-D convolution via im2col + the GEMM core, with full backward.
//!
//! Both passes parallelize **per sample** on the `wootz-par` pool (inline
//! below the grain): each task lowers one sample with `im2col` into reused
//! per-thread scratch and runs the register-tiled core (`matmul.rs`) on it;
//! the weight operand is borrowed and packed once per call. Forward outputs
//! and `dx` gradients are disjoint per-sample slices, and the `dw`/`db`
//! reductions merge the per-sample partials **in sample order** — the exact
//! accumulation order of the sequential loop — so results are bit-identical
//! for any thread count (see `PERFORMANCE.md`).

use crate::ops::matmul::{
    gemm_packed, pack, scratch, with_call_scratch, with_lane_scratch, MatRef, Scratch, MR, NR,
};
use crate::ops::metering;
use crate::Tensor;

/// Spatial configuration of a 2-D convolution: square stride and symmetric
/// zero padding. Kernel size is carried by the weight tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Conv2dCfg {
    /// Step between receptive-field positions (same in both dimensions).
    pub stride: usize,
    /// Zero rows/columns added on every border.
    pub pad: usize,
}

impl Default for Conv2dCfg {
    /// Stride 1, no padding.
    fn default() -> Self {
        Conv2dCfg { stride: 1, pad: 0 }
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input activation `[N, C, H, W]`.
    pub dx: Tensor,
    /// Gradient with respect to the filter weights `[F, C, Kh, Kw]`.
    pub dw: Tensor,
    /// Gradient with respect to the bias `[F]`.
    pub db: Tensor,
}

/// Output spatial extent of a convolution/pooling window sweep.
///
/// # Panics
///
/// Panics when the window does not fit the padded input — that is a model
/// construction bug surfaced during graph validation in `wootz-nn`.
pub fn conv2d_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    assert!(stride > 0, "stride must be positive");
    (padded - kernel) / stride + 1
}

/// One sample's convolution geometry: input `[C, H, W]`, kernel `Kh × Kw`,
/// output `Ho × Wo`. The lowered ("col") matrix is `[C·Kh·Kw, Ho·Wo]`.
#[derive(Debug, Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
}

impl Geom {
    fn new((c, h, w): (usize, usize, usize), (kh, kw): (usize, usize), cfg: Conv2dCfg) -> Geom {
        Geom {
            c,
            h,
            w,
            kh,
            kw,
            stride: cfg.stride,
            pad: cfg.pad,
            ho: conv2d_out_dim(h, kh, cfg.stride, cfg.pad),
            wo: conv2d_out_dim(w, kw, cfg.stride, cfg.pad),
        }
    }

    /// Rows of the col matrix: `C·Kh·Kw`.
    fn rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the col matrix: `Ho·Wo`.
    fn cols(&self) -> usize {
        self.ho * self.wo
    }

    /// Whether the col matrix *is* the `[C, H·W]` sample (1×1, stride 1, no
    /// padding), so lowering and its inverse are the identity.
    fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1 && self.pad == 0
    }

    /// The output positions `lo..hi` along one axis whose input coordinate
    /// `o·stride + k − pad` lies inside `0..extent`, for kernel offset `k`.
    fn valid(&self, k: usize, extent: usize, out: usize) -> (usize, usize) {
        let lo = self.pad.saturating_sub(k).div_ceil(self.stride).min(out);
        let hi = (extent + self.pad)
            .saturating_sub(k)
            .div_ceil(self.stride)
            .clamp(lo, out);
        (lo, hi)
    }

    /// For col row `row`: its input channel, kernel offsets and the valid
    /// output ranges `(oi, oj)`.
    fn window(&self, row: usize) -> (usize, usize, usize, (usize, usize), (usize, usize)) {
        let (ci, kk) = (row / (self.kh * self.kw), row % (self.kh * self.kw));
        let (ki, kj) = (kk / self.kw, kk % self.kw);
        (
            ci,
            ki,
            kj,
            self.valid(ki, self.h, self.ho),
            self.valid(kj, self.w, self.wo),
        )
    }
}

/// Lowers `[C, H, W]` patches of one sample into the `[C·Kh·Kw, Ho·Wo]`
/// matrix `col` (every element written; zero where the window leaves the
/// image). Copies whole in-image row ranges rather than bounds-testing each
/// element (PERFORMANCE.md §1, "Row-range lowering").
fn im2col(x: &[f32], g: &Geom, col: &mut [f32]) {
    let s = g.stride;
    for (row, dst) in col.chunks_exact_mut(g.cols()).enumerate() {
        let (ci, ki, kj, (ilo, ihi), (jlo, jhi)) = g.window(row);
        let plane = &x[ci * g.h * g.w..(ci + 1) * g.h * g.w];
        for (oi, drow) in dst.chunks_exact_mut(g.wo).enumerate() {
            if oi < ilo || oi >= ihi || jlo == jhi {
                drow.fill(0.0);
                continue;
            }
            let ii = oi * s + ki - g.pad;
            let src = &plane[ii * g.w + jlo * s + kj - g.pad..(ii + 1) * g.w];
            drow[..jlo].fill(0.0);
            drow[jhi..].fill(0.0);
            if s == 1 {
                drow[jlo..jhi].copy_from_slice(&src[..jhi - jlo]);
            } else {
                for (d, &v) in drow[jlo..jhi].iter_mut().zip(src.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
}

/// The col matrix of the sample `x`: `x` itself on the 1×1 direct path,
/// else its [`im2col`] lowering into `buf`.
fn lowered<'a>(x: &'a [f32], g: &Geom, buf: &'a mut Vec<f32>) -> &'a [f32] {
    if g.is_pointwise() {
        return x;
    }
    let col = scratch(buf, g.rows() * g.cols());
    im2col(x, g, col);
    col
}

/// Scatters a `[C·Kh·Kw, Ho·Wo]` gradient matrix back onto a `[C, H, W]`
/// input gradient, accumulating overlapping windows in row order — per
/// input element, the order of the sequential `(ci, ki, kj, oi, oj)` loop.
fn col2im(col: &[f32], g: &Geom, out: &mut [f32]) {
    let s = g.stride;
    for (row, src) in col.chunks_exact(g.cols()).enumerate() {
        let (ci, ki, kj, (ilo, ihi), (jlo, jhi)) = g.window(row);
        if jlo == jhi {
            continue;
        }
        let plane = &mut out[ci * g.h * g.w..(ci + 1) * g.h * g.w];
        for oi in ilo..ihi {
            let ii = oi * s + ki - g.pad;
            let drow = &mut plane[ii * g.w + jlo * s + kj - g.pad..(ii + 1) * g.w];
            let crow = &src[oi * g.wo + jlo..oi * g.wo + jhi];
            if s == 1 {
                for (d, &v) in drow.iter_mut().zip(crow) {
                    *d += v;
                }
            } else {
                for (d, &v) in drow.iter_mut().step_by(s).zip(crow) {
                    *d += v;
                }
            }
        }
    }
}

/// 2-D convolution forward pass.
///
/// * `x` — input `[N, C, H, W]`
/// * `w` — filters `[F, C, Kh, Kw]`
/// * `b` — bias `[F]`
///
/// Returns `[N, F, Ho, Wo]`.
///
/// # Panics
///
/// Panics when shapes are inconsistent (channel mismatch, kernel larger than
/// padded input, wrong ranks). Model graphs are validated before execution,
/// so a panic here indicates an internal bug.
pub fn conv2d(x: &Tensor, w: &Tensor, b: &Tensor, cfg: Conv2dCfg) -> Tensor {
    let (_, _, h, wd) = unpack4(x.shape(), "conv2d input");
    let (f, _, kh, kw) = unpack4(w.shape(), "conv2d weight");
    let n = x.shape()[0];
    let ho = conv2d_out_dim(h, kh, cfg.stride, cfg.pad);
    let wo = conv2d_out_dim(wd, kw, cfg.stride, cfg.pad);
    let mut out = Tensor::zeros(&[n, f, ho, wo]);
    conv2d_into(x, w, b, cfg, &mut out);
    out
}

/// Arena-friendly [`conv2d`]: writes the `[N, F, Ho, Wo]` output into `out`
/// (full overwrite). The allocating wrapper runs this exact body, so planned
/// and interpreted executions are bit-identical by construction.
///
/// The weight is packed once per call; each sample is one pool task that
/// lowers its patches into reused per-thread scratch (or, for a 1×1
/// stride-1 unpadded convolution, reads the sample itself as the col
/// matrix), runs the GEMM core into its output slice and adds the bias
/// after the full sum.
///
/// # Panics
///
/// Panics on shape inconsistencies, as in [`conv2d`].
pub fn conv2d_into(x: &Tensor, w: &Tensor, b: &Tensor, cfg: Conv2dCfg, out: &mut Tensor) {
    let (n, c, h, wd) = unpack4(x.shape(), "conv2d input");
    let (f, cw, kh, kw) = unpack4(w.shape(), "conv2d weight");
    assert_eq!(c, cw, "conv2d: input has {c} channels, weight expects {cw}");
    assert_eq!(
        b.shape(),
        &[f],
        "conv2d: bias shape {:?} != [{f}]",
        b.shape()
    );
    let g = Geom::new((c, h, wd), (kh, kw), cfg);
    let (k, p) = (g.rows(), g.cols());
    assert_eq!(
        out.shape(),
        &[n, f, g.ho, g.wo],
        "conv2d_into: output shape"
    );
    // One matmul of [F, C*Kh*Kw] x [C*Kh*Kw, Ho*Wo] per sample + bias adds.
    let flops = (n as u64) * metering::matmul_flops(f, k, p);
    metering::conv2d_calls().incr();
    metering::conv2d_flops().add(flops + (n * f * p) as u64);
    metering::conv2d_bytes().add(4 * (x.len() + w.len() + b.len() + n * f * p) as u64);
    let (xv, bias) = (x.data(), b.data());
    let sample = c * h * wd;
    with_call_scratch(|call| {
        pack::<MR>(MatRef::rows(w.data(), k).t(), k, f, &mut call.a);
        let pw: &[f32] = &call.a;
        // One task per sample: each writes only its own [F, Ho, Wo] slice, so
        // the parallel result is bit-identical to the sequential loop.
        wootz_par::parallel_chunks_mut_grained(out.data_mut(), f * p, flops, |ni, dst| {
            let xs = &xv[ni * sample..(ni + 1) * sample];
            with_lane_scratch(|lane| {
                let Scratch { b: pb, c: col, .. } = lane;
                pack::<NR>(MatRef::rows(lowered(xs, &g, col), p), k, p, pb);
                gemm_packed(f, k, p, pw, pb, dst);
            });
            for (row, &bv) in dst.chunks_exact_mut(p).zip(bias) {
                for d in row {
                    *d += bv;
                }
            }
        });
    });
}

/// Backward pass of [`conv2d`].
///
/// `dy` is the upstream gradient `[N, F, Ho, Wo]`; `x`/`w` are the forward
/// inputs. Returns gradients for input, weights and bias.
///
/// # Panics
///
/// Panics on shape inconsistencies, as in [`conv2d`].
pub fn conv2d_backward(x: &Tensor, w: &Tensor, dy: &Tensor, cfg: Conv2dCfg) -> Conv2dGrads {
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(w.shape());
    let mut db = Tensor::zeros(&[w.shape()[0]]);
    conv2d_backward_into(x, w, dy, cfg, Some(&mut dx), &mut dw, &mut db);
    Conv2dGrads { dx, dw, db }
}

/// Arena-friendly [`conv2d_backward`]: writes the gradients into
/// caller-provided tensors (full overwrite) — `dx` only when asked for,
/// `dw` and `db` always. Skipping `dx` skips its matmul and `col2im`, and
/// the FLOP meter counts only the matmuls that ran.
///
/// Each sample is one pool task computing `dWₙ = dYₙ·colₙᵀ`, `dbₙ` and
/// (when asked for) `dxₙ` from `dcolₙ = Wᵀ·dYₙ` — scattered by `col2im`, or
/// itself `dxₙ` for a 1×1 stride-1 unpadded convolution — into reused
/// scratch. The per-sample `dW`/`db` partials are then summed in sample
/// order, the sequential loop's exact accumulation order, so the result is
/// bit-identical to [`conv2d_backward`] for any thread count.
///
/// # Panics
///
/// Panics on shape inconsistencies, as in [`conv2d`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    cfg: Conv2dCfg,
    dx: Option<&mut Tensor>,
    dw: &mut Tensor,
    db: &mut Tensor,
) {
    let (n, c, h, wd) = unpack4(x.shape(), "conv2d_backward input");
    let (f, _cw, kh, kw) = unpack4(w.shape(), "conv2d_backward weight");
    let (dn, df, ho, wo) = unpack4(dy.shape(), "conv2d_backward dy");
    assert_eq!(
        (dn, df),
        (n, f),
        "conv2d_backward: dy batch/filters mismatch"
    );
    let g = Geom::new((c, h, wd), (kh, kw), cfg);
    assert_eq!((ho, wo), (g.ho, g.wo), "conv2d_backward: dy spatial shape");
    if let Some(dx) = &dx {
        assert_eq!(dx.shape(), x.shape(), "conv2d_backward_into dx shape");
    }
    assert_eq!(dw.shape(), w.shape(), "conv2d_backward_into dw shape");
    assert_eq!(db.shape(), &[f], "conv2d_backward_into db shape");
    let (k, p) = (g.rows(), g.cols());
    // One matmul per sample for dW and one for dcol (when dx is asked for),
    // each of the forward shape, plus the db row sums.
    let flops = (n as u64) * (1 + dx.is_some() as u64) * metering::matmul_flops(f, k, p);
    metering::conv2d_backward_calls().incr();
    metering::conv2d_backward_flops().add(flops + (n * f * p) as u64);
    let (xv, dyv) = (x.data(), dy.data());
    let sample = c * h * wd;
    // Each task's output: its dW partial, its db partial and, when asked
    // for, its dx sample.
    let dx_len = if dx.is_some() { sample } else { 0 };
    let part_len = f * k + f + dx_len;
    with_call_scratch(|call| {
        let Scratch {
            a: pwt,
            c: partials,
            ..
        } = call;
        if dx_len > 0 {
            // Wᵀ, the A operand of every sample's dcol.
            pack::<MR>(MatRef::rows(w.data(), k), f, k, pwt);
        }
        let pwt: &[f32] = pwt;
        let partials = scratch(partials, n * part_len);
        wootz_par::parallel_chunks_mut_grained(partials, part_len, flops, |ni, part| {
            let xs = &xv[ni * sample..(ni + 1) * sample];
            let dys = &dyv[ni * f * p..(ni + 1) * f * p];
            let (dw_n, rest) = part.split_at_mut(f * k);
            let (db_n, dxs) = rest.split_at_mut(f);
            with_lane_scratch(|lane| {
                let Scratch {
                    a: pa,
                    b: pb,
                    c: col,
                } = lane;
                // dW_n = dY_n · colᵀ: [F, P] x [P, C*Kh*Kw].
                pack::<MR>(MatRef::rows(dys, p).t(), p, f, pa);
                pack::<NR>(MatRef::rows(lowered(xs, &g, col), p).t(), p, k, pb);
                gemm_packed(f, p, k, pa, pb, dw_n);
                // db_n = row sums of dY.
                for (d, row) in db_n.iter_mut().zip(dys.chunks_exact(p)) {
                    *d = row.iter().sum();
                }
                // dcol = Wᵀ · dY_n: [C*Kh*Kw, F] x [F, P], scattered to dx.
                if dx_len > 0 {
                    pack::<NR>(MatRef::rows(dys, p), f, p, pb);
                    if g.is_pointwise() {
                        gemm_packed(k, f, p, pwt, pb, dxs);
                    } else {
                        let dcol = scratch(col, k * p);
                        gemm_packed(k, f, p, pwt, pb, dcol);
                        dxs.fill(0.0);
                        col2im(dcol, &g, dxs);
                    }
                }
            });
        });
        // `dw` is `[F, C, Kh, Kw]`, row-major identical to the `[F, C*Kh*Kw]`
        // partials: fold them in sample order.
        dw.fill_zero();
        db.fill_zero();
        for part in partials.chunks_exact(part_len) {
            let (dw_n, db_n) = (&part[..f * k], &part[f * k..f * k + f]);
            for (d, &v) in dw.data_mut().iter_mut().zip(dw_n) {
                *d += v;
            }
            for (d, &v) in db.data_mut().iter_mut().zip(db_n) {
                *d += v;
            }
        }
        if let Some(dx) = dx {
            let parts = partials.chunks_exact(part_len);
            for (dxs, part) in dx.data_mut().chunks_exact_mut(sample).zip(parts) {
                dxs.copy_from_slice(&part[f * k + f..]);
            }
        }
    });
}

fn unpack4(shape: &[usize], what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(shape.len(), 4, "{what}: expected rank 4, got {shape:?}");
    (shape[0], shape[1], shape[2], shape[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv2d_out_dim(8, 3, 1, 1), 8);
        assert_eq!(conv2d_out_dim(8, 3, 2, 1), 4);
        assert_eq!(conv2d_out_dim(7, 1, 1, 0), 7);
        assert_eq!(conv2d_out_dim(4, 4, 1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn out_dim_rejects_oversized_kernel() {
        conv2d_out_dim(2, 5, 1, 0);
    }

    #[test]
    fn identity_1x1_kernel() {
        // A single 1x1 filter with weight 1 reproduces the input channel.
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, Conv2dCfg::default());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // 4x4 input, 3x3 averaging-style kernel of ones, no pad -> 2x2 output
        // of window sums.
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let b = Tensor::filled(&[1], 0.5);
        let y = conv2d(&x, &w, &b, Conv2dCfg { stride: 1, pad: 0 });
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Window sums: 54, 63, 90, 99 — plus the 0.5 bias.
        assert_eq!(y.data(), &[54.5, 63.5, 90.5, 99.5]);
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let x = Tensor::ones(&[2, 3, 5, 5]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let b = Tensor::zeros(&[4]);
        let y = conv2d(&x, &w, &b, Conv2dCfg { stride: 1, pad: 1 });
        assert_eq!(y.shape(), &[2, 4, 5, 5]);
        // Centre pixels see the full 3x3x3 window of ones.
        assert_eq!(y.at(&[0, 0, 2, 2]), 27.0);
        // Corner pixels see a 2x2x3 window.
        assert_eq!(y.at(&[0, 0, 0, 0]), 12.0);
    }

    #[test]
    fn stride_two_downsamples() {
        let x = Tensor::ones(&[1, 1, 6, 6]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, Conv2dCfg { stride: 2, pad: 0 });
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
    }

    #[test]
    fn multi_channel_sums_over_input_channels() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2, 1, 1]).unwrap();
        let w = Tensor::from_vec(vec![10.0, 100.0], &[1, 2, 1, 1]).unwrap();
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, Conv2dCfg::default());
        assert_eq!(y.data(), &[210.0]);
    }

    #[test]
    fn backward_shapes() {
        let x = Tensor::ones(&[2, 3, 5, 5]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let b = Tensor::zeros(&[4]);
        let cfg = Conv2dCfg { stride: 2, pad: 1 };
        let y = conv2d(&x, &w, &b, cfg);
        let dy = Tensor::ones(y.shape());
        let g = conv2d_backward(&x, &w, &dy, cfg);
        assert_eq!(g.dx.shape(), x.shape());
        assert_eq!(g.dw.shape(), w.shape());
        assert_eq!(g.db.shape(), b.shape());
        // Bias gradient = number of output positions per filter.
        assert_eq!(g.db.data()[0], (2 * 3 * 3) as f32);
    }
}
