//! The GEMM core and the convolutions built on it against the scalar loops
//! they replaced, compared with `f32::to_bits` equality on pools of 1 and 4
//! threads, at every micro-kernel level this CPU supports.
//!
//! The `oracle` module below is the earlier kernel code, copied verbatim
//! (metering and shape assertions dropped): the row-blocked `A·B`, `Aᵀ·B`
//! and `A·Bᵀ` loops with the zero skip, `im2col`/`col2im`, and the
//! per-sample convolution forward and backward. Every output bit of the
//! current kernels must equal the oracle's on finite inputs, including
//! ReLU-sparse operands full of `+0` and `−0`; `0·∞` is the one documented
//! difference and is pinned at the bottom.

use std::sync::Mutex;

use wootz_core::compile::{ModeToUse, MultiplexingModel};
use wootz_nn::{NodeShape, Op};
use wootz_par::Pool;
use wootz_tensor::ops::{self, Conv2dCfg, KernelLevel};
use wootz_tensor::Tensor;

/// Held while a test forces kernel levels, which are process-wide: each
/// run then executes at the level it names.
static LEVELS: Mutex<()> = Mutex::new(());

/// The kernel code the GEMM core replaced, verbatim.
mod oracle {
    use wootz_tensor::ops::{conv2d_out_dim, Conv2dCfg};
    use wootz_tensor::Tensor;

    const ROW_BLOCK: usize = 4;

    pub fn matmul_slice(av: &[f32], bv: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), m * n);
        wootz_par::parallel_chunks_mut(out, ROW_BLOCK * n, |ci, rows| {
            let i0 = ci * ROW_BLOCK;
            for (di, orow) in rows.chunks_mut(n).enumerate() {
                let i = i0 + di;
                let arow = &av[i * k..(i + 1) * k];
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0.0 {
                        continue;
                    }
                    let brow = &bv[p * n..(p + 1) * n];
                    for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                        *o += aval * bval;
                    }
                }
            }
        });
    }

    pub fn matmul_tn_slice(av: &[f32], bv: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), m * n);
        wootz_par::parallel_chunks_mut(out, ROW_BLOCK * n, |ci, rows| {
            let i0 = ci * ROW_BLOCK;
            for (di, orow) in rows.chunks_mut(n).enumerate() {
                let i = i0 + di;
                for p in 0..k {
                    let aval = av[p * m + i];
                    if aval == 0.0 {
                        continue;
                    }
                    let brow = &bv[p * n..(p + 1) * n];
                    for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                        *o += aval * bval;
                    }
                }
            }
        });
    }

    pub fn matmul_nt_slice(av: &[f32], bv: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), m * n);
        wootz_par::parallel_chunks_mut(out, ROW_BLOCK * n, |ci, rows| {
            let i0 = ci * ROW_BLOCK;
            for (di, orow) in rows.chunks_mut(n).enumerate() {
                let i = i0 + di;
                let arow = &av[i * k..(i + 1) * k];
                for (j, o) in orow.iter_mut().enumerate() {
                    let brow = &bv[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    for (&x, &y) in arow.iter().zip(brow.iter()) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        });
    }

    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let mut out = vec![0.0f32; m * n];
        matmul_slice(a.data(), b.data(), m, k, n, &mut out);
        Tensor::from_vec(out, &[m, n]).expect("matmul output shape")
    }

    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.shape()[1], a.shape()[0], b.shape()[1]);
        let mut out = vec![0.0f32; m * n];
        matmul_tn_slice(a.data(), b.data(), m, k, n, &mut out);
        Tensor::from_vec(out, &[m, n]).expect("matmul_tn output shape")
    }

    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[0]);
        let mut out = vec![0.0f32; m * n];
        matmul_nt_slice(a.data(), b.data(), m, k, n, &mut out);
        Tensor::from_vec(out, &[m, n]).expect("matmul_nt output shape")
    }

    pub fn dense(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
        let n = x.shape()[0];
        let d_out = w.shape()[0];
        let mut y = matmul_nt(x, w);
        for i in 0..n {
            let row = &mut y.data_mut()[i * d_out..(i + 1) * d_out];
            for (v, &bv) in row.iter_mut().zip(b.data().iter()) {
                *v += bv;
            }
        }
        y
    }

    pub fn dense_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
        let n = x.shape()[0];
        let d_out = w.shape()[0];
        let dx = matmul(dy, w);
        let dw = matmul_tn(dy, x);
        let mut db = Tensor::zeros(&[d_out]);
        for i in 0..n {
            let row = &dy.data()[i * d_out..(i + 1) * d_out];
            for (acc, &g) in db.data_mut().iter_mut().zip(row.iter()) {
                *acc += g;
            }
        }
        (dx, dw, db)
    }

    fn im2col(
        x: &[f32],
        (c, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        cfg: Conv2dCfg,
    ) -> Tensor {
        let ho = conv2d_out_dim(h, kh, cfg.stride, cfg.pad);
        let wo = conv2d_out_dim(w, kw, cfg.stride, cfg.pad);
        let rows = c * kh * kw;
        let cols = ho * wo;
        let mut out = vec![0.0f32; rows * cols];
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    for oi in 0..ho {
                        let ii = (oi * cfg.stride + ki) as isize - cfg.pad as isize;
                        if ii < 0 || ii >= h as isize {
                            continue;
                        }
                        for oj in 0..wo {
                            let jj = (oj * cfg.stride + kj) as isize - cfg.pad as isize;
                            if jj < 0 || jj >= w as isize {
                                continue;
                            }
                            out[row * cols + oi * wo + oj] =
                                x[(ci * h + ii as usize) * w + jj as usize];
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[rows, cols]).expect("im2col shape")
    }

    fn col2im(
        col: &Tensor,
        (c, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        cfg: Conv2dCfg,
        out: &mut [f32],
    ) {
        let ho = conv2d_out_dim(h, kh, cfg.stride, cfg.pad);
        let wo = conv2d_out_dim(w, kw, cfg.stride, cfg.pad);
        let cols = ho * wo;
        let cv = col.data();
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    for oi in 0..ho {
                        let ii = (oi * cfg.stride + ki) as isize - cfg.pad as isize;
                        if ii < 0 || ii >= h as isize {
                            continue;
                        }
                        for oj in 0..wo {
                            let jj = (oj * cfg.stride + kj) as isize - cfg.pad as isize;
                            if jj < 0 || jj >= w as isize {
                                continue;
                            }
                            out[(ci * h + ii as usize) * w + jj as usize] +=
                                cv[row * cols + oi * wo + oj];
                        }
                    }
                }
            }
        }
    }

    pub fn conv2d(x: &Tensor, w: &Tensor, b: &Tensor, cfg: Conv2dCfg) -> Tensor {
        let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (f, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
        let ho = conv2d_out_dim(h, kh, cfg.stride, cfg.pad);
        let wo = conv2d_out_dim(wd, kw, cfg.stride, cfg.pad);
        let mut out = Tensor::zeros(&[n, f, ho, wo]);
        let w_mat = w.reshape(&[f, c * kh * kw]).expect("weight reshape");
        let bias = b.data();
        let sample = c * h * wd;
        let xv = x.data();
        wootz_par::parallel_chunks_mut(out.data_mut(), f * ho * wo, |ni, dst| {
            let col = im2col(
                &xv[ni * sample..(ni + 1) * sample],
                (c, h, wd),
                (kh, kw),
                cfg,
            );
            let y = matmul(&w_mat, &col); // [F, Ho*Wo]
            for fi in 0..f {
                let row = &y.data()[fi * ho * wo..(fi + 1) * ho * wo];
                let drow = &mut dst[fi * ho * wo..(fi + 1) * ho * wo];
                let bv = bias[fi];
                for (d, &v) in drow.iter_mut().zip(row.iter()) {
                    *d = v + bv;
                }
            }
        });
        out
    }

    pub fn conv2d_backward(
        x: &Tensor,
        w: &Tensor,
        dy: &Tensor,
        cfg: Conv2dCfg,
    ) -> (Tensor, Tensor, Tensor) {
        let (c, h, wd) = (x.shape()[1], x.shape()[2], x.shape()[3]);
        let (f, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
        let (ho, wo) = (dy.shape()[2], dy.shape()[3]);
        let mut dx = Tensor::zeros(x.shape());
        let mut dw = Tensor::zeros(w.shape());
        let mut db = Tensor::zeros(&[f]);
        let w_mat = w.reshape(&[f, c * kh * kw]).expect("weight reshape");
        let sample = c * h * wd;
        let osample = f * ho * wo;
        let xv = x.data();
        let dyv = dy.data();
        let partials: Vec<(Tensor, Vec<f32>)> =
            wootz_par::parallel_chunks_mut(dx.data_mut(), sample, |ni, dxs| {
                let col = im2col(
                    &xv[ni * sample..(ni + 1) * sample],
                    (c, h, wd),
                    (kh, kw),
                    cfg,
                );
                let dy_mat = Tensor::from_vec(
                    dyv[ni * osample..(ni + 1) * osample].to_vec(),
                    &[f, ho * wo],
                )
                .expect("dy reshape");
                let dw_n = matmul_nt(&dy_mat, &col);
                let db_n: Vec<f32> = (0..f)
                    .map(|fi| dy_mat.data()[fi * ho * wo..(fi + 1) * ho * wo].iter().sum())
                    .collect();
                let dcol = matmul_tn(&w_mat, &dy_mat);
                col2im(&dcol, (c, h, wd), (kh, kw), cfg, dxs);
                (dw_n, db_n)
            });
        for (dw_n, db_n) in &partials {
            for (d, &v) in dw.data_mut().iter_mut().zip(dw_n.data().iter()) {
                *d += v;
            }
            for (d, &v) in db.data_mut().iter_mut().zip(db_n.iter()) {
                *d += v;
            }
        }
        (dx, dw, db)
    }
}

/// Deterministic values in `(-1.7, 1.7)`; with `sparse`, about 60 % are
/// zeros — `+0` and `−0` in equal measure — as after a ReLU and its
/// backward.
fn fill(shape: &[usize], salt: usize, sparse: bool) -> Tensor {
    Tensor::from_fn(shape, |i| {
        let h = i
            .wrapping_mul(2654435761)
            .wrapping_add(salt.wrapping_mul(97))
            % 2003;
        let v = (h as f32 / 1001.5 - 1.0) * 1.7;
        match (sparse, h % 10) {
            (true, 0..=2) => 0.0,
            (true, 3..=5) => -0.0,
            _ => v,
        }
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A 1- and a 4-thread pool.
fn pools() -> [Pool; 2] {
    [Pool::new(1), Pool::new(4)]
}

/// Runs `f` at every kernel level this CPU supports, on each of `pools`,
/// and asserts every run gives `want`.
fn assert_pools_match(
    pools: &[Pool],
    what: &str,
    want: &[Vec<u32>],
    f: impl Fn() -> Vec<Vec<u32>>,
) {
    let _levels = LEVELS.lock().unwrap_or_else(|e| e.into_inner());
    for level in KernelLevel::supported() {
        ops::force_kernel_level(level).expect("a supported level");
        for pool in pools {
            let got = wootz_par::with_pool(pool, &f);
            let threads = pool.threads();
            assert!(
                got == want,
                "{what}: differs from the oracle at the {} level on {threads} thread(s)",
                level.name()
            );
        }
    }
}

/// `(m, k, n)` ragged against the 4 × 16 tile and the baseline's 4 × 8
/// half-panel tile, with `k = 1`, plus a seeded spread of larger shapes —
/// some above the parallel grain.
fn matmul_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for m in [1, 3, 4, 5, 9, 23] {
        for k in [1, 2, 7, 33] {
            for n in [1, 7, 8, 9, 16, 17, 40] {
                shapes.push((m, k, n));
            }
        }
    }
    let mut seed = 0x9e37_79b9_u64;
    for _ in 0..12 {
        let mut next = |lo: usize, hi: usize| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (seed >> 33) as usize % (hi - lo)
        };
        shapes.push((next(1, 70), next(1, 150), next(1, 300)));
    }
    shapes
}

#[test]
fn all_three_layouts_match_the_parent_loops_bit_for_bit() {
    let pools = pools();
    for (i, &(m, k, n)) in matmul_shapes().iter().enumerate() {
        for sparse in [false, true] {
            let what = format!("shape {m}x{k}x{n}, sparse {sparse}");
            // A·B directly.
            let (a, b) = (fill(&[m, k], i, sparse), fill(&[k, n], i + 1, sparse));
            let want = vec![bits(&oracle::matmul(&a, &b))];
            assert_pools_match(&pools, &format!("matmul {what}"), &want, || {
                vec![bits(&ops::matmul(&a, &b))]
            });
            // A·Bᵀ through the dense forward: x [m, k], w [n, k].
            let (x, w, bias) = (
                fill(&[m, k], i + 2, sparse),
                fill(&[n, k], i + 3, false),
                fill(&[n], i + 4, false),
            );
            let want = vec![bits(&oracle::dense(&x, &w, &bias))];
            assert_pools_match(&pools, &format!("dense {what}"), &want, || {
                vec![bits(&ops::dense(&x, &w, &bias))]
            });
            // Aᵀ·B (dW, an m x k x n product) and A·B (dx) through the dense
            // backward: x [k, n], w [m, n], dy [k, m].
            let (x, w, dy) = (
                fill(&[k, n], i + 5, sparse),
                fill(&[m, n], i + 6, false),
                fill(&[k, m], i + 7, sparse),
            );
            let (dx, dw, db) = oracle::dense_backward(&x, &w, &dy);
            let want = vec![bits(&dx), bits(&dw), bits(&db)];
            assert_pools_match(&pools, &format!("dense_backward {what}"), &want, || {
                let g = ops::dense_backward(&x, &w, &dy);
                vec![bits(&g.dx), bits(&g.dw), bits(&g.db)]
            });
        }
    }
}

/// `(C, H, W, F, K, cfg)` of every convolution in the full (unpruned)
/// builds of the mini models, plus the lowering special cases.
fn conv_shapes() -> Vec<(usize, usize, usize, usize, usize, Conv2dCfg)> {
    let mut shapes = Vec::new();
    for model in [
        wootz_models::resnet_mini(8),
        wootz_models::resnet_mini_deep(8),
        wootz_models::inception_mini(8),
    ] {
        let mm = MultiplexingModel::compile(model).expect("mini model compiles");
        let built = mm
            .build(&ModeToUse::Original, 1)
            .expect("mini model builds");
        for node in built.graph.nodes() {
            let Op::Conv2d { weight, cfg, .. } = &node.op else {
                continue;
            };
            let NodeShape::Chw(c, h, w) = built.graph.shape(node.inputs[0]) else {
                panic!("conv `{}` input is not [C, H, W]", node.name);
            };
            let ws = built
                .vars
                .value(weight)
                .expect("conv weight")
                .shape()
                .to_vec();
            assert_eq!(ws[2], ws[3], "square kernels only");
            shapes.push((c, h, w, ws[0], ws[2], *cfg));
        }
    }
    let s1 = Conv2dCfg { stride: 1, pad: 0 };
    let s2 = Conv2dCfg { stride: 2, pad: 0 };
    let s2p1 = Conv2dCfg { stride: 2, pad: 1 };
    shapes.extend([
        (5, 7, 9, 3, 1, s1),                              // 1x1 stride 1: the direct path
        (5, 7, 9, 6, 1, s2),                              // 1x1 stride 2: lowered
        (3, 9, 8, 5, 3, s2p1),                            // 3x3 pad 1 stride 2, odd extent
        (2, 3, 3, 9, 3, Conv2dCfg { stride: 1, pad: 2 }), // windows wider than the image
    ]);
    shapes.sort_by_key(|&(c, h, w, f, k, cfg)| (c, h, w, f, k, cfg.stride, cfg.pad));
    shapes.dedup();
    shapes
}

#[test]
fn convolutions_of_the_mini_models_match_the_parent_loops_bit_for_bit() {
    let pools = pools();
    let shapes = conv_shapes();
    assert!(
        shapes.len() >= 20,
        "expected every mini-model conv shape, got {shapes:?}"
    );
    for (i, &(c, h, wd, f, k, cfg)) in shapes.iter().enumerate() {
        for batch in [1, 8] {
            let what = format!("conv {c}x{h}x{wd} -> {f} k{k} {cfg:?} batch {batch}");
            let x = fill(&[batch, c, h, wd], i, true);
            let w = fill(&[f, c, k, k], i + 1, false);
            let b = fill(&[f], i + 2, false);
            let y = oracle::conv2d(&x, &w, &b, cfg);
            let dy = fill(y.shape(), i + 3, true);
            let (dx, dw, db) = oracle::conv2d_backward(&x, &w, &dy, cfg);
            let want = vec![bits(&y), bits(&dx), bits(&dw), bits(&db)];
            assert_pools_match(&pools, &what, &want, || {
                let y = ops::conv2d(&x, &w, &b, cfg);
                let g = ops::conv2d_backward(&x, &w, &dy, cfg);
                vec![bits(&y), bits(&g.dx), bits(&g.dw), bits(&g.db)]
            });
            // Without dx the parameter gradients are the same bits.
            let (mut dw_only, mut db_only) = (Tensor::zeros(w.shape()), Tensor::zeros(&[f]));
            ops::conv2d_backward_into(&x, &w, &dy, cfg, None, &mut dw_only, &mut db_only);
            assert_eq!(
                (bits(&dw_only), bits(&db_only)),
                (bits(&dw), bits(&db)),
                "{what}"
            );
        }
    }
}

#[test]
fn zero_times_infinity_is_nan_where_the_old_zero_skip_gave_a_number() {
    // A row [0, 1] against B = [[∞, NaN, 1], [2, 3, 4]].
    let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
    let b = Tensor::from_vec(vec![f32::INFINITY, f32::NAN, 1.0, 2.0, 3.0, 4.0], &[2, 3]).unwrap();
    let old = oracle::matmul(&a, &b);
    let new = ops::matmul(&a, &b);
    // The skip made 0·∞ and 0·NaN contribute nothing.
    assert_eq!(old.data(), &[2.0, 3.0, 4.0]);
    // Every product is formed now: IEEE 0·∞ = 0·NaN = NaN poisons the sum.
    assert!(new.data()[0].is_nan() && new.data()[1].is_nan());
    assert_eq!(new.data()[2], 4.0);
    // A NaN or ∞ in A is not skipped by either.
    let a = Tensor::from_vec(vec![f32::NAN, f32::INFINITY], &[1, 2]).unwrap();
    let b = Tensor::from_vec(vec![1.0, 1.0], &[2, 1]).unwrap();
    assert!(ops::matmul(&a, &b).data()[0].is_nan());
    assert!(oracle::matmul(&a, &b).data()[0].is_nan());
}
