//! Fully-connected (inner-product) layer.

use crate::ops::matmul::{gemm, MatRef};
use crate::ops::metering;
use crate::Tensor;

/// Gradients produced by [`dense_backward`].
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// Gradient w.r.t. the input `[N, In]`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weights `[Out, In]`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias `[Out]`.
    pub db: Tensor,
}

/// Fully-connected forward: `y = x · Wᵀ + b`.
///
/// * `x` — `[N, In]`
/// * `w` — `[Out, In]` (Caffe/TF-Slim weight convention)
/// * `b` — `[Out]`
///
/// # Panics
///
/// Panics when shapes disagree; graphs are validated before execution.
pub fn dense(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let mut y = Tensor::zeros(&[x.shape()[0], w.shape()[0]]);
    dense_into(x, w, b, &mut y);
    y
}

/// Arena-friendly [`dense`]: writes `x · Wᵀ + b` into `out`, a `[N, Out]`
/// tensor (full overwrite). [`dense`] runs this body, so both are
/// bit-identical.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn dense_into(x: &Tensor, w: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(
        x.shape().len(),
        2,
        "dense input must be [N, In], got {:?}",
        x.shape()
    );
    assert_eq!(
        w.shape().len(),
        2,
        "dense weight must be [Out, In], got {:?}",
        w.shape()
    );
    let (n, d_in) = (x.shape()[0], x.shape()[1]);
    let (d_out, d_in2) = (w.shape()[0], w.shape()[1]);
    assert_eq!(
        d_in, d_in2,
        "dense: input width {d_in} != weight width {d_in2}"
    );
    assert_eq!(b.shape(), &[d_out], "dense bias shape");
    assert_eq!(out.shape(), &[n, d_out], "dense_into: output shape");
    // One [N, In] x [In, Out] matmul plus the bias adds.
    metering::dense_calls().incr();
    metering::dense_flops().add(metering::matmul_flops(n, d_in, d_out) + (n * d_out) as u64);
    gemm(
        MatRef::rows(x.data(), d_in),
        MatRef::rows(w.data(), d_in).t(),
        n,
        d_in,
        d_out,
        out.data_mut(),
    );
    for row in out.data_mut().chunks_exact_mut(d_out) {
        for (v, &bv) in row.iter_mut().zip(b.data()) {
            *v += bv;
        }
    }
}

/// Backward of [`dense`].
pub fn dense_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> DenseGrads {
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(w.shape());
    let mut db = Tensor::zeros(&[w.shape()[0]]);
    dense_backward_into(x, w, dy, Some(&mut dx), &mut dw, &mut db);
    DenseGrads { dx, dw, db }
}

/// Arena-friendly [`dense_backward`]: writes the gradients into
/// caller-provided tensors (full overwrite) — `dx` (`[N, In]`) only when
/// asked for, `dw` (`[Out, In]`) and `db` (`[Out]`) always. Skipping `dx`
/// skips its matmul, and the FLOP meter counts only the matmuls that ran.
/// [`dense_backward`] runs this body, so both are bit-identical.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn dense_backward_into(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    dx: Option<&mut Tensor>,
    dw: &mut Tensor,
    db: &mut Tensor,
) {
    let (n, d_in) = (x.shape()[0], x.shape()[1]);
    let d_out = w.shape()[0];
    assert_eq!(dy.shape(), &[n, d_out], "dense_backward dy shape");
    assert_eq!(dw.shape(), w.shape(), "dense_backward_into dw shape");
    assert_eq!(db.shape(), &[d_out], "dense_backward_into db shape");
    // One matmul each for dW and (when asked for) dx, of the forward shape,
    // plus the db column sums.
    let matmuls = 1 + dx.is_some() as u64;
    metering::dense_backward_flops()
        .add(matmuls * metering::matmul_flops(n, d_in, d_out) + (n * d_out) as u64);
    let dy_rows = MatRef::rows(dy.data(), d_out);
    if let Some(dx) = dx {
        assert_eq!(dx.shape(), x.shape(), "dense_backward_into dx shape");
        // dx = dY · W        [N, In]
        gemm(
            dy_rows,
            MatRef::rows(w.data(), d_in),
            n,
            d_out,
            d_in,
            dx.data_mut(),
        );
    }
    // dW = dYᵀ · X       [Out, In]
    gemm(
        dy_rows.t(),
        MatRef::rows(x.data(), d_in),
        d_out,
        n,
        d_in,
        dw.data_mut(),
    );
    // db = column sums of dY.
    db.fill_zero();
    for row in dy.data().chunks_exact(d_out) {
        for (acc, &g) in db.data_mut().iter_mut().zip(row) {
            *acc += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_hand_computation() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        let w = Tensor::from_vec(vec![1., 0., 0., 1., 1., 1.], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5, 0.0], &[3]).unwrap();
        let y = dense(&x, &w, &b);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.data(), &[1.5, 1.5, 3.0, 3.5, 3.5, 7.0]);
    }

    #[test]
    fn backward_shapes_and_bias() {
        let x = Tensor::ones(&[4, 3]);
        let w = Tensor::ones(&[2, 3]);
        let dy = Tensor::ones(&[4, 2]);
        let g = dense_backward(&x, &w, &dy);
        assert_eq!(g.dx.shape(), &[4, 3]);
        assert_eq!(g.dw.shape(), &[2, 3]);
        assert_eq!(g.db.data(), &[4.0, 4.0]);
        // Every dx element sums the two output weights.
        assert!(g.dx.data().iter().all(|&v| v == 2.0));
        // Every dW element sums over the batch of ones.
        assert!(g.dw.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn outputs_are_overwritten_and_dx_is_optional() {
        let x = Tensor::from_fn(&[5, 3], |i| i as f32 * 0.5 - 2.0);
        let w = Tensor::from_fn(&[4, 3], |i| 1.0 - i as f32 * 0.25);
        let dy = Tensor::from_fn(&[5, 4], |i| (i % 3) as f32 - 1.0);
        let want = dense_backward(&x, &w, &dy);
        let (mut dw, mut db) = (Tensor::filled(&[4, 3], 9.0), Tensor::filled(&[4], 9.0));
        dense_backward_into(&x, &w, &dy, None, &mut dw, &mut db);
        assert_eq!((dw, db), (want.dw, want.db));
        let mut y = Tensor::filled(&[5, 4], 9.0);
        dense_into(&x, &w, &Tensor::zeros(&[4]), &mut y);
        assert_eq!(y, dense(&x, &w, &Tensor::zeros(&[4])));
    }
}
