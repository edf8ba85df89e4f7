//! Elementwise activations.

use crate::Tensor;

/// Rectified linear unit: `max(0, x)`.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Arena-friendly [`relu`]: writes `max(0, x)` into `out` (full overwrite).
/// Same per-element expression as [`relu`], so results are bit-identical.
///
/// # Panics
///
/// Panics when `x` and `out` have different shapes.
pub fn relu_into(x: &Tensor, out: &mut Tensor) {
    assert_eq!(x.shape(), out.shape(), "relu_into: x and out shapes");
    for (o, &v) in out.data_mut().iter_mut().zip(x.data().iter()) {
        *o = v.max(0.0);
    }
}

/// Backward of [`relu`]: passes gradient where the forward input was
/// positive.
///
/// # Panics
///
/// Panics when `x` and `dy` have different shapes.
pub fn relu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    x.zip(dy, |xv, g| if xv > 0.0 { g } else { 0.0 })
        .expect("relu_backward: x and dy must share a shape")
}

/// Arena-friendly [`relu_backward`]: writes the masked gradient into `out`
/// (full overwrite). Bit-identical to [`relu_backward`].
///
/// # Panics
///
/// Panics when the three tensors do not share a shape.
pub fn relu_backward_into(x: &Tensor, dy: &Tensor, out: &mut Tensor) {
    assert_eq!(x.shape(), dy.shape(), "relu_backward_into: x and dy shapes");
    assert_eq!(
        x.shape(),
        out.shape(),
        "relu_backward_into: x and out shapes"
    );
    for ((o, &xv), &g) in out
        .data_mut()
        .iter_mut()
        .zip(x.data().iter())
        .zip(dy.data().iter())
    {
        *o = if xv > 0.0 { g } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.5], &[3]).unwrap();
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.5]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.5], &[3]).unwrap();
        let dy = Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]).unwrap();
        assert_eq!(relu_backward(&x, &dy).data(), &[0.0, 0.0, 10.0]);
    }
}
