//! Loss functions: softmax cross-entropy (classification fine-tuning) and
//! mean-squared error (the Teacher–Student activation-map reconstruction
//! objective of Wootz block pre-training).

use crate::Tensor;

/// Result of the fused softmax + cross-entropy forward pass.
#[derive(Debug, Clone)]
pub struct SoftmaxCeOutput {
    /// Mean cross-entropy loss over the batch.
    pub loss: f32,
    /// Softmax probabilities `[N, K]` (useful for accuracy computation).
    pub probs: Tensor,
    /// Gradient of the mean loss w.r.t. the logits: `(p − 1{y}) / N`.
    pub dlogits: Tensor,
}

/// Numerically-stable fused softmax cross-entropy, per-sample parallel on
/// the `wootz-par` pool (disjoint `[K]` rows; loss terms summed in sample
/// order, so the result is bit-identical for any thread count).
///
/// * `logits` — `[N, K]`
/// * `labels` — class index per sample, `len == N`
///
/// # Panics
///
/// Panics when `logits` is not rank 2, label count differs from the batch
/// size, or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> SoftmaxCeOutput {
    assert_eq!(
        logits.shape().len(),
        2,
        "softmax_cross_entropy expects [N, K] logits"
    );
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    let mut probs = Tensor::zeros(&[n, k]);
    let mut dlogits = Tensor::zeros(&[n, k]);
    let loss = softmax_cross_entropy_into(logits, labels, &mut probs, &mut dlogits);
    SoftmaxCeOutput {
        loss,
        probs,
        dlogits,
    }
}

/// Arena-friendly [`softmax_cross_entropy`]: writes the probabilities and
/// logit gradients into caller-provided `[N, K]` tensors (full overwrite)
/// and returns the mean loss. The allocating wrapper runs this body, so
/// planned and interpreted executions are bit-identical.
///
/// # Panics
///
/// Panics on the same conditions as [`softmax_cross_entropy`] plus
/// output-shape mismatches.
pub fn softmax_cross_entropy_into(
    logits: &Tensor,
    labels: &[usize],
    probs: &mut Tensor,
    dlogits: &mut Tensor,
) -> f32 {
    assert_eq!(
        logits.shape().len(),
        2,
        "softmax_cross_entropy expects [N, K] logits"
    );
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(
        labels.len(),
        n,
        "softmax_cross_entropy: {n} samples, {} labels",
        labels.len()
    );
    assert_eq!(probs.shape(), &[n, k], "softmax_cross_entropy probs shape");
    assert_eq!(
        dlogits.shape(),
        &[n, k],
        "softmax_cross_entropy dlogits shape"
    );
    // One pool task per sample (inline below the grain): each writes only
    // its own [K] rows, and the per-sample loss terms come back in sample
    // order so the summation below matches the sequential loop's
    // accumulation order bit-for-bit. Work: about five operations per logit
    // (max, subtract, exp, sum, divide), then two per gradient.
    let elems = (n * k) as u64;
    let logit_data = logits.data();
    let prob_rows = probs.data_mut();
    let loss_terms = wootz_par::parallel_chunks_mut_grained(prob_rows, k, 5 * elems, |i, prow| {
        let label = labels[i];
        assert!(label < k, "label {label} out of range for {k} classes");
        let row = &logit_data[i * k..(i + 1) * k];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (p, &v) in prow.iter_mut().zip(row.iter()) {
            *p = (v - max).exp();
        }
        let z: f32 = prow.iter().sum();
        for p in prow.iter_mut() {
            *p /= z;
        }
        -(prow[label].max(1e-12)).ln()
    });
    let prob_data = probs.data();
    wootz_par::parallel_chunks_mut_grained(dlogits.data_mut(), k, 2 * elems, |i, drow| {
        let label = labels[i];
        let prow = &prob_data[i * k..(i + 1) * k];
        for (j, (d, &p)) in drow.iter_mut().zip(prow.iter()).enumerate() {
            *d = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    });
    let loss: f32 = loss_terms.iter().sum();
    loss / n as f32
}

/// Mean-squared-error loss `mean((a − b)²)` between two same-shaped tensors.
///
/// This is the reconstruction error `‖O − O′‖²` (normalized by element count)
/// that Wootz minimizes when pre-training a pruned tuning block against its
/// unpruned counterpart's activation maps.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn mse_loss(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "mse_loss shapes differ");
    if a.is_empty() {
        return 0.0;
    }
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f32>()
        / a.len() as f32
}

/// Gradient of [`mse_loss`] with respect to `a`: `2·(a − b) / len`.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn mse_loss_backward(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "mse_loss_backward shapes differ");
    let scale = 2.0 / a.len().max(1) as f32;
    a.zip(b, |x, y| scale * (x - y))
        .expect("shapes checked above")
}

/// Arena-friendly [`mse_loss_backward`]: writes `2·(a − b)/len` into `out`
/// (full overwrite). Same per-element expression as the allocating wrapper.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn mse_loss_backward_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape(), "mse_loss_backward shapes differ");
    assert_eq!(a.shape(), out.shape(), "mse_loss_backward out shape");
    let scale = 2.0 / a.len().max(1) as f32;
    for ((o, &x), &y) in out
        .data_mut()
        .iter_mut()
        .zip(a.data().iter())
        .zip(b.data().iter())
    {
        *o = scale * (x - y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let logits = Tensor::zeros(&[2, 4]);
        let out = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
        assert!(out.probs.data().iter().all(|&p| (p - 0.25).abs() < 1e-6));
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let logits = Tensor::from_vec(vec![10.0, 0.0, 0.0], &[1, 3]).unwrap();
        let out = softmax_cross_entropy(&logits, &[0]);
        assert!(out.loss < 1e-3, "loss={}", out.loss);
    }

    #[test]
    fn dlogits_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let out = softmax_cross_entropy(&logits, &[2, 0]);
        for i in 0..2 {
            let s: f32 = out.dlogits.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn shifted_logits_are_stable() {
        let a = softmax_cross_entropy(&Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap(), &[1]);
        let b = softmax_cross_entropy(
            &Tensor::from_vec(vec![1001.0, 1002.0], &[1, 2]).unwrap(),
            &[1],
        );
        assert!((a.loss - b.loss).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_labels() {
        softmax_cross_entropy(&Tensor::zeros(&[1, 2]), &[5]);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 4.0], &[2]).unwrap();
        assert!((mse_loss(&a, &b) - 2.5).abs() < 1e-6);
        let g = mse_loss_backward(&a, &b);
        assert_eq!(g.data(), &[1.0, -2.0]);
    }

    #[test]
    fn mse_of_identical_tensors_is_zero() {
        let a = Tensor::ones(&[3, 3]);
        assert_eq!(mse_loss(&a, &a), 0.0);
        assert!(mse_loss_backward(&a, &a).data().iter().all(|&v| v == 0.0));
    }
}
