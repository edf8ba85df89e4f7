//! The reference interpreter: forward pass with cached intermediates and
//! reverse-mode backward pass accumulating parameter gradients into the
//! [`VarStore`]. Drivers run the planned executor ([`crate::plan`]); this one
//! defines what it must compute, bit for bit.

use wootz_tensor::ops;
use wootz_tensor::Tensor;

use crate::graph::{Graph, NodeId, Op};
use crate::var::VarStore;
use crate::{NnError, Result};

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Batch-norm uses batch statistics and updates running statistics.
    Train,
    /// Batch-norm uses the stored running statistics.
    Eval,
}

/// Momentum for the batch-norm running-statistics update, matching TF-Slim's
/// default behaviour closely enough for micro-scale experiments.
pub(crate) const BN_MOMENTUM: f32 = 0.9;

/// Per-node cached forward state consumed by the backward pass.
///
/// Deliberately *not* `Clone`: a pass is tied to one batch and is meant to be
/// borrowed, not duplicated (cloning it would copy every retained activation).
#[derive(Debug, Default)]
struct NodeCache {
    bn: Option<ops::BnCache>,
    argmax: Option<Vec<usize>>,
}

/// The result of a forward pass: every node's activation plus the caches
/// needed to run a backward pass over the same batch.
///
/// Deliberately *not* `Clone` — see `NodeCache` above. Call sites borrow
/// the pass; the planned executor (`crate::plan`) avoids materializing one
/// at all.
#[derive(Debug)]
pub struct ForwardPass {
    activations: Vec<Tensor>,
    caches: Vec<NodeCache>,
}

impl ForwardPass {
    /// The activation produced by a node.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn activation(&self, id: NodeId) -> &Tensor {
        &self.activations[id]
    }

    /// Bytes retained by this pass until it is dropped: every activation
    /// plus the batch-norm caches and max-pool argmax indices. This is what
    /// the interpreter holds live between forward and backward — the number
    /// the planned executor's arena peak is compared against in
    /// `wootz-core`'s `tests/memory.rs`.
    pub fn retained_bytes(&self) -> usize {
        let acts: usize = self.activations.iter().map(|t| 4 * t.len()).sum();
        let caches: usize = self
            .caches
            .iter()
            .map(|c| {
                let bn =
                    c.bn.as_ref()
                        .map(|b| 4 * (b.mean.len() + b.var.len() + b.x_hat.len()))
                        .unwrap_or(0);
                let arg = c
                    .argmax
                    .as_ref()
                    .map(|a| std::mem::size_of::<usize>() * a.len())
                    .unwrap_or(0);
                bn + arg
            })
            .sum();
        acts + caches
    }
}

/// Bumps the interpreter allocation counters: one tensor of `elems` f32
/// scalars was freshly allocated by the reference (non-planned) executor.
/// The planned executor's analogue is the arena's `fresh` counter.
fn note_interp_alloc(elems: usize) {
    use std::sync::OnceLock;
    use wootz_obs::Counter;
    static ALLOCS: OnceLock<Counter> = OnceLock::new();
    static BYTES: OnceLock<Counter> = OnceLock::new();
    ALLOCS
        .get_or_init(|| wootz_obs::counter("exec.interp.allocs"))
        .incr();
    BYTES
        .get_or_init(|| wootz_obs::counter("exec.interp.bytes"))
        .add(4 * elems as u64);
}

/// How a forward pass reads (and, in train mode, updates) variables.
///
/// [`Mode::Train`] needs `&mut VarStore` to fold the batch statistics into
/// the batch-norm running mean/variance; [`Mode::Eval`] only ever *reads*
/// variables, which is what lets [`forward_eval`] take `&VarStore` and the
/// trainer shard an evaluation batch across the `wootz-par` pool (shared
/// immutable store, disjoint per-shard activations).
pub(crate) trait VarAccess {
    /// Current value of a variable.
    fn value(&self, name: &str) -> Result<&Tensor>;
    /// Folds fresh batch statistics into the running mean/variance with
    /// momentum [`BN_MOMENTUM`]. Only reachable in [`Mode::Train`].
    fn update_bn_stats(
        &mut self,
        mean: &str,
        var: &str,
        batch_mean: &Tensor,
        batch_var: &Tensor,
    ) -> Result<()>;
}

/// Mutable access used by [`Mode::Train`].
pub(crate) struct TrainAccess<'a>(pub(crate) &'a mut VarStore);

impl VarAccess for TrainAccess<'_> {
    fn value(&self, name: &str) -> Result<&Tensor> {
        self.0.value(name)
    }

    fn update_bn_stats(
        &mut self,
        mean: &str,
        var: &str,
        batch_mean: &Tensor,
        batch_var: &Tensor,
    ) -> Result<()> {
        // In-place momentum fold: `m ← 0.9·m + 0.1·batch`, computed exactly
        // as `m *= 0.9; m += 0.1·batch` — the same two float ops per element
        // as the historical scale + axpy + assign, without the temporaries.
        for (name, batch) in [(mean, batch_mean), (var, batch_var)] {
            let p = self.0.param_mut(name)?;
            if p.value.shape() != batch.shape() {
                return Err(NnError::Graph(format!(
                    "bn stats `{name}`: batch shape {:?} != stored {:?}",
                    batch.shape(),
                    p.value.shape()
                )));
            }
            for (m, &b) in p.value.data_mut().iter_mut().zip(batch.data().iter()) {
                *m *= BN_MOMENTUM;
                *m += (1.0 - BN_MOMENTUM) * b;
            }
        }
        Ok(())
    }
}

/// Shared read-only access used by [`Mode::Eval`] / [`forward_eval`].
pub(crate) struct EvalAccess<'a>(pub(crate) &'a VarStore);

impl VarAccess for EvalAccess<'_> {
    fn value(&self, name: &str) -> Result<&Tensor> {
        self.0.value(name)
    }

    fn update_bn_stats(
        &mut self,
        _mean: &str,
        _var: &str,
        _batch_mean: &Tensor,
        _batch_var: &Tensor,
    ) -> Result<()> {
        Err(NnError::Graph(
            "batch-norm statistics update attempted in eval mode".to_string(),
        ))
    }
}

/// Runs the graph forward on the given named inputs.
///
/// `inputs` maps input-node names to batch tensors `[N, C, H, W]`. `vars` is
/// mutable because [`Mode::Train`] updates batch-norm running statistics;
/// use [`forward_eval`] when you only have (or want to share) `&VarStore`.
///
/// # Errors
///
/// Returns [`NnError`] when an input is missing or has the wrong per-sample
/// shape, or a referenced variable is absent.
pub fn forward(
    graph: &Graph,
    vars: &mut VarStore,
    inputs: &[(&str, &Tensor)],
    mode: Mode,
) -> Result<ForwardPass> {
    match mode {
        Mode::Train => forward_impl(graph, &mut TrainAccess(vars), inputs, mode),
        Mode::Eval => forward_eval(graph, vars, inputs),
    }
}

/// Runs the graph forward in [`Mode::Eval`] against a *shared* variable
/// store.
///
/// Evaluation never mutates variables (batch-norm uses the stored running
/// statistics), so this borrows `vars` immutably — which is what allows
/// several evaluation shards to run concurrently on the `wootz-par` pool
/// (see `evaluate_accuracy` in the trainer).
///
/// # Errors
///
/// As for [`forward`].
pub fn forward_eval(
    graph: &Graph,
    vars: &VarStore,
    inputs: &[(&str, &Tensor)],
) -> Result<ForwardPass> {
    forward_impl(graph, &mut EvalAccess(vars), inputs, Mode::Eval)
}

fn forward_impl<V: VarAccess>(
    graph: &Graph,
    vars: &mut V,
    inputs: &[(&str, &Tensor)],
    mode: Mode,
) -> Result<ForwardPass> {
    let mut activations: Vec<Tensor> = Vec::with_capacity(graph.len());
    let mut caches: Vec<NodeCache> = Vec::with_capacity(graph.len());
    for (id, node) in graph.nodes().iter().enumerate() {
        let mut cache = NodeCache::default();
        let out = match &node.op {
            Op::Input => {
                let t = inputs
                    .iter()
                    .find(|(n, _)| *n == node.name)
                    .map(|(_, t)| (*t).clone())
                    .ok_or_else(|| NnError::Graph(format!("missing input `{}`", node.name)))?;
                if t.shape().len() != 4 {
                    return Err(NnError::Graph(format!(
                        "input `{}` must be [N,C,H,W], got {:?}",
                        node.name,
                        t.shape()
                    )));
                }
                let expect = graph.shape(id);
                let got = (t.shape()[1], t.shape()[2], t.shape()[3]);
                if expect.channels().ok() != Some(got.0)
                    || matches!(expect, crate::graph::NodeShape::Chw(_, h, w) if (h, w) != (got.1, got.2))
                {
                    return Err(NnError::Graph(format!(
                        "input `{}`: batch shape {:?} does not match declared {:?}",
                        node.name,
                        t.shape(),
                        expect
                    )));
                }
                t
            }
            Op::Conv2d { weight, bias, cfg } => {
                let x = &activations[node.inputs[0]];
                ops::conv2d(x, vars.value(weight)?, vars.value(bias)?, *cfg)
            }
            Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                eps,
            } => {
                let x = &activations[node.inputs[0]];
                let (y, bn_cache) = match mode {
                    Mode::Train => {
                        let (y, c) =
                            ops::batch_norm(x, vars.value(gamma)?, vars.value(beta)?, *eps, None);
                        // Fold the batch statistics into the running stats.
                        vars.update_bn_stats(mean, var, &c.mean, &c.var)?;
                        (y, c)
                    }
                    Mode::Eval => {
                        let m = vars.value(mean)?.clone();
                        let v = vars.value(var)?.clone();
                        ops::batch_norm(
                            x,
                            vars.value(gamma)?,
                            vars.value(beta)?,
                            *eps,
                            Some((&m, &v)),
                        )
                    }
                };
                cache.bn = Some(bn_cache);
                y
            }
            Op::Relu => ops::relu(&activations[node.inputs[0]]),
            Op::MaxPool(cfg) => {
                let (y, arg) = ops::max_pool2d(&activations[node.inputs[0]], *cfg);
                cache.argmax = Some(arg);
                y
            }
            Op::AvgPool(cfg) => ops::avg_pool2d(&activations[node.inputs[0]], *cfg),
            Op::GlobalAvgPool => ops::global_avg_pool(&activations[node.inputs[0]]),
            Op::Flatten => {
                let x = &activations[node.inputs[0]];
                let n = x.shape()[0];
                let d: usize = x.shape()[1..].iter().product();
                x.reshape(&[n, d])?
            }
            Op::Dense { weight, bias } => ops::dense(
                &activations[node.inputs[0]],
                vars.value(weight)?,
                vars.value(bias)?,
            ),
            Op::Add => {
                let parts: Vec<&Tensor> = node.inputs.iter().map(|&i| &activations[i]).collect();
                ops::add_n(&parts)?
            }
            Op::Concat => {
                let parts: Vec<&Tensor> = node.inputs.iter().map(|&i| &activations[i]).collect();
                Tensor::concat_axis1(&parts)?
            }
            Op::StopGradient => activations[node.inputs[0]].clone(),
        };
        // Reference-executor allocation accounting: one fresh tensor per
        // node output, plus the batch-norm cache tensors when present.
        note_interp_alloc(out.len());
        if let Some(bn) = &cache.bn {
            note_interp_alloc(bn.mean.len());
            note_interp_alloc(bn.var.len());
            note_interp_alloc(bn.x_hat.len());
        }
        activations.push(out);
        caches.push(cache);
    }
    Ok(ForwardPass {
        activations,
        caches,
    })
}

/// Runs reverse-mode backpropagation.
///
/// `seeds` supplies the gradient of the scalar loss with respect to chosen
/// node outputs — typically `dlogits` from the classifier loss, or one MSE
/// gradient per pruned tuning block in the Teacher–Student pre-training
/// structure (multiple seeds are summed where paths meet). Parameter
/// gradients are *accumulated* into `vars` (call [`zero_grads`] first for a
/// fresh step).
///
/// # Errors
///
/// Returns [`NnError`] on seed/activation shape mismatches or missing
/// variables.
pub fn backward(
    graph: &Graph,
    vars: &mut VarStore,
    pass: &ForwardPass,
    seeds: &[(NodeId, Tensor)],
) -> Result<()> {
    let mut grads: Vec<Option<Tensor>> = vec![None; graph.len()];
    for (id, g) in seeds {
        if *id >= graph.len() {
            return Err(NnError::Graph(format!(
                "backward seed references unknown node {id}"
            )));
        }
        if g.shape() != pass.activations[*id].shape() {
            return Err(NnError::Graph(format!(
                "backward seed for `{}`: shape {:?} != activation {:?}",
                graph.node(*id).name,
                g.shape(),
                pass.activations[*id].shape()
            )));
        }
        match &mut grads[*id] {
            Some(acc) => acc.axpy(1.0, g)?,
            slot => {
                note_interp_alloc(g.len());
                *slot = Some(g.clone());
            }
        }
    }

    let accumulate = |grads: &mut Vec<Option<Tensor>>, id: NodeId, g: Tensor| -> Result<()> {
        // `g` was freshly allocated by the producing op (or is a clone made
        // at the call site); count it against the reference executor.
        note_interp_alloc(g.len());
        match &mut grads[id] {
            Some(acc) => acc.axpy(1.0, &g)?,
            slot => *slot = Some(g),
        }
        Ok(())
    };

    for id in (0..graph.len()).rev() {
        let Some(dy) = grads[id].take() else { continue };
        let node = graph.node(id);
        match &node.op {
            Op::Input => {}
            Op::Conv2d { weight, bias, cfg } => {
                let x = &pass.activations[node.inputs[0]];
                let g = ops::conv2d_backward(x, vars.value(weight)?, &dy, *cfg);
                note_interp_alloc(g.dw.len());
                note_interp_alloc(g.db.len());
                vars.accumulate_grad(weight, &g.dw)?;
                vars.accumulate_grad(bias, &g.db)?;
                accumulate(&mut grads, node.inputs[0], g.dx)?;
            }
            Op::BatchNorm { gamma, beta, .. } => {
                let cache = pass.caches[id]
                    .bn
                    .as_ref()
                    .ok_or_else(|| NnError::Graph(format!("bn `{}` missing cache", node.name)))?;
                let (dx, dgamma, dbeta) = ops::batch_norm_backward(&dy, vars.value(gamma)?, cache);
                note_interp_alloc(dgamma.len());
                note_interp_alloc(dbeta.len());
                vars.accumulate_grad(gamma, &dgamma)?;
                vars.accumulate_grad(beta, &dbeta)?;
                accumulate(&mut grads, node.inputs[0], dx)?;
            }
            Op::Relu => {
                let x = &pass.activations[node.inputs[0]];
                accumulate(&mut grads, node.inputs[0], ops::relu_backward(x, &dy))?;
            }
            Op::MaxPool(_) => {
                let arg = pass.caches[id].argmax.as_ref().ok_or_else(|| {
                    NnError::Graph(format!("max_pool `{}` missing cache", node.name))
                })?;
                let x_shape = pass.activations[node.inputs[0]].shape();
                accumulate(
                    &mut grads,
                    node.inputs[0],
                    ops::max_pool2d_backward(x_shape, arg, &dy),
                )?;
            }
            Op::AvgPool(cfg) => {
                let x_shape = pass.activations[node.inputs[0]].shape();
                accumulate(
                    &mut grads,
                    node.inputs[0],
                    ops::avg_pool2d_backward(x_shape, &dy, *cfg),
                )?;
            }
            Op::GlobalAvgPool => {
                let x_shape = pass.activations[node.inputs[0]].shape();
                accumulate(
                    &mut grads,
                    node.inputs[0],
                    ops::global_avg_pool_backward(x_shape, &dy),
                )?;
            }
            Op::Flatten => {
                let x_shape = pass.activations[node.inputs[0]].shape().to_vec();
                accumulate(&mut grads, node.inputs[0], dy.reshape(&x_shape)?)?;
            }
            Op::Dense { weight, bias } => {
                let x = &pass.activations[node.inputs[0]];
                let g = ops::dense_backward(x, vars.value(weight)?, &dy);
                note_interp_alloc(g.dw.len());
                note_interp_alloc(g.db.len());
                vars.accumulate_grad(weight, &g.dw)?;
                vars.accumulate_grad(bias, &g.db)?;
                accumulate(&mut grads, node.inputs[0], g.dx)?;
            }
            Op::Add => {
                for &i in &node.inputs {
                    accumulate(&mut grads, i, dy.clone())?;
                }
            }
            Op::Concat => {
                let widths: Vec<usize> = node
                    .inputs
                    .iter()
                    .map(|&i| pass.activations[i].shape()[1])
                    .collect();
                let parts = dy.split_axis1(&widths)?;
                for (&i, part) in node.inputs.iter().zip(parts) {
                    accumulate(&mut grads, i, part)?;
                }
            }
            Op::StopGradient => {
                // Gradient is dropped by design.
            }
        }
    }
    Ok(())
}

/// Zeroes all gradient buffers in `vars`.
pub fn zero_grads(vars: &mut VarStore) {
    vars.zero_grads();
}

/// Applies one SGD step to every trainable variable.
pub fn sgd_step(vars: &mut VarStore, cfg: &wootz_tensor::sgd::SgdConfig) {
    vars.sgd_step(cfg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use wootz_tensor::sgd::SgdConfig;

    fn tiny_net() -> (Graph, VarStore, NodeId) {
        let mut b = GraphBuilder::new(11);
        let x = b.input("data", (1, 4, 4));
        let c = b.conv2d("c1", x, 2, 3, 1, 1).unwrap();
        let r = b.relu("r1", c).unwrap();
        let g = b.global_avg_pool("gap", r).unwrap();
        let d = b.dense("fc", g, 3).unwrap();
        let (graph, vars) = b.finish();
        (graph, vars, d)
    }

    #[test]
    fn forward_produces_expected_shapes() {
        let (graph, mut vars, logits) = tiny_net();
        let x = Tensor::ones(&[5, 1, 4, 4]);
        let pass = forward(&graph, &mut vars, &[("data", &x)], Mode::Eval).unwrap();
        assert_eq!(pass.activation(logits).shape(), &[5, 3]);
    }

    #[test]
    fn forward_rejects_missing_or_misshaped_input() {
        let (graph, mut vars, _) = tiny_net();
        assert!(forward(&graph, &mut vars, &[], Mode::Eval).is_err());
        let bad = Tensor::ones(&[5, 2, 4, 4]);
        assert!(forward(&graph, &mut vars, &[("data", &bad)], Mode::Eval).is_err());
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let (graph, mut vars, logits) = tiny_net();
        // Sample `s` belongs to class `s % 3`; its pixels encode the class.
        let labels = vec![0, 1, 2, 0, 1, 2];
        let x = Tensor::from_fn(&[6, 1, 4, 4], |i| {
            let sample = i / 16;
            (labels[sample] as f32 - 1.0) + 0.1 * ((i % 16) as f32 / 16.0)
        });
        let sgd = SgdConfig {
            learning_rate: 0.5,
            weight_decay: 0.0,
            momentum: 0.0,
        };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let pass = forward(&graph, &mut vars, &[("data", &x)], Mode::Train).unwrap();
            let out = ops::softmax_cross_entropy(pass.activation(logits), &labels);
            first.get_or_insert(out.loss);
            last = out.loss;
            zero_grads(&mut vars);
            backward(&graph, &mut vars, &pass, &[(logits, out.dlogits)]).unwrap();
            sgd_step(&mut vars, &sgd);
        }
        assert!(last < first.unwrap() * 0.8, "loss {first:?} -> {last}");
    }

    #[test]
    fn stop_gradient_blocks_backprop() {
        let mut b = GraphBuilder::new(3);
        let x = b.input("data", (1, 2, 2));
        let c = b.conv2d("c1", x, 1, 1, 1, 0).unwrap();
        let s = b.stop_gradient("sg", c).unwrap();
        let c2 = b.conv2d("c2", s, 1, 1, 1, 0).unwrap();
        let (graph, mut vars) = b.finish();
        let xt = Tensor::ones(&[1, 1, 2, 2]);
        let pass = forward(&graph, &mut vars, &[("data", &xt)], Mode::Eval).unwrap();
        let dy = Tensor::ones(pass.activation(c2).shape());
        zero_grads(&mut vars);
        backward(&graph, &mut vars, &pass, &[(c2, dy)]).unwrap();
        // c2 gets gradient; c1 does not (blocked by stop_gradient).
        let g1 = vars.param_mut("c1/weight").unwrap().grad.l1_norm();
        let g2 = vars.param_mut("c2/weight").unwrap().grad.l1_norm();
        assert_eq!(g1, 0.0);
        assert!(g2 > 0.0);
    }

    #[test]
    fn multiple_seeds_accumulate() {
        let mut b = GraphBuilder::new(5);
        let x = b.input("data", (1, 2, 2));
        let c = b.conv2d("c1", x, 1, 1, 1, 0).unwrap();
        let r1 = b.relu("r1", c).unwrap();
        let r2 = b.relu("r2", c).unwrap();
        let (graph, mut vars) = b.finish();
        let xt = Tensor::ones(&[1, 1, 2, 2]);
        let pass = forward(&graph, &mut vars, &[("data", &xt)], Mode::Eval).unwrap();

        // Seeding both relu branches doubles the conv gradient vs one seed.
        let dy = Tensor::ones(pass.activation(r1).shape());
        zero_grads(&mut vars);
        backward(&graph, &mut vars, &pass, &[(r1, dy.clone())]).unwrap();
        let single = vars.param_mut("c1/weight").unwrap().grad.l1_norm();
        zero_grads(&mut vars);
        backward(&graph, &mut vars, &pass, &[(r1, dy.clone()), (r2, dy)]).unwrap();
        let double = vars.param_mut("c1/weight").unwrap().grad.l1_norm();
        // The relu masks may differ but with all-ones inputs and positive
        // weights... we only require strictly more gradient.
        assert!(double >= single * 1.5, "single={single}, double={double}");
    }

    #[test]
    fn bn_running_stats_update_in_train_mode() {
        let mut b = GraphBuilder::new(9);
        let x = b.input("data", (1, 2, 2));
        b.batch_norm("bn", x).unwrap();
        let (graph, mut vars) = b.finish();
        let xt = Tensor::filled(&[4, 1, 2, 2], 5.0);
        forward(&graph, &mut vars, &[("data", &xt)], Mode::Train).unwrap();
        let m = vars.value("bn/moving_mean").unwrap().data()[0];
        // moving mean moved toward 5 by one momentum step: 0.9*0 + 0.1*5.
        assert!((m - 0.5).abs() < 1e-5, "m={m}");
        // Eval mode must not move the stats.
        forward(&graph, &mut vars, &[("data", &xt)], Mode::Eval).unwrap();
        assert!((vars.value("bn/moving_mean").unwrap().data()[0] - m).abs() < 1e-7);
    }

    #[test]
    fn backward_rejects_bad_seed() {
        let (graph, mut vars, logits) = tiny_net();
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let pass = forward(&graph, &mut vars, &[("data", &x)], Mode::Eval).unwrap();
        let bad = Tensor::ones(&[2, 3]);
        assert!(backward(&graph, &mut vars, &pass, &[(logits, bad)]).is_err());
        assert!(backward(&graph, &mut vars, &pass, &[(99, Tensor::zeros(&[1]))]).is_err());
    }
}
