//! A small classifier training loop with accuracy logging — the analogue of
//! the generic training scripts Wootz generates around the multiplexing
//! model.

use serde::{Deserialize, Serialize};
use wootz_tensor::ops;
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;

use crate::exec::Mode;
use crate::graph::{Graph, NodeId};
use crate::plan::{planned_forward_eval, CompiledNet, ExecPlan, PlanState};
use crate::var::VarStore;
use crate::{NnError, Result};

/// A learning-rate schedule over training steps. The paper uses fixed
/// rates ("We experimented with other learning rates and dynamic decay
/// schemes" — §7.1 footnote); step decay and cosine annealing are provided
/// for the same experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LrSchedule {
    /// Constant learning rate (the paper's choice).
    #[default]
    Fixed,
    /// Multiply the rate by `gamma` every `every` steps.
    StepDecay {
        /// Steps between decays.
        every: usize,
        /// Multiplicative decay factor.
        gamma: f32,
    },
    /// Cosine annealing from the base rate to zero over the step budget.
    Cosine,
}

impl LrSchedule {
    /// The learning rate at `step` of `max_steps` given `base`.
    pub fn lr_at(&self, base: f32, step: usize, max_steps: usize) -> f32 {
        match self {
            LrSchedule::Fixed => base,
            LrSchedule::StepDecay { every, gamma } => {
                base * gamma.powi((step / every.max(&1).to_owned()) as i32)
            }
            LrSchedule::Cosine => {
                let t = step as f32 / max_steps.max(1) as f32;
                base * 0.5 * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// Training-loop configuration, mirroring the paper's meta data (max steps,
/// batch size, fixed learning rate, weight decay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum number of SGD steps.
    pub max_steps: usize,
    /// SGD hyper-parameters (`sgd.learning_rate` is the schedule's base).
    pub sgd: SgdConfig,
    /// Learning-rate schedule applied over `max_steps`.
    pub schedule: LrSchedule,
    /// Record an accuracy curve: a point at step 0 and every this many
    /// steps (see [`train_classifier`]). `0` records no curve; the final
    /// accuracy is still measured.
    pub eval_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_steps: 100,
            sgd: SgdConfig {
                learning_rate: 0.01,
                weight_decay: 1e-5,
                momentum: 0.9,
            },
            schedule: LrSchedule::Fixed,
            eval_every: 0,
        }
    }
}

/// One accuracy observation along a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainRecord {
    /// Global step at which the evaluation happened.
    pub step: usize,
    /// Training loss at that step.
    pub loss: f32,
    /// Test accuracy at that step, when evaluation data was provided.
    pub accuracy: Option<f32>,
}

/// The log of a training run — the data behind the paper's Figure 6
/// accuracy curves. It holds the points [`train_classifier`] measured and
/// nothing else.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainLog {
    /// Chronological accuracy/loss records: the curve, empty when none was
    /// recorded.
    pub records: Vec<TrainRecord>,
    /// Accuracy before any training step (the paper's `init` / `init+`),
    /// when a curve was recorded.
    pub initial_accuracy: Option<f32>,
    /// Accuracy after the final step (the paper's `final` / `final+`).
    pub final_accuracy: Option<f32>,
    /// Number of steps actually run.
    pub steps_run: usize,
}

impl TrainLog {
    /// The first step at which accuracy reached `threshold`, if any — used
    /// for "time to target accuracy" comparisons.
    pub fn first_step_reaching(&self, threshold: f32) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.accuracy.is_some_and(|a| a >= threshold))
            .map(|r| r.step)
    }
}

/// The held-out set [`train_classifier`] measures accuracy on.
#[derive(Debug, Clone, Copy)]
pub struct EvalSet<'a> {
    /// Evaluation images, `[N, C, H, W]`.
    pub images: &'a Tensor,
    /// One label per image.
    pub labels: &'a [usize],
    /// The accuracy a caller waits for: the curve ends at its first point at
    /// or above it, since no later point changes when it was reached.
    /// `None` records the whole curve.
    pub target: Option<f32>,
}

impl<'a> EvalSet<'a> {
    /// An evaluation set with no target accuracy.
    pub fn new(images: &'a Tensor, labels: &'a [usize]) -> Self {
        EvalSet {
            images,
            labels,
            target: None,
        }
    }

    fn reached(&self, accuracy: f32) -> bool {
        self.target.is_some_and(|t| accuracy >= t)
    }
}

/// Samples per evaluation shard. A fixed constant (never a function of the
/// thread count) so shard boundaries — and therefore each sample's
/// activations and the per-shard match counts — are identical for any
/// `--threads` value.
const EVAL_SHARD: usize = 8;

/// Computes classification accuracy of `logits_node` over an evaluation
/// batch.
///
/// The batch is split into fixed-size (`EVAL_SHARD` = 8 samples) shards that run
/// the planned eval forward concurrently on the `wootz-par` pool against the
/// shared immutable variable store (evaluation never mutates variables).
/// Every sample sees exactly the per-sample math of a whole-batch evaluation
/// and the integer match counts merge in shard order, so the accuracy is
/// bit-identical to the single-threaded whole-batch result.
///
/// # Errors
///
/// Returns an error when the forward pass fails or `logits` is not `[N, K]`.
pub fn evaluate_accuracy(
    graph: &Graph,
    vars: &mut VarStore,
    input_name: &str,
    logits_node: NodeId,
    images: &Tensor,
    labels: &[usize],
) -> Result<f32> {
    let plan = ExecPlan::for_eval(graph, &[logits_node])?;
    accuracy_with(graph, &plan, vars, input_name, logits_node, images, labels)
}

/// [`evaluate_accuracy`] through an eval plan that keeps `logits_node`, so a
/// driver that already holds one builds none.
fn accuracy_with(
    graph: &Graph,
    plan: &ExecPlan,
    vars: &VarStore,
    input_name: &str,
    logits_node: NodeId,
    images: &Tensor,
    labels: &[usize],
) -> Result<f32> {
    wootz_obs::counter("trainer.evals").incr();
    let n = images.shape().first().copied().unwrap_or(0);
    // Like the whole-batch zip, score only samples that have both an image
    // and a label.
    let scored = n.min(labels.len());
    if scored == 0 {
        return Ok(0.0);
    }
    // One eval plan shared by every shard; each shard owns its PlanState
    // (disjoint buffers).
    let sample_len = images.len() / n;
    let counts = wootz_par::parallel_chunks(&labels[..scored], EVAL_SHARD, |si, shard_labels| {
        let s0 = si * EVAL_SHARD;
        let rows = shard_labels.len();
        let mut shape = images.shape().to_vec();
        shape[0] = rows;
        let shard_x = Tensor::from_vec(
            images.data()[s0 * sample_len..(s0 + rows) * sample_len].to_vec(),
            &shape,
        )?;
        let mut state = PlanState::new(graph);
        planned_forward_eval(graph, plan, &mut state, vars, &[(input_name, &shard_x)])?;
        let preds = state.activation(plan, logits_node)?.argmax_rows()?;
        Ok::<usize, NnError>(
            preds
                .iter()
                .zip(shard_labels.iter())
                .filter(|(p, l)| p == l)
                .count(),
        )
    });
    let mut correct = 0usize;
    for c in counts {
        correct += c?;
    }
    Ok(correct as f32 / labels.len().max(1) as f32)
}

/// Name of the first trainable variable carrying a non-finite gradient.
fn first_non_finite_grad(vars: &VarStore) -> Option<String> {
    vars.iter().find_map(|(name, p)| {
        if p.trainable && p.grad.data().iter().any(|v| !v.is_finite()) {
            Some(name.to_string())
        } else {
            None
        }
    })
}

/// Name of the first variable whose *value* went non-finite (an update
/// overflow).
fn first_non_finite_value(vars: &VarStore) -> Option<String> {
    vars.iter().find_map(|(name, p)| {
        if p.value.data().iter().any(|v| !v.is_finite()) {
            Some(name.to_string())
        } else {
            None
        }
    })
}

/// Emits the structured `train.diverged` event (see `OBSERVABILITY.md`).
fn emit_diverged(step: usize, loss: f32, var: Option<&str>) {
    let mut ev = wootz_obs::event("train.diverged")
        .field("step", step)
        .field("loss", loss as f64);
    if let Some(name) = var {
        ev = ev.field("var", name);
    }
    ev.emit();
    wootz_obs::counter("trainer.divergences").incr();
}

/// Trains a classifier graph with softmax cross-entropy.
///
/// `next_batch(step)` supplies `(images, labels)` per step; `eval_data`
/// optionally provides a held-out set, on which accuracy is measured only
/// where the returned log reads it:
///
/// * the final accuracy, always;
/// * with `cfg.eval_every > 0`, a curve: step 0 (the composability
///   experiments' `init` vs `init+`) and every `eval_every` steps, ending
///   at its first point at or above [`EvalSet::target`]. A curve that never
///   reaches the target also gets the final step as its last point.
///
/// The final accuracy reuses the curve's step-`max_steps` point when there
/// is one. Training never reads a measurement, so the weights, the final
/// accuracy and every recorded point are the same bits whichever points
/// are measured.
///
/// # Observability
///
/// Each call builds two plans (`plan.builds`: one train, one eval) and
/// reuses them for every step and measurement, opens a `trainer.run` span,
/// counts SGD steps on `trainer.steps` and test-set passes on
/// `trainer.evals` (one per measurement), records per-step wall time in the
/// `trainer.step_time_us` histogram, and emits a `trainer.eval` event
/// (fields `step`, `loss`, `accuracy`) at every curve point after step 0.
/// Events and spans only materialize after [`wootz_obs::enable`]; the
/// metrics are always on. See `OBSERVABILITY.md`.
///
/// # Errors
///
/// Propagates graph-execution errors. Returns [`NnError::Diverged`] (and
/// emits a `train.diverged` event + bumps `trainer.divergences`) when a
/// step produces a non-finite loss or gradient — *before* the poisoned
/// update reaches the variables, so checkpoints never contain NaN/Inf.
pub fn train_classifier(
    graph: &Graph,
    vars: &mut VarStore,
    input_name: &str,
    logits_node: NodeId,
    cfg: &TrainConfig,
    mut next_batch: impl FnMut(usize) -> (Tensor, Vec<usize>),
    eval_data: Option<EvalSet<'_>>,
) -> Result<TrainLog> {
    let _run = wootz_obs::span("trainer.run").with("max_steps", cfg.max_steps);
    let steps_counter = wootz_obs::counter("trainer.steps");
    let step_time = wootz_obs::histogram("trainer.step_time_us");
    // Compile the graph once and reuse the plans + arena across every step
    // and measurement: steady-state steps allocate no tensors.
    let mut net = CompiledNet::new(graph, &[logits_node])?;
    // Persistent loss buffers, rebuilt only when the batch shape changes.
    let mut probs = Tensor::zeros(&[0, 0]);
    let mut dlogits = Tensor::zeros(&[0, 0]);
    let measure = |net: &CompiledNet, vars: &VarStore, eval: &EvalSet<'_>| {
        accuracy_with(
            graph,
            net.plan(Mode::Eval),
            vars,
            input_name,
            logits_node,
            eval.images,
            eval.labels,
        )
    };
    let mut log = TrainLog::default();
    // Whether the curve still takes points: it has one (`eval_every > 0`)
    // and none of its points has reached the target yet.
    let mut curve_open = cfg.eval_every > 0;
    if let Some(eval) = eval_data.filter(|_| curve_open) {
        let accuracy = measure(&net, vars, &eval)?;
        log.initial_accuracy = Some(accuracy);
        log.records.push(TrainRecord {
            step: 0,
            loss: f32::NAN,
            accuracy: Some(accuracy),
        });
        curve_open = !eval.reached(accuracy);
    }
    for step in 0..cfg.max_steps {
        let step_start = std::time::Instant::now();
        let (images, labels) = next_batch(step);
        net.forward(vars, &[(input_name, &images)], Mode::Train)?;
        let logits = net.activation(logits_node)?;
        if probs.shape() != logits.shape() {
            probs = Tensor::zeros(logits.shape());
            dlogits = Tensor::zeros(logits.shape());
        }
        let loss = ops::softmax_cross_entropy_into(logits, &labels, &mut probs, &mut dlogits);
        // Numerical-health guard #1: a non-finite loss means the forward
        // pass already blew up; stop before the gradients poison anything.
        if !loss.is_finite() {
            emit_diverged(step, loss, None);
            return Err(NnError::Diverged {
                step,
                loss,
                var: None,
            });
        }
        vars.zero_grads();
        net.backward(vars, &[(logits_node, &dlogits)])?;
        // Numerical-health guard #2: a non-finite gradient would corrupt
        // the variables on the next update (and every checkpoint captured
        // afterwards). Fail *before* `sgd_step` applies it.
        if let Some(name) = first_non_finite_grad(vars) {
            emit_diverged(step, loss, Some(&name));
            return Err(NnError::Diverged {
                step,
                loss,
                var: Some(name),
            });
        }
        let sgd = SgdConfig {
            learning_rate: cfg
                .schedule
                .lr_at(cfg.sgd.learning_rate, step, cfg.max_steps),
            ..cfg.sgd
        };
        vars.sgd_step(&sgd);
        // Numerical-health guard #3: the update itself can overflow (a
        // huge learning rate times a finite gradient). Catch it the moment
        // it happens so the caller aborts instead of checkpointing Inf.
        if let Some(name) = first_non_finite_value(vars) {
            emit_diverged(step, loss, Some(&name));
            return Err(NnError::Diverged {
                step,
                loss,
                var: Some(name),
            });
        }
        steps_counter.incr();
        step_time.record(step_start.elapsed().as_micros() as u64);
        log.steps_run = step + 1;
        if curve_open && (step + 1) % cfg.eval_every == 0 {
            let mut accuracy = None;
            if let Some(eval) = eval_data {
                let a = measure(&net, vars, &eval)?;
                curve_open = !eval.reached(a);
                accuracy = Some(a);
            }
            let mut ev = wootz_obs::event("trainer.eval")
                .field("step", step + 1)
                .field("loss", loss as f64);
            if let Some(a) = accuracy {
                ev = ev.field("accuracy", a as f64);
            }
            ev.emit();
            log.records.push(TrainRecord {
                step: step + 1,
                loss,
                accuracy,
            });
        }
    }
    if let Some(eval) = eval_data {
        // The curve's step-`max_steps` point, when it has one, is the final
        // accuracy.
        let at_end = log.records.last().filter(|r| r.step == cfg.max_steps);
        let final_acc = match at_end.and_then(|r| r.accuracy) {
            Some(accuracy) => accuracy,
            None => measure(&net, vars, &eval)?,
        };
        log.final_accuracy = Some(final_acc);
        if curve_open && at_end.is_none() {
            log.records.push(TrainRecord {
                step: cfg.max_steps,
                loss: f32::NAN,
                accuracy: Some(final_acc),
            });
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{backward, forward, forward_eval, sgd_step, zero_grads};
    use crate::graph::GraphBuilder;

    /// A linearly separable two-class toy problem: class = sign of the mean.
    fn toy_batch(step: usize) -> (Tensor, Vec<usize>) {
        let n = 8;
        let images = Tensor::from_fn(&[n, 1, 2, 2], |i| {
            let sample = i / 4;
            let positive = (sample + step).is_multiple_of(2);
            if positive {
                0.8
            } else {
                -0.8
            }
        });
        let labels = (0..n)
            .map(|s| usize::from((s + step).is_multiple_of(2)))
            .collect();
        (images, labels)
    }

    fn toy_net() -> (Graph, VarStore, NodeId) {
        let mut b = GraphBuilder::new(21);
        let x = b.input("data", (1, 2, 2));
        let c = b.conv2d("c1", x, 4, 1, 1, 0).unwrap();
        let r = b.relu("r1", c).unwrap();
        let g = b.global_avg_pool("gap", r).unwrap();
        let d = b.dense("fc", g, 2).unwrap();
        let (graph, vars) = b.finish();
        (graph, vars, d)
    }

    #[test]
    fn trainer_learns_separable_problem() {
        let (graph, mut vars, logits) = toy_net();
        let (eval_x, eval_y) = toy_batch(0);
        let cfg = TrainConfig {
            max_steps: 80,
            sgd: SgdConfig {
                learning_rate: 0.1,
                weight_decay: 0.0,
                momentum: 0.9,
            },
            schedule: LrSchedule::Fixed,
            eval_every: 20,
        };
        let log = train_classifier(
            &graph,
            &mut vars,
            "data",
            logits,
            &cfg,
            toy_batch,
            Some(EvalSet::new(&eval_x, &eval_y)),
        )
        .unwrap();
        assert_eq!(log.steps_run, 80);
        assert!(log.final_accuracy.unwrap() > 0.9, "{log:?}");
        assert!(log.initial_accuracy.is_some());
        // Records include the initial and final evaluations.
        assert_eq!(log.records.first().unwrap().step, 0);
        assert_eq!(log.records.last().unwrap().step, 80);
    }

    #[test]
    fn first_step_reaching_scans_records() {
        let log = TrainLog {
            records: vec![
                TrainRecord {
                    step: 0,
                    loss: f32::NAN,
                    accuracy: Some(0.1),
                },
                TrainRecord {
                    step: 10,
                    loss: 1.0,
                    accuracy: Some(0.5),
                },
                TrainRecord {
                    step: 20,
                    loss: 0.5,
                    accuracy: Some(0.9),
                },
            ],
            ..TrainLog::default()
        };
        assert_eq!(log.first_step_reaching(0.4), Some(10));
        assert_eq!(log.first_step_reaching(0.95), None);
    }

    #[test]
    fn schedules_compute_expected_rates() {
        let base = 1.0;
        assert_eq!(LrSchedule::Fixed.lr_at(base, 500, 1000), 1.0);
        let step = LrSchedule::StepDecay {
            every: 100,
            gamma: 0.5,
        };
        assert_eq!(step.lr_at(base, 0, 1000), 1.0);
        assert_eq!(step.lr_at(base, 100, 1000), 0.5);
        assert_eq!(step.lr_at(base, 250, 1000), 0.25);
        let cos = LrSchedule::Cosine;
        assert!((cos.lr_at(base, 0, 1000) - 1.0).abs() < 1e-6);
        assert!((cos.lr_at(base, 500, 1000) - 0.5).abs() < 1e-6);
        assert!(cos.lr_at(base, 1000, 1000) < 1e-6);
        // Monotone non-increasing for cosine.
        for s in 0..100 {
            assert!(cos.lr_at(base, s + 1, 100) <= cos.lr_at(base, s, 100) + 1e-7);
        }
    }

    #[test]
    fn cosine_training_still_learns() {
        let (graph, mut vars, logits) = toy_net();
        let (eval_x, eval_y) = toy_batch(0);
        let cfg = TrainConfig {
            max_steps: 80,
            sgd: SgdConfig {
                learning_rate: 0.15,
                weight_decay: 0.0,
                momentum: 0.9,
            },
            schedule: LrSchedule::Cosine,
            eval_every: 0,
        };
        let log = train_classifier(
            &graph,
            &mut vars,
            "data",
            logits,
            &cfg,
            toy_batch,
            Some(EvalSet::new(&eval_x, &eval_y)),
        )
        .unwrap();
        assert!(log.final_accuracy.unwrap() > 0.9, "{log:?}");
    }

    #[test]
    fn exploding_learning_rate_reports_divergence_not_nan() {
        let (graph, mut vars, logits) = toy_net();
        let cfg = TrainConfig {
            max_steps: 200,
            sgd: SgdConfig {
                // An absurd rate: the weights overflow within a few steps.
                learning_rate: 1e20,
                weight_decay: 0.0,
                momentum: 0.9,
            },
            schedule: LrSchedule::Fixed,
            eval_every: 0,
        };
        let err = train_classifier(&graph, &mut vars, "data", logits, &cfg, toy_batch, None)
            .expect_err("an exploding LR must be reported, not silently trained through");
        match &err {
            NnError::Diverged { step, .. } => {
                assert!(*step < 200, "diverged late: {err}");
            }
            other => panic!("expected Diverged, got {other}"),
        }
        assert!(err.to_string().contains("diverged"), "{err}");
        // The caller gets `Err`, never a TrainLog — so the pipeline aborts
        // instead of capturing a checkpoint from the poisoned state.
    }

    #[test]
    fn completed_training_never_leaves_non_finite_weights() {
        // The per-step guards make this an invariant of every `Ok` return,
        // not just of well-behaved hyper-parameters.
        let (graph, mut vars, logits) = toy_net();
        let cfg = TrainConfig {
            max_steps: 60,
            sgd: SgdConfig {
                learning_rate: 0.5,
                weight_decay: 0.0,
                momentum: 0.9,
            },
            schedule: LrSchedule::Fixed,
            eval_every: 0,
        };
        if train_classifier(&graph, &mut vars, "data", logits, &cfg, toy_batch, None).is_ok() {
            for (name, p) in vars.iter() {
                assert!(
                    p.value.data().iter().all(|v| v.is_finite()),
                    "`Ok` training left non-finite values in `{name}`"
                );
            }
        }
    }

    /// `toy_batch` until step 12, then 5 samples instead of 8.
    fn shrinking_batch(step: usize) -> (Tensor, Vec<usize>) {
        let (images, labels) = toy_batch(step);
        if step < 12 {
            return (images, labels);
        }
        let n = 5;
        let images = Tensor::from_vec(images.data()[..n * 4].to_vec(), &[n, 1, 2, 2]).unwrap();
        (images, labels[..n].to_vec())
    }

    /// Every variable's name, value bits and gradient bits.
    fn var_bits(vars: &VarStore) -> Vec<(String, Vec<u32>, Vec<u32>)> {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        vars.iter()
            .map(|(name, p)| (name.to_string(), bits(&p.value), bits(&p.grad)))
            .collect()
    }

    #[test]
    fn planned_trainer_equals_the_reference_interpreter_loop() {
        let cfg = TrainConfig {
            max_steps: 24,
            sgd: SgdConfig {
                learning_rate: 0.1,
                weight_decay: 1e-3,
                momentum: 0.9,
            },
            schedule: LrSchedule::StepDecay {
                every: 10,
                gamma: 0.5,
            },
            eval_every: 1,
        };
        let (eval_x, eval_y) = toy_batch(1);
        let (graph, mut planned, logits) = toy_net();
        let eval = EvalSet::new(&eval_x, &eval_y);
        let log = train_classifier(
            &graph,
            &mut planned,
            "data",
            logits,
            &cfg,
            shrinking_batch,
            Some(eval),
        )
        .unwrap();

        // The reference: the interpreter, a fresh loss tensor per step.
        let (_, mut reference, _) = toy_net();
        let mut losses = Vec::new();
        for step in 0..cfg.max_steps {
            let (images, labels) = shrinking_batch(step);
            let pass = forward(&graph, &mut reference, &[("data", &images)], Mode::Train).unwrap();
            let out = ops::softmax_cross_entropy(pass.activation(logits), &labels);
            zero_grads(&mut reference);
            backward(&graph, &mut reference, &pass, &[(logits, out.dlogits)]).unwrap();
            let sgd = SgdConfig {
                learning_rate: cfg
                    .schedule
                    .lr_at(cfg.sgd.learning_rate, step, cfg.max_steps),
                ..cfg.sgd
            };
            sgd_step(&mut reference, &sgd);
            losses.push(out.loss.to_bits());
        }

        // A point per step: each step's loss, the last one the final loss.
        let planned_losses: Vec<u32> = log.records[1..].iter().map(|r| r.loss.to_bits()).collect();
        assert_eq!(planned_losses, losses);
        assert_eq!(var_bits(&planned), var_bits(&reference));
        let pass = forward_eval(&graph, &reference, &[("data", &eval_x)]).unwrap();
        let preds = pass.activation(logits).argmax_rows().unwrap();
        let correct = preds.iter().zip(&eval_y).filter(|(p, l)| p == l).count();
        let accuracy = correct as f32 / eval_y.len() as f32;
        assert_eq!(
            log.final_accuracy.map(f32::to_bits),
            Some(accuracy.to_bits())
        );
    }

    #[test]
    fn evaluate_accuracy_counts_matches() {
        let (graph, mut vars, logits) = toy_net();
        let (x, y) = toy_batch(0);
        let acc = evaluate_accuracy(&graph, &mut vars, "data", logits, &x, &y).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }
}
