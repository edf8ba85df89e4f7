//! Property-based tests of the NN engine: checkpoint round trips, forward
//! shape agreement with builder inference, and training-step invariants.

use proptest::prelude::*;
use wootz_nn::{
    backward, forward, train_classifier, Checkpoint, EvalSet, GraphBuilder, LrSchedule, Mode,
    NodeShape, TrainConfig, VarStore,
};
use wootz_tensor::ops::softmax_cross_entropy;
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checkpoints survive capture -> restore bit-for-bit, for arbitrary
    /// tensor contents.
    #[test]
    fn checkpoint_round_trip(values in prop::collection::vec(-10.0f32..10.0, 24)) {
        let mut vs = VarStore::new();
        vs.register("a/w", Tensor::from_vec(values[..12].to_vec(), &[3, 4]).unwrap(), true, true).unwrap();
        vs.register("b/w", Tensor::from_vec(values[12..].to_vec(), &[12]).unwrap(), true, false).unwrap();
        let ckpt = Checkpoint::capture(&vs, "");
        let mut target = VarStore::new();
        target.register("a/w", Tensor::zeros(&[3, 4]), true, true).unwrap();
        target.register("b/w", Tensor::zeros(&[12]), true, false).unwrap();
        let (restored, skipped) = ckpt.restore(&mut target, |n| n.to_string()).unwrap();
        prop_assert_eq!((restored, skipped), (2, 0));
        prop_assert_eq!(target.value("a/w").unwrap().data(), &values[..12]);
    }

    /// Forward activations match the builder's declared shapes for random
    /// layer stacks.
    #[test]
    fn forward_shapes_match_inference(
        seed in 0u64..1000,
        filters in 1usize..6,
        kernel in prop::sample::select(vec![1usize, 3]),
        stride in 1usize..3,
        batch in 1usize..4,
    ) {
        let mut b = GraphBuilder::new(seed);
        let x = b.input("data", (2, 8, 8));
        let c = b.conv2d("c", x, filters, kernel, stride, kernel / 2).unwrap();
        let r = b.relu("r", c).unwrap();
        let p = b.max_pool("p", r, 2, 2, 0).unwrap();
        let g = b.global_avg_pool("g", p).unwrap();
        let d = b.dense("d", g, 5).unwrap();
        let (graph, mut vars) = b.finish();
        let input = Tensor::zeros(&[batch, 2, 8, 8]);
        let pass = forward(&graph, &mut vars, &[("data", &input)], Mode::Eval).unwrap();
        for id in 0..graph.len() {
            let act = pass.activation(id);
            prop_assert_eq!(act.shape()[0], batch);
            match graph.shape(id) {
                NodeShape::Chw(c, h, w) => prop_assert_eq!(act.shape(), &[batch, c, h, w]),
                NodeShape::Flat(f) => prop_assert_eq!(act.shape(), &[batch, f]),
            }
        }
        let _ = d;
    }

    /// One SGD step reduces the loss on a fixed batch for a small enough
    /// learning rate (descent property).
    #[test]
    fn sgd_step_descends(seed in 0u64..200) {
        let mut b = GraphBuilder::new(seed);
        let x = b.input("data", (1, 4, 4));
        let c = b.conv2d("c", x, 3, 3, 1, 1).unwrap();
        let g = b.global_avg_pool("g", c).unwrap();
        let d = b.dense("d", g, 3).unwrap();
        let (graph, mut vars) = b.finish();
        let input = Tensor::from_fn(&[6, 1, 4, 4], |i| ((i * 7919 + seed as usize) % 13) as f32 / 13.0 - 0.5);
        let labels = vec![0usize, 1, 2, 0, 1, 2];
        let loss_of = |vars: &mut VarStore| {
            let pass = forward(&graph, vars, &[("data", &input)], Mode::Eval).unwrap();
            softmax_cross_entropy(pass.activation(d), &labels).loss
        };
        let before = loss_of(&mut vars);
        let pass = forward(&graph, &mut vars, &[("data", &input)], Mode::Train).unwrap();
        let out = softmax_cross_entropy(pass.activation(d), &labels);
        vars.zero_grads();
        backward(&graph, &mut vars, &pass, &[(d, out.dlogits)]).unwrap();
        vars.sgd_step(&wootz_tensor::sgd::SgdConfig {
            learning_rate: 1e-3,
            weight_decay: 0.0,
            momentum: 0.0,
        });
        let after = loss_of(&mut vars);
        prop_assert!(after <= before + 1e-6, "loss rose: {before} -> {after}");
    }

    /// Measuring accuracy never moves training: one seed trained with a
    /// curve every 0, 7 or 20 steps, with and without a target accuracy,
    /// leaves bit-identical variables (batch-norm running statistics
    /// included) and the same final accuracy.
    #[test]
    fn evaluation_never_moves_training(seed in 0u64..1000, target in 0.0f32..1.0) {
        let batch = |step: usize| {
            let x = Tensor::from_fn(&[8, 1, 4, 4], |i| {
                (((i + 31 * step) * 7919 + seed as usize) % 17) as f32 / 17.0 - 0.5
            });
            let y: Vec<usize> = (0..8).map(|s| (s + step + seed as usize) % 3).collect();
            (x, y)
        };
        let (eval_x, eval_y) = batch(1000);
        let train = |eval_every: usize, target: Option<f32>| {
            let mut b = GraphBuilder::new(seed);
            let x = b.input("data", (1, 4, 4));
            let c = b.conv2d("c", x, 4, 3, 1, 1).unwrap();
            let n = b.batch_norm("bn", c).unwrap();
            let r = b.relu("r", n).unwrap();
            let g = b.global_avg_pool("g", r).unwrap();
            let d = b.dense("d", g, 3).unwrap();
            let (graph, mut vars) = b.finish();
            let cfg = TrainConfig {
                max_steps: 20,
                sgd: SgdConfig { learning_rate: 0.1, weight_decay: 1e-4, momentum: 0.9 },
                schedule: LrSchedule::Fixed,
                eval_every,
            };
            let eval = EvalSet { images: &eval_x, labels: &eval_y, target };
            let log = train_classifier(&graph, &mut vars, "data", d, &cfg, batch, Some(eval)).unwrap();
            let values: Vec<(String, Vec<u32>)> = vars
                .iter()
                .map(|(name, p)| (name.to_string(), p.value.data().iter().map(|v| v.to_bits()).collect()))
                .collect();
            (values, log.final_accuracy.map(f32::to_bits))
        };
        let reference = train(0, None);
        for eval_every in [0, 7, 20] {
            for target in [None, Some(target)] {
                prop_assert!(
                    train(eval_every, target) == reference,
                    "eval_every {eval_every}, target {target:?} moved training"
                );
            }
        }
    }

    /// Gradient accumulation is additive: two identical backward passes
    /// double every gradient.
    #[test]
    fn backward_accumulates_additively(seed in 0u64..200) {
        let mut b = GraphBuilder::new(seed);
        let x = b.input("data", (1, 3, 3));
        let c = b.conv2d("c", x, 2, 3, 1, 1).unwrap();
        let (graph, mut vars) = b.finish();
        let input = Tensor::from_fn(&[2, 1, 3, 3], |i| (i as f32).sin());
        let pass = forward(&graph, &mut vars, &[("data", &input)], Mode::Eval).unwrap();
        let dy = Tensor::ones(pass.activation(c).shape());
        vars.zero_grads();
        backward(&graph, &mut vars, &pass, &[(c, dy.clone())]).unwrap();
        let once = vars.param_mut("c/weight").unwrap().grad.clone();
        backward(&graph, &mut vars, &pass, &[(c, dy)]).unwrap();
        let twice = vars.param_mut("c/weight").unwrap().grad.clone();
        for (a, b) in once.data().iter().zip(twice.data().iter()) {
            prop_assert!((2.0 * a - b).abs() < 1e-4);
        }
    }
}
