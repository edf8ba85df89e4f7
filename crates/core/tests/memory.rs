//! Allocator behaviour of the planned executor (`ExecPlan` +
//! `TensorArena`, DESIGN.md §10) on the stock `wootz genmodel` graph,
//! `resnet_mini(8)`:
//!
//! 1. **Steady-state training allocates no tensors.** After one warm-up
//!    step the arena pool holds a buffer for every plan slot, so every
//!    later step's takes are all reuses: `fresh` stays 0.
//! 2. **Eval-mode liveness shrinks the peak.** An eval plan keeps only the
//!    output nodes and recycles every interior activation at its last
//!    use, so a planned eval pass peaks at least 2× below the bytes the
//!    reference interpreter's `ForwardPass` retains.
//!
//! Numerical equality of the two executors is the `plan_equivalence`
//! property test's job in `wootz-nn`; this file is about allocation only.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wootz_core::compile::{ModeToUse, MultiplexingModel};
use wootz_nn::{forward_eval, CompiledNet, Mode};
use wootz_tensor::ops::softmax_cross_entropy;
use wootz_tensor::{init, Tensor};

const CLASSES: usize = 8;
const BATCH: usize = 4;

fn batch(input: &wootz_ir::InputDef) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    init::normal(
        &mut rng,
        &[BATCH, input.channels, input.height, input.width],
        0.0,
        1.0,
    )
}

#[test]
fn planned_training_takes_nothing_fresh_after_the_warm_up_step() {
    let ir = wootz_models::resnet_mini(CLASSES);
    let x = batch(ir.input());
    let mm = MultiplexingModel::compile(ir).unwrap();
    let mut built = mm.build(&ModeToUse::Original, 7).unwrap();
    let logits = built.logits.unwrap();
    let feed = [(built.input_name.as_str(), &x)];
    let labels: Vec<usize> = (0..BATCH).map(|i| i % CLASSES).collect();
    let mut net = CompiledNet::new(&built.graph, &[logits]).unwrap();
    for step in 0..3 {
        net.reset_arena_stats();
        net.forward(&mut built.vars, &feed, Mode::Train).unwrap();
        let out = softmax_cross_entropy(net.activation(logits).unwrap(), &labels);
        built.vars.zero_grads();
        net.backward(&mut built.vars, &[(logits, &out.dlogits)])
            .unwrap();
        let stats = net.arena_stats();
        assert!(stats.takes > 0, "step {step} took nothing: {stats:?}");
        if step == 0 {
            assert!(stats.fresh > 0, "the warm-up step must fill the pool");
        } else {
            assert_eq!(stats.fresh, 0, "step {step} allocated: {stats:?}");
        }
    }
}

#[test]
fn planned_eval_peaks_at_least_twice_below_the_interpreter() {
    let ir = wootz_models::resnet_mini(CLASSES);
    let x = batch(ir.input());
    let mm = MultiplexingModel::compile(ir).unwrap();
    let built = mm.build(&ModeToUse::Original, 7).unwrap();
    let logits = built.logits.unwrap();
    let feed = [(built.input_name.as_str(), &x)];

    let interp_bytes = forward_eval(&built.graph, &built.vars, &feed)
        .unwrap()
        .retained_bytes();
    // A fresh net (cold pool), so the peak is the honest cold-start peak.
    let mut net = CompiledNet::new(&built.graph, &[logits]).unwrap();
    net.forward_eval(&built.vars, &feed).unwrap();
    let planned_peak = net.arena_stats().peak_live_bytes;
    assert!(planned_peak > 0);
    assert!(
        2 * planned_peak <= interp_bytes,
        "planned eval peak {planned_peak} B vs interpreter {interp_bytes} B: less than 2x"
    );
}
