//! Bitwise determinism of whole training steps and evaluation across
//! `wootz-par` thread counts.
//!
//! Complements the per-kernel tests in `wootz-tensor`: here a full
//! forward/backward/SGD step over a small conv net — and a batched
//! accuracy evaluation — must produce bit-identical parameters and
//! results whether the kernel pool has 1 thread or 4 (the determinism
//! contract documented in `PERFORMANCE.md`). The train step runs once with
//! every kernel below the `wootz-par` grain and once with its convolutions
//! above it, where the `par.batches` counter must show that the 4-thread
//! step fanned out. Both tests run at every micro-kernel level this CPU
//! supports, and the levels must agree with each other too.

use std::sync::Mutex;

use wootz_nn::{backward, evaluate_accuracy, forward, GraphBuilder, Mode, VarStore};
use wootz_par::Pool;
use wootz_tensor::ops::{force_kernel_level, softmax_cross_entropy, KernelLevel};
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;

/// The tests share the global `par.batches` counter and the process-wide
/// kernel level: one at a time, so each counter delta is the test's own and
/// each run executes at the level it names.
static SERIAL: Mutex<()> = Mutex::new(());

fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    wootz_par::with_pool(&Pool::new(threads), f)
}

/// A net's size: input channels, spatial extent, first-conv filters.
#[derive(Clone, Copy)]
struct Size {
    channels: usize,
    extent: usize,
    filters: usize,
}

/// Every kernel of a batch-6 step is far below the grain.
const SMALL: Size = Size {
    channels: 2,
    extent: 8,
    filters: 4,
};
/// The first convolution's forward alone is ≈ 3.5 MFLOP at batch 6.
const LARGE: Size = Size {
    channels: 8,
    extent: 16,
    filters: 16,
};

/// Builds the same conv net twice: `GraphBuilder` initialisation is a pure
/// function of the seed, so both stores start bit-identical.
fn build(seed: u64, size: Size) -> (wootz_nn::Graph, VarStore, wootz_nn::NodeId) {
    let mut b = GraphBuilder::new(seed);
    let x = b.input("data", (size.channels, size.extent, size.extent));
    let c1 = b.conv2d("c1", x, size.filters, 3, 1, 1).unwrap();
    let bn = b.batch_norm("bn1", c1).unwrap();
    let r = b.relu("r1", bn).unwrap();
    let g = b.global_avg_pool("gap", r).unwrap();
    let d = b.dense("fc", g, 5).unwrap();
    let (graph, vars) = b.finish();
    (graph, vars, d)
}

fn batch(size: Size) -> (Tensor, Vec<usize>) {
    let shape = [6, size.channels, size.extent, size.extent];
    let input = Tensor::from_fn(&shape, |i| ((i * 7919) % 23) as f32 / 11.5 - 1.0);
    let labels = vec![0usize, 3, 1, 4, 2, 0];
    (input, labels)
}

/// One train step (forward Train → CE loss → backward → SGD) on the given
/// pool size; returns the loss bits and every parameter's value bits.
fn train_step_bits(threads: usize, seed: u64, size: Size) -> (u32, Vec<(String, Vec<u32>)>) {
    let (graph, mut vars, logits_id) = build(seed, size);
    let (input, labels) = batch(size);
    on_pool(threads, || {
        let pass = forward(&graph, &mut vars, &[("data", &input)], Mode::Train).unwrap();
        let out = softmax_cross_entropy(pass.activation(logits_id), &labels);
        vars.zero_grads();
        backward(&graph, &mut vars, &pass, &[(logits_id, out.dlogits)]).unwrap();
        vars.sgd_step(&SgdConfig {
            learning_rate: 0.05,
            weight_decay: 1e-4,
            momentum: 0.9,
        });
        let mut params: Vec<(String, Vec<u32>)> = vars
            .iter()
            .map(|(name, p)| {
                (
                    name.to_string(),
                    p.value.data().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect();
        params.sort_by(|a, b| a.0.cmp(&b.0));
        (out.loss.to_bits(), params)
    })
}

#[test]
fn train_step_is_bitwise_identical_across_thread_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let batches = wootz_obs::counter("par.batches");
    for (size, above_grain) in [(SMALL, false), (LARGE, true)] {
        let mut first = None;
        for level in KernelLevel::supported() {
            force_kernel_level(level).expect("a supported level");
            let name = level.name();
            let (loss1, params1) = train_step_bits(1, 11, size);
            let before = batches.get();
            let (loss4, params4) = train_step_bits(4, 11, size);
            let fanned_out = batches.get() - before;
            assert_eq!(loss1, loss4, "loss bits diverged across thread counts");
            assert_eq!(params1.len(), params4.len());
            for ((n1, p1), (n4, p4)) in params1.iter().zip(&params4) {
                assert_eq!(n1, n4);
                assert_eq!(p1, p4, "parameter `{n1}` diverged across thread counts");
            }
            assert_eq!(
                fanned_out > 0,
                above_grain,
                "{} filters: {fanned_out} batches fanned out",
                size.filters
            );
            match &first {
                None => first = Some((loss1, params1)),
                Some(want) => assert!(
                    want == &(loss1, params1),
                    "{} filters: the {name} level's step differs",
                    size.filters
                ),
            }
        }
    }
}

#[test]
fn evaluation_is_bitwise_identical_across_thread_counts() {
    // 19 samples: not a multiple of the eval shard size, so the last shard
    // is ragged — exactly the boundary the contract must cover.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (graph, _, logits_id) = build(23, SMALL);
    let images = Tensor::from_fn(&[19, 2, 8, 8], |i| ((i * 104729) % 31) as f32 / 15.5 - 1.0);
    let labels: Vec<usize> = (0..19).map(|i| (i * 2) % 5).collect();
    let accuracy = |threads| {
        on_pool(threads, || {
            let (_, mut vars, _) = build(23, SMALL);
            evaluate_accuracy(&graph, &mut vars, "data", logits_id, &images, &labels)
                .unwrap()
                .to_bits()
        })
    };
    let per_level: Vec<u32> = KernelLevel::supported()
        .into_iter()
        .map(|level| {
            force_kernel_level(level).expect("a supported level");
            let acc1 = accuracy(1);
            assert_eq!(acc1, accuracy(4), "at the {} level", level.name());
            acc1
        })
        .collect();
    assert!(
        per_level.windows(2).all(|w| w[0] == w[1]),
        "kernel levels disagree: {per_level:?}"
    );
}
