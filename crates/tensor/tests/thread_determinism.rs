//! Bitwise determinism of the `wootz-par`-parallelised kernels across
//! thread counts.
//!
//! The contract (see `PERFORMANCE.md`): every kernel's parallel
//! decomposition fixes its chunk boundaries from the problem shape — never
//! from the thread count — merges partial results in the same order as the
//! sequential loop, and fans out only above the shape-only grain. These
//! tests pin that contract by running each kernel on a 1-thread pool and a
//! 4-thread pool (via [`wootz_par::with_pool`]) and asserting exact `f32`
//! bit equality — once at a shape below the grain and once above it, where
//! the `par.batches` counter must show that the 4-thread run fanned out.
//! Each case runs at every micro-kernel level this CPU supports, and the
//! levels must agree with each other too.

use std::sync::Mutex;

use wootz_par::Pool;
use wootz_tensor::ops::KernelLevel;
use wootz_tensor::{ops, Tensor};

/// The tests share the global `par.batches` counter and the process-wide
/// kernel level: one at a time, so each counter delta is the test's own and
/// each run executes at the level it names.
static SERIAL: Mutex<()> = Mutex::new(());

/// Deterministic pseudo-random fill (no RNG dependency needed).
fn fill(shape: &[usize], salt: usize) -> Tensor {
    Tensor::from_fn(shape, |i| {
        let h = i
            .wrapping_mul(2654435761)
            .wrapping_add(salt.wrapping_mul(97));
        ((h % 2003) as f32 / 1001.5 - 1.0) * 1.7
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// At every kernel level this CPU supports, runs `f` on a 1-thread and on
/// a 4-thread pool and asserts that every run gives the same result;
/// `above_grain` says whether the 4-thread runs must fan out (they must not
/// otherwise).
fn assert_same_on_one_and_four<R: PartialEq + std::fmt::Debug>(
    case: &str,
    above_grain: bool,
    f: impl Fn() -> R,
) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let batches = wootz_obs::counter("par.batches");
    let four_pool = Pool::new(4);
    let mut first: Option<R> = None;
    for level in KernelLevel::supported() {
        ops::force_kernel_level(level).expect("a supported level");
        let name = level.name();
        let one = wootz_par::with_pool(&Pool::new(1), &f);
        let before = batches.get();
        let four = wootz_par::with_pool(&four_pool, &f);
        let fanned_out = batches.get() - before;
        assert_eq!(
            one, four,
            "{case}: 1 and 4 threads differ at the {name} level"
        );
        if above_grain {
            assert!(fanned_out > 0, "{case}: above the grain but ran inline");
        } else {
            assert_eq!(fanned_out, 0, "{case}: below the grain but fanned out");
        }
        match &first {
            None => first = Some(one),
            Some(want) => assert_eq!(&one, want, "{case}: the {name} level differs"),
        }
    }
}

#[test]
fn matmul_is_bitwise_identical_across_thread_counts() {
    // Odd sizes, ragged against the 4 x 16 tile; the second is far above
    // the grain (2·64·96·80 ≈ 0.98 MFLOP).
    for (m, k, n, above) in [(23, 17, 9, false), (64, 96, 80, true)] {
        let a = fill(&[m, k], 1);
        let b = fill(&[k, n], 2);
        assert_same_on_one_and_four(&format!("matmul {m}x{k}x{n}"), above, || {
            bits(&ops::matmul(&a, &b))
        });
    }
}

#[test]
fn conv2d_forward_and_backward_are_bitwise_identical_across_thread_counts() {
    let small = (
        [5, 3, 9, 9],
        [4, 3, 3, 3],
        ops::Conv2dCfg { stride: 2, pad: 1 },
    );
    let large = (
        [8, 8, 16, 16],
        [16, 8, 3, 3],
        ops::Conv2dCfg { stride: 1, pad: 1 },
    );
    for ((xs, ws, cfg), above) in [(small, false), (large, true)] {
        let x = fill(&xs, 3);
        let w = fill(&ws, 4);
        let b = fill(&ws[..1], 5);
        assert_same_on_one_and_four(&format!("conv2d {xs:?} * {ws:?}"), above, || {
            let y = ops::conv2d(&x, &w, &b, cfg);
            let g = ops::conv2d_backward(&x, &w, &y.scale(0.31), cfg);
            [&y, &g.dx, &g.dw, &g.db].map(bits)
        });
    }
}

#[test]
fn softmax_cross_entropy_is_bitwise_identical_across_thread_counts() {
    for (n, k, above) in [(13, 7, false), (2048, 100, true)] {
        let logits = fill(&[n, k], 6);
        let labels: Vec<usize> = (0..n).map(|i| (i * 3) % k).collect();
        assert_same_on_one_and_four(&format!("softmax_ce [{n}, {k}]"), above, || {
            let out = ops::softmax_cross_entropy(&logits, &labels);
            (out.loss.to_bits(), bits(&out.probs), bits(&out.dlogits))
        });
    }
}

#[test]
fn dense_layers_are_bitwise_identical_across_thread_counts() {
    // dense/dense_backward run the GEMM core in all three operand layouts
    // (A·Bᵀ forward, A·B for dx, Aᵀ·B for dW).
    for (n, d_in, d_out, above) in [(11, 20, 6, false), (64, 96, 80, true)] {
        let x = fill(&[n, d_in], 7);
        let w = fill(&[d_out, d_in], 8);
        let b = fill(&[d_out], 9);
        assert_same_on_one_and_four(&format!("dense [{n}, {d_in}] -> {d_out}"), above, || {
            let y = ops::dense(&x, &w, &b);
            let g = ops::dense_backward(&x, &w, &y.scale(-0.5));
            [&y, &g.dx, &g.dw, &g.db].map(bits)
        });
    }
}
