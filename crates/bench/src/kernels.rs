//! `reproduce kernels`: micro-benchmarks of the `wootz-par`-parallelised
//! kernels at one thread versus N threads.
//!
//! Each row times one hot kernel twice in the same process — once pinned to
//! a single-thread pool and once on an N-thread pool (via
//! [`wootz_par::with_pool`]) — and reports the median wall time of each
//! plus the resulting speedup. Because the parallel decompositions in
//! `wootz-tensor` are deterministic by construction (fixed chunk
//! boundaries, ordered merges; see `PERFORMANCE.md`), the two runs must
//! also produce **bitwise-identical** outputs; every row carries a
//! `bitwise_equal` flag that asserts exactly that, so the benchmark doubles
//! as an end-to-end determinism check on real workload shapes.
//!
//! The JSON artifact (`BENCH_kernels.json`) mirrors the table row-for-row
//! and additionally records the thread count, repetition count, and the
//! host's available parallelism — speedups measured on a 1-core host are
//! honest (≈1.0×) rather than fabricated.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use wootz_par::Pool;
use wootz_tensor::{init, ops};

use crate::report;

/// One benchmarked kernel: median wall times at 1 and N threads, the
/// speedup, and whether the two runs produced bitwise-identical outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRow {
    /// Kernel name (e.g. `matmul`).
    pub kernel: String,
    /// Human-readable problem shape (e.g. `[128,128]x[128,128]`).
    pub workload: String,
    /// Median wall time over the repetitions on a 1-thread pool, in ms.
    pub single_ms: f64,
    /// Median wall time over the repetitions on the N-thread pool, in ms.
    pub multi_ms: f64,
    /// `single_ms / multi_ms`.
    pub speedup: f64,
    /// Whether the 1-thread and N-thread outputs were bitwise identical.
    pub bitwise_equal: bool,
}

/// The full `BENCH_kernels.json` artifact: environment description plus
/// one [`KernelRow`] per kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelsArtifact {
    /// Thread count of the "multi" pool (from `--threads`/`WOOTZ_THREADS`,
    /// defaulting to the host's available parallelism).
    pub threads: usize,
    /// Timed repetitions per kernel per pool (median reported).
    pub reps: usize,
    /// `std::thread::available_parallelism()` on the measuring host. When
    /// this is 1, speedups near 1.0× are expected and honest.
    pub host_parallelism: usize,
    /// The GEMM micro-kernel level every row ran at (`baseline` or `avx2`,
    /// chosen from the measuring host's CPU): compare times only between
    /// artifacts of the same level.
    pub kernel_level: String,
    /// Per-kernel measurements.
    pub rows: Vec<KernelRow>,
}

/// Times `f` on `pool1` and `pooln`, checks bitwise equality of the two
/// outputs, and returns the populated row. `f` must route its parallelism
/// through the ambient `wootz-par` pool (all `wootz-tensor` kernels do).
fn bench_case(
    kernel: &str,
    workload: &str,
    reps: usize,
    pool1: &Pool,
    pooln: &Pool,
    f: impl Fn() -> Vec<f32>,
) -> KernelRow {
    let time_on = |pool: &Pool| -> (f64, Vec<f32>) {
        wootz_par::with_pool(pool, || {
            let reference = f(); // warm-up; also the equality witness
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    let out = f();
                    let dt = t0.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(out, reference, "{kernel}: nondeterministic within one pool");
                    dt
                })
                .collect();
            let med = report::median(samples).expect("at least one timed repetition");
            (med, reference)
        })
    };
    let (single_ms, out1) = time_on(pool1);
    let (multi_ms, outn) = time_on(pooln);
    KernelRow {
        kernel: kernel.to_string(),
        workload: workload.to_string(),
        single_ms,
        multi_ms,
        speedup: if multi_ms > 0.0 { single_ms / multi_ms } else { 1.0 },
        bitwise_equal: out1 == outn,
    }
}

/// Runs the kernel suite: 1 thread vs `threads` threads, `reps` timed
/// repetitions per kernel (median reported). `quick` shrinks the problem
/// sizes for smoke-test latency.
pub fn kernels(threads: usize, reps: usize, quick: bool) -> KernelsArtifact {
    let threads = threads.max(1);
    let pool1 = Pool::new(1);
    let pooln = Pool::new(threads);
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    // Problem sizes: large enough to dominate per-task dispatch overhead,
    // small enough that the suite stays in smoke-test territory.
    let (mm, batch, chw, classes) = if quick { (64, 4, 8, 10) } else { (128, 8, 16, 100) };

    let a = init::normal(&mut rng, &[mm, mm], 0.0, 1.0);
    let b = init::normal(&mut rng, &[mm, mm], 0.0, 1.0);
    let x = init::normal(&mut rng, &[batch, chw, chw, chw], 0.0, 1.0);
    let w = init::normal(&mut rng, &[chw, chw, 3, 3], 0.0, 0.2);
    let bias = init::normal(&mut rng, &[chw], 0.0, 0.2);
    let cfg = ops::Conv2dCfg { stride: 1, pad: 1 };
    let y = ops::conv2d(&x, &w, &bias, cfg);
    let dy = y.scale(0.1);
    let logits = init::normal(&mut rng, &[batch * 16, classes], 0.0, 2.0);
    let labels: Vec<usize> = (0..batch * 16).map(|i| i % classes).collect();

    let rows = vec![
        bench_case(
            "matmul",
            &format!("[{mm},{mm}]x[{mm},{mm}]"),
            reps,
            &pool1,
            &pooln,
            || ops::matmul(&a, &b).data().to_vec(),
        ),
        bench_case(
            "conv2d_fwd",
            &format!("[{batch},{chw},{chw},{chw}] k3 s1 p1"),
            reps,
            &pool1,
            &pooln,
            || ops::conv2d(&x, &w, &bias, cfg).data().to_vec(),
        ),
        bench_case(
            "conv2d_bwd",
            &format!("[{batch},{chw},{chw},{chw}] k3 s1 p1"),
            reps,
            &pool1,
            &pooln,
            || {
                let g = ops::conv2d_backward(&x, &w, &dy, cfg);
                let mut flat = g.dx.data().to_vec();
                flat.extend_from_slice(g.dw.data());
                flat.extend_from_slice(g.db.data());
                flat
            },
        ),
        bench_case(
            "softmax_ce",
            &format!("[{},{classes}]", batch * 16),
            reps,
            &pool1,
            &pooln,
            || {
                let out = ops::softmax_cross_entropy(&logits, &labels);
                let mut flat = vec![out.loss];
                flat.extend_from_slice(out.dlogits.data());
                flat
            },
        ),
    ];
    KernelsArtifact {
        threads,
        reps,
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        kernel_level: ops::kernel_level().name().to_string(),
        rows,
    }
}

/// Renders the kernel table as aligned text.
pub fn kernels_table(art: &KernelsArtifact) -> String {
    let body: Vec<Vec<String>> = art
        .rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.workload.clone(),
                report::f(r.single_ms, 3),
                report::f(r.multi_ms, 3),
                report::speedup(r.speedup),
                if r.bitwise_equal { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    let intro = format!(
        "Kernel micro-benchmarks: 1 thread vs {} threads ({} reps, median; host \
         parallelism {}; GEMM micro-kernel level {}).\nOutputs at both thread counts \
         must be bitwise identical (the wootz-par determinism contract; see \
         PERFORMANCE.md).",
        art.threads, art.reps, art.host_parallelism, art.kernel_level
    );
    report::titled_table(
        &intro,
        &["kernel", "workload", "1-thread ms", "N-thread ms", "speedup", "bitwise"],
        &body,
    )
}

/// Full `reproduce kernels` report: runs the suite and renders the table.
/// Returns `(text, ok)` where `ok` is false if any row lost bitwise
/// equality between thread counts (which would be a determinism bug).
pub fn kernels_report(art: &KernelsArtifact) -> (String, bool) {
    let ok = art.rows.iter().all(|r| r.bitwise_equal);
    let mut text = kernels_table(art);
    if ok {
        text.push_str("\nall kernels bitwise-identical across thread counts\n");
    } else {
        text.push_str("\nDETERMINISM VIOLATION: some kernels diverged across thread counts\n");
    }
    (text, ok)
}

/// Serializes the artifact as pretty JSON (the `BENCH_kernels.json` body).
pub fn artifact_json(art: &KernelsArtifact) -> String {
    serde_json::to_string_pretty(art).expect("serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_is_bitwise_identical_across_thread_counts() {
        let art = kernels(4, 1, true);
        assert_eq!(art.threads, 4);
        assert_eq!(art.kernel_level, ops::kernel_level().name());
        assert_eq!(art.rows.len(), 4);
        for row in &art.rows {
            assert!(row.bitwise_equal, "{} diverged across thread counts", row.kernel);
            assert!(row.single_ms >= 0.0 && row.multi_ms >= 0.0);
        }
        let (text, ok) = kernels_report(&art);
        assert!(ok);
        assert!(text.contains("matmul") && text.contains("speedup"));
    }

    #[test]
    fn artifact_json_round_trips() {
        let art = kernels(2, 1, true);
        let json = artifact_json(&art);
        let back: KernelsArtifact = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, art);
    }
}
