//! The one GEMM core under every matrix multiply and convolution: packing
//! routines map any strided operand layout onto a single register-tiled
//! `MR × NR` micro-kernel.
//!
//! ## Structure
//!
//! An operand is a [`MatRef`] — a slice plus a row and a column stride — so
//! `A`, `Aᵀ`, `B` and `Bᵀ` of a row-major matrix are all just views. [`pack`]
//! copies a view into panels of `W` contiguous lanes per inner index `p`
//! (`A` into `MR`-row panels, `B` into `NR`-column panels, zero past the
//! edge), and [`gemm_packed`] runs the micro-kernel over every
//! `(A panel, B panel)` pair, overwriting `C`, in the compiled form the CPU
//! supports best (see [`KernelLevel`]). [`gemm`] is the parallel
//! entry point: it packs `A` once into the calling thread's scratch and
//! hands column blocks of `C` — each packing its own part of `B` — to the
//! `wootz-par` pool.
//! Convolutions (`conv.rs`) call [`pack`] and [`gemm_packed`] directly from
//! their per-sample tasks.
//!
//! ## Accumulation order — why no output bit moves
//!
//! Every output element is accumulated as
//! `c = ((+0 + a₀b₀) + a₁b₁) + …` with `p` ascending and a separate
//! multiply and add (Rust never contracts them into an FMA). This is the
//! exact float-op sequence of the scalar loops the core replaced, so the
//! results are bit-identical to them:
//!
//! * the accumulator starts at `+0.0` and can never become `−0.0` (in
//!   round-to-nearest `x + y = −0` needs both operands `−0`), so the zero
//!   skip the old `A·B` loops had (`if a == 0.0 { continue }`) changed
//!   nothing on finite operands;
//! * the tile only adds independent lanes — each lane is one output
//!   element's own sequential chain — and lane width never changes
//!   rounding.
//!
//! Padding lanes hold zeros and their results are discarded.
//!
//! ## Kernel levels — why no CPU moves a bit either
//!
//! [`gemm_packed`] picks its compiled form once per process from
//! `is_x86_feature_detected!`: the portable build (4-lane SSE2 vectors on
//! the x86-64 baseline) or a `#[target_feature(enable = "avx2")]` instance
//! (8-lane vectors). Both are monomorphised from the same
//! `#[inline(always)]` body, with FMA never enabled, so they differ only in
//! lane width and tile width — and by the argument above, neither changes
//! an output bit. A worker on an AVX2 host and one without it produce the
//! same network. The level in use is [`kernel_level`], reported as the
//! `tensor.kernel_level` gauge.
//!
//! ## `0·∞` and NaN
//!
//! Every product is formed, so IEEE semantics hold throughout: a `0` in `A`
//! times an `∞` or NaN in `B` contributes NaN, and any NaN operand makes its
//! output elements NaN. (The old zero skip made a `0` in `A` contribute
//! nothing even against `∞`; `tests/kernel_oracle.rs` pins the new
//! behaviour.)
//!
//! ## Parallel decomposition & determinism
//!
//! [`gemm`] splits `C` into blocks of `TASK_COLS` columns — a constant,
//! never derived from the thread count — and a batch below the `wootz-par`
//! grain runs inline. Tasks write disjoint blocks and never reduce across
//! them, so the result is bit-identical for any thread count.
//!
//! ## Errors
//!
//! Shape checking is structured: [`try_matmul`] returns a
//! [`ShapeError`](crate::ShapeError) naming the operation and both shapes;
//! [`matmul`] surfaces the same message as a panic, e.g. `matmul inner
//! dims: a [2, 3] vs b [4, 2]`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::{ShapeError, Tensor};

/// Rows of `C` per micro-kernel tile.
pub(crate) const MR: usize = 4;
/// Columns of `C` per packed `B` panel: two 8-lane AVX2 vectors. The
/// baseline covers a panel with two half-width tiles, since sixteen 4-lane
/// SSE2 registers cannot hold a `MR × NR` tile's accumulators.
pub(crate) const NR: usize = 16;

/// A read-only strided matrix view: element `(i, j)` is
/// `data[i * rs + j * cs]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// A row-major matrix with `cols` columns.
    pub(crate) fn rows(data: &'a [f32], cols: usize) -> Self {
        MatRef {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// The view of columns `j0..` (no data moves).
    fn skip_cols(self, j0: usize) -> Self {
        MatRef {
            data: &self.data[j0 * self.cs..],
            ..self
        }
    }

    /// The transpose of this view (no data moves).
    pub(crate) fn t(self) -> Self {
        MatRef {
            data: self.data,
            rs: self.cs,
            cs: self.rs,
        }
    }
}

/// Scratch buffers reused across kernel calls on one thread.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Packed `A` panels.
    pub(crate) a: Vec<f32>,
    /// Packed `B` panels.
    pub(crate) b: Vec<f32>,
    /// Unpacked intermediate matrices (im2col patches, `dcol`, partials).
    pub(crate) c: Vec<f32>,
}

thread_local! {
    /// Operands a kernel call shares with all of its tasks (packed weights,
    /// reduction partials). Borrowed by the thread that issues the call.
    static CALL: RefCell<Scratch> = RefCell::default();
    /// One task's private buffers. Kernel tasks never issue kernel calls,
    /// so a thread holds at most one borrow of each cell at a time.
    static LANE: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` on this thread's call-level scratch.
pub(crate) fn with_call_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    CALL.with(|s| f(&mut s.borrow_mut()))
}

/// Runs `f` on this thread's task-level scratch.
pub(crate) fn with_lane_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    LANE.with(|s| f(&mut s.borrow_mut()))
}

/// The first `len` elements of `buf`, growing it if needed. Contents are
/// whatever the last user left: callers overwrite what they read.
pub(crate) fn scratch(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Packs the `k × n` view `v` into `⌈n/W⌉` panels of `k·W` floats: panel
/// `jp` holds `v(p, jp·W + s)` at `p·W + s`, and zero for columns past `n`.
/// Packing `A` (`m × k`) for the micro-kernel is `pack::<MR>(a.t(), k, m)`.
pub(crate) fn pack<const W: usize>(v: MatRef, k: usize, n: usize, dst: &mut Vec<f32>) {
    let dst = scratch(dst, n.div_ceil(W) * k * W);
    if k == 0 {
        return;
    }
    for (jp, panel) in dst.chunks_exact_mut(k * W).enumerate() {
        let j0 = jp * W;
        let width = W.min(n - j0);
        if width == W && v.cs == 1 {
            // Each lane row is a contiguous run of the source row.
            for (p, lanes) in panel.chunks_exact_mut(W).enumerate() {
                let at = p * v.rs + j0;
                lanes.copy_from_slice(&v.data[at..at + W]);
            }
        } else if width == W && v.rs == 1 {
            // Each source column is contiguous: interleave W of them.
            let cols: [&[f32]; W] = std::array::from_fn(|s| {
                let at = (j0 + s) * v.cs;
                &v.data[at..at + k]
            });
            for (p, lanes) in panel.chunks_exact_mut(W).enumerate() {
                for (lane, col) in lanes.iter_mut().zip(&cols) {
                    *lane = col[p];
                }
            }
        } else {
            for (p, lanes) in panel.chunks_exact_mut(W).enumerate() {
                for (s, lane) in lanes.iter_mut().enumerate() {
                    *lane = if s < width {
                        v.data[p * v.rs + (j0 + s) * v.cs]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// A compiled form of the micro-kernel. Every level runs the same
/// `#[inline(always)]` body with FMA off, so all of them give the same
/// bits (module docs); they differ in vector width and speed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLevel {
    /// The portable build: 4-lane SSE2 vectors on the x86-64 baseline, two
    /// `MR × 8` tiles per `B` panel.
    Baseline,
    /// 8-lane AVX2 vectors, one `MR × 16` tile per `B` panel (x86-64 only).
    Avx2,
}

impl KernelLevel {
    /// Every level, narrowest first.
    pub const ALL: [KernelLevel; 2] = [KernelLevel::Baseline, KernelLevel::Avx2];

    /// The level's name (`baseline` or `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            KernelLevel::Baseline => "baseline",
            KernelLevel::Avx2 => "avx2",
        }
    }

    /// The width of the level's vector registers in bits: the value of the
    /// `tensor.kernel_level` gauge.
    pub fn vector_bits(self) -> u32 {
        match self {
            KernelLevel::Baseline => 128,
            KernelLevel::Avx2 => 256,
        }
    }

    /// Whether this CPU can run the level.
    pub fn is_supported(self) -> bool {
        match self {
            KernelLevel::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelLevel::Avx2 => false,
        }
    }

    /// The levels this CPU supports, narrowest first.
    pub fn supported() -> Vec<KernelLevel> {
        Self::ALL.into_iter().filter(|l| l.is_supported()).collect()
    }
}

/// The level [`gemm_packed`] dispatches to: `UNSET` until the first call,
/// then `level as u8`, its index in [`KernelLevel::ALL`] (which lists the
/// levels in declaration order).
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = u8::MAX;

/// The micro-kernel level in use: on first call, the widest level this CPU
/// supports, reported as the `tensor.kernel_level` gauge (its
/// [`KernelLevel::vector_bits`]).
pub fn kernel_level() -> KernelLevel {
    let mut v = LEVEL.load(Ordering::Relaxed);
    if v == UNSET {
        let detected = *KernelLevel::supported().last().expect("baseline");
        match LEVEL.compare_exchange(UNSET, detected as u8, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                announce(detected);
                v = detected as u8;
            }
            Err(set) => v = set,
        }
    }
    KernelLevel::ALL[usize::from(v)]
}

/// Makes every later GEMM in the process run at `level`, refusing a level
/// this CPU lacks. For tests that pin the levels' bit-identity only: no
/// flag, environment variable or configuration field reaches it.
#[doc(hidden)]
pub fn force_kernel_level(level: KernelLevel) -> Result<(), String> {
    if !level.is_supported() {
        return Err(format!("this CPU cannot run the {} kernel", level.name()));
    }
    LEVEL.store(level as u8, Ordering::Relaxed);
    announce(level);
    Ok(())
}

fn announce(level: KernelLevel) {
    wootz_obs::gauge("tensor.kernel_level").set(f64::from(level.vector_bits()));
}

/// The micro-kernel: one `MR × W` tile of `C` from a packed `A` panel and
/// columns `S..S + W` of a packed `B` panel, accumulated over `p` ascending
/// from `+0.0`.
#[inline(always)]
fn tile<const W: usize, const S: usize>(a: &[f32], b: &[f32]) -> [[f32; W]; MR] {
    let mut acc = [[0.0f32; W]; MR];
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for (row, &av) in acc.iter_mut().zip(ap) {
            for (c, &bv) in row.iter_mut().zip(&bp[S..S + W]) {
                *c += av * bv;
            }
        }
    }
    acc
}

/// Writes the first `rows × cols` of a tile into row-major `C` (`n`
/// columns) at `(i0, j0)`.
#[inline(always)]
fn store<const W: usize>(
    acc: &[[f32; W]; MR],
    c: &mut [f32],
    n: usize,
    (i0, j0): (usize, usize),
    (rows, cols): (usize, usize),
) {
    for (r, lanes) in acc.iter().enumerate().take(rows) {
        let at = (i0 + r) * n + j0;
        if cols >= W {
            c[at..at + W].copy_from_slice(lanes);
        } else {
            c[at..at + cols].copy_from_slice(&lanes[..cols]);
        }
    }
}

/// The body of [`gemm_packed`], compiled once per level, for tiles `W`
/// columns wide: one tile per `B` panel (`W = NR`) or two (`W = NR / 2`).
#[inline(always)]
fn gemm_tiles<const W: usize>(m: usize, k: usize, n: usize, pa: &[f32], pb: &[f32], c: &mut [f32]) {
    const { assert!(W == NR || 2 * W == NR) };
    let a_panels = &pa[..m.div_ceil(MR) * k * MR];
    let b_panels = &pb[..n.div_ceil(NR) * k * NR];
    for (jp, bp) in b_panels.chunks_exact(k * NR).enumerate() {
        let j0 = jp * NR;
        let width = NR.min(n - j0);
        for (ip, ap) in a_panels.chunks_exact(k * MR).enumerate() {
            let i0 = ip * MR;
            store(&tile::<W, 0>(ap, bp), c, n, (i0, j0), (m - i0, width));
            if W < width {
                store(
                    &tile::<W, W>(ap, bp),
                    c,
                    n,
                    (i0, j0 + W),
                    (m - i0, width - W),
                );
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_tiles_avx2(m: usize, k: usize, n: usize, pa: &[f32], pb: &[f32], c: &mut [f32]) {
    gemm_tiles::<NR>(m, k, n, pa, pb, c);
}

/// Writes `C = A · B` (`m × n`, row-major, every element overwritten) from
/// operands packed by [`pack`] with inner dimension `k`, at
/// [`kernel_level`]. Sequential: the caller decides what runs in parallel.
pub(crate) fn gemm_packed(m: usize, k: usize, n: usize, pa: &[f32], pb: &[f32], c: &mut [f32]) {
    debug_assert_eq!(c.len(), m * n);
    if k == 0 {
        c.fill(0.0);
        return;
    }
    match kernel_level() {
        KernelLevel::Baseline => gemm_tiles::<{ NR / 2 }>(m, k, n, pa, pb, c),
        // SAFETY: `kernel_level` is `Avx2` only after
        // `is_x86_feature_detected!("avx2")` found the feature on this CPU
        // (`KernelLevel::is_supported`, checked on detection and by
        // `force_kernel_level`).
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { gemm_tiles_avx2(m, k, n, pa, pb, c) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelLevel::Avx2 => unreachable!("avx2 is never supported off x86-64"),
    }
}

/// Columns of `C` per parallel task in [`gemm`]: two `B` panels.
const TASK_COLS: usize = 2 * NR;

/// Writes `C = A · B` for the `m × k` view `a` and the `k × n` view `b`
/// into the row-major `m × n` slice `c` (every element overwritten).
///
/// `A` — in the kernels' shapes the small operand (filters, batch rows) —
/// is packed once into the calling thread's scratch. `C` is computed in
/// blocks of `TASK_COLS` columns on the `wootz-par` pool (inline when the
/// product is below the grain); each task packs its own columns of `B`, so
/// packing the large operand is parallel too, and writes a row-major
/// `m × TASK_COLS` block that is then copied into place.
pub(crate) fn gemm(a: MatRef, b: MatRef, m: usize, k: usize, n: usize, c: &mut [f32]) {
    assert_eq!(c.len(), m * n, "gemm: output length");
    if c.is_empty() || k == 0 {
        c.fill(0.0);
        return;
    }
    with_call_scratch(|s| {
        let Scratch {
            a: pa, c: blocks, ..
        } = s;
        pack::<MR>(a.t(), k, m, pa);
        let pa: &[f32] = pa;
        let blocks = scratch(blocks, m * n);
        let flops = 2 * (m as u64) * (k as u64) * (n as u64);
        wootz_par::parallel_chunks_mut_grained(blocks, m * TASK_COLS, flops, |g, block| {
            let cols = block.len() / m;
            with_lane_scratch(|lane| {
                pack::<NR>(b.skip_cols(g * TASK_COLS), k, cols, &mut lane.b);
                gemm_packed(m, k, cols, pa, &lane.b, block);
            });
        });
        for (g, block) in blocks.chunks(m * TASK_COLS).enumerate() {
            let (j0, cols) = (g * TASK_COLS, block.len() / m);
            for (crow, brow) in c.chunks_exact_mut(n).zip(block.chunks_exact(cols)) {
                crow[j0..j0 + cols].copy_from_slice(brow);
            }
        }
    });
}

/// Checks that `a` and `b` are rank-2 with matching inner dimensions,
/// returning `(m, k, n)`.
fn check_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), ShapeError> {
    let (sa, sb) = (a.shape(), b.shape());
    if sa.len() != 2 || sb.len() != 2 {
        return Err(ShapeError::new(format!(
            "matmul: expected rank-2 operands, got a {sa:?} vs b {sb:?}"
        )));
    }
    if sa[1] != sb[0] {
        return Err(ShapeError::new(format!(
            "matmul inner dims: a {sa:?} vs b {sb:?}"
        )));
    }
    Ok((sa[0], sa[1], sb[1]))
}

/// Computes `C = A * B` for `A: [m, k]`, `B: [k, n]`, returning a
/// [`ShapeError`] when the operands are not rank-2 or the inner dimensions
/// disagree.
///
/// Runs the register-tiled core (see the module docs), in parallel over
/// column blocks of `C` when the product is above the `wootz-par` grain.
///
/// ```
/// use wootz_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
/// let id = Tensor::from_vec(vec![1., 0., 0., 1.], &[2, 2]).unwrap();
/// assert_eq!(ops::try_matmul(&a, &id).unwrap().data(), a.data());
/// assert!(ops::try_matmul(&a, &Tensor::zeros(&[3, 2])).is_err());
/// ```
pub fn try_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, k, n) = check_dims(a, b)?;
    let mut out = vec![0.0f32; m * n];
    gemm(
        MatRef::rows(a.data(), k),
        MatRef::rows(b.data(), n),
        m,
        k,
        n,
        &mut out,
    );
    Ok(Tensor::from_vec(out, &[m, n]).expect("matmul output shape"))
}

/// Computes `C = A * B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics when the shapes are not rank-2 or the inner dimensions disagree
/// (the [`try_matmul`] error, e.g. `matmul inner dims: a [2, 3] vs b
/// [4, 2]`) — callers are internal kernels that guarantee shape agreement.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    match try_matmul(a, b) {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    /// `gemm` over arbitrary views, into a fresh `[m, n]` tensor.
    fn gemm_t(a: MatRef, b: MatRef, m: usize, k: usize, n: usize) -> Tensor {
        let mut out = vec![f32::NAN; m * n];
        gemm(a, b, m, k, n, &mut out);
        t(&out, &[m, n])
    }

    #[test]
    fn matmul_small() {
        let a = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = t(&[7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_variants_agree_with_plain() {
        let a = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = t(&[1., 0., 2., -1., 3., 1.], &[2, 3]);
        // A^T (3x2) * B (2x3) == matmul of explicit transpose.
        let at = t(&[1., 4., 2., 5., 3., 6.], &[3, 2]);
        let tn = gemm_t(
            MatRef::rows(a.data(), 3).t(),
            MatRef::rows(b.data(), 3),
            3,
            2,
            3,
        );
        assert_eq!(tn, matmul(&at, &b));
        // A (2x3) * B^T (3x2)
        let bt = t(&[1., -1., 0., 3., 2., 1.], &[3, 2]);
        let nt = gemm_t(
            MatRef::rows(a.data(), 3),
            MatRef::rows(b.data(), 3).t(),
            2,
            3,
            2,
        );
        assert_eq!(nt, matmul(&a, &bt));
    }

    #[test]
    fn empty_dimensions() {
        let c = gemm_t(MatRef::rows(&[], 0), MatRef::rows(&[], 3), 2, 0, 3);
        assert_eq!(c.data(), &[0.0; 6]);
        // Wider than one task block.
        let c = gemm_t(MatRef::rows(&[], 0), MatRef::rows(&[], 40), 2, 0, 40);
        assert_eq!(c.data(), &[0.0; 80]);
        assert_eq!(
            matmul(&Tensor::zeros(&[0, 3]), &Tensor::ones(&[3, 2])).shape(),
            &[0, 2]
        );
        assert_eq!(
            matmul(&Tensor::ones(&[2, 3]), &Tensor::zeros(&[3, 0])).shape(),
            &[2, 0]
        );
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_checks_inner_dims() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn try_matmul_reports_shapes() {
        let err = try_matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("[2, 3]") && msg.contains("[4, 2]"), "{msg}");
        let err = try_matmul(&Tensor::zeros(&[2, 3, 1]), &Tensor::zeros(&[3, 2])).unwrap_err();
        assert!(err.to_string().contains("rank-2"), "{err}");
    }

    #[test]
    fn kernel_levels_are_detected_reported_and_checked() {
        let supported = KernelLevel::supported();
        assert_eq!(supported[0], KernelLevel::Baseline);
        assert!(supported.contains(&kernel_level()));
        let gauge = wootz_obs::gauge("tensor.kernel_level");
        for level in KernelLevel::ALL {
            match force_kernel_level(level) {
                Ok(()) => {
                    assert!(level.is_supported());
                    assert_eq!(kernel_level(), level);
                    assert_eq!(gauge.get(), f64::from(level.vector_bits()));
                }
                Err(e) => {
                    assert!(!level.is_supported());
                    assert!(e.contains(level.name()), "{e}");
                }
            }
        }
        force_kernel_level(*supported.last().expect("baseline")).expect("supported");
    }

    #[test]
    fn wide_matmul_spans_many_row_blocks() {
        // Ragged in every dimension and wider than one task block, so the
        // edge tiles and the split into column blocks are both exercised.
        let m = 23;
        let k = 7;
        let n = 45;
        let a: Vec<f32> = (0..m * k).map(|v| (v % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v % 7) as f32 * 0.5).collect();
        let a = t(&a, &[m, k]);
        let b = t(&b, &[k, n]);
        let c = matmul(&a, &b);
        // Reference: naive sequential triple loop.
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    want[i * n + j] += a.data()[i * k + p] * b.data()[p * n + j];
                }
            }
        }
        assert_eq!(c.data(), &want[..]);
    }
}
