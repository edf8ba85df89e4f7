//! A size-classed buffer pool for execution-time tensors.
//!
//! [`TensorArena`] recycles the `Vec<f32>` backing stores of activations,
//! gradients and kernel caches between training steps. Buffers are pooled by
//! **size class** — the exact element count — so a `[2, 8]` tensor recycled
//! into the pool can back a `[4, 4]` tensor on the next [`TensorArena::take`]
//! (same 16-element class, different shape).
//!
//! ## Determinism contract
//!
//! `take(shape)` always returns an **all-zero** tensor of `shape`, whether
//! the backing buffer is fresh (`vec![0.0; n]`) or reused (`fill(0.0)` on a
//! pooled buffer). Execution results therefore never depend on arena history:
//! a planned executor running against a warm arena is bit-identical to one
//! running against a cold arena, and to an interpreter allocating fresh
//! zeroed tensors. See `DESIGN.md` §10.
//!
//! ## Panic safety
//!
//! Recycling is explicit. If a step panics (or errors out) mid-flight, the
//! tensors it took are simply dropped with the unwinding stack — they never
//! re-enter the pool, so a poisoned step cannot leak a dirty buffer into the
//! next step. The zero-on-reuse rule makes even an *explicitly* recycled
//! dirty buffer invisible to later takes.
//!
//! ## Observability
//!
//! Every arena mirrors its local [`ArenaStats`] into the global `arena.*`
//! counters (`arena.takes`, `arena.fresh`, `arena.reuses`,
//! `arena.recycles`) and the `arena.peak_live_bytes` gauge — see
//! `OBSERVABILITY.md` for the inventory. The per-instance stats are what
//! `wootz-core`'s zero-steady-state-allocation test (`tests/memory.rs`)
//! reads.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use wootz_obs::{Counter, Gauge};

use crate::shape::num_elements;
use crate::Tensor;

macro_rules! arena_counter {
    ($fn_name:ident, $metric:literal) => {
        /// Cached handle to the global counter `
        #[doc = $metric]
        /// `.
        fn $fn_name() -> &'static Counter {
            static CELL: OnceLock<Counter> = OnceLock::new();
            CELL.get_or_init(|| wootz_obs::counter($metric))
        }
    };
}

arena_counter!(takes_counter, "arena.takes");
arena_counter!(fresh_counter, "arena.fresh");
arena_counter!(reuses_counter, "arena.reuses");
arena_counter!(recycles_counter, "arena.recycles");

fn peak_live_gauge() -> &'static Gauge {
    static CELL: OnceLock<Gauge> = OnceLock::new();
    CELL.get_or_init(|| wootz_obs::gauge("arena.peak_live_bytes"))
}

/// Running totals of one [`TensorArena`]'s activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Tensors handed out by [`TensorArena::take`].
    pub takes: u64,
    /// Takes that had to allocate a fresh backing buffer (pool miss). Zero
    /// per step in steady state is the planned executor's headline claim.
    pub fresh: u64,
    /// Takes served by re-zeroing a pooled buffer (pool hit).
    pub reuses: u64,
    /// Buffers returned by [`TensorArena::recycle`].
    pub recycles: u64,
    /// Bytes currently live (taken and not yet recycled).
    pub live_bytes: usize,
    /// High-water mark of [`ArenaStats::live_bytes`].
    pub peak_live_bytes: usize,
    /// Bytes parked in the free pool, ready for reuse.
    pub pooled_bytes: usize,
}

/// A size-classed pool of tensor backing buffers with zero-on-reuse
/// semantics. See the [module docs](self) for the contract.
#[derive(Debug, Default)]
pub struct TensorArena {
    /// element-count size class → free buffers of exactly that length.
    pools: BTreeMap<usize, Vec<Vec<f32>>>,
    stats: ArenaStats,
}

impl TensorArena {
    /// An empty arena.
    pub fn new() -> Self {
        TensorArena::default()
    }

    /// Hands out an all-zero tensor of `shape`, reusing a pooled buffer of
    /// the same size class when one is available and allocating otherwise.
    pub fn take(&mut self, shape: &[usize]) -> Tensor {
        let n = num_elements(shape);
        self.stats.takes += 1;
        takes_counter().incr();
        let data = match self.pools.get_mut(&n).and_then(Vec::pop) {
            Some(mut buf) => {
                debug_assert_eq!(buf.len(), n);
                buf.fill(0.0);
                self.stats.reuses += 1;
                self.stats.pooled_bytes = self.stats.pooled_bytes.saturating_sub(4 * n);
                reuses_counter().incr();
                buf
            }
            None => {
                self.stats.fresh += 1;
                fresh_counter().incr();
                vec![0.0f32; n]
            }
        };
        self.stats.live_bytes += 4 * n;
        if self.stats.live_bytes > self.stats.peak_live_bytes {
            self.stats.peak_live_bytes = self.stats.live_bytes;
            peak_live_gauge().set(self.stats.peak_live_bytes as f64);
        }
        Tensor::from_vec(data, shape).expect("arena take: buffer sized for shape")
    }

    /// Returns a tensor's backing buffer to the pool for later reuse.
    ///
    /// The buffer's contents are irrelevant — [`TensorArena::take`] zeroes
    /// on reuse — so recycling a half-written tensor from an aborted step is
    /// harmless.
    pub fn recycle(&mut self, t: Tensor) {
        let n = t.len();
        self.stats.recycles += 1;
        recycles_counter().incr();
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(4 * n);
        self.stats.pooled_bytes += 4 * n;
        self.pools.entry(n).or_default().push(t.into_vec());
    }

    /// Current statistics.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Resets the `fresh`/`reuses`/`takes`/`recycles` counts and the peak
    /// watermark while keeping the pool itself warm, so each step of a
    /// warm training loop can be read on its own.
    pub fn reset_stats(&mut self) {
        let live = self.stats.live_bytes;
        let pooled = self.stats.pooled_bytes;
        self.stats = ArenaStats {
            live_bytes: live,
            peak_live_bytes: live,
            pooled_bytes: pooled,
            ..ArenaStats::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_always_zeroed_and_shaped() {
        let mut arena = TensorArena::new();
        let mut t = arena.take(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        t.data_mut().fill(7.0);
        arena.recycle(t);
        // Reuse from the pool must be zeroed again.
        let t2 = arena.take(&[2, 3]);
        assert!(t2.data().iter().all(|&v| v == 0.0));
        let s = arena.stats();
        assert_eq!((s.takes, s.fresh, s.reuses, s.recycles), (2, 1, 1, 1));
    }

    #[test]
    fn size_classes_pool_by_element_count_not_shape() {
        let mut arena = TensorArena::new();
        let t = arena.take(&[2, 8]);
        arena.recycle(t);
        // Same 16-element class, different shape: must be a pool hit.
        let t2 = arena.take(&[4, 4]);
        assert_eq!(t2.shape(), &[4, 4]);
        assert_eq!(arena.stats().fresh, 1);
        assert_eq!(arena.stats().reuses, 1);
    }

    #[test]
    fn live_and_pooled_bytes_track_takes_and_recycles() {
        let mut arena = TensorArena::new();
        let a = arena.take(&[4]); // 16 bytes
        let b = arena.take(&[8]); // 32 bytes
        assert_eq!(arena.stats().live_bytes, 48);
        assert_eq!(arena.stats().peak_live_bytes, 48);
        arena.recycle(a);
        assert_eq!(arena.stats().live_bytes, 32);
        assert_eq!(arena.stats().pooled_bytes, 16);
        arena.recycle(b);
        assert_eq!(arena.stats().live_bytes, 0);
        assert_eq!(arena.stats().peak_live_bytes, 48);
    }

    #[test]
    fn zero_sized_tensors_round_trip_without_byte_accounting() {
        let mut arena = TensorArena::new();
        let t = arena.take(&[0]);
        assert_eq!(t.shape(), &[0]);
        assert_eq!(t.len(), 0);
        assert_eq!(arena.stats().live_bytes, 0);
        assert_eq!(arena.stats().peak_live_bytes, 0);
        arena.recycle(t);
        // A [3,0] tensor is the same (empty) size class as [0]: pool hit.
        let t2 = arena.take(&[3, 0]);
        assert_eq!(t2.shape(), &[3, 0]);
        let s = arena.stats();
        assert_eq!((s.fresh, s.reuses), (1, 1));
        assert_eq!(s.live_bytes, 0);
        arena.recycle(t2);
        assert_eq!(arena.stats().pooled_bytes, 0);
    }

    #[test]
    fn shape_can_change_between_takes_within_a_size_class() {
        let mut arena = TensorArena::new();
        let mut t = arena.take(&[2, 6]);
        t.data_mut().fill(3.5);
        arena.recycle(t);
        // Cycle through several shapes of the same 12-element class: every
        // take is a zeroed pool hit with the freshly requested shape.
        for shape in [&[12][..], &[3, 4][..], &[1, 3, 2, 2][..], &[2, 6][..]] {
            let mut t = arena.take(shape);
            assert_eq!(t.shape(), shape);
            assert!(
                t.data().iter().all(|&v| v == 0.0),
                "stale data for {shape:?}"
            );
            t.data_mut().fill(-1.0);
            arena.recycle(t);
        }
        let s = arena.stats();
        assert_eq!((s.fresh, s.reuses), (1, 4));
    }

    #[test]
    fn recycle_after_panic_hands_back_a_zeroed_buffer() {
        // A step that panics mid-kernel leaves a half-written tensor
        // behind. Recycling it must be safe: the next take in its size
        // class zeroes on reuse, so no garbage leaks into a later step.
        let mut arena = TensorArena::new();
        let mut t = arena.take(&[4]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.data_mut()[..2].fill(f32::NAN); // partial write...
            panic!("injected mid-kernel fault");
        }));
        assert!(err.is_err());
        arena.recycle(t); // recovery path: recycle the aborted buffer
        let t2 = arena.take(&[4]);
        assert_eq!(arena.stats().reuses, 1);
        assert!(t2.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reset_stats_keeps_pool_warm() {
        let mut arena = TensorArena::new();
        let t = arena.take(&[4]);
        arena.recycle(t);
        arena.reset_stats();
        assert_eq!(arena.stats().takes, 0);
        let _t = arena.take(&[4]);
        // Warm pool: no fresh allocation after the reset.
        assert_eq!(arena.stats().fresh, 0);
        assert_eq!(arena.stats().reuses, 1);
    }
}
