//! # wootz-par
//!
//! A std-only, dependency-free thread pool with a *deterministic* chunked
//! parallelism API, built for the Wootz CNN kernels (`wootz-tensor`) and the
//! training/pre-training drivers above them.
//!
//! ## Why another pool
//!
//! The build environment has no crate registry, so rayon is out; and the
//! Wootz reproduction has a determinism contract that generic work-stealing
//! pools do not give for free: **every parallel result must be bit-identical
//! to the single-threaded result**, because the exploration pipeline, the
//! run journal and the distributed runtime (DESIGN.md §9) all compare and
//! resume results byte-for-byte. This crate guarantees that by construction:
//!
//! * [`parallel_map`] / [`parallel_chunks`] / [`parallel_chunks_mut`] return
//!   results **in task order**, so reductions merge in a fixed order chosen
//!   by the *caller*, never by thread scheduling;
//! * chunk boundaries are an explicit caller argument (`chunk_len`), never a
//!   function of the worker count — callers that reduce across chunks pick
//!   boundaries from the problem shape alone (the kernels use one sample or
//!   one GEMM column block per chunk), so the partial sums are the same no
//!   matter how many threads run them;
//! * tasks write **disjoint** outputs (enforced by the API shapes), so the
//!   non-reduction kernels are trivially order-independent;
//! * whether a kernel batch fans out at all is decided by its work alone:
//!   [`parallel_chunks_mut_grained`] runs a batch below [`GRAIN_FLOPS`]
//!   inline, on any pool size.
//!
//! See `PERFORMANCE.md` at the repository root for the full determinism
//! contract and how the kernels use this API.
//!
//! ## Pool model
//!
//! One process-global [`Pool`] is created lazily, sized by (in priority
//! order) [`set_threads`] — wired to the CLIs' `--threads` flag — then the
//! `WOOTZ_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. The submitting thread always
//! participates in its own batch, so a pool of size `t` runs `t-1` worker
//! threads; size 1 means every call runs inline with zero overhead, making
//! the single-threaded path *literally* the sequential code.
//!
//! A parallel region inside a pool task (a nested call) goes where the
//! outer batch left room. When the outer batch has at least as many tasks
//! as the pool has threads, every thread already has work, so the nested
//! call runs inline on the task's own thread: its innermost loops stay
//! sequential exactly like the pre-parallel kernels. A narrower outer batch
//! (two evaluations on a pool of four) leaves threads idle, so its tasks
//! fan their nested calls out to the *same* pool — the one the task runs
//! on, whether the global pool or a private [`with_pool`] pool. Nesting
//! never deadlocks: a submitter runs its own batch's unclaimed tasks and
//! then waits only for tasks already running, and it never starts another
//! batch's task while it waits.
//!
//! Panics inside a task are caught on the worker, the batch is drained, and
//! the **first** panic payload is re-raised on the submitting thread once
//! the batch is complete. Workers survive; the pool stays usable.
//!
//! ## Example
//!
//! ```
//! // Ordered per-chunk sums: the merge order is the chunk order, so the
//! // reduction is deterministic for any worker count.
//! let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
//! let partial = wootz_par::parallel_chunks(&data, 4, |_idx, c| c.iter().sum::<f32>());
//! assert_eq!(partial, vec![6.0, 22.0, 17.0]);
//! let total: f32 = partial.iter().sum();
//! assert_eq!(total, 45.0);
//! ```
//!
//! ## Observability
//!
//! Per `OBSERVABILITY.md`: always-on counters `par.batches`,
//! `par.inline_batches`, `par.tasks`, `par.caller_tasks`, `par.task_panics`
//! and the `par.chunk_wall_us` histogram (wall time per pool-executed
//! chunk). Handles are cached in `OnceLock`s; the inline fast path touches a
//! single relaxed atomic.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

mod metering;

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// Thread count configured via [`set_threads`]; 0 = unset.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker-thread budget for the process-global pool.
///
/// Must be called **before** the first parallel operation (the CLIs do this
/// while parsing `--threads`); once the global pool has been built the call
/// only affects [`configured_threads`], not the live pool. Values are
/// clamped to at least 1.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n.max(1), Ordering::Relaxed);
}

/// The thread budget the global pool is (or will be) sized with:
/// [`set_threads`] if called, else the `WOOTZ_THREADS` environment variable,
/// else [`std::thread::available_parallelism`] (1 on failure).
pub fn configured_threads() -> usize {
    let c = CONFIGURED.load(Ordering::Relaxed);
    if c > 0 {
        return c;
    }
    if let Ok(s) = std::env::var("WOOTZ_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The size of the pool the *current* call site would use: inside a pool
/// task, the pool that runs it; else the [`with_pool`] override if one is
/// active on this thread; else the live global pool's size, else
/// [`configured_threads`].
pub fn current_threads() -> usize {
    if let Some(task) = TASK.with(Cell::get) {
        // Safety: the task's pool outlives every task it runs.
        return unsafe { task.pool.as_ref() }.threads;
    }
    if let Some(p) = OVERRIDE.with(Cell::get) {
        // Safety: the override pointer is valid for the whole `with_pool`
        // scope, which encloses this call.
        return unsafe { p.as_ref() }.threads();
    }
    GLOBAL
        .get()
        .map(Pool::threads)
        .unwrap_or_else(configured_threads)
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

fn global_pool() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(configured_threads()))
}

/// What a thread running a pool task knows about that task's batch.
#[derive(Clone, Copy)]
struct TaskCx {
    /// The pool the batch runs on: a worker's `Arc` or the submitter's
    /// borrow keeps it alive while the task runs.
    pool: NonNull<PoolShared>,
    /// The batch's task count.
    total: usize,
}

thread_local! {
    /// The batch of the pool task this thread is executing (worker or
    /// participating caller), which decides where nested calls go.
    static TASK: Cell<Option<TaskCx>> = const { Cell::new(None) };
    /// Scoped pool override installed by [`with_pool`].
    static OVERRIDE: Cell<Option<NonNull<Pool>>> = const { Cell::new(None) };
}

/// Runs `f` with all parallel operations on the *current thread* dispatched
/// to `pool` instead of the process-global pool.
///
/// This is how the determinism tests compare 1-thread and N-thread
/// executions inside one process. The override is thread-local and
/// restored on exit (including panics); tasks running *on* `pool`'s
/// workers place their nested regions on `pool` by the nesting rule (crate
/// docs), and an override set inside a pool task does not move them.
///
/// ```
/// let one = wootz_par::Pool::new(1);
/// let four = wootz_par::Pool::new(4);
/// let a = wootz_par::with_pool(&one, || wootz_par::parallel_map(8, |i| i * i));
/// let b = wootz_par::with_pool(&four, || wootz_par::parallel_map(8, |i| i * i));
/// assert_eq!(a, b);
/// ```
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Guard(Option<NonNull<Pool>>);
    impl Drop for Guard {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(Some(NonNull::from(pool))));
    let _g = Guard(prev);
    f()
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A batch of `total` index-addressed tasks sharing one erased closure.
///
/// Workers (and the submitting caller) claim indices with a single
/// `fetch_add`; the closure pointer is only dereferenced for claimed indices
/// `< total`, all of which complete before the submitting frame returns — so
/// the erased borrow never outlives its referent even though stale `Arc`s
/// may linger in the queue.
struct Batch {
    /// Borrowed from the submitting frame; valid until `done == total`.
    f: *const (dyn Fn(usize) + Sync + 'static),
    /// The pool the batch was submitted to.
    pool: NonNull<PoolShared>,
    total: usize,
    next: AtomicUsize,
    state: Mutex<BatchState>,
    cv: Condvar,
}

struct BatchState {
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

// Safety: `f` points at a `Sync` closure and `pool` at the `Sync` shared
// state of a pool that outlives the batch's tasks; all other fields are
// Sync. `f` is only dereferenced under the batch-lifetime argument above.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs tasks until the batch is exhausted. `caller` marks
    /// the submitting thread (for the `par.caller_tasks` counter).
    fn run_tasks(&self, caller: bool) {
        struct TaskGuard(Option<TaskCx>);
        impl Drop for TaskGuard {
            fn drop(&mut self) {
                TASK.with(|c| c.set(self.0));
            }
        }
        let cx = TaskCx {
            pool: self.pool,
            total: self.total,
        };
        let prev = TASK.with(|c| c.replace(Some(cx)));
        let _guard = TaskGuard(prev);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            let start = Instant::now();
            // Safety: `i < total`, so the submitting frame is still waiting
            // on this batch and the closure borrow is alive.
            let f = unsafe { &*self.f };
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            metering::tasks().incr();
            if caller {
                metering::caller_tasks().incr();
            }
            metering::chunk_wall_us().record(start.elapsed().as_micros() as u64);
            let mut st = self.state.lock().unwrap();
            st.done += 1;
            if let Err(payload) = result {
                metering::task_panics().incr();
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            if st.done == self.total {
                self.cv.notify_all();
            }
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Total concurrency: the worker threads plus a submitting thread.
    threads: usize,
}

/// A fixed-size thread pool executing index-addressed task batches.
///
/// A pool of size `t` spawns `t - 1` OS worker threads; the submitting
/// thread runs tasks too, so `t` is the total concurrency. Size 1 spawns
/// nothing and every batch runs inline. The process-global instance is
/// created lazily (see [`configured_threads`]); explicit instances are for
/// benchmarks and tests via [`with_pool`].
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with total concurrency `threads` (clamped to ≥ 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wootz-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn wootz-par worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Total concurrency (worker threads + the submitting thread).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }
}

impl PoolShared {
    /// Runs `total` tasks `f(0..total)` to completion, sharing them with the
    /// worker threads. Re-raises the first task panic after the batch
    /// drains.
    ///
    /// The submitting thread runs only this batch's tasks and then sleeps
    /// until the ones other threads claimed are done; it never starts
    /// another batch's task here. That is what lets a kernel hold its
    /// thread's call-level scratch across the call: no task of another
    /// kernel can run on this thread and borrow it again.
    fn run_batch(&self, total: usize, f: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        // Safety: lifetime erasure only — the batch is joined below before
        // this frame returns, and stale queue entries never dereference `f`.
        let f: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(f) };
        let batch = Arc::new(Batch {
            f,
            pool: NonNull::from(self),
            total,
            next: AtomicUsize::new(0),
            state: Mutex::new(BatchState {
                done: 0,
                panic: None,
            }),
            cv: Condvar::new(),
        });
        // One queue entry per worker that could usefully join (the caller
        // participates on its own, so `total - 1` helpers suffice).
        let copies = (self.threads - 1).min(total - 1);
        if copies > 0 {
            let mut q = self.queue.lock().unwrap();
            for _ in 0..copies {
                q.push_back(Arc::clone(&batch));
            }
            drop(q);
            self.cv.notify_all();
        }
        batch.run_tasks(true);
        let mut st = batch.state.lock().unwrap();
        while st.done < total {
            st = batch.cv.wait(st).unwrap();
        }
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under that
        // lock just before it waits, so it either sees the flag or is already
        // waiting when the notification comes — never neither, which would
        // leave `join` below waiting forever.
        {
            let queue = &self.shared.queue;
            let _guard = queue.lock().unwrap_or_else(PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(b) = q.pop_front() {
                    break b;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.cv.wait(q).unwrap();
            }
        };
        batch.run_tasks(false);
    }
}

// ---------------------------------------------------------------------------
// Public parallel primitives
// ---------------------------------------------------------------------------

/// `&[UnsafeCell<Option<R>>]` shared across tasks; each task writes exactly
/// its own index, so the aliasing is disjoint by construction.
struct Slots<'a, R>(&'a [UnsafeCell<Option<R>>]);
unsafe impl<R: Send> Sync for Slots<'_, R> {}
impl<R> Clone for Slots<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for Slots<'_, R> {}

/// A raw pointer that may cross threads; used to hand each task its own
/// disjoint sub-slice in [`parallel_chunks_mut`].
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Runs `f(0..total)` across the pool and returns the results **in index
/// order** — the deterministic-reduction primitive everything else builds
/// on.
///
/// Runs inline (sequentially, bit-identically) when `total <= 1`, when the
/// effective pool size is 1, or when called from a pool task whose own
/// batch fills the pool; a task of a narrower batch fans the call out to
/// the pool it runs on (crate docs). Panics in tasks re-raise once on the
/// caller after the batch drains.
///
/// ```
/// let squares = wootz_par::parallel_map(4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub fn parallel_map<R, F>(total: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_batch(total, false, f)
}

/// [`parallel_map`] with the inline decision widened by `below_grain`.
fn map_batch<R, F>(total: usize, below_grain: bool, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if total == 0 {
        return Vec::new();
    }
    let Some(pool) = (!below_grain && total > 1).then(target_pool).flatten() else {
        metering::inline_batches().incr();
        return (0..total).map(f).collect();
    };
    // Safety: see `target_pool`; the pool outlives this call's batch.
    let pool = unsafe { pool.as_ref() };
    metering::batches().incr();
    let slots: Vec<UnsafeCell<Option<R>>> = (0..total).map(|_| UnsafeCell::new(None)).collect();
    let slots_ref = Slots(&slots);
    let f = &f;
    let wrapper = move |i: usize| {
        // Capture the whole `Slots` wrapper, not its non-`Sync` field
        // (edition-2021 disjoint capture).
        let slots_ref = slots_ref;
        let r = f(i);
        // Safety: each index is claimed exactly once (fetch_add), so this
        // write is the unique access to slot `i`.
        unsafe { *slots_ref.0[i].get() = Some(r) };
    };
    pool.run_batch(total, &wrapper);
    slots
        .into_iter()
        .map(|c| c.into_inner().expect("task wrote its result slot"))
        .collect()
}

/// The pool a batch submitted here fans out to, or `None` to run it inline:
/// inside a pool task, that task's pool unless the task's own batch fills
/// it; elsewhere the [`with_pool`] override or the global pool. A pool of
/// one thread is never a target.
fn target_pool() -> Option<NonNull<PoolShared>> {
    let task = TASK.with(Cell::get);
    let pool = match (task, OVERRIDE.with(Cell::get)) {
        (Some(task), _) => task.pool,
        // Safety: the override is valid for the enclosing `with_pool` scope.
        (None, Some(p)) => NonNull::from(&*unsafe { p.as_ref() }.shared),
        (None, None) if current_threads() <= 1 => return None,
        (None, None) => NonNull::from(&*global_pool().shared),
    };
    // Safety: a pool outlives every task it runs and every `with_pool` scope
    // it is installed in, and the global pool is never dropped.
    let threads = unsafe { pool.as_ref() }.threads;
    let full = task.is_some_and(|task| task.total >= threads);
    (threads > 1 && !full).then_some(pool)
}

/// Splits `items` into consecutive chunks of `chunk_len` (the last may be
/// shorter) and maps `f(chunk_index, chunk)` over them in parallel,
/// returning results **in chunk order**.
///
/// Pick `chunk_len` from the problem shape (one sample, one column block) —
/// never from the thread count — whenever the per-chunk results are later
/// reduced: fixed boundaries + the ordered merge make the reduction
/// bit-identical for any pool size.
///
/// ```
/// let v = [1, 2, 3, 4, 5];
/// let sums = wootz_par::parallel_chunks(&v, 2, |_i, c| c.iter().sum::<i32>());
/// assert_eq!(sums, vec![3, 7, 5]);
/// ```
pub fn parallel_chunks<T, R, F>(items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let n_chunks = len.div_ceil(chunk_len);
    parallel_map(n_chunks, |ci| {
        let start = ci * chunk_len;
        let end = (start + chunk_len).min(len);
        f(ci, &items[start..end])
    })
}

/// Like [`parallel_chunks`] but hands each task a **mutable** disjoint
/// chunk of `data` — the disjoint-write primitive behind the kernels (which
/// call it as [`parallel_chunks_mut_grained`]). Returns the per-chunk
/// results in chunk order (use `R = ()` for pure in-place work).
///
/// ```
/// let mut v = vec![0u32; 6];
/// wootz_par::parallel_chunks_mut(&mut v, 2, |ci, chunk| {
///     for x in chunk.iter_mut() {
///         *x = ci as u32;
///     }
/// });
/// assert_eq!(v, vec![0, 0, 1, 1, 2, 2]);
/// ```
pub fn parallel_chunks_mut<T, R, F>(data: &mut [T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    chunks_mut_batch(data, chunk_len, false, f)
}

/// Work, in floating-point operations, below which a kernel batch runs
/// inline instead of fanning out.
///
/// A sleeping pool thread starts its first task a median ≈ 20 µs after the
/// batch is queued on a 2-vCPU x86 VM, and until then the caller works
/// alone; so a two-thread fan-out only finishes sooner than the inline run
/// when the batch holds more than that much work. At the AVX2 GEMM core's
/// one-thread rate per counted FLOP — ≈ 17 GFLOP/s for a convolution batch
/// with its lowering, ≈ 35 GFLOP/s for a bare product — that is
/// 2¹⁸·⁵–2¹⁹·⁵ FLOPs (PERFORMANCE.md §3 has the measurement). The grain is
/// a constant on the batch's own work — never on the thread count or the
/// CPU — so whether a batch fans out is, like its chunk boundaries, a
/// function of the problem shape.
pub const GRAIN_FLOPS: u64 = 1 << 19;

/// [`parallel_chunks_mut`] for a kernel batch whose total work is `flops`:
/// a batch below [`GRAIN_FLOPS`] runs inline (counted in
/// `par.inline_batches`), exactly as on a pool of one. Chunk boundaries
/// and results are the same either way.
///
/// ```
/// let mut v = vec![0u32; 6];
/// // Six element-sized tasks are far below the grain: they run inline.
/// wootz_par::parallel_chunks_mut_grained(&mut v, 2, 6, |ci, chunk| chunk.fill(ci as u32));
/// assert_eq!(v, vec![0, 0, 1, 1, 2, 2]);
/// ```
pub fn parallel_chunks_mut_grained<T, R, F>(
    data: &mut [T],
    chunk_len: usize,
    flops: u64,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    chunks_mut_batch(data, chunk_len, flops < GRAIN_FLOPS, f)
}

fn chunks_mut_batch<T, R, F>(data: &mut [T], chunk_len: usize, below_grain: bool, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    let len = data.len();
    if len == 0 {
        return Vec::new();
    }
    let n_chunks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    let f = &f;
    map_batch(n_chunks, below_grain, move |ci| {
        // Capture the whole `SendPtr` (edition-2021 disjoint capture would
        // otherwise grab the raw `*mut T` field, which is not `Sync`).
        let base = base;
        let start = ci * chunk_len;
        let end = (start + chunk_len).min(len);
        // Safety: chunk `ci` covers `[start, end)`, disjoint from every
        // other chunk, and each index runs exactly once; `data` is borrowed
        // mutably for the whole call.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
        f(ci, chunk)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_in_order() {
        let pool = Pool::new(4);
        let out = with_pool(&pool, || parallel_map(100, |i| i * 3));
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = Pool::new(4);
        let out: Vec<usize> = with_pool(&pool, || parallel_map(0, |i| i));
        assert!(out.is_empty());
        let empty: [u8; 0] = [];
        let chunks: Vec<usize> = parallel_chunks(&empty, 8, |_i, c| c.len());
        assert!(chunks.is_empty());
        let mut none: Vec<u8> = Vec::new();
        let r: Vec<()> = parallel_chunks_mut(&mut none, 3, |_i, _c| ());
        assert!(r.is_empty());
    }

    #[test]
    fn chunk_len_larger_than_input() {
        let v = [1, 2, 3];
        let sums = parallel_chunks(&v, 64, |_i, c| c.iter().sum::<i32>());
        assert_eq!(sums, vec![6]);
    }

    #[test]
    fn zero_chunk_len_is_clamped() {
        let v = [5, 6];
        let out = parallel_chunks(&v, 0, |_i, c| c[0]);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        // One closure, run by the reference loop, inline on a pool of one
        // and by pool tasks. Its input must be opaque to the optimizer: from
        // a literal, LLVM folds `sin` at compile time through the host's
        // double-precision `sin`, whose rounding to f32 differs from the
        // libm `sinf` every run-time call makes (index 34 folds to
        // 1.3227068; `sinf` gives 1.3227067). Kernel inputs are always run
        // time data, so only the run-time result is the contract.
        let f = |i: usize| {
            let x = std::hint::black_box(i as f32);
            x.sin() * 2.5 + (-x).exp()
        };
        let seq: Vec<u32> = (0..37).map(|i| f(i).to_bits()).collect();
        for t in [1usize, 2, 4, 7] {
            let pool = Pool::new(t);
            let par = with_pool(&pool, || parallel_map(37, |i| f(i).to_bits()));
            assert_eq!(par, seq, "pool size {t}");
        }
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        // Six tasks fill a pool of three, so every nested region completes
        // inline on the thread of the task that opened it.
        let pool = Pool::new(3);
        let out = with_pool(&pool, || {
            parallel_map(6, |i| {
                let outer = std::thread::current().id();
                let inner = parallel_map(4, move |j| {
                    assert_eq!(std::thread::current().id(), outer);
                    assert_eq!(batch_len(), Some(6));
                    i * 10 + j
                });
                inner.iter().sum::<usize>()
            })
        });
        let expect: Vec<usize> = (0..6).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    /// The task count of the batch whose task is running on this thread.
    fn batch_len() -> Option<usize> {
        TASK.with(Cell::get).map(|task| task.total)
    }

    #[test]
    fn a_narrower_batch_fans_nested_calls_out_to_the_same_pool() {
        // Two evaluations on a pool of four: their kernels keep the idle
        // threads busy, on the private pool (the global one is never
        // touched: it would report its own size).
        let pool = Pool::new(4);
        let seen = with_pool(&pool, || {
            parallel_map(2, |i| {
                let mut v = vec![0usize; 64];
                let inner = parallel_chunks_mut_grained(&mut v, 8, GRAIN_FLOPS, |ci, chunk| {
                    chunk.fill(i * 100 + ci);
                    (current_threads(), batch_len())
                });
                assert_eq!(v, (0..64).map(|k| i * 100 + k / 8).collect::<Vec<_>>());
                inner
            })
        });
        for inner in seen {
            assert_eq!(inner, vec![(4, Some(8)); 8]);
        }
    }

    #[test]
    fn a_nested_panic_resurfaces_once_and_the_pool_survives() {
        let pool = Pool::new(4);
        let nested = |fail: bool| {
            parallel_map(2, move |i| {
                parallel_map(8, move |j| {
                    if fail && i == 1 && j == 5 {
                        panic!("nested boom at {i}/{j}");
                    }
                    i * 10 + j
                })
            })
        };
        let caught = with_pool(&pool, || catch_unwind(AssertUnwindSafe(|| nested(true))));
        let payload = caught.expect_err("a nested task panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "nested boom at 1/5");
        assert!(TASK.with(Cell::get).is_none());
        let after = with_pool(&pool, || nested(false));
        let expect: Vec<Vec<usize>> = (0..2)
            .map(|i| (0..8).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(after, expect);
    }

    #[test]
    fn panic_resurfaces_once_and_pool_survives() {
        let pool = Pool::new(4);
        let caught = with_pool(&pool, || {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_map(16, |i| {
                    if i == 7 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }))
        });
        let payload = caught.expect_err("task panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at"), "{msg}");
        // The pool is still functional after the panic.
        let after = with_pool(&pool, || parallel_map(8, |i| i + 1));
        assert_eq!(after, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn mutable_chunks_are_disjoint_and_complete() {
        let mut v = vec![0usize; 1000];
        let pool = Pool::new(4);
        with_pool(&pool, || {
            parallel_chunks_mut(&mut v, 13, |ci, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = ci * 13 + k;
                }
            })
        });
        assert_eq!(v, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn override_is_restored_after_panic() {
        let pool = Pool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            with_pool(&pool, || panic!("inside with_pool"))
        }));
        assert!(res.is_err());
        assert!(OVERRIDE.with(|c| c.get()).is_none());
    }

    #[test]
    fn below_grain_batches_run_inline_on_any_pool() {
        let pool = Pool::new(4);
        let fan_out = |flops: u64| {
            with_pool(&pool, || {
                let mut v = vec![0usize; 64];
                let owners = parallel_chunks_mut_grained(&mut v, 8, flops, |ci, chunk| {
                    chunk.fill(ci);
                    TASK.with(Cell::get).is_some()
                });
                assert_eq!(v, (0..64).map(|i| i / 8).collect::<Vec<_>>());
                owners.iter().any(|&in_task| in_task)
            })
        };
        // Inline chunks run on the caller outside any pool task; a fanned-out
        // batch runs every chunk inside one.
        assert!(!fan_out(GRAIN_FLOPS - 1));
        assert!(fan_out(GRAIN_FLOPS));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = with_pool(&pool, || parallel_map(5, |i| i));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }
}
