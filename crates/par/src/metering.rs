//! Always-on pool accounting, following the `OBSERVABILITY.md` rules: hot
//! paths touch counters/histograms only, with every handle cached in a
//! `OnceLock` so the registry map is consulted exactly once per instrument.
//!
//! Instruments (inventoried in `OBSERVABILITY.md`):
//!
//! - `par.batches` — parallel batches actually fanned out to the pool;
//! - `par.inline_batches` — batches short-circuited to the sequential path
//!   (below the `GRAIN_FLOPS` grain, single task, pool of one, or nested
//!   inside another task);
//! - `par.tasks` — tasks executed by the pool (workers + caller);
//! - `par.caller_tasks` — the subset of `par.tasks` run by the submitting
//!   thread itself (caller participation / load-balance signal);
//! - `par.task_panics` — tasks that unwound (the payload re-raises once on
//!   the caller);
//! - `par.chunk_wall_us` — wall time per pool-executed task, microseconds.

use std::sync::OnceLock;
use wootz_obs::{Counter, Histogram};

macro_rules! static_counter {
    ($fn_name:ident, $metric:literal) => {
        /// Cached handle to the global counter `
        #[doc = $metric]
        /// `.
        pub(crate) fn $fn_name() -> &'static Counter {
            static CELL: OnceLock<Counter> = OnceLock::new();
            CELL.get_or_init(|| wootz_obs::counter($metric))
        }
    };
}

static_counter!(batches, "par.batches");
static_counter!(inline_batches, "par.inline_batches");
static_counter!(tasks, "par.tasks");
static_counter!(caller_tasks, "par.caller_tasks");
static_counter!(task_panics, "par.task_panics");

/// Cached handle to the global histogram `par.chunk_wall_us`.
pub(crate) fn chunk_wall_us() -> &'static Histogram {
    static CELL: OnceLock<Histogram> = OnceLock::new();
    CELL.get_or_init(|| wootz_obs::histogram("par.chunk_wall_us"))
}
