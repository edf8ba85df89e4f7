//! Concurrency and nesting behavior of the global `wootz-obs` registry.
//!
//! These tests share one process-global registry and run on the harness's
//! parallel test threads, so every assertion filters by names unique to its
//! test — exactly how instrumented library code must behave too.

use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn counters_are_exact_under_contention() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let counter = wootz_obs::counter("test.contended.counter");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                // Clone through the public handle as kernels do.
                let local = wootz_obs::counter("test.contended.counter");
                for _ in 0..PER_THREAD {
                    local.incr();
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn histograms_count_every_concurrent_record() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 5_000;
    let hist = wootz_obs::histogram("test.contended.histogram");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let local = wootz_obs::histogram("test.contended.histogram");
                for i in 0..PER_THREAD {
                    local.record(t * PER_THREAD + i + 1);
                }
            });
        }
    });
    assert_eq!(hist.count(), THREADS * PER_THREAD);
    assert_eq!(hist.min(), 1);
    assert_eq!(hist.max(), THREADS * PER_THREAD);
}

#[test]
fn span_paths_nest_per_thread() {
    wootz_obs::enable();
    std::thread::scope(|scope| {
        for worker in 0..3usize {
            scope.spawn(move || {
                let _outer = wootz_obs::span("test.nest.outer").with("worker", worker);
                let _inner = wootz_obs::span("test.nest.inner");
            });
        }
    });
    let report = wootz_obs::snapshot();
    let inners: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name == "test.nest.inner")
        .collect();
    assert_eq!(inners.len(), 3);
    for inner in inners {
        // Each worker thread keeps its own stack: the inner span's path is
        // rooted at its own thread's outer span, never a sibling's.
        assert_eq!(inner.path, "test.nest.outer/test.nest.inner");
        assert_eq!(inner.depth, 1);
    }
    let outers = report
        .spans
        .iter()
        .filter(|s| s.name == "test.nest.outer")
        .count();
    assert_eq!(outers, 3);
}

#[test]
fn spans_record_in_drop_order() {
    wootz_obs::enable();
    let before = wootz_obs::snapshot()
        .spans
        .iter()
        .filter(|s| s.name.starts_with("test.order."))
        .count();
    assert_eq!(before, 0);
    {
        let _a = wootz_obs::span("test.order.a");
        let _b = wootz_obs::span("test.order.b");
    } // b drops first, then a
    let report = wootz_obs::snapshot();
    let names: Vec<&str> = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("test.order."))
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(names, vec!["test.order.b", "test.order.a"]);
}

#[test]
fn gauge_set_is_last_write_wins_not_lost() {
    // Gauges are not atomically aggregated across writers (last write
    // wins), but every write must be a full, untorn f64.
    let gauge = wootz_obs::gauge("test.gauge.torn");
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let done = &done;
            scope.spawn(move || {
                let local = wootz_obs::gauge("test.gauge.torn");
                for _ in 0..1_000 {
                    local.set(f64::from(t + 1) * 1.5);
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), 4);
    let v = gauge.get();
    assert!([1.5, 3.0, 4.5, 6.0].contains(&v), "torn gauge read: {v}");
}
