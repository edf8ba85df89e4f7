//! Observability for the Wootz pruning pipeline: hierarchical span timers,
//! atomic counters, gauges, lightweight histograms and a process-global
//! registry with NDJSON export.
//!
//! Built entirely on `std::sync` — no external runtime, no background
//! threads. The design splits instruments into two cost classes:
//!
//! - **always-on metrics** ([`Counter`], [`Gauge`], [`Histogram`]): single
//!   relaxed atomic operations, cheap enough to live inside the conv/matmul
//!   kernels. Handles are cloneable and can be cached in a `OnceLock` so the
//!   hot path never touches the registry map.
//! - **opt-in traces** ([`span`], [`event`]): recorded only after
//!   [`enable`] has been called (the CLI does this when `--metrics-out` is
//!   given). While disabled, [`span`] returns an inert guard without even
//!   reading the clock, keeping overhead on un-instrumented runs negligible.
//!
//! The export format (schema `wootz-obs/1`) and the naming scheme for
//! spans/counters are documented in `OBSERVABILITY.md` at the repository
//! root.
//!
//! # Example
//!
//! ```
//! wootz_obs::enable();
//! {
//!     let _run = wootz_obs::span("doc.outer");
//!     let _step = wootz_obs::span("doc.inner").with("index", 0usize);
//!     wootz_obs::counter("doc.flops").add(1 << 20);
//! } // spans record on drop, innermost first
//! let report = wootz_obs::snapshot();
//! let inner = report.spans.iter().find(|s| s.name == "doc.inner").unwrap();
//! assert_eq!(inner.path, "doc.outer/doc.inner");
//! assert!(report.to_ndjson().lines().count() >= 3);
//! ```

mod metrics;
mod report;
mod span;

pub use metrics::{Counter, Gauge, Histogram};
pub use report::{
    CounterRecord, EventRecord, FieldValue, GaugeRecord, HistogramRecord, Report, SpanRecord,
    SCHEMA, SCHEMA_VERSION,
};
pub use span::{EventBuilder, Span};

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A collection of instruments plus the recorded spans and events.
///
/// Most code uses the process-global registry through the free functions
/// ([`counter`], [`span`], [`snapshot`], ...); independent instances are
/// useful in tests that must not share state.
pub struct Registry {
    enabled: AtomicBool,
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Fresh, disabled registry whose epoch is "now".
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Turns span/event recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Turns span/event recording off (metrics keep accumulating).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether spans/events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Handle to the named counter, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Handle to the named gauge, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Handle to the named histogram, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Report {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| CounterRecord {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| GaugeRecord {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| HistogramRecord {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
            })
            .collect();
        Report {
            schema: SCHEMA.to_string(),
            spans: self.spans.lock().unwrap().clone(),
            events: self.events.lock().unwrap().clone(),
            counters,
            gauges,
            histograms,
        }
    }

    /// Clears spans/events and zeroes all metrics; existing handles stay
    /// attached. Intended for tests — concurrent recorders may interleave.
    pub fn reset(&self) {
        self.spans.lock().unwrap().clear();
        self.events.lock().unwrap().clear();
        for c in self.counters.lock().unwrap().values() {
            c.zero();
        }
        for g in self.gauges.lock().unwrap().values() {
            g.zero();
        }
        for h in self.histograms.lock().unwrap().values() {
            h.zero();
        }
    }

    pub(crate) fn micros_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    pub(crate) fn push_span(&self, record: SpanRecord) {
        self.spans.lock().unwrap().push(record);
    }

    pub(crate) fn push_event(&self, record: EventRecord) {
        self.events.lock().unwrap().push(record);
    }
}

/// The process-global registry used by all free functions.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Enables span/event recording on the global registry.
///
/// Metrics ([`counter`], [`gauge`], [`histogram`]) accumulate regardless;
/// this only gates the allocation-carrying trace records.
pub fn enable() {
    global().enable();
}

/// Disables span/event recording on the global registry.
pub fn disable() {
    global().disable();
}

/// Whether the global registry records spans/events.
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// Opens a hierarchical RAII span timer on the global registry.
///
/// The returned guard records its duration (and its position in the
/// per-thread span stack) when dropped. Annotate with [`Span::with`].
///
/// ```
/// wootz_obs::enable();
/// let _cfg = wootz_obs::span("doc.explore.config").with("index", 3usize);
/// ```
pub fn span(name: &str) -> Span {
    let registry = global();
    if registry.is_enabled() {
        Span::start(registry, name)
    } else {
        Span::noop()
    }
}

/// Starts a point-in-time event on the global registry; finish with
/// [`EventBuilder::emit`].
///
/// ```
/// wootz_obs::enable();
/// wootz_obs::event("doc.trainer.epoch")
///     .field("epoch", 1usize)
///     .field("loss", 0.35f64)
///     .emit();
/// let report = wootz_obs::snapshot();
/// assert!(report.events.iter().any(|e| e.name == "doc.trainer.epoch"));
/// ```
pub fn event(name: &str) -> EventBuilder {
    let registry = global();
    if registry.is_enabled() {
        EventBuilder::start(registry, name)
    } else {
        EventBuilder::noop()
    }
}

/// Handle to a named counter on the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Handle to a named gauge on the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Handle to a named histogram on the global registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Snapshot of the global registry.
pub fn snapshot() -> Report {
    global().snapshot()
}

/// Writes the global registry's snapshot to `path`: NDJSON when the path
/// ends in `.ndjson` or `.jsonl`, a single pretty JSON document otherwise.
///
/// The file is replaced atomically (written beside it, then renamed), and
/// writers in one process take turns, so a reader never sees a torn
/// export — even while a long-running process rewrites it
/// ([`rewrite_metrics_out`]).
pub fn write_metrics(path: &std::path::Path) -> std::io::Result<()> {
    static WRITING: Mutex<()> = Mutex::new(());
    // Snapshot under the turn too, so the last writer leaves the newest.
    let _turn = WRITING.lock().unwrap_or_else(PoisonError::into_inner);
    let report = snapshot();
    let text = match path.extension().and_then(|e| e.to_str()) {
        Some("ndjson") | Some("jsonl") => report.to_ndjson(),
        _ => serde_json::to_string_pretty(&report)
            .map_err(|e| std::io::Error::other(e.to_string()))?,
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The export file named by [`set_metrics_out`].
static METRICS_OUT: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Names the file this process's metrics export goes to (`wootz
/// --metrics-out`), for [`rewrite_metrics_out`].
pub fn set_metrics_out(path: PathBuf) {
    *METRICS_OUT.lock().unwrap_or_else(PoisonError::into_inner) = Some(path);
}

/// Rewrites the [`set_metrics_out`] file with a fresh snapshot, if one is
/// named: how a process that runs until it is killed (the serve daemon)
/// keeps its export current instead of writing it at exit.
///
/// # Errors
///
/// Those of [`write_metrics`].
pub fn rewrite_metrics_out() -> std::io::Result<()> {
    let path = METRICS_OUT
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    match path {
        Some(path) => write_metrics(&path),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let registry = Registry::new();
        assert!(!registry.is_enabled());
        // Global span() with a never-enabled local registry can't be
        // exercised directly; check the guard path through the type.
        let guard = Span::noop();
        drop(guard);
        assert!(registry.snapshot().spans.is_empty());
    }

    #[test]
    fn registry_instances_are_independent() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("x").add(3);
        assert_eq!(a.counter("x").get(), 3);
        assert_eq!(b.counter("x").get(), 0);
    }

    #[test]
    fn snapshot_sorts_metrics_by_name() {
        let r = Registry::new();
        r.counter("z.last").incr();
        r.counter("a.first").incr();
        let names: Vec<String> = r.snapshot().counters.into_iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["a.first".to_string(), "z.last".to_string()]);
    }

    #[test]
    fn reset_keeps_handles_attached() {
        let r = Registry::new();
        let c = r.counter("steps");
        c.add(7);
        r.reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(r.counter("steps").get(), 2);
    }
}
