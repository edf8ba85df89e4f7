//! Deterministic fault injection and retry policies for the Wootz
//! fault-tolerance layer.
//!
//! Distributed exploration runs for machine-hours across many workers —
//! exactly the regime where evaluator crashes, corrupt checkpoints and
//! slow nodes are *expected*. This crate provides the vocabulary the rest
//! of the workspace uses to plan for them:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic schedule of injected
//!   faults, keyed by *site* (a stable string naming an injection point,
//!   see [`site`]) and *key* (the config/group/block index at that site).
//!   The same plan produces the same failure schedule on every run and on
//!   every thread interleaving, which is what makes fault-injection tests
//!   reproducible.
//! * [`RetryPolicy`] — how a supervisor reacts to a failure: how many
//!   attempts, how much exponential backoff (in abstract cost units, the
//!   same units evaluation cost is measured in), and whether an exhausted
//!   configuration is skipped or aborts the run.
//! * [`FaultError`] — the structured error carried end-to-end when an
//!   injected (or real) fault surfaces.
//! * [`pid_alive`] — whether the process that left a lock or temp file
//!   behind is still running.
//! * [`panic_message`] — extracts a human-readable message from a caught
//!   panic payload, used by every `catch_unwind` supervisor in the
//!   workspace.
//! * [`chaos`] — deterministic *kill points*: named durability
//!   boundaries (journal append, checkpoint rename, result publish)
//!   where `WOOTZ_CHAOS_KILL_AT=<site>:<n>` makes the process stage a
//!   torn write and abort, so crash recovery is testable byte-for-byte.
//!
//! When no plan is installed every check is an `Option::None` test — the
//! layer costs nothing on un-faulted runs.

pub mod chaos;
mod error;
mod hash;
mod plan;
mod retry;

pub use error::FaultError;
pub use hash::{fnv1a64, u01};
pub use plan::{FaultKind, FaultPlan, SiteRate, Trigger};
pub use retry::{OnExhausted, RetryPolicy};

/// Stable names of the workspace's fault-injection sites.
///
/// A *site* is a point in the pipeline where a [`FaultPlan`] may fire. The
/// *key* passed alongside identifies the unit of work at that site.
pub mod site {
    /// One configuration evaluation inside the exploration engine's
    /// supervisor (`supervise_eval`); key = configuration index.
    pub const EXPLORE_EVAL: &str = "explore.eval";
    /// One pre-training group; key = group index.
    pub const PRETRAIN_GROUP: &str = "pretrain.group";
    /// One per-block fallback pre-training run; key = block index.
    pub const PRETRAIN_BLOCK: &str = "pretrain.block";
    /// Block-checkpoint use during assembly; key = configuration index.
    /// Firing with [`super::FaultKind::CorruptCheckpoint`] makes assembly
    /// treat the first pre-trained block of that configuration as corrupt.
    pub const ASSEMBLE_BLOCK: &str = "assemble.block";
    /// One claimed task inside a distributed worker process; key =
    /// configuration index for evaluation tasks, group index for
    /// pre-training tasks. This is where process-level kinds
    /// ([`super::FaultKind::WorkerCrash`], [`super::FaultKind::WorkerHang`])
    /// and wall-clock stragglers ([`super::FaultKind::SlowWorker`]) fire.
    pub const CLUSTER_TASK: &str = "cluster.task";
}

/// Whether a pid names a live process — how a lock or temp file left by
/// a killed writer is told apart from one a live writer still holds.
/// Uses `/proc` (this runtime targets Linux); without `/proc` every pid
/// reads as dead.
pub fn pid_alive(pid: u32) -> bool {
    std::path::Path::new("/proc").join(pid.to_string()).exists()
}

/// Extracts a printable message from a `catch_unwind` payload.
///
/// Panics raised with `panic!("literal")` carry `&'static str`; formatted
/// ones carry `String`; anything else is reported by type only.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_extracts_strings() {
        let err = std::panic::catch_unwind(|| panic!("boom {}", 3)).unwrap_err();
        assert_eq!(panic_message(&*err), "boom 3");
        let err = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(&*err), "static");
    }
}
