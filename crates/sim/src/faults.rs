//! Node-failure and straggler modeling for the simulated cluster.
//!
//! The paper's experiments ran for days on a 16-node K20X cluster — long
//! enough that node failures and stragglers are a practical concern. This
//! module answers, with closed-form (and therefore deterministic)
//! expectations, the question the fault-tolerance work raises: *does the
//! composability speedup survive an unreliable cluster?*
//!
//! Three execution regimes are compared per arm:
//!
//! * **ideal** — the fault-free wall-clock from [`crate::simulate_pruning`];
//! * **journal** — failures cost a worker restart plus re-doing the
//!   half-finished evaluation; everything already journaled is kept
//!   (Wootz's `--journal`/`--resume` path);
//! * **abort** — any failure kills the whole run, which restarts from
//!   scratch (the legacy `join().expect` behavior).
//!
//! The key structural result: because the composability arm's wall-clock
//! is a small fraction of the baseline's, it suffers proportionally fewer
//! failures, so the composability speedup *grows* under faults — most
//! dramatically in the abort regime, where expected cost is exponential in
//! run length.

use serde::{Deserialize, Serialize};

use crate::cluster::{simulate_pruning, SimExperiment, SimResult};

/// Reliability parameters of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Per-node mean time between failures, in simulated hours.
    pub mtbf_hours: f64,
    /// Wall-clock cost of restarting a failed worker (re-scheduling,
    /// re-loading checkpoints), in simulated hours.
    pub restart_hours: f64,
    /// Probability that any given worker of a round is a straggler.
    pub straggler_prob: f64,
    /// Slowdown multiplier of a straggler (>= 1).
    pub straggler_factor: f64,
}

impl FaultModel {
    /// A lightly unreliable commodity cluster: three-day per-node MTBF,
    /// 15-minute restarts, 5% straggler rounds at 3x slowdown.
    pub fn cluster_default() -> Self {
        FaultModel {
            mtbf_hours: 72.0,
            restart_hours: 0.25,
            straggler_prob: 0.05,
            straggler_factor: 3.0,
        }
    }

    /// A perfectly reliable cluster (identity transform on wall-clock).
    pub fn none() -> Self {
        FaultModel {
            mtbf_hours: f64::INFINITY,
            restart_hours: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
        }
    }
}

/// One arm's wall-clock under the three execution regimes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultedArm {
    /// Fault-free wall-clock hours (from the base simulation).
    pub ideal_hours: f64,
    /// Wall-clock after straggler dilation (rounds synchronize on the
    /// slowest worker), before failures.
    pub straggler_hours: f64,
    /// Expected wall-clock with journal-based resume.
    pub journal_hours: f64,
    /// Expected wall-clock with abort-and-restart-from-scratch.
    pub abort_hours: f64,
    /// Expected number of node failures over the journal-regime run.
    pub expected_failures: f64,
}

/// Applies `fm` to one arm.
///
/// * Stragglers: rounds synchronize at a barrier, so a round is slow when
///   *any* of the `min(workers, configs)` active workers straggles:
///   `m = 1 + (1 - (1-q)^active) * (factor - 1)`, `W0' = ideal * m`.
/// * Journal regime: each failure wastes `h = restart + mean_eval/2` hours
///   of one worker (the half-finished evaluation is redone; journaled work
///   is kept). Losing `h` of every `mtbf` node-hours dilates wall-clock to
///   `W = W0' / (1 - h/mtbf)`.
/// * Abort regime: a run of length `W0'` under cluster-wide failure rate
///   `lambda = workers/mtbf` restarts from scratch on any failure; the
///   classical expectation is `E[T] = (1/lambda + restart) *
///   (exp(lambda * W0') - 1)`.
///
/// All formulas are expectations — pure functions of the inputs — so
/// reports built on them are reproducible without Monte-Carlo noise.
pub fn faulted_arm(
    fm: &FaultModel,
    ideal_hours: f64,
    mean_eval_hours: f64,
    workers: usize,
    configs: usize,
) -> FaultedArm {
    let p = workers.max(1) as f64;
    let active = workers.max(1).min(configs.max(1)) as f64;
    let m =
        1.0 + (1.0 - (1.0 - fm.straggler_prob).powf(active)) * (fm.straggler_factor - 1.0).max(0.0);
    let straggler_hours = ideal_hours * m;

    let (journal_hours, abort_hours, expected_failures) = if fm.mtbf_hours.is_finite() {
        let h = fm.restart_hours + 0.5 * mean_eval_hours;
        let journal = if h < fm.mtbf_hours {
            straggler_hours / (1.0 - h / fm.mtbf_hours)
        } else {
            f64::INFINITY
        };
        let lambda = p / fm.mtbf_hours;
        let abort = (1.0 / lambda + fm.restart_hours) * ((lambda * straggler_hours).exp() - 1.0);
        let failures = p * journal / fm.mtbf_hours;
        (journal, abort, failures)
    } else {
        (straggler_hours, straggler_hours, 0.0)
    };

    FaultedArm {
        ideal_hours,
        straggler_hours,
        journal_hours,
        abort_hours,
        expected_failures,
    }
}

/// A fault-free simulation result paired with both arms' behavior under a
/// [`FaultModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultedSimResult {
    /// The underlying fault-free experiment result.
    pub base: SimResult,
    /// The fault model applied.
    pub fault: FaultModel,
    /// Baseline arm under faults.
    pub baseline: FaultedArm,
    /// Composability arm under faults.
    pub comp: FaultedArm,
    /// Fault-free speedup (`base.speedup`).
    pub speedup_ideal: f64,
    /// Speedup when both arms journal and resume.
    pub speedup_journal: f64,
    /// Speedup when both arms abort and restart from scratch.
    pub speedup_abort: f64,
}

/// Runs `exp` fault-free, then derives both arms' expected wall-clock
/// under `fm`.
///
/// # Panics
///
/// Panics on unknown model/dataset names, like [`simulate_pruning`].
pub fn simulate_pruning_faulted(exp: &SimExperiment, fm: &FaultModel) -> FaultedSimResult {
    let base = simulate_pruning(exp);
    let baseline = faulted_arm(
        fm,
        base.baseline.hours,
        base.baseline.mean_eval_hours,
        exp.workers,
        base.baseline.configs,
    );
    let comp = faulted_arm(
        fm,
        base.comp.hours,
        base.comp.mean_eval_hours,
        exp.workers,
        base.comp.configs,
    );
    let speedup_journal = baseline.journal_hours / comp.journal_hours.max(1e-9);
    let speedup_abort = baseline.abort_hours / comp.abort_hours.max(1e-9);
    wootz_obs::event("sim.faulted_experiment")
        .field("model", exp.model.as_str())
        .field("dataset", exp.dataset.as_str())
        .field("workers", exp.workers)
        .field("speedup_ideal", base.speedup)
        .field("speedup_journal", speedup_journal)
        .field("speedup_abort", speedup_abort)
        .emit();
    FaultedSimResult {
        speedup_ideal: base.speedup,
        base,
        fault: *fm,
        baseline,
        comp,
        speedup_journal,
        speedup_abort,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimExperiment;

    #[test]
    fn no_faults_is_identity() {
        let arm = faulted_arm(&FaultModel::none(), 10.0, 0.5, 16, 100);
        assert_eq!(arm.ideal_hours, 10.0);
        assert_eq!(arm.straggler_hours, 10.0);
        assert_eq!(arm.journal_hours, 10.0);
        assert_eq!(arm.abort_hours, 10.0);
        assert_eq!(arm.expected_failures, 0.0);
    }

    #[test]
    fn journal_beats_abort_and_both_cost_more_than_ideal() {
        let fm = FaultModel::cluster_default();
        let arm = faulted_arm(&fm, 40.0, 0.8, 16, 500);
        assert!(arm.straggler_hours > arm.ideal_hours);
        assert!(arm.journal_hours > arm.straggler_hours);
        assert!(
            arm.abort_hours > arm.journal_hours,
            "abort {} vs journal {}",
            arm.abort_hours,
            arm.journal_hours
        );
        assert!(arm.expected_failures > 0.0);
    }

    #[test]
    fn longer_runs_suffer_superlinearly_under_abort() {
        let fm = FaultModel::cluster_default();
        let short = faulted_arm(&fm, 5.0, 0.5, 16, 100);
        let long = faulted_arm(&fm, 50.0, 0.5, 16, 1000);
        // Journal dilates linearly: 10x work -> 10x expected time.
        let journal_ratio = long.journal_hours / short.journal_hours;
        assert!((journal_ratio - 10.0).abs() < 1e-6, "{journal_ratio}");
        // Abort grows exponentially in run length.
        let abort_ratio = long.abort_hours / short.abort_hours;
        assert!(abort_ratio > 20.0, "{abort_ratio}");
    }

    #[test]
    fn composability_speedup_grows_under_faults() {
        let exp = SimExperiment::table3("resnet50", "flowers102", 0.0, 16, 1);
        let r = simulate_pruning_faulted(&exp, &FaultModel::cluster_default());
        assert!(r.speedup_ideal > 1.0);
        assert!(
            r.speedup_journal >= r.speedup_ideal * 0.99,
            "journal {} vs ideal {}",
            r.speedup_journal,
            r.speedup_ideal
        );
        assert!(
            r.speedup_abort > r.speedup_journal,
            "abort {} vs journal {}",
            r.speedup_abort,
            r.speedup_journal
        );
    }

    #[test]
    fn deterministic_given_inputs() {
        let exp = SimExperiment::table3("inception_v3", "cub200", 2.0, 16, 9);
        let fm = FaultModel::cluster_default();
        assert_eq!(
            simulate_pruning_faulted(&exp, &fm),
            simulate_pruning_faulted(&exp, &fm)
        );
    }
}
