//! Objective-ordered exploration of the promising subspace (§6.2,
//! "Exploration Scripts") — run by a fault-tolerant supervisor.
//!
//! The exploration order is derived from the pruning objective: for
//! `min ModelSize` the scripts "start from the smallest model and proceed
//! to larger ones"; for accuracy-driven objectives the opposite. With `p`
//! workers, "the i-th node will evaluate the i + p·j-th smallest (or
//! largest) model" — reproduced here both as the static task-assignment
//! table the compiler emits and as an actual multi-worker evaluation loop
//! that stops as soon as a round produces a satisfying network.
//!
//! Unlike the original single-shot loop, evaluation here is *supervised*:
//! evaluator panics are caught (`catch_unwind` in the worker thread — a
//! worker never takes the whole round down), failures are retried per a
//! [`RetryPolicy`] with exponential backoff charged in cost units, and a
//! configuration that exhausts its attempts is either skipped (recorded as
//! a first-class [`EvalRecord::Failed`] entry) or aborts the run with a
//! structured [`CoreError::Eval`]. A seeded [`FaultPlan`] can inject
//! failures deterministically for testing, and an already-journaled set of
//! records can be replayed so a resumed run re-evaluates nothing.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};
use wootz_fault::{panic_message, site, FaultError, FaultKind, FaultPlan, OnExhausted, RetryPolicy};
use wootz_ir::{ExplorationOrder, Measurements, Metric, Objective};
use wootz_nn::TrainLog;

use crate::{CoreError, Result};

/// The measured outcome of evaluating one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Parameter count of the pruned network.
    pub model_size: usize,
    /// Forward FLOPs per sample (analytic; 0 when not computed).
    pub flops: u64,
    /// Final test accuracy after (fine-)tuning.
    pub accuracy: f64,
    /// Evaluation cost in abstract time units (wall-clock seconds for real
    /// training, simulated hours for the cluster simulator). Includes any
    /// retry backoff charged while the evaluation was being supervised.
    pub cost: f64,
    /// Full training log when available.
    pub log: Option<TrainLog>,
}

/// One configuration's entry inside an [`ExplorationResult`]: either a
/// completed evaluation or a permanent, skipped failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EvalRecord {
    /// The evaluation completed (possibly after retries).
    Done {
        /// Index of the configuration in the promising subspace.
        config_index: usize,
        /// Measured outcome.
        outcome: EvalOutcome,
        /// Whether the objective's constraints were satisfied.
        satisfies: bool,
    },
    /// Every attempt the retry policy allowed failed; the configuration
    /// was skipped and the round went on.
    Failed {
        /// Index of the configuration in the promising subspace.
        config_index: usize,
        /// The last attempt's error, rendered.
        error: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// Cost wasted on the failed attempts (retry backoff).
        cost: f64,
    },
}

impl EvalRecord {
    /// Index of the configuration in the promising subspace.
    pub fn config_index(&self) -> usize {
        match self {
            EvalRecord::Done { config_index, .. } | EvalRecord::Failed { config_index, .. } => {
                *config_index
            }
        }
    }

    /// The measured outcome, when the evaluation completed.
    pub fn outcome(&self) -> Option<&EvalOutcome> {
        match self {
            EvalRecord::Done { outcome, .. } => Some(outcome),
            EvalRecord::Failed { .. } => None,
        }
    }

    /// Whether the objective was satisfied (always `false` for failures).
    pub fn satisfies(&self) -> bool {
        matches!(self, EvalRecord::Done { satisfies: true, .. })
    }

    /// Whether this entry is a permanent failure.
    pub fn is_failed(&self) -> bool {
        matches!(self, EvalRecord::Failed { .. })
    }

    /// Cost charged against the worker that processed this entry.
    fn cost(&self) -> f64 {
        match self {
            EvalRecord::Done { outcome, .. } => outcome.cost,
            EvalRecord::Failed { cost, .. } => *cost,
        }
    }
}

/// The result of exploring a subspace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplorationResult {
    /// Every processed configuration, in completion order (failures
    /// included).
    pub evaluated: Vec<EvalRecord>,
    /// Position (in `evaluated`) of the chosen best network, if any
    /// satisfied the constraints.
    pub best: Option<usize>,
    /// Number of configurations processed ("#configs" of Table 3),
    /// including replayed and failed ones.
    pub configs_explored: usize,
    /// Wall-clock cost: the max per-worker sum of costs under the static
    /// task assignment (worker `i` owns the `i + p·j`-th configuration of
    /// the exploration order).
    pub wall_cost: f64,
    /// Total (CPU) cost summed over all evaluations, retry backoff
    /// included.
    pub total_cost: f64,
    /// Entries replayed from a resume journal rather than evaluated in
    /// this run.
    pub resumed: usize,
    /// Entries that exhausted their retries and were skipped.
    pub failed: usize,
}

impl ExplorationResult {
    pub(crate) fn empty() -> Self {
        ExplorationResult {
            evaluated: Vec::new(),
            best: None,
            configs_explored: 0,
            wall_cost: 0.0,
            total_cost: 0.0,
            resumed: 0,
            failed: 0,
        }
    }

    /// Configurations actually evaluated by this run (excludes journal
    /// replays).
    pub fn fresh_evals(&self) -> usize {
        self.configs_explored - self.resumed
    }
}

/// Supervision options for an exploration run.
#[derive(Default)]
pub struct ExploreOptions<'a> {
    /// Deterministic fault injection; `None` disables the whole layer.
    pub faults: Option<&'a FaultPlan>,
    /// Retry/degrade policy. The default ([`RetryPolicy::abort_fast`])
    /// reproduces the legacy semantics: one attempt, abort on failure.
    pub retry: RetryPolicy,
    /// Already-completed records keyed by config index (from a run
    /// journal); these are replayed instead of re-evaluated.
    pub resume: BTreeMap<usize, EvalRecord>,
}

/// A sink invoked once per freshly produced record (journal append).
pub type RecordSink<'s> = dyn FnMut(&EvalRecord) -> Result<()> + 's;

/// Objective helpers over measured [`EvalOutcome`]s — the one place the
/// measured-outcome ⇄ objective bridge lives, so the satisfaction check
/// and the best-network metric cannot drift apart across call sites
/// (`fold_round`, `pick_best`, and the pipeline's best-network choice
/// all go through here).
pub trait ObjectiveExt {
    /// Whether the objective's constraints hold for this outcome.
    fn satisfied_by(&self, outcome: &EvalOutcome) -> bool;

    /// The outcome's value under the objective's own optimization
    /// metric (model size, FLOPs, or accuracy).
    fn metric_of(&self, outcome: &EvalOutcome) -> f64;
}

impl ObjectiveExt for Objective {
    fn satisfied_by(&self, outcome: &EvalOutcome) -> bool {
        self.satisfied(&Measurements {
            model_size: outcome.model_size as f64,
            accuracy: outcome.accuracy,
            flops: outcome.flops as f64,
        })
    }

    fn metric_of(&self, outcome: &EvalOutcome) -> f64 {
        match self.metric {
            Metric::ModelSize => outcome.model_size as f64,
            Metric::Flops => outcome.flops as f64,
            Metric::Accuracy => outcome.accuracy,
        }
    }
}

/// Orders configuration indices for exploration: ascending model size for
/// `min ModelSize` objectives, descending otherwise.
pub fn exploration_order(objective: &Objective, sizes: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    match objective.exploration_order() {
        ExplorationOrder::SizeAscending => order.sort_by_key(|&i| (sizes[i], i)),
        ExplorationOrder::SizeDescending => {
            order.sort_by_key(|&i| (std::cmp::Reverse(sizes[i]), i))
        }
    }
    order
}

/// The compiler's static task-assignment table (§6.2): worker `i` evaluates
/// the `i + p·j`-th configuration of the exploration order, `0 ≤ j <
/// ⌈c/p⌉`.
///
/// # Errors
///
/// Returns a [`CoreError::Config`] when `workers == 0` — a zero-worker
/// table used to come back as silently empty, which downstream loops
/// read as "nothing to do".
pub fn task_assignment(order: &[usize], workers: usize) -> Result<Vec<Vec<usize>>> {
    if workers == 0 {
        return Err(CoreError::Config(
            "task assignment requires at least one worker (got workers == 0)".to_string(),
        ));
    }
    let mut nodes = vec![Vec::new(); workers];
    for (pos, &config) in order.iter().enumerate() {
        nodes[pos % workers].push(config);
    }
    Ok(nodes)
}

/// The outcome of supervising one configuration to completion: the final
/// result after retries, how many attempts were made, and the retry
/// backoff charged. Produced by [`supervise_eval`] locally, or by a remote
/// worker process in the distributed runtime (`wootz-cluster`), which is
/// why the fields are public.
pub struct SupervisedEval {
    /// The last attempt's result.
    pub result: std::result::Result<EvalOutcome, CoreError>,
    /// Attempts made (1-based; 1 = first attempt succeeded).
    pub attempts: u32,
    /// Backoff cost accumulated between attempts.
    pub backoff: f64,
}

/// Runs one attempt of `evaluate(config_index)` under the fault plan,
/// converting panics into structured errors.
fn one_attempt<E>(
    evaluate: &E,
    config_index: usize,
    attempt: u32,
    faults: Option<&FaultPlan>,
) -> std::result::Result<EvalOutcome, CoreError>
where
    E: Fn(usize) -> Result<EvalOutcome>,
{
    let injected = FaultPlan::fire_opt(faults, site::EXPLORE_EVAL, config_index as u64, attempt);
    let run = catch_unwind(AssertUnwindSafe(|| match &injected {
        Some(FaultKind::EvalPanic) => panic!(
            "injected fault: evaluator panic (config {config_index}, attempt {attempt})"
        ),
        // Process-level kinds (WorkerCrash/WorkerHang) belong to the
        // distributed `cluster.task` site; planted here they degrade to a
        // clean injected error rather than killing the host process.
        Some(
            kind @ (FaultKind::EvalError
            | FaultKind::CorruptCheckpoint
            | FaultKind::WorkerCrash
            | FaultKind::WorkerHang { .. }),
        ) => Err(CoreError::Fault(FaultError::Injected {
            site: site::EXPLORE_EVAL.to_string(),
            key: config_index as u64,
            kind: kind.label().to_string(),
        })),
        Some(FaultKind::SlowWorker { factor }) => evaluate(config_index).map(|mut o| {
            o.cost *= factor.max(1.0);
            o
        }),
        None => evaluate(config_index),
    }));
    match run {
        Ok(result) => result,
        Err(payload) => Err(CoreError::Panic {
            what: format!("evaluator for config {config_index} (attempt {attempt})"),
            message: panic_message(&*payload),
        }),
    }
}

/// Supervises one configuration: retries per policy, accumulates backoff
/// cost, emits `explore.retry` events.
///
/// Public because the distributed runtime (`wootz-cluster`) runs exactly
/// this supervisor inside each worker process, so local and remote
/// evaluation share retry semantics, fault-injection sites and error
/// rendering bit for bit.
pub fn supervise_eval<E>(
    evaluate: &E,
    config_index: usize,
    retry: &RetryPolicy,
    faults: Option<&FaultPlan>,
) -> SupervisedEval
where
    E: Fn(usize) -> Result<EvalOutcome>,
{
    let max = retry.max_attempts.max(1);
    let mut backoff = 0.0;
    let mut last: Option<CoreError> = None;
    for attempt in 1..=max {
        match one_attempt(evaluate, config_index, attempt, faults) {
            Ok(mut outcome) => {
                outcome.cost += backoff;
                return SupervisedEval {
                    result: Ok(outcome),
                    attempts: attempt,
                    backoff,
                };
            }
            Err(err) => {
                if attempt < max {
                    backoff += retry.backoff_cost(attempt);
                    wootz_obs::counter("explore.retries").incr();
                    wootz_obs::event("explore.retry")
                        .field("config", config_index)
                        .field("attempt", attempt as usize)
                        .field("error", err.to_string())
                        .emit();
                }
                last = Some(err);
            }
        }
    }
    SupervisedEval {
        result: Err(last.expect("at least one attempt ran")),
        attempts: max,
        backoff,
    }
}

/// Folds one round's results into the running [`ExplorationResult`].
///
/// `round` is the slice of `(global position, config index)` pairs of this
/// round; `fresh` yields one [`SupervisedEval`] per *non-resumed* entry of
/// the round, in round order. Worker cost is attributed by the static
/// assignment `worker = global position % p`, so accounting matches
/// [`task_assignment`] even when resumption makes parts of a round
/// replayed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_round(
    objective: &Objective,
    opts: &ExploreOptions<'_>,
    round: &[(usize, usize)],
    mut fresh: std::vec::IntoIter<SupervisedEval>,
    p: usize,
    worker_cost: &mut [f64],
    result: &mut ExplorationResult,
    sink: &mut Option<&mut RecordSink<'_>>,
) -> Result<bool> {
    let mut found = false;
    for &(g, config_index) in round {
        let (record, is_fresh) = match opts.resume.get(&config_index) {
            Some(rec) => {
                result.resumed += 1;
                (rec.clone(), false)
            }
            None => {
                let sup = fresh.next().expect("one supervised result per fresh config");
                let record = match sup.result {
                    Ok(outcome) => {
                        let satisfies = objective.satisfied_by(&outcome);
                        EvalRecord::Done {
                            config_index,
                            outcome,
                            satisfies,
                        }
                    }
                    Err(err) => match opts.retry.on_exhausted {
                        OnExhausted::Abort => {
                            return Err(CoreError::Eval {
                                config_index,
                                attempts: sup.attempts,
                                source: Box::new(err),
                            })
                        }
                        OnExhausted::Skip => {
                            wootz_obs::counter("explore.configs_failed").incr();
                            wootz_obs::event("explore.config_failed")
                                .field("config", config_index)
                                .field("attempts", sup.attempts as usize)
                                .field("error", err.to_string())
                                .emit();
                            EvalRecord::Failed {
                                config_index,
                                error: err.to_string(),
                                attempts: sup.attempts,
                                cost: sup.backoff,
                            }
                        }
                    },
                };
                (record, true)
            }
        };
        worker_cost[g % p] += record.cost();
        result.total_cost += record.cost();
        if record.is_failed() {
            result.failed += 1;
        }
        found |= record.satisfies();
        if is_fresh {
            if let Some(sink) = sink.as_deref_mut() {
                sink(&record)?;
            }
        }
        result.evaluated.push(record);
    }
    Ok(found)
}

/// Supervises one round's fresh configurations on real OS threads, one
/// per configuration — the single-machine analogue of the paper's MPI
/// exploration and the in-process round runner of the engine
/// ([`crate::explorer::run_explorer`]). Results come back positionally
/// (one per entry of `fresh`, in order), so scheduling cannot change the
/// fold: a threaded round is bit-identical to a sequential one.
///
/// A panicking evaluator is captured by [`supervise_eval`]; a panic in
/// the supervision scaffolding itself is converted here — neither ever
/// aborts the process.
pub fn supervise_round<E>(
    evaluate: &E,
    fresh: &[usize],
    retry: &RetryPolicy,
    faults: Option<&FaultPlan>,
) -> Vec<SupervisedEval>
where
    E: Fn(usize) -> Result<EvalOutcome> + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = fresh
            .iter()
            .map(|&config_index| {
                scope.spawn(move || {
                    // Worker threads have their own span stacks, so each
                    // evaluation shows up as a top-level span tagged with
                    // its configuration index.
                    let _cfg_span = wootz_obs::span("explore.config").with("config", config_index);
                    supervise_eval(evaluate, config_index, retry, faults)
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(fresh)
            .map(|(h, &config_index)| match h.join() {
                Ok(sup) => sup,
                Err(payload) => SupervisedEval {
                    result: Err(CoreError::Panic {
                        what: format!("evaluator thread for config {config_index}"),
                        message: panic_message(&*payload),
                    }),
                    attempts: 1,
                    backoff: 0.0,
                },
            })
            .collect()
    })
}

/// Explores an index-only subspace in objective order with `workers`
/// logical workers, stopping at the end of the first round that produced
/// a satisfying configuration (all in-flight evaluations of that round
/// are finished and counted, matching the paper's rounded "#configs").
///
/// `sizes[i]` is the analytic model size of configuration `i` (used for
/// ordering and for the best-network choice); `evaluate(i)` trains/tests
/// configuration `i`. This is the thin entry for callers that have sizes
/// but no [`crate::prune::PruneConfig`]s (the cluster simulator, property
/// tests): it runs [`crate::explorer::FixedSubspace`] over anonymous
/// configurations through the one engine, evaluating each round
/// sequentially on the calling thread.
///
/// # Errors
///
/// Propagates evaluator errors (wrapped in [`CoreError::Eval`]); captured
/// panics surface as [`CoreError::Panic`], never as process aborts.
pub fn explore<E>(
    objective: &Objective,
    sizes: &[usize],
    workers: usize,
    evaluate: E,
) -> Result<ExplorationResult>
where
    E: Fn(usize) -> Result<EvalOutcome>,
{
    explore_supervised(
        objective,
        sizes,
        workers,
        evaluate,
        &ExploreOptions::default(),
        None,
    )
}

/// [`explore`] under explicit supervision options and an optional journal
/// sink (invoked once per fresh record, in completion order).
///
/// # Errors
///
/// Propagates evaluator errors per the retry policy's exhaustion action,
/// and journal sink errors.
pub fn explore_supervised<E>(
    objective: &Objective,
    sizes: &[usize],
    workers: usize,
    evaluate: E,
    opts: &ExploreOptions<'_>,
    sink: Option<&mut RecordSink<'_>>,
) -> Result<ExplorationResult>
where
    E: Fn(usize) -> Result<EvalOutcome>,
{
    let run_round = |fresh: &[usize]| {
        fresh
            .iter()
            .map(|&config_index| {
                let _cfg_span = wootz_obs::span("explore.config").with("config", config_index);
                supervise_eval(&evaluate, config_index, &opts.retry, opts.faults)
            })
            .collect()
    };
    explore_indices(objective, sizes, workers, run_round, opts, sink)
}

/// [`crate::explorer::FixedSubspace`] over `sizes.len()` anonymous
/// configurations through the engine, with `run_round` supervising each
/// round's fresh indices.
fn explore_indices(
    objective: &Objective,
    sizes: &[usize],
    workers: usize,
    mut run_round: impl FnMut(&[usize]) -> Vec<SupervisedEval>,
    opts: &ExploreOptions<'_>,
    sink: Option<&mut RecordSink<'_>>,
) -> Result<ExplorationResult> {
    use crate::explorer::{run_explorer, EngineOptions, FixedSubspace, Round};
    let anonymous = vec![crate::prune::PruneConfig::unpruned(0); sizes.len()];
    let mut fixed = FixedSubspace::new(objective, anonymous, sizes);
    let engine_opts = EngineOptions {
        explore: opts,
        budget: 0,
        replay_proposals: &[],
    };
    run_explorer(
        &mut fixed,
        objective,
        workers,
        &mut |round: &Round<'_>| Ok(run_round(round.fresh)),
        &engine_opts,
        None,
        sink,
    )
    .map(|explored| explored.exploration)
}

pub(crate) fn emit_progress(round_index: usize, result: &ExplorationResult, found: bool) {
    wootz_obs::event("explore.progress")
        .field("round", round_index)
        .field("evaluated", result.evaluated.len())
        .field("total_cost", result.total_cost)
        .field("failed", result.failed)
        .field("resumed", result.resumed)
        .field("found", found)
        .emit();
}

pub(crate) fn finish_exploration(
    objective: &Objective,
    mut result: ExplorationResult,
    worker_cost: &[f64],
) -> Result<ExplorationResult> {
    result.configs_explored = result.evaluated.len();
    result.wall_cost = worker_cost.iter().copied().fold(0.0, f64::max);
    result.best = pick_best(objective, &result.evaluated);
    Ok(result)
}

/// Picks the best satisfying record under the objective's own metric.
/// A record whose metric is NaN is never chosen (it cannot meaningfully
/// be "best"; such records only arise from hand-built inputs — a NaN
/// accuracy never satisfies an accuracy constraint in the first place).
fn pick_best(objective: &Objective, evaluated: &[EvalRecord]) -> Option<usize> {
    let candidates = evaluated
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            EvalRecord::Done {
                outcome,
                satisfies: true,
                ..
            } if !objective.metric_of(outcome).is_nan() => Some((i, outcome)),
            _ => None,
        });
    let key = |o: &EvalOutcome| objective.metric_of(o);
    let cmp = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
    match objective.direction {
        wootz_ir::Direction::Min => candidates
            .min_by(|(_, a), (_, b)| cmp(key(a), key(b)))
            .map(|(i, _)| i),
        wootz_ir::Direction::Max => candidates
            .max_by(|(_, a), (_, b)| cmp(key(a), key(b)))
            .map(|(i, _)| i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wootz_fault::Trigger;

    fn min_size(thr: f64) -> Objective {
        Objective::min_size_with_accuracy(thr)
    }

    /// Synthetic evaluator: accuracy grows with model size.
    fn toy_eval(sizes: &[usize]) -> impl Fn(usize) -> Result<EvalOutcome> + Sync + '_ {
        move |i| {
            Ok(EvalOutcome {
                model_size: sizes[i],
                flops: sizes[i] as u64 * 10,
                accuracy: sizes[i] as f64 / 1000.0,
                cost: 1.0,
                log: None,
            })
        }
    }

    /// The engine over an index-only subspace with the threaded round
    /// runner — exactly what the in-process pipeline backend runs.
    fn explore_threaded<E>(
        objective: &Objective,
        sizes: &[usize],
        workers: usize,
        evaluate: E,
        opts: &ExploreOptions<'_>,
    ) -> Result<ExplorationResult>
    where
        E: Fn(usize) -> Result<EvalOutcome> + Sync,
    {
        let run_round =
            |fresh: &[usize]| supervise_round(&evaluate, fresh, &opts.retry, opts.faults);
        explore_indices(objective, sizes, workers, run_round, opts, None)
    }

    fn eval_trigger(key: u64, kind: FaultKind, times: u32) -> Trigger {
        Trigger {
            site: site::EXPLORE_EVAL.into(),
            key: Some(key),
            kind,
            times: Some(times),
        }
    }

    #[test]
    fn order_ascends_for_min_size() {
        let sizes = vec![300, 100, 200];
        let order = exploration_order(&min_size(0.5), &sizes);
        assert_eq!(order, vec![1, 2, 0]);
        let obj = Objective::parse("max Accuracy").unwrap();
        assert_eq!(exploration_order(&obj, &sizes), vec![0, 2, 1]);
    }

    #[test]
    fn task_assignment_interleaves() {
        let order = vec![10, 11, 12, 13, 14, 15, 16];
        let nodes = task_assignment(&order, 3).unwrap();
        // Node i gets order[i + 3j].
        assert_eq!(nodes[0], vec![10, 13, 16]);
        assert_eq!(nodes[1], vec![11, 14]);
        assert_eq!(nodes[2], vec![12, 15]);
        assert_eq!(task_assignment(&order, 1).unwrap().len(), 1);
    }

    #[test]
    fn task_assignment_rejects_zero_workers() {
        let err = task_assignment(&[0, 1, 2], 0).unwrap_err().to_string();
        assert_eq!(
            err,
            "pruning configuration error: task assignment requires at least one worker \
             (got workers == 0)"
        );
    }

    #[test]
    fn satisfied_by_matches_objective_constraints() {
        let outcome = |size: usize, acc: f64| EvalOutcome {
            model_size: size,
            flops: size as u64 * 10,
            accuracy: acc,
            cost: 1.0,
            log: None,
        };
        let obj = min_size(0.5);
        assert!(obj.satisfied_by(&outcome(100, 0.5)), "boundary is inclusive");
        assert!(!obj.satisfied_by(&outcome(100, 0.4999)));
        // NaN accuracy satisfies nothing — and must not panic.
        assert!(!obj.satisfied_by(&outcome(100, f64::NAN)));
        assert_eq!(obj.metric_of(&outcome(100, 0.5)), 100.0);
        let obj = Objective::parse("max Accuracy\nconstraint ModelSize <= 250").unwrap();
        assert_eq!(obj.metric_of(&outcome(100, 0.25)), 0.25);
        let obj = Objective::parse("min Flops\nconstraint Accuracy >= 0.1").unwrap();
        assert_eq!(obj.metric_of(&outcome(100, 0.25)), 1000.0);
    }

    #[test]
    fn pick_best_keeps_first_minimal_on_ties() {
        // Two satisfying records with the same model size: min_by keeps
        // the first, so exploration order breaks the tie.
        let rec = |i: usize, size: usize| EvalRecord::Done {
            config_index: i,
            outcome: EvalOutcome {
                model_size: size,
                flops: 0,
                accuracy: 0.9,
                cost: 1.0,
                log: None,
            },
            satisfies: true,
        };
        let objective = min_size(0.5);
        let evaluated = vec![rec(7, 300), rec(3, 300), rec(5, 400)];
        assert_eq!(pick_best(&objective, &evaluated), Some(0));
        // A NaN metric neither wins nor poisons the choice.
        let mut with_nan = evaluated.clone();
        with_nan.push(EvalRecord::Done {
            config_index: 9,
            outcome: EvalOutcome {
                model_size: 100,
                flops: 0,
                accuracy: f64::NAN,
                cost: 1.0,
                log: None,
            },
            satisfies: true,
        });
        let acc = Objective::parse("max Accuracy\nconstraint ModelSize <= 500").unwrap();
        let best = pick_best(&acc, &with_nan);
        assert!(best.is_some());
        assert_ne!(best, Some(3), "NaN accuracy must not be chosen as max");
    }

    #[test]
    fn single_worker_stops_at_first_satisfying() {
        let sizes = vec![100, 200, 300, 400, 500];
        // Threshold 0.25 -> first satisfying size is 300 (acc 0.3), the 3rd
        // smallest.
        let res = explore(&min_size(0.25), &sizes, 1, toy_eval(&sizes)).unwrap();
        assert_eq!(res.configs_explored, 3);
        let best = res.evaluated[res.best.unwrap()].outcome().unwrap();
        assert_eq!(best.model_size, 300);
        assert_eq!(res.wall_cost, 3.0);
        assert_eq!(res.total_cost, 3.0);
    }

    #[test]
    fn multi_worker_rounds_up_configs() {
        let sizes: Vec<usize> = (1..=16).map(|i| i * 100).collect();
        // First satisfying size is 700 (acc 0.7 >= 0.65): position 7.
        let res1 = explore(&min_size(0.65), &sizes, 1, toy_eval(&sizes)).unwrap();
        assert_eq!(res1.configs_explored, 7);
        let res4 = explore(&min_size(0.65), &sizes, 4, toy_eval(&sizes)).unwrap();
        // Rounds of 4: positions 1-4, 5-8 -> 8 configs, wall cost 2 rounds.
        assert_eq!(res4.configs_explored, 8);
        assert_eq!(res4.wall_cost, 2.0);
        // Both find the same best network.
        assert_eq!(
            res1.evaluated[res1.best.unwrap()].outcome().unwrap().model_size,
            res4.evaluated[res4.best.unwrap()].outcome().unwrap().model_size
        );
    }

    #[test]
    fn exhausts_subspace_when_nothing_satisfies() {
        let sizes = vec![100, 200, 300];
        let res = explore(&min_size(0.9), &sizes, 2, toy_eval(&sizes)).unwrap();
        assert_eq!(res.configs_explored, 3);
        assert!(res.best.is_none());
    }

    #[test]
    fn max_accuracy_objective_picks_most_accurate() {
        let sizes = vec![100, 200, 300];
        let obj = Objective::parse("max Accuracy\nconstraint ModelSize <= 250").unwrap();
        let res = explore(&obj, &sizes, 1, toy_eval(&sizes)).unwrap();
        // Explores size-descending: 300 (violates), 200 (ok) -> stops.
        assert_eq!(res.configs_explored, 2);
        assert_eq!(
            res.evaluated[res.best.unwrap()].outcome().unwrap().model_size,
            200
        );
    }

    #[test]
    fn flops_objective_selects_by_flops() {
        let sizes = vec![100, 200, 300, 400];
        let obj = Objective::parse("min Flops\nconstraint Accuracy >= 0.25").unwrap();
        let res = explore(&obj, &sizes, 1, toy_eval(&sizes)).unwrap();
        // Smallest (by size, hence flops) satisfying is size 300 (acc 0.3).
        let best = res.evaluated[res.best.unwrap()].outcome().unwrap();
        assert_eq!(best.flops, 3000);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let sizes: Vec<usize> = (1..=13).map(|i| i * 100).collect();
        for workers in [1usize, 3, 5] {
            let seq = explore(&min_size(0.55), &sizes, workers, toy_eval(&sizes)).unwrap();
            let par = explore_threaded(
                &min_size(0.55),
                &sizes,
                workers,
                toy_eval(&sizes),
                &ExploreOptions::default(),
            )
            .unwrap();
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn parallel_propagates_errors() {
        let sizes = vec![100, 200];
        let eval = |i: usize| {
            if i == 1 {
                Err(crate::CoreError::Pipeline("boom".into()))
            } else {
                Ok(EvalOutcome {
                    model_size: 1,
                    flops: 0,
                    accuracy: 0.0,
                    cost: 1.0,
                    log: None,
                })
            }
        };
        let res = explore_threaded(&min_size(0.9), &sizes, 2, eval, &ExploreOptions::default());
        let err = res.unwrap_err();
        assert!(
            matches!(err, CoreError::Eval { config_index: 1, attempts: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn evaluator_errors_propagate() {
        let sizes = vec![100];
        let res = explore(&min_size(0.5), &sizes, 1, |_| {
            Err(crate::CoreError::Pipeline("boom".into()))
        });
        assert!(res.is_err());
    }

    #[test]
    fn evaluator_panics_become_structured_errors() {
        let sizes = vec![100, 200];
        for parallel in [false, true] {
            let eval = |i: usize| -> Result<EvalOutcome> {
                if i == 0 {
                    panic!("evaluator exploded");
                }
                toy_eval(&[100, 200])(i)
            };
            let err = if parallel {
                explore_threaded(&min_size(0.9), &sizes, 2, eval, &ExploreOptions::default())
                    .unwrap_err()
            } else {
                explore(&min_size(0.9), &sizes, 2, eval).unwrap_err()
            };
            let msg = err.to_string();
            assert!(msg.contains("config 0"), "{msg}");
            assert!(msg.contains("evaluator exploded"), "{msg}");
        }
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let sizes = vec![100, 200, 300];
        let plan = FaultPlan {
            seed: 0,
            // Config 1 fails its first attempt only.
            triggers: vec![eval_trigger(1, FaultKind::EvalError, 1)],
            rates: vec![],
        };
        let calls = AtomicUsize::new(0);
        let eval = |i: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            toy_eval(&[100, 200, 300])(i)
        };
        let opts = ExploreOptions {
            faults: Some(&plan),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base: 0.5,
                backoff_factor: 2.0,
                on_exhausted: OnExhausted::Skip,
            },
            resume: BTreeMap::new(),
        };
        let res =
            explore_supervised(&min_size(0.9), &sizes, 1, eval, &opts, None).unwrap();
        assert_eq!(res.failed, 0);
        assert_eq!(res.configs_explored, 3);
        // Config 1's record carries the backoff of one failed attempt.
        let rec1 = res
            .evaluated
            .iter()
            .find(|r| r.config_index() == 1)
            .unwrap();
        assert_eq!(rec1.outcome().unwrap().cost, 1.0 + 0.5);
    }

    #[test]
    fn exhausted_retries_skip_and_record_failure() {
        let sizes = vec![100, 200, 300];
        let plan = FaultPlan {
            seed: 0,
            // Config 0 (the smallest, explored first) always fails.
            triggers: vec![eval_trigger(0, FaultKind::EvalPanic, u32::MAX)],
            rates: vec![],
        };
        let opts = ExploreOptions {
            faults: Some(&plan),
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_base: 1.0,
                backoff_factor: 2.0,
                on_exhausted: OnExhausted::Skip,
            },
            resume: BTreeMap::new(),
        };
        let res =
            explore_supervised(&min_size(0.25), &sizes, 1, toy_eval(&sizes), &opts, None)
                .unwrap();
        assert_eq!(res.failed, 1);
        let failed = &res.evaluated[0];
        assert!(failed.is_failed());
        assert_eq!(failed.config_index(), 0);
        match failed {
            EvalRecord::Failed {
                attempts, error, cost, ..
            } => {
                assert_eq!(*attempts, 2);
                assert!(error.contains("panic"), "{error}");
                assert_eq!(*cost, 1.0, "one backoff charged between two attempts");
            }
            _ => unreachable!(),
        }
        // The run survived and still found the best among the healthy
        // configs (300 is the smallest satisfying one).
        let best = res.evaluated[res.best.unwrap()].outcome().unwrap();
        assert_eq!(best.model_size, 300);
    }

    #[test]
    fn abort_policy_surfaces_structured_eval_error() {
        let sizes = vec![100];
        let plan = FaultPlan {
            seed: 0,
            triggers: vec![eval_trigger(0, FaultKind::EvalError, u32::MAX)],
            rates: vec![],
        };
        let opts = ExploreOptions {
            faults: Some(&plan),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base: 0.0,
                backoff_factor: 2.0,
                on_exhausted: OnExhausted::Abort,
            },
            resume: BTreeMap::new(),
        };
        let err = explore_supervised(&min_size(0.5), &sizes, 1, toy_eval(&sizes), &opts, None)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Eval { config_index: 0, attempts: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn same_fault_seed_gives_same_schedule_and_result() {
        let sizes: Vec<usize> = (1..=20).map(|i| i * 100).collect();
        let plan = FaultPlan {
            seed: 5,
            triggers: vec![],
            rates: vec![wootz_fault::SiteRate {
                site: site::EXPLORE_EVAL.into(),
                kind: FaultKind::EvalError,
                probability: 0.4,
                times: Some(u32::MAX),
            }],
        };
        let opts = ExploreOptions {
            faults: Some(&plan),
            retry: RetryPolicy::skip_after(2),
            resume: BTreeMap::new(),
        };
        let a = explore_threaded(&min_size(0.9), &sizes, 4, toy_eval(&sizes), &opts).unwrap();
        let b = explore_threaded(&min_size(0.9), &sizes, 4, toy_eval(&sizes), &opts).unwrap();
        assert_eq!(a, b);
        assert!(a.failed > 0, "the 40% rate should kill some configs");
        // And the sequential supervisor agrees exactly.
        let c = explore_supervised(&min_size(0.9), &sizes, 4, toy_eval(&sizes), &opts, None)
            .unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn slow_worker_fault_inflates_cost_only() {
        let sizes = vec![100, 200];
        let plan = FaultPlan {
            seed: 0,
            triggers: vec![eval_trigger(0, FaultKind::SlowWorker { factor: 3.0 }, 1)],
            rates: vec![],
        };
        let opts = ExploreOptions {
            faults: Some(&plan),
            retry: RetryPolicy::default(),
            resume: BTreeMap::new(),
        };
        let res = explore_supervised(&min_size(0.9), &sizes, 1, toy_eval(&sizes), &opts, None)
            .unwrap();
        assert_eq!(res.failed, 0);
        assert_eq!(res.evaluated[0].outcome().unwrap().cost, 3.0);
        assert_eq!(res.total_cost, 4.0);
    }

    #[test]
    fn resume_replays_without_reevaluating() {
        let sizes: Vec<usize> = (1..=10).map(|i| i * 100).collect();
        let full = explore(&min_size(0.55), &sizes, 3, toy_eval(&sizes)).unwrap();
        assert!(full.configs_explored >= 4);
        // Pretend the run died after the first 4 records.
        let resume: BTreeMap<usize, EvalRecord> = full.evaluated[..4]
            .iter()
            .map(|r| (r.config_index(), r.clone()))
            .collect();
        let calls = AtomicUsize::new(0);
        let eval = |i: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            toy_eval(&sizes)(i)
        };
        let opts = ExploreOptions {
            faults: None,
            retry: RetryPolicy::default(),
            resume,
        };
        let resumed = explore_supervised(&min_size(0.55), &sizes, 3, eval, &opts, None).unwrap();
        assert_eq!(resumed.resumed, 4);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            full.configs_explored - 4,
            "journaled configs are not re-evaluated"
        );
        // Identical outcome modulo the resumed counter.
        assert_eq!(resumed.evaluated, full.evaluated);
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.wall_cost, full.wall_cost);
        assert_eq!(resumed.total_cost, full.total_cost);
    }

    /// Regression test for worker-cost attribution: costs must follow the
    /// static task-assignment table (`worker = order position % p`) even
    /// when resumption leaves only parts of a round to evaluate.
    #[test]
    fn wall_cost_matches_task_assignment_under_resume() {
        // Distinct per-config costs so misattribution changes the max.
        let sizes: Vec<usize> = (1..=9).map(|i| i * 100).collect();
        let eval = |i: usize| -> Result<EvalOutcome> {
            Ok(EvalOutcome {
                model_size: sizes[i],
                flops: 0,
                accuracy: 0.0, // nothing satisfies: full sweep
                cost: (i + 1) as f64,
                log: None,
            })
        };
        let objective = min_size(2.0);
        let p = 3;
        let full = explore(&objective, &sizes, p, eval).unwrap();
        // Expected wall cost from the static assignment.
        let order = exploration_order(&objective, &sizes);
        let expected: f64 = task_assignment(&order, p)
            .unwrap()
            .iter()
            .map(|node| node.iter().map(|&c| (c + 1) as f64).sum::<f64>())
            .fold(0.0, f64::max);
        assert_eq!(full.wall_cost, expected);
        // Resume from a prefix that splits a round (2 of 3 entries done):
        // the remaining entry must still land on its static worker.
        let resume: BTreeMap<usize, EvalRecord> = full.evaluated[..2]
            .iter()
            .map(|r| (r.config_index(), r.clone()))
            .collect();
        let opts = ExploreOptions {
            faults: None,
            retry: RetryPolicy::default(),
            resume,
        };
        let resumed = explore_supervised(&objective, &sizes, p, eval, &opts, None).unwrap();
        assert_eq!(resumed.wall_cost, expected);
        assert_eq!(resumed.total_cost, full.total_cost);
    }

    #[test]
    fn sink_sees_fresh_records_only() {
        let sizes = vec![100, 200, 300, 400];
        let full = explore(&min_size(2.0), &sizes, 2, toy_eval(&sizes)).unwrap();
        let resume: BTreeMap<usize, EvalRecord> = full.evaluated[..2]
            .iter()
            .map(|r| (r.config_index(), r.clone()))
            .collect();
        let mut seen: Vec<usize> = Vec::new();
        let mut sink = |r: &EvalRecord| {
            seen.push(r.config_index());
            Ok(())
        };
        let opts = ExploreOptions {
            faults: None,
            retry: RetryPolicy::default(),
            resume,
        };
        explore_supervised(
            &min_size(2.0),
            &sizes,
            2,
            toy_eval(&sizes),
            &opts,
            Some(&mut sink),
        )
        .unwrap();
        let expected: Vec<usize> = full.evaluated[2..]
            .iter()
            .map(|r| r.config_index())
            .collect();
        assert_eq!(seen, expected);
    }
}
