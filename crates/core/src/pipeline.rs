//! The end-to-end Wootz driver (Figure 2): from a model IR, a promising
//! subspace, solver meta data and a pruning objective, to the best pruned
//! network — either with the baseline ("default") scheme or with
//! composability-based pruning (tuning-block identification → Teacher–
//! Student pre-training → assembly → objective-ordered exploration).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use wootz_data::Dataset;
use wootz_fault::{panic_message, FaultPlan, RetryPolicy};
use wootz_ir::{Metric, ModelIr, Objective, SolverConfig};
use wootz_nn::{Checkpoint, EvalSet, LrSchedule, TrainConfig, TrainLog};
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;
use wootz_wire::{write_bytes, WireDeserialize, WireError, WireReader, WireResult, WireSerialize};

use crate::blocks::{identify_tuning_blocks, module_level_blocks, BlockSet};
use crate::compile::{ModeToUse, MultiplexingModel, TuningBlock};
use crate::explore::{supervise_eval, EvalOutcome, EvalRecord, ExplorationResult, SupervisedEval};
use crate::explorer::{
    run_explorer, BanditExplorer, EngineOptions, Explorer, ExplorerKind, FixedSubspace,
    ProposalRecord, Round, TaylorSaliency,
};
use crate::finetune::{assemble_supervised, global_finetune, InitStrategy};
use crate::journal::{
    inputs_hash, subspace_hash, Journal, JournalEntry, JournalHeader, Replay, JOURNAL_VERSION,
};
use crate::pretrain::{
    pretrain_group_supervised, pretrain_groups_with, GroupOutcome, PretrainConfig, PretrainedBlock,
};
use crate::prune::{filter_importance, PruneConfig, PAPER_RATES};
use crate::stats::{config_stats, ModelStats};
use crate::{CoreError, Result};

/// Which pruning scheme a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// The baseline: every pruned network inherits the full model's
    /// surviving filters and trains from there ("default networks").
    Baseline,
    /// Composability-based pruning with module-level tuning blocks (the
    /// paper's "basic benefits" setting).
    Composability,
    /// Composability-based pruning with blocks chosen by the hierarchical
    /// identifier (§5).
    ComposabilityHierarchical,
}

impl RunMode {
    /// Parses a `--mode` flag value.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError::Config`] naming the accepted values.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "baseline" => Ok(RunMode::Baseline),
            "composability" => Ok(RunMode::Composability),
            "hierarchical" => Ok(RunMode::ComposabilityHierarchical),
            other => Err(CoreError::Config(format!(
                "unknown mode `{other}` (expected baseline, composability, or hierarchical)"
            ))),
        }
    }
}

/// All inputs of a Wootz run (the four inputs of Figure 2).
#[derive(Debug, Clone)]
pub struct WootzInputs {
    /// The to-be-pruned model.
    pub model: ModelIr,
    /// The promising subspace.
    pub subspace: Vec<PruneConfig>,
    /// Training meta data.
    pub solver: SolverConfig,
    /// The pruning objective.
    pub objective: Objective,
}

/// The chosen network of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BestNetwork {
    /// Index in the promising subspace.
    pub config_index: usize,
    /// Its pruning rates.
    pub rates: Vec<u8>,
    /// Parameter count.
    pub model_size: usize,
    /// Final accuracy.
    pub accuracy: f64,
}

/// Summary of a complete pruning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WootzRun {
    /// The scheme used.
    pub mode: RunMode,
    /// Accuracy of the trained full model on the dataset.
    pub full_accuracy: f64,
    /// The chosen network, when any configuration met the objective.
    pub best: Option<BestNetwork>,
    /// Full exploration record.
    pub exploration: ExplorationResult,
    /// Number of tuning blocks pre-trained (0 for the baseline).
    pub blocks_pretrained: usize,
    /// Number of tuning blocks that failed pre-training even after the
    /// per-block fallback (their layers assemble from inherited weights).
    pub blocks_failed: Option<usize>,
    /// SGD steps spent pre-training blocks (the composability overhead).
    pub pretrain_steps: usize,
    /// SGD steps spent across all network evaluations.
    pub finetune_steps: usize,
}

/// A milestone of a running pipeline, delivered through
/// [`RunOptions::progress`]. The serve daemon forwards these to clients
/// as `JobEvent` NDJSON lines (`SERVING.md`); the callback runs on the
/// pipeline's driver thread, strictly ordered.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// The full model was served from the cross-run block store — its
    /// training is skipped entirely. [`RunEvent::FullModelReady`] follows.
    TeacherCacheHit,
    /// The full model is trained (or was replayed/supplied/served).
    FullModelReady {
        /// Test accuracy of the full model.
        accuracy: f64,
    },
    /// A tuning block was served from the cross-run block store — its
    /// pre-training is skipped entirely (`steps` charged: 0).
    BlockCacheHit {
        /// The block's [`crate::compile::TuningBlock::key`].
        key: String,
    },
    /// A tuning block finished Teacher–Student pre-training.
    BlockPretrained {
        /// The block's [`crate::compile::TuningBlock::key`].
        key: String,
        /// SGD steps this block was charged.
        steps: usize,
    },
    /// One configuration evaluation finished (or failed permanently).
    EvalDone {
        /// Index in the promising subspace.
        config_index: usize,
        /// Final accuracy; `None` for a failed evaluation.
        accuracy: Option<f64>,
    },
}

/// Fault-tolerance, journaling, caching, and progress options for
/// [`run_wootz_with`]. The default (`no faults, one attempt, abort on
/// failure, no journal, no store, no progress`) reproduces the
/// pre-supervisor pipeline bit for bit.
#[derive(Default, Clone)]
pub struct RunOptions<'a> {
    /// Deterministic fault-injection plan.
    pub faults: Option<&'a FaultPlan>,
    /// Retry policy for configuration evaluations.
    pub retry: RetryPolicy,
    /// When set, every completed unit of work (full model, pre-trained
    /// block, evaluation) is appended to this record journal.
    pub journal: Option<PathBuf>,
    /// When true and the journal file exists, verify its header and replay
    /// its entries instead of redoing the work.
    pub resume: bool,
    /// Cross-run block store: consulted before training the full model
    /// and before pre-training (hits inject the already-trained teacher or
    /// blocks, journaled like the work they replace; blocks at 0 steps)
    /// and published to afterwards. See `SERVING.md` for key derivation.
    pub store: Option<&'a wootz_store::BlockStore>,
    /// Progress callback for pipeline milestones ([`RunEvent`]).
    pub progress: Option<&'a (dyn Fn(&RunEvent) + Sync)>,
    /// Exploration strategy (`--explorer`). The default,
    /// [`ExplorerKind::Fixed`], walks [`WootzInputs::subspace`] in
    /// objective order; the other kinds grow the evaluation universe
    /// round by round from their own proposals.
    pub explorer: ExplorerKind,
    /// Maximum configurations proposals may add to the evaluation
    /// universe (`--explorer-budget`; replayed entries count). The fixed
    /// explorer adds none and so ignores it; for the strategies that
    /// start from an empty universe it caps the evaluations, and `0`
    /// runs no rounds at all.
    pub explorer_budget: usize,
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("faults", &self.faults)
            .field("retry", &self.retry)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .field("store", &self.store.map(|s| s.dir().to_path_buf()))
            .field("progress", &self.progress.map(|_| "<callback>"))
            .field("explorer", &self.explorer)
            .field("explorer_budget", &self.explorer_budget)
            .finish()
    }
}

/// The solver component of the block store's cache key: FNV-1a over the
/// teacher checkpoint's content hash and every pre-training
/// hyper-parameter. Blocks are trained against the frozen full model's
/// activation maps, so folding the teacher's content hash in makes a hit
/// against a different teacher structurally impossible (`SERVING.md`).
pub fn store_solver_hash(teacher: &Checkpoint, cfg: &PretrainConfig) -> u64 {
    let mut bytes = Vec::with_capacity(44);
    bytes.extend_from_slice(&teacher.content_hash().to_le_bytes());
    bytes.extend_from_slice(&(cfg.steps as u64).to_le_bytes());
    bytes.extend_from_slice(&cfg.sgd.learning_rate.to_bits().to_le_bytes());
    bytes.extend_from_slice(&cfg.sgd.weight_decay.to_bits().to_le_bytes());
    bytes.extend_from_slice(&cfg.sgd.momentum.to_bits().to_le_bytes());
    bytes.extend_from_slice(&cfg.seed.to_le_bytes());
    wootz_fault::fnv1a64(&bytes)
}

/// The block store's cache key for `block` trained on `dataset` under the
/// solver/teacher identity `solver` ([`store_solver_hash`]) — the one
/// derivation both the store lookup and the publish go through, so an
/// entry is always found under the key it was inserted with.
pub fn store_key(block: &TuningBlock, dataset: &str, solver: u64) -> wootz_store::StoreKey {
    wootz_store::StoreKey {
        structure: block.structure_hash(),
        dataset: dataset.to_string(),
        solver,
    }
}

/// Revision of what [`train_full_model`] makes of its inputs, folded into
/// [`teacher_store_key`]: a change that moves the trained bytes for the
/// same inputs (a re-pin of the goldens) bumps it, so every stored
/// teacher misses instead of serving the old bytes.
pub const TEACHER_REVISION: u64 = 1;

/// The block store's key for the full model [`train_full_model`] trains
/// from the same arguments, derived from exactly what that function reads:
/// the model (`structure`: FNV-1a over its prototxt), the dataset (`dataset`:
/// its id; its seed and shape go into `solver`), the solver's training
/// fields (`max_iter`, `base_lr`, `weight_decay`, `momentum`, `batch_size`,
/// `lr_policy`/`lr_step`/`lr_gamma`, `seed`) and [`TEACHER_REVISION`].
/// Nothing else of the run (objective, subspace, workers, pre-training
/// fields) moves the key, so every job that would train this teacher
/// finds it.
pub fn teacher_store_key(
    mm: &MultiplexingModel,
    dataset: &Dataset,
    solver: &SolverConfig,
) -> wootz_store::StoreKey {
    let spec = dataset.spec();
    let mut bytes = Vec::with_capacity(128 + solver.lr_policy.len());
    for word in [
        TEACHER_REVISION,
        spec.seed,
        spec.classes as u64,
        spec.train_size as u64,
        spec.test_size as u64,
        spec.image.0 as u64,
        spec.image.1 as u64,
        spec.image.2 as u64,
        u64::from(spec.separation.to_bits()),
        solver.max_iter as u64,
        u64::from(solver.base_lr.to_bits()),
        u64::from(solver.weight_decay.to_bits()),
        u64::from(solver.momentum.to_bits()),
        solver.batch_size as u64,
        solver.lr_step as u64,
        u64::from(solver.lr_gamma.to_bits()),
        solver.seed,
    ] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes.extend_from_slice(solver.lr_policy.as_bytes());
    wootz_store::StoreKey {
        structure: wootz_fault::fnv1a64(mm.ir().to_prototxt().as_bytes()),
        dataset: spec.name.clone(),
        solver: wootz_fault::fnv1a64(&bytes),
    }
}

/// Trains the full model on the dataset (the preparation step: "adapt the
/// four CNN models trained on ImageNet to each of four specific tasks").
/// Returns the checkpoint (scope `net/`), its test accuracy, and the log.
/// Nothing reads a full-model curve, so the test set is measured once, after
/// the last step, and the log records no curve.
///
/// # Errors
///
/// Propagates compilation/training errors.
pub fn train_full_model(
    mm: &MultiplexingModel,
    dataset: &Dataset,
    solver: &SolverConfig,
) -> Result<(Checkpoint, f64, TrainLog)> {
    train_full_model_on(mm, dataset, solver, &OnceLock::new())
}

/// [`train_full_model`] measuring on `eval_set`, the run's one
/// [`evaluation_set`] (built here if no evaluation has built it yet).
fn train_full_model_on(
    mm: &MultiplexingModel,
    dataset: &Dataset,
    solver: &SolverConfig,
    eval_set: &OnceLock<(Tensor, Vec<usize>)>,
) -> Result<(Checkpoint, f64, TrainLog)> {
    let _span = wootz_obs::span("pipeline.full_model").with("max_iter", solver.max_iter);
    let mut built = mm.build(&ModeToUse::Original, solver.seed)?;
    let cfg = TrainConfig {
        max_steps: solver.max_iter,
        sgd: SgdConfig {
            learning_rate: solver.base_lr,
            weight_decay: solver.weight_decay,
            momentum: solver.momentum,
        },
        schedule: schedule_of(solver),
        eval_every: 0,
    };
    let (eval_x, eval_y) = eval_set.get_or_init(|| evaluation_set(dataset));
    let batch_size = solver.batch_size;
    let logits = built
        .logits
        .ok_or_else(|| CoreError::Pipeline("model has no classifier".into()))?;
    let input = built.input_name.clone();
    let log = wootz_nn::train_classifier(
        &built.graph,
        &mut built.vars,
        &input,
        logits,
        &cfg,
        |step| dataset.train_batch(step, batch_size),
        Some(EvalSet::new(eval_x, eval_y)),
    )?;
    let accuracy = log.final_accuracy.unwrap_or(0.0) as f64;
    Ok((Checkpoint::capture(&built.vars, "net/"), accuracy, log))
}

/// Maps the solver's `lr_policy` fields onto the trainer's schedule.
fn schedule_of(solver: &SolverConfig) -> LrSchedule {
    match solver.lr_policy.as_str() {
        "step" => LrSchedule::StepDecay {
            every: solver.lr_step.max(1),
            gamma: solver.lr_gamma,
        },
        "cosine" => LrSchedule::Cosine,
        _ => LrSchedule::Fixed,
    }
}

/// The minimum-accuracy bound of the objective, if it has one — used to
/// measure "steps to target" as evaluation cost.
fn accuracy_threshold(objective: &Objective) -> Option<f64> {
    objective
        .constraints
        .iter()
        .filter(|c| c.metric == Metric::Accuracy)
        .map(|c| c.value)
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Per-module saliency of the trained full model — the first-order
/// Taylor-style score the [`TaylorSaliency`] explorer ranks modules
/// by: the mean L1 filter importance over each module's prunable
/// convolutions (checkpoint scope `net/`). A module without prunable
/// convolutions gets `f64::INFINITY`, so candidate synthesis prunes it
/// last. The result is indexed like
/// [`wootz_ir::ModelIr::conv_module_ids`], matching [`PruneConfig`]
/// positions.
pub fn module_saliency(model: &ModelIr, full: &Checkpoint) -> Vec<f64> {
    model
        .conv_module_ids()
        .iter()
        .map(|&module| {
            let mut sum = 0.0f64;
            let mut filters = 0usize;
            for layer in model.prunable_convs_of_module(module) {
                if let Some(weight) = full.get(&format!("net/{layer}/weight")) {
                    let importance = filter_importance(weight);
                    sum += importance.iter().map(|&v| v as f64).sum::<f64>();
                    filters += importance.len();
                }
            }
            if filters == 0 {
                f64::INFINITY
            } else {
                sum / filters as f64
            }
        })
        .collect()
}

/// The per-module rate grid adaptive strategies synthesize candidates
/// from: the distinct non-zero rates appearing in the seed subspace,
/// falling back to the paper's rate grid when the subspace has none.
fn explorer_rate_grid(subspace: &[PruneConfig]) -> Vec<u8> {
    let mut grid: Vec<u8> = subspace
        .iter()
        .flat_map(|c| c.rates().iter().copied())
        .filter(|&r| r > 0)
        .collect();
    grid.sort_unstable();
    grid.dedup();
    if grid.is_empty() {
        PAPER_RATES.to_vec()
    } else {
        grid
    }
}

/// Constructs the [`Explorer`] a run's `--explorer` choice names, from
/// the run inputs and the trained full model (the fixed strategy seeds
/// its universe with the input subspace; the Taylor strategy reads its
/// saliencies from the full model's weights; the bandit seeds its sampler
/// from `solver.seed` and steers toward the objective's accuracy bound).
///
/// # Errors
///
/// Propagates analytic size errors (fixed strategy ordering only).
pub fn build_explorer(
    kind: ExplorerKind,
    inputs: &WootzInputs,
    full_ckpt: &Checkpoint,
) -> Result<Box<dyn Explorer>> {
    let grid = explorer_rate_grid(&inputs.subspace);
    Ok(match kind {
        ExplorerKind::Fixed => Box::new(FixedSubspace::new(
            &inputs.objective,
            inputs.subspace.clone(),
            &subspace_stats(inputs)?.0,
        )),
        ExplorerKind::Taylor => Box::new(TaylorSaliency::new(
            &module_saliency(&inputs.model, full_ckpt),
            grid,
        )),
        ExplorerKind::Bandit => Box::new(BanditExplorer::new(
            inputs.model.conv_module_ids().len(),
            grid,
            inputs.solver.seed,
            accuracy_threshold(&inputs.objective),
        )),
    })
}

/// The journal identity header for a run over these inputs in this mode.
/// Both the single-process pipeline and the distributed coordinator derive
/// their header from here, so a journal written by one is resumable by the
/// other.
///
/// # Errors
///
/// Fails only if the objective cannot be serialized.
pub fn journal_header(inputs: &WootzInputs, mode: RunMode) -> Result<JournalHeader> {
    Ok(JournalHeader {
        version: JOURNAL_VERSION,
        subspace_hash: subspace_hash(&inputs.subspace),
        inputs_hash: inputs_hash(&inputs.model, &inputs.solver),
        objective: serde_json::to_string(&inputs.objective)
            .map_err(|e| CoreError::Journal(format!("cannot serialize objective: {e}")))?,
        seed: inputs.solver.seed,
        mode: format!("{mode:?}"),
    })
}

/// The pre-training configuration the pipeline derives from a solver —
/// shared with the distributed worker so both pre-train blocks with
/// identical hyper-parameters and seed.
pub fn block_pretrain_config(solver: &SolverConfig) -> PretrainConfig {
    PretrainConfig {
        steps: solver.pretrain_iter,
        sgd: SgdConfig {
            learning_rate: solver.pretrain_lr,
            weight_decay: solver.pretrain_weight_decay,
            momentum: solver.momentum,
        },
        seed: solver.seed ^ 0xb10c,
    }
}

/// The tuning-block set a mode implies for the run's subspace
/// ([`WootzInputs::subspace`]).
///
/// # Errors
///
/// Propagates hierarchical block-identification errors.
pub fn blocks_for_mode(inputs: &WootzInputs, mode: RunMode) -> Result<Option<BlockSet>> {
    blocks_of(&inputs.subspace, mode)
}

/// The tuning-block set a mode implies for `universe` (`None` for the
/// baseline). Deterministic in the universe; only the phase driver
/// derives it, and every evaluation task carries its own composite
/// blocks.
fn blocks_of(universe: &[PruneConfig], mode: RunMode) -> Result<Option<BlockSet>> {
    Ok(match mode {
        RunMode::Baseline => None,
        RunMode::Composability => Some(module_level_blocks(universe)),
        RunMode::ComposabilityHierarchical => Some(identify_tuning_blocks(universe)?),
    })
}

/// Analytic per-configuration model sizes and FLOP counts of the subspace.
///
/// # Errors
///
/// Propagates configuration/shape errors from the analytic counters.
pub fn subspace_stats(inputs: &WootzInputs) -> Result<(Vec<usize>, Vec<u64>)> {
    let stats: Vec<ModelStats> = inputs
        .subspace
        .iter()
        .map(|config| config_stats(&inputs.model, config))
        .collect::<Result<_>>()?;
    Ok(stats
        .iter()
        .map(|s| (s.total_params, s.total_flops))
        .unzip())
}

/// Maps an exploration result back onto the best network summary.
/// `configs` is the evaluation universe the record indices resolve
/// against (for the fixed explorer, the input subspace itself).
pub fn best_network_in(
    configs: &[PruneConfig],
    exploration: &ExplorationResult,
) -> Option<BestNetwork> {
    exploration.best.map(|i| {
        let record = &exploration.evaluated[i];
        let outcome = record
            .outcome()
            .expect("best index always points at a successful record");
        BestNetwork {
            config_index: record.config_index(),
            rates: configs[record.config_index()].rates().to_vec(),
            model_size: outcome.model_size,
            accuracy: outcome.accuracy,
        }
    })
}

/// How many test samples every evaluation measures accuracy on.
const EVAL_SET_SIZE: usize = 256;

/// The evaluation set of `dataset`: the test samples every fine-tune
/// measures accuracy on. Deterministic in the dataset, so every process
/// measures the same samples; a run builds it once, for the teacher's
/// training or its first evaluation ([`TaskContext::eval_set`]).
pub fn evaluation_set(dataset: &Dataset) -> (Tensor, Vec<usize>) {
    dataset.test_set(EVAL_SET_SIZE)
}

/// Evaluates configurations of a subspace by index: the compiled
/// multiplexing model, the trained full model, the (optional) pre-trained
/// block checkpoints and the analytic stats. [`EvalContext::evaluate`]
/// looks configuration `i`, its composite blocks and its stats up and
/// runs the one per-configuration evaluation [`execute`] runs too, so it
/// is a pure, deterministic function of `config_index`.
pub struct EvalContext<'a> {
    inputs: &'a WootzInputs,
    dataset: &'a Dataset,
    mm: &'a MultiplexingModel,
    full_ckpt: &'a Checkpoint,
    block_set: Option<&'a BlockSet>,
    checkpoints: Option<&'a BTreeMap<String, Checkpoint>>,
    sizes: &'a [usize],
    flops: &'a [u64],
    faults: Option<&'a FaultPlan>,
    eval_set: OnceLock<(Tensor, Vec<usize>)>,
}

impl<'a> EvalContext<'a> {
    /// Builds the evaluation context. `checkpoints` are the pre-trained
    /// block checkpoints keyed by block key; pass `None` (with
    /// `block_set: None`) for baseline runs.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        inputs: &'a WootzInputs,
        dataset: &'a Dataset,
        mm: &'a MultiplexingModel,
        full_ckpt: &'a Checkpoint,
        block_set: Option<&'a BlockSet>,
        checkpoints: Option<&'a BTreeMap<String, Checkpoint>>,
        sizes: &'a [usize],
        flops: &'a [u64],
        faults: Option<&'a FaultPlan>,
    ) -> Self {
        EvalContext {
            inputs,
            dataset,
            mm,
            full_ckpt,
            block_set,
            checkpoints,
            sizes,
            flops,
            faults,
            eval_set: OnceLock::from(evaluation_set(dataset)),
        }
    }

    /// Assembles, fine-tunes and measures configuration `config_index` of
    /// the subspace, through the per-configuration evaluation [`execute`]
    /// runs.
    ///
    /// # Errors
    ///
    /// Propagates assembly and training errors.
    pub fn evaluate(&self, config_index: usize) -> Result<EvalOutcome> {
        let (bag, blocks) = match (self.block_set, self.checkpoints) {
            (Some(set), Some(bag)) => (bag, Some(composite_blocks(set, config_index))),
            _ => (&NO_BLOCKS, None),
        };
        let cx = TaskContext {
            inputs: self.inputs,
            dataset: self.dataset,
            eval_set: &self.eval_set,
            mm: self.mm,
            full_ckpt: self.full_ckpt,
            blocks: bag,
            faults: self.faults,
            retry: RetryPolicy::default(),
        };
        cx.evaluate(
            config_index,
            &self.inputs.subspace[config_index],
            blocks.as_deref(),
            (self.sizes[config_index], self.flops[config_index]),
        )
    }
}

/// The empty block bag of a context that evaluates without blocks.
static NO_BLOCKS: BTreeMap<String, Checkpoint> = BTreeMap::new();

/// The composite blocks of configuration `config_index` of `set`, in part
/// order: what its evaluation assembles from.
fn composite_blocks(set: &BlockSet, config_index: usize) -> Vec<TuningBlock> {
    set.composites[config_index]
        .parts
        .iter()
        .map(|p| set.blocks[p.block_index].clone())
        .collect()
}

/// One unit of work of a run: the only thing either runtime executes. A
/// task carries everything that differs between tasks; what is fixed for
/// the whole run is its [`TaskContext`]'s.
#[derive(Debug, Clone, PartialEq)]
pub enum Task {
    /// Supervise the evaluation of one configuration.
    Eval {
        /// Universe index of the configuration (its seed index and fault
        /// key).
        config_index: usize,
        /// The configuration's pruning rates.
        config: PruneConfig,
        /// The configuration's composite blocks in part order; `None`
        /// for the baseline, which assembles from inherited weights.
        blocks: Option<Vec<TuningBlock>>,
    },
    /// Pre-train one group of non-overlapping blocks.
    Pretrain {
        /// The group's index in its batch's partition (keys its batch
        /// stream and its `pretrain.group` faults).
        group_index: usize,
        /// The group's blocks, each with its position in the batch (the
        /// key of its `pretrain.block` faults).
        blocks: Vec<(usize, TuningBlock)>,
    },
}

impl Task {
    /// The task's index: an evaluation's `config_index`, a group's
    /// `group_index`. It keys the task's faults at `cluster.task`, like
    /// the in-process sites, and a remote result echoes it.
    pub fn index(&self) -> usize {
        match self {
            Task::Eval { config_index, .. } => *config_index,
            Task::Pretrain { group_index, .. } => *group_index,
        }
    }
}

/// What executing a [`Task`] produced, in the task's own variant.
///
/// Its one byte encoding ([`WireSerialize`]) is what a worker's
/// `TaskDone` frame carries (`PROTOCOL.md` §4.2): a tag, then an
/// evaluation's outcome or rendered error, attempts and backoff, or a
/// group's trained blocks, failed blocks and rendered group error.
/// Errors cross as their rendering and decode to [`CoreError::Remote`],
/// which displays verbatim, so a remote output folds exactly like a local
/// one.
#[derive(Debug)]
pub enum TaskOutput {
    /// The supervised evaluation of [`Task::Eval`].
    Eval(SupervisedEval),
    /// The supervised group of [`Task::Pretrain`].
    Pretrain(GroupOutcome),
}

impl TaskOutput {
    /// Wire tag of [`TaskOutput::Eval`].
    pub const TAG_EVAL: u8 = 2;
    /// Wire tag of [`TaskOutput::Pretrain`].
    pub const TAG_PRETRAIN: u8 = 3;
    /// Retired wire tags, never reused: the `Eval` (0) and `Pretrain` (1)
    /// result payloads of the revision whose pre-training results dropped
    /// the group error. A mixed fleet fails decoding with `InvalidValue`
    /// in both directions instead of folding a result without it.
    pub const RETIRED_TAGS: [u8; 2] = [0, 1];

    /// The output of a `task` that could not run to completion after
    /// `attempts` tries: an evaluation failed with `error`, or a group
    /// whose every block failed with it.
    pub fn failed(task: &Task, error: CoreError, attempts: u32) -> Self {
        match task {
            Task::Eval { .. } => TaskOutput::Eval(SupervisedEval {
                result: Err(error),
                attempts,
                backoff: 0.0,
            }),
            Task::Pretrain { blocks, .. } => TaskOutput::Pretrain(GroupOutcome {
                blocks: Vec::new(),
                failed: blocks
                    .iter()
                    .map(|(_, block)| (block.key(), error.to_string()))
                    .collect(),
                first_error: Some(error),
            }),
        }
    }
}

impl WireSerialize for TaskOutput {
    fn wire_size(&self) -> usize {
        1 + match self {
            TaskOutput::Eval(sup) => {
                let result = match &sup.result {
                    Ok(outcome) => doc_size(outcome),
                    Err(error) => error.to_string().wire_size(),
                };
                1 + result + 4 + 8
            }
            TaskOutput::Pretrain(group) => {
                group.blocks.wire_size()
                    + group.failed.wire_size()
                    + group
                        .first_error
                        .as_ref()
                        .map(ToString::to_string)
                        .wire_size()
            }
        }
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        match self {
            TaskOutput::Eval(sup) => {
                w.write_all(&[TaskOutput::TAG_EVAL])?;
                sup.result.is_ok().wire_write(w)?;
                match &sup.result {
                    Ok(outcome) => write_doc(w, "TaskOutput::Eval outcome", outcome)?,
                    Err(error) => error.to_string().wire_write(w)?,
                }
                sup.attempts.wire_write(w)?;
                sup.backoff.wire_write(w)
            }
            TaskOutput::Pretrain(group) => {
                w.write_all(&[TaskOutput::TAG_PRETRAIN])?;
                group.blocks.wire_write(w)?;
                group.failed.wire_write(w)?;
                group
                    .first_error
                    .as_ref()
                    .map(ToString::to_string)
                    .wire_write(w)
            }
        }
    }
}

impl WireDeserialize for TaskOutput {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Self> {
        match r.u8("TaskOutput tag")? {
            TaskOutput::TAG_EVAL => {
                let result = if r.bool("TaskOutput::Eval ok")? {
                    Ok(read_doc(r, "TaskOutput::Eval outcome")?)
                } else {
                    Err(CoreError::Remote(r.string("TaskOutput::Eval error")?))
                };
                Ok(TaskOutput::Eval(SupervisedEval {
                    result,
                    attempts: r.u32("TaskOutput::Eval attempts")?,
                    backoff: r.f64("TaskOutput::Eval backoff")?,
                }))
            }
            TaskOutput::TAG_PRETRAIN => Ok(TaskOutput::Pretrain(GroupOutcome {
                blocks: Vec::<PretrainedBlock>::wire_read(r)?,
                failed: Vec::<(String, String)>::wire_read(r)?,
                first_error: Option::<String>::wire_read(r)?.map(CoreError::Remote),
            })),
            tag if TaskOutput::RETIRED_TAGS.contains(&tag) => Err(WireError::InvalidValue {
                context: "TaskOutput tag",
                detail: format!(
                    "retired variant tag {tag} (a result of an older protocol revision; \
                     upgrade the sender)"
                ),
            }),
            other => Err(WireError::InvalidValue {
                context: "TaskOutput tag",
                detail: format!("unknown variant tag {other}"),
            }),
        }
    }
}

// --- JSON documents on the wire ----------------------------------------------
//
// Configurations, tuning blocks, evaluation outcomes and the run manifest
// ride inside frames as `doc<T>` (PROTOCOL.md §5): a length-prefixed JSON
// document, the same JSON the journal holds. A document's declared length
// is checked against the frame budget before allocation, like any blob.

/// Encoded size of a `doc<T>` field (length prefix + JSON bytes).
///
/// Serialization of the plain-derive types documents carry cannot fail;
/// if it ever did, [`write_doc`] reports it as a structured error and the
/// size here is only a capacity hint.
pub fn doc_size<T: Serialize>(value: &T) -> usize {
    4 + serde_json::to_vec(value).map(|v| v.len()).unwrap_or(0)
}

/// Writes a value as a `doc<T>` field.
///
/// # Errors
///
/// [`WireError::InvalidValue`] when the value cannot be serialized, or
/// the writer's error.
pub fn write_doc<W: Write + ?Sized, T: Serialize>(
    w: &mut W,
    context: &'static str,
    value: &T,
) -> WireResult<()> {
    let bytes = serde_json::to_vec(value).map_err(|e| WireError::InvalidValue {
        context,
        detail: format!("cannot serialize document: {e}"),
    })?;
    write_bytes(w, context, &bytes)
}

/// Reads a `doc<T>` field under the reader's budget.
///
/// # Errors
///
/// The reader's budget and UTF-8 errors, or [`WireError::InvalidValue`]
/// for JSON that does not parse as `T`.
pub fn read_doc<R: Read, T: for<'de> Deserialize<'de>>(
    r: &mut WireReader<R>,
    context: &'static str,
) -> WireResult<T> {
    let bytes = r.bytes(context)?;
    let text = std::str::from_utf8(&bytes).map_err(|_| WireError::InvalidUtf8 { context })?;
    serde_json::from_str(text).map_err(|e| WireError::InvalidValue {
        context,
        detail: format!("cannot parse document: {e}"),
    })
}

/// Reads a wire `u64` into a host `usize`, rejecting values the host
/// cannot represent.
///
/// # Errors
///
/// The reader's errors, or [`WireError::InvalidValue`] for a value above
/// `usize::MAX`.
pub fn read_usize<R: Read>(r: &mut WireReader<R>, context: &'static str) -> WireResult<usize> {
    let v = r.u64(context)?;
    usize::try_from(v).map_err(|_| WireError::InvalidValue {
        context,
        detail: format!("{v} does not fit a usize on this host"),
    })
}

/// What every [`Task`] of a run executes against: everything fixed for
/// the run. The phase driver builds it from its own state; a `wootz
/// worker` process rebuilds the same values from its `Welcome` and the
/// blocks the coordinator pushed with its grants.
pub struct TaskContext<'a> {
    /// The run inputs (model, solver, objective).
    pub inputs: &'a WootzInputs,
    /// The training data.
    pub dataset: &'a Dataset,
    /// The test samples every evaluation measures ([`evaluation_set`]),
    /// built once per run by [`run_phases`] for the teacher's training or
    /// else by the first evaluation, and once per environment in a worker.
    /// A coordinator builds it only to train the teacher: its evaluations
    /// run on the workers.
    pub eval_set: &'a OnceLock<(Tensor, Vec<usize>)>,
    /// The compiled multiplexing model.
    pub mm: &'a MultiplexingModel,
    /// The trained full model (the teacher).
    pub full_ckpt: &'a Checkpoint,
    /// The pre-trained blocks by block key. A key an evaluation needs but
    /// the bag lacks is a block whose pre-training failed: its layers
    /// assemble from inherited weights.
    pub blocks: &'a BTreeMap<String, Checkpoint>,
    /// Deterministic fault-injection plan.
    pub faults: Option<&'a FaultPlan>,
    /// Retry policy for evaluations.
    pub retry: RetryPolicy,
}

impl TaskContext<'_> {
    /// Assembles, fine-tunes and measures `config` — the one
    /// per-configuration evaluation, behind both [`execute`] and
    /// [`EvalContext::evaluate`]. Deterministic: the assembly seed and the
    /// batch stream are pure functions of the solver seed and
    /// `config_index`. `blocks` are the configuration's composite blocks
    /// (`None` assembles from inherited weights); `stats` its analytic
    /// parameter count and FLOPs.
    ///
    /// The outcome reads the final accuracy and, under an `Accuracy` bound,
    /// the first step at which the accuracy curve reaches it (the cost).
    /// So the fine-tune records a curve only under such a bound, every
    /// `eval_every` steps, and ends it at that point; without one it
    /// measures the final accuracy alone.
    fn evaluate(
        &self,
        config_index: usize,
        config: &PruneConfig,
        blocks: Option<&[TuningBlock]>,
        (model_size, flops): (usize, u64),
    ) -> Result<EvalOutcome> {
        // Placeholder for blocks whose pre-training failed: assembles as an
        // empty checkpoint, which the assembler degrades to inherited
        // weights (with an `assemble.block_fallback` event), keeping the
        // run alive.
        let missing = Checkpoint::new();
        let pairs: Vec<(&TuningBlock, &Checkpoint)> = blocks
            .unwrap_or_default()
            .iter()
            .map(|block| (block, self.blocks.get(&block.key()).unwrap_or(&missing)))
            .collect();
        let strategy = match blocks {
            Some(_) => InitStrategy::BlockTrained(&pairs),
            None => InitStrategy::Default,
        };
        let solver = &self.inputs.solver;
        let (mut built, _fallbacks) = assemble_supervised(
            self.mm,
            config,
            self.full_ckpt,
            strategy,
            solver.seed ^ config_index as u64,
            self.faults,
            config_index as u64,
        )?;
        let threshold = accuracy_threshold(&self.inputs.objective);
        let cfg = TrainConfig {
            max_steps: solver.max_iter,
            sgd: SgdConfig {
                learning_rate: solver.base_lr,
                weight_decay: solver.weight_decay,
                momentum: solver.momentum,
            },
            schedule: schedule_of(solver),
            eval_every: match threshold {
                Some(_) => solver.eval_every.max(1),
                None => 0,
            },
        };
        let batch_size = solver.batch_size;
        let (eval_x, eval_y) = self.eval_set.get_or_init(|| evaluation_set(self.dataset));
        let eval = EvalSet {
            images: eval_x,
            labels: eval_y,
            target: threshold.map(|t| t as f32),
        };
        let log = global_finetune(
            &mut built,
            &cfg,
            |step| {
                self.dataset
                    .train_batch(step.wrapping_add(config_index * 1009), batch_size)
            },
            Some(eval),
        )?;
        let accuracy = log.final_accuracy.unwrap_or(0.0) as f64;
        // Steps-to-target as cost when the target was hit mid-run.
        let cost_steps = threshold
            .and_then(|t| log.first_step_reaching(t as f32))
            .unwrap_or(log.steps_run);
        Ok(EvalOutcome {
            model_size,
            flops,
            accuracy,
            cost: cost_steps as f64,
            log: Some(log),
        })
    }
}

/// Executes one task: the one function that maps a unit of work to its
/// output, whichever runtime and process runs it. An evaluation is
/// [`supervise_eval`] over the per-configuration evaluation under an
/// `explore.config` span; a group is [`pretrain_group_supervised`] on the
/// solver's pre-training configuration. Both are pure functions of the
/// task and the context, which is what makes the runtimes interchangeable.
pub fn execute(task: &Task, cx: &TaskContext<'_>) -> TaskOutput {
    match task {
        Task::Eval {
            config_index,
            config,
            blocks,
        } => {
            let _span = wootz_obs::span("explore.config").with("config", *config_index);
            let model = &cx.inputs.model;
            let evaluate = |i: usize| {
                let stats = config_stats(model, config)?;
                let sizes = (stats.total_params, stats.total_flops);
                cx.evaluate(i, config, blocks.as_deref(), sizes)
            };
            TaskOutput::Eval(supervise_eval(
                &evaluate,
                *config_index,
                &cx.retry,
                cx.faults,
            ))
        }
        Task::Pretrain {
            group_index,
            blocks,
        } => {
            let batch_size = cx.inputs.solver.batch_size;
            TaskOutput::Pretrain(pretrain_group_supervised(
                cx.mm,
                blocks,
                *group_index,
                cx.full_ckpt,
                &block_pretrain_config(&cx.inputs.solver),
                &|step| cx.dataset.train_batch(step, batch_size).0,
                cx.faults,
            ))
        }
    }
}

/// The runtime seam of [`run_phases`]: runs a batch of tasks and returns
/// one output per task, in task order. Journal, store, explorer and fold
/// stay the driver's, so an executor decides only where and when each
/// task executes.
pub trait Executor {
    /// Executes `tasks` against `cx`.
    ///
    /// # Errors
    ///
    /// Transport failures; task failures travel inside the outputs.
    fn run(&mut self, cx: &TaskContext<'_>, tasks: &[Task]) -> Result<Vec<TaskOutput>>;
}

/// The in-process [`Executor`] behind [`run_wootz_with`] — the
/// single-machine analogue of the paper's MPI workers (§6.2): every batch
/// is one `wootz-par` batch of [`execute`] under `catch_unwind`, so the
/// pool's threads are the workers. A batch as wide as the pool runs each
/// task's kernels inline on its own thread; a narrower one fans them out to
/// the idle threads (`wootz-par`'s nesting rule). Either way the chunk
/// boundaries, and so the bits, are the same.
pub struct LocalExecutor;

impl Executor for LocalExecutor {
    fn run(&mut self, cx: &TaskContext<'_>, tasks: &[Task]) -> Result<Vec<TaskOutput>> {
        let caught = |task: &Task| {
            catch_unwind(AssertUnwindSafe(|| execute(task, cx))).unwrap_or_else(|payload| {
                let what = match task {
                    Task::Eval { config_index, .. } => {
                        format!("evaluation task for config {config_index}")
                    }
                    Task::Pretrain { group_index, .. } => {
                        format!("pre-training task for group {group_index}")
                    }
                };
                let error = CoreError::Panic {
                    what,
                    message: panic_message(payload.as_ref()),
                };
                TaskOutput::failed(task, error, 1)
            })
        };
        Ok(wootz_par::parallel_map(tasks.len(), |i| caught(&tasks[i])))
    }
}

/// Runs the `(group index, block indices)` groups `todo` of `batch` on
/// `executor`, one [`Task::Pretrain`] per group: the group runner
/// [`pretrain_groups_with`] calls.
pub(crate) fn run_groups(
    executor: &mut impl Executor,
    cx: &TaskContext<'_>,
    batch: &[TuningBlock],
    todo: &[(usize, &[usize])],
) -> Result<Vec<GroupOutcome>> {
    let tasks: Vec<Task> = todo
        .iter()
        .map(|&(group_index, group)| Task::Pretrain {
            group_index,
            blocks: group.iter().map(|&bi| (bi, batch[bi].clone())).collect(),
        })
        .collect();
    executor
        .run(cx, &tasks)?
        .into_iter()
        .map(|output| match output {
            TaskOutput::Pretrain(group) => Ok(group),
            TaskOutput::Eval(_) => Err(CoreError::Pipeline(
                "executor answered a pre-training task with an evaluation".into(),
            )),
        })
        .collect()
}

/// Runs the complete pruning pipeline on a dataset.
///
/// The full model is trained first (or taken from `full`); the explorer
/// then proposes configurations in rounds of `solver.num_workers`, and
/// each round pre-trains the tuning blocks its universe newly implies
/// (when the mode calls for it) before evaluating. Evaluation cost is
/// counted in SGD steps: a network that reaches the accuracy target early
/// is charged only the steps it needed, which is how block-trained
/// networks translate better starting points into shorter exploration
/// (§7.2).
///
/// # Errors
///
/// Propagates every phase's errors.
pub fn run_wootz(
    inputs: &WootzInputs,
    dataset: &Dataset,
    mode: RunMode,
    full: Option<(Checkpoint, f64)>,
) -> Result<WootzRun> {
    run_wootz_with(inputs, dataset, mode, full, &RunOptions::default())
}

/// [`run_wootz`] with explicit options: fault injection, retry policy,
/// the crash-resumable run journal, the cross-run block store, progress
/// events and the exploration strategy. Runs [`run_phases`] over the
/// [`LocalExecutor`].
///
/// The full model (the teacher) comes from the first of: `full` as
/// supplied; the journal's `FullModel` record when `opts.resume` replays
/// one; `opts.store` under [`teacher_store_key`]; training it with
/// [`train_full_model`], which then publishes it to `opts.store`. Every
/// source but the journal appends the same `FullModel` record and fires
/// the same [`RunEvent::FullModelReady`] (a store hit announces itself
/// first with [`RunEvent::TeacherCacheHit`]), so `--out` and journals of
/// a run that found its teacher in the store are byte-equal to a cold
/// run's.
///
/// # Errors
///
/// Propagates every phase's errors; with `opts.resume` set, also journal
/// header mismatches and mid-file corruption.
pub fn run_wootz_with(
    inputs: &WootzInputs,
    dataset: &Dataset,
    mode: RunMode,
    full: Option<(Checkpoint, f64)>,
    opts: &RunOptions<'_>,
) -> Result<WootzRun> {
    let _run = wootz_obs::span("pipeline.run")
        .with("mode", format!("{mode:?}"))
        .with("configs", inputs.subspace.len())
        .with("workers", inputs.solver.num_workers);
    let mm = {
        let _compile = wootz_obs::span("pipeline.compile");
        MultiplexingModel::compile(inputs.model.clone())?
    };
    run_phases(inputs, dataset, mode, &mm, full, opts, |_| {
        Ok(LocalExecutor)
    })
    .map(|(run, _)| run)
}

/// The phase driver every run goes through, whatever the strategy and
/// whichever runtime executes the work: journal open/resume → full model
/// → `start` the executor → explorer rounds (per round: the blocks the
/// universe newly implies → block store → one [`Task::Pretrain`] per
/// group to train, then one [`Task::Eval`] per fresh configuration → fold
/// → observe) → [`WootzRun`].
///
/// `start` receives the trained full model and returns the [`Executor`];
/// the executor is handed back with the run so the caller can shut it
/// down and collect its statistics.
///
/// Determinism: the universe index doubles as the evaluation seed index,
/// and each pre-training batch is derived from the *trajectory* (the
/// blocks of the current universe no earlier universe implied, in
/// first-appearance order), never from which blocks happen to be trained
/// — so any executor, and any resume point, partitions every batch into
/// the same groups and replays the same training bytes. Blocks compose
/// across rounds (the within-run reuse that makes proposal-driven
/// exploration nearly free) and the cross-run store serves repeats at
/// zero steps (`explore.cache_assisted`). Journal order per round is
/// Proposal → Blocks → Evals for every executor, so either runtime resumes
/// the other's journal mid-round.
///
/// # Errors
///
/// Propagates journal, training, executor and exploration errors.
pub fn run_phases<E: Executor>(
    inputs: &WootzInputs,
    dataset: &Dataset,
    mode: RunMode,
    mm: &MultiplexingModel,
    full: Option<(Checkpoint, f64)>,
    opts: &RunOptions<'_>,
    start: impl FnOnce(&Checkpoint) -> Result<E>,
) -> Result<(WootzRun, E)> {
    // Journal setup: create fresh, or verify + replay an existing one.
    let header = journal_header(inputs, mode)?;
    let (mut journal, replay) = match &opts.journal {
        None => (None, Replay::default()),
        Some(path) if opts.resume && path.exists() => {
            let (journal, replay) = Journal::resume(path, &header)?;
            (Some(journal), replay)
        }
        Some(path) => (Some(Journal::create(path, &header)?), Replay::default()),
    };
    let Replay {
        full: journaled_full,
        blocks: mut completed,
        evals: journaled_evals,
        proposals: journaled_proposals,
        ..
    } = replay;

    let progress = |event: RunEvent| {
        if let Some(progress) = opts.progress {
            progress(&event);
        }
    };
    // The run's one evaluation set: built by the teacher's training when
    // the teacher is trained here, else by the first evaluation.
    let eval_set = OnceLock::new();
    // The teacher: supplied, else replayed, else from the store, else
    // trained. A store hit is journaled exactly like a trained model, so
    // the journal cannot tell the two apart.
    let (full_ckpt, full_accuracy) = match full.or(journaled_full) {
        Some(full) => full,
        None => {
            let store = opts
                .store
                .map(|store| (store, teacher_store_key(mm, dataset, &inputs.solver)));
            let stored = store
                .as_ref()
                .and_then(|(store, key)| store.get_teacher(key));
            let (c, a) = match stored {
                Some(teacher) => {
                    progress(RunEvent::TeacherCacheHit);
                    (teacher.checkpoint, teacher.accuracy)
                }
                None => {
                    let (c, a, _) = train_full_model_on(mm, dataset, &inputs.solver, &eval_set)?;
                    if let Some((store, key)) = &store {
                        store
                            .insert_teacher(key, a, &c)
                            .map_err(|e| CoreError::Pipeline(e.to_string()))?;
                    }
                    (c, a)
                }
            };
            if let Some(journal) = journal.as_mut() {
                journal.append(&JournalEntry::FullModel {
                    accuracy: a,
                    checkpoint: c.clone(),
                })?;
            }
            (c, a)
        }
    };
    progress(RunEvent::FullModelReady {
        accuracy: full_accuracy,
    });

    let mut executor = start(&full_ckpt)?;
    let mut explorer = build_explorer(opts.explorer, inputs, &full_ckpt)?;
    let dataset_id = inputs.solver.dataset.as_str();
    let solver_hash = opts
        .store
        .map(|_| store_solver_hash(&full_ckpt, &block_pretrain_config(&inputs.solver)));
    // Everything below runs on the driver thread; the journal is shared
    // by the round runner and the sinks, so a RefCell serializes access.
    let journal = RefCell::new(journal);
    let append = |entry: &JournalEntry| -> Result<()> {
        match journal.borrow_mut().as_mut() {
            Some(journal) => journal.append(entry),
            None => Ok(()),
        }
    };
    let base = TaskContext {
        inputs,
        dataset,
        eval_set: &eval_set,
        mm,
        full_ckpt: &full_ckpt,
        blocks: &NO_BLOCKS,
        faults: opts.faults,
        retry: opts.retry,
    };
    // The length of the universe the last round addressed and the tuning
    // blocks the mode implies for it.
    let mut universe: Option<(usize, Option<BlockSet>)> = None;
    let mut known_block_keys: BTreeSet<String> = BTreeSet::new();
    let mut checkpoints: BTreeMap<String, Checkpoint> = BTreeMap::new();
    let mut pretrain_steps = 0usize;
    let mut blocks_failed = 0usize;
    let mut finetune_steps = 0usize;

    let mut run_round = |round: &Round<'_>| -> Result<Vec<SupervisedEval>> {
        if universe
            .as_ref()
            .is_none_or(|(len, _)| *len != round.universe.len())
        {
            let block_set = {
                let _ident = wootz_obs::span("pipeline.identify_blocks");
                blocks_of(round.universe, mode)?
            };
            // This universe's pre-training batch: blocks no earlier
            // universe implied. Keyed off the trajectory, not off training
            // success, so a block that failed pre-training degrades to
            // inherited weights instead of being silently retried under a
            // different grouping.
            let batch: Vec<TuningBlock> = block_set
                .iter()
                .flat_map(|set| &set.blocks)
                .filter(|b| known_block_keys.insert(b.key()))
                .cloned()
                .collect();
            if !batch.is_empty() {
                // Cross-run reuse: consult the block store before
                // training. A hit becomes a completed block charged 0
                // steps — journaled exactly like replayed work, so a warm
                // journal proves the block was never retrained.
                if let (Some(store), Some(solver)) = (opts.store, solver_hash) {
                    for block in &batch {
                        let key = block.key();
                        if completed.contains_key(&key) {
                            continue;
                        }
                        if let Some(entry) = store.get(&store_key(block, dataset_id, solver)) {
                            let hit = PretrainedBlock {
                                key: key.clone(),
                                checkpoint: entry.checkpoint,
                                first_loss: entry.first_loss,
                                last_loss: entry.last_loss,
                                steps: 0,
                            };
                            append(&JournalEntry::Block(hit.clone()))?;
                            wootz_obs::counter("explore.cache_assisted").incr();
                            progress(RunEvent::BlockCacheHit { key: key.clone() });
                            completed.insert(key, hit);
                        }
                    }
                }
                // Journaled/store-served copies restricted to this batch,
                // so replayed blocks keep their group positions. Moved, not
                // cloned: a block key belongs to exactly one batch.
                let batch_completed: BTreeMap<String, PretrainedBlock> = batch
                    .iter()
                    .filter_map(|b| completed.remove_entry(&b.key()))
                    .collect();
                let by_key: BTreeMap<String, &TuningBlock> =
                    batch.iter().map(|b| (b.key(), b)).collect();
                let mut block_sink = |block: &PretrainedBlock| -> Result<()> {
                    append(&JournalEntry::Block(block.clone()))?;
                    // Publish the freshly trained block for future runs; a
                    // concurrent publisher winning the race is fine
                    // (`insert` is one-wins) and a full budget simply
                    // evicts it later.
                    if let (Some(store), Some(solver)) = (opts.store, solver_hash) {
                        let entry = wootz_store::BlockEntry {
                            block_key: block.key.clone(),
                            first_loss: block.first_loss,
                            last_loss: block.last_loss,
                            trained_steps: block.steps as u64,
                            checkpoint: block.checkpoint.clone(),
                        };
                        store
                            .insert(&store_key(by_key[&block.key], dataset_id, solver), &entry)
                            .map_err(|e| CoreError::Pipeline(e.to_string()))?;
                    }
                    progress(RunEvent::BlockPretrained {
                        key: block.key.clone(),
                        steps: block.steps,
                    });
                    Ok(())
                };
                let cx = TaskContext {
                    blocks: &checkpoints,
                    ..base
                };
                let outcome = pretrain_groups_with(
                    &batch,
                    batch_completed,
                    |todo| run_groups(&mut executor, &cx, &batch, todo),
                    Some(&mut block_sink),
                )?;
                pretrain_steps += outcome.total_steps();
                blocks_failed += outcome.failed.len();
                checkpoints.extend(
                    outcome
                        .blocks
                        .into_iter()
                        .map(|block| (block.key, block.checkpoint)),
                );
            }
            universe = Some((round.universe.len(), block_set));
        }
        let block_set = universe.as_ref().and_then(|(_, set)| set.as_ref());
        let tasks: Vec<Task> = round
            .fresh
            .iter()
            .map(|&config_index| Task::Eval {
                config_index,
                config: round.universe[config_index].clone(),
                blocks: block_set.map(|set| composite_blocks(set, config_index)),
            })
            .collect();
        let cx = TaskContext {
            blocks: &checkpoints,
            ..base
        };
        let results = executor
            .run(&cx, &tasks)?
            .into_iter()
            .map(|output| match output {
                TaskOutput::Eval(sup) => Ok(sup),
                TaskOutput::Pretrain(_) => Err(CoreError::Pipeline(
                    "executor answered an evaluation task with a pre-training outcome".into(),
                )),
            })
            .collect::<Result<Vec<_>>>()?;
        finetune_steps += results
            .iter()
            .filter_map(|sup| sup.result.as_ref().ok()?.log.as_ref())
            .map(|log| log.steps_run)
            .sum::<usize>();
        Ok(results)
    };

    let mut proposal_sink =
        |record: &ProposalRecord| append(&JournalEntry::Proposal(record.clone()));
    let mut eval_sink = |record: &EvalRecord| -> Result<()> {
        append(&JournalEntry::Eval(record.clone()))?;
        progress(RunEvent::EvalDone {
            config_index: record.config_index(),
            accuracy: record.outcome().map(|o| o.accuracy),
        });
        Ok(())
    };
    let engine_opts = EngineOptions {
        resume: journaled_evals,
        on_exhausted: opts.retry.on_exhausted,
        budget: opts.explorer_budget,
        replay_proposals: &journaled_proposals,
    };
    let explored = run_explorer(
        explorer.as_mut(),
        &inputs.objective,
        inputs.solver.num_workers,
        &mut run_round,
        &engine_opts,
        Some(&mut proposal_sink),
        Some(&mut eval_sink),
    )?;
    wootz_obs::event("pipeline.explored")
        .field("configs_explored", explored.exploration.configs_explored)
        .field("wall_cost", explored.exploration.wall_cost)
        .field("total_cost", explored.exploration.total_cost)
        .field("fresh", explored.exploration.fresh_evals())
        .field("resumed", explored.exploration.resumed)
        .field("failed", explored.exploration.failed)
        .field("explorer", opts.explorer.as_str())
        .field("rounds", explored.rounds)
        .field("converged", explored.converged)
        .emit();

    let best = best_network_in(&explored.universe, &explored.exploration);
    let run = WootzRun {
        mode,
        full_accuracy,
        best,
        exploration: explored.exploration,
        blocks_pretrained: known_block_keys.len(),
        blocks_failed: Some(blocks_failed),
        pretrain_steps,
        finetune_steps,
    };
    Ok((run, executor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::sample_subspace;
    use wootz_data::micro_dataset;
    use wootz_models::resnet_mini;
    use wootz_wire::Limits;

    /// Encodes `output`, checks the declared size, and decodes it back.
    fn wire_round_trip(output: &TaskOutput) -> TaskOutput {
        let mut buf = Vec::new();
        output.wire_write(&mut buf).unwrap();
        assert_eq!(buf.len(), output.wire_size(), "declared size matches");
        let mut r = WireReader::new(buf.as_slice(), buf.len() as u64, Limits::DEFAULT);
        let back = TaskOutput::wire_read(&mut r).unwrap();
        r.expect_consumed().unwrap();
        back
    }

    #[test]
    fn run_mode_parses_every_spelling() {
        for (s, mode) in [
            ("baseline", RunMode::Baseline),
            ("composability", RunMode::Composability),
            ("hierarchical", RunMode::ComposabilityHierarchical),
        ] {
            assert_eq!(RunMode::parse(s).unwrap(), mode);
        }
        let err = RunMode::parse("warp").unwrap_err().to_string();
        assert!(err.contains("unknown mode `warp`"), "{err}");
        assert!(
            err.contains("baseline, composability, or hierarchical"),
            "{err}"
        );
    }

    /// A task output crosses the wire whole: outcomes bit for bit, and
    /// every error — an evaluation's, a failed block's, the group's — as
    /// its rendering, which the decoded error displays verbatim.
    #[test]
    fn task_outputs_round_trip_with_their_errors_rendered() {
        let outcome = EvalOutcome {
            model_size: 10,
            flops: 20,
            accuracy: 0.1 + 0.2,
            cost: 3.25,
            log: None,
        };
        let eval = |result| {
            TaskOutput::Eval(SupervisedEval {
                result,
                attempts: 2,
                backoff: 1.25,
            })
        };
        let TaskOutput::Eval(sup) = wire_round_trip(&eval(Ok(outcome.clone()))) else {
            panic!("an evaluation decoded as a group");
        };
        assert_eq!((sup.attempts, sup.backoff), (2, 1.25));
        assert_eq!(sup.result.unwrap(), outcome);

        let error = CoreError::Pipeline("boom".into());
        let rendered = error.to_string();
        let TaskOutput::Eval(sup) = wire_round_trip(&eval(Err(error))) else {
            panic!("an evaluation decoded as a group");
        };
        assert_eq!(sup.result.unwrap_err().to_string(), rendered);

        let block = TuningBlock::new(0, vec![(1, 30)]).unwrap();
        let task = Task::Pretrain {
            group_index: 1,
            blocks: vec![(0, block.clone())],
        };
        let group_error = CoreError::Pipeline("group boom".into());
        let rendered = group_error.to_string();
        let TaskOutput::Pretrain(group) =
            wire_round_trip(&TaskOutput::failed(&task, group_error, 1))
        else {
            panic!("a group decoded as an evaluation");
        };
        assert!(group.blocks.is_empty());
        assert_eq!(group.failed, vec![(block.key(), rendered.clone())]);
        assert_eq!(group.first_error.unwrap().to_string(), rendered);
    }

    fn tiny_inputs(n_configs: usize) -> WootzInputs {
        let model = resnet_mini(8);
        let n = model.conv_module_ids().len();
        WootzInputs {
            subspace: sample_subspace(n, &crate::prune::PAPER_RATES, n_configs, 5),
            model,
            solver: SolverConfig {
                dataset: "flowers102".into(),
                base_lr: 0.05,
                max_iter: 20,
                batch_size: 8,
                pretrain_lr: 0.1,
                pretrain_iter: 10,
                eval_every: 10,
                seed: 3,
                ..SolverConfig::default()
            },
            objective: Objective::min_size_with_accuracy(0.2),
        }
    }

    #[test]
    fn baseline_pipeline_runs_end_to_end() {
        let inputs = tiny_inputs(3);
        let ds = micro_dataset("flowers102", 3);
        let run = run_wootz(&inputs, &ds, RunMode::Baseline, None).unwrap();
        assert_eq!(run.blocks_pretrained, 0);
        assert_eq!(run.pretrain_steps, 0);
        assert!(run.exploration.configs_explored >= 1);
        assert!(run.finetune_steps > 0);
    }

    #[test]
    fn composability_pipeline_pretrains_blocks() {
        let inputs = tiny_inputs(3);
        let ds = micro_dataset("flowers102", 3);
        let run = run_wootz(&inputs, &ds, RunMode::Composability, None).unwrap();
        assert!(run.blocks_pretrained > 0);
        assert!(run.pretrain_steps > 0);
    }

    /// A pre-training group whose reconstruction loss blows up (a huge
    /// `pretrain_lr`) publishes nothing: no block reaches the journal or
    /// the store, every block is reported failed and assembles from
    /// inherited weights, and the run still completes.
    #[test]
    fn diverged_pretraining_journals_and_stores_no_block() {
        let ds = micro_dataset("flowers102", 3);
        let dir = std::env::temp_dir().join(format!("wootz_pipe_diverged_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = wootz_store::BlockStore::open(dir.join("store"), None).unwrap();
        let mut inputs = tiny_inputs(3);
        inputs.solver.pretrain_lr = 1e30;
        let journal = dir.join("run.journal");
        let opts = RunOptions {
            store: Some(&store),
            journal: Some(journal.clone()),
            ..RunOptions::default()
        };
        let run = run_wootz_with(&inputs, &ds, RunMode::Composability, None, &opts).unwrap();
        // Every block of the set failed, and no step was charged for one.
        assert!(run.blocks_pretrained > 0);
        assert_eq!(run.blocks_failed, Some(run.blocks_pretrained), "{run:?}");
        assert_eq!(run.pretrain_steps, 0);
        assert_eq!(run.exploration.failed, 0, "{run:?}");
        assert!(run.best.is_some());
        assert_eq!(store.stats().inserts, 0);
        let (_, replay) = crate::journal::read_journal(&journal).unwrap();
        assert!(replay.blocks.is_empty(), "{:?}", replay.blocks.keys());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The issue's acceptance scenario: one evaluator panic, one group
    /// error and one corrupt block checkpoint injected into a single run.
    /// The run must complete (retrying/degrading only the affected work),
    /// and a resume after a simulated kill must re-evaluate nothing that
    /// was journaled while choosing the same best network.
    #[test]
    fn faulted_run_completes_degrades_and_resumes() {
        use wootz_fault::{site, FaultKind, FaultPlan, RetryPolicy, Trigger};

        let inputs = tiny_inputs(3);
        let ds = micro_dataset("flowers102", 3);
        let dir = std::env::temp_dir().join(format!("wootz_pipe_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("run.ndjson");
        let trigger = |site: &str, key: u64, kind: FaultKind| Trigger {
            site: site.into(),
            key: Some(key),
            kind,
            times: Some(1),
        };
        let plan = FaultPlan {
            seed: 11,
            triggers: vec![
                trigger(site::EXPLORE_EVAL, 0, FaultKind::EvalPanic),
                trigger(site::PRETRAIN_GROUP, 0, FaultKind::EvalError),
                trigger(site::ASSEMBLE_BLOCK, 1, FaultKind::CorruptCheckpoint),
            ],
            rates: vec![],
        };
        let opts = RunOptions {
            faults: Some(&plan),
            retry: RetryPolicy::skip_after(3),
            journal: Some(journal.clone()),
            resume: false,
            ..RunOptions::default()
        };
        let cold = run_wootz_with(&inputs, &ds, RunMode::Composability, None, &opts).unwrap();
        assert!(cold.exploration.configs_explored >= 1);
        assert!(cold.blocks_pretrained > 0);
        // The panic was retried and recovered; nothing was skipped.
        assert_eq!(cold.exploration.failed, 0);
        assert!(cold.best.is_some());

        // Simulated kill + resume: replay the journal, evaluate nothing
        // fresh, land on the same best network.
        let opts = RunOptions {
            resume: true,
            ..opts
        };
        let warm = run_wootz_with(&inputs, &ds, RunMode::Composability, None, &opts).unwrap();
        assert_eq!(warm.exploration.fresh_evals(), 0, "{warm:?}");
        assert_eq!(warm.exploration.resumed, cold.exploration.configs_explored);
        assert_eq!(warm.best, cold.best);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Job B's subspace for the crossover store case: job A's
    /// configurations plus `extras` crossovers that recombine rates
    /// *within* A — every `(module, rate)` pair of an extra configuration
    /// already appears in some configuration of A, so the module-level
    /// block set is unchanged and a store seeded by A can serve all of B.
    fn warm_subspace(seed_configs: &[PruneConfig], extras: usize) -> Vec<PruneConfig> {
        let mut out: Vec<PruneConfig> = seed_configs.to_vec();
        let mut seen: std::collections::HashSet<Vec<u8>> =
            seed_configs.iter().map(|c| c.rates().to_vec()).collect();
        let n = seed_configs.len();
        let mut shift = 1usize;
        while out.len() < n + extras && shift < n * n {
            for i in 0..n {
                // Alternate modules between configuration i and its
                // shifted partner — a crossover, never a novel rate.
                let a = seed_configs[i].rates();
                let b = seed_configs[(i + shift) % n].rates();
                let mixed: Vec<u8> = a
                    .iter()
                    .zip(b.iter())
                    .enumerate()
                    .map(|(m, (&x, &y))| if m % 2 == 0 { x } else { y })
                    .collect();
                if seen.insert(mixed.clone()) {
                    out.push(PruneConfig::new(mixed).expect("rates < 100"));
                    if out.len() == n + extras {
                        break;
                    }
                }
            }
            shift += 1;
        }
        out
    }

    #[test]
    fn warm_subspace_reuses_only_existing_rates() {
        let seeds = sample_subspace(4, &crate::prune::PAPER_RATES, 4, 3);
        let warm = warm_subspace(&seeds, 3);
        assert_eq!(warm.len(), seeds.len() + 3);
        let mut pairs = std::collections::HashSet::new();
        for c in &seeds {
            for (m, &r) in c.rates().iter().enumerate() {
                pairs.insert((m, r));
            }
        }
        for c in &warm[seeds.len()..] {
            for (m, &r) in c.rates().iter().enumerate() {
                assert!(
                    pairs.contains(&(m, r)),
                    "crossover introduced a novel (module, rate) pair"
                );
            }
        }
    }

    /// Cross-run composability: job A seeds a block store in `dir`, then
    /// job B runs against it. B must be served every block from the store
    /// (all hits, no misses), spend zero pre-training steps, and land on a
    /// best network and full accuracy bit-equal to B run cold in a fresh
    /// store — the across-run analogue of the paper's within-run reuse.
    fn assert_store_serves_job_b(
        case: &str,
        dir: &std::path::Path,
        ds: &Dataset,
        job_a: &WootzInputs,
        job_b: &WootzInputs,
    ) {
        use std::sync::Mutex;

        let store = wootz_store::BlockStore::open(dir.join("store"), None).unwrap();
        let events: Mutex<Vec<RunEvent>> = Mutex::new(Vec::new());
        let record = |e: &RunEvent| events.lock().unwrap().push(e.clone());
        let opts = RunOptions {
            store: Some(&store),
            progress: Some(&record),
            ..RunOptions::default()
        };
        let cold = run_wootz_with(job_a, ds, RunMode::Composability, None, &opts).unwrap();
        assert!(cold.pretrain_steps > 0);
        let cold_events = std::mem::take(&mut *events.lock().unwrap());
        let pretrained = cold_events
            .iter()
            .filter(|e| matches!(e, RunEvent::BlockPretrained { .. }))
            .count();
        assert_eq!(pretrained, cold.blocks_pretrained);
        assert_eq!(store.stats().inserts, cold.blocks_pretrained as u64);

        let seeded = store.stats();
        let warm = run_wootz_with(job_b, ds, RunMode::Composability, None, &opts).unwrap();
        let after = store.stats();
        assert_eq!(
            warm.pretrain_steps, 0,
            "{case}: warm run must skip pre-training"
        );
        assert_eq!(
            after.misses, seeded.misses,
            "{case}: a block missed the store"
        );
        assert_eq!(
            after.hits - seeded.hits,
            cold.blocks_pretrained as u64,
            "{case}: every block of job A served warm"
        );
        assert!(after.bytes_served > seeded.bytes_served, "{case}");
        assert_eq!(
            (after.teacher_hits, after.teacher_misses),
            (seeded.teacher_hits + 1, seeded.teacher_misses),
            "{case}: job B found job A's teacher"
        );
        let warm_events = std::mem::take(&mut *events.lock().unwrap());
        let hits = warm_events
            .iter()
            .filter(|e| matches!(e, RunEvent::BlockCacheHit { .. }))
            .count();
        assert_eq!(
            hits, warm.blocks_pretrained,
            "{case}: every block served warm"
        );
        assert!(
            !warm_events
                .iter()
                .any(|e| matches!(e, RunEvent::BlockPretrained { .. })),
            "{case}: no block trained fresh on the warm run"
        );

        // The cold control: job B alone in a fresh store.
        let control_store = wootz_store::BlockStore::open(dir.join("control"), None).unwrap();
        let control_opts = RunOptions {
            store: Some(&control_store),
            ..RunOptions::default()
        };
        let control =
            run_wootz_with(job_b, ds, RunMode::Composability, None, &control_opts).unwrap();
        assert!(control.pretrain_steps > 0, "{case}");
        assert_eq!(
            warm.best, control.best,
            "{case}: reuse must be bit-identical"
        );
        assert_eq!(warm.full_accuracy, control.full_accuracy, "{case}");
    }

    /// Job B is job A itself; then a different solver seed must miss.
    #[test]
    fn warm_store_run_skips_pretraining_bit_identically() {
        let ds = micro_dataset("flowers102", 3);
        let dir = std::env::temp_dir().join(format!("wootz_pipe_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_store_serves_job_b("rerun", &dir, &ds, &tiny_inputs(3), &tiny_inputs(3));

        // A different solver seed must not hit the cache: the solver hash
        // guards against serving blocks trained under other hyper-params.
        let store = wootz_store::BlockStore::open(dir.join("store"), None).unwrap();
        let opts = RunOptions {
            store: Some(&store),
            ..RunOptions::default()
        };
        let mut other = tiny_inputs(3);
        other.solver.seed = 4;
        let misses_before = store.stats().misses;
        let cool = run_wootz_with(&other, &ds, RunMode::Composability, None, &opts).unwrap();
        assert!(cool.pretrain_steps > 0, "different solver must retrain");
        assert!(store.stats().misses > misses_before);
        let stats = store.stats();
        assert_eq!(
            (stats.teacher_misses, stats.teacher_inserts),
            (1, 1),
            "another seed, another teacher"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Job B's subspace adds crossovers of job A's configurations: every
    /// block B needs is one A already trained, so the store serves all of B.
    #[test]
    fn crossover_subspace_is_served_entirely_from_the_store() {
        let ds = micro_dataset("flowers102", 3);
        let job_a = tiny_inputs(3);
        let crossover = WootzInputs {
            subspace: warm_subspace(&job_a.subspace, 2),
            ..tiny_inputs(3)
        };
        assert_eq!(crossover.subspace.len(), job_a.subspace.len() + 2);
        let dir = std::env::temp_dir().join(format!("wootz_pipe_cross_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_store_serves_job_b("crossover", &dir, &ds, &job_a, &crossover);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn teacher_key_moves_with_what_training_reads_and_only_that() {
        let inputs = tiny_inputs(2);
        let key = |model: &ModelIr, ds: &Dataset, solver: &SolverConfig| {
            let mm = MultiplexingModel::compile(model.clone()).unwrap();
            teacher_store_key(&mm, ds, solver)
        };
        let ds = micro_dataset("flowers102", 3);
        let base = key(&inputs.model, &ds, &inputs.solver);
        assert_eq!(base, key(&inputs.model, &ds, &inputs.solver), "stable");

        assert_ne!(base, key(&resnet_mini(4), &ds, &inputs.solver), "model");
        for (what, other) in [
            ("dataset id", micro_dataset("cub200", 3)),
            ("dataset seed", micro_dataset("flowers102", 4)),
        ] {
            assert_ne!(base, key(&inputs.model, &other, &inputs.solver), "{what}");
        }
        type Edit = fn(&mut SolverConfig);
        let read: [(&str, Edit); 9] = [
            ("max_iter", |s| s.max_iter += 1),
            ("base_lr", |s| s.base_lr *= 2.0),
            ("weight_decay", |s| s.weight_decay *= 2.0),
            ("momentum", |s| s.momentum = 0.5),
            ("batch_size", |s| s.batch_size += 1),
            ("lr_policy", |s| s.lr_policy = "step".into()),
            ("lr_step", |s| s.lr_step += 1),
            ("lr_gamma", |s| s.lr_gamma *= 0.5),
            ("seed", |s| s.seed += 1),
        ];
        for (field, edit) in read {
            let mut solver = inputs.solver.clone();
            edit(&mut solver);
            assert_ne!(base, key(&inputs.model, &ds, &solver), "{field} is read");
        }
        let unread: [(&str, Edit); 6] = [
            ("num_workers", |s| s.num_workers += 3),
            ("eval_every", |s| s.eval_every += 1),
            ("pretrain_lr", |s| s.pretrain_lr *= 2.0),
            ("pretrain_iter", |s| s.pretrain_iter += 1),
            ("pretrain_weight_decay", |s| s.pretrain_weight_decay *= 2.0),
            ("dataset name", |s| s.dataset = "cub200".into()),
        ];
        for (field, edit) in unread {
            let mut solver = inputs.solver.clone();
            edit(&mut solver);
            assert_eq!(
                base,
                key(&inputs.model, &ds, &solver),
                "{field} is not read"
            );
        }
        // The objective and the subspace are no input of the key at all:
        // a job under another objective or subspace finds the same
        // teacher. The store gets its own file name for it.
        assert_ne!(base.teacher_file_name(), base.file_name());
    }

    /// The FullModel record of a journal, as its raw frame.
    fn full_model_record(journal: &std::path::Path) -> wootz_wire::Frame {
        let bytes = std::fs::read(journal).unwrap();
        wootz_wire::scan_records(&bytes, &wootz_wire::Limits::ARTIFACT)
            .records
            .into_iter()
            .map(|r| r.frame)
            .find(|f| f.msg_type == wootz_wire::record_type::JOURNAL_FULL_MODEL)
            .expect("the journal holds a FullModel record")
    }

    /// A job whose teacher is in the store trains none, and journals
    /// exactly what a cold job does; a damaged stored teacher is
    /// quarantined and retrained to the same entry bytes.
    #[test]
    fn stored_teacher_replaces_training_byte_for_byte() {
        let ds = micro_dataset("flowers102", 3);
        let dir = std::env::temp_dir().join(format!("wootz_pipe_teacher_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = wootz_store::BlockStore::open(dir.join("store"), None).unwrap();
        let inputs = tiny_inputs(2);
        let run = |tag: &str| {
            let journal = dir.join(format!("{tag}.journal"));
            let opts = RunOptions {
                store: Some(&store),
                journal: Some(journal.clone()),
                ..RunOptions::default()
            };
            let run = run_wootz_with(&inputs, &ds, RunMode::Baseline, None, &opts).unwrap();
            (run, full_model_record(&journal))
        };
        let mm = MultiplexingModel::compile(inputs.model.clone()).unwrap();
        let entry = dir
            .join("store")
            .join(teacher_store_key(&mm, &ds, &inputs.solver).teacher_file_name());

        let (cold, cold_record) = run("cold");
        let stats = store.stats();
        assert_eq!(
            (
                stats.teacher_hits,
                stats.teacher_misses,
                stats.teacher_inserts
            ),
            (0, 1, 1)
        );
        let cold_entry = std::fs::read(&entry).unwrap();

        let (warm, warm_record) = run("warm");
        let stats = store.stats();
        assert_eq!(
            (
                stats.teacher_hits,
                stats.teacher_misses,
                stats.teacher_inserts
            ),
            (1, 1, 1)
        );
        assert_eq!(warm_record, cold_record, "the journal cannot tell");
        assert_eq!(warm.full_accuracy.to_bits(), cold.full_accuracy.to_bits());
        assert_eq!(warm.best, cold.best);

        let mut bytes = cold_entry.clone();
        let n = bytes.len();
        bytes[n - 5] ^= 0x10;
        std::fs::write(&entry, &bytes).unwrap();
        let (retrained, retrained_record) = run("retrained");
        let stats = store.stats();
        assert_eq!(
            (
                stats.teacher_hits,
                stats.teacher_misses,
                stats.teacher_inserts
            ),
            (1, 2, 2),
            "the damaged teacher missed and was published again"
        );
        assert!(dir
            .join("store")
            .join(wootz_wire::QUARANTINE_DIR)
            .join(entry.file_name().unwrap())
            .exists());
        assert_eq!(std::fs::read(&entry).unwrap(), cold_entry, "same bytes");
        assert_eq!(retrained_record, cold_record);
        assert_eq!(retrained.best, cold.best);
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts),
            (0, 0, 0),
            "a baseline run has no blocks, and teachers are not counted as any"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn module_saliency_ranks_every_conv_module() {
        let inputs = tiny_inputs(2);
        let ds = micro_dataset("flowers102", 3);
        let mm = MultiplexingModel::compile(inputs.model.clone()).unwrap();
        let (ckpt, _, _) = train_full_model(&mm, &ds, &inputs.solver).unwrap();
        let saliency = module_saliency(&inputs.model, &ckpt);
        assert_eq!(saliency.len(), inputs.model.conv_module_ids().len());
        // Trained conv weights have non-zero L1 mass; prunable modules get
        // finite positive saliencies.
        assert!(saliency.iter().any(|s| s.is_finite() && *s > 0.0));
        // Deterministic in the checkpoint.
        assert_eq!(saliency, module_saliency(&inputs.model, &ckpt));
    }

    #[test]
    fn adaptive_taylor_run_explores_proposed_universe() {
        let inputs = tiny_inputs(3);
        let ds = micro_dataset("flowers102", 3);
        let opts = RunOptions {
            explorer: ExplorerKind::Taylor,
            explorer_budget: 4,
            ..RunOptions::default()
        };
        let run = run_wootz_with(&inputs, &ds, RunMode::Composability, None, &opts).unwrap();
        assert!(run.exploration.configs_explored >= 1);
        assert!(run.exploration.configs_explored <= 4, "{run:?}");
        assert!(run.blocks_pretrained > 0);
        assert!(run.finetune_steps > 0);
        // The first Taylor rung (every module at the lowest rate) is a
        // gentle prune; on the micro dataset it satisfies the 0.2 bound.
        assert!(run.best.is_some(), "{run:?}");
    }

    #[test]
    fn adaptive_bandit_resume_is_bit_identical() {
        // Unsatisfiable accuracy bound: the run deterministically spends
        // its whole budget, then a resume must replay every proposal and
        // evaluation without fresh work.
        let mut inputs = tiny_inputs(3);
        inputs.objective = Objective::min_size_with_accuracy(0.99);
        let ds = micro_dataset("flowers102", 3);
        let dir = std::env::temp_dir().join(format!("wootz_adapt_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("run.journal");
        let opts = RunOptions {
            journal: Some(journal.clone()),
            explorer: ExplorerKind::Bandit,
            explorer_budget: 3,
            ..RunOptions::default()
        };
        let cold = run_wootz_with(&inputs, &ds, RunMode::Composability, None, &opts).unwrap();
        assert_eq!(cold.exploration.configs_explored, 3);
        assert!(cold.blocks_pretrained > 0);

        let opts = RunOptions {
            resume: true,
            ..opts
        };
        let warm = run_wootz_with(&inputs, &ds, RunMode::Composability, None, &opts).unwrap();
        assert_eq!(warm.exploration.fresh_evals(), 0, "{warm:?}");
        assert_eq!(warm.exploration.resumed, cold.exploration.configs_explored);
        // Early train-log records may hold NaN losses (NaN != NaN), so
        // compare the decisive fields per record.
        // (size, flops, accuracy, cost) of a successful evaluation.
        type Measured = (usize, u64, f64, f64);
        let digest = |run: &WootzRun| -> Vec<(usize, bool, Option<Measured>)> {
            run.exploration
                .evaluated
                .iter()
                .map(|r| {
                    (
                        r.config_index(),
                        r.satisfies(),
                        r.outcome()
                            .map(|o| (o.model_size, o.flops, o.accuracy, o.cost)),
                    )
                })
                .collect()
        };
        assert_eq!(digest(&warm), digest(&cold));
        assert_eq!(warm.best, cold.best);
        assert_eq!(warm.pretrain_steps, cold.pretrain_steps);
        assert_eq!(warm.blocks_pretrained, cold.blocks_pretrained);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explorer_journal_mismatch_is_rejected_both_ways() {
        let inputs = tiny_inputs(3);
        let ds = micro_dataset("flowers102", 3);
        let dir = std::env::temp_dir().join(format!("wootz_adapt_mismatch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // A fixed-subspace journal cannot seed an adaptive resume.
        let fixed_journal = dir.join("fixed.journal");
        let opts = RunOptions {
            journal: Some(fixed_journal.clone()),
            ..RunOptions::default()
        };
        run_wootz_with(&inputs, &ds, RunMode::Baseline, None, &opts).unwrap();
        let opts = RunOptions {
            journal: Some(fixed_journal),
            resume: true,
            explorer: ExplorerKind::Bandit,
            explorer_budget: 2,
            ..RunOptions::default()
        };
        let err = run_wootz_with(&inputs, &ds, RunMode::Baseline, None, &opts)
            .unwrap_err()
            .to_string();
        assert!(err.contains("without proposal records"), "{err}");

        // An adaptive journal cannot be resumed by the fixed loop.
        let adaptive_journal = dir.join("adaptive.journal");
        let opts = RunOptions {
            journal: Some(adaptive_journal.clone()),
            explorer: ExplorerKind::Taylor,
            explorer_budget: 2,
            ..RunOptions::default()
        };
        run_wootz_with(&inputs, &ds, RunMode::Baseline, None, &opts).unwrap();
        let opts = RunOptions {
            journal: Some(adaptive_journal),
            resume: true,
            ..RunOptions::default()
        };
        let err = run_wootz_with(&inputs, &ds, RunMode::Baseline, None, &opts)
            .unwrap_err()
            .to_string();
        assert!(err.contains("proposal records"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal pins the model and the solver it was recorded under: a
    /// resume after editing `max_iter` is refused, naming the solver,
    /// while `num_workers` (only a round's width) is not part of the
    /// identity.
    #[test]
    fn resuming_under_another_solver_is_refused() {
        let inputs = tiny_inputs(2);
        let ds = micro_dataset("flowers102", 3);
        let dir = std::env::temp_dir().join(format!("wootz_pipe_solver_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = RunOptions {
            journal: Some(dir.join("run.journal")),
            ..RunOptions::default()
        };
        run_wootz_with(&inputs, &ds, RunMode::Baseline, None, &opts).unwrap();
        let resume = RunOptions {
            resume: true,
            ..opts
        };
        let mut edited = inputs.clone();
        edited.solver.max_iter += 1;
        let err = run_wootz_with(&edited, &ds, RunMode::Baseline, None, &resume)
            .unwrap_err()
            .to_string();
        assert!(err.contains("solver mismatch"), "{err}");
        let mut wider = inputs.clone();
        wider.solver.num_workers += 3;
        assert_eq!(
            journal_header(&wider, RunMode::Baseline).unwrap(),
            journal_header(&inputs, RunMode::Baseline).unwrap()
        );
        let mut remodeled = inputs.clone();
        remodeled.model = resnet_mini(9);
        assert_ne!(
            journal_header(&remodeled, RunMode::Baseline).unwrap(),
            journal_header(&inputs, RunMode::Baseline).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every runtime runs an evaluation through [`execute`], so the
    /// `explore.config` span ("one evaluation") is emitted there, on the
    /// thread that runs the task.
    #[test]
    fn execute_spans_an_evaluation_as_explore_config() {
        wootz_obs::enable();
        let mut inputs = tiny_inputs(2);
        inputs.solver.max_iter = 2;
        let ds = micro_dataset("flowers102", 3);
        let mm = MultiplexingModel::compile(inputs.model.clone()).unwrap();
        let full = Checkpoint::capture(&mm.build(&ModeToUse::Original, 1).unwrap().vars, "net/");
        let eval_set = OnceLock::new();
        let cx = TaskContext {
            inputs: &inputs,
            dataset: &ds,
            eval_set: &eval_set,
            mm: &mm,
            full_ckpt: &full,
            blocks: &NO_BLOCKS,
            faults: None,
            retry: RetryPolicy::default(),
        };
        let task = Task::Eval {
            config_index: 1,
            config: inputs.subspace[1].clone(),
            blocks: None,
        };
        let TaskOutput::Eval(sup) = execute(&task, &cx) else {
            panic!("an evaluation task yields an evaluation");
        };
        assert_eq!(sup.attempts, 1);
        assert!(sup.result.is_ok());
        let thread = std::thread::current()
            .name()
            .unwrap_or_default()
            .to_string();
        let spans = wootz_obs::snapshot().spans;
        assert!(
            spans.iter().any(|s| s.name == "explore.config"
                && s.thread == thread
                && s.fields.get("config") == Some(&wootz_obs::FieldValue::Int(1))),
            "no explore.config span for config 1 on {thread}"
        );
    }

    /// The local executor runs a round's evaluations on the pool's own
    /// threads: three evaluations on a pool of two take at most two OS
    /// threads, and give the bits a pool of one gives.
    #[test]
    fn local_evaluations_run_on_the_pool_threads() {
        wootz_obs::enable();
        let mut inputs = tiny_inputs(3);
        inputs.solver.max_iter = 2;
        let ds = micro_dataset("flowers102", 3);
        let mm = MultiplexingModel::compile(inputs.model.clone()).unwrap();
        let full = Checkpoint::capture(&mm.build(&ModeToUse::Original, 1).unwrap().vars, "net/");
        let eval_set = OnceLock::new();
        let cx = TaskContext {
            inputs: &inputs,
            dataset: &ds,
            eval_set: &eval_set,
            mm: &mm,
            full_ckpt: &full,
            blocks: &NO_BLOCKS,
            faults: None,
            retry: RetryPolicy::default(),
        };
        // Seed indices no other test evaluates, so the spans are this
        // batch's.
        let indices = 7001..7004;
        let tasks: Vec<Task> = indices
            .clone()
            .zip(&inputs.subspace)
            .map(|(config_index, config)| Task::Eval {
                config_index,
                config: config.clone(),
                blocks: None,
            })
            .collect();
        let run = |threads: usize| -> Vec<String> {
            let pool = wootz_par::Pool::new(threads);
            let outputs = wootz_par::with_pool(&pool, || LocalExecutor.run(&cx, &tasks)).unwrap();
            outputs
                .iter()
                .map(|output| match output {
                    TaskOutput::Eval(sup) => {
                        serde_json::to_string(sup.result.as_ref().unwrap()).unwrap()
                    }
                    TaskOutput::Pretrain(_) => panic!("an evaluation task yields an evaluation"),
                })
                .collect()
        };
        let two = run(2);
        let threads: BTreeSet<String> = wootz_obs::snapshot()
            .spans
            .into_iter()
            .filter(|s| {
                s.name == "explore.config"
                    && matches!(s.fields.get("config"),
                        Some(wootz_obs::FieldValue::Int(c)) if indices.contains(&(*c as usize)))
            })
            .map(|s| s.thread)
            .collect();
        assert!(
            (1..=2).contains(&threads.len()),
            "three evaluations on a pool of two ran on {threads:?}"
        );
        assert_eq!(two, run(1));
    }

    /// `EvalContext::evaluate(i)` is a lookup over the evaluation an
    /// evaluation task runs: configuration `i`, its composite blocks and
    /// its stats give the outcome `execute` gives the task carrying them.
    #[test]
    fn eval_context_and_execute_evaluate_a_configuration_alike() {
        let mut inputs = tiny_inputs(3);
        inputs.solver.max_iter = 2;
        let ds = micro_dataset("flowers102", 3);
        let mm = MultiplexingModel::compile(inputs.model.clone()).unwrap();
        let full = Checkpoint::capture(&mm.build(&ModeToUse::Original, 1).unwrap().vars, "net/");
        let set = blocks_for_mode(&inputs, RunMode::Composability)
            .unwrap()
            .unwrap();
        // One trained-looking block, the rest missing (inherited weights).
        let first = &set.blocks[set.composites[2].parts[0].block_index];
        let bag: BTreeMap<String, Checkpoint> = [(first.key(), Checkpoint::new())].into();
        let (sizes, flops) = subspace_stats(&inputs).unwrap();
        let context = EvalContext::new(
            &inputs,
            &ds,
            &mm,
            &full,
            Some(&set),
            Some(&bag),
            &sizes,
            &flops,
            None,
        );
        let looked_up = context.evaluate(2).unwrap();

        let eval_set = OnceLock::new();
        let cx = TaskContext {
            inputs: &inputs,
            dataset: &ds,
            eval_set: &eval_set,
            mm: &mm,
            full_ckpt: &full,
            blocks: &bag,
            faults: None,
            retry: RetryPolicy::default(),
        };
        let task = Task::Eval {
            config_index: 2,
            config: inputs.subspace[2].clone(),
            blocks: Some(composite_blocks(&set, 2)),
        };
        let TaskOutput::Eval(sup) = execute(&task, &cx) else {
            panic!("an evaluation task yields an evaluation");
        };
        let executed = sup.result.unwrap();
        assert_eq!(
            serde_json::to_string(&executed).unwrap(),
            serde_json::to_string(&looked_up).unwrap()
        );
        assert_eq!(executed.model_size, sizes[2]);
        assert_eq!(executed.flops, flops[2]);
    }

    #[test]
    fn accuracy_threshold_extraction() {
        let o = Objective::min_size_with_accuracy(0.7);
        assert_eq!(accuracy_threshold(&o), Some(0.7));
        let o = Objective::parse("max Accuracy").unwrap();
        assert_eq!(accuracy_threshold(&o), None);
    }
}
