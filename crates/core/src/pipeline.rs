//! The end-to-end Wootz driver (Figure 2): from a model IR, a promising
//! subspace, solver meta data and a pruning objective, to the best pruned
//! network — either with the baseline ("default") scheme or with
//! composability-based pruning (tuning-block identification → Teacher–
//! Student pre-training → assembly → objective-ordered exploration).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use wootz_data::Dataset;
use wootz_fault::{FaultPlan, RetryPolicy};
use wootz_ir::{Metric, ModelIr, Objective, SolverConfig};
use wootz_nn::{Checkpoint, EvalSet, LrSchedule, TrainConfig, TrainLog};
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;

use crate::blocks::{identify_tuning_blocks, module_level_blocks, BlockSet};
use crate::compile::{ModeToUse, MultiplexingModel, TuningBlock};
use crate::explore::{
    supervise_round, EvalOutcome, EvalRecord, ExplorationResult, ExploreOptions, SupervisedEval,
};
use crate::explorer::{
    run_explorer, BanditExplorer, EngineOptions, Explorer, ExplorerKind, FixedSubspace,
    ProposalRecord, Round, TaylorSaliency,
};
use crate::finetune::{assemble_supervised, global_finetune, InitStrategy};
use crate::journal::{
    subspace_hash, Journal, JournalEntry, JournalHeader, Replay, JOURNAL_VERSION,
};
use crate::pretrain::{
    pretrain_blocks_supervised, BlockSink, PretrainConfig, PretrainOptions, PretrainOutcome,
    PretrainedBlock,
};
use crate::prune::{config_param_count, filter_importance, PruneConfig, PAPER_RATES};
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
    /// The full model is trained (or was replayed/supplied).
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
    /// block, evaluation) is appended to this NDJSON journal.
    pub journal: Option<PathBuf>,
    /// When true and the journal file exists, verify its header and replay
    /// its entries instead of redoing the work.
    pub resume: bool,
    /// Cross-run block store: consulted before pre-training (hits inject
    /// already-trained blocks at 0 steps, journaled like replayed work)
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
    let (eval_x, eval_y) = dataset.test_set(256);
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
        Some(EvalSet::new(&eval_x, &eval_y)),
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
/// Taylor-style criterion the [`TaylorSaliency`] explorer ranks modules
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

/// The tuning-block set a mode implies (deterministic in the subspace, so
/// coordinator and workers recompute it independently and agree).
///
/// # Errors
///
/// Propagates hierarchical block-identification errors.
pub fn blocks_for_mode(inputs: &WootzInputs, mode: RunMode) -> Result<Option<BlockSet>> {
    Ok(match mode {
        RunMode::Baseline => None,
        RunMode::Composability => Some(module_level_blocks(&inputs.subspace)),
        RunMode::ComposabilityHierarchical => Some(identify_tuning_blocks(&inputs.subspace)?),
    })
}

/// Analytic per-configuration model sizes and FLOP counts of the subspace.
///
/// # Errors
///
/// Propagates configuration/shape errors from the analytic counters.
pub fn subspace_stats(inputs: &WootzInputs) -> Result<(Vec<usize>, Vec<u64>)> {
    let sizes: Vec<usize> = inputs
        .subspace
        .iter()
        .map(|c| config_param_count(&inputs.model, c))
        .collect::<Result<_>>()?;
    let flops: Vec<u64> = inputs
        .subspace
        .iter()
        .map(|c| crate::stats::config_flop_count(&inputs.model, c))
        .collect::<Result<_>>()?;
    Ok((sizes, flops))
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

/// Everything needed to evaluate one pruning configuration: the compiled
/// multiplexing model, the trained full model, the (optional) pre-trained
/// block checkpoints and the analytic stats. Extracted from the body of
/// [`run_wootz_with`] so a remote worker process (`wootz-cluster`) can
/// reconstruct the identical evaluation function from on-disk artifacts:
/// [`EvalContext::evaluate`] is a pure, deterministic function of
/// `config_index`, whichever process calls it.
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
    eval_set: (Tensor, Vec<usize>),
    threshold: Option<f64>,
    // Placeholder for blocks whose pre-training failed: assembles as an
    // empty checkpoint, which the assembler degrades to inherited weights
    // (with an `assemble.block_fallback` event), keeping the run alive.
    missing_ckpt: Checkpoint,
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
            eval_set: dataset.test_set(256),
            threshold: accuracy_threshold(&inputs.objective),
            missing_ckpt: Checkpoint::new(),
        }
    }

    /// Assembles, fine-tunes and measures configuration `config_index`.
    /// Deterministic: the assembly seed and the batch stream are pure
    /// functions of the solver seed and `config_index`.
    ///
    /// The outcome reads the final accuracy and, under an `Accuracy` bound,
    /// the first step at which the accuracy curve reaches it (the cost).
    /// So the fine-tune records a curve only under such a bound, every
    /// `eval_every` steps, and ends it at that point; without one it
    /// measures the final accuracy alone.
    ///
    /// # Errors
    ///
    /// Propagates assembly and training errors.
    pub fn evaluate(&self, config_index: usize) -> Result<EvalOutcome> {
        let config = &self.inputs.subspace[config_index];
        let pairs_storage;
        let strategy = match (self.block_set, self.checkpoints) {
            (Some(set), Some(ckpts)) => {
                let composite = &set.composites[config_index];
                pairs_storage = composite
                    .parts
                    .iter()
                    .map(|p| {
                        let block = &set.blocks[p.block_index];
                        let ckpt = ckpts.get(&block.key()).unwrap_or(&self.missing_ckpt);
                        (block, ckpt)
                    })
                    .collect::<Vec<_>>();
                InitStrategy::BlockTrained(&pairs_storage)
            }
            _ => InitStrategy::Default,
        };
        let (mut built, _fallbacks) = assemble_supervised(
            self.mm,
            config,
            self.full_ckpt,
            strategy,
            self.inputs.solver.seed ^ config_index as u64,
            self.faults,
            config_index as u64,
        )?;
        let solver = &self.inputs.solver;
        let cfg = TrainConfig {
            max_steps: solver.max_iter,
            sgd: SgdConfig {
                learning_rate: solver.base_lr,
                weight_decay: solver.weight_decay,
                momentum: solver.momentum,
            },
            schedule: schedule_of(solver),
            eval_every: match self.threshold {
                Some(_) => solver.eval_every.max(1),
                None => 0,
            },
        };
        let batch_size = solver.batch_size;
        let (eval_x, eval_y) = &self.eval_set;
        let eval = EvalSet {
            images: eval_x,
            labels: eval_y,
            target: self.threshold.map(|t| t as f32),
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
        let cost_steps = self
            .threshold
            .and_then(|t| log.first_step_reaching(t as f32))
            .unwrap_or(log.steps_run);
        Ok(EvalOutcome {
            model_size: self.sizes[config_index],
            flops: self.flops[config_index],
            accuracy,
            cost: cost_steps as f64,
            log: Some(log),
        })
    }
}

/// Everything derived from an evaluation universe: the run inputs with
/// the universe as their subspace, the tuning-block set the mode implies
/// for it, and the analytic per-configuration stats. The phase driver
/// rebuilds it whenever proposals grow the universe, and a remote worker
/// rebuilds the identical value from the universe its task carries — so
/// [`UniverseEnv::context`] yields the same evaluation function in every
/// process.
pub struct UniverseEnv {
    /// The run inputs with [`WootzInputs::subspace`] set to the universe
    /// (universe index == evaluation seed index).
    pub inputs: WootzInputs,
    /// The universe's tuning blocks (`None` for the baseline).
    pub block_set: Option<BlockSet>,
    /// Analytic parameter count per configuration.
    pub sizes: Vec<usize>,
    /// Analytic forward FLOPs per configuration.
    pub flops: Vec<u64>,
}

impl UniverseEnv {
    /// Derives the environment of `universe` under `base`'s model, solver
    /// and objective.
    ///
    /// # Errors
    ///
    /// Propagates block-identification and analytic-counter errors.
    pub fn build(base: &WootzInputs, universe: &[PruneConfig], mode: RunMode) -> Result<Self> {
        let inputs = WootzInputs {
            model: base.model.clone(),
            subspace: universe.to_vec(),
            solver: base.solver.clone(),
            objective: base.objective.clone(),
        };
        let block_set = blocks_for_mode(&inputs, mode)?;
        let (sizes, flops) = subspace_stats(&inputs)?;
        Ok(UniverseEnv {
            inputs,
            block_set,
            sizes,
            flops,
        })
    }

    /// The evaluation context of this universe over the given trained
    /// artifacts (`checkpoints` is the bag of pre-trained blocks so far).
    pub fn context<'a>(
        &'a self,
        dataset: &'a Dataset,
        mm: &'a MultiplexingModel,
        full_ckpt: &'a Checkpoint,
        checkpoints: Option<&'a BTreeMap<String, Checkpoint>>,
        faults: Option<&'a FaultPlan>,
    ) -> EvalContext<'a> {
        EvalContext::new(
            &self.inputs,
            dataset,
            mm,
            full_ckpt,
            self.block_set.as_ref(),
            checkpoints,
            &self.sizes,
            &self.flops,
            faults,
        )
    }
}

/// What a runtime contributes to [`run_phases`]: how a batch of tuning
/// blocks gets pre-trained and how one round's configurations get
/// evaluated. Everything else — journal, store, explorer, round folding —
/// is the driver's. Two implementors exist: in-process threads (behind
/// [`run_wootz_with`]) and the `wootz-cluster` coordinator, which feeds
/// worker processes over its queue or TCP transport.
pub trait RoundBackend {
    /// Pre-trains `batch` against the trained full model with the
    /// semantics of [`pretrain_blocks_supervised`]: groups partitioned
    /// from `batch`, groups fully covered by `completed` (journaled or
    /// store-served copies) replayed instead of retrained, `sink` invoked
    /// once per freshly trained block in group order.
    ///
    /// # Errors
    ///
    /// Propagates systematic pre-training failures and `sink` errors.
    fn pretrain(
        &mut self,
        full_ckpt: &Checkpoint,
        batch: &[TuningBlock],
        completed: BTreeMap<String, PretrainedBlock>,
        sink: &mut BlockSink<'_>,
    ) -> Result<PretrainOutcome>;

    /// Supervises the evaluation of the `fresh` indices of `env`'s
    /// universe, one [`SupervisedEval`] per index, in order.
    /// `checkpoints` holds every block pre-trained so far.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; evaluation failures travel inside
    /// the returned records.
    fn evaluate(
        &mut self,
        full_ckpt: &Checkpoint,
        env: &UniverseEnv,
        checkpoints: &BTreeMap<String, Checkpoint>,
        fresh: &[usize],
    ) -> Result<Vec<SupervisedEval>>;
}

/// The in-process [`RoundBackend`]: block groups pre-train on the
/// `wootz-par` pool, each round's configurations evaluate on one OS
/// thread apiece.
struct Threads<'a> {
    inputs: &'a WootzInputs,
    dataset: &'a Dataset,
    mm: &'a MultiplexingModel,
    faults: Option<&'a FaultPlan>,
    retry: RetryPolicy,
}

impl RoundBackend for Threads<'_> {
    fn pretrain(
        &mut self,
        full_ckpt: &Checkpoint,
        batch: &[TuningBlock],
        completed: BTreeMap<String, PretrainedBlock>,
        sink: &mut BlockSink<'_>,
    ) -> Result<PretrainOutcome> {
        let batch_size = self.inputs.solver.batch_size;
        pretrain_blocks_supervised(
            self.mm,
            batch,
            full_ckpt,
            &block_pretrain_config(&self.inputs.solver),
            |step| self.dataset.train_batch(step, batch_size).0,
            &PretrainOptions {
                faults: self.faults,
                completed,
            },
            Some(sink),
        )
    }

    fn evaluate(
        &mut self,
        full_ckpt: &Checkpoint,
        env: &UniverseEnv,
        checkpoints: &BTreeMap<String, Checkpoint>,
        fresh: &[usize],
    ) -> Result<Vec<SupervisedEval>> {
        let ctx = env.context(self.dataset, self.mm, full_ckpt, Some(checkpoints), self.faults);
        Ok(supervise_round(
            &|config_index| ctx.evaluate(config_index),
            fresh,
            &self.retry,
            self.faults,
        ))
    }
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
/// in-process thread backend.
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
    let threads = Threads {
        inputs,
        dataset,
        mm: &mm,
        faults: opts.faults,
        retry: opts.retry,
    };
    run_phases(inputs, dataset, mode, &mm, full, opts, |_| Ok(threads)).map(|(run, _)| run)
}

/// The phase driver every run goes through, whatever the strategy and
/// whichever runtime executes the work: journal open/resume → full model
/// → `start` the backend → explorer rounds (per round: the blocks the
/// universe newly implies → block store → pre-train → publish, then
/// evaluate → fold → observe) → [`WootzRun`].
///
/// `start` receives the trained full model and returns the
/// [`RoundBackend`]; the backend is handed back with the run so the
/// caller can shut it down and collect its statistics.
///
/// Determinism: the universe index doubles as the evaluation seed index,
/// and each pre-training batch is derived from the *trajectory* (the
/// blocks of the current universe no earlier universe implied, in
/// first-appearance order), never from which blocks happen to be trained
/// — so any backend, and any resume point, partitions every batch into
/// the same groups and replays the same training bytes. Blocks compose
/// across rounds (the within-run reuse that makes proposal-driven
/// exploration nearly free) and the cross-run store serves repeats at
/// zero steps (`explore.cache_assisted`). Journal order per round is
/// Proposal → Blocks → Evals for every backend, so either runtime resumes
/// the other's journal mid-round.
///
/// # Errors
///
/// Propagates journal, training, backend and exploration errors.
pub fn run_phases<B: RoundBackend>(
    inputs: &WootzInputs,
    dataset: &Dataset,
    mode: RunMode,
    mm: &MultiplexingModel,
    full: Option<(Checkpoint, f64)>,
    opts: &RunOptions<'_>,
    start: impl FnOnce(&Checkpoint) -> Result<B>,
) -> Result<(WootzRun, B)> {
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

    let (full_ckpt, full_accuracy) = match full.or(journaled_full) {
        Some(full) => full,
        None => {
            let (c, a, _) = train_full_model(mm, dataset, &inputs.solver)?;
            if let Some(journal) = journal.as_mut() {
                journal.append(&JournalEntry::FullModel {
                    accuracy: a,
                    checkpoint: c.clone(),
                })?;
            }
            (c, a)
        }
    };
    let progress = |event: RunEvent| {
        if let Some(progress) = opts.progress {
            progress(&event);
        }
    };
    progress(RunEvent::FullModelReady {
        accuracy: full_accuracy,
    });

    let mut backend = start(&full_ckpt)?;
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
    let mut env: Option<UniverseEnv> = None;
    let mut known_block_keys: BTreeSet<String> = BTreeSet::new();
    let mut checkpoints: BTreeMap<String, Checkpoint> = BTreeMap::new();
    let mut pretrain_steps = 0usize;
    let mut blocks_failed = 0usize;
    let mut finetune_steps = 0usize;

    let mut run_round = |round: &Round<'_>| -> Result<Vec<SupervisedEval>> {
        if env
            .as_ref()
            .is_none_or(|e| e.inputs.subspace.len() != round.universe.len())
        {
            let grown = {
                let _ident = wootz_obs::span("pipeline.identify_blocks");
                UniverseEnv::build(inputs, round.universe, mode)?
            };
            // This universe's pre-training batch: blocks no earlier
            // universe implied. Keyed off the trajectory, not off training
            // success, so a block that failed pre-training degrades to
            // inherited weights instead of being silently retried under a
            // different grouping.
            let batch: Vec<TuningBlock> = grown
                .block_set
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
                let outcome =
                    backend.pretrain(&full_ckpt, &batch, batch_completed, &mut block_sink)?;
                pretrain_steps += outcome.total_steps;
                blocks_failed += outcome.failed.len();
                checkpoints.extend(outcome.checkpoints);
            }
            env = Some(grown);
        }
        let env = env.as_ref().expect("built above");
        let results = backend.evaluate(&full_ckpt, env, &checkpoints, round.fresh)?;
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
    let explore_opts = ExploreOptions {
        faults: opts.faults,
        retry: opts.retry,
        resume: journaled_evals,
    };
    let engine_opts = EngineOptions {
        explore: &explore_opts,
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
    Ok((run, backend))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::sample_subspace;
    use wootz_data::micro_dataset;
    use wootz_models::resnet_mini;

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

    /// Cross-run composability: a second run against a warm block store
    /// spends zero pre-training steps and lands on a bit-identical best
    /// network — the across-run analogue of the paper's within-run reuse.
    #[test]
    fn warm_store_run_skips_pretraining_bit_identically() {
        use std::sync::Mutex;

        let inputs = tiny_inputs(3);
        let ds = micro_dataset("flowers102", 3);
        let dir = std::env::temp_dir().join(format!("wootz_pipe_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = wootz_store::BlockStore::open(dir.join("store"), None).unwrap();

        let events: Mutex<Vec<RunEvent>> = Mutex::new(Vec::new());
        let record = |e: &RunEvent| events.lock().unwrap().push(e.clone());
        let opts = RunOptions {
            store: Some(&store),
            progress: Some(&record),
            ..RunOptions::default()
        };
        let cold = run_wootz_with(&inputs, &ds, RunMode::Composability, None, &opts).unwrap();
        assert!(cold.pretrain_steps > 0);
        let cold_events = std::mem::take(&mut *events.lock().unwrap());
        let pretrained = cold_events
            .iter()
            .filter(|e| matches!(e, RunEvent::BlockPretrained { .. }))
            .count();
        assert_eq!(pretrained, cold.blocks_pretrained);
        assert_eq!(store.stats().inserts, cold.blocks_pretrained as u64);

        let warm = run_wootz_with(&inputs, &ds, RunMode::Composability, None, &opts).unwrap();
        assert_eq!(warm.pretrain_steps, 0, "warm run must skip pre-training");
        assert_eq!(warm.best, cold.best, "reuse must be bit-identical");
        assert_eq!(warm.full_accuracy, cold.full_accuracy);
        let warm_events = std::mem::take(&mut *events.lock().unwrap());
        let hits = warm_events
            .iter()
            .filter(|e| matches!(e, RunEvent::BlockCacheHit { .. }))
            .count();
        assert_eq!(hits, warm.blocks_pretrained, "every block served warm");
        assert!(
            !warm_events
                .iter()
                .any(|e| matches!(e, RunEvent::BlockPretrained { .. })),
            "no block trained fresh on the warm run"
        );

        // A different solver seed must not hit the cache: the solver hash
        // guards against serving blocks trained under other hyper-params.
        let mut other = tiny_inputs(3);
        other.solver.seed = 4;
        let misses_before = store.stats().misses;
        let cool = run_wootz_with(&other, &ds, RunMode::Composability, None, &opts).unwrap();
        assert!(cool.pretrain_steps > 0, "different solver must retrain");
        assert!(store.stats().misses > misses_before);
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
        let digest = |run: &WootzRun| -> Vec<(usize, bool, Option<(usize, u64, f64, f64)>)> {
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

    #[test]
    fn accuracy_threshold_extraction() {
        let o = Objective::min_size_with_accuracy(0.7);
        assert_eq!(accuracy_threshold(&o), Some(0.7));
        let o = Objective::parse("max Accuracy").unwrap();
        assert_eq!(accuracy_threshold(&o), None);
    }
}
