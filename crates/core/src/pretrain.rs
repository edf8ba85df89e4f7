//! Tuning-block pre-training with the Teacher–Student mechanism (§6.1).
//!
//! The frozen full model (the "teacher") runs alongside the pruned blocks;
//! each block receives the teacher's activation maps at its input and
//! minimizes the reconstruction error `‖O − O′‖²` against the teacher's
//! activation maps at its output. Blocks are partitioned into groups of
//! non-overlapping blocks so one training run pre-trains a whole group
//! concurrently (Figure 5 (b)), reusing the teacher's forward pass across
//! blocks.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};
use wootz_fault::{panic_message, site, FaultError, FaultPlan};
use wootz_nn::{Checkpoint, CompiledNet, Mode, NodeId};
use wootz_tensor::ops::{mse_loss, mse_loss_backward_into};
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;

use crate::blocks::partition_into_groups;
use crate::compile::{BuiltModel, ModeToUse, MultiplexingModel, TuningBlock};
use crate::error::CoreError;
use crate::finetune::init_from_full;
use crate::prune::kept_count;
use crate::Result;

/// Hyper-parameters of tuning-block pre-training, mirroring the paper's
/// meta data (10k steps at lr 0.2 for ResNets; 20k at 0.08 for Inceptions —
/// scaled down for micro experiments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PretrainConfig {
    /// SGD steps per group.
    pub steps: usize,
    /// SGD hyper-parameters for the block parameters.
    pub sgd: SgdConfig,
    /// Seed for graph initialization.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            steps: 60,
            sgd: SgdConfig {
                learning_rate: 0.05,
                weight_decay: 1e-4,
                momentum: 0.9,
            },
            seed: 0,
        }
    }
}

/// The result of pre-training a set of tuning blocks.
#[derive(Debug, Clone, Default)]
pub struct PretrainOutcome {
    /// One checkpoint per block, keyed by [`TuningBlock::key`]. This is the
    /// paper's "bag of pre-trained pruned tuning blocks".
    pub checkpoints: BTreeMap<String, Checkpoint>,
    /// Reconstruction losses per block: `(key, first-step loss, last-step
    /// loss)` — pre-training should drive these down.
    pub losses: Vec<(String, f32, f32)>,
    /// The non-overlapping groups that were trained together (indices into
    /// the input block list).
    pub groups: Vec<Vec<usize>>,
    /// Total SGD steps executed across groups (the pre-training overhead
    /// the evaluation charges to the composability-based method).
    pub total_steps: usize,
    /// Blocks that could not be pre-trained even after the per-block
    /// fallback: `(key, error message)`. The assembly stage initializes
    /// these from inherited full-model weights instead.
    pub failed: Vec<(String, String)>,
}

/// One pre-trained tuning block, as produced by the supervisor and stored
/// in the run journal. `steps` carries the group's SGD-step cost on the
/// group's first block (the rest record 0) so that replaying a journal
/// reproduces [`PretrainOutcome::total_steps`] exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PretrainedBlock {
    /// The block's [`TuningBlock::key`].
    pub key: String,
    /// Trained block parameters under the block's scope prefix.
    pub checkpoint: Checkpoint,
    /// First-step reconstruction loss.
    pub first_loss: f32,
    /// Last-step reconstruction loss.
    pub last_loss: f32,
    /// SGD steps this block is charged for (see above).
    pub steps: usize,
}

/// Options for the supervised pre-training loop.
#[derive(Default)]
pub struct PretrainOptions<'a> {
    /// Deterministic fault-injection plan (`None` = no faults, zero cost).
    pub faults: Option<&'a FaultPlan>,
    /// Blocks already pre-trained in an earlier (journaled) run, replayed
    /// instead of retrained. A group is only retrained when at least one of
    /// its blocks is missing here.
    pub completed: BTreeMap<String, PretrainedBlock>,
}

/// Callback invoked once per freshly trained block (journal hook).
pub type BlockSink<'s> = dyn FnMut(&PretrainedBlock) -> Result<()> + 's;

/// What one supervised group produced: trained blocks, blocks that failed
/// both the group run and the per-block fallback, and the group-level error
/// (if any) for abort decisions.
pub struct GroupOutcome {
    /// Freshly trained blocks (journal-ready, the group's first block
    /// carrying the step cost).
    pub blocks: Vec<PretrainedBlock>,
    /// Blocks that could not be trained, as `(key, rendered error)`.
    pub failed: Vec<(String, String)>,
    /// The group-level error, when the joint group run failed.
    pub first_error: Option<CoreError>,
}

/// Pre-trains every tuning block against the given full model.
///
/// `full` is the trained full-model checkpoint under scope `net/` (as
/// captured after adapting the model to the dataset). `next_batch` supplies
/// unlabeled training images — the Teacher–Student scheme needs no labels,
/// the teacher provides the ground truth "on the fly" (§6.1).
///
/// # Errors
///
/// Returns [`crate::CoreError`] on model/block mismatches or execution
/// failures.
pub fn pretrain_blocks(
    mm: &MultiplexingModel,
    blocks: &[TuningBlock],
    full: &Checkpoint,
    cfg: &PretrainConfig,
    next_batch: impl Fn(usize) -> Tensor + Sync,
) -> Result<PretrainOutcome> {
    let groups = partition_into_groups(blocks);
    let _run = wootz_obs::span("pretrain.run")
        .with("blocks", blocks.len())
        .with("groups", groups.len());
    let mut outcome = PretrainOutcome {
        groups: groups.clone(),
        ..PretrainOutcome::default()
    };
    for (gi, group) in groups.iter().enumerate() {
        let partial = pretrain_one_group(mm, blocks, group, gi, full, cfg, &next_batch)?;
        outcome.total_steps += partial.total_steps;
        outcome.checkpoints.extend(partial.checkpoints);
        outcome.losses.extend(partial.losses);
    }
    Ok(outcome)
}

/// Pre-trains every tuning block like [`pretrain_blocks`] but runs the
/// non-overlapping groups as parallel tasks on the `wootz-par` pool — the
/// single-machine analogue of the paper's MPI multi-node pre-training ("The pre-training
/// script can run on a single node or multiple nodes in parallel to
/// concurrently train multiple groups through MPI", §6.2). Results are
/// bit-identical to the sequential version: each group's batch stream is
/// keyed by its group index.
///
/// # Errors
///
/// Returns the first group's error, in group order.
pub fn pretrain_blocks_parallel(
    mm: &MultiplexingModel,
    blocks: &[TuningBlock],
    full: &Checkpoint,
    cfg: &PretrainConfig,
    next_batch: impl Fn(usize) -> Tensor + Sync,
) -> Result<PretrainOutcome> {
    pretrain_blocks_supervised(
        mm,
        blocks,
        full,
        cfg,
        next_batch,
        &PretrainOptions::default(),
        None,
    )
}

/// The supervised variant of [`pretrain_blocks_parallel`]: groups still run
/// as parallel `wootz-par` tasks, but each group is wrapped in a supervisor
/// that
///
/// 1. catches evaluator panics (`catch_unwind`) and converts them into
///    structured [`CoreError::Panic`] values naming the group,
/// 2. consults the fault-injection plan at sites [`site::PRETRAIN_GROUP`]
///    (keyed by group index) and [`site::PRETRAIN_BLOCK`] (keyed by block
///    index),
/// 3. degrades a failed group to per-block training — blocks that still
///    fail are recorded in [`PretrainOutcome::failed`] and later fall back
///    to inherited weights at assembly time, and
/// 4. replays blocks from `opts.completed` (a resumed journal) instead of
///    retraining them, and reports each freshly trained block to `sink`.
///
/// Without faults and without panics the outcome is bit-identical to
/// [`pretrain_blocks`].
///
/// # Errors
///
/// Returns the first group's error only if *no* block was produced at all
/// (a systematic failure, e.g. a model/block mismatch); partial failures
/// degrade instead of aborting.
pub fn pretrain_blocks_supervised(
    mm: &MultiplexingModel,
    blocks: &[TuningBlock],
    full: &Checkpoint,
    cfg: &PretrainConfig,
    next_batch: impl Fn(usize) -> Tensor + Sync,
    opts: &PretrainOptions<'_>,
    sink: Option<&mut BlockSink<'_>>,
) -> Result<PretrainOutcome> {
    let next_batch = &next_batch;
    // One `wootz-par` task per group (the single-machine analogue of the
    // paper's MPI multi-group pre-training). Group results come back in
    // group order, so the outcome is bit-identical to the sequential loop
    // for any thread count; each group's kernels then run inline on their
    // task (no oversubscription).
    let run_groups = |todo: &[(usize, &[usize])]| {
        Ok(wootz_par::parallel_map(todo.len(), |t| {
            let (gi, group) = todo[t];
            catch_unwind(AssertUnwindSafe(|| {
                pretrain_group_supervised(mm, blocks, group, gi, full, cfg, next_batch, opts.faults)
            }))
            .unwrap_or_else(|payload| GroupOutcome {
                blocks: Vec::new(),
                failed: group
                    .iter()
                    .map(|&bi| (blocks[bi].key(), "supervisor thread panicked".to_string()))
                    .collect(),
                first_error: Some(CoreError::Panic {
                    what: format!("pre-training thread for group {gi}"),
                    message: panic_message(payload.as_ref()),
                }),
            })
        }))
    };
    pretrain_groups_with(blocks, &opts.completed, run_groups, sink)
}

/// The journal-aware shell of supervised pre-training, over a pluggable
/// group runner: partitions `blocks` into non-overlapping groups, hands
/// `run_groups` the `(group index, block indices)` of every group *not*
/// fully covered by `completed`, and merges what it returns — one
/// [`GroupOutcome`] per handed group, in order — with the journaled
/// copies, in group order. [`pretrain_blocks_supervised`] runs the groups
/// on the `wootz-par` pool; the distributed coordinator runs them as
/// remote tasks; both therefore replay, prefer journaled copies, charge
/// steps and report fresh blocks to `sink` identically.
///
/// # Errors
///
/// Propagates `run_groups` and `sink` errors, and returns the first
/// group's error only if *no* block was produced at all.
pub fn pretrain_groups_with(
    blocks: &[TuningBlock],
    completed: &BTreeMap<String, PretrainedBlock>,
    run_groups: impl FnOnce(&[(usize, &[usize])]) -> Result<Vec<GroupOutcome>>,
    mut sink: Option<&mut BlockSink<'_>>,
) -> Result<PretrainOutcome> {
    let groups = partition_into_groups(blocks);
    let _run = wootz_obs::span("pretrain.run")
        .with("blocks", blocks.len())
        .with("groups", groups.len());
    // A group is retrained only when at least one of its blocks is missing
    // from the journal.
    let todo: Vec<(usize, &[usize])> = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.iter().any(|&i| !completed.contains_key(&blocks[i].key())))
        .map(|(gi, g)| (gi, g.as_slice()))
        .collect();
    let outcomes = run_groups(&todo)?;
    if outcomes.len() != todo.len() {
        return Err(CoreError::Pipeline(format!(
            "group runner returned {} outcomes for {} groups",
            outcomes.len(),
            todo.len()
        )));
    }
    let mut trained: BTreeMap<usize, GroupOutcome> =
        todo.iter().map(|&(gi, _)| gi).zip(outcomes).collect();
    let mut outcome = PretrainOutcome::default();
    let mut first_error: Option<CoreError> = None;
    let merge = |outcome: &mut PretrainOutcome, block: &PretrainedBlock| {
        outcome.total_steps += block.steps;
        outcome
            .checkpoints
            .insert(block.key.clone(), block.checkpoint.clone());
        outcome
            .losses
            .push((block.key.clone(), block.first_loss, block.last_loss));
    };
    for (gi, group) in groups.iter().enumerate() {
        let Some(res) = trained.remove(&gi) else {
            // Fully journaled group: replay in block order.
            for &bi in group {
                merge(&mut outcome, &completed[&blocks[bi].key()]);
            }
            continue;
        };
        for block in &res.blocks {
            // Prefer the journaled copy when a partially completed group
            // was retrained, so resumes replay byte-identically.
            match completed.get(&block.key) {
                Some(journaled) => merge(&mut outcome, journaled),
                None => {
                    merge(&mut outcome, block);
                    if let Some(sink) = sink.as_deref_mut() {
                        sink(block)?;
                    }
                }
            }
        }
        outcome.failed.extend(res.failed);
        first_error = first_error.or(res.first_error);
    }
    outcome.groups = groups;
    if outcome.checkpoints.is_empty() {
        if let Some(e) = first_error {
            return Err(e);
        }
    }
    Ok(outcome)
}

/// Runs `f` with panics converted into [`CoreError::Panic`] naming `what`.
fn run_caught<T>(what: impl FnOnce() -> String, f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(res) => res,
        Err(payload) => Err(CoreError::Panic {
            what: what(),
            message: panic_message(payload.as_ref()),
        }),
    }
}

fn injected(site: &str, key: u64, kind: &wootz_fault::FaultKind) -> CoreError {
    CoreError::Fault(FaultError::Injected {
        site: site.to_string(),
        key,
        kind: kind.label().to_string(),
    })
}

/// Supervises one group — the unit of work one `wootz-par` task of
/// [`pretrain_blocks_supervised`] or one distributed worker task executes:
/// tries the joint group run first; on any failure (real error, panic, or
/// injected fault) degrades to training each block alone. Blocks that fail
/// even alone are reported, not fatal. The batch stream is keyed by
/// `group_index`, so a group trained remotely is bit-identical to the same
/// group trained in-process.
#[allow(clippy::too_many_arguments)]
pub fn pretrain_group_supervised(
    mm: &MultiplexingModel,
    blocks: &[TuningBlock],
    group: &[usize],
    group_index: usize,
    full: &Checkpoint,
    cfg: &PretrainConfig,
    next_batch: &(impl Fn(usize) -> Tensor + Sync),
    faults: Option<&FaultPlan>,
) -> GroupOutcome {
    let group_attempt = || -> Result<PretrainOutcome> {
        if let Some(kind) =
            FaultPlan::fire_opt(faults, site::PRETRAIN_GROUP, group_index as u64, 1)
        {
            if let wootz_fault::FaultKind::EvalPanic = kind {
                // Exercise the real panic path so the supervisor's
                // catch_unwind is what recovers, not this early return.
                return run_caught(
                    || format!("pre-training group {group_index}"),
                    || panic!("injected panic at {}[{group_index}]", site::PRETRAIN_GROUP),
                );
            }
            return Err(injected(site::PRETRAIN_GROUP, group_index as u64, &kind));
        }
        run_caught(
            || format!("pre-training group {group_index}"),
            || pretrain_one_group(mm, blocks, group, group_index, full, cfg, next_batch),
        )
    };
    match group_attempt() {
        Ok(partial) => GroupOutcome {
            blocks: as_pretrained_blocks(partial, group, blocks, cfg.steps),
            failed: Vec::new(),
            first_error: None,
        },
        Err(err) => {
            wootz_obs::counter("pretrain.group_failures").incr();
            wootz_obs::event("pretrain.group_failed")
                .field("group", group_index)
                .field("blocks", group.len())
                .field("error", err.to_string())
                .emit();
            let mut out = GroupOutcome {
                blocks: Vec::new(),
                failed: Vec::new(),
                first_error: Some(err),
            };
            for &bi in group {
                let key = blocks[bi].key();
                let block_attempt = || -> Result<PretrainOutcome> {
                    if let Some(kind) =
                        FaultPlan::fire_opt(faults, site::PRETRAIN_BLOCK, bi as u64, 1)
                    {
                        return Err(injected(site::PRETRAIN_BLOCK, bi as u64, &kind));
                    }
                    run_caught(
                        || format!("fallback pre-training for block {key}"),
                        || {
                            pretrain_one_group(
                                mm,
                                blocks,
                                &[bi],
                                group_index,
                                full,
                                cfg,
                                next_batch,
                            )
                        },
                    )
                };
                match block_attempt() {
                    Ok(partial) => {
                        // A solo fallback run costs the full step budget.
                        out.blocks
                            .extend(as_pretrained_blocks(partial, &[bi], blocks, cfg.steps));
                    }
                    Err(e) => {
                        wootz_obs::counter("pretrain.block_failures").incr();
                        wootz_obs::event("pretrain.block_failed")
                            .field("key", key.clone())
                            .field("group", group_index)
                            .field("error", e.to_string())
                            .emit();
                        out.failed.push((key, e.to_string()));
                    }
                }
            }
            out
        }
    }
}

/// Converts a per-group [`PretrainOutcome`] into journalable blocks; the
/// group's first block carries the whole step cost.
fn as_pretrained_blocks(
    partial: PretrainOutcome,
    group: &[usize],
    blocks: &[TuningBlock],
    steps: usize,
) -> Vec<PretrainedBlock> {
    let mut out = Vec::with_capacity(group.len());
    for (i, &bi) in group.iter().enumerate() {
        let key = blocks[bi].key();
        let (first, last) = partial
            .losses
            .iter()
            .find(|(k, _, _)| *k == key)
            .map(|(_, f, l)| (*f, *l))
            .unwrap_or((f32::NAN, f32::NAN));
        out.push(PretrainedBlock {
            checkpoint: partial.checkpoints.get(&key).cloned().unwrap_or_default(),
            key,
            first_loss: first,
            last_loss: last,
            steps: if i == 0 { steps } else { 0 },
        });
    }
    out
}

/// Trains one non-overlapping group of blocks jointly; `group_index` keys
/// the group's deterministic batch stream.
fn pretrain_one_group(
    mm: &MultiplexingModel,
    blocks: &[TuningBlock],
    group: &[usize],
    group_index: usize,
    full: &Checkpoint,
    cfg: &PretrainConfig,
    next_batch: &(impl Fn(usize) -> Tensor + Sync),
) -> Result<PretrainOutcome> {
    // Parallel pre-training spawns one thread per group, so this span lands
    // on its own thread-local stack; `pretrain.run` still brackets the whole
    // wall-clock interval on the calling thread.
    let _group_span = wootz_obs::span("pretrain.group")
        .with("group", group_index)
        .with("blocks", group.len())
        .with("steps", cfg.steps);
    let mut outcome = PretrainOutcome::default();
    {
        let group_blocks: Vec<TuningBlock> = group.iter().map(|&i| blocks[i].clone()).collect();
        // Hoisted block identities: key, scope, and structure hash are pure
        // functions of the block's parts, so compute each exactly once here
        // instead of re-deriving them inside the joint loop and the
        // checkpoint-capture loop below. Checkpoint names and store keys
        // both descend from these strings, which is what keeps cache
        // identity and checkpoint identity provably in agreement
        // (`TuningBlock::structure_hash`).
        let block_keys: Vec<String> = group_blocks.iter().map(TuningBlock::key).collect();
        let block_scopes: Vec<String> = group_blocks.iter().map(TuningBlock::scope).collect();
        let block_hashes: Vec<u64> = group_blocks
            .iter()
            .map(TuningBlock::structure_hash)
            .collect();
        let mut built = build_group(mm, &group_blocks, &block_scopes, full, cfg.seed)?;

        // Joint training: one forward pass serves every block in the group.
        // The graph is compiled once per group — the Teacher–Student loss
        // ports are the plan's kept set — and the arena plus per-block seed
        // buffers are reused across every step, so steady-state steps
        // allocate no tensors.
        let outs: Vec<NodeId> = built
            .block_ports
            .iter()
            .flat_map(|p| [p.student_output, p.teacher_output])
            .collect();
        let mut net = CompiledNet::new(&built.graph, &outs)?;
        let mut seed_bufs: Vec<Tensor> = Vec::new();
        let mut first_losses: Vec<Option<f32>> = vec![None; group_blocks.len()];
        let mut last_losses: Vec<f32> = vec![0.0; group_blocks.len()];
        for step in 0..cfg.steps {
            let images = next_batch(group_index * cfg.steps + step);
            net.forward(
                &mut built.vars,
                &[(built.input_name.as_str(), &images)],
                Mode::Train,
            )?;
            if seed_bufs.len() != built.block_ports.len() {
                seed_bufs.clear();
                for ports in &built.block_ports {
                    seed_bufs.push(Tensor::zeros(net.activation(ports.student_output)?.shape()));
                }
            }
            for (bi, ports) in built.block_ports.iter().enumerate() {
                let student = net.activation(ports.student_output)?;
                let teacher = net.activation(ports.teacher_output)?;
                let loss = mse_loss(student, teacher);
                first_losses[bi].get_or_insert(loss);
                last_losses[bi] = loss;
                mse_loss_backward_into(student, teacher, &mut seed_bufs[bi]);
            }
            built.vars.zero_grads();
            let seeds: Vec<(NodeId, &Tensor)> = built
                .block_ports
                .iter()
                .zip(seed_bufs.iter())
                .map(|(p, t)| (p.student_output, t))
                .collect();
            net.backward(&mut built.vars, &seeds)?;
            built.vars.sgd_step(&cfg.sgd);
        }
        outcome.total_steps += cfg.steps;

        for bi in 0..group_blocks.len() {
            let _block_span = wootz_obs::span("pretrain.block")
                .with("key", block_keys[bi].clone())
                .with("group", group_index);
            wootz_obs::event("pretrain.block_done")
                .field("key", block_keys[bi].clone())
                .field("structure_hash", format!("{:016x}", block_hashes[bi]))
                .field("first_loss", f64::from(first_losses[bi].unwrap_or(f32::NAN)))
                .field("last_loss", f64::from(last_losses[bi]))
                .emit();
            let prefix = format!("{}/", block_scopes[bi]);
            outcome
                .checkpoints
                .insert(block_keys[bi].clone(), Checkpoint::capture(&built.vars, &prefix));
            outcome.losses.push((
                block_keys[bi].clone(),
                first_losses[bi].unwrap_or(f32::NAN),
                last_losses[bi],
            ));
        }
    }
    Ok(outcome)
}

/// Builds the pre-training structure of `blocks` (one group): the teacher
/// restored from the full model, and each block's student (scope `scopes[i]`)
/// initialized from the teacher's weights, sliced to the block's widths.
fn build_group(
    mm: &MultiplexingModel,
    blocks: &[TuningBlock],
    scopes: &[String],
    full: &Checkpoint,
    seed: u64,
) -> Result<BuiltModel> {
    let module_ids = mm.ir().conv_module_ids();
    let mut built = mm.build(&ModeToUse::PreTrain(blocks), seed)?;

    // Teacher gets the full model's weights.
    full.restore(&mut built.vars, |name| {
        name.strip_prefix("net/")
            .map(|suffix| format!("teacher/{suffix}"))
            .unwrap_or_else(|| name.to_string())
    })?;
    // Students start from the inherited (sliced) teacher weights.
    for (block, scope) in blocks.iter().zip(scopes) {
        let mut widths = BTreeMap::new();
        let mut layer_names: Vec<String> = Vec::new();
        for &(pos, rate) in &block.parts {
            let module = module_ids[pos];
            for layer in mm.ir().layers() {
                if layer.module == Some(module) {
                    layer_names.push(layer.name.clone());
                }
            }
            if rate > 0 {
                for name in mm.ir().prunable_convs_of_module(module) {
                    if let Some(layer) = mm.ir().layer(name) {
                        if let wootz_ir::LayerKind::Convolution { num_output, .. } = layer.kind {
                            widths.insert(name.to_string(), kept_count(num_output, rate));
                        }
                    }
                }
            }
        }
        init_from_full(
            mm.ir(),
            full,
            "net",
            &mut built.vars,
            scope,
            &widths,
            Some(&layer_names),
        )?;
    }
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::MultiplexingModel;
    use wootz_models::resnet_mini;
    use wootz_nn::{backward, forward};
    use wootz_tensor::ops::mse_loss_backward;

    fn trained_full() -> (MultiplexingModel, Checkpoint) {
        let mm = MultiplexingModel::compile(resnet_mini(4)).unwrap();
        let built = mm.build(&ModeToUse::Original, 17).unwrap();
        (mm, Checkpoint::capture(&built.vars, "net/"))
    }

    fn batches(step: usize) -> Tensor {
        Tensor::from_fn(&[4, 3, 16, 16], |i| {
            ((i + step * 31) % 17) as f32 / 17.0 - 0.5
        })
    }

    #[test]
    fn pretraining_reduces_reconstruction_error() {
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 70)]).unwrap(),
            TuningBlock::new(1, vec![(3, 70)]).unwrap(),
        ];
        let cfg = PretrainConfig {
            steps: 40,
            sgd: SgdConfig {
                learning_rate: 0.05,
                weight_decay: 0.0,
                momentum: 0.9,
            },
            seed: 2,
        };
        let outcome = pretrain_blocks(&mm, &blocks, &full, &cfg, batches).unwrap();
        assert_eq!(outcome.checkpoints.len(), 2);
        assert_eq!(
            outcome.total_steps, 40,
            "disjoint blocks train in one group"
        );
        for (key, first, last) in &outcome.losses {
            assert!(
                last < first,
                "block {key}: reconstruction loss did not drop ({first} -> {last})"
            );
        }
    }

    #[test]
    fn parallel_pretraining_matches_sequential() {
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(0, 50), (1, 50)]).unwrap(),
            TuningBlock::new(1, vec![(1, 70)]).unwrap(),
            TuningBlock::new(2, vec![(3, 30)]).unwrap(),
        ];
        let cfg = PretrainConfig {
            steps: 6,
            sgd: SgdConfig {
                learning_rate: 0.02,
                weight_decay: 0.0,
                momentum: 0.9,
            },
            seed: 4,
        };
        let seq = pretrain_blocks(&mm, &blocks, &full, &cfg, batches).unwrap();
        let par = pretrain_blocks_parallel(&mm, &blocks, &full, &cfg, batches).unwrap();
        assert_eq!(seq.total_steps, par.total_steps);
        assert_eq!(seq.groups, par.groups);
        assert_eq!(seq.checkpoints, par.checkpoints);
    }

    #[test]
    fn overlapping_blocks_train_in_separate_groups() {
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 50), (2, 50)]).unwrap(),
            TuningBlock::new(1, vec![(2, 70)]).unwrap(),
        ];
        let cfg = PretrainConfig {
            steps: 2,
            ..PretrainConfig::default()
        };
        let outcome = pretrain_blocks(&mm, &blocks, &full, &cfg, batches).unwrap();
        assert_eq!(outcome.groups.len(), 2);
        assert_eq!(outcome.total_steps, 4);
        assert_eq!(outcome.checkpoints.len(), 2);
    }

    #[test]
    fn checkpoints_cover_block_parameters_only() {
        let (mm, full) = trained_full();
        let blocks = vec![TuningBlock::new(0, vec![(2, 50)]).unwrap()];
        let cfg = PretrainConfig {
            steps: 1,
            ..PretrainConfig::default()
        };
        let outcome = pretrain_blocks(&mm, &blocks, &full, &cfg, batches).unwrap();
        let ckpt = &outcome.checkpoints[&blocks[0].key()];
        assert!(!ckpt.is_empty());
        for (name, _) in ckpt.iter() {
            assert!(name.starts_with("student/m2r50/"), "{name}");
            // Module 2 is stage 1 module 0 => res3_0 layers.
            assert!(name.contains("res3_0_"), "{name}");
        }
    }

    #[test]
    fn structure_hash_agrees_with_checkpoint_identity() {
        // The block store addresses entries by `structure_hash`; checkpoints
        // and scopes are named by `key`. This pins the two derivations to
        // the same string: hash(checkpoint key) == block.structure_hash(),
        // and every captured parameter lives under the scope built from
        // that same key — so a store hit can never resurrect weights for a
        // different structure.
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 30)]).unwrap(),
            TuningBlock::new(1, vec![(2, 50), (3, 70)]).unwrap(),
        ];
        let cfg = PretrainConfig {
            steps: 1,
            ..PretrainConfig::default()
        };
        let outcome = pretrain_blocks(&mm, &blocks, &full, &cfg, batches).unwrap();
        for block in &blocks {
            assert_eq!(
                wootz_fault::fnv1a64(block.key().as_bytes()),
                block.structure_hash(),
                "store key hash must be the FNV of the checkpoint key string"
            );
            // ...and the one key derivation both the store lookup and the
            // publish go through is built on exactly that hash.
            let key = crate::pipeline::store_key(block, "flowers102", 7);
            assert_eq!(key.structure, block.structure_hash());
            assert_eq!((key.dataset.as_str(), key.solver), ("flowers102", 7));
            let ckpt = &outcome.checkpoints[&block.key()];
            let prefix = format!("{}/", block.scope());
            for (name, _) in ckpt.iter() {
                assert!(name.starts_with(&prefix), "{name} outside {prefix}");
            }
        }
        // And the hash is a pure function of structure, not of block id.
        let relabeled = TuningBlock::new(7, vec![(1, 30)]).unwrap();
        assert_eq!(relabeled.structure_hash(), blocks[0].structure_hash());
    }

    #[test]
    fn injected_group_fault_falls_back_to_per_block_training() {
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 50)]).unwrap(),
            TuningBlock::new(1, vec![(3, 50)]).unwrap(),
        ];
        let cfg = PretrainConfig {
            steps: 4,
            ..PretrainConfig::default()
        };
        // Both blocks are disjoint => one group (index 0). Panic that group.
        let plan = FaultPlan {
            seed: 0,
            triggers: vec![wootz_fault::Trigger {
                site: site::PRETRAIN_GROUP.into(),
                key: Some(0),
                kind: wootz_fault::FaultKind::EvalPanic,
                times: Some(1),
            }],
            rates: vec![],
        };
        let opts = PretrainOptions {
            faults: Some(&plan),
            completed: BTreeMap::new(),
        };
        let out =
            pretrain_blocks_supervised(&mm, &blocks, &full, &cfg, batches, &opts, None).unwrap();
        assert_eq!(out.checkpoints.len(), 2, "fallback still trains each block");
        assert!(out.failed.is_empty());
        assert_eq!(
            out.total_steps, 8,
            "two solo fallback runs cost 2x the group budget"
        );
    }

    #[test]
    fn doubly_faulty_block_is_reported_not_fatal() {
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 50)]).unwrap(),
            TuningBlock::new(1, vec![(3, 50)]).unwrap(),
        ];
        let cfg = PretrainConfig {
            steps: 2,
            ..PretrainConfig::default()
        };
        let plan = FaultPlan {
            seed: 0,
            triggers: vec![
                wootz_fault::Trigger {
                    site: site::PRETRAIN_GROUP.into(),
                    key: Some(0),
                    kind: wootz_fault::FaultKind::EvalError,
                    times: Some(1),
                },
                wootz_fault::Trigger {
                    site: site::PRETRAIN_BLOCK.into(),
                    key: Some(1),
                    kind: wootz_fault::FaultKind::EvalError,
                    times: Some(1),
                },
            ],
            rates: vec![],
        };
        let opts = PretrainOptions {
            faults: Some(&plan),
            completed: BTreeMap::new(),
        };
        let out =
            pretrain_blocks_supervised(&mm, &blocks, &full, &cfg, batches, &opts, None).unwrap();
        assert_eq!(out.checkpoints.len(), 1, "block 0 recovered via fallback");
        assert_eq!(out.failed.len(), 1);
        assert_eq!(out.failed[0].0, blocks[1].key());
        assert!(out.failed[0].1.contains("pretrain.block"));
    }

    #[test]
    fn completed_blocks_replay_without_retraining() {
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 50)]).unwrap(),
            TuningBlock::new(1, vec![(3, 50)]).unwrap(),
        ];
        let cfg = PretrainConfig {
            steps: 3,
            ..PretrainConfig::default()
        };
        let mut journaled: Vec<PretrainedBlock> = Vec::new();
        {
            let mut sink = |b: &PretrainedBlock| {
                journaled.push(b.clone());
                Ok(())
            };
            pretrain_blocks_supervised(
                &mm,
                &blocks,
                &full,
                &cfg,
                batches,
                &PretrainOptions::default(),
                Some(&mut sink),
            )
            .unwrap();
        }
        assert_eq!(journaled.len(), 2, "sink sees every fresh block");
        let first = pretrain_blocks_supervised(
            &mm,
            &blocks,
            &full,
            &cfg,
            batches,
            &PretrainOptions::default(),
            None,
        )
        .unwrap();
        let completed: BTreeMap<String, PretrainedBlock> = journaled
            .into_iter()
            .map(|b| (b.key.clone(), b))
            .collect();
        let mut fresh = 0usize;
        let mut sink = |_: &PretrainedBlock| {
            fresh += 1;
            Ok(())
        };
        let resumed = pretrain_blocks_supervised(
            &mm,
            &blocks,
            &full,
            &cfg,
            // A resumed run must not even need the data: nothing retrains.
            |_| panic!("resume must not draw batches"),
            &PretrainOptions {
                faults: None,
                completed,
            },
            Some(&mut sink),
        )
        .unwrap();
        assert_eq!(fresh, 0, "nothing retrained on resume");
        assert_eq!(resumed.checkpoints, first.checkpoints);
        assert_eq!(resumed.total_steps, first.total_steps);
        assert_eq!(resumed.losses, first.losses);
    }

    #[test]
    fn teacher_parameters_do_not_move() {
        // The interpreter loop the planned pre-training loop replaced runs
        // the same group: the teacher must not move, and the student must
        // end on the bits the supervised driver produces.
        let (mm, full) = trained_full();
        let blocks = vec![TuningBlock::new(0, vec![(1, 50)]).unwrap()];
        let cfg = PretrainConfig {
            steps: 5,
            ..PretrainConfig::default()
        };
        let scopes = vec![blocks[0].scope()];
        let mut built = build_group(&mm, &blocks, &scopes, &full, cfg.seed).unwrap();
        let before = built.vars.value("teacher/conv1/weight").unwrap().clone();
        for step in 0..cfg.steps {
            let images = batches(step);
            let pass = forward(
                &built.graph,
                &mut built.vars,
                &[("data", &images)],
                Mode::Train,
            )
            .unwrap();
            let ports = built.block_ports[0];
            let seed_grad = mse_loss_backward(
                pass.activation(ports.student_output),
                pass.activation(ports.teacher_output),
            );
            built.vars.zero_grads();
            backward(
                &built.graph,
                &mut built.vars,
                &pass,
                &[(ports.student_output, seed_grad)],
            )
            .unwrap();
            built.vars.sgd_step(&cfg.sgd);
        }
        assert_eq!(built.vars.value("teacher/conv1/weight").unwrap(), &before);

        let planned = pretrain_blocks_supervised(
            &mm,
            &blocks,
            &full,
            &cfg,
            batches,
            &PretrainOptions::default(),
            None,
        )
        .unwrap();
        let bits = |c: &Checkpoint| -> Vec<(String, Vec<u32>)> {
            c.iter()
                .map(|(name, t)| {
                    let data = t.data().iter().map(|v| v.to_bits()).collect();
                    (name.to_string(), data)
                })
                .collect()
        };
        let reference = Checkpoint::capture(&built.vars, &format!("{}/", scopes[0]));
        assert!(!reference.is_empty());
        assert_eq!(bits(&planned.checkpoints[&blocks[0].key()]), bits(&reference));
    }
}
