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
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};
use wootz_fault::{panic_message, site, FaultError, FaultPlan};
use wootz_nn::{Checkpoint, CompiledNet, Mode, NnError, NodeId};
use wootz_tensor::ops::{mse_loss, mse_loss_backward_into};
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;
use wootz_wire::{WireDeserialize, WireReader, WireResult, WireSerialize};

use crate::blocks::partition_into_groups;
use crate::compile::{BuiltModel, ModeToUse, MultiplexingModel, TuningBlock};
use crate::error::CoreError;
use crate::finetune::init_from_full;
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

/// The result of pre-training a batch of tuning blocks: the paper's "bag
/// of pre-trained pruned tuning blocks".
#[derive(Debug, Clone, Default)]
pub struct PretrainOutcome {
    /// Every pre-trained block, in group order, each group's blocks in
    /// batch order.
    pub blocks: Vec<PretrainedBlock>,
    /// Blocks that could not be pre-trained even after the per-block
    /// fallback: `(key, error message)`. The assembly stage initializes
    /// these from inherited full-model weights instead.
    pub failed: Vec<(String, String)>,
}

impl PretrainOutcome {
    /// Total SGD steps executed across groups (the pre-training overhead
    /// the evaluation charges to the composability-based method).
    pub fn total_steps(&self) -> usize {
        self.blocks.iter().map(|block| block.steps).sum()
    }
}

/// One pre-trained tuning block, as produced by the supervisor and stored
/// in the run journal. `steps` carries the group's SGD-step cost on the
/// group's first block (the rest record 0) so that replaying a journal
/// reproduces [`PretrainOutcome::total_steps`] exactly.
///
/// Its one byte encoding ([`WireSerialize`]) is the `journal-block`
/// payload of `PROTOCOL.md` §8 — `key: string, first_loss: f32,
/// last_loss: f32, steps: u64, checkpoint` — which the journal's block
/// records and the `TaskDone` frame of a pre-training task both carry.
#[derive(Debug, Clone, PartialEq)]
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

impl WireSerialize for PretrainedBlock {
    fn wire_size(&self) -> usize {
        self.key.wire_size() + 4 + 4 + 8 + self.checkpoint.wire_size()
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        self.key.wire_write(w)?;
        self.first_loss.wire_write(w)?;
        self.last_loss.wire_write(w)?;
        (self.steps as u64).wire_write(w)?;
        self.checkpoint.wire_write(w)
    }
}

impl WireDeserialize for PretrainedBlock {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Self> {
        Ok(PretrainedBlock {
            key: r.string("block key")?,
            first_loss: r.f32("first loss")?,
            last_loss: r.f32("last loss")?,
            steps: r.u64("steps")? as usize,
            checkpoint: Checkpoint::wire_read(r)?,
        })
    }
}

/// Callback invoked once per freshly trained block (journal hook).
pub type BlockSink<'s> = dyn FnMut(&PretrainedBlock) -> Result<()> + 's;

/// What one supervised group produced: trained blocks, blocks that failed
/// both the group run and the per-block fallback, and the group-level error
/// (if any) for abort decisions.
#[derive(Debug)]
pub struct GroupOutcome {
    /// Freshly trained blocks (journal-ready, the group's first block
    /// carrying the step cost).
    pub blocks: Vec<PretrainedBlock>,
    /// Blocks that could not be trained, as `(key, rendered error)`.
    pub failed: Vec<(String, String)>,
    /// The group-level error, when the joint group run failed for a
    /// reason other than divergence (the batch aborts with it when no
    /// block trained at all).
    pub first_error: Option<CoreError>,
}

/// The journal-aware shell of supervised pre-training, over a pluggable
/// group runner: partitions `blocks` into non-overlapping groups, hands
/// `run_groups` the `(group index, block indices)` of every group *not*
/// fully covered by `completed`, and merges what it returns — one
/// [`GroupOutcome`] per handed group, in order — with the journaled
/// copies, in group order. The phase driver hands the groups to its
/// executor as [`crate::pipeline::Task::Pretrain`] tasks, so every
/// runtime replays, prefers journaled copies, charges steps and reports
/// fresh blocks to `sink` identically. Each group's batch stream is keyed
/// by its group index, so without faults and without panics the outcome
/// does not depend on where, in which order or how many at a time the
/// groups run.
///
/// # Errors
///
/// Propagates `run_groups` and `sink` errors, and returns the first
/// group's error only if *no* block was produced at all.
pub fn pretrain_groups_with(
    blocks: &[TuningBlock],
    mut completed: BTreeMap<String, PretrainedBlock>,
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
    for (gi, group) in groups.iter().enumerate() {
        let Some(res) = trained.remove(&gi) else {
            // Fully journaled group: replay in block order.
            for &bi in group {
                outcome.blocks.extend(completed.remove(&blocks[bi].key()));
            }
            continue;
        };
        for block in res.blocks {
            // Prefer the journaled copy when a partially completed group
            // was retrained, so resumes replay byte-identically.
            match completed.remove(&block.key) {
                Some(journaled) => outcome.blocks.push(journaled),
                None => {
                    if let Some(sink) = sink.as_deref_mut() {
                        sink(&block)?;
                    }
                    outcome.blocks.push(block);
                }
            }
        }
        outcome.failed.extend(res.failed);
        first_error = first_error.or(res.first_error);
    }
    if outcome.blocks.is_empty() {
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

/// Supervises one group — what [`crate::pipeline::execute`] runs for a
/// [`crate::pipeline::Task::Pretrain`]: `blocks` are the group's blocks,
/// each with its position in the batch. Consults the fault plan at
/// [`site::PRETRAIN_GROUP`] (keyed by group index), tries the joint group
/// run first and, on any failure (real error, panic caught by
/// `catch_unwind`, or injected fault), degrades to training each block
/// alone (fault site [`site::PRETRAIN_BLOCK`], keyed by batch position).
/// Blocks that fail even alone are reported, not fatal: they assemble
/// from inherited weights. The batch stream is keyed by `group_index`, so
/// a group trained remotely is bit-identical to the same group trained
/// in-process.
pub fn pretrain_group_supervised(
    mm: &MultiplexingModel,
    blocks: &[(usize, TuningBlock)],
    group_index: usize,
    full: &Checkpoint,
    cfg: &PretrainConfig,
    next_batch: &(impl Fn(usize) -> Tensor + Sync),
    faults: Option<&FaultPlan>,
) -> GroupOutcome {
    let group: Vec<TuningBlock> = blocks.iter().map(|(_, block)| block.clone()).collect();
    let group_attempt = || -> Result<Vec<PretrainedBlock>> {
        if let Some(kind) = FaultPlan::fire_opt(faults, site::PRETRAIN_GROUP, group_index as u64, 1)
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
            || pretrain_one_group(mm, &group, group_index, full, cfg, next_batch),
        )
    };
    match group_attempt() {
        Ok(trained) => GroupOutcome {
            blocks: trained,
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
            // A diverged group is a numerical outcome of the solver, not a
            // fault: its blocks assemble from inherited weights even when
            // no block of the batch trains, so it never aborts the run.
            let diverged = matches!(err, CoreError::Nn(NnError::Diverged { .. }));
            let mut out = GroupOutcome {
                blocks: Vec::new(),
                failed: Vec::new(),
                first_error: (!diverged).then_some(err),
            };
            for (bi, block) in blocks {
                let key = block.key();
                let block_attempt = || -> Result<Vec<PretrainedBlock>> {
                    if let Some(kind) =
                        FaultPlan::fire_opt(faults, site::PRETRAIN_BLOCK, *bi as u64, 1)
                    {
                        return Err(injected(site::PRETRAIN_BLOCK, *bi as u64, &kind));
                    }
                    run_caught(
                        || format!("fallback pre-training for block {key}"),
                        || {
                            let solo = std::slice::from_ref(block);
                            pretrain_one_group(mm, solo, group_index, full, cfg, next_batch)
                        },
                    )
                };
                match block_attempt() {
                    // A solo fallback run costs the full step budget.
                    Ok(trained) => out.blocks.extend(trained),
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

/// Trains the non-overlapping blocks `group_blocks` jointly; `group_index`
/// keys the group's deterministic batch stream. Returns one block per
/// entry of `group_blocks`, in order; the first carries the group's whole
/// step cost.
fn pretrain_one_group(
    mm: &MultiplexingModel,
    group_blocks: &[TuningBlock],
    group_index: usize,
    full: &Checkpoint,
    cfg: &PretrainConfig,
    next_batch: &(impl Fn(usize) -> Tensor + Sync),
) -> Result<Vec<PretrainedBlock>> {
    // The executor runs groups on pool or worker threads, so this span
    // lands on its own thread-local stack; `pretrain.run` still brackets
    // the whole wall-clock interval on the driver thread.
    let _group_span = wootz_obs::span("pretrain.group")
        .with("group", group_index)
        .with("blocks", group_blocks.len())
        .with("steps", cfg.steps);
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
    let mut built = build_group(mm, group_blocks, &block_scopes, full, cfg.seed)?;

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
            // A non-finite reconstruction loss means the group diverged
            // (an exploding `pretrain_lr`): fail it before the gradients
            // reach the weights, so the supervisor falls back per block
            // and nothing non-finite is journaled, stored or served.
            if !loss.is_finite() {
                return Err(diverged(step, loss, None));
            }
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

    let mut trained = Vec::with_capacity(group_blocks.len());
    for (bi, key) in block_keys.into_iter().enumerate() {
        let _block_span = wootz_obs::span("pretrain.block")
            .with("key", key.clone())
            .with("group", group_index);
        let prefix = format!("{}/", block_scopes[bi]);
        let checkpoint = Checkpoint::capture(&built.vars, &prefix);
        // The last update itself can overflow a finite loss's weights.
        if let Some((name, _)) = checkpoint
            .iter()
            .find(|(_, t)| t.data().iter().any(|v| !v.is_finite()))
        {
            let last = cfg.steps.saturating_sub(1);
            return Err(diverged(last, last_losses[bi], Some(name.to_string())));
        }
        let first_loss = first_losses[bi].unwrap_or(f32::NAN);
        wootz_obs::event("pretrain.block_done")
            .field("key", key.clone())
            .field("structure_hash", format!("{:016x}", block_hashes[bi]))
            .field("first_loss", f64::from(first_loss))
            .field("last_loss", f64::from(last_losses[bi]))
            .emit();
        trained.push(PretrainedBlock {
            key,
            checkpoint,
            first_loss,
            last_loss: last_losses[bi],
            steps: if bi == 0 { cfg.steps } else { 0 },
        });
    }
    Ok(trained)
}

/// The error of a group whose loss or captured weights went non-finite.
fn diverged(step: usize, loss: f32, var: Option<String>) -> CoreError {
    CoreError::Nn(NnError::Diverged { step, loss, var })
}

/// Builds the pre-training structure of `blocks` (one group): the teacher
/// restored from the full model, and each block's student (scope `scopes[i]`)
/// initialized from the teacher's weights, sliced to the widths its ports
/// were built with.
fn build_group(
    mm: &MultiplexingModel,
    blocks: &[TuningBlock],
    scopes: &[String],
    full: &Checkpoint,
    seed: u64,
) -> Result<BuiltModel> {
    let mut built = mm.build(&ModeToUse::PreTrain(blocks), seed)?;

    // Teacher gets the full model's weights.
    full.restore(&mut built.vars, |name| {
        name.strip_prefix("net/")
            .map(|suffix| format!("teacher/{suffix}"))
            .unwrap_or_else(|| name.to_string())
    })?;
    // Students start from the inherited (sliced) teacher weights.
    for (ports, scope) in built.block_ports.iter().zip(scopes) {
        init_from_full(
            mm.ir(),
            full,
            "net",
            &mut built.vars,
            scope,
            &ports.widths,
            Some(&ports.layers),
        )?;
    }
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::MultiplexingModel;
    use crate::pipeline::WootzInputs;
    use crate::pipeline::{block_pretrain_config, run_groups, LocalExecutor, TaskContext};
    use wootz_data::{micro_dataset, Dataset};
    use wootz_fault::RetryPolicy;
    use wootz_ir::{Objective, SolverConfig};
    use wootz_models::resnet_mini;
    use wootz_nn::{backward, forward};
    use wootz_tensor::ops::mse_loss_backward;

    fn trained_full() -> (MultiplexingModel, Checkpoint) {
        let mm = MultiplexingModel::compile(resnet_mini(4)).unwrap();
        let built = mm.build(&ModeToUse::Original, 17).unwrap();
        (mm, Checkpoint::capture(&built.vars, "net/"))
    }

    /// Run inputs whose solver pre-trains blocks for `steps` steps on
    /// batches of four micro `flowers102` images (16×16, like
    /// `resnet_mini`'s input), and that dataset.
    fn solver_inputs(steps: usize) -> (WootzInputs, Dataset) {
        let inputs = WootzInputs {
            model: resnet_mini(4),
            subspace: Vec::new(),
            solver: SolverConfig {
                dataset: "flowers102".into(),
                batch_size: 4,
                pretrain_iter: steps,
                pretrain_lr: 0.02,
                ..SolverConfig::default()
            },
            objective: Objective::min_size_with_accuracy(0.5),
        };
        (inputs, micro_dataset("flowers102", 3))
    }

    /// A pre-training batch and the task context its groups execute in.
    struct Pretraining<'a> {
        cx: TaskContext<'a>,
        batch: &'a [TuningBlock],
    }

    /// Pre-training `batch` under `inputs`.
    fn context<'a>(
        inputs: &'a WootzInputs,
        dataset: &'a Dataset,
        mm: &'a MultiplexingModel,
        full: &'a Checkpoint,
        batch: &'a [TuningBlock],
        faults: Option<&'a FaultPlan>,
    ) -> Pretraining<'a> {
        static NO_BLOCKS: BTreeMap<String, Checkpoint> = BTreeMap::new();
        static EVAL_SET: std::sync::OnceLock<(Tensor, Vec<usize>)> = std::sync::OnceLock::new();
        let cx = TaskContext {
            inputs,
            dataset,
            eval_set: &EVAL_SET,
            mm,
            full_ckpt: full,
            blocks: &NO_BLOCKS,
            faults,
            retry: RetryPolicy::default(),
        };
        Pretraining { cx, batch }
    }

    /// The batch pre-trained the way the phase driver does it: the
    /// journal-aware shell over the local executor.
    fn pretrain_local(
        p: &Pretraining<'_>,
        completed: BTreeMap<String, PretrainedBlock>,
        sink: Option<&mut BlockSink<'_>>,
    ) -> Result<PretrainOutcome> {
        pretrain_groups_with(
            p.batch,
            completed,
            |todo| run_groups(&mut LocalExecutor, &p.cx, p.batch, todo),
            sink,
        )
    }

    /// [`pretrain_local`] of `blocks` from scratch, on solver inputs that
    /// pre-train for `steps` steps.
    fn pretrain_fresh(
        mm: &MultiplexingModel,
        full: &Checkpoint,
        blocks: &[TuningBlock],
        steps: usize,
    ) -> PretrainOutcome {
        let (inputs, ds) = solver_inputs(steps);
        let cx = context(&inputs, &ds, mm, full, blocks, None);
        pretrain_local(&cx, BTreeMap::new(), None).unwrap()
    }

    /// The checkpoint `outcome` holds for `block`.
    fn checkpoint_of<'o>(outcome: &'o PretrainOutcome, block: &TuningBlock) -> &'o Checkpoint {
        let key = block.key();
        let trained = outcome.blocks.iter().find(|b| b.key == key);
        &trained
            .unwrap_or_else(|| panic!("no block {key}"))
            .checkpoint
    }

    #[test]
    fn pretraining_reduces_reconstruction_error() {
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 70)]).unwrap(),
            TuningBlock::new(1, vec![(3, 70)]).unwrap(),
        ];
        let outcome = pretrain_fresh(&mm, &full, &blocks, 40);
        assert_eq!(outcome.blocks.len(), 2);
        assert_eq!(
            outcome.total_steps(),
            40,
            "disjoint blocks train in one group"
        );
        for block in &outcome.blocks {
            assert!(
                block.last_loss < block.first_loss,
                "block {}: reconstruction loss did not drop ({} -> {})",
                block.key,
                block.first_loss,
                block.last_loss
            );
        }
    }

    #[test]
    fn parallel_pretraining_matches_sequential() {
        // The same batch on a one-thread pool (groups one after another)
        // and on a two-thread pool (both groups at once) lands on the same
        // blocks, bit for bit, in the same order.
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(0, 50), (1, 50)]).unwrap(),
            TuningBlock::new(1, vec![(1, 70)]).unwrap(),
            TuningBlock::new(2, vec![(3, 30)]).unwrap(),
        ];
        assert_eq!(
            partition_into_groups(&blocks).len(),
            2,
            "the overlapping blocks split"
        );
        let on_pool = |threads: usize| {
            let pool = wootz_par::Pool::new(threads);
            wootz_par::with_pool(&pool, || pretrain_fresh(&mm, &full, &blocks, 6))
        };
        let seq = on_pool(1);
        let par = on_pool(2);
        assert_eq!(seq.blocks.len(), 3);
        assert_eq!(seq.total_steps(), 12);
        assert_eq!(seq.blocks, par.blocks);
        assert!(seq.failed.is_empty() && par.failed.is_empty());
    }

    #[test]
    fn overlapping_blocks_train_in_separate_groups() {
        let (mm, full) = trained_full();
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 50), (2, 50)]).unwrap(),
            TuningBlock::new(1, vec![(2, 70)]).unwrap(),
        ];
        assert_eq!(partition_into_groups(&blocks).len(), 2);
        let outcome = pretrain_fresh(&mm, &full, &blocks, 2);
        assert_eq!(outcome.total_steps(), 4);
        assert_eq!(outcome.blocks.len(), 2);
    }

    #[test]
    fn checkpoints_cover_block_parameters_only() {
        let (mm, full) = trained_full();
        let blocks = vec![TuningBlock::new(0, vec![(2, 50)]).unwrap()];
        let outcome = pretrain_fresh(&mm, &full, &blocks, 1);
        let ckpt = checkpoint_of(&outcome, &blocks[0]);
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
        let outcome = pretrain_fresh(&mm, &full, &blocks, 1);
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
            let ckpt = checkpoint_of(&outcome, block);
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
        let (inputs, ds) = solver_inputs(4);
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
        let cx = context(&inputs, &ds, &mm, &full, &blocks, Some(&plan));
        let out = pretrain_local(&cx, BTreeMap::new(), None).unwrap();
        assert_eq!(out.blocks.len(), 2, "fallback still trains each block");
        assert!(out.failed.is_empty());
        assert_eq!(
            out.total_steps(),
            8,
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
        let (inputs, ds) = solver_inputs(2);
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
        let cx = context(&inputs, &ds, &mm, &full, &blocks, Some(&plan));
        let out = pretrain_local(&cx, BTreeMap::new(), None).unwrap();
        assert_eq!(out.blocks.len(), 1, "block 0 recovered via fallback");
        assert_eq!(out.blocks[0].key, blocks[0].key());
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
        let (inputs, ds) = solver_inputs(3);
        let cx = context(&inputs, &ds, &mm, &full, &blocks, None);
        let mut journaled: Vec<PretrainedBlock> = Vec::new();
        {
            let mut sink = |b: &PretrainedBlock| {
                journaled.push(b.clone());
                Ok(())
            };
            pretrain_local(&cx, BTreeMap::new(), Some(&mut sink)).unwrap();
        }
        assert_eq!(journaled.len(), 2, "sink sees every fresh block");
        let first = pretrain_local(&cx, BTreeMap::new(), None).unwrap();
        let completed: BTreeMap<String, PretrainedBlock> =
            journaled.into_iter().map(|b| (b.key.clone(), b)).collect();
        let mut fresh = 0usize;
        let mut sink = |_: &PretrainedBlock| {
            fresh += 1;
            Ok(())
        };
        // A resumed run must not even reach the executor with work:
        // nothing retrains.
        let resumed = pretrain_groups_with(
            &blocks,
            completed,
            |todo| {
                assert!(todo.is_empty(), "resume retrained groups {todo:?}");
                run_groups(&mut LocalExecutor, &cx.cx, cx.batch, todo)
            },
            Some(&mut sink),
        )
        .unwrap();
        assert_eq!(fresh, 0, "nothing retrained on resume");
        assert_eq!(resumed.blocks, first.blocks);
        assert_eq!(resumed.total_steps(), first.total_steps());
    }

    #[test]
    fn teacher_parameters_do_not_move() {
        // The interpreter loop the planned pre-training loop replaced runs
        // the same group: the teacher must not move, and the student must
        // end on the bits the local executor produces.
        let (mm, full) = trained_full();
        let blocks = vec![TuningBlock::new(0, vec![(1, 50)]).unwrap()];
        let (inputs, ds) = solver_inputs(5);
        let cfg = block_pretrain_config(&inputs.solver);
        let scopes = vec![blocks[0].scope()];
        let mut built = build_group(&mm, &blocks, &scopes, &full, cfg.seed).unwrap();
        let before = built.vars.value("teacher/conv1/weight").unwrap().clone();
        for step in 0..cfg.steps {
            let images = ds.train_batch(step, 4).0;
            let pass = forward(
                &built.graph,
                &mut built.vars,
                &[("data", &images)],
                Mode::Train,
            )
            .unwrap();
            let ports = &built.block_ports[0];
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

        let cx = context(&inputs, &ds, &mm, &full, &blocks, None);
        let planned = pretrain_local(&cx, BTreeMap::new(), None).unwrap();
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
        assert_eq!(bits(checkpoint_of(&planned, &blocks[0])), bits(&reference));
    }
}
