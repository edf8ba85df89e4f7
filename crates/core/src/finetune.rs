//! Network assembly and global fine-tuning (§6.1, "Global Fine-Tuning").
//!
//! The assembly step "just needs to initialize the pruned networks in the
//! promising subspace with the weights in the corresponding tuning blocks":
//! a pruned network first *inherits* the surviving parameters of the full
//! model (the baseline initialization every CNN-pruning method uses), then
//! the pre-trained tuning-block checkpoints overwrite the block-covered
//! layers, yielding a **block-trained network**. Global fine-tuning then
//! runs standard training on all parameters.

use std::collections::BTreeMap;

use wootz_fault::site;
use wootz_ir::{LayerKind, ModelIr};
use wootz_nn::{Checkpoint, EvalSet, TrainConfig, TrainLog, VarStore};
use wootz_tensor::Tensor;

use crate::analysis::{channel_origins, conv_widths, kept_input_indices};
use crate::compile::{BuiltModel, ModeToUse, MultiplexingModel, TuningBlock};
use crate::prune::{kept_filter_indices, PruneConfig};
use crate::{CoreError, Result};

/// Initializes the parameters of a pruned network (or a pruned block) under
/// `target_scope` in `target` by slicing the full model's weights in
/// `full` (stored under `full_scope`):
///
/// * pruned convs keep their top-L1 filters (rows) and the input channels
///   their upstream producers kept (columns);
/// * unpruned layers inherit verbatim except for input-channel slicing;
/// * batch-norm parameters follow their producing convolution's kept
///   filters;
/// * the classifier inherits with feature slicing through global pooling.
///
/// `only` optionally restricts initialization to a layer subset (used when
/// initializing one tuning block inside a pre-training graph).
///
/// # Errors
///
/// Returns [`CoreError`] when full-model tensors are missing or shapes
/// disagree with the target.
pub fn init_from_full(
    ir: &ModelIr,
    full: &Checkpoint,
    full_scope: &str,
    target: &mut VarStore,
    target_scope: &str,
    widths: &BTreeMap<String, usize>,
    only: Option<&[String]>,
) -> Result<()> {
    // Kept-filter indices for every pruned conv, ranked by L1 importance of
    // the full model's filters.
    let mut kept: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (layer, &width) in widths {
        let name = format!("{full_scope}/{layer}/weight");
        let w = full
            .get(&name)
            .ok_or_else(|| CoreError::Pipeline(format!("full checkpoint missing `{name}`")))?;
        kept.insert(layer.clone(), kept_filter_indices(w, width));
    }
    let origins = channel_origins(ir);
    let full_conv_widths = conv_widths(ir);

    let fetch = |suffix: &str| -> Result<&Tensor> {
        let name = format!("{full_scope}/{suffix}");
        full.get(&name)
            .ok_or_else(|| CoreError::Pipeline(format!("full checkpoint missing `{name}`")))
    };
    let maybe_assign = |target: &mut VarStore, suffix: &str, value: Tensor| -> Result<()> {
        let name = format!("{target_scope}/{suffix}");
        if target.contains(&name) {
            target.assign(&name, value).map_err(CoreError::from)
        } else {
            Ok(())
        }
    };

    for layer in ir.layers() {
        if let Some(names) = only {
            if !names.contains(&layer.name) {
                continue;
            }
        }
        let in_kept = |blob: &str| -> Option<Vec<usize>> {
            kept_input_indices(&origins[blob], &kept, &full_conv_widths)
        };
        match &layer.kind {
            LayerKind::Convolution { .. } => {
                let mut w = fetch(&format!("{}/weight", layer.name))?.clone();
                let mut b = fetch(&format!("{}/bias", layer.name))?.clone();
                if let Some(rows) = kept.get(&layer.name) {
                    w = w.select_axis0(rows).map_err(CoreError::from_shape)?;
                    b = b.select_axis0(rows).map_err(CoreError::from_shape)?;
                }
                if let Some(cols) = in_kept(&layer.bottoms[0]) {
                    w = w.select_axis1(&cols).map_err(CoreError::from_shape)?;
                }
                maybe_assign(target, &format!("{}/weight", layer.name), w)?;
                maybe_assign(target, &format!("{}/bias", layer.name), b)?;
            }
            LayerKind::BatchNorm => {
                let sel = in_kept(&layer.bottoms[0]);
                for var in ["gamma", "beta", "moving_mean", "moving_variance"] {
                    let mut t = fetch(&format!("{}/{var}", layer.name))?.clone();
                    if let Some(idx) = &sel {
                        t = t.select_axis0(idx).map_err(CoreError::from_shape)?;
                    }
                    maybe_assign(target, &format!("{}/{var}", layer.name), t)?;
                }
            }
            LayerKind::InnerProduct { .. } => {
                let mut w = fetch(&format!("{}/weight", layer.name))?.clone();
                let b = fetch(&format!("{}/bias", layer.name))?.clone();
                if let Some(cols) = in_kept(&layer.bottoms[0]) {
                    w = w.select_axis1(&cols).map_err(CoreError::from_shape)?;
                }
                maybe_assign(target, &format!("{}/weight", layer.name), w)?;
                maybe_assign(target, &format!("{}/bias", layer.name), b)?;
            }
            _ => {}
        }
    }
    Ok(())
}

impl CoreError {
    fn from_shape(e: wootz_tensor::ShapeError) -> Self {
        CoreError::Nn(wootz_nn::NnError::Shape(e))
    }
}

/// How a pruned network is initialized before global fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitStrategy<'a> {
    /// Baseline "default network": inherit surviving filters of the full
    /// model only.
    Default,
    /// "Block-trained network": inherit, then overwrite with the
    /// pre-trained tuning blocks `(block, its checkpoint)` — the
    /// composability-based initialization.
    BlockTrained(&'a [(&'a TuningBlock, &'a Checkpoint)]),
}

/// Materializes the pruned network for `config` and initializes it per the
/// strategy. Returns the ready-to-train model.
///
/// A missing, empty, or shape-incompatible block checkpoint is **not** an
/// error: the block's layers keep the inherited full-model weights (the
/// baseline "default network" initialization) and an
/// `assemble.block_fallback` event records the degradation. This is what
/// keeps a long exploration run alive when one pre-training group died.
///
/// # Errors
///
/// Returns [`CoreError`] on config/model mismatch or a full checkpoint
/// that cannot initialize the inherited weights.
pub fn assemble(
    mm: &MultiplexingModel,
    config: &PruneConfig,
    full: &Checkpoint,
    init: InitStrategy<'_>,
    seed: u64,
) -> Result<BuiltModel> {
    assemble_supervised(mm, config, full, init, seed, None, 0).map(|(built, _)| built)
}

/// Like [`assemble`], but additionally consults a fault-injection plan at
/// site [`site::ASSEMBLE_BLOCK`]: the unit-of-work key is the block's
/// position within the composite, and a fired fault marks that block's
/// checkpoint corrupt (exactly like a real corrupt file). `config_index`
/// only labels the observability events.
///
/// Returns the built model plus the number of blocks that fell back to
/// inherited weights.
///
/// # Errors
///
/// Same as [`assemble`]; block-checkpoint problems degrade, never abort.
pub fn assemble_supervised(
    mm: &MultiplexingModel,
    config: &PruneConfig,
    full: &Checkpoint,
    init: InitStrategy<'_>,
    seed: u64,
    faults: Option<&wootz_fault::FaultPlan>,
    config_index: u64,
) -> Result<(BuiltModel, usize)> {
    let mut built = mm.build(&ModeToUse::FineTune(config), seed)?;
    let BuiltModel { vars, widths, .. } = &mut built;
    init_from_full(mm.ir(), full, "net", vars, "net", widths, None)?;
    let mut fallbacks = 0usize;
    if let InitStrategy::BlockTrained(blocks) = init {
        for (pos, (block, ckpt)) in blocks.iter().enumerate() {
            let prefix = format!("{}/", block.scope());
            let rename = |name: &str| {
                name.strip_prefix(&prefix)
                    .map(|suffix| format!("net/{suffix}"))
                    .unwrap_or_else(|| name.to_string())
            };
            // Decide *before* touching the variable store whether this
            // checkpoint can restore cleanly, so a bad block never leaves
            // the network half-overwritten.
            let injected =
                wootz_fault::FaultPlan::fire_opt(faults, site::ASSEMBLE_BLOCK, pos as u64, 1);
            let reason = if injected.is_some() {
                Some("injected corrupt checkpoint".to_string())
            } else {
                checkpoint_restore_problem(ckpt, &built.vars, &rename)
            };
            if let Some(reason) = reason {
                fallbacks += 1;
                wootz_obs::counter("assemble.block_fallbacks").incr();
                wootz_obs::event("assemble.block_fallback")
                    .field("config", config_index as usize)
                    .field("key", block.key())
                    .field("reason", reason)
                    .emit();
                continue;
            }
            ckpt.restore(&mut built.vars, rename)
                .map_err(CoreError::from)?;
        }
    }
    Ok((built, fallbacks))
}

/// Why a block checkpoint cannot initialize the assembled network, or
/// `None` when a restore would apply cleanly and non-trivially.
fn checkpoint_restore_problem(
    ckpt: &Checkpoint,
    vars: &VarStore,
    rename: &impl Fn(&str) -> String,
) -> Option<String> {
    if ckpt.is_empty() {
        return Some("checkpoint is empty".to_string());
    }
    let mut would_restore = 0usize;
    for (name, tensor) in ckpt.iter() {
        let target = rename(name);
        if vars.contains(&target) {
            match vars.value(&target) {
                Ok(existing) if existing.shape() == tensor.shape() => would_restore += 1,
                Ok(existing) => {
                    return Some(format!(
                        "`{target}` shape mismatch: checkpoint {:?} vs network {:?}",
                        tensor.shape(),
                        existing.shape()
                    ));
                }
                Err(e) => return Some(format!("`{target}`: {e}")),
            }
        }
    }
    if would_restore == 0 {
        return Some("checkpoint restores nothing into the pruned network".to_string());
    }
    None
}

/// Runs global fine-tuning (standard classifier training over all
/// parameters) on an assembled network, measuring accuracy on `eval_data`
/// as [`wootz_nn::train_classifier`] does.
///
/// # Errors
///
/// Propagates training errors.
pub fn global_finetune(
    built: &mut BuiltModel,
    cfg: &TrainConfig,
    next_batch: impl FnMut(usize) -> (Tensor, Vec<usize>),
    eval_data: Option<EvalSet<'_>>,
) -> Result<TrainLog> {
    let logits = built
        .logits
        .ok_or_else(|| CoreError::Pipeline("fine-tuning needs a classifier head".into()))?;
    let input = built.input_name.clone();
    wootz_nn::train_classifier(
        &built.graph,
        &mut built.vars,
        &input,
        logits,
        cfg,
        next_batch,
        eval_data,
    )
    .map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wootz_models::resnet_mini;
    use wootz_nn::{evaluate_accuracy, forward, Mode};

    fn setup() -> (MultiplexingModel, Checkpoint) {
        let mm = MultiplexingModel::compile(resnet_mini(4)).unwrap();
        let built = mm.build(&ModeToUse::Original, 7).unwrap();
        let full = Checkpoint::capture(&built.vars, "net/");
        (mm, full)
    }

    #[test]
    fn default_assembly_inherits_sliced_weights() {
        let (mm, full) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::uniform(n, 50).unwrap();
        let built = assemble(&mm, &config, &full, InitStrategy::Default, 99).unwrap();
        // The pruned branch2a weight rows must be rows of the full weight.
        let full_w = full.get("net/res2_0_branch2a/weight").unwrap();
        let pruned_w = built.vars.value("net/res2_0_branch2a/weight").unwrap();
        assert_eq!(pruned_w.shape()[0], full_w.shape()[0] / 2);
        // Every pruned filter equals one full filter (same channel count
        // here because branch2a's input conv1 is unpruned).
        let chunk: usize = full_w.shape()[1..].iter().product();
        for fi in 0..pruned_w.shape()[0] {
            let row = &pruned_w.data()[fi * chunk..(fi + 1) * chunk];
            let found = (0..full_w.shape()[0])
                .any(|fj| &full_w.data()[fj * chunk..(fj + 1) * chunk] == row);
            assert!(found, "pruned filter {fi} not found in full weight");
        }
    }

    #[test]
    fn inherited_input_channels_follow_producer_pruning() {
        let (mm, full) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::uniform(n, 70).unwrap();
        let built = assemble(&mm, &config, &full, InitStrategy::Default, 99).unwrap();
        // branch2b consumes branch2a (pruned): its input-channel count must
        // match branch2a's kept filters.
        let a = built.vars.value("net/res2_0_branch2a/weight").unwrap();
        let b = built.vars.value("net/res2_0_branch2b/weight").unwrap();
        assert_eq!(b.shape()[1], a.shape()[0]);
    }

    #[test]
    fn unpruned_config_inherits_everything_exactly() {
        let (mm, full) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::unpruned(n);
        let built = assemble(&mm, &config, &full, InitStrategy::Default, 123).unwrap();
        for (name, tensor) in full.iter() {
            assert_eq!(built.vars.value(name).unwrap(), tensor, "{name}");
        }
        // Behaviour matches the original network exactly.
        let orig = mm.build(&ModeToUse::Original, 7).unwrap();
        let x = Tensor::from_fn(&[2, 3, 16, 16], |i| (i % 13) as f32 / 13.0);
        let mut v1 = built.vars;
        let mut v2 = orig.vars;
        let p1 = forward(&built.graph, &mut v1, &[("data", &x)], Mode::Eval).unwrap();
        let p2 = forward(&orig.graph, &mut v2, &[("data", &x)], Mode::Eval).unwrap();
        assert_eq!(
            p1.activation(built.logits.unwrap()).data(),
            p2.activation(orig.logits.unwrap()).data()
        );
    }

    #[test]
    fn block_trained_assembly_overwrites_block_layers() {
        let (mm, full) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::uniform(n, 50).unwrap();
        // Fake a pre-trained checkpoint for a block on module 1: distinct
        // values so the overwrite is observable.
        let block = TuningBlock::new(0, vec![(1, 50)]).unwrap();
        let default_net = assemble(&mm, &config, &full, InitStrategy::Default, 5).unwrap();
        let mut ckpt = Checkpoint::new();
        let scope = block.scope();
        for (name, p) in default_net.vars.iter() {
            if let Some(suffix) = name.strip_prefix("net/") {
                if suffix.starts_with("res2_1_") {
                    ckpt.insert(format!("{scope}/{suffix}"), p.value.map(|v| v + 100.0));
                }
            }
        }
        let pairs = vec![(&block, &ckpt)];
        let built = assemble(&mm, &config, &full, InitStrategy::BlockTrained(&pairs), 5).unwrap();
        // Block-covered layer got the checkpoint values.
        let w = built.vars.value("net/res2_1_branch2a/weight").unwrap();
        assert!(w.data().iter().all(|&v| v > 50.0));
        // Non-covered layers kept the inherited values.
        let w0 = built.vars.value("net/res2_0_branch2a/weight").unwrap();
        assert_eq!(
            w0,
            default_net
                .vars
                .value("net/res2_0_branch2a/weight")
                .unwrap()
        );
    }

    #[test]
    fn missing_full_tensor_is_a_pipeline_error() {
        let (mm, _) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::uniform(n, 50).unwrap();
        // A full checkpoint missing conv weights cannot initialize.
        let empty_full = Checkpoint::new();
        let err = assemble(&mm, &config, &empty_full, InitStrategy::Default, 0).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn empty_block_checkpoint_falls_back_to_inherited_weights() {
        let (mm, full) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::uniform(n, 50).unwrap();
        let block = TuningBlock::new(0, vec![(1, 50)]).unwrap();
        let empty = Checkpoint::new();
        let pairs = vec![(&block, &empty)];
        let (built, fallbacks) = assemble_supervised(
            &mm,
            &config,
            &full,
            InitStrategy::BlockTrained(&pairs),
            0,
            None,
            0,
        )
        .unwrap();
        assert_eq!(fallbacks, 1, "empty checkpoint degrades, not aborts");
        // The network equals the default (inherited-only) initialization.
        let default_net = assemble(&mm, &config, &full, InitStrategy::Default, 0).unwrap();
        assert_eq!(
            built.vars.value("net/res2_1_branch2a/weight").unwrap(),
            default_net
                .vars
                .value("net/res2_1_branch2a/weight")
                .unwrap()
        );
    }

    #[test]
    fn shape_incompatible_checkpoint_falls_back_without_partial_restore() {
        let (mm, full) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::uniform(n, 50).unwrap();
        let block = TuningBlock::new(0, vec![(1, 50)]).unwrap();
        // A checkpoint trained for a *different* rate: shapes disagree.
        let other = PruneConfig::uniform(n, 30).unwrap();
        let other_net = assemble(&mm, &other, &full, InitStrategy::Default, 1).unwrap();
        let scope = block.scope();
        let mut ckpt = Checkpoint::new();
        for (name, p) in other_net.vars.iter() {
            if let Some(suffix) = name.strip_prefix("net/") {
                if suffix.starts_with("res2_1_") {
                    ckpt.insert(format!("{scope}/{suffix}"), p.value.map(|v| v + 100.0));
                }
            }
        }
        let pairs = vec![(&block, &ckpt)];
        let (built, fallbacks) = assemble_supervised(
            &mm,
            &config,
            &full,
            InitStrategy::BlockTrained(&pairs),
            0,
            None,
            0,
        )
        .unwrap();
        assert_eq!(fallbacks, 1);
        // Inherited weights intact — no half-applied overwrite (no +100s).
        let w = built.vars.value("net/res2_1_branch2a/weight").unwrap();
        assert!(w.data().iter().all(|&v| v < 50.0));
    }

    #[test]
    fn injected_corrupt_checkpoint_forces_fallback() {
        let (mm, full) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::uniform(n, 50).unwrap();
        let block = TuningBlock::new(0, vec![(1, 50)]).unwrap();
        let good_net = assemble(&mm, &config, &full, InitStrategy::Default, 5).unwrap();
        let scope = block.scope();
        let mut ckpt = Checkpoint::new();
        for (name, p) in good_net.vars.iter() {
            if let Some(suffix) = name.strip_prefix("net/") {
                if suffix.starts_with("res2_1_") {
                    ckpt.insert(format!("{scope}/{suffix}"), p.value.map(|v| v + 100.0));
                }
            }
        }
        let plan = wootz_fault::FaultPlan {
            seed: 0,
            triggers: vec![wootz_fault::Trigger {
                site: site::ASSEMBLE_BLOCK.into(),
                key: Some(0),
                kind: wootz_fault::FaultKind::CorruptCheckpoint,
                times: Some(1),
            }],
            rates: vec![],
        };
        let pairs = vec![(&block, &ckpt)];
        let (built, fallbacks) = assemble_supervised(
            &mm,
            &config,
            &full,
            InitStrategy::BlockTrained(&pairs),
            5,
            Some(&plan),
            7,
        )
        .unwrap();
        assert_eq!(fallbacks, 1);
        let w = built.vars.value("net/res2_1_branch2a/weight").unwrap();
        assert!(
            w.data().iter().all(|&v| v < 50.0),
            "block weights must be the inherited ones"
        );
        // Without the plan the same checkpoint applies.
        let (built, fallbacks) = assemble_supervised(
            &mm,
            &config,
            &full,
            InitStrategy::BlockTrained(&pairs),
            5,
            None,
            7,
        )
        .unwrap();
        assert_eq!(fallbacks, 0);
        let w = built.vars.value("net/res2_1_branch2a/weight").unwrap();
        assert!(w.data().iter().all(|&v| v > 50.0));
    }

    #[test]
    fn finetune_trains_the_assembled_network() {
        let (mm, full) = setup();
        let n = mm.ir().conv_module_ids().len();
        let config = PruneConfig::uniform(n, 30).unwrap();
        let mut built = assemble(&mm, &config, &full, InitStrategy::Default, 3).unwrap();
        let ds = wootz_data::micro_dataset("flowers102", 1);
        // resnet_mini(4) has 4 classes; flowers has 8 — remap labels mod 4.
        let batch = |step: usize| {
            let (x, y) = ds.train_batch(step, 8);
            (x, y.into_iter().map(|l| l % 4).collect())
        };
        let (ex, ey) = ds.test_set(32);
        let ey: Vec<usize> = ey.into_iter().map(|l| l % 4).collect();
        let cfg = TrainConfig {
            max_steps: 30,
            sgd: wootz_tensor::sgd::SgdConfig {
                learning_rate: 0.05,
                weight_decay: 1e-5,
                momentum: 0.9,
            },
            schedule: wootz_nn::LrSchedule::Fixed,
            eval_every: 0,
        };
        let log = global_finetune(&mut built, &cfg, batch, Some(EvalSet::new(&ex, &ey))).unwrap();
        assert_eq!(log.steps_run, 30);
        assert!(log.final_accuracy.is_some());
        // The network is usable for evaluation afterwards.
        let acc = evaluate_accuracy(
            &built.graph,
            &mut built.vars,
            "data",
            built.logits.unwrap(),
            &ex,
            &ey,
        )
        .unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }
}
