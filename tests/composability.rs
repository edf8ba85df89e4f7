//! Integration tests of the composability mechanism itself: pre-trained
//! block reuse across networks, checkpoint identity, and the Teacher–
//! Student structure's invariants.

use std::collections::BTreeMap;

use wootz_core::blocks::module_level_blocks;
use wootz_core::compile::{ModeToUse, MultiplexingModel, TuningBlock};
use wootz_core::finetune::{assemble, InitStrategy};
use wootz_core::pretrain::{
    pretrain_group_supervised, pretrain_groups_with, PretrainConfig, PretrainedBlock,
};
use wootz_core::prune::PruneConfig;
use wootz_data::micro_dataset;
use wootz_nn::Checkpoint;
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;

fn setup() -> (MultiplexingModel, Checkpoint, wootz_data::Dataset) {
    let ds = micro_dataset("flowers102", 5);
    let mm = MultiplexingModel::compile(wootz_models::resnet_mini(ds.spec().classes)).unwrap();
    let built = mm.build(&ModeToUse::Original, 5).unwrap();
    // An untrained "full model" suffices for structural tests.
    let full = Checkpoint::capture(&built.vars, "net/");
    (mm, full, ds)
}

/// Pre-trains `blocks` group by group under the pipeline's supervisor, one
/// group after another, and returns the trained blocks by key.
fn pretrain(
    mm: &MultiplexingModel,
    blocks: &[TuningBlock],
    full: &Checkpoint,
    cfg: &PretrainConfig,
    next_batch: impl Fn(usize) -> Tensor + Sync,
) -> BTreeMap<String, PretrainedBlock> {
    let run_groups = |todo: &[(usize, &[usize])]| {
        Ok(todo
            .iter()
            .map(|&(group_index, group)| {
                let group: Vec<_> = group.iter().map(|&i| (i, blocks[i].clone())).collect();
                pretrain_group_supervised(mm, &group, group_index, full, cfg, &next_batch, None)
            })
            .collect())
    };
    let outcome = pretrain_groups_with(blocks, BTreeMap::new(), run_groups, None).unwrap();
    assert!(outcome.failed.is_empty(), "{:?}", outcome.failed);
    outcome
        .blocks
        .into_iter()
        .map(|block| (block.key.clone(), block))
        .collect()
}

/// The headline reuse property: ONE pre-trained block checkpoint
/// initializes the matching layers of MANY different networks, and the
/// initialized weights are bit-identical across those networks.
#[test]
fn one_block_checkpoint_serves_many_networks() {
    let (mm, full, _ds) = setup();
    let n = mm.ir().conv_module_ids().len();
    // Two configs sharing module 1 at rate 50 but differing elsewhere.
    let c1 = PruneConfig::new(vec![30, 50, 30, 70]).unwrap();
    let c2 = PruneConfig::new(vec![70, 50, 50, 30]).unwrap();
    assert_eq!(c1.len(), n);
    let configs = vec![c1.clone(), c2.clone()];
    let set = module_level_blocks(&configs);
    let cfg = PretrainConfig {
        steps: 8,
        sgd: SgdConfig {
            learning_rate: 0.01,
            weight_decay: 0.0,
            momentum: 0.9,
        },
        seed: 2,
    };
    let trained = pretrain(&mm, &set.blocks, &full, &cfg, |_| {
        Tensor::ones(&[2, 3, 16, 16])
    });

    // Both networks' composites reference the same (module 1, rate 50)
    // block...
    let block_of = |ci: usize| {
        set.composites[ci]
            .parts
            .iter()
            .map(|p| &set.blocks[p.block_index])
            .find(|b| b.parts == vec![(1, 50)])
            .expect("both configs share module 1 at 50%")
            .key()
    };
    assert_eq!(block_of(0), block_of(1));

    // ...and after assembly, the module-1 weights are identical across the
    // two otherwise-different networks (bitwise reuse).
    let assemble_with = |config: &PruneConfig, ci: usize| {
        let pairs: Vec<_> = set.composites[ci]
            .parts
            .iter()
            .map(|p| {
                let b = &set.blocks[p.block_index];
                (b, &trained[&b.key()].checkpoint)
            })
            .collect();
        assemble(&mm, config, &full, InitStrategy::BlockTrained(&pairs), 1).unwrap()
    };
    let n1 = assemble_with(&c1, 0);
    let n2 = assemble_with(&c2, 1);
    for var in ["net/res2_1_branch2a/weight", "net/res2_1_branch2b/weight"] {
        assert_eq!(
            n1.vars.value(var).unwrap(),
            n2.vars.value(var).unwrap(),
            "{var} should be the same reused pre-trained tensor"
        );
    }
    // A module where the rates differ must NOT be shared.
    let w1 = n1.vars.value("net/res2_0_branch2a/weight").unwrap();
    let w2 = n2.vars.value("net/res2_0_branch2a/weight").unwrap();
    assert_ne!(
        w1.shape(),
        w2.shape(),
        "different rates give different widths"
    );
}

/// Pre-training leaves the teacher untouched and moves every student
/// parameter gradient-wise, while the reconstruction losses drop on a
/// learnable signal.
#[test]
fn pretraining_invariants() {
    let ds = micro_dataset("flowers102", 5);
    let mm = MultiplexingModel::compile(wootz_models::resnet_mini(ds.spec().classes)).unwrap();
    // A *trained* teacher (few steps) so activations carry signal.
    let solver = wootz_ir::SolverConfig {
        dataset: "flowers102".into(),
        max_iter: 60,
        batch_size: 8,
        base_lr: 0.03,
        seed: 5,
        ..wootz_ir::SolverConfig::default()
    };
    let (full, _, _) = wootz_core::pipeline::train_full_model(&mm, &ds, &solver).unwrap();
    let configs = vec![PruneConfig::uniform(4, 50).unwrap()];
    let set = module_level_blocks(&configs);
    let cfg = PretrainConfig {
        steps: 25,
        sgd: SgdConfig {
            learning_rate: 0.02,
            weight_decay: 0.0,
            momentum: 0.9,
        },
        seed: 3,
    };
    let trained = pretrain(&mm, &set.blocks, &full, &cfg, |s| ds.train_batch(s, 8).0);
    assert_eq!(trained.len(), set.blocks.len());
    let losses: Vec<(&str, f32, f32)> = trained
        .values()
        .map(|b| (b.key.as_str(), b.first_loss, b.last_loss))
        .collect();
    let improved = losses
        .iter()
        .filter(|(_, first, last)| last < first)
        .count();
    assert!(
        improved * 2 > losses.len(),
        "most blocks should reduce reconstruction error: {losses:?}"
    );
}

/// Assembling with blocks whose rates do not match the target
/// configuration is caught by shape checking before any weight is
/// restored; the block falls back to inherited full-model weights, so the
/// result is exactly the inherited-weights assembly (no silent partial
/// corruption, no hard abort).
#[test]
fn mismatched_block_rates_fall_back_to_inherited_weights() {
    let (mm, full, _ds) = setup();
    let configs = vec![PruneConfig::new(vec![0, 70, 0, 0]).unwrap()];
    let set = module_level_blocks(&configs);
    let cfg = PretrainConfig {
        steps: 1,
        sgd: SgdConfig::default(),
        seed: 0,
    };
    let trained = pretrain(&mm, &set.blocks, &full, &cfg, |_| {
        Tensor::ones(&[1, 3, 16, 16])
    });
    // Try to use the (module 1, 70%) block in a network pruned at 30%.
    let wrong = PruneConfig::new(vec![0, 30, 0, 0]).unwrap();
    let block = &set.blocks[0];
    let pairs = vec![(block, &trained[&block.key()].checkpoint)];
    let degraded = assemble(&mm, &wrong, &full, InitStrategy::BlockTrained(&pairs), 0)
        .expect("shape mismatch degrades to inherited weights, not an error");
    let inherited = assemble(&mm, &wrong, &full, InitStrategy::Default, 0).unwrap();
    for (name, want) in inherited.vars.iter() {
        let got = degraded
            .vars
            .value(name)
            .unwrap_or_else(|_| panic!("missing var {name}"));
        assert_eq!(got.data(), want.value.data(), "partial restore in {name}");
    }
}
