//! An exhaustive solver for the **optimal tuning block definition problem**
//! on tiny instances, used as an ablation baseline for the linear-time
//! hierarchical identifier.
//!
//! §5 of the paper defines the problem — choose a block set `B` minimizing
//! `Σ T(B_k) + Σ T(A^{(n,B)})` — and proves (by reduction to knapsack) that
//! even the restricted version is NP-hard, which motivates the Sequitur
//! heuristic. This module makes that trade-off measurable: an abstract
//! cost model stands in for the `T(·)` terms, and tiny instances are solved
//! exactly by enumerating block-set candidates, so tests can bound how far
//! the heuristic's choice is from optimal.

use serde::{Deserialize, Serialize};

use crate::blocks::{assign_composites, BlockSet};
use crate::compile::TuningBlock;
use crate::prune::PruneConfig;

/// Abstract costs standing in for the paper's `T(B_k)` (block pre-training
/// time) and `T(A^{(n,B)})` (block-trained network fine-tuning time), in
/// arbitrary time units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockCostModel {
    /// Pre-training cost of a block, per module it spans.
    pub pretrain_per_module: f64,
    /// Fine-tuning cost of a network with no pre-trained blocks.
    pub finetune_base: f64,
    /// Fine-tuning saving per pruned module covered by a pre-trained block.
    pub saving_per_covered_module: f64,
    /// Extra saving per module beyond the first in a multi-module block
    /// (the paper's "a pre-trained sequence typically has a larger impact
    /// than its subsequences", §5), applied per covered occurrence.
    pub length_bonus_per_extra_module: f64,
}

impl Default for BlockCostModel {
    /// Proportions shaped like the paper's measurements: pre-training one
    /// module costs a fraction of a fine-tuning run, coverage saves about
    /// a third of fine-tuning when complete, longer blocks help a little.
    fn default() -> Self {
        BlockCostModel {
            pretrain_per_module: 0.12,
            finetune_base: 1.0,
            saving_per_covered_module: 0.33 / 4.0,
            length_bonus_per_extra_module: 0.02,
        }
    }
}

/// Total cost of pruning the subspace with the given block set:
/// pre-training all blocks plus fine-tuning every network assembled from
/// them (greedy longest-match assembly, as the real pipeline uses).
pub fn evaluate_block_set(
    configs: &[PruneConfig],
    blocks: &[TuningBlock],
    model: &BlockCostModel,
) -> f64 {
    let pretrain: f64 = blocks
        .iter()
        .map(|b| b.parts.len() as f64 * model.pretrain_per_module)
        .sum();
    let composites = assign_composites(configs, blocks);
    let finetune: f64 = composites
        .iter()
        .map(|comp| {
            let mut saving = 0.0;
            for part in &comp.parts {
                let block = &blocks[part.block_index];
                let covered = block.parts.iter().filter(|(_, r)| *r != 0).count() as f64;
                saving += covered * model.saving_per_covered_module;
                saving +=
                    (block.parts.len() as f64 - 1.0).max(0.0) * model.length_bonus_per_extra_module;
            }
            (model.finetune_base - saving).max(model.finetune_base * 0.2)
        })
        .sum();
    pretrain + finetune
}

/// Every distinct contiguous pruned run appearing in any configuration —
/// the candidate blocks of the restricted problem (rates from a predefined
/// set, runs bounded by `max_len`).
pub fn candidate_blocks(configs: &[PruneConfig], max_len: usize) -> Vec<TuningBlock> {
    let mut seen = std::collections::BTreeSet::new();
    for config in configs {
        let rates = config.rates();
        for start in 0..rates.len() {
            for len in 1..=max_len.min(rates.len() - start) {
                let parts: Vec<(usize, u8)> = (start..start + len).map(|m| (m, rates[m])).collect();
                if parts.iter().all(|(_, r)| *r == 0) {
                    continue;
                }
                seen.insert(parts);
            }
        }
    }
    seen.into_iter()
        .enumerate()
        .map(|(id, parts)| TuningBlock { id, parts })
        .collect()
}

/// The exact optimum over all subsets of [`candidate_blocks`] — exponential,
/// so only usable on tiny instances.
///
/// Returns the best block set and its cost.
///
/// # Panics
///
/// Panics when the candidate count exceeds 20 (2²⁰ subsets), to keep the
/// ablation from running away; the heuristic exists precisely because the
/// problem does not scale.
pub fn exhaustive_blocks(
    configs: &[PruneConfig],
    max_len: usize,
    model: &BlockCostModel,
) -> (BlockSet, f64) {
    let candidates = candidate_blocks(configs, max_len);
    assert!(
        candidates.len() <= 20,
        "{} candidates is too many for exhaustive search",
        candidates.len()
    );
    let mut best_cost = f64::INFINITY;
    let mut best: Vec<TuningBlock> = Vec::new();
    for mask in 0u32..(1 << candidates.len()) {
        let subset: Vec<TuningBlock> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, b)| b.clone())
            .enumerate()
            .map(|(id, mut b)| {
                b.id = id;
                b
            })
            .collect();
        let cost = evaluate_block_set(configs, &subset, model);
        if cost < best_cost {
            best_cost = cost;
            best = subset;
        }
    }
    let composites = assign_composites(configs, &best);
    (
        BlockSet {
            blocks: best,
            composites,
        },
        best_cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{identify_tuning_blocks, module_level_blocks};

    fn cfg(rates: &[u8]) -> PruneConfig {
        PruneConfig::new(rates.to_vec()).unwrap()
    }

    #[test]
    fn candidates_enumerate_distinct_runs() {
        let configs = vec![cfg(&[30, 50]), cfg(&[30, 70])];
        let cands = candidate_blocks(&configs, 2);
        // Runs: [30], [50], [70] singles at their positions, plus the two
        // 2-module runs.
        assert_eq!(cands.len(), 5, "{cands:?}");
        assert!(cands.iter().all(|b| !b.parts.is_empty()));
    }

    #[test]
    fn empty_block_set_costs_base_finetuning() {
        let configs = vec![cfg(&[30, 50]), cfg(&[70, 70])];
        let model = BlockCostModel::default();
        let cost = evaluate_block_set(&configs, &[], &model);
        assert!((cost - 2.0 * model.finetune_base).abs() < 1e-9);
    }

    #[test]
    fn shared_blocks_beat_no_blocks_on_repetitive_subspaces() {
        let configs = vec![cfg(&[30, 50, 70]); 4];
        let model = BlockCostModel::default();
        let none = evaluate_block_set(&configs, &[], &model);
        let (optimal, cost) = exhaustive_blocks(&configs, 3, &model);
        assert!(cost < none, "optimal {cost} should beat no-blocks {none}");
        assert!(!optimal.blocks.is_empty());
    }

    #[test]
    fn optimal_never_worse_than_either_heuristic() {
        // The heuristics pick subsets of the candidate space, so the
        // exhaustive optimum is a lower bound on their cost.
        let model = BlockCostModel::default();
        let collections = vec![
            vec![cfg(&[30, 50, 50]), cfg(&[70, 50, 50]), cfg(&[30, 50, 70])],
            vec![cfg(&[30, 30, 30]), cfg(&[30, 30, 70]), cfg(&[50, 30, 30])],
            vec![cfg(&[70, 70]), cfg(&[70, 70]), cfg(&[70, 30])],
        ];
        for configs in collections {
            let (_, optimal_cost) = exhaustive_blocks(&configs, 3, &model);
            let heuristic = identify_tuning_blocks(&configs).unwrap();
            let heuristic_cost = evaluate_block_set(&configs, &heuristic.blocks, &model);
            let module_cost =
                evaluate_block_set(&configs, &module_level_blocks(&configs).blocks, &model);
            assert!(
                optimal_cost <= heuristic_cost + 1e-9,
                "optimal {optimal_cost} > heuristic {heuristic_cost}"
            );
            assert!(optimal_cost <= module_cost + 1e-9);
            // The heuristic should not be catastrophically far off on these
            // tiny repetitive instances.
            assert!(
                heuristic_cost <= optimal_cost * 1.5,
                "heuristic {heuristic_cost} vs optimal {optimal_cost}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn oversized_instances_are_rejected() {
        let configs: Vec<PruneConfig> =
            crate::prune::sample_subspace(8, &crate::prune::PAPER_RATES, 10, 1);
        exhaustive_blocks(&configs, 4, &BlockCostModel::default());
    }
}
