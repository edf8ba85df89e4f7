//! One simulated pruning experiment: both arms (baseline vs
//! composability-based), driven through the real `wootz_core::explore`
//! machinery with the calibrated accuracy model as the evaluator, plus the
//! pre-training overhead accounting.

use serde::{Deserialize, Serialize};
use wootz_core::blocks::{
    identify_tuning_blocks, module_level_blocks, partition_into_groups, BlockSet,
};
use wootz_core::explore::{explore, EvalOutcome};
use wootz_core::prune::{
    config_param_count, sample_segment_subspace, sample_subspace, PruneConfig, PAPER_RATES,
};
use wootz_core::stats::model_stats;
use wootz_ir::Objective;

use crate::curves::AccuracyModel;
use crate::profiles::{dataset_profile, model_profile};

/// How tuning blocks are defined in the composability arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockStrategy {
    /// Every convolution module at each appearing rate (the paper's basic
    /// setting).
    ModuleLevel,
    /// The hierarchical Sequitur-based identifier (§5).
    Hierarchical,
}

/// How the promising subspace is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubspaceKind {
    /// Independent per-module rates ("collection-1" / the 500-config
    /// spaces of Tables 3–4).
    Random,
    /// One rate per contiguous module segment ("collection-2" of Table 5).
    Segment,
}

/// Parameters of one simulated experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimExperiment {
    /// `resnet50`, `resnet101`, `inception_v2` or `inception_v3`.
    pub model: String,
    /// `flowers102`, `cub200`, `cars` or `dogs`.
    pub dataset: String,
    /// Tolerable accuracy drop in percentage points; the target is
    /// `full − alpha/100` (negative α demands beating the full model).
    pub alpha_pct: f64,
    /// Concurrent workers (the paper's "#nodes": 1, 4, 16).
    pub workers: usize,
    /// Promising-subspace size (500 in Table 3).
    pub subspace_size: usize,
    /// Block definition strategy for the composability arm.
    pub strategy: BlockStrategy,
    /// Subspace sampling kind.
    pub subspace: SubspaceKind,
    /// RNG seed.
    pub seed: u64,
}

impl SimExperiment {
    /// A Table 3 style experiment with the defaults the paper uses.
    pub fn table3(model: &str, dataset: &str, alpha_pct: f64, workers: usize, seed: u64) -> Self {
        SimExperiment {
            model: model.into(),
            dataset: dataset.into(),
            alpha_pct,
            workers,
            subspace_size: 500,
            strategy: BlockStrategy::ModuleLevel,
            subspace: SubspaceKind::Random,
            seed,
        }
    }
}

/// One arm's result (baseline or composability).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmResult {
    /// Configurations evaluated before stopping.
    pub configs: usize,
    /// Wall-clock hours, including pre-training overhead for the
    /// composability arm.
    pub hours: f64,
    /// Chosen network's size as a percentage of the full model.
    pub best_size_pct: Option<f64>,
    /// Chosen network's accuracy.
    pub best_accuracy: Option<f64>,
    /// Mean cost of one evaluation (total evaluation cost over
    /// configurations explored), used by the fault model to price the
    /// work lost when a node dies mid-evaluation.
    pub mean_eval_hours: f64,
}

/// The complete result of one simulated experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// The accuracy target.
    pub thr_acc: f64,
    /// Baseline arm.
    pub baseline: ArmResult,
    /// Composability arm.
    pub comp: ArmResult,
    /// `baseline.hours / comp.hours`.
    pub speedup: f64,
    /// Pre-training share of the composability arm's time.
    pub overhead_frac: f64,
    /// Number of tuning-block variants pre-trained.
    pub num_blocks: usize,
    /// Pre-training wall hours.
    pub pretrain_hours: f64,
}

/// Runs one experiment.
///
/// # Panics
///
/// Panics on unknown model/dataset names (see the private `profiles` module
/// for the recognized set).
pub fn simulate_pruning(exp: &SimExperiment) -> SimResult {
    let _span = wootz_obs::span("sim.experiment")
        .with("model", exp.model.as_str())
        .with("dataset", exp.dataset.as_str())
        .with("workers", exp.workers)
        .with("alpha_pct", exp.alpha_pct);
    let profile = model_profile(&exp.model);
    let cal = dataset_profile(&exp.dataset).calibration(&exp.model);
    let classes = match exp.dataset.as_str() {
        "flowers102" => 102,
        "cub200" => 200,
        "cars" => 196,
        "dogs" => 120,
        other => panic!("unknown dataset `{other}`"),
    };
    let ir = profile.build_ir(classes);
    let full_params = model_stats(&ir, &Default::default()).total_params;

    let configs: Vec<PruneConfig> = match exp.subspace {
        SubspaceKind::Random => sample_subspace(
            profile.num_modules,
            &PAPER_RATES,
            exp.subspace_size,
            exp.seed,
        ),
        SubspaceKind::Segment => sample_segment_subspace(
            profile.num_modules,
            &PAPER_RATES,
            4,
            exp.subspace_size,
            exp.seed,
        ),
    };
    let sizes: Vec<usize> = configs
        .iter()
        .map(|c| config_param_count(&ir, c).expect("config matches model"))
        .collect();
    let mut sorted = sizes.clone();
    sorted.sort_unstable();
    let median_frac = sorted[sorted.len() / 2] as f64 / full_params as f64;
    let model = AccuracyModel::new(cal, median_frac, profile.max_steps, exp.seed);

    let thr_acc = cal.full - exp.alpha_pct / 100.0;
    let objective = Objective::min_size_with_accuracy(thr_acc);
    let hours = |steps: f64| steps * profile.step_time_s / 3600.0;

    // Baseline arm: default networks, full training budget each.
    let baseline_explore = explore(&objective, &sizes, exp.workers, |i| {
        Ok(EvalOutcome {
            model_size: sizes[i],
            flops: 0,
            accuracy: model.final_default(sizes[i] as f64 / full_params as f64, i as u64),
            cost: hours(model.steps_default() as f64),
            log: None,
        })
    })
    .expect("simulated evaluator is infallible");

    // Composability arm.
    // The hierarchical identifier keeps only blocks that benefit more than
    // one network; modules it leaves uncovered simply inherit full-model
    // weights during assembly (coverage < 1 reduces the per-network boost
    // and saving below).
    let block_set: BlockSet = match exp.strategy {
        BlockStrategy::ModuleLevel => module_level_blocks(&configs),
        BlockStrategy::Hierarchical => identify_tuning_blocks(&configs).expect("identifier"),
    };
    let num_blocks = block_set.blocks.len();

    // Pre-training overhead: groups of non-overlapping blocks train
    // together; a group costs the block pre-training step budget at a step
    // time scaled by how much of the network the group's student blocks
    // cover (the teacher forward pass dominates, student work adds on top).
    let groups = partition_into_groups(&block_set.blocks);
    let pretrain_hours: f64 = groups
        .iter()
        .map(|g| {
            let covered: std::collections::HashSet<usize> = g
                .iter()
                .flat_map(|&bi| block_set.blocks[bi].module_positions())
                .collect();
            let coverage = covered.len() as f64 / profile.num_modules as f64;
            hours(profile.pretrain_steps as f64) * (0.5 + 0.5 * coverage)
        })
        .sum();

    // Per-network assembly statistics: average pre-trained block length
    // and the fraction of pruned modules covered by blocks.
    let assembly: Vec<(f64, f64)> = block_set
        .composites
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            let pruned_modules = configs[ci]
                .rates()
                .iter()
                .filter(|&&r| r != 0)
                .count()
                .max(1);
            if c.parts.is_empty() {
                return (1.0, 0.0);
            }
            let covered: usize = c
                .parts
                .iter()
                .map(|p| {
                    block_set.blocks[p.block_index]
                        .parts
                        .iter()
                        .filter(|(_, r)| *r != 0)
                        .count()
                })
                .sum();
            let avg_len = c
                .parts
                .iter()
                .map(|p| block_set.blocks[p.block_index].parts.len() as f64)
                .sum::<f64>()
                / c.parts.len() as f64;
            (avg_len, (covered as f64 / pruned_modules as f64).min(1.0))
        })
        .collect();
    let comp_explore = explore(&objective, &sizes, exp.workers, |i| {
        let (avg_len, coverage) = assembly[i];
        Ok(EvalOutcome {
            model_size: sizes[i],
            flops: 0,
            accuracy: model.final_block_covered(
                sizes[i] as f64 / full_params as f64,
                i as u64,
                coverage,
            ),
            cost: hours(model.steps_block(avg_len, coverage) as f64),
            log: None,
        })
    })
    .expect("simulated evaluator is infallible");

    let arm = |res: &wootz_core::explore::ExplorationResult, extra: f64| ArmResult {
        configs: res.configs_explored,
        hours: res.wall_cost + extra,
        best_size_pct: res.best.and_then(|i| {
            res.evaluated[i]
                .outcome()
                .map(|o| o.model_size as f64 / full_params as f64 * 100.0)
        }),
        best_accuracy: res
            .best
            .and_then(|i| res.evaluated[i].outcome().map(|o| o.accuracy)),
        mean_eval_hours: res.total_cost / res.configs_explored.max(1) as f64,
    };
    let baseline = arm(&baseline_explore, 0.0);
    let comp = arm(&comp_explore, pretrain_hours);
    let speedup = baseline.hours / comp.hours.max(1e-9);
    let overhead_frac = pretrain_hours / comp.hours.max(1e-9);
    // Simulated-cluster utilization: CPU hours actually spent evaluating
    // divided by the wall-clock capacity `workers * wall_hours` of the run.
    // Gauges keep the last experiment's values; the per-experiment history
    // lives in the `sim.experiment_done` events.
    let utilization = |res: &wootz_core::explore::ExplorationResult| {
        res.total_cost / (exp.workers.max(1) as f64 * res.wall_cost).max(1e-9)
    };
    let baseline_util = utilization(&baseline_explore);
    let comp_util = utilization(&comp_explore);
    wootz_obs::gauge("sim.cluster.workers").set(exp.workers as f64);
    wootz_obs::gauge("sim.cluster.baseline_utilization").set(baseline_util);
    wootz_obs::gauge("sim.cluster.comp_utilization").set(comp_util);
    wootz_obs::gauge("sim.cluster.speedup").set(speedup);
    wootz_obs::event("sim.experiment_done")
        .field("model", exp.model.as_str())
        .field("dataset", exp.dataset.as_str())
        .field("workers", exp.workers)
        .field("baseline_utilization", baseline_util)
        .field("comp_utilization", comp_util)
        .field("speedup", speedup)
        .emit();
    SimResult {
        thr_acc,
        baseline,
        comp,
        speedup,
        overhead_frac,
        num_blocks,
        pretrain_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flowers_alpha0_shows_large_speedup_and_smaller_model() {
        let exp = SimExperiment::table3("resnet50", "flowers102", 0.0, 1, 1);
        let r = simulate_pruning(&exp);
        // Shape targets from Table 3 (flowers102, alpha=0, 1 node):
        // comp explores far fewer configs, large speedup, smaller model.
        assert!(r.comp.configs * 5 < r.baseline.configs, "{r:?}");
        assert!(r.speedup > 10.0, "speedup {}", r.speedup);
        let (b, c) = (
            r.baseline.best_size_pct.unwrap(),
            r.comp.best_size_pct.unwrap(),
        );
        assert!(c <= b, "comp size {c}% vs baseline {b}%");
    }

    #[test]
    fn negative_alpha_explores_everything() {
        let exp = SimExperiment::table3("resnet50", "flowers102", -1.0, 1, 1);
        let r = simulate_pruning(&exp);
        // thr above full accuracy: baseline explores all 500; comp may
        // stop earlier only if boosted nets beat full+1% (they should not
        // by much). Baseline must exhaust the space.
        assert_eq!(r.baseline.configs, 500);
        // Comp is still faster per config (fewer steps), so speedup > 1.
        assert!(r.speedup > 1.0, "{}", r.speedup);
    }

    #[test]
    fn more_workers_round_up_configs_and_cut_wall_time() {
        // Negative alpha forces full exploration, making the wall-clock
        // scaling with worker count unambiguous.
        let mk = |w| simulate_pruning(&SimExperiment::table3("inception_v3", "cars", -1.0, w, 3));
        let r1 = mk(1);
        let r4 = mk(4);
        let r16 = mk(16);
        assert!(r4.baseline.configs >= r1.baseline.configs);
        assert!(r16.baseline.hours < r4.baseline.hours);
        assert!(r4.baseline.hours < r1.baseline.hours);
    }

    #[test]
    fn module_level_block_counts_match_paper() {
        let r = simulate_pruning(&SimExperiment::table3("resnet50", "cub200", 4.0, 1, 1));
        assert_eq!(r.num_blocks, 48); // 16 modules x 3 rates
        let r = simulate_pruning(&SimExperiment::table3("inception_v3", "cub200", 4.0, 1, 1));
        assert_eq!(r.num_blocks, 33); // 11 modules x 3 rates
    }

    #[test]
    fn overhead_share_shrinks_with_more_exploration() {
        // Hard target (low alpha on a hard dataset) -> long exploration ->
        // small overhead share; easy target -> short -> large share.
        let hard = simulate_pruning(&SimExperiment::table3("resnet50", "dogs", 6.0, 1, 5));
        let easy = simulate_pruning(&SimExperiment::table3("resnet50", "cub200", 6.0, 1, 5));
        assert!(easy.comp.configs < hard.comp.configs);
        assert!(
            easy.overhead_frac > hard.overhead_frac,
            "{easy:?} vs {hard:?}"
        );
    }

    #[test]
    fn hierarchical_identifier_is_at_least_as_fast_on_segment_collections() {
        let base = SimExperiment {
            model: "resnet50".into(),
            dataset: "cub200".into(),
            alpha_pct: 4.0,
            workers: 1,
            subspace_size: 8,
            strategy: BlockStrategy::ModuleLevel,
            subspace: SubspaceKind::Segment,
            seed: 9,
        };
        let module = simulate_pruning(&base);
        let hier = simulate_pruning(&SimExperiment {
            strategy: BlockStrategy::Hierarchical,
            ..base
        });
        let extra = module.comp.hours / hier.comp.hours;
        assert!(extra >= 0.95, "extra speedup {extra}");
    }

    #[test]
    fn deterministic_given_seed() {
        let exp = SimExperiment::table3("resnet50", "cars", 0.0, 4, 77);
        assert_eq!(simulate_pruning(&exp), simulate_pruning(&exp));
    }
}
