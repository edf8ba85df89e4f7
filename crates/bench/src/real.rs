//! Real (CPU) micro-scale training experiments: Table 1 (full-model
//! accuracies), Table 2 (the composability-hypothesis validation) and
//! Figure 6 (accuracy curves). These runs exercise the complete Wootz
//! machinery — multiplexing model, Teacher–Student pre-training, assembly,
//! global fine-tuning — on the mini model family and synthetic datasets,
//! providing the empirical grounding for the calibrated simulator.

use serde::{Deserialize, Serialize};
use wootz_core::blocks::module_level_blocks;
use wootz_core::compile::MultiplexingModel;
use wootz_core::finetune::{assemble, global_finetune, InitStrategy};
use wootz_core::pipeline::train_full_model;
use wootz_core::pretrain::{pretrain_blocks, PretrainConfig};
use wootz_core::prune::{sample_subspace, PruneConfig, PAPER_RATES};
use wootz_data::{micro_dataset, Dataset};
use wootz_ir::{ModelIr, SolverConfig};
use wootz_nn::{Checkpoint, EvalSet, TrainConfig, TrainLog};
use wootz_tensor::sgd::SgdConfig;

use crate::report::{self, median};

/// Budget knobs for the micro experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroOpts {
    /// Steps to train each full model.
    pub full_steps: usize,
    /// Steps per tuning-block pre-training group.
    pub pretrain_steps: usize,
    /// Steps per network fine-tuning.
    pub finetune_steps: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Maximum evaluation examples.
    pub eval_cap: usize,
    /// Networks sampled per (model, dataset) cell in Table 2.
    pub configs_per_cell: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MicroOpts {
    /// The default budget (~minutes on a laptop CPU). The full model must
    /// train to a reasonable accuracy — the composability effect is about
    /// reusing a *trained* teacher's knowledge, so an untrained teacher
    /// yields no `init+` boost.
    pub fn standard() -> Self {
        MicroOpts {
            full_steps: 420,
            pretrain_steps: 120,
            finetune_steps: 240,
            batch: 8,
            eval_cap: 160,
            configs_per_cell: 5,
            seed: 7,
        }
    }

    /// A cut-down budget for smoke tests and Criterion benches. Keeps
    /// enough full-model steps for a usable teacher.
    pub fn quick() -> Self {
        MicroOpts {
            full_steps: 320,
            pretrain_steps: 100,
            finetune_steps: 40,
            batch: 8,
            eval_cap: 64,
            configs_per_cell: 3,
            seed: 7,
        }
    }

    pub(crate) fn solver(&self, dataset: &str) -> SolverConfig {
        SolverConfig {
            dataset: dataset.into(),
            base_lr: 0.02,
            max_iter: self.full_steps,
            weight_decay: 1e-5,
            momentum: 0.9,
            batch_size: self.batch,
            pretrain_lr: 0.015,
            pretrain_iter: self.pretrain_steps,
            pretrain_weight_decay: 1e-4,
            lr_policy: "fixed".into(),
            lr_step: 0,
            lr_gamma: 0.1,
            eval_every: (self.finetune_steps / 8).max(1),
            num_workers: 1,
            seed: self.seed,
        }
    }
}

/// The mini model family standing in for the paper's four CNNs, with the
/// paper model each one represents.
pub fn mini_models(classes: usize) -> Vec<(&'static str, ModelIr)> {
    vec![
        ("ResNet-50", wootz_models::resnet_mini(classes)),
        ("ResNet-101", wootz_models::resnet_mini_deep(classes)),
        ("Inception-V2", wootz_models::inception_mini(classes)),
        ("Inception-V3", wootz_models::inception_mini_deep(classes)),
    ]
}

/// One Table 1 row: synthetic dataset statistics plus the measured
/// full-model accuracy per mini model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Dataset name.
    pub dataset: String,
    /// Train / test sizes and class count of the synthetic analogue.
    pub train: usize,
    /// Test size.
    pub test: usize,
    /// Class count.
    pub classes: usize,
    /// `(model, accuracy)` per mini model.
    pub accuracies: Vec<(String, f64)>,
}

/// Trains every mini model on every dataset and reports full-model
/// accuracies (the Table 1 reproduction).
pub fn table1(opts: &MicroOpts) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for name in ["imagenet", "flowers102", "cub200", "cars", "dogs"] {
        let ds = micro_dataset(name, opts.seed);
        let spec = ds.spec().clone();
        let mut accuracies = Vec::new();
        for (model_name, ir) in mini_models(spec.classes) {
            let mm = MultiplexingModel::compile(ir).expect("mini models compile");
            let (_, acc, _) =
                train_full_model(&mm, &ds, &opts.solver(name)).expect("training runs");
            accuracies.push((model_name.to_string(), acc));
        }
        rows.push(Table1Row {
            dataset: name.to_string(),
            train: spec.train_size,
            test: spec.test_size,
            classes: spec.classes,
            accuracies,
        });
    }
    rows
}

/// Renders Table 1 next to the paper's dataset statistics.
pub fn table1_report(opts: &MicroOpts) -> String {
    let rows = table1(opts);
    let paper = wootz_data::paper_table1_rows();
    let mut out = String::from(
        "Table 1: dataset statistics and full-model accuracies.\n\
         (synthetic micro analogues trained for real on the mini model family;\n\
         paper columns show the published statistics and accuracies)\n\n",
    );
    let body: Vec<Vec<String>> = rows
        .iter()
        .zip(paper.iter())
        .map(|(r, p)| {
            let accs: Vec<String> = r.accuracies.iter().map(|(_, a)| report::f(*a, 3)).collect();
            vec![
                r.dataset.clone(),
                format!("{}/{}", r.train, r.test),
                r.classes.to_string(),
                accs.join(" / "),
                format!("{}/{}", p.train, p.test),
                p.classes.to_string(),
                format!(
                    "{:.3} / {:.3} / {:.3} / {:.3}",
                    p.full_accuracy.0, p.full_accuracy.1, p.full_accuracy.2, p.full_accuracy.3
                ),
            ]
        })
        .collect();
    out.push_str(&report::render_table(
        &[
            "dataset",
            "train/test",
            "cls",
            "acc (RN50/RN101/IncV2/IncV3 minis)",
            "paper train/test",
            "cls",
            "paper acc",
        ],
        &body,
    ));
    out
}

/// A prepared (model, dataset) cell: compiled model, trained full network.
pub struct PreparedCell {
    /// The compiled multiplexing model.
    pub mm: MultiplexingModel,
    /// The dataset.
    pub ds: Dataset,
    /// The trained full model's checkpoint (scope `net/`).
    pub full: Checkpoint,
    /// Its accuracy.
    pub full_accuracy: f64,
    solver: SolverConfig,
}

/// Trains the full model for one cell.
pub fn prepare_cell(ir: ModelIr, dataset: &str, opts: &MicroOpts) -> PreparedCell {
    let ds = micro_dataset(dataset, opts.seed);
    let mm = MultiplexingModel::compile(ir).expect("mini models compile");
    let solver = opts.solver(dataset);
    let (full, full_accuracy, _) = train_full_model(&mm, &ds, &solver).expect("training runs");
    PreparedCell {
        mm,
        ds,
        full,
        full_accuracy,
        solver,
    }
}

/// Pre-trains the module-level tuning blocks for a set of configurations
/// in a cell; returns `(block set, checkpoints)`.
pub fn pretrain_cell(
    cell: &PreparedCell,
    configs: &[PruneConfig],
    opts: &MicroOpts,
) -> (
    wootz_core::blocks::BlockSet,
    wootz_core::pretrain::PretrainOutcome,
) {
    let set = module_level_blocks(configs);
    let cfg = PretrainConfig {
        steps: opts.pretrain_steps,
        sgd: SgdConfig {
            learning_rate: cell.solver.pretrain_lr,
            weight_decay: cell.solver.pretrain_weight_decay,
            momentum: cell.solver.momentum,
        },
        seed: opts.seed ^ 0xb10c,
    };
    let batch = opts.batch;
    let ds = &cell.ds;
    let outcome = pretrain_blocks(&cell.mm, &set.blocks, &cell.full, &cfg, |step| {
        ds.train_batch(step, batch).0
    })
    .expect("pre-training runs");
    (set, outcome)
}

/// Fine-tunes one configuration in a cell under either scheme, returning
/// the training log (with initial and final accuracies).
pub fn finetune_config(
    cell: &PreparedCell,
    config: &PruneConfig,
    blocks: Option<(
        &wootz_core::blocks::BlockSet,
        &wootz_core::pretrain::PretrainOutcome,
        usize,
    )>,
    opts: &MicroOpts,
) -> TrainLog {
    let pairs_storage;
    let strategy = match blocks {
        Some((set, outcome, config_index)) => {
            pairs_storage = set.composites[config_index]
                .parts
                .iter()
                .map(|p| {
                    let block = &set.blocks[p.block_index];
                    (block, &outcome.checkpoints[&block.key()])
                })
                .collect::<Vec<_>>();
            InitStrategy::BlockTrained(&pairs_storage)
        }
        None => InitStrategy::Default,
    };
    let mut built =
        assemble(&cell.mm, config, &cell.full, strategy, opts.seed ^ 0xf1).expect("assembly");
    let cfg = TrainConfig {
        max_steps: opts.finetune_steps,
        sgd: SgdConfig {
            learning_rate: cell.solver.base_lr,
            weight_decay: cell.solver.weight_decay,
            momentum: cell.solver.momentum,
        },
        schedule: wootz_nn::LrSchedule::Fixed,
        eval_every: cell.solver.eval_every,
    };
    let (eval_x, eval_y) = cell.ds.test_set(opts.eval_cap);
    let ds = &cell.ds;
    let batch = opts.batch;
    global_finetune(
        &mut built,
        &cfg,
        |step| ds.train_batch(step, batch),
        Some(EvalSet::new(&eval_x, &eval_y)),
    )
    .expect("fine-tuning runs")
}

/// One Table 2 cell: median initial/final accuracies of default and
/// block-trained networks for one (model, dataset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Cell {
    /// Paper model name the mini stands for.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Trained full-model accuracy.
    pub full_accuracy: f64,
    /// Median initial accuracy, default networks (`init`).
    pub init: f64,
    /// Median initial accuracy, block-trained (`init+`).
    pub init_plus: f64,
    /// Median final accuracy, default networks (`final`).
    pub final_acc: f64,
    /// Median final accuracy, block-trained (`final+`).
    pub final_plus: f64,
}

/// Runs the composability-hypothesis experiment for one cell.
pub fn table2_cell(model_name: &str, ir: ModelIr, dataset: &str, opts: &MicroOpts) -> Table2Cell {
    let n_modules = ir.conv_module_ids().len();
    let cell = prepare_cell(ir, dataset, opts);
    let configs = sample_subspace(
        n_modules,
        &PAPER_RATES,
        opts.configs_per_cell,
        opts.seed ^ 0xc0,
    );
    let (set, outcome) = pretrain_cell(&cell, &configs, opts);
    let mut init = Vec::new();
    let mut init_plus = Vec::new();
    let mut final_acc = Vec::new();
    let mut final_plus = Vec::new();
    for (ci, config) in configs.iter().enumerate() {
        let d = finetune_config(&cell, config, None, opts);
        let b = finetune_config(&cell, config, Some((&set, &outcome, ci)), opts);
        init.push(d.initial_accuracy.unwrap_or(0.0) as f64);
        final_acc.push(d.final_accuracy.unwrap_or(0.0) as f64);
        init_plus.push(b.initial_accuracy.unwrap_or(0.0) as f64);
        final_plus.push(b.final_accuracy.unwrap_or(0.0) as f64);
    }
    Table2Cell {
        model: model_name.to_string(),
        dataset: dataset.to_string(),
        full_accuracy: cell.full_accuracy,
        init: median(init).expect("Table 2 cells evaluate at least one configuration"),
        init_plus: median(init_plus).expect("Table 2 cells evaluate at least one configuration"),
        final_acc: median(final_acc).expect("Table 2 cells evaluate at least one configuration"),
        final_plus: median(final_plus).expect("Table 2 cells evaluate at least one configuration"),
    }
}

/// Runs Table 2 over all four mini models and four datasets.
pub fn table2(opts: &MicroOpts) -> Vec<Table2Cell> {
    let mut cells = Vec::new();
    for dataset in ["flowers102", "cub200", "cars", "dogs"] {
        let classes = micro_dataset(dataset, opts.seed).spec().classes;
        for (model_name, ir) in mini_models(classes) {
            cells.push(table2_cell(model_name, ir, dataset, opts));
        }
    }
    cells
}

/// Renders Table 2 next to the paper's medians.
pub fn table2_report(opts: &MicroOpts) -> String {
    let cells = table2(opts);
    let mut out = String::from(
        "Table 2: median init/final accuracies of default (init/final) and\n\
         block-trained (init+/final+) networks — REAL micro-scale training.\n\
         Expected shape: init+ >> init, final+ >= final (the composability\n\
         hypothesis). Paper columns show the published medians.\n\n",
    );
    let paper_model_key = |m: &str| match m {
        "ResNet-50" => "resnet50",
        "ResNet-101" => "resnet101",
        "Inception-V2" => "inception_v2",
        _ => "inception_v3",
    };
    let body: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let cal = wootz_sim::dataset_profile(&c.dataset).calibration(paper_model_key(&c.model));
            vec![
                c.model.clone(),
                c.dataset.clone(),
                report::f(c.full_accuracy, 3),
                report::f(c.init, 3),
                report::f(c.init_plus, 3),
                report::f(c.final_acc, 3),
                report::f(c.final_plus, 3),
                format!(
                    "{:.3}/{:.3}/{:.3}/{:.3}",
                    cal.init_default, cal.init_block, cal.final_default, cal.final_block
                ),
            ]
        })
        .collect();
    out.push_str(&report::render_table(
        &[
            "model",
            "dataset",
            "full",
            "init",
            "init+",
            "final",
            "final+",
            "paper i/i+/f/f+",
        ],
        &body,
    ));
    out
}

/// Serializes a real-training artifact's typed rows as JSON.
///
/// # Panics
///
/// Panics on unknown artifact names.
pub fn artifact_json(name: &str, opts: &MicroOpts) -> String {
    match name {
        "table1" => serde_json::to_string_pretty(&table1(opts)).expect("serializable"),
        "table2" => serde_json::to_string_pretty(&table2(opts)).expect("serializable"),
        "fig6" => serde_json::to_string_pretty(&fig6(opts)).expect("serializable"),
        other => panic!("artifact `{other}` has no JSON form"),
    }
}

/// Runs the complete Wootz pipeline end-to-end at micro scale — ResNet-mini
/// on the Flowers102 micro dataset — with optional journaling, resume and
/// deterministic fault injection. This is the harness behind `reproduce
/// pipeline`, the driver-level proof that a killed reproduction run can be
/// resumed without redoing finished work.
///
/// # Errors
///
/// Propagates pipeline errors (including exhausted-retry aborts when a
/// fault plan with an aborting policy is active).
pub fn pipeline_report(
    opts: &MicroOpts,
    journal: Option<std::path::PathBuf>,
    resume: bool,
    faults: Option<&wootz_fault::FaultPlan>,
) -> Result<String, Box<dyn std::error::Error>> {
    use wootz_core::pipeline::{run_wootz_with, RunMode, RunOptions, WootzInputs};
    use wootz_fault::RetryPolicy;
    use wootz_ir::Objective;

    let classes = 8;
    let dataset_name = "flowers102";
    let ir = wootz_models::resnet_mini(classes);
    let modules = ir.conv_module_ids().len();
    let subspace = sample_subspace(modules, &PAPER_RATES, opts.configs_per_cell.max(3), opts.seed);
    let solver = opts.solver(dataset_name);
    let dataset = micro_dataset(dataset_name, solver.seed);
    let inputs = WootzInputs {
        model: ir,
        subspace,
        solver,
        objective: Objective::min_size_with_accuracy(0.1),
    };
    let retry = if faults.is_some() {
        RetryPolicy::skip_after(3)
    } else {
        RetryPolicy::abort_fast()
    };
    let run_opts = RunOptions {
        faults,
        retry,
        journal,
        resume,
        ..RunOptions::default()
    };
    let run = run_wootz_with(&inputs, &dataset, RunMode::Composability, None, &run_opts)?;
    let mut out = format!(
        "End-to-end pipeline: ResNet-mini on {dataset_name} ({} configurations).\n\n\
         full-model accuracy: {:.3}\n\
         explored: {} configurations ({} fresh, {} resumed from journal, {} failed)\n\
         pre-trained blocks: {} ({} failed)\n\
         steps: {} pre-train, {} fine-tune\n",
        inputs.subspace.len(),
        run.full_accuracy,
        run.exploration.configs_explored,
        run.exploration.fresh_evals(),
        run.exploration.resumed,
        run.exploration.failed,
        run.blocks_pretrained,
        run.blocks_failed.unwrap_or(0),
        run.pretrain_steps,
        run.finetune_steps,
    );
    match &run.best {
        Some(best) => out.push_str(&format!(
            "best network: rates {:?} -> {} params @ accuracy {:.3}\n",
            best.rates, best.model_size, best.accuracy
        )),
        None => out.push_str("no configuration met the objective\n"),
    }
    // Artifact damage survived (torn tails truncated, journals
    // quarantined) is part of the run's story — surface it.
    if let Some(summary) = wootz_core::recovery::degradation_summary() {
        eprintln!("{summary}");
    }
    Ok(out)
}

/// One Figure 6 panel: accuracy curves of one pruned network trained
/// default vs block-trained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Curve {
    /// Paper model name the mini stands for.
    pub model: String,
    /// Default-network training log.
    pub default_log: TrainLog,
    /// Block-trained training log.
    pub block_log: TrainLog,
}

/// Reproduces Figure 6: the all-modules-at-70% network on CUB200, trained
/// default vs block-trained, for the ResNet and Inception representatives.
pub fn fig6(opts: &MicroOpts) -> Vec<Fig6Curve> {
    let classes = micro_dataset("cub200", opts.seed).spec().classes;
    let minis = vec![
        ("ResNet-50", wootz_models::resnet_mini(classes)),
        ("Inception-V3", wootz_models::inception_mini_deep(classes)),
    ];
    let mut curves = Vec::new();
    for (model_name, ir) in minis {
        let n_modules = ir.conv_module_ids().len();
        let cell = prepare_cell(ir, "cub200", opts);
        let config = PruneConfig::uniform(n_modules, 70).expect("valid rate");
        let configs = vec![config.clone()];
        let (set, outcome) = pretrain_cell(&cell, &configs, opts);
        let default_log = finetune_config(&cell, &config, None, opts);
        let block_log = finetune_config(&cell, &config, Some((&set, &outcome, 0)), opts);
        curves.push(Fig6Curve {
            model: model_name.to_string(),
            default_log,
            block_log,
        });
    }
    curves
}

/// Renders Figure 6 as step-by-step accuracy tables.
pub fn fig6_report(opts: &MicroOpts) -> String {
    let curves = fig6(opts);
    let mut out = String::from(
        "Figure 6: accuracy curves of the 70%-pruned network on CUB200,\n\
         default vs block-trained (REAL micro training). Paper shape:\n\
         init ~0 vs init+ 0.4-0.55; block-trained converges sooner and higher.\n",
    );
    for curve in &curves {
        out.push_str(&format!("\n[{} mini]\n", curve.model));
        let steps: Vec<usize> = curve.default_log.records.iter().map(|r| r.step).collect();
        let body: Vec<Vec<String>> = steps
            .iter()
            .map(|&s| {
                let acc = |log: &TrainLog| {
                    log.records
                        .iter()
                        .find(|r| r.step == s)
                        .and_then(|r| r.accuracy)
                        .map(|a| report::f(a as f64, 3))
                        .unwrap_or_default()
                };
                vec![
                    s.to_string(),
                    acc(&curve.default_log),
                    acc(&curve.block_log),
                ]
            })
            .collect();
        out.push_str(&report::render_table(
            &["step", "default", "block-trained"],
            &body,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cell_validates_composability_hypothesis() {
        let opts = MicroOpts::quick();
        let classes = micro_dataset("flowers102", opts.seed).spec().classes;
        let cell = table2_cell(
            "ResNet-50",
            wootz_models::resnet_mini(classes),
            "flowers102",
            &opts,
        );
        // The block-trained networks must start above the default ones —
        // the composability hypothesis. (At micro scale the default
        // networks retain more accuracy than the paper's near-zero inits,
        // so the margin is smaller; the ordering is the claim.)
        assert!(
            cell.init_plus > cell.init + 0.02,
            "init+ {} should beat init {}",
            cell.init_plus,
            cell.init
        );
    }

    #[test]
    fn fig6_quick_runs_and_block_starts_higher() {
        let mut opts = MicroOpts::quick();
        opts.finetune_steps = 24;
        let curves = fig6(&opts);
        assert_eq!(curves.len(), 2);
        for c in &curves {
            let d0 = c.default_log.initial_accuracy.unwrap();
            let b0 = c.block_log.initial_accuracy.unwrap();
            assert!(b0 > d0, "{}: block init {b0} vs default {d0}", c.model);
        }
    }
}
