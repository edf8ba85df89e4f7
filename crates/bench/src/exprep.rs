//! `reproduce explorers`: evaluations-to-target per exploration
//! strategy, cold vs warm block cache — the artifact behind
//! `results/BENCH_explorers.json`.
//!
//! The measurement runs the same pruning problem once per strategy
//! (`fixed`, `taylor`, `bandit` — DESIGN.md §14), twice each:
//!
//! 1. **Cold** — against a fresh per-strategy `wootz-store`; every
//!    tuning block the strategy touches is pre-trained and published.
//! 2. **Warm** — the identical run against the now-seeded store. The
//!    deterministic trajectory re-proposes the same universe, so every
//!    block must come back as a cache hit and the run must charge zero
//!    pre-training steps.
//!
//! The headline column is **evals-to-target**: how many network
//! evaluations the strategy spent before the first configuration
//! satisfying the objective appeared. The fixed loop walks the seed
//! subspace in objective order (smallest model first under a
//! `min ModelSize` objective), so it burns evaluations on models too
//! small to clear the accuracy bound; an adaptive strategy that reads
//! the trained weights (taylor) or steers by observed rewards (bandit)
//! should reach a satisfying network in fewer evaluations.
//!
//! The gate fails (non-zero exit from `reproduce explorers`) when any
//! strategy misses the target within its budget, when a warm run
//! pre-trains anything, when a warm run's outcome is not bit-identical
//! to its cold run, or when no adaptive strategy beats `fixed` on
//! evals-to-target. `--budget 0` therefore fails naturally: with zero
//! adaptive rounds allowed, the adaptive strategies evaluate nothing
//! and never reach the target.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use wootz_core::compile::MultiplexingModel;
use wootz_core::explorer::ExplorerKind;
use wootz_core::pipeline::{
    run_wootz_with, train_full_model, RunMode, RunOptions, WootzInputs, WootzRun,
};
use wootz_core::prune::{sample_subspace, PAPER_RATES};
use wootz_data::micro_dataset;
use wootz_nn::Checkpoint;
use wootz_fault::RetryPolicy;
use wootz_ir::Objective;
use wootz_store::BlockStore;

use crate::real::MicroOpts;
use crate::report;

/// Default adaptive evaluation budget for the bench (`--budget`).
pub const DEFAULT_BUDGET: usize = 24;

/// One strategy's cold/warm measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplorerRow {
    /// Strategy name (`fixed`, `taylor`, `bandit`).
    pub strategy: String,
    /// Whether some evaluated configuration satisfied the objective.
    pub reached: bool,
    /// Evaluations spent up to and including the first satisfying
    /// configuration (`None` when the target was never reached).
    pub evals_to_target: Option<usize>,
    /// Total configurations the strategy evaluated.
    pub configs_explored: usize,
    /// Pre-training SGD steps of the cold run.
    pub cold_pretrain_steps: usize,
    /// Pre-training SGD steps of the warm run (must be 0).
    pub warm_pretrain_steps: usize,
    /// Wall time of the cold run.
    pub cold_wall_ms: f64,
    /// Wall time of the warm run.
    pub warm_wall_ms: f64,
    /// Whether the warm run's best network, full accuracy and
    /// evaluation trace equal the cold run's bit-for-bit.
    pub bit_identical: bool,
}

/// The full `BENCH_explorers.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplorersArtifact {
    /// Model identifier.
    pub model: String,
    /// Dataset identifier.
    pub dataset: String,
    /// Seed-subspace size (the fixed strategy's whole universe; the
    /// adaptive strategies' rate grid comes from it).
    pub subspace: usize,
    /// Adaptive evaluation budget.
    pub budget: usize,
    /// The objective's accuracy bound.
    pub accuracy_bound: f64,
    /// One row per strategy, `fixed` first.
    pub rows: Vec<ExplorerRow>,
}

impl ExplorersArtifact {
    /// The fixed strategy's evals-to-target, when it reached the target.
    pub fn fixed_evals(&self) -> Option<usize> {
        self.rows
            .iter()
            .find(|r| r.strategy == "fixed")
            .and_then(|r| r.evals_to_target)
    }

    /// The best (fewest) adaptive evals-to-target across strategies.
    pub fn best_adaptive_evals(&self) -> Option<usize> {
        self.rows
            .iter()
            .filter(|r| r.strategy != "fixed")
            .filter_map(|r| r.evals_to_target)
            .min()
    }

    /// Whether the explorer contract held: every strategy reached the
    /// target, warm runs pre-trained nothing and were bit-identical,
    /// and at least one adaptive strategy beat `fixed`.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.reached)
            && self.rows.iter().all(|r| r.warm_pretrain_steps == 0)
            && self.rows.iter().all(|r| r.bit_identical)
            && match (self.fixed_evals(), self.best_adaptive_evals()) {
                (Some(fixed), Some(adaptive)) => adaptive < fixed,
                _ => false,
            }
    }
}

/// Evaluations spent up to and including the first satisfying record.
fn evals_to_target(run: &WootzRun) -> Option<usize> {
    run.exploration
        .evaluated
        .iter()
        .position(|r| r.satisfies())
        .map(|p| p + 1)
}

/// A digest of everything determinism covers: the chosen network, the
/// full-model accuracy, and the per-evaluation trace (index, verdict,
/// measured outcome). `TrainLog` losses stay out because the first
/// record's loss is NaN and `NaN != NaN`.
fn run_digest(run: &WootzRun) -> (Option<(usize, Vec<u8>, usize, f64)>, f64, Vec<String>) {
    let best = run
        .best
        .as_ref()
        .map(|b| (b.config_index, b.rates.clone(), b.model_size, b.accuracy));
    let trace = run
        .exploration
        .evaluated
        .iter()
        .map(|r| match r.outcome() {
            Some(o) => format!(
                "{}:{}:{}:{}:{}",
                r.config_index(),
                r.satisfies(),
                o.model_size,
                o.flops,
                o.accuracy
            ),
            None => format!("{}:failed", r.config_index()),
        })
        .collect();
    (best, run.full_accuracy, trace)
}

fn run_once(
    inputs: &WootzInputs,
    full: &(Checkpoint, f64),
    store: &BlockStore,
    explorer: ExplorerKind,
    budget: usize,
) -> Result<(WootzRun, f64), String> {
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let opts = RunOptions {
        retry: RetryPolicy::abort_fast(),
        store: Some(store),
        explorer,
        explorer_budget: budget,
        ..RunOptions::default()
    };
    let started = Instant::now();
    let run = run_wootz_with(
        inputs,
        &dataset,
        RunMode::Composability,
        Some(full.clone()),
        &opts,
    )
    .map_err(|e| e.to_string())?;
    Ok((run, started.elapsed().as_secs_f64() * 1e3))
}

/// The measurement's training scale. Unlike the table benches this is
/// NOT derived from `--quick`: the strategy separation depends on a
/// pinned operating point — a *good but imperfect* teacher, and a
/// fine-tune short enough that a badly-initialized prune cannot train
/// its way past the accuracy bound. Scaling either with the global
/// quick/standard knob moves every accuracy and flips the gate.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Teacher (full-model) training steps.
    pub teacher_steps: usize,
    /// Pre-training steps per tuning-block group.
    pub pretrain_steps: usize,
    /// Fine-tune steps per evaluated network.
    pub finetune_steps: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// RNG seed (dataset, teacher init, eval streams, bandit policy).
    pub seed: u64,
}

impl Scenario {
    /// The pinned operating point `reproduce explorers` measures.
    pub fn standard(seed: u64) -> Self {
        Scenario {
            teacher_steps: 320,
            pretrain_steps: 100,
            finetune_steps: 10,
            batch: 8,
            seed,
        }
    }
}

/// Runs the cold/warm pair for every strategy. See the module docs.
///
/// # Errors
///
/// Returns the pipeline's error text when any run fails outright.
pub fn explorers(sc: &Scenario, budget: usize) -> Result<ExplorersArtifact, String> {
    let classes = 8;
    let dataset_name = "flowers102";
    let ir = wootz_models::resnet_mini(classes);
    let modules = ir.conv_module_ids().len();
    let subspace = sample_subspace(modules, &PAPER_RATES, 12, sc.seed);

    // The teacher trains on the full step budget; the runs themselves
    // fine-tune only briefly. With a short fine-tune, an evaluated
    // network's accuracy is dominated by its initialization quality —
    // aggressive prunes score low, gentle prunes score high — which is
    // what separates the strategies: the fixed loop walks ascending
    // model size (most aggressive first) under a `min ModelSize`
    // objective, while an adaptive strategy can lead with candidates
    // likely to clear the accuracy bound.
    let micro = MicroOpts {
        full_steps: sc.teacher_steps,
        pretrain_steps: sc.pretrain_steps,
        finetune_steps: sc.finetune_steps,
        batch: sc.batch,
        eval_cap: 128,
        configs_per_cell: 3,
        seed: sc.seed,
    };
    let teacher_solver = micro.solver(dataset_name);
    let mut solver = micro.solver(dataset_name);
    solver.num_workers = 2;
    solver.max_iter = sc.finetune_steps;
    solver.eval_every = solver.max_iter;
    let accuracy_bound = 0.75;
    let objective = Objective::min_size_with_accuracy(accuracy_bound);
    let inputs = WootzInputs {
        model: ir.clone(),
        subspace: subspace.clone(),
        solver,
        objective,
    };
    let dataset = micro_dataset(dataset_name, inputs.solver.seed);
    let mm = MultiplexingModel::compile(ir).map_err(|e| e.to_string())?;
    let (full_ckpt, full_accuracy, _) =
        train_full_model(&mm, &dataset, &teacher_solver).map_err(|e| e.to_string())?;
    let full = (full_ckpt, full_accuracy);

    // Seed *and* budget name the scratch store: concurrent calls in one
    // process (the unit tests) must not share or delete each other's.
    let base = std::env::temp_dir().join(format!(
        "wootz-explorers-bench-{}-{}-{budget}",
        std::process::id(),
        sc.seed
    ));
    std::fs::remove_dir_all(&base).ok();

    let mut rows = Vec::new();
    for kind in [ExplorerKind::Fixed, ExplorerKind::Taylor, ExplorerKind::Bandit] {
        let strategy_budget = if kind.is_adaptive() { budget } else { 0 };
        let store_dir = base.join(kind.as_str());
        let store = BlockStore::open(&store_dir, None).map_err(|e| e.to_string())?;
        let (cold, cold_wall_ms) = run_once(&inputs, &full, &store, kind, strategy_budget)?;
        let (warm, warm_wall_ms) = run_once(&inputs, &full, &store, kind, strategy_budget)?;
        rows.push(ExplorerRow {
            strategy: kind.as_str().to_string(),
            reached: evals_to_target(&warm).is_some(),
            evals_to_target: evals_to_target(&warm),
            configs_explored: warm.exploration.configs_explored,
            cold_pretrain_steps: cold.pretrain_steps,
            warm_pretrain_steps: warm.pretrain_steps,
            cold_wall_ms,
            warm_wall_ms,
            bit_identical: run_digest(&warm) == run_digest(&cold),
        });
    }
    std::fs::remove_dir_all(&base).ok();

    Ok(ExplorersArtifact {
        model: "resnet_mini".to_string(),
        dataset: dataset_name.to_string(),
        subspace: subspace.len(),
        budget,
        accuracy_bound,
        rows,
    })
}

/// Renders the comparison table plus the verdict line. The `bool` is
/// the gate: `false` fails `reproduce explorers`.
pub fn explorers_report(art: &ExplorersArtifact) -> (String, bool) {
    let mut out = String::new();
    out.push_str("exploration strategies: evaluations to target, cold vs warm block cache\n");
    out.push_str(&format!(
        "model {} on {}; {}-config seed subspace, adaptive budget {}, accuracy bound {}\n\n",
        art.model, art.dataset, art.subspace, art.budget, art.accuracy_bound
    ));
    let body: Vec<Vec<String>> = art
        .rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.evals_to_target
                    .map_or("-".to_string(), |e| e.to_string()),
                r.configs_explored.to_string(),
                r.cold_pretrain_steps.to_string(),
                r.warm_pretrain_steps.to_string(),
                format!("{:.0}", r.cold_wall_ms),
                format!("{:.0}", r.warm_wall_ms),
                if r.bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&report::render_table(
        &[
            "strategy",
            "evals to target",
            "evals total",
            "cold pretrain",
            "warm pretrain",
            "cold ms",
            "warm ms",
            "warm == cold",
        ],
        &body,
    ));
    let ok = art.ok();
    out.push('\n');
    match (art.fixed_evals(), art.best_adaptive_evals()) {
        (Some(fixed), Some(adaptive)) => out.push_str(&format!(
            "best adaptive strategy reached the target in {adaptive} evaluations vs {fixed} for fixed\n"
        )),
        _ => out.push_str("some strategy never reached the target\n"),
    }
    out.push_str(if ok {
        "explorer contract: PASS — all strategies reached the target, warm runs \
         pre-trained nothing and were bit-identical, and an adaptive strategy beat fixed\n"
    } else {
        "explorer contract: FAIL\n"
    });
    (out, ok)
}

/// Serializes the artifact as pretty JSON (`BENCH_explorers.json`).
pub fn artifact_json(art: &ExplorersArtifact) -> String {
    serde_json::to_string_pretty(art).expect("serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            teacher_steps: 60,
            pretrain_steps: 4,
            finetune_steps: 4,
            batch: 2,
            seed: 11,
        }
    }

    #[test]
    fn zero_budget_fails_the_gate() {
        let art = explorers(&tiny(), 0).expect("bench runs");
        let (text, ok) = explorers_report(&art);
        assert!(!ok, "zero adaptive budget cannot reach the target:\n{text}");
        for row in art.rows.iter().filter(|r| r.strategy != "fixed") {
            assert_eq!(row.configs_explored, 0, "{row:?}");
            assert!(!row.reached, "{row:?}");
        }
        let json = artifact_json(&art);
        let back: ExplorersArtifact = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, art);
    }

    #[test]
    fn warm_runs_are_bit_identical_and_pretrain_nothing() {
        let art = explorers(&tiny(), 12).expect("bench runs");
        let (text, _) = explorers_report(&art);
        for row in &art.rows {
            assert_eq!(row.warm_pretrain_steps, 0, "{row:?}\n{text}");
            assert!(row.bit_identical, "{row:?}\n{text}");
            assert!(row.cold_pretrain_steps > 0, "{row:?}\n{text}");
        }
    }
}
