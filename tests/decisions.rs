//! The decisions of a pruning run, pinned to `tests/fixtures/decisions.txt`.
//!
//! The fixture was written before fine-tuning stopped measuring accuracy
//! points nothing reads, so it holds what every earlier commit decided:
//! per run the full model's accuracy, the evaluation order, and for every
//! evaluated configuration its accuracy bits, cost, model size and
//! `satisfies`, plus the chosen best network. Every explorer runs under two
//! objectives: `max Accuracy` below a size bound (the benchmark's form, no
//! accuracy bound, so no curve is measured) and `min ModelSize` above an
//! accuracy bound that some fine-tunes reach partway through (so their
//! curves end early). Registered under `wootz-bench`.

use std::fmt::Write as _;

use wootz_core::explore::EvalOutcome;
use wootz_core::explorer::ExplorerKind;
use wootz_core::pipeline::{run_wootz_with, RunMode, RunOptions, WootzInputs, WootzRun};
use wootz_core::prune::{sample_subspace, PAPER_RATES};
use wootz_data::micro_dataset;
use wootz_ir::{Objective, SolverConfig};

/// The benchmark's objective form: no accuracy bound.
const MAX_ACCURACY: &str = "max Accuracy\nconstraint ModelSize <= 3230\n";
/// An accuracy bound some fine-tunes reach at step 10, some at the last
/// step and some never.
const BOUND: f64 = 0.19;
const MIN_SIZE: &str = "min ModelSize\nconstraint Accuracy >= 0.19\n";
const MAX_ITER: usize = 12;
const EVAL_EVERY: usize = 2;

fn inputs(objective: &str) -> WootzInputs {
    let model = wootz_models::resnet_mini(8);
    let n = model.conv_module_ids().len();
    WootzInputs {
        subspace: sample_subspace(n, &PAPER_RATES, 6, 12),
        solver: SolverConfig::parse(&format!(
            "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: {MAX_ITER}\nbatch_size: 4\n\
             pretrain_iter: 4\neval_every: {EVAL_EVERY}\nseed: 11\nnum_workers: 2\n",
        ))
        .unwrap(),
        objective: Objective::parse(objective).unwrap(),
        model,
    }
}

fn run(kind: ExplorerKind, objective: &str) -> WootzRun {
    let inputs = inputs(objective);
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let opts = RunOptions {
        explorer: kind,
        explorer_budget: 6,
        ..RunOptions::default()
    };
    run_wootz_with(&inputs, &dataset, RunMode::Composability, None, &opts).unwrap()
}

fn bits(v: f64) -> String {
    format!("{v} ({:#018x})", v.to_bits())
}

/// The decision fields of one run, one line per fact.
fn digest(name: &str, run: &WootzRun) -> String {
    let mut out = format!("[{name}]\nfull_accuracy {}\n", bits(run.full_accuracy));
    for record in &run.exploration.evaluated {
        let o = record.outcome().expect("no faults are injected");
        writeln!(
            out,
            "eval {} accuracy={} cost={} model_size={} satisfies={}",
            record.config_index(),
            bits(o.accuracy),
            bits(o.cost),
            o.model_size,
            record.satisfies()
        )
        .unwrap();
    }
    match &run.best {
        Some(b) => writeln!(
            out,
            "best {} rates={:?} model_size={} accuracy={}",
            b.config_index,
            b.rates,
            b.model_size,
            bits(b.accuracy)
        )
        .unwrap(),
        None => out.push_str("best none\n"),
    }
    out
}

/// What a fine-tune's log may hold: with no accuracy bound, no curve at
/// all, only the final accuracy; with one, the points from step 0 every
/// `eval_every` steps up to the first at or above the bound (or, when none
/// reaches it, through the final step), and nothing after it.
fn assert_measured_points_only(name: &str, o: &EvalOutcome, bound: Option<f64>) {
    let (every, max) = (EVAL_EVERY, MAX_ITER);
    let log = o.log.as_ref().expect("pipeline evaluations keep their log");
    assert_eq!(log.steps_run, max, "{name}");
    assert_eq!(
        log.final_accuracy.map(f64::from),
        Some(o.accuracy),
        "{name}"
    );
    let Some(bound) = bound else {
        assert!(log.records.is_empty(), "{name}: unbounded curve {log:?}");
        assert_eq!(log.initial_accuracy, None, "{name}");
        return;
    };
    let steps: Vec<usize> = log.records.iter().map(|r| r.step).collect();
    let reached = log
        .records
        .iter()
        .position(|r| r.accuracy.is_some_and(|a| a >= bound as f32));
    let expected: Vec<usize> = match reached {
        Some(at) => (0..=at).map(|k| k * every).collect(),
        None => (0..=max / every).map(|k| k * every).collect(),
    };
    assert_eq!(steps, expected, "{name}: {log:?}");
    assert_eq!(log.initial_accuracy, log.records[0].accuracy, "{name}");
    let cost = steps[reached.unwrap_or(steps.len() - 1)];
    assert_eq!(o.cost, cost as f64, "{name}");
    if steps.last() == Some(&max) {
        assert_eq!(
            log.records.last().unwrap().accuracy,
            log.final_accuracy,
            "{name}"
        );
    }
}

#[test]
fn decisions_match_the_pinned_fixture_and_logs_hold_only_measured_points() {
    let mut text = String::new();
    for (objective, bound) in [(MAX_ACCURACY, None), (MIN_SIZE, Some(BOUND))] {
        for kind in [
            ExplorerKind::Fixed,
            ExplorerKind::Taylor,
            ExplorerKind::Bandit,
        ] {
            let name = format!("{} {}", kind.as_str(), objective.lines().next().unwrap());
            let run = run(kind, objective);
            text.push_str(&digest(&name, &run));
            text.push('\n');
            for record in &run.exploration.evaluated {
                let name = format!("{name} config {}", record.config_index());
                assert_measured_points_only(&name, record.outcome().unwrap(), bound);
            }
        }
    }
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/decisions.txt"
    );
    let pinned = std::fs::read_to_string(fixture).unwrap();
    assert_eq!(text, pinned, "decisions moved; this run decided:\n{text}");
}
