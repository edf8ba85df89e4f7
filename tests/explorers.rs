//! Explorer determinism contract (DESIGN.md §14): every strategy
//! (`fixed`, `taylor`, `bandit`) runs through the one propose/observe
//! driver and must walk the exact same trajectory — bit for bit — across
//! repeat runs, thread counts, worker processes, and a crash/resume that
//! splits a proposal round. The
//! default `fixed` strategy is additionally pinned to a structural golden
//! and a journal captured before the static loop was deleted. These tests
//! are registered under `wootz-cluster` so they can drive both the
//! library pipeline and the real `wootz` binary.

use std::path::PathBuf;
use std::process::Command;

use wootz_cluster::{run_distributed, ClusterOptions};
use wootz_core::explorer::ExplorerKind;
use wootz_core::pipeline::{run_wootz_with, RunMode, RunOptions, WootzInputs, WootzRun};
use wootz_core::prune::{sample_subspace, PAPER_RATES};
use wootz_data::{micro_dataset, Dataset};
use wootz_fault::RetryPolicy;
use wootz_ir::{Objective, SolverConfig};
use wootz_wire::{record_type, scan_records, Limits};

/// Adaptive evaluation budget: three rounds of `num_workers = 2`.
const BUDGET: usize = 6;

fn wootz_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_wootz"))
}

fn worker_cmd() -> (PathBuf, Vec<String>) {
    (wootz_bin(), vec!["worker".to_string()])
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wootz_explorers_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Inputs whose accuracy constraint no 8-step micro run can satisfy, so
/// every adaptive strategy runs its full budget (three proposal rounds)
/// instead of converging in round one.
fn inputs() -> WootzInputs {
    let model = wootz_models::resnet_mini(8);
    let n = model.conv_module_ids().len();
    WootzInputs {
        subspace: sample_subspace(n, &PAPER_RATES, 3, 11),
        solver: SolverConfig::parse(
            "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 8\nbatch_size: 4\n\
             pretrain_iter: 4\neval_every: 4\nseed: 11\nnum_workers: 2\n",
        )
        .unwrap(),
        objective: Objective::parse("min ModelSize\nconstraint Accuracy >= 0.99\n").unwrap(),
        model,
    }
}

fn dataset_for(inputs: &WootzInputs) -> Dataset {
    micro_dataset(&inputs.solver.dataset, inputs.solver.seed)
}

/// Single-process run under `kind`, optionally journaled/resumed.
fn single(
    inputs: &WootzInputs,
    dataset: &Dataset,
    kind: ExplorerKind,
    journal: Option<PathBuf>,
    resume: bool,
) -> wootz_core::Result<WootzRun> {
    let opts = RunOptions {
        retry: RetryPolicy::abort_fast(),
        journal,
        resume,
        explorer: kind,
        explorer_budget: BUDGET,
        ..RunOptions::default()
    };
    run_wootz_with(inputs, dataset, RunMode::Composability, None, &opts)
}

fn run_json(run: &WootzRun) -> String {
    serde_json::to_string(run).unwrap()
}

/// The pieces of a run that must survive a resume bit-identically (the
/// run-level resume counters legitimately differ between cold and warm).
fn replay_digest(run: &WootzRun) -> String {
    serde_json::to_string(&(&run.exploration.evaluated, &run.best, run.full_accuracy)).unwrap()
}

#[test]
fn adaptive_strategies_are_deterministic_and_diverge_from_fixed() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let fixed = single(&inputs, &dataset, ExplorerKind::Fixed, None, false).unwrap();
    for kind in [ExplorerKind::Taylor, ExplorerKind::Bandit] {
        let a = single(&inputs, &dataset, kind, None, false).unwrap();
        let b = single(&inputs, &dataset, kind, None, false).unwrap();
        assert_eq!(run_json(&a), run_json(&b), "{kind:?} not reproducible");
        // An adaptive universe is proposal-grown, not the static
        // subspace: the trajectory must actually differ from `fixed`.
        assert_ne!(run_json(&a), run_json(&fixed), "{kind:?} matched fixed");
        assert!(a.exploration.configs_explored > 0, "{kind:?} ran nothing");
    }
}

#[test]
fn distributed_is_bit_identical_to_single_process() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    for kind in [ExplorerKind::Fixed, ExplorerKind::Taylor, ExplorerKind::Bandit] {
        let reference = single(&inputs, &dataset, kind, None, false).unwrap();
        let dir = tempdir(&format!("dist_{}", kind.as_str()));
        let mut opts = ClusterOptions::new(dir.join("run"), 2, worker_cmd());
        opts.retry = RetryPolicy::abort_fast();
        opts.explorer = kind;
        opts.explorer_budget = BUDGET;
        let (dist, stats) =
            run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();
        assert_eq!(
            run_json(&reference),
            run_json(&dist),
            "{kind:?} diverged across worker processes"
        );
        assert!(stats.tasks_completed > 0, "{}", stats.summary());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mid_round_crash_resume_replays_the_exact_trajectory() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let dir = tempdir("resume");
    let journal = dir.join("run.journal");

    let cold = single(
        &inputs,
        &dataset,
        ExplorerKind::Taylor,
        Some(journal.clone()),
        false,
    )
    .unwrap();
    assert!(cold.exploration.fresh_evals() > 0);

    // Simulate a crash that splits the final proposal round: keep the
    // journal up to (and including) the first evaluation that follows
    // the last journaled proposal, tear the record after it in half.
    let bytes = std::fs::read(&journal).unwrap();
    let scan = scan_records(&bytes, &Limits::ARTIFACT);
    assert!(scan.tail.is_clean(), "cold journal torn: {:?}", scan.tail);
    let last_proposal = scan
        .records
        .iter()
        .rposition(|r| r.frame.msg_type == record_type::JOURNAL_PROPOSAL)
        .expect("adaptive run journaled no proposal rounds");
    let first_eval_after = scan.records[last_proposal..]
        .iter()
        .position(|r| r.frame.msg_type == record_type::JOURNAL_EVAL)
        .map(|i| last_proposal + i)
        .expect("no evaluation journaled after the last proposal round");
    let keep = match scan.records.get(first_eval_after + 1) {
        Some(next) => next.offset as usize,
        None => bytes.len(),
    };
    assert!(keep < bytes.len(), "cut point must drop journaled work");
    let torn = (bytes.len() - keep).min(9);
    std::fs::write(&journal, &bytes[..keep + torn]).unwrap();

    let warm = single(
        &inputs,
        &dataset,
        ExplorerKind::Taylor,
        Some(journal.clone()),
        true,
    )
    .unwrap();
    assert_eq!(
        replay_digest(&cold),
        replay_digest(&warm),
        "resume changed the trajectory"
    );
    assert!(warm.exploration.resumed > 0, "nothing was replayed");
    assert!(
        warm.exploration.fresh_evals() > 0,
        "the torn-off tail should have been recomputed"
    );
    assert!(
        warm.exploration.fresh_evals() < cold.exploration.fresh_evals(),
        "resume redid everything (fresh {} -> {})",
        cold.exploration.fresh_evals(),
        warm.exploration.fresh_evals()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resuming_under_a_different_strategy_is_rejected() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let dir = tempdir("strategy_swap");
    let journal = dir.join("run.journal");

    single(
        &inputs,
        &dataset,
        ExplorerKind::Taylor,
        Some(journal.clone()),
        false,
    )
    .unwrap();
    // A taylor journal replayed under bandit proposes a different round
    // one; the trajectory guard must abort instead of silently exploring
    // a mixed universe under the old journal's identity.
    let err = single(
        &inputs,
        &dataset,
        ExplorerKind::Bandit,
        Some(journal.clone()),
        true,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("diverged") || msg.contains("explorer"),
        "unexpected error: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Journal record kinds of a run, in file order (`H`eader, `F`ull model,
/// `B`lock, `E`val, `P`roposal).
fn journal_kinds(path: &std::path::Path) -> String {
    let bytes = std::fs::read(path).unwrap();
    let scan = scan_records(&bytes, &Limits::ARTIFACT);
    assert!(scan.tail.is_clean(), "journal torn: {:?}", scan.tail);
    scan.records
        .iter()
        .map(|r| match r.frame.msg_type {
            record_type::JOURNAL_HEADER => 'H',
            record_type::JOURNAL_FULL_MODEL => 'F',
            record_type::JOURNAL_BLOCK => 'B',
            record_type::JOURNAL_EVAL => 'E',
            record_type::JOURNAL_PROPOSAL => 'P',
            other => panic!("unexpected journal record type {other:#06x}"),
        })
        .collect()
}

/// The host-independent shape of a default-explorer run: evaluation
/// order by config index, best `config_index`, block and step counts,
/// and the journal's record-kind sequence.
fn structure(
    inputs: &WootzInputs,
    mode: RunMode,
    name: &str,
) -> (Vec<usize>, Option<usize>, usize, usize, String) {
    let dataset = dataset_for(inputs);
    let dir = tempdir(name);
    let journal = dir.join("run.journal");
    let opts = RunOptions {
        journal: Some(journal.clone()),
        ..RunOptions::default()
    };
    let run = run_wootz_with(inputs, &dataset, mode, None, &opts).unwrap();
    let order = run
        .exploration
        .evaluated
        .iter()
        .map(|r| r.config_index())
        .collect();
    let shape = (
        order,
        run.best.as_ref().map(|b| b.config_index),
        run.blocks_pretrained,
        run.pretrain_steps,
        journal_kinds(&journal),
    );
    std::fs::remove_dir_all(&dir).ok();
    shape
}

/// Structural golden of the default explorer, captured at the parent
/// commit (the last one with a separate static loop) and pinned here: the
/// unified driver must evaluate the same configurations in the same
/// order, choose the same best index, pre-train the same block set at the
/// same step cost, and journal the same record kinds — in particular *no*
/// proposal records, which is what keeps default-explorer journals
/// byte-compatible across the unification.
#[test]
fn fixed_explorer_matches_the_pre_unification_structural_golden() {
    // `inputs()`: nothing satisfies, so the whole subspace is swept.
    let sweep = inputs();
    // Everything satisfies: exploration stops after round one and the
    // best network is the smallest configuration of that round.
    let mut first_round = inputs();
    first_round.objective = Objective::parse("min ModelSize\nconstraint Accuracy >= 0.0\n").unwrap();

    assert_eq!(
        structure(&sweep, RunMode::Baseline, "golden_sweep_base"),
        (vec![1, 2, 0], None, 0, 0, "HFEEE".to_string())
    );
    assert_eq!(
        structure(&sweep, RunMode::Composability, "golden_sweep_comp"),
        (vec![1, 2, 0], None, 9, 12, "HFBBBBBBBBBEEE".to_string())
    );
    assert_eq!(
        structure(&first_round, RunMode::Baseline, "golden_first_base"),
        (vec![1, 2], Some(1), 0, 0, "HFEE".to_string())
    );
    assert_eq!(
        structure(&first_round, RunMode::Composability, "golden_first_comp"),
        (vec![1, 2], Some(1), 9, 12, "HFBBBBBBBBBEE".to_string())
    );
}

/// A default-explorer journal written by the parent commit's static loop
/// (`tests/fixtures/parent_fixed.journal`, `inputs()` in Composability
/// mode) resumes under the unified driver with zero re-evaluations and
/// zero re-training, appending nothing — the legacy half of the
/// strategy-swap contract.
#[test]
fn parent_commit_fixed_journal_resumes_without_reevaluating() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let dir = tempdir("legacy");
    let legacy = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/parent_fixed.journal");
    let journal = dir.join("run.journal");
    std::fs::copy(&legacy, &journal).unwrap();

    let warm = single(&inputs, &dataset, ExplorerKind::Fixed, Some(journal.clone()), true).unwrap();
    assert_eq!(warm.exploration.fresh_evals(), 0, "legacy journal was re-evaluated");
    assert_eq!(warm.exploration.resumed, inputs.subspace.len());
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        std::fs::read(&legacy).unwrap(),
        "a full replay must append nothing"
    );

    // And the legacy journal still refuses a proposing strategy.
    let err = single(&inputs, &dataset, ExplorerKind::Taylor, Some(journal), true).unwrap_err();
    assert!(err.to_string().contains("without proposal records"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_count_is_invisible_to_adaptive_cli_runs() {
    let dir = tempdir("threads");
    let w = wootz_bin();
    let run = |args: &[&str]| {
        let out = Command::new(&w)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("wootz binary runs");
        assert!(
            out.status.success(),
            "wootz {:?} failed:\n{}{}",
            args,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&["genmodel", "--classes", "8", "--out", "model.prototxt"]);
    run(&[
        "sample", "--modules", "4", "--count", "6", "--seed", "5", "--out", "configs.json",
    ]);
    std::fs::write(
        dir.join("solver.prototxt"),
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 8\nbatch_size: 4\n\
         pretrain_iter: 4\neval_every: 4\nseed: 11\nnum_workers: 2\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("objective.txt"),
        "min ModelSize\nconstraint Accuracy >= 0.99\n",
    )
    .unwrap();

    for kind in ["taylor", "bandit"] {
        for threads in ["1", "4"] {
            run(&[
                "prune",
                "--model",
                "model.prototxt",
                "--configs",
                "configs.json",
                "--solver",
                "solver.prototxt",
                "--objective",
                "objective.txt",
                "--explorer",
                kind,
                "--explorer-budget",
                "6",
                "--threads",
                threads,
                "--out",
                &format!("{kind}_t{threads}.json"),
            ]);
        }
        let t1 = std::fs::read(dir.join(format!("{kind}_t1.json"))).unwrap();
        let t4 = std::fs::read(dir.join(format!("{kind}_t4.json"))).unwrap();
        assert_eq!(t1, t4, "{kind}: --threads 1 and --threads 4 outputs differ");
    }
    std::fs::remove_dir_all(&dir).ok();
}
