//! Fixtures shared by the `wootz-cluster` integration tests: the `wootz`
//! binary, scratch directories, the micro pruning instances and the
//! single-process reference run they are checked against.

// Each test crate includes this module and uses a different part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use wootz_core::pipeline::{run_wootz_with, RunMode, RunOptions, WootzInputs, WootzRun};
use wootz_data::{micro_dataset, Dataset};
use wootz_fault::RetryPolicy;
use wootz_ir::{Objective, SolverConfig};

/// The `wootz` binary under test.
pub fn wootz_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_wootz"))
}

/// A `wootz` command, ready for arguments.
pub fn wootz() -> Command {
    Command::new(wootz_bin())
}

/// How a coordinator under test starts its workers: the real binary.
pub fn worker_cmd() -> (PathBuf, Vec<String>) {
    (wootz_bin(), vec!["worker".to_string()])
}

/// A fresh, empty scratch directory named after `name` and this process.
pub fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wootz_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The solver of the file-driven runs: 30 fine-tune steps, 8 pre-train
/// steps, on the Flowers102 micro dataset.
pub const SOLVER: &str = "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 30\nbatch_size: 8\n\
                          pretrain_iter: 8\neval_every: 10\nseed: 3\n";

/// Writes `resnet_mini(8)` as Prototxt into `dir`.
pub fn write_model(dir: &Path) -> PathBuf {
    let path = dir.join("model.prototxt");
    std::fs::write(&path, wootz_models::resnet_mini(8).to_prototxt()).unwrap();
    path
}

/// Asserts the command succeeded and returns its stdout.
pub fn assert_success(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The in-library micro instance: four configurations of `resnet_mini(8)`,
/// 8 fine-tune steps, two evaluations per round.
pub fn inputs() -> WootzInputs {
    let model = wootz_models::resnet_mini(8);
    let raw: Vec<Vec<u8>> =
        serde_json::from_str("[[30,30,30,30],[50,70,70,70],[70,70,70,70],[50,50,50,50]]").unwrap();
    let subspace = raw
        .into_iter()
        .map(|r| wootz_core::prune::PruneConfig::new(r).unwrap())
        .collect();
    let solver = SolverConfig::parse(
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 8\nbatch_size: 4\n\
         pretrain_iter: 4\neval_every: 4\nseed: 11\nnum_workers: 2\n",
    )
    .unwrap();
    let objective = Objective::parse("min ModelSize\nconstraint Accuracy >= 0.1\n").unwrap();
    WootzInputs {
        model,
        subspace,
        solver,
        objective,
    }
}

/// The micro dataset `inputs` names.
pub fn dataset_for(inputs: &WootzInputs) -> Dataset {
    micro_dataset(&inputs.solver.dataset, inputs.solver.seed)
}

/// The single-process reference run with the same inputs and retry policy.
pub fn baseline(inputs: &WootzInputs, dataset: &Dataset, mode: RunMode) -> WootzRun {
    let opts = RunOptions {
        faults: None,
        retry: RetryPolicy::abort_fast(),
        journal: None,
        resume: false,
        ..RunOptions::default()
    };
    run_wootz_with(inputs, dataset, mode, None, &opts).unwrap()
}

/// A run's canonical JSON, for whole-run byte comparisons.
pub fn run_json(run: &WootzRun) -> String {
    serde_json::to_string(run).unwrap()
}
