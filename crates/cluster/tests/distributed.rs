//! Integration tests of the distributed runtime: worker processes are the
//! real `wootz worker` binary, the coordinator runs in-process so its
//! [`ClusterStats`] can be asserted on directly.
//!
//! The invariant under test everywhere: the distributed run returns a
//! [`WootzRun`] **bit-identical** to the single-process pipeline with the
//! same inputs — for any worker count and under injected worker crashes,
//! hangs (zombies) and stragglers.

mod common;

use common::{baseline, dataset_for, inputs, run_json, tempdir, worker_cmd};
use wootz_cluster::{run_distributed, ClusterOptions};
use wootz_core::pipeline::RunMode;
use wootz_fault::{FaultKind, FaultPlan, RetryPolicy, Trigger};

#[test]
fn distributed_run_is_bit_identical_to_single_process() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let single = baseline(&inputs, &dataset, RunMode::Composability);

    let dir = tempdir("dist_identity");
    let mut opts = ClusterOptions::new(dir.join("logs"), 3, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    let (dist, stats) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();

    assert_eq!(run_json(&single), run_json(&dist));
    assert!(stats.tasks_completed > 0);
    assert_eq!(stats.workers, 3);
    // Clean run: nothing reclaimed, nothing speculated, nothing rejected.
    assert_eq!(stats.leases_reclaimed, 0);
    assert_eq!(stats.zombie_results_rejected, 0);
    assert_eq!(stats.tasks_abandoned, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hung_worker_is_fenced_and_its_zombie_result_rejected() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    // Baseline mode: evaluation tasks only, so the fault key is exactly a
    // config index. The objective-ordered exploration evaluates the
    // smallest candidates first, so config 2 ([70,70,70,70]) is always in
    // the first round.
    let single = baseline(&inputs, &dataset, RunMode::Baseline);

    // Attempt 1 of config 2 wedges for ~5 lease periods *before* its first
    // heartbeat: the coordinator reclaims it, a replacement attempt
    // completes, and the zombie's late result must be fenced.
    let plan = FaultPlan {
        seed: 1,
        triggers: vec![Trigger {
            site: wootz_fault::site::CLUSTER_TASK.to_string(),
            key: Some(2),
            kind: FaultKind::WorkerHang { millis: 1500 },
            times: Some(1),
        }],
        rates: vec![],
    };
    let dir = tempdir("dist_zombie");
    let journal = dir.join("run.ndjson");
    let mut opts = ClusterOptions::new(dir.join("logs"), 2, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.faults = Some(&plan);
    opts.lease_ms = 300;
    opts.journal = Some(journal.clone());
    let (dist, stats) = run_distributed(&inputs, &dataset, RunMode::Baseline, &opts).unwrap();

    assert_eq!(run_json(&single), run_json(&dist));
    assert!(
        stats.leases_reclaimed >= 1,
        "expected a reclaim: {}",
        stats.summary()
    );
    assert!(
        stats.zombie_results_rejected >= 1,
        "expected a fenced zombie result: {}",
        stats.summary()
    );

    // Fencing admitted exactly one result per unit of work: the journal
    // holds exactly one Eval record per explored configuration. The
    // journal is binary wire records now; eval payloads are JSON inside
    // a checksummed envelope.
    let bytes = std::fs::read(&journal).unwrap();
    let scan = wootz_wire::scan_records(&bytes, &wootz_wire::Limits::ARTIFACT);
    assert!(
        scan.tail.is_clean(),
        "journal ends cleanly: {:?}",
        scan.tail
    );
    let mut eval_counts: std::collections::BTreeMap<u64, usize> = Default::default();
    for record in &scan.records {
        if record.frame.msg_type != wootz_wire::record_type::JOURNAL_EVAL {
            continue;
        }
        let text = std::str::from_utf8(&record.frame.payload).unwrap();
        let v: serde_json::Value = serde_json::from_str(text).unwrap();
        let record = &v["Eval"];
        let idx = record["Done"]["config_index"]
            .as_u64()
            .or_else(|| record["Failed"]["config_index"].as_u64())
            .expect("journaled Eval without config index");
        *eval_counts.entry(idx).or_default() += 1;
    }
    assert!(!eval_counts.is_empty());
    for (idx, count) in &eval_counts {
        assert_eq!(*count, 1, "config {idx} journaled {count} times");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn straggler_trips_speculative_reexecution_and_result_unchanged() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let single = baseline(&inputs, &dataset, RunMode::Baseline);

    // Attempt 1 of config 1 runs 20x slower than real time while keeping
    // its heartbeat alive: only speculation (never reclamation) can beat
    // it, and the duplicate attempt's result is byte-equal anyway.
    let plan = FaultPlan {
        seed: 1,
        triggers: vec![Trigger {
            site: wootz_fault::site::CLUSTER_TASK.to_string(),
            key: Some(1),
            kind: FaultKind::SlowWorker { factor: 20.0 },
            times: Some(1),
        }],
        rates: vec![],
    };
    let dir = tempdir("dist_straggler");
    let mut opts = ClusterOptions::new(dir.join("logs"), 2, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.faults = Some(&plan);
    opts.speculate_after_ms = Some(100);
    let (dist, stats) = run_distributed(&inputs, &dataset, RunMode::Baseline, &opts).unwrap();

    assert_eq!(run_json(&single), run_json(&dist));
    assert!(
        stats.speculative_launched >= 1,
        "expected a speculative attempt: {}",
        stats.summary()
    );
    // No lease ever expired — the straggler heartbeats the whole time.
    assert_eq!(stats.leases_reclaimed, 0, "{}", stats.summary());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poison_task_is_abandoned_and_run_completes() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);

    // Every attempt of unit-of-work key 1 (pre-training group 1 *and*
    // config 1) crashes its worker: `times: Some(99)` keeps the trigger
    // armed past any retry, so no attempt can ever succeed. The
    // coordinator must abandon the unit after `max_task_attempts`, not
    // spin forever — and the run must still complete: the abandoned
    // pre-training group degrades to inherited weights at assembly (the
    // block-fallback contract) and the abandoned evaluation surfaces as
    // a first-class failed exploration record under the skip policy.
    let plan = FaultPlan {
        seed: 1,
        triggers: vec![Trigger {
            site: wootz_fault::site::CLUSTER_TASK.to_string(),
            key: Some(1),
            kind: FaultKind::WorkerCrash,
            times: Some(99),
        }],
        rates: vec![],
    };
    let dir = tempdir("dist_poison");
    let mut opts = ClusterOptions::new(dir.join("logs"), 2, worker_cmd());
    opts.retry = RetryPolicy::skip_after(1);
    opts.faults = Some(&plan);
    opts.lease_ms = 300;
    opts.max_task_attempts = 2;
    let (dist, stats) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();

    // Both poisoned units (the pre-training group and the evaluation)
    // were abandoned after their attempt budget, and every crash cost a
    // worker process that had to be respawned.
    assert!(
        stats.tasks_abandoned >= 1,
        "expected an abandonment: {}",
        stats.summary()
    );
    assert!(
        stats.workers_respawned >= 1,
        "expected a respawn: {}",
        stats.summary()
    );
    assert!(
        stats.summary().contains("tasks abandoned"),
        "summary must surface abandonment: {}",
        stats.summary()
    );

    // The abandoned evaluation is a recorded failure, not a hole.
    assert!(
        dist.exploration.failed >= 1,
        "expected a failed exploration record, got {:?}",
        dist.exploration
    );
    // The poisoned configuration (key 1) is the failed record; its
    // round-mate config 2 still evaluated to completion and the run
    // still chose a best network from the survivors.
    let failed: Vec<usize> = dist
        .exploration
        .evaluated
        .iter()
        .filter(|e| e.is_failed())
        .map(|e| e.config_index())
        .collect();
    assert_eq!(failed, vec![1], "exactly config 1 fails: {failed:?}");
    let done: Vec<usize> = dist
        .exploration
        .evaluated
        .iter()
        .filter(|e| !e.is_failed())
        .map(|e| e.config_index())
        .collect();
    assert!(done.contains(&2), "config 2 missing from {done:?}");
    assert!(
        dist.best.is_some(),
        "abandonment must not cost the run its best network"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_coordinator_re_evaluates_nothing() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let dir = tempdir("dist_resume");
    let journal = dir.join("run.ndjson");

    let mut opts = ClusterOptions::new(dir.join("logs"), 2, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.journal = Some(journal.clone());
    let (first, _) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();
    assert!(first.exploration.fresh_evals() > 0);

    // Second coordinator over the same log directory and journal: a fresh
    // fencing epoch, and every unit of work replayed rather than redone.
    opts.resume = true;
    let (second, stats) =
        run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();
    assert_eq!(second.exploration.fresh_evals(), 0);
    assert_eq!(
        second.exploration.resumed,
        second.exploration.configs_explored
    );
    assert_eq!(stats.tasks_completed, 0, "{}", stats.summary());
    assert_eq!(run_json_piece(&first.best), run_json_piece(&second.best));
    assert_eq!(first.full_accuracy, second.full_accuracy);
    std::fs::remove_dir_all(&dir).ok();
}

/// `run_json` helper also accepts any serializable piece of a run.
fn run_json_piece<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

/// Writes the file-driven pruning problem of the runtime comparisons into
/// `dir`: the four configurations of [`inputs`] on `resnet_mini(8)`, two
/// evaluations per round, an unsatisfiable objective (every configuration
/// is evaluated) and the fault plan `plan`.
fn write_problem(dir: &std::path::Path, plan: &FaultPlan) {
    use common::{write_model, SOLVER};

    write_model(dir);
    let configs: Vec<Vec<u8>> = inputs()
        .subspace
        .iter()
        .map(|c| c.rates().to_vec())
        .collect();
    let files = [
        ("configs.json", serde_json::to_string(&configs).unwrap()),
        ("solver.prototxt", format!("{SOLVER}num_workers: 2\n")),
        (
            "objective.txt",
            "min ModelSize\nconstraint Accuracy >= 0.99\n".to_string(),
        ),
        ("faults.json", serde_json::to_string(plan).unwrap()),
    ];
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
}

/// `wootz prune` of the problem in `dir` in composability mode on
/// `runtime`, writing `<name>.journal`, `<name>.json` and
/// `<name>.ndjson`.
fn prune(dir: &std::path::Path, name: &str, runtime: &[&str]) -> std::process::Output {
    common::wootz()
        .current_dir(dir)
        .args(["prune", "--model", "model.prototxt", "--configs"])
        .args(["configs.json", "--solver", "solver.prototxt"])
        .args(["--objective", "objective.txt", "--mode", "composability"])
        .args(["--inject-faults", "faults.json"])
        .args(["--journal", &format!("{name}.journal")])
        .args(["--out", &format!("{name}.json")])
        .args(["--metrics-out", &format!("{name}.ndjson")])
        .args(runtime)
        .output()
        .unwrap()
}

/// The value of counter `name` in the metrics export `file` of `dir`.
fn counter(dir: &std::path::Path, file: &str, name: &str) -> u64 {
    std::fs::read_to_string(dir.join(file))
        .unwrap()
        .lines()
        .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        .find(|v| v["name"] == name)
        .and_then(|v| v["value"].as_u64())
        .unwrap_or(0)
}

/// A pre-training trigger of the fault plan: `kind` at `site`, for `key`
/// (`None`: every key), `times` times (`None`: always).
fn trigger(site: &str, key: Option<u64>, times: Option<u32>) -> Trigger {
    Trigger {
        site: site.to_string(),
        key,
        kind: FaultKind::EvalError,
        times,
    }
}

/// A block that fails pre-training is never published, so the hub never
/// pushes it: every configuration using it assembles that block from
/// inherited weights on whichever runtime evaluates it. The plan fails
/// every group's joint run and the solo run of the batch's first block;
/// the objective is unsatisfiable, so every configuration is evaluated.
/// The distributed run's `--out` and journal equal the in-process run's
/// byte for byte, and each session is sent a trained block at most once.
#[test]
fn a_block_that_failed_pretraining_is_never_pushed() {
    use common::assert_success;

    let dir = tempdir("dist_failed_block");
    let plan = FaultPlan {
        seed: 7,
        triggers: vec![
            trigger(wootz_fault::site::PRETRAIN_GROUP, None, Some(1)),
            trigger(wootz_fault::site::PRETRAIN_BLOCK, Some(0), Some(1)),
        ],
        rates: vec![],
    };
    write_problem(&dir, &plan);
    assert_success(&prune(&dir, "local", &["--threads", "1"]));
    assert_success(&prune(
        &dir,
        "dist",
        &["--distributed", "2", "--log-dir", "logs"],
    ));

    let read = |file: &str| std::fs::read(dir.join(file)).unwrap();
    let run: serde_json::Value =
        serde_json::from_str(&String::from_utf8(read("local.json")).unwrap()).unwrap();
    assert_eq!(
        run["blocks_failed"].as_u64(),
        Some(1),
        "the plan fails exactly one block: {run:?}"
    );
    assert!(
        counter(&dir, "local.ndjson", "assemble.block_fallbacks") > 0,
        "no configuration fell back to inherited weights for the failed block"
    );
    assert!(read("dist.json") == read("local.json"), "--out differs");
    assert!(
        read("dist.journal") == read("local.journal"),
        "the journal differs"
    );
    // Two workers, one session each in a healthy run: every trained block
    // crosses the wire at most twice, the failed one never.
    let trained = run["blocks_pretrained"].as_u64().unwrap();
    let pushed = counter(&dir, "dist.ndjson", "net.blocks_pushed");
    assert!(pushed > 0, "no block was pushed");
    assert!(
        pushed <= 2 * trained,
        "{pushed} blocks pushed for {trained} trained blocks and two sessions"
    );
    assert_eq!(counter(&dir, "dist.ndjson", "net.reconnects"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch whose every group and every block fails pre-training aborts
/// the run on both runtimes alike: the group error a worker's output
/// carries reaches the driver, which fails the run with the same error
/// line and leaves the same journal as the in-process run.
#[test]
fn a_batch_that_trains_no_block_fails_both_runtimes_alike() {
    let dir = tempdir("dist_no_block");
    let plan = FaultPlan {
        seed: 7,
        triggers: vec![
            trigger(wootz_fault::site::PRETRAIN_GROUP, None, None),
            trigger(wootz_fault::site::PRETRAIN_BLOCK, None, None),
        ],
        rates: vec![],
    };
    write_problem(&dir, &plan);
    let local = prune(&dir, "local", &["--threads", "1"]);
    let dist = prune(&dir, "dist", &["--distributed", "2", "--log-dir", "logs"]);
    let error_line = |out: &std::process::Output| {
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            !out.status.success(),
            "the run succeeded: {}\n{stderr}",
            String::from_utf8_lossy(&out.stdout)
        );
        stderr
            .lines()
            .find(|line| line.starts_with("wootz: "))
            .unwrap_or_else(|| panic!("no error line in:\n{stderr}"))
            .to_string()
    };
    let expected = error_line(&local);
    assert!(
        expected.contains("injected fault at pretrain.group[0]"),
        "{expected}"
    );
    assert_eq!(error_line(&dist), expected);
    assert_eq!(dist.status.code(), local.status.code());
    let read = |file: &str| std::fs::read(dir.join(file)).unwrap();
    assert!(
        read("dist.journal") == read("local.journal"),
        "the journal differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}
