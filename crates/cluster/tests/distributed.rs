//! Integration tests of the distributed runtime: worker processes are the
//! real `wootz worker` binary, the coordinator runs in-process so its
//! [`ClusterStats`] can be asserted on directly.
//!
//! The invariant under test everywhere: the distributed run returns a
//! [`WootzRun`] **bit-identical** to the single-process pipeline with the
//! same inputs — for any worker count and under injected worker crashes,
//! hangs (zombies) and stragglers.

use std::path::PathBuf;

use wootz_cluster::{run_distributed, ClusterOptions};
use wootz_core::pipeline::{run_wootz_with, RunMode, RunOptions, WootzInputs, WootzRun};
use wootz_data::{micro_dataset, Dataset};
use wootz_fault::{FaultKind, FaultPlan, RetryPolicy, Trigger};
use wootz_ir::{Objective, SolverConfig};

fn worker_cmd() -> (PathBuf, Vec<String>) {
    (
        PathBuf::from(env!("CARGO_BIN_EXE_wootz")),
        vec!["worker".to_string()],
    )
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wootz_dist_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn inputs() -> WootzInputs {
    let model = wootz_models::resnet_mini(8);
    let subspace = ["[[30,30,30,30],[50,70,70,70],[70,70,70,70],[50,50,50,50]]"]
        .iter()
        .flat_map(|json| {
            let raw: Vec<Vec<u8>> = serde_json::from_str(json).unwrap();
            raw.into_iter()
                .map(|r| wootz_core::prune::PruneConfig::new(r).unwrap())
        })
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

fn dataset_for(inputs: &WootzInputs) -> Dataset {
    micro_dataset(&inputs.solver.dataset, inputs.solver.seed)
}

/// The single-process reference run with the same inputs and retry policy.
fn baseline(inputs: &WootzInputs, dataset: &Dataset, mode: RunMode) -> WootzRun {
    let opts = RunOptions {
        faults: None,
        retry: RetryPolicy::abort_fast(),
        journal: None,
        resume: false,
        ..RunOptions::default()
    };
    run_wootz_with(inputs, dataset, mode, None, &opts).unwrap()
}

fn run_json(run: &WootzRun) -> String {
    serde_json::to_string(run).unwrap()
}

#[test]
fn distributed_run_is_bit_identical_to_single_process() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let single = baseline(&inputs, &dataset, RunMode::Composability);

    let dir = tempdir("identity");
    let mut opts = ClusterOptions::new(dir.join("run"), 3, worker_cmd());
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
fn crashed_worker_is_reclaimed_respawned_and_result_unchanged() {
    let inputs = inputs();
    let dataset = dataset_for(&inputs);
    let single = baseline(&inputs, &dataset, RunMode::Composability);

    // Attempt 1 of unit-of-work key 1 (pre-training group 1 *and* config 1)
    // aborts the worker process mid-task: no result, no heartbeat, no
    // cleanup.
    let plan = FaultPlan {
        seed: 1,
        triggers: vec![Trigger {
            site: wootz_fault::site::CLUSTER_TASK.to_string(),
            key: Some(1),
            kind: FaultKind::WorkerCrash,
            times: Some(1),
        }],
        rates: vec![],
    };
    let dir = tempdir("crash");
    let mut opts = ClusterOptions::new(dir.join("run"), 2, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.faults = Some(&plan);
    opts.lease_ms = 300;
    let (dist, stats) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();

    // The crash cost an attempt but not correctness: the replacement
    // attempt recomputed the exact same bytes.
    assert_eq!(run_json(&single), run_json(&dist));
    assert!(
        stats.leases_reclaimed >= 1,
        "expected a reclaim: {}",
        stats.summary()
    );
    assert!(
        stats.workers_respawned >= 1,
        "expected a respawn: {}",
        stats.summary()
    );
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
    let dir = tempdir("zombie");
    let journal = dir.join("run.ndjson");
    let mut opts = ClusterOptions::new(dir.join("run"), 2, worker_cmd());
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
    assert!(scan.tail.is_clean(), "journal ends cleanly: {:?}", scan.tail);
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
    let dir = tempdir("straggler");
    let mut opts = ClusterOptions::new(dir.join("run"), 2, worker_cmd());
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
    let dir = tempdir("poison");
    let mut opts = ClusterOptions::new(dir.join("run"), 2, worker_cmd());
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
    let dir = tempdir("resume");
    let journal = dir.join("run.ndjson");

    let mut opts = ClusterOptions::new(dir.join("run"), 2, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.journal = Some(journal.clone());
    let (first, _) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();
    assert!(first.exploration.fresh_evals() > 0);

    // Second coordinator over the same run directory and journal: a higher
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
