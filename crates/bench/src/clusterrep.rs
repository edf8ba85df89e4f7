//! `reproduce cluster`: validates the simulator's fault model against the
//! *real* distributed runtime.
//!
//! [`wootz_sim::faulted_arm`] predicts, in closed form, how many failures
//! a run suffers and how much they dilate wall-clock under journal-based
//! recovery. This report checks those predictions against measurements: it
//! runs the real multi-process pipeline (`wootz-cluster`) on the micro
//! dataset under deterministic worker-crash injection at several failure
//! rates, maps each rate onto the simulator's MTBF parameter, and tabulates
//! predicted vs. observed failures and slowdown side by side.
//!
//! The mapping: a per-task crash probability `q` with mean task wall time
//! `t` hours means a worker fails on average every `1/q` tasks, i.e. a
//! per-node MTBF of `t/q` hours — exactly the `mtbf_hours` the simulator
//! takes. Because the fault plan's draws are pure functions of
//! `(seed, site, key)`, the *exact* number of injected crashes is known in
//! advance, so "observed reclaims == planned crashes" is a sharp check of
//! the runtime (every crash reclaimed exactly once, no double counting),
//! while wall-clock ratios are a loose, order-of-magnitude check of the
//! model (micro runs are seconds long and scheduling-noisy).

use std::time::Instant;

use wootz_cluster::{run_distributed, ClusterOptions, ClusterStats};
use wootz_core::pipeline::{RunMode, WootzInputs};
use wootz_core::prune::PruneConfig;
use wootz_data::micro_dataset;
use wootz_fault::{site, FaultKind, FaultPlan, RetryPolicy, SiteRate};
use wootz_ir::{Objective, SolverConfig};
use wootz_sim::{faulted_arm, FaultModel};

use crate::report;

/// How workers for the report's distributed runs are started (the
/// `reproduce` binary re-enters itself through a hidden subcommand).
pub const WORKER_SUBCOMMAND: &str = "cluster-worker";

/// One measured regime of the validation run.
struct Regime {
    label: String,
    crash_prob: f64,
    tasks: usize,
    planned_crashes: usize,
    stats: ClusterStats,
    wall_s: f64,
}

fn micro_inputs(seed: u64) -> WootzInputs {
    let model = wootz_models::resnet_mini(8);
    let raw: Vec<Vec<u8>> = vec![
        vec![30, 30, 30, 30],
        vec![50, 70, 70, 70],
        vec![70, 70, 70, 70],
        vec![50, 50, 50, 50],
    ];
    let subspace = raw
        .into_iter()
        .map(|r| PruneConfig::new(r).expect("static rates"))
        .collect();
    // num_workers 4 = the logical round width: all four configurations are
    // evaluated in the first round, so the task count is known statically.
    let solver = SolverConfig::parse(&format!(
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 8\nbatch_size: 4\n\
         pretrain_iter: 4\neval_every: 4\nseed: {seed}\nnum_workers: 4\n"
    ))
    .expect("static solver");
    let objective =
        Objective::parse("min ModelSize\nconstraint Accuracy >= 0.1\n").expect("static objective");
    WootzInputs {
        model,
        subspace,
        solver,
        objective,
    }
}

fn crash_plan(seed: u64, probability: f64) -> FaultPlan {
    FaultPlan {
        seed,
        triggers: vec![],
        rates: vec![SiteRate {
            site: site::CLUSTER_TASK.to_string(),
            kind: FaultKind::WorkerCrash,
            probability,
            times: Some(1),
        }],
    }
}

/// Counts how many of the `tasks` unit-of-work keys the plan crashes on
/// their first attempt — exact, because the draws are deterministic.
fn planned_crashes(plan: &FaultPlan, tasks: usize) -> usize {
    (0..tasks as u64)
        .filter(|&key| {
            matches!(
                plan.fire(site::CLUSTER_TASK, key, 1),
                Some(FaultKind::WorkerCrash)
            )
        })
        .count()
}

fn run_regime(
    label: &str,
    inputs: &WootzInputs,
    crash_prob: f64,
    seed: u64,
    workers: usize,
) -> Result<Regime, String> {
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let dir = std::env::temp_dir().join(format!(
        "wootz_reproduce_cluster_{}_{}",
        label.replace([' ', '%', '='], "_"),
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let plan = crash_plan(seed, crash_prob);
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate reproduce: {e}"))?;
    let mut opts = ClusterOptions::new(&dir, workers, (exe, vec![WORKER_SUBCOMMAND.to_string()]));
    opts.retry = RetryPolicy::abort_fast();
    if crash_prob > 0.0 {
        opts.faults = Some(&plan);
    }
    opts.lease_ms = 400;
    let started = Instant::now();
    let (_, stats) = run_distributed(inputs, &dataset, RunMode::Baseline, &opts)
        .map_err(|e| format!("distributed run ({label}) failed: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();
    let tasks = inputs.subspace.len();
    Ok(Regime {
        label: label.to_string(),
        crash_prob,
        tasks,
        planned_crashes: if crash_prob > 0.0 {
            planned_crashes(&plan, tasks)
        } else {
            0
        },
        stats,
        wall_s,
    })
}

/// Renders the `reproduce cluster` table: sim fault-model predictions vs.
/// the real distributed runtime under injected worker crashes.
///
/// # Errors
///
/// Returns a rendered error when a distributed run fails (e.g. the worker
/// binary cannot be spawned).
pub fn cluster_report(seed: u64) -> Result<String, String> {
    let workers = 2usize;
    let inputs = micro_inputs(seed);
    let regimes = [
        ("clean", 0.0),
        ("crash q=0.25", 0.25),
        ("crash q=0.50", 0.50),
    ];
    let mut measured = Vec::new();
    for (label, q) in regimes {
        measured.push(run_regime(label, &inputs, q, seed, workers)?);
    }

    // The fault-free run calibrates the sim: its mean task time (in
    // "hours"; 1 s = 1 h here, the scale cancels in every ratio) is both
    // the MTBF numerator and the half-redone-work term.
    let clean = &measured[0];
    let mean_task_h = clean.wall_s / clean.tasks.max(1) as f64;
    let ideal_h = clean.wall_s;

    let mut rows = Vec::new();
    for m in &measured {
        let fm = if m.crash_prob > 0.0 {
            FaultModel {
                mtbf_hours: mean_task_h / m.crash_prob,
                restart_hours: 0.0,
                straggler_prob: 0.0,
                straggler_factor: 1.0,
            }
        } else {
            FaultModel::none()
        };
        let arm = faulted_arm(&fm, ideal_h, mean_task_h, workers, m.tasks);
        let predicted_failures = m.crash_prob * m.tasks as f64;
        let observed_failures = m.stats.leases_reclaimed;
        let predicted_ratio = arm.journal_hours / ideal_h.max(1e-9);
        let observed_ratio = m.wall_s / ideal_h.max(1e-9);
        rows.push(vec![
            m.label.clone(),
            format!("{}", m.tasks),
            format!("{}", m.planned_crashes),
            format!("{observed_failures}"),
            format!("{}", m.stats.workers_respawned),
            report::f(predicted_failures, 2),
            report::f(arm.expected_failures, 2),
            report::f(predicted_ratio, 2),
            report::f(observed_ratio, 2),
        ]);
    }

    let mut out = String::from(
        "Cluster fault-model validation: sim MTBF predictions vs. the real\n\
         multi-process runtime (micro pipeline, worker crashes injected\n\
         deterministically at per-task probability q; MTBF mapped as\n\
         mean-task-time / q).\n\n\
         Sharp check: observed reclaims == planned crashes (every injected\n\
         crash is reclaimed exactly once). Loose check: the journal-regime\n\
         wall-clock ratio (micro runs are seconds long, so scheduling noise\n\
         dominates the observed ratio).\n\n",
    );
    out.push_str(&report::render_table(
        &[
            "regime",
            "tasks",
            "planned crashes",
            "observed reclaims",
            "respawns",
            "E[fail] q*n",
            "E[fail] sim",
            "wall x (sim)",
            "wall x (obs)",
        ],
        &rows,
    ));
    let mut ok = true;
    for m in &measured {
        if m.stats.leases_reclaimed != m.planned_crashes {
            ok = false;
            out.push_str(&format!(
                "\nMISMATCH: regime `{}` planned {} crashes but reclaimed {}\n",
                m.label, m.planned_crashes, m.stats.leases_reclaimed
            ));
        }
    }
    out.push_str(if ok {
        "\nsharp check passed: observed reclaims match the planned crash schedule\n"
    } else {
        "\nsharp check FAILED\n"
    });
    if ok {
        Ok(out)
    } else {
        Err(out)
    }
}
