//! `cluster_tcp`: the `prune_cold` jobs, one after another, each as a
//! `run_distributed` run — the coordinator in this process with the options
//! of `wootz prune --distributed 2 --listen 127.0.0.1:0`, and two worker
//! processes (this binary re-executed) at one compute thread each.

use std::time::Instant;

use wootz_cluster::{run_distributed, self_worker_cmd, ClusterOptions, ClusterStats};
use wootz_data::micro_dataset;
use wootz_fault::RetryPolicy;

use super::{
    check_outcome, closed_loop, evals_to_target, run_in_process, Config, Counts, JobSample, Region,
    Verdict, Workload,
};
use crate::catalog::Metrics;
use crate::jobs::{Generator, JobSpec};
use crate::procs::{worker_env, ChildDump, WorkDir, WORKER_SUBCOMMAND};
use crate::stats::{mean, median};
use crate::trace::Tracer;

/// Worker processes per run.
const WORKERS: usize = 2;

/// One distributed run and what its processes reported.
struct Distributed {
    sample: JobSample,
    stats: ClusterStats,
    failures: Vec<String>,
    workers: Vec<ChildDump>,
}

/// `cluster_tcp` after set-up.
pub struct Tcp {
    generator: Generator,
    work: WorkDir,
    threads: usize,
    regions: usize,
}

impl Tcp {
    /// Set-up is one untimed distributed job: it pages in the worker
    /// executable and warms the coordinator's side.
    pub fn setup(cfg: Config) -> Result<Tcp, String> {
        let tcp = Tcp {
            generator: Generator::new(cfg.seed, cfg.shape),
            work: WorkDir::new("cluster_tcp").map_err(|e| e.to_string())?,
            threads: cfg.threads,
            regions: 0,
        };
        let warm_up = tcp
            .generator
            .novel("warm-up", 0, tcp.generator.cold(0).mode);
        tcp.run(&warm_up, "warm-up", false)?;
        Ok(tcp)
    }

    fn run(&self, job: &JobSpec, tag: &str, traced: bool) -> Result<Distributed, String> {
        let run_dir = self.work.join(format!("run-{tag}"));
        let dump_dir = self.work.join(format!("dumps-{tag}"));
        std::fs::create_dir_all(&dump_dir).map_err(|e| e.to_string())?;
        let journal = self.work.join(format!("job-{tag}.journal"));
        let worker_cmd = self_worker_cmd(&[WORKER_SUBCOMMAND]).map_err(|e| e.to_string())?;

        let start = Instant::now();
        let inputs = job.inputs();
        let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
        let mut opts = ClusterOptions::new(&run_dir, WORKERS, worker_cmd);
        opts.retry = RetryPolicy::abort_fast();
        opts.journal = Some(journal.clone());
        opts.listen = Some("127.0.0.1:0".to_string());
        opts.worker_env = worker_env(&dump_dir, traced);
        let (run, stats) =
            run_distributed(&inputs, &dataset, job.mode, &opts).map_err(|e| e.to_string())?;
        let wall_s = start.elapsed().as_secs_f64();

        let workers = ChildDump::read_all(&dump_dir);
        let mut failures = check_outcome(
            tag,
            job,
            run.exploration.configs_explored,
            run.best.as_ref(),
        );
        if run.pretrain_steps == 0 || run.blocks_failed != Some(0) || run.exploration.failed != 0 {
            failures.push(format!("{tag}: pre-training or evaluations failed"));
        }
        if stats.tasks_abandoned != 0 || stats.workers_respawned != 0 {
            failures.push(format!("{tag}: {}", stats.summary()));
        }
        if workers.len() != WORKERS {
            failures.push(format!(
                "{tag}: {} of {WORKERS} workers exited cleanly",
                workers.len()
            ));
        }
        let sample = JobSample {
            wall_s,
            evals: run.exploration.configs_explored,
            evals_to_target: evals_to_target(&run.exploration),
            pretrain_steps: run.pretrain_steps,
            phases: None,
            journal_bytes: std::fs::metadata(&journal).map_or(0, |m| m.len()),
            best: run.best,
            full_accuracy: run.full_accuracy,
        };
        Ok(Distributed {
            sample,
            stats,
            failures,
            workers,
        })
    }
}

impl Workload for Tcp {
    fn region(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Result<Region, String> {
        self.regions += 1;
        let regions = self.regions;
        let task_wall = wootz_obs::histogram("cluster.task_wall_ms");
        let busy_before = task_wall.sum();
        let (mut reconnects, mut speculative) = (0, 0);
        let mut worker_rss_kb = Vec::new();
        let mut heartbeat_us = Vec::new();
        let mut worker_counts = Counts::default();
        let mut region = closed_loop(seconds, tracer, |index| {
            let tag = format!("r{regions}-{index}");
            let done = self.run(&self.generator.cold(index), &tag, tracer.is_some())?;
            reconnects += done.stats.net_reconnects;
            speculative += done.stats.speculative_launched;
            worker_rss_kb.push(done.workers.iter().map(|w| w.vm_hwm_kb).sum::<u64>() as f64);
            for worker in &done.workers {
                worker_counts.add(&Counts::of_child(worker));
                heartbeat_us.extend(worker.histogram_p50("net.heartbeat_rtt_us"));
            }
            Ok((done.sample, done.failures))
        });
        // The loop counted the coordinator (this process); the workers of a
        // run are alive beside it.
        let coordinator = region.counts.clone();
        region.counts.add(&worker_counts);
        region.peak_rss_kb += median(&worker_rss_kb) as u64;

        let jobs = region.jobs.len().max(1) as f64;
        let busy_s = (task_wall.sum() - busy_before) as f64 / 1e3;
        let job_s: f64 = region.jobs.iter().map(|j| j.wall_s).sum();
        let mut layer = Metrics::default();
        layer.set(
            "cluster.idle_share",
            1.0 - busy_s / (WORKERS as f64 * job_s.max(1e-9)),
            region.jobs.len(),
        );
        layer.set(
            "net.heartbeat_rtt_us_p50",
            median(&heartbeat_us),
            heartbeat_us.len(),
        );
        layer.set(
            "cluster.frames_per_job",
            coordinator.get("wire.frames") as f64 / jobs,
            region.jobs.len(),
        );
        layer.set(
            "cluster.bytes_per_job",
            coordinator.get("wire.frames_bytes") as f64 / jobs,
            region.jobs.len(),
        );
        layer.set("cluster.reconnects", reconnects as f64, region.jobs.len());
        layer.set(
            "cluster.speculative_tasks",
            speculative as f64,
            region.jobs.len(),
        );
        region.layer = layer;
        Ok(region)
    }

    /// The first job again in this process: the distributed best network
    /// must be bit-equal to it. Its wall time is the base of
    /// `cluster.parallel_efficiency`: core-seconds in-process over
    /// core-seconds distributed, for the same job.
    fn verify(&mut self, region: &Region) -> Result<Verdict, String> {
        let Some(timed) = region.jobs.first() else {
            return Ok(Verdict::default());
        };
        let control = run_in_process(&self.generator.cold(0), None, None, None)?;
        let mut verdict = Verdict::of_control(
            timed,
            &control.sample,
            "distributed job 0 differs from its in-process run",
        );
        let distributed_s = mean(&region.job_walls());
        let (in_process, distributed) = (
            control.sample.wall_s * self.threads as f64,
            distributed_s * WORKERS as f64,
        );
        verdict.layer.set(
            "cluster.parallel_efficiency",
            in_process / distributed,
            region.jobs.len(),
        );
        verdict.notes.push(format!(
            "cluster.parallel_efficiency = {in_process:.3} core-s in-process ({:.3} s x {} threads) / \
             {distributed:.3} core-s distributed ({distributed_s:.3} s x {WORKERS} workers x 1 thread)",
            control.sample.wall_s, self.threads
        ));
        Ok(verdict)
    }
}
