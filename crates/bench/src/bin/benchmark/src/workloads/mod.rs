//! The four workloads and what they share: running one generated job
//! in-process, checking its output against what the generator predicted,
//! and the samples a timed region collects.

pub mod cluster;
pub mod prune;
pub mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use wootz_core::explore::ExplorationResult;
use wootz_core::pipeline::{run_wootz_with, BestNetwork, RunEvent, RunOptions, WootzRun};
use wootz_data::micro_dataset;
use wootz_fault::RetryPolicy;
use wootz_nn::Checkpoint;
use wootz_store::BlockStore;

use crate::catalog;
use crate::jobs::{JobSpec, Shape};
use crate::procs::{vm_hwm_kb, ChildDump};
use crate::trace::Tracer;

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub shape: Shape,
    /// Compute threads of every process that trains in-process.
    pub threads: usize,
}

/// A workload after set-up: it can run timed regions and check itself.
pub trait Workload {
    /// Runs jobs for about `seconds` (always whole jobs, at least one) and
    /// returns what was measured. With a tracer, records spans around every
    /// job and phase.
    fn region(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Result<Region, String>;

    /// Output checks that need extra work outside the timed region
    /// (control runs).
    fn verify(&mut self, region: &Region) -> Result<Verdict, String>;
}

/// What [`Workload::verify`] found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checks: usize,
    pub failures: Vec<String>,
    /// Per-layer values a control run yields as a by-product, and the base
    /// they were computed from, for people.
    pub layer: catalog::Metrics,
    pub notes: Vec<String>,
}

impl Verdict {
    /// One check: the timed job against its control run.
    fn of_control(timed: &JobSample, control: &JobSample, what: &str) -> Verdict {
        let same = control.best == timed.best
            && control.full_accuracy.to_bits() == timed.full_accuracy.to_bits();
        Verdict {
            checks: 1,
            failures: if same {
                Vec::new()
            } else {
                vec![what.to_string()]
            },
            ..Verdict::default()
        }
    }
}

/// Sets `name` up once. Dropping the result tears it down.
pub fn setup(name: &str, cfg: Config) -> Result<Box<dyn Workload>, String> {
    match name {
        catalog::PRUNE_COLD => Ok(Box::new(prune::Cold::setup(cfg)?)),
        catalog::PRUNE_WARM => Ok(Box::new(prune::Warm::setup(cfg)?)),
        catalog::SERVE_MIXED => Ok(Box::new(serve::Mixed::setup(cfg)?)),
        catalog::CLUSTER_TCP => Ok(Box::new(cluster::Tcp::setup(cfg)?)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// `wootz-obs` counters the per-layer metrics are computed from, summed
/// over every process that did pipeline work.
pub const TRACKED: [&str; 15] = [
    "tensor.conv2d.calls",
    "tensor.conv2d.flops",
    "tensor.conv2d_backward.calls",
    "tensor.conv2d_backward.flops",
    "tensor.dense.flops",
    "tensor.dense_backward.flops",
    "tensor.batch_norm.flops",
    "par.batches",
    "par.inline_batches",
    "wire.frames",
    "wire.frames_bytes",
    "store.hits",
    "store.misses",
    "store.inserts",
    "store.served_bytes",
];

/// Counter values by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    /// This process's registry, now.
    pub fn local() -> Counts {
        Counts(
            TRACKED
                .iter()
                .map(|&n| (n, wootz_obs::counter(n).get()))
                .collect(),
        )
    }

    pub fn of_child(dump: &ChildDump) -> Counts {
        Counts(TRACKED.iter().map(|&n| (n, dump.counter(n))).collect())
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(&n, &v)| (n, v - earlier.get(n)))
                .collect(),
        )
    }

    pub fn add(&mut self, other: &Counts) {
        for (&name, &value) in &other.0 {
            *self.0.entry(name).or_insert(0) += value;
        }
    }
}

/// When each phase of a job ended, from its `RunEvent` stream.
#[derive(Debug, Clone)]
pub struct Phases {
    pub start: Instant,
    pub full_model_ready: Instant,
    /// Last block trained or served from the store; the full-model instant
    /// when the job has no block events.
    pub blocks_ready: Instant,
    pub evals_done: Vec<Instant>,
    pub end: Instant,
    pub blocks_pretrained: usize,
}

impl Phases {
    pub fn full_model_s(&self) -> f64 {
        (self.full_model_ready - self.start).as_secs_f64()
    }

    pub fn pretrain_s(&self) -> f64 {
        (self.blocks_ready - self.full_model_ready).as_secs_f64()
    }

    pub fn explore_s(&self) -> f64 {
        (self.end - self.blocks_ready).as_secs_f64()
    }

    /// Records the job and its phases as spans.
    pub fn record(&self, tracer: &Tracer, job: usize) {
        let root = tracer.record("job", None, job, self.start, self.end);
        tracer.record(
            "full_model",
            Some(root),
            job,
            self.start,
            self.full_model_ready,
        );
        tracer.record(
            "pretrain",
            Some(root),
            job,
            self.full_model_ready,
            self.blocks_ready,
        );
        let explore = tracer.record("explore", Some(root), job, self.blocks_ready, self.end);
        // Evaluations of one round finish together; each span runs from the
        // previous report to its own.
        let mut from = self.blocks_ready;
        for &done in &self.evals_done {
            tracer.record("finetune.eval", Some(explore), job, from.min(done), done);
            from = done;
        }
    }
}

/// One finished job of a timed region.
#[derive(Debug, Clone)]
pub struct JobSample {
    pub wall_s: f64,
    pub evals: usize,
    /// Evaluations up to and including the first that met the objective.
    pub evals_to_target: usize,
    pub pretrain_steps: usize,
    pub phases: Option<Phases>,
    pub journal_bytes: u64,
    pub best: Option<BestNetwork>,
    pub full_accuracy: f64,
}

/// What one timed region measured.
#[derive(Debug, Default)]
pub struct Region {
    /// Jobs that did work (replays are in `replays_ms`).
    pub jobs: Vec<JobSample>,
    pub replays_ms: Vec<f64>,
    pub jobs_per_s: f64,
    pub evals_per_s: f64,
    /// Peak resident memory of the processes that did the work, KiB.
    pub peak_rss_kb: u64,
    /// Operations attempted (jobs and replays, each with its output check).
    pub attempted: usize,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: usize,
    pub failures: Vec<String>,
    /// Counter increments during the region, all working processes summed.
    pub counts: Counts,
    /// Workload-specific per-layer values (serve and cluster fill these).
    pub layer: catalog::Metrics,
}

impl Region {
    pub fn job_walls(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.wall_s).collect()
    }

    /// Counts one attempted operation and what its checks found wrong.
    pub fn note(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        self.failed += usize::from(!failures.is_empty());
        self.failures.extend(failures);
    }
}

/// Runs jobs `0, 1, ...` one after another until `seconds` have passed (the
/// last one is always finished) and folds them into a region: samples,
/// failures, rates, this process's counter increments and peak memory.
/// `one` runs job `index` and returns its sample and its checks' failures;
/// a job that could not run at all counts as one failed operation.
pub fn closed_loop(
    seconds: f64,
    tracer: Option<&Tracer>,
    mut one: impl FnMut(u64) -> Result<(JobSample, Vec<String>), String>,
) -> Region {
    let mut region = Region::default();
    let before = Counts::local();
    let start = Instant::now();
    let mut evals = 0;
    for index in 0.. {
        let job_start = Instant::now();
        match one(index) {
            Ok((sample, failures)) => {
                evals += sample.evals;
                region.note(failures);
                match (tracer, &sample.phases) {
                    (Some(tracer), Some(phases)) => phases.record(tracer, index as usize),
                    (Some(tracer), None) => {
                        tracer.record("job", None, index as usize, job_start, Instant::now());
                    }
                    (None, _) => {}
                }
                region.jobs.push(sample);
            }
            Err(e) => region.note(vec![format!("job {index}: {e}")]),
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    region.jobs_per_s = (region.attempted - region.failed) as f64 / wall;
    region.evals_per_s = evals as f64 / wall;
    region.counts = Counts::local().since(&before);
    region.peak_rss_kb = vm_hwm_kb(std::process::id()).unwrap_or(0);
    region
}

/// The result of running one job in this process.
pub struct InProcess {
    pub run: WootzRun,
    pub sample: JobSample,
}

/// Runs `job` as `wootz prune` would: parse the texts, build the dataset,
/// run the pipeline. The clock covers all of it.
pub fn run_in_process(
    job: &JobSpec,
    full: Option<(Checkpoint, f64)>,
    store: Option<&BlockStore>,
    journal: Option<PathBuf>,
) -> Result<InProcess, String> {
    let start = Instant::now();
    let inputs = job.inputs();
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let events: Mutex<Vec<(Instant, RunEvent)>> = Mutex::new(Vec::new());
    let progress = |event: &RunEvent| {
        events
            .lock()
            .expect("the callback runs on one thread")
            .push((Instant::now(), event.clone()));
    };
    let opts = RunOptions {
        retry: RetryPolicy::abort_fast(),
        journal: journal.clone(),
        store,
        progress: Some(&progress),
        ..RunOptions::default()
    };
    let run =
        run_wootz_with(&inputs, &dataset, job.mode, full, &opts).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let events = events
        .into_inner()
        .expect("the callback runs on one thread");
    let journal_bytes = journal
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    let sample = JobSample {
        wall_s: (end - start).as_secs_f64(),
        evals: run.exploration.configs_explored,
        evals_to_target: evals_to_target(&run.exploration),
        pretrain_steps: run.pretrain_steps,
        phases: Some(phases(start, end, &events)),
        journal_bytes,
        best: run.best.clone(),
        full_accuracy: run.full_accuracy,
    };
    Ok(InProcess { run, sample })
}

/// Evaluations up to and including the first that met the objective.
pub fn evals_to_target(exploration: &ExplorationResult) -> usize {
    let evaluated = &exploration.evaluated;
    evaluated
        .iter()
        .position(|r| r.satisfies())
        .map_or(evaluated.len(), |at| at + 1)
}

fn phases(start: Instant, end: Instant, events: &[(Instant, RunEvent)]) -> Phases {
    let full_model_ready = events
        .iter()
        .find(|(_, e)| matches!(e, RunEvent::FullModelReady { .. }))
        .map_or(start, |(at, _)| *at);
    let block_events = events.iter().filter(|(_, e)| {
        matches!(
            e,
            RunEvent::BlockPretrained { .. } | RunEvent::BlockCacheHit { .. }
        )
    });
    Phases {
        start,
        full_model_ready,
        blocks_ready: block_events
            .map(|(at, _)| *at)
            .max()
            .unwrap_or(full_model_ready),
        evals_done: events
            .iter()
            .filter(|(_, e)| matches!(e, RunEvent::EvalDone { .. }))
            .map(|(at, _)| *at)
            .collect(),
        end,
        blocks_pretrained: events
            .iter()
            .filter(|(_, e)| matches!(e, RunEvent::BlockPretrained { .. }))
            .count(),
    }
}

/// Checks a finished job against what the generator predicted for it.
/// The prediction is analytic (configuration sizes), independent of the
/// pipeline under test.
pub fn check_outcome(
    what: &str,
    job: &JobSpec,
    evals: usize,
    best: Option<&BestNetwork>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if evals != job.expect_evals {
        failures.push(format!(
            "{what}: evaluated {evals} configurations, expected {}",
            job.expect_evals
        ));
    }
    match (best, job.expect_best) {
        (None, _) => failures.push(format!("{what}: no best network")),
        (Some(best), Some(index)) if best.config_index != index => failures.push(format!(
            "{what}: best network is configuration {}, expected {index}",
            best.config_index
        )),
        (Some(best), _) if best.rates != job.configs[best.config_index].rates() => failures.push(
            format!("{what}: best network's rates are not its configuration's"),
        ),
        _ => {}
    }
    failures
}

/// Runs `f` `reps` times, keeping the last result and the median time.
/// Earlier results are dropped (and so torn down) before the next starts.
pub fn repeat_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one repetition ran"),
        crate::stats::median(&times),
    ))
}
