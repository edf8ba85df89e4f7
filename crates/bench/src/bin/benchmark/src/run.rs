//! One benchmark run of one workload: set-up, timed region, output checks,
//! and the metrics they add up to — end-to-end for an untraced run,
//! per-layer for a traced one.

use std::path::PathBuf;

use crate::catalog::{self, Better, Metrics, END_TO_END, PER_LAYER};
use crate::jobs::Shape;
use crate::layers;
use crate::procs;
use crate::stats::{mean, median, quantile, tail_percentile};
use crate::trace::{self_times, Tracer};
use crate::workloads::{self, repeat_setup, Config, Region, Verdict};

/// How a run is made.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    /// Length of the timed region (the last job is always finished).
    pub seconds: f64,
    pub shape: Shape,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub traced: bool,
    /// Where a traced run writes `trace.ndjson`.
    pub out: Option<PathBuf>,
}

/// One reported metric.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    pub n: usize,
}

/// What a run produced.
pub struct Outcome {
    pub traced: bool,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Lines for people: tail percentiles, where the trace went.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every metric this kind of run reports, in catalog order. A per-layer
    /// metric the workload has no traffic for reads 0 with `n = 0`.
    pub fn rows(&self) -> Vec<Row> {
        let row = |name: &'static str, unit: &'static str, better: Better| {
            let (value, n) = self.metrics.get(name).unwrap_or((0.0, 0));
            Row {
                name,
                unit,
                better,
                value,
                n,
            }
        };
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| row(m.name, m.unit, m.better))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| row(m.name, m.unit, m.better))
                .collect()
        }
    }
}

/// Compute threads of every process that trains in-process.
pub fn compute_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Operations attempted and failed, and what failed, over the regions of a
/// run and its control checks.
fn tally(regions: &[&Region], verdict: &Verdict) -> (usize, usize, Vec<String>) {
    let attempted = regions.iter().map(|r| r.attempted).sum::<usize>() + verdict.checks;
    let failed =
        regions.iter().map(|r| r.failed).sum::<usize>() + usize::from(!verdict.failures.is_empty());
    let failures = regions
        .iter()
        .flat_map(|r| &r.failures)
        .chain(&verdict.failures)
        .cloned()
        .collect();
    (attempted, failed, failures)
}

/// "p50 … / pNN … (n=…)" with the highest percentile that still has ten
/// samples beyond it.
fn timing_note(what: &str, unit: &str, samples: &[f64]) -> String {
    let tail = tail_percentile(samples.len())
        .and_then(|p| quantile(samples, p / 100.0).map(|v| format!(", p{p} {v:.4} {unit}")))
        .unwrap_or_default();
    format!(
        "{what}: p50 {:.4} {unit}{tail} (n={})",
        median(samples),
        samples.len()
    )
}

pub fn run(workload: &str, settings: &Settings) -> Result<Outcome, String> {
    let threads = compute_threads();
    wootz_par::set_threads(threads);
    let cfg = Config {
        seed: settings.seed,
        shape: settings.shape,
        threads,
    };
    if settings.traced {
        traced(workload, cfg, settings)
    } else {
        untraced(workload, cfg, settings)
    }
}

fn untraced(workload: &str, cfg: Config, settings: &Settings) -> Result<Outcome, String> {
    let (mut state, setup_s) =
        repeat_setup(settings.setup_reps, || workloads::setup(workload, cfg))?;
    let region = state.region(settings.seconds, None)?;
    let verdict = state.verify(&region)?;
    drop(state);

    let walls = region.job_walls();
    let mut metrics = Metrics::default();
    metrics.set(catalog::JOB_S_MEAN, mean(&walls), walls.len());
    metrics.set(catalog::EVALS_PER_S, region.evals_per_s, walls.len());
    metrics.set(catalog::JOBS_PER_S, region.jobs_per_s, region.attempted);
    metrics.set(catalog::PEAK_RSS_MB, region.peak_rss_kb as f64 / 1024.0, 1);
    metrics.set(catalog::SETUP_S, setup_s, settings.setup_reps);
    let mut notes = vec![
        format!("compute threads {} (nproc capped at 4)", cfg.threads),
        timing_note("job", "s", &walls),
    ];
    if !region.replays_ms.is_empty() {
        notes.push(timing_note("replay", "ms", &region.replays_ms));
    }
    notes.extend(verdict.notes.iter().cloned());
    let (attempted, failed, failures) = tally(&[&region], &verdict);
    Ok(Outcome {
        traced: false,
        attempted,
        failed,
        failures,
        metrics,
        notes,
    })
}

/// `part / (part + rest)`, or 0 when both are 0.
fn share(part: u64, rest: u64) -> f64 {
    part as f64 / (part + rest).max(1) as f64
}

/// The per-layer metrics a traced region yields by itself: counter traffic
/// of every process that worked on its jobs, and the jobs' phases.
fn region_metrics(region: &Region, metrics: &mut Metrics) {
    let n = region.jobs.len();
    let count = |name: &str| region.counts.get(name);
    let per_job = |name: &str| count(name) as f64 / n.max(1) as f64;
    let flops = [
        "tensor.conv2d.flops",
        "tensor.conv2d_backward.flops",
        "tensor.dense.flops",
        "tensor.dense_backward.flops",
        "tensor.batch_norm.flops",
    ];
    metrics.set(
        "tensor.flops_per_job",
        flops.iter().map(|name| per_job(name)).sum(),
        n,
    );
    metrics.set(
        "tensor.conv_calls_per_job",
        per_job("tensor.conv2d.calls") + per_job("tensor.conv2d_backward.calls"),
        n,
    );
    metrics.set(
        "par.inline_batch_share",
        share(count("par.inline_batches"), count("par.batches")),
        n,
    );
    metrics.set(
        "store.hit_ratio",
        share(count("store.hits"), count("store.misses")),
        n,
    );
    metrics.set("store.bytes_served", per_job("store.served_bytes"), n);

    // Medians over the jobs, and over the jobs whose progress events were
    // seen (a distributed run reports none).
    let phases: Vec<&workloads::Phases> = region
        .jobs
        .iter()
        .filter_map(|j| j.phases.as_ref())
        .collect();
    let mut set_median =
        |name: &str, values: Vec<f64>| metrics.set(name, median(&values), values.len());
    let of_phases =
        |f: fn(&workloads::Phases) -> f64| phases.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let of_jobs =
        |f: fn(&workloads::JobSample) -> f64| region.jobs.iter().map(f).collect::<Vec<f64>>();
    let pretrain_s = of_phases(|p| p.pretrain_s());
    let pretrain_steps = of_jobs(|j| j.pretrain_steps as f64);
    let step_us = match median(&pretrain_steps) {
        steps if steps > 0.0 => median(&pretrain_s) * 1e6 / steps,
        _ => 0.0,
    };
    set_median("full_model.busy_s", of_phases(|p| p.full_model_s()));
    set_median("pretrain.busy_s", pretrain_s);
    set_median("explore.busy_s", of_phases(|p| p.explore_s()));
    set_median("pretrain.blocks", of_phases(|p| p.blocks_pretrained as f64));
    set_median("pretrain.steps", pretrain_steps);
    set_median("explore.evals", of_jobs(|j| j.evals as f64));
    set_median(
        "explore.evals_to_target",
        of_jobs(|j| j.evals_to_target as f64),
    );
    set_median("journal.bytes_per_job", of_jobs(|j| j.journal_bytes as f64));
    metrics.set("pretrain.step_us", step_us, phases.len());
    // Blocks trained more than once across the traced jobs: two tenants
    // that miss the same key at the same time both train it.
    let trained: usize = phases.iter().map(|p| p.blocks_pretrained).sum();
    let published = count("store.inserts") as f64;
    let duplicated = if published > 0.0 {
        (trained as f64 / published - 1.0).max(0.0)
    } else {
        0.0
    };
    metrics.set("store.duplicate_pretrain_share", duplicated, n);
}

/// A shorter copy of the workload twice — spans off, then spans on — plus
/// the layer probes. End-to-end numbers never come from here.
fn traced(workload: &str, cfg: Config, settings: &Settings) -> Result<Outcome, String> {
    let mut state = workloads::setup(workload, cfg)?;
    let plain = state.region(settings.seconds / 3.0, None)?;
    wootz_obs::enable();
    let tracer = Tracer::new();
    let region = state.region(settings.seconds / 3.0, Some(&tracer))?;
    let verdict = state.verify(&region)?;
    drop(state);
    let mut metrics = layers::probe(cfg, &tracer)?;
    wootz_obs::disable();

    region_metrics(&region, &mut metrics);
    let n = region.jobs.len();
    let overhead = mean(&region.job_walls()) / mean(&plain.job_walls());
    metrics.set("trace.overhead_ratio", overhead, n.min(plain.jobs.len()));
    metrics.merge(region.layer.clone());
    metrics.merge(verdict.layer.clone());
    let (attempted, failed, failures) = tally(&[&plain, &region], &verdict);

    let out = settings
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(procs::WORK_ROOT).join(format!("trace-{workload}")));
    let path = out.join("trace.ndjson");
    tracer
        .write_ndjson(&path)
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    let spans = tracer.spans();
    let self_us: u64 = self_times(&spans).iter().sum();
    let mut notes = vec![
        format!("compute threads {} (nproc capped at 4)", cfg.threads),
        format!(
            "{} spans ({} ms of self time) in {}",
            spans.len(),
            self_us / 1000,
            path.display()
        ),
        timing_note("traced job", "s", &region.job_walls()),
        timing_note("untraced job", "s", &plain.job_walls()),
    ];
    notes.extend(verdict.notes.iter().cloned());
    Ok(Outcome {
        traced: true,
        attempted,
        failed,
        failures,
        metrics,
        notes,
    })
}
