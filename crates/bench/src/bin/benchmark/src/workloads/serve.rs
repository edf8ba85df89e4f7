//! `serve_mixed`: a real daemon process and two closed-loop clients that
//! speak `SubmitJob` over `wootz-wire` from this process.
//!
//! Each client owns families of jobs (a family has its own solver seed, so
//! its own teacher and its own store keys). Per family, in order: one novel
//! job, the same inputs under two other objectives (new job ids, every block
//! warm), and [`REPLAYS`] exact resubmissions that the daemon answers from
//! the jobs' journals. A client blocks on each reply before it sends the
//! next job, as `wootz submit` does; the daemon has no queue.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use wootz_cluster::{job_code, Message};
use wootz_core::pipeline::BestNetwork;
use wootz_wire::Limits;

use super::{check_outcome, Config, Counts, JobSample, Phases, Region, Verdict, Workload};
use crate::catalog::Metrics;
use crate::jobs::{Family, Generator, JobSpec};
use crate::procs::{Daemon, WorkDir};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Client connections, each on its own thread of the load generator.
const CLIENTS: usize = 2;
/// Exact resubmissions per family, spread over its three jobs.
const REPLAYS: usize = 30;
/// Submissions of one job before a busy daemon counts as a failure.
const ADMISSION_TRIES: usize = 100;

/// One submission, as the client saw it.
struct Reply {
    job_id: String,
    code: u32,
    detail: String,
    /// Arrival instant and NDJSON line of every `JobEvent`.
    events: Vec<(Instant, String)>,
    submitted: Instant,
    done: Instant,
    /// Time blocked reading from the daemon.
    waited: Duration,
}

/// Submits `job` until the daemon admits it. The daemon frees a job id only
/// after it has sent the job's `JobDone`, so a prompt resubmission can be
/// refused as busy; like a scripted `wootz submit`, the client then tries
/// again. Refusals are counted (`serve.busy_refusals`) and their time stays
/// in the latency the client saw; an operation fails only if it is still
/// refused after [`ADMISSION_TRIES`] submissions.
fn submit_until_admitted(addr: &str, job: &JobSpec, busy: &mut usize) -> Result<Reply, String> {
    let first = Instant::now();
    let mut waited = Duration::ZERO;
    for _ in 0..ADMISSION_TRIES {
        let mut reply = submit(addr, job)?;
        waited += reply.waited;
        if reply.code != job_code::BUSY {
            reply.submitted = first;
            reply.waited = waited;
            return Ok(reply);
        }
        *busy += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(format!(
        "still refused as busy after {ADMISSION_TRIES} submissions"
    ))
}

/// Submits `job` and blocks until its `JobDone`, as `wootz submit` does.
fn submit(addr: &str, job: &JobSpec) -> Result<Reply, String> {
    let submitted = Instant::now();
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect `{addr}`: {e}"))?;
    let message = Message::SubmitJob {
        model: job.model_text.clone(),
        configs: job.configs_json(),
        solver: job.solver_text.clone(),
        objective: job.objective_text.clone(),
        mode: job.mode_text().to_string(),
        explorer: String::new(),
        explorer_budget: 0,
    };
    message
        .write_to(&mut stream)
        .map_err(|e| e.to_string())
        .and_then(|_| stream.flush().map_err(|e| e.to_string()))
        .map_err(|e| format!("cannot send SubmitJob: {e}"))?;
    let mut events = Vec::new();
    let mut waited = Duration::ZERO;
    loop {
        let blocked = Instant::now();
        let received = Message::read_from(&mut stream, &Limits::DEFAULT);
        waited += blocked.elapsed();
        match received {
            Ok((Message::JobEvent { event, .. }, _)) => events.push((Instant::now(), event)),
            Ok((Message::JobDone { job, code, detail }, _)) => {
                return Ok(Reply {
                    job_id: job,
                    code,
                    detail,
                    events,
                    submitted,
                    done: Instant::now(),
                    waited,
                })
            }
            Ok((other, _)) => return Err(format!("unexpected {} from the daemon", other.name())),
            Err(e) => return Err(format!("connection lost: {e}")),
        }
    }
}

/// The fields of a `JobDone` result document the checks read.
struct Report {
    value: serde_json::Value,
}

impl Report {
    fn parse(detail: &str) -> Result<Report, String> {
        serde_json::from_str(detail)
            .map(|value| Report { value })
            .map_err(|e| format!("result is not JSON: {e}"))
    }

    fn count(&self, key: &str) -> usize {
        self.value[key].as_u64().unwrap_or(0) as usize
    }

    fn best(&self) -> Option<BestNetwork> {
        let best = &self.value["best"];
        Some(BestNetwork {
            config_index: best["config_index"].as_u64()? as usize,
            rates: best["rates"]
                .as_array()?
                .iter()
                .map(|r| r.as_u64().map(|r| r as u8))
                .collect::<Option<_>>()?,
            model_size: best["model_size"].as_u64()? as usize,
            accuracy: best["accuracy"].as_f64()?,
        })
    }

    /// The document without `finetune_steps`, the one field a replay may
    /// change (it evaluates nothing).
    fn without_finetune_steps(&self) -> String {
        let fields: Vec<String> = self
            .value
            .as_object()
            .map(|fields| {
                fields
                    .iter()
                    .filter(|(key, _)| key != "finetune_steps")
                    .map(|(key, value)| format!("{key}={}", value.to_json()))
                    .collect()
            })
            .unwrap_or_default();
        fields.join(";")
    }
}

fn event_kind(line: &str) -> String {
    serde_json::from_str::<serde_json::Value>(line)
        .ok()
        .and_then(|v| v["event"].as_str().map(str::to_string))
        .unwrap_or_default()
}

fn phases_of(reply: &Reply) -> Phases {
    let at = |kind: &str| -> Vec<Instant> {
        reply
            .events
            .iter()
            .filter(|(_, line)| event_kind(line) == kind)
            .map(|(at, _)| *at)
            .collect()
    };
    let full_model_ready = at("full_model").first().copied().unwrap_or(reply.submitted);
    let pretrained = at("block_pretrained");
    let blocks_ready = pretrained
        .iter()
        .chain(&at("block_cache_hit"))
        .max()
        .copied()
        .unwrap_or(full_model_ready);
    Phases {
        start: reply.submitted,
        full_model_ready,
        blocks_ready,
        evals_done: at("eval_done"),
        end: reply.done,
        blocks_pretrained: pretrained.len(),
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    jobs: Vec<JobSample>,
    replays_ms: Vec<f64>,
    first_event_ms: Vec<f64>,
    operations: Vec<Vec<String>>,
    busy: usize,
    evals: usize,
    waited: Duration,
    elapsed: Duration,
}

/// Submits `job` until admitted and parses the result of a successful run.
fn submit_for_result(
    daemon: &Daemon,
    job: &JobSpec,
    log: &mut ClientLog,
) -> Result<(Reply, Report), String> {
    let reply = submit_until_admitted(daemon.addr(), job, &mut log.busy)?;
    log.waited += reply.waited;
    if reply.code != job_code::OK {
        return Err(format!("code {} ({})", reply.code, reply.detail));
    }
    let report = Report::parse(&reply.detail)?;
    Ok((reply, report))
}

/// Submits one non-replay job and checks its result. Returns the result
/// document for the replays to be compared with.
fn fresh_job(
    daemon: &Daemon,
    job: &JobSpec,
    what: &str,
    cold: bool,
    log: &mut ClientLog,
) -> Option<String> {
    let (reply, report) = match submit_for_result(daemon, job, log) {
        Ok(done) => done,
        Err(e) => {
            log.operations.push(vec![format!("{what}: {e}")]);
            return None;
        }
    };
    let phases = phases_of(&reply);
    let evals = report.count("configs_explored");
    let best = report.best();
    let mut failures = check_outcome(what, job, evals, best.as_ref());
    let pretrain_steps = report.count("pretrain_steps");
    if cold
        && (pretrain_steps == 0 || phases.blocks_pretrained != report.count("blocks_pretrained"))
    {
        failures.push(format!("{what}: a novel job did not pre-train its blocks"));
    }
    if !cold && (pretrain_steps != 0 || phases.blocks_pretrained != 0) {
        failures.push(format!("{what}: a warm job pre-trained blocks"));
    }
    if phases.evals_done.len() != evals {
        failures.push(format!(
            "{what}: {} eval events for {evals} evaluations",
            phases.evals_done.len()
        ));
    }
    log.operations.push(failures);
    log.evals += evals;
    if let Some((first, _)) = reply.events.first() {
        log.first_event_ms
            .push((*first - reply.submitted).as_secs_f64() * 1e3);
    }
    log.jobs.push(JobSample {
        wall_s: (reply.done - reply.submitted).as_secs_f64(),
        evals,
        evals_to_target: evals,
        pretrain_steps,
        phases: Some(phases),
        journal_bytes: std::fs::metadata(daemon.journal_of(&reply.job_id)).map_or(0, |m| m.len()),
        best,
        full_accuracy: report.value["full_accuracy"].as_f64().unwrap_or(f64::NAN),
    });
    Some(reply.detail)
}

/// Resubmits `job` and checks the daemon answered from its journal with the
/// original's result: every field but `finetune_steps` equal, nothing
/// evaluated.
fn replay(daemon: &Daemon, job: &JobSpec, original: &str, what: &str, log: &mut ClientLog) {
    let failures = match submit_for_result(daemon, job, log) {
        Err(e) => vec![format!("{what}: {e}")],
        Ok((reply, now)) => {
            log.replays_ms
                .push((reply.done - reply.submitted).as_secs_f64() * 1e3);
            let same = Report::parse(original).is_ok_and(|then| {
                now.without_finetune_steps() == then.without_finetune_steps()
                    && now.count("finetune_steps") == 0
            });
            let evaluated = reply
                .events
                .iter()
                .any(|(_, line)| event_kind(line) == "eval_done");
            if same && !evaluated {
                Vec::new()
            } else {
                vec![format!("{what}: the replay differs from the original")]
            }
        }
    };
    log.operations.push(failures);
}

fn run_family(daemon: &Daemon, family: &Family, tag: &str, log: &mut ClientLog) {
    let jobs = [&family.cold, &family.warm[0], &family.warm[1]];
    let originals: Vec<Option<String>> = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| fresh_job(daemon, job, &format!("{tag} job {j}"), j == 0, log))
        .collect();
    for r in 0..REPLAYS {
        let j = r % jobs.len();
        if let Some(original) = &originals[j] {
            replay(daemon, jobs[j], original, &format!("{tag} replay {r}"), log);
        }
    }
}

/// `serve_mixed` after set-up: a warmed-up daemon over an empty store.
pub struct Mixed {
    generator: Generator,
    daemon: Daemon,
    _work: WorkDir,
    /// Families already submitted, so a second region meets no journals.
    families_done: u64,
}

impl Mixed {
    /// Set-up starts the daemon and sends one untimed job through it (its
    /// own family, so it warms the process and none of the timed keys).
    pub fn setup(cfg: Config) -> Result<Mixed, String> {
        let work = WorkDir::new("serve_mixed").map_err(|e| e.to_string())?;
        let daemon = Daemon::start(work.path(), cfg.threads)?;
        let generator = Generator::new(cfg.seed, cfg.shape);
        let warm_up = generator.novel("serve-warm-up", 0, generator.family(0, 0).cold.mode);
        let reply = submit(daemon.addr(), &warm_up)?;
        if reply.code != job_code::OK {
            return Err(format!(
                "the warm-up job failed: code {} ({})",
                reply.code, reply.detail
            ));
        }
        Ok(Mixed {
            generator,
            daemon,
            _work: work,
            families_done: 0,
        })
    }
}

impl Workload for Mixed {
    fn region(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Result<Region, String> {
        if tracer.is_some() {
            self.daemon.trace()?;
        }
        let before = self.daemon.dump()?;
        let first_family = self.families_done;
        let (generator, daemon) = (&self.generator, &self.daemon);
        let start = Instant::now();
        let logs: Vec<(ClientLog, u64)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let mut log = ClientLog::default();
                        let mut families = 0;
                        // Whole families only, so the job mix is the same
                        // whatever the speed of the host.
                        while families == 0 || start.elapsed().as_secs_f64() < seconds {
                            let index = first_family + families;
                            let family = generator.family(client, index);
                            let tag = format!("client {client} family {index}");
                            run_family(daemon, &family, &tag, &mut log);
                            families += 1;
                        }
                        log.elapsed = start.elapsed();
                        (log, families)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread does not panic"))
                .collect()
        });
        let after = self.daemon.dump()?;
        self.families_done += logs
            .iter()
            .map(|(_, families)| *families)
            .max()
            .unwrap_or(0);

        let mut region = Region::default();
        let mut first_event_ms = Vec::new();
        let (mut busy, mut waited, mut elapsed) = (0, 0.0, 0.0);
        for (client, (log, _)) in logs.into_iter().enumerate() {
            // Each client's own rate over its own time: the clients stop at
            // different family boundaries.
            let own = log.elapsed.as_secs_f64();
            let ok = log.operations.iter().filter(|f| f.is_empty()).count();
            region.jobs_per_s += ok as f64 / own;
            region.evals_per_s += log.evals as f64 / own;
            for failures in log.operations {
                region.note(failures);
            }
            if let Some(tracer) = tracer {
                for (j, job) in log.jobs.iter().enumerate() {
                    if let Some(phases) = &job.phases {
                        phases.record(tracer, client * 1_000_000 + j);
                    }
                }
            }
            region.jobs.extend(log.jobs);
            region.replays_ms.extend(log.replays_ms);
            first_event_ms.extend(log.first_event_ms);
            busy += log.busy;
            waited += log.waited.as_secs_f64();
            elapsed += own;
        }
        region.peak_rss_kb = self.daemon.vm_hwm_kb().unwrap_or(0);
        region.counts = Counts::of_child(&after).since(&Counts::of_child(&before));

        let submissions = (region.jobs.len() + region.replays_ms.len()).max(1) as f64;
        let mut layer = Metrics::default();
        layer.set(
            "serve.first_event_ms_p50",
            median(&first_event_ms),
            first_event_ms.len(),
        );
        layer.set(
            "serve.replay_ms_p50",
            median(&region.replays_ms),
            region.replays_ms.len(),
        );
        layer.set(
            "serve.replay_ms_p95",
            quantile(&region.replays_ms, 0.95).unwrap_or(0.0),
            region.replays_ms.len(),
        );
        layer.set("serve.busy_refusals", busy as f64, 1);
        layer.set("serve.client_wait_share", waited / elapsed, CLIENTS);
        layer.set(
            "wire.frames_per_job",
            region.counts.get("wire.frames") as f64 / submissions,
            submissions as usize,
        );
        layer.set(
            "wire.bytes_per_job",
            region.counts.get("wire.frames_bytes") as f64 / submissions,
            submissions as usize,
        );
        region.layer = layer;
        Ok(region)
    }

    /// Every reply was checked when it arrived (replays against their
    /// originals byte for byte); nothing is left to do outside the region.
    fn verify(&mut self, _region: &Region) -> Result<Verdict, String> {
        Ok(Verdict::default())
    }
}
