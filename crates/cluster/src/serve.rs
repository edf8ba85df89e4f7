//! `wootz serve`: pruning as a service.
//!
//! A long-lived daemon that accepts pruning jobs over the `wootz-wire`
//! framed TCP protocol and runs them against one shared, warm
//! [`wootz_store::BlockStore`] — so every job composes not only its own
//! tuning blocks but every block any *earlier* job (or tenant) already
//! pre-trained. The conversation is three message types (PROTOCOL.md §4,
//! operational guide in `SERVING.md`):
//!
//! ```text
//! client                              daemon
//!   | -- SubmitJob{model,configs,...} -->  |  parse, derive job id
//!   | <-- JobEvent{job,event} ----------   |  NDJSON milestones, streamed
//!   | <-- JobEvent{job,event} ----------   |
//!   | <-- JobDone{job,code,detail} -----   |  0 ok · 1 invalid · 2 busy · 3 failed
//! ```
//!
//! Jobs carry their four run inputs as *text* (model prototxt, subspace
//! JSON, solver prototxt, objective expression) — a client needs no
//! filesystem shared with the daemon. The job id is content-derived
//! (FNV-1a over the five input texts), which gives idempotent
//! resubmission for free: each job journals into
//! `<state>/jobs/<id>.journal` with `resume` semantics, so resubmitting
//! a finished or crashed job replays its journal instead of redoing
//! work, and two *concurrent* submissions of the same job are serialized
//! by the journal's single-writer lock (the loser is answered `busy`).
//! Distinct jobs run concurrently on their own connection threads,
//! sharing only the block store (internally synchronized) and the
//! metrics registry.
//!
//! A client that disconnects mid-job does not kill the job: event writes
//! degrade to no-ops and the run completes, warming the store for the
//! next submission — intentional multi-tenant semantics (the work is
//! valuable beyond the requester).

use std::collections::BTreeSet;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use wootz_core::explorer::ExplorerKind;
use wootz_core::pipeline::{
    run_wootz_with, RunEvent, RunMode, RunOptions, WootzInputs, WootzRun,
};
use wootz_core::prune::PruneConfig;
use wootz_data::micro_dataset;
use wootz_fault::{fnv1a64, RetryPolicy};
use wootz_ir::{ModelIr, Objective, SolverConfig};
use wootz_store::BlockStore;
use wootz_wire::Limits;

use serde::Serialize;
use wootz_core::pipeline::BestNetwork;
use wootz_core::Result;

use crate::messages::Message;
use crate::net::{lock_recover, recv_message, send_message};
use crate::protocol::cluster_err;

/// [`Message::JobDone`] outcome codes (PROTOCOL.md §4 is normative).
pub mod job_code {
    /// Job ran to completion; `detail` is the run-result JSON.
    pub const OK: u32 = 0;
    /// The submitted inputs failed to parse or validate.
    pub const INVALID: u32 = 1;
    /// The same job is already running (here or in another process
    /// holding its journal lock).
    pub const BUSY: u32 = 2;
    /// The pipeline itself failed; `detail` is the error message.
    pub const FAILED: u32 = 3;
}

/// Configuration of one serve daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to listen on (e.g. `127.0.0.1:7433`; port 0 picks one).
    pub listen: String,
    /// Block-store directory (created if missing, shared across jobs).
    pub store_dir: PathBuf,
    /// LRU byte budget for the store; `None` = unbounded.
    pub store_budget: Option<u64>,
    /// State directory for per-job journals (`<state>/jobs/`).
    pub state_dir: PathBuf,
}

/// One parsed, validated job submission.
#[derive(Debug)]
struct Job {
    id: String,
    inputs: WootzInputs,
    mode: RunMode,
    explorer: ExplorerKind,
    explorer_budget: usize,
}

/// Derives the content-addressed job id from the submitted texts plus
/// the exploration strategy. The explorer is part of the identity
/// because two submissions differing only in strategy journal different
/// proposal streams — resuming one under the other's id would be
/// rejected by the journal replay guard.
fn job_id(
    model: &str,
    configs: &str,
    solver: &str,
    objective: &str,
    mode: &str,
    explorer: &str,
    explorer_budget: u64,
) -> String {
    let budget = explorer_budget.to_string();
    let mut bytes = Vec::with_capacity(
        model.len()
            + configs.len()
            + solver.len()
            + objective.len()
            + mode.len()
            + explorer.len()
            + budget.len()
            + 7,
    );
    for part in [model, configs, solver, objective, mode, explorer, &budget] {
        bytes.extend_from_slice(part.as_bytes());
        bytes.push(0xff);
    }
    format!("j{:016x}", fnv1a64(&bytes))
}

/// Parses a submission into a runnable job, or a human-readable reason
/// it is invalid (sent back as [`job_code::INVALID`]).
fn parse_job(
    model: &str,
    configs: &str,
    solver: &str,
    objective: &str,
    mode: &str,
    explorer: &str,
    explorer_budget: u64,
) -> std::result::Result<Job, String> {
    let id = job_id(model, configs, solver, objective, mode, explorer, explorer_budget);
    let model = ModelIr::parse(model).map_err(|e| format!("model: {e}"))?;
    let raw: Vec<Vec<u8>> = serde_json::from_str(configs)
        .map_err(|e| format!("configs: must be a JSON array of rate arrays: {e}"))?;
    let subspace = raw
        .into_iter()
        .map(PruneConfig::new)
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(|e| format!("configs: {e}"))?;
    if subspace.is_empty() {
        return Err("configs: empty subspace".to_string());
    }
    let solver = SolverConfig::parse(solver).map_err(|e| format!("solver: {e}"))?;
    let objective = Objective::parse(objective).map_err(|e| format!("objective: {e}"))?;
    let mode = match mode {
        "" | "composability" => RunMode::Composability,
        "baseline" => RunMode::Baseline,
        "hierarchical" => RunMode::ComposabilityHierarchical,
        other => return Err(format!("mode: unknown mode `{other}`")),
    };
    let explorer = match explorer {
        "" => ExplorerKind::Fixed,
        other => ExplorerKind::parse(other).map_err(|e| format!("explorer: {e}"))?,
    };
    if !explorer.is_adaptive() && explorer_budget != 0 {
        return Err("explorer: explorer_budget requires an adaptive explorer (taylor or bandit)"
            .to_string());
    }
    Ok(Job {
        id,
        inputs: WootzInputs {
            model,
            subspace,
            solver,
            objective,
        },
        mode,
        explorer,
        explorer_budget: explorer_budget as usize,
    })
}

/// Formats one [`RunEvent`] as the NDJSON line streamed in
/// [`Message::JobEvent`] (schema: `SERVING.md` §4).
fn event_line(event: &RunEvent) -> String {
    match event {
        RunEvent::FullModelReady { accuracy } => {
            format!("{{\"event\":\"full_model\",\"accuracy\":{accuracy}}}")
        }
        RunEvent::BlockCacheHit { key } => format!(
            "{{\"event\":\"block_cache_hit\",\"key\":{}}}",
            serde_json::to_string(key).unwrap_or_default()
        ),
        RunEvent::BlockPretrained { key, steps } => format!(
            "{{\"event\":\"block_pretrained\",\"key\":{},\"steps\":{steps}}}",
            serde_json::to_string(key).unwrap_or_default()
        ),
        RunEvent::EvalDone {
            config_index,
            accuracy,
        } => {
            let acc = accuracy.map_or("null".to_string(), |a| a.to_string());
            format!(
                "{{\"event\":\"eval_done\",\"config_index\":{config_index},\"accuracy\":{acc}}}"
            )
        }
    }
}

/// Shared daemon state: the warm store plus the in-process active-job
/// guard (cross-process duplicates are caught by the journal lock).
struct Daemon {
    store: BlockStore,
    jobs_dir: PathBuf,
    active: Mutex<BTreeSet<String>>,
}

/// RAII membership in the active-job set.
struct ActiveGuard<'a> {
    daemon: &'a Daemon,
    id: String,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        lock_recover(&self.daemon.active).remove(&self.id);
        wootz_obs::gauge("serve.active").set(lock_recover(&self.daemon.active).len() as f64);
    }
}

/// Runs the serve daemon: binds `opts.listen`, prints
/// `serving on <addr>` on stdout once ready, then accepts connections
/// until the process is killed. Each connection is handled on its own
/// thread; see the module docs for the per-job protocol.
///
/// # Errors
///
/// Returns an error when the store cannot be opened (including the
/// legacy-format refusal), the state directory cannot be created, or the
/// listener cannot bind. Per-connection failures are answered or logged,
/// never fatal to the daemon.
pub fn serve(opts: &ServeOptions) -> Result<()> {
    let store = BlockStore::open(&opts.store_dir, opts.store_budget)
        .map_err(|e| cluster_err(e.to_string()))?;
    let jobs_dir = opts.state_dir.join("jobs");
    std::fs::create_dir_all(&jobs_dir)
        .map_err(|e| cluster_err(format!("cannot create `{}`: {e}", jobs_dir.display())))?;
    let listener = TcpListener::bind(&opts.listen)
        .map_err(|e| cluster_err(format!("cannot bind `{}`: {e}", opts.listen)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| cluster_err(e.to_string()))?;
    let stats = store.stats();
    println!(
        "serving on {addr} (store: {} entries, {} bytes{})",
        stats.entries,
        stats.bytes,
        match opts.store_budget {
            Some(b) => format!(", budget {b}"),
            None => String::new(),
        }
    );
    wootz_obs::event("serve.started")
        .field("addr", addr.to_string())
        .field("store_entries", stats.entries as usize)
        .emit();
    let daemon = Arc::new(Daemon {
        store,
        jobs_dir,
        active: Mutex::new(BTreeSet::new()),
    });
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                wootz_obs::counter("serve.connections").incr();
                let daemon = Arc::clone(&daemon);
                std::thread::spawn(move || handle_connection(&daemon, stream, peer.to_string()));
            }
            Err(e) => {
                wootz_obs::event("serve.accept_error")
                    .field("error", e.to_string())
                    .emit();
            }
        }
    }
}

/// Serves one client connection: reads a single [`Message::SubmitJob`],
/// runs it, and streams events + the terminal [`Message::JobDone`].
fn handle_connection(daemon: &Daemon, mut stream: TcpStream, peer: String) {
    let (model, configs, solver, objective, mode, explorer, explorer_budget) =
        match recv_message(&mut stream, &Limits::DEFAULT) {
            Ok(Message::SubmitJob {
                model,
                configs,
                solver,
                objective,
                mode,
                explorer,
                explorer_budget,
            }) => (model, configs, solver, objective, mode, explorer, explorer_budget),
            Ok(other) => {
                // Not job traffic (a confused worker, a port scan): answer
                // with a structured refusal and close.
                let writer = Mutex::new(stream);
                let _ = send_message(
                    &writer,
                    &Message::JobDone {
                        job: String::new(),
                        code: job_code::INVALID,
                        detail: format!("expected SubmitJob, got {}", other.name()),
                    },
                );
                return;
            }
            Err(_) => return,
        };
    let writer = Mutex::new(stream);
    let job = match parse_job(
        &model,
        &configs,
        &solver,
        &objective,
        &mode,
        &explorer,
        explorer_budget,
    ) {
        Ok(job) => job,
        Err(detail) => {
            wootz_obs::counter("serve.jobs_rejected").incr();
            let _ = send_message(
                &writer,
                &Message::JobDone {
                    job: job_id(
                        &model,
                        &configs,
                        &solver,
                        &objective,
                        &mode,
                        &explorer,
                        explorer_budget,
                    ),
                    code: job_code::INVALID,
                    detail,
                },
            );
            return;
        }
    };

    // In-process duplicate guard; the journal's single-writer lock backs
    // this up across processes.
    {
        let mut active = lock_recover(&daemon.active);
        if !active.insert(job.id.clone()) {
            drop(active);
            wootz_obs::counter("serve.jobs_busy").incr();
            let _ = send_message(
                &writer,
                &Message::JobDone {
                    job: job.id.clone(),
                    code: job_code::BUSY,
                    detail: format!("job {} is already running", job.id),
                },
            );
            return;
        }
        wootz_obs::gauge("serve.active").set(active.len() as f64);
    }
    let guard = ActiveGuard {
        daemon,
        id: job.id.clone(),
    };
    wootz_obs::counter("serve.jobs").incr();
    let _span = wootz_obs::span("serve.job")
        .with("job", job.id.clone())
        .with("peer", peer)
        .with("configs", job.inputs.subspace.len());

    let (code, detail) = run_job(daemon, &job, &writer);
    if code != job_code::OK {
        wootz_obs::counter("serve.jobs_failed").incr();
    }
    wootz_obs::event("serve.job_done")
        .field("job", job.id.clone())
        .field("code", code as usize)
        .emit();
    // Free the job id *before* announcing completion: the journal lock is
    // already released (`run_job` returned), so a client that resubmits
    // the moment it reads `JobDone` must find the id free, not get a
    // busy refusal from a guard that merely had not dropped yet.
    drop(guard);
    let _ = send_message(
        &writer,
        &Message::JobDone {
            job: job.id,
            code,
            detail,
        },
    );
}

/// Executes the job against the shared store, streaming progress to
/// `writer`. Returns the terminal `(code, detail)` pair.
fn run_job(daemon: &Daemon, job: &Job, writer: &Mutex<TcpStream>) -> (u32, String) {
    let dataset = micro_dataset(&job.inputs.solver.dataset, job.inputs.solver.seed);
    let journal = daemon.jobs_dir.join(format!("{}.journal", job.id));
    let progress = |event: &RunEvent| {
        wootz_obs::counter("serve.events").incr();
        // A gone client must not kill the job: the run still warms the
        // store for the next tenant.
        let _ = send_message(
            writer,
            &Message::JobEvent {
                job: job.id.clone(),
                event: event_line(event),
            },
        );
    };
    let run_opts = RunOptions {
        retry: RetryPolicy::skip_after(3),
        journal: Some(journal),
        resume: true,
        store: Some(&daemon.store),
        progress: Some(&progress),
        explorer: job.explorer,
        explorer_budget: job.explorer_budget,
        ..RunOptions::default()
    };
    match run_wootz_with(&job.inputs, &dataset, job.mode, None, &run_opts) {
        Ok(run) => match serde_json::to_string(&JobReport::of(&run)) {
            Ok(json) => (job_code::OK, json),
            Err(e) => (job_code::FAILED, format!("cannot serialize result: {e}")),
        },
        // The journal lock names a concurrent writer of this exact job —
        // the cross-process analogue of the active-set guard above.
        Err(e) if e.to_string().contains("journal is locked") => {
            (job_code::BUSY, e.to_string())
        }
        Err(e) => (job_code::FAILED, e.to_string()),
    }
}

/// The `JobDone` result document (the fields of [`WootzRun`] a client
/// acts on; the exploration log stays in the daemon's journal).
#[derive(Serialize)]
struct JobReport {
    mode: String,
    full_accuracy: f64,
    best: Option<BestNetwork>,
    blocks_pretrained: usize,
    blocks_failed: Option<usize>,
    pretrain_steps: usize,
    finetune_steps: usize,
    configs_explored: usize,
}

impl JobReport {
    fn of(run: &WootzRun) -> JobReport {
        JobReport {
            mode: format!("{:?}", run.mode),
            full_accuracy: run.full_accuracy,
            best: run.best.clone(),
            blocks_pretrained: run.blocks_pretrained,
            blocks_failed: run.blocks_failed,
            pretrain_steps: run.pretrain_steps,
            finetune_steps: run.finetune_steps,
            configs_explored: run.exploration.configs_explored,
        }
    }
}

/// `wootz submit`: sends one job to a serve daemon and streams its
/// events to stdout (`event <ndjson>` lines, then `result <json>`).
/// Returns the run-result JSON on success.
///
/// # Errors
///
/// Connection/protocol failures, and every non-zero [`job_code`] (the
/// error message carries the daemon's `detail`).
pub fn submit(addr: &str, msg: &Message) -> Result<String> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| cluster_err(format!("cannot connect `{addr}`: {e}")))?;
    let writer = Mutex::new(stream);
    send_message(&writer, msg).map_err(|e| cluster_err(e.to_string()))?;
    let mut stream = lock_recover(&writer);
    loop {
        match recv_message(&mut stream, &Limits::DEFAULT) {
            Ok(Message::JobEvent { job, event }) => println!("event {job} {event}"),
            Ok(Message::JobDone { job, code, detail }) => {
                return if code == job_code::OK {
                    println!("result {job} {detail}");
                    Ok(detail)
                } else {
                    let kind = match code {
                        job_code::INVALID => "invalid inputs",
                        job_code::BUSY => "busy",
                        _ => "failed",
                    };
                    Err(cluster_err(format!("job {job} {kind} (code {code}): {detail}")))
                };
            }
            Ok(other) => {
                return Err(cluster_err(format!(
                    "unexpected {} from daemon",
                    other.name()
                )))
            }
            Err(e) => return Err(cluster_err(format!("connection lost: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_is_content_derived_and_field_ordered() {
        let a = job_id("m", "c", "s", "o", "", "", 0);
        assert_eq!(a, job_id("m", "c", "s", "o", "", "", 0));
        assert_ne!(a, job_id("m", "c", "s", "o", "baseline", "", 0));
        // The explorer and its budget are part of the job identity.
        assert_ne!(a, job_id("m", "c", "s", "o", "", "bandit", 24));
        assert_ne!(
            job_id("m", "c", "s", "o", "", "bandit", 24),
            job_id("m", "c", "s", "o", "", "bandit", 32)
        );
        // The 0xff separator keeps field boundaries unambiguous.
        assert_ne!(
            job_id("ab", "c", "s", "o", "", "", 0),
            job_id("a", "bc", "s", "o", "", "", 0)
        );
        assert!(a.starts_with('j') && a.len() == 17, "{a}");
    }

    #[test]
    fn invalid_submissions_parse_to_structured_reasons() {
        let err = parse_job("not a model", "[[0]]", "", "max Accuracy", "", "", 0).unwrap_err();
        assert!(err.starts_with("model:"), "{err}");
        let model = wootz_models::resnet_mini(4).to_prototxt();
        let err = parse_job(&model, "nope", "dataset: \"flowers102\"", "max Accuracy", "", "", 0)
            .unwrap_err();
        assert!(err.starts_with("configs:"), "{err}");
        let err = parse_job(&model, "[]", "dataset: \"flowers102\"", "max Accuracy", "", "", 0)
            .unwrap_err();
        assert!(err.starts_with("configs: empty"), "{err}");
        let err = parse_job(
            &model,
            "[[0,30]]",
            "dataset: \"flowers102\"",
            "max Accuracy",
            "warp",
            "",
            0,
        )
        .unwrap_err();
        assert!(err.starts_with("mode:"), "{err}");
        let err = parse_job(
            &model,
            "[[0,30]]",
            "dataset: \"flowers102\"",
            "max Accuracy",
            "",
            "greedy",
            0,
        )
        .unwrap_err();
        assert!(err.starts_with("explorer:"), "{err}");
        // A budget without an adaptive strategy is a contradiction, not
        // a silent no-op.
        let err = parse_job(
            &model,
            "[[0,30]]",
            "dataset: \"flowers102\"",
            "max Accuracy",
            "",
            "fixed",
            8,
        )
        .unwrap_err();
        assert!(err.starts_with("explorer:"), "{err}");
        // The happy adaptive path parses.
        let job = parse_job(
            &model,
            "[[0,30]]",
            "dataset: \"flowers102\"",
            "max Accuracy",
            "",
            "taylor",
            16,
        )
        .unwrap();
        assert_eq!(job.explorer, ExplorerKind::Taylor);
        assert_eq!(job.explorer_budget, 16);
    }

    #[test]
    fn event_lines_are_stable_ndjson() {
        assert_eq!(
            event_line(&RunEvent::BlockCacheHit {
                key: "m2r30+m3r50".into()
            }),
            "{\"event\":\"block_cache_hit\",\"key\":\"m2r30+m3r50\"}"
        );
        assert_eq!(
            event_line(&RunEvent::EvalDone {
                config_index: 4,
                accuracy: None
            }),
            "{\"event\":\"eval_done\",\"config_index\":4,\"accuracy\":null}"
        );
        let line = event_line(&RunEvent::FullModelReady { accuracy: 0.5 });
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["event"], "full_model");
    }
}
