//! The worker process: connect → request → heartbeat → execute → deliver.
//!
//! A worker joins a run with `wootz worker --connect <addr> --worker-id
//! <id>` ([`worker_net_main`]) and speaks the `wootz-wire` framed protocol
//! over TCP (PROTOCOL.md). The manifest, checkpoints and tasks all arrive
//! in frames; no shared storage is needed, so the same command joins from
//! the coordinator's machine (how `--distributed N` spawns its pool, over
//! loopback) or from another one. On any connection failure the worker
//! reconnects, re-handshakes with its known epoch, and re-sends an
//! undelivered result — the coordinator deduplicates by `(seq, attempt)`
//! and fences by epoch, so delivery is effectively exactly-once per
//! accepted attempt.
//!
//! The execution environment (`WorkerEnv`, private to this module) is
//! rebuilt from the `Welcome` exactly as the single-process pipeline
//! builds it: manifest → model / solver / objective, the full-model
//! checkpoint, the deterministic micro dataset, the [`UniverseEnv`] of
//! the universe the latest evaluation task carried, and the per-task
//! execution (evaluation or block pre-training). Because every unit of
//! work ([`wootz_core::pipeline::EvalContext::evaluate`],
//! [`wootz_core::pretrain::pretrain_group_supervised`]) is a pure
//! function of its inputs, a task executes bit-identically no matter
//! which process — or attempt — runs it.
//!
//! Process-level faults fire here, at `site::CLUSTER_TASK`:
//!
//! * `WorkerCrash` aborts the process mid-task (no result, no heartbeat,
//!   no cleanup) — the coordinator must reclaim via lease expiry and
//!   respawn.
//! * `WorkerHang { millis }` wedges the worker *before* its first
//!   heartbeat frame, so no heartbeat ever lands; the task is reclaimed
//!   meanwhile and the late ("zombie") result must be rejected by
//!   fencing.
//! * `SlowWorker { factor }` stretches the task's wall time (heartbeats
//!   stay alive) without touching the result — the straggler that trips
//!   speculative re-execution while preserving result bit-identity.
//!
//! One additional chaos hook lives outside the fault plan (it is about
//! *socket* failure, not worker failure):
//! `WOOTZ_CHAOS_NET_DROP="<worker-id>:<n>"` makes that worker write only
//! the first half of its `n`-th `TaskDone` frame and hard-close the
//! socket — a deterministic mid-frame disconnect. The worker then
//! reconnects and re-sends; the run's results must be unaffected.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wootz_core::compile::MultiplexingModel;
use wootz_core::explore::supervise_eval;
use wootz_core::pipeline::{block_pretrain_config, UniverseEnv, WootzInputs};
use wootz_core::pretrain::pretrain_group_supervised;
use wootz_core::Result;
use wootz_data::{micro_dataset, Dataset};
use wootz_fault::{site, FaultKind, FaultPlan};
use wootz_nn::Checkpoint;

use crate::messages::Message;
use crate::net::{lock_recover, send_message, NetClient};
use crate::protocol::{Manifest, ResultPayload, TaskKind, TaskResult, TaskSpec, WireEval};

/// Everything a worker needs to execute tasks, reconstructed from the
/// manifest and the full-model checkpoint exactly as the single-process
/// pipeline builds it.
struct WorkerEnv {
    manifest: Manifest,
    inputs: WootzInputs,
    dataset: Dataset,
    mm: MultiplexingModel,
    full_ckpt: Checkpoint,
    /// The environment of the universe the latest evaluation task
    /// carried — the exact value the in-process driver derives per
    /// universe. Rebuilt whenever a task carries a different universe:
    /// never again for the `fixed` explorer, once per appending round for
    /// the proposing ones (universes only grow).
    universe: Option<UniverseEnv>,
    /// Pre-trained block checkpoints, fetched lazily on the first
    /// evaluation task (they do not exist before pre-training completes)
    /// and re-fetched when a universe implies a block key not seen yet
    /// (appending rounds grow the published bag).
    block_ckpts: Option<BTreeMap<String, Checkpoint>>,
}

impl WorkerEnv {
    fn new(manifest: Manifest, full_ckpt: Checkpoint) -> Result<WorkerEnv> {
        let inputs = WootzInputs {
            model: manifest.model.clone(),
            subspace: manifest.subspace.clone(),
            solver: manifest.solver.clone(),
            objective: manifest.objective.clone(),
        };
        let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
        let mm = MultiplexingModel::compile(inputs.model.clone())?;
        Ok(WorkerEnv {
            manifest,
            inputs,
            dataset,
            mm,
            full_ckpt,
            universe: None,
            block_ckpts: None,
        })
    }

    /// Fires the process-level fault hook for `task`. `WorkerCrash`
    /// aborts the process; `WorkerHang` sleeps *before* the caller's
    /// first heartbeat, so the lease is reclaimed meanwhile; `SlowWorker`
    /// returns the straggle factor.
    fn fault_hook(&self, task: &TaskSpec) -> Option<f64> {
        let faults = self.manifest.faults.as_ref();
        match FaultPlan::fire_opt(faults, site::CLUSTER_TASK, task.fault_key(), task.attempt) {
            Some(FaultKind::WorkerCrash) => {
                // Die instantly, mid-task: no result, no cleanup. This is
                // what a SIGKILLed or OOM-killed worker looks like.
                std::process::abort();
            }
            Some(FaultKind::WorkerHang { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                None
            }
            Some(FaultKind::SlowWorker { factor }) => Some(factor.max(1.0)),
            // EvalError / EvalPanic / CorruptCheckpoint belong to the
            // in-process sites, which the supervised executors consult
            // themselves.
            _ => None,
        }
    }

    /// Points the environment at `task`'s universe, rebuilding it when
    /// the task carries a different one, and reports whether evaluating
    /// it needs block checkpoints this worker does not hold yet — the
    /// caller then fetches the published bag into `block_ckpts` before
    /// [`WorkerEnv::execute`].
    fn prepare(&mut self, task: &TaskSpec) -> Result<bool> {
        let TaskKind::Eval { universe, .. } = &task.kind else {
            return Ok(false);
        };
        if !self
            .universe
            .as_ref()
            .is_some_and(|env| env.inputs.subspace == *universe)
        {
            self.universe = Some(UniverseEnv::build(&self.inputs, universe, self.manifest.mode)?);
        }
        let env = self.universe.as_ref().expect("built above");
        // Re-fetch whenever this universe implies a key we have not seen.
        // A key absent even from the fresh index belongs to a block whose
        // pre-training failed — evaluation inherits pruned full-model
        // weights for it, exactly like the in-process driver.
        Ok(env.block_set.as_ref().is_some_and(|set| {
            self.block_ckpts
                .as_ref()
                .is_none_or(|ckpts| set.blocks.iter().any(|b| !ckpts.contains_key(&b.key())))
        }))
    }

    /// Executes one [prepared](WorkerEnv::prepare) task to its result
    /// payload.
    fn execute(&self, task: &TaskSpec) -> ResultPayload {
        let faults = self.manifest.faults.as_ref();
        match &task.kind {
            TaskKind::Eval { config_index, .. } => {
                let env = self.universe.as_ref().expect("prepared for this task");
                let ctx = env.context(
                    &self.dataset,
                    &self.mm,
                    &self.full_ckpt,
                    self.block_ckpts.as_ref(),
                    faults,
                );
                let sup = supervise_eval(
                    &|i| ctx.evaluate(i),
                    *config_index,
                    &self.manifest.retry,
                    faults,
                );
                ResultPayload::Eval(WireEval::from_supervised(*config_index, sup))
            }
            TaskKind::Pretrain {
                group_index,
                blocks,
                group,
            } => {
                let cfg = block_pretrain_config(&self.inputs.solver);
                let batch_size = self.inputs.solver.batch_size;
                let dataset = &self.dataset;
                let trained = pretrain_group_supervised(
                    &self.mm,
                    blocks,
                    group,
                    *group_index,
                    &self.full_ckpt,
                    &cfg,
                    &|step| dataset.train_batch(step, batch_size).0,
                    faults,
                );
                ResultPayload::Pretrain {
                    group_index: *group_index,
                    blocks: trained.blocks,
                    failed: trained.failed,
                }
            }
        }
    }
}

/// The per-task heartbeat: calls `tick` every `period` on its own thread
/// until it returns `false` or the ticker is stopped.
/// The thread waits in `recv_timeout` on a channel whose sender `stop`
/// drops, so stopping costs a wake-up, not the rest of the period — the
/// finished task's result leaves at once.
struct Ticker {
    stop: Sender<()>,
    thread: JoinHandle<()>,
}

impl Ticker {
    fn start(period: Duration, mut tick: impl FnMut() -> bool + Send + 'static) -> Ticker {
        let (stop, stopped) = channel::<()>();
        let thread = std::thread::spawn(move || {
            while stopped.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
                if !tick() {
                    break;
                }
            }
        });
        Ticker { stop, thread }
    }

    /// Stops the ticker and joins its thread; no tick runs afterwards.
    fn stop(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// Deterministic socket-chaos hook: drop the connection mid-frame while
/// sending the `n`-th `TaskDone`. Armed via
/// `WOOTZ_CHAOS_NET_DROP="<worker-id>:<n>"`; fires exactly once.
struct ChaosNetDrop {
    remaining: Option<u32>,
}

impl ChaosNetDrop {
    fn from_env(worker_id: &str) -> ChaosNetDrop {
        let remaining = std::env::var("WOOTZ_CHAOS_NET_DROP")
            .ok()
            .and_then(|spec| {
                let (who, n) = spec.split_once(':')?;
                (who == worker_id).then(|| n.parse().ok())?
            })
            .filter(|&n| n > 0);
        ChaosNetDrop { remaining }
    }

    /// Counts one `TaskDone` send; true when this is the one to sabotage.
    fn fire(&mut self) -> bool {
        match &mut self.remaining {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.remaining = None;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }
}

/// Reconnect policy: exponential backoff with deterministic jitter. The
/// first retry waits [`CONNECT_BASE_MS`], doubling up to
/// [`CONNECT_CAP_MS`]; each sleep adds a jitter of up to half the step,
/// derived from `(worker id, attempt)` — so a restarted worker replays
/// the exact same schedule (determinism) while distinct workers never
/// hammer a recovering coordinator in phase (no thundering herd). The
/// worker gives up only when its **orphan grace budget** is exhausted
/// (see [`worker_net_main`]); `CONNECT_ATTEMPTS` is the schedule length
/// the backoff tests pin. In practice the first attempt succeeds because
/// the coordinator binds its listener before spawning any worker. Every
/// sleep is recorded in the `net.backoff_ms` histogram.
const CONNECT_BASE_MS: u64 = 25;
const CONNECT_CAP_MS: u64 = 1_000;
#[cfg(test)]
const CONNECT_ATTEMPTS: usize = 50;

/// Environment variable carrying the orphan grace budget (milliseconds)
/// to spawned workers: how long a worker keeps redialing a gone
/// coordinator before exiting as an orphan. The `--orphan-grace-ms` flag
/// overrides it; [`DEFAULT_ORPHAN_GRACE_MS`] applies when neither is set.
pub const ENV_ORPHAN_GRACE_MS: &str = "WOOTZ_ORPHAN_GRACE_MS";

/// Default orphan grace budget: long enough for a coordinator restart
/// (human- or supervisor-driven), short enough that a dead run does not
/// leak worker processes for hours.
pub const DEFAULT_ORPHAN_GRACE_MS: u64 = 60_000;

/// How a network worker's session loop ended. The CLI maps
/// [`WorkerExit::CoordinatorGone`] to its own exit code so supervisors
/// can tell "run finished" from "coordinator never came back".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The coordinator sent [`Message::Shutdown`]: clean end of run.
    Shutdown,
    /// The orphan grace budget expired without reaching a coordinator.
    /// Any completed-but-undelivered result is dropped here — its bytes
    /// are reproducible (tasks are pure), and the coordinator's own
    /// `results/` journal survives for the next epoch.
    CoordinatorGone,
}

/// The `failure`-th (1-based) reconnect delay for `worker_id`, in
/// milliseconds. A pure function of its arguments: the whole backoff
/// schedule of a worker is reproducible from its id alone.
fn connect_backoff_ms(worker_id: &str, failure: usize) -> u64 {
    let exp = failure.saturating_sub(1).min(16) as u32;
    let step = (CONNECT_BASE_MS << exp).min(CONNECT_CAP_MS);
    let seed = wootz_fault::fnv1a64(format!("{worker_id}#{failure}").as_bytes());
    step + seed % (step / 2 + 1)
}

/// The entry point of a worker process: connects to the coordinator,
/// handshakes (`Hello`/`Welcome`), then loops requesting, executing and
/// delivering tasks over the framed protocol.
/// Returns [`WorkerExit::Shutdown`] when the coordinator sends
/// [`Message::Shutdown`] or closes during drain.
///
/// # Orphan policy
///
/// When the coordinator becomes unreachable the worker does not discard
/// state: it keeps its environment, **holds any completed-but-undelivered
/// result in memory**, and redials on the deterministic backoff schedule.
/// The redial loop is bounded by an overall *orphan grace budget*
/// (`grace_ms`, falling back to [`ENV_ORPHAN_GRACE_MS`] then
/// [`DEFAULT_ORPHAN_GRACE_MS`]) measured from the first failed dial; a
/// coordinator restarting within the budget re-adopts the worker (the
/// `Welcome` re-bases it onto the new epoch, the held result is re-sent
/// and fenced). Past the budget the worker returns
/// [`WorkerExit::CoordinatorGone`] — a distinct outcome the CLI surfaces
/// as its own exit code. Time spent orphaned is recorded in the
/// `net.orphaned_ms` histogram.
///
/// # Errors
///
/// Returns an error when the received manifest cannot be reconstructed
/// into a working evaluation environment. Connection failures are *not*
/// errors — they burn orphan grace instead.
pub fn worker_net_main(
    addr: &str,
    worker_id: &str,
    grace_ms: Option<u64>,
) -> Result<WorkerExit> {
    let _span = wootz_obs::span("cluster.net_worker").with("worker", worker_id);
    let grace = Duration::from_millis(grace_ms.unwrap_or_else(|| {
        std::env::var(ENV_ORPHAN_GRACE_MS)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_ORPHAN_GRACE_MS)
    }));
    let mut epoch = 0u64;
    let mut env: Option<WorkerEnv> = None;
    let mut chaos = ChaosNetDrop::from_env(worker_id);
    let mut next_nonce = 1u64;
    // A result whose delivery failed mid-frame: re-sent first thing after
    // the next successful handshake (held across the whole orphan grace).
    let mut undelivered: Option<TaskResult> = None;
    let mut connect_failures = 0usize;
    // When the coordinator first became unreachable; cleared by a
    // successful Welcome.
    let mut orphaned_at: Option<Instant> = None;

    'session: loop {
        if let Some(since) = orphaned_at {
            if since.elapsed() >= grace {
                let orphaned_ms = since.elapsed().as_millis() as u64;
                wootz_obs::histogram("net.orphaned_ms").record(orphaned_ms);
                wootz_obs::event("net.orphan_gave_up")
                    .field("worker", worker_id)
                    .field("orphaned_ms", orphaned_ms as usize)
                    .field("held_result", undelivered.is_some())
                    .emit();
                return Ok(WorkerExit::CoordinatorGone);
            }
        }
        let client = match NetClient::connect(addr) {
            Ok(c) => c,
            Err(_) => {
                connect_failures += 1;
                orphaned_at.get_or_insert_with(Instant::now);
                let backoff = connect_backoff_ms(worker_id, connect_failures);
                wootz_obs::histogram("net.backoff_ms").record(backoff);
                std::thread::sleep(Duration::from_millis(backoff));
                continue 'session;
            }
        };
        connect_failures = 0;

        // Handshake: announce who we are and the epoch we last worked
        // under (0 = none); the coordinator's Welcome pins the session.
        if client
            .send(&Message::Hello {
                worker: worker_id.to_string(),
                epoch,
            })
            .is_err()
        {
            orphaned_at.get_or_insert_with(Instant::now);
            continue 'session;
        }
        match client.recv() {
            Ok(Message::Welcome {
                epoch: e,
                manifest,
                full_ckpt,
            }) => {
                if env.is_none() || e != epoch {
                    // First session, or the coordinator restarted with a
                    // new epoch: rebuild the environment from its manifest.
                    env = Some(WorkerEnv::new(manifest, full_ckpt)?);
                }
                epoch = e;
                if let Some(since) = orphaned_at.take() {
                    // Re-adopted within the grace budget.
                    let orphaned_ms = since.elapsed().as_millis() as u64;
                    wootz_obs::histogram("net.orphaned_ms").record(orphaned_ms);
                    wootz_obs::event("net.orphan_readopted")
                        .field("worker", worker_id)
                        .field("orphaned_ms", orphaned_ms as usize)
                        .field("epoch", epoch as usize)
                        .emit();
                }
            }
            Ok(Message::Shutdown) => return Ok(WorkerExit::Shutdown),
            Ok(_) | Err(_) => {
                // A coordinator that accepts but cannot complete the
                // handshake (e.g. wedged mid-restart) burns grace too.
                orphaned_at.get_or_insert_with(Instant::now);
                continue 'session;
            }
        }
        let env = env.as_mut().expect("environment built on Welcome");
        wootz_obs::event("cluster.worker_started")
            .field("worker", worker_id)
            .field("epoch", epoch as usize)
            .emit();

        // Deliver a result the previous session failed to get through.
        if let Some(result) = undelivered.take() {
            if client.send(&Message::TaskDone { result: result.clone() }).is_err() {
                undelivered = Some(result);
                continue 'session;
            }
        }

        loop {
            if client
                .send(&Message::TaskRequest {
                    worker: worker_id.to_string(),
                })
                .is_err()
            {
                continue 'session;
            }
            let task = match client.recv() {
                Ok(Message::TaskGrant { task }) => task,
                Ok(Message::NoTask { backoff_ms }) => {
                    // The request was a long-poll: the coordinator already
                    // did the waiting and says so with a zero backoff, so
                    // ask again at once. A non-zero value comes from a
                    // coordinator that answers immediately and wants the
                    // worker to pace itself (PROTOCOL.md §4).
                    if backoff_ms > 0 {
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                    }
                    continue;
                }
                Ok(Message::Shutdown) => {
                    wootz_obs::event("cluster.worker_shutdown")
                        .field("worker", worker_id)
                        .emit();
                    return Ok(WorkerExit::Shutdown);
                }
                Ok(_) => continue,
                Err(_) => continue 'session,
            };
            let _task_span = wootz_obs::span("cluster.task")
                .with("seq", task.seq as usize)
                .with("attempt", task.attempt as usize)
                .with("worker", worker_id);

            // Fault hook before the first heartbeat frame — a hang means
            // the coordinator sees a grant with no heartbeat and reclaims.
            let slow_factor = env.fault_hook(&task);

            // Heartbeat frames at a quarter of the lease period, from a
            // sibling thread sharing the frame writer. Nonces key the RTT
            // histogram; a send failure ends the ticker (the task loop
            // notices the dead connection at delivery time).
            let heartbeat = {
                let writer = client.writer();
                let rtt = client.rtt_map();
                let worker = worker_id.to_string();
                let (seq, attempt) = (task.seq, task.attempt);
                let period = Duration::from_millis((env.manifest.lease_ms / 4).max(1));
                let mut n = next_nonce;
                next_nonce += 1 << 20;
                Ticker::start(period, move || {
                    n += 1;
                    lock_recover(&rtt).insert(n, Instant::now());
                    let msg = Message::Heartbeat {
                        worker: worker.clone(),
                        seq,
                        attempt,
                        nonce: n,
                    };
                    send_message(&writer, &msg).is_ok()
                })
            };

            let started = Instant::now();
            if env.prepare(&task)? {
                // The published block bag, fetched in the session loop so
                // a socket that dies mid-exchange is handled like any
                // other: drop the task (its lease reclaims the attempt)
                // and redial.
                let reply = client
                    .send(&Message::BlocksRequest)
                    .and_then(|_| client.recv());
                match reply {
                    Ok(Message::Blocks { index }) => {
                        env.block_ckpts = Some(index.into_iter().collect());
                    }
                    Ok(Message::Shutdown) => {
                        heartbeat.stop();
                        return Ok(WorkerExit::Shutdown);
                    }
                    _ => {
                        heartbeat.stop();
                        continue 'session;
                    }
                }
            }
            let payload = env.execute(&task);

            if let Some(factor) = slow_factor {
                let extra = started.elapsed().mul_f64(factor - 1.0);
                std::thread::sleep(extra);
            }

            let result = TaskResult {
                seq: task.seq,
                attempt: task.attempt,
                epoch: task.epoch,
                worker: worker_id.to_string(),
                wall_ms: started.elapsed().as_millis() as u64,
                payload,
            };
            let finished = Instant::now();
            heartbeat.stop();
            wootz_obs::counter("cluster.worker_tasks").incr();

            let done = Message::TaskDone {
                result: result.clone(),
            };
            if chaos.fire() {
                // Injected mid-frame disconnect: half the frame, then a
                // hard close. The reconnect path below must deliver the
                // result anyway.
                let _ = client.send_half_frame_and_die(&done);
                undelivered = Some(result);
                continue 'session;
            }
            if client.send(&done).is_err() {
                undelivered = Some(result);
                continue 'session;
            }
            wootz_obs::histogram("net.result_delivery_us")
                .record(finished.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopping_a_ticker_does_not_wait_out_its_period() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let ticks = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&ticks);
        let ticker = Ticker::start(Duration::from_secs(10), move || {
            counted.fetch_add(1, Ordering::Relaxed);
            true
        });
        let started = Instant::now();
        ticker.stop();
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "stop took {:?} of a 10 s period",
            started.elapsed()
        );
        assert_eq!(ticks.load(Ordering::Relaxed), 0, "a stopped ticker ticked");

        // It does tick while it runs, and a tick returning false ends it.
        let (tx, rx) = channel();
        let ticker = Ticker::start(Duration::from_millis(1), move || tx.send(()).is_ok());
        rx.recv_timeout(Duration::from_secs(10))
            .expect("first tick");
        drop(rx);
        ticker.stop();
    }

    #[test]
    fn connect_backoff_is_deterministic_bounded_and_grows() {
        let schedule: Vec<u64> = (1..=CONNECT_ATTEMPTS)
            .map(|n| connect_backoff_ms("w0", n))
            .collect();
        assert_eq!(
            schedule,
            (1..=CONNECT_ATTEMPTS)
                .map(|n| connect_backoff_ms("w0", n))
                .collect::<Vec<_>>(),
            "a restarted worker replays its exact schedule"
        );
        for (i, &ms) in schedule.iter().enumerate() {
            let step = (CONNECT_BASE_MS << (i.min(16) as u32)).min(CONNECT_CAP_MS);
            assert!(ms >= step, "attempt {}: {ms} below base step {step}", i + 1);
            assert!(
                ms <= step + step / 2,
                "attempt {}: {ms} beyond jittered cap {}",
                i + 1,
                step + step / 2
            );
        }
        assert!(schedule[0] < 64, "first retry is fast");
        assert!(
            schedule[CONNECT_ATTEMPTS - 1] >= CONNECT_CAP_MS,
            "late retries reach the cap"
        );
    }

    #[test]
    fn connect_backoff_jitter_separates_workers() {
        // At the cap, different workers should not all sleep the same
        // amount (that is the stampede jitter exists to break).
        let at_cap: Vec<u64> = (0..8)
            .map(|w| connect_backoff_ms(&format!("w{w}"), 20))
            .collect();
        let distinct: std::collections::BTreeSet<u64> = at_cap.iter().copied().collect();
        assert!(distinct.len() > 1, "all workers stampede in phase: {at_cap:?}");
    }
}
