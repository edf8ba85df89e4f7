//! The coordinator: spawns workers, feeds the queue, reclaims leases,
//! fences zombies, speculates on stragglers, and folds remote results into
//! the exact exploration loop the single-process pipeline runs.
//!
//! The key structural decision is that the coordinator is *just another
//! [`RoundBackend`]* plugged into the one phase driver
//! ([`wootz_core::pipeline::run_phases`]): the round width stays
//! `solver.num_workers` (the paper's logical task-assignment `p`), while
//! `--distributed N` only chooses how many OS processes execute the
//! round's tasks. Logical and physical parallelism are decoupled, so the
//! distributed [`WootzRun`] is bit-identical to the single-process one for
//! *any* worker count — including under worker crashes, hangs and
//! stragglers, because a re-executed task is a pure function of its inputs
//! and fencing guarantees exactly one result per unit of work is counted.
//!
//! Workers are reached one way: the coordinator binds a [`NetHub`] (on
//! loopback unless `listen` names a deployment address), spawns its pool
//! as `worker --connect <addr>`, and the hub claims tasks from and
//! journals results to the run directory on the workers' behalf. The
//! drive loop never sleeps on a timer of its own: it waits on the hub's
//! event signal, bounded by `poll_ms` so the lease, speculation, respawn
//! and stall clocks still get serviced.
//!
//! Failure handling, in one paragraph: every granted task carries a lease
//! that the worker's heartbeat frames keep fresh; a grant without a
//! signal for `lease_ms` is *reclaimed* — the attempt is fenced (its late
//! result will be rejected) and a fresh attempt is enqueued, up to
//! `max_task_attempts`, after which the unit of work is *abandoned* and
//! surfaces as a structured [`CoreError::Remote`] failure that flows
//! through the normal retry / skip / abort policy. When the queue has drained but results are still
//! outstanding, the slowest claimed task (deterministically the lowest
//! sequence number among the over-deadline ones) is *speculated*: a
//! duplicate attempt races the straggler and the first publication wins.
//! Dead worker processes are respawned while work is outstanding. All
//! coordinator state that matters across a crash rides on the PR 2 NDJSON
//! journal, so killing the coordinator and re-running with `--resume`
//! re-evaluates nothing that was journaled.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Serialize;

use wootz_core::compile::{MultiplexingModel, TuningBlock};
use wootz_core::explore::SupervisedEval;
use wootz_core::explorer::ExplorerKind;
use wootz_core::pipeline::{
    block_pretrain_config, run_phases, RoundBackend, RunMode, RunOptions, UniverseEnv,
    WootzInputs, WootzRun,
};
use wootz_core::pretrain::{
    pretrain_groups_with, BlockSink, GroupOutcome, PretrainOutcome, PretrainedBlock,
};
use wootz_core::{CoreError, Result};
use wootz_data::Dataset;
use wootz_fault::{FaultPlan, RetryPolicy};
use wootz_nn::Checkpoint;

use crate::net::NetHub;
use crate::protocol::{
    atomic_write_json, cluster_err, read_json, Manifest, ResultPayload, TaskKind, TaskResult,
    TaskSpec,
};
use crate::queue::RunDir;

/// Options of a distributed run.
#[derive(Debug, Clone)]
pub struct ClusterOptions<'a> {
    /// Number of worker OS processes to spawn. This is *physical*
    /// parallelism only; the exploration round width stays
    /// `solver.num_workers`, which is what keeps results bit-identical to
    /// the single-process pipeline for any value here.
    pub workers: usize,
    /// Lease duration in milliseconds. Workers heartbeat at a quarter of
    /// this; a claimed task without a heartbeat for a full lease is
    /// reclaimed.
    pub lease_ms: u64,
    /// Coordinator poll period in milliseconds: how often the drive loop
    /// services its lease, speculation, respawn and stall clocks. Results
    /// do not wait for it — the hub wakes the loop the moment one is
    /// journaled.
    pub poll_ms: u64,
    /// Fixed speculation deadline override (ms of claimed run time). When
    /// `None`, the deadline is `3 × median per-step wall time × expected
    /// steps` over the completed tasks so far, floored at `lease_ms`.
    pub speculate_after_ms: Option<u64>,
    /// Maximum execution attempts per unit of work (first run, reclaims
    /// and speculation all count) before it is abandoned.
    pub max_task_attempts: u32,
    /// Abort the run with diagnostics when nothing completes, reclaims or
    /// abandons for this long.
    pub stall_timeout_ms: u64,
    /// How long to wait for workers to exit after the `Shutdown`
    /// broadcast before killing them (this grace window is also when late
    /// zombie results get counted as rejected).
    pub shutdown_grace_ms: u64,
    /// The run directory: the coordinator's durability journal (manifest,
    /// task queue, journaled results, published blocks, worker logs).
    pub run_dir: PathBuf,
    /// How to start a worker: executable plus leading arguments; the
    /// coordinator appends `--connect <addr> --worker-id <id>`.
    pub worker_cmd: (PathBuf, Vec<String>),
    /// Deterministic fault-injection plan (embedded into the manifest so
    /// workers share the schedule).
    pub faults: Option<&'a FaultPlan>,
    /// Retry policy for configuration evaluations (applied inside the
    /// workers, exactly like the in-process supervisor).
    pub retry: RetryPolicy,
    /// NDJSON journal path (crash-resume support, same file format as the
    /// single-process pipeline).
    pub journal: Option<PathBuf>,
    /// Replay an existing journal instead of redoing the work.
    pub resume: bool,
    /// TCP listen address of the coordinator's hub. `None` binds an
    /// ephemeral loopback port (`127.0.0.1:0`), which is all the spawned
    /// pool needs; name an address to accept workers from other machines
    /// or to restart a killed coordinator where its orphans still dial.
    pub listen: Option<String>,
    /// Orphan grace budget (ms) exported to spawned workers via
    /// [`crate::worker::ENV_ORPHAN_GRACE_MS`]: how long a worker redials
    /// a gone coordinator before exiting with the "coordinator gone"
    /// code. `None` leaves the workers' own resolution (inherited
    /// environment, then the built-in default) in charge.
    pub orphan_grace_ms: Option<u64>,
    /// Extra environment variables for spawned worker processes (tests
    /// use this to scope chaos hooks to a single run).
    pub worker_env: Vec<(String, String)>,
    /// Exploration strategy. [`ExplorerKind::Fixed`] (the default) walks
    /// the input subspace in objective order; the others grow the
    /// evaluation universe from their own proposals. Every strategy runs
    /// the same driver, dispatches universe-carrying tasks, and
    /// republishes the block bag whenever a round pre-trained new blocks.
    pub explorer: ExplorerKind,
    /// Maximum configurations proposals may add to the evaluation
    /// universe (the fixed strategy adds none and so ignores it).
    pub explorer_budget: usize,
}

impl<'a> ClusterOptions<'a> {
    /// Defaults for a run over `run_dir` with `workers` processes started
    /// via `worker_cmd` (executable + argument prefix).
    pub fn new(
        run_dir: impl Into<PathBuf>,
        workers: usize,
        worker_cmd: (PathBuf, Vec<String>),
    ) -> Self {
        ClusterOptions {
            workers,
            lease_ms: 1500,
            poll_ms: 20,
            speculate_after_ms: None,
            max_task_attempts: 5,
            stall_timeout_ms: 120_000,
            shutdown_grace_ms: 5_000,
            run_dir: run_dir.into(),
            worker_cmd,
            faults: None,
            retry: RetryPolicy::default(),
            journal: None,
            resume: false,
            listen: None,
            orphan_grace_ms: None,
            worker_env: Vec::new(),
            explorer: ExplorerKind::Fixed,
            explorer_budget: 0,
        }
    }
}

/// What the distributed runtime observed, for reporting and tests.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClusterStats {
    /// Worker processes the run was started with.
    pub workers: usize,
    /// Task results accepted (one per completed unit of work).
    pub tasks_completed: usize,
    /// Expired leases that were fenced and re-enqueued.
    pub leases_reclaimed: usize,
    /// Speculative duplicate attempts launched against stragglers.
    pub speculative_launched: usize,
    /// Units of work won by a speculative attempt.
    pub speculative_wins: usize,
    /// Late results rejected by fencing (zombie workers).
    pub zombie_results_rejected: usize,
    /// Dead worker processes replaced while work was outstanding.
    pub workers_respawned: usize,
    /// Units of work abandoned after `max_task_attempts`.
    pub tasks_abandoned: usize,
    /// Accepted results per worker id (utilization).
    pub per_worker_tasks: BTreeMap<String, usize>,
    /// Worker TCP sessions re-opened after a disconnect.
    pub net_reconnects: usize,
    /// Live workers from a previous coordinator's epoch re-adopted by
    /// this run: reconnects whose `Hello` carried a stale epoch (after a
    /// coordinator restart).
    pub workers_readopted: usize,
    /// `NoTask` replies sent: `TaskRequest`s that stayed parked for a
    /// whole long-poll bound with neither work nor drain.
    pub no_task_replies: usize,
}

impl ClusterStats {
    /// One-line human summary (the CLI's `cluster:` line).
    pub fn summary(&self) -> String {
        format!(
            "cluster: {} workers, {} tasks completed, {} leases reclaimed, \
             {} speculative launched ({} won), {} zombie results rejected, \
             {} workers respawned, {} tasks abandoned, {} net reconnects, \
             {} workers re-adopted, {} NoTask replies",
            self.workers,
            self.tasks_completed,
            self.leases_reclaimed,
            self.speculative_launched,
            self.speculative_wins,
            self.zombie_results_rejected,
            self.workers_respawned,
            self.tasks_abandoned,
            self.net_reconnects,
            self.workers_readopted,
            self.no_task_replies
        )
    }
}

/// [`Coordinator::finish`]'s wait between worker-exit checks while a
/// worker may still be running.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// The same wait once every session has closed: the workers have
/// read their `Shutdown` and only their processes' exits are left.
const EXIT_POLL: Duration = Duration::from_millis(1);

/// One worker process slot (respawned in place when its process dies).
struct Slot {
    index: usize,
    gen: u32,
    id: String,
    child: Option<Child>,
}

/// The set of spawned worker processes. Dropping the pool kills whatever
/// is still running, so an error path never leaks child processes.
struct WorkerPool {
    dir: RunDir,
    exe: PathBuf,
    prefix: Vec<String>,
    /// Orphan grace budget forwarded to the workers (see
    /// [`ClusterOptions::orphan_grace_ms`]).
    orphan_grace_ms: Option<u64>,
    env: Vec<(String, String)>,
    slots: Vec<Slot>,
}

impl WorkerPool {
    fn spawn(dir: RunDir, opts: &ClusterOptions<'_>, hub: &NetHub) -> Result<WorkerPool> {
        let mut pool = WorkerPool {
            dir,
            exe: opts.worker_cmd.0.clone(),
            prefix: opts.worker_cmd.1.clone(),
            orphan_grace_ms: opts.orphan_grace_ms,
            env: opts.worker_env.clone(),
            slots: Vec::new(),
        };
        for index in 0..opts.workers {
            let id = worker_id(index, 0);
            let child = pool.spawn_process(&id, false, hub)?;
            pool.slots.push(Slot {
                index,
                gen: 0,
                id,
                child: Some(child),
            });
        }
        wootz_obs::gauge("cluster.workers_alive").set(pool.slots.len() as f64);
        Ok(pool)
    }

    fn spawn_process(&self, id: &str, respawn: bool, hub: &NetHub) -> Result<Child> {
        let log_path = self.dir.logs().join(format!("{id}.log"));
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| cluster_err(format!("cannot open log `{}`: {e}", log_path.display())))?;
        let log_err = log
            .try_clone()
            .map_err(|e| cluster_err(format!("cannot clone log handle: {e}")))?;
        let mut cmd = Command::new(&self.exe);
        cmd.args(&self.prefix);
        // The hub's *resolved* address: a `:0` listen port is real by now.
        cmd.arg("--connect").arg(hub.local_addr());
        cmd.arg("--worker-id").arg(id);
        // Workers inherit the coordinator's kernel-thread budget so a
        // distributed run at `--threads N` is reproducible end to end
        // (results are bit-identical regardless, but wall time is not).
        cmd.env("WOOTZ_THREADS", wootz_par::configured_threads().to_string());
        // Orphan grace rides the environment so hand-started workers and
        // pool-spawned ones resolve the same budget; `worker_env` below
        // can still override it per test.
        if let Some(ms) = self.orphan_grace_ms {
            cmd.env(crate::worker::ENV_ORPHAN_GRACE_MS, ms.to_string());
        }
        for (key, value) in &self.env {
            cmd.env(key, value);
        }
        if respawn {
            // The chaos kill countdown is per-process: a replacement for a
            // worker the harness just killed must not inherit the armed
            // site, or every generation dies at the same boundary forever.
            cmd.env_remove(wootz_fault::chaos::ENV_KILL_AT);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(log_err))
            .spawn()
            .map_err(|e| {
                cluster_err(format!(
                    "cannot spawn worker `{id}` via `{}`: {e}",
                    self.exe.display()
                ))
            })?;
        hub.note_spawned(id);
        wootz_obs::event("cluster.worker_spawned")
            .field("worker", id)
            .field("pid", child.id() as usize)
            .emit();
        Ok(child)
    }

    /// Replaces dead worker processes (one new generation per death).
    fn respawn_dead(&mut self, stats: &mut ClusterStats, hub: &NetHub) -> Result<()> {
        for i in 0..self.slots.len() {
            let exited = match self.slots[i].child.as_mut() {
                Some(child) => child.try_wait().ok().flatten().is_some(),
                None => false,
            };
            if exited {
                let gen = self.slots[i].gen + 1;
                let id = worker_id(self.slots[i].index, gen);
                wootz_obs::counter("cluster.workers_respawned").incr();
                wootz_obs::event("cluster.worker_respawned")
                    .field("dead", self.slots[i].id.clone())
                    .field("worker", id.clone())
                    .emit();
                let child = self.spawn_process(&id, true, hub)?;
                self.slots[i] = Slot {
                    index: self.slots[i].index,
                    gen,
                    id,
                    child: Some(child),
                };
                stats.workers_respawned += 1;
            }
        }
        wootz_obs::gauge("cluster.workers_alive").set(self.poll_alive() as f64);
        Ok(())
    }

    /// Number of worker processes currently running.
    fn poll_alive(&mut self) -> usize {
        let mut alive = 0;
        for slot in &mut self.slots {
            if let Some(child) = slot.child.as_mut() {
                if child.try_wait().ok().flatten().is_none() {
                    alive += 1;
                }
            }
        }
        alive
    }

    /// Kills and reaps every remaining worker process.
    fn kill_all(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.kill_all();
    }
}

fn worker_id(index: usize, gen: u32) -> String {
    if gen == 0 {
        format!("w{index}")
    } else {
        format!("w{index}-{gen}")
    }
}

/// One live (un-fenced) execution attempt of a unit of work.
struct Attempt {
    task: TaskSpec,
    claim_seen: Option<Instant>,
    /// Last liveness signal the hub recorded: the grant, then every
    /// heartbeat frame. The lease clock runs against this.
    last_signal: Option<Instant>,
    speculative: bool,
}

/// One unit of work (a queue sequence number) with its live attempts.
struct Unit {
    attempts_launched: u32,
    live: Vec<Attempt>,
}

/// The outcome of driving one unit of work to completion: the accepted
/// result, or `None` when every attempt was exhausted (abandoned).
struct TaskOutcome {
    result: Option<TaskResult>,
    attempts: u32,
}

struct Coordinator<'a> {
    dir: RunDir,
    epoch: u64,
    opts: &'a ClusterOptions<'a>,
    solver: &'a wootz_ir::SolverConfig,
    pool: WorkerPool,
    /// The TCP front-end every worker talks to.
    hub: NetHub,
    stats: ClusterStats,
    next_seq: u64,
    /// Result files already examined (accepted or rejected).
    processed_results: BTreeSet<String>,
    /// Per-step wall-time samples (ms) of accepted results — the
    /// speculation deadline's calibration data.
    rate_samples: Vec<f64>,
    /// The published bag of pre-trained blocks: block key → checkpoint
    /// file name under `blocks/` (grows monotonically).
    published: BTreeMap<String, String>,
}

impl Coordinator<'_> {
    /// A first-attempt task of this epoch under a fresh sequence number.
    fn task(&mut self, kind: TaskKind, expected_steps: usize) -> TaskSpec {
        self.next_seq += 1;
        TaskSpec {
            seq: self.next_seq,
            attempt: 1,
            epoch: self.epoch,
            kind,
            expected_steps,
        }
    }

    /// Publishes `task` into the queue and wakes the `TaskRequest`s the
    /// hub has parked — the one enqueue path of first attempts, lease
    /// re-enqueues and speculative duplicates.
    fn enqueue(&self, task: &TaskSpec) -> Result<()> {
        self.dir.enqueue(task)?;
        self.hub.notify_work();
        Ok(())
    }

    /// The speculation deadline (ms of claimed run time) for a task of
    /// `expected_steps`.
    fn deadline_ms(&self, expected_steps: usize) -> u64 {
        if let Some(ms) = self.opts.speculate_after_ms {
            return ms;
        }
        let mut rates = self.rate_samples.clone();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = rates[rates.len() / 2];
        ((3.0 * median * expected_steps.max(1) as f64) as u64).max(self.opts.lease_ms)
    }

    /// Enqueues `tasks` and runs the queue until every one of them has an
    /// accepted result or is abandoned: reaps results with fencing,
    /// reclaims expired leases, launches speculative attempts once the
    /// queue drains, respawns dead workers, and watches for stalls.
    /// Returns one outcome per task, in task order.
    fn drive(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<TaskOutcome>> {
        let seqs: Vec<u64> = tasks.iter().map(|t| t.seq).collect();
        let mut units: BTreeMap<u64, Unit> = BTreeMap::new();
        for task in tasks {
            self.enqueue(&task)?;
            units.insert(
                task.seq,
                Unit {
                    attempts_launched: 1,
                    live: vec![Attempt {
                        task,
                        claim_seen: None,
                        last_signal: None,
                        speculative: false,
                    }],
                },
            );
        }
        let total = units.len();
        let mut done: BTreeMap<u64, TaskOutcome> = BTreeMap::new();
        let mut last_progress = Instant::now();
        while done.len() < total {
            let mut progressed = false;
            // Read before the directory listing: a result journaled after
            // the listing then ends this tick's wait at once.
            let seen = self.hub.events_seen();

            // 1. Reap freshly journaled results, applying fencing. The
            // run-directory files are the source of truth; the hub's
            // event only says when to look.
            for name in self.dir.result_files()? {
                if self.processed_results.contains(&name) {
                    continue;
                }
                let result = self.dir.read_result(&name)?;
                // Chaos: die with the result durable in `results/` but not
                // yet folded into run state — the reap window. The
                // restarted epoch wipes `results/` and re-runs the unit
                // from the journal; bit-identity must survive.
                if wootz_fault::chaos::kill_point(wootz_fault::chaos::kill_site::COORD_REAP) {
                    wootz_fault::chaos::die(wootz_fault::chaos::kill_site::COORD_REAP);
                }
                progressed |= self.accept_or_fence(result, &mut units, &mut done);
                if let Some(at) = self.hub.take_arrival(&name) {
                    wootz_obs::histogram("cluster.reap_latency_us")
                        .record(at.elapsed().as_micros() as u64);
                }
                self.processed_results.insert(name);
            }

            // 2. Fold in the hub's liveness signals. The grant starts an
            // attempt's lease clock even before the first heartbeat lands
            // — which is exactly how a hung worker that never heartbeats
            // is caught — and every heartbeat frame refreshes it.
            let now = Instant::now();
            let signals = self.hub.take_signals();
            if !signals.is_empty() {
                for unit in units.values_mut() {
                    for att in &mut unit.live {
                        if let Some(&t) = signals.get(&(att.task.seq, att.task.attempt)) {
                            att.claim_seen.get_or_insert(t);
                            att.last_signal = Some(att.last_signal.map_or(t, |s| s.max(t)));
                        }
                    }
                }
            }

            // 3. Reclaim expired leases: granted attempts whose last
            // signal is older than the lease period.
            let mut reclaims: Vec<(u64, u32)> = Vec::new();
            for (&seq, unit) in &units {
                if done.contains_key(&seq) {
                    continue;
                }
                for att in &unit.live {
                    let Some(signal) = att.last_signal else { continue };
                    let age = now.saturating_duration_since(signal);
                    if age.as_millis() as u64 > self.opts.lease_ms {
                        reclaims.push((seq, att.task.attempt));
                    }
                }
            }
            for (seq, attempt) in reclaims {
                if done.contains_key(&seq) {
                    continue;
                }
                let unit = units.get_mut(&seq).expect("reclaim of a known unit");
                let Some(pos) = unit.live.iter().position(|a| a.task.attempt == attempt)
                else {
                    continue;
                };
                let old = unit.live.remove(pos);
                self.stats.leases_reclaimed += 1;
                wootz_obs::counter("cluster.leases_reclaimed").incr();
                wootz_obs::event("cluster.lease_reclaimed")
                    .field("seq", seq as usize)
                    .field("attempt", attempt as usize)
                    .emit();
                progressed = true;
                if unit.attempts_launched < self.opts.max_task_attempts {
                    unit.attempts_launched += 1;
                    let task = TaskSpec {
                        attempt: unit.attempts_launched,
                        ..old.task.clone()
                    };
                    self.enqueue(&task)?;
                    unit.live.push(Attempt {
                        task,
                        claim_seen: None,
                        last_signal: None,
                        speculative: false,
                    });
                } else if unit.live.is_empty() {
                    self.stats.tasks_abandoned += 1;
                    wootz_obs::counter("cluster.tasks_abandoned").incr();
                    wootz_obs::event("cluster.task_abandoned")
                        .field("seq", seq as usize)
                        .field("attempts", unit.attempts_launched as usize)
                        .emit();
                    done.insert(
                        seq,
                        TaskOutcome {
                            result: None,
                            attempts: unit.attempts_launched,
                        },
                    );
                }
            }

            // 4. Speculative re-execution: queue drained, at least one
            // completed task to calibrate against, and a claimed straggler
            // past its deadline — duplicate the lowest such sequence
            // number (deterministic tie-break). First publication wins.
            if !self.rate_samples.is_empty() && self.dir.pending()?.is_empty() {
                let candidate = units
                    .iter()
                    .filter(|(seq, u)| {
                        !done.contains_key(*seq)
                            && u.live.len() == 1
                            && u.attempts_launched < self.opts.max_task_attempts
                    })
                    .filter_map(|(&seq, u)| {
                        let att = &u.live[0];
                        let seen = att.claim_seen?;
                        let running = now.saturating_duration_since(seen).as_millis() as u64;
                        (running > self.deadline_ms(att.task.expected_steps)).then_some(seq)
                    })
                    .min();
                if let Some(seq) = candidate {
                    let unit = units.get_mut(&seq).expect("speculation on a known unit");
                    unit.attempts_launched += 1;
                    let task = TaskSpec {
                        attempt: unit.attempts_launched,
                        ..unit.live[0].task.clone()
                    };
                    self.enqueue(&task)?;
                    self.stats.speculative_launched += 1;
                    wootz_obs::counter("cluster.speculative_launched").incr();
                    wootz_obs::event("cluster.speculative_launch")
                        .field("seq", seq as usize)
                        .field("attempt", task.attempt as usize)
                        .emit();
                    unit.live.push(Attempt {
                        task,
                        claim_seen: None,
                        last_signal: None,
                        speculative: true,
                    });
                }
            }

            // 5. Keep the physical pool at strength.
            self.pool.respawn_dead(&mut self.stats, &self.hub)?;

            // 6. Stall watchdog.
            if progressed {
                last_progress = Instant::now();
            } else if last_progress.elapsed().as_millis() as u64 > self.opts.stall_timeout_ms {
                return Err(cluster_err(format!(
                    "no progress for {}ms: {}/{} tasks done, {} pending, {} claimed, \
                     {} workers alive; worker logs in `{}`",
                    self.opts.stall_timeout_ms,
                    done.len(),
                    total,
                    self.dir.pending()?.len(),
                    self.dir.claimed()?.len(),
                    self.pool.poll_alive(),
                    self.dir.logs().display()
                )));
            }
            if done.len() < total {
                self.hub
                    .wait_event(seen, Duration::from_millis(self.opts.poll_ms));
            }
        }
        Ok(seqs
            .iter()
            .map(|seq| done.remove(seq).expect("one outcome per driven task"))
            .collect())
    }

    /// Applies the fencing rule to one published result. A result is
    /// accepted iff its epoch matches, its unit of work is not yet
    /// completed, and its attempt is still live (not reclaimed); accepting
    /// it fences every other attempt of the unit. Everything else is a
    /// zombie and is rejected, never double-counted.
    fn accept_or_fence(
        &mut self,
        result: TaskResult,
        units: &mut BTreeMap<u64, Unit>,
        done: &mut BTreeMap<u64, TaskOutcome>,
    ) -> bool {
        let reject = |stats: &mut ClusterStats, reason: &str, result: &TaskResult| {
            stats.zombie_results_rejected += 1;
            wootz_obs::counter("cluster.zombie_results_rejected").incr();
            wootz_obs::event("cluster.zombie_result_rejected")
                .field("seq", result.seq as usize)
                .field("attempt", result.attempt as usize)
                .field("worker", result.worker.clone())
                .field("reason", reason)
                .emit();
        };
        if result.epoch != self.epoch {
            reject(&mut self.stats, "stale epoch", &result);
            return false;
        }
        let Some(unit) = units.get_mut(&result.seq) else {
            reject(&mut self.stats, "unknown unit", &result);
            return false;
        };
        if done.contains_key(&result.seq) {
            reject(&mut self.stats, "already completed", &result);
            return false;
        }
        let Some(pos) = unit
            .live
            .iter()
            .position(|a| a.task.attempt == result.attempt)
        else {
            reject(&mut self.stats, "fenced attempt", &result);
            return false;
        };
        let speculative = unit.live[pos].speculative;
        let expected_steps = unit.live[pos].task.expected_steps.max(1);
        // Accepted: this attempt wins; every other attempt of the unit is
        // fenced from now on.
        unit.live.clear();
        self.rate_samples
            .push(result.wall_ms as f64 / expected_steps as f64);
        if speculative {
            self.stats.speculative_wins += 1;
            wootz_obs::counter("cluster.speculative_wins").incr();
        }
        self.stats.tasks_completed += 1;
        *self
            .stats
            .per_worker_tasks
            .entry(result.worker.clone())
            .or_default() += 1;
        wootz_obs::counter("cluster.tasks_completed").incr();
        wootz_obs::histogram("cluster.task_wall_ms").record(result.wall_ms);
        done.insert(
            result.seq,
            TaskOutcome {
                result: Some(result),
                attempts: unit.attempts_launched,
            },
        );
        true
    }

    /// Publishes the grown bag of pre-trained blocks for the evaluation
    /// workers: each checkpoint is written exactly once under a name
    /// derived from its block key (stable across rounds, so a concurrent
    /// fetch never sees a file change underneath it), the index is
    /// republished atomically, and the hub's cached copy is dropped so
    /// workers always fetch the round-complete bag.
    fn publish_blocks(&mut self, checkpoints: &BTreeMap<String, Checkpoint>) -> Result<()> {
        for (key, ckpt) in checkpoints {
            if !self.published.contains_key(key) {
                let file = format!("{:016x}.ckpt", wootz_fault::fnv1a64(key.as_bytes()));
                ckpt.save(self.dir.blocks().join(&file))?;
                self.published.insert(key.clone(), file);
            }
        }
        // Chaos: die with every block checkpoint saved but the index
        // half-written to its temp file — the assembly-publish window.
        // Consumers must only ever see the index appear atomically; the
        // restarted epoch re-runs pre-training from the journal and
        // republishes.
        {
            use wootz_fault::chaos::{self, kill_site};
            if chaos::kill_point(kill_site::COORD_ASSEMBLE) {
                let json = serde_json::to_vec(&self.published).unwrap_or_default();
                let path = self.dir.blocks_index();
                let tmp = path.with_file_name(format!(".index.tmp-{}", std::process::id()));
                if let Ok(mut file) = std::fs::File::create(&tmp) {
                    chaos::torn_write_and_die(kill_site::COORD_ASSEMBLE, &mut file, &json);
                }
                chaos::die(kill_site::COORD_ASSEMBLE);
            }
        }
        atomic_write_json(&self.dir.blocks_index(), &self.published)?;
        self.hub.invalidate_blocks();
        Ok(())
    }

    /// Shuts the run down: broadcasts `Shutdown`, waits up to the grace
    /// period for workers to finish their in-flight tasks and exit
    /// (counting any late result journaled meanwhile as a fenced zombie),
    /// then kills whatever is left.
    fn finish(mut self) -> Result<ClusterStats> {
        // Sockets stay open through the grace period so in-flight
        // TaskDone frames still land in the durability journal.
        self.hub.broadcast_shutdown();
        let deadline = Instant::now() + Duration::from_millis(self.opts.shutdown_grace_ms);
        loop {
            let seen = self.hub.events_seen();
            self.reap_late_results()?;
            let alive = self.pool.poll_alive();
            wootz_obs::gauge("cluster.workers_alive").set(alive as f64);
            let now = Instant::now();
            if alive == 0 || now >= deadline {
                break;
            }
            // A worker leaves by closing its session, which the hub
            // reports as an event; what follows is only its process
            // winding down, so once no session is open the exit check
            // repeats on a short leash. The 50 ms cadence remains for
            // workers that never held a session.
            let tick = if self.hub.sessions() == 0 {
                EXIT_POLL
            } else {
                SHUTDOWN_POLL
            };
            self.hub.wait_event(seen, tick.min(deadline - now));
        }
        self.stats.net_reconnects = self.hub.reconnects();
        self.stats.workers_readopted = self.hub.readopted();
        self.stats.no_task_replies = self.hub.no_task_replies();
        self.hub.close();
        self.pool.kill_all();
        self.reap_late_results()?;
        wootz_obs::gauge("cluster.workers_alive").set(0.0);
        Ok(self.stats)
    }

    /// After all scheduled work completed, any result file that was never
    /// accepted is by definition a fenced zombie (a reclaimed attempt that
    /// finished late). Counting them here makes the fencing guarantee
    /// observable even when the zombie outlives the phase that fenced it.
    fn reap_late_results(&mut self) -> Result<()> {
        for name in self.dir.result_files()? {
            if self.processed_results.insert(name.clone()) {
                self.stats.zombie_results_rejected += 1;
                wootz_obs::counter("cluster.zombie_results_rejected").incr();
                wootz_obs::event("cluster.zombie_result_rejected")
                    .field("file", name)
                    .field("reason", "run complete")
                    .emit();
            }
        }
        Ok(())
    }
}

/// The distributed [`RoundBackend`]: one task per todo pre-training group
/// and one per fresh configuration, executed by the worker processes and
/// re-associated positionally, so the phase driver folds exactly what the
/// in-process backend would have produced.
impl RoundBackend for Coordinator<'_> {
    /// Pre-trains `batch` remotely — the group shell (replays, journaled
    /// copies, step accounting, sink order) is
    /// [`pretrain_groups_with`], shared with the in-process supervisor —
    /// then publishes the grown block bag for the evaluation workers.
    fn pretrain(
        &mut self,
        _full_ckpt: &Checkpoint,
        batch: &[TuningBlock],
        completed: BTreeMap<String, PretrainedBlock>,
        sink: &mut BlockSink<'_>,
    ) -> Result<PretrainOutcome> {
        let _span = wootz_obs::span("cluster.pretrain").with("blocks", batch.len());
        let steps = block_pretrain_config(self.solver).steps;
        let run_groups = |todo: &[(usize, &[usize])]| -> Result<Vec<GroupOutcome>> {
            let tasks = todo
                .iter()
                .map(|&(group_index, group)| {
                    let kind = TaskKind::Pretrain {
                        group_index,
                        blocks: batch.to_vec(),
                        group: group.to_vec(),
                    };
                    self.task(kind, steps)
                })
                .collect();
            let outcomes = self.drive(tasks)?;
            todo.iter()
                .zip(outcomes)
                .map(|(&(gi, group), outcome)| match outcome.result {
                    Some(TaskResult {
                        payload: ResultPayload::Pretrain { blocks, failed, .. },
                        ..
                    }) => Ok(GroupOutcome {
                        blocks,
                        failed,
                        first_error: None,
                    }),
                    Some(_) => Err(cluster_err(format!(
                        "pre-training task for group {gi} returned an evaluation payload"
                    ))),
                    None => {
                        let msg = format!(
                            "pre-training group {gi} abandoned after {} worker attempts \
                             (every lease expired)",
                            outcome.attempts
                        );
                        Ok(GroupOutcome {
                            blocks: Vec::new(),
                            failed: group
                                .iter()
                                .map(|&bi| (batch[bi].key(), msg.clone()))
                                .collect(),
                            first_error: Some(CoreError::Remote(msg)),
                        })
                    }
                })
                .collect()
        };
        let outcome = pretrain_groups_with(batch, &completed, run_groups, Some(sink))?;
        self.publish_blocks(&outcome.checkpoints)?;
        Ok(outcome)
    }

    /// Runs one exploration round remotely: one universe-carrying
    /// evaluation task per fresh configuration.
    fn evaluate(
        &mut self,
        _full_ckpt: &Checkpoint,
        env: &UniverseEnv,
        _checkpoints: &BTreeMap<String, Checkpoint>,
        fresh: &[usize],
    ) -> Result<Vec<SupervisedEval>> {
        let tasks: Vec<TaskSpec> = fresh
            .iter()
            .map(|&config_index| {
                let kind = TaskKind::Eval {
                    config_index,
                    universe: env.inputs.subspace.clone(),
                };
                self.task(kind, self.solver.max_iter)
            })
            .collect();
        let outcomes = self.drive(tasks)?;
        fresh
            .iter()
            .zip(outcomes)
            .map(|(&config_index, outcome)| match outcome.result {
                Some(TaskResult {
                    payload: ResultPayload::Eval(wire),
                    ..
                }) if wire.config_index != config_index => Err(cluster_err(format!(
                    "evaluation of config {config_index} returned config {}",
                    wire.config_index
                ))),
                Some(TaskResult {
                    payload: ResultPayload::Eval(wire),
                    ..
                }) => Ok(wire.into_supervised()),
                Some(_) => Err(cluster_err(format!(
                    "evaluation of config {config_index} returned a pre-training payload"
                ))),
                None => Ok(SupervisedEval {
                    result: Err(CoreError::Remote(format!(
                        "configuration {config_index}: task abandoned after {} worker \
                         attempts (every lease expired)",
                        outcome.attempts
                    ))),
                    attempts: outcome.attempts,
                    backoff: 0.0,
                }),
            })
            .collect()
    }
}

impl<'a> Coordinator<'a> {
    /// Brings the distributed runtime up around the trained full model:
    /// claims the next fencing epoch over the run directory, writes the
    /// manifest, binds the hub (which hands the manifest and the
    /// full-model checkpoint to every worker in its `Welcome`), and
    /// spawns the worker pool.
    fn start(
        inputs: &'a WootzInputs,
        mode: RunMode,
        opts: &'a ClusterOptions<'a>,
        full_ckpt: &Checkpoint,
    ) -> Result<Coordinator<'a>> {
        // Fencing epoch: strictly greater than any previous coordinator's
        // over this run directory (read *before* wiping the queue state).
        let dir = RunDir::new(&opts.run_dir);
        let epoch = match read_json::<Manifest>(&dir.manifest()) {
            Ok(m) => m.epoch + 1,
            Err(_) => 1,
        };
        if epoch > 1 {
            // A manifest from a previous coordinator exists: this run is a
            // restart over live state (possibly with orphaned workers
            // still redialing the listen address).
            wootz_obs::counter("cluster.coordinator_restarts").incr();
            wootz_obs::event("cluster.coordinator_restart")
                .field("epoch", epoch as usize)
                .field("resume", opts.resume)
                .emit();
        }
        dir.init_epoch()?;
        let manifest = Manifest {
            epoch,
            model: inputs.model.clone(),
            subspace: inputs.subspace.clone(),
            solver: inputs.solver.clone(),
            objective: inputs.objective.clone(),
            mode,
            faults: opts.faults.cloned(),
            retry: opts.retry,
            lease_ms: opts.lease_ms,
        };
        atomic_write_json(&dir.manifest(), &manifest)?;
        wootz_obs::event("cluster.manifest_written")
            .field("epoch", epoch as usize)
            .field("workers", opts.workers)
            .emit();

        // Bind the hub before any worker starts, so the first connection
        // attempt succeeds.
        let addr = opts.listen.as_deref().unwrap_or("127.0.0.1:0");
        let hub = NetHub::bind(addr, dir.clone(), manifest, full_ckpt.clone())?;
        let pool = WorkerPool::spawn(dir.clone(), opts, &hub)?;
        Ok(Coordinator {
            dir,
            epoch,
            opts,
            solver: &inputs.solver,
            pool,
            hub,
            stats: ClusterStats {
                workers: opts.workers,
                ..ClusterStats::default()
            },
            next_seq: 0,
            processed_results: BTreeSet::new(),
            rate_samples: Vec::new(),
            published: BTreeMap::new(),
        })
    }
}

/// Runs the complete pruning pipeline with the distributed runtime: the
/// same phase driver as [`wootz_core::pipeline::run_wootz_with`]
/// ([`run_phases`]), with pre-training groups and configuration
/// evaluations executing on `opts.workers` separate worker OS processes
/// fed over TCP from the crash-safe queue under `opts.run_dir`. The
/// full model is replayed from the journal or trained locally (training
/// it remotely would serialize on one worker anyway), and the journal's
/// single-writer lock is what makes a SIGKILLed coordinator safely
/// resumable (the stale lock is taken over).
///
/// Bit-identity: the exploration round width is `solver.num_workers`
/// (logical), tasks are pure functions of their inputs, and fencing admits
/// exactly one result per unit of work — so the returned [`WootzRun`]
/// equals the single-process run's for any explorer, any worker count, any
/// schedule, and any combination of worker crashes, hangs and stragglers
/// (abandonment aside).
///
/// # Errors
///
/// Propagates phase errors, journal errors, and queue I/O failures;
/// returns a stall error (with diagnostics) when no task makes progress
/// for `opts.stall_timeout_ms`.
pub fn run_distributed(
    inputs: &WootzInputs,
    dataset: &Dataset,
    mode: RunMode,
    opts: &ClusterOptions<'_>,
) -> Result<(WootzRun, ClusterStats)> {
    if opts.workers == 0 {
        return Err(cluster_err("need at least one worker process"));
    }
    let _span = wootz_obs::span("cluster.run")
        .with("workers", opts.workers)
        .with("mode", format!("{mode:?}"))
        .with("configs", inputs.subspace.len());
    let mm = MultiplexingModel::compile(inputs.model.clone())?;
    let run_opts = RunOptions {
        faults: opts.faults,
        retry: opts.retry,
        journal: opts.journal.clone(),
        resume: opts.resume,
        explorer: opts.explorer,
        explorer_budget: opts.explorer_budget,
        ..RunOptions::default()
    };
    let (run, coord) = run_phases(inputs, dataset, mode, &mm, None, &run_opts, |full_ckpt| {
        Coordinator::start(inputs, mode, opts, full_ckpt)
    })?;
    let stats = coord.finish()?;
    wootz_obs::event("cluster.run_done")
        .field("tasks", stats.tasks_completed)
        .field("reclaimed", stats.leases_reclaimed)
        .field("speculative_wins", stats.speculative_wins)
        .field("zombies_rejected", stats.zombie_results_rejected)
        .field("explorer", opts.explorer.as_str())
        .emit();
    Ok((run, stats))
}

/// Resolves the default worker command for callers living in the same
/// binary as the worker subcommand: the current executable plus the given
/// subcommand prefix.
///
/// # Errors
///
/// Fails when the current executable path cannot be determined.
pub fn self_worker_cmd(prefix: &[&str]) -> Result<(PathBuf, Vec<String>)> {
    let exe = std::env::current_exe()
        .map_err(|e| cluster_err(format!("cannot locate current executable: {e}")))?;
    Ok((exe, prefix.iter().map(|s| s.to_string()).collect()))
}
