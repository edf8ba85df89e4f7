//! The coordinator: spawns workers, feeds the queue, reclaims leases,
//! fences zombies, speculates on stragglers, and folds remote results into
//! the exact exploration loop the single-process pipeline runs.
//!
//! The key structural decision is that the coordinator is *just another
//! [`Executor`]* plugged into the one phase driver
//! ([`wootz_core::pipeline::run_phases`]): each [`Task`] the driver hands
//! travels as one wire task, which a worker runs through the same
//! [`wootz_core::pipeline::execute`] as the in-process runtime. The round
//! width stays `solver.num_workers` (the paper's logical task-assignment
//! `p`), while `--distributed N` only chooses how many OS processes
//! execute the round's tasks. Logical and physical parallelism are
//! decoupled, so the distributed [`WootzRun`] is bit-identical to the
//! single-process one for *any* worker count — including under worker
//! crashes, hangs and stragglers, because a re-executed task is a pure
//! function of its inputs and fencing guarantees exactly one result per
//! unit of work is counted.
//!
//! Workers are reached one way: the coordinator binds a [`NetHub`] (on
//! loopback unless `listen` names a deployment address) and spawns its
//! pool as `worker --connect <addr>`. The hub's in-memory queue is the one
//! table of a task's attempts — grant time, last heartbeat, speculative
//! or not — and the drive loop keeps no copy of it: it only counts each
//! unit's attempts and asks the table. It never sleeps on a timer of its
//! own either: it waits on the hub's event signal, bounded by a 20 ms tick
//! so the lease, speculation, respawn and stall clocks get serviced.
//!
//! Failure handling, in one paragraph: every granted task carries a lease
//! that the worker's heartbeat frames keep fresh; a grant without a
//! signal for `lease_ms` is *reclaimed* — the attempt is fenced (its late
//! result will be rejected) and a fresh attempt is enqueued, up to
//! `max_task_attempts`, after which the unit of work is *abandoned* and
//! surfaces as a structured [`CoreError::Remote`] failure that flows
//! through the normal retry / skip / abort policy. When the queue has
//! drained but results are still outstanding, the lowest sequence number
//! whose lone attempt has run past its deadline since its grant is
//! *speculated*: a duplicate attempt races the straggler and the first
//! result wins; the win takes the unit's other attempts out of the table.
//! Dead worker processes are respawned while work is outstanding. All
//! coordinator state that matters across a crash rides on the record
//! journal, so killing the coordinator and re-running with `--resume`
//! re-evaluates nothing that was journaled; the only other file a run
//! writes is one log per worker process. Fencing across restarts needs
//! no file: every start draws a fresh epoch that no earlier coordinator
//! used.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::Serialize;

use wootz_core::compile::MultiplexingModel;
use wootz_core::explorer::ExplorerKind;
use wootz_core::pipeline::{
    block_pretrain_config, run_phases, Executor, RunMode, RunOptions, Task, TaskContext,
    TaskOutput, WootzInputs, WootzRun,
};
use wootz_core::{CoreError, Result};
use wootz_data::Dataset;
use wootz_fault::{FaultPlan, RetryPolicy};
use wootz_nn::Checkpoint;

use crate::net::{Delivery, NetHub};
use crate::protocol::{cluster_err, Manifest, TaskResult, TaskSpec};

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
    /// Fixed speculation deadline override (ms of claimed run time). When
    /// `None`, the deadline is `3 × median per-step wall time × expected
    /// steps` over the completed tasks so far, floored at `lease_ms`.
    pub speculate_after_ms: Option<u64>,
    /// Maximum execution attempts per unit of work (first run, reclaims
    /// and speculation all count) before it is abandoned.
    pub max_task_attempts: u32,
    /// Where each spawned worker's stdout and stderr go, as
    /// `<log_dir>/<worker-id>.log` (created if missing).
    pub log_dir: PathBuf,
    /// How to start a worker: executable plus leading arguments; the
    /// coordinator appends `--connect <addr> --worker-id <id>`.
    pub worker_cmd: (PathBuf, Vec<String>),
    /// Deterministic fault-injection plan (carried in the `Welcome`'s
    /// manifest so workers share the schedule).
    pub faults: Option<&'a FaultPlan>,
    /// Retry policy for configuration evaluations (applied inside the
    /// workers, exactly like the in-process supervisor).
    pub retry: RetryPolicy,
    /// Record journal path (crash-resume support, same file format as the
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
    /// the same driver, dispatches self-contained tasks, and publishes a
    /// round's newly pre-trained blocks before its evaluations.
    pub explorer: ExplorerKind,
    /// Maximum configurations proposals may add to the evaluation
    /// universe (the fixed strategy adds none and so ignores it).
    pub explorer_budget: usize,
}

impl<'a> ClusterOptions<'a> {
    /// Defaults for a run logging to `log_dir` with `workers` processes
    /// started via `worker_cmd` (executable + argument prefix).
    pub fn new(
        log_dir: impl Into<PathBuf>,
        workers: usize,
        worker_cmd: (PathBuf, Vec<String>),
    ) -> Self {
        ClusterOptions {
            workers,
            lease_ms: 1500,
            speculate_after_ms: None,
            max_task_attempts: 5,
            log_dir: log_dir.into(),
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

/// The drive loop's tick: how often it services its lease,
/// speculation, respawn and stall clocks. Results do not wait for it —
/// the hub wakes the loop the moment one arrives.
const POLL: Duration = Duration::from_millis(20);

/// Abort the run with diagnostics when nothing completes, reclaims or
/// abandons for this long.
const STALL_TIMEOUT: Duration = Duration::from_secs(120);

/// How long [`Coordinator::finish`] waits after the `Shutdown` broadcast
/// for every session to close and the pool to exit before it closes the
/// rest and kills the pool (this grace window is also when late zombie
/// results get counted as rejected).
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

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
    /// Where the worker logs go ([`ClusterOptions::log_dir`]).
    logs: PathBuf,
    exe: PathBuf,
    prefix: Vec<String>,
    /// Orphan grace budget forwarded to the workers (see
    /// [`ClusterOptions::orphan_grace_ms`]).
    orphan_grace_ms: Option<u64>,
    env: Vec<(String, String)>,
    slots: Vec<Slot>,
}

impl WorkerPool {
    fn spawn(opts: &ClusterOptions<'_>, hub: &NetHub) -> Result<WorkerPool> {
        let mut pool = WorkerPool {
            logs: opts.log_dir.clone(),
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
        let log_path = self.logs.join(format!("{id}.log"));
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

/// The outcome of driving one unit of work to completion: the accepted
/// result, or `None` when every attempt was exhausted (abandoned).
struct TaskOutcome {
    result: Option<TaskResult>,
    attempts: u32,
}

struct Coordinator<'a> {
    epoch: u64,
    opts: &'a ClusterOptions<'a>,
    pool: WorkerPool,
    /// The TCP front-end every worker talks to.
    hub: NetHub,
    stats: ClusterStats,
    next_seq: u64,
    /// Per-step wall-time samples (ms) of accepted results — the
    /// speculation deadline's calibration data.
    rate_samples: Vec<f64>,
}

impl Coordinator<'_> {
    /// A first-attempt task of this epoch under a fresh sequence number.
    fn task(&mut self, task: Task, expected_steps: usize) -> TaskSpec {
        self.next_seq += 1;
        TaskSpec {
            seq: self.next_seq,
            attempt: 1,
            epoch: self.epoch,
            task,
            expected_steps,
        }
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
        let mut launched: BTreeMap<u64, u32> = seqs.iter().map(|&seq| (seq, 1)).collect();
        for task in tasks {
            self.hub.enqueue(task);
        }
        let total = launched.len();
        let max_attempts = self.opts.max_task_attempts;
        // The accepted result of each finished unit, `None` if abandoned.
        let mut done: BTreeMap<u64, Option<TaskResult>> = BTreeMap::new();
        let mut last_progress = Instant::now();
        while done.len() < total {
            let mut progressed = false;
            // Read before taking results: a result arriving after the
            // take then ends this tick's wait at once.
            let seen = self.hub.events_seen();

            // 1. Reap the results that arrived, applying fencing.
            for delivery in self.hub.take_results() {
                // Chaos: die with the result received — its unit already
                // won in the hub's table — but not yet folded into run
                // state: the reap window. The restarted epoch re-runs the
                // unit from the journal; bit-identity must survive.
                if wootz_fault::chaos::kill_point(wootz_fault::chaos::kill_site::COORD_REAP) {
                    wootz_fault::chaos::die(wootz_fault::chaos::kill_site::COORD_REAP);
                }
                let arrived = delivery.arrived;
                progressed |= self.accept_or_fence(delivery, &launched, &mut done);
                wootz_obs::histogram("cluster.reap_latency_us")
                    .record(arrived.elapsed().as_micros() as u64);
            }

            // 2. Reclaim expired leases (a grant that no heartbeat ever
            // followed is how a hung worker is caught).
            for old in self.hub.take_expired() {
                let (seq, attempt) = (old.task.seq, old.task.attempt);
                self.stats.leases_reclaimed += 1;
                wootz_obs::counter("cluster.leases_reclaimed").incr();
                wootz_obs::event("cluster.lease_reclaimed")
                    .field("seq", seq as usize)
                    .field("attempt", attempt as usize)
                    .emit();
                progressed = true;
                if launched[&seq] < max_attempts {
                    self.hub.enqueue(next_attempt(&mut launched, old.task));
                } else if !self.hub.is_live(seq) && !done.contains_key(&seq) {
                    self.stats.tasks_abandoned += 1;
                    wootz_obs::counter("cluster.tasks_abandoned").incr();
                    wootz_obs::event("cluster.task_abandoned")
                        .field("seq", seq as usize)
                        .field("attempts", launched[&seq] as usize)
                        .emit();
                    done.insert(seq, None);
                }
            }

            // 3. Speculative re-execution: queue drained, at least one
            // completed task to calibrate against, and a lone granted
            // attempt running past its deadline since its grant —
            // duplicate the lowest such sequence number (deterministic
            // tie-break). First publication wins.
            if !self.rate_samples.is_empty() && self.hub.pending() == 0 {
                let straggler = self.hub.straggler(|task, running| {
                    launched[&task.seq] < max_attempts
                        && running.as_millis() as u64 > self.deadline_ms(task.expected_steps)
                });
                if let Some(task) = straggler {
                    let task = next_attempt(&mut launched, task);
                    self.stats.speculative_launched += 1;
                    wootz_obs::counter("cluster.speculative_launched").incr();
                    wootz_obs::event("cluster.speculative_launch")
                        .field("seq", task.seq as usize)
                        .field("attempt", task.attempt as usize)
                        .emit();
                    self.hub.speculate(task);
                }
            }

            // 4. Keep the physical pool at strength.
            self.pool.respawn_dead(&mut self.stats, &self.hub)?;

            // 5. Stall watchdog.
            if progressed {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > STALL_TIMEOUT {
                return Err(cluster_err(format!(
                    "no progress for {}ms: {}/{} tasks done, {} pending, {} claimed, \
                     {} workers alive; worker logs in `{}`",
                    STALL_TIMEOUT.as_millis(),
                    done.len(),
                    total,
                    self.hub.pending(),
                    self.hub.claimed(),
                    self.pool.poll_alive(),
                    self.pool.logs.display()
                )));
            }
            if done.len() < total {
                self.hub.wait_event(seen, POLL);
            }
        }
        Ok(seqs
            .iter()
            .map(|seq| TaskOutcome {
                result: done.remove(seq).expect("one outcome per driven task"),
                attempts: launched[seq],
            })
            .collect())
    }

    /// Applies the fencing rule to one delivered result. A result is
    /// accepted iff its epoch matches, its unit of work is not yet
    /// completed, and its attempt was still live in the hub's table when
    /// it arrived; accepting it retires every other attempt of the unit
    /// from the table, a queued duplicate included. Everything else is a
    /// zombie and is rejected, never double-counted.
    fn accept_or_fence(
        &mut self,
        delivery: Delivery,
        launched: &BTreeMap<u64, u32>,
        done: &mut BTreeMap<u64, Option<TaskResult>>,
    ) -> bool {
        let Delivery {
            result, attempt, ..
        } = delivery;
        let attempt = match attempt {
            _ if result.epoch != self.epoch => Err("stale epoch"),
            _ if !launched.contains_key(&result.seq) => Err("unknown unit"),
            _ if done.contains_key(&result.seq) => Err("already completed"),
            None => Err("fenced attempt"),
            Some(attempt) => Ok(attempt),
        };
        let attempt = match attempt {
            Ok(attempt) => attempt,
            Err(reason) => {
                self.reject(&result, reason);
                return false;
            }
        };
        // Accepted: this attempt wins; every other attempt of the unit is
        // fenced from now on.
        self.hub.retire(result.seq);
        self.rate_samples
            .push(result.wall_ms as f64 / attempt.task.expected_steps.max(1) as f64);
        if attempt.speculative {
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
        done.insert(result.seq, Some(result));
        true
    }

    /// Counts `result` as a fenced zombie, for `reason`.
    fn reject(&mut self, result: &TaskResult, reason: &str) {
        self.stats.zombie_results_rejected += 1;
        wootz_obs::counter("cluster.zombie_results_rejected").incr();
        wootz_obs::event("cluster.zombie_result_rejected")
            .field("seq", result.seq as usize)
            .field("attempt", result.attempt as usize)
            .field("worker", result.worker.clone())
            .field("reason", reason)
            .emit();
    }

    /// Hands the blocks of the driver's bag the hub does not have yet to
    /// the hub, which sends each to a worker ahead of the first evaluation
    /// grant that needs it. Called before an evaluation batch is enqueued,
    /// so every block a round's evaluations can use is published before
    /// any of them is granted.
    fn publish_blocks(&mut self, bag: &BTreeMap<String, Checkpoint>) -> Result<()> {
        let fresh: Vec<(&String, &Checkpoint)> = bag
            .iter()
            .filter(|(key, _)| !self.hub.has_block(key))
            .collect();
        if fresh.is_empty() {
            return Ok(());
        }
        // Chaos: die with the round's blocks pre-trained and journaled
        // but not yet handed to the hub — the assembly-publish window.
        // The restarted epoch replays pre-training from the journal and
        // publishes.
        if wootz_fault::chaos::kill_point(wootz_fault::chaos::kill_site::COORD_ASSEMBLE) {
            wootz_fault::chaos::die(wootz_fault::chaos::kill_site::COORD_ASSEMBLE);
        }
        self.hub.publish_blocks(fresh)
    }

    /// Shuts the run down: broadcasts `Shutdown`, waits up to the grace
    /// period for every worker — spawned or started by hand — to finish
    /// its in-flight task and close its session, and for the pool to exit
    /// (counting any late result that arrives meanwhile as a fenced
    /// zombie), then closes what is left and kills the pool.
    fn finish(mut self) -> ClusterStats {
        // A session stays open until its worker closes it: a worker that
        // still has a frame to write before it reads its `Shutdown` (a
        // `TaskDone`, the next `TaskRequest`) would find the socket closed
        // under it, take that for a lost coordinator and redial, leaving
        // the `Shutdown` unread. In-flight results reach the hub the same
        // way.
        self.hub.broadcast_shutdown();
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        loop {
            let seen = self.hub.events_seen();
            self.reap_late_results();
            let alive = self.pool.poll_alive();
            wootz_obs::gauge("cluster.workers_alive").set(alive as f64);
            let sessions = self.hub.sessions();
            let now = Instant::now();
            if (alive == 0 && sessions == 0) || now >= deadline {
                break;
            }
            // A worker leaves by closing its session, which the hub
            // reports as an event; what follows is only its process
            // winding down, so once no session is open the exit check
            // repeats on a short leash. The 50 ms cadence remains for
            // workers that never held a session.
            let tick = if sessions == 0 {
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
        self.reap_late_results();
        wootz_obs::gauge("cluster.workers_alive").set(0.0);
        self.stats
    }

    /// After all scheduled work completed, any result that arrives is by
    /// definition a fenced zombie (a reclaimed attempt that finished
    /// late). Counting them here makes the fencing guarantee observable
    /// even when the zombie outlives the phase that fenced it.
    fn reap_late_results(&mut self) {
        for Delivery { result, .. } in self.hub.take_results() {
            self.reject(&result, "run complete");
        }
    }
}

/// The distributed [`Executor`]: one queue task per [`Task`], executed by
/// the worker processes and mapped back positionally, so the phase driver
/// folds exactly what the [`LocalExecutor`] would have produced.
impl Executor for Coordinator<'_> {
    /// Publishes the bag's new blocks first when the batch evaluates,
    /// then drives one wire task per [`Task`] to completion. An abandoned
    /// unit of work becomes a [`CoreError::Remote`] failure of its task.
    fn run(&mut self, cx: &TaskContext<'_>, tasks: &[Task]) -> Result<Vec<TaskOutput>> {
        if tasks.iter().any(|t| matches!(t, Task::Eval { .. })) {
            self.publish_blocks(cx.blocks)?;
        }
        let _span = matches!(tasks.first(), Some(Task::Pretrain { .. })).then(|| {
            let blocks: usize = tasks
                .iter()
                .map(|t| match t {
                    Task::Pretrain { blocks, .. } => blocks.len(),
                    Task::Eval { .. } => 0,
                })
                .sum();
            wootz_obs::span("cluster.pretrain").with("blocks", blocks)
        });
        let specs = tasks
            .iter()
            .map(|task| {
                let expected_steps = match task {
                    Task::Eval { .. } => cx.inputs.solver.max_iter,
                    Task::Pretrain { .. } => block_pretrain_config(&cx.inputs.solver).steps,
                };
                self.task(task.clone(), expected_steps)
            })
            .collect();
        let outcomes = self.drive(specs)?;
        tasks
            .iter()
            .zip(outcomes)
            .map(|(task, outcome)| match outcome.result {
                Some(result) => task_output(task, result),
                None => {
                    let error = CoreError::Remote(format!(
                        "{}: task abandoned after {} worker attempts (every lease expired)",
                        unit(task),
                        outcome.attempts
                    ));
                    Ok(TaskOutput::failed(task, error, outcome.attempts))
                }
            })
            .collect()
    }
}

/// `task` at the next attempt number of its unit, counted in `launched`.
fn next_attempt(launched: &mut BTreeMap<u64, u32>, task: TaskSpec) -> TaskSpec {
    let attempts = launched
        .get_mut(&task.seq)
        .expect("an attempt of a driven unit");
    *attempts += 1;
    TaskSpec {
        attempt: *attempts,
        ..task
    }
}

/// How errors name the unit of work `task` is.
fn unit(task: &Task) -> String {
    match task {
        Task::Eval { config_index, .. } => format!("configuration {config_index}"),
        Task::Pretrain { group_index, .. } => format!("pre-training group {group_index}"),
    }
}

/// Maps an accepted result onto the task it answers: the worker's
/// [`TaskOutput`] itself. An output of the other kind, an index echo naming
/// another configuration or group, or a block outside the task's group is
/// refused: the driver would fold or journal it under the wrong unit of
/// work.
fn task_output(task: &Task, result: TaskResult) -> Result<TaskOutput> {
    let refuse = |what: String| Err(cluster_err(format!("{} returned {what}", unit(task))));
    let output = result.output;
    match (task, &output) {
        (Task::Eval { config_index, .. }, TaskOutput::Eval(_)) => {
            if result.index != *config_index {
                return refuse(format!("config {}", result.index));
            }
        }
        (
            Task::Pretrain {
                group_index,
                blocks: group,
            },
            TaskOutput::Pretrain(outcome),
        ) => {
            if result.index != *group_index {
                return refuse(format!("group {}", result.index));
            }
            let keys: BTreeSet<String> = group.iter().map(|(_, block)| block.key()).collect();
            let returned = outcome.blocks.iter().map(|b| &b.key);
            if let Some(stray) = returned
                .chain(outcome.failed.iter().map(|(key, _)| key))
                .find(|key| !keys.contains(*key))
            {
                return refuse(format!("block `{stray}` from outside its group"));
            }
        }
        (_, TaskOutput::Eval(_)) => return refuse("an evaluation output".into()),
        (_, TaskOutput::Pretrain(_)) => return refuse("a pre-training output".into()),
    }
    Ok(output)
}

impl<'a> Coordinator<'a> {
    /// Brings the distributed runtime up around the trained full model:
    /// draws this start's fencing epoch, binds the hub (which hands the
    /// manifest and the full-model checkpoint to every worker in its
    /// `Welcome`), and spawns the worker pool with its logs in the log
    /// directory.
    fn start(
        inputs: &'a WootzInputs,
        opts: &'a ClusterOptions<'a>,
        full_ckpt: &Checkpoint,
    ) -> Result<Coordinator<'a>> {
        let epoch = fresh_epoch();
        std::fs::create_dir_all(&opts.log_dir)
            .map_err(|e| cluster_err(format!("cannot create `{}`: {e}", opts.log_dir.display())))?;
        let manifest = Manifest {
            epoch,
            model: inputs.model.clone(),
            solver: inputs.solver.clone(),
            objective: inputs.objective.clone(),
            faults: opts.faults.cloned(),
            retry: opts.retry,
            lease_ms: opts.lease_ms,
        };

        // Bind the hub before any worker starts, so the first connection
        // attempt succeeds.
        let addr = opts.listen.as_deref().unwrap_or("127.0.0.1:0");
        let hub = NetHub::bind(addr, manifest, full_ckpt.clone())?;
        let pool = WorkerPool::spawn(opts, &hub)?;
        Ok(Coordinator {
            epoch,
            opts,
            pool,
            hub,
            stats: ClusterStats {
                workers: opts.workers,
                ..ClusterStats::default()
            },
            next_seq: 0,
            rate_samples: Vec::new(),
        })
    }
}

/// A fencing epoch no other coordinator start has drawn: FNV-1a over the
/// process id, the wall clock in nanoseconds and a process-wide start
/// counter. Fencing only tests epochs for equality, so an epoch need not
/// grow across restarts, only differ — which is why it needs no file.
/// Never 0, the epoch a worker's first `Hello` announces.
fn fresh_epoch() -> u64 {
    static STARTS: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let mut seed = Vec::with_capacity(4 + 16 + 8);
    seed.extend_from_slice(&std::process::id().to_le_bytes());
    seed.extend_from_slice(&nanos.to_le_bytes());
    seed.extend_from_slice(&STARTS.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    wootz_fault::fnv1a64(&seed).max(1)
}

/// Runs the complete pruning pipeline with the distributed runtime: the
/// same phase driver as [`wootz_core::pipeline::run_wootz_with`]
/// ([`run_phases`]), with pre-training groups and configuration
/// evaluations executing on `opts.workers` separate worker OS processes
/// fed over TCP from the hub's in-memory queue. The
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
/// Propagates phase errors, journal errors, and log-directory I/O
/// failures; returns a stall error (with diagnostics) when no task makes
/// progress for two minutes.
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
        Coordinator::start(inputs, opts, full_ckpt)
    })?;
    let stats = coord.finish();
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

#[cfg(test)]
mod tests {
    use super::*;
    use wootz_core::compile::TuningBlock;
    use wootz_core::explore::{EvalOutcome, SupervisedEval};
    use wootz_core::pretrain::{GroupOutcome, PretrainedBlock};
    use wootz_core::prune::PruneConfig;

    fn batch() -> Vec<TuningBlock> {
        vec![
            TuningBlock::new(0, vec![(1, 50)]).unwrap(),
            TuningBlock::new(1, vec![(2, 50)]).unwrap(),
            TuningBlock::new(2, vec![(3, 70)]).unwrap(),
        ]
    }

    fn result(index: usize, output: TaskOutput) -> TaskResult {
        TaskResult {
            seq: 1,
            attempt: 1,
            epoch: 1,
            worker: "w0".to_string(),
            wall_ms: 1,
            output,
            index,
        }
    }

    fn eval_result(config_index: usize) -> TaskResult {
        let outcome = EvalOutcome {
            model_size: 10,
            flops: 20,
            accuracy: 0.5,
            cost: 3.0,
            log: None,
        };
        let sup = SupervisedEval {
            result: Ok(outcome),
            attempts: 1,
            backoff: 0.0,
        };
        result(config_index, TaskOutput::Eval(sup))
    }

    fn pretrain_result(group_index: usize, trained: &[&str], failed: &[&str]) -> TaskResult {
        let block = |key: &&str| PretrainedBlock {
            key: key.to_string(),
            checkpoint: Checkpoint::new(),
            first_loss: 1.0,
            last_loss: 0.5,
            steps: 4,
        };
        let outcome = GroupOutcome {
            blocks: trained.iter().map(block).collect(),
            failed: failed
                .iter()
                .map(|key| (key.to_string(), "boom".to_string()))
                .collect(),
            first_error: Some(CoreError::Remote("group boom".to_string())),
        };
        result(group_index, TaskOutput::Pretrain(outcome))
    }

    /// A speculative duplicate still queued when its original wins goes
    /// with the win: the next `TaskRequest` is granted the next batch's
    /// task, not the won unit's duplicate.
    #[test]
    fn a_won_units_queued_duplicate_is_never_granted() {
        use crate::messages::Message;
        use std::net::TcpStream;
        use wootz_wire::Limits;

        let mut opts = ClusterOptions::new(std::env::temp_dir(), 0, (PathBuf::new(), Vec::new()));
        opts.lease_ms = 60_000;
        opts.speculate_after_ms = Some(0);
        let manifest = Manifest {
            epoch: 1,
            model: wootz_models::resnet_mini(8),
            solver: wootz_ir::SolverConfig::parse("dataset: \"flowers102\"\n").unwrap(),
            objective: wootz_ir::Objective::parse("min ModelSize\n").unwrap(),
            faults: None,
            retry: RetryPolicy::abort_fast(),
            lease_ms: opts.lease_ms,
        };
        let mut coord = Coordinator {
            epoch: 1,
            opts: &opts,
            pool: WorkerPool {
                logs: PathBuf::new(),
                exe: PathBuf::new(),
                prefix: Vec::new(),
                orphan_grace_ms: None,
                env: Vec::new(),
                slots: Vec::new(),
            },
            hub: NetHub::bind("127.0.0.1:0", manifest, Checkpoint::new()).unwrap(),
            stats: ClusterStats::default(),
            next_seq: 0,
            // Calibrated, so a lone grant past 0 ms is a straggler.
            rate_samples: vec![1.0],
        };
        let addr = coord.hub.local_addr().to_string();
        let eval = |config_index| Task::Eval {
            config_index,
            config: PruneConfig::unpruned(4),
            blocks: None,
        };
        std::thread::scope(|scope| {
            // One scripted worker: it runs the first batch's task slowly
            // enough to be speculated on, then takes whatever it is
            // granted until it holds the second batch's task.
            let worker = scope.spawn(move || {
                let mut conn = TcpStream::connect(&addr).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let recv =
                    |conn: &mut TcpStream| Message::read_from(conn, &Limits::DEFAULT).unwrap().0;
                let hello = Message::Hello {
                    worker: "w0".to_string(),
                    epoch: 0,
                };
                hello.write_to(&mut conn).unwrap();
                assert!(matches!(recv(&mut conn), Message::Welcome { .. }));
                let mut granted = Vec::new();
                loop {
                    let request = Message::TaskRequest {
                        worker: "w0".to_string(),
                    };
                    request.write_to(&mut conn).unwrap();
                    let Message::TaskGrant { task } = recv(&mut conn) else {
                        panic!("expected a grant");
                    };
                    if granted.is_empty() {
                        // Hold the result until the drive loop has
                        // speculated on this lone grant: the duplicate is
                        // queued. No other test in this binary speculates.
                        let launched = wootz_obs::counter("cluster.speculative_launched");
                        let deadline = Instant::now() + Duration::from_secs(30);
                        while launched.get() == 0 && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                    granted.push((task.seq, task.attempt));
                    let result = TaskResult {
                        seq: task.seq,
                        attempt: task.attempt,
                        epoch: task.epoch,
                        worker: "w0".to_string(),
                        wall_ms: 1,
                        output: TaskOutput::failed(&task.task, CoreError::Remote("boom".into()), 1),
                        index: task.seq as usize - 1,
                    };
                    Message::TaskDone { result }.write_to(&mut conn).unwrap();
                    if task.seq == 2 {
                        return granted;
                    }
                }
            });
            let first = coord.task(eval(0), 1);
            coord.drive(vec![first]).unwrap();
            assert_eq!(coord.stats.speculative_launched, 1, "no duplicate queued");
            let second = coord.task(eval(1), 1);
            coord.drive(vec![second]).unwrap();
            assert_eq!(worker.join().unwrap(), [(1, 1), (2, 1)]);
        });
        assert_eq!(coord.stats.tasks_completed, 2);
        assert_eq!(coord.stats.zombie_results_rejected, 0);
    }

    #[test]
    fn fresh_epochs_are_non_zero_and_pairwise_distinct() {
        // Many starts in one process, from several threads at once, the
        // way coordinators of concurrent runs in one test binary start.
        let epochs: Vec<u64> = std::thread::scope(|scope| {
            let starts: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..256).map(|_| fresh_epoch()).collect::<Vec<_>>()))
                .collect();
            starts.into_iter().flat_map(|s| s.join().unwrap()).collect()
        });
        assert!(epochs.iter().all(|&e| e != 0), "a fresh epoch was 0");
        let distinct: BTreeSet<u64> = epochs.iter().copied().collect();
        assert_eq!(distinct.len(), epochs.len(), "two starts drew one epoch");
    }

    #[test]
    fn results_for_another_unit_of_work_are_refused() {
        let batch = batch();
        let (k0, k1, k2) = (batch[0].key(), batch[1].key(), batch[2].key());
        let eval = Task::Eval {
            config_index: 3,
            config: PruneConfig::unpruned(4),
            blocks: None,
        };
        let group = Task::Pretrain {
            group_index: 1,
            blocks: vec![(0, batch[0].clone()), (2, batch[2].clone())],
        };
        let refused = |task: &Task, result: TaskResult| match task_output(task, result) {
            Ok(_) => panic!("accepted a mismatched result for {task:?}"),
            Err(e) => e.to_string(),
        };
        let msg = refused(&eval, eval_result(4));
        assert!(msg.contains("configuration 3 returned config 4"), "{msg}");
        let msg = refused(&eval, pretrain_result(3, &[], &[]));
        assert!(msg.contains("a pre-training output"), "{msg}");
        let msg = refused(&group, eval_result(1));
        assert!(msg.contains("an evaluation output"), "{msg}");
        let msg = refused(&group, pretrain_result(0, &[&k0, &k2], &[]));
        assert!(
            msg.contains("pre-training group 1 returned group 0"),
            "{msg}"
        );
        // A block of the batch, but not of this group, trained or failed.
        let msg = refused(&group, pretrain_result(1, &[&k0, &k1], &[]));
        assert!(msg.contains(&format!("block `{k1}`")), "{msg}");
        let msg = refused(&group, pretrain_result(1, &[&k0], &[&k1]));
        assert!(msg.contains(&format!("block `{k1}`")), "{msg}");
        let msg = refused(&group, pretrain_result(1, &["m9r10"], &[]));
        assert!(msg.contains("block `m9r10`"), "{msg}");
    }

    /// A result for its own task is the worker's output itself — the
    /// group error included, which decides whether a batch whose every
    /// block failed aborts the run, as it does in-process.
    #[test]
    fn results_for_their_own_task_map_to_its_output() {
        let batch = batch();
        let (k0, k2) = (batch[0].key(), batch[2].key());
        let eval = Task::Eval {
            config_index: 3,
            config: PruneConfig::unpruned(4),
            blocks: None,
        };
        match task_output(&eval, eval_result(3)).unwrap() {
            TaskOutput::Eval(sup) => {
                assert_eq!(sup.attempts, 1);
                assert_eq!(sup.result.unwrap().model_size, 10);
            }
            TaskOutput::Pretrain(_) => panic!("an evaluation mapped to a group"),
        }
        let group = Task::Pretrain {
            group_index: 1,
            blocks: vec![(0, batch[0].clone()), (2, batch[2].clone())],
        };
        match task_output(&group, pretrain_result(1, &[&k0], &[&k2])).unwrap() {
            TaskOutput::Pretrain(out) => {
                assert_eq!(out.blocks.len(), 1);
                assert_eq!(out.blocks[0].key, k0);
                assert_eq!(out.failed, vec![(k2, "boom".to_string())]);
                let error = out.first_error.expect("the group error was dropped");
                assert_eq!(error.to_string(), "group boom");
            }
            TaskOutput::Eval(_) => panic!("a group mapped to an evaluation"),
        }
    }
}
