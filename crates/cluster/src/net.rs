//! The TCP transport: coordinator-side [`NetHub`] and worker-side
//! [`NetClient`], speaking the `wootz-wire` framed protocol of
//! [`crate::messages`] (specified byte-by-byte in `PROTOCOL.md`).
//!
//! # The hub owns the attempt table
//!
//! The coordinator's queue lives in memory, inside the hub, and is the one
//! table of live attempts: per `(seq, attempt)` its task, grant time, last
//! signal and whether it is speculative. The drive loop enqueues; a
//! handler answering a `TaskRequest` grants the lowest pending entry, a
//! `Heartbeat` renews the entry it names if it is still there, and a
//! `TaskDone` marks its entry delivered and hands the result to the drive
//! loop, which only asks the table what expired or straggles. Workers never
//! touch shared storage — everything they need (manifest, full
//! checkpoint, block checkpoints, tasks) arrives in frames, and
//! everything they produce leaves in frames. What survives a coordinator
//! crash is the run journal, which `--resume` replays; the queue of the
//! dead epoch is gone with its process.
//!
//! # Threading
//!
//! The hub runs one listener thread (blocking `accept`, woken at close
//! by a self-connect) plus one handler thread per connection. Handlers
//! block in `read`, or park on the dispatch signal while a `TaskRequest`
//! waits for work; shutdown wakes them by raising that signal and
//! `shutdown(2)`-ing the sockets. A handler that returns drops its
//! session from the registry, and on every accept the listener drops
//! the handles of handlers that have finished, so neither grows with
//! reconnects. The client runs one reader thread (which also consumes
//! heartbeat acks and records RTT) and shares its writer between the
//! main task loop and the per-task heartbeat ticker behind a mutex —
//! frames are written under the lock, so they never interleave.
//!
//! # Dispatch is event-driven
//!
//! Nothing on the grant → execute → deliver → reap → shutdown path waits
//! out a timer. Two condvar signals carry the wake-ups: *work* (coordinator →
//! parked `TaskRequest` handlers: raised on every enqueue and on drain)
//! and *events* (hub → coordinator: raised when a result arrives and
//! when a session closes). Both only say "look again" — the queue
//! itself says what is pending and what is done.
//!
//! # Failure model
//!
//! A connection can die at any byte. The guarantees are end-to-end, not
//! per-connection: a worker whose `TaskDone` write fails mid-frame
//! reconnects and *re-sends the same result* (the hub keeps the first
//! copy of each `(epoch, seq, attempt)` and drops the rest); a worker
//! that dies silently stops heartbeating and its lease is reclaimed; a
//! zombie reconnecting from a previous epoch is welcomed, but its
//! stale-epoch results are fenced by the coordinator. The deterministic
//! chaos hook `WOOTZ_CHAOS_NET_DROP` (see [`crate::worker`]) exercises
//! the mid-frame path in tests.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wootz_nn::Checkpoint;
use wootz_wire::{write_frame, write_len, Limits, WireError, WireResult, WireSerialize};

use wootz_core::pipeline::Task;
use wootz_core::Result;

use crate::messages::Message;
use crate::protocol::{cluster_err, Manifest, TaskResult, TaskSpec};

/// How long a client read may sit idle before the reader treats the
/// connection as dead and triggers a reconnect. A parked `TaskRequest`
/// is answered within [`long_poll_park`] (at most a third of this) and
/// heartbeat acks arrive at a quarter-lease cadence while a task runs,
/// so a healthy session never gets close to it.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Pause after a failed `accept` (descriptor exhaustion and the like),
/// so a persistent error cannot spin the listener thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// How long [`NetHub::bind`] retries an `AddrInUse` bind before giving
/// up — a restarted coordinator rebinding its old port can race the
/// kernel releasing the dead process's socket.
const BIND_RETRY: Duration = Duration::from_secs(5);
const BIND_RETRY_POLL: Duration = Duration::from_millis(100);

/// How long the hub parks a `TaskRequest` it cannot grant before it
/// answers `NoTask`: two lease periods, clamped to 50 ms – 10 s. The
/// bound is not a polling cadence (an enqueue or a drain ends the park
/// at once); it only keeps an idle session's silence far below the
/// client's 30-second read timeout and lets the hub notice a peer that
/// vanished while parked, when the `NoTask` write fails.
pub fn long_poll_park(lease_ms: u64) -> Duration {
    Duration::from_millis(lease_ms.saturating_mul(2).clamp(50, 10_000))
}

/// Locks a mutex, recovering from poison: one panicking connection
/// handler must not cascade-kill the hub (or the worker's heartbeat
/// thread), so a poisoned lock is taken over as-is and counted on
/// `net.lock_poisoned`. Every guarded structure here stays consistent
/// under a panic at any interior point — mutations are single inserts,
/// pushes or whole-frame writes — so taking the data is safe.
pub(crate) fn lock_recover<'a, T>(lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
    lock.lock().unwrap_or_else(|poisoned| {
        wootz_obs::counter("net.lock_poisoned").incr();
        poisoned.into_inner()
    })
}

/// A wake-up signal that cannot be lost: a generation counter under a
/// mutex plus a condvar. A waiter reads the generation ([`Signal::seen`])
/// *before* inspecting the state the signal guards and then waits for
/// the generation to move past that reading, so a [`Signal::raise`]
/// landing between the inspection and the wait ends the wait at once.
/// The signal carries no payload — it only ever means "look again".
struct Signal {
    generation: Mutex<u64>,
    moved: Condvar,
}

impl Signal {
    fn new() -> Signal {
        Signal {
            generation: Mutex::new(0),
            moved: Condvar::new(),
        }
    }

    fn seen(&self) -> u64 {
        *lock_recover(&self.generation)
    }

    fn raise(&self) {
        *lock_recover(&self.generation) += 1;
        self.moved.notify_all();
    }

    /// Blocks until the generation exceeds `seen` or `timeout` elapses.
    fn wait_past(&self, seen: u64, timeout: Duration) {
        let guard = lock_recover(&self.generation);
        // A poisoned wait is recovered like a poisoned lock: the counter
        // is valid at every step.
        drop(
            self.moved
                .wait_timeout_while(guard, timeout, |generation| *generation <= seen)
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
    }
}

/// One frame, encoded once and written as often as needed.
struct EncodedFrame {
    msg_type: u16,
    payload: Vec<u8>,
}

impl EncodedFrame {
    fn of(msg: &Message) -> WireResult<EncodedFrame> {
        Ok(EncodedFrame {
            msg_type: msg.msg_type(),
            payload: msg.encode_payload()?,
        })
    }
}

/// Writes one encoded frame under the shared writer lock, counting
/// `wire.frames` / `wire.frames_bytes`.
fn send_frame(writer: &Mutex<TcpStream>, frame: &EncodedFrame) -> WireResult<usize> {
    let mut stream = lock_recover(writer);
    let n = write_frame(&mut *stream, frame.msg_type, &frame.payload)?;
    stream.flush()?;
    wootz_obs::counter("wire.frames").incr();
    wootz_obs::counter("wire.frames_bytes").add(n as u64);
    Ok(n)
}

/// Writes one message as a frame (encoded before the writer lock is
/// taken), counting `wire.frames` / `wire.frames_bytes`.
pub(crate) fn send_message(writer: &Mutex<TcpStream>, msg: &Message) -> WireResult<usize> {
    send_frame(writer, &EncodedFrame::of(msg)?)
}

/// Reads one message frame, counting `wire.frames` / `wire.frames_bytes`
/// on success and `wire.decode_errors` on anything malformed (a clean
/// [`WireError::Closed`] is not a decode error).
pub(crate) fn recv_message(stream: &mut TcpStream, limits: &Limits) -> WireResult<Message> {
    match Message::read_from(stream, limits) {
        Ok((msg, n)) => {
            wootz_obs::counter("wire.frames").incr();
            wootz_obs::counter("wire.frames_bytes").add(n as u64);
            Ok(msg)
        }
        Err(WireError::Closed) => Err(WireError::Closed),
        Err(e) => {
            wootz_obs::counter("wire.decode_errors").incr();
            Err(e)
        }
    }
}

/// The coordinator's side of one live connection.
struct Session {
    writer: Mutex<TcpStream>,
    /// Set by whoever sends this session its [`Message::Shutdown`] first
    /// — the drain broadcast or the session's own handler — so a worker
    /// parked in a long-poll when the drain begins reads exactly one.
    shutdown_sent: AtomicBool,
}

impl Session {
    fn send_shutdown(&self) {
        if !self.shutdown_sent.swap(true, Ordering::SeqCst) {
            let _ = send_message(&self.writer, &Message::Shutdown);
        }
    }
}

/// One live attempt of a unit of work: the hub's only record of it.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// What the attempt runs.
    pub task: TaskSpec,
    /// Launched against a straggler ([`NetHub::speculate`]).
    pub speculative: bool,
    stage: Stage,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    Pending,
    /// `granted` starts the speculation clock; `last_signal`, the grant
    /// and then every heartbeat, is the lease clock.
    Granted {
        granted: Instant,
        last_signal: Instant,
    },
    /// The result arrived and waits for the drive loop.
    Delivered,
}

/// A received result for the drive loop. Its attempt was not live if it
/// was reclaimed, outrun by another attempt of its unit, or of another
/// epoch.
#[derive(Debug)]
pub struct Delivery {
    /// The worker's result.
    pub result: TaskResult,
    /// When its `TaskDone` arrived.
    pub arrived: Instant,
    /// The attempt's entry, if it was live.
    pub attempt: Option<Attempt>,
}

/// The coordinator's task queue. The drive loop enqueues and takes
/// results; the connection handlers claim, renew and deliver.
#[derive(Default)]
struct Queue {
    /// Every live attempt; the pending ones are granted lowest first.
    attempts: BTreeMap<(u64, u32), Attempt>,
    /// Every `(epoch, seq, attempt)` a result arrived for: a worker
    /// resending a `TaskDone` it could not confirm is heard once.
    delivered: HashSet<(u64, u64, u32)>,
    /// Received results, until the drive loop takes them.
    results: Vec<Delivery>,
}

impl Queue {
    /// The live attempts of unit `seq`.
    fn unit(&self, seq: u64) -> impl Iterator<Item = &Attempt> {
        self.attempts
            .range((seq, 0)..=(seq, u32::MAX))
            .map(|(_, a)| a)
    }

    fn count(&self, stage: impl Fn(Stage) -> bool) -> usize {
        self.attempts.values().filter(|a| stage(a.stage)).count()
    }
}

/// Shared state of the coordinator's network hub.
struct HubState {
    epoch: u64,
    manifest: Manifest,
    full_ckpt: Checkpoint,
    /// Upper bound on one `TaskRequest` park ([`long_poll_park`]).
    park: Duration,
    /// Coordinator → handlers: a task was enqueued, or the run drains.
    work: Signal,
    /// Handlers → coordinator: a result arrived, or a session closed.
    events: Signal,
    queue: Mutex<Queue>,
    /// Spawn times of pool workers that have not asked for work yet
    /// (`cluster.worker_ready_ms`).
    spawned: Mutex<HashMap<String, Instant>>,
    /// Worker ids that have said Hello at least once (reconnect detection).
    known_workers: Mutex<HashMap<String, usize>>,
    reconnects: AtomicUsize,
    /// Reconnects whose `Hello` carried a *previous* epoch: live workers
    /// orphaned by a coordinator crash, re-adopted by this restart.
    readopted: AtomicUsize,
    /// `NoTask` replies sent — each one a park that expired.
    no_task_replies: AtomicUsize,
    /// The published pre-trained blocks by key ([`NetHub::publish_blocks`]),
    /// each encoded once, as its `(key, checkpoint)` element of a
    /// [`Message::Blocks`] payload.
    blocks: Mutex<BTreeMap<String, Arc<[u8]>>>,
    /// Set when the coordinator is draining: new sessions and task
    /// requests are answered with [`Message::Shutdown`].
    draining: AtomicBool,
    /// Set when the hub is closing for good (stops the accept loop).
    closing: AtomicBool,
    /// The live connections by session id, for the shutdown broadcast
    /// and the final socket teardown. A handler removes its own entry
    /// when it returns.
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    limits: Limits,
}

impl HubState {
    /// The live sessions, snapshotted so no frame is written and no socket
    /// closed under the registry lock.
    fn live_sessions(&self) -> Vec<Arc<Session>> {
        lock_recover(&self.sessions).values().cloned().collect()
    }

    /// Grants the lowest pending `(seq, attempt)`.
    fn claim(&self) -> Option<TaskSpec> {
        let mut queue = lock_recover(&self.queue);
        let attempt = queue
            .attempts
            .values_mut()
            .find(|a| a.stage == Stage::Pending)?;
        let now = Instant::now();
        attempt.stage = Stage::Granted {
            granted: now,
            last_signal: now,
        };
        Some(attempt.task.clone())
    }

    /// A heartbeat renews `(seq, attempt)` only while the table holds it
    /// granted: a zombie's heartbeat revives nothing.
    fn renew(&self, seq: u64, attempt: u32) {
        let mut queue = lock_recover(&self.queue);
        if let Some(Stage::Granted { last_signal, .. }) = queue
            .attempts
            .get_mut(&(seq, attempt))
            .map(|a| &mut a.stage)
        {
            *last_signal = Instant::now();
        }
    }

    /// Hands a received result to the drive loop, unless a copy of it
    /// already arrived, and wakes the loop. A live result (this epoch's,
    /// its attempt still in the table) wins its unit at once: its entry
    /// waits, delivered, for the drive loop, and every other attempt of
    /// the unit leaves the table, so a queued duplicate is not granted to
    /// the `TaskRequest` that follows this `TaskDone`.
    fn deliver(&self, result: TaskResult, arrived: Instant) {
        let mut queue = lock_recover(&self.queue);
        if !queue
            .delivered
            .insert((result.epoch, result.seq, result.attempt))
        {
            return;
        }
        let (seq, n) = (result.seq, result.attempt);
        let attempt = match queue.attempts.get_mut(&(seq, n)) {
            Some(attempt) if result.epoch == self.epoch => {
                attempt.stage = Stage::Delivered;
                Some(attempt.clone())
            }
            _ => None,
        };
        if attempt.is_some() {
            queue.attempts.retain(|&key, _| key.0 != seq || key.1 == n);
        }
        queue.results.push(Delivery {
            result,
            arrived,
            attempt,
        });
        drop(queue);
        self.events.raise();
    }

    /// Sends `session` the blocks `task` needs that are published and
    /// not in `sent`, as one `Blocks` frame, and adds their keys to
    /// `sent`; sends nothing when there are none. A key the hub never
    /// published is a block whose pre-training failed: it assembles from
    /// inherited weights, so it never crosses the wire. The payload is the
    /// elements [`NetHub::publish_blocks`] encoded, taken under the lock
    /// and copied after it is released, never re-encoded.
    fn push_blocks(
        &self,
        session: &Session,
        sent: &mut HashSet<String>,
        task: &Task,
    ) -> WireResult<()> {
        let Task::Eval {
            blocks: Some(blocks),
            ..
        } = task
        else {
            return Ok(());
        };
        let fresh: Vec<Arc<[u8]>> = {
            let published = lock_recover(&self.blocks);
            blocks
                .iter()
                .filter_map(|block| {
                    let key = block.key();
                    let element = published.get(&key)?;
                    sent.insert(key).then(|| Arc::clone(element))
                })
                .collect()
        };
        if fresh.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(4 + fresh.iter().map(|e| e.len()).sum::<usize>());
        write_len(&mut payload, "Blocks index", fresh.len())?;
        fresh
            .iter()
            .for_each(|element| payload.extend_from_slice(element));
        let msg_type = Message::Blocks { index: Vec::new() }.msg_type();
        send_frame(&session.writer, &EncodedFrame { msg_type, payload })?;
        wootz_obs::counter("net.blocks_pushed").add(fresh.len() as u64);
        Ok(())
    }

    /// Answers one `TaskRequest` as a long-poll: grants the moment a task
    /// can be claimed, sends `Shutdown` the moment the run drains, and
    /// only after [`HubState::park`] without either answers `NoTask` —
    /// with a zero backoff, because the waiting already happened here.
    /// A grant is preceded by the blocks its task needs that the session
    /// has not been sent yet ([`HubState::push_blocks`]), noted in `sent`.
    /// `None` means the session's one `Shutdown` was (or already had
    /// been) sent instead of a reply.
    ///
    /// # Errors
    ///
    /// The socket error of a failed block push; the task stays claimed
    /// until its lease reclaims it.
    fn answer_task_request(
        &self,
        session: &Session,
        sent: &mut HashSet<String>,
    ) -> WireResult<Option<Message>> {
        let deadline = Instant::now() + self.park;
        loop {
            // Generation first, queue second: an enqueue between the
            // claim attempt and the wait moves the generation and ends
            // the wait at once.
            let seen = self.work.seen();
            if self.draining.load(Ordering::SeqCst) {
                session.send_shutdown();
                return Ok(None);
            }
            if let Some(task) = self.claim() {
                self.push_blocks(session, sent, &task.task)?;
                let grant = Message::TaskGrant { task };
                // Chaos: the task is claimed but the grant frame reaches
                // the worker torn — the crash window between
                // "coordinator committed" and "worker informed". The
                // restarted epoch re-runs the unit from the journal; the
                // worker sees a truncated frame and reconnects.
                if wootz_fault::chaos::kill_point(wootz_fault::chaos::kill_site::COORD_GRANT) {
                    let mut frame = Vec::new();
                    let _ = grant.write_to(&mut frame);
                    let mut stream = lock_recover(&session.writer);
                    let _ = stream.write_all(&frame[..frame.len() / 2]);
                    let _ = stream.flush();
                    wootz_fault::chaos::die(wootz_fault::chaos::kill_site::COORD_GRANT);
                }
                return Ok(Some(grant));
            }
            let now = Instant::now();
            if now >= deadline {
                self.no_task_replies.fetch_add(1, Ordering::Relaxed);
                wootz_obs::counter("net.no_task_replies").incr();
                return Ok(Some(Message::NoTask { backoff_ms: 0 }));
            }
            self.work.wait_past(seen, deadline - now);
        }
    }
}

/// The coordinator's network front-end: accepts worker connections,
/// speaks the protocol on the coordinator's behalf, and owns the task
/// queue between them.
pub struct NetHub {
    state: Arc<HubState>,
    listener: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    bound: SocketAddr,
    local_addr: String,
}

impl NetHub {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting workers.
    ///
    /// # Errors
    ///
    /// Returns an error when the address cannot be bound.
    pub fn bind(addr: &str, manifest: Manifest, full_ckpt: Checkpoint) -> Result<NetHub> {
        // Retry `AddrInUse` briefly: a restarted coordinator rebinding the
        // port its killed predecessor held can race the kernel's socket
        // teardown. Any other error is immediately fatal.
        let deadline = Instant::now() + BIND_RETRY;
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(listener) => break listener,
                Err(e)
                    if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline =>
                {
                    std::thread::sleep(BIND_RETRY_POLL);
                }
                Err(e) => return Err(cluster_err(format!("cannot listen on `{addr}`: {e}"))),
            }
        };
        let bound = listener
            .local_addr()
            .map_err(|e| cluster_err(format!("cannot resolve listen address: {e}")))?;
        let local_addr = bound.to_string();
        let state = Arc::new(HubState {
            epoch: manifest.epoch,
            park: long_poll_park(manifest.lease_ms),
            manifest,
            full_ckpt,
            work: Signal::new(),
            events: Signal::new(),
            queue: Mutex::new(Queue::default()),
            spawned: Mutex::new(HashMap::new()),
            known_workers: Mutex::new(HashMap::new()),
            reconnects: AtomicUsize::new(0),
            readopted: AtomicUsize::new(0),
            no_task_replies: AtomicUsize::new(0),
            blocks: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            limits: Limits::DEFAULT,
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_state = Arc::clone(&state);
        let accept_handlers = Arc::clone(&handlers);
        let listener_thread = std::thread::spawn(move || {
            let mut next_session = 0u64;
            loop {
                let accepted = listener.accept();
                // `close` wakes this blocking accept with a self-connect.
                if accept_state.closing.load(Ordering::SeqCst) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        next_session += 1;
                        let (state, id) = (Arc::clone(&accept_state), next_session);
                        let handle =
                            std::thread::spawn(move || handle_connection(state, id, stream));
                        // Drop the handles of handlers that returned since
                        // the last accept (nothing is left to join), so a
                        // reconnect storm leaks none.
                        let mut handlers = lock_recover(&accept_handlers);
                        handlers.retain(|handler| !handler.is_finished());
                        handlers.push(handle);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
                }
            }
        });
        wootz_obs::event("net.hub_listening")
            .field("addr", local_addr.clone())
            .emit();
        Ok(NetHub {
            state,
            listener: Some(listener_thread),
            handlers,
            bound,
            local_addr,
        })
    }

    /// The bound address (with the real port when `addr` ended in `:0`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Queues `task` for the next `TaskRequest` and wakes the parked
    /// ones — first attempts and lease re-enqueues.
    pub fn enqueue(&self, task: TaskSpec) {
        self.insert(task, false);
    }

    /// Queues `task` as a speculative duplicate of a straggler.
    pub fn speculate(&self, task: TaskSpec) {
        self.insert(task, true);
    }

    fn insert(&self, task: TaskSpec, speculative: bool) {
        let key = (task.seq, task.attempt);
        let stage = Stage::Pending;
        let attempt = Attempt {
            task,
            speculative,
            stage,
        };
        lock_recover(&self.state.queue)
            .attempts
            .insert(key, attempt);
        self.state.work.raise();
    }

    /// Number of tasks not granted yet.
    pub fn pending(&self) -> usize {
        lock_recover(&self.state.queue).count(|stage| stage == Stage::Pending)
    }

    /// Number of granted tasks whose result has not arrived.
    pub fn claimed(&self) -> usize {
        lock_recover(&self.state.queue).count(|stage| matches!(stage, Stage::Granted { .. }))
    }

    /// Whether the table holds an attempt of unit `seq`.
    pub fn is_live(&self, seq: u64) -> bool {
        lock_recover(&self.state.queue).unit(seq).next().is_some()
    }

    /// Takes out every granted attempt without a signal for longer than
    /// the lease: each is fenced from now on.
    pub fn take_expired(&self) -> Vec<Attempt> {
        let lease_ms = self.state.manifest.lease_ms;
        let now = Instant::now();
        let expired = |a: &mut Attempt| match a.stage {
            Stage::Granted { last_signal, .. } => {
                now.saturating_duration_since(last_signal).as_millis() as u64 > lease_ms
            }
            Stage::Pending | Stage::Delivered => false,
        };
        lock_recover(&self.state.queue)
            .attempts
            .extract_if(.., |_, a| expired(a))
            .map(|(_, attempt)| attempt)
            .collect()
    }

    /// The straggler to speculate on: of the units whose one live
    /// attempt is granted, the lowest `seq` for which `past_deadline`
    /// holds, given the task and how long ago it was granted.
    pub fn straggler(
        &self,
        past_deadline: impl Fn(&TaskSpec, Duration) -> bool,
    ) -> Option<TaskSpec> {
        let now = Instant::now();
        let queue = lock_recover(&self.state.queue);
        queue.attempts.values().find_map(|attempt| {
            let Stage::Granted { granted, .. } = attempt.stage else {
                return None;
            };
            let lone = queue.unit(attempt.task.seq).count() == 1;
            let running = now.saturating_duration_since(granted);
            (lone && past_deadline(&attempt.task, running)).then(|| attempt.task.clone())
        })
    }

    /// Takes every attempt of unit `seq` out of the table.
    pub fn retire(&self, seq: u64) {
        lock_recover(&self.state.queue)
            .attempts
            .retain(|&(unit, _), _| unit != seq);
    }

    /// Takes the results received since the last call, in arrival order.
    pub fn take_results(&self) -> Vec<Delivery> {
        std::mem::take(&mut lock_recover(&self.state.queue).results)
    }

    /// The event generation as of now; read it *before* taking results,
    /// then hand it to [`NetHub::wait_event`].
    pub fn events_seen(&self) -> u64 {
        self.state.events.seen()
    }

    /// Blocks until a result arrived or a session closed after `seen`
    /// was read, or until `timeout` elapses.
    pub fn wait_event(&self, seen: u64, timeout: Duration) {
        self.state.events.wait_past(seen, timeout);
    }

    /// Number of currently open worker sessions.
    pub fn sessions(&self) -> usize {
        lock_recover(&self.state.sessions).len()
    }

    /// Notes that the pool just spawned `worker`; its first
    /// `TaskRequest` records `cluster.worker_ready_ms`.
    pub fn note_spawned(&self, worker: &str) {
        lock_recover(&self.state.spawned).insert(worker.to_string(), Instant::now());
    }

    /// Worker sessions re-opened after a previous Hello (or claiming a
    /// previous epoch).
    pub fn reconnects(&self) -> usize {
        self.state.reconnects.load(Ordering::Relaxed)
    }

    /// Live workers re-adopted after a coordinator restart: reconnects
    /// whose `Hello` carried an earlier fencing epoch.
    pub fn readopted(&self) -> usize {
        self.state.readopted.load(Ordering::Relaxed)
    }

    /// `NoTask` replies sent so far: `TaskRequest`s that stayed parked
    /// for the whole [`long_poll_park`] without work or drain.
    pub fn no_task_replies(&self) -> usize {
        self.state.no_task_replies.load(Ordering::Relaxed)
    }

    /// Whether the block `key` has been published.
    pub fn has_block(&self, key: &str) -> bool {
        lock_recover(&self.state.blocks).contains_key(key)
    }

    /// Publishes pre-trained blocks for the pushes ahead of evaluation
    /// grants: encodes each once and adds it under its key. Rounds that
    /// pre-train new blocks publish them before the round's evaluations
    /// are enqueued, so a key of a granted evaluation the hub lacks is a
    /// block whose pre-training failed.
    ///
    /// # Errors
    ///
    /// Returns an error when a block cannot be encoded.
    pub fn publish_blocks<'b>(
        &self,
        blocks: impl IntoIterator<Item = (&'b String, &'b Checkpoint)>,
    ) -> Result<()> {
        let mut published = lock_recover(&self.state.blocks);
        for (key, checkpoint) in blocks {
            let mut element = Vec::with_capacity(key.wire_size() + checkpoint.wire_size());
            key.wire_write(&mut element)
                .and_then(|_| checkpoint.wire_write(&mut element))
                .map_err(|e| cluster_err(format!("cannot encode block `{key}`: {e}")))?;
            published.insert(key.clone(), element.into());
        }
        Ok(())
    }

    /// Enters drain mode: every live connection gets one
    /// [`Message::Shutdown`] — parked `TaskRequest`s are woken and find
    /// it is their answer. Sockets stay open so in-flight results can
    /// still be delivered during the grace period.
    pub fn broadcast_shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.work.raise();
        for session in self.state.live_sessions() {
            session.send_shutdown();
        }
    }

    /// Tears the hub down: stops accepting, closes every socket (waking
    /// blocked handler reads and parked requests) and joins all threads.
    pub fn close(&mut self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.closing.store(true, Ordering::SeqCst);
        self.state.work.raise();
        for session in self.state.live_sessions() {
            // Poison-recovered too: a handler that panicked mid-frame must
            // not leave its socket open (that would hang a blocked read).
            let _ = lock_recover(&session.writer).shutdown(Shutdown::Both);
        }
        if let Some(listener) = self.listener.take() {
            // Wake the blocking accept; a wildcard bind is reached over
            // loopback. Should the connect fail the thread is left
            // detached rather than joined forever.
            let mut wake = self.bound;
            if wake.ip().is_unspecified() {
                wake.set_ip(Ipv4Addr::LOCALHOST.into());
            }
            if TcpStream::connect(wake).is_ok() {
                let _ = listener.join();
            }
        }
        for handle in lock_recover(&self.handlers).drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetHub {
    fn drop(&mut self) {
        self.close();
    }
}

/// Removes a session from the registry when its handler returns (or
/// panics) and tells the coordinator a session closed.
struct SessionGuard<'a> {
    state: &'a HubState,
    id: u64,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        lock_recover(&self.state.sessions).remove(&self.id);
        self.state.events.raise();
    }
}

/// One coordinator-side connection: a request/response loop over the
/// worker's frames. A `TaskDone` gets no reply — the hub hands it to the
/// drive loop — and a grant may be preceded by one `Blocks` frame; the
/// session remembers which block keys it has sent, so a worker that
/// redials (a new session) is sent its blocks again.
fn handle_connection(state: Arc<HubState>, id: u64, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let session = Arc::new(Session {
        writer: Mutex::new(stream),
        shutdown_sent: AtomicBool::new(false),
    });
    // The block keys this session has been sent.
    let mut sent: HashSet<String> = HashSet::new();
    lock_recover(&state.sessions).insert(id, Arc::clone(&session));
    let _registered = SessionGuard { state: &state, id };
    if state.closing.load(Ordering::SeqCst) {
        // Accepted while `close` was collecting the sessions to shut
        // down: nobody else will close this socket.
        return;
    }
    loop {
        let msg = match recv_message(&mut reader, &state.limits) {
            Ok(msg) => msg,
            Err(WireError::Closed) => return,
            Err(e) => {
                // A framing error poisons the stream (no resync point);
                // drop the connection and let the worker reconnect.
                wootz_obs::event("net.connection_error")
                    .field("error", e.to_string())
                    .emit();
                let _ = reader.shutdown(Shutdown::Both);
                return;
            }
        };
        let received = Instant::now();
        let is_task_request = matches!(msg, Message::TaskRequest { .. });
        let reply = match msg {
            Message::Hello { worker, epoch } => {
                let mut known = lock_recover(&state.known_workers);
                let sessions = known.entry(worker.clone()).or_insert(0);
                *sessions += 1;
                let stale_epoch = epoch != 0 && epoch != state.epoch;
                if *sessions > 1 || stale_epoch {
                    state.reconnects.fetch_add(1, Ordering::Relaxed);
                    wootz_obs::counter("net.reconnects").incr();
                    if stale_epoch {
                        // A live worker from a previous coordinator's epoch:
                        // this restart re-adopts it (the Welcome below
                        // re-bases it onto the current epoch's manifest).
                        state.readopted.fetch_add(1, Ordering::Relaxed);
                        wootz_obs::counter("net.workers_readopted").incr();
                    }
                    wootz_obs::event("net.worker_reconnected")
                        .field("worker", worker.clone())
                        .field("stale_epoch", stale_epoch as usize)
                        .emit();
                } else {
                    wootz_obs::event("net.worker_connected")
                        .field("worker", worker.clone())
                        .emit();
                }
                if state.draining.load(Ordering::SeqCst) {
                    session.send_shutdown();
                    None
                } else {
                    Some(Message::Welcome {
                        epoch: state.epoch,
                        manifest: state.manifest.clone(),
                        full_ckpt: state.full_ckpt.clone(),
                    })
                }
            }
            Message::TaskRequest { worker } => {
                if let Some(spawned) = lock_recover(&state.spawned).remove(&worker) {
                    wootz_obs::histogram("cluster.worker_ready_ms")
                        .record(spawned.elapsed().as_millis() as u64);
                }
                match state.answer_task_request(&session, &mut sent) {
                    Ok(reply) => reply,
                    Err(_) => return,
                }
            }
            Message::Heartbeat {
                seq,
                attempt,
                nonce,
                ..
            } => {
                state.renew(seq, attempt);
                Some(Message::HeartbeatAck { nonce })
            }
            Message::TaskDone { result } => {
                // The coordinator's fencing (epoch + live attempt)
                // decides acceptance — the hub delivers zombies too.
                state.deliver(result, received);
                None
            }
            // Coordinator-bound streams never carry these; ignore rather
            // than kill the session (forward compatibility). Job traffic
            // (`SubmitJob`/`JobEvent`/`JobDone`) belongs to the serve
            // daemon's listener (`crate::serve`), not the coordinator hub.
            Message::Welcome { .. }
            | Message::TaskGrant { .. }
            | Message::NoTask { .. }
            | Message::HeartbeatAck { .. }
            | Message::Blocks { .. }
            | Message::Shutdown
            | Message::SubmitJob { .. }
            | Message::JobEvent { .. }
            | Message::JobDone { .. } => None,
        };
        if let Some(reply) = reply {
            if send_message(&session.writer, &reply).is_err() {
                return;
            }
        }
        if is_task_request {
            wootz_obs::histogram("net.task_wait_us").record(received.elapsed().as_micros() as u64);
        }
    }
}

/// What the worker's reader thread forwards to the task loop (heartbeat
/// acks are consumed inside the reader).
type Inbox = Receiver<WireResult<Message>>;

/// The worker side of one TCP session.
pub struct NetClient {
    writer: Arc<Mutex<TcpStream>>,
    raw: TcpStream,
    inbox: Inbox,
    /// Heartbeat send times by nonce, for RTT measurement.
    rtt: Arc<Mutex<HashMap<u64, Instant>>>,
    reader: Option<JoinHandle<()>>,
}

impl NetClient {
    /// Connects to the coordinator at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error when the TCP connection cannot be established.
    pub fn connect(addr: &str) -> Result<NetClient> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| cluster_err(format!("cannot connect to coordinator `{addr}`: {e}")))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT));
        let raw = stream
            .try_clone()
            .map_err(|e| cluster_err(format!("cannot clone connection: {e}")))?;
        let mut reader_stream = stream
            .try_clone()
            .map_err(|e| cluster_err(format!("cannot clone connection: {e}")))?;
        let writer = Arc::new(Mutex::new(stream));
        let rtt: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
        let (tx, inbox): (Sender<WireResult<Message>>, Inbox) = channel();
        let reader_rtt = Arc::clone(&rtt);
        let reader = std::thread::spawn(move || {
            let limits = Limits::DEFAULT;
            loop {
                match recv_message(&mut reader_stream, &limits) {
                    Ok(Message::HeartbeatAck { nonce }) => {
                        if let Some(sent) = lock_recover(&reader_rtt).remove(&nonce) {
                            wootz_obs::histogram("net.heartbeat_rtt_us")
                                .record(sent.elapsed().as_micros() as u64);
                        }
                    }
                    Ok(msg) => {
                        if tx.send(Ok(msg)).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
        });
        Ok(NetClient {
            writer,
            raw,
            inbox,
            rtt,
            reader: Some(reader),
        })
    }

    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`WireError`] on write failure.
    pub fn send(&self, msg: &Message) -> WireResult<usize> {
        send_message(&self.writer, msg)
    }

    /// The shared writer handle (for the heartbeat thread).
    pub fn writer(&self) -> Arc<Mutex<TcpStream>> {
        Arc::clone(&self.writer)
    }

    /// The heartbeat-RTT bookkeeping map (nonce → send time).
    pub fn rtt_map(&self) -> Arc<Mutex<HashMap<u64, Instant>>> {
        Arc::clone(&self.rtt)
    }

    /// Receives the next non-heartbeat message.
    ///
    /// # Errors
    ///
    /// Returns the reader thread's terminal [`WireError`] once the
    /// connection is closed or poisoned.
    pub fn recv(&self) -> WireResult<Message> {
        match self.inbox.recv() {
            Ok(result) => result,
            // Reader thread gone without a terminal error: treat as close.
            Err(_) => Err(WireError::Closed),
        }
    }

    /// Deterministic mid-frame failure injection: writes exactly the
    /// first half of `msg`'s frame, then hard-closes the socket — what a
    /// worker crash between two `write(2)` calls looks like on the
    /// coordinator's side.
    ///
    /// # Errors
    ///
    /// Returns an encoding error when the message cannot be framed (the
    /// partial write itself is best-effort by design).
    pub fn send_half_frame_and_die(&self, msg: &Message) -> WireResult<()> {
        let mut frame = Vec::new();
        msg.write_to(&mut frame)?;
        let half = frame.len() / 2;
        let mut stream = lock_recover(&self.writer);
        let _ = stream.write_all(&frame[..half]);
        let _ = stream.flush();
        let _ = stream.shutdown(Shutdown::Both);
        wootz_obs::event("net.chaos_half_frame")
            .field("bytes_sent", half)
            .field("bytes_total", frame.len())
            .emit();
        Ok(())
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        let _ = self.raw.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wootz_core::explore::SupervisedEval;
    use wootz_core::pipeline::TaskOutput;
    use wootz_core::prune::PruneConfig;
    use wootz_core::CoreError;

    /// A hub on an ephemeral loopback port whose tasks nobody executes.
    fn idle_hub() -> NetHub {
        let manifest = Manifest {
            epoch: 1,
            model: wootz_models::resnet_mini(8),
            solver: wootz_ir::SolverConfig::parse("dataset: \"flowers102\"\n").unwrap(),
            objective: wootz_ir::Objective::parse("min ModelSize\n").unwrap(),
            faults: None,
            retry: wootz_fault::RetryPolicy::abort_fast(),
            lease_ms: 1500,
        };
        NetHub::bind("127.0.0.1:0", manifest, Checkpoint::new()).unwrap()
    }

    fn spec(seq: u64, attempt: u32) -> TaskSpec {
        TaskSpec {
            seq,
            attempt,
            epoch: 1,
            task: Task::Eval {
                config_index: seq as usize,
                config: PruneConfig::unpruned(4),
                blocks: None,
            },
            expected_steps: 5,
        }
    }

    fn result(task: &TaskSpec) -> TaskResult {
        TaskResult {
            seq: task.seq,
            attempt: task.attempt,
            epoch: task.epoch,
            worker: "w0".to_string(),
            wall_ms: 1,
            output: TaskOutput::Eval(SupervisedEval {
                result: Err(CoreError::Remote("boom".to_string())),
                attempts: 1,
                backoff: 0.0,
            }),
            index: task.seq as usize,
        }
    }

    /// `(seq, attempt)` of each result.
    fn ids(results: &[Delivery]) -> Vec<(u64, u32)> {
        results
            .iter()
            .map(|d| (d.result.seq, d.result.attempt))
            .collect()
    }

    #[test]
    fn enqueue_claim_and_result_round_trip() {
        let hub = idle_hub();
        hub.enqueue(spec(2, 1));
        hub.enqueue(spec(1, 1));
        assert_eq!(hub.pending(), 2);
        // Claims drain in sequence order.
        let first = hub.state.claim().unwrap();
        assert_eq!(first.seq, 1);
        let second = hub.state.claim().unwrap();
        assert_eq!(second.seq, 2);
        assert!(hub.state.claim().is_none());
        assert_eq!((hub.pending(), hub.claimed()), (0, 2));
        let arrived = Instant::now();
        hub.state.deliver(result(&first), arrived);
        assert_eq!(hub.claimed(), 1);
        let results = hub.take_results();
        assert_eq!(ids(&results), [(1, 1)]);
        assert_eq!(results[0].arrived, arrived);
        assert!(results[0].attempt.is_some(), "a live attempt was fenced");
        // A resent copy of a delivered result is dropped.
        hub.state.deliver(result(&first), Instant::now());
        assert!(hub.take_results().is_empty());
        // A result of another epoch leaves the live attempt of the same
        // `(seq, attempt)` in the table, and arrives fenced.
        hub.state.deliver(
            TaskResult {
                epoch: 9,
                ..result(&second)
            },
            Instant::now(),
        );
        assert_eq!(hub.claimed(), 1);
        assert!(hub.take_results()[0].attempt.is_none());
    }

    /// The `(seq, attempt)`s the table holds.
    fn table(hub: &NetHub) -> Vec<(u64, u32)> {
        let queue = lock_recover(&hub.state.queue);
        queue.attempts.keys().copied().collect()
    }

    #[test]
    fn a_heartbeat_renews_only_a_granted_attempt_in_the_table() {
        let hub = idle_hub();
        // A heartbeat for an attempt the table does not hold creates no
        // entry.
        hub.state.renew(7, 1);
        assert!(table(&hub).is_empty());
        // Nor does it grant a pending one.
        hub.enqueue(spec(1, 1));
        hub.state.renew(1, 1);
        assert_eq!((hub.pending(), hub.claimed()), (1, 0));
        // An attempt whose result is in stays delivered, and once its unit
        // is retired its heartbeat brings nothing back.
        let task = hub.state.claim().unwrap();
        hub.state.deliver(result(&task), Instant::now());
        hub.state.renew(1, 1);
        assert_eq!((hub.pending(), hub.claimed()), (0, 0));
        assert_eq!(table(&hub), [(1, 1)]);
        hub.retire(1);
        hub.state.renew(1, 1);
        assert!(table(&hub).is_empty());
    }

    #[test]
    fn a_live_delivery_takes_its_unit_out_of_the_queue() {
        let hub = idle_hub();
        hub.enqueue(spec(1, 1));
        let original = hub.state.claim().unwrap();
        hub.speculate(spec(1, 2));
        hub.enqueue(spec(2, 1));
        hub.state.deliver(result(&original), Instant::now());
        // The won unit's queued duplicate is gone before the drive loop
        // looks: the next claim is the next unit's task.
        let next = hub.state.claim().unwrap();
        assert_eq!((next.seq, next.attempt), (2, 1));
        // The winner waits, delivered, for the drive loop; the unit is
        // still live, so a lease expiring meanwhile cannot abandon it.
        assert_eq!(table(&hub), [(1, 1), (2, 1)]);
        assert!(hub.is_live(1));
        let won = hub.take_results().pop().unwrap();
        assert!(!won.attempt.unwrap().speculative);
        hub.retire(1);
        assert!(!hub.is_live(1));
        // The duplicate's result, had it been granted, arrives fenced.
        hub.state.deliver(result(&spec(1, 2)), Instant::now());
        assert!(hub.take_results()[0].attempt.is_none());
    }

    #[test]
    fn racing_claimants_get_disjoint_tasks() {
        let hub = idle_hub();
        let n_tasks = 24u64;
        for seq in 1..=n_tasks {
            hub.enqueue(spec(seq, 1));
        }
        let winners: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let state = &hub.state;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(task) = state.claim() {
                            got.push(task.seq);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in &winners {
            assert!(got.windows(2).all(|w| w[0] < w[1]), "{got:?} out of order");
        }
        let all: Vec<u64> = winners.iter().flatten().copied().collect();
        let unique: BTreeSet<u64> = all.iter().copied().collect();
        assert_eq!(all.len() as u64, n_tasks, "every task claimed exactly once");
        assert_eq!(unique.len() as u64, n_tasks, "no task claimed twice");
    }

    #[test]
    fn a_raise_between_reading_the_generation_and_waiting_is_not_lost() {
        let signal = Signal::new();
        let seen = signal.seen();
        signal.raise();
        let started = Instant::now();
        signal.wait_past(seen, Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the raise was lost"
        );
        // Nothing raised since this reading: only the timeout ends the wait.
        let seen = signal.seen();
        let started = Instant::now();
        signal.wait_past(seen, Duration::from_millis(30));
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn long_poll_park_stays_well_under_the_client_read_timeout() {
        assert_eq!(long_poll_park(1500), Duration::from_millis(3000));
        assert_eq!(long_poll_park(1), Duration::from_millis(50));
        for lease_ms in [0, 1500, 60_000, u64::MAX] {
            assert!(long_poll_park(lease_ms) * 3 <= CLIENT_READ_TIMEOUT);
        }
    }

    #[test]
    fn closed_sessions_leave_the_registry_and_their_handles_are_dropped() {
        let hub = idle_hub();
        // A reconnect storm, one session at a time: each connection is
        // opened, seen by the hub, closed, and seen gone — the closing is
        // reported as an event, so the wait needs no polling.
        for _ in 0..12 {
            let seen = hub.events_seen();
            let client = NetClient::connect(hub.local_addr()).unwrap();
            let hello = Message::Hello {
                worker: "w0".to_string(),
                epoch: 0,
            };
            client.send(&hello).unwrap();
            assert!(matches!(client.recv(), Ok(Message::Welcome { .. })));
            assert_eq!(hub.sessions(), 1);
            drop(client);
            hub.wait_event(seen, Duration::from_secs(10));
            assert_eq!(hub.sessions(), 0, "a closed session stayed registered");
        }
        // Every accept dropped the handlers that had returned by then; at
        // most the last one or two are still waiting for the next accept.
        let handles = lock_recover(&hub.handlers).len();
        assert!(
            handles <= 2,
            "{handles} handler handles kept for 12 closed sessions"
        );
        assert_eq!(hub.reconnects(), 11);
    }
}
