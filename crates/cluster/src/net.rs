//! The TCP transport: coordinator-side [`NetHub`] and worker-side
//! [`NetClient`], speaking the `wootz-wire` framed protocol of
//! [`crate::messages`] (specified byte-by-byte in `PROTOCOL.md`).
//!
//! # Where the filesystem went
//!
//! With the network transport the run directory stops being the
//! *communication* medium and becomes a **durability journal** owned
//! solely by the coordinator: the hub claims tasks from `tasks/` when a
//! worker asks for work, and journals every received `TaskDone` into
//! `results/` *before* the coordinator acts on it. Workers never touch
//! shared storage — everything they need (manifest, full checkpoint,
//! block checkpoints, tasks) arrives in frames, and everything they
//! produce leaves in frames. Crash-recovery semantics are therefore
//! unchanged from the filesystem mode: a result is durable exactly when
//! it is in `results/`, and `--resume` replays the same NDJSON journal.
//!
//! # Threading
//!
//! The hub runs one listener thread (non-blocking accept loop) plus one
//! handler thread per connection. Handlers block in `read`; shutdown
//! wakes them by `shutdown(2)`-ing the sockets. The client runs one
//! reader thread (which also consumes heartbeat acks and records RTT)
//! and shares its writer between the main task loop and the per-task
//! heartbeat thread behind a mutex — frames are written under the lock,
//! so they never interleave.
//!
//! # Failure model
//!
//! A connection can die at any byte. The guarantees are end-to-end, not
//! per-connection: a worker whose `TaskDone` write fails mid-frame
//! reconnects and *re-sends the same result* (the coordinator
//! deduplicates by `(seq, attempt)`); a worker that dies silently stops
//! heartbeating and its lease is reclaimed; a zombie reconnecting from a
//! previous epoch is welcomed, but its stale-epoch results are fenced by
//! the coordinator exactly like filesystem-mode zombies. The
//! deterministic chaos hook `WOOTZ_CHAOS_NET_DROP` (see
//! [`crate::worker`]) exercises the mid-frame path in tests.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wootz_nn::Checkpoint;
use wootz_wire::{Limits, WireError, WireResult};

use wootz_core::Result;

use crate::messages::Message;
use crate::protocol::{cluster_err, read_json, task_file_name, Manifest};
use crate::queue::RunDir;

/// How long a client read may sit idle before the reader treats the
/// connection as dead and triggers a reconnect. Heartbeat acks arrive at
/// a quarter-lease cadence while a task runs, so a healthy session never
/// gets close to this.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Accept-loop poll period of the non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long [`NetHub::bind`] retries an `AddrInUse` bind before giving
/// up — a restarted coordinator rebinding its old port can race the
/// kernel releasing the dead process's socket.
const BIND_RETRY: Duration = Duration::from_secs(5);
const BIND_RETRY_POLL: Duration = Duration::from_millis(100);

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

/// Writes one message as a frame, under the shared writer lock, counting
/// `wire.frames` / `wire.frames_bytes`.
pub(crate) fn send_message(writer: &Mutex<TcpStream>, msg: &Message) -> WireResult<usize> {
    let mut stream = lock_recover(writer);
    let n = msg.write_to(&mut *stream)?;
    stream.flush()?;
    wootz_obs::counter("wire.frames").incr();
    wootz_obs::counter("wire.frames_bytes").add(n as u64);
    Ok(n)
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

/// Shared state of the coordinator's network hub.
struct HubState {
    dir: RunDir,
    epoch: u64,
    manifest: Manifest,
    full_ckpt: Checkpoint,
    /// Suggested worker re-poll delay for [`Message::NoTask`].
    backoff_ms: u64,
    /// Last signal (grant or heartbeat) per live `(seq, attempt)` — the
    /// coordinator's in-memory lease bookkeeping source.
    signals: Mutex<HashMap<(u64, u32), Instant>>,
    /// Worker ids that have said Hello at least once (reconnect detection).
    known_workers: Mutex<HashMap<String, usize>>,
    reconnects: AtomicUsize,
    /// Reconnects whose `Hello` carried a *previous* epoch: live workers
    /// orphaned by a coordinator crash, re-adopted by this restart.
    readopted: AtomicUsize,
    /// Cached pre-trained block index, loaded from the run directory on
    /// the first [`Message::BlocksRequest`].
    blocks: Mutex<Option<Arc<Vec<(String, Checkpoint)>>>>,
    /// Set when the coordinator is draining: new sessions and task
    /// requests are answered with [`Message::Shutdown`].
    draining: AtomicBool,
    /// Set when the hub is closing for good (stops the accept loop).
    closing: AtomicBool,
    /// Write halves of the live connections, for the shutdown broadcast
    /// and the final socket teardown.
    conns: Mutex<Vec<Arc<Mutex<TcpStream>>>>,
    limits: Limits,
}

impl HubState {
    fn blocks_index(&self) -> Result<Arc<Vec<(String, Checkpoint)>>> {
        let mut cache = lock_recover(&self.blocks);
        if let Some(blocks) = cache.as_ref() {
            return Ok(Arc::clone(blocks));
        }
        // Loaded lazily: the index appears only after the pre-training
        // phase published it, and workers only ask once they hold an
        // evaluation task — which the coordinator enqueues strictly after
        // publication.
        let index: std::collections::BTreeMap<String, String> =
            read_json(&self.dir.blocks_index())?;
        let mut blocks = Vec::with_capacity(index.len());
        for (key, file) in index {
            blocks.push((key, Checkpoint::load(self.dir.blocks().join(&file))?));
        }
        let blocks = Arc::new(blocks);
        *cache = Some(Arc::clone(&blocks));
        Ok(blocks)
    }

    fn record_signal(&self, seq: u64, attempt: u32) {
        lock_recover(&self.signals).insert((seq, attempt), Instant::now());
    }
}

/// The coordinator's network front-end: accepts worker connections and
/// speaks the protocol on the coordinator's behalf, feeding the same run
/// directory the filesystem mode uses (as a durability journal).
pub struct NetHub {
    state: Arc<HubState>,
    listener: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    local_addr: String,
}

impl NetHub {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting workers.
    ///
    /// # Errors
    ///
    /// Returns an error when the address cannot be bound.
    pub fn bind(
        addr: &str,
        dir: RunDir,
        manifest: Manifest,
        full_ckpt: Checkpoint,
    ) -> Result<NetHub> {
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
        listener
            .set_nonblocking(true)
            .map_err(|e| cluster_err(format!("cannot configure listener: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| cluster_err(format!("cannot resolve listen address: {e}")))?
            .to_string();
        let backoff_ms = (manifest.lease_ms / 8).clamp(5, 200);
        let state = Arc::new(HubState {
            dir,
            epoch: manifest.epoch,
            manifest,
            full_ckpt,
            backoff_ms,
            signals: Mutex::new(HashMap::new()),
            known_workers: Mutex::new(HashMap::new()),
            reconnects: AtomicUsize::new(0),
            readopted: AtomicUsize::new(0),
            blocks: Mutex::new(None),
            draining: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            limits: Limits::DEFAULT,
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_state = Arc::clone(&state);
        let accept_handlers = Arc::clone(&handlers);
        let listener_thread = std::thread::spawn(move || {
            while !accept_state.closing.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let state = Arc::clone(&accept_state);
                        let handle = std::thread::spawn(move || handle_connection(state, stream));
                        lock_recover(&accept_handlers).push(handle);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
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
            local_addr,
        })
    }

    /// The bound address (with the real port when `addr` ended in `:0`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Drains and clears the heartbeat/grant signal map: the
    /// coordinator's per-tick refresh of its in-memory lease bookkeeping.
    pub fn take_signals(&self) -> HashMap<(u64, u32), Instant> {
        std::mem::take(&mut *lock_recover(&self.state.signals))
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

    /// Drops the cached pre-trained block index so the next
    /// [`Message::BlocksRequest`] re-reads the run directory. Rounds that
    /// pre-train new blocks grow the published bag mid-run; the
    /// coordinator calls this right after republishing `blocks/index.json`
    /// so workers always see the round's complete bag.
    pub fn invalidate_blocks(&self) {
        *lock_recover(&self.state.blocks) = None;
    }

    /// Enters drain mode and broadcasts [`Message::Shutdown`] to every
    /// live connection. Sockets stay open so in-flight results can still
    /// be delivered during the grace period.
    pub fn broadcast_shutdown(&self) {
        self.state.draining.store(true, Ordering::Relaxed);
        let conns = lock_recover(&self.state.conns).clone();
        for writer in conns {
            let _ = send_message(&writer, &Message::Shutdown);
        }
    }

    /// Tears the hub down: stops accepting, closes every socket (waking
    /// blocked handler reads) and joins all threads.
    pub fn close(&mut self) {
        self.state.draining.store(true, Ordering::Relaxed);
        self.state.closing.store(true, Ordering::Relaxed);
        for writer in lock_recover(&self.state.conns).drain(..) {
            // Poison-recovered too: a handler that panicked mid-frame must
            // not leave its socket open (that would hang a blocked read).
            let _ = lock_recover(&writer).shutdown(Shutdown::Both);
        }
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
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

/// One coordinator-side connection: a strict request/response loop over
/// the worker's frames (plus fire-and-forget `TaskDone` journaling).
fn handle_connection(state: Arc<HubState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    lock_recover(&state.conns).push(Arc::clone(&writer));
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
                if state.draining.load(Ordering::Relaxed) {
                    Some(Message::Shutdown)
                } else {
                    Some(Message::Welcome {
                        epoch: state.epoch,
                        manifest: state.manifest.clone(),
                        full_ckpt: state.full_ckpt.clone(),
                    })
                }
            }
            Message::TaskRequest { worker } => {
                if state.draining.load(Ordering::Relaxed) {
                    Some(Message::Shutdown)
                } else {
                    match state.dir.try_claim(&worker) {
                        Ok(Some(task)) => {
                            state.record_signal(task.seq, task.attempt);
                            let grant = Message::TaskGrant { task };
                            // Chaos: the claim rename is already durable but
                            // the grant frame reaches the worker torn — the
                            // crash window between "coordinator committed"
                            // and "worker informed". The restarted epoch
                            // wipes claims/ and re-enqueues the task; the
                            // worker sees a truncated frame and reconnects.
                            if wootz_fault::chaos::kill_point(
                                wootz_fault::chaos::kill_site::COORD_GRANT,
                            ) {
                                let mut frame = Vec::new();
                                let _ = grant.write_to(&mut frame);
                                let mut stream = lock_recover(&writer);
                                let _ = stream.write_all(&frame[..frame.len() / 2]);
                                let _ = stream.flush();
                                wootz_fault::chaos::die(
                                    wootz_fault::chaos::kill_site::COORD_GRANT,
                                );
                            }
                            Some(grant)
                        }
                        Ok(None) => Some(Message::NoTask {
                            backoff_ms: state.backoff_ms,
                        }),
                        Err(e) => {
                            wootz_obs::event("net.claim_error")
                                .field("error", e.to_string())
                                .emit();
                            Some(Message::NoTask {
                                backoff_ms: state.backoff_ms,
                            })
                        }
                    }
                }
            }
            Message::Heartbeat {
                seq,
                attempt,
                nonce,
                ..
            } => {
                state.record_signal(seq, attempt);
                Some(Message::HeartbeatAck { nonce })
            }
            Message::TaskDone { result } => {
                // Journal durably *before* the coordinator can observe the
                // result; then clean up the claim. The coordinator's
                // fencing (epoch + live-attempt) decides acceptance — the
                // hub journals zombies too, exactly like the filesystem
                // mode where any worker can write into `results/`.
                let name = task_file_name(result.seq, result.attempt);
                match state.dir.publish_result(&result) {
                    Ok(()) => state.dir.release_by_name(&name),
                    Err(e) => {
                        wootz_obs::event("net.journal_error")
                            .field("error", e.to_string())
                            .emit();
                    }
                }
                None
            }
            Message::BlocksRequest => match state.blocks_index() {
                Ok(blocks) => Some(Message::Blocks {
                    index: blocks.as_ref().clone(),
                }),
                Err(e) => {
                    wootz_obs::event("net.blocks_error")
                        .field("error", e.to_string())
                        .emit();
                    Some(Message::Blocks { index: Vec::new() })
                }
            },
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
            if send_message(&writer, &reply).is_err() {
                return;
            }
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
