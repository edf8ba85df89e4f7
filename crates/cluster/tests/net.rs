//! Integration tests of the TCP transport: framed-message round-trips for
//! the task-bearing protocol types, a full loopback run asserted
//! bit-identical to the single-process pipeline, socket chaos — a
//! worker killing its own connection halfway through a result frame —
//! or a coordinator vanishing under a block fetch — and the event-driven
//! dispatch: long-poll grants, park expiry, and the drain reaching a
//! parked request.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wootz_cluster::net::{long_poll_park, NetHub};
use wootz_cluster::protocol::{Manifest, ResultPayload, TaskKind, TaskResult, TaskSpec, WireEval};
use wootz_cluster::{
    run_distributed, worker_net_main, ClusterOptions, Message, RunDir, WorkerExit,
};
use wootz_core::explore::EvalOutcome;
use wootz_core::pipeline::{run_wootz_with, RunMode, RunOptions, WootzInputs, WootzRun};
use wootz_data::{micro_dataset, Dataset};
use wootz_fault::RetryPolicy;
use wootz_ir::{Objective, SolverConfig};
use wootz_wire::Limits;

fn worker_cmd() -> (PathBuf, Vec<String>) {
    (
        PathBuf::from(env!("CARGO_BIN_EXE_wootz")),
        vec!["worker".to_string()],
    )
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wootz_net_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn inputs() -> WootzInputs {
    let model = wootz_models::resnet_mini(8);
    let subspace = ["[[30,30,30,30],[50,70,70,70],[70,70,70,70],[50,50,50,50]]"]
        .iter()
        .flat_map(|json| {
            let raw: Vec<Vec<u8>> = serde_json::from_str(json).unwrap();
            raw.into_iter()
                .map(|r| wootz_core::prune::PruneConfig::new(r).unwrap())
        })
        .collect();
    let solver = SolverConfig::parse(
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 8\nbatch_size: 4\n\
         pretrain_iter: 4\neval_every: 4\nseed: 11\nnum_workers: 2\n",
    )
    .unwrap();
    let objective = Objective::parse("min ModelSize\nconstraint Accuracy >= 0.1\n").unwrap();
    WootzInputs {
        model,
        subspace,
        solver,
        objective,
    }
}

fn baseline(inputs: &WootzInputs, dataset: &Dataset, mode: RunMode) -> WootzRun {
    let opts = RunOptions {
        faults: None,
        retry: RetryPolicy::abort_fast(),
        journal: None,
        resume: false,
        ..RunOptions::default()
    };
    run_wootz_with(inputs, dataset, mode, None, &opts).unwrap()
}

fn run_json(run: &WootzRun) -> String {
    serde_json::to_string(run).unwrap()
}

/// Writes each message into one byte stream, reads them all back, and
/// asserts each decode re-encodes to the exact original frame bytes —
/// the codec contract for every task-bearing message the transport
/// exchanges (decode ∘ encode is the identity on bytes).
fn round_trip_messages(messages: &[Message]) {
    let mut stream = Vec::new();
    for m in messages {
        m.write_to(&mut stream).unwrap();
    }
    let mut cursor = std::io::Cursor::new(stream.as_slice());
    let mut offset = 0usize;
    for expected in messages {
        let (got, consumed) = Message::read_from(&mut cursor, &Limits::DEFAULT).unwrap();
        assert!(consumed >= wootz_wire::HEADER_LEN);
        assert_eq!(got.msg_type(), expected.msg_type());
        let mut reencoded = Vec::new();
        got.write_to(&mut reencoded).unwrap();
        assert_eq!(reencoded, &stream[offset..offset + consumed]);
        offset += consumed;
    }
    assert_eq!(offset, stream.len());
}

#[test]
fn task_messages_round_trip_bit_exactly() {
    let eval_task = TaskSpec {
        seq: 7,
        attempt: 2,
        epoch: 3,
        kind: TaskKind::Eval {
            config_index: 11,
            universe: vec![
                wootz_core::prune::PruneConfig::unpruned(4),
                wootz_core::prune::PruneConfig::uniform(4, 50).unwrap(),
            ],
        },
        expected_steps: 8,
    };
    let pretrain_task = TaskSpec {
        seq: 0,
        attempt: 1,
        epoch: 1,
        kind: TaskKind::Pretrain {
            group_index: 4,
            blocks: vec![wootz_core::compile::TuningBlock::new(0, vec![(1, 30), (2, 50)]).unwrap()],
            group: vec![0, 3, 9],
        },
        expected_steps: 4,
    };
    // An outcome whose floats exercise the IEEE-754 bit-pattern encoding:
    // 0.1 + 0.2 is not representable exactly, so any lossy re-encode of
    // `accuracy` would break the equality assertion below.
    let done_ok = TaskResult {
        seq: 7,
        attempt: 2,
        epoch: 3,
        worker: "w0".to_string(),
        wall_ms: 1234,
        payload: ResultPayload::Eval(WireEval {
            config_index: 11,
            outcome: Some(EvalOutcome {
                model_size: 4096,
                flops: 1 << 40,
                accuracy: 0.1 + 0.2,
                cost: 2.5,
                log: None,
            }),
            error: None,
            attempts: 1,
            backoff: 0.0,
        }),
    };
    let done_err = TaskResult {
        seq: 8,
        attempt: 1,
        epoch: 3,
        worker: "w1".to_string(),
        wall_ms: 9,
        payload: ResultPayload::Eval(WireEval {
            config_index: 2,
            outcome: None,
            error: Some("supervisor: all attempts failed".to_string()),
            attempts: 3,
            backoff: 1.5,
        }),
    };
    let done_pretrain = TaskResult {
        seq: 1,
        attempt: 1,
        epoch: 1,
        worker: "w0".to_string(),
        wall_ms: 55,
        payload: ResultPayload::Pretrain {
            group_index: 4,
            blocks: vec![],
            failed: vec![("conv2".to_string(), "boom".to_string())],
        },
    };
    round_trip_messages(&[
        Message::TaskGrant { task: eval_task },
        Message::TaskGrant {
            task: pretrain_task,
        },
        Message::TaskDone { result: done_ok },
        Message::TaskDone { result: done_err },
        Message::TaskDone {
            result: done_pretrain,
        },
    ]);
}

#[test]
fn tcp_run_is_bit_identical_to_single_process() {
    let inputs = inputs();
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let single = baseline(&inputs, &dataset, RunMode::Composability);

    let dir = tempdir("identity");
    let mut opts = ClusterOptions::new(dir.join("run"), 2, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.listen = Some("127.0.0.1:0".to_string());
    let started = Instant::now();
    let (dist, stats) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();
    let wall = started.elapsed();

    assert_eq!(run_json(&single), run_json(&dist));
    assert!(stats.tasks_completed > 0);
    // Grants are long-polls: the only `NoTask` a healthy run can see is a
    // park that expired, and each worker fits at most `wall / park` of
    // those into the run (none at all in a run shorter than one park).
    let park = long_poll_park(opts.lease_ms);
    let park_expiries = 2 * (wall.as_millis() / park.as_millis()) as usize;
    assert!(
        stats.no_task_replies <= park_expiries,
        "{} NoTask replies in a {wall:?} run with a {park:?} park: {}",
        stats.no_task_replies,
        stats.summary()
    );
    // A healthy TCP run: every worker connected exactly once, no lease
    // ever expired, no result was fenced.
    assert_eq!(stats.net_reconnects, 0, "{}", stats.summary());
    assert_eq!(stats.leases_reclaimed, 0, "{}", stats.summary());
    assert_eq!(stats.zombie_results_rejected, 0, "{}", stats.summary());
    std::fs::remove_dir_all(&dir).ok();
}

/// A scripted coordinator: accepts one worker session on `listener`,
/// performs the `Hello`/`Welcome` handshake asserting the worker's
/// announced epoch, and returns the open stream for the caller to drive.
fn accept_session(
    listener: &std::net::TcpListener,
    expect_epoch: u64,
    welcome: &Message,
) -> std::net::TcpStream {
    let (conn, _) = listener.accept().unwrap();
    handshake(conn, expect_epoch, welcome)
}

/// The coordinator half of `Hello`/`Welcome` on an accepted connection.
fn handshake(mut conn: TcpStream, expect_epoch: u64, welcome: &Message) -> TcpStream {
    conn.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let (hello, _) = Message::read_from(&mut conn, &Limits::DEFAULT).unwrap();
    match hello {
        Message::Hello { worker, epoch } => {
            assert_eq!(worker, "w0");
            assert_eq!(epoch, expect_epoch, "worker announced the wrong epoch");
        }
        other => panic!("expected Hello, got {}", other.name()),
    }
    welcome.write_to(&mut conn).unwrap();
    conn
}

/// The undelivered-result contract across a **coordinator restart**: a
/// worker whose `TaskDone` never made it out of epoch N keeps redialing,
/// re-handshakes against the restarted coordinator's epoch N+1 (its
/// `Hello` still carries the stale epoch — that is how the restart
/// counts re-adoptions), re-delivers the held result exactly once, and
/// then recomputes the same unit under the new epoch bit-identically.
/// The coordinator side is scripted over a raw socket so every frame of
/// the conversation is asserted.
#[test]
fn stale_epoch_reconnect_across_coordinator_restart_redelivers_once() {
    use wootz_cluster::protocol::Manifest;
    use wootz_core::compile::MultiplexingModel;
    use wootz_core::pipeline::train_full_model;

    let inputs = inputs();
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let mm = MultiplexingModel::compile(inputs.model.clone()).unwrap();
    let (full_ckpt, _, _) = train_full_model(&mm, &dataset, &inputs.solver).unwrap();
    // Baseline mode: no tuning blocks, so the scripted session never has
    // to answer a BlocksRequest. A huge lease keeps the heartbeat cadence
    // (lease/4) far beyond the test's lifetime: no Heartbeat frames
    // interleave with the scripted exchange.
    let manifest = |epoch: u64| Manifest {
        epoch,
        model: inputs.model.clone(),
        subspace: inputs.subspace.clone(),
        solver: inputs.solver.clone(),
        objective: inputs.objective.clone(),
        mode: RunMode::Baseline,
        faults: None,
        retry: RetryPolicy::abort_fast(),
        lease_ms: 60_000,
    };
    let task = |attempt: u32, epoch: u64| TaskSpec {
        seq: 1,
        attempt,
        epoch,
        kind: TaskKind::Eval {
            config_index: 2,
            universe: inputs.subspace.clone(),
        },
        expected_steps: 8,
    };

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The real worker binary, with its first TaskDone frame sabotaged
    // (half-written, socket hard-closed): the result is computed but
    // provably never delivered in epoch 1.
    let mut worker = std::process::Command::new(env!("CARGO_BIN_EXE_wootz"))
        .args([
            "worker",
            "--connect",
            &addr.to_string(),
            "--worker-id",
            "w0",
            "--orphan-grace-ms",
            "30000",
        ])
        .env("WOOTZ_CHAOS_NET_DROP", "w0:1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Epoch 1: first contact (worker announces epoch 0), one grant.
    let welcome1 = Message::Welcome {
        epoch: 1,
        manifest: manifest(1),
        full_ckpt: full_ckpt.clone(),
    };
    let mut conn = accept_session(&listener, 0, &welcome1);
    let (req, _) = Message::read_from(&mut conn, &Limits::DEFAULT).unwrap();
    assert!(matches!(req, Message::TaskRequest { .. }), "{}", req.name());
    Message::TaskGrant { task: task(1, 1) }
        .write_to(&mut conn)
        .unwrap();
    // The worker executes, then half-writes TaskDone and kills its own
    // socket: this read must fail mid-frame, never yield a message.
    assert!(
        Message::read_from(&mut conn, &Limits::DEFAULT).is_err(),
        "the sabotaged TaskDone frame decoded cleanly"
    );
    // Coordinator "crashes": connection and listener both go away while
    // the worker holds its undelivered result and redials on backoff.
    drop(conn);
    drop(listener);
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Coordinator "restarts" on the same port with a bumped epoch. The
    // worker's Hello must still announce epoch 1 — the stale epoch is
    // exactly what the re-adoption accounting keys on.
    let listener = std::net::TcpListener::bind(addr).unwrap();
    let welcome2 = Message::Welcome {
        epoch: 2,
        manifest: manifest(2),
        full_ckpt: full_ckpt.clone(),
    };
    let mut conn = accept_session(&listener, 1, &welcome2);

    // First frame after the re-handshake: the held epoch-1 result,
    // re-delivered exactly once.
    let (msg, _) = Message::read_from(&mut conn, &Limits::DEFAULT).unwrap();
    let held = match msg {
        Message::TaskDone { result } => result,
        other => panic!("expected the re-delivered TaskDone, got {}", other.name()),
    };
    assert_eq!((held.seq, held.attempt, held.epoch), (1, 1, 1));

    // Exactly once: the very next frame is a fresh TaskRequest, not a
    // duplicate delivery. Grant the same unit again under epoch 2 — the
    // recomputed result must be byte-identical to the held one (tasks
    // are pure functions; only the attempt/epoch envelope may differ).
    let (req, _) = Message::read_from(&mut conn, &Limits::DEFAULT).unwrap();
    assert!(matches!(req, Message::TaskRequest { .. }), "{}", req.name());
    Message::TaskGrant { task: task(2, 2) }
        .write_to(&mut conn)
        .unwrap();
    let (msg, _) = Message::read_from(&mut conn, &Limits::DEFAULT).unwrap();
    let redone = match msg {
        Message::TaskDone { result } => result,
        other => panic!("expected the epoch-2 TaskDone, got {}", other.name()),
    };
    assert_eq!((redone.seq, redone.attempt, redone.epoch), (1, 2, 2));
    assert_eq!(
        serde_json::to_string(&redone.payload).unwrap(),
        serde_json::to_string(&held.payload).unwrap(),
        "re-execution under the new epoch diverged from the held result"
    );

    // Clean shutdown: the worker exits 0 (not the orphan exit code).
    Message::Shutdown.write_to(&mut conn).unwrap();
    let status = worker.wait().unwrap();
    assert!(status.success(), "worker exit: {status:?}");
}

#[test]
fn mid_frame_disconnect_reconnects_and_result_unchanged() {
    let inputs = inputs();
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let single = baseline(&inputs, &dataset, RunMode::Composability);

    // Worker w0's first TaskDone frame is cut in half and its socket
    // hard-closed (the *process* survives): the hub must discard the
    // truncated frame, the worker must reconnect under the same epoch and
    // resend the undelivered result, and the run must stay byte-equal.
    let dir = tempdir("midframe");
    let mut opts = ClusterOptions::new(dir.join("run"), 2, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.listen = Some("127.0.0.1:0".to_string());
    opts.worker_env = vec![("WOOTZ_CHAOS_NET_DROP".to_string(), "w0:1".to_string())];
    let (dist, stats) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();

    assert_eq!(run_json(&single), run_json(&dist));
    assert!(
        stats.net_reconnects >= 1,
        "expected a zombie reconnect: {}",
        stats.summary()
    );
    // The resent result deduplicates on its (seq, attempt) journal file:
    // nothing is double-counted, nothing abandoned.
    assert_eq!(stats.tasks_abandoned, 0, "{}", stats.summary());
    std::fs::remove_dir_all(&dir).ok();
}

/// The manifest of a first-epoch Baseline run over [`inputs`].
fn epoch_one_manifest(lease_ms: u64) -> Manifest {
    let inputs = inputs();
    Manifest {
        epoch: 1,
        model: inputs.model,
        subspace: inputs.subspace,
        solver: inputs.solver,
        objective: inputs.objective,
        mode: RunMode::Baseline,
        faults: None,
        retry: RetryPolicy::abort_fast(),
        lease_ms,
    }
}

/// A socket that dies during the `BlocksRequest`/`Blocks` exchange is a
/// socket failure like any other: the worker drops the task (its lease
/// reclaims the attempt), redials, and announces the epoch it worked
/// under — it does not exit. The coordinator side is scripted so the
/// connection closes exactly on the `BlocksRequest`.
#[test]
fn socket_closed_mid_block_fetch_reconnects_instead_of_exiting() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || worker_net_main(&addr, "w0", Some(30_000)));
    // Composability mode: the first evaluation task needs the published
    // block bag. The fetch precedes execution, so an empty full-model
    // checkpoint is enough; the minute-long lease keeps heartbeat frames
    // out of the scripted exchange.
    let welcome = Message::Welcome {
        epoch: 1,
        manifest: Manifest {
            mode: RunMode::Composability,
            ..epoch_one_manifest(60_000)
        },
        full_ckpt: wootz_nn::Checkpoint::new(),
    };
    let mut conn = accept_session(&listener, 0, &welcome);
    let expect = |conn: &mut TcpStream, name: &str| match read_within(conn, 10_000) {
        Some(msg) if msg.name() == name => {}
        other => panic!("expected {name}, got {:?}", other.map(|m| m.name())),
    };
    expect(&mut conn, "TaskRequest");
    let task = TaskSpec {
        seq: 1,
        attempt: 1,
        epoch: 1,
        kind: TaskKind::Eval {
            config_index: 0,
            universe: inputs().subspace,
        },
        expected_steps: 8,
    };
    Message::TaskGrant { task }.write_to(&mut conn).unwrap();
    expect(&mut conn, "BlocksRequest");
    // The coordinator dies mid-exchange.
    drop(conn);

    // The worker dials again, still on epoch 1, and asks for work anew.
    // (Polled, so a worker that exited instead fails the test rather
    // than leaving it blocked in `accept`.)
    listener.set_nonblocking(true).unwrap();
    let conn = loop {
        match listener.accept() {
            Ok((conn, _)) => break conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(!worker.is_finished(), "the worker exited instead of redialing");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("accept failed: {e}"),
        }
    };
    conn.set_nonblocking(false).unwrap();
    let mut conn = handshake(conn, 1, &welcome);
    expect(&mut conn, "TaskRequest");
    Message::Shutdown.write_to(&mut conn).unwrap();
    assert_eq!(worker.join().unwrap().unwrap(), WorkerExit::Shutdown);
}

/// A real [`NetHub`] over a fresh run directory, with no coordinator
/// behind it: the test plays the coordinator (enqueue + notify) and the
/// worker (a raw socket, or the real worker loop on a thread).
fn bare_hub(name: &str, lease_ms: u64) -> (NetHub, RunDir, PathBuf) {
    let root = tempdir(name);
    let dir = RunDir::new(root.join("run"));
    dir.init_epoch().unwrap();
    // No task is ever executed against this hub, so an empty full-model
    // checkpoint is enough for the Welcome.
    let hub = NetHub::bind(
        "127.0.0.1:0",
        dir.clone(),
        epoch_one_manifest(lease_ms),
        wootz_nn::Checkpoint::new(),
    )
    .unwrap();
    (hub, dir, root)
}

/// A scripted worker session: connected and welcomed.
fn scripted_worker(hub: &NetHub) -> TcpStream {
    let mut conn = TcpStream::connect(hub.local_addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    let hello = Message::Hello {
        worker: "w0".to_string(),
        epoch: 0,
    };
    hello.write_to(&mut conn).unwrap();
    assert!(matches!(
        read_within(&mut conn, 10_000),
        Some(Message::Welcome { .. })
    ));
    conn
}

/// The next frame, or `None` when none arrives within `millis` (nothing
/// of a frame must have arrived either — the callers only ever time out
/// on a silent socket).
fn read_within(conn: &mut TcpStream, millis: u64) -> Option<Message> {
    conn.set_read_timeout(Some(Duration::from_millis(millis)))
        .unwrap();
    match Message::read_from(conn, &Limits::DEFAULT) {
        Ok((msg, _)) => Some(msg),
        Err(wootz_wire::WireError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            None
        }
        Err(e) => panic!("read failed: {e}"),
    }
}

fn request_task(conn: &mut TcpStream) {
    let request = Message::TaskRequest {
        worker: "w0".to_string(),
    };
    request.write_to(conn).unwrap();
}

#[test]
fn parked_task_request_is_granted_the_moment_work_is_enqueued() {
    // A minute-long lease: the park (10 s) outlives the test, so every
    // reply below is caused by the enqueue, never by an expiry.
    let (hub, dir, root) = bare_hub("longpoll", 60_000);
    let mut conn = scripted_worker(&hub);
    let mut best = Duration::MAX;
    for seq in 1..=5u64 {
        request_task(&mut conn);
        // Empty queue: the request parks. No reply — in particular no
        // NoTask telling the worker to come back later.
        assert!(
            read_within(&mut conn, 100).is_none(),
            "an ungrantable request was answered"
        );
        let task = TaskSpec {
            seq,
            attempt: 1,
            epoch: 1,
            kind: TaskKind::Eval {
                config_index: 0,
                universe: Vec::new(),
            },
            expected_steps: 1,
        };
        dir.enqueue(&task).unwrap();
        let enqueued = Instant::now();
        hub.notify_work();
        match read_within(&mut conn, 10_000) {
            Some(Message::TaskGrant { task }) => assert_eq!(task.seq, seq),
            other => panic!("expected a grant, got {:?}", other.map(|m| m.name())),
        }
        best = best.min(enqueued.elapsed());
    }
    // The wake-up is a condvar, not a poll period. The best of five keeps
    // the bound meaningful on a loaded two-core test machine.
    assert!(
        best < Duration::from_millis(50),
        "fastest grant took {best:?}"
    );
    assert_eq!(hub.no_task_replies(), 0);
    drop(hub);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn park_expiry_answers_no_task_with_zero_backoff() {
    let (hub, _dir, root) = bare_hub("expiry", 25);
    let park = long_poll_park(25);
    let mut conn = scripted_worker(&hub);
    let asked = Instant::now();
    request_task(&mut conn);
    match read_within(&mut conn, 10_000) {
        Some(Message::NoTask { backoff_ms }) => assert_eq!(backoff_ms, 0),
        other => panic!("expected NoTask, got {:?}", other.map(|m| m.name())),
    }
    assert!(
        asked.elapsed() >= park,
        "NoTask after {:?}, park is {park:?}",
        asked.elapsed()
    );
    assert_eq!(hub.no_task_replies(), 1);
    drop(hub);
    std::fs::remove_dir_all(&root).ok();
}

/// The worker half of the long-poll, against a scripted coordinator: a
/// zero-backoff `NoTask` is followed by the next `TaskRequest` at once,
/// and a `Shutdown` in reply to a request ends the worker cleanly.
#[test]
fn worker_re_requests_at_once_after_a_zero_backoff_no_task() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || worker_net_main(&addr, "w0", Some(10_000)));
    let welcome = Message::Welcome {
        epoch: 1,
        manifest: epoch_one_manifest(60_000),
        full_ckpt: wootz_nn::Checkpoint::new(),
    };
    let mut conn = accept_session(&listener, 0, &welcome);
    let next_request = |conn: &mut TcpStream| match read_within(conn, 10_000) {
        Some(Message::TaskRequest { .. }) => {}
        other => panic!("expected TaskRequest, got {:?}", other.map(|m| m.name())),
    };
    next_request(&mut conn);
    let mut best = Duration::MAX;
    for _ in 0..5 {
        Message::NoTask { backoff_ms: 0 }
            .write_to(&mut conn)
            .unwrap();
        let answered = Instant::now();
        next_request(&mut conn);
        best = best.min(answered.elapsed());
    }
    assert!(
        best < Duration::from_millis(50),
        "fastest re-request took {best:?}"
    );
    Message::Shutdown.write_to(&mut conn).unwrap();
    assert_eq!(worker.join().unwrap().unwrap(), WorkerExit::Shutdown);
}

#[test]
fn drain_answers_a_parked_request_with_exactly_one_shutdown() {
    // Scripted worker: every frame the drain puts on the socket is seen.
    let (hub, _dir, root) = bare_hub("drain", 60_000);
    let mut conn = scripted_worker(&hub);
    request_task(&mut conn);
    assert!(
        read_within(&mut conn, 100).is_none(),
        "an ungrantable request was answered"
    );
    let drained = Instant::now();
    hub.broadcast_shutdown();
    assert!(matches!(
        read_within(&mut conn, 10_000),
        Some(Message::Shutdown)
    ));
    assert!(
        drained.elapsed() < Duration::from_secs(5),
        "the park outlived the drain"
    );
    // The broadcast and the woken handler both want to say Shutdown; the
    // worker must read one whole frame and then silence.
    assert!(
        read_within(&mut conn, 150).is_none(),
        "a second reply followed the Shutdown"
    );
    request_task(&mut conn);
    assert!(
        read_within(&mut conn, 150).is_none(),
        "Shutdown was sent twice"
    );
    drop(conn);
    drop(hub);
    std::fs::remove_dir_all(&root).ok();

    // The real worker loop, parked the same way, exits `Shutdown` and its
    // closing session is reported as an event.
    let (hub, _dir, root) = bare_hub("drain_worker", 60_000);
    let addr = hub.local_addr().to_string();
    let worker = std::thread::spawn(move || worker_net_main(&addr, "w0", Some(10_000)));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let seen = hub.events_seen();
        if hub.sessions() == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "the worker never connected");
        hub.wait_event(seen, Duration::from_millis(5));
    }
    // Connected; give its first TaskRequest the moment it needs to park.
    // (Should it not have parked yet, the request is answered Shutdown on
    // arrival — the assertions below hold either way.)
    std::thread::sleep(Duration::from_millis(100));
    hub.broadcast_shutdown();
    assert_eq!(worker.join().unwrap().unwrap(), WorkerExit::Shutdown);
    loop {
        let seen = hub.events_seen();
        if hub.sessions() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the closed session was never reaped"
        );
        hub.wait_event(seen, Duration::from_secs(1));
    }
    drop(hub);
    std::fs::remove_dir_all(&root).ok();
}
