//! Integration tests of the TCP transport: framed-message round-trips for
//! the task-bearing protocol types, weight bit patterns through every
//! frame that carries checkpoints (and old-layout JSON weights refused
//! with a structured error), a full loopback run asserted bit-identical
//! to the single-process pipeline, a coordinator restarted without
//! `--resume` fencing a late result of the previous epoch, blocks pushed
//! ahead of the grants that need them, once per session, and the
//! event-driven dispatch:
//! long-poll grants, park expiry, and the drain reaching a parked request
//! and waiting for a worker outside the pool. A worker cutting its own
//! connection halfway through a result frame is a row of `contracts.rs`.

mod common;

use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{baseline, inputs, run_json, tempdir, worker_cmd};

use wootz_cluster::net::{long_poll_park, NetHub};
use wootz_cluster::protocol::{Manifest, TaskResult, TaskSpec};
use wootz_cluster::{run_distributed, worker_net_main, ClusterOptions, Message, WorkerExit};
use wootz_core::compile::TuningBlock;
use wootz_core::explore::{EvalOutcome, SupervisedEval};
use wootz_core::pipeline::{RunMode, Task, TaskOutput};
use wootz_core::pretrain::{GroupOutcome, PretrainedBlock};
use wootz_core::prune::PruneConfig;
use wootz_core::CoreError;
use wootz_data::micro_dataset;
use wootz_fault::RetryPolicy;
use wootz_nn::Checkpoint;
use wootz_tensor::Tensor;
use wootz_wire::{write_bytes, Frame, Limits, WireError, WireSerialize};

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
        task: Task::Eval {
            config_index: 11,
            config: PruneConfig::uniform(4, 50).unwrap(),
            blocks: Some(vec![TuningBlock::new(0, vec![(1, 50), (2, 50)]).unwrap()]),
        },
        expected_steps: 8,
    };
    let pretrain_task = TaskSpec {
        seq: 0,
        attempt: 1,
        epoch: 1,
        task: Task::Pretrain {
            group_index: 4,
            blocks: vec![(3, TuningBlock::new(0, vec![(1, 30), (2, 50)]).unwrap())],
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
        output: TaskOutput::Eval(SupervisedEval {
            result: Ok(EvalOutcome {
                model_size: 4096,
                flops: 1 << 40,
                accuracy: 0.1 + 0.2,
                cost: 2.5,
                log: None,
            }),
            attempts: 1,
            backoff: 0.0,
        }),
        index: 11,
    };
    let done_err = TaskResult {
        seq: 8,
        attempt: 1,
        epoch: 3,
        worker: "w1".to_string(),
        wall_ms: 9,
        output: TaskOutput::Eval(SupervisedEval {
            result: Err(CoreError::Remote(
                "supervisor: all attempts failed".to_string(),
            )),
            attempts: 3,
            backoff: 1.5,
        }),
        index: 2,
    };
    let done_pretrain = TaskResult {
        seq: 1,
        attempt: 1,
        epoch: 1,
        worker: "w0".to_string(),
        wall_ms: 55,
        output: TaskOutput::Pretrain(GroupOutcome {
            blocks: vec![],
            failed: vec![("conv2".to_string(), "boom".to_string())],
            first_error: Some(CoreError::Remote("group boom".to_string())),
        }),
        index: 4,
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

/// A checkpoint holding the float classes a text encoding gets wrong:
/// both infinities, a NaN with payload `0x7fc00001`, negative zero and a
/// subnormal.
fn odd_float_checkpoint() -> Checkpoint {
    let values = vec![
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_0001),
        -0.0,
        f32::from_bits(1),
    ];
    let mut ckpt = Checkpoint::new();
    ckpt.insert("net/w", Tensor::from_vec(values, &[5]).unwrap());
    ckpt
}

/// Every entry of `ckpt` as `(name, shape, f32 bit patterns)`.
fn weight_bits(ckpt: &Checkpoint) -> Vec<(String, Vec<usize>, Vec<u32>)> {
    ckpt.iter()
        .map(|(name, t)| {
            let bits = t.data().iter().map(|v| v.to_bits()).collect();
            (name.to_string(), t.shape().to_vec(), bits)
        })
        .collect()
}

/// Checkpoints cross TCP as bytes: every bit of every weight survives the
/// `Welcome`, `Blocks` and `TaskDone` (pre-training) frames, and the
/// pre-training result's declared size is its encoded size.
#[test]
fn weight_bits_survive_welcome_blocks_and_task_done() {
    let ckpt = odd_float_checkpoint();
    let done = TaskResult {
        seq: 2,
        attempt: 1,
        epoch: 1,
        worker: "w0".to_string(),
        wall_ms: 17,
        output: TaskOutput::Pretrain(GroupOutcome {
            blocks: vec![PretrainedBlock {
                key: "m0r30".to_string(),
                checkpoint: ckpt.clone(),
                first_loss: f32::from_bits(0x7fc0_0001),
                last_loss: -0.0,
                steps: 4,
            }],
            failed: vec![],
            first_error: None,
        }),
        index: 0,
    };
    let mut buf = Vec::new();
    done.wire_write(&mut buf).unwrap();
    assert_eq!(
        buf.len(),
        done.wire_size(),
        "declared size matches encoding"
    );

    let messages = [
        Message::Welcome {
            epoch: 1,
            manifest: epoch_one_manifest(400),
            full_ckpt: ckpt.clone(),
        },
        Message::Blocks {
            index: vec![("m0r30".to_string(), ckpt.clone())],
        },
        Message::TaskDone { result: done },
    ];
    round_trip_messages(&messages);
    for message in &messages {
        let mut frame = Vec::new();
        message.write_to(&mut frame).unwrap();
        let (back, _) = Message::read_from(&mut frame.as_slice(), &Limits::DEFAULT).unwrap();
        let got = match back {
            Message::Welcome { full_ckpt, .. } => full_ckpt,
            Message::Blocks { mut index } => index.remove(0).1,
            Message::TaskDone { result } => match result.output {
                TaskOutput::Pretrain(GroupOutcome { mut blocks, .. }) => {
                    let block = blocks.remove(0);
                    assert_eq!(block.first_loss.to_bits(), 0x7fc0_0001);
                    assert_eq!(block.last_loss.to_bits(), (-0.0f32).to_bits());
                    block.checkpoint
                }
                other => panic!("expected a pre-training result, got {other:?}"),
            },
            other => panic!("unexpected {}", other.name()),
        };
        assert_eq!(weight_bits(&got), weight_bits(&ckpt), "{}", message.name());
    }
}

/// A peer that still sends checkpoints and pre-trained blocks as JSON
/// documents (the layout before weights became bytes) speaks the same
/// frame version, so its `Welcome`, `Blocks` and `TaskDone` must fail to
/// decode with a structured error — never a panic, never a success. Its
/// `Welcome` and `Blocks` run out of payload; its `TaskDone` is refused
/// earlier, at the output tag this revision retired.
#[test]
fn old_layout_weight_documents_fail_loudly() {
    let ckpt_json = r#"{"entries":{"net/w":{"shape":[2],"data":[1.5,-2.0]}}}"#;
    let blocks_json = format!(
        r#"[{{"key":"m0r30","checkpoint":{ckpt_json},"first_loss":1.0,"last_loss":0.5,"steps":4}}]"#
    );
    let doc = |out: &mut Vec<u8>, json: &str| write_bytes(out, "doc", json.as_bytes()).unwrap();

    let mut welcome = Vec::new();
    1u64.wire_write(&mut welcome).unwrap();
    doc(
        &mut welcome,
        &serde_json::to_string(&epoch_one_manifest(400)).unwrap(),
    );
    doc(&mut welcome, ckpt_json);

    let mut blocks = Vec::new();
    1u32.wire_write(&mut blocks).unwrap();
    "m0r30".to_string().wire_write(&mut blocks).unwrap();
    doc(&mut blocks, ckpt_json);

    let mut task_done = Vec::new();
    2u64.wire_write(&mut task_done).unwrap(); // seq
    1u32.wire_write(&mut task_done).unwrap(); // attempt
    1u64.wire_write(&mut task_done).unwrap(); // epoch
    "w0".to_string().wire_write(&mut task_done).unwrap();
    17u64.wire_write(&mut task_done).unwrap(); // wall_ms
    1u8.wire_write(&mut task_done).unwrap(); // Pretrain
    0u64.wire_write(&mut task_done).unwrap(); // group_index
    doc(&mut task_done, &blocks_json);
    Vec::<(String, String)>::new()
        .wire_write(&mut task_done)
        .unwrap();

    for (msg_type, payload) in [(2, welcome), (10, blocks), (8, task_done)] {
        let frame = Frame { msg_type, payload };
        let err = Message::decode(&frame, &Limits::DEFAULT)
            .map(|m| m.name())
            .expect_err("an old-layout weight document must not decode");
        match (msg_type, err) {
            (2 | 10, WireError::Exhausted { .. }) => {}
            (8, WireError::InvalidValue { detail, .. }) if detail.contains("retired") => {}
            (_, err) => panic!("msg-type {msg_type}: {err:?}"),
        }
    }
}

#[test]
fn tcp_run_is_bit_identical_to_single_process() {
    let inputs = inputs();
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let single = baseline(&inputs, &dataset, RunMode::Composability);

    let dir = tempdir("net_identity");
    let mut opts = ClusterOptions::new(dir.join("logs"), 2, worker_cmd());
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
    // A baseline task: no tuning blocks, so the scripted session never
    // has to push blocks. A huge lease keeps the heartbeat cadence
    // (lease/4) far beyond the test's lifetime: no Heartbeat frames
    // interleave with the scripted exchange.
    let manifest = |epoch: u64| Manifest {
        epoch,
        model: inputs.model.clone(),
        solver: inputs.solver.clone(),
        objective: inputs.objective.clone(),
        faults: None,
        retry: RetryPolicy::abort_fast(),
        lease_ms: 60_000,
    };
    let task = |attempt: u32, epoch: u64| TaskSpec {
        seq: 1,
        attempt,
        epoch,
        task: Task::Eval {
            config_index: 2,
            config: inputs.subspace[2].clone(),
            blocks: None,
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
    let bytes = |result: &TaskResult| {
        let mut buf = Vec::new();
        result.output.wire_write(&mut buf).unwrap();
        (result.index as u64).wire_write(&mut buf).unwrap();
        buf
    };
    assert_eq!(
        bytes(&redone),
        bytes(&held),
        "re-execution under the new epoch diverged from the held result"
    );

    // Clean shutdown: the worker exits 0 (not the orphan exit code).
    Message::Shutdown.write_to(&mut conn).unwrap();
    let status = worker.wait().unwrap();
    assert!(status.success(), "worker exit: {status:?}");
}

/// The manifest of a first-epoch Baseline run over [`inputs`].
fn epoch_one_manifest(lease_ms: u64) -> Manifest {
    let inputs = inputs();
    Manifest {
        epoch: 1,
        model: inputs.model,
        solver: inputs.solver,
        objective: inputs.objective,
        faults: None,
        retry: RetryPolicy::abort_fast(),
        lease_ms,
    }
}

/// Dials `addr` until a coordinator listens there, then opens a session
/// as worker `id` announcing `epoch`; returns the socket and the
/// coordinator's epoch from its `Welcome`.
fn dial_session(addr: &str, id: &str, epoch: u64) -> (TcpStream, u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut conn = loop {
        match TcpStream::connect(addr) {
            Ok(conn) => break conn,
            Err(e) => {
                assert!(Instant::now() < deadline, "nothing listens on {addr}: {e}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    };
    conn.set_nodelay(true).unwrap();
    let hello = Message::Hello {
        worker: id.to_string(),
        epoch,
    };
    hello.write_to(&mut conn).unwrap();
    match read_within(&mut conn, 30_000) {
        Some(Message::Welcome { epoch, .. }) => (conn, epoch),
        other => panic!("expected Welcome, got {:?}", other.map(|m| m.name())),
    }
}

/// A coordinator restarted *without* `--resume` on the same log
/// directory and listen port still fences the previous coordinator's
/// workers. Sequence numbers restart at 1, so a late result of the old
/// epoch can name a unit that is live in the new run: only the epoch,
/// drawn fresh at every start, tells them apart. A scripted zombie learns
/// the first run's epoch, then answers a grant of the second run with a
/// failure stamped with that epoch; the second run must reject it and
/// still equal the single-process run.
#[test]
fn a_restart_without_resume_fences_a_late_result_of_the_previous_epoch() {
    let inputs = inputs();
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let single = baseline(&inputs, &dataset, RunMode::Composability);

    let dir = tempdir("net_restart");
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .port();
    let addr = format!("127.0.0.1:{port}");
    let mut opts = ClusterOptions::new(dir.join("logs"), 1, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.listen = Some(addr.clone());
    // The zombie never answers the grant it holds in the second run.
    opts.lease_ms = 400;

    // The first coordinator: the zombie joins it only to learn its epoch.
    let first_epoch = {
        let addr = addr.clone();
        std::thread::spawn(move || dial_session(&addr, "zombie", 0).1)
    };
    let (first, _) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();
    assert_eq!(run_json(&single), run_json(&first));
    let old_epoch = first_epoch.join().unwrap();

    // The restart, no journal: the zombie redials with its old epoch and
    // delivers a failure for the unit it is granted, under that epoch.
    let zombie = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let (mut conn, epoch) = dial_session(&addr, "zombie", old_epoch);
            assert_ne!(epoch, old_epoch, "the restart reused the epoch");
            request_task(&mut conn);
            let task = match read_within(&mut conn, 30_000) {
                Some(Message::TaskGrant { task }) => task,
                other => panic!("expected a grant, got {:?}", other.map(|m| m.name())),
            };
            let late = TaskResult {
                seq: task.seq,
                attempt: task.attempt,
                epoch: old_epoch,
                worker: "zombie".to_string(),
                wall_ms: 1,
                output: TaskOutput::failed(&task.task, CoreError::Remote("zombie".into()), 1),
                index: task.task.index(),
            };
            Message::TaskDone { result: late }
                .write_to(&mut conn)
                .unwrap();
            // Silent from here on: the grant's lease runs out, and the
            // drain's Shutdown ends the session.
            loop {
                match read_within(&mut conn, 30_000) {
                    Some(Message::Shutdown) => return,
                    Some(_) => {}
                    None => panic!("no Shutdown reached the zombie"),
                }
            }
        })
    };
    let (second, stats) =
        run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();
    zombie.join().unwrap();
    assert_eq!(run_json(&single), run_json(&second));
    assert!(stats.zombie_results_rejected >= 1, "{}", stats.summary());
    assert!(stats.workers_readopted >= 1, "{}", stats.summary());

    // Nothing but worker logs is left behind.
    for entry in std::fs::read_dir(dir.join("logs")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(name.ends_with(".log"), "`{name}` in the log dir");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The drain keeps a session open until its worker closes it, also for
/// a worker the coordinator did not spawn: such a worker may still be
/// writing (a late `TaskDone`, its next `TaskRequest`) when the pool has
/// already exited, and a socket closed under that write sends it
/// redialing a gone coordinator instead of reading its `Shutdown`. A
/// scripted worker joins beside the pool, reads its `Shutdown`, stays
/// silent a while — the socket must stay open — and the run ends as soon
/// as it closes, well inside the shutdown grace.
#[test]
fn the_drain_waits_for_a_worker_outside_the_pool_to_close_its_session() {
    let inputs = inputs();
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let dir = tempdir("net_drain");
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .port();
    let addr = format!("127.0.0.1:{port}");
    let mut opts = ClusterOptions::new(dir.join("logs"), 1, worker_cmd());
    opts.retry = RetryPolicy::abort_fast();
    opts.listen = Some(addr.clone());
    let hand = std::thread::spawn(move || {
        // Joined, but never asks for work: all it will hear is Shutdown.
        let (mut conn, _) = dial_session(&addr, "hand", 0);
        match read_within(&mut conn, 60_000) {
            Some(Message::Shutdown) => {}
            other => panic!("expected Shutdown, got {:?}", other.map(|m| m.name())),
        }
        conn.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        match Message::read_from(&mut conn, &Limits::DEFAULT) {
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            other => panic!(
                "the hub ended the session before its worker did: {:?}",
                other.map(|(m, _)| m.name())
            ),
        }
        drop(conn);
        Instant::now()
    });
    let (run, _) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts).unwrap();
    let finished = Instant::now();
    let closed = hand.join().unwrap();
    assert_eq!(
        run_json(&baseline(&inputs, &dataset, RunMode::Composability)),
        run_json(&run)
    );
    let lag = finished.saturating_duration_since(closed);
    assert!(
        lag < Duration::from_millis(2500),
        "the run ended {lag:?} after the last session closed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A baseline evaluation task nobody executes.
fn baseline_eval() -> Task {
    Task::Eval {
        config_index: 0,
        config: PruneConfig::unpruned(4),
        blocks: None,
    }
}

/// A real [`NetHub`] with no coordinator behind it: the test plays the
/// coordinator (enqueue, take results) and the worker (a raw socket, or
/// the real worker loop on a thread).
fn bare_hub(lease_ms: u64) -> NetHub {
    // No task is ever executed against this hub, so an empty full-model
    // checkpoint is enough for the Welcome.
    NetHub::bind(
        "127.0.0.1:0",
        epoch_one_manifest(lease_ms),
        wootz_nn::Checkpoint::new(),
    )
    .unwrap()
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

/// The evaluation task `seq` of configuration 0 over `blocks`.
fn eval_over(seq: u64, blocks: &[&TuningBlock]) -> TaskSpec {
    TaskSpec {
        seq,
        attempt: 1,
        epoch: 1,
        task: Task::Eval {
            config_index: 0,
            config: PruneConfig::unpruned(4),
            blocks: Some(blocks.iter().map(|&b| b.clone()).collect()),
        },
        expected_steps: 1,
    }
}

/// Blocks ride with the grant: before the hub grants an evaluation it
/// sends one `Blocks` frame holding exactly the task's published keys
/// that session has not been sent yet, in part order, every weight bit
/// intact — and none at all when there are none. A key the hub never
/// published (a block whose pre-training failed) never crosses the wire,
/// and a new session, even under the same worker id, is sent its blocks
/// again.
#[test]
fn blocks_are_pushed_ahead_of_the_grants_that_need_them() {
    let hub = bare_hub(60_000);
    let block = |module: usize| TuningBlock::new(module, vec![(module + 1, 50)]).unwrap();
    let (b0, b1, b2, failed) = (block(0), block(1), block(2), block(3));
    let (first, second) = (odd_float_checkpoint(), Checkpoint::new());
    hub.publish_blocks([(&b0.key(), &first), (&b1.key(), &second)])
        .unwrap();
    assert!(!hub.has_block(&failed.key()));

    // The next frames of a granted request: the pushed blocks, if any, as
    // `(key, weight bits)`, and the grant's sequence number.
    type Pushed = Vec<(String, Vec<(String, Vec<usize>, Vec<u32>)>)>;
    let grant = |conn: &mut TcpStream, task: TaskSpec| -> (Pushed, u64) {
        hub.enqueue(task);
        request_task(conn);
        let mut pushed = Vec::new();
        loop {
            match read_within(conn, 10_000) {
                Some(Message::Blocks { index }) => {
                    assert!(
                        pushed.is_empty(),
                        "a grant was preceded by two Blocks frames"
                    );
                    assert!(!index.is_empty(), "an empty Blocks frame was pushed");
                    pushed = index
                        .iter()
                        .map(|(key, ckpt)| (key.clone(), weight_bits(ckpt)))
                        .collect();
                }
                Some(Message::TaskGrant { task }) => return (pushed, task.seq),
                other => panic!(
                    "expected Blocks or a grant, got {:?}",
                    other.map(|m| m.name())
                ),
            }
        }
    };
    let keys = |pushed: &Pushed| pushed.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();

    let mut conn = scripted_worker(&hub);
    // The first grant brings exactly the task's published keys, in part
    // order; the failed block's key is not among them.
    let (pushed, seq) = grant(&mut conn, eval_over(1, &[&b1, &failed, &b0]));
    assert_eq!(seq, 1);
    assert_eq!(keys(&pushed), [b1.key(), b0.key()]);
    assert_eq!(pushed[0].1, weight_bits(&second));
    assert_eq!(pushed[1].1, weight_bits(&first));
    // A block published later reaches the session with the first grant
    // that needs it, alone: the session already holds the others.
    hub.publish_blocks([(&b2.key(), &first)]).unwrap();
    let (pushed, _) = grant(&mut conn, eval_over(2, &[&b0, &b2, &failed]));
    assert_eq!(keys(&pushed), [b2.key()]);
    // Nothing new, or no blocks at all: the grant comes alone.
    let (pushed, _) = grant(&mut conn, eval_over(3, &[&b2, &failed, &b1]));
    assert!(pushed.is_empty(), "pushed {:?} again", keys(&pushed));
    let baseline = TaskSpec {
        seq: 4,
        attempt: 1,
        epoch: 1,
        task: baseline_eval(),
        expected_steps: 1,
    };
    assert!(grant(&mut conn, baseline).0.is_empty());
    drop(conn);

    // The same worker id on a new session starts with nothing.
    let mut conn = scripted_worker(&hub);
    let (pushed, _) = grant(&mut conn, eval_over(5, &[&failed, &b2, &b0]));
    assert_eq!(keys(&pushed), [b2.key(), b0.key()]);
}

#[test]
fn parked_task_request_is_granted_the_moment_work_is_enqueued() {
    // A minute-long lease: the park (10 s) outlives the test, so every
    // reply below is caused by the enqueue, never by an expiry.
    let hub = bare_hub(60_000);
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
            task: baseline_eval(),
            expected_steps: 1,
        };
        let enqueued = Instant::now();
        hub.enqueue(task);
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
}

/// A worker that resends a `TaskDone` it could not confirm delivers the
/// same `(seq, attempt)` twice, both frames complete. The hub hands the
/// coordinator one copy: the drive loop folds it once, and nothing is
/// left for `finish` to count as a late zombie.
#[test]
fn a_task_done_delivered_twice_is_folded_once() {
    let hub = bare_hub(60_000);
    let mut conn = scripted_worker(&hub);
    let task = TaskSpec {
        seq: 1,
        attempt: 1,
        epoch: 1,
        task: baseline_eval(),
        expected_steps: 1,
    };
    hub.enqueue(task.clone());
    request_task(&mut conn);
    match read_within(&mut conn, 10_000) {
        Some(Message::TaskGrant { task: granted }) => assert_eq!(granted, task),
        other => panic!("expected a grant, got {:?}", other.map(|m| m.name())),
    }
    assert_eq!(hub.claimed(), 1);
    let done = Message::TaskDone {
        result: TaskResult {
            seq: 1,
            attempt: 1,
            epoch: 1,
            worker: "w0".to_string(),
            wall_ms: 3,
            output: TaskOutput::failed(&task.task, CoreError::Remote("boom".into()), 1),
            index: 0,
        },
    };
    done.write_to(&mut conn).unwrap();
    done.write_to(&mut conn).unwrap();
    // The handler reads one frame at a time: once the heartbeat behind
    // the two TaskDones is acknowledged, both have been handled.
    Message::Heartbeat {
        worker: "w0".to_string(),
        seq: 1,
        attempt: 1,
        nonce: 7,
    }
    .write_to(&mut conn)
    .unwrap();
    assert!(matches!(
        read_within(&mut conn, 10_000),
        Some(Message::HeartbeatAck { nonce: 7 })
    ));
    let delivered: Vec<(u64, u32, u64)> = hub
        .take_results()
        .into_iter()
        .map(|d| (d.result.seq, d.result.attempt, d.result.epoch))
        .collect();
    assert_eq!(delivered, [(1, 1, 1)], "folded once");
    assert_eq!(hub.claimed(), 0);
    assert!(
        hub.take_results().is_empty(),
        "the resent copy would be counted a zombie"
    );
}

#[test]
fn park_expiry_answers_no_task_with_zero_backoff() {
    let hub = bare_hub(25);
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
    let hub = bare_hub(60_000);
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

    // The real worker loop, parked the same way, exits `Shutdown` and its
    // closing session is reported as an event.
    let hub = bare_hub(60_000);
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
}
