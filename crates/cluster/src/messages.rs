//! The network message catalog: every frame the coordinator and a worker
//! exchange over TCP, and its msg-type code.
//!
//! [`Message`] is the single source of truth for the catalog — the
//! codes, names and payload encodings here are what `PROTOCOL.md` §4
//! documents, and a test pins the two against each other so the spec
//! cannot drift from the implementation. The payload encodings build on
//! the hand-written [`wootz_wire`] impls in [`crate::protocol`]:
//! checkpoints and pre-trained blocks travel in the run journal's binary
//! record encoding (PROTOCOL.md §8), the manifest as a bounded JSON
//! document (PROTOCOL.md §5).
//!
//! The conversation, briefly (full state machine in PROTOCOL.md §7):
//!
//! ```text
//! worker                         coordinator
//!   | -- Hello{worker,epoch} ------>  |   (epoch 0 = "tell me yours")
//!   | <-- Welcome{epoch,manifest,...} |   (or Shutdown when draining)
//!   | -- TaskRequest{worker} ------>  |   (long-poll: parked until work)
//!   | <-- Blocks{index} ------------  |   (before an evaluation's grant:
//!   | <-- TaskGrant{task} | NoTask -  |    its blocks new to the session)
//!   | -- Heartbeat{...} ----------->  |   (quarter-lease cadence)
//!   | <-- HeartbeatAck{nonce} ------  |
//!   | -- TaskDone{result} --------->  |
//!   | <-- Shutdown -----------------  |   (run complete; worker exits)
//! ```

use std::io::{Read, Write};

use wootz_core::pipeline::{read_doc, write_doc};
use wootz_nn::Checkpoint;
use wootz_wire::{
    read_frame, write_frame, Frame, Limits, WireDeserialize, WireError, WireReader, WireResult,
    WireSerialize, HEADER_LEN,
};

use crate::protocol::{Manifest, TaskResult, TaskSpec};

/// A protocol message: one frame on the wire. Variant order matches the
/// msg-type codes in [`Message::CATALOG`].
// `Welcome` (its inline manifest) makes every `Message` ≈ 400 bytes.
// A message lives only between a decode and its handling, one per frame,
// and is never stored in bulk, so boxing the manifest would buy nothing
// but an allocation per `Welcome` and a `Box` at every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Message {
    /// Worker → coordinator: opens (or re-opens) a session. `epoch` is
    /// the epoch the worker last worked under — `0` on first connect —
    /// so the coordinator can count reconnects and fence zombies.
    Hello {
        /// The worker's stable id (e.g. `w0`).
        worker: String,
        /// Last epoch the worker saw, `0` when it has none.
        epoch: u64,
    },
    /// Coordinator → worker: accepts the session and ships everything a
    /// worker needs to evaluate tasks without touching shared storage.
    Welcome {
        /// The coordinator's current fencing epoch.
        epoch: u64,
        /// The run manifest (JSON document on the wire).
        manifest: Manifest,
        /// The trained full-model checkpoint.
        full_ckpt: Checkpoint,
    },
    /// Worker → coordinator: asks for work. A long-poll: the coordinator
    /// answers when it has a task, when the run drains, or when its park
    /// bound expires — whichever comes first.
    TaskRequest {
        /// The requesting worker's id.
        worker: String,
    },
    /// Coordinator → worker: grants one task lease.
    TaskGrant {
        /// The granted task.
        task: TaskSpec,
    },
    /// Coordinator → worker: no work arrived while the request was
    /// parked; ask again after the suggested backoff.
    NoTask {
        /// Delay before the next [`Message::TaskRequest`]. Zero from a
        /// coordinator that long-polls (the waiting already happened on
        /// its side).
        backoff_ms: u64,
    },
    /// Worker → coordinator: renews the lease on a claimed task. Sent at
    /// a quarter of the lease period while the task runs.
    Heartbeat {
        /// The heartbeating worker's id.
        worker: String,
        /// The leased task's queue sequence number.
        seq: u64,
        /// The leased task's attempt number.
        attempt: u32,
        /// Echo token for RTT measurement; the coordinator returns it
        /// verbatim in [`Message::HeartbeatAck`].
        nonce: u64,
    },
    /// Coordinator → worker: acknowledges a heartbeat.
    HeartbeatAck {
        /// The [`Message::Heartbeat`] nonce, echoed.
        nonce: u64,
    },
    /// Worker → coordinator: delivers a completed task. The hub keeps
    /// the first copy of each `(epoch, seq, attempt)` for the
    /// coordinator's fencing and drops resent ones.
    TaskDone {
        /// The completed task's result record.
        result: TaskResult,
    },
    /// Coordinator → worker: pre-trained blocks, sent just before the
    /// grant of the evaluation that needs them, as `(block key,
    /// checkpoint)` pairs: the task's published keys this session has not
    /// been sent yet. A key of the task the session never receives is a
    /// block whose pre-training failed.
    Blocks {
        /// Block key → trained checkpoint.
        index: Vec<(String, Checkpoint)>,
    },
    /// Coordinator → worker: drain and exit. Also the reply to a
    /// [`Message::Hello`] that arrives while the run is shutting down.
    Shutdown,
    /// Client → serve daemon: submits one pruning job. The four run
    /// inputs travel as the *texts* the CLI would read from disk (model
    /// prototxt, subspace JSON, solver prototxt, objective expression) so
    /// a client needs no shared filesystem with the daemon; the daemon
    /// parses them and answers malformed inputs with a structured
    /// [`Message::JobDone`] error instead of dying.
    SubmitJob {
        /// Model prototxt text.
        model: String,
        /// Promising-subspace JSON text (`Vec<Vec<u8>>` of rate rows).
        configs: String,
        /// Solver prototxt text.
        solver: String,
        /// Objective expression (e.g. `min ModelSize s.t. Accuracy >= 0.35`).
        objective: String,
        /// Run mode: `baseline`, `composability`, or `hierarchical`.
        mode: String,
        /// Exploration strategy: `fixed`, `taylor`, or `bandit`
        /// (PR 10; the daemon validates the spelling).
        explorer: String,
        /// Adaptive-explorer evaluation budget; ignored when `explorer`
        /// is `fixed`.
        explorer_budget: u64,
    },
    /// Serve daemon → client: one pipeline milestone of the running job,
    /// streamed as it happens. `event` is a single NDJSON line (schema in
    /// `SERVING.md` §4) so clients can pipe it straight to a log.
    JobEvent {
        /// The job's id (derived from the submitted inputs).
        job: String,
        /// One NDJSON event line, no trailing newline.
        event: String,
    },
    /// Serve daemon → client: terminal reply for a submitted job.
    /// `code` 0 = success (`detail` is the run-result JSON document),
    /// 1 = invalid inputs, 2 = busy (job already running), 3 = execution
    /// failure (`detail` is the error message). PROTOCOL.md §4 is the
    /// normative code table.
    JobDone {
        /// The job's id.
        job: String,
        /// Outcome code (0 ok, 1 invalid inputs, 2 busy, 3 failed).
        code: u32,
        /// Result JSON (code 0) or human-readable error (codes 1–3).
        detail: String,
    },
}

impl Message {
    /// The message catalog: `(msg-type code, variant name)`, in code
    /// order. PROTOCOL.md §4 lists exactly these rows; a test compares
    /// the two so the spec and the code cannot drift apart.
    pub const CATALOG: &'static [(u16, &'static str)] = &[
        (1, "Hello"),
        (2, "Welcome"),
        (3, "TaskRequest"),
        (4, "TaskGrant"),
        (5, "NoTask"),
        (6, "Heartbeat"),
        (7, "HeartbeatAck"),
        (8, "TaskDone"),
        (10, "Blocks"),
        (11, "Shutdown"),
        (12, "SubmitJob"),
        (13, "JobEvent"),
        (14, "JobDone"),
    ];

    /// Retired msg-type codes, never reused: `(code, name)` of messages
    /// this revision neither sends nor decodes. A frame with one of these
    /// codes is refused as `UnknownMsgType`. Code 9 was `BlocksRequest`,
    /// the worker's fetch of blocks by key, which the hub's push of
    /// blocks ahead of each evaluation grant replaced.
    pub const RETIRED: &'static [(u16, &'static str)] = &[(9, "BlocksRequest")];

    /// This message's msg-type code (the envelope field).
    pub fn msg_type(&self) -> u16 {
        match self {
            Message::Hello { .. } => 1,
            Message::Welcome { .. } => 2,
            Message::TaskRequest { .. } => 3,
            Message::TaskGrant { .. } => 4,
            Message::NoTask { .. } => 5,
            Message::Heartbeat { .. } => 6,
            Message::HeartbeatAck { .. } => 7,
            Message::TaskDone { .. } => 8,
            Message::Blocks { .. } => 10,
            Message::Shutdown => 11,
            Message::SubmitJob { .. } => 12,
            Message::JobEvent { .. } => 13,
            Message::JobDone { .. } => 14,
        }
    }

    /// This message's catalog name.
    pub fn name(&self) -> &'static str {
        let code = self.msg_type();
        Message::CATALOG
            .iter()
            .find(|(c, _)| *c == code)
            .map_or("?", |(_, name)| name)
    }

    /// Encodes the payload (everything after the envelope header).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidValue`] when an embedded document
    /// cannot be serialized (which plain-derive types never hit).
    pub fn encode_payload(&self) -> WireResult<Vec<u8>> {
        let mut out = Vec::with_capacity(self.payload_size_hint());
        match self {
            Message::Hello { worker, epoch } => {
                worker.wire_write(&mut out)?;
                epoch.wire_write(&mut out)?;
            }
            Message::Welcome {
                epoch,
                manifest,
                full_ckpt,
            } => {
                epoch.wire_write(&mut out)?;
                write_doc(&mut out, "Welcome manifest", manifest)?;
                full_ckpt.wire_write(&mut out)?;
            }
            Message::TaskRequest { worker } => worker.wire_write(&mut out)?,
            Message::TaskGrant { task } => task.wire_write(&mut out)?,
            Message::NoTask { backoff_ms } => backoff_ms.wire_write(&mut out)?,
            Message::Heartbeat {
                worker,
                seq,
                attempt,
                nonce,
            } => {
                worker.wire_write(&mut out)?;
                seq.wire_write(&mut out)?;
                attempt.wire_write(&mut out)?;
                nonce.wire_write(&mut out)?;
            }
            Message::HeartbeatAck { nonce } => nonce.wire_write(&mut out)?,
            Message::TaskDone { result } => result.wire_write(&mut out)?,
            Message::Shutdown => {}
            Message::Blocks { index } => index.wire_write(&mut out)?,
            Message::SubmitJob {
                model,
                configs,
                solver,
                objective,
                mode,
                explorer,
                explorer_budget,
            } => {
                model.wire_write(&mut out)?;
                configs.wire_write(&mut out)?;
                solver.wire_write(&mut out)?;
                objective.wire_write(&mut out)?;
                mode.wire_write(&mut out)?;
                explorer.wire_write(&mut out)?;
                explorer_budget.wire_write(&mut out)?;
            }
            Message::JobEvent { job, event } => {
                job.wire_write(&mut out)?;
                event.wire_write(&mut out)?;
            }
            Message::JobDone { job, code, detail } => {
                job.wire_write(&mut out)?;
                code.wire_write(&mut out)?;
                detail.wire_write(&mut out)?;
            }
        }
        Ok(out)
    }

    /// A capacity hint for [`Message::encode_payload`]: exact for every
    /// message but `Welcome`, whose manifest document is estimated.
    fn payload_size_hint(&self) -> usize {
        match self {
            Message::Hello { worker, .. } => worker.wire_size() + 8,
            Message::Welcome { full_ckpt, .. } => 8 + 64 * 1024 + full_ckpt.wire_size(),
            Message::TaskRequest { worker } => worker.wire_size(),
            Message::TaskGrant { task } => task.wire_size(),
            Message::NoTask { .. } | Message::HeartbeatAck { .. } => 8,
            Message::Heartbeat { worker, .. } => worker.wire_size() + 8 + 4 + 8,
            Message::TaskDone { result } => result.wire_size(),
            Message::Shutdown => 0,
            Message::Blocks { index } => index.wire_size(),
            Message::SubmitJob {
                model,
                configs,
                solver,
                objective,
                mode,
                explorer,
                ..
            } => {
                model.wire_size()
                    + configs.wire_size()
                    + solver.wire_size()
                    + objective.wire_size()
                    + mode.wire_size()
                    + explorer.wire_size()
                    + 8
            }
            Message::JobEvent { job, event } => job.wire_size() + event.wire_size(),
            Message::JobDone { job, detail, .. } => job.wire_size() + 4 + detail.wire_size(),
        }
    }

    /// Decodes a received frame's payload by its msg-type code.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownMsgType`] for a code outside the catalog, or
    /// any payload-level decode error (the payload is read under
    /// `limits` with the frame length as budget; trailing bytes are
    /// rejected).
    pub fn decode(frame: &Frame, limits: &Limits) -> WireResult<Message> {
        let mut r = WireReader::new(
            frame.payload.as_slice(),
            frame.payload.len() as u64,
            limits.clone(),
        );
        let msg = match frame.msg_type {
            1 => Message::Hello {
                worker: r.string("Hello worker")?,
                epoch: r.u64("Hello epoch")?,
            },
            2 => Message::Welcome {
                epoch: r.u64("Welcome epoch")?,
                manifest: read_doc(&mut r, "Welcome manifest")?,
                full_ckpt: Checkpoint::wire_read(&mut r)?,
            },
            3 => Message::TaskRequest {
                worker: r.string("TaskRequest worker")?,
            },
            4 => Message::TaskGrant {
                task: TaskSpec::wire_read(&mut r)?,
            },
            5 => Message::NoTask {
                backoff_ms: r.u64("NoTask backoff_ms")?,
            },
            6 => Message::Heartbeat {
                worker: r.string("Heartbeat worker")?,
                seq: r.u64("Heartbeat seq")?,
                attempt: r.u32("Heartbeat attempt")?,
                nonce: r.u64("Heartbeat nonce")?,
            },
            7 => Message::HeartbeatAck {
                nonce: r.u64("HeartbeatAck nonce")?,
            },
            8 => Message::TaskDone {
                result: TaskResult::wire_read(&mut r)?,
            },
            10 => Message::Blocks {
                index: Vec::<(String, Checkpoint)>::wire_read(&mut r)?,
            },
            11 => Message::Shutdown,
            12 => Message::SubmitJob {
                model: r.string("SubmitJob model")?,
                configs: r.string("SubmitJob configs")?,
                solver: r.string("SubmitJob solver")?,
                objective: r.string("SubmitJob objective")?,
                mode: r.string("SubmitJob mode")?,
                explorer: r.string("SubmitJob explorer")?,
                explorer_budget: r.u64("SubmitJob explorer_budget")?,
            },
            13 => Message::JobEvent {
                job: r.string("JobEvent job")?,
                event: r.string("JobEvent event")?,
            },
            14 => Message::JobDone {
                job: r.string("JobDone job")?,
                code: r.u32("JobDone code")?,
                detail: r.string("JobDone detail")?,
            },
            found => return Err(WireError::UnknownMsgType { found }),
        };
        r.expect_consumed()?;
        Ok(msg)
    }

    /// Writes this message as one complete frame and returns the bytes
    /// written (header + payload). The caller flushes.
    ///
    /// # Errors
    ///
    /// Everything [`Message::encode_payload`] and
    /// [`wootz_wire::write_frame`] can return.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<usize> {
        let payload = self.encode_payload()?;
        write_frame(w, self.msg_type(), &payload)
    }

    /// Reads one complete frame from `r` and decodes it, returning the
    /// message and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Everything [`wootz_wire::read_frame`] and [`Message::decode`] can
    /// return — note [`WireError::Closed`] for a clean close between
    /// frames.
    pub fn read_from<R: Read + ?Sized>(r: &mut R, limits: &Limits) -> WireResult<(Message, usize)> {
        let frame = read_frame(r, limits)?;
        let size = HEADER_LEN + frame.payload.len();
        let msg = Message::decode(&frame, limits)?;
        Ok((msg, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_match_msg_type() {
        for &(code, name) in Message::CATALOG {
            let msg = match name {
                "Hello" => Message::Hello {
                    worker: "w0".into(),
                    epoch: 1,
                },
                "Welcome" => continue, // needs a manifest; covered by integration tests
                "TaskRequest" => Message::TaskRequest {
                    worker: "w0".into(),
                },
                "TaskGrant" => continue,
                "NoTask" => Message::NoTask { backoff_ms: 50 },
                "Heartbeat" => Message::Heartbeat {
                    worker: "w0".into(),
                    seq: 1,
                    attempt: 1,
                    nonce: 9,
                },
                "HeartbeatAck" => Message::HeartbeatAck { nonce: 9 },
                "TaskDone" => continue,
                "Blocks" => Message::Blocks { index: Vec::new() },
                "Shutdown" => Message::Shutdown,
                "SubmitJob" => Message::SubmitJob {
                    model: "name: \"m\"".into(),
                    configs: "[[0,30]]".into(),
                    solver: "dataset: \"flowers102\"".into(),
                    objective: "max Accuracy".into(),
                    mode: "composability".into(),
                    explorer: "fixed".into(),
                    explorer_budget: 0,
                },
                "JobEvent" => Message::JobEvent {
                    job: "j0".into(),
                    event: "{\"event\":\"full_model\"}".into(),
                },
                "JobDone" => Message::JobDone {
                    job: "j0".into(),
                    code: 0,
                    detail: "{}".into(),
                },
                other => panic!("catalog names unknown variant {other}"),
            };
            assert_eq!(msg.msg_type(), code);
            assert_eq!(msg.name(), name);
        }
    }

    #[test]
    fn unknown_msg_type_is_structured() {
        let frame = Frame {
            msg_type: 999,
            payload: Vec::new(),
        };
        assert!(matches!(
            Message::decode(&frame, &Limits::DEFAULT),
            Err(WireError::UnknownMsgType { found: 999 })
        ));
    }

    #[test]
    fn scalar_messages_round_trip_through_a_stream() {
        let msgs = vec![
            Message::Hello {
                worker: "w7".into(),
                epoch: 3,
            },
            Message::NoTask { backoff_ms: 120 },
            Message::Heartbeat {
                worker: "w7".into(),
                seq: 42,
                attempt: 2,
                nonce: 0xDEAD,
            },
            Message::HeartbeatAck { nonce: 0xDEAD },
            Message::Shutdown,
            Message::SubmitJob {
                model: "name: \"net\"".into(),
                configs: "[[0,30],[1,50]]".into(),
                solver: "dataset: \"flowers102\"\nseed: 3".into(),
                objective: "min ModelSize s.t. Accuracy >= 0.3".into(),
                mode: "composability".into(),
                explorer: "bandit".into(),
                explorer_budget: 24,
            },
            Message::JobEvent {
                job: "j01ab".into(),
                event: "{\"event\":\"block_cache_hit\",\"key\":\"m2r30\"}".into(),
            },
            Message::JobDone {
                job: "j01ab".into(),
                code: 3,
                detail: "pre-training failed".into(),
            },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            m.write_to(&mut stream).unwrap();
        }
        let mut cursor = stream.as_slice();
        for m in &msgs {
            let (back, _) = Message::read_from(&mut cursor, &Limits::DEFAULT).unwrap();
            assert_eq!(back.msg_type(), m.msg_type());
        }
        assert!(matches!(
            Message::read_from(&mut cursor, &Limits::DEFAULT),
            Err(WireError::Closed)
        ));
    }
}
