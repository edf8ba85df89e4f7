//! `wootz-cluster`: a multi-process distributed execution runtime for the
//! Wootz exploration pipeline.
//!
//! The single-process pipeline evaluates pruned configurations one after the
//! other (or on threads). This crate distributes the same work across *OS
//! processes* — surviving worker crashes, hangs, and stragglers — while
//! producing **bit-identical** results to the single-process run. The
//! exploration round width remains `solver.num_workers` (the paper's logical
//! parallelism *p*); the number of worker processes only changes how fast a
//! round's evaluations physically execute, never which evaluations run or
//! how their results fold.
//!
//! # Architecture
//!
//! The coordinator binds a TCP socket ([`net::NetHub`]) and speaks the
//! [`wootz_wire`] framed protocol (see `PROTOCOL.md`) with its workers —
//! the pool it spawns over loopback and any `wootz worker --connect`
//! started on another machine alike. Workers share no storage with it:
//! the manifest, the checkpoints and every task arrive in frames. The run
//! directory is the coordinator's private durability journal — every
//! grant is claimed and every result is journaled to disk *before* the
//! coordinator acts on it, which is what crash recovery, fencing and
//! bit-identity rest on:
//!
//! ```text
//! run-dir/
//!   manifest.json      frozen inputs + epoch (fencing token) + lease period
//!   blocks/            pre-trained block checkpoints + index.json
//!   tasks/             pending   t{seq:06}.a{attempt:03}.json
//!   claims/            claimed   (atomic rename from tasks/ = exactly-once claim)
//!   results/           one JSON result per (seq, attempt), atomic tmp+rename
//!   logs/              per-worker stdout/stderr
//! ```
//!
//! * **Claim** — answering a [`Message::TaskRequest`], a hub handler
//!   renames `tasks/X` → `claims/X`. `rename(2)` on one filesystem is
//!   atomic, so exactly one claimant wins; losers see `NotFound` and move
//!   on. The grant travels back as a [`Message::TaskGrant`].
//! * **Lease + heartbeat** — the grant starts the attempt's lease clock;
//!   the worker's [`Message::Heartbeat`] frames, sent at a quarter of the
//!   lease period from a background thread, refresh it. The coordinator
//!   reclaims any granted task without a signal for a whole lease period,
//!   re-enqueueing a fresh *attempt*.
//! * **Fencing** — every task carries the coordinator's `epoch` and an
//!   `attempt` number. A result is accepted only if its epoch matches and
//!   its attempt is still live; a zombie worker completing a reclaimed task
//!   delivers a result that is *rejected*, never double-counted.
//! * **Speculation** — once the queue drains, the coordinator watches the
//!   slowest outstanding task against a deadline derived from the observed
//!   per-step rate (3× the median) and launches a duplicate attempt. First
//!   publication wins; the loser is fenced.
//! * **Determinism** — each task ([`wootz_core::pipeline::EvalContext`]
//!   evaluation or a block pre-training group) is a pure function of the
//!   manifest + checkpoints, so any attempt on any process produces the
//!   same bytes, and the fold order is fixed by the round runner.
//! * **Reconnects** — a worker that loses its connection mid-frame
//!   reconnects and resends its undelivered result, deduplicated on disk
//!   by the `(seq, attempt)` result filename. See [`net`] for the socket
//!   runtime and `DESIGN.md` §11 for the failure matrix.
//!
//! Process-level faults (worker crash / hang / straggler) are injected
//! deterministically through [`wootz_fault`] at `site::CLUSTER_TASK`, which
//! is how the integration tests exercise reclamation, fencing, and
//! speculative re-execution without flaky timing dependence. Socket-level
//! chaos (mid-frame disconnects) is driven by the `WOOTZ_CHAOS_NET_DROP`
//! environment hook documented in [`worker`].

#![warn(missing_docs)]

pub mod coordinator;
pub mod messages;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod serve;
pub mod worker;

pub use coordinator::{run_distributed, self_worker_cmd, ClusterOptions, ClusterStats};
pub use messages::Message;
pub use serve::{job_code, serve, submit, ServeOptions};
pub use queue::RunDir;
pub use worker::{worker_net_main, WorkerExit, DEFAULT_ORPHAN_GRACE_MS, ENV_ORPHAN_GRACE_MS};
