//! The value types of the distributed runtime, and their encodings.
//!
//! What the coordinator and the worker processes exchange — a
//! [`Manifest`] that pins the run's identity and inputs, task
//! specifications ([`TaskSpec`]), and task results ([`TaskResult`]) —
//! travels in frames ([`crate::messages`]); none of it is a file.
//!
//! The formats are deliberately *value-complete*: a worker process needs
//! nothing but its `Welcome`, its tasks and the blocks it fetches by key
//! to run the exact function the single-process pipeline would run (the
//! model IR, solver and objective are in the manifest; each task carries
//! its configuration or blocks; the trained full model and the
//! pre-trained block checkpoints arrive in the checkpoint encoding of
//! `PROTOCOL.md` §8). Weights are bytes, never
//! text: checkpoints and pre-trained blocks cross TCP in the encoding
//! the run journal stores, floats as bit patterns, which is what makes
//! remote results byte-identical to local ones.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use wootz_core::explore::{EvalOutcome, SupervisedEval};
use wootz_core::pipeline::Task;
use wootz_core::pretrain::PretrainedBlock;
use wootz_core::CoreError;
use wootz_fault::{FaultPlan, RetryPolicy};
use wootz_ir::{ModelIr, Objective, SolverConfig};
use wootz_wire::{write_bytes, WireDeserialize, WireError, WireReader, WireResult, WireSerialize};

/// What a worker process needs of the run besides its tasks: the model,
/// solver and objective, the supervision policy, and the coordinator's
/// fencing epoch. Built once per coordinator start and handed to every worker
/// in its `Welcome`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Fencing epoch: drawn fresh and non-zero at every coordinator
    /// start, so no two coordinators share one; a result whose epoch does
    /// not match the current one is a zombie from a previous coordinator
    /// and is rejected.
    pub epoch: u64,
    /// The to-be-pruned model.
    pub model: ModelIr,
    /// Training meta data.
    pub solver: SolverConfig,
    /// The pruning objective.
    pub objective: Objective,
    /// Deterministic fault-injection plan, shared by every process so the
    /// schedule is identical no matter which worker claims a task.
    pub faults: Option<FaultPlan>,
    /// Retry policy the in-worker evaluation supervisor applies.
    pub retry: RetryPolicy,
    /// Lease duration in milliseconds; workers heartbeat at a quarter of
    /// this period.
    pub lease_ms: u64,
}

/// One schedulable task. `(seq, attempt)` is globally unique within an
/// epoch: re-executions of the same unit of work (after lease reclamation
/// or for speculation) get a fresh attempt number, so fencing can
/// distinguish the copies.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Queue sequence number (stable identity of the unit of work).
    pub seq: u64,
    /// 1-based execution attempt of this unit of work.
    pub attempt: u32,
    /// The coordinator epoch that enqueued this task.
    pub epoch: u64,
    /// What to execute, with everything it needs but the run's fixed
    /// context and the pre-trained blocks it fetches by key.
    pub task: Task,
    /// Expected SGD steps (from the solver), the deadline basis for
    /// straggler speculation.
    pub expected_steps: usize,
}

impl TaskSpec {
    /// Wire tag of [`Task::Eval`].
    pub const TAG_EVAL: u8 = 4;
    /// Wire tag of [`Task::Pretrain`].
    pub const TAG_PRETRAIN: u8 = 5;
    /// Retired wire tags, never reused, so a mixed fleet fails decoding
    /// with `InvalidValue` instead of misreading a task: the index-only
    /// `Eval` (0) and `Pretrain` (1) that addressed the manifest's
    /// subspace and block list, and the `Eval` (2) and `Pretrain` (3)
    /// that carried the whole universe and the whole batch.
    pub const RETIRED_TAGS: [u8; 4] = [0, 1, 2, 3];

    /// The fault-injection key of this task at `site::CLUSTER_TASK`:
    /// config index for evaluations, group index for pre-training — the
    /// same keying the in-process fault sites use.
    pub fn fault_key(&self) -> u64 {
        match &self.task {
            Task::Eval { config_index, .. } => *config_index as u64,
            Task::Pretrain { group_index, .. } => *group_index as u64,
        }
    }
}

/// A [`SupervisedEval`] in wire form: the error side is carried as its
/// rendered message (errors are not serializable structurally), which the
/// coordinator re-wraps as [`CoreError::Remote`] — a variant that displays
/// verbatim, so the failure record the fold produces is byte-identical to
/// the single-process one.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEval {
    /// Index of the evaluated configuration.
    pub config_index: usize,
    /// The measured outcome, when the final attempt succeeded.
    pub outcome: Option<EvalOutcome>,
    /// The last attempt's rendered error, when all attempts failed.
    pub error: Option<String>,
    /// Attempts the in-worker supervisor made.
    pub attempts: u32,
    /// Retry backoff the supervisor charged.
    pub backoff: f64,
}

impl WireEval {
    /// Wraps a supervisor outcome for the wire.
    pub fn from_supervised(config_index: usize, sup: SupervisedEval) -> Self {
        let (outcome, error) = match sup.result {
            Ok(o) => (Some(o), None),
            Err(e) => (None, Some(e.to_string())),
        };
        WireEval {
            config_index,
            outcome,
            error,
            attempts: sup.attempts,
            backoff: sup.backoff,
        }
    }

    /// Unwraps back into the supervisor outcome the fold consumes.
    pub fn into_supervised(self) -> SupervisedEval {
        let result = match (self.outcome, self.error) {
            (Some(o), _) => Ok(o),
            (None, Some(msg)) => Err(CoreError::Remote(msg)),
            (None, None) => Err(CoreError::Remote(
                "remote worker returned neither outcome nor error".to_string(),
            )),
        };
        SupervisedEval {
            result,
            attempts: self.attempts,
            backoff: self.backoff,
        }
    }
}

/// The payload of a completed task.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultPayload {
    /// One configuration evaluation.
    Eval(WireEval),
    /// One pre-trained group.
    Pretrain {
        /// Group index this payload belongs to.
        group_index: usize,
        /// Freshly trained blocks (journal-ready).
        blocks: Vec<PretrainedBlock>,
        /// Blocks that failed even the per-block fallback, as
        /// `(key, rendered error)`.
        failed: Vec<(String, String)>,
    },
}

/// A completed task, as the worker's `TaskDone` carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResult {
    /// The task's queue sequence number.
    pub seq: u64,
    /// The execution attempt that produced this result.
    pub attempt: u32,
    /// The epoch of the manifest the worker executed under.
    pub epoch: u64,
    /// Id of the worker process that executed the task.
    pub worker: String,
    /// Wall-clock execution time in milliseconds (straggler telemetry and
    /// the speculation deadline's calibration input).
    pub wall_ms: u64,
    /// What the task produced.
    pub payload: ResultPayload,
}

/// Builds the crate's uniform [`CoreError::Pipeline`] with a `cluster:`
/// prefix, so distributed-runtime failures are recognizable end to end.
pub fn cluster_err(detail: impl Into<String>) -> CoreError {
    CoreError::Pipeline(format!("cluster: {}", detail.into()))
}

// --- wire encodings ---------------------------------------------------------
//
// The network transport (`crate::net`) frames these values with
// `wootz-wire`. Control-plane scalars (ids, sequence numbers, tags) and
// weights (`Checkpoint`, `PretrainedBlock`) get fixed-layout binary
// encodings; the manifest, a task's configuration, tuning blocks and
// evaluation outcomes ride as a length-prefixed JSON *document*, the same
// JSON the journal holds. Documents are bounded like any other blob:
// their declared length is checked against the frame budget before
// allocation. See PROTOCOL.md §5 for the byte-level rules.

/// Encoded size of a JSON document field (length prefix + bytes).
///
/// Serialization of these plain-derive types cannot fail; if it ever did,
/// [`write_doc`] reports it as a structured error and the size here is
/// simply a capacity hint.
pub(crate) fn doc_size<T: Serialize>(value: &T) -> usize {
    4 + serde_json::to_vec(value).map(|v| v.len()).unwrap_or(0)
}

/// Writes a value as a length-prefixed JSON document field.
pub(crate) fn write_doc<W: Write + ?Sized, T: Serialize>(
    w: &mut W,
    context: &'static str,
    value: &T,
) -> WireResult<()> {
    let bytes = serde_json::to_vec(value).map_err(|e| WireError::InvalidValue {
        context,
        detail: format!("cannot serialize document: {e}"),
    })?;
    write_bytes(w, context, &bytes)
}

/// Reads a length-prefixed JSON document field under the reader's budget.
pub(crate) fn read_doc<R: Read, T: for<'de> Deserialize<'de>>(
    r: &mut WireReader<R>,
    context: &'static str,
) -> WireResult<T> {
    let bytes = r.bytes(context)?;
    let text = std::str::from_utf8(&bytes).map_err(|_| WireError::InvalidUtf8 { context })?;
    serde_json::from_str(text).map_err(|e| WireError::InvalidValue {
        context,
        detail: format!("cannot parse document: {e}"),
    })
}

/// Reads a wire `u64` into a host `usize`, rejecting values the host
/// cannot represent.
pub(crate) fn read_usize<R: Read>(
    r: &mut WireReader<R>,
    context: &'static str,
) -> WireResult<usize> {
    let v = r.u64(context)?;
    usize::try_from(v).map_err(|_| WireError::InvalidValue {
        context,
        detail: format!("{v} does not fit a usize on this host"),
    })
}

impl WireSerialize for TaskSpec {
    fn wire_size(&self) -> usize {
        let task = match &self.task {
            Task::Eval { config, blocks, .. } => 8 + doc_size(config) + doc_size(blocks),
            Task::Pretrain { blocks, .. } => 8 + doc_size(blocks),
        };
        8 + 4 + 8 + 1 + task + 8
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        self.seq.wire_write(w)?;
        self.attempt.wire_write(w)?;
        self.epoch.wire_write(w)?;
        match &self.task {
            Task::Eval {
                config_index,
                config,
                blocks,
            } => {
                w.write_all(&[TaskSpec::TAG_EVAL])?;
                (*config_index as u64).wire_write(w)?;
                write_doc(w, "Task::Eval config", config)?;
                write_doc(w, "Task::Eval blocks", blocks)?;
            }
            Task::Pretrain {
                group_index,
                blocks,
            } => {
                w.write_all(&[TaskSpec::TAG_PRETRAIN])?;
                (*group_index as u64).wire_write(w)?;
                write_doc(w, "Task::Pretrain blocks", blocks)?;
            }
        }
        (self.expected_steps as u64).wire_write(w)
    }
}

impl WireDeserialize for TaskSpec {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Self> {
        let seq = r.u64("TaskSpec seq")?;
        let attempt = r.u32("TaskSpec attempt")?;
        let epoch = r.u64("TaskSpec epoch")?;
        let task = match r.u8("Task tag")? {
            TaskSpec::TAG_EVAL => Task::Eval {
                config_index: read_usize(r, "Task::Eval config_index")?,
                config: read_doc(r, "Task::Eval config")?,
                blocks: read_doc(r, "Task::Eval blocks")?,
            },
            TaskSpec::TAG_PRETRAIN => Task::Pretrain {
                group_index: read_usize(r, "Task::Pretrain group_index")?,
                blocks: read_doc(r, "Task::Pretrain blocks")?,
            },
            tag if TaskSpec::RETIRED_TAGS.contains(&tag) => {
                return Err(WireError::InvalidValue {
                    context: "Task tag",
                    detail: format!(
                        "retired variant tag {tag} (a task of an older protocol revision; \
                         upgrade the sender)"
                    ),
                })
            }
            other => {
                return Err(WireError::InvalidValue {
                    context: "Task tag",
                    detail: format!("unknown variant tag {other}"),
                })
            }
        };
        Ok(TaskSpec {
            seq,
            attempt,
            epoch,
            task,
            expected_steps: read_usize(r, "TaskSpec expected_steps")?,
        })
    }
}

impl WireSerialize for WireEval {
    fn wire_size(&self) -> usize {
        8 + 1 + self.outcome.as_ref().map_or(0, doc_size) + self.error.wire_size() + 4 + 8
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        (self.config_index as u64).wire_write(w)?;
        match &self.outcome {
            None => w.write_all(&[0])?,
            Some(outcome) => {
                w.write_all(&[1])?;
                write_doc(w, "WireEval outcome", outcome)?;
            }
        }
        self.error.wire_write(w)?;
        self.attempts.wire_write(w)?;
        self.backoff.wire_write(w)
    }
}

impl WireDeserialize for WireEval {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Self> {
        let config_index = read_usize(r, "WireEval config_index")?;
        let outcome = if r.bool("WireEval outcome tag")? {
            Some(read_doc::<_, EvalOutcome>(r, "WireEval outcome")?)
        } else {
            None
        };
        Ok(WireEval {
            config_index,
            outcome,
            error: Option::<String>::wire_read(r)?,
            attempts: r.u32("WireEval attempts")?,
            backoff: r.f64("WireEval backoff")?,
        })
    }
}

impl WireSerialize for ResultPayload {
    fn wire_size(&self) -> usize {
        match self {
            ResultPayload::Eval(eval) => 1 + eval.wire_size(),
            ResultPayload::Pretrain { blocks, failed, .. } => {
                1 + 8 + blocks.wire_size() + failed.wire_size()
            }
        }
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        match self {
            ResultPayload::Eval(eval) => {
                w.write_all(&[0])?;
                eval.wire_write(w)
            }
            ResultPayload::Pretrain {
                group_index,
                blocks,
                failed,
            } => {
                w.write_all(&[1])?;
                (*group_index as u64).wire_write(w)?;
                blocks.wire_write(w)?;
                failed.wire_write(w)
            }
        }
    }
}

impl WireDeserialize for ResultPayload {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Self> {
        match r.u8("ResultPayload tag")? {
            0 => Ok(ResultPayload::Eval(WireEval::wire_read(r)?)),
            1 => Ok(ResultPayload::Pretrain {
                group_index: read_usize(r, "ResultPayload group_index")?,
                blocks: Vec::<PretrainedBlock>::wire_read(r)?,
                failed: Vec::<(String, String)>::wire_read(r)?,
            }),
            other => Err(WireError::InvalidValue {
                context: "ResultPayload tag",
                detail: format!("unknown variant tag {other}"),
            }),
        }
    }
}

impl WireSerialize for TaskResult {
    fn wire_size(&self) -> usize {
        8 + 4 + 8 + self.worker.wire_size() + 8 + self.payload.wire_size()
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        self.seq.wire_write(w)?;
        self.attempt.wire_write(w)?;
        self.epoch.wire_write(w)?;
        self.worker.wire_write(w)?;
        self.wall_ms.wire_write(w)?;
        self.payload.wire_write(w)
    }
}

impl WireDeserialize for TaskResult {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Self> {
        Ok(TaskResult {
            seq: r.u64("TaskResult seq")?,
            attempt: r.u32("TaskResult attempt")?,
            epoch: r.u64("TaskResult epoch")?,
            worker: r.string("TaskResult worker")?,
            wall_ms: r.u64("TaskResult wall_ms")?,
            payload: ResultPayload::wire_read(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wootz_wire::Limits;

    #[test]
    fn wire_eval_round_trips_both_sides() {
        let ok = WireEval::from_supervised(
            4,
            SupervisedEval {
                result: Ok(EvalOutcome {
                    model_size: 10,
                    flops: 20,
                    accuracy: 0.5,
                    cost: 3.25,
                    log: None,
                }),
                attempts: 2,
                backoff: 1.25,
            },
        );
        let mut buf = Vec::new();
        ok.wire_write(&mut buf).unwrap();
        assert_eq!(buf.len(), ok.wire_size(), "declared size matches encoding");
        let back = WireEval::wire_read(&mut WireReader::new(
            buf.as_slice(),
            buf.len() as u64,
            Limits::DEFAULT,
        ))
        .unwrap();
        assert_eq!(back, ok);
        let sup = back.into_supervised();
        assert_eq!(sup.attempts, 2);
        assert_eq!(sup.backoff, 1.25);
        assert_eq!(sup.result.unwrap().cost, 3.25);

        let err = WireEval::from_supervised(
            4,
            SupervisedEval {
                result: Err(CoreError::Pipeline("boom".into())),
                attempts: 3,
                backoff: 0.0,
            },
        );
        let sup = err.into_supervised();
        let rendered = sup.result.unwrap_err().to_string();
        // CoreError::Remote displays the worker-side rendering verbatim.
        assert_eq!(rendered, CoreError::Pipeline("boom".into()).to_string());
    }

    #[test]
    fn task_kinds_round_trip_on_the_wire() {
        use wootz_core::compile::TuningBlock;
        use wootz_core::prune::PruneConfig;
        let blocks = vec![
            TuningBlock::new(0, vec![(1, 30), (2, 50)]).unwrap(),
            TuningBlock::new(1, vec![(3, 70)]).unwrap(),
        ];
        let eval = |blocks| Task::Eval {
            config_index: 5,
            config: PruneConfig::uniform(4, 50).unwrap(),
            blocks,
        };
        let tasks = vec![
            eval(None),
            eval(Some(blocks.clone())),
            eval(Some(Vec::new())),
            Task::Pretrain {
                group_index: 1,
                blocks: vec![(0, blocks[0].clone()), (3, blocks[1].clone())],
            },
        ];
        for (seq, task) in tasks.into_iter().enumerate() {
            let spec = TaskSpec {
                seq: seq as u64,
                attempt: 2,
                epoch: 3,
                task,
                expected_steps: 12,
            };
            let mut buf = Vec::new();
            spec.wire_write(&mut buf).unwrap();
            assert_eq!(
                buf.len(),
                spec.wire_size(),
                "declared size matches encoding"
            );
            let mut reader = WireReader::new(buf.as_slice(), buf.len() as u64, Limits::DEFAULT);
            let back = TaskSpec::wire_read(&mut reader).unwrap();
            assert_eq!(back, spec);
        }
    }
}
