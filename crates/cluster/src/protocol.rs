//! The value types of the distributed runtime, and their encodings.
//!
//! What the coordinator and the worker processes exchange — a
//! [`Manifest`] that pins the run's identity and inputs, task
//! specifications ([`TaskSpec`]), and task results ([`TaskResult`]) —
//! travels in frames ([`crate::messages`]); none of it is a file.
//!
//! The formats are deliberately *value-complete*: a worker process needs
//! nothing but its `Welcome`, its tasks and the blocks the coordinator
//! pushes ahead of each evaluation grant to run the exact function the
//! single-process pipeline would run (the model IR, solver and objective
//! are in the manifest; each task carries its configuration or blocks;
//! the trained full model and the pre-trained block checkpoints arrive in
//! the checkpoint encoding of `PROTOCOL.md` §8), and its result is that
//! function's own [`TaskOutput`]. Weights are bytes, never text:
//! checkpoints and pre-trained blocks cross TCP in the encoding the run
//! journal stores, floats as bit patterns, which is what makes remote
//! results byte-identical to local ones.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use wootz_core::pipeline::{doc_size, read_doc, read_usize, write_doc, Task, TaskOutput};
use wootz_core::CoreError;
use wootz_fault::{FaultPlan, RetryPolicy};
use wootz_ir::{ModelIr, Objective, SolverConfig};
use wootz_wire::{WireDeserialize, WireError, WireReader, WireResult, WireSerialize};

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
    /// context and the pre-trained blocks pushed ahead of its grant.
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
}

/// A completed task, as the worker's `TaskDone` carries it.
#[derive(Debug)]
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
    /// What [`wootz_core::pipeline::execute`] returned for the task.
    pub output: TaskOutput,
    /// The task's index, echoed: its `config_index` for an evaluation,
    /// its `group_index` for a group. The coordinator refuses a result
    /// whose echo names another unit of work.
    pub index: usize,
}

/// Builds the crate's uniform [`CoreError::Pipeline`] with a `cluster:`
/// prefix, so distributed-runtime failures are recognizable end to end.
pub fn cluster_err(detail: impl Into<String>) -> CoreError {
    CoreError::Pipeline(format!("cluster: {}", detail.into()))
}

// --- wire encodings ---------------------------------------------------------
//
// The network transport (`crate::net`) frames these values with
// `wootz-wire`. Control-plane scalars (ids, sequence numbers, tags) get
// fixed-layout binary encodings; a task's configuration and tuning blocks
// ride as `doc<T>` JSON documents (PROTOCOL.md §5) and its output in the
// encoding `wootz-core` defines beside `TaskOutput`.

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

impl WireSerialize for TaskResult {
    fn wire_size(&self) -> usize {
        8 + 4 + 8 + self.worker.wire_size() + 8 + self.output.wire_size() + 8
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        self.seq.wire_write(w)?;
        self.attempt.wire_write(w)?;
        self.epoch.wire_write(w)?;
        self.worker.wire_write(w)?;
        self.wall_ms.wire_write(w)?;
        self.output.wire_write(w)?;
        (self.index as u64).wire_write(w)
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
            output: TaskOutput::wire_read(r)?,
            index: read_usize(r, "TaskResult index")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wootz_wire::Limits;

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
