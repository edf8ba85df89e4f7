//! The value types of the distributed runtime, and their on-disk form.
//!
//! What the coordinator and the worker processes exchange — a
//! [`Manifest`] that pins the run's identity and inputs, task
//! specifications ([`TaskSpec`]), and task results ([`TaskResult`]) —
//! travels in frames ([`crate::messages`]) and is journaled by the
//! coordinator as plain files under the *run directory*. The files are
//! JSON written atomically (temp-file + rename), so a reader never
//! observes a partial file and a `SIGKILL`ed writer leaves at most an
//! orphaned temp file behind.
//!
//! The formats are deliberately *value-complete*: a worker process needs
//! nothing but its `Welcome` and its tasks to reconstruct the exact
//! evaluation function the single-process pipeline would run (the model
//! IR, subspace, solver and objective are all in the manifest; the
//! trained full model and the pre-trained block checkpoints arrive as
//! checksummed binary records). The vendored `serde_json` round-trips
//! `f32` values bit-exactly, which is what makes remote results
//! byte-identical to local ones.

use std::io::{Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use wootz_core::explore::{EvalOutcome, SupervisedEval};
use wootz_core::pipeline::RunMode;
use wootz_core::pretrain::PretrainedBlock;
use wootz_core::prune::PruneConfig;
use wootz_core::{CoreError, Result};
use wootz_fault::{FaultPlan, RetryPolicy};
use wootz_ir::{ModelIr, Objective, SolverConfig};
use wootz_wire::{
    write_bytes, write_len, WireDeserialize, WireError, WireReader, WireResult, WireSerialize,
};

/// Manifest file name inside the run directory.
pub const MANIFEST: &str = "manifest.json";
/// Directory of pre-trained block checkpoints (plus `index.json`).
pub const BLOCKS_DIR: &str = "blocks";
/// Index file inside [`BLOCKS_DIR`]: block key → checkpoint file name.
pub const BLOCKS_INDEX: &str = "index.json";
/// Directory of pending (unclaimed) tasks.
pub const TASKS_DIR: &str = "tasks";
/// Directory of claimed tasks (a claim is an atomic rename into here).
pub const CLAIMS_DIR: &str = "claims";
/// Directory of completed task results.
pub const RESULTS_DIR: &str = "results";
/// Directory of per-worker log files.
pub const LOGS_DIR: &str = "logs";

/// Everything a worker process needs to reconstruct the run: the four
/// pipeline inputs, the supervision policy, and the coordinator's fencing
/// epoch. Written once per coordinator start, before any worker is
/// spawned.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Fencing epoch. Incremented on every coordinator start over the same
    /// run directory; a result whose epoch does not match the current
    /// manifest is a zombie from a previous coordinator and is rejected.
    pub epoch: u64,
    /// The to-be-pruned model.
    pub model: ModelIr,
    /// The promising subspace.
    pub subspace: Vec<PruneConfig>,
    /// Training meta data.
    pub solver: SolverConfig,
    /// The pruning objective.
    pub objective: Objective,
    /// The run mode (workers recompute tuning blocks from it).
    pub mode: RunMode,
    /// Deterministic fault-injection plan, shared by every process so the
    /// schedule is identical no matter which worker claims a task.
    pub faults: Option<FaultPlan>,
    /// Retry policy the in-worker evaluation supervisor applies.
    pub retry: RetryPolicy,
    /// Lease duration in milliseconds; workers heartbeat at a quarter of
    /// this period.
    pub lease_ms: u64,
}

/// The unit of work a task executes. Both kinds are self-describing —
/// they carry the configurations or blocks they operate on inline —
/// because only the coordinator knows the explorer's trajectory: the
/// evaluation universe is the input subspace for the default `fixed`
/// explorer and grows from proposals for the others.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Evaluate one configuration of the evaluation *universe* (assemble,
    /// fine-tune, test). The universe index doubles as the evaluation
    /// seed index.
    Eval {
        /// Index into `universe` of the configuration to evaluate.
        config_index: usize,
        /// The evaluation universe as of this round (the explorer's
        /// initial universe followed by every accepted proposal so far).
        universe: Vec<PruneConfig>,
    },
    /// Pre-train one group of non-overlapping tuning blocks of a round's
    /// block batch.
    Pretrain {
        /// Group index within the batch's partition (keys the
        /// deterministic batch stream).
        group_index: usize,
        /// The round's full pre-training batch, in trajectory order.
        blocks: Vec<wootz_core::compile::TuningBlock>,
        /// Block indices (into `blocks`) of this group.
        group: Vec<usize>,
    },
}

impl TaskKind {
    /// Wire tag of [`TaskKind::Eval`].
    pub const TAG_EVAL: u8 = 2;
    /// Wire tag of [`TaskKind::Pretrain`].
    pub const TAG_PRETRAIN: u8 = 3;
    /// Retired wire tags: the index-only `Eval` (0) and `Pretrain` (1) of
    /// protocol revisions whose tasks addressed the manifest's subspace
    /// and block list. Never reused, so a mixed fleet fails decoding with
    /// `InvalidValue` instead of misreading a task.
    pub const RETIRED_TAGS: [u8; 2] = [0, 1];
}

/// One schedulable task. `(seq, attempt)` is globally unique within an
/// epoch: re-executions of the same unit of work (after lease reclamation
/// or for speculation) get a fresh attempt number, so files never collide
/// and fencing can distinguish the copies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Queue sequence number (stable identity of the unit of work).
    pub seq: u64,
    /// 1-based execution attempt of this unit of work.
    pub attempt: u32,
    /// The coordinator epoch that enqueued this task.
    pub epoch: u64,
    /// What to execute.
    pub kind: TaskKind,
    /// Expected SGD steps (from the solver), the deadline basis for
    /// straggler speculation.
    pub expected_steps: usize,
}

impl TaskSpec {
    /// Canonical file name of this `(seq, attempt)` in the queue dirs.
    pub fn file_name(&self) -> String {
        task_file_name(self.seq, self.attempt)
    }

    /// The fault-injection key of this task at `site::CLUSTER_TASK`:
    /// config index for evaluations, group index for pre-training — the
    /// same keying the in-process fault sites use.
    pub fn fault_key(&self) -> u64 {
        match &self.kind {
            TaskKind::Eval { config_index, .. } => *config_index as u64,
            TaskKind::Pretrain { group_index, .. } => *group_index as u64,
        }
    }
}

/// Builds the canonical queue file name of a `(seq, attempt)` pair.
pub fn task_file_name(seq: u64, attempt: u32) -> String {
    format!("t{seq:06}.a{attempt:03}.json")
}

/// Parses a queue file name back into its `(seq, attempt)` pair.
pub fn parse_task_file_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix('t')?.strip_suffix(".json")?;
    let (seq, attempt) = rest.split_once(".a")?;
    Some((seq.parse().ok()?, attempt.parse().ok()?))
}

/// A [`SupervisedEval`] in wire form: the error side is carried as its
/// rendered message (errors are not serializable structurally), which the
/// coordinator re-wraps as [`CoreError::Remote`] — a variant that displays
/// verbatim, so the failure record the fold produces is byte-identical to
/// the single-process one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// A completed task, written atomically into `results/` by the worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Writes `value` as JSON to `path` atomically: the bytes land in a
/// sibling temp file first and are renamed into place, so concurrent
/// readers see either nothing or the complete document.
///
/// # Errors
///
/// Returns [`CoreError::Pipeline`] on serialization or I/O failure.
pub fn atomic_write_json<T: Serialize>(path: &Path, value: &T) -> Result<()> {
    let json = serde_json::to_vec(value)
        .map_err(|e| cluster_err(format!("cannot serialize `{}`: {e}", path.display())))?;
    let file_name = path
        .file_name()
        .ok_or_else(|| cluster_err(format!("`{}` has no file name", path.display())))?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(".{file_name}.tmp-{}", std::process::id()));
    std::fs::write(&tmp, &json)
        .map_err(|e| cluster_err(format!("cannot write `{}`: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        cluster_err(format!("cannot publish `{}`: {e}", path.display()))
    })
}

/// Reads a JSON document written by [`atomic_write_json`].
///
/// # Errors
///
/// Returns [`CoreError::Pipeline`] on I/O or parse failure.
pub fn read_json<T: for<'de> Deserialize<'de>>(path: &Path) -> Result<T> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| cluster_err(format!("cannot read `{}`: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| cluster_err(format!("cannot parse `{}`: {e}", path.display())))
}

/// Builds the crate's uniform [`CoreError::Pipeline`] with a `cluster:`
/// prefix, so distributed-runtime failures are recognizable end to end.
pub fn cluster_err(detail: impl Into<String>) -> CoreError {
    CoreError::Pipeline(format!("cluster: {}", detail.into()))
}

// --- wire encodings ---------------------------------------------------------
//
// The network transport (`crate::net`) moves the same values the
// filesystem queue stores, framed by `wootz-wire`. Control-plane scalars
// (ids, sequence numbers, tags) get hand-written fixed-layout encodings;
// deeply nested model state (`Manifest`, `Checkpoint`, `EvalOutcome`,
// `PretrainedBlock`) rides as a length-prefixed JSON *document* — the
// exact bytes `serde_json` would put on disk — so a result that crossed
// TCP is byte-identical to one that crossed the run directory, and the
// durability journal can reuse the blob verbatim. Documents are bounded
// like any other blob: their declared length is checked against the frame
// budget before allocation. See PROTOCOL.md §5 for the byte-level rules.

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
pub(crate) fn read_usize<R: Read>(r: &mut WireReader<R>, context: &'static str) -> WireResult<usize> {
    let v = r.u64(context)?;
    usize::try_from(v).map_err(|_| WireError::InvalidValue {
        context,
        detail: format!("{v} does not fit a usize on this host"),
    })
}

impl WireSerialize for TaskKind {
    fn wire_size(&self) -> usize {
        match self {
            TaskKind::Eval { universe, .. } => 1 + 8 + doc_size(universe),
            TaskKind::Pretrain { blocks, group, .. } => {
                1 + 8 + doc_size(blocks) + 4 + 8 * group.len()
            }
        }
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        match self {
            TaskKind::Eval {
                config_index,
                universe,
            } => {
                w.write_all(&[TaskKind::TAG_EVAL])?;
                (*config_index as u64).wire_write(w)?;
                write_doc(w, "TaskKind::Eval universe", universe)
            }
            TaskKind::Pretrain {
                group_index,
                blocks,
                group,
            } => {
                w.write_all(&[TaskKind::TAG_PRETRAIN])?;
                (*group_index as u64).wire_write(w)?;
                write_doc(w, "TaskKind::Pretrain blocks", blocks)?;
                write_len(w, "TaskKind::Pretrain group", group.len())?;
                for &block in group {
                    (block as u64).wire_write(w)?;
                }
                Ok(())
            }
        }
    }
}

impl WireDeserialize for TaskKind {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Self> {
        match r.u8("TaskKind tag")? {
            TaskKind::TAG_EVAL => Ok(TaskKind::Eval {
                config_index: read_usize(r, "TaskKind::Eval config_index")?,
                universe: read_doc::<_, Vec<PruneConfig>>(r, "TaskKind::Eval universe")?,
            }),
            TaskKind::TAG_PRETRAIN => {
                let group_index = read_usize(r, "TaskKind::Pretrain group_index")?;
                let blocks = read_doc::<_, Vec<wootz_core::compile::TuningBlock>>(
                    r,
                    "TaskKind::Pretrain blocks",
                )?;
                let count = r.seq_len("TaskKind::Pretrain group", 8)?;
                let mut group = Vec::with_capacity(count);
                for _ in 0..count {
                    group.push(read_usize(r, "TaskKind::Pretrain group element")?);
                }
                Ok(TaskKind::Pretrain {
                    group_index,
                    blocks,
                    group,
                })
            }
            tag if TaskKind::RETIRED_TAGS.contains(&tag) => Err(WireError::InvalidValue {
                context: "TaskKind tag",
                detail: format!(
                    "retired variant tag {tag} (an index-only task of an older protocol \
                     revision; upgrade the sender)"
                ),
            }),
            other => Err(WireError::InvalidValue {
                context: "TaskKind tag",
                detail: format!("unknown variant tag {other}"),
            }),
        }
    }
}

impl WireSerialize for TaskSpec {
    fn wire_size(&self) -> usize {
        8 + 4 + 8 + self.kind.wire_size() + 8
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        self.seq.wire_write(w)?;
        self.attempt.wire_write(w)?;
        self.epoch.wire_write(w)?;
        self.kind.wire_write(w)?;
        (self.expected_steps as u64).wire_write(w)
    }
}

impl WireDeserialize for TaskSpec {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Self> {
        Ok(TaskSpec {
            seq: r.u64("TaskSpec seq")?,
            attempt: r.u32("TaskSpec attempt")?,
            epoch: r.u64("TaskSpec epoch")?,
            kind: TaskKind::wire_read(r)?,
            expected_steps: read_usize(r, "TaskSpec expected_steps")?,
        })
    }
}

impl WireSerialize for WireEval {
    fn wire_size(&self) -> usize {
        8 + 1
            + self.outcome.as_ref().map_or(0, doc_size)
            + self.error.wire_size()
            + 4
            + 8
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
            ResultPayload::Pretrain {
                blocks, failed, ..
            } => 1 + 8 + doc_size(blocks) + failed.wire_size(),
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
                write_doc(w, "ResultPayload blocks", blocks)?;
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
                blocks: read_doc::<_, Vec<PretrainedBlock>>(r, "ResultPayload blocks")?,
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

    #[test]
    fn task_file_names_round_trip() {
        let spec = TaskSpec {
            seq: 42,
            attempt: 3,
            epoch: 1,
            kind: TaskKind::Eval {
                config_index: 7,
                universe: vec![PruneConfig::unpruned(4)],
            },
            expected_steps: 10,
        };
        assert_eq!(spec.file_name(), "t000042.a003.json");
        assert_eq!(parse_task_file_name(&spec.file_name()), Some((42, 3)));
        assert_eq!(parse_task_file_name("garbage"), None);
        assert_eq!(parse_task_file_name(".t000001.a001.json.tmp-9"), None);
    }

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
        let json = serde_json::to_string(&ok).unwrap();
        let back: WireEval = serde_json::from_str(&json).unwrap();
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
        let specs = vec![
            TaskSpec {
                seq: 9,
                attempt: 2,
                epoch: 3,
                kind: TaskKind::Eval {
                    config_index: 5,
                    universe: vec![
                        PruneConfig::unpruned(4),
                        PruneConfig::uniform(4, 50).unwrap(),
                    ],
                },
                expected_steps: 12,
            },
            TaskSpec {
                seq: 10,
                attempt: 1,
                epoch: 3,
                kind: TaskKind::Pretrain {
                    group_index: 1,
                    blocks: vec![
                        TuningBlock::new(0, vec![(1, 30), (2, 50)]).unwrap(),
                        TuningBlock::new(1, vec![(3, 70)]).unwrap(),
                    ],
                    group: vec![1],
                },
                expected_steps: 6,
            },
        ];
        for spec in specs {
            let mut buf = Vec::new();
            spec.wire_write(&mut buf).unwrap();
            assert_eq!(buf.len(), spec.wire_size(), "declared size matches encoding");
            let mut reader = WireReader::new(
                buf.as_slice(),
                buf.len() as u64,
                wootz_wire::Limits::DEFAULT,
            );
            let back = TaskSpec::wire_read(&mut reader).unwrap();
            assert_eq!(back, spec);
            // The JSON queue files carry the same value losslessly too.
            let json = serde_json::to_string(&spec).unwrap();
            let back: TaskSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join(format!("wootz_proto_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t000001.a001.json");
        let spec = TaskSpec {
            seq: 1,
            attempt: 1,
            epoch: 2,
            kind: TaskKind::Pretrain {
                group_index: 0,
                blocks: Vec::new(),
                group: vec![0, 2],
            },
            expected_steps: 6,
        };
        atomic_write_json(&path, &spec).unwrap();
        let back: TaskSpec = read_json(&path).unwrap();
        assert_eq!(back, spec);
        std::fs::remove_dir_all(&dir).ok();
    }
}
