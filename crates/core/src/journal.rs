//! Append-only run journal — crash-resumable exploration on checksummed
//! binary records.
//!
//! A journal is a sequence of `wootz-wire` records (`PROTOCOL.md` §8):
//! the first is always a [`JournalHeader`] record pinning the run's
//! identity (subspace, model and solver, objective, seed, mode); every later record
//! is a [`JournalEntry`] for a completed unit of work — the trained full
//! model, one pre-trained tuning block, or one configuration evaluation.
//! Every record carries the envelope CRC, so each entry verifies
//! independently. A file that does not start with the record magic is
//! not a journal: [`Journal::resume`] and [`read_journal`] refuse it and
//! leave it byte-for-byte untouched.
//!
//! Each entry is flushed as soon as it is appended, so a killed run
//! loses at most the record being written. On resume the scanner
//! classifies any damage:
//!
//! * a **torn tail** (crash mid-append) is reported, truncated away and
//!   tallied — the intact prefix replays as usual;
//! * **mid-file corruption** (bit rot, an overwritten region, a bad
//!   CRC) quarantines the whole file to `quarantine/` with a structured
//!   report, then rebuilds the journal from the intact prefix so the
//!   run still resumes — degraded, loud, but never aborted and never
//!   silently lossy (see [`crate::recovery`]).
//!
//! A journal has **exactly one writer**. Opening it for writing takes a
//! sidecar lock file (`<path>.lock`, created with `O_EXCL`, containing the
//! writer's pid); a second writer — another process or another handle in
//! the same process — fails with a `journal is locked` error instead of
//! silently interleaving records. A lock whose pid is no longer alive (the
//! writer was SIGKILLed) is stale and is taken over, so a killed
//! coordinator can always be resumed.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use wootz_fault::chaos::{self, kill_site};
use wootz_fault::{fnv1a64, pid_alive};
use wootz_ir::{ModelIr, SolverConfig};
use wootz_nn::Checkpoint;
use wootz_wire::{
    is_record_artifact, record_type, scan_records, write_frame, Frame, Limits, RecordDamage,
    RecordTail, WireDeserialize, WireError, WireReader, WireSerialize, HEADER_LEN,
};

use crate::explore::EvalRecord;
use crate::explorer::ProposalRecord;
use crate::pretrain::PretrainedBlock;
use crate::prune::PruneConfig;
use crate::recovery;
use crate::{CoreError, Result};

/// Current journal format version, pinned in the header record. The
/// record envelope carries its own version (`PROTOCOL.md` §8); this one
/// changes only when the journal's entry payloads do.
pub const JOURNAL_VERSION: u32 = 2;

/// The identity of a run. A journal may only resume a run whose header
/// matches field-for-field; anything else means the journal belongs to a
/// different experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Journal format version (see [`JOURNAL_VERSION`]).
    pub version: u32,
    /// FNV-1a hash over the promising subspace's rates (see
    /// [`subspace_hash`]).
    pub subspace_hash: u64,
    /// FNV-1a hash over the model and the solver (see [`inputs_hash`]).
    pub inputs_hash: u64,
    /// The pruning objective, serialized as canonical JSON.
    pub objective: String,
    /// The solver seed.
    pub seed: u64,
    /// The run mode (`Baseline`, `Composability`, ...).
    pub mode: String,
}

/// One journal entry after the header.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// The header entry (only valid as the first entry).
    Header(JournalHeader),
    /// The trained full model and its test accuracy.
    FullModel {
        /// Test accuracy of the trained full model.
        accuracy: f64,
        /// Full-model weights under scope `net/`.
        checkpoint: Checkpoint,
    },
    /// One pre-trained tuning block.
    Block(PretrainedBlock),
    /// One configuration evaluation (success or recorded failure).
    Eval(EvalRecord),
    /// One proposal round that appended configurations to the evaluation
    /// universe. The default `fixed` explorer appends none and so never
    /// writes these (`--explorer taylor|bandit` do); a resumed run replays
    /// them to verify the live explorer re-proposes the identical
    /// trajectory.
    Proposal(ProposalRecord),
}

/// Deterministic identity hash of a promising subspace: FNV-1a over every
/// configuration's rates in order. Two subspaces hash equal iff they
/// contain the same rates in the same order.
pub fn subspace_hash(subspace: &[PruneConfig]) -> u64 {
    let mut bytes = Vec::new();
    for config in subspace {
        bytes.extend_from_slice(config.rates());
        bytes.push(0xff);
    }
    fnv1a64(&bytes)
}

/// Deterministic identity hash of what a run trains with: FNV-1a over the
/// model's prototxt and the solver's canonical JSON with `num_workers`
/// zeroed (it only sets how many configurations a round proposes). A
/// journal recorded under another model, step count, learning rate or
/// dataset hashes differently, so its records never mix into this run.
pub fn inputs_hash(model: &ModelIr, solver: &SolverConfig) -> u64 {
    let solver = SolverConfig {
        num_workers: 0,
        ..solver.clone()
    };
    let mut bytes = model.to_prototxt().into_bytes();
    bytes.extend(serde_json::to_vec(&solver).expect("a solver serializes"));
    fnv1a64(&bytes)
}

/// Everything a journal already knows about a run: replayed units of work,
/// keyed for the phase supervisors.
#[derive(Debug, Default)]
pub struct Replay {
    /// The trained full model, when journaled.
    pub full: Option<(Checkpoint, f64)>,
    /// Pre-trained blocks by block key.
    pub blocks: BTreeMap<String, PretrainedBlock>,
    /// Completed evaluations by config index.
    pub evals: BTreeMap<usize, EvalRecord>,
    /// Proposal rounds that appended configurations, in round order
    /// (empty for fixed-explorer runs).
    pub proposals: Vec<ProposalRecord>,
    /// Whether a torn final record was dropped during replay.
    pub truncated_tail: bool,
    /// Whether mid-file corruption forced the journal into quarantine
    /// and a rebuild from the intact prefix (see [`crate::recovery`]).
    pub quarantined: bool,
}

impl Replay {
    /// Total replayed work units.
    pub fn len(&self) -> usize {
        usize::from(self.full.is_some())
            + self.blocks.len()
            + self.evals.len()
            + self.proposals.len()
    }

    /// Whether nothing was replayed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A held single-writer lock on a journal path. Dropping it removes the
/// lock file.
#[derive(Debug)]
struct JournalLock {
    path: PathBuf,
}

impl JournalLock {
    /// Takes the `<journal>.lock` file exclusively, or fails with a
    /// `journal is locked` error when another *live* writer holds it. A
    /// lock left behind by a dead process (pid no longer present) is
    /// stale and is silently replaced.
    fn acquire(journal_path: &Path) -> Result<JournalLock> {
        let mut name = journal_path.file_name().unwrap_or_default().to_os_string();
        name.push(".lock");
        let path = journal_path.with_file_name(name);
        // Bounded retry: between detecting a stale lock and re-creating,
        // another writer may slip in; just re-examine.
        for _ in 0..16 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    let _ = write!(file, "{}", std::process::id());
                    let _ = file.flush();
                    return Ok(JournalLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid_alive(pid) => {
                            return Err(journal_err(
                                journal_path,
                                format!(
                                    "journal is locked by running process {pid} \
                                     (`{}`); a journal has exactly one writer",
                                    path.display()
                                ),
                            ));
                        }
                        // Dead pid or unreadable/partial lock file: stale.
                        _ => {
                            wootz_obs::event("journal.stale_lock_taken")
                                .field("path", path.display().to_string())
                                .field("dead_pid", holder.unwrap_or(0) as usize)
                                .emit();
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => {
                    return Err(journal_err(
                        journal_path,
                        format!("cannot create lock `{}`: {e}", path.display()),
                    ))
                }
            }
        }
        Err(journal_err(
            journal_path,
            format!("lock `{}` is being contended; giving up", path.display()),
        ))
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// An open, append-only journal. Holds the single-writer lock for the
/// journal path until dropped.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    _lock: JournalLock,
}

impl Journal {
    /// Creates (truncating) a journal at `path` and writes the header
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] on I/O or serialization failure, or
    /// when another live process holds the journal's writer lock.
    pub fn create(path: impl AsRef<Path>, header: &JournalHeader) -> Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let lock = JournalLock::acquire(&path)?;
        let file =
            File::create(&path).map_err(|e| journal_err(&path, format!("cannot create: {e}")))?;
        let mut journal = Journal {
            file,
            path,
            _lock: lock,
        };
        journal.append_at(
            &JournalEntry::Header(header.clone()),
            kill_site::JOURNAL_HEADER,
        )?;
        wootz_obs::event("journal.created")
            .field("path", journal.path.display().to_string())
            .emit();
        Ok(journal)
    }

    /// Opens an existing journal for resuming: verifies its header against
    /// `expect`, replays every intact entry, truncates a torn final record,
    /// quarantines and rebuilds a mid-file-corrupt journal, and returns
    /// the journal positioned for appending.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] when the file is unreadable or not
    /// a record artifact (left untouched), the header mismatches, or
    /// another live process holds the journal's writer lock. Corruption
    /// is *not* an error here: the damaged file moves to `quarantine/`
    /// (with a report) and the run resumes from the intact prefix,
    /// flagged in [`Replay::quarantined`].
    pub fn resume(path: impl AsRef<Path>, expect: &JournalHeader) -> Result<(Journal, Replay)> {
        let path = path.as_ref().to_path_buf();
        let lock = JournalLock::acquire(&path)?;
        let scan = scan_journal(&path)?;
        // A header that *parsed* but belongs to a different run is a
        // hard error even when later bytes are damaged: rebuilding would
        // overwrite someone else's journal.
        if let Some(found) = &scan.header {
            check_header(&path, found, expect)?;
        }
        let mut replay = replay_from(scan.entries.iter());
        replay.truncated_tail = scan.truncated_tail;
        let mut rebuilt = false;
        if let Some(damage) = &scan.damage {
            // Graceful degradation: move the damaged file aside, rebuild
            // from the intact prefix, resume. `check_header` above
            // guarantees `expect` equals the scanned header when one
            // survived; when the header itself was the casualty the
            // rebuild starts from `expect`.
            let kept = scan.entries.len() + usize::from(scan.header.is_some());
            recovery::quarantine_journal(&path, damage, kept, scan.keep_bytes)?;
            rebuild_journal(&path, expect, &scan.entries)?;
            replay.quarantined = true;
            rebuilt = true;
        } else if scan.header.is_none() {
            // Nothing intact survives: the creating write itself was the
            // casualty (a kill mid-header leaves a torn or empty file).
            // This resume is semantically the create — start the journal
            // over under the held lock.
            rebuild_journal(&path, expect, &[])?;
            rebuilt = true;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| journal_err(&path, format!("cannot reopen for append: {e}")))?;
        if replay.truncated_tail {
            recovery::note_truncated_tail();
            wootz_obs::event("journal.truncated_tail")
                .field("path", path.display().to_string())
                .field("kept_bytes", scan.keep_bytes as usize)
                .emit();
        }
        if replay.truncated_tail && !rebuilt {
            // Drop the torn bytes so the next append starts a clean record.
            file.set_len(scan.keep_bytes)
                .map_err(|e| journal_err(&path, format!("cannot truncate torn tail: {e}")))?;
        }
        wootz_obs::event("journal.resumed")
            .field("path", path.display().to_string())
            .field("evals", replay.evals.len())
            .field("blocks", replay.blocks.len())
            .field("full_model", usize::from(replay.full.is_some()))
            .emit();
        Ok((
            Journal {
                file,
                path,
                _lock: lock,
            },
            replay,
        ))
    }

    /// Appends one entry as a single checksummed record and flushes it to
    /// the OS.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] on I/O or serialization failure.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<()> {
        self.append_at(entry, kill_site::JOURNAL_APPEND)
    }

    /// The append path with its kill point named: `Journal::create` runs
    /// it as `journal.header`, every later entry as `journal.append`.
    fn append_at(&mut self, entry: &JournalEntry, site: &'static str) -> Result<()> {
        let record = encode_entry_record(&self.path, entry)?;
        if chaos::kill_point(site) {
            chaos::torn_write_and_die(site, &mut self.file, &record);
        }
        self.file
            .write_all(&record)
            .and_then(|()| self.file.flush())
            .map_err(|e| journal_err(&self.path, format!("append failed: {e}")))?;
        wootz_obs::counter("journal.appends").incr();
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads a journal without opening it for writing — header plus replay.
///
/// Unlike [`Journal::resume`], a read-only consumer cannot rebuild, so
/// mid-file corruption is a hard error here (the resume path is the one
/// licensed to quarantine).
///
/// # Errors
///
/// Returns [`CoreError::Journal`] on unreadable files, files that are not
/// record artifacts, a missing or malformed header, or mid-file
/// corruption.
pub fn read_journal(path: impl AsRef<Path>) -> Result<(JournalHeader, Replay)> {
    let path = path.as_ref();
    let scan = scan_journal(path)?;
    if let Some(damage) = &scan.damage {
        return Err(journal_err(
            path,
            format!("corrupt entry at byte {}: {}", damage.offset, damage.error),
        ));
    }
    let header = scan
        .header
        .clone()
        .ok_or_else(|| journal_err(path, "journal is empty".to_string()))?;
    let mut replay = replay_from(scan.entries.iter());
    replay.truncated_tail = scan.truncated_tail;
    Ok((header, replay))
}

fn journal_err(path: &Path, detail: String) -> CoreError {
    CoreError::Journal(format!("`{}`: {detail}", path.display()))
}

fn check_header(path: &Path, found: &JournalHeader, expect: &JournalHeader) -> Result<()> {
    if found.version != expect.version {
        return Err(journal_err(
            path,
            format!(
                "version mismatch: journal has {}, this build writes {}",
                found.version, expect.version
            ),
        ));
    }
    if found.subspace_hash != expect.subspace_hash {
        return Err(journal_err(
            path,
            format!(
                "subspace mismatch: journal was recorded for subspace {:#018x}, this run explores {:#018x}",
                found.subspace_hash, expect.subspace_hash
            ),
        ));
    }
    if found.inputs_hash != expect.inputs_hash {
        return Err(journal_err(
            path,
            format!(
                "model or solver mismatch: journal was recorded for model and solver {:#018x}, this run trains with {:#018x}",
                found.inputs_hash, expect.inputs_hash
            ),
        ));
    }
    if found.objective != expect.objective {
        return Err(journal_err(
            path,
            "objective mismatch: the journal belongs to a run with a different pruning objective"
                .to_string(),
        ));
    }
    if found.seed != expect.seed {
        return Err(journal_err(
            path,
            format!(
                "seed mismatch: journal seed {}, this run's seed {}",
                found.seed, expect.seed
            ),
        ));
    }
    if found.mode != expect.mode {
        return Err(journal_err(
            path,
            format!(
                "mode mismatch: journal mode `{}`, this run's mode `{}`",
                found.mode, expect.mode
            ),
        ));
    }
    Ok(())
}

/// The JSON form of the journal's eval and proposal records:
/// `{"Eval":…}` and `{"Proposal":…}`.
#[derive(Serialize, Deserialize)]
enum JsonEntry {
    Eval(EvalRecord),
    Proposal(ProposalRecord),
}

/// Encodes one entry as a complete record (envelope + payload), per
/// `PROTOCOL.md` §8: header/full-model/block payloads are flat wire
/// encodings; evaluations and proposals ride as their canonical JSON
/// document.
fn encode_entry_record(path: &Path, entry: &JournalEntry) -> Result<Vec<u8>> {
    let encode_err = |e: WireError| journal_err(path, format!("cannot encode entry: {e}"));
    let json = |entry: JsonEntry| {
        serde_json::to_string(&entry)
            .map(String::into_bytes)
            .map_err(|e| journal_err(path, format!("cannot serialize entry: {e}")))
    };
    let (record_type, payload) = match entry {
        JournalEntry::Header(h) => {
            let mut p = Vec::new();
            h.version.wire_write(&mut p).map_err(encode_err)?;
            h.subspace_hash.wire_write(&mut p).map_err(encode_err)?;
            h.inputs_hash.wire_write(&mut p).map_err(encode_err)?;
            h.seed.wire_write(&mut p).map_err(encode_err)?;
            h.objective.wire_write(&mut p).map_err(encode_err)?;
            h.mode.wire_write(&mut p).map_err(encode_err)?;
            (record_type::JOURNAL_HEADER, p)
        }
        JournalEntry::FullModel {
            accuracy,
            checkpoint,
        } => {
            let mut p = Vec::with_capacity(8 + checkpoint.wire_size());
            accuracy.wire_write(&mut p).map_err(encode_err)?;
            checkpoint.wire_encode(&mut p);
            (record_type::JOURNAL_FULL_MODEL, p)
        }
        JournalEntry::Block(block) => (record_type::JOURNAL_BLOCK, block.wire_to_vec()),
        JournalEntry::Eval(record) => (
            record_type::JOURNAL_EVAL,
            json(JsonEntry::Eval(record.clone()))?,
        ),
        JournalEntry::Proposal(record) => (
            record_type::JOURNAL_PROPOSAL,
            json(JsonEntry::Proposal(record.clone()))?,
        ),
    };
    let mut record = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame(&mut record, record_type, &payload).map_err(encode_err)?;
    Ok(record)
}

/// Decodes one verified record back into an entry. Errors are strings:
/// a CRC-valid record that does not parse means a writer bug or targeted
/// tampering, and the scanner treats it as corruption.
fn decode_entry_record(frame: &Frame) -> std::result::Result<JournalEntry, String> {
    let payload = &frame.payload;
    let json = |what: &str| -> std::result::Result<JsonEntry, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("{what} record is not UTF-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("{what} record does not parse: {e}"))
    };
    if frame.msg_type == record_type::JOURNAL_EVAL {
        return match json("eval")? {
            JsonEntry::Eval(record) => Ok(JournalEntry::Eval(record)),
            JsonEntry::Proposal(_) => Err("eval record holds a non-eval entry".to_string()),
        };
    }
    if frame.msg_type == record_type::JOURNAL_PROPOSAL {
        return match json("proposal")? {
            JsonEntry::Proposal(record) => Ok(JournalEntry::Proposal(record)),
            JsonEntry::Eval(_) => Err("proposal record holds a non-proposal entry".to_string()),
        };
    }
    let mut r = WireReader::new(&payload[..], payload.len() as u64, Limits::ARTIFACT);
    let entry = match frame.msg_type {
        record_type::JOURNAL_HEADER => {
            let version = r.u32("journal version").map_err(|e| e.to_string())?;
            let subspace_hash = r.u64("subspace hash").map_err(|e| e.to_string())?;
            // A version-1 header has no inputs hash; it still decodes, so
            // `check_header` refuses it by version instead of as damage.
            let inputs_hash = match version {
                1 => 0,
                _ => r.u64("inputs hash").map_err(|e| e.to_string())?,
            };
            JournalEntry::Header(JournalHeader {
                version,
                subspace_hash,
                inputs_hash,
                seed: r.u64("seed").map_err(|e| e.to_string())?,
                objective: r.string("objective").map_err(|e| e.to_string())?,
                mode: r.string("mode").map_err(|e| e.to_string())?,
            })
        }
        record_type::JOURNAL_FULL_MODEL => JournalEntry::FullModel {
            accuracy: r.f64("accuracy").map_err(|e| e.to_string())?,
            checkpoint: Checkpoint::wire_decode(&mut r).map_err(|e| e.to_string())?,
        },
        record_type::JOURNAL_BLOCK => {
            JournalEntry::Block(PretrainedBlock::wire_read(&mut r).map_err(|e| e.to_string())?)
        }
        other => return Err(format!("unknown journal record type {other:#06x}")),
    };
    r.expect_consumed().map_err(|e| e.to_string())?;
    Ok(entry)
}

/// The result of scanning a journal file front to back.
#[derive(Debug, Default)]
struct JournalScan {
    /// The header, when the first entry survived.
    header: Option<JournalHeader>,
    /// Intact non-header entries, in file order.
    entries: Vec<JournalEntry>,
    /// Byte length of the intact prefix (safe truncation point).
    keep_bytes: u64,
    /// The file ends in a torn record (crash mid-append).
    truncated_tail: bool,
    /// Mid-file corruption: everything from `damage.offset` on is
    /// untrustworthy.
    damage: Option<RecordDamage>,
}

/// Parses the whole journal: the records [`scan_records`] vouches for,
/// decoded in order up to the first that does not decode. Damage is
/// *classified*, not errored — only unreadable files, files that are not
/// record artifacts, and structural misuse (a first entry that is not a
/// header, a second header) fail.
fn scan_journal(path: &Path) -> Result<JournalScan> {
    let bytes = std::fs::read(path).map_err(|e| journal_err(path, format!("cannot read: {e}")))?;
    if !is_record_artifact(&bytes) {
        return Err(journal_err(
            path,
            "not a record artifact (no `WOTZ` magic); journals are binary wire records \
             (PROTOCOL.md §8)"
                .to_string(),
        ));
    }
    let records = scan_records(&bytes, &Limits::ARTIFACT);
    let mut scan = JournalScan {
        keep_bytes: records.intact_bytes,
        ..JournalScan::default()
    };
    match records.tail {
        RecordTail::Clean => {}
        RecordTail::Torn { .. } => scan.truncated_tail = true,
        RecordTail::Corrupt(damage) => scan.damage = Some(damage),
    }
    for (entry_no, record) in records.records.iter().enumerate() {
        let entry = match decode_entry_record(&record.frame) {
            Ok(entry) => entry,
            Err(error) => {
                scan.damage = Some(RecordDamage::at(record.offset, error));
                scan.keep_bytes = record.offset;
                scan.truncated_tail = false;
                break;
            }
        };
        match (entry_no, entry) {
            (0, JournalEntry::Header(h)) => scan.header = Some(h),
            (0, _) => {
                return Err(journal_err(
                    path,
                    "first entry is not a journal header".to_string(),
                ))
            }
            (_, JournalEntry::Header(_)) => {
                return Err(journal_err(
                    path,
                    format!("entry {}: unexpected second header", entry_no + 1),
                ))
            }
            (_, entry) => scan.entries.push(entry),
        }
    }
    Ok(scan)
}

/// Folds intact entries into the keyed replay the phase supervisors use.
fn replay_from<'a>(entries: impl Iterator<Item = &'a JournalEntry>) -> Replay {
    let mut replay = Replay::default();
    for entry in entries {
        match entry {
            JournalEntry::Header(_) => {}
            JournalEntry::FullModel {
                accuracy,
                checkpoint,
            } => replay.full = Some((checkpoint.clone(), *accuracy)),
            JournalEntry::Block(block) => {
                replay.blocks.insert(block.key.clone(), block.clone());
            }
            JournalEntry::Eval(record) => {
                replay.evals.insert(record.config_index(), record.clone());
            }
            JournalEntry::Proposal(record) => replay.proposals.push(record.clone()),
        }
    }
    replay
}

/// Rewrites `path` as a fresh binary journal: header record plus the
/// salvaged entries, fsynced before the rebuild is trusted.
fn rebuild_journal(path: &Path, header: &JournalHeader, entries: &[JournalEntry]) -> Result<()> {
    let mut file = File::create(path)
        .map_err(|e| journal_err(path, format!("cannot rebuild after quarantine: {e}")))?;
    let mut write = |entry: &JournalEntry| -> Result<()> {
        let record = encode_entry_record(path, entry)?;
        file.write_all(&record)
            .map_err(|e| journal_err(path, format!("rebuild write failed: {e}")))
    };
    write(&JournalEntry::Header(header.clone()))?;
    for entry in entries {
        write(entry)?;
    }
    file.sync_all()
        .map_err(|e| journal_err(path, format!("rebuild fsync failed: {e}")))?;
    wootz_obs::event("journal.rebuilt")
        .field("path", path.display().to_string())
        .field("entries", entries.len())
        .emit();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{EvalOutcome, EvalRecord};
    use wootz_wire::MAGIC;

    fn header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            subspace_hash: 0xabcd,
            inputs_hash: 0x5eed,
            objective: "{\"o\":1}".to_string(),
            seed: 7,
            mode: "Composability".to_string(),
        }
    }

    fn eval(i: usize) -> JournalEntry {
        JournalEntry::Eval(eval_record(i))
    }

    fn eval_record(i: usize) -> EvalRecord {
        EvalRecord::Done {
            config_index: i,
            outcome: EvalOutcome {
                model_size: 100 + i,
                flops: 5,
                accuracy: 0.5,
                cost: 1.0,
                log: None,
            },
            satisfies: i.is_multiple_of(2),
        }
    }

    /// One line of a pre-record NDJSON journal: `{"<tag>":<json>}`.
    fn ndjson_line(tag: &str, json: String) -> String {
        format!("{{\"{tag}\":{json}}}")
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wootz_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The first `len` bytes of `entry`'s record: what a writer killed
    /// mid-append leaves behind.
    fn torn_record(entry: &JournalEntry, len: usize) -> Vec<u8> {
        let record = encode_entry_record(Path::new("torn"), entry).unwrap();
        assert!(len < record.len());
        record[..len].to_vec()
    }

    #[test]
    fn write_then_resume_round_trips() {
        let path = tmp("roundtrip.ndjson");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&eval(0)).unwrap();
        j.append(&eval(3)).unwrap();
        j.append(&JournalEntry::Block(PretrainedBlock {
            key: "b0".to_string(),
            checkpoint: Checkpoint::new(),
            first_loss: 1.0,
            last_loss: 0.5,
            steps: 10,
        }))
        .unwrap();
        drop(j);
        let (j2, replay) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(replay.evals.len(), 2);
        assert_eq!(replay.evals[&3].config_index(), 3);
        assert_eq!(replay.blocks["b0"].steps, 10);
        assert!(!replay.truncated_tail);
        assert!(!replay.quarantined);
        drop(j2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_is_binary_records_with_clean_tail() {
        let path = tmp("binary.ndjson");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&eval(0)).unwrap();
        j.append(&JournalEntry::FullModel {
            accuracy: 0.75,
            checkpoint: Checkpoint::new(),
        })
        .unwrap();
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(&MAGIC));
        let scan = scan_records(&bytes, &Limits::ARTIFACT);
        assert!(scan.tail.is_clean());
        let types: Vec<u16> = scan.records.iter().map(|r| r.frame.msg_type).collect();
        assert_eq!(
            types,
            vec![
                record_type::JOURNAL_HEADER,
                record_type::JOURNAL_EVAL,
                record_type::JOURNAL_FULL_MODEL,
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn proposal_entries_round_trip_in_round_order() {
        let path = tmp("proposals.ndjson");
        let proposal = |round: usize| {
            JournalEntry::Proposal(ProposalRecord {
                round,
                explorer: "bandit".to_string(),
                base_index: round * 2,
                configs: vec![
                    PruneConfig::new(vec![30, 0]).unwrap(),
                    PruneConfig::new(vec![0, 50]).unwrap(),
                ],
            })
        };
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&proposal(0)).unwrap();
        j.append(&eval(0)).unwrap();
        j.append(&proposal(1)).unwrap();
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_records(&bytes, &Limits::ARTIFACT);
        let types: Vec<u16> = scan.records.iter().map(|r| r.frame.msg_type).collect();
        assert_eq!(
            types,
            vec![
                record_type::JOURNAL_HEADER,
                record_type::JOURNAL_PROPOSAL,
                record_type::JOURNAL_EVAL,
                record_type::JOURNAL_PROPOSAL,
            ]
        );
        let (j2, replay) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(replay.proposals.len(), 2);
        assert_eq!(replay.proposals[0].round, 0);
        assert_eq!(replay.proposals[1].round, 1);
        assert_eq!(replay.proposals[1].base_index, 2);
        assert_eq!(replay.proposals[0].configs[1].rates(), &[0, 50]);
        assert_eq!(replay.evals.len(), 1);
        drop(j2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated() {
        let path = tmp("torn.ndjson");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&eval(0)).unwrap();
        j.append(&eval(1)).unwrap();
        drop(j);
        // Simulate a kill mid-append: append half a record.
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn_record(&eval(2), HEADER_LEN + 10))
            .unwrap();
        drop(f);
        let (mut j2, replay) = Journal::resume(&path, &header()).unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.evals.len(), 2, "torn eval 2 dropped");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        // Appending after resume yields a parseable journal again.
        j2.append(&eval(2)).unwrap();
        drop(j2);
        let (_, replay) = read_journal(&path).unwrap();
        assert_eq!(replay.evals.len(), 3);
        assert!(!replay.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_binary_record_is_dropped_and_truncated() {
        let path = tmp("torn_record.ndjson");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&eval(0)).unwrap();
        j.append(&eval(1)).unwrap();
        drop(j);
        // Cut the final record short, as a kill mid-append would.
        let full = std::fs::read(&path).unwrap();
        let scan = scan_records(&full, &Limits::ARTIFACT);
        let last_start = scan.records.last().unwrap().offset;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(last_start + 9).unwrap();
        drop(f);
        let (mut j2, replay) = Journal::resume(&path, &header()).unwrap();
        assert!(replay.truncated_tail);
        assert!(!replay.quarantined);
        assert_eq!(replay.evals.len(), 1, "torn eval 1 dropped");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), last_start);
        j2.append(&eval(1)).unwrap();
        drop(j2);
        let (_, replay) = read_journal(&path).unwrap();
        assert_eq!(replay.evals.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_quarantines_and_resumes() {
        let dir = std::env::temp_dir().join("wootz_journal_quarantine");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("midfile.ndjson");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&eval(0)).unwrap();
        j.append(&eval(1)).unwrap();
        drop(j);
        // Flip one payload byte inside the *second* eval record: the
        // prefix (header + eval 0) stays intact.
        let mut bytes = std::fs::read(&path).unwrap();
        let scan = scan_records(&bytes, &Limits::ARTIFACT);
        let victim = scan.records[2].offset as usize + HEADER_LEN + 4;
        bytes[victim] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let (mut j2, replay) =
            Journal::resume(&path, &header()).expect("mid-file corruption must degrade, not abort");
        assert!(replay.quarantined, "quarantine flagged");
        assert!(!replay.truncated_tail);
        assert_eq!(replay.evals.len(), 1, "only the intact prefix replays");
        assert!(replay.evals.contains_key(&0));
        // The damaged original and its report are preserved as evidence.
        let qdir = dir.join(recovery::QUARANTINE_DIR);
        assert_eq!(std::fs::read(qdir.join("midfile.ndjson")).unwrap(), bytes);
        let report = std::fs::read_to_string(qdir.join("midfile.ndjson.report.json")).unwrap();
        assert!(report.contains("crc"), "{report}");
        // The rebuilt journal keeps working: append, drop, re-read.
        j2.append(&eval(1)).unwrap();
        j2.append(&eval(2)).unwrap();
        drop(j2);
        let (_, replay) = read_journal(&path).unwrap();
        assert_eq!(replay.evals.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_or_empty_header_resumes_as_create() {
        let path = tmp("torn_header.ndjson");
        // An empty file: the writer died between create and header write.
        std::fs::write(&path, b"").unwrap();
        let (j, replay) = Journal::resume(&path, &header()).unwrap();
        assert!(replay.is_empty() && !replay.truncated_tail);
        drop(j);
        // A torn header record: the writer died mid-header-write.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(9).unwrap();
        drop(f);
        let (mut j, replay) = Journal::resume(&path, &header()).unwrap();
        assert!(replay.truncated_tail && replay.is_empty());
        j.append(&eval(0)).unwrap();
        drop(j);
        let (_, replay) = read_journal(&path).unwrap();
        assert_eq!(replay.evals.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatches_are_rejected_with_detail() {
        let path = tmp("mismatch.ndjson");
        let j = Journal::create(&path, &header()).unwrap();
        drop(j);
        let mut other = header();
        other.subspace_hash = 0x1234;
        let err = Journal::resume(&path, &other).unwrap_err().to_string();
        assert!(err.contains("subspace mismatch"), "{err}");
        let mut other = header();
        other.inputs_hash = 0x5eee;
        let err = Journal::resume(&path, &other).unwrap_err().to_string();
        assert!(err.contains("solver mismatch"), "{err}");
        let mut other = header();
        other.seed = 8;
        let err = Journal::resume(&path, &other).unwrap_err().to_string();
        assert!(err.contains("seed mismatch"), "{err}");
        let mut other = header();
        other.mode = "Baseline".to_string();
        let err = Journal::resume(&path, &other).unwrap_err().to_string();
        assert!(err.contains("mode mismatch"), "{err}");
        // A version-1 header (no inputs hash) is refused by its version.
        let h = header();
        let mut v1 = Vec::new();
        1u32.wire_write(&mut v1).unwrap();
        h.subspace_hash.wire_write(&mut v1).unwrap();
        h.seed.wire_write(&mut v1).unwrap();
        h.objective.wire_write(&mut v1).unwrap();
        h.mode.wire_write(&mut v1).unwrap();
        let mut record = Vec::new();
        write_frame(&mut record, record_type::JOURNAL_HEADER, &v1).unwrap();
        std::fs::write(&path, record).unwrap();
        let err = Journal::resume(&path, &h).unwrap_err().to_string();
        assert!(err.contains("version mismatch: journal has 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_headerless_journals_are_errors() {
        let err = read_journal("/nonexistent/run.ndjson")
            .unwrap_err()
            .to_string();
        assert!(err.contains("cannot read"), "{err}");
        let path = tmp("headerless.journal");
        std::fs::write(&path, encode_entry_record(&path, &eval(0)).unwrap()).unwrap();
        let err = read_journal(&path).unwrap_err().to_string();
        assert!(err.contains("not a journal header"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Writes `text` to `dir/name` and requires both journal readers to
    /// refuse it with an error naming the path, leaving the file
    /// byte-for-byte untouched and nothing quarantined.
    fn assert_journal_refused_untouched(dir: &str, name: &str, text: &str) {
        let dir = std::env::temp_dir().join(dir);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let errs = [
            Journal::resume(&path, &header())
                .map(drop)
                .unwrap_err()
                .to_string(),
            read_journal(&path).map(drop).unwrap_err().to_string(),
        ];
        for err in errs {
            assert!(err.contains(&path.display().to_string()), "{err}");
            assert!(err.contains("not a record artifact"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
            assert!(!dir.join(recovery::QUARANTINE_DIR).exists(), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An NDJSON journal from before the record format is refused by
    /// `resume` and `read_journal` alike: it is neither replayed nor
    /// continued in binary, and stays as it was.
    #[test]
    fn legacy_ndjson_journal_is_refused_untouched() {
        let ndjson = format!(
            "{}\n{}\n",
            ndjson_line("Header", serde_json::to_string(&header()).unwrap()),
            ndjson_line("Eval", serde_json::to_string(&eval_record(0)).unwrap())
        );
        assert_journal_refused_untouched("wootz_journal_ndjson", "run.ndjson", &ndjson);
    }

    /// A corrupt line in an NDJSON journal no longer quarantines the
    /// file: the whole journal is refused before any entry is read.
    #[test]
    fn ndjson_journal_with_a_corrupt_line_is_refused_untouched() {
        let ndjson = format!(
            "{}\n{{\"Eval\": garbage}}\n{}\n",
            ndjson_line("Header", serde_json::to_string(&header()).unwrap()),
            ndjson_line("Eval", serde_json::to_string(&eval_record(1)).unwrap())
        );
        assert_journal_refused_untouched("wootz_journal_ndjson_corrupt", "run.ndjson", &ndjson);
    }

    #[test]
    fn second_writer_on_same_path_is_rejected() {
        let path = tmp("two_writers.ndjson");
        std::fs::remove_file(path.with_file_name("two_writers.ndjson.lock")).ok();
        let j1 = Journal::create(&path, &header()).unwrap();
        // A second writer in this (live) process: create and resume both
        // refuse while the lock is held.
        let err = Journal::create(&path, &header()).unwrap_err().to_string();
        assert!(
            err.contains("journal is locked by running process"),
            "{err}"
        );
        let err = Journal::resume(&path, &header()).unwrap_err().to_string();
        assert!(err.contains("journal is locked"), "{err}");
        drop(j1);
        // Lock released on drop: the next writer may proceed.
        let (_j2, replay) = Journal::resume(&path, &header()).unwrap();
        assert!(replay.is_empty());
        drop(_j2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_held_by_live_foreign_process_is_respected() {
        let path = tmp("foreign_lock.ndjson");
        let j = Journal::create(&path, &header()).unwrap();
        drop(j);
        // Pid 1 is always alive (init); pretend it owns the lock.
        let lock = path.with_file_name("foreign_lock.ndjson.lock");
        std::fs::write(&lock, "1").unwrap();
        let err = Journal::resume(&path, &header()).unwrap_err().to_string();
        assert!(err.contains("locked by running process 1"), "{err}");
        std::fs::remove_file(&lock).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_lock_of_dead_process_is_taken_over() {
        let path = tmp("stale_lock.ndjson");
        let j = Journal::create(&path, &header()).unwrap();
        drop(j);
        let lock = path.with_file_name("stale_lock.ndjson.lock");
        // A pid that cannot exist (beyond PID_MAX_LIMIT): the writer died.
        std::fs::write(&lock, "4294967294").unwrap();
        let (j2, _) = Journal::resume(&path, &header())
            .expect("stale lock of a dead writer must be reclaimable");
        drop(j2);
        assert!(!lock.exists(), "lock removed on drop");
        // Garbage lock contents are stale too.
        std::fs::write(&lock, "not-a-pid").unwrap();
        let (j3, _) = Journal::resume(&path, &header()).unwrap();
        drop(j3);
        std::fs::remove_file(&path).ok();
    }

    /// A *different OS process* is killed mid-append, leaving a torn final
    /// record and a stale lock; the next writer must truncate the tear, take
    /// over the lock, and resume cleanly.
    #[test]
    fn torn_line_written_by_another_process_is_tolerated() {
        let path = tmp("torn_mp.ndjson");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&eval(0)).unwrap();
        drop(j);
        let good_len = std::fs::metadata(&path).unwrap().len();
        // The "dying writer": a real child process appends half a record
        // (its kill cut the write short) and leaves its own lock behind.
        let lock = path.with_file_name("torn_mp.ndjson.lock");
        let octal: String = torn_record(&eval(1), HEADER_LEN + 10)
            .iter()
            .map(|b| format!("\\{b:03o}"))
            .collect();
        let status = std::process::Command::new("sh")
            .arg("-c")
            .arg(format!(
                "printf '{octal}' >> '{}'; printf '4294967294' > '{}'",
                path.display(),
                lock.display()
            ))
            .status()
            .expect("spawn sh");
        assert!(status.success());
        let (j2, replay) = Journal::resume(&path, &header()).unwrap();
        assert!(replay.truncated_tail, "foreign torn tail detected");
        assert_eq!(replay.evals.len(), 1, "only the intact entry replays");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "torn bytes truncated away"
        );
        drop(j2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn subspace_hash_tracks_rates_and_order() {
        let a = vec![
            PruneConfig::new(vec![30, 50]).unwrap(),
            PruneConfig::new(vec![0, 70]).unwrap(),
        ];
        let b = vec![
            PruneConfig::new(vec![0, 70]).unwrap(),
            PruneConfig::new(vec![30, 50]).unwrap(),
        ];
        assert_eq!(subspace_hash(&a), subspace_hash(&a));
        assert_ne!(subspace_hash(&a), subspace_hash(&b), "order matters");
        assert_ne!(subspace_hash(&a), subspace_hash(&a[..1]), "length matters");
    }
}
