//! On-disk records: the frame envelope reused as a durable artifact
//! format.
//!
//! A *record* is exactly one frame ([`crate::write_frame`]) written to a
//! file instead of a socket: `magic | version | record-type | len | crc |
//! payload`. Appending records to a file yields an artifact that is
//! self-delimiting (no sidecar index), self-identifying (every artifact
//! starts with the magic `WOTZ`; a file that does not is no record
//! artifact, see [`is_record_artifact`]), and verifiable byte-by-byte
//! (every payload is covered by the envelope CRC).
//!
//! The interesting part of a durable format is not the happy path but
//! what a reader can say about a damaged file. [`scan_records`] walks an
//! artifact from the front and stops at the first byte it cannot vouch
//! for, classifying the remainder:
//!
//! * [`RecordTail::Clean`] — the file ends exactly on a record boundary.
//! * [`RecordTail::Torn`] — the file ends *inside* a record (header or
//!   payload cut short). This is the signature of a crash mid-append:
//!   the intact prefix is trustworthy and the tear may simply be
//!   truncated away.
//! * [`RecordTail::Corrupt`] — the bytes at the damage offset are the
//!   wrong *content*, not the wrong *length*: bad magic, an impossible
//!   declared length, or a payload whose CRC disagrees with its header.
//!   Bytes after this point cannot be trusted (resynchronization could
//!   mask an overwritten region), so callers [`quarantine`] the file and
//!   rebuild from the intact prefix.
//!
//! Single-record artifacts (checkpoints, block-store entries) are read
//! through [`read_single_record`], which folds every way such a file can
//! be wrong into one [`RecordDamage`].
//!
//! Record-type codes live in [`record_type`] and share the 16-bit code
//! space with the network message catalog (`wootz-cluster::protocol`);
//! disk records use the `0x4A__`/`0x43__` blocks so a stray artifact fed
//! to the TCP transport (or vice versa) fails loudly as an unknown type.
//! `PROTOCOL.md` §8 ("On-disk records") is the normative spec.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::codec::{Limits, WireReader};
use crate::error::{WireError, WireResult};
use crate::frame::{read_frame, Frame, MAGIC};

/// Record-type codes for durable artifacts. The payload encodings are
/// owned by the crates that write them (`wootz-core::journal`,
/// `wootz-store`); this catalog only reserves the codes so every
/// on-disk record type is enumerable in one place.
pub mod record_type {
    /// Run-journal header: run identity (version, subspace hash,
    /// objective, seed, mode). Always the first record of a journal.
    pub const JOURNAL_HEADER: u16 = 0x4A01;
    /// Run-journal entry: the trained full model (accuracy + weights).
    pub const JOURNAL_FULL_MODEL: u16 = 0x4A02;
    /// Run-journal entry: one pre-trained tuning block.
    pub const JOURNAL_BLOCK: u16 = 0x4A03;
    /// Run-journal entry: one configuration evaluation, carried as the
    /// canonical JSON document.
    pub const JOURNAL_EVAL: u16 = 0x4A04;
    /// Run-journal entry: one adaptive-explorer proposal round (round
    /// index, strategy name, proposed configurations), carried as the
    /// canonical JSON document like [`JOURNAL_EVAL`].
    pub const JOURNAL_PROPOSAL: u16 = 0x4A06;
    /// Reserved: the stand-alone checkpoint file (content hash + named
    /// tensors), which nothing writes any more.
    pub const CHECKPOINT: u16 = 0x4301;
    /// Block-store entry: one cached pre-trained tuning block, keyed by
    /// `(structure hash, dataset id, solver hash)` — the cross-run reuse
    /// unit served by `wootz serve` (`SERVING.md`).
    pub const STORE_BLOCK: u16 = 0x4A05;
    /// Block-store entry: one cached trained full model (the teacher),
    /// keyed by `(model structure hash, dataset id, training hash)` so a
    /// job whose full model is already known skips training it.
    pub const STORE_TEACHER: u16 = 0x4A07;

    /// Every record-type code with its `PROTOCOL.md` §8 name, in the
    /// order of that table (a test pins the two against each other).
    pub const CATALOG: &[(u16, &str)] = &[
        (JOURNAL_HEADER, "journal-header"),
        (JOURNAL_FULL_MODEL, "journal-full-model"),
        (JOURNAL_BLOCK, "journal-block"),
        (JOURNAL_EVAL, "journal-eval"),
        (JOURNAL_PROPOSAL, "journal-proposal"),
        (CHECKPOINT, "checkpoint"),
        (STORE_BLOCK, "store-block"),
        (STORE_TEACHER, "store-teacher"),
    ];
}

impl Limits {
    /// Decode bounds for on-disk artifacts: checkpoints inline whole
    /// models, so records are allowed far larger payloads than network
    /// frames (1 GiB / 16 M elements) while still refusing to allocate
    /// on a hostile declared length.
    pub const ARTIFACT: Limits = Limits {
        max_frame: 1024 * 1024 * 1024,
        max_items: 16 * 1024 * 1024,
    };
}

/// Where and why an artifact stopped being trustworthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordDamage {
    /// Byte offset of the damaged record (= intact prefix length).
    pub offset: u64,
    /// Human-readable decode error at the damage point.
    pub error: String,
    /// The CRC the envelope declared, when the damage is a checksum
    /// mismatch.
    pub crc_expected: Option<u32>,
    /// The CRC computed over the payload actually on disk.
    pub crc_found: Option<u32>,
}

impl RecordDamage {
    /// Damage without checksum evidence: a record whose envelope verified
    /// but whose content is wrong, or a file of the wrong shape.
    pub fn at(offset: u64, error: impl Into<String>) -> RecordDamage {
        RecordDamage {
            offset,
            error: error.into(),
            crc_expected: None,
            crc_found: None,
        }
    }
}

impl fmt::Display for RecordDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt record at byte {}: {}", self.offset, self.error)
    }
}

/// How an artifact ends, as judged by [`scan_records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordTail {
    /// The last byte of the file is the last byte of a record.
    Clean,
    /// The file ends mid-record (crash during append). `offset` is where
    /// the torn record starts — everything before it is intact.
    Torn {
        /// Byte offset of the first torn byte (= intact prefix length).
        offset: u64,
    },
    /// A record is damaged in place (bit rot, overwrite, interleaved
    /// writer). Nothing at or after the damage offset can be trusted.
    Corrupt(RecordDamage),
}

impl RecordTail {
    /// Whether the artifact scanned damage-free.
    pub fn is_clean(&self) -> bool {
        matches!(self, RecordTail::Clean)
    }
}

/// One record recovered by [`scan_records`], with its file offset (useful
/// for reporting and for truncation decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordAt {
    /// Byte offset of the record's header in the artifact.
    pub offset: u64,
    /// The verified record (checksum already checked).
    pub frame: Frame,
}

/// The result of scanning an artifact: every intact record from the
/// front, plus a classification of how the file ends.
#[derive(Debug)]
pub struct RecordScan {
    /// Intact records, in file order.
    pub records: Vec<RecordAt>,
    /// How the byte stream ends.
    pub tail: RecordTail,
    /// Length of the intact prefix in bytes — the safe truncation point
    /// for a [`RecordTail::Torn`] artifact.
    pub intact_bytes: u64,
}

/// Scans `bytes` as a sequence of records, stopping at the first byte
/// that cannot be verified. Never fails: damage is *classified* (into
/// [`RecordScan::tail`]) rather than returned as an error, because the
/// caller's next move — truncate, quarantine, or proceed — depends on
/// the class, not on an error string.
pub fn scan_records(bytes: &[u8], limits: &Limits) -> RecordScan {
    let mut records = Vec::new();
    let mut offset = 0u64;
    let tail = loop {
        let rest = &bytes[offset as usize..];
        let mut cursor = rest;
        match read_frame(&mut cursor, limits) {
            Ok(frame) => {
                let consumed = (rest.len() - cursor.len()) as u64;
                records.push(RecordAt { offset, frame });
                offset += consumed;
            }
            Err(WireError::Closed) => break RecordTail::Clean,
            Err(WireError::Truncated { .. }) => break RecordTail::Torn { offset },
            Err(e) => {
                let mut damage = RecordDamage::at(offset, e.to_string());
                if let WireError::ChecksumMismatch { expected, found } = e {
                    damage.crc_expected = Some(expected);
                    damage.crc_found = Some(found);
                }
                break RecordTail::Corrupt(damage);
            }
        }
    };
    RecordScan {
        records,
        tail,
        intact_bytes: offset,
    }
}

/// Whether `bytes` can be a record artifact: empty, or starting with the
/// record magic (a file shorter than the magic must be a prefix of it —
/// a header torn mid-write). Anything else — a JSON document, an NDJSON
/// log, a stray file — is not one, and readers refuse it untouched.
pub fn is_record_artifact(bytes: &[u8]) -> bool {
    let n = bytes.len().min(MAGIC.len());
    bytes[..n] == MAGIC[..n]
}

/// Reads an artifact that must be exactly one record of `record_type`
/// with a clean tail, decoding its payload with `decode` under
/// [`Limits::ARTIFACT`] bounds; the payload must be consumed whole.
///
/// # Errors
///
/// Every way the file can be wrong — torn, corrupt, the wrong number or
/// type of records, a payload that does not decode — is one
/// [`RecordDamage`].
pub fn read_single_record<T>(
    bytes: &[u8],
    record_type: u16,
    decode: impl FnOnce(&mut WireReader<&[u8]>) -> WireResult<T>,
) -> Result<T, RecordDamage> {
    let scan = scan_records(bytes, &Limits::ARTIFACT);
    match scan.tail {
        RecordTail::Clean => {}
        RecordTail::Torn { offset } => {
            return Err(RecordDamage::at(offset, "record truncated (torn write)"))
        }
        RecordTail::Corrupt(damage) => return Err(damage),
    }
    let [record] = scan.records.as_slice() else {
        return Err(RecordDamage::at(
            0,
            format!("expected exactly one record, found {}", scan.records.len()),
        ));
    };
    if record.frame.msg_type != record_type {
        return Err(RecordDamage::at(
            0,
            format!(
                "record type {:#06x}, expected {record_type:#06x}",
                record.frame.msg_type
            ),
        ));
    }
    let payload = &record.frame.payload[..];
    let mut r = WireReader::new(payload, payload.len() as u64, Limits::ARTIFACT);
    decode(&mut r)
        .and_then(|value| r.expect_consumed().map(|()| value))
        .map_err(|e| RecordDamage::at(0, e.to_string()))
}

/// Directory (next to a damaged artifact) that [`quarantine`] moves it
/// into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Where a quarantined artifact and its report ended up.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// The damaged file's new home under `quarantine/`.
    pub artifact: PathBuf,
    /// The JSON report written next to it.
    pub report: PathBuf,
}

/// Moves a damaged artifact into `quarantine/` beside it and writes a
/// JSON report next to it: where the damage is, what it is, and how much
/// the caller salvaged (`kept_entries` records in `kept_bytes` bytes;
/// zero when nothing was). Nothing is deleted, and an earlier incident's
/// evidence is never overwritten: a repeated name takes the first free
/// `.1`, `.2`, … suffix. The artifact path is free afterwards for the
/// caller to rebuild. Tallies, counters and events are the caller's.
///
/// # Errors
///
/// Fails when the quarantine directory cannot be created or the artifact
/// cannot be moved; the damaged file is then left where it was. The
/// report is best-effort evidence: failing to write it does not undo a
/// quarantine that already happened.
pub fn quarantine(
    path: &Path,
    damage: &RecordDamage,
    kept_entries: usize,
    kept_bytes: u64,
) -> io::Result<Quarantined> {
    let qdir = path
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir).map_err(|e| {
        io::Error::new(e.kind(), format!("cannot create `{}`: {e}", qdir.display()))
    })?;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::other("artifact has no file name"))?
        .to_string_lossy()
        .into_owned();
    let (artifact, report) = (0..1000)
        .map(|i| {
            let qname = if i == 0 {
                name.clone()
            } else {
                format!("{name}.{i}")
            };
            (qdir.join(&qname), qdir.join(format!("{qname}.report.json")))
        })
        .find(|(a, r)| !a.exists() && !r.exists())
        .ok_or_else(|| io::Error::other("quarantine directory is full"))?;
    std::fs::rename(path, &artifact).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot move into `{}`: {e}", artifact.display()),
        )
    })?;
    let crc = |v: Option<u32>| v.map_or("null".to_string(), |c| c.to_string());
    let _ = std::fs::write(
        &report,
        format!(
            "{{\n  \"artifact\": {},\n  \"quarantined_as\": {},\n  \"damage_offset\": {},\n  \
             \"error\": {},\n  \"crc_expected\": {},\n  \"crc_found\": {},\n  \
             \"kept_entries\": {kept_entries},\n  \"kept_bytes\": {kept_bytes}\n}}\n",
            json_string(&path.display().to_string()),
            json_string(&artifact.display().to_string()),
            damage.offset,
            json_string(&damage.error),
            crc(damage.crc_expected),
            crc(damage.crc_found),
        ),
    );
    Ok(Quarantined { artifact, report })
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;

    fn two_records() -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, record_type::JOURNAL_HEADER, b"head").unwrap();
        write_frame(&mut buf, record_type::JOURNAL_EVAL, b"eval payload").unwrap();
        buf
    }

    #[test]
    fn clean_scan_returns_all_records() {
        let buf = two_records();
        let scan = scan_records(&buf, &Limits::ARTIFACT);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.tail, RecordTail::Clean);
        assert_eq!(scan.intact_bytes, buf.len() as u64);
        assert_eq!(scan.records[1].frame.payload, b"eval payload");
    }

    #[test]
    fn torn_tail_is_classified_with_intact_prefix() {
        let buf = two_records();
        let first_len = {
            let mut one = Vec::new();
            write_frame(&mut one, record_type::JOURNAL_HEADER, b"head").unwrap();
            one.len()
        };
        let cut = &buf[..buf.len() - 5];
        let scan = scan_records(cut, &Limits::ARTIFACT);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(
            scan.tail,
            RecordTail::Torn {
                offset: first_len as u64
            }
        );
        assert_eq!(scan.intact_bytes, first_len as u64);
    }

    #[test]
    fn flipped_payload_byte_is_corrupt_with_crcs() {
        let mut buf = two_records();
        let n = buf.len();
        buf[n - 3] ^= 0x40; // inside the second record's payload
        let scan = scan_records(&buf, &Limits::ARTIFACT);
        assert_eq!(scan.records.len(), 1);
        match scan.tail {
            RecordTail::Corrupt(RecordDamage {
                crc_expected: Some(e),
                crc_found: Some(f),
                ..
            }) => assert_ne!(e, f),
            other => panic!("expected checksum corruption, got {other:?}"),
        }
    }

    #[test]
    fn mid_file_magic_damage_is_corrupt_not_torn() {
        let mut buf = two_records();
        let first_len = scan_records(&two_records(), &Limits::ARTIFACT).records[1].offset;
        buf[first_len as usize] = b'X'; // wreck the second header's magic
        let scan = scan_records(&buf, &Limits::ARTIFACT);
        assert_eq!(scan.records.len(), 1);
        assert!(
            matches!(scan.tail, RecordTail::Corrupt(RecordDamage { offset, .. }) if offset == first_len),
            "{:?}",
            scan.tail
        );
    }

    #[test]
    fn only_magic_prefixed_bytes_are_record_artifacts() {
        assert!(is_record_artifact(b""));
        assert!(is_record_artifact(b"WO"), "a header torn inside the magic");
        assert!(is_record_artifact(&two_records()));
        assert!(!is_record_artifact(b"{\"entries\":{}}"));
        assert!(!is_record_artifact(b"Wx"));
    }

    #[test]
    fn single_record_reader_classifies_every_wrong_shape() {
        let one = |ty: u16, payload: &[u8]| {
            let mut buf = Vec::new();
            write_frame(&mut buf, ty, payload).unwrap();
            buf
        };
        let read =
            |bytes: &[u8]| read_single_record(bytes, record_type::CHECKPOINT, |r| r.u32("value"));
        let good = one(record_type::CHECKPOINT, &7u32.to_be_bytes());
        assert_eq!(read(&good), Ok(7));
        let err = |bytes: &[u8]| read(bytes).unwrap_err().to_string();
        assert!(err(&good[..good.len() - 1]).contains("torn write"));
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(read(&flipped).unwrap_err().crc_found.is_some());
        assert!(err(&two_records()).contains("exactly one record, found 2"));
        let wrong = one(record_type::STORE_BLOCK, &7u32.to_be_bytes());
        assert!(err(&wrong).contains("expected 0x4301"));
        let long = one(record_type::CHECKPOINT, &[0, 0, 0, 7, 0]);
        assert!(err(&long).contains("trailing"), "{}", err(&long));
    }

    #[test]
    fn quarantine_keeps_every_incident_and_escapes_its_report() {
        let dir =
            std::env::temp_dir().join(format!("wootz_wire_quarantine_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let victim = dir.join("artifact.bin");
        let damage = RecordDamage::at(9, "bad \"quote\" \\ and\nnewline");
        std::fs::write(&victim, b"first").unwrap();
        let q = quarantine(&victim, &damage, 2, 9).unwrap();
        std::fs::write(&victim, b"second").unwrap();
        let q2 = quarantine(&victim, &damage, 0, 0).unwrap();
        assert!(!victim.exists());
        assert_eq!(std::fs::read(&q.artifact).unwrap(), b"first");
        assert_eq!(std::fs::read(&q2.artifact).unwrap(), b"second");
        assert!(q2.artifact.ends_with("artifact.bin.1"));
        let report = std::fs::read_to_string(&q.report).unwrap();
        assert!(
            report.contains(r#""error": "bad \"quote\" \\ and\u000anewline""#),
            "{report}"
        );
        assert!(report.contains("\"kept_entries\": 2"), "{report}");
        assert!(report.contains("\"crc_found\": null"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
