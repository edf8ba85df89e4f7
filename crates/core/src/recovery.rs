//! Artifact recovery: quarantine, degradation tallies, and the
//! end-of-run durability summary.
//!
//! The journal scanner (`journal`) classifies a damaged artifact as
//! either *torn* (a crash cut the final record short — the intact prefix
//! is trustworthy, the tear is truncated away) or *corrupt* (bytes in
//! the middle of the file are wrong — nothing at or after the damage can
//! be trusted). This module implements the second, heavier response:
//! the damaged file is **moved aside** into a `quarantine/` directory
//! next to it, a structured report (offset, decode error, CRC
//! found/expected, how much was salvaged) is written beside it, and the
//! caller rebuilds a fresh artifact from the intact prefix. Nothing is
//! deleted: an operator can always inspect exactly which bytes were
//! given up on and why.
//!
//! Every degradation — truncated tails and quarantined artifacts — is
//! tallied process-wide so the CLI can print one summary line at the
//! end of a run ([`degradation_summary`]); the same numbers flow into
//! the metrics registry as `recovery.truncated_tails` /
//! `recovery.quarantined` counters and per-incident
//! `journal.quarantined` events (see `OBSERVABILITY.md`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{CoreError, Result};

/// Directory name (next to the damaged artifact) that quarantined files
/// are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// A mid-file damage classification, as produced by the journal scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactDamage {
    /// Byte offset of the first untrustworthy byte (= intact prefix
    /// length).
    pub offset: u64,
    /// Human-readable decode error at the damage point.
    pub error: String,
    /// The checksum the artifact declared, when the damage is a CRC
    /// mismatch.
    pub crc_expected: Option<u32>,
    /// The checksum computed over the bytes actually on disk.
    pub crc_found: Option<u32>,
}

/// The structured report written next to every quarantined artifact:
/// what was damaged, where, and how much of it was salvaged.
#[derive(Debug, serde::Serialize)]
struct QuarantineReport {
    artifact: String,
    quarantined_as: String,
    damage_offset: u64,
    error: String,
    crc_expected: Option<u32>,
    crc_found: Option<u32>,
    kept_entries: usize,
    kept_bytes: u64,
}

/// Where a quarantined artifact and its report ended up.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// The damaged file's new home under `quarantine/`.
    pub artifact: PathBuf,
    /// The structured JSON report written next to it.
    pub report: PathBuf,
}

static TRUNCATED_TAILS: AtomicUsize = AtomicUsize::new(0);
static QUARANTINED: AtomicUsize = AtomicUsize::new(0);

/// Records one torn-tail truncation (crash mid-append, tear dropped).
pub fn note_truncated_tail() {
    TRUNCATED_TAILS.fetch_add(1, Ordering::Relaxed);
    wootz_obs::counter("recovery.truncated_tails").incr();
}

/// Process-wide degradation tallies: `(truncated_tails, quarantined)`.
pub fn tallies() -> (usize, usize) {
    (
        TRUNCATED_TAILS.load(Ordering::Relaxed),
        QUARANTINED.load(Ordering::Relaxed),
    )
}

/// One stderr-ready line summarizing artifact degradation this process
/// saw, or `None` when every artifact was intact (the common case — the
/// summary only appears when there is something to say).
pub fn degradation_summary() -> Option<String> {
    let (torn, quarantined) = tallies();
    if torn == 0 && quarantined == 0 {
        return None;
    }
    Some(format!(
        "durability: {torn} torn tail{} truncated, {quarantined} artifact{} quarantined (see `{QUARANTINE_DIR}/` next to the journal)",
        if torn == 1 { "" } else { "s" },
        if quarantined == 1 { "" } else { "s" },
    ))
}

/// Moves a damaged artifact into `quarantine/` beside it and writes a
/// structured report. The artifact path is free afterwards for the
/// caller to rebuild from whatever prefix survived.
///
/// `kept_entries` / `kept_bytes` describe the intact prefix the caller
/// salvaged, so the report states not only what was lost but what was
/// saved.
///
/// # Errors
///
/// Returns [`CoreError::Journal`] when the quarantine directory cannot
/// be created or the artifact cannot be moved — in that case the
/// damaged file is left exactly where it was.
pub fn quarantine_artifact(
    path: &Path,
    damage: &ArtifactDamage,
    kept_entries: usize,
    kept_bytes: u64,
) -> Result<Quarantined> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let qdir = parent.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)
        .map_err(|e| quarantine_err(path, format!("cannot create `{}`: {e}", qdir.display())))?;
    let name = path
        .file_name()
        .ok_or_else(|| quarantine_err(path, "artifact has no file name".to_string()))?
        .to_string_lossy()
        .into_owned();
    // Never overwrite an earlier incident's evidence: suffix with the
    // first free slot.
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
        .ok_or_else(|| quarantine_err(path, "quarantine directory is full".to_string()))?;
    std::fs::rename(path, &artifact).map_err(|e| {
        quarantine_err(
            path,
            format!("cannot move into `{}`: {e}", artifact.display()),
        )
    })?;
    let report_body = QuarantineReport {
        artifact: path.display().to_string(),
        quarantined_as: artifact.display().to_string(),
        damage_offset: damage.offset,
        error: damage.error.clone(),
        crc_expected: damage.crc_expected,
        crc_found: damage.crc_found,
        kept_entries,
        kept_bytes,
    };
    // The report is best-effort evidence; the quarantine itself already
    // succeeded and must not be rolled back over a report I/O error.
    let _ = std::fs::write(
        &report,
        serde_json::to_string_pretty(&report_body).unwrap_or_default(),
    );
    QUARANTINED.fetch_add(1, Ordering::Relaxed);
    wootz_obs::counter("recovery.quarantined").incr();
    wootz_obs::event("journal.quarantined")
        .field("path", path.display().to_string())
        .field("quarantined_as", artifact.display().to_string())
        .field("offset", damage.offset as usize)
        .field("error", damage.error.clone())
        .field("kept_entries", kept_entries)
        .emit();
    Ok(Quarantined { artifact, report })
}

fn quarantine_err(path: &Path, detail: String) -> CoreError {
    CoreError::Journal(format!(
        "quarantine of `{}` failed: {detail}",
        path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_moves_file_and_writes_report() {
        let dir = std::env::temp_dir().join("wootz_recovery_test");
        std::fs::create_dir_all(&dir).unwrap();
        let victim = dir.join("artifact.bin");
        std::fs::write(&victim, b"damaged bytes").unwrap();
        let damage = ArtifactDamage {
            offset: 7,
            error: "payload checksum mismatch".to_string(),
            crc_expected: Some(0xdead),
            crc_found: Some(0xbeef),
        };
        let q = quarantine_artifact(&victim, &damage, 3, 7).unwrap();
        assert!(!victim.exists(), "damaged file moved away");
        assert_eq!(std::fs::read(&q.artifact).unwrap(), b"damaged bytes");
        let report = std::fs::read_to_string(&q.report).unwrap();
        assert!(report.contains("damage_offset"), "{report}");
        assert!(report.contains("kept_entries"), "{report}");
        // A second incident with the same name does not clobber evidence.
        std::fs::write(&victim, b"damaged again").unwrap();
        let q2 = quarantine_artifact(&victim, &damage, 0, 0).unwrap();
        assert_ne!(q.artifact, q2.artifact);
        assert!(q.artifact.exists() && q2.artifact.exists());
        let (_, quarantined) = tallies();
        assert!(quarantined >= 2);
        assert!(degradation_summary().unwrap().contains("quarantined"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
