//! Artifact recovery: degradation tallies and the end-of-run durability
//! summary.
//!
//! The journal scanner (`journal`) classifies a damaged artifact as
//! either *torn* (a crash cut the final record short — the intact prefix
//! is trustworthy, the tear is truncated away) or *corrupt* (bytes in
//! the middle of the file are wrong — nothing at or after the damage can
//! be trusted). The second, heavier response is [`quarantine_journal`]:
//! the damaged file is **moved aside** into a `quarantine/` directory
//! next to it with a structured report (offset, decode error, CRC
//! found/expected, how much was salvaged) by [`wootz_wire::quarantine`]
//! — the same one the block store uses — and the caller rebuilds a fresh
//! artifact from the intact prefix. Nothing is deleted: an operator can
//! always inspect exactly which bytes were given up on and why.
//!
//! Every degradation — truncated tails and quarantined artifacts — is
//! tallied process-wide so the CLI can print one summary line at the
//! end of a run ([`degradation_summary`]); the same numbers flow into
//! the metrics registry as `recovery.truncated_tails` /
//! `recovery.quarantined` counters and per-incident
//! `journal.quarantined` events (see `OBSERVABILITY.md`).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use wootz_wire::QUARANTINE_DIR;
use wootz_wire::{Quarantined, RecordDamage};

use crate::{CoreError, Result};

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

/// Quarantines a damaged journal ([`wootz_wire::quarantine`]) and books
/// it: the process tally, the `recovery.quarantined` counter and a
/// `journal.quarantined` event. `kept_entries` / `kept_bytes` describe
/// the intact prefix the caller salvaged.
///
/// # Errors
///
/// Returns [`CoreError::Journal`] when the file cannot be moved aside —
/// in that case the damaged file is left exactly where it was.
pub fn quarantine_journal(
    path: &Path,
    damage: &RecordDamage,
    kept_entries: usize,
    kept_bytes: u64,
) -> Result<Quarantined> {
    let q = wootz_wire::quarantine(path, damage, kept_entries, kept_bytes).map_err(|e| {
        CoreError::Journal(format!("quarantine of `{}` failed: {e}", path.display()))
    })?;
    QUARANTINED.fetch_add(1, Ordering::Relaxed);
    wootz_obs::counter("recovery.quarantined").incr();
    wootz_obs::event("journal.quarantined")
        .field("path", path.display().to_string())
        .field("quarantined_as", q.artifact.display().to_string())
        .field("offset", damage.offset as usize)
        .field("error", damage.error.clone())
        .field("kept_entries", kept_entries)
        .emit();
    Ok(q)
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
        let damage = RecordDamage {
            offset: 7,
            error: "payload checksum mismatch".to_string(),
            crc_expected: Some(0xdead),
            crc_found: Some(0xbeef),
        };
        let q = quarantine_journal(&victim, &damage, 3, 7).unwrap();
        assert!(!victim.exists(), "damaged file moved away");
        assert_eq!(std::fs::read(&q.artifact).unwrap(), b"damaged bytes");
        let report = std::fs::read_to_string(&q.report).unwrap();
        assert!(report.contains("damage_offset"), "{report}");
        assert!(report.contains("kept_entries"), "{report}");
        // A second incident with the same name does not clobber evidence.
        std::fs::write(&victim, b"damaged again").unwrap();
        let q2 = quarantine_journal(&victim, &damage, 0, 0).unwrap();
        assert_ne!(q.artifact, q2.artifact);
        assert!(q.artifact.exists() && q2.artifact.exists());
        let (_, quarantined) = tallies();
        assert!(quarantined >= 2);
        assert!(degradation_summary().unwrap().contains("quarantined"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
