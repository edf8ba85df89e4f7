//! Pins `PROTOCOL.md` against the implementation: the message-catalog
//! table in §4 (between the `<!-- catalog:begin -->` / `<!-- catalog:end -->`
//! markers) must list exactly the codes and names of `Message::CATALOG`,
//! in order, and the task-kind table in §4.1 (between the
//! `taskkinds:begin` / `taskkinds:end` markers) must list exactly the
//! tags `TaskKind` encodes as live and exactly the tags it refuses as
//! retired. Editing one without the other fails these tests.

use wootz_cluster::protocol::TaskKind;
use wootz_cluster::Message;
use wootz_wire::{Limits, WireDeserialize, WireError, WireReader, WireSerialize};

const SPEC: &str = include_str!("../../../PROTOCOL.md");

/// Extracts `(code, name, next cell)` rows from the table between the
/// `<!-- {marker}:begin -->` / `<!-- {marker}:end -->` markers. Rows look
/// like `| 4 | `TaskGrant` | C→W | ... |`; the header and separator rows
/// have no leading integer and are skipped.
fn spec_table(marker: &str) -> Vec<(u16, String, String)> {
    let start = SPEC
        .find(&format!("<!-- {marker}:begin -->"))
        .unwrap_or_else(|| panic!("PROTOCOL.md lost its {marker}:begin marker"));
    let end = SPEC
        .find(&format!("<!-- {marker}:end -->"))
        .unwrap_or_else(|| panic!("PROTOCOL.md lost its {marker}:end marker"));
    assert!(start < end, "{marker} markers out of order");

    let mut rows = Vec::new();
    for line in SPEC[start..end].lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('|') else {
            continue;
        };
        let mut cells = rest.split('|').map(str::trim);
        let Some(code_cell) = cells.next() else {
            continue;
        };
        let Ok(code) = code_cell.parse::<u16>() else {
            continue; // header or separator row
        };
        let name_cell = cells.next().unwrap_or_default();
        let name = name_cell
            .strip_prefix('`')
            .and_then(|s| s.strip_suffix('`'))
            .unwrap_or_else(|| panic!("{marker} row for code {code} lacks a `backticked` name"));
        rows.push((code, name.to_string(), cells.next().unwrap_or_default().to_string()));
    }
    rows
}

fn spec_catalog() -> Vec<(u16, String)> {
    spec_table("catalog")
        .into_iter()
        .map(|(code, name, _)| (code, name))
        .collect()
}

#[test]
fn protocol_md_catalog_matches_message_catalog() {
    let spec = spec_catalog();
    assert_eq!(
        spec.len(),
        Message::CATALOG.len(),
        "PROTOCOL.md catalog has {} rows, Message::CATALOG has {}",
        spec.len(),
        Message::CATALOG.len()
    );
    for ((spec_code, spec_name), &(code, name)) in spec.iter().zip(Message::CATALOG) {
        assert_eq!(
            (*spec_code, spec_name.as_str()),
            (code, name),
            "PROTOCOL.md row ({spec_code}, {spec_name}) != Message::CATALOG ({code}, {name})"
        );
    }
}

#[test]
fn protocol_md_task_kind_table_matches_what_task_kind_encodes() {
    let rows = spec_table("taskkinds");
    let of_status = |status: &str| -> Vec<(u8, String)> {
        rows.iter()
            .filter(|(_, _, s)| s == status)
            .map(|(tag, name, _)| (*tag as u8, name.clone()))
            .collect()
    };
    assert_eq!(
        of_status("live").len() + of_status("retired").len(),
        rows.len(),
        "every task-kind row is either `live` or `retired`: {rows:?}"
    );

    // Live rows: exactly the tag byte each variant actually encodes.
    let samples = [
        TaskKind::Eval {
            config_index: 0,
            universe: Vec::new(),
        },
        TaskKind::Pretrain {
            group_index: 0,
            blocks: Vec::new(),
            group: Vec::new(),
        },
    ];
    let encoded: Vec<(u8, String)> = samples
        .iter()
        .map(|kind| {
            let mut buf = Vec::new();
            kind.wire_write(&mut buf).unwrap();
            // The variant name is the head of the derived Debug rendering.
            let name = format!("{kind:?}");
            (buf[0], name.split(' ').next().unwrap_or_default().to_string())
        })
        .collect();
    assert_eq!(of_status("live"), encoded, "PROTOCOL.md live task kinds");

    // Retired rows: exactly the tags the decoder refuses as retired.
    let retired: Vec<u8> = of_status("retired").iter().map(|(tag, _)| *tag).collect();
    assert_eq!(retired, TaskKind::RETIRED_TAGS, "PROTOCOL.md retired task kinds");
    for tag in retired {
        let buf = [tag, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut reader = WireReader::new(buf.as_slice(), buf.len() as u64, Limits::DEFAULT);
        match TaskKind::wire_read(&mut reader) {
            Err(WireError::InvalidValue { detail, .. }) => {
                assert!(detail.contains("retired"), "{detail}")
            }
            other => panic!("retired tag {tag} must decode to InvalidValue, got {other:?}"),
        }
    }
}

#[test]
fn spec_documents_every_wire_error() {
    // §6 lists every structured decode error by name; spot-check that the
    // table names each `WireError` variant so the error-code section
    // cannot silently fall behind the enum.
    for variant in [
        "Closed",
        "Io",
        "Truncated",
        "BadMagic",
        "UnsupportedVersion",
        "UnknownMsgType",
        "OversizedFrame",
        "OversizedCollection",
        "Exhausted",
        "ChecksumMismatch",
        "TrailingBytes",
        "InvalidUtf8",
        "InvalidValue",
    ] {
        assert!(
            SPEC.contains(&format!("| `{variant}` |")),
            "PROTOCOL.md §6 is missing a row for WireError::{variant}"
        );
    }
}
