//! Pins `PROTOCOL.md` against the implementation: the message-catalog
//! table in §4 (between the `<!-- catalog:begin -->` / `<!-- catalog:end -->`
//! markers) must list exactly the codes and names of `Message::CATALOG`,
//! in order, as live rows and exactly `Message::RETIRED` as retired ones;
//! the task-kind table in §4.1 (between the `taskkinds:begin` /
//! `taskkinds:end` markers) must list exactly the tags a `TaskSpec`
//! encodes its `Task` with as live and exactly the tags it refuses as
//! retired; and the output-kind table in §4.2 (`outputkinds`) does the
//! same for the `TaskOutput` a `TaskDone` carries. Editing one without the
//! other fails these tests. The mixed-revision failures §3 names are
//! pinned too: each is refused with the named error.

use wootz_cluster::protocol::{TaskResult, TaskSpec};
use wootz_cluster::Message;
use wootz_core::compile::TuningBlock;
use wootz_core::explore::SupervisedEval;
use wootz_core::pipeline::{Task, TaskOutput};
use wootz_core::pretrain::GroupOutcome;
use wootz_core::prune::PruneConfig;
use wootz_core::CoreError;
use wootz_wire::{Frame, Limits, WireDeserialize, WireError, WireReader, WireSerialize};

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
        rows.push((
            code,
            name.to_string(),
            cells.next().unwrap_or_default().to_string(),
        ));
    }
    rows
}

/// The `(code, name)` rows of the catalog table, live (`retired` false)
/// or retired ones: a retired row's direction cell reads `retired`.
fn spec_catalog(retired: bool) -> Vec<(u16, String)> {
    spec_table("catalog")
        .into_iter()
        .filter(|(_, _, direction)| (direction == "retired") == retired)
        .map(|(code, name, _)| (code, name))
        .collect()
}

#[test]
fn protocol_md_catalog_matches_message_catalog() {
    let spec = spec_catalog(false);
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

    // Retired codes: listed, never reused, and refused like unknown ones.
    let retired: Vec<(u16, String)> = Message::RETIRED
        .iter()
        .map(|&(code, name)| (code, name.to_string()))
        .collect();
    assert_eq!(spec_catalog(true), retired, "PROTOCOL.md retired codes");
    for &(code, _) in Message::RETIRED {
        assert!(
            Message::CATALOG.iter().all(|&(live, _)| live != code),
            "retired code {code} reused"
        );
        let frame = Frame {
            msg_type: code,
            payload: Vec::new(),
        };
        assert!(
            matches!(
                Message::decode(&frame, &Limits::DEFAULT),
                Err(WireError::UnknownMsgType { found }) if found == code
            ),
            "retired code {code} must decode to UnknownMsgType"
        );
    }
}

/// Splits the rows of the `marker` table into live and retired `(tag,
/// name)`s, asserting every row is one or the other.
fn live_and_retired(marker: &str) -> (Vec<(u8, String)>, Vec<u8>) {
    let rows = spec_table(marker);
    let of_status = |status: &str| -> Vec<(u8, String)> {
        rows.iter()
            .filter(|(_, _, s)| s == status)
            .map(|(tag, name, _)| (*tag as u8, name.clone()))
            .collect()
    };
    let (live, retired) = (of_status("live"), of_status("retired"));
    assert_eq!(
        live.len() + retired.len(),
        rows.len(),
        "every {marker} row is either `live` or `retired`: {rows:?}"
    );
    (live, retired.into_iter().map(|(tag, _)| tag).collect())
}

/// The variant name at the head of a derived `Debug` rendering.
fn variant_name(debug: &str) -> String {
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Decoding `payload` as a `T` must fail with an `InvalidValue` naming a
/// retired tag.
fn assert_retired<T: WireDeserialize + std::fmt::Debug>(what: &str, tag: u8, payload: &[u8]) {
    let mut reader = WireReader::new(payload, payload.len() as u64, Limits::DEFAULT);
    match T::wire_read(&mut reader) {
        Err(WireError::InvalidValue { detail, .. }) => {
            assert!(detail.contains("retired"), "{what} tag {tag}: {detail}")
        }
        other => panic!("retired {what} tag {tag} must decode to InvalidValue, got {other:?}"),
    }
}

#[test]
fn protocol_md_task_kind_table_matches_what_task_kind_encodes() {
    let (live, retired) = live_and_retired("taskkinds");

    // Live rows: exactly the tag byte each variant actually encodes,
    // after the spec's seq (8), attempt (4) and epoch (8).
    const TAG_OFFSET: usize = 8 + 4 + 8;
    let block = TuningBlock::new(0, vec![(1, 30)]).unwrap();
    let samples = [
        Task::Eval {
            config_index: 0,
            config: PruneConfig::unpruned(4),
            blocks: Some(vec![block.clone()]),
        },
        Task::Pretrain {
            group_index: 0,
            blocks: vec![(0, block)],
        },
    ];
    let spec_of = |task: Task| TaskSpec {
        seq: 1,
        attempt: 1,
        epoch: 1,
        task,
        expected_steps: 1,
    };
    let encoded: Vec<(u8, String)> = samples
        .into_iter()
        .map(|task| {
            let name = variant_name(&format!("{task:?}"));
            let mut buf = Vec::new();
            spec_of(task).wire_write(&mut buf).unwrap();
            (buf[TAG_OFFSET], name)
        })
        .collect();
    assert_eq!(live, encoded, "PROTOCOL.md live task kinds");

    // Retired rows: exactly the tags the decoder refuses as retired.
    assert_eq!(
        retired,
        TaskSpec::RETIRED_TAGS,
        "PROTOCOL.md retired task kinds"
    );
    for tag in retired {
        // A grant of an older revision: the envelope fields, the retired
        // tag, then whatever that revision put after it.
        let mut buf = vec![0u8; TAG_OFFSET];
        buf.push(tag);
        buf.extend_from_slice(&[0; 16]);
        assert_retired::<TaskSpec>("task", tag, &buf);
    }
}

/// A `TaskDone` of each output kind, by worker `w0`.
fn task_done_samples() -> Vec<TaskResult> {
    let result = |output| TaskResult {
        seq: 1,
        attempt: 1,
        epoch: 1,
        worker: "w0".to_string(),
        wall_ms: 1,
        output,
        index: 0,
    };
    vec![
        result(TaskOutput::Eval(SupervisedEval {
            result: Err(CoreError::Remote("boom".to_string())),
            attempts: 1,
            backoff: 0.0,
        })),
        result(TaskOutput::Pretrain(GroupOutcome {
            blocks: Vec::new(),
            failed: Vec::new(),
            first_error: None,
        })),
    ]
}

/// The byte offset of a `TaskDone`'s output tag for worker `w0`: seq (8),
/// attempt (4), epoch (8), the worker string (4 + 2) and wall_ms (8).
const OUTPUT_TAG_OFFSET: usize = 8 + 4 + 8 + 4 + 2 + 8;

#[test]
fn protocol_md_output_kind_table_matches_what_task_done_encodes() {
    let (live, retired) = live_and_retired("outputkinds");
    let encoded: Vec<(u8, String)> = task_done_samples()
        .into_iter()
        .map(|result| {
            let name = variant_name(&format!("{:?}", result.output));
            let mut buf = Vec::new();
            result.wire_write(&mut buf).unwrap();
            assert_eq!(buf.len(), result.wire_size(), "declared size of {name}");
            (buf[OUTPUT_TAG_OFFSET], name)
        })
        .collect();
    assert_eq!(live, encoded, "PROTOCOL.md live output kinds");
    assert_eq!(
        retired,
        TaskOutput::RETIRED_TAGS,
        "PROTOCOL.md retired output kinds"
    );
    for tag in retired {
        // A result of an older revision: the envelope fields, the retired
        // tag, then whatever that revision put after it.
        let mut buf = Vec::new();
        task_done_samples()[0].wire_write(&mut buf).unwrap();
        buf[OUTPUT_TAG_OFFSET] = tag;
        assert_retired::<TaskResult>("output", tag, &buf);
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

    // The mixed-fleet failures of the pushed blocks (§3). An older
    // worker's `BlocksRequest` names a retired code: `UnknownMsgType`,
    // pinned with the catalog. A newer worker's `TaskDone` reaching an
    // older coordinator, whose decoder knows only the now-retired output
    // tags, names a tag unknown to it: `InvalidValue`.
    for result in task_done_samples() {
        let mut buf = Vec::new();
        result.wire_write(&mut buf).unwrap();
        assert!(
            !TaskOutput::RETIRED_TAGS.contains(&buf[OUTPUT_TAG_OFFSET]),
            "a live output tag reuses a retired one"
        );
    }
    for error in ["`InvalidValue`", "`Exhausted`", "`UnknownMsgType`"] {
        let section = &SPEC[SPEC.find("## 3.").expect("PROTOCOL.md lost §3")..];
        let section = &section[..section.find("\n## 4.").expect("PROTOCOL.md lost §4")];
        assert!(
            section.contains(error),
            "PROTOCOL.md §3 does not name {error} among the mixed-revision failures"
        );
    }
}
