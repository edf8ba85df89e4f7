//! Pinned corpus for the on-disk record layer, mirroring the frame
//! corpus in `tests/codec.rs`: a scanner fed damaged artifacts must
//! classify every damage class correctly and never panic, never
//! over-allocate, and never trust a byte past the damage point.

use wootz_wire::{
    record_type, scan_records, write_frame, Frame, Limits, RecordDamage, RecordTail, HEADER_LEN,
};

fn artifact(payloads: &[(u16, &[u8])]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (ty, payload) in payloads {
        write_frame(&mut buf, *ty, payload).unwrap();
    }
    buf
}

#[test]
fn round_trip_preserves_types_offsets_and_payloads() {
    let buf = artifact(&[
        (record_type::JOURNAL_HEADER, b"identity"),
        (record_type::JOURNAL_BLOCK, b"block bytes"),
        (record_type::JOURNAL_EVAL, b""),
        (record_type::CHECKPOINT, &[0xde, 0xad, 0xbe, 0xef]),
    ]);
    let scan = scan_records(&buf, &Limits::ARTIFACT);
    assert!(scan.tail.is_clean());
    assert_eq!(scan.intact_bytes, buf.len() as u64);
    let types: Vec<u16> = scan.records.iter().map(|r| r.frame.msg_type).collect();
    assert_eq!(
        types,
        vec![
            record_type::JOURNAL_HEADER,
            record_type::JOURNAL_BLOCK,
            record_type::JOURNAL_EVAL,
            record_type::CHECKPOINT,
        ]
    );
    // Offsets chain: each record starts where the previous one ended.
    let mut expect = 0u64;
    for r in &scan.records {
        assert_eq!(r.offset, expect);
        expect += (HEADER_LEN + r.frame.payload.len()) as u64;
    }
    assert_eq!(scan.records[3].frame.payload, &[0xde, 0xad, 0xbe, 0xef]);
}

/// A crash can cut the file at *any* byte. Every cut inside the second
/// record must scan as Torn with the first record intact; every cut
/// inside the first must scan as Torn with nothing recovered; a cut on
/// the boundary is Clean.
#[test]
fn truncation_at_every_byte_boundary_is_torn_never_corrupt() {
    let buf = artifact(&[
        (record_type::JOURNAL_HEADER, b"first"),
        (record_type::JOURNAL_EVAL, b"second record payload"),
    ]);
    let first_len = HEADER_LEN + b"first".len();
    for cut in 0..buf.len() {
        let scan = scan_records(&buf[..cut], &Limits::ARTIFACT);
        if cut == 0 {
            assert!(scan.tail.is_clean(), "empty file is clean, cut={cut}");
            assert!(scan.records.is_empty());
        } else if cut < first_len {
            assert_eq!(
                scan.tail,
                RecordTail::Torn { offset: 0 },
                "cut={cut} inside record 0"
            );
            assert!(scan.records.is_empty(), "cut={cut}");
        } else if cut == first_len {
            assert!(scan.tail.is_clean(), "cut={cut} on the boundary");
            assert_eq!(scan.records.len(), 1);
        } else {
            assert_eq!(
                scan.tail,
                RecordTail::Torn {
                    offset: first_len as u64
                },
                "cut={cut} inside record 1"
            );
            assert_eq!(scan.records.len(), 1, "cut={cut}");
            assert_eq!(scan.intact_bytes, first_len as u64);
        }
    }
}

#[test]
fn flipped_crc_is_corrupt_with_both_checksums_reported() {
    let mut buf = artifact(&[(record_type::CHECKPOINT, b"precious weights")]);
    buf[12] ^= 0x01; // first byte of the header's CRC field
    let scan = scan_records(&buf, &Limits::ARTIFACT);
    assert!(scan.records.is_empty());
    match scan.tail {
        RecordTail::Corrupt(RecordDamage {
            offset,
            crc_expected: Some(expected),
            crc_found: Some(found),
            ..
        }) => {
            assert_eq!(offset, 0);
            assert_ne!(expected, found);
        }
        other => panic!("expected Corrupt with CRCs, got {other:?}"),
    }
}

#[test]
fn flipped_payload_bit_is_corrupt_at_the_damaged_record() {
    let mut buf = artifact(&[
        (record_type::JOURNAL_HEADER, b"first"),
        (record_type::JOURNAL_EVAL, b"second"),
        (record_type::JOURNAL_EVAL, b"third"),
    ]);
    let second_off = HEADER_LEN + b"first".len();
    buf[second_off + HEADER_LEN] ^= 0x80; // first payload byte of record 1
    let scan = scan_records(&buf, &Limits::ARTIFACT);
    assert_eq!(scan.records.len(), 1, "only the record before the damage");
    assert!(
        matches!(scan.tail, RecordTail::Corrupt(RecordDamage { offset, .. }) if offset == second_off as u64),
        "{:?}",
        scan.tail
    );
}

/// A declared length beyond `Limits::max_frame` must be rejected before
/// any allocation and classified as corruption (the header content is
/// wrong), not as a tear.
#[test]
fn oversized_declared_length_is_corrupt_and_allocation_free() {
    let tight = Limits {
        max_frame: 64,
        max_items: 16,
    };
    let mut buf = artifact(&[(record_type::JOURNAL_EVAL, b"ok")]);
    let second = {
        let mut b = Vec::new();
        write_frame(&mut b, record_type::JOURNAL_EVAL, b"xx").unwrap();
        // Declare a 2 GiB payload; supply 2 bytes.
        b[8..12].copy_from_slice(&0x8000_0000u32.to_be_bytes());
        b
    };
    let second_off = buf.len();
    buf.extend_from_slice(&second);
    let scan = scan_records(&buf, &tight);
    assert_eq!(scan.records.len(), 1);
    match &scan.tail {
        RecordTail::Corrupt(RecordDamage { offset, error, .. }) => {
            assert_eq!(*offset, second_off as u64);
            assert!(error.contains("declares"), "{error}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn garbage_prefix_is_corrupt_at_offset_zero() {
    let scan = scan_records(b"{\"json\": \"journal line\"}\n", &Limits::ARTIFACT);
    assert!(scan.records.is_empty());
    assert!(
        matches!(&scan.tail, RecordTail::Corrupt(RecordDamage { offset: 0, error, .. })
            if error.contains("magic")),
        "{:?}",
        scan.tail
    );
}

#[test]
fn record_type_codes_do_not_collide() {
    let codes: Vec<u16> = record_type::CATALOG.iter().map(|&(code, _)| code).collect();
    for (i, a) in codes.iter().enumerate() {
        for b in &codes[i + 1..] {
            assert_ne!(a, b);
        }
    }
    // Disk records stay out of the network catalog's low code space.
    assert!(codes.iter().all(|&c| c > 0x4000));
    let _ = Frame {
        msg_type: record_type::CHECKPOINT,
        payload: Vec::new(),
    };
}

/// The `(code, name)` rows of `PROTOCOL.md` §8's record-type table, between
/// its `<!-- records:begin -->` / `<!-- records:end -->` markers. Rows look
/// like `` | `0x4A01` | `journal-header` | ... | ``; the header and
/// separator rows have no hex code and are skipped.
fn spec_records() -> Vec<(u16, String)> {
    const SPEC: &str = include_str!("../../../PROTOCOL.md");
    let start = SPEC
        .find("<!-- records:begin -->")
        .expect("PROTOCOL.md lost its records:begin marker");
    let end = SPEC
        .find("<!-- records:end -->")
        .expect("PROTOCOL.md lost its records:end marker");
    assert!(start < end, "records markers out of order");
    let unquote = |cell: &str| cell.trim().trim_matches('`').to_string();
    SPEC[start..end]
        .lines()
        .filter_map(|line| {
            let mut cells = line.trim().strip_prefix('|')?.split('|');
            let code = unquote(cells.next()?);
            let code = u16::from_str_radix(code.strip_prefix("0x")?, 16).ok()?;
            Some((code, unquote(cells.next()?)))
        })
        .collect()
}

#[test]
fn protocol_md_record_table_matches_the_catalog() {
    let catalog: Vec<(u16, String)> = record_type::CATALOG
        .iter()
        .map(|&(code, name)| (code, name.to_string()))
        .collect();
    let spec = spec_records();
    for row in &spec {
        assert!(
            catalog.contains(row),
            "PROTOCOL.md §8 row ({:#06x}, {}) is not in record_type::CATALOG",
            row.0,
            row.1
        );
    }
    for entry in &catalog {
        assert!(
            spec.contains(entry),
            "record_type::CATALOG entry ({:#06x}, {}) has no PROTOCOL.md §8 row",
            entry.0,
            entry.1
        );
    }
    assert_eq!(
        spec, catalog,
        "PROTOCOL.md §8 lists the record types out of order"
    );
}
