//! Round-trip tests for every primitive and container encoding, plus the
//! pinned malformed-frame corpus: truncated, corrupt-checksum, oversized
//! and version-skewed frames must yield structured [`WireError`]s —
//! never panics, never allocation past the decode bound.

use std::collections::BTreeMap;

use wootz_wire::{
    crc32, read_frame, write_frame, Frame, Limits, WireDeserialize, WireError, WireReader,
    WireSerialize, HEADER_LEN, MAGIC, VERSION,
};

fn round_trip<T>(value: T) -> T
where
    T: WireSerialize + WireDeserialize + PartialEq + std::fmt::Debug,
{
    let bytes = value.wire_to_vec();
    assert_eq!(
        bytes.len(),
        value.wire_size(),
        "wire_size must match the bytes actually written"
    );
    let back = T::wire_from_bytes(&bytes, &Limits::DEFAULT).unwrap();
    assert_eq!(back, value);
    back
}

#[test]
fn primitives_round_trip() {
    round_trip(0u8);
    round_trip(255u8);
    round_trip(0xBEEFu16);
    round_trip(0xDEAD_BEEFu32);
    round_trip(u64::MAX);
    round_trip(true);
    round_trip(false);
    round_trip(String::from("héllo wörld"));
    round_trip(String::new());
}

#[test]
fn floats_round_trip_bit_exactly() {
    for v in [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::INFINITY] {
        let back = round_trip(v);
        assert_eq!(back.to_bits(), v.to_bits());
    }
    // NaN payloads survive (PartialEq would fail, so compare bits directly).
    let nan = f32::from_bits(0x7FC0_1234);
    let back = f32::wire_from_bytes(&nan.wire_to_vec(), &Limits::DEFAULT).unwrap();
    assert_eq!(back.to_bits(), nan.to_bits());
    let nan64 = f64::from_bits(0x7FF8_0000_0000_CAFE);
    let back = f64::wire_from_bytes(&nan64.wire_to_vec(), &Limits::DEFAULT).unwrap();
    assert_eq!(back.to_bits(), nan64.to_bits());
}

#[test]
fn containers_round_trip() {
    round_trip(vec![1u64, 2, 3]);
    round_trip(Vec::<u64>::new());
    round_trip(Some(7u32));
    round_trip(None::<u32>);
    round_trip((42u64, String::from("pair")));
    round_trip(vec![
        (String::from("a"), String::from("x")),
        (String::from("b"), String::from("y")),
    ]);
    let mut map = BTreeMap::new();
    map.insert(String::from("k1"), 10u64);
    map.insert(String::from("k2"), 20u64);
    round_trip(map);
    round_trip(Some(vec![Some(1u8), None, Some(3)]));
}

#[test]
fn integers_are_big_endian_on_the_wire() {
    assert_eq!(0x0102_0304u32.wire_to_vec(), vec![1, 2, 3, 4]);
    assert_eq!(0x0102u16.wire_to_vec(), vec![1, 2]);
}

// --- the malformed-frame corpus -------------------------------------------

fn valid_frame(msg_type: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg_type, payload).unwrap();
    buf
}

#[test]
fn corpus_truncated_header() {
    let frame = valid_frame(3, b"payload bytes");
    for cut in 1..HEADER_LEN {
        let err = read_frame(&mut &frame[..cut], &Limits::DEFAULT).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Truncated {
                    context: "frame header",
                    ..
                }
            ),
            "cut at {cut} gave {err:?}"
        );
    }
}

#[test]
fn corpus_truncated_payload() {
    let frame = valid_frame(3, b"payload bytes");
    let cut = frame.len() - 5;
    let err = read_frame(&mut &frame[..cut], &Limits::DEFAULT).unwrap_err();
    match err {
        WireError::Truncated {
            context: "frame payload",
            expected,
            got,
        } => {
            assert_eq!(expected, 13);
            assert_eq!(got, 8);
        }
        other => panic!("expected payload truncation, got {other:?}"),
    }
}

#[test]
fn corpus_empty_stream_is_a_clean_close() {
    let err = read_frame(&mut &[][..], &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::Closed));
}

#[test]
fn corpus_bad_magic() {
    let mut frame = valid_frame(3, b"x");
    frame[0..4].copy_from_slice(b"NOPE");
    let err = read_frame(&mut &frame[..], &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::BadMagic { found } if &found == b"NOPE"));
}

#[test]
fn corpus_unsupported_version() {
    let mut frame = valid_frame(3, b"x");
    frame[4..6].copy_from_slice(&(VERSION + 1).to_be_bytes());
    let err = read_frame(&mut &frame[..], &Limits::DEFAULT).unwrap_err();
    assert!(
        matches!(err, WireError::UnsupportedVersion { found, supported }
            if found == VERSION + 1 && supported == VERSION)
    );
    // Version 0 is reserved-invalid.
    frame[4..6].copy_from_slice(&0u16.to_be_bytes());
    let err = read_frame(&mut &frame[..], &Limits::DEFAULT).unwrap_err();
    assert!(matches!(
        err,
        WireError::UnsupportedVersion { found: 0, .. }
    ));
}

#[test]
fn corpus_oversized_declared_length_rejected_before_allocation() {
    // A header declaring a u32::MAX payload against a 1 KiB limit: the
    // reader must reject from the header alone. If it tried to allocate
    // the declared length this test would OOM; structurally the length
    // check precedes any payload handling.
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_be_bytes());
    header[6..8].copy_from_slice(&3u16.to_be_bytes());
    header[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
    let limits = Limits {
        max_frame: 1024,
        max_items: 1024,
    };
    let err = read_frame(&mut &header[..], &limits).unwrap_err();
    assert!(matches!(err, WireError::OversizedFrame { declared, limit }
            if declared == u32::MAX as u64 && limit == 1024));
}

#[test]
fn corpus_corrupt_crc() {
    let mut frame = valid_frame(3, b"checksummed payload");
    let last = frame.len() - 1;
    frame[last] ^= 0x01; // flip one payload bit
    let err = read_frame(&mut &frame[..], &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::ChecksumMismatch { .. }));

    // Corrupting the stored checksum itself is equally detected.
    let mut frame = valid_frame(3, b"checksummed payload");
    frame[12] ^= 0xFF;
    let err = read_frame(&mut &frame[..], &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::ChecksumMismatch { .. }));
}

#[test]
fn corpus_string_declaring_more_than_the_frame_holds() {
    // Payload: a string length prefix of 4 GiB inside a 12-byte buffer.
    // The reader must fail on the budget check before allocating.
    let mut payload = Vec::new();
    payload.extend_from_slice(&u32::MAX.to_be_bytes());
    payload.extend_from_slice(b"abcdefgh");
    let err = String::wire_from_bytes(&payload, &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::Exhausted { needed, remaining, .. }
            if needed == u32::MAX as u64 && remaining == 8));
}

#[test]
fn corpus_collection_count_above_max_items() {
    let limits = Limits {
        max_frame: 1 << 20,
        max_items: 16,
    };
    let mut payload = Vec::new();
    payload.extend_from_slice(&1000u32.to_be_bytes());
    payload.extend_from_slice(&[0u8; 64]);
    let mut reader = WireReader::new(&payload[..], payload.len() as u64, limits);
    let err = Vec::<u8>::wire_read(&mut reader).unwrap_err();
    assert!(matches!(
        err,
        WireError::OversizedCollection {
            declared: 1000,
            limit: 16
        }
    ));
}

#[test]
fn corpus_collection_count_beyond_budget() {
    // 5000 declared elements, 8 bytes of actual data: caught by the
    // count×min-size budget check, not by 5000 failed element reads.
    let mut payload = Vec::new();
    payload.extend_from_slice(&5000u32.to_be_bytes());
    payload.extend_from_slice(&[1u8; 8]);
    let err = Vec::<u64>::wire_from_bytes(&payload, &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::Exhausted { .. }));
}

#[test]
fn corpus_trailing_bytes() {
    let mut bytes = 9u64.wire_to_vec();
    bytes.push(0xAA);
    let err = u64::wire_from_bytes(&bytes, &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::TrailingBytes { remaining: 1 }));
}

#[test]
fn corpus_invalid_utf8_and_bool() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u32.to_be_bytes());
    payload.extend_from_slice(&[0xFF, 0xFE]);
    let err = String::wire_from_bytes(&payload, &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::InvalidUtf8 { .. }));

    let err = bool::wire_from_bytes(&[2], &Limits::DEFAULT).unwrap_err();
    assert!(matches!(err, WireError::InvalidValue { .. }));
}

#[test]
fn corpus_zero_length_frame_and_empty_payload() {
    let frame = valid_frame(9, b"");
    let parsed = read_frame(&mut &frame[..], &Limits::DEFAULT).unwrap();
    assert_eq!(
        parsed,
        Frame {
            msg_type: 9,
            payload: Vec::new()
        }
    );
    assert_eq!(crc32(b""), 0);
}

#[test]
fn back_to_back_frames_parse_in_sequence() {
    let mut stream = Vec::new();
    write_frame(&mut stream, 1, b"first").unwrap();
    write_frame(&mut stream, 2, b"second").unwrap();
    let mut cursor = &stream[..];
    let a = read_frame(&mut cursor, &Limits::DEFAULT).unwrap();
    let b = read_frame(&mut cursor, &Limits::DEFAULT).unwrap();
    assert_eq!((a.msg_type, a.payload.as_slice()), (1, &b"first"[..]));
    assert_eq!((b.msg_type, b.payload.as_slice()), (2, &b"second"[..]));
    assert!(matches!(
        read_frame(&mut cursor, &Limits::DEFAULT),
        Err(WireError::Closed)
    ));
}
