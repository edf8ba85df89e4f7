//! `wootz-wire`: the std-only binary wire format of the Wootz cluster.
//!
//! The distributed runtime (PR 3) coordinated processes through a shared
//! filesystem; this crate is the serialization layer that lets the same
//! protocol cross machines. It deliberately has **zero dependencies** —
//! not even the workspace's vendored serde — so the byte format is
//! defined entirely by the code in this crate and `PROTOCOL.md` (repo
//! root), which specifies it byte-by-byte for third-party
//! implementations.
//!
//! Three layers, smallest surface first:
//!
//! * [`crc32`] — the IEEE CRC-32 used as the frame checksum.
//! * [`WireSerialize`] / [`WireDeserialize`] — a beserial-style trait
//!   pair over [`std::io::Write`] / [`std::io::Read`]: fixed-width
//!   big-endian integers, bit-pattern floats, length-prefixed strings
//!   and collections. Deserialization always runs inside a
//!   [`WireReader`], which enforces [`Limits`] and a per-frame byte
//!   budget so a hostile or truncated input can never cause unbounded
//!   allocation — every declared length is checked against the bytes
//!   that can actually exist *before* any buffer is created.
//! * [`write_frame`] / [`read_frame`] — the versioned envelope
//!   `magic | version | msg-type | len | crc | payload` that delimits
//!   messages on a TCP stream (and doubles as the record format when
//!   frames are journaled to disk).
//! * [`scan_records`] — the same envelope read back *from disk*: walks a
//!   durable artifact (run journal, checkpoint, store entry) record by
//!   record and classifies how it ends ([`RecordTail`]) — clean, torn by
//!   a crash mid-append, or corrupted in place ([`RecordDamage`]) — so
//!   recovery code can decide between truncating a tear and moving the
//!   file aside ([`quarantine`]). [`read_single_record`] reads the
//!   one-record artifacts; record-type codes live in [`record_type`].
//!
//! Failure is always a structured [`WireError`] — truncation, bad
//! magic, version or msg-type mismatches, oversized declarations,
//! checksum failures — never a panic. The message catalog itself (what
//! each msg-type code means) lives with its owner,
//! `wootz-cluster::protocol`; this crate only moves bytes.
//!
//! ```
//! use wootz_wire::{read_frame, write_frame, Limits, WireDeserialize, WireSerialize};
//!
//! let payload = (42u64, "hello".to_string()).wire_to_vec();
//! let mut stream = Vec::new();
//! write_frame(&mut stream, 7, &payload).unwrap();
//!
//! let frame = read_frame(&mut &stream[..], &Limits::DEFAULT).unwrap();
//! assert_eq!(frame.msg_type, 7);
//! let (n, s) = <(u64, String)>::wire_from_bytes(&frame.payload, &Limits::DEFAULT).unwrap();
//! assert_eq!((n, s.as_str()), (42, "hello"));
//! ```

#![warn(missing_docs)]

mod codec;
mod crc;
mod error;
mod frame;
mod record;

pub use codec::{write_bytes, write_len, Limits, WireDeserialize, WireReader, WireSerialize};
pub use crc::crc32;
pub use error::{WireError, WireResult};
pub use frame::{read_frame, write_frame, Frame, HEADER_LEN, MAGIC, VERSION};
pub use record::{
    is_record_artifact, quarantine, read_single_record, record_type, scan_records, Quarantined,
    RecordAt, RecordDamage, RecordScan, RecordTail, QUARANTINE_DIR,
};
