//! The framed envelope: `magic | version | msg-type | len | crc | payload`.
//!
//! A frame is the unit of transmission. The 16-byte header is fixed
//! layout, big-endian:
//!
//! ```text
//! offset  size  field     meaning
//! 0       4     magic     b"WOTZ" — stream resynchronization sentinel
//! 4       2     version   envelope version (currently 1)
//! 6       2     msg-type  catalog code; interpretation of the payload
//! 8       4     len       payload length in bytes
//! 12      4     crc       CRC-32 (IEEE) of the payload bytes
//! 16      len   payload   msg-type-specific encoding
//! ```
//!
//! The reader validates in order — magic, version, length bound, full
//! payload arrival, checksum — so the cheapest checks reject garbage
//! first and no payload allocation happens for a frame whose declared
//! length exceeds [`Limits::max_frame`]. A frame that passes
//! [`read_frame`] is structurally sound; whether its payload *parses*
//! is the message catalog's business.

use std::io::{Read, Write};

use crate::codec::Limits;
use crate::crc::crc32;
use crate::error::{WireError, WireResult};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"WOTZ";

/// Envelope version this implementation writes and the highest it
/// accepts. Bump on any header or encoding-rule change.
pub const VERSION: u16 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 16;

/// One received frame: the catalog code plus the verified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The envelope's msg-type code.
    pub msg_type: u16,
    /// The payload bytes (checksum already verified).
    pub payload: Vec<u8>,
}

/// Writes one frame (header + payload) to `w` and returns the total
/// bytes written. The caller flushes; one frame is one logical message.
///
/// # Errors
///
/// Returns [`WireError::OversizedFrame`] when the payload exceeds
/// `u32::MAX` bytes, and [`WireError::Io`] on writer failure.
pub fn write_frame<W: Write + ?Sized>(
    w: &mut W,
    msg_type: u16,
    payload: &[u8],
) -> WireResult<usize> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::OversizedFrame {
        declared: payload.len() as u64,
        limit: u32::MAX as u64,
    })?;
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_be_bytes());
    header[6..8].copy_from_slice(&msg_type.to_be_bytes());
    header[8..12].copy_from_slice(&len.to_be_bytes());
    header[12..16].copy_from_slice(&crc32(payload).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(HEADER_LEN + payload.len())
}

/// Reads one frame from `r`, enforcing `limits` and verifying the
/// checksum.
///
/// # Errors
///
/// * [`WireError::Closed`] — end-of-stream *before* the first header
///   byte (a clean close between frames).
/// * [`WireError::Truncated`] — end-of-stream inside the header or the
///   payload (a mid-frame disconnect).
/// * [`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
///   [`WireError::OversizedFrame`], [`WireError::ChecksumMismatch`] —
///   per the validation order above.
/// * [`WireError::Io`] — any other reader failure.
pub fn read_frame<R: Read + ?Sized>(r: &mut R, limits: &Limits) -> WireResult<Frame> {
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, "frame header", true)?;
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&header[0..4]);
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if version == 0 || version > VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let msg_type = u16::from_be_bytes([header[6], header[7]]);
    let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as u64;
    let crc = u32::from_be_bytes([header[12], header[13], header[14], header[15]]);
    if len > limits.max_frame {
        // Reject *before* touching the payload: a hostile or corrupt
        // length never causes an allocation.
        return Err(WireError::OversizedFrame {
            declared: len,
            limit: limits.max_frame,
        });
    }
    // `take` + `read_to_end` grows the buffer with the bytes that
    // actually arrive, so a truncated frame allocates at most what was
    // received — never the declared length up front.
    let mut payload = Vec::new();
    r.take(len)
        .read_to_end(&mut payload)
        .map_err(WireError::Io)?;
    if (payload.len() as u64) < len {
        return Err(WireError::Truncated {
            context: "frame payload",
            expected: len,
            got: payload.len() as u64,
        });
    }
    let found = crc32(&payload);
    if found != crc {
        return Err(WireError::ChecksumMismatch {
            expected: crc,
            found,
        });
    }
    Ok(Frame { msg_type, payload })
}

/// Reads exactly `buf.len()` bytes, distinguishing a clean close (zero
/// bytes read, `closed_ok`) from a mid-structure truncation.
fn read_full<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
    closed_ok: bool,
) -> WireResult<()> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 && closed_ok => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Truncated {
                    context,
                    expected: buf.len() as u64,
                    got: got as u64,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, 7, b"hello frame").unwrap();
        assert_eq!(n, buf.len());
        let frame = read_frame(&mut &buf[..], &Limits::DEFAULT).unwrap();
        assert_eq!(frame.msg_type, 7);
        assert_eq!(frame.payload, b"hello frame");
    }

    #[test]
    fn clean_close_is_distinguished_from_truncation() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut &empty[..], &Limits::DEFAULT),
            Err(WireError::Closed)
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"payload").unwrap();
        let cut = &buf[..HEADER_LEN - 3];
        assert!(matches!(
            read_frame(&mut &cut[..], &Limits::DEFAULT),
            Err(WireError::Truncated {
                context: "frame header",
                ..
            })
        ));
    }
}
