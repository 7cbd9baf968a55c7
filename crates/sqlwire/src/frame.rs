//! Length-prefixed, checksummed message framing.
//!
//! Every message on the wire is one *frame* — the storage layer's
//! record ([`sqlengine::storage::codec::put_record`]), the same bytes a
//! WAL or session-journal record has:
//!
//! ```text
//! [u32 len (LE)] [u32 crc32(payload) (LE)] [payload: len bytes]
//! ```
//!
//! `len` counts the payload only; a flipped bit anywhere in the payload
//! is rejected before the payload is parsed. The first payload byte is
//! the opcode (see [`crate::proto`]). What this module adds is the
//! blocking stream read, its error vocabulary and [`MAX_FRAME_LEN`].
//!
//! Framing errors are reported as [`sqlengine::Error::Net`]: read/write
//! timeouts and connection resets are *transient* (a reconnect plus
//! re-submission may fix them, feeding [`sqlem`'s retry policy]); an
//! oversized length prefix or a CRC mismatch is *permanent* — on a
//! healthy TCP stream those mean a protocol bug or a hostile peer, and
//! retrying reproduces them.
//!
//! [`sqlem`'s retry policy]: ../../sqlem/struct.RetryPolicy.html

use std::io::{ErrorKind, Read, Write};

use sqlengine::storage::codec::{crc32, put_record, record_header, RECORD_HEADER_LEN};
use sqlengine::{Error, Result};

/// Hard ceiling on a single frame's payload, defending both sides
/// against a corrupt or hostile length prefix asking for gigabytes.
/// Bulk inserts chunk themselves well below this (see
/// [`crate::client::RemoteConnection`]).
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Classify an I/O failure while talking to the peer: timeouts and
/// resets are transient wire conditions, anything else permanent.
pub fn io_to_net(context: &str, e: &std::io::Error) -> Error {
    let transient = matches!(
        e.kind(),
        ErrorKind::WouldBlock
            | ErrorKind::TimedOut
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof
            | ErrorKind::Interrupted
            | ErrorKind::ConnectionRefused
    );
    if transient {
        Error::net_transient(context, e.to_string())
    } else {
        Error::net_permanent(context, e.to_string())
    }
}

/// Encode `payload` as one frame (header + payload), ready to write.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_record(&mut out, payload);
    out
}

/// Write one frame to `w` and flush it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(Error::net_permanent(
            "send frame",
            format!("payload of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    let frame = encode_frame(payload);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| io_to_net("send frame", &e))
}

/// Read one frame from `r`, verifying the length bound and checksum.
///
/// A clean EOF *before any header byte* is reported as a transient
/// `Net` error with the message `"connection closed"` — the peer hung
/// up between messages, which a reconnect fixes. EOF in the middle of
/// a frame is a transient reset (the write was torn).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut header = [0u8; RECORD_HEADER_LEN];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(Error::net_transient(
                    "read frame",
                    if got == 0 {
                        "connection closed".to_string()
                    } else {
                        format!("connection reset inside frame header ({got}/8 bytes)")
                    },
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_to_net("read frame header", &e)),
        }
    }
    let (len, crc) = record_header(&header);
    if len > MAX_FRAME_LEN {
        return Err(Error::net_permanent(
            "read frame",
            format!("length prefix {len} exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| io_to_net("read frame payload", &e))?;
    let actual = crc32(&payload);
    if actual != crc {
        return Err(Error::net_permanent(
            "read frame",
            format!("payload checksum mismatch: header {crc:#010x}, computed {actual:#010x}"),
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::storage::codec::put_u32;

    #[test]
    fn frame_roundtrip() {
        let payload = b"\x01hello wire".to_vec();
        let framed = encode_frame(&payload);
        let mut cursor = &framed[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let framed = encode_frame(&[]);
        let mut cursor = &framed[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bit_flip_rejected_as_permanent() {
        let framed = encode_frame(b"payload under test");
        for i in 8..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            let mut cursor = &bad[..];
            match read_frame(&mut cursor) {
                Err(e) => assert!(!e.is_transient(), "flip at byte {i}: {e}"),
                Ok(_) => panic!("flip at byte {i} went undetected"),
            }
        }
    }

    #[test]
    fn truncation_rejected_as_transient() {
        let framed = encode_frame(b"will be cut short");
        // Any strict prefix is either a torn header or a torn payload —
        // both the signature of a connection dying mid-write.
        for cut in 0..framed.len() {
            let mut cursor = &framed[..cut];
            let e = read_frame(&mut cursor).unwrap_err();
            assert!(e.is_transient(), "cut at {cut}: {e}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bad = Vec::new();
        put_u32(&mut bad, (MAX_FRAME_LEN + 1) as u32);
        put_u32(&mut bad, 0);
        let mut cursor = &bad[..];
        let e = read_frame(&mut cursor).unwrap_err();
        assert!(!e.is_transient(), "{e}");
    }
}
