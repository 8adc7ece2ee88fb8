//! Length-prefixed framing.
//!
//! Frame format: `[u32 little-endian length][length bytes]`; the
//! payload is one [`crate::message`] envelope. A length cap rejects
//! absurd frames, and the read buffer grows with the bytes that
//! actually arrive, so a malformed or malicious peer cannot make the
//! server allocate on the strength of a header alone.

use std::io::{Read, Write};

/// Maximum accepted frame length (64 MiB) — far above any Mayflower
/// control message, far below a memory-exhaustion attack.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// What [`read_frame`] reserves before any payload byte has arrived.
const READ_RESERVE: usize = 8 << 10;

/// Writes one frame and flushes `w`.
///
/// # Errors
///
/// Returns an error if `payload` exceeds [`MAX_FRAME_LEN`] or on I/O
/// failure.
pub fn write_frame<W: Write>(mut w: W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean EOF (no bytes read).
///
/// # Errors
///
/// Returns an error on I/O failure, a truncated frame, or a frame
/// longer than [`MAX_FRAME_LEN`].
pub fn read_frame<R: Read>(mut r: R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF from a torn header.
    match r.read(&mut len_buf)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_buf[n..])?,
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    // The header is the peer's claim, not bytes in hand: reserve a
    // little and let `read_to_end` grow the buffer as the body arrives.
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "frame body ends early",
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"third frame").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"third frame");
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cur = Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn torn_header_is_error() {
        let mut cur = Cursor::new(vec![5u8, 0]);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn torn_body_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn read_buffer_follows_the_bytes_not_the_header() {
        /// Records the largest buffer `read` was ever offered.
        struct Offered<R> {
            inner: R,
            largest: usize,
        }
        impl<R: Read> Read for Offered<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.inner.read(buf)
            }
        }
        // The header claims the maximum; ten bytes follow, then EOF.
        let mut bytes = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1u8; 10]);
        let mut r = Offered {
            inner: Cursor::new(bytes),
            largest: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(r.largest <= 64 << 10, "offered {} bytes", r.largest);
    }

    #[test]
    fn oversize_frame_rejected_on_both_sides() {
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut cur = Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cur).is_err());
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(Vec::new(), &payload).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    proptest! {
        /// Any sequence of payloads survives a write/read roundtrip.
        #[test]
        fn frames_roundtrip(payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 0..20)) {
            let mut buf = Vec::new();
            for p in &payloads {
                write_frame(&mut buf, p).unwrap();
            }
            let mut cur = Cursor::new(buf);
            for p in &payloads {
                prop_assert_eq!(&read_frame(&mut cur).unwrap().unwrap(), p);
            }
            prop_assert!(read_frame(&mut cur).unwrap().is_none());
        }
    }
}
