//! Length-prefixed frame codec shared by every wire protocol in the
//! workspace: the `dmac-serve` client/server protocol and the
//! coordinator ↔ `dmac-workerd` transport both speak frames of a
//! big-endian `u32` byte length followed by that many payload bytes.
//!
//! Two payload shapes ride the same envelope: UTF-8 JSON (control
//! messages) and the binary tile messages of [`crate::transport::binfmt`], which are
//! distinguished by a leading magic (JSON always starts with `{`). The
//! string API (`write_frame`/`read_frame`) enforces UTF-8 and is what
//! serve re-exports; the byte API (`write_frame_bytes`/
//! `read_frame_bytes`) carries either shape.
//!
//! The codec lives here (rather than in `crates/serve`, where it
//! originated) because the cluster's real transport backend is the
//! lowest layer that needs it.

use std::io::{self, Read, Write};

/// Hard cap on frame size (64 MiB): a corrupt length prefix must not
/// look like a 4 GiB allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Envelope bytes added to every frame (the `u32` length prefix).
pub const FRAME_OVERHEAD: u64 = 4;

/// Total on-wire size of a frame carrying `payload_len` bytes — the
/// single place frame accounting is defined, so the JSON and binary
/// paths cannot drift apart in their `frame_bytes` metering.
pub fn framed_len(payload_len: usize) -> u64 {
    payload_len as u64 + FRAME_OVERHEAD
}

/// Write one frame with an arbitrary byte payload.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's raw payload. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary.
pub fn read_frame_bytes(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_be_bytes(len);
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; n as usize];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Write one UTF-8 frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    write_frame_bytes(w, payload.as_bytes())
}

/// Read one UTF-8 frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    match read_frame_bytes(r)? {
        None => Ok(None),
        Some(buf) => String::from_utf8(buf)
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"t\":\"hb\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"t\":\"hb\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn byte_frames_round_trip_non_utf8() {
        let payload = [0xffu8, 0x00, 0xde, 0xad];
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, &payload).unwrap();
        assert_eq!(buf.len() as u64, framed_len(payload.len()));
        let mut r = &buf[..];
        assert_eq!(
            read_frame_bytes(&mut r).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(read_frame_bytes(&mut r).unwrap(), None);
    }

    #[test]
    fn framed_len_is_payload_plus_envelope() {
        assert_eq!(framed_len(0), FRAME_OVERHEAD);
        assert_eq!(framed_len(10), 14);
        let mut buf = Vec::new();
        write_frame(&mut buf, "abcdefghij").unwrap();
        assert_eq!(buf.len() as u64, framed_len(10));
    }

    #[test]
    fn oversize_length_prefix_is_typed_error() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xxxx");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_unexpected_eof() {
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn non_utf8_payload_is_invalid_data() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
