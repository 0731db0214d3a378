//! The binary tile message format (`DMB1`): the only form in which the
//! real transport ships tiles.
//!
//! A binary message rides the same length-prefixed envelope as JSON
//! frames ([`crate::transport::frame`]); the two are distinguished by
//! the leading bytes — JSON always starts with `{`, a binary message
//! with the magic `"DMB1"`. Inside the envelope:
//!
//! ```text
//! offset  size      field
//! 0       4         magic  "DMB1"
//! 4       4         hlen   u32 LE, length of the JSON header
//! 8       hlen      header UTF-8 JSON (control fields: t, q, rid …)
//! 8+hlen  4         blen   u32 LE, length of the binary body
//! 12+hlen blen      body   tile section or raw f64 section
//! …       8         sum    u64 LE, FNV-1a-64 over every prior byte
//! ```
//!
//! The trailer authenticates the whole message (magic, lengths, header
//! and body), so any single corrupted byte fails decode with a typed
//! error. Control semantics stay in the JSON header; only bulk payload
//! (tile data, fused scalar constants) moves to the body.
//!
//! ## Tile section
//!
//! ```text
//! u32 count
//! per tile:
//!   u32 w, u32 bi, u32 bj, u8 kind (0 dense | 1 sparse),
//!   u32 rows, u32 cols,
//!   dense:  u32 n  (must equal rows·cols), n × f64 LE
//!   sparse: u32 np (col_ptrs), np × u32 LE,
//!           u32 ni (row_indices), ni × u32 LE,
//!           u32 nv (values, must equal ni), nv × f64 LE
//! ```
//!
//! Decoding re-validates through [`DenseBlock::from_vec`] /
//! [`CscBlock::from_csc`], the blocks' own validating constructors — a corrupt frame
//! cannot smuggle a malformed block into a store. All counts are
//! bounds-checked against the remaining buffer *before* allocation, so
//! an adversarial length cannot balloon memory.
//!
//! ## f64 section
//!
//! Raw little-endian IEEE-754 bit patterns, 8 bytes per value — used
//! for fused-program scalar constants (`{"o":"scale","ci":0}` in the
//! header indexes into this section). Bit patterns are preserved
//! exactly, including NaN payloads and signed zeros.

use dmac_matrix::{Block, CscBlock, DenseBlock};

use crate::transport::wire::Fnv64;

/// Leading magic of a binary message.
pub const MAGIC: &[u8; 4] = b"DMB1";

/// Fixed overhead of a binary message: magic + two length words + trailer.
const SHELL: usize = 4 + 4 + 4 + 8;

/// True when a frame payload is a binary message rather than JSON.
pub fn is_binary(payload: &[u8]) -> bool {
    payload.len() >= 4 && &payload[..4] == MAGIC
}

/// Assemble a binary message from a JSON header and a body.
pub fn encode(header: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SHELL + header.len() + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    let mut h = Fnv64::new();
    h.update(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Split a binary message into its JSON header and body, verifying the
/// magic, both length fields and the FNV-1a trailer. Every malformed
/// input is a typed error; nothing panics and nothing over-allocates.
pub fn decode(payload: &[u8]) -> Result<(&str, &[u8]), String> {
    if payload.len() < SHELL {
        return Err(format!(
            "binary message of {} bytes is short",
            payload.len()
        ));
    }
    if &payload[..4] != MAGIC {
        return Err("binary message lacks DMB1 magic".into());
    }
    let hlen = u32::from_le_bytes(payload[4..8].try_into().unwrap()) as usize;
    let body_off = 8usize
        .checked_add(hlen)
        .and_then(|o| o.checked_add(4))
        .ok_or_else(|| "binary header length overflows".to_string())?;
    if body_off + 8 > payload.len() {
        return Err(format!("binary header length {hlen} exceeds message"));
    }
    let header = std::str::from_utf8(&payload[8..8 + hlen])
        .map_err(|_| "binary header is not UTF-8".to_string())?;
    let blen = u32::from_le_bytes(payload[8 + hlen..body_off].try_into().unwrap()) as usize;
    let trailer_off = body_off
        .checked_add(blen)
        .ok_or_else(|| "binary body length overflows".to_string())?;
    if trailer_off + 8 != payload.len() {
        return Err(format!(
            "binary body length {blen} does not match message size"
        ));
    }
    let mut h = Fnv64::new();
    h.update(&payload[..trailer_off]);
    let want = u64::from_le_bytes(payload[trailer_off..].try_into().unwrap());
    if h.finish() != want {
        return Err(format!(
            "binary message checksum mismatch (got {:016x}, want {want:016x})",
            h.finish()
        ));
    }
    Ok((header, &payload[body_off..trailer_off]))
}

/// On-wire size of one tile inside the tile section.
pub fn tile_wire_len(tile: &Block) -> usize {
    // w/bi/bj + kind + rows/cols
    let head = 4 * 3 + 1 + 4 * 2;
    match tile {
        Block::Dense(d) => head + 4 + d.data().len() * 8,
        Block::Sparse(s) => {
            head + 4
                + s.col_ptrs().len() * 4
                + 4
                + s.row_indices().len() * 4
                + 4
                + s.values().len() * 8
        }
    }
}

fn push_u32(buf: &mut Vec<u8>, v: usize) {
    buf.extend_from_slice(&(v as u32).to_le_bytes());
}

fn push_f64s(buf: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Append one placed tile to a tile-section buffer (the caller owns the
/// leading count word via [`encode_tiles`] or writes it itself).
pub fn push_tile(buf: &mut Vec<u8>, w: usize, bi: usize, bj: usize, tile: &Block) {
    push_u32(buf, w);
    push_u32(buf, bi);
    push_u32(buf, bj);
    match tile {
        Block::Dense(d) => {
            buf.push(0);
            push_u32(buf, d.rows());
            push_u32(buf, d.cols());
            push_u32(buf, d.data().len());
            push_f64s(buf, d.data());
        }
        Block::Sparse(s) => {
            buf.push(1);
            push_u32(buf, s.rows());
            push_u32(buf, s.cols());
            push_u32(buf, s.col_ptrs().len());
            for &p in s.col_ptrs() {
                buf.extend_from_slice(&p.to_le_bytes());
            }
            push_u32(buf, s.row_indices().len());
            for &i in s.row_indices() {
                buf.extend_from_slice(&i.to_le_bytes());
            }
            push_u32(buf, s.values().len());
            push_f64s(buf, s.values());
        }
    }
}

/// Encode a batch of placed tiles as a tile section.
pub fn encode_tiles<'t>(
    tiles: impl IntoIterator<Item = (usize, usize, usize, &'t Block)>,
) -> Vec<u8> {
    let mut buf = vec![0u8; 4];
    let mut count = 0u32;
    for (w, bi, bj, tile) in tiles {
        push_tile(&mut buf, w, bi, bj, tile);
        count += 1;
    }
    buf[..4].copy_from_slice(&count.to_le_bytes());
    buf
}

/// Incremental reader over a body slice with bounds-checked takes.
struct Cursor<'b> {
    buf: &'b [u8],
    at: usize,
}

impl<'b> Cursor<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| "tile section truncated".to_string())?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A count of `elem` sized records, rejected before allocation when
    /// the remaining buffer cannot possibly hold it.
    fn count(&mut self, elem: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem) > self.buf.len() - self.at {
            return Err(format!("tile section count {n} exceeds remaining bytes"));
        }
        Ok(n)
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, String> {
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

/// Decode a tile section produced by [`encode_tiles`]/[`push_tile`].
/// Block invariants are re-validated; trailing garbage is rejected.
pub fn decode_tiles(body: &[u8]) -> Result<Vec<(usize, usize, usize, Block)>, String> {
    let mut c = Cursor { buf: body, at: 0 };
    // Minimum 21 bytes of fixed fields per tile bounds the count.
    let count = c.count(21)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let w = c.u32()? as usize;
        let bi = c.u32()? as usize;
        let bj = c.u32()? as usize;
        let kind = c.take(1)?[0];
        let rows = c.u32()? as usize;
        let cols = c.u32()? as usize;
        let tile = match kind {
            0 => {
                let n = c.count(8)?;
                let data = c.f64s(n)?;
                Block::Dense(
                    DenseBlock::from_vec(rows, cols, data)
                        .map_err(|e| format!("dense tile malformed: {e}"))?,
                )
            }
            1 => {
                let np = c.count(4)?;
                let ptrs = c.u32s(np)?;
                let ni = c.count(4)?;
                let idx = c.u32s(ni)?;
                let nv = c.count(8)?;
                let vals = c.f64s(nv)?;
                Block::Sparse(
                    CscBlock::from_csc(rows, cols, ptrs, idx, vals)
                        .map_err(|e| format!("sparse tile malformed: {e}"))?,
                )
            }
            other => return Err(format!("unknown binary tile kind {other}")),
        };
        out.push((w, bi, bj, tile));
    }
    if c.at != body.len() {
        return Err(format!(
            "tile section has {} trailing bytes",
            body.len() - c.at
        ));
    }
    Ok(out)
}

/// Encode a raw f64 section (fused scalar constants).
pub fn encode_f64s(vals: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vals.len() * 8);
    push_f64s(&mut buf, vals);
    buf
}

/// Decode a raw f64 section, bit-exactly.
pub fn decode_f64s(body: &[u8]) -> Result<Vec<f64>, String> {
    if !body.len().is_multiple_of(8) {
        return Err(format!("f64 section of {} bytes is ragged", body.len()));
    }
    Ok(body
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures() -> Vec<(usize, usize, usize, Block)> {
        vec![
            (
                0,
                1,
                2,
                Block::Dense(
                    DenseBlock::from_vec(2, 2, vec![0.1 + 0.2, -0.0, f64::NAN, 3.0]).unwrap(),
                ),
            ),
            (
                3,
                0,
                0,
                Block::Sparse(
                    CscBlock::from_csc(
                        3,
                        2,
                        vec![0, 2, 3],
                        vec![0, 2, 1],
                        vec![1.5, -0.25, 1e-300],
                    )
                    .unwrap(),
                ),
            ),
        ]
    }

    fn bits_of(b: &Block) -> Vec<u64> {
        match b {
            Block::Dense(d) => d.data().iter().map(|v| v.to_bits()).collect(),
            Block::Sparse(s) => s.values().iter().map(|v| v.to_bits()).collect(),
        }
    }

    #[test]
    fn message_round_trips() {
        let body = encode_tiles(fixtures().iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
        let msg = encode(r#"{"t":"install","rid":7}"#, &body);
        assert!(is_binary(&msg));
        let (head, got) = decode(&msg).unwrap();
        assert_eq!(head, r#"{"t":"install","rid":7}"#);
        assert_eq!(got, &body[..]);
        let tiles = decode_tiles(got).unwrap();
        assert_eq!(tiles.len(), 2);
        for ((w, bi, bj, a), (gw, gbi, gbj, b)) in fixtures().iter().zip(&tiles) {
            assert_eq!((w, bi, bj), (gw, gbi, gbj));
            assert_eq!(bits_of(a), bits_of(b));
            assert_eq!(a.actual_bytes(), b.actual_bytes());
        }
    }

    #[test]
    fn tile_wire_len_is_exact() {
        for (w, bi, bj, t) in fixtures() {
            let body = encode_tiles([(w, bi, bj, &t)]);
            assert_eq!(body.len(), 4 + tile_wire_len(&t));
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let body = encode_tiles(fixtures().iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
        let msg = encode(r#"{"t":"push","rid":1}"#, &body);
        for at in 0..msg.len() {
            let mut bad = msg.clone();
            bad[at] ^= 0x40;
            let res = decode(&bad);
            assert!(res.is_err(), "flip at {at} slipped through");
        }
    }

    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let body = encode_tiles(fixtures().iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
        let msg = encode("{}", &body);
        for cut in 0..msg.len() {
            assert!(decode(&msg[..cut]).is_err(), "cut at {cut} slipped through");
        }
    }

    #[test]
    fn oversize_counts_fail_before_allocation() {
        // A tile section claiming u32::MAX tiles in a 4-byte body.
        let body = u32::MAX.to_le_bytes().to_vec();
        assert!(decode_tiles(&body).is_err());
        // Dense payload count far past the buffer.
        let mut body = 1u32.to_le_bytes().to_vec();
        push_u32(&mut body, 0);
        push_u32(&mut body, 0);
        push_u32(&mut body, 0);
        body.push(0);
        push_u32(&mut body, 2);
        push_u32(&mut body, 2);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_tiles(&body).is_err());
    }

    #[test]
    fn f64_section_round_trips_nan_and_zero_signs() {
        let vals = vec![
            f64::from_bits(0x7ff8_0000_0000_0001), // NaN with payload
            f64::from_bits(0xfff0_0000_0000_0000), // -inf
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
        ];
        let body = encode_f64s(&vals);
        let back = decode_f64s(&body).unwrap();
        let bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
        assert!(decode_f64s(&body[..body.len() - 1]).is_err());
    }
}
