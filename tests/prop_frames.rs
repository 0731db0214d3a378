//! Property/fuzz tests for the shared wire layer: the length-prefixed
//! frame codec ([`dmac::cluster::transport::frame`]) and the strict JSON
//! decoder ([`dmac::cluster::jsonin`]) that every protocol in the
//! workspace (serve clients, coordinator ↔ `dmac-workerd`) sits on.
//!
//! The contract under test: **no input — truncated, oversized, or pure
//! garbage — may panic or hang the decoder**. Every malformed input must
//! surface as a typed error (`io::ErrorKind` for frames, `JsonError` for
//! JSON), and every well-formed input must round-trip bit-exactly.
//! Cases are drawn from the in-tree [`SplitMix64`] generator with fixed
//! seeds, so failures replay deterministically — same idiom as
//! `tests/prop_kernels.rs`.

use std::io::ErrorKind;

use dmac::cluster::jsonin::Json;
use dmac::cluster::transport::frame::{read_frame, write_frame, MAX_FRAME};
use dmac::cluster::transport::{binfmt, workerd};
use dmac::matrix::{Block, CscBlock, DenseBlock, SplitMix64};

/// A printable-ish random payload (valid UTF-8 by construction).
fn payload(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| (0x20 + rng.below(0x5f) as u8) as char)
        .collect()
}

/// Drain a byte buffer through `read_frame` until EOF or error. Returns
/// the decoded frames and the terminal outcome. Reading from a slice
/// cannot block, and every call consumes input or terminates, so this
/// provably cannot hang.
fn drain(bytes: &[u8]) -> (Vec<String>, Option<ErrorKind>) {
    let mut r = bytes;
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut r) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e.kind())),
        }
    }
}

/// Well-formed frame streams decode back to the exact payload sequence.
#[test]
fn round_trip_random_frame_streams() {
    let mut rng = SplitMix64::new(0xF4A3_0001);
    for _ in 0..200 {
        let n = rng.below(8);
        let payloads: Vec<String> = (0..n).map(|_| payload(&mut rng, 300)).collect();
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let (frames, err) = drain(&buf);
        assert_eq!(err, None, "clean stream must end at a frame boundary");
        assert_eq!(frames, payloads);
    }
}

/// Truncating a valid stream at *any* byte offset yields a prefix of the
/// original payloads followed by clean EOF (cut exactly at a boundary)
/// or a typed `UnexpectedEof` — never a panic, never garbage frames.
#[test]
fn truncation_at_every_offset_is_typed() {
    let mut rng = SplitMix64::new(0xF4A3_0002);
    let payloads: Vec<String> = (0..4).map(|_| payload(&mut rng, 40)).collect();
    let mut buf = Vec::new();
    for p in &payloads {
        write_frame(&mut buf, p).unwrap();
    }
    for cut in 0..buf.len() {
        let (frames, err) = drain(&buf[..cut]);
        assert!(
            frames.len() <= payloads.len(),
            "cut {cut}: more frames out than in"
        );
        for (a, b) in frames.iter().zip(payloads.iter()) {
            assert_eq!(a, b, "cut {cut}: decoded frame diverged");
        }
        match err {
            None => {} // cut landed exactly on a frame boundary
            Some(k) => assert_eq!(k, ErrorKind::UnexpectedEof, "cut {cut}"),
        }
    }
}

/// A length prefix past `MAX_FRAME` is rejected as `InvalidData` before
/// any allocation, whatever follows it.
#[test]
fn oversized_length_prefix_is_rejected() {
    let mut rng = SplitMix64::new(0xF4A3_0003);
    for _ in 0..200 {
        let n = (MAX_FRAME as u64 + 1 + rng.below(u32::MAX as usize) as u64).min(u32::MAX as u64);
        let mut buf = (n as u32).to_be_bytes().to_vec();
        let tail = rng.below(64);
        buf.extend(std::iter::repeat_n(0u8, tail));
        let (frames, err) = drain(&buf);
        assert!(frames.is_empty());
        assert_eq!(err, Some(ErrorKind::InvalidData));
    }
}

/// Non-UTF-8 payload bytes are a typed `InvalidData`, not a panic.
#[test]
fn non_utf8_payloads_are_rejected() {
    let mut rng = SplitMix64::new(0xF4A3_0004);
    for _ in 0..200 {
        let len = 1 + rng.below(32);
        let mut body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Force at least one invalid byte so the case never degenerates.
        let at = rng.below(len);
        body[at] = 0xFF;
        let mut buf = (len as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        let (_, err) = drain(&buf);
        assert!(
            matches!(err, Some(ErrorKind::InvalidData | ErrorKind::UnexpectedEof)),
            "got {err:?}"
        );
    }
}

/// Pure byte soup: whatever the stream, the decoder terminates with
/// frames + a typed outcome. (Random 4-byte prefixes are almost always
/// oversized or truncated; the loop also covers small-length accidents.)
#[test]
fn garbage_streams_never_panic() {
    let mut rng = SplitMix64::new(0xF4A3_0005);
    for _ in 0..500 {
        let len = rng.below(257);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let (_, err) = drain(&bytes);
        if let Some(k) = err {
            assert!(
                matches!(k, ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "got {k:?}"
            );
        }
    }
}

/// The strict JSON decoder never panics on arbitrary printable input,
/// and anything it accepts it accepts deterministically.
#[test]
fn json_decoder_survives_garbage() {
    let mut rng = SplitMix64::new(0xF4A3_0006);
    for _ in 0..500 {
        let s = payload(&mut rng, 200);
        let a = Json::parse(&s).is_ok();
        let b = Json::parse(&s).is_ok();
        assert_eq!(a, b);
    }
}

/// A random tile: arbitrary f64 bit patterns (incl. NaN/inf territory),
/// dense or CSC at random.
fn random_tile(rng: &mut SplitMix64) -> Block {
    let rows = 1 + rng.below(6);
    let cols = 1 + rng.below(6);
    let dense = DenseBlock::from_fn(rows, cols, |_, _| {
        if rng.below(3) == 0 {
            0.0
        } else {
            f64::from_bits(rng.next_u64())
        }
    });
    if rng.below(2) == 0 {
        Block::Dense(dense)
    } else {
        Block::Sparse(CscBlock::from_dense(&dense))
    }
}

/// The binary `DMB1` codec: random tile batches round-trip exactly, and
/// decoded tiles re-encode to the byte-identical section — the encoding
/// is canonical, so decode∘encode is the identity on bytes too.
#[test]
fn binary_tile_messages_round_trip_canonically() {
    let mut rng = SplitMix64::new(0xF4A3_0008);
    for _ in 0..100 {
        let n = rng.below(5);
        let tiles: Vec<(usize, usize, usize, Block)> = (0..n)
            .map(|_| {
                (
                    rng.below(4),
                    rng.below(6),
                    rng.below(6),
                    random_tile(&mut rng),
                )
            })
            .collect();
        let body = binfmt::encode_tiles(tiles.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
        let header = format!(r#"{{"t":"push","rid":{}}}"#, rng.next_u64() >> 32);
        let msg = binfmt::encode(&header, &body);
        assert!(binfmt::is_binary(&msg));
        let (h, b) = binfmt::decode(&msg).expect("clean message must decode");
        assert_eq!(h, header);
        let decoded = binfmt::decode_tiles(b).expect("clean tile section must decode");
        assert_eq!(decoded.len(), tiles.len());
        let re = binfmt::encode_tiles(decoded.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
        assert_eq!(re, body, "decode then encode must be byte-identical");
    }
}

/// Truncating a binary message (or a bare tile section) at *any* byte
/// offset is a typed decode error — the structural length checks and the
/// trailing-checksum placement make every proper prefix invalid.
#[test]
fn binary_truncation_at_every_offset_is_rejected() {
    let mut rng = SplitMix64::new(0xF4A3_0009);
    let tiles: Vec<(usize, usize, usize, Block)> = (0..3)
        .map(|i| (i, i + 1, i + 2, random_tile(&mut rng)))
        .collect();
    let body = binfmt::encode_tiles(tiles.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
    let msg = binfmt::encode(r#"{"t":"push","rid":9}"#, &body);
    for cut in 0..msg.len() {
        assert!(
            binfmt::decode(&msg[..cut]).is_err(),
            "cut at {cut} must not decode"
        );
    }
    for cut in 0..body.len() {
        assert!(
            binfmt::decode_tiles(&body[..cut]).is_err(),
            "tile section cut at {cut} must not decode"
        );
    }
}

/// Flipping any single bit of a binary message is caught — by the magic
/// check, a structural length check, or the FNV-1a trailer — never
/// silently accepted, never a panic.
#[test]
fn binary_bit_flips_never_decode() {
    let mut rng = SplitMix64::new(0xF4A3_000A);
    let tiles: Vec<(usize, usize, usize, Block)> =
        (0..2).map(|i| (i, i, i, random_tile(&mut rng))).collect();
    let body = binfmt::encode_tiles(tiles.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
    let msg = binfmt::encode(r#"{"t":"install","rid":3}"#, &body);
    for at in 0..msg.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut m = msg.clone();
            m[at] ^= bit;
            assert!(
                binfmt::decode(&m).is_err(),
                "flip of bit {bit:#04x} at byte {at} must not decode"
            );
        }
    }
}

/// Oversized counts — a tile count or element count far past the actual
/// body — fail *before* any proportional allocation, whatever random
/// garbage follows.
#[test]
fn binary_oversize_counts_fail_before_allocation() {
    let mut rng = SplitMix64::new(0xF4A3_000B);
    for _ in 0..100 {
        // Huge tile count over a tiny body.
        let count = (1u64 << 31) as u32 + rng.below(1 << 20) as u32;
        let mut body = count.to_le_bytes().to_vec();
        let tail = rng.below(64);
        body.extend((0..tail).map(|_| rng.next_u64() as u8));
        assert!(binfmt::decode_tiles(&body).is_err());
    }
    // A dense tile whose element count promises gigabytes the body
    // doesn't have.
    let mut body = 1u32.to_le_bytes().to_vec();
    for field in [0u32, 0, 0] {
        body.extend(field.to_le_bytes()); // w, bi, bj
    }
    body.push(0); // dense
    body.extend(4u32.to_le_bytes()); // rows
    body.extend(4u32.to_le_bytes()); // cols
    body.extend(0x3FFF_FFFFu32.to_le_bytes()); // element count
    body.extend([0u8; 16]);
    assert!(binfmt::decode_tiles(&body).is_err());
}

/// Mutating one byte of a well-formed worker command either still parses
/// (the mutation hit a value) or fails with a typed `JsonError` — the
/// decoder itself must never panic on near-miss protocol frames.
#[test]
fn mutated_commands_fail_typed() {
    let base = r#"{"t":"install","rid":"00000000000000ff","tiles":["0_1_x"],"n":3}"#;
    let mut rng = SplitMix64::new(0xF4A3_0007);
    for _ in 0..500 {
        let mut bytes = base.as_bytes().to_vec();
        let at = rng.below(bytes.len());
        bytes[at] = 0x20 + rng.below(0x5f) as u8;
        if let Ok(s) = String::from_utf8(bytes) {
            let _ = Json::parse(&s); // Ok or Err(JsonError) — both fine; a panic fails the test
        }
    }
}

/// Tiles travel only as binary `DMB1` sections: a peer `push` frame with
/// no binary body — the retired hex-JSON tile form, as written or with
/// any byte mutated — decodes to a typed error, never a panic, while
/// the same tiles as a binary push decode cleanly.
#[test]
fn json_tile_push_frames_are_rejected_typed() {
    let json = r#"{"t":"push","rid":9,"tiles":[{"w":0,"bi":1,"bj":2,"k":"d","r":1,"c":1,"d":"3ff0000000000000"}]}"#;
    assert!(workerd::decode_push(json.as_bytes()).is_err());
    let mut rng = SplitMix64::new(0xF4A3_000C);
    for _ in 0..500 {
        let mut bytes = json.as_bytes().to_vec();
        let at = rng.below(bytes.len());
        bytes[at] = rng.next_u64() as u8;
        assert!(workerd::decode_push(&bytes).is_err());
    }
    // A binary push whose body is empty is not a tile section either.
    let empty = binfmt::encode(r#"{"t":"push","rid":9}"#, &[]);
    assert!(workerd::decode_push(&empty).is_err());

    let tile = Block::Dense(DenseBlock::from_vec(1, 1, vec![1.0]).unwrap());
    let body = binfmt::encode_tiles([(0, 1, 2, &tile)]);
    let msg = binfmt::encode(r#"{"t":"push","rid":9}"#, &body);
    let (rid, tiles) = workerd::decode_push(&msg).expect("binary push must decode");
    assert_eq!(rid, 9);
    assert_eq!(tiles.len(), 1);
    assert_eq!((tiles[0].0, tiles[0].1, tiles[0].2), (0, 1, 2));
}
