//! The one block codec: how `f32`s cross a byte stream, on disk and on the
//! wire.
//!
//! A checkpoint file (`hcc_mf::checkpoint`) and a socket frame
//! ([`crate::frame`]) are one kind of message:
//!
//! ```text
//! header (the caller's) │ sections of f32 at a Precision │ CRC-32 (u32 LE)
//! ```
//!
//! with the CRC over everything from an offset the caller picks: 0 for a
//! checkpoint, 4 for a frame (after its magic). A caller owns its header —
//! what is in it and how it is validated — and this module owns the rest.
//!
//! **Ownership rule: the codec allocates nothing.** Both directions stream
//! through one block of bytes the caller owns, at most [`BLOCK`] long:
//!
//! * [`write()`] copies the header into the block, packs the sections after
//!   it a blockful at a time and writes each full block; the trailer rides
//!   in the last block when it fits, so a message shorter than the block is
//!   one `write` call.
//! * [`read`] folds the header the caller has read and validated into the
//!   CRC, takes the body a blockful per `read_exact` (the last read takes
//!   the trailer along when it fits), folds each read into the CRC, unpacks
//!   it straight into the caller's destinations and compares the trailer
//!   last.
//!
//! The bytes do not depend on the block size; only the calls do. Because a
//! destination is filled *before* the CRC verdict, a rejected message may
//! have left part of itself there: a caller lands a message only where that
//! is harmless (the socket's landing rule, [`crate::socket`]) or drops the
//! destination with the error (the checkpoint reader). A caller checks its
//! header's lengths before it allocates a destination or calls [`read`],
//! so a header-level rejection reads no body byte and allocates nothing.
//!
//! [`Crc32`] is the workspace's one CRC: the frame trailer and the
//! checkpoint-v2 footer are byte for byte the same checksum. On an x86-64
//! CPU with PCLMULQDQ it folds whole 16-byte blocks by carry-less
//! multiplication (`clmul.rs`): about 20 GB/s on a 2.1 GHz x86-64 box,
//! 0.05 ms per MiB. The slicing-by-8 table loop (1.4 GB/s, 0.75 ms per MiB)
//! takes inputs under 128 bytes, the tail under 16, everything on other
//! CPUs, and is the folding path's test oracle. A socket round trip
//! checksums its payload four times — send and receive of the request and
//! of the reply — so a 4 MiB pull + push pays about 0.8 ms of CRC;
//! `save_model` and `load_model` pay one pass each over the file.

use crate::transport::Precision;
use hcc_sgd::simd;
use std::io::{self, Read, Write};

/// Bytes of the block a message streams through, in either direction, and
/// so the most one `read` or `write` call moves. A constant, not a knob.
/// Large enough that the calls and the CRC's set-up vanish beside the copy:
/// a 4 MiB socket round trip reads the same within noise at 64 KiB, 256 KiB,
/// 1 MiB and whole-frame writes (UDS 14.6–16.0 ms, TCP 15.9–16.7 ms; an
/// earlier cut saw TCP lose a fifth at 64 KiB), and a 256 KiB read is still
/// in L2 when it is checksummed and unpacked. Not larger, because a `write`
/// is also the page cache's allocation unit: on Linux 6.18 / ext4 (large
/// folios) an 18 MiB file written in 1 MiB or 2 MiB calls takes 80–200 ms,
/// in calls of 64–256 KiB 4–8 ms (the kernel hunts for one contiguous folio
/// a call). Measured on a 2-vCPU 2.1 GHz x86-64 box. A checkpoint save or
/// load holds one block; a socket link one a worker at each end, capped at
/// its largest frame (DESIGN §4.2).
pub const BLOCK: usize = 256 << 10;

/// CRC trailer length in bytes.
pub const TRAILER_LEN: usize = 4;

/// Elements the fp16 packing converts per step through its stack scratch.
const FP16_LANE: usize = 512;

/// CRC-32/IEEE slicing-by-8 tables (reflected polynomial 0xEDB8_8320),
/// built at compile time: `[0]` is the classic byte table and `[s][b]` is
/// the CRC of byte `b` followed by `s` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        s += 1;
    }
    tables
};

/// A running CRC-32/IEEE (init `0xFFFF_FFFF`, final complement; check value
/// `crc32(b"123456789") == 0xCBF4_3926`), held complemented so that the
/// default value is the CRC of no bytes: feeding a buffer in any split
/// gives the CRC of the whole.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc32(u32);

impl Crc32 {
    /// Folds `data` in: whole 16-byte blocks by carry-less multiplication
    /// where the CPU has it and `data` is long enough, the rest by the
    /// table loop.
    pub fn update(&mut self, data: &[u8]) {
        let c = !self.0;
        #[cfg(target_arch = "x86_64")]
        let (c, data) = crate::clmul::fold_blocks(c, data);
        self.0 = !slicing_by_8(c, data);
    }

    /// The CRC of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.0
    }
}

/// Advances the CRC register `c` over `data`, eight bytes per step with a
/// byte loop for the tail: the portable path, and the oracle of the folding
/// one.
fn slicing_by_8(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32/IEEE over `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(data);
    crc.finish()
}

/// The trailer does not match the message it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadCrc {
    /// CRC carried in the trailer.
    pub expected: u32,
    /// CRC computed over the received bytes.
    pub got: u32,
}

/// Packs `src` into its little-endian bytes at `precision`; `dst` holds
/// exactly that many.
fn pack(precision: Precision, src: &[f32], dst: &mut [u8]) {
    match precision {
        Precision::Fp32 => {
            for (d, v) in dst.chunks_exact_mut(4).zip(src) {
                d.copy_from_slice(&v.to_le_bytes());
            }
        }
        Precision::Fp16 => {
            let mut half = [0u16; FP16_LANE];
            for (d, s) in dst.chunks_mut(2 * FP16_LANE).zip(src.chunks(FP16_LANE)) {
                simd::encode_f16(s, &mut half[..s.len()]);
                for (b, h) in d.chunks_exact_mut(2).zip(&half) {
                    b.copy_from_slice(&h.to_le_bytes());
                }
            }
        }
    }
}

/// Unpacks `wire` into `dst`, which holds exactly its elements.
fn unpack(precision: Precision, wire: &[u8], dst: &mut [f32]) {
    match precision {
        Precision::Fp32 => {
            for (v, c) in dst.iter_mut().zip(wire.chunks_exact(4)) {
                *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
        }
        Precision::Fp16 => {
            let mut half = [0u16; FP16_LANE];
            for (d, w) in dst.chunks_mut(FP16_LANE).zip(wire.chunks(2 * FP16_LANE)) {
                for (h, c) in half.iter_mut().zip(w.chunks_exact(2)) {
                    *h = u16::from_le_bytes([c[0], c[1]]);
                }
                simd::decode_f16(&half[..d.len()], d);
            }
        }
    }
}

/// Streams one message to `out` through `block`: `header`, then every
/// section packed at `precision`, then the CRC of everything from byte
/// `crc_from` of the header on. See the module docs for the calls it makes.
///
/// # Panics
/// Panics if `block` cannot hold `header` and the trailer.
pub fn write<W: Write>(
    out: &mut W,
    block: &mut [u8],
    header: &[u8],
    crc_from: usize,
    precision: Precision,
    sections: &[&[f32]],
) -> io::Result<()> {
    assert!(block.len() >= header.len() + TRAILER_LEN, "block too short");
    let bpe = precision.bytes_per_element() as usize;
    block[..header.len()].copy_from_slice(header);
    let mut crc = Crc32::default();
    // `block[unsummed..filled]` is packed but not yet in the CRC or on the
    // stream.
    let (mut unsummed, mut filled) = (crc_from, header.len());
    for mut rest in sections.iter().copied() {
        loop {
            let (now, later) = rest.split_at(rest.len().min((block.len() - filled) / bpe));
            pack(precision, now, &mut block[filled..filled + now.len() * bpe]);
            filled += now.len() * bpe;
            rest = later;
            if rest.is_empty() {
                break;
            }
            crc.update(&block[unsummed..filled]);
            out.write_all(&block[..filled])?;
            (unsummed, filled) = (0, 0);
        }
    }
    crc.update(&block[unsummed..filled]);
    if block.len() - filled < TRAILER_LEN {
        out.write_all(&block[..filled])?;
        filled = 0;
    }
    block[filled..filled + TRAILER_LEN].copy_from_slice(&crc.finish().to_le_bytes());
    out.write_all(&block[..filled + TRAILER_LEN])
}

/// Streams the body of a message whose `header` the caller has read and
/// validated: `body_len` bytes (whole elements) at `precision`, then the
/// CRC trailer, which covers `header` and the body.
///
/// The body is unpacked into `dsts` in order, each advanced past what it
/// received; what does not fit in them is only checksummed, so an empty
/// `dsts` checks a body without landing it. On `Ok(Err(_))`, and on an IO
/// error (a short stream included), **the destinations may hold part of
/// the refused body**.
///
/// # Panics
/// Panics if `block` is shorter than the trailer.
pub fn read<R: Read>(
    src: &mut R,
    block: &mut [u8],
    header: &[u8],
    precision: Precision,
    body_len: usize,
    dsts: &mut [&mut [f32]],
) -> io::Result<Result<(), BadCrc>> {
    assert!(block.len() >= TRAILER_LEN, "block too short for a trailer");
    let bpe = precision.bytes_per_element() as usize;
    let step = block.len() / bpe * bpe;
    let mut crc = Crc32::default();
    crc.update(header);
    let mut left = body_len;
    let expected = loop {
        let n = left.min(step);
        let last = n == left && block.len() - n >= TRAILER_LEN;
        let got = &mut block[..if last { n + TRAILER_LEN } else { n }];
        src.read_exact(got)?;
        let (mut wire, tail) = got.split_at(n);
        crc.update(wire);
        left -= n;
        for dst in dsts.iter_mut() {
            let fit = dst.len().min(wire.len() / bpe);
            let (now, later) = std::mem::take(dst).split_at_mut(fit);
            let (landed, rest) = wire.split_at(fit * bpe);
            unpack(precision, landed, now);
            (*dst, wire) = (later, rest);
        }
        if last {
            break u32::from_le_bytes(std::array::from_fn(|b| tail[b]));
        }
    };
    let got = crc.finish();
    Ok(if expected == got {
        Ok(())
    } else {
        Err(BadCrc { expected, got })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop every other path is checked against.
    fn bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// The folding path on its own, whatever `Crc32::update` would pick:
    /// whole blocks by CLMUL, the tail by the byte loop. On a CPU without the
    /// instruction nothing is folded and this is the byte loop.
    fn folded(c: u32, data: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        let (c, data) = crate::clmul::fold_blocks(c, data);
        bytewise(c, data)
    }

    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b1) >> 24) as u8)
            .collect()
    }

    #[test]
    fn crc32_matches_the_bytewise_loop() {
        // Every length across the 8-, 16-, 64- and 128-byte steps of the
        // three paths, at every start offset of an unaligned buffer, from a
        // register that is not the initial one.
        let buf = noise(4_200 + 16);
        for start in 0..16 {
            for len in 0..=4_200 {
                let data = &buf[start..start + len];
                let c = 0xFFFF_FFFF ^ (start * 4_201 + len) as u32;
                let want = bytewise(c, data);
                assert_eq!(
                    slicing_by_8(c, data),
                    want,
                    "tables: start {start} len {len}"
                );
                assert_eq!(folded(c, data), want, "clmul: start {start} len {len}");
                let mut crc = Crc32(!c);
                crc.update(data);
                assert_eq!(crc.finish(), !want, "update: start {start} len {len}");
            }
        }
    }

    #[test]
    fn update_over_seeded_random_splits_is_the_bytewise_crc() {
        use rand::{Rng, SeedableRng};
        // How `write` feeds it: a 16-byte header, fp16 lanes, blocks —
        // pieces under 16 and under 128 bytes between long ones.
        let buf = noise(70_000);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC1_0C);
        for case in 0..1_000 {
            let start = rng.random_range(0..64);
            let len = rng.random_range(0..buf.len() - start);
            let data = &buf[start..start + len];
            let mut crc = Crc32::default();
            let mut rest = data;
            while !rest.is_empty() {
                let most = [15usize, 127, 1_024, 65_536][rng.random_range(0..4usize)];
                let (piece, later) = rest.split_at(rng.random_range(0..=most.min(rest.len())));
                crc.update(piece);
                rest = later;
            }
            assert_eq!(
                crc.finish(),
                !bytewise(!0, data),
                "case {case}: {start}+{len}"
            );
        }
    }

    #[test]
    fn running_crc_over_any_split_equals_the_whole() {
        let buf = noise(257);
        let whole = crc32(&buf);
        for a in 0..=buf.len() {
            for b in (a..=buf.len()).step_by(7) {
                let mut crc = Crc32::default();
                crc.update(&buf[..a]);
                crc.update(&buf[a..b]);
                crc.update(&buf[b..]);
                assert_eq!(crc.finish(), whole, "split at {a}, {b}");
            }
        }
    }

    #[test]
    fn sections_cross_as_their_concatenation_either_way() {
        let header = *b"HEAD+meta";
        let values: Vec<f32> = (0..700).map(|i| (i as f32 * 0.37).sin() * 40.0).collect();
        for precision in [Precision::Fp32, Precision::Fp16] {
            let bpe = precision.bytes_per_element() as usize;
            let whole = |block_len: usize| {
                let mut out = Vec::new();
                let mut block = vec![0u8; block_len];
                write(&mut out, &mut block, &header, 4, precision, &[&values]).unwrap();
                out
            };
            let want = whole(4_096);
            assert_eq!(want.len(), header.len() + values.len() * bpe + TRAILER_LEN);
            let stored = u32::from_le_bytes(want[want.len() - 4..].try_into().unwrap());
            assert_eq!(stored, crc32(&want[4..want.len() - 4]), "{precision:?}");
            for block_len in [header.len() + TRAILER_LEN, 61, 64, 1_000] {
                assert_eq!(whole(block_len), want, "{precision:?} block {block_len}");
                for cut in [0, 1, 255, 256, 699, 700] {
                    let (a, b) = values.split_at(cut);
                    let mut out = Vec::new();
                    let mut block = vec![0u8; block_len];
                    write(&mut out, &mut block, &header, 4, precision, &[a, &[], b]).unwrap();
                    let what = format!("{precision:?} block {block_len} cut {cut}");
                    assert_eq!(out, want, "{what}: written");

                    let (mut p, mut q) = (vec![f32::NAN; cut], vec![f32::NAN; 700 - cut]);
                    let mut body = &out[header.len()..];
                    let checked = read(
                        &mut body,
                        &mut block,
                        &out[4..header.len()],
                        precision,
                        values.len() * bpe,
                        &mut [&mut p[..], &mut [], &mut q[..]],
                    );
                    assert_eq!(checked.unwrap(), Ok(()), "{what}");
                    assert!(body.is_empty(), "{what}: left bytes unread");
                    let mut got = vec![0f32; values.len()];
                    unpack(precision, &out[header.len()..out.len() - 4], &mut got);
                    assert_eq!([p, q].concat(), got, "{what}: read");
                }
            }
        }
    }

    #[test]
    fn a_flipped_trailer_bit_is_refused() {
        let values = [1.5f32, -2.0, 3.25];
        let mut bytes = Vec::new();
        let mut block = [0u8; 8];
        write(&mut bytes, &mut block, &[], 0, Precision::Fp32, &[&values]).unwrap();
        bytes[13] ^= 1;
        let mut dst = [0f32; 3];
        let err = read(
            &mut &bytes[..],
            &mut block,
            &[],
            Precision::Fp32,
            12,
            &mut [&mut dst],
        )
        .unwrap()
        .unwrap_err();
        assert_eq!(err.got, crc32(&bytes[..12]));
        assert_eq!(err.expected ^ err.got, 1 << 8);
    }
}
