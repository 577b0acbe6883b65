//! Length-prefixed wire frames for the socket transport.
//!
//! Every RPC between a worker and the server crosses the socket as one
//! frame:
//!
//! ```text
//! ┌───────┬──────┬──────┬────────┬───────┬───────┬─────────┬─────────┬───────┐
//! │ magic │ kind │ prec │ worker │ epoch │ chunk │ len     │ payload │ crc32 │
//! │ 4 B   │ 1 B  │ 1 B  │ u16 LE │ u32LE │ u32LE │ u32 LE  │ len B   │ u32LE │
//! │ "HCF1"│      │      │        │       │       │ (bytes) │         │       │
//! └───────┴──────┴──────┴────────┴───────┴───────┴─────────┴─────────┴───────┘
//! ```
//!
//! The header is [`HEADER_LEN`] bytes; the CRC-32/IEEE trailer covers
//! everything after the magic (kind through payload), so a flipped bit
//! anywhere in the metadata or data is caught before the payload is
//! applied. Payloads are f32 at the API and optionally IEEE binary16 on
//! the wire, reusing the [`Precision`] codec the shared-memory transports
//! already speak. The length prefix is capped at [`MAX_PAYLOAD_BYTES`] so
//! a corrupt prefix can never coerce the receiver into a giant
//! allocation.
//!
//! The CRC implementation here is the single source of truth for the
//! workspace — the checkpoint-v2 footer (`hcc_mf::checkpoint`) reuses
//! [`crc32`] rather than keeping its own copy of the table.
//!
//! What the CRC costs: [`crc32`] is slicing-by-8 and runs at about
//! 1.4 GB/s on the 2.1 GHz benchmark box, 0.75 ms per MiB (the
//! byte-at-a-time loop it replaced: 0.33 GB/s, 3.1 ms per MiB). A socket
//! round trip checksums its payload four times — encode and decode of the
//! request and of the reply — so a 4 MiB pull + push pays about 12 ms of
//! CRC where it used to pay about 48 of its 57 ms; `save_model` and
//! `load_model` pay one pass each over the file.

use crate::transport::Precision;
use hcc_sgd::fp16;

/// Frame magic: "HCC frame, version 1".
pub const MAGIC: [u8; 4] = *b"HCF1";

/// Fixed header length in bytes (magic through the length prefix).
pub const HEADER_LEN: usize = 20;

/// CRC trailer length in bytes.
pub const TRAILER_LEN: usize = 4;

/// Hard cap on the payload length prefix (64 MiB). A corrupted or hostile
/// length prefix beyond this is rejected as [`FrameError::Oversized`]
/// instead of driving an allocation.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 26;

/// CRC-32/IEEE slicing-by-8 tables (reflected polynomial 0xEDB8_8320),
/// built at compile time: `[0]` is the classic byte table and `[s][b]` is
/// the CRC of byte `b` followed by `s` zero bytes. Shared by the wire frames
/// here and the checkpoint-v2 footer.
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

/// CRC-32/IEEE over `data` (init `0xFFFF_FFFF`, final complement; check
/// value `crc32(b"123456789") == 0xCBF4_3926`), eight bytes per step with a
/// byte loop for the tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
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
    !c
}

/// Which RPC a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcKind {
    /// Worker → server: "send me the published data" (empty payload);
    /// server → worker: the published data.
    Pull,
    /// Worker → server: this worker's updated data.
    Push,
    /// Server → worker: push acknowledgment / control. The `chunk` field
    /// carries the status code (see [`crate::socket`]).
    Sync,
    /// Worker → server shard: a *delta-encoded* push — only the rows this
    /// worker touched since the last publish, in the
    /// [`crate::delta`] layout, addressed to one shard of a sharded
    /// parameter server. Shares `Push`'s (worker, epoch, chunk)
    /// idempotency key so retransmitted deltas dedup identically.
    DeltaPush,
}

impl RpcKind {
    /// Wire byte for this kind.
    pub fn as_u8(self) -> u8 {
        match self {
            RpcKind::Pull => 1,
            RpcKind::Push => 2,
            RpcKind::Sync => 3,
            RpcKind::DeltaPush => 4,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Result<RpcKind, FrameError> {
        match b {
            1 => Ok(RpcKind::Pull),
            2 => Ok(RpcKind::Push),
            3 => Ok(RpcKind::Sync),
            4 => Ok(RpcKind::DeltaPush),
            other => Err(FrameError::BadKind(other)),
        }
    }
}

fn precision_to_u8(p: Precision) -> u8 {
    match p {
        Precision::Fp32 => 0,
        Precision::Fp16 => 1,
    }
}

fn precision_from_u8(b: u8) -> Result<Precision, FrameError> {
    match b {
        0 => Ok(Precision::Fp32),
        1 => Ok(Precision::Fp16),
        other => Err(FrameError::BadPrecision(other)),
    }
}

/// Everything that can go wrong parsing a frame. IO errors are not here —
/// the socket layer maps those to `CommError` itself; this taxonomy covers
/// malformed bytes only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown RPC kind byte.
    BadKind(u8),
    /// Unknown precision byte.
    BadPrecision(u8),
    /// The buffer ends before the declared frame does.
    Truncated {
        /// Bytes the declared frame requires.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD_BYTES`] (or is not a whole
    /// number of wire elements).
    Oversized {
        /// Declared payload length in bytes.
        len: u32,
        /// The cap it violated.
        max: u32,
    },
    /// The CRC trailer does not match the frame body.
    BadCrc {
        /// CRC carried in the trailer.
        expected: u32,
        /// CRC computed over the received body.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadKind(b) => write!(f, "unknown RPC kind byte {b}"),
            FrameError::BadPrecision(b) => write!(f, "unknown precision byte {b}"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "length prefix {len} exceeds cap {max}")
            }
            FrameError::BadCrc { expected, got } => {
                write!(
                    f,
                    "CRC mismatch: trailer {expected:#010x}, computed {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded RPC frame. Payload is f32 at this API regardless of the
/// wire precision.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// RPC kind.
    pub kind: RpcKind,
    /// Wire precision of the payload.
    pub precision: Precision,
    /// Originating (or addressed) worker.
    pub worker: u16,
    /// Training epoch the RPC belongs to — the idempotency key's coarse
    /// half.
    pub epoch: u32,
    /// Chunk index within the epoch (0 for whole-buffer RPCs); doubles as
    /// the status code on [`RpcKind::Sync`] frames.
    pub chunk: u32,
    /// Decoded payload.
    pub payload: Vec<f32>,
}

impl Frame {
    /// A payload-free control frame.
    pub fn control(kind: RpcKind, worker: u16, epoch: u32, chunk: u32) -> Frame {
        Frame {
            kind,
            precision: Precision::Fp32,
            worker,
            epoch,
            chunk,
            payload: Vec::new(),
        }
    }

    /// Serializes the frame, encoding the payload at `self.precision` and
    /// appending the CRC trailer.
    pub fn encode(&self) -> Vec<u8> {
        let payload_bytes = self.payload.len() * self.precision.bytes_per_element() as usize;
        let mut out = Vec::with_capacity(HEADER_LEN + payload_bytes + TRAILER_LEN);
        out.extend_from_slice(&MAGIC);
        out.push(self.kind.as_u8());
        out.push(precision_to_u8(self.precision));
        out.extend_from_slice(&self.worker.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.chunk.to_le_bytes());
        out.extend_from_slice(&(payload_bytes as u32).to_le_bytes());
        match self.precision {
            Precision::Fp32 => {
                for &v in &self.payload {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Precision::Fp16 => {
                let mut half = vec![0u16; self.payload.len()];
                fp16::encode_slice(&self.payload, &mut half);
                for h in half {
                    out.extend_from_slice(&h.to_le_bytes());
                }
            }
        }
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a complete frame from `buf`. `buf` must contain exactly one
    /// frame (header + payload + trailer); trailing bytes are a
    /// [`FrameError::Truncated`]-style length disagreement caught by the
    /// byte count check.
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let magic = [buf[0], buf[1], buf[2], buf[3]];
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let kind = RpcKind::from_u8(buf[4])?;
        let precision = precision_from_u8(buf[5])?;
        let worker = u16::from_le_bytes([buf[6], buf[7]]);
        let epoch = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        let chunk = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]);
        let payload_bytes = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]);
        let bpe = precision.bytes_per_element() as u32;
        if payload_bytes > MAX_PAYLOAD_BYTES || payload_bytes % bpe != 0 {
            return Err(FrameError::Oversized {
                len: payload_bytes,
                max: MAX_PAYLOAD_BYTES,
            });
        }
        let total = HEADER_LEN + payload_bytes as usize + TRAILER_LEN;
        if buf.len() < total {
            return Err(FrameError::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        let body = &buf[4..HEADER_LEN + payload_bytes as usize];
        let trailer_at = HEADER_LEN + payload_bytes as usize;
        let expected = u32::from_le_bytes([
            buf[trailer_at],
            buf[trailer_at + 1],
            buf[trailer_at + 2],
            buf[trailer_at + 3],
        ]);
        let got = crc32(body);
        if expected != got {
            return Err(FrameError::BadCrc { expected, got });
        }
        let wire = &buf[HEADER_LEN..trailer_at];
        let payload = match precision {
            Precision::Fp32 => wire
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
            Precision::Fp16 => {
                let half: Vec<u16> = wire
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]))
                    .collect();
                let mut out = vec![0f32; half.len()];
                fp16::decode_slice(&half, &mut out);
                out
            }
        };
        Ok(Frame {
            kind,
            precision,
            worker,
            epoch,
            chunk,
            payload,
        })
    }

    /// Validates a raw header and returns the number of bytes that follow
    /// it (payload + trailer) — what a streaming reader must read next.
    /// Catches bad magic and oversized/misaligned length prefixes before
    /// any allocation.
    pub fn body_len(header: &[u8; HEADER_LEN]) -> Result<usize, FrameError> {
        let magic = [header[0], header[1], header[2], header[3]];
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let precision = precision_from_u8(header[5])?;
        let payload_bytes = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
        let bpe = precision.bytes_per_element() as u32;
        if payload_bytes > MAX_PAYLOAD_BYTES || payload_bytes % bpe != 0 {
            return Err(FrameError::Oversized {
                len: payload_bytes,
                max: MAX_PAYLOAD_BYTES,
            });
        }
        Ok(payload_bytes as usize + TRAILER_LEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(precision: Precision) -> Frame {
        Frame {
            kind: RpcKind::Push,
            precision,
            worker: 3,
            epoch: 17,
            chunk: 2,
            payload: vec![0.5, -1.25, 3.0, 0.0],
        }
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_loop() {
        fn bytewise(data: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        }
        // Every tail length around the 8-byte step, at every alignment.
        let buf: Vec<u8> = (0..1_031 + 8u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b1) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=1_031 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn fp32_roundtrip_is_exact() {
        let f = sample(Precision::Fp32);
        let decoded = Frame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn fp16_roundtrip_quantizes() {
        let f = sample(Precision::Fp16);
        let decoded = Frame::decode(&f.encode()).unwrap();
        // These values are exactly representable in binary16.
        assert_eq!(decoded.payload, f.payload);
        assert_eq!(decoded.kind, RpcKind::Push);
    }

    #[test]
    fn control_frames_are_empty() {
        let f = Frame::control(RpcKind::Sync, 1, 9, 0);
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_LEN + TRAILER_LEN);
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[0] = b'X';
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_kind_and_precision_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[4] = 0xEE;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadKind(0xEE)));
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[5] = 9;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadPrecision(9)));
    }

    #[test]
    fn delta_push_roundtrips_and_first_unused_kind_byte_rejected() {
        let f = Frame {
            kind: RpcKind::DeltaPush,
            ..sample(Precision::Fp32)
        };
        let bytes = f.encode();
        assert_eq!(bytes[4], 4, "DeltaPush wire byte");
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
        // Byte 5 is the first unassigned kind: it must stay rejected so a
        // future kind cannot silently alias an old deployment's frames.
        let mut bytes = bytes;
        bytes[4] = 5;
        // Re-sign the body so only the kind byte is at fault, not the CRC.
        let crc_at = bytes.len() - TRAILER_LEN;
        let crc = crc32(&bytes[4..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadKind(5)));
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = sample(Precision::Fp32).encode();
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            Frame::decode(cut),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            Frame::decode(&bytes[..7]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[16..20].copy_from_slice(&(MAX_PAYLOAD_BYTES + 4).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { .. })
        ));
        // Misaligned prefix (not a whole number of elements) is also
        // oversized-class: the declared length can't be trusted.
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[16..20].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn body_len_validates_header() {
        let bytes = sample(Precision::Fp32).encode();
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        assert_eq!(Frame::body_len(&header).unwrap(), 16 + TRAILER_LEN);
        header[2] = 0;
        assert!(matches!(
            Frame::body_len(&header),
            Err(FrameError::BadMagic(_))
        ));
    }

    // Satellite: 256-case codec property — round-trip at both precisions,
    // plus rejection of truncation, bit flips, and oversized prefixes, on
    // arbitrary frames. The vendored proptest shim has a fixed default
    // case count, so the cases are driven explicitly through its Strategy
    // API with one deterministic seed per case.
    #[test]
    fn codec_roundtrip_and_rejection_256_cases() {
        use proptest::{collection, Strategy};
        use rand::SeedableRng;

        for case in 0u64..256 {
            let mut rng = proptest::TestRng::seed_from_u64(
                0xF8A3_C0DE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let kind_b = (1u8..5).generate(&mut rng);
            let fp16_wire = (0u8..2).generate(&mut rng) == 1;
            let worker = (0u16..u16::MAX).generate(&mut rng);
            let epoch = (0u32..u32::MAX).generate(&mut rng);
            let chunk = (0u32..u32::MAX).generate(&mut rng);
            let payload = collection::vec(-1000.0f32..1000.0, 0..64).generate(&mut rng);
            let flip_at = (0usize..1 << 16).generate(&mut rng);
            let cut = (0usize..1 << 16).generate(&mut rng);

            let precision = if fp16_wire {
                Precision::Fp16
            } else {
                Precision::Fp32
            };
            let frame = Frame {
                kind: RpcKind::from_u8(kind_b).unwrap(),
                precision,
                worker,
                epoch,
                chunk,
                payload: payload.clone(),
            };
            let bytes = frame.encode();

            // Round-trip: exact at fp32, within binary16 tolerance at fp16.
            let decoded = Frame::decode(&bytes).unwrap();
            assert_eq!(decoded.kind, frame.kind);
            assert_eq!(decoded.worker, worker);
            assert_eq!(decoded.epoch, epoch);
            assert_eq!(decoded.chunk, chunk);
            assert_eq!(decoded.payload.len(), payload.len());
            for (a, b) in payload.iter().zip(&decoded.payload) {
                match precision {
                    Precision::Fp32 => assert_eq!(a, b),
                    Precision::Fp16 => assert!(
                        (a - b).abs() <= a.abs() / 1024.0 + 1e-6,
                        "case {case}: {a} vs {b}"
                    ),
                }
            }

            // Truncation: any strict prefix is rejected.
            let cut = cut % bytes.len();
            assert!(Frame::decode(&bytes[..cut]).is_err(), "case {case}");

            // Bit flip after the magic: CRC (or a field validator) rejects.
            let mut corrupt = bytes.clone();
            let at = 4 + flip_at % (corrupt.len() - 4);
            corrupt[at] ^= 0x01;
            assert!(Frame::decode(&corrupt).is_err(), "case {case} flip {at}");

            // Oversized prefix: rejected without reading the payload.
            let mut oversized = bytes.clone();
            oversized[16..20].copy_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
            assert!(
                matches!(Frame::decode(&oversized), Err(FrameError::Oversized { .. })),
                "case {case}"
            );
        }
    }
}
