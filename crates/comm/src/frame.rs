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
//! anywhere in the metadata or data is caught before the receiver
//! *accepts* the payload. Payloads are f32 at the API and optionally IEEE
//! binary16 on the wire, at the [`Precision`] the shared-memory transports
//! already speak. The length prefix is capped at [`MAX_PAYLOAD_BYTES`] on
//! both sides: a sender refuses a longer payload before writing a byte, a
//! receiver checks the prefix, with magic and precision, before it reads
//! any byte of the body.
//!
//! This module owns the header; the payload and the trailer cross through
//! [`crate::block`], whose rules a frame follows: nothing is allocated,
//! both directions stream through one block the caller owns, and a
//! received payload is decoded into its destination *before* the CRC
//! verdict. Where a socket lands a frame so that a rejected one is harmless
//! is [`crate::socket`]'s rule.

use crate::block::{self, BadCrc, TRAILER_LEN};
use crate::transport::Precision;
use std::io::{self, Read, Write};

/// Frame magic: "HCC frame, version 1".
pub const MAGIC: [u8; 4] = *b"HCF1";

/// Fixed header length in bytes (magic through the length prefix).
pub const HEADER_LEN: usize = 20;

/// Hard cap on the payload length prefix (64 MiB). A corrupted or hostile
/// length prefix beyond this is rejected as [`FrameError::Oversized`]
/// whatever the receive buffer holds.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 26;

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
/// the socket layer maps those to `CommError` itself (a stream that ends
/// mid-frame is one: `UnexpectedEof`); this taxonomy covers malformed bytes
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown RPC kind byte.
    BadKind(u8),
    /// Unknown precision byte.
    BadPrecision(u8),
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

impl FrameError {
    /// True when the receiver consumed the whole frame before rejecting it
    /// (bad CRC, unknown kind): the stream is still on a frame boundary, so
    /// the receiver may answer and carry on. Every other error leaves the
    /// body unread and the boundary lost.
    pub fn keeps_sync(&self) -> bool {
        matches!(self, FrameError::BadKind(_) | FrameError::BadCrc { .. })
    }
}

/// A frame's metadata — everything but the payload, which stays in the
/// caller's slice on both sides of the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
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
}

impl Header {
    /// The header of a payload-free control frame.
    pub fn control(kind: RpcKind, worker: u16, epoch: u32, chunk: u32) -> Header {
        Header {
            kind,
            precision: Precision::Fp32,
            worker,
            epoch,
            chunk,
        }
    }

    fn to_bytes(self, payload_bytes: u32) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..4].copy_from_slice(&MAGIC);
        out[4] = self.kind.as_u8();
        out[5] = precision_to_u8(self.precision);
        out[6..8].copy_from_slice(&self.worker.to_le_bytes());
        out[8..12].copy_from_slice(&self.epoch.to_le_bytes());
        out[12..16].copy_from_slice(&self.chunk.to_le_bytes());
        out[16..].copy_from_slice(&payload_bytes.to_le_bytes());
        out
    }
}

/// Bytes a frame of `elems` payload elements takes on the wire, header and
/// trailer included — also what a buffer must hold to send or receive it.
pub fn frame_len(precision: Precision, elems: usize) -> usize {
    HEADER_LEN + elems * precision.bytes_per_element() as usize + TRAILER_LEN
}

/// The length prefix of a payload of `elems` elements at `precision`, or
/// `InvalidInput` when it would be over [`MAX_PAYLOAD_BYTES`], the cap
/// every receiver enforces.
pub fn payload_bytes(precision: Precision, elems: usize) -> io::Result<u32> {
    let len = elems.saturating_mul(precision.bytes_per_element() as usize);
    match u32::try_from(len) {
        Ok(len) if len <= MAX_PAYLOAD_BYTES => Ok(len),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "payload over the frame cap",
        )),
    }
}

/// Streams one frame — `header`, `payload` at `header.precision`, CRC
/// trailer — to `stream` through `block` ([`block::write`]): nothing is
/// allocated and a small frame is a single write. A payload over the cap
/// ([`payload_bytes`]) is refused before a byte is written.
///
/// # Panics
/// Panics if `block` is shorter than `HEADER_LEN + TRAILER_LEN`.
pub fn write_frame<W: Write>(
    stream: &mut W,
    header: &Header,
    payload: &[f32],
    block: &mut [u8],
) -> io::Result<()> {
    let len = payload_bytes(header.precision, payload.len())?;
    block::write(
        stream,
        block,
        &header.to_bytes(len),
        MAGIC.len(),
        header.precision,
        &[payload],
    )
}

/// The validated header of a frame whose body is still on the stream.
#[derive(Debug, Clone, Copy)]
pub struct Incoming {
    raw: [u8; HEADER_LEN],
    precision: Precision,
    /// The worker field — like `epoch` and `chunk`, unauthenticated until
    /// the body's CRC has passed.
    pub worker: u16,
    /// The epoch field.
    pub epoch: u32,
    /// The chunk field (the status code of a [`RpcKind::Sync`] frame).
    pub chunk: u32,
    /// Payload bytes that follow, at most [`MAX_PAYLOAD_BYTES`].
    pub wire_len: usize,
}

/// Reads and validates a frame header: magic, precision and the length
/// prefix (cap and element alignment), the fields a receiver needs before
/// it can pick a destination. An `Err` here means the frame boundary is
/// lost; no byte of the body has been read.
pub fn read_header<R: Read>(stream: &mut R) -> io::Result<Result<Incoming, FrameError>> {
    let mut raw = [0u8; HEADER_LEN];
    stream.read_exact(&mut raw)?;
    let magic = [raw[0], raw[1], raw[2], raw[3]];
    if magic != MAGIC {
        return Ok(Err(FrameError::BadMagic(magic)));
    }
    let precision = match precision_from_u8(raw[5]) {
        Ok(p) => p,
        Err(err) => return Ok(Err(err)),
    };
    let len = u32::from_le_bytes([raw[16], raw[17], raw[18], raw[19]]);
    if len > MAX_PAYLOAD_BYTES || len % precision.bytes_per_element() as u32 != 0 {
        return Ok(Err(FrameError::Oversized {
            len,
            max: MAX_PAYLOAD_BYTES,
        }));
    }
    Ok(Ok(Incoming {
        raw,
        precision,
        worker: u16::from_le_bytes([raw[6], raw[7]]),
        epoch: u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]),
        chunk: u32::from_le_bytes([raw[12], raw[13], raw[14], raw[15]]),
        wire_len: len as usize,
    }))
}

impl Incoming {
    /// Payload elements that follow.
    pub fn elems(&self) -> usize {
        self.wire_len / self.precision.bytes_per_element() as usize
    }

    /// The kind byte, parsed. An unknown kind is still a whole frame:
    /// [`read_into`](Incoming::read_into) consumes it before refusing it.
    pub fn kind(&self) -> Result<RpcKind, FrameError> {
        RpcKind::from_u8(self.raw[4])
    }

    /// Streams the body — payload, then trailer — through `block`
    /// ([`block::read`]), decoding the payload into `dst` as far as it
    /// holds; an empty `dst` checks a body without landing it.
    ///
    /// On `Ok(Ok(header))` the frame was whole and intact. On any other
    /// outcome **`dst` may hold part of the rejected payload**: the caller
    /// lands a frame only where a rejected one is harmless (see
    /// [`crate::socket`]). A kind or CRC error leaves the stream on the
    /// next frame boundary ([`FrameError::keeps_sync`]); an IO error (a
    /// short stream included) does not.
    ///
    /// # Panics
    /// Panics if `block` is shorter than `TRAILER_LEN`.
    pub fn read_into<R: Read>(
        &self,
        stream: &mut R,
        dst: &mut [f32],
        block: &mut [u8],
    ) -> io::Result<Result<Header, FrameError>> {
        let checked = block::read(
            stream,
            block,
            &self.raw[MAGIC.len()..],
            self.precision,
            self.wire_len,
            &mut [dst],
            true,
        )?;
        Ok(self.kind().and_then(|kind| {
            checked.map_err(|BadCrc { expected, got }| FrameError::BadCrc { expected, got })?;
            Ok(Header {
                kind,
                precision: self.precision,
                worker: self.worker,
                epoch: self.epoch,
                chunk: self.chunk,
            })
        }))
    }
}

// What the reference codec needs that the shipped one no longer does.
#[cfg(test)]
use {crate::block::crc32, hcc_sgd::fp16};

/// The codec [`write_frame`] and [`Incoming::read_into`] replaced — one
/// `Vec` for the frame, one for the fp16 halves; a receive that checks the
/// whole frame before decoding any of it — kept as the differential
/// reference and as the way tests hand-build frames.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Frame {
        pub header: Header,
        pub payload: Vec<f32>,
    }

    impl Frame {
        pub(crate) fn encode(&self) -> Vec<u8> {
            let Header {
                kind,
                precision,
                worker,
                epoch,
                chunk,
            } = self.header;
            let payload_bytes = self.payload.len() * precision.bytes_per_element() as usize;
            let mut out = Vec::with_capacity(HEADER_LEN + payload_bytes + TRAILER_LEN);
            out.extend_from_slice(&MAGIC);
            out.push(kind.as_u8());
            out.push(precision_to_u8(precision));
            out.extend_from_slice(&worker.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&chunk.to_le_bytes());
            out.extend_from_slice(&(payload_bytes as u32).to_le_bytes());
            match precision {
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

        /// Decodes one whole, well-delimited frame: CRC over everything
        /// after the magic first, then every payload element at once.
        pub(crate) fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
            let word = |at: usize| {
                u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
            };
            let precision = precision_from_u8(bytes[5])?;
            let end = HEADER_LEN + word(16) as usize;
            let (expected, got) = (word(end), crc32(&bytes[MAGIC.len()..end]));
            if expected != got {
                return Err(FrameError::BadCrc { expected, got });
            }
            let body = &bytes[HEADER_LEN..end];
            let payload = match precision {
                Precision::Fp32 => body
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
                Precision::Fp16 => {
                    let half: Vec<u16> = body
                        .chunks_exact(2)
                        .map(|c| u16::from_le_bytes([c[0], c[1]]))
                        .collect();
                    let mut out = vec![0f32; half.len()];
                    fp16::decode_slice(&half, &mut out);
                    out
                }
            };
            Ok(Frame {
                header: Header {
                    kind: RpcKind::from_u8(bytes[4])?,
                    precision,
                    worker: u16::from_le_bytes([bytes[6], bytes[7]]),
                    epoch: word(8),
                    chunk: word(12),
                },
                payload,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Frame;
    use super::*;
    use crate::block::BLOCK;
    use std::io::ErrorKind;

    fn sample(precision: Precision) -> Frame {
        Frame {
            header: Header {
                kind: RpcKind::Push,
                precision,
                worker: 3,
                epoch: 17,
                chunk: 2,
            },
            payload: vec![0.5, -1.25, 3.0, 0.0],
        }
    }

    /// `frame` through [`write_frame`] with a `block_len`-byte block.
    fn stream_encode(frame: &Frame, block_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut block = vec![0u8; block_len];
        write_frame(&mut out, &frame.header, &frame.payload, &mut block).unwrap();
        out
    }

    /// Receives `bytes` the way a link does: [`read_header`], then
    /// [`Incoming::read_into`] `dst` through a `block_len`-byte block.
    fn receive_through<R: Read>(
        stream: &mut R,
        dst: &mut [f32],
        block_len: usize,
    ) -> std::io::Result<Result<Header, FrameError>> {
        let incoming = match read_header(stream)? {
            Ok(incoming) => incoming,
            Err(err) => return Ok(Err(err)),
        };
        incoming.read_into(stream, dst, &mut vec![0u8; block_len])
    }

    fn receive(mut bytes: &[u8], dst: &mut [f32]) -> std::io::Result<Result<Header, FrameError>> {
        receive_through(&mut bytes, dst, 64)
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let mut payload = vec![f32::NAN; frame.payload.len()];
        let header = receive(&stream_encode(frame, 64), &mut payload)
            .unwrap()
            .unwrap();
        Frame { header, payload }
    }

    /// `receive` must fail. A frame refused at its header must leave `dst`
    /// bit-for-bit as it was; one refused in or after its body may have
    /// landed part of itself there.
    fn assert_rejected(bytes: &[u8], elems: usize, what: &str) -> Option<FrameError> {
        let before: Vec<f32> = (0..elems).map(|i| i as f32 - 7.5).collect();
        let mut dst = before.clone();
        let outcome = receive(bytes, &mut dst);
        let untouched = dst
            .iter()
            .zip(&before)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        match outcome {
            Ok(Ok(header)) => panic!("{what}: accepted as {header:?}"),
            Ok(Err(err)) => {
                assert!(
                    err.keeps_sync() || untouched,
                    "{what}: {err} was refused at the header but wrote to the destination"
                );
                Some(err)
            }
            Err(io) => {
                assert_eq!(io.kind(), ErrorKind::UnexpectedEof, "{what}");
                None
            }
        }
    }

    #[test]
    fn streaming_codec_is_the_old_codec() {
        let values: Vec<f32> = (0..3 * BLOCK / 2 + 2)
            .map(|i| (i as f32 * 0.37).sin() * 40.0)
            .collect();
        for precision in [Precision::Fp32, Precision::Fp16] {
            let bpe = precision.bytes_per_element() as usize;
            let frame = |len: usize| Frame {
                header: Header {
                    precision,
                    ..sample(precision).header
                },
                payload: values[..len].to_vec(),
            };
            // Every length through a block small enough that each crosses
            // many boundaries, including blocks that end inside the trailer.
            for len in 0..=1_031 {
                let want = frame(len).encode();
                for block_len in [HEADER_LEN + TRAILER_LEN, 61, 64, 4_096] {
                    assert_eq!(
                        stream_encode(&frame(len), block_len),
                        want,
                        "{precision:?} len {len} block {block_len}"
                    );
                }
            }
            // The shipped block size: payloads ending one element either
            // side of the first three block boundaries, and of the point
            // where the trailer stops fitting in the last block.
            for blocks in 1..=3 {
                for edge in [blocks * BLOCK - HEADER_LEN, blocks * BLOCK] {
                    for len in (edge / bpe).saturating_sub(2)..=edge / bpe + 1 {
                        assert_eq!(
                            stream_encode(&frame(len), BLOCK),
                            frame(len).encode(),
                            "{precision:?} len {len} at block {blocks}"
                        );
                    }
                }
            }
        }
    }

    /// A stream that hands `bytes` out in pieces ending at each of `cuts`,
    /// and counts what it handed out.
    struct Pieces<'a> {
        bytes: &'a [u8],
        cuts: Vec<usize>,
        at: usize,
    }

    impl<'a> Pieces<'a> {
        fn new(bytes: &'a [u8], cuts: &[usize]) -> Pieces<'a> {
            Pieces {
                bytes,
                cuts: cuts.to_vec(),
                at: 0,
            }
        }
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let at = self.at;
            let next = self.cuts.iter().copied().filter(|&c| c > at).min();
            let end = next.unwrap_or(usize::MAX).min(self.bytes.len());
            let n = buf.len().min(end - at);
            buf[..n].copy_from_slice(&self.bytes[at..at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// A push of `len` elements that are neither 0 nor repeating.
    fn long_frame(precision: Precision, len: usize) -> Frame {
        Frame {
            header: Header {
                precision,
                ..sample(precision).header
            },
            payload: (0..len).map(|i| (i as f32 * 0.37).sin() * 40.0).collect(),
        }
    }

    /// Payload lengths around the shipped block: empty, one element, a
    /// block ± 1 element, and three blocks plus a tail.
    fn block_edge_lengths(precision: Precision) -> [usize; 6] {
        let per_block = BLOCK / precision.bytes_per_element() as usize;
        [
            0,
            1,
            per_block - 1,
            per_block,
            per_block + 1,
            3 * per_block + 5,
        ]
    }

    #[test]
    fn streamed_reader_is_the_reference_decoder() {
        for precision in [Precision::Fp32, Precision::Fp16] {
            for len in block_edge_lengths(precision) {
                let frame = long_frame(precision, len);
                let bytes = frame.encode();
                let want = Frame::decode(&bytes).unwrap();
                // Block edges in the stream start after the header.
                let edge = |j: usize| HEADER_LEN + j * BLOCK;
                let splits: [&[usize]; 4] = [
                    &[],
                    &[1, HEADER_LEN, edge(1), edge(2), edge(3)],
                    &[HEADER_LEN + 1, edge(1) - 1, edge(1) + 1, edge(2) + 3],
                    &[
                        HEADER_LEN + BLOCK / 2,
                        bytes.len() - TRAILER_LEN,
                        bytes.len() - 1,
                    ],
                ];
                for cuts in splits {
                    let what = format!("{precision:?} len {len} cuts {cuts:?}");
                    let mut stream = Pieces::new(&bytes, cuts);
                    let mut payload = vec![f32::NAN; len];
                    let header = receive_through(&mut stream, &mut payload, BLOCK)
                        .unwrap()
                        .unwrap();
                    assert_eq!(Frame { header, payload }, want, "{what}");
                    assert_eq!(stream.at, bytes.len(), "{what}: left bytes unread");
                }
            }
        }
    }

    #[test]
    fn a_flipped_byte_anywhere_is_bad_crc_and_the_next_frame_reads_clean() {
        for precision in [Precision::Fp32, Precision::Fp16] {
            let next = sample(precision);
            let len = block_edge_lengths(precision)[5];
            let bytes = long_frame(precision, len).encode();
            let end = bytes.len();
            let places = [
                ("header", 10),
                ("first block", HEADER_LEN + 7),
                ("middle block", HEADER_LEN + BLOCK + BLOCK / 2),
                ("last block", end - TRAILER_LEN - 1),
                ("trailer", end - 2),
            ];
            for (place, at) in places {
                let mut stream = bytes.clone();
                stream[at] ^= 0x20;
                stream.extend_from_slice(&next.encode());
                let mut stream = &stream[..];
                let mut dst = vec![0f32; len];
                let err = receive_through(&mut stream, &mut dst, BLOCK)
                    .unwrap()
                    .unwrap_err();
                assert!(
                    matches!(err, FrameError::BadCrc { .. }) && err.keeps_sync(),
                    "{precision:?} {place}: {err}"
                );
                let mut payload = vec![f32::NAN; next.payload.len()];
                let header = receive_through(&mut stream, &mut payload, BLOCK)
                    .unwrap()
                    .unwrap();
                assert_eq!(Frame { header, payload }, next, "{precision:?} {place}");
                assert!(stream.is_empty());
            }
        }
    }

    #[test]
    fn fp32_roundtrip_is_exact() {
        let f = sample(Precision::Fp32);
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn fp16_roundtrip_quantizes() {
        let f = sample(Precision::Fp16);
        // These values are exactly representable in binary16.
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn control_frames_are_empty() {
        let f = Frame {
            header: Header::control(RpcKind::Sync, 1, 9, 0),
            payload: Vec::new(),
        };
        let bytes = stream_encode(&f, HEADER_LEN + TRAILER_LEN);
        assert_eq!(bytes.len(), HEADER_LEN + TRAILER_LEN);
        assert_eq!(bytes.len(), frame_len(Precision::Fp32, 0));
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[0] = b'X';
        let err = assert_rejected(&bytes, 4, "magic").unwrap();
        assert!(matches!(err, FrameError::BadMagic(_)));
        assert!(!err.keeps_sync());
    }

    #[test]
    fn bad_kind_and_precision_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[4] = 0xEE;
        let err = assert_rejected(&bytes, 4, "kind").unwrap();
        assert_eq!(err, FrameError::BadKind(0xEE));
        assert!(err.keeps_sync(), "the body was consumed");
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[5] = 9;
        assert_eq!(
            assert_rejected(&bytes, 4, "precision"),
            Some(FrameError::BadPrecision(9))
        );
    }

    #[test]
    fn delta_push_roundtrips_and_first_unused_kind_byte_rejected() {
        let mut f = sample(Precision::Fp32);
        f.header.kind = RpcKind::DeltaPush;
        let bytes = f.encode();
        assert_eq!(bytes[4], 4, "DeltaPush wire byte");
        assert_eq!(roundtrip(&f), f);
        // Byte 5 is the first unassigned kind: it must stay rejected so a
        // future kind cannot silently alias an old deployment's frames.
        let mut bytes = bytes;
        bytes[4] = 5;
        // Re-sign the body so only the kind byte is at fault, not the CRC.
        let crc_at = bytes.len() - TRAILER_LEN;
        let crc = crc32(&bytes[4..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            assert_rejected(&bytes, 4, "kind 5"),
            Some(FrameError::BadKind(5))
        );
    }

    #[test]
    fn truncated_frame_rejected() {
        // A stream that ends mid-frame is an IO error, in the body or in
        // the header.
        let bytes = sample(Precision::Fp32).encode();
        assert_eq!(assert_rejected(&bytes[..bytes.len() - 3], 4, "body"), None);
        assert_eq!(assert_rejected(&bytes[..7], 4, "header"), None);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[16..20].copy_from_slice(&(MAX_PAYLOAD_BYTES + 4).to_le_bytes());
        assert!(matches!(
            assert_rejected(&bytes, 4, "cap"),
            Some(FrameError::Oversized { .. })
        ));
        // Refused at the header: not a byte of the body is read.
        let mut stream = Pieces::new(&bytes, &[]);
        let err = read_header(&mut stream).unwrap().unwrap_err();
        assert!(!err.keeps_sync());
        assert_eq!(stream.at, HEADER_LEN, "the reader went past the header");
        // Misaligned prefix (not a whole number of elements) is also
        // oversized-class: the declared length can't be trusted.
        let mut bytes = sample(Precision::Fp32).encode();
        bytes[16..20].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            assert_rejected(&bytes, 4, "misaligned"),
            Some(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn body_len_validates_header() {
        let bytes = sample(Precision::Fp32).encode();
        let incoming = read_header(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!((incoming.worker, incoming.wire_len), (3, 16));
        let mut bad = bytes.clone();
        bad[2] = 0;
        assert!(matches!(
            read_header(&mut &bad[..]).unwrap(),
            Err(FrameError::BadMagic(_))
        ));
    }

    // Satellite: 256-case codec property — round-trip at both precisions,
    // plus rejection of truncation, bit flips, and oversized prefixes, on
    // arbitrary frames, through the streaming entry points. The vendored
    // proptest shim has a fixed default case count, so the cases are driven
    // explicitly through its Strategy API with one deterministic seed per
    // case.
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
                header: Header {
                    kind: RpcKind::from_u8(kind_b).unwrap(),
                    precision,
                    worker,
                    epoch,
                    chunk,
                },
                payload: payload.clone(),
            };
            let bytes = stream_encode(&frame, 64);
            assert_eq!(bytes, frame.encode(), "case {case}");

            // Round-trip: exact at fp32, within binary16 tolerance at fp16.
            let decoded = roundtrip(&frame);
            assert_eq!(decoded.header, frame.header, "case {case}");
            for (a, b) in payload.iter().zip(&decoded.payload) {
                match precision {
                    Precision::Fp32 => assert_eq!(a, b),
                    Precision::Fp16 => assert!(
                        (a - b).abs() <= a.abs() / 1024.0 + 1e-6,
                        "case {case}: {a} vs {b}"
                    ),
                }
            }

            // Truncation: any strict prefix is an IO error.
            let cut = cut % bytes.len();
            let what = format!("case {case} cut {cut}");
            assert_eq!(assert_rejected(&bytes[..cut], payload.len(), &what), None);

            // Bit flip after the magic: the CRC or a field validator
            // rejects it, or a grown length prefix runs past the stream.
            let mut corrupt = bytes.clone();
            let at = 4 + flip_at % (corrupt.len() - 4);
            corrupt[at] ^= 0x01;
            assert_rejected(&corrupt, payload.len(), &format!("case {case} flip {at}"));

            // Oversized prefix: rejected without reading the payload.
            let mut oversized = bytes.clone();
            oversized[16..20].copy_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
            assert!(
                matches!(
                    assert_rejected(&oversized, payload.len(), "oversized"),
                    Some(FrameError::Oversized { .. })
                ),
                "case {case}"
            );
        }
    }
}
