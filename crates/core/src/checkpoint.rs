//! Factor-matrix checkpointing.
//!
//! One on-disk format, v2, little-endian (crash-safe, written by
//! [`save_model`] / [`save_checkpoint`]):
//!
//! ```text
//! magic "HCCMF2\n"
//! u64 m   u64 n   u64 k   u64 epoch   u64 seed
//! f32 lr_scale
//! u8  flags            (bit 0: matrix was transposed before training)
//! P (m·k f32 LE)
//! Q (n·k f32 LE)
//! u32 crc32            (CRC-32/IEEE over every preceding byte)
//! ```
//!
//! Files are written to `<path>.tmp`, fsynced, then atomically renamed
//! over `path`, so a crash mid-write can never leave a loadable-but-torn
//! file at `path`; a write that fails takes its `.tmp` with it.
//!
//! This module owns the header and the file's lifecycle; `P` and `Q` and
//! the footer cross through the block codec ([`hcc_comm::block`]) at fp32,
//! whose streaming and ownership rules a checkpoint follows: saving holds
//! the factors and one [`BLOCK`], loading the factors it returns and one
//! block — never the file. Loading takes the file's length from its
//! metadata and validates the exact length the header implies *before*
//! allocating (an absurd-dimension header is rejected instead of attempting
//! a huge allocation), allocates `P` and `Q` once, and lets the codec fill
//! them and compare the footer last, which catches every single-bit flip;
//! on a mismatch the half-trusted factors are dropped and nothing but the
//! error leaves. The retired v1 layout (`"HCCMF1\n"`, no resume state, no
//! footer) is refused as an unrecognized magic.

use crate::error::HccError;
use hcc_comm::block::{self, BadCrc, BLOCK};
use hcc_comm::Precision;
use hcc_sgd::{mem, FactorMatrix};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC_V2: &[u8; 7] = b"HCCMF2\n";

/// Header flag bit: the input matrix was transposed (m < n) before training.
const FLAG_TRANSPOSED: u8 = 1;

/// v2 bytes between magic and P: 5×u64 + f32 lr_scale + u8 flags.
const V2_META_LEN: usize = 5 * 8 + 4 + 1;

/// Training-loop state stored alongside the factors in a v2 checkpoint so a
/// killed run can resume mid-training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingMeta {
    /// Next epoch to run (epochs `0..epoch` are already reflected in P/Q).
    pub epoch: usize,
    /// RNG seed the run was started with (resume validates it matches).
    pub seed: u64,
    /// Cumulative learning-rate backoff applied by the divergence guard.
    pub lr_scale: f32,
    /// Whether the input matrix was transposed before training.
    pub transposed: bool,
}

impl Default for TrainingMeta {
    fn default() -> Self {
        TrainingMeta {
            epoch: 0,
            seed: 0,
            lr_scale: 1.0,
            transposed: false,
        }
    }
}

/// A fully-loaded v2 checkpoint: factors plus resumable training state.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    pub p: FactorMatrix,
    pub q: FactorMatrix,
    pub meta: TrainingMeta,
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Writes a `(P, Q)` model to `path` in the crash-safe v2 format with
/// default (fresh-run) training metadata.
pub fn save_model<P: AsRef<Path>>(
    path: P,
    p: &FactorMatrix,
    q: &FactorMatrix,
) -> Result<(), HccError> {
    save_checkpoint(path, p, q, &TrainingMeta::default())
}

/// Writes a `(P, Q)` model plus resumable training state to `path`:
/// streamed into `<path>.tmp`, fsynced, and atomically renamed into place.
pub fn save_checkpoint<P: AsRef<Path>>(
    path: P,
    p: &FactorMatrix,
    q: &FactorMatrix,
    meta: &TrainingMeta,
) -> Result<(), HccError> {
    if p.k() != q.k() {
        return Err(HccError::BadInput(
            "P and Q must share latent dimension".into(),
        ));
    }
    let path = path.as_ref();
    let tmp = path.with_extension(match path.extension() {
        Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
        None => "tmp".to_string(),
    });
    commit(&tmp, path, |file| write_v2(file, p, q, meta))
}

/// Creates `tmp`, lets `write` fill it, fsyncs it and renames it over
/// `path`; whichever step fails, `tmp` is removed and `path` is as it was.
fn commit(
    tmp: &Path,
    path: &Path,
    write: impl FnOnce(&File) -> io::Result<()>,
) -> Result<(), HccError> {
    let file = File::create(tmp)?;
    let written = write(&file).and_then(|()| file.sync_all());
    drop(file);
    let renamed = written.and_then(|()| std::fs::rename(tmp, path));
    if renamed.is_err() {
        std::fs::remove_file(tmp).ok();
    }
    Ok(renamed?)
}

/// Streams the v2 bytes of `(p, q, meta)` into `out` through one [`BLOCK`].
fn write_v2(
    mut out: impl Write,
    p: &FactorMatrix,
    q: &FactorMatrix,
    meta: &TrainingMeta,
) -> io::Result<()> {
    let mut header = Vec::with_capacity(MAGIC_V2.len() + V2_META_LEN);
    header.extend_from_slice(MAGIC_V2);
    for v in [
        p.rows() as u64,
        q.rows() as u64,
        p.k() as u64,
        meta.epoch as u64,
        meta.seed,
    ] {
        header.extend_from_slice(&v.to_le_bytes());
    }
    header.extend_from_slice(&meta.lr_scale.to_le_bytes());
    header.push(if meta.transposed { FLAG_TRANSPOSED } else { 0 });
    block::write(
        &mut out,
        &mut vec![0u8; BLOCK],
        &header,
        0,
        Precision::Fp32,
        &[p.as_slice(), q.as_slice()],
    )
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// Reads a `(P, Q)` model from `path`.
///
/// Always returns factors in the *original* input orientation (P over
/// users, Q over items): a mid-training checkpoint of a wide matrix
/// stores them in the trainer's internal transposed orientation with the
/// `transposed` flag set, and this un-swaps them. Resume-path callers
/// that need the internal orientation use [`load_checkpoint`] directly.
pub fn load_model<P: AsRef<Path>>(path: P) -> Result<(FactorMatrix, FactorMatrix), HccError> {
    let state = load_checkpoint(path)?;
    if state.meta.transposed {
        Ok((state.q, state.p))
    } else {
        Ok((state.p, state.q))
    }
}

/// Reads a checkpoint with its training metadata.
pub fn load_checkpoint<P: AsRef<Path>>(path: P) -> Result<ResumeState, HccError> {
    let file = File::open(path.as_ref())?;
    let len = file.metadata()?.len();
    read_checkpoint(file, len)
}

/// Rejects headers whose dimensions can't correspond to a real file: the
/// payload length they imply must match the actual byte count exactly, so
/// a bit-flipped dimension can never trigger a huge allocation.
fn checked_dims(
    m: u64,
    n: u64,
    k: u64,
    payload_len: u64,
) -> Result<(usize, usize, usize), HccError> {
    let (m, n, k) = (m as usize, n as usize, k as usize);
    // (m + n)·k·4 without overflow, so m·k and n·k are in range too.
    let expected = (|| m.checked_add(n)?.checked_mul(k)?.checked_mul(4))();
    match expected {
        Some(len) if k > 0 && len as u64 == payload_len => Ok((m, n, k)),
        _ => Err(HccError::CorruptCheckpoint(format!(
            "header dims ({m}×{n}×{k}) inconsistent with payload of {payload_len} bytes"
        ))),
    }
}

/// Decodes a checkpoint of `len` bytes from `src`, holding one [`BLOCK`]
/// of it at a time.
fn read_checkpoint(mut src: impl Read, len: u64) -> Result<ResumeState, HccError> {
    mem::map_model_buffers();
    let mut head = [0u8; MAGIC_V2.len() + V2_META_LEN];
    let magic_len = MAGIC_V2.len();
    // A file shorter than a magic keeps the zeros, which are no magic.
    if len >= magic_len as u64 {
        src.read_exact(&mut head[..magic_len])?;
    }
    if head[..magic_len] != MAGIC_V2[..] {
        return Err(HccError::CorruptCheckpoint(
            "unrecognized magic (not an HCCMF2 checkpoint)".into(),
        ));
    }
    let Some(payload_len) = len.checked_sub((head.len() + block::TRAILER_LEN) as u64) else {
        return Err(HccError::CorruptCheckpoint("truncated v2 header".into()));
    };
    src.read_exact(&mut head[magic_len..])?;

    let dims = |i: usize| u64::from_le_bytes(std::array::from_fn(|b| head[magic_len + 8 * i + b]));
    let (m, n, k) = checked_dims(dims(0), dims(1), dims(2), payload_len)?;
    let at = magic_len + 40;
    let lr_scale = f32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
    if !(lr_scale.is_finite() && lr_scale > 0.0) {
        return Err(HccError::CorruptCheckpoint(format!(
            "invalid lr_scale {lr_scale}"
        )));
    }
    let meta = TrainingMeta {
        epoch: dims(3) as usize,
        seed: dims(4),
        lr_scale,
        transposed: head[at + 4] & FLAG_TRANSPOSED != 0,
    };

    // The length check above is what makes these two allocations safe.
    let mut p = vec![0.0f32; m * k];
    let mut q = vec![0.0f32; n * k];
    let checked = block::read(
        &mut src,
        &mut vec![0u8; BLOCK],
        &head,
        Precision::Fp32,
        payload_len as usize,
        &mut [&mut p[..], &mut q[..]],
    )?;
    if let Err(BadCrc { expected, got }) = checked {
        return Err(HccError::CorruptCheckpoint(format!(
            "crc mismatch (stored {expected:#010x}, computed {got:#010x})"
        )));
    }
    Ok(ResumeState {
        p: FactorMatrix::from_vec(m, k, p),
        q: FactorMatrix::from_vec(n, k, q),
        meta,
    })
}

// The reference encoder checksums the file in one call.
#[cfg(test)]
use hcc_comm::block::crc32;

/// The encoder [`write_v2`] replaced, kept as its oracle: the whole file
/// assembled in one `Vec`, float by float, and checksummed in one pass.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn encode_v2(p: &FactorMatrix, q: &FactorMatrix, meta: &TrainingMeta) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V2);
        for v in [
            p.rows() as u64,
            q.rows() as u64,
            p.k() as u64,
            meta.epoch as u64,
            meta.seed,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&meta.lr_scale.to_le_bytes());
        bytes.push(if meta.transposed { FLAG_TRANSPOSED } else { 0 });
        for &v in p.as_slice().iter().chain(q.as_slice()) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floats of the first block beside the v2 header; every later block
    /// holds `BLOCK / 4`.
    const FIRST: usize = (BLOCK - MAGIC_V2.len() - V2_META_LEN) / 4;

    /// `(m, n)` at `k = 1` that put the end of `P`, then of `Q`, just
    /// inside, on and one float past a block edge, plus a file of one block.
    fn edge_shapes() -> Vec<(usize, usize)> {
        let mut shapes = vec![(40, 9)];
        for d in [-1isize, 0, 1] {
            shapes.push((FIRST.wrapping_add_signed(d), 5));
            shapes.push((1_000, (FIRST - 1_000).wrapping_add_signed(d)));
            shapes.push((FIRST + 7, (BLOCK / 4 - 7).wrapping_add_signed(d)));
        }
        shapes
    }

    fn streamed(p: &FactorMatrix, q: &FactorMatrix, meta: &TrainingMeta) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_v2(&mut bytes, p, q, meta).unwrap();
        bytes
    }

    fn read(bytes: &[u8]) -> Result<ResumeState, HccError> {
        read_checkpoint(bytes, bytes.len() as u64)
    }

    fn bits(m: &FactorMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A writer that takes `left` bytes and then reports a full disk.
    struct FailAfter<W> {
        inner: W,
        left: usize,
    }

    impl<W: Write> Write for FailAfter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.left {
                return Err(io::Error::other("disk full"));
            }
            self.left -= buf.len();
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn streamed_bytes_equal_the_assembled_reference_around_block_edges() {
        for (m, n) in edge_shapes() {
            let p = FactorMatrix::random(m, 1, m as u64);
            let q = FactorMatrix::random(n, 1, n as u64);
            for transposed in [false, true] {
                let meta = TrainingMeta {
                    epoch: 3,
                    seed: 0xfeed,
                    lr_scale: 0.5,
                    transposed,
                };
                let bytes = streamed(&p, &q, &meta);
                assert!(
                    bytes == reference::encode_v2(&p, &q, &meta),
                    "{m}×{n} transposed={transposed}: streamed file differs"
                );
                // What the parent wrote loads to the very bits it was given.
                let state = read(&bytes).unwrap();
                assert_eq!(bits(&state.p), bits(&p), "{m}×{n}");
                assert_eq!(bits(&state.q), bits(&q), "{m}×{n}");
                assert_eq!(state.meta, meta);
            }
        }
    }

    #[test]
    fn truncation_at_every_block_edge_is_corrupt() {
        let p = FactorMatrix::random(FIRST + 7, 1, 3);
        let q = FactorMatrix::random(BLOCK / 4 + 11, 1, 4);
        let bytes = streamed(&p, &q, &TrainingMeta::default());
        assert!(read(&bytes).is_ok());
        let edges = [BLOCK, 2 * BLOCK, bytes.len() - 4, bytes.len()];
        for cut in edges.iter().flat_map(|&e| [e - 1, e, e + 1]) {
            if cut >= bytes.len() {
                continue;
            }
            assert!(
                matches!(read(&bytes[..cut]), Err(HccError::CorruptCheckpoint(_))),
                "a file cut to {cut} of {} bytes loaded",
                bytes.len()
            );
        }
    }

    #[test]
    fn a_bit_flip_in_any_block_is_corrupt() {
        let p = FactorMatrix::random(FIRST + 7, 1, 5);
        let q = FactorMatrix::random(BLOCK / 4 + 11, 1, 6);
        let clean = streamed(&p, &q, &TrainingMeta::default());
        // Header (the seed: nothing but the CRC guards it), `P` in the
        // first block and in the second, `Q`, the footer.
        let len = clean.len();
        for at in [41, BLOCK - 9, BLOCK + 9, 2 * BLOCK + 5, len - 5, len - 1] {
            let mut corrupt = clean.clone();
            corrupt[at] ^= 0x10;
            assert!(
                matches!(read(&corrupt), Err(HccError::CorruptCheckpoint(_))),
                "bit flip at byte {at} of {len} went undetected"
            );
        }
    }

    #[test]
    fn a_failed_write_removes_its_tmp_and_leaves_the_old_file() {
        let path = tmp("failed_write.hccmf");
        let tmp_path = tmp("failed_write.hccmf.tmp");
        let old = (FactorMatrix::random(3, 2, 7), FactorMatrix::random(4, 2, 8));
        save_model(&path, &old.0, &old.1).unwrap();
        // The second block meets a full disk.
        let p = FactorMatrix::random(FIRST + 7, 1, 9);
        let q = FactorMatrix::random(5, 1, 10);
        let meta = TrainingMeta::default();
        let err = commit(&tmp_path, &path, |file| {
            let out = FailAfter {
                inner: file,
                left: BLOCK + 3,
            };
            write_v2(out, &p, &q, &meta)
        })
        .unwrap_err();
        assert!(matches!(err, HccError::Io(_)), "{err:?}");
        assert!(!tmp_path.exists(), "the failed write left its tmp behind");
        let (p2, q2) = load_model(&path).unwrap();
        assert_eq!((p2, q2), old);
        std::fs::remove_file(path).ok();
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hcc_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip() {
        let p = FactorMatrix::random(13, 4, 1);
        let q = FactorMatrix::random(7, 4, 2);
        let path = tmp("roundtrip.hccmf");
        save_model(&path, &p, &q).unwrap();
        let (p2, q2) = load_model(&path).unwrap();
        assert_eq!(p, p2);
        assert_eq!(q, q2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_with_meta() {
        let p = FactorMatrix::random(6, 3, 5);
        let q = FactorMatrix::random(9, 3, 6);
        let meta = TrainingMeta {
            epoch: 7,
            seed: 42,
            lr_scale: 0.25,
            transposed: true,
        };
        let path = tmp("meta.hccmf");
        save_checkpoint(&path, &p, &q, &meta).unwrap();
        let state = load_checkpoint(&path).unwrap();
        assert_eq!(state.p, p);
        assert_eq!(state.q, q);
        assert_eq!(state.meta, meta);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_model_unswaps_transposed_checkpoints() {
        // A wide input (items > users) trains transposed, so its periodic
        // checkpoints store (P_int=items, Q_int=users) with the flag set.
        // `load_model` must hand back the original (users, items)
        // orientation; `load_checkpoint` keeps the internal one for resume.
        let p_int = FactorMatrix::random(9, 3, 15); // items, internally "P"
        let q_int = FactorMatrix::random(6, 3, 16); // users, internally "Q"
        let meta = TrainingMeta {
            epoch: 3,
            seed: 1,
            lr_scale: 1.0,
            transposed: true,
        };
        let path = tmp("transposed.hccmf");
        save_checkpoint(&path, &p_int, &q_int, &meta).unwrap();
        let (p, q) = load_model(&path).unwrap();
        assert_eq!(p, q_int, "P must be the user factors");
        assert_eq!(q, p_int, "Q must be the item factors");
        let state = load_checkpoint(&path).unwrap();
        assert_eq!(state.p, p_int);
        assert_eq!(state.q, q_int);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_mismatched_k() {
        let p = FactorMatrix::zeros(2, 3);
        let q = FactorMatrix::zeros(2, 4);
        assert!(save_model(tmp("bad_k.hccmf"), &p, &q).is_err());
    }

    #[test]
    fn rejects_garbage_file() {
        // The retired v1 layout: magic, m n k, then P and Q with no footer.
        let mut v1 = b"HCCMF1\n".to_vec();
        for v in [2u64, 2, 1] {
            v1.extend_from_slice(&v.to_le_bytes());
        }
        v1.extend(std::iter::repeat_n(0u8, 4 * 4));
        let path = tmp("garbage.hccmf");
        for bytes in [&b"definitely not a checkpoint"[..], &v1] {
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(
                load_model(&path),
                Err(HccError::CorruptCheckpoint(_))
            ));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let p = FactorMatrix::random(5, 2, 3);
        let q = FactorMatrix::random(4, 2, 4);
        let path = tmp("trunc.hccmf");
        save_model(&path, &p, &q).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            load_model(&path),
            Err(HccError::CorruptCheckpoint(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_single_bit_flip_anywhere() {
        let p = FactorMatrix::random(3, 2, 9);
        let q = FactorMatrix::random(2, 2, 10);
        let path = tmp("bitflip.hccmf");
        save_model(&path, &p, &q).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for byte_idx in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[byte_idx] ^= 1 << (byte_idx % 8);
            std::fs::write(&path, &corrupt).unwrap();
            assert!(
                load_model(&path).is_err(),
                "bit flip at byte {byte_idx} went undetected"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_absurd_dims_without_allocating() {
        let p = FactorMatrix::random(3, 2, 11);
        let q = FactorMatrix::random(2, 2, 12);
        let path = tmp("absurd.hccmf");
        save_model(&path, &p, &q).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Claim m = 2^60 rows: the length check must reject it before any
        // allocation happens, long before the CRC is reached.
        bytes[MAGIC_V2.len()..MAGIC_V2.len() + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load_model(&path) {
            Err(HccError::CorruptCheckpoint(msg)) => assert!(msg.contains("inconsistent"), "{msg}"),
            other => panic!("expected the length check to refuse, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_write_leaves_no_tmp_file() {
        let p = FactorMatrix::random(4, 2, 13);
        let q = FactorMatrix::random(4, 2, 14);
        let path = tmp("atomic.hccmf");
        save_model(&path, &p, &q).unwrap();
        assert!(path.exists());
        assert!(!tmp("atomic.hccmf.tmp").exists());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(matches!(
            load_model(tmp("does_not_exist.hccmf")),
            Err(HccError::Io(_))
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
