//! Group-packed difference codec for sharded parameter pushes.
//!
//! The paper's "Transmit Q only" and "Transmit FP16" cut the bytes a sync
//! moves; a sharded parameter server can cut them further, because it
//! holds the base every push replaces: the region it last published. A
//! round of SGD moves a factor by a small step, and a float's bit pattern,
//! read as an integer, moves by a small amount with it — also where the
//! step crosses a power of two and flips exponent bits, which an XOR of
//! the two patterns would ship. The codec ships, per element, the wrapping
//! `i32` difference `pushed − base` of the bit patterns, zigzagged so that
//! a small step either way is a small number, and packs each group of
//! eight elements at the width of its widest. Its payload rides an
//! ordinary [`crate::frame`] push frame ([`crate::RpcKind::Push`]) as
//! `u32` words carried as `f32` bit patterns, so every link it crosses
//! must move an f32's bits unchanged (the Fp32 links do, NaN payloads
//! included):
//!
//! ```text
//! ┌──────────────────────────┬──────────────────────────────────────────┐
//! │ bitmap: one bit a row    │ bit stream, per changed row:             │
//! │ ceil(rows / 32) words    │ raw flag (1 bit), then                   │
//! │ (set = the row changed)  │   raw:    k × 32 bits, the pushed bits   │
//! │                          │   packed: per group of 8 elements (the   │
//! │                          │   last may be shorter), a 5-bit width w, │
//! │                          │   then each element's difference in w    │
//! └──────────────────────────┴──────────────────────────────────────────┘
//! ```
//!
//! A width is the bits the group's largest zigzagged difference needs; the
//! code 31 stands for 32, so a group that needs 31 bits ships 32 and a
//! width fits five bits. Bits fill each word from its least significant
//! end. A row whose packed groups would take more than `32·k` bits ships
//! raw, so a push is never longer than its raw rows plus
//! [`max_delta_len`]'s two bits a row. Decoding onto the base the encoder
//! read is exact, bit for bit.

/// A malformed delta payload. Surfaced instead of panicking so a corrupt
/// frame that sneaks past the CRC cannot take the server down; the
/// destination is untouched whenever one is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The payload ends before the rows and groups it announces do.
    Truncated,
    /// The bitmap marks a row past the end of the destination.
    RowOutOfRange,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed delta payload: {self:?}")
    }
}

impl std::error::Error for DeltaError {}

/// Elements that share one width.
const GROUP: usize = 8;
/// Bits of a width code.
const CODE: u32 = 5;

/// The wrapping difference of `cur`'s bit pattern from `base`'s, zigzagged:
/// `0, −1, 1, −2, …` map to `0, 1, 2, 3, …`.
fn zigzag(base: f32, cur: f32) -> u32 {
    let d = cur.to_bits().wrapping_sub(base.to_bits()) as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

/// `base` moved by the difference whose zigzag is `z`.
fn unzigzag(base: f32, z: u32) -> f32 {
    let d = (z >> 1) ^ (z & 1).wrapping_neg();
    f32::from_bits(base.to_bits().wrapping_add(d))
}

/// The width `cur`'s group ships at against `base`'s: the bits its largest
/// zigzag needs, 31 rounded up to 32, so that its code is `width.min(31)`.
fn width(base: &[f32], cur: &[f32]) -> u32 {
    let pairs = base.iter().zip(cur);
    let any = pairs.fold(0, |or, (&b, &c)| or | zigzag(b, c));
    let w = u32::BITS - any.leading_zeros();
    w + u32::from(w == 31)
}

/// Bits `cur`'s row costs packed against `base`'s, width codes included:
/// [`unchanged`] exactly when the row is unchanged.
fn packed_bits(base: &[f32], cur: &[f32]) -> usize {
    let groups = base.chunks(GROUP).zip(cur.chunks(GROUP));
    groups
        .map(|(b, c)| CODE as usize + b.len() * width(b, c) as usize)
        .sum()
}

/// Bits an unchanged row of `k` would cost packed: its width codes, all 0.
fn unchanged(k: usize) -> usize {
    CODE as usize * k.div_ceil(GROUP)
}

/// Longest encoding, in f32 elements, of a push of `rows` rows of `k`:
/// every row changed and shipped raw, behind its bitmap bit and raw flag.
pub fn max_delta_len(rows: usize, k: usize) -> usize {
    rows * k + 2 * rows.div_ceil(32)
}

/// Length in f32 elements of [`encode_delta`]'s encoding of `cur` against
/// `base`, without encoding it.
///
/// # Panics
/// Panics if `k` is zero.
pub fn delta_len(base: &[f32], cur: &[f32], k: usize) -> usize {
    let rows = base.chunks_exact(k).zip(cur.chunks_exact(k));
    let packed = rows.clone().map(|(b, c)| packed_bits(b, c));
    let bits: usize = packed
        .filter(|&p| p > unchanged(k))
        .map(|p| 1 + p.min(32 * k))
        .sum();
    rows.len().div_ceil(32) + bits.div_ceil(32)
}

/// One end of a bit stream of `u32` words, each filled and drained from its
/// least significant end through a `u64` holding `n` bits: the word being
/// written is `at`, or the next word to read.
#[derive(Default)]
struct Bits {
    acc: u64,
    n: u32,
    at: usize,
}

impl Bits {
    /// Appends the low `n <= 32` bits of `value` (no higher bit may be set).
    /// Stores word `at` every time and moves on once it is full, so the
    /// encoder has no branch to mispredict.
    fn put(&mut self, out: &mut [f32], value: u32, n: u32) {
        self.acc |= u64::from(value) << self.n;
        self.n += n;
        out[self.at] = f32::from_bits(self.acc as u32);
        let full = self.n / 32;
        self.at += full as usize;
        self.acc >>= 32 * full;
        self.n -= 32 * full;
    }

    /// The next `n <= 32` bits, reading zeros past the end of `words`.
    fn take(&mut self, words: &[f32], n: u32) -> u32 {
        if self.n < 32 {
            self.acc |= u64::from(words.get(self.at).map_or(0, |w| w.to_bits())) << self.n;
            self.at += 1;
            self.n += 32;
        }
        let value = self.acc & ((1 << n) - 1);
        self.acc >>= n;
        self.n -= n;
        value as u32
    }
}

/// Encodes `cur` against `base` into `out`, replacing its contents, and
/// returns the number of rows that changed. Both slices are read as whole
/// `k`-element rows over their common length; a trailing partial row is
/// never shipped. Allocates nothing when `out` already has
/// [`max_delta_len`] capacity — the sharded server's encode buffer does.
///
/// # Panics
/// Panics if `k` is zero.
pub fn encode_delta(base: &[f32], cur: &[f32], k: usize, out: &mut Vec<f32>) -> usize {
    let rows = base.chunks_exact(k).zip(cur.chunks_exact(k));
    let head = rows.len().div_ceil(32);
    out.clear();
    out.resize(max_delta_len(rows.len(), k), 0.0);
    let (bitmap, words) = out.split_at_mut(head);
    let (mut stream, mut touched) = (Bits::default(), 0);
    let rows = rows.map(|(b, c)| (b, c, packed_bits(b, c))).enumerate();
    for (r, (b, c, packed)) in rows.filter(|(_, (.., packed))| *packed > unchanged(k)) {
        touched += 1;
        bitmap[r / 32] = f32::from_bits(bitmap[r / 32].to_bits() | 1 << (r % 32));
        let raw = packed > 32 * k;
        stream.put(words, u32::from(raw), 1);
        if raw {
            c.iter().for_each(|c| stream.put(words, c.to_bits(), 32));
            continue;
        }
        for (b, c) in b.chunks(GROUP).zip(c.chunks(GROUP)) {
            let w = width(b, c);
            stream.put(words, w.min(31), CODE);
            for (&b, &c) in b.iter().zip(c) {
                stream.put(words, zigzag(b, c), w);
            }
        }
    }
    if stream.n > 0 {
        words[stream.at] = f32::from_bits(stream.acc as u32);
    }
    out.truncate(head + stream.at + usize::from(stream.n > 0));
    touched
}

/// Applies a delta on top of `dst`, which must hold the base it was encoded
/// against, and returns the number of rows it changed. Words after the
/// last row's are ignored, so `delta` may be a prefix of a larger staging
/// buffer.
///
/// All-or-nothing: the payload's length follows from its raw flags and
/// widths alone, and is checked against `delta` before any element is
/// written, so on `Err` the destination is bitwise untouched — a corrupt
/// frame that slips past the CRC can never leave a shard half-applied.
///
/// # Panics
/// Panics if `k` is zero.
pub fn apply_delta(delta: &[f32], k: usize, dst: &mut [f32]) -> Result<usize, DeltaError> {
    let rows = dst.len() / k;
    let head = rows.div_ceil(32);
    let (bitmap, words) = delta.split_at_checked(head).ok_or(DeltaError::Truncated)?;
    let marked = |r: usize| bitmap[r / 32].to_bits() >> (r % 32) & 1 == 1;
    if (rows..head * 32).any(marked) {
        return Err(DeltaError::RowOutOfRange);
    }
    // The five bits from bit `at` of the stream, zeros past its end.
    let word = |i: usize| u64::from(words.get(i).map_or(0, |w| w.to_bits()));
    let peek = |at: usize| (word(at / 32) | word(at / 32 + 1) << 32) >> (at % 32) & 31;
    let (mut end, mut touched) = (0, 0);
    for _ in (0..rows).filter(|&r| marked(r)) {
        touched += 1;
        end += 1;
        if peek(end - 1) & 1 == 1 {
            end += 32 * k;
            continue;
        }
        for first in (0..k).step_by(GROUP) {
            let code = peek(end) as usize;
            end += CODE as usize + (k - first).min(GROUP) * (code + usize::from(code == 31));
        }
    }
    if end > 32 * words.len() {
        return Err(DeltaError::Truncated);
    }
    let mut stream = Bits::default();
    for row in (0..rows).filter(|&r| marked(r)) {
        let row = &mut dst[row * k..row * k + k];
        if stream.take(words, 1) == 1 {
            row.iter_mut()
                .for_each(|e| *e = f32::from_bits(stream.take(words, 32)));
            continue;
        }
        for group in row.chunks_mut(GROUP) {
            let code = stream.take(words, CODE);
            let w = code + u32::from(code == 31);
            for e in group {
                *e = unzigzag(*e, stream.take(words, w));
            }
        }
    }
    Ok(touched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Encodes through a reused buffer of [`max_delta_len`] capacity and
    /// checks what every encoding owes: the length [`delta_len`] predicts,
    /// within the bound, no reallocation, and an exact round trip.
    fn encode(base: &[f32], cur: &[f32], k: usize) -> Vec<f32> {
        let rows = base.len().min(cur.len()) / k;
        let mut out = Vec::with_capacity(max_delta_len(rows, k));
        out.extend_from_slice(&[f32::NAN; 3]);
        let (capacity, touched) = (out.capacity(), encode_delta(base, cur, k, &mut out));
        assert_eq!(out.len(), delta_len(base, cur, k), "delta_len disagrees");
        assert!(out.len() <= max_delta_len(rows, k), "over the bound");
        assert_eq!(out.capacity(), capacity, "the encoder reallocated");
        let mut dst = base[..rows * k].to_vec();
        assert_eq!(apply_delta(&out, k, &mut dst), Ok(touched));
        assert_eq!(bits(&dst), bits(&cur[..rows * k]), "round trip");
        out
    }

    /// The decoder written the obvious way, a bit at a time into a copy:
    /// the reference every accepted or rejected payload is held to.
    /// `codes` collects the bit offset of every packed group's width code.
    fn reference_apply(
        delta: &[f32],
        k: usize,
        dst: &mut [f32],
        codes: &mut Vec<usize>,
    ) -> Result<usize, DeltaError> {
        let rows = dst.len() / k;
        let words = rows.div_ceil(32);
        if delta.len() < words {
            return Err(DeltaError::Truncated);
        }
        let bit = |i: usize| delta[i / 32].to_bits() >> (i % 32) & 1;
        if (rows..words * 32).any(|i| bit(i) == 1) {
            return Err(DeltaError::RowOutOfRange);
        }
        let end = delta.len() * 32;
        let read = |at: &mut usize, n: u32| {
            if *at + n as usize > end {
                return Err(DeltaError::Truncated);
            }
            *at += n as usize;
            Ok((0..n)
                .map(|j| bit(*at - n as usize + j as usize) << j)
                .sum::<u32>())
        };
        let (mut at, mut out, mut touched) = (words * 32, dst.to_vec(), 0);
        for row in (0..rows).filter(|&r| bit(r) == 1) {
            touched += 1;
            let raw = read(&mut at, 1)? == 1;
            for group in out[row * k..row * k + k].chunks_mut(8) {
                let width = if raw {
                    32
                } else {
                    codes.push(at);
                    match read(&mut at, 5)? {
                        31 => 32,
                        w => w,
                    }
                };
                for e in group {
                    let x = read(&mut at, width)?;
                    *e = if raw {
                        f32::from_bits(x)
                    } else {
                        // Even: x / 2 up; odd: (x + 1) / 2 down.
                        let step = if x % 2 == 0 { x / 2 } else { !(x / 2) };
                        f32::from_bits(e.to_bits().wrapping_add(step))
                    };
                }
            }
        }
        dst.copy_from_slice(&out);
        Ok(touched)
    }

    /// `base` moved `step` units in the last place of its bit pattern.
    fn moved(base: f32, step: i32) -> f32 {
        f32::from_bits(base.to_bits().wrapping_add_signed(step))
    }

    #[test]
    fn empty_delta_when_nothing_changed() {
        let base = vec![1.0f32; 12];
        let delta = encode(&base, &base, 4);
        assert_eq!(bits(&delta), [0], "one bitmap word, no stream");
        let mut dst = base.clone();
        assert_eq!(apply_delta(&delta, 4, &mut dst), Ok(0));
        assert_eq!(dst, base);
    }

    #[test]
    fn roundtrip_reconstructs_bit_for_bit() {
        let k = 3;
        let base: Vec<f32> = (0..15).map(|i| i as f32 * 0.5).collect();
        let mut cur = base.clone();
        cur[0] = -7.5; // row 0
        cur[9] = 100.0; // row 3
        let delta = encode(&base, &cur, k);
        assert_eq!(delta[0].to_bits(), 0b1001, "rows 0 and 3 marked");
        let mut dst = base.clone();
        assert_eq!(apply_delta(&delta, k, &mut dst), Ok(2));
        assert_eq!(dst, cur);
    }

    #[test]
    fn a_group_costs_its_width_code_and_each_zigzagged_difference_at_that_width() {
        // One row of one group, steps 1, −1, 3, 0, −4, 2, 0, 7 units in the
        // last place: zigzags 2, 1, 6, 0, 7, 4, 0, 14, whose largest needs
        // 4 bits. A bitmap word, then the raw flag 0, the width 4 and eight
        // 4-bit fields: 38 bits, from the least significant end up.
        let base = [1.0f32, -0.5, 0.25, 3.0, -2.0, 0.1, 7.5, -0.0];
        let steps = [1, -1, 3, 0, -4, 2, 0, 7];
        let cur: Vec<f32> = base.iter().zip(steps).map(|(&b, s)| moved(b, s)).collect();
        let stream = [2u64, 1, 6, 0, 7, 4, 0, 14]
            .iter()
            .enumerate()
            .fold(4 << 1, |s, (i, z)| s | z << (6 + 4 * i));
        assert_eq!(
            bits(&encode(&base, &cur, 8)),
            [1, stream as u32, (stream >> 32) as u32]
        );
        // The same steps crossing a power of two: the pattern moves by as
        // much, although the exponent's low bits flip, so the cost holds.
        let edge = [2.0f32; 8].map(|v| moved(v, -3));
        let cur: Vec<f32> = edge.iter().zip(steps).map(|(&b, s)| moved(b, s)).collect();
        assert!(cur.iter().any(|&v| v >= 2.0) && edge.iter().all(|&v| v < 2.0));
        assert_eq!(encode(&edge, &cur, 8).len(), 3);
        // Sixteen rows of k = 4, one SGD-sized step an element: 16 bitmap
        // bits in one word, then per row a flag, a code and 4 × width bits.
        let base: Vec<f32> = (0..64).map(|i| 0.1 + i as f32 * 0.01).collect();
        let cur: Vec<f32> = base.iter().map(|v| v * (1.0 + 1e-3)).collect();
        let stream: usize = (base.chunks(4).zip(cur.chunks(4)))
            .map(|(b, c)| 1 + 5 + 4 * width(b, c) as usize)
            .sum();
        assert_eq!(encode(&base, &cur, 4).len(), 1 + stream.div_ceil(32));
        assert!(stream < 64 * 32 * 85 / 100, "{stream} bits: no gain");
    }

    #[test]
    fn every_group_width_round_trips_and_31_ships_as_32() {
        // Row of k = 16: group 0's widest zigzag is `w` bits (its top bit
        // set, alone or with every bit below it), group 1 moves one unit so
        // that the row is changed even at w = 0.
        for w in 0..=32u32 {
            for low in [false, true] {
                let all = ((1u64 << w) - 1) as u32;
                let z = if low { all } else { all ^ all >> 1 };
                let step = ((z >> 1) ^ (z & 1).wrapping_neg()) as i32;
                let base: Vec<f32> = (0..16).map(|i| i as f32 * 0.75 - 4.0).collect();
                let mut cur = base.clone();
                cur[3] = moved(base[3], step);
                cur[12] = moved(base[12], 1);
                let shipped = if w == 31 { 32 } else { w as usize };
                let stream = 1 + 5 + 8 * shipped + 5 + 8 * 2;
                let delta = encode(&base, &cur, 16);
                assert_eq!(delta.len(), 1 + stream.div_ceil(32), "w {w} low {low}");
                let mut codes = Vec::new();
                reference_apply(&delta, 16, &mut base.clone(), &mut codes).unwrap();
                let code = (delta[1].to_bits() >> 1) & 31;
                assert_eq!(code, w.min(31), "w {w}: width code");
                assert_eq!(codes, [32 + 1, 32 + 6 + 8 * shipped]);
            }
        }
    }

    #[test]
    fn odd_patterns_and_short_groups_round_trip() {
        // Sign flips, NaN payloads, −0.0, subnormals, infinities and the
        // all-ones pattern, each against a plain value and against each
        // other, at widths whose last group is shorter than 8.
        let odd = [
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffa0_0000),
            f32::from_bits(0x7f80_0001),
            -0.0,
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0003),
            f32::from_bits(0x007f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(u32::MAX),
            0.37,
            -0.37,
        ];
        for k in [1, 2, 3, 4, 7, 8, 9, 11, 16, 19] {
            for shift in 0..odd.len() {
                let base: Vec<f32> = (0..5 * k).map(|i| odd[i % odd.len()]).collect();
                let cur: Vec<f32> = (0..5 * k)
                    .map(|i| match i % 3 {
                        0 => -base[i],
                        1 => odd[(i + shift) % odd.len()],
                        _ => moved(base[i], i as i32 - 7),
                    })
                    .collect();
                encode(&base, &cur, k);
            }
        }
    }

    #[test]
    fn bitwise_diff_catches_negative_zero_and_nan() {
        let base = vec![0.0f32, f32::NAN];
        // -0.0 == 0.0 numerically but differs bitwise: must ship.
        let cur = vec![-0.0f32, f32::NAN];
        let delta = encode(&base, &cur, 2);
        assert_eq!(delta[0].to_bits(), 1, "-0.0 row must be shipped");
        // An identical NaN row is bit-equal: nothing to ship; a NaN with
        // another payload is a change, and arrives with its payload.
        assert_eq!(bits(&encode(&base, &base, 2)), [0]);
        let snan = vec![0.0f32, f32::from_bits(0x7f80_0001)];
        assert_eq!(encode(&base, &snan, 2)[0].to_bits(), 1);
    }

    #[test]
    fn the_worst_push_fits_the_bound_and_round_trips() {
        // Every element of every row changed and its sign flipped (a
        // difference of 2^31, width 32 packed), or every bit flipped, on
        // row counts either side of a bitmap word: every row ships raw.
        for rows in [1, 31, 32, 33, 65] {
            for k in [1, 2, 8] {
                let base: Vec<f32> = (0..rows * k).map(|i| i as f32 * 0.37 - 5.0).collect();
                let flipped: Vec<f32> = base.iter().map(|v| -v).collect();
                let inverted: Vec<f32> =
                    base.iter().map(|v| f32::from_bits(!v.to_bits())).collect();
                for cur in [flipped, inverted] {
                    assert_eq!(encode(&base, &cur, k).len(), max_delta_len(rows, k));
                }
            }
        }
    }

    #[test]
    fn trailing_staging_garbage_is_ignored() {
        let base = vec![1.0f32; 4];
        let cur = vec![2.0f32; 4];
        let mut staged = encode(&base, &cur, 2);
        staged.extend_from_slice(&[f32::NAN; 7]); // oversized staging buffer
        let mut dst = base.clone();
        assert_eq!(apply_delta(&staged, 2, &mut dst), Ok(2));
        assert_eq!(dst, cur);
    }

    #[test]
    fn malformed_deltas_are_rejected_not_applied() {
        let mut dst = vec![0.0f32; 6];
        let word = |w: u32| f32::from_bits(w);
        // No bitmap.
        assert_eq!(apply_delta(&[], 2, &mut dst), Err(DeltaError::Truncated));
        // Row 0 marked, no stream.
        assert_eq!(
            apply_delta(&[word(1)], 2, &mut dst),
            Err(DeltaError::Truncated)
        );
        // Row 3 of 3 marked.
        assert_eq!(
            apply_delta(&[word(8), word(0)], 2, &mut dst),
            Err(DeltaError::RowOutOfRange)
        );
        // Width code 31 claims 2 × 32 bits; 26 follow it in the word.
        assert_eq!(
            apply_delta(&[word(1), word(31 << 1)], 2, &mut dst),
            Err(DeltaError::Truncated)
        );
        // A raw row of two elements carries 64 bits; one word follows.
        assert_eq!(
            apply_delta(&[word(1), word(1)], 2, &mut dst),
            Err(DeltaError::Truncated)
        );
        assert_eq!(dst, vec![0.0; 6], "rejected deltas must not write");
        // Width 13 for both elements fills the word exactly: accepted.
        assert_eq!(apply_delta(&[word(1), word(13 << 1)], 2, &mut dst), Ok(1));
    }

    #[test]
    fn late_bad_index_leaves_dst_untouched() {
        // Rows 0 and 2 marked; row 0 decodes whole and row 2's payload is
        // cut short. Row 0 must NOT have been applied when the error
        // surfaces (all-or-nothing contract).
        let base = vec![0.5f32; 6];
        let mut cur = base.clone();
        cur[0] = -3.0;
        cur[5] = 9.0;
        let delta = encode(&base, &cur, 2);
        let mut dst = base.clone();
        let cut = &delta[..delta.len() - 1];
        assert_eq!(apply_delta(cut, 2, &mut dst), Err(DeltaError::Truncated));
        assert_eq!(dst, base, "partial application leaked through");
    }

    /// A base of SGD-sized factors and a push that moved most elements by a
    /// small step, with sign flips and other high bits flipped (widths of
    /// 28 to 32), NaN payloads, unchanged elements and untouched rows mixed
    /// in.
    fn round_of_sgd(rng: &mut proptest::TestRng, rows: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
        let base: Vec<f32> = (0..rows * k)
            .map(|_| rng.random_range(-0.6f32..0.6))
            .collect();
        let mut cur = base.clone();
        for (_, row) in cur.chunks_mut(k).enumerate().filter(|(r, _)| r % 7 != 5) {
            for v in row.iter_mut() {
                *v = match rng.random_range(0u32..20) {
                    0 => -*v,
                    1 => f32::from_bits(0x7f80_0000 | rng.random_range(1u32..1 << 23)),
                    2 => *v,
                    3 => f32::from_bits(v.to_bits() ^ 1 << rng.random_range(26u32..31)),
                    _ => *v + rng.random_range(-0.01f32..0.01),
                };
            }
        }
        (base, cur)
    }

    /// Decodes `delta` with the shipped decoder and the reference onto
    /// copies of `base`: both results and both destinations must agree, and
    /// an error must leave the destination untouched.
    fn check(delta: &[f32], base: &[f32], k: usize, case: &str) -> Result<usize, DeltaError> {
        let (mut dst, mut want) = (base.to_vec(), base.to_vec());
        let got = apply_delta(delta, k, &mut dst);
        assert_eq!(
            got,
            reference_apply(delta, k, &mut want, &mut Vec::new()),
            "{case}"
        );
        assert_eq!(bits(&dst), bits(&want), "{case}: the destination differs");
        if got.is_err() {
            assert_eq!(bits(&dst), bits(base), "{case}: an error wrote to dst");
        }
        got
    }

    // Malformed-input fuzz of the delta decoder, seeded from `CHAOS_SEED`
    // when it is set so that each seed fuzzes its own corpus. Every
    // mutation ends in a typed `DeltaError` with the destination untouched,
    // or in exactly what the reference decoder makes of it.
    #[test]
    fn mutated_bit_deltas_error_cleanly_or_apply_exactly() {
        let seed: u64 = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut outcomes = [0usize; 3];
        for case in 0u64..128 {
            let mut rng = proptest::TestRng::seed_from_u64(
                0xB17_DE17A ^ seed << 32 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let (rows, k) = (rng.random_range(1usize..80), rng.random_range(1usize..20));
            let (base, cur) = round_of_sgd(&mut rng, rows, k);
            let delta = encode(&base, &cur, k);
            let mut tally = |r: Result<usize, DeltaError>| match r {
                Ok(_) => outcomes[0] += 1,
                Err(DeltaError::Truncated) => outcomes[1] += 1,
                Err(DeltaError::RowOutOfRange) => outcomes[2] += 1,
            };
            // Truncation at every word: the last word always holds a bit
            // the payload needs.
            for cut in 0..delta.len() {
                let got = check(&delta[..cut], &base, k, &format!("case {case} cut {cut}"));
                assert_eq!(got, Err(DeltaError::Truncated), "case {case} cut {cut}");
                tally(got);
            }
            // Bitmap bits past the shard's rows.
            for bit in rows % 32..32 {
                if rows % 32 == 0 {
                    break;
                }
                let mut bad = delta.clone();
                let w = rows / 32;
                bad[w] = f32::from_bits(bad[w].to_bits() | 1 << bit);
                let got = check(&bad, &base, k, &format!("case {case} row bit {bit}"));
                assert_eq!(got, Err(DeltaError::RowOutOfRange));
                tally(got);
            }
            // Widths that claim more payload than remains: each of the
            // last few width codes rewritten to 31 (32 bits an element).
            let mut codes = Vec::new();
            reference_apply(&delta, k, &mut base.clone(), &mut codes).unwrap();
            for &at in codes.iter().rev().take(4) {
                let mut bad = delta.clone();
                let w = at / 32;
                let mut word = u64::from(bad[w].to_bits());
                if let Some(next) = bad.get(w + 1) {
                    word |= u64::from(next.to_bits()) << 32;
                }
                word |= 31 << (at % 32);
                bad[w] = f32::from_bits(word as u32);
                if let Some(next) = bad.get_mut(w + 1) {
                    *next = f32::from_bits((word >> 32) as u32);
                }
                tally(check(&bad, &base, k, &format!("case {case} code at {at}")));
            }
            // Trailing words change nothing.
            let mut long = delta.clone();
            long.extend((0..rng.random_range(1..4)).map(|_| f32::from_bits(rng.random())));
            let touched = apply_delta(&delta, k, &mut base.clone());
            assert_eq!(
                check(&long, &base, k, &format!("case {case} trailing")),
                touched
            );
            // Random flips and hostile words anywhere.
            for flip in 0..16 {
                let mut bad = delta.clone();
                let at = rng.random_range(0..bad.len());
                bad[at] = match flip % 4 {
                    0 => f32::from_bits(u32::MAX),
                    1 => f32::from_bits(0x7fa0_0000 | rng.random_range(0u32..1 << 20)),
                    _ => f32::from_bits(bad[at].to_bits() ^ 1 << rng.random_range(0u32..32)),
                };
                tally(check(&bad, &base, k, &format!("case {case} flip {flip}")));
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "an outcome never happened: {outcomes:?}"
        );
    }
}
