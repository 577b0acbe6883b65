//! Bit-delta payload codec for sharded parameter pushes.
//!
//! The paper's "Transmit Q only" and "Transmit FP16" cut the bytes a sync
//! moves; a sharded parameter server can cut them further, because it
//! holds the base every push replaces: the region it last published. A
//! round of SGD moves a factor by a small step, so the sign, the exponent
//! and the top of the mantissa survive it, and the XOR of a pushed float
//! with its base starts with a run of zero bits. The codec ships the bits
//! below that run. Its payload rides an ordinary [`crate::frame`] push
//! frame ([`crate::RpcKind::Push`]) as `u32` words carried as `f32` bit
//! patterns, so every link it crosses must move an f32's bits unchanged
//! (the Fp32 links do, NaN payloads included):
//!
//! ```text
//! ┌──────────────────────────┬──────────────────────────────────────────┐
//! │ bitmap: one bit a row    │ bit stream, per changed row:             │
//! │ ceil(rows / 32) words    │ raw flag (1 bit), then k elements of     │
//! │ (set = the row changed)  │   raw:    32 bits, base ^ pushed         │
//! │                          │   packed: 4-bit code c, then 31 − c bits │
//! └──────────────────────────┴──────────────────────────────────────────┘
//! ```
//!
//! A packed element's code is the leading-zero count of `base ^ pushed`:
//! `0..=13` is followed by the bits below the leading one (the one is
//! implied), `14` (14 or more leading zeros) by the low 18 bits, `15`
//! means unchanged and carries nothing. Bits fill each word from its least
//! significant end. A row whose packed elements would take more than `32·k`
//! bits ships raw, so a push is never longer than its raw rows plus
//! [`max_delta_len`]'s two bits a row. Decoding onto the base the encoder
//! read is exact, bit for bit.

/// A malformed delta payload. Surfaced instead of panicking so a corrupt
/// frame that sneaks past the CRC cannot take the server down; the
/// destination is untouched whenever one is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The payload ends before the rows and codes it announces do.
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

/// The code of an element at least this many leading zero bits into its XOR.
const CAPPED: u32 = 14;
/// The code of an unchanged element.
const UNCHANGED: u32 = 15;

/// `(code, payload bits)` of an element whose XOR with its base is `x`:
/// the payload is the low bits of `x`, below its leading one for a code
/// under [`CAPPED`].
fn code(x: u32) -> (u32, u32) {
    match x {
        0 => (UNCHANGED, 0),
        _ => {
            let code = x.leading_zeros().min(CAPPED);
            (code, (31 - code).max(32 - CAPPED))
        }
    }
}

/// Bits `cur`'s row costs packed against `base`'s, codes included: `4·k`
/// exactly when the row is unchanged.
fn packed_bits(base: &[f32], cur: &[f32]) -> usize {
    let bits = |(b, c): (&f32, &f32)| 4 + code(b.to_bits() ^ c.to_bits()).1 as usize;
    base.iter().zip(cur).map(bits).sum()
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
        .filter(|&p| p > 4 * k)
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

    /// Tops the accumulator up to at least 32 bits from `words`, reading
    /// zeros past their end.
    fn refill(&mut self, words: &[f32]) {
        if self.n < 32 {
            let word = words.get(self.at).map_or(0, |w| w.to_bits());
            self.acc |= u64::from(word) << self.n;
            self.at += 1;
            self.n += 32;
        }
    }

    fn skip(&mut self, n: u32) {
        self.acc >>= n;
        self.n -= n;
    }

    /// The next `n <= 32` bits.
    fn take(&mut self, words: &[f32], n: u32) -> u32 {
        self.refill(words);
        let value = self.acc & ((1 << n) - 1);
        self.skip(n);
        value as u32
    }

    /// A packed element's XOR with its base. One refill holds a code and
    /// a payload of up to 28 bits; codes 0 to 2 (29 to 31 bits) need a
    /// second.
    fn element(&mut self, words: &[f32]) -> u32 {
        self.refill(words);
        let code = self.acc as u32 & 15;
        let lead = if code < CAPPED { 1 << (31 - code) } else { 0 };
        let n = if code == UNCHANGED {
            0
        } else {
            (31 - code).max(32 - CAPPED)
        };
        if n > 28 {
            self.skip(4);
            return lead | self.take(words, n);
        }
        let payload = (self.acc >> 4) as u32 & ((1 << n) - 1);
        self.skip(4 + n);
        lead | payload
    }
}

/// Encodes `cur` against `base` into `out`, replacing its contents, and
/// returns the number of rows that changed. Both slices are read as whole
/// `k`-element rows over their common length; a trailing partial row is
/// never shipped. Allocates nothing when `out` already has
/// [`max_delta_len`] capacity — the sharded server's per-worker buffers do.
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
    for (r, (b, c, packed)) in rows.filter(|(_, (.., packed))| *packed > 4 * k) {
        touched += 1;
        bitmap[r / 32] = f32::from_bits(bitmap[r / 32].to_bits() | 1 << (r % 32));
        let raw = packed > 32 * k;
        stream.put(words, u32::from(raw), 1);
        for (b, c) in b.iter().zip(c) {
            let x = b.to_bits() ^ c.to_bits();
            match code(x) {
                _ if raw => stream.put(words, x, 32),
                (code, n) if n <= 28 => stream.put(words, code | (x & ((1 << n) - 1)) << 4, 4 + n),
                (code, n) => {
                    stream.put(words, code, 4);
                    stream.put(words, x & ((1 << n) - 1), n);
                }
            }
        }
    }
    if stream.n > 0 {
        words[stream.at] = f32::from_bits(stream.acc as u32);
    }
    out.truncate(head + stream.at + usize::from(stream.n > 0));
    touched
}

/// XORs each element `delta` ships into `dst` and returns the number of
/// changed rows. On `Err` it has XORed exactly what a second call XORs, so
/// a second call undoes the first.
fn xor_into(delta: &[f32], k: usize, dst: &mut [f32]) -> Result<usize, DeltaError> {
    let rows = dst.len() / k;
    let head = rows.div_ceil(32);
    let (bitmap, words) = delta.split_at_checked(head).ok_or(DeltaError::Truncated)?;
    let marked = |r: usize| bitmap[r / 32].to_bits() >> (r % 32) & 1 == 1;
    if (rows..head * 32).any(marked) {
        return Err(DeltaError::RowOutOfRange);
    }
    let (mut stream, mut touched) = (Bits::default(), 0);
    for row in (0..rows).filter(|&r| marked(r)) {
        touched += 1;
        let raw = stream.take(words, 1) == 1;
        for e in &mut dst[row * k..row * k + k] {
            let x = if raw {
                stream.take(words, 32)
            } else {
                stream.element(words)
            };
            *e = f32::from_bits(e.to_bits() ^ x);
        }
        // Past their end `refill` reads zeros: a read that went there is one
        // the payload cannot have meant.
        if 32 * stream.at - stream.n as usize > 32 * words.len() {
            return Err(DeltaError::Truncated);
        }
    }
    Ok(touched)
}

/// Applies a delta on top of `dst`, which must hold the base it was encoded
/// against, and returns the number of rows it changed. Words after the
/// last row's are ignored, so `delta` may be a prefix of a larger staging
/// buffer.
///
/// All-or-nothing: every element is applied as an XOR, so a payload found
/// malformed part-way is undone by applying it again, and on `Err` the
/// destination is bitwise untouched — a corrupt frame that slips past the
/// CRC can never leave a shard half-applied.
///
/// # Panics
/// Panics if `k` is zero.
pub fn apply_delta(delta: &[f32], k: usize, dst: &mut [f32]) -> Result<usize, DeltaError> {
    xor_into(delta, k, dst).inspect_err(|_| {
        let _ = xor_into(delta, k, dst);
    })
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
    /// `codes` collects the bit offset of every packed element's code.
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
            for e in &mut out[row * k..row * k + k] {
                let x = if raw {
                    read(&mut at, 32)?
                } else {
                    codes.push(at);
                    match read(&mut at, 4)? {
                        15 => 0,
                        14 => read(&mut at, 18)?,
                        lz => 1 << (31 - lz) | read(&mut at, 31 - lz)?,
                    }
                };
                *e = f32::from_bits(e.to_bits() ^ x);
            }
        }
        dst.copy_from_slice(&out);
        Ok(touched)
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
    fn each_element_costs_its_code_and_the_bits_below_its_leading_one() {
        // One changed row of two elements, the first's XOR with the base
        // `lz` leading zeros into it, the second unchanged: a bitmap word,
        // then the raw flag, a code and 31 − lz bits (18 from 14 zeros on),
        // and the second element's code.
        for lz in 0..32u32 {
            let base = [1.5f32, -0.25];
            let cur = [
                f32::from_bits(base[0].to_bits() ^ (1 << (31 - lz))),
                base[1],
            ];
            let bits = 1 + 4 + (31 - lz.min(14)).max(18) as usize + 4;
            assert_eq!(
                encode(&base, &cur, 2).len(),
                1 + bits.div_ceil(32),
                "lz {lz}"
            );
        }
        // Sixteen rows of k = 4, one SGD-sized step an element: 16 bitmap
        // bits in one word, then 16 × (1 + 4 × (4 + 31 − lz)) stream bits.
        let base: Vec<f32> = (0..64).map(|i| 0.1 + i as f32 * 0.01).collect();
        let cur: Vec<f32> = base.iter().map(|v| v * (1.0 + 1e-3)).collect();
        let stream: usize = (base.chunks(4).zip(cur.chunks(4)))
            .map(|(b, c)| 1 + packed_bits(b, c))
            .sum();
        assert_eq!(encode(&base, &cur, 4).len(), 1 + stream.div_ceil(32));
        assert!(stream < 64 * 32 * 85 / 100, "{stream} bits: no gain");
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
        // Every element of every row changed and its sign flipped (XOR
        // 0x8000_0000: 35 bits packed), or every bit flipped, on row
        // counts either side of a bitmap word.
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
        // Code 0 claims 31 bits; 26 follow it in the word.
        assert_eq!(
            apply_delta(&[word(1), word(0)], 2, &mut dst),
            Err(DeltaError::Truncated)
        );
        // A raw row of two elements carries 64 bits; one word follows.
        assert_eq!(
            apply_delta(&[word(1), word(1)], 2, &mut dst),
            Err(DeltaError::Truncated)
        );
        assert_eq!(dst, vec![0.0; 6], "rejected deltas must not write");
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
    /// small step, with sign flips and other high bits flipped (codes 0 to
    /// 3), NaN payloads, unchanged elements and untouched rows mixed in.
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
                    3 => f32::from_bits(v.to_bits() ^ 1 << rng.random_range(28u32..31)),
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

    // Malformed-input fuzz of the bit-delta decoder, seeded from
    // `CHAOS_SEED` when it is set so that each seed fuzzes its own corpus.
    // Every mutation ends in a typed `DeltaError` with the destination
    // untouched, or in exactly what the reference decoder makes of it.
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
            let (rows, k) = (rng.random_range(1usize..80), rng.random_range(1usize..6));
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
            // Codes that claim more payload than remains: each of the last
            // few codes rewritten to 0 (31 payload bits).
            let mut codes = Vec::new();
            reference_apply(&delta, k, &mut base.clone(), &mut codes).unwrap();
            for &at in codes.iter().rev().take(4) {
                let mut bad = delta.clone();
                let w = at / 32;
                let mut word = u64::from(bad[w].to_bits());
                if let Some(next) = bad.get(w + 1) {
                    word |= u64::from(next.to_bits()) << 32;
                }
                word &= !(0xF << (at % 32));
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
