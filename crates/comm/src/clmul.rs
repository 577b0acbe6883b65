//! CRC-32/IEEE by carry-less multiplication: the whole 16-byte blocks of a
//! long input are folded with PCLMULQDQ (Intel, "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction", bit-reflected variant),
//! four accumulators × 64 bytes per step. Same polynomial and same register
//! as the table loop in [`crate::block`], which takes what is left — and
//! everything, on a CPU without the instruction. The crate's only `unsafe`.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

/// Shortest input worth the set-up and the final reduction.
const MIN_LEN: usize = 128;

/// Advances the CRC register `c` (not complemented) over the whole 16-byte
/// blocks of `data` and returns it with the unconsumed tail; `(c, data)`
/// unchanged when `data` is short or the CPU lacks the instructions.
pub(crate) fn fold_blocks(c: u32, data: &[u8]) -> (u32, &[u8]) {
    let has_clmul = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
    if data.len() < MIN_LEN || !has_clmul {
        return (c, data);
    }
    let (blocks, tail) = data.split_at(data.len() & !15);
    // SAFETY: the CPU was just seen to support every feature `fold` enables.
    (unsafe { fold(c, blocks) }, tail)
}

// x^n mod P(x), bit-reflected, for the reflected polynomial 0x1DB710641:
// fold by 64 bytes (K1, K2), by 16 (K3, K4), 64 → 32 bits (K5), Barrett μ.
const K1: i64 = 0x1_5444_2bd4;
const K2: i64 = 0x1_c6e4_1596;
const K3: i64 = 0x1_7519_97d0;
const K4: i64 = 0x0_ccaa_009e;
const K5: i64 = 0x1_63cd_6124;
const P: i64 = 0x1_DB71_0641;
const MU: i64 = 0x1_F701_1641;

fn load(block: &[u8]) -> __m128i {
    assert!(block.len() >= 16);
    // SAFETY: 16 readable bytes, as just asserted; the load needs no
    // alignment, and SSE2 is part of every x86-64.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// `acc`·x^n mod P (n by `keys`) plus the `next` 16 bytes of the message.
#[target_feature(enable = "pclmulqdq")]
fn fold16(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
    let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

/// `blocks` is a whole number of 16-byte blocks, at least four.
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
fn fold(c: u32, blocks: &[u8]) -> u32 {
    let (head, rest) = blocks.split_at(64);
    let mut x = [0, 16, 32, 48].map(|at| load(&head[at..]));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut quads = rest.chunks_exact(64);
    for quad in &mut quads {
        for (x, block) in x.iter_mut().zip(quad.chunks_exact(16)) {
            *x = fold16(*x, load(block), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = x[0];
    let singles = quads.remainder().chunks_exact(16).map(load);
    for next in x[1..].iter().copied().chain(singles) {
        acc = fold16(acc, next, k3k4);
    }
    // 128 → 96 → 64 bits, then Barrett reduction to the 32-bit register.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128(acc, k3k4, 0x10),
        _mm_srli_si128(acc, 8),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(acc, 4),
    );
    let p_mu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), p_mu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
    _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32
}
