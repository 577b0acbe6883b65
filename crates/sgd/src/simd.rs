//! Runtime-dispatched SIMD kernels for the SGD hot path and the fp16 codec.
//!
//! The paper's CPU workers get their throughput from hand-written AVX512
//! kernels (§3.4). This module is the portable-Rust analog: AVX2+FMA
//! `std::arch` implementations of the fused dot+update SGD step, the dot
//! products and an F16C path for the binary16 codec, selected **once at
//! runtime** via `is_x86_feature_detected!` and cached. Every entry point
//! has a scalar fallback with identical semantics (up to floating-point
//! reassociation in the dot product), so the crate builds and tests pass on
//! any architecture. The AVX2 side has one dot kernel per element type (f32,
//! binary16, int8): an `NQ × NI` register tile. [`dot`] and the training
//! step's `p·q` are its 1 × 1 instance; [`dot_rows`], [`dot_rows_f16`] and
//! [`dot_rows_i8`] run it over the serving scan's tiles. No kernel here is
//! public as an `unsafe fn`.
//!
//! Dispatch granularity is one branch on a relaxed atomic per kernel call —
//! noise next to the `O(k)` work each call does at the paper's k = 128.
//!
//! # Backend equality guarantees
//!
//! * [`encode_f16`] / [`decode_f16`]: **bit-exact** across backends.
//!   VCVTPS2PH with round-to-nearest-even implements the same IEEE-754
//!   conversion as the scalar codec in [`crate::fp16`], including subnormals
//!   (the F16C instructions are exempt from DAZ/FTZ) and NaN quieting.
//! * [`dot_rows_i8`]: **bit-exact** across backends — the accumulation is
//!   integer arithmetic, so VPMADDWD and the scalar loop produce identical
//!   i32s.
//! * [`dot`], [`dot_rows`], [`dot_rows_f16`] and the fused SGD step: scalar
//!   and AVX2 differ only by reassociation of the dot reduction and FMA
//!   contraction in the update (relative error ≤ ~k·ε). Within one process
//!   the backend is fixed, so the plain and shared SGD paths — both of which
//!   route through one fused step — produce identical results to each other.
//! * Within one backend a score does not depend on its place in a tile:
//!   every `dot_rows*` score is **bit-exact** with the 1 × 1 call on that
//!   pair (and, for f32, with [`dot`]) — tiling changes which pairs are in
//!   flight together, never one pair's reduction.

use std::sync::atomic::{AtomicU8, Ordering};

/// Kernel implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops (auto-vectorizable, no intrinsics).
    Scalar,
    /// AVX2 + FMA + F16C `std::arch` kernels (x86-64 only).
    Avx2,
}

impl Backend {
    /// Short name used in bench output and logs.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

const BK_UNSET: u8 = 0;
const BK_SCALAR: u8 = 1;
const BK_AVX2: u8 = 2;

/// Cached dispatch decision; `BK_UNSET` until first use or after
/// [`reset_backend`].
static ACTIVE: AtomicU8 = AtomicU8::new(BK_UNSET);

/// Probes CPU features. AVX2, FMA and F16C are grouped as one tier: every
/// mainstream core since Haswell (2013) has all three, and grouping keeps
/// the dispatch table binary.
fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma")
            && is_x86_feature_detected!("f16c")
        {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// The backend all dispatched kernels currently use. First call detects and
/// caches; later calls are a single relaxed load.
#[inline]
pub fn active_backend() -> Backend {
    // ordering: Relaxed — racy one-time init: every thread that misses
    // computes the same detection result, so publishing the cached code
    // needs no ordering; the value is a self-contained u8 code.
    match ACTIVE.load(Ordering::Relaxed) {
        BK_AVX2 => Backend::Avx2,
        BK_SCALAR => Backend::Scalar,
        _ => {
            let b = detect();
            let code = match b {
                Backend::Scalar => BK_SCALAR,
                Backend::Avx2 => BK_AVX2,
            };
            // ordering: Relaxed — see the load above; duplicate racing
            // stores write the same value.
            ACTIVE.store(code, Ordering::Relaxed);
            b
        }
    }
}

/// Forces a specific backend (benchmarks and equivalence tests).
///
/// Returns `Err` without changing anything if the requested backend is not
/// available on this CPU, so tests stay green on non-AVX2 machines.
pub fn set_backend(b: Backend) -> Result<(), &'static str> {
    if b == Backend::Avx2 && detect() != Backend::Avx2 {
        return Err("avx2 backend not supported on this CPU");
    }
    let code = match b {
        Backend::Scalar => BK_SCALAR,
        Backend::Avx2 => BK_AVX2,
    };
    // ordering: Relaxed — test/bench-only override; callers sequence their
    // own kernel calls after it on the same thread.
    ACTIVE.store(code, Ordering::Relaxed);
    Ok(())
}

/// Drops any forced backend; the next kernel call re-detects.
pub fn reset_backend() {
    // ordering: Relaxed — see `set_backend`.
    ACTIVE.store(BK_UNSET, Ordering::Relaxed);
}

/// Capability tag naming the exact instruction sets the dispatched kernels
/// are using, for telemetry headers and bench output. Unlike
/// [`Backend::name`], this spells out the grouped features so a recorded
/// timeline is attributable to a precise code path.
pub fn dispatch_tag() -> &'static str {
    match active_backend() {
        Backend::Scalar => "scalar",
        Backend::Avx2 => "avx2+fma+f16c",
    }
}

// ---------------------------------------------------------------------------
// Dot product
// ---------------------------------------------------------------------------

/// Dispatched inner product of the first `min(a.len(), b.len())` elements
/// of `a` and `b` (the scalar `zip`'s rule). The AVX2 path is the 1 × 1
/// tile of [`dot_rows`], so a pair scores the same alone as inside a tile.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `active_backend() == Avx2` implies AVX2+FMA were
            // detected at runtime; both pointers cover the `min` length.
            unsafe { avx2::dot_ptr(a.as_ptr(), b.as_ptr(), a.len().min(b.len())) }
        }
        _ => scalar::dot(a, b),
    }
}

// ---------------------------------------------------------------------------
// Multi-row dot products (the serving tile scan)
// ---------------------------------------------------------------------------

/// Shape of a multi-row call: `(k, ni)` from `NQ` query rows of `k`
/// elements, `ni · k` item elements and `NQ` output rows of `ni` scores.
///
/// # Panics
/// Panics when the lengths disagree (the kernels index by this shape).
fn rows_shape<const NQ: usize>(
    query_lens: [usize; NQ],
    items_len: usize,
    out_lens: [usize; NQ],
) -> (usize, usize) {
    let k = query_lens.first().copied().unwrap_or(0);
    let ni = out_lens.first().copied().unwrap_or(0);
    assert!(
        query_lens.iter().all(|&l| l == k)
            && out_lens.iter().all(|&l| l == ni)
            && items_len == ni * k,
        "multi-row dot: {NQ} queries of {query_lens:?}, {items_len} item elements, outputs {out_lens:?}"
    );
    (k, ni)
}

/// Stamps out one dispatched multi-row dot product: the shape check, the
/// AVX2 tile kernel, and the scalar fallback that calls the scalar
/// reference once per pair.
macro_rules! dot_rows_dispatch {
    ($(#[$doc:meta])* $name:ident, $q:ty, $item:ty, $out:ty, $avx2:ident, $scalar:path) => {
        $(#[$doc])*
        #[inline]
        pub fn $name<const NQ: usize>(
            queries: [&[$q]; NQ],
            items: &[$item],
            mut out: [&mut [$out]; NQ],
        ) {
            let (k, ni) = rows_shape(
                queries.map(<[$q]>::len),
                items.len(),
                out.each_ref().map(|o| o.len()),
            );
            match active_backend() {
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => {
                    // SAFETY: the backend implies the kernel's CPU features
                    // were detected; `rows_shape` checked that every query
                    // holds `k` elements, `items` holds `ni * k` and every
                    // output row `ni`; the output rows are distinct `&mut`s.
                    unsafe {
                        avx2::$avx2(
                            queries.map(<[$q]>::as_ptr),
                            items.as_ptr(),
                            ni,
                            k,
                            out.each_mut().map(|o| o.as_mut_ptr()),
                        )
                    }
                }
                _ => {
                    for (q, o) in queries.iter().zip(out.iter_mut()) {
                        for (i, s) in o.iter_mut().enumerate() {
                            *s = $scalar(q, &items[i * k..(i + 1) * k]);
                        }
                    }
                }
            }
        }
    };
}

dot_rows_dispatch! {
    /// Scores `NQ` query rows against every row of `items` (`ni` rows of
    /// `k = queries[0].len()`, row-major): `out[a][i] = dot(queries[a], item i)`.
    ///
    /// One call loads each item row once for all `NQ` queries, and the AVX2
    /// path works on 2 items at a time, so an `NQ = 2` call issues one load
    /// per FMA where a 1 × 1 call issues two. A pair's arithmetic does not
    /// depend on the tile it sits in, and [`dot`] is the 1 × 1 tile, so
    /// every score is bit-identical to a [`dot`] call on that pair, on
    /// either backend.
    ///
    /// # Panics
    /// Panics if the query rows differ in length, the output rows differ in
    /// length, or `items.len() != out[0].len() * queries[0].len()`.
    dot_rows, f32, f32, f32, dot_rows_ptr, scalar::dot
}

dot_rows_dispatch! {
    /// [`dot_rows`] against binary16-encoded item rows: every score is
    /// bit-identical to the 1 × 1 call on that pair. The AVX2 path widens
    /// each group of 8 halves once for all `NQ` queries.
    ///
    /// # Panics
    /// Same shape contract as [`dot_rows`].
    dot_rows_f16, f32, u16, f32, dot_rows_f16_ptr, scalar::dot_f16
}

dot_rows_dispatch! {
    /// [`dot_rows`] over int8 rows with exact i32 accumulation: every score
    /// equals the 1 × 1 call on that pair (integer arithmetic, so any
    /// blocking agrees).
    ///
    /// # Panics
    /// Same shape contract as [`dot_rows`].
    dot_rows_i8, i8, i8, i32, dot_rows_i8_ptr, crate::int8::dot_i8_scalar
}

// ---------------------------------------------------------------------------
// Fused dot + update SGD step over raw rows
// ---------------------------------------------------------------------------

/// One fused SGD step over raw factor rows: computes `e = r − p·q`, then
///
/// ```text
/// p[j] += lr * (e*q[j] − lambda_p*p[j])
/// q[j] += lr * (e*p_old[j] − lambda_q*q[j])
/// ```
///
/// using the *old* `p[j]` in the `q` update (FPSGD/CuMF_SGD convention).
/// Returns `e`. Both the plain-slice and the shared-atomic SGD paths call
/// this one function, which is what makes them bit-identical to each other.
/// The AVX2 path's `p·q` is [`dot`]'s 1 × 1 tile.
///
/// # Safety
///
/// * `p` and `q` must each point to `k` valid, aligned, writable `f32`s.
/// * The two rows must not overlap.
/// * Concurrent plain access from other threads (the Hogwild case) is
///   tolerated by the algorithm but must come from rows obtained via
///   [`crate::factors::SharedFactors`]; see `sgd_step_shared` for the
///   aliasing argument.
// SHARED: p, q — Hogwild factor rows; other threads may be running this
// same kernel on the same rows, which the algorithm tolerates lane-wise.
#[inline]
pub(crate) unsafe fn fused_step_ptr(
    p: *mut f32,
    q: *mut f32,
    k: usize,
    r: f32,
    lr: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f32 {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: backend implies AVX2+FMA present; pointer contracts are
            // the caller's (documented above) and forwarded unchanged.
            unsafe { avx2::fused_step_ptr(p, q, k, r, lr, lambda_p, lambda_q) }
        }
        // SAFETY: pointer contracts forwarded unchanged.
        _ => unsafe { scalar::fused_step_ptr(p, q, k, r, lr, lambda_p, lambda_q) },
    }
}

// ---------------------------------------------------------------------------
// fp16 codec bulk conversion
// ---------------------------------------------------------------------------

/// Dispatched bulk f32 → binary16 conversion; bit-exact with
/// [`crate::fp16::f32_to_f16`] on every input including NaN and subnormals.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn encode_f16(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "encode buffers must match");
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: backend implies F16C present; lengths checked above.
            unsafe { avx2::encode_f16(src, dst) }
        }
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = crate::fp16::f32_to_f16(s);
            }
        }
    }
}

/// Dispatched bulk binary16 → f32 conversion; bit-exact with
/// [`crate::fp16::f16_to_f32`].
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn decode_f16(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "decode buffers must match");
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: backend implies F16C present; lengths checked above.
            unsafe { avx2::decode_f16(src, dst) }
        }
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = crate::fp16::f16_to_f32(s);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar reference implementations
// ---------------------------------------------------------------------------

/// Portable fallbacks. These are the *reference semantics* the SIMD paths are
/// tested against; they intentionally mirror the pre-SIMD seed kernels.
mod scalar {
    /// Plain-loop inner product over the shorter length (LLVM
    /// auto-vectorizes the zip).
    #[inline]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (&x, &y) in a.iter().zip(b.iter()) {
            acc += x * y;
        }
        acc
    }

    /// Plain-loop mixed-precision inner product: `Σ a[j]·decode(b[j])`.
    #[inline]
    pub(super) fn dot_f16(a: &[f32], b: &[u16]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for (&x, &h) in a.iter().zip(b.iter()) {
            acc += x * crate::fp16::f16_to_f32(h);
        }
        acc
    }

    /// Scalar fused step. See [`super::fused_step_ptr`] for the contract.
    ///
    /// # Safety
    /// Same as [`super::fused_step_ptr`].
    // SHARED: p, q — same Hogwild factor rows as the dispatching wrapper.
    #[inline]
    pub(super) unsafe fn fused_step_ptr(
        p: *mut f32,
        q: *mut f32,
        k: usize,
        r: f32,
        lr: f32,
        lambda_p: f32,
        lambda_q: f32,
    ) -> f32 {
        let mut acc = 0.0f32;
        for j in 0..k {
            // SAFETY: j < k and the caller guarantees k valid elements.
            unsafe {
                acc += *p.add(j) * *q.add(j);
            }
        }
        let e = r - acc;
        for j in 0..k {
            // SAFETY: j < k; rows don't overlap, so the reads of p_old/q_old
            // see the values from before this loop iteration's writes.
            unsafe {
                let pj = p.add(j);
                let qj = q.add(j);
                let p_old = *pj;
                let q_old = *qj;
                *pj = p_old + lr * (e * q_old - lambda_p * p_old);
                *qj = q_old + lr * (e * p_old - lambda_q * q_old);
            }
        }
        e
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA + F16C implementations
// ---------------------------------------------------------------------------

/// x86-64 vector kernels. Every function here requires the CPU features its
/// `#[target_feature]` attribute names; the dispatcher guarantees that by
/// construction, and tests gate direct calls on `detect()`-equivalent
/// checks. There is one dot kernel per element type, the tile block; a
/// single-row dot is its 1 × 1 instance.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of one 8-lane register.
    ///
    /// # Safety
    /// Requires AVX.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256) -> f32 {
        // Register-only intrinsics are safe inside a matching
        // #[target_feature] fn — no pointer access, so no unsafe block.
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Single-row f32 dot: the 1 × 1 [`dot_block`].
    ///
    /// # Safety
    /// Requires AVX2+FMA; `a` and `b` must point to `k` valid f32s.
    // SHARED: a, b — factor rows concurrent Hogwild writers may touch;
    // the dot only needs per-lane untorn reads.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_ptr(a: *const f32, b: *const f32, k: usize) -> f32 {
        // SAFETY: the caller's contract is the block's for one row each.
        unsafe { dot_block::<1, 1>([a], [b], k)[0][0] }
    }

    /// Fused dot+update step, vector form. Same math as
    /// [`super::scalar::fused_step_ptr`] with FMA contraction.
    ///
    /// # Safety
    /// Requires AVX2+FMA; same pointer contract as
    /// [`super::fused_step_ptr`] (`k` valid f32s each, non-overlapping).
    // SHARED: p, q — same Hogwild factor rows as the dispatching wrapper.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fused_step_ptr(
        p: *mut f32,
        q: *mut f32,
        k: usize,
        r: f32,
        lr: f32,
        lambda_p: f32,
        lambda_q: f32,
    ) -> f32 {
        // SAFETY: element accesses stay in `0..k` (caller contract); the
        // rows don't overlap, so loading pv/qv before storing both keeps
        // the "old p in the q update" semantics of the scalar kernel.
        unsafe {
            let e = r - dot_ptr(p, q, k);
            let e_v = _mm256_set1_ps(e);
            let lr_v = _mm256_set1_ps(lr);
            let lp_v = _mm256_set1_ps(lambda_p);
            let lq_v = _mm256_set1_ps(lambda_q);
            let mut j = 0usize;
            while j + 8 <= k {
                let pv = _mm256_loadu_ps(p.add(j));
                let qv = _mm256_loadu_ps(q.add(j));
                // gp = e*q − λp*p ; gq = e*p_old − λq*q (fnmadd: −a*b + c)
                let gp = _mm256_fnmadd_ps(lp_v, pv, _mm256_mul_ps(e_v, qv));
                let gq = _mm256_fnmadd_ps(lq_v, qv, _mm256_mul_ps(e_v, pv));
                _mm256_storeu_ps(p.add(j), _mm256_fmadd_ps(lr_v, gp, pv));
                _mm256_storeu_ps(q.add(j), _mm256_fmadd_ps(lr_v, gq, qv));
                j += 8;
            }
            while j < k {
                let pj = p.add(j);
                let qj = q.add(j);
                let p_old = *pj;
                let q_old = *qj;
                *pj = p_old + lr * (e * q_old - lambda_p * p_old);
                *qj = q_old + lr * (e * p_old - lambda_q * q_old);
                j += 1;
            }
            e
        }
    }

    /// Horizontal sum of one 8-lane i32 register.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        // Register-only intrinsics; no pointer access.
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// Loads 8 binary16 lanes widened to f32 (VCVTPH2PS, exact).
    ///
    /// # Safety
    /// Requires AVX+F16C; `p` must point to 8 valid u16 half patterns.
    // SHARED: p — a serving shard row, read-only while queries run.
    #[inline]
    #[target_feature(enable = "avx,f16c")]
    unsafe fn load8_f16(p: *const u16) -> __m256 {
        // SAFETY: the caller guarantees 8 readable u16s = the 16 bytes of
        // the unaligned 128-bit load.
        unsafe { _mm256_cvtph_ps(_mm_loadu_si128(p as *const __m128i)) }
    }

    /// Stamps out an `NQ × NI` register block of a float dot kernel: `NQ`
    /// query rows against `NI` item rows, each item vector loaded (`$load8`)
    /// once for all queries. Per pair the arithmetic is the same in every
    /// block shape, step for step — 16-element chunks split over
    /// `acc0`/`acc1`, an 8-element remainder into `acc0`, `hsum(acc0 +
    /// acc1)`, then the scalar tail (`$widen` an item element, multiply,
    /// add) — which is what makes every score bit-identical to the 1 × 1
    /// block's on that pair.
    macro_rules! float_block {
        ($(#[$doc:meta])* $name:ident, $item:ty, $features:literal, $load8:path, $widen:path) => {
            $(#[$doc])*
            // SAFETY: an `unsafe fn`; the `# Safety` section each invocation
            // passes in states the caller's contract.
            // SHARED: q, it — rows this kernel only reads: serving rows, or
            // (through `dot_ptr`) Hogwild factor rows whose concurrent
            // writers leave per-lane untorn values.
            #[inline]
            #[target_feature(enable = $features)]
            unsafe fn $name<const NQ: usize, const NI: usize>(
                q: [*const f32; NQ],
                it: [*const $item; NI],
                k: usize,
            ) -> [[f32; NI]; NQ] {
                // SAFETY: every access below is at an offset in `0..k` of a
                // pointer the caller guarantees covers `k` elements; vector
                // loads are unaligned and read 8 elements at `j` only while
                // `j + 8 <= k`.
                unsafe {
                    let mut acc0 = [[_mm256_setzero_ps(); NI]; NQ];
                    let mut acc1 = [[_mm256_setzero_ps(); NI]; NQ];
                    let mut iv = [_mm256_setzero_ps(); NI];
                    let mut j = 0usize;
                    while j + 16 <= k {
                        for b in 0..NI {
                            iv[b] = $load8(it[b].add(j));
                        }
                        for a in 0..NQ {
                            let qv = _mm256_loadu_ps(q[a].add(j));
                            for b in 0..NI {
                                acc0[a][b] = _mm256_fmadd_ps(qv, iv[b], acc0[a][b]);
                            }
                        }
                        for b in 0..NI {
                            iv[b] = $load8(it[b].add(j + 8));
                        }
                        for a in 0..NQ {
                            let qv = _mm256_loadu_ps(q[a].add(j + 8));
                            for b in 0..NI {
                                acc1[a][b] = _mm256_fmadd_ps(qv, iv[b], acc1[a][b]);
                            }
                        }
                        j += 16;
                    }
                    if j + 8 <= k {
                        for b in 0..NI {
                            iv[b] = $load8(it[b].add(j));
                        }
                        for a in 0..NQ {
                            let qv = _mm256_loadu_ps(q[a].add(j));
                            for b in 0..NI {
                                acc0[a][b] = _mm256_fmadd_ps(qv, iv[b], acc0[a][b]);
                            }
                        }
                        j += 8;
                    }
                    let mut out = [[0.0f32; NI]; NQ];
                    for a in 0..NQ {
                        for b in 0..NI {
                            let mut acc = hsum(_mm256_add_ps(acc0[a][b], acc1[a][b]));
                            for t in j..k {
                                acc += *q[a].add(t) * $widen(*it[b].add(t));
                            }
                            out[a][b] = acc;
                        }
                    }
                    out
                }
            }
        };
    }

    float_block! {
        /// `NQ × NI` f32 dot block; [`dot_ptr`] is its 1 × 1 instance.
        ///
        /// # Safety
        /// Requires AVX2+FMA; every pointer must cover `k` valid f32s.
        dot_block, f32, "avx2,fma", _mm256_loadu_ps, std::convert::identity
    }

    float_block! {
        /// `NQ × NI` f32 × binary16 dot block: each 8 halves are widened once
        /// for all `NQ` queries.
        ///
        /// # Safety
        /// Requires AVX2+FMA+F16C; `q` pointers must cover `k` valid f32s
        /// and `it` pointers `k` valid u16 half patterns.
        dot_f16_block, u16, "avx2,fma,f16c", load8_f16, crate::fp16::f16_to_f32
    }

    /// `NQ × NI` int8 dot block: 16 lanes widened to i16 per step
    /// (VPMOVSXBW), each item's once for all `NQ` queries, pairwise
    /// multiplied and summed into i32 lanes (VPMADDWD). Integer
    /// accumulation, so the totals equal the scalar reference exactly.
    ///
    /// # Safety
    /// Requires AVX2; every pointer must cover `k` valid i8s.
    // SHARED: q, it — quantized serving query and shard rows, read-only
    // while queries run.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_i8_block<const NQ: usize, const NI: usize>(
        q: [*const i8; NQ],
        it: [*const i8; NI],
        k: usize,
    ) -> [[i32; NI]; NQ] {
        // SAFETY: every access is at an offset in `0..k` of a pointer the
        // caller guarantees covers `k` i8s; each 128-bit load reads 16 bytes
        // at `j` only while `j + 16 <= k`. i32 lanes cannot overflow: each
        // madd term is ≤ 2·127² and at most k/16 terms accumulate per lane.
        unsafe {
            let mut acc = [[_mm256_setzero_si256(); NI]; NQ];
            let mut iv = [_mm256_setzero_si256(); NI];
            let mut j = 0usize;
            while j + 16 <= k {
                for b in 0..NI {
                    iv[b] = _mm256_cvtepi8_epi16(_mm_loadu_si128(it[b].add(j) as *const __m128i));
                }
                for a in 0..NQ {
                    let qv = _mm256_cvtepi8_epi16(_mm_loadu_si128(q[a].add(j) as *const __m128i));
                    for b in 0..NI {
                        acc[a][b] = _mm256_add_epi32(acc[a][b], _mm256_madd_epi16(qv, iv[b]));
                    }
                }
                j += 16;
            }
            let mut out = [[0i32; NI]; NQ];
            for a in 0..NQ {
                for b in 0..NI {
                    let mut total = hsum_epi32(acc[a][b]);
                    for t in j..k {
                        total += *q[a].add(t) as i32 * *it[b].add(t) as i32;
                    }
                    out[a][b] = total;
                }
            }
            out
        }
    }

    /// Stamps out a tile kernel over a block: `NQ` query rows against `ni`
    /// consecutive item rows, two item rows per block and a one-row block
    /// for an odd tail; `out[a][i]` receives query `a` · item `i`.
    macro_rules! rows_kernel {
        ($(#[$doc:meta])* $name:ident, $block:ident, $q:ty, $item:ty, $out:ty, $features:literal) => {
            $(#[$doc])*
            // SAFETY: an `unsafe fn`; the `# Safety` section each invocation
            // passes in states the caller's contract.
            // SHARED: q, items — serving query and shard rows, read-only
            // while queries run; out — the caller's private score scratch.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $name<const NQ: usize>(
                q: [*const $q; NQ],
                items: *const $item,
                ni: usize,
                k: usize,
                out: [*mut $out; NQ],
            ) {
                // SAFETY: item row `i < ni` starts at `items + i·k` and holds
                // `k` elements, inside the `ni·k` the caller guarantees; the
                // block reads only those rows and the `k`-element queries;
                // `out[a] + i` stays inside the `ni` writable elements.
                unsafe {
                    let mut i = 0usize;
                    while i + 2 <= ni {
                        let s = $block::<NQ, 2>(q, [items.add(i * k), items.add((i + 1) * k)], k);
                        for a in 0..NQ {
                            *out[a].add(i) = s[a][0];
                            *out[a].add(i + 1) = s[a][1];
                        }
                        i += 2;
                    }
                    if i < ni {
                        let s = $block::<NQ, 1>(q, [items.add(i * k)], k);
                        for a in 0..NQ {
                            *out[a].add(i) = s[a][0];
                        }
                    }
                }
            }
        };
    }

    rows_kernel! {
        /// Multi-row f32 dot: see [`super::dot_rows`].
        ///
        /// # Safety
        /// Requires AVX2+FMA; each `q[a]` must point to `k` valid f32s,
        /// `items` to `ni·k`, and each `out[a]` to `ni` writable f32s that
        /// overlap nothing else passed in.
        dot_rows_ptr, dot_block, f32, f32, f32, "avx2,fma"
    }

    rows_kernel! {
        /// Multi-row f32 × binary16 dot: see [`super::dot_rows_f16`].
        ///
        /// # Safety
        /// Requires AVX2+FMA+F16C; each `q[a]` must point to `k` valid f32s,
        /// `items` to `ni·k` u16 half patterns, and each `out[a]` to `ni`
        /// writable f32s that overlap nothing else passed in.
        dot_rows_f16_ptr, dot_f16_block, f32, u16, f32, "avx2,fma,f16c"
    }

    rows_kernel! {
        /// Multi-row int8 dot: see [`super::dot_rows_i8`].
        ///
        /// # Safety
        /// Requires AVX2; each `q[a]` must point to `k` valid i8s, `items`
        /// to `ni·k`, and each `out[a]` to `ni` writable i32s that overlap
        /// nothing else passed in.
        dot_rows_i8_ptr, dot_i8_block, i8, i8, i32, "avx2"
    }

    /// Bulk f32 → f16 via VCVTPS2PH (round-to-nearest-even), 8 lanes/iter.
    ///
    /// # Safety
    /// Requires F16C (+AVX); `src` and `dst` must be equal length.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn encode_f16(src: &[f32], dst: &mut [u16]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut j = 0usize;
        // SAFETY: accesses stay in `0..n`, within both slices; the 128-bit
        // store writes 8 u16 = 16 bytes at dp+j, valid while j+8 <= n.
        unsafe {
            while j + 8 <= n {
                let v = _mm256_loadu_ps(sp.add(j));
                // Rounding imm 0 = round-to-nearest-even, matching the
                // scalar codec (stdarch's 3-bit imm check rejects the
                // traditional `| _MM_FROUND_NO_EXC` spelling).
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
                _mm_storeu_si128(dp.add(j) as *mut __m128i, h);
                j += 8;
            }
        }
        for jj in j..n {
            dst[jj] = crate::fp16::f32_to_f16(src[jj]);
        }
    }

    /// Bulk f16 → f32 via VCVTPH2PS, 8 lanes/iter.
    ///
    /// # Safety
    /// Requires F16C (+AVX); `src` and `dst` must be equal length.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn decode_f16(src: &[u16], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut j = 0usize;
        // SAFETY: accesses stay in `0..n`; the 128-bit load reads 8 u16 =
        // 16 bytes at sp+j, valid while j+8 <= n.
        unsafe {
            while j + 8 <= n {
                let h = _mm_loadu_si128(sp.add(j) as *const __m128i);
                _mm256_storeu_ps(dp.add(j), _mm256_cvtph_ps(h));
                j += 8;
            }
        }
        for jj in j..n {
            dst[jj] = crate::fp16::f16_to_f32(src[jj]);
        }
    }
}

/// Serializes tests that force the global backend or depend on it staying
/// fixed across several kernel calls (e.g. exact plain-vs-shared equality).
/// The default test harness runs tests on multiple threads in one process,
/// and `ACTIVE` is process-global.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when the AVX2 tier is runtime-available; direct `avx2::` calls
    /// below are gated on this, so the suite passes on any CPU.
    fn avx2_available() -> bool {
        detect() == Backend::Avx2
    }

    #[test]
    fn dispatch_tag_names_the_active_tier() {
        let _guard = test_lock();
        reset_backend();
        let tag = dispatch_tag();
        match active_backend() {
            Backend::Scalar => assert_eq!(tag, "scalar"),
            Backend::Avx2 => assert_eq!(tag, "avx2+fma+f16c"),
        }
    }

    #[test]
    fn detection_is_stable_and_cached() {
        let _guard = test_lock();
        reset_backend();
        let a = active_backend();
        let b = active_backend();
        assert_eq!(a, b);
        assert_eq!(a, detect());
    }

    #[test]
    fn forcing_scalar_always_works_and_avx2_errors_when_absent() {
        let _guard = test_lock();
        assert!(set_backend(Backend::Scalar).is_ok());
        assert_eq!(active_backend(), Backend::Scalar);
        match (avx2_available(), set_backend(Backend::Avx2)) {
            (true, res) => {
                assert!(res.is_ok());
                assert_eq!(active_backend(), Backend::Avx2);
            }
            (false, res) => {
                assert!(res.is_err());
                // A refused override leaves the previous choice in place.
                assert_eq!(active_backend(), Backend::Scalar);
            }
        }
        reset_backend();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dot_backends_agree_within_reassociation_tolerance() {
        if !avx2_available() {
            return;
        }
        for k in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 127, 128, 333] {
            let a: Vec<f32> = (0..k)
                .map(|j| ((j * 37 + 11) as f32 * 0.01).sin())
                .collect();
            let b: Vec<f32> = (0..k)
                .map(|j| ((j * 53 + 29) as f32 * 0.01).cos())
                .collect();
            let s = scalar::dot(&a, &b) as f64;
            // SAFETY: AVX2+FMA runtime-checked above; slices hold k f32s.
            let v = unsafe { avx2::dot_ptr(a.as_ptr(), b.as_ptr(), k) } as f64;
            assert!(
                (s - v).abs() <= 1e-5 * s.abs().max(1.0),
                "k {k}: scalar {s} vs avx2 {v}"
            );
        }
    }

    /// Scores one pair as a 1 × 1 call of each tile kernel on `backend`.
    fn alone(backend: Backend, q: &[f32], item: &[f32]) -> (f32, f32, i32) {
        set_backend(backend).unwrap();
        let (q8, item8) = (bytes(q), bytes(item));
        let halves = halves(item);
        let (mut f, mut h, mut i) = ([0f32], [0f32], [0i32]);
        dot_rows([q], item, [&mut f]);
        dot_rows_f16([q], &halves, [&mut h]);
        dot_rows_i8([&q8], &item8, [&mut i]);
        (f[0], h[0], i[0])
    }

    fn wave(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|j| ((j * 37 + salt) as f32 * 0.013).sin() * 1.7)
            .collect()
    }

    fn halves(v: &[f32]) -> Vec<u16> {
        v.iter().map(|&x| crate::fp16::f32_to_f16(x)).collect()
    }

    fn bytes(v: &[f32]) -> Vec<i8> {
        v.iter().map(|&x| (x * 70.0) as i8).collect()
    }

    #[test]
    fn dot_f16_backends_agree_within_reassociation_tolerance() {
        let _guard = test_lock();
        if !avx2_available() {
            return;
        }
        for k in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 127, 128] {
            let (a, b) = (wave(k, 7), wave(k, 3));
            let s = scalar::dot_f16(&a, &halves(&b));
            let v = alone(Backend::Avx2, &a, &b).1;
            assert!(
                (s - v).abs() <= 1e-5 * s.abs().max(1.0),
                "k {k}: scalar {s} vs avx2 {v}"
            );
        }
        reset_backend();
    }

    #[test]
    fn dot_i8_backends_bit_exact() {
        let _guard = test_lock();
        if !avx2_available() {
            return;
        }
        for k in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 64, 100, 127, 128] {
            let (a, b) = (wave(k, 11), wave(k, 53));
            let s = crate::int8::dot_i8_scalar(&bytes(&a), &bytes(&b));
            assert_eq!(s, alone(Backend::Avx2, &a, &b).2, "k {k}");
        }
        reset_backend();
    }

    /// A score does not depend on its place in a batch: every score of a
    /// multi-row call — `NQ` ∈ {1, 2} queries against `ni` items, across
    /// the chunk, remainder and tail lengths of `k` — has the bits of the
    /// same pair scored alone (the 1 × 1 call), and for f32 those of
    /// [`dot`], on both backends. A per-pair reduction order that depends
    /// on the tile shape fails here.
    #[test]
    fn multi_row_kernels_match_the_single_row_ones_on_both_backends() {
        let _guard = test_lock();
        for backend in [Backend::Scalar, Backend::Avx2] {
            if set_backend(backend).is_err() {
                continue;
            }
            for k in [1usize, 7, 8, 15, 16, 17, 64, 100] {
                for ni in [1usize, 2, 3, 5] {
                    let q = [wave(k, 11), wave(k, 501)];
                    let items = wave(ni * k, 97);
                    let (q8, items8, halves) =
                        ([bytes(&q[0]), bytes(&q[1])], bytes(&items), halves(&items));
                    let ctx = format!("{} k {k} ni {ni}", backend.name());

                    let mut f = [vec![0f32; ni], vec![0f32; ni], vec![0f32; ni]];
                    let mut h = f.clone();
                    let mut i = [vec![0i32; ni], vec![0i32; ni], vec![0i32; ni]];
                    let ([f0, f1, f2], [h0, h1, h2], [i0, i1, i2]) = (&mut f, &mut h, &mut i);
                    dot_rows([&q[0], &q[1]], &items, [f0, f1]);
                    dot_rows([&q[1]], &items, [f2]);
                    dot_rows_f16([&q[0], &q[1]], &halves, [h0, h1]);
                    dot_rows_f16([&q[1]], &halves, [h2]);
                    dot_rows_i8([&q8[0], &q8[1]], &items8, [i0, i1]);
                    dot_rows_i8([&q8[1]], &items8, [i2]);

                    for it in 0..ni {
                        let item = &items[it * k..(it + 1) * k];
                        for (slot, qa) in [(0, 0), (1, 1), (2, 1)] {
                            let (wf, wh, wi) = alone(backend, &q[qa], item);
                            let at = format!("{ctx} slot {slot} item {it}");
                            assert_eq!(f[slot][it].to_bits(), wf.to_bits(), "f32 {at}");
                            assert_eq!(wf.to_bits(), dot(&q[qa], item).to_bits(), "f32 dot {at}");
                            assert_eq!(h[slot][it].to_bits(), wh.to_bits(), "f16 {at}");
                            assert_eq!(i[slot][it], wi, "i8 {at}");
                        }
                    }
                }
            }
        }
        reset_backend();
    }

    /// `dot` scores only the elements both rows have, on both backends: the
    /// rest of the longer row is never read.
    #[test]
    fn dot_scores_only_the_elements_both_rows_have() {
        let _guard = test_lock();
        let mut buf = [1e30f32; 64];
        buf[..8].fill(1.0);
        for backend in [Backend::Scalar, Backend::Avx2] {
            if set_backend(backend).is_err() {
                continue;
            }
            assert_eq!(dot(&[1.0; 64], &buf[..8]), 8.0, "{}", backend.name());
            assert_eq!(dot(&buf[..8], &[1.0; 64]), 8.0, "{}", backend.name());
        }
        reset_backend();
    }

    #[test]
    #[should_panic(expected = "multi-row dot")]
    fn multi_row_shape_mismatch_panics_before_any_kernel_runs() {
        let (q, items) = ([0.0f32; 4], [0.0f32; 9]);
        let mut out = [0.0f32; 2];
        dot_rows([&q], &items, [&mut out]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fused_step_backends_agree_within_tolerance() {
        if !avx2_available() {
            return;
        }
        for k in [1usize, 4, 8, 12, 16, 100, 128] {
            let base_p: Vec<f32> = (0..k).map(|j| 0.1 + (j as f32) * 0.003).collect();
            let base_q: Vec<f32> = (0..k).map(|j| 0.2 - (j as f32) * 0.001).collect();
            let mut ps = base_p.clone();
            let mut qs = base_q.clone();
            // SAFETY: ps/qs are distinct exclusive buffers of length k.
            let es = unsafe {
                scalar::fused_step_ptr(ps.as_mut_ptr(), qs.as_mut_ptr(), k, 3.3, 0.01, 0.02, 0.03)
            };
            let mut pv = base_p.clone();
            let mut qv = base_q.clone();
            // SAFETY: AVX2+FMA runtime-checked; pv/qv distinct, length k.
            let ev = unsafe {
                avx2::fused_step_ptr(pv.as_mut_ptr(), qv.as_mut_ptr(), k, 3.3, 0.01, 0.02, 0.03)
            };
            assert!(
                (es - ev).abs() <= 1e-5 * es.abs().max(1.0),
                "k {k}: e {es} vs {ev}"
            );
            for j in 0..k {
                assert!(
                    (ps[j] - pv[j]).abs() <= 1e-5 * ps[j].abs().max(1.0),
                    "k {k} p[{j}]: {} vs {}",
                    ps[j],
                    pv[j]
                );
                assert!(
                    (qs[j] - qv[j]).abs() <= 1e-5 * qs[j].abs().max(1.0),
                    "k {k} q[{j}]: {} vs {}",
                    qs[j],
                    qv[j]
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn f16_codec_backends_bit_exact_including_odd_tails() {
        if !avx2_available() {
            return;
        }
        // Mix of normals, subnormals, ±0, ±inf, NaN and rounding boundaries;
        // length 21 exercises the vector body and a 5-element tail.
        let src: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            65504.0,
            65520.0,
            -1e6,
            1e-10,
            2.0f32.powi(-25),
            2.0f32.powi(-25) * 1.5,
            2.0f32.powi(-14),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.0 + 2.0f32.powi(-11),
            1.0 + 3.0 * 2.0f32.powi(-11),
            std::f32::consts::PI,
            -std::f32::consts::E,
            1234.5678,
            -0.000123,
            42.0,
        ];
        let scalar_out: Vec<u16> = src.iter().map(|&x| crate::fp16::f32_to_f16(x)).collect();
        let mut simd_out = vec![0u16; src.len()];
        // SAFETY: F16C runtime-checked; equal lengths.
        unsafe { avx2::encode_f16(&src, &mut simd_out) };
        assert_eq!(scalar_out, simd_out);
        // Decode every possible f16 pattern both ways: also bit-exact.
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let ds: Vec<f32> = all.iter().map(|&h| crate::fp16::f16_to_f32(h)).collect();
        let mut dv = vec![0f32; all.len()];
        // SAFETY: F16C runtime-checked; equal lengths.
        unsafe { avx2::decode_f16(&all, &mut dv) };
        for (j, (x, y)) in ds.iter().zip(dv.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "pattern {j:#06x}");
        }
    }

    /// Property tests pitting the AVX2 tier against the scalar reference on
    /// randomized inputs (bit-exact for the f16 codec, reassociation
    /// tolerance for the arithmetic kernels). Vacuous on non-AVX2 hardware.
    #[cfg(target_arch = "x86_64")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_f16_encode_bit_exact_vs_scalar(
                bits in proptest::collection::vec(0u64..(1u64 << 32), 0..64)
            ) {
                if !avx2_available() {
                    return;
                }
                let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b as u32)).collect();
                let want: Vec<u16> = src.iter().map(|&x| crate::fp16::f32_to_f16(x)).collect();
                let mut got = vec![0u16; src.len()];
                // SAFETY: F16C runtime-checked above; equal lengths.
                unsafe { avx2::encode_f16(&src, &mut got) };
                prop_assert_eq!(want, got);
            }

            #[test]
            fn prop_f16_decode_bit_exact_vs_scalar(
                halves in proptest::collection::vec(0u64..65536, 0..64)
            ) {
                if !avx2_available() {
                    return;
                }
                let src: Vec<u16> = halves.iter().map(|&h| h as u16).collect();
                let want: Vec<u32> =
                    src.iter().map(|&h| crate::fp16::f16_to_f32(h).to_bits()).collect();
                let mut got = vec![0f32; src.len()];
                // SAFETY: F16C runtime-checked above; equal lengths.
                unsafe { avx2::decode_f16(&src, &mut got) };
                let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(want, got);
            }

            #[test]
            fn prop_fused_step_backends_agree(
                a in proptest::collection::vec(-1.5f32..1.5, 1..160),
                b in proptest::collection::vec(-1.5f32..1.5, 1..160),
                r in -5.0f32..5.0,
            ) {
                if !avx2_available() {
                    return;
                }
                let k = a.len().min(b.len());
                let mut ps = a[..k].to_vec();
                let mut qs = b[..k].to_vec();
                // SAFETY: ps/qs are distinct exclusive buffers of length k.
                let es = unsafe {
                    scalar::fused_step_ptr(ps.as_mut_ptr(), qs.as_mut_ptr(), k, r, 0.01, 0.02, 0.03)
                };
                let mut pv = a[..k].to_vec();
                let mut qv = b[..k].to_vec();
                // SAFETY: AVX2+FMA runtime-checked; pv/qv distinct, length k.
                let ev = unsafe {
                    avx2::fused_step_ptr(pv.as_mut_ptr(), qv.as_mut_ptr(), k, r, 0.01, 0.02, 0.03)
                };
                prop_assert!((es - ev).abs() <= 1e-5 * es.abs().max(1.0));
                for j in 0..k {
                    prop_assert!((ps[j] - pv[j]).abs() <= 1e-5 * ps[j].abs().max(1.0));
                    prop_assert!((qs[j] - qv[j]).abs() <= 1e-5 * qs[j].abs().max(1.0));
                }
            }
        }
    }
}
