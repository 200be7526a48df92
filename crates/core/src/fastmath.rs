//! Polynomial `ln`/`exp`/`pow` kernels for the equal-finish kernel.
//!
//! The batched inner-inverse path of [`crate::batch`] factors the
//! shared-exponent power `x^a = exp(a·ln x)` so the per-lane work is one
//! log reduction, one multiply and one exp reduction — all straight-line
//! polynomial arithmetic that the compiler can keep in registers. The
//! algorithms are the classical fdlibm argument reductions and minimax
//! polynomials (the same ones system `libm`s descend from), *without*
//! the extra-precision bookkeeping `pow` performs to reach < 1 ulp:
//!
//! * `fast_ln` — reduce to `m ∈ [√2/2, √2)` by exponent extraction,
//!   then the `s = f/(2+f)` atanh-series with the fdlibm Lg1..Lg7
//!   coefficients. Error ≲ 1 ulp of the *result*.
//! * `fast_exp` — reduce by `k = round(x/ln 2)` against the split
//!   `ln2_hi + ln2_lo`, evaluate the P1..P5 remainder polynomial, scale
//!   by `2^k` with an exponent-field add. Error ≲ 1 ulp.
//! * [`fast_powf`] — `exp(a·ln x)`. The log error is amplified by
//!   `a·|ln x|`, giving a relative error of order `a·|ln x|·ε` — about
//!   `2e-12` in the very worst corner the solvers reach (`a = 24`,
//!   `x` near the `f64` range limits), and < 1e-13 across the realistic
//!   solve region. That sits three orders of magnitude inside the
//!   equal-finish kernel's documented ≤ 1e-9 oracle bound.
//!
//! Inputs the fast reductions do not cover (non-positive or subnormal
//! logs, `|x| > 700` exps, NaN) fall back to the `std` functions, so
//! every entry point is total over `f64`.
//!
//! On x86-64, [`pow_slice`] runs through explicit AVX2 intrinsics, four
//! lanes at a time, selected by a runtime
//! `is_x86_feature_detected!("avx2")` check. The vector body is an
//! op-for-op transcription of `ln_core`/`exp_core` — no FMA, same IEEE
//! evaluation order — so IEEE-754 determinism makes it bit-identical to
//! the scalar loop, and any chunk containing a lane outside the fast
//! range falls back to the scalar path wholesale. That is what keeps the
//! equal-finish kernel's results independent of the lane count and the
//! CPU (pinned by `pow_slice_is_bitwise_scalar_across_the_range`).

#![expect(
    clippy::disallowed_methods,
    reason = "the sanctioned home of the transcendentals: std fallbacks outside the fast ranges"
)]
// The fdlibm coefficient tables are kept digit-for-digit as published
// (the extra digits round to the same f64 but document the provenance).
#![allow(clippy::excessive_precision)]

// -- fdlibm e_log.c constants ------------------------------------------------
const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
const LG1: f64 = 6.666_666_666_666_735_130e-1;
const LG2: f64 = 3.999_999_999_940_941_908e-1;
const LG3: f64 = 2.857_142_874_366_239_149e-1;
const LG4: f64 = 2.222_219_843_214_978_396e-1;
const LG5: f64 = 1.818_357_216_161_805_012e-1;
const LG6: f64 = 1.531_383_769_920_937_332e-1;
const LG7: f64 = 1.479_819_860_511_658_591e-1;

// -- fdlibm e_exp.c constants ------------------------------------------------
// fdlibm's invln2 (1.44269504088896338700e+00) — the same f64 as LOG2_E.
const INV_LN2: f64 = std::f64::consts::LOG2_E;
const P1: f64 = 1.666_666_666_666_660_190_37e-1;
const P2: f64 = -2.777_777_777_701_559_338_42e-3;
const P3: f64 = 6.613_756_321_437_934_361_17e-5;
const P4: f64 = -1.653_390_220_546_525_153_90e-6;
const P5: f64 = 4.138_136_797_057_238_460_39e-8;

/// Largest `|x|` routed through the polynomial exp; beyond it the result
/// is within a factor ~2^10 of the `f64` range limits and `std` handles
/// the overflow/underflow rounding.
const EXP_FAST_LIMIT: f64 = 700.0;

/// Core log for a normal, positive, finite `x` (caller-checked).
#[inline(always)]
fn ln_core(x: f64) -> f64 {
    let bits = x.to_bits();
    let hx = (bits >> 32) as u32;
    let mut k = ((hx >> 20) as i32) - 1023;
    let hxm = hx & 0x000f_ffff;
    // Steer the mantissa into [√2/2, √2): the magic constant flips the
    // exponent adjustment exactly when the mantissa is above √2.
    let i = hxm.wrapping_add(0x95f64) & 0x10_0000;
    let mant_hi = hxm | (i ^ 0x3ff0_0000);
    let m = f64::from_bits(((mant_hi as u64) << 32) | (bits & 0xffff_ffff));
    k += (i >> 20) as i32;
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let dk = f64::from(k);
    dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
}

/// Core exp for `|x| ≤` [`EXP_FAST_LIMIT`] (caller-checked).
#[inline(always)]
fn exp_core(x: f64) -> f64 {
    let half = if x < 0.0 { -0.5 } else { 0.5 };
    let k = (INV_LN2 * x + half) as i64;
    let kd = k as f64;
    let hi = x - kd * LN2_HI;
    let lo = kd * LN2_LO;
    let xr = hi - lo;
    let t = xr * xr;
    let c = xr - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    let y = 1.0 - ((lo - (xr * c) / (2.0 - c)) - hi);
    // 2^k via the exponent field: |k| ≤ 1011 keeps 1023 + k in (0, 2047).
    y * f64::from_bits(((1023 + k) as u64) << 52)
}

/// Natural log; polynomial path for normal positive finite inputs, `std`
/// fallback elsewhere (zero, negative, subnormal, infinite, NaN).
#[inline(always)]
fn fast_ln(x: f64) -> f64 {
    if (f64::MIN_POSITIVE..=f64::MAX).contains(&x) {
        ln_core(x)
    } else {
        x.ln()
    }
}

/// `e^x`; polynomial path for `|x| ≤ 700`, `std` fallback elsewhere.
#[inline(always)]
fn fast_exp(x: f64) -> f64 {
    if x.abs() <= EXP_FAST_LIMIT {
        exp_core(x)
    } else {
        x.exp()
    }
}

/// `x^a` as `exp(a·ln x)` — the shared-exponent factoring the batched
/// solver leans on. Relative error of order `a·|ln x|·ε` (see module
/// docs); total over `f64` via the `std` fallbacks.
#[inline(always)]
pub fn fast_powf(x: f64, a: f64) -> f64 {
    fast_exp(a * fast_ln(x))
}

/// Elementwise `out[i] = x[i]^a` — the one call the batched Newton pass
/// makes per iteration. On x86-64 with AVX2, chunks of 4 lanes run
/// through the AVX2 mirror of the same arithmetic (bit-identical, so
/// results never depend on where a lane falls relative to the chunk
/// boundary); elsewhere a scalar loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pow_slice(x: &[f64], a: f64, out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "pow_slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { avx2::pow_slice_avx2(x, a, out) };
        return;
    }
    for (o, &xi) in out.iter_mut().zip(x) {
        *o = fast_powf(xi, a);
    }
}

/// AVX2 mirror of [`ln_core`]/[`exp_core`] on four `f64`
/// lanes: the same IEEE operations in the same order (multiplies and
/// adds kept separate — no FMA contraction), so each lane is
/// bit-identical to the scalar path. Integer plumbing that has no
/// 64-bit AVX2 instruction (lane-count conversions) goes through packed
/// 32-bit halves, which is exact because every value involved — the
/// unbiased exponent `k` — is a small integer.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        fast_powf, EXP_FAST_LIMIT, INV_LN2, LG1, LG2, LG3, LG4, LG5, LG6, LG7, LN2_HI, LN2_LO, P1,
        P2, P3, P4, P5,
    };
    use core::arch::x86_64::*;

    const WIDTH: usize = 4;

    /// Four copies of `v`.
    ///
    /// # Safety
    ///
    /// Safe under target-feature 1.1: `_mm256_set1_pd` has no
    /// preconditions beyond AVX availability, which this attribute
    /// asserts and which callers discharge behind the runtime
    /// `is_x86_feature_detected!` gate in `pow_slice`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(v: f64) -> __m256d {
        _mm256_set1_pd(v)
    }

    /// [`super::ln_core`] on four caller-checked lanes.
    ///
    /// # Safety
    ///
    /// A safe target-feature fn: sole caller `pow_chunk` runs behind the
    /// runtime AVX2 detection in `pow_slice_avx2`'s contract, and lane
    /// values are caller-checked finite positives matching `ln_core`'s
    /// domain.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn ln_core_v(x: __m256d) -> __m256d {
        let bits = _mm256_castpd_si256(x);
        let hx = _mm256_srli_epi64::<32>(bits);
        let k0 = _mm256_sub_epi64(_mm256_srli_epi64::<20>(hx), _mm256_set1_epi64x(1023));
        let hxm = _mm256_and_si256(hx, _mm256_set1_epi64x(0x000f_ffff));
        let i = _mm256_and_si256(
            _mm256_add_epi64(hxm, _mm256_set1_epi64x(0x95f64)),
            _mm256_set1_epi64x(0x10_0000),
        );
        let mant_hi = _mm256_or_si256(hxm, _mm256_xor_si256(i, _mm256_set1_epi64x(0x3ff0_0000)));
        let m = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_slli_epi64::<32>(mant_hi),
            _mm256_and_si256(bits, _mm256_set1_epi64x(0xffff_ffff)),
        ));
        let k = _mm256_add_epi64(k0, _mm256_srli_epi64::<20>(i));
        // i64 → f64 for the small exponent values: pack the low 32 bits
        // of each lane into the bottom half and convert from i32.
        let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let k32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(k, idx));
        let dk = _mm256_cvtepi32_pd(k32);
        let f = _mm256_sub_pd(m, splat(1.0));
        let s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
        let z = _mm256_mul_pd(s, s);
        let w = _mm256_mul_pd(z, z);
        let t1 = _mm256_mul_pd(
            w,
            _mm256_add_pd(
                splat(LG2),
                _mm256_mul_pd(w, _mm256_add_pd(splat(LG4), _mm256_mul_pd(w, splat(LG6)))),
            ),
        );
        let t2 = _mm256_mul_pd(
            z,
            _mm256_add_pd(
                splat(LG1),
                _mm256_mul_pd(
                    w,
                    _mm256_add_pd(
                        splat(LG3),
                        _mm256_mul_pd(w, _mm256_add_pd(splat(LG5), _mm256_mul_pd(w, splat(LG7)))),
                    ),
                ),
            ),
        );
        let r = _mm256_add_pd(t2, t1);
        let hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
        // dk·LN2_HI − ((hfsq − (s·(hfsq+r) + dk·LN2_LO)) − f)
        let inner = _mm256_add_pd(
            _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
            _mm256_mul_pd(dk, splat(LN2_LO)),
        );
        _mm256_sub_pd(
            _mm256_mul_pd(dk, splat(LN2_HI)),
            _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f),
        )
    }

    /// [`super::exp_core`] on four caller-checked lanes.
    ///
    /// # Safety
    ///
    /// A safe target-feature fn: sole caller `pow_chunk` runs behind the
    /// runtime AVX2 detection in `pow_slice_avx2`'s contract, and
    /// |x| ≤ EXP_FAST_LIMIT is caller-checked, keeping `k` within i32
    /// for `_mm256_cvttpd_epi32`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn exp_core_v(x: __m256d) -> __m256d {
        let neg = _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_setzero_pd());
        let half = _mm256_blendv_pd(splat(0.5), splat(-0.5), neg);
        let kf = _mm256_add_pd(_mm256_mul_pd(splat(INV_LN2), x), half);
        // `as i64` truncates toward zero; |arg| ≤ 700 keeps k within i32.
        let kd = _mm256_round_pd::<0x0B>(kf); // TO_ZERO | NO_EXC
        let k32 = _mm256_cvttpd_epi32(kf);
        let hi = _mm256_sub_pd(x, _mm256_mul_pd(kd, splat(LN2_HI)));
        let lo = _mm256_mul_pd(kd, splat(LN2_LO));
        let xr = _mm256_sub_pd(hi, lo);
        let t = _mm256_mul_pd(xr, xr);
        let poly = _mm256_add_pd(
            splat(P1),
            _mm256_mul_pd(
                t,
                _mm256_add_pd(
                    splat(P2),
                    _mm256_mul_pd(
                        t,
                        _mm256_add_pd(
                            splat(P3),
                            _mm256_mul_pd(t, _mm256_add_pd(splat(P4), _mm256_mul_pd(t, splat(P5)))),
                        ),
                    ),
                ),
            ),
        );
        let c = _mm256_sub_pd(xr, _mm256_mul_pd(t, poly));
        let y = _mm256_sub_pd(
            splat(1.0),
            _mm256_sub_pd(
                _mm256_sub_pd(
                    lo,
                    _mm256_div_pd(_mm256_mul_pd(xr, c), _mm256_sub_pd(splat(2.0), c)),
                ),
                hi,
            ),
        );
        // 2^k via the exponent field, as in the scalar core.
        let k64 = _mm256_cvtepi32_epi64(k32);
        let scale = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
            k64,
            _mm256_set1_epi64x(1023),
        )));
        _mm256_mul_pd(y, scale)
    }

    /// One 4-lane `x^a` chunk, or `None` when any lane needs a `std`
    /// fallback (the caller then runs the chunk through the scalar path).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (caller-checked) and `x.len() >= WIDTH`.
    #[target_feature(enable = "avx2")]
    unsafe fn pow_chunk(x: &[f64], a: f64) -> Option<[f64; WIDTH]> {
        // SAFETY: the caller guarantees `x.len() >= WIDTH` (documented
        // precondition), so the 4-lane unaligned load stays in bounds.
        let v = unsafe { _mm256_loadu_pd(x.as_ptr()) };
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(v, splat(f64::MIN_POSITIVE));
        let le = _mm256_cmp_pd::<_CMP_LE_OQ>(v, splat(f64::MAX));
        if _mm256_movemask_pd(_mm256_and_pd(ge, le)) != 0xf {
            return None;
        }
        let arg = _mm256_mul_pd(splat(a), ln_core_v(v));
        let abs = _mm256_andnot_pd(splat(-0.0), arg);
        if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(abs, splat(EXP_FAST_LIMIT))) != 0xf {
            return None;
        }
        let r = exp_core_v(arg);
        let mut out = [0.0f64; WIDTH];
        // SAFETY: `out` holds exactly WIDTH lanes, so the 4-lane
        // unaligned store stays in bounds.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), r) };
        Some(out)
    }

    /// Elementwise `x^a` through 4-lane AVX2 chunks.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support
    /// (`is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pow_slice_avx2(x: &[f64], a: f64, out: &mut [f64]) {
        let mut chunks = x.chunks_exact(WIDTH);
        let mut outs = out.chunks_exact_mut(WIDTH);
        for (xc, oc) in (&mut chunks).zip(&mut outs) {
            // SAFETY: `chunks_exact(WIDTH)` yields slices of exactly
            // WIDTH elements, and AVX2 is enabled for this whole fn
            // (caller-checked per this fn's own contract).
            match unsafe { pow_chunk(xc, a) } {
                Some(r) => oc.copy_from_slice(&r),
                None => {
                    for (o, &xi) in oc.iter_mut().zip(xc) {
                        *o = fast_powf(xi, a);
                    }
                }
            }
        }
        for (o, &xi) in outs.into_remainder().iter_mut().zip(chunks.remainder()) {
            *o = fast_powf(xi, a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(got: f64, want: f64) -> f64 {
        if want == 0.0 {
            got.abs()
        } else {
            ((got - want) / want).abs()
        }
    }

    /// Log-spaced sweep across the full normal range.
    fn sweep() -> Vec<f64> {
        let mut v = Vec::new();
        let mut x = 1e-300f64;
        while x < 1e300 {
            v.push(x);
            v.push(x * 3.7);
            x *= 17.3;
        }
        v.extend_from_slice(&[0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, std::f64::consts::E]);
        v
    }

    #[test]
    fn ln_matches_std() {
        for x in sweep() {
            let got = fast_ln(x);
            let want = x.ln();
            // ~1 ulp of the result; near ln == 0 the bound is absolute.
            let tol = 1e-14 * want.abs().max(1.0);
            assert!(
                (got - want).abs() <= tol,
                "fast_ln({x}) = {got}, std = {want}"
            );
        }
    }

    #[test]
    fn ln_falls_back_outside_the_fast_range() {
        assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
        assert!(fast_ln(-1.0).is_nan());
        assert_eq!(fast_ln(f64::INFINITY), f64::INFINITY);
        assert!(fast_ln(f64::NAN).is_nan());
        let sub = f64::MIN_POSITIVE / 8.0;
        assert_eq!(fast_ln(sub), sub.ln());
    }

    #[test]
    fn exp_matches_std() {
        let mut x = -700.0f64;
        while x <= 700.0 {
            let got = fast_exp(x);
            let want = x.exp();
            assert!(
                rel_err(got, want) <= 1e-13,
                "fast_exp({x}) = {got}, std = {want}"
            );
            x += 0.37;
        }
        assert_eq!(fast_exp(0.0), 1.0);
    }

    #[test]
    fn exp_falls_back_outside_the_fast_range() {
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(-800.0), (-800.0f64).exp());
        assert_eq!(fast_exp(800.0), f64::INFINITY);
        assert!(fast_exp(f64::NAN).is_nan());
    }

    #[test]
    fn powf_matches_std_within_the_amplified_bound() {
        for &a in &[0.04, 0.5, 1.0 + 1e-9, 1.5, 2.0, 3.0, 11.0, 23.0, 24.0] {
            for x in sweep() {
                let want = x.powf(a);
                if !want.is_finite() || want < f64::MIN_POSITIVE {
                    continue; // overflow/underflow corners go through std anyway
                }
                let got = fast_powf(x, a);
                // a·|ln x|·ε amplification, floored at a few ulps.
                let tol = (a * x.ln().abs() * 3e-16).max(5e-15);
                assert!(
                    rel_err(got, want) <= tol,
                    "fast_powf({x}, {a}) = {got}, std = {want}, tol {tol}"
                );
            }
        }
    }

    #[test]
    fn powf_edge_inputs_match_std_semantics() {
        assert_eq!(fast_powf(0.0, 2.5), 0.0);
        assert_eq!(fast_powf(1.0, 24.0), 1.0);
        assert_eq!(fast_powf(5.0, 0.0), 1.0);
        assert!(fast_powf(f64::NAN, 2.0).is_nan());
    }

    #[test]
    fn pow_slice_is_elementwise_fast_powf() {
        // Lengths straddling the AVX2 width, values forcing both the fast
        // path and the std fallback (zero share, huge share).
        for len in [0usize, 1, 5, 7, 8, 9, 16, 23] {
            let xs: Vec<f64> = (0..len)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => 1e-7 * (i + 1) as f64,
                    2 => 1.0 + i as f64,
                    3 => 1e12 * (i + 1) as f64,
                    _ => 0.3 * (i + 1) as f64,
                })
                .collect();
            let mut out = vec![f64::NAN; len];
            pow_slice(&xs, 1.7, &mut out);
            for (i, (&x, &o)) in xs.iter().zip(&out).enumerate() {
                let want = fast_powf(x, 1.7);
                assert!(
                    o.to_bits() == want.to_bits(),
                    "lane {i} of {len}: pow_slice {o} != fast_powf {want}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pow_slice_rejects_length_mismatch() {
        let mut out = [0.0; 2];
        pow_slice(&[1.0, 2.0, 3.0], 2.0, &mut out);
    }

    /// Dense magnitude sweep pinning the vector path (AVX2, when the CPU
    /// has it) bit-for-bit to the scalar one — the invariant that keeps
    /// batched-solver results independent of where a lane lands relative
    /// to a chunk boundary.
    #[test]
    fn pow_slice_is_bitwise_scalar_across_the_range() {
        let xs: Vec<f64> = (0..10_000)
            .map(|i| 1e-12 * 1.0123f64.powi(i % 7000) * (1.0 + i as f64))
            .collect();
        let mut got = vec![0.0; xs.len()];
        for &a in &[0.04, 0.5, 1.5, 2.0, 23.0] {
            pow_slice(&xs, a, &mut got);
            for (i, (&x, &o)) in xs.iter().zip(&got).enumerate() {
                let want = fast_powf(x, a);
                assert!(
                    o.to_bits() == want.to_bits(),
                    "lane {i}: pow_slice({x}, {a}) = {o} != scalar {want}"
                );
            }
        }
    }
}
