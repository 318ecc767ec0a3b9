//! Runtime-gated x86_64 vector kernels: the FFT butterfly inner loop and
//! the pointwise logistic sweeps of an ILT iteration.
//!
//! The portable butterfly of [`crate::FftPlan`] is written over explicit
//! two-complex lanes so the autovectorizer can lower it to 128/256-bit ops,
//! but the complex multiply still costs it a shuffle-heavy dance. On
//! x86_64 with AVX2+FMA the whole two-lane butterfly is five vector
//! instructions (`movedup`/`permute` to splat the twiddle components,
//! `fmaddsub` for the complex product, one add and one sub), so this module
//! provides that kernel behind a one-time `is_x86_feature_detected!` check.
//!
//! The same check gates the two slice kernels a pixel-ILT iteration
//! spends most of its non-FFT time in — [`logistic_scaled`] (latent to
//! mask) and [`logistic_loss`] (intensity to loss and `dL/dI`). They are
//! built on one branch-free polynomial `exp` (so the loops vectorise;
//! libm's `exp` is an opaque scalar call) and each body is written once,
//! compiled once for the baseline target and once under `avx2,fma`.
//! [`logistic`] is the scalar form of the same definition: the workspace
//! has one logistic function.
//!
//! The dispatch decision is made once per process and never changes, so
//! every transform in a process runs the same code path — the property the
//! serial-vs-parallel and workspace-reuse bit-identity suites rely on.
//! (FMA contraction rounds differently from the two-step scalar product,
//! so results may differ across *machines* in the last ulp; all
//! cross-machine comparisons in the workspace are tolerance-based.)
//!
//! This is the only module in the workspace's numeric crates allowed to
//! use `unsafe`: the intrinsics and `#[target_feature]` bodies are safe for
//! any input once the CPU supports them (verified at runtime before any is
//! reached), and all loads/stores stay inside the slices' bounds by
//! construction (`lo`, `hi` and `tw` share one length, a multiple of two;
//! the slice kernels are safe code).

use crate::complex::Complex;

/// Returns `true` if the AVX2+FMA kernels are available on this CPU
/// (always `false` off x86_64). The answer is computed once and cached.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_fma_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Returns `true` if the AVX2+FMA kernels are available on this CPU
/// (always `false` off x86_64).
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn avx2_fma_available() -> bool {
    false
}

/// AVX2+FMA butterfly block: `lo[k], hi[k] <- lo[k] ± w[k]*hi[k]`, two
/// complex lanes per iteration.
///
/// # Panics
///
/// Panics (debug) unless the three slices share one even length. Callers
/// must only reach this after [`avx2_fma_available`] returned
/// `true`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn butterfly_block_x86(lo: &mut [Complex], hi: &mut [Complex], tw: &[Complex]) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), tw.len());
    debug_assert!(lo.len().is_multiple_of(2));
    // SAFETY: the caller checked `avx2_fma_available()`, which
    // verified avx2+fma at runtime; the kernel only dereferences within
    // the equal-length input slices.
    unsafe { butterfly_block_avx(lo, hi, tw) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn butterfly_block_avx(lo: &mut [Complex], hi: &mut [Complex], tw: &[Complex]) {
    use core::arch::x86_64::*;
    let doubles = lo.len() * 2;
    let lp = lo.as_mut_ptr().cast::<f64>();
    let hp = hi.as_mut_ptr().cast::<f64>();
    let wp = tw.as_ptr().cast::<f64>();
    let mut k = 0;
    while k < doubles {
        // SAFETY: k + 3 < doubles because the length is a multiple of four
        // doubles (two complex values) and k advances by four.
        unsafe {
            let u = _mm256_loadu_pd(lp.add(k));
            let v = _mm256_loadu_pd(hp.add(k));
            let w = _mm256_loadu_pd(wp.add(k));
            // Splat twiddle components: wr = [re0, re0, re1, re1],
            // wi = [im0, im0, im1, im1]; vs swaps each lane's re/im.
            let wr = _mm256_movedup_pd(w);
            let wi = _mm256_permute_pd(w, 0b1111);
            let vs = _mm256_permute_pd(v, 0b0101);
            // fmaddsub: even lanes wr*v - wi*vs, odd lanes wr*v + wi*vs —
            // exactly the interleaved complex product w * v.
            let t = _mm256_fmaddsub_pd(wr, v, _mm256_mul_pd(wi, vs));
            _mm256_storeu_pd(lp.add(k), _mm256_add_pd(u, t));
            _mm256_storeu_pd(hp.add(k), _mm256_sub_pd(u, t));
        }
        k += 4;
    }
}

// ---- The logistic function and its slice kernels ------------------------

/// `exp` arguments below this are raised to it: `exp(-708)` is about
/// `3.3e-308`, and the power-of-two scale `2^k` stays a normal number down
/// to here, so the result needs no subnormal handling. The logistic of
/// anything this far out is 0 or 1 to 300 digits either way.
const EXP_FLOOR: f64 = -708.0;
/// `1.5 * 2^52`: adding it to `|v| < 2^51` rounds `v` to the nearest
/// integer, which is then readable from the sum's low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split for a Cody–Waite reduction: the high part carries 32
/// significant bits, so `k * LN2_HI` is exact for `|k| < 2^20`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// Taylor coefficients `1/k!`, `k = 13, 12, .., 2`: on `|r| <= ln(2)/2`
/// the truncation error is below `4e-18`, a few hundredths of an ulp.
const EXP_TAYLOR: [f64; 12] = [
    1.0 / 6_227_020_800.0,
    1.0 / 479_001_600.0,
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    1.0 / 2.0,
];

/// `a * b + c`, fused when the surrounding body is compiled with FMA.
/// (Without the hardware instruction `mul_add` is a libm call.)
#[inline(always)]
fn mla<const FMA: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `exp(x)` for `x <= 0`, branch-free (every `if` is a select), to well
/// under one ulp. NaN propagates: the floor is a comparison, which NaN
/// fails, not `f64::max`, which would swallow it.
#[inline(always)]
fn exp_nonpositive<const FMA: bool>(x: f64) -> f64 {
    let x = if x < EXP_FLOOR { EXP_FLOOR } else { x };
    // x = k ln 2 + r with k = round(x / ln 2) and |r| <= ln(2)/2.
    let t = mla::<FMA>(x, std::f64::consts::LOG2_E, ROUND_MAGIC);
    let k = t - ROUND_MAGIC;
    let r = mla::<FMA>(k, -LN2_LO, mla::<FMA>(k, -LN2_HI, x));
    // exp(r) = 1 + r + r^2 (1/2 + r/6 + ...), Horner on the bracket.
    let mut u = EXP_TAYLOR[0];
    for &c in &EXP_TAYLOR[1..] {
        u = mla::<FMA>(u, r, c);
    }
    let p = mla::<FMA>(r * r, u, r) + 1.0;
    // 2^k from the integer in t's low mantissa bits: k in [-1022, 0], so
    // the biased exponent k + 1023 is that of a normal number.
    let scale = f64::from_bits((t.to_bits() << 52).wrapping_add(1023 << 52));
    p * scale
}

/// The logistic function `1 / (1 + exp(-x))` in its stable two-sided
/// form, one `exp` and one division, no branch.
#[inline(always)]
fn logistic_with<const FMA: bool>(x: f64) -> f64 {
    let e = exp_nonpositive::<FMA>(-x.abs());
    let numerator = if x >= 0.0 { 1.0 } else { e };
    numerator / (1.0 + e)
}

#[inline(always)]
fn logistic_scaled_body<const FMA: bool>(xs: &[f64], center: f64, scale: f64, out: &mut [f64]) {
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = logistic_with::<FMA>(scale * (x - center));
    }
}

/// Independent partial sums of [`logistic_loss`]: squared errors of pixels
/// `i = j (mod 4)` go to lane `j`.
const SUM_LANES: usize = 4;
/// Pixels per block of [`logistic_loss`]: the squared errors of one block
/// wait in a stack buffer between the vectorised sweep and their
/// fixed-order summation.
const LOSS_BLOCK: usize = 64 * SUM_LANES;

#[inline(always)]
fn logistic_loss_body<const FMA: bool>(
    xs: &[f64],
    center: f64,
    scale: f64,
    target: &[f64],
    dldx: &mut [f64],
) -> f64 {
    let mut lanes = [0.0f64; SUM_LANES];
    let mut tail = 0.0f64;
    let mut squares = [0.0f64; LOSS_BLOCK];
    for ((x, zt), d) in xs
        .chunks(LOSS_BLOCK)
        .zip(target.chunks(LOSS_BLOCK))
        .zip(dldx.chunks_mut(LOSS_BLOCK))
    {
        let squares = &mut squares[..x.len()];
        for (((sq, d), &x), &zt) in squares.iter_mut().zip(d).zip(x).zip(zt) {
            let z = logistic_with::<FMA>(scale * (x - center));
            let e = z - zt;
            *sq = e * e;
            *d = 2.0 * e * (scale * z * (1.0 - z));
        }
        // The order of the additions depends on the pixel index alone,
        // not on vector width, alignment or dispatch.
        let mut quads = squares.chunks_exact(SUM_LANES);
        for quad in &mut quads {
            for (lane, sq) in lanes.iter_mut().zip(quad) {
                *lane += sq;
            }
        }
        // Only the last block can leave a remainder.
        for sq in quads.remainder() {
            tail += sq;
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn logistic_scaled_avx(xs: &[f64], center: f64, scale: f64, out: &mut [f64]) {
    logistic_scaled_body::<true>(xs, center, scale, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn logistic_loss_avx(
    xs: &[f64],
    center: f64,
    scale: f64,
    target: &[f64],
    dldx: &mut [f64],
) -> f64 {
    logistic_loss_body::<true>(xs, center, scale, target, dldx)
}

/// The logistic function `1 / (1 + exp(-x))`: the scalar form of
/// [`logistic_scaled`], bit-identical to it on any one machine.
///
/// Saturates instead of over- or underflowing (`logistic(-inf)` is about
/// `3e-308`, `logistic(inf)` is 1) and returns NaN for NaN.
///
/// # Examples
///
/// ```
/// use ilt_fft::simd::logistic;
///
/// assert_eq!(logistic(0.0), 0.5);
/// assert!((logistic(2.0) + logistic(-2.0) - 1.0).abs() < 1e-15);
/// assert!(logistic(f64::NAN).is_nan());
/// ```
pub fn logistic(x: f64) -> f64 {
    let mut out = [0.0];
    logistic_scaled(&[x], 0.0, 1.0, &mut out);
    out[0]
}

/// `out[i] = logistic(scale * (xs[i] - center))` — the latent-to-mask map
/// of pixel ILT (`center = 0`, which is exact: `x - 0` is `x`) and the
/// resist's wafer image (`center` the threshold).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn logistic_scaled(xs: &[f64], center: f64, scale: f64, out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "logistic_scaled: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the probe verified avx2+fma on this CPU; the body is
        // safe code.
        return unsafe { logistic_scaled_avx(xs, center, scale, out) };
    }
    logistic_scaled_body::<false>(xs, center, scale, out)
}

/// The sigmoid-relaxed squared-error objective in one sweep: with
/// `z_i = logistic(scale * (xs[i] - center))`, returns
/// `sum_i (z_i - target[i])^2` and writes its derivative
/// `dldx[i] = 2 (z_i - target[i]) . scale . z_i (1 - z_i)`.
///
/// The sum is accumulated in four interleaved partial sums combined in a
/// fixed order, so it is a function of the values alone (not of the
/// slices' alignment, and the same on either compiled body given the same
/// `z`). A NaN input yields a NaN sum.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn logistic_loss(xs: &[f64], center: f64, scale: f64, target: &[f64], dldx: &mut [f64]) -> f64 {
    assert_eq!(xs.len(), target.len(), "logistic_loss: length mismatch");
    assert_eq!(xs.len(), dldx.len(), "logistic_loss: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the probe verified avx2+fma on this CPU; the body is
        // safe code.
        return unsafe { logistic_loss_avx(xs, center, scale, target, dldx) };
    }
    logistic_loss_body::<false>(xs, center, scale, target, dldx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_is_stable() {
        assert_eq!(avx2_fma_available(), avx2_fma_available());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_matches_scalar_butterfly() {
        if !avx2_fma_available() {
            return;
        }
        let n = 8;
        let mk = |s: f64| -> Vec<Complex> {
            (0..n)
                .map(|i| Complex::new((i as f64 * s).sin(), (i as f64 * s + 0.3).cos()))
                .collect()
        };
        let (lo0, hi0, tw) = (mk(0.7), mk(1.3), mk(2.1));
        let mut lo = lo0.clone();
        let mut hi = hi0.clone();
        butterfly_block_x86(&mut lo, &mut hi, &tw);
        for k in 0..n {
            let t = tw[k] * hi0[k];
            assert!((lo[k] - (lo0[k] + t)).abs() < 1e-12);
            assert!((hi[k] - (lo0[k] - t)).abs() < 1e-12);
        }
    }

    /// The `f64::exp` form the polynomial replaces, kept as the reference.
    fn logistic_reference(x: f64) -> f64 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// Distance in units in the last place (both finite, same sign).
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Vector bodies plus every tail length an AVX2 or SSE2 loop can leave.
    const LENGTHS: [usize; 5] = [0, 1, 3, 7, 65_537];

    /// `len` points sweeping `[-40, 40]`, no two sweeps alike.
    fn sweep(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| -40.0 + 80.0 * (i as f64 + 0.37) / len as f64)
            .collect()
    }

    #[test]
    fn logistic_is_within_two_ulp_of_the_exp_form() {
        for len in LENGTHS {
            let xs = sweep(len);
            let mut dispatched = vec![0.0; len];
            let mut portable = vec![0.0; len];
            logistic_scaled(&xs, 0.0, 1.0, &mut dispatched);
            logistic_scaled_body::<false>(&xs, 0.0, 1.0, &mut portable);
            for ((&x, &d), &p) in xs.iter().zip(&dispatched).zip(&portable) {
                let reference = logistic_reference(x);
                assert!(ulps(d, reference) <= 2, "x={x}: {d:e} vs {reference:e}");
                assert!(ulps(p, reference) <= 2, "x={x}: {p:e} vs {reference:e}");
                // Whichever body the probe picked, the other agrees.
                assert!(ulps(d, p) <= 2, "x={x}: {d:e} vs {p:e}");
                assert_eq!(d, logistic(x), "scalar form differs at x={x}");
            }
        }
        // Centre and scale are applied before the logistic, nothing more.
        let xs = sweep(33);
        let mut scaled = vec![0.0; 33];
        logistic_scaled(&xs, 0.0, 0.25, &mut scaled);
        for (&x, &z) in xs.iter().zip(&scaled) {
            assert_eq!(z, logistic(0.25 * x));
        }
        logistic_scaled(&xs, 1.5, 0.25, &mut scaled);
        for (&x, &z) in xs.iter().zip(&scaled) {
            assert_eq!(z, logistic(0.25 * (x - 1.5)));
        }
    }

    #[test]
    fn logistic_saturates_and_keeps_nan() {
        assert_eq!(logistic(0.0), 0.5);
        for big in [800.0, 1e300, f64::INFINITY] {
            let (hi, lo) = (logistic(big), logistic(-big));
            assert!(hi.is_finite() && (1.0 - hi).abs() < 1e-300, "{hi:e}");
            assert!(lo.is_finite() && (0.0..1e-300).contains(&lo), "{lo:e}");
        }
        assert!(logistic(f64::NAN).is_nan());
        assert!(logistic_scaled_body_scalar::<false>(f64::NAN).is_nan());
        assert!(logistic_scaled_body_scalar::<true>(f64::NAN).is_nan());
        // Monotone through the switch between the two one-sided forms.
        assert!(logistic(-1e-9) < 0.5 && logistic(1e-9) > 0.5);
    }

    /// One value through a body chosen by hand (the `FMA = true` body is
    /// plain Rust; only its speed needs the instruction).
    fn logistic_scaled_body_scalar<const FMA: bool>(x: f64) -> f64 {
        let mut out = [0.0];
        logistic_scaled_body::<FMA>(&[x], 0.0, 1.0, &mut out);
        out[0]
    }

    #[test]
    fn loss_sweep_matches_the_naive_sum() {
        let (center, scale) = (0.32, 32.0);
        for len in LENGTHS {
            let xs: Vec<f64> = sweep(len).iter().map(|v| 0.3 + v / 80.0).collect();
            let target: Vec<f64> = (0..len).map(|i| (i % 3 == 0) as u8 as f64).collect();
            let mut dldx = vec![0.0; len];
            let value = logistic_loss(&xs, center, scale, &target, &mut dldx);
            let mut portable_dldx = vec![0.0; len];
            let portable =
                logistic_loss_body::<false>(&xs, center, scale, &target, &mut portable_dldx);

            let mut naive = 0.0;
            for i in 0..len {
                let z = logistic(scale * (xs[i] - center));
                let e = z - target[i];
                naive += e * e;
                assert_eq!(
                    dldx[i],
                    2.0 * e * (scale * z * (1.0 - z)),
                    "len {len} pixel {i}"
                );
                assert!((dldx[i] - portable_dldx[i]).abs() <= 1e-13 * scale);
            }
            assert!(
                (value - naive).abs() <= 1e-12 * naive,
                "len {len}: {value} vs {naive}"
            );
            assert!((value - portable).abs() <= 1e-12 * naive);

            // Same values at another alignment: same sum, bit for bit.
            let shift = |v: &[f64]| -> Vec<f64> {
                let mut moved = vec![0.0; v.len() + 1];
                moved[1..].copy_from_slice(v);
                moved
            };
            let (xs2, target2, mut dldx2) = (shift(&xs), shift(&target), shift(&dldx));
            let moved = logistic_loss(&xs2[1..], center, scale, &target2[1..], &mut dldx2[1..]);
            assert_eq!(value.to_bits(), moved.to_bits(), "len {len}");
            assert_eq!(dldx, dldx2[1..]);
        }
        // A diverged pixel must not vanish into the sum.
        let mut xs = vec![0.4; 1000];
        xs[777] = f64::NAN;
        let mut dldx = vec![0.0; 1000];
        assert!(logistic_loss(&xs, center, scale, &vec![1.0; 1000], &mut dldx).is_nan());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_slices_panic() {
        logistic_scaled(&[0.0; 3], 0.0, 1.0, &mut [0.0; 2]);
    }
}
