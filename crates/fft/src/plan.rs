//! FFT planning: precomputed twiddle factors and bit-reversal tables.
//!
//! All transforms in this crate are power-of-two radix-2 Cooley–Tukey. A
//! [`FftPlan`] is created once per length and reused across the many
//! transforms an ILT iteration performs; plan construction is `O(n)` and the
//! transform itself is `O(n log n)`.
//!
//! # Butterfly engineering
//!
//! A transform is a bit-reversal and then `log2 n` radix-2 stages. The
//! arithmetic is fixed — every product and sum of the textbook
//! stage-at-a-time loop, in its order, with its roundings (that loop is the
//! `#[cfg(test)]` oracle below, and the engine is bit-identical to it) —
//! so what is engineered is how often the data moves:
//!
//! * **Whole-array passes, two stages at a time.** The stages of size 2 and
//!   4 need no twiddle and form the first pass. Every later pass keeps two
//!   consecutive stages in registers (`simd::fused_pass`): four values
//!   are loaded, go through both butterflies, and are stored, once. An odd
//!   stage count leaves one trailing `simd::single_pass`. A 128-point
//!   transform is four sweeps over its data instead of seven, and no pass
//!   is entered through a per-block call.
//! * **Bit reversal off the critical path.** A transform that reads its
//!   input from somewhere else ([`FftPlan::transform_from`]: the real row
//!   passes and the gathered columns of [`crate::Rfft2d`]) reads it in
//!   bit-reversed order *inside* the first pass, so the permutation costs
//!   no pass of its own. An in-place transform applies it as a precomputed
//!   list of disjoint swaps — no comparison, no self-swaps.
//! * Twiddles are stored **stage-major** (each stage's factors contiguous,
//!   two consecutive stages' adjacent, walked sequentially) and **per
//!   direction** — the inverse table holds the conjugates, so no loop
//!   branches on [`Direction`] or strides through a shared table.
//! * Each pass has three compiled bodies in `simd.rs` — portable,
//!   `avx2,fma` and `avx512f` — and a plan runs the widest one the CPU
//!   reports ([`crate::body_name`]), chosen once per process. The two
//!   vector bodies of a twiddled pass are one source at two lane widths
//!   and bit-identical to each other; the portable one (no FMA) is
//!   bit-identical to the portable form of the oracle.
//! * A plan is generic over its element type ([`Float`]): `f32`, the
//!   simulation's precision, and `f64`, its test reference. Both run the
//!   one source above; the twiddles are evaluated in `f64` and rounded to
//!   the element type once, at planning.

use crate::complex::{Complex, Float};
use crate::error::FftError;
use crate::simd::{self, Body, QuadOrder};

/// Direction of a Fourier transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The forward transform, `X_k = sum_n x_n e^{-2 pi i k n / N}`.
    Forward,
    /// The inverse transform (with `1/N` normalisation applied).
    Inverse,
}

impl Direction {
    /// Sign of the exponent used by this direction.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// A reusable plan for power-of-two FFTs of a fixed length, in element type
/// `T` (`f64` unless named otherwise).
///
/// The plan stores the bit-reversal permutation (as a swap list for
/// in-place transforms and as a read order for out-of-place ones) and
/// stage-major twiddle tables for **both** directions (the inverse table
/// holds conjugates), so the butterfly passes are branch-free and walk
/// their tables sequentially.
///
/// # Examples
///
/// ```
/// use ilt_fft::{Complex, FftPlan};
///
/// # fn main() -> Result<(), ilt_fft::FftError> {
/// let plan = FftPlan::<f64>::new(8)?;
/// let mut data = vec![Complex::ONE; 8];
/// plan.forward(&mut data)?;
/// // DC bin picks up the sum, every other bin is zero.
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// assert!(data[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan<T = f64> {
    len: usize,
    /// The bit-reversal permutation as its disjoint swaps `[i, rev(i)]`,
    /// `i < rev(i)`: what an in-place transform applies before its first
    /// pass.
    swaps: Vec<[u32; 2]>,
    /// The same permutation as the read order of an out-of-place first
    /// pass (`None` below length 4, where there is no such pass).
    order: Option<QuadOrder>,
    /// Stage-major forward twiddles for stages of size `8, 16, .., len`:
    /// the stage of size `s` contributes `s/2` sequential factors
    /// `e^{-2 pi i k / s}`, `k in 0..s/2`, starting at entry `s/2 - 4`.
    /// Stages of size 2 and 4 are specialized in code and store nothing.
    fwd: Vec<Complex<T>>,
    /// Conjugates of `fwd` (the inverse-direction table).
    inv: Vec<Complex<T>>,
    /// The compiled body every pass of this plan runs: the probe's choice.
    body: Body,
}

impl<T: Float> FftPlan<T> {
    /// Creates a plan for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NonPowerOfTwo`] unless `len` is a power of two
    /// of at least 1 (and below `2^32`: the tables index by `u32`).
    pub fn new(len: usize) -> Result<Self, FftError> {
        Self::with_body(len, Body::probed())
    }

    /// [`FftPlan::new`] on a body chosen by hand: how the tests hold every
    /// body the host supports against the oracle and against each other.
    pub(crate) fn with_body(len: usize, body: Body) -> Result<Self, FftError> {
        if len == 0 || !len.is_power_of_two() || u32::try_from(len).is_err() {
            return Err(FftError::NonPowerOfTwo { len });
        }
        let bits = len.trailing_zeros();
        let swaps = (0..len as u32)
            .map(|i| [i, i.reverse_bits().checked_shr(32 - bits).unwrap_or(0)])
            .filter(|[i, j]| i < j)
            .collect();
        let order = (len >= 4).then(|| QuadOrder::new(len));
        // Stage-major tables for stages of size >= 8 (sizes 2 and 4 are
        // the twiddle-free first pass): total `8/2 + 16/2 + .. + len/2`
        // entries, i.e. `len - 4` for `len >= 8`.
        let mut fwd = Vec::new();
        let mut size = 8;
        while size <= len {
            let half = size / 2;
            for k in 0..half {
                let theta = -2.0 * std::f64::consts::PI * k as f64 / size as f64;
                fwd.push(Complex::from_polar(1.0, theta).cast());
            }
            size *= 2;
        }
        let inv = fwd.iter().map(|w| w.conj()).collect();
        Ok(FftPlan {
            len,
            swaps,
            order,
            fwd,
            inv,
            body,
        })
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the plan length is zero (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Estimated resident bytes of this plan's tables (both forms of the
    /// bit reversal plus both per-direction stage-major twiddle tables).
    /// Used by cache introspection (`/debug/caches`).
    pub fn estimated_bytes(&self) -> u64 {
        (std::mem::size_of_val(&*self.swaps)
            + self.order.as_ref().map_or(0, QuadOrder::bytes)
            + (self.fwd.len() + self.inv.len()) * std::mem::size_of::<Complex<T>>()) as u64
    }

    /// In-place forward FFT.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn forward(&self, data: &mut [Complex<T>]) -> Result<(), FftError> {
        self.transform(data, Direction::Forward)
    }

    /// In-place inverse FFT including the `1/N` normalisation, so that
    /// `inverse(forward(x)) == x`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn inverse(&self, data: &mut [Complex<T>]) -> Result<(), FftError> {
        self.transform(data, Direction::Inverse)?;
        let inv = T::from_f64(1.0 / self.len as f64);
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
        Ok(())
    }

    /// In-place transform without any normalisation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn transform(&self, data: &mut [Complex<T>], dir: Direction) -> Result<(), FftError> {
        if data.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: data.len(),
            });
        }
        for &[i, j] in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        match self.len {
            1 => {}
            2 => two_point(data[0], data[1], data),
            _ => simd::first_pass(data, dir == Direction::Inverse, self.body),
        }
        self.later_stages(data, dir);
        Ok(())
    }

    /// The same transform out of place, its input read at a stride:
    /// `dst = DFT(x)` with `x[k] = src[first + k * stride]`, bit for bit
    /// what [`FftPlan::transform`] leaves after `x` is copied into `dst`.
    /// The first pass reads `src` in bit-reversed order, so no permutation
    /// pass (and no copy) runs at all.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len()` differs from the plan length or `src` is too
    /// short for the elements addressed (callers are this crate's 2-D and
    /// real-input drivers, which size both by construction).
    pub(crate) fn transform_from(
        &self,
        src: &[Complex<T>],
        first: usize,
        stride: usize,
        dst: &mut [Complex<T>],
        dir: Direction,
    ) {
        assert_eq!(dst.len(), self.len, "transform_from: output length");
        match &self.order {
            Some(order) => {
                let inverse = dir == Direction::Inverse;
                order.first_pass_from(src, first, stride, dst, inverse, self.body);
            }
            None if self.len == 2 => two_point(src[first], src[first + stride], dst),
            None => dst[0] = src[first],
        }
        self.later_stages(dst, dir);
    }

    /// Every stage after the first pass, as whole-array passes over data
    /// the first pass left in place: pairs of stages fused, then the one
    /// stage an odd count leaves over. One code path per direction
    /// regardless of caller, so every transform of the same values is
    /// bit-identical no matter how it is batched or fed.
    fn later_stages(&self, data: &mut [Complex<T>], dir: Direction) {
        let table = match dir {
            Direction::Forward => &self.fwd,
            Direction::Inverse => &self.inv,
        };
        // The stage of size `s` owns entries `s/2 - 4 .. s - 4`, so the
        // stages of size `s` and `2s` own the `3s/2` from `s/2 - 4` on.
        // The smallest pass has `h = size / 2 = 4`: four complex values,
        // one register of the widest body (the passes assert it).
        let mut size = 8;
        while 2 * size <= self.len {
            let at = size / 2 - 4;
            simd::fused_pass(data, &table[at..at + 3 * size / 2], self.body);
            size *= 4;
        }
        if size <= self.len {
            simd::single_pass(data, &table[size / 2 - 4..size - 4], self.body);
        }
    }
}

/// The length-2 transform (either direction): `out = [a + b, a - b]`.
#[inline]
fn two_point<T: Float>(a: Complex<T>, b: Complex<T>, out: &mut [Complex<T>]) {
    out[0] = a + b;
    out[1] = a - b;
}

/// The engine the fused passes replaced, kept as their oracle: the
/// bit-reversal loop, the fused first two stages, then one butterfly block
/// per block per stage through a function pointer. The passes above must
/// produce its output bit for bit.
#[cfg(test)]
mod reference {
    use super::{Complex, Direction, FftPlan, Float};

    /// `lo[k], hi[k] <- lo[k] ± tw[k] * hi[k]` over one block.
    pub(super) type Block<T = f64> = fn(&mut [Complex<T>], &mut [Complex<T>], &[Complex<T>]);

    pub(super) fn transform<T: Float>(
        plan: &FftPlan<T>,
        data: &mut [Complex<T>],
        dir: Direction,
        block: Block<T>,
    ) {
        let n = plan.len;
        assert_eq!(data.len(), n);
        if n == 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        if n == 2 {
            let (a, b) = (data[0], data[1]);
            data[0] = a + b;
            data[1] = a - b;
            return;
        }
        let flip = match dir {
            Direction::Forward => T::ONE,
            Direction::Inverse => -T::ONE,
        };
        for q in data.chunks_exact_mut(4) {
            let s0 = q[0] + q[1];
            let d0 = q[0] - q[1];
            let s1 = q[2] + q[3];
            let d1 = q[2] - q[3];
            let t = Complex::new(flip * d1.im, -flip * d1.re);
            q[0] = s0 + s1;
            q[2] = s0 - s1;
            q[1] = d0 + t;
            q[3] = d0 - t;
        }
        let table = match dir {
            Direction::Forward => &plan.fwd,
            Direction::Inverse => &plan.inv,
        };
        let mut tw_off = 0;
        let mut size = 8;
        while size <= n {
            let half = size / 2;
            let tw = &table[tw_off..tw_off + half];
            tw_off += half;
            for chunk in data.chunks_exact_mut(size) {
                let (lo, hi) = chunk.split_at_mut(half);
                block(lo, hi, tw);
            }
            size *= 2;
        }
    }

    /// The portable block: two butterflies per iteration, the complex
    /// product spelled out component-wise.
    pub(super) fn butterfly_block<T: Float>(
        lo: &mut [Complex<T>],
        hi: &mut [Complex<T>],
        tw: &[Complex<T>],
    ) {
        assert_eq!(lo.len(), hi.len());
        assert_eq!(lo.len(), tw.len());
        let lo2 = lo.chunks_exact_mut(2);
        let hi2 = hi.chunks_exact_mut(2);
        let tw2 = tw.chunks_exact(2);
        for ((l, h), w) in lo2.zip(hi2).zip(tw2) {
            let t0re = w[0].re * h[0].re - w[0].im * h[0].im;
            let t0im = w[0].re * h[0].im + w[0].im * h[0].re;
            let t1re = w[1].re * h[1].re - w[1].im * h[1].im;
            let t1im = w[1].re * h[1].im + w[1].im * h[1].re;
            let u0 = l[0];
            let u1 = l[1];
            l[0] = Complex::new(u0.re + t0re, u0.im + t0im);
            h[0] = Complex::new(u0.re - t0re, u0.im - t0im);
            l[1] = Complex::new(u1.re + t1re, u1.im + t1im);
            h[1] = Complex::new(u1.re - t1re, u1.im - t1im);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_reference;

    /// Deterministic xorshift bits.
    struct Rng(u64);

    impl Rng {
        fn bits(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// A value in `[-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.bits() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }

        /// A finite value. Trial 0 draws order-one values only (every
        /// rounding of every butterfly shows in the result); trial 1 mixes
        /// in signed zeros and subnormals; trial 2 the far ends of the
        /// normal range as well.
        fn finite(&mut self, trial: usize) -> f64 {
            let unit = self.unit();
            match (trial, self.bits() % 8) {
                (1.., 0) => 0.0,
                (1.., 1) => -0.0,
                (1.., 2) => unit * f64::MIN_POSITIVE * 0.125,
                (1.., 3) => f64::from_bits(self.bits() % (1 << 52)),
                (2.., 4) => unit * 1e-300,
                (2.., 5) => unit * 1e150,
                _ => unit,
            }
        }

        /// [`Rng::finite`] at single precision: trial 1 mixes in signed
        /// zeros and `f32` subnormals.
        fn finite32(&mut self, trial: usize) -> f32 {
            let unit = self.unit() as f32;
            match (trial, self.bits() % 8) {
                (1.., 0) => 0.0,
                (1.., 1) => -0.0,
                (1.., 2) => unit * f32::MIN_POSITIVE * 0.125,
                (1.., 3) => f32::from_bits((self.bits() % (1 << 23)) as u32),
                _ => unit,
            }
        }

        fn signal(&mut self, n: usize, trial: usize) -> Vec<Complex> {
            (0..n)
                .map(|_| Complex::new(self.finite(trial), self.finite(trial)))
                .collect()
        }
    }

    fn bits_of(data: &[Complex]) -> Vec<[u64; 2]> {
        data.iter().map(|z| z.to_bits()).collect()
    }

    /// The stage-at-a-time block kernel a body must reproduce: the portable
    /// one for the portable body, the per-block `avx2,fma` one for both
    /// vector bodies (which makes those two bit-identical to each other).
    fn oracle_block<T: Float>(body: Body) -> reference::Block<T> {
        #[cfg(target_arch = "x86_64")]
        if body != Body::PORTABLE {
            return simd::butterfly_block_x86::<T>;
        }
        assert_eq!(body, Body::PORTABLE);
        reference::butterfly_block
    }

    /// `x` spread at stride 3 behind two other values, NaN everywhere else.
    fn spread(x: &[Complex]) -> Vec<Complex> {
        let mut spread = vec![Complex::new(f64::NAN, f64::NAN); 3 * x.len() + 2];
        for (k, &z) in x.iter().enumerate() {
            spread[2 + 3 * k] = z;
        }
        spread
    }

    /// The bit-identity oracle: at every power of two 1..=4096, in both
    /// directions, in place and gathered at a stride, every body this host
    /// runs reproduces the stage-at-a-time loop over the matching block
    /// kernel bit for bit on finite data (signed zeros and subnormals
    /// included), and is non-finite exactly where that loop is on data
    /// holding NaN or infinities.
    ///
    /// Both vector bodies are held to the *same* per-block kernel, so this
    /// is also the proof that `transform` / `transform_from` are
    /// bit-identical between `avx2,fma` and `avx512f`.
    ///
    /// Mutation it catches (checked by hand, all three bodies): giving the
    /// second pair `(B', D')` of `fused_pass` the larger stage's twiddle
    /// `k` instead of `k + h` fails this at n = 16.
    #[test]
    fn every_body_is_bit_identical_to_the_stage_at_a_time_loop() {
        for body in Body::supported() {
            assert_matches_reference(body, oracle_block(body));
        }
        println!(
            "{}",
            crate::simd::tests::covered("FftPlan vs the stage-at-a-time oracle")
        );
    }

    fn assert_matches_reference(body: Body, block: reference::Block) {
        let mut rng = Rng(0x5eed_f00d_cafe_0001);
        for log in 0..=12 {
            let n = 1usize << log;
            let plan = FftPlan::with_body(n, body).unwrap();
            for dir in [Direction::Forward, Direction::Inverse] {
                for trial in 0..3 {
                    let x = rng.signal(n, trial);
                    let mut want = x.clone();
                    reference::transform(&plan, &mut want, dir, block);

                    let mut got = x.clone();
                    plan.transform(&mut got, dir).unwrap();
                    assert_eq!(
                        bits_of(&got),
                        bits_of(&want),
                        "{body:?} n={n} {dir:?} #{trial}"
                    );

                    let mut got = vec![Complex::new(f64::NAN, f64::NAN); n];
                    plan.transform_from(&spread(&x), 2, 3, &mut got, dir);
                    assert_eq!(
                        bits_of(&got),
                        bits_of(&want),
                        "{body:?} gathered n={n} {dir:?} #{trial}"
                    );
                }
                // Non-finite inputs come back non-finite at the same
                // positions (their payload bits are the compiler's
                // business).
                let mut x = rng.signal(n, 0);
                x[n / 3] = Complex::new(f64::NAN, 1.0);
                x[n / 2].im = f64::INFINITY;
                x[n - 1].re = f64::NEG_INFINITY;
                let mut want = x.clone();
                reference::transform(&plan, &mut want, dir, block);
                let mut got = x;
                plan.transform(&mut got, dir).unwrap();
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.re.is_finite(), w.re.is_finite(), "n={n} re {k}");
                    assert_eq!(g.im.is_finite(), w.im.is_finite(), "n={n} im {k}");
                    if w.re.is_finite() && w.im.is_finite() {
                        assert_eq!(bits_of(&[*g]), bits_of(&[*w]), "n={n} bin {k}");
                    }
                }
            }
        }
    }

    /// The single-precision twin of the oracle above: at every power of two
    /// 1..=4096, in both directions, in place and gathered, every body this
    /// host runs reproduces the `f32` stage-at-a-time loop over the
    /// matching `f32` block kernel bit for bit — which makes the two
    /// vector bodies bit-identical to each other at `f32` too (including
    /// the `avx512f` body's fall-back to the 256-bit stamp for the passes
    /// a 512-bit register cannot fill).
    #[test]
    fn every_f32_body_is_bit_identical_to_the_stage_at_a_time_loop() {
        let mut rng = Rng(0x5eed_f00d_cafe_0032);
        let bits =
            |v: &[Complex<f32>]| -> Vec<[u64; 2]> { v.iter().map(|z| z.to_bits()).collect() };
        let poison = Complex::new(f32::NAN, f32::NAN);
        for body in Body::supported() {
            let block = oracle_block::<f32>(body);
            for log in 0..=12 {
                let n = 1usize << log;
                let plan = FftPlan::<f32>::with_body(n, body).unwrap();
                for dir in [Direction::Forward, Direction::Inverse] {
                    for trial in 0..2 {
                        let x: Vec<Complex<f32>> = (0..n)
                            .map(|_| Complex::new(rng.finite32(trial), rng.finite32(trial)))
                            .collect();
                        let mut want = x.clone();
                        reference::transform(&plan, &mut want, dir, block);

                        let mut got = x.clone();
                        plan.transform(&mut got, dir).unwrap();
                        assert_eq!(bits(&got), bits(&want), "{body:?} n={n} {dir:?} #{trial}");

                        let mut spread = vec![poison; 3 * n + 2];
                        for (k, &z) in x.iter().enumerate() {
                            spread[2 + 3 * k] = z;
                        }
                        let mut got = vec![poison; n];
                        plan.transform_from(&spread, 2, 3, &mut got, dir);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{body:?} gathered n={n} {dir:?} #{trial}"
                        );
                    }
                }
            }
        }
        println!(
            "{}",
            crate::simd::tests::covered("f32 FftPlan vs the stage-at-a-time oracle")
        );
    }

    #[test]
    fn f32_plans_track_the_f64_reference() {
        // Rounding the twiddles once and running every butterfly in f32
        // costs a few ulps of the signal's scale per stage, nothing more.
        for n in [8usize, 64, 256, 1024] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut wide = x.clone();
            FftPlan::new(n).unwrap().forward(&mut wide).unwrap();
            let mut narrow: Vec<Complex<f32>> = x.iter().map(|z| z.cast()).collect();
            FftPlan::<f32>::new(n)
                .unwrap()
                .forward(&mut narrow)
                .unwrap();
            let err = wide
                .iter()
                .zip(&narrow)
                .map(|(w, s)| (*w - s.cast()).abs())
                .fold(0.0, f64::max);
            let bound = 4.0 * f64::from(f32::EPSILON) * (n as f64) * (n as f64).log2();
            assert!(err < bound, "n={n}: {err} >= {bound}");
        }
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            FftPlan::<f64>::new(12),
            Err(FftError::NonPowerOfTwo { len: 12 })
        ));
        assert!(matches!(
            FftPlan::<f64>::new(0),
            Err(FftError::NonPowerOfTwo { len: 0 })
        ));
    }

    #[test]
    fn rejects_length_mismatch() {
        let plan = FftPlan::<f64>::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 4];
        assert!(matches!(
            plan.forward(&mut data),
            Err(FftError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    fn length_one_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut data = vec![Complex::new(3.0, -2.0)];
        plan.forward(&mut data).unwrap();
        assert_eq!(data[0], Complex::new(3.0, -2.0));
        plan.inverse(&mut data).unwrap();
        assert_eq!(data[0], Complex::new(3.0, -2.0));
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let plan = FftPlan::<f64>::new(16).unwrap();
        let mut data = vec![Complex::ZERO; 16];
        data[0] = Complex::ONE;
        plan.forward(&mut data).unwrap();
        for z in &data {
            assert!((*z - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn shifted_impulse_has_linear_phase() {
        let n = 8;
        let plan = FftPlan::new(n).unwrap();
        let mut data = vec![Complex::ZERO; n];
        data[1] = Complex::ONE;
        plan.forward(&mut data).unwrap();
        for (k, z) in data.iter().enumerate() {
            let expect =
                Complex::from_polar(1.0, -2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert!((*z - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [2usize, 4, 8, 32, 64] {
            let mut data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let reference = dft_reference(&data, Direction::Forward);
            FftPlan::new(n).unwrap().forward(&mut data).unwrap();
            assert!(max_err(&data, &reference) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_naive_dft() {
        for n in [2usize, 4, 8, 16, 128] {
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.9).cos(), (i as f64 * 0.2).sin()))
                .collect();
            let reference = dft_reference(&data, Direction::Inverse);
            let mut fast = data;
            FftPlan::new(n).unwrap().inverse(&mut fast).unwrap();
            assert!(max_err(&fast, &reference) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 128;
        let plan = FftPlan::new(n).unwrap();
        let original: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.1).cos()))
            .collect();
        let mut data = original.clone();
        plan.forward(&mut data).unwrap();
        plan.inverse(&mut data).unwrap();
        assert!(max_err(&data, &original) < 1e-10);
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 64;
        let plan = FftPlan::new(n).unwrap();
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.3).cos(), (i as f64 * 0.9).sin()))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = data;
        plan.forward(&mut freq).unwrap();
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let plan = FftPlan::new(n).unwrap();
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.5)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(1.0, -(i as f64))).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fa).unwrap();
        plan.forward(&mut fb).unwrap();
        plan.forward(&mut fsum).unwrap();
        let combined: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &combined) < 1e-9);
    }

    #[test]
    fn real_input_spectrum_is_conjugate_symmetric() {
        let n = 16;
        let plan = FftPlan::new(n).unwrap();
        let mut data: Vec<Complex> = (0..n)
            .map(|i| Complex::from_re((i as f64 * 0.37).sin()))
            .collect();
        plan.forward(&mut data).unwrap();
        for k in 1..n {
            assert!((data[k] - data[n - k].conj()).abs() < 1e-10);
        }
    }

    #[test]
    fn direction_signs() {
        assert_eq!(Direction::Forward.sign(), -1.0);
        assert_eq!(Direction::Inverse.sign(), 1.0);
    }
}
