//! FFT planning: precomputed twiddle factors and bit-reversal permutations.
//!
//! All transforms in this crate are power-of-two radix-2 Cooley–Tukey. A
//! [`FftPlan`] is created once per length and reused across the many
//! transforms an ILT iteration performs; plan construction is `O(n)` and the
//! transform itself is `O(n log n)`.
//!
//! # Butterfly engineering
//!
//! The transform is built for the autovectorizer and for branch-free inner
//! loops:
//!
//! * Twiddles are stored **stage-major** (each stage's factors contiguous,
//!   walked sequentially) and **per direction** — the inverse table holds the
//!   conjugates, so the hot loop never branches on [`Direction`] or strides
//!   through a shared table.
//! * The first two stages (`w = 1` and `w ∈ {1, ∓i}`) are algebraically
//!   specialized: half the butterflies of a 64-point transform run with no
//!   complex multiply at all.
//! * The remaining stages run pairs of butterflies per iteration over
//!   explicit `[f64; 4]`-shaped lanes (two complex values), which the
//!   autovectorizer lowers to 256-bit vector ops on x86_64.

use crate::complex::Complex;
use crate::error::FftError;

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

/// A reusable plan for power-of-two FFTs of a fixed length.
///
/// The plan stores the bit-reversal permutation and stage-major twiddle
/// tables for **both** directions (the inverse table holds conjugates), so
/// the butterfly loops are branch-free and walk their table sequentially.
///
/// # Examples
///
/// ```
/// use ilt_fft::{Complex, FftPlan};
///
/// # fn main() -> Result<(), ilt_fft::FftError> {
/// let plan = FftPlan::new(8)?;
/// let mut data = vec![Complex::ONE; 8];
/// plan.forward(&mut data)?;
/// // DC bin picks up the sum, every other bin is zero.
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// assert!(data[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    len: usize,
    /// `rev[i]` is the bit-reversed index of `i` within `log2(len)` bits.
    rev: Vec<u32>,
    /// Stage-major forward twiddles for stages of size `8, 16, .., len`:
    /// the stage of size `s` contributes `s/2` sequential factors
    /// `e^{-2 pi i k / s}`, `k in 0..s/2`. Stages of size 2 and 4 are
    /// specialized in code and store nothing.
    fwd: Vec<Complex>,
    /// Conjugates of `fwd` (the inverse-direction table).
    inv: Vec<Complex>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NonPowerOfTwo`] unless `len` is a power of two
    /// and at least 1.
    pub fn new(len: usize) -> Result<Self, FftError> {
        if len == 0 || !len.is_power_of_two() {
            return Err(FftError::NonPowerOfTwo { len });
        }
        let bits = len.trailing_zeros();
        let mut rev = vec![0u32; len];
        for (i, r) in rev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if bits == 0 {
            rev[0] = 0;
        }
        // Stage-major tables for stages of size >= 8 (sizes 2 and 4 are
        // specialized in `butterflies`): total `8/2 + 16/2 + .. + len/2`
        // entries, i.e. `len - 4` for `len >= 8`.
        let mut fwd = Vec::new();
        let mut size = 8;
        while size <= len {
            let half = size / 2;
            for k in 0..half {
                let theta = -2.0 * std::f64::consts::PI * k as f64 / size as f64;
                fwd.push(Complex::from_polar(1.0, theta));
            }
            size *= 2;
        }
        let inv = fwd.iter().map(|w| w.conj()).collect();
        Ok(FftPlan { len, rev, fwd, inv })
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

    /// Estimated resident bytes of this plan's tables (bit-reversal
    /// indices plus both per-direction stage-major twiddle tables). Used by
    /// cache introspection (`/debug/caches`).
    pub fn estimated_bytes(&self) -> u64 {
        (self.rev.len() * std::mem::size_of::<u32>()
            + (self.fwd.len() + self.inv.len()) * std::mem::size_of::<Complex>()) as u64
    }

    /// In-place forward FFT.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn forward(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.transform(data, Direction::Forward)
    }

    /// In-place inverse FFT including the `1/N` normalisation, so that
    /// `inverse(forward(x)) == x`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn inverse(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.transform(data, Direction::Inverse)?;
        let inv = 1.0 / self.len as f64;
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
    pub fn transform(&self, data: &mut [Complex], dir: Direction) -> Result<(), FftError> {
        if data.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: data.len(),
            });
        }
        if self.len == 1 {
            return Ok(());
        }
        // Bit-reversal permutation.
        for i in 0..self.len {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        self.butterflies(data, dir);
        Ok(())
    }

    /// The iterative butterfly passes over bit-reversed data. One code path
    /// per direction regardless of caller, so every transform of the same
    /// buffer is bit-identical no matter how it is batched or pooled.
    fn butterflies(&self, data: &mut [Complex], dir: Direction) {
        let n = self.len;
        // Stages 1 and 2 fused: no twiddle loads at all. Stage 1 is
        // `w = 1`; stage 2 is `w in {1, -i}` (forward) / `{1, i}`
        // (inverse), and multiplying by `∓i` is an exact component swap.
        if n == 2 {
            let (a, b) = (data[0], data[1]);
            data[0] = a + b;
            data[1] = a - b;
            return;
        }
        let flip = match dir {
            Direction::Forward => 1.0,
            Direction::Inverse => -1.0,
        };
        for q in data.chunks_exact_mut(4) {
            let s0 = q[0] + q[1];
            let d0 = q[0] - q[1];
            let s1 = q[2] + q[3];
            let d1 = q[2] - q[3];
            // t = ∓i * d1, exactly.
            let t = Complex::new(flip * d1.im, -flip * d1.re);
            q[0] = s0 + s1;
            q[2] = s0 - s1;
            q[1] = d0 + t;
            q[3] = d0 - t;
        }
        // Remaining stages: branch-free, sequential stage-major twiddles.
        let table = match dir {
            Direction::Forward => &self.fwd,
            Direction::Inverse => &self.inv,
        };
        let block = butterfly_dispatch();
        let mut tw_off = 0;
        let mut size = 8;
        while size <= n {
            let half = size / 2;
            let tw = &table[tw_off..tw_off + half];
            tw_off += half;
            let mut base = 0;
            while base < n {
                let (lo, hi) = data[base..base + size].split_at_mut(half);
                block(lo, hi, tw);
                base += size;
            }
            size *= 2;
        }
    }
}

/// Picks the butterfly-block kernel for this process: the AVX2+FMA
/// [`crate::simd`] kernel when the CPU supports it, the portable
/// autovectorized block otherwise. The choice is a pure function of the
/// host CPU, so every transform in a process takes the same path.
fn butterfly_dispatch() -> fn(&mut [Complex], &mut [Complex], &[Complex]) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::avx2_fma_available() {
            return crate::simd::butterfly_block_x86;
        }
    }
    butterfly_block
}

/// One butterfly block: `lo[k], hi[k] <- lo[k] + w[k]*hi[k], lo[k] - w[k]*hi[k]`.
///
/// Runs two butterflies per iteration over explicit four-lane `f64` shapes
/// (two complex values), which the autovectorizer turns into 256-bit loads,
/// multiplies and add/sub pairs; `half >= 4` always holds here (the first
/// two stages are specialized away), so the `chunks_exact` remainder is
/// empty.
#[inline]
fn butterfly_block(lo: &mut [Complex], hi: &mut [Complex], tw: &[Complex]) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), tw.len());
    let lo2 = lo.chunks_exact_mut(2);
    let hi2 = hi.chunks_exact_mut(2);
    let tw2 = tw.chunks_exact(2);
    for ((l, h), w) in lo2.zip(hi2).zip(tw2) {
        // t_j = w_j * h_j for the two lanes, spelled out component-wise so
        // the whole iteration is straight-line f64 arithmetic.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_reference;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            FftPlan::new(12),
            Err(FftError::NonPowerOfTwo { len: 12 })
        ));
        assert!(matches!(
            FftPlan::new(0),
            Err(FftError::NonPowerOfTwo { len: 0 })
        ));
    }

    #[test]
    fn rejects_length_mismatch() {
        let plan = FftPlan::new(8).unwrap();
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
        let plan = FftPlan::new(16).unwrap();
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
