//! Real-input FFTs: half the butterfly work, half the spectrum.
//!
//! Every mask, target, and aerial image in the Hopkins/SOCS pipeline is
//! real-valued, and the spectrum of a real signal is conjugate-symmetric:
//! `X[n-k] = conj(X[k])`. [`RfftPlan`] exploits this by packing the `n`
//! real samples into `n/2` complex values, running a *half-length* complex
//! FFT, and untangling the even/odd interleave with one `O(n)`
//! post-processing pass — the classic "pack two reals per complex" scheme.
//! Only the `n/2 + 1` non-redundant bins are ever materialised.
//!
//! The packing is a view, not a pass: a row of `n` reals *is* `n/2`
//! interleaved `(re, im)` pairs ([`crate::Complex`] is `repr(C)`), so the
//! forward transform's first butterfly pass reads the real row directly,
//! in bit-reversed order, and the inverse transform's last pass leaves its
//! result directly in the real output row. Neither direction packs,
//! unpacks or permutes in a pass of its own.
//!
//! The untangle pairs bin `k` with bin `n/2 - k`, and each pair is
//! independent of the others, so it has a **support-limited** form: given
//! the contiguous range of bins a caller wants (forward) or vouches
//! non-zero (inverse), only the pairs that hold such a bin are computed —
//! each exactly as the full pass computes it — and on the inverse side the
//! bins outside the range are never read.
//!
//! [`Rfft2d`] lifts this to square `n x n` real grids. The half-spectrum
//! is stored **transposed** as `(n/2 + 1) x n`: stored column `c` of the
//! logical spectrum occupies the contiguous run `spec[c*n .. (c+1)*n]`,
//! so the second (column-direction) pass transforms contiguous memory with
//! no transpose-back. Values in the missing half follow from symmetry:
//!
//! ```text
//! X(r, c) = spec[c*n + r]                          for c <= n/2
//! X(r, c) = conj(spec[(n-c)*n + (n-r) % n])        otherwise
//! ```
//!
//! The inverse accepts the same layout, skips all-zero stored columns the
//! caller vouches for (feeding the `fft.rows_skipped` counter exactly like
//! [`crate::Fft2d::inverse_support`]), and fuses an arbitrary extra scale
//! into the row re-tangle, so Hermitian-symmetrised adjoint sums come back
//! as real grids in one pass. Both support-limited 2-D entry points hand
//! the span of their column list down to the row passes: the forward
//! untangles, and the inverse transposes and re-tangles, those bins only.

use std::ops::Range;
use std::sync::Arc;

use ilt_par::InnerPool;

use crate::cache::{shared_plan, shared_rplan};
use crate::complex::{Complex, Float};
use crate::error::FftError;
use crate::fft2d::transpose_into_block;
use crate::plan::{Direction, FftPlan};
use crate::simd;

/// A reusable real-input FFT plan for one power-of-two length `n >= 2`,
/// in element type `T` (`f64` unless named otherwise).
///
/// The forward transform maps `n` reals to the `n/2 + 1` non-redundant
/// spectrum bins; the inverse maps them back. Internally the plan wraps
/// the shared half-length complex [`FftPlan`] plus an `n/4 + 1`-entry
/// post-processing twiddle table, so a real transform costs a complex
/// transform of *half* the length plus one linear pass.
///
/// # Examples
///
/// ```
/// use ilt_fft::{Complex, RfftPlan};
///
/// # fn main() -> Result<(), ilt_fft::FftError> {
/// // The simulation's precision; `RfftPlan::<f64>` is the same source.
/// let plan = RfftPlan::<f32>::new(8)?;
/// let x = [1.0, 2.0, 0.5, -1.0, 0.0, 3.0, -2.0, 0.25];
/// let mut spec = [Complex::ZERO; 5]; // n/2 + 1 bins
/// plan.forward(&x, &mut spec)?;
/// let mut back = [0.0; 8];
/// plan.inverse(&mut spec, &mut back)?;
/// assert!((back[5] - 3.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RfftPlan<T = f64> {
    len: usize,
    /// Shared complex plan of length `len / 2`.
    half: Arc<FftPlan<T>>,
    /// Untangle twiddles `e^{-2 pi i k / len}` for `k in 0..=len/4`.
    post: Vec<Complex<T>>,
}

impl<T: Float> RfftPlan<T> {
    /// Creates a real-input plan for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NonPowerOfTwo`] unless `len` is a power of two
    /// of at least 2 (the two-reals-per-complex packing needs an even
    /// length).
    pub fn new(len: usize) -> Result<Self, FftError> {
        if len < 2 || !len.is_power_of_two() {
            return Err(FftError::NonPowerOfTwo { len });
        }
        Ok(Self::over(shared_plan(len / 2)?))
    }

    /// The real plan of length `2 * half.len()` over its half-length
    /// complex plan.
    fn over(half: Arc<FftPlan<T>>) -> Self {
        let (m, len) = (half.len(), 2 * half.len());
        let step = -2.0 * std::f64::consts::PI / len as f64;
        let post = (0..=m / 2)
            .map(|k| Complex::from_polar(1.0, step * k as f64).cast())
            .collect();
        RfftPlan { len, half, post }
    }

    /// Real transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the plan length is zero (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of non-redundant spectrum bins: `len / 2 + 1`.
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.len / 2 + 1
    }

    /// Estimated resident bytes of this plan's *own* tables (the untangle
    /// twiddles). The embedded half-length complex plan is shared through
    /// the plan cache and accounted there, not here.
    pub fn estimated_bytes(&self) -> u64 {
        (self.post.len() * std::mem::size_of::<Complex<T>>()) as u64
    }

    /// Forward real FFT: `src` holds `len` reals, `dst` receives the
    /// `len/2 + 1` non-redundant bins (`dst[k] = X[k]` for `k <= len/2`;
    /// the rest follow from `X[len-k] = conj(X[k])`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if either buffer has the wrong
    /// length.
    pub fn forward(&self, src: &[T], dst: &mut [Complex<T>]) -> Result<(), FftError> {
        self.forward_bins(src, dst, 0..self.spectrum_len())
    }

    /// [`RfftPlan::forward`] of which only the bins in `bins` are wanted:
    /// each of them receives exactly the value `forward` writes there, and
    /// every other entry of `dst` is left unspecified (an intermediate of
    /// the transform, or the value of a bin that shares a pair with a
    /// wanted one).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if either buffer has the wrong
    /// length or `bins` reaches past `len/2 + 1`.
    pub(crate) fn forward_bins(
        &self,
        src: &[T],
        dst: &mut [Complex<T>],
        bins: Range<usize>,
    ) -> Result<(), FftError> {
        let n = self.len;
        if src.len() != n {
            return Err(FftError::LengthMismatch {
                expected: n,
                actual: src.len(),
            });
        }
        let m = n / 2;
        self.check_spectrum(dst.len(), &bins)?;
        if m == 1 {
            dst[0] = Complex::from_re(src[0] + src[1]);
            dst[1] = Complex::from_re(src[0] - src[1]);
            return Ok(());
        }
        // Two reals per complex, read where they lie: the half-length FFT
        // takes the row as `m` interleaved pairs.
        self.half
            .transform_from(simd::as_pairs(src), 0, 1, &mut dst[..m], Direction::Forward);
        // Untangle: with E/O the spectra of the even/odd subsequences,
        // E[k] = (Z[k] + conj(Z[m-k]))/2, O[k] = -i (Z[k] - conj(Z[m-k]))/2
        // and X[k] = E[k] + w^k O[k] with w = e^{-2 pi i / n}. Bins k and
        // m-k come out of one pair of inputs, and only the pairs holding a
        // wanted bin are formed.
        let pairs = self.pair_span(&bins);
        let h = m / 2;
        let half = T::from_f64(0.5);
        if pairs.contains(&0) {
            let z0 = dst[0];
            dst[0] = Complex::from_re(z0.re + z0.im);
            dst[m] = Complex::from_re(z0.re - z0.im);
        }
        for k in pairs.start.max(1)..pairs.end.min(h) {
            let zk = dst[k];
            let zmk = dst[m - k];
            let e = Complex::new(half * (zk.re + zmk.re), half * (zk.im - zmk.im));
            let d = Complex::new(half * (zk.re - zmk.re), half * (zk.im + zmk.im));
            let o = Complex::new(d.im, -d.re); // -i * d
            let wo = self.post[k] * o;
            dst[k] = e + wo;
            dst[m - k] = (e - wo).conj();
        }
        // k = m/2 pairs with itself: E = Re Z, O = Im Z, w^{m/2} = -i
        // exactly, so X[m/2] = conj(Z[m/2]).
        if pairs.contains(&h) {
            dst[h] = dst[h].conj();
        }
        Ok(())
    }

    /// Inverse real FFT with the full `1/len` normalisation, so that
    /// `inverse(forward(x)) == x`. **Destroys `spec`** (the untangle runs
    /// in place).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if either buffer has the wrong
    /// length.
    pub fn inverse(&self, spec: &mut [Complex<T>], dst: &mut [T]) -> Result<(), FftError> {
        self.inverse_scaled(spec, dst, T::from_f64(1.0 / self.len as f64))
    }

    /// Inverse real FFT scaled so that `dst = scale * S`, where `S` is the
    /// *unnormalised* inverse DFT of the Hermitian extension of `spec`
    /// (pass `scale = 1/len` for the true inverse). **Destroys `spec`.**
    ///
    /// The scale is folded into the untangle pass, so composed transforms
    /// (e.g. the 2-D inverse) pay no extra sweep for normalisation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if either buffer has the wrong
    /// length.
    pub fn inverse_scaled(
        &self,
        spec: &mut [Complex<T>],
        dst: &mut [T],
        scale: T,
    ) -> Result<(), FftError> {
        self.inverse_bins_scaled(spec, 0..self.spectrum_len(), dst, scale)
    }

    /// [`RfftPlan::inverse_scaled`] of a spectrum that is zero outside
    /// `bins`: the result is, bit for bit, that of `inverse_scaled` on
    /// `spec` with every other bin set to zero, but those bins are **not
    /// read** — they may hold anything. **Destroys `spec`.**
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if either buffer has the wrong
    /// length or `bins` reaches past `len/2 + 1`.
    pub(crate) fn inverse_bins_scaled(
        &self,
        spec: &mut [Complex<T>],
        bins: Range<usize>,
        dst: &mut [T],
        scale: T,
    ) -> Result<(), FftError> {
        let n = self.len;
        let m = n / 2;
        self.check_spectrum(spec.len(), &bins)?;
        if dst.len() != n {
            return Err(FftError::LengthMismatch {
                expected: n,
                actual: dst.len(),
            });
        }
        let at = |spec: &[Complex<T>], k: usize| {
            if bins.contains(&k) {
                spec[k]
            } else {
                Complex::ZERO
            }
        };
        let (x0, xm) = (at(spec, 0), at(spec, m));
        if m == 1 {
            dst[0] = scale * (x0.re + xm.re);
            dst[1] = scale * (x0.re - xm.re);
            return Ok(());
        }
        // Re-tangle in place: rebuild the half-length spectrum
        // Z[k] = E[k] + i O[k], folding `2 * scale` into every bin so the
        // half inverse can run unnormalised straight into `dst`. (The
        // forward packing identity contributes the factor 2 = n/m.)
        spec[0] = Complex::new(
            scale * ((x0.re + xm.re) - (x0.im - xm.im)),
            scale * ((x0.im + xm.im) + (x0.re - xm.re)),
        );
        let h = m / 2;
        let retangle = |a: Complex<T>, b: Complex<T>, k: usize| {
            let b = b.conj();
            let eh = Complex::new(scale * (a.re + b.re), scale * (a.im + b.im));
            let dh = Complex::new(scale * (a.re - b.re), scale * (a.im - b.im));
            let oh = self.post[k].conj() * dh;
            (
                Complex::new(eh.re - oh.im, eh.im + oh.re),
                Complex::new(eh.re + oh.im, oh.re - eh.im),
            )
        };
        // Pairs (k, m-k) holding a bin of `bins` are formed from it (and
        // from zero for the partner outside it).
        let pairs = self.pair_span(&bins);
        let lo = pairs.start.max(1);
        let hi = pairs.end.min(h).max(lo);
        for k in lo..hi {
            (spec[k], spec[m - k]) = retangle(at(spec, k), at(spec, m - k), k);
        }
        // Every other pair is a pair of zeros, and what the formula makes
        // of two zeros does not depend on k: the twiddle enters only
        // through products with zero, i.e. through the signs of its parts,
        // and for 0 < k < m/2 the angle lies strictly inside a quadrant.
        // (The result is all zeros for a positive scale, but their signs
        // follow the scale's, so it is computed rather than assumed.)
        if h > 1 {
            let (zero_lo, zero_hi) = retangle(Complex::ZERO, Complex::ZERO, 1);
            spec[1..lo].fill(zero_lo);
            spec[hi..h].fill(zero_lo);
            spec[h + 1..=m - hi].fill(zero_hi);
            spec[m - lo + 1..m].fill(zero_hi);
        }
        spec[h] = at(spec, h).conj().scale(T::from_f64(2.0) * scale);
        // The half-length inverse reads Z in bit-reversed order and leaves
        // its output as interleaved pairs — which is the real row.
        self.half.transform_from(
            &spec[..m],
            0,
            1,
            simd::as_pairs_mut(dst),
            Direction::Inverse,
        );
        Ok(())
    }

    /// The untangle works on pairs of bins `(k, len/2 - k)`, one per
    /// `k in 0..=len/4`. Returns the `k` whose pair holds a bin of `bins`:
    /// a contiguous range, because `bins` is and folding is monotone on
    /// either side of `len/4`.
    fn pair_span(&self, bins: &Range<usize>) -> Range<usize> {
        let m = self.len / 2;
        let h = m / 2;
        if bins.is_empty() {
            return 0..0;
        }
        let (lo, hi) = (bins.start, bins.end - 1);
        let fold = |c: usize| c.min(m - c);
        let first = fold(lo).min(fold(hi));
        let last = if (lo..=hi).contains(&h) {
            h
        } else {
            fold(lo).max(fold(hi))
        };
        first..last + 1
    }

    /// A spectrum buffer must hold `len/2 + 1` bins and `bins` stay inside.
    fn check_spectrum(&self, len: usize, bins: &Range<usize>) -> Result<(), FftError> {
        let expected = self.spectrum_len();
        if len != expected {
            return Err(FftError::LengthMismatch {
                expected,
                actual: len,
            });
        }
        if bins.end > expected {
            return Err(FftError::LengthMismatch {
                expected,
                actual: bins.end,
            });
        }
        Ok(())
    }
}

/// A reusable real-input 2-D FFT for square `n x n` real grids of element
/// type `T` (`f64` unless named otherwise), storing only the `n/2 + 1`
/// non-redundant spectrum columns (transposed layout — see the module
/// docs).
///
/// Plans come from the process-wide cache.
#[derive(Debug)]
pub struct Rfft2d<T = f64> {
    n: usize,
    row: Arc<RfftPlan<T>>,
    col_plan: Arc<FftPlan<T>>,
}

impl<T: Float> Rfft2d<T> {
    /// Creates a real 2-D plan for `n x n` grids.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NonPowerOfTwo`] unless `n` is a power of two of
    /// at least 2.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Ok(Rfft2d {
            n,
            row: shared_rplan(n)?,
            col_plan: shared_plan(n)?,
        })
    }

    /// [`Rfft2d::new`] over private plans on a body chosen by hand.
    #[cfg(test)]
    fn with_body(n: usize, body: crate::simd::Body) -> Self {
        let plan = |len| Arc::new(FftPlan::with_body(len, body).expect("power of two"));
        Rfft2d {
            n,
            row: Arc::new(RfftPlan::over(plan(n / 2))),
            col_plan: plan(n),
        }
    }

    /// Grid edge length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored spectrum columns: `n/2 + 1`.
    #[inline]
    pub fn half_cols(&self) -> usize {
        self.n / 2 + 1
    }

    /// Elements in a half-spectrum (or scratch) buffer:
    /// `(n/2 + 1) * n`.
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.half_cols() * self.n
    }

    /// Forward real 2-D FFT: `src` is the `n x n` row-major real grid,
    /// `spec` receives the half-spectrum in transposed `(n/2+1) x n`
    /// layout (`spec[c*n + r] = X(r, c)` for `c <= n/2`), and `scratch`
    /// is a caller-owned buffer of the same size.
    ///
    /// `_pool` is ignored; `benchmark/` still passes it.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ShapeMismatch`] if any buffer has the wrong
    /// length.
    pub fn forward(
        &self,
        src: &[T],
        spec: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        _pool: &InnerPool,
    ) -> Result<(), FftError> {
        self.forward_support(src, spec, scratch, None)
    }

    /// Forward real 2-D FFT of which only the listed stored columns are
    /// wanted — the mirror of [`Rfft2d::inverse_support_scaled`].
    ///
    /// `support_cols` are stored-column indices (`0..=n/2`). Each listed
    /// column of `spec` receives exactly the values [`Rfft2d::forward`]
    /// would write there (the same arithmetic in the same order); every
    /// other column is **left as it was** — its transform is skipped
    /// outright, and the skipped count feeds the `fft.rows_skipped`
    /// telemetry counter. `None` computes every column.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ShapeMismatch`] if any buffer has the wrong
    /// length, or [`FftError::LengthMismatch`] if a support column index
    /// is out of range.
    pub fn forward_support(
        &self,
        src: &[T],
        spec: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        support_cols: Option<&[usize]>,
    ) -> Result<(), FftError> {
        let n = self.n;
        let hw = self.half_cols();
        if src.len() != n * n {
            return Err(FftError::ShapeMismatch {
                expected: n * n,
                actual: src.len(),
            });
        }
        self.check_spectral(spec.len())?;
        self.check_spectral(scratch.len())?;
        self.check_support(support_cols)?;
        ilt_telemetry::counter_add("fft.rfft_forward", 1);
        let bins = self.listed_span(support_cols);
        if bins.is_empty() {
            return Ok(());
        }
        // Row pass: each real row becomes its bins `bins` in row-major
        // scratch (the span of the wanted columns; the row untangle forms
        // nothing else).
        for (src_row, out_row) in src.chunks_exact(n).zip(scratch.chunks_exact_mut(hw)) {
            self.row
                .forward_bins(src_row, out_row, bins.clone())
                .expect("row length matches plan by construction");
        }
        // Column pass, one body for every column computed: transform
        // stored column c out of the row-major scratch (stride hw, read in
        // bit-reversed order by the first butterfly pass) into its
        // contiguous row of `spec`. No transpose back: the half-spectrum
        // layout *is* transposed.
        let plan = &self.col_plan;
        match support_cols {
            Some(cols) => {
                for &c in cols {
                    let col = &mut spec[c * n..(c + 1) * n];
                    plan.transform_from(scratch, c, hw, col, Direction::Forward);
                }
            }
            None => {
                for (c, col) in spec.chunks_exact_mut(n).enumerate() {
                    plan.transform_from(scratch, c, hw, col, Direction::Forward);
                }
            }
        }
        Ok(())
    }

    /// Inverse real 2-D FFT with the full `1/n^2` normalisation.
    /// **Destroys `spec`.**
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ShapeMismatch`] if any buffer has the wrong
    /// length.
    pub fn inverse(
        &self,
        spec: &mut [Complex<T>],
        dst: &mut [T],
        scratch: &mut [Complex<T>],
    ) -> Result<(), FftError> {
        self.inverse_support_scaled(spec, dst, scratch, None, T::ONE, &InnerPool::serial())
    }

    /// Inverse real 2-D FFT of a half-spectrum known to be zero outside
    /// the listed stored columns, with an extra output scale fused in.
    /// **Destroys `spec`.**
    ///
    /// `support_cols` are stored-column indices (`0..=n/2`); every other
    /// stored column **must** already be zero in `spec` — its transform is
    /// skipped outright, and the skipped count feeds the
    /// `fft.rows_skipped` telemetry counter, exactly like
    /// [`crate::Fft2d::inverse_support`]. The output is
    /// `extra * ifft2(spec)` (pass `extra = 1.0` for the plain inverse);
    /// the scale costs nothing, it rides the untangle pass of the final
    /// real row transforms. `_pool` is ignored; `benchmark/` still passes
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ShapeMismatch`] if any buffer has the wrong
    /// length, or [`FftError::LengthMismatch`] if a support column index
    /// is out of range.
    pub fn inverse_support_scaled(
        &self,
        spec: &mut [Complex<T>],
        dst: &mut [T],
        scratch: &mut [Complex<T>],
        support_cols: Option<&[usize]>,
        extra: T,
        _pool: &InnerPool,
    ) -> Result<(), FftError> {
        let n = self.n;
        let hw = self.half_cols();
        self.check_spectral(spec.len())?;
        self.check_spectral(scratch.len())?;
        if dst.len() != n * n {
            return Err(FftError::ShapeMismatch {
                expected: n * n,
                actual: dst.len(),
            });
        }
        self.check_support(support_cols)?;
        ilt_telemetry::counter_add("fft.rfft_inverse", 1);
        // Column pass (stored columns are contiguous rows of `spec`).
        let plan = &self.col_plan;
        match support_cols {
            Some(cols) => {
                for &c in cols {
                    plan.transform(&mut spec[c * n..(c + 1) * n], Direction::Inverse)
                        .expect("column length matches plan by construction");
                }
            }
            None => {
                for col in spec.chunks_exact_mut(n) {
                    plan.transform(col, Direction::Inverse)
                        .expect("column length matches plan by construction");
                }
            }
        }
        let bins = self.listed_span(support_cols);
        // Transpose hw x n -> n x hw, then re-tangle each row back to
        // reals — both over the span of the listed columns only: a column
        // inside the span but off the list is zero by the caller's word
        // and is moved like the others; the bins outside the span are
        // neither written by the transpose nor read by the rows. The whole
        // 2-D normalisation (and the caller's extra scale) is fused into
        // the row re-tangle.
        transpose_into_block(spec, hw, n, scratch, bins.clone());
        let scale = T::from_f64(extra.to_f64() / (n * n) as f64);
        for (srow, drow) in scratch.chunks_exact_mut(hw).zip(dst.chunks_exact_mut(n)) {
            self.row
                .inverse_bins_scaled(srow, bins.clone(), drow, scale)
                .expect("row length matches plan by construction");
        }
        Ok(())
    }

    /// The smallest contiguous range of bins holding every listed column
    /// (all of them for `None`, empty for an empty list) — what the row
    /// passes of the support-limited transforms work on — after counting
    /// the unlisted columns on `fft.rows_skipped`.
    fn listed_span(&self, support_cols: Option<&[usize]>) -> Range<usize> {
        let hw = self.half_cols();
        let Some(cols) = support_cols else {
            return 0..hw;
        };
        ilt_telemetry::counter_add("fft.rows_skipped", (hw - cols.len().min(hw)) as u64);
        match (cols.iter().min(), cols.iter().max()) {
            (Some(&first), Some(&last)) => first..last + 1,
            _ => 0..0,
        }
    }

    fn check_support(&self, support_cols: Option<&[usize]>) -> Result<(), FftError> {
        let hw = self.half_cols();
        match support_cols.and_then(|cols| cols.iter().find(|&&c| c >= hw)) {
            Some(&bad) => Err(FftError::LengthMismatch {
                expected: hw,
                actual: bad,
            }),
            None => Ok(()),
        }
    }

    fn check_spectral(&self, len: usize) -> Result<(), FftError> {
        if len != self.spectrum_len() {
            return Err(FftError::ShapeMismatch {
                expected: self.spectrum_len(),
                actual: len,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft2_reference, dft_reference};
    use crate::fft2d::Fft2d;

    fn reals(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37 + seed).sin() + 0.25 * (i as f64 * 1.91 + seed).cos())
            .collect()
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(RfftPlan::<f64>::new(0).is_err());
        assert!(RfftPlan::<f64>::new(1).is_err());
        assert!(RfftPlan::<f64>::new(12).is_err());
        assert!(Rfft2d::<f64>::new(6).is_err());
        let plan = RfftPlan::<f64>::new(8).unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.spectrum_len(), 5);
        assert!(plan.estimated_bytes() > 0);
        let mut spec = vec![Complex::ZERO; 4];
        assert!(plan.forward(&[0.0; 8], &mut spec).is_err());
        assert!(plan.forward(&[0.0; 7], &mut [Complex::ZERO; 5]).is_err());
        let mut out = [0.0; 7];
        assert!(plan.inverse(&mut [Complex::ZERO; 5], &mut out).is_err());
    }

    #[test]
    fn forward_matches_complex_dft_over_sizes() {
        for n in [2usize, 4, 8, 16, 64, 256, 512] {
            let plan = RfftPlan::new(n).unwrap();
            for (case, x) in [
                ("impulse", {
                    let mut v = vec![0.0; n];
                    v[n / 2 - 1] = 1.0;
                    v
                }),
                ("dc", vec![1.0; n]),
                ("random", reals(n, 0.3)),
            ] {
                let data: Vec<Complex> = x.iter().map(|&r| Complex::from_re(r)).collect();
                let reference = dft_reference(&data, Direction::Forward);
                let mut spec = vec![Complex::ZERO; n / 2 + 1];
                plan.forward(&x, &mut spec).unwrap();
                for (k, z) in spec.iter().enumerate() {
                    assert!(
                        (*z - reference[k]).abs() < 1e-9 * (n as f64),
                        "{case} n={n} bin {k}: {z:?} vs {:?}",
                        reference[k]
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_is_tight() {
        for n in [2usize, 8, 32, 128, 512] {
            let plan = RfftPlan::new(n).unwrap();
            let x = reals(n, 1.7);
            let mut spec = vec![Complex::ZERO; n / 2 + 1];
            plan.forward(&x, &mut spec).unwrap();
            let mut back = vec![0.0; n];
            plan.inverse(&mut spec, &mut back).unwrap();
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn inverse_scaled_folds_the_scale() {
        let n = 16;
        let plan = RfftPlan::new(n).unwrap();
        let x = reals(n, 0.9);
        let mut spec = vec![Complex::ZERO; n / 2 + 1];
        plan.forward(&x, &mut spec).unwrap();
        let mut spec2 = spec.clone();
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        plan.inverse(&mut spec, &mut a).unwrap();
        plan.inverse_scaled(&mut spec2, &mut b, 3.0 / n as f64)
            .unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!((3.0 * u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn rfft2_matches_complex_fft2_on_stored_half() {
        for n in [4usize, 8, 32] {
            let rfft = Rfft2d::new(n).unwrap();
            let hw = rfft.half_cols();
            let x: Vec<f64> = reals(n * n, 0.11);
            let data: Vec<Complex> = x.iter().map(|&r| Complex::from_re(r)).collect();
            let reference = dft2_reference(&data, n, n, Direction::Forward);
            let mut spec = vec![Complex::ZERO; rfft.spectrum_len()];
            let mut scratch = vec![Complex::ZERO; rfft.spectrum_len()];
            rfft.forward(&x, &mut spec, &mut scratch, &InnerPool::serial())
                .unwrap();
            for c in 0..hw {
                for r in 0..n {
                    assert!(
                        (spec[c * n + r] - reference[r * n + c]).abs() < 1e-9 * (n as f64),
                        "n={n} bin ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn rfft2_roundtrip() {
        let n = 64;
        let rfft = Rfft2d::new(n).unwrap();
        let x: Vec<f64> = reals(n * n, 2.3);
        let mut spec = vec![Complex::ZERO; rfft.spectrum_len()];
        let mut scratch = vec![Complex::ZERO; rfft.spectrum_len()];
        rfft.forward(&x, &mut spec, &mut scratch, &InnerPool::serial())
            .unwrap();
        let mut back = vec![0.0; n * n];
        rfft.inverse(&mut spec, &mut back, &mut scratch).unwrap();
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The column lists the support-limited tests run: 1 entry, the crop's
    /// `P/2 + 1`, the band's `P`, every stored column, none — and two that
    /// are no prefix (a lone high column; both ends, out of order), which
    /// make the row passes work on a span wider than the list.
    fn column_lists(p: usize, hw: usize) -> Vec<Vec<usize>> {
        vec![
            vec![(p / 2).min(hw - 1)],
            (0..(p / 2 + 1).min(hw)).collect(),
            (0..p.min(hw)).collect(),
            (0..hw).collect(),
            Vec::new(),
            vec![hw - 1],
            vec![hw - 1, 0],
        ]
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn complex_bits(values: &[Complex]) -> Vec<[u64; 2]> {
        values.iter().map(|z| z.to_bits()).collect()
    }

    /// `(n, P)` of the support-limited 2-D tests: the simulator asks for
    /// columns `0..=P/2` (the crop) and `0..P` (the intensity band).
    const GRID_AND_SUPPORT: [(usize, usize); 9] = [
        (2, 1),
        (4, 2),
        (8, 3),
        (16, 5),
        (32, 9),
        (64, 23),
        (128, 23),
        (256, 27),
        (512, 54),
    ];

    const POISON: Complex = Complex::new(f64::NAN, f64::NAN);

    #[test]
    fn rfft2_sparse_support_matches_dense_inverse() {
        // A half-spectrum nonzero only on the listed stored columns: the
        // sparse entry point must agree with the dense inverse of the
        // zero-padded spectrum bit for bit — with a scratch that arrives
        // full of NaN, because a support-limited transpose overwrites only
        // part of it and the rows must not read the rest — for either sign
        // of the extra scale (the re-tangle of a zero pair follows it).
        for (n, p) in GRID_AND_SUPPORT {
            let rfft = Rfft2d::new(n).unwrap();
            let hw = rfft.half_cols();
            let len = rfft.spectrum_len();
            let serial = InnerPool::serial();
            for (cols, extra) in column_lists(p, hw).iter().zip([1.0, -0.37].iter().cycle()) {
                let mut padded = vec![Complex::ZERO; len];
                for &c in cols {
                    for (r, z) in padded[c * n..(c + 1) * n].iter_mut().enumerate() {
                        let t = (c * n + r) as f64;
                        *z = Complex::new((t * 0.37).sin(), (t * 0.11 + 0.3).cos());
                    }
                }
                let mut dense = padded.clone();
                let mut want = vec![0.0; n * n];
                let mut scratch = vec![Complex::ZERO; len];
                rfft.inverse_support_scaled(
                    &mut dense,
                    &mut want,
                    &mut scratch,
                    None,
                    *extra,
                    &serial,
                )
                .unwrap();
                assert!(want.iter().all(|v| v.is_finite()));
                let mut sparse = padded.clone();
                let mut got = vec![f64::NAN; n * n];
                let mut scratch = vec![POISON; len];
                rfft.inverse_support_scaled(
                    &mut sparse,
                    &mut got,
                    &mut scratch,
                    Some(cols),
                    *extra,
                    &serial,
                )
                .unwrap();
                assert_eq!(bits(&got), bits(&want), "n={n} columns {cols:?}");
            }
        }

        // And to tolerance against the dense complex transform of the same
        // crop: keep a full-spectrum column if its stored image is listed.
        let n = 32;
        let rfft = Rfft2d::new(n).unwrap();
        let hw = rfft.half_cols();
        let x: Vec<f64> = reals(n * n, 4.2);
        let mut spec = vec![Complex::ZERO; rfft.spectrum_len()];
        let mut scratch = vec![Complex::ZERO; rfft.spectrum_len()];
        rfft.forward(&x, &mut spec, &mut scratch, &InnerPool::serial())
            .unwrap();
        let support = [0usize, 1, 2];
        let mut cropped = vec![Complex::ZERO; rfft.spectrum_len()];
        for &c in &support {
            cropped[c * n..(c + 1) * n].copy_from_slice(&spec[c * n..(c + 1) * n]);
        }
        let mut out_sparse = vec![0.0; n * n];
        rfft.inverse_support_scaled(
            &mut cropped,
            &mut out_sparse,
            &mut scratch,
            Some(&support),
            1.0,
            &InnerPool::serial(),
        )
        .unwrap();
        let full = Fft2d::new(n, n).unwrap();
        let mut cf = vec![Complex::ZERO; n * n];
        for c in 0..n {
            let stored = if c < hw { c } else { n - c };
            if !support.contains(&stored) {
                continue;
            }
            for r in 0..n {
                cf[r * n + c] = spec_at(&spec, n, r, c);
            }
        }
        full.inverse(&mut cf).unwrap();
        for (i, z) in cf.iter().enumerate() {
            assert!((z.re - out_sparse[i]).abs() < 1e-10);
            assert!(z.im.abs() < 1e-10);
        }
    }

    /// Full-spectrum lookup through the Hermitian symmetry of the stored
    /// transposed half-spectrum.
    fn spec_at(spec: &[Complex], n: usize, r: usize, c: usize) -> Complex {
        if c <= n / 2 {
            spec[c * n + r]
        } else {
            spec[(n - c) * n + (n - r) % n].conj()
        }
    }

    #[test]
    fn forward_support_matches_dense_forward_bit_for_bit() {
        for (n, p) in GRID_AND_SUPPORT {
            let rfft = Rfft2d::new(n).unwrap();
            let hw = rfft.half_cols();
            let x = reals(n * n, 0.77);
            let mut scratch = vec![Complex::ZERO; rfft.spectrum_len()];
            let mut dense = vec![Complex::ZERO; rfft.spectrum_len()];
            rfft.forward(&x, &mut dense, &mut scratch, &InnerPool::serial())
                .unwrap();
            assert!(dense.iter().all(|z| !z.is_nan()));
            for cols in &column_lists(p, hw) {
                // Whatever the call does not compute is NaN going in — the
                // unlisted columns of `spec` and all of `scratch` — and no
                // NaN may reach a listed bin.
                let sentinel = Complex::new(f64::NAN, -7.0);
                let mut sparse = vec![sentinel; rfft.spectrum_len()];
                let mut scratch = vec![POISON; rfft.spectrum_len()];
                rfft.forward_support(&x, &mut sparse, &mut scratch, Some(cols))
                    .unwrap();
                for c in 0..hw {
                    let (got, want) = (&sparse[c * n..(c + 1) * n], &dense[c * n..(c + 1) * n]);
                    if cols.contains(&c) {
                        assert_eq!(
                            complex_bits(got),
                            complex_bits(want),
                            "n={n} column {c} of {cols:?}"
                        );
                    } else {
                        // Unlisted columns are not touched at all.
                        assert!(
                            got.iter().all(|z| z.re.is_nan() && z.im == -7.0),
                            "n={n} column {c} written"
                        );
                    }
                }
            }
        }
    }

    /// The simulator's two real 2-D entry points at its tile sizes, on
    /// every vector body the host runs: one source at two lane widths, so
    /// not a bit may differ.
    #[test]
    fn support_transforms_are_bit_identical_across_the_vector_bodies() {
        use crate::simd::Body;
        for (n, p) in [(64, 23), (128, 23), (256, 27)] {
            let x = reals(n * n, 0.41);
            let cols: Vec<usize> = (0..p).collect();
            let pool = InnerPool::serial();
            let outputs: Vec<_> = Body::supported()
                .into_iter()
                .filter(|&body| body != Body::PORTABLE)
                .map(|body| {
                    let rfft = Rfft2d::with_body(n, body);
                    // Unlisted columns stay as they are: zero on both sides.
                    let mut spec = vec![Complex::ZERO; rfft.spectrum_len()];
                    let mut scratch = vec![POISON; rfft.spectrum_len()];
                    rfft.forward_support(&x, &mut spec, &mut scratch, Some(&cols))
                        .unwrap();
                    let forward = complex_bits(&spec);
                    let mut back = vec![0.0; n * n];
                    rfft.inverse_support_scaled(
                        &mut spec,
                        &mut back,
                        &mut scratch,
                        Some(&cols),
                        0.75,
                        &pool,
                    )
                    .unwrap();
                    (forward, bits(&back))
                })
                .collect();
            for pair in outputs.windows(2) {
                assert!(pair[0] == pair[1], "n={n}");
            }
        }
        println!(
            "{}",
            crate::simd::tests::covered("Rfft2d support transforms")
        );
    }

    /// The same at `f32`, the simulation's own precision.
    #[test]
    fn f32_support_transforms_are_bit_identical_across_the_vector_bodies() {
        use crate::simd::Body;
        for (n, p) in [(64, 23), (128, 23), (256, 27), (512, 54)] {
            let x: Vec<f32> = reals(n * n, 0.41).iter().map(|&v| v as f32).collect();
            let cols: Vec<usize> = (0..p).collect();
            let pool = InnerPool::serial();
            let outputs: Vec<_> = Body::supported()
                .into_iter()
                .filter(|&body| body != Body::PORTABLE)
                .map(|body| {
                    let rfft = Rfft2d::<f32>::with_body(n, body);
                    let poison = Complex::new(f32::NAN, f32::NAN);
                    let mut spec = vec![Complex::ZERO; rfft.spectrum_len()];
                    let mut scratch = vec![poison; rfft.spectrum_len()];
                    rfft.forward_support(&x, &mut spec, &mut scratch, Some(&cols))
                        .unwrap();
                    let forward: Vec<[u64; 2]> = spec.iter().map(|z| z.to_bits()).collect();
                    let mut back = vec![0.0f32; n * n];
                    rfft.inverse_support_scaled(
                        &mut spec,
                        &mut back,
                        &mut scratch,
                        Some(&cols),
                        0.75,
                        &pool,
                    )
                    .unwrap();
                    let back: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
                    (forward, back)
                })
                .collect();
            for pair in outputs.windows(2) {
                assert!(pair[0] == pair[1], "n={n}");
            }
        }
        println!(
            "{}",
            crate::simd::tests::covered("f32 Rfft2d support transforms")
        );
    }

    #[test]
    fn every_bin_range_matches_the_dense_row_transforms() {
        // The support-limited untangle / re-tangle over every contiguous
        // range of bins (empty ones too), at lengths small enough to try
        // them all: ranges on either side of the self-paired middle bin,
        // across it, with and without the DC / Nyquist pair.
        for n in [2usize, 4, 8, 16, 32, 64] {
            let plan = RfftPlan::new(n).unwrap();
            let hw = plan.spectrum_len();
            let x = reals(n, 0.41);
            let mut dense = vec![Complex::ZERO; hw];
            plan.forward(&x, &mut dense).unwrap();
            for lo in 0..=hw {
                for hi in lo..=hw {
                    let mut got = vec![POISON; hw];
                    plan.forward_bins(&x, &mut got, lo..hi).unwrap();
                    assert_eq!(
                        complex_bits(&got[lo..hi]),
                        complex_bits(&dense[lo..hi]),
                        "forward n={n} bins {lo}..{hi}"
                    );

                    for scale in [1.0 / n as f64, -0.75] {
                        let mut padded = vec![Complex::ZERO; hw];
                        padded[lo..hi].copy_from_slice(&dense[lo..hi]);
                        let mut want = vec![0.0; n];
                        plan.inverse_scaled(&mut padded, &mut want, scale).unwrap();
                        // Outside the range the spectrum is not read.
                        let mut sparse = vec![POISON; hw];
                        sparse[lo..hi].copy_from_slice(&dense[lo..hi]);
                        let mut got = vec![f64::NAN; n];
                        plan.inverse_bins_scaled(&mut sparse, lo..hi, &mut got, scale)
                            .unwrap();
                        assert_eq!(bits(&got), bits(&want), "inverse n={n} bins {lo}..{hi}");
                    }
                }
            }
            let mut out = vec![Complex::ZERO; hw];
            assert!(plan.forward_bins(&x, &mut out, 0..hw + 1).is_err());
            let mut back = vec![0.0; n];
            assert!(plan
                .inverse_bins_scaled(&mut out, 1..hw + 1, &mut back, 1.0)
                .is_err());
        }
    }

    #[test]
    fn forward_support_reports_bad_input_as_typed_errors() {
        let n = 8;
        let rfft = Rfft2d::new(n).unwrap();
        let x = vec![0.0; n * n];
        let mut spec = vec![Complex::ZERO; rfft.spectrum_len()];
        let mut scratch = vec![Complex::ZERO; rfft.spectrum_len()];
        assert_eq!(
            rfft.forward_support(&x, &mut spec, &mut scratch, Some(&[0, 5])),
            Err(FftError::LengthMismatch {
                expected: 5,
                actual: 5
            })
        );
        assert!(matches!(
            rfft.forward_support(&x[1..], &mut spec, &mut scratch, Some(&[0])),
            Err(FftError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            rfft.forward_support(&x, &mut spec[1..], &mut scratch, Some(&[0])),
            Err(FftError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            rfft.forward_support(&x, &mut spec, &mut scratch[1..], None),
            Err(FftError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rfft2_support_rejects_out_of_range_columns() {
        let n = 8;
        let rfft = Rfft2d::new(n).unwrap();
        let mut spec = vec![Complex::ZERO; rfft.spectrum_len()];
        let mut scratch = vec![Complex::ZERO; rfft.spectrum_len()];
        let mut out = vec![0.0; n * n];
        assert!(matches!(
            rfft.inverse_support_scaled(
                &mut spec,
                &mut out,
                &mut scratch,
                Some(&[5]),
                1.0,
                &InnerPool::serial()
            ),
            Err(FftError::LengthMismatch { .. })
        ));
    }
}
