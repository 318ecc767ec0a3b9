//! Two-dimensional FFT built from row/column 1-D transforms.
//!
//! Lithography simulation spends nearly all of its time in 2-D transforms of
//! the mask and of per-kernel products, so [`Fft2d`] keeps both 1-D plans
//! alive across calls. The column pass runs as blocked transpose → row pass
//! → transpose back (cache-friendly contiguous transforms instead of a
//! strided gather/scatter), with the inverse `1/(rows*cols)` normalisation
//! fused into the final transpose. Square transforms — the only shape on
//! the litho hot path — transpose in place and perform **no** heap
//! allocation.
//!
//! For the per-kernel inverse of Eq. (2) the spectrum is zero outside a
//! small `P x P` support, so [`Fft2d::inverse_support`] skips the
//! `rows - P` all-zero first-pass transforms entirely; the skipped work is
//! counted on the `fft.rows_skipped` telemetry counter.

use std::ops::Range;
use std::sync::Arc;

use ilt_par::InnerPool;

use crate::cache::shared_plan;
use crate::complex::{Complex, Float};
use crate::error::FftError;
use crate::plan::{Direction, FftPlan};
use crate::simd;

/// Edge length of the blocked-transpose tiles. From 256 up a row is a
/// multiple of 4 KiB long, so the rows of one tile all map to the same L1
/// sets: eight of them fit the 8 or 12 ways of current L1 data caches and
/// every line fetched is used whole before it is evicted, where 16 or 32
/// (what a first-use timing loop used to choose between) fetch each line
/// four times. In-place transposes at 256^2 run 3x (plain) and 4.5x
/// (scaled) faster than at 32, and no slower at any size from 64 to 1024
/// (EXPERIMENTS.md "Paired kernels").
pub(crate) const TRANSPOSE_BLOCK: usize = 8;

/// A reusable 2-D FFT for row-major `rows x cols` buffers of element type
/// `T` (`f64` unless named otherwise).
///
/// Both dimensions must be powers of two. The transform is separable: each
/// row is transformed, then each column (via transposes). The plan holds no
/// per-call state, so one `Fft2d` can be shared freely across threads
/// (`Fft2d: Sync`), e.g. by the tile executor's workers.
///
/// # Examples
///
/// ```
/// use ilt_fft::{Complex, Fft2d};
///
/// # fn main() -> Result<(), ilt_fft::FftError> {
/// let fft = Fft2d::<f64>::new(4, 4)?;
/// let mut img = vec![Complex::ZERO; 16];
/// img[0] = Complex::ONE; // impulse at the origin
/// fft.forward(&mut img)?;
/// assert!(img.iter().all(|z| (*z - Complex::ONE).abs() < 1e-12));
/// fft.inverse(&mut img)?;
/// assert!((img[0] - Complex::ONE).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fft2d<T = f64> {
    rows: usize,
    cols: usize,
    /// 1-D plans come from the process-wide [`crate::cache`], so every
    /// `Fft2d` of a given shape and element type shares one set of twiddle
    /// tables.
    row_plan: Arc<FftPlan<T>>,
    col_plan: Arc<FftPlan<T>>,
}

impl<T: Float> Fft2d<T> {
    /// Creates a 2-D plan for `rows x cols` buffers.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NonPowerOfTwo`] if either dimension is not a
    /// nonzero power of two.
    pub fn new(rows: usize, cols: usize) -> Result<Self, FftError> {
        Ok(Fft2d {
            rows,
            cols,
            row_plan: shared_plan(cols)?,
            col_plan: shared_plan(rows)?,
        })
    }

    /// A square [`Fft2d::new`] over a private plan on a body chosen by hand.
    #[cfg(test)]
    fn with_body(n: usize, body: crate::simd::Body) -> Self {
        let plan = Arc::new(FftPlan::with_body(n, body).expect("power of two"));
        Fft2d {
            rows: n,
            cols: n,
            row_plan: Arc::clone(&plan),
            col_plan: plan,
        }
    }

    /// Number of rows this plan transforms.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns this plan transforms.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Returns `true` if the planned shape is empty (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place forward 2-D FFT.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn forward(&self, data: &mut [Complex<T>]) -> Result<(), FftError> {
        ilt_telemetry::counter_add("fft.forward", 1);
        self.transform_normalised(data, Direction::Forward, None)
    }

    /// In-place inverse 2-D FFT with `1/(rows*cols)` normalisation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn inverse(&self, data: &mut [Complex<T>]) -> Result<(), FftError> {
        ilt_telemetry::counter_add("fft.inverse", 1);
        self.transform_normalised(data, Direction::Inverse, None)
    }

    /// In-place inverse of a spectrum known to be zero outside the listed
    /// rows.
    ///
    /// `support_rows` are the (unshifted) indices of the rows that may hold
    /// nonzero bins; every other row **must** already be zero in `data` —
    /// the first transform pass simply skips them (the FFT of a zero row is
    /// the zero row). For the paper's per-kernel inverse, where only a
    /// centered `P x P` support survives the crop-multiply, this removes
    /// `rows - P` of the `rows` first-pass transforms. The skipped count
    /// feeds the `fft.rows_skipped` telemetry counter.
    ///
    /// The `1/(rows*cols)` normalisation is applied exactly as in
    /// [`Fft2d::inverse`], so the output is bit-identical to a dense
    /// inverse of the same (zero-padded) spectrum.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ShapeMismatch`] if `data.len() != rows * cols`,
    /// or [`FftError::LengthMismatch`] if a support row index is out of
    /// range.
    pub fn inverse_support(
        &self,
        data: &mut [Complex<T>],
        support_rows: &[usize],
    ) -> Result<(), FftError> {
        if let Some(&bad) = support_rows.iter().find(|&&r| r >= self.rows) {
            return Err(FftError::LengthMismatch {
                expected: self.rows,
                actual: bad,
            });
        }
        ilt_telemetry::counter_add("fft.inverse", 1);
        ilt_telemetry::counter_add(
            "fft.rows_skipped",
            (self.rows - support_rows.len().min(self.rows)) as u64,
        );
        self.transform_normalised(data, Direction::Inverse, Some(support_rows))
    }

    /// The shared implementation: first-pass row transforms (optionally
    /// restricted to a sparse support), transpose, second-pass row
    /// transforms over the former columns, transpose back. For
    /// [`Direction::Inverse`] the `1/(rows*cols)` scale is fused into the
    /// final transpose, saving one full sweep over the buffer.
    fn transform_normalised(
        &self,
        data: &mut [Complex<T>],
        dir: Direction,
        support_rows: Option<&[usize]>,
    ) -> Result<(), FftError> {
        if data.len() != self.len() {
            return Err(FftError::ShapeMismatch {
                expected: self.len(),
                actual: data.len(),
            });
        }
        let scale = match dir {
            Direction::Forward => None,
            Direction::Inverse => Some(T::from_f64(1.0 / self.len() as f64)),
        };
        // First pass: transform the rows (only the support rows when the
        // caller vouches the rest are zero).
        match support_rows {
            Some(rows) => {
                for &r in rows {
                    self.row_plan
                        .transform(&mut data[r * self.cols..(r + 1) * self.cols], dir)
                        .expect("row length matches plan by construction");
                }
            }
            None => {
                for row in data.chunks_exact_mut(self.cols) {
                    self.row_plan
                        .transform(row, dir)
                        .expect("row length matches plan by construction");
                }
            }
        }
        if self.rows == self.cols {
            // Square: transpose in place, no scratch at all.
            let body = self.col_plan.body();
            simd::transpose_square(data, self.rows, None, body);
            for row in data.chunks_exact_mut(self.rows) {
                self.col_plan
                    .transform(row, dir)
                    .expect("column length matches plan by construction");
            }
            simd::transpose_square(data, self.rows, scale, body);
        } else {
            // Rectangular (test/diagnostic shapes only — the litho hot path
            // is square): transpose through a temporary.
            let mut t = vec![Complex::ZERO; data.len()];
            transpose_into_block(data, self.rows, self.cols, &mut t, 0..self.rows);
            for row in t.chunks_exact_mut(self.rows) {
                self.col_plan
                    .transform(row, dir)
                    .expect("column length matches plan by construction");
            }
            transpose_into_block(&t, self.cols, self.rows, data, 0..self.cols);
            if let Some(s) = scale {
                for z in data.iter_mut() {
                    *z = z.scale(s);
                }
            }
        }
        Ok(())
    }

    /// Forward 2-D FFT of a **square** buffer where only the listed output
    /// columns will be read, leaving the result *transposed*.
    ///
    /// The full row pass runs as usual, then only the `support_cols` column
    /// transforms run and the final transpose-back is skipped entirely: on
    /// return, spectrum bin `(r, c)` sits at `data[c * n + r]` for every
    /// `c` in `support_cols`, and every other position is unspecified. For
    /// the paper's per-kernel gradient forward, where only the centered
    /// `P x P` support is sampled afterwards, this removes `n - P` of the
    /// `n` column transforms *and* one full transpose sweep. The skipped
    /// count feeds the `fft.rows_skipped` telemetry counter. `_pool` is
    /// ignored; `benchmark/` still passes it.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::ShapeMismatch`] if the plan is not square or
    /// `data.len() != rows * cols`, or [`FftError::LengthMismatch`] if a
    /// support column index is out of range.
    pub fn forward_support_transposed(
        &self,
        data: &mut [Complex<T>],
        support_cols: &[usize],
        _pool: &InnerPool,
    ) -> Result<(), FftError> {
        if self.rows != self.cols || data.len() != self.len() {
            return Err(FftError::ShapeMismatch {
                expected: self.len(),
                actual: data.len(),
            });
        }
        if let Some(&bad) = support_cols.iter().find(|&&c| c >= self.cols) {
            return Err(FftError::LengthMismatch {
                expected: self.cols,
                actual: bad,
            });
        }
        ilt_telemetry::counter_add("fft.forward", 1);
        ilt_telemetry::counter_add(
            "fft.rows_skipped",
            (self.cols - support_cols.len().min(self.cols)) as u64,
        );
        let n = self.rows;
        for row in data.chunks_exact_mut(n) {
            self.row_plan
                .transform(row, Direction::Forward)
                .expect("row length matches plan by construction");
        }
        simd::transpose_square(data, n, None, self.col_plan.body());
        for &c in support_cols {
            self.col_plan
                .transform(&mut data[c * n..(c + 1) * n], Direction::Forward)
                .expect("column length matches plan by construction");
        }
        Ok(())
    }
}

/// Blocked out-of-place transpose of the rows `span` of `src`: `src` is
/// `rows x cols`, `dst` is `cols x rows`, and `dst[j * rows + i]` becomes
/// `src[i * cols + j]` for every `i` in `span`. The other columns of `dst`
/// are left as they were.
pub(crate) fn transpose_into_block<T: Float>(
    src: &[Complex<T>],
    rows: usize,
    cols: usize,
    dst: &mut [Complex<T>],
    span: Range<usize>,
) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    assert!(span.end <= rows);
    let block = TRANSPOSE_BLOCK;
    for bi in span.clone().step_by(block) {
        for bj in (0..cols).step_by(block) {
            for i in bi..(bi + block).min(span.end) {
                for j in bj..(bj + block).min(cols) {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft2_reference;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn ramp(rows: usize, cols: usize) -> Vec<Complex> {
        (0..rows * cols)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), (i as f64 * 0.41).cos()))
            .collect()
    }

    #[test]
    fn plan_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Fft2d>();
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Fft2d::<f64>::new(3, 4).is_err());
        assert!(Fft2d::<f64>::new(4, 0).is_err());
        let fft = Fft2d::<f64>::new(4, 4).unwrap();
        let mut short = vec![Complex::ZERO; 8];
        assert!(matches!(
            fft.forward(&mut short),
            Err(FftError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn accessors() {
        let fft = Fft2d::<f64>::new(8, 4).unwrap();
        assert_eq!(fft.rows(), 8);
        assert_eq!(fft.cols(), 4);
        assert_eq!(fft.len(), 32);
        assert!(!fft.is_empty());
    }

    #[test]
    fn matches_reference_on_rectangular_input() {
        let (rows, cols) = (4, 8);
        let data = ramp(rows, cols);
        let reference = dft2_reference(&data, rows, cols, Direction::Forward);
        let fft = Fft2d::new(rows, cols).unwrap();
        let mut fast = data;
        fft.forward(&mut fast).unwrap();
        assert!(max_err(&fast, &reference) < 1e-9);
    }

    #[test]
    fn roundtrip_identity() {
        let (rows, cols) = (16, 16);
        let data = ramp(rows, cols);
        let fft = Fft2d::new(rows, cols).unwrap();
        let mut working = data.clone();
        fft.forward(&mut working).unwrap();
        fft.inverse(&mut working).unwrap();
        assert!(max_err(&working, &data) < 1e-10);
    }

    #[test]
    fn rectangular_roundtrip_identity() {
        let (rows, cols) = (8, 32);
        let data = ramp(rows, cols);
        let fft = Fft2d::new(rows, cols).unwrap();
        let mut working = data.clone();
        fft.forward(&mut working).unwrap();
        fft.inverse(&mut working).unwrap();
        assert!(max_err(&working, &data) < 1e-10);
    }

    #[test]
    fn parseval_2d() {
        let (rows, cols) = (8, 8);
        let data = ramp(rows, cols);
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let fft = Fft2d::new(rows, cols).unwrap();
        let mut freq = data;
        fft.forward(&mut freq).unwrap();
        let freq_energy: f64 =
            freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / (rows * cols) as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn separable_rows_then_cols_equals_cols_then_rows() {
        // The 2-D DFT is separable, so transforming a shifted impulse must
        // produce the tensor product of two 1-D linear phases.
        let (rows, cols) = (8, 4);
        let fft = Fft2d::new(rows, cols).unwrap();
        let mut data = vec![Complex::ZERO; rows * cols];
        data[cols + 2] = Complex::ONE;
        fft.forward(&mut data).unwrap();
        for ky in 0..rows {
            for kx in 0..cols {
                let theta = -2.0
                    * std::f64::consts::PI
                    * (ky as f64 * 1.0 / rows as f64 + kx as f64 * 2.0 / cols as f64);
                let expect = Complex::from_polar(1.0, theta);
                assert!((data[ky * cols + kx] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn convolution_theorem_small_case() {
        // Circular convolution of two images equals the inverse FFT of the
        // product of their spectra — the identity Eq. (2) of the paper uses.
        let (rows, cols) = (4, 4);
        let a = ramp(rows, cols);
        let b: Vec<Complex> = (0..rows * cols)
            .map(|i| Complex::from_re(((i * 7) % 5) as f64))
            .collect();
        // Direct circular convolution.
        let mut direct = vec![Complex::ZERO; rows * cols];
        for y in 0..rows {
            for x in 0..cols {
                let mut acc = Complex::ZERO;
                for v in 0..rows {
                    for u in 0..cols {
                        let yy = (y + rows - v) % rows;
                        let xx = (x + cols - u) % cols;
                        acc = acc.mul_add(a[v * cols + u], b[yy * cols + xx]);
                    }
                }
                direct[y * cols + x] = acc;
            }
        }
        // Frequency-domain product.
        let fft = Fft2d::new(rows, cols).unwrap();
        let mut fa = a;
        let mut fb = b;
        fft.forward(&mut fa).unwrap();
        fft.forward(&mut fb).unwrap();
        let mut prod: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
        fft.inverse(&mut prod).unwrap();
        assert!(max_err(&prod, &direct) < 1e-9);
    }

    #[test]
    fn sparse_support_matches_dense_inverse() {
        // A spectrum nonzero only on a few wrapped rows: the sparse entry
        // point must agree with the dense inverse bit for bit.
        let n = 32;
        let support = [30usize, 31, 0, 1, 2]; // wrapped centered support
        let fft = Fft2d::new(n, n).unwrap();
        let mut dense = vec![Complex::ZERO; n * n];
        for &r in &support {
            for c in 0..n {
                dense[r * n + c] = Complex::new((r as f64 * 0.31 + c as f64).sin(), c as f64 * 0.1);
            }
        }
        let mut sparse = dense.clone();
        fft.inverse(&mut dense).unwrap();
        fft.inverse_support(&mut sparse, &support).unwrap();
        assert_eq!(dense, sparse);
    }

    #[test]
    fn sparse_support_rejects_out_of_range_rows() {
        let fft = Fft2d::<f64>::new(8, 8).unwrap();
        let mut data = vec![Complex::ZERO; 64];
        assert!(matches!(
            fft.inverse_support(&mut data, &[8]),
            Err(FftError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn transpose_square_roundtrip() {
        use crate::simd::Body;
        // Below, at, just over and at multiples of the tile edge, on every
        // body (a vector body takes the multiples of the block).
        for body in Body::supported() {
            for n in [1usize, 2, 7, 8, 9, 16, 31, 32, 33, 64] {
                let data: Vec<Complex> = (0..n * n).map(|i| Complex::from_re(i as f64)).collect();
                let mut t = data.clone();
                simd::transpose_square(&mut t, n, None, body);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(t[j * n + i], data[i * n + j], "{body:?} n={n}");
                    }
                }
                simd::transpose_square(&mut t, n, None, body);
                assert_eq!(t, data);
            }
        }
    }

    #[test]
    fn transpose_scaled_scales_every_element_once() {
        use crate::simd::Body;
        for body in Body::supported() {
            // 33 exercises partial blocks and the diagonal; 32 the vector
            // bodies.
            for n in [32, 33] {
                let data: Vec<Complex> = (0..n * n)
                    .map(|i| Complex::new(i as f64 + 1.0, -(i as f64)))
                    .collect();
                let mut t = data.clone();
                simd::transpose_square(&mut t, n, Some(0.5), body);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(t[j * n + i], data[i * n + j].scale(0.5), "{body:?} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn forward_support_matches_dense_forward_on_kept_columns() {
        let n = 32;
        let support = [30usize, 31, 0, 1, 2]; // wrapped centered support
        let fft = Fft2d::new(n, n).unwrap();
        let data = ramp(n, n);
        let mut dense = data.clone();
        fft.forward(&mut dense).unwrap();
        let mut sparse = data.clone();
        fft.forward_support_transposed(&mut sparse, &support, &InnerPool::serial())
            .unwrap();
        for &c in &support {
            for r in 0..n {
                assert_eq!(sparse[c * n + r], dense[r * n + c], "bin ({r},{c})");
            }
        }
    }

    /// The simulator's two complex 2-D entry points at its kernel-grid
    /// sizes, on every vector body the host runs: one source at two lane
    /// widths, so not a bit may differ (positions either call leaves
    /// unspecified excluded).
    #[test]
    fn support_transforms_are_bit_identical_across_the_vector_bodies() {
        use crate::simd::Body;
        let bits = |v: &[Complex]| -> Vec<[u64; 2]> { v.iter().map(|z| z.to_bits()).collect() };
        for n in [64usize, 128, 256] {
            // A wrapped centred support of 27 rows / columns.
            let support: Vec<usize> = (n - 13..n).chain(0..14).collect();
            let mut sparse = vec![Complex::ZERO; n * n];
            for &r in &support {
                sparse[r * n..(r + 1) * n].copy_from_slice(&ramp(1, n));
            }
            let dense = ramp(n, n);
            let outputs: Vec<_> = Body::supported()
                .into_iter()
                .filter(|&body| body != Body::PORTABLE)
                .map(|body| {
                    let fft = Fft2d::with_body(n, body);
                    let mut inverse = sparse.clone();
                    fft.inverse_support(&mut inverse, &support).unwrap();
                    let mut forward = dense.clone();
                    fft.forward_support_transposed(&mut forward, &support, &InnerPool::serial())
                        .unwrap();
                    let kept: Vec<Complex> = support
                        .iter()
                        .flat_map(|&c| forward[c * n..(c + 1) * n].to_vec())
                        .collect();
                    (bits(&inverse), bits(&kept))
                })
                .collect();
            for pair in outputs.windows(2) {
                assert!(pair[0] == pair[1], "n={n}");
            }
        }
        println!(
            "{}",
            crate::simd::tests::covered("Fft2d support transforms")
        );
    }

    /// The same at `f32`: the simulation's own transforms, bit-identical
    /// across the vector bodies.
    #[test]
    fn f32_support_transforms_are_bit_identical_across_the_vector_bodies() {
        use crate::simd::Body;
        let narrow =
            |v: Vec<Complex>| -> Vec<Complex<f32>> { v.iter().map(|z| z.cast()).collect() };
        let bits =
            |v: &[Complex<f32>]| -> Vec<[u64; 2]> { v.iter().map(|z| z.to_bits()).collect() };
        for n in [64usize, 128, 256] {
            let support: Vec<usize> = (n - 13..n).chain(0..14).collect();
            let mut sparse = vec![Complex::<f32>::ZERO; n * n];
            for &r in &support {
                sparse[r * n..(r + 1) * n].copy_from_slice(&narrow(ramp(1, n)));
            }
            let dense = narrow(ramp(n, n));
            let outputs: Vec<_> = Body::supported()
                .into_iter()
                .filter(|&body| body != Body::PORTABLE)
                .map(|body| {
                    let fft = Fft2d::<f32>::with_body(n, body);
                    let mut inverse = sparse.clone();
                    fft.inverse_support(&mut inverse, &support).unwrap();
                    let mut forward = dense.clone();
                    fft.forward_support_transposed(&mut forward, &support, &InnerPool::serial())
                        .unwrap();
                    let kept: Vec<Complex<f32>> = support
                        .iter()
                        .flat_map(|&c| forward[c * n..(c + 1) * n].to_vec())
                        .collect();
                    (bits(&inverse), bits(&kept))
                })
                .collect();
            for pair in outputs.windows(2) {
                assert!(pair[0] == pair[1], "n={n}");
            }
        }
        println!(
            "{}",
            crate::simd::tests::covered("f32 Fft2d support transforms")
        );
    }

    #[test]
    fn forward_support_rejects_bad_inputs() {
        let fft = Fft2d::<f64>::new(8, 8).unwrap();
        let mut data = vec![Complex::ZERO; 64];
        assert!(matches!(
            fft.forward_support_transposed(&mut data, &[8], &InnerPool::serial()),
            Err(FftError::LengthMismatch { .. })
        ));
        let rect = Fft2d::<f64>::new(8, 4).unwrap();
        let mut rdata = vec![Complex::ZERO; 32];
        assert!(matches!(
            rect.forward_support_transposed(&mut rdata, &[0], &InnerPool::serial()),
            Err(FftError::ShapeMismatch { .. })
        ));
    }
}
