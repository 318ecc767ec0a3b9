//! Spectral bookkeeping: centered/unshifted layout conversion, low-frequency
//! crops and embeds, and frequency-domain resampling.
//!
//! The paper's simulation equations mix three spectrum layouts:
//!
//! * **unshifted** — the natural FFT output, DC in the corner `(0, 0)`;
//! * **centered** — DC at `(n/2, n/2)` (what `fftshift` produces), the layout
//!   in which optical kernels are tabulated;
//! * **low-frequency crops** `[.]_P` — the centered `P x P` block around DC,
//!   which is all the projection optics transmits.
//!
//! These helpers convert between them and implement the fractional-index
//! kernel evaluation `H_i(j/s, k/s)` from Eq. (3)/(9) as a bilinear
//! interpolation on the centered grid.

use crate::complex::{Complex, Float};
use crate::error::FftError;

/// Maps a signed frequency index `k` (`-n/2 <= k < n/2`) to the unshifted
/// FFT bin in `0..n`.
///
/// # Examples
///
/// ```
/// use ilt_fft::spectral::wrap_index;
///
/// assert_eq!(wrap_index(0, 8), 0);
/// assert_eq!(wrap_index(3, 8), 3);
/// assert_eq!(wrap_index(-1, 8), 7);
/// assert_eq!(wrap_index(-4, 8), 4);
/// ```
#[inline]
pub fn wrap_index(k: i64, n: usize) -> usize {
    let n = n as i64;
    (((k % n) + n) % n) as usize
}

/// Signed frequency index of unshifted bin `i` in an `n`-point spectrum
/// (`0..n/2` stay positive, the upper half maps to negative frequencies).
///
/// ```
/// use ilt_fft::spectral::signed_index;
///
/// assert_eq!(signed_index(0, 8), 0);
/// assert_eq!(signed_index(3, 8), 3);
/// assert_eq!(signed_index(4, 8), -4);
/// assert_eq!(signed_index(7, 8), -1);
/// ```
#[inline]
pub fn signed_index(i: usize, n: usize) -> i64 {
    if i < n.div_ceil(2) {
        i as i64
    } else {
        i as i64 - n as i64
    }
}

/// Extracts the centered low-frequency `p x p` block `[.]_p` from an
/// unshifted `n x n` spectrum. The output is **centered** (DC at `p/2, p/2`).
///
/// # Errors
///
/// Returns [`FftError::InvalidCrop`] if `p > n` or `p == 0`.
pub fn crop_lowfreq(spectrum: &[Complex], n: usize, p: usize) -> Result<Vec<Complex>, FftError> {
    if p > n || p == 0 {
        return Err(FftError::InvalidCrop { from: n, to: p });
    }
    if spectrum.len() != n * n {
        return Err(FftError::ShapeMismatch {
            expected: n * n,
            actual: spectrum.len(),
        });
    }
    let half = p as i64 / 2;
    let mut out = vec![Complex::ZERO; p * p];
    for r in 0..p {
        let fr = r as i64 - half;
        let sr = wrap_index(fr, n);
        for c in 0..p {
            let fc = c as i64 - half;
            let sc = wrap_index(fc, n);
            out[r * p + c] = spectrum[sr * n + sc];
        }
    }
    Ok(out)
}

/// Embeds a **centered** `p x p` low-frequency block into an unshifted
/// `n x n` spectrum of zeros (the adjoint of [`crop_lowfreq`]).
///
/// # Errors
///
/// Returns [`FftError::InvalidCrop`] if `p > n` or `p == 0`.
pub fn embed_lowfreq(block: &[Complex], p: usize, n: usize) -> Result<Vec<Complex>, FftError> {
    if p > n || p == 0 {
        return Err(FftError::InvalidCrop { from: p, to: n });
    }
    if block.len() != p * p {
        return Err(FftError::ShapeMismatch {
            expected: p * p,
            actual: block.len(),
        });
    }
    let half = p as i64 / 2;
    let mut out = vec![Complex::ZERO; n * n];
    for r in 0..p {
        let fr = r as i64 - half;
        let sr = wrap_index(fr, n);
        for c in 0..p {
            let fc = c as i64 - half;
            let sc = wrap_index(fc, n);
            out[sr * n + sc] = block[r * p + c];
        }
    }
    Ok(out)
}

/// Copies the low-frequency band `|k| <= band` (both axes) of one real
/// transform's half-spectrum into another of a different grid size, without
/// allocating. Both buffers use the transposed [`crate::Rfft2d`] layout
/// (`(n/2 + 1) * n`, stored column `c` at `[c*n .. (c+1)*n]`).
///
/// Stored columns `0..=band` of `dst` are overwritten — the band rows with
/// the copy, every other row with zero; columns beyond `band` are left
/// untouched, so a caller that keeps them zero holds the zero-padded
/// (`n_dst > n_src`) or low-passed (`n_dst < n_src`) spectrum of the same
/// signed frequencies. Values are copied unscaled: the unnormalised
/// forward DFTs of one band-limited image sampled on the two grids differ
/// by `n_dst^2 / n_src^2`, which the caller folds into its inverse.
///
/// # Errors
///
/// Returns [`FftError::InvalidCrop`] unless `2 * band + 1` fits both grids
/// (the band then stays clear of either Nyquist bin), or
/// [`FftError::ShapeMismatch`] if a buffer is not a half-spectrum of its
/// grid size.
pub fn copy_half_band<T: Float>(
    src: &[Complex<T>],
    n_src: usize,
    dst: &mut [Complex<T>],
    n_dst: usize,
    band: usize,
) -> Result<(), FftError> {
    let width = 2 * band + 1;
    if width > n_src || width > n_dst {
        return Err(FftError::InvalidCrop {
            from: n_src,
            to: n_dst,
        });
    }
    for (buf_len, n) in [(src.len(), n_src), (dst.len(), n_dst)] {
        if buf_len != (n / 2 + 1) * n {
            return Err(FftError::ShapeMismatch {
                expected: (n / 2 + 1) * n,
                actual: buf_len,
            });
        }
    }
    for c in 0..=band {
        let s = &src[c * n_src..(c + 1) * n_src];
        let d = &mut dst[c * n_dst..(c + 1) * n_dst];
        // Rows 0..=band hold the non-negative frequencies, the last `band`
        // rows the negative ones — contiguous runs on either grid.
        d[..=band].copy_from_slice(&s[..=band]);
        d[band + 1..n_dst - band].fill(Complex::ZERO);
        d[n_dst - band..].copy_from_slice(&s[n_src - band..]);
    }
    Ok(())
}

/// Evaluates a centered `p x p` spectrum at the fractional indices
/// `(j/s, k/s)` required by Eq. (3)/(9) of the paper, producing a centered
/// `(s*p) x (s*p)` spectrum over the same physical frequency support.
///
/// Values sampled outside the original support are zero (the projection
/// pupil transmits nothing there). `s` must be at least 1.
///
/// # Errors
///
/// Returns [`FftError::ShapeMismatch`] if `block.len() != p * p`.
///
/// # Panics
///
/// Panics if `s == 0`.
pub fn upsample_centered(block: &[Complex], p: usize, s: usize) -> Result<Vec<Complex>, FftError> {
    assert!(s >= 1, "upsampling factor must be at least 1");
    if block.len() != p * p {
        return Err(FftError::ShapeMismatch {
            expected: p * p,
            actual: block.len(),
        });
    }
    if s == 1 {
        return Ok(block.to_vec());
    }
    let q = p * s;
    let src_center = (p / 2) as f64;
    let dst_center = (q / 2) as f64;
    let mut out = vec![Complex::ZERO; q * q];
    for r in 0..q {
        // Fractional source coordinate on the centered p-grid.
        let fr = (r as f64 - dst_center) / s as f64 + src_center;
        for c in 0..q {
            let fc = (c as f64 - dst_center) / s as f64 + src_center;
            out[r * q + c] = bilinear(block, p, fr, fc);
        }
    }
    Ok(out)
}

/// Bilinear interpolation of a centered `p x p` complex grid at fractional
/// coordinates; zero outside the grid.
fn bilinear(block: &[Complex], p: usize, r: f64, c: f64) -> Complex {
    if r < 0.0 || c < 0.0 || r > (p - 1) as f64 || c > (p - 1) as f64 {
        return Complex::ZERO;
    }
    let r0 = r.floor() as usize;
    let c0 = c.floor() as usize;
    let r1 = (r0 + 1).min(p - 1);
    let c1 = (c0 + 1).min(p - 1);
    let dr = r - r0 as f64;
    let dc = c - c0 as f64;
    let f00 = block[r0 * p + c0];
    let f01 = block[r0 * p + c1];
    let f10 = block[r1 * p + c0];
    let f11 = block[r1 * p + c1];
    f00.scale((1.0 - dr) * (1.0 - dc))
        + f01.scale((1.0 - dr) * dc)
        + f10.scale(dr * (1.0 - dc))
        + f11.scale(dr * dc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft2d::Fft2d;

    #[test]
    fn wrap_and_signed_are_inverse() {
        for n in [4usize, 5, 8, 9] {
            for i in 0..n {
                assert_eq!(wrap_index(signed_index(i, n), n), i, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn crop_then_embed_preserves_low_frequencies() {
        let n = 8;
        let p = 4;
        let spectrum: Vec<Complex> = (0..n * n)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let block = crop_lowfreq(&spectrum, n, p).unwrap();
        let embedded = embed_lowfreq(&block, p, n).unwrap();
        // Every in-band bin survives, every out-of-band bin is zero.
        for r in 0..n {
            for c in 0..n {
                let fr = signed_index(r, n);
                let fc = signed_index(c, n);
                let in_band = fr >= -(p as i64) / 2
                    && fr < p as i64 / 2
                    && fc >= -(p as i64) / 2
                    && fc < p as i64 / 2;
                if in_band {
                    assert_eq!(embedded[r * n + c], spectrum[r * n + c]);
                } else {
                    assert_eq!(embedded[r * n + c], Complex::ZERO);
                }
            }
        }
    }

    #[test]
    fn crop_rejects_bad_sizes() {
        let spectrum = vec![Complex::ZERO; 16];
        assert!(crop_lowfreq(&spectrum, 4, 8).is_err());
        assert!(crop_lowfreq(&spectrum, 4, 0).is_err());
        assert!(crop_lowfreq(&spectrum, 5, 2).is_err()); // wrong buffer size
    }

    #[test]
    fn embed_rejects_bad_sizes() {
        let block = vec![Complex::ZERO; 4];
        assert!(embed_lowfreq(&block, 2, 1).is_err());
        assert!(embed_lowfreq(&block, 3, 8).is_err()); // wrong buffer size
    }

    #[test]
    fn lowpass_filtering_via_crop_embed() {
        // Embedding a cropped spectrum and inverting must reproduce a
        // band-limited version of the image; a DC image is fully in-band.
        let n = 8;
        let fft = Fft2d::new(n, n).unwrap();
        let mut img = vec![Complex::ONE; n * n];
        fft.forward(&mut img).unwrap();
        let block = crop_lowfreq(&img, n, 2).unwrap();
        let mut back = embed_lowfreq(&block, 2, n).unwrap();
        fft.inverse(&mut back).unwrap();
        for z in &back {
            assert!((*z - Complex::ONE).abs() < 1e-10);
        }
    }

    #[test]
    fn half_band_copy_resamples_a_band_limited_image_exactly() {
        use crate::rfft::Rfft2d;
        use ilt_par::InnerPool;
        // Frequencies up to 3 in both axes: band 3 fits the 8-point grid.
        let image = |n: usize| -> Vec<f64> {
            let w = 2.0 * std::f64::consts::PI / n as f64;
            (0..n * n)
                .map(|i| {
                    let (y, x) = ((i / n) as f64, (i % n) as f64);
                    0.7 + (w * (3.0 * x - 2.0 * y)).cos() + 0.5 * (w * (x + 3.0 * y)).sin()
                })
                .collect()
        };
        let (small, big, band) = (8usize, 32usize, 3usize);
        let pool = InnerPool::serial();
        let rs = Rfft2d::new(small).unwrap();
        let rb = Rfft2d::new(big).unwrap();
        let mut spec_s = vec![Complex::ZERO; rs.spectrum_len()];
        let mut scratch_s = spec_s.clone();
        let mut spec_b = vec![Complex::ZERO; rb.spectrum_len()];
        let mut scratch_b = spec_b.clone();

        // Small -> big (zero-pad): the inverse lands on the big grid's samples.
        rs.forward(&image(small), &mut spec_s, &mut scratch_s, &pool)
            .unwrap();
        // Stale values in the copied columns must be cleared by the copy.
        spec_b[..(band + 1) * big].fill(Complex::new(9.0, -9.0));
        copy_half_band(&spec_s, small, &mut spec_b, big, band).unwrap();
        let mut out_b = vec![0.0; big * big];
        let scale = (big * big) as f64 / (small * small) as f64;
        rb.inverse_support_scaled(&mut spec_b, &mut out_b, &mut scratch_b, None, scale, &pool)
            .unwrap();
        for (a, b) in out_b.iter().zip(image(big)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }

        // Big -> small (low-pass crop) is the same copy the other way.
        rb.forward(&image(big), &mut spec_b, &mut scratch_b, &pool)
            .unwrap();
        spec_s.fill(Complex::ZERO);
        copy_half_band(&spec_b, big, &mut spec_s, small, band).unwrap();
        let mut out_s = vec![0.0; small * small];
        rs.inverse_support_scaled(
            &mut spec_s,
            &mut out_s,
            &mut scratch_s,
            None,
            1.0 / scale,
            &pool,
        )
        .unwrap();
        for (a, b) in out_s.iter().zip(image(small)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn half_band_copy_rejects_bad_shapes() {
        let src = vec![Complex::<f64>::ZERO; 5 * 8];
        let mut dst = vec![Complex::ZERO; 9 * 16];
        assert!(copy_half_band(&src, 8, &mut dst, 16, 3).is_ok());
        // 2*4+1 = 9 bins do not fit an 8-point grid.
        assert!(matches!(
            copy_half_band(&src, 8, &mut dst, 16, 4),
            Err(FftError::InvalidCrop { .. })
        ));
        assert!(matches!(
            copy_half_band(&src[..39], 8, &mut dst, 16, 3),
            Err(FftError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            copy_half_band(&src, 8, &mut dst[..100], 16, 3),
            Err(FftError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn upsample_identity_for_s1() {
        let block: Vec<Complex> = (0..9).map(|i| Complex::from_re(i as f64)).collect();
        let up = upsample_centered(&block, 3, 1).unwrap();
        assert_eq!(up, block);
    }

    #[test]
    fn upsample_preserves_center_value() {
        let p = 5;
        let mut block = vec![Complex::ZERO; p * p];
        block[(p / 2) * p + p / 2] = Complex::new(2.0, -1.0);
        let s = 2;
        let up = upsample_centered(&block, p, s).unwrap();
        let q = p * s;
        assert_eq!(up.len(), q * q);
        // DC of the upsampled grid must equal DC of the source.
        assert!((up[(q / 2) * q + q / 2] - Complex::new(2.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn upsample_interpolates_linearly() {
        // A linear ramp must be reproduced exactly by bilinear interpolation
        // (away from the zero-padded border).
        let p = 5;
        let block: Vec<Complex> = (0..p * p)
            .map(|i| Complex::from_re((i / p) as f64))
            .collect();
        let s = 2;
        let q = p * s;
        let up = upsample_centered(&block, p, s).unwrap();
        // Mid-grid point halfway between source rows 2 and 3.
        let r = q / 2 + 1; // fractional source row 2.5
        let v = up[r * q + q / 2];
        assert!((v.re - 2.5).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn upsample_rejects_wrong_buffer() {
        let block = vec![Complex::ZERO; 8];
        assert!(upsample_centered(&block, 3, 2).is_err());
    }
}
