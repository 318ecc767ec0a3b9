//! Dense vs sparse-support inverse parity on random `P x P`-supported
//! spectra — the exact shape the per-kernel inverse of Eq. (2) sees — and
//! on the half-spectra the real-input inverse sees, whose support-limited
//! form moves and re-tangles the listed columns only.

use ilt_fft::{spectral, Complex, Fft2d, Rfft2d};
use ilt_par::InnerPool;

/// Deterministic xorshift values in [-1, 1).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// The wrapped (unshifted) spectrum indices of a centered `p`-wide support,
/// exactly as `LithoSimulator` computes them.
fn support_bins(p: usize, n: usize) -> Vec<usize> {
    let half = p as i64 / 2;
    (0..p)
        .map(|i| spectral::wrap_index(i as i64 - half, n))
        .collect()
}

#[test]
fn sparse_inverse_is_bit_identical_to_dense_on_random_supported_spectra() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for &(n, p) in &[(64usize, 23usize), (32, 9), (128, 23), (16, 16)] {
        let fft = Fft2d::new(n, n).unwrap();
        let bins = support_bins(p, n);
        for trial in 0..5 {
            // Random spectrum supported only on the centered P x P block.
            let mut dense = vec![Complex::ZERO; n * n];
            for &r in &bins {
                for &c in &bins {
                    dense[r * n + c] = Complex::new(rng.next(), rng.next());
                }
            }
            let mut sparse = dense.clone();
            fft.inverse(&mut dense).unwrap();
            fft.inverse_support(&mut sparse, &bins).unwrap();
            assert_eq!(dense, sparse, "n={n} p={p} trial={trial}");
        }

        // The real-input inverse of a half-spectrum supported on the stored
        // columns the adjoint accumulator touches (0..=P/2, capped at the
        // stored half): the listed-columns call, handed a scratch full of
        // NaN, returns the bits of the dense call on the same spectrum.
        let rfft = Rfft2d::new(n).unwrap();
        let cols: Vec<usize> = (0..(p / 2 + 1).min(n / 2 + 1)).collect();
        let serial = InnerPool::serial();
        for trial in 0..5 {
            let mut dense = vec![Complex::ZERO; rfft.spectrum_len()];
            for &c in &cols {
                for &r in &bins {
                    dense[c * n + r] = Complex::new(rng.next(), rng.next());
                }
            }
            let mut sparse = dense.clone();
            let mut want = vec![0.0; n * n];
            let mut got = vec![f64::NAN; n * n];
            let mut scratch = vec![Complex::ZERO; rfft.spectrum_len()];
            rfft.inverse(&mut dense, &mut want, &mut scratch, &serial)
                .unwrap();
            scratch.fill(Complex::new(f64::NAN, f64::NAN));
            rfft.inverse_support_scaled(
                &mut sparse,
                &mut got,
                &mut scratch,
                Some(&cols),
                1.0,
                &serial,
            )
            .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "real n={n} p={p} trial={trial}");
        }
    }
}
