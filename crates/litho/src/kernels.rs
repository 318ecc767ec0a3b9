//! SOCS kernel construction: Abbe source-point factorisation of the Hopkins
//! TCC, compressed by eigendecomposition.
//!
//! The transmission cross-coefficient operator of a partially coherent
//! imaging system is
//!
//! ```text
//! TCC(f1, f2) = sum_s J(s) P(s + f1) conj(P(s + f2))
//! ```
//!
//! which is Hermitian positive semi-definite and already a sum of one
//! rank-one term per source point. Rather than eigendecomposing the
//! `P^2 x P^2` operator directly, we exploit the SVD identity: with
//! `B[s, f] = sqrt(J_s) conj(P(s + f))`, the Gram matrix `G = B B^H` is only
//! `n_src x n_src`; its eigenpairs `(lambda_i, u_i)` yield the SOCS kernels
//! `H_i = B^H u_i / sqrt(lambda_i)` with weights `w_i = lambda_i`. This is
//! the same decomposition the ICCAD-2013 kernels were distributed as.

use ilt_fft::{spectral, Complex};
use ilt_linalg::{eigh, Matrix};

use crate::error::LithoError;
use crate::optics::OpticsConfig;

/// One optical kernel: a weight and a **centered** `support x support`
/// frequency-domain tabulation (`H_i` in the paper's Eq. (2)).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    weight: f64,
    spectrum: Vec<Complex>,
    /// Precomputed adjoint tabulation `w_i conj(H_i)`, same layout as
    /// `spectrum` — the constant every gradient pass multiplies by per
    /// support bin, hoisted out of the hot loop.
    adjoint: Vec<Complex>,
}

impl Kernel {
    fn new(weight: f64, spectrum: Vec<Complex>) -> Self {
        let adjoint = spectrum.iter().map(|h| h.conj().scale(weight)).collect();
        Kernel {
            weight,
            spectrum,
            adjoint,
        }
    }

    /// SOCS weight `w_i`.
    #[inline]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Centered frequency-domain tabulation, row-major `support x support`.
    #[inline]
    pub fn spectrum(&self) -> &[Complex] {
        &self.spectrum
    }

    /// Centered adjoint tabulation `w_i conj(H_i)`, row-major
    /// `support x support`.
    #[inline]
    pub fn adjoint_spectrum(&self) -> &[Complex] {
        &self.adjoint
    }
}

/// A truncated SOCS kernel set tabulated on a base FFT grid.
///
/// # Examples
///
/// ```
/// use ilt_litho::{KernelSet, OpticsConfig};
///
/// # fn main() -> Result<(), ilt_litho::LithoError> {
/// let set = KernelSet::build(&OpticsConfig::test_small(), false)?;
/// assert!(set.len() > 0);
/// // Weights are positive and sorted descending.
/// let w: Vec<f64> = set.iter().map(|k| k.weight()).collect();
/// assert!(w.windows(2).all(|p| p[0] >= p[1] && p[1] > 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSet {
    base_n: usize,
    support: usize,
    scale: usize,
    kernels: Vec<Kernel>,
}

impl KernelSet {
    /// Builds the kernel set for the given optics; `defocused` selects the
    /// aberrated pupil (used for the process-window inner corner).
    ///
    /// The returned set is normalised so that a clear field prints with unit
    /// intensity: `sum_i w_i |H_i(0)|^2 = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::KernelConstruction`] if the eigensolver fails
    /// or the optics produce no usable kernels.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`OpticsConfig::validate`]).
    pub fn build(config: &OpticsConfig, defocused: bool) -> Result<Self, LithoError> {
        config.validate();
        let sources = config.source_points();
        let n_src = sources.len();
        let p = config.kernel_support();
        let half = (p / 2) as f64;

        // Pupil rows: row s holds P(s + f) over the centered P x P grid.
        let mut rows: Vec<Vec<Complex>> = Vec::with_capacity(n_src);
        for src in &sources {
            let mut row = Vec::with_capacity(p * p);
            for r in 0..p {
                let fy = r as f64 - half;
                for c in 0..p {
                    let fx = c as f64 - half;
                    row.push(config.pupil(src.fx + fx, src.fy + fy, defocused));
                }
            }
            rows.push(row);
        }

        // Gram matrix G[s, t] = sqrt(J_s J_t) sum_f conj(P(s+f)) P(t+f).
        let gram = Matrix::from_fn(n_src, n_src, |s, t| {
            let js = sources[s].weight;
            let jt = sources[t].weight;
            let mut acc = Complex::ZERO;
            for (a, b) in rows[s].iter().zip(&rows[t]) {
                acc = acc.mul_add(a.conj(), *b);
            }
            acc.scale((js * jt).sqrt())
        });

        let eig = eigh(&gram).map_err(|source| LithoError::KernelConstruction {
            reason: source.to_string(),
        })?;

        let lambda_max = eig.values.first().copied().unwrap_or(0.0);
        if lambda_max <= 0.0 {
            return Err(LithoError::KernelConstruction {
                reason: "TCC has no positive eigenvalues".to_string(),
            });
        }

        let keep = config.kernel_count.min(n_src);
        let mut kernels = Vec::with_capacity(keep);
        for i in 0..keep {
            let lambda = eig.values[i];
            if lambda < 1e-12 * lambda_max {
                break;
            }
            let u = eig.vector(i);
            let sigma = lambda.sqrt();
            // H_i(f) = (1 / sigma) sum_s sqrt(J_s) P(s + f) u_i[s].
            let mut spectrum = vec![Complex::ZERO; p * p];
            for (s, row) in rows.iter().enumerate() {
                let coeff = u[s].scale(sources[s].weight.sqrt() / sigma);
                for (out, pv) in spectrum.iter_mut().zip(row) {
                    *out = out.mul_add(*pv, coeff);
                }
            }
            kernels.push(Kernel::new(lambda, spectrum));
        }
        if kernels.is_empty() {
            return Err(LithoError::KernelConstruction {
                reason: "all kernels truncated away".to_string(),
            });
        }

        let mut set = KernelSet {
            base_n: config.base_n,
            support: p,
            scale: 1,
            kernels,
        };
        set.normalise_clear_field()?;
        Ok(set)
    }

    /// A kernel set with caller-chosen spectra, for tests that need every
    /// support bin populated (physical pupils leave the support's rim
    /// empty, which hides off-by-one band errors).
    #[cfg(test)]
    pub(crate) fn from_spectra(support: usize, kernels: Vec<(f64, Vec<Complex>)>) -> Self {
        assert!(kernels.iter().all(|(_, h)| h.len() == support * support));
        KernelSet {
            base_n: support,
            support,
            scale: 1,
            kernels: kernels
                .into_iter()
                .map(|(w, h)| Kernel::new(w, h))
                .collect(),
        }
    }

    /// Rescales weights so a clear field images at unit intensity.
    fn normalise_clear_field(&mut self) -> Result<(), LithoError> {
        let dc = self.clear_field_intensity();
        if dc <= 0.0 {
            return Err(LithoError::KernelConstruction {
                reason: "clear-field intensity is zero; cannot normalise".to_string(),
            });
        }
        for k in &mut self.kernels {
            // Rebuild rather than rescale so the adjoint table is always
            // exactly `weight * conj(spectrum)` bit for bit.
            *k = Kernel::new(k.weight / dc, std::mem::take(&mut k.spectrum));
        }
        Ok(())
    }

    /// Intensity a fully transparent mask would produce
    /// (`sum_i w_i |H_i(0)|^2`); exactly 1 after normalisation.
    pub fn clear_field_intensity(&self) -> f64 {
        let center = (self.support / 2) * self.support + self.support / 2;
        self.kernels
            .iter()
            .map(|k| k.weight * k.spectrum[center].norm_sqr())
            .sum()
    }

    /// Number of kernels.
    #[inline]
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Returns `true` if the set holds no kernels (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Kernel support edge length (scaled).
    #[inline]
    pub fn support(&self) -> usize {
        self.support
    }

    /// Base grid size `N` the kernels were tabulated for.
    #[inline]
    pub fn base_n(&self) -> usize {
        self.base_n
    }

    /// Current scale factor `s` relative to the base tabulation.
    #[inline]
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Estimated resident bytes of this set's kernel tables — the
    /// `support x support` complex spectrum *and* the same-size precomputed
    /// adjoint table per kernel (per-kernel headers are ignored). Used by
    /// cache introspection (`/debug/caches`) and store budget math.
    pub fn estimated_bytes(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| ((k.spectrum.len() + k.adjoint.len()) * std::mem::size_of::<Complex>()) as u64)
            .sum()
    }

    /// Iterates over the kernels, largest weight first.
    pub fn iter(&self) -> std::slice::Iter<'_, Kernel> {
        self.kernels.iter()
    }

    /// Keeps only the `count` strongest kernels (saturating).
    pub fn truncate(&self, count: usize) -> KernelSet {
        let mut out = self.clone();
        out.kernels.truncate(count.max(1));
        out
    }

    /// Resamples every kernel at fractional bins `j/s` (Eq. (3)/(9) of the
    /// paper), producing a set usable on grids covering `s x` larger
    /// physical regions. Scales compose: `set.scaled(2).scaled(2)` equals
    /// `set.scaled(4)` up to interpolation error.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::KernelConstruction`] if resampling fails.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub fn scaled(&self, s: usize) -> Result<KernelSet, LithoError> {
        assert!(s >= 1, "scale factor must be at least 1");
        if s == 1 {
            return Ok(self.clone());
        }
        let mut kernels = Vec::with_capacity(self.kernels.len());
        for k in &self.kernels {
            let spectrum =
                spectral::upsample_centered(&k.spectrum, self.support, s).map_err(|source| {
                    LithoError::KernelConstruction {
                        reason: format!("kernel resampling failed: {source}"),
                    }
                })?;
            kernels.push(Kernel::new(k.weight, spectrum));
        }
        Ok(KernelSet {
            base_n: self.base_n,
            support: self.support * s,
            scale: self.scale * s,
            kernels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KernelSet {
        KernelSet::build(&OpticsConfig::test_small(), false).unwrap()
    }

    #[test]
    fn builds_requested_kernel_count() {
        let cfg = OpticsConfig::test_small();
        let set = small();
        assert_eq!(set.len(), cfg.kernel_count);
        assert_eq!(set.support(), cfg.kernel_support());
        assert_eq!(set.base_n(), cfg.base_n);
        assert_eq!(set.scale(), 1);
        assert!(!set.is_empty());
    }

    #[test]
    fn weights_positive_descending() {
        let set = small();
        let w: Vec<f64> = set.iter().map(|k| k.weight()).collect();
        assert!(w.iter().all(|&x| x > 0.0));
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
    }

    #[test]
    fn adjoint_table_is_weighted_conjugate() {
        let set = small();
        for k in set.iter() {
            assert_eq!(k.adjoint_spectrum().len(), k.spectrum().len());
            for (a, h) in k.adjoint_spectrum().iter().zip(k.spectrum()) {
                assert_eq!(*a, h.conj().scale(k.weight()));
            }
        }
    }

    #[test]
    fn clear_field_normalised() {
        let set = small();
        assert!((set.clear_field_intensity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_kernel_dominates() {
        // For a well-conditioned source the leading kernel carries most of
        // the energy — the property SOCS truncation relies on.
        let set = small();
        let total: f64 = set.iter().map(|k| k.weight()).sum();
        assert!(set.iter().next().unwrap().weight() / total > 0.3);
    }

    #[test]
    fn kernels_are_band_limited() {
        // No kernel energy outside the shifted-pupil reach.
        let cfg = OpticsConfig::test_small();
        let set = small();
        let p = set.support();
        let half = (p / 2) as f64;
        let reach = (1.0 + cfg.sigma_outer) * cfg.pupil_radius_bins;
        for k in set.iter() {
            for r in 0..p {
                for c in 0..p {
                    let fy = r as f64 - half;
                    let fx = c as f64 - half;
                    if (fx * fx + fy * fy).sqrt() > reach + 1.5 {
                        assert_eq!(k.spectrum()[r * p + c], Complex::ZERO);
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_kernel_energy_is_symmetric() {
        // Individual eigenvectors of degenerate TCC eigenvalues are only
        // determined up to a unitary mix, but the weighted energy
        // sum_i w_i |H_i(f)|^2 equals the TCC diagonal, which is symmetric
        // under f -> -f for a symmetric source. Keep every kernel so the
        // truncation cannot split a degenerate pair.
        let mut cfg = OpticsConfig::test_small();
        cfg.kernel_count = 1000;
        let set = KernelSet::build(&cfg, false).unwrap();
        let p = set.support();
        let energy = |r: usize, c: usize| -> f64 {
            set.iter()
                .map(|k| k.weight() * k.spectrum()[r * p + c].norm_sqr())
                .sum()
        };
        for r in 0..p {
            for c in 0..p {
                let here = energy(r, c);
                let mirrored = energy(p - 1 - r, p - 1 - c);
                assert!(
                    (here - mirrored).abs() < 1e-9 * (1.0 + here.abs()),
                    "asymmetry at ({r},{c}): {here} vs {mirrored}"
                );
            }
        }
    }

    #[test]
    fn defocused_set_differs_from_nominal() {
        let cfg = OpticsConfig::test_small();
        let nominal = KernelSet::build(&cfg, false).unwrap();
        let defocused = KernelSet::build(&cfg, true).unwrap();
        assert_ne!(nominal, defocused);
        // Defocus only adds phase, so the clear field still normalises.
        assert!((defocused.clear_field_intensity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncate_keeps_strongest() {
        let set = small();
        let t = set.truncate(2);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.iter().next().unwrap().weight(),
            set.iter().next().unwrap().weight()
        );
        // Truncating to zero still keeps one kernel.
        assert_eq!(set.truncate(0).len(), 1);
    }

    #[test]
    fn scaled_preserves_weights_and_dc() {
        let set = small();
        let scaled = set.scaled(2).unwrap();
        assert_eq!(scaled.scale(), 2);
        assert_eq!(scaled.support(), set.support() * 2);
        for (a, b) in set.iter().zip(scaled.iter()) {
            assert_eq!(a.weight(), b.weight());
            let pa = set.support();
            let pb = scaled.support();
            let dc_a = a.spectrum()[(pa / 2) * pa + pa / 2];
            let dc_b = b.spectrum()[(pb / 2) * pb + pb / 2];
            assert!((dc_a - dc_b).abs() < 1e-12);
        }
        // Clear field intensity is preserved under scaling.
        assert!((scaled.clear_field_intensity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_of_one_is_identity() {
        let set = small();
        assert_eq!(set.scaled(1).unwrap(), set);
    }

    #[test]
    fn eigen_reconstruction_approximates_tcc_diagonal() {
        // sum_i w_i |H_i(f)|^2 must approximate TCC(f, f) (before
        // normalisation they are equal for untruncated sets; here we keep
        // all kernels of a tiny config and compare shapes via ratio).
        let mut cfg = OpticsConfig::test_small();
        cfg.kernel_count = 64; // keep everything the source offers
        let set = KernelSet::build(&cfg, false).unwrap();
        let p = set.support();
        let half = (p / 2) as f64;
        let sources = cfg.source_points();
        // Unnormalised TCC diagonal and kernel sum at a few frequencies.
        let probe = [(0i64, 0i64), (2, 0), (0, 3), (-2, 2)];
        let mut ratios = Vec::new();
        for &(fx, fy) in &probe {
            let tcc: f64 = sources
                .iter()
                .map(|s| {
                    s.weight
                        * cfg
                            .pupil(s.fx + fx as f64, s.fy + fy as f64, false)
                            .norm_sqr()
                })
                .sum();
            let r = (half as i64 + fy) as usize;
            let c = (half as i64 + fx) as usize;
            let sum: f64 = set
                .iter()
                .map(|k| k.weight * k.spectrum()[r * p + c].norm_sqr())
                .sum();
            if tcc > 1e-9 {
                ratios.push(sum / tcc);
            }
        }
        // All probes give the same normalisation constant.
        for w in ratios.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6 * w[0].abs(), "{ratios:?}");
        }
    }
}
