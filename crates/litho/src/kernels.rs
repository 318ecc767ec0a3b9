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

use std::sync::{Arc, OnceLock};

use ilt_fft::{spectral, Complex, Float};

use crate::eigen::{eigh, Matrix};
use crate::error::LithoError;
use crate::optics::OpticsConfig;

/// One optical kernel: a weight and a **centered** `support x support`
/// frequency-domain tabulation (`H_i` in the paper's Eq. (2)).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    weight: f64,
    spectrum: Vec<Complex>,
}

impl Kernel {
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
}

/// Relative tolerance (of the table's peak magnitude) of the slot proof:
/// how far from real, and from even or odd, a kernel may be and still share
/// a transform. Rounding leaves the nominal kernels ~3e-15 off; anything
/// physical (defocus) is off by order one.
const PARITY_TOLERANCE: f64 = 1e-12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Parity {
    Even,
    Odd,
}

/// Proves that a centered `p x p` table is real and even or odd under
/// `f -> -f`, to [`PARITY_TOLERANCE`], or returns `None`.
///
/// The table is the kernel on the *zero-extended* support: frequency `-f`
/// of index `i` sits at `2 (p / 2) - i`, so for even `p` the row and column
/// at `-p / 2` have no partner (`+p / 2` is outside the table) and must
/// themselves vanish. Mirroring inside the table (`p - 1 - i`) would test a
/// symmetry the transform does not have.
fn proven_parity(spectrum: &[Complex], p: usize) -> Option<Parity> {
    let peak = spectrum.iter().map(|h| h.abs()).fold(0.0, f64::max);
    let tolerance = PARITY_TOLERANCE * peak;
    if spectrum.iter().any(|h| h.im.abs() > tolerance) {
        return None;
    }
    let at = |r: usize, c: usize| {
        if r < p && c < p {
            spectrum[r * p + c].re
        } else {
            0.0
        }
    };
    let (mut even_defect, mut odd_defect) = (0.0f64, 0.0f64);
    for r in 0..p {
        for c in 0..p {
            let (here, there) = (at(r, c), at(2 * (p / 2) - r, 2 * (p / 2) - c));
            even_defect = even_defect.max((here - there).abs());
            odd_defect = odd_defect.max((here + there).abs());
        }
    }
    if even_defect <= tolerance {
        Some(Parity::Even)
    } else if odd_defect <= tolerance {
        Some(Parity::Odd)
    } else {
        None
    }
}

/// The kernels one complex transform carries: a proven-even and a
/// proven-odd real kernel together, or any single kernel.
///
/// For a real mask `M` with spectrum `X`, a real even `H_e` makes `H_e X`
/// Hermitian and a real odd `H_o` makes `H_o X` anti-Hermitian, so
/// `IFFT((H_e + H_o) X) = A_e + A_o` with `A_e` purely real and `A_o`
/// purely imaginary: one transform, both fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    table: Vec<Complex>,
    w_re: f64,
    w_im: f64,
    kernels: (usize, Option<usize>),
}

impl Slot {
    /// What the mask spectrum is multiplied by, centered row-major
    /// `support x support`: `H_e + H_o` for a pair, the kernel's own
    /// spectrum for a singleton.
    #[inline]
    pub fn table(&self) -> &[Complex] {
        &self.table
    }

    /// Weights `(w_re, w_im)` of the squared real and imaginary parts of
    /// the slot's field in the intensity: `(w_e, w_o)` for a pair, `(w, w)`
    /// for a singleton.
    #[inline]
    pub fn weights(&self) -> (f64, f64) {
        (self.w_re, self.w_im)
    }

    /// Indices into the kernel set of the kernel whose field is the real
    /// part (the even one, or the singleton) and, for a pair, of the odd
    /// kernel whose field is `i` times the imaginary part.
    #[inline]
    pub fn kernels(&self) -> (usize, Option<usize>) {
        self.kernels
    }
}

/// What a simulator runs of a [`KernelSet`]: its slot tables rounded to
/// the simulator's element type, once, with their weights and support. The
/// kernels themselves come out of the TCC, the eigendecomposition and the
/// resampling in `f64`; a simulator needs nothing else of them.
#[derive(Debug)]
pub(crate) struct SlotTables<T> {
    support: usize,
    tables: Vec<Vec<Complex<T>>>,
    weights: Vec<(f64, f64)>,
}

impl<T: Float> SlotTables<T> {
    /// `set`'s slot tables, in slot order.
    pub(crate) fn of(set: &KernelSet) -> Self {
        SlotTables {
            support: set.support(),
            tables: set
                .slots()
                .iter()
                .map(|slot| slot.table().iter().map(|h| h.cast()).collect())
                .collect(),
            weights: set.slots().iter().map(Slot::weights).collect(),
        }
    }

    /// Kernel support edge length (scaled).
    #[inline]
    pub(crate) fn support(&self) -> usize {
        self.support
    }

    /// Number of slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }

    /// The table of slot `k`, centered row-major `support x support`.
    #[inline]
    pub(crate) fn table(&self, k: usize) -> &[Complex<T>] {
        &self.tables[k]
    }

    /// Weights `(w_re, w_im)` of slot `k` (see [`Slot::weights`]).
    #[inline]
    pub(crate) fn weights(&self, k: usize) -> (f64, f64) {
        self.weights[k]
    }

    /// Bytes of the tables (headers ignored).
    pub(crate) fn bytes(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| std::mem::size_of_val(&t[..]) as u64)
            .sum()
    }
}

/// A simulator's kernels: the slot tables it runs, and the `f64` kernel
/// set they were rounded from — held, or, for the bank's per-scale memo,
/// rebuilt from the base set on first request (the resampled `f64`
/// spectra are four times the tables' size and nothing on the simulation
/// path reads them, so the memo does not keep them).
#[derive(Debug)]
pub(crate) struct Optics<T> {
    tables: SlotTables<T>,
    set: OnceLock<KernelSet>,
    base: Option<(Arc<KernelSet>, usize)>,
}

impl<T: Float> Optics<T> {
    /// A held kernel set and its tables.
    pub(crate) fn held(set: KernelSet) -> Self {
        Optics {
            tables: SlotTables::of(&set),
            set: OnceLock::from(set),
            base: None,
        }
    }

    /// `base` resampled to `scale`, counted on `litho.kernel_resample`;
    /// only the tables are kept.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::KernelConstruction`] if resampling fails.
    pub(crate) fn resampled(base: &Arc<KernelSet>, scale: usize) -> Result<Self, LithoError> {
        ilt_telemetry::counter_add("litho.kernel_resample", 1);
        Ok(Optics {
            tables: SlotTables::of(&base.scaled(scale)?),
            set: OnceLock::new(),
            base: Some((Arc::clone(base), scale)),
        })
    }

    /// The tables the simulator runs.
    #[inline]
    pub(crate) fn tables(&self) -> &SlotTables<T> {
        &self.tables
    }

    /// The `f64` kernel set, rebuilt (and then kept) if it is not held.
    pub(crate) fn kernels(&self) -> &KernelSet {
        self.set.get_or_init(|| {
            let (base, scale) = self
                .base
                .as_ref()
                .expect("an optics without a base holds its set");
            ilt_telemetry::counter_add("litho.kernel_resample", 1);
            base.scaled(*scale)
                .expect("the same resampling succeeded when the tables were built")
        })
    }

    /// Bytes of the tables and of the `f64` set, if one is held.
    pub(crate) fn bytes(&self) -> u64 {
        self.tables.bytes() + self.set.get().map_or(0, KernelSet::estimated_bytes)
    }
}

/// Groups kernels into slots, greedily in weight order: each kernel not yet
/// taken pairs with the strongest later kernel of the opposite proven
/// parity, or stands alone.
fn build_slots(kernels: &[Kernel], p: usize) -> Vec<Slot> {
    let parity: Vec<Option<Parity>> = kernels
        .iter()
        .map(|k| proven_parity(&k.spectrum, p))
        .collect();
    let mut taken = vec![false; kernels.len()];
    let mut slots = Vec::with_capacity(kernels.len().div_ceil(2));
    for i in 0..kernels.len() {
        if taken[i] {
            continue;
        }
        let partner = (i + 1..kernels.len()).find(|&j| {
            !taken[j] && parity[i].is_some() && parity[j].is_some() && parity[j] != parity[i]
        });
        if let Some(j) = partner {
            taken[j] = true;
        }
        let (re, im) = match partner {
            Some(j) if parity[i] == Some(Parity::Odd) => (j, Some(i)),
            _ => (i, partner),
        };
        let mut table = kernels[re].spectrum.clone();
        if let Some(im) = im {
            for (t, h) in table.iter_mut().zip(&kernels[im].spectrum) {
                *t += *h;
            }
        }
        slots.push(Slot {
            table,
            w_re: kernels[re].weight,
            w_im: kernels[im.unwrap_or(re)].weight,
            kernels: (re, im),
        });
    }
    slots
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
    /// What the simulator's per-transform loop runs over; rebuilt by every
    /// constructor from the kernels it ends up with.
    slots: Vec<Slot>,
}

impl KernelSet {
    /// The one place a set is put together, so the slots always describe
    /// the kernels held.
    fn from_kernels(base_n: usize, support: usize, scale: usize, kernels: Vec<Kernel>) -> Self {
        let slots = build_slots(&kernels, support);
        KernelSet {
            base_n,
            support,
            scale,
            kernels,
            slots,
        }
    }

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
        let gram = Matrix::from_fn(n_src, |s, t| {
            let js = sources[s].weight;
            let jt = sources[t].weight;
            let mut acc = Complex::ZERO;
            for (a, b) in rows[s].iter().zip(&rows[t]) {
                acc = acc.mul_add(a.conj(), *b);
            }
            acc.scale((js * jt).sqrt())
        });

        let eig = eigh(&gram)?;

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
            kernels.push(Kernel {
                weight: lambda,
                spectrum,
            });
        }
        if kernels.is_empty() {
            return Err(LithoError::KernelConstruction {
                reason: "all kernels truncated away".to_string(),
            });
        }

        // Rescale the weights so a clear field images at unit intensity.
        let dc = clear_field_intensity(&kernels, p);
        if dc <= 0.0 {
            return Err(LithoError::KernelConstruction {
                reason: "clear-field intensity is zero; cannot normalise".to_string(),
            });
        }
        for k in &mut kernels {
            k.weight /= dc;
        }
        Ok(KernelSet::from_kernels(config.base_n, p, 1, kernels))
    }

    /// A kernel set with caller-chosen spectra, for tests that need every
    /// support bin populated (physical pupils leave the support's rim
    /// empty, which hides off-by-one band errors).
    #[cfg(test)]
    pub(crate) fn from_spectra(support: usize, kernels: Vec<(f64, Vec<Complex>)>) -> Self {
        assert!(kernels.iter().all(|(_, h)| h.len() == support * support));
        let kernels = kernels
            .into_iter()
            .map(|(weight, spectrum)| Kernel { weight, spectrum })
            .collect();
        KernelSet::from_kernels(support, support, 1, kernels)
    }

    /// Intensity a fully transparent mask would produce
    /// (`sum_i w_i |H_i(0)|^2`); exactly 1 after normalisation.
    pub fn clear_field_intensity(&self) -> f64 {
        clear_field_intensity(&self.kernels, self.support)
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

    /// Estimated resident bytes of this set's tables — one
    /// `support x support` complex spectrum per kernel and one same-size
    /// table per slot (headers are ignored). Used by cache introspection
    /// (`/debug/caches`) and store budget math.
    pub fn estimated_bytes(&self) -> u64 {
        let values = self.kernels.iter().map(|k| k.spectrum.len()).sum::<usize>()
            + self.slots.iter().map(|s| s.table.len()).sum::<usize>();
        (values * std::mem::size_of::<Complex>()) as u64
    }

    /// Iterates over the kernels, largest weight first.
    pub fn iter(&self) -> std::slice::Iter<'_, Kernel> {
        self.kernels.iter()
    }

    /// The transforms a simulate or gradient pass runs, in order: every
    /// kernel is in exactly one slot.
    #[inline]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Keeps only the `count` strongest kernels (saturating).
    pub fn truncate(&self, count: usize) -> KernelSet {
        let kept = count.clamp(1, self.kernels.len());
        let kernels = self.kernels[..kept].to_vec();
        KernelSet::from_kernels(self.base_n, self.support, self.scale, kernels)
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
            kernels.push(Kernel {
                weight: k.weight,
                spectrum,
            });
        }
        Ok(KernelSet::from_kernels(
            self.base_n,
            self.support * s,
            self.scale * s,
            kernels,
        ))
    }
}

fn clear_field_intensity(kernels: &[Kernel], support: usize) -> f64 {
    let center = (support / 2) * support + support / 2;
    kernels
        .iter()
        .map(|k| k.weight * k.spectrum[center].norm_sqr())
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Five hand-built kernels in weight order — even, even, odd, complex,
    /// real without parity — on the zero-extended support (for even `p` the
    /// two with a parity vanish on the row and column at `-p / 2`): one
    /// pair `(0, 2)` and three singletons `1, 3, 4`.
    pub(crate) fn mixed_parity_set(p: usize) -> KernelSet {
        fn bell(fy: f64, fx: f64) -> f64 {
            1.0 / (1.0 + 0.3 * (fx * fx + fy * fy))
        }
        let half = (p / 2) as f64;
        let table = |h: fn(f64, f64) -> Complex, has_parity: bool| -> Vec<Complex> {
            (0..p * p)
                .map(|i| {
                    let (fy, fx) = ((i / p) as f64 - half, (i % p) as f64 - half);
                    if has_parity && p.is_multiple_of(2) && (fy == -half || fx == -half) {
                        Complex::ZERO
                    } else {
                        h(fy, fx)
                    }
                })
                .collect()
        };
        let even_a = |fy, fx| Complex::from_re(bell(fy, fx));
        let even_b = |fy: f64, fx: f64| Complex::from_re((0.4 * fx).cos() * (0.7 * fy).cos());
        let odd = |fy, fx| Complex::from_re((fx - 0.5 * fy) * bell(fy, fx));
        let complex = |fy, fx| Complex::from_polar(bell(fy, fx), 0.2 * fx * fx + 0.3 * fy);
        let lopsided = |fy, fx| Complex::from_re((1.0 + 0.5 * fx) * bell(fy, fx));
        KernelSet::from_spectra(
            p,
            vec![
                (0.4, table(even_a, true)),
                (0.25, table(even_b, true)),
                (0.2, table(odd, true)),
                (0.1, table(complex, false)),
                (0.05, table(lopsided, false)),
            ],
        )
    }

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

    /// Which kernels each slot holds, as `(real part, imaginary part)`.
    fn grouping(set: &KernelSet) -> Vec<(usize, Option<usize>)> {
        set.slots().iter().map(|s| s.kernels()).collect()
    }

    #[test]
    fn nominal_kernels_pair_at_every_scale() {
        // The speed-up is the pairing: if a rebuilt bank, a resampling or a
        // tolerance ever stopped proving parity, the simulator would fall
        // back to K transforms without failing anything else.
        for cfg in [OpticsConfig::m1_default(), OpticsConfig::test_small()] {
            let base = KernelSet::build(&cfg, false).unwrap();
            for s in [1usize, 2, 4] {
                let set = base.scaled(s).unwrap();
                let slots = set.slots();
                assert_eq!(slots.len(), set.len().div_ceil(2), "scale {s}");
                let mut seen = vec![0usize; set.len()];
                for slot in slots {
                    let (e, o) = slot.kernels();
                    let o = o.unwrap_or_else(|| panic!("scale {s}: kernel {e} is unpaired"));
                    seen[e] += 1;
                    seen[o] += 1;
                    let (ke, ko) = (&set.kernels[e], &set.kernels[o]);
                    assert_eq!(slot.weights(), (ke.weight(), ko.weight()));
                    for ((t, a), b) in slot.table().iter().zip(ke.spectrum()).zip(ko.spectrum()) {
                        assert_eq!(*t, *a + *b);
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "scale {s}: {seen:?}");
            }
        }
        let m1 = KernelSet::build(&OpticsConfig::m1_default(), false).unwrap();
        assert_eq!(
            grouping(&m1),
            [(0, Some(1)), (3, Some(2)), (4, Some(5))],
            "pairs form greedily in weight order"
        );
    }

    #[test]
    fn defocused_kernels_stay_singletons() {
        for cfg in [OpticsConfig::m1_default(), OpticsConfig::test_small()] {
            let set = KernelSet::build(&cfg, true).unwrap();
            let alone: Vec<_> = (0..set.len()).map(|i| (i, None)).collect();
            assert_eq!(grouping(&set), alone);
            for (slot, k) in set.slots().iter().zip(set.iter()) {
                assert_eq!(slot.table(), k.spectrum());
                assert_eq!(slot.weights(), (k.weight(), k.weight()));
            }
        }
    }

    #[test]
    fn mixed_set_pairs_what_it_can_prove_and_nothing_else() {
        for p in [7usize, 8] {
            let set = mixed_parity_set(p);
            assert_eq!(
                grouping(&set),
                [(0, Some(2)), (1, None), (3, None), (4, None)],
                "P = {p}"
            );
            // Truncation can split a pair: the slots follow the kernels.
            assert_eq!(grouping(&set.truncate(2)), [(0, None), (1, None)]);
        }
    }

    #[test]
    fn near_misses_stay_unpaired() {
        let spectra = |set: &KernelSet| -> Vec<(f64, Vec<Complex>)> {
            set.iter()
                .take(3)
                .map(|k| (k.weight(), k.spectrum().to_vec()))
                .collect()
        };
        let pairs = |p: usize, kernels: Vec<(f64, Vec<Complex>)>| {
            let set = KernelSet::from_spectra(p, kernels);
            set.slots().iter().any(|s| s.kernels().1.is_some())
        };
        for p in [7usize, 8] {
            let clean = spectra(&mixed_parity_set(p));
            let peak = |h: &[Complex]| h.iter().map(|z| z.abs()).fold(0.0, f64::max);
            assert!(pairs(p, clean.clone()));
            // Kernel 2 is the only odd one; spoil it three ways, each a
            // thousand tolerances out.
            let centre = (p / 2) * p + p / 2;
            let mut off_parity = clean.clone();
            off_parity[2].1[centre + 1].re += 1e-9 * peak(&clean[2].1);
            assert!(!pairs(p, off_parity), "P = {p}: parity defect 1e-9");
            let mut off_real = clean.clone();
            off_real[2].1[centre + 1].im = 1e-9 * peak(&clean[2].1);
            assert!(!pairs(p, off_real), "P = {p}: Im of 1e-9 of the peak");
            if p.is_multiple_of(2) {
                // Row 0 is frequency -P/2: its mirror +P/2 is outside the
                // table, so anything there breaks the symmetry — though a
                // `P - 1 - i` mirror could be made to miss it.
                let mut rim = clean.clone();
                rim[2].1[p / 2] = Complex::from_re(0.3);
                rim[2].1[(p - 1) * p + p / 2 - 1] = Complex::from_re(-0.3);
                assert!(!pairs(p, rim), "P = {p}: nonzero -P/2 row");
            }
        }
    }

    #[test]
    fn estimated_bytes_counts_the_tables_held() {
        for set in [
            small(),
            KernelSet::build(&OpticsConfig::test_small(), true).unwrap(),
            mixed_parity_set(8),
            small().scaled(2).unwrap().truncate(3),
        ] {
            let held: usize = set
                .iter()
                .map(|k| std::mem::size_of_val(k.spectrum()))
                .chain(set.slots().iter().map(|s| std::mem::size_of_val(s.table())))
                .sum();
            assert_eq!(set.estimated_bytes(), held as u64);
        }
        // Nominal: K spectra + K/2 pair tables; defocused: K + K singletons.
        let (k, p) = (small().len() as u64, small().support() as u64);
        assert_eq!(small().estimated_bytes(), (k + k / 2) * p * p * 16);
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
    fn nominal_kernel_set_is_pinned() {
        // The nominal pupil and the Jacobi sweeps use only + - * / sqrt, so
        // these bits do not depend on the platform's libm: a change that
        // moves them changes every simulated image.
        let set = KernelSet::build(&OpticsConfig::test_small(), false).unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for k in set.iter() {
            let bits = k.spectrum().iter().flat_map(|h| [h.re, h.im]);
            for value in std::iter::once(k.weight()).chain(bits) {
                for byte in value.to_bits().to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 10_869_913_172_981_967_343);
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
