//! The Hopkins aerial-image simulator and its adjoint (gradient).
//!
//! Implements Eq. (1)–(3) of the paper: the aerial image is
//! `I = sum_i w_i |IFFT([H_i . FFT(M)]_P)|^2`, where each `H_i` occupies only
//! a small centered `P x P` support of the spectrum. The adjoint
//! (`gradient_into`) backpropagates a loss derivative `dL/dI` to the mask:
//! `dL/dM = 2 Re IFFT( sum_i w_i conj(H_i) . FFT((dL/dI) . A_i) )`.
//!
//! # Slots, not kernels
//!
//! The sums over `i` above run over the kernel set's [`crate::Slot`]s, one
//! complex transform each. A slot is a single kernel, or a pair of kernels
//! [`KernelSet`] has *proved* real in the frequency domain, one even and
//! one odd under `f -> -f` (the nominal kernels: six kernels, three
//! slots; no defocused kernel qualifies). For a real mask `H_e . FFT(M)` is
//! then Hermitian and `H_o . FFT(M)` anti-Hermitian, so the one inverse of
//! `(H_e + H_o) . FFT(M)` holds the purely real `A_e` in its real part and
//! the purely imaginary `A_o` in its imaginary part, and the intensity is
//! `sum_slots w_re Re^2 + w_im Im^2` (`w_re = w_im = w_i` for a single
//! kernel, whose `|A_i|^2` this is). The adjoint sends
//! `(dL/dI) . (w_re Re + i w_im Im)` through one forward transform and
//! multiplies by `conj(H_e + H_o)`; besides the two wanted terms the
//! product holds `w_o H_e X_o + w_e H_o X_e`, which is anti-Hermitian and
//! vanishes under the `2 Re IFFT(.)` (computed below as `S + R(S)` on the
//! stored half-spectrum). Exact algebra, no truncation: the tests hold both
//! passes to 1e-12 of a dense evaluation that never pairs anything.
//!
//! # Hot-path engineering
//!
//! The simulate/gradient pair is the inner loop of every ILT solver, so it
//! is built to keep its cost off the mask resolution, to run
//! allocation-free at steady state and to parallelise deterministically:
//!
//! * **Real input.** Masks and loss derivatives are real, so their spectra
//!   are conjugate symmetric: every `n`-size transform is a real-input
//!   [`Rfft2d`] one over the stored half-spectrum.
//! * **Support-limited real transforms.** Of the `n/2 + 1` stored columns
//!   of a mask-grid spectrum the optics can see very few: the crop `[.]_P`
//!   reads columns `0..=P/2` of the mask's, the `2P - 1` band columns
//!   `0..P` of `dL/dI`'s (14 and 27 of 129 at `n = 256`, `P = 27`), and the
//!   two `n`-size inverses start from spectra that are zero outside the
//!   same few columns. All four go through [`Rfft2d::forward_support`] /
//!   [`Rfft2d::inverse_support_scaled`], which hand the span of the column
//!   list down to their row passes: a forward row runs its half-length
//!   transform (reading the real row in place, in bit-reversed order — no
//!   packing or permutation pass) and untangles only the listed bins, the
//!   listed columns are gathered straight into their column transforms,
//!   and an inverse moves and re-tangles only the listed columns, its rows
//!   landing directly in the real output. A computed value is computed
//!   exactly as the dense transform would; what is not listed is never
//!   read (tests poison it with NaN).
//! * **Nyquist-grid evaluation.** Everything after the crop `[.]_P` is
//!   band-limited: a field `A_i` to the `P` support bins, the intensity
//!   `sum_i w_i |A_i|^2` to the `2P - 1` bins of their differences. Both
//!   are therefore represented *exactly* by their samples on a grid of
//!   `n_s = min(n, next_pow2(2P - 1))` points, and the simulator does
//!   all per-slot work there. Forward: one `n`-size real transform
//!   of the mask (crop columns only), one crop-multiply into an `n_s^2`
//!   buffer and one `n_s`-size inverse per slot, the intensity sum on `n_s^2`,
//!   then one `n_s`-size real forward, a copy of the `2P - 1` band into
//!   the `n`-size half-spectrum and one sparse `n`-size real inverse (scale
//!   `n_s^2 / n^2`) interpolate it back to the mask grid. The adjoint is
//!   the exact transpose: `dL/dI` is low-passed onto the `n_s` grid the
//!   same way (only its `2P - 1` band can reach the support), the per-slot
//!   products and forward transforms run at `n_s`, and the accumulated
//!   support goes through the one `n`-size real inverse. `n_s >= 2P - 1`
//!   means no product aliases into a bin that is read, so the results
//!   equal the mask-grid evaluation to rounding (~1e-15). When `n_s == n`
//!   (the kernels nearly fill the grid) the resampling steps drop out and
//!   the per-slot transforms run at `n`: one code path, parameterised by
//!   `n_s`. The tests compare it against a dense evaluation of the
//!   equations above at mask resolution.
//! * [`SimWorkspace`] is a scratch arena holding every buffer the two
//!   passes need. [`LithoSimulator::simulate_into`] /
//!   [`LithoSimulator::gradient_into`] reuse it across iterations without
//!   touching the heap. The per-slot fields, per-worker scratch and
//!   partials are `n_s^2` (0.2 MB instead of 6.3 MB for a 256-pixel tile
//!   with `K = 6` in three slots, `P = 27`), so the per-slot loop works
//!   out of L2.
//! * Per-slot work (the inverse transforms of the forward pass, the
//!   forward transforms of the adjoint) is spread across an
//!   [`ilt_par::InnerPool`]. Each slot writes its own buffer and all
//!   cross-slot reductions happen serially in slot order afterwards, so
//!   results are **bit-identical** for any thread count.
//! * Per-slot inverses use [`Fft2d::inverse_support`], skipping the
//!   first-pass transforms of the `n_s - P` rows the `P x P` crop left
//!   zero; per-slot forwards use [`Fft2d::forward_support_transposed`],
//!   skipping the `n_s - P` column transforms nobody reads. With the
//!   support-limited real transforms above, what is left at mask resolution
//!   is what cannot shrink: the real row passes over the `n^2` pixels that
//!   come in and go out, and the `O(P)` column transforms between them.
//! * Under all of it sits one 1-D engine (`ilt_fft::FftPlan`): whole-array
//!   butterfly passes that keep two consecutive radix-2 stages in
//!   registers, bit-identical to the stage-at-a-time loop they replaced,
//!   each compiled three times (portable, `avx2,fma`, `avx512f`; the two
//!   vector bodies bit-identical to each other) with the widest body the
//!   CPU reports chosen once per process (`ilt_fft::simd::body_name`).
//!   At `n = 256`, `s = 1` the four `n`-size real transforms are ~0.4 ms
//!   of a ~0.6 ms simulate + gradient pair; at the coarsest level, where
//!   `n_s = n`, the three slots' complex transforms are 2.0 ms of 3.3 ms.

use ilt_fft::{spectral, Complex, Fft2d, Rfft2d};
use ilt_grid::{Grid, RealGrid};
use ilt_par::InnerPool;

use crate::error::LithoError;
use crate::kernels::KernelSet;

/// Edge `n_s = min(n, next_pow2(2P - 1))` of the grid the per-slot fields
/// are evaluated on: the fields span `P` bins and the intensity the
/// `2P - 1` bins of their differences, so `2P - 1` samples per axis carry
/// both exactly.
fn nyquist_edge(n: usize, support: usize) -> usize {
    (2 * support).saturating_sub(1).next_power_of_two().min(n)
}

/// A reusable aerial-image simulator for square `n x n` masks.
#[derive(Debug)]
pub struct LithoSimulator {
    n: usize,
    /// Real-input plan for the `n`-size transforms of the mask, `dL/dI`,
    /// the interpolated intensity and the gradient.
    rfft: Rfft2d,
    kernels: KernelSet,
    /// `bin[i]` is the unshifted spectrum index of centered support row or
    /// column `i`.
    bin: Vec<usize>,
    /// Stored half-spectrum columns (`0..=n/2`) the Hermitianised adjoint
    /// accumulator can touch: the support columns and their reflections.
    rbin_cols: Vec<usize>,
    /// Edge of the grid the per-slot fields are evaluated on (see
    /// [`nyquist_edge`]).
    ns: usize,
    /// Complex plan for the `n_s`-grid per-slot transforms.
    ns_fft: Fft2d,
    /// Real plan moving the intensity and `dL/dI` between the `n_s` and
    /// `n` grids (`None` when `n_s == n`: nothing to resample).
    ns_rfft: Option<Rfft2d>,
    /// [`LithoSimulator::bin`] on the `n_s` grid.
    ns_bin: Vec<usize>,
    /// Stored half-spectrum columns `0..P` holding the intensity's
    /// `2P - 1` band (the same indices on either grid). Its prefix
    /// `0..=P/2` is what the crop `[.]_P` reads of the mask's spectrum:
    /// the support's columns `-P/2..P - P/2`, the negative ones through
    /// the Hermitian mirror.
    band_cols: Vec<usize>,
    /// Worker pool for per-slot and per-row-batch parallelism. Serial by
    /// default; see [`LithoSimulator::with_inner_pool`].
    pool: InnerPool,
}

/// The buffer shape a [`SimWorkspace`] is sized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkspaceShape {
    n: usize,
    slots: usize,
    support: usize,
    workers: usize,
}

/// Reusable scratch arena for [`LithoSimulator::simulate_into`] and
/// [`LithoSimulator::gradient_into`].
///
/// Holds every intermediate buffer of the forward and adjoint passes so
/// steady-state solver iterations perform no heap allocation. Create one
/// with [`LithoSimulator::workspace`] and reuse it across iterations; if it
/// is ever handed to a simulator of a different shape it transparently
/// reallocates (counted on the `litho.workspace.realloc` telemetry
/// counter).
#[derive(Debug)]
pub struct SimWorkspace {
    shape: WorkspaceShape,
    /// Half-spectrum of the mask (forward pass) or of `dL/dI` (adjoint
    /// pass, when `n_s < n`) in transposed `(n/2+1) x n` layout. Only the
    /// stored columns each pass reads (`0..=P/2`, `0..P`) are computed;
    /// the rest hold whatever an earlier call left there.
    half_spectrum: Vec<Complex>,
    /// Real-transform scratch, `(n/2+1) * n`.
    rscratch: Vec<Complex>,
    /// `n`-size half-spectrum staged for the sparse real inverse: the
    /// Hermitianised adjoint accumulator, and the embedded intensity band
    /// when `n_s < n`; `(n/2+1) * n`. Only its first `min(P, n/2+1)` stored
    /// columns are ever written — each user clears those and relies on the
    /// rest staying zero.
    raccum: Vec<Complex>,
    /// Per-slot fields (see [`SimWorkspace::fields`]).
    fields: Vec<Vec<Complex>>,
    /// Per-slot adjoint support products, each `P^2`.
    partials: Vec<Vec<Complex>>,
    /// Per-worker scratch for the adjoint forward transforms, each `n_s^2`.
    scratch: Vec<Vec<Complex>>,
    /// Real `n_s^2` image: the intensity before interpolation (forward
    /// pass), the low-passed `dL/dI` (adjoint pass). Empty when `n_s == n`.
    ns_real: Vec<f64>,
    /// Its half-spectrum, `(n_s/2+1) * n_s`. Empty when `n_s == n`.
    ns_half: Vec<Complex>,
    /// Real-transform scratch of the same size. Empty when `n_s == n`.
    ns_scratch: Vec<Complex>,
    /// The aerial image written by the forward pass.
    intensity: RealGrid,
    /// The mask gradient written by the adjoint pass.
    grad: RealGrid,
}

impl SimWorkspace {
    fn new(shape: WorkspaceShape) -> Self {
        let WorkspaceShape {
            n,
            slots,
            support,
            workers,
        } = shape;
        let ns = nyquist_edge(n, support);
        let half_len = (n / 2 + 1) * n;
        let (ns_len, ns_half_len) = if ns < n {
            (ns * ns, (ns / 2 + 1) * ns)
        } else {
            (0, 0)
        };
        SimWorkspace {
            shape,
            half_spectrum: vec![Complex::ZERO; half_len],
            rscratch: vec![Complex::ZERO; half_len],
            raccum: vec![Complex::ZERO; half_len],
            fields: (0..slots).map(|_| vec![Complex::ZERO; ns * ns]).collect(),
            partials: (0..slots)
                .map(|_| vec![Complex::ZERO; support * support])
                .collect(),
            scratch: (0..workers).map(|_| vec![Complex::ZERO; ns * ns]).collect(),
            ns_real: vec![0.0; ns_len],
            ns_half: vec![Complex::ZERO; ns_half_len],
            ns_scratch: vec![Complex::ZERO; ns_half_len],
            intensity: Grid::new(n, n, 0.0),
            grad: Grid::new(n, n, 0.0),
        }
    }

    /// Grid edge length this workspace is currently sized for.
    #[inline]
    pub fn n(&self) -> usize {
        self.shape.n
    }

    /// The aerial image produced by the most recent
    /// [`LithoSimulator::simulate_into`].
    #[inline]
    pub fn intensity(&self) -> &RealGrid {
        &self.intensity
    }

    /// One complex field per [`crate::Slot`] of the kernel set, produced
    /// by the most recent [`LithoSimulator::simulate_into`]. A singleton
    /// slot holds its kernel's field `A_i = h_i (x) M`; a paired slot holds
    /// `A_e + A_o`, whose real part **is** the even kernel's (purely real)
    /// field and whose imaginary part is the odd kernel's (purely
    /// imaginary) field over `i` — so the intensity is
    /// `sum_slots w_re . Re^2 + w_im . Im^2` with [`crate::Slot::weights`].
    /// Fields are sampled on the optics' Nyquist grid: `n_s^2` values each,
    /// with `fields[k][y * n_s + x] = (n / n_s)^2 .` the field at mask
    /// pixel `(x, y) . n / n_s` (the inverse is normalised for `n_s`, and
    /// the adjoint and the intensity interpolation absorb the factor). When
    /// `n_s == n` they are the `n^2` mask-grid fields.
    #[inline]
    pub fn fields(&self) -> &[Vec<Complex>] {
        &self.fields
    }

    /// The mask gradient produced by the most recent
    /// [`LithoSimulator::gradient_into`].
    #[inline]
    pub fn grad(&self) -> &RealGrid {
        &self.grad
    }

    /// Re-creates the workspace unless it already fits `shape` (a larger
    /// per-worker scratch set is fine). Steady-state calls compare a
    /// handful of integers and touch nothing.
    fn ensure(&mut self, shape: WorkspaceShape) {
        let fits = self.shape.workers >= shape.workers
            && shape
                == WorkspaceShape {
                    workers: shape.workers,
                    ..self.shape
                };
        if !fits {
            ilt_telemetry::counter_add("litho.workspace.realloc", 1);
            *self = SimWorkspace::new(shape);
        }
    }
}

impl LithoSimulator {
    /// Creates a simulator for `n x n` masks using the given (already
    /// scaled) kernel set.
    ///
    /// The simulator starts with the process-configured inner pool
    /// ([`InnerPool::current`], i.e. the `ILT_INNER_THREADS` budget); use
    /// [`LithoSimulator::with_inner_pool`] to override it explicitly.
    ///
    /// # Errors
    ///
    /// * [`LithoError::GridMismatch`] if the kernel support exceeds `n`;
    /// * [`LithoError::Fft`] if `n` is not a power of two of at least 2.
    pub fn new(n: usize, kernels: KernelSet) -> Result<Self, LithoError> {
        if kernels.support() > n {
            return Err(LithoError::GridMismatch {
                grid: n,
                support: kernels.support(),
            });
        }
        let rfft = Rfft2d::new(n)?;
        let p = kernels.support();
        let half = p as i64 / 2;
        let bins = |grid: usize| -> Vec<usize> {
            (0..p)
                .map(|i| spectral::wrap_index(i as i64 - half, grid))
                .collect()
        };
        let bin = bins(n);
        // Stored columns the Hermitianised adjoint accumulator can touch:
        // every support column that lands in the stored half, plus the
        // stored image of every support column's reflection.
        let hw = n / 2 + 1;
        let mut rbin_cols: Vec<usize> = bin
            .iter()
            .flat_map(|&c| {
                let refl = (n - c) % n;
                [(c < hw).then_some(c), (refl < hw).then_some(refl)]
            })
            .flatten()
            .collect();
        rbin_cols.sort_unstable();
        rbin_cols.dedup();
        let ns = nyquist_edge(n, p);
        let ns_rfft = if ns < n { Some(Rfft2d::new(ns)?) } else { None };
        Ok(LithoSimulator {
            n,
            rfft,
            kernels,
            bin,
            rbin_cols,
            ns,
            ns_fft: Fft2d::new(ns, ns)?,
            ns_rfft,
            ns_bin: bins(ns),
            band_cols: (0..p).collect(),
            pool: InnerPool::current(),
        })
    }

    /// Returns `self` with the given inner pool (builder style).
    #[must_use]
    pub fn with_inner_pool(mut self, pool: InnerPool) -> Self {
        self.pool = pool;
        self
    }

    /// When the fields live on a coarser grid than the mask: the real plan
    /// for the `n_s` grid, and the factor `n_s^2 / n^2` both resampling
    /// directions carry (the adjoint is the transpose of the
    /// interpolation, so they must agree).
    #[inline]
    fn resampler(&self) -> Option<(&Rfft2d, f64)> {
        let scale = (self.ns * self.ns) as f64 / (self.n * self.n) as f64;
        self.ns_rfft.as_ref().map(|plan| (plan, scale))
    }

    /// Replaces the inner pool used for per-slot parallelism.
    pub fn set_inner_pool(&mut self, pool: InnerPool) {
        self.pool = pool;
    }

    /// The inner pool currently in use.
    #[inline]
    pub fn inner_pool(&self) -> InnerPool {
        self.pool
    }

    /// Simulation grid edge length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The kernel set in use.
    #[inline]
    pub fn kernels(&self) -> &KernelSet {
        &self.kernels
    }

    /// The workspace shape this simulator and its pool need.
    fn shape(&self) -> WorkspaceShape {
        WorkspaceShape {
            n: self.n,
            slots: self.kernels.slots().len(),
            support: self.kernels.support(),
            workers: self.pool.threads(),
        }
    }

    /// Creates a scratch arena sized for this simulator and its pool.
    pub fn workspace(&self) -> SimWorkspace {
        SimWorkspace::new(self.shape())
    }

    /// Runs the forward model into a reusable workspace: the aerial image
    /// lands in [`SimWorkspace::intensity`], the per-slot fields (needed
    /// by the adjoint) in [`SimWorkspace::fields`]. Performs no heap
    /// allocation when the workspace already matches this simulator.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::MaskShape`] if the mask is not `n x n`.
    pub fn simulate_into(&self, mask: &RealGrid, ws: &mut SimWorkspace) -> Result<(), LithoError> {
        ilt_telemetry::counter_add("litho.simulate", 1);
        self.check_shape(mask)?;
        let n = self.n;
        let p = self.kernels.support();
        ws.ensure(self.shape());

        // The mask is real: a half-length rfft produces the stored half of
        // its conjugate-symmetric spectrum; the crop-multiply reads the
        // missing half through the symmetry and writes the same signed
        // frequencies of the n_s-grid field spectrum. Only the columns the
        // crop reads are transformed.
        self.rfft.forward_support(
            mask.as_slice(),
            &mut ws.half_spectrum,
            &mut ws.rscratch,
            Some(&self.band_cols[..=p / 2]),
            &self.pool,
        )?;
        let slots = self.kernels.slots();
        let bin = &self.bin;
        let hw = n / 2 + 1;
        let half = &ws.half_spectrum;
        let (ns, ns_bin, ns_fft) = (self.ns, &self.ns_bin, &self.ns_fft);
        // One slot per buffer: disjoint writes, so the pool changes
        // nothing about the result.
        self.pool.for_each_mut(&mut ws.fields, |k, field| {
            let h = slots[k].table();
            field.fill(Complex::ZERO);
            for r in 0..p {
                let rr = bin[r];
                let row = ns_bin[r] * ns;
                for c in 0..p {
                    let cc = bin[c];
                    // Hermitian lookup: stored columns are transposed
                    // (column-contiguous), mirrored columns conjugate.
                    let m = if cc < hw {
                        half[cc * n + rr]
                    } else {
                        half[(n - cc) * n + (n - rr) % n].conj()
                    };
                    field[row + ns_bin[c]] = m * h[r * p + c];
                }
            }
            ns_fft
                .inverse_support(field, ns_bin)
                .expect("field buffer matches plan by construction");
        });

        // Intensity reduction stays serial and in slot order so the sum
        // is bit-identical regardless of the pool. It runs on the fields'
        // own grid: straight into the output unless that grid is coarser.
        let resample = self.resampler();
        let sum: &mut [f64] = match resample {
            Some(_) => &mut ws.ns_real,
            None => ws.intensity.as_mut_slice(),
        };
        sum.fill(0.0);
        for (slot, field) in slots.iter().zip(&ws.fields) {
            let (w_re, w_im) = slot.weights();
            for (acc, z) in sum.iter_mut().zip(field) {
                *acc += w_re * (z.re * z.re) + w_im * (z.im * z.im);
            }
        }
        if let Some((ns_rfft, scale)) = resample {
            // Band-limited interpolation n_s -> n: the intensity occupies
            // only |k| <= P - 1, so zero-padding its spectrum is exact. The
            // n_s-size transforms are too small to be worth pool dispatch.
            ns_rfft.forward_support(
                &ws.ns_real,
                &mut ws.ns_half,
                &mut ws.ns_scratch,
                Some(&self.band_cols),
                &InnerPool::serial(),
            )?;
            spectral::copy_half_band(&ws.ns_half, self.ns, &mut ws.raccum, n, p - 1)?;
            // Why n_s^2/n^2: the summed |field|^2 carries (n/n_s)^4 (see
            // `SimWorkspace::fields`), and the n_s-point DFT of a
            // band-limited image is (n_s/n)^2 of its n-point one.
            self.rfft.inverse_support_scaled(
                &mut ws.raccum,
                ws.intensity.as_mut_slice(),
                &mut ws.rscratch,
                Some(&self.band_cols),
                scale,
                &self.pool,
            )?;
        }
        Ok(())
    }

    /// Convenience wrapper returning only the aerial image, through a
    /// workspace of its own (what printing and inspection call; solver
    /// loops use [`LithoSimulator::simulate_into`]).
    ///
    /// # Errors
    ///
    /// Same as [`LithoSimulator::simulate_into`].
    pub fn aerial_image(&self, mask: &RealGrid) -> Result<RealGrid, LithoError> {
        let mut ws = self.workspace();
        self.simulate_into(mask, &mut ws)?;
        Ok(ws.intensity)
    }

    /// Backpropagates `dL/dI` using the fields left in the workspace by the
    /// preceding [`LithoSimulator::simulate_into`] call. The gradient lands
    /// in [`SimWorkspace::grad`] (also returned by reference). Performs no
    /// heap allocation when the workspace already matches this simulator.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::MaskShape`] if `dldi` is not `n x n`.
    pub fn gradient_into<'w>(
        &self,
        ws: &'w mut SimWorkspace,
        dldi: &RealGrid,
    ) -> Result<&'w RealGrid, LithoError> {
        ilt_telemetry::counter_add("litho.gradient", 1);
        self.check_shape(dldi)?;
        let n = self.n;
        let p = self.kernels.support();
        ws.ensure(self.shape());

        // The per-slot products run on the fields' grid. When that is the
        // coarser n_s grid, dL/dI goes there first — the transpose of the
        // forward pass's interpolation: keep its |k| <= P - 1 band (nothing
        // else can reach the support through a product with a P-bin field)
        // and carry the same scale.
        let dldi_field: &[f64] = match self.resampler() {
            Some((ns_rfft, scale)) => {
                self.rfft.forward_support(
                    dldi.as_slice(),
                    &mut ws.half_spectrum,
                    &mut ws.rscratch,
                    Some(&self.band_cols),
                    &self.pool,
                )?;
                // The forward pass left the intensity's spectrum here; the
                // sparse inverse needs zeros outside the band.
                ws.ns_half.fill(Complex::ZERO);
                spectral::copy_half_band(&ws.half_spectrum, n, &mut ws.ns_half, self.ns, p - 1)?;
                ns_rfft.inverse_support_scaled(
                    &mut ws.ns_half,
                    &mut ws.ns_real,
                    &mut ws.ns_scratch,
                    Some(&self.band_cols),
                    scale,
                    &InnerPool::serial(),
                )?;
                &ws.ns_real
            }
            None => dldi.as_slice(),
        };

        // Per slot: scratch = dL/dI . (w_re Re + i w_im Im) of its field,
        // forward transform, then record the conjugate-table product on the
        // P x P support only. For a pair that product also holds the cross
        // terms H_e X_o + H_o X_e; they are anti-Hermitian, so the
        // Hermitianised reduction below cancels them. Each slot owns its
        // partial buffer; workers never share scratch.
        let slots = self.kernels.slots();
        let bin = &self.bin;
        let fields = &ws.fields;
        let (ns, ns_bin, ns_fft) = (self.ns, &self.ns_bin, &self.ns_fft);
        self.pool.for_each_with_scratch(
            &mut ws.partials,
            &mut ws.scratch,
            |k, partial, scratch| {
                let (w_re, w_im) = slots[k].weights();
                for ((dst, a), &g) in scratch.iter_mut().zip(&fields[k]).zip(dldi_field) {
                    *dst = Complex::new(w_re * g * a.re, w_im * g * a.im);
                }
                let h = slots[k].table();
                // Only the P support columns of the spectrum are read
                // below, so the forward can skip the other column
                // transforms. The result is transposed; the pool slot is
                // already a worker, so the column pass stays serial.
                ns_fft
                    .forward_support_transposed(scratch, ns_bin, &InnerPool::serial())
                    .expect("scratch buffer matches plan by construction");
                for r in 0..p {
                    for c in 0..p {
                        let idx = ns_bin[c] * ns + ns_bin[r];
                        partial[r * p + c] = scratch[idx] * h[r * p + c].conj();
                    }
                }
            },
        );

        // Fixed-order Hermitianised reduction: accumulate S + R(S) where
        // R(S)(r,c) = conj(S((n-r)%n, (n-c)%n)), so the inverse rfft of
        // the half-spectrum yields 2.Re(IFFT(S)) = dL/dM directly.
        let hw = n / 2 + 1;
        ws.raccum[..p.min(hw) * n].fill(Complex::ZERO);
        for partial in &ws.partials {
            for r in 0..p {
                let rr = bin[r];
                let r2 = (n - rr) % n;
                for c in 0..p {
                    let cc = bin[c];
                    let v = partial[r * p + c];
                    if cc < hw {
                        ws.raccum[cc * n + rr] += v;
                    }
                    let c2 = (n - cc) % n;
                    if c2 < hw {
                        ws.raccum[c2 * n + r2] += v.conj();
                    }
                }
            }
        }
        // Only the support columns (and their reflections) are nonzero,
        // so the inverse skips the rest of the first-pass transforms.
        self.rfft.inverse_support_scaled(
            &mut ws.raccum,
            ws.grad.as_mut_slice(),
            &mut ws.rscratch,
            Some(&self.rbin_cols),
            1.0,
            &self.pool,
        )?;
        Ok(&ws.grad)
    }

    fn check_shape(&self, grid: &RealGrid) -> Result<(), LithoError> {
        if grid.width() != self.n || grid.height() != self.n {
            return Err(LithoError::MaskShape {
                expected: self.n,
                actual: (grid.width(), grid.height()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::mixed_parity_set;
    use crate::kernels::KernelSet;
    use crate::optics::OpticsConfig;
    use ilt_grid::{Grid, Rect};

    fn simulator() -> LithoSimulator {
        let cfg = OpticsConfig::test_small();
        let kernels = KernelSet::build(&cfg, false).unwrap();
        LithoSimulator::new(cfg.base_n, kernels).unwrap()
    }

    fn wavy_mask(n: usize) -> RealGrid {
        Grid::from_fn(n, n, |x, y| {
            0.3 + 0.2 * ((x as f64 * 0.3).sin() * (y as f64 * 0.21).cos())
        })
    }

    #[test]
    fn rejects_oversized_support() {
        let cfg = OpticsConfig::test_small();
        let kernels = KernelSet::build(&cfg, false).unwrap();
        assert!(matches!(
            LithoSimulator::new(16, kernels),
            Err(LithoError::GridMismatch { .. })
        ));
    }

    #[test]
    fn rejects_a_grid_too_small_for_the_real_transform() {
        // A 1 x 1 grid passes the support check but cannot be packed into a
        // half-length complex transform.
        let kernels = KernelSet::from_spectra(1, vec![(1.0, vec![Complex::new(1.0, 0.0)])]);
        assert_eq!(
            LithoSimulator::new(1, kernels).unwrap_err(),
            LithoError::Fft(ilt_fft::FftError::NonPowerOfTwo { len: 1 })
        );
    }

    #[test]
    fn rejects_wrong_mask_shape() {
        let sim = simulator();
        let mask = Grid::new(32, 32, 0.0);
        assert!(matches!(
            sim.aerial_image(&mask),
            Err(LithoError::MaskShape { .. })
        ));
        let good = Grid::new(sim.n(), sim.n(), 0.5);
        let mut ws = sim.workspace();
        sim.simulate_into(&good, &mut ws).unwrap();
        assert!(matches!(
            sim.gradient_into(&mut ws, &mask),
            Err(LithoError::MaskShape { .. })
        ));
    }

    #[test]
    fn clear_field_prints_at_unity() {
        let sim = simulator();
        let mask = Grid::new(sim.n(), sim.n(), 1.0);
        let aerial = sim.aerial_image(&mask).unwrap();
        for (_, _, &v) in aerial.iter() {
            assert!((v - 1.0).abs() < 1e-9, "clear field intensity {v}");
        }
    }

    #[test]
    fn dark_field_prints_nothing() {
        let sim = simulator();
        let mask = Grid::new(sim.n(), sim.n(), 0.0);
        let aerial = sim.aerial_image(&mask).unwrap();
        assert!(aerial.max() < 1e-12);
    }

    #[test]
    fn intensity_is_nonnegative_and_bounded() {
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(20, 20, 44, 44), 1.0);
        let aerial = sim.aerial_image(&mask).unwrap();
        assert!(aerial.min() >= 0.0);
        // A binary mask can slightly overshoot 1 via ringing, but not wildly.
        assert!(aerial.max() < 1.6, "max {}", aerial.max());
    }

    #[test]
    fn image_is_blurred_version_of_mask() {
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(24, 24, 40, 40), 1.0);
        let aerial = sim.aerial_image(&mask).unwrap();
        // Bright inside, dim far away, intermediate at the edge.
        assert!(aerial.get(32, 32) > 0.4);
        assert!(aerial.get(4, 4) < 0.05);
        let edge = aerial.get(24, 32);
        assert!(edge > 0.1 && edge < aerial.get(32, 32));
    }

    #[test]
    fn shift_invariance() {
        // Shifting the mask shifts the image (circularly).
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(10, 12, 22, 20), 1.0);
        let a = sim.aerial_image(&mask).unwrap();
        let mut shifted = Grid::new(n, n, 0.0);
        shifted.fill_rect(Rect::new(15, 12, 27, 20), 1.0);
        let b = sim.aerial_image(&shifted).unwrap();
        for y in 0..n {
            for x in 0..n - 5 {
                assert!((a.get(x, y) - b.get(x + 5, y)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn fields_match_intensity() {
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(16, 16, 48, 32), 1.0);
        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        assert_eq!(ws.fields().len(), sim.kernels().slots().len());
        let recomputed: f64 = sim
            .kernels()
            .slots()
            .iter()
            .zip(ws.fields())
            .map(|(slot, f)| {
                let ((w_re, w_im), z) = (slot.weights(), f[33 * n + 20]);
                w_re * z.re * z.re + w_im * z.im * z.im
            })
            .sum();
        assert!((recomputed - ws.intensity().get(20, 33)).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let sim = simulator();
        let n = sim.n();
        let mut mask = wavy_mask(n);
        // Loss: L = sum I (so dL/dI = 1 everywhere).
        let dldi = Grid::new(n, n, 1.0);
        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        let base: f64 = ws.intensity().sum();
        let grad = sim.gradient_into(&mut ws, &dldi).unwrap();

        let eps = 1e-5;
        for &(px, py) in &[(10usize, 10usize), (30, 17), (5, 40)] {
            let original = mask.get(px, py);
            mask.set(px, py, original + eps);
            let bumped: f64 = sim.aerial_image(&mask).unwrap().sum();
            mask.set(px, py, original);
            let numeric = (bumped - base) / eps;
            let analytic = grad.get(px, py);
            assert!(
                (numeric - analytic).abs() < 1e-3 * (1.0 + numeric.abs()),
                "at ({px},{py}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_of_weighted_loss_matches_finite_difference() {
        // dL/dI varying per pixel exercises the per-slot product path.
        let sim = simulator();
        let n = sim.n();
        let mut mask = Grid::from_fn(n, n, |x, y| ((x + y) % 3) as f64 * 0.4);
        let dldi = Grid::from_fn(n, n, |x, y| ((x as f64 - y as f64) * 0.01).tanh());
        let loss = |intensity: &RealGrid| -> f64 {
            intensity
                .as_slice()
                .iter()
                .zip(dldi.as_slice())
                .map(|(i, g)| i * g)
                .sum()
        };
        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        let base = loss(ws.intensity());
        let grad = sim.gradient_into(&mut ws, &dldi).unwrap();
        let eps = 1e-5;
        let (px, py) = (22, 13);
        let original = mask.get(px, py);
        mask.set(px, py, original + eps);
        let bumped = loss(&sim.aerial_image(&mask).unwrap());
        mask.set(px, py, original);
        let numeric = (bumped - base) / eps;
        let analytic = grad.get(px, py);
        assert!(
            (numeric - analytic).abs() < 1e-3 * (1.0 + numeric.abs()),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation() {
        let sim = simulator();
        let n = sim.n();
        let mask = wavy_mask(n);
        let dldi = Grid::from_fn(n, n, |x, y| ((x * 3 + y) % 7) as f64 * 0.1 - 0.3);

        // A fresh workspace, used once.
        let mut fresh = sim.workspace();
        sim.simulate_into(&mask, &mut fresh).unwrap();
        sim.gradient_into(&mut fresh, &dldi).unwrap();

        // One workspace reused across three iterations.
        let mut ws = sim.workspace();
        for _ in 0..3 {
            sim.simulate_into(&mask, &mut ws).unwrap();
            sim.gradient_into(&mut ws, &dldi).unwrap();
        }
        assert_eq!(fresh.intensity().as_slice(), ws.intensity().as_slice());
        assert_eq!(fresh.grad().as_slice(), ws.grad().as_slice());
    }

    #[test]
    fn parallel_pool_is_bit_identical_to_serial() {
        let cfg = OpticsConfig::test_small();
        let kernels = KernelSet::build(&cfg, false).unwrap();
        let serial = LithoSimulator::new(cfg.base_n, kernels.clone())
            .unwrap()
            .with_inner_pool(InnerPool::serial());
        let parallel = LithoSimulator::new(cfg.base_n, kernels)
            .unwrap()
            .with_inner_pool(InnerPool::new(4));
        let n = serial.n();
        let mask = wavy_mask(n);
        let dldi = Grid::from_fn(n, n, |x, y| ((x as f64 - y as f64) * 0.01).tanh());

        let mut ws_s = serial.workspace();
        serial.simulate_into(&mask, &mut ws_s).unwrap();
        serial.gradient_into(&mut ws_s, &dldi).unwrap();

        let mut ws_p = parallel.workspace();
        parallel.simulate_into(&mask, &mut ws_p).unwrap();
        parallel.gradient_into(&mut ws_p, &dldi).unwrap();

        assert_eq!(ws_s.intensity().as_slice(), ws_p.intensity().as_slice());
        assert_eq!(ws_s.grad().as_slice(), ws_p.grad().as_slice());
        for (a, b) in ws_s.fields().iter().zip(ws_p.fields()) {
            assert_eq!(a, b);
        }
    }

    /// Eq. (1)–(3) and the adjoint evaluated densely at mask resolution with
    /// plain complex transforms, one kernel at a time, straight from the
    /// formulas in the module docs: the reference implementation the
    /// simulator (and its pairing of kernels into slots) is tested against.
    fn dense_reference(
        sim: &LithoSimulator,
        mask: &RealGrid,
        dldi: &RealGrid,
    ) -> (Vec<f64>, Vec<f64>) {
        let (n, p) = (sim.n(), sim.kernels().support());
        let fft = Fft2d::new(n, n).unwrap();
        let bin: Vec<usize> = (0..p)
            .map(|i| spectral::wrap_index(i as i64 - p as i64 / 2, n))
            .collect();
        let mut spectrum: Vec<Complex> = mask
            .as_slice()
            .iter()
            .map(|&v| Complex::from_re(v))
            .collect();
        fft.forward(&mut spectrum).unwrap();
        let mut intensity = vec![0.0; n * n];
        let mut accum = vec![Complex::ZERO; n * n];
        for kernel in sim.kernels().iter() {
            let mut field = vec![Complex::ZERO; n * n];
            for r in 0..p {
                for c in 0..p {
                    let idx = bin[r] * n + bin[c];
                    field[idx] = spectrum[idx] * kernel.spectrum()[r * p + c];
                }
            }
            fft.inverse(&mut field).unwrap();
            for (acc, z) in intensity.iter_mut().zip(&field) {
                *acc += kernel.weight() * z.norm_sqr();
            }
            for (z, &g) in field.iter_mut().zip(dldi.as_slice()) {
                *z = z.scale(g);
            }
            fft.forward(&mut field).unwrap();
            for r in 0..p {
                for c in 0..p {
                    let idx = bin[r] * n + bin[c];
                    let adjoint = kernel.spectrum()[r * p + c].conj().scale(kernel.weight());
                    accum[idx] += field[idx] * adjoint;
                }
            }
        }
        fft.inverse(&mut accum).unwrap();
        (intensity, accum.iter().map(|z| 2.0 * z.re).collect())
    }

    #[test]
    fn simulator_agrees_with_dense_reference() {
        let sim = simulator();
        let n = sim.n();
        let mask = wavy_mask(n);
        let dldi = Grid::from_fn(n, n, |x, y| ((x as f64 - y as f64) * 0.01).tanh());

        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        sim.gradient_into(&mut ws, &dldi).unwrap();
        let (intensity, grad) = dense_reference(&sim, &mask, &dldi);

        // Different transform orders: equal to floating-point tolerance,
        // not bit for bit.
        for (a, b) in ws.intensity().as_slice().iter().zip(&intensity) {
            assert!((a - b).abs() < 1e-10, "intensity {a} vs {b}");
        }
        for (a, b) in ws.grad().as_slice().iter().zip(&grad) {
            assert!((a - b).abs() < 1e-9, "grad {a} vs {b}");
        }
    }

    // ---- Nyquist-grid evaluation (n_s < n) against the dense reference ----

    /// Simulator set-ups with the `n_s` each must pick: coarser than the
    /// mask grid (`n >= 2 n_s`) except for the last, where the kernels fill
    /// the grid and pairing them is all that is left to save.
    fn nyquist_cases() -> Vec<(&'static str, usize, KernelSet, usize)> {
        let small = KernelSet::build(&OpticsConfig::test_small(), false).unwrap();
        let m1 = KernelSet::build(&OpticsConfig::m1_default(), false).unwrap();
        // Every support bin populated, rim included, at the tightest fits:
        // 2P - 1 = 13 and 15 of the 16 points (odd and even support).
        let dense = |p: usize, seed: u64| {
            let values = noise(2 * p, seed);
            let spectrum = |k: usize| -> Vec<Complex> {
                (0..p * p)
                    .map(|i| {
                        Complex::new(
                            values.get(i % p, i / p),
                            values.get(p + i % p, k * p + i / p),
                        )
                    })
                    .collect()
            };
            KernelSet::from_spectra(p, vec![(0.6, spectrum(0)), (0.3, spectrum(1))])
        };
        vec![
            ("dense P=7@32", 32, dense(7, 0x0bad_c0de_1234_5678), 16),
            ("dense P=8@32", 32, dense(8, 0x8765_4321_0fed_cba9), 16),
            // P = 23: 2P - 1 = 45 -> 64.
            ("test_small@128", 128, small.clone(), 64),
            ("test_small@256", 256, small.clone(), 64),
            // Even support P = 46: 2P - 1 = 91 -> 128.
            ("test_small x2@256", 256, small.scaled(2).unwrap(), 128),
            // One pair and three singletons (a second even kernel, a complex
            // one, a real one without parity), odd and even support.
            ("mixed P=7@32", 32, mixed_parity_set(7), 16),
            ("mixed P=8@32", 32, mixed_parity_set(8), 16),
            // The paper-scale fine tile, P = 27: 53 -> 64.
            ("m1_default@256", 256, m1.clone(), 64),
            // The coarse levels, where the per-slot transforms are nearly
            // all of a pass: even support P = 54 (107 -> 128) and P = 108
            // (215 -> 256 = n).
            ("m1_default x2@256", 256, m1.scaled(2).unwrap(), 128),
            ("m1_default x4@256", 256, m1.scaled(4).unwrap(), 256),
        ]
    }

    /// Deterministic values in `[-1, 1)` with no spatial correlation.
    fn noise(n: usize, mut state: u64) -> RealGrid {
        Grid::from_fn(n, n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
    }

    /// Binary mask with hard edges, a one-pixel line and a lone pixel: a
    /// spectrum that fills the whole `n`-grid band, far beyond `n_s`.
    fn hard_mask(n: usize) -> RealGrid {
        let mut mask = Grid::new(n, n, 0.0);
        let e = n as i64;
        mask.fill_rect(Rect::new(e / 8, e / 6, e / 2 + 3, e / 3), 1.0);
        mask.fill_rect(Rect::new(e / 2 + 9, e / 2, e - 7, e - 11), 1.0);
        mask.fill_rect(Rect::new(5, e - 9, e - 5, e - 8), 1.0);
        mask.set(n - 3, 2, 1.0);
        mask
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn nyquist_grid_matches_dense_reference() {
        for (name, n, kernels, ns) in nyquist_cases() {
            let sim = LithoSimulator::new(n, kernels).unwrap();
            let mask = hard_mask(n);
            let dldi = noise(n, 0x9e37_79b9_7f4a_7c15);

            let mut ws = sim.workspace();
            sim.simulate_into(&mask, &mut ws).unwrap();
            sim.gradient_into(&mut ws, &dldi).unwrap();
            let (intensity, grad) = dense_reference(&sim, &mask, &dldi);

            // The simulator really ran on the grid it should have picked.
            assert_eq!(ws.fields()[0].len(), ns * ns, "{name}");

            let di = max_abs_diff(ws.intensity().as_slice(), &intensity);
            let dg = max_abs_diff(ws.grad().as_slice(), &grad);
            assert!(di < 1e-12, "{name}: intensity differs by {di}");
            assert!(dg < 1e-12, "{name}: gradient differs by {dg}");
            // Guard against a vacuous comparison.
            let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
            let (imax, gmax) = (max(&intensity), max(&grad));
            assert!(imax > 0.05 && gmax > 1e-3, "{name}: {imax}, {gmax}");
        }
    }

    #[test]
    fn nyquist_grid_adjoint_is_the_exact_transpose() {
        for (name, n, kernels, _) in nyquist_cases() {
            let sim = LithoSimulator::new(n, kernels).unwrap();
            let mask = hard_mask(n);
            let dldi = noise(n, 0x2545_f491_4f6c_dd1d);
            let delta = noise(n, 0x1234_5678_9abc_def1);
            let mut ws = sim.workspace();
            sim.simulate_into(&mask, &mut ws).unwrap();
            let grad = sim.gradient_into(&mut ws, &dldi).unwrap().clone();

            // I(M) is quadratic in M, so a central difference gives J.dM
            // with no truncation error at any step size.
            let shifted = |sign: f64, step: &RealGrid| -> RealGrid {
                let moved = Grid::from_vec(
                    n,
                    n,
                    mask.as_slice()
                        .iter()
                        .zip(step.as_slice())
                        .map(|(m, d)| m + sign * d)
                        .collect(),
                );
                sim.aerial_image(&moved).unwrap()
            };
            let (plus, minus) = (shifted(1.0, &delta), shifted(-1.0, &delta));
            let j_delta: Vec<f64> = plus
                .as_slice()
                .iter()
                .zip(minus.as_slice())
                .map(|(a, b)| 0.5 * (a - b))
                .collect();
            let lhs = dot(dldi.as_slice(), &j_delta);
            let rhs = dot(grad.as_slice(), delta.as_slice());
            assert!(
                (lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()),
                "{name}: <dL/dI, J dM> = {lhs} vs <J^T dL/dI, dM> = {rhs}"
            );
            assert!(lhs.abs() > 1e-3, "{name}: vacuous inner product {lhs}");

            // Central finite difference of L = <dL/dI, I(M)> at single
            // pixels (on an edge, in the clear, in the dark).
            for (px, py) in [(n / 8, n / 6), (n / 3, n / 4), (n - 2, n / 2)] {
                let bump = Grid::from_fn(n, n, |x, y| if (x, y) == (px, py) { 0.25 } else { 0.0 });
                let (plus, minus) = (shifted(1.0, &bump), shifted(-1.0, &bump));
                let numeric = (dot(dldi.as_slice(), plus.as_slice())
                    - dot(dldi.as_slice(), minus.as_slice()))
                    / 0.5;
                let analytic = grad.get(px, py);
                assert!(
                    (numeric - analytic).abs() < 1e-10 * (1.0 + analytic.abs()),
                    "{name} at ({px},{py}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn nyquist_grid_is_bit_identical_across_pools_and_workspace_reuse() {
        for (name, n, kernels, _) in nyquist_cases() {
            let serial = LithoSimulator::new(n, kernels.clone())
                .unwrap()
                .with_inner_pool(InnerPool::new(1));
            let parallel = LithoSimulator::new(n, kernels)
                .unwrap()
                .with_inner_pool(InnerPool::new(4));
            let mask = hard_mask(n);
            let dldi = noise(n, 0xdead_beef_cafe_f00d);

            let mut once = serial.workspace();
            serial.simulate_into(&mask, &mut once).unwrap();
            serial.gradient_into(&mut once, &dldi).unwrap();

            // One workspace reused across iterations, on four workers.
            let mut ws = parallel.workspace();
            for _ in 0..3 {
                parallel.simulate_into(&mask, &mut ws).unwrap();
                // The adjoint stages dL/dI where the forward pass left the
                // intensity's spectrum; none of that may leak through.
                ws.ns_half.fill(Complex::new(1e3, -1e3));
                parallel.gradient_into(&mut ws, &dldi).unwrap();
            }
            assert_eq!(
                once.intensity().as_slice(),
                ws.intensity().as_slice(),
                "{name}"
            );
            assert_eq!(once.grad().as_slice(), ws.grad().as_slice(), "{name}");
            assert_eq!(once.fields(), ws.fields(), "{name}");
        }
    }

    #[test]
    fn unsupported_spectrum_columns_are_never_read() {
        // The support-limited forwards leave most of `half_spectrum` (and
        // of `ns_half`) unwritten. Poison both: if any unsupported column
        // reached a result, NaN would.
        let mut cases: Vec<(&str, usize, KernelSet)> = nyquist_cases()
            .into_iter()
            .map(|(name, n, kernels, _)| (name, n, kernels))
            .collect();
        let small = OpticsConfig::test_small();
        cases.push((
            "test_small@64 (n_s = n)",
            small.base_n,
            KernelSet::build(&small, false).unwrap(),
        ));
        for (name, n, kernels) in cases {
            let sim = LithoSimulator::new(n, kernels).unwrap();
            let mask = hard_mask(n);
            let dldi = noise(n, 0x517c_c1b7_2722_0a95);
            let mut clean = sim.workspace();
            sim.simulate_into(&mask, &mut clean).unwrap();
            sim.gradient_into(&mut clean, &dldi).unwrap();

            let poison = Complex::new(f64::NAN, f64::NAN);
            let mut ws = sim.workspace();
            ws.half_spectrum.fill(poison);
            ws.ns_half.fill(poison);
            sim.simulate_into(&mask, &mut ws).unwrap();
            sim.gradient_into(&mut ws, &dldi).unwrap();
            assert_eq!(
                clean.intensity().as_slice(),
                ws.intensity().as_slice(),
                "{name}"
            );
            assert_eq!(clean.grad().as_slice(), ws.grad().as_slice(), "{name}");
        }
    }

    #[test]
    fn workspace_reshapes_between_nyquist_and_full_grid_simulators() {
        let small = KernelSet::build(&OpticsConfig::test_small(), false).unwrap();
        // Same mask grid; P = 23 evaluates at n_s = 64, P = 46 at n_s = n.
        let coarse = LithoSimulator::new(128, small.clone()).unwrap();
        let full = LithoSimulator::new(128, small.scaled(2).unwrap()).unwrap();
        let mask = hard_mask(128);
        let dldi = noise(128, 0x0123_4567_89ab_cdef);
        let fresh = |sim: &LithoSimulator| {
            let mut ws = sim.workspace();
            sim.simulate_into(&mask, &mut ws).unwrap();
            sim.gradient_into(&mut ws, &dldi).unwrap();
            (ws.intensity, ws.grad)
        };
        let (coarse_ref, full_ref) = (fresh(&coarse), fresh(&full));

        let mut ws = coarse.workspace();
        for (sim, (intensity, grad), field_n) in [
            (&coarse, &coarse_ref, 64usize),
            (&full, &full_ref, 128),
            (&coarse, &coarse_ref, 64),
        ] {
            sim.simulate_into(&mask, &mut ws).unwrap();
            sim.gradient_into(&mut ws, &dldi).unwrap();
            assert_eq!(ws.fields()[0].len(), field_n * field_n);
            assert_eq!(intensity.as_slice(), ws.intensity().as_slice());
            assert_eq!(grad.as_slice(), ws.grad().as_slice());
        }
    }

    /// The real-Hermitian pipeline evaluated entirely on the mask grid, slot
    /// by slot, written out with the public transforms: the arithmetic the
    /// simulator must reproduce bit for bit whenever `n_s == n`.
    fn mask_grid_hermitian(
        sim: &LithoSimulator,
        mask: &RealGrid,
        dldi: &RealGrid,
    ) -> (Vec<f64>, Vec<f64>) {
        let (n, p, hw) = (sim.n(), sim.kernels().support(), sim.n() / 2 + 1);
        let serial = InnerPool::serial();
        let fft = Fft2d::new(n, n).unwrap();
        let rfft = Rfft2d::new(n).unwrap();
        let bin: Vec<usize> = (0..p)
            .map(|i| spectral::wrap_index(i as i64 - p as i64 / 2, n))
            .collect();
        let mut half = vec![Complex::ZERO; rfft.spectrum_len()];
        let mut rscratch = half.clone();
        rfft.forward(mask.as_slice(), &mut half, &mut rscratch, &serial)
            .unwrap();
        let mut intensity = vec![0.0; n * n];
        let mut accum = vec![Complex::ZERO; rfft.spectrum_len()];
        let mut partials = Vec::new();
        for slot in sim.kernels().slots() {
            let (table, (w_re, w_im)) = (slot.table(), slot.weights());
            let mut field = vec![Complex::ZERO; n * n];
            for r in 0..p {
                for c in 0..p {
                    let (rr, cc) = (bin[r], bin[c]);
                    let m = if cc < hw {
                        half[cc * n + rr]
                    } else {
                        half[(n - cc) * n + (n - rr) % n].conj()
                    };
                    field[rr * n + cc] = m * table[r * p + c];
                }
            }
            fft.inverse_support(&mut field, &bin).unwrap();
            for (acc, z) in intensity.iter_mut().zip(&field) {
                *acc += w_re * (z.re * z.re) + w_im * (z.im * z.im);
            }
            for (z, &g) in field.iter_mut().zip(dldi.as_slice()) {
                *z = Complex::new(w_re * g * z.re, w_im * g * z.im);
            }
            fft.forward_support_transposed(&mut field, &bin, &serial)
                .unwrap();
            let mut partial = vec![Complex::ZERO; p * p];
            for r in 0..p {
                for c in 0..p {
                    partial[r * p + c] = field[bin[c] * n + bin[r]] * table[r * p + c].conj();
                }
            }
            partials.push(partial);
        }
        for partial in &partials {
            for r in 0..p {
                for c in 0..p {
                    let (rr, cc, v) = (bin[r], bin[c], partial[r * p + c]);
                    if cc < hw {
                        accum[cc * n + rr] += v;
                    }
                    if (n - cc) % n < hw {
                        accum[(n - cc) % n * n + (n - rr) % n] += v.conj();
                    }
                }
            }
        }
        let mut grad = vec![0.0; n * n];
        rfft.inverse_support_scaled(&mut accum, &mut grad, &mut rscratch, None, 1.0, &serial)
            .unwrap();
        (intensity, grad)
    }

    #[test]
    fn full_grid_case_keeps_the_mask_grid_arithmetic_bit_for_bit() {
        // test_small at its own 64-pixel grid: 2P - 1 = 45 > 32, so
        // n_s = n and no resampling may happen — every tiny-scale baseline
        // depends on these bits.
        let sim = simulator();
        let n = sim.n();
        let mask = hard_mask(n);
        let dldi = noise(n, 0x6a09_e667_f3bc_c908);
        let mut ws = sim.workspace();
        sim.simulate_into(&mask, &mut ws).unwrap();
        sim.gradient_into(&mut ws, &dldi).unwrap();
        assert_eq!(ws.fields()[0].len(), n * n);
        let (intensity, grad) = mask_grid_hermitian(&sim, &mask, &dldi);
        assert_eq!(ws.intensity().as_slice(), &intensity[..]);
        assert_eq!(ws.grad().as_slice(), &grad[..]);
    }

    #[test]
    fn workspace_adapts_to_mismatched_simulator() {
        let cfg = OpticsConfig::test_small();
        let kernels = KernelSet::build(&cfg, false).unwrap();
        let sim = LithoSimulator::new(cfg.base_n, kernels.clone()).unwrap();
        let big = LithoSimulator::new(cfg.base_n * 2, kernels.scaled(2).unwrap()).unwrap();
        // A workspace sized for `sim` must still produce correct results
        // when handed to `big`.
        let mut ws = sim.workspace();
        let mask = wavy_mask(big.n());
        big.simulate_into(&mask, &mut ws).unwrap();
        let fresh = big.aerial_image(&mask).unwrap();
        assert_eq!(fresh.as_slice(), ws.intensity().as_slice());
    }
}
