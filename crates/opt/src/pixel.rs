//! Pixel-domain gradient ILT with a multi-level simulation schedule — the
//! "Multi-level-ILT" baseline (\[4\] in the paper, the authors' own prior
//! solver, which the multigrid-Schwarz framework uses as its single-tile
//! engine `phi(.)`).
//!
//! The mask is relaxed through a sigmoid of a latent pixel field and
//! optimised by plain gradient descent (see [`PixelIltConfig::lr`] for why
//! not Adam); the optional multi-level schedule runs the early iterations
//! on a 2x-downsampled grid before refining at full resolution.
//!
//! The iterations run in `f32` — latent, mask, images, loss derivative and
//! gradients, on the systems' `f32` simulators — with the loss summed in
//! `f64`. Requests and outcomes stay `f64` grids: the latent is computed
//! from the initial mask in `f64` and rounded once, and the outcome mask is
//! the `f64` logistic of that latent moved by the iterations' `f32`
//! displacement.
//!
//! Known deviation: the coarse level simulates its 2x-downsampled grid
//! with `system(n / 2, 2 * scale)`, whose kernels are stretched for a
//! region twice the tile's: the optics it sees cover twice the tile's
//! field of view, so its images are not the downsampled images of the
//! tile (the bank's contract makes the half-resolution grid of an
//! `(n, s)` tile `system(n / 2, s)`). At `s = 4` the support does not fit
//! and the coarse level is skipped. The schedule's quality depends on the
//! mis-scaled optics, so they are kept as found (EXPERIMENTS.md, "Known
//! deviations").

use ilt_fft::{logistic_scaled, Float};
use ilt_grid::{resample, Grid, RealGrid};
use ilt_litho::{LithoError, LithoSimulator, LithoSystem, ResistModel, SimWorkspace};

use crate::error::OptError;
use crate::loss::{evaluate_loss_into, LossEval};
use crate::solver::{IltOutcome, SolveContext, SolveRequest, TileSolver};

/// Configuration of the pixel-domain solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelIltConfig {
    /// Gradient-descent learning rate on the latent field. Plain gradient
    /// descent (not Adam) is used deliberately: the lithography gradient is
    /// band-limited by the optics, so proportional steps keep mask contours
    /// smooth, whereas per-pixel adaptive normalisation amplifies the
    /// gradient's high-frequency residue into ragged, stitch-hostile
    /// contours.
    pub lr: f64,
    /// Sigmoid steepness mapping latent values to mask transmission.
    pub mask_steepness: f64,
    /// Fraction of the iteration budget run at an internally 2x-coarsened
    /// level first (0 disables the multi-level schedule).
    pub coarse_fraction: f64,
    /// Weight of the binarisation penalty `sum m (1 - m)` that pushes gray
    /// pixels towards 0/1 (suppresses binarisation speckle).
    pub binarize_weight: f64,
    /// Weight of the quadratic latent-smoothness penalty
    /// `1/2 sum |grad latent|^2` that discourages ragged contours and
    /// sub-resolution islands.
    pub smooth_weight: f64,
    /// Standard deviation of the seeded perturbation added to the latent on
    /// cold starts. Production ILT is effectively chaotic in its SRAF
    /// placement (floating-point nondeterminism, work distribution, solver
    /// internals); a deterministic scalar solver is artificially unique, so
    /// this restores the multistability the paper's boundary-mismatch
    /// problem stems from. The perturbation is keyed to the tile content,
    /// so runs remain reproducible. Warm starts are never perturbed.
    pub init_noise: f64,
}

impl PixelIltConfig {
    /// The multi-level configuration used as the paper's baseline \[4\].
    pub fn multi_level() -> Self {
        PixelIltConfig {
            lr: 4.0,
            mask_steepness: 4.0,
            coarse_fraction: 0.2,
            binarize_weight: 0.01,
            smooth_weight: 0.0,
            init_noise: 0.1,
        }
    }

    /// Plain single-level pixel ILT.
    pub fn single_level() -> Self {
        PixelIltConfig {
            coarse_fraction: 0.0,
            ..PixelIltConfig::multi_level()
        }
    }

    fn validate(&self) -> Result<(), OptError> {
        if !(self.lr > 0.0 && self.lr.is_finite()) {
            return Err(OptError::BadConfig {
                reason: format!("learning rate {} must be positive", self.lr),
            });
        }
        if self.mask_steepness <= 0.0 || self.mask_steepness.is_nan() {
            return Err(OptError::BadConfig {
                reason: "mask steepness must be positive".to_string(),
            });
        }
        if !(0.0..=0.9).contains(&self.coarse_fraction) {
            return Err(OptError::BadConfig {
                reason: format!("coarse fraction {} outside [0, 0.9]", self.coarse_fraction),
            });
        }
        if self.binarize_weight < 0.0 || self.smooth_weight < 0.0 {
            return Err(OptError::BadConfig {
                reason: "regularisation weights must be non-negative".to_string(),
            });
        }
        if !(self.init_noise >= 0.0 && self.init_noise.is_finite()) {
            return Err(OptError::BadConfig {
                reason: "init noise must be non-negative".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for PixelIltConfig {
    fn default() -> Self {
        PixelIltConfig::multi_level()
    }
}

/// The pixel-domain gradient solver.
#[derive(Debug, Clone, Default)]
pub struct PixelIlt {
    config: PixelIltConfig,
}

impl PixelIlt {
    /// Creates a solver with the default multi-level configuration.
    pub fn new() -> Self {
        PixelIlt {
            config: PixelIltConfig::multi_level(),
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: PixelIltConfig) -> Self {
        PixelIlt { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PixelIltConfig {
        &self.config
    }
}

impl TileSolver for PixelIlt {
    fn name(&self) -> &str {
        if self.config.coarse_fraction > 0.0 {
            "multi-level-ilt"
        } else {
            "pixel-ilt"
        }
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        request: &SolveRequest<'_>,
    ) -> Result<IltOutcome, OptError> {
        crate::solver::with_solve_span(self.name(), ctx, || self.solve_inner(ctx, request))
    }
}

impl PixelIlt {
    fn solve_inner(
        &self,
        ctx: &SolveContext<'_>,
        request: &SolveRequest<'_>,
    ) -> Result<IltOutcome, OptError> {
        self.config.validate()?;
        request.validate(ctx)?;
        let steep = self.config.mask_steepness;
        let mut wide = to_latent(request.initial, steep);
        if !request.warm && self.config.init_noise > 0.0 {
            perturb_latent(&mut wide, self.config.init_noise, request.target);
        }
        let mut latent = narrow(&wide);
        let mut history = Vec::with_capacity(request.iterations);
        let lr = self.config.lr * request.lr_scale;

        let coarse_iters = (request.iterations as f64 * self.config.coarse_fraction) as usize;
        let mut remaining = request.iterations;

        // Multi-level lithography simulation (ref. [4]): the early
        // iterations evaluate the forward model and its gradient on a
        // 2x-downsampled grid while the latent mask stays at full
        // resolution — faster, and the upsampled gradients are naturally
        // band-limited. Warm starts skip it: a near-converged solution
        // needs full-resolution gradients from the first step.
        //
        // `2 * scale` is the known deviation of the module docs: the
        // tile's own field of view at half resolution is
        // `system(n / 2, scale)`; this one sees twice that, and fails to
        // fit (skipping the level) at `scale = 4`.
        if coarse_iters > 0 && !request.warm && ctx.n.is_multiple_of(2) {
            match ctx.bank.system(ctx.n / 2, ctx.scale * 2) {
                Ok(system) => {
                    let coarse_target = resample::downsample(request.target, 2);
                    // The 4x rate compensates the 1/s^2 attenuation the
                    // downsampling adjoint puts on the gradient.
                    run_loop(
                        &system,
                        &coarse_target,
                        &mut latent,
                        4.0 * lr,
                        coarse_iters,
                        2,
                        &self.config,
                        &mut history,
                    )?;
                    remaining -= coarse_iters;
                }
                Err(LithoError::GridMismatch { .. }) => {
                    // Fall through to single-level optimisation.
                }
                Err(e) => return Err(e.into()),
            }
        }

        // Everything recorded so far came from the coarse level; the rest
        // of `history` is the full-resolution phase.
        let coarse_len = history.len();

        let system = ctx.system()?;
        run_loop(
            &system,
            request.target,
            &mut latent,
            lr,
            remaining,
            1,
            &self.config,
            &mut history,
        )?;

        let mut trace = crate::solver::ConvergenceTrace::default();
        let fine = history.split_off(coarse_len);
        trace.push_segment("coarse", history);
        trace.push_segment("fine", fine);
        // The outcome keeps the f64 digits of the starting latent; the f32
        // iterations contribute their displacement from its rounding (so a
        // solve that takes no step returns its start exactly).
        for (w, &l) in wide.as_mut_slice().iter_mut().zip(latent.as_slice()) {
            *w += f64::from(l) - f64::from(*w as f32);
        }
        Ok(IltOutcome::new(latent_to_mask(&wide, steep), trace))
    }
}

/// Inner gradient-descent loop at a fixed learning rate. `sim_scale`
/// selects the multi-level simulation factor (see [`LatentObjective`]).
#[allow(clippy::too_many_arguments)]
fn run_loop(
    system: &LithoSystem,
    target: &RealGrid,
    latent: &mut Grid<f32>,
    lr: f64,
    iterations: usize,
    sim_scale: usize,
    config: &PixelIltConfig,
    history: &mut Vec<f64>,
) -> Result<(), OptError> {
    let target = narrow(target);
    let mut objective = LatentObjective::new(
        system.simulator(),
        system.resist(),
        &target,
        sim_scale,
        config,
        (latent.width(), latent.height()),
    );
    for _ in 0..iterations {
        if ilt_telemetry::deadline::exceeded() {
            return Err(OptError::DeadlineExceeded {
                completed_iterations: history.len(),
            });
        }
        history.push(objective.descend(latent, lr)?);
    }
    Ok(())
}

/// What the loop descends, as a function of the latent field:
/// `loss + binarize_weight . sum m (1 - m) + 1/2 smooth_weight . |grad latent|^2`
/// with `m = sigmoid(steepness . latent)`. The latent stays at full
/// resolution, while the forward model runs on a `sim_scale`-downsampled
/// mask and the gradient is pulled back through the (linear) downsampling
/// operator.
///
/// Owns one scratch arena and one set of grids for the whole loop:
/// steady-state evaluations run without heap allocation. Everything that
/// is not the simulator is three slice sweeps: latent to mask and
/// intensity to loss and `dL/dI` (both `ilt_fft` sweeps on one polynomial
/// logistic), and the chain rule fused with the descent step.
///
/// Generic over the element type: the solver runs it in `f32`, the
/// gradient check in `f64` on an `f64` simulator of the same kernels.
struct LatentObjective<'a, T> {
    simulator: &'a LithoSimulator<T>,
    resist: &'a ResistModel,
    target: &'a Grid<T>,
    sim_scale: usize,
    config: &'a PixelIltConfig,
    ws: SimWorkspace<T>,
    mask: Grid<T>,
    /// Multi-level only: the downsampled mask and the upsampled gradient.
    resampled: Option<(Grid<T>, Grid<T>)>,
    eval: LossEval<T>,
    /// The objective's gradient w.r.t. the latent, at the point the last
    /// [`LatentObjective::descend`] stepped from.
    grad_latent: Vec<T>,
}

impl<'a, T: Float + resample::Sample> LatentObjective<'a, T> {
    /// `target` lives on the simulation grid (`simulator.n()` square), the
    /// latent on a `w x h = sim_scale . simulator.n()` square one.
    fn new(
        simulator: &'a LithoSimulator<T>,
        resist: &'a ResistModel,
        target: &'a Grid<T>,
        sim_scale: usize,
        config: &'a PixelIltConfig,
        (w, h): (usize, usize),
    ) -> Self {
        let sim_n = simulator.n();
        LatentObjective {
            simulator,
            resist,
            target,
            sim_scale,
            config,
            ws: simulator.workspace(),
            mask: Grid::new(w, h, T::ZERO),
            resampled: (sim_scale > 1)
                .then(|| (Grid::new(sim_n, sim_n, T::ZERO), Grid::new(w, h, T::ZERO))),
            eval: LossEval {
                value: 0.0,
                dldi: Grid::new(sim_n, sim_n, T::ZERO),
            },
            grad_latent: vec![T::ZERO; w * h],
        }
    }

    /// Evaluates the objective at `latent` and takes one gradient-descent
    /// step of rate `lr` from there. Returns the loss term alone, before
    /// the step (what the convergence history records), and leaves the
    /// gradient of the whole objective in `grad_latent`. `lr = 0` is a
    /// pure evaluation: the latent is not written at all, so a non-finite
    /// gradient cannot reach it (`0 . inf` is NaN).
    ///
    /// # Panics
    ///
    /// Panics if `latent` is not the `w x h` grid the objective was built
    /// for.
    fn descend(&mut self, latent: &mut Grid<T>, lr: f64) -> Result<f64, OptError> {
        let (simulator, config, sim_scale) = (self.simulator, self.config, self.sim_scale);
        assert_eq!(
            (latent.width(), latent.height()),
            (self.mask.width(), self.mask.height()),
            "latent/objective shape mismatch"
        );
        latent_to_mask_into(latent, config.mask_steepness, &mut self.mask);
        let sim_mask: &Grid<T> = match &mut self.resampled {
            Some((coarse_mask, _)) => {
                resample::downsample_into(&self.mask, sim_scale, coarse_mask);
                coarse_mask
            }
            None => &self.mask,
        };
        simulator.simulate_into(sim_mask, &mut self.ws)?;
        evaluate_loss_into(
            self.resist,
            self.ws.intensity(),
            self.target,
            &mut self.eval,
        );
        let grad_sim = simulator.gradient_into(&mut self.ws, &self.eval.dldi)?;
        // Adjoint of s x s block averaging: each fine pixel receives its
        // coarse pixel's gradient divided by s^2 (the division rides the
        // sweep below).
        let grad_mask: &Grid<T> = match &mut self.resampled {
            Some((_, upsampled)) => {
                resample::upsample_nearest_into(grad_sim, sim_scale, upsampled);
                upsampled
            }
            None => grad_sim,
        };
        // The smoothness term needs every neighbour's value from before
        // the step, so it goes first and the sweep adds to it.
        let smooth = config.smooth_weight > 0.0;
        if smooth {
            let weight = T::from_f64(config.smooth_weight);
            smoothness_gradient_into(latent, weight, &mut self.grad_latent);
        }
        // Chain rule through the sigmoid, dM/dlatent = k M (1 - M), plus
        // the binarisation penalty d/dm [m (1 - m)] = 1 - 2m, and the
        // descent step, in one sweep.
        let inv = T::from_f64(1.0 / (sim_scale * sim_scale) as f64);
        let steepness = T::from_f64(config.mask_steepness);
        let binarize = T::from_f64(config.binarize_weight);
        let (one, two) = (T::ONE, T::from_f64(2.0));
        let step = lr != 0.0;
        let lr = T::from_f64(lr);
        for (((t, out), &g), &m) in latent
            .as_mut_slice()
            .iter_mut()
            .zip(&mut self.grad_latent)
            .zip(grad_mask.as_slice())
            .zip(self.mask.as_slice())
        {
            let chain = (g * inv + binarize * (one - two * m)) * steepness * m * (one - m);
            let total = if smooth { *out + chain } else { chain };
            *out = total;
            if step {
                *t -= lr * total;
            }
        }
        Ok(self.eval.value)
    }
}

/// Writes the gradient of `1/2 weight . |grad latent|^2` — minus the
/// Laplacian, with Neumann boundaries: missing neighbours contribute
/// nothing.
fn smoothness_gradient_into<T: Float>(latent: &Grid<T>, weight: T, out: &mut [T]) {
    let (w, h) = (latent.width(), latent.height());
    for y in 0..h {
        for x in 0..w {
            let center = latent.get(x, y);
            let mut acc = T::ZERO;
            if x > 0 {
                acc += center - latent.get(x - 1, y);
            }
            if x + 1 < w {
                acc += center - latent.get(x + 1, y);
            }
            if y > 0 {
                acc += center - latent.get(x, y - 1);
            }
            if y + 1 < h {
                acc += center - latent.get(x, y + 1);
            }
            out[y * w + x] = weight * acc;
        }
    }
}

/// Adds a zero-mean, content-keyed perturbation to the latent field.
///
/// The seed is an FNV-1a hash of the target raster, so the same tile always
/// receives the same perturbation (full reproducibility) while different
/// tiles — in particular the two tiles sharing an overlap region — receive
/// different ones, reproducing the solution multistability that makes
/// independently optimised tiles disagree in the paper's Fig. 1.
fn perturb_latent(latent: &mut RealGrid, sigma: f64, target: &RealGrid) {
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for v in target.as_slice() {
        seed ^= v.to_bits();
        seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut state = seed | 1;
    let mut next = move || -> f64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    for v in latent.as_mut_slice() {
        *v += sigma * next();
    }
}

/// Where [`to_latent`] clamps the mask: the latent of 0 or 1 is infinite.
const LATENT_CLAMP: (f64, f64) = (0.02, 0.98);

/// Maps a `[0, 1]` mask to the latent field (inverse sigmoid).
///
/// Most of an initial mask sits *at* a clamp (all of a binary target, half
/// of a warm start), so the two clamped latents are computed once, by the
/// expression every other pixel goes through, and the `ln` runs only in
/// between: bit for bit the plain `clamp` map.
fn to_latent(mask: &RealGrid, steepness: f64) -> RealGrid {
    let latent = |c: f64| (c / (1.0 - c)).ln() / steepness;
    // `black_box`: a constant argument would let the compiler fold the `ln`
    // with its own libm, which need not round as the one linked here does.
    let (lo, hi) = LATENT_CLAMP;
    let at_lo = latent(std::hint::black_box(lo));
    let at_hi = latent(std::hint::black_box(hi));
    mask.map(|&m| {
        if m <= lo {
            at_lo
        } else if m >= hi {
            at_hi
        } else {
            // Strictly inside (where `clamp` is the identity), or NaN.
            latent(m)
        }
    })
}

/// Maps the latent field back to a `[0, 1]` mask.
fn latent_to_mask(latent: &RealGrid, steepness: f64) -> RealGrid {
    let mut mask = RealGrid::new(latent.width(), latent.height(), 0.0);
    latent_to_mask_into(latent, steepness, &mut mask);
    mask
}

/// [`latent_to_mask`] into a caller-owned grid of the same shape, in
/// either element type.
fn latent_to_mask_into<T: Float>(latent: &Grid<T>, steepness: f64, mask: &mut Grid<T>) {
    let steepness = T::from_f64(steepness);
    logistic_scaled(latent.as_slice(), T::ZERO, steepness, mask.as_mut_slice());
}

/// `grid` rounded to the `f32` the iterations run in.
fn narrow(grid: &RealGrid) -> Grid<f32> {
    grid.map(|&v| v as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::{Grid, Rect};
    use ilt_litho::{Corner, LithoBank, OpticsConfig, ResistModel};

    fn bank() -> LithoBank {
        LithoBank::new(OpticsConfig::test_small(), ResistModel::default()).unwrap()
    }

    fn target_grid(n: usize) -> RealGrid {
        let mut t = Grid::new(n, n, 0.0);
        t.fill_rect(Rect::new(14, 18, 30, 28), 1.0);
        t.fill_rect(Rect::new(38, 30, 50, 44), 1.0);
        t
    }

    /// The `f64` simulator of a system's nominal kernels: the reference
    /// instance of the objective the tight checks run on.
    fn reference(system: &LithoSystem) -> LithoSimulator<f64> {
        LithoSimulator::new(system.n(), system.simulator().kernels().clone()).unwrap()
    }

    #[test]
    fn latent_roundtrip() {
        let mask = Grid::from_vec(3, 1, vec![0.1, 0.5, 0.9]);
        let latent = to_latent(&mask, 4.0);
        let back = latent_to_mask(&latent, 4.0);
        for i in 0..3 {
            assert!((back.get(i, 0) - mask.get(i, 0)).abs() < 1e-9);
        }
    }

    #[test]
    fn to_latent_is_bit_identical_to_the_plain_clamp_map() {
        let (lo, hi) = LATENT_CLAMP;
        let values = vec![
            0.0,
            -0.0,
            lo.next_down(),
            lo,
            lo.next_up(),
            0.5,
            hi.next_down(),
            hi,
            hi.next_up(),
            1.0,
            -3.0,
            7.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for steep in [4.0, 3.7] {
            let plain = |m: f64| {
                let c = m.clamp(lo, hi);
                (c / (1.0 - c)).ln() / steep
            };
            let mask = Grid::from_vec(values.len(), 1, values.clone());
            let latent = to_latent(&mask, steep);
            for (&m, &l) in values.iter().zip(latent.as_slice()) {
                assert_eq!(l.to_bits(), plain(m).to_bits(), "m = {m:e}");
            }
        }
    }

    #[test]
    fn objective_gradient_matches_central_differences() {
        // The composed adjoint: latent -> sigmoid -> (downsample) ->
        // simulate -> resist -> loss plus both penalties, differentiated as
        // a whole — at full resolution and at the Eq. (9) coarse level of
        // the multi-level schedule. The per-component checks cannot see an
        // error made where the components meet.
        let bank = bank();
        let config = PixelIltConfig {
            smooth_weight: 0.05,
            ..PixelIltConfig::multi_level()
        };
        let steep = config.mask_steepness;
        let penalties = |latent: &RealGrid| -> f64 {
            let n = latent.width();
            let mask = latent_to_mask(latent, steep);
            let binarize: f64 = mask.as_slice().iter().map(|m| m * (1.0 - m)).sum();
            let mut smooth = 0.0;
            for y in 0..n {
                for x in 0..n {
                    if x + 1 < n {
                        smooth += (latent.get(x + 1, y) - latent.get(x, y)).powi(2);
                    }
                    if y + 1 < n {
                        smooth += (latent.get(x, y + 1) - latent.get(x, y)).powi(2);
                    }
                }
            }
            config.binarize_weight * binarize + 0.5 * config.smooth_weight * smooth
        };
        // test_small's 23-bin support doubles to 46 at the coarse level, so
        // that level needs a 64-pixel simulation grid under a 128 latent.
        for (sim_scale, n) in [(1usize, 64usize), (2, 128)] {
            let system = bank.system(n / sim_scale, sim_scale).unwrap();
            let target = resample::downsample(&target_grid(n), sim_scale);
            let sim = reference(&system);
            let resist = system.resist();
            let mut objective =
                LatentObjective::new(&sim, resist, &target, sim_scale, &config, (n, n));
            // A mid-descent latent: gray everywhere, so no sigmoid is flat.
            let mut latent = to_latent(&target_grid(n), steep);
            perturb_latent(&mut latent, 0.3, &target);
            // A zero-rate step is a pure evaluation.
            objective.descend(&mut latent, 0.0).unwrap();
            let grad = objective.grad_latent.clone();

            let eps = 1e-4;
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            for _ in 0..16 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let idx = (state % (n * n) as u64) as usize;
                let original = latent.as_slice()[idx];
                let mut at = |value: f64| -> f64 {
                    latent.as_mut_slice()[idx] = value;
                    objective.descend(&mut latent, 0.0).unwrap() + penalties(&latent)
                };
                let numeric = (at(original + eps) - at(original - eps)) / (2.0 * eps);
                at(original);
                let analytic = grad[idx];
                assert!(
                    (numeric - analytic).abs() <= 1e-5 * analytic.abs(),
                    "sim_scale {sim_scale}, pixel {idx}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn nan_latent_pixel_yields_nan_loss() {
        // A diverged solve must stay visible: the solve span's divergence
        // anomaly (`crate::anomaly`) keys on a non-finite loss, so no clamp
        // on the way from latent to loss may turn NaN into a number.
        let bank = bank();
        let config = PixelIltConfig::multi_level();
        let system = bank.system(64, 1).unwrap();
        let target = target_grid(64);
        let sim = reference(&system);
        let mut objective =
            LatentObjective::new(&sim, system.resist(), &target, 1, &config, (64, 64));
        let mut latent = to_latent(&target, config.mask_steepness);
        assert!(objective.descend(&mut latent, 0.0).unwrap().is_finite());
        latent.set(17, 40, f64::NAN);
        let before: Vec<u64> = latent.as_slice().iter().map(|v| v.to_bits()).collect();
        assert!(objective.descend(&mut latent, 0.0).unwrap().is_nan());
        // The NaN spread through the FFTs into every gradient pixel, and a
        // zero-rate step still left the latent alone, bit for bit.
        assert!(objective.grad_latent.iter().all(|g| g.is_nan()));
        let after: Vec<u64> = latent.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn latent_of_another_shape_panics() {
        let bank = bank();
        let config = PixelIltConfig::multi_level();
        let system = bank.system(64, 1).unwrap();
        let target = narrow(&target_grid(64));
        let mut objective = LatentObjective::new(
            system.simulator(),
            system.resist(),
            &target,
            1,
            &config,
            (64, 64),
        );
        let _ = objective.descend(&mut Grid::new(64, 32, 0.0), 0.1);
    }

    #[test]
    fn f32_objective_keeps_nan_and_tracks_the_f64_reference() {
        // The solver's own instance: a NaN latent pixel still yields a NaN
        // loss, and on a finite latent the f32 loss and gradient stay
        // within single-precision reach of the f64 reference.
        let bank = bank();
        let config = PixelIltConfig::multi_level();
        let system = bank.system(64, 1).unwrap();
        let (target, wide_sim) = (target_grid(64), reference(&system));
        let narrow_target = narrow(&target);
        let mut wide =
            LatentObjective::new(&wide_sim, system.resist(), &target, 1, &config, (64, 64));
        let mut single = LatentObjective::new(
            system.simulator(),
            system.resist(),
            &narrow_target,
            1,
            &config,
            (64, 64),
        );
        let mut latent = to_latent(&target, config.mask_steepness);
        perturb_latent(&mut latent, 0.3, &target);
        let mut latent32 = narrow(&latent);
        let loss64 = wide.descend(&mut latent, 0.0).unwrap();
        let loss32 = single.descend(&mut latent32, 0.0).unwrap();
        assert!(
            (loss32 - loss64).abs() <= 1e-4 * loss64,
            "{loss32} vs {loss64}"
        );
        let peak = wide.grad_latent.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        let err = wide
            .grad_latent
            .iter()
            .zip(&single.grad_latent)
            .fold(0.0f64, |m, (a, b)| m.max((a - f64::from(*b)).abs()));
        assert!(err <= 1e-4 * peak, "gradient off by {err} of {peak}");

        latent32.set(17, 40, f32::NAN);
        assert!(single.descend(&mut latent32, 0.0).unwrap().is_nan());
        assert!(single.grad_latent.iter().all(|g| g.is_nan()));
    }

    #[test]
    fn config_validation() {
        let bad = PixelIltConfig {
            lr: 0.0,
            ..PixelIltConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = PixelIltConfig {
            coarse_fraction: 0.95,
            ..PixelIltConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(PixelIltConfig::single_level().validate().is_ok());
    }

    #[test]
    fn names_reflect_schedule() {
        assert_eq!(PixelIlt::new().name(), "multi-level-ilt");
        assert_eq!(
            PixelIlt::with_config(PixelIltConfig::single_level()).name(),
            "pixel-ilt"
        );
    }

    #[test]
    fn loss_decreases_and_mask_prints_target() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let solver = PixelIlt::new();
        let request = SolveRequest::new(&target, &target, 30);
        let outcome = solver.solve(&ctx, &request).unwrap();
        assert_eq!(outcome.loss_history.len(), 30);
        let first = outcome.loss_history[0];
        let last = outcome.final_loss().unwrap();
        assert!(last < 0.7 * first, "loss {first} -> {last}");

        // The optimised mask prints closer to the target than the naive
        // mask (= the target itself) does.
        let system = bank.system(64, 1).unwrap();
        let naive_print = system.print(&target, Corner::Nominal).unwrap();
        let opt_print = system.print(&outcome.mask, Corner::Nominal).unwrap();
        let target_bits = target.threshold(0.5);
        let naive_err = naive_print.xor_count(&target_bits);
        let opt_err = opt_print.xor_count(&target_bits);
        assert!(
            opt_err < naive_err,
            "optimised XOR {opt_err} vs naive {naive_err}"
        );
    }

    #[test]
    fn multi_level_history_spans_both_levels() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let solver = PixelIlt::with_config(PixelIltConfig {
            coarse_fraction: 0.5,
            ..PixelIltConfig::default()
        });
        let request = SolveRequest::new(&target, &target, 10);
        let outcome = solver.solve(&ctx, &request).unwrap();
        assert_eq!(outcome.loss_history.len(), 10);
        // Coarse losses are computed on a 4x smaller grid, so the scale of
        // the first half differs from the second; both halves must be finite.
        assert!(outcome.loss_history.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn refine_scale_shrinks_steps() {
        // With a tiny lr_scale the mask barely moves — the paper's refine
        // ILT property.
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let solver = PixelIlt::with_config(PixelIltConfig::single_level());
        let mut request = SolveRequest::new(&target, &target, 3);
        request.lr_scale = 1e-6;
        let outcome = solver.solve(&ctx, &request).unwrap();
        let drift: f64 = outcome
            .mask
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        // The latent clamp alone moves binary pixels to 0.02/0.98.
        assert!(drift < 0.05, "drift {drift}");
    }

    #[test]
    fn mask_stays_in_unit_interval() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let outcome = PixelIlt::new()
            .solve(&ctx, &SolveRequest::new(&target, &target, 8))
            .unwrap();
        assert!(outcome.mask.min() >= 0.0);
        assert!(outcome.mask.max() <= 1.0);
    }

    #[test]
    fn cold_starts_are_perturbed_but_deterministic() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let solver = PixelIlt::new();
        let req = SolveRequest::new(&target, &target, 2);
        let a = solver.solve(&ctx, &req).unwrap();
        let b = solver.solve(&ctx, &req).unwrap();
        // Same content -> same perturbation -> identical outcome.
        assert_eq!(a.mask, b.mask);

        // Different content -> different perturbation -> different outcome
        // even where the targets agree locally.
        let mut other = target_grid(64);
        other.fill_rect(Rect::new(2, 2, 6, 6), 1.0);
        let c = solver
            .solve(&ctx, &SolveRequest::new(&other, &other, 2))
            .unwrap();
        assert_ne!(a.mask, c.mask);
    }

    #[test]
    fn warm_starts_skip_perturbation_and_multilevel() {
        // A warm near-zero-step solve must approximately preserve the
        // initial mask (modulo the latent clamp), proving neither noise nor
        // the internal multi-level resampling touched it.
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let initial = target_grid(64);
        let req = SolveRequest {
            target: &target,
            initial: &initial,
            iterations: 1,
            lr_scale: 1e-9,
            warm: true,
        };
        let outcome = PixelIlt::new().solve(&ctx, &req).unwrap();
        let drift: f64 = outcome
            .mask
            .as_slice()
            .iter()
            .zip(initial.as_slice())
            .map(|(a, b)| (a - b.clamp(0.02, 0.98)).abs())
            .fold(0.0, f64::max);
        assert!(drift < 1e-6, "warm start drifted by {drift}");
    }

    #[test]
    fn warm_steps_scale_with_lr() {
        // The descent step is proportional to lr_scale: a 10x-smaller rate
        // must move the mask strictly less.
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let movement = |lr_scale: f64| -> f64 {
            let req = SolveRequest {
                target: &target,
                initial: &target,
                iterations: 2,
                lr_scale,
                warm: true,
            };
            let outcome = PixelIlt::new().solve(&ctx, &req).unwrap();
            outcome
                .mask
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(a, b)| (a - b.clamp(0.02, 0.98)).abs())
                .sum()
        };
        let big = movement(0.1);
        let small = movement(0.01);
        assert!(small < big, "warm movement not monotone: {small} vs {big}");
    }

    #[test]
    fn init_noise_zero_disables_perturbation() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let quiet = PixelIlt::with_config(PixelIltConfig {
            init_noise: 0.0,
            coarse_fraction: 0.0,
            ..PixelIltConfig::multi_level()
        });
        // With zero iterations nothing may move at all.
        let req = SolveRequest::new(&target, &target, 0);
        let outcome = quiet.solve(&ctx, &req).unwrap();
        let drift: f64 = outcome
            .mask
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(a, b)| (a - b.clamp(0.02, 0.98)).abs())
            .fold(0.0, f64::max);
        assert!(drift < 1e-12);
    }

    #[test]
    fn negative_noise_rejected() {
        let bad = PixelIltConfig {
            init_noise: -1.0,
            ..PixelIltConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn expired_deadline_stops_the_iteration_loop() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let solver = PixelIlt::new();
        let request = SolveRequest::new(&target, &target, 50);
        let _scope = ilt_telemetry::deadline::scope(Some(std::time::Instant::now()));
        match solver.solve(&ctx, &request) {
            Err(OptError::DeadlineExceeded {
                completed_iterations,
            }) => assert_eq!(completed_iterations, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_perturb_the_solve() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let solver = PixelIlt::new();
        let request = SolveRequest::new(&target, &target, 5);
        let free = solver.solve(&ctx, &request).unwrap();
        let _scope = ilt_telemetry::deadline::scope(Some(
            std::time::Instant::now() + std::time::Duration::from_secs(600),
        ));
        let bounded = solver.solve(&ctx, &request).unwrap();
        assert_eq!(free.mask.as_slice(), bounded.mask.as_slice());
        assert_eq!(free.loss_history, bounded.loss_history);
    }
}
