//! A complete lithography system: nominal and defocused optical paths, the
//! resist model, and the process corners of Definition 3.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use ilt_grid::{BitGrid, Grid, RealGrid};

use crate::error::LithoError;
use crate::kernels::{KernelSet, Optics};
use crate::optics::OpticsConfig;
use crate::resist::ResistModel;
use crate::sim::{LithoSimulator, SimWorkspace};
use ilt_par::InnerPool;

/// A process corner of the variation band (Definition 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corner {
    /// Nominal focus, nominal dose.
    Nominal,
    /// Defocus with under-dose: the innermost printed contour.
    Inner,
    /// Nominal focus with over-dose: the outermost printed contour.
    Outer,
}

/// Both optical paths at one scale, their slot tables rounded to the
/// simulation's `f32`.
#[derive(Debug, Clone)]
struct Scaled {
    nominal: Arc<Optics<f32>>,
    defocused: Arc<Optics<f32>>,
}

/// Precomputed kernel banks shared by every simulator the flows create.
///
/// Building the TCC and its eigendecomposition is the expensive one-time
/// step; afterwards, simulators for any region size and scale are cheap:
/// each scale's resampled kernel sets and their `f32` slot tables are
/// built on the first [`LithoBank::system`] that asks for the scale and
/// shared by every later one.
#[derive(Debug)]
pub struct LithoBank {
    config: OpticsConfig,
    resist: ResistModel,
    nominal: Arc<KernelSet>,
    defocused: Arc<KernelSet>,
    /// Per scale, both paths resampled: built once, shared by `Arc`.
    scaled: Mutex<HashMap<usize, Scaled>>,
}

impl Clone for LithoBank {
    fn clone(&self) -> Self {
        LithoBank {
            config: self.config,
            resist: self.resist,
            nominal: Arc::clone(&self.nominal),
            defocused: Arc::clone(&self.defocused),
            scaled: Mutex::new(self.memo().clone()),
        }
    }
}

impl LithoBank {
    /// Builds the nominal and defocused kernel sets for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::KernelConstruction`] if the TCC decomposition
    /// fails.
    pub fn new(config: OpticsConfig, resist: ResistModel) -> Result<Self, LithoError> {
        resist.validate();
        let nominal = KernelSet::build(&config, false)?;
        let defocused = KernelSet::build(&config, true)?;
        Ok(LithoBank {
            config,
            resist,
            nominal: Arc::new(nominal),
            defocused: Arc::new(defocused),
            scaled: Mutex::new(HashMap::new()),
        })
    }

    /// The optics configuration this bank was built from.
    #[inline]
    pub fn config(&self) -> &OpticsConfig {
        &self.config
    }

    /// The resist model shared by all systems from this bank.
    #[inline]
    pub fn resist(&self) -> &ResistModel {
        &self.resist
    }

    /// The per-scale memo. Every update inserts a finished entry, so a
    /// panic elsewhere cannot leave it half-written.
    fn memo(&self) -> std::sync::MutexGuard<'_, HashMap<usize, Scaled>> {
        self.scaled.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Estimated resident bytes of this bank: the nominal and defocused
    /// sets' kernel spectra and slot tables (see
    /// [`KernelSet::estimated_bytes`]), and every memoized scale's `f32`
    /// slot tables (with the resampled `f64` sets, for the scales some
    /// caller of [`LithoSimulator::kernels`] asked to see).
    pub fn estimated_bytes(&self) -> u64 {
        let memo: u64 = self
            .memo()
            .values()
            .map(|s| s.nominal.bytes() + s.defocused.bytes())
            .sum();
        self.nominal.estimated_bytes() + self.defocused.estimated_bytes() + memo
    }

    /// Both paths resampled to `scale`: from the memo, or built (under its
    /// lock, so one scale is built once) and kept there.
    fn resampled(&self, scale: usize) -> Result<Scaled, LithoError> {
        let mut memo = self.memo();
        if let Some(scaled) = memo.get(&scale) {
            return Ok(scaled.clone());
        }
        let scaled = Scaled {
            nominal: Arc::new(Optics::resampled(&self.nominal, scale)?),
            defocused: Arc::new(Optics::resampled(&self.defocused, scale)?),
        };
        memo.insert(scale, scaled.clone());
        Ok(scaled)
    }

    /// Creates a [`LithoSystem`] for a grid of `n x n` pixels covering a
    /// physical region `scale` times larger than the base grid (Eq. (3):
    /// the kernels are resampled at bins `j/scale`).
    ///
    /// For example, with a 128-pixel base grid:
    /// * `system(128, 1)` — a fine-grid tile simulator;
    /// * `system(64, 1)` — the same tile's field of view on a grid of half
    ///   the resolution (Eq. (9): the mask downsampled 2x; the kernel
    ///   support is in physical frequency, so the scale is unchanged);
    /// * `system(128, 2)` — a 256-pixel region downsampled 2x: the
    ///   coarse-grid simulator of Eq. (9) at the next level up;
    /// * `system(256, 2)` — the full-resolution large-area simulator used
    ///   for final inspection.
    ///
    /// The resampled kernels of each scale are built once per bank and
    /// kept as their `f32` slot tables; a system whose scaled support
    /// cannot fit `n` is rejected before any resampling.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::GridMismatch`] if the scaled kernel support
    /// does not fit `n`, or [`LithoError::Fft`] for non-power-of-two `n`.
    pub fn system(&self, n: usize, scale: usize) -> Result<LithoSystem, LithoError> {
        let support = self.nominal.support().max(self.defocused.support()) * scale;
        if support > n {
            return Err(LithoError::GridMismatch { grid: n, support });
        }
        let scaled = self.resampled(scale)?;
        // The paper uses +-2% dose at a 1 nm pixel pitch; our default grids
        // are ~8x coarser, so the process window is widened to keep the
        // band-to-contour-length ratio comparable (see DESIGN.md).
        Ok(LithoSystem {
            nominal: LithoSimulator::with_optics(n, scaled.nominal)?,
            defocused: LithoSimulator::with_optics(n, scaled.defocused)?,
            resist: self.resist,
            dose_delta: 0.08,
        })
    }
}

/// Nominal + defocused simulators with the resist model: everything needed
/// to print wafers at all three corners and to drive gradient ILT.
///
/// Both simulators run in `f32`. The `f64` entry points
/// ([`LithoSystem::simulate_into`], [`LithoSystem::gradient_into`],
/// [`LithoSystem::aerial`], the prints) round their input to `f32` on the
/// way in; solvers that iterate in `f32` call [`LithoSystem::simulator`]
/// directly.
#[derive(Debug)]
pub struct LithoSystem {
    nominal: LithoSimulator<f32>,
    defocused: LithoSimulator<f32>,
    resist: ResistModel,
    dose_delta: f64,
}

/// `src` rounded to `f32`, in `reuse` when it has the shape.
fn narrowed(src: &RealGrid, reuse: Option<Grid<f32>>) -> Grid<f32> {
    let shape = (src.width(), src.height());
    let mut dst = reuse
        .filter(|g| (g.width(), g.height()) == shape)
        .unwrap_or_else(|| Grid::new(shape.0, shape.1, 0.0));
    for (d, &s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d = s as f32;
    }
    dst
}

impl LithoSystem {
    /// Grid edge length.
    #[inline]
    pub fn n(&self) -> usize {
        self.nominal.n()
    }

    /// The resist model.
    #[inline]
    pub fn resist(&self) -> &ResistModel {
        &self.resist
    }

    /// The nominal-focus simulator (used by solvers for gradients).
    #[inline]
    pub fn simulator(&self) -> &LithoSimulator<f32> {
        &self.nominal
    }

    /// Relative dose excursion of the process window (the paper uses 2% at
    /// a 1 nm pixel; scaled up here to match the coarser default pitch).
    #[inline]
    pub fn dose_delta(&self) -> f64 {
        self.dose_delta
    }

    /// The dose a corner prints at.
    fn dose(&self, corner: Corner) -> f64 {
        match corner {
            Corner::Nominal => 1.0,
            Corner::Inner => 1.0 - self.dose_delta,
            Corner::Outer => 1.0 + self.dose_delta,
        }
    }

    /// Aerial image at the given focus condition (dose is applied at the
    /// resist, not here), simulated in `f32` and widened exactly.
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn aerial(&self, mask: &RealGrid, corner: Corner) -> Result<RealGrid, LithoError> {
        Ok(self.aerial_f32(mask, corner)?.map(|&i| f64::from(i)))
    }

    /// [`LithoSystem::aerial`] before the widening.
    fn aerial_f32(&self, mask: &RealGrid, corner: Corner) -> Result<Grid<f32>, LithoError> {
        let simulator = match corner {
            Corner::Inner => &self.defocused,
            Corner::Nominal | Corner::Outer => &self.nominal,
        };
        simulator.aerial_image(&narrowed(mask, None))
    }

    /// The resist's print of an `f32` aerial image at a corner's dose:
    /// bit for bit [`ResistModel::print_with_dose`] of the widened image.
    fn threshold(&self, aerial: &Grid<f32>, corner: Corner) -> BitGrid {
        let (dose, threshold) = (self.dose(corner), self.resist.threshold);
        aerial.map(|&i| u8::from(f64::from(i) * dose >= threshold))
    }

    /// Creates a scratch arena sized for the nominal simulator; reuse it
    /// across [`LithoSystem::simulate_into`] / [`LithoSystem::gradient_into`]
    /// iterations for allocation-free solver loops.
    pub fn workspace(&self) -> SimWorkspace<f32> {
        self.nominal.workspace()
    }

    /// Allocation-free forward pass into a reusable workspace (nominal
    /// focus), the mask rounded to `f32` on the way in. See
    /// [`LithoSimulator::simulate_into`].
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn simulate_into(
        &self,
        mask: &RealGrid,
        ws: &mut SimWorkspace<f32>,
    ) -> Result<(), LithoError> {
        let staged = narrowed(mask, ws.staged.take());
        let result = self.nominal.simulate_into(&staged, ws);
        ws.staged = Some(staged);
        result
    }

    /// Allocation-free adjoint pass using the fields left in `ws` by
    /// [`LithoSystem::simulate_into`] (nominal focus), `dL/dI` rounded to
    /// `f32` on the way in. See [`LithoSimulator::gradient_into`].
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn gradient_into<'w>(
        &self,
        ws: &'w mut SimWorkspace<f32>,
        dldi: &RealGrid,
    ) -> Result<&'w Grid<f32>, LithoError> {
        let staged = narrowed(dldi, ws.staged.take());
        let result = self.nominal.gradient_into(ws, &staged).map(|_| ());
        ws.staged = Some(staged);
        result.map(|()| ws.grad())
    }

    /// Does nothing: both optical paths always run on the calling thread.
    /// Kept for `benchmark/`; goes with ROADMAP item 1.
    pub fn set_inner_pool(&mut self, _pool: InnerPool) {}

    /// Prints the wafer at a process corner.
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn print(&self, mask: &RealGrid, corner: Corner) -> Result<BitGrid, LithoError> {
        ilt_telemetry::counter_add("litho.print", 1);
        Ok(self.threshold(&self.aerial_f32(mask, corner)?, corner))
    }

    /// Process-variation band: XOR area between the inner and outer corner
    /// prints, plus both prints for inspection.
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn pvband(&self, mask: &RealGrid) -> Result<PvBand, LithoError> {
        Ok(self.inspect(mask)?.1)
    }

    /// The nominal print and the process-variation band in two
    /// simulations: the outer corner is the nominal-focus aerial image at
    /// the over-dose, so one nominal image is thresholded at both doses,
    /// and only the inner corner needs a (defocused) image of its own.
    /// Bit for bit what [`LithoSystem::print`] at [`Corner::Nominal`] and
    /// [`LithoSystem::pvband`] return.
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn inspect(&self, mask: &RealGrid) -> Result<(BitGrid, PvBand), LithoError> {
        ilt_telemetry::counter_add("litho.print", 3);
        let focused = self.aerial_f32(mask, Corner::Nominal)?;
        let nominal = self.threshold(&focused, Corner::Nominal);
        let outer = self.threshold(&focused, Corner::Outer);
        drop(focused);
        let inner = self.threshold(&self.aerial_f32(mask, Corner::Inner)?, Corner::Inner);
        let area = inner.xor_count(&outer);
        Ok((nominal, PvBand { inner, outer, area }))
    }
}

/// The process-variation band of a mask (Definition 3).
#[derive(Debug, Clone)]
pub struct PvBand {
    /// Innermost contour print (defocus, under-dose).
    pub inner: BitGrid,
    /// Outermost contour print (nominal focus, over-dose).
    pub outer: BitGrid,
    /// `|Z_in XOR Z_out|` in pixels.
    pub area: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::{Grid, Rect};

    fn bank() -> LithoBank {
        LithoBank::new(OpticsConfig::test_small(), ResistModel::m1_default()).unwrap()
    }

    fn square_mask(n: usize) -> RealGrid {
        let mut mask = Grid::new(n, n, 0.0);
        mask.fill_rect(Rect::new(20, 20, 44, 44), 1.0);
        mask
    }

    #[test]
    fn system_construction_and_accessors() {
        let bank = bank();
        assert_eq!(bank.config().base_n, 64);
        let sys = bank.system(64, 1).unwrap();
        assert_eq!(sys.n(), 64);
        assert_eq!(sys.resist().threshold, ResistModel::m1_default().threshold);
        assert_eq!(sys.dose_delta(), 0.08);
    }

    #[test]
    fn scaled_system_requires_room_for_support() {
        let bank = bank();
        // support 23 * scale 4 = 92 > 64.
        assert!(matches!(
            bank.system(64, 4),
            Err(LithoError::GridMismatch { .. })
        ));
        assert!(bank.system(256, 4).is_ok());
    }

    #[test]
    fn big_feature_prints_and_background_does_not() {
        let bank = bank();
        let sys = bank.system(64, 1).unwrap();
        let mask = square_mask(64);
        let wafer = sys.print(&mask, Corner::Nominal).unwrap();
        assert_eq!(wafer.get(32, 32), 1, "feature center must print");
        assert_eq!(wafer.get(4, 4), 0, "far background must not print");
    }

    #[test]
    fn corner_ordering_inner_subset_outer() {
        // More dose prints more: the outer contour contains the inner one
        // almost everywhere (defocus can cause rare exceptions; none for a
        // large square).
        let bank = bank();
        let sys = bank.system(64, 1).unwrap();
        let mask = square_mask(64);
        let pv = sys.pvband(&mask).unwrap();
        let violations = pv
            .inner
            .as_slice()
            .iter()
            .zip(pv.outer.as_slice())
            .filter(|(i, o)| **i != 0 && **o == 0)
            .count();
        assert_eq!(violations, 0, "inner print escaping outer print");
        assert!(pv.area > 0, "process window must have nonzero band");
        assert_eq!(pv.area, pv.inner.xor_count(&pv.outer));
    }

    #[test]
    fn defocus_blurs_the_image() {
        // The defocused aerial image has a lower peak on a small feature.
        let bank = bank();
        let sys = bank.system(64, 1).unwrap();
        let mut mask = Grid::new(64, 64, 0.0);
        mask.fill_rect(Rect::new(28, 28, 37, 37), 1.0);
        let nominal = sys.aerial(&mask, Corner::Nominal).unwrap();
        let defocused = sys.aerial(&mask, Corner::Inner).unwrap();
        assert!(defocused.max() < nominal.max());
    }

    #[test]
    fn coarse_simulation_approximates_fine_lowpass() {
        // Eq. (9): simulating a downsampled mask with scale-2 kernels must
        // approximate the downsampled fine-grid aerial image.
        let bank = bank();
        let fine = bank.system(128, 2).unwrap(); // 128 px over a 128-unit region? No:
                                                 // n = 128, scale 2 => physical region 128 units of the base grid at
                                                 // double size: grid pitch 1, kernels stretched 2x in support.
        let coarse = bank.system(64, 2).unwrap();
        let mut mask = Grid::new(128, 128, 0.0);
        mask.fill_rect(Rect::new(40, 40, 88, 72), 1.0);
        let fine_aerial = fine.aerial(&mask, Corner::Nominal).unwrap();
        let down_mask = ilt_grid::resample::downsample(&mask, 2);
        let coarse_aerial = coarse.aerial(&down_mask, Corner::Nominal).unwrap();
        // Compare coarse pixels with the corresponding fine samples.
        let mut worst: f64 = 0.0;
        let mut total = 0.0;
        for y in 0..64 {
            for x in 0..64 {
                let diff = (coarse_aerial.get(x, y) - fine_aerial.get(2 * x, 2 * y)).abs();
                worst = worst.max(diff);
                total += diff;
            }
        }
        // Downsampling a binary mask loses edge detail, so pointwise error
        // at feature edges is real (the paper's motivation for the fine-grid
        // pass); the approximation must still be globally tight.
        assert!(worst < 0.2, "coarse/fine worst-case mismatch {worst}");
        let mean = total / (64.0 * 64.0);
        assert!(mean < 0.02, "coarse/fine mean mismatch {mean}");
    }

    #[test]
    fn half_resolution_of_a_tile_is_the_same_scale_on_half_the_grid() {
        // The bank's field-of-view contract (the `system` docs): the
        // half-resolution grid of an (n, s) tile is system(n / 2, s) — its
        // aerial image of the 2x-downsampled mask is the tile's image,
        // block-averaged — while system(n / 2, 2 s) sees a region twice the
        // tile's, through kernels stretched for it: a different image.
        let bank = LithoBank::new(OpticsConfig::m1_default(), ResistModel::m1_default()).unwrap();
        let mut mask = Grid::new(256, 256, 0.0);
        mask.fill_rect(Rect::new(64, 40, 80, 216), 1.0);
        mask.fill_rect(Rect::new(160, 40, 176, 216), 1.0);
        let fine = bank.system(256, 1).unwrap();
        let seen = ilt_grid::resample::downsample(&fine.aerial(&mask, Corner::Nominal).unwrap(), 2);
        let down = ilt_grid::resample::downsample(&mask, 2);
        let mismatch = |scale: usize| -> (f64, f64) {
            let coarse = bank.system(128, scale).unwrap();
            let image = coarse.aerial(&down, Corner::Nominal).unwrap();
            let worst = image
                .as_slice()
                .iter()
                .zip(seen.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            (worst, image.max())
        };
        let (same, peak_same) = mismatch(1);
        let (twice, peak_twice) = mismatch(2);
        assert!(same < 0.01, "system(128, 1) vs the tile: {same}");
        assert!(twice > 0.3, "system(128, 2) vs the tile: {twice}");
        assert!(
            (peak_same - seen.max()).abs() < 0.01,
            "{peak_same} vs {}",
            seen.max()
        );
        // Stretched kernels blur less per pixel: the lines print brighter.
        assert!(peak_twice > 1.5 * peak_same, "{peak_twice} vs {peak_same}");
        println!("max |dI| vs the tile: {same:.4} at s, {twice:.3} at 2 s; peaks {peak_same:.3}, {peak_twice:.3}");
        // At s = 4 the coarse level of the solver's schedule cannot be
        // built at all: 27 * 8 > 128.
        assert!(matches!(
            bank.system(128, 8),
            Err(LithoError::GridMismatch { .. })
        ));
    }
}
