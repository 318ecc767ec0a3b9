//! A complete lithography system: nominal and defocused optical paths, the
//! resist model, and the process corners of Definition 3.

use ilt_grid::{BitGrid, RealGrid};

use crate::error::LithoError;
use crate::kernels::KernelSet;
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

/// Precomputed kernel banks shared by every simulator the flows create.
///
/// Building the TCC and its eigendecomposition is the expensive one-time
/// step; afterwards, simulators for any region size and scale are cheap
/// (kernel resampling only).
#[derive(Debug, Clone)]
pub struct LithoBank {
    config: OpticsConfig,
    resist: ResistModel,
    nominal: KernelSet,
    defocused: KernelSet,
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
            nominal,
            defocused,
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

    /// Estimated resident bytes of this bank (the nominal and defocused
    /// sets' kernel spectra and slot tables; see
    /// [`KernelSet::estimated_bytes`]).
    pub fn estimated_bytes(&self) -> u64 {
        self.nominal.estimated_bytes() + self.defocused.estimated_bytes()
    }

    /// Creates a [`LithoSystem`] for a grid of `n x n` pixels covering a
    /// physical region `scale` times larger than the base grid (Eq. (3):
    /// the kernels are resampled at bins `j/scale`).
    ///
    /// For example, with a 128-pixel base grid:
    /// * `system(128, 1)` — a fine-grid tile simulator;
    /// * `system(128, 2)` — the coarse-grid simulator of Eq. (9) (mask
    ///   downsampled 2x, covering a 256-pixel region);
    /// * `system(256, 2)` — the full-resolution large-area simulator used
    ///   for final inspection.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::GridMismatch`] if the scaled kernel support
    /// does not fit `n`, or [`LithoError::Fft`] for non-power-of-two `n`.
    pub fn system(&self, n: usize, scale: usize) -> Result<LithoSystem, LithoError> {
        let nominal = LithoSimulator::new(n, self.nominal.scaled(scale)?)?;
        let defocused = LithoSimulator::new(n, self.defocused.scaled(scale)?)?;
        // The paper uses +-2% dose at a 1 nm pixel pitch; our default grids
        // are ~8x coarser, so the process window is widened to keep the
        // band-to-contour-length ratio comparable (see DESIGN.md).
        Ok(LithoSystem {
            nominal,
            defocused,
            resist: self.resist,
            dose_delta: 0.08,
        })
    }
}

/// Nominal + defocused simulators with the resist model: everything needed
/// to print wafers at all three corners and to drive gradient ILT.
#[derive(Debug)]
pub struct LithoSystem {
    nominal: LithoSimulator,
    defocused: LithoSimulator,
    resist: ResistModel,
    dose_delta: f64,
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
    pub fn simulator(&self) -> &LithoSimulator {
        &self.nominal
    }

    /// Relative dose excursion of the process window (the paper uses 2% at
    /// a 1 nm pixel; scaled up here to match the coarser default pitch).
    #[inline]
    pub fn dose_delta(&self) -> f64 {
        self.dose_delta
    }

    /// Aerial image at the given focus condition (dose is applied at the
    /// resist, not here).
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn aerial(&self, mask: &RealGrid, corner: Corner) -> Result<RealGrid, LithoError> {
        match corner {
            Corner::Inner => self.defocused.aerial_image(mask),
            Corner::Nominal | Corner::Outer => self.nominal.aerial_image(mask),
        }
    }

    /// Creates a scratch arena sized for the nominal simulator; reuse it
    /// across [`LithoSystem::simulate_into`] / [`LithoSystem::gradient_into`]
    /// iterations for allocation-free solver loops.
    pub fn workspace(&self) -> SimWorkspace {
        self.nominal.workspace()
    }

    /// Allocation-free forward pass into a reusable workspace (nominal
    /// focus). See [`LithoSimulator::simulate_into`].
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn simulate_into(&self, mask: &RealGrid, ws: &mut SimWorkspace) -> Result<(), LithoError> {
        self.nominal.simulate_into(mask, ws)
    }

    /// Allocation-free adjoint pass using the fields left in `ws` by
    /// [`LithoSystem::simulate_into`] (nominal focus). See
    /// [`LithoSimulator::gradient_into`].
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn gradient_into<'w>(
        &self,
        ws: &'w mut SimWorkspace,
        dldi: &RealGrid,
    ) -> Result<&'w RealGrid, LithoError> {
        self.nominal.gradient_into(ws, dldi)
    }

    /// Replaces the inner pool on both optical paths.
    pub fn set_inner_pool(&mut self, pool: InnerPool) {
        self.nominal.set_inner_pool(pool);
        self.defocused.set_inner_pool(pool);
    }

    /// Prints the wafer at a process corner.
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn print(&self, mask: &RealGrid, corner: Corner) -> Result<BitGrid, LithoError> {
        ilt_telemetry::counter_add("litho.print", 1);
        let aerial = self.aerial(mask, corner)?;
        let dose = match corner {
            Corner::Nominal => 1.0,
            Corner::Inner => 1.0 - self.dose_delta,
            Corner::Outer => 1.0 + self.dose_delta,
        };
        Ok(self.resist.print_with_dose(&aerial, dose))
    }

    /// Process-variation band: XOR area between the inner and outer corner
    /// prints, plus both prints for inspection.
    ///
    /// # Errors
    ///
    /// Propagates simulator shape errors.
    pub fn pvband(&self, mask: &RealGrid) -> Result<PvBand, LithoError> {
        let inner = self.print(mask, Corner::Inner)?;
        let outer = self.print(mask, Corner::Outer)?;
        let area = inner.xor_count(&outer);
        Ok(PvBand { inner, outer, area })
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
}
