//! The photoresist model: constant threshold for printing, sigmoid
//! relaxation for optimisation.
//!
//! Consistent with the ICCAD-2013 setup the paper uses, the resist is a
//! constant-threshold model: a pixel develops when the (dose-scaled) aerial
//! intensity reaches `threshold`. Gradient-based ILT needs a differentiable
//! surrogate, so the same model also exposes the logistic relaxation
//! `Z = sigmoid(steepness * (I - threshold))` and its derivative.

use ilt_fft::{logistic, logistic_scaled};
use ilt_grid::{BitGrid, RealGrid};

/// Constant-threshold resist with a sigmoid relaxation.
///
/// # Examples
///
/// ```
/// use ilt_grid::Grid;
/// use ilt_litho::ResistModel;
///
/// let resist = ResistModel::default();
/// let aerial = Grid::from_vec(2, 1, vec![0.1, 0.9]);
/// let wafer = resist.print(&aerial);
/// assert_eq!(wafer.as_slice(), &[0, 1]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistModel {
    /// Intensity at which the resist switches.
    pub threshold: f64,
    /// Steepness of the sigmoid relaxation.
    pub steepness: f64,
}

impl ResistModel {
    /// The threshold used by the benchmark configuration.
    pub fn m1_default() -> Self {
        ResistModel {
            threshold: 0.32,
            steepness: 32.0,
        }
    }

    /// Validates parameters.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1)` or the steepness is not
    /// positive.
    pub fn validate(&self) {
        assert!(
            self.threshold > 0.0 && self.threshold < 1.0,
            "threshold must lie in (0, 1)"
        );
        assert!(self.steepness > 0.0, "steepness must be positive");
    }

    /// Hard-threshold print at nominal dose.
    pub fn print(&self, aerial: &RealGrid) -> BitGrid {
        self.print_with_dose(aerial, 1.0)
    }

    /// Hard-threshold print with the intensity scaled by `dose`.
    pub fn print_with_dose(&self, aerial: &RealGrid, dose: f64) -> BitGrid {
        aerial.map(|&i| u8::from(i * dose >= self.threshold))
    }

    /// Sigmoid-relaxed wafer value `Z = sigmoid(k (I - th))` at one
    /// intensity. The scalar form of [`ResistModel::sigmoid`], for
    /// allocation-free per-pixel loops.
    #[inline]
    pub fn sigmoid_at(&self, intensity: f64) -> f64 {
        logistic(self.steepness * (intensity - self.threshold))
    }

    /// Derivative `dZ/dI = k Z (1 - Z)` at one intensity (scalar form of
    /// [`ResistModel::sigmoid_derivative`]).
    #[inline]
    pub fn sigmoid_derivative_at(&self, intensity: f64) -> f64 {
        self.sigmoid_derivative_from(self.sigmoid_at(intensity))
    }

    /// Derivative `dZ/dI = k Z (1 - Z)` given an already-computed sigmoid
    /// value `z`. Loops that need both `Z` and `dZ/dI` per pixel should
    /// call [`ResistModel::sigmoid_at`] once and feed the result here,
    /// halving the `exp` work.
    #[inline]
    pub fn sigmoid_derivative_from(&self, z: f64) -> f64 {
        self.steepness * z * (1.0 - z)
    }

    /// Sigmoid-relaxed wafer image `Z = sigmoid(k (I - th))`: one slice
    /// sweep, pixel for pixel equal to [`ResistModel::sigmoid_at`].
    pub fn sigmoid(&self, aerial: &RealGrid) -> RealGrid {
        let mut wafer = RealGrid::new(aerial.width(), aerial.height(), 0.0);
        logistic_scaled(
            aerial.as_slice(),
            self.threshold,
            self.steepness,
            wafer.as_mut_slice(),
        );
        wafer
    }

    /// Derivative `dZ/dI = k Z (1 - Z)` evaluated from the aerial image.
    pub fn sigmoid_derivative(&self, aerial: &RealGrid) -> RealGrid {
        self.sigmoid(aerial)
            .map(|&z| self.sigmoid_derivative_from(z))
    }
}

impl Default for ResistModel {
    fn default() -> Self {
        ResistModel::m1_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::Grid;

    #[test]
    fn default_validates() {
        ResistModel::default().validate();
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_bad_threshold() {
        ResistModel {
            threshold: 1.5,
            steepness: 10.0,
        }
        .validate();
    }

    #[test]
    fn print_thresholds_exactly() {
        let r = ResistModel {
            threshold: 0.5,
            steepness: 10.0,
        };
        let aerial = Grid::from_vec(3, 1, vec![0.49, 0.5, 0.51]);
        assert_eq!(r.print(&aerial).as_slice(), &[0, 1, 1]);
    }

    #[test]
    fn dose_scales_intensity() {
        let r = ResistModel {
            threshold: 0.5,
            steepness: 10.0,
        };
        let aerial = Grid::from_vec(1, 1, vec![0.49]);
        assert_eq!(r.print_with_dose(&aerial, 1.05).as_slice(), &[1]);
        assert_eq!(r.print_with_dose(&aerial, 0.95).as_slice(), &[0]);
    }

    #[test]
    fn sigmoid_is_centered_and_monotone() {
        let r = ResistModel {
            threshold: 0.3,
            steepness: 20.0,
        };
        let aerial = Grid::from_vec(3, 1, vec![0.1, 0.3, 0.5]);
        let z = r.sigmoid(&aerial);
        assert!(z.get(0, 0) < 0.5);
        assert!((z.get(1, 0) - 0.5).abs() < 1e-12);
        assert!(z.get(2, 0) > 0.5);
        assert!(z.get(0, 0) < z.get(1, 0) && z.get(1, 0) < z.get(2, 0));
        // The grid sweep and the scalar form are one definition.
        for (&i, &z) in aerial.as_slice().iter().zip(z.as_slice()) {
            assert_eq!(z, r.sigmoid_at(i));
        }
    }

    #[test]
    fn sigmoid_derivative_matches_finite_difference() {
        let r = ResistModel::default();
        let eps = 1e-7;
        for &i0 in &[0.1, 0.32, 0.7] {
            let a = Grid::from_vec(1, 1, vec![i0]);
            let b = Grid::from_vec(1, 1, vec![i0 + eps]);
            let numeric = (r.sigmoid(&b).get(0, 0) - r.sigmoid(&a).get(0, 0)) / eps;
            let analytic = r.sigmoid_derivative(&a).get(0, 0);
            assert!((numeric - analytic).abs() < 1e-5 * (1.0 + analytic.abs()));
        }
    }

    #[test]
    fn sigmoid_saturates_far_from_threshold_and_keeps_nan() {
        let r = ResistModel::default();
        let far = 800.0 / r.steepness;
        assert!((r.sigmoid_at(r.threshold + far) - 1.0).abs() < 1e-15);
        assert!(r.sigmoid_at(r.threshold - far).abs() < 1e-15);
        assert!((r.sigmoid_at(r.threshold) - 0.5).abs() < 1e-15);
        assert!(r.sigmoid_at(f64::NAN).is_nan());
    }
}
