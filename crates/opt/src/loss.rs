//! The ILT objective: squared error between the sigmoid-relaxed wafer image
//! and the target, differentiated with respect to the aerial intensity.

use ilt_fft::{logistic_loss, Float};
use ilt_grid::{Grid, RealGrid};
use ilt_litho::ResistModel;

/// Result of evaluating the objective at one aerial image, whose pixels
/// are of type `T` (`f64` unless named otherwise; the pixel solver
/// iterates in `f32`).
#[derive(Debug, Clone)]
pub struct LossEval<T = f64> {
    /// Scalar loss `sum (Z - Z_t)^2` over the relaxed wafer image, summed
    /// in `f64` whatever `T` is.
    pub value: f64,
    /// Derivative of the loss with respect to the aerial intensity,
    /// `dL/dI = 2 (Z - Z_t) . k Z (1 - Z)`.
    pub dldi: Grid<T>,
}

/// Evaluates the relaxed L2 objective against `target` (0/1 valued).
///
/// # Panics
///
/// Panics if `aerial` and `target` shapes differ.
///
/// # Examples
///
/// ```
/// use ilt_grid::Grid;
/// use ilt_litho::ResistModel;
/// use ilt_opt::evaluate_loss;
///
/// let resist = ResistModel::default();
/// // An aerial image exactly at threshold prints Z = 0.5 everywhere.
/// let aerial = Grid::new(4, 4, resist.threshold);
/// let target = Grid::new(4, 4, 1.0);
/// let eval = evaluate_loss(&resist, &aerial, &target);
/// assert!((eval.value - 16.0 * 0.25).abs() < 1e-12);
/// ```
pub fn evaluate_loss(resist: &ResistModel, aerial: &RealGrid, target: &RealGrid) -> LossEval {
    let mut out = LossEval {
        value: 0.0,
        dldi: RealGrid::new(aerial.width(), aerial.height(), 0.0),
    };
    evaluate_loss_into(resist, aerial, target, &mut out);
    out
}

/// Evaluates the relaxed L2 objective into reusable buffers, in either
/// element type: at steady state (matching shapes) this performs zero heap
/// allocations, which is what lets the solvers' iteration loops stay
/// allocation-free. Mismatched buffer shapes are (re)allocated on first
/// use. One vectorised sweep ([`ilt_fft::logistic_loss`]): one logistic
/// per pixel, the loss summed in `f64`, and a NaN intensity yields a NaN
/// loss.
///
/// # Panics
///
/// Panics if `aerial` and `target` shapes differ.
pub fn evaluate_loss_into<T: Float>(
    resist: &ResistModel,
    aerial: &Grid<T>,
    target: &Grid<T>,
    out: &mut LossEval<T>,
) {
    assert_eq!(
        (aerial.width(), aerial.height()),
        (target.width(), target.height()),
        "aerial and target shapes differ"
    );
    let (w, h) = (aerial.width(), aerial.height());
    if (out.dldi.width(), out.dldi.height()) != (w, h) {
        out.dldi = Grid::new(w, h, T::ZERO);
    }
    out.value = logistic_loss(
        aerial.as_slice(),
        T::from_f64(resist.threshold),
        T::from_f64(resist.steepness),
        target.as_slice(),
        out.dldi.as_mut_slice(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::Grid;

    fn resist() -> ResistModel {
        ResistModel {
            threshold: 0.3,
            steepness: 20.0,
        }
    }

    #[test]
    fn perfect_image_has_near_zero_loss() {
        let r = resist();
        // Aerial far above threshold where target = 1, far below where 0.
        let target = Grid::from_vec(2, 1, vec![1.0, 0.0]);
        let aerial = Grid::from_vec(2, 1, vec![1.0, 0.0]);
        let eval = evaluate_loss(&r, &aerial, &target);
        assert!(eval.value < 1e-5, "loss {}", eval.value);
    }

    #[test]
    fn wrong_image_has_large_loss() {
        let r = resist();
        let target = Grid::from_vec(2, 1, vec![1.0, 0.0]);
        let aerial = Grid::from_vec(2, 1, vec![0.0, 1.0]);
        let eval = evaluate_loss(&r, &aerial, &target);
        assert!(eval.value > 1.9, "loss {}", eval.value);
    }

    #[test]
    fn gradient_sign_pushes_towards_target() {
        let r = resist();
        // Under-exposed feature pixel: increasing I must decrease loss.
        let target = Grid::from_vec(1, 1, vec![1.0]);
        let aerial = Grid::from_vec(1, 1, vec![0.25]);
        let eval = evaluate_loss(&r, &aerial, &target);
        assert!(eval.dldi.get(0, 0) < 0.0);
        // Over-exposed background pixel: increasing I must increase loss.
        let target = Grid::from_vec(1, 1, vec![0.0]);
        let eval = evaluate_loss(&r, &aerial, &target);
        assert!(eval.dldi.get(0, 0) > 0.0);
    }

    #[test]
    fn dldi_matches_finite_difference() {
        let r = resist();
        let target = Grid::from_vec(1, 1, vec![1.0]);
        for &i0 in &[0.1, 0.3, 0.45] {
            let aerial = Grid::from_vec(1, 1, vec![i0]);
            let eval = evaluate_loss(&r, &aerial, &target);
            let eps = 1e-7;
            let bumped = evaluate_loss(&r, &Grid::from_vec(1, 1, vec![i0 + eps]), &target);
            let numeric = (bumped.value - eval.value) / eps;
            let analytic = eval.dldi.get(0, 0);
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + analytic.abs()),
                "at {i0}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn agrees_with_the_resist_model_pixel_by_pixel() {
        // The sweep and `ResistModel`'s scalar methods are one definition.
        let r = resist();
        let aerial = Grid::from_fn(9, 7, |x, y| 0.05 * x as f64 + 0.03 * y as f64);
        let target = Grid::from_fn(9, 7, |x, y| ((x + y) % 2) as f64);
        let eval = evaluate_loss(&r, &aerial, &target);
        let mut value = 0.0;
        for ((&i, &zt), &d) in aerial
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .zip(eval.dldi.as_slice())
        {
            let z = r.sigmoid_at(i);
            value += (z - zt) * (z - zt);
            assert_eq!(d, 2.0 * (z - zt) * r.sigmoid_derivative_from(z));
        }
        assert!((eval.value - value).abs() <= 1e-12 * value);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn shape_mismatch_panics() {
        let r = resist();
        let _ = evaluate_loss(&r, &Grid::new(2, 2, 0.0), &Grid::new(3, 3, 0.0));
    }
}
