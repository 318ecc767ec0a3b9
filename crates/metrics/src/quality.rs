//! Mask quality metrics: the L2 loss of Definition 2 and the PVBand of
//! Definition 3, evaluated through the full-region lithography system.

use ilt_grid::{BitGrid, RealGrid};
use ilt_litho::{LithoError, LithoSystem};

/// L2 loss (Definition 2): `||Z - Z_t||_2^2`. For binary images this is the
/// XOR area between the nominal print and the target.
pub fn l2_loss(wafer: &BitGrid, target: &BitGrid) -> usize {
    wafer.xor_count(target)
}

/// The quality triple reported per mask in Table 1 (stitch loss is computed
/// separately because it needs the partition's stitch lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskQuality {
    /// L2 loss in pixels (Definition 2).
    pub l2: usize,
    /// Process-variation band area in pixels (Definition 3).
    pub pvband: usize,
}

/// Evaluates a (continuous) mask: prints it at the nominal corner for L2
/// and at the process-window corners for PVBand — two full-region
/// simulations, the nominal image serving both the nominal and the
/// over-dose print ([`LithoSystem::inspect`]).
///
/// Per the paper's protocol, the inspection must run on the **entire**
/// region without tile partitioning — pass the full-layout `system`.
///
/// # Errors
///
/// Propagates lithography failures (shape mismatches and FFT errors).
pub fn mask_quality(
    system: &LithoSystem,
    mask: &RealGrid,
    target: &BitGrid,
) -> Result<MaskQuality, LithoError> {
    let (nominal, pv) = system.inspect(mask)?;
    Ok(MaskQuality {
        l2: l2_loss(&nominal, target),
        pvband: pv.area,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::{Grid, Rect};
    use ilt_litho::{LithoBank, OpticsConfig, ResistModel};

    #[test]
    fn l2_is_xor_area() {
        let a = Grid::from_vec(2, 2, vec![1u8, 0, 1, 0]);
        let b = Grid::from_vec(2, 2, vec![1u8, 1, 0, 0]);
        assert_eq!(l2_loss(&a, &b), 2);
        assert_eq!(l2_loss(&a, &a), 0);
    }

    #[test]
    fn quality_of_reasonable_mask() {
        let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::default()).unwrap();
        let system = bank.system(64, 1).unwrap();
        let mut target = Grid::new(64, 64, 0u8);
        target.fill_rect(Rect::new(20, 20, 44, 44), 1);
        let mask = target.to_real();
        let q = mask_quality(&system, &mask, &target).unwrap();
        // A naive mask prints with rounded corners: nonzero but bounded L2.
        assert!(q.l2 > 0);
        assert!(q.l2 < 24 * 24);
        assert!(q.pvband > 0);
    }

    #[test]
    fn better_mask_scores_lower_l2() {
        // A mask whose print equals the target scores L2 = 0 by definition;
        // verify monotonicity using the target vs. an empty mask.
        let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::default()).unwrap();
        let system = bank.system(64, 1).unwrap();
        let mut target = Grid::new(64, 64, 0u8);
        target.fill_rect(Rect::new(20, 20, 44, 44), 1);
        let good = mask_quality(&system, &target.to_real(), &target).unwrap();
        let empty = mask_quality(&system, &Grid::new(64, 64, 0.0), &target).unwrap();
        assert!(good.l2 < empty.l2);
        assert_eq!(empty.l2, target.count_ones());
    }
}
