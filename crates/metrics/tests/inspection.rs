//! Inspection simulates the nominal aerial image once: `mask_quality` runs
//! two full-region simulations (nominal focus, thresholded at the nominal
//! and the over-dose; defocus at the under-dose), and scores exactly what
//! the three separate corner prints score.
//!
//! Lives in its own test binary (single test) because it toggles and
//! drains the process-global telemetry collector.

use ilt_grid::{Grid, Rect};
use ilt_litho::{Corner, LithoBank, OpticsConfig, ResistModel};
use ilt_metrics::{l2_loss, mask_quality};

#[test]
fn mask_quality_simulates_twice_and_matches_three_corner_prints() {
    let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::m1_default()).unwrap();
    let system = bank.system(64, 1).unwrap();
    let mut target = Grid::new(64, 64, 0u8);
    target.fill_rect(Rect::new(12, 10, 30, 50), 1);
    target.fill_rect(Rect::new(38, 20, 54, 28), 1);
    // A gray, not quite binary mask: every corner prints differently.
    let mask = Grid::from_fn(64, 64, |x, y| {
        let inside = target.get(x, y) != 0;
        let ripple = 0.1 * ((x as f64 * 0.7).sin() * (y as f64 * 0.3).cos());
        if inside {
            0.85 + ripple
        } else {
            0.05 + ripple.abs()
        }
    });

    ilt_telemetry::set_enabled(true);
    let _ = ilt_telemetry::drain();
    let quality = mask_quality(&system, &mask, &target).unwrap();
    let simulations = ilt_telemetry::drain()
        .counters
        .get("litho.simulate")
        .copied();
    ilt_telemetry::set_enabled(false);
    assert_eq!(simulations, Some(2));

    let nominal = system.print(&mask, Corner::Nominal).unwrap();
    let inner = system.print(&mask, Corner::Inner).unwrap();
    let outer = system.print(&mask, Corner::Outer).unwrap();
    assert_eq!(quality.l2, l2_loss(&nominal, &target));
    assert_eq!(quality.pvband, inner.xor_count(&outer));
    assert!(quality.l2 > 0 && quality.pvband > 0, "{quality:?}");
}
