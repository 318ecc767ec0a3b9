//! The bank resamples each scale's kernel sets once, and rejects a system
//! whose scaled support cannot fit its grid before resampling anything.
//! The `litho.kernel_resample` counter (one per optical path resampled)
//! tells.
//!
//! Lives in its own test binary (single test) because it toggles and
//! drains the process-global telemetry collector.

use ilt_grid::{Grid, Rect};
use ilt_litho::{Corner, LithoBank, LithoError, OpticsConfig, ResistModel};

#[test]
fn each_scale_is_resampled_once_and_oversized_systems_are_rejected_first() {
    let bank = || LithoBank::new(OpticsConfig::m1_default(), ResistModel::m1_default()).unwrap();
    let memo = bank();
    let resamples = || {
        ilt_telemetry::drain()
            .counters
            .get("litho.kernel_resample")
            .copied()
            .unwrap_or(0)
    };
    ilt_telemetry::set_enabled(true);
    let _ = ilt_telemetry::drain();
    let first = memo.system(256, 4).unwrap();
    assert_eq!(resamples(), 2, "the first request resamples both paths");
    let again = memo.system(256, 4).unwrap();
    memo.system(512, 4).unwrap();
    assert_eq!(resamples(), 0, "a memoized scale resamples nothing");
    // The coarse level of a cold s = 4 solve: P = 27 * 8 = 216 > 128.
    assert_eq!(
        memo.system(128, 8).unwrap_err(),
        LithoError::GridMismatch {
            grid: 128,
            support: 216
        }
    );
    assert_eq!(resamples(), 0, "an oversized system is rejected first");
    ilt_telemetry::set_enabled(false);

    // Shared tables, same images: a memoized system is a fresh one.
    let mut mask = Grid::new(256, 256, 0.0);
    mask.fill_rect(Rect::new(60, 40, 200, 90), 1.0);
    mask.fill_rect(Rect::new(100, 130, 124, 230), 1.0);
    let fresh = bank().system(256, 4).unwrap();
    for corner in [Corner::Nominal, Corner::Inner] {
        let want = fresh.aerial(&mask, corner).unwrap();
        assert_eq!(first.aerial(&mask, corner).unwrap(), want);
        assert_eq!(again.aerial(&mask, corner).unwrap(), want);
    }
}
