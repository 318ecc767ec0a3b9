//! The bounded-memory contract of the tile-stage pipeline: a flow keeps at
//! most one colour band of solved tile masks resident between solve and
//! fold, however many tiles the grid has.
//!
//! Each band's `assembly` span records the bytes of solved tile masks it
//! folds (`resident_bytes`); each test reads the largest from its own
//! trace, so the grids run as separate tests.

use ilt_core::flows::multigrid_schwarz;
use ilt_core::ExperimentConfig;
use ilt_layout::generate_clip;
use ilt_litho::{LithoBank, ResistModel};
use ilt_opt::PixelIlt;
use ilt_telemetry as tele;
use ilt_tile::{Partition, TileExecutor};

/// Runs the flow on a `count`×`count` tile grid with two workers and
/// checks its resident tile masks against one colour band.
fn resident_tile_masks_are_bounded_by_one_colour_band(count: usize) {
    let base = ExperimentConfig::test_tiny();
    let tile = base.partition.tile;
    let stride = tile - base.partition.overlap;
    let bank = LithoBank::new(base.optics, ResistModel::m1_default()).unwrap();
    // clip = tile + (count - 1) strides puts `count` tile origins on each
    // axis, under the deepest hierarchy whose coarsest tile still fits the
    // clip.
    let mut config = base.clone();
    config.clip = tile + (count - 1) * stride;
    config.generator.size = config.clip;
    config.s_max = 1;
    while 2 * config.s_max <= base.s_max && 2 * config.s_max * tile <= config.clip {
        config.s_max *= 2;
    }
    let partition = Partition::new(config.clip, config.clip, config.partition).unwrap();
    assert_eq!(partition.tiles().len(), count * count);
    // One colour band of fine tile masks. The only coarse level these
    // grids reach is s = 2, whose bands are a single (2·tile)² mask: four
    // fine tiles' worth, which is also the largest fine band of every grid
    // that has that level (3×3 and 4×4).
    let largest_band = partition.bands().iter().map(Vec::len).max().unwrap();
    let band_bound = (largest_band * tile * tile * std::mem::size_of::<f64>()) as u64;

    let target = generate_clip(&config.generator, 1);
    // Keep every span of the run; the tests of this binary share the store.
    tele::flight::set_capacity(usize::MAX);
    let (trace, scope) = tele::new_trace_scope();
    multigrid_schwarz(
        &config,
        &bank,
        &target,
        &PixelIlt::new(),
        &TileExecutor::new(2),
    )
    .unwrap();
    drop(scope);

    let peak = tele::flight::spans(Some(trace.0))
        .iter()
        .filter(|e| e.name == tele::names::ASSEMBLY)
        .filter_map(|e| e.field("resident_bytes")?.as_u64())
        .max()
        .unwrap_or(0);
    assert!(
        peak > 0,
        "{count}x{count}: no assembly span recorded a resident band"
    );
    // Holding every fine tile before folding would peak at count² tiles:
    // 9 against a band of 4 at 3×3, 16 against 4 at 4×4.
    assert!(
        peak <= band_bound,
        "{count}x{count}: resident tile masks peaked at {peak} B, above one colour \
         band ({band_bound} B)"
    );
}

#[test]
fn one_by_one_grid_holds_one_band() {
    resident_tile_masks_are_bounded_by_one_colour_band(1);
}

#[test]
fn two_by_two_grid_holds_one_band() {
    resident_tile_masks_are_bounded_by_one_colour_band(2);
}

#[test]
fn three_by_three_grid_holds_one_band() {
    resident_tile_masks_are_bounded_by_one_colour_band(3);
}

#[test]
fn four_by_four_grid_holds_one_band() {
    resident_tile_masks_are_bounded_by_one_colour_band(4);
}
