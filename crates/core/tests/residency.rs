//! The bounded-memory contract of the tile-stage pipeline: a flow keeps at
//! most one colour band of solved tile masks resident between solve and
//! fold, however many tiles the grid has.
//!
//! `ilt_prof::residency` is process-global, so this is its own
//! integration binary with a single test: nothing else in the process
//! acquires residency while the flow under measurement runs.

use ilt_core::flows::multigrid_schwarz;
use ilt_core::ExperimentConfig;
use ilt_layout::generate_clip;
use ilt_litho::{LithoBank, ResistModel};
use ilt_opt::PixelIlt;
use ilt_tile::{multi_coloring, Partition, TileExecutor};

#[test]
fn resident_tile_masks_are_bounded_by_one_colour_band() {
    // clip = tile + 3 strides: a 4×4 grid of 16 fine tiles.
    let mut config = ExperimentConfig::test_tiny();
    let tile = config.partition.tile;
    config.clip = tile + 3 * (tile - config.partition.overlap);
    config.generator.size = config.clip;
    let partition = Partition::new(config.clip, config.clip, config.partition).unwrap();
    assert_eq!(partition.tiles().len(), 16);
    let largest_band = multi_coloring(&partition)
        .groups()
        .iter()
        .map(Vec::len)
        .max()
        .unwrap();
    assert_eq!(largest_band, 4);
    let band_bound = (largest_band * tile * tile * std::mem::size_of::<f64>()) as i64;

    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let target = generate_clip(&config.generator, 1);
    ilt_prof::residency::reset();
    multigrid_schwarz(
        &config,
        &bank,
        &target,
        &PixelIlt::new(),
        &TileExecutor::new(2),
    )
    .unwrap();

    let peak = ilt_prof::residency::peak_bytes();
    assert!(peak > 0, "the flow never accounted a resident band");
    // Holding every fine tile before folding would peak at 16 tiles, four
    // times the bound.
    assert!(
        peak <= band_bound,
        "resident tile masks peaked at {peak} B, above one colour band ({band_bound} B)"
    );
    assert_eq!(
        ilt_prof::residency::resident_bytes(),
        0,
        "every acquired band must be released once folded"
    );
}
