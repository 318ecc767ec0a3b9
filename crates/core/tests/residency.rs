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
    let base = ExperimentConfig::test_tiny();
    let tile = base.partition.tile;
    let stride = tile - base.partition.overlap;
    let bank = LithoBank::new(base.optics, ResistModel::m1_default()).unwrap();
    // clip = tile + (count - 1) strides puts `count` tile origins on each
    // axis: the 1×1, 2×2, 3×3 and 4×4 grids, each under the deepest
    // hierarchy whose coarsest tile still fits the clip.
    for count in 1usize..=4 {
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
        // grids reach is s = 2, whose bands are a single (2·tile)² mask:
        // four fine tiles' worth, which is also the largest fine band of
        // every grid that has that level (3×3 and 4×4).
        let largest_band = multi_coloring(&partition)
            .groups()
            .iter()
            .map(Vec::len)
            .max()
            .unwrap();
        let band_bound = (largest_band * tile * tile * std::mem::size_of::<f64>()) as i64;

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
        assert!(
            peak > 0,
            "{count}x{count}: the flow never accounted a resident band"
        );
        // Holding every fine tile before folding would peak at count²
        // tiles: 9 against a band of 4 at 3×3, 16 against 4 at 4×4.
        assert!(
            peak <= band_bound,
            "{count}x{count}: resident tile masks peaked at {peak} B, above one colour \
             band ({band_bound} B)"
        );
        assert_eq!(
            ilt_prof::residency::resident_bytes(),
            0,
            "{count}x{count}: every acquired band must be released once folded"
        );
    }
}
