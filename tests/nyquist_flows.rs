//! Flow-level coverage of the Nyquist-grid SOCS evaluation.
//!
//! At the `tiny` scale every simulator has `n_s = n` (`test_small`:
//! `2P - 1 = 45 > 32`), so the band-limited path never runs there, and
//! `paper_default()` is too slow for tier-1. This geometry sits between:
//! `test_small`'s pupil on 128-pixel tiles (`P = 23`, fields evaluated on a
//! 64-point grid), the 256-pixel clip inspected and full-chip-solved at
//! scale 2 (`P = 46`, 128-point grid) — so `ilt-opt`, `ilt-tile` and
//! `ilt-core` all run through it, and the invariants the tiny-scale suites
//! assert must hold here too.

use multigrid_schwarz_ilt::core::experiment::{run_method, Method};
use multigrid_schwarz_ilt::core::ExperimentConfig;
use multigrid_schwarz_ilt::grid::RealGrid;
use multigrid_schwarz_ilt::layout::{suite_of_size, GeneratorConfig};
use multigrid_schwarz_ilt::litho::{LithoBank, OpticsConfig, ResistModel};
use multigrid_schwarz_ilt::metrics::mask_quality;
use multigrid_schwarz_ilt::tile::{PartitionConfig, TileExecutor};

/// `test_tiny` with the tile edge doubled under the same pupil (features
/// doubled with it so they stay resolvable); `tiles` is the clip edge in
/// tiles' strides: 2 gives the usual 3 x 3 grid, 1 a single tile.
fn config(tiles: usize) -> ExperimentConfig {
    let optics = OpticsConfig {
        base_n: 128,
        ..OpticsConfig::test_small()
    };
    let clip = tiles * optics.base_n;
    ExperimentConfig {
        clip,
        partition: PartitionConfig {
            tile: optics.base_n,
            overlap: optics.base_n / 2,
        },
        optics,
        generator: GeneratorConfig {
            wire_width: 18,
            wire_space: 26,
            border: 16,
            ..GeneratorConfig::with_size(clip)
        },
        s_max: tiles,
        ..ExperimentConfig::test_tiny()
    }
}

fn bank(config: &ExperimentConfig) -> LithoBank {
    LithoBank::new(config.optics, ResistModel::m1_default()).expect("bank")
}

/// Edge of the grid `system(n, scale)` evaluates its kernel fields on.
fn field_grid(bank: &LithoBank, n: usize, scale: usize) -> usize {
    let system = bank.system(n, scale).expect("system");
    let mut ws = system.workspace();
    system
        .simulate_into(&RealGrid::new(n, n, 0.5), &mut ws)
        .expect("simulate");
    ws.fields()[0].len().isqrt()
}

fn assert_valid_mask(mask: &RealGrid, label: &str) {
    assert!(
        mask.as_slice()
            .iter()
            .all(|m| m.is_finite() && (0.0..=1.0).contains(m)),
        "{label}: mask leaves [0, 1]"
    );
}

#[test]
fn ours_and_full_chip_solve_through_the_nyquist_grid() {
    let config = config(2);
    let bank = bank(&config);
    // The geometry does what the header says: fine tiles and the clip-level
    // system evaluate on coarser grids than their masks.
    assert_eq!(field_grid(&bank, 128, 1), 64);
    assert_eq!(field_grid(&bank, 256, 2), 128);

    let clip = suite_of_size(&config.generator, 1).remove(0);
    let inspection = bank
        .system(config.clip, config.inspection_scale())
        .expect("inspection");
    let naive = mask_quality(&inspection, &clip.target.to_real(), &clip.target).expect("naive");
    for method in [Method::Ours, Method::FullChip] {
        let flow = run_method(
            method,
            &config,
            &bank,
            &clip.target,
            &TileExecutor::sequential(),
        )
        .expect("flow");
        assert_valid_mask(&flow.mask, method.label());
        assert!(flow.degraded.is_empty(), "{}: degraded", method.label());
        let binary = flow.mask.threshold(0.5).to_real();
        let quality = mask_quality(&inspection, &binary, &clip.target).expect("quality");
        assert!(
            quality.l2 < naive.l2,
            "{}: L2 {} not better than naive {}",
            method.label(),
            quality.l2,
            naive.l2
        );
        assert!(quality.pvband > 0, "{}", method.label());
    }
}

#[test]
fn tile_workers_do_not_change_the_mask() {
    let config = config(2);
    let bank = bank(&config);
    let clip = suite_of_size(&config.generator, 2).remove(1);
    let run = |executor: &TileExecutor| {
        run_method(Method::Ours, &config, &bank, &clip.target, executor).expect("flow")
    };
    let one = run(&TileExecutor::sequential());
    let two = run(&TileExecutor::new(2));
    assert_eq!(one.mask, two.mask);
    assert!(one.degraded.is_empty() && two.degraded.is_empty());
}

#[test]
fn full_chip_equals_a_one_tile_partition() {
    // One 128-pixel tile covering the whole clip: the tiled flow's restrict
    // -> solve -> assemble round trip must add nothing to the plain solve.
    let config = config(1);
    let bank = bank(&config);
    assert_eq!(field_grid(&bank, 128, 1), 64);
    let clip = suite_of_size(&config.generator, 1).remove(0);
    let executor = TileExecutor::sequential();
    let full = run_method(Method::FullChip, &config, &bank, &clip.target, &executor).expect("full");
    let tiled = run_method(
        Method::MultiLevelDnc,
        &config,
        &bank,
        &clip.target,
        &executor,
    )
    .expect("dnc");
    assert_eq!(tiled.stages[0].tile_seconds.len(), 1);
    assert_valid_mask(&full.mask, "full-chip");
    assert_eq!(full.mask, tiled.mask);
}
