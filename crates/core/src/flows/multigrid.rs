//! The paper's contribution: the multigrid-Schwarz flow ("Ours").
//!
//! Three phases, exactly as Section 3 describes:
//!
//! 1. **Multi-level coarse-grid ILT** (Algorithm 1): for
//!    `s = s_max, s_max/2, ..., 2`, partition the clip into `sN`-sized
//!    tiles (clamped M×N grids when the clip is not lattice-divisible),
//!    downsample each tile by `s`, solve with `s`-scaled kernels (Eq. (9)),
//!    and assemble with the hard RAS interpolation of Eq. (6) — stitching
//!    errors are deliberately left for the fine grid. The coarsest level is
//!    solved directly (a single tile whenever `clip <= s_max * N`); every
//!    finer level is *initialised* from the prolongated coarse mask — and
//!    only that: its request is the cold one ([`SolveRequest::new`],
//!    `warm: false`), so the solver perturbs that initial mask with its
//!    start-up noise and runs the cold schedule, whose first fifth of the
//!    iterations simulates at twice the level's pixel size — the resolution
//!    the level above just finished at. A warm request there
//!    (`warm: true`, as the fine stages use) measured `l2_px` +22…+27% for
//!    a stitch loss −18…−22% at 1024² (EXPERIMENTS.md "Known deviations");
//!    it is a point on ROADMAP item 4(c)'s frontier, not a fix.
//! 2. **Staged fine-grid ILT** (modified additive Schwarz): the fine
//!    iteration budget is split into stages; after each stage the tiles are
//!    assembled with the weighted interpolation of Eq. (14) and the next
//!    stage re-crops its tiles from the assembled layout, so margins carry
//!    the neighbours' latest solutions (the boundary condition Eq. (11)).
//! 3. **Multi-colour multiplicative Schwarz refine**: tiles are processed
//!    colour by colour with a small learning rate; same-colour tiles never
//!    overlap and run in parallel, and the layout is updated between
//!    colours so later colours see earlier results.
//!
//! The coarse and fine stages are colour-banded stages of the shared
//! pipeline ([`run_assembled_stage`]): one colour band of tile masks
//! is solved, folded into the assembler and dropped at a time, so peak
//! resident tile masks are one band instead of the whole M×N grid. A
//! coarse tile reads its window of the layout without copying it out: at
//! 1024² every clip-sized grid is a mapping of its own (see
//! [`crate::Session`]), and each one allocated is faulted in page by page.

use std::borrow::Cow;

use ilt_grid::{resample, BitGrid};
use ilt_litho::LithoBank;
use ilt_opt::{SolveContext, SolveRequest, TileSolver};
use ilt_tile::{AssemblyMode, Partition, PartitionConfig, TileExecutor};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::stage::{refine_pass, run_assembled_stage, FineTiles, Recovering};
use crate::flows::{trace, FlowResult};

/// Runs the multigrid-Schwarz flow.
///
/// # Errors
///
/// Returns [`CoreError`] on partitioning, solver, or assembly failure.
pub fn multigrid_schwarz(
    config: &ExperimentConfig,
    bank: &LithoBank,
    target: &BitGrid,
    solver: &dyn TileSolver,
    executor: &TileExecutor,
) -> Result<FlowResult, CoreError> {
    config.validate();
    let name = format!("ours:{}", solver.name());
    let fspan = trace::flow_span(&name);
    let n = config.partition.tile;
    let clip_w = target.width();
    let clip_h = target.height();
    let target_real = target.to_real();
    // Algorithm 1 line 4: M <- Z_t (borrowed until the first stage
    // assembles a mask of its own).
    let mut mask = Cow::Borrowed(&target_real);
    let mut stages = Vec::new();
    let mut recovering = Recovering::new(&name, executor);

    // Phase 1: coarse grids, s = s_max .. 2 (Algorithm 1 stops addressing
    // stitching; assembly is the plain Eq. (6)).
    let mut s = config.s_max;
    while s >= 2 {
        let coarse = PartitionConfig {
            tile: s * n,
            overlap: s * config.partition.overlap,
        };
        let partition = Partition::new(clip_w, clip_h, coarse)?;
        let label = format!("coarse s={s}");
        // The tile's clock covers its restriction and prolongation too, so
        // the stage's `tile_seconds` own everything a coarse tile costs.
        let solve = |i: usize| {
            trace::timed_tile(i, || {
                let rect = partition.tile(i).rect;
                let tile_target = resample::downsample_rect(&target_real, rect, s);
                let tile_init = resample::downsample_rect(&mask, rect, s);
                let ctx = SolveContext { bank, n, scale: s };
                let outcome = solver.solve(
                    &ctx,
                    &SolveRequest::new(&tile_target, &tile_init, config.schedule.coarse_iterations),
                )?;
                // Promote the coarse solution back to the fine grid with a
                // band-limited interpolation: bilinear alone leaves blocky
                // staircases that the fine stages (optically blind to them)
                // would never remove.
                let mut up = resample::upsample_bilinear(&outcome.mask, s);
                ilt_grid::GaussianFilter::new(0.5 * s as f64).apply_in_place(&mut up);
                Ok::<_, CoreError>(up)
            })
        };
        let (assembled, timing) = run_assembled_stage(
            &label,
            &partition,
            AssemblyMode::Restricted,
            executor,
            |band| recovering.solve(&label, &partition, &mask, band, solve),
        )?;
        mask = Cow::Owned(assembled);
        stages.push(timing);
        s /= 2;
    }

    // Phase 2: staged fine-grid additive Schwarz with weighted assembly.
    let partition = Partition::new(clip_w, clip_h, config.partition)?;
    let tiles = FineTiles {
        config,
        bank,
        solver,
        partition: &partition,
        target,
    };
    for fine_stage in 0..config.schedule.fine_stages {
        let label = format!("fine stage {}", fine_stage + 1);
        let iterations = config.schedule.fine_per_stage(fine_stage);
        // A degraded fine tile keeps its coarse-grid mask (= its crop of
        // the assembled layout) and is stitched by the same weighted blend.
        let (assembled, timing) =
            run_assembled_stage(&label, &partition, tiles.blend(), executor, |band| {
                recovering.solve(&label, &partition, &mask, band, |i| {
                    tiles.solve(&mask, i, iterations, false)
                })
            })?;
        mask = Cow::Owned(assembled);
        stages.push(timing);
    }

    // Between the fine stages and the refine pass, resolve the remaining
    // gray ambiguity of the blend bands: at exactly 0.5 the binarisation
    // penalty's gradient vanishes, so gradient steps alone cannot break the
    // tie between two tiles' disagreeing proposals, while thresholding
    // commits to definite, manufacturable shapes the refine pass then
    // polishes. In place, as `threshold(0.5).to_real()` would.
    let mut mask = mask.into_owned();
    for v in mask.as_mut_slice() {
        *v = if *v >= 0.5 { 1.0 } else { 0.0 };
    }

    // Phase 3: multi-colour multiplicative refine.
    stages.extend(refine_pass(
        &tiles,
        "",
        |_| true,
        &mut mask,
        &mut recovering,
    )?);

    let degraded = recovering.degraded;
    let wall_seconds = fspan.end();
    Ok(FlowResult {
        name,
        mask,
        stages,
        wall_seconds,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_layout::generate_clip;
    use ilt_litho::ResistModel;
    use ilt_opt::PixelIlt;

    fn run_tiny() -> (ExperimentConfig, FlowResult, BitGrid) {
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let target = generate_clip(&config.generator, 1);
        let result = multigrid_schwarz(
            &config,
            &bank,
            &target,
            &PixelIlt::new(),
            &TileExecutor::sequential(),
        )
        .unwrap();
        (config, result, target)
    }

    #[test]
    fn runs_all_three_phases() {
        let (config, result, _) = run_tiny();
        assert_eq!(result.mask.width(), config.clip);
        let labels: Vec<&str> = result.stages.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"coarse s=2"));
        assert!(labels.contains(&"fine stage 1"));
        assert!(labels.contains(&"fine stage 2"));
        assert!(labels.iter().any(|l| l.starts_with("refine color")));
        assert!(result.name.starts_with("ours:"));
    }

    #[test]
    fn coarse_stage_has_single_tile_at_paper_geometry() {
        // With clip = 2N and s = 2, one coarse tile covers the whole clip.
        let (_, result, _) = run_tiny();
        let coarse = result
            .stages
            .iter()
            .find(|s| s.label == "coarse s=2")
            .unwrap();
        assert_eq!(coarse.tile_seconds.len(), 1);
        let fine = result
            .stages
            .iter()
            .find(|s| s.label == "fine stage 1")
            .unwrap();
        assert_eq!(fine.tile_seconds.len(), 9);
    }

    #[test]
    fn refine_covers_every_tile_once_across_colors() {
        let (_, result, _) = run_tiny();
        let refined: usize = result
            .stages
            .iter()
            .filter(|s| s.label.starts_with("refine"))
            .map(|s| s.tile_seconds.len())
            .sum();
        assert_eq!(refined, 9);
    }

    #[test]
    fn mask_stays_in_unit_range() {
        let (_, result, _) = run_tiny();
        assert!(result.mask.min() >= -1e-9);
        assert!(result.mask.max() <= 1.0 + 1e-9);
    }

    #[test]
    fn deeper_hierarchy_runs_every_coarse_level() {
        // s_max = 4 at a 256-pixel clip: levels s = 4 (direct coarsest
        // solve, a single 256-wide tile) and s = 2 (initialised from the
        // prolongated s = 4 mask), then the fine stages.
        let mut config = ExperimentConfig::test_tiny();
        config.clip = 256;
        config.generator.size = 256;
        config.s_max = 4;
        config.validate();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let target = generate_clip(&config.generator, 3);
        let result = multigrid_schwarz(
            &config,
            &bank,
            &target,
            &PixelIlt::new(),
            &TileExecutor::sequential(),
        )
        .unwrap();
        let labels: Vec<&str> = result.stages.iter().map(|s| s.label.as_str()).collect();
        let s4 = labels.iter().position(|l| *l == "coarse s=4").unwrap();
        let s2 = labels.iter().position(|l| *l == "coarse s=2").unwrap();
        assert!(s4 < s2, "coarsest level must run first: {labels:?}");
        // The coarsest level covers the clip with one tile (256 = 4 * 64).
        assert_eq!(result.stages[s4].tile_seconds.len(), 1);
        // s = 2 tiles are 128 wide with 32 overlap on a 256 clip: clamped
        // geometry still yields a proper multi-tile level.
        assert!(result.stages[s2].tile_seconds.len() > 1);
        assert_eq!(result.mask.width(), 256);
        assert!(result.mask.min() >= -1e-9 && result.mask.max() <= 1.0 + 1e-9);
    }
}
