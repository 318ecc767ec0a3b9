//! The error-norm selection baseline (\[5\] in the paper): tiles are
//! optimised independently as in divide-and-conquer, but the assembly
//! resolves each overlap region by *selecting* the tile whose own
//! lithography error is smaller there, instead of cutting at the core
//! boundary. Selection avoids some bad cuts but still cannot reconcile
//! genuinely different solutions, so discontinuities move rather than
//! disappear.

use ilt_grid::{BitGrid, RealGrid};
use ilt_litho::{Corner, LithoBank};
use ilt_opt::{SolveContext, SolveRequest, TileSolver};
use ilt_tile::{restrict, Partition, TileExecutor};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::stage::{mask_bytes, run_banded_stage};
use crate::flows::{trace, FlowResult};

/// Runs the overlap-error-selection flow.
///
/// # Errors
///
/// Returns [`CoreError`] on partitioning, solver, or simulation failure.
pub fn overlap_select(
    config: &ExperimentConfig,
    bank: &LithoBank,
    target: &BitGrid,
    solver: &dyn TileSolver,
    executor: &TileExecutor,
) -> Result<FlowResult, CoreError> {
    config.validate();
    let name = format!("overlap-select:{}", solver.name());
    let fspan = trace::flow_span(&name);
    let partition = Partition::new(target.width(), target.height(), config.partition)?;
    let target_real = target.to_real();
    let iterations = config.schedule.baseline_iterations;
    let n = config.partition.tile;

    // Independent solves, exactly as divide-and-conquer, but each job also
    // returns the tile's per-pixel squared print error (its own view).
    let solve = |i: usize| {
        let tile = partition.tile(i);
        let tile_target = restrict(&target_real, tile);
        let ctx = SolveContext { bank, n, scale: 1 };
        trace::timed_tile(i, || {
            let outcome = solver.solve(
                &ctx,
                &SolveRequest::new(&tile_target, &tile_target, iterations),
            )?;
            let system = ctx.system()?;
            let aerial = system.aerial(&outcome.mask, Corner::Nominal)?;
            let wafer = system.resist().sigmoid(&aerial);
            let error = RealGrid::from_fn(n, n, |x, y| {
                let e = wafer.get(x, y) - tile_target.get(x, y);
                e * e
            });
            Ok::<_, CoreError>((outcome.mask, error))
        })
    };

    // Per-pixel selection: each pixel takes the value of the covering tile
    // with the smallest local error. The strict `<` makes the fold order
    // observable at exact ties: the first tile in the canonical colour-band
    // order wins.
    let (width, height) = (partition.width(), partition.height());
    let selection = (
        RealGrid::new(width, height, 0.0),
        RealGrid::new(width, height, f64::INFINITY),
    );
    let ((mask, _), timing) = run_banded_stage(
        "overlap-select",
        partition.bands(),
        Some(mask_bytes(n)),
        selection,
        |_, band| {
            executor
                .run(band.len(), |k| solve(band[k]))
                .into_iter()
                .collect()
        },
        |(mask, best), band| {
            for (i, (tile_mask, error)) in band {
                let tile = partition.tile(i);
                for y in 0..n {
                    let gy = tile.rect.y0 as usize + y;
                    for x in 0..n {
                        let gx = tile.rect.x0 as usize + x;
                        let e = error.get(x, y);
                        if e < best.get(gx, gy) {
                            best.set(gx, gy, e);
                            mask.set(gx, gy, tile_mask.get(x, y));
                        }
                    }
                }
            }
            Ok(())
        },
    )?;

    let wall_seconds = fspan.end();
    Ok(FlowResult {
        name,
        mask,
        stages: vec![timing],
        wall_seconds,
        degraded: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_layout::generate_clip;
    use ilt_litho::ResistModel;
    use ilt_opt::PixelIlt;

    #[test]
    fn selects_a_complete_mask() {
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let target = generate_clip(&config.generator, 5);
        let result = overlap_select(
            &config,
            &bank,
            &target,
            &PixelIlt::new(),
            &TileExecutor::sequential(),
        )
        .unwrap();
        assert_eq!(result.mask.width(), config.clip);
        // Every pixel was claimed by some tile (error < inf implies write).
        assert!(result.mask.as_slice().iter().all(|v| v.is_finite()));
        assert!(result.name.starts_with("overlap-select:"));
        assert_eq!(result.stages[0].tile_seconds.len(), 9);
    }

    #[test]
    fn differs_from_hard_core_cut() {
        // Selection moves the effective boundary, so the assembled mask
        // differs from the restricted divide-and-conquer assembly somewhere
        // in the overlaps.
        use crate::flows::divide_and_conquer;
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let target = generate_clip(&config.generator, 5);
        let executor = TileExecutor::sequential();
        let solver = PixelIlt::new();
        let select = overlap_select(&config, &bank, &target, &solver, &executor).unwrap();
        let dnc = divide_and_conquer(&config, &bank, &target, &solver, &executor).unwrap();
        assert_ne!(select.mask, dnc.mask);
    }
}
