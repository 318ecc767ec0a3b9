//! The traditional divide-and-conquer flow: optimise every tile
//! independently, then assemble the cores with the hard RAS interpolation
//! of Eq. (6). No communication ever happens between tiles — this is the
//! flow whose boundary mismatches motivate the paper.
//!
//! The tiles are solved one colour band at a time and folded straight
//! into the assembler, so peak resident masks are one band instead of the
//! whole M×N grid (restricted assembly writes disjoint cores, so the fold
//! order is moot for the result).

use ilt_grid::BitGrid;
use ilt_litho::LithoBank;
use ilt_opt::{SolveContext, SolveRequest, TileSolver};
use ilt_tile::{restrict, AssemblyMode, Partition, TileExecutor};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::stage::run_assembled_stage;
use crate::flows::{trace, FlowResult};

/// Runs the divide-and-conquer flow with the given single-tile solver.
///
/// # Errors
///
/// Returns [`CoreError`] on partitioning, solver, or assembly failure.
pub fn divide_and_conquer(
    config: &ExperimentConfig,
    bank: &LithoBank,
    target: &BitGrid,
    solver: &dyn TileSolver,
    executor: &TileExecutor,
) -> Result<FlowResult, CoreError> {
    config.validate();
    let name = format!("dnc:{}", solver.name());
    let fspan = trace::flow_span(&name);
    let partition = Partition::new(target.width(), target.height(), config.partition)?;
    let target_real = target.to_real();
    let iterations = config.schedule.baseline_iterations;

    let solve = |i: usize| {
        let tile = partition.tile(i);
        let tile_target = restrict(&target_real, tile);
        let ctx = SolveContext {
            bank,
            n: config.partition.tile,
            scale: 1,
        };
        let (outcome, elapsed) = trace::timed_tile(i, || {
            Ok::<_, CoreError>(solver.solve(
                &ctx,
                &SolveRequest::new(&tile_target, &tile_target, iterations),
            )?)
        })?;
        Ok::<_, CoreError>((outcome.mask, elapsed))
    };

    // No recovery: the first tile error aborts the flow, a panic propagates.
    let (mask, timing) = run_assembled_stage(
        "dnc",
        &partition,
        AssemblyMode::Restricted,
        executor,
        |band| {
            executor
                .run(band.len(), |k| solve(band[k]))
                .into_iter()
                .collect()
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
    use ilt_litho::{LithoBank, ResistModel};
    use ilt_opt::PixelIlt;

    #[test]
    fn produces_full_clip_mask_with_timings() {
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let target = generate_clip(&config.generator, 1);
        let result = divide_and_conquer(
            &config,
            &bank,
            &target,
            &PixelIlt::new(),
            &TileExecutor::sequential(),
        )
        .unwrap();
        assert_eq!(result.mask.width(), config.clip);
        assert_eq!(result.name, "dnc:multi-level-ilt");
        assert_eq!(result.stages.len(), 1);
        assert_eq!(result.stages[0].tile_seconds.len(), 9);
        assert!(result.wall_seconds > 0.0);
        assert!(result.mask.min() >= 0.0 && result.mask.max() <= 1.0);
    }

    #[test]
    fn parallel_executor_matches_sequential() {
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let target = generate_clip(&config.generator, 2);
        let solver = PixelIlt::new();
        let seq = divide_and_conquer(
            &config,
            &bank,
            &target,
            &solver,
            &TileExecutor::sequential(),
        )
        .unwrap();
        let par =
            divide_and_conquer(&config, &bank, &target, &solver, &TileExecutor::new(3)).unwrap();
        // Identical math regardless of worker count.
        assert_eq!(seq.mask, par.mask);
    }
}
