//! The "Full-chip ILT" reference flow: one un-partitioned solve over the
//! entire clip, simulated with the large-area extension of Eq. (3). The
//! paper treats this as the quality target that no single real GPU could
//! actually hold at production scale.

use ilt_grid::BitGrid;
use ilt_litho::LithoBank;
use ilt_opt::{SolveContext, SolveRequest, TileSolver};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::stage::run_banded_stage;
use crate::flows::{trace, FlowResult};

/// Runs the full-chip flow.
///
/// # Errors
///
/// Returns [`CoreError`] on solver failure (including the case where the
/// scaled kernel support cannot fit the clip grid).
pub fn full_chip(
    config: &ExperimentConfig,
    bank: &LithoBank,
    target: &BitGrid,
    solver: &dyn TileSolver,
) -> Result<FlowResult, CoreError> {
    config.validate();
    let name = format!("full-chip:{}", solver.name());
    let fspan = trace::flow_span(&name);
    let target_real = target.to_real();
    let ctx = SolveContext {
        bank,
        n: config.clip,
        scale: config.inspection_scale(),
    };
    // No partition: the one "tile" is the mask, and its fold keeps it.
    let (mask, timing) = run_banded_stage(
        "full-chip",
        &[vec![0]],
        None,
        None,
        |_, _| {
            let (outcome, seconds) = trace::timed_tile(0, || {
                Ok::<_, CoreError>(solver.solve(
                    &ctx,
                    &SolveRequest::new(
                        &target_real,
                        &target_real,
                        config.schedule.baseline_iterations,
                    ),
                )?)
            })?;
            Ok(vec![(outcome.mask, seconds)])
        },
        |mask, mut solved| {
            *mask = solved.pop().map(|(_, m)| m);
            Ok(())
        },
    )?;
    let mask = mask.expect("the one full-chip tile is folded");

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
    fn optimises_whole_clip_without_partitioning() {
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let target = generate_clip(&config.generator, 1);
        let result = full_chip(&config, &bank, &target, &PixelIlt::new()).unwrap();
        assert_eq!(result.mask.width(), config.clip);
        assert_eq!(result.stages.len(), 1);
        assert_eq!(result.stages[0].tile_seconds.len(), 1);
        assert!(result.name.starts_with("full-chip:"));
    }
}
