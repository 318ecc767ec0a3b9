//! The "Full-chip ILT" reference flow: one un-partitioned solve over the
//! entire clip, simulated with the large-area extension of Eq. (3). The
//! paper treats this as the quality target that no single real GPU could
//! actually hold at production scale.

use ilt_grid::BitGrid;
use ilt_litho::LithoBank;
use ilt_opt::{SolveContext, SolveRequest, TileSolver};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
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
    let stage = trace::stage("full-chip".to_string());
    let (outcome, solve_seconds) = trace::timed_tile(0, || {
        Ok::<_, CoreError>(solver.solve(
            &ctx,
            &SolveRequest::new(
                &target_real,
                &target_real,
                config.schedule.baseline_iterations,
            ),
        )?)
    })?;
    // No partition means no assembly work: the single "tile" is the mask.
    let (mask, timing) = stage.finish(vec![(outcome.mask, solve_seconds)], |mut masks| {
        Ok::<_, CoreError>(masks.pop().expect("exactly one full-chip tile"))
    })?;

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
