//! The 'stitch-and-heal' baseline (\[6\] in the paper): after a traditional
//! divide-and-conquer pass, re-optimise windows along each stitch line and
//! paste their central bands back. Healing fixes the original seams but the
//! pasted bands introduce **new** partition edges — the failure mode the
//! paper demonstrates in Fig. 7.

use ilt_grid::{BitGrid, RealGrid, Rect};
use ilt_litho::LithoBank;
use ilt_opt::{SolveContext, SolveRequest, TileSolver};
use ilt_tile::{restrict, Orientation, Partition, StitchLine, Tile, TileExecutor};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::stage::run_banded_stage;
use crate::flows::{trace, FlowResult};

/// Result of the stitch-and-heal flow: the healed mask plus the seam
/// bookkeeping needed to reproduce the Fig. 7 analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HealOutcome {
    /// The healed mask and its timing.
    pub result: FlowResult,
    /// The original stitch lines the heal pass targeted.
    pub healed_lines: Vec<StitchLine>,
    /// The partition edges the healing itself created: the band borders
    /// and the joints between adjacent healing windows.
    pub new_lines: Vec<StitchLine>,
}

/// Runs the heal pass on top of an existing divide-and-conquer mask.
///
/// # Errors
///
/// Returns [`CoreError`] on partitioning or solver failure.
pub fn stitch_and_heal(
    config: &ExperimentConfig,
    bank: &LithoBank,
    target: &BitGrid,
    dnc_mask: &RealGrid,
    solver: &dyn TileSolver,
    executor: &TileExecutor,
) -> Result<HealOutcome, CoreError> {
    config.validate();
    let name = format!("stitch-and-heal:{}", solver.name());
    let fspan = trace::flow_span(&name);
    let partition = Partition::new(target.width(), target.height(), config.partition)?;
    let lines = partition.stitch_lines();
    let t = config.partition.tile;
    let band = (t / 4) as i64;
    let target_real = target.to_real();
    let mut mask = dnc_mask.clone();
    let mut stages = Vec::new();
    let mut new_lines = Vec::new();

    // Re-optimises window `w` at `rect` from its crop of `mask`.
    let heal = |mask: &RealGrid, w: usize, rect: Rect| {
        let fake_tile = Tile {
            index: w,
            grid_pos: (0, 0),
            rect,
            core: rect,
        };
        let tile_target = restrict(&target_real, &fake_tile);
        let tile_init = restrict(mask, &fake_tile);
        let ctx = SolveContext {
            bank,
            n: t,
            scale: 1,
        };
        // Healing refines an existing solution: warm-start semantics.
        let request = SolveRequest {
            target: &tile_target,
            initial: &tile_init,
            iterations: config.schedule.heal_iterations,
            lr_scale: config.schedule.fine_lr_scale,
            warm: true,
        };
        let (outcome, elapsed) =
            trace::timed_tile(w, || Ok::<_, CoreError>(solver.solve(&ctx, &request)?))?;
        Ok::<_, CoreError>((outcome.mask, elapsed))
    };

    for (line_idx, line) in lines.iter().enumerate() {
        let windows = heal_windows(line, t, target.width(), target.height());
        let label = format!("heal line {}", line_idx + 1);
        let (_, timing) = run_banded_stage(
            &label,
            &[(0..windows.len()).collect()],
            None,
            &mut mask,
            |mask, band| {
                executor
                    .run(band.len(), |k| heal(mask, band[k], windows[band[k]]))
                    .into_iter()
                    .collect()
            },
            |mask, healed| {
                for (k, healed) in healed {
                    // Paste back only the central band around the original
                    // line — a hard cut, exactly what creates the new seams.
                    let rect = windows[k];
                    let band_rect = match line.orientation {
                        Orientation::Vertical => Rect::new(
                            line.position as i64 - band,
                            rect.y0,
                            line.position as i64 + band,
                            rect.y1,
                        ),
                        Orientation::Horizontal => Rect::new(
                            rect.x0,
                            line.position as i64 - band,
                            rect.x1,
                            line.position as i64 + band,
                        ),
                    };
                    for (gx, gy) in band_rect.pixels() {
                        let lx = (gx - rect.x0) as usize;
                        let ly = (gy - rect.y0) as usize;
                        mask.set(gx as usize, gy as usize, healed.get(lx, ly));
                    }
                }
                Ok(())
            },
        )?;

        // New seams: the band borders along the full line...
        match line.orientation {
            Orientation::Vertical => {
                for offset in [-band, band] {
                    new_lines.push(StitchLine {
                        orientation: Orientation::Vertical,
                        position: (line.position as i64 + offset) as usize,
                        start: line.start,
                        end: line.end,
                    });
                }
                // ...and the joints between adjacent windows, crossing the band.
                for pair in windows.windows(2) {
                    new_lines.push(StitchLine {
                        orientation: Orientation::Horizontal,
                        position: pair[1].y0 as usize,
                        start: (line.position as i64 - band) as usize,
                        end: (line.position as i64 + band) as usize,
                    });
                }
            }
            Orientation::Horizontal => {
                for offset in [-band, band] {
                    new_lines.push(StitchLine {
                        orientation: Orientation::Horizontal,
                        position: (line.position as i64 + offset) as usize,
                        start: line.start,
                        end: line.end,
                    });
                }
                for pair in windows.windows(2) {
                    new_lines.push(StitchLine {
                        orientation: Orientation::Vertical,
                        position: pair[1].x0 as usize,
                        start: (line.position as i64 - band) as usize,
                        end: (line.position as i64 + band) as usize,
                    });
                }
            }
        }

        stages.push(timing);
    }

    let wall_seconds = fspan.end();
    Ok(HealOutcome {
        result: FlowResult {
            name,
            mask,
            stages,
            wall_seconds,
            degraded: Vec::new(),
        },
        healed_lines: lines,
        new_lines,
    })
}

/// Square healing windows of edge `t` tiled along a stitch line. The line
/// always sits at least `t/2` from the layout edge (it is an interior core
/// boundary), so windows never need clipping.
fn heal_windows(line: &StitchLine, t: usize, width: usize, height: usize) -> Vec<Rect> {
    let half = (t / 2) as i64;
    let mut windows = Vec::new();
    match line.orientation {
        Orientation::Vertical => {
            let x0 = line.position as i64 - half;
            let mut y = 0i64;
            while y + (t as i64) <= height as i64 {
                windows.push(Rect::new(x0, y, x0 + t as i64, y + t as i64));
                y += t as i64;
            }
        }
        Orientation::Horizontal => {
            let y0 = line.position as i64 - half;
            let mut x = 0i64;
            while x + (t as i64) <= width as i64 {
                windows.push(Rect::new(x, y0, x + t as i64, y0 + t as i64));
                x += t as i64;
            }
        }
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::divide_and_conquer;
    use ilt_layout::generate_clip;
    use ilt_litho::ResistModel;
    use ilt_opt::PixelIlt;

    #[test]
    fn window_tiling_along_lines() {
        let line = StitchLine {
            orientation: Orientation::Vertical,
            position: 48,
            start: 0,
            end: 128,
        };
        let ws = heal_windows(&line, 64, 128, 128);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0], Rect::new(16, 0, 80, 64));
        assert_eq!(ws[1], Rect::new(16, 64, 80, 128));
        let hline = StitchLine {
            orientation: Orientation::Horizontal,
            position: 80,
            start: 0,
            end: 128,
        };
        let ws = heal_windows(&hline, 64, 128, 128);
        assert_eq!(ws[0], Rect::new(0, 48, 64, 112));
    }

    #[test]
    fn heal_changes_band_and_reports_new_seams() {
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let target = generate_clip(&config.generator, 3);
        let executor = TileExecutor::sequential();
        let solver = PixelIlt::new();
        let dnc = divide_and_conquer(&config, &bank, &target, &solver, &executor).unwrap();
        let healed =
            stitch_and_heal(&config, &bank, &target, &dnc.mask, &solver, &executor).unwrap();

        assert_eq!(healed.healed_lines.len(), 4);
        // Each line contributes 2 band borders + 1 window joint.
        assert_eq!(healed.new_lines.len(), 4 * 3);
        // The mask changed somewhere inside a band...
        assert_ne!(healed.result.mask, dnc.mask);
        // ...but not outside all bands (probe a point far from every line).
        assert_eq!(healed.result.mask.get(4, 4), dnc.mask.get(4, 4));
        assert!(healed.result.name.starts_with("stitch-and-heal:"));
    }
}
