//! The full-chip mask-optimisation flows: the paper's multigrid-Schwarz
//! method and every comparison flow of its evaluation.

mod divide_and_conquer;
mod full_chip;
mod multigrid;
mod overlap_select;
pub(crate) mod stage;
mod stitch_heal;
pub(crate) mod trace;

pub use divide_and_conquer::divide_and_conquer;
pub use full_chip::full_chip;
pub use multigrid::multigrid_schwarz;
pub use overlap_select::overlap_select;
pub use stitch_heal::{stitch_and_heal, HealOutcome};

use ilt_grid::RealGrid;

/// Timing of one flow stage: the per-tile compute times (parallelisable)
/// and the sequential assembly/communication time that follows them.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage label, e.g. `"coarse s=2"`, `"fine stage 1"`, `"refine color 2"`.
    pub label: String,
    /// Wall-clock seconds of each tile solve in this stage.
    pub tile_seconds: Vec<f64>,
    /// Seconds spent assembling/stitching after the tiles finished — the
    /// sequential, host-side portion.
    pub assembly_seconds: f64,
}

impl StageTiming {
    /// Total compute across tiles (the single-worker stage cost).
    pub fn total_tile_seconds(&self) -> f64 {
        self.tile_seconds.iter().sum()
    }
}

/// One tile that fell back to its pre-stage mask after its solve failed
/// every retry attempt (see `multigrid_schwarz` graceful degradation).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedTile {
    /// Stage label whose solve failed (e.g. `"fine stage 1"`).
    pub stage: String,
    /// Tile index within the stage's partition.
    pub tile: usize,
    /// The failure that exhausted the retries.
    pub error: String,
}

/// Result of one flow: the optimised mask plus its runtime breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// Flow identifier (e.g. `"ours"`, `"dnc:multi-level-ilt"`).
    pub name: String,
    /// Optimised continuous mask over the whole clip.
    pub mask: RealGrid,
    /// Per-stage timing, in execution order.
    pub stages: Vec<StageTiming>,
    /// Total wall-clock seconds of the flow as actually executed.
    pub wall_seconds: f64,
    /// Tiles that kept their coarse-grid (pre-stage) mask because their
    /// solve failed after retries. Empty on a fully healthy run.
    pub degraded: Vec<DegradedTile>,
}

impl FlowResult {
    /// Turn-around time: the wall-clock seconds column of Table 1.
    pub fn tat(&self) -> f64 {
        self.wall_seconds
    }

    /// Total per-tile compute summed over all stages (the sequential-
    /// schedule lower bound used by the speedup model).
    pub fn total_tile_seconds(&self) -> f64 {
        self.stages
            .iter()
            .map(StageTiming::total_tile_seconds)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::Grid;

    #[test]
    fn stage_and_flow_totals() {
        let flow = FlowResult {
            name: "x".into(),
            mask: Grid::new(2, 2, 0.0),
            stages: vec![
                StageTiming {
                    label: "a".into(),
                    tile_seconds: vec![1.0, 2.0],
                    assembly_seconds: 0.5,
                },
                StageTiming {
                    label: "b".into(),
                    tile_seconds: vec![3.0],
                    assembly_seconds: 0.25,
                },
            ],
            wall_seconds: 7.0,
            degraded: Vec::new(),
        };
        assert_eq!(flow.stages[0].total_tile_seconds(), 3.0);
        assert_eq!(flow.total_tile_seconds(), 6.0);
        assert_eq!(flow.tat(), 7.0);
    }
}
