//! Spatial quality diagnostics: the per-tile quality matrix and the coarse
//! heatmaps (EPE hotspots, seam mismatch, MRC overlay) of one (case,
//! method) result, written as `tile_quality.csv` and PGM artifacts and as
//! the report's `diagnostics.quality`.
//!
//! All attribution uses the partition's **core** rectangles — cores
//! partition the layout, so every gauge, stitch intersection, and MRC
//! violation lands in exactly one tile row.

use ilt_core::{CoreError, Session};
use ilt_grid::{Grid, RealGrid};
use ilt_layout::Clip;
use ilt_litho::Corner;
use ilt_metrics::{check_mask, edge_placement_error, stitch_loss, MrcRules};
use ilt_metrics::{EpeConfig, EpeReport, MrcReport, StitchReport};
use ilt_tile::Partition;

/// Per-tile quality summary for one (case, method) result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TileQuality {
    /// Tile index within the partition.
    pub(crate) tile: usize,
    /// Number of EPE gauges inside the tile core.
    pub(crate) epe_gauges: usize,
    /// Median |EPE| over the tile's gauges (nearest-rank, found only).
    pub(crate) epe_p50: f64,
    /// 95th-percentile |EPE| over the tile's gauges.
    pub(crate) epe_p95: f64,
    /// Maximum |EPE| over the tile's gauges.
    pub(crate) epe_max: usize,
    /// EPE violations inside the tile (beyond tolerance or missing).
    pub(crate) epe_violations: usize,
    /// Stitch loss attributed to the tile (intersections in its core).
    pub(crate) stitch: f64,
    /// MRC violations whose bounding box centres in the tile core.
    pub(crate) mrc: usize,
}

/// Quality diagnostics for one (case, method) result: the per-tile matrix
/// plus the rendered spatial heatmaps.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseQuality {
    /// Benchmark case name.
    pub(crate) case: String,
    /// Method label (e.g. `Ours`).
    pub(crate) method: String,
    /// One row per tile of the partition.
    pub(crate) tiles: Vec<TileQuality>,
    /// EPE hotspot heatmap (coarse cells, value = worst |EPE| in cell).
    pub(crate) epe_heatmap: RealGrid,
    /// Seam mismatch map (coarse cells, value = stitch loss in cell).
    pub(crate) seam_map: RealGrid,
    /// MRC violation overlay (coarse cells, value = violation count).
    pub(crate) mrc_overlay: RealGrid,
}

impl CaseQuality {
    /// Inspects `method`'s `mask` for `clip`: prints it binarised over the
    /// whole clip through the session's inspection system, then attributes
    /// EPE, stitch loss and MRC violations to the tiles of `partition` (the
    /// clip's) and to 8-pixel heatmap cells. A second full-clip print, so
    /// callers build it only on traced runs.
    ///
    /// # Errors
    ///
    /// Propagates lithography failures.
    pub fn inspect(
        session: &Session,
        partition: &Partition,
        clip: &Clip,
        method: &str,
        mask: &RealGrid,
    ) -> Result<Self, CoreError> {
        let config = session.config();
        let binary = mask.threshold(0.5);
        let printed = session
            .inspection()
            .print(&binary.to_real(), Corner::Nominal)?;
        let epe_config = EpeConfig::m1_default();
        let epe = edge_placement_error(&clip.target, &printed, &epe_config);
        let stitch = stitch_loss(&binary, &partition.stitch_lines(), &config.stitch);
        let mrc = check_mask(&binary, &MrcRules::m1_default());
        Ok(CaseQuality {
            case: clip.name.clone(),
            method: method.to_string(),
            tiles: tile_quality_matrix(partition, &epe, &epe_config, &stitch, &mrc),
            epe_heatmap: epe_hotspot_grid(partition, &epe, &epe_config),
            seam_map: seam_mismatch_map(partition, &stitch),
            mrc_overlay: mrc_overlay(partition, &mrc),
        })
    }

    /// Case-level aggregates folded from the tile rows — the `summary` of
    /// the report's `diagnostics.quality` entry.
    pub fn summary(&self) -> QualitySummary {
        let mut s = QualitySummary::default();
        for t in &self.tiles {
            s.epe_p95 = s.epe_p95.max(t.epe_p95);
            s.epe_max = s.epe_max.max(t.epe_max);
            s.epe_violations += t.epe_violations;
            s.stitch += t.stitch;
            s.mrc += t.mrc;
        }
        s
    }
}

/// Case-level quality aggregates (see [`CaseQuality::summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualitySummary {
    /// Worst per-tile p95 |EPE|.
    pub epe_p95: f64,
    /// Worst per-tile max |EPE|.
    pub epe_max: usize,
    /// Total EPE violations across tiles.
    pub epe_violations: usize,
    /// Total stitch loss attributed to tiles.
    pub stitch: f64,
    /// Total MRC violations across tiles.
    pub mrc: usize,
}

/// Heatmap cell size in layout pixels: matches the default EPE gauge
/// spacing so each cell holds on the order of one gauge per edge.
const HEATMAP_CELL: usize = 8;

/// Builds the per-tile quality matrix for one (case, method) result.
///
/// Gauges are attributed to the tile whose core contains them; EPE
/// percentiles are exact nearest-rank statistics over the tile's found
/// gauges. Stitch intersections attribute by their sample point, MRC
/// violations by their bounding-box centre.
fn tile_quality_matrix(
    partition: &Partition,
    epe: &EpeReport,
    epe_config: &EpeConfig,
    stitch: &StitchReport,
    mrc: &MrcReport,
) -> Vec<TileQuality> {
    partition
        .tiles()
        .iter()
        .map(|tile| {
            let core = tile.core;
            let mut abs: Vec<usize> = Vec::new();
            let mut gauges = 0usize;
            let mut violations = 0usize;
            for g in &epe.gauges {
                if !core.contains(g.x as i64, g.y as i64) {
                    continue;
                }
                gauges += 1;
                match g.epe {
                    Some(e) => {
                        let a = e.unsigned_abs() as usize;
                        abs.push(a);
                        if a > epe_config.tolerance {
                            violations += 1;
                        }
                    }
                    None => violations += 1,
                }
            }
            abs.sort_unstable();
            let stitch_loss: f64 = stitch
                .intersections
                .iter()
                .filter(|i| core.contains(i.x as i64, i.y as i64))
                .map(|i| i.loss)
                .sum();
            let mrc_count = mrc
                .violations
                .iter()
                .filter(|v| {
                    let cx = (v.bbox.x0 + v.bbox.x1) / 2;
                    let cy = (v.bbox.y0 + v.bbox.y1) / 2;
                    core.contains(cx, cy)
                })
                .count();
            TileQuality {
                tile: tile.index,
                epe_gauges: gauges,
                epe_p50: nearest_rank(&abs, 0.5),
                epe_p95: nearest_rank(&abs, 0.95),
                epe_max: abs.last().copied().unwrap_or(0),
                epe_violations: violations,
                stitch: stitch_loss,
                mrc: mrc_count,
            }
        })
        .collect()
}

/// Exact nearest-rank percentile of an ascending-sorted slice (0.0 when
/// empty).
fn nearest_rank(sorted: &[usize], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Folds `(x, y, value)` layout points into one coarse cell per
/// [`HEATMAP_CELL`]-sided block of the partition; points past its edge are
/// dropped.
fn heatmap(
    partition: &Partition,
    points: impl Iterator<Item = (usize, usize, f64)>,
    fold: impl Fn(f64, f64) -> f64,
) -> RealGrid {
    let w = partition.width().div_ceil(HEATMAP_CELL).max(1);
    let h = partition.height().div_ceil(HEATMAP_CELL).max(1);
    let mut grid = Grid::new(w, h, 0.0);
    for (x, y, v) in points {
        let (cx, cy) = (x / HEATMAP_CELL, y / HEATMAP_CELL);
        if cx < w && cy < h {
            grid.set(cx, cy, fold(grid.get(cx, cy), v));
        }
    }
    grid
}

/// EPE hotspot heatmap: each coarse cell valued at the worst |EPE| of the
/// gauges inside it. Gauges that found no contour count as
/// `search_range + 1` — strictly worse than anything measurable.
fn epe_hotspot_grid(partition: &Partition, epe: &EpeReport, config: &EpeConfig) -> RealGrid {
    let missing = (config.search_range + 1) as f64;
    let abs = |e: Option<i32>| e.map_or(missing, |e| e.unsigned_abs() as f64);
    let points = epe.gauges.iter().map(|g| (g.x, g.y, abs(g.epe)));
    heatmap(partition, points, f64::max)
}

/// Seam mismatch map: stitch loss accumulated per coarse cell along the
/// partition's stitch lines.
fn seam_mismatch_map(partition: &Partition, stitch: &StitchReport) -> RealGrid {
    let points = stitch.intersections.iter().map(|i| (i.x, i.y, i.loss));
    heatmap(partition, points, |a, b| a + b)
}

/// MRC violation overlay: violation count per coarse cell (by bounding-box
/// centre).
fn mrc_overlay(partition: &Partition, mrc: &MrcReport) -> RealGrid {
    let centre = |lo: i64, hi: i64| ((lo + hi) / 2).max(0) as usize;
    let points = mrc.violations.iter().map(|v| {
        let b = v.bbox;
        (centre(b.x0, b.x1), centre(b.y0, b.y1), 1.0)
    });
    heatmap(partition, points, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::{BitGrid, Rect};
    use ilt_metrics::StitchConfig;
    use ilt_tile::PartitionConfig;

    fn quad_partition() -> Partition {
        Partition::new(
            128,
            128,
            PartitionConfig {
                tile: 96,
                overlap: 64,
            },
        )
        .unwrap()
    }

    fn target() -> BitGrid {
        let mut t: BitGrid = Grid::new(128, 128, 0);
        // One feature per quadrant core.
        t.fill_rect(Rect::new(16, 16, 48, 48), 1);
        t.fill_rect(Rect::new(80, 80, 112, 112), 1);
        t
    }

    #[test]
    fn matrix_has_one_row_per_tile_and_attributes_by_core() {
        let partition = quad_partition();
        let target = target();
        let mut printed = target.clone();
        // Damage only the second feature (bottom-right core): 2 px shrink.
        printed.fill_rect(Rect::new(80, 80, 112, 112), 0);
        printed.fill_rect(Rect::new(82, 82, 110, 110), 1);
        let config = EpeConfig::m1_default();
        let epe = edge_placement_error(&target, &printed, &config);
        let stitch = stitch_loss(&printed, &[], &StitchConfig::default());
        let mrc = check_mask(&printed, &MrcRules::m1_default());
        let rows = tile_quality_matrix(&partition, &epe, &config, &stitch, &mrc);
        assert_eq!(rows.len(), partition.tiles().len());
        let total_gauges: usize = rows.iter().map(|r| r.epe_gauges).sum();
        assert_eq!(total_gauges, epe.gauges.len(), "cores partition the gauges");
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert_eq!(first.epe_max, 0, "undamaged quadrant is clean");
        assert!(last.epe_max >= 2, "damaged quadrant shows the error");
    }

    #[test]
    fn hotspot_grid_marks_damaged_cells_only() {
        let partition = quad_partition();
        let target = target();
        let mut printed = target.clone();
        printed.fill_rect(Rect::new(80, 80, 112, 112), 0); // feature missing
        let config = EpeConfig::m1_default();
        let epe = edge_placement_error(&target, &printed, &config);
        let grid = epe_hotspot_grid(&partition, &epe, &config);
        assert_eq!(grid.width(), 16);
        assert_eq!(grid.height(), 16);
        // Cells over the intact feature stay at zero; the missing feature's
        // gauges read search_range + 1.
        assert_eq!(grid.get(16 / HEATMAP_CELL, 24 / HEATMAP_CELL), 0.0);
        let worst = (0..16)
            .flat_map(|y| (0..16).map(move |x| (x, y)))
            .map(|(x, y)| grid.get(x, y))
            .fold(0.0f64, f64::max);
        assert_eq!(worst, (config.search_range + 1) as f64);
    }

    #[test]
    fn seam_map_accumulates_on_stitch_lines() {
        let partition = quad_partition();
        let mask = target();
        let lines = partition.stitch_lines();
        assert!(!lines.is_empty());
        let report = stitch_loss(&mask, &lines, &StitchConfig::default());
        let map = seam_mismatch_map(&partition, &report);
        let total: f64 = (0..map.height())
            .flat_map(|y| (0..map.width()).map(move |x| (x, y)))
            .map(|(x, y)| map.get(x, y))
            .sum();
        assert!(
            (total - report.total).abs() < 1e-9,
            "map conserves total loss"
        );
    }

    #[test]
    fn summary_folds_tile_rows() {
        let row = |tile, epe_p95, epe_max, epe_violations, stitch, mrc| TileQuality {
            tile,
            epe_gauges: 4,
            epe_p50: 1.0,
            epe_p95,
            epe_max,
            epe_violations,
            stitch,
            mrc,
        };
        let q = CaseQuality {
            case: "c".into(),
            method: "m".into(),
            tiles: vec![row(0, 2.0, 3, 1, 0.5, 2), row(1, 4.0, 5, 2, 1.5, 0)],
            epe_heatmap: Grid::new(1, 1, 0.0),
            seam_map: Grid::new(1, 1, 0.0),
            mrc_overlay: Grid::new(1, 1, 0.0),
        };
        let s = q.summary();
        assert_eq!(s.epe_p95, 4.0);
        assert_eq!(s.epe_max, 5);
        assert_eq!(s.epe_violations, 3);
        assert_eq!(s.stitch, 2.0);
        assert_eq!(s.mrc, 2);
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.95), 4.0);
        assert_eq!(nearest_rank(&[7], 0.5), 7.0);
    }
}
