//! Process-global diagnostics sink.
//!
//! Flow code and the experiment driver record solve traces and quality
//! matrices here while tracing is enabled; the bench harness drains the
//! sink once per run and renders it into the `diagnostics` section of
//! `report.json` plus the on-disk heatmap artifacts. Mirrors the telemetry
//! sink's contract: recording is gated on [`ilt_telemetry::enabled`], and
//! when disabled every entry point is a no-op that allocates nothing.

use std::sync::Mutex;

use ilt_grid::RealGrid;
use ilt_telemetry as tele;

use crate::anomaly::Anomaly;

/// One tile solve observed by [`crate::observe_solve`]: a cell of the
/// flow × stage × tile convergence matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCell {
    /// Flow name (e.g. `ours:pgd`).
    pub flow: String,
    /// Stage label within the flow (e.g. `fine stage 1`).
    pub stage: String,
    /// Tile index within the partition.
    pub tile: usize,
    /// Number of solver iterations recorded.
    pub iterations: usize,
    /// Last recorded loss, if the trace was non-empty.
    pub final_loss: Option<f64>,
    /// Anomalies detected in the loss trace (at most one per kind).
    pub anomalies: Vec<Anomaly>,
}

/// Per-tile quality summary for one (case, method) result.
#[derive(Debug, Clone, PartialEq)]
pub struct TileQuality {
    /// Tile index within the partition.
    pub tile: usize,
    /// Number of EPE gauges inside the tile core.
    pub epe_gauges: usize,
    /// Median |EPE| over the tile's gauges (nearest-rank, found only).
    pub epe_p50: f64,
    /// 95th-percentile |EPE| over the tile's gauges.
    pub epe_p95: f64,
    /// Maximum |EPE| over the tile's gauges.
    pub epe_max: usize,
    /// EPE violations inside the tile (beyond tolerance or missing).
    pub epe_violations: usize,
    /// Stitch loss attributed to the tile (intersections in its core).
    pub stitch: f64,
    /// MRC violations whose bounding box centres in the tile core.
    pub mrc: usize,
}

/// Quality diagnostics for one (case, method) result: the per-tile matrix
/// plus the rendered spatial heatmaps.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseQuality {
    /// Benchmark case name.
    pub case: String,
    /// Method label (e.g. `Ours`).
    pub method: String,
    /// One row per tile of the partition.
    pub tiles: Vec<TileQuality>,
    /// EPE hotspot heatmap (coarse cells, value = worst |EPE| in cell).
    pub epe_heatmap: RealGrid,
    /// Seam mismatch map (coarse cells, value = stitch loss in cell).
    pub seam_map: RealGrid,
    /// MRC violation overlay (coarse cells, value = violation count).
    pub mrc_overlay: RealGrid,
}

impl CaseQuality {
    /// Case-level aggregates folded from the tile rows — the numbers
    /// `report_diff` gates on.
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

/// One tile that fell back to its pre-stage (coarse-grid) mask after its
/// solve failed every retry attempt. Recorded by [`crate::observe_degraded`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedTileRecord {
    /// Flow name (e.g. `ours:pgd`).
    pub flow: String,
    /// Stage label whose solve failed (e.g. `fine stage 1`).
    pub stage: String,
    /// Tile index within the partition.
    pub tile: usize,
    /// The failure that exhausted the retries.
    pub error: String,
}

/// Everything recorded since the last [`drain`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunDiagnostics {
    /// Convergence matrix cells, in record order.
    pub solves: Vec<StageCell>,
    /// Quality matrices, one per (case, method) inspected under tracing.
    pub cases: Vec<CaseQuality>,
    /// Tiles that degraded to their coarse-grid mask, in record order.
    pub degraded: Vec<DegradedTileRecord>,
}

impl RunDiagnostics {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.solves.is_empty() && self.cases.is_empty() && self.degraded.is_empty()
    }
}

static SINK: Mutex<RunDiagnostics> = Mutex::new(RunDiagnostics {
    solves: Vec::new(),
    cases: Vec::new(),
    degraded: Vec::new(),
});

fn lock() -> std::sync::MutexGuard<'static, RunDiagnostics> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Records one solve cell. No-op unless telemetry is enabled.
pub fn record_solve(cell: StageCell) {
    if !tele::enabled() {
        return;
    }
    lock().solves.push(cell);
}

/// Records one case quality matrix. No-op unless telemetry is enabled.
pub fn record_case(case: CaseQuality) {
    if !tele::enabled() {
        return;
    }
    lock().cases.push(case);
}

/// Observes a tile falling back to its coarse-grid mask: emits a
/// zero-length `degraded` span (so the event sits inside the span tree at
/// the moment it happened) and records a [`DegradedTileRecord`] for the
/// report's diagnostics section. No-op unless telemetry is enabled.
pub fn observe_degraded(flow: &str, stage: &str, tile: usize, error: &str) {
    if !tele::enabled() {
        return;
    }
    let mut span = tele::span(tele::names::DEGRADED);
    span.add_field("flow", flow.to_string());
    span.add_field("stage", stage.to_string());
    span.add_field("tile", tile);
    span.add_field("error", error.to_string());
    lock().degraded.push(DegradedTileRecord {
        flow: flow.to_string(),
        stage: stage.to_string(),
        tile,
        error: error.to_string(),
    });
}

/// Takes and resets the recorded diagnostics.
pub fn drain() -> RunDiagnostics {
    std::mem::take(&mut *lock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::Grid;

    #[test]
    fn sink_gates_on_enabled_and_drains_once() {
        let _guard = crate::testlock::lock();
        tele::set_enabled(false);
        let _ = drain();
        record_solve(cell("off"));
        assert!(drain().is_empty());

        tele::set_enabled(true);
        record_solve(cell("on"));
        record_case(CaseQuality {
            case: "c".into(),
            method: "m".into(),
            tiles: vec![],
            epe_heatmap: Grid::new(1, 1, 0.0),
            seam_map: Grid::new(1, 1, 0.0),
            mrc_overlay: Grid::new(1, 1, 0.0),
        });
        tele::set_enabled(false);
        let d = drain();
        assert_eq!(d.solves.len(), 1);
        assert_eq!(d.solves[0].flow, "on");
        assert_eq!(d.cases.len(), 1);
        assert!(drain().is_empty(), "drain resets the sink");
    }

    #[test]
    fn summary_folds_tile_rows() {
        let q = CaseQuality {
            case: "c".into(),
            method: "m".into(),
            tiles: vec![
                TileQuality {
                    tile: 0,
                    epe_gauges: 4,
                    epe_p50: 1.0,
                    epe_p95: 2.0,
                    epe_max: 3,
                    epe_violations: 1,
                    stitch: 0.5,
                    mrc: 2,
                },
                TileQuality {
                    tile: 1,
                    epe_gauges: 4,
                    epe_p50: 0.0,
                    epe_p95: 4.0,
                    epe_max: 5,
                    epe_violations: 2,
                    stitch: 1.5,
                    mrc: 0,
                },
            ],
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

    fn cell(flow: &str) -> StageCell {
        StageCell {
            flow: flow.into(),
            stage: "s".into(),
            tile: 0,
            iterations: 1,
            final_loss: Some(1.0),
            anomalies: vec![],
        }
    }
}
