//! # ilt-diag
//!
//! Diagnostics for the multigrid-Schwarz ILT pipeline, three pillars on
//! top of `ilt-telemetry`:
//!
//! * **Spatial quality diagnostics** ([`spatial`]) — per-tile quality
//!   matrices (EPE percentiles, stitch loss, MRC counts attributed by core
//!   rectangle) and coarse heatmaps (EPE hotspots, seam mismatch, MRC
//!   overlay) rendered to PGM/CSV artifacts by the bench harness.
//! * **Convergence anomaly detection** ([`anomaly`]) — stall, divergence,
//!   and oscillation detection over per-iteration loss traces;
//!   [`observe_solve`] turns anomalies into `anomaly` spans in the
//!   telemetry tree and cells in the run's convergence matrix.
//! * **Regression gating** ([`diff`]) — [`compare_reports`] diffs two
//!   `ilt-report` JSON documents (parsed with the dependency-free
//!   [`ilt_json::Json`] parser) and lists quality, degradation and reuse
//!   regressions; the `report_diff` bench binary wraps it for CI.
//!
//! Everything funnels through the process-global [`sink`], gated — like
//! telemetry itself — on [`ilt_telemetry::enabled`]: with `ILT_TRACE`
//! off, every hook is a no-op behind one relaxed atomic load and
//! allocates nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod diff;
pub mod report;
pub mod sink;
pub mod spatial;

pub use anomaly::{detect, observe_solve, Anomaly, AnomalyConfig, AnomalyKind};
pub use diff::{compare_reports, DiffThresholds, Regression};
pub use report::render_diagnostics_json;
pub use sink::{
    observe_degraded, CaseQuality, DegradedTileRecord, QualitySummary, RunDiagnostics, StageCell,
    TileQuality,
};
pub use spatial::{
    epe_hotspot_grid, mrc_overlay, seam_mismatch_map, tile_quality_matrix, HEATMAP_CELL,
};

/// Serialises tests that flip the global telemetry flag or drain the
/// process-global sink.
#[cfg(test)]
pub(crate) mod testlock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
