//! # ilt-bench
//!
//! Shared plumbing for `reproduce`, the one driver that regenerates every
//! table and figure of the paper's evaluation (see `DESIGN.md` for the
//! experiment-to-section index), and for the drills whose gates are
//! counts, quality digits or same-process ratios (`eco_smoke`,
//! `serve_load`, `memprofile`, `obs_overhead`, `report_diff`). Wall-clock
//! speed is not measured here: that is `benchmark/` (`BENCHMARK.json`).
//!
//! Environment knobs honoured by all binaries:
//!
//! * `ILT_SCALE` — `default` (the paper-ratio setup) or `tiny` (fast smoke
//!   runs);
//! * `ILT_CASES` — number of benchmark clips (default 20, the paper's
//!   count);
//! * `ILT_WORKERS` — worker threads for per-tile execution (default 1);
//!   tiles are the only unit of parallelism;
//! * `ILT_OUT` — output directory for CSV/PGM artifacts (default
//!   `results/`);
//! * `ILT_TRACE` — `1`/`true`/`on`/`yes` enables telemetry collection
//!   (counters, histograms, and every span of the run instead of the most
//!   recent ones); the trace artifacts written by
//!   [`HarnessOptions::finish_run`] land in the `ILT_OUT` directory.
//!
//! Invalid values of `ILT_SCALE`, `ILT_CASES` or `ILT_WORKERS` are
//! reported on stderr (naming the variable and the fallback used) instead
//! of being silently ignored.
//!
//! The run report is read off the drained span forest; what no span holds
//! is handed to [`HarnessOptions::finish_run`]: the [`spatial`] quality
//! matrices of `reproduce`'s Table 1 flows and a binary's own sections.
//! [`diff`] compares two reports for the `report_diff` gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
mod report;
pub mod spatial;

use std::path::PathBuf;

use ilt_core::ExperimentConfig;
use ilt_tile::TileExecutor;

use crate::spatial::CaseQuality;

/// Runtime options shared by the bench binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Experiment configuration (scale-dependent).
    pub config: ExperimentConfig,
    /// The scale name the configuration was derived from (`"default"` or
    /// `"tiny"`).
    pub scale: String,
    /// Number of benchmark clips to run.
    pub cases: usize,
    /// Tile executor.
    pub workers: usize,
    /// Artifact output directory.
    pub out_dir: PathBuf,
}

impl HarnessOptions {
    /// Reads options from the environment (see the crate docs),
    /// initialises telemetry collection from `ILT_TRACE` (off when unset),
    /// and arms the fault-injection registry from `ILT_FAULTS` (fault
    /// drills run the same binaries as clean benchmarks). A traced run
    /// keeps every span until [`finish_run`](Self::finish_run) drains
    /// them, so it lifts the span store's drop-oldest bound.
    pub fn from_env() -> Self {
        Self::read_env(false)
    }

    /// [`from_env`](Self::from_env) for the drills that have nothing to
    /// report without telemetry (`memprofile`, `serve_load`): collection is
    /// on unless `ILT_TRACE` says off, and the traced run lifts the span
    /// store's bound on the same path.
    pub fn from_env_traced() -> Self {
        Self::read_env(true)
    }

    fn read_env(trace_by_default: bool) -> Self {
        if ilt_telemetry::init_from_env(trace_by_default) {
            ilt_telemetry::flight::set_capacity(usize::MAX);
        }
        ilt_telemetry::fault::configure_from_env();
        let (scale, config) = scale_or_warn(std::env::var("ILT_SCALE").ok());
        let cases = ilt_telemetry::env_or_warn("ILT_CASES", 20usize).clamp(1, 20);
        let workers = ilt_telemetry::env_or_warn("ILT_WORKERS", 1usize).max(1);
        let out_dir = std::env::var("ILT_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        HarnessOptions {
            config,
            scale,
            cases,
            workers,
            out_dir,
        }
    }

    /// Prepares an [`ilt_core::Session`] for the configured experiment:
    /// the kernel bank (deduplicated process-wide via
    /// [`ilt_litho::shared_bank`], so repeated sessions are cache hits)
    /// plus the full-clip inspection system built once up front. Multi-case
    /// binaries should run everything through this so TCC/SOCS kernel
    /// construction and inspection setup happen once, not per case.
    ///
    /// # Panics
    ///
    /// Panics if kernel or inspection construction fails — unrecoverable
    /// for a harness.
    pub fn session(&self) -> ilt_core::Session {
        ilt_core::Session::new(self.config.clone()).expect("session setup failed")
    }

    /// The tile executor for the configured worker count.
    pub fn executor(&self) -> TileExecutor {
        TileExecutor::new(self.workers)
    }

    /// Ensures the artifact directory exists and returns a path inside it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn artifact(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("cannot create output directory");
        self.out_dir.join(name)
    }

    /// Finalises a run: drains the telemetry collected since startup and
    /// writes `report.json` (schema `ilt-report/v2`) into the artifact
    /// directory, with `quality` in its diagnostics and each of `sections`
    /// (a name that collides with no standard key, and a complete JSON
    /// document) as a top-level section. A traced run's report holds every
    /// span; the run also writes `<binary>_trace.json` (Chrome
    /// `trace_event` format, for Perfetto) and `quality`'s maps (per-case
    /// EPE hotspot / seam mismatch / MRC overlay PGMs and
    /// `tile_quality.csv`).
    ///
    /// # Panics
    ///
    /// Panics if an artifact cannot be written — unrecoverable for a
    /// harness.
    pub fn finish_run(&self, binary: &str, quality: &[CaseQuality], sections: &[(&str, String)]) {
        let trace_enabled = ilt_telemetry::enabled();
        let mut tele = ilt_telemetry::drain();
        if !trace_enabled {
            // What the bounded span store happens to hold is not a record
            // of this run; an untraced report carries no spans.
            tele.events.clear();
        }
        let report = report::render_report(binary, self, &tele, trace_enabled, quality, sections);
        let path = self.artifact("report.json");
        std::fs::write(&path, report).expect("cannot write report.json");
        println!("wrote {}", path.display());
        if trace_enabled {
            let trace_path = self.artifact(&format!("{binary}_trace.json"));
            std::fs::write(&trace_path, tele.to_chrome_trace()).expect("cannot write Chrome trace");
            println!("wrote {}", trace_path.display());
            write_quality_artifacts(&self.out_dir, quality);
        }
    }
}

/// Replaces every non-alphanumeric character with `_` so case and method
/// labels (which may contain spaces, colons, or slashes) form safe
/// filenames.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Writes the spatial diagnostic maps: for every case×method, the EPE
/// hotspot grid, seam mismatch map, and MRC overlay as PGM images, plus a
/// `tile_quality.csv` with one row per tile across all cases.
fn write_quality_artifacts(dir: &std::path::Path, quality: &[CaseQuality]) {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for case in quality {
        let stem = format!("{}_{}", sanitize(&case.case), sanitize(&case.method));
        for (suffix, map) in [
            ("epe", &case.epe_heatmap),
            ("seam", &case.seam_map),
            ("mrc", &case.mrc_overlay),
        ] {
            let path = dir.join(format!("{stem}_{suffix}.pgm"));
            ilt_grid::io::write_pgm(&path, map).expect("cannot write diagnostic heatmap");
            println!("wrote {}", path.display());
        }
        for t in &case.tiles {
            rows.push(vec![
                case.case.clone(),
                case.method.clone(),
                t.tile.to_string(),
                t.epe_gauges.to_string(),
                format!("{:.3}", t.epe_p50),
                format!("{:.3}", t.epe_p95),
                t.epe_max.to_string(),
                t.epe_violations.to_string(),
                format!("{:.6}", t.stitch),
                t.mrc.to_string(),
            ]);
        }
    }
    if !rows.is_empty() {
        let path = dir.join("tile_quality.csv");
        ilt_grid::io::write_csv(
            &path,
            &[
                "case",
                "method",
                "tile",
                "epe_gauges",
                "epe_p50",
                "epe_p95",
                "epe_max",
                "epe_violations",
                "stitch",
                "mrc",
            ],
            &rows,
        )
        .expect("cannot write tile quality matrix");
        println!("wrote {}", path.display());
    }
}

/// Resolves an `ILT_SCALE` value to its name and configuration, warning on
/// stderr for anything other than the two recognised scales.
fn scale_or_warn(raw: Option<String>) -> (String, ExperimentConfig) {
    if let Some(s) = raw {
        match ExperimentConfig::for_scale(&s) {
            Some(config) => return (s, config),
            None => eprintln!(
                "warning: invalid ILT_SCALE={s:?} (expected \"default\" or \"tiny\"); \
                 using default \"default\""
            ),
        }
    }
    ("default".to_string(), ExperimentConfig::paper_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Do not set env vars (tests run in parallel); just exercise the
        // parsing path with whatever the environment holds.
        let opts = HarnessOptions::from_env();
        assert!(opts.cases >= 1 && opts.cases <= 20);
        assert!(opts.workers >= 1);
        assert!(opts.scale == "default" || opts.scale == "tiny");
    }

    #[test]
    fn invalid_scale_falls_back() {
        assert_eq!(scale_or_warn(Some("tiny".into())).0, "tiny");
        assert_eq!(scale_or_warn(Some("huge".into())).0, "default");
        assert_eq!(scale_or_warn(None).0, "default");
    }
}
