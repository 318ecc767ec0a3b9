//! A prepared experiment session: the kernel bank (from the process-wide
//! [`ilt_litho::cache`]) plus the prebuilt full-clip inspection system.
//!
//! Everything expensive and configuration-determined is paid once here —
//! TCC eigendecomposition via the shared bank cache, kernel resampling and
//! FFT plan setup for the inspection system — so repeated case runs (the
//! bench binaries) and repeated jobs (`ilt-serve`) only pay per-solve
//! costs. A [`Session`] is cheap to construct once its bank is cached:
//! warm construction is a cache hit plus one inspection-system resample.
//!
//! A session also keeps the incremental re-solve's clip-sized pixel-sum
//! accumulator from one operation to the next: that flow builds a single
//! assembler per operation, so nothing inside it can spare the allocator
//! mapping, faulting in and unmapping the block every time.
//!
//! Building a session pins the allocator's mmap threshold
//! ([`ilt_prof::rss::pin_mmap_threshold`]), so the flows' clip-sized grids
//! are mapped and unmapped whole and a process's peak resident set does
//! not depend on how many operations it has run.
//!
//! Simulators and FFT plans are `Sync` (scratch lives in per-call
//! [`ilt_litho::SimWorkspace`] arenas, not in the plans), but sessions are
//! still best treated as per-worker state: give each worker thread its own
//! `Session` and let the bank cache dedupe the heavy state underneath.

use std::sync::{Arc, Mutex};

use ilt_grid::{BitGrid, RealGrid};
use ilt_litho::{LithoBank, LithoSystem};
use ilt_metrics::StitchReport;
use ilt_tile::TileExecutor;

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::experiment::{inspect_detailed, run_method, Method};
use crate::flows::FlowResult;

/// A reusable experiment session over one configuration.
#[derive(Debug)]
pub struct Session {
    config: ExperimentConfig,
    bank: Arc<LithoBank>,
    inspection: LithoSystem,
    /// The incremental flow's pixel-sum accumulator between operations.
    /// Locked only to take it out and to put it back, never across a flow:
    /// of two concurrent operations the second starts with none (and
    /// allocates), and the last to finish leaves its own here.
    coverage: Mutex<Vec<f64>>,
}

impl Session {
    /// Prepares a session: fetches (or builds) the shared kernel bank for
    /// the configuration's optics and resist, and builds the full-clip
    /// inspection system.
    ///
    /// # Errors
    ///
    /// Propagates kernel-construction and inspection-system failures.
    ///
    /// # Panics
    ///
    /// Panics if `config` is internally inconsistent (see
    /// [`ExperimentConfig::validate`]).
    pub fn new(config: ExperimentConfig) -> Result<Self, CoreError> {
        config.validate();
        ilt_prof::rss::pin_mmap_threshold();
        // Construction costs (TCC eigendecomposition, kernel resampling,
        // FFT plan setup) bill to the kernel-build profiling stage.
        let _stage = ilt_prof::stage_scope(ilt_prof::Stage::KernelBuild);
        let bank = ilt_litho::shared_bank(&config.optics, config.resist)?;
        // The inspection-system resample is the other construction cost a
        // cold session pays; the `build` span makes it visible in the
        // latency budget next to the bank build.
        let mut build = ilt_telemetry::span(ilt_telemetry::names::BUILD);
        build.add_field("what", "inspection_system");
        let inspection = bank.system(config.clip, config.inspection_scale())?;
        drop(build);
        Ok(Session {
            config,
            bank,
            inspection,
            coverage: Mutex::default(),
        })
    }

    /// The configuration this session was prepared for.
    #[inline]
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The shared kernel bank.
    #[inline]
    pub fn bank(&self) -> &LithoBank {
        &self.bank
    }

    /// The prebuilt full-clip inspection system.
    #[inline]
    pub fn inspection(&self) -> &LithoSystem {
        &self.inspection
    }

    /// Runs one method on one target, reusing the session's bank.
    ///
    /// # Errors
    ///
    /// Propagates flow failures.
    pub fn run_method(
        &self,
        method: Method,
        target: &BitGrid,
        executor: &TileExecutor,
    ) -> Result<FlowResult, CoreError> {
        // The `session` span groups the flow (and its stages/tiles) under
        // one node of the per-job trace: queue → session → tiles →
        // assembly in `/debug/jobs/{id}/trace`.
        let mut span = ilt_telemetry::span(ilt_telemetry::names::SESSION);
        span.add_field("method", method.label());
        run_method(method, &self.config, &self.bank, target, executor)
    }

    /// Runs the multigrid-Schwarz flow and stores the final mask's tile
    /// crops in the shared mask store (`ilt-store`), making the result
    /// warm-startable by [`Session::run_incremental`]. When the store is
    /// disabled (`ILT_STORE=0`) this is plain [`Session::run_method`] with
    /// [`Method::Ours`].
    ///
    /// # Errors
    ///
    /// Propagates flow failures.
    pub fn run_and_store(
        &self,
        target: &BitGrid,
        executor: &TileExecutor,
    ) -> Result<FlowResult, CoreError> {
        let mut span = ilt_telemetry::span(ilt_telemetry::names::SESSION);
        span.add_field("method", "ours+store");
        if !ilt_store::MaskStore::enabled() {
            return crate::flows::multigrid_schwarz(
                &self.config,
                &self.bank,
                target,
                &ilt_opt::PixelIlt::new(),
                executor,
            );
        }
        crate::incremental::run_and_store(
            &self.config,
            &self.bank,
            ilt_store::shared_store(),
            target,
            &ilt_opt::PixelIlt::new(),
            executor,
        )
    }

    /// Incremental (ECO) re-solve: diffs `edited` against `base`, reuses
    /// clean tiles verbatim from the shared mask store, and re-solves only
    /// the dirty set warm-started from the base masks. The base layout must
    /// have been solved with [`Session::run_and_store`] under this
    /// session's config for warm starts to hit; on a cold store every tile
    /// re-solves (correct, just not fast). The store is only read, so the
    /// same edit run twice gives the same mask bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates flow failures.
    pub fn run_incremental(
        &self,
        base: &BitGrid,
        edited: &BitGrid,
        executor: &TileExecutor,
    ) -> Result<crate::incremental::IncrementalOutcome, CoreError> {
        let mut span = ilt_telemetry::span(ilt_telemetry::names::SESSION);
        span.add_field("method", "ours-eco");
        // A poisoned lock still guards a valid (possibly empty) vector.
        let slot = || self.coverage.lock().unwrap_or_else(|e| e.into_inner());
        let mut coverage = std::mem::take(&mut *slot());
        let outcome = crate::incremental::run_incremental_lent(
            &self.config,
            &self.bank,
            ilt_store::shared_store(),
            base,
            edited,
            &ilt_opt::PixelIlt::new(),
            executor,
            &mut coverage,
        );
        *slot() = coverage;
        outcome
    }

    /// Inspects a raw mask against a target over the whole clip with the
    /// prebuilt inspection system (see
    /// [`inspect_detailed`](crate::experiment::inspect_detailed)).
    ///
    /// # Errors
    ///
    /// Propagates lithography failures.
    pub fn inspect_mask(
        &self,
        lines: &[ilt_tile::StitchLine],
        target: &BitGrid,
        mask: &RealGrid,
    ) -> Result<(ilt_metrics::MaskQuality, StitchReport), CoreError> {
        inspect_detailed(&self.config, &self.inspection, lines, target, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_layout::suite_of_size;
    use ilt_tile::Partition;

    #[test]
    fn sessions_share_the_cached_bank() {
        let config = ExperimentConfig::test_tiny();
        let a = Session::new(config.clone()).unwrap();
        let b = Session::new(config).unwrap();
        assert!(Arc::ptr_eq(&a.bank, &b.bank));
    }

    #[test]
    fn inspect_mask_runs_on_the_prebuilt_system() {
        let config = ExperimentConfig::test_tiny();
        let session = Session::new(config.clone()).unwrap();
        let clip = suite_of_size(&config.generator, 1).remove(0);
        let partition = Partition::new(clip.size(), clip.size(), config.partition).unwrap();
        let lines = partition.stitch_lines();
        let (quality, report) = session
            .inspect_mask(&lines, &clip.target, &clip.target_real())
            .unwrap();
        assert!(quality.l2 > 0);
        assert!(report.total >= 0.0);
    }
}
