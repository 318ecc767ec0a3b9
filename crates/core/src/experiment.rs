//! The Table 1 experiment engine: run every flow on a clip, inspect the
//! results over the whole region (Eq. (3)), and aggregate across the suite.

use std::borrow::Borrow;

use ilt_grid::{BitGrid, RealGrid};
use ilt_layout::Clip;
use ilt_litho::{Corner, LithoBank, LithoSystem};
use ilt_metrics::{mask_quality, stitch_loss, StitchReport};
use ilt_opt::{LevelSetIlt, PixelIlt};
use ilt_tile::{restrict, Partition, StitchLine, TileExecutor};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::{divide_and_conquer, full_chip, multigrid_schwarz, FlowResult};

/// The four metric columns Table 1 reports per method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodMetrics {
    /// L2 loss (Definition 2) in pixels.
    pub l2: usize,
    /// PVBand (Definition 3) in pixels.
    pub pvband: usize,
    /// Stitch loss (Definition 1).
    pub stitch: f64,
    /// Turn-around time in seconds.
    pub tat: f64,
}

/// One method's outcome on one clip.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method identifier (the Table 1 column group).
    pub method: String,
    /// The metric columns.
    pub metrics: MethodMetrics,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Case number (1-based).
    pub id: usize,
    /// Case name (`case1` ...).
    pub name: String,
    /// Drawn area in pixels.
    pub area: usize,
    /// Per-method results, in column order.
    pub methods: Vec<MethodResult>,
}

impl CaseResult {
    /// The metrics of a method by name.
    pub fn metrics_of(&self, method: &str) -> Option<&MethodMetrics> {
        self.methods
            .iter()
            .find(|m| m.method == method)
            .map(|m| &m.metrics)
    }
}

/// Inspects a flow result: binarises the mask, prints it over the whole
/// clip, and computes every Table 1 metric.
///
/// # Errors
///
/// Propagates lithography failures.
pub fn inspect(
    config: &ExperimentConfig,
    inspection: &LithoSystem,
    lines: &[StitchLine],
    target: &BitGrid,
    flow: &FlowResult,
) -> Result<MethodMetrics, CoreError> {
    let (quality, report) = inspect_detailed(config, inspection, lines, target, &flow.mask)?;
    Ok(MethodMetrics {
        l2: quality.l2,
        pvband: quality.pvband,
        stitch: report.total,
        tat: flow.wall_seconds,
    })
}

/// Like [`inspect`], but returns the full stitch report (used by the
/// Fig. 3/7/8 harnesses) and takes a raw mask.
///
/// # Errors
///
/// Propagates lithography failures.
pub fn inspect_detailed(
    config: &ExperimentConfig,
    inspection: &LithoSystem,
    lines: &[StitchLine],
    target: &BitGrid,
    mask: &RealGrid,
) -> Result<(ilt_metrics::MaskQuality, StitchReport), CoreError> {
    // Manufactured masks are binary; inspect the binarised mask. The
    // whole-clip print and metric pass bills to the inspect stage.
    let _stage = ilt_prof::stage_scope(ilt_prof::Stage::Inspect);
    let binary = mask.threshold(0.5);
    let quality = mask_quality(inspection, &binary.to_real(), target)?;
    let report = stitch_loss(&binary, lines, &config.stitch);
    Ok((quality, report))
}

/// L2 loss (Definition 2) measured tile by tile instead of through one
/// full-clip print: binarises the mask, prints each tile of the clip's
/// partition through a `tile`-sized system (tile sides are always powers
/// of two, so the system always builds), and counts wafer/target
/// mismatches over each tile's **core** pixels. Cores are disjoint and
/// cover the clip, so every pixel is counted exactly once.
///
/// This is the quality measurement for the paper-scale sweep, whose
/// `M x N` clip sides (e.g. `3 x tile/2`) are not powers of two and
/// therefore cannot feed `bank.system(clip, ..)` for [`inspect`]. The
/// absolute value differs slightly from the full-clip print (each tile's
/// print window cuts off optical influence from outside its halo), but it
/// is consistent across clip sizes, which is what the convergence-flatness
/// gate compares.
///
/// # Errors
///
/// Propagates partition and lithography failures.
pub fn tiled_print_loss(
    config: &ExperimentConfig,
    bank: &LithoBank,
    target: &BitGrid,
    mask: &RealGrid,
) -> Result<usize, CoreError> {
    let window = ilt_grid::Rect::new(0, 0, target.width() as i64, target.height() as i64);
    tiled_print_loss_in(config, bank, target, mask, window)
}

/// Like [`tiled_print_loss`], but counts mismatches only inside `window`
/// (chip coordinates). Tiles are still printed with their full halo, so
/// the window restricts *where* loss is counted, not the optical context
/// it is measured with. The convergence-flatness test uses this to
/// compare chip sizes on their interiors: the outermost ring of any chip
/// prints against missing off-chip context, so its loss density depends
/// on the perimeter-to-area ratio rather than on how well the tile
/// hierarchy converged.
///
/// # Errors
///
/// Propagates partition and lithography failures.
pub fn tiled_print_loss_in(
    config: &ExperimentConfig,
    bank: &LithoBank,
    target: &BitGrid,
    mask: &RealGrid,
    window: ilt_grid::Rect,
) -> Result<usize, CoreError> {
    let _stage = ilt_prof::stage_scope(ilt_prof::Stage::Inspect);
    let partition = Partition::new(target.width(), target.height(), config.partition)?;
    let system = bank.system(config.partition.tile, 1)?;
    let binary = mask.threshold(0.5).to_real();
    let mut loss = 0usize;
    for tile in partition.tiles() {
        let Some(count) = tile.core.intersect(window) else {
            continue;
        };
        let printed = system.print(&restrict(&binary, tile), Corner::Nominal)?;
        for y in count.y0..count.y1 {
            for x in count.x0..count.x1 {
                let wafer = printed.get((x - tile.rect.x0) as usize, (y - tile.rect.y0) as usize);
                if wafer != target.get(x as usize, y as usize) {
                    loss += 1;
                }
            }
        }
    }
    Ok(loss)
}

/// The standard four methods of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Divide-and-conquer with the level-set solver.
    GlsDnc,
    /// Divide-and-conquer with the multi-level pixel solver.
    MultiLevelDnc,
    /// Un-partitioned full-chip ILT.
    FullChip,
    /// The multigrid-Schwarz flow.
    Ours,
}

impl Method {
    /// All four, in the paper's column order.
    pub fn all() -> [Method; 4] {
        [
            Method::GlsDnc,
            Method::MultiLevelDnc,
            Method::FullChip,
            Method::Ours,
        ]
    }

    /// Table column label.
    pub fn label(&self) -> &'static str {
        match self {
            Method::GlsDnc => "GLS-ILT",
            Method::MultiLevelDnc => "Multi-level-ILT",
            Method::FullChip => "Full-chip ILT",
            Method::Ours => "Ours",
        }
    }
}

/// Runs one method on one clip.
///
/// # Errors
///
/// Propagates flow failures.
pub fn run_method(
    method: Method,
    config: &ExperimentConfig,
    bank: &LithoBank,
    target: &BitGrid,
    executor: &TileExecutor,
) -> Result<FlowResult, CoreError> {
    let pixel = PixelIlt::new();
    let gls = LevelSetIlt::new();
    match method {
        Method::GlsDnc => divide_and_conquer(config, bank, target, &gls, executor),
        Method::MultiLevelDnc => divide_and_conquer(config, bank, target, &pixel, executor),
        Method::FullChip => full_chip(config, bank, target, &pixel),
        Method::Ours => multigrid_schwarz(config, bank, target, &pixel, executor),
    }
}

/// Runs all four methods on one clip and inspects each, producing one row
/// of Table 1.
///
/// Builds a fresh inspection system for the clip; multi-case runs should
/// build one up front (or use [`crate::Session`]) and call [`run_case_in`]
/// so the kernel resampling and FFT setup happen once, not per case.
///
/// # Errors
///
/// Propagates flow and inspection failures.
pub fn run_case(
    config: &ExperimentConfig,
    bank: &LithoBank,
    clip: &Clip,
    executor: &TileExecutor,
) -> Result<CaseResult, CoreError> {
    let inspection = bank.system(config.clip, config.inspection_scale())?;
    run_case_in(config, bank, &inspection, clip, executor)
}

/// Like [`run_case`], but inspects with a prebuilt full-clip system
/// instead of constructing one internally — the entry point for callers
/// that amortise setup across cases or jobs.
///
/// `inspection` must cover the whole clip at full resolution, i.e. be
/// `bank.system(config.clip, config.inspection_scale())`.
///
/// # Errors
///
/// Propagates flow and inspection failures.
pub fn run_case_in(
    config: &ExperimentConfig,
    bank: &LithoBank,
    inspection: &LithoSystem,
    clip: &Clip,
    executor: &TileExecutor,
) -> Result<CaseResult, CoreError> {
    run_case_with(config, inspection, clip, |method| {
        run_method(method, config, bank, &clip.target, executor)
    })
}

/// Like [`run_case_in`], but takes each method's flow from `solve`, asked
/// once per method in column order, so a caller that keeps flows (the
/// paper-record driver shares them with its figure sections) hands over
/// the ones it already has instead of solving them again.
///
/// # Errors
///
/// Propagates `solve`'s and inspection failures.
pub fn run_case_with<F: Borrow<FlowResult>>(
    config: &ExperimentConfig,
    inspection: &LithoSystem,
    clip: &Clip,
    mut solve: impl FnMut(Method) -> Result<F, CoreError>,
) -> Result<CaseResult, CoreError> {
    // Each bench case gets its own trace id (unless the caller already
    // installed one, e.g. a serve job), so the flight recorder can tell
    // concurrent or consecutive cases apart.
    let _trace = match ilt_telemetry::current_trace() {
        Some(_) => None,
        None => Some(ilt_telemetry::new_trace_scope()),
    };
    let lines = Partition::new(clip.size(), clip.size(), config.partition)?.stitch_lines();
    let mut methods = Vec::new();
    for method in Method::all() {
        let flow = solve(method)?;
        let flow = flow.borrow();
        let metrics = inspect(config, inspection, &lines, &clip.target, flow)?;
        methods.push(MethodResult {
            method: method.label().to_string(),
            metrics,
        });
    }
    Ok(CaseResult {
        id: clip.id,
        name: clip.name.clone(),
        area: clip.area,
        methods,
    })
}

/// Column averages over a set of case rows, per method.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodAverage {
    /// Method label.
    pub method: String,
    /// Average L2.
    pub l2: f64,
    /// Average PVBand.
    pub pvband: f64,
    /// Average stitch loss.
    pub stitch: f64,
    /// Average TAT.
    pub tat: f64,
}

/// Computes per-method averages (the paper's `Average` row).
///
/// # Panics
///
/// Panics if `cases` is empty or rows disagree on their method sets.
pub fn averages(cases: &[CaseResult]) -> Vec<MethodAverage> {
    assert!(!cases.is_empty(), "no cases to average");
    let n = cases.len() as f64;
    cases[0]
        .methods
        .iter()
        .map(|m| &m.method)
        .map(|name| {
            let mut acc = MethodAverage {
                method: name.clone(),
                l2: 0.0,
                pvband: 0.0,
                stitch: 0.0,
                tat: 0.0,
            };
            for case in cases {
                let m = case
                    .metrics_of(name)
                    .expect("method missing from a case row");
                acc.l2 += m.l2 as f64;
                acc.pvband += m.pvband as f64;
                acc.stitch += m.stitch;
                acc.tat += m.tat;
            }
            acc.l2 /= n;
            acc.pvband /= n;
            acc.stitch /= n;
            acc.tat /= n;
            acc
        })
        .collect()
}

/// Computes the paper's `Ratio` row: every method's averages normalised to
/// the reference method (the paper normalises to "Ours").
///
/// # Panics
///
/// Panics if the reference method is missing or has a zero column.
pub fn ratios(avgs: &[MethodAverage], reference: &str) -> Vec<MethodAverage> {
    let base = avgs
        .iter()
        .find(|a| a.method == reference)
        .expect("reference method missing");
    avgs.iter()
        .map(|a| MethodAverage {
            method: a.method.clone(),
            l2: a.l2 / base.l2,
            pvband: a.pvband / base.pvband,
            stitch: a.stitch / base.stitch,
            tat: a.tat / base.tat,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_layout::suite_of_size;
    use ilt_litho::ResistModel;

    #[test]
    fn method_labels() {
        let labels: Vec<&str> = Method::all().iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec!["GLS-ILT", "Multi-level-ILT", "Full-chip ILT", "Ours"]
        );
    }

    #[test]
    fn run_case_produces_full_row() {
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let suite = suite_of_size(&config.generator, 1);
        let row = run_case(&config, &bank, &suite[0], &TileExecutor::sequential()).unwrap();
        assert_eq!(row.methods.len(), 4);
        assert_eq!(row.name, "case1");
        for m in &row.methods {
            assert!(m.metrics.l2 > 0, "{}: zero L2 is implausible", m.method);
            assert!(m.metrics.tat > 0.0);
            assert!(m.metrics.stitch >= 0.0);
        }
        assert!(row.metrics_of("Ours").is_some());
        assert!(row.metrics_of("nonexistent").is_none());
    }

    #[test]
    fn averages_and_ratios() {
        let mk = |l2: usize, tat: f64| MethodMetrics {
            l2,
            pvband: 10,
            stitch: 2.0,
            tat,
        };
        let case = |id: usize, l2a: usize, l2b: usize| CaseResult {
            id,
            name: format!("case{id}"),
            area: 100,
            methods: vec![
                MethodResult {
                    method: "A".into(),
                    metrics: mk(l2a, 1.0),
                },
                MethodResult {
                    method: "B".into(),
                    metrics: mk(l2b, 2.0),
                },
            ],
        };
        let cases = vec![case(1, 100, 200), case(2, 300, 400)];
        let avgs = averages(&cases);
        assert_eq!(avgs[0].l2, 200.0);
        assert_eq!(avgs[1].l2, 300.0);
        let r = ratios(&avgs, "B");
        assert!((r[0].l2 - 200.0 / 300.0).abs() < 1e-12);
        assert_eq!(r[1].l2, 1.0);
        assert_eq!(r[1].tat, 1.0);
    }

    #[test]
    #[should_panic(expected = "no cases")]
    fn empty_average_panics() {
        let _ = averages(&[]);
    }

    #[test]
    fn tiled_print_loss_counts_every_core_pixel_once() {
        // An all-dark mask prints nothing, so the tiled loss must equal
        // the target's drawn area exactly — every core pixel counted once,
        // none twice (cores are disjoint and covering).
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
        let clip = suite_of_size(&config.generator, 1).remove(0);
        let dark = RealGrid::new(config.clip, config.clip, 0.0);
        let loss = tiled_print_loss(&config, &bank, &clip.target, &dark).unwrap();
        assert_eq!(loss, clip.area);

        // A non-power-of-two clip (the paper-scale case) also measures:
        // regenerate the suite at 3/2 tile so the full-clip system could
        // not even be built, and check the same identity.
        let mut wide = config.clone();
        wide.generator.size = 3 * wide.partition.tile / 2;
        let clip = suite_of_size(&wide.generator, 1).remove(0);
        let dark = RealGrid::new(wide.generator.size, wide.generator.size, 0.0);
        let loss = tiled_print_loss(&wide, &bank, &clip.target, &dark).unwrap();
        assert_eq!(loss, clip.area);
    }
}
