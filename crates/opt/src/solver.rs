//! Common interface for single-tile ILT solvers — the `phi(.)` of
//! Algorithm 1 in the paper.

use ilt_grid::RealGrid;
use ilt_litho::{LithoBank, LithoSystem};

use crate::error::OptError;

/// Where a solve runs: the kernel bank plus the grid size and physical
/// scale of the region being corrected.
#[derive(Debug, Clone, Copy)]
pub struct SolveContext<'a> {
    /// Shared optical kernel bank.
    pub bank: &'a LithoBank,
    /// Grid edge length of the tile being solved.
    pub n: usize,
    /// Physical scale relative to the base grid (1 = fine grid, >1 = the
    /// coarse/downsampled grids of Algorithm 1).
    pub scale: usize,
}

impl<'a> SolveContext<'a> {
    /// Builds the lithography system for this context.
    ///
    /// # Errors
    ///
    /// Propagates kernel-resampling and FFT-plan failures.
    pub fn system(&self) -> Result<LithoSystem, OptError> {
        Ok(self.bank.system(self.n, self.scale)?)
    }
}

/// One solve request: optimise `initial` towards printing `target`.
#[derive(Debug, Clone)]
pub struct SolveRequest<'a> {
    /// Binary-valued target image for this tile (`Z_t R_j` in Eq. (10)).
    pub target: &'a RealGrid,
    /// Starting mask (continuous, in `[0, 1]`): the target itself for cold
    /// starts, a cropped assembled mask for Schwarz stages.
    pub initial: &'a RealGrid,
    /// Iteration budget.
    pub iterations: usize,
    /// Learning-rate multiplier (the paper's refine ILT uses a small rate).
    pub lr_scale: f64,
    /// Warm-start mode: `initial` is already a near-converged solution
    /// (e.g. cropped from an assembled layout between Schwarz stages), so
    /// solvers must skip global restructuring steps — in particular the
    /// pixel solver's internal multi-level resampling, which would blur the
    /// warm solution.
    pub warm: bool,
}

impl<'a> SolveRequest<'a> {
    /// Convenience constructor with unit learning-rate scale.
    pub fn new(target: &'a RealGrid, initial: &'a RealGrid, iterations: usize) -> Self {
        SolveRequest {
            target,
            initial,
            iterations,
            lr_scale: 1.0,
            warm: false,
        }
    }

    /// Checks the request against a context.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ShapeMismatch`] if either grid is not `n x n`,
    /// or [`OptError::BadConfig`] for a degenerate learning-rate scale.
    pub fn validate(&self, ctx: &SolveContext<'_>) -> Result<(), OptError> {
        for grid in [self.target, self.initial] {
            if grid.width() != ctx.n || grid.height() != ctx.n {
                return Err(OptError::ShapeMismatch {
                    expected: ctx.n,
                    actual: (grid.width(), grid.height()),
                });
            }
        }
        if !(self.lr_scale > 0.0 && self.lr_scale.is_finite()) {
            return Err(OptError::BadConfig {
                reason: format!("learning-rate scale {} is not positive", self.lr_scale),
            });
        }
        Ok(())
    }
}

/// One labelled run of consecutive iterations inside a solve (e.g. the
/// pixel solver's coarse multi-level phase).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSegment {
    /// Segment label (`"coarse"`, `"fine"`, ...).
    pub label: String,
    /// Objective value after each iteration of this segment.
    pub losses: Vec<f64>,
}

/// Per-iteration convergence record of one solve, split into labelled
/// segments so multi-level schedules stay distinguishable (coarse-phase
/// losses are computed on a smaller grid and are not comparable in scale
/// to fine-phase losses).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceTrace {
    /// Segments in execution order. Empty segments are never stored.
    pub segments: Vec<TraceSegment>,
}

impl ConvergenceTrace {
    /// A trace with one segment (dropped if `losses` is empty).
    pub fn single(label: &str, losses: Vec<f64>) -> Self {
        let mut trace = ConvergenceTrace::default();
        trace.push_segment(label, losses);
        trace
    }

    /// Appends a segment; empty `losses` are ignored.
    pub fn push_segment(&mut self, label: &str, losses: Vec<f64>) {
        if !losses.is_empty() {
            self.segments.push(TraceSegment {
                label: label.to_string(),
                losses,
            });
        }
    }

    /// Total number of recorded iterations across all segments.
    pub fn iterations(&self) -> usize {
        self.segments.iter().map(|s| s.losses.len()).sum()
    }

    /// All losses concatenated in execution order.
    pub fn flatten(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.losses.iter().copied())
            .collect()
    }
}

/// Result of a single-tile solve.
#[derive(Debug, Clone)]
pub struct IltOutcome {
    /// Optimised continuous mask in `[0, 1]`.
    pub mask: RealGrid,
    /// Segmented per-iteration convergence trace; the objective value after
    /// every iteration is its [`flatten`](ConvergenceTrace::flatten).
    pub convergence: ConvergenceTrace,
}

impl IltOutcome {
    /// Builds an outcome from a mask and its convergence trace.
    pub fn new(mask: RealGrid, convergence: ConvergenceTrace) -> Self {
        IltOutcome { mask, convergence }
    }

    /// Final loss, if any iterations ran.
    pub fn final_loss(&self) -> Option<f64> {
        let segments = &self.convergence.segments;
        segments.iter().rev().find_map(|s| s.losses.last()).copied()
    }
}

/// Runs `body` (one solver invocation) inside a `solve` telemetry span
/// tagged with the solver name and grid geometry, records the iterations
/// it ran and its final loss on the span and in the metrics registry, and
/// under tracing adds the loss trace's anomalies as child spans. A failed
/// solve's span carries no `iterations`.
pub(crate) fn with_solve_span(
    name: &str,
    ctx: &SolveContext<'_>,
    body: impl FnOnce() -> Result<IltOutcome, OptError>,
) -> Result<IltOutcome, OptError> {
    let mut span = ilt_telemetry::span(ilt_telemetry::names::SOLVE);
    span.add_field("solver", name);
    span.add_field("n", ctx.n);
    span.add_field("scale", ctx.scale);
    let outcome = body()?;
    let iterations = outcome.convergence.iterations();
    span.add_field("iterations", iterations);
    if let Some(loss) = outcome.final_loss() {
        span.add_field("final_loss", loss);
    }
    if ilt_telemetry::enabled() {
        crate::anomaly::record(&outcome.convergence.flatten());
    }
    ilt_telemetry::counter_add("solver.solves", 1);
    ilt_telemetry::record_value("solver.iterations", iterations as u64);
    Ok(outcome)
}

/// A single-tile ILT algorithm.
pub trait TileSolver: Send + Sync {
    /// Short identifier used in reports (e.g. `"multi-level-ilt"`).
    fn name(&self) -> &str;

    /// Runs the solver.
    ///
    /// # Errors
    ///
    /// Returns [`OptError`] on shape mismatches, bad configuration, or
    /// simulation failure.
    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        request: &SolveRequest<'_>,
    ) -> Result<IltOutcome, OptError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::Grid;
    use ilt_litho::{OpticsConfig, ResistModel};

    #[test]
    fn request_validation() {
        let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::default()).unwrap();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let good = Grid::new(64, 64, 0.0);
        let bad = Grid::new(32, 64, 0.0);
        assert!(SolveRequest::new(&good, &good, 5).validate(&ctx).is_ok());
        assert!(matches!(
            SolveRequest::new(&bad, &good, 5).validate(&ctx),
            Err(OptError::ShapeMismatch { .. })
        ));
        let mut req = SolveRequest::new(&good, &good, 5);
        req.lr_scale = 0.0;
        assert!(matches!(
            req.validate(&ctx),
            Err(OptError::BadConfig { .. })
        ));
    }

    #[test]
    fn context_builds_system() {
        let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::default()).unwrap();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        assert_eq!(ctx.system().unwrap().n(), 64);
    }

    #[test]
    fn outcome_final_loss() {
        let outcome = IltOutcome::new(
            Grid::new(2, 2, 0.0),
            ConvergenceTrace::single("fine", vec![3.0, 2.0, 1.0]),
        );
        assert_eq!(outcome.final_loss(), Some(1.0));
        assert_eq!(outcome.convergence.flatten(), vec![3.0, 2.0, 1.0]);
        let empty = IltOutcome::new(Grid::new(2, 2, 0.0), ConvergenceTrace::default());
        assert_eq!(empty.final_loss(), None);
    }

    #[test]
    fn solve_span_records_the_run_and_its_anomalies_under_tracing() {
        use ilt_telemetry as tele;
        let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::default()).unwrap();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let stalled = || {
            Ok(IltOutcome::new(
                Grid::new(2, 2, 0.0),
                ConvergenceTrace::single("fine", vec![5.0; 20]),
            ))
        };
        // This test alone flips the flag in this binary; spans are found
        // by trace id, so concurrent tests' spans do not interfere.
        let spans_of = |traced: bool| {
            let (trace, _scope) = tele::new_trace_scope();
            tele::set_enabled(traced);
            with_solve_span("stub", &ctx, stalled).unwrap();
            tele::set_enabled(false);
            let anomalies = tele::trace_counters(trace.0).get("diag.anomalies").copied();
            (tele::flight::spans(Some(trace.0)), anomalies)
        };

        let (untraced, anomalies) = spans_of(false);
        assert_eq!(untraced.len(), 1, "only the solve span: {untraced:?}");
        assert_eq!(anomalies, None);
        let solve = &untraced[0];
        assert_eq!(solve.name, tele::names::SOLVE);
        assert_eq!(solve.field("iterations").and_then(|v| v.as_u64()), Some(20));

        let (traced, anomalies) = spans_of(true);
        assert_eq!(anomalies, Some(1), "one diag.anomalies bump per anomaly");
        let solve = traced.iter().find(|e| e.name == tele::names::SOLVE);
        let anomaly = traced.iter().find(|e| e.name == tele::names::ANOMALY);
        let (solve, anomaly) = (solve.unwrap(), anomaly.unwrap());
        assert_eq!(traced.len(), 2);
        assert_eq!(anomaly.parent, Some(solve.id));
        assert_eq!(
            anomaly.field("kind").and_then(|v| v.as_str()),
            Some("stall")
        );
        assert_eq!(anomaly.field("iteration").and_then(|v| v.as_u64()), Some(5));
    }

    #[test]
    fn trace_segments_flatten_in_order() {
        let mut trace = ConvergenceTrace::default();
        trace.push_segment("coarse", vec![9.0, 8.0]);
        trace.push_segment("skipped", vec![]);
        trace.push_segment("fine", vec![2.0, 1.0]);
        assert_eq!(trace.segments.len(), 2);
        assert_eq!(trace.iterations(), 4);
        assert_eq!(trace.flatten(), vec![9.0, 8.0, 2.0, 1.0]);
        assert_eq!(trace.segments[0].label, "coarse");
        assert_eq!(trace.segments[1].label, "fine");
    }
}
