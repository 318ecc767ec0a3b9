//! # ilt-opt
//!
//! Single-tile ILT solvers — the `phi(.)` of the paper's Algorithm 1 — plus
//! the optimisation plumbing they share.
//!
//! Two solver families are provided, matching the paper's baselines:
//!
//! * [`PixelIlt`] — sigmoid-relaxed pixel-domain gradient ILT with an
//!   optional multi-level simulation schedule ("Multi-level-ILT", ref. \[4\]).
//!   Free pixel parameterisation nucleates sub-resolution assist features,
//!   giving the best L2 but the worst boundary-stitch behaviour.
//! * [`LevelSetIlt`] — level-set ILT with signed-distance reinitialisation
//!   ("GLS-ILT", ref. \[3\]). The mask changes only by contour motion, so it
//!   produces few SRAFs and stitches more cleanly but converges to a worse
//!   L2.
//!
//! Both implement [`TileSolver`], which is what the multigrid-Schwarz flows
//! in `ilt-core` consume. Every solve runs inside a `solve` telemetry span
//! that records its iteration count and final loss; under tracing, the
//! stalls, divergences and oscillations of its loss trace become
//! `anomaly` spans beneath it.
//!
//! # Examples
//!
//! ```
//! use ilt_grid::{Grid, Rect};
//! use ilt_litho::{LithoBank, OpticsConfig, ResistModel};
//! use ilt_opt::{PixelIlt, SolveContext, SolveRequest, TileSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::default())?;
//! let ctx = SolveContext { bank: &bank, n: 64, scale: 1 };
//! let mut target = Grid::new(64, 64, 0.0);
//! target.fill_rect(Rect::new(20, 24, 44, 36), 1.0);
//! let outcome = PixelIlt::new().solve(&ctx, &SolveRequest::new(&target, &target, 5))?;
//! assert_eq!(outcome.convergence.iterations(), 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod error;
mod level_set;
mod loss;
mod pixel;
mod sdf;
mod solver;

pub use error::OptError;
pub use level_set::{LevelSetIlt, LevelSetIltConfig};
pub use loss::{evaluate_loss, evaluate_loss_into, LossEval};
pub use pixel::{PixelIlt, PixelIltConfig};
pub use sdf::{
    signed_distance, smooth_mask, smooth_mask_derivative, smooth_mask_derivative_into,
    smooth_mask_into,
};
pub use solver::{
    ConvergenceTrace, IltOutcome, SolveContext, SolveRequest, TileSolver, TraceSegment,
};
