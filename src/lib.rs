//! # multigrid-schwarz-ilt
//!
//! A from-scratch Rust reproduction of *Efficient ILT via
//! Multigrid-Schwartz Method* (DAC 2024): full-chip inverse lithography
//! with tile partitioning, a coarse-grid multigrid initialisation, staged
//! additive-Schwarz fine optimisation with weighted-smoothing tile
//! assembly, and a multi-colour multiplicative-Schwarz refinement pass.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`fft`] — complex FFTs and spectral utilities;
//! * [`grid`] — rasters, rectangles, filtering, morphology;
//! * [`layout`] — synthetic M1 clips and design rules;
//! * [`litho`] — Hopkins partially-coherent simulation and process corners;
//! * [`opt`] — the pixel (multi-level) and level-set tile solvers;
//! * [`tile`] — partitioning, Schwarz assembly, colouring, execution;
//! * [`metrics`] — L2, PVBand, and the Stitch Loss;
//! * [`core`] — the multigrid-Schwarz flow, every baseline flow, the
//!   Table 1 engine, and the parallel-speedup model.
//!
//! # Examples
//!
//! ```
//! use multigrid_schwarz_ilt::core::ExperimentConfig;
//!
//! let config = ExperimentConfig::paper_default();
//! // The paper's geometry ratios hold: a clip is 2 tiles wide and the
//! // overlap is half a tile.
//! assert_eq!(config.clip, 2 * config.partition.tile);
//! assert_eq!(config.partition.overlap, config.partition.tile / 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ilt_core as core;
pub use ilt_fft as fft;
pub use ilt_grid as grid;
pub use ilt_layout as layout;
pub use ilt_litho as litho;
pub use ilt_metrics as metrics;
pub use ilt_opt as opt;
pub use ilt_tile as tile;
