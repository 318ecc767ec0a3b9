//! # ilt-tile
//!
//! Overlapping tile partitioning and Schwarz-style assembly for full-chip
//! ILT — the domain-decomposition substrate of the paper.
//!
//! * [`Partition`] — the Fig. 2 strategy: full-size overlapping tiles,
//!   disjoint core sections, stitch lines on shared core boundaries;
//! * [`restrict`] / [`assemble`] — the `R_j`, `R~_j^T` (Eq. (6)) and
//!   `R'_j^T` (Eq. (12)–(14)) operators; weighted assembly uses exact
//!   partition-of-unity ramps across overlaps, renormalized at clamped
//!   borders;
//! * [`TileWeights`] — those operators' weights in separable form (one 1-D
//!   vector per tile column and row, built once per partition and mode),
//!   plus the in-place partial updates of the refine and incremental
//!   stages (the 2-D maps stay exported as the reference the tests hold it
//!   to);
//! * [`StreamingAssembler`] — bounded-memory assembly: tiles fold into the
//!   layout one colour band at a time, bit-identical to [`assemble`];
//! * [`multi_coloring`] — the colouring of Section 3.4 (no two overlapping
//!   tiles share a colour), enabling the parallel multiplicative refine;
//!   every [`Partition`] computes its colour bands and the fold order of
//!   every assembly once, when it is built;
//! * [`TileExecutor`] — a work-stealing thread pool standing in for the
//!   paper's one-GPU-per-tile execution.
//!
//! # Examples
//!
//! ```
//! use ilt_grid::Grid;
//! use ilt_tile::{assemble, restrict, AssemblyMode, Partition, PartitionConfig};
//!
//! # fn main() -> Result<(), ilt_tile::TileError> {
//! let partition = Partition::new(256, 256, PartitionConfig { tile: 128, overlap: 64 })?;
//! let layout = Grid::from_fn(256, 256, |x, y| ((x ^ y) & 1) as f64);
//! let tiles: Vec<_> = partition.tiles().iter().map(|t| restrict(&layout, t)).collect();
//! let rebuilt = assemble(&partition, &tiles, AssemblyMode::weighted_default(&partition))?;
//! assert!((rebuilt.get(100, 100) - layout.get(100, 100)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assemble;
mod color;
mod error;
mod executor;
mod partition;

pub use assemble::{
    assemble, normalized_weight_map, restrict, weight_map, AssemblyMode, StreamingAssembler,
    TileWeights,
};
pub use color::{multi_coloring, Coloring};
pub use error::TileError;
pub use executor::{TileExecutor, TileFailure};
pub use partition::{Orientation, Partition, PartitionConfig, StitchLine, Tile};
