//! # ilt-litho
//!
//! Partially coherent lithography simulation built from first principles:
//! annular Köhler illumination, a circular projection pupil with paraxial
//! defocus, Hopkins transmission cross-coefficients, SOCS kernel extraction,
//! FFT-based aerial imaging (Eq. (1)–(3) of the paper), a constant-threshold
//! resist, and the dose/defocus process corners of Definition 3.
//!
//! The paper used the ICCAD-2013 contest kernels; those are proprietary
//! data, so this crate *derives* an equivalent kernel set from the same
//! physics (see `DESIGN.md`). The method under study consumes kernels only
//! through the frequency-domain products of Eq. (2)/(3)/(9), which this
//! crate implements verbatim, including the fractional-bin resampling
//! `H_i(j/s, k/s)` that lets one tabulated set serve every grid scale.
//!
//! # Examples
//!
//! ```
//! use ilt_grid::{Grid, Rect};
//! use ilt_litho::{Corner, LithoBank, OpticsConfig, ResistModel};
//!
//! # fn main() -> Result<(), ilt_litho::LithoError> {
//! let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::default())?;
//! let system = bank.system(64, 1)?;
//! let mut mask = Grid::new(64, 64, 0.0);
//! mask.fill_rect(Rect::new(20, 20, 44, 44), 1.0);
//! let wafer = system.print(&mask, Corner::Nominal)?;
//! assert_eq!(wafer.get(32, 32), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod eigen;
mod error;
mod kernels;
mod optics;
mod resist;
mod sim;
mod system;

pub use cache::{cached_bank_bytes, cached_bank_count, shared_bank};
pub use error::LithoError;
pub use kernels::{Kernel, KernelSet, Slot};
pub use optics::{OpticsConfig, SourcePoint};
pub use resist::ResistModel;
pub use sim::{LithoSimulator, SimWorkspace};
pub use system::{Corner, LithoBank, LithoSystem, PvBand};
