//! # ilt-fft
//!
//! Power-of-two complex FFTs and spectral utilities for the
//! multigrid-Schwarz ILT workspace.
//!
//! The lithography forward model (Hopkins, Eq. (1)–(2) of the paper) is a sum
//! of squared convolutions evaluated in the frequency domain; every ILT
//! iteration performs a handful of 2-D FFTs. This crate provides:
//!
//! * [`Complex`] — a small `f64` complex number;
//! * [`FftPlan`] / [`Fft2d`] — reusable radix-2 plans for 1-D and 2-D
//!   transforms;
//! * [`spectral`] — signed/unshifted bin conversions, the low-frequency crop
//!   `[.]_P` and its adjoint, and the fractional-frequency kernel resampling
//!   `H_i(j/s, k/s)` required by the paper's Eq. (3) and Eq. (9);
//! * [`dft_reference`] / [`dft2_reference`] — `O(n^2)` oracles for testing.
//!
//! # Examples
//!
//! Band-limit an image exactly as the projection optics does:
//!
//! ```
//! use ilt_fft::{spectral, Complex, Fft2d};
//!
//! # fn main() -> Result<(), ilt_fft::FftError> {
//! let n = 16;
//! let fft = Fft2d::new(n, n)?;
//! let mut img = vec![Complex::ONE; n * n];
//! fft.forward(&mut img)?;
//! let low = spectral::crop_lowfreq(&img, n, 4)?;      // [.]_P with P = 4
//! let mut out = spectral::embed_lowfreq(&low, 4, n)?; // zero-fill the rest
//! fft.inverse(&mut out)?;
//! assert!((out[0].re - 1.0).abs() < 1e-12); // DC image survives unchanged
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod complex;
mod dft;
mod error;
mod fft2d;
mod plan;
mod rfft;
#[allow(unsafe_code)]
pub mod simd;
pub mod spectral;

pub use cache::{
    cached_plan_bytes, cached_plan_count, shared_plan, shared_rplan, tuned_summary, TunedParams,
};
pub use complex::Complex;
pub use dft::{dft2_reference, dft_reference};
pub use error::FftError;
pub use fft2d::Fft2d;
pub use plan::{Direction, FftPlan};
pub use rfft::{Rfft2d, RfftPlan};
