//! # ilt-fft
//!
//! Power-of-two complex FFTs and spectral utilities for the
//! multigrid-Schwarz ILT workspace.
//!
//! The lithography forward model (Hopkins, Eq. (1)–(2) of the paper) is a sum
//! of squared convolutions evaluated in the frequency domain; every ILT
//! iteration performs a handful of 2-D FFTs. This crate provides:
//!
//! * [`Complex`] — a small complex number, generic over its [`Float`]
//!   element (`f64` unless named otherwise);
//! * [`FftPlan`] / [`Fft2d`] / [`RfftPlan`] / [`Rfft2d`] — reusable radix-2
//!   plans for 1-D and 2-D complex and real-input transforms, each one
//!   source with an `f32` and an `f64` instance;
//! * [`spectral`] — signed/unshifted bin conversions, the low-frequency crop
//!   `[.]_P` and its adjoint, and the fractional-frequency kernel resampling
//!   `H_i(j/s, k/s)` required by the paper's Eq. (3) and Eq. (9);
//! * [`dft_reference`] / [`dft2_reference`] — `O(n^2)` oracles for testing.
//!
//! # Precision
//!
//! The simulation runs in `f32`: its transforms, fields and images are
//! `f32` instances of these types. `f64` is the reference the tests hold
//! the engine to (bit-identity oracles and `1e-12` dense references run on
//! the `f64` instance, which shares every line of source with the `f32`
//! one). There is no run-time switch: the element type is a type
//! parameter, chosen where the buffers are declared.
//!
//! # Kernels
//!
//! Every transform and sweep runs on one compiled body per process —
//! portable, `avx2+fma` or `avx512f`, the widest the CPU reports
//! ([`body_name`]). Besides the transforms, the same bodies carry the two
//! pointwise sweeps of a pixel-ILT iteration, exported here at both
//! element types: [`logistic_scaled`] (latent to mask, intensity to wafer)
//! and [`logistic_loss`] (intensity to loss and `dL/dI`, the loss summed in
//! `f64`), with [`logistic`] their scalar `f64` form.
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
mod simd;
pub mod spectral;

pub use cache::{
    cached_plan_bytes, cached_plan_count, shared_plan, shared_rplan, tuned_summary, TunedParams,
};
pub use complex::{Complex, Float};
pub use dft::{dft2_reference, dft_reference};
pub use error::FftError;
pub use fft2d::Fft2d;
pub use plan::{Direction, FftPlan};
pub use rfft::{Rfft2d, RfftPlan};
pub use simd::{body_name, logistic, logistic_loss, logistic_scaled};
