//! Error type for ILT solvers.

use std::error::Error;
use std::fmt;

use ilt_litho::LithoError;

/// Errors returned by the ILT solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The underlying lithography simulation failed.
    Litho(LithoError),
    /// Target and initial mask shapes disagree with the solve context.
    ShapeMismatch {
        /// Expected square edge length.
        expected: usize,
        /// Offending shape.
        actual: (usize, usize),
    },
    /// A solver was configured with invalid parameters.
    BadConfig {
        /// Human-readable cause.
        reason: String,
    },
    /// The ambient job deadline (see `ilt_telemetry::deadline`) expired while
    /// the solver was iterating. Checked once per iteration, so a tile stops
    /// within one forward/adjoint pass of its budget instead of relying on
    /// the harness to reap the worker.
    DeadlineExceeded {
        /// Iterations completed before the deadline check tripped.
        completed_iterations: usize,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Litho(e) => write!(f, "lithography failure: {e}"),
            OptError::ShapeMismatch { expected, actual } => write!(
                f,
                "grid is {}x{} but the solver expects {expected}x{expected}",
                actual.0, actual.1
            ),
            OptError::BadConfig { reason } => write!(f, "invalid solver configuration: {reason}"),
            OptError::DeadlineExceeded {
                completed_iterations,
            } => write!(
                f,
                "deadline exceeded after {completed_iterations} solver iterations"
            ),
        }
    }
}

impl Error for OptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OptError::Litho(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LithoError> for OptError {
    fn from(e: LithoError) -> Self {
        OptError::Litho(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_fft::FftError;

    #[test]
    fn display_and_source() {
        let e: OptError = LithoError::Fft(FftError::NonPowerOfTwo { len: 5 }).into();
        assert!(e.to_string().contains("lithography"));
        assert!(std::error::Error::source(&e).is_some());
        let e = OptError::ShapeMismatch {
            expected: 64,
            actual: (32, 32),
        };
        assert!(e.to_string().contains("64"));
        let e = OptError::BadConfig {
            reason: "zero iterations".into(),
        };
        assert!(e.to_string().contains("zero iterations"));
    }

    #[test]
    fn is_send_sync() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<OptError>();
    }
}
