//! # ilt-prof
//!
//! Continuous, in-process resource profiling for the multigrid-Schwarz
//! ILT stack. Std-only, like `ilt-par` and `ilt-fault`. Four parts:
//!
//! * [`cpu`] — a sampling CPU profiler. A timer thread walks the live
//!   open-span stacks every recording thread publishes through
//!   [`ilt_telemetry::sample_stacks`], charging each tick to the thread's
//!   span path. Exports collapsed-stack (flamegraph-ready) text and a
//!   top-N self-time table. `ILT_PROF_HZ` sets the rate.
//! * [`alloc`] — a tracking global allocator ([`TrackingAlloc`])
//!   attributing bytes allocated/freed/peak-live to the ambient
//!   trace and the current pipeline stage ([`stage_scope`], propagated
//!   by the tile executor like trace ids and deadlines). Opt-in via
//!   `ILT_PROF_ALLOC`; off, it costs one relaxed load per allocation.
//! * [`rss`] — `/proc/self/status` `VmRSS`/`VmHWM` sampling with a
//!   resettable window high-water mark for per-run peak-RSS
//!   trajectories.
//! * [`residency`] — a high-water counter of solved-tile-mask bytes a
//!   flow holds between solve and assembly, the quantity streaming
//!   assembly bounds (`ilt-core`'s `residency` test gates on it).
//!
//! Results surface through `ilt-report/v2` `profile`/`memory` sections,
//! `ilt-serve`'s `/debug/profile` and `/debug/memory`, and the
//! `memprofile` bench bin.
//!
//! ## Environment
//!
//! | Variable | Meaning |
//! |---|---|
//! | `ILT_PROF_HZ` | Sampler rate in Hz; `0` or `off` disables. Binaries that profile by default (serve, `memprofile`) use [`DEFAULT_HZ`] when unset; others only sample when set. |
//! | `ILT_PROF_ALLOC` | `1`/`true`/`on`/`yes` enables allocation counting (requires the binary to install [`TrackingAlloc`]). |

#![warn(missing_docs)]
// `alloc` implements `GlobalAlloc`, which is an unsafe trait; everything
// else in the crate is safe code.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod cpu;
pub mod residency;
pub mod rss;

pub use alloc::{
    current_stage, stage_scope, AllocStats, Stage, StageAlloc, StageScope, TrackingAlloc,
    STAGE_COUNT,
};
pub use cpu::{collapsed, sample_now, sampler_hz, sampler_running, start_sampler, stop_sampler};
pub use rss::RssSample;

/// Default sampler rate for binaries that profile by default. A prime
/// rate (97 Hz) avoids lock-step aliasing with millisecond-periodic work.
pub const DEFAULT_HZ: f64 = 97.0;

/// Parses `ILT_PROF_HZ`: `None` when unset or unparseable, `Some(0.0)`
/// for an explicit `0`/`off`, `Some(hz)` otherwise.
pub fn env_hz() -> Option<f64> {
    let v = std::env::var("ILT_PROF_HZ").ok()?;
    let v = v.trim().to_ascii_lowercase();
    if v == "off" {
        return Some(0.0);
    }
    match v.parse::<f64>() {
        Ok(hz) if hz.is_finite() && hz >= 0.0 => Some(hz),
        _ => None,
    }
}

/// Whether `ILT_PROF_ALLOC` asks for allocation counting.
pub fn env_alloc() -> bool {
    std::env::var("ILT_PROF_ALLOC")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            matches!(v.as_str(), "1" | "true" | "on" | "yes")
        })
        .unwrap_or(false)
}

/// Applies the environment: enables allocation counting when
/// `ILT_PROF_ALLOC` asks for it, and starts the sampler when
/// `ILT_PROF_HZ` is set to a positive rate. `default_on` binaries
/// (serve, `memprofile`) start the sampler at [`DEFAULT_HZ`] even when
/// the variable is unset; an explicit `ILT_PROF_HZ=0`/`off` always wins.
/// Returns whether the sampler is running afterwards.
pub fn init_from_env(default_on: bool) -> bool {
    if env_alloc() {
        alloc::set_enabled(true);
    }
    match env_hz() {
        Some(hz) if hz > 0.0 => {
            cpu::start_sampler(hz);
        }
        Some(_) => {} // explicit off
        None => {
            if default_on {
                cpu::start_sampler(DEFAULT_HZ);
            }
        }
    }
    cpu::sampler_running()
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_hz_grammar() {
        // Uses set_var/remove_var only in this single-threaded-unsafe way
        // inside one test to avoid cross-test env races.
        std::env::set_var("ILT_PROF_HZ", "250");
        assert_eq!(super::env_hz(), Some(250.0));
        std::env::set_var("ILT_PROF_HZ", "off");
        assert_eq!(super::env_hz(), Some(0.0));
        std::env::set_var("ILT_PROF_HZ", "0");
        assert_eq!(super::env_hz(), Some(0.0));
        std::env::set_var("ILT_PROF_HZ", "not-a-rate");
        assert_eq!(super::env_hz(), None);
        std::env::remove_var("ILT_PROF_HZ");
        assert_eq!(super::env_hz(), None);
    }

    #[test]
    fn env_alloc_grammar() {
        std::env::remove_var("ILT_PROF_ALLOC");
        assert!(!super::env_alloc());
        std::env::set_var("ILT_PROF_ALLOC", "yes");
        assert!(super::env_alloc());
        std::env::set_var("ILT_PROF_ALLOC", "0");
        assert!(!super::env_alloc());
        std::env::remove_var("ILT_PROF_ALLOC");
    }
}
