//! # ilt-prof
//!
//! Continuous, in-process resource profiling for the multigrid-Schwarz
//! ILT stack. Std-only, like `ilt-par` and `ilt-telemetry`. Four parts:
//!
//! * [`cpu`] — a sampling CPU profiler. A timer thread walks the live
//!   open-span stacks every recording thread publishes through
//!   [`ilt_telemetry::sample_stacks`], charging each tick to the thread's
//!   span path. Exports collapsed-stack (flamegraph-ready) text and a
//!   top-N self-time table. `ILT_PROF_HZ` sets the rate.
//! * [`alloc`] — a tracking global allocator ([`TrackingAlloc`])
//!   attributing bytes allocated/freed/peak-live to the ambient
//!   trace and the current pipeline stage ([`stage_scope`]), both read
//!   from the thread's one [`ilt_telemetry::context`] record. Opt-in via
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

/// The `ILT_PROF_HZ` grammar: `None` when unset or unparseable,
/// `Some(0.0)` for an explicit `0`/`off`, `Some(hz)` otherwise.
fn parse_hz(raw: Option<&str>) -> Option<f64> {
    let v = raw?.trim().to_ascii_lowercase();
    if v == "off" {
        return Some(0.0);
    }
    match v.parse::<f64>() {
        Ok(hz) if hz.is_finite() && hz >= 0.0 => Some(hz),
        _ => None,
    }
}

/// Applies the environment: enables allocation counting when
/// `ILT_PROF_ALLOC` asks for it, and starts the sampler when
/// `ILT_PROF_HZ` is set to a positive rate. `default_on` binaries
/// (serve, `memprofile`) start the sampler at [`DEFAULT_HZ`] even when
/// the variable is unset; an explicit `ILT_PROF_HZ=0`/`off` always wins.
/// Returns whether the sampler is running afterwards.
pub fn init_from_env(default_on: bool) -> bool {
    let var = |name: &str| std::env::var(name).ok();
    if ilt_telemetry::parse_flag(var("ILT_PROF_ALLOC").as_deref()) {
        alloc::set_enabled(true);
    }
    match parse_hz(var("ILT_PROF_HZ").as_deref()) {
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
    use super::parse_hz;

    #[test]
    fn hz_grammar() {
        assert_eq!(parse_hz(Some("250")), Some(250.0));
        assert_eq!(parse_hz(Some(" 97.5 ")), Some(97.5));
        assert_eq!(parse_hz(Some("off")), Some(0.0));
        assert_eq!(parse_hz(Some("OFF")), Some(0.0));
        assert_eq!(parse_hz(Some("0")), Some(0.0));
        assert_eq!(parse_hz(Some("not-a-rate")), None);
        assert_eq!(parse_hz(Some("-5")), None);
        assert_eq!(parse_hz(Some("inf")), None);
        assert_eq!(parse_hz(None), None);
    }
}
