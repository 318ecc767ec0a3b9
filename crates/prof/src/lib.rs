//! # ilt-prof
//!
//! In-process resource profiling for the multigrid-Schwarz ILT stack.
//! Std-only, like `ilt-par` and `ilt-telemetry`. Two parts, plus
//! [`render`], their one JSON rendering:
//!
//! * [`alloc`] — a tracking global allocator ([`TrackingAlloc`])
//!   attributing bytes allocated/freed/peak-live to the ambient
//!   trace and the current pipeline stage ([`stage_scope`]), both read
//!   from the thread's one [`ilt_telemetry::context`] record. Opt-in via
//!   `ILT_PROF_ALLOC`; off, it costs one relaxed load per allocation.
//! * [`rss`] — `/proc/self/status` `VmRSS`/`VmHWM` reading, and the
//!   allocator threshold that keeps the resident set from growing with
//!   the number of operations a process runs ([`rss::pin_mmap_threshold`]).
//!
//! Where the time went is not sampled: [`render::push_profile`] folds the
//! span store's exact intervals into a self-time profile
//! ([`ilt_telemetry::self_time_profile`]).
//!
//! Results surface through `ilt-report/v2` `profile`/`memory` sections
//! and `ilt-serve`'s `/debug/profile` and `/debug/memory`, all rendered by
//! [`render`], and through the `memprofile` bench bin.
//!
//! ## Environment
//!
//! | Variable | Meaning |
//! |---|---|
//! | `ILT_PROF_ALLOC` | `1`/`true`/`on`/`yes` enables allocation counting (requires the binary to install [`TrackingAlloc`]). |

#![warn(missing_docs)]
// `alloc` implements `GlobalAlloc`, which is an unsafe trait, and `rss`
// calls glibc's `mallopt`; everything else in the crate is safe code.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod render;
pub mod rss;

pub use alloc::{
    current_stage, stage_scope, AllocStats, Stage, StageAlloc, StageScope, TrackingAlloc,
    STAGE_COUNT,
};
pub use rss::RssSample;

/// Applies the environment: enables allocation counting when
/// `ILT_PROF_ALLOC` asks for it.
pub fn init_from_env() {
    if ilt_telemetry::parse_flag(std::env::var("ILT_PROF_ALLOC").ok().as_deref()) {
        alloc::set_enabled(true);
    }
}
