//! # ilt-par
//!
//! The core count the harnesses read ([`available_cores`]). Tiles are the
//! only unit of parallelism: inside a tile the data parallelism lives in
//! the FFT kernels' vector lanes, and a measured intra-tile thread pool
//! lost to the serial loop (ROADMAP item 2).
//!
//! The two other items are do-nothing stand-ins for the names the
//! acceptance benchmark still uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of logical cores available to this process (1 if unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Does nothing: every tile solve is single-threaded. Kept for
/// `benchmark/`; goes with ROADMAP item 1.
pub fn set_inner_threads(_threads: usize) {}

/// A token that selects nothing: every transform and simulation runs on
/// the calling thread. Kept for `benchmark/`; goes with ROADMAP item 1.
#[derive(Debug, Clone, Copy)]
pub struct InnerPool;

impl InnerPool {
    /// The token the benchmark passes for a serial run.
    pub const fn serial() -> Self {
        InnerPool
    }

    /// The same token; `_threads` is ignored.
    pub const fn new(_threads: usize) -> Self {
        InnerPool
    }
}
