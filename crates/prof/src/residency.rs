//! High-water tracking of solved-tile masks a flow holds between solve
//! and assembly.
//!
//! The allocator's whole-process peak ([`crate::alloc`]) cannot see the
//! streaming-assembly win at bench scales: per-tile solver scratch
//! (extended-tile FFT buffers, gradient grids) dominates the process
//! high-water mark and is identical whether tiles are folded band by
//! band or held until a batch assemble. This module tracks the one
//! quantity streaming actually bounds — the bytes of *solved tile masks
//! resident at once* — at the point where flows hold them, so
//! `ilt-core`'s `residency` test measures real code behaviour: a
//! regression that re-collects every tile before folding trips it
//! regardless of what the allocator peak does.
//!
//! Flows call [`acquire`] when a batch of solved masks materialises and
//! [`release`] when it is folded into the assembler and dropped. The
//! counters are process-global like the rest of `ilt-prof`; callers
//! [`reset`] around a measured run.

use std::sync::atomic::{AtomicI64, Ordering};

static RESIDENT_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Zeroes the resident count and the high-water mark. Call before a
/// measured run; flows always acquire/release in balanced pairs, so the
/// resident count is already zero between runs.
pub fn reset() {
    RESIDENT_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
}

/// Records `bytes` of solved tile masks becoming resident and folds the
/// new level into the high-water mark.
pub fn acquire(bytes: usize) {
    let now = RESIDENT_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

/// Records `bytes` of solved tile masks being folded and dropped.
pub fn release(bytes: usize) {
    RESIDENT_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed);
}

/// Bytes of solved tile masks resident right now.
pub fn resident_bytes() -> i64 {
    RESIDENT_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of resident solved-tile-mask bytes since [`reset`].
pub fn peak_bytes() -> i64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_high_water_mark() {
        reset();
        assert_eq!(peak_bytes(), 0);
        acquire(100);
        acquire(50);
        release(100);
        acquire(20);
        assert_eq!(resident_bytes(), 70);
        assert_eq!(peak_bytes(), 150, "peak was the moment both were live");
        release(70);
        assert_eq!(resident_bytes(), 0);
        assert_eq!(peak_bytes(), 150, "release never lowers the peak");
        reset();
        assert_eq!(peak_bytes(), 0);
    }
}
