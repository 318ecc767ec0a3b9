//! Process resident-set-size reading from `/proc/self/status`.
//!
//! Two numbers per read: `VmRSS` (current resident bytes) and `VmHWM`
//! (the kernel's monotonic process-lifetime high-water mark). A per-run
//! peak of live bytes is the tracking allocator's
//! ([`crate::alloc::reset_peak`]).
//!
//! On non-Linux targets [`read`] returns `None`; everything downstream
//! treats RSS as optional.
//!
//! [`pin_mmap_threshold`] fixes the allocator policy that decides how
//! much of the resident set freed clip-sized grids keep.

/// One resident-set reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssSample {
    /// Current resident set (`VmRSS`), bytes.
    pub current_bytes: u64,
    /// Kernel lifetime high-water mark (`VmHWM`), bytes.
    pub peak_bytes: u64,
}

/// Reads the current process RSS. Returns `None` where `/proc` is
/// unavailable (non-Linux) or unparseable.
pub fn read() -> Option<RssSample> {
    read_impl()
}

#[cfg(target_os = "linux")]
fn read_impl() -> Option<RssSample> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status(&status)
}

#[cfg(not(target_os = "linux"))]
fn read_impl() -> Option<RssSample> {
    None
}

/// Parses `VmRSS`/`VmHWM` lines (`VmRSS:     1234 kB`) out of a
/// `/proc/self/status` body.
fn parse_status(status: &str) -> Option<RssSample> {
    let mut current = None;
    let mut peak = None;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            current = parse_kb(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            peak = parse_kb(rest);
        }
    }
    Some(RssSample {
        current_bytes: current?,
        peak_bytes: peak?,
    })
}

fn parse_kb(rest: &str) -> Option<u64> {
    let rest = rest.trim();
    let number = rest.strip_suffix("kB").unwrap_or(rest).trim();
    number.parse::<u64>().ok().map(|kb| kb * 1024)
}

/// Blocks of at least this many bytes get a mapping of their own once
/// [`pin_mmap_threshold`] has run: every clip-sized grid of a 1024² clip
/// (4 MiB in `f32`, 8 MiB in `f64`), none of a 512² clip's.
pub const MMAP_THRESHOLD_BYTES: usize = 4 << 20;

/// Free memory at the top of a heap arena beyond this many bytes goes back
/// to the kernel once [`pin_mmap_threshold`] has run: just above the
/// ~5 MiB of workspace a 256² tile solve frees, so a worker's next solve
/// reuses it without faulting it in again.
pub const TRIM_THRESHOLD_BYTES: usize = 6 << 20;

/// Fixes glibc's mmap threshold at [`MMAP_THRESHOLD_BYTES`] and its trim
/// threshold at [`TRIM_THRESHOLD_BYTES`] for the rest of the process.
/// Idempotent; a no-op on other C libraries.
///
/// glibc starts at 128 KiB for both and, each time a mapped block is
/// freed, raises the mmap threshold to that block's size and the trim
/// threshold to twice that. After a flow frees its first clip-sized grid
/// every later one is therefore carved from the heap arenas, up to 16 MiB
/// of free memory stays resident at each arena's top, and what is
/// resident when the process peaks depends on how many operations it has
/// run and on which worker freed what: 1024² multigrid runs of the same
/// work peak near 100 MiB or near 110–114 MiB. Pinned, each such grid is
/// mapped and unmapped whole and an arena keeps at most one tile solve's
/// workspace, and the same runs peak at 78–79 MiB. The trim threshold
/// trades the two ways a run can vary: glibc's 128 KiB default (64 MiB
/// peaks) has every tile solve fault its workspace back in, which made an
/// incremental edit slower than with the dynamic thresholds, and 8 MiB
/// lets an arena keep a second solve's worth, which read 80 or 88 MiB.
pub fn pin_mmap_threshold() {
    static PINNED: std::sync::Once = std::sync::Once::new();
    PINNED.call_once(pin_impl);
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_impl() {
    use std::ffi::c_int;
    // glibc's `<malloc.h>` parameter numbers.
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` takes two integers, touches only the allocator's
    // own parameters under its lock, and may be called at any time from
    // any thread. It returns 0 only for an out-of-range value; glibc
    // accepts mmap thresholds up to 32 MiB and any trim threshold.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES as c_int) != 0
            && mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES as c_int) != 0
    };
    debug_assert!(ok, "mallopt rejected a threshold");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_impl() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_fields() {
        let body = "Name:\tilt\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nThreads:\t4\n";
        let sample = parse_status(body).unwrap();
        assert_eq!(sample.current_bytes, 102400 * 1024);
        assert_eq!(sample.peak_bytes, 204800 * 1024);
        assert!(parse_status("Name:\tilt\n").is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_read_reports_nonzero_rss() {
        let sample = read().expect("/proc/self/status readable on linux");
        assert!(sample.current_bytes > 0);
        assert!(sample.peak_bytes >= sample.current_bytes);
    }
}
