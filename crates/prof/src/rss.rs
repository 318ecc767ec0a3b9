//! Process resident-set-size reading from `/proc/self/status`.
//!
//! Two numbers per read: `VmRSS` (current resident bytes) and `VmHWM`
//! (the kernel's monotonic process-lifetime high-water mark). A per-run
//! peak of live bytes is the tracking allocator's
//! ([`crate::alloc::reset_peak`]).
//!
//! On non-Linux targets [`read`] returns `None`; everything downstream
//! treats RSS as optional.

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
