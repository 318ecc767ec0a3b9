//! With the mmap threshold pinned, a freed clip-sized block leaves the
//! resident set every time, not only the first. Unpinned, glibc raises its
//! threshold past the first freed block and serves the next one from a heap
//! arena, which keeps it resident after it is freed.
//!
//! One test in its own binary: it reads the process's `VmRSS`, which any
//! concurrently running test would disturb.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn freed_large_blocks_leave_the_resident_set_every_time() {
    ilt_prof::rss::pin_mmap_threshold();
    let resident = || ilt_prof::rss::read().unwrap().current_bytes;
    let bytes = 2 * ilt_prof::rss::MMAP_THRESHOLD_BYTES;
    for round in 0..3 {
        let block = std::hint::black_box(vec![1u8; bytes]);
        let held = resident();
        drop(block);
        let released = held.saturating_sub(resident());
        assert!(
            released >= bytes as u64 * 3 / 4,
            "round {round}: freeing {bytes} bytes released {released}"
        );
    }
}
