//! A traced harness run keeps every span it records: the drills that
//! trace by default (`memprofile`, `serve_load`) take the same path as an
//! `ILT_TRACE=1` run, which lifts the span store's drop-oldest bound, so
//! the `spans` of their `report.json` are the whole run, not a ring.
//!
//! Expects `ILT_TRACE` unset or on, as `cargo test` runs it.

use ilt_bench::HarnessOptions;
use ilt_telemetry as tele;

#[test]
fn a_traced_run_drains_more_spans_than_one_ring_holds() {
    let _opts = HarnessOptions::from_env_traced();
    assert!(
        tele::enabled(),
        "from_env_traced collects unless ILT_TRACE is off"
    );
    let dropped = tele::flight::spans_dropped();
    // One thread: every span lands in the same shard.
    let spans = tele::flight::DEFAULT_CAPACITY + 100;
    for tile in 0..spans {
        let mut span = tele::span(tele::names::TILE);
        span.add_field("tile", tile);
    }
    let drained = tele::drain();
    assert_eq!(drained.span_count(tele::names::TILE), spans);
    assert_eq!(
        tele::flight::spans_dropped(),
        dropped,
        "no span was evicted"
    );
}
