//! The span store: an always-on, bounded, sharded ring of closed spans.
//!
//! Every closed span is moved here, once, whether or not `ILT_TRACE` is
//! set, and read from here: `ilt-serve`'s `/debug` endpoints rebuild a
//! job's span tree and the profile from a copy ([`spans`]) after (or
//! while) the job runs, and [`crate::drain`] empties the store into the
//! [`crate::Telemetry`] the exporters render.
//!
//! Retention is the store's property: drop-oldest at [`DEFAULT_CAPACITY`]
//! spans per shard, so a long-lived process keeps the *most recent* spans
//! in bounded memory. A batch run that wants every span lifts the bound
//! with [`set_capacity`] before it starts and drains when it ends (the
//! bench harness, on every traced run); a daemon never does.
//!
//! Layout: a fixed number of shards, each an independent
//! `Mutex<VecDeque<SpanEvent>>`. A recording thread always lands in the
//! shard picked by its thread ordinal, so two threads contend only when
//! their ordinals collide modulo the shard count, and recording costs one
//! short mutex hold. Spans from threads that have exited stay readable
//! until evicted — deliberately, so short-lived connection threads leave
//! their request spans behind without leaking per-thread buffers.
//!
//! Evictions are counted ([`spans_dropped`], the `obs.spans_dropped`
//! counter of `/metrics`) beside the occupancy ([`len`], the
//! `obs.spans_buffered` gauge).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::collect::SpanEvent;

/// Number of independent rings. Power of two, sized for "a handful of
/// serve workers plus connection threads" contention, not for huge pools.
const SHARD_COUNT: usize = 8;

/// Default per-shard capacity (spans). Total default memory bound is
/// `SHARD_COUNT * DEFAULT_CAPACITY` events.
pub const DEFAULT_CAPACITY: usize = 4096;

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static RECORDING: AtomicBool = AtomicBool::new(true);
static SHARDS: [Mutex<VecDeque<SpanEvent>>; SHARD_COUNT] =
    [const { Mutex::new(VecDeque::new()) }; SHARD_COUNT];

/// Moves one completed span into its thread's shard, evicting the oldest
/// span of that shard if it is full.
pub(crate) fn record(event: SpanEvent) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let shard = &SHARDS[(event.thread as usize) % SHARD_COUNT];
    let cap = CAPACITY.load(Ordering::Relaxed);
    let mut ring = shard.lock().unwrap_or_else(|e| e.into_inner());
    while ring.len() >= cap {
        ring.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    ring.push_back(event);
}

/// Total spans evicted (drop-oldest) since process start — the
/// `obs.spans_dropped` counter.
pub fn spans_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Sets the per-shard capacity (minimum 1; `usize::MAX` lifts the bound).
/// Existing shards shrink lazily: oversized rings evict on their next
/// record.
pub fn set_capacity(per_shard: usize) {
    CAPACITY.store(per_shard.max(1), Ordering::Relaxed);
}

/// Turns recording off (or back on): while off, closed spans are timed and
/// then dropped. The kill switch exists for overhead measurement
/// (`obs_overhead` times spans with recording on and off) and for the
/// zero-allocation tests; it is on by default.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Reads `ILT_OBS_RING` (per-shard span capacity; `0` or `off` disables
/// recording) and applies it. Called by the daemon next to
/// [`crate::init_from_env`].
pub fn init_from_env() {
    match parse_ring(std::env::var("ILT_OBS_RING").ok().as_deref()) {
        0 => set_recording(false),
        per_shard => set_capacity(per_shard),
    }
}

/// The `ILT_OBS_RING` grammar: a per-shard capacity, `0` for `0`/`off`
/// (case-insensitive); unset or malformed (with a warning) it is
/// [`DEFAULT_CAPACITY`].
fn parse_ring(raw: Option<&str>) -> usize {
    match raw {
        Some(v) if v.trim().eq_ignore_ascii_case("off") => 0,
        raw => crate::parse_or_warn("ILT_OBS_RING", raw, DEFAULT_CAPACITY),
    }
}

/// A copy of the buffered spans — all of them, or with `Some(trace)` only
/// that trace's — sorted by `(start_ns, id)`, leaving the store as it is.
/// `/debug/jobs/{id}/trace` renders a job's tree from it and
/// `/debug/profile` the self-time profile of everything buffered.
pub fn spans(trace: Option<u64>) -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for shard in &SHARDS {
        let ring = shard.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(
            ring.iter()
                .filter(|e| trace.is_none_or(|t| e.trace == t))
                .cloned(),
        );
    }
    out.sort_by_key(|e| (e.start_ns, e.id));
    out
}

/// Takes everything currently buffered out of the store, sorted by
/// `(start_ns, id)` — the span half of [`crate::drain`].
pub(crate) fn take() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for shard in &SHARDS {
        out.extend(shard.lock().unwrap_or_else(|e| e.into_inner()).drain(..));
    }
    out.sort_by_key(|e| (e.start_ns, e.id));
    out
}

/// Number of spans currently buffered (all shards).
pub fn len() -> usize {
    SHARDS
        .iter()
        .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_grammar_keeps_off_and_warns_on_the_rest() {
        assert_eq!(parse_ring(None), DEFAULT_CAPACITY);
        assert_eq!(parse_ring(Some(" 256 ")), 256);
        assert_eq!(parse_ring(Some("0")), 0);
        assert_eq!(parse_ring(Some("off")), 0);
        assert_eq!(parse_ring(Some("OFF")), 0);
        assert_eq!(parse_ring(Some("25x")), DEFAULT_CAPACITY);
        assert_eq!(parse_ring(Some("-1")), DEFAULT_CAPACITY);
    }
}
