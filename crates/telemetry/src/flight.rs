//! The always-on flight recorder: a bounded, sharded ring of recent spans.
//!
//! Unlike the sink (which only collects while tracing is enabled and is
//! drained once per run), the flight recorder keeps the *most recent*
//! spans continuously, in bounded memory, whether or not `ILT_TRACE` is
//! set. `ilt-serve`'s `/debug` endpoints read it to reconstruct a job's
//! span tree after (or while) the job runs, without any job-path locking
//! beyond one short per-shard mutex hold.
//!
//! Layout: a fixed number of shards, each an independent
//! `Mutex<VecDeque<SpanEvent>>` with drop-oldest eviction. A recording
//! thread always lands in the shard picked by its thread ordinal, so two
//! threads contend only when their ordinals collide modulo the shard
//! count. Spans from threads that have exited stay readable until evicted
//! — deliberately, so short-lived connection threads leave their request
//! spans behind without leaking per-thread buffers.
//!
//! Evictions are counted in the process-wide `obs.spans_dropped` counter
//! ([`spans_dropped`]), exported on `/metrics` as
//! `ilt_obs_spans_dropped_total`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

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
static SHARDS: OnceLock<Vec<Mutex<VecDeque<SpanEvent>>>> = OnceLock::new();

fn shards() -> &'static [Mutex<VecDeque<SpanEvent>>] {
    SHARDS.get_or_init(|| {
        (0..SHARD_COUNT)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect()
    })
}

/// Records one completed span into its thread's shard, evicting the oldest
/// span of that shard if it is full.
pub(crate) fn record(event: &SpanEvent) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let shard = &shards()[(event.thread as usize) % SHARD_COUNT];
    let cap = CAPACITY.load(Ordering::Relaxed);
    let mut ring = shard.lock().unwrap_or_else(|e| e.into_inner());
    while ring.len() >= cap {
        ring.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    ring.push_back(event.clone());
}

/// Total spans evicted (drop-oldest) since process start — the
/// `obs.spans_dropped` counter.
pub fn spans_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Per-shard capacity currently in force.
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Sets the per-shard capacity (minimum 1). Existing shards shrink lazily:
/// oversized rings evict on their next record.
pub fn set_capacity(per_shard: usize) {
    CAPACITY.store(per_shard.max(1), Ordering::Relaxed);
}

/// Turns recording off (or back on). The kill switch exists for overhead
/// measurement (`obs_overhead` times spans with recording on and off) and for
/// embedders that want the old trace-or-nothing behaviour; it is on by
/// default.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether the recorder is currently accepting spans.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Reads `ILT_OBS_RING` (per-shard span capacity; `0` or `off` disables
/// recording) and applies it. Called by binaries next to
/// [`crate::init_from_env`].
pub fn init_from_env() {
    if let Ok(v) = std::env::var("ILT_OBS_RING") {
        let v = v.trim().to_ascii_lowercase();
        if v == "off" || v == "0" {
            set_recording(false);
        } else if let Ok(n) = v.parse::<usize>() {
            set_capacity(n);
        }
    }
}

/// Everything currently buffered, across all shards, sorted by
/// `(start_ns, id)` like [`crate::snapshot`].
pub fn snapshot() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for shard in shards() {
        let ring = shard.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(ring.iter().cloned());
    }
    out.sort_by_key(|e| (e.start_ns, e.id));
    out
}

/// All buffered spans belonging to one trace, sorted by `(start_ns, id)`.
/// The `/debug/jobs/{id}/trace` endpoint renders its tree from this.
pub fn trace_spans(trace: u64) -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for shard in shards() {
        let ring = shard.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(ring.iter().filter(|e| e.trace == trace).cloned());
    }
    out.sort_by_key(|e| (e.start_ns, e.id));
    out
}

/// Number of spans currently buffered (all shards).
pub fn len() -> usize {
    shards()
        .iter()
        .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
        .sum()
}

/// Empties every shard (the dropped counter is left alone). For tests and
/// for measurement harnesses that want a clean window.
pub fn clear() {
    for shard in shards() {
        shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}
