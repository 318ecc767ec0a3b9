//! A tracking global allocator: bytes allocated/freed/live, attributed to
//! the ambient trace and the current pipeline stage.
//!
//! [`TrackingAlloc`] wraps [`std::alloc::System`] and is meant to be
//! installed as the binary's `#[global_allocator]`. Counting is **opt-in**
//! (`ILT_PROF_ALLOC`, see [`crate::init_from_env`]): when disabled, every
//! hook is a single relaxed atomic load on top of the system allocator, so
//! the wrapper is safe to leave installed in production binaries.
//!
//! Attribution has two axes:
//!
//! * **Stage** — a per-thread tag ([`stage_scope`]) naming the pipeline
//!   phase the thread is working in (`kernel_build`, `coarse`, `fine`,
//!   `refine`, `assembly`, `inspect`). Bytes allocated with no tag in
//!   scope land in `untagged`.
//! * **Trace** — the ambient [`ilt_telemetry`] trace id, accumulated in a
//!   fixed lock-free table so `/debug/memory` can answer "which job
//!   allocated the most".
//!
//! Both are fields of the thread's one [`ilt_telemetry::context`] record
//! (the stage tag is stored there as this enum's index), so an allocation
//! reads one thread-local slot, and the tile executor carries both to its
//! workers, with the deadline, by re-installing that record.
//!
//! Caveat (documented, deliberate): *frees* are counted globally but not
//! attributed per stage — a buffer allocated in `coarse` is routinely
//! freed in `assembly`, so per-stage net-live numbers would mislead. Per
//! stage we report bytes and call counts *allocated*; live/peak bytes are
//! process-wide.
//!
//! Every hook is allocation-free and non-panicking: counting uses only
//! relaxed atomics and the context record's `try_with` read, so it is safe
//! from any allocation context, including TLS teardown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use ilt_telemetry::context;

/// Number of attribution stages (including `untagged`).
pub const STAGE_COUNT: usize = 7;

/// Pipeline stage an allocation is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// No stage tag in scope.
    Untagged = 0,
    /// SOCS kernel-bank or inspection-system construction.
    KernelBuild = 1,
    /// Multigrid coarse-level stages.
    Coarse = 2,
    /// Fine additive-Schwarz stages.
    Fine = 3,
    /// Multi-color multiplicative-Schwarz refinement.
    Refine = 4,
    /// Sequential tile assembly.
    Assembly = 5,
    /// Full-clip mask inspection.
    Inspect = 6,
}

impl Stage {
    /// All stages, in counter-index order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Untagged,
        Stage::KernelBuild,
        Stage::Coarse,
        Stage::Fine,
        Stage::Refine,
        Stage::Assembly,
        Stage::Inspect,
    ];

    /// Stable snake_case name, used in reports and debug endpoints.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Untagged => "untagged",
            Stage::KernelBuild => "kernel_build",
            Stage::Coarse => "coarse",
            Stage::Fine => "fine",
            Stage::Refine => "refine",
            Stage::Assembly => "assembly",
            Stage::Inspect => "inspect",
        }
    }

    /// Maps a flow stage label (`"coarse s=4"`, `"fine stage 1"`,
    /// `"refine color 0"`) to its attribution stage.
    pub fn from_label(label: &str) -> Stage {
        if label.starts_with("coarse") {
            Stage::Coarse
        } else if label.starts_with("fine") {
            Stage::Fine
        } else if label.starts_with("refine") {
            Stage::Refine
        } else {
            Stage::Untagged
        }
    }

    fn from_index(idx: u8) -> Stage {
        Stage::ALL
            .get(idx as usize)
            .copied()
            .unwrap_or(Stage::Untagged)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREE_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);
static STAGE_BYTES: [AtomicU64; STAGE_COUNT] = [ZERO_U64; STAGE_COUNT];
static STAGE_CALLS: [AtomicU64; STAGE_COUNT] = [ZERO_U64; STAGE_COUNT];

/// Fixed-size per-trace accumulation table (open addressing, linear
/// probing, CAS-claimed slots). Traces past capacity are dropped and
/// counted, never blocked on.
const TRACE_SLOTS: usize = 256;

struct TraceSlot {
    trace: AtomicU64,
    bytes: AtomicU64,
    calls: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: TraceSlot = TraceSlot {
    trace: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    calls: AtomicU64::new(0),
};
static TRACE_TABLE: [TraceSlot; TRACE_SLOTS] = [EMPTY_SLOT; TRACE_SLOTS];
static TRACE_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Enables or disables counting. Prefer `ILT_PROF_ALLOC` via
/// [`crate::init_from_env`] in binaries; this entry point exists for tests
/// and measurement harnesses.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation counting is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The calling thread's current attribution stage.
pub fn current_stage() -> Stage {
    Stage::from_index(context::current().stage)
}

/// Installs `stage` as the calling thread's attribution stage until the
/// returned guard drops. Scopes nest; the innermost wins.
pub fn stage_scope(stage: Stage) -> StageScope {
    context::scope(|c| &mut c.stage, stage as u8)
}

/// Guard restoring the thread's previous attribution stage (see
/// [`stage_scope`]).
pub type StageScope = context::Scope<u8>;

#[inline]
fn note_alloc(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let size = size as u64;
    ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    let job = context::current();
    let stage = job.stage as usize % STAGE_COUNT;
    STAGE_BYTES[stage].fetch_add(size, Ordering::Relaxed);
    STAGE_CALLS[stage].fetch_add(1, Ordering::Relaxed);
    if job.trace != 0 {
        note_trace(job.trace, size);
    }
}

#[inline]
fn note_free(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    FREE_CALLS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

fn note_trace(trace: u64, size: u64) {
    let start = (trace as usize).wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as usize) % TRACE_SLOTS;
    for probe in 0..TRACE_SLOTS {
        let slot = &TRACE_TABLE[(start + probe) % TRACE_SLOTS];
        let owner = slot.trace.load(Ordering::Relaxed);
        if owner == trace {
            slot.bytes.fetch_add(size, Ordering::Relaxed);
            slot.calls.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if owner == 0 {
            match slot
                .trace
                .compare_exchange(0, trace, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    slot.bytes.fetch_add(size, Ordering::Relaxed);
                    slot.calls.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(owner) if owner == trace => {
                    slot.bytes.fetch_add(size, Ordering::Relaxed);
                    slot.calls.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(_) => continue,
            }
        }
    }
    TRACE_DROPPED.fetch_add(1, Ordering::Relaxed);
}

/// Per-stage allocation totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageAlloc {
    /// The stage.
    pub stage: Stage,
    /// Bytes allocated while the stage tag was in scope.
    pub bytes: u64,
    /// Allocation calls while the stage tag was in scope.
    pub calls: u64,
}

/// A snapshot of the tracking allocator's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocStats {
    /// Whether counting was on when the snapshot was taken.
    pub enabled: bool,
    /// Total bytes allocated since counting started.
    pub allocated_bytes: u64,
    /// Total allocation calls (alloc, alloc_zeroed, and the allocating
    /// half of realloc).
    pub allocation_calls: u64,
    /// Total bytes freed.
    pub freed_bytes: u64,
    /// Total free calls.
    pub free_calls: u64,
    /// Bytes currently live (allocated minus freed). Signed: frees of
    /// blocks allocated before counting started can drive it negative.
    pub live_bytes: i64,
    /// High-water mark of [`AllocStats::live_bytes`] since the last
    /// [`reset_peak`].
    pub peak_live_bytes: i64,
    /// Per-stage allocated bytes/calls, in [`Stage::ALL`] order.
    pub stages: [StageAlloc; STAGE_COUNT],
}

/// Takes a snapshot of all counters. Counters are cumulative; measurement
/// windows are computed by differencing two snapshots.
pub fn stats() -> AllocStats {
    let mut stages = [StageAlloc {
        stage: Stage::Untagged,
        bytes: 0,
        calls: 0,
    }; STAGE_COUNT];
    for (i, stage) in Stage::ALL.iter().enumerate() {
        stages[i] = StageAlloc {
            stage: *stage,
            bytes: STAGE_BYTES[i].load(Ordering::Relaxed),
            calls: STAGE_CALLS[i].load(Ordering::Relaxed),
        };
    }
    AllocStats {
        enabled: enabled(),
        allocated_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        allocation_calls: ALLOC_CALLS.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        free_calls: FREE_CALLS.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed),
        stages,
    }
}

/// Re-arms the live-bytes high-water mark to the current live level, so a
/// measurement window sees only its own peak.
pub fn reset_peak() {
    PEAK_LIVE.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Bytes and allocation calls attributed to `trace` (zeroes for unknown
/// traces).
pub fn trace_bytes(trace: u64) -> (u64, u64) {
    if trace == 0 {
        return (0, 0);
    }
    for slot in &TRACE_TABLE {
        if slot.trace.load(Ordering::Relaxed) == trace {
            return (
                slot.bytes.load(Ordering::Relaxed),
                slot.calls.load(Ordering::Relaxed),
            );
        }
    }
    (0, 0)
}

/// The `n` traces with the most attributed bytes, as
/// `(trace, bytes, calls)`, descending by bytes.
pub fn trace_top(n: usize) -> Vec<(u64, u64, u64)> {
    let mut entries: Vec<(u64, u64, u64)> = TRACE_TABLE
        .iter()
        .filter_map(|slot| {
            let trace = slot.trace.load(Ordering::Relaxed);
            if trace == 0 {
                None
            } else {
                Some((
                    trace,
                    slot.bytes.load(Ordering::Relaxed),
                    slot.calls.load(Ordering::Relaxed),
                ))
            }
        })
        .collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(n);
    entries
}

/// Allocations dropped from per-trace attribution because the trace table
/// was full.
pub fn trace_attribution_dropped() -> u64 {
    TRACE_DROPPED.load(Ordering::Relaxed)
}

/// The tracking allocator. Install as the binary's global allocator:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();
/// ```
///
/// Counting stays off (one relaxed load per hook) until
/// `ILT_PROF_ALLOC=1` ([`crate::init_from_env`]) or [`set_enabled`].
#[derive(Debug, Default)]
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// A new tracking allocator (stateless; all counters are global).
    pub const fn new() -> Self {
        TrackingAlloc
    }
}

// SAFETY: every method delegates verbatim to `System` and only adds
// allocation-free, non-panicking relaxed-atomic bookkeeping.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as ours; delegated verbatim.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as ours; delegated verbatim.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as ours; delegated verbatim.
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as ours; delegated verbatim.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle [`set_enabled`] and assert exact
    /// global counter deltas.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn stage_scopes_nest_and_restore() {
        assert_eq!(current_stage(), Stage::Untagged);
        {
            let _outer = stage_scope(Stage::Coarse);
            assert_eq!(current_stage(), Stage::Coarse);
            {
                let _inner = stage_scope(Stage::Assembly);
                assert_eq!(current_stage(), Stage::Assembly);
            }
            assert_eq!(current_stage(), Stage::Coarse);
        }
        assert_eq!(current_stage(), Stage::Untagged);
    }

    #[test]
    fn stage_tags_are_thread_local() {
        let _scope = stage_scope(Stage::Fine);
        std::thread::spawn(|| {
            assert_eq!(current_stage(), Stage::Untagged);
        })
        .join()
        .unwrap();
        assert_eq!(current_stage(), Stage::Fine);
    }

    #[test]
    fn label_mapping_covers_flow_stages() {
        assert_eq!(Stage::from_label("coarse s=4"), Stage::Coarse);
        assert_eq!(Stage::from_label("fine stage 1"), Stage::Fine);
        assert_eq!(Stage::from_label("refine color 2"), Stage::Refine);
        assert_eq!(Stage::from_label("anything else"), Stage::Untagged);
    }

    #[test]
    fn manual_hook_calls_count_bytes_and_stages() {
        // Drive the counting hooks directly (the test binary's global
        // allocator is the system one) and check attribution.
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let before = stats();
        {
            let _tag = stage_scope(Stage::Refine);
            note_alloc(1024);
            note_alloc(512);
            note_free(512);
        }
        let after = stats();
        set_enabled(false);
        assert_eq!(after.allocated_bytes - before.allocated_bytes, 1536);
        assert_eq!(after.allocation_calls - before.allocation_calls, 2);
        assert_eq!(after.freed_bytes - before.freed_bytes, 512);
        assert_eq!(after.live_bytes - before.live_bytes, 1024);
        let idx = Stage::Refine as usize;
        assert_eq!(after.stages[idx].bytes - before.stages[idx].bytes, 1536);
        assert_eq!(after.stages[idx].calls - before.stages[idx].calls, 2);
        assert!(after.peak_live_bytes >= before.live_bytes + 1536);
    }

    #[test]
    fn trace_attribution_accumulates_per_trace() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let (id, _scope) = ilt_telemetry::new_trace_scope();
        let before = trace_bytes(id.0);
        note_alloc(2048);
        note_alloc(64);
        let after = trace_bytes(id.0);
        set_enabled(false);
        assert_eq!(after.0 - before.0, 2112);
        assert_eq!(after.1 - before.1, 2);
        let top = trace_top(TRACE_SLOTS);
        assert!(top.iter().any(|(t, _, _)| *t == id.0));
    }
}
