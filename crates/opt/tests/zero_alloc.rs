//! Pins both tile solvers' steady-state allocation guarantee and
//! cross-checks the `ilt-prof` tracking allocator against an independent
//! count.
//!
//! The counting `#[global_allocator]` here delegates through
//! [`ilt_prof::TrackingAlloc`] (instead of `System` directly), so both
//! counters observe the *exact same* allocation stream: the test's own
//! thread-local event count must agree with the tracking allocator's
//! per-stage counters for the stage tag installed around the solve.
//!
//! Steady state is measured black-box: two solves differing only in
//! iteration count must allocate the *same* number of times, because the
//! per-iteration path (mask relaxation, simulate, loss, gradient, step —
//! and for the multi-level pixel solver the per-iteration down/upsampling)
//! is fully preallocated. Level-set re-initialisation is excluded by a
//! large `reinit_every` (it rebuilds the signed distance field and is a
//! documented periodic allocation).
//!
//! Single file, own binary: a global allocator is process-wide state.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;

use ilt_grid::{Grid, RealGrid, Rect};
use ilt_litho::{LithoBank, OpticsConfig, ResistModel};
use ilt_opt::{LevelSetIlt, LevelSetIltConfig, PixelIlt, SolveContext, SolveRequest, TileSolver};
use ilt_prof::Stage;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

static TRACKING: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

struct CountingAlloc;

// SAFETY: defers every operation to the tracking allocator (which defers
// to `System`); the extra bookkeeping only touches a thread-local counter
// via `try_with`, so TLS teardown is safe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { TRACKING.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { TRACKING.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { TRACKING.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { TRACKING.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn stage_calls(stats: &ilt_prof::AllocStats, stage: Stage) -> u64 {
    stats.stages[stage as usize].calls
}

fn stage_bytes(stats: &ilt_prof::AllocStats, stage: Stage) -> u64 {
    stats.stages[stage as usize].bytes
}

/// Allocation events of one solve inside a `Stage::Fine` tag, as counted
/// by the test's thread-local counter and by the tracking allocator's
/// per-stage counter (only this thread wears the tag, so concurrent
/// harness threads cannot pollute it), plus the bytes the latter saw.
fn counted_solve(
    solver: &dyn TileSolver,
    ctx: &SolveContext<'_>,
    request: &SolveRequest<'_>,
) -> (u64, u64, u64) {
    let _tag = ilt_prof::stage_scope(Stage::Fine);
    let counted_before = allocations_on_this_thread();
    let before = ilt_prof::alloc::stats();
    solver.solve(ctx, request).unwrap();
    let after = ilt_prof::alloc::stats();
    (
        allocations_on_this_thread() - counted_before,
        stage_calls(&after, Stage::Fine) - stage_calls(&before, Stage::Fine),
        stage_bytes(&after, Stage::Fine) - stage_bytes(&before, Stage::Fine),
    )
}

/// Two solves differing only in iteration count must allocate equally
/// often, and both counters must agree on how often.
fn assert_steady_state(
    solver: &dyn TileSolver,
    ctx: &SolveContext<'_>,
    target: &RealGrid,
    warm: bool,
    (short_iters, long_iters): (usize, usize),
) {
    let request = |iterations| SolveRequest {
        warm,
        ..SolveRequest::new(target, target, iterations)
    };
    // Warm-up: faults in lazily initialised state (shared FFT plan cache,
    // telemetry thread-locals, live-stack registration).
    solver.solve(ctx, &request(short_iters)).unwrap();

    ilt_prof::alloc::set_enabled(true);
    let short = counted_solve(solver, ctx, &request(short_iters));
    let long = counted_solve(solver, ctx, &request(long_iters));
    ilt_prof::alloc::set_enabled(false);

    let name = solver.name();
    assert!(
        long.2 > 0,
        "{name}: a solve must attribute some bytes to its stage"
    );
    // Agreement: both counters saw the identical allocation stream.
    assert_eq!(
        (short.0, long.0),
        (short.1, long.1),
        "{name}: tracking allocator per-stage count must match the test's own count"
    );
    // Steady state: the extra iterations allocate nothing — the whole
    // per-solve allocation budget is in setup/teardown.
    assert_eq!(
        long.0, short.0,
        "{name}: extra iterations must not allocate (per-iteration path is preallocated)"
    );
}

#[test]
fn solver_steady_state_is_allocation_free_and_counters_agree() {
    // The flight recorder's ring growth is amortised and would make the
    // two runs' allocation counts differ by harness noise; the guarantee
    // under test is about the solvers, so switch recording off.
    ilt_telemetry::flight::set_recording(false);

    let bank = LithoBank::new(OpticsConfig::test_small(), ResistModel::default()).unwrap();
    let ctx = SolveContext {
        bank: &bank,
        n: 64,
        scale: 1,
    };
    let mut target = Grid::new(64, 64, 0.0);
    target.fill_rect(Rect::new(16, 20, 34, 30), 1.0);
    target.fill_rect(Rect::new(40, 34, 52, 46), 1.0);

    // Re-initialisation excluded: it is the documented periodic allocation.
    let level_set = LevelSetIlt::with_config(LevelSetIltConfig {
        reinit_every: 1000,
        ..LevelSetIltConfig::gls_default()
    });
    assert_steady_state(&level_set, &ctx, &target, false, (4, 12));

    // Multi-level pixel ILT, cold: a fifth of either budget runs the
    // coarse phase (1 vs 4 iterations on the downsampled grid), the rest
    // the full-resolution phase — both loops must be preallocated.
    let pixel = PixelIlt::new();
    assert_steady_state(&pixel, &ctx, &target, false, (5, 20));
    // Warm start (how refine and incremental re-solves call it):
    // full-resolution iterations only.
    assert_steady_state(&pixel, &ctx, &target, true, (3, 9));

    ilt_telemetry::flight::set_recording(true);
}
