//! Pins the tentpole guarantee: steady-state simulate/gradient iterations
//! through a reused [`ilt_litho::SimWorkspace`] perform **zero** heap
//! allocations.
//!
//! Uses a counting `#[global_allocator]` with a thread-local counter so
//! allocations from unrelated runtime threads cannot pollute the
//! measurement. The counter delegates through [`ilt_prof::TrackingAlloc`]
//! rather than `System` directly, so the profiling allocator's per-stage
//! counters watch the identical allocation stream and must agree with the
//! test's own count. Single test, own binary: a global allocator is
//! process-wide state.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;

use ilt_grid::Grid;
use ilt_litho::{KernelSet, LithoSimulator, OpticsConfig};
use ilt_par::InnerPool;
use ilt_prof::Stage;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

static TRACKING: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

struct CountingAlloc;

// SAFETY: defers every operation to the tracking allocator (which defers
// to `System`); the bookkeeping only touches a thread-local counter (via
// `try_with`, so TLS teardown is safe).
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

#[test]
fn steady_state_simulate_gradient_is_allocation_free() {
    let cfg = OpticsConfig::test_small();
    let kernels = KernelSet::build(&cfg, false).unwrap();
    // The kernels' own grid (fields evaluated at n) and a grid twice as
    // fine (fields evaluated on the 64-point Nyquist grid, intensity and
    // dL/dI resampled through the small real transforms).
    for n in [cfg.base_n, 2 * cfg.base_n] {
        // Serial pool: spawning scoped workers necessarily allocates, so the
        // zero-allocation guarantee is about the compute path itself.
        let sim = LithoSimulator::new(n, kernels.clone())
            .unwrap()
            .with_inner_pool(InnerPool::serial());
        let mask = Grid::from_fn(n, n, |x, y| {
            0.3 + 0.2 * ((x as f64 * 0.3).sin() * (y as f64 * 0.21).cos())
        });
        let dldi = Grid::from_fn(n, n, |x, y| ((x as f64 - y as f64) * 0.01).tanh());
        let mut ws = sim.workspace();

        // Warm-up: first iteration may fault in lazily initialised state
        // (shared FFT plan cache, etc.).
        sim.simulate_into(&mask, &mut ws).unwrap();
        sim.gradient_into(&mut ws, &dldi).unwrap();

        // Watch the steady-state window with the tracking allocator too:
        // only this thread wears the stage tag, so its per-stage counter
        // sees exactly the events the thread-local counter sees — both
        // must be 0.
        ilt_prof::alloc::set_enabled(true);
        let (delta, tracked_delta) = {
            let _tag = ilt_prof::stage_scope(Stage::Fine);
            let before = allocations_on_this_thread();
            let tracked_before = ilt_prof::alloc::stats().stages[Stage::Fine as usize].calls;
            for _ in 0..3 {
                sim.simulate_into(&mask, &mut ws).unwrap();
                sim.gradient_into(&mut ws, &dldi).unwrap();
            }
            (
                allocations_on_this_thread() - before,
                ilt_prof::alloc::stats().stages[Stage::Fine as usize].calls - tracked_before,
            )
        };
        ilt_prof::alloc::set_enabled(false);
        assert_eq!(
            delta, 0,
            "n={n}: steady-state simulate/gradient iterations must not allocate"
        );
        assert_eq!(
            tracked_delta, 0,
            "n={n}: tracking allocator per-stage count must agree: zero allocations in the window"
        );

        // Sanity: the measurement itself works — creating a workspace
        // does allocate.
        let before = allocations_on_this_thread();
        std::hint::black_box(sim.workspace());
        assert!(allocations_on_this_thread() > before);
    }
}
