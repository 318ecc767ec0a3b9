//! `obs_overhead`: what the always-on observability stack costs one solver
//! iteration, as a gate that can only fail for a reason in the code.
//!
//! The stress model is one span per solver iteration at the tiny scale —
//! far denser than the ~3 spans a production tile solve closes, over the
//! shortest iteration any binary runs. Differencing two timed passes of
//! that loop reads noise (an unchanged binary gave 0.91–1.14), so each
//! mechanism is charged its measured unit cost times its count per
//! iteration instead:
//!
//! * **flight recorder** — ns per [`ilt_telemetry::span`] open/close with
//!   recording on minus off, × 1 span per iteration;
//! * **allocation tracking** — ns per allocate/free pair with
//!   [`ilt_prof::alloc`] counting on minus off, × the allocations of one
//!   cold `PixelIlt` solve divided by its iterations;
//!
//! over the median of `simulate_into` → `evaluate_loss_into` →
//! `gradient_into` iterations on one thread. Every unit cost and
//! count is printed; the binary panics (non-zero exit) when the recorder
//! alone exceeds 2% or the whole stack 5% — the bar for leaving it on in
//! `ilt-serve`. It reads no `ILT_*` variable and writes no artifact.
//!
//! ```text
//! cargo run --release -p ilt-bench --bin obs_overhead
//! ```

use std::hint::black_box;
use std::time::Instant;

use ilt_core::ExperimentConfig;
use ilt_grid::Grid;
use ilt_litho::{LithoBank, ResistModel};
use ilt_opt::{evaluate_loss_into, LossEval, PixelIlt, SolveContext, SolveRequest, TileSolver};
use ilt_telemetry as tele;

// Allocation tracking only costs anything when the tracking allocator IS
// the global allocator (disabled, it adds one relaxed load per call).
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

/// Operations per timed pass of the span and allocation loops.
const OPS: usize = 200_000;
/// Timed passes per arm; the fastest counts.
const REPS: usize = 5;
/// Timed solver iterations behind the median (after `WARMUP` untimed).
const ITERATIONS: usize = 200;
const WARMUP: usize = 20;
/// Recorder-only and whole-stack limits on `1 + overhead / iteration`.
const RECORDER_LIMIT: f64 = 1.02;
const STACK_LIMIT: f64 = 1.05;

/// Mean ns per call of `op` over one pass of `count` calls.
fn pass_ns(count: usize, op: &impl Fn()) -> f64 {
    let started = Instant::now();
    for _ in 0..count {
        op();
    }
    started.elapsed().as_secs_f64() * 1e9 / count as f64
}

/// Best-of-[`REPS`] ns per call of `op` with a mechanism switched off and
/// on through `set`, the two arms interleaved so drift hits both alike.
fn off_on_ns(set: impl Fn(bool), op: impl Fn()) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPS {
        for (arm, best) in best.iter_mut().enumerate() {
            set(arm == 1);
            *best = best.min(pass_ns(OPS, &op));
        }
    }
    best
}

fn main() {
    let config = ExperimentConfig::test_tiny();
    let n = config.optics.base_n;
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).expect("kernel bank");
    let target = Grid::from_fn(n, n, |x, y| {
        f64::from(u8::from(x > n / 4 && x < 3 * n / 4 && y > n / 3))
    });
    println!("obs_overhead: {n}x{n} tile");

    // The denominator: one solver iteration, median of individually timed
    // repetitions so a scheduler hiccup moves nothing.
    // In the solver's precision: f32 images on the system's f32 simulator.
    let system = bank.system(n, 1).expect("system construction failed");
    let simulator = system.simulator();
    let mut ws = system.workspace();
    let mask = Grid::from_fn(n, n, |x, y| {
        0.3 + 0.2 * ((x as f32 * 0.3).sin() * (y as f32 * 0.21).cos())
    });
    let target32 = target.map(|&t| t as f32);
    let mut loss = LossEval {
        value: 0.0,
        dldi: Grid::new(n, n, 0.0f32),
    };
    let mut timed: Vec<f64> = (0..WARMUP + ITERATIONS)
        .map(|_| {
            let started = Instant::now();
            simulator.simulate_into(&mask, &mut ws).unwrap();
            evaluate_loss_into(system.resist(), ws.intensity(), &target32, &mut loss);
            simulator.gradient_into(&mut ws, &loss.dldi).unwrap();
            started.elapsed().as_secs_f64() * 1e9
        })
        .skip(WARMUP)
        .collect();
    timed.sort_by(f64::total_cmp);
    let iteration_ns = timed[ITERATIONS / 2];
    println!(
        "iteration (simulate -> loss -> gradient): median {:.1} us of {ITERATIONS}",
        iteration_ns / 1e3
    );

    // Allocations per iteration, counted over a whole cold solve so the
    // system build and solver set-up are charged too.
    let iterations = config.schedule.fine_iterations;
    ilt_prof::alloc::set_enabled(true);
    let calls_before = ilt_prof::alloc::stats().allocation_calls;
    let ctx = SolveContext {
        bank: &bank,
        n,
        scale: 1,
    };
    PixelIlt::new()
        .solve(&ctx, &SolveRequest::new(&target, &target, iterations))
        .expect("cold solve failed");
    let solve_allocations = ilt_prof::alloc::stats().allocation_calls - calls_before;
    ilt_prof::alloc::set_enabled(false);
    let allocations_per_iteration = solve_allocations as f64 / iterations as f64;

    // Unit costs, measured where production pays them: under an open
    // flow -> stage -> tile stack, so the spans have a parent and
    // allocations carry a trace id.
    let _flow = tele::span(tele::names::FLOW);
    let _stage = tele::span(tele::names::STAGE);
    let _tile = tele::span(tele::names::TILE);
    let [span_off, span_on] = off_on_ns(tele::flight::set_recording, || {
        drop(tele::span(tele::names::SOLVE));
    });
    let [alloc_off, alloc_on] = off_on_ns(ilt_prof::alloc::set_enabled, || {
        drop(black_box(Vec::<u8>::with_capacity(black_box(256))));
    });
    ilt_prof::alloc::set_enabled(false);

    let recorder_ns = (span_on - span_off).max(0.0);
    let alloc_ns = (alloc_on - alloc_off).max(0.0) * allocations_per_iteration;
    println!(
        "span open/close: {span_off:.1} ns recorder off, {span_on:.1} ns on \
         -> +{recorder_ns:.1} ns x 1 span per iteration"
    );
    println!(
        "allocate/free: {alloc_off:.1} ns tracking off, {alloc_on:.1} ns on \
         x {allocations_per_iteration:.1} allocations per iteration \
         ({solve_allocations} in a {iterations}-iteration cold solve) -> +{alloc_ns:.1} ns"
    );

    let recorder = 1.0 + recorder_ns / iteration_ns;
    let stack = 1.0 + (recorder_ns + alloc_ns) / iteration_ns;
    println!("flight-recorder overhead: {recorder:.5}x (limit {RECORDER_LIMIT})");
    println!("recorder + allocation tracking: {stack:.5}x (limit {STACK_LIMIT})");
    assert!(
        recorder <= RECORDER_LIMIT,
        "always-on flight recorder costs {:.2}% of an iteration",
        (recorder - 1.0) * 100.0
    );
    assert!(
        stack <= STACK_LIMIT,
        "recorder + allocation tracking cost {:.2}% of an iteration",
        (stack - 1.0) * 100.0
    );
}
