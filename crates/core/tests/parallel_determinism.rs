//! The executor changes scheduling only: every flow must produce a
//! bit-identical mask under any worker count, and executor failures must
//! stay contained — a panicking job propagates to the caller without
//! deadlocking the pool or poisoning later `run` calls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use ilt_core::flows::{divide_and_conquer, multigrid_schwarz, overlap_select, stitch_and_heal};
use ilt_core::incremental::{run_and_store, run_incremental_in};
use ilt_core::ExperimentConfig;
use ilt_grid::Rect;
use ilt_layout::generate_clip;
use ilt_litho::{LithoBank, ResistModel};
use ilt_opt::PixelIlt;
use ilt_store::MaskStore;
use ilt_tile::TileExecutor;

/// Silences the default panic-hook backtrace for the deliberate test
/// panics below (marker `boom-tile`) while leaving every other panic loud.
fn quiet_marker_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let deliberate = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("boom-tile"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains("boom-tile"));
            if !deliberate {
                default_hook(info);
            }
        }));
    });
}

fn setup() -> (ExperimentConfig, LithoBank, ilt_grid::BitGrid) {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let target = generate_clip(&config.generator, 7);
    (config, bank, target)
}

#[test]
fn multigrid_parallel_matches_sequential() {
    let (config, bank, target) = setup();
    let solver = PixelIlt::new();
    let seq = multigrid_schwarz(
        &config,
        &bank,
        &target,
        &solver,
        &TileExecutor::sequential(),
    )
    .unwrap();
    let par = multigrid_schwarz(&config, &bank, &target, &solver, &TileExecutor::new(4)).unwrap();
    assert_eq!(seq.mask, par.mask);
    let seq_labels: Vec<_> = seq.stages.iter().map(|s| s.label.clone()).collect();
    let par_labels: Vec<_> = par.stages.iter().map(|s| s.label.clone()).collect();
    assert_eq!(seq_labels, par_labels);
}

#[test]
fn overlap_select_parallel_matches_sequential() {
    let (config, bank, target) = setup();
    let solver = PixelIlt::new();
    let seq = overlap_select(
        &config,
        &bank,
        &target,
        &solver,
        &TileExecutor::sequential(),
    )
    .unwrap();
    let par = overlap_select(&config, &bank, &target, &solver, &TileExecutor::new(4)).unwrap();
    assert_eq!(seq.mask, par.mask);
}

#[test]
fn stitch_heal_parallel_matches_sequential() {
    let (config, bank, target) = setup();
    let solver = PixelIlt::new();
    let dnc = divide_and_conquer(
        &config,
        &bank,
        &target,
        &solver,
        &TileExecutor::sequential(),
    )
    .unwrap();
    let seq = stitch_and_heal(
        &config,
        &bank,
        &target,
        &dnc.mask,
        &solver,
        &TileExecutor::sequential(),
    )
    .unwrap();
    let par = stitch_and_heal(
        &config,
        &bank,
        &target,
        &dnc.mask,
        &solver,
        &TileExecutor::new(4),
    )
    .unwrap();
    assert_eq!(seq.result.mask, par.result.mask);
    assert_eq!(seq.new_lines, par.new_lines);
}

#[test]
fn multigrid_identical_across_one_two_and_eight_workers() {
    let (config, bank, target) = setup();
    let solver = PixelIlt::new();
    let reference =
        multigrid_schwarz(&config, &bank, &target, &solver, &TileExecutor::new(1)).unwrap();
    for workers in [2usize, 8] {
        let run = multigrid_schwarz(
            &config,
            &bank,
            &target,
            &solver,
            &TileExecutor::new(workers),
        )
        .unwrap();
        assert_eq!(
            reference.mask, run.mask,
            "mask diverged at {workers} workers"
        );
    }
}

#[test]
fn incremental_identical_across_one_two_and_eight_workers() {
    let (config, bank, base) = setup();
    let solver = PixelIlt::new();
    let tile_bytes = (config.partition.tile.pow(2) * std::mem::size_of::<f64>()) as u64;
    // A store that keeps every tile, and one that keeps six of nine, so
    // three clean tiles miss and join the re-solve set.
    for kept in [9u64, 6] {
        let store = MaskStore::new(kept * tile_bytes, None);
        run_and_store(
            &config,
            &bank,
            &store,
            &base,
            &solver,
            &TileExecutor::sequential(),
        )
        .unwrap();
        // A corner edit and one across the middle of the clip.
        for rect in [Rect::new(10, 10, 18, 18), Rect::new(60, 28, 68, 36)] {
            let mut edited = base.clone();
            edited.fill_rect(rect, 1 - base.get(rect.x0 as usize, rect.y0 as usize));
            let run = |workers: usize| {
                let out = run_incremental_in(
                    &config,
                    &bank,
                    &store,
                    &base,
                    &edited,
                    &solver,
                    &TileExecutor::new(workers),
                )
                .unwrap();
                let bits: Vec<u64> = out
                    .flow
                    .mask
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let counts = (
                    out.tiles_reused,
                    out.tiles_resolved,
                    out.store_hits,
                    out.store_misses,
                );
                (bits, counts)
            };
            let (reference, counts) = run(1);
            assert_eq!(counts.2 + counts.3, 9, "every tile is looked up once");
            assert_eq!(counts.3 as u64, 9 - kept, "{kept} tiles kept");
            for workers in [2usize, 8] {
                let (bits, at) = run(workers);
                assert!(
                    bits == reference,
                    "{rect:?}, {kept} kept: mask diverged at {workers} workers"
                );
                assert_eq!(
                    at, counts,
                    "{rect:?}, {kept} kept: counts at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn panicking_job_propagates_and_does_not_deadlock() {
    quiet_marker_panics();
    let executor = TileExecutor::new(4);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        executor.run(16, |i| {
            if i == 7 {
                panic!("boom-tile-7");
            }
            i
        })
    }));
    // The panic must reach the caller (not hang a worker), carrying the
    // original payload.
    let payload = outcome.expect_err("the job panic must propagate");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or_else(|| panic!("unexpected panic payload type"));
    assert!(message.contains("boom-tile-7"), "payload was {message:?}");
}

#[test]
fn pool_is_not_poisoned_by_an_earlier_panic() {
    quiet_marker_panics();
    let executor = TileExecutor::new(4);
    for round in 0..3 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            executor.run(12, |i| {
                if i == 2 * round {
                    panic!("boom-tile-{i}");
                }
                i
            })
        }));
        assert!(result.is_err(), "round {round} should have panicked");
        // The very same executor must still run healthy workloads — and a
        // full flow — to completion with correct results.
        assert_eq!(
            executor.run(12, |i| i * i),
            (0..12).map(|i| i * i).collect::<Vec<_>>()
        );
    }
    let (config, bank, target) = setup();
    let after = multigrid_schwarz(&config, &bank, &target, &PixelIlt::new(), &executor).unwrap();
    let reference = multigrid_schwarz(
        &config,
        &bank,
        &target,
        &PixelIlt::new(),
        &TileExecutor::sequential(),
    )
    .unwrap();
    assert_eq!(after.mask, reference.mask);
}
