//! Graceful-degradation behaviour of the multigrid-Schwarz flow under
//! injected tile faults.
//!
//! These live in their own integration binary (one process) because the
//! fault registry is process-global: arming `tile.panic` here must not be
//! observable by the crate's other test binaries. Within this binary the
//! tests serialize on a local lock.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ilt_core::flows::multigrid_schwarz;
use ilt_core::ExperimentConfig;
use ilt_layout::generate_clip;
use ilt_litho::{LithoBank, ResistModel};
use ilt_opt::PixelIlt;
use ilt_telemetry::fault::{self, points, FaultSpec};
use ilt_tile::TileExecutor;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_tiny() -> Result<ilt_core::flows::FlowResult, ilt_core::CoreError> {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let target = generate_clip(&config.generator, 1);
    multigrid_schwarz(
        &config,
        &bank,
        &target,
        &PixelIlt::new(),
        &TileExecutor::sequential(),
    )
}

#[test]
fn one_fine_tile_failure_degrades_to_the_coarse_mask() {
    let _g = lock();
    fault::quiet_injected_panics();
    // Skip the single coarse tile's attempt, then fire on both retry
    // attempts of the first fine-stage tile (default policy = 2 attempts).
    fault::configure(vec![FaultSpec {
        limit: Some(2),
        skip: 1,
        ..FaultSpec::always(points::TILE_PANIC, 1913)
    }]);
    let result = run_tiny();
    fault::clear();
    let result = result.expect("flow must complete despite the failed tile");
    assert_eq!(result.degraded.len(), 1, "exactly one degraded tile");
    let d = &result.degraded[0];
    assert_eq!(d.stage, "fine stage 1");
    assert_eq!(d.tile, 0);
    assert!(
        d.error.contains("injected fault"),
        "error should carry the panic message, got {:?}",
        d.error
    );
    // The assembled mask is still a full, valid layout.
    let config = ExperimentConfig::test_tiny();
    assert_eq!(result.mask.width(), config.clip);
    assert_eq!(result.mask.height(), config.clip);
    assert!(result.mask.min() >= -1e-9 && result.mask.max() <= 1.0 + 1e-9);
    // Every stage still reports a slot per tile (the degraded one at 0 s).
    let fine = result
        .stages
        .iter()
        .find(|s| s.label == "fine stage 1")
        .unwrap();
    assert_eq!(fine.tile_seconds.len(), 9);
    assert_eq!(fine.tile_seconds[0], 0.0);
}

#[test]
fn fault_pattern_is_deterministic_for_a_fixed_seed() {
    let _g = lock();
    fault::quiet_injected_panics();
    let run_with_seed = |seed: u64| {
        fault::configure(vec![FaultSpec {
            limit: Some(2),
            skip: 1,
            ..FaultSpec::always(points::TILE_PANIC, seed)
        }]);
        let result = run_tiny().expect("flow completes");
        fault::clear();
        (
            result
                .degraded
                .iter()
                .map(|d| (d.stage.clone(), d.tile))
                .collect::<Vec<_>>(),
            result.mask,
        )
    };
    let (degraded_a, mask_a) = run_with_seed(7);
    let (degraded_b, mask_b) = run_with_seed(7);
    assert_eq!(degraded_a, degraded_b);
    assert_eq!(mask_a.as_slice(), mask_b.as_slice(), "bit-identical masks");
}

#[test]
fn slow_tiles_do_not_change_the_result() {
    let _g = lock();
    let clean = run_tiny().expect("clean run");
    fault::configure(vec![FaultSpec {
        rate: 0.25,
        ..FaultSpec::always(points::TILE_SLOW, 11)
    }]);
    let slowed = run_tiny().expect("slowed run");
    fault::clear();
    assert!(slowed.degraded.is_empty());
    assert_eq!(
        clean.mask.as_slice(),
        slowed.mask.as_slice(),
        "tile.slow must be numerically inert"
    );
}

#[test]
fn expired_deadline_aborts_the_flow_with_a_typed_error() {
    let _g = lock();
    let _scope = ilt_telemetry::deadline::scope(Some(Instant::now() - Duration::from_millis(1)));
    let err = run_tiny().expect_err("expired deadline must abort");
    assert!(err.is_deadline_exceeded(), "got {err:?}");
    assert!(err.to_string().contains("deadline exceeded"));
}

#[test]
fn all_tiles_failing_still_yields_a_complete_mask() {
    let _g = lock();
    fault::quiet_injected_panics();
    fault::configure(vec![FaultSpec::always(points::TILE_PANIC, 3)]);
    let result = run_tiny();
    fault::clear();
    let result = result.expect("total failure still degrades, never aborts");
    let config = ExperimentConfig::test_tiny();
    // 1 coarse + 2 x 9 fine + 9 refine tiles, all degraded.
    assert_eq!(result.degraded.len(), 1 + 9 + 9 + 9);
    assert_eq!(result.mask.width(), config.clip);
    assert!(result.mask.min() >= -1e-9 && result.mask.max() <= 1.0 + 1e-9);
}
