//! End-to-end telemetry coverage: running flows under tracing must produce
//! a span tree whose derived per-stage summaries agree with the flows' own
//! `StageTiming` reports, with nothing lost across worker threads.
//!
//! Tracing is process-global state, so every test takes the `TRACING` lock
//! and drains leftovers before enabling; the traced ones lift the span
//! store's bound for the run, as a batch harness that drains at its end
//! does. This file is its own integration
//! binary, so enabling tracing here cannot leak into other test binaries.

use std::collections::HashMap;
use std::sync::Mutex;

use ilt_core::flows::{divide_and_conquer, multigrid_schwarz, FlowResult};
use ilt_core::ExperimentConfig;
use ilt_layout::generate_clip;
use ilt_litho::{LithoBank, ResistModel};
use ilt_opt::PixelIlt;
use ilt_telemetry as tele;
use ilt_tile::TileExecutor;

static TRACING: Mutex<()> = Mutex::new(());

/// Runs `run` with tracing enabled and returns its result plus the drained
/// telemetry snapshot, serialised against the other tests in this binary.
fn with_tracing<R>(run: impl FnOnce() -> R) -> (R, tele::Telemetry) {
    let guard = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let _ = tele::drain();
    tele::flight::set_capacity(usize::MAX);
    tele::set_enabled(true);
    let out = run();
    tele::set_enabled(false);
    let t = tele::drain();
    tele::flight::set_capacity(tele::flight::DEFAULT_CAPACITY);
    drop(guard);
    (out, t)
}

fn close(a: f64, b: f64, what: &str) {
    let tol = 0.01 * b.abs().max(1e-9);
    assert!((a - b).abs() <= tol, "{what}: span {a} vs report {b}");
}

#[test]
fn multigrid_spans_agree_with_stage_timing() {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let target = generate_clip(&config.generator, 1);
    let (result, t): (FlowResult, _) = with_tracing(|| {
        multigrid_schwarz(
            &config,
            &bank,
            &target,
            &PixelIlt::new(),
            &TileExecutor::sequential(),
        )
        .unwrap()
    });

    let flows = t.flow_summaries();
    let flow = flows
        .iter()
        .find(|f| f.name == result.name)
        .expect("flow span present");
    close(flow.seconds, result.wall_seconds, "flow wall time");

    assert_eq!(flow.stages.len(), result.stages.len());
    for (summary, timing) in flow.stages.iter().zip(&result.stages) {
        assert_eq!(summary.label, timing.label);
        assert_eq!(summary.tile_count, timing.tile_seconds.len());
        close(
            summary.tile_seconds,
            timing.total_tile_seconds(),
            &format!("tile seconds of {}", timing.label),
        );
        close(
            summary.assembly_seconds,
            timing.assembly_seconds,
            &format!("assembly seconds of {}", timing.label),
        );
    }

    // Every tile solve produced a solver span and fed the hot-path metrics.
    let tiles: usize = result.stages.iter().map(|s| s.tile_seconds.len()).sum();
    assert_eq!(t.span_count(tele::names::TILE), tiles);
    assert_eq!(t.span_count(tele::names::SOLVE), tiles);
    assert_eq!(t.counters["solver.solves"], tiles as u64);
    assert!(t.counters["fft.forward"] > 0);
    assert!(t.counters["tile.pixels_assembled"] > 0);
    assert!(t.histograms.contains_key("solver.iterations"));
}

#[test]
fn parallel_execution_attributes_all_tiles_to_the_stage() {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let target = generate_clip(&config.generator, 2);
    let (result, t) = with_tracing(|| {
        divide_and_conquer(
            &config,
            &bank,
            &target,
            &PixelIlt::new(),
            &TileExecutor::new(4),
        )
        .unwrap()
    });

    let tiles = result.stages[0].tile_seconds.len();
    assert_eq!(tiles, 9);
    // No tile, job, or solve span is lost when workers record on their own
    // threads.
    assert_eq!(t.span_count(tele::names::TILE), tiles);
    assert_eq!(t.span_count(tele::names::JOB), tiles);
    assert_eq!(t.span_count(tele::names::SOLVE), tiles);
    // Cross-thread parent propagation: every tile rolls up to the stage.
    let flows = t.flow_summaries();
    assert_eq!(flows.len(), 1);
    assert_eq!(flows[0].stages.len(), 1);
    assert_eq!(flows[0].stages[0].tile_count, tiles);
    // Workers really did record from more than one thread.
    let threads: std::collections::HashSet<u64> = t
        .events
        .iter()
        .filter(|e| e.name == tele::names::JOB)
        .map(|e| e.thread)
        .collect();
    assert!(threads.len() > 1, "jobs all on one thread: {threads:?}");
}

#[test]
fn traced_flows_give_one_convergence_cell_per_solve_span() {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let target = generate_clip(&config.generator, 4);
    let (solver, executor) = (PixelIlt::new(), TileExecutor::new(3));
    let (results, t) = with_tracing(|| {
        [
            multigrid_schwarz(&config, &bank, &target, &solver, &executor).unwrap(),
            divide_and_conquer(&config, &bank, &target, &solver, &executor).unwrap(),
        ]
    });

    // The nearest ancestor span named `name`, walked up the parent links.
    let by_id: HashMap<u64, &tele::SpanEvent> = t.events.iter().map(|e| (e.id, e)).collect();
    let ancestor = |e: &tele::SpanEvent, name: &str| {
        let mut up = by_id.get(&e.parent?).copied();
        while let Some(a) = up.filter(|a| a.name != name) {
            up = by_id.get(&a.parent?).copied();
        }
        up
    };
    let field = |e: Option<&tele::SpanEvent>, key| e?.field(key).cloned();

    // One cell per solve span under a flow, named by its ancestors.
    let cells = t.solve_cells();
    let solves: Vec<_> = t
        .events
        .iter()
        .filter(|e| e.name == tele::names::SOLVE && ancestor(e, tele::names::FLOW).is_some())
        .collect();
    assert_eq!(cells.len(), solves.len());
    for (cell, solve) in cells.iter().zip(&solves) {
        assert_eq!(cell.solve.id, solve.id);
        let flow = field(ancestor(solve, tele::names::FLOW), "name");
        let stage = field(ancestor(solve, tele::names::STAGE), "label");
        let tile = field(ancestor(solve, tele::names::TILE), "tile");
        assert_eq!(flow.as_ref().and_then(|v| v.as_str()), Some(cell.flow));
        assert_eq!(stage.as_ref().and_then(|v| v.as_str()), Some(cell.stage));
        assert_eq!(tile.and_then(|v| v.as_u64()), Some(cell.tile));
        assert!(solve.field("iterations").and_then(|v| v.as_u64()) > Some(0));
        assert!(solve.field("final_loss").is_some());
    }
    // Every tile solve of every stage is one cell, as the flows' own
    // StageTiming reports count them.
    let tiles: usize = results
        .iter()
        .flat_map(|r| &r.stages)
        .map(|s| s.tile_seconds.len())
        .sum();
    assert_eq!(cells.len(), tiles);
    for result in &results {
        for timing in &result.stages {
            let n = cells
                .iter()
                .filter(|c| c.flow == result.name && c.stage == timing.label)
                .count();
            assert_eq!(
                n,
                timing.tile_seconds.len(),
                "{} {}",
                result.name,
                timing.label
            );
        }
    }
    // The anomaly list is every anomaly span, each under its solve.
    let listed: usize = cells.iter().map(|c| c.anomalies.len()).sum();
    assert_eq!(listed, t.span_count(tele::names::ANOMALY));
}

#[test]
fn disabled_tracing_collects_nothing_but_still_times() {
    let guard = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let _ = tele::drain();
    tele::set_enabled(false);

    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let target = generate_clip(&config.generator, 3);
    let result = divide_and_conquer(
        &config,
        &bank,
        &target,
        &PixelIlt::new(),
        &TileExecutor::sequential(),
    )
    .unwrap();

    let t = tele::drain();
    drop(guard);
    // Spans are always on (one store, whatever the flag says); the flag
    // gates the metrics and the anomaly detection.
    assert_eq!(t.span_count(tele::names::TILE), 9);
    assert!(
        t.counters.is_empty() && t.gauges.is_empty() && t.histograms.is_empty(),
        "disabled run recorded metrics: {:?} {:?}",
        t.counters,
        t.gauges
    );
    assert_eq!(t.span_count(tele::names::ANOMALY), 0, "untraced anomalies");
    // The StageTiming API still reports real measurements.
    assert_eq!(result.stages[0].tile_seconds.len(), 9);
    assert!(result.stages[0].tile_seconds.iter().all(|&s| s > 0.0));
    assert!(result.wall_seconds > 0.0);
}
