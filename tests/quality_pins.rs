//! Pins the quality summaries `reproduce` writes into `report.json`'s
//! `diagnostics.quality` for `case1` at `test_tiny()` (the scale of the
//! traced smoke run), clean and under the fault drill's injected tile
//! failure. Each number may grow to at most `pinned * 1.10 + 0.5`, so a
//! regression of the flows' quality fails here, on every `cargo test`.
//!
//! The fault registry is process-global, so this file is its own test
//! binary and its tests serialize on a local lock: the clean run must not
//! meet a fault the drill armed.

use std::sync::Mutex;

use ilt_bench::spatial::{CaseQuality, QualitySummary};
use ilt_telemetry::fault::{self, points, FaultSpec};
use multigrid_schwarz_ilt::core::experiment::{run_method, Method};
use multigrid_schwarz_ilt::core::flows::FlowResult;
use multigrid_schwarz_ilt::core::{CoreError, ExperimentConfig, Session};
use multigrid_schwarz_ilt::layout::{suite_of_size, Clip};
use multigrid_schwarz_ilt::tile::{Partition, TileExecutor};

/// A pinned number may grow by this factor ...
const MAX_RATIO: f64 = 1.10;
/// ... plus this absolute slack, so a 0 → 1 step on a clean count passes.
const SLACK: f64 = 0.5;

/// `epe_p95`, `epe_max`, `epe_violations`, `stitch`, `mrc` per method, as
/// the traced tiny smoke run reports them.
const CLEAN: [(Method, [f64; 5]); 4] = [
    (Method::GlsDnc, [2.0, 2.0, 0.0, 111.0, 4.0]),
    (Method::MultiLevelDnc, [2.0, 2.0, 0.0, 109.0, 137.0]),
    (Method::FullChip, [2.0, 2.0, 0.0, 110.0, 82.0]),
    (Method::Ours, [10.0, 10.0, 3.0, 112.0, 42.0]),
];

/// Ours with fine-stage-1 tile 0 degraded to its coarse mask. The other
/// methods never run a recoverable stage, so their rows are [`CLEAN`]'s.
const OURS_UNDER_FAULT: [f64; 5] = [10.0, 10.0, 3.0, 108.0, 38.0];

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct Case1 {
    session: Session,
    clip: Clip,
    partition: Partition,
}

impl Case1 {
    fn new() -> Self {
        let config = ExperimentConfig::test_tiny();
        let clip = suite_of_size(&config.generator, 1).remove(0);
        let partition = Partition::new(clip.size(), clip.size(), config.partition).unwrap();
        Case1 {
            session: Session::new(config).unwrap(),
            clip,
            partition,
        }
    }

    fn solve(&self, method: Method) -> Result<FlowResult, CoreError> {
        let (config, bank) = (self.session.config(), self.session.bank());
        let executor = TileExecutor::sequential();
        run_method(method, config, bank, &self.clip.target, &executor)
    }

    fn summary(&self, method: Method, flow: &FlowResult) -> QualitySummary {
        let (session, partition, clip) = (&self.session, &self.partition, &self.clip);
        CaseQuality::inspect(session, partition, clip, method.label(), &flow.mask)
            .unwrap()
            .summary()
    }
}

fn assert_within(method: Method, measured: QualitySummary, pinned: [f64; 5]) {
    let measured = [
        measured.epe_p95,
        measured.epe_max as f64,
        measured.epe_violations as f64,
        measured.stitch,
        measured.mrc as f64,
    ];
    let names = ["epe_p95", "epe_max", "epe_violations", "stitch", "mrc"];
    for ((name, got), pin) in names.iter().zip(measured).zip(pinned) {
        let bound = pin * MAX_RATIO + SLACK;
        assert!(
            got <= bound,
            "{} {name}: {got} exceeds pinned {pin} * {MAX_RATIO} + {SLACK} = {bound}",
            method.label()
        );
    }
}

#[test]
fn case1_quality_stays_within_its_pins() {
    let _g = lock();
    let case = Case1::new();
    for (method, pinned) in CLEAN {
        let flow = case.solve(method).unwrap();
        assert!(flow.degraded.is_empty(), "{} degraded", method.label());
        assert_within(method, case.summary(method, &flow), pinned);
    }
}

#[test]
fn ours_under_an_injected_tile_failure_stays_within_its_pins() {
    let _g = lock();
    let case = Case1::new();
    fault::quiet_injected_panics();
    // The drill's `tile.panic:1.0:1913:2:1`: skip the coarse tile's
    // attempt, then fail both attempts of the first fine-stage tile.
    fault::configure(vec![FaultSpec {
        limit: Some(2),
        skip: 1,
        ..FaultSpec::always(points::TILE_PANIC, 1913)
    }]);
    let flow = case.solve(Method::Ours);
    fault::clear();
    let flow = flow.expect("the flow completes despite the failed tile");
    assert_eq!(flow.degraded.len(), 1, "exactly one degraded tile");
    assert_within(
        Method::Ours,
        case.summary(Method::Ours, &flow),
        OURS_UNDER_FAULT,
    );
}
