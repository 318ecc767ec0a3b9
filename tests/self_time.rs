//! The self-time profile conserves each thread's time: over a traced
//! multigrid-Schwarz run on two tile workers, the profile's self times sum
//! to the durations of every thread's root spans — the spans whose parent
//! ran on another thread or is not in the trace. A fold that also
//! subtracted work handed to a worker thread would come up short by the
//! workers' job time.

use std::collections::HashMap;

use ilt_telemetry as tele;
use multigrid_schwarz_ilt::core::flows::multigrid_schwarz;
use multigrid_schwarz_ilt::core::ExperimentConfig;
use multigrid_schwarz_ilt::layout::generate_clip;
use multigrid_schwarz_ilt::litho::{LithoBank, ResistModel};
use multigrid_schwarz_ilt::opt::PixelIlt;
use multigrid_schwarz_ilt::tile::TileExecutor;

#[test]
fn self_times_sum_to_each_threads_root_spans() {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let target = generate_clip(&config.generator, 1);
    tele::flight::set_capacity(usize::MAX);
    let (trace, scope) = tele::new_trace_scope();
    multigrid_schwarz(
        &config,
        &bank,
        &target,
        &PixelIlt::new(),
        &TileExecutor::new(2),
    )
    .unwrap();
    drop(scope);
    let events = tele::flight::spans(Some(trace.0));

    let by_id: HashMap<u64, &tele::SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    let is_root = |e: &tele::SpanEvent| {
        e.parent
            .and_then(|p| by_id.get(&p))
            .is_none_or(|parent| parent.thread != e.thread)
    };
    let mut root_ns: HashMap<u64, u64> = HashMap::new();
    for e in events.iter().filter(|e| is_root(e)) {
        *root_ns.entry(e.thread).or_default() += e.dur_ns;
    }
    assert!(
        root_ns.len() >= 2,
        "the tile workers recorded no spans of their own: {root_ns:?}"
    );

    let self_ns: u64 = tele::self_time_profile(&events).values().sum();
    let roots_ns: u64 = root_ns.values().sum();
    let tolerance = 1_000 * events.len() as u64;
    assert!(
        self_ns.abs_diff(roots_ns) <= tolerance,
        "self time {self_ns} ns against {roots_ns} ns of root spans over {} spans",
        events.len()
    );
}
