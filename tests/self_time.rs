//! The self-time profile conserves each thread's time: over a traced
//! multigrid-Schwarz run on two tile workers, the profile's self times sum
//! to the durations of every thread's root spans — the spans whose parent
//! ran on another thread or is not in the trace. A fold that also
//! subtracted work handed to a worker thread would come up short by the
//! workers' job time. And a span's self time does not depend on its
//! children still being in the drop-oldest span store.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ilt_telemetry as tele;
use multigrid_schwarz_ilt::core::flows::multigrid_schwarz;
use multigrid_schwarz_ilt::core::ExperimentConfig;
use multigrid_schwarz_ilt::layout::generate_clip;
use multigrid_schwarz_ilt::litho::{LithoBank, ResistModel};
use multigrid_schwarz_ilt::opt::PixelIlt;
use multigrid_schwarz_ilt::tile::TileExecutor;

/// Both tests set the span store's capacity, which is process-global.
static STORE: Mutex<()> = Mutex::new(());

#[test]
fn self_times_sum_to_each_threads_root_spans() {
    let _store = STORE.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn a_parents_self_time_leaves_out_children_the_store_evicted() {
    let _store = STORE.lock().unwrap_or_else(|e| e.into_inner());
    // Two spans per shard: the parent closes last, and only the last
    // child is still stored beside it.
    tele::flight::set_capacity(2);
    let (trace, scope) = tele::new_trace_scope();
    let parent = tele::span("selftime.parent");
    let mut children_ns = 0;
    for _ in 0..8 {
        let child = tele::span("selftime.child");
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_micros(200) {}
        children_ns += (child.end() * 1e9).round() as u64;
    }
    parent.end();
    drop(scope);
    let events = tele::flight::spans(Some(trace.0));
    tele::flight::set_capacity(usize::MAX);

    let kept = events.iter().filter(|e| e.name == "selftime.child").count();
    assert!(kept < 8, "no child was evicted ({kept} kept)");
    let parent = events
        .iter()
        .find(|e| e.name == "selftime.parent")
        .expect("the parent closed last and is stored");
    let self_ns = tele::self_time_profile(&events)["selftime.parent"];
    // Each child's duration was rounded to whole nanoseconds once.
    assert!(
        self_ns.abs_diff(parent.dur_ns - children_ns) <= 8,
        "self time {self_ns} ns, but {} ns less {children_ns} ns of children",
        parent.dur_ns
    );
}
