//! Integration tests for `ilt-telemetry`.
//!
//! Telemetry state is process-global, so every test that enables
//! collection or reads the span store serialises on [`LOCK`] and drains
//! fully before releasing it.

use std::sync::Mutex;

use ilt_telemetry as tele;

static LOCK: Mutex<()> = Mutex::new(());

fn with_tracing<R>(f: impl FnOnce() -> R) -> (R, tele::Telemetry) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = tele::drain(); // discard leftovers from other tests
                           // Keep every span until the drain, as a batch harness does.
    tele::flight::set_capacity(usize::MAX);
    tele::set_enabled(true);
    let r = f();
    tele::set_enabled(false);
    let t = tele::drain();
    tele::flight::set_capacity(tele::flight::DEFAULT_CAPACITY);
    (r, t)
}

#[test]
fn disabled_metrics_record_nothing_but_spans_still_time_and_record() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = tele::drain();
    tele::set_enabled(false);
    let mut s = tele::span("unit.disabled");
    s.add_field("k", 1u64);
    // Spans are always on: there is one span store and the flag has no say
    // in it. Counters, gauges and histograms are what it gates.
    assert!(s.span_ref().is_some());
    assert!(s.trace_id().is_some(), "root spans mint a trace id");
    let secs = s.end();
    assert!(secs >= 0.0);
    tele::counter_add("unit.disabled_counter", 5);
    tele::record_value("unit.disabled_hist", 5);
    tele::gauge_set("unit.disabled_gauge", 1.0);
    let t = tele::drain();
    assert_eq!(t.span_count("unit.disabled"), 1);
    assert!(!t.counters.contains_key("unit.disabled_counter"));
    assert!(!t.histograms.contains_key("unit.disabled_hist"));
    assert!(!t.gauges.contains_key("unit.disabled_gauge"));
}

#[test]
fn nesting_links_parents_and_end_matches_event_duration() {
    let ((), t) = with_tracing(|| {
        let outer = tele::span("unit.outer");
        let outer_id = outer.span_ref().expect("recording");
        {
            let inner = tele::span("unit.inner");
            assert_eq!(tele::current_span(), inner.span_ref());
            let secs = inner.end();
            assert!(secs >= 0.0);
        }
        assert_eq!(tele::current_span(), Some(outer_id));
    });
    let outer = t.events.iter().find(|e| e.name == "unit.outer").unwrap();
    let inner = t.events.iter().find(|e| e.name == "unit.inner").unwrap();
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!(outer.parent, None);
    assert!(inner.dur_ns <= outer.dur_ns);
}

#[test]
fn parent_scope_adopts_across_threads() {
    let ((), t) = with_tracing(|| {
        let flow = tele::span(tele::names::FLOW);
        let parent = flow.span_ref();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(move || {
                    let _adopt = tele::parent_scope(parent);
                    let job = tele::span("unit.worker_job");
                    assert_eq!(tele::current_span(), job.span_ref());
                    drop(job);
                    assert_eq!(
                        tele::current_span(),
                        parent,
                        "the adopted parent is current"
                    );
                });
            }
        });
    });
    let flow_id = t
        .events
        .iter()
        .find(|e| e.name == tele::names::FLOW)
        .unwrap()
        .id;
    let jobs: Vec<_> = t
        .events
        .iter()
        .filter(|e| e.name == "unit.worker_job")
        .collect();
    assert_eq!(jobs.len(), 2);
    for j in &jobs {
        assert_eq!(j.parent, Some(flow_id));
    }
    // Worker threads got distinct thread ordinals.
    assert_ne!(jobs[0].thread, jobs[1].thread);
}

#[test]
fn counters_and_histograms_merge_across_threads() {
    let ((), t) = with_tracing(|| {
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    tele::counter_add("unit.count", 2);
                    for v in [1u64, 10, 100] {
                        tele::record_value("unit.hist", v);
                    }
                    // Thread-local destructors may run after the scope's
                    // join is observed, so flush before the thread ends.
                    tele::flush_thread();
                });
            }
        });
    });
    assert_eq!(t.counters["unit.count"], 6);
    let h = &t.histograms["unit.hist"];
    assert_eq!(h.count(), 9);
    assert_eq!(h.sum(), 333);
    assert_eq!(h.min(), 1);
    assert_eq!(h.max(), 100);
}

#[test]
fn histogram_quantiles_are_bucket_bounded() {
    let mut h = tele::Histogram::new();
    for v in 1..=100u64 {
        h.record(v);
    }
    let p50 = h.quantile(0.5);
    let p95 = h.quantile(0.95);
    // True p50 = 50, bucket [32,63]; true p95 = 95, bucket [64,100 (clamped)].
    assert_eq!(p50, 63);
    assert_eq!(p95, 100);
    assert_eq!(h.quantile(1.0), 100);
    assert_eq!(h.quantile(0.0), 1); // clamped to first sample's bucket
    assert_eq!(tele::Histogram::new().quantile(0.5), 0);
}

#[test]
fn exporters_cover_all_spans_and_parse_as_json_shapes() {
    let ((), t) = with_tracing(|| {
        let mut flow = tele::span(tele::names::FLOW);
        flow.add_field("name", "demo \"flow\"");
        {
            let mut stage = tele::span(tele::names::STAGE);
            stage.add_field("label", "stage 1");
            for i in 0..3usize {
                let mut tile = tele::span(tele::names::TILE);
                tile.add_field("tile", i);
            }
            let _asm = tele::span(tele::names::ASSEMBLY);
        }
        tele::counter_add("unit.export_counter", 1);
        tele::record_value("unit.export_hist", 42);
    });

    // The nested JSON is the record a consumer reads: one node per span,
    // quotes escaped, and every field the events carry.
    let tree_json = tele::span_forest_json(&t.events);
    assert!(tree_json.starts_with('['));
    assert_eq!(tree_json.matches("\"children\":").count(), t.events.len());
    assert!(tree_json.contains("\"name\":\"demo \\\"flow\\\"\""));
    for e in &t.events {
        let node = format!(
            "\"id\":{},\"trace\":{},\"thread\":{},\"start_us\":{},",
            e.id,
            e.trace,
            e.thread,
            e.start_ns / 1000
        );
        assert!(tree_json.contains(&node), "{node} missing from {tree_json}");
    }
    assert_eq!(t.counters["unit.export_counter"], 1);
    assert_eq!(t.histograms["unit.export_hist"].count(), 1);

    let chrome = t.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));
    assert_eq!(chrome.matches("\"ph\":\"X\"").count(), t.events.len());
    assert!(chrome.contains("\"name\":\"stage(stage 1)\""));
    assert!(chrome.contains("\"name\":\"tile(2)\""));

    let flows = t.flow_summaries();
    assert_eq!(flows.len(), 1);
    assert_eq!(flows[0].name, "demo \"flow\"");
    assert_eq!(flows[0].stages.len(), 1);
    let s = &flows[0].stages[0];
    assert_eq!(s.label, "stage 1");
    assert_eq!(s.tile_count, 3);
    assert!(s.tile_seconds <= s.seconds);
    assert!(s.assembly_seconds <= s.seconds);
    assert!(s.seconds <= flows[0].seconds);
}

#[test]
fn tiles_found_below_job_spans() {
    let ((), t) = with_tracing(|| {
        let mut flow = tele::span(tele::names::FLOW);
        flow.add_field("name", "jobbed");
        let mut stage = tele::span(tele::names::STAGE);
        stage.add_field("label", "s");
        for i in 0..2usize {
            let mut job = tele::span(tele::names::JOB);
            job.add_field("job", i);
            let mut tile = tele::span(tele::names::TILE);
            tile.add_field("tile", i);
        }
    });
    let flows = t.flow_summaries();
    assert_eq!(flows[0].stages[0].tile_count, 2);
}

#[test]
fn solve_cells_name_their_ancestors_and_skip_failed_or_stray_solves() {
    let ((), t) = with_tracing(|| {
        // A completed solve with no flow around it is no cell.
        tele::span(tele::names::SOLVE).add_field("iterations", 9usize);
        let mut flow = tele::span(tele::names::FLOW);
        flow.add_field("name", "f");
        let mut stage = tele::span(tele::names::STAGE);
        stage.add_field("label", "s");
        for i in 0..3usize {
            let _job = tele::span(tele::names::JOB);
            let mut tile = tele::span(tele::names::TILE);
            tile.add_field("tile", i);
            let mut solve = tele::span(tele::names::SOLVE);
            if i == 1 {
                continue; // a failed solve records no iterations
            }
            solve.add_field("iterations", 4 + i);
            let mut anomaly = tele::span(tele::names::ANOMALY);
            anomaly.add_field("kind", "stall");
        }
    });
    let cells = t.solve_cells();
    let seen: Vec<_> = cells.iter().map(|c| (c.flow, c.stage, c.tile)).collect();
    assert_eq!(seen, [("f", "s", 0), ("f", "s", 2)]);
    assert_eq!(
        cells[1].solve.field("iterations").unwrap().as_u64(),
        Some(6)
    );
    assert!(cells.iter().all(|c| c.anomalies.len() == 1));
}

#[test]
fn snapshot_is_non_destructive_and_drain_still_sees_everything() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = tele::drain();
    tele::set_enabled(true);
    tele::counter_add("unit.snap_counter", 2);
    tele::record_value("unit.snap_hist", 7);
    let (id, scope) = tele::new_trace_scope();
    {
        let mut s = tele::span("unit.snap_span");
        s.add_field("k", 1u64);
    }
    drop(scope);
    let first = tele::snapshot();
    assert_eq!(first.counters["unit.snap_counter"], 2);
    assert_eq!(first.histograms["unit.snap_hist"].count(), 1);
    // A snapshot copies metrics only; the span stays in the store.
    assert!(first.events.is_empty());
    assert_eq!(tele::flight::spans(Some(id.0)).len(), 1);
    // A second snapshot sees the same totals plus anything new.
    tele::counter_add("unit.snap_counter", 3);
    let second = tele::snapshot();
    assert_eq!(second.counters["unit.snap_counter"], 5);
    // The final drain still holds the full run, then resets.
    tele::set_enabled(false);
    let t = tele::drain();
    assert_eq!(t.counters["unit.snap_counter"], 5);
    assert_eq!(t.span_count("unit.snap_span"), 1);
    assert!(tele::snapshot().is_empty());
}

#[test]
fn prometheus_exposition_shape() {
    let ((), t) = with_tracing(|| {
        tele::counter_add("unit.promo.requests", 4);
        for v in [10u64, 20, 30] {
            tele::record_value("unit.promo.latency_us", v);
        }
    });
    let text = t.to_prometheus();
    assert!(text.contains("# TYPE ilt_unit_promo_requests_total counter"));
    assert!(text.contains("ilt_unit_promo_requests_total 4"));
    assert!(text.contains("# TYPE ilt_unit_promo_latency_us summary"));
    assert!(text.contains("ilt_unit_promo_latency_us{quantile=\"0.5\"}"));
    assert!(text.contains("ilt_unit_promo_latency_us_count 3"));
    assert!(text.contains("ilt_unit_promo_latency_us_sum 60"));
    // Every non-comment line is "name[{labels}] value".
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.rsplitn(2, ' ');
        let value = parts.next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "unparsable sample: {line}");
        assert!(parts.next().unwrap().starts_with("ilt_"));
    }
}

#[test]
fn spans_carry_the_ambient_trace_and_roots_mint_their_own() {
    let ((), t) = with_tracing(|| {
        let (id, _scope) = tele::new_trace_scope();
        let outer = tele::span("unit.traced_outer");
        assert_eq!(outer.trace_id(), Some(id));
        let inner = tele::span("unit.traced_inner");
        assert_eq!(inner.trace_id(), Some(id));
        drop(inner);
        drop(outer);
        drop(_scope);
        // No ambient trace: a root span mints a fresh id, children
        // inherit it, and the slot is cleared once the root closes.
        let root = tele::span("unit.minted_root");
        let minted = root.trace_id().expect("root minted a trace");
        assert_ne!(minted, id);
        assert_eq!(tele::current_trace(), Some(minted));
        let child = tele::span("unit.minted_child");
        assert_eq!(child.trace_id(), Some(minted));
        drop(child);
        drop(root);
        assert_eq!(tele::current_trace(), None);
    });
    let outer = t
        .events
        .iter()
        .find(|e| e.name == "unit.traced_outer")
        .unwrap();
    let inner = t
        .events
        .iter()
        .find(|e| e.name == "unit.traced_inner")
        .unwrap();
    let root = t
        .events
        .iter()
        .find(|e| e.name == "unit.minted_root")
        .unwrap();
    let child = t
        .events
        .iter()
        .find(|e| e.name == "unit.minted_child")
        .unwrap();
    assert_eq!(outer.trace, inner.trace);
    assert_eq!(root.trace, child.trace);
    assert_ne!(outer.trace, root.trace);
    assert!(
        t.events.iter().all(|e| e.trace != 0),
        "no unattributed span"
    );
}

#[test]
fn trace_crosses_threads_via_trace_scope() {
    let ((), t) = with_tracing(|| {
        let (id, _scope) = tele::new_trace_scope();
        let flow = tele::span("unit.cross_flow");
        let parent = flow.span_ref();
        let trace = tele::current_trace();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _adopted = tele::parent_scope(parent);
                let _trace = tele::trace_scope(trace);
                let worker = tele::span("unit.cross_worker");
                assert_eq!(worker.trace_id(), Some(id));
            });
        });
    });
    let flow = t
        .events
        .iter()
        .find(|e| e.name == "unit.cross_flow")
        .unwrap();
    let worker = t
        .events
        .iter()
        .find(|e| e.name == "unit.cross_worker")
        .unwrap();
    assert_eq!(worker.parent, Some(flow.id));
    assert_eq!(worker.trace, flow.trace);
    assert_ne!(worker.thread, flow.thread);
}

#[test]
fn flight_recorder_keeps_spans_without_ilt_trace() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = tele::drain();
    tele::set_enabled(false);
    let (id, scope) = tele::new_trace_scope();
    let root = tele::span("unit.flight_root");
    drop(tele::span("unit.flight_child"));
    drop(root);
    drop(scope);
    let spans = tele::flight::spans(Some(id.0));
    let names: Vec<&str> = spans.iter().map(|e| e.name).collect();
    assert!(names.contains(&"unit.flight_root"), "{names:?}");
    assert!(names.contains(&"unit.flight_child"), "{names:?}");
    assert!(spans.iter().all(|e| e.trace == id.0));
    // The store is the only place they are: draining it takes them.
    assert_eq!(tele::drain().events.len(), spans.len());
    assert!(tele::flight::spans(Some(id.0)).is_empty());
}

#[test]
fn flight_recorder_overflow_drops_oldest_and_counts() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = tele::drain();
    tele::set_enabled(false);
    tele::flight::set_capacity(16);
    let dropped_before = tele::flight::spans_dropped();
    let (id, _scope) = tele::new_trace_scope();
    for _ in 0..100 {
        drop(tele::span("unit.flight_overflow"));
    }
    // All 100 spans came from this thread, so they share one shard of
    // capacity 16: memory stayed bounded and the rest were evicted.
    let kept = tele::flight::spans(Some(id.0)).len();
    assert!(kept <= 16, "ring kept {kept} spans over capacity");
    assert!(kept > 0, "ring kept the newest spans");
    let dropped = tele::flight::spans_dropped() - dropped_before;
    assert!(dropped >= 100 - 16, "only {dropped} drops counted");
    tele::flight::set_capacity(tele::flight::DEFAULT_CAPACITY);
}

#[test]
fn record_span_at_backfills_under_the_current_span() {
    let ((), t) = with_tracing(|| {
        let (_id, _scope) = tele::new_trace_scope();
        let start = std::time::Instant::now();
        let _job = tele::span("unit.backfill_job");
        let end = std::time::Instant::now();
        tele::record_span_at(
            "unit.backfill_queue",
            start,
            end,
            vec![("job", tele::FieldValue::U64(7))],
        );
    });
    let job = t
        .events
        .iter()
        .find(|e| e.name == "unit.backfill_job")
        .unwrap();
    let queue = t
        .events
        .iter()
        .find(|e| e.name == "unit.backfill_queue")
        .unwrap();
    assert_eq!(queue.parent, Some(job.id));
    assert_eq!(queue.trace, job.trace);
    assert_eq!(queue.field("job").and_then(|v| v.as_u64()), Some(7));
}

#[test]
fn flag_grammar() {
    for on in ["1", "true", "on", "yes", " YES ", "On"] {
        assert!(tele::parse_flag(Some(on)), "{on:?}");
    }
    for off in ["0", "false", "off", "no", "", "2", "enabled"] {
        assert!(!tele::parse_flag(Some(off)), "{off:?}");
    }
    assert!(!tele::parse_flag(None));
}

#[test]
fn gauges_snapshot_export_and_drain() {
    let ((), t) = with_tracing(|| {
        tele::gauge_set("unit.gauge_depth", 3.0);
        tele::gauge_add("unit.gauge_inflight", 2.0);
        tele::gauge_add("unit.gauge_inflight", -1.0);
        let snap = tele::snapshot();
        assert_eq!(snap.gauges["unit.gauge_depth"], 3.0);
        assert_eq!(snap.gauges["unit.gauge_inflight"], 1.0);
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE ilt_unit_gauge_depth gauge"), "{prom}");
        assert!(prom.contains("ilt_unit_gauge_depth 3"), "{prom}");
    });
    assert_eq!(t.gauges["unit.gauge_depth"], 3.0);
    // drain() took the registry with it.
    assert!(tele::snapshot().gauges.is_empty());
}

#[test]
fn counters_attribute_to_the_ambient_trace() {
    let ((a, b), _t) = with_tracing(|| {
        let (a, scope_a) = tele::new_trace_scope();
        tele::counter_add("unit.trace_counter", 2);
        drop(scope_a);
        let (b, scope_b) = tele::new_trace_scope();
        tele::counter_add("unit.trace_counter", 5);
        drop(scope_b);
        (a, b)
    });
    assert_eq!(tele::trace_counters(a.0)["unit.trace_counter"], 2);
    assert_eq!(tele::trace_counters(b.0)["unit.trace_counter"], 5);
    assert!(tele::trace_counters(u64::MAX).is_empty());
}

#[test]
fn latency_budget_attributes_stage_classes() {
    let ((), t) = with_tracing(|| {
        let mut build = tele::span(tele::names::BUILD);
        build.add_field("what", "kernel_bank");
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(build);
        let mut flow = tele::span(tele::names::FLOW);
        flow.add_field("name", "unit-budget");
        for label in ["coarse", "fine stage 1", "refine color 0", "exotic"] {
            let mut stage = tele::span(tele::names::STAGE);
            stage.add_field("label", label);
            {
                let mut tile = tele::span(tele::names::TILE);
                tile.add_field("tile", 0u64);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _assembly = tele::span(tele::names::ASSEMBLY);
        }
        tele::record_value("serve.job.queue_us", 2_000_000);
    });
    let budget = t.latency_budget();
    assert!(budget.kernel_build_s > 0.0);
    assert!(budget.coarse_tiles_s > 0.0);
    assert!(budget.fine_tiles_s > 0.0);
    assert!(budget.refine_tiles_s > 0.0);
    assert!(budget.other_tiles_s > 0.0);
    assert!(budget.flow_total_s > 0.0);
    assert!((budget.queue_wait_s - 2.0).abs() < 1e-9);
    assert!(budget.unattributed_s() >= 0.0);
    let json = budget.to_json();
    assert!(json.starts_with("{\"queue_wait_s\":"), "{json}");
    assert!(json.contains("\"flow_total_s\":"), "{json}");
}

/// A closed span with a hand-set interval, for the pure folds.
fn event(id: u64, parent: Option<u64>, thread: u64, start_ns: u64, dur_ns: u64) -> tele::SpanEvent {
    tele::SpanEvent {
        id,
        parent,
        trace: 1,
        name: if parent.is_none() {
            tele::names::STAGE
        } else {
            tele::names::TILE
        },
        fields: vec![
            ("label", tele::FieldValue::from("coarse s=4")),
            ("tile", tele::FieldValue::from(id)),
        ],
        start_ns,
        dur_ns,
        thread,
    }
}

#[test]
fn self_time_subtracts_only_same_thread_children() {
    let events = [
        // A stage on thread 0 over [0, 1000).
        event(1, None, 0, 0, 1_000),
        // Two overlapping children on its thread: [100, 300) ∪ [200, 400)
        // covers 300 ns, not 400.
        event(2, Some(1), 0, 100, 200),
        event(3, Some(1), 0, 200, 200),
        // A child reaching past its parent's end is clipped to it.
        event(4, Some(1), 0, 900, 500),
        // A child on a worker thread roots that thread's chain and takes
        // nothing from the stage.
        event(5, Some(1), 1, 100, 700),
        // A grandchild on the worker.
        event(6, Some(5), 1, 200, 100),
    ];
    let profile = tele::self_time_profile(&events);
    let stage = "stage(coarse_s=4)";
    let expected = [
        (stage.to_string(), 1_000 - 300 - 100),
        (format!("{stage};tile(2)"), 200),
        (format!("{stage};tile(3)"), 200),
        (format!("{stage};tile(4)"), 500),
        ("tile(5)".to_string(), 700 - 100),
        ("tile(5);tile(6)".to_string(), 100),
    ];
    assert_eq!(profile.into_iter().collect::<Vec<_>>(), expected);
}
