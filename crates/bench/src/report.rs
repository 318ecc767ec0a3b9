//! The `ilt-report/v2` document [`crate::HarnessOptions::finish_run`]
//! writes. Every span-derived section — `flows`, `latency_budget` and the
//! `diagnostics` convergence matrix, anomalies and degraded tiles — is
//! read off the one drained span forest; only the quality matrices are
//! handed in.

use std::fmt::Write as _;

use ilt_telemetry::{json, names, SpanEvent, Telemetry};

use crate::spatial::CaseQuality;
use crate::HarnessOptions;

/// Appends `items` between `open` and `close`, comma-separated, each
/// written by `push`: a JSON array, or an object when `push` writes keys.
fn push_list<T>(
    out: &mut String,
    (open, close): (char, char),
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push(open);
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(close);
}

/// [`push_list`] for a JSON array.
fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    push: impl FnMut(&mut String, T),
) {
    push_list(out, ('[', ']'), items, push);
}

/// Appends span field `key` of `e` as a JSON value (`null` when absent).
fn push_field(out: &mut String, e: &SpanEvent, key: &str) {
    match e.field(key) {
        Some(v) => json::push_field_value(out, v),
        None => out.push_str("null"),
    }
}

/// Renders the `ilt-report/v2` run report: run parameters (among them
/// `kernel_body`, the FFT body the CPU probe chose — a timing means little
/// without it), per-flow stage summaries, merged counters, histograms and
/// gauges, `profile` (the spans' self-time profile) and `memory` in the
/// shape `ilt-serve`'s `/debug/profile` and `/debug/memory` serve
/// ([`ilt_prof::render`]), the latency budget, the diagnostics and the
/// nested span tree. v2 is a strict superset of v1.
pub(crate) fn render_report(
    binary: &str,
    opts: &HarnessOptions,
    tele: &Telemetry,
    trace_enabled: bool,
    quality: &[CaseQuality],
) -> String {
    let mut out = String::from("{\"schema\":\"ilt-report/v2\",\"binary\":");
    json::push_str_literal(&mut out, binary);
    out.push_str(",\"scale\":");
    json::push_str_literal(&mut out, &opts.scale);
    let _ = write!(
        out,
        ",\"cases\":{},\"workers\":{},\"kernel_body\":\"{}\",\"trace_enabled\":{}",
        opts.cases,
        opts.workers,
        ilt_fft::body_name(),
        trace_enabled
    );
    out.push_str(",\"flows\":");
    push_array(&mut out, &tele.flow_summaries(), |out, flow| {
        out.push_str("{\"name\":");
        json::push_str_literal(out, &flow.name);
        out.push_str(",\"seconds\":");
        json::push_f64(out, flow.seconds);
        out.push_str(",\"stages\":");
        push_array(out, &flow.stages, |out, stage| {
            out.push_str("{\"label\":");
            json::push_str_literal(out, &stage.label);
            out.push_str(",\"seconds\":");
            json::push_f64(out, stage.seconds);
            let _ = write!(
                out,
                ",\"tile_count\":{},\"tile_seconds\":",
                stage.tile_count
            );
            json::push_f64(out, stage.tile_seconds);
            out.push_str(",\"assembly_seconds\":");
            json::push_f64(out, stage.assembly_seconds);
            let (p50, p95, p99) = stage.tile_us_percentiles();
            out.push_str(",\"tile_us_p50\":");
            json::push_f64(out, p50);
            out.push_str(",\"tile_us_p95\":");
            json::push_f64(out, p95);
            out.push_str(",\"tile_us_p99\":");
            json::push_f64(out, p99);
            out.push('}');
        });
        out.push('}');
    });
    out.push_str(",\"counters\":");
    push_list(&mut out, ('{', '}'), &tele.counters, |out, (name, v)| {
        json::push_str_literal(out, name);
        let _ = write!(out, ":{v}");
    });
    out.push_str(",\"histograms\":");
    push_list(&mut out, ('{', '}'), &tele.histograms, |out, (name, h)| {
        json::push_str_literal(out, name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
            h.count(),
            h.sum(),
            h.min(),
            h.max()
        );
        for (key, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            let _ = write!(out, ",\"{key}\":");
            json::push_f64(out, h.quantile(q));
        }
        out.push('}');
    });
    out.push_str(",\"gauges\":");
    push_list(&mut out, ('{', '}'), &tele.gauges, |out, (name, v)| {
        json::push_str_literal(out, name);
        out.push(':');
        json::push_f64(out, *v);
    });
    // The sections `/debug/profile` and `/debug/memory` serve, less the
    // daemon-only members.
    out.push_str(",\"profile\":{");
    ilt_prof::render::push_profile(&mut out, &tele.events);
    out.push_str("},\"memory\":{");
    ilt_prof::render::push_memory(&mut out, ilt_prof::rss::read(), &ilt_prof::alloc::stats());
    out.push('}');
    out.push_str(",\"latency_budget\":");
    out.push_str(&tele.latency_budget().to_json());
    out.push_str(",\"diagnostics\":");
    push_diagnostics(&mut out, tele, quality);
    out.push_str(",\"spans\":");
    out.push_str(&ilt_telemetry::span_forest_json(&tele.events));
    out.push('}');
    out
}

/// The `diagnostics` object: the convergence matrix (one cell per
/// [`Telemetry::solve_cells`] entry), the quality matrices with folded
/// summaries, the anomaly list (every cell's `anomaly` spans, in cell
/// order) and the degraded tiles (the `degraded` spans, in start order).
fn push_diagnostics(out: &mut String, tele: &Telemetry, quality: &[CaseQuality]) {
    let cells = tele.solve_cells();
    out.push_str("{\"convergence\":");
    push_array(out, &cells, |out, cell| {
        out.push_str("{\"flow\":");
        json::push_str_literal(out, cell.flow);
        out.push_str(",\"stage\":");
        json::push_str_literal(out, cell.stage);
        let _ = write!(out, ",\"tile\":{},\"iterations\":", cell.tile);
        push_field(out, cell.solve, "iterations");
        out.push_str(",\"final_loss\":");
        push_field(out, cell.solve, "final_loss");
        out.push_str(",\"anomalies\":");
        push_array(out, &cell.anomalies, |out, a| push_field(out, a, "kind"));
        out.push('}');
    });
    out.push_str(",\"quality\":");
    push_array(out, quality, push_case);
    out.push_str(",\"anomalies\":");
    let anomalies = cells
        .iter()
        .flat_map(|cell| cell.anomalies.iter().map(move |a| (cell, a)));
    push_array(out, anomalies, |out, (cell, a)| {
        out.push_str("{\"flow\":");
        json::push_str_literal(out, cell.flow);
        out.push_str(",\"stage\":");
        json::push_str_literal(out, cell.stage);
        out.push_str(",\"kind\":");
        push_field(out, a, "kind");
        let _ = write!(out, ",\"tile\":{},\"iteration\":", cell.tile);
        push_field(out, a, "iteration");
        out.push_str(",\"value\":");
        push_field(out, a, "value");
        out.push('}');
    });
    // A `degraded` span's fields are the record: flow, stage, tile, error.
    let degraded: Vec<_> = tele
        .events
        .iter()
        .filter(|e| e.name == names::DEGRADED)
        .collect();
    out.push_str(",\"degraded\":");
    push_array(out, &degraded, |out, e| {
        json::push_fields_object(out, &e.fields)
    });
    let _ = write!(out, ",\"tiles_degraded\":{}}}", degraded.len());
}

fn push_case(out: &mut String, case: &CaseQuality) {
    out.push_str("{\"case\":");
    json::push_str_literal(out, &case.case);
    out.push_str(",\"method\":");
    json::push_str_literal(out, &case.method);
    let s = case.summary();
    out.push_str(",\"summary\":{\"epe_p95\":");
    json::push_f64(out, s.epe_p95);
    let _ = write!(
        out,
        ",\"epe_max\":{},\"epe_violations\":{},\"stitch\":",
        s.epe_max, s.epe_violations
    );
    json::push_f64(out, s.stitch);
    let _ = write!(out, ",\"mrc\":{}}}", s.mrc);
    out.push_str(",\"tiles\":");
    push_array(out, &case.tiles, |out, t| {
        let _ = write!(out, "{{\"tile\":{},\"epe_gauges\":{}", t.tile, t.epe_gauges);
        out.push_str(",\"epe_p50\":");
        json::push_f64(out, t.epe_p50);
        out.push_str(",\"epe_p95\":");
        json::push_f64(out, t.epe_p95);
        let _ = write!(
            out,
            ",\"epe_max\":{},\"epe_violations\":{},\"stitch\":",
            t.epe_max, t.epe_violations
        );
        json::push_f64(out, t.stitch);
        let _ = write!(out, ",\"mrc\":{}}}", t.mrc);
    });
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_core::ExperimentConfig;
    use ilt_json::Json;
    use ilt_telemetry as tele;
    use std::path::PathBuf;

    fn opts() -> HarnessOptions {
        HarnessOptions {
            config: ExperimentConfig::test_tiny(),
            scale: "tiny".to_string(),
            cases: 1,
            workers: 1,
            out_dir: PathBuf::from("results"),
        }
    }

    #[test]
    fn report_is_valid_shape() {
        let report = render_report("smoke", &opts(), &Telemetry::default(), false, &[]);
        assert!(report.starts_with("{\"schema\":\"ilt-report/v2\""));
        assert!(report.contains("\"binary\":\"smoke\""));
        assert!(report.contains("\"scale\":\"tiny\""));
        assert!(report.contains("\"trace_enabled\":false"));
        assert!(report.contains(&format!("\"kernel_body\":\"{}\"", ilt_fft::body_name())));
        assert!(report.ends_with('}'));
        // The whole report must be well-formed JSON with the v2 sections in
        // place (empty, since no telemetry was collected).
        let json = Json::parse(&report).expect("report parses");
        assert_eq!(
            json.get("schema").and_then(|s| s.as_str()),
            Some("ilt-report/v2")
        );
        let diagnostics = json.get("diagnostics").expect("diagnostics section");
        for key in ["convergence", "quality", "anomalies", "degraded"] {
            let arr = diagnostics
                .get(key)
                .and_then(|v| v.as_arr())
                .unwrap_or_else(|| panic!("diagnostics.{key} is an array"));
            assert!(arr.is_empty());
        }
        assert_eq!(
            diagnostics.get("tiles_degraded").and_then(|v| v.as_u64()),
            Some(0),
            "a clean run reports zero degraded tiles"
        );
        let budget = json.get("latency_budget").expect("latency_budget section");
        for key in [
            "queue_wait_s",
            "kernel_build_s",
            "coarse_tiles_s",
            "fine_tiles_s",
            "assembly_s",
            "unattributed_s",
        ] {
            assert!(
                budget.get(key).and_then(|v| v.as_f64()).is_some(),
                "latency_budget.{key} is a number"
            );
        }
        assert!(json.get("gauges").is_some(), "gauges section present");
        // Every report carries the memory section; on Linux the RSS reader
        // always has something to say.
        let memory = json.get("memory").expect("memory section");
        assert!(memory.path(&["alloc", "enabled"]).is_some());
        #[cfg(target_os = "linux")]
        assert!(
            memory
                .path(&["rss", "peak_bytes"])
                .and_then(|v| v.as_f64())
                .is_some_and(|v| v > 0.0),
            "rss.peak_bytes is a positive number"
        );
    }

    #[test]
    fn profile_section_folds_the_drained_spans() {
        let (trace, _scope) = tele::new_trace_scope();
        {
            let mut flow = tele::span(names::FLOW);
            flow.add_field("name", "profile shape test");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t = Telemetry {
            events: tele::flight::spans(Some(trace.0)),
            ..Telemetry::default()
        };
        let report = render_report("smoke", &opts(), &t, false, &[]);
        let json = Json::parse(&report).expect("report parses");
        let top = json.path(&["profile", "top_self"]).and_then(Json::as_arr);
        assert_eq!(
            top.and_then(|a| a.first()?.get("frame")?.as_str()),
            Some("flow(profile_shape_test)")
        );
        assert!(json
            .path(&["profile", "total_us"])
            .and_then(Json::as_u64)
            .is_some_and(|us| us >= 1_000));
    }

    #[test]
    fn report_and_metrics_print_one_quantile_per_histogram() {
        // Samples spread over several buckets, so an estimator that reads
        // a bucket bound would disagree with one that interpolates.
        let mut h = tele::Histogram::new();
        for v in [3u64, 9, 12, 40, 41, 77, 300, 1_000, 1_001, 5_000] {
            h.record(v);
        }
        let mut t = Telemetry::default();
        t.histograms.insert("unit.latency_us".to_string(), h);
        let report = render_report("smoke", &opts(), &t, false, &[]);
        let report = Json::parse(&report).expect("report parses");
        let metrics = t.to_prometheus();
        for (key, q) in [("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")] {
            let in_report = report
                .path(&["histograms", "unit.latency_us", key])
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("report misses {key}"));
            let line = format!("ilt_unit_latency_us{{quantile=\"{q}\"}} ");
            let in_metrics: f64 = metrics
                .lines()
                .find_map(|l| l.strip_prefix(&line))
                .unwrap_or_else(|| panic!("/metrics misses {line}"))
                .parse()
                .expect("sample value");
            assert_eq!(in_report, in_metrics, "{key}");
        }
    }

    /// The spans one traced tile solve leaves: flow > stage > tile > solve,
    /// with one child per anomaly kind in `kinds`.
    fn solve_spans(tile: usize, losses: &[f64], kinds: &[&'static str]) {
        let mut flow = tele::span(names::FLOW);
        flow.add_field("name", "f:solver");
        let mut stage = tele::span(names::STAGE);
        stage.add_field("label", "stage 0");
        let mut tile_span = tele::span(names::TILE);
        tile_span.add_field("tile", tile);
        let mut solve = tele::span(names::SOLVE);
        solve.add_field("iterations", losses.len());
        solve.add_field("final_loss", *losses.last().unwrap());
        for (i, kind) in kinds.iter().enumerate() {
            let mut a = tele::span(names::ANOMALY);
            a.add_field("kind", *kind);
            a.add_field("iteration", 5 + i);
            a.add_field("value", 0.25);
        }
    }

    /// The diagnostics section rendered from the spans `record` leaves.
    fn diagnostics_of(record: impl FnOnce()) -> Json {
        let (trace, _scope) = tele::new_trace_scope();
        record();
        let t = Telemetry {
            events: tele::flight::spans(Some(trace.0)),
            ..Telemetry::default()
        };
        let mut out = String::new();
        push_diagnostics(&mut out, &t, &[]);
        Json::parse(&out).expect("diagnostics JSON must parse")
    }

    #[test]
    fn diagnostics_render_the_solve_spans() {
        let v = diagnostics_of(|| {
            solve_spans(2, &[10.0, 5.0, 2.5, 1.25], &[]);
            solve_spans(7, &[5.0; 20], &["stall"]);
        });
        let cells = v.get("convergence").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("iterations").and_then(Json::as_f64), Some(4.0));
        assert_eq!(cells[1].get("final_loss").and_then(Json::as_f64), Some(5.0));
        assert_eq!(cells[1].get("tile").and_then(Json::as_f64), Some(7.0));
        let listed = v.get("anomalies").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), 1);
        for (key, want) in [
            ("kind", "stall"),
            ("stage", "stage 0"),
            ("flow", "f:solver"),
        ] {
            assert_eq!(listed[0].get(key).and_then(Json::as_str), Some(want));
        }
        for (key, want) in [("tile", 7.0), ("iteration", 5.0), ("value", 0.25)] {
            assert_eq!(listed[0].get(key).and_then(Json::as_f64), Some(want));
        }
        assert_eq!(v.get("tiles_degraded").and_then(Json::as_f64), Some(0.0));
        assert!(v.get("degraded").and_then(Json::as_arr).unwrap().is_empty());
    }

    #[test]
    fn degraded_spans_render_into_the_diagnostics_section() {
        let v = diagnostics_of(|| {
            let mut span = tele::span(names::DEGRADED);
            span.add_field("flow", "ours:pgd");
            span.add_field("stage", "fine stage 1");
            span.add_field("tile", 4usize);
            span.add_field("error", "tile 4 failed: boom");
        });
        assert_eq!(v.get("tiles_degraded").and_then(Json::as_f64), Some(1.0));
        let listed = v.get("degraded").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(
            listed[0].get("stage").and_then(Json::as_str),
            Some("fine stage 1")
        );
        assert_eq!(listed[0].get("tile").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            listed[0].get("error").and_then(Json::as_str),
            Some("tile 4 failed: boom")
        );
    }
}
