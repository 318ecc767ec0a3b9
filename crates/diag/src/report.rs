//! Renders drained diagnostics into the `diagnostics` section of
//! `report.json` (schema `ilt-report/v2`).

use std::fmt::Write as _;

use ilt_telemetry::json;

use crate::anomaly::Anomaly;
use crate::sink::{CaseQuality, RunDiagnostics, StageCell};

/// Renders the `diagnostics` JSON object embedded in `ilt-report/v2`:
/// the convergence matrix (one cell per observed tile solve), the per-case
/// quality matrices with folded summaries, and the anomaly list — the
/// cells' anomalies flattened, in record order.
pub fn render_diagnostics_json(diag: &RunDiagnostics) -> String {
    let mut out = String::from("{\"convergence\":[");
    for (i, cell) in diag.solves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_cell(&mut out, cell);
    }
    out.push_str("],\"quality\":[");
    for (i, case) in diag.cases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_case(&mut out, case);
    }
    out.push_str("],\"anomalies\":[");
    let anomalies = diag
        .solves
        .iter()
        .flat_map(|cell| cell.anomalies.iter().map(move |a| (cell, a)));
    for (i, (cell, a)) in anomalies.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_anomaly(&mut out, cell, a);
    }
    out.push_str("],\"degraded\":[");
    for (i, d) in diag.degraded.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_degraded(&mut out, d);
    }
    let _ = write!(out, "],\"tiles_degraded\":{}}}", diag.degraded.len());
    out
}

fn push_cell(out: &mut String, cell: &StageCell) {
    out.push_str("{\"flow\":");
    json::push_str_literal(out, &cell.flow);
    out.push_str(",\"stage\":");
    json::push_str_literal(out, &cell.stage);
    let _ = write!(
        out,
        ",\"tile\":{},\"iterations\":{}",
        cell.tile, cell.iterations
    );
    out.push_str(",\"final_loss\":");
    match cell.final_loss {
        Some(v) => json::push_f64(out, v),
        None => out.push_str("null"),
    }
    out.push_str(",\"anomalies\":[");
    for (i, a) in cell.anomalies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_literal(out, a.kind.code());
    }
    out.push_str("]}");
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
    out.push_str(",\"tiles\":[");
    for (i, t) in case.tiles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
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
    }
    out.push_str("]}");
}

fn push_degraded(out: &mut String, d: &crate::sink::DegradedTileRecord) {
    out.push_str("{\"flow\":");
    json::push_str_literal(out, &d.flow);
    out.push_str(",\"stage\":");
    json::push_str_literal(out, &d.stage);
    let _ = write!(out, ",\"tile\":{},\"error\":", d.tile);
    json::push_str_literal(out, &d.error);
    out.push('}');
}

fn push_anomaly(out: &mut String, cell: &StageCell, a: &Anomaly) {
    out.push_str("{\"flow\":");
    json::push_str_literal(out, &cell.flow);
    out.push_str(",\"stage\":");
    json::push_str_literal(out, &cell.stage);
    out.push_str(",\"kind\":");
    json::push_str_literal(out, a.kind.code());
    let _ = write!(out, ",\"tile\":{},\"iteration\":{}", cell.tile, a.iteration);
    out.push_str(",\"value\":");
    json::push_f64(out, a.value);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::observe_solve;
    use ilt_json::Json;
    use ilt_telemetry as tele;

    #[test]
    fn diagnostics_json_parses_and_carries_the_matrix() {
        let _guard = crate::testlock::lock();
        tele::set_enabled(true);
        let _ = tele::drain();
        let _ = crate::sink::drain();
        observe_solve("f:solver", "stage 0", 2, &[10.0, 5.0, 2.5, 1.25]);
        observe_solve("f:solver", "stage 0", 7, &[5.0; 20]);
        tele::set_enabled(false);
        let diag = crate::sink::drain();

        let rendered = render_diagnostics_json(&diag);
        let v = Json::parse(&rendered).expect("diagnostics JSON must parse");
        let cells = v.get("convergence").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("iterations").and_then(Json::as_f64), Some(4.0));
        assert_eq!(cells[1].get("final_loss").and_then(Json::as_f64), Some(5.0));
        let listed = v.get("anomalies").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].get("kind").and_then(Json::as_str), Some("stall"));
        assert_eq!(listed[0].get("tile").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            listed[0].get("stage").and_then(Json::as_str),
            Some("stage 0")
        );
        assert_eq!(
            listed[0].get("flow").and_then(Json::as_str),
            Some("f:solver")
        );
        let stall = &diag.solves[1].anomalies[0];
        assert_eq!(
            listed[0].get("iteration").and_then(Json::as_f64),
            Some(stall.iteration as f64)
        );
        assert_eq!(
            listed[0].get("value").and_then(Json::as_f64),
            Some(stall.value)
        );
        assert_eq!(v.get("tiles_degraded").and_then(Json::as_f64), Some(0.0));
        assert!(v.get("degraded").and_then(Json::as_arr).unwrap().is_empty());
    }

    #[test]
    fn degraded_tiles_render_into_the_diagnostics_section() {
        let _guard = crate::testlock::lock();
        tele::set_enabled(true);
        let _ = tele::drain();
        let _ = crate::sink::drain();
        crate::sink::observe_degraded("ours:pgd", "fine stage 1", 4, "tile 4 failed: boom");
        tele::flush_thread();
        let t = tele::drain();
        tele::set_enabled(false);
        let diag = crate::sink::drain();
        assert_eq!(diag.degraded.len(), 1);
        // The zero-length span is visible in the trace too.
        assert!(t
            .events
            .iter()
            .any(|e| e.name == ilt_telemetry::names::DEGRADED));

        let rendered = render_diagnostics_json(&diag);
        let v = Json::parse(&rendered).expect("diagnostics JSON must parse");
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

    #[test]
    fn observe_degraded_is_inert_when_disabled() {
        let _guard = crate::testlock::lock();
        tele::set_enabled(false);
        let _ = crate::sink::drain();
        crate::sink::observe_degraded("f", "s", 0, "boom");
        assert!(crate::sink::drain().degraded.is_empty());
    }
}
