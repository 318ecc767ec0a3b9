//! Report comparison for regression gating: compares two `ilt-report`
//! files (v1 or v2) and lists quality, degradation and reuse regressions of
//! the candidate against the baseline. Wall-clock and memory are not
//! compared: a baseline file comes from another machine, so those are
//! measured by `benchmark/` (`tat_s`, `peak_rss_mib`), parent against
//! change on one box. The `report_diff` bench binary is a thin CLI over
//! [`compare_reports`].

use ilt_json::Json;

/// What counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThresholds {
    /// A quality number may grow by at most this factor (plus the slack).
    pub max_quality_ratio: f64,
    /// Absolute slack added to every quality bound, so a 0 → 1 violation
    /// jump on a near-clean baseline can be tolerated when loose gating is
    /// wanted.
    pub quality_slack: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            max_quality_ratio: 1.10,
            quality_slack: 0.5,
        }
    }
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// What regressed, e.g. `tiles_degraded` or
    /// `quality case=c method=Ours metric=epe_p95`.
    pub what: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: baseline {:.4} -> candidate {:.4}",
            self.what, self.baseline, self.candidate
        )
    }
}

fn schema_of(report: &Json) -> Result<&str, String> {
    let s = report
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if s.starts_with("ilt-report/") {
        Ok(s)
    } else {
        Err(format!("not an ilt-report: schema {s:?}"))
    }
}

/// Quality metric values keyed by metric name.
type MetricRow = Vec<(&'static str, f64)>;

/// Quality summaries by (case, method), from the v2 diagnostics section.
/// Empty for v1 reports.
fn quality_summaries(report: &Json) -> Vec<((String, String), MetricRow)> {
    const METRICS: [&str; 5] = ["epe_p95", "epe_max", "epe_violations", "stitch", "mrc"];
    report
        .path(&["diagnostics", "quality"])
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|q| {
            let key = (
                q.get("case")?.as_str()?.to_string(),
                q.get("method")?.as_str()?.to_string(),
            );
            let summary = q.get("summary")?;
            let metrics = METRICS
                .iter()
                .filter_map(|&m| Some((m, summary.get(m)?.as_f64()?)))
                .collect();
            Some((key, metrics))
        })
        .collect()
}

/// Degraded-tile count from the v2 diagnostics section (0 for v1 reports
/// and pre-degradation v2 reports).
fn tiles_degraded(report: &Json) -> u64 {
    report
        .path(&["diagnostics", "tiles_degraded"])
        .and_then(Json::as_f64)
        .map_or(0, |v| v.max(0.0) as u64)
}

/// The reuse accounting of the optional `incremental` (ECO drill) section.
struct IncrementalNumbers {
    tiles_resolved: f64,
    hit_ratio: f64,
}

/// Reads the optional `incremental` section (`None` for reports written
/// by binaries that do not run the ECO drill).
fn incremental_numbers(report: &Json) -> Option<IncrementalNumbers> {
    let section = report.get("incremental")?;
    Some(IncrementalNumbers {
        tiles_resolved: section.get("tiles_resolved")?.as_f64()?,
        hit_ratio: section.get("hit_ratio")?.as_f64()?,
    })
}

/// Compares a candidate report against a baseline.
///
/// Quality gates on the v2 `diagnostics.quality` summaries matched by
/// (case, method): `candidate > baseline * max_quality_ratio +
/// quality_slack` is a regression, as is a (case, method) present in the
/// baseline but missing from the candidate. A baseline without diagnostics
/// skips quality gating. More degraded tiles than the baseline is a
/// regression, and the ECO drill's optional `incremental` section (dirty-set
/// size, store hit ratio) gates when both reports carry it.
///
/// # Errors
///
/// Returns a message when either document is not an `ilt-report`.
pub fn compare_reports(
    baseline: &Json,
    candidate: &Json,
    thresholds: &DiffThresholds,
) -> Result<Vec<Regression>, String> {
    schema_of(baseline)?;
    schema_of(candidate)?;
    let mut regressions = Vec::new();

    // Graceful degradation is a quality surface too: a candidate that
    // degrades more tiles than the baseline regressed, however good its
    // metrics look (degraded tiles keep their coarse-grid mask, so the
    // quality summaries alone can hide a broken fine stage).
    let base_degraded = tiles_degraded(baseline);
    let cand_degraded = tiles_degraded(candidate);
    if cand_degraded > base_degraded {
        regressions.push(Regression {
            what: "tiles_degraded".to_string(),
            baseline: base_degraded as f64,
            candidate: cand_degraded as f64,
        });
    }

    // The ECO drill gates on its reuse accounting: re-solving more tiles
    // than the baseline means the dirty frontier grew (edit locality
    // eroded) and a hit-ratio drop means store reuse broke. Skipped unless
    // both reports carry the section, like the other optional sections.
    if let (Some(base), Some(cand)) = (
        incremental_numbers(baseline),
        incremental_numbers(candidate),
    ) {
        if cand.tiles_resolved > base.tiles_resolved {
            regressions.push(Regression {
                what: "incremental tiles_resolved".to_string(),
                baseline: base.tiles_resolved,
                candidate: cand.tiles_resolved,
            });
        }
        if cand.hit_ratio < base.hit_ratio - 1e-9 {
            regressions.push(Regression {
                what: "incremental hit_ratio".to_string(),
                baseline: base.hit_ratio,
                candidate: cand.hit_ratio,
            });
        }
    }

    let cand_quality = quality_summaries(candidate);
    for ((case, method), base_metrics) in quality_summaries(baseline) {
        let Some((_, cand_metrics)) = cand_quality
            .iter()
            .find(|((c, m), _)| *c == case && *m == method)
        else {
            regressions.push(Regression {
                what: format!("missing quality case={case} method={method}"),
                baseline: 1.0,
                candidate: 0.0,
            });
            continue;
        };
        for (metric, base_v) in base_metrics {
            let Some((_, cand_v)) = cand_metrics.iter().find(|(m, _)| *m == metric) else {
                continue;
            };
            let bound = base_v * thresholds.max_quality_ratio + thresholds.quality_slack;
            if *cand_v > bound {
                regressions.push(Regression {
                    what: format!("quality case={case} method={method} metric={metric}"),
                    baseline: base_v,
                    candidate: *cand_v,
                });
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(flow_seconds: f64, epe_p95: f64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"ilt-report/v2",
                 "flows":[{{"name":"ours:pgd","seconds":{flow_seconds}}}],
                 "diagnostics":{{"quality":[
                   {{"case":"c1","method":"Ours",
                     "summary":{{"epe_p95":{epe_p95},"epe_max":3,"epe_violations":0,"stitch":1.5,"mrc":0}},
                     "tiles":[]}}],
                   "convergence":[],"anomalies":[]}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let r = report(1.0, 2.0);
        assert!(compare_reports(&r, &r, &DiffThresholds::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn worse_quality_is_a_regression() {
        let base = report(1.0, 2.0);
        let cand = report(1.0, 4.0);
        let found = compare_reports(&base, &cand, &DiffThresholds::default()).unwrap();
        assert_eq!(found.len(), 1);
        assert!(found[0].what.contains("epe_p95"), "{}", found[0].what);
    }

    #[test]
    fn slower_flows_never_gate() {
        // Baselines are seeded on other machines: wall clock is benchmark/'s
        // job, so a 10x slower candidate of equal quality passes.
        let found = compare_reports(
            &report(1.0, 2.0),
            &report(10.0, 2.0),
            &DiffThresholds::default(),
        );
        assert!(found.unwrap().is_empty());
    }

    #[test]
    fn slack_tolerates_small_absolute_jumps() {
        let base = report(1.0, 0.0);
        let cand = report(1.0, 0.4);
        assert!(compare_reports(&base, &cand, &DiffThresholds::default())
            .unwrap()
            .is_empty());
        let cand = report(1.0, 0.6);
        assert_eq!(
            compare_reports(&base, &cand, &DiffThresholds::default())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn missing_case_is_a_regression() {
        let base = report(1.0, 2.0);
        let cand = Json::parse(r#"{"schema":"ilt-report/v2","flows":[]}"#).unwrap();
        let found = compare_reports(&base, &cand, &DiffThresholds::default()).unwrap();
        assert_eq!(found.len(), 1);
        assert!(found[0].what.contains("missing quality"));
    }

    #[test]
    fn v1_baseline_skips_quality_gating() {
        let base =
            Json::parse(r#"{"schema":"ilt-report/v1","flows":[{"name":"f","seconds":1.0}]}"#)
                .unwrap();
        let cand = report(1.0, 99.0);
        let found = compare_reports(&base, &cand, &DiffThresholds::default()).unwrap();
        assert!(found.iter().all(|r| !r.what.contains("quality")));
    }

    fn report_with_degraded(count: usize) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"ilt-report/v2","flows":[{{"name":"ours:pgd","seconds":1.0}}],
                 "diagnostics":{{"convergence":[],"quality":[],"anomalies":[],
                   "degraded":[],"tiles_degraded":{count}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn extra_degraded_tiles_are_a_regression() {
        let base = report_with_degraded(1);
        let same = compare_reports(&base, &report_with_degraded(1), &DiffThresholds::default());
        assert!(same.unwrap().is_empty());
        // Fewer degraded tiles than the baseline is an improvement, not a
        // regression.
        let fewer = compare_reports(&base, &report_with_degraded(0), &DiffThresholds::default());
        assert!(fewer.unwrap().is_empty());
        let found =
            compare_reports(&base, &report_with_degraded(3), &DiffThresholds::default()).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].what, "tiles_degraded");
        assert_eq!(found[0].baseline, 1.0);
        assert_eq!(found[0].candidate, 3.0);
    }

    #[test]
    fn reports_without_degraded_counts_gate_as_zero() {
        // Pre-degradation baselines (and v1 reports) have no
        // tiles_degraded field; a clean candidate must still pass.
        let base = report(1.0, 2.0);
        assert!(
            compare_reports(&base, &report_with_degraded(0), &DiffThresholds::default())
                .unwrap()
                .iter()
                .all(|r| r.what != "tiles_degraded")
        );
        let found =
            compare_reports(&base, &report_with_degraded(2), &DiffThresholds::default()).unwrap();
        assert!(found.iter().any(|r| r.what == "tiles_degraded"));
    }

    #[test]
    fn optional_sections_never_gate() {
        // Newer reports carry optional sections (gauges, latency_budget)
        // that older baselines lack — and vice versa after a rollback.
        // Neither direction may produce a regression.
        let plain = report(1.0, 2.0);
        let enriched = Json::parse(
            r#"{"schema":"ilt-report/v2",
                "flows":[{"name":"ours:pgd","seconds":1.0}],
                "gauges":{"serve.queue.depth":3.0},
                "latency_budget":{"queue_wait_s":0.5,"kernel_build_s":1.0,
                  "coarse_tiles_s":0.1,"fine_tiles_s":0.2,"refine_tiles_s":0.0,
                  "other_tiles_s":0.0,"assembly_s":0.05,"unattributed_s":0.0,
                  "flow_total_s":1.0},
                "diagnostics":{"quality":[
                  {"case":"c1","method":"Ours",
                   "summary":{"epe_p95":2.0,"epe_max":3,"epe_violations":0,"stitch":1.5,"mrc":0},
                   "tiles":[]}],
                  "convergence":[],"anomalies":[]}}"#,
        )
        .unwrap();
        assert!(
            compare_reports(&plain, &enriched, &DiffThresholds::default())
                .unwrap()
                .is_empty()
        );
        assert!(
            compare_reports(&enriched, &plain, &DiffThresholds::default())
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn candidate_missing_an_optional_metric_is_skipped() {
        // A candidate whose quality summary lacks a metric the baseline
        // has (e.g. a diagnostics field made optional later) is tolerated;
        // only metrics present on both sides gate.
        let base = report(1.0, 2.0);
        let cand = Json::parse(
            r#"{"schema":"ilt-report/v2",
                "flows":[{"name":"ours:pgd","seconds":1.0}],
                "diagnostics":{"quality":[
                  {"case":"c1","method":"Ours",
                   "summary":{"epe_p95":2.0},
                   "tiles":[]}],
                  "convergence":[],"anomalies":[]}}"#,
        )
        .unwrap();
        assert!(compare_reports(&base, &cand, &DiffThresholds::default())
            .unwrap()
            .is_empty());
    }

    fn report_with_incremental(tiles_resolved: u64, hit_ratio: f64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"ilt-report/v2","flows":[{{"name":"ours:pgd","seconds":1.0}}],
                 "incremental":{{"tiles_reused":5,"tiles_resolved":{tiles_resolved},
                   "hit_ratio":{hit_ratio},"speedup":3.5}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn growing_the_dirty_set_or_losing_reuse_is_a_regression() {
        let base = report_with_incremental(4, 0.556);
        let same = compare_reports(&base, &base, &DiffThresholds::default());
        assert!(same.unwrap().is_empty());
        // Re-solving fewer tiles or reusing more is an improvement.
        let better = report_with_incremental(3, 0.667);
        assert!(compare_reports(&base, &better, &DiffThresholds::default())
            .unwrap()
            .is_empty());
        let more_resolved = report_with_incremental(6, 0.556);
        let found = compare_reports(&base, &more_resolved, &DiffThresholds::default()).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].what, "incremental tiles_resolved");
        let less_reuse = report_with_incremental(4, 0.333);
        let found = compare_reports(&base, &less_reuse, &DiffThresholds::default()).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].what, "incremental hit_ratio");
    }

    #[test]
    fn missing_incremental_section_skips_eco_gating() {
        let plain = report(1.0, 2.0);
        let with_eco = report_with_incremental(4, 0.556);
        for (a, b) in [(&plain, &with_eco), (&with_eco, &plain)] {
            assert!(compare_reports(a, b, &DiffThresholds::default())
                .unwrap()
                .iter()
                .all(|r| !r.what.starts_with("incremental")));
        }
    }

    #[test]
    fn non_reports_are_rejected() {
        let junk = Json::parse(r#"{"schema":"something-else"}"#).unwrap();
        let r = report(1.0, 2.0);
        assert!(compare_reports(&junk, &r, &DiffThresholds::default()).is_err());
        assert!(compare_reports(&r, &junk, &DiffThresholds::default()).is_err());
    }
}
