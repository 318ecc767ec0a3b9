//! Declarative service-level objectives with multi-window burn rates.
//!
//! An [`Objective`] classifies each finished job as *good* or *bad* (did
//! it beat the latency threshold? did it fail? was it degraded?) against a
//! target good-fraction. The engine keeps per-second good/bad buckets in a
//! fixed ring and reports, for each configured window, the **burn rate**:
//!
//! ```text
//! burn = (bad / (good + bad)) / (1 - target)
//! ```
//!
//! `burn == 1` means the error budget is being consumed exactly as fast as
//! the objective allows; `burn > 1` on a short *and* a long window is the
//! classic page condition. `ilt-serve` feeds the engine from job
//! completions and exports the series on `/metrics` as
//! `ilt_slo_burn_rate{objective=...,window=...}`.
//!
//! Everything is wall-clock-free below the public API: observations and
//! reports can be pinned to an explicit second for deterministic tests.

use std::sync::Mutex;
use std::time::Instant;

/// What an objective measures about each job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// Good iff the job finished (successfully or not) within the
    /// threshold, in microseconds end-to-end (queue wait included).
    JobLatency {
        /// Latency threshold in microseconds.
        threshold_us: u64,
    },
    /// Good iff the job did not fail.
    JobErrors,
    /// Good iff no tile of the job degraded to its coarse fallback.
    JobDegraded,
}

/// One declarative objective: a kind plus the target good-fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Stable name used in metric labels (`job_latency`, ...).
    pub name: String,
    /// What is measured.
    pub kind: SloKind,
    /// Target good fraction in `(0, 1)`, e.g. `0.99` for "99% of jobs".
    pub target: f64,
}

/// A set of objectives plus the burn-rate windows (seconds) they are
/// evaluated over.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// The objectives, in export order.
    pub objectives: Vec<Objective>,
    /// Burn-rate windows in seconds, shortest first.
    pub windows: Vec<u64>,
}

impl SloConfig {
    /// The default serving objectives: p99-style job latency under 30 s,
    /// 99.9% non-failed, 99% non-degraded, over 1 m / 5 m / 30 m windows.
    pub fn serve_default() -> Self {
        SloConfig {
            objectives: vec![
                Objective {
                    name: "job_latency".to_string(),
                    kind: SloKind::JobLatency {
                        threshold_us: 30_000_000,
                    },
                    target: 0.99,
                },
                Objective {
                    name: "job_errors".to_string(),
                    kind: SloKind::JobErrors,
                    target: 0.999,
                },
                Objective {
                    name: "job_degraded".to_string(),
                    kind: SloKind::JobDegraded,
                    target: 0.99,
                },
            ],
            windows: vec![60, 300, 1800],
        }
    }

    /// Builds the config from `ILT_SLO` / `ILT_SLO_WINDOWS`, falling back
    /// to [`SloConfig::serve_default`] for anything unset or malformed.
    ///
    /// Grammar: `ILT_SLO` is a comma-separated list of
    /// `job_latency:<threshold_ms>:<target>`, `job_errors:<target>`, and
    /// `job_degraded:<target>` entries; `ILT_SLO_WINDOWS` is a
    /// comma-separated list of window lengths in seconds.
    pub fn from_env() -> Self {
        let mut config = Self::serve_default();
        if let Ok(spec) = std::env::var("ILT_SLO") {
            if let Some(objectives) = parse_objectives(&spec) {
                config.objectives = objectives;
            }
        }
        if let Ok(spec) = std::env::var("ILT_SLO_WINDOWS") {
            let windows: Option<Vec<u64>> = spec
                .split(',')
                .map(|w| w.trim().parse::<u64>().ok().filter(|&w| w > 0))
                .collect();
            if let Some(mut windows) = windows.filter(|w| !w.is_empty()) {
                windows.sort_unstable();
                config.windows = windows;
            }
        }
        config
    }
}

fn parse_objectives(spec: &str) -> Option<Vec<Objective>> {
    let mut out = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let parts: Vec<&str> = entry.trim().split(':').collect();
        let target_of = |s: &str| s.parse::<f64>().ok().filter(|t| (0.0..1.0).contains(t));
        let objective = match parts.as_slice() {
            ["job_latency", threshold_ms, target] => Objective {
                name: "job_latency".to_string(),
                kind: SloKind::JobLatency {
                    threshold_us: threshold_ms.parse::<u64>().ok()?.checked_mul(1000)?,
                },
                target: target_of(target)?,
            },
            ["job_errors", target] => Objective {
                name: "job_errors".to_string(),
                kind: SloKind::JobErrors,
                target: target_of(target)?,
            },
            ["job_degraded", target] => Objective {
                name: "job_degraded".to_string(),
                kind: SloKind::JobDegraded,
                target: target_of(target)?,
            },
            _ => return None,
        };
        out.push(objective);
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// One second's worth of classifications for one objective.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    sec: u64,
    good: u64,
    bad: u64,
}

#[derive(Debug)]
struct ObjState {
    objective: Objective,
    /// Ring indexed by `sec % ring.len()`; stale entries are detected by
    /// their `sec` stamp, so idle gaps need no advancing writes.
    ring: Vec<Bucket>,
    total_good: u64,
    total_bad: u64,
}

/// Burn-rate report for one objective over one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowBurn {
    /// Window length in seconds.
    pub window_s: u64,
    /// Good events inside the window.
    pub good: u64,
    /// Bad events inside the window.
    pub bad: u64,
    /// `(bad fraction) / (1 - target)`; `0` when the window is empty.
    pub burn_rate: f64,
}

/// Burn-rate report for one objective across every configured window.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveBurn {
    /// The objective this report describes.
    pub objective: Objective,
    /// Good events since engine start.
    pub total_good: u64,
    /// Bad events since engine start.
    pub total_bad: u64,
    /// Per-window burn rates, shortest window first.
    pub windows: Vec<WindowBurn>,
}

/// The live burn-rate engine. One per process (`ilt-serve` keeps it in a
/// `OnceLock`); observation and report are one short mutex hold each.
#[derive(Debug)]
pub struct SloEngine {
    start: Instant,
    windows: Vec<u64>,
    state: Mutex<Vec<ObjState>>,
}

impl SloEngine {
    /// Builds an engine for `config`. Ring memory per objective is
    /// `max(windows)` buckets (24 bytes each).
    pub fn new(config: SloConfig) -> Self {
        let span = config.windows.iter().copied().max().unwrap_or(60).max(1) as usize;
        let state = config
            .objectives
            .into_iter()
            .map(|objective| ObjState {
                objective,
                ring: vec![Bucket::default(); span],
                total_good: 0,
                total_bad: 0,
            })
            .collect();
        SloEngine {
            start: Instant::now(),
            windows: config.windows,
            state: Mutex::new(state),
        }
    }

    fn now_sec(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Classifies one finished job against every objective, at the current
    /// wall-clock second.
    pub fn observe_job(&self, latency_us: u64, failed: bool, degraded: bool) {
        self.observe_job_at(self.now_sec(), latency_us, failed, degraded);
    }

    /// Like [`SloEngine::observe_job`], pinned to an explicit second since
    /// engine start (deterministic tests).
    pub fn observe_job_at(&self, sec: u64, latency_us: u64, failed: bool, degraded: bool) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        for obj in state.iter_mut() {
            let good = match obj.objective.kind {
                SloKind::JobLatency { threshold_us } => latency_us <= threshold_us,
                SloKind::JobErrors => !failed,
                SloKind::JobDegraded => !degraded,
            };
            let len = obj.ring.len() as u64;
            let bucket = &mut obj.ring[(sec % len) as usize];
            if bucket.sec != sec {
                *bucket = Bucket {
                    sec,
                    good: 0,
                    bad: 0,
                };
            }
            if good {
                bucket.good += 1;
                obj.total_good += 1;
            } else {
                bucket.bad += 1;
                obj.total_bad += 1;
            }
        }
    }

    /// Burn rates for every objective at the current second.
    pub fn burn_rates(&self) -> Vec<ObjectiveBurn> {
        self.burn_rates_at(self.now_sec())
    }

    /// Like [`SloEngine::burn_rates`], pinned to an explicit second.
    pub fn burn_rates_at(&self, now: u64) -> Vec<ObjectiveBurn> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state
            .iter()
            .map(|obj| {
                let windows = self
                    .windows
                    .iter()
                    .map(|&w| {
                        let oldest = now.saturating_sub(w.saturating_sub(1));
                        let (mut good, mut bad) = (0u64, 0u64);
                        for bucket in &obj.ring {
                            if bucket.sec >= oldest && bucket.sec <= now {
                                good += bucket.good;
                                bad += bucket.bad;
                            }
                        }
                        let burn_rate = if good + bad == 0 {
                            0.0
                        } else {
                            let bad_fraction = bad as f64 / (good + bad) as f64;
                            bad_fraction / (1.0 - obj.objective.target).max(1e-9)
                        };
                        WindowBurn {
                            window_s: w,
                            good,
                            bad,
                            burn_rate,
                        }
                    })
                    .collect();
                ObjectiveBurn {
                    objective: obj.objective.clone(),
                    total_good: obj.total_good,
                    total_bad: obj.total_bad,
                    windows,
                }
            })
            .collect()
    }

    /// Prometheus text exposition of the burn-rate series and event
    /// totals; appended to `/metrics` by `ilt-serve`.
    pub fn to_prometheus(&self) -> String {
        let reports = self.burn_rates();
        let mut out = String::new();
        out.push_str("# TYPE ilt_slo_burn_rate gauge\n");
        for report in &reports {
            for window in &report.windows {
                out.push_str(&format!(
                    "ilt_slo_burn_rate{{objective=\"{}\",window=\"{}s\"}} {}\n",
                    report.objective.name, window.window_s, window.burn_rate
                ));
            }
        }
        out.push_str("# TYPE ilt_slo_events_total counter\n");
        for report in &reports {
            out.push_str(&format!(
                "ilt_slo_events_total{{objective=\"{}\",outcome=\"good\"}} {}\n",
                report.objective.name, report.total_good
            ));
            out.push_str(&format!(
                "ilt_slo_events_total{{objective=\"{}\",outcome=\"bad\"}} {}\n",
                report.objective.name, report.total_bad
            ));
        }
        out
    }

    /// JSON rendering for `/debug/slo`.
    pub fn to_json(&self) -> String {
        let reports = self.burn_rates();
        let mut out = String::from("{\"objectives\":[");
        for (i, report) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str("\"name\":");
            crate::json::push_str_literal(&mut out, &report.objective.name);
            let (kind, threshold_us) = match report.objective.kind {
                SloKind::JobLatency { threshold_us } => ("latency", Some(threshold_us)),
                SloKind::JobErrors => ("errors", None),
                SloKind::JobDegraded => ("degraded", None),
            };
            out.push_str(&format!(",\"kind\":\"{kind}\""));
            if let Some(threshold_us) = threshold_us {
                out.push_str(&format!(",\"threshold_us\":{threshold_us}"));
            }
            out.push_str(",\"target\":");
            crate::json::push_f64(&mut out, report.objective.target);
            out.push_str(&format!(
                ",\"total_good\":{},\"total_bad\":{},\"windows\":[",
                report.total_good, report.total_bad
            ));
            for (j, window) in report.windows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"seconds\":{},\"good\":{},\"bad\":{},\"burn_rate\":",
                    window.window_s, window.good, window.bad
                ));
                crate::json::push_f64(&mut out, window.burn_rate);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency_only(threshold_us: u64, target: f64, windows: Vec<u64>) -> SloEngine {
        SloEngine::new(SloConfig {
            objectives: vec![Objective {
                name: "job_latency".to_string(),
                kind: SloKind::JobLatency { threshold_us },
                target,
            }],
            windows,
        })
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let engine = latency_only(1000, 0.99, vec![60]);
        // 9 good, 1 bad at second 10 → bad fraction 0.1, budget 0.01.
        for _ in 0..9 {
            engine.observe_job_at(10, 500, false, false);
        }
        engine.observe_job_at(10, 5000, false, false);
        let reports = engine.burn_rates_at(10);
        let w = &reports[0].windows[0];
        assert_eq!((w.good, w.bad), (9, 1));
        assert!((w.burn_rate - 10.0).abs() < 1e-9, "burn {}", w.burn_rate);
    }

    #[test]
    fn windows_see_only_their_span() {
        let engine = latency_only(1000, 0.9, vec![10, 100]);
        engine.observe_job_at(0, 5000, false, false); // bad, old
        engine.observe_job_at(50, 500, false, false); // good, recent
        let reports = engine.burn_rates_at(55);
        let short = &reports[0].windows[0];
        let long = &reports[0].windows[1];
        assert_eq!((short.good, short.bad), (1, 0));
        assert_eq!(short.burn_rate, 0.0);
        assert_eq!((long.good, long.bad), (1, 1));
        assert!((long.burn_rate - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ring_reuses_buckets_without_leaking_old_seconds() {
        // Ring length = 10 (max window); second 15 lands on second 5's
        // bucket and must replace it, not add to it.
        let engine = latency_only(1000, 0.5, vec![10]);
        engine.observe_job_at(5, 5000, false, false);
        engine.observe_job_at(15, 500, false, false);
        let reports = engine.burn_rates_at(15);
        let w = &reports[0].windows[0];
        assert_eq!((w.good, w.bad), (1, 0));
        assert_eq!(reports[0].total_bad, 1, "totals still count everything");
    }

    #[test]
    fn kinds_classify_errors_and_degradation() {
        let engine = SloEngine::new(SloConfig {
            objectives: vec![
                Objective {
                    name: "job_errors".to_string(),
                    kind: SloKind::JobErrors,
                    target: 0.5,
                },
                Objective {
                    name: "job_degraded".to_string(),
                    kind: SloKind::JobDegraded,
                    target: 0.5,
                },
            ],
            windows: vec![60],
        });
        engine.observe_job_at(1, 10, true, false);
        engine.observe_job_at(1, 10, false, true);
        let reports = engine.burn_rates_at(1);
        assert_eq!(reports[0].total_bad, 1, "one failed job");
        assert_eq!(reports[1].total_bad, 1, "one degraded job");
        assert_eq!(reports[0].total_good, 1);
        assert_eq!(reports[1].total_good, 1);
    }

    #[test]
    fn empty_window_has_zero_burn() {
        let engine = latency_only(1000, 0.99, vec![60]);
        let reports = engine.burn_rates_at(0);
        assert_eq!(reports[0].windows[0].burn_rate, 0.0);
    }

    #[test]
    fn env_grammar_parses() {
        let objectives =
            parse_objectives("job_latency:2000:0.95, job_errors:0.999,job_degraded:0.9").unwrap();
        assert_eq!(objectives.len(), 3);
        assert_eq!(
            objectives[0].kind,
            SloKind::JobLatency {
                threshold_us: 2_000_000
            }
        );
        assert_eq!(objectives[0].target, 0.95);
        assert!(parse_objectives("nonsense").is_none());
        assert!(parse_objectives("job_latency:abc:0.9").is_none());
        assert!(parse_objectives("job_errors:1.5").is_none());
    }

    #[test]
    fn exports_are_well_formed() {
        let engine = latency_only(1000, 0.99, vec![60, 300]);
        engine.observe_job_at(0, 2000, false, false);
        let prom = engine.to_prometheus();
        assert!(prom.contains("ilt_slo_burn_rate{objective=\"job_latency\",window=\"60s\"}"));
        assert!(prom.contains("ilt_slo_events_total{objective=\"job_latency\",outcome=\"bad\"} 1"));
        let json = engine.to_json();
        assert!(json.starts_with("{\"objectives\":["));
        assert!(json.contains("\"threshold_us\":1000"));
    }
}
