//! Convergence anomaly detection over per-iteration solver loss traces.
//!
//! Three failure shapes matter in practice for tiled ILT:
//!
//! * **stall** — the loss stops improving long before the iteration budget
//!   runs out (wasted compute, or a tile stuck in a bad basin);
//! * **divergence** — the loss increases over a sustained streak (a step
//!   size or preconditioner problem), or stops being a number;
//! * **oscillation** — the loss alternates up/down nearly every iteration
//!   (a step size at the stability boundary).
//!
//! [`detect`] reports at most one anomaly of each kind (the first
//! occurrence) so a 200-iteration stall does not produce 200 events.

use ilt_telemetry as tele;

// Detection thresholds, deliberately conservative: they flag traces a
// human would also call anomalous, not marginal ones.

/// Window length (iterations) for stall detection.
const STALL_WINDOW: usize = 5;
/// A window whose relative improvement is below this is a stall.
const STALL_REL_EPS: f64 = 1e-3;
/// Consecutive loss increases needed to call a divergence.
const DIVERGENCE_STREAK: usize = 3;
/// Window length (iterations) for oscillation detection.
const OSCILLATION_WINDOW: usize = 8;
/// Sign flips of the loss delta within the window needed to call an
/// oscillation (the window has `OSCILLATION_WINDOW - 2` possible flips).
const OSCILLATION_FLIPS: usize = 6;

/// The kind of convergence anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnomalyKind {
    /// Relative improvement below threshold across a window.
    Stall,
    /// Monotone loss increase across a streak, or a non-finite loss.
    Divergence,
    /// Near-perfect up/down alternation across a window.
    Oscillation,
}

impl AnomalyKind {
    /// The stable string code used in span fields and report JSON.
    fn code(self) -> &'static str {
        match self {
            AnomalyKind::Stall => "stall",
            AnomalyKind::Divergence => "divergence",
            AnomalyKind::Oscillation => "oscillation",
        }
    }
}

/// One detected anomaly, anchored to the iteration where it first met the
/// detection criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Anomaly {
    /// What went wrong.
    pub kind: AnomalyKind,
    /// 0-based index into the loss trace where detection fired.
    pub iteration: usize,
    /// Kind-specific magnitude: relative improvement for stalls, relative
    /// increase for divergences (the loss itself when it is not finite),
    /// flip count for oscillations.
    pub value: f64,
}

/// Emits one zero-length [`tele::names::ANOMALY`] span (fields `kind`,
/// `iteration`, `value`) per anomaly in `losses`, under the innermost open
/// span — the `solve` span the trace belongs to — and bumps the
/// `diag.anomalies` counter for each.
pub(crate) fn record(losses: &[f64]) {
    for a in detect(losses) {
        let mut span = tele::span(tele::names::ANOMALY);
        span.add_field("kind", a.kind.code());
        span.add_field("iteration", a.iteration);
        span.add_field("value", a.value);
        tele::counter_add("diag.anomalies", 1);
    }
}

/// Scans a per-iteration loss trace and returns at most one anomaly per
/// kind — the first iteration where each criterion was met — ordered by
/// iteration.
pub(crate) fn detect(losses: &[f64]) -> Vec<Anomaly> {
    let mut out = Vec::new();
    if let Some(a) = detect_divergence(losses) {
        out.push(a);
    }
    if let Some(a) = detect_stall(losses) {
        out.push(a);
    }
    if let Some(a) = detect_oscillation(losses) {
        out.push(a);
    }
    out.sort_by_key(|a| a.iteration);
    out
}

/// `delta` relative to `base`, or absolute where `base` is about zero.
fn relative(delta: f64, base: f64) -> f64 {
    if base.abs() > f64::EPSILON {
        delta / base.abs()
    } else {
        delta
    }
}

fn detect_divergence(losses: &[f64]) -> Option<Anomaly> {
    let mut streak = 0usize;
    for (i, &loss) in losses.iter().enumerate() {
        // Every comparison with NaN is false, so a diverged solve would
        // otherwise read as a streak breaker, never as an increase.
        if !loss.is_finite() {
            return Some(Anomaly {
                kind: AnomalyKind::Divergence,
                iteration: i,
                value: loss,
            });
        }
        if i > 0 && loss > losses[i - 1] {
            streak += 1;
            if streak >= DIVERGENCE_STREAK {
                let base = losses[i - streak];
                return Some(Anomaly {
                    kind: AnomalyKind::Divergence,
                    iteration: i,
                    value: relative(loss - base, base),
                });
            }
        } else {
            streak = 0;
        }
    }
    None
}

fn detect_stall(losses: &[f64]) -> Option<Anomaly> {
    let w = STALL_WINDOW;
    for i in w..losses.len() {
        let prev = losses[i - w];
        let rel = relative(prev - losses[i], prev);
        // Tiny movement in either direction is a stall; a large increase is
        // a divergence and is reported as such, not here.
        if rel.abs() < STALL_REL_EPS {
            return Some(Anomaly {
                kind: AnomalyKind::Stall,
                iteration: i,
                value: rel,
            });
        }
    }
    None
}

fn detect_oscillation(losses: &[f64]) -> Option<Anomaly> {
    let w = OSCILLATION_WINDOW;
    if losses.len() < w {
        return None;
    }
    for end in w..=losses.len() {
        let window = &losses[end - w..end];
        let mut flips = 0usize;
        for k in 2..window.len() {
            let d1 = window[k - 1] - window[k - 2];
            let d2 = window[k] - window[k - 1];
            if d1 * d2 < 0.0 {
                flips += 1;
            }
        }
        if flips >= OSCILLATION_FLIPS {
            return Some(Anomaly {
                kind: AnomalyKind::Oscillation,
                iteration: end - 1,
                value: flips as f64,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(anomalies: &[Anomaly]) -> Vec<AnomalyKind> {
        anomalies.iter().map(|a| a.kind).collect()
    }

    #[test]
    fn clean_decay_has_no_anomalies() {
        let losses: Vec<f64> = (0..40).map(|i| 100.0 * 0.9f64.powi(i)).collect();
        assert!(detect(&losses).is_empty());
    }

    #[test]
    fn flat_tail_is_a_stall() {
        let mut losses: Vec<f64> = (0..10).map(|i| 100.0 * 0.8f64.powi(i)).collect();
        losses.extend(std::iter::repeat_n(losses[9], 10));
        let found = detect(&losses);
        assert_eq!(kinds(&found), vec![AnomalyKind::Stall]);
        // Fires as soon as the window is flat, not at the trace end.
        assert!(found[0].iteration < losses.len() - 1);
    }

    #[test]
    fn rising_streak_is_a_divergence() {
        let losses = vec![10.0, 9.0, 8.0, 9.0, 10.5, 12.0, 14.0];
        let found = detect(&losses);
        assert!(kinds(&found).contains(&AnomalyKind::Divergence));
        let d = found
            .iter()
            .find(|a| a.kind == AnomalyKind::Divergence)
            .unwrap();
        assert_eq!(d.iteration, 5); // third consecutive increase
        assert!(d.value > 0.0);
    }

    #[test]
    fn alternating_trace_is_an_oscillation() {
        let losses: Vec<f64> = (0..16)
            .map(|i| 50.0 + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let found = detect(&losses);
        assert!(kinds(&found).contains(&AnomalyKind::Oscillation));
    }

    #[test]
    fn at_most_one_anomaly_per_kind() {
        // A long flat trace stalls at many windows; only the first reports.
        let losses = vec![5.0; 50];
        let found = detect(&losses);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::Stall);
        assert_eq!(found[0].iteration, STALL_WINDOW);
    }

    #[test]
    fn short_traces_are_never_anomalous() {
        for len in 0..3 {
            let losses = vec![1.0; len];
            assert!(detect(&losses).is_empty());
        }
    }

    #[test]
    fn first_non_finite_loss_is_a_divergence() {
        for (losses, at) in [
            (vec![10.0, 9.0, f64::NAN, f64::NAN, f64::NAN], 2),
            (vec![10.0, 9.0, 8.0, 7.5, f64::NAN, f64::NAN], 4),
            (vec![10.0, f64::INFINITY, 9.0], 1),
            (vec![f64::NAN; 12], 0),
        ] {
            let found = detect(&losses);
            let d = found
                .iter()
                .find(|a| a.kind == AnomalyKind::Divergence)
                .unwrap_or_else(|| panic!("no divergence in {losses:?}"));
            assert_eq!(d.iteration, at, "{losses:?}");
            assert!(!d.value.is_finite());
        }
    }
}
