//! Job specifications and lifecycle state.
//!
//! A job names **what to optimise** (a benchmark-suite case or an inline
//! layout spec), **how** (one of the four Table 1 methods), and **at which
//! scale** (`tiny` or `default`, the same scales `ILT_SCALE` selects for
//! the batch binaries), plus an optional deadline. Specs arrive as JSON in
//! `POST /v1/jobs` bodies and are parsed with the shared strict parser
//! ([`ilt_json`]); results are rendered back to JSON for
//! `GET /v1/jobs/{id}`.

use std::fmt::Write as _;

use ilt_core::experiment::Method;
use ilt_json::Json;
use ilt_telemetry::json::{push_f64, push_str_literal};

/// Where the job's target layout comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseSource {
    /// Case `k` of the deterministic benchmark suite (1-based, `1..=20`).
    Suite(usize),
    /// An inline layout spec: a seeded generator run at the scale's clip
    /// size with optional geometry overrides.
    Inline(InlineLayout),
    /// An incremental (ECO) re-solve: the layout of a previously submitted
    /// job with a rectangular edit applied. The worker diffs the edited
    /// layout against the base, reuses clean tiles from the mask store,
    /// and re-solves only the dirty set.
    Eco {
        /// Id of the base job whose target the edit applies to.
        base_job: u64,
        /// The rectangular edit.
        edit: EcoEdit,
    },
}

/// A rectangular layout edit: pixels in `[x0, x1) x [y0, y1)` are set to
/// `fill` (1 draws metal, 0 clears it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcoEdit {
    /// Left edge (inclusive).
    pub x0: usize,
    /// Top edge (inclusive).
    pub y0: usize,
    /// Right edge (exclusive).
    pub x1: usize,
    /// Bottom edge (exclusive).
    pub y1: usize,
    /// Value written into the rectangle (0 or 1).
    pub fill: u8,
}

/// Geometry overrides for an inline layout. Unset fields keep the scale's
/// defaults; the clip size is always the scale's (flows require it).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InlineLayout {
    /// Generator seed.
    pub seed: u64,
    /// Drawn wire width in pixels.
    pub wire_width: Option<usize>,
    /// Minimum wire spacing in pixels.
    pub wire_space: Option<usize>,
    /// Probability that a lattice cell on a track carries metal.
    pub track_fill: Option<f64>,
}

/// One admitted job, as parsed from a `POST /v1/jobs` body.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Target layout source.
    pub source: CaseSource,
    /// Which flow to run.
    pub method: Method,
    /// Scale name: `"tiny"` or `"default"`.
    pub scale: String,
    /// Optional coarse-hierarchy depth override: the coarsest Schwarz level
    /// runs at scale `s_max` (power of two; the hierarchy then has
    /// `log2(s_max) + 1` levels). Unset keeps the scale's default.
    pub s_max: Option<usize>,
    /// Optional deadline in milliseconds from admission. Jobs that exceed
    /// it — whether still queued or mid-solve — report `failed`.
    pub timeout_ms: Option<u64>,
}

impl JobSpec {
    /// Parses a job spec from a request body.
    ///
    /// Accepted fields: `case` (integer 1..=20) **or** `layout` (object
    /// with `seed` and optional `wire_width` / `wire_space` /
    /// `track_fill`) **or** `base_job` + `edit` (incremental ECO re-solve:
    /// `base_job` names a prior job id, `edit` is
    /// `{"rect": [x0, y0, x1, y1], "fill": 0|1}`), `method` (`"ours"`,
    /// `"gls-dnc"`, `"multi-level-dnc"`, `"full-chip"`; default `"ours"`;
    /// ECO jobs accept only `"ours"`), `scale` (`"tiny"` or `"default"`;
    /// default `"tiny"`), `s_max` (power of two whose coarsest level still
    /// fits the scale's clip), `timeout_ms` (positive integer). Unknown
    /// keys, among them the retired `stream`, are ignored.
    ///
    /// # Errors
    ///
    /// Returns a client-safe message describing the first violation.
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let json = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let Json::Obj(_) = json else {
            return Err("job spec must be a JSON object".to_string());
        };
        let case = json.get("case");
        let layout = json.get("layout");
        let base_job = json.get("base_job");
        let edit = json.get("edit");
        let source = match (case, layout, base_job) {
            (Some(_), Some(_), _) | (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => {
                return Err("give exactly one of \"case\", \"layout\", or \"base_job\"".to_string())
            }
            (None, None, None) => {
                return Err("job spec needs a \"case\", a \"layout\", or a \"base_job\"".to_string())
            }
            (Some(c), None, None) => {
                if edit.is_some() {
                    return Err("\"edit\" requires a \"base_job\"".to_string());
                }
                let id = c
                    .as_u64()
                    .filter(|id| (1..=20).contains(id))
                    .ok_or_else(|| "\"case\" must be an integer in 1..=20".to_string())?;
                CaseSource::Suite(id as usize)
            }
            (None, Some(spec), None) => {
                if edit.is_some() {
                    return Err("\"edit\" requires a \"base_job\"".to_string());
                }
                CaseSource::Inline(parse_layout(spec)?)
            }
            (None, None, Some(base)) => {
                let base_job = base
                    .as_u64()
                    .or_else(|| base.as_str().and_then(|s| s.parse().ok()))
                    .ok_or_else(|| "\"base_job\" must be a job id".to_string())?;
                let edit = edit.ok_or_else(|| "\"base_job\" needs an \"edit\"".to_string())?;
                CaseSource::Eco {
                    base_job,
                    edit: parse_edit(edit)?,
                }
            }
        };
        let method = match json.get("method").map(|m| m.as_str()) {
            None => Method::Ours,
            Some(Some(name)) => parse_method(name)?,
            Some(None) => return Err("\"method\" must be a string".to_string()),
        };
        if method != Method::Ours && matches!(source, CaseSource::Eco { .. }) {
            return Err("incremental jobs support only method \"ours\"".to_string());
        }
        let scale = match json.get("scale").map(|s| s.as_str()) {
            None => "tiny".to_string(),
            Some(Some(s)) if s == "tiny" || s == "default" => s.to_string(),
            Some(_) => return Err("\"scale\" must be \"tiny\" or \"default\"".to_string()),
        };
        let s_max = match json.get("s_max") {
            None => None,
            Some(v) => {
                let s = v
                    .as_u64()
                    .filter(|s| *s >= 1 && s.is_power_of_two())
                    .ok_or_else(|| "\"s_max\" must be a power of two (1, 2, 4, ...)".to_string())?
                    as usize;
                let config =
                    crate::cache::config_for_scale(&scale).expect("scale validated just above");
                if s * config.partition.tile > config.clip {
                    return Err(format!(
                        "\"s_max\" {s} puts the coarsest level at {} pixels, larger than \
                         the {} scale's {}-pixel clip",
                        s * config.partition.tile,
                        scale,
                        config.clip
                    ));
                }
                Some(s)
            }
        };
        let timeout_ms = match json.get("timeout_ms") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|ms| *ms > 0)
                    .ok_or_else(|| "\"timeout_ms\" must be a positive integer".to_string())?,
            ),
        };
        Ok(JobSpec {
            source,
            method,
            scale,
            s_max,
            timeout_ms,
        })
    }

    /// A short human label for the job's target (`"case3"`,
    /// `"inline:seed=7"`, or `"eco:base=4"`).
    pub fn target_label(&self) -> String {
        match &self.source {
            CaseSource::Suite(id) => format!("case{id}"),
            CaseSource::Inline(l) => format!("inline:seed={}", l.seed),
            CaseSource::Eco { base_job, .. } => format!("eco:base={base_job}"),
        }
    }
}

fn parse_edit(edit: &Json) -> Result<EcoEdit, String> {
    let Json::Obj(_) = edit else {
        return Err("\"edit\" must be a JSON object".to_string());
    };
    let rect = edit
        .get("rect")
        .ok_or_else(|| "\"edit\" needs a \"rect\"".to_string())?
        .as_arr()
        .filter(|a| a.len() == 4)
        .ok_or_else(|| "\"edit.rect\" must be [x0, y0, x1, y1]".to_string())?;
    let mut coords = [0usize; 4];
    for (slot, value) in coords.iter_mut().zip(rect) {
        *slot =
            value.as_u64().filter(|c| *c <= 1 << 20).ok_or_else(|| {
                "\"edit.rect\" coordinates must be non-negative integers".to_string()
            })? as usize;
    }
    let [x0, y0, x1, y1] = coords;
    if x0 >= x1 || y0 >= y1 {
        return Err("\"edit.rect\" must be non-empty (x0 < x1 and y0 < y1)".to_string());
    }
    let fill = match edit.get("fill") {
        None => 1,
        Some(v) => v
            .as_u64()
            .filter(|f| *f <= 1)
            .ok_or_else(|| "\"edit.fill\" must be 0 or 1".to_string())? as u8,
    };
    Ok(EcoEdit {
        x0,
        y0,
        x1,
        y1,
        fill,
    })
}

fn parse_layout(spec: &Json) -> Result<InlineLayout, String> {
    let Json::Obj(_) = spec else {
        return Err("\"layout\" must be a JSON object".to_string());
    };
    let seed = spec
        .get("seed")
        .ok_or_else(|| "\"layout\" needs a \"seed\"".to_string())?
        .as_u64()
        .ok_or_else(|| "\"layout.seed\" must be a non-negative integer".to_string())?;
    let dim = |name: &str| -> Result<Option<usize>, String> {
        match spec.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .filter(|n| (1..=1024).contains(n))
                .map(|n| Some(n as usize))
                .ok_or_else(|| format!("\"layout.{name}\" must be an integer in 1..=1024")),
        }
    };
    let track_fill = match spec.get("track_fill") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|f| (0.0..=1.0).contains(f))
                .ok_or_else(|| "\"layout.track_fill\" must be in [0, 1]".to_string())?,
        ),
    };
    Ok(InlineLayout {
        seed,
        wire_width: dim("wire_width")?,
        wire_space: dim("wire_space")?,
        track_fill,
    })
}

fn parse_method(name: &str) -> Result<Method, String> {
    match name {
        "ours" => Ok(Method::Ours),
        "gls-dnc" => Ok(Method::GlsDnc),
        "multi-level-dnc" => Ok(Method::MultiLevelDnc),
        "full-chip" => Ok(Method::FullChip),
        other => Err(format!(
            "unknown method {other:?} (expected \"ours\", \"gls-dnc\", \
             \"multi-level-dnc\", or \"full-chip\")"
        )),
    }
}

/// Wire name of a method (the inverse of the `"method"` field parser).
pub fn method_name(method: Method) -> &'static str {
    match method {
        Method::Ours => "ours",
        Method::GlsDnc => "gls-dnc",
        Method::MultiLevelDnc => "multi-level-dnc",
        Method::FullChip => "full-chip",
    }
}

/// Table 1 quality metrics of a finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// L2 loss in pixels.
    pub l2: usize,
    /// PVBand area in pixels.
    pub pvband: usize,
    /// Stitch loss.
    pub stitch: f64,
    /// Solver turn-around time in seconds (excludes queue wait).
    pub tat_seconds: f64,
}

/// Summary of the optimised mask (the full grid stays server-side).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskSummary {
    /// Mask width in pixels.
    pub width: usize,
    /// Mask height in pixels.
    pub height: usize,
    /// Pixels on after binarisation at 0.5.
    pub on_pixels: usize,
    /// `on_pixels / (width * height)`.
    pub coverage: f64,
}

/// Reuse accounting of an incremental (ECO) job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalStats {
    /// Clean tiles served verbatim from the mask store.
    pub tiles_reused: usize,
    /// Dirty tiles that re-solved (warm-started when the base was stored).
    pub tiles_resolved: usize,
    /// `tiles_reused / (tiles_reused + tiles_resolved)`.
    pub hit_ratio: f64,
}

/// Everything a successful job reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Quality metrics over the whole clip.
    pub metrics: JobMetrics,
    /// Optimised-mask summary.
    pub mask: MaskSummary,
    /// Reuse accounting; present only on incremental (ECO) jobs.
    pub incremental: Option<IncrementalStats>,
    /// Tiles that fell back to their coarse-grid mask after fine-stage
    /// failures. Zero on a healthy run; non-zero means the mask is
    /// complete but locally at coarse quality — check the run report's
    /// diagnostics for which tiles.
    pub tiles_degraded: usize,
    /// Seconds the job waited in the queue before a worker picked it up.
    pub queue_seconds: f64,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished successfully.
    Done(JobOutcome),
    /// Failed (solver error, panic, or deadline exceeded).
    Failed(String),
}

impl JobStatus {
    /// Wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// One job in the registry.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (also the path segment of `GET /v1/jobs/{id}`).
    pub id: u64,
    /// Trace id attributing every span the job produces (see
    /// `ilt_telemetry::trace_scope`); surfaced in the status JSON so
    /// clients can fetch `/debug/jobs/{id}/trace`.
    pub trace: u64,
    /// The spec as admitted.
    pub spec: JobSpec,
    /// Current state.
    pub status: JobStatus,
}

impl JobRecord {
    /// Renders the job as the response body of `GET /v1/jobs/{id}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"trace\":{},\"status\":",
            self.id, self.trace
        );
        push_str_literal(&mut out, self.status.name());
        out.push_str(",\"target\":");
        push_str_literal(&mut out, &self.spec.target_label());
        out.push_str(",\"method\":");
        push_str_literal(&mut out, method_name(self.spec.method));
        out.push_str(",\"scale\":");
        push_str_literal(&mut out, &self.spec.scale);
        if let Some(s) = self.spec.s_max {
            let _ = write!(out, ",\"s_max\":{s}");
        }
        if let Some(ms) = self.spec.timeout_ms {
            let _ = write!(out, ",\"timeout_ms\":{ms}");
        }
        match &self.status {
            JobStatus::Queued | JobStatus::Running => {}
            JobStatus::Failed(error) => {
                out.push_str(",\"error\":");
                push_str_literal(&mut out, error);
            }
            JobStatus::Done(outcome) => {
                let m = &outcome.metrics;
                let _ = write!(
                    out,
                    ",\"metrics\":{{\"l2\":{},\"pvband\":{},\"stitch\":",
                    m.l2, m.pvband
                );
                push_f64(&mut out, m.stitch);
                out.push_str(",\"tat_seconds\":");
                push_f64(&mut out, m.tat_seconds);
                out.push_str("},\"mask\":{");
                let k = &outcome.mask;
                let _ = write!(
                    out,
                    "\"width\":{},\"height\":{},\"on_pixels\":{},\"coverage\":",
                    k.width, k.height, k.on_pixels
                );
                push_f64(&mut out, k.coverage);
                let _ = write!(out, "}},\"tiles_degraded\":{}", outcome.tiles_degraded);
                if let Some(inc) = &outcome.incremental {
                    let _ = write!(
                        out,
                        ",\"incremental\":{{\"tiles_reused\":{},\"tiles_resolved\":{},\
                         \"hit_ratio\":",
                        inc.tiles_reused, inc.tiles_resolved
                    );
                    push_f64(&mut out, inc.hit_ratio);
                    out.push('}');
                }
                out.push_str(",\"queue_seconds\":");
                push_f64(&mut out, outcome.queue_seconds);
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_suite_job() {
        let spec =
            JobSpec::parse(r#"{"case": 3, "method": "ours", "scale": "tiny", "timeout_ms": 5000}"#)
                .unwrap();
        assert_eq!(spec.source, CaseSource::Suite(3));
        assert_eq!(spec.method, Method::Ours);
        assert_eq!(spec.scale, "tiny");
        assert_eq!(spec.timeout_ms, Some(5000));
        assert_eq!(spec.target_label(), "case3");
    }

    #[test]
    fn defaults_are_ours_at_tiny_scale() {
        let spec = JobSpec::parse(r#"{"case": 1}"#).unwrap();
        assert_eq!(spec.method, Method::Ours);
        assert_eq!(spec.scale, "tiny");
        assert_eq!(spec.s_max, None);
        assert_eq!(spec.timeout_ms, None);
    }

    #[test]
    fn parses_the_hierarchy_override_and_ignores_unknown_keys() {
        // Tiny scale: clip 128, tile 64 — s_max 2 is the deepest that fits.
        // `stream` is not a job field: like any unknown key it is ignored
        // whatever its value.
        let spec = JobSpec::parse(r#"{"case": 1, "s_max": 2, "stream": "yes"}"#).unwrap();
        assert_eq!(spec.s_max, Some(2));
        assert_eq!(spec, JobSpec::parse(r#"{"case": 1, "s_max": 2}"#).unwrap());
        let record = JobRecord {
            id: 1,
            trace: 1,
            spec,
            status: JobStatus::Queued,
        };
        let body = record.to_json();
        assert!(body.contains("\"s_max\":2"));
        assert!(!body.contains("stream"));
    }

    #[test]
    fn rejects_hierarchies_that_overflow_the_clip() {
        for (body, needle) in [
            (r#"{"case": 1, "s_max": 3}"#, "power of two"),
            (r#"{"case": 1, "s_max": 0}"#, "power of two"),
            (r#"{"case": 1, "s_max": 4}"#, "larger than"),
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn parses_an_inline_layout_job() {
        let spec = JobSpec::parse(
            r#"{"layout": {"seed": 7, "wire_width": 9, "track_fill": 0.5}, "method": "full-chip"}"#,
        )
        .unwrap();
        let CaseSource::Inline(layout) = &spec.source else {
            panic!("expected inline source");
        };
        assert_eq!(layout.seed, 7);
        assert_eq!(layout.wire_width, Some(9));
        assert_eq!(layout.wire_space, None);
        assert_eq!(layout.track_fill, Some(0.5));
        assert_eq!(spec.method, Method::FullChip);
        assert_eq!(spec.target_label(), "inline:seed=7");
    }

    #[test]
    fn parses_an_eco_job() {
        let spec = JobSpec::parse(
            r#"{"base_job": 4, "edit": {"rect": [10, 10, 18, 18], "fill": 0}, "scale": "tiny"}"#,
        )
        .unwrap();
        let CaseSource::Eco { base_job, edit } = spec.source else {
            panic!("expected eco source");
        };
        assert_eq!(base_job, 4);
        assert_eq!((edit.x0, edit.y0, edit.x1, edit.y1), (10, 10, 18, 18));
        assert_eq!(edit.fill, 0);
        assert_eq!(spec.method, Method::Ours);
        assert_eq!(spec.target_label(), "eco:base=4");
    }

    #[test]
    fn eco_base_job_accepts_the_string_ids_the_server_hands_out() {
        // `POST /v1/jobs` responds with `"id":"4"`, so clients echo strings.
        let spec = JobSpec::parse(r#"{"base_job": "4", "edit": {"rect": [0, 0, 8, 8]}}"#).unwrap();
        let CaseSource::Eco { base_job, edit } = spec.source else {
            panic!("expected eco source");
        };
        assert_eq!(base_job, 4);
        assert_eq!(edit.fill, 1, "fill defaults to drawing metal");
    }

    #[test]
    fn rejects_bad_specs() {
        for (body, needle) in [
            ("[]", "object"),
            ("{}", "needs"),
            (r#"{"case": 1, "layout": {"seed": 1}}"#, "exactly one"),
            (
                r#"{"case": 1, "base_job": 2, "edit": {"rect": [0,0,1,1]}}"#,
                "exactly one",
            ),
            (
                r#"{"case": 1, "edit": {"rect": [0,0,1,1]}}"#,
                "requires a \"base_job\"",
            ),
            (r#"{"base_job": 2}"#, "needs an \"edit\""),
            (r#"{"base_job": 2, "edit": {}}"#, "needs a \"rect\""),
            (
                r#"{"base_job": 2, "edit": {"rect": [0,0,1]}}"#,
                "[x0, y0, x1, y1]",
            ),
            (
                r#"{"base_job": 2, "edit": {"rect": [5,0,5,8]}}"#,
                "non-empty",
            ),
            (
                r#"{"base_job": 2, "edit": {"rect": [0,0,8,8], "fill": 2}}"#,
                "0 or 1",
            ),
            (
                r#"{"base_job": 2, "edit": {"rect": [0,0,8,8]}, "method": "full-chip"}"#,
                "only method",
            ),
            (r#"{"base_job": -1, "edit": {"rect": [0,0,8,8]}}"#, "job id"),
            (r#"{"case": 0}"#, "1..=20"),
            (r#"{"case": 21}"#, "1..=20"),
            (r#"{"case": 1.5}"#, "1..=20"),
            (r#"{"case": 1, "method": "magic"}"#, "unknown method"),
            (r#"{"case": 1, "scale": "huge"}"#, "scale"),
            (r#"{"case": 1, "timeout_ms": 0}"#, "positive"),
            (r#"{"layout": {}}"#, "seed"),
            (r#"{"layout": {"seed": 1, "wire_width": 0}}"#, "1..=1024"),
            (r#"{"layout": {"seed": 1, "track_fill": 1.5}}"#, "[0, 1]"),
            ("{", "invalid JSON"),
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn every_method_name_round_trips() {
        for method in Method::all() {
            let body = format!(r#"{{"case": 1, "method": "{}"}}"#, method_name(method));
            assert_eq!(JobSpec::parse(&body).unwrap().method, method);
        }
    }

    #[test]
    fn record_json_carries_state_specific_fields() {
        let spec = JobSpec::parse(r#"{"case": 2}"#).unwrap();
        let mut record = JobRecord {
            id: 5,
            trace: 41,
            spec,
            status: JobStatus::Queued,
        };
        let queued = record.to_json();
        assert!(queued.contains("\"status\":\"queued\""));
        assert!(queued.contains("\"trace\":41"));
        assert!(!queued.contains("metrics"));
        record.status = JobStatus::Done(JobOutcome {
            metrics: JobMetrics {
                l2: 100,
                pvband: 50,
                stitch: 1.25,
                tat_seconds: 0.5,
            },
            mask: MaskSummary {
                width: 128,
                height: 128,
                on_pixels: 4096,
                coverage: 0.25,
            },
            incremental: None,
            tiles_degraded: 2,
            queue_seconds: 0.1,
        });
        let done = record.to_json();
        assert!(done.contains("\"status\":\"done\""));
        assert!(done.contains("\"l2\":100"));
        assert!(done.contains("\"coverage\":0.25"));
        let parsed = Json::parse(&done).expect("well-formed job JSON");
        assert_eq!(
            parsed.path(&["metrics", "pvband"]).and_then(|v| v.as_u64()),
            Some(50)
        );
        assert_eq!(
            parsed.path(&["tiles_degraded"]).and_then(|v| v.as_u64()),
            Some(2)
        );
        record.status = JobStatus::Failed("deadline exceeded".into());
        let failed = record.to_json();
        assert!(failed.contains("\"error\":\"deadline exceeded\""));
    }

    #[test]
    fn incremental_stats_render_only_when_present() {
        let spec = JobSpec::parse(r#"{"base_job": 1, "edit": {"rect": [0, 0, 8, 8]}}"#).unwrap();
        let mut outcome = JobOutcome {
            metrics: JobMetrics {
                l2: 10,
                pvband: 5,
                stitch: 0.5,
                tat_seconds: 0.1,
            },
            mask: MaskSummary {
                width: 128,
                height: 128,
                on_pixels: 64,
                coverage: 0.004,
            },
            incremental: Some(IncrementalStats {
                tiles_reused: 5,
                tiles_resolved: 4,
                hit_ratio: 5.0 / 9.0,
            }),
            tiles_degraded: 0,
            queue_seconds: 0.0,
        };
        let record = |outcome: &JobOutcome| JobRecord {
            id: 9,
            trace: 1,
            spec: spec.clone(),
            status: JobStatus::Done(outcome.clone()),
        };
        let body = record(&outcome).to_json();
        let parsed = Json::parse(&body).expect("well-formed eco job JSON");
        assert_eq!(
            parsed
                .path(&["incremental", "tiles_reused"])
                .and_then(|v| v.as_u64()),
            Some(5)
        );
        assert_eq!(
            parsed
                .path(&["incremental", "tiles_resolved"])
                .and_then(|v| v.as_u64()),
            Some(4)
        );
        assert!(body.contains("\"target\":\"eco:base=1\""));
        outcome.incremental = None;
        assert!(!record(&outcome).to_json().contains("incremental"));
    }
}
