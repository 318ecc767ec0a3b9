//! # ilt-bench
//!
//! Shared plumbing for `reproduce`, the one driver that regenerates every
//! table and figure of the paper's evaluation (see `DESIGN.md` for the
//! experiment-to-section index), and for the drills whose gates are
//! counts, quality digits or same-process ratios (`eco_smoke`,
//! `serve_load`, `memprofile`, `obs_overhead`, `report_diff`). Wall-clock
//! speed is not measured here: that is `benchmark/` (`BENCHMARK.json`).
//!
//! Environment knobs honoured by all binaries:
//!
//! * `ILT_SCALE` — `default` (the paper-ratio setup) or `tiny` (fast smoke
//!   runs);
//! * `ILT_CASES` — number of benchmark clips (default 20, the paper's
//!   count);
//! * `ILT_WORKERS` — worker threads for per-tile execution (default 1);
//!   tiles are the only unit of parallelism;
//! * `ILT_OUT` — output directory for CSV/PGM artifacts (default
//!   `results/`);
//! * `ILT_TRACE` — `1`/`true`/`on`/`yes` enables telemetry collection
//!   (counters, histograms, and every span of the run instead of the most
//!   recent ones); the trace artifacts written by
//!   [`HarnessOptions::finish_run`] land in the `ILT_OUT` directory.
//!
//! Invalid values of `ILT_SCALE`, `ILT_CASES` or `ILT_WORKERS` are
//! reported on stderr (naming the variable and the fallback used) instead
//! of being silently ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;

use ilt_core::ExperimentConfig;
use ilt_telemetry::Telemetry;
use ilt_tile::TileExecutor;

/// Runtime options shared by the bench binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Experiment configuration (scale-dependent).
    pub config: ExperimentConfig,
    /// The scale name the configuration was derived from (`"default"` or
    /// `"tiny"`).
    pub scale: String,
    /// Number of benchmark clips to run.
    pub cases: usize,
    /// Tile executor.
    pub workers: usize,
    /// Artifact output directory.
    pub out_dir: PathBuf,
}

impl HarnessOptions {
    /// Reads options from the environment (see the crate docs),
    /// initialises telemetry collection from `ILT_TRACE`, and arms the
    /// fault-injection registry from `ILT_FAULTS` (fault drills run the
    /// same binaries as clean benchmarks). A traced run keeps every span
    /// until [`finish_run`](Self::finish_run) drains them, so it lifts the
    /// span store's drop-oldest bound.
    pub fn from_env() -> Self {
        if ilt_telemetry::init_from_env() {
            ilt_telemetry::flight::set_capacity(usize::MAX);
        }
        ilt_telemetry::fault::configure_from_env();
        let scale = scale_or_warn(std::env::var("ILT_SCALE").ok());
        let config = match scale.as_str() {
            "tiny" => ExperimentConfig::test_tiny(),
            _ => ExperimentConfig::paper_default(),
        };
        let cases = ilt_telemetry::env_or_warn("ILT_CASES", 20usize).clamp(1, 20);
        let workers = ilt_telemetry::env_or_warn("ILT_WORKERS", 1usize).max(1);
        let out_dir = std::env::var("ILT_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        HarnessOptions {
            config,
            scale,
            cases,
            workers,
            out_dir,
        }
    }

    /// Prepares an [`ilt_core::Session`] for the configured experiment:
    /// the kernel bank (deduplicated process-wide via
    /// [`ilt_litho::shared_bank`], so repeated sessions are cache hits)
    /// plus the full-clip inspection system built once up front. Multi-case
    /// binaries should run everything through this so TCC/SOCS kernel
    /// construction and inspection setup happen once, not per case.
    ///
    /// # Panics
    ///
    /// Panics if kernel or inspection construction fails — unrecoverable
    /// for a harness.
    pub fn session(&self) -> ilt_core::Session {
        ilt_core::Session::new(self.config.clone()).expect("session setup failed")
    }

    /// The tile executor for the configured worker count.
    pub fn executor(&self) -> TileExecutor {
        TileExecutor::new(self.workers)
    }

    /// Ensures the artifact directory exists and returns a path inside it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn artifact(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("cannot create output directory");
        self.out_dir.join(name)
    }

    /// Finalises a run: drains the telemetry collected since startup and
    /// writes the machine-readable artifacts.
    ///
    /// Always writes `report.json` (schema `ilt-report/v2`) into the
    /// artifact directory. When tracing is enabled (`ILT_TRACE=1`), also
    /// writes `<binary>_events.jsonl` and `<binary>_trace.json` (Chrome
    /// `trace_event` format) beside it, renders the spatial diagnostic
    /// maps collected by `ilt-diag` (per-case EPE hotspot / seam mismatch /
    /// MRC overlay PGMs plus a `tile_quality.csv` matrix), and prints the
    /// span-tree summary.
    ///
    /// # Panics
    ///
    /// Panics if an artifact cannot be written — unrecoverable for a
    /// harness.
    pub fn finish_run(&self, binary: &str) {
        let trace_enabled = ilt_telemetry::enabled();
        let mut tele = ilt_telemetry::drain();
        if !trace_enabled {
            // What the bounded span store happens to hold is not a record
            // of this run; an untraced report carries no spans.
            tele.events.clear();
        }
        let diag = ilt_diag::sink::drain();
        let report = render_report(binary, self, &tele, trace_enabled, &diag);
        let path = self.artifact("report.json");
        std::fs::write(&path, report).expect("cannot write report.json");
        println!("wrote {}", path.display());
        if trace_enabled {
            let events_path = self.artifact(&format!("{binary}_events.jsonl"));
            std::fs::write(&events_path, tele.to_jsonl()).expect("cannot write JSONL event log");
            let trace_path = self.artifact(&format!("{binary}_trace.json"));
            std::fs::write(&trace_path, tele.to_chrome_trace()).expect("cannot write Chrome trace");
            println!("wrote {}", events_path.display());
            println!("wrote {}", trace_path.display());
            write_diag_artifacts(&self.out_dir, &diag);
            print!("{}", tele.render_tree());
        }
    }
}

/// Extra top-level report sections registered by the running binary before
/// [`HarnessOptions::finish_run`], keyed by section name. The ECO smoke
/// drill uses this to attach its `incremental` section (reuse accounting,
/// cold-vs-warm timing, quality deltas) to the standard `ilt-report/v2`
/// document, where `report_diff` gates it alongside quality.
static EXTRA_SECTIONS: std::sync::Mutex<Vec<(String, String)>> = std::sync::Mutex::new(Vec::new());

/// Registers (or replaces) an extra top-level `report.json` section. The
/// value must be a complete JSON document; it is embedded verbatim under
/// the given key by the next [`HarnessOptions::finish_run`]. Section names
/// must not collide with the standard `ilt-report/v2` keys — consumers
/// treat unknown sections as optional, so a report with extras stays
/// backwards-compatible.
pub fn set_report_section(name: &str, json: String) {
    let mut sections = EXTRA_SECTIONS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(slot) = sections.iter_mut().find(|(n, _)| n == name) {
        slot.1 = json;
    } else {
        sections.push((name.to_string(), json));
    }
}

/// Snapshot of the registered extra sections, in registration order.
fn extra_sections() -> Vec<(String, String)> {
    EXTRA_SECTIONS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Replaces every non-alphanumeric character with `_` so case and method
/// labels (which may contain spaces, colons, or slashes) form safe
/// filenames.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Writes the spatial diagnostic maps: for every traced case×method, the
/// EPE hotspot grid, seam mismatch map, and MRC overlay as PGM images,
/// plus a `tile_quality.csv` with one row per tile across all cases.
fn write_diag_artifacts(dir: &std::path::Path, diag: &ilt_diag::RunDiagnostics) {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for case in &diag.cases {
        let stem = format!("{}_{}", sanitize(&case.case), sanitize(&case.method));
        for (suffix, map) in [
            ("epe", &case.epe_heatmap),
            ("seam", &case.seam_map),
            ("mrc", &case.mrc_overlay),
        ] {
            let path = dir.join(format!("{stem}_{suffix}.pgm"));
            ilt_grid::io::write_pgm(&path, map).expect("cannot write diagnostic heatmap");
            println!("wrote {}", path.display());
        }
        for t in &case.tiles {
            rows.push(vec![
                case.case.clone(),
                case.method.clone(),
                t.tile.to_string(),
                t.epe_gauges.to_string(),
                format!("{:.3}", t.epe_p50),
                format!("{:.3}", t.epe_p95),
                t.epe_max.to_string(),
                t.epe_violations.to_string(),
                format!("{:.6}", t.stitch),
                t.mrc.to_string(),
            ]);
        }
    }
    if !rows.is_empty() {
        let path = dir.join("tile_quality.csv");
        ilt_grid::io::write_csv(
            &path,
            &[
                "case",
                "method",
                "tile",
                "epe_gauges",
                "epe_p50",
                "epe_p95",
                "epe_max",
                "epe_violations",
                "stitch",
                "mrc",
            ],
            &rows,
        )
        .expect("cannot write tile quality matrix");
        println!("wrote {}", path.display());
    }
}

/// Validates an `ILT_SCALE` value, warning on stderr for anything other
/// than the two recognised scales.
fn scale_or_warn(raw: Option<String>) -> String {
    match raw {
        Some(s) if s == "default" || s == "tiny" => s,
        Some(other) => {
            eprintln!(
                "warning: invalid ILT_SCALE={other:?} (expected \"default\" or \"tiny\"); \
                 using default \"default\""
            );
            "default".to_string()
        }
        None => "default".to_string(),
    }
}

/// Renders the `ilt-report/v2` run report: run parameters (among them
/// `kernel_body`, the compiled body the CPU probe chose for the FFT passes
/// and logistic sweeps — a timing means little without it), per-flow stage
/// summaries (with interpolated per-tile latency percentiles), merged
/// counters/gauges/histograms, the per-stage latency budget (queue wait
/// vs kernel build vs tile classes vs assembly), the diagnostics section
/// (convergence matrix, quality matrix, anomalies), and the nested span
/// tree. v2 is a strict superset of v1: every v1 field is unchanged, and
/// the `gauges`/`latency_budget`/`profile`/`memory` sections are optional
/// for report consumers (`report_diff` skips sections absent from either
/// side). `profile` appears only when the `ilt-prof` CPU sampler collected
/// anything this run; `memory` appears whenever RSS is readable
/// (`/proc/self/status`) or allocation tracking is on.
fn render_report(
    binary: &str,
    opts: &HarnessOptions,
    tele: &Telemetry,
    trace_enabled: bool,
    diag: &ilt_diag::RunDiagnostics,
) -> String {
    use ilt_telemetry::json;
    let mut out = String::from("{\"schema\":\"ilt-report/v2\",\"binary\":");
    json::push_str_literal(&mut out, binary);
    out.push_str(",\"scale\":");
    json::push_str_literal(&mut out, &opts.scale);
    let _ = write!(
        out,
        ",\"cases\":{},\"workers\":{},\"kernel_body\":\"{}\",\"trace_enabled\":{}",
        opts.cases,
        opts.workers,
        ilt_fft::simd::body_name(),
        trace_enabled
    );
    out.push_str(",\"flows\":[");
    for (i, flow) in tele.flow_summaries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::push_str_literal(&mut out, &flow.name);
        out.push_str(",\"seconds\":");
        json::push_f64(&mut out, flow.seconds);
        out.push_str(",\"stages\":[");
        for (j, stage) in flow.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            json::push_str_literal(&mut out, &stage.label);
            out.push_str(",\"seconds\":");
            json::push_f64(&mut out, stage.seconds);
            let _ = write!(
                out,
                ",\"tile_count\":{},\"tile_seconds\":",
                stage.tile_count
            );
            json::push_f64(&mut out, stage.tile_seconds);
            out.push_str(",\"assembly_seconds\":");
            json::push_f64(&mut out, stage.assembly_seconds);
            let (p50, p95, p99) = stage.tile_us_percentiles();
            out.push_str(",\"tile_us_p50\":");
            json::push_f64(&mut out, p50);
            out.push_str(",\"tile_us_p95\":");
            json::push_f64(&mut out, p95);
            out.push_str(",\"tile_us_p99\":");
            json::push_f64(&mut out, p99);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("],\"counters\":{");
    for (i, (name, v)) in tele.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_literal(&mut out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in tele.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_literal(&mut out, name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99)
        );
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in tele.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_literal(&mut out, name);
        out.push(':');
        json::push_f64(&mut out, *v);
    }
    out.push('}');
    for (name, section) in extra_sections() {
        out.push(',');
        json::push_str_literal(&mut out, &name);
        out.push(':');
        out.push_str(&section);
    }
    push_profile_section(&mut out);
    push_memory_section(&mut out);
    out.push_str(",\"latency_budget\":");
    out.push_str(&tele.latency_budget().to_json());
    out.push_str(",\"diagnostics\":");
    out.push_str(&ilt_diag::render_diagnostics_json(diag));
    out.push_str(",\"spans\":");
    out.push_str(&tele.span_tree_json());
    out.push('}');
    out
}

/// Appends the optional `profile` report section: CPU-sampler state, the
/// top self-time frames, and the per-stage sample split. Skipped entirely
/// when the sampler neither ran nor collected anything, so reports from
/// unprofiled runs keep the pre-profiling shape.
fn push_profile_section(out: &mut String) {
    use ilt_telemetry::json;
    let (samples, ticks) = ilt_prof::cpu::sample_counts();
    if samples == 0 && !ilt_prof::sampler_running() {
        return;
    }
    out.push_str(",\"profile\":{\"sampler_hz\":");
    json::push_f64(out, ilt_prof::sampler_hz());
    let _ = write!(out, ",\"samples\":{samples},\"ticks\":{ticks}");
    out.push_str(",\"top_self\":[");
    for (i, (frame, n)) in ilt_prof::cpu::top_self(20).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"frame\":");
        json::push_str_literal(out, frame);
        let _ = write!(out, ",\"samples\":{n}}}");
    }
    out.push_str("],\"samples_per_stage\":{");
    for (i, (stage, n)) in ilt_prof::cpu::samples_per_stage().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_literal(out, stage);
        let _ = write!(out, ":{n}");
    }
    out.push_str("}}");
}

/// Appends the optional `memory` report section: current/peak RSS plus,
/// when the tracking allocator is on, global and per-stage allocation
/// counters.
fn push_memory_section(out: &mut String) {
    use ilt_telemetry::json;
    let rss = ilt_prof::rss::read();
    let alloc = ilt_prof::alloc::stats();
    if rss.is_none() && !alloc.enabled {
        return;
    }
    out.push_str(",\"memory\":{");
    let (current, peak) = rss.map_or((0, 0), |r| (r.current_bytes, r.peak_bytes));
    let _ = write!(
        out,
        "\"current_rss_bytes\":{current},\"peak_rss_bytes\":{peak}"
    );
    if alloc.enabled {
        let _ = write!(
            out,
            ",\"alloc\":{{\"allocated_bytes\":{},\"allocation_calls\":{},\
             \"freed_bytes\":{},\"free_calls\":{},\"live_bytes\":{},\
             \"peak_live_bytes\":{},\"stages\":{{",
            alloc.allocated_bytes,
            alloc.allocation_calls,
            alloc.freed_bytes,
            alloc.free_calls,
            alloc.live_bytes,
            alloc.peak_live_bytes
        );
        for (i, s) in alloc.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_literal(out, s.stage.name());
            let _ = write!(out, ":{{\"bytes\":{},\"calls\":{}}}", s.bytes, s.calls);
        }
        out.push_str("}}");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Do not set env vars (tests run in parallel); just exercise the
        // parsing path with whatever the environment holds.
        let opts = HarnessOptions::from_env();
        assert!(opts.cases >= 1 && opts.cases <= 20);
        assert!(opts.workers >= 1);
        assert!(opts.scale == "default" || opts.scale == "tiny");
    }

    #[test]
    fn invalid_scale_falls_back() {
        assert_eq!(scale_or_warn(Some("tiny".into())), "tiny");
        assert_eq!(scale_or_warn(Some("huge".into())), "default");
        assert_eq!(scale_or_warn(None), "default");
    }

    #[test]
    fn report_is_valid_shape() {
        let opts = HarnessOptions {
            config: ExperimentConfig::test_tiny(),
            scale: "tiny".to_string(),
            cases: 1,
            workers: 1,
            out_dir: PathBuf::from("results"),
        };
        let report = render_report(
            "smoke",
            &opts,
            &Telemetry::default(),
            false,
            &ilt_diag::RunDiagnostics::default(),
        );
        assert!(report.starts_with("{\"schema\":\"ilt-report/v2\""));
        assert!(report.contains("\"binary\":\"smoke\""));
        assert!(report.contains("\"scale\":\"tiny\""));
        assert!(report.contains("\"trace_enabled\":false"));
        assert!(report.contains(&format!(
            "\"kernel_body\":\"{}\"",
            ilt_fft::simd::body_name()
        )));
        assert!(report.ends_with('}'));
        // The whole report must be well-formed JSON with the v2 sections in
        // place (empty, since no telemetry was collected).
        let json = ilt_json::Json::parse(&report).expect("report parses");
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
        // On Linux the RSS reader always has something to say, so every
        // report carries the memory section.
        #[cfg(target_os = "linux")]
        {
            let memory = json.get("memory").expect("memory section");
            assert!(
                memory
                    .get("peak_rss_bytes")
                    .and_then(|v| v.as_f64())
                    .is_some_and(|v| v > 0.0),
                "peak_rss_bytes is a positive number"
            );
        }
    }

    #[test]
    fn profile_section_renders_after_a_sample() {
        ilt_telemetry::set_enabled(true);
        ilt_telemetry::flight::set_recording(true);
        {
            let mut flow = ilt_telemetry::span(ilt_telemetry::names::FLOW);
            flow.add_field("name", "profile shape test");
            ilt_prof::sample_now();
        }
        let opts = HarnessOptions {
            config: ExperimentConfig::test_tiny(),
            scale: "tiny".to_string(),
            cases: 1,
            workers: 1,
            out_dir: PathBuf::from("results"),
        };
        let report = render_report(
            "smoke",
            &opts,
            &Telemetry::default(),
            false,
            &ilt_diag::RunDiagnostics::default(),
        );
        let json = ilt_json::Json::parse(&report).expect("report parses");
        let profile = json.get("profile").expect("profile section");
        assert!(
            profile
                .get("samples")
                .and_then(|v| v.as_u64())
                .is_some_and(|v| v > 0),
            "sample recorded"
        );
        assert!(
            profile
                .get("top_self")
                .and_then(|v| v.as_arr())
                .is_some_and(|a| !a.is_empty()),
            "top_self has the sampled frame"
        );
        assert!(
            profile.get("samples_per_stage").is_some(),
            "samples_per_stage present"
        );
    }

    #[test]
    fn extra_sections_land_in_the_report() {
        let opts = HarnessOptions {
            config: ExperimentConfig::test_tiny(),
            scale: "tiny".to_string(),
            cases: 1,
            workers: 1,
            out_dir: PathBuf::from("results"),
        };
        set_report_section("extra_section_test", "{\"speedup\":3.5}".to_string());
        // Replacement by name, not duplication.
        set_report_section("extra_section_test", "{\"speedup\":4.0}".to_string());
        let report = render_report(
            "smoke",
            &opts,
            &Telemetry::default(),
            false,
            &ilt_diag::RunDiagnostics::default(),
        );
        let json = ilt_json::Json::parse(&report).expect("report parses");
        assert_eq!(
            json.path(&["extra_section_test", "speedup"])
                .and_then(|v| v.as_f64()),
            Some(4.0)
        );
        assert_eq!(report.matches("extra_section_test").count(), 1);
    }
}
