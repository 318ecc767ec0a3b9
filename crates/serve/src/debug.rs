//! Renderers for the live `/debug` introspection endpoints.
//!
//! Everything here reads *copies* — a flight-recorder snapshot, a job-list
//! excerpt, cache counts — gathered by the route handler in one short
//! registry lock, so rendering never holds a job-path lock. The functions
//! take plain data and return JSON strings, which keeps them unit-testable
//! without a running server.

use std::collections::BTreeMap;

use ilt_store::{EntryView, StoreStats};
use ilt_telemetry as tele;
use ilt_telemetry::json::{push_f64, push_str_literal};

/// One job's debug-view row (a cheap excerpt of the tracked record).
#[derive(Debug, Clone)]
pub(crate) struct JobDebug {
    pub id: u64,
    pub trace: u64,
    pub status: &'static str,
    pub target: String,
    pub method: &'static str,
    /// Milliseconds since the job was enqueued.
    pub age_ms: u64,
}

/// `GET /debug/queue`: admission state plus the most recent jobs (newest
/// first), each with its trace id so `/debug/jobs/{id}/trace` is one hop
/// away.
pub(crate) fn render_queue(
    depth: usize,
    capacity: usize,
    draining: bool,
    jobs: &[JobDebug],
) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"queue_depth\":{depth},\"queue_capacity\":{capacity},\"draining\":{draining},\"jobs\":["
    ));
    for (i, job) in jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"trace\":{},\"status\":",
            job.id, job.trace
        ));
        push_str_literal(&mut out, job.status);
        out.push_str(",\"target\":");
        push_str_literal(&mut out, &job.target);
        out.push_str(",\"method\":");
        push_str_literal(&mut out, job.method);
        out.push_str(&format!(",\"age_ms\":{}}}", job.age_ms));
    }
    out.push_str("]}");
    out
}

/// `GET /debug/caches`: entry counts and estimated resident bytes of the
/// process-wide kernel-bank and FFT-plan caches (with the compiled kernel
/// body the CPU probe chose, `fft_plan_cache.body`) plus the per-worker
/// session caches, with their hit/miss counters and gauges pulled from
/// the telemetry snapshot.
pub(crate) fn render_caches(
    litho_banks: usize,
    litho_bank_bytes: u64,
    fft_plans: usize,
    fft_plan_bytes: u64,
    mask_store: &StoreStats,
    counters: &BTreeMap<String, u64>,
    gauges: &BTreeMap<String, f64>,
) -> String {
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"litho_bank_cache\":{{\"entries\":{},\"estimated_bytes\":{},\"hits\":{},\"misses\":{}}}",
        litho_banks,
        litho_bank_bytes,
        counter("litho.bank_cache.hit"),
        counter("litho.bank_cache.miss")
    ));
    out.push_str(&format!(
        ",\"fft_plan_cache\":{{\"entries\":{},\"estimated_bytes\":{},\"hits\":{},\"misses\":{},\
         \"body\":\"{}\"}}",
        fft_plans,
        fft_plan_bytes,
        counter("fft.plan_cache.hit"),
        counter("fft.plan_cache.miss"),
        // The compiled body every plan (and logistic sweep) of this process
        // runs: one of three fixed names, no escaping needed.
        ilt_fft::simd::body_name()
    ));
    out.push_str(&format!(
        ",\"mask_store\":{{\"entries\":{},\"bytes\":{},\"hits\":{},\"misses\":{},\
         \"evictions\":{}}}",
        mask_store.entries,
        mask_store.bytes,
        mask_store.hits,
        mask_store.misses,
        mask_store.evictions
    ));
    out.push_str(&format!(
        ",\"session_cache\":{{\"entries\":{},\"hits\":{},\"misses\":{}}}",
        gauges
            .get("serve.session_cache.entries")
            .copied()
            .unwrap_or(0.0),
        counter("serve.session_cache.hit"),
        counter("serve.session_cache.miss")
    ));
    out.push('}');
    out
}

/// `GET /debug/store`: the shared mask store's occupancy and hit/miss
/// statistics plus its most recently touched entries (newest first).
/// Digests and fingerprints render as fixed-width hex strings — they are
/// opaque 64-bit hashes, not quantities.
pub(crate) fn render_store(enabled: bool, stats: &StoreStats, entries: &[EntryView]) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"enabled\":{enabled},\"stats\":{{"));
    out.push_str(&format!(
        "\"hits\":{},\"misses\":{},\"puts\":{},\"evictions\":{},\"spills\":{},\
         \"disk_hits\":{},\"bytes\":{},\"entries\":{},\"hit_ratio\":",
        stats.hits,
        stats.misses,
        stats.puts,
        stats.evictions,
        stats.spills,
        stats.disk_hits,
        stats.bytes,
        stats.entries
    ));
    push_f64(&mut out, stats.hit_ratio());
    out.push_str("},\"entries\":[");
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"digest\":\"{:016x}\",\"geometry\":\"{:016x}\",\"config\":\"{:016x}\",\
             \"method\":",
            entry.digest, entry.geometry, entry.config
        ));
        push_str_literal(&mut out, entry.method);
        out.push_str(&format!(
            ",\"bytes\":{},\"version\":{}}}",
            entry.bytes, entry.version
        ));
    }
    out.push_str("]}");
    out
}

/// `GET /debug/jobs/{id}/trace`: the job's span forest as held by the
/// span store, plus the counters attributed to its trace. In-flight
/// jobs show the spans that have already closed (tiles land as they
/// finish); finished jobs show the complete queue → session → tiles →
/// assembly tree.
pub(crate) fn render_job_trace(
    id: u64,
    trace: u64,
    status: &str,
    spans: &[tele::SpanEvent],
) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"id\":\"{id}\",\"trace\":{trace},\"status\":"));
    push_str_literal(&mut out, status);
    out.push_str(&format!(",\"span_count\":{}", spans.len()));
    out.push_str(",\"counters\":{");
    for (i, (name, v)) in tele::trace_counters(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(&mut out, name);
        out.push_str(&format!(":{v}"));
    }
    out.push('}');
    out.push_str(",\"spans_dropped_total\":");
    out.push_str(&tele::flight::spans_dropped().to_string());
    out.push_str(",\"spans\":");
    out.push_str(&tele::span_forest_json(spans));
    out.push('}');
    out
}

/// Shared footer for `/metrics`: the span store's occupancy and drop
/// counter as Prometheus lines, appended after the snapshot and SLO series.
pub(crate) fn obs_prometheus() -> String {
    format!(
        "# TYPE ilt_obs_spans_buffered gauge\nilt_obs_spans_buffered {}\n\
         # TYPE ilt_obs_spans_dropped_total counter\nilt_obs_spans_dropped_total {}\n",
        tele::flight::len(),
        tele::flight::spans_dropped()
    )
}

/// Profiling footer for `/metrics`: process RSS gauges (when readable)
/// plus the tracking allocator's live/allocated byte counters.
pub(crate) fn prof_prometheus() -> String {
    let mut out = String::new();
    if let Some(rss) = ilt_prof::rss::read() {
        out.push_str("# TYPE ilt_process_rss_bytes gauge\n");
        out.push_str(&format!("ilt_process_rss_bytes {}\n", rss.current_bytes));
        out.push_str("# TYPE ilt_process_peak_rss_bytes gauge\n");
        out.push_str(&format!("ilt_process_peak_rss_bytes {}\n", rss.peak_bytes));
    }
    let alloc = ilt_prof::alloc::stats();
    if alloc.enabled {
        out.push_str("# TYPE ilt_alloc_live_bytes gauge\n");
        out.push_str(&format!("ilt_alloc_live_bytes {}\n", alloc.live_bytes));
        out.push_str("# TYPE ilt_alloc_allocated_bytes_total counter\n");
        out.push_str(&format!(
            "ilt_alloc_allocated_bytes_total {}\n",
            alloc.allocated_bytes
        ));
        out.push_str("# TYPE ilt_alloc_freed_bytes_total counter\n");
        out.push_str(&format!(
            "ilt_alloc_freed_bytes_total {}\n",
            alloc.freed_bytes
        ));
    }
    out
}

/// `GET /debug/profile`: the sampler's state plus the accumulated profile
/// — collapsed-stack text (flamegraph-ready, embedded as one JSON string)
/// and the top-N self-time leaves.
pub(crate) fn render_profile() -> String {
    let (samples, ticks) = ilt_prof::cpu::sample_counts();
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"sampler_running\":{},\"sampler_hz\":{},\"samples\":{samples},\"ticks\":{ticks}",
        ilt_prof::sampler_running(),
        ilt_prof::sampler_hz()
    ));
    out.push_str(",\"top_self\":[");
    for (i, (leaf, count)) in ilt_prof::cpu::top_self(10).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"frame\":");
        push_str_literal(&mut out, leaf);
        out.push_str(&format!(",\"samples\":{count}}}"));
    }
    out.push_str("],\"samples_per_stage\":{");
    for (i, (stage, count)) in ilt_prof::cpu::samples_per_stage().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(&mut out, stage);
        out.push_str(&format!(":{count}"));
    }
    out.push_str("},\"collapsed\":");
    push_str_literal(&mut out, &ilt_prof::collapsed());
    out.push('}');
    out
}

/// `GET /debug/memory`: current/peak RSS, the tracking allocator's
/// global and per-stage counters, and the heaviest-allocating traces
/// (job ids are resolved by the route handler and passed in as
/// `(trace, job_id)` pairs; unresolved traces render without a job).
pub(crate) fn render_memory(trace_jobs: &[(u64, Option<u64>)]) -> String {
    let mut out = String::from("{");
    match ilt_prof::rss::read() {
        Some(rss) => out.push_str(&format!(
            "\"rss\":{{\"current_bytes\":{},\"peak_bytes\":{},\"window_peak_bytes\":{}}}",
            rss.current_bytes,
            rss.peak_bytes,
            ilt_prof::rss::window_peak()
        )),
        None => out.push_str("\"rss\":null"),
    }
    let alloc = ilt_prof::alloc::stats();
    out.push_str(&format!(
        ",\"alloc\":{{\"enabled\":{},\"allocated_bytes\":{},\"allocation_calls\":{},\
         \"freed_bytes\":{},\"free_calls\":{},\"live_bytes\":{},\"peak_live_bytes\":{}",
        alloc.enabled,
        alloc.allocated_bytes,
        alloc.allocation_calls,
        alloc.freed_bytes,
        alloc.free_calls,
        alloc.live_bytes,
        alloc.peak_live_bytes
    ));
    out.push_str(",\"stages\":{");
    for (i, stage) in alloc.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(&mut out, stage.stage.name());
        out.push_str(&format!(
            ":{{\"bytes\":{},\"calls\":{}}}",
            stage.bytes, stage.calls
        ));
    }
    out.push_str("}}");
    out.push_str(",\"top_traces\":[");
    for (i, (trace, job)) in trace_jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (bytes, calls) = ilt_prof::alloc::trace_bytes(*trace);
        out.push_str(&format!("{{\"trace\":{trace},\"job\":"));
        match job {
            Some(id) => out.push_str(&format!("\"{id}\"")),
            None => out.push_str("null"),
        }
        out.push_str(&format!(",\"bytes\":{bytes},\"calls\":{calls}}}"));
    }
    out.push_str(&format!(
        "],\"trace_attribution_dropped\":{}}}",
        ilt_prof::alloc::trace_attribution_dropped()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_json::Json;

    #[test]
    fn queue_render_is_well_formed() {
        let jobs = vec![JobDebug {
            id: 3,
            trace: 17,
            status: "running",
            target: "case2".to_string(),
            method: "ours",
            age_ms: 12,
        }];
        let body = render_queue(1, 8, false, &jobs);
        let parsed = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed.path(&["queue_depth"]).and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            parsed
                .path(&["jobs"])
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(1)
        );
        assert!(body.contains("\"trace\":17"));
    }

    #[test]
    fn caches_render_is_well_formed() {
        let mut counters = BTreeMap::new();
        counters.insert("litho.bank_cache.hit".to_string(), 4u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("serve.session_cache.entries".to_string(), 2.0);
        let store = StoreStats {
            hits: 9,
            misses: 1,
            puts: 10,
            evictions: 0,
            spills: 0,
            disk_hits: 0,
            bytes: 320000,
            entries: 9,
        };
        let body = render_caches(1, 65536, 3, 4096, &store, &counters, &gauges);
        let parsed = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed
                .path(&["litho_bank_cache", "hits"])
                .and_then(|v| v.as_u64()),
            Some(4)
        );
        assert_eq!(
            parsed
                .path(&["litho_bank_cache", "estimated_bytes"])
                .and_then(|v| v.as_u64()),
            Some(65536)
        );
        assert_eq!(
            parsed
                .path(&["fft_plan_cache", "entries"])
                .and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            parsed
                .path(&["fft_plan_cache", "estimated_bytes"])
                .and_then(|v| v.as_u64()),
            Some(4096)
        );
        assert_eq!(
            parsed
                .path(&["fft_plan_cache", "body"])
                .and_then(|v| v.as_str()),
            Some(ilt_fft::simd::body_name())
        );
        assert!(body.contains("\"session_cache\":{\"entries\":2"));
        assert_eq!(
            parsed
                .path(&["mask_store", "entries"])
                .and_then(|v| v.as_u64()),
            Some(9)
        );
        assert_eq!(
            parsed
                .path(&["mask_store", "hits"])
                .and_then(|v| v.as_u64()),
            Some(9)
        );
    }

    #[test]
    fn store_render_is_well_formed() {
        let stats = StoreStats {
            hits: 3,
            misses: 1,
            puts: 4,
            evictions: 1,
            spills: 1,
            disk_hits: 1,
            bytes: 1024,
            entries: 2,
        };
        let entries = vec![EntryView {
            digest: 0xdead_beef,
            geometry: 7,
            config: 9,
            method: "ours:pixel",
            bytes: 512,
            version: 2,
        }];
        let body = render_store(true, &stats, &entries);
        let parsed = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed.path(&["stats", "hits"]).and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            parsed
                .path(&["stats", "hit_ratio"])
                .and_then(|v| v.as_f64()),
            Some(0.75)
        );
        let listed = parsed
            .path(&["entries"])
            .and_then(|v| v.as_arr())
            .expect("entry array");
        assert_eq!(listed.len(), 1);
        assert!(body.contains("\"digest\":\"00000000deadbeef\""));
        assert!(body.contains("\"method\":\"ours:pixel\""));
        assert!(body.contains("\"version\":2"));
    }

    #[test]
    fn profile_render_is_well_formed() {
        let body = render_profile();
        let parsed = Json::parse(&body).expect("valid JSON");
        assert!(parsed.path(&["sampler_running"]).is_some());
        assert!(parsed.path(&["collapsed"]).is_some());
        assert!(parsed
            .path(&["top_self"])
            .and_then(|v| v.as_arr())
            .is_some());
    }

    #[test]
    fn memory_render_is_well_formed() {
        let body = render_memory(&[(42, Some(7)), (99, None)]);
        let parsed = Json::parse(&body).expect("valid JSON");
        // Linux always reads an RSS; elsewhere the field is null.
        assert!(body.contains("\"rss\":"));
        assert!(parsed.path(&["alloc", "stages", "fine"]).is_some());
        let traces = parsed
            .path(&["top_traces"])
            .and_then(|v| v.as_arr())
            .expect("trace array");
        assert_eq!(traces.len(), 2);
        assert!(body.contains("\"job\":\"7\""));
        assert!(body.contains("\"job\":null"));
    }

    #[test]
    fn job_trace_render_is_well_formed_when_empty() {
        let body = render_job_trace(9, 1234567, "queued", &[]);
        let parsed = Json::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed.path(&["trace"]).and_then(|v| v.as_u64()),
            Some(1234567)
        );
        assert_eq!(
            parsed.path(&["span_count"]).and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}
