//! The one JSON rendering of the profiling facts, shared by the
//! `profile` / `memory` sections of `report.json` and by `ilt-serve`'s
//! `/debug/profile` / `/debug/memory`.
//!
//! Each function appends the members of one JSON object, without its
//! braces, so a caller opens the object, appends the shared members, adds
//! the members only it has (the daemon's `collapsed` text and
//! `top_traces`), and closes it.

use std::fmt::Write as _;

use ilt_telemetry::json::{push_f64, push_str_literal};

use crate::alloc::AllocStats;
use crate::rss::RssSample;
use crate::{cpu, rss};

/// How many self-time leaves `top_self` lists.
const TOP_SELF: usize = 20;

/// Appends the CPU sampler's state and profile: `sampler_running`,
/// `sampler_hz`, `samples`, `ticks`, `top_self` (the 20 leaf frames with
/// the most self-time samples) and `samples_per_stage`.
pub fn push_profile(out: &mut String) {
    let (samples, ticks) = cpu::sample_counts();
    let _ = write!(
        out,
        "\"sampler_running\":{},\"sampler_hz\":",
        cpu::sampler_running()
    );
    push_f64(out, cpu::sampler_hz());
    let _ = write!(
        out,
        ",\"samples\":{samples},\"ticks\":{ticks},\"top_self\":["
    );
    for (i, (frame, n)) in cpu::top_self(TOP_SELF).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"frame\":");
        push_str_literal(out, frame);
        let _ = write!(out, ",\"samples\":{n}}}");
    }
    out.push_str("],\"samples_per_stage\":{");
    for (i, (stage, n)) in cpu::samples_per_stage().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(out, stage);
        let _ = write!(out, ":{n}");
    }
    out.push('}');
}

/// Appends the memory facts: `rss` (current and kernel-peak resident
/// bytes plus the sampler's window peak, `null` where RSS is unreadable)
/// and `alloc` (the tracking allocator's totals and its per-stage bytes
/// and calls).
pub fn push_memory(out: &mut String, rss: Option<RssSample>, alloc: &AllocStats) {
    match rss {
        Some(r) => {
            let _ = write!(
                out,
                "\"rss\":{{\"current_bytes\":{},\"peak_bytes\":{},\"window_peak_bytes\":{}}}",
                r.current_bytes,
                r.peak_bytes,
                rss::window_peak()
            );
        }
        None => out.push_str("\"rss\":null"),
    }
    let _ = write!(
        out,
        ",\"alloc\":{{\"enabled\":{},\"allocated_bytes\":{},\"allocation_calls\":{},\
         \"freed_bytes\":{},\"free_calls\":{},\"live_bytes\":{},\"peak_live_bytes\":{},\
         \"stages\":{{",
        alloc.enabled,
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
        push_str_literal(out, s.stage.name());
        let _ = write!(out, ":{{\"bytes\":{},\"calls\":{}}}", s.bytes, s.calls);
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_json::Json;

    /// Parses `{` + members + `}`.
    fn object(members: &str) -> Json {
        Json::parse(&format!("{{{members}}}")).expect("well-formed JSON")
    }

    /// The keys of an object, sorted.
    fn keys(value: Option<&Json>) -> Vec<&str> {
        match value {
            Some(Json::Obj(map)) => map.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn memory_keys_are_pinned_with_and_without_rss() {
        let alloc = crate::alloc::stats();
        let sample = RssSample {
            current_bytes: 4096,
            peak_bytes: 8192,
        };
        let mut out = String::new();
        push_memory(&mut out, Some(sample), &alloc);
        let with = object(&out);
        assert_eq!(keys(Some(&with)), ["alloc", "rss"]);
        assert_eq!(
            keys(with.get("rss")),
            ["current_bytes", "peak_bytes", "window_peak_bytes"]
        );
        assert_eq!(with.path(&["rss", "peak_bytes"]), Some(&Json::Num(8192.0)));

        let mut out = String::new();
        push_memory(&mut out, None, &alloc);
        let without = object(&out);
        assert_eq!(without.get("rss"), Some(&Json::Null));
        assert_eq!(
            keys(without.get("alloc")),
            [
                "allocated_bytes",
                "allocation_calls",
                "enabled",
                "free_calls",
                "freed_bytes",
                "live_bytes",
                "peak_live_bytes",
                "stages"
            ]
        );
        for stage in &alloc.stages {
            let entry = without.path(&["alloc", "stages", stage.stage.name()]);
            assert_eq!(keys(entry), ["bytes", "calls"]);
        }
    }

    #[test]
    fn profile_keys_are_pinned() {
        let mut out = String::new();
        push_profile(&mut out);
        assert_eq!(
            keys(Some(&object(&out))),
            [
                "sampler_hz",
                "sampler_running",
                "samples",
                "samples_per_stage",
                "ticks",
                "top_self"
            ]
        );
    }
}
