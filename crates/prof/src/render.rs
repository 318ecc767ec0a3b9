//! The one JSON rendering of the profiling facts, shared by the
//! `profile` / `memory` sections of `report.json` and by `ilt-serve`'s
//! `/debug/profile` / `/debug/memory`.
//!
//! Each `push_*` function appends the members of one JSON object, without
//! its braces, so a caller opens the object, appends the shared members,
//! adds the members only it has (the daemon's `top_traces`), and closes
//! it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ilt_telemetry::json::push_str_literal;
use ilt_telemetry::SpanEvent;

use crate::alloc::AllocStats;
use crate::rss::RssSample;

/// How many self-time leaves `top_self` lists.
const TOP_SELF: usize = 20;

/// The self-time profile of `events` ([`ilt_telemetry::self_time_profile`])
/// in whole microseconds per span path, paths under 1 µs left out: the
/// lines of a flamegraph.
pub fn self_us(events: &[SpanEvent]) -> BTreeMap<String, u64> {
    ilt_telemetry::self_time_profile(events)
        .into_iter()
        .map(|(path, ns)| (path, ns / 1_000))
        .filter(|&(_, us)| us > 0)
        .collect()
}

/// Collapsed-stack (flamegraph) text: one `path µs` line per path.
pub fn collapsed(profile: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (path, us) in profile {
        let _ = writeln!(out, "{path} {us}");
    }
    out
}

/// The `n` leaf frames with the most self time, descending, as
/// `(leaf frame, µs)`; a leaf's self time is the sum over every path it
/// ends.
pub fn top_self(profile: &BTreeMap<String, u64>, n: usize) -> Vec<(&str, u64)> {
    let mut by_leaf: BTreeMap<&str, u64> = BTreeMap::new();
    for (path, us) in profile {
        let leaf = path.rsplit(';').next().unwrap_or(path);
        *by_leaf.entry(leaf).or_insert(0) += us;
    }
    let mut entries: Vec<(&str, u64)> = by_leaf.into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    entries.truncate(n);
    entries
}

/// Appends the self-time profile of `events`: `collapsed` (the
/// flamegraph text), `top_self` (the 20 leaf frames with the most self
/// time, in µs) and `total_us`, the sum of the `collapsed` counts.
pub fn push_profile(out: &mut String, events: &[SpanEvent]) {
    let profile = self_us(events);
    out.push_str("\"collapsed\":");
    push_str_literal(out, &collapsed(&profile));
    out.push_str(",\"top_self\":[");
    for (i, (frame, us)) in top_self(&profile, TOP_SELF).into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"frame\":");
        push_str_literal(out, frame);
        let _ = write!(out, ",\"self_us\":{us}}}");
    }
    let _ = write!(out, "],\"total_us\":{}", profile.values().sum::<u64>());
}

/// Appends the memory facts: `rss` (current and kernel-peak resident
/// bytes, `null` where RSS is unreadable)
/// and `alloc` (the tracking allocator's totals and its per-stage bytes
/// and calls).
pub fn push_memory(out: &mut String, rss: Option<RssSample>, alloc: &AllocStats) {
    match rss {
        Some(r) => {
            let _ = write!(
                out,
                "\"rss\":{{\"current_bytes\":{},\"peak_bytes\":{}}}",
                r.current_bytes, r.peak_bytes
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
        assert_eq!(keys(with.get("rss")), ["current_bytes", "peak_bytes"]);
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
    fn profile_keys_are_pinned_and_the_total_is_the_flame_total() {
        let stage = |id, start_ns, dur_ns| SpanEvent {
            id,
            parent: None,
            trace: 1,
            name: ilt_telemetry::names::STAGE,
            fields: vec![("label", "fine stage 1".into())],
            start_ns,
            dur_ns,
            child_ns: 0,
            thread: 0,
        };
        let solve = SpanEvent {
            parent: Some(1),
            name: ilt_telemetry::names::SOLVE,
            fields: Vec::new(),
            ..stage(3, 1_000, 2_500)
        };
        // 9 µs of stage self time and 2.5 µs of solve; a second stage on
        // the same path adds 0.999 µs, which whole microseconds drop.
        let events = [
            SpanEvent {
                child_ns: 2_500,
                ..stage(1, 0, 11_500)
            },
            solve,
            stage(2, 20_000, 999),
        ];
        let mut out = String::new();
        push_profile(&mut out, &events);
        let profile = object(&out);
        assert_eq!(keys(Some(&profile)), ["collapsed", "top_self", "total_us"]);
        assert_eq!(
            profile.get("collapsed").and_then(Json::as_str),
            Some("stage(fine_stage_1) 9\nstage(fine_stage_1);solve 2\n")
        );
        assert_eq!(profile.get("total_us").and_then(Json::as_u64), Some(11));
        let top = profile.get("top_self").and_then(Json::as_arr).unwrap();
        assert_eq!(keys(top.first()), ["frame", "self_us"]);
        assert_eq!(
            top[0].get("frame").and_then(Json::as_str),
            Some("stage(fine_stage_1)")
        );
        assert_eq!(top[1].get("self_us").and_then(Json::as_u64), Some(2));
    }
}
