//! Exporters over a drained [`Telemetry`] snapshot: the span tree as
//! nested JSON and in the Chrome `trace_event` format, counters, gauges
//! and histograms as Prometheus text, per-flow summaries that mirror the
//! workspace's `StageTiming` shape, and the self-time profile.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::collect::{SpanEvent, Telemetry};
use crate::json;
use crate::metrics::Histogram;
use crate::names;

/// Summary of one stage span, with tile/assembly attribution derived from
/// its descendant spans.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage label (the `label` field of the stage span).
    pub label: String,
    /// Wall time of the stage span in seconds.
    pub seconds: f64,
    /// Number of descendant tile spans.
    pub tile_count: usize,
    /// Total seconds across descendant tile spans.
    pub tile_seconds: f64,
    /// Total seconds across descendant assembly spans.
    pub assembly_seconds: f64,
    /// Log-bucketed histogram of the descendant tile span durations in
    /// microseconds — the source of the stage's p50/p95/p99 exports.
    pub tile_us: Histogram,
}

impl StageSummary {
    /// Interpolated percentiles `(p50, p95, p99)` of the per-tile wall
    /// time in microseconds (0.0 for stages without tile spans).
    pub fn tile_us_percentiles(&self) -> (f64, f64, f64) {
        (
            self.tile_us.quantile(0.5),
            self.tile_us.quantile(0.95),
            self.tile_us.quantile(0.99),
        )
    }
}

/// Summary of one flow span and its stages.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// Flow name (the `name` field of the flow span).
    pub name: String,
    /// Wall time of the flow span in seconds.
    pub seconds: f64,
    /// One entry per stage span under the flow, in start order.
    pub stages: Vec<StageSummary>,
}

/// One completed `solve` span inside a `flow`: a cell of the run's
/// flow × stage × tile convergence matrix.
#[derive(Debug, Clone)]
pub struct SolveCell<'a> {
    /// The nearest enclosing flow span's `name`.
    pub flow: &'a str,
    /// The nearest enclosing stage span's `label`.
    pub stage: &'a str,
    /// The nearest enclosing tile span's `tile`.
    pub tile: u64,
    /// The solve span itself (fields `iterations`, `final_loss`).
    pub solve: &'a SpanEvent,
    /// Its `anomaly` child spans, in start order.
    pub anomalies: Vec<&'a SpanEvent>,
}

/// Span-tree index: indices of root events plus a parent-id → child-indices
/// map, both in start order (events are sorted by [`crate::drain`]).
struct TreeIndex {
    roots: Vec<usize>,
    children: HashMap<u64, Vec<usize>>,
}

fn index_tree(events: &[SpanEvent]) -> TreeIndex {
    let ids: std::collections::HashSet<u64> = events.iter().map(|e| e.id).collect();
    let mut roots = Vec::new();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.parent {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(i),
            _ => roots.push(i),
        }
    }
    TreeIndex { roots, children }
}

/// A short display label: the span name plus its identifying field, e.g.
/// `flow(ours)`, `stage(refine color 1)`, `tile(3)`.
fn display_label(e: &SpanEvent) -> String {
    let tag = match e.name {
        names::FLOW => e.field("name").and_then(|v| v.as_str()).map(str::to_string),
        names::STAGE => e
            .field("label")
            .and_then(|v| v.as_str())
            .map(str::to_string),
        names::JOB => e
            .field("job")
            .and_then(|v| v.as_u64())
            .map(|v| v.to_string()),
        names::TILE => e
            .field("tile")
            .and_then(|v| v.as_u64())
            .map(|v| v.to_string()),
        names::SOLVE => e
            .field("solver")
            .and_then(|v| v.as_str())
            .map(str::to_string),
        names::ANOMALY => e.field("kind").and_then(|v| v.as_str()).map(str::to_string),
        _ => None,
    };
    match tag {
        Some(tag) => format!("{}({})", e.name, tag),
        None => e.name.to_string(),
    }
}

impl Telemetry {
    /// Renders counters and histograms in the Prometheus text exposition
    /// format (version 0.0.4), the shape `GET /metrics` endpoints serve.
    ///
    /// Metric names are the workspace's dotted counter/histogram names with
    /// every non-alphanumeric character mapped to `_` and an `ilt_` prefix
    /// (so `fft.forward` becomes `ilt_fft_forward`). Counters get a
    /// `_total` suffix; histograms are exported as `_count`/`_sum` plus
    /// `quantile`-labelled summary samples. Spans are not exported — they
    /// belong to traces, not scrape targets.
    pub fn to_prometheus(&self) -> String {
        fn metric_name(raw: &str) -> String {
            let mut name = String::with_capacity(raw.len() + 4);
            name.push_str("ilt_");
            for c in raw.chars() {
                name.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            name
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m}_total counter");
            let _ = writeln!(out, "{m}_total {v}");
        }
        for (name, v) in &self.gauges {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m} gauge");
            let _ = writeln!(out, "{m} {v}");
        }
        for (name, h) in &self.histograms {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m} summary");
            for (q, v) in [
                (0.5, h.quantile(0.5)),
                (0.95, h.quantile(0.95)),
                (0.99, h.quantile(0.99)),
            ] {
                let _ = writeln!(out, "{m}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{m}_sum {}", h.sum());
            let _ = writeln!(out, "{m}_count {}", h.count());
        }
        out
    }

    /// Serialises the spans in the Chrome `trace_event` JSON format
    /// (load the file in `chrome://tracing` or Perfetto).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::push_str_literal(&mut out, &display_label(e));
            out.push_str(",\"cat\":");
            json::push_str_literal(&mut out, e.name);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":",
                e.thread,
                e.start_ns / 1_000,
                e.dur_ns / 1_000
            );
            json::push_fields_object(&mut out, &e.fields);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Derives per-flow summaries from the span tree: every `flow` span
    /// becomes a [`FlowSummary`], its child `stage` spans become
    /// [`StageSummary`] entries, and tile/assembly attribution comes from
    /// descendant `tile`/`assembly` spans (tiles may sit below `job` spans
    /// introduced by the executor).
    pub fn flow_summaries(&self) -> Vec<FlowSummary> {
        let tree = index_tree(&self.events);
        let mut flows = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if e.name != names::FLOW {
                continue;
            }
            let name = e
                .field("name")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            let mut stages = Vec::new();
            for &s in tree.children.get(&e.id).map_or(&[][..], |v| &v[..]) {
                let se = &self.events[s];
                if se.name != names::STAGE {
                    continue;
                }
                let label = se
                    .field("label")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string();
                let mut acc = StageAcc::default();
                sum_descendants(&self.events, &tree, s, &mut acc);
                stages.push(StageSummary {
                    label,
                    seconds: se.seconds(),
                    tile_count: acc.tile_count,
                    tile_seconds: acc.tile_seconds,
                    assembly_seconds: acc.assembly_seconds,
                    tile_us: acc.tile_us,
                });
            }
            flows.push(FlowSummary {
                name,
                seconds: self.events[i].seconds(),
                stages,
            });
        }
        flows
    }

    /// The convergence matrix: every solve span that completed (it carries
    /// `iterations`) under a flow, stage and tile span, in start order,
    /// with the flow, stage and tile its nearest such ancestors name.
    pub fn solve_cells<'a>(&'a self) -> Vec<SolveCell<'a>> {
        let by_id: HashMap<u64, &SpanEvent> = self.events.iter().map(|e| (e.id, e)).collect();
        let mut anomalies: HashMap<u64, Vec<&SpanEvent>> = HashMap::new();
        for e in &self.events {
            if let (names::ANOMALY, Some(parent)) = (e.name, e.parent) {
                anomalies.entry(parent).or_default().push(e);
            }
        }
        let cell = |solve: &'a SpanEvent| {
            let (mut stage, mut tile) = (None, None);
            let mut up = solve.parent.and_then(|p| by_id.get(&p));
            while let Some(&e) = up {
                match e.name {
                    names::FLOW => {
                        return Some(SolveCell {
                            flow: e.field("name")?.as_str()?,
                            stage: stage?,
                            tile: tile?,
                            solve,
                            anomalies: anomalies.get(&solve.id).cloned().unwrap_or_default(),
                        })
                    }
                    names::STAGE => stage = stage.or_else(|| e.field("label")?.as_str()),
                    names::TILE => tile = tile.or_else(|| e.field("tile")?.as_u64()),
                    _ => {}
                }
                up = e.parent.and_then(|p| by_id.get(&p));
            }
            None
        };
        self.events
            .iter()
            .filter(|e| e.name == names::SOLVE && e.field("iterations").is_some())
            .filter_map(cell)
            .collect()
    }
}

/// Serialises a span slice as a nested JSON forest: one `{name, id,
/// trace, thread, start_us, seconds, fields, children}` node per span,
/// children in start order — the `spans` section of `report.json` (over
/// a drained [`Telemetry`]'s events) and of `/debug/jobs/{id}/trace` (over
/// a flight-recorder snapshot). Events whose parent is absent from
/// `events` become roots; events should be sorted by `(start_ns, id)` for
/// stable order.
pub fn span_forest_json(events: &[SpanEvent]) -> String {
    let tree = index_tree(events);
    let mut out = String::new();
    push_subtree_json(&mut out, events, &tree, &tree.roots);
    out
}

fn push_subtree_json(out: &mut String, events: &[SpanEvent], tree: &TreeIndex, nodes: &[usize]) {
    out.push('[');
    for (n, &i) in nodes.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let e = &events[i];
        out.push_str("{\"name\":");
        json::push_str_literal(out, e.name);
        let _ = write!(
            out,
            ",\"id\":{},\"trace\":{},\"thread\":{},\"start_us\":{},\"seconds\":",
            e.id,
            e.trace,
            e.thread,
            e.start_ns / 1_000
        );
        json::push_f64(out, e.seconds());
        out.push_str(",\"fields\":");
        json::push_fields_object(out, &e.fields);
        out.push_str(",\"children\":");
        match tree.children.get(&e.id) {
            Some(kids) => push_subtree_json(out, events, tree, kids),
            None => out.push_str("[]"),
        }
        out.push('}');
    }
    out.push(']');
}

/// Tile/assembly attribution accumulated over a stage's descendants.
#[derive(Default)]
struct StageAcc {
    tile_count: usize,
    tile_seconds: f64,
    assembly_seconds: f64,
    tile_us: Histogram,
}

/// Per-stage latency-budget attribution over a run: where the wall time
/// went, split along the axes the serving and scale-out work tune
/// (admission, kernel setup, which grid level, stitching).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyBudget {
    /// Time jobs spent queued before a worker picked them up, from the
    /// `serve.job.queue_us` histogram (0 outside server mode).
    pub queue_wait_s: f64,
    /// Time inside `build` spans (litho kernel-bank and inspection-system
    /// construction).
    pub kernel_build_s: f64,
    /// Tile-solve seconds under stages labelled `coarse*`.
    pub coarse_tiles_s: f64,
    /// Tile-solve seconds under stages labelled `fine*`.
    pub fine_tiles_s: f64,
    /// Tile-solve seconds under stages labelled `refine*`.
    pub refine_tiles_s: f64,
    /// Tile-solve seconds under stages with any other label.
    pub other_tiles_s: f64,
    /// Sequential assembly seconds across all stages.
    pub assembly_s: f64,
    /// Flow wall seconds across all flow spans.
    pub flow_total_s: f64,
}

impl LatencyBudget {
    /// Flow wall time not attributed to tiles or assembly (per-stage
    /// orchestration, partitioning, restriction/prolongation, ...).
    pub fn unattributed_s(&self) -> f64 {
        (self.flow_total_s
            - self.coarse_tiles_s
            - self.fine_tiles_s
            - self.refine_tiles_s
            - self.other_tiles_s
            - self.assembly_s)
            .max(0.0)
    }

    /// JSON object rendering (the `latency_budget` section of
    /// `ilt-report/v2`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, v)) in [
            ("queue_wait_s", self.queue_wait_s),
            ("kernel_build_s", self.kernel_build_s),
            ("coarse_tiles_s", self.coarse_tiles_s),
            ("fine_tiles_s", self.fine_tiles_s),
            ("refine_tiles_s", self.refine_tiles_s),
            ("other_tiles_s", self.other_tiles_s),
            ("assembly_s", self.assembly_s),
            ("unattributed_s", self.unattributed_s()),
            ("flow_total_s", self.flow_total_s),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":");
            json::push_f64(&mut out, *v);
        }
        out.push('}');
        out
    }
}

impl Telemetry {
    /// Derives the [`LatencyBudget`] from the snapshot's spans and the
    /// `serve.job.queue_us` histogram.
    pub fn latency_budget(&self) -> LatencyBudget {
        let mut budget = LatencyBudget::default();
        if let Some(h) = self.histograms.get("serve.job.queue_us") {
            budget.queue_wait_s = h.sum() as f64 / 1e6;
        }
        for e in &self.events {
            if e.name == names::BUILD {
                budget.kernel_build_s += e.seconds();
            }
        }
        for flow in self.flow_summaries() {
            budget.flow_total_s += flow.seconds;
            for stage in &flow.stages {
                let bucket = if stage.label.starts_with("coarse") {
                    &mut budget.coarse_tiles_s
                } else if stage.label.starts_with("fine") {
                    &mut budget.fine_tiles_s
                } else if stage.label.starts_with("refine") {
                    &mut budget.refine_tiles_s
                } else {
                    &mut budget.other_tiles_s
                };
                *bucket += stage.tile_seconds;
                budget.assembly_s += stage.assembly_seconds;
            }
        }
        budget
    }
}

/// The self-time profile of `events`: nanoseconds of self time per span
/// path, in collapsed-stack (flamegraph) form, keyed and sorted by path.
///
/// A span's self time is its duration less the time its children **on its
/// own thread** covered, as the span recorded when it closed
/// ([`SpanEvent::child_ns`]) — so a child the drop-oldest store has
/// already evicted (children close, and are evicted, before their parents)
/// still counts. Work a span hands to worker threads stays its own, and
/// each worker's chain roots at its first span there (`job`). So per
/// thread the self times sum to the durations of the thread's root spans.
/// A path is the span's chain of same-thread ancestors, outermost first,
/// each frame its display label (`tile(3)`, `stage(coarse s=4)`) with
/// spaces as `_` and `;` as `,`, joined by `;`. A span whose parent is not
/// in `events` roots its own chain.
pub fn self_time_profile(events: &[SpanEvent]) -> BTreeMap<String, u64> {
    let by_id: HashMap<u64, &SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    let parent_here = |e: &SpanEvent| {
        let parent = *by_id.get(&e.parent?)?;
        (parent.thread == e.thread).then_some(parent)
    };
    let frame = |e: &SpanEvent| display_label(e).replace(' ', "_").replace(';', ",");
    let mut profile = BTreeMap::new();
    for e in events {
        let mut path = frame(e);
        let mut up = parent_here(e);
        while let Some(parent) = up {
            path = format!("{};{path}", frame(parent));
            up = parent_here(parent);
        }
        *profile.entry(path).or_insert(0) += e.dur_ns.saturating_sub(e.child_ns);
    }
    profile
}

fn sum_descendants(events: &[SpanEvent], tree: &TreeIndex, i: usize, acc: &mut StageAcc) {
    if let Some(kids) = tree.children.get(&events[i].id) {
        for &k in kids {
            match events[k].name {
                names::TILE => {
                    acc.tile_count += 1;
                    acc.tile_seconds += events[k].seconds();
                    acc.tile_us.record(events[k].dur_ns / 1_000);
                }
                names::ASSEMBLY => acc.assembly_seconds += events[k].seconds(),
                _ => {}
            }
            sum_descendants(events, tree, k, acc);
        }
    }
}
