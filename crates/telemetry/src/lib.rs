//! # ilt-telemetry
//!
//! Zero-dependency observability for the multigrid-Schwarz ILT workspace:
//! hierarchical RAII spans, counters, and log-bucketed histograms, with
//! nested-JSON, Chrome `trace_event` and Prometheus exporters.
//!
//! ## Model
//!
//! * **Spans** form a tree (`flow → stage → job → tile → solve`): a
//!   [`SpanGuard`] opens a span on creation and records it when dropped (or
//!   when [`SpanGuard::end`] is called). The parent is the innermost span
//!   open on the current thread; worker pools carry the
//!   caller's span to worker threads with [`parent_scope`]. Spans carry
//!   structured key/value [`FieldValue`] fields.
//! * **Counters** ([`counter_add`]) and **histograms** ([`record_value`],
//!   power-of-two buckets with p50/p95/max summaries) cover hot paths where
//!   per-event spans would be too heavy (FFT calls, litho simulations,
//!   solver iterations, pixels assembled).
//! * **Exports.** A span tree renders two ways, each read by a consumer:
//!   nested JSON ([`span_forest_json`], the `spans` of `report.json` and
//!   `/debug/jobs/{id}/trace`) and the Chrome `trace_event` format
//!   ([`Telemetry::to_chrome_trace`], for Perfetto). Counters, gauges and
//!   histograms render as Prometheus text ([`Telemetry::to_prometheus`]).
//! * Each fact is kept **once**. A closed span is moved into the one span
//!   store, the sharded [`flight`] ring, where [`drain`],
//!   [`flight::spans`] and through them every exporter read it — the
//!   self-time profile ([`self_time_profile`]) too, so time has one
//!   source. Each thread has one open-span stack, a plain thread-local
//!   `Vec` that parents new spans. Counters and histograms are
//!   buffered **per thread** (no locks on the hot path) and merged into a
//!   process-global sink when the thread flushes — via [`flush_thread`],
//!   when a [`ParentScope`] drops, or at thread exit as a backstop;
//!   [`snapshot`] copies the merged metrics, [`drain`] takes them and the
//!   store's spans as one [`Telemetry`].
//! * Every span carries a **trace id** attributing it to one job, bench
//!   case, or request: install one with [`trace_scope`]; spans opened with
//!   neither a parent nor an ambient trace mint their own. The id shares
//!   the thread's one [`context`] record with the profiling stage and the
//!   job deadline, and worker pools carry that record across whole.
//! * **Drills.** [`fault`] is the seeded, deterministic fault-injection
//!   registry `ILT_FAULTS` arms; [`deadline`] reads and scopes the job
//!   deadline field of the same [`context`] record.
//!
//! ## Gating
//!
//! Spans are **always on**: every closed span lands in the [`flight`]
//! store, so live introspection — `ilt-serve`'s `/debug/jobs/{id}/trace` —
//! works without restarting with tracing enabled. The store is a
//! drop-oldest ring unless a batch run that will [`drain`] at its end
//! lifts the bound ([`flight::set_capacity`]; the bench harness does on
//! every traced run). What the `ILT_TRACE` flag
//! ([`init_from_env`]/[`set_enabled`]) gates here is whether counters,
//! gauges, and histograms record at all — disabled, those entry points are
//! no-ops behind one relaxed atomic load — not a second span collection.
//! [`SpanGuard`]s measure wall time regardless (an `Instant` is a plain
//! value), so flows derive their stage timings from the same guards
//! unconditionally.
//!
//! ## Example
//!
//! ```
//! use ilt_telemetry as tele;
//!
//! tele::set_enabled(true);
//! {
//!     let mut flow = tele::span(tele::names::FLOW);
//!     flow.add_field("name", "demo");
//!     let _stage = tele::span(tele::names::STAGE);
//!     tele::counter_add("fft.forward", 3);
//! }
//! let t = tele::drain();
//! tele::set_enabled(false);
//! assert_eq!(t.events.len(), 2);
//! assert_eq!(t.counters["fft.forward"], 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collect;
pub mod context;
pub mod deadline;
mod export;
pub mod fault;
pub mod flight;
pub mod json;
mod metrics;
mod span;
mod trace;

pub use collect::{drain, flush_thread, snapshot, trace_counters, SpanEvent, Telemetry};
pub use export::{
    self_time_profile, span_forest_json, FlowSummary, LatencyBudget, SolveCell, StageSummary,
};
pub use metrics::{counter_add, gauge_add, gauge_set, record_value, Histogram};
pub use span::{
    current_span, parent_scope, record_span_at, span, FieldValue, ParentScope, SpanGuard, SpanRef,
};
pub use trace::{
    current_trace, current_trace_raw, new_trace_scope, next_trace_id, trace_scope, TraceId,
    TraceScope,
};

use std::fmt::Display;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Conventional span names shared by the workspace, so exporters can
/// recognise the flow/stage/tile hierarchy without string coupling.
pub mod names {
    /// A whole optimisation flow (field `name` holds the flow identifier).
    pub const FLOW: &str = "flow";
    /// One stage of a flow (field `label` holds the stage label).
    pub const STAGE: &str = "stage";
    /// One executor job (field `job` holds the index).
    pub const JOB: &str = "job";
    /// One per-tile unit of work inside a stage (field `tile`).
    pub const TILE: &str = "tile";
    /// The sequential assembly that follows a stage's tile solves.
    pub const ASSEMBLY: &str = "assembly";
    /// A single-tile solver invocation (fields `solver`, `n`, `scale`,
    /// and once it succeeded `iterations` run and `final_loss`).
    pub const SOLVE: &str = "solve";
    /// One served request in `ilt-serve` (fields `method`, `path`,
    /// `status`); job execution spans nest underneath it, so traces and
    /// diagnostics work unchanged in server mode.
    pub const REQUEST: &str = "request";
    /// A convergence anomaly in one solve's loss trace (fields `kind`,
    /// `iteration`, `value`): a zero-length child of the [`SOLVE`] span,
    /// recorded by `ilt-opt` under tracing. Its flow, stage and tile are
    /// its ancestors' (see [`crate::Telemetry::solve_cells`]).
    pub const ANOMALY: &str = "anomaly";
    /// A tile falling back to its coarse-grid mask after its fine-grid
    /// solve failed every retry (fields `flow`, `stage`, `tile`, `error`):
    /// a zero-length span the `ilt-core` flows record under tracing, and
    /// the one record of the event.
    pub const DEGRADED: &str = "degraded";
    /// One serve job's execution, from worker pickup to completion
    /// (fields `job`, `target`, `method`, `scale`). The root of the job's
    /// trace; `queue` and `session` spans nest underneath.
    pub const SERVE_JOB: &str = "serve.job";
    /// Time a serve job spent queued before a worker picked it up
    /// (field `job`). Backfilled with [`crate::record_span_at`].
    pub const QUEUE: &str = "queue";
    /// One `Session::run_method` invocation (field `method`): the
    /// cache-amortised solve a serve job or bench case runs.
    pub const SESSION: &str = "session";
    /// Expensive one-off construction: litho kernel-bank or
    /// inspection-system builds (field `what`).
    pub const BUILD: &str = "build";
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Returns whether telemetry collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables collection. Prefer [`init_from_env`] in binaries;
/// this entry point exists for tests and embedding.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The workspace's on/off grammar for environment flags: `1`, `true`, `on`
/// or `yes` (case-insensitive, surrounding whitespace ignored) is on;
/// anything else, or an unset variable (`None`), is off.
pub fn parse_flag(raw: Option<&str>) -> bool {
    let raw = raw.unwrap_or("").trim().to_ascii_lowercase();
    matches!(raw.as_str(), "1" | "true" | "on" | "yes")
}

/// Reads the environment variable `var` as a `T`: `fallback` when it is
/// unset, and also — with a warning on stderr naming the variable and the
/// fallback — when it does not parse (surrounding whitespace ignored).
pub fn env_or_warn<T: FromStr + Display>(var: &str, fallback: T) -> T {
    parse_or_warn(var, std::env::var(var).ok().as_deref(), fallback)
}

pub(crate) fn parse_or_warn<T: FromStr + Display>(var: &str, raw: Option<&str>, fallback: T) -> T {
    match raw {
        None => fallback,
        Some(raw) => match raw.trim().parse() {
            Ok(v) => v,
            Err(_) => warn_invalid(var, raw, fallback),
        },
    }
}

/// Warns on stderr that `var` holds the malformed value `raw`, naming the
/// fallback, and returns the fallback: the one wording of every `ILT_*`
/// parser, [`env_or_warn`] and the hand-written grammars alike.
pub fn warn_invalid<T: Display>(var: &str, raw: &str, fallback: T) -> T {
    eprintln!("warning: invalid {var}={raw:?}; using default {fallback}");
    fallback
}

/// Reads `ILT_TRACE` and enables collection when it is on (see
/// [`parse_flag`]); when it is unset, collection follows `default_on`
/// (the service and the drills that report on telemetry collect by
/// default, the paper driver does not). Returns the resulting state.
pub fn init_from_env(default_on: bool) -> bool {
    let on = match std::env::var("ILT_TRACE") {
        Ok(raw) => parse_flag(Some(&raw)),
        Err(_) => default_on,
    };
    set_enabled(on);
    on
}

/// The process-wide time origin all span timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_values_fall_back() {
        assert_eq!(parse_or_warn("ILT_CASES", Some("bogus"), 20usize), 20);
        assert_eq!(parse_or_warn("ILT_CASES", Some("-3"), 20usize), 20);
        assert_eq!(parse_or_warn("ILT_CASES", Some(" 7 "), 20usize), 7);
        assert_eq!(parse_or_warn("ILT_WORKERS", None, 1usize), 1);
        assert_eq!(parse_or_warn("ILT_WORKERS", Some("x"), 1usize), 1);
        assert_eq!(env_or_warn("ILT_SERVE_NO_SUCH_VAR", 7usize), 7);
    }
}
