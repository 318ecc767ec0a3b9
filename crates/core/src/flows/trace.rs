//! Shared telemetry plumbing for the flows.
//!
//! Every flow opens a `flow` span; the stage driver
//! ([`run_banded_stage`](crate::flows::stage::run_banded_stage)) wraps each
//! stage in a `stage` span and each fold in an `assembly` span, and each
//! tile solve is timed in a `tile` span. The flows derive their public
//! [`StageTiming`](crate::flows::StageTiming) from the *same* duration
//! measurements the trace records, so the report and the trace cannot
//! disagree. The driver unpacks a band's solver results before it starts
//! the assembly clock, so per-tile bookkeeping is never billed to
//! assembly.

use ilt_telemetry as tele;

/// Opens the flow-level span, tagged with the flow's report name. Ending
/// the guard ([`ilt_telemetry::SpanGuard::end`]) yields the flow wall
/// time, which doubles as `FlowResult::wall_seconds`.
pub(crate) fn flow_span(name: &str) -> tele::SpanGuard {
    let mut span = tele::span(tele::names::FLOW);
    span.add_field("name", name);
    span
}

/// Runs one tile's compute inside a `tile` span tagged with its index and
/// returns the payload together with the span's own duration, so the
/// reported `tile_seconds` equal the traced span exactly.
pub(crate) fn timed_tile<T, E>(
    index: usize,
    body: impl FnOnce() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let mut span = tele::span(tele::names::TILE);
    span.add_field("tile", index);
    let out = body()?;
    Ok((out, span.end()))
}
