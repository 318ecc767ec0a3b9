//! Shared telemetry plumbing for the flows.
//!
//! Every flow opens a `flow` span, wraps each stage in a `stage` span,
//! times each tile solve in a `tile` span, and derives its public
//! [`StageTiming`] from the *same* duration measurements the trace
//! records — so the report and the trace cannot disagree. The helpers
//! also fix a long-standing attribution bug: result unpacking used to be
//! billed to `assembly_seconds` because each flow started its assembly
//! clock before unzipping the solver results. [`StageGuard::finish`]
//! unpacks first and only then starts the `assembly` span.

use ilt_telemetry as tele;

use crate::flows::StageTiming;

/// Opens the flow-level span, tagged with the flow's report name. Ending
/// the guard ([`ilt_telemetry::SpanGuard::end`]) yields the flow wall
/// time, which doubles as `FlowResult::wall_seconds`.
pub(crate) fn flow_span(name: &str) -> tele::SpanGuard {
    let mut span = tele::span(tele::names::FLOW);
    span.add_field("name", name);
    span
}

/// An open stage: a `stage` span plus the label it will report under.
/// Keep the guard alive while the stage's tiles run so their spans nest
/// under it, then call [`StageGuard::finish`] with the solved tiles.
pub(crate) struct StageGuard {
    label: String,
    span: tele::SpanGuard,
    /// Profiling stage tag derived from the label: while the guard is
    /// alive, allocations on this thread (and on executor workers, which
    /// inherit the tag) bill to the matching `ilt-prof` stage bucket.
    stage_tag: ilt_prof::StageScope,
}

/// Opens a `stage` span labelled `label`.
pub(crate) fn stage(label: String) -> StageGuard {
    let mut span = tele::span(tele::names::STAGE);
    span.add_field("label", label.clone());
    let stage_tag = ilt_prof::stage_scope(ilt_prof::Stage::from_label(&label));
    StageGuard {
        label,
        span,
        stage_tag,
    }
}

impl StageGuard {
    /// Ends the stage: unpacks the per-tile `(payload, seconds)` pairs
    /// produced by [`timed_tile`], runs `apply` — the sequential
    /// assembly — inside an `assembly` span, and reports that span's own
    /// duration as the stage's `assembly_seconds`. Unpacking happens
    /// *before* the assembly clock starts, so per-tile bookkeeping is
    /// never billed to assembly.
    pub(crate) fn finish<T, R, E>(
        self,
        solved: Vec<(T, f64)>,
        apply: impl FnOnce(Vec<T>) -> Result<R, E>,
    ) -> Result<(R, StageTiming), E> {
        let (payloads, times): (Vec<_>, Vec<_>) = solved.into_iter().unzip();
        let (out, assembly_seconds) = assembly_fold(None, || apply(payloads))?;
        Ok((out, self.finish_streamed(times, assembly_seconds)))
    }

    /// Ends a stage whose assembly happened *incrementally* (one colour
    /// band at a time, via [`assembly_fold`]) while the guard was alive:
    /// the caller supplies the per-tile durations it recorded and the sum
    /// of the fold spans' durations.
    pub(crate) fn finish_streamed(
        self,
        tile_seconds: Vec<f64>,
        assembly_seconds: f64,
    ) -> StageTiming {
        let StageGuard {
            label,
            span,
            stage_tag,
        } = self;
        drop(stage_tag);
        drop(span);
        StageTiming {
            label,
            tile_seconds,
            assembly_seconds,
        }
    }
}

/// Runs one incremental assembly fold (a colour band pushed into a
/// streaming assembler, or its final validation) inside an `assembly`
/// span billed to the assembly profiling stage, and returns the body's
/// result with the span's duration so streamed stages report the same
/// `assembly_seconds` the trace records. A band fold puts the bytes of
/// solved tile masks it holds on the span as `resident_bytes`.
pub(crate) fn assembly_fold<R, E>(
    resident_bytes: Option<usize>,
    body: impl FnOnce() -> Result<R, E>,
) -> Result<(R, f64), E> {
    let _assembly_tag = ilt_prof::stage_scope(ilt_prof::Stage::Assembly);
    let mut span = tele::span(tele::names::ASSEMBLY);
    if let Some(bytes) = resident_bytes {
        span.add_field("resident_bytes", bytes);
    }
    let out = body()?;
    Ok((out, span.end()))
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
