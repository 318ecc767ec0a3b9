//! RAII spans, trace attribution, and cross-thread parent propagation.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::collect::{self, SpanEvent};
use crate::trace::{self, TraceId, TraceScope};
use crate::{epoch, flight};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A structured field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
}

impl FieldValue {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A copyable reference to an open span, used to carry the active span
/// across threads (see [`parent_scope`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef(pub(crate) u64);

#[derive(Debug)]
struct Rec {
    id: u64,
    parent: Option<u64>,
    trace: u64,
    /// A process root mints the trace id of its subtree and holds its
    /// scope: the ambient trace goes back to "none" when the span closes.
    _minted: Option<TraceScope>,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

/// An open span. Moves a [`SpanEvent`] into the span store
/// ([`crate::flight`]) when dropped (or via [`SpanGuard::end`]); always
/// measures wall time and, the store being always on, always records —
/// `ILT_TRACE` has no say in it.
#[derive(Debug)]
pub struct SpanGuard {
    start: Instant,
    rec: Option<Rec>,
    /// Guards must drop on the thread that created them (per-thread
    /// open-span stack), so the type is deliberately `!Send`.
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name` under the innermost open span of the current
/// thread, attributed to the ambient trace ([`crate::trace_scope`]). A
/// span with neither a parent nor an ambient trace is a process root and
/// allocates a fresh trace id for its subtree, so every recorded span
/// carries a non-zero trace id.
pub fn span(name: &'static str) -> SpanGuard {
    // Fix the epoch before the first span starts: a start before it would
    // record as 0 and stretch that span past its children.
    epoch();
    let start = Instant::now();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = collect::with_local(|l| l.push(id, Some(start))).flatten();
    let mut trace_id = trace::current_trace_raw();
    let minted = (trace_id == 0 && parent.is_none()).then(|| {
        let (id, scope) = trace::new_trace_scope();
        trace_id = id.0;
        scope
    });
    SpanGuard {
        start,
        rec: Some(Rec {
            id,
            parent,
            trace: trace_id,
            _minted: minted,
            name,
            fields: Vec::new(),
        }),
        _not_send: PhantomData,
    }
}

impl SpanGuard {
    /// Attaches a structured field.
    pub fn add_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(rec) = &mut self.rec {
            rec.fields.push((key, value.into()));
        }
    }

    /// A reference to this span for cross-thread propagation.
    pub fn span_ref(&self) -> Option<SpanRef> {
        self.rec.as_ref().map(|r| SpanRef(r.id))
    }

    /// The trace id this span is attributed to.
    pub fn trace_id(&self) -> Option<TraceId> {
        match self.rec.as_ref().map(|r| r.trace) {
            Some(t) if t != 0 => Some(TraceId(t)),
            _ => None,
        }
    }

    /// Closes the span now and returns its duration in seconds. The
    /// recorded event uses the *same* duration measurement, so timing
    /// derived from the return value agrees exactly with the trace.
    pub fn end(mut self) -> f64 {
        let dur = self.start.elapsed();
        self.record(dur);
        dur.as_secs_f64()
    }

    fn record(&mut self, dur: Duration) {
        let Some(rec) = self.rec.take() else { return };
        // `None` while the thread's buffer is being torn down: the stack
        // is gone with it, the span is still recorded.
        let local = collect::with_local(|l| {
            let covered = l.pop(rec.id);
            if l.innermost() == rec.parent {
                l.cover(self.start, self.start + dur);
            }
            (l.thread, covered)
        });
        let (thread, child_ns) = local.unwrap_or((u64::MAX, 0));
        flight::record(SpanEvent {
            id: rec.id,
            parent: rec.parent,
            trace: rec.trace,
            name: rec.name,
            fields: rec.fields,
            start_ns: ns_since_epoch(self.start),
            dur_ns: dur.as_nanos() as u64,
            child_ns,
            thread,
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.rec.is_some() {
            let dur = self.start.elapsed();
            self.record(dur);
        }
    }
}

/// `at` as nanoseconds since the process trace epoch (0 if it predates it).
fn ns_since_epoch(at: Instant) -> u64 {
    at.checked_duration_since(epoch())
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Records a span for an interval that already happened (`start..end`),
/// without having held a guard over it. The span is attributed to the
/// current thread's innermost open span and ambient trace at the *call*
/// site — `ilt-serve` uses this to backfill a `queue` span under the job
/// root once a worker picks the job up.
pub fn record_span_at(
    name: &'static str,
    start: Instant,
    end: Instant,
    fields: Vec<(&'static str, FieldValue)>,
) {
    let (parent, thread) = collect::with_local(|l| {
        l.cover(start, end);
        (l.innermost(), l.thread)
    })
    .unwrap_or((None, u64::MAX));
    flight::record(SpanEvent {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        trace: trace::current_trace_raw(),
        name,
        fields,
        start_ns: ns_since_epoch(start),
        dur_ns: end
            .checked_duration_since(start)
            .map_or(0, |d| d.as_nanos() as u64),
        child_ns: 0,
        thread,
    });
}

/// The innermost open span on the current thread (an adopted parent
/// counts), if any.
pub fn current_span() -> Option<SpanRef> {
    collect::with_local(|l| l.innermost())
        .flatten()
        .map(SpanRef)
}

/// Adopts `parent` as the current thread's span context until the returned
/// guard drops: it goes on the thread's open-span stack. Worker pools call
/// this so spans opened inside jobs attach to the span that was active
/// where the jobs were submitted.
pub fn parent_scope(parent: Option<SpanRef>) -> ParentScope {
    if let Some(p) = parent {
        collect::with_local(|l| l.push(p.0, None));
    }
    ParentScope {
        id: parent.map(|p| p.0),
        _not_send: PhantomData,
    }
}

/// Guard restoring the thread's span context (see [`parent_scope`]).
#[derive(Debug)]
pub struct ParentScope {
    id: Option<u64>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ParentScope {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            collect::with_local(|l| l.pop(id));
            // Worker threads end their useful life when the adopted scope
            // closes; flush now, because thread-local destructors may run
            // after the pool's join is observed (see `flush_thread`).
            collect::flush_thread();
        }
    }
}
