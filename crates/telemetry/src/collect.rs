//! Per-thread metric buffers and the process-global sink they merge into.
//!
//! A counter bump or histogram sample only touches a `thread_local!`
//! buffer; the global mutex is taken when a thread flushes and once per
//! [`snapshot`] or [`drain`]. Closed spans are not buffered here: they go
//! straight into the one span store, [`crate::flight`], which [`drain`]
//! empties. The buffer also holds the thread's open-span stack, which no
//! other thread reads, so opening a span takes no lock.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::flight;
use crate::metrics::{self, Histogram};
use crate::span::FieldValue;

/// One completed span, as stored and exported.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id, if the span had an enclosing span on its thread.
    pub parent: Option<u64>,
    /// Trace id attributing the span to one job/case/request (see
    /// [`crate::trace_scope`]); `0` only for events predating trace
    /// support in serialized traces — live spans always carry one.
    pub trace: u64,
    /// Span name (one of [`crate::names`] for workspace spans).
    pub name: &'static str,
    /// Structured key/value fields.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nanoseconds of the span that its children on its own thread covered,
    /// recorded as they closed: children nest strictly on one thread, so
    /// the sum of their durations is the union. The span's self time is
    /// `dur_ns - child_ns` whether or not those children are still in the
    /// store.
    pub child_ns: u64,
    /// Small per-thread ordinal (0 = first thread that recorded).
    pub thread: u64,
}

impl SpanEvent {
    /// Duration in seconds.
    #[inline]
    pub fn seconds(&self) -> f64 {
        self.dur_ns as f64 / 1e9
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Everything one [`drain`] call collected: completed spans plus merged
/// counters, gauges, and histograms.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Completed spans, ordered by start time (empty in a [`snapshot`]).
    pub events: Vec<SpanEvent>,
    /// Merged named counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-written named gauges (see [`crate::gauge_set`]).
    pub gauges: BTreeMap<String, f64>,
    /// Merged named histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Telemetry {
    /// Returns `true` if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// The number of completed spans with the given name.
    pub fn span_count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }
}

#[derive(Default)]
struct Sink {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

/// One trace's accumulated counter totals: `(trace, name -> total)`.
type TraceCounterEntry = (u64, BTreeMap<String, u64>);

/// Per-trace counter totals, so `/debug/jobs/{id}/trace` can say "this
/// job bumped `flow.tiles_degraded` once" without a process-wide diff.
/// Bounded drop-oldest by trace, like the flight recorder.
static TRACE_COUNTERS: Mutex<VecDeque<TraceCounterEntry>> = Mutex::new(VecDeque::new());

/// Maximum distinct traces retained in the per-trace counter registry.
const TRACE_COUNTER_TRACES: usize = 256;

/// One entry of a thread's open-span stack.
pub(crate) struct Open {
    id: u64,
    /// When the span opened, for a span this thread opened; `None` for a
    /// parent adopted from another thread, which children here do not
    /// cover (they are not its own-thread children).
    start: Option<Instant>,
    /// Nanoseconds its closed children on this thread covered so far.
    covered_ns: u64,
}

pub(crate) struct LocalBuf {
    /// Small per-thread ordinal (0 = first thread that recorded).
    pub thread: u64,
    /// The spans open on this thread, innermost last: the spans it opened
    /// and the parents it adopted ([`crate::parent_scope`]).
    open: Vec<Open>,
    pub counters: HashMap<&'static str, u64>,
    /// Counter increments attributed to an ambient trace, keyed
    /// `(trace, name)`.
    pub trace_counters: HashMap<(u64, &'static str), u64>,
    pub histograms: HashMap<&'static str, Histogram>,
}

impl LocalBuf {
    fn new() -> Self {
        static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);
        LocalBuf {
            thread: THREAD_SEQ.fetch_add(1, Ordering::Relaxed),
            open: Vec::new(),
            counters: HashMap::new(),
            trace_counters: HashMap::new(),
            histograms: HashMap::new(),
        }
    }

    /// Pushes `id`, opened at `start` (`None` for an adopted parent), on
    /// the open-span stack and returns the id it landed on: a new span's
    /// parent.
    pub fn push(&mut self, id: u64, start: Option<Instant>) -> Option<u64> {
        let parent = self.innermost();
        self.open.push(Open {
            id,
            start,
            covered_ns: 0,
        });
        parent
    }

    /// Pops back to (and including) `id` — a guard dropped out of order
    /// also closes everything opened above it — and returns the
    /// nanoseconds `id`'s children covered.
    pub fn pop(&mut self, id: u64) -> u64 {
        let Some(pos) = self.open.iter().rposition(|open| open.id == id) else {
            return 0;
        };
        let covered = self.open[pos].covered_ns;
        self.open.truncate(pos);
        covered
    }

    /// The innermost open span, if any.
    pub fn innermost(&self) -> Option<u64> {
        self.open.last().map(|open| open.id)
    }

    /// Charges a closed child's interval `start..end` to the innermost open
    /// span, clipped to that span's own interval (which is still open, so
    /// it runs at least until `end`). An adopted parent is not charged.
    pub fn cover(&mut self, start: Instant, end: Instant) {
        if let Some(Open {
            start: Some(opened),
            covered_ns,
            ..
        }) = self.open.last_mut()
        {
            *covered_ns += end.saturating_duration_since(start.max(*opened)).as_nanos() as u64;
        }
    }

    fn flush(&mut self) {
        if !self.trace_counters.is_empty() {
            let mut registry = TRACE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
            for ((trace, name), v) in self.trace_counters.drain() {
                let idx = match registry.iter().position(|(t, _)| *t == trace) {
                    Some(idx) => idx,
                    None => {
                        while registry.len() >= TRACE_COUNTER_TRACES {
                            registry.pop_front();
                        }
                        registry.push_back((trace, BTreeMap::new()));
                        registry.len() - 1
                    }
                };
                *registry[idx].1.entry(name.to_string()).or_insert(0) += v;
            }
        }
        if self.counters.is_empty() && self.histograms.is_empty() {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        for (name, v) in self.counters.drain() {
            *sink.counters.entry(name.to_string()).or_insert(0) += v;
        }
        for (name, h) in self.histograms.drain() {
            sink.histograms
                .entry(name.to_string())
                .or_default()
                .merge(&h);
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

/// Runs `f` with the calling thread's buffer; returns `None` if the buffer
/// is no longer accessible (thread teardown).
pub(crate) fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> Option<R> {
    LOCAL.try_with(|l| f(&mut l.borrow_mut())).ok()
}

/// Flushes the calling thread's buffered counters and histograms into the
/// global sink.
///
/// Thread-local destructors also flush, but they may run *after* a
/// `std::thread::scope` (or a `join`) observes the thread as finished, so
/// worker pools must flush explicitly before their threads are joined.
/// [`crate::ParentScope`] does this on drop; call this directly from
/// workers that do not adopt a parent span.
pub fn flush_thread() {
    let _ = with_local(LocalBuf::flush);
}

/// Counter totals attributed to `trace` across all flushed threads (see
/// [`crate::counter_add`]; attribution requires an ambient trace and
/// enabled collection). Returns an empty map for unknown traces.
pub fn trace_counters(trace: u64) -> BTreeMap<String, u64> {
    flush_thread();
    let registry = TRACE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    registry
        .iter()
        .find(|(t, _)| *t == trace)
        .map(|(_, counters)| counters.clone())
        .unwrap_or_default()
}

/// A non-destructive copy of the counters, gauges and histograms flushed
/// so far (the calling thread's buffer included): what `ilt-serve`'s
/// `/metrics` scrapes. It carries no spans — a scrape must not cost a walk
/// of the span store ([`flight`]). Buffers on *other* live threads are not
/// visible until those threads flush (see [`flush_thread`]).
pub fn snapshot() -> Telemetry {
    flush_thread();
    let sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    Telemetry {
        events: Vec::new(),
        counters: sink.counters.clone(),
        gauges: metrics::gauges_snapshot(),
        histograms: sink.histograms.clone(),
    }
}

/// Takes everything collected so far: every span in the store
/// ([`flight`]), the calling thread's buffer and the global sink (which
/// worker threads flushed into). Call from the thread that drove the work,
/// after its worker threads joined. Gauges are taken too (the registry is
/// cleared), so back-to-back runs in one process start clean. The store is
/// bounded: this is the whole run only if the caller lifted the bound
/// before it started ([`flight::set_capacity`]).
pub fn drain() -> Telemetry {
    flush_thread();
    let sink = std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()));
    Telemetry {
        events: flight::take(),
        counters: sink.counters,
        gauges: metrics::gauges_take(),
        histograms: sink.histograms,
    }
}
