//! Ambient per-thread trace ids.
//!
//! A trace id names one unit of attribution — one serve job, one bench
//! case, one HTTP request — and every span recorded while the id is in
//! scope carries it, so the flight recorder can reassemble a single job's
//! span tree even when concurrent jobs interleave on shared worker
//! threads. The id is the `trace` field of the thread's
//! [`crate::context::Context`], set with an RAII [`trace_scope`]; the tile
//! executor re-installs the whole record on its worker threads.
//!
//! Spans opened with *no* ambient trace and no parent (process roots)
//! allocate a fresh trace id for their subtree, so every recorded span has
//! a non-zero trace id.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::context;

/// Process-unique trace id. Never zero (zero is the "no trace" sentinel in
/// the context record and on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique trace id (does not install it; pair
/// with [`trace_scope`]).
pub fn next_trace_id() -> TraceId {
    TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
}

/// The trace id currently in scope on this thread, if any.
#[inline]
pub fn current_trace() -> Option<TraceId> {
    match current_trace_raw() {
        0 => None,
        id => Some(TraceId(id)),
    }
}

/// Raw accessor (`0` means "no trace"). Like every read of the context
/// record it never allocates and returns the default instead of panicking
/// during thread teardown.
#[inline]
pub fn current_trace_raw() -> u64 {
    context::current().trace
}

/// Installs `trace` (or clears it with `None`) as the calling thread's
/// ambient trace until the returned guard drops. Scopes nest; the
/// innermost wins.
pub fn trace_scope(trace: Option<TraceId>) -> TraceScope {
    context::scope(|c| &mut c.trace, trace.map_or(0, |t| t.0))
}

/// Guard restoring the thread's previous ambient trace (see
/// [`trace_scope`]).
pub type TraceScope = context::Scope<u64>;

/// Installs (and returns) a freshly allocated trace id in one call — the
/// common "start a new job here" entry point.
#[must_use = "the trace id is restored when the scope guard drops"]
pub fn new_trace_scope() -> (TraceId, TraceScope) {
    let id = next_trace_id();
    (id, trace_scope(Some(id)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_by_default() {
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        {
            let _outer = trace_scope(Some(a));
            assert_eq!(current_trace(), Some(a));
            {
                let _inner = trace_scope(Some(b));
                assert_eq!(current_trace(), Some(b));
                {
                    let _cleared = trace_scope(None);
                    assert_eq!(current_trace(), None);
                }
                assert_eq!(current_trace(), Some(b));
            }
            assert_eq!(current_trace(), Some(a));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn traces_are_thread_local() {
        let (id, _scope) = new_trace_scope();
        std::thread::spawn(|| {
            assert_eq!(current_trace(), None);
        })
        .join()
        .unwrap();
        assert_eq!(current_trace(), Some(id));
    }
}
