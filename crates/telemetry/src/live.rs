//! The per-thread open-span stack, shared for out-of-thread sampling.
//!
//! Each recording thread has exactly one stack of the spans it has open:
//! [`crate::span`] pushes a frame and reads its parent off it,
//! [`crate::current_span`] reads its top, the guard pops it when it
//! records, and [`crate::parent_scope`] pushes the span a worker adopted
//! from the submitting thread as a frame marked *adopted*. Each operation
//! is one short, normally uncontended mutex hold, under which a sampler
//! thread (`ilt-prof`) clones the stack too: the span store only sees
//! *closed* spans, and a sample must charge the spans open right now.
//!
//! Frames carry the span name plus an optional *detail* string set from
//! the first identifying string field attached to the span (`label`,
//! `name`, `what`, `method`), so collapsed stacks read
//! `flow:multigrid_schwarz;stage:coarse_s=4;tile;solve` rather than an
//! undifferentiated `flow;stage;tile;solve`. Numeric fields (tile and job
//! indices) are deliberately ignored so frames from different tiles
//! collapse into one flamegraph node.
//!
//! Stacks are registered when a thread's telemetry buffer is first used
//! and unregistered (lazily, via `Weak` upgrade failure) when the thread
//! exits. [`sample_stacks`] skips adopted frames — the thread that opened
//! the span is charged for it — so worker threads root at their `job`
//! span, which is what a per-thread CPU profile should show.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// One open span on a live stack.
#[derive(Debug, Clone)]
pub struct LiveFrame {
    /// Span id (matches the eventual [`crate::SpanEvent::id`]).
    pub id: u64,
    /// Span name (one of [`crate::names`] for workspace spans).
    pub name: &'static str,
    /// First identifying string field (`label`/`name`/`what`/`method`),
    /// if one was attached.
    pub detail: Option<String>,
    /// The frame stands for a span open on another thread, adopted as this
    /// thread's parent ([`crate::parent_scope`]); never sampled.
    pub(crate) adopted: bool,
}

/// A thread's shared open-span stack. Owned by the thread's telemetry
/// buffer; the registry holds a `Weak`.
#[derive(Debug)]
pub(crate) struct LiveStack {
    /// Small per-thread ordinal (0 = first thread that recorded).
    pub(crate) thread: u64,
    frames: Mutex<Vec<LiveFrame>>,
}

static REGISTRY: Mutex<Vec<Weak<LiveStack>>> = Mutex::new(Vec::new());

impl LiveStack {
    /// Creates and registers the calling thread's stack, giving the thread
    /// its ordinal. Called once per thread from the telemetry buffer's
    /// constructor.
    pub(crate) fn register() -> Arc<LiveStack> {
        static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);
        let stack = Arc::new(LiveStack {
            thread: THREAD_SEQ.fetch_add(1, Ordering::Relaxed),
            frames: Mutex::new(Vec::new()),
        });
        let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        // Prune entries from exited threads while we hold the lock anyway.
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(&stack));
        stack
    }

    /// Pushes a frame (an opened span, or with `adopted` the parent a
    /// worker took over) and returns the id of the frame it landed on: the
    /// new span's parent.
    pub(crate) fn push(&self, id: u64, name: &'static str, adopted: bool) -> Option<u64> {
        let mut frames = self.frames.lock().unwrap_or_else(|e| e.into_inner());
        let parent = frames.last().map(|f| f.id);
        frames.push(LiveFrame {
            id,
            name,
            detail: None,
            adopted,
        });
        parent
    }

    /// The innermost frame's span id.
    pub(crate) fn innermost(&self) -> Option<u64> {
        let frames = self.frames.lock().unwrap_or_else(|e| e.into_inner());
        frames.last().map(|f| f.id)
    }

    /// Pops back to (and including) the frame with `id`: a guard dropped
    /// out of order also closes everything opened above it.
    pub(crate) fn pop(&self, id: u64) {
        let mut frames = self.frames.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = frames.iter().rposition(|f| f.id == id) {
            frames.truncate(pos);
        }
    }

    /// Sets the detail string of the open frame with `id` (innermost
    /// match), if it has none yet — first identifying field wins.
    pub(crate) fn set_detail(&self, id: u64, detail: &str) {
        let mut frames = self.frames.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(frame) = frames.iter_mut().rev().find(|f| f.id == id) {
            if frame.detail.is_none() {
                frame.detail = Some(detail.to_string());
            }
        }
    }
}

/// Snapshot of every live thread's own open spans, as
/// `(thread ordinal, frames outermost-first)`. Adopted frames are left out,
/// and so are threads with nothing else open. This is the sampling
/// profiler's read side; each stack is cloned under one short per-thread
/// mutex hold.
pub fn sample_stacks() -> Vec<(u64, Vec<LiveFrame>)> {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::with_capacity(reg.len());
    for weak in reg.iter() {
        if let Some(stack) = weak.upgrade() {
            let frames: Vec<LiveFrame> = stack
                .frames
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .filter(|f| !f.adopted)
                .cloned()
                .collect();
            if !frames.is_empty() {
                out.push((stack.thread, frames));
            }
        }
    }
    out.sort_by_key(|(thread, _)| *thread);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_spans_are_visible_and_popped() {
        let outer_id;
        {
            let mut outer = crate::span(crate::names::FLOW);
            outer.add_field("name", "live_test_flow");
            outer_id = outer.span_ref().unwrap().0;
            let _inner = crate::span(crate::names::STAGE);
            let me = crate::collect::with_local(|l| l.live.thread).unwrap();
            let stacks = sample_stacks();
            let mine = stacks
                .iter()
                .find(|(t, _)| *t == me)
                .expect("own stack visible");
            assert_eq!(mine.1.len(), 2);
            assert_eq!(mine.1[0].name, crate::names::FLOW);
            assert_eq!(mine.1[0].detail.as_deref(), Some("live_test_flow"));
            assert_eq!(mine.1[1].name, crate::names::STAGE);
            assert_eq!(mine.1[1].detail, None);
        }
        let me = crate::collect::with_local(|l| l.live.thread).unwrap();
        let stacks = sample_stacks();
        let mine = stacks.iter().find(|(t, _)| *t == me);
        assert!(
            mine.is_none() || mine.unwrap().1.iter().all(|f| f.id != outer_id),
            "closed spans must leave the live stack"
        );
    }

    #[test]
    fn worker_stacks_stand_alone() {
        let span = crate::span(crate::names::JOB);
        let parent = span.span_ref();
        std::thread::spawn(move || {
            let _adopted = crate::parent_scope(parent);
            let tile = crate::span(crate::names::TILE);
            let me = crate::collect::with_local(|l| l.live.thread).unwrap();
            let stacks = sample_stacks();
            let mine = stacks
                .iter()
                .find(|(t, _)| *t == me)
                .expect("worker stack visible");
            // The adopted parent is a frame the sampler skips: the
            // worker's profile roots at its own tile span, which is
            // nevertheless the adopted span's child.
            assert_eq!(mine.1.len(), 1);
            assert_eq!(mine.1[0].name, crate::names::TILE);
            assert_eq!(crate::current_span(), tile.span_ref());
            drop(tile);
            assert_eq!(crate::current_span(), parent);
        })
        .join()
        .unwrap();
    }
}
