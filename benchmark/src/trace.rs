//! The benchmark's own in-memory span list.
//!
//! Spans are recorded around the benchmark's calls into each layer — the
//! program is not instrumented here — kept in memory, and written out as
//! JSON lines when the run ends. With tracing off nothing is recorded, so
//! the untraced run measures the program alone.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in the tracer's list.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<SpanId>,
    /// Timed-operation index shared by every span of one operation.
    pub op: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    pub end_s: f64,
    /// Laid out from a reported *duration* (`FlowResult.stages`), not from
    /// a clock read at its start: only `end_s - start_s` is a measurement.
    pub synthetic: bool,
}

/// Span recorder; a no-op when constructed disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now. Returns a dummy id when disabled.
    /// Whether this is the traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&mut self, name: &str, parent: Option<SpanId>, op: Option<usize>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            op,
            start_s: now,
            end_s: now,
            synthetic: false,
        });
        self.spans.len() - 1
    }

    /// Ends a span opened by [`Tracer::open`] now.
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Start time of an open or closed span (0 when disabled).
    pub fn start_of(&self, id: SpanId) -> f64 {
        if self.enabled {
            self.spans[id].start_s
        } else {
            0.0
        }
    }

    /// Adds a child laid out at `start_s` lasting `duration_s`, for
    /// durations the program reports without start times.
    pub fn synthetic(
        &mut self,
        name: &str,
        parent: SpanId,
        op: Option<usize>,
        start_s: f64,
        duration_s: f64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            op,
            start_s,
            end_s: start_s + duration_s,
            synthetic: true,
        });
        self.spans.len() - 1
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: `id`, `parent`, `op`, `name`,
    /// `start_s`, `end_s`, `synthetic`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\":{id},\"parent\":");
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"op\":");
            match s.op {
                Some(k) => {
                    let _ = write!(out, "{k}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"name\":{},\"start_s\":{},\"end_s\":{},\"synthetic\":{}}}",
                crate::report::json_string(&s.name),
                s.start_s,
                s.end_s,
                s.synthetic
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let root = t.open("workload", None, None);
        let child = t.synthetic("tile 0", root, Some(0), 0.0, 1.0);
        t.close(child);
        t.close(root);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.open("workload", None, None);
        let op = t.open("op", Some(root), Some(3));
        let run = t.open("run_method", Some(op), Some(3));
        t.close(run);
        let start = t.start_of(run);
        let tile = t.synthetic("tile 4", run, Some(3), start, 0.25);
        t.close(op);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans[tile].parent, Some(run));
        assert_eq!(spans[tile].op, Some(3));
        assert!(spans[tile].synthetic && !spans[run].synthetic);
        assert!((spans[tile].end_s - spans[tile].start_s - 0.25).abs() < 1e-9);
        assert!(spans[root].start_s <= spans[op].start_s);
        assert!(spans[op].end_s <= spans[root].end_s);
    }
}
