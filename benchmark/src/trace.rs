//! Spans around client calls, kept in memory and written at exit.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed client call (or the window that caused it).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub conn: u8,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One connection's span recorder. Disabled (the untraced runs), it
/// records nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    conn: u8,
    next: u64,
    parent: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by every connection of a run so their spans
    /// are on one clock.
    pub fn new(conn: u8, epoch: Instant) -> Self {
        Tracer {
            enabled: false,
            epoch,
            conn,
            next: 1,
            parent: 0,
            spans: Vec::new(),
        }
    }

    pub fn enable(&mut self, on: bool) {
        self.enabled = on;
    }

    fn fresh_id(&mut self) -> u64 {
        let id = (u64::from(self.conn) << 40) | self.next;
        self.next += 1;
        id
    }

    /// Records a finished call under the current parent.
    pub fn record(&mut self, op: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.fresh_id();
        self.spans.push(Span {
            id,
            parent: self.parent,
            conn: self.conn,
            op,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
    }

    /// Times `f` as a span named `op`.
    pub fn span<T>(&mut self, op: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(op, start, Instant::now());
        out
    }

    /// Opens a parent span (a window, a phase): calls recorded until
    /// [`Tracer::close`] name it as their cause.
    pub fn open(&mut self, op: &'static str) -> OpenSpan {
        let id = if self.enabled { self.fresh_id() } else { 0 };
        let outer = std::mem::replace(&mut self.parent, id);
        OpenSpan {
            id,
            outer,
            op,
            start: Instant::now(),
        }
    }

    pub fn close(&mut self, open: OpenSpan) {
        self.parent = open.outer;
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                parent: open.outer,
                conn: self.conn,
                op: open.op,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: self.epoch.elapsed().as_nanos() as u64,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A parent span in progress.
pub struct OpenSpan {
    id: u64,
    outer: u64,
    op: &'static str,
    start: Instant,
}

/// Writes spans as JSON lines: `{id, parent, conn, op, start_ns, end_ns}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"conn\":{},\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.conn, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_window() {
        let mut t = Tracer::new(1, Instant::now());
        t.enable(true);
        let w = t.open("window");
        t.span("submit", || ());
        t.close(w);
        t.span("flush", || ());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        let window = spans.iter().find(|s| s.op == "window").unwrap();
        let submit = spans.iter().find(|s| s.op == "submit").unwrap();
        let flush = spans.iter().find(|s| s.op == "flush").unwrap();
        assert_eq!(submit.parent, window.id);
        assert_eq!(flush.parent, 0);
        assert!(window.start_ns <= submit.start_ns && submit.end_ns <= window.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(0, Instant::now());
        let w = t.open("window");
        assert_eq!(t.span("submit", || 7), 7);
        t.close(w);
        assert!(t.into_spans().is_empty());
    }
}
