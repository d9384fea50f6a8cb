//! In-memory span log of the traced run, written out when the run ends.
//!
//! The benchmark records spans from its own code only, around the calls
//! it makes into each crate: a client request (keyed by the request's wire
//! `id`), each `Planner::plan` call the timing wrapper sees, and each
//! replayed layer call. Spans inside the serving program are not recorded.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use einet_trace::json::JsonWriter;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the log (starts at 1).
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// `layer.operation` name.
    pub name: &'static str,
    /// Wire id of the request the span serves, 0 when none is known.
    pub trace: u64,
    /// Start, µs after the log's epoch.
    pub start_us: f64,
    /// End, µs after the log's epoch.
    pub end_us: f64,
}

/// A thread-safe, append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, for a parent whose children close before it does.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under an id from [`SpanLog::reserve`].
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            name,
            trace,
            start_us: us(start),
            end_us: us(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Records a span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, trace, start, end);
        id
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes one JSON object per span, in id order.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.id);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("id");
            w.number_u64(s.id);
            w.key("parent");
            w.number_u64(s.parent);
            w.key("name");
            w.string(s.name);
            w.key("trace");
            w.number_u64(s.trace);
            w.key("start_us");
            w.number_f64(s.start_us);
            w.key("end_us");
            w.number_f64(s.end_us);
            w.end_object();
            writeln!(out, "{}", w.finish())?;
        }
        out.flush()
    }
}
