//! The benchmark's own spans: kept in memory during a traced run and
//! written out as JSONL when it ends. They wrap each client request and
//! each in-process call into a layer, from the benchmark's side; spans
//! inside the program are not read.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. Times are ns since the run's epoch; `parent` is 0
/// for a root span; spans of one request share `rid`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub rid: u64,
}

impl Span {
    pub fn root(name: &'static str, start_ns: u64, end_ns: u64, rid: u64) -> Span {
        Span::child(name, start_ns, end_ns, 0, rid)
    }

    pub fn child(name: &'static str, start_ns: u64, end_ns: u64, parent: u64, rid: u64) -> Span {
        Span {
            id: 0,
            name,
            start_ns,
            end_ns,
            parent,
            rid,
        }
    }

    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span sink shared by the driver's threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Stores `span` under a fresh id and returns the id.
    pub fn record(&self, mut span: Span) -> u64 {
        span.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id = span.id;
        self.spans.lock().expect("span sink poisoned").push(span);
        id
    }

    /// Times `f` as a root span named `name` for request `rid`; returns
    /// its result and the span's duration in µs.
    pub fn time<R>(&self, name: &'static str, rid: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.now_ns();
        let r = std::hint::black_box(f());
        let span = Span::root(name, start, self.now_ns(), rid);
        let us = span.micros();
        self.record(span);
        (r, us)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations in µs of every span named `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span sink poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<usize> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rid\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.rid
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}
