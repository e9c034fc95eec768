//! Spans recorded around the benchmark's calls into each layer.
//!
//! Loops keep their spans in a local `Vec` and hand them over when they
//! finish, so recording costs one clock read per boundary and no lock.
//! Everything stays in memory until [`Tracer::write`] at the end of the
//! run; the per-layer figures are then derived from the spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by the spans of one request (0 = none).
    pub request: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Items the call handled (batch size), for per-item figures.
    pub items: u32,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as one span named `name` over `items` items.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        items: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(Span {
            name,
            request,
            start,
            end,
            items,
        });
        out
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("trace lock").push(span);
    }

    pub fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().expect("trace lock").extend(spans);
    }

    /// Per-item durations, in seconds, of every span named `name`.
    pub fn per_item_seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("trace lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-9 / f64::from(s.items.max(1)))
            .collect()
    }

    /// Span counts by name, for the run's summary.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for s in self.spans.lock().expect("trace lock").iter() {
            *out.entry(s.name).or_insert(0) += 1;
        }
        out
    }

    /// Write every span as one CSV line: name, request, start ns, end ns,
    /// items.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,request,start_ns,end_ns,items")?;
        for s in self.spans.lock().expect("trace lock").iter() {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.request, s.start, s.end, s.items
            )?;
        }
        out.flush()
    }
}
