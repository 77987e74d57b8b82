//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. A span's *self time* is the thread time it occupies
//! (`width` threads × its duration) minus the durations of its child
//! spans, so the self times of a span tree add up to its root's thread
//! time and the share no layer explains is visible.

use rt_served::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary this span times, e.g. `traversal.trace`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The cell (or job) the span belongs to; spans of one cell share it.
    pub cell: Option<u32>,
    /// Threads the span keeps busy: 1, or the worker count of a
    /// parallel runner span.
    pub width: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: Option<u32>,
        width: u32,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            cell,
            width,
        });
        spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Runs `f` inside a one-thread span and returns its value.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, cell, 1);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans
        .iter()
        .map(|s| f64::from(s.width) * s.duration_ns() as f64)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_ns() as f64;
        }
    }
    out
}

/// Summed duration per span name, in milliseconds.
pub fn total_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
    }
    out
}

/// The spans as a JSON array, for the trace file.
pub fn to_json(spans: &[Span]) -> Json {
    let self_ns = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                let mut fields = BTreeMap::new();
                fields.insert("name".to_string(), Json::str(s.name));
                fields.insert("start_us".to_string(), Json::Num(s.start_ns as f64 / 1e3));
                fields.insert("end_us".to_string(), Json::Num(s.end_ns as f64 / 1e3));
                fields.insert("self_us".to_string(), Json::Num(self_ns / 1e3));
                fields.insert("width".to_string(), Json::num(u64::from(s.width)));
                if let Some(p) = s.parent {
                    fields.insert("parent".to_string(), Json::num(p as u64));
                }
                if let Some(c) = s.cell {
                    fields.insert("cell".to_string(), Json::num(u64::from(c)));
                }
                Json::Obj(fields)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, width: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cell: None,
            width,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // pass [0,100] ─ runner [5,95] ─ cell [10,60] ─ trace [10,30], run [30,58]
        //                              └ cell [60,90] ─ run [60,90]
        let spans = vec![
            span("pass", 0, 100, None, 1),
            span("runner", 5, 95, Some(0), 1),
            span("cell", 10, 60, Some(1), 1),
            span("traversal.trace", 10, 30, Some(2), 1),
            span("sim.run", 30, 58, Some(2), 1),
            span("cell", 60, 90, Some(1), 1),
            span("sim.run", 60, 90, Some(5), 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10.0, 10.0, 2.0, 20.0, 28.0, 0.0, 30.0]);
        // Self times of a tree add up to its root's duration.
        assert_eq!(selfs.iter().sum::<f64>(), 100.0);
        assert_eq!(total_ms_by_name(&spans)["cell"], 80.0 / 1e6);
    }

    #[test]
    fn parallel_span_counts_thread_time() {
        // Two workers for 100 ns; cells on both threads overlap in time.
        let spans = vec![
            span("runner", 0, 100, None, 2),
            span("cell", 0, 90, Some(0), 1),
            span("cell", 5, 100, Some(0), 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![15.0, 90.0, 95.0]);
        assert_eq!(selfs.iter().sum::<f64>(), 200.0);
    }

    #[test]
    fn recorded_spans_nest_and_close() {
        let tracer = Tracer::new();
        let root = tracer.open("pass", None, None, 1);
        let v = tracer.time("sim.run", Some(root), Some(3), || 7);
        tracer.close(root);
        assert_eq!(v, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some(3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }
}
