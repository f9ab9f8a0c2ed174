//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end (host nanoseconds since the
//! tracer was created), the span that was open when it began, and how
//! many operations it covered. Spans are kept in memory and written once,
//! as JSON, when the run ends. Per-layer metrics are derived from them:
//! a layer's cost per operation is its spans' total time over their
//! total operation count.

use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub ops: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the number of operations it performed.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            ops: 0,
        });
        self.open.push(id);
        let (value, ops) = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.ops = ops;
        value
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// Total operations of every span named `name`.
    pub fn total_ops(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.ops).sum()
    }

    /// Nanoseconds per operation over every span named `name`.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        self.total_ns(name) / self.total_ops(name) as f64
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Every span as a JSON array, in the order they began.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"ops\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.ops
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
