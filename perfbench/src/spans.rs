//! Spans recorded by the benchmark around each public call it makes. They
//! are kept in memory and written out at the end as chrome-trace JSON
//! (loadable in Perfetto, like `harpgbdt train --trace-out`).

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. `parent` indexes the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans when enabled; when disabled it only times.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// wall seconds. Spans opened inside `f` become children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans
            .push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        (out, start.elapsed().as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self seconds of the spans named `name`: each span's duration
    /// minus the part of it its direct children cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        let own = |idx: usize| {
            let children: f64 =
                self.spans.iter().filter(|s| s.parent == Some(idx)).map(Span::secs).sum();
            (self.spans[idx].secs() - children).max(0.0)
        };
        (0..self.spans.len()).filter(|&i| self.spans[i].name == name).map(own).sum()
    }

    /// Chrome-trace JSON ("X" complete events, microsecond timestamps).
    pub fn to_chrome_trace(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.parent.map_or(-1, |p| p as i64)
            );
        }
        s.push_str("]}\n");
        s
    }
}
