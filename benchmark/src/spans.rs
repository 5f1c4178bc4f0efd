//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is (name, start, end, parent, run id). They are kept in a `Vec`
//! and written out once, when the benchmark ends. An `off` tracer records
//! nothing, which is what the untraced reps run with.

use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<crate>.<module>…` of the layer called, or a benchmark phase.
    pub name: &'static str,
    /// Spans of one rep (or one probe pass) share a run id.
    pub run: u32,
    /// Index of the enclosing span; `None` for a run's root.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Records nested spans.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer whose every call is a no-op.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span under a fresh run id, which it returns.
    pub fn enter_run(&mut self, name: &'static str) -> u32 {
        assert!(self.open.is_empty(), "run `{name}` opened inside a span");
        self.run += 1;
        self.enter(name);
        self.run
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            run: self.run,
            parent,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = now;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans read while one is open");
        &self.spans
    }
}

/// A span's duration minus the part of it its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Seconds spent in run `run`'s first span called `name` (0 when absent).
pub fn seconds_of(spans: &[Span], run: u32, name: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.run == run && s.name == name)
        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
}

/// Renders spans, with self times, as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(i, (s, own_ns))| {
            format!(
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{own_ns}}}",
                s.name,
                s.run,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}
