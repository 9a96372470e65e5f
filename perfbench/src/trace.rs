//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! the benchmark opens a span, calls the layer's public function, and
//! closes it. A span holds its name, start, end, parent and the id of
//! the traced request it belongs to; self time is the span's duration
//! minus the time its direct children cover. Spans stay in memory and
//! are written out with the run's artifact.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trace: 0,
        }
    }

    /// Starts a new traced request: spans opened from here on share a
    /// fresh trace id.
    pub fn begin_trace(&mut self) {
        self.trace += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            trace: self.trace,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes a span (and any span left open inside it); returns its
    /// duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == open.0 {
                break;
            }
        }
        self.spans[open.0].secs()
    }

    /// Seconds of `id` not covered by its direct children.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Every span as a JSON array, with self time.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"trace\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                     \"start_ns\": {}, \"end_ns\": {}, \"self_s\": {}}}",
                    s.trace,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    self.self_secs(id)
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin_trace();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_s = t.exit(inner);
        let outer_s = t.exit(outer);
        assert!(outer_s >= inner_s);
        assert!(t.self_secs(0) <= outer_s - inner_s + 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].trace, t.spans[0].trace);
    }
}
