//! In-memory spans around every call the harness makes into the system:
//! process spawns, socket operations and library probes. Spans are kept in
//! memory and written once, when the traced phase ends; with tracing off
//! nothing is recorded.

use crate::json::escape;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The operation (pass, sample or job) the span belongs to.
    pub job: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, job: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let i = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(i);
        SpanId(Some(i))
    }

    /// Closes `id` and any span opened inside it that is still open.
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == i {
                break;
            }
        }
    }

    /// Records a finished child of `parent` that was timed elsewhere, with
    /// times relative to the parent's start: a probe process reports its
    /// library calls relative to its own start.
    pub fn record_child(&mut self, parent: SpanId, name: &str, start_ns: u64, end_ns: u64) {
        let Some(p) = parent.0 else { return };
        let base = self.spans[p].start_ns;
        let job = self.spans[p].job;
        self.spans.push(Span {
            name: name.to_string(),
            job,
            parent: Some(p),
            start_ns: base + start_ns,
            end_ns: base + end_ns.max(start_ns),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, f64> {
        let st = self_times_ns(&self.spans);
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(st) {
            *out.entry(s.name.clone()).or_insert(0.0) += t as f64 / 1e6;
        }
        out
    }

    pub fn to_json(&self) -> String {
        let st = self_times_ns(&self.spans);
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(st)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                format!(
                    "    {{\"id\": {i}, \"parent\": {}, \"name\": \"{}\", \"job\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    escape(&s.name),
                    s.job,
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                    self_ns as f64 / 1e3,
                )
            })
            .collect();
        format!("{{\n  \"spans\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".into(),
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),  // overlaps the first child: counted once
            span(Some(0), 90, 120), // runs past the parent: clipped
            span(Some(1), 12, 18),  // grandchild: only its parent subtracts it
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 20 - 6, 30, 30, 6]
        );
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let mut t = Tracer::new(false);
        let a = t.begin("a", 1);
        t.end(a);
        assert!(t.spans().is_empty());

        let mut t = Tracer::new(true);
        let a = t.begin("a", 1);
        let b = t.begin("b", 1);
        t.record_child(b, "probe", 5, 7);
        t.end(a); // closes the forgotten `b` too
        let c = t.begin("c", 2);
        t.end(c);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].end_ns - s[2].start_ns, 2);
        assert_eq!(s[3].parent, None);
        assert!(s[1].end_ns > 0 && s[1].end_ns <= s[0].end_ns);
        crate::json::parse(&t.to_json()).expect("trace.json parses");
    }
}
