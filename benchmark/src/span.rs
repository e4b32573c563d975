//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory during the run and are
//! written out once at exit. A span's self time is its duration minus
//! the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: duration minus its direct children's
/// durations. The recorder is single-threaded, so siblings never
/// overlap and the children's cover is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts the next request; spans recorded from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Runs `f` inside a span named `name`, nested in whichever span is
    /// open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations in ns of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// `(calls, total self ns)` per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"request\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, 100, None),    // 100 - (30 + 20) = 50
            span(10, 40, Some(0)), // 30 - 10 = 20
            span(15, 25, Some(1)), // 10
            span(50, 70, Some(0)), // 20
            span(200, 260, None),  // 60
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 60]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100 + 60, "self times add up to the root spans");
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new();
        t.next_request();
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
        });
        t.next_request();
        t.span("outer", |_| ());
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].request), ("outer", None, 1));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].request),
            ("inner", Some(0), 1)
        );
        assert_eq!((s[2].parent, s[2].request), (None, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["outer"].0, 2);
        assert_eq!(by_name["inner"].0, 1);
        assert_eq!(t.durations("inner").len(), 1);
    }
}
