//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, a start and an end (relative to the tracer's
//! origin), the span that caused it, and a request or epoch id. Spans stay
//! in memory until the run ends and are then written out as TSV. A span's
//! self time is its duration minus the part of it its child spans cover;
//! a phase's coverage is the covered part over the whole.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Nanoseconds of span `idx` covered by its direct children.
    pub fn covered_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        covered(children, s.start_ns, s.end_ns)
    }

    /// Self time of span `idx`: its duration minus what its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        self.spans[idx].ns() - self.covered_ns(idx)
    }

    /// Coverage of every root span named `root`: `(covered, total)` ns summed.
    pub fn coverage(&self, root: &str) -> (u64, u64) {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.parent.is_none())
            .fold((0, 0), |(c, t), (i, s)| {
                (c + self.covered_ns(i), t + s.ns())
            })
    }

    /// Lowest coverage among the root spans named `root`, as a fraction.
    pub fn min_coverage(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.parent.is_none())
            .map(|(i, s)| self.covered_ns(i) as f64 / s.ns().max(1) as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// One line per span: name, id, index, parent, start, end, self (ns).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tid\tspan\tparent\tstart_ns\tend_ns\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered(vec![], 0, 100), 0);
        assert_eq!(covered(vec![(10, 20), (30, 40)], 0, 100), 20);
        assert_eq!(covered(vec![(10, 30), (20, 40)], 0, 100), 30);
        assert_eq!(covered(vec![(20, 40), (10, 30)], 0, 100), 30);
        assert_eq!(covered(vec![(10, 50), (20, 30)], 0, 100), 40);
        assert_eq!(covered(vec![(0, 150)], 50, 100), 50);
        assert_eq!(covered(vec![(0, 10), (200, 300)], 50, 100), 0);
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = tracer(vec![
            span("setup", None, 0, 1000),
            span("read", Some(0), 0, 100),
            span("compute", Some(0), 150, 900),
            span("inner", Some(2), 200, 800),
            span("other", None, 2000, 2100),
        ]);
        assert_eq!(t.self_ns(0), 1000 - 100 - 750);
        assert_eq!(t.self_ns(2), 750 - 600);
        assert_eq!(t.self_ns(3), 600);
        assert_eq!(t.coverage("setup"), (850, 1000));
        assert_eq!(t.min_coverage("setup"), 0.85);
        let self_sum: u64 = (0..4).map(|i| t.self_ns(i)).sum();
        assert_eq!(self_sum, 1000, "self times of a tree add up to its root");
    }

    #[test]
    fn coverage_takes_every_root_of_that_name() {
        let t = tracer(vec![
            span("epoch", None, 0, 100),
            span("refresh", Some(0), 0, 95),
            span("epoch", None, 200, 300),
            span("refresh", Some(2), 200, 250),
        ]);
        assert_eq!(t.coverage("epoch"), (145, 200));
        assert_eq!(t.min_coverage("epoch"), 0.5);
    }

    #[test]
    fn recorded_spans_nest_and_write_out() {
        let mut t = Tracer::default();
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.to_tsv().lines().count(), 3);
        assert_eq!(t.ms("inner").len(), 1);
    }
}
