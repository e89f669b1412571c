//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions.  Nothing inside the crates is instrumented.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! `(scenario, rep)` cell it belongs to.  Spans stay in memory (cells record
//! them from pool threads, hence the mutex) and are written out once, when
//! the run ends.  A disabled tracer records nothing and returns no ids, so
//! an untraced run pays one branch per call site.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// `(scenario, rep)` of a fabric cell; other cells use `(index, 0)`.
pub type CellId = (u32, u32);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub cell: Option<CellId>,
    pub parent: Option<SpanId>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Equal to `start` while the span is open.
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span; `f` receives the span's id to parent its own
    /// spans on.
    pub fn span<R>(
        &self,
        name: &str,
        cell: Option<CellId>,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let now = self.origin.elapsed().as_secs_f64();
            let mut spans = self.spans.lock().expect("span list poisoned by a panic");
            spans.push(Span {
                name: name.to_string(),
                cell,
                parent,
                start: now,
                end: now,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned by a panic")[id].end = now;
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::spans_since`]).
    pub fn mark(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .len()
    }

    /// Copies of the spans recorded since `mark`.
    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panic")[mark..].to_vec()
    }

    pub fn all(&self) -> Vec<Span> {
        self.spans_since(0)
    }
}

/// Self time of `parent`: its duration minus the part of its interval that
/// its direct children `kids` cover.  Children that overlap (cells on
/// parallel lanes) are counted once, through the union of their intervals.
fn self_time_of(parent: &Span, kids: &[&Span]) -> f64 {
    let mut cover: Vec<(f64, f64)> = kids
        .iter()
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    cover.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.duration() - covered
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut kids: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push(s);
        }
    }
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let cell = s
            .cell
            .map_or("null".to_string(), |(a, b)| format!("[{a},{b}]"));
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"cell\":{cell},\"parent\":{parent},\"start\":{},\"end\":{},\"self\":{}}}\n",
            s.name,
            s.start,
            s.end,
            self_time_of(s, &kids[id])
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_time(spans: &[Span], id: SpanId) -> f64 {
        let kids: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(id)).collect();
        self_time_of(&spans[id], &kids)
    }

    fn span(name: &str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            cell: None,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // batch [0, 10] with two overlapping cells [1, 5] and [3, 8] (two
        // lanes), a third cell [8.5, 9], and a grandchild inside cell 1
        // that must not count against the batch.
        let spans = vec![
            span("batch", None, 0.0, 10.0),
            span("cell", Some(0), 1.0, 5.0),
            span("cell", Some(0), 3.0, 8.0),
            span("cell", Some(0), 8.5, 9.0),
            span("inner", Some(1), 2.0, 4.0),
        ];
        assert!((self_time(&spans, 0) - (10.0 - 7.0 - 0.5)).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 5.0).abs() < 1e-12);
        assert!((self_time(&spans, 4) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("parent", None, 1.0, 3.0),
            span("child", Some(0), 0.0, 2.0),
        ];
        assert!((self_time(&spans, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.mark(), 0);
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        t.span("outer", Some((1, 2)), None, |outer| {
            t.span("inner", Some((1, 2)), outer, |_| ());
        });
        let spans = t.all();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some((1, 2)));
        assert!(spans[0].end >= spans[1].end && spans[1].start >= spans[0].start);
    }
}
