//! The harness-owned, in-memory span recorder behind `--trace 1`.
//!
//! A span is (name, start, end, parent, step): one per call the harness
//! makes into a layer. Spans are kept in memory and written out once, at
//! exit. A span's *self time* is its duration minus the part of that
//! interval its children cover. Where a step of the program is opaque
//! (`SoclServe::step`, `OnlineSimulator::step`), its children are calls
//! the harness *replays* on that step's inputs between steps; they are
//! flagged `replay`, carry the parent's start as their own, and are
//! compared to the parent by duration only.

use crate::json;
use std::time::{Duration, Instant};

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The step (tick, solve, slot) this span belongs to; spans of one
    /// step share the id.
    pub step: u64,
    pub replay: bool,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, step: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            step,
            replay: false,
        });
        self.spans.len() - 1
    }

    /// Close a span now and return its duration.
    pub fn end(&mut self, id: SpanId) -> Duration {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        Duration::from_nanos(span.nanos())
    }

    /// Time `f` as a child span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        step: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(name, parent, step);
        let out = f();
        (out, self.end(id))
    }

    /// Record a replayed child of `parent`: a call made after the opaque
    /// parent step finished, on that step's inputs. Placed at the parent's
    /// start so the tree stays well-formed.
    pub fn replayed(&mut self, name: &'static str, parent: SpanId, wall: Duration) {
        let (start, step) = (self.spans[parent].start_ns, self.spans[parent].step);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + wall.as_nanos() as u64,
            parent: Some(parent),
            step,
            replay: true,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn span_nanos(&self, id: SpanId) -> u64 {
        self.spans[id].nanos()
    }

    /// Over every span named `parent_name`: Σ child *durations* ÷ Σ parent
    /// duration. For opaque steps whose children are replays (which all
    /// hang off the parent's start) the sum, not the union, is the share
    /// of the step the replays account for.
    pub fn child_sum_frac(&self, parent_name: &str) -> Option<f64> {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == parent_name)
            .map(Span::nanos)
            .sum();
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent_name))
            .map(Span::nanos)
            .sum();
        (total > 0).then(|| children as f64 / total as f64)
    }

    /// Nanoseconds of `id`'s interval covered by its direct children
    /// (overlaps counted once, children clipped to the parent).
    pub fn child_cover_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id];
        let mut cuts: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        cuts.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (a, b) in cuts {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        covered
    }

    /// Self time: the span minus what its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans[id].nanos() - self.child_cover_ns(id)
    }

    /// Over every span named `parent_name`: Σ child cover ÷ Σ duration.
    pub fn cover_frac(&self, parent_name: &str) -> Option<f64> {
        let (mut cover, mut total) = (0u64, 0u64);
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == parent_name {
                cover += self.child_cover_ns(id);
                total += s.nanos();
            }
        }
        (total > 0).then(|| cover as f64 / total as f64)
    }

    /// One JSON object per line: the spans, then per-name totals with
    /// self time.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = json::object([
                ("id", id.to_string()),
                ("name", json::string(s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
                ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                ("step", s.step.to_string()),
                ("replay", s.replay.to_string()),
            ]);
            writeln!(out, "{line}")?;
        }
        let mut totals: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
        for (id, s) in self.spans.iter().enumerate() {
            let t = totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.nanos();
            t.2 += self.self_ns(id);
        }
        for (name, (count, total, own)) in totals {
            let line = json::object([
                ("summary", json::string(name)),
                ("count", count.to_string()),
                ("total_ns", total.to_string()),
                ("self_ns", own.to_string()),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }

    #[cfg(test)]
    fn push_raw(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            step: 0,
            replay: false,
        });
        self.spans.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let mut r = Recorder::new();
        let root = r.push_raw("solve", 0, 100, None);
        let a = r.push_raw("partition", 0, 10, Some(root));
        r.push_raw("combine", 20, 90, Some(root));
        r.push_raw("vg", 2, 6, Some(a));
        assert_eq!(r.child_cover_ns(root), 80);
        assert_eq!(r.self_ns(root), 20);
        assert_eq!(r.self_ns(a), 6);
        assert_eq!(r.cover_frac("solve"), Some(0.8));
        assert_eq!(r.cover_frac("absent"), None);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut r = Recorder::new();
        let root = r.push_raw("step", 10, 110, None);
        r.push_raw("x", 10, 60, Some(root));
        r.push_raw("y", 40, 80, Some(root));
        r.push_raw("z", 100, 500, Some(root));
        assert_eq!(r.child_cover_ns(root), 70 + 10);
        assert_eq!(r.self_ns(root), 20);
    }

    #[test]
    fn replayed_children_hang_off_the_parent_start() {
        let mut r = Recorder::new();
        let root = r.push_raw("step", 1000, 3000, None);
        r.replayed("replay.route", root, Duration::from_nanos(500));
        r.replayed("replay.scan", root, Duration::from_nanos(700));
        // Replays overlap by construction; cover is the longest, sums are
        // taken by the caller from durations.
        assert_eq!(r.child_cover_ns(root), 700);
        assert!(r.spans[1].replay && r.spans[1].parent == Some(root));
        assert_eq!(r.len(), 3);
        assert_eq!(r.child_sum_frac("step"), Some(0.6));
        assert_eq!(r.span_nanos(root), 2000);
    }

    #[test]
    fn scope_nests_and_times() {
        let mut r = Recorder::new();
        let root = r.begin("solve", None, 7);
        let (v, d) = r.scope("stage", Some(root), 7, || 41 + 1);
        let total = r.end(root);
        assert_eq!(v, 42);
        assert!(d <= total);
        assert!(r.child_cover_ns(root) <= r.spans[root].nanos());
    }
}
