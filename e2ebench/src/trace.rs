//! In-memory span recorder for the traced run. Spans are taken only in
//! the benchmark's own code: around calls into a crate's public
//! functions, and from the timestamps at which the benchmark observes a
//! program's events (`LabEvent` lines, serve response frames,
//! `SearchEvent` callbacks). They are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::union_len;

/// One recorded interval. `parent` indexes the span that caused it;
/// `id` names the cell or request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub id: String,
}

impl Span {
    pub fn dur(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Self time of one layer: its spans' durations minus the part covered
/// by their child spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Mutex::new(Vec::new()) }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned")
    }

    /// Records a finished span and returns its index.
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span { name, start: self.at(start), end: self.at(end), parent, id: id.into() };
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span whose end is set later by [`set_end`](Self::set_end).
    pub fn open(&self, name: &'static str, parent: Option<usize>, id: &str) -> usize {
        let now = Instant::now();
        self.span(name, parent, id, now, now)
    }

    pub fn set_end(&self, idx: usize, end: Instant) {
        let end = self.at(end);
        self.lock()[idx].end = end;
    }

    pub fn set_start(&self, idx: usize, start: Instant) {
        let start = self.at(start);
        self.lock()[idx].start = start;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, parent, id, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Count and summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> (usize, f64) {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, t), s| (n + 1, t + s.dur()))
    }

    /// Per-layer count, total and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.lock();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                children[p].push((s.start.max(parent.start), s.end.min(parent.end)));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(&children) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.dur();
            t.self_s += (s.dur() - union_len(kids)).max(0.0);
        }
        out
    }

    /// Share of the wall time of the spans named `root` that none of
    /// their direct children covers.
    pub fn uncovered_share(&self, root: &str) -> f64 {
        let spans = self.lock();
        let mut wall = 0.0;
        let mut uncovered = 0.0;
        for (i, r) in spans.iter().enumerate().filter(|(_, s)| s.name == root) {
            let kids: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| (s.start.max(r.start), s.end.min(r.end)))
                .collect();
            wall += r.dur();
            uncovered += (r.dur() - union_len(&kids)).max(0.0);
        }
        if wall > 0.0 {
            uncovered / wall
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in self.lock().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"id\":\"{}\"}}",
                s.name,
                s.start,
                s.end,
                s.id.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let tr = Tracer::new(t0);
        let root = tr.span("root", None, "a", at(0), at(100));
        tr.span("child", Some(root), "a", at(10), at(40));
        tr.span("child", Some(root), "a", at(30), at(60));
        let times = tr.layer_times();
        assert!((times["root"].self_s - 0.05).abs() < 1e-9);
        assert_eq!(times["child"].count, 2);
        assert!((times["child"].total_s - 0.06).abs() < 1e-9);
        assert!((tr.uncovered_share("root") - 0.5).abs() < 1e-9);
        assert_eq!(tr.total("child").0, 2);
    }
}
