//! The benchmark's own spans: one per public call it makes into a layer.
//!
//! A span records its name, start, end and parent; spans of one unit of work
//! (an alignment, a request) share a unit id. Spans stay in memory and are
//! written out once, when the run ends. A disabled tracer records nothing,
//! so untraced runs pay only a branch per call.

use graphalign_json::Json;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unit of work the span belongs to.
    pub unit: u64,
    /// Layer call, e.g. `core.similarity.CONE`.
    pub name: String,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose times count from `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self { enabled, epoch, spans: Vec::new(), stack: Vec::new() }
    }

    /// An empty tracer for another thread, with this one's epoch and state;
    /// merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.epoch)
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &str, unit: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        let parent = self.stack.last().copied();
        self.spans.push(Span { unit, name: name.to_string(), parent, start, end: start });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Closes every span still open, as of now: a panic caught outside
    /// [`Tracer::span`] leaves its spans open.
    pub fn close_open(&mut self) {
        let now = self.epoch.elapsed().as_secs_f64();
        while let Some(id) = self.stack.pop() {
            self.spans[id].end = now;
        }
    }

    /// Recorded spans in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
    }

    /// Appends another tracer's spans (e.g. a client thread's), keeping
    /// their parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, s.start);
                for (lo, hi) in kids {
                    let (lo, hi) = (lo.max(reach), hi.min(s.end));
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.duration() - covered).max(0.0)
            })
            .collect()
    }

    /// Writes every span, with its self time, as one JSON object per line.
    ///
    /// # Errors
    /// Propagates file errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(i as f64)),
                ("unit".into(), Json::Num(s.unit as f64)),
                ("name".into(), Json::Str(s.name.clone())),
                ("parent".into(), parent),
                ("start_s".into(), Json::Num(s.start)),
                ("end_s".into(), Json::Num(s.end)),
                ("self_s".into(), Json::Num(self_s)),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual(spans: Vec<(Option<usize>, f64, f64)>) -> Tracer {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = spans
            .into_iter()
            .map(|(parent, start, end)| Span { unit: 0, name: "x".into(), parent, start, end })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        // Parent [0, 10] with overlapping children [1, 4] and [3, 6] (their
        // union covers 5) and a grandchild inside the second.
        let t = manual(vec![
            (None, 0.0, 10.0),
            (Some(0), 1.0, 4.0),
            (Some(0), 3.0, 6.0),
            (Some(2), 4.0, 5.0),
        ]);
        let s = t.self_times();
        assert!((s[0] - 5.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        assert!((s[2] - 2.0).abs() < 1e-12);
        assert!((s[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 3));
        assert_eq!(v, 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].unit, 7);
        assert!(t.spans()[0].start <= t.spans()[1].start);
        assert!(t.spans()[1].end <= t.spans()[0].end);

        let mut other = Tracer::new(true, Instant::now());
        other.span("a", 1, |t| t.span("b", 1, |_| ()));
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));

        let mut off = Tracer::new(false, Instant::now());
        off.span("outer", 0, |t| t.span("inner", 0, |_| ()));
        assert!(off.spans().is_empty());
    }
}
