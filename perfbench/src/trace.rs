//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into the program's public API; nothing
//! inside the program is instrumented. They are kept in memory and written
//! out when the run ends. With tracing off the recorder only runs the
//! closures, so the untraced run pays for no clock reads.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `core.session.solve`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder was created.
    pub start: f64,
    /// End, seconds since the recorder was created (NaN while open).
    pub end: f64,
}

impl Span {
    /// Wall seconds between start and end.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span store; disabled recorders record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its index (`None` when tracing is off).
    pub fn begin(&self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking recorder");
        spans.push(Span { name, op, parent, start, end: f64::NAN });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans.lock().expect("span store poisoned by a panicking recorder")[id].end = end;
        }
    }

    /// Runs `f` inside a span; `f` receives the span's index so nested
    /// calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned by a panicking recorder").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// The spans as JSON lines: name, op, parent, start, end and self time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9}}}\n",
            s.name, s.op, s.start, s.end, own
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { name, op: 0, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("op", None, 0.0, 10.0),
            span("solve", Some(0), 1.0, 6.0),
            span("validate", Some(0), 7.0, 8.0),
            span("phase1", Some(1), 2.0, 3.0),
            span("phase2", Some(1), 3.0, 5.0),
        ];
        let own = self_times(&spans);
        let expect = [10.0 - 5.0 - 1.0, 5.0 - 3.0, 1.0, 1.0, 2.0];
        for (got, want) in own.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{own:?}");
        }
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("wait", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 5.0),
            span("b", Some(0), 4.0, 6.0),
            span("c", Some(0), 9.0, 12.0),
        ];
        assert!((self_times(&spans)[0] - (10.0 - 5.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let t = Tracer::new(true);
        t.span("outer", 7, None, |outer| {
            t.span("inner", 7, outer, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let own = self_times(&spans);
        assert!(own[0] <= spans[0].duration());

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, None, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
