//! In-memory spans for the traced run.
//!
//! A span has a name, a start and an end (host nanoseconds since the
//! recorder was created), an optional parent and the workload it
//! belongs to. Spans around calls into a layer are recorded while the
//! study runs; spans of replayed children are recorded afterwards and
//! attached to the span whose work they stand for. A parent's self
//! time is its duration minus the durations of its children.

use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `kv.run`.
    pub name: String,
    /// Host ns at entry.
    pub start_ns: u64,
    /// Host ns at exit.
    pub end_ns: u64,
    /// The span whose work this one is part of.
    pub parent: Option<SpanId>,
    /// Workload the span belongs to.
    pub workload: String,
}

impl Span {
    /// Host ns between entry and exit.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory until the run writes them out.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    /// Host ns since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            workload: self.workload.clone(),
        });
        let out = f(self, id);
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a finished span directly (used by tests and by replays
    /// that time a loop of calls as one span).
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            workload: self.workload.clone(),
        });
        self.spans.len() - 1
    }

    /// All spans in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Sum of the durations of the direct children of `id`, in ns.
    pub fn children_ns(&self, id: SpanId) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time of `id`: its duration minus its children's, never
    /// below zero.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans[id]
            .duration_ns()
            .saturating_sub(self.children_ns(id))
    }

    /// Spans whose children add up to more than the span itself. A
    /// replay that overshoots its parent would make the parent's self
    /// time meaningless, so the run reports these instead of hiding
    /// them behind the zero floor of [`Recorder::self_ns`].
    pub fn overfull(&self) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&id| self.children_ns(id) > self.spans[id].duration_ns())
            .collect()
    }

    /// Spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":{}}}\n",
                serde_json::to_string(&s.name).expect("string serializes"),
                s.start_ns,
                s.end_ns,
                serde_json::to_string(&s.workload).expect("string serializes"),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new("w");
        let p = r.push("parent", None, 100, 1_100);
        r.push("a", Some(p), 2_000, 2_300);
        r.push("b", Some(p), 3_000, 3_200);
        assert_eq!(r.children_ns(p), 500);
        assert_eq!(r.self_ns(p), 500);
        assert!(r.overfull().is_empty());
    }

    #[test]
    fn self_time_is_never_negative_and_overshoot_is_reported() {
        let mut r = Recorder::new("w");
        let p = r.push("parent", None, 0, 100);
        r.push("replay", Some(p), 200, 400);
        assert_eq!(r.self_ns(p), 0);
        assert_eq!(r.overfull(), vec![p]);
    }

    #[test]
    fn timed_spans_nest_and_close() {
        let mut r = Recorder::new("w");
        let inner = r.time("outer", None, |r, outer| {
            r.time("inner", Some(outer), |_, inner| {
                std::hint::black_box((0..1_000u64).sum::<u64>());
                inner
            })
        });
        let outer = r.spans()[inner].parent.expect("inner has a parent");
        assert!(r.spans()[outer].duration_ns() >= r.spans()[inner].duration_ns());
        assert!(r.spans()[inner].start_ns >= r.spans()[outer].start_ns);
        assert!(r.spans()[inner].end_ns <= r.spans()[outer].end_ns);
        assert!(r.overfull().is_empty());
        let lines = r.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":null"));
        assert!(lines.contains("\"workload\":\"w\""));
    }
}
