//! The benchmark's span recorder.
//!
//! Spans are opened and closed by the benchmark's own driver loops,
//! around each call into a layer of the repo — nothing inside the
//! measured crates is instrumented. Everything stays in memory until
//! [`Trace::write`]. A disabled recorder reads no clock, so the same
//! driver loop serves the end-to-end runs (tracing off) and the
//! traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which traced operation the span belongs to; all spans of one
    /// operation share it.
    pub sample: u32,
    /// Index into the recorder's span list.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// Layer boundary the span surrounds.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count recorded at a span boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Count {
    /// The span the count was taken in.
    pub span: u32,
    /// What was counted.
    pub name: &'static str,
    /// How many.
    pub value: u64,
}

/// Handle returned by [`Trace::begin`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// The recorder.
#[derive(Debug)]
pub struct Trace {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: Vec<Count>,
    sample: u32,
}

impl Trace {
    /// A recorder that records nothing and reads no clock.
    pub fn off() -> Self {
        Trace {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
            sample: 0,
        }
    }

    /// A recording recorder; its clock starts now.
    pub fn on() -> Self {
        Trace {
            epoch: Some(Instant::now()),
            ..Trace::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: later spans carry a new sample id.
    pub fn next_sample(&mut self) {
        self.sample += 1;
    }

    /// The current sample id.
    pub fn sample(&self) -> u32 {
        self.sample
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId(None);
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            sample: self.sample,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: Self::now_ns(epoch),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — a bug in a driver loop.
    pub fn end(&mut self, span: SpanId) {
        let (Some(epoch), Some(id)) = (self.epoch, span.0) else {
            return;
        };
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = Self::now_ns(epoch);
    }

    /// Records a count against the innermost open span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if let Some(&span) = self.open.last() {
            self.counts.push(Count { span, name, value });
        }
    }

    /// Durations of the spans called `name` within `sample`.
    pub fn durations_ns(&self, sample: u32, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.sample == sample && s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes `<workload>.trace.jsonl` (one span or count per line)
    /// and `<workload>.folded` (`root;child self_ns` per stack) under
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the files.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut jsonl = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                jsonl,
                "{{\"sample\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.sample, s.id, s.name, s.start_ns, s.end_ns
            );
        }
        for c in &self.counts {
            let _ = writeln!(
                jsonl,
                "{{\"span\":{},\"count\":\"{}\",\"value\":{}}}",
                c.span, c.name, c.value
            );
        }
        std::fs::write(dir.join(format!("{workload}.trace.jsonl")), jsonl)?;
        let mut folded = String::new();
        for (stack, self_ns) in folded_self_times(&self.spans) {
            let _ = writeln!(folded, "{stack} {self_ns}");
        }
        std::fs::write(dir.join(format!("{workload}.folded")), folded)
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children are clipped to
/// the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per stack of span names (`root;child;grandchild`),
/// the format flame-graph tools fold.
pub fn folded_self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut stacks: Vec<String> = Vec::with_capacity(spans.len());
    let mut folded = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        // A parent always precedes its children in opening order.
        let stack = match s.parent {
            Some(p) => format!("{};{}", stacks[p as usize], s.name),
            None => s.name.to_string(),
        };
        *folded.entry(stack.clone()).or_insert(0) += self_ns;
        stacks.push(stack);
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            sample: 0,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "new", 10, 20),
            // Adjacent to `new`: no gap, no double count.
            span(2, Some(0), "step", 20, 70),
            // Nested: comes off `step`, not off `op`.
            span(3, Some(2), "scan", 30, 45),
            span(4, Some(0), "step", 80, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 35, 15, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = [
            span(0, None, "op", 10, 50),
            span(1, Some(0), "a", 15, 30),
            span(2, Some(0), "b", 25, 40),
            span(3, Some(0), "c", 45, 60),
        ];
        // Covered: 15..40 and 45..50.
        assert_eq!(self_times(&spans)[0], 40 - 25 - 5);
    }

    #[test]
    fn folded_stacks_sum_self_time_per_path() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "step", 0, 40),
            span(2, Some(1), "scan", 10, 20),
            span(3, Some(0), "step", 40, 90),
        ];
        let folded = folded_self_times(&spans);
        assert_eq!(folded["op"], 10);
        assert_eq!(folded["op;step"], 30 + 50);
        assert_eq!(folded["op;step;scan"], 10);
        assert_eq!(folded.len(), 3);
    }

    #[test]
    fn recorder_nests_spans_and_is_inert_when_off() {
        let mut on = Trace::on();
        let root = on.begin("op");
        let child = on.begin("step");
        on.count("rounds", 3);
        on.end(child);
        on.end(root);
        on.next_sample();
        let second = on.begin("op");
        on.end(second);
        let spans = &on.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].sample, spans[2].sample), (0, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(on.counts[0].span, 1);
        assert_eq!(on.durations_ns(0, "step").len(), 1);

        let mut off = Trace::off();
        let id = off.begin("op");
        off.count("rounds", 3);
        off.end(id);
        assert!(off.spans.is_empty() && off.counts.is_empty());
    }
}
