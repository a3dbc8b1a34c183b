//! Span bookkeeping for the traced run: self time per layer and the
//! Chrome-trace file written when the run ends.
//!
//! Spans are the program's own [`SpanRecord`]s, so the benchmark's spans
//! and the simulator's `step`/`act`/`resolve`/`feedback`/`churn` spans
//! share one tree and one export format
//! ([`spans_to_chrome_trace`](fading_cr::sim::obs::export::chrome::spans_to_chrome_trace)).

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;

use fading_cr::sim::obs::export::chrome::spans_to_chrome_trace;
use fading_cr::sim::obs::SpanRecord;

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
#[must_use]
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in ms.
#[must_use]
pub fn self_ms_by_name(spans: &[SpanRecord]) -> HashMap<String, f64> {
    let mut out: HashMap<String, f64> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.to_string()).or_default() += self_ns as f64 / 1e6;
    }
    out
}

/// Durations, in ms, of every span named `name`.
#[must_use]
pub fn durations_ms(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// For every span named `parent`, the duration in ms of its earliest
/// direct child named `child` (e.g. the first round of every run).
#[must_use]
pub fn first_child_ms(spans: &[SpanRecord], parent: &str, child: &str) -> Vec<f64> {
    let mut first: HashMap<u64, &SpanRecord> = HashMap::new();
    let parents: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    for s in spans.iter().filter(|s| s.name == child) {
        if let Some(p) = s.parent.filter(|p| parents.contains(p)) {
            let slot = first.entry(p).or_insert(s);
            if s.start_ns < slot.start_ns {
                *slot = s;
            }
        }
    }
    first
        .values()
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Builds spans from intervals the benchmark timed itself (ids are dense
/// from 0; `parent` is an id returned by an earlier `push`).
#[derive(Debug, Default)]
pub struct SpanBuilder {
    spans: Vec<SpanRecord>,
}

impl SpanBuilder {
    /// Adds a span on track `thread` and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        thread: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let depth = parent
            .and_then(|p| self.spans.get(p as usize))
            .map_or(0, |p| p.depth + 1);
        self.spans.push(SpanRecord {
            id,
            parent,
            name: Cow::Borrowed(name),
            thread,
            depth,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// The spans, in insertion order.
    #[must_use]
    pub fn finish(self) -> Vec<SpanRecord> {
        self.spans
    }
}

/// Writes `spans` as one Chrome trace-event file.
///
/// # Errors
///
/// Filesystem failures.
pub fn write_trace(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans_to_chrome_trace(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Vec<SpanRecord> {
        let mut b = SpanBuilder::default();
        let trial = b.push("trial", None, 0, 0, 100);
        b.push("build", Some(trial), 0, 0, 30);
        let run = b.push("run", Some(trial), 0, 40, 95);
        b.push("step", Some(run), 0, 40, 60);
        b.push("step", Some(run), 0, 60, 70);
        b.finish()
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = tree();
        assert_eq!(self_times_ns(&spans), vec![15, 30, 25, 20, 10]);
        let by_name = self_ms_by_name(&spans);
        assert!((by_name["step"] - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut b = SpanBuilder::default();
        let p = b.push("p", None, 0, 0, 100);
        b.push("a", Some(p), 0, 10, 50);
        b.push("b", Some(p), 1, 30, 70);
        b.push("c", Some(p), 1, 90, 120);
        assert_eq!(self_times_ns(&b.finish())[0], 100 - 60 - 10);
    }

    #[test]
    fn first_child_picks_the_earliest_round() {
        let spans = tree();
        assert_eq!(first_child_ms(&spans, "run", "step"), vec![20e-6]);
        assert_eq!(durations_ms(&spans, "step").len(), 2);
    }
}
