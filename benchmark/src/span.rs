//! In-memory spans recorded around calls into the simulator's layers.
//!
//! A span has a name (`layer.operation`), a start and end in nanoseconds
//! since the tracer's origin, an optional parent, and the run id shared by
//! every span of one replay. Spans stay in memory until the run ends and
//! are then written out as JSON lines.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The replay this span belongs to.
    pub run_id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans of one or more replays.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    run_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new(run_id: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
        }
    }

    /// Starts tagging new spans with `run_id`.
    pub fn set_run(&mut self, run_id: u64) {
        self.run_id = run_id;
    }

    /// Nanoseconds since the tracer's origin.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The instant nanosecond timestamps count from, for spans timed on
    /// other threads and added with [`Tracer::record`].
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.record(name, parent, start, 0)
    }

    /// Closes an open span.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Adds a span timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run_id: self.run_id,
        });
        self.spans.len() - 1
    }

    /// All spans in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name` in run `run_id`.
    #[must_use]
    pub fn durations(&self, run_id: u64, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.run_id == run_id && s.name == name)
            .map(|s| s.ns() as f64 / 1e9)
            .collect()
    }

    /// Summed duration in seconds of every span named `name` in `run_id`.
    #[must_use]
    pub fn total(&self, run_id: u64, name: &str) -> f64 {
        self.durations(run_id, name).iter().sum()
    }

    /// Self time of every span, in ns: its duration minus the part of its
    /// interval that its children cover (children running in parallel on
    /// other threads count once).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals in run `run_id`: `(name, spans, total s, self s)`,
    /// in first-seen order.
    #[must_use]
    pub fn summary(&self, run_id: u64) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self.self_times();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            if s.run_id != run_id {
                continue;
            }
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.ns() as f64 / 1e9;
            row.3 += own as f64 / 1e9;
        }
        rows
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any error creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(1);
        let root = t.record("replay", None, 0, 100);
        // Two overlapping children (parallel workers) and one serial one.
        t.record("a", Some(root), 10, 40);
        t.record("a", Some(root), 20, 50);
        t.record("b", Some(root), 60, 70);
        let selfs = t.self_times();
        assert_eq!(selfs[root], 100 - 40 - 10);
        let summary = t.summary(1);
        assert_eq!(summary[1].0, "a");
        assert_eq!(summary[1].1, 2);
    }
}
