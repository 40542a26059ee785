//! Host samples of the timed replays and their reduction to the host
//! end-to-end metrics.
//!
//! Host speed on a shared machine differs from process to process as well
//! as over time, so an untraced run splits its timed window over several
//! child processes and pools their samples. A child prints its samples as
//! `@`-lines ahead of its usual output; [`parse_child`] reads them back and
//! [`Outcome::absorb`] pools them.
//!
//! Per-call admission latencies are pooled as a histogram, so
//! `admit_p50_us` is the median of every timed call. On a virtual machine
//! one replay's calls can run consistently faster or slower than the
//! next replay's (a property of the memory that replay was given), and a
//! median of per-replay medians then jumps between those two levels.

use std::fmt::Write as _;

use crate::report::{median, ratio};
use crate::{Metric, Outcome, END_TO_END};

/// Host timings of one timed replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostRep {
    /// Cluster build, world construction and initial admissions.
    pub setup_s: f64,
    /// From the first run call until results are in hand.
    pub replay_s: f64,
    /// `setup_s + replay_s`.
    pub wall_s: f64,
    /// Frames completed (the work the replay did).
    pub frames: u64,
}

impl HostRep {
    /// A replay's timings from its setup and replay seconds and the
    /// frames it completed.
    #[must_use]
    pub fn new(setup_s: f64, replay_s: f64, frames: u64) -> Self {
        HostRep {
            setup_s,
            replay_s,
            wall_s: setup_s + replay_s,
            frames,
        }
    }
}

/// Width of an admission-latency histogram bucket, µs.
const BUCKET_US: f64 = 0.01;

/// Buckets of the admission-latency histogram; the last one also holds
/// every slower call.
const BUCKETS: usize = 100_000;

/// Host samples of one run, pooled over its processes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Host {
    /// One entry per timed replay.
    pub reps: Vec<HostRep>,
    /// Setup samples (at least one per timed replay).
    pub setup: Vec<f64>,
    /// `VmHWM` of each process after its first timed replay, MiB.
    pub rss_mb: Vec<f64>,
    /// Per-call admission latencies: `(bucket, calls)` in bucket order,
    /// bucket `b` covering `[b, b + 1) × BUCKET_US` µs.
    pub admit: Vec<(usize, u64)>,
    /// Processes the samples come from.
    pub processes: u64,
}

impl Host {
    /// Adds one timed replay and its per-call admission latencies (µs).
    pub fn push(&mut self, rep: HostRep, admit_us: &[f64]) {
        self.reps.push(rep);
        let buckets = admit_us
            .iter()
            .map(|us| ((us / BUCKET_US) as usize).min(BUCKETS - 1));
        self.add_admits(buckets.map(|b| (b, 1)));
    }

    fn add_admits(&mut self, counts: impl IntoIterator<Item = (usize, u64)>) {
        let mut dense = vec![0_u64; BUCKETS];
        for &(b, n) in &self.admit {
            dense[b] += n;
        }
        for (b, n) in counts {
            dense[b] += n;
        }
        self.admit = dense
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect();
    }

    /// Admission calls timed.
    #[must_use]
    pub fn admit_calls(&self) -> u64 {
        self.admit.iter().map(|&(_, n)| n).sum()
    }

    /// Median per-call admission latency, µs, interpolated within its
    /// bucket; 0 without calls.
    #[must_use]
    pub fn admit_p50_us(&self) -> f64 {
        let half = self.admit_calls() as f64 / 2.0;
        let mut below = 0.0;
        for &(b, n) in &self.admit {
            let n = n as f64;
            if below + n >= half {
                return (b as f64 + (half - below) / n) * BUCKET_US;
            }
            below += n;
        }
        0.0
    }
}

/// Adds the host end-to-end metrics from the pooled samples: medians over
/// every timed replay of every process.
pub fn report(out: &mut Outcome) {
    let h = &out.host;
    let wall: Vec<f64> = h.reps.iter().map(|r| r.wall_s).collect();
    let fps: Vec<f64> = h
        .reps
        .iter()
        .map(|r| ratio(r.frames as f64, r.replay_s))
        .collect();
    let metrics = [
        ("setup_s", median(&h.setup), "s"),
        ("wall_s", median(&wall), "s"),
        ("frames_per_s", median(&fps), "1/s"),
        ("admit_p50_us", h.admit_p50_us(), "us"),
        ("peak_rss_mb", median(&h.rss_mb), "MiB"),
    ];
    let walls: Vec<String> = wall.iter().map(|w| format!("{w:.3}")).collect();
    let notes = [
        format!("host: wall_s per timed replay: {}", walls.join(" ")),
        format!(
            "host: medians over {} timed replays in {} processes; setup_s over {} setups; \
             admit_p50_us over {} calls; \
             frames_per_s = {} frames per replay / replay host seconds; \
             peak_rss_mb is the median of per-process VmHWM; available parallelism {}",
            h.reps.len(),
            h.processes,
            h.setup.len(),
            h.admit_calls(),
            h.reps.first().map_or(0, |r| r.frames),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        ),
    ];
    for (name, value, unit) in metrics {
        out.metric(name, value, unit);
    }
    for n in notes {
        out.note(n);
    }
}

/// The `@`-lines a child process prints ahead of its output.
#[must_use]
pub fn child_lines(out: &Outcome) -> String {
    let h = &out.host;
    let mut s = String::new();
    for r in &h.reps {
        let _ = writeln!(s, "@rep {:?} {:?} {}", r.setup_s, r.replay_s, r.frames);
    }
    for v in &h.setup {
        let _ = writeln!(s, "@setup {v:?}");
    }
    for v in &h.rss_mb {
        let _ = writeln!(s, "@rss {v:?}");
    }
    for (b, n) in &h.admit {
        let _ = writeln!(s, "@admit {b} {n}");
    }
    let _ = writeln!(s, "@attempted {} {}", out.attempted, out.failed);
    if let Some(d) = out.digest {
        let _ = writeln!(s, "@digest {d}");
    }
    s
}

/// Reads a child's output back into a raw [`Outcome`]: its notes, failed
/// checks, metrics (`name = value unit`), host samples and digest. `None`
/// if the output is malformed.
#[must_use]
pub fn parse_child(stdout: &str) -> Option<Outcome> {
    let mut out = Outcome::default();
    out.host.processes = 1;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix('@') {
            let mut it = rest.split(' ');
            let key = it.next()?;
            let mut num = || it.next().and_then(|v| v.parse::<f64>().ok());
            match key {
                "rep" => {
                    let (setup_s, replay_s, frames) = (num()?, num()?, num()?);
                    out.host
                        .reps
                        .push(HostRep::new(setup_s, replay_s, frames as u64));
                }
                "setup" => out.host.setup.push(num()?),
                "rss" => out.host.rss_mb.push(num()?),
                "admit" => {
                    let (b, n) = (num()? as usize, num()? as u64);
                    out.host.admit.push((b.min(BUCKETS - 1), n));
                }
                "attempted" => {
                    out.attempted = num()? as u64;
                    out.failed = num()? as u64;
                }
                "digest" => out.digest = Some(rest.split(' ').nth(1)?.parse().ok()?),
                _ => return None,
            }
        } else if let Some(f) = line.strip_prefix("# CHECK FAILED: ") {
            out.failures.push(f.to_owned());
        } else if let Some(n) = line.strip_prefix("# ") {
            out.notes.push(n.to_owned());
        } else if let Some((name, rest)) = line.split_once(" = ") {
            let (value, unit) = rest.split_once(' ')?;
            let unit = END_TO_END.iter().find(|(_, u)| *u == unit)?.1;
            out.metrics.push(Metric {
                name: name.to_owned(),
                value: value.parse().ok()?,
                unit,
            });
        }
    }
    Some(out)
}

impl Outcome {
    /// Pools another process's run of the same workload into this one:
    /// host samples and replay counts add up, failed checks carry over,
    /// and the two digests must agree.
    pub fn absorb(&mut self, other: Outcome) {
        if self.digest != other.digest {
            self.failures.push(format!(
                "processes disagree on the digest ({:?} vs {:?})",
                self.digest, other.digest
            ));
        }
        let h = other.host;
        self.host.reps.extend(h.reps);
        self.host.setup.extend(h.setup);
        self.host.rss_mb.extend(h.rss_mb);
        self.host.add_admits(h.admit);
        self.host.processes += h.processes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_round_trips() {
        let mut out = Outcome {
            attempted: 4,
            digest: Some(0xdead_beef),
            ..Outcome::default()
        };
        out.host
            .push(HostRep::new(0.5, 1.25, 100), &[3.0, 5.0, 4.0]);
        out.host.setup.extend([0.5, 0.25]);
        out.host.rss_mb.push(12.5);
        out.host.processes = 1;
        out.metric("ops_ok_ratio", 0.75, "ratio");
        out.note("a note".to_owned());
        let text = format!("{}{}", child_lines(&out), out.render());
        let back = parse_child(&text).expect("well-formed");
        assert_eq!(back.host, out.host);
        assert!((back.host.admit_p50_us() - 4.005).abs() < 1e-9);
        assert_eq!(back.attempted, 4);
        assert_eq!(back.digest, out.digest);
        assert_eq!(back.metrics, out.metrics);
        assert_eq!(back.notes, out.notes);
    }
}
