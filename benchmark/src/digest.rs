//! Deterministic digests of simulated outputs.
//!
//! A digest is FNV-1a over a canonical text of everything the simulator
//! reports as deterministic: frame and event counts, cross-shard exports,
//! each stream's emitted and completed frames, and the merged latency
//! sketches (their `Debug` form lists every bucket count). Two replays of
//! the same inputs must produce the same digest, whatever the worker count.

use std::fmt::{self, Write as _};

use microedge_core::runtime::RunResults;

/// An FNV-1a 64-bit hasher fed through [`fmt::Write`].
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of a run's deterministic results plus any `extra` deterministic
/// report (fleet and network counters), rendered through `Debug`.
#[must_use]
pub fn results(r: &RunResults, extra: &dyn fmt::Debug) -> u64 {
    let mut d = Digest::default();
    let _ = write!(
        d,
        "events={} exports={} dropped={} failed={} end={} used={}|",
        r.events_processed(),
        r.remote_ingest().count(),
        r.frames_dropped(),
        r.commands_failed(),
        r.end(),
        r.used_tpus()
    );
    for rep in r.reports() {
        let _ = write!(d, "{}:{}:{};", rep.stream(), rep.emitted(), rep.completed());
    }
    let _ = write!(
        d,
        "|{:?}|{:?}|{:?}|{:?}",
        r.breakdowns(),
        r.remote_ingest(),
        r.defrag(),
        extra
    );
    d.value()
}

/// Frames completed and emitted, summed over every stream.
#[must_use]
pub fn frames(r: &RunResults) -> (u64, u64) {
    r.reports().iter().fold((0, 0), |(c, e), rep| {
        (c + rep.completed(), e + rep.emitted())
    })
}

/// The simulated-system metrics every workload reports: frames completed
/// over frames emitted, the p99 end-to-end frame latency, and the share of
/// streams that met their frame rate.
#[must_use]
pub fn sim_metrics(r: &RunResults) -> SimMetrics {
    let (completed, emitted) = frames(r);
    let reports = r.reports();
    let met = reports.iter().filter(|rep| rep.met_fps()).count();
    SimMetrics {
        completed,
        emitted,
        frames_done_ratio: crate::report::ratio(completed as f64, emitted as f64),
        latency_p99_ms: r.breakdowns().total_percentile_ms(99.0).unwrap_or(0.0),
        latency_samples: r.breakdowns().count(),
        fps_met_ratio: crate::report::ratio(met as f64, reports.len() as f64),
        streams: reports.len() as u64,
    }
}

/// See [`sim_metrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Frames completed.
    pub completed: u64,
    /// Frames emitted.
    pub emitted: u64,
    /// `completed / emitted`.
    pub frames_done_ratio: f64,
    /// p99 of the merged end-to-end latency sketch, simulated ms.
    pub latency_p99_ms: f64,
    /// Frames behind the latency sketch.
    pub latency_samples: u64,
    /// Streams that met their frame rate over streams.
    pub fps_met_ratio: f64,
    /// Streams reported.
    pub streams: u64,
}

impl SimMetrics {
    /// Adds the three simulated end-to-end metrics and their bases.
    pub fn report(&self, out: &mut crate::Outcome) {
        out.metric("frames_done_ratio", self.frames_done_ratio, "ratio");
        out.metric("sim_latency_p99_ms", self.latency_p99_ms, "sim_ms");
        out.metric("sim_fps_met_ratio", self.fps_met_ratio, "ratio");
        out.note(format!(
            "sim: {} of {} emitted frames completed; p99 latency over {} frames; \
             {} streams",
            self.completed, self.emitted, self.latency_samples, self.streams
        ));
    }
}
