//! The repository benchmark: three seeded replay workloads over the
//! MicroEdge simulator, each reporting end-to-end metrics (host time of the
//! simulator and statistics of the simulated system) and, in a separate
//! traced run, per-layer metrics recorded from outside the program.
//!
//! Every span and timer lives in this package, around calls into the
//! public functions of each layer; nothing inside the simulator is
//! instrumented. See `README.md` for the metric → layer → workload table.

pub mod churn;
pub mod contended;
pub mod digest;
pub mod host;
pub mod report;
pub mod span;
pub mod steady;

use std::time::Instant;

use microedge_core::runtime::RunResults;
use microedge_core::scheduler::DeployError;

use crate::span::Tracer;

pub use host::{Host, HostRep};
pub use report::{Metric, Outcome};

/// Every workload, by its command-line name. `BENCHMARK.json` gates a
/// subset of them (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["fleet-steady", "trace-contended", "fleet-churn"];

/// Input size of a run. `Full` is the size the benchmark reports;
/// `Smoke` is a seconds-long miniature of the same shape for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The reported size.
    Full,
    /// A miniature of the same shape.
    Smoke,
}

impl Size {
    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds the timed repetitions may take.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

impl Run {
    /// `true` while the timed window opened at `start` has time left.
    /// At least `min_reps` repetitions always run.
    #[must_use]
    pub fn more(&self, start: Instant, reps: usize, min_reps: usize) -> bool {
        reps < min_reps || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Runs one workload by name in this process and returns its raw
/// outcome: the host samples are not yet reduced to metrics (see
/// [`finish`]). `None` for an unknown name.
#[must_use]
pub fn measure(name: &str, run: &Run) -> Option<Outcome> {
    match name {
        "fleet-steady" => Some(steady::run(run)),
        "trace-contended" => Some(contended::run(run)),
        "fleet-churn" => Some(churn::run(run)),
        _ => None,
    }
}

/// Reduces the host samples to the host end-to-end metrics (untraced
/// runs) and orders the metrics as listed, filling unmeasured ones.
pub fn finish(out: &mut Outcome, trace: bool) {
    if trace {
        complete(out, &PER_LAYER);
    } else {
        host::report(out);
        complete(out, &END_TO_END);
    }
}

/// [`measure`] followed by [`finish`], all in this process.
#[must_use]
pub fn run_workload(name: &str, run: &Run) -> Option<Outcome> {
    let mut out = measure(name, run)?;
    finish(&mut out, run.trace);
    Some(out)
}

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("admit_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_ratio", "ratio"),
    ("frames_done_ratio", "ratio"),
    ("sim_latency_p99_ms", "sim_ms"),
    ("sim_fps_met_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not exercise, or whose time cannot be split from
/// outside the program, reads 0 and is named in a note.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("scheduler.admit_calls", "count"),
    ("scheduler.admit_busy_s", "s"),
    ("scheduler.admit_tail_us", "us"),
    ("scheduler.rejects.InsufficientTpu", "count"),
    ("scheduler.rejects.Orch", "count"),
    ("scheduler.rejects.UnknownModel", "count"),
    ("scheduler.rejects.MalformedRequest", "count"),
    ("scheduler.rejects.UnknownStream", "count"),
    ("scheduler.rejects.InvalidStreamState", "count"),
    ("runtime.events", "count"),
    ("runtime.run_until_busy_s", "s"),
    ("runtime.ns_per_event", "ns"),
    ("runtime.shard_epoch_p50_ms", "ms"),
    ("runtime.shard_epoch_tail_ms", "ms"),
    ("runtime.remove_busy_s", "s"),
    ("runtime.finish_s", "s"),
    ("metrics.merge_s", "s"),
    ("metrics.telemetry_bytes", "bytes"),
    ("par.dispatch_wall_s", "s"),
    ("par.efficiency", "ratio"),
    ("par.straggler_ratio", "ratio"),
    ("shard.epochs", "count"),
    ("shard.barrier_s", "s"),
    ("shard.exports", "count"),
    ("shard.epoch_p50_ms", "ms"),
    ("shard.epoch_tail_ms", "ms"),
    ("defrag.epoch_s", "s"),
    ("defrag.cycles", "count"),
    ("defrag.moves", "count"),
    ("defrag.units_recovered", "units"),
    ("defrag.skipped_unplaceable", "count"),
    ("fleet.placed_home", "count"),
    ("fleet.placed_spill", "count"),
    ("fleet.placed_fallback", "count"),
    ("fleet.admit_rejected", "count"),
    ("fleet.readmit_failures", "count"),
    ("fleet.gave_up", "count"),
    ("fleet.shard_refused", "count"),
    ("net.control.sent", "count"),
    ("net.control.dropped", "count"),
    ("net.control.retransmits", "count"),
    ("net.control.gave_up", "count"),
    ("net.control.shed", "count"),
    ("net.heartbeat.sent", "count"),
    ("net.heartbeat.dropped", "count"),
    ("net.telemetry.sent", "count"),
    ("net.telemetry.dropped", "count"),
    ("net.conservation_violations", "count"),
    ("tpu.utilization", "ratio"),
    ("tpu.max_queue_depth", "count"),
    ("trace.replay_wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.replays", "count"),
];

/// Adds every metric of `list` that `out` lacks as 0, in `list` order,
/// and notes which ones were not measured.
pub fn complete(out: &mut Outcome, list: &[(&'static str, &'static str)]) {
    let mut missing = Vec::new();
    let mut ordered = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        match out.metrics.iter().position(|m| m.name == name) {
            Some(i) => ordered.push(out.metrics[i].clone()),
            None => {
                missing.push(name);
                ordered.push(Metric {
                    name: name.to_owned(),
                    value: 0.0,
                    unit,
                });
            }
        }
    }
    debug_assert!(
        out.metrics
            .iter()
            .all(|m| list.iter().any(|(n, _)| *n == m.name)),
        "every reported metric is listed"
    );
    out.metrics = ordered;
    if !missing.is_empty() {
        out.note(format!(
            "not exercised or not separable from outside on this workload (reads 0): {}",
            missing.join(", ")
        ));
    }
}

/// Admission refusals by [`DeployError`] variant, counted from the
/// returned `Err`s.
#[derive(Debug, Clone, Default)]
pub struct Rejects {
    counts: [u64; 6],
}

impl Rejects {
    const NAMES: [&'static str; 6] = [
        "InsufficientTpu",
        "Orch",
        "UnknownModel",
        "MalformedRequest",
        "UnknownStream",
        "InvalidStreamState",
    ];

    /// Counts one refusal.
    pub fn count(&mut self, e: &DeployError) {
        let i = match e {
            DeployError::InsufficientTpu => 0,
            DeployError::Orch(_) => 1,
            DeployError::UnknownModel(_) => 2,
            DeployError::MalformedRequest(_) => 3,
            DeployError::UnknownStream(_) => 4,
            DeployError::InvalidStreamState(..) => 5,
        };
        self.counts[i] += 1;
    }

    /// Refusals of every variant.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds one `scheduler.rejects.<variant>` metric per variant.
    pub fn report(&self, out: &mut Outcome) {
        for (name, n) in Self::NAMES.iter().zip(self.counts) {
            out.metric(&format!("scheduler.rejects.{name}"), n as f64, "count");
        }
    }
}

/// Operations the simulated system was asked to do and how many it
/// refused or lost; reported as `ops_ok_ratio` with both counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Admissions and control commands attempted.
    pub attempted: u64,
    /// Refused admissions, failed commands and abandoned evacuees.
    pub failed: u64,
}

impl Ops {
    /// Adds `ops_ok_ratio` and a note with both counts.
    pub fn report(&self, out: &mut Outcome, detail: &str) {
        let ok = self.attempted.saturating_sub(self.failed);
        out.metric(
            "ops_ok_ratio",
            report::ratio(ok as f64, self.attempted as f64),
            "ratio",
        );
        out.note(format!(
            "ops: {} attempted, {} refused or failed ({detail})",
            self.attempted, self.failed
        ));
    }
}

/// Per-layer counts read from merged results: `runtime.events`,
/// `metrics.telemetry_bytes`, `defrag.*` and `tpu.*`.
pub fn result_counts(out: &mut Outcome, r: &RunResults) {
    let d = r.defrag();
    let depth = r.max_queue_depths().iter().copied().max().unwrap_or(0);
    let counts = [
        ("runtime.events", r.events_processed() as f64, "count"),
        (
            "metrics.telemetry_bytes",
            r.telemetry_memory_bytes() as f64,
            "bytes",
        ),
        ("defrag.cycles", d.cycles as f64, "count"),
        ("defrag.moves", d.moves as f64, "count"),
        (
            "defrag.units_recovered",
            d.units_recovered_micro as f64 / 1e6,
            "units",
        ),
        (
            "defrag.skipped_unplaceable",
            d.skipped_unplaceable as f64,
            "count",
        ),
        ("tpu.utilization", r.average_utilization(), "ratio"),
        ("tpu.max_queue_depth", depth as f64, "count"),
    ];
    for (name, value, unit) in counts {
        out.metric(name, value, unit);
    }
}

/// Notes each span name's count, total and self time in run `run_id`,
/// then writes every span to
/// `benchmark/out/spans-<workload>-<size>-seed<n>.jsonl`.
pub fn trace_notes(out: &mut Outcome, tracer: &Tracer, run_id: u64, workload: &str, run: &Run) {
    for (name, n, total, own) in tracer.summary(run_id) {
        out.note(format!(
            "span {name:<22} x{n:<6} total {total:>9.4} s  self {own:>9.4} s"
        ));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{workload}-{}-seed{}.jsonl",
            run.size.name(),
            run.seed
        ));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("spans not written ({e})")),
    }
}

/// Seconds since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set (`VmHWM`) of this process in MiB, or `None` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A seeded stream of draws for input generation: `splitmix64` over
/// `(seed, salt, index)`, so every input is a pure function of the seed
/// and its position.
#[must_use]
pub fn draw(seed: u64, salt: u64, index: u64) -> u64 {
    use microedge_sim::rng::splitmix64;
    splitmix64(splitmix64(seed ^ salt.rotate_left(32)).wrapping_add(index))
}
