//! `trace-contended`: the paper's Fig. 6 loop on one under-provisioned
//! cluster.
//!
//! A seeded `TraceConfig::microedge_downsized().scaled(10)` trace runs for
//! two simulated hours against one `World` with 30 TPUs under MicroEdge
//! with workload partitioning. Arrivals call `World::admit_stream` and
//! departures `World::remove_stream`, interleaved with `World::run_until`
//! up to each action, as `bench::trace_study::run_trace` does. There are
//! no shards, barriers or merge: the replay is serial, so the
//! worker-count check becomes a repeat check (every replay of the run must
//! produce the same digest).

use std::time::Instant;

use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::runtime::{RunResults, StreamId, StreamSpec, World};
use microedge_sim::time::{SimDuration, SimTime};
use microedge_workloads::apps::CameraApp;
use microedge_workloads::trace::{synthesize, TraceConfig};

use crate::digest;
use crate::report::{median, ratio, tail};
use crate::span::Tracer;
use crate::{secs, HostRep, Ops, Outcome, Rejects, Run, Size};

/// Setups timed per replay: building the cluster and the world is far
/// shorter than the replay, so several samples steady its median.
const SETUP_SAMPLES: usize = 64;

/// The workload's dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Trace scale factor over the downsized paper trace.
    pub scale: f64,
    /// Simulated trace length.
    pub duration: SimDuration,
    /// TPUs in the cluster.
    pub tpus: u32,
}

impl Shape {
    /// The shape of `size`.
    #[must_use]
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Shape {
                scale: 10.0,
                duration: SimDuration::from_secs(2 * 3600),
                tpus: 30,
            },
            Size::Smoke => Shape {
                scale: 1.0,
                duration: SimDuration::from_secs(10 * 60),
                tpus: 6,
            },
        }
    }
}

/// One step of the replay timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Admit the arrival with this index into [`Inputs::specs`].
    Arrive(usize),
    /// Remove the arrival with this index, if it was admitted.
    Depart(usize),
}

/// Generated inputs: the action timeline and one spec per arrival.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The dimensions the inputs were generated for.
    pub shape: Shape,
    /// `(instant, action)`, departures before arrivals at equal instants.
    pub actions: Vec<(SimTime, Action)>,
    /// The spec of every arrival.
    pub specs: Vec<StreamSpec>,
    /// End of the trace.
    pub end: SimTime,
}

/// Synthesises the trace for `seed` and builds every spec.
#[must_use]
pub fn inputs(shape: Shape, seed: u64) -> Inputs {
    let mut config = TraceConfig::microedge_downsized().scaled(shape.scale);
    config.duration = shape.duration;
    let trace = synthesize(&config, seed);
    let apps = CameraApp::trace_apps();
    let mut actions = Vec::with_capacity(2 * trace.len());
    let mut specs = Vec::with_capacity(trace.len());
    for (i, ev) in trace.iter().enumerate() {
        let app = &apps[ev.class.app_index()];
        specs.push(
            StreamSpec::builder(&format!("trace-{}", ev.seq), app.model().as_str())
                .fps(app.fps())
                .units(app.units())
                .collocated(false)
                .build(),
        );
        actions.push((ev.at, Action::Arrive(i)));
        if let Some(lifetime) = ev.lifetime {
            actions.push((ev.at + lifetime, Action::Depart(i)));
        }
    }
    actions.sort_by_key(|&(at, action)| (at, matches!(action, Action::Arrive(_))));
    Inputs {
        shape,
        actions,
        specs,
        end: SimTime::ZERO + config.duration,
    }
}

fn world(inputs: &Inputs) -> World {
    let cluster = ClusterBuilder::new()
        .trpis(inputs.shape.tpus)
        .vrpis(64)
        .build();
    World::new(cluster, Features::all())
}

/// What one replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Host timings.
    pub host: HostRep,
    /// Setup samples, s (several per replay).
    pub setup_s: Vec<f64>,
    /// Per-call admission latencies, µs.
    pub admit_us: Vec<f64>,
    /// Admission refusals.
    pub rejects: Rejects,
    /// Removals attempted and refused.
    pub removes: (u64, u64),
    /// The results.
    pub results: RunResults,
}

/// Times `f`, recording a span named `name` under `parent` when traced.
fn call<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => {
            let id = t.open(name, parent);
            let r = f();
            t.close(id);
            r
        }
        None => f(),
    }
}

/// One replay; with a tracer, every call in the loop gets a span.
#[must_use]
pub fn replay(inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Replay {
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 1..SETUP_SAMPLES {
        let t = Instant::now();
        let w = world(inputs);
        setup_s.push(secs(t));
        drop(w);
    }
    let mut specs: Vec<Option<StreamSpec>> = inputs.specs.iter().cloned().map(Some).collect();
    let mut live: Vec<Option<StreamId>> = vec![None; specs.len()];
    let mut admit_us = Vec::with_capacity(specs.len());
    let mut rejects = Rejects::default();
    let mut removes = (0, 0);

    let t0 = Instant::now();
    let setup = tracer.as_mut().map(|t| t.open("setup", None));
    let mut w = call(&mut tracer, "runtime.build", setup, || world(inputs));
    if let (Some(t), Some(id)) = (tracer.as_mut(), setup) {
        t.close(id);
    }
    let setup = secs(t0);
    setup_s.push(setup);

    let t1 = Instant::now();
    let root = tracer.as_mut().map(|t| t.open("replay", None));
    for &(at, action) in &inputs.actions {
        if at >= inputs.end {
            break;
        }
        call(&mut tracer, "runtime.run_until", root, || w.run_until(at));
        match action {
            Action::Arrive(i) => {
                let spec = specs[i].take().expect("each arrival is admitted once");
                let t = Instant::now();
                let r = call(&mut tracer, "scheduler.admit", root, || {
                    w.admit_stream(spec)
                });
                admit_us.push(secs(t) * 1e6);
                match r {
                    Ok(id) => live[i] = Some(id),
                    Err(e) => rejects.count(&e),
                }
            }
            Action::Depart(i) => {
                if let Some(id) = live[i].take() {
                    removes.0 += 1;
                    let r = call(&mut tracer, "runtime.remove", root, || w.remove_stream(id));
                    if r.is_err() {
                        removes.1 += 1;
                    }
                }
            }
        }
    }
    call(&mut tracer, "runtime.run_until", root, || {
        w.run_until(inputs.end)
    });
    let results = call(&mut tracer, "runtime.finish", root, || w.finish(inputs.end));
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.close(id);
    }
    let replay_s = secs(t1);
    Replay {
        host: HostRep::new(setup, replay_s, digest::frames(&results).0),
        setup_s,
        admit_us,
        rejects,
        removes,
        results,
    }
}

fn ops(r: &Replay) -> Ops {
    Ops {
        attempted: r.admit_us.len() as u64 + r.removes.0,
        failed: r.rejects.total() + r.removes.1,
    }
}

/// Runs the workload: timed untraced replays, or traced ones.
#[must_use]
pub fn run(run: &Run) -> Outcome {
    let inputs = inputs(Shape::of(run.size), run.seed);
    let mut out = Outcome::default();
    let s = inputs.shape;
    let arrivals = inputs.specs.len();
    out.note(format!(
        "trace-contended: x{} downsized trace, {} s simulated, {arrivals} arrivals, {} TPUs, seed {}",
        s.scale,
        s.duration.as_secs_f64(),
        s.tpus,
        run.seed
    ));
    if run.trace {
        traced(run, &inputs, &mut out);
    } else {
        untraced_run(run, &inputs, &mut out);
    }
    out
}

fn untraced_run(run: &Run, inputs: &Inputs, out: &mut Outcome) {
    let warm = replay(inputs, None);
    let mut digests = vec![digest::results(&warm.results, &())];
    drop(warm);
    let start = Instant::now();
    let mut first = None;
    while run.more(start, out.host.reps.len(), 2) {
        let r = replay(inputs, None);
        digests.push(digest::results(&r.results, &()));
        out.host.push(r.host, &r.admit_us);
        out.host.setup.extend_from_slice(&r.setup_s);
        if first.is_none() {
            first = Some((digest::sim_metrics(&r.results), ops(&r), r.rejects.clone()));
            out.host.rss_mb.push(crate::peak_rss_mb().unwrap_or(0.0));
        }
    }
    out.host.processes = 1;
    out.attempted = out.host.reps.len() as u64 + 1;
    out.digest = Some(digests[0]);
    let (sim, ops, rejects) = first.expect("at least one replay ran");
    ops.report(out, &format!("{} admissions refused", rejects.total()));
    sim.report(out);
    out.note(format!("digest {:016x}", digests[0]));
    out.check(
        digests.iter().all(|d| *d == digests[0]),
        "every replay has the same digest (serial replay: workers 1 and 2 run the same code)",
    );
}

fn traced(run: &Run, inputs: &Inputs, out: &mut Outcome) {
    let start = Instant::now();
    let mut tracer = Tracer::new(run.seed);
    let mut plain_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut per_rep: Vec<[f64; 7]> = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    let mut rep = 0_u64;
    while run.more(start, per_rep.len(), 1) {
        let plain = replay(inputs, None);
        plain_wall.push(plain.host.replay_s);
        digests.push(digest::results(&plain.results, &()));
        drop(plain);

        let run_id = run.seed.wrapping_mul(1_000).wrapping_add(rep);
        tracer.set_run(run_id);
        let r = replay(inputs, Some(&mut tracer));
        traced_wall.push(r.host.replay_s);
        digests.push(digest::results(&r.results, &()));
        let total = |name| tracer.total(run_id, name);
        let replay_s = total("replay");
        let run_until = total("runtime.run_until");
        let admit = total("scheduler.admit");
        let remove = total("runtime.remove");
        let finish = total("runtime.finish");
        per_rep.push([
            admit,
            tail(&tracer.durations(run_id, "scheduler.admit")).0 * 1e6,
            run_until,
            ratio(run_until * 1e9, r.results.events_processed() as f64),
            remove,
            finish,
            replay_s,
        ]);
        last = Some((r, run_id));
        rep += 1;
    }
    out.attempted = 2 * per_rep.len() as u64;
    out.note(format!("digest {:016x}", digests[0]));
    out.check(
        digests.iter().all(|d| *d == digests[0]),
        "traced and untraced replays have the same digest",
    );
    let col = |i: usize| median(&per_rep.iter().map(|r| r[i]).collect::<Vec<_>>());
    out.metric("scheduler.admit_busy_s", col(0), "s");
    out.metric("scheduler.admit_tail_us", col(1), "us");
    out.metric("runtime.run_until_busy_s", col(2), "s");
    out.metric("runtime.ns_per_event", col(3), "ns");
    out.metric("runtime.remove_busy_s", col(4), "s");
    out.metric("runtime.finish_s", col(5), "s");
    out.metric("trace.replay_wall_s", col(6), "s");
    out.metric(
        "trace.unattributed_s",
        col(6) - col(0) - col(2) - col(4) - col(5),
        "s",
    );
    let overhead = median(&traced_wall) - median(&plain_wall);
    out.metric("trace.overhead_s", overhead, "s");
    out.metric("trace.replays", per_rep.len() as f64, "count");

    let (r, run_id) = last.expect("at least one traced replay");
    out.metric("scheduler.admit_calls", r.admit_us.len() as f64, "count");
    r.rejects.report(out);
    crate::result_counts(out, &r.results);
    out.metric("trace.spans", tracer.spans().len() as f64, "count");
    let (_, which) = tail(&tracer.durations(run_id, "scheduler.admit"));
    out.note(format!("scheduler.admit_tail_us is {which}"));
    out.note(format!(
        "tracing overhead: traced replay {:.4} s - untraced replay {:.4} s = {overhead:.4} s (medians of {})",
        median(&traced_wall),
        median(&plain_wall),
        per_rep.len()
    ));
    crate::trace_notes(out, &tracer, run_id, "trace-contended", run);
}
