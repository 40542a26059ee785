//! `fleet-steady`: the 100k-camera / 50-shard tier of the sharded replay.
//!
//! Every shard is one cluster sized for its 2 000 one-FPS
//! `ssd-mobilenet-v2` cameras; every 8th camera exports its completions to
//! the next shard. The seed sets each camera's start offset. The untraced
//! run replays through `ShardedWorld::run_with_workers(.., 2)`; the traced
//! run drives the same epoch loop from outside with public calls, so each
//! step gets its own span, and checks that it reproduces the untraced
//! digest exactly.

use std::time::Instant;

use microedge_cluster::topology::{Cluster, ClusterBuilder};
use microedge_core::config::{DataPlaneConfig, Features};
use microedge_core::runtime::{FrameExport, RunResults, StreamSpec, World};
use microedge_core::shard::{ShardedWorld, DEFAULT_EPOCH};
use microedge_core::units::TpuUnits;
use microedge_models::catalog::ssd_mobilenet_v2;
use microedge_orch::pod::ResourceRequest;
use microedge_sim::par;
use microedge_sim::time::{SimDuration, SimTime};

use crate::digest::{self, SimMetrics};
use crate::report::{median, ratio, tail};
use crate::span::Tracer;
use crate::{secs, HostRep, Ops, Outcome, Rejects, Run, Size};

/// Every `EXPORT_STRIDE`-th camera of a shard exports its completions.
pub const EXPORT_STRIDE: u64 = 8;

/// Worker threads of the timed replays.
pub const WORKERS: usize = 2;

/// The workload's dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Cluster shards.
    pub shards: u32,
    /// Cameras per shard.
    pub per_shard: u64,
    /// Frames each camera emits.
    pub frames: u64,
}

impl Shape {
    /// The shape of `size`.
    #[must_use]
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Shape {
                shards: 50,
                per_shard: 2_000,
                frames: 10,
            },
            Size::Smoke => Shape {
                shards: 4,
                per_shard: 64,
                frames: 4,
            },
        }
    }
}

/// Generated inputs: one spec list per shard and the cluster shape.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The dimensions the inputs were generated for.
    pub shape: Shape,
    /// `(tRPis, vRPis)` of every shard's cluster.
    pub cluster: (u32, u32),
    /// Specs to admit, per shard, in admission order.
    pub specs: Vec<Vec<StreamSpec>>,
    /// Replay deadline.
    pub deadline: SimTime,
}

/// Builds the inputs for `seed`: start offsets are seeded, everything
/// else follows the shape.
#[must_use]
pub fn inputs(shape: Shape, seed: u64) -> Inputs {
    let specs = (0..shape.shards)
        .map(|shard| {
            (0..shape.per_shard)
                .map(|i| {
                    let offset = crate::draw(seed, u64::from(shard), i) % 1_000;
                    StreamSpec::builder(&format!("cam-{shard}-{i}"), "ssd-mobilenet-v2")
                        .fps(1.0)
                        .frame_limit(shape.frames)
                        .start_offset(SimDuration::from_millis(offset))
                        .export_completions(i.is_multiple_of(EXPORT_STRIDE))
                        .build()
                })
                .collect()
        })
        .collect();
    Inputs {
        shape,
        cluster: size_cluster(shape.per_shard),
        specs,
        deadline: SimTime::from_secs(shape.frames + 3),
    }
}

/// The `(tRPis, vRPis)` pair that fits `streams` one-FPS
/// `ssd-mobilenet-v2` cameras with no headroom: TPUs by profiled demand,
/// vRPis for the camera pods the tRPis cannot hold.
#[must_use]
pub fn size_cluster(streams: u64) -> (u32, u32) {
    let units = DataPlaneConfig::calibrated().profiled_units(&ssd_mobilenet_v2(), 1.0);
    let per_tpu = TpuUnits::ONE.as_micro() / units.as_micro();
    let tpus = u32::try_from(streams.div_ceil(per_tpu)).expect("TPU count fits u32");
    let probe = ClusterBuilder::new().vrpis(1).build();
    let req = ResourceRequest::camera_default();
    let node = &probe.nodes()[0];
    let slots =
        u64::from(node.cpu_millis() / req.cpu_millis()).min(node.mem_bytes() / req.mem_bytes());
    let vrpis = u32::try_from(streams.div_ceil(slots))
        .expect("node count fits u32")
        .saturating_sub(tpus);
    (tpus, vrpis.max(1))
}

fn clusters(inputs: &Inputs) -> impl Iterator<Item = Cluster> + '_ {
    (0..inputs.shape.shards).map(|_| {
        ClusterBuilder::new()
            .trpis(inputs.cluster.0)
            .vrpis(inputs.cluster.1)
            .build()
    })
}

/// What one replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Host timings.
    pub host: HostRep,
    /// Per-call admission latencies, µs.
    pub admit_us: Vec<f64>,
    /// Admission refusals.
    pub rejects: Rejects,
    /// The merged results.
    pub results: RunResults,
}

/// One untraced replay through `ShardedWorld::run_with_workers`.
#[must_use]
pub fn untraced(inputs: &Inputs, workers: usize) -> Replay {
    let specs = inputs.specs.clone();
    let mut admit_us = Vec::with_capacity(specs.iter().map(Vec::len).sum());
    let mut rejects = Rejects::default();
    let t0 = Instant::now();
    let mut world = ShardedWorld::new(clusters(inputs), Features::all());
    for (shard, list) in (0u32..).zip(specs) {
        for spec in list {
            let t = Instant::now();
            let r = world.admit_stream(shard, spec);
            admit_us.push(secs(t) * 1e6);
            if let Err(e) = r {
                rejects.count(&e);
            }
        }
    }
    let setup_s = secs(t0);
    let t1 = Instant::now();
    let results = world.run_with_workers(inputs.deadline, workers);
    let replay_s = secs(t1);
    Replay {
        host: HostRep::new(setup_s, replay_s, digest::frames(&results).0),
        admit_us,
        rejects,
        results,
    }
}

/// Layer measurements of one traced replay.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Shards stepped per epoch.
    pub shards: usize,
    /// Epochs run.
    pub epochs: u64,
    /// Frame exports routed across shards.
    pub exports: u64,
    /// Per shard and epoch: `World::run_until` host seconds.
    pub shard_epoch_s: Vec<f64>,
    /// Σ over epochs of the slowest shard's `run_until`.
    pub slowest_sum_s: f64,
    /// Σ over epochs of the mean shard's `run_until`.
    pub mean_sum_s: f64,
}

/// One traced replay: the `ShardedWorld` epoch loop driven from outside.
///
/// Per epoch: `par::par_map_with_workers` over `World::run_until`, then
/// `advance_to` on every shard, `defrag_epoch` on every shard, and the
/// outboxes sorted by `(at, source, stream)` into the next shard's
/// `schedule_ingest`; then `World::finish` per shard and
/// `RunResults::merge_shards`. Shards share no state, so running each
/// barrier step over all shards before the next step reproduces the
/// per-shard sequence `ShardedWorld` runs.
#[must_use]
pub fn mirror(inputs: &Inputs, workers: usize, tracer: &mut Tracer) -> (Replay, Layers) {
    let specs = inputs.specs.clone();
    let mut admit_us = Vec::with_capacity(specs.iter().map(Vec::len).sum());
    let mut rejects = Rejects::default();
    let mut layers = Layers {
        shards: specs.len(),
        ..Layers::default()
    };
    let t0 = Instant::now();
    let setup = tracer.open("setup", None);
    let build = tracer.open("runtime.build", Some(setup));
    let mut shards: Vec<World> = clusters(inputs)
        .map(|c| World::new(c, Features::all()))
        .collect();
    tracer.close(build);
    let admit = tracer.open("scheduler.admit", Some(setup));
    for (shard, list) in shards.iter_mut().zip(specs) {
        for spec in list {
            let t = Instant::now();
            let r = shard.admit_stream(spec);
            admit_us.push(secs(t) * 1e6);
            if let Err(e) = r {
                rejects.count(&e);
            }
        }
    }
    tracer.close(admit);
    tracer.close(setup);
    let setup_s = secs(t0);

    let t1 = Instant::now();
    let replay = tracer.open("replay", None);
    let k = u32::try_from(shards.len()).expect("shard count fits u32");
    let origin = tracer.origin();
    let mut now = SimTime::ZERO;
    while now < inputs.deadline {
        let barrier = now
            .checked_add(DEFAULT_EPOCH)
            .unwrap_or(inputs.deadline)
            .min(inputs.deadline);
        let epoch = tracer.open("shard.epoch", Some(replay));
        let dispatch = tracer.open("par.dispatch", Some(epoch));
        let ran = par::par_map_with_workers(shards, workers, move |_, mut shard: World| {
            let a = origin.elapsed().as_nanos();
            shard.run_until(barrier);
            (shard, a, origin.elapsed().as_nanos())
        });
        tracer.close(dispatch);
        let mut slowest = 0.0_f64;
        let mut sum = 0.0;
        shards = ran
            .into_iter()
            .map(|(shard, a, b)| {
                let (a, b) = (clamp_ns(a), clamp_ns(b));
                tracer.record("runtime.run_until", Some(dispatch), a, b);
                let s = (b - a) as f64 / 1e9;
                layers.shard_epoch_s.push(s);
                slowest = slowest.max(s);
                sum += s;
                shard
            })
            .collect();
        layers.slowest_sum_s += slowest;
        layers.mean_sum_s += sum / f64::from(k);

        let barrier_span = tracer.open("shard.barrier", Some(epoch));
        let step = tracer.open("shard.advance", Some(barrier_span));
        for shard in &mut shards {
            shard.advance_to(barrier);
        }
        tracer.close(step);
        let step = tracer.open("defrag.epoch", Some(barrier_span));
        for shard in &mut shards {
            shard.defrag_epoch();
        }
        tracer.close(step);
        let step = tracer.open("shard.exchange", Some(barrier_span));
        let mut msgs: Vec<(u32, FrameExport)> = Vec::new();
        for (src, shard) in (0u32..).zip(shards.iter_mut()) {
            msgs.extend(shard.take_outbox().into_iter().map(|e| (src, e)));
        }
        msgs.sort_by_key(|(src, e)| (e.at, *src, e.stream));
        for (src, e) in msgs {
            let dest = (src + 1) % k;
            shards[dest as usize].schedule_ingest(e.at.max(barrier), e.latency);
            layers.exports += 1;
        }
        let drained = shards.iter().all(|s| s.pending_events() == 0);
        tracer.close(step);
        tracer.close(barrier_span);
        tracer.close(epoch);
        layers.epochs += 1;
        now = barrier;
        if drained {
            break;
        }
    }
    let end = now.max(SimTime::from_nanos(1));
    let finish = tracer.open("runtime.finish", Some(replay));
    let parts: Vec<RunResults> = shards.into_iter().map(|s| s.finish(end)).collect();
    tracer.close(finish);
    let merge = tracer.open("metrics.merge", Some(replay));
    let results = RunResults::merge_shards(parts);
    tracer.close(merge);
    tracer.close(replay);
    let replay_s = secs(t1);
    (
        Replay {
            host: HostRep::new(setup_s, replay_s, digest::frames(&results).0),
            admit_us,
            rejects,
            results,
        },
        layers,
    )
}

fn clamp_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

fn ops(r: &Replay) -> Ops {
    Ops {
        attempted: r.admit_us.len() as u64,
        failed: r.rejects.total(),
    }
}

/// Runs the workload: timed untraced replays, or the traced mirror.
#[must_use]
pub fn run(run: &Run) -> Outcome {
    let inputs = inputs(Shape::of(run.size), run.seed);
    let mut out = Outcome::default();
    let s = inputs.shape;
    out.note(format!(
        "fleet-steady: {} shards x {} cameras x {} frames at 1 FPS, cluster {} tRPi + {} vRPi per shard, \
         every {EXPORT_STRIDE}th camera exports, seed {}",
        s.shards, s.per_shard, s.frames, inputs.cluster.0, inputs.cluster.1, run.seed
    ));
    if run.trace {
        traced(run, &inputs, &mut out);
    } else {
        untraced_run(run, &inputs, &mut out);
    }
    out
}

fn untraced_run(run: &Run, inputs: &Inputs, out: &mut Outcome) {
    // The serial replay doubles as the untimed warm-up.
    let serial = untraced(inputs, 1);
    let serial_digest = digest::results(&serial.results, &());
    drop(serial);
    let start = Instant::now();
    let mut digests = Vec::new();
    let mut first: Option<(SimMetrics, Ops)> = None;
    while run.more(start, out.host.reps.len(), 2) {
        let r = untraced(inputs, WORKERS);
        digests.push(digest::results(&r.results, &()));
        out.host.push(r.host, &r.admit_us);
        out.host.setup.push(r.host.setup_s);
        if first.is_none() {
            first = Some((digest::sim_metrics(&r.results), ops(&r)));
            out.host.rss_mb.push(crate::peak_rss_mb().unwrap_or(0.0));
        }
    }
    out.host.processes = 1;
    out.attempted = out.host.reps.len() as u64 + 1;
    out.digest = Some(digests[0]);
    let (sim, ops) = first.expect("at least one replay ran");
    ops.report(out, "admission refusals by the scheduler");
    sim.report(out);
    out.note(format!("digest {:016x}", digests[0]));
    out.check(
        digests.iter().all(|d| *d == digests[0]),
        "every timed replay (workers 2) has the same digest",
    );
    out.check(
        serial_digest == digests[0],
        "the digest at workers 1 equals the digest at workers 2",
    );
}

fn traced(run: &Run, inputs: &Inputs, out: &mut Outcome) {
    let start = Instant::now();
    let mut tracer = Tracer::new(run.seed);
    let mut plain_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut per_rep: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut reference = None;
    let mut mirrored = Vec::new();
    let mut export_ok = true;
    let mut last = None;
    let mut rep = 0_u64;
    while run.more(start, per_rep.len(), 1) {
        let plain = untraced(inputs, WORKERS);
        plain_wall.push(plain.host.replay_s);
        let d = digest::results(&plain.results, &());
        reference.get_or_insert(d);
        mirrored.push(d);
        drop(plain);

        let run_id = run.seed.wrapping_mul(1_000).wrapping_add(rep);
        tracer.set_run(run_id);
        let (r, layers) = mirror(inputs, WORKERS, &mut tracer);
        traced_wall.push(r.host.replay_s);
        mirrored.push(digest::results(&r.results, &()));
        export_ok &= layers.exports == r.results.remote_ingest().count();
        per_rep.push(layer_times(&tracer, run_id, &layers, &r));
        last = Some((r, layers, run_id));
        rep += 1;
    }
    let serial = untraced(inputs, 1);
    let serial_digest = digest::results(&serial.results, &());
    drop(serial);
    out.attempted = 2 * per_rep.len() as u64 + 1;

    let reference = reference.expect("at least one replay ran");
    out.note(format!("digest {reference:016x}"));
    out.check(
        mirrored.iter().all(|d| *d == reference),
        "the traced mirror reproduces the untraced ShardedWorld digest (workers 2)",
    );
    out.check(
        serial_digest == reference,
        "the untraced digest at workers 1 equals the digest at workers 2",
    );
    out.check(
        export_ok,
        "the mirror's routed exports equal remote_ingest().count()",
    );

    // Timings: the median over traced replays of each per-replay figure.
    for (i, (name, _)) in per_rep[0].iter().enumerate() {
        let values: Vec<f64> = per_rep.iter().map(|r| r[i].1).collect();
        let unit = crate::PER_LAYER
            .iter()
            .find(|(n, _)| n == name)
            .map_or("s", |(_, u)| u);
        out.metric(name, median(&values), unit);
    }
    let overhead = median(&traced_wall) - median(&plain_wall);
    out.metric("trace.overhead_s", overhead, "s");
    out.metric("trace.replays", per_rep.len() as f64, "count");

    let (r, layers, run_id) = last.expect("at least one traced replay");
    counts(out, &r, &layers);
    out.metric("trace.spans", tracer.spans().len() as f64, "count");
    out.note(format!(
        "tracing overhead: traced replay {:.4} s - untraced replay {:.4} s = {overhead:.4} s (medians of {})",
        median(&traced_wall),
        median(&plain_wall),
        per_rep.len()
    ));
    let (_, which) = tail(&layers.shard_epoch_s);
    out.note(format!(
        "runtime.shard_epoch_tail_ms is {which} (per shard per epoch)"
    ));
    let epochs: Vec<f64> = tracer.durations(run_id, "shard.epoch");
    let (_, which) = tail(&epochs);
    out.note(format!("shard.epoch_tail_ms is {which} (whole epochs)"));
    let (_, which) = tail(&r.admit_us);
    out.note(format!("scheduler.admit_tail_us is {which}"));
    let parts = [
        "par.dispatch",
        "shard.barrier",
        "runtime.finish",
        "metrics.merge",
    ];
    let sum: f64 = parts.iter().map(|p| tracer.total(run_id, p)).sum();
    let replay = tracer.total(run_id, "replay");
    out.note(format!(
        "last traced replay: wall {replay:.4} s = dispatch + barrier + finish + merge {sum:.4} s \
         + unattributed {:.4} s",
        replay - sum
    ));
    crate::trace_notes(out, &tracer, run_id, "fleet-steady", run);
}

/// Per-replay timings of the traced mirror, in report order.
fn layer_times(
    tracer: &Tracer,
    run_id: u64,
    layers: &Layers,
    r: &Replay,
) -> Vec<(&'static str, f64)> {
    let total = |name| tracer.total(run_id, name);
    let replay = total("replay");
    let dispatch = total("par.dispatch");
    let barrier = total("shard.barrier");
    let finish = total("runtime.finish");
    let merge = total("metrics.merge");
    let busy: f64 = layers.shard_epoch_s.iter().sum();
    let epochs = tracer.durations(run_id, "shard.epoch");
    vec![
        (
            "scheduler.admit_busy_s",
            r.admit_us.iter().sum::<f64>() / 1e6,
        ),
        ("scheduler.admit_tail_us", tail(&r.admit_us).0),
        ("runtime.run_until_busy_s", busy),
        (
            "runtime.ns_per_event",
            ratio(busy * 1e9, r.results.events_processed() as f64),
        ),
        (
            "runtime.shard_epoch_p50_ms",
            median(&layers.shard_epoch_s) * 1e3,
        ),
        (
            "runtime.shard_epoch_tail_ms",
            tail(&layers.shard_epoch_s).0 * 1e3,
        ),
        ("runtime.finish_s", finish),
        ("metrics.merge_s", merge),
        ("par.dispatch_wall_s", dispatch),
        (
            "par.efficiency",
            ratio(busy, WORKERS.min(layers.shards) as f64 * dispatch),
        ),
        (
            "par.straggler_ratio",
            ratio(layers.slowest_sum_s, layers.mean_sum_s),
        ),
        ("shard.barrier_s", barrier),
        ("shard.epoch_p50_ms", median(&epochs) * 1e3),
        ("shard.epoch_tail_ms", tail(&epochs).0 * 1e3),
        ("defrag.epoch_s", total("defrag.epoch")),
        ("trace.replay_wall_s", replay),
        (
            "trace.unattributed_s",
            replay - dispatch - barrier - finish - merge,
        ),
    ]
}

/// Deterministic per-layer counts of one traced replay.
fn counts(out: &mut Outcome, r: &Replay, layers: &Layers) {
    out.metric("scheduler.admit_calls", r.admit_us.len() as f64, "count");
    r.rejects.report(out);
    out.metric("shard.epochs", layers.epochs as f64, "count");
    out.metric("shard.exports", layers.exports as f64, "count");
    crate::result_counts(out, &r.results);
}
