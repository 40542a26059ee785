//! `fleet-churn`: about a thousand small clusters behind the fleet front
//! door, on a lossy network, with the background defragmenter armed.
//!
//! 1 024 two-TPU clusters in 4 regions serve one-FPS cameras; every uplink loses 1% of its
//! messages from the start. Mixed-model cameras are pre-admitted on every
//! cluster, a seeded third of them is later removed through the command
//! mailbox, global arrivals go through `admit_global`, and two clusters
//! are killed mid-run. Heartbeats, summary refreshes, the control pump
//! and defrag cycles scale with clusters × epochs and carry the run;
//! per-frame dispatch is light. The barrier duties run inside
//! `ShardedWorld`, so the traced run has one whole-run span plus the
//! fleet, network and defrag counters.

use std::time::Instant;

use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::defrag::DefragConfig;
use microedge_core::fleet::ClusterId;
use microedge_core::net::{DegradedLink, LinkSchedule, LinkState, NetConfig, NetReport};
use microedge_core::runtime::{RunResults, StreamSpec, WorldCommand};
use microedge_core::shard::{FleetReport, ShardedWorld, DEFAULT_EPOCH};
use microedge_sim::time::{SimDuration, SimTime};

use crate::digest;
use crate::report::{median, tail};
use crate::span::Tracer;
use crate::steady::WORKERS;
use crate::{secs, HostRep, Ops, Outcome, Rejects, Run, Size};

/// Models of the mixed fleet.
const MODELS: [&str; 4] = [
    "ssd-mobilenet-v2",
    "mobilenet-v1",
    "efficientdet-lite0",
    "mobilenet-v2",
];

/// Per-message loss of every uplink, ppm.
const LOSS_PPM: u32 = 10_000;

/// Draw salts, one per input property.
const SALT_OFFSET: u64 = 1;
const SALT_REMOVE: u64 = 2;
const SALT_REMOVE_AT: u64 = 3;
const SALT_ARRIVE_AT: u64 = 4;
const SALT_REGION: u64 = 5;
const SALT_FRAMES: u64 = 6;
const SALT_KILL: u64 = 7;

/// The workload's dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Clusters (= shards), two TPUs each.
    pub clusters: u32,
    /// Regions of the front door.
    pub regions: u32,
    /// Cameras pre-admitted per cluster.
    pub pre_per_cluster: u32,
    /// Global arrivals per cluster.
    pub arrivals_per_cluster: u32,
    /// Simulated seconds.
    pub seconds: u64,
}

impl Shape {
    /// The shape of `size`.
    #[must_use]
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Shape {
                clusters: 1_024,
                regions: 4,
                pre_per_cluster: 3,
                arrivals_per_cluster: 5,
                seconds: 300,
            },
            Size::Smoke => Shape {
                clusters: 16,
                regions: 4,
                pre_per_cluster: 3,
                arrivals_per_cluster: 5,
                seconds: 60,
            },
        }
    }
}

/// A pre-admitted camera and, if it leaves, when.
#[derive(Debug, Clone)]
pub struct Pre {
    /// Owning cluster.
    pub cluster: u32,
    /// The camera.
    pub spec: StreamSpec,
    /// Removal instant, through the mailbox.
    pub remove_at: Option<SimTime>,
}

/// A global arrival.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Release instant.
    pub at: SimTime,
    /// Home region.
    pub region: u32,
    /// The camera.
    pub spec: StreamSpec,
}

/// Generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The dimensions the inputs were generated for.
    pub shape: Shape,
    /// Pre-admitted cameras, in admission order.
    pub pre: Vec<Pre>,
    /// Global arrivals, in submission order.
    pub arrivals: Vec<Arrival>,
    /// Cluster kills.
    pub kills: Vec<(SimTime, ClusterId)>,
    /// The network configuration.
    pub net: NetConfig,
}

/// Builds the inputs for `seed`: offsets, removals, arrival times,
/// regions, frame limits and the killed clusters are seeded. Models cycle
/// through [`MODELS`] by position, so every seed runs the same model mix
/// and the tail latency reflects the fleet rather than one seed's draw of
/// models.
#[must_use]
pub fn inputs(shape: Shape, seed: u64) -> Inputs {
    let horizon_ms = shape.seconds * 1_000;
    let mut pre = Vec::new();
    for c in 0..shape.clusters {
        for j in 0..shape.pre_per_cluster {
            let i = u64::from(c) * u64::from(shape.pre_per_cluster) + u64::from(j);
            let spec = StreamSpec::builder(
                &format!("pre-{c}-{j}"),
                MODELS[(i % MODELS.len() as u64) as usize],
            )
            .fps(1.0)
            .start_offset(SimDuration::from_millis(
                crate::draw(seed, SALT_OFFSET, i) % 1_000,
            ))
            .build();
            let remove_at = crate::draw(seed, SALT_REMOVE, i)
                .is_multiple_of(3)
                .then(|| {
                    let lo = horizon_ms / 20;
                    let span = horizon_ms * 9 / 10 - lo;
                    SimTime::from_millis(lo + crate::draw(seed, SALT_REMOVE_AT, i) % span)
                });
            pre.push(Pre {
                cluster: c,
                spec,
                remove_at,
            });
        }
    }
    let n = u64::from(shape.clusters) * u64::from(shape.arrivals_per_cluster);
    let mut arrivals: Vec<Arrival> = (0..n)
        .map(|i| {
            let lo = horizon_ms / 100;
            let span = horizon_ms * 9 / 10 - lo;
            let frames = 60 + crate::draw(seed, SALT_FRAMES, i) % 120;
            Arrival {
                at: SimTime::from_millis(lo + crate::draw(seed, SALT_ARRIVE_AT, i) % span),
                region: (crate::draw(seed, SALT_REGION, i) % u64::from(shape.regions)) as u32,
                spec: StreamSpec::builder(
                    &format!("glob-{i}"),
                    MODELS[(i % MODELS.len() as u64) as usize],
                )
                .fps(1.0)
                .frame_limit(frames)
                .build(),
            }
        })
        .collect();
    arrivals.sort_by_key(|a| a.at);
    let first = (crate::draw(seed, SALT_KILL, 0) % u64::from(shape.clusters)) as u32;
    let second =
        (first + 1 + (crate::draw(seed, SALT_KILL, 1) % u64::from(shape.clusters - 1)) as u32)
            % shape.clusters;
    let kills = vec![
        (SimTime::from_millis(horizon_ms / 3), ClusterId(first)),
        (SimTime::from_millis(horizon_ms * 2 / 3), ClusterId(second)),
    ];
    let schedule = LinkSchedule::scripted(
        (0..shape.clusters)
            .map(|link| {
                (
                    SimTime::ZERO,
                    link,
                    LinkState::Degraded(DegradedLink::lossy(LOSS_PPM)),
                )
            })
            .collect(),
    );
    Inputs {
        shape,
        pre,
        arrivals,
        kills,
        net: NetConfig::new(schedule).with_seed(seed),
    }
}

/// What one replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Host timings.
    pub host: HostRep,
    /// Per-call pre-admission latencies, µs.
    pub admit_us: Vec<f64>,
    /// Pre-admission refusals.
    pub rejects: Rejects,
    /// Removal commands scheduled.
    pub removes: u64,
    /// The merged results.
    pub results: RunResults,
    /// Front-door counters.
    pub fleet: FleetReport,
    /// Network counters.
    pub net: NetReport,
}

impl Replay {
    /// Digest of the results plus the fleet and network reports.
    #[must_use]
    pub fn digest(&self) -> u64 {
        digest::results(&self.results, &(&self.fleet, &self.net))
    }

    /// Operations attempted and refused or lost.
    #[must_use]
    pub fn ops(&self) -> Ops {
        let control = &self.net.stats.control;
        Ops {
            attempted: self.admit_us.len() as u64 + self.removes + self.arrivals(),
            failed: self.rejects.total()
                + self.results.commands_failed()
                + self.fleet.admit_rejected
                + self.fleet.gave_up
                + control.gave_up
                + control.shed,
        }
    }

    fn arrivals(&self) -> u64 {
        self.fleet.placement.admitted + self.fleet.admit_rejected
    }
}

/// One replay through `ShardedWorld::run_net_with_workers`; with a
/// tracer, setup and the whole run get spans.
#[must_use]
pub fn replay(inputs: &Inputs, workers: usize, mut tracer: Option<&mut Tracer>) -> Replay {
    let pre = inputs.pre.clone();
    let arrivals = inputs.arrivals.clone();
    let net = inputs.net.clone();
    let s = inputs.shape;
    let mut admit_us = Vec::with_capacity(pre.len());
    let mut rejects = Rejects::default();
    let mut removes = 0;

    let t0 = Instant::now();
    let setup = tracer.as_mut().map(|t| t.open("setup", None));
    let clusters = (0..s.clusters).map(|_| ClusterBuilder::new().trpis(2).vrpis(2).build());
    let mut world = ShardedWorld::new(clusters, Features::all())
        .with_front_door(s.regions, 1)
        .with_network(net);
    world.enable_defrag(DefragConfig::default());
    let admit = tracer.as_mut().map(|t| t.open("scheduler.admit", setup));
    for p in pre {
        let t = Instant::now();
        let r = world.admit_stream(p.cluster, p.spec);
        admit_us.push(secs(t) * 1e6);
        match r {
            Ok(id) => {
                if let Some(at) = p.remove_at {
                    world.schedule_command(at, id.shard, WorldCommand::Remove(id.local));
                    removes += 1;
                }
            }
            Err(e) => rejects.count(&e),
        }
    }
    if let (Some(t), Some(id)) = (tracer.as_mut(), admit) {
        t.close(id);
    }
    for a in arrivals {
        world.admit_global(a.at, a.region, a.spec);
    }
    for &(at, cluster) in &inputs.kills {
        world.kill_cluster(at, cluster);
    }
    if let (Some(t), Some(id)) = (tracer.as_mut(), setup) {
        t.close(id);
    }
    let setup_s = secs(t0);

    let t1 = Instant::now();
    let run = tracer.as_mut().map(|t| t.open("replay", None));
    let (results, fleet, net) = world.run_net_with_workers(SimTime::from_secs(s.seconds), workers);
    if let (Some(t), Some(id)) = (tracer.as_mut(), run) {
        t.close(id);
    }
    let replay_s = secs(t1);
    Replay {
        host: HostRep::new(setup_s, replay_s, digest::frames(&results).0),
        admit_us,
        rejects,
        removes,
        results,
        fleet,
        net,
    }
}

/// Runs the workload: timed untraced replays, or traced ones.
#[must_use]
pub fn run(run: &Run) -> Outcome {
    let inputs = inputs(Shape::of(run.size), run.seed);
    let mut out = Outcome::default();
    let s = inputs.shape;
    out.note(format!(
        "fleet-churn: {} two-TPU clusters in {} regions, {} pre-admitted cameras ({} removed later), \
         {} global arrivals, 2 cluster kills, {}% uplink loss, defrag on, {} s simulated, seed {}",
        s.clusters,
        s.regions,
        inputs.pre.len(),
        inputs.pre.iter().filter(|p| p.remove_at.is_some()).count(),
        inputs.arrivals.len(),
        f64::from(LOSS_PPM) / 1e4,
        s.seconds,
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
    // The serial replay doubles as the untimed warm-up.
    let serial = replay(inputs, 1, None);
    let serial_digest = serial.digest();
    let mut conserved = serial.net.stats.conservation_violations() == 0;
    drop(serial);
    let start = Instant::now();
    let mut digests = Vec::new();
    let mut first = None;
    while run.more(start, out.host.reps.len(), 2) {
        let r = replay(inputs, WORKERS, None);
        digests.push(r.digest());
        conserved &= r.net.stats.conservation_violations() == 0;
        out.host.push(r.host, &r.admit_us);
        out.host.setup.push(r.host.setup_s);
        if first.is_none() {
            first = Some((digest::sim_metrics(&r.results), r.ops(), refusal_note(&r)));
            out.host.rss_mb.push(crate::peak_rss_mb().unwrap_or(0.0));
        }
    }
    out.host.processes = 1;
    out.digest = Some(digests[0]);
    out.attempted = out.host.reps.len() as u64 + 1;
    let (sim, ops, note) = first.expect("at least one replay ran");
    ops.report(out, &note);
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
    out.check(conserved, "net.conservation_violations == 0");
}

fn refusal_note(r: &Replay) -> String {
    let c = &r.net.stats.control;
    format!(
        "pre-admissions refused {}, shard-side command failures {}, front-door rejections {}, \
         evacuee give-ups {}, control give-ups {}, control shed {}; front door placed {}",
        r.rejects.total(),
        r.results.commands_failed(),
        r.fleet.admit_rejected,
        r.fleet.gave_up,
        c.gave_up,
        c.shed,
        r.fleet.placement.admitted
    )
}

fn traced(run: &Run, inputs: &Inputs, out: &mut Outcome) {
    let start = Instant::now();
    let mut tracer = Tracer::new(run.seed);
    let mut plain_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut admit_busy = Vec::new();
    let mut admit_tail = Vec::new();
    let mut digests = Vec::new();
    let mut conserved = true;
    let mut last = None;
    let mut rep = 0_u64;
    while run.more(start, traced_wall.len(), 1) {
        let plain = replay(inputs, WORKERS, None);
        plain_wall.push(plain.host.replay_s);
        digests.push(plain.digest());
        drop(plain);

        let run_id = run.seed.wrapping_mul(1_000).wrapping_add(rep);
        tracer.set_run(run_id);
        let r = replay(inputs, WORKERS, Some(&mut tracer));
        traced_wall.push(tracer.total(run_id, "replay"));
        digests.push(r.digest());
        conserved &= r.net.stats.conservation_violations() == 0;
        admit_busy.push(r.admit_us.iter().sum::<f64>() / 1e6);
        admit_tail.push(tail(&r.admit_us).0);
        last = Some((r, run_id));
        rep += 1;
    }
    let serial = replay(inputs, 1, None);
    digests.push(serial.digest());
    drop(serial);
    out.attempted = 2 * traced_wall.len() as u64 + 1;
    out.note(format!("digest {:016x}", digests[0]));
    out.check(
        digests.iter().all(|d| *d == digests[0]),
        "traced and untraced replays at workers 2 and 1 have the same digest",
    );
    out.check(conserved, "net.conservation_violations == 0");

    let (r, run_id) = last.expect("at least one traced replay");
    out.metric("scheduler.admit_calls", r.admit_us.len() as f64, "count");
    out.metric("scheduler.admit_busy_s", median(&admit_busy), "s");
    out.metric("scheduler.admit_tail_us", median(&admit_tail), "us");
    r.rejects.report(out);
    let res = &r.results;
    let epochs = res.end().as_nanos().div_ceil(DEFAULT_EPOCH.as_nanos());
    out.metric("shard.epochs", epochs as f64, "count");
    out.metric("shard.exports", res.remote_ingest().count() as f64, "count");
    crate::result_counts(out, res);
    let f = &r.fleet;
    out.metric("fleet.placed_home", f.placement.home as f64, "count");
    out.metric("fleet.placed_spill", f.placement.spills as f64, "count");
    out.metric(
        "fleet.placed_fallback",
        f.placement.fallbacks as f64,
        "count",
    );
    out.metric("fleet.admit_rejected", f.admit_rejected as f64, "count");
    out.metric("fleet.readmit_failures", f.readmit_failures as f64, "count");
    out.metric("fleet.gave_up", f.gave_up as f64, "count");
    out.metric("fleet.shard_refused", res.commands_failed() as f64, "count");
    let n = &r.net.stats;
    for (class, ch) in [
        ("control", &n.control),
        ("heartbeat", &n.heartbeat),
        ("telemetry", &n.telemetry),
    ] {
        out.metric(&format!("net.{class}.sent"), ch.sent as f64, "count");
        out.metric(&format!("net.{class}.dropped"), ch.dropped as f64, "count");
    }
    out.metric(
        "net.control.retransmits",
        n.control.retransmits as f64,
        "count",
    );
    out.metric("net.control.gave_up", n.control.gave_up as f64, "count");
    out.metric("net.control.shed", n.control.shed as f64, "count");
    out.metric(
        "net.conservation_violations",
        n.conservation_violations() as f64,
        "count",
    );
    let replay_s = median(&traced_wall);
    out.metric("trace.replay_wall_s", replay_s, "s");
    out.metric("trace.unattributed_s", replay_s, "s");
    let overhead = replay_s - median(&plain_wall);
    out.metric("trace.overhead_s", overhead, "s");
    out.metric("trace.replays", traced_wall.len() as f64, "count");
    out.metric("trace.spans", tracer.spans().len() as f64, "count");
    out.note(refusal_note(&r));
    out.note(
        "the barrier duties (control pump, heartbeats, fleet exchange, defrag) run inside \
         ShardedWorld: the whole replay is one span, all of it unattributed"
            .to_owned(),
    );
    out.note(format!(
        "tracing overhead: traced replay {replay_s:.4} s - untraced replay {:.4} s = {overhead:.4} s (medians of {})",
        median(&plain_wall),
        traced_wall.len()
    ));
    crate::trace_notes(out, &tracer, run_id, "fleet-churn", run);
}
