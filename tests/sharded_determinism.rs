//! Property tests for the sharded replay: random mixed-model workloads —
//! with fault injection riding the cross-shard command path — must produce
//! byte-identical results at every `MICROEDGE_WORKERS` value, and the
//! sharding machinery itself must be invisible: a one-shard replay of a
//! command-free workload is indistinguishable from the plain `World` it
//! wraps.
//!
//! A third oracle covers delivery: a test-local reference loop built from
//! public `World` calls — the direct hand-off of commands and exports,
//! with no transport in between — must match the sharded replay, whose
//! messages always ride the (by default perfect-link) network plane.
//!
//! The first two oracles are deliberately split. Worker-count invariance holds
//! unconditionally (workers only change which thread steps a shard, never
//! what the shard observes). The plain-`World` oracle is stated for
//! command-free workloads because command-delivered faults consume event
//! sequence numbers that `World::inject_faults` does not, so the two paths
//! legally diverge in tie-breaking order at identical timestamps.

use proptest::prelude::*;

use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::faults::{ClassRates, FaultModel, FaultSchedule};
use microedge::core::runtime::{RunResults, StreamId, StreamSpec, World, WorldCommand};
use microedge::core::shard::{ShardedWorld, DEFAULT_EPOCH};
use microedge::sim::time::{SimDuration, SimTime};
use microedge::workloads::apps::CameraApp;

/// One randomly drawn camera: which trace app it runs, how many frames it
/// emits, when it starts, and whether its completions export cross-shard.
#[derive(Debug, Clone)]
struct Cam {
    app: usize,
    frame_limit: u64,
    offset_ms: u64,
    export: bool,
}

fn cam_strategy() -> impl Strategy<Value = Cam> {
    (0..3usize, 1u64..5, 0u64..900, prop::bool::ANY).prop_map(
        |(app, frame_limit, offset_ms, export)| Cam {
            app,
            frame_limit,
            offset_ms,
            export,
        },
    )
}

/// A full workload: per-shard camera lists (2–3 shards, 1–5 cameras each)
/// plus a fault-schedule seed.
fn workload_strategy() -> impl Strategy<Value = (Vec<Vec<Cam>>, u64)> {
    (
        prop::collection::vec(prop::collection::vec(cam_strategy(), 1..5), 2..4),
        0u64..u64::MAX,
    )
}

fn spec_for(shard: usize, idx: usize, cam: &Cam) -> StreamSpec {
    let app = &CameraApp::trace_apps()[cam.app];
    StreamSpec::builder(&format!("prop-{shard}-{idx}"), app.model().as_str())
        .units(app.units())
        .fps(app.fps())
        .frame_limit(cam.frame_limit)
        .start_offset(SimDuration::from_millis(cam.offset_ms))
        .export_completions(cam.export)
        .build()
}

/// Builds the sharded world for a workload, optionally arming each shard
/// with a generated fault schedule, and runs it at `workers`.
fn run_sharded(shards: &[Vec<Cam>], fault_seed: Option<u64>, workers: usize) -> RunResults {
    let clusters: Vec<_> = shards
        .iter()
        .map(|_| ClusterBuilder::new().trpis(2).vrpis(8).build())
        .collect();
    let mut world = ShardedWorld::new(clusters, Features::all());
    for (shard, cams) in shards.iter().enumerate() {
        for (idx, cam) in cams.iter().enumerate() {
            // Refusals are part of the workload: both replays being compared
            // see the identical admission sequence either way.
            let _ = world.admit_stream(u32::try_from(shard).unwrap(), spec_for(shard, idx, cam));
        }
    }
    if let Some(seed) = fault_seed {
        let model = FaultModel {
            tpu: Some(ClassRates::new(
                SimDuration::from_secs(20),
                SimDuration::from_secs(4),
            )),
            node: None,
            link: None,
        };
        for shard in 0..u32::try_from(shards.len()).unwrap() {
            let cluster = ClusterBuilder::new().trpis(2).vrpis(8).build();
            let schedule = FaultSchedule::generate(
                &model,
                &cluster,
                SimTime::from_secs(30),
                seed ^ u64::from(shard),
            );
            world.inject_faults(shard, &schedule);
        }
    }
    world.run_with_workers(SimTime::from_secs(120), workers)
}

/// One mailbox command of the delivery property: at `at_ms`, either admit
/// a fresh camera on `shard` or remove shard-local stream `local` (which
/// may not exist — the refusal is part of the workload).
#[derive(Debug, Clone)]
struct Cmd {
    at_ms: u64,
    shard: usize,
    admit: Option<Cam>,
    local: u64,
}

fn cmd_strategy(at_ms: std::ops::Range<u64>) -> impl Strategy<Value = Cmd> {
    (at_ms, 0..5usize, prop::option::of(cam_strategy()), 0u64..8).prop_map(
        |(at_ms, shard, admit, local)| Cmd {
            at_ms,
            shard,
            admit,
            local,
        },
    )
}

/// A delivery workload: 1–5 shards of 1–6 cameras, scattered commands,
/// and a burst of 33–40 commands to one shard inside one epoch — past the
/// in-flight budget an explicit `NetConfig` would shed at.
fn delivery_strategy() -> impl Strategy<Value = (Vec<Vec<Cam>>, Vec<Cmd>)> {
    (
        prop::collection::vec(prop::collection::vec(cam_strategy(), 1..7), 1..6),
        prop::collection::vec(cmd_strategy(0..6_000), 0..12),
        0..5usize,
        0u64..8,
        prop::collection::vec(cmd_strategy(0..500), 33..41),
    )
        .prop_map(|(shards, mut cmds, burst_shard, burst_epoch, burst)| {
            let epoch_ms = DEFAULT_EPOCH.as_nanos() / 1_000_000;
            cmds.extend(burst.into_iter().map(|c| Cmd {
                // Strictly inside one epoch: (k·epoch, (k+1)·epoch].
                at_ms: burst_epoch * epoch_ms + 1 + c.at_ms % (epoch_ms - 1),
                shard: burst_shard,
                ..c
            }));
            for c in &mut cmds {
                c.shard %= shards.len();
            }
            (shards, cmds)
        })
}

fn command_of(c: &Cmd, idx: usize) -> WorldCommand {
    match &c.admit {
        Some(cam) => WorldCommand::Admit(Box::new(spec_for(c.shard, 100 + idx, cam))),
        None => WorldCommand::Remove(StreamId(c.local)),
    }
}

fn delivery_clusters(n: usize) -> Vec<microedge::cluster::topology::Cluster> {
    (0..n)
        .map(|_| ClusterBuilder::new().trpis(2).vrpis(8).build())
        .collect()
}

const DELIVERY_DEADLINE: SimTime = SimTime::from_secs(60);

/// The sharded replay of a delivery workload at `workers`.
fn run_delivery(shards: &[Vec<Cam>], cmds: &[Cmd], workers: usize) -> RunResults {
    let mut world = ShardedWorld::new(delivery_clusters(shards.len()), Features::all());
    for (shard, cams) in shards.iter().enumerate() {
        for (idx, cam) in cams.iter().enumerate() {
            let _ = world.admit_stream(u32::try_from(shard).unwrap(), spec_for(shard, idx, cam));
        }
    }
    for (idx, c) in cmds.iter().enumerate() {
        world.schedule_command(
            SimTime::from_millis(c.at_ms),
            u32::try_from(c.shard).unwrap(),
            command_of(c, idx),
        );
    }
    world.run_with_workers(DELIVERY_DEADLINE, workers)
}

/// The reference: the epoch loop with direct delivery, from public `World`
/// calls only. Commands are released in `(at, submission)` order straight
/// into `World::schedule_command`; exports sorted by `(at, source, stream)`
/// are ingested by the ring successor at `max(at, barrier)`.
fn reference_delivery(shards: &[Vec<Cam>], cmds: &[Cmd]) -> RunResults {
    let mut worlds: Vec<World> = delivery_clusters(shards.len())
        .into_iter()
        .map(|c| World::new(c, Features::all()))
        .collect();
    for (shard, cams) in shards.iter().enumerate() {
        for (idx, cam) in cams.iter().enumerate() {
            let _ = worlds[shard].admit_stream(spec_for(shard, idx, cam));
        }
    }
    let mut mailbox: Vec<(SimTime, usize, usize)> = cmds
        .iter()
        .enumerate()
        .map(|(idx, c)| (SimTime::from_millis(c.at_ms), idx, c.shard))
        .collect();
    mailbox.sort_by_key(|&(at, idx, _)| (at, idx));
    let mut released = 0;
    let mut now = SimTime::ZERO;
    while now < DELIVERY_DEADLINE {
        let barrier = (now + DEFAULT_EPOCH).min(DELIVERY_DEADLINE);
        while let Some(&(at, idx, shard)) = mailbox.get(released).filter(|m| m.0 <= barrier) {
            worlds[shard].schedule_command(at, command_of(&cmds[idx], idx));
            released += 1;
        }
        for w in &mut worlds {
            w.run_until(barrier);
        }
        let mut msgs = Vec::new();
        for (src, w) in worlds.iter_mut().enumerate() {
            w.advance_to(barrier);
            w.defrag_epoch();
            msgs.extend(w.take_outbox().into_iter().map(|e| (src, e)));
        }
        msgs.sort_by_key(|(src, e)| (e.at, *src, e.stream));
        for (src, e) in msgs {
            let dest = (src + 1) % worlds.len();
            worlds[dest].schedule_ingest(e.at.max(barrier), e.latency);
        }
        now = barrier;
        if released == mailbox.len() && worlds.iter().all(|w| w.pending_events() == 0) {
            break;
        }
    }
    let end = now.max(SimTime::from_nanos(1));
    RunResults::merge_shards(worlds.into_iter().map(|w| w.finish(end)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delivery over the default network plane is invisible: the sharded
    /// replay at 1 and 2 workers equals the direct-delivery reference loop
    /// byte for byte, command bursts past an explicit in-flight budget
    /// included.
    #[test]
    fn delivery_matches_the_direct_reference_loop((shards, cmds) in delivery_strategy()) {
        let oracle = format!("{:?}", reference_delivery(&shards, &cmds));
        for workers in [1usize, 2] {
            let sharded = format!("{:?}", run_delivery(&shards, &cmds, workers));
            prop_assert_eq!(
                &oracle,
                &sharded,
                "sharded delivery diverged from the reference at {} workers",
                workers
            );
        }
    }

    /// Sharded replay with fault injection is byte-identical across
    /// `MICROEDGE_WORKERS` ∈ {1, 2, 8}: the single-worker replay is the
    /// oracle and the parallel replays must reproduce it exactly.
    #[test]
    fn worker_count_is_invisible_under_faults((shards, seed) in workload_strategy()) {
        let oracle = format!("{:?}", run_sharded(&shards, Some(seed), 1));
        for workers in [2usize, 8] {
            let digest = format!("{:?}", run_sharded(&shards, Some(seed), workers));
            prop_assert_eq!(
                &oracle,
                &digest,
                "sharded replay diverged at {} workers",
                workers
            );
        }
    }

    /// For command-free workloads the whole sharding apparatus — epoch
    /// barriers, clock alignment, shard merge — is invisible: one shard
    /// replaying the workload equals the plain `World` it wraps. Exports
    /// are disabled because a one-shard ring routes them back to itself,
    /// an ingest stream the plain `World` has no counterpart for.
    #[test]
    fn one_shard_equals_the_plain_world(mut cams in prop::collection::vec(cam_strategy(), 1..8)) {
        for cam in &mut cams {
            cam.export = false;
        }
        let shards = vec![cams.clone()];
        let sharded = run_sharded(&shards, None, 1);

        let cluster = ClusterBuilder::new().trpis(2).vrpis(8).build();
        let mut world = World::new(cluster, Features::all());
        for (idx, cam) in cams.iter().enumerate() {
            let _ = world.admit_stream(spec_for(0, idx, cam));
        }
        world.run_until(SimTime::from_secs(120));
        // The sharded run reports its last epoch barrier as the end time;
        // close the plain world at the same instant so the metric windows
        // line up.
        let oracle = format!("{:?}", world.finish(sharded.end()));
        let sharded = format!("{sharded:?}");
        prop_assert_eq!(&oracle, &sharded, "one-shard replay diverged from the plain World");
    }
}
