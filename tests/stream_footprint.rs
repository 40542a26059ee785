//! Bytes-per-stream ratchet: the resident memory one admitted camera adds
//! to a `World`, the gating metric for the large-scale tiers (a 10M-camera
//! tier on a 15 GB host needs about 1.2 KB per stream).
//!
//! Admitting 20 000 one-FPS `ssd-mobilenet-v2` cameras into one world,
//! measured on x86-64 Linux with glibc's allocator: 2 980 B/stream while
//! the orchestrator's binding kept a second copy of every pod spec, the
//! spec's extensions sat in a `BTreeMap`, pod records sat in an ordered
//! map and admission cloned model ids and profiles per call; 1 431
//! B/stream after that; 1 423 B/stream since each pending event takes 64
//! bytes in a timing-wheel bucket instead of 72 in the event heap. The
//! bound is that figure plus 10%, so the test fails if the duplicate spec
//! (about 650 B) or the extension map (about 450 B) comes back.
//!
//! The test is the only one in its binary: `VmRSS` covers the whole
//! process, so no other test may allocate while it measures. It reads
//! `/proc/self/status` instead of counting allocations, which would need
//! an `unsafe` global allocator.
#![cfg(target_os = "linux")]

use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::{DataPlaneConfig, Features};
use microedge::core::runtime::{StreamSpec, World};
use microedge::core::units::TpuUnits;
use microedge::models::catalog::ssd_mobilenet_v2;
use microedge::orch::pod::ResourceRequest;
use microedge::sim::time::SimDuration;

const STREAMS: u64 = 20_000;

/// Resident bytes per admitted stream may not exceed this.
const MAX_BYTES_PER_STREAM: u64 = 1_565;

/// `(tRPis, vRPis)` that fit `streams` one-FPS `ssd-mobilenet-v2` cameras
/// with no headroom: TPUs by profiled demand, vRPis for the camera pods
/// the tRPis cannot hold (the benchmark's `fleet-steady` sizing).
fn size_cluster(streams: u64) -> (u32, u32) {
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

/// The process's resident set size in bytes.
fn vm_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("VmRSS line in kB");
    kib * 1024
}

#[test]
fn admitted_stream_footprint_stays_under_the_ratchet() {
    let specs: Vec<StreamSpec> = (0..STREAMS)
        .map(|i| {
            StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                .fps(1.0)
                .frame_limit(10)
                .start_offset(SimDuration::from_millis(i * 7 % 1_000))
                .export_completions(i % 8 == 0)
                .build()
        })
        .collect();
    let (trpis, vrpis) = size_cluster(STREAMS);
    let cluster = ClusterBuilder::new().trpis(trpis).vrpis(vrpis).build();
    let mut world = World::new(cluster, Features::all());

    let before = vm_rss();
    for spec in specs {
        world
            .admit_stream(spec)
            .expect("the cluster is sized to fit");
    }
    let per_stream = vm_rss().saturating_sub(before) / STREAMS;

    assert_eq!(world.active_streams(), 20_000);
    assert!(
        per_stream <= MAX_BYTES_PER_STREAM,
        "{per_stream} B of resident memory per admitted stream, bound {MAX_BYTES_PER_STREAM}"
    );
}
