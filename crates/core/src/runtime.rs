//! The end-to-end MicroEdge simulation: control plane + data plane.
//!
//! A [`World`] owns the K3s-like orchestrator, the extended scheduler, one
//! data-plane [`TpuDevice`] per tRPi, and the camera streams. Camera frames
//! flow exactly as in the paper's Fig. 3:
//!
//! ```text
//! camera ─► TPU Client (pre-process) ─► LBS pick ─► network ─► TPU Service
//!                                                               (FIFO, run
//!                                                               to completion)
//!        ◄───────────── post-process ◄───────────── result ◄───┘
//! ```
//!
//! Streams can be admitted and removed while the simulation runs (the trace
//! study), TPUs can be failed (the failure-recovery extension), and every
//! run produces the metrics the paper's figures report: per-stream SLO
//! audits, overall and per-minute TPU utilization, and per-phase latency
//! breakdowns.
//!
//! ## Chaos mode
//!
//! [`World::enable_chaos`] arms the deterministic fault subsystem
//! ([`crate::faults`]): injected component faults ([`World::inject_faults`])
//! flow through the event queue, failures go *undetected* until the
//! heartbeat lease expires (the component silently drops traffic), and a
//! reconciliation controller re-admits displaced streams with capped
//! exponential backoff — optionally degrading frame rates in fairness tiers
//! instead of dropping tenants. Every stream then carries a
//! [`StreamPhase`], and [`RunResults`] reports recovery-latency breakdowns
//! (detection / rescheduling / swap-in) and per-lineage availability.
//! Without `enable_chaos` the world behaves exactly as before — the manual
//! [`World::fail_tpu`] / [`World::fail_node`] paths stay omniscient and
//! instantaneous.
//!
//! ## Multi-model pipelines
//!
//! A stream may chain several inference stages per frame
//! ([`StreamSpecBuilder::then`]): the frame visits each stage's TPU in
//! order, each stage load-balanced by its own LBS. When consecutive stages
//! land on the *same* TPU the inter-stage hop is free — the data-plane
//! pipeline optimization the paper's §8 calls for.
//!
//! # Examples
//!
//! ```
//! use microedge_cluster::topology::ClusterBuilder;
//! use microedge_core::config::Features;
//! use microedge_core::runtime::{StreamSpec, World};
//! use microedge_sim::time::SimTime;
//!
//! # use microedge_core::scheduler::DeployError;
//! # fn main() -> Result<(), DeployError> {
//! let cluster = ClusterBuilder::new().trpis(1).vrpis(2).build();
//! let mut world = World::new(cluster, Features::all());
//! let cam = world
//!     .admit_stream(StreamSpec::builder("cam-0", "ssd-mobilenet-v2").frame_limit(30).build())?;
//! let results = world.run_to_completion(SimTime::from_secs(10));
//! assert!(results.report(cam).is_some_and(|r| r.met_fps()));
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::Arc;

use microedge_cluster::network::NetworkModel;
use microedge_cluster::node::NodeId;
use microedge_cluster::topology::Cluster;
use microedge_metrics::defrag::DefragStats;
use microedge_metrics::latency::{BreakdownRecorder, LatencyBreakdown};
use microedge_metrics::recovery::{
    AvailabilityTracker, RecoveryBreakdown, RecoveryRecorder, StreamAvailability,
};
use microedge_metrics::throughput::{SloReport, ThroughputAudit};
use microedge_metrics::utilization::FleetUtilization;
use microedge_models::catalog::Catalog;
use microedge_models::profile::{ModelId, ModelProfile};
use microedge_orch::lifecycle::Orchestrator;
use microedge_orch::pod::{PodId, PodSpec, ResourceRequest, EXT_MODEL, EXT_TPU_UNITS};
use microedge_sim::event::EventQueue;
use microedge_sim::rng::DetRng;
use microedge_sim::series::StepSeries;
use microedge_sim::stats::{LogLinearSketch, OnlineStats};
use microedge_sim::time::{SimDuration, SimTime};
use microedge_tpu::cocompile::{CacheAllocation, CoCompiler};
use microedge_tpu::device::{DeviceStats, TpuDevice, TpuId};
use microedge_tpu::spec::TpuSpec;

use crate::client::SourceResolution;
use crate::config::{DataPlaneConfig, Features};
use crate::defrag::{self, DefragConfig};
use crate::faults::{ChaosConfig, FaultKind, FaultSchedule};
use crate::lbs::LbService;
use crate::scheduler::{DeployError, Deployment, ExtendedScheduler};
use crate::units::TpuUnits;

/// Identifies a camera stream for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream-{}", self.0)
    }
}

/// Bit position where [`StreamId::with_shard`] packs the shard index: the
/// low 40 bits stay the shard-local slab index (a trillion streams per
/// shard), the high bits name the shard.
pub const SHARD_ID_SHIFT: u32 = 40;

impl StreamId {
    /// This id as its dense slab index (streams are allocated contiguously
    /// per world). Checked: a stream id past `usize::MAX` would mean the
    /// slab itself could never have held the stream.
    #[must_use]
    pub fn index(self) -> usize {
        usize::try_from(self.0).expect("stream id fits the slab index space")
    }

    /// The id of the stream at dense slab index `i`.
    #[must_use]
    pub fn from_index(i: usize) -> StreamId {
        StreamId(u64::try_from(i).expect("slab index fits the u64 id space"))
    }

    /// Packs this shard-local id into the sharded replay's global id space.
    ///
    /// # Panics
    ///
    /// Panics if the local id overflows the 40-bit local field or the
    /// shard index overflows the remaining 24 bits — either overflow would
    /// silently alias another stream's id.
    #[must_use]
    pub fn with_shard(self, shard: u32) -> StreamId {
        assert!(
            self.0 < 1 << SHARD_ID_SHIFT,
            "shard-local stream id {id} overflows the global id space",
            id = self.0
        );
        assert!(
            u64::from(shard) < 1 << (u64::BITS - SHARD_ID_SHIFT),
            "shard index {shard} overflows the {bits}-bit shard field",
            bits = u64::BITS - SHARD_ID_SHIFT
        );
        StreamId((u64::from(shard) << SHARD_ID_SHIFT) | self.0)
    }

    /// The shard index a global id was packed with (0 for unsharded runs).
    #[must_use]
    pub fn shard(self) -> u32 {
        u32::try_from(self.0 >> SHARD_ID_SHIFT).expect("shard index fits u32")
    }

    /// The shard-local part of a global id.
    #[must_use]
    pub fn local(self) -> StreamId {
        StreamId(self.0 & ((1 << SHARD_ID_SHIFT) - 1))
    }
}

/// One inference stage of a stream's per-frame pipeline.
#[derive(Debug, Clone, PartialEq)]
struct StageSpec {
    model: ModelId,
    units: Option<TpuUnits>,
}

/// Describes one camera stream to admit.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    name: String,
    stages: Vec<StageSpec>,
    fps: f64,
    frame_limit: Option<u64>,
    start_offset: SimDuration,
    collocated: bool,
    frame_filter: Option<(f64, u64)>,
    source: SourceResolution,
    export: bool,
}

impl StreamSpec {
    /// Starts building a stream whose first (often only) stage runs
    /// `model`, at the industry-standard 15 FPS.
    #[must_use]
    pub fn builder(name: &str, model: &str) -> StreamSpecBuilder {
        StreamSpecBuilder {
            spec: StreamSpec {
                name: name.to_owned(),
                stages: vec![StageSpec {
                    model: ModelId::new(model),
                    units: None,
                }],
                fps: 15.0,
                frame_limit: None,
                start_offset: SimDuration::ZERO,
                collocated: false,
                frame_filter: None,
                source: SourceResolution::FULL_HD,
                export: false,
            },
        }
    }

    /// Stream name (doubles as the pod name).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The first stage's model.
    #[must_use]
    pub fn model(&self) -> &ModelId {
        &self.stages[0].model
    }

    /// All stage models, in pipeline order.
    #[must_use]
    pub fn stage_models(&self) -> Vec<&ModelId> {
        self.stages.iter().map(|s| &s.model).collect()
    }

    /// Frame rate.
    #[must_use]
    pub fn fps(&self) -> f64 {
        self.fps
    }
}

/// Builder for [`StreamSpec`].
#[derive(Debug, Clone)]
pub struct StreamSpecBuilder {
    spec: StreamSpec,
}

impl StreamSpecBuilder {
    /// Sets the frame rate (default 15 FPS).
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not strictly positive.
    #[must_use]
    pub fn fps(mut self, fps: f64) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        self.spec.fps = fps;
        self
    }

    /// Overrides the *most recently added* stage's requested TPU units
    /// (default: derived by the offline profiling service from the model
    /// and frame rate).
    #[must_use]
    pub fn units(mut self, units: TpuUnits) -> Self {
        self.spec
            .stages
            .last_mut()
            .expect("builder always has a stage")
            .units = Some(units);
        self
    }

    /// Appends another inference stage to the per-frame pipeline.
    #[must_use]
    pub fn then(mut self, model: &str) -> Self {
        self.spec.stages.push(StageSpec {
            model: ModelId::new(model),
            units: None,
        });
        self
    }

    /// Stops the stream after `frames` frames (default: runs until
    /// removed).
    #[must_use]
    pub fn frame_limit(mut self, frames: u64) -> Self {
        self.spec.frame_limit = Some(frames);
        self
    }

    /// Delays the first frame — real cameras are not phase-aligned.
    #[must_use]
    pub fn start_offset(mut self, offset: SimDuration) -> Self {
        self.spec.start_offset = offset;
        self
    }

    /// Marks the stream's TPU as host-local (the bare-metal baseline):
    /// frames skip the network hop.
    #[must_use]
    pub fn collocated(mut self, collocated: bool) -> Self {
        self.spec.collocated = collocated;
        self
    }

    /// Sets the camera's native resolution (default 1080p); pre-processing
    /// cost scales with it.
    #[must_use]
    pub fn source_resolution(mut self, source: SourceResolution) -> Self {
        self.spec.source = source;
        self
    }

    /// Installs a NoScope-style difference detector (paper §1): only
    /// `pass_rate` of frames reach the TPU; the rest complete client-side
    /// after pre-processing. The caller should declare correspondingly
    /// reduced TPU units (see `microedge-workloads`' `DiffDetector`).
    ///
    /// # Panics
    ///
    /// Panics if `pass_rate` is outside `(0, 1]`.
    #[must_use]
    pub fn frame_filter(mut self, pass_rate: f64, seed: u64) -> Self {
        assert!(
            pass_rate > 0.0 && pass_rate <= 1.0,
            "pass rate must be in (0, 1], got {pass_rate}"
        );
        self.spec.frame_filter = Some((pass_rate, seed));
        self
    }

    /// Marks the stream's frame completions for cross-shard export: the
    /// sharded replay collects a [`FrameExport`] per completed frame from
    /// [`World::take_outbox`] and forwards it to a peer shard at the next
    /// epoch barrier (an analytics/aggregation consumer in another
    /// cluster). Unsharded runs ignore the flag beyond filling the outbox.
    #[must_use]
    pub fn export_completions(mut self, export: bool) -> Self {
        self.spec.export = export;
        self
    }

    /// Finalises the spec.
    #[must_use]
    pub fn build(self) -> StreamSpec {
        self.spec
    }
}

/// One frame travelling through its stream's pipeline. Rides inside
/// [`Ev::Arrive`], so it is kept small: the pre-processing time is the
/// stream's (`StreamRuntime::preprocess`, fixed at admission) and the stage
/// index is a `u32`.
#[derive(Debug, Clone)]
struct InFlight {
    stream: StreamId,
    stage: u32,
    trans_acc: SimDuration,
    infer_acc: SimDuration,
    arrived: SimTime,
}

/// A pipeline stage index as a `usize`, for indexing `StreamRuntime::stages`.
#[inline]
fn stage_index(stage: u32) -> usize {
    usize::try_from(stage).expect("stage index fits usize")
}

#[derive(Debug)]
struct ServiceRuntime {
    device: TpuDevice,
    queue: VecDeque<InFlight>,
    current: Option<InFlight>,
    alive: bool,
    max_depth: usize,
}

#[derive(Debug)]
struct StageRuntime {
    /// Interned: every stream running the same model shares one profile
    /// (see `World::intern_profile`) instead of holding its own clone —
    /// at 100k streams the clones (and their heap model-id strings) were
    /// the largest per-stream allocation.
    profile: Arc<ModelProfile>,
    lbs: LbService,
    /// Network transfer time for this stage's input, fixed at admission
    /// (the input size and link model never change over a stream's life).
    /// Collocated streams and free local hops bypass this with zero.
    transfer: SimDuration,
}

#[derive(Debug)]
struct FrameFilter {
    pass_rate: f64,
    rng: DetRng,
}

/// Where a stream is in its service lifecycle. Exactly one phase applies at
/// any instant; without chaos mode only `Active`, `Lost`, `Removed`, and
/// `Superseded` occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamPhase {
    /// Serving at full rate.
    Active,
    /// Serving at a reduced frame rate (graceful degradation).
    Degraded,
    /// A component it depends on is down (detected or not); frames are
    /// being dropped but the stream has not been given up on.
    Interrupted,
    /// Displaced and waiting in the reconciler's pending-restart queue.
    Parked,
    /// Dropped with no pending recovery.
    Lost,
    /// Removed by the user.
    Removed,
    /// Restarted under a new stream id (see [`RunResults::successor`]).
    Superseded,
}

impl StreamPhase {
    /// `true` for phases in which the stream occupies the data plane
    /// (emission chain running, counted as served).
    #[must_use]
    pub fn is_live(self) -> bool {
        matches!(
            self,
            StreamPhase::Active | StreamPhase::Degraded | StreamPhase::Interrupted
        )
    }
}

impl fmt::Display for StreamPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StreamPhase::Active => "active",
            StreamPhase::Degraded => "degraded",
            StreamPhase::Interrupted => "interrupted",
            StreamPhase::Parked => "parked",
            StreamPhase::Lost => "lost",
            StreamPhase::Removed => "removed",
            StreamPhase::Superseded => "superseded",
        };
        f.write_str(s)
    }
}

#[derive(Debug)]
struct StreamRuntime {
    pod: PodId,
    spec: StreamSpec,
    stages: Vec<StageRuntime>,
    audit: ThroughputAudit,
    latency: OnlineStats,
    interval: SimDuration,
    frame_limit: Option<u64>,
    emitted: u64,
    collocated: bool,
    active: bool,
    filter: Option<FrameFilter>,
    preprocess: SimDuration,
    /// First stream id of this lineage (self for original admissions).
    root: StreamId,
    /// Lifecycle phase; kept consistent with `active` via `transition`.
    phase: StreamPhase,
    /// Degradation denominator: frames emit every `interval × den`.
    den: u32,
    /// Whether a `Frame` event chain is currently pending for this stream
    /// (guards against double emission chains across park/heal cycles).
    emission_alive: bool,
    /// Sequence number of the swap-in this stream is waiting on, if any;
    /// stale `SwapIn` events carry older numbers and are ignored.
    pending_swap: Option<u64>,
}

/// A control-plane command deliverable through the event queue at a chosen
/// instant — the unit of cross-shard control traffic. The sharded replay
/// holds commands in a global mailbox and releases each to its owning shard
/// at the epoch barrier covering its timestamp; unsharded callers can use
/// [`World::schedule_command`] directly to script mid-run admissions,
/// removals, and faults without stepping the world manually.
#[derive(Debug, Clone)]
pub enum WorldCommand {
    /// Admit a new stream when the command fires (boxed: specs are large
    /// and commands share the queue with hot-path events).
    Admit(Box<StreamSpec>),
    /// Remove a running stream.
    Remove(StreamId),
    /// Apply a component fault or repair (the chaos-mode injected path; a
    /// no-op unless [`World::enable_chaos`] armed the subsystem).
    Fault(FaultKind),
    /// Whole-cluster failure: remove every live (or parked) stream,
    /// capturing each as an [`EvacuatedStream`] for the fleet front door
    /// to re-place on surviving clusters (see [`crate::fleet`]).
    Evacuate,
}

/// A stream displaced by a whole-cluster failure, drained via
/// [`World::take_evacuations`] and re-admitted elsewhere by the fleet
/// front door.
#[derive(Debug, Clone)]
pub struct EvacuatedStream {
    /// The stream's id on the dead cluster.
    pub stream: StreamId,
    /// When the cluster died (the evacuation command's instant).
    pub fault_at: SimTime,
    /// The original spec, ready for re-admission.
    pub spec: StreamSpec,
}

/// One completed frame announced to another shard: the paper's cross-cluster
/// aggregation traffic. Carries everything the receiving side records, so
/// delivery needs no access to the producing shard's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameExport {
    /// Completion instant on the producing shard (post-processing done).
    pub at: SimTime,
    /// Producing stream, shard-local id.
    pub stream: StreamId,
    /// The frame's end-to-end latency.
    pub latency: SimDuration,
}

/// Kernel events. Completions are *not* events: a frame's completion time
/// is fully determined the moment its last TPU invocation finishes (or the
/// client filters it), so the kernel records completion metrics inline with
/// the future timestamp instead of bouncing a fourth event through the
/// queue — one quarter fewer events on the hot path, identical results.
#[derive(Debug)]
enum Ev {
    Frame(StreamId),
    Arrive(TpuId, InFlight),
    Done(TpuId),
    /// A component fault or repair takes effect (data plane only — the
    /// control plane stays oblivious until `Detect`).
    Fault(FaultKind),
    /// The heartbeat lease for a fault expires; `epoch` invalidates stale
    /// detections when the component repaired (or re-failed) in between.
    Detect {
        kind: FaultKind,
        epoch: u32,
    },
    /// Model parameters finished streaming onto a recovered placement;
    /// `seq` invalidates stale swap-ins superseded by a later recovery.
    SwapIn {
        stream: StreamId,
        seq: u64,
        breakdown: RecoveryBreakdown,
        restarted: bool,
    },
    /// Reconciliation pass: drain due pending-restart entries, then try
    /// upgrading degraded streams.
    Reconcile,
    /// A scheduled control-plane command fires (see [`WorldCommand`]).
    Command(WorldCommand),
    /// A frame completion exported by a peer shard arrives; the payload is
    /// its end-to-end latency, recorded into the remote-ingest sketch.
    Ingest(SimDuration),
}

/// Per-component fault bookkeeping (one per TPU, one per node — link
/// partitions share the node slot since the detector cannot tell them
/// apart).
#[derive(Debug, Default, Clone, Copy)]
struct CompFault {
    down_since: Option<SimTime>,
    /// Bumped on every new fault; `Detect` events from earlier downtimes
    /// carry stale epochs and are dropped.
    epoch: u32,
    detected: bool,
}

/// One displaced stream waiting for re-admission.
#[derive(Debug, Clone, Copy)]
struct ParkedStream {
    stream: StreamId,
    /// Consecutive failed re-admission attempts (drives backoff).
    attempts: u32,
    next_try: SimTime,
    fault_at: SimTime,
    detected_at: SimTime,
}

/// All chaos-mode state; boxed behind an `Option` so non-chaos worlds pay
/// nothing.
#[derive(Debug)]
struct ChaosState {
    config: ChaosConfig,
    tpus: Vec<CompFault>,
    nodes: Vec<CompFault>,
    parked: Vec<ParkedStream>,
    recorder: RecoveryRecorder,
    /// Availability per lineage root.
    trackers: BTreeMap<StreamId, AvailabilityTracker>,
    swap_seq: u64,
    /// Earliest pending `Reconcile` event, to avoid flooding the queue.
    reconcile_at: Option<SimTime>,
}

/// One stream's outcome: its SLO audit, the latency of its TPU-served
/// frames, and the phase it ended the run in.
#[derive(Debug, Clone)]
struct StreamOutcome {
    report: SloReport,
    latency: OnlineStats,
    phase: StreamPhase,
}

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResults {
    /// Per-stream outcomes, one column per shard indexed by the shard-local
    /// id; an unsharded run has exactly one column.
    streams: Vec<Vec<StreamOutcome>>,
    average_utilization: f64,
    per_device_utilization: Vec<f64>,
    windowed_utilization: Vec<f64>,
    breakdowns: BreakdownRecorder,
    device_stats: Vec<DeviceStats>,
    max_queue_depths: Vec<usize>,
    used_tpus: usize,
    frames_dropped: u64,
    events_processed: u64,
    end: SimTime,
    recovery: RecoveryRecorder,
    availability: BTreeMap<StreamId, StreamAvailability>,
    lineage: BTreeMap<StreamId, StreamId>,
    remote_ingest: LogLinearSketch,
    commands_failed: u64,
    defrag: DefragStats,
}

impl RunResults {
    /// The outcome of one stream; `None` for an unknown shard or local id.
    fn outcome(&self, stream: StreamId) -> Option<&StreamOutcome> {
        let shard = usize::try_from(stream.0 >> SHARD_ID_SHIFT).ok()?;
        let local = usize::try_from(stream.local().0).ok()?;
        self.streams.get(shard)?.get(local)
    }

    /// Every stream's outcome with its global id, in id order (shard-major).
    fn outcomes(&self) -> impl Iterator<Item = (StreamId, &StreamOutcome)> {
        self.streams.iter().zip(0u64..).flat_map(|(column, shard)| {
            column
                .iter()
                .zip(0u64..)
                .map(move |(o, local)| (StreamId((shard << SHARD_ID_SHIFT) | local), o))
        })
    }

    /// `from` and every incarnation that superseded it, in creation order.
    fn incarnations(&self, from: StreamId) -> impl Iterator<Item = StreamId> + '_ {
        std::iter::successors(Some(from), |id| self.lineage.get(id).copied())
    }

    /// The SLO report for one stream.
    #[must_use]
    pub fn report(&self, stream: StreamId) -> Option<&SloReport> {
        self.outcome(stream).map(|o| &o.report)
    }

    /// All stream reports, in stream order.
    #[must_use]
    pub fn reports(&self) -> Vec<&SloReport> {
        self.outcomes().map(|(_, o)| &o.report).collect()
    }

    /// Per-frame end-to-end latency statistics (milliseconds) of one
    /// stream's TPU-served frames.
    #[must_use]
    pub fn latency(&self, stream: StreamId) -> Option<&OnlineStats> {
        self.outcome(stream).map(|o| &o.latency)
    }

    /// `true` when every TPU-served frame of every stream finished within
    /// `bound` — the per-frame latency SLO the paper's §2 motivates
    /// (unbounded queue build-up would eventually violate it).
    #[must_use]
    pub fn all_within_latency(&self, bound: SimDuration) -> bool {
        self.outcomes()
            .all(|(_, o)| o.latency.max().unwrap_or(0.0) <= bound.as_millis_f64())
    }

    /// `true` when every stream met its FPS SLO.
    #[must_use]
    pub fn all_met_fps(&self) -> bool {
        self.outcomes().all(|(_, o)| o.report.met_fps())
    }

    /// Mean TPU utilization over the whole run (Fig. 5b/5d).
    #[must_use]
    pub fn average_utilization(&self) -> f64 {
        self.average_utilization
    }

    /// Per-TPU utilization over the whole run.
    #[must_use]
    pub fn per_device_utilization(&self) -> &[f64] {
        &self.per_device_utilization
    }

    /// Fleet-average utilization per window (Fig. 6a).
    #[must_use]
    pub fn windowed_utilization(&self) -> &[f64] {
        &self.windowed_utilization
    }

    /// The per-phase latency statistics (Fig. 7b).
    #[must_use]
    pub fn breakdowns(&self) -> &BreakdownRecorder {
        &self.breakdowns
    }

    /// Per-device execution counters.
    #[must_use]
    pub fn device_stats(&self) -> &[DeviceStats] {
        &self.device_stats
    }

    /// Deepest request backlog each TPU Service ever saw (queued plus
    /// executing). Admission control's job is to keep this small: a depth
    /// that grows with run length is the §2 queue build-up that eventually
    /// violates per-frame latency bounds.
    #[must_use]
    pub fn max_queue_depths(&self) -> &[usize] {
        &self.max_queue_depths
    }

    /// TPUs that carried load at the end of the run.
    #[must_use]
    pub fn used_tpus(&self) -> usize {
        self.used_tpus
    }

    /// Frames dropped by failed TPUs.
    #[must_use]
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Total simulation events the kernel delivered during the run — the
    /// denominator-independent work measure the perf harness reports as
    /// events/sec.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The instant the run was finalised at.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Recovery-latency breakdowns (detection / rescheduling / swap-in)
    /// across every completed recovery. Empty without chaos mode.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryRecorder {
        &self.recovery
    }

    /// Mutable access to the recovery recorder, for folding in the fleet
    /// tier's recoveries via [`RecoveryRecorder::merge`].
    pub(crate) fn recovery_mut(&mut self) -> &mut RecoveryRecorder {
        &mut self.recovery
    }

    /// Heap bytes held by the run's latency and recovery distributions —
    /// the telemetry the sketch keeps constant-size. Independent of frame
    /// count once the workload's latency range is covered (the scale sweep
    /// asserts this), unlike the old sample-retaining histograms whose
    /// footprint grew O(frames).
    #[must_use]
    pub fn telemetry_memory_bytes(&self) -> usize {
        self.breakdowns.memory_bytes()
            + self.recovery.memory_bytes()
            + self.remote_ingest.memory_bytes()
    }

    /// Latency sketch of every frame completion announced by peer shards
    /// (cross-shard aggregation traffic). Empty in unsharded runs.
    #[must_use]
    pub fn remote_ingest(&self) -> &LogLinearSketch {
        &self.remote_ingest
    }

    /// Scheduled control-plane commands that fired but failed (admission
    /// rejected, stream unknown). Deterministic, so it participates in the
    /// byte-compare artifacts.
    #[must_use]
    pub fn commands_failed(&self) -> u64 {
        self.commands_failed
    }

    /// Background-defragmentation counters for the run (all zero when the
    /// defragmenter was never enabled). Integer-exact, so sharded merges
    /// sum precisely and the counters participate in byte-compared
    /// artifacts.
    #[must_use]
    pub fn defrag(&self) -> &DefragStats {
        &self.defrag
    }

    /// Merges per-shard results into one fleet-level [`RunResults`], the
    /// final step of a sharded replay. Each part is one shard's unsharded
    /// result: its stream column is appended in shard order, so a stream's
    /// global id is its [`StreamId::with_shard`] packing and no per-stream
    /// entry is touched. Only the lineage and availability maps are
    /// remapped into the global id space. Distributions merge via the
    /// sketch merges (merge ≡ concatenated recording), counters sum, and
    /// utilization averages weight each shard by its device count. The
    /// merge is pure data-plumbing — shard order is fixed by the caller's
    /// `Vec`, so the result is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or a shard-local lineage or availability
    /// id overflows the 40-bit local field.
    #[must_use]
    pub fn merge_shards(parts: Vec<RunResults>) -> RunResults {
        assert!(!parts.is_empty(), "cannot merge zero shards");
        let total_devices: usize = parts.iter().map(|p| p.per_device_utilization.len()).sum();
        let windows = parts
            .iter()
            .map(|p| p.windowed_utilization.len())
            .max()
            .unwrap_or(0);
        let mut merged = RunResults {
            streams: Vec::with_capacity(parts.len()),
            average_utilization: 0.0,
            per_device_utilization: Vec::with_capacity(total_devices),
            windowed_utilization: vec![0.0; windows],
            breakdowns: BreakdownRecorder::new(),
            device_stats: Vec::new(),
            max_queue_depths: Vec::new(),
            used_tpus: 0,
            frames_dropped: 0,
            events_processed: 0,
            end: SimTime::ZERO,
            recovery: RecoveryRecorder::new(),
            availability: BTreeMap::new(),
            lineage: BTreeMap::new(),
            remote_ingest: LogLinearSketch::new(),
            commands_failed: 0,
            defrag: DefragStats::default(),
        };
        for (part, shard) in parts.into_iter().zip(0u32..) {
            let remap = |id: StreamId| id.with_shard(shard);
            // A shard's windows are that shard's fleet average; weight by
            // its device share (a shard that ended early idles at 0).
            let weight = if total_devices == 0 {
                0.0
            } else {
                part.per_device_utilization.len() as f64 / total_devices as f64
            };
            merged.average_utilization += part.average_utilization * weight;
            for (w, v) in merged
                .windowed_utilization
                .iter_mut()
                .zip(&part.windowed_utilization)
            {
                *w += v * weight;
            }
            merged.streams.extend(part.streams);
            merged
                .availability
                .extend(part.availability.into_iter().map(|(id, a)| (remap(id), a)));
            merged.lineage.extend(
                part.lineage
                    .into_iter()
                    .map(|(old, new)| (remap(old), remap(new))),
            );
            merged
                .per_device_utilization
                .extend(part.per_device_utilization);
            merged.device_stats.extend(part.device_stats);
            merged.max_queue_depths.extend(part.max_queue_depths);
            merged.breakdowns.merge(&part.breakdowns);
            merged.recovery.merge(&part.recovery);
            merged.remote_ingest.merge(&part.remote_ingest);
            merged.used_tpus += part.used_tpus;
            merged.frames_dropped += part.frames_dropped;
            merged.events_processed += part.events_processed;
            merged.commands_failed += part.commands_failed;
            merged.defrag.merge(&part.defrag);
            merged.end = merged.end.max(part.end);
        }
        merged
    }

    /// Availability totals for the lineage rooted at `root`. Populated only
    /// in chaos mode.
    #[must_use]
    pub fn availability(&self, root: StreamId) -> Option<&StreamAvailability> {
        self.availability.get(&root)
    }

    /// All per-lineage availability totals, by root id.
    #[must_use]
    pub fn availabilities(&self) -> &BTreeMap<StreamId, StreamAvailability> {
        &self.availability
    }

    /// Folds a fleet-level availability entry into the results — the
    /// sharded replay's whole-cluster evacuations, keyed by the evacuated
    /// stream's packed global id. Overrides any per-shard entry for the
    /// same id (the fleet tier has the complete outage picture).
    pub(crate) fn merge_availability(&mut self, root: StreamId, availability: StreamAvailability) {
        self.availability.insert(root, availability);
    }

    /// Records that `old` was superseded by `new` — the fleet tier's
    /// cross-cluster re-admission lineage, in the packed global id space.
    pub(crate) fn link_lineage(&mut self, old: StreamId, new: StreamId) {
        self.lineage.insert(old, new);
    }

    /// The phase each stream ended the run in.
    #[must_use]
    pub fn stream_phase(&self, stream: StreamId) -> Option<StreamPhase> {
        self.outcome(stream).map(|o| o.phase)
    }

    /// Streams that ended the run in `phase`, in id order.
    fn streams_in(&self, phase: StreamPhase) -> Vec<StreamId> {
        self.outcomes()
            .filter(|(_, o)| o.phase == phase)
            .map(|(id, _)| id)
            .collect()
    }

    /// Streams that ended the run lost (no pending recovery).
    #[must_use]
    pub fn lost_streams(&self) -> Vec<StreamId> {
        self.streams_in(StreamPhase::Lost)
    }

    /// Streams still waiting in the pending-restart queue at end of run.
    #[must_use]
    pub fn parked_streams(&self) -> Vec<StreamId> {
        self.streams_in(StreamPhase::Parked)
    }

    /// The stream that superseded `stream` via a restart, if any.
    #[must_use]
    pub fn successor(&self, stream: StreamId) -> Option<StreamId> {
        self.lineage.get(&stream).copied()
    }

    /// End-to-end latency statistics merged across every incarnation of the
    /// lineage rooted at `root`, in creation order — restarts no longer
    /// fragment a stream's history. In a sharded run the chain also follows
    /// the fleet's cross-cluster re-admissions. For a non-root id the chain
    /// starts at that incarnation. `None` for an unknown id.
    #[must_use]
    pub fn chain_latency(&self, root: StreamId) -> Option<OnlineStats> {
        let mut stats = self.latency(root)?.clone();
        for id in self.incarnations(root).skip(1) {
            if let Some(next) = self.latency(id) {
                stats.merge(next);
            }
        }
        Some(stats)
    }

    /// Renders the whole run as an aligned report: one row per stream
    /// (throughput, latency, SLO) plus a fleet footer (utilization, queue
    /// depths, drops).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut table = microedge_metrics::report::Table::new(&[
            "stream",
            "frames",
            "achieved FPS",
            "mean e2e (ms)",
            "max e2e (ms)",
            "SLO",
        ]);
        for (_, o) in self.outcomes() {
            let (report, latency) = (&o.report, &o.latency);
            table.row_owned(vec![
                report.stream().to_owned(),
                report.completed().to_string(),
                format!("{:.2}", report.achieved_fps()),
                format!("{:.2}", latency.mean()),
                format!("{:.2}", latency.max().unwrap_or(0.0)),
                if report.met_fps() { "met" } else { "VIOLATED" }.to_owned(),
            ]);
        }
        let depths: Vec<String> = self
            .max_queue_depths
            .iter()
            .map(ToString::to_string)
            .collect();
        format!(
            "{table}fleet: {:.1}% avg TPU utilization over {:.1}s | max queue depths [{}] | {} frames dropped\n",
            self.average_utilization * 100.0,
            self.end.as_secs_f64(),
            depths.join(", "),
            self.frames_dropped,
        )
    }
}

/// The complete simulated MicroEdge deployment.
pub struct World {
    queue: EventQueue<Ev>,
    orch: Orchestrator,
    sched: ExtendedScheduler,
    dp: DataPlaneConfig,
    net: NetworkModel,
    services: Vec<ServiceRuntime>,
    /// Slab of stream runtimes indexed by `StreamId.0`. Stream ids are
    /// allocated sequentially and never reused — removal merely clears
    /// `active` — so a dense `Vec` replaces the per-event `BTreeMap`
    /// lookups on the frame hot path. `BTreeMap`s survive only at the
    /// admission and reporting boundaries.
    streams: Vec<StreamRuntime>,
    active_count: usize,
    /// Interned model profiles shared by every stream stage running the
    /// model (see `intern_profile`).
    profiles: BTreeMap<ModelId, Arc<ModelProfile>>,
    pods_to_streams: BTreeMap<PodId, StreamId>,
    fleet: FleetUtilization,
    breakdowns: BreakdownRecorder,
    served: StepSeries,
    frames_dropped: u64,
    next_stream: u64,
    /// Old stream id → the id that superseded it via a restart.
    lineage: BTreeMap<StreamId, StreamId>,
    /// Armed by [`World::enable_chaos`]; `None` costs nothing on hot paths.
    chaos: Option<Box<ChaosState>>,
    /// Completions of export-flagged streams since the last
    /// [`World::take_outbox`], in completion-record order (monotone in
    /// `at`): the shard's outbound cross-shard traffic.
    outbox: Vec<FrameExport>,
    /// Latency sketch of peer-shard completions delivered via
    /// [`World::schedule_ingest`].
    ingest: LogLinearSketch,
    /// Scheduled commands that fired but failed.
    commands_failed: u64,
    /// Streams displaced by [`WorldCommand::Evacuate`] since the last
    /// [`World::take_evacuations`] — the whole-cluster-failure outbox the
    /// fleet front door drains at epoch barriers.
    evacuations: Vec<EvacuatedStream>,
    /// Armed by [`World::enable_defrag`]; `None` costs nothing on hot
    /// paths and leaves behavior identical to a defrag-free world.
    defrag: Option<Box<DefragRuntime>>,
}

/// Background-defragmenter state, boxed behind an `Option` so worlds that
/// never enable it pay nothing.
#[derive(Debug)]
struct DefragRuntime {
    config: DefragConfig,
    stats: DefragStats,
    /// Epoch barriers seen since enablement; a planning cycle runs every
    /// `config.interval_epochs` of them.
    epochs: u64,
}

/// The sharded replay moves whole shards across the worker pool between
/// epochs, so a `World` (and everything it owns) must stay `Send`.
fn _assert_world_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<World>();
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.queue.now())
            .field("streams", &self.streams.len())
            .field("tpus", &self.services.len())
            .finish()
    }
}

/// The window used for per-interval metrics (one minute, as in Fig. 6).
pub const METRIC_WINDOW: SimDuration = SimDuration::from_secs(60);

impl World {
    /// Builds a world over `cluster` with the built-in catalog and the
    /// shipped First-Fit policy.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no TPUs.
    #[must_use]
    pub fn new(cluster: Cluster, features: Features) -> Self {
        Self::with_scheduler(
            cluster.clone(),
            ExtendedScheduler::new(&cluster, Catalog::builtin(), features),
        )
    }

    /// Builds a world with a custom extended scheduler (e.g. a baseline
    /// policy or a different catalog).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no TPUs.
    #[must_use]
    pub fn with_scheduler(cluster: Cluster, sched: ExtendedScheduler) -> Self {
        let tpu_count = cluster.tpu_count();
        assert!(tpu_count > 0, "a MicroEdge world needs at least one TPU");
        let net = *cluster.network();
        let services = (0..tpu_count)
            .map(|_| ServiceRuntime {
                device: TpuDevice::new(TpuSpec::coral_usb()),
                queue: VecDeque::new(),
                current: None,
                alive: true,
                max_depth: 0,
            })
            .collect();
        World {
            queue: EventQueue::new(),
            orch: Orchestrator::new(cluster),
            sched,
            dp: DataPlaneConfig::calibrated(),
            net,
            services,
            streams: Vec::new(),
            active_count: 0,
            profiles: BTreeMap::new(),
            pods_to_streams: BTreeMap::new(),
            fleet: FleetUtilization::new(tpu_count, METRIC_WINDOW),
            breakdowns: BreakdownRecorder::new(),
            served: StepSeries::new(METRIC_WINDOW),
            frames_dropped: 0,
            next_stream: 0,
            lineage: BTreeMap::new(),
            chaos: None,
            outbox: Vec::new(),
            ingest: LogLinearSketch::new(),
            commands_failed: 0,
            evacuations: Vec::new(),
            defrag: None,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Overrides the data-plane calibration. Call before admitting streams
    /// — already-admitted streams keep their cached pre-processing cost.
    pub fn set_data_plane(&mut self, dp: DataPlaneConfig) {
        self.dp = dp;
    }

    /// The extended scheduler (for inspecting pool state).
    #[must_use]
    pub fn scheduler(&self) -> &ExtendedScheduler {
        &self.sched
    }

    /// The orchestrator (for inspecting pods).
    #[must_use]
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// Number of active streams (maintained incrementally; O(1)).
    #[must_use]
    pub fn active_streams(&self) -> usize {
        debug_assert_eq!(
            self.active_count,
            self.streams.iter().filter(|s| s.active).count(),
            "active-stream counter drifted from the slab"
        );
        self.active_count
    }

    /// The pod backing a stream, if the stream exists.
    #[must_use]
    pub fn pod_of(&self, stream: StreamId) -> Option<PodId> {
        self.stream(stream).map(|s| s.pod)
    }

    #[inline]
    fn stream(&self, id: StreamId) -> Option<&StreamRuntime> {
        self.streams.get(id.index())
    }

    #[inline]
    fn stream_mut(&mut self, id: StreamId) -> Option<&mut StreamRuntime> {
        self.streams.get_mut(id.index())
    }

    /// Moves a stream to `phase`, keeping the active counter and the
    /// served series in sync. Returns `true` when the liveness flag
    /// changed.
    fn transition(&mut self, id: StreamId, phase: StreamPhase, now: SimTime) -> bool {
        let Some(stream) = self.streams.get_mut(id.index()) else {
            return false;
        };
        let was = stream.active;
        let is = phase.is_live();
        stream.phase = phase;
        stream.active = is;
        if was && !is {
            self.active_count -= 1;
            self.served.add(now, -1.0);
            true
        } else if !was && is {
            self.active_count += 1;
            self.served.add(now, 1.0);
            true
        } else {
            false
        }
    }

    /// Admits a camera stream: TPU admission (all pipeline stages), pod
    /// creation, LBS seeding, and scheduling of its first frame at the
    /// current time plus the stream's start offset.
    ///
    /// # Errors
    ///
    /// See [`DeployError`]; on error nothing is changed.
    pub fn admit_stream(&mut self, spec: StreamSpec) -> Result<StreamId, DeployError> {
        self.admit_with_root(spec, None)
    }

    /// Returns the shared, interned profile for `model`, cloning out of the
    /// catalog only on first use — every stream running the same model
    /// holds the same `Arc`.
    fn intern_profile(&mut self, model: &ModelId) -> Result<Arc<ModelProfile>, DeployError> {
        if let Some(profile) = self.profiles.get(model) {
            return Ok(Arc::clone(profile));
        }
        let profile = Arc::new(
            self.sched
                .catalog()
                .get(model)
                .ok_or_else(|| DeployError::UnknownModel(model.clone()))?
                .clone(),
        );
        self.profiles.insert(model.clone(), Arc::clone(&profile));
        Ok(profile)
    }

    /// Builds the K3s pod spec for a stream (extension knobs from profiled
    /// units) along with the per-stage model profiles.
    fn build_pod_spec(
        &mut self,
        spec: &StreamSpec,
    ) -> Result<(PodSpec, Vec<Arc<ModelProfile>>), DeployError> {
        let mut profiles = Vec::with_capacity(spec.stages.len());
        // Comma-separated lists, written in place (one `String` each).
        let mut model_ext = String::new();
        let mut units_ext = String::new();
        for stage in &spec.stages {
            let profile = self.intern_profile(&stage.model)?;
            let units = stage
                .units
                .unwrap_or_else(|| self.dp.profiled_units(&profile, spec.fps));
            if !profiles.is_empty() {
                model_ext.push(',');
                units_ext.push(',');
            }
            model_ext.push_str(stage.model.as_str());
            // Writing into a `String` cannot fail.
            let _ = write!(units_ext, "{}", units.as_f64());
            profiles.push(profile);
        }
        let pod_spec = PodSpec::builder(&spec.name, "microedge-camera:latest")
            .resources(ResourceRequest::camera_default())
            .extension(EXT_MODEL, &model_ext)
            .extension(EXT_TPU_UNITS, &units_ext)
            .build();
        Ok((pod_spec, profiles))
    }

    fn admit_with_root(
        &mut self,
        spec: StreamSpec,
        root: Option<StreamId>,
    ) -> Result<StreamId, DeployError> {
        let (pod_spec, profiles) = self.build_pod_spec(&spec)?;
        let deployment = self.sched.deploy(&mut self.orch, pod_spec)?;
        let stages: Vec<StageRuntime> = deployment
            .stages()
            .iter()
            .zip(profiles)
            .map(|(grant, profile)| StageRuntime {
                transfer: self.net.transfer_time(profile.input_bytes()),
                profile,
                lbs: grant.lbs(),
            })
            .collect();
        for grant in deployment.stages() {
            for alloc in grant.allocations() {
                self.sync_device(alloc.tpu());
            }
        }
        let id = StreamId(self.next_stream);
        debug_assert_eq!(id.index(), self.streams.len(), "slab ids are dense");
        self.next_stream += 1;
        let now = self.queue.now();
        let start_offset = spec.start_offset;
        // The spec moves into the runtime whole — no per-admission deep
        // clone of its name and stage list.
        let runtime = StreamRuntime {
            pod: deployment.pod(),
            stages,
            audit: ThroughputAudit::new(spec.fps),
            latency: OnlineStats::new(),
            interval: SimDuration::from_secs_f64(1.0 / spec.fps),
            frame_limit: spec.frame_limit,
            emitted: 0,
            collocated: spec.collocated,
            active: true,
            filter: spec.frame_filter.map(|(pass_rate, seed)| FrameFilter {
                pass_rate,
                rng: DetRng::seed_from(seed),
            }),
            preprocess: self.dp.preprocess_for(spec.source),
            spec,
            root: root.unwrap_or(id),
            phase: StreamPhase::Active,
            den: 1,
            emission_alive: true,
            pending_swap: None,
        };
        self.pods_to_streams.insert(deployment.pod(), id);
        self.streams.push(runtime);
        self.active_count += 1;
        self.served.add(now, 1.0);
        self.queue.schedule_after(start_offset, Ev::Frame(id));
        if let Some(chaos) = self.chaos.as_mut() {
            let lineage_root = root.unwrap_or(id);
            let tracker = chaos.trackers.entry(lineage_root).or_default();
            if root.is_some() {
                // A restarted incarnation: the lineage's outage ends here.
                tracker.outage_ends(now);
                tracker.count_restart();
            }
        }
        Ok(id)
    }

    /// Removes a stream: the pod is deleted and its TPU units return to the
    /// pool. In-flight frames drain normally.
    ///
    /// # Errors
    ///
    /// Propagates orchestrator errors for unknown pods.
    pub fn remove_stream(&mut self, id: StreamId) -> Result<(), DeployError> {
        let stream = self.stream(id).ok_or(DeployError::UnknownStream(id.0))?;
        if !stream.active && stream.phase != StreamPhase::Parked {
            return Err(DeployError::InvalidStreamState(id.0, "not running"));
        }
        let pod = stream.pod;
        let now = self.queue.now();
        let was_parked = stream.phase == StreamPhase::Parked;
        self.transition(id, StreamPhase::Removed, now);
        if was_parked {
            // The pod is already gone; just drop the pending-restart entry.
            if let Some(chaos) = self.chaos.as_mut() {
                chaos.parked.retain(|p| p.stream != id);
                chaos
                    .trackers
                    .entry(self.streams[id.index()].root)
                    .or_default()
                    .outage_ends(now);
            }
            return Ok(());
        }
        self.sched.teardown(&mut self.orch, pod)?;
        // Capacity came back: give the reconciler a chance to drain parked
        // streams immediately.
        self.nudge_reconciler(now);
        Ok(())
    }

    /// Simulates the stream's pod crashing *without* notifying the
    /// extended scheduler: the orchestrator marks the pod terminated and
    /// frames stop, but the pod's TPU units remain held until the
    /// reclamation component notices (paper §3.1 step ⑤ — exercised via
    /// [`World::poll_reclamation`]).
    ///
    /// # Errors
    ///
    /// Propagates orchestrator errors for unknown/terminated pods.
    pub fn crash_stream(&mut self, id: StreamId) -> Result<(), DeployError> {
        let stream = self.stream(id).ok_or(DeployError::UnknownStream(id.0))?;
        if !stream.active {
            return Err(DeployError::InvalidStreamState(id.0, "not running"));
        }
        let pod = stream.pod;
        let now = self.queue.now();
        self.transition(id, StreamPhase::Lost, now);
        self.orch.delete_pod(pod)?;
        if let Some(chaos) = self.chaos.as_mut() {
            let root = self.streams[id.index()].root;
            chaos.trackers.entry(root).or_default().outage_begins(now);
        }
        Ok(())
    }

    /// One poll of the reclamation component: returns the TPU units of
    /// every terminated pod that still holds an assignment, and reports the
    /// pods reclaimed.
    pub fn poll_reclamation(&mut self) -> Vec<PodId> {
        self.sched.reclaim_terminated(&self.orch)
    }

    /// Kills a TPU's data plane: queued and executing frames are dropped
    /// and the service stops accepting traffic. Control-plane state is
    /// untouched.
    fn kill_tpu_data_plane(&mut self, now: SimTime, tpu: TpuId) {
        let svc = &mut self.services[tpu.index()];
        svc.alive = false;
        self.frames_dropped += svc.queue.len() as u64;
        svc.queue.clear();
        if svc.current.take().is_some() {
            self.frames_dropped += 1;
            self.fleet.tracker_mut(tpu.index()).end_busy(now);
        }
    }

    /// Applies new per-stage placements to a stream's load balancers and
    /// reloads the affected devices.
    fn apply_plans(&mut self, stream_id: StreamId, plans: &[crate::scheduler::StagePlacement]) {
        if let Some(stream) = self.stream_mut(stream_id) {
            for (stage, (_, allocations)) in stream.stages.iter_mut().zip(plans) {
                stage.lbs = LbService::from_allocations(allocations);
            }
        }
        for (_, allocations) in plans {
            for alloc in allocations {
                self.sync_device(alloc.tpu());
            }
        }
    }

    /// Arms the background defragmenter. From then on every
    /// [`World::defrag_epoch`] tick counts toward `config.interval_epochs`
    /// and armed ticks run one budgeted repacking cycle. Sharded runs call
    /// the tick at every epoch barrier; plain worlds may call it by hand
    /// between [`World::run_until`] slices.
    pub fn enable_defrag(&mut self, config: DefragConfig) {
        self.defrag = Some(Box::new(DefragRuntime {
            config,
            stats: DefragStats::default(),
            epochs: 0,
        }));
    }

    /// One defragmenter tick. A no-op unless [`World::enable_defrag`] was
    /// called and this tick completes an `interval_epochs` period; an armed
    /// tick plans donor evictions against the live pool and executes the
    /// ones whose recovered contiguous capacity justifies their modeled
    /// disruption (see [`crate::defrag`]).
    ///
    /// Pods of streams that are mid-swap or not serving are frozen — the
    /// same swap-seq guard the failure-recovery path uses — so a migration
    /// never races a recovery. Each migrated stream's load-balancer weights
    /// are re-seeded immediately (the move is planned at a quiescent epoch
    /// barrier, so no in-flight frame observes the old placement), the
    /// donor's device cache is re-synced, and in chaos mode the stream is
    /// held under a pending-swap guard for the move's modeled cost so
    /// rescale/upgrade paths keep their hands off until the migration
    /// settles.
    pub fn defrag_epoch(&mut self) {
        let Some(runtime) = self.defrag.as_mut() else {
            return;
        };
        runtime.epochs += 1;
        if runtime.epochs % u64::from(runtime.config.interval_epochs.max(1)) != 0 {
            return;
        }
        let config = runtime.config;
        let mut frozen = BTreeSet::new();
        for s in &self.streams {
            let serving = matches!(s.phase, StreamPhase::Active | StreamPhase::Degraded);
            if s.pending_swap.is_some() || !serving {
                frozen.insert(s.pod);
            }
        }
        let mut stats = DefragStats::default();
        let moves = defrag::run_cycle(&mut self.sched, &frozen, &config, &mut stats);
        for mv in &moves {
            for pod_move in &mv.plan.moves {
                let sid = self.pods_to_streams[&pod_move.pod];
                self.apply_plans(sid, &pod_move.plans);
            }
            self.sync_device(mv.plan.donor);
            if mv.cost > SimDuration::ZERO {
                for pod_move in &mv.plan.moves {
                    let sid = self.pods_to_streams[&pod_move.pod];
                    self.guard_migration(sid, mv.cost);
                }
            }
        }
        if let Some(runtime) = self.defrag.as_mut() {
            runtime.stats.merge(&stats);
        }
    }

    /// Holds a just-migrated stream under the swap-seq guard for the
    /// migration's modeled duration. Mirrors `schedule_swap_in`, but the
    /// cost is the defragmenter's priced disruption and there is nothing to
    /// detect or reschedule. The stream keeps serving; when the `SwapIn`
    /// guard event fires on an `Active`/`Degraded` stream it clears
    /// `pending_swap` and records nothing. No-op without chaos mode, where
    /// no concurrent rescale/recovery path exists to guard against.
    fn guard_migration(&mut self, sid: StreamId, cost: SimDuration) {
        let now = self.queue.now();
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        chaos.swap_seq += 1;
        let seq = chaos.swap_seq;
        let breakdown = RecoveryBreakdown::new(SimDuration::ZERO, SimDuration::ZERO, cost);
        if let Some(stream) = self.streams.get_mut(sid.index()) {
            stream.pending_swap = Some(seq);
        }
        self.queue.schedule_at(
            now + cost,
            Ev::SwapIn {
                stream: sid,
                seq,
                breakdown,
                restarted: false,
            },
        );
    }

    /// Fails a TPU mid-run: queued and executing frames on it are dropped,
    /// and affected pods are re-admitted on surviving TPUs where possible
    /// (the paper's failure-recovery extension). Streams whose pods cannot
    /// be re-placed are deactivated.
    ///
    /// Idempotent and non-panicking: an unknown or already-failed TPU
    /// displaces nothing and returns an empty list, matching the
    /// orchestrator's `fail_node` semantics. This is the omniscient,
    /// instantaneous path; under chaos mode injected faults go through the
    /// lease-based detector instead.
    ///
    /// Returns the streams that lost TPU service.
    pub fn fail_tpu(&mut self, tpu: TpuId) -> Vec<StreamId> {
        let Some(svc) = self.services.get(tpu.index()) else {
            return Vec::new();
        };
        if !svc.alive {
            return Vec::new();
        }
        let now = self.queue.now();
        self.kill_tpu_data_plane(now, tpu);
        let outcome = self.sched.handle_tpu_failure(tpu);
        for recovered in &outcome.recovered {
            let stream_id = self.pods_to_streams[&recovered.pod];
            self.apply_plans(stream_id, &recovered.plans);
        }
        let mut lost_streams = Vec::new();
        for pod in outcome.lost {
            let stream_id = self.pods_to_streams[&pod];
            self.transition(stream_id, StreamPhase::Lost, now);
            lost_streams.push(stream_id);
        }
        lost_streams
    }

    /// Fails an entire node (tRPi or vRPi): the orchestrator terminates
    /// every pod hosted on it, the node stops accepting pods, and — if a
    /// TPU hangs off the node — that TPU fails too, with displaced streams
    /// re-admitted on survivors where possible. Streams whose *application
    /// container* lived on the dead node are deactivated outright (their
    /// pod is gone) and their TPU units reclaimed.
    ///
    /// Returns the streams that stopped as a result. Non-panicking: an
    /// unknown node displaces nothing.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<StreamId> {
        if self.orch.cluster().node(node).is_none() {
            return Vec::new();
        }
        let now = self.queue.now();
        // The node's TPU (if any) dies with it.
        let tpu = self.tpu_on_node(node);
        let mut stopped = match tpu {
            Some(tpu) => self.fail_tpu(tpu),
            None => Vec::new(),
        };
        // Pods hosted on the node terminate; their streams stop emitting.
        let displaced = self.orch.fail_node(node);
        for pod in displaced {
            if let Some(&stream_id) = self.pods_to_streams.get(&pod) {
                if self.transition(stream_id, StreamPhase::Lost, now) {
                    stopped.push(stream_id);
                }
            }
        }
        // The reclamation component returns the dead pods' TPU units.
        self.sched.reclaim_terminated(&self.orch);
        stopped.sort_unstable();
        stopped.dedup();
        stopped
    }

    /// The TPU attached to `node`, if any.
    fn tpu_on_node(&self, node: NodeId) -> Option<TpuId> {
        self.sched
            .pool()
            .accounts()
            .iter()
            .find(|a| a.node() == node)
            .map(|a| a.id())
    }

    /// Drains a TPU for maintenance: its load live-migrates to the rest of
    /// the fleet (new frames route elsewhere; frames already queued on it
    /// finish normally — zero frames are dropped). Returns the migrated
    /// streams.
    ///
    /// # Errors
    ///
    /// [`DeployError::InsufficientTpu`] when the remaining fleet cannot
    /// absorb the load; nothing changes in that case.
    pub fn drain_tpu(&mut self, tpu: TpuId) -> Result<Vec<StreamId>, DeployError> {
        let migrated = self.sched.drain_tpu(tpu)?;
        let mut streams = Vec::with_capacity(migrated.len());
        for (pod, plans) in &migrated {
            let stream_id = self.pods_to_streams[pod];
            if let Some(stream) = self.stream_mut(stream_id) {
                for (stage, (_, allocations)) in stream.stages.iter_mut().zip(plans) {
                    stage.lbs = LbService::from_allocations(allocations);
                }
            }
            for (_, allocations) in plans {
                for alloc in allocations {
                    self.sync_device(alloc.tpu());
                }
            }
            streams.push(stream_id);
        }
        Ok(streams)
    }

    /// Attempts to restart a stream that lost service (pod crash, node or
    /// TPU failure): a fresh admission of the original spec under a new
    /// stream id — the controller loop a production deployment would run
    /// on `PodTerminated` events. Frames resume at the current time.
    ///
    /// The new stream inherits the old stream's lineage root, so
    /// availability and chain-latency metrics aggregate across restarts
    /// instead of treating the revived stream as an unrelated one; the old
    /// id is marked [`StreamPhase::Superseded`] and linked to its successor
    /// (see [`RunResults::successor`]).
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownStream`] for ids never issued,
    /// [`DeployError::InvalidStreamState`] when the stream is still active
    /// or already superseded, and admission errors when the spec no longer
    /// fits the surviving capacity.
    pub fn restart_stream(&mut self, id: StreamId) -> Result<StreamId, DeployError> {
        let stream = self.stream(id).ok_or(DeployError::UnknownStream(id.0))?;
        if stream.active {
            return Err(DeployError::InvalidStreamState(id.0, "still active"));
        }
        if stream.phase == StreamPhase::Superseded {
            return Err(DeployError::InvalidStreamState(id.0, "already superseded"));
        }
        let root = stream.root;
        let mut spec = stream.spec.clone();
        spec.start_offset = SimDuration::ZERO;
        let was_parked = stream.phase == StreamPhase::Parked;
        let new_id = self.admit_with_root(spec, Some(root))?;
        if was_parked {
            if let Some(chaos) = self.chaos.as_mut() {
                chaos.parked.retain(|p| p.stream != id);
            }
        }
        if let Some(stream) = self.stream_mut(id) {
            stream.phase = StreamPhase::Superseded;
        }
        self.lineage.insert(id, new_id);
        Ok(new_id)
    }

    /// Arms chaos mode: injected faults (see [`World::inject_faults`]) flow
    /// through the lease-based failure detector, the reconciliation
    /// controller heals displaced streams per `config.heal`, and frame
    /// rates degrade in fairness tiers per `config.degrade`. Idempotent in
    /// effect — calling again replaces the configuration and resets fault
    /// bookkeeping.
    pub fn enable_chaos(&mut self, config: ChaosConfig) {
        let node_slots = self
            .orch
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.id().index() + 1)
            .max()
            .unwrap_or(0);
        self.chaos = Some(Box::new(ChaosState {
            config,
            tpus: vec![CompFault::default(); self.services.len()],
            nodes: vec![CompFault::default(); node_slots],
            parked: Vec::new(),
            recorder: RecoveryRecorder::new(),
            trackers: BTreeMap::new(),
            swap_seq: 0,
            reconcile_at: None,
        }));
    }

    /// `true` once [`World::enable_chaos`] has armed the fault subsystem.
    #[must_use]
    pub fn chaos_enabled(&self) -> bool {
        self.chaos.is_some()
    }

    /// Schedules every event of a fault trace into the simulation. Events
    /// earlier than the current time are skipped. Arms chaos mode with the
    /// default [`ChaosConfig`] if it is not already enabled.
    pub fn inject_faults(&mut self, schedule: &FaultSchedule) {
        if self.chaos.is_none() {
            self.enable_chaos(ChaosConfig::default());
        }
        let now = self.queue.now();
        for ev in schedule.events() {
            if ev.at < now {
                continue;
            }
            self.queue.schedule_at(ev.at, Ev::Fault(ev.kind));
        }
    }

    /// The lifecycle phase a stream is currently in.
    #[must_use]
    pub fn stream_phase(&self, id: StreamId) -> Option<StreamPhase> {
        self.stream(id).map(|s| s.phase)
    }

    /// The first stream id of `id`'s restart lineage.
    #[must_use]
    pub fn stream_root(&self, id: StreamId) -> Option<StreamId> {
        self.stream(id).map(|s| s.root)
    }

    /// Streams currently waiting in the reconciler's pending-restart
    /// queue, in arrival order.
    #[must_use]
    pub fn pending_restarts(&self) -> Vec<StreamId> {
        self.chaos
            .as_ref()
            .map(|c| c.parked.iter().map(|p| p.stream).collect())
            .unwrap_or_default()
    }

    /// Live streams that currently route through `tpu` (control-plane
    /// view).
    fn streams_using_tpu(&self, tpu: TpuId) -> Vec<StreamId> {
        let mut out = Vec::new();
        for (i, s) in self.streams.iter().enumerate() {
            if !s.phase.is_live() {
                continue;
            }
            if let Some(allocs) = self.sched.assignment(s.pod) {
                if allocs.iter().any(|a| a.tpu() == tpu) {
                    out.push(StreamId::from_index(i));
                }
            }
        }
        out
    }

    /// Marks a live stream interrupted (its frames now drop at the client)
    /// and opens the lineage's outage interval.
    fn interrupt_stream(&mut self, now: SimTime, id: StreamId) {
        let Some(stream) = self.stream(id) else {
            return;
        };
        if stream.phase == StreamPhase::Interrupted || !stream.phase.is_live() {
            return;
        }
        let root = stream.root;
        self.transition(id, StreamPhase::Interrupted, now);
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.trackers.entry(root).or_default().outage_begins(now);
        }
    }

    /// Returns interrupted streams whose placement is healthy again to
    /// their rate-appropriate serving phase.
    fn resync_interrupted(&mut self, now: SimTime) {
        for i in 0..self.streams.len() {
            let id = StreamId::from_index(i);
            let (pod, den) = {
                let s = &self.streams[i];
                if s.phase != StreamPhase::Interrupted || s.pending_swap.is_some() {
                    continue;
                }
                (s.pod, s.den)
            };
            if !self.placement_healthy(pod) {
                continue;
            }
            let phase = if den > 1 {
                StreamPhase::Degraded
            } else {
                StreamPhase::Active
            };
            self.transition(id, phase, now);
            let root = self.streams[i].root;
            if let Some(chaos) = self.chaos.as_mut() {
                let tracker = chaos.trackers.entry(root).or_default();
                tracker.outage_ends(now);
                if den > 1 {
                    tracker.degrade_begins(now);
                }
            }
        }
    }

    /// Whether every component a pod depends on (host node, every allocated
    /// TPU) is currently serving.
    fn placement_healthy(&self, pod: PodId) -> bool {
        let Some(node) = self.orch.node_of(pod) else {
            return false;
        };
        if let Some(chaos) = self.chaos.as_ref() {
            if chaos
                .nodes
                .get(node.index())
                .is_some_and(|n| n.down_since.is_some())
            {
                return false;
            }
        }
        let Some(allocs) = self.sched.assignment(pod) else {
            return false;
        };
        allocs.iter().all(|a| self.services[a.tpu().index()].alive)
    }

    fn on_fault(&mut self, now: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::TpuFail(tpu) => self.on_tpu_fault(now, tpu),
            FaultKind::TpuRepair(tpu) => self.on_tpu_repair(now, tpu),
            FaultKind::NodeFail(node) | FaultKind::LinkFail(node) => {
                self.on_node_fault(now, kind, node);
            }
            FaultKind::NodeRepair(node) | FaultKind::LinkRepair(node) => {
                self.on_node_repair(now, node);
            }
        }
    }

    fn on_tpu_fault(&mut self, now: SimTime, tpu: TpuId) {
        let (epoch, detect_at) = {
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            let Some(state) = chaos.tpus.get_mut(tpu.index()) else {
                return;
            };
            if state.down_since.is_some() {
                return;
            }
            state.down_since = Some(now);
            state.epoch = state.epoch.wrapping_add(1);
            state.detected = false;
            (state.epoch, chaos.config.detection.detect_at(now))
        };
        // Data plane only: the service silently drops traffic until the
        // lease expires.
        self.kill_tpu_data_plane(now, tpu);
        for id in self.streams_using_tpu(tpu) {
            self.interrupt_stream(now, id);
        }
        self.queue.schedule_at(
            detect_at,
            Ev::Detect {
                kind: FaultKind::TpuFail(tpu),
                epoch,
            },
        );
    }

    fn on_tpu_repair(&mut self, now: SimTime, tpu: TpuId) {
        let detected = {
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            let Some(state) = chaos.tpus.get_mut(tpu.index()) else {
                return;
            };
            if state.down_since.is_none() {
                return;
            }
            let detected = state.detected;
            state.down_since = None;
            state.detected = false;
            detected
        };
        // If the hosting node is itself down the repaired TPU stays
        // unreachable; the node's repair will bring it back.
        let host_down = self.tpu_host(tpu).is_some_and(|node| self.node_down(node));
        if host_down {
            return;
        }
        if detected {
            // The control plane replanned around this TPU; return it to
            // the pool for future placements.
            self.sched.restore_tpu(tpu);
            self.sync_device(tpu);
        }
        // Either way the data plane serves again (an undetected blip left
        // all placements intact).
        self.services[tpu.index()].alive = true;
        self.resync_interrupted(now);
        self.nudge_reconciler(now);
    }

    fn on_node_fault(&mut self, now: SimTime, kind: FaultKind, node: NodeId) {
        let (epoch, detect_at) = {
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            let Some(state) = chaos.nodes.get_mut(node.index()) else {
                return;
            };
            if state.down_since.is_some() {
                return;
            }
            state.down_since = Some(now);
            state.epoch = state.epoch.wrapping_add(1);
            state.detected = false;
            (state.epoch, chaos.config.detection.detect_at(now))
        };
        let mut victims: Vec<StreamId> = Vec::new();
        if let Some(tpu) = self.tpu_on_node(node) {
            self.kill_tpu_data_plane(now, tpu);
            victims.extend(self.streams_using_tpu(tpu));
        }
        // Streams whose application container lives on the dead /
        // partitioned node stop making progress too.
        for (&pod, &sid) in &self.pods_to_streams {
            if self.orch.node_of(pod) == Some(node)
                && self
                    .streams
                    .get(sid.index())
                    .is_some_and(|s| s.phase.is_live())
            {
                victims.push(sid);
            }
        }
        victims.sort_unstable();
        victims.dedup();
        for id in victims {
            self.interrupt_stream(now, id);
        }
        self.queue
            .schedule_at(detect_at, Ev::Detect { kind, epoch });
    }

    fn on_node_repair(&mut self, now: SimTime, node: NodeId) {
        let detected = {
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            let Some(state) = chaos.nodes.get_mut(node.index()) else {
                return;
            };
            if state.down_since.is_none() {
                return;
            }
            let detected = state.detected;
            state.down_since = None;
            state.detected = false;
            detected
        };
        if detected {
            self.orch.restore_node(node);
        }
        if let Some(tpu) = self.tpu_on_node(node) {
            let tpu_class_down = self.chaos.as_ref().is_some_and(|c| {
                c.tpus
                    .get(tpu.index())
                    .is_some_and(|t| t.down_since.is_some())
            });
            if !tpu_class_down {
                if detected {
                    self.sched.restore_tpu(tpu);
                    self.sync_device(tpu);
                }
                self.services[tpu.index()].alive = true;
            }
        }
        self.resync_interrupted(now);
        self.nudge_reconciler(now);
    }

    fn on_detect(&mut self, now: SimTime, kind: FaultKind, epoch: u32) {
        let heal = match self.chaos.as_ref() {
            Some(chaos) => chaos.config.heal.is_some(),
            None => return,
        };
        match kind {
            FaultKind::TpuFail(tpu) => {
                let fault_at = {
                    let chaos = self.chaos.as_mut().expect("checked above");
                    let Some(state) = chaos.tpus.get_mut(tpu.index()) else {
                        return;
                    };
                    let Some(down_since) = state.down_since else {
                        return;
                    };
                    if state.epoch != epoch || state.detected {
                        return;
                    }
                    state.detected = true;
                    down_since
                };
                self.detect_tpu_failure(now, tpu, heal, fault_at);
            }
            FaultKind::NodeFail(node) | FaultKind::LinkFail(node) => {
                let fault_at = {
                    let chaos = self.chaos.as_mut().expect("checked above");
                    let Some(state) = chaos.nodes.get_mut(node.index()) else {
                        return;
                    };
                    let Some(down_since) = state.down_since else {
                        return;
                    };
                    if state.epoch != epoch || state.detected {
                        return;
                    }
                    state.detected = true;
                    down_since
                };
                self.detect_node_failure(now, node, heal, fault_at);
            }
            // Repairs never schedule `Detect`.
            _ => {}
        }
    }

    /// The control plane reacts to a detected TPU failure: under healing
    /// every affected pod is replanned onto survivors (or parked for the
    /// reconciler); without healing displaced pods are dropped outright —
    /// the no-heal baseline.
    fn detect_tpu_failure(&mut self, now: SimTime, tpu: TpuId, heal: bool, fault_at: SimTime) {
        if heal {
            let outcome = self.sched.handle_tpu_failure(tpu);
            for rec in &outcome.recovered {
                let sid = self.pods_to_streams[&rec.pod];
                self.apply_plans(sid, &rec.plans);
                let stages = rec.plans.len();
                self.schedule_swap_in(sid, fault_at, now, rec.swap_bytes, stages, false);
            }
            for pod in outcome.lost {
                let sid = self.pods_to_streams[&pod];
                let _ = self.orch.delete_pod(pod);
                self.park_stream(now, sid, fault_at, now);
            }
            self.nudge_reconciler(now);
        } else {
            for pod in self.sched.fail_tpu_releasing(tpu) {
                let sid = self.pods_to_streams[&pod];
                let _ = self.orch.delete_pod(pod);
                self.transition(sid, StreamPhase::Lost, now);
            }
        }
    }

    /// The control plane reacts to a detected node/link failure: the
    /// orchestrator evicts hosted pods (K3s marks the node NotReady after
    /// the lease), their units are reclaimed, and the node's TPU — if any —
    /// goes through the TPU failure path.
    fn detect_node_failure(&mut self, now: SimTime, node: NodeId, heal: bool, fault_at: SimTime) {
        let displaced = self.orch.fail_node(node);
        self.sched.reclaim_terminated(&self.orch);
        // Parked streams whose replacement pod was still swapping in when
        // the node died count as displaced too — they must re-enter the
        // pending-restart queue.
        let hosted: Vec<StreamId> = displaced
            .iter()
            .filter_map(|p| self.pods_to_streams.get(p).copied())
            .filter(|sid| {
                self.streams
                    .get(sid.index())
                    .is_some_and(|s| s.phase.is_live() || s.phase == StreamPhase::Parked)
            })
            .collect();
        if heal {
            for sid in hosted {
                self.park_stream(now, sid, fault_at, now);
            }
            if let Some(tpu) = self.tpu_on_node(node) {
                self.detect_tpu_failure(now, tpu, true, fault_at);
            }
            self.nudge_reconciler(now);
        } else {
            for sid in hosted {
                self.transition(sid, StreamPhase::Lost, now);
            }
            if let Some(tpu) = self.tpu_on_node(node) {
                self.detect_tpu_failure(now, tpu, false, fault_at);
            }
        }
    }

    /// Queues a displaced stream for re-admission by the reconciler (or
    /// marks it lost when healing is off).
    fn park_stream(
        &mut self,
        now: SimTime,
        sid: StreamId,
        fault_at: SimTime,
        detected_at: SimTime,
    ) {
        let heal = self.chaos.as_ref().is_some_and(|c| c.config.heal.is_some());
        if !heal {
            self.transition(sid, StreamPhase::Lost, now);
            return;
        }
        self.transition(sid, StreamPhase::Parked, now);
        if let Some(s) = self.streams.get_mut(sid.index()) {
            // Parking supersedes any in-flight swap: its placement is gone.
            s.pending_swap = None;
        }
        let chaos = self.chaos.as_mut().expect("heal implies chaos");
        if !chaos.parked.iter().any(|p| p.stream == sid) {
            chaos.parked.push(ParkedStream {
                stream: sid,
                attempts: 0,
                next_try: now,
                fault_at,
                detected_at,
            });
        }
    }

    /// Schedules the swap-in completion for a freshly replanned placement
    /// and stamps the stream as waiting on it. Runs at the instant the
    /// replanning happened, so "now" is the queue's current time.
    fn schedule_swap_in(
        &mut self,
        sid: StreamId,
        fault_at: SimTime,
        detected_at: SimTime,
        swap_bytes: u64,
        stages: usize,
        restarted: bool,
    ) {
        let now = self.queue.now();
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        chaos.swap_seq += 1;
        let seq = chaos.swap_seq;
        let rpc =
            chaos.config.resched_rpc * (1 + u64::try_from(stages).expect("stage count fits u64"));
        let swap = TpuSpec::coral_usb().swap_time(swap_bytes);
        let breakdown = RecoveryBreakdown::new(
            detected_at.saturating_since(fault_at),
            now.saturating_since(detected_at) + rpc,
            swap,
        );
        if let Some(stream) = self.streams.get_mut(sid.index()) {
            stream.pending_swap = Some(seq);
        }
        self.queue.schedule_at(
            now + rpc + swap,
            Ev::SwapIn {
                stream: sid,
                seq,
                breakdown,
                restarted,
            },
        );
    }

    fn on_swap_in(
        &mut self,
        now: SimTime,
        sid: StreamId,
        seq: u64,
        breakdown: RecoveryBreakdown,
        restarted: bool,
    ) {
        let (den, root, pod) = {
            let Some(s) = self.streams.get_mut(sid.index()) else {
                return;
            };
            if s.pending_swap != Some(seq) {
                return;
            }
            s.pending_swap = None;
            if !matches!(s.phase, StreamPhase::Interrupted | StreamPhase::Parked) {
                // The stream left the recovery path (crashed, removed, or
                // restarted by hand) while parameters streamed in.
                return;
            }
            (s.den, s.root, s.pod)
        };
        if !self.placement_healthy(pod) {
            // The replacement placement itself failed before swap-in
            // finished; stay down — the new fault's detection will replan.
            return;
        }
        let phase = if den > 1 {
            StreamPhase::Degraded
        } else {
            StreamPhase::Active
        };
        self.transition(sid, phase, now);
        if let Some(chaos) = self.chaos.as_mut() {
            let tracker = chaos.trackers.entry(root).or_default();
            tracker.outage_ends(now);
            if den > 1 {
                tracker.degrade_begins(now);
            }
            if restarted {
                tracker.count_restart();
            }
            chaos.recorder.record(&breakdown);
        }
        let arm = {
            let s = &mut self.streams[sid.index()];
            if s.emission_alive {
                false
            } else {
                s.emission_alive = true;
                true
            }
        };
        if arm {
            self.queue.schedule_after(SimDuration::ZERO, Ev::Frame(sid));
        }
    }

    /// Ensures a `Reconcile` event fires at `now` if the controller has
    /// work: parked streams to re-admit, or degraded streams that might
    /// upgrade now that capacity was released.
    fn nudge_reconciler(&mut self, now: SimTime) {
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        if chaos.config.heal.is_none() {
            return;
        }
        let wanted = !chaos.parked.is_empty()
            || self
                .streams
                .iter()
                .any(|s| s.phase == StreamPhase::Degraded && s.den > 1);
        if wanted {
            self.schedule_reconcile(now);
        }
    }

    /// Schedules a `Reconcile` event at `at` unless an earlier one is
    /// already pending.
    fn schedule_reconcile(&mut self, at: SimTime) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        if chaos.reconcile_at.is_none_or(|t| at < t) {
            chaos.reconcile_at = Some(at);
            self.queue.schedule_at(at, Ev::Reconcile);
        }
    }

    fn on_reconcile(&mut self, now: SimTime) {
        let due: Vec<ParkedStream> = {
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            chaos.reconcile_at = None;
            if chaos.config.heal.is_none() {
                return;
            }
            chaos
                .parked
                .iter()
                .copied()
                .filter(|p| p.next_try <= now)
                .collect()
        };
        for entry in due {
            let readmitted = self.try_readmit(now, entry);
            let chaos = self.chaos.as_mut().expect("chaos stays armed");
            if readmitted {
                chaos.parked.retain(|p| p.stream != entry.stream);
            } else if let Some(p) = chaos.parked.iter_mut().find(|p| p.stream == entry.stream) {
                p.attempts += 1;
                let backoff = chaos
                    .config
                    .heal
                    .as_ref()
                    .expect("checked above")
                    .backoff(p.attempts, p.stream.0);
                p.next_try = now + backoff;
            }
        }
        // Only once nothing is waiting does the controller hand capacity
        // back to degraded tenants.
        let parked_empty = self.chaos.as_ref().is_some_and(|c| c.parked.is_empty());
        if parked_empty {
            self.upgrade_degraded(now);
        }
        let next = self
            .chaos
            .as_ref()
            .and_then(|c| c.parked.iter().map(|p| p.next_try).min());
        if let Some(next) = next {
            self.schedule_reconcile(next.max(now));
        }
    }

    /// One re-admission attempt for a parked stream: try each degradation
    /// tier from full rate down, then try making room by degrading active
    /// tenants, and finally give up (the caller applies backoff). Returns
    /// `true` when the entry should leave the queue.
    fn try_readmit(&mut self, now: SimTime, entry: ParkedStream) -> bool {
        let sid = entry.stream;
        let spec = match self.stream(sid) {
            Some(s) if s.phase == StreamPhase::Parked => s.spec.clone(),
            // Removed / restarted / otherwise gone: drop the entry.
            _ => return true,
        };
        let tiers: Vec<u32> = match self.chaos.as_ref().and_then(|c| c.config.degrade.as_ref()) {
            Some(d) => d.tiers().collect(),
            None => vec![1],
        };
        for &den in &tiers {
            if self.try_readmit_at(sid, &entry, &spec, den) {
                return true;
            }
        }
        let max_den = *tiers.last().expect("tiers are never empty");
        if max_den > 1 {
            while self.shrink_one_stream(now, max_den) {
                if self.try_readmit_at(sid, &entry, &spec, max_den) {
                    return true;
                }
            }
        }
        false
    }

    /// One deployment attempt at a specific degradation tier.
    fn try_readmit_at(
        &mut self,
        sid: StreamId,
        entry: &ParkedStream,
        spec: &StreamSpec,
        den: u32,
    ) -> bool {
        let Ok((pod_spec, _)) = self.build_pod_spec(spec) else {
            return false;
        };
        match self.sched.deploy_scaled(&mut self.orch, pod_spec, den) {
            Ok(deployment) => {
                self.wire_readmitted(sid, entry, den, &deployment);
                true
            }
            Err(_) => false,
        }
    }

    /// Points an existing (parked) stream runtime at its replacement
    /// deployment and schedules the swap-in that will bring it back live.
    fn wire_readmitted(
        &mut self,
        sid: StreamId,
        entry: &ParkedStream,
        den: u32,
        deployment: &Deployment,
    ) {
        let pod = deployment.pod();
        let mut per_tpu: BTreeMap<TpuId, u64> = BTreeMap::new();
        for grant in deployment.stages() {
            let bytes = self.sched.catalog().expect(grant.model()).param_bytes();
            for &tpu in grant.newly_loaded() {
                *per_tpu.entry(tpu).or_insert(0) += bytes;
            }
        }
        let swap_bytes = per_tpu.values().copied().max().unwrap_or(0);
        let stages = deployment.stages().len();
        let old_pod = self.streams[sid.index()].pod;
        {
            let s = &mut self.streams[sid.index()];
            s.pod = pod;
            s.den = den;
            for (stage, grant) in s.stages.iter_mut().zip(deployment.stages()) {
                stage.lbs = grant.lbs();
            }
        }
        self.pods_to_streams.remove(&old_pod);
        self.pods_to_streams.insert(pod, sid);
        for grant in deployment.stages() {
            for alloc in grant.allocations() {
                self.sync_device(alloc.tpu());
            }
        }
        self.schedule_swap_in(
            sid,
            entry.fault_at,
            entry.detected_at,
            swap_bytes,
            stages,
            true,
        );
    }

    /// Degrades the least-degraded serving stream by one tier to free
    /// capacity. Returns `false` when no stream can be shrunk further.
    fn shrink_one_stream(&mut self, now: SimTime, max_den: u32) -> bool {
        let mut candidate: Option<(u32, StreamId)> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if !matches!(s.phase, StreamPhase::Active | StreamPhase::Degraded) {
                continue;
            }
            if s.den >= max_den || s.pending_swap.is_some() {
                continue;
            }
            let key = (s.den, StreamId::from_index(i));
            if candidate.is_none_or(|c| key < c) {
                candidate = Some(key);
            }
        }
        let Some((den, sid)) = candidate else {
            return false;
        };
        let pod = self.streams[sid.index()].pod;
        let new_den = den * 2;
        match self.sched.rescale(pod, new_den) {
            Ok(plans) => {
                self.apply_plans(sid, &plans);
                self.set_denominator(now, sid, new_den);
                true
            }
            Err(_) => false,
        }
    }

    /// Promotes degraded streams back toward full rate, deepest tier
    /// first, for as long as capacity allows.
    fn upgrade_degraded(&mut self, now: SimTime) {
        loop {
            let mut candidate: Option<(u32, StreamId)> = None;
            for (i, s) in self.streams.iter().enumerate() {
                if s.phase != StreamPhase::Degraded || s.den <= 1 || s.pending_swap.is_some() {
                    continue;
                }
                let id = StreamId::from_index(i);
                let better = match candidate {
                    None => true,
                    Some((cd, cid)) => s.den > cd || (s.den == cd && id < cid),
                };
                if better {
                    candidate = Some((s.den, id));
                }
            }
            let Some((den, sid)) = candidate else {
                return;
            };
            let pod = self.streams[sid.index()].pod;
            match self.sched.rescale(pod, den / 2) {
                Ok(plans) => {
                    self.apply_plans(sid, &plans);
                    self.set_denominator(now, sid, den / 2);
                }
                Err(_) => return,
            }
        }
    }

    /// Records a denominator change on a serving stream, keeping phase and
    /// degrade-interval bookkeeping consistent.
    fn set_denominator(&mut self, now: SimTime, sid: StreamId, new_den: u32) {
        let (root, old_den, serving) = {
            let s = &mut self.streams[sid.index()];
            let old = s.den;
            s.den = new_den;
            (
                s.root,
                old,
                matches!(s.phase, StreamPhase::Active | StreamPhase::Degraded),
            )
        };
        if !serving {
            return;
        }
        let phase = if new_den > 1 {
            StreamPhase::Degraded
        } else {
            StreamPhase::Active
        };
        self.transition(sid, phase, now);
        if let Some(chaos) = self.chaos.as_mut() {
            let tracker = chaos.trackers.entry(root).or_default();
            if old_den == 1 && new_den > 1 {
                tracker.degrade_begins(now);
            } else if old_den > 1 && new_den == 1 {
                tracker.degrade_ends(now);
            }
        }
    }

    /// The node hosting `tpu`.
    fn tpu_host(&self, tpu: TpuId) -> Option<NodeId> {
        self.sched
            .pool()
            .accounts()
            .iter()
            .find(|a| a.id() == tpu)
            .map(|a| a.node())
    }

    /// Whether chaos bookkeeping currently marks `node` as down.
    fn node_down(&self, node: NodeId) -> bool {
        self.chaos.as_ref().is_some_and(|c| {
            c.nodes
                .get(node.index())
                .is_some_and(|n| n.down_since.is_some())
        })
    }

    /// Processes all events up to and including `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((now, ev)) = self.queue.pop_due(until) {
            self.dispatch(now, ev);
        }
    }

    /// Schedules a control-plane command to fire at `at` — the delivery
    /// half of the cross-shard command mailbox, also usable directly to
    /// script mid-run admissions/removals/faults.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_command(&mut self, at: SimTime, cmd: WorldCommand) {
        self.queue.schedule_at(at, Ev::Command(cmd));
    }

    /// Drains the cross-shard outbox: every completion an export-flagged
    /// stream recorded since the previous call, in completion-record order.
    pub fn take_outbox(&mut self) -> Vec<FrameExport> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains the whole-cluster-failure outbox: every stream displaced by
    /// [`WorldCommand::Evacuate`] since the previous call, in stream-id
    /// order. The fleet front door re-places these on surviving clusters.
    pub fn take_evacuations(&mut self) -> Vec<EvacuatedStream> {
        std::mem::take(&mut self.evacuations)
    }

    /// Removes every live or parked stream, capturing each as an
    /// [`EvacuatedStream`] — the whole-cluster-failure path. Fired by
    /// [`WorldCommand::Evacuate`]; streams are visited in id order, so the
    /// evacuation list is deterministic.
    pub fn evacuate_all(&mut self, now: SimTime) {
        let ids: Vec<StreamId> = self
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase.is_live() || s.phase == StreamPhase::Parked)
            .map(|(i, _)| StreamId::from_index(i))
            .collect();
        for id in ids {
            let spec = self.streams[id.index()].spec.clone();
            if self.remove_stream(id).is_ok() {
                self.evacuations.push(EvacuatedStream {
                    stream: id,
                    fault_at: now,
                    spec,
                });
            }
        }
    }

    /// Estimates a spec's TPU demand the way admission will charge it —
    /// explicit per-stage units where given, otherwise the profiling
    /// service's duty-cycle derivation — for the fleet front door's
    /// placement decision. This world acts as the profiling service; no
    /// state is touched.
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownModel`] if a stage's model is not in the
    /// catalog (the admission it predicts would fail the same way).
    pub fn estimate_demand(
        &self,
        spec: &StreamSpec,
    ) -> Result<crate::fleet::StreamDemand, DeployError> {
        let mut stages = Vec::with_capacity(spec.stages.len());
        for stage in &spec.stages {
            let units = match stage.units {
                Some(units) => units,
                None => {
                    let profile = self
                        .sched
                        .catalog()
                        .get(&stage.model)
                        .ok_or_else(|| DeployError::UnknownModel(stage.model.clone()))?;
                    self.dp.profiled_units(profile, spec.fps)
                }
            };
            stages.push(units);
        }
        Ok(crate::fleet::StreamDemand::from_stages(stages))
    }

    /// Delivers a peer shard's [`FrameExport`] at `at`: the receiving side
    /// records the announced end-to-end `latency` into its remote-ingest
    /// sketch when the event fires.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_ingest(&mut self, at: SimTime, latency: SimDuration) {
        self.queue.schedule_at(at, Ev::Ingest(latency));
    }

    /// Number of events still pending in the queue (the sharded replay's
    /// global-drain test).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Aligns the clock to an epoch barrier without delivering anything;
    /// see [`EventQueue::advance_to`].
    ///
    /// # Panics
    ///
    /// Panics if an event at or before `barrier` is still pending — call
    /// [`World::run_until`]`(barrier)` first.
    pub fn advance_to(&mut self, barrier: SimTime) {
        self.queue.advance_to(barrier);
    }

    /// Runs until the event queue drains or `deadline` is reached, then
    /// finalises. Convenient for frame-limited runs.
    #[must_use]
    pub fn run_to_completion(mut self, deadline: SimTime) -> RunResults {
        self.run_until(deadline);
        let end = self.queue.now().max(SimTime::from_nanos(1));
        self.finish(end)
    }

    /// Finalises the run at `end`, producing every metric.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last processed event.
    #[must_use]
    pub fn finish(self, end: SimTime) -> RunResults {
        // One pass that takes every stream apart: names move into their
        // reports, latencies and phases move into the stream column.
        let column = self
            .streams
            .into_iter()
            .map(|s| StreamOutcome {
                report: s.audit.report(s.spec.name, end),
                latency: s.latency,
                phase: s.phase,
            })
            .collect();
        let mut results = RunResults {
            streams: vec![column],
            average_utilization: self.fleet.average_utilization(end),
            per_device_utilization: self.fleet.per_device_utilization(end),
            windowed_utilization: self.fleet.into_windowed_average(end),
            breakdowns: self.breakdowns,
            device_stats: self.services.iter().map(|s| s.device.stats()).collect(),
            max_queue_depths: self.services.iter().map(|s| s.max_depth).collect(),
            used_tpus: self.sched.pool().used_tpus(),
            frames_dropped: self.frames_dropped,
            events_processed: self.queue.events_processed(),
            end,
            recovery: RecoveryRecorder::new(),
            availability: BTreeMap::new(),
            lineage: self.lineage,
            remote_ingest: self.ingest,
            commands_failed: self.commands_failed,
            defrag: self.defrag.map_or_else(DefragStats::default, |d| d.stats),
        };
        if let Some(chaos) = self.chaos {
            let chaos = *chaos;
            results.recovery = chaos.recorder;
            for (root, tracker) in chaos.trackers {
                // A lineage counts as lost only when its final incarnation
                // ended the run lost (parked streams were still pending
                // recovery).
                let tail = results.incarnations(root).fold(root, |_, id| id);
                let lost = results.stream_phase(tail) == Some(StreamPhase::Lost);
                results.availability.insert(root, tracker.finish(end, lost));
            }
        }
        results
    }

    /// Cameras-served step series finaliser (Fig. 6b): per-window average
    /// number of active streams up to `end`, alongside the run results.
    /// Consumes the world.
    #[must_use]
    pub fn finish_with_served_series(self, end: SimTime) -> (RunResults, Vec<f64>) {
        let served = self.served.clone().finish(end);
        (self.finish(end), served)
    }

    /// Loads the co-compiled plan of `tpu`'s live models into its device.
    ///
    /// A device's resident plan is always `CoCompiler::plan` of the
    /// catalog profiles of its own model list: installed here, or by
    /// `TpuDevice::invoke`'s single-model swap, which plans the stream's
    /// interned catalog profile with the same spec. So when that list
    /// already equals the live list, re-planning would install the plan
    /// the device holds, and the call is skipped. Lazily reclaimed models
    /// keep a dead entry in the pool, not a live one, so a removal that
    /// drops a model still changes the list and re-plans.
    fn sync_device(&mut self, tpu: TpuId) {
        let account = self.sched.pool().account(tpu);
        let device = &mut self.services[tpu.index()].device;
        let resident = device.resident().allocations().iter();
        if account
            .live_model_ids()
            .eq(resident.map(CacheAllocation::model))
        {
            return;
        }
        let catalog = self.sched.catalog();
        let profiles: Vec<ModelProfile> = account
            .live_model_ids()
            .map(|m| catalog.expect(m).clone())
            .collect();
        let plan = CoCompiler::new(device.spec())
            .plan(&profiles)
            .expect("resident models are distinct");
        device.load_plan(plan);
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Frame(id) => self.on_frame(now, id),
            Ev::Arrive(tpu, inflight) => self.on_arrive(now, tpu, inflight),
            Ev::Done(tpu) => self.on_done(now, tpu),
            Ev::Fault(kind) => self.on_fault(now, kind),
            Ev::Detect { kind, epoch } => self.on_detect(now, kind, epoch),
            Ev::SwapIn {
                stream,
                seq,
                breakdown,
                restarted,
            } => self.on_swap_in(now, stream, seq, breakdown, restarted),
            Ev::Reconcile => self.on_reconcile(now),
            Ev::Command(cmd) => self.on_command(now, cmd),
            Ev::Ingest(latency) => self.ingest.record_duration(latency),
        }
    }

    /// Applies a scheduled control-plane command. Failures (admission
    /// rejected, unknown stream) are counted, not propagated: by the time a
    /// command fires, its originator is long gone.
    fn on_command(&mut self, now: SimTime, cmd: WorldCommand) {
        let outcome = match cmd {
            WorldCommand::Admit(spec) => self.admit_stream(*spec).map(|_| ()),
            WorldCommand::Remove(id) => self.remove_stream(id),
            WorldCommand::Fault(kind) => {
                self.on_fault(now, kind);
                Ok(())
            }
            WorldCommand::Evacuate => {
                self.evacuate_all(now);
                Ok(())
            }
        };
        if outcome.is_err() {
            self.commands_failed += 1;
        }
    }

    fn on_frame(&mut self, now: SimTime, id: StreamId) {
        let Some(stream) = self.streams.get_mut(id.index()) else {
            return;
        };
        if !stream.active {
            stream.emission_alive = false;
            return;
        }
        if stream.phase == StreamPhase::Interrupted {
            // The placement is down (detected or not): the frame drops at
            // the client without reaching any TPU.
            stream.emitted += 1;
            self.frames_dropped += 1;
            if stream
                .frame_limit
                .is_none_or(|limit| stream.emitted < limit)
            {
                let interval = stream.interval * u64::from(stream.den);
                self.queue.schedule_after(interval, Ev::Frame(id));
            } else {
                stream.emission_alive = false;
            }
            return;
        }
        stream.audit.frame_emitted(now);
        stream.emitted += 1;
        let pre = stream.preprocess;
        let filtered = stream
            .filter
            .as_mut()
            .is_some_and(|f| !f.rng.chance(f.pass_rate));
        if filtered {
            // The difference detector discards the frame client-side after
            // pre-processing; it never reaches a TPU, so its completion
            // instant is already known.
            stream.audit.frame_completed(now + pre);
            let more = stream
                .frame_limit
                .is_none_or(|limit| stream.emitted < limit);
            if more {
                let interval = stream.interval * u64::from(stream.den);
                self.queue.schedule_after(interval, Ev::Frame(id));
            } else {
                stream.emission_alive = false;
            }
            return;
        }
        let tpu = stream.stages[0].lbs.next();
        let trans = if stream.collocated {
            SimDuration::ZERO
        } else {
            stream.stages[0].transfer
        };
        let inflight = InFlight {
            stream: id,
            stage: 0,
            trans_acc: trans,
            infer_acc: SimDuration::ZERO,
            arrived: now, // overwritten on arrival
        };
        self.queue
            .schedule_at(now + pre + trans, Ev::Arrive(tpu, inflight));
        let more = stream
            .frame_limit
            .is_none_or(|limit| stream.emitted < limit);
        if more {
            let interval = stream.interval * u64::from(stream.den);
            self.queue.schedule_after(interval, Ev::Frame(id));
        } else {
            stream.emission_alive = false;
        }
    }

    fn on_arrive(&mut self, now: SimTime, tpu: TpuId, mut inflight: InFlight) {
        let svc = &mut self.services[tpu.index()];
        if !svc.alive {
            self.frames_dropped += 1;
            return;
        }
        inflight.arrived = now;
        svc.queue.push_back(inflight);
        let depth = svc.queue.len() + usize::from(svc.current.is_some());
        svc.max_depth = svc.max_depth.max(depth);
        if svc.current.is_none() {
            self.start_next(now, tpu);
        }
    }

    fn start_next(&mut self, now: SimTime, tpu: TpuId) {
        let svc = &mut self.services[tpu.index()];
        let Some(inflight) = svc.queue.pop_front() else {
            return;
        };
        let profile =
            &self.streams[inflight.stream.index()].stages[stage_index(inflight.stage)].profile;
        let busy = svc.device.invoke(profile).busy() + self.dp.invoke_overhead;
        svc.current = Some(inflight);
        self.fleet.tracker_mut(tpu.index()).begin_busy(now);
        self.queue.schedule_at(now + busy, Ev::Done(tpu));
    }

    fn on_done(&mut self, now: SimTime, tpu: TpuId) {
        let inflight = {
            let svc = &mut self.services[tpu.index()];
            if !svc.alive {
                return;
            }
            svc.current
                .take()
                .expect("Done event without an executing request")
        };
        self.fleet.tracker_mut(tpu.index()).end_busy(now);
        let mut inflight = inflight;
        inflight.infer_acc += now.saturating_since(inflight.arrived);
        let next_stage = inflight.stage + 1;
        let stream = self
            .streams
            .get_mut(inflight.stream.index())
            .expect("in-flight frames belong to known streams");
        if let Some(stage) = stream.stages.get_mut(stage_index(next_stage)) {
            // Forward to the next pipeline stage. A hop to the same TPU is
            // free (same host); otherwise the next stage's input crosses
            // the network.
            let next_tpu = stage.lbs.next();
            let local_hop = next_tpu == tpu && self.dp.pipeline_local_hop;
            let trans = if local_hop || stream.collocated {
                SimDuration::ZERO
            } else {
                stage.transfer
            };
            inflight.stage = next_stage;
            inflight.trans_acc += trans;
            self.queue
                .schedule_at(now + trans, Ev::Arrive(next_tpu, inflight));
        } else {
            let breakdown = LatencyBreakdown::new(
                stream.preprocess,
                inflight.trans_acc,
                inflight.infer_acc,
                self.dp.postprocess,
            );
            // The frame leaves the pipeline after client-side
            // post-processing, whose duration is fixed — record the
            // completion now with its future timestamp.
            stream.audit.frame_completed(now + self.dp.postprocess);
            stream.latency.record_duration(breakdown.total());
            if stream.spec.export {
                self.outbox.push(FrameExport {
                    at: now + self.dp.postprocess,
                    stream: inflight.stream,
                    latency: breakdown.total(),
                });
            }
            self.breakdowns.record(&breakdown);
        }
        self.start_next(now, tpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microedge_cluster::topology::ClusterBuilder;
    use microedge_metrics::latency::Phase;

    fn world(trpis: u32, features: Features) -> World {
        let cluster = ClusterBuilder::new().trpis(trpis).vrpis(4).build();
        World::new(cluster, features)
    }

    fn coral_pie(name: &str, frames: u64) -> StreamSpec {
        StreamSpec::builder(name, "ssd-mobilenet-v2")
            .frame_limit(frames)
            .build()
    }

    #[test]
    fn kernel_event_stays_within_48_bytes() {
        // The queue stages each event with a 16-byte `(time, seq)` key, so
        // 48 bytes keep one scheduled event on one 64-byte cache line. A
        // new or grown variant that breaks this belongs behind a `Box`.
        assert!(
            std::mem::size_of::<Ev>() <= 48,
            "Ev is {} bytes",
            std::mem::size_of::<Ev>()
        );
    }

    #[test]
    fn single_stream_meets_slo() {
        let mut w = world(1, Features::all());
        let cam = w.admit_stream(coral_pie("cam", 150)).unwrap();
        let results = w.run_to_completion(SimTime::from_secs(60));
        let report = results.report(cam).unwrap();
        assert_eq!(report.emitted(), 150);
        assert_eq!(report.completed(), 150);
        assert!(report.met_fps(), "achieved {}", report.achieved_fps());
    }

    #[test]
    fn result_lookups_of_unknown_ids_return_none() {
        let run = || {
            let mut w = world(1, Features::all());
            w.admit_stream(coral_pie("cam", 30)).unwrap();
            w.run_to_completion(SimTime::from_secs(10))
        };
        let unsharded = run();
        let merged = RunResults::merge_shards(vec![run(), run()]);
        for (results, shards) in [(&unsharded, 1), (&merged, 2)] {
            let last = StreamId(0).with_shard(shards - 1);
            assert!(results.report(last).is_some());
            assert!(results.latency(last).is_some());
            assert!(results.stream_phase(last).is_some());
            let unknown_shard = StreamId(0).with_shard(shards);
            let out_of_range_local = StreamId(1).with_shard(0);
            for id in [unknown_shard, out_of_range_local, StreamId(u64::MAX)] {
                assert!(results.report(id).is_none(), "{id}");
                assert!(results.latency(id).is_none(), "{id}");
                assert!(results.stream_phase(id).is_none(), "{id}");
            }
        }
    }

    #[test]
    fn utilization_matches_tpu_units() {
        let mut w = world(1, Features::all());
        w.admit_stream(coral_pie("cam", 300)).unwrap();
        let results = w.run_to_completion(SimTime::from_secs(60));
        // One 0.35-unit stream on one TPU → ≈ 35 % utilization.
        assert!(
            (results.average_utilization() - 0.35).abs() < 0.02,
            "got {}",
            results.average_utilization()
        );
    }

    #[test]
    fn two_streams_share_one_tpu() {
        let mut w = world(1, Features::all());
        let a = w.admit_stream(coral_pie("a", 300)).unwrap();
        let b = w
            .admit_stream(
                StreamSpec::builder("b", "ssd-mobilenet-v2")
                    .frame_limit(300)
                    .start_offset(SimDuration::from_millis(33))
                    .build(),
            )
            .unwrap();
        let results = w.run_to_completion(SimTime::from_secs(60));
        assert!(results.report(a).unwrap().met_fps());
        assert!(results.report(b).unwrap().met_fps());
        assert!((results.average_utilization() - 0.70).abs() < 0.03);
    }

    #[test]
    fn breakdown_reproduces_fig7b_shape() {
        let mut w = world(1, Features::all());
        w.admit_stream(coral_pie("cam", 100)).unwrap();
        let results = w.run_to_completion(SimTime::from_secs(30));
        let b = results.breakdowns();
        assert_eq!(b.mean_ms(Phase::PreProcess), 5.0);
        assert!((b.mean_ms(Phase::Transmission) - 8.0).abs() < 0.2);
        // Inference phase = TPU occupancy (no queueing for one stream).
        assert!((b.mean_ms(Phase::Inference) - 23.33).abs() < 0.1);
        assert_eq!(b.mean_ms(Phase::PostProcess), 3.0);
    }

    #[test]
    fn collocated_baseline_has_no_transmission() {
        let mut w = world(1, Features::all());
        w.admit_stream(
            StreamSpec::builder("cam", "ssd-mobilenet-v2")
                .frame_limit(50)
                .collocated(true)
                .build(),
        )
        .unwrap();
        let results = w.run_to_completion(SimTime::from_secs(30));
        assert_eq!(results.breakdowns().mean_ms(Phase::Transmission), 0.0);
    }

    #[test]
    fn partitioned_stream_uses_both_tpus() {
        let mut w = world(2, Features::all());
        let cam = w
            .admit_stream(
                StreamSpec::builder("seg", "bodypix-mobilenet-v1")
                    .frame_limit(150)
                    .build(),
            )
            .unwrap();
        let results = w.run_to_completion(SimTime::from_secs(60));
        assert!(results.report(cam).unwrap().met_fps());
        let per = results.per_device_utilization();
        assert!(per[0] > 0.5, "TPU 0 carries most load: {per:?}");
        assert!(per[1] > 0.05, "TPU 1 carries the overflow: {per:?}");
    }

    #[test]
    fn stream_removal_frees_units_for_new_streams() {
        let mut w = world(1, Features::all());
        let a = w.admit_stream(coral_pie("a", 1_000_000)).unwrap();
        let b = w.admit_stream(coral_pie("b", 1_000_000)).unwrap();
        // Pool is at 0.70; a third stream does not fit.
        assert!(w.admit_stream(coral_pie("c", 10)).is_err());
        w.run_until(SimTime::from_secs(5));
        w.remove_stream(a).unwrap();
        let c = w.admit_stream(coral_pie("c", 50)).unwrap();
        w.run_until(SimTime::from_secs(20));
        let results = w.finish(SimTime::from_secs(20));
        assert!(results.report(c).unwrap().met_fps());
        assert!(results.report(b).unwrap().met_fps());
    }

    #[test]
    fn remove_stream_twice_errors() {
        let mut w = world(1, Features::all());
        let a = w.admit_stream(coral_pie("a", 10)).unwrap();
        w.remove_stream(a).unwrap();
        assert!(w.remove_stream(a).is_err());
    }

    #[test]
    fn tpu_failure_recovers_streams_onto_survivors() {
        let mut w = world(2, Features::all());
        let cam = w.admit_stream(coral_pie("cam", 1_000_000)).unwrap();
        w.run_until(SimTime::from_secs(2));
        let pod = w.pod_of(cam).unwrap();
        let tpu = w.scheduler().assignment(pod).unwrap()[0].tpu();
        let lost = w.fail_tpu(tpu);
        assert!(lost.is_empty(), "stream should be re-placed");
        w.run_until(SimTime::from_secs(6));
        let results = w.finish(SimTime::from_secs(6));
        // Some frames may have been dropped at the failure instant, but the
        // stream keeps flowing on the surviving TPU.
        let report = results.report(cam).unwrap();
        assert!(report.completed() > 80, "completed {}", report.completed());
    }

    #[test]
    fn tpu_failure_without_spare_capacity_loses_stream() {
        let mut w = world(1, Features::all());
        let cam = w.admit_stream(coral_pie("cam", 1_000_000)).unwrap();
        w.run_until(SimTime::from_secs(1));
        let lost = w.fail_tpu(TpuId(0));
        assert_eq!(lost, vec![cam]);
        assert_eq!(w.active_streams(), 0);
    }

    #[test]
    fn served_series_tracks_arrivals_and_departures() {
        let mut w = world(2, Features::all());
        let a = w.admit_stream(coral_pie("a", 1_000_000)).unwrap();
        w.run_until(SimTime::from_secs(120));
        w.remove_stream(a).unwrap();
        w.run_until(SimTime::from_secs(179));
        let (_, served) = w.finish_with_served_series(SimTime::from_secs(180));
        assert_eq!(served.len(), 3);
        assert!((served[0] - 1.0).abs() < 1e-9);
        // Removal happens at the last event before t=120 s, a hair inside
        // the second window.
        assert!(served[1] > 0.99, "got {}", served[1]);
        assert!(served[2] < 0.01);
    }

    #[test]
    fn stream_spec_accessors() {
        let s = StreamSpec::builder("cam", "unet-v2").fps(10.0).build();
        assert_eq!(s.name(), "cam");
        assert_eq!(s.model().as_str(), "unet-v2");
        assert_eq!(s.fps(), 10.0);
        assert_eq!(StreamId(3).to_string(), "stream-3");
    }

    #[test]
    fn unknown_model_rejected_at_admission() {
        let mut w = world(1, Features::all());
        let err = w
            .admit_stream(StreamSpec::builder("x", "nope").build())
            .unwrap_err();
        assert!(matches!(err, DeployError::UnknownModel(_)));
    }

    // --- multi-model pipelines (paper §8 extension) ---

    // UNet (2.3 MiB) then MobileNet V1 (3.5 MiB): the pair co-fits one
    // TPU's parameter budget, unlike SSD-based pipelines.
    fn segment_then_classify(name: &str, frames: u64) -> StreamSpec {
        StreamSpec::builder(name, "unet-v2")
            .then("mobilenet-v1")
            .frame_limit(frames)
            .build()
    }

    #[test]
    fn pipeline_stream_runs_both_stages_per_frame() {
        let mut w = world(1, Features::all());
        let cam = w.admit_stream(segment_then_classify("pipe", 100)).unwrap();
        let results = w.run_to_completion(SimTime::from_secs(30));
        let report = results.report(cam).unwrap();
        assert_eq!(report.completed(), 100);
        assert!(report.met_fps(), "achieved {}", report.achieved_fps());
        // Every frame ran two inferences on the single TPU.
        assert_eq!(results.device_stats()[0].invocations(), 200);
        // Utilization ≈ (0.675 + 0.215) on one TPU.
        assert!(
            (results.average_utilization() - 0.89).abs() < 0.02,
            "got {}",
            results.average_utilization()
        );
    }

    #[test]
    fn pipeline_same_tpu_hop_is_free() {
        // One TPU: both stages must land on it, so the inter-stage hop is
        // local and transmission equals a single-stage stream's.
        let mut w = world(1, Features::all());
        w.admit_stream(segment_then_classify("pipe", 80)).unwrap();
        let results = w.run_to_completion(SimTime::from_secs(30));
        // UNet's 256×256 input costs ≈ 6.1 ms for its single network hop.
        let trans = results.breakdowns().mean_ms(Phase::Transmission);
        assert!((trans - 6.1).abs() < 0.2, "single hop only, got {trans}");
        // The inference phase is the sum of both stage occupancies
        // (45 ms + 14.33 ms).
        let infer = results.breakdowns().mean_ms(Phase::Inference);
        assert!((infer - (45.0 + 14.33)).abs() < 0.5, "got {infer}");
    }

    #[test]
    fn pipeline_spec_accessors() {
        let s = segment_then_classify("p", 1);
        assert_eq!(
            s.stage_models()
                .iter()
                .map(|m| m.as_str())
                .collect::<Vec<_>>(),
            vec!["unet-v2", "mobilenet-v1"]
        );
    }

    #[test]
    fn pipeline_stream_removal_frees_all_stage_units() {
        let mut w = world(1, Features::all());
        let cam = w
            .admit_stream(segment_then_classify("pipe", 1_000_000))
            .unwrap();
        w.run_until(SimTime::from_secs(1));
        w.remove_stream(cam).unwrap();
        assert_eq!(w.scheduler().pool().total_free_units(), TpuUnits::ONE);
    }

    // --- NoScope-style difference detector (paper §1) ---

    #[test]
    fn frame_filter_reduces_tpu_utilization() {
        // Coral-Pie behind a 2/3-pass difference detector: the paper's §1
        // observation that utilization drops from ~30 % to ~20 %.
        let mut w = world(1, Features::all());
        let cam = w
            .admit_stream(
                StreamSpec::builder("cam", "ssd-mobilenet-v2")
                    .units(TpuUnits::from_f64(0.235))
                    .frame_filter(2.0 / 3.0, 7)
                    .frame_limit(900)
                    .build(),
            )
            .unwrap();
        let results = w.run_to_completion(SimTime::from_secs(90));
        let util = results.average_utilization();
        assert!(
            (util - 0.35 * 2.0 / 3.0).abs() < 0.02,
            "expected ≈ 0.233, got {util}"
        );
        // Every frame still completes (filtered ones finish client-side).
        let report = results.report(cam).unwrap();
        assert_eq!(report.completed(), 900);
        assert!(report.met_fps());
    }

    #[test]
    fn frame_filter_with_full_pass_rate_is_transparent() {
        let mut w = world(1, Features::all());
        w.admit_stream(
            StreamSpec::builder("cam", "ssd-mobilenet-v2")
                .frame_filter(1.0, 3)
                .frame_limit(100)
                .build(),
        )
        .unwrap();
        let results = w.run_to_completion(SimTime::from_secs(30));
        assert!((results.average_utilization() - 0.35).abs() < 0.02);
        assert_eq!(results.device_stats()[0].invocations(), 100);
    }

    #[test]
    fn filtered_frames_skip_the_breakdown_statistics() {
        let mut w = world(1, Features::all());
        w.admit_stream(
            StreamSpec::builder("cam", "ssd-mobilenet-v2")
                .units(TpuUnits::from_f64(0.2))
                .frame_filter(0.5, 11)
                .frame_limit(200)
                .build(),
        )
        .unwrap();
        let results = w.run_to_completion(SimTime::from_secs(60));
        let recorded = results.breakdowns().count();
        let invoked = results.device_stats()[0].invocations();
        assert_eq!(recorded, invoked, "only TPU-served frames are recorded");
        assert!(invoked < 200, "the filter must drop some frames");
        // Mean transmission still reflects full frames, not diluted zeros.
        use microedge_metrics::latency::Phase;
        assert!((results.breakdowns().mean_ms(Phase::Transmission) - 8.0).abs() < 0.2);
    }

    #[test]
    fn source_resolution_scales_preprocessing() {
        use crate::client::SourceResolution;
        let mut w = world(1, Features::all());
        w.admit_stream(
            StreamSpec::builder("vga-cam", "ssd-mobilenet-v2")
                .source_resolution(SourceResolution::new(640, 480))
                .frame_limit(50)
                .build(),
        )
        .unwrap();
        let results = w.run_to_completion(SimTime::from_secs(30));
        let pre = results.breakdowns().mean_ms(Phase::PreProcess);
        // 640×480 walks far fewer pixels than 1080p: ≈ 1.5 + 0.52 ms.
        assert!((pre - 2.02).abs() < 0.05, "got {pre}");
    }

    #[test]
    fn crashed_pod_units_return_only_after_reclamation_poll() {
        let mut w = world(1, Features::all());
        let cam = w.admit_stream(coral_pie("cam", 1_000_000)).unwrap();
        w.run_until(SimTime::from_secs(2));
        let pod = w.pod_of(cam).unwrap();
        w.crash_stream(cam).unwrap();
        // Units still held — the scheduler has not noticed the crash.
        assert_eq!(
            w.scheduler().pool().total_free_units(),
            TpuUnits::ONE - TpuUnits::from_f64(0.35)
        );
        assert!(
            w.admit_stream(coral_pie("replacement", 10)).is_ok(),
            "0.65 free still fits a 0.35 camera"
        );
        assert!(
            w.admit_stream(coral_pie("third", 10)).is_err(),
            "0.30 free does not fit another"
        );
        // The reclamation poll notices the crash and frees the units.
        assert_eq!(w.poll_reclamation(), vec![pod]);
        assert!(w.admit_stream(coral_pie("third", 10)).is_ok());
    }

    #[test]
    fn per_stream_latency_statistics() {
        let mut w = world(1, Features::all());
        let cam = w.admit_stream(coral_pie("cam", 100)).unwrap();
        let results = w.run_to_completion(SimTime::from_secs(30));
        let latency = results.latency(cam).unwrap();
        assert_eq!(latency.count(), 100);
        // One uncontended camera: every frame costs exactly the Fig. 7b
        // total (≈ 39.3 ms).
        assert!((latency.mean() - 39.33).abs() < 0.1, "{}", latency.mean());
        assert!(latency.max().unwrap() < 40.0);
        // Within one frame interval — the latency SLO holds trivially.
        assert!(results.all_within_latency(SimDuration::from_millis_f64(1000.0 / 15.0)));
        assert!(!results.all_within_latency(SimDuration::from_millis(20)));
    }

    #[test]
    fn lost_streams_can_be_restarted_when_capacity_returns() {
        let mut w = world(1, Features::all());
        let a = w.admit_stream(coral_pie("a", 1_000_000)).unwrap();
        let b = w.admit_stream(coral_pie("b", 1_000_000)).unwrap();
        w.run_until(SimTime::from_secs(2));
        // `a` crashes; before reclamation the restart cannot fit.
        w.crash_stream(a).unwrap();
        assert!(matches!(
            w.restart_stream(a),
            Err(DeployError::InsufficientTpu)
        ));
        w.poll_reclamation();
        let a2 = w.restart_stream(a).unwrap();
        assert_ne!(a2, a, "restart is a fresh stream id");
        assert_eq!(w.active_streams(), 2);
        // Restarting an active stream is refused.
        assert!(w.restart_stream(b).is_err());
        w.run_until(SimTime::from_secs(6));
        let results = w.finish(SimTime::from_secs(6));
        assert!(results.report(a2).unwrap().met_fps());
    }

    #[test]
    fn admitted_load_keeps_queues_shallow() {
        // At exactly 1.0 declared and true load the backlog stays bounded
        // by the number of co-resident streams.
        let mut w = world(1, Features::all());
        for i in 0..2 {
            w.admit_stream(
                StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                    .frame_limit(600)
                    .start_offset(SimDuration::from_millis(i * 29))
                    .build(),
            )
            .unwrap();
        }
        let results = w.run_to_completion(SimTime::from_secs(60));
        assert!(results.all_met_fps());
        assert!(
            results.max_queue_depths()[0] <= 3,
            "bounded backlog, got {:?}",
            results.max_queue_depths()
        );
    }

    #[test]
    fn understated_units_build_queues_and_violate_the_slo() {
        // The system trusts declared TPU units (paper §2: the input rate is
        // provided by the developer or profiled up front). A pod that lies —
        // declaring 0.2 units while actually generating 0.35 of work — gets
        // admitted five-to-a-TPU and drives it past saturation: the backlog
        // grows with run length and every stream misses 15 FPS.
        let mut w = world(1, Features::all());
        let mut cams = Vec::new();
        for i in 0..5 {
            cams.push(
                w.admit_stream(
                    StreamSpec::builder(&format!("liar-{i}"), "ssd-mobilenet-v2")
                        .units(TpuUnits::from_f64(0.2))
                        .frame_limit(900)
                        .start_offset(SimDuration::from_millis(i * 13))
                        .build(),
                )
                .unwrap(),
            );
        }
        let results = w.run_to_completion(SimTime::from_secs(300));
        // True demand 5 × 0.35 = 1.75 on one TPU: completions cap at ~57 %.
        for cam in cams {
            assert!(
                !results.report(cam).unwrap().met_fps(),
                "an oversubscribed TPU cannot hold the SLO"
            );
        }
        assert!(
            results.max_queue_depths()[0] > 20,
            "backlog grows without bound, got {:?}",
            results.max_queue_depths()
        );
        assert!(results.average_utilization() > 0.99);
    }

    #[test]
    fn drain_migrates_live_streams_with_zero_frame_loss() {
        let mut w = world(2, Features::all());
        let mut cams = Vec::new();
        for i in 0..2 {
            cams.push(
                w.admit_stream(
                    StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                        .frame_limit(300)
                        .start_offset(SimDuration::from_millis(i * 29))
                        .build(),
                )
                .unwrap(),
            );
        }
        // Both cameras share TPU 0; TPU 1 is empty.
        assert_eq!(
            w.scheduler().pool().account(TpuId(0)).load(),
            TpuUnits::from_f64(0.7)
        );
        w.run_until(SimTime::from_secs(5));
        let migrated = w.drain_tpu(TpuId(0)).unwrap();
        assert_eq!(migrated.len(), 2);
        let results = w.run_to_completion(SimTime::from_secs(60));
        assert_eq!(results.frames_dropped(), 0, "maintenance loses nothing");
        for cam in cams {
            let r = results.report(cam).unwrap();
            assert_eq!(r.completed(), 300);
            assert!(r.met_fps());
        }
    }

    #[test]
    fn drain_rejects_when_fleet_cannot_absorb() {
        let mut w = world(1, Features::all());
        w.admit_stream(coral_pie("cam", 100)).unwrap();
        assert!(matches!(
            w.drain_tpu(TpuId(0)),
            Err(DeployError::InsufficientTpu)
        ));
        // Still schedulable and still running.
        assert_eq!(w.active_streams(), 1);
        let results = w.run_to_completion(SimTime::from_secs(30));
        assert!(results.all_met_fps());
    }

    #[test]
    fn run_summary_renders_per_stream_rows() {
        let mut w = world(1, Features::all());
        w.admit_stream(coral_pie("report-cam", 50)).unwrap();
        let results = w.run_to_completion(SimTime::from_secs(30));
        let text = results.render_summary();
        assert!(text.contains("report-cam"));
        assert!(text.contains("met"));
        assert!(text.contains("avg TPU utilization"));
        assert!(text.contains("0 frames dropped"));
    }

    // ------------------------------------------------------------------
    // Chaos mode
    // ------------------------------------------------------------------

    use crate::faults::{ChaosConfig, FaultEvent, FaultKind, FaultSchedule};
    use crate::pool::Allocation;

    /// Endless stream (no frame limit) — chaos runs end at the horizon.
    fn cam(name: &str) -> StreamSpec {
        StreamSpec::builder(name, "ssd-mobilenet-v2").build()
    }

    fn scripted(events: Vec<(u64, FaultKind)>) -> FaultSchedule {
        FaultSchedule::scripted(
            events
                .into_iter()
                .map(|(secs, kind)| FaultEvent {
                    at: SimTime::from_secs(secs),
                    kind,
                })
                .collect(),
        )
    }

    #[test]
    fn chaos_fault_is_detected_only_after_the_lease_expires() {
        let mut w = world(2, Features::all());
        let cam0 = w.admit_stream(cam("cam-0")).unwrap();
        w.enable_chaos(ChaosConfig::heal_only());
        w.inject_faults(&scripted(vec![(10, FaultKind::TpuFail(TpuId(0)))]));
        // Fault at 10 s; k3s default lease expires at 14 s. In between the
        // stream is interrupted but not yet recovered.
        w.run_until(SimTime::from_secs(12));
        assert_eq!(w.stream_phase(cam0), Some(StreamPhase::Interrupted));
        let results = w.run_to_completion(SimTime::from_secs(60));
        assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
        assert_eq!(results.recovery().count(), 1);
        let detection = results
            .recovery()
            .mean_ms(microedge_metrics::recovery::RecoveryPhase::Detection);
        assert!(
            (3_999.0..=4_001.0).contains(&detection),
            "detection should be the 4 s lease, got {detection} ms"
        );
        let avail = results.availability(cam0).unwrap();
        assert!(avail.downtime > SimDuration::from_secs(4), "{avail:?}");
        assert_eq!(avail.outages, 1);
        assert!(!avail.lost);
    }

    #[test]
    fn chaos_blip_shorter_than_the_lease_goes_undetected() {
        let mut w = world(2, Features::all());
        let cam0 = w.admit_stream(cam("cam-0")).unwrap();
        w.enable_chaos(ChaosConfig::heal_only());
        w.inject_faults(&scripted(vec![
            (10, FaultKind::TpuFail(TpuId(0))),
            (12, FaultKind::TpuRepair(TpuId(0))),
        ]));
        let results = w.run_to_completion(SimTime::from_secs(60));
        // The control plane never noticed: no recovery was recorded, the
        // placement is intact, and downtime is exactly the blip.
        assert_eq!(results.recovery().count(), 0);
        assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
        let avail = results.availability(cam0).unwrap();
        assert_eq!(avail.downtime, SimDuration::from_secs(2));
        assert_eq!(avail.outages, 1);
    }

    #[test]
    fn chaos_no_heal_loses_displaced_streams_for_good() {
        let mut w = world(1, Features::all());
        let cam0 = w.admit_stream(cam("cam-0")).unwrap();
        w.enable_chaos(ChaosConfig::no_heal());
        w.inject_faults(&scripted(vec![(10, FaultKind::TpuFail(TpuId(0)))]));
        // The queue drains once the stream is lost; finalise at the full
        // horizon so downtime covers the rest of the run.
        w.run_until(SimTime::from_secs(60));
        let results = w.finish(SimTime::from_secs(60));
        assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Lost));
        assert_eq!(results.lost_streams(), vec![cam0]);
        let avail = results.availability(cam0).unwrap();
        assert!(avail.lost);
        // Down from the fault to the end of the run.
        assert_eq!(avail.downtime, SimDuration::from_secs(50));
    }

    #[test]
    fn chaos_heal_parks_until_capacity_returns() {
        let mut w = world(1, Features::all());
        let cam0 = w.admit_stream(cam("cam-0")).unwrap();
        w.enable_chaos(ChaosConfig::heal_only());
        w.inject_faults(&scripted(vec![
            (10, FaultKind::TpuFail(TpuId(0))),
            (30, FaultKind::TpuRepair(TpuId(0))),
        ]));
        w.run_until(SimTime::from_secs(20));
        // The only TPU is gone: the stream waits in the restart queue.
        assert_eq!(w.stream_phase(cam0), Some(StreamPhase::Parked));
        assert_eq!(w.pending_restarts(), vec![cam0]);
        let results = w.run_to_completion(SimTime::from_secs(60));
        assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
        assert!(results.parked_streams().is_empty());
        let avail = results.availability(cam0).unwrap();
        assert_eq!(avail.restarts, 1);
        assert!(!avail.lost);
        assert!(avail.downtime >= SimDuration::from_secs(20));
    }

    #[test]
    fn chaos_degradation_makes_room_on_the_surviving_fleet() {
        // Four 0.35-unit streams over two TPUs (1.40 units). Losing one
        // TPU leaves 1.0 units: impossible at full rate, possible with
        // fairness-tier degradation.
        let mut w = world(2, Features::all());
        let cams: Vec<StreamId> = (0..4)
            .map(|i| w.admit_stream(cam(&format!("cam-{i}"))).unwrap())
            .collect();
        w.enable_chaos(ChaosConfig::heal_degrade());
        w.inject_faults(&scripted(vec![(10, FaultKind::TpuFail(TpuId(0)))]));
        let results = w.run_to_completion(SimTime::from_secs(120));
        assert!(results.lost_streams().is_empty(), "degradation saves all");
        assert!(results.parked_streams().is_empty());
        let degraded = cams
            .iter()
            .filter(|&&c| results.stream_phase(c) == Some(StreamPhase::Degraded))
            .count();
        assert!(degraded >= 2, "someone must run at reduced rate");
        for &c in &cams {
            let phase = results.stream_phase(c).unwrap();
            assert!(
                matches!(phase, StreamPhase::Active | StreamPhase::Degraded),
                "{c} ended {phase}"
            );
        }
    }

    #[test]
    fn chaos_degraded_streams_upgrade_after_repair() {
        let mut w = world(2, Features::all());
        let cams: Vec<StreamId> = (0..4)
            .map(|i| w.admit_stream(cam(&format!("cam-{i}"))).unwrap())
            .collect();
        w.enable_chaos(ChaosConfig::heal_degrade());
        w.inject_faults(&scripted(vec![
            (10, FaultKind::TpuFail(TpuId(0))),
            (60, FaultKind::TpuRepair(TpuId(0))),
        ]));
        let results = w.run_to_completion(SimTime::from_secs(180));
        for &c in &cams {
            assert_eq!(
                results.stream_phase(c),
                Some(StreamPhase::Active),
                "full rate restores after repair"
            );
        }
        for avail in results.availabilities().values() {
            assert!(!avail.lost);
        }
    }

    #[test]
    fn chaos_tpu_failing_mid_swap_does_not_resurrect_the_stream() {
        // cam-0 recovers from TPU 0 onto another TPU; that destination then
        // fails *during* the parameter swap-in. The stale swap-in must not
        // flip the stream live on a dead placement.
        let mut w = world(3, Features::all());
        let cam0 = w.admit_stream(cam("cam-0")).unwrap();
        w.enable_chaos(ChaosConfig::heal_only());
        w.inject_faults(&scripted(vec![(10, FaultKind::TpuFail(TpuId(0)))]));
        // Detection at 14 s; swap-in needs RPCs + parameter streaming.
        w.run_until(SimTime::from_secs(14) + SimDuration::from_millis(50));
        let dest = w
            .scheduler()
            .assignment(w.pod_of(cam0).unwrap())
            .expect("replanned")
            .first()
            .map(Allocation::tpu)
            .unwrap();
        assert_ne!(dest, TpuId(0));
        // Kill the destination before the swap-in event fires.
        w.inject_faults(&FaultSchedule::scripted(vec![FaultEvent {
            at: w.now() + SimDuration::from_millis(1),
            kind: FaultKind::TpuFail(dest),
        }]));
        let results = w.run_to_completion(SimTime::from_secs(120));
        // It must end up serving from the third TPU, after two recoveries.
        assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
        assert_eq!(results.recovery().count(), 1, "only one recovery completed");
        let avail = results.availability(cam0).unwrap();
        assert_eq!(avail.outages, 1, "one continuous outage, not two");
    }

    #[test]
    fn chaos_node_fault_parks_hosted_streams() {
        let mut w = world(2, Features::all());
        let cam0 = w.admit_stream(cam("cam-0")).unwrap();
        let node = w.orchestrator().node_of(w.pod_of(cam0).unwrap()).unwrap();
        w.enable_chaos(ChaosConfig::heal_only());
        w.inject_faults(&scripted(vec![
            (10, FaultKind::NodeFail(node)),
            (40, FaultKind::NodeRepair(node)),
        ]));
        let results = w.run_to_completion(SimTime::from_secs(90));
        // The hosted pod was evicted after the lease; the reconciler
        // re-admitted the stream on surviving capacity.
        assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
        let avail = results.availability(cam0).unwrap();
        assert_eq!(avail.restarts, 1);
        assert!(avail.downtime >= SimDuration::from_secs(4), "{avail:?}");
    }

    #[test]
    fn chaos_link_blip_interrupts_without_control_plane_action() {
        let mut w = world(2, Features::all());
        let cam0 = w.admit_stream(cam("cam-0")).unwrap();
        let node = w.orchestrator().node_of(w.pod_of(cam0).unwrap()).unwrap();
        w.enable_chaos(ChaosConfig::heal_only());
        w.inject_faults(&scripted(vec![
            (10, FaultKind::LinkFail(node)),
            (12, FaultKind::LinkRepair(node)),
        ]));
        let results = w.run_to_completion(SimTime::from_secs(60));
        assert_eq!(results.stream_phase(cam0), Some(StreamPhase::Active));
        assert_eq!(results.recovery().count(), 0, "partition healed in time");
        assert_eq!(
            results.availability(cam0).unwrap().downtime,
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn restart_stream_links_lineage_and_merges_chain_latency() {
        let mut w = world(1, Features::all());
        let old = w.admit_stream(cam("cam-0")).unwrap();
        w.run_until(SimTime::from_secs(10));
        w.crash_stream(old).unwrap();
        w.poll_reclamation();
        let new = w.restart_stream(old).unwrap();
        assert_ne!(old, new);
        assert_eq!(w.stream_root(new), Some(old));
        // The superseded id cannot be restarted again.
        assert!(matches!(
            w.restart_stream(old),
            Err(DeployError::InvalidStreamState(_, _))
        ));
        let results = w.run_to_completion(SimTime::from_secs(30));
        assert_eq!(results.successor(old), Some(new));
        assert_eq!(results.stream_phase(old), Some(StreamPhase::Superseded));
        let merged = results.chain_latency(old).unwrap().count();
        let split = results.latency(old).unwrap().count() + results.latency(new).unwrap().count();
        assert_eq!(merged, split, "chain stats cover both incarnations");
        assert!(results.latency(old).unwrap().count() > 0);
        assert!(results.latency(new).unwrap().count() > 0);
    }

    #[test]
    fn fail_tpu_is_idempotent_and_tolerates_unknown_ids() {
        let mut w = world(1, Features::all());
        w.admit_stream(cam("cam-0")).unwrap();
        assert!(!w.fail_tpu(TpuId(0)).is_empty());
        assert!(w.fail_tpu(TpuId(0)).is_empty(), "second failure is a no-op");
        assert!(w.fail_tpu(TpuId(999)).is_empty(), "unknown id is a no-op");
        assert!(
            w.fail_node(NodeId(9_999)).is_empty(),
            "unknown node is a no-op"
        );
    }

    #[test]
    fn touched_tpus_hold_the_plan_of_their_live_models_after_every_admission() {
        // Pins the no-op skip in `sync_device`. Random admits and removals
        // of mixed models share two TPUs, with frames running in between.
        // Understated units oversubscribe the TPUs, so a removed stream's
        // queued frames still run after the next re-plan and swap their
        // model in through `TpuDevice::invoke`; lazily reclaimed models
        // linger in the pool as dead entries.
        const MODELS: [&str; 5] = [
            "ssd-mobilenet-v2",
            "mobilenet-v1",
            "unet-v2",
            "efficientdet-lite0",
            "resnet-50",
        ];
        let compiler = CoCompiler::new(TpuSpec::coral_usb());
        let mut swaps = 0;
        for seed in 0..8 {
            let mut rng = DetRng::seed_from(seed);
            let mut w = world(2, Features::all());
            let mut live: Vec<StreamId> = Vec::new();
            for step in 0..120 {
                if !live.is_empty() && rng.chance(0.4) {
                    let id = live.swap_remove(rng.index(live.len()));
                    w.remove_stream(id).unwrap();
                } else {
                    let model = MODELS[rng.index(MODELS.len())];
                    let spec = StreamSpec::builder(&format!("cam-{step}"), model)
                        .units(TpuUnits::from_micro(rng.uniform_range(50_000, 300_000)))
                        .build();
                    if let Ok(id) = w.admit_stream(spec) {
                        live.push(id);
                        let pod = w.pod_of(id).unwrap();
                        for alloc in w.scheduler().assignment(pod).unwrap() {
                            let tpu = alloc.tpu();
                            let profiles: Vec<ModelProfile> = w
                                .scheduler()
                                .resident_models(tpu)
                                .iter()
                                .map(|m| w.scheduler().catalog().expect(m).clone())
                                .collect();
                            assert_eq!(
                                w.services[tpu.index()].device.resident(),
                                &compiler.plan(&profiles).unwrap(),
                                "seed {seed}, step {step}: {tpu} is off its live plan"
                            );
                        }
                    }
                }
                let next = w.now() + SimDuration::from_millis(rng.uniform_range(0, 400));
                w.run_until(next);
            }
            swaps += w
                .services
                .iter()
                .map(|s| s.device.stats().swaps())
                .sum::<u64>();
        }
        assert!(swaps > 0, "the sequences must exercise invoke() swaps");
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = || {
            let cluster = ClusterBuilder::new().trpis(3).vrpis(6).build();
            let mut w = World::new(cluster.clone(), Features::all());
            let mut ids = Vec::new();
            for i in 0..5 {
                ids.push(w.admit_stream(cam(&format!("cam-{i}"))).unwrap());
            }
            w.enable_chaos(ChaosConfig::heal_degrade());
            let model = crate::faults::FaultModel {
                tpu: Some(crate::faults::ClassRates::new(
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(20),
                )),
                node: Some(crate::faults::ClassRates::new(
                    SimDuration::from_secs(300),
                    SimDuration::from_secs(30),
                )),
                link: Some(crate::faults::ClassRates::new(
                    SimDuration::from_secs(120),
                    SimDuration::from_secs(5),
                )),
            };
            let schedule = crate::faults::FaultSchedule::generate(
                &model,
                &cluster,
                SimTime::from_secs(300),
                42,
            );
            w.inject_faults(&schedule);
            let results = w.run_to_completion(SimTime::from_secs(300));
            let fingerprint: Vec<String> = ids
                .iter()
                .map(|&id| {
                    let avail = results.availability(id);
                    format!(
                        "{id}:{:?}:{:?}",
                        results.stream_phase(id),
                        avail.map(|a| (a.downtime, a.degraded, a.outages, a.restarts, a.lost)),
                    )
                })
                .collect();
            (results.events_processed(), fingerprint)
        };
        assert_eq!(run(), run(), "identical seeds replay identically");
    }
}
