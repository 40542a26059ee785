#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # microedge-bench — the evaluation harness
//!
//! One module per paper artifact, each with a `run_*` entry point returning
//! structured results and a `render_*` function printing the table the
//! paper's figure reports:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — model processing times |
//! | [`scalability`] | Fig. 5a–5d — cameras supported & TPU utilization |
//! | [`cost`] | Table 1 — cost of ownership |
//! | [`trace_study`] | Fig. 6a/6b — trace-driven utilization & cameras served |
//! | [`admission_overhead`] | Fig. 7a — one-time admission overhead |
//! | [`latency_breakdown`] | Fig. 7b — Invoke latency breakdown (+ serverless ablation) |
//! | [`packing`] | packing-heuristic ablation (DESIGN.md ◊3) |
//! | [`pipeline_ablation`] | multi-model pipeline hop optimization (§8 extension) |
//! | [`diff_detector`] | NoScope frame-filter ablation (§1 motivation) |
//! | [`tail_latency`] | per-frame latency vs load curve (queueing behaviour) |
//! | [`chaos`] | chaos / failure-recovery study (§7 robustness extension) |
//! | [`scale`] | 100k-stream scale-out study (§6.3's "much larger configuration") |
//! | [`scale_sharded`] | sharded 1M-stream replay (deterministic epoch-barrier parallelism) |
//! | [`fleet`] | federated fleet front door: O(log C) placement + whole-cluster chaos tiers |
//! | [`netchaos`] | lossy-transport study: QoS classes across loss tiers + flapping partitions |
//! | [`defrag`] | online defragmentation: packing efficiency vs the L2 bound under 24 h churn |
//!
//! The `repro` binary prints every artifact and writes the `BENCH_*.json`
//! files through [`artifact`], the one writer with a deterministic and a
//! host section; the Criterion benches under `benches/` time the
//! underlying computations.

pub mod admission_overhead;
pub mod artifact;
pub mod chaos;
pub mod cost;
pub mod csv;
pub mod defrag;
pub mod diff_detector;
pub mod fig1;
pub mod fleet;
pub mod latency_breakdown;
pub mod netchaos;
pub mod packing;
pub mod perf;
pub mod pipeline_ablation;
pub mod runner;
pub mod scalability;
pub mod scale;
pub mod scale_sharded;
pub mod tail_latency;
pub mod trace_study;

pub use runner::{build_world, experiment_cluster, SystemConfig};
