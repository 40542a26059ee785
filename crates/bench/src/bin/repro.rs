//! Regenerates every table and figure of the MicroEdge paper.
//!
//! ```text
//! repro [--fig1] [--fig5] [--table1] [--fig6] [--fig7a] [--fig7b] [--ablations]
//!       [--perf] [--chaos] [--scale] [--fleet] [--net] [--defrag] [--quick] [--csv <dir>]
//! ```
//!
//! With no selection flags, every paper artifact runs (`--perf`,
//! `--chaos`, `--scale`, `--fleet`, `--net`, and `--defrag` only run when asked
//! for). `--quick` shrinks
//! frame counts and trace length for a fast smoke pass; `--csv <dir>`
//! additionally dumps each selected artifact's series as CSV for external
//! plotting. `--perf` times the simulation kernel on the fixed reference
//! workload and the admission control plane on the 16–16 384-TPU sweep,
//! writing `BENCH_kernel.json` and `BENCH_admission.json` (to the `--csv`
//! directory if given, else the working directory); it also runs the
//! scale-out study. `--chaos` runs the fault-injection study (three
//! recovery disciplines × three failure rates on one deterministic fault
//! schedule) and writes `BENCH_chaos.json` the same way; its numbers are
//! simulated time, so the file is byte-identical across runs and
//! `MICROEDGE_WORKERS` settings. `--scale` sweeps the 1k→100k-stream
//! serial scale-out study plus the sharded 100k/1M-stream replay (tiny
//! fleets under `--quick`) and writes `BENCH_scale.json`. `--fleet` runs
//! the federated front-door study — indexed vs linear-scan placement
//! throughput at 64/512/4096 clusters plus the whole-cluster kill tiers —
//! and writes `BENCH_fleet.json`. `--net` runs the lossy-transport study
//! — the QoS classes across loss tiers 0/0.1/1/10 % and a
//! flapping-partition tier that drives the lease detector into reconciled
//! false positives — and writes `BENCH_net.json`. `--defrag` replays the
//! 24 h churn trace with and without the online defragmenter and writes
//! `BENCH_defrag.json` (packing efficiency vs the Martello-Toth L2 bound,
//! admission rates, migration disruption). Every `BENCH_*.json` has a
//! `"deterministic"` section, byte-identical across runs and worker
//! counts, then a `"host"` section (wall-clock, events/s, RSS, worker
//! count) that CI cuts off before comparing ([`microedge_bench::artifact`]).
//! If a CSV or JSON file cannot be written, `repro` exits with status 1
//! after running every selected artifact.
//!
//! The artifacts are independent, so they run concurrently through the
//! deterministic executor ([`microedge_sim::par`]); each job renders its
//! whole stdout contribution into a `String`, which is printed in the
//! fixed artifact order afterwards — the output is byte-identical to a
//! serial run. The perf harness is the exception: it is a timing
//! measurement and always runs alone, after everything else.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use microedge_bench::csv::write_csv;
use microedge_bench::runner::SystemConfig;
use microedge_bench::{
    admission_overhead, cost, diff_detector, fig1, latency_breakdown, packing, pipeline_ablation,
    scalability, trace_study,
};
use microedge_cluster::cost::CostModel;
use microedge_sim::time::SimDuration;
use microedge_workloads::apps::CameraApp;
use microedge_workloads::trace::{synthesize, TraceConfig};

struct Options {
    fig1: bool,
    fig5: bool,
    table1: bool,
    fig6: bool,
    fig7a: bool,
    fig7b: bool,
    ablations: bool,
    perf: bool,
    chaos: bool,
    scale: bool,
    fleet: bool,
    net: bool,
    defrag: bool,
    quick: bool,
    csv: Option<PathBuf>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut csv = None;
    let mut perf = false;
    let mut chaos = false;
    let mut scale = false;
    let mut fleet = false;
    let mut net = false;
    let mut defrag = false;
    let mut selections: Vec<String> = Vec::new();
    let known = [
        "--fig1",
        "--fig5",
        "--table1",
        "--fig6",
        "--fig7a",
        "--fig7b",
        "--ablations",
    ];
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--perf" => perf = true,
            "--chaos" => chaos = true,
            "--scale" => scale = true,
            "--fleet" => fleet = true,
            "--net" => net = true,
            "--defrag" => defrag = true,
            "--csv" => match iter.next() {
                Some(dir) => csv = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                }
            },
            flag if known.contains(&flag) => selections.push(arg),
            other => {
                eprintln!(
                    "unknown flag {other}; known: {} --perf --chaos --scale --fleet --net --defrag --quick --csv <dir>",
                    known.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    let has = |flag: &str| selections.iter().any(|a| a == flag);
    // `--perf` / `--chaos` / `--scale` alone mean "just that study", not
    // "everything".
    let none_selected =
        selections.is_empty() && !perf && !chaos && !scale && !fleet && !net && !defrag;
    Options {
        fig1: none_selected || has("--fig1"),
        fig5: none_selected || has("--fig5"),
        table1: none_selected || has("--table1"),
        fig6: none_selected || has("--fig6"),
        fig7a: none_selected || has("--fig7a"),
        fig7b: none_selected || has("--fig7b"),
        ablations: none_selected || has("--ablations"),
        perf,
        chaos,
        scale,
        fleet,
        net,
        defrag,
        quick,
        csv,
    }
}

/// Set when a CSV or `BENCH_*.json` write fails; `main` then exits 1.
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// Reports one file write on stderr, remembering a failure.
fn report_write(result: std::io::Result<PathBuf>, name: &str) {
    WRITE_FAILED.fetch_or(result.is_err(), Ordering::Relaxed);
    match result {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {name}: {e}"),
    }
}

fn dump(csv: Option<&PathBuf>, name: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Some(dir) = csv {
        report_write(write_csv(dir, name, headers, rows), &format!("{name}.csv"));
    }
}

/// One artifact: renders its stdout contribution as a `String`. CSV side
/// files are written from inside the job (their names never collide across
/// artifacts), so jobs can run concurrently. The `bool` marks artifacts
/// containing a host-clock measurement (Fig. 7a's admission
/// microbenchmark): those run alone after the parallel batch so concurrent
/// load cannot contaminate the measured value — which would also make the
/// output differ from a serial run.
type Job<'a> = Box<dyn Fn() -> String + Send + Sync + 'a>;

fn main() {
    let opts = parse_args();
    let frames: u64 = if opts.quick { 150 } else { 1000 };
    let quick = opts.quick;
    let csv = opts.csv.as_ref();

    println!("MicroEdge reproduction — paper artifacts\n");

    let mut jobs: Vec<(bool, Job)> = Vec::new();

    if opts.fig1 {
        jobs.push((
            false,
            Box::new(move || {
                let mut out = String::new();
                let _ = writeln!(out, "{}", fig1::render_fig1());
                let rows: Vec<Vec<String>> = fig1::fig1_rows()
                    .iter()
                    .map(|r| {
                        vec![
                            r.model().to_owned(),
                            format!("{:.1}", r.inference_ms()),
                            format!("{:.1}", r.fps_for_full_util()),
                            r.sustains_15fps().to_string(),
                        ]
                    })
                    .collect();
                dump(
                    csv,
                    "fig1",
                    &[
                        "model",
                        "inference_ms",
                        "fps_for_full_util",
                        "sustains_15fps",
                    ],
                    &rows,
                );
                out
            }),
        ));
    }

    if opts.fig5 {
        jobs.push((
            false,
            Box::new(move || {
                let mut out = String::new();
                for (app, configs) in [
                    (
                        CameraApp::coral_pie(),
                        SystemConfig::fig5_configs().to_vec(),
                    ),
                    (
                        CameraApp::bodypix(),
                        vec![SystemConfig::Baseline, SystemConfig::microedge_full()],
                    ),
                ] {
                    let points = scalability::fig5_sweep(&app, &configs, 6, frames);
                    let _ = writeln!(out, "{}", scalability::render_sweep(&app, &points));
                    let rows: Vec<Vec<String>> = points
                        .iter()
                        .map(|p| {
                            vec![
                                p.config().label(),
                                p.tpus().to_string(),
                                p.max_cameras().to_string(),
                                format!("{:.4}", p.avg_utilization()),
                                p.all_slo_met().to_string(),
                            ]
                        })
                        .collect();
                    dump(
                        csv,
                        &format!("fig5_{}", app.name()),
                        &[
                            "config",
                            "tpus",
                            "max_cameras",
                            "avg_utilization",
                            "slo_met",
                        ],
                        &rows,
                    );
                }
                out
            }),
        ));
    }

    if opts.table1 {
        jobs.push((
            false,
            Box::new(move || {
                let mut out = String::new();
                let _ = writeln!(out, "{}", cost::render_table1(&CameraApp::coral_pie(), 17));
                let rows: Vec<Vec<String>> =
                    cost::table1_rows(&CameraApp::coral_pie(), 17, CostModel::paper_prices())
                        .iter()
                        .map(|r| {
                            vec![
                                r.config().label(),
                                r.tpus().to_string(),
                                r.rpis().to_string(),
                                r.total_usd().to_string(),
                            ]
                        })
                        .collect();
                dump(
                    csv,
                    "table1",
                    &["config", "tpus", "rpis", "total_usd"],
                    &rows,
                );
                out
            }),
        ));
    }

    if opts.fig6 {
        jobs.push((false, Box::new(move || {
            let mut out = String::new();
            let mut trace_cfg = TraceConfig::microedge_downsized();
            if quick {
                trace_cfg.duration = SimDuration::from_secs(5 * 60);
            }
            let trace = synthesize(&trace_cfg, 42);
            let outcomes = trace_study::run_fig6(&trace, &trace_cfg, 6);
            let _ = writeln!(out, "{}", trace_study::render_fig6(&outcomes));
            if !quick {
                // The paper (§6.3): "to fully understand the benefits of
                // co-compilation and workload partitioning, we would need to
                // run a much larger configuration of the workload on a larger
                // cluster. Such a study would show a stronger separation".
                let scaled_cfg = trace_cfg.scaled(2.5);
                let scaled_trace = synthesize(&scaled_cfg, 43);
                let scaled = trace_study::run_fig6(&scaled_trace, &scaled_cfg, 12);
                let _ = writeln!(
                    out,
                    "{}",
                    trace_study::render_fig6_summary(
                        "Fig. 6 at 2.5× workload on 12 TPUs (the paper's predicted stronger separation)",
                        &scaled,
                    )
                );
            }
            type SeriesFn = fn(&trace_study::TraceOutcome) -> &[f64];
            let exports: [(&str, SeriesFn); 2] = [
                ("fig6a_utilization", |o| o.windowed_utilization()),
                ("fig6b_served", |o| o.served_series()),
            ];
            for (name, series) in exports {
                let minutes = outcomes.iter().map(|o| series(o).len()).max().unwrap_or(0);
                let mut headers: Vec<String> = vec!["minute".to_owned()];
                headers.extend(outcomes.iter().map(|o| o.config().label()));
                let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
                let rows: Vec<Vec<String>> = (0..minutes)
                    .map(|m| {
                        let mut row = vec![m.to_string()];
                        row.extend(
                            outcomes
                                .iter()
                                .map(|o| format!("{:.4}", series(o).get(m).copied().unwrap_or(0.0))),
                        );
                        row
                    })
                    .collect();
                dump(csv, name, &header_refs, &rows);
            }
            out
        })));
    }

    if opts.fig7a {
        jobs.push((
            true,
            Box::new(move || {
                let mut out = String::new();
                let samples = if quick { 500 } else { 5000 };
                let _ = writeln!(out, "{}", admission_overhead::render_fig7a(samples, 42));
                let rows: Vec<Vec<String>> = admission_overhead::run_overhead(samples, 42)
                    .iter()
                    .map(|r| {
                        vec![
                            r.label().to_owned(),
                            format!("{:.1}", r.mean_ms()),
                            format!("{:.1}", r.std_ms()),
                            format!("{:.2}", r.overhead_pct()),
                        ]
                    })
                    .collect();
                dump(
                    csv,
                    "fig7a",
                    &["config", "mean_ms", "std_ms", "overhead_pct"],
                    &rows,
                );
                out
            }),
        ));
    }

    if opts.fig7b {
        jobs.push((
            false,
            Box::new(move || {
                let mut out = String::new();
                let _ = writeln!(out, "{}", latency_breakdown::render_fig7b(frames.min(300)));
                let rows: Vec<Vec<String>> = [
                    latency_breakdown::measure_breakdown(SystemConfig::Baseline, frames.min(300)),
                    latency_breakdown::measure_breakdown(
                        SystemConfig::microedge_full(),
                        frames.min(300),
                    ),
                    latency_breakdown::serverless_row(),
                ]
                .iter()
                .map(|r| {
                    let p = r.phases_ms();
                    vec![
                        r.label().to_owned(),
                        format!("{:.2}", p[0]),
                        format!("{:.2}", p[1]),
                        format!("{:.2}", p[2]),
                        format!("{:.2}", p[3]),
                        format!("{:.2}", r.total_ms()),
                    ]
                })
                .collect();
                dump(
                    csv,
                    "fig7b",
                    &[
                        "design",
                        "pre_ms",
                        "transmission_ms",
                        "inference_ms",
                        "post_ms",
                        "total_ms",
                    ],
                    &rows,
                );
                out
            }),
        ));
    }

    if opts.ablations {
        jobs.push((
            false,
            Box::new(move || {
                let mut out = String::new();
                let _ = writeln!(out, "{}", packing::render_packing(60, 6, 10));
                let _ = writeln!(
                    out,
                    "{}",
                    pipeline_ablation::render_pipeline_ablation(frames.min(300))
                );
                let _ = writeln!(
                    out,
                    "{}",
                    diff_detector::render_diff_detector(6, frames.min(300))
                );
                let _ = writeln!(
                    out,
                    "{}",
                    microedge_bench::tail_latency::render_tail_latency(6, frames.min(300))
                );
                out
            }),
        ));
    }

    let mut chunks: Vec<Option<String>> = jobs.iter().map(|_| None).collect();
    let mut parallel: Vec<(usize, Job)> = Vec::new();
    let mut alone: Vec<(usize, Job)> = Vec::new();
    for (i, (timing, job)) in jobs.into_iter().enumerate() {
        if timing {
            alone.push((i, job));
        } else {
            parallel.push((i, job));
        }
    }
    for (i, rendered) in microedge_sim::par::par_map(parallel, |_, (i, job)| (i, job())) {
        chunks[i] = Some(rendered);
    }
    for (i, job) in alone {
        chunks[i] = Some(job());
    }
    for chunk in chunks.into_iter().flatten() {
        print!("{chunk}");
    }

    let dir = opts.csv.clone().unwrap_or_else(|| PathBuf::from("."));
    let write_bench = |name: &str, body: String| {
        let path = dir.join(name);
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
        report_write(written.map(|()| path), name);
    };

    if opts.chaos {
        let horizon = microedge_bench::chaos::chaos_horizon(opts.quick);
        let points = microedge_bench::chaos::run_chaos(horizon);
        println!("{}", microedge_bench::chaos::render_chaos(&points, horizon));
        write_bench(
            "BENCH_chaos.json",
            microedge_bench::chaos::to_json(&points, horizon),
        );
    }

    if opts.perf {
        let rounds = if opts.quick { 1 } else { 3 };
        let result = microedge_bench::perf::run_kernel_perf(rounds);
        println!("{}", result.render_summary());
        write_bench("BENCH_kernel.json", result.to_json());

        let admission = admission_overhead::run_admission_perf(rounds);
        println!("{}", scalability::render_admission_scalability(&admission));
        write_bench("BENCH_admission.json", admission.to_json());
    }

    if opts.scale || opts.perf {
        let study = microedge_bench::scale::run_scale(opts.quick);
        println!("{}", study.render_summary());
        let sharded = microedge_bench::scale_sharded::run_scale_sharded(opts.quick);
        println!("{}", sharded.render_summary());
        write_bench("BENCH_scale.json", study.to_json(&sharded));
    }

    if opts.fleet {
        use microedge_bench::fleet;
        // The chaos tiers are pure simulated time; the placement sweep is
        // a host-clock measurement, so it runs here, after everything
        // parallel has finished.
        let tiers = fleet::run_fleet_chaos(opts.quick);
        let perf = if opts.quick {
            fleet::run_fleet_perf_with(&[(64, 2_000), (512, 500), (4096, 200)], 1)
        } else {
            fleet::run_fleet_perf(3)
        };
        println!("{}", fleet::render_fleet(&perf, &tiers));
        write_bench("BENCH_fleet.json", fleet::to_json(&perf, &tiers));
    }

    if opts.net {
        use microedge_bench::netchaos;
        let tiers = netchaos::run_net_chaos(opts.quick);
        println!("{}", netchaos::render_net_chaos(&tiers));
        write_bench("BENCH_net.json", netchaos::to_json(&tiers));
    }

    if opts.defrag {
        use microedge_bench::defrag;
        let study = defrag::run_defrag_study(opts.quick);
        println!("{}", defrag::render_defrag(&study));
        write_bench("BENCH_defrag.json", defrag::to_json(&study));
    }

    if WRITE_FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
}
