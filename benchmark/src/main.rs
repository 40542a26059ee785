//! Command-line entry of the benchmark:
//!
//! ```text
//! microedge-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! An untraced run splits its timed window over [`PROCESSES`] child
//! processes of this binary, run one after another, and pools their
//! samples: host speed differs between processes as well as over time.
//! The traced run stays in this process.
//!
//! Prints context lines (`# ...`), one `name = value unit` line per
//! metric, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 if an output check fails
//! and 2 on a usage error.

use std::process::{Command, ExitCode};

use microedge_benchmark::host::{child_lines, parse_child};
use microedge_benchmark::{finish, measure, run_workload, Outcome, Run, Size, WORKLOADS};

/// Child processes an untraced run is split over.
const PROCESSES: u32 = 3;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: microedge-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => seconds = Some(v),
                _ => return usage("--seconds takes a non-negative number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace takes 0 or 1"),
            },
            "--size" => match value.as_str() {
                "full" => size = Size::Full,
                "smoke" => size = Size::Smoke,
                _ => return usage("--size takes full or smoke"),
            },
            "--child" => child = value == "1",
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let run = Run {
        seed,
        seconds,
        trace,
        size,
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    if child {
        let out = measure(&workload, &run).expect("known workload");
        print!("{}{}", child_lines(&out), out.render());
        return exit_code(&out);
    }
    let outcome = if trace {
        run_workload(&workload, &run).expect("known workload")
    } else {
        pooled(&workload, &run)
    };
    print!("{}", outcome.render());
    exit_code(&outcome)
}

fn exit_code(out: &Outcome) -> ExitCode {
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs the untraced workload in [`PROCESSES`] child processes, one after
/// another, each timing its share of the window, and pools their samples.
fn pooled(workload: &str, run: &Run) -> Outcome {
    let mut pooled: Option<Outcome> = None;
    let mut lost = Vec::new();
    for k in 0..PROCESSES {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let share = run.seconds / f64::from(PROCESSES);
        let output = Command::new(exe)
            .args(["--workload", workload, "--seed", &run.seed.to_string()])
            .args(["--seconds", &share.to_string(), "--trace", "0"])
            .args(["--size", run.size.name(), "--child", "1"])
            .output();
        let parsed = output
            .as_ref()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout.clone()).ok())
            .and_then(|text| parse_child(&text));
        match (output, parsed) {
            (Ok(o), Some(child)) if o.status.success() || !child.failures.is_empty() => {
                match pooled.as_mut() {
                    Some(p) => p.absorb(child),
                    None => pooled = Some(child),
                }
            }
            (Ok(o), _) => lost.push(format!("process {k} exited with {}", o.status)),
            (Err(e), _) => lost.push(format!("process {k} did not start: {e}")),
        }
    }
    let mut out = pooled.unwrap_or_default();
    out.failures.extend(lost);
    out.attempted = out.attempted.max(1);
    finish(&mut out, false);
    out
}
