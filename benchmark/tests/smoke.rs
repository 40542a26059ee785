//! Smoke tests of the benchmark at its miniature size.

use std::process::Command;

use microedge_benchmark::span::Tracer;
use microedge_benchmark::steady::{self, Shape};
use microedge_benchmark::{
    churn, contended, digest, run_workload, Run, Size, END_TO_END, PER_LAYER, WORKLOADS,
};

fn smoke(seed: u64, trace: bool) -> Run {
    Run {
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    }
}

/// Runs the binary at smoke size and returns its exit code and stdout.
fn bin(workload: &str, seed: u64, trace: u8) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_microedge-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", &trace.to_string()])
        .args(["--size", "smoke"])
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, list) in [(0, &END_TO_END[..]), (1, &PER_LAYER[..])] {
            let (code, stdout) = bin(workload, 3, trace);
            assert_eq!(code, 0, "{workload} trace {trace}:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
            for (name, unit) in list {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(last.contains(&entry), "{workload}: {name} missing");
                let line = format!("{name} = ");
                let printed = stdout
                    .lines()
                    .find(|l| l.starts_with(&line))
                    .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
                assert!(printed.ends_with(&format!(" {unit}")), "{printed}");
            }
            let reported = last.matches("\"unit\": ").count();
            assert_eq!(
                reported,
                list.len(),
                "{workload}: exactly the listed metrics"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_and_known_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("a closing quote"))
        .collect();
    let (workloads, mut metrics): (Vec<&str>, Vec<&str>) =
        names.into_iter().partition(|n| WORKLOADS.contains(n));
    assert!(workloads.len() >= 2, "{workloads:?}");
    metrics.sort_unstable();
    let mut expected: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, _)| *n)
        .collect();
    expected.sort_unstable();
    assert_eq!(metrics, expected);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry}");
    }
}

#[test]
fn traced_mirror_reproduces_the_untraced_digest() {
    let inputs = steady::inputs(Shape::of(Size::Smoke), 5);
    let serial = steady::untraced(&inputs, 1);
    let parallel = steady::untraced(&inputs, 2);
    let mut tracer = Tracer::new(5);
    let (mirror, layers) = steady::mirror(&inputs, 2, &mut tracer);
    let d = digest::results(&serial.results, &());
    assert_eq!(digest::results(&parallel.results, &()), d);
    assert_eq!(digest::results(&mirror.results, &()), d);
    assert_eq!(layers.exports, mirror.results.remote_ingest().count());
    assert!(layers.exports > 0, "the smoke size exercises the exchange");
    // The layer spans plus the remainder account for the replay.
    let parts: f64 = [
        "par.dispatch",
        "shard.barrier",
        "runtime.finish",
        "metrics.merge",
    ]
    .iter()
    .map(|p| tracer.total(5, p))
    .sum();
    let replay = tracer.total(5, "replay");
    assert!(parts <= replay && replay > 0.0);
}

#[test]
fn another_seed_changes_the_inputs_and_still_passes() {
    let a = steady::inputs(Shape::of(Size::Smoke), 1);
    let b = steady::inputs(Shape::of(Size::Smoke), 2);
    assert_ne!(format!("{:?}", a.specs), format!("{:?}", b.specs));
    let a = contended::inputs(contended::Shape::of(Size::Smoke), 1);
    let b = contended::inputs(contended::Shape::of(Size::Smoke), 2);
    assert_ne!(a.actions, b.actions);
    let a = churn::inputs(churn::Shape::of(Size::Smoke), 1);
    let b = churn::inputs(churn::Shape::of(Size::Smoke), 2);
    assert_ne!(format!("{:?}", a.arrivals), format!("{:?}", b.arrivals));
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(workload, &smoke(77, trace)).expect("known workload");
            assert!(out.correct(), "{workload}: {:?}", out.failures);
            assert!(out.attempted >= 1);
        }
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_microedge-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
