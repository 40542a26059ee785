//! The shipped sample Yaml specs parse and deploy end to end.

use microedge::cluster::topology::Cluster;
use microedge::core::config::Features;
use microedge::core::scheduler::{ExtendedScheduler, TpuRequest};
use microedge::core::units::TpuUnits;
use microedge::models::catalog::Catalog;
use microedge::orch::lifecycle::Orchestrator;
use microedge::orch::spec::{parse_pod_spec, parse_pod_specs};

const CORAL_PIE: &str = include_str!("../examples/specs/coral-pie-camera.yaml");
const BODYPIX: &str = include_str!("../examples/specs/bodypix-camera.yaml");
const PIPELINE: &str = include_str!("../examples/specs/segmentation-pipeline.yaml");
const PLAIN: &str = include_str!("../examples/specs/plain-service.yaml");
const FLEET: &str = include_str!("../examples/specs/fleet.yaml");

fn fresh() -> (Orchestrator, ExtendedScheduler) {
    let cluster = Cluster::microedge_default();
    let sched = ExtendedScheduler::new(&cluster, Catalog::builtin(), Features::all());
    (Orchestrator::new(cluster), sched)
}

#[test]
fn every_sample_spec_parses() {
    for (name, text) in [
        ("coral-pie", CORAL_PIE),
        ("bodypix", BODYPIX),
        ("pipeline", PIPELINE),
        ("plain", PLAIN),
    ] {
        parse_pod_spec(text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn coral_pie_spec_deploys_with_paper_units() {
    let spec = parse_pod_spec(CORAL_PIE).unwrap();
    let requests = TpuRequest::from_spec(&spec).unwrap();
    assert_eq!(requests.len(), 1);
    assert_eq!(requests[0].units(), TpuUnits::from_f64(0.35));
    assert_eq!(
        spec.node_selector(),
        [("microedge.io/tpu".to_owned(), "true".to_owned())]
    );

    let (mut orch, mut sched) = fresh();
    let d = sched.deploy(&mut orch, spec).unwrap();
    assert_eq!(d.allocations().len(), 1);
}

#[test]
fn bodypix_spec_partitions_across_tpus() {
    let (mut orch, mut sched) = fresh();
    let d = sched
        .deploy(&mut orch, parse_pod_spec(BODYPIX).unwrap())
        .unwrap();
    assert_eq!(d.allocations().len(), 2, "1.2 units span two TPUs");
}

#[test]
fn pipeline_spec_creates_two_stages() {
    let (mut orch, mut sched) = fresh();
    let d = sched
        .deploy(&mut orch, parse_pod_spec(PIPELINE).unwrap())
        .unwrap();
    assert_eq!(d.stages().len(), 2);
    assert_eq!(d.stages()[0].model().as_str(), "unet-v2");
    assert_eq!(d.stages()[1].model().as_str(), "mobilenet-v1");
}

#[test]
fn plain_spec_takes_the_native_path() {
    let spec = parse_pod_spec(PLAIN).unwrap();
    assert!(TpuRequest::from_spec(&spec).unwrap().is_empty());
    let (mut orch, mut sched) = fresh();
    let d = sched.deploy(&mut orch, spec).unwrap();
    assert!(d.stages().is_empty());
    assert_eq!(d.control_rpcs(), 0);
}

#[test]
fn all_samples_fit_the_paper_cluster_simultaneously() {
    let (mut orch, mut sched) = fresh();
    for text in [CORAL_PIE, BODYPIX, PIPELINE, PLAIN] {
        sched
            .deploy(&mut orch, parse_pod_spec(text).unwrap())
            .unwrap();
    }
    // 0.35 + 1.2 + 0.675 + 0.215 = 2.44 units across 6 TPUs.
    assert_eq!(
        sched.pool().total_free_units(),
        TpuUnits::from_f64(6.0 - 2.44)
    );
}

#[test]
fn multi_document_fleet_deploys_in_one_pass() {
    let specs = parse_pod_specs(FLEET).unwrap();
    assert_eq!(specs.len(), 3);
    let (mut orch, mut sched) = fresh();
    let mut tpu_pods = 0;
    for spec in specs {
        let d = sched.deploy(&mut orch, spec).unwrap();
        if !d.stages().is_empty() {
            tpu_pods += 1;
        }
    }
    assert_eq!(tpu_pods, 2);
    assert_eq!(
        sched.pool().total_free_units(),
        TpuUnits::from_f64(6.0 - 0.35 - 1.2)
    );
}
