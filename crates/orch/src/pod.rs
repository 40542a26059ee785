//! Pods: the unit of deployment.
//!
//! Mirrors the K3s/Kubernetes pod model at the fidelity MicroEdge's extended
//! scheduler consumes: a named spec with CPU/memory requests, node-selector
//! labels, an optional anti-affinity group, and free-form **extensions** —
//! string key/value pairs carrying MicroEdge's two extra knobs (`Model` and
//! `TPU Units`, paper §4.1) without the orchestrator substrate having to
//! know about them.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The extension key carrying the requested model name.
pub const EXT_MODEL: &str = "microedge.io/model";
/// The extension key carrying the requested fractional TPU units.
pub const EXT_TPU_UNITS: &str = "microedge.io/tpu-units";

/// Identifies a pod instance for its whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PodId(pub u64);

impl fmt::Display for PodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod-{}", self.0)
    }
}

/// Lifecycle phase of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PodPhase {
    /// Accepted and bound to a node; containers running.
    Running,
    /// Terminated (completed or deleted); resources reclaimed.
    Terminated,
}

/// CPU and memory requests, in the units K3s uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceRequest {
    cpu_millis: u32,
    mem_bytes: u64,
}

impl ResourceRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if either request is zero — a pod that requests nothing can
    /// never be accounted for.
    #[must_use]
    pub fn new(cpu_millis: u32, mem_bytes: u64) -> Self {
        assert!(cpu_millis > 0, "CPU request must be non-zero");
        assert!(mem_bytes > 0, "memory request must be non-zero");
        ResourceRequest {
            cpu_millis,
            mem_bytes,
        }
    }

    /// A typical camera-pipeline container: 500 millicores, 256 MiB.
    #[must_use]
    pub fn camera_default() -> Self {
        ResourceRequest::new(500, 256 * 1024 * 1024)
    }

    /// CPU request in millicores.
    #[must_use]
    pub fn cpu_millis(&self) -> u32 {
        self.cpu_millis
    }

    /// Memory request in bytes.
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }
}

/// A pod creation request, as parsed from the client's Yaml file.
///
/// Construct with [`PodSpec::builder`].
///
/// # Examples
///
/// ```
/// use microedge_orch::pod::{PodSpec, ResourceRequest, EXT_MODEL, EXT_TPU_UNITS};
///
/// let spec = PodSpec::builder("camera-0", "coral-pie:latest")
///     .resources(ResourceRequest::camera_default())
///     .extension(EXT_MODEL, "ssd-mobilenet-v2")
///     .extension(EXT_TPU_UNITS, "0.35")
///     .build();
/// assert_eq!(spec.extension(EXT_TPU_UNITS), Some("0.35"));
/// // Extensions are a key-sorted slice of pairs.
/// let keys: Vec<&str> = spec.extensions().iter().map(|(k, _)| k.as_str()).collect();
/// assert_eq!(keys, [EXT_MODEL, EXT_TPU_UNITS]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodSpec {
    name: String,
    image: String,
    resources: ResourceRequest,
    /// Key-sorted, unique keys (see `insert_sorted`).
    node_selector: Vec<(String, String)>,
    anti_affinity_group: Option<String>,
    /// Key-sorted, unique keys. A pod carries two extensions at most in
    /// practice, and a sorted `Vec` holds them in one small allocation
    /// where a `BTreeMap` would allocate a full B-tree leaf.
    extensions: Vec<(String, String)>,
}

/// Inserts `key = value` into a key-sorted pair list; a later insert of the
/// same key replaces the earlier value (map semantics).
fn insert_sorted(pairs: &mut Vec<(String, String)>, key: &str, value: &str) {
    match pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
        Ok(i) => value.clone_into(&mut pairs[i].1),
        Err(i) => pairs.insert(i, (key.to_owned(), value.to_owned())),
    }
}

impl PodSpec {
    /// Starts building a spec for the given pod name and container image.
    #[must_use]
    pub fn builder(name: &str, image: &str) -> PodSpecBuilder {
        PodSpecBuilder {
            name: name.to_owned(),
            image: image.to_owned(),
            resources: ResourceRequest::camera_default(),
            node_selector: Vec::new(),
            anti_affinity_group: None,
            extensions: Vec::new(),
        }
    }

    /// Pod name (unique among live pods).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Container image reference.
    #[must_use]
    pub fn image(&self) -> &str {
        &self.image
    }

    /// CPU/memory requests.
    #[must_use]
    pub fn resources(&self) -> ResourceRequest {
        self.resources
    }

    /// Node labels this pod requires, sorted by key.
    #[must_use]
    pub fn node_selector(&self) -> &[(String, String)] {
        &self.node_selector
    }

    /// Anti-affinity group: no two pods of the same group land on one node.
    #[must_use]
    pub fn anti_affinity_group(&self) -> Option<&str> {
        self.anti_affinity_group.as_deref()
    }

    /// All extension key/value pairs, sorted by key.
    #[must_use]
    pub fn extensions(&self) -> &[(String, String)] {
        &self.extensions
    }

    /// Looks up one extension value.
    #[must_use]
    pub fn extension(&self, key: &str) -> Option<&str> {
        self.extensions
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.extensions[i].1.as_str())
    }
}

/// Builder for [`PodSpec`].
#[derive(Debug, Clone)]
pub struct PodSpecBuilder {
    name: String,
    image: String,
    resources: ResourceRequest,
    node_selector: Vec<(String, String)>,
    anti_affinity_group: Option<String>,
    extensions: Vec<(String, String)>,
}

impl PodSpecBuilder {
    /// Sets the CPU/memory requests (default:
    /// [`ResourceRequest::camera_default`]).
    #[must_use]
    pub fn resources(mut self, resources: ResourceRequest) -> Self {
        self.resources = resources;
        self
    }

    /// Requires a node label (a repeated key replaces the earlier value).
    #[must_use]
    pub fn node_selector(mut self, key: &str, value: &str) -> Self {
        insert_sorted(&mut self.node_selector, key, value);
        self
    }

    /// Sets the anti-affinity group.
    #[must_use]
    pub fn anti_affinity_group(mut self, group: &str) -> Self {
        self.anti_affinity_group = Some(group.to_owned());
        self
    }

    /// Adds an extension key/value pair (a repeated key replaces the
    /// earlier value).
    #[must_use]
    pub fn extension(mut self, key: &str, value: &str) -> Self {
        insert_sorted(&mut self.extensions, key, value);
        self
    }

    /// Finalises the spec.
    ///
    /// # Panics
    ///
    /// Panics if the pod name or image is empty.
    #[must_use]
    pub fn build(self) -> PodSpec {
        assert!(!self.name.is_empty(), "pod name must be non-empty");
        assert!(!self.image.is_empty(), "image must be non-empty");
        let (mut node_selector, mut extensions) = (self.node_selector, self.extensions);
        // Pods live as long as the control plane; drop the growth slack.
        node_selector.shrink_to_fit();
        extensions.shrink_to_fit();
        PodSpec {
            name: self.name,
            image: self.image,
            resources: self.resources,
            node_selector,
            anti_affinity_group: self.anti_affinity_group,
            extensions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let spec = PodSpec::builder("cam", "img:v1")
            .resources(ResourceRequest::new(250, 1024))
            .node_selector("zone", "east")
            .anti_affinity_group("coral-pie")
            .extension(EXT_MODEL, "unet-v2")
            .build();
        assert_eq!(spec.name(), "cam");
        assert_eq!(spec.image(), "img:v1");
        assert_eq!(spec.resources().cpu_millis(), 250);
        assert_eq!(
            spec.node_selector(),
            [("zone".to_owned(), "east".to_owned())]
        );
        assert_eq!(spec.anti_affinity_group(), Some("coral-pie"));
        assert_eq!(spec.extension(EXT_MODEL), Some("unet-v2"));
        assert_eq!(spec.extension(EXT_TPU_UNITS), None);
    }

    #[test]
    fn later_inserts_replace_and_pairs_stay_sorted() {
        let spec = PodSpec::builder("cam", "img")
            .extension("b", "1")
            .extension("a", "2")
            .extension("b", "3")
            .node_selector("zone", "east")
            .node_selector("zone", "west")
            .build();
        assert_eq!(
            spec.extensions(),
            [
                ("a".to_owned(), "2".to_owned()),
                ("b".to_owned(), "3".to_owned())
            ]
        );
        assert_eq!(spec.extension("b"), Some("3"));
        assert_eq!(spec.extension("c"), None);
        assert_eq!(
            spec.node_selector(),
            [("zone".to_owned(), "west".to_owned())]
        );
    }

    #[test]
    fn defaults_are_sane() {
        let spec = PodSpec::builder("p", "i").build();
        assert_eq!(spec.resources(), ResourceRequest::camera_default());
        assert!(spec.node_selector().is_empty());
        assert!(spec.anti_affinity_group().is_none());
    }

    #[test]
    #[should_panic(expected = "pod name")]
    fn empty_name_rejected() {
        let _ = PodSpec::builder("", "i").build();
    }

    #[test]
    #[should_panic(expected = "memory request")]
    fn zero_memory_rejected() {
        let _ = ResourceRequest::new(100, 0);
    }

    #[test]
    fn pod_id_display() {
        assert_eq!(PodId(12).to_string(), "pod-12");
    }
}
