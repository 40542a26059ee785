//! Cluster allocation state: which pods are bound where, and what CPU and
//! memory remain on each node.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use microedge_cluster::node::NodeId;
use microedge_cluster::topology::Cluster;

use crate::pod::{PodId, PodSpec, ResourceRequest};

/// Entry of the ranked availability index: `(remaining CPU, remaining
/// memory, Reverse(node id))`, so that *descending* set order is exactly
/// the default scheduler's least-allocated ranking (most CPU first, then
/// most memory, then lowest node id).
type RankedEntry = (u32, u64, Reverse<NodeId>);

/// Remaining allocatable resources on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAvailability {
    cpu_millis: u32,
    mem_bytes: u64,
}

impl NodeAvailability {
    /// Remaining CPU in millicores.
    #[must_use]
    pub fn cpu_millis(&self) -> u32 {
        self.cpu_millis
    }

    /// Remaining memory in bytes.
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// `true` when `spec`'s requests fit.
    #[must_use]
    pub fn fits(&self, spec: &PodSpec) -> bool {
        self.cpu_millis >= spec.resources().cpu_millis()
            && self.mem_bytes >= spec.resources().mem_bytes()
    }
}

/// A pod bound to a node: only what the allocation and anti-affinity
/// checks read. The full spec stays with the orchestrator's pod record.
#[derive(Debug, Clone)]
struct Binding {
    resources: ResourceRequest,
    anti_affinity_group: Option<String>,
    node: NodeId,
}

/// Tracks bindings and per-node allocations for one cluster.
///
/// # Examples
///
/// ```
/// use microedge_cluster::topology::ClusterBuilder;
/// use microedge_orch::pod::{PodId, PodSpec};
/// use microedge_orch::state::ClusterState;
///
/// let cluster = ClusterBuilder::new().vrpis(1).build();
/// let mut state = ClusterState::new(&cluster);
/// let spec = PodSpec::builder("p", "i").build();
/// let node = cluster.nodes()[0].id();
/// state.bind(PodId(0), &spec, node);
/// assert_eq!(state.pods_on(node).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterState {
    availability: BTreeMap<NodeId, NodeAvailability>,
    /// Every known node keyed by remaining resources (see [`RankedEntry`]),
    /// kept in lockstep with `availability` by `bind`/`unbind` so the
    /// common selector-free placement is an index lookup instead of a full
    /// filter-and-sort over the fleet.
    ranked: BTreeSet<RankedEntry>,
    bindings: BTreeMap<PodId, Binding>,
    unschedulable: BTreeSet<NodeId>,
}

impl ClusterState {
    /// Creates a state with every node fully available.
    #[must_use]
    pub fn new(cluster: &Cluster) -> Self {
        let availability: BTreeMap<NodeId, NodeAvailability> = cluster
            .nodes()
            .iter()
            .map(|n| {
                (
                    n.id(),
                    NodeAvailability {
                        cpu_millis: n.cpu_millis(),
                        mem_bytes: n.mem_bytes(),
                    },
                )
            })
            .collect();
        let ranked = availability
            .iter()
            .map(|(&id, a)| (a.cpu_millis, a.mem_bytes, Reverse(id)))
            .collect();
        ClusterState {
            availability,
            ranked,
            bindings: BTreeMap::new(),
            unschedulable: BTreeSet::new(),
        }
    }

    /// `true` when `node` accepts new pods (default) — failed nodes are
    /// marked unschedulable and filtered out by the default scheduler.
    #[must_use]
    pub fn is_schedulable(&self, node: NodeId) -> bool {
        !self.unschedulable.contains(&node)
    }

    /// Marks a node (un)schedulable.
    pub fn set_schedulable(&mut self, node: NodeId, schedulable: bool) {
        if schedulable {
            self.unschedulable.remove(&node);
        } else {
            self.unschedulable.insert(node);
        }
    }

    /// Remaining resources on `node`, or `None` for an unknown node.
    #[must_use]
    pub fn availability(&self, node: NodeId) -> Option<NodeAvailability> {
        self.availability.get(&node).copied()
    }

    /// Binds `pod` to `node`, decrementing the node's availability.
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown, the pod id is already bound, or the
    /// requests do not fit — callers must check with
    /// [`NodeAvailability::fits`] first (the scheduler does).
    pub fn bind(&mut self, pod: PodId, spec: &PodSpec, node: NodeId) {
        let avail = self
            .availability
            .get_mut(&node)
            .unwrap_or_else(|| panic!("unknown node {node}"));
        assert!(
            avail.fits(spec),
            "binding {pod} to {node} would oversubscribe the node"
        );
        let resources = spec.resources();
        self.ranked
            .remove(&(avail.cpu_millis, avail.mem_bytes, Reverse(node)));
        avail.cpu_millis -= resources.cpu_millis();
        avail.mem_bytes -= resources.mem_bytes();
        self.ranked
            .insert((avail.cpu_millis, avail.mem_bytes, Reverse(node)));
        let binding = Binding {
            resources,
            anti_affinity_group: spec.anti_affinity_group().map(str::to_owned),
            node,
        };
        let prev = self.bindings.insert(pod, binding);
        assert!(prev.is_none(), "{pod} is already bound");
    }

    /// Unbinds `pod`, returning its resources to the node. Returns the node
    /// it was bound to, or `None` if the pod was unknown.
    pub fn unbind(&mut self, pod: PodId) -> Option<NodeId> {
        let binding = self.bindings.remove(&pod)?;
        let avail = self
            .availability
            .get_mut(&binding.node)
            .expect("bound node must exist");
        self.ranked
            .remove(&(avail.cpu_millis, avail.mem_bytes, Reverse(binding.node)));
        avail.cpu_millis += binding.resources.cpu_millis();
        avail.mem_bytes += binding.resources.mem_bytes();
        self.ranked
            .insert((avail.cpu_millis, avail.mem_bytes, Reverse(binding.node)));
        Some(binding.node)
    }

    /// The best node for a **selector-free, anti-affinity-free** spec: the
    /// schedulable node the pod fits with the most remaining CPU (then
    /// memory, then lowest node id) — exactly the head of
    /// [`crate::scheduler::DefaultScheduler::candidate_nodes`]'s ranking,
    /// found by walking the ranked index instead of sorting the fleet.
    ///
    /// Callers must ensure the spec has no node selector and no
    /// anti-affinity group; those constraints are not consulted here.
    #[must_use]
    pub fn best_fit(&self, spec: &PodSpec) -> Option<NodeId> {
        let cpu = spec.resources().cpu_millis();
        let mem = spec.resources().mem_bytes();
        self.ranked
            .iter()
            .rev()
            .filter(|&&(c, m, Reverse(id))| c >= cpu && m >= mem && self.is_schedulable(id))
            .map(|&(_, _, Reverse(id))| id)
            .next()
    }

    /// The node `pod` is bound to, if any.
    #[must_use]
    pub fn node_of(&self, pod: PodId) -> Option<NodeId> {
        self.bindings.get(&pod).map(|b| b.node)
    }

    /// Ids of all pods currently bound to `node`.
    #[must_use]
    pub fn pods_on(&self, node: NodeId) -> Vec<PodId> {
        self.bindings
            .iter()
            .filter(|(_, b)| b.node == node)
            .map(|(&id, _)| id)
            .collect()
    }

    /// `true` when some pod of `group` is already bound to `node`
    /// (anti-affinity check).
    #[must_use]
    pub fn group_present_on(&self, node: NodeId, group: &str) -> bool {
        self.bindings
            .values()
            .any(|b| b.node == node && b.anti_affinity_group.as_deref() == Some(group))
    }

    /// Number of bound pods.
    #[must_use]
    pub fn pod_count(&self) -> usize {
        self.bindings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::ResourceRequest;
    use microedge_cluster::topology::ClusterBuilder;

    fn one_node() -> (Cluster, NodeId) {
        let c = ClusterBuilder::new().vrpis(1).build();
        let id = c.nodes()[0].id();
        (c, id)
    }

    fn spec(cpu: u32, mem: u64) -> PodSpec {
        PodSpec::builder("p", "i")
            .resources(ResourceRequest::new(cpu, mem))
            .build()
    }

    #[test]
    fn bind_decrements_and_unbind_restores() {
        let (c, node) = one_node();
        let mut st = ClusterState::new(&c);
        let before = st.availability(node).unwrap();
        st.bind(PodId(1), &spec(1000, 1024), node);
        let during = st.availability(node).unwrap();
        assert_eq!(during.cpu_millis(), before.cpu_millis() - 1000);
        assert_eq!(during.mem_bytes(), before.mem_bytes() - 1024);
        assert_eq!(st.node_of(PodId(1)), Some(node));
        assert_eq!(st.unbind(PodId(1)), Some(node));
        assert_eq!(st.availability(node).unwrap(), before);
        assert_eq!(st.pod_count(), 0);
    }

    #[test]
    fn unbind_unknown_pod_is_none() {
        let (c, _) = one_node();
        let mut st = ClusterState::new(&c);
        assert_eq!(st.unbind(PodId(9)), None);
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn binding_beyond_capacity_panics() {
        let (c, node) = one_node();
        let mut st = ClusterState::new(&c);
        st.bind(PodId(1), &spec(4000, 1024), node);
        st.bind(PodId(2), &spec(1, 1024), node);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let (c, node) = one_node();
        let mut st = ClusterState::new(&c);
        st.bind(PodId(1), &spec(1, 1), node);
        st.bind(PodId(1), &spec(1, 1), node);
    }

    #[test]
    fn anti_affinity_group_detection() {
        let (c, node) = one_node();
        let mut st = ClusterState::new(&c);
        let grouped = PodSpec::builder("a", "i")
            .resources(ResourceRequest::new(1, 1))
            .anti_affinity_group("g")
            .build();
        st.bind(PodId(1), &grouped, node);
        assert!(st.group_present_on(node, "g"));
        assert!(!st.group_present_on(node, "other"));
    }

    #[test]
    fn pods_on_lists_bound_pods() {
        let (c, node) = one_node();
        let mut st = ClusterState::new(&c);
        st.bind(PodId(1), &spec(1, 1), node);
        st.bind(PodId(2), &spec(1, 1), node);
        let mut pods = st.pods_on(node);
        pods.sort();
        assert_eq!(pods, vec![PodId(1), PodId(2)]);
    }

    #[test]
    fn fits_checks_both_dimensions() {
        let (c, node) = one_node();
        let st = ClusterState::new(&c);
        let avail = st.availability(node).unwrap();
        assert!(avail.fits(&spec(4000, 1024)));
        assert!(!avail.fits(&spec(4001, 1024)));
        assert!(!avail.fits(&spec(1, u64::MAX)));
    }
}
