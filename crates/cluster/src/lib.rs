//! # dynbatch-cluster
//!
//! The cluster substrate: nodes, cores and allocations.
//!
//! This crate stands in for the paper's physical testbed (15 compute nodes
//! × 8 cores). It tracks which job holds which cores on which node, and
//! implements the allocation-side halves of the dynamic protocol:
//! *dyn_join* (expanding a running job's allocation onto additional cores)
//! and *dyn_disjoin* (releasing an arbitrary subset — the paper notes its
//! approach, unlike SLURM's, can release any subset of a dynamic
//! allocation).
//!
//! Invariants maintained (and tested by property tests):
//!
//! * a core is held by at most one job at any time;
//! * per-node usage never exceeds the node's capacity;
//! * the sum of all job allocations equals the cluster's busy-core count;
//! * the core counters and the placement index equal a walk of the nodes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocation;
pub mod node;

pub use allocation::Allocation;
pub use node::{Node, NodeState};

use dynbatch_core::{AllocPolicy, Error, JobId, NodeId, Result};
use std::collections::{BTreeSet, HashMap};

/// The cluster: a fixed set of nodes plus allocation state.
///
/// Every cluster-wide count is a field and placement walks an index, so
/// neither costs a walk over the nodes: `up_cores` and `busy_cores` are
/// the sums of the up nodes' totals and used counts, `by_idle` holds every
/// up node with an idle core keyed `(idle cores, id)`, and `empty` every
/// up node with no core in use. [`Cluster::check_invariants`] checks all
/// four against a walk.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    /// Per-job allocations, the authoritative inverse of the per-node maps.
    jobs: HashMap<JobId, Allocation>,
    up_cores: u32,
    busy_cores: u32,
    by_idle: BTreeSet<(u32, NodeId)>,
    empty: BTreeSet<NodeId>,
}

impl Cluster {
    /// A homogeneous cluster of `nodes` nodes with `cores_per_node` cores
    /// each — `Cluster::homogeneous(15, 8)` is the paper's testbed.
    pub fn homogeneous(nodes: u32, cores_per_node: u32) -> Self {
        Self::from_core_counts(&vec![cores_per_node; nodes as usize])
    }

    /// A heterogeneous cluster from explicit per-node core counts.
    pub fn from_core_counts(counts: &[u32]) -> Self {
        let nodes: Vec<Node> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| Node::new(NodeId(i as u32), c))
            .collect();
        Cluster {
            up_cores: counts.iter().sum(),
            busy_cores: 0,
            by_idle: nodes.iter().map(|n| (n.cores_total(), n.id())).collect(),
            empty: nodes.iter().map(|n| n.id()).collect(),
            nodes,
            jobs: HashMap::new(),
        }
    }

    /// Total cores across all *up* nodes.
    pub fn total_cores(&self) -> u32 {
        self.up_cores
    }

    /// Idle cores across all up nodes.
    pub fn idle_cores(&self) -> u32 {
        self.up_cores - self.busy_cores
    }

    /// Busy cores across all up nodes.
    pub fn busy_cores(&self) -> u32 {
        self.busy_cores
    }

    /// Number of nodes (up or not).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable view of a node.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0 as usize).ok_or(Error::UnknownNode(id))
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// The allocation currently held by `job`, if any.
    pub fn allocation_of(&self, job: JobId) -> Option<&Allocation> {
        self.jobs.get(&job)
    }

    /// Cores currently held by `job` (0 if none).
    pub fn cores_of(&self, job: JobId) -> u32 {
        self.jobs.get(&job).map_or(0, |a| a.total_cores())
    }

    /// Jobs currently holding cores.
    pub fn allocated_jobs(&self) -> impl Iterator<Item = (JobId, &Allocation)> {
        self.jobs.iter().map(|(&j, a)| (j, a))
    }

    /// Picks cores for a fresh allocation of `cores` cores under `policy`,
    /// without committing. Returns `None` if the request cannot be placed.
    ///
    /// `Pack` takes the most-loaded nodes first (fewest idle cores),
    /// `Spread` the least-loaded, both breaking ties by node id;
    /// `NodeExclusive` takes whole empty nodes in id order. The index walk
    /// costs O(nodes taken), not O(nodes).
    pub fn plan(&self, cores: u32, policy: AllocPolicy) -> Option<Allocation> {
        if cores == 0 {
            return Some(Allocation::empty());
        }
        if cores > self.idle_cores() {
            return None;
        }
        let mut alloc = Allocation::empty();
        let mut remaining = cores;
        // Takes `offer` cores (all of them when node-exclusive) on `node`;
        // true once the request is covered.
        let mut take = |node: NodeId, offer: u32| {
            let cores = match policy {
                // A node-exclusive tail allocation still consumes the
                // whole node.
                AllocPolicy::NodeExclusive => offer,
                _ => offer.min(remaining),
            };
            alloc.add(node, cores);
            remaining = remaining.saturating_sub(cores);
            remaining == 0
        };
        match policy {
            AllocPolicy::Pack => {
                for &(idle, node) in &self.by_idle {
                    if take(node, idle) {
                        break;
                    }
                }
            }
            AllocPolicy::Spread => {
                // Idle counts downward, each count's nodes in id order.
                let mut level = self.by_idle.last().map(|&(idle, _)| idle);
                'levels: while let Some(idle) = level {
                    let bucket = (idle, NodeId(0))..=(idle, NodeId(u32::MAX));
                    for &(_, node) in self.by_idle.range(bucket) {
                        if take(node, idle) {
                            break 'levels;
                        }
                    }
                    level = self
                        .by_idle
                        .range(..(idle, NodeId(0)))
                        .next_back()
                        .map(|&(idle, _)| idle);
                }
            }
            AllocPolicy::NodeExclusive => {
                for &node in &self.empty {
                    if take(node, self.nodes[node.0 as usize].cores_total()) {
                        break;
                    }
                }
            }
        }
        (remaining == 0).then_some(alloc)
    }

    /// Allocates `cores` cores to `job` (which must hold nothing yet).
    pub fn allocate(&mut self, job: JobId, cores: u32, policy: AllocPolicy) -> Result<Allocation> {
        assert!(
            !self.jobs.contains_key(&job),
            "{job} already holds an allocation; use expand()"
        );
        if cores > self.total_cores() {
            return Err(Error::RequestExceedsSystem {
                requested: cores,
                capacity: self.total_cores(),
            });
        }
        let alloc = self.plan(cores, policy).ok_or(Error::CoresBusy {
            node: NodeId(0),
            requested: cores,
            idle: self.idle_cores(),
        })?;
        self.commit(job, &alloc)?;
        Ok(alloc)
    }

    /// Expands `job`'s existing allocation by `extra` cores — the cluster
    /// half of *dyn_join* (paper Fig 3). The job keeps its old cores; the
    /// returned allocation is the newly added part (the "dynamically
    /// allocated hostlist" handed back through `tm_dynget()`).
    pub fn expand(&mut self, job: JobId, extra: u32, policy: AllocPolicy) -> Result<Allocation> {
        if !self.jobs.contains_key(&job) {
            return Err(Error::UnknownJob(job));
        }
        let added = self.plan(extra, policy).ok_or(Error::CoresBusy {
            node: NodeId(0),
            requested: extra,
            idle: self.idle_cores(),
        })?;
        self.commit(job, &added)?;
        Ok(added)
    }

    /// Releases part of `job`'s allocation — the cluster half of
    /// *dyn_disjoin* (paper Fig 4). Any subset may be released.
    pub fn release_partial(&mut self, job: JobId, part: &Allocation) -> Result<()> {
        let held = self.jobs.get_mut(&job).ok_or(Error::UnknownJob(job))?;
        // Validate first so a failed release leaves state untouched.
        for (node, cores) in part.entries() {
            if held.cores_on(node) < cores {
                return Err(Error::NotAllocated { job, node });
            }
        }
        for (node, cores) in part.entries() {
            held.remove(node, cores);
        }
        for (node, cores) in part.entries() {
            self.update(node, |n| n.release(job, cores));
        }
        if self.jobs[&job].total_cores() == 0 {
            self.jobs.remove(&job);
        }
        Ok(())
    }

    /// Releases everything `job` holds (normal job completion).
    pub fn release_all(&mut self, job: JobId) -> Result<Allocation> {
        let alloc = self.jobs.remove(&job).ok_or(Error::UnknownJob(job))?;
        for (node, cores) in alloc.entries() {
            self.update(node, |n| n.release(job, cores));
        }
        Ok(alloc)
    }

    /// Marks a node down, evicting every allocation on it. Returns the jobs
    /// that lost cores (candidates for spare-node reallocation — the
    /// fault-tolerance use the paper's introduction motivates).
    pub fn fail_node(&mut self, id: NodeId) -> Result<Vec<JobId>> {
        self.node(id)?;
        let victims = self.update(id, Node::fail);
        for &(job, cores) in &victims {
            if let Some(a) = self.jobs.get_mut(&job) {
                a.remove(id, cores);
                if a.total_cores() == 0 {
                    self.jobs.remove(&job);
                }
            }
        }
        Ok(victims.into_iter().map(|(j, _)| j).collect())
    }

    /// Brings a failed node back up (empty).
    pub fn repair_node(&mut self, id: NodeId) -> Result<()> {
        self.node(id)?;
        self.update(id, Node::repair);
        Ok(())
    }

    /// Installs an **exact** allocation for `job` — the restore half of
    /// crash recovery. [`Cluster::allocate`] re-plans placement against the
    /// current load, but a server rebuilding itself from a journal snapshot
    /// must re-commit the very placement that was recorded, or every later
    /// replayed decision would see a different cluster.
    pub fn adopt(&mut self, job: JobId, alloc: &Allocation) -> Result<()> {
        if self.jobs.contains_key(&job) {
            return Err(Error::InvalidState {
                job,
                operation: "adopt",
                state: "already allocated",
            });
        }
        if alloc.is_empty() {
            return Err(Error::BadConfig(format!(
                "{job}: adopt of empty allocation"
            )));
        }
        self.commit(job, alloc)
    }

    fn commit(&mut self, job: JobId, alloc: &Allocation) -> Result<()> {
        // Validate the whole placement before mutating anything.
        for (node, cores) in alloc.entries() {
            let n = self.node(node)?;
            if !n.is_up() || n.cores_idle() < cores {
                return Err(Error::CoresBusy {
                    node,
                    requested: cores,
                    idle: n.cores_idle(),
                });
            }
        }
        for (node, cores) in alloc.entries() {
            self.update(node, |n| n.acquire(job, cores));
        }
        self.jobs
            .entry(job)
            .or_insert_with(Allocation::empty)
            .merge(alloc);
        Ok(())
    }

    /// Applies `change` to node `id` and moves the node's share of the
    /// counters and its index entries from what it was to what it is. A
    /// change that leaves the node as it was (a repeated fail or repair)
    /// moves nothing.
    fn update<R>(&mut self, id: NodeId, change: impl FnOnce(&mut Node) -> R) -> R {
        let node = &mut self.nodes[id.0 as usize];
        let (was_up, was_used, was_idle) = (node.is_up(), node.cores_used(), node.cores_idle());
        let out = change(node);
        let (up, used, idle) = (node.is_up(), node.cores_used(), node.cores_idle());
        let total = node.cores_total();
        if was_up {
            self.up_cores -= total;
            self.busy_cores -= was_used;
        }
        if up {
            self.up_cores += total;
            self.busy_cores += used;
        }
        if was_idle != idle {
            if was_idle > 0 {
                self.by_idle.remove(&(was_idle, id));
            }
            if idle > 0 {
                self.by_idle.insert((idle, id));
            }
        }
        let (was_empty, empty) = (was_up && was_used == 0, up && used == 0);
        if was_empty && !empty {
            self.empty.remove(&id);
        } else if empty && !was_empty {
            self.empty.insert(id);
        }
        out
    }

    /// Debug invariant check: per-node books balance with per-job books,
    /// and the counters and the placement index match a walk of the nodes.
    pub fn check_invariants(&self) -> Result<()> {
        let mut per_node: HashMap<NodeId, u32> = HashMap::new();
        for (_, alloc) in self.allocated_jobs() {
            for (node, cores) in alloc.entries() {
                *per_node.entry(node).or_default() += cores;
            }
        }
        for n in &self.nodes {
            let from_jobs = per_node.get(&n.id()).copied().unwrap_or(0);
            let from_node: u32 = n.jobs().map(|(_, cores)| cores).sum();
            if from_node != n.cores_used() {
                return Err(Error::BadConfig(format!(
                    "{}: allocations sum to {from_node}, used count says {}",
                    n.id(),
                    n.cores_used()
                )));
            }
            if n.is_up() {
                if from_jobs != n.cores_used() {
                    return Err(Error::BadConfig(format!(
                        "{}: job books say {from_jobs}, node says {}",
                        n.id(),
                        n.cores_used()
                    )));
                }
                if n.cores_used() > n.cores_total() {
                    return Err(Error::BadConfig(format!("{} over-committed", n.id())));
                }
            } else if from_jobs != 0 || n.cores_used() != 0 {
                return Err(Error::BadConfig(format!(
                    "{} is down but has allocations",
                    n.id()
                )));
            }
        }
        let up = || self.nodes.iter().filter(|n| n.is_up());
        let walked = (
            up().map(|n| n.cores_total()).sum::<u32>(),
            up().map(|n| n.cores_used()).sum::<u32>(),
        );
        if walked != (self.up_cores, self.busy_cores) {
            return Err(Error::BadConfig(format!(
                "counters say {} up / {} busy cores, a walk says {} / {}",
                self.up_cores, self.busy_cores, walked.0, walked.1
            )));
        }
        let by_idle: BTreeSet<(u32, NodeId)> = up()
            .filter(|n| n.cores_idle() > 0)
            .map(|n| (n.cores_idle(), n.id()))
            .collect();
        if by_idle != self.by_idle {
            return Err(Error::BadConfig(
                "idle-node index differs from a walk".into(),
            ));
        }
        let empty: BTreeSet<NodeId> = up()
            .filter(|n| n.cores_used() == 0)
            .map(|n| n.id())
            .collect();
        if empty != self.empty {
            return Err(Error::BadConfig(
                "empty-node index differs from a walk".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cluster() -> Cluster {
        Cluster::homogeneous(15, 8)
    }

    #[test]
    fn capacity() {
        let c = paper_cluster();
        assert_eq!(c.total_cores(), 120);
        assert_eq!(c.idle_cores(), 120);
        assert_eq!(c.busy_cores(), 0);
        assert_eq!(c.node_count(), 15);
    }

    #[test]
    fn allocate_and_release() {
        let mut c = paper_cluster();
        let a = c.allocate(JobId(1), 20, AllocPolicy::Pack).unwrap();
        assert_eq!(a.total_cores(), 20);
        assert_eq!(c.idle_cores(), 100);
        assert_eq!(c.cores_of(JobId(1)), 20);
        c.check_invariants().unwrap();
        c.release_all(JobId(1)).unwrap();
        assert_eq!(c.idle_cores(), 120);
        assert!(c.allocation_of(JobId(1)).is_none());
        c.check_invariants().unwrap();
    }

    #[test]
    fn pack_minimises_nodes() {
        let mut c = paper_cluster();
        c.allocate(JobId(1), 4, AllocPolicy::Pack).unwrap();
        // Second small job should land on the same (most-loaded) node.
        let a2 = c.allocate(JobId(2), 4, AllocPolicy::Pack).unwrap();
        assert_eq!(a2.node_count(), 1);
        assert_eq!(c.nodes().filter(|n| n.cores_used() > 0).count(), 1);
    }

    #[test]
    fn spread_uses_fresh_nodes() {
        let mut c = paper_cluster();
        c.allocate(JobId(1), 4, AllocPolicy::Spread).unwrap();
        c.allocate(JobId(2), 4, AllocPolicy::Spread).unwrap();
        assert_eq!(c.nodes().filter(|n| n.cores_used() > 0).count(), 2);
    }

    #[test]
    fn node_exclusive_takes_whole_nodes() {
        let mut c = paper_cluster();
        let a = c
            .allocate(JobId(1), 12, AllocPolicy::NodeExclusive)
            .unwrap();
        // 12 cores at 8/node => two whole nodes (16 cores) consumed.
        assert_eq!(a.total_cores(), 16);
        assert_eq!(a.node_count(), 2);
        // A second exclusive job cannot share those nodes.
        let b = c.allocate(JobId(2), 8, AllocPolicy::NodeExclusive).unwrap();
        assert!(a.entries().all(|(n, _)| b.cores_on(n) == 0));
    }

    #[test]
    fn over_capacity_rejected() {
        let mut c = paper_cluster();
        assert!(matches!(
            c.allocate(JobId(1), 121, AllocPolicy::Pack),
            Err(Error::RequestExceedsSystem { .. })
        ));
        c.allocate(JobId(1), 120, AllocPolicy::Pack).unwrap();
        assert!(c.allocate(JobId(2), 1, AllocPolicy::Pack).is_err());
        c.check_invariants().unwrap();
    }

    #[test]
    fn expand_is_dyn_join() {
        let mut c = paper_cluster();
        c.allocate(JobId(1), 8, AllocPolicy::Pack).unwrap();
        let added = c.expand(JobId(1), 4, AllocPolicy::Pack).unwrap();
        assert_eq!(added.total_cores(), 4);
        assert_eq!(c.cores_of(JobId(1)), 12);
        c.check_invariants().unwrap();
        // Expanding an unknown job fails.
        assert!(matches!(
            c.expand(JobId(99), 4, AllocPolicy::Pack),
            Err(Error::UnknownJob(_))
        ));
    }

    #[test]
    fn partial_release_is_dyn_disjoin() {
        let mut c = paper_cluster();
        c.allocate(JobId(1), 8, AllocPolicy::Spread).unwrap();
        let added = c.expand(JobId(1), 6, AllocPolicy::Spread).unwrap();
        // Release an arbitrary subset of the added cores: 2 from one node.
        let (node, _) = added.entries().next().unwrap();
        let mut part = Allocation::empty();
        part.add(node, 2);
        c.release_partial(JobId(1), &part).unwrap();
        assert_eq!(c.cores_of(JobId(1)), 12);
        c.check_invariants().unwrap();
    }

    #[test]
    fn partial_release_validates_atomically() {
        let mut c = paper_cluster();
        c.allocate(JobId(1), 8, AllocPolicy::Pack).unwrap();
        let node = c
            .allocation_of(JobId(1))
            .unwrap()
            .entries()
            .next()
            .unwrap()
            .0;
        let mut bad = Allocation::empty();
        bad.add(node, 99);
        assert!(c.release_partial(JobId(1), &bad).is_err());
        // Nothing changed.
        assert_eq!(c.cores_of(JobId(1)), 8);
        c.check_invariants().unwrap();
    }

    #[test]
    fn node_failure_evicts() {
        let mut c = paper_cluster();
        c.allocate(JobId(1), 16, AllocPolicy::Spread).unwrap();
        let victim_node = c
            .allocation_of(JobId(1))
            .unwrap()
            .entries()
            .next()
            .unwrap()
            .0;
        let victims = c.fail_node(victim_node).unwrap();
        assert_eq!(victims, vec![JobId(1)]);
        assert!(c.total_cores() < 120);
        c.check_invariants().unwrap();
        c.repair_node(victim_node).unwrap();
        assert_eq!(c.total_cores(), 120);
        c.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "already holds an allocation")]
    fn double_allocate_panics() {
        let mut c = paper_cluster();
        c.allocate(JobId(1), 4, AllocPolicy::Pack).unwrap();
        let _ = c.allocate(JobId(1), 4, AllocPolicy::Pack);
    }

    #[test]
    fn heterogeneous_cluster() {
        let c = Cluster::from_core_counts(&[4, 8, 16]);
        assert_eq!(c.total_cores(), 28);
        assert_eq!(c.node_count(), 3);
    }
}
