//! A single compute node.

use dynbatch_core::{JobId, NodeId};
use std::collections::BTreeMap;

/// Node availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Healthy and schedulable.
    Up,
    /// Failed; holds no allocations and is not schedulable.
    Down,
}

/// A compute node: a core count plus the per-job allocation ledger
/// (what a `pbs_mom` tracks for its host).
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    cores_total: u32,
    state: NodeState,
    /// The sum of `allocations`, kept so every count is O(1).
    used: u32,
    /// BTreeMap for deterministic iteration order.
    allocations: BTreeMap<JobId, u32>,
}

impl Node {
    /// A fresh, idle node.
    pub fn new(id: NodeId, cores_total: u32) -> Self {
        assert!(cores_total > 0, "a node needs at least one core");
        Node {
            id,
            cores_total,
            state: NodeState::Up,
            used: 0,
            allocations: BTreeMap::new(),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Installed cores.
    pub fn cores_total(&self) -> u32 {
        self.cores_total
    }

    /// Cores currently allocated to jobs.
    pub fn cores_used(&self) -> u32 {
        self.used
    }

    /// Cores currently free (zero when down).
    pub fn cores_idle(&self) -> u32 {
        if self.is_up() {
            self.cores_total - self.used
        } else {
            0
        }
    }

    /// Current state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// True iff the node is up: its allocations are valid and new ones
    /// may be placed here.
    pub fn is_up(&self) -> bool {
        self.state == NodeState::Up
    }

    /// Cores `job` holds on this node.
    pub fn cores_of(&self, job: JobId) -> u32 {
        self.allocations.get(&job).copied().unwrap_or(0)
    }

    /// Jobs with cores on this node, in deterministic order.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, u32)> + '_ {
        self.allocations.iter().map(|(&j, &c)| (j, c))
    }

    /// Gives `cores` cores to `job`.
    ///
    /// # Panics
    /// On over-commit or if the node is down — callers validate first;
    /// hitting this is a cluster-bookkeeping bug.
    pub(crate) fn acquire(&mut self, job: JobId, cores: u32) {
        assert!(self.is_up(), "{} is down", self.id);
        assert!(
            self.used + cores <= self.cores_total,
            "{} over-committed: {} + {cores} > {}",
            self.id,
            self.used,
            self.cores_total
        );
        *self.allocations.entry(job).or_insert(0) += cores;
        self.used += cores;
    }

    /// Takes `cores` cores back from `job`.
    ///
    /// # Panics
    /// If the job does not hold that many cores here.
    pub(crate) fn release(&mut self, job: JobId, cores: u32) {
        let held = self
            .allocations
            .get_mut(&job)
            .unwrap_or_else(|| panic!("{job} holds nothing on {}", self.id));
        assert!(
            *held >= cores,
            "{job} holds {held} < {cores} on {}",
            self.id
        );
        *held -= cores;
        if *held == 0 {
            self.allocations.remove(&job);
        }
        self.used -= cores;
    }

    /// Fails the node: drops all allocations and returns them.
    pub(crate) fn fail(&mut self) -> Vec<(JobId, u32)> {
        self.state = NodeState::Down;
        self.used = 0;
        std::mem::take(&mut self.allocations).into_iter().collect()
    }

    /// Returns a failed node to service.
    pub(crate) fn repair(&mut self) {
        self.state = NodeState::Up;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node() {
        let n = Node::new(NodeId(0), 8);
        assert_eq!(n.cores_total(), 8);
        assert_eq!(n.cores_idle(), 8);
        assert_eq!(n.cores_used(), 0);
        assert!(n.is_up());
    }

    #[test]
    fn acquire_release_cycle() {
        let mut n = Node::new(NodeId(0), 8);
        n.acquire(JobId(1), 3);
        n.acquire(JobId(2), 2);
        assert_eq!(n.cores_used(), 5);
        assert_eq!(n.cores_idle(), 3);
        assert_eq!(n.cores_of(JobId(1)), 3);
        n.release(JobId(1), 3);
        assert_eq!(n.cores_of(JobId(1)), 0);
        assert_eq!(n.cores_idle(), 6);
        assert_eq!(n.jobs().count(), 1);
    }

    #[test]
    fn incremental_acquire_merges() {
        let mut n = Node::new(NodeId(0), 8);
        n.acquire(JobId(1), 2);
        n.acquire(JobId(1), 3);
        assert_eq!(n.cores_of(JobId(1)), 5);
        n.release(JobId(1), 1);
        assert_eq!(n.cores_of(JobId(1)), 4);
    }

    #[test]
    #[should_panic(expected = "over-committed")]
    fn overcommit_panics() {
        let mut n = Node::new(NodeId(0), 4);
        n.acquire(JobId(1), 5);
    }

    #[test]
    #[should_panic(expected = "holds nothing")]
    fn release_unknown_panics() {
        let mut n = Node::new(NodeId(0), 4);
        n.release(JobId(1), 1);
    }

    #[test]
    fn failure_and_repair() {
        let mut n = Node::new(NodeId(0), 8);
        n.acquire(JobId(1), 4);
        let victims = n.fail();
        assert_eq!(victims, vec![(JobId(1), 4)]);
        assert_eq!(n.state(), NodeState::Down);
        assert_eq!(n.cores_idle(), 0);
        n.repair();
        assert!(n.is_up());
        assert_eq!(n.cores_idle(), 8);
    }
}
