//! Allocations: per-node core assignments (the "hostlist" of the TM
//! protocol).

use dynbatch_core::codec::{put_u64, Reader, Wire};
use dynbatch_core::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// A set of `(node, cores)` pairs — what the server hands a mother superior
/// as a hostlist, and what `tm_dynfree()` passes back to release.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Allocation {
    /// BTreeMap for deterministic iteration and display.
    cores: BTreeMap<NodeId, u32>,
}

impl Allocation {
    /// The empty allocation.
    pub fn empty() -> Self {
        Allocation::default()
    }

    /// Builds an allocation from pairs; duplicate nodes accumulate.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NodeId, u32)>) -> Self {
        let mut a = Allocation::empty();
        for (n, c) in pairs {
            a.add(n, c);
        }
        a
    }

    /// Adds `cores` cores on `node` (zero-core adds are ignored).
    pub fn add(&mut self, node: NodeId, cores: u32) {
        if cores > 0 {
            *self.cores.entry(node).or_insert(0) += cores;
        }
    }

    /// Removes `cores` cores on `node`.
    ///
    /// # Panics
    /// If the allocation holds fewer cores there.
    pub fn remove(&mut self, node: NodeId, cores: u32) {
        let held = self
            .cores
            .get_mut(&node)
            .unwrap_or_else(|| panic!("allocation holds nothing on {node}"));
        assert!(
            *held >= cores,
            "allocation holds {held} < {cores} on {node}"
        );
        *held -= cores;
        if *held == 0 {
            self.cores.remove(&node);
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Allocation) {
        for (&n, &c) in &other.cores {
            self.add(n, c);
        }
    }

    /// Total cores across nodes.
    pub fn total_cores(&self) -> u32 {
        self.cores.values().sum()
    }

    /// Number of distinct nodes.
    pub fn node_count(&self) -> usize {
        self.cores.len()
    }

    /// Cores held on a specific node.
    pub fn cores_on(&self, node: NodeId) -> u32 {
        self.cores.get(&node).copied().unwrap_or(0)
    }

    /// Iterates `(node, cores)` in node order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.cores.iter().map(|(&n, &c)| (n, c))
    }

    /// True iff no cores are held.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Splits off up to `cores` cores (node order) into a new allocation —
    /// used when releasing "any subset", SLURM-style restrictions not
    /// applying here.
    pub fn take(&mut self, cores: u32) -> Allocation {
        let mut taken = Allocation::empty();
        let mut remaining = cores;
        let nodes: Vec<NodeId> = self.cores.keys().copied().collect();
        for node in nodes {
            if remaining == 0 {
                break;
            }
            let here = self.cores_on(node).min(remaining);
            self.remove(node, here);
            taken.add(node, here);
            remaining -= here;
        }
        taken
    }
}

impl fmt::Display for Allocation {
    /// Torque-ish hostlist: `node000:4+node003:2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (n, c) in &self.cores {
            if !first {
                f.write_str("+")?;
            }
            write!(f, "{n}:{c}")?;
            first = false;
        }
        if first {
            f.write_str("(empty)")?;
        }
        Ok(())
    }
}

/// `(node, cores)` pairs in node order. Canonical: nodes strictly
/// ascending, every core count positive — the only allocations `add`
/// can build.
impl Wire for Allocation {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.cores.len() as u64);
        for (node, cores) in &self.cores {
            node.encode(out);
            cores.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let pairs: Vec<(NodeId, u32)> = r.ascending(|&(node, _)| node)?;
        if pairs.iter().any(|&(_, cores)| cores == 0) {
            return Err("allocation entry holds zero cores".into());
        }
        Ok(Allocation {
            cores: pairs.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let a = Allocation::from_pairs([(NodeId(0), 4), (NodeId(2), 2), (NodeId(0), 1)]);
        assert_eq!(a.total_cores(), 7);
        assert_eq!(a.node_count(), 2);
        assert_eq!(a.cores_on(NodeId(0)), 5);
        assert_eq!(a.cores_on(NodeId(1)), 0);
        assert!(!a.is_empty());
    }

    #[test]
    fn zero_adds_ignored() {
        let mut a = Allocation::empty();
        a.add(NodeId(0), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn remove_clears_empty_nodes() {
        let mut a = Allocation::from_pairs([(NodeId(0), 4)]);
        a.remove(NodeId(0), 4);
        assert!(a.is_empty());
        assert_eq!(a.node_count(), 0);
    }

    #[test]
    #[should_panic(expected = "holds nothing")]
    fn remove_unknown_panics() {
        Allocation::empty().remove(NodeId(0), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Allocation::from_pairs([(NodeId(0), 2)]);
        a.merge(&Allocation::from_pairs([(NodeId(0), 2), (NodeId(1), 8)]));
        assert_eq!(a.cores_on(NodeId(0)), 4);
        assert_eq!(a.total_cores(), 12);
    }

    #[test]
    fn take_subset() {
        let mut a = Allocation::from_pairs([(NodeId(0), 4), (NodeId(1), 4)]);
        let t = a.take(6);
        assert_eq!(t.total_cores(), 6);
        assert_eq!(a.total_cores(), 2);
        // Taking more than held takes everything.
        let rest = a.take(100);
        assert_eq!(rest.total_cores(), 2);
        assert!(a.is_empty());
    }

    #[test]
    fn display_hostlist() {
        let a = Allocation::from_pairs([(NodeId(0), 4), (NodeId(3), 2)]);
        assert_eq!(a.to_string(), "node000:4+node003:2");
        assert_eq!(Allocation::empty().to_string(), "(empty)");
    }

    #[test]
    fn entries_in_node_order() {
        let a = Allocation::from_pairs([(NodeId(5), 1), (NodeId(1), 1), (NodeId(3), 1)]);
        let nodes: Vec<u32> = a.entries().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![1, 3, 5]);
    }
}
