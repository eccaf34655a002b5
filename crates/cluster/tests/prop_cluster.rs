//! Property tests of the cluster substrate: no core is ever double-booked,
//! books always balance, any interleaving of allocate / expand / partial
//! release / full release / failure / repair keeps the invariants, and the
//! index-walking `Cluster::plan` places exactly as the sort over every
//! node that it replaced.

use dynbatch_cluster::{Allocation, Cluster, Node};
use dynbatch_core::testkit::{check, TestRng};
use dynbatch_core::{AllocPolicy, JobId, NodeId};

#[derive(Debug, Clone)]
enum Op {
    Allocate { job: u64, cores: u32, policy: u8 },
    Expand { job: u64, cores: u32 },
    ReleasePart { job: u64, cores: u32 },
    ReleaseAll { job: u64 },
    Fail { node: u32 },
    Repair { node: u32 },
}

fn ops(rng: &mut TestRng) -> Vec<Op> {
    let n = rng.range_usize(0, 60);
    (0..n)
        .map(|_| match rng.below(6) {
            0 => Op::Allocate {
                job: rng.below(8),
                cores: rng.range_u32(1, 40),
                policy: rng.range_u32(0, 3) as u8,
            },
            1 => Op::Expand {
                job: rng.below(8),
                cores: rng.range_u32(1, 16),
            },
            2 => Op::ReleasePart {
                job: rng.below(8),
                cores: rng.range_u32(1, 16),
            },
            3 => Op::ReleaseAll { job: rng.below(8) },
            4 => Op::Fail {
                node: rng.range_u32(0, 15),
            },
            _ => Op::Repair {
                node: rng.range_u32(0, 15),
            },
        })
        .collect()
}

fn policy_of(p: u8) -> AllocPolicy {
    match p % 3 {
        0 => AllocPolicy::Pack,
        1 => AllocPolicy::Spread,
        _ => AllocPolicy::NodeExclusive,
    }
}

const POLICIES: [AllocPolicy; 3] = [
    AllocPolicy::Pack,
    AllocPolicy::Spread,
    AllocPolicy::NodeExclusive,
];

/// Fifteen nodes of mixed widths, so index buckets hold nodes of
/// different sizes and the empty nodes are not one bucket.
const MIXED: [u32; 15] = [4, 8, 16, 8, 2, 12, 8, 6, 16, 1, 8, 4, 10, 8, 3];

/// The executable spec of [`Cluster::plan`]: collect every up node with an
/// idle core, sort by `(idle, id)` (`Pack`), `(Reverse(idle), id)`
/// (`Spread`) or keep the empty ones in id order (`NodeExclusive`), and
/// take from the front.
fn reference_plan(c: &Cluster, cores: u32, policy: AllocPolicy) -> Option<Allocation> {
    if cores == 0 {
        return Some(Allocation::empty());
    }
    let mut candidates: Vec<&Node> = c
        .nodes()
        .filter(|n| n.is_up() && n.cores_idle() > 0)
        .collect();
    match policy {
        AllocPolicy::Pack => candidates.sort_by_key(|n| (n.cores_idle(), n.id())),
        AllocPolicy::Spread => {
            candidates.sort_by_key(|n| (std::cmp::Reverse(n.cores_idle()), n.id()))
        }
        AllocPolicy::NodeExclusive => {
            candidates.retain(|n| n.cores_used() == 0);
            candidates.sort_by_key(|n| n.id());
        }
    }
    let mut alloc = Allocation::empty();
    let mut remaining = cores;
    for n in candidates {
        if remaining == 0 {
            break;
        }
        let take = match policy {
            // A node-exclusive tail allocation consumes the whole node.
            AllocPolicy::NodeExclusive => n.cores_total(),
            _ => n.cores_idle().min(remaining),
        };
        alloc.add(n.id(), take);
        remaining = remaining.saturating_sub(take);
    }
    (remaining == 0).then_some(alloc)
}

/// Widths `plan` is compared at, beside the cluster's idle count and the
/// counts one under and one past it.
const WIDTHS: [u32; 8] = [0, 1, 3, 5, 8, 11, 17, 40];

/// Asserts `plan` equals the reference for every policy at every width.
fn plans_match_reference(c: &Cluster) {
    let idle = c.idle_cores();
    let around_idle = [idle.saturating_sub(1), idle, idle + 1];
    for policy in POLICIES {
        for cores in WIDTHS.into_iter().chain(around_idle) {
            assert_eq!(
                c.plan(cores, policy),
                reference_plan(c, cores, policy),
                "{cores} cores under {policy:?}"
            );
        }
    }
}

fn interleaving_preserves_invariants(seed: u64, fresh: fn() -> Cluster) {
    check(96, seed, |rng| {
        let mut c = fresh();
        plans_match_reference(&c);
        for op in ops(rng) {
            match op {
                Op::Allocate { job, cores, policy } => {
                    let job = JobId(job);
                    if c.allocation_of(job).is_none() {
                        let _ = c.allocate(job, cores, policy_of(policy));
                    }
                }
                Op::Expand { job, cores } => {
                    let _ = c.expand(JobId(job), cores, AllocPolicy::Pack);
                }
                Op::ReleasePart { job, cores } => {
                    let job = JobId(job);
                    if let Some(alloc) = c.allocation_of(job) {
                        // Release up to `cores` cores, node by node.
                        let mut part = Allocation::empty();
                        let mut left = cores.min(alloc.total_cores());
                        for (node, held) in alloc.entries() {
                            if left == 0 {
                                break;
                            }
                            let take = held.min(left);
                            part.add(node, take);
                            left -= take;
                        }
                        if !part.is_empty() {
                            c.release_partial(job, &part)
                                .expect("subset release succeeds");
                        }
                    }
                }
                Op::ReleaseAll { job } => {
                    let _ = c.release_all(JobId(job));
                }
                Op::Fail { node } => {
                    let _ = c.fail_node(NodeId(node));
                }
                Op::Repair { node } => {
                    let _ = c.repair_node(NodeId(node));
                }
            }
            // The central invariant, after every single operation.
            if let Err(e) = c.check_invariants() {
                panic!("invariant violated: {e}");
            }
            assert!(c.busy_cores() + c.idle_cores() == c.total_cores());
            plans_match_reference(&c);
        }
    });
}

#[test]
fn any_interleaving_preserves_invariants() {
    interleaving_preserves_invariants(0xC1, || Cluster::homogeneous(15, 8));
}

#[test]
fn any_interleaving_on_mixed_nodes_preserves_invariants() {
    interleaving_preserves_invariants(0xC2, || Cluster::from_core_counts(&MIXED));
}

#[test]
fn plans_are_exact() {
    check(96, 0x91A5, |rng| {
        let cores = rng.range_u32(0, 121);
        let policy = rng.range_u32(0, 3) as u8;
        let c = Cluster::homogeneous(15, 8);
        if let Some(plan) = c.plan(cores, policy_of(policy)) {
            match policy_of(policy) {
                // Node-exclusive may round up to whole nodes.
                AllocPolicy::NodeExclusive => {
                    assert!(plan.total_cores() >= cores);
                    assert_eq!(plan.total_cores() % 8, 0);
                }
                _ => assert_eq!(plan.total_cores(), cores),
            }
        } else {
            assert!(cores > 120);
        }
    });
}

#[test]
fn failure_evicts_exactly_the_nodes_jobs() {
    check(96, 0xFA11, |rng| {
        let node = rng.range_u32(0, 15);
        let mut c = Cluster::homogeneous(15, 8);
        c.allocate(JobId(1), 60, AllocPolicy::Spread).unwrap();
        c.allocate(JobId(2), 30, AllocPolicy::Spread).unwrap();
        let before_1 = c.allocation_of(JobId(1)).unwrap().cores_on(NodeId(node));
        let before_2 = c.allocation_of(JobId(2)).unwrap().cores_on(NodeId(node));
        let victims = c.fail_node(NodeId(node)).unwrap();
        assert_eq!(victims.contains(&JobId(1)), before_1 > 0);
        assert_eq!(victims.contains(&JobId(2)), before_2 > 0);
        if let Err(e) = c.check_invariants() {
            panic!("{e}");
        }
    });
}
