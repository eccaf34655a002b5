//! The `pbs_mom` state machine.
//!
//! One mom runs per compute node. For the dynamic protocol the interesting
//! mom is the **mother superior** — the first node of a job's allocation:
//! it receives the full hostlist at job start, forwards `tm_dynget()`
//! requests to the server (ensuring at most one is in flight per job), and
//! performs the *dyn_join* / *dyn_disjoin* hostlist updates when the server
//! answers (paper Figs 3–4).
//!
//! The struct is a pure state machine: inputs are protocol messages,
//! outputs are protocol messages. The threaded daemon wires it to channels;
//! tests drive it directly.

use crate::messages::{MomToServer, ServerToMom, TmRequest, TmResponse};
use crate::reactor::Command;
use dynbatch_cluster::Allocation;
use dynbatch_core::{JobId, NodeId};
use std::collections::BTreeMap;

/// A job as tracked by its mother superior.
#[derive(Debug, Clone)]
struct LocalJob {
    /// The job's full current hostlist (only the mother superior tracks
    /// it).
    hostlist: Allocation,
    /// Whether a dynamic request is in flight.
    dyn_in_flight: bool,
}

/// What a mom emits in response to an input.
#[derive(Debug, Clone)]
pub enum MomOutput {
    /// Send to the server.
    ToServer(MomToServer),
    /// Deliver to the application process that called the TM API.
    ToApp(JobId, TmResponse),
}

/// A `pbs_mom` daemon's state.
#[derive(Debug, Clone)]
pub struct Mom {
    node: NodeId,
    jobs: BTreeMap<JobId, LocalJob>,
}

impl Mom {
    /// The mom for `node`.
    pub fn new(node: NodeId) -> Self {
        Mom {
            node,
            jobs: BTreeMap::new(),
        }
    }

    /// This mom's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Jobs for which this mom is mother superior.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The current hostlist of a job this mom mothers.
    pub fn hostlist(&self, job: JobId) -> Option<&Allocation> {
        self.jobs.get(&job).map(|j| &j.hostlist)
    }

    /// Handles a server command.
    pub fn handle_server(&mut self, msg: ServerToMom) -> Vec<MomOutput> {
        match msg {
            ServerToMom::RunJob { job, alloc } => {
                debug_assert!(
                    alloc.cores_on(self.node) > 0,
                    "mother superior must be part of the allocation"
                );
                // A re-sent RunJob (server recovering from a crash, or a
                // mom-restart replay) must not clear an in-flight dynamic
                // request: the application is still parked on its TM reply.
                let dyn_in_flight = self.jobs.get(&job).is_some_and(|j| j.dyn_in_flight);
                self.jobs.insert(
                    job,
                    LocalJob {
                        hostlist: alloc,
                        dyn_in_flight,
                    },
                );
                vec![MomOutput::ToServer(MomToServer::JobStarted {
                    job,
                    mother_superior: self.node,
                })]
            }
            ServerToMom::DynJoin { job, added } => {
                let Some(local) = self.jobs.get_mut(&job) else {
                    return vec![];
                };
                // dyn_join: the existing hosts and the new hosts merge into
                // one allocation. Only an application that actually has a
                // `tm_dynget()` in flight receives the added hostlist — a
                // scheduler-initiated malleable grow (or a grant that raced
                // a mom restart) updates the hostlist silently.
                local.hostlist.merge(&added);
                let was_in_flight = local.dyn_in_flight;
                local.dyn_in_flight = false;
                if was_in_flight {
                    vec![MomOutput::ToApp(job, TmResponse::DynGranted { added })]
                } else {
                    vec![]
                }
            }
            ServerToMom::DynReject { job } => {
                let Some(local) = self.jobs.get_mut(&job) else {
                    return vec![];
                };
                // A stale rejection (e.g. an expiry that raced a grant the
                // app already consumed) must not answer a request that is
                // no longer in flight — it would steal the reply channel of
                // the *next* request.
                let was_in_flight = local.dyn_in_flight;
                local.dyn_in_flight = false;
                if was_in_flight {
                    vec![MomOutput::ToApp(job, TmResponse::DynDenied)]
                } else {
                    vec![]
                }
            }
            ServerToMom::DynDisjoin { job, released } => {
                if let Some(local) = self.jobs.get_mut(&job) {
                    for (node, cores) in released.entries() {
                        local.hostlist.remove(node, cores);
                    }
                }
                vec![]
            }
            ServerToMom::KillJob { job } => {
                // A qdel can land while a negotiated `tm_dynget` is still
                // parked (the job is `DynQueued` at the server). Dropping
                // the job silently would strand that caller forever — the
                // server cancels the expiry timer as part of the delete, so
                // nothing else will ever answer. Deny it on the way out.
                let dyn_in_flight = self.jobs.remove(&job).is_some_and(|j| j.dyn_in_flight);
                if dyn_in_flight {
                    vec![MomOutput::ToApp(job, TmResponse::DynDenied)]
                } else {
                    vec![]
                }
            }
        }
    }

    /// Handles a TM call from an application process of `job`.
    ///
    /// Any process may call the TM API through its local mom, but dynamic
    /// requests are "always forwarded to the server through the mother
    /// superior" so only one can be pending per job (paper §III-B) — a
    /// second concurrent `tm_dynget` is denied locally.
    pub fn handle_tm(&mut self, job: JobId, req: TmRequest) -> Vec<MomOutput> {
        let Some(local) = self.jobs.get_mut(&job) else {
            // Not the mother superior for this job: a real mom would relay
            // to the MS; our drivers always call the MS directly.
            return vec![MomOutput::ToApp(job, TmResponse::DynDenied)];
        };
        match req {
            TmRequest::DynGet {
                extra_cores,
                timeout,
            } => {
                if local.dyn_in_flight {
                    return vec![MomOutput::ToApp(job, TmResponse::DynDenied)];
                }
                local.dyn_in_flight = true;
                vec![MomOutput::ToServer(MomToServer::Forwarded(
                    Command::DynGet {
                        job,
                        extra: extra_cores,
                        timeout_ms: timeout.map(|w| w.as_millis()),
                    },
                ))]
            }
            TmRequest::DynFree { released } => {
                // dyn_disjoin locally, then inform the server (paper Fig 4).
                for (node, cores) in released.entries() {
                    local.hostlist.remove(node, cores);
                }
                vec![
                    MomOutput::ToServer(MomToServer::Forwarded(Command::DynFree { job, released })),
                    MomOutput::ToApp(job, TmResponse::Freed),
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(pairs: &[(u32, u32)]) -> Allocation {
        Allocation::from_pairs(pairs.iter().map(|&(n, c)| (NodeId(n), c)))
    }

    #[test]
    fn run_job_reports_started() {
        let mut mom = Mom::new(NodeId(0));
        let out = mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8), (1, 8)]),
        });
        assert!(matches!(
            out[0],
            MomOutput::ToServer(MomToServer::JobStarted {
                job: JobId(1),
                mother_superior: NodeId(0)
            })
        ));
        assert_eq!(mom.hostlist(JobId(1)).unwrap().total_cores(), 16);
    }

    #[test]
    fn dynget_forwards_once() {
        let mut mom = Mom::new(NodeId(0));
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8)]),
        });
        let out = mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: None,
            },
        );
        assert!(matches!(
            out[0],
            MomOutput::ToServer(MomToServer::Forwarded(Command::DynGet {
                job: JobId(1),
                extra: 4,
                timeout_ms: None
            }))
        ));
        // Second concurrent request denied locally.
        let out2 = mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: None,
            },
        );
        assert!(matches!(
            out2[0],
            MomOutput::ToApp(_, TmResponse::DynDenied)
        ));
    }

    #[test]
    fn dyn_join_merges_and_replies() {
        let mut mom = Mom::new(NodeId(0));
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8)]),
        });
        mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: None,
            },
        );
        let out = mom.handle_server(ServerToMom::DynJoin {
            job: JobId(1),
            added: alloc(&[(2, 4)]),
        });
        match &out[0] {
            MomOutput::ToApp(JobId(1), TmResponse::DynGranted { added }) => {
                assert_eq!(added.total_cores(), 4);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mom.hostlist(JobId(1)).unwrap().total_cores(), 12);
        // In-flight flag cleared: the app may request again.
        let again = mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: None,
            },
        );
        assert!(matches!(again[0], MomOutput::ToServer(_)));
    }

    #[test]
    fn dyn_reject_clears_flag() {
        let mut mom = Mom::new(NodeId(0));
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8)]),
        });
        mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: None,
            },
        );
        let out = mom.handle_server(ServerToMom::DynReject { job: JobId(1) });
        assert!(matches!(out[0], MomOutput::ToApp(_, TmResponse::DynDenied)));
        let retry = mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: None,
            },
        );
        assert!(matches!(retry[0], MomOutput::ToServer(_)));
    }

    #[test]
    fn dynfree_disjoins_and_notifies() {
        let mut mom = Mom::new(NodeId(0));
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8), (1, 4)]),
        });
        let out = mom.handle_tm(
            JobId(1),
            TmRequest::DynFree {
                released: alloc(&[(1, 4)]),
            },
        );
        assert!(matches!(
            out[0],
            MomOutput::ToServer(MomToServer::Forwarded(Command::DynFree { .. }))
        ));
        assert!(matches!(out[1], MomOutput::ToApp(_, TmResponse::Freed)));
        assert_eq!(mom.hostlist(JobId(1)).unwrap().total_cores(), 8);
    }

    #[test]
    fn stale_reject_and_unsolicited_join_stay_silent() {
        let mut mom = Mom::new(NodeId(0));
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8)]),
        });
        // No request in flight: a reject produces no app reply.
        assert!(mom
            .handle_server(ServerToMom::DynReject { job: JobId(1) })
            .is_empty());
        // A scheduler-initiated grow merges the hostlist but stays silent.
        let out = mom.handle_server(ServerToMom::DynJoin {
            job: JobId(1),
            added: alloc(&[(3, 4)]),
        });
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(mom.hostlist(JobId(1)).unwrap().total_cores(), 12);
    }

    #[test]
    fn tm_call_for_unknown_job_denied() {
        let mut mom = Mom::new(NodeId(0));
        let out = mom.handle_tm(
            JobId(9),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: None,
            },
        );
        assert!(matches!(out[0], MomOutput::ToApp(_, TmResponse::DynDenied)));
    }

    #[test]
    fn kill_removes_job() {
        let mut mom = Mom::new(NodeId(0));
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8)]),
        });
        let out = mom.handle_server(ServerToMom::KillJob { job: JobId(1) });
        assert!(out.is_empty(), "no dynget in flight, nothing to answer");
        assert_eq!(mom.job_count(), 0);
    }

    /// The qdel-during-negotiation leak: killing a job whose application
    /// is parked on a negotiated `tm_dynget` must deny that caller.
    /// Pre-fix, `KillJob` dropped the job silently and the caller hung.
    #[test]
    fn kill_denies_in_flight_dynget() {
        let mut mom = Mom::new(NodeId(0));
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8)]),
        });
        mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: Some(dynbatch_core::SimDuration::from_millis(500)),
            },
        );
        let out = mom.handle_server(ServerToMom::KillJob { job: JobId(1) });
        assert!(
            matches!(out[0], MomOutput::ToApp(JobId(1), TmResponse::DynDenied)),
            "{out:?}"
        );
        assert_eq!(mom.job_count(), 0);
    }

    /// A re-sent `RunJob` (server crash recovery re-attaching the mom)
    /// must not clear the in-flight flag of a parked dynamic request —
    /// the eventual grant still has to reach the application.
    #[test]
    fn rerun_preserves_in_flight_dynget() {
        let mut mom = Mom::new(NodeId(0));
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8)]),
        });
        mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: None,
            },
        );
        // Recovery replays the job's placement.
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(&[(0, 8)]),
        });
        let out = mom.handle_server(ServerToMom::DynJoin {
            job: JobId(1),
            added: alloc(&[(2, 4)]),
        });
        assert!(
            matches!(
                &out[0],
                MomOutput::ToApp(JobId(1), TmResponse::DynGranted { .. })
            ),
            "{out:?}"
        );
    }
}
