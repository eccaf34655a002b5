//! The `pbs_mom` state machine.
//!
//! One mom runs per compute node. For the dynamic protocol the interesting
//! mom is the **mother superior** — the first node of a job's allocation:
//! it receives the full hostlist at job start, forwards `tm_dynget()`
//! requests to the server, and performs the *dyn_join* / *dyn_disjoin*
//! hostlist updates when the server answers (paper Figs 3–4).
//!
//! A forwarded `tm_dynget()` parks its caller in the job's entry. That
//! entry is the one record of the call, so at most one is pending per job
//! (paper §III-B), and every path that ends the call answers it from
//! there: a grant (`DynJoin`), a rejection or expiry (`DynReject`),
//! `KillJob`, a crash, a failover reconcile. A `tm_dynfree()` is answered
//! in the same call and never parks.
//!
//! The struct is a pure state machine: inputs are protocol messages,
//! outputs are protocol messages. The caller handle `R` is opaque to it:
//! the threaded daemon passes each application's reply `Sender`, tests
//! pass plain tokens.

use crate::messages::{ServerToMom, TmRequest, TmResponse};
use crate::reactor::Command;
use dynbatch_cluster::Allocation;
use dynbatch_core::{JobId, NodeId};
use std::collections::BTreeMap;

/// A job as tracked by its mother superior.
#[derive(Debug)]
struct LocalJob<R> {
    /// The job's full current hostlist (only the mother superior tracks
    /// it).
    hostlist: Allocation,
    /// The `tm_dynget()` caller waiting for the server's answer.
    parked: Option<R>,
}

/// What a mom emits in response to an input.
#[derive(Debug, Clone)]
pub enum MomOutput<R> {
    /// Send to the server: a TM call spelled as the client command it is
    /// — a `tm_dynget()` as [`Command::DynGet`] (paper Fig 3 step 2), a
    /// `tm_dynfree()` as [`Command::DynFree`] once the local
    /// *dyn_disjoin* completed.
    ToServer(Command),
    /// Answer the application call `R`.
    ToApp(R, TmResponse),
}

/// A `pbs_mom` daemon's state; `R` answers an application's TM call.
#[derive(Debug)]
pub struct Mom<R> {
    node: NodeId,
    jobs: BTreeMap<JobId, LocalJob<R>>,
}

/// The answer owed to `parked`, if a caller waits.
fn answer<R>(parked: Option<R>, resp: TmResponse) -> Vec<MomOutput<R>> {
    parked
        .map(|r| MomOutput::ToApp(r, resp))
        .into_iter()
        .collect()
}

impl<R> Mom<R> {
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
    pub fn handle_server(&mut self, msg: ServerToMom) -> Vec<MomOutput<R>> {
        match msg {
            ServerToMom::RunJob { job, alloc } => {
                debug_assert!(
                    alloc.cores_on(self.node) > 0,
                    "mother superior must be part of the allocation"
                );
                // A re-sent RunJob (server recovering from a crash, or a
                // mom-restart replay) keeps the parked caller: the
                // application still waits on its TM reply.
                self.jobs
                    .entry(job)
                    .or_insert(LocalJob {
                        hostlist: Allocation::empty(),
                        parked: None,
                    })
                    .hostlist = alloc;
                vec![]
            }
            ServerToMom::DynJoin { job, added } => {
                let Some(local) = self.jobs.get_mut(&job) else {
                    return vec![];
                };
                // dyn_join: the existing hosts and the new hosts merge into
                // one allocation. Only a parked `tm_dynget()` receives the
                // added hostlist — a scheduler-initiated malleable grow (or
                // a grant that raced a mom restart) updates the hostlist
                // silently.
                local.hostlist.merge(&added);
                answer(local.parked.take(), TmResponse::DynGranted { added })
            }
            // A stale rejection (e.g. an expiry that raced a grant the app
            // already consumed) finds no parked caller and answers nobody.
            ServerToMom::DynReject { job } => answer(
                self.jobs.get_mut(&job).and_then(|j| j.parked.take()),
                TmResponse::DynDenied,
            ),
            ServerToMom::DynDisjoin { job, released } => {
                if let Some(local) = self.jobs.get_mut(&job) {
                    for (node, cores) in released.entries() {
                        local.hostlist.remove(node, cores);
                    }
                }
                vec![]
            }
            // A qdel can land while a negotiated `tm_dynget` is still
            // parked (the job is `DynQueued` at the server), and the delete
            // cancels its expiry: nothing else will ever answer it. Deny it
            // on the way out.
            ServerToMom::KillJob { job } => answer(
                self.jobs.remove(&job).and_then(|j| j.parked),
                TmResponse::DynDenied,
            ),
        }
    }

    /// Handles a TM call an application process of `job` made; `reply`
    /// is how that call is answered.
    ///
    /// Any process may call the TM API through its local mom, but dynamic
    /// requests are "always forwarded to the server through the mother
    /// superior" so only one can be pending per job (paper §III-B) — a
    /// second concurrent `tm_dynget` is denied locally.
    pub fn handle_tm(&mut self, job: JobId, req: TmRequest, reply: R) -> Vec<MomOutput<R>> {
        let Some(local) = self.jobs.get_mut(&job) else {
            // Not the mother superior for this job: a real mom would relay
            // to the MS; our drivers always call the MS directly.
            return vec![MomOutput::ToApp(reply, TmResponse::DynDenied)];
        };
        match req {
            TmRequest::DynGet {
                extra_cores,
                timeout,
            } => {
                if local.parked.is_some() {
                    return vec![MomOutput::ToApp(reply, TmResponse::DynDenied)];
                }
                local.parked = Some(reply);
                vec![MomOutput::ToServer(Command::DynGet {
                    job,
                    extra: extra_cores,
                    timeout_ms: timeout.map(|w| w.as_millis()),
                })]
            }
            TmRequest::DynFree { released } => {
                // dyn_disjoin locally, then inform the server (paper Fig 4).
                for (node, cores) in released.entries() {
                    local.hostlist.remove(node, cores);
                }
                vec![
                    MomOutput::ToServer(Command::DynFree { job, released }),
                    MomOutput::ToApp(reply, TmResponse::Freed),
                ]
            }
        }
    }

    /// Failover reconciliation: denies every parked caller whose job has
    /// no pending request on the promoted leader (not in `live`) — its
    /// request record died with the old leader. Callers in `live` stay
    /// parked; the new leader answers them.
    pub fn reconcile(&mut self, live: &[JobId]) -> Vec<MomOutput<R>> {
        self.jobs
            .iter_mut()
            .filter(|(job, _)| !live.contains(job))
            .filter_map(|(_, j)| j.parked.take())
            .map(|r| MomOutput::ToApp(r, TmResponse::DynDenied))
            .collect()
    }

    /// The mom process dies: it forgets every job and denies every parked
    /// caller.
    pub fn crash(&mut self) -> Vec<MomOutput<R>> {
        std::mem::take(&mut self.jobs)
            .into_values()
            .filter_map(|j| j.parked)
            .map(|r| MomOutput::ToApp(r, TmResponse::DynDenied))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(pairs: &[(u32, u32)]) -> Allocation {
        Allocation::from_pairs(pairs.iter().map(|&(n, c)| (NodeId(n), c)))
    }

    fn get(extra_cores: u32) -> TmRequest {
        TmRequest::DynGet {
            extra_cores,
            timeout: None,
        }
    }

    /// A mom mothering job 1 on `pairs`; callers are plain `u32` tokens.
    fn running(pairs: &[(u32, u32)]) -> Mom<u32> {
        let mut mom = Mom::new(NodeId(0));
        let out = mom.handle_server(ServerToMom::RunJob {
            job: JobId(1),
            alloc: alloc(pairs),
        });
        assert!(out.is_empty(), "RunJob answers nobody: {out:?}");
        mom
    }

    #[test]
    fn run_job_registers_the_hostlist() {
        let mom = running(&[(0, 8), (1, 8)]);
        assert_eq!(mom.job_count(), 1);
        assert_eq!(mom.hostlist(JobId(1)).unwrap().total_cores(), 16);
    }

    #[test]
    fn dynget_forwards_once() {
        let mut mom = running(&[(0, 8)]);
        let out = mom.handle_tm(JobId(1), get(4), 1);
        assert!(matches!(
            out[..],
            [MomOutput::ToServer(Command::DynGet {
                job: JobId(1),
                extra: 4,
                timeout_ms: None
            })]
        ));
        // Second concurrent request denied locally; the first stays parked.
        let out2 = mom.handle_tm(JobId(1), get(4), 2);
        assert!(matches!(
            out2[..],
            [MomOutput::ToApp(2, TmResponse::DynDenied)]
        ));
    }

    #[test]
    fn dyn_join_merges_and_replies() {
        let mut mom = running(&[(0, 8)]);
        mom.handle_tm(JobId(1), get(4), 1);
        let out = mom.handle_server(ServerToMom::DynJoin {
            job: JobId(1),
            added: alloc(&[(2, 4)]),
        });
        match &out[..] {
            [MomOutput::ToApp(1, TmResponse::DynGranted { added })] => {
                assert_eq!(added.total_cores(), 4);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mom.hostlist(JobId(1)).unwrap().total_cores(), 12);
        // The record is cleared: the app may request again.
        let again = mom.handle_tm(JobId(1), get(4), 2);
        assert!(matches!(again[..], [MomOutput::ToServer(_)]));
    }

    #[test]
    fn dyn_reject_answers_the_parked_caller() {
        let mut mom = running(&[(0, 8)]);
        mom.handle_tm(JobId(1), get(4), 1);
        let out = mom.handle_server(ServerToMom::DynReject { job: JobId(1) });
        assert!(matches!(
            out[..],
            [MomOutput::ToApp(1, TmResponse::DynDenied)]
        ));
        let retry = mom.handle_tm(JobId(1), get(4), 2);
        assert!(matches!(retry[..], [MomOutput::ToServer(_)]));
    }

    #[test]
    fn dynfree_disjoins_and_notifies() {
        let mut mom = running(&[(0, 8), (1, 4)]);
        let out = mom.handle_tm(
            JobId(1),
            TmRequest::DynFree {
                released: alloc(&[(1, 4)]),
            },
            1,
        );
        assert!(matches!(
            out[..],
            [
                MomOutput::ToServer(Command::DynFree { .. }),
                MomOutput::ToApp(1, TmResponse::Freed)
            ]
        ));
        assert_eq!(mom.hostlist(JobId(1)).unwrap().total_cores(), 8);
    }

    /// A `tm_dynfree` while a `tm_dynget` is parked is answered in the same
    /// call and leaves the parked caller for the grant.
    #[test]
    fn dynfree_leaves_the_parked_dynget_in_place() {
        let mut mom = running(&[(0, 8), (1, 4)]);
        mom.handle_tm(JobId(1), get(4), 1);
        let out = mom.handle_tm(
            JobId(1),
            TmRequest::DynFree {
                released: alloc(&[(1, 4)]),
            },
            2,
        );
        assert!(matches!(out[1], MomOutput::ToApp(2, TmResponse::Freed)));
        let out = mom.handle_server(ServerToMom::DynJoin {
            job: JobId(1),
            added: alloc(&[(1, 4)]),
        });
        assert!(matches!(
            out[..],
            [MomOutput::ToApp(1, TmResponse::DynGranted { .. })]
        ));
    }

    #[test]
    fn stale_reject_and_unsolicited_join_stay_silent() {
        let mut mom = running(&[(0, 8)]);
        // No parked caller: a reject produces no app reply.
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
        let mut mom: Mom<u32> = Mom::new(NodeId(0));
        let out = mom.handle_tm(JobId(9), get(4), 1);
        assert!(matches!(
            out[..],
            [MomOutput::ToApp(1, TmResponse::DynDenied)]
        ));
    }

    #[test]
    fn kill_removes_job() {
        let mut mom = running(&[(0, 8)]);
        let out = mom.handle_server(ServerToMom::KillJob { job: JobId(1) });
        assert!(out.is_empty(), "no dynget parked, nothing to answer");
        assert_eq!(mom.job_count(), 0);
    }

    /// The qdel-during-negotiation leak: killing a job whose application
    /// is parked on a negotiated `tm_dynget` must deny that caller.
    /// Pre-fix, `KillJob` dropped the job silently and the caller hung.
    #[test]
    fn kill_denies_in_flight_dynget() {
        let mut mom = running(&[(0, 8)]);
        mom.handle_tm(
            JobId(1),
            TmRequest::DynGet {
                extra_cores: 4,
                timeout: Some(dynbatch_core::SimDuration::from_millis(500)),
            },
            1,
        );
        let out = mom.handle_server(ServerToMom::KillJob { job: JobId(1) });
        assert!(
            matches!(out[..], [MomOutput::ToApp(1, TmResponse::DynDenied)]),
            "{out:?}"
        );
        assert_eq!(mom.job_count(), 0);
    }

    /// A re-sent `RunJob` (server crash recovery re-attaching the mom)
    /// must not drop the parked caller of a dynamic request — the eventual
    /// grant still has to reach the application.
    #[test]
    fn rerun_preserves_in_flight_dynget() {
        let mut mom = running(&[(0, 8)]);
        mom.handle_tm(JobId(1), get(4), 1);
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
                out[..],
                [MomOutput::ToApp(1, TmResponse::DynGranted { .. })]
            ),
            "{out:?}"
        );
    }

    /// Failover: a caller whose request died with the old leader is denied
    /// and its job takes the next `tm_dynget`; one whose request survived
    /// stays parked.
    #[test]
    fn reconcile_denies_only_lost_requests() {
        let mut mom = running(&[(0, 8)]);
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(2),
            alloc: alloc(&[(0, 4)]),
        });
        mom.handle_tm(JobId(1), get(4), 1);
        mom.handle_tm(JobId(2), get(4), 2);
        let out = mom.reconcile(&[JobId(2)]);
        assert!(matches!(
            out[..],
            [MomOutput::ToApp(1, TmResponse::DynDenied)]
        ));
        assert!(matches!(
            mom.handle_tm(JobId(1), get(4), 3)[..],
            [MomOutput::ToServer(_)]
        ));
        assert!(matches!(
            mom.handle_tm(JobId(2), get(4), 4)[..],
            [MomOutput::ToApp(4, TmResponse::DynDenied)]
        ));
    }

    #[test]
    fn crash_denies_every_parked_caller_and_forgets_every_job() {
        let mut mom = running(&[(0, 8)]);
        mom.handle_server(ServerToMom::RunJob {
            job: JobId(2),
            alloc: alloc(&[(0, 4)]),
        });
        mom.handle_tm(JobId(1), get(4), 1);
        let out = mom.crash();
        assert!(matches!(
            out[..],
            [MomOutput::ToApp(1, TmResponse::DynDenied)]
        ));
        assert_eq!(mom.job_count(), 0);
    }
}
