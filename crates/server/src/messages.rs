//! Protocol messages of the (extended) Torque workflow.
//!
//! These enums encode the arrows of the paper's Figs 2–4 below the client:
//! server → mom (run, dyn-join, dyn-disjoin, kill, and a failover's
//! reconcile) and the TM interface between an application process and its
//! local mom. The mom → server arrow is a forwarded TM call, which travels
//! as the client [`crate::reactor::Command`] it is (a `tm_dynget()` as
//! `DynGet`, a `tm_dynfree()` as `DynFree`); the server learns nothing
//! else of an application from a mom — it sent the `RunJob` itself, and an
//! application's exit reaches it on its own timer. The moms live in the
//! daemon crate (`dynbatch-daemon`), which numbers these messages on each
//! server–mom link; the simulator has no moms and hands the server its
//! `DynGet` / `DynFree` records directly.

use dynbatch_cluster::Allocation;
use dynbatch_core::JobId;

/// Server → mom commands.
#[derive(Debug, Clone)]
pub enum ServerToMom {
    /// Start a job; the receiving mom is the *mother superior* and the
    /// allocation is the full hostlist to join.
    RunJob {
        /// The job.
        job: JobId,
        /// Complete hostlist of the allocation.
        alloc: Allocation,
    },
    /// Expand a running job's allocation (*dyn_join*, paper Fig 3 step 6):
    /// sent to the mother superior with the newly added hosts.
    DynJoin {
        /// The job.
        job: JobId,
        /// The newly allocated hosts only.
        added: Allocation,
    },
    /// The server rejected the job's dynamic request; the application's
    /// `tm_dynget()` returns empty-handed and may retry later.
    DynReject {
        /// The job.
        job: JobId,
    },
    /// Contract a job's allocation (*dyn_disjoin*, paper Fig 4): the given
    /// hosts leave the job.
    DynDisjoin {
        /// The job.
        job: JobId,
        /// Hosts to release.
        released: Allocation,
    },
    /// Kill the job (qdel or walltime exceeded).
    KillJob {
        /// The job.
        job: JobId,
    },
    /// Failover reconciliation from a freshly promoted leader: `live` is
    /// the set of jobs whose dynamic requests are still pending on the
    /// promoted state. A parked `tm_dynget()` caller whose request record
    /// was lost with the dead leader (its job is not in `live`) is denied,
    /// and the job's next `tm_dynget()` is forwarded again; callers in
    /// `live` stay parked — the new leader will answer them.
    ReconcileDyn {
        /// Jobs with a live pending dynamic request on the new leader.
        live: Vec<JobId>,
    },
}

/// The extended TM (task-management) API an application process calls on
/// its local mom (paper §III-B: "This simple API consisting of two
/// functions is sufficient for dynamic resource (de)allocation").
#[derive(Debug, Clone)]
pub enum TmRequest {
    /// `tm_dynget(nodes, ppn)` — request additional cores. With a
    /// `timeout`, the request is *negotiated*: the server keeps it queued
    /// and retries every iteration until granted or timed out (the
    /// paper's future-work protocol).
    DynGet {
        /// Extra cores wanted.
        extra_cores: u32,
        /// Negotiation window; `None` = answer immediately.
        timeout: Option<dynbatch_core::SimDuration>,
    },
    /// `tm_dynfree(hostlist)` — release part of the allocation.
    DynFree {
        /// Hosts to release.
        released: Allocation,
    },
}

/// The mom's reply to a [`TmRequest`].
#[derive(Debug, Clone)]
pub enum TmResponse {
    /// `tm_dynget` succeeded; here is the dynamically allocated hostlist
    /// (feed it to MPI-2 `MPI_Comm_spawn` via the "add-host" info key).
    DynGranted {
        /// The added hosts.
        added: Allocation,
    },
    /// `tm_dynget` failed; the application continues on its current
    /// allocation (and may request again later — the paper's jobs retry
    /// once at 25 % of SET).
    DynDenied,
    /// `tm_dynfree` completed (a release "rarely fails").
    Freed,
}
