//! The binary encoding ([`dynbatch_core::codec`]) of an applied
//! iteration outcome, as the journal and the replication stream carry
//! it: what `apply` reads and nothing else. Reservations, the baseline
//! plan and the DFS delay charges of a grant are observability or
//! scheduler soft state; they are not encoded, and decode empty.

use dynbatch_core::codec::{put_tag, Reader, Wire};

use crate::dfs::DfsReject;
use crate::maui::{DynDecision, IterationOutcome, ResizeDecision, StartDecision};

impl Wire for DfsReject {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DfsReject::NoResources => put_tag(out, 0),
            DfsReject::PermDenied { user } => {
                put_tag(out, 1);
                user.encode(out);
            }
            DfsReject::SingleExceeded {
                job,
                would_be,
                limit,
            } => {
                put_tag(out, 2);
                job.encode(out);
                would_be.encode(out);
                limit.encode(out);
            }
            DfsReject::UserTargetExceeded {
                user,
                would_be,
                limit,
            } => {
                put_tag(out, 3);
                user.encode(out);
                would_be.encode(out);
                limit.encode(out);
            }
            DfsReject::GroupTargetExceeded {
                group,
                would_be,
                limit,
            } => {
                put_tag(out, 4);
                group.encode(out);
                would_be.encode(out);
                limit.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match r.tag(5, "reject reason")? {
            0 => DfsReject::NoResources,
            1 => DfsReject::PermDenied {
                user: Wire::decode(r)?,
            },
            2 => DfsReject::SingleExceeded {
                job: Wire::decode(r)?,
                would_be: Wire::decode(r)?,
                limit: Wire::decode(r)?,
            },
            3 => DfsReject::UserTargetExceeded {
                user: Wire::decode(r)?,
                would_be: Wire::decode(r)?,
                limit: Wire::decode(r)?,
            },
            _ => DfsReject::GroupTargetExceeded {
                group: Wire::decode(r)?,
                would_be: Wire::decode(r)?,
                limit: Wire::decode(r)?,
            },
        })
    }
}

impl Wire for ResizeDecision {
    fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        self.from_cores.encode(out);
        self.to_cores.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(ResizeDecision {
            job: Wire::decode(r)?,
            from_cores: r.u32()?,
            to_cores: r.u32()?,
        })
    }
}

impl Wire for StartDecision {
    fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        self.backfilled.encode(out);
        self.cores.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(StartDecision {
            job: Wire::decode(r)?,
            backfilled: Wire::decode(r)?,
            cores: Wire::decode(r)?,
        })
    }
}

impl Wire for DynDecision {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DynDecision::Granted {
                job,
                extra_cores,
                preempted,
                shrunk,
                ..
            } => {
                put_tag(out, 0);
                job.encode(out);
                extra_cores.encode(out);
                preempted.encode(out);
                shrunk.encode(out);
            }
            DynDecision::Rejected { job, reason } => {
                put_tag(out, 1);
                job.encode(out);
                reason.encode(out);
            }
            DynDecision::Deferred {
                job,
                reason,
                available_hint,
            } => {
                put_tag(out, 2);
                job.encode(out);
                reason.encode(out);
                available_hint.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match r.tag(3, "dyn decision")? {
            0 => DynDecision::Granted {
                job: Wire::decode(r)?,
                extra_cores: r.u32()?,
                delays: Vec::new(),
                preempted: r.seq()?,
                shrunk: r.seq()?,
            },
            1 => DynDecision::Rejected {
                job: Wire::decode(r)?,
                reason: Wire::decode(r)?,
            },
            _ => DynDecision::Deferred {
                job: Wire::decode(r)?,
                reason: Wire::decode(r)?,
                available_hint: Wire::decode(r)?,
            },
        })
    }
}

impl Wire for IterationOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.starts.encode(out);
        self.dyn_decisions.encode(out);
        self.grows.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(IterationOutcome {
            starts: r.seq()?,
            reservations: Vec::new(),
            dyn_decisions: r.seq()?,
            baseline_plan: Vec::new(),
            grows: r.seq()?,
        })
    }
}
