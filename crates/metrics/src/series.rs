//! Per-job time series — the raw material of the paper's Figs 8–11.
//!
//! The figures plot *waiting time against job submission order*, for all
//! jobs (Figs 8, 10, 11) or for one job type (Fig 9, type L). This module
//! extracts those series from completed-job outcomes.

use dynbatch_core::JobOutcome;

/// Waiting times ordered by submission (ties broken by job id, i.e.
/// submission sequence).
pub fn waits_by_submission(outcomes: &[JobOutcome]) -> Vec<(u64, f64)> {
    let mut sorted: Vec<&JobOutcome> = outcomes.iter().collect();
    sorted.sort_by_key(|o| (o.submit_time, o.id));
    sorted
        .iter()
        .enumerate()
        .map(|(i, o)| (i as u64 + 1, o.wait().as_secs_f64()))
        .collect()
}

/// Waiting times of jobs named `name`, in submission order (Fig 9:
/// `name = "L"`).
pub fn waits_of_type(outcomes: &[JobOutcome], name: &str) -> Vec<f64> {
    let mut typed: Vec<&JobOutcome> = outcomes.iter().filter(|o| o.name == name).collect();
    typed.sort_by_key(|o| (o.submit_time, o.id));
    typed.iter().map(|o| o.wait().as_secs_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{JobClass, JobId, SimTime, UserId};

    fn outcome(id: u64, name: &str, submit: u64, start: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            name: name.into(),
            user: UserId(0),
            class: JobClass::Rigid,
            cores_requested: 4,
            cores_final: 4,
            submit_time: SimTime::from_secs(submit),
            start_time: SimTime::from_secs(start),
            end_time: SimTime::from_secs(start + 10),
            dyn_requests: 0,
            dyn_grants: 0,
            backfilled: false,
        }
    }

    #[test]
    fn orders_by_submission() {
        let outs = vec![
            outcome(3, "B", 20, 50), // wait 30
            outcome(1, "A", 0, 5),   // wait 5
            outcome(2, "A", 10, 12), // wait 2
        ];
        let w = waits_by_submission(&outs);
        assert_eq!(w, vec![(1, 5.0), (2, 2.0), (3, 30.0)]);
    }

    #[test]
    fn filters_by_type() {
        let outs = vec![
            outcome(1, "L", 0, 100),
            outcome(2, "A", 1, 2),
            outcome(3, "L", 2, 42),
        ];
        assert_eq!(waits_of_type(&outs, "L"), vec![100.0, 40.0]);
        assert!(waits_of_type(&outs, "Z").is_empty());
    }
}
