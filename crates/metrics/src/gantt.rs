//! Schedule export: per-job Gantt rows — the raw material for external
//! plotting of a run.

use dynbatch_core::JobOutcome;
use std::fmt::Write as _;

/// One Gantt row.
#[derive(Debug, Clone, PartialEq)]
pub struct GanttRow {
    /// Job name.
    pub name: String,
    /// Submission, start and end in seconds since the run origin.
    pub submit_s: f64,
    /// Start, seconds.
    pub start_s: f64,
    /// End, seconds.
    pub end_s: f64,
    /// Final core count.
    pub cores: u32,
    /// Started by backfill?
    pub backfilled: bool,
}

/// Extracts Gantt rows in start order.
pub fn gantt_rows(outcomes: &[JobOutcome]) -> Vec<GanttRow> {
    let mut rows: Vec<GanttRow> = outcomes
        .iter()
        .map(|o| GanttRow {
            name: o.name.clone(),
            submit_s: o.submit_time.as_secs_f64(),
            start_s: o.start_time.as_secs_f64(),
            end_s: o.end_time.as_secs_f64(),
            cores: o.cores_final,
            backfilled: o.backfilled,
        })
        .collect();
    rows.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).expect("finite times"));
    rows
}

/// Renders Gantt rows as CSV (`name,submit_s,start_s,end_s,cores,backfilled`).
pub fn gantt_csv(outcomes: &[JobOutcome]) -> String {
    let mut out = String::from("name,submit_s,start_s,end_s,cores,backfilled\n");
    for r in gantt_rows(outcomes) {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.name, r.submit_s, r.start_s, r.end_s, r.cores, r.backfilled
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{JobClass, JobId, SimTime, UserId};

    fn outcome(name: &str, submit: u64, start: u64, end: u64, cores: u32) -> JobOutcome {
        JobOutcome {
            id: JobId(1),
            name: name.into(),
            user: UserId(0),
            class: JobClass::Rigid,
            cores_requested: cores,
            cores_final: cores,
            submit_time: SimTime::from_secs(submit),
            start_time: SimTime::from_secs(start),
            end_time: SimTime::from_secs(end),
            dyn_requests: 0,
            dyn_grants: 0,
            backfilled: false,
        }
    }

    #[test]
    fn rows_sorted_by_start() {
        let outs = vec![outcome("b", 0, 50, 60, 4), outcome("a", 0, 10, 20, 8)];
        let rows = gantt_rows(&outs);
        assert_eq!(rows[0].name, "a");
        assert_eq!(rows[1].name, "b");
        assert_eq!(rows[0].cores, 8);
    }

    #[test]
    fn csv_shapes() {
        let outs = vec![outcome("a", 0, 10, 20, 8)];
        let csv = gantt_csv(&outs);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("name,submit_s,start_s,end_s,cores,backfilled")
        );
        assert_eq!(lines.next(), Some("a,0,10,20,8,false"));
    }
}
