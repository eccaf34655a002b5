//! Crash-recovery correctness: the crash-at-every-record sweep.
//!
//! The durability invariant under test: **recovered state ≡ crash-free
//! state**. A server killed after *any* journal record, rebuilt by
//! snapshot-load + replay and then driven through the remainder of the
//! run, must end with an accounting log and a final state digest that are
//! byte-identical to a run that never crashed.
//!
//! The sweep drives a scripted scenario directly against
//! `PbsServer` + `Maui` (every input's journal position is then known
//! exactly), under the scheduler-soft-state-free configuration
//! (`paper_eval` + `highest_priority`): a fresh scheduler mid-run makes
//! identical decisions, so the comparison isolates the journal layer.

mod common;

use common::*;
use dynbatch_cluster::Cluster;
use dynbatch_core::{AllocPolicy, DfsConfig, SchedulerConfig, SimDuration, UserId};
use dynbatch_server::{Journal, PbsServer};

/// Reference run: journal on, after every op capture the journal clone
/// and the accounting text observed so far.
struct Reference {
    journals: Vec<Journal>,
    accounting_at: Vec<String>,
    usage_at: Vec<Vec<(UserId, u64)>>,
    usage_hist_at: Vec<String>,
    final_digest: String,
    final_accounting: String,
}

fn run_reference(snapshot_every: usize) -> Reference {
    let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    s.enable_journal(snapshot_every);
    let mut m = hp_maui();
    let mut journals = Vec::new();
    let mut accounting_at = Vec::new();
    let mut usage_at = Vec::new();
    let mut usage_hist_at = Vec::new();
    let mut last_total = s.journal().unwrap().total_appended();
    for (secs, step) in &script() {
        apply_step(&mut s, &mut m, step, t(*secs));
        let j = s.journal().unwrap();
        // One mutation record per op; a compacting run may add a snapshot
        // record in the same append.
        let cap = if snapshot_every == 0 { 1 } else { 2 };
        assert!(
            j.total_appended() - last_total <= cap,
            "an op must append at most one mutation record (got {} new)",
            j.total_appended() - last_total
        );
        last_total = j.total_appended();
        journals.push(j.clone());
        accounting_at.push(accounting_text(&s));
        usage_at.push(s.usage().collect());
        usage_hist_at.push(s.usage_history().fingerprint());
    }
    Reference {
        journals,
        accounting_at,
        usage_at,
        usage_hist_at,
        final_digest: s.state_digest(),
        final_accounting: accounting_text(&s),
    }
}

/// The journal `script()` writes, record kind by record kind, pinned
/// literally: a command that starts logging a no-op, stops logging a
/// change, or logs one twice moves this list — a crash sweep cannot see a
/// logged no-op, since it replays to the same state.
#[test]
fn script_journal_is_the_golden_record_sequence() {
    let reference = run_reference(0);
    let text = reference.journals.last().unwrap().to_text();
    let tags: Vec<String> = text
        .lines()
        .map(|line| {
            let record = dynbatch_core::json::parse(line).unwrap();
            record.req("rec").unwrap().as_str().unwrap().to_owned()
        })
        .collect();
    assert_eq!(tags, GOLDEN_TAGS);
}

/// Cycles that decide nothing, the `dynfree` at 30 s (which the server
/// denies) and the sweep at 450 s (which finds nothing due) write no
/// record.
const GOLDEN_TAGS: &[&str] = &[
    "snapshot",
    "submit",
    "outcome",
    "submit",
    "outcome",
    "submit",
    "outcome",
    "submit",
    "outcome",
    "dynget",
    "outcome",
    "dynget",
    "outcome",
    "submit",
    "outcome",
    "qdel",
    "node_failed",
    "outcome",
    "node_repaired",
    "finish",
    "outcome",
    "submit",
    "finish",
    "outcome",
    "finish",
];

/// Crash after op boundary `i`: recover from the journal as it stood
/// there, resume the remaining script with a **fresh** scheduler, and
/// return the final digest + accounting.
fn resume_from(reference: &Reference, i: usize) -> (String, String) {
    let mut s = PbsServer::recover(reference.journals[i].clone()).expect("journal replays");
    // Satellite-3 property en route: replaying a journal prefix yields
    // exactly the accounting records emitted up to that point.
    assert_eq!(
        accounting_text(&s),
        reference.accounting_at[i],
        "accounting after recovery at boundary {i} must match the live log"
    );
    // The fairshare bugfix's gate: the per-user usage ledger — which a
    // recovered server's first delta log re-seeds a fresh scheduler's
    // tracker from — must survive the crash byte-identically at every
    // crash point (pre-fix the charges lived only in daemon memory and
    // recovered as zero). Debug builds of `run_cycle` assert after every
    // cycle below that the tracker holds this ledger.
    assert_eq!(
        s.usage().collect::<Vec<_>>(),
        reference.usage_at[i],
        "per-user usage diverged after recovery at boundary {i}"
    );
    // Time-aware fairness gate: the decayed resource-hour accounts ride
    // the snapshot image as bit-patterns, so recovery must reproduce the
    // accumulators (value *and* decay reference instant) byte-for-byte —
    // `2^-(dt)/h` replays would drift in the last ulp otherwise.
    assert_eq!(
        s.usage_history().fingerprint(),
        reference.usage_hist_at[i],
        "decayed usage accounts diverged after recovery at boundary {i}"
    );
    s.cluster().check_invariants().unwrap();
    let mut m = hp_maui();
    for (secs, step) in script().iter().skip(i + 1) {
        apply_step(&mut s, &mut m, step, t(*secs));
    }
    (s.state_digest(), accounting_text(&s))
}

fn assert_boundary_matches(reference: &Reference, i: usize) {
    let (digest, accounting) = resume_from(reference, i);
    assert_eq!(
        digest, reference.final_digest,
        "state diverged when crashing after op {i}"
    );
    assert_eq!(
        accounting, reference.final_accounting,
        "accounting diverged when crashing after op {i}"
    );
}

/// The tentpole guarantee: crash after **every** journal record (every
/// op boundary — each op writes at most one record), recover, resume,
/// and land byte-identical to the crash-free run.
#[test]
fn crash_at_every_record_is_byte_identical() {
    let reference = run_reference(0);
    let total = reference.journals.last().unwrap().total_appended();
    assert!(
        total >= 20,
        "scenario too small to be interesting: {total} records"
    );
    for i in 0..reference.journals.len() {
        assert_boundary_matches(&reference, i);
    }
}

/// The same sweep with aggressive compaction: crash points now land on a
/// journal that is mostly a snapshot plus a short tail, exercising the
/// snapshot-load half of recovery at every position.
#[test]
fn crash_sweep_survives_compaction() {
    let reference = run_reference(4);
    for i in 0..reference.journals.len() {
        assert!(
            reference.journals[i].len() <= 5,
            "compaction must bound the log at boundary {i}"
        );
        assert_boundary_matches(&reference, i);
    }
}

/// Quick smoke for `scripts/check.sh`: the same sweep at ~5 sampled
/// crash points instead of all of them.
#[test]
fn crash_smoke_sampled_indices() {
    let reference = run_reference(0);
    let n = reference.journals.len();
    for i in [0, n / 4, n / 2, 3 * n / 4, n - 1] {
        assert_boundary_matches(&reference, i);
    }
}

/// `Journal::prefix` agrees with the journal as it actually stood at
/// each boundary (no compaction): "the first k records" really is the
/// crash image.
#[test]
fn prefix_matches_live_boundaries() {
    let reference = run_reference(0);
    let full = reference.journals.last().unwrap();
    for j in &reference.journals {
        let k = j.len();
        assert_eq!(full.prefix(k).to_text(), j.to_text());
    }
}

/// End-to-end in the simulator: a run interrupted by scripted server
/// crashes finishes with the same outcomes as a crash-free run.
#[test]
fn sim_server_crashes_preserve_outcomes() {
    use dynbatch_sim::BatchSim;
    use dynbatch_workload::WorkloadItem;

    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    let items: Vec<WorkloadItem> = (0..8)
        .map(|i| {
            let spec = if i % 3 == 2 {
                let mut spec = evolving(&format!("ev{i}"), i, 8);
                spec.dyn_timeout = Some(SimDuration::from_secs(300));
                spec
            } else {
                rigid(&format!("j{i}"), i, 8 * (1 + i % 4), 120 + 60 * i as u64)
            };
            WorkloadItem {
                at: t(5 * i as u64),
                spec,
            }
        })
        .collect();

    let run = |crashes: &[u64]| {
        let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), cfg.clone());
        sim.enable_journal(8);
        sim.load(&items);
        for &at in crashes {
            sim.inject_server_crash(t(at));
        }
        sim.run();
        assert!(sim.server().is_drained());
        accounting_text(sim.server())
    };

    let clean = run(&[]);
    let crashed = run(&[30, 200, 900]);
    assert_eq!(clean, crashed, "server crashes must not change outcomes");
}
