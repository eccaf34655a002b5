//! Driving replayed command streams through the [`Reactor`] — the
//! equivalence harness behind the reactor's determinism gate.
//!
//! A [`CommandScript`] is a timestamped list of textual commands (built
//! from an SWF-style workload plus seeded dynamic/cancel/malformed ops).
//! Both drives feed it to one [`BatchSim`] — the world every experiment
//! runs, with its execution models, walltime reaper and negotiation
//! expiries — through its one command door, [`BatchSim::apply_command`].
//! [`drive_serial`] calls the door directly, one command at a time — the
//! reference semantics. [`drive_reactor`] delivers the same stream through
//! N real client threads racing into a [`Reactor`], tickets pre-assigned
//! to the stream order, and calls the door from the reactor's apply
//! closure. That is the only difference between the two.
//!
//! Before each step the simulator runs every event due by the step's
//! instant ([`BatchSim::run_until`]); the command then gets its own cycle
//! at that instant. A mid-stream crash is the simulator's own server
//! crash at the step's instant (recovery from the journal, fresh
//! scheduler), and after the last step the world runs until it is
//! drained. The gate: state digest, accounting log, every reply and the
//! number of journal records identical to serial, at any client count,
//! with or without the crash.

use crate::BatchSim;
use dynbatch_cluster::Cluster;
use dynbatch_core::{json, SchedulerConfig, SimTime};
use dynbatch_server::reactor::{parse_command, Reply};
use dynbatch_server::{PbsServer, Reactor, ReactorClient};
use dynbatch_simtime::SplitMix64;
use dynbatch_workload::WorkloadItem;
use std::thread;

/// One timestamped command line.
#[derive(Debug, Clone)]
pub struct ScriptStep {
    /// World time at which the command is applied.
    pub at: SimTime,
    /// The command text (possibly malformed — denials are part of the
    /// contract under test).
    pub line: String,
}

/// A deterministic command stream. Step index == reactor ticket.
#[derive(Debug, Clone)]
pub struct CommandScript {
    /// The steps, non-decreasing in `at`.
    pub steps: Vec<ScriptStep>,
}

/// Builds a command script from a workload: one `qsub` per item at its
/// submit time, plus seeded follow-up traffic — `dynget` for evolving
/// jobs, `qstat` probes, `qdel` of a sprinkle of jobs (some unknown, so
/// denials are exercised) and deterministic malformed lines. Everything
/// derives from `seed`; the same seed always yields the same bytes.
pub fn script_from_workload(items: &[WorkloadItem], seed: u64) -> CommandScript {
    use dynbatch_server::reactor::format_qsub;
    let mut rng = SplitMix64::new(seed).derive(0x5C71);
    // (at, tiebreak, line): tiebreak preserves insertion order among
    // same-instant commands after the sort.
    let mut raw: Vec<(SimTime, usize, String)> = Vec::new();
    let mut n = 0usize;
    let mut push = |raw: &mut Vec<(SimTime, usize, String)>, at: SimTime, line: String| {
        raw.push((at, n, line));
        n += 1;
    };
    for (i, item) in items.iter().enumerate() {
        push(&mut raw, item.at, format_qsub(&item.spec));
        // Valid submissions get sequential ids starting at 1; every qsub
        // the generator emits is valid, so the id is known statically.
        let id = i as u64 + 1;
        if item.spec.exec.extra_cores() > 0 {
            let delay = 30 + rng.next_below(120);
            let extra = 1 + rng.next_below(item.spec.exec.extra_cores() as u64 + 2);
            let line = if rng.chance_permille(500) {
                format!("dynget {id} {extra} {}", 30_000 + rng.next_below(90) * 1000)
            } else {
                format!("dynget {id} {extra}")
            };
            push(
                &mut raw,
                item.at + dynbatch_core::SimDuration::from_secs(delay),
                line,
            );
        }
        if rng.chance_permille(250) {
            let probe = 1 + rng.next_below(items.len() as u64 + 4); // may be unknown
            push(
                &mut raw,
                item.at + dynbatch_core::SimDuration::from_secs(5),
                format!("qstat {probe}"),
            );
        }
        if rng.chance_permille(150) {
            let victim = 1 + rng.next_below(id + 3); // may be unknown/terminal
            push(
                &mut raw,
                item.at + dynbatch_core::SimDuration::from_secs(10 + rng.next_below(200)),
                format!("qdel {victim}"),
            );
        }
        if rng.chance_permille(120) {
            let bad = match rng.next_below(4) {
                0 => "qsub name=broken cores=banana".to_owned(),
                1 => format!("dynget {id}"),
                2 => "frobnicate 7".to_owned(),
                _ => format!("dynfree {id} 0"),
            };
            push(
                &mut raw,
                item.at + dynbatch_core::SimDuration::from_secs(1),
                bad,
            );
        }
    }
    raw.sort_by_key(|(at, tie, _)| (*at, *tie));
    CommandScript {
        steps: raw
            .into_iter()
            .map(|(at, _, line)| ScriptStep { at, line })
            .collect(),
    }
}

/// What a drive run produces; every field must be byte-identical between
/// serial and reactor paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriveResult {
    /// Reply per step, indexed by ticket.
    pub replies: Vec<Reply>,
    /// Final `PbsServer::state_digest`.
    pub digest: String,
    /// Final accounting log, compact-JSON lines.
    pub accounting: String,
    /// Journal records appended over the run, recovery included.
    pub appended: u64,
}

/// The loop both drives share: a journaling [`BatchSim`] (64 records per
/// snapshot) advanced to each step's instant, `deliver` bringing the
/// step's command to [`BatchSim::apply_command`], the crash after step
/// `crash_after` as the simulator's own server crash, and the world
/// drained after the last step.
fn drive(
    script: &CommandScript,
    cluster: Cluster,
    sched: SchedulerConfig,
    crash_after: Option<usize>,
    mut deliver: impl FnMut(&mut BatchSim, usize, &ScriptStep),
) -> BatchSim {
    let mut sim = BatchSim::new(cluster, sched);
    sim.enable_journal(64);
    for (i, step) in script.steps.iter().enumerate() {
        sim.run_until(step.at);
        deliver(&mut sim, i, step);
        if crash_after == Some(i) {
            sim.inject_server_crash(step.at);
        }
    }
    sim.run();
    assert!(sim.server().is_drained(), "every drive ends drained");
    sim
}

/// What the drained world and the collected replies say.
fn drive_result(sim: &BatchSim, replies: Vec<Reply>) -> DriveResult {
    let server = sim.server();
    DriveResult {
        replies,
        digest: server.state_digest(),
        accounting: accounting_text(server),
        appended: server.journal().expect("journal on").total_appended(),
    }
}

/// Serial reference: the script applied directly, one command at a time
/// (a line that does not parse is denied without reaching the world —
/// the bytes the reactor's parse stage produces). `crash_after`: the
/// server crashes and recovers at that step's instant, after the step's
/// command applied and was acked.
pub fn drive_serial(
    script: &CommandScript,
    cluster: Cluster,
    sched: SchedulerConfig,
    crash_after: Option<usize>,
) -> DriveResult {
    let mut replies = Vec::with_capacity(script.steps.len());
    let sim = drive(script, cluster, sched, crash_after, |sim, _, step| {
        replies.push(match parse_command(&step.line) {
            Ok(cmd) => sim.apply_command(&cmd, step.at),
            Err(e) => Reply::Denied(e),
        });
    });
    drive_result(&sim, replies)
}

/// The reactor path: the same script, delivered by `n_clients` real
/// threads racing into one [`Reactor`] (step index pre-assigned as the
/// ticket, commands round-robined over connections); the host admits
/// exactly one ticket per step into the same loop as serial.
pub fn drive_reactor(
    script: &CommandScript,
    cluster: Cluster,
    sched: SchedulerConfig,
    n_clients: usize,
    crash_after: Option<usize>,
) -> DriveResult {
    assert!(n_clients > 0);
    let mut reactor = Reactor::new();
    // Replies must never spill into the slow-reader overflow path here:
    // clients pipeline every command before reading anything back.
    reactor.set_reply_capacity(script.steps.len() + 1);
    let clients: Vec<ReactorClient> = (0..n_clients).map(|_| reactor.connect()).collect();
    let mut replies: Vec<Option<Reply>> = vec![None; script.steps.len()];

    let sim = thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, client) in clients.into_iter().enumerate() {
            let steps = &script.steps;
            handles.push(scope.spawn(move || {
                // Send this connection's share (true interleaving: all
                // clients race), then collect its replies — FIFO per
                // connection, so they pair with the sent tickets in order.
                let mine: Vec<u64> = (0..steps.len() as u64)
                    .filter(|t| *t as usize % n_clients == c)
                    .collect();
                for &t in &mine {
                    client.send_ticketed(t, &steps[t as usize].line);
                }
                let mut got: Vec<(u64, Reply)> = Vec::with_capacity(mine.len());
                for &t in &mine {
                    let r = client.recv().expect("reactor dropped before replying");
                    got.push((t, r));
                }
                got
            }));
        }

        // Ticket `i` is admitted at step `i` — whatever order the threads'
        // sends arrived in — and acked by the batch's group commit.
        let sim = drive(script, cluster, sched, crash_after, |sim, i, step| {
            while reactor.next_apply() <= i as u64 {
                let polled =
                    reactor.poll_bounded(i as u64 + 1, |_, cmd| sim.apply_command(cmd, step.at));
                if polled == 0 {
                    thread::yield_now();
                }
            }
        });

        for h in handles {
            for (t, r) in h.join().expect("client thread") {
                replies[t as usize] = Some(r);
            }
        }
        sim
    });

    drive_result(
        &sim,
        replies
            .into_iter()
            .map(|r| r.expect("every ticket must be answered"))
            .collect(),
    )
}

/// Accounting log as compact-JSON lines (shared digest format).
pub fn accounting_text(s: &PbsServer) -> String {
    s.accounting()
        .outcomes()
        .iter()
        .map(|o| json::model::outcome_to_json(o).to_string_compact())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{DfsConfig, ExecutionModel, GroupId, JobSpec, SimDuration, UserId};

    fn hp_sched() -> SchedulerConfig {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg
    }

    fn small_workload(n: usize) -> Vec<WorkloadItem> {
        (0..n)
            .map(|i| {
                let spec = if i % 4 == 2 {
                    JobSpec::evolving(
                        format!("ev{i}"),
                        UserId(i as u32 % 5),
                        GroupId(0),
                        4 + (i as u32 % 3) * 4,
                        ExecutionModel::esp_evolving(600 + 40 * i as u64, 400, 4),
                    )
                } else {
                    JobSpec::rigid(
                        format!("j{i}"),
                        UserId(i as u32 % 5),
                        GroupId(0),
                        1 + (i as u32 * 13) % 48,
                        SimDuration::from_secs(120 + (i as u64 * 37) % 900),
                    )
                };
                WorkloadItem {
                    at: SimTime::from_secs(20 * i as u64),
                    spec,
                }
            })
            .collect()
    }

    #[test]
    fn script_generation_is_deterministic() {
        let items = small_workload(12);
        let a = script_from_workload(&items, 7);
        let b = script_from_workload(&items, 7);
        let lines = |s: &CommandScript| s.steps.iter().map(|x| x.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert!(a.steps.len() >= items.len());
        assert!(a.steps.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn reactor_path_matches_serial_small() {
        let items = small_workload(10);
        let script = script_from_workload(&items, 3);
        let serial = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), None);
        for n in [1, 3] {
            let r = drive_reactor(&script, Cluster::homogeneous(15, 8), hp_sched(), n, None);
            assert_eq!(r, serial, "reactor path diverged at {n} clients");
        }
    }

    /// How many records the serial path journals for a fixed script,
    /// pinned: every command that changed state logs once, a denied or
    /// no-op one not at all, and a crash-recovery continues the count. The
    /// drained world journals every finish the script's jobs reach, the
    /// simulator's own request points and a walltime kill, not just the
    /// finishes due before the last step.
    #[test]
    fn serial_drive_appends_a_pinned_number_of_records() {
        let script = script_from_workload(&small_workload(10), 3);
        for crash in [None, Some(script.steps.len() / 2)] {
            let serial = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), crash);
            assert_eq!(serial.appended, 37, "crash after {crash:?}");
        }
    }

    #[test]
    fn crash_mid_stream_matches_serial_crash() {
        let items = small_workload(10);
        let script = script_from_workload(&items, 11);
        let crash = Some(script.steps.len() / 2);
        let serial = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), crash);
        let reactor = drive_reactor(&script, Cluster::homogeneous(15, 8), hp_sched(), 2, crash);
        assert_eq!(reactor, serial);
        // hp scheduling is soft-state-free: the crashed run's final state
        // equals the crash-free run's too.
        let clean = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), None);
        assert_eq!(serial.digest, clean.digest);
        assert_eq!(serial.accounting, clean.accounting);
    }

    #[test]
    fn static_fairshare_is_fed_through_a_crash() {
        // Fairshare at a weight that reorders the queue, under a DFS cap so
        // grants are charged to slates; `qdel`s and `dynget`s come with the
        // script, spread over 100 min so that jobs finish and a fairshare
        // window turns. Debug builds of `run_cycle` check at every cycle,
        // before and after the recovery, that the tracker holds the usage
        // ledger and that no slate outlives its job.
        let mut sched = SchedulerConfig::paper_eval();
        sched.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
        sched.fairshare.enabled = true;
        sched.priority.fairshare_weight = 600.0;
        let mut items = small_workload(40);
        for (i, item) in items.iter_mut().enumerate() {
            item.at = SimTime::from_secs(150 * i as u64);
        }
        let script = script_from_workload(&items, 5);
        let has = |word| script.steps.iter().any(|s| s.line.starts_with(word));
        assert!(has("qdel") && has("dynget"));
        let cluster = || Cluster::homogeneous(6, 8);
        let clean = drive_serial(&script, cluster(), sched.clone(), None);
        assert!(
            clean.accounting.lines().count() > 15,
            "jobs ran and finished"
        );
        drive_serial(&script, cluster(), sched, Some(script.steps.len() / 2));
    }
}
