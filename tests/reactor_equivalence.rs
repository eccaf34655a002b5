//! The reactor equivalence gate: an SWF-replay command stream delivered
//! through N concurrent client connections must be **byte-identical** to
//! serial single-client application — state digest, accounting log,
//! every individual reply and the number of journal records — at
//! N ∈ {1, 8, 64}, and across 50 chaos seeds
//! whose runs include a mid-stream server crash (recovery from the
//! journal with a fresh scheduler; every acked command survives, by the
//! ack-on-append contract).
//!
//! The harness lives in `dynbatch_sim::reactor_drive`: both paths drive
//! one `BatchSim` through `BatchSim::apply_command`, and tickets are
//! pre-assigned to the stream order, so the client threads race freely
//! while the admission order — and therefore every scheduling decision —
//! is pinned. Malformed lines in the seeded stream double as the
//! unwrap-audit regression: a bad command earns a denial reply through
//! the reactor, never a panic.

use dynbatch::cluster::Cluster;
use dynbatch::core::{CredRegistry, DfsConfig, SchedulerConfig};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, FaultPlan};
use dynbatch::sim::reactor_drive::{accounting_text, DriveResult};
use dynbatch::sim::{drive_reactor, drive_serial, script_from_workload, CommandScript};
use dynbatch::workload::{parse_swf, SwfConfig};
use std::fmt::Write as _;
use std::time::Duration;

/// Synthetic-but-valid SWF text (same conventions as `swf_replay.rs`).
fn synthetic_swf(n: usize) -> String {
    let mut out = String::from("; UnixStartTime: 0\n; MaxProcs: 128\n");
    for i in 0..n {
        let submit = i * 20;
        let runtime = 120 + (i * 37) % 900;
        let procs = 1 + (i * 13) % 48;
        let req_time = runtime + runtime / 4;
        let user = i % 7;
        let _ = writeln!(
            out,
            "{} {} 0 {} {} -1 -1 {} {} -1 1 {} 1 -1 1 -1 -1 -1",
            i + 1,
            submit,
            runtime,
            procs,
            procs,
            req_time,
            user
        );
    }
    out
}

fn hp_sched() -> SchedulerConfig {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    cfg
}

/// An SWF-derived command script: qsubs from the parsed trace plus
/// seeded dynget/qstat/qdel/malformed follow-ups.
fn swf_script(n_jobs: usize, seed: u64) -> CommandScript {
    let text = synthetic_swf(n_jobs);
    let mut reg = CredRegistry::new();
    let cfg = SwfConfig {
        evolving_fraction: 0.3,
        ..Default::default()
    };
    let items = parse_swf(&text, &cfg, &mut reg).expect("parse");
    script_from_workload(&items, seed)
}

/// N ∈ {1, 8, 64} concurrent connections, no faults: every run equals
/// the serial reference byte-for-byte.
#[test]
fn reactor_equivalence_at_1_8_64_clients() {
    let script = swf_script(40, 1);
    let serial = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), None);
    assert!(
        serial.replies.len() > 40,
        "script should carry follow-up traffic beyond the qsubs"
    );
    for n in [1usize, 8, 64] {
        let r = drive_reactor(&script, Cluster::homogeneous(15, 8), hp_sched(), n, None);
        assert_eq!(
            r.digest, serial.digest,
            "state digest diverged at {n} clients"
        );
        assert_eq!(
            r.accounting, serial.accounting,
            "accounting diverged at {n} clients"
        );
        assert_eq!(r.replies, serial.replies, "replies diverged at {n} clients");
        assert_eq!(
            r.appended, serial.appended,
            "journal diverged at {n} clients"
        );
    }
}

/// 50 chaos seeds: each derives its own command stream, client count and
/// a mid-stream server-crash point. The reactor path must match the
/// serial path crashing at the same boundary — and, because hp
/// scheduling is soft-state-free, the crash-free serial run too — so no
/// acked submission was lost in the recovery.
#[test]
fn reactor_chaos_50_seeds_with_server_crash() {
    for seed in 0..50u64 {
        let n_jobs = 12 + (seed % 5) as usize * 4;
        let script = swf_script(n_jobs, seed);
        let crash = Some((seed as usize * 7 + 3) % script.steps.len());
        let n_clients = [1usize, 8, 64][seed as usize % 3];
        let serial = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), crash);
        let reactor = drive_reactor(
            &script,
            Cluster::homogeneous(15, 8),
            hp_sched(),
            n_clients,
            crash,
        );
        assert_eq!(
            reactor.digest, serial.digest,
            "seed {seed}: digest diverged ({n_clients} clients, crash at {crash:?})"
        );
        assert_eq!(
            reactor.accounting, serial.accounting,
            "seed {seed}: accounting diverged"
        );
        assert_eq!(
            reactor.replies, serial.replies,
            "seed {seed}: replies diverged"
        );
        assert_eq!(
            reactor.appended, serial.appended,
            "seed {seed}: journal length diverged"
        );
        let clean = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), None);
        assert_eq!(
            serial.digest, clean.digest,
            "seed {seed}: crashed run diverged from crash-free run"
        );
        assert_eq!(serial.accounting, clean.accounting, "seed {seed}");
    }
}

/// The malformed-input regression through the reactor (unwrap-audit
/// satellite): streams salted with bad commands must produce denial
/// replies — identical to serial — and still land the identical state.
#[test]
fn malformed_commands_deny_identically() {
    let script = swf_script(24, 42);
    let serial = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), None);
    let denials = serial
        .replies
        .iter()
        .filter(|r| matches!(r, dynbatch::server::Reply::Denied(_)))
        .count();
    assert!(
        denials > 0,
        "seeded stream must exercise at least one denial"
    );
    let r = drive_reactor(&script, Cluster::homogeneous(15, 8), hp_sched(), 8, None);
    assert_eq!(r.replies, serial.replies);
    assert_eq!(r.digest, serial.digest);
}

/// The daemon is the simulator, record for record: the same script fed
/// line by line through the reactor door of the virtual daemon ensemble —
/// advance to the step's instant, send the line, step until it is acked —
/// gives the replies, digest, accounting and journal length of the serial
/// reference, with and without two followers; with them, every follower
/// ends at the leader's journal length. Crash-free: the daemon runs a
/// command's cycle before a crash at that step, the simulator after it.
#[test]
fn daemon_matches_the_simulator_record_for_record() {
    for seed in [1u64, 7, 23] {
        let script = swf_script(30, seed);
        let serial = drive_serial(&script, Cluster::homogeneous(15, 8), hp_sched(), None);
        for followers in [0, 2] {
            let config = DaemonConfig {
                nodes: 15,
                cores_per_node: 8,
                sched: hp_sched(),
                followers,
            };
            let d = DaemonHandle::simulate(config, FaultPlan::none(seed));
            let client = d.connect();
            let replies = script
                .steps
                .iter()
                .map(|step| {
                    d.run_until(step.at);
                    client.send(&step.line);
                    d.await_reply(&client, Duration::from_secs(1))
                        .expect("acked at the step's instant")
                })
                .collect();
            while d.step() {}
            let status = d.replication_status();
            let server = d.server();
            let appended = server.journal().expect("journal on").total_appended();
            let daemon = DriveResult {
                replies,
                digest: server.state_digest(),
                accounting: accounting_text(&server),
                appended,
            };
            assert_eq!(
                daemon, serial,
                "seed {seed}, {followers} followers: diverged"
            );
            let watermarks = status.map(|s| s.follower_watermarks);
            let want = (followers > 0).then(|| vec![appended; followers as usize]);
            assert_eq!(watermarks, want, "seed {seed}: a follower fell behind");
        }
    }
}
