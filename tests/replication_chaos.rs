//! Replication chaos: the 50-seed leader-kill sweep.
//!
//! Each seed derives a daemon's [`FaultPlan`] — its run drops, one-pump
//! delays and duplicates, drawn by the rule every expendable delivery
//! takes, and its follower crash/reseed cycles — and a leader-kill
//! coordinate in `total_appended` space, then drives a scripted scenario
//! on a journaled leader replicated to two followers, hosted the way the
//! daemon hosts them ([`Replicas`]). When the leader's journal passes
//! the kill coordinate the leader is abandoned (no further pumps — a
//! real crash ships nothing) and the hub promotes the highest-watermark
//! follower.
//!
//! Invariants per seed:
//!
//! 1. **Promoted ≡ crash-free at the replicated watermark** — the
//!    promoted replica's state digest and accounting log are
//!    byte-identical to the reference run at the op boundary its
//!    watermark maps to (every record is an op boundary here:
//!    `snapshot_every = 0`, one mutation record per op).
//! 2. **No acked command lost** — ops the seed marks "gated" block on
//!    `await_replicated` before acking, as the daemon does for every
//!    ack, and the failover report's `acked_lost` stays zero; the unreplicated
//!    tail is explicitly reported via `lost_records`, never silently
//!    dropped.
//! 3. **The promoted leader continues correctly** — the remaining script
//!    driven on the promoted server (fresh scheduler, journal re-enabled
//!    under the new term) ends byte-identical to the reference resumed
//!    from the same boundary by journal recovery.
//! 4. **Survivors re-seed under the new term** — the non-promoted
//!    follower converges to the promoted leader's digest after failover.
//!
//! If every follower happens to be mid-reseed at the kill (both crashed
//! by the fault plan, catch-up frames still in flight), promotion
//! correctly refuses; the seed then asserts the daemon's fallback — the
//! dead leader's own journal recovers byte-identically.

mod common;

use common::*;
use dynbatch::cluster::Cluster;
use dynbatch::core::codec::to_bytes;
use dynbatch::core::{AllocPolicy, SimDuration};
use dynbatch::daemon::{DaemonConfig, FaultPlan, Replicas};
use dynbatch::server::replication::{Follower, HubConfig, ReplicationHub};
use dynbatch::server::{Journal, PbsServer};
use dynbatch::simtime::SplitMix64;

/// Reference run (no replication, no crash): per-op journal clones,
/// digests, accounting prefixes and `total_appended` coordinates.
struct Reference {
    journals: Vec<Journal>,
    digest_at: Vec<String>,
    accounting_at: Vec<String>,
    appended_at: Vec<u64>,
    /// Fresh-server baseline (genesis only): watermark 1.
    base_journal: Journal,
    base_digest: String,
}

fn run_reference() -> Reference {
    let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    s.enable_journal(0);
    let mut m = hp_maui();
    let base_journal = s.journal().unwrap().clone();
    let base_digest = s.state_digest();
    let mut journals = Vec::new();
    let mut digest_at = Vec::new();
    let mut accounting_at = Vec::new();
    let mut appended_at = Vec::new();
    for (secs, step) in &script() {
        apply_step(&mut s, &mut m, step, t(*secs));
        journals.push(s.journal().unwrap().clone());
        digest_at.push(s.state_digest());
        accounting_at.push(accounting_text(&s));
        appended_at.push(s.journal().unwrap().total_appended());
    }
    Reference {
        journals,
        digest_at,
        accounting_at,
        appended_at,
        base_journal,
        base_digest,
    }
}

/// Maps a replicated watermark to the op boundary whose state it equals.
/// With `snapshot_every = 0` every record position past the genesis
/// snapshot is exactly one op's mutation record, so `w == 1` is the
/// fresh server and any other `w` is the last op that appended it.
fn boundary_of(reference: &Reference, w: u64) -> Option<usize> {
    if w <= 1 {
        return None;
    }
    let mut found = None;
    for (i, &a) in reference.appended_at.iter().enumerate() {
        if a == w {
            found = Some(i);
        }
        if a > w {
            break;
        }
    }
    Some(found.expect("watermark lands on an op boundary"))
}

/// Drives the remaining script (`from` onward) on `s` with a fresh
/// scheduler; returns final digest + accounting.
fn drive_rest(mut s: PbsServer, from: usize) -> (String, String) {
    let mut m = hp_maui();
    for (secs, step) in script().iter().skip(from) {
        apply_step(&mut s, &mut m, step, t(*secs));
    }
    (s.state_digest(), accounting_text(&s))
}

/// What the daemon does at a command boundary: fire the follower
/// crashes the leader's journal has reached, then pump.
fn pump(replicas: &mut Replicas, leader: &PbsServer) {
    replicas.fire_crashes(leader.journal().unwrap().total_appended());
    replicas.hub().pump(leader);
}

fn chaos_run(seed: u64, reference: &Reference) {
    let mut rng = SplitMix64::new(seed).derive(0x5245_504c);
    let total = *reference.appended_at.last().unwrap();
    // Kill somewhere past the first mutation but possibly before the end.
    let kill_at = 2 + rng.next_below(total - 1);

    let cfg = HubConfig {
        digest_every: [0u64, 4, 32][rng.next_below(3) as usize],
        ..HubConfig::default()
    };
    let deployment = DaemonConfig {
        followers: 2,
        ..DaemonConfig::default()
    };
    let plan = FaultPlan::from_seed(seed, &deployment, SimDuration::from_millis(300));
    let mut replicas = Replicas::new(plan, 2, cfg);

    let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    s.enable_journal(0);
    let mut m = hp_maui();
    pump(&mut replicas, &s); // genesis seed

    let mut acked_through = 0u64;
    let mut killed_after_op: Option<usize> = None;
    for (i, (secs, step)) in script().iter().enumerate() {
        apply_step(&mut s, &mut m, step, t(*secs));
        let appended = s.journal().unwrap().total_appended();
        if appended >= kill_at {
            // Leader dies at this boundary: nothing more is streamed.
            killed_after_op = Some(i);
            break;
        }
        pump(&mut replicas, &s);
        // ~40% of boundaries ack under the replication gate.
        if rng.chance_permille(400) {
            assert!(
                replicas.hub().await_replicated(&s, appended),
                "seed {seed}: replication gate wedged at record {appended}"
            );
            acked_through = appended;
        }
    }
    let killed_after_op = killed_after_op.expect("kill coordinate inside the script");
    let old_appended = s.journal().unwrap().total_appended();

    let hub = replicas.hub();
    match hub.fail_over(old_appended, acked_through) {
        Ok((mut promoted, report)) => {
            // Invariant 2: the gate means no acked command is ever lost.
            assert_eq!(
                report.acked_lost, 0,
                "seed {seed}: acked-but-unreplicated records lost"
            );
            assert_eq!(
                report.lost_records,
                old_appended - report.promoted_watermark,
                "seed {seed}: unreplicated tail must be reported exactly"
            );
            assert_eq!(report.new_term, 2);

            // Invariant 1: promoted ≡ crash-free reference at the
            // replicated watermark.
            let w = report.promoted_watermark;
            assert!(w >= acked_through, "seed {seed}: promoted below the gate");
            let (ref_digest, ref_accounting, resume_at) = match boundary_of(reference, w) {
                None => (reference.base_digest.clone(), String::new(), 0usize),
                Some(b) => (
                    reference.digest_at[b].clone(),
                    reference.accounting_at[b].clone(),
                    b + 1,
                ),
            };
            assert_eq!(
                promoted.state_digest(),
                ref_digest,
                "seed {seed}: promoted state diverges from reference at watermark {w}"
            );
            assert_eq!(
                accounting_text(&promoted),
                ref_accounting,
                "seed {seed}: promoted accounting diverges at watermark {w}"
            );

            // Invariant 3: the promoted leader continues the remaining
            // script exactly like a journal-recovered reference would.
            promoted.enable_journal(0); // new term, fresh genesis
            pump(&mut replicas, &promoted); // survivors re-seed under term 2
            let ref_server = match boundary_of(reference, w) {
                None => PbsServer::recover(reference.base_journal.clone()),
                Some(b) => PbsServer::recover(reference.journals[b].clone()),
            }
            .expect("reference journal replays");
            let (ref_final, ref_final_acct) = drive_rest(ref_server, resume_at);

            let mut m2 = hp_maui();
            for (secs, step) in script().iter().skip(resume_at) {
                apply_step(&mut promoted, &mut m2, step, t(*secs));
                pump(&mut replicas, &promoted);
            }
            assert_eq!(
                promoted.state_digest(),
                ref_final,
                "seed {seed}: post-failover run diverges from reference"
            );
            assert_eq!(
                accounting_text(&promoted),
                ref_final_acct,
                "seed {seed}: post-failover accounting diverges"
            );

            // Invariant 4: the surviving follower converges to the new
            // leader's encoded image under the bumped term.
            let target = promoted.journal().unwrap().total_appended();
            let hub = replicas.hub();
            assert!(
                hub.await_replicated(&promoted, target),
                "seed {seed}: survivor never converged under term 2"
            );
            let leader_image = to_bytes(&promoted.image());
            for idx in 0..hub.follower_names().len() {
                if let Some(image) = hub.follower_image(idx) {
                    assert!(
                        image == leader_image,
                        "seed {seed}: survivor {idx} diverged under term 2"
                    );
                }
            }
        }
        Err(e) => {
            // Both followers mid-reseed at the kill: promotion must
            // refuse loudly, and the daemon's fallback — recovering the
            // dead leader's own journal — loses nothing.
            assert!(
                e.contains("no live follower"),
                "seed {seed}: unexpected failover error: {e}"
            );
            let recovered = PbsServer::recover(s.take_journal().unwrap()).expect("fallback");
            assert_eq!(
                recovered.state_digest(),
                reference.digest_at[killed_after_op],
                "seed {seed}: fallback journal recovery diverged"
            );
        }
    }
}

fn sweep(seeds: std::ops::Range<u64>) {
    let reference = run_reference();
    let seeds: Vec<u64> = seeds.collect();
    dynbatch::sim::sweep::parallel_tasks(seeds.len(), 4, |i| chaos_run(seeds[i], &reference));
}

#[test]
fn replication_chaos_seeds_00_09() {
    sweep(0..10);
}

#[test]
fn replication_chaos_seeds_10_19() {
    sweep(10..20);
}

#[test]
fn replication_chaos_seeds_20_29() {
    sweep(20..30);
}

#[test]
fn replication_chaos_seeds_30_39() {
    sweep(30..40);
}

#[test]
fn replication_chaos_seeds_40_49() {
    sweep(40..50);
}

/// Satellite 3 at the suite level: the leader compacts aggressively
/// while a follower attached *after* compaction discarded the early
/// records can only catch up via snapshot transfer — and must still
/// converge byte-identically, with `total_appended` coordinates
/// unaffected by the handoff.
#[test]
fn compaction_handoff_preserves_digest_and_coordinates() {
    let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    s.enable_journal(3); // compact every 3 records
    let mut m = hp_maui();

    let mut hub = ReplicationHub::new(HubConfig::default());
    hub.add_follower("rcomp0", Follower::new());
    hub.pump(&s);

    let all = script();
    let half = all.len() / 2;
    for (secs, step) in &all[..half] {
        apply_step(&mut s, &mut m, step, t(*secs));
        hub.pump(&s);
    }
    // The early records must actually be gone (compaction happened), yet
    // total_appended keeps counting monotonically.
    let j = s.journal().unwrap();
    assert!(j.records_from(1).is_none(), "expected compacted prefix");
    let mid_appended = j.total_appended();

    // Late follower: snapshot transfer is its only way in.
    hub.add_follower("rcomp1", Follower::new());
    for (secs, step) in &all[half..] {
        apply_step(&mut s, &mut m, step, t(*secs));
        hub.pump(&s);
    }
    let target = s.journal().unwrap().total_appended();
    assert!(target > mid_appended);
    assert!(hub.await_replicated(&s, target), "catch-up wedged");
    let leader = to_bytes(&s.image());
    for idx in 0..2 {
        assert!(
            hub.follower_image(idx).expect("live follower") == leader,
            "follower {idx} diverged across the compaction handoff"
        );
    }
}
