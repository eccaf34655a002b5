use super::*;
use crate::journal::{record_to_json, Journal, Record, ServerImage};
use crate::server::submit;
use crate::server::PbsServer;
use dynbatch_cluster::Cluster;
use dynbatch_core::codec::to_bytes;
use dynbatch_core::{
    AllocPolicy, DfsConfig, GroupId, JobSpec, SchedulerConfig, SimDuration, SimTime, UserId,
};
use dynbatch_sched::Maui;
use dynbatch_simtime::SplitMix64;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn rigid(name: &str, user: u32, cores: u32, secs: u64) -> JobSpec {
    JobSpec::rigid(
        name,
        UserId(user),
        GroupId(0),
        cores,
        SimDuration::from_secs(secs),
    )
}

fn hp_maui() -> Maui {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    Maui::new(cfg)
}

/// Test shorthand: a server loaded from `image` the one way an image
/// loads, a follower's install.
pub(crate) fn installed(image: &ServerImage) -> PbsServer {
    let mut follower = Follower::new();
    let seed = Frame::Snapshot {
        term: 1,
        pos: 1,
        image: Box::new(image.clone()),
    };
    follower.apply_frame(seed).expect("the image installs");
    follower.take_promoted().expect("installed above").0
}

fn cycle(server: &mut PbsServer, maui: &mut Maui, now: SimTime) {
    server.run_cycle(maui, now);
}

/// A journaled leader driven through a small but eventful script:
/// submits, scheduler starts, completions, a qdel.
fn scripted_leader(snapshot_every: usize) -> PbsServer {
    let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    s.enable_journal(snapshot_every);
    run_script(&mut s);
    s
}

fn run_script(s: &mut PbsServer) {
    let mut m = hp_maui();
    let mut ids = Vec::new();
    for k in 0..6u64 {
        let id = submit(s, rigid(&format!("J{k}"), (k % 3) as u32, 8, 50 + k), t(k)).unwrap();
        ids.push(id);
        cycle(s, &mut m, t(k));
    }
    s.execute(Record::Finish {
        job: ids[0],
        now: t(20),
    })
    .unwrap();
    s.execute(Record::Qdel {
        job: ids[5],
        now: t(21),
    })
    .unwrap();
    cycle(s, &mut m, t(22));
    s.execute(Record::Finish {
        job: ids[1],
        now: t(30),
    })
    .unwrap();
    cycle(s, &mut m, t(31));
}

/// Nobody drains a follower's delta log, so it must record nothing (it
/// used to keep an entry per start, finish and resize for as long as it
/// followed). Promoted, its first log is self-contained: the scheduler
/// rebuilds, is told the usage totals, and decides what the reference
/// decides.
#[test]
fn a_follower_records_no_deltas_and_its_first_cycle_after_promotion_rebuilds() {
    use dynbatch_sched::reference::iterate_naive;
    use dynbatch_sched::ProfileDelta;

    let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    leader.enable_journal(0);
    let mut m = hp_maui();
    // 5 000 jobs through the machine, fifteen at a time: 10 000 start
    // and finish records (and 5 000 submissions).
    let mut live = std::collections::VecDeque::new();
    for k in 0..5_000u64 {
        live.push_back(submit(&mut leader, rigid("J", (k % 7) as u32, 8, 100), t(k)).unwrap());
        if live.len() == 15 {
            leader
                .execute(Record::Finish {
                    job: live.pop_front().unwrap(),
                    now: t(k),
                })
                .unwrap();
        }
        cycle(&mut leader, &mut m, t(k));
    }
    // A backlog for the promoted server's first cycle to decide on.
    let now = t(5_000);
    for job in live.drain(..5) {
        leader.execute(Record::Finish { job, now }).unwrap();
    }
    for k in 0..8 {
        submit(&mut leader, rigid("Q", k, 8 + k, 100), now).unwrap();
    }

    let journal = leader.journal().unwrap();
    assert!(journal.total_appended() > 14_900);
    let mut follower = Follower::new();
    for f in tail_frames(journal, 1, 1) {
        follower.apply_frame(f).unwrap();
        assert_eq!(follower.server().unwrap().delta_log_len(), 0);
    }
    let (mut promoted, _) = follower.take_promoted().unwrap();

    let snap = promoted.snapshot_incremental(now);
    let log = snap.deltas.as_ref().unwrap();
    assert_eq!(log.base_epoch, 0);
    let totals = log.deltas.iter().map(|d| match *d {
        ProfileDelta::Charged { user, core_ms, at } if at == now => (user, core_ms),
        ref other => panic!("{other:?} in a first log"),
    });
    let told: Vec<_> = totals.collect();
    assert_eq!(told, promoted.usage().collect::<Vec<_>>());
    assert_eq!(told.len(), 7);
    let mut fresh = hp_maui();
    let outcome = fresh.iterate(&snap);
    assert_eq!(outcome, iterate_naive(&mut hp_maui(), &snap));
    assert!(outcome.starts.len() > 2, "the freed cores are handed out");
    assert_eq!(fresh.timeline_stats().rebuilds, 1);
    // From here on the promoted server is drained, and records.
    drop(snap);
    promoted.apply(&outcome, now);
    assert_eq!(promoted.delta_log_len(), outcome.starts.len());
}

#[test]
fn crc_framing_roundtrip() {
    let payloads: Vec<&[u8]> = vec![b"hello", b"", b"{\"k\":1}"];
    let mut wire = Vec::new();
    for p in &payloads {
        wire.extend_from_slice(&frame(p).unwrap());
    }
    let got = deframe(&wire).unwrap();
    assert!(!got.torn);
    assert_eq!(got.payloads, payloads);
}

#[test]
fn bit_flip_is_hard_error_truncation_is_torn() {
    let mut wire = frame(b"abcdef").unwrap();
    wire.extend_from_slice(&frame(b"ghijkl").unwrap());
    // Bit-flip inside the second payload: CRC catches it.
    let mut flipped = wire.clone();
    let n = flipped.len();
    flipped[n - 3] ^= 0x40;
    let err = deframe(&flipped).unwrap_err();
    assert!(err.contains("CRC mismatch"), "{err}");
    // Truncation mid-frame: torn tail, intact prefix survives.
    for cut in 1..8 + 6 {
        let got = deframe(&wire[..wire.len() - cut]).unwrap();
        assert!(got.torn, "cut {cut} should be torn");
        assert_eq!(got.payloads, vec![&b"abcdef"[..]]);
    }
}

/// The frame length field is never wrapped: a payload past `u32::MAX`
/// bytes is refused (checked on the length alone — such a payload does
/// not fit a test's memory).
#[test]
fn a_payload_past_the_u32_length_field_is_refused() {
    assert_eq!(framing::frame_len(u32::MAX as usize), Ok(u32::MAX));
    let err = framing::frame_len(u32::MAX as usize + 1).unwrap_err();
    assert!(err.contains("outgrows the u32 length field"), "{err}");
}

#[test]
fn frame_wire_roundtrip() {
    let leader = scripted_leader(0);
    let mut frames = tail_frames(leader.journal().unwrap(), 3, 1);
    frames.push(Frame::Digest {
        term: 7,
        pos: 42,
        digest: 0xdead_beef_dead_beef,
    });
    frames.push(Frame::Mark { term: 7, pos: 43 });
    let wire: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
    let (back, torn) = decode_frames(&wire).unwrap();
    assert!(!torn);
    assert_eq!(back.len(), frames.len());
    for (f, b) in frames.iter().zip(&back) {
        assert_eq!(encode_frame(b), encode_frame(f));
        if let (Frame::Record { record: r, .. }, Frame::Record { record: s, .. }) = (f, b) {
            assert_eq!(
                record_to_json(s).to_string_compact(),
                record_to_json(r).to_string_compact()
            );
        }
    }
}

/// `HubStats::bytes_sent` makes bytes per replicated record a product
/// count: on the scripted leader a record frame costs at most a third of
/// the record's compact JSON text.
#[test]
fn record_frames_cost_a_third_of_the_records_json() {
    let mut hub = ReplicationHub::new(HubConfig {
        digest_every: 0,
        ..HubConfig::default()
    });
    hub.add_follower("tst-repl-bytes", Follower::new());
    let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    leader.enable_journal(0);
    hub.pump(&leader); // the genesis snapshot seeds the follower
    let seeded = hub.stats();
    assert_eq!((seeded.snapshots_sent, seeded.records_sent), (1, 0));
    run_script(&mut leader);
    let top = leader.journal().unwrap().total_appended();
    assert!(hub.await_replicated(&leader, top));
    let stats = hub.stats();
    let records = stats.records_sent;
    assert_eq!(records, top - 1, "every record shipped once, as a record");
    let frame_bytes = (stats.bytes_sent - seeded.bytes_sent) as f64 / records as f64;
    let json = leader.journal().unwrap().records()[1..]
        .iter()
        .map(|r| record_to_json(r).to_string_compact().len())
        .sum::<usize>() as f64
        / records as f64;
    assert!(
        frame_bytes * 3.0 <= json,
        "{frame_bytes:.1} B per record frame vs {json:.1} B of JSON"
    );
}

#[test]
fn follower_reaches_leader_digest_in_order() {
    let leader = scripted_leader(0);
    let mut f = Follower::new();
    for frame in tail_frames(leader.journal().unwrap(), 1, 1) {
        f.apply_frame(frame).unwrap();
    }
    assert_eq!(f.watermark(), leader.journal().unwrap().total_appended());
    assert_eq!(f.image_bytes().unwrap(), to_bytes(&leader.image()));
    assert!(f.error().is_none());
}

#[test]
fn follower_ignores_duplicates_and_early_frames_and_checks_digests() {
    let leader = scripted_leader(0);
    let mut frames = tail_frames(leader.journal().unwrap(), 1, 1);
    let top = leader.journal().unwrap().total_appended();
    frames.push(Frame::Digest {
        term: 1,
        pos: top,
        digest: digest64(&to_bytes(&leader.image())),
    });
    // Every frame twice, and the one after it once ahead of it: the
    // duplicate is stale and the early frame is ignored (the hub resends
    // it), so the in-order pass still converges byte-identically.
    let mut f = Follower::new();
    for (i, frame) in frames.iter().enumerate() {
        if let Some(next) = frames.get(i + 1) {
            f.apply_frame(next.clone()).unwrap();
        }
        f.apply_frame(frame.clone()).unwrap();
        f.apply_frame(frame.clone()).unwrap();
    }
    assert_eq!(f.watermark(), top);
    assert_eq!(f.image_bytes().unwrap(), to_bytes(&leader.image()));
    // A wrong digest frame must poison.
    let mut bad = Follower::new();
    for frame in tail_frames(leader.journal().unwrap(), 1, 1) {
        bad.apply_frame(frame).unwrap();
    }
    assert!(bad
        .apply_frame(Frame::Digest {
            term: 1,
            pos: top,
            digest: 1,
        })
        .is_err());
    assert!(bad.error().is_some());
}

/// A test transport: `deliver` decides what becomes of each run sent to
/// the follower.
struct Wire<F> {
    follower: Follower,
    deliver: F,
}

fn wire<F: FnMut(&mut Follower, Vec<u8>)>(deliver: F) -> Wire<F> {
    let follower = Follower::new();
    Wire { follower, deliver }
}

impl<F: FnMut(&mut Follower, Vec<u8>)> FollowerLink for Wire<F> {
    fn send(&mut self, run: Vec<u8>) -> bool {
        (self.deliver)(&mut self.follower, run);
        true
    }

    fn ack(&mut self) -> Option<WatermarkReply> {
        self.follower.ack()
    }

    fn image(&mut self) -> Option<Vec<u8>> {
        self.follower.image()
    }

    fn promote(self) -> Option<(PbsServer, u64)> {
        self.follower.promote()
    }
}

/// A run delivered after a later one: the follower ignores the later
/// run's records, which lie past its watermark, and the hub resends them
/// once the watermark stalls — no error, and the replica converges.
/// (Watermarks are read every fourth pump, so two runs are in flight
/// between reads.)
#[test]
fn a_run_overtaken_by_a_later_one_converges_through_a_resend() {
    let mut hub = ReplicationHub::new(HubConfig {
        ack_every: 4,
        ..HubConfig::default()
    });
    // After the seed, every other run is held and delivered right after
    // the next one, to the seeded follower.
    let (mut sent, mut held) = (0, None);
    let overtaken = wire(move |f, run| {
        sent += 1;
        if sent % 2 == 0 {
            held = Some(run);
        } else {
            f.send(run);
            held.take().map(|early| f.send(early));
        }
    });
    hub.add_follower("tst-repl-late", overtaken);
    let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    leader.enable_journal(0);
    hub.pump(&leader); // the seed
    let mut m = hp_maui();
    for k in 0..6u64 {
        submit(&mut leader, rigid(&format!("L{k}"), 0, 8, 30), t(k)).unwrap();
        cycle(&mut leader, &mut m, t(k));
        let errors = hub.pump(&leader);
        assert!(errors.is_empty(), "{errors:?}");
    }
    let top = leader.journal().unwrap().total_appended();
    assert!(hub.await_replicated(&leader, top));
    assert!(hub.pump(&leader).is_empty());
    assert!(
        hub.stats().resends >= 1,
        "the overtaken records were resent"
    );
    assert_eq!(hub.follower_image(0).unwrap(), to_bytes(&leader.image()));
}

#[test]
fn follower_snapshot_boundary_verifies() {
    // snapshot_every = 3 → the script crosses several boundaries;
    // every Snapshot record doubles as a byte-identity check.
    let leader = scripted_leader(3);
    let mut f = Follower::new();
    for frame in tail_frames(leader.journal().unwrap(), 1, 1) {
        f.apply_frame(frame).unwrap();
    }
    assert_eq!(f.image_bytes().unwrap(), to_bytes(&leader.image()));
}

#[test]
fn catchup_via_snapshot_after_compaction() {
    // Leader compacts aggressively; a follower joining late must
    // catch up from the latest snapshot, not pos 1.
    let leader = scripted_leader(4);
    let journal = leader.journal().unwrap();
    assert!(
        journal.records_from(1).is_none(),
        "script must compact for this test"
    );
    let frames = tail_frames(journal, 1, 1);
    assert!(matches!(frames[0], Frame::Snapshot { .. }));
    let mut f = Follower::new();
    for frame in frames {
        f.apply_frame(frame).unwrap();
    }
    assert_eq!(f.watermark(), journal.total_appended());
    assert_eq!(f.image_bytes().unwrap(), to_bytes(&leader.image()));
}

#[test]
fn hub_streams_and_fails_over() {
    let mut hub = ReplicationHub::new(HubConfig {
        digest_every: 4,
        ..HubConfig::default()
    });
    hub.add_follower("tst-repl-a", Follower::new());
    hub.add_follower("tst-repl-b", Follower::new());
    let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    leader.enable_journal(0);
    let mut m = hp_maui();
    for k in 0..5u64 {
        submit(&mut leader, rigid(&format!("H{k}"), 0, 8, 30), t(k)).unwrap();
        cycle(&mut leader, &mut m, t(k));
        hub.pump(&leader);
    }
    let top = leader.journal().unwrap().total_appended();
    assert!(hub.await_replicated(&leader, top));
    assert_eq!(hub.replicated_watermark(), Some(top));
    for i in 0..2 {
        assert_eq!(hub.follower_image(i).unwrap(), to_bytes(&leader.image()));
    }
    // Leader dies; highest-watermark follower promotes byte-identically.
    let expect = leader.state_digest();
    let (promoted, report) = hub.fail_over(top, top).unwrap();
    assert_eq!(promoted.state_digest(), expect);
    assert_eq!(report.promoted_watermark, top);
    assert_eq!(report.new_term, 2);
    assert_eq!(report.lost_records, 0);
    assert_eq!(report.acked_lost, 0);
    // The survivor re-seeds under the new term and converges again.
    let mut leader = promoted;
    leader.enable_journal(0);
    submit(&mut leader, rigid("after", 1, 4, 10), t(50)).unwrap();
    let top2 = leader.journal().unwrap().total_appended();
    assert!(hub.await_replicated(&leader, top2));
    assert_eq!(hub.follower_image(0).unwrap(), to_bytes(&leader.image()));
}

/// Lost runs, duplicates and a follower that loses its state only delay
/// convergence: the hub resends from the watermark it reads and re-seeds
/// the follower whose watermark fell.
#[test]
fn hub_converges_over_a_lossy_link() {
    let mut hub = ReplicationHub::new(HubConfig {
        digest_every: 3,
        ..HubConfig::default()
    });
    for (i, name) in ["tst-replf-a", "tst-replf-b"].into_iter().enumerate() {
        // A fifth of the runs lost, a fifth duplicated, and the follower's
        // state lost at the fifth send.
        let (mut rng, mut sends) = (SplitMix64::new(11 + i as u64), 0);
        let lossy = wire(move |f, run| {
            sends += 1;
            if sends == 5 {
                *f = Follower::new();
            }
            if rng.chance_permille(200) {
                return;
            }
            if rng.chance_permille(200) {
                f.send(run.clone());
            }
            f.send(run);
        });
        hub.add_follower(name, lossy);
    }
    let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    leader.enable_journal(5);
    let mut m = hp_maui();
    for k in 0..8u64 {
        submit(
            &mut leader,
            rigid(&format!("F{k}"), (k % 2) as u32, 8, 20),
            t(k),
        )
        .unwrap();
        cycle(&mut leader, &mut m, t(k));
        assert!(hub.pump(&leader).is_empty());
    }
    let top = leader.journal().unwrap().total_appended();
    assert!(hub.await_replicated(&leader, top));
    for i in 0..2 {
        assert_eq!(hub.follower_image(i).unwrap(), to_bytes(&leader.image()));
    }
    assert!(hub.stats().snapshots_sent >= 4, "both followers re-seeded");
}

/// A follower that has heard only a record frame of the current term
/// holds no replica: failover never promotes it. A seeded peer is
/// promoted instead; with none left, the follower stays attached and
/// there is nobody to promote.
#[test]
fn failover_never_promotes_a_follower_without_a_replica() {
    let leader = scripted_leader(0);
    let top = leader.journal().unwrap().total_appended();
    let mut hub = ReplicationHub::new(HubConfig::default());
    hub.add_follower("tst-repl-seeded", Follower::new());
    assert!(hub.await_replicated(&leader, top));
    hub.add_follower("tst-repl-bare", Follower::new());
    let (_, report) = hub.fail_over(top, top).unwrap();
    assert_eq!(report.promoted, "tst-repl-seeded");
    // The new term's first record reaches the bare follower before any
    // snapshot does.
    let record = Frame::Record {
        term: report.new_term,
        pos: 2,
        record: Record::ExpireSweep { now: t(99) },
    };
    assert!(hub
        .followers_mut()
        .next()
        .unwrap()
        .send(encode_frame(&record)));
    let err = hub.fail_over(1, 1).unwrap_err();
    assert_eq!(err, "no live follower to promote");
    assert_eq!(hub.acked_watermarks().len(), 1, "the follower left the hub");
}

/// A follower poisoned by a corrupt frame leaves the ensemble as a dead
/// one would: the watermark follows the healthy follower, so the retain
/// floor a host pins to it lets the journal compact, `await_replicated`
/// returns at once, and the error is reported once.
#[test]
fn a_poisoned_follower_leaves_the_watermark_and_is_reported_once() {
    let mut hub = ReplicationHub::new(HubConfig::default());
    hub.add_follower("tst-repl-poison-a", Follower::new());
    hub.add_follower("tst-repl-poison-b", Follower::new());
    let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    leader.enable_journal(16);
    let mut errors = Vec::new();
    for k in 0..150u64 {
        let id = submit(&mut leader, rigid("P", 0, 8, 60), t(k)).unwrap();
        leader.execute(Record::Qdel { job: id, now: t(k) }).unwrap();
        if k == 5 {
            let mut corrupt = encode_frame(&Frame::Digest {
                term: 1,
                pos: 1,
                digest: 0,
            });
            let n = corrupt.len();
            corrupt[n - 1] ^= 0x40;
            assert!(hub.followers_mut().nth(1).unwrap().send(corrupt));
        }
        // What the daemon does at every command boundary.
        errors.extend(hub.stream(&mut leader));
    }
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].starts_with("tst-repl-poison-b: "), "{errors:?}");
    assert!(errors[0].contains("CRC mismatch"), "{errors:?}");
    let journal = leader.journal().unwrap();
    assert!(
        journal.len() < 64,
        "journal holds {} records",
        journal.len()
    );
    let top = journal.total_appended();
    let pumps = hub.stats().pumps;
    assert!(hub.await_replicated(&leader, top));
    assert!(hub.stats().pumps - pumps <= 2, "await_replicated wedged");
    assert_eq!(hub.replicated_watermark(), Some(top));
    assert_eq!(hub.acked_watermarks(), vec![top, 0]);
    assert!(hub.pump(&leader).is_empty(), "reported once");
}

/// A snapshot record in a record frame is not something the leader
/// sends: an unseeded follower ignores it (it takes nothing but a
/// snapshot frame), a seeded one must not take it for a boundary.
#[test]
fn snapshot_travelling_as_a_record_poisons_the_follower() {
    let leader = scripted_leader(0);
    let journal = leader.journal().unwrap();
    let image = Box::new(leader.image());
    let hostile = |pos| Frame::Record {
        term: 1,
        pos,
        record: Record::Snapshot(image.clone()),
    };

    let mut unseeded = Follower::new();
    unseeded.apply_frame(hostile(1)).unwrap();
    assert!(unseeded.server().is_none(), "the image was installed");
    assert_eq!(unseeded.watermark(), 0);

    let mut seeded = Follower::new();
    for f in tail_frames(journal, 1, 1) {
        seeded.apply_frame(f).unwrap();
    }
    let top = journal.total_appended();
    // Through the wire codec, as a corrupt stream would deliver it.
    let err = seeded
        .apply_bytes(&encode_frame(&hostile(top + 1)))
        .unwrap_err();
    assert!(
        err.contains("snapshot record after the recovery point"),
        "{err}"
    );
    assert_eq!(seeded.watermark(), top);
    assert!(seeded
        .apply_frame(Frame::Mark {
            term: 1,
            pos: top + 1
        })
        .is_err());
}

/// A follower no snapshot has seeded yet (its watermark is 0) takes
/// nothing but a snapshot: a digest check for position 0, a mark or a
/// record is ignored — no panic on the missing replica, no error — and
/// the seed that follows installs.
#[test]
fn an_unseeded_follower_ignores_all_but_a_snapshot() {
    let leader = scripted_leader(0);
    let mut frames = tail_frames(leader.journal().unwrap(), 1, 1).into_iter();
    let seed = frames.next().unwrap();
    let mut f = Follower::new();
    let digest = Frame::Digest {
        term: 1,
        pos: 0,
        digest: 0,
    };
    f.apply_bytes(&encode_frame(&digest)).unwrap();
    f.apply_frame(Frame::Mark { term: 1, pos: 1 }).unwrap();
    for frame in frames.clone() {
        f.apply_frame(frame).unwrap();
    }
    assert_eq!((f.term(), f.watermark(), f.error()), (0, 0, None));
    f.apply_frame(seed).unwrap();
    for frame in frames {
        f.apply_frame(frame).unwrap();
    }
    assert_eq!(f.image_bytes().unwrap(), to_bytes(&leader.image()));
}

/// Property: whatever a faulty transport does to a leader's true tail
/// — drop, duplicate, reorder and re-term its frames, interleave digest
/// checks for arbitrary positions with arbitrary digests — the
/// follower never panics, its first error is the answer to every later
/// frame, and within one term its watermark never decreases.
#[test]
fn prop_follower_never_panics_on_a_shuffled_stream() {
    // The true tail: every position carries its own record, a snapshot
    // position travels as its image or as a mark (compactions every
    // three records, none of the history discarded).
    let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    leader.enable_journal(3);
    leader.journal_retain_from(1);
    run_script(&mut leader);
    let journal = leader.journal().unwrap();
    let records = journal.records_from(1).expect("no history discarded");
    assert!(records.len() > 20);
    let marks = records
        .iter()
        .filter(|r| matches!(r, Record::Snapshot(_)))
        .count();
    assert!(marks > 3, "the script crosses snapshot positions");

    dynbatch_core::testkit::check(96, 0x0F01_10E4, |rng| {
        let mut frames = Vec::new();
        for (i, record) in records.iter().enumerate() {
            let pos = i as u64 + 1;
            let term = if rng.chance(0.8) { 1 } else { rng.below(4) };
            let frame = match record {
                Record::Snapshot(image) if rng.chance(0.5) => Frame::Snapshot {
                    term,
                    pos,
                    image: image.clone(),
                },
                Record::Snapshot(_) => Frame::Mark { term, pos },
                other => Frame::Record {
                    term,
                    pos,
                    record: other.clone(),
                },
            };
            if rng.chance(0.1) {
                continue; // dropped
            }
            if rng.chance(0.15) {
                frames.push(frame.clone()); // duplicated
            }
            frames.push(frame);
            if rng.chance(0.3) {
                // Low positions half the time: the ones an unseeded or
                // freshly seeded follower is at.
                let top = if rng.chance(0.5) { 4 } else { 65 };
                frames.push(Frame::Digest {
                    term: rng.below(4),
                    pos: rng.below(top),
                    digest: if rng.chance(0.5) { 0 } else { rng.next_u64() },
                });
            }
        }
        // Reorder: a whole-stream shuffle in some cases, else a few
        // long-range swaps; local jitter on top.
        if rng.chance(0.2) {
            for i in (1..frames.len()).rev() {
                frames.swap(i, rng.range_usize(0, i + 1));
            }
        }
        for _ in 0..rng.range_usize(0, 6) {
            let (a, b) = (
                rng.below(frames.len() as u64),
                rng.below(frames.len() as u64),
            );
            frames.swap(a as usize, b as usize);
        }
        for i in 1..frames.len() {
            if rng.chance(0.3) {
                frames.swap(i - 1, i);
            }
        }

        let mut f = Follower::new();
        let mut first_err: Option<String> = None;
        let (mut term, mut watermark) = (f.term(), f.watermark());
        for frame in frames {
            let result = f.apply_frame(frame);
            match &first_err {
                Some(e) => assert_eq!(result.as_ref(), Err(e), "the error is sticky"),
                None => first_err = result.err(),
            }
            if f.term() == term {
                assert!(
                    f.watermark() >= watermark,
                    "term {term}: watermark {watermark} fell to {}",
                    f.watermark()
                );
            }
            (term, watermark) = (f.term(), f.watermark());
        }
    });
}

/// A journal read back from text that holds records but no snapshot —
/// reachable through `Journal::from_text` — carries no tail from below
/// its first position, and recovers to an error, not a panic; so does an
/// empty journal.
#[test]
fn a_journal_without_a_snapshot_yields_no_frames_and_does_not_recover() {
    let leader = scripted_leader(0);
    let text = leader.journal().unwrap().to_text();
    let (genesis, records_only) = text.split_once('\n').unwrap();
    assert!(genesis.contains("snap"), "{genesis}");
    let journal = Journal::from_text(records_only).unwrap();
    assert!(journal.latest_snapshot().is_none());
    assert!(journal.first_pos() > 0);

    assert!(tail_frames(&journal, 1, 0).is_empty());
    assert_eq!(
        tail_frames(&journal, 1, 1).len(),
        journal.records().len(),
        "a retained start still streams"
    );
    for journal in [journal, Journal::new()] {
        let err = PbsServer::recover(journal).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("no snapshot record"), "{err}");
    }
}
