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
    hub.add_follower("tst-repl-bytes");
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
    hub.shutdown();
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
fn follower_tolerates_reorder_dup_and_checks_digests() {
    let leader = scripted_leader(0);
    let mut frames = tail_frames(leader.journal().unwrap(), 1, 1);
    let top = leader.journal().unwrap().total_appended();
    frames.push(Frame::Digest {
        term: 1,
        pos: top,
        digest: digest64(&to_bytes(&leader.image())),
    });
    // Deliver in reverse with every frame duplicated: the reorder
    // buffer + dup suppression must still converge byte-identically.
    let mut f = Follower::new();
    for frame in frames.iter().rev() {
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
        faults: ReplFaultPlan::none(7),
        ..HubConfig::default()
    });
    hub.add_follower("tst-repl-a");
    hub.add_follower("tst-repl-b");
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
    hub.shutdown();
}

#[test]
fn hub_converges_under_stream_faults() {
    let faults = ReplFaultPlan {
        seed: 11,
        drop_permille: 200,
        delay_permille: 200,
        reorder_permille: 300,
        follower_crashes: vec![FollowerCrash {
            follower: 0,
            after_record: 5,
        }],
    };
    let mut hub = ReplicationHub::new(HubConfig {
        digest_every: 3,
        faults,
        ..HubConfig::default()
    });
    hub.add_follower("tst-replf-a");
    hub.add_follower("tst-replf-b");
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
        hub.pump(&leader);
    }
    let top = leader.journal().unwrap().total_appended();
    assert!(hub.await_replicated(&leader, top));
    for i in 0..2 {
        assert_eq!(hub.follower_image(i).unwrap(), to_bytes(&leader.image()));
    }
    assert!(hub.stats().follower_crashes >= 1);
    hub.shutdown();
}

/// A crash point names a follower by the order it was added, over the
/// hub's life: one added after a failover takes no crash drawn for a
/// follower that survived it.
#[test]
fn a_follower_added_after_failover_takes_no_survivors_crash() {
    const CRASH_AT: u64 = 40;
    let faults = ReplFaultPlan {
        follower_crashes: vec![FollowerCrash {
            follower: 1,
            after_record: CRASH_AT,
        }],
        ..ReplFaultPlan::none(3)
    };
    let mut hub = ReplicationHub::new(HubConfig {
        faults,
        ..HubConfig::default()
    });
    hub.add_follower("tst-repl-add-a");
    hub.add_follower("tst-repl-add-b");
    let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    leader.enable_journal(0);
    for k in 0..3u64 {
        submit(&mut leader, rigid(&format!("A{k}"), 0, 8, 30), t(k)).unwrap();
    }
    let top = leader.journal().unwrap().total_appended();
    assert!(top < CRASH_AT);
    assert!(hub.await_replicated(&leader, top));
    // The first follower is promoted; the second, which carries the
    // crash, survives; a third joins.
    let (mut leader, report) = hub.fail_over(top, top).unwrap();
    assert_eq!(report.promoted, "tst-repl-add-a");
    hub.add_follower("tst-repl-add-c");
    leader.enable_journal(0);
    let mut k = 0;
    while leader.journal().unwrap().total_appended() <= CRASH_AT {
        submit(&mut leader, rigid(&format!("B{k}"), 1, 8, 30), t(10 + k)).unwrap();
        hub.pump(&leader);
        k += 1;
    }
    let top = leader.journal().unwrap().total_appended();
    assert!(hub.await_replicated(&leader, top));
    assert_eq!(hub.stats().follower_crashes, 1, "only the survivor crashed");
    hub.shutdown();
}

/// A follower that has heard only a record frame of the current term has
/// adopted the term but holds no replica: failover never promotes it. A
/// seeded peer is promoted instead; with none left, the follower stays
/// attached and there is nobody to promote.
#[test]
fn failover_never_promotes_a_follower_without_a_replica() {
    let leader = scripted_leader(0);
    let top = leader.journal().unwrap().total_appended();
    let mut hub = ReplicationHub::new(HubConfig::default());
    hub.add_follower("tst-repl-seeded");
    assert!(hub.await_replicated(&leader, top));
    hub.add_follower("tst-repl-bare");
    let (_, report) = hub.fail_over(top, top).unwrap();
    assert_eq!(report.promoted, "tst-repl-seeded");
    // The new term's first record reaches the bare follower before any
    // snapshot does.
    let record = Frame::Record {
        term: report.new_term,
        pos: 2,
        record: Record::ExpireSweep { now: t(99) },
    };
    assert!(hub.send_raw(0, encode_frame(&record)));
    let err = hub.fail_over(1, 1).unwrap_err();
    assert_eq!(err, "no live follower to promote");
    assert_eq!(hub.acked_watermarks().len(), 1, "the follower left the hub");
    hub.shutdown();
}

/// A follower poisoned by a corrupt frame leaves the ensemble as a dead
/// one would: the watermark follows the healthy follower, so the retain
/// floor a host pins to it lets the journal compact, `await_replicated`
/// returns at once, and the error is reported once.
#[test]
fn a_poisoned_follower_leaves_the_watermark_and_is_reported_once() {
    let mut hub = ReplicationHub::new(HubConfig::default());
    hub.add_follower("tst-repl-poison-a");
    hub.add_follower("tst-repl-poison-b");
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
            assert!(hub.send_raw(1, corrupt));
        }
        // What the daemon does at every command boundary.
        errors.extend(hub.stream(&mut leader).errors);
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
    assert!(hub.pump(&leader).errors.is_empty(), "reported once");
    hub.shutdown();
}

/// A snapshot record in a record frame is not something the leader
/// sends: an unseeded follower must not install it, a seeded one must
/// not take it for a boundary.
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
    let err = unseeded.apply_frame(hostile(1)).unwrap_err();
    assert!(err.contains("before any snapshot"), "{err}");
    assert!(unseeded.server().is_none(), "the image was installed");
    assert!(unseeded.error().is_some());

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

/// A digest check for position 0 reaches a follower no snapshot has
/// seeded yet (its watermark is 0 too): it poisons the follower — and,
/// in a follower thread, reaches the watermark report — instead of
/// panicking on the missing replica.
#[test]
fn digest_before_any_snapshot_poisons_instead_of_panicking() {
    let digest = Frame::Digest {
        term: 1,
        pos: 0,
        digest: 0,
    };
    let mut f = Follower::new();
    let err = f.apply_bytes(&encode_frame(&digest)).unwrap_err();
    assert!(err.contains("before any snapshot"), "{err}");
    assert_eq!(f.error(), Some(err.as_str()));
    assert_eq!(f.apply_frame(digest.clone()), Err(err));

    let thread = FollowerHandle::spawn("tst-repl-digest0");
    assert!(thread.send(FollowerMsg::Frames(encode_frame(&digest))));
    let report = thread.watermark().expect("the follower thread is alive");
    assert!(report.error.unwrap().contains("before any snapshot"));
    thread.shutdown();
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
