//! Decoder properties of the replication wire's binary encoding, for
//! every `Record` kind, `ServerImage` and every `Frame` kind, through
//! [`dynbatch_core::testkit::check_decoder`]: round trip (to the same
//! bytes, and to the same JSON text), every strict prefix refused, no
//! trailing byte accepted, every single-bit flip refused or canonical,
//! and no panic. Frames are checked as payloads re-framed with a fresh
//! CRC, so a flip reaches the decoder instead of the checksum.

use dynbatch_cluster::Allocation;
use dynbatch_core::codec::{from_bytes, put_u64, to_bytes};
use dynbatch_core::testkit::{check, check_decoder, TestRng};
use dynbatch_core::{
    AllocPolicy, ExecutionModel, GroupId, Job, JobClass, JobId, JobOutcome, JobSpec, JobState,
    MalleableRange, NodeId, Phase, PhasedModel, QueueId, SimDuration, SimTime, SpeedupModel,
    UserId,
};
use dynbatch_sched::{
    DfsReject, DynDecision, IterationOutcome, ResizeDecision, StartDecision, UsageHistory,
};
use dynbatch_server::journal::{image_to_json, record_to_json};
use dynbatch_server::replication::{decode_frames, encode_frame, frame, Frame};
use dynbatch_server::{PendingDynImage, Record, ServerImage};

/// Small values most of the time, so varints of every width and the
/// extremes all turn up.
fn num(rng: &mut TestRng) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => u64::MAX - rng.below(3),
        2 => rng.next_u64(),
        3 => rng.below(1 << 14),
        _ => rng.below(200),
    }
}

fn num32(rng: &mut TestRng) -> u32 {
    if rng.chance(0.1) {
        u32::MAX
    } else {
        num(rng) as u32
    }
}

fn time(rng: &mut TestRng) -> SimTime {
    SimTime::from_millis(num(rng))
}

fn dur(rng: &mut TestRng) -> SimDuration {
    SimDuration::from_millis(num(rng))
}

fn opt<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    rng.chance(0.5).then(|| f(rng))
}

fn many<T>(rng: &mut TestRng, max: usize, mut f: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    (0..rng.range_usize(0, max + 1)).map(|_| f(rng)).collect()
}

fn name(rng: &mut TestRng) -> String {
    let alphabet = ['a', 'Z', '7', '_', ' ', 'é', '€', '\u{1f600}'];
    many(rng, 6, |r| *r.pick(&alphabet)).into_iter().collect()
}

fn float(rng: &mut TestRng) -> f64 {
    if rng.chance(0.2) {
        f64::from_bits(rng.next_u64()) // NaNs and infinities included
    } else {
        rng.f64()
    }
}

fn range(rng: &mut TestRng) -> MalleableRange {
    MalleableRange {
        min_cores: num32(rng),
        max_cores: num32(rng),
    }
}

fn exec(rng: &mut TestRng) -> ExecutionModel {
    match rng.below(4) {
        0 => ExecutionModel::Fixed { duration: dur(rng) },
        1 => ExecutionModel::Evolving {
            set: dur(rng),
            det: dur(rng),
            extra_cores: num32(rng),
            request_points: many(rng, 3, float),
            speedup: *rng.pick(&[SpeedupModel::Interpolate, SpeedupModel::FullDet]),
        },
        2 => ExecutionModel::Phased(PhasedModel {
            phases: many(rng, 3, |r| Phase {
                cells: num(r),
                cost_milli: num(r),
            }),
            millis_per_cell_core: float(rng),
            threshold_cells_per_proc: num(rng),
            saturation_cells_per_proc: num(rng),
            extra_cores: num32(rng),
        }),
        _ => ExecutionModel::WorkPool {
            work_core_millis: num(rng),
        },
    }
}

fn class(rng: &mut TestRng) -> JobClass {
    *rng.pick(&[
        JobClass::Rigid,
        JobClass::Moldable,
        JobClass::Malleable,
        JobClass::Evolving,
    ])
}

fn spec(rng: &mut TestRng) -> JobSpec {
    JobSpec {
        name: name(rng),
        user: UserId(num32(rng)),
        group: GroupId(num32(rng)),
        class: class(rng),
        cores: num32(rng),
        walltime: dur(rng),
        exec: exec(rng),
        priority_boost: num(rng) as i64,
        suppress_backfill_while_queued: rng.chance(0.5),
        malleable: opt(rng, range),
        moldable: opt(rng, range),
        dyn_timeout: opt(rng, dur),
        queue: opt(rng, |r| QueueId(num32(r))),
    }
}

fn job(rng: &mut TestRng) -> Job {
    Job {
        id: JobId(num(rng)),
        spec: spec(rng),
        state: *rng.pick(&[
            JobState::Queued,
            JobState::Running,
            JobState::DynQueued,
            JobState::Completed,
            JobState::Cancelled,
        ]),
        submit_time: time(rng),
        start_time: opt(rng, time),
        end_time: opt(rng, time),
        cores_allocated: num32(rng),
        dyn_requests: num32(rng),
        dyn_grants: num32(rng),
        backfilled: rng.chance(0.5),
        reserved_extra: num32(rng),
    }
}

fn outcome(rng: &mut TestRng) -> JobOutcome {
    JobOutcome {
        id: JobId(num(rng)),
        name: name(rng),
        user: UserId(num32(rng)),
        class: class(rng),
        cores_requested: num32(rng),
        cores_final: num32(rng),
        submit_time: time(rng),
        start_time: time(rng),
        end_time: time(rng),
        dyn_requests: num32(rng),
        dyn_grants: num32(rng),
        backfilled: rng.chance(0.5),
    }
}

fn alloc(rng: &mut TestRng) -> Allocation {
    Allocation::from_pairs(many(rng, 4, |r| {
        (NodeId(r.below(64) as u32), r.range_u32(1, 1000))
    }))
}

fn usage_hist(rng: &mut TestRng) -> UsageHistory {
    let mut h = UsageHistory::new(dur(rng), num(rng));
    let mut at = 0;
    for _ in 0..rng.below(5) {
        at += rng.below(1 << 30);
        let (user, queue) = (UserId(num32(rng)), QueueId(num32(rng)));
        h.charge(user, queue, rng.below(1 << 40), SimTime::from_millis(at));
    }
    h
}

fn image(rng: &mut TestRng) -> ServerImage {
    ServerImage {
        next_job_id: num(rng),
        next_dyn_seq: num(rng),
        alloc_policy: *rng.pick(&[
            AllocPolicy::Pack,
            AllocPolicy::Spread,
            AllocPolicy::NodeExclusive,
        ]),
        guarantee_evolving: rng.chance(0.5),
        node_cores: many(rng, 4, num32),
        down_nodes: many(rng, 2, |r| NodeId(num32(r))),
        jobs: many(rng, 3, |r| (job(r), opt(r, alloc))),
        dyn_pending: many(rng, 2, |r| PendingDynImage {
            job: JobId(num(r)),
            extra_cores: num32(r),
            seq: num(r),
            deadline: opt(r, time),
        }),
        outcomes: many(rng, 2, outcome),
        usage: many(rng, 3, |r| (UserId(num32(r)), num(r))),
        usage_since: many(rng, 3, |r| (JobId(num(r)), time(r))),
        usage_hist: usage_hist(rng),
    }
}

fn reject(rng: &mut TestRng) -> DfsReject {
    match rng.below(5) {
        0 => DfsReject::NoResources,
        1 => DfsReject::PermDenied {
            user: UserId(num32(rng)),
        },
        2 => DfsReject::SingleExceeded {
            job: JobId(num(rng)),
            would_be: dur(rng),
            limit: dur(rng),
        },
        3 => DfsReject::UserTargetExceeded {
            user: UserId(num32(rng)),
            would_be: dur(rng),
            limit: dur(rng),
        },
        _ => DfsReject::GroupTargetExceeded {
            group: GroupId(num32(rng)),
            would_be: dur(rng),
            limit: dur(rng),
        },
    }
}

fn resize(rng: &mut TestRng) -> ResizeDecision {
    ResizeDecision {
        job: JobId(num(rng)),
        from_cores: num32(rng),
        to_cores: num32(rng),
    }
}

/// An outcome as the journal holds it: reduced to what `apply` reads.
fn iteration(rng: &mut TestRng) -> IterationOutcome {
    IterationOutcome {
        starts: many(rng, 3, |r| StartDecision {
            job: JobId(num(r)),
            backfilled: r.chance(0.5),
            cores: opt(r, num32),
        }),
        reservations: Vec::new(),
        dyn_decisions: many(rng, 3, |r| match r.below(3) {
            0 => DynDecision::Granted {
                job: JobId(num(r)),
                extra_cores: num32(r),
                delays: Vec::new(),
                preempted: many(r, 2, |r| JobId(num(r))),
                shrunk: many(r, 2, resize),
            },
            1 => DynDecision::Rejected {
                job: JobId(num(r)),
                reason: reject(r),
            },
            _ => DynDecision::Deferred {
                job: JobId(num(r)),
                reason: reject(r),
                available_hint: opt(r, time),
            },
        }),
        baseline_plan: Vec::new(),
        grows: many(rng, 2, resize),
    }
}

/// One record of the given kind: its tag, 0..12 but the retired 7.
fn record(rng: &mut TestRng, kind: u64) -> Record {
    match kind {
        0 => Record::Snapshot(Box::new(image(rng))),
        1 => Record::Submit {
            spec: spec(rng),
            now: time(rng),
        },
        2 => Record::Qdel {
            job: JobId(num(rng)),
            now: time(rng),
        },
        3 => Record::DynGet {
            job: JobId(num(rng)),
            extra_cores: num32(rng),
            deadline: opt(rng, time),
            now: time(rng),
        },
        4 => Record::DynFree {
            job: JobId(num(rng)),
            released: alloc(rng),
            now: time(rng),
        },
        5 => Record::Finish {
            job: JobId(num(rng)),
            now: time(rng),
        },
        6 => Record::Outcome {
            outcome: iteration(rng),
            now: time(rng),
        },
        8 => Record::ExpireSweep { now: time(rng) },
        9 => Record::NodeFailed {
            node: NodeId(num32(rng)),
            now: time(rng),
        },
        10 => Record::NodeRepaired {
            node: NodeId(num32(rng)),
        },
        _ => Record::Guarantee {
            on: rng.chance(0.5),
        },
    }
}

const RECORD_KINDS: u64 = 12;

/// The tag of the deleted single-request expiry; no record encodes to it.
const RETIRED_KIND: u64 = 7;

fn live_kinds() -> impl Iterator<Item = u64> {
    (0..RECORD_KINDS).filter(|&k| k != RETIRED_KIND)
}

fn record_json(r: &Record) -> String {
    record_to_json(r).to_string_compact()
}

#[test]
fn every_record_kind_round_trips_and_decodes_strictly() {
    for kind in live_kinds() {
        check(24, 0xC0DE_0000 + kind, |rng| {
            let r = record(rng, kind);
            let bytes = to_bytes(&r);
            let back: Record = from_bytes(&bytes).unwrap();
            assert_eq!(record_json(&back), record_json(&r));
            check_decoder(&bytes, from_bytes::<Record>, to_bytes);
        });
    }
}

#[test]
fn images_round_trip_and_decode_strictly() {
    check(24, 0x1_4A6E, |rng| {
        let img = image(rng);
        let bytes = to_bytes(&img);
        let back: ServerImage = from_bytes(&bytes).unwrap();
        assert_eq!(
            image_to_json(&back).to_string_compact(),
            image_to_json(&img).to_string_compact()
        );
        check_decoder(&bytes, from_bytes::<ServerImage>, to_bytes);
    });
}

/// A frame's payload, re-framed with a recomputed CRC and decoded by the
/// wire's own entry point: exactly one intact frame, or an error.
fn decode_one(payload: &[u8]) -> Result<Frame, String> {
    let (mut frames, torn) = decode_frames(&frame(payload)?)?;
    assert!(!torn && frames.len() == 1, "one framed payload, one frame");
    Ok(frames.pop().expect("one frame"))
}

fn payload_of(f: &Frame) -> Vec<u8> {
    encode_frame(f)[8..].to_vec()
}

#[test]
fn every_frame_kind_round_trips_and_decodes_strictly() {
    check(32, 0xF4A3E, |rng| {
        let (term, pos) = (num(rng), num(rng));
        let kind = match rng.range(1, RECORD_KINDS - 1) {
            k if k >= RETIRED_KIND => k + 1,
            k => k,
        };
        let frames = [
            Frame::Record {
                term,
                pos,
                record: record(rng, kind),
            },
            Frame::Snapshot {
                term,
                pos,
                image: Box::new(image(rng)),
            },
            Frame::Digest {
                term,
                pos,
                digest: rng.next_u64(),
            },
            Frame::Mark { term, pos },
        ];
        for f in &frames {
            let payload = payload_of(f);
            let back = decode_one(&payload).unwrap();
            assert_eq!(back.pos(), f.pos());
            if let (Frame::Record { record: a, .. }, Frame::Record { record: b, .. }) = (f, &back) {
                assert_eq!(record_json(a), record_json(b));
            }
            check_decoder(&payload, decode_one, payload_of);
        }
    });
}

/// Unknown tags are refused at every level: a frame kind, a record kind
/// and a field-less enum inside a record.
#[test]
fn unknown_tags_are_rejected() {
    let mark = payload_of(&Frame::Mark { term: 1, pos: 2 });
    for tag in 4..=u8::MAX {
        let mut bad = mark.clone();
        bad[0] = tag;
        let err = decode_one(&bad).unwrap_err();
        assert!(err.contains("unknown frame tag"), "{err}");
    }
    let guarantee = to_bytes(&Record::Guarantee { on: true });
    let mut bad = guarantee.clone();
    bad[0] = RECORD_KINDS as u8;
    assert!(from_bytes::<Record>(&bad)
        .unwrap_err()
        .contains("unknown record tag"));
    bad[0] = RETIRED_KIND as u8;
    assert!(from_bytes::<Record>(&bad)
        .unwrap_err()
        .contains("retired record tag 7"));
    bad = guarantee;
    bad[1] = 2;
    assert!(from_bytes::<Record>(&bad)
        .unwrap_err()
        .contains("unknown bool tag"));
}

/// A job table that claims more jobs than the payload has bytes is
/// refused at the count, before anything is reserved for it.
#[test]
fn an_image_count_past_the_input_is_refused_at_the_count() {
    let img = image(&mut TestRng::from_seed(3));
    let mut bytes = Vec::new();
    for v in [img.next_job_id, img.next_dyn_seq] {
        put_u64(&mut bytes, v);
    }
    bytes.extend_from_slice(&[0, 0]); // policy, guarantee flag
    bytes.extend_from_slice(&[0, 0]); // no nodes, none down
    put_u64(&mut bytes, u64::MAX >> 1); // the job count
    bytes.extend_from_slice(&[0; 16]);
    let err = from_bytes::<ServerImage>(&bytes).unwrap_err();
    assert!(err.contains("exceeds the 16 bytes left"), "{err}");
}

/// Non-canonical spellings a bit flip cannot reach from a valid payload
/// are refused too: duplicate or unsorted allocation nodes, an empty
/// allocation entry, and unsorted usage accounts.
#[test]
fn non_canonical_maps_are_rejected() {
    let entry = |node: u64, cores: u64| {
        let mut b = Vec::new();
        put_u64(&mut b, node);
        put_u64(&mut b, cores);
        b
    };
    for pairs in [[(3, 1), (3, 1)], [(4, 1), (3, 1)], [(1, 0), (2, 1)]] {
        let mut bytes = vec![2];
        for (node, cores) in pairs {
            bytes.extend(entry(node, cores));
        }
        assert!(from_bytes::<Allocation>(&bytes).is_err(), "{pairs:?}");
    }
    let mut h = UsageHistory::new(SimDuration::from_hours(1), 8);
    h.charge(UserId(1), QueueId(0), 5, SimTime::from_secs(1));
    h.charge(UserId(2), QueueId(0), 5, SimTime::from_secs(1));
    let mut bytes = to_bytes(&h);
    // half-life and capacity, then the user count and the first key.
    let first_key = to_bytes(&SimDuration::from_hours(1)).len() + 1 + 1;
    assert_eq!(bytes[first_key], 1);
    bytes[first_key] = 2; // users now read 2, 2: not ascending
    let err = from_bytes::<UsageHistory>(&bytes).unwrap_err();
    assert!(err.contains("not strictly ascending"), "{err}");
}

/// Random byte strings, framed or not, never panic the frame decoder.
#[test]
fn garbage_never_panics_the_frame_decoder() {
    check(2_000, 0x6A4B, |rng| {
        let bytes: Vec<u8> = many(rng, 40, |r| r.below(256) as u8);
        let _ = decode_frames(&bytes);
        let _ = decode_one(&bytes);
    });
}
