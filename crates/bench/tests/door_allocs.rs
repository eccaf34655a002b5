//! The command door's heap traffic, counted exactly under
//! [`TallyingAlloc`]: a steady-state 64-line `qstat` batch driven the way
//! the repo benchmark drives its client phase (send, `poll_batch` with
//! `apply_to_server`, read the acks), and the parse of the benchmark's two
//! `qsub` line shapes. A change that adds an allocation to either path
//! fails here.

use dynbatch_bench::alloc_meter::{allocated, TallyingAlloc};
use dynbatch_cluster::Cluster;
use dynbatch_core::{AllocPolicy, SimTime};
use dynbatch_server::reactor::{apply_to_server, parse_command, BatchEvent, Reactor, Reply};
use dynbatch_server::{PbsServer, ReactorClient};

#[global_allocator]
static ALLOC: TallyingAlloc = TallyingAlloc;

const BATCH: usize = 64;

/// One benchmark batch: send every line, poll once, read every ack.
fn drive(
    reactor: &mut Reactor,
    client: &ReactorClient,
    server: &mut PbsServer,
    lines: &[String],
    replies: &mut Vec<Reply>,
) {
    for line in lines {
        client.send(line);
    }
    reactor.poll_batch(u64::MAX, |ev| match ev {
        BatchEvent::Apply { cmd, .. } => Some(apply_to_server(server, cmd, SimTime::ZERO)),
        BatchEvent::Commit => None,
    });
    replies.clear();
    while let Some(reply) = client.try_recv() {
        replies.push(reply);
    }
    assert_eq!(replies.len(), lines.len());
}

/// `(calls, bytes)` allocated by `f` on this thread.
fn tally(f: impl FnOnce()) -> (usize, usize) {
    let (c0, b0) = allocated();
    f();
    let (c1, b1) = allocated();
    (c1 - c0, b1 - b0)
}

#[test]
fn a_steady_qstat_batch_allocates_an_exact_count() {
    let mut server = PbsServer::new(Cluster::homogeneous(150, 8), AllocPolicy::Pack);
    server.enable_journal(64);
    let mut reactor = Reactor::new();
    let client = reactor.connect();
    let mut replies = Vec::with_capacity(BATCH);
    let submits: Vec<String> = (0..BATCH)
        .map(|i| {
            format!(
                "qsub name=b{i} user={} group=0 cores=4 wall_ms=60000",
                i % 32
            )
        })
        .collect();
    drive(&mut reactor, &client, &mut server, &submits, &mut replies);
    let Reply::Submitted(first) = replies[0] else {
        panic!("{:?}", replies[0]);
    };
    let qstats: Vec<String> = (0..BATCH)
        .map(|i| format!("qstat {}", first.0 + (i * 7 % BATCH) as u64))
        .collect();
    // Warm up: buffers reach their working size.
    for _ in 0..4 {
        drive(&mut reactor, &client, &mut server, &qstats, &mut replies);
    }
    // Per batch: each line's copy (64), each `qstat` reply's string (64)
    // and the mailbox's blocks. The mailbox allocates a block per 31
    // messages, so a batch's count depends on where it starts in a block:
    // 31 batches span 64 blocks exactly, whatever the offset. Nothing
    // else: the reorder buffer and the held acks reuse their buffers.
    let per_batch: Vec<(usize, usize)> = (0..31)
        .map(|_| tally(|| drive(&mut reactor, &client, &mut server, &qstats, &mut replies)))
        .collect();
    assert!(replies.iter().all(|r| matches!(r, Reply::Status(_))));
    let calls: usize = per_batch.iter().map(|t| t.0).sum();
    let bytes: usize = per_batch.iter().map(|t| t.1).sum();
    assert_eq!(
        (calls, bytes),
        (31 * 128 + 64, 123_241),
        "per batch: {per_batch:?}"
    );
}

#[test]
fn parsing_the_benchmarks_qsub_lines_allocates_an_exact_count() {
    let rigid = "qsub name=b17 user=5 group=0 cores=12 wall_ms=845000";
    let evolving =
        "qsub name=b18 user=9 group=0 cores=3 class=evolving set_s=845 det_s=591 extra=4";
    // Per line: the field list, the job's name, the boxed spec and, for
    // the evolving job, its request points. The first calls on this
    // thread set up what a process does once.
    parse_command(rigid).unwrap();
    parse_command(evolving).unwrap();
    let rigid_allocs = tally(|| drop(parse_command(rigid).unwrap()));
    let evolving_allocs = tally(|| drop(parse_command(evolving).unwrap()));
    assert_eq!(rigid_allocs, (3, 451));
    assert_eq!(evolving_allocs, (4, 467));
}
