//! The client phase: one connection drives a journaled `PbsServer` behind
//! a `Reactor` from a single thread — a write phase, a read phase, then
//! crash recoveries from the journal the phases left. No scheduler cycle
//! runs inside the write or read phase.
//!
//! `submit_burst` is this phase on a fresh server, at full size; every
//! other workload ends with a short one on the server state it produced.

use crate::inputs::{ClientScript, Expect};
use crate::observe::{Mode, Tracing};
use crate::pace::{Pacer, Pieces};
use crate::spec::BATCH;
use crate::stats::{self, fnv64_with, FNV_START};
use crate::trace::{SpanId, ROOT};
use dynbatch_core::{SchedulerConfig, SimTime};
use dynbatch_sched::Maui;
use dynbatch_server::reactor::{
    apply_to_server, parse_command, BatchEvent, Command, Reactor, Reply,
};
use dynbatch_server::{Journal, PbsServer};
use std::time::Instant;

/// What one client round measured and checked.
#[derive(Debug, Default)]
pub struct ClientRound {
    pub write_lines: usize,
    pub write_wall_s: f64,
    /// On-CPU seconds of the write phase (wall seconds where the kernel
    /// does not expose per-thread CPU time).
    pub write_cpu_s: f64,
    pub read_lines: usize,
    pub read_wall_s: f64,
    /// Send of a batch to its last ack, microseconds, write phase — and
    /// the pacer's lap the batch fell in.
    pub ack_us: Vec<(f64, u32)>,
    /// `recover` through the first `iterate` + `apply`, milliseconds —
    /// and the lap it fell in.
    pub recover_ms: Vec<(f64, u32)>,
    /// The write and read phases piece by piece, when the round ran paced.
    pub write_paced: Option<Pieces>,
    pub read_paced: Option<Pieces>,
    pub admitted: usize,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the reply stream of both phases.
    pub reply_hash: u64,
    /// FNV-1a of the server's state digest after the read phase.
    pub state_hash: u64,
    /// Allocator high-water mark when the recoveries ended (absolute;
    /// the caller subtracts the level it reset the meter at).
    pub peak_bytes: usize,
    pub failures: Vec<String>,
}

fn reply_matches(reply: &Reply, expect: Expect) -> bool {
    match (reply, expect) {
        (Reply::Submitted(id), Expect::Submitted(want)) => id.0 == want,
        (Reply::Ok, Expect::Ok) | (Reply::Status(_), Expect::Status) => true,
        (Reply::Denied(_), Expect::Denied) => true,
        _ => false,
    }
}

fn hash_reply(h: u64, reply: &Reply) -> u64 {
    match reply {
        Reply::Submitted(id) => fnv64_with(fnv64_with(h, &[1]), &id.0.to_le_bytes()),
        Reply::Ok => fnv64_with(h, &[2]),
        Reply::Status(s) => fnv64_with(fnv64_with(h, &[3]), s.as_bytes()),
        Reply::StatusAt { state, .. } => fnv64_with(fnv64_with(h, &[4]), state.as_bytes()),
        Reply::Denied(s) => fnv64_with(fnv64_with(h, &[5]), s.as_bytes()),
    }
}

fn span_name(cmd: &Command) -> &'static str {
    match cmd {
        Command::QSub(_) => "server.qsub",
        Command::QStat(_) => "server.qstat",
        Command::QDel(_) => "server.qdel",
        Command::DynGet { .. } | Command::DynFree { .. } => "server.dyn",
    }
}

/// Sends `lines` a batch at a time, polls the reactor, reads the batch's
/// acks and checks each against the generator's prediction. Returns the
/// summed send→last-ack wall seconds; checking happens between batches,
/// outside that time.
#[allow(clippy::too_many_arguments)]
fn drive_phase(
    reactor: &mut Reactor,
    client: &dynbatch_server::ReactorClient,
    server: &mut PbsServer,
    now: SimTime,
    lines: &[String],
    expect: &[Expect],
    phase: &'static str,
    round: &mut ClientRound,
    mut ack_us: Option<&mut Vec<(f64, u32)>>,
    mut pacer: Option<&mut Pacer>,
    mut tracing: Option<&mut Tracing<'_>>,
) -> (f64, Option<Pieces>) {
    let mut pieces = Pieces::with_capacity(1024);
    let phase_span = tracing
        .as_deref_mut()
        .map_or(ROOT, |t| t.rec.open(phase, t.unit, ROOT));
    let mut wall_ns = 0u64;
    let mut replies: Vec<Reply> = Vec::with_capacity(BATCH);
    let mut snapshot_pos = server
        .journal()
        .and_then(Journal::latest_snapshot)
        .map(|s| s.0);
    for (lines, expect) in lines.chunks(BATCH).zip(expect.chunks(BATCH)) {
        let batch_span: SpanId = tracing
            .as_deref_mut()
            .map_or(ROOT, |t| t.rec.open("client.batch", t.unit, phase_span));
        let t0 = Instant::now();
        for line in lines {
            client.send(line);
        }
        let poll_span = tracing.as_deref_mut().map_or(ROOT, |t| {
            t.rec.open("reactor.poll_batch", t.unit, batch_span)
        });
        reactor.poll_batch(u64::MAX, |ev| match ev {
            BatchEvent::Apply { cmd, .. } => Some(match tracing.as_deref_mut() {
                None => apply_to_server(server, cmd, now),
                Some(t) => {
                    let s = t.rec.now();
                    let reply = apply_to_server(server, cmd, now);
                    let e = t.rec.now();
                    t.rec.span(span_name(cmd), t.unit, s, e, poll_span);
                    reply
                }
            }),
            BatchEvent::Commit => None,
        });
        if let Some(t) = tracing.as_deref_mut() {
            t.rec.close(poll_span);
        }
        replies.clear();
        while let Some(reply) = client.try_recv() {
            replies.push(reply);
        }
        let dt = t0.elapsed();
        wall_ns += dt.as_nanos() as u64;
        let lap = pacer.as_deref_mut().map_or(0, |p| p.add(dt, &mut pieces));
        if let Some(v) = ack_us.as_deref_mut() {
            v.push((dt.as_nanos() as f64 / 1e3, lap));
        }
        if let Some(t) = tracing.as_deref_mut() {
            t.rec.close(batch_span);
            // The parse the reactor just did, re-executed: a child of the
            // poll span by link, so the poll's self time is what remains —
            // mailbox, reorder buffer, ticket order, ack delivery.
            let s = t.rec.now();
            for line in lines {
                std::hint::black_box(parse_command(std::hint::black_box(line)).is_ok());
            }
            let e = t.rec.now();
            t.rec.span("reactor.parse", t.unit, s, e, poll_span);
            // A batch appends at most `BATCH` records, so at most one
            // compaction: a moved snapshot position is one compaction.
            let pos = server
                .journal()
                .and_then(Journal::latest_snapshot)
                .map(|s| s.0);
            if pos != snapshot_pos {
                snapshot_pos = pos;
                t.rec.add("journal.compactions", 1.0);
            }
        }
        // One reply per line, in order, each as predicted.
        round.attempted += lines.len() as u64;
        if replies.len() != lines.len() {
            round.failed += lines.len().abs_diff(replies.len()) as u64;
            round.failures.push(format!(
                "{phase}: {} replies for {} lines",
                replies.len(),
                lines.len()
            ));
        }
        for (reply, want) in replies.iter().zip(expect) {
            round.reply_hash = hash_reply(round.reply_hash, reply);
            if !reply_matches(reply, *want) {
                round.failed += 1;
                if round.failures.len() < 8 {
                    round
                        .failures
                        .push(format!("{phase}: got {reply:?}, predicted {want:?}"));
                }
            }
        }
        // Checking done: a lap may end here.
        if let Some(p) = pacer.as_deref_mut() {
            p.tick();
        }
    }
    if let Some(t) = tracing {
        t.rec.close(phase_span);
    }
    (wall_ns as f64 / 1e9, pacer.map(|_| pieces))
}

/// Runs one client round against `server`; `recovers` crash recoveries
/// follow the read phase.
pub fn run_round(
    mut server: PbsServer,
    now: SimTime,
    script: &ClientScript,
    sched: &SchedulerConfig,
    recovers: usize,
    mode: Mode<'_>,
) -> ClientRound {
    let (mut pacer, mut tracing) = mode.split();
    // A daemon restarted on this state: default retention (the streamed
    // replay ran with terminal jobs dropped — a per-process flag the
    // journal does not carry), a journal of its own.
    server.set_job_retention(true);
    server.set_accounting_retention(true);
    server.take_journal();
    server.enable_journal(crate::spec::JOURNAL_SNAPSHOT_EVERY);
    let appended_before = server.journal().map_or(0, Journal::total_appended);
    let mut round = ClientRound {
        reply_hash: FNV_START,
        write_lines: script.write.len(),
        read_lines: script.read.len(),
        admitted: script.admitted(),
        ..ClientRound::default()
    };
    let mut reactor = Reactor::new();
    let client = reactor.connect();

    let cpu0 = stats::thread_cpu_ns();
    let reference_cpu0 = pacer.as_deref_mut().map_or(0.0, |p| {
        p.watch_peak();
        p.reference_cpu_s()
    });
    let mut ack_us = Vec::with_capacity(script.write.len() / BATCH + 1);
    (round.write_wall_s, round.write_paced) = drive_phase(
        &mut reactor,
        &client,
        &mut server,
        now,
        &script.write,
        &script.write_expect,
        "phase.write",
        &mut round,
        Some(&mut ack_us),
        pacer.as_deref_mut(),
        tracing.as_mut(),
    );
    round.ack_us = ack_us;
    round.write_cpu_s = match (cpu0, stats::thread_cpu_ns()) {
        (Some(a), Some(b)) if b > a => {
            let reference = pacer
                .as_deref()
                .map_or(0.0, |p| p.reference_cpu_s() - reference_cpu0);
            ((b - a) as f64 / 1e9 - reference).max(0.0)
        }
        _ => round.write_wall_s,
    };
    (round.read_wall_s, round.read_paced) = drive_phase(
        &mut reactor,
        &client,
        &mut server,
        now,
        &script.read,
        &script.read_expect,
        "phase.read",
        &mut round,
        None,
        pacer.as_deref_mut(),
        tracing.as_mut(),
    );

    let stats = reactor.stats();
    let lines = (script.write.len() + script.read.len()) as u64;
    round.attempted += 1;
    if stats.applied != lines || stats.denied_parse != 0 {
        round.failed += 1;
        round.failures.push(format!(
            "reactor applied {} of {lines} lines, {} failed to parse",
            stats.applied, stats.denied_parse
        ));
    }
    if let Some(t) = tracing.as_mut() {
        let denied = script
            .write_expect
            .iter()
            .chain(&script.read_expect)
            .filter(|e| **e == Expect::Denied)
            .count();
        t.rec.add("reactor.batches", stats.batches as f64);
        t.rec.add("reactor.cmds", stats.applied as f64);
        t.rec.add("reactor.denied", denied as f64);
        let appended = server.journal().map_or(0, Journal::total_appended);
        t.rec
            .add("journal.records", (appended - appended_before) as f64);
        t.rec.add("journal.jobs", round.admitted as f64);
        layer_probes(&server, t);
    }

    // Crash recovery: what an operator waits for after a restart — the
    // journal replayed and the first scheduling decision applied.
    let journal = server.journal().expect("journal enabled above").clone();
    let mut recover_pieces = Pieces::with_capacity(64);
    for _ in 0..recovers {
        let journal = journal.clone();
        let span = tracing
            .as_mut()
            .map_or(ROOT, |t| t.rec.open("server.recover", t.unit, ROOT));
        let t0 = Instant::now();
        let mut recovered = PbsServer::recover(journal).expect("journal replays cleanly");
        if let Some(t) = tracing.as_mut() {
            t.rec.close(span);
        }
        let mut maui = Maui::new(sched.clone());
        let snap = recovered.snapshot_incremental(now);
        let outcome = maui.iterate(&snap);
        std::hint::black_box(recovered.apply(&outcome, now));
        let dt = t0.elapsed();
        drop((recovered, snap, outcome));
        let lap = pacer.as_deref_mut().map_or(0, |p| {
            let lap = p.add(dt, &mut recover_pieces);
            p.tick();
            lap
        });
        round.recover_ms.push((dt.as_secs_f64() * 1e3, lap));
    }
    round.peak_bytes =
        dynbatch_bench::alloc_meter::peak_bytes().max(pacer.map_or(0, |p| p.peak_seen()));

    // Recovered ≡ live, byte for byte (checked once, outside any timing
    // and after the allocation high-water mark is read).
    let live = fnv64_with(FNV_START, server.state_digest().as_bytes());
    let recovered = PbsServer::recover(journal).expect("journal replays cleanly");
    round.attempted += 1;
    if fnv64_with(FNV_START, recovered.state_digest().as_bytes()) != live {
        round.failed += 1;
        round
            .failures
            .push("recovered state digest differs from the live server's".into());
    }
    round.state_hash = live;
    round
}

/// Times the `server` and `journal` functions a compaction, a digest
/// check and a restart are made of, on the state the phases left.
fn layer_probes(server: &PbsServer, t: &mut Tracing<'_>) {
    const REPS: usize = 3;
    for _ in 0..REPS {
        let s = t.rec.now();
        std::hint::black_box(server.image());
        let e = t.rec.now();
        t.rec.span("server.image", t.unit, s, e, ROOT);
    }
    let s = t.rec.now();
    std::hint::black_box(server.state_digest());
    let e = t.rec.now();
    t.rec.span("server.state_digest", t.unit, s, e, ROOT);

    let journal = server.journal().expect("client phase journals");
    let s = t.rec.now();
    let text = journal.to_text();
    let e = t.rec.now();
    t.rec.span("journal.to_text", t.unit, s, e, ROOT);
    t.rec.sample(
        "journal.text_bytes_per_record",
        text.len() as f64 / journal.len().max(1) as f64,
    );
    let s = t.rec.now();
    let parsed = Journal::from_text(&text).expect("journal text round-trips");
    let e = t.rec.now();
    t.rec.span("journal.from_text", t.unit, s, e, ROOT);
    assert_eq!(parsed.len(), journal.len(), "journal text round-trips");
}
