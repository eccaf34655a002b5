//! The `BatchSim`-driven units: one ESP run, one deep-queue burst, one
//! trace replay (eager or streamed), one replicated ESP run — each timed
//! from outside, and in a traced run probed layer by layer.

use crate::observe::{Mode, Tracing};
use crate::pace::{Pacer, Pieces};
use crate::spec::JOURNAL_SNAPSHOT_EVERY;
use crate::stats::{self, fnv64_with, FNV_START};
use crate::trace::{SpanId, ROOT};
use dynbatch_bench::alloc_meter;
use dynbatch_cluster::Cluster;
use dynbatch_core::{SchedulerConfig, SimDuration, SimTime};
use dynbatch_sched::{rank_jobs, FairnessView, Maui, QueuedJob};
use dynbatch_server::replication::{encode_frame, Follower, Frame, HubConfig};
use dynbatch_server::{Journal, PbsServer, Record};
use dynbatch_sim::{BatchSim, ReplicatedSim};
use dynbatch_workload::{parse_swf, SwfConfig, SwfSource, WorkloadItem};
use std::path::Path;
use std::time::Instant;

/// Lookahead of the streamed replay: six hours of submissions resident.
const STREAM_WINDOW: SimDuration = SimDuration::from_hours(6);

/// What one unit measured and what it left behind.
pub struct UnitResult {
    /// Jobs that ran to completion.
    pub jobs: usize,
    /// Raw wall seconds of the measured work.
    pub wall_s: f64,
    /// On-CPU seconds of the driving thread over the same work (wall
    /// seconds where the kernel does not expose per-thread CPU time).
    pub cpu_s: f64,
    /// The same work piece by piece, when the unit ran paced.
    pub paced: Option<Pieces>,
    /// Allocator high-water mark above the level at unit entry.
    pub peak_bytes: usize,
    pub drained: bool,
    pub accounting_digest: u64,
    /// FNV-1a of the final `state_digest`.
    pub state_hash: u64,
    /// The server as the unit left it, and the instant it stopped at.
    pub server: PbsServer,
    pub now: SimTime,
    /// Ensemble failures (`converge`, digest mismatch); empty is good.
    pub failures: Vec<String>,
}

/// Times a unit's measured work: as one stretch, or — paced — in pieces
/// between which the pacer may run its reference unit.
struct Meter<'a> {
    pacer: Option<&'a mut Pacer>,
    pieces: Pieces,
    base: usize,
    cpu0: Option<u64>,
    reference_cpu0: f64,
    start: Instant,
    piece0: Instant,
}

/// What a [`Meter`] measured.
struct Timing {
    wall_s: f64,
    cpu_s: f64,
    peak_bytes: usize,
    paced: Option<Pieces>,
}

impl<'a> Meter<'a> {
    fn start(mut pacer: Option<&'a mut Pacer>) -> Self {
        // More pieces than any unit has laps, allocated before the meter
        // takes its base level.
        let pieces = Pieces::with_capacity(4096);
        let base = alloc_meter::reset_peak();
        let reference_cpu0 = pacer.as_deref_mut().map_or(0.0, |p| {
            p.watch_peak();
            p.reference_cpu_s()
        });
        let now = Instant::now();
        Meter {
            pacer,
            pieces,
            base,
            cpu0: stats::thread_cpu_ns(),
            reference_cpu0,
            start: now,
            piece0: now,
        }
    }

    /// A point between two pieces of measured work: a lap may end here.
    fn split(&mut self) {
        if let Some(p) = self.pacer.as_deref_mut() {
            p.add(self.piece0.elapsed(), &mut self.pieces);
            p.tick();
            self.piece0 = Instant::now();
        }
    }

    /// Calls `step` until it returns false, with a split after every
    /// eighth call.
    fn drive(&mut self, mut step: impl FnMut() -> bool) {
        let mut n = 0u32;
        while step() {
            n += 1;
            if n.is_multiple_of(8) {
                self.split();
            }
        }
    }

    fn stop(mut self) -> Timing {
        let wall_s = self.start.elapsed().as_secs_f64();
        let cpu_s = match (self.cpu0, stats::thread_cpu_ns()) {
            (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e9,
            _ => wall_s,
        };
        let peak = alloc_meter::peak_bytes();
        match self.pacer.take() {
            None => Timing {
                wall_s,
                cpu_s,
                peak_bytes: peak.saturating_sub(self.base),
                paced: None,
            },
            Some(p) => {
                p.add(self.piece0.elapsed(), &mut self.pieces);
                let reference_cpu_s = p.reference_cpu_s() - self.reference_cpu0;
                Timing {
                    wall_s: self.pieces.wall_s(),
                    cpu_s: (cpu_s - reference_cpu_s).max(0.0),
                    peak_bytes: peak.max(p.peak_seen()).saturating_sub(self.base),
                    paced: Some(self.pieces),
                }
            }
        }
    }
}

/// Everything after the timed region: checks, digests, the end state.
fn finish(sim: &BatchSim, timing: Timing, tracing: Option<&mut Tracing<'_>>) -> UnitResult {
    let server = sim.server();
    if let Some(t) = tracing {
        let st = sim.stats();
        let tl = sim.maui().timeline_stats();
        for (key, v) in [
            ("sim.cycles", st.cycles),
            ("sched.dyn_granted", st.dyn_granted),
            ("sched.dyn_rejected", st.dyn_rejected),
            ("sched.dyn_rejected_fairness", st.dyn_rejected_fairness),
            ("sched.delay_charged_ms", st.delay_charged_ms),
            ("sched.timeline.rebuilds", tl.rebuilds),
            ("sched.timeline.delta_batches", tl.delta_batches),
            ("sched.timeline.deltas_applied", tl.deltas_applied),
        ] {
            t.rec.add(key, v as f64);
        }
        t.rec.max("sim.admission_peak", sim.admission_peak() as f64);
        t.rec.sample(
            "cluster.utilization",
            sim.utilization().utilization(sim.last_completion()),
        );
    }
    UnitResult {
        jobs: server.accounting().recorded() as usize,
        wall_s: timing.wall_s,
        cpu_s: timing.cpu_s,
        paced: timing.paced,
        peak_bytes: timing.peak_bytes,
        drained: server.is_drained() && server.accounting().recorded() > 0,
        accounting_digest: server.accounting().digest(),
        state_hash: fnv64_with(FNV_START, server.state_digest().as_bytes()),
        server: server.clone(),
        now: sim.now(),
        failures: Vec::new(),
    }
}

/// Re-executes the scheduler cycle the last `step` ran: the snapshot walk
/// on the simulator's own server (`snapshot` takes `&self`; a fresh clone
/// walks measurably slower — its nodes are new to every cache), then
/// `iterate` (and `rank_jobs` on the snapshot's queue) and `apply` on
/// clones, which they mutate. Cloning is outside every span.
fn probe_cycle(sim: &BatchSim, t: &mut Tracing<'_>, step: SpanId) {
    let now = sim.now();
    let rec = &mut *t.rec;

    let s = rec.now();
    std::hint::black_box(sim.server().snapshot(now));
    let e = rec.now();
    rec.span("server.snapshot", t.unit, s, e, step);

    let mut server = sim.server().clone();
    let mut maui = sim.maui().clone();
    // The same walk plus the delta log `iterate` advances its timeline by.
    let snap = server.snapshot_incremental(now);

    let s = rec.now();
    let outcome = maui.iterate(&snap);
    let e = rec.now();
    let iterate = rec.span("sched.iterate", t.unit, s, e, step);

    // Ranking is the first thing `iterate` does; timed again on its own
    // so the rest of `iterate` (timeline, DFS what-ifs, backfill) is the
    // iterate span's self time.
    let mut ranked: Vec<&QueuedJob> = snap.queued.iter().collect();
    let s = rec.now();
    rank_jobs(
        &mut ranked,
        now,
        &maui.config().priority,
        FairnessView::Static(maui.fairshare()),
    );
    let e = rec.now();
    std::hint::black_box(&ranked);
    rec.span("sched.rank", t.unit, s, e, iterate);

    let s = rec.now();
    std::hint::black_box(server.apply(&outcome, now));
    let e = rec.now();
    rec.span("server.apply", t.unit, s, e, step);

    rec.sample("sched.queue_depth", snap.queued.len() as f64);
    rec.sample("sched.running", snap.running.len() as f64);
    rec.max("server.jobs_resident_max", server.jobs().count() as f64);
}

/// One traced `BatchSim::step` plus, every `probe_every`-th step, the
/// cycle probe. Returns what `step` returned.
fn traced_step(sim: &mut BatchSim, t: &mut Tracing<'_>, parent: SpanId, n: &mut u64) -> bool {
    let s = t.rec.now();
    let more = sim.step();
    let e = t.rec.now();
    let step = t.rec.span("sim.step", t.unit, s, e, parent);
    if more && n.is_multiple_of(t.rec.probe_every) {
        probe_cycle(sim, t, step);
    }
    *n += 1;
    more
}

/// Loads `items` eagerly into a fresh simulator and runs it dry.
pub fn run_eager(
    (nodes, per_node): (u32, u32),
    sched: &SchedulerConfig,
    items: &[WorkloadItem],
    journal: bool,
    mode: Mode<'_>,
) -> UnitResult {
    let (pacer, mut tracing) = mode.split();
    let mut meter = Meter::start(pacer);
    let mut sim = BatchSim::new(Cluster::homogeneous(nodes, per_node), sched.clone());
    if journal {
        sim.enable_journal(JOURNAL_SNAPSHOT_EVERY);
    }
    match tracing.as_mut() {
        None => {
            sim.load(items);
            meter.drive(|| sim.step());
        }
        Some(t) => {
            let unit = t.rec.open("unit", t.unit, ROOT);
            let s = t.rec.now();
            sim.load(items);
            let e = t.rec.now();
            t.rec.span("sim.load", t.unit, s, e, unit);
            let mut n = 0;
            while traced_step(&mut sim, t, unit, &mut n) {}
            t.rec.close(unit);
        }
    }
    finish(&sim, meter.stop(), tracing.as_mut())
}

/// What `dynbatch run --swf FILE` does: read the file, parse it whole,
/// load every submission, run with default retention.
pub fn run_swf_retained(
    path: &Path,
    swf: &SwfConfig,
    sched: &SchedulerConfig,
    mode: Mode<'_>,
) -> UnitResult {
    let (pacer, mut tracing) = mode.split();
    let mut meter = Meter::start(pacer);
    let parse0 = tracing.as_ref().map(|t| t.rec.now());
    let text = std::fs::read_to_string(path).expect("trace written in set-up");
    let mut reg = dynbatch_core::CredRegistry::new();
    let items = parse_swf(&text, swf, &mut reg).expect("generated trace parses");
    drop(text);
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), sched.clone());
    match tracing.as_mut() {
        None => {
            meter.split();
            sim.load(&items);
            meter.drive(|| sim.step());
        }
        Some(t) => {
            let unit = t.rec.open("unit", t.unit, ROOT);
            let s = t.rec.now();
            t.rec.span(
                "workload.swf_parse",
                t.unit,
                parse0.expect("traced"),
                s,
                unit,
            );
            t.rec.add("workload.swf_jobs", items.len() as f64);
            sim.load(&items);
            let e = t.rec.now();
            t.rec.span("sim.load", t.unit, s, e, unit);
            let mut n = 0;
            while traced_step(&mut sim, t, unit, &mut n) {}
            t.rec.close(unit);
        }
    }
    finish(&sim, meter.stop(), tracing.as_mut())
}

/// A pull iterator around the stream a replay consumes. `run_streamed`
/// calls `next` between steps, which makes it the one place the harness
/// runs while the product's own loop does: traced, it times the parsing;
/// paced, it lets a lap end after every 64th submission.
struct Tap<'m, 'p, S> {
    inner: S,
    parse_ns: Option<u64>,
    meter: Option<&'m mut Meter<'p>>,
    n: u32,
}

impl<S: Iterator<Item = WorkloadItem>> Iterator for Tap<'_, '_, S> {
    type Item = WorkloadItem;
    fn next(&mut self) -> Option<WorkloadItem> {
        self.n += 1;
        if let (Some(m), 0) = (self.meter.as_deref_mut(), self.n % 64) {
            m.split();
        }
        match self.parse_ns.as_mut() {
            None => self.inner.next(),
            Some(ns) => {
                let t0 = Instant::now();
                let item = self.inner.next();
                *ns += t0.elapsed().as_nanos() as u64;
                item
            }
        }
    }
}

/// Streams the trace file through `SwfSource` into a low-memory
/// simulator with a six-hour lookahead.
///
/// Untraced, this is `BatchSim::run_streamed`. Traced, the harness has to
/// own the step loop, and admission (`feed`) is private — so it admits
/// through `load`, one item at a time, while the item lies within the
/// window of the *current* time (the product measures from the next
/// pending event, which is never earlier, so the harness admits no more
/// than the product and always enough: interarrivals are seconds, the
/// window hours). The product pins streamed ≡ eager for any window, and
/// the caller checks this unit's accounting digest against an untraced
/// one.
pub fn run_swf_streamed(
    path: &Path,
    swf: &SwfConfig,
    sched: &SchedulerConfig,
    jobs: usize,
    mode: Mode<'_>,
) -> UnitResult {
    let (pacer, mut tracing) = mode.split();
    let mut meter = Meter::start(pacer);
    let file = std::fs::File::open(path).expect("trace written in set-up");
    let mut src = SwfSource::with_own_registry(std::io::BufReader::new(file), swf.clone());
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), sched.clone());
    sim.set_low_memory(true);
    match tracing.as_mut() {
        None => {
            let tap = Tap {
                inner: &mut src,
                parse_ns: None,
                meter: Some(&mut meter),
                n: 0,
            };
            sim.run_streamed(tap, STREAM_WINDOW);
        }
        Some(t) => {
            let unit = t.rec.open("unit", t.unit, ROOT);
            let mut stream = Tap {
                inner: &mut src,
                parse_ns: Some(0),
                meter: None,
                n: 0,
            };
            let mut pending = stream.next();
            let mut n = 0;
            loop {
                let horizon = sim.now().saturating_add(STREAM_WINDOW);
                while let Some(item) = pending.take_if(|i| i.at <= horizon) {
                    sim.load(std::slice::from_ref(&item));
                    pending = stream.next();
                }
                if !traced_step(&mut sim, t, unit, &mut n) {
                    // Drained: the next submission (if any) restarts it.
                    match pending.take() {
                        Some(item) => sim.load(std::slice::from_ref(&item)),
                        None => break,
                    }
                    pending = stream.next();
                }
            }
            t.rec
                .add("workload.swf_parse_ns", stream.parse_ns.unwrap_or(0) as f64);
            t.rec.add("workload.swf_jobs", jobs as f64);
            t.rec.close(unit);
        }
    }
    let mut unit = finish(&sim, meter.stop(), tracing.as_mut());
    if src.error().is_some() || src.emitted() != jobs {
        unit.failures
            .push(format!("trace yielded {} of {jobs} jobs", src.emitted()));
    }
    unit
}

/// The replication ensemble's cadence: one follower, no rolling digests
/// (each serialises the full image), watermark polls every 64 pumps, a
/// pump every 16 steps — a group-commit deployment.
fn hub_config() -> HubConfig {
    HubConfig {
        digest_every: 0,
        ack_every: 64,
        ..HubConfig::default()
    }
}
const PUMP_STRIDE: u64 = 16;
const FOLLOWER_THREAD: &str = "simrep";

/// The harness's own follower, fed on the harness thread with frames the
/// harness encodes from the leader's journal: `encode_frame` and
/// `Follower::apply_bytes` measured as work, with no thread hand-off.
struct InlineFollower {
    follower: Follower,
    next_pos: u64,
    encode_ns: u64,
    apply_ns: u64,
    records: u64,
    bytes: u64,
}

impl InlineFollower {
    fn new() -> Self {
        InlineFollower {
            follower: Follower::new(),
            next_pos: 1,
            encode_ns: 0,
            apply_ns: 0,
            records: 0,
            bytes: 0,
        }
    }

    /// Ships every record appended since the last call. Called after each
    /// step, before compaction can drop what that step appended (the
    /// retain floor trails the real follower, which is fed later).
    fn catch_up(&mut self, journal: &Journal) {
        let Some(tail) = journal.records_from(self.next_pos) else {
            return;
        };
        for record in tail {
            let pos = self.next_pos;
            self.next_pos += 1;
            let frame = match record {
                Record::Snapshot(image) if pos == 1 => Frame::Snapshot {
                    term: 1,
                    pos,
                    image: image.clone(),
                },
                Record::Snapshot(_) => Frame::Mark { term: 1, pos },
                other => Frame::Record {
                    term: 1,
                    pos,
                    record: other.clone(),
                },
            };
            let counted = matches!(frame, Frame::Record { .. });
            let t0 = Instant::now();
            let bytes = encode_frame(&frame);
            let t1 = Instant::now();
            self.follower
                .apply_bytes(&bytes)
                .expect("inline follower applies the leader's stream");
            let t2 = Instant::now();
            if counted {
                self.encode_ns += (t1 - t0).as_nanos() as u64;
                self.apply_ns += (t2 - t1).as_nanos() as u64;
                self.records += 1;
                self.bytes += bytes.len() as u64;
            }
        }
    }
}

/// One ESP run with the journal on, streamed to one hot follower; timed
/// from `ReplicatedSim::new` through `converge()`. `reference` is the
/// journal-only state hash for the same items, when the caller has one.
pub fn run_replicated(
    sched: &SchedulerConfig,
    items: &[WorkloadItem],
    reference: Option<u64>,
    mode: Mode<'_>,
) -> UnitResult {
    let (pacer, mut tracing) = mode.split();
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), sched.clone());
    sim.enable_journal(JOURNAL_SNAPSHOT_EVERY);
    let load0 = tracing.as_ref().map(|t| t.rec.now());
    sim.load(items);
    if let (Some(t), Some(s)) = (tracing.as_mut(), load0) {
        let e = t.rec.now();
        t.rec.span("sim.load", t.unit, s, e, ROOT);
    }
    let mut meter = Meter::start(pacer);
    let mut rs = ReplicatedSim::new(sim, 1, hub_config());
    rs.set_pump_stride(PUMP_STRIDE);
    match tracing.as_mut() {
        None => meter.drive(|| rs.step()),
        Some(t) => {
            let unit = t.rec.open("unit", t.unit, ROOT);
            let mut inline = InlineFollower::new();
            let mut n = 0u64;
            let mut snapshot_pos = 1;
            loop {
                let s = t.rec.now();
                let more = rs.step();
                let e = t.rec.now();
                let step = t.rec.span("sim.step", t.unit, s, e, unit);
                let journal = rs.sim().server().journal().expect("journal enabled");
                inline.catch_up(journal);
                let pos = journal.latest_snapshot().map_or(0, |s| s.0);
                if pos != snapshot_pos {
                    snapshot_pos = pos;
                    t.rec.add("journal.compactions", 1.0);
                }
                if !more {
                    break;
                }
                if n.is_multiple_of(t.rec.probe_every) {
                    probe_cycle(rs.sim(), t, step);
                }
                n += 1;
            }
            t.rec.close(unit);
            t.rec
                .add("replication.probe_records", inline.records as f64);
            t.rec.add("replication.encode_ns", inline.encode_ns as f64);
            t.rec.add("replication.apply_ns", inline.apply_ns as f64);
            t.rec.add("replication.frame_bytes", inline.bytes as f64);
        }
    }
    let converged = rs.converge();
    let timing = meter.stop();

    let mut failures = Vec::new();
    if let Err(e) = converged {
        failures.push(format!("converge: {e}"));
    }
    let replica = rs.stats();
    let hub = rs.hub().stats();
    if let Some(t) = tracing.as_mut() {
        t.rec
            .max("replication.max_lag_records", replica.max_lag as f64);
        t.rec
            .add("replication.records_sent", hub.records_sent as f64);
        t.rec.add("replication.marks_sent", hub.marks_sent as f64);
        t.rec
            .add("replication.snapshots_sent", hub.snapshots_sent as f64);
        t.rec.add("replication.resends", hub.resends as f64);
        t.rec.add(
            "replication.follower_cpu_s",
            stats::named_threads_cpu_ns(FOLLOWER_THREAD) as f64 / 1e9,
        );
        t.rec.add("journal.records", replica.leader_appended as f64);
        t.rec.add("journal.jobs", items.len() as f64);
    }
    let mut unit = finish(rs.sim(), timing, tracing.as_mut());
    if reference.is_some_and(|r| r != unit.state_hash) {
        failures.push("replicated leader digest differs from the journal-only run's".into());
    }

    if let Some(t) = tracing.as_mut() {
        // Failover: promote the converged follower, re-arm its journal,
        // take the first scheduling decision on it.
        let appended = replica.leader_appended;
        let s = t.rec.now();
        match rs.hub().fail_over(appended, appended) {
            Ok((mut promoted, report)) => {
                promoted.enable_journal(JOURNAL_SNAPSHOT_EVERY);
                let mut maui = Maui::new(sched.clone());
                let outcome = maui.iterate(&promoted.snapshot(unit.now));
                std::hint::black_box(promoted.apply(&outcome, unit.now));
                let e = t.rec.now();
                t.rec.span("replication.failover", t.unit, s, e, ROOT);
                if report.lost_records != 0 {
                    failures.push(format!("failover lost {} records", report.lost_records));
                }
            }
            Err(e) => failures.push(format!("failover: {e}")),
        }
    }
    rs.shutdown();
    unit.failures = failures;
    unit
}
