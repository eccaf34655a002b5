//! One run of one workload: set-up, the measured passes, the output
//! checks, and the metrics derived from them.

use crate::client::{self, ClientRound};
use crate::inputs::{self, Inputs, Sizes};
use crate::observe::Mode;
use crate::pace::{Pacer, Pieces};
use crate::simload::{self, UnitResult};
use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats::{growth_x, mean, median, quantile_sorted};
use crate::trace::{layer_of, Recorder};
use crate::{probes, Args};
use dynbatch_bench::alloc_meter;
use dynbatch_cluster::Cluster;
use dynbatch_core::json::{self, Json};
use dynbatch_core::{AllocPolicy, SchedulerConfig, SimTime};
use dynbatch_server::PbsServer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where traces and generated SWF files go (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Crash recoveries after each client round.
const RECOVERS: usize = 5;
/// `esp_replicated` checks every this-many-th unit's leader digest
/// against a journal-only run of the same items.
const REFERENCE_EVERY: usize = 8;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (units, rounds, batches, spans …).
    pub n: usize,
}

/// The digests a default-seed run must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    pub accounting_digest: u64,
    pub state_hash: u64,
    pub reply_hash: u64,
}

/// Parses `pins.json` (compiled in): the pins of `w`, if recorded.
pub fn pinned(w: Workload) -> Option<Pins> {
    let doc = json::parse(include_str!("../pins.json")).expect("pins.json is valid JSON");
    let entry = doc.get("workloads")?.get(w.name())?;
    let hex = |key: &str| {
        let s = entry.get(key)?.as_str()?;
        u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
    };
    Some(Pins {
        accounting_digest: hex("accounting_digest")?,
        state_hash: hex("state_hash")?,
        reply_hash: hex("reply_hash")?,
    })
}

/// What a whole run produced.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub pins: Pins,
    /// Lines for the human reader (trace shares, reconciliation).
    pub notes: Vec<String>,
    /// The probe/step reconciliation held (`--report` fails otherwise).
    pub reconciled: bool,
    pub sizes: Sizes,
}

fn sched_of(w: Workload) -> SchedulerConfig {
    match w {
        Workload::ReplayRetained | Workload::ReplayStreamed => inputs::cli_default(),
        _ => inputs::dyn500(),
    }
}

#[derive(Default)]
struct UnitSummary {
    jobs: usize,
    wall_s: f64,
    cpu_s: f64,
    paced: Option<Pieces>,
    peak_bytes: usize,
}

/// Seconds of a stretch of work: with the machine at its fastest when it
/// ran paced (see `pace`), raw otherwise.
fn seconds(raw_s: f64, paced: &Option<Pieces>, pacer: &Pacer) -> f64 {
    paced.as_ref().map_or(raw_s, |p| pacer.paced_s(p))
}

/// One pass over a workload: its main-phase units, then its client
/// rounds, with the output checks folded in as they happen.
#[derive(Default)]
struct Pass {
    units: Vec<UnitSummary>,
    rounds: Vec<ClientRound>,
    /// Per-round allocator high-water marks (`submit_burst`'s peak).
    round_peaks: Vec<usize>,
    /// Wall seconds of the journal-only reference units (`esp_replicated`)
    /// and of the replicated units they pair with.
    reference_wall_s: Vec<f64>,
    referenced_wall_s: Vec<f64>,
    first_unit: Option<(u64, u64)>,
    last_unit: Option<UnitResult>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Pass {
    fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Runs main-phase unit `i`. With `reference`, an `esp_replicated`
    /// unit is preceded by a journal-only run of the same items whose
    /// final digest the replicated leader must reproduce.
    fn unit(&mut self, w: Workload, inp: &Inputs, i: usize, reference: bool, mode: Mode<'_>) {
        let sched = sched_of(w);
        let trace = || inp.trace.as_ref().expect("replay workloads have a trace");
        let mut unit = match w {
            Workload::EspDyn500 | Workload::Deepq1200c => {
                simload::run_eager(w.cluster(), &sched, &inp.units[i], false, mode)
            }
            Workload::ReplayRetained => {
                let (path, _, swf) = trace();
                simload::run_swf_retained(path, swf, &sched, mode)
            }
            Workload::ReplayStreamed => {
                let (path, _, swf) = trace();
                simload::run_swf_streamed(path, swf, &sched, w.unit_size(), mode)
            }
            Workload::EspReplicated => {
                let reference = reference.then(|| {
                    simload::run_eager(w.cluster(), &sched, &inp.units[i], true, Mode::Plain)
                });
                let unit = simload::run_replicated(
                    &sched,
                    &inp.units[i],
                    reference.as_ref().map(|r| r.state_hash),
                    mode,
                );
                // converge(), plus the digest comparison when there is one.
                self.attempted += 1 + u64::from(reference.is_some());
                if let Some(r) = reference {
                    self.reference_wall_s.push(r.wall_s);
                    self.referenced_wall_s.push(unit.wall_s);
                }
                unit
            }
            Workload::SubmitBurst => unreachable!("submit_burst has no simulator units"),
        };
        // Every submitted job must run to completion.
        let submitted = w.unit_size();
        self.attempted += submitted as u64;
        if !unit.drained || unit.jobs != submitted {
            self.fail(
                submitted.saturating_sub(unit.jobs).max(1) as u64,
                format!(
                    "unit {i}: {} of {submitted} jobs completed, drained={}",
                    unit.jobs, unit.drained
                ),
            );
        }
        for f in &unit.failures {
            self.fail(1, format!("unit {i}: {f}"));
        }
        if self.first_unit.is_none() {
            self.first_unit = Some((unit.accounting_digest, unit.state_hash));
        }
        self.units.push(UnitSummary {
            jobs: unit.jobs,
            wall_s: unit.wall_s,
            cpu_s: unit.cpu_s,
            paced: unit.paced.take(),
            peak_bytes: unit.peak_bytes,
        });
        self.last_unit = Some(unit);
    }

    /// The state the client phase runs on: what the main phase left, or a
    /// fresh server for `submit_burst`, whose main phase the client phase is.
    fn end_state(&self, w: Workload) -> (PbsServer, SimTime) {
        match &self.last_unit {
            Some(u) => (u.server.clone(), u.now),
            None => {
                let (nodes, per_node) = w.cluster();
                (
                    PbsServer::new(Cluster::homogeneous(nodes, per_node), AllocPolicy::Pack),
                    SimTime::ZERO,
                )
            }
        }
    }

    /// Runs client round `r` on a copy of `base`.
    fn round(
        &mut self,
        w: Workload,
        inp: &Inputs,
        r: usize,
        (base, now): &(PbsServer, SimTime),
        mode: Mode<'_>,
    ) {
        let server = base.clone();
        let floor = alloc_meter::reset_peak();
        let round = client::run_round(server, *now, &inp.client[r], &sched_of(w), RECOVERS, mode);
        self.round_peaks
            .push(round.peak_bytes.saturating_sub(floor));
        self.attempted += round.attempted;
        self.failed += round.failed;
        for f in &round.failures {
            self.fail(0, format!("round {r}: {f}"));
        }
        self.rounds.push(round);
    }

    /// Raw wall seconds of everything the pass timed.
    fn wall_s(&self) -> f64 {
        self.units.iter().map(|u| u.wall_s).sum::<f64>()
            + self
                .rounds
                .iter()
                .map(|r| r.write_wall_s + r.read_wall_s)
                .sum::<f64>()
    }
}

/// The gated run: every unit, then every client round, paced.
fn gated_pass(w: Workload, inp: &Inputs, sizes: Sizes, pacer: &mut Pacer) -> Pass {
    let mut pass = Pass::default();
    for i in 0..sizes.units {
        pass.unit(w, inp, i, i % REFERENCE_EVERY == 0, Mode::Paced(pacer));
    }
    let base = pass.end_state(w);
    pass.last_unit = None;
    for r in 0..sizes.client_rounds {
        pass.round(w, inp, r, &base, Mode::Paced(pacer));
    }
    pass
}

/// One set-up: generate the inputs, then run a small unit of the same
/// kind so allocator, page cache and branch predictors are warm.
fn set_up(w: Workload, seed: u64, sizes: Sizes, dir: &Path) -> std::io::Result<Inputs> {
    let inp = inputs::build(w, seed, sizes, dir)?;
    let sched = sched_of(w);
    if w == Workload::SubmitBurst {
        let script = inputs::client_script(seed ^ 0x5eed, 1, 64, 2_000, 2_000);
        let server = PbsServer::new(Cluster::homogeneous(150, 8), AllocPolicy::Pack);
        let round = client::run_round(server, SimTime::ZERO, &script, &sched, 1, Mode::Plain);
        std::hint::black_box(round.reply_hash);
    } else if w == Workload::EspReplicated {
        let unit = simload::run_replicated(&sched, &inp.warmup, None, Mode::Plain);
        std::hint::black_box(unit.wall_s);
    } else {
        let unit = simload::run_eager(w.cluster(), &sched, &inp.warmup, false, Mode::Plain);
        std::hint::black_box(unit.wall_s);
    }
    Ok(inp)
}

fn remove_trace(inp: &Inputs) {
    if let Some((path, _, _)) = &inp.trace {
        let _ = std::fs::remove_file(path);
    }
}

/// The end-to-end metrics of a gated pass; `setup` holds each set-up's
/// pieces.
fn end_to_end(w: Workload, pass: &Pass, setup: &[Pieces], pacer: &Pacer) -> Vec<Metric> {
    // Main-phase samples: simulator units, or — for submit_burst — the
    // write phases, whose "jobs" are the submissions they admit.
    let main: Vec<(f64, f64, f64)> = if w == Workload::SubmitBurst {
        pass.rounds
            .iter()
            .map(|r| {
                let secs = seconds(r.write_wall_s, &r.write_paced, pacer);
                (
                    r.admitted as f64,
                    secs,
                    r.write_cpu_s * secs / r.write_wall_s,
                )
            })
            .collect()
    } else {
        pass.units
            .iter()
            .map(|u| {
                let secs = seconds(u.wall_s, &u.paced, pacer);
                (u.jobs as f64, secs, u.cpu_s * secs / u.wall_s)
            })
            .collect()
    };
    let peak = if w == Workload::SubmitBurst {
        pass.round_peaks.iter().copied().max()
    } else {
        pass.units.iter().map(|u| u.peak_bytes).max()
    };
    let mut rates: Vec<f64> = main.iter().map(|(jobs, secs, _)| jobs / secs).collect();
    let jobs: f64 = main.iter().map(|m| m.0).sum();
    let cpu_s: f64 = main.iter().map(|m| m.2).sum();

    let mut write: Vec<f64> = pass
        .rounds
        .iter()
        .map(|r| r.write_lines as f64 / seconds(r.write_wall_s, &r.write_paced, pacer))
        .collect();
    let mut read: Vec<f64> = pass
        .rounds
        .iter()
        .map(|r| r.read_lines as f64 / seconds(r.read_wall_s, &r.read_paced, pacer))
        .collect();
    let scaled = |samples: &[(f64, u32)]| -> Vec<f64> {
        samples
            .iter()
            .map(|&(v, lap)| v * pacer.factor(lap))
            .collect()
    };
    let mut acks: Vec<f64> = pass.rounds.iter().flat_map(|r| scaled(&r.ack_us)).collect();
    acks.sort_by(f64::total_cmp);
    let mut recovers: Vec<f64> = pass
        .rounds
        .iter()
        .flat_map(|r| scaled(&r.recover_ms))
        .collect();
    let mut setups: Vec<f64> = setup.iter().map(|p| pacer.paced_s(p)).collect();
    let values = [
        (median(&mut setups), setups.len()),
        (median(&mut rates), rates.len()),
        (jobs / cpu_s, main.len()),
        (peak.unwrap_or(0) as f64, main.len()),
        (median(&mut write), write.len()),
        (median(&mut read), read.len()),
        (quantile_sorted(&acks, 0.50), acks.len()),
        (quantile_sorted(&acks, 0.95), acks.len()),
        (median(&mut recovers), recovers.len()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, n))| Metric {
            name,
            unit,
            value,
            n,
        })
        .collect()
}

/// Everything the recorder can say by itself: `name → (value, samples)`.
/// A key is present only when the recorder saw that layer at work.
fn derive(rec: &Recorder) -> BTreeMap<&'static str, (f64, usize)> {
    let mut m: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mean_of = |m: &mut BTreeMap<_, _>, key, span: &str, scale: f64| {
        let d = rec.durations_us(span);
        if !d.is_empty() {
            m.insert(key, (mean(&d) * scale, d.len()));
        }
    };
    let count_of = |m: &mut BTreeMap<_, _>, key: &'static str| {
        if let Some(v) = rec.count(key) {
            m.insert(key, (v, 1));
        }
    };

    let mut steps = rec.durations_us("sim.step");
    if !steps.is_empty() {
        let n = steps.len();
        m.insert("sim.step.count", (n as f64, n));
        m.insert("sim.step.busy_s", (steps.iter().sum::<f64>() / 1e6, n));
        steps.sort_by(f64::total_cmp);
        m.insert("sim.step_us_p50", (quantile_sorted(&steps, 0.50), n));
        m.insert("sim.step_us_p99", (quantile_sorted(&steps, 0.99), n));
        let (by_name, total) = rec.breakdown("sim.step", true);
        if total > 0.0 {
            let own = by_name.get("sim.step").copied().unwrap_or(0.0);
            m.insert("sim.step.self_share", (own / total, n));
        }
    }
    count_of(&mut m, "sim.cycles");
    count_of(&mut m, "sim.admission_peak");
    mean_of(&mut m, "sim.load_ms", "sim.load", 1e-3);

    for (span, mean_key, p99_key, growth_key) in [
        (
            "server.snapshot",
            "server.snapshot_us_mean",
            "server.snapshot_us_p99",
            "server.snapshot_growth_x",
        ),
        (
            "sched.iterate",
            "sched.iterate_us_mean",
            "sched.iterate_us_p99",
            "sched.iterate_growth_x",
        ),
    ] {
        let by_unit = rec.durations_us_by_unit(span);
        let mut all = by_unit.concat();
        if all.is_empty() {
            continue;
        }
        let n = all.len();
        m.insert(mean_key, (mean(&all), n));
        let mut growth: Vec<f64> = by_unit.iter().map(|u| growth_x(u)).collect();
        m.insert(growth_key, (median(&mut growth), growth.len()));
        all.sort_by(f64::total_cmp);
        m.insert(p99_key, (quantile_sorted(&all, 0.99), n));
        if span == "sched.iterate" {
            m.insert("sched.iterate_us_p50", (quantile_sorted(&all, 0.50), n));
        }
    }
    count_of(&mut m, "server.jobs_resident_max");
    mean_of(&mut m, "server.apply_us_mean", "server.apply", 1.0);
    mean_of(&mut m, "server.qsub_us_mean", "server.qsub", 1.0);
    mean_of(&mut m, "server.qdel_us_mean", "server.qdel", 1.0);
    mean_of(&mut m, "server.qstat_us_mean", "server.qstat", 1.0);
    mean_of(&mut m, "server.image_us_mean", "server.image", 1.0);
    mean_of(
        &mut m,
        "server.state_digest_ms",
        "server.state_digest",
        1e-3,
    );
    mean_of(&mut m, "server.recover_ms", "server.recover", 1e-3);

    if let (Some(records), Some(jobs)) = (rec.count("journal.records"), rec.count("journal.jobs")) {
        m.insert("journal.records", (records, 1));
        m.insert("journal.records_per_job", (records / jobs.max(1.0), 1));
        let compactions = rec.count("journal.compactions").unwrap_or(0.0);
        m.insert("journal.compactions", (compactions, 1));
    }
    let text = rec.samples_of("journal.text_bytes_per_record");
    if !text.is_empty() {
        m.insert("journal.text_bytes_per_record", (mean(text), text.len()));
    }
    mean_of(&mut m, "journal.to_text_ms", "journal.to_text", 1e-3);
    mean_of(&mut m, "journal.from_text_ms", "journal.from_text", 1e-3);

    if let (Some(cmds), Some(batches)) = (rec.count("reactor.cmds"), rec.count("reactor.batches")) {
        let n = cmds as usize;
        let parse_us: f64 = rec.durations_us("reactor.parse").iter().sum();
        m.insert("reactor.parse_us_mean", (parse_us / cmds, n));
        let (by_name, _) = rec.breakdown("client.batch", false);
        let poll_self = by_name.get("reactor.poll_batch").copied().unwrap_or(0.0);
        m.insert("reactor.poll_self_us_per_cmd", (poll_self / 1e3 / cmds, n));
        m.insert("reactor.batches", (batches, 1));
        m.insert(
            "reactor.cmds_per_batch",
            (cmds / batches.max(1.0), batches as usize),
        );
        m.insert(
            "reactor.denied",
            (rec.count("reactor.denied").unwrap_or(0.0), 1),
        );
    }

    if let Some(records) = rec.count("replication.probe_records").filter(|r| *r > 0.0) {
        let n = records as usize;
        let per = |key: &str| rec.count(key).unwrap_or(0.0) / records;
        m.insert(
            "replication.encode_us_per_record",
            (per("replication.encode_ns") / 1e3, n),
        );
        m.insert(
            "replication.follower_apply_us_per_record",
            (per("replication.apply_ns") / 1e3, n),
        );
        m.insert(
            "replication.frame_bytes_per_record",
            (per("replication.frame_bytes"), n),
        );
        for key in [
            "replication.max_lag_records",
            "replication.records_sent",
            "replication.marks_sent",
            "replication.snapshots_sent",
            "replication.resends",
            "replication.follower_cpu_s",
        ] {
            m.insert(key, (rec.count(key).unwrap_or(0.0), 1));
        }
        mean_of(
            &mut m,
            "replication.failover_ms",
            "replication.failover",
            1e-3,
        );
    }

    mean_of(&mut m, "sched.rank_us_mean", "sched.rank", 1.0);
    let depth = rec.samples_of("sched.queue_depth");
    if !depth.is_empty() {
        m.insert("sched.queue_depth_mean", (mean(depth), depth.len()));
        let max = depth.iter().copied().fold(0.0, f64::max);
        m.insert("sched.queue_depth_max", (max, depth.len()));
        let running = rec.samples_of("sched.running");
        m.insert("sched.running_mean", (mean(running), running.len()));
    }
    for key in [
        "sched.dyn_granted",
        "sched.dyn_rejected",
        "sched.dyn_rejected_fairness",
        "sched.delay_charged_ms",
        "sched.timeline.rebuilds",
        "sched.timeline.delta_batches",
        "sched.timeline.deltas_applied",
    ] {
        count_of(&mut m, key);
    }
    if let (Some(&(g, _)), Some(&(r, _))) =
        (m.get("sched.dyn_granted"), m.get("sched.dyn_rejected"))
    {
        let ratio = if g + r > 0.0 { g / (g + r) } else { 0.0 };
        m.insert("sched.grant_ratio", (ratio, (g + r) as usize));
    }

    if let Some(jobs) = rec.count("workload.swf_jobs").filter(|j| *j > 0.0) {
        let us = rec.durations_us("workload.swf_parse").iter().sum::<f64>()
            + rec.count("workload.swf_parse_ns").unwrap_or(0.0) / 1e3;
        m.insert("workload.swf_parse_us_per_job", (us / jobs, jobs as usize));
    }
    let util = rec.samples_of("cluster.utilization");
    if !util.is_empty() {
        m.insert("cluster.utilization", (mean(util), util.len()));
    }
    m
}

/// A [`Recorder::breakdown`] of the spans called `top` as printable
/// lines: self-time shares by layer, then by span name.
fn share_lines(top: &str, by_name: &BTreeMap<&'static str, f64>, total: f64) -> Vec<String> {
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, ns) in by_name {
        *by_layer.entry(layer_of(name)).or_insert(0.0) += ns;
    }
    let mut lines = vec![format!(
        "  self-time shares under {top} ({:.3} s):",
        total / 1e9
    )];
    for (layer, ns) in &by_layer {
        lines.push(format!("    {layer:<12} {:>6.1} %", 100.0 * ns / total));
    }
    for (name, ns) in by_name {
        lines.push(format!("      {name:<22} {:>6.1} %", 100.0 * ns / total));
    }
    lines
}

/// Runs workload `w` once, as the driver does.
pub fn run(w: Workload, args: &Args) -> Result<RunResult, String> {
    let scale = args.seconds / spec::NOMINAL_SECONDS * if args.quick { 0.1 } else { 1.0 };
    let sizes = Sizes::of(w, scale);
    let dir = out_dir();

    // The gated run is paced, set-up included; a traced run times raw.
    let mut pacer = (!args.trace).then(Pacer::new);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut inp = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = inp.take() {
            remove_trace(&prev);
        }
        let t0 = Instant::now();
        inp = Some(set_up(w, args.seed, sizes, &dir).map_err(|e| format!("set-up: {e}"))?);
        let dt = t0.elapsed();
        if let Some(p) = pacer.as_mut() {
            let mut pieces = Pieces::default();
            p.add(dt, &mut pieces);
            p.finish();
            setup.push(pieces);
        }
    }
    let inp = inp.expect("SETUP_REPS > 0");
    let result = match pacer.as_mut() {
        None => traced(w, args, sizes, &inp, &dir),
        Some(pacer) => {
            let pass = gated_pass(w, &inp, sizes, pacer);
            pacer.finish();
            let metrics = end_to_end(w, &pass, &setup, pacer);
            let (best_s, n) = pacer.best();
            let notes = vec![format!(
                "  pacing: reference unit best {:.3} ms, median {:.3} ms over {n} runs; {:.2} s of raw measured work",
                best_s * 1e3,
                pacer.median() * 1e3,
                pass.wall_s()
            )];
            Ok(conclude(w, args, sizes, pass, metrics, notes, true))
        }
    };
    remove_trace(&inp);
    result
}

/// Folds a pass's checks and the pin comparison into a [`RunResult`].
fn conclude(
    w: Workload,
    args: &Args,
    sizes: Sizes,
    mut pass: Pass,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    reconciled: bool,
) -> RunResult {
    let (accounting_digest, state_hash) = match (pass.first_unit, pass.rounds.first()) {
        (Some(first), _) => first,
        (None, Some(round)) => (0, round.state_hash),
        (None, None) => (0, 0),
    };
    let pins = Pins {
        accounting_digest,
        state_hash,
        reply_hash: pass.rounds.first().map_or(0, |r| r.reply_hash),
    };
    // Pins hold for the default seed at full line counts (unit counts do
    // not matter: the first unit and first round are pinned).
    let full_size = sizes.write_lines == Sizes::of(w, 1.0).write_lines;
    if args.seed == spec::DEFAULT_SEED && full_size && !args.write_pins {
        pass.attempted += 1;
        match pinned(w) {
            Some(want) if want == pins => {}
            Some(want) => pass.fail(
                1,
                format!("digests {pins:x?} differ from the pins {want:x?}"),
            ),
            None => pass.fail(1, "no pins recorded for this workload".into()),
        }
    }
    RunResult {
        attempted: pass.attempted.max(1),
        failed: pass.failed,
        failures: pass.failures,
        metrics,
        pins,
        notes,
        reconciled,
        sizes,
    }
}

/// A traced run: an untraced pass and a traced pass of the same units
/// (half the gated run's count each), so tracing overhead is a measured
/// ratio; then context units for the layers this workload bypasses.
fn traced(
    w: Workload,
    args: &Args,
    sizes: Sizes,
    inp: &Inputs,
    dir: &Path,
) -> Result<RunResult, String> {
    let units = sizes.units.div_ceil(2);
    let rounds = sizes.client_rounds.div_ceil(2);
    // Untraced and traced alternate unit by unit, and which of the two
    // goes first alternates too: the second of a pair finds the heap the
    // first one grew, and runs measurably faster for it.
    let mut plain = Pass::default();
    let mut pass = Pass::default();
    let mut rec = Recorder::new(w.probe_every());
    for i in 0..units {
        if i % 2 == 0 {
            plain.unit(w, inp, i, true, Mode::Plain);
        }
        pass.unit(w, inp, i, false, Mode::traced(&mut rec, i as u32));
        if i % 2 == 1 {
            plain.unit(w, inp, i, true, Mode::Plain);
        }
    }
    let base = pass.end_state(w);
    plain.last_unit = None;
    pass.last_unit = None;
    for r in 0..rounds {
        if r % 2 == 0 {
            plain.round(w, inp, r, &base, Mode::Plain);
        }
        pass.round(w, inp, r, &base, Mode::traced(&mut rec, 10_000 + r as u32));
        if r % 2 == 1 {
            plain.round(w, inp, r, &base, Mode::Plain);
        }
    }
    pass.attempted += plain.attempted;
    pass.failed += plain.failed;
    pass.failures.extend(plain.failures.iter().cloned());

    // Tracing must not change what the program computes.
    pass.attempted += 1;
    if plain.first_unit != pass.first_unit
        || plain.rounds.first().map(|r| r.reply_hash) != pass.rounds.first().map(|r| r.reply_hash)
    {
        pass.fail(
            1,
            "traced pass digests differ from the untraced pass's".into(),
        );
    }

    let overhead_x = pass.wall_s() / plain.wall_s();

    let mut m = derive(&rec);
    let mut notes = Vec::new();

    // Context units for bypassed layers, in a recorder of their own so
    // the workload's shares stay the workload's.
    let mut ctx = Recorder::new(Workload::EspDyn500.probe_every());
    if !m.contains_key("sim.step.count") {
        probes::sim_context(&mut ctx, args.seed);
        notes.push(
            "  sim/sched/server.snapshot metrics: context ESP units (workload has no simulator)"
                .into(),
        );
    }
    if !m.contains_key("replication.records_sent") {
        for f in probes::replication_context(&mut ctx, args.seed) {
            pass.fail(1, format!("replication context: {f}"));
        }
        notes.push(
            "  replication metrics: context replicated ESP units (workload does not replicate)"
                .into(),
        );
    }
    for (key, value) in derive(&ctx) {
        m.entry(key).or_insert(value);
    }

    match &inp.trace {
        Some((path, bytes, swf)) => {
            let jobs = w.unit_size() as f64;
            m.insert("workload.swf_bytes_per_job", (*bytes as f64 / jobs, 1));
            if !m.contains_key("workload.swf_parse_us_per_job") {
                let (jobs, secs) = probes::swf_parse(path, swf);
                m.insert(
                    "workload.swf_parse_us_per_job",
                    (secs * 1e6 / jobs as f64, jobs),
                );
            }
        }
        None => {
            let (bytes, us) = probes::swf_context(dir, args.seed).map_err(|e| e.to_string())?;
            m.insert("workload.swf_bytes_per_job", (bytes, 1));
            m.insert("workload.swf_parse_us_per_job", (us, 2_000));
        }
    }
    let generate_us = if inp.generated_jobs > 0 {
        (
            inp.generate_s * 1e6 / inp.generated_jobs as f64,
            inp.generated_jobs,
        )
    } else {
        let t0 = Instant::now();
        let lines: usize = inp
            .client
            .iter()
            .map(|c| c.write.len() + c.read.len())
            .sum();
        std::hint::black_box(inputs::client_script(args.seed, 1, 64, 5_000, 5_000));
        (t0.elapsed().as_secs_f64() * 1e6 / 10_000.0, lines)
    };
    m.insert("workload.generate_us_per_job", generate_us);

    if w == Workload::ReplayStreamed {
        // A streamed unit admits inside `run_streamed`, which no span can
        // enter: admission is what the untraced units took beyond the
        // traced units' steps and parsing.
        let steps_s = rec.durations_us("sim.step").iter().sum::<f64>() / 1e6;
        let parse_s = rec.count("workload.swf_parse_ns").unwrap_or(0.0) / 1e9;
        let plain_s: f64 = plain.units.iter().map(|u| u.wall_s).sum();
        let admit_ms = (plain_s - steps_s - parse_s).max(0.0) * 1e3 / units as f64;
        m.insert("sim.load_ms", (admit_ms, units));
        notes.push(format!(
            "  sim.load_ms (admission inside run_streamed): untraced {plain_s:.3} s - traced steps {steps_s:.3} s - parsing {parse_s:.3} s, over {units} units"
        ));
    }
    let pending = m.get("sim.admission_peak").map_or(64.0, |v| v.0).max(16.0) as usize;
    m.insert(
        "simtime.schedule_pop_ns",
        (probes::schedule_pop_ns(pending), 200_000),
    );

    let wall_x = if plain.reference_wall_s.is_empty() {
        // Context: one journal-only and one replicated ESP unit.
        let items = inputs::esp_unit(args.seed);
        let base = simload::run_eager((15, 8), &inputs::dyn500(), &items, true, Mode::Plain);
        let repl = simload::run_replicated(
            &inputs::dyn500(),
            &items,
            Some(base.state_hash),
            Mode::Plain,
        );
        (repl.wall_s / base.wall_s, 1)
    } else {
        let base: f64 = plain.reference_wall_s.iter().sum();
        let repl: f64 = plain.referenced_wall_s.iter().sum();
        notes.push(format!(
            "  replication.wall_x: replicated {repl:.3} s over journal-only {base:.3} s, {} interleaved units",
            plain.reference_wall_s.len()
        ));
        (repl / base, plain.reference_wall_s.len())
    };
    m.insert("replication.wall_x", wall_x);
    m.insert(
        "trace.spans",
        ((rec.span_count() + ctx.span_count()) as f64, 1),
    );
    m.insert("trace.overhead_x", (overhead_x, units + rounds));
    notes.push(format!(
        "  trace.overhead_x: traced {:.3} s over untraced {:.3} s",
        pass.wall_s(),
        plain.wall_s()
    ));

    // Where the time went, and whether the re-executed cycle accounts
    // for the step it re-executes.
    let mut reconciled = true;
    let (by_name, total) = rec.breakdown("sim.step", true);
    if total > 0.0 {
        notes.extend(share_lines("sim.step", &by_name, total));
        let own = by_name.get("sim.step").copied().unwrap_or(0.0);
        let children: f64 = by_name.values().sum::<f64>() - own;
        // `own` is floored at zero per step, so children may exceed the
        // total: that is the probe over-estimating.
        let ratio = children / total;
        // The re-executed cycle can never cost more than the step it is
        // part of; where the steps are all cycle (the deep queue) it must
        // also account for the step. Elsewhere the rest is real: event
        // application, the mutations of the first `apply`, admission,
        // `EventQueue::peek_time`'s scan of a long pending list, the
        // replication pump.
        let all_cycle = w == Workload::Deepq1200c;
        reconciled = ratio <= 1.15 && (!all_cycle || ratio >= 0.85);
        notes.push(format!(
            "  reconciliation: re-executed cycle = {:.1} % of the probed steps' time (bound: {}){}",
            100.0 * ratio,
            if all_cycle {
                "85-115 %"
            } else {
                "at most 115 %"
            },
            if reconciled { "" } else { "  [OUTSIDE]" }
        ));
    }
    let (by_name, total) = rec.breakdown("client.batch", false);
    if total > 0.0 {
        notes.extend(share_lines("client.batch", &by_name, total));
    }
    let path = dir.join(format!("trace-{}.json", w.name()));
    rec.write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "  trace written to {} ({} spans)",
        path.display(),
        rec.span_count()
    ));

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = m.get(name).copied().unwrap_or_else(|| {
                pass.fail(1, format!("per-layer metric {name} was not measured"));
                (0.0, 0)
            });
            Metric {
                name,
                unit,
                value,
                n,
            }
        })
        .collect();
    Ok(conclude(w, args, sizes, pass, metrics, notes, reconciled))
}

/// Runs `w` and prints the metric table, then — as the last line — the
/// result object. Returns whether the run was correct.
pub fn run_and_print(w: Workload, args: &Args) -> Result<bool, String> {
    let res = run(w, args)?;
    println!(
        "{}  seed {}  trace {}  units {}  client rounds {}  (load from 1 thread; nproc {})",
        w.name(),
        args.seed,
        u8::from(args.trace),
        res.sizes.units,
        res.sizes.client_rounds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in &res.metrics {
        println!("  {:<42} {:>18.4} {:<8} n={}", m.name, m.value, m.unit, m.n);
    }
    for line in &res.notes {
        println!("{line}");
    }
    println!(
        "  digests: accounting {:#018x}  state {:#018x}  replies {:#018x}",
        res.pins.accounting_digest, res.pins.state_hash, res.pins.reply_hash
    );
    for f in &res.failures {
        println!("  FAILED: {f}");
    }
    let correct = res.failed == 0;
    let metrics = res
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                Json::Float(m.value).to_string_compact(),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        res.attempted, res.failed
    );
    if args.report && !res.reconciled {
        eprintln!("error: probe/step reconciliation outside its bound");
        return Ok(false);
    }
    Ok(correct)
}
