//! The benchmark's vocabulary: workload names, unit counts, and the
//! end-to-end and per-layer metric names with their units. `BENCHMARK.json`
//! carries the same names; `tests/quick.rs` checks the two agree.

/// The default `--seed`. The documented hold-out seed is 77.
pub const DEFAULT_SEED: u64 = 20_140_808;

/// `--seconds` at which the unit counts below apply; other values scale
/// the counts, never the unit definitions.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// Lines a client sends before it reads their acks (the reply channel's
/// capacity, so a single-threaded client never overflows it).
pub const BATCH: usize = 64;

/// Compaction cadence of every journaled server — the daemon's
/// `JOURNAL_SNAPSHOT_EVERY`.
pub const JOURNAL_SNAPSHOT_EVERY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EspDyn500,
    Deepq1200c,
    ReplayRetained,
    ReplayStreamed,
    SubmitBurst,
    EspReplicated,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload::EspDyn500,
    Workload::Deepq1200c,
    Workload::ReplayRetained,
    Workload::ReplayStreamed,
    Workload::SubmitBurst,
    Workload::EspReplicated,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::EspDyn500 => "esp_dyn500",
            Workload::Deepq1200c => "deepq_1200c",
            Workload::ReplayRetained => "replay_retained",
            Workload::ReplayStreamed => "replay_streamed",
            Workload::SubmitBurst => "submit_burst",
            Workload::EspReplicated => "esp_replicated",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Units in the main phase of one nominal-length run, sized on the
    /// reference box (2 shared cores) so main plus client phase measure
    /// for about [`NOMINAL_SECONDS`].
    pub fn nominal_units(self) -> usize {
        match self {
            Workload::EspDyn500 => 560,
            Workload::Deepq1200c => 2,
            Workload::ReplayRetained => 1,
            Workload::ReplayStreamed => 2,
            Workload::SubmitBurst => 4,
            Workload::EspReplicated => 280,
        }
    }

    /// Jobs (for `submit_burst`: write-phase command lines) in one unit.
    pub fn unit_size(self) -> usize {
        match self {
            Workload::EspDyn500 | Workload::EspReplicated => 230,
            Workload::Deepq1200c => 4_000,
            Workload::ReplayRetained => 5 * 86_400 / 25,
            Workload::ReplayStreamed => 30 * 86_400 / 25,
            Workload::SubmitBurst => 50_000,
        }
    }

    /// Client rounds that follow the main phase of a nominal-length run
    /// (`submit_burst`'s units are its rounds). Fewer where a round is
    /// slow: the state it runs on holds more jobs.
    pub fn nominal_client_rounds(self) -> usize {
        match self {
            Workload::SubmitBurst => self.nominal_units(),
            Workload::ReplayRetained => 4,
            Workload::Deepq1200c => 8,
            _ => 12,
        }
    }

    /// `(nodes, cores per node)` of the cluster the workload runs on.
    pub fn cluster(self) -> (u32, u32) {
        match self {
            Workload::Deepq1200c | Workload::SubmitBurst => (150, 8),
            _ => (15, 8),
        }
    }

    /// The harness re-executes the scheduler cycle on clones after every
    /// this-many-th step of a traced run — about 500 to 1 000 probes per
    /// unit of the long workloads, ~90 per ESP unit.
    pub fn probe_every(self) -> u64 {
        match self {
            Workload::EspDyn500 | Workload::EspReplicated | Workload::SubmitBurst => 8,
            Workload::Deepq1200c => 16,
            Workload::ReplayRetained => 64,
            Workload::ReplayStreamed => 256,
        }
    }
}

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("leader_jobs_per_cpu_s", "jobs/s"),
    ("peak_alloc_bytes", "bytes"),
    ("write_cmds_per_s", "cmds/s"),
    ("read_cmds_per_s", "cmds/s"),
    ("ack_us_p50", "us"),
    ("ack_us_p95", "us"),
    ("recover_ms_p50", "ms"),
];

/// Per-layer metrics: `(name, unit)`, grouped by layer (the name up to
/// its first `.`; layers are crate or module names).
pub const PER_LAYER: [(&str, &str); 64] = [
    ("sim.step.count", "count"),
    ("sim.step.busy_s", "s"),
    ("sim.step_us_p50", "us"),
    ("sim.step_us_p99", "us"),
    ("sim.step.self_share", "share"),
    ("sim.cycles", "count"),
    ("sim.admission_peak", "count"),
    ("sim.load_ms", "ms"),
    ("server.snapshot_us_mean", "us"),
    ("server.snapshot_us_p99", "us"),
    ("server.snapshot_growth_x", "x"),
    ("server.jobs_resident_max", "count"),
    ("server.apply_us_mean", "us"),
    ("server.qsub_us_mean", "us"),
    ("server.qdel_us_mean", "us"),
    ("server.qstat_us_mean", "us"),
    ("server.image_us_mean", "us"),
    ("server.state_digest_ms", "ms"),
    ("server.recover_ms", "ms"),
    ("journal.records", "count"),
    ("journal.records_per_job", "ratio"),
    ("journal.compactions", "count"),
    ("journal.text_bytes_per_record", "bytes"),
    ("journal.to_text_ms", "ms"),
    ("journal.from_text_ms", "ms"),
    ("reactor.parse_us_mean", "us"),
    ("reactor.poll_self_us_per_cmd", "us"),
    ("reactor.batches", "count"),
    ("reactor.cmds_per_batch", "count"),
    ("reactor.denied", "count"),
    ("replication.encode_us_per_record", "us"),
    ("replication.frame_bytes_per_record", "bytes"),
    ("replication.follower_apply_us_per_record", "us"),
    ("replication.max_lag_records", "count"),
    ("replication.records_sent", "count"),
    ("replication.marks_sent", "count"),
    ("replication.snapshots_sent", "count"),
    ("replication.resends", "count"),
    ("replication.follower_cpu_s", "s"),
    ("replication.wall_x", "x"),
    ("replication.failover_ms", "ms"),
    ("sched.iterate_us_mean", "us"),
    ("sched.iterate_us_p50", "us"),
    ("sched.iterate_us_p99", "us"),
    ("sched.iterate_growth_x", "x"),
    ("sched.rank_us_mean", "us"),
    ("sched.queue_depth_mean", "count"),
    ("sched.queue_depth_max", "count"),
    ("sched.running_mean", "count"),
    ("sched.dyn_granted", "count"),
    ("sched.dyn_rejected", "count"),
    ("sched.dyn_rejected_fairness", "count"),
    ("sched.grant_ratio", "ratio"),
    ("sched.delay_charged_ms", "ms"),
    ("sched.timeline.rebuilds", "count"),
    ("sched.timeline.delta_batches", "count"),
    ("sched.timeline.deltas_applied", "count"),
    ("workload.generate_us_per_job", "us"),
    ("workload.swf_parse_us_per_job", "us"),
    ("workload.swf_bytes_per_job", "bytes"),
    ("simtime.schedule_pop_ns", "ns"),
    ("cluster.utilization", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_x", "x"),
];
