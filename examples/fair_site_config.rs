//! Site-style dynamic-fairness configuration (the paper's Fig 6) applied
//! to the paper's Fig 1 scenario.
//!
//! Fig 1: a 6-node cluster. Job A (user01) runs on 2 nodes for 8 hours,
//! job B (user02) on 2 nodes for 4 hours; job C (user03, 4 nodes) queues
//! and would start when B finishes. If A dynamically grabs the 2 idle
//! nodes, C slips a further 4 hours — the unfairness the DFS policies
//! exist to bound. This example parses a Maui-style DFS config and shows
//! the scheduler's verdict on A's request as the policy changes.
//!
//! ```text
//! cargo run --example fair_site_config
//! ```

use dynbatch::core::{
    config::parse_dfs_config, CredRegistry, DfsConfig, QueueId, SchedulerConfig, SimDuration,
    SimTime,
};
use dynbatch::sched::{DynRequest, Maui, QueuedJob, RunningJob, Snapshot};

const HOUR: u64 = 3600;

/// The Fig 1 state as a scheduler snapshot (1 core = 1 node here).
fn fig1_snapshot(reg: &mut CredRegistry) -> Snapshot {
    let user01 = reg.user("user01");
    let user02 = reg.user("user02");
    let user03 = reg.user("user03");
    Snapshot {
        now: SimTime::ZERO,
        total_cores: 6,
        running: vec![
            RunningJob {
                id: dynbatch::core::JobId(1),
                user: user01,
                group: reg.group_of(user01),
                cores: 2,
                start_time: SimTime::ZERO,
                walltime_end: SimTime::from_secs(8 * HOUR),
                backfilled: false,
                reserved_extra: 0,
                malleable: None,
            },
            RunningJob {
                id: dynbatch::core::JobId(2),
                user: user02,
                group: reg.group_of(user02),
                cores: 2,
                start_time: SimTime::ZERO,
                walltime_end: SimTime::from_secs(4 * HOUR),
                backfilled: false,
                reserved_extra: 0,
                malleable: None,
            },
        ]
        .into(),
        queued: vec![QueuedJob {
            id: dynbatch::core::JobId(3),
            user: user03,
            group: reg.group_of(user03),
            queue: QueueId(0),
            cores: 4,
            walltime: SimDuration::from_hours(4),
            submit_time: SimTime::ZERO,
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        }]
        .into(),
        dyn_requests: vec![DynRequest {
            job: dynbatch::core::JobId(1),
            user: user01,
            group: reg.group_of(user01),
            extra_cores: 2,
            remaining_walltime: SimDuration::from_hours(8),
            seq: 0,
            deadline: None,
        }],
        usage: None,
        deltas: None,
    }
}

fn verdict(dfs: DfsConfig, reg: &mut CredRegistry) -> String {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = dfs;
    let mut maui = Maui::new(sched);
    let out = maui.iterate(&fig1_snapshot(reg));
    match &out.dyn_decisions[0] {
        dynbatch::sched::DynDecision::Granted { delays, .. } => {
            let total: u64 = delays.iter().map(|d| d.delay.as_secs()).sum();
            format!("GRANTED (job C delayed by {:.1} h)", total as f64 / 3600.0)
        }
        dynbatch::sched::DynDecision::Rejected { reason, .. } => format!("REJECTED ({reason:?})"),
        dynbatch::sched::DynDecision::Deferred { reason, .. } => format!("DEFERRED ({reason:?})"),
    }
}

fn main() {
    println!("Fig 1 scenario: job A (user01) asks for the 2 idle nodes until its");
    println!("walltime end; queued job C (user03) would slip from t+4h to t+8h.\n");

    // Policy 1: DFS disabled — the Dynamic-HP behaviour.
    let mut reg = CredRegistry::new();
    println!(
        "DFSPolicy NONE:                  {}",
        verdict(DfsConfig::highest_priority(), &mut reg)
    );

    // Policy 2: a uniform 1-hour cumulative cap — the 4 h delay is unfair.
    let mut reg = CredRegistry::new();
    println!(
        "uniform 1 h target cap:          {}",
        verdict(
            DfsConfig::uniform_target(3600, SimDuration::from_hours(24)),
            &mut reg
        )
    );

    // Policy 3: the paper's Fig 6 site configuration, parsed verbatim.
    let fig6 = r"
DFSPOLICY         DFSSINGLEANDTARGETDELAY
DFSINTERVAL       06:00:00
DFSDECAY          0.4
USERCFG[user01]   DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=3600 \
                  DFSSINGLEDELAYTIME=0
USERCFG[user02]   DFSDYNDELAYPERM=0
USERCFG[user03]   DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=0 \
                  DFSSINGLEDELAYTIME=00:30:00
USERCFG[user04]   DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=02:00:00 \
                  DFSSINGLEDELAYTIME=00:15:00
GROUPCFG[group05] DFSTARGETDELAYTIME=04:00:00
GROUPCFG[group06] DFSDYNDELAYPERM=0
";
    let mut reg = CredRegistry::new();
    let cfg = parse_dfs_config(fig6, &mut reg).expect("Fig 6 parses");
    println!(
        "paper Fig 6 config:              {}",
        verdict(cfg, &mut reg)
    );
    println!("\n(under Fig 6, user03's jobs may each be delayed at most 30 minutes,");
    println!(" so A's 4-hour land-grab is refused — C's reservation stands.)");
}
