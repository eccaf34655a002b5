//! Scheduler and dynamic-fairness configuration.
//!
//! Mirrors the administrator-facing knobs of the extended Maui scheduler:
//! the classic parameters (`ReservationDepth`, backfill policy, priority
//! weights, fairshare) plus the paper's new family —
//! `ReservationDelayDepth` and the **DFS** (dynamic fairness) parameters of
//! §III-D. A small parser accepts the Maui-style text format shown in the
//! paper's Fig 6.

use crate::ids::{CredRegistry, GroupId, UserId};
use crate::time::SimDuration;
use std::collections::HashMap;

/// Backfill strategy for jobs below the reservation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackfillPolicy {
    /// No backfilling: strict priority order.
    None,
    /// EASY backfilling: a lower-priority job may start out of order as long
    /// as it does not delay any of the top-`ReservationDepth` reservations.
    #[default]
    Easy,
    /// Conservative backfilling: a job may start only if it delays no
    /// currently reserved job at all (reservations are created for every
    /// queued job that fits in the lookahead).
    Conservative,
}

/// How cores are placed onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Fill the most-loaded nodes first (minimises fragmentation).
    #[default]
    Pack,
    /// Fill the least-loaded nodes first (spreads jobs for bandwidth).
    Spread,
    /// A node is given to at most one job at a time.
    NodeExclusive,
}

/// Weights for the Maui composite priority function.
///
/// `priority = boost + queue_time_weight·wait_minutes
///            + expansion_weight·(wait/walltime)
///            + resource_weight·cores + fairshare_weight·fs_delta`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityWeights {
    /// Weight on minutes spent queued (the dominant FIFO-ish factor).
    pub queue_time_weight: f64,
    /// Weight on the expansion factor `wait / walltime`.
    pub expansion_weight: f64,
    /// Weight on requested cores (positive favours large jobs).
    pub resource_weight: f64,
    /// Weight on the fairshare deviation (target − usage share).
    pub fairshare_weight: f64,
}

impl Default for PriorityWeights {
    fn default() -> Self {
        PriorityWeights {
            queue_time_weight: 1.0,
            expansion_weight: 0.0,
            resource_weight: 0.0,
            fairshare_weight: 0.0,
        }
    }
}

/// Static fairshare configuration (classic Maui §III-A; distinct from DFS).
#[derive(Debug, Clone, PartialEq)]
pub struct FairshareConfig {
    /// Whether fairshare influences priority at all.
    pub enabled: bool,
    /// Which usage-accounting backend feeds the fairshare priority term.
    pub mode: FairshareMode,
    /// Length of one fairshare window (static mode). `ZERO` means an
    /// **infinite window**: usage accumulates forever with no decay, and
    /// only a single window may be configured (`windows == 1`) — any other
    /// combination is rejected by [`SchedulerConfig::validate`].
    pub window: SimDuration,
    /// Number of historical windows retained (static mode).
    pub windows: usize,
    /// Per-window decay applied to historical usage (newest window weight 1,
    /// then ×decay per step back; static mode).
    pub decay: f64,
    /// Half-life of the decayed resource-hour accounts (time-aware mode):
    /// a charge loses half its weight every `half_life`.
    pub half_life: SimDuration,
    /// Per-user usage-share targets (fraction of the system); users absent
    /// here get `default_target`.
    pub user_targets: HashMap<UserId, f64>,
    /// Target for users without an explicit entry.
    pub default_target: f64,
    /// Per-user decayed resource-hour budget (time-aware mode). A user
    /// whose decayed account exceeds this many core-hours has their queued
    /// jobs demoted (not denied) until decay drains the account.
    pub user_budget_core_hours: Option<f64>,
    /// Per-queue decayed resource-hour budget (time-aware mode), same
    /// demotion semantics as the user budget.
    pub queue_budget_core_hours: Option<f64>,
    /// Priority subtracted from a job whose owner (user or queue) is over
    /// budget. Large enough to rank over-budget work behind everything
    /// else, small enough that explicit `priority_boost` escalation can
    /// still outrank it.
    pub budget_demotion: f64,
}

/// Which usage history backs the fairshare priority component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairshareMode {
    /// The paper's windowed tracker: geometric decay over rotating
    /// fixed-length windows, charged by the sim/daemon at segment sync.
    #[default]
    Static,
    /// Decayed resource-hour accounts fed segment-exactly from the
    /// server's journalled usage ledger: exponential half-life decay,
    /// cluster-capacity normalization, per-user/per-queue budgets, and a
    /// heavy-user penalty on dynamic-request admission.
    TimeAware,
}

impl Default for FairshareConfig {
    fn default() -> Self {
        FairshareConfig {
            enabled: false,
            mode: FairshareMode::Static,
            window: SimDuration::from_hours(1),
            windows: 8,
            decay: 0.7,
            half_life: SimDuration::from_hours(24),
            user_targets: HashMap::new(),
            default_target: 0.1,
            user_budget_core_hours: None,
            queue_budget_core_hours: None,
            budget_demotion: 1e6,
        }
    }
}

/// The `DFSPolicy` parameter: which dynamic-fairness checks apply
/// (paper §III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DfsPolicy {
    /// Dynamic fairness disabled: dynamic requests take highest priority and
    /// delays to static jobs are ignored (the paper's *Dynamic-HP*).
    #[default]
    None,
    /// Limit the delay inflicted on each individual queued job
    /// (`DFSSingleDelayTime`).
    SingleJobDelay,
    /// Limit the *cumulative* delay per user/group per interval
    /// (`DFSTargetDelayTime` over `DFSInterval`).
    TargetDelay,
    /// Both limits apply (`DFSSINGLEANDTARGETDELAY`).
    SingleAndTargetDelay,
}

impl DfsPolicy {
    /// Whether the single-job check is active.
    pub fn checks_single(self) -> bool {
        matches!(
            self,
            DfsPolicy::SingleJobDelay | DfsPolicy::SingleAndTargetDelay
        )
    }

    /// Whether the cumulative-target check is active.
    pub fn checks_target(self) -> bool {
        matches!(
            self,
            DfsPolicy::TargetDelay | DfsPolicy::SingleAndTargetDelay
        )
    }
}

/// Per-credential (user or group) dynamic-fairness limits.
///
/// In the Maui text format a time of `0` means *unlimited*, which we encode
/// as `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CredLimits {
    /// `DFSDynDelayPerm`: may this credential's jobs be delayed by dynamic
    /// allocations at all? (`true` = allow, the default.)
    pub dyn_delay_perm: bool,
    /// `DFSTargetDelayTime`: cumulative delay cap per interval.
    pub target_delay_time: Option<SimDuration>,
    /// `DFSSingleDelayTime`: per-job delay cap.
    pub single_delay_time: Option<SimDuration>,
}

impl Default for CredLimits {
    fn default() -> Self {
        CredLimits {
            dyn_delay_perm: true,
            target_delay_time: None,
            single_delay_time: None,
        }
    }
}

impl CredLimits {
    /// A credential that may never be delayed (`DFSDYNDELAYPERM=0`).
    pub fn never_delay() -> Self {
        CredLimits {
            dyn_delay_perm: false,
            ..Default::default()
        }
    }

    /// A cumulative-delay cap.
    pub fn target(limit: SimDuration) -> Self {
        CredLimits {
            target_delay_time: Some(limit),
            ..Default::default()
        }
    }

    /// A per-job delay cap.
    pub fn single(limit: SimDuration) -> Self {
        CredLimits {
            single_delay_time: Some(limit),
            ..Default::default()
        }
    }

    /// Combines user and group limits by taking the most restrictive of
    /// each field (paper: "the most restrictive limits are used").
    pub fn most_restrictive(self, other: CredLimits) -> CredLimits {
        fn min_opt(a: Option<SimDuration>, b: Option<SimDuration>) -> Option<SimDuration> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (Some(x), None) => Some(x),
                (None, y) => y,
            }
        }
        CredLimits {
            dyn_delay_perm: self.dyn_delay_perm && other.dyn_delay_perm,
            target_delay_time: min_opt(self.target_delay_time, other.target_delay_time),
            single_delay_time: min_opt(self.single_delay_time, other.single_delay_time),
        }
    }
}

/// The complete dynamic-fairness configuration (paper §III-D, Fig 6).
#[derive(Debug, Clone, PartialEq)]
pub struct DfsConfig {
    /// Which checks apply.
    pub policy: DfsPolicy,
    /// `DFSInterval`: length of one accounting interval.
    pub interval: SimDuration,
    /// `DFSDecay`: fraction of the accumulated delay carried into the next
    /// interval (0 = forget everything, 1 = never forget).
    pub decay: f64,
    /// Limits applied to users without an explicit entry.
    pub default_limits: CredLimits,
    /// Per-user overrides (`USERCFG[...]`).
    pub users: HashMap<UserId, CredLimits>,
    /// Per-group overrides (`GROUPCFG[...]`).
    pub groups: HashMap<GroupId, CredLimits>,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            policy: DfsPolicy::None,
            interval: SimDuration::from_hours(1),
            decay: 0.0,
            default_limits: CredLimits::default(),
            users: HashMap::new(),
            groups: HashMap::new(),
        }
    }
}

impl DfsConfig {
    /// The paper's *Dynamic-HP* configuration: DFS disabled.
    pub fn highest_priority() -> Self {
        DfsConfig::default()
    }

    /// The paper's *Dynamic-500 / Dynamic-600* style configuration: a
    /// uniform per-user cumulative-delay cap per interval.
    pub fn uniform_target(limit_secs: u64, interval: SimDuration) -> Self {
        DfsConfig {
            policy: DfsPolicy::TargetDelay,
            interval,
            decay: 0.0,
            default_limits: CredLimits::target(SimDuration::from_secs(limit_secs)),
            users: HashMap::new(),
            groups: HashMap::new(),
        }
    }

    /// The effective limits for `user` in `group`: explicit user limits,
    /// combined most-restrictively with explicit group limits; the default
    /// applies when the user has no entry.
    pub fn effective_limits(&self, user: UserId, group: GroupId) -> CredLimits {
        let user_limits = self
            .users
            .get(&user)
            .copied()
            .unwrap_or(self.default_limits);
        match self.groups.get(&group) {
            Some(&g) => user_limits.most_restrictive(g),
            None => user_limits,
        }
    }

    /// Validates ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.decay) {
            return Err(format!("DFSDecay must be within [0,1], got {}", self.decay));
        }
        if self.interval.is_zero() && self.policy.checks_target() {
            return Err("DFSInterval must be positive when target checks are active".into());
        }
        Ok(())
    }
}

/// Everything the scheduler needs from the site administrator.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// `ReservationDepth`: reservations created for the N highest-priority
    /// blocked jobs; controls how conservative backfilling is.
    pub reservation_depth: usize,
    /// `ReservationDelayDepth`: number of *StartLater* jobs whose delays are
    /// measured when evaluating a dynamic request (paper §III-C, Fig 5).
    pub reservation_delay_depth: usize,
    /// Backfill strategy.
    pub backfill: BackfillPolicy,
    /// Priority factors.
    pub priority: PriorityWeights,
    /// Static fairshare.
    pub fairshare: FairshareConfig,
    /// Dynamic fairness.
    pub dfs: DfsConfig,
    /// Core placement policy.
    pub alloc: AllocPolicy,
    /// Site option: satisfy dynamic requests by preempting *backfilled*
    /// jobs when idle cores alone do not suffice (paper §III-C: "idle
    /// before preemptible resources").
    pub preempt_backfilled_for_dyn: bool,
    /// Whether dynamic (evolving-job) requests are honoured at all; `false`
    /// reproduces the unmodified, static-only Maui (paper Algorithm 1).
    pub dynamic_enabled: bool,
    /// The *guaranteeing* approach the paper contrasts with (§II-B,
    /// CooRMv2-style): evolving jobs pre-reserve their maximum dynamic
    /// demand at start, so every dynamic request is granted instantly —
    /// at the cost of resources idling until (unless) they are claimed.
    /// `false` (the paper's choice) is the non-guaranteeing approach.
    pub guarantee_evolving: bool,
    /// Serve dynamic requests by shrinking running *malleable* jobs toward
    /// their minimum when idle cores do not suffice (paper §II-B:
    /// "stealing resources from malleable jobs").
    pub shrink_malleable_for_dyn: bool,
    /// Grow running malleable jobs onto otherwise-idle cores at the end of
    /// each iteration (the classic malleability benefit; paper future
    /// work).
    pub grow_malleable_on_idle: bool,
    /// Cores of a *separate partition maintained specifically to serve
    /// dynamic requests* (paper §II-B's second availability source).
    /// Static jobs are never planned onto these cores; dynamic requests
    /// draw from them first — and since no static job could ever have used
    /// them, partition grants inflict no measurable delay.
    pub dyn_partition_cores: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            reservation_depth: 1,
            reservation_delay_depth: 1,
            backfill: BackfillPolicy::Easy,
            priority: PriorityWeights::default(),
            fairshare: FairshareConfig::default(),
            dfs: DfsConfig::default(),
            alloc: AllocPolicy::Pack,
            preempt_backfilled_for_dyn: false,
            dynamic_enabled: true,
            guarantee_evolving: false,
            shrink_malleable_for_dyn: false,
            grow_malleable_on_idle: false,
            dyn_partition_cores: 0,
        }
    }
}

impl SchedulerConfig {
    /// The paper's evaluation baseline: `ReservationDepth` =
    /// `ReservationDelayDepth` = 5, EASY backfill.
    pub fn paper_eval() -> Self {
        SchedulerConfig {
            reservation_depth: 5,
            reservation_delay_depth: 5,
            ..Default::default()
        }
    }

    /// The number of queued jobs that must be examined for reservations or
    /// delay measurement: `max(ReservationDepth, ReservationDelayDepth)`
    /// (paper Fig 5).
    pub fn lookahead_depth(&self) -> usize {
        self.reservation_depth.max(self.reservation_delay_depth)
    }

    /// Validates the whole config.
    pub fn validate(&self) -> Result<(), String> {
        self.dfs.validate()?;
        if self.fairshare.enabled && !(0.0..=1.0).contains(&self.fairshare.decay) {
            return Err("fairshare decay must be within [0,1]".into());
        }
        if self.fairshare.enabled && self.fairshare.window.is_zero() && self.fairshare.windows != 1
        {
            return Err(
                "fairshare window ZERO means an infinite window and admits exactly one \
                 window (windows = 1); retained windows and decay would silently never apply"
                    .into(),
            );
        }
        if self.fairshare.mode == FairshareMode::TimeAware && self.fairshare.half_life.is_zero() {
            return Err("time-aware fairshare requires a positive half_life".into());
        }
        if let Some(b) = self.fairshare.user_budget_core_hours {
            if b.is_nan() || b < 0.0 {
                return Err("user resource-hour budget must be non-negative".into());
            }
        }
        if let Some(b) = self.fairshare.queue_budget_core_hours {
            if b.is_nan() || b < 0.0 {
                return Err("queue resource-hour budget must be non-negative".into());
            }
        }
        // Everything that is added into a job's priority score: one NaN
        // or infinity makes scores unordered, and a comparison sort over
        // an order that is not total may panic.
        let w = &self.priority;
        let summands = [
            ("queue_time_weight", w.queue_time_weight),
            ("expansion_weight", w.expansion_weight),
            ("resource_weight", w.resource_weight),
            ("fairshare_weight", w.fairshare_weight),
            ("fairshare budget_demotion", self.fairshare.budget_demotion),
            ("fairshare default_target", self.fairshare.default_target),
        ];
        let targets = self.fairshare.user_targets.values();
        let targets = targets.map(|&t| ("fairshare user target", t));
        if let Some((name, v)) = summands
            .into_iter()
            .chain(targets)
            .find(|(_, v)| !v.is_finite())
        {
            return Err(format!("{name} must be finite, got {v}"));
        }
        Ok(())
    }
}

/// Parses the Maui-style configuration text of the paper's Fig 6 into a
/// [`DfsConfig`], interning user/group names in `reg`.
///
/// Supported directives (case-insensitive keys):
///
/// ```text
/// DFSPOLICY      DFSSINGLEANDTARGETDELAY | DFSSINGLEJOBDELAY | DFSTARGETDELAY | NONE
/// DFSINTERVAL    HH:MM:SS | seconds
/// DFSDECAY       float in [0,1]
/// USERCFG[name]  DFSDYNDELAYPERM=0|1 DFSTARGETDELAYTIME=… DFSSINGLEDELAYTIME=…
/// GROUPCFG[name] …same keys…
/// ```
///
/// A trailing `\` continues a line, exactly as in the paper's listing.
/// Times of `0` mean *unlimited*.
pub fn parse_dfs_config(text: &str, reg: &mut CredRegistry) -> Result<DfsConfig, String> {
    let mut cfg = DfsConfig::default();

    // Join continuation lines.
    let mut logical: Vec<String> = Vec::new();
    let mut pending = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            pending.push_str(stripped);
            pending.push(' ');
        } else {
            pending.push_str(line);
            logical.push(std::mem::take(&mut pending));
        }
    }
    if !pending.is_empty() {
        logical.push(pending);
    }

    for line in &logical {
        let mut parts = line.split_whitespace();
        let key = parts.next().ok_or("empty directive")?.to_ascii_uppercase();
        match key.as_str() {
            "DFSPOLICY" => {
                let v = parts
                    .next()
                    .ok_or("DFSPOLICY needs a value")?
                    .to_ascii_uppercase();
                cfg.policy = match v.as_str() {
                    "NONE" => DfsPolicy::None,
                    "DFSSINGLEJOBDELAY" => DfsPolicy::SingleJobDelay,
                    "DFSTARGETDELAY" => DfsPolicy::TargetDelay,
                    "DFSSINGLEANDTARGETDELAY" | "DFSSINGLETARGETDELAY" => {
                        DfsPolicy::SingleAndTargetDelay
                    }
                    other => return Err(format!("unknown DFSPolicy {other}")),
                };
            }
            "DFSINTERVAL" => {
                let v = parts.next().ok_or("DFSINTERVAL needs a value")?;
                cfg.interval =
                    SimDuration::parse_hms(v).ok_or_else(|| format!("bad DFSInterval {v}"))?;
            }
            "DFSDECAY" => {
                let v = parts.next().ok_or("DFSDECAY needs a value")?;
                cfg.decay = v.parse().map_err(|_| format!("bad DFSDecay {v}"))?;
            }
            _ => {
                if let Some(name) = key
                    .strip_prefix("USERCFG[")
                    .and_then(|s| s.strip_suffix(']'))
                {
                    let limits = parse_cred_limits(parts)?;
                    // USERCFG names in the config are case-preserved in
                    // Maui; our registry keys are the original spelling,
                    // which the uppercased parse lost — recover it from the
                    // raw line.
                    let orig = extract_bracket_name(line, "USERCFG")
                        .unwrap_or_else(|| name.to_ascii_lowercase());
                    let uid = reg.user(&orig);
                    cfg.users.insert(uid, limits);
                } else if let Some(name) = key
                    .strip_prefix("GROUPCFG[")
                    .and_then(|s| s.strip_suffix(']'))
                {
                    let limits = parse_cred_limits(parts)?;
                    let orig = extract_bracket_name(line, "GROUPCFG")
                        .unwrap_or_else(|| name.to_ascii_lowercase());
                    let gid = reg.group(&orig);
                    cfg.groups.insert(gid, limits);
                } else {
                    return Err(format!("unknown directive {key}"));
                }
            }
        }
    }

    cfg.validate()?;
    Ok(cfg)
}

fn extract_bracket_name(line: &str, prefix: &str) -> Option<String> {
    let start = line
        .char_indices()
        .find(|&(i, _)| line[i..].to_ascii_uppercase().starts_with(prefix))
        .map(|(i, _)| i)?;
    let open = line[start..].find('[')? + start + 1;
    let close = line[open..].find(']')? + open;
    Some(line[open..close].to_owned())
}

fn parse_cred_limits<'a>(parts: impl Iterator<Item = &'a str>) -> Result<CredLimits, String> {
    let mut limits = CredLimits::default();
    for kv in parts {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("expected KEY=VALUE, got {kv}"))?;
        match k.to_ascii_uppercase().as_str() {
            "DFSDYNDELAYPERM" => {
                limits.dyn_delay_perm = match v {
                    "1" => true,
                    "0" => false,
                    _ => return Err(format!("DFSDynDelayPerm must be 0 or 1, got {v}")),
                };
            }
            "DFSTARGETDELAYTIME" => {
                let d = SimDuration::parse_hms(v)
                    .ok_or_else(|| format!("bad DFSTargetDelayTime {v}"))?;
                limits.target_delay_time = if d.is_zero() { None } else { Some(d) };
            }
            "DFSSINGLEDELAYTIME" => {
                let d = SimDuration::parse_hms(v)
                    .ok_or_else(|| format!("bad DFSSingleDelayTime {v}"))?;
                limits.single_delay_time = if d.is_zero() { None } else { Some(d) };
            }
            other => return Err(format!("unknown credential key {other}")),
        }
    }
    Ok(limits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verbatim configuration from the paper's Fig 6.
    const FIG6: &str = r"
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

    #[test]
    fn parse_fig6() {
        let mut reg = CredRegistry::new();
        let cfg = parse_dfs_config(FIG6, &mut reg).expect("parse");
        assert_eq!(cfg.policy, DfsPolicy::SingleAndTargetDelay);
        assert_eq!(cfg.interval, SimDuration::from_hours(6));
        assert!((cfg.decay - 0.4).abs() < 1e-12);

        let u1 = reg.find_user("user01").unwrap();
        let l1 = cfg.users[&u1];
        assert!(l1.dyn_delay_perm);
        assert_eq!(l1.target_delay_time, Some(SimDuration::from_secs(3600)));
        assert_eq!(l1.single_delay_time, None); // 0 = unlimited

        let u2 = reg.find_user("user02").unwrap();
        assert!(!cfg.users[&u2].dyn_delay_perm);

        let u3 = reg.find_user("user03").unwrap();
        let l3 = cfg.users[&u3];
        assert_eq!(l3.target_delay_time, None);
        assert_eq!(l3.single_delay_time, Some(SimDuration::from_mins(30)));

        let u4 = reg.find_user("user04").unwrap();
        let l4 = cfg.users[&u4];
        assert_eq!(l4.target_delay_time, Some(SimDuration::from_hours(2)));
        assert_eq!(l4.single_delay_time, Some(SimDuration::from_mins(15)));

        let g5 = reg.find_group("group05").unwrap();
        assert_eq!(
            cfg.groups[&g5].target_delay_time,
            Some(SimDuration::from_hours(4))
        );
        let g6 = reg.find_group("group06").unwrap();
        assert!(!cfg.groups[&g6].dyn_delay_perm);
    }

    #[test]
    fn most_restrictive_combination() {
        let user = CredLimits {
            dyn_delay_perm: true,
            target_delay_time: Some(SimDuration::from_hours(2)),
            single_delay_time: None,
        };
        let group = CredLimits {
            dyn_delay_perm: true,
            target_delay_time: Some(SimDuration::from_hours(4)),
            single_delay_time: Some(SimDuration::from_mins(15)),
        };
        let eff = user.most_restrictive(group);
        assert_eq!(eff.target_delay_time, Some(SimDuration::from_hours(2)));
        assert_eq!(eff.single_delay_time, Some(SimDuration::from_mins(15)));
        assert!(eff.dyn_delay_perm);

        let no_perm = CredLimits::never_delay();
        assert!(!user.most_restrictive(no_perm).dyn_delay_perm);
    }

    #[test]
    fn effective_limits_lookup() {
        let mut reg = CredRegistry::new();
        let cfg = parse_dfs_config(FIG6, &mut reg).unwrap();
        // A user with no explicit entry in group05 inherits the group cap.
        let u9 = reg.user_in_group("user09", "group05");
        let g5 = reg.find_group("group05").unwrap();
        let eff = cfg.effective_limits(u9, g5);
        assert_eq!(eff.target_delay_time, Some(SimDuration::from_hours(4)));
        // user04 in group05: user target (2 h) beats group target (4 h).
        let u4 = reg.find_user("user04").unwrap();
        let eff4 = cfg.effective_limits(u4, g5);
        assert_eq!(eff4.target_delay_time, Some(SimDuration::from_hours(2)));
    }

    #[test]
    fn uniform_target_configs() {
        let c = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
        assert_eq!(c.policy, DfsPolicy::TargetDelay);
        assert_eq!(
            c.default_limits.target_delay_time,
            Some(SimDuration::from_secs(500))
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn policy_predicates() {
        assert!(!DfsPolicy::None.checks_single());
        assert!(!DfsPolicy::None.checks_target());
        assert!(DfsPolicy::SingleJobDelay.checks_single());
        assert!(DfsPolicy::TargetDelay.checks_target());
        assert!(DfsPolicy::SingleAndTargetDelay.checks_single());
        assert!(DfsPolicy::SingleAndTargetDelay.checks_target());
    }

    #[test]
    fn validation_errors() {
        let cfg = DfsConfig {
            decay: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let mut cfg = DfsConfig::uniform_target(500, SimDuration::ZERO);
        cfg.interval = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_finite_priority_inputs_are_rejected() {
        type Set = fn(&mut SchedulerConfig, f64);
        let fields: [Set; 7] = [
            |c, v| c.priority.queue_time_weight = v,
            |c, v| c.priority.expansion_weight = v,
            |c, v| c.priority.resource_weight = v,
            |c, v| c.priority.fairshare_weight = v,
            |c, v| c.fairshare.budget_demotion = v,
            |c, v| c.fairshare.default_target = v,
            |c, v| {
                c.fairshare.user_targets.insert(UserId(3), v);
            },
        ];
        for set in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut c = SchedulerConfig::paper_eval();
                set(&mut c, bad);
                let err = c
                    .validate()
                    .expect_err("a non-finite summand must be rejected");
                assert!(err.contains("must be finite"), "{err}");
            }
            // Any finite value, negative ones included, is the site's call.
            let mut c = SchedulerConfig::paper_eval();
            set(&mut c, -2.5);
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn parse_errors() {
        let mut reg = CredRegistry::new();
        assert!(parse_dfs_config("DFSPOLICY BOGUS", &mut reg).is_err());
        assert!(parse_dfs_config("DFSINTERVAL xx", &mut reg).is_err());
        assert!(parse_dfs_config("NOT_A_KEY 1", &mut reg).is_err());
        assert!(parse_dfs_config("USERCFG[a] DFSDYNDELAYPERM=2", &mut reg).is_err());
        assert!(parse_dfs_config("USERCFG[a] NOPE=1", &mut reg).is_err());
        assert!(parse_dfs_config("USERCFG[a] DFSDYNDELAYPERM", &mut reg).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut reg = CredRegistry::new();
        let cfg = parse_dfs_config("# hello\n\nDFSPOLICY NONE\n", &mut reg).unwrap();
        assert_eq!(cfg.policy, DfsPolicy::None);
    }

    #[test]
    fn scheduler_config_lookahead() {
        let mut c = SchedulerConfig::paper_eval();
        assert_eq!(c.lookahead_depth(), 5);
        c.reservation_delay_depth = 9;
        assert_eq!(c.lookahead_depth(), 9);
        c.reservation_depth = 12;
        assert_eq!(c.lookahead_depth(), 12);
        assert!(c.validate().is_ok());
    }
}
