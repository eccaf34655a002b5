//! Identifiers and the credential registry.
//!
//! Jobs, nodes, users and groups are referred to by small copyable IDs.
//! Human-readable names (the paper's `user01`…`user10`, `group05`, …) are
//! interned once in a [`CredRegistry`] so the hot scheduler paths compare
//! integers, never strings.

use std::collections::HashMap;
use std::fmt;

/// A batch job identifier, unique within one server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// A compute-node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// An interned user identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// An interned group identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

/// A submission-queue identifier. Sites that do not configure explicit
/// queues get one queue per user group ([`crate::JobSpec::effective_queue`]),
/// so per-queue resource-hour accounting degenerates to per-group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job.{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{:03}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gid{}", self.0)
    }
}

impl fmt::Display for QueueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Interns user and group names to compact IDs and maps them back.
///
/// Every user belongs to exactly one primary group (Torque semantics). The
/// registry is append-only: IDs are stable for the lifetime of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CredRegistry {
    users: Vec<String>,
    groups: Vec<String>,
    user_group: Vec<GroupId>,
    user_index: HashMap<String, UserId>,
    group_index: HashMap<String, GroupId>,
}

impl CredRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or looks up) a group by name.
    pub fn group(&mut self, name: &str) -> GroupId {
        if let Some(&g) = self.group_index.get(name) {
            return g;
        }
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(name.to_owned());
        self.group_index.insert(name.to_owned(), id);
        id
    }

    /// Interns (or looks up) a user by name, binding it to `group`.
    ///
    /// Re-interning an existing user with a different group is a programming
    /// error and panics: accounting would otherwise silently split.
    pub fn user_in_group(&mut self, name: &str, group: &str) -> UserId {
        let gid = self.group(group);
        if let Some(&u) = self.user_index.get(name) {
            assert_eq!(
                self.user_group[u.0 as usize], gid,
                "user {name} re-registered with a different group"
            );
            return u;
        }
        let id = UserId(self.users.len() as u32);
        self.users.push(name.to_owned());
        self.user_group.push(gid);
        self.user_index.insert(name.to_owned(), id);
        id
    }

    /// Interns a user into the default group `"users"`.
    pub fn user(&mut self, name: &str) -> UserId {
        self.user_in_group(name, "users")
    }

    /// The primary group of `user`.
    pub fn group_of(&self, user: UserId) -> GroupId {
        self.user_group[user.0 as usize]
    }

    /// The name of `user`.
    pub fn user_name(&self, user: UserId) -> &str {
        &self.users[user.0 as usize]
    }

    /// The name of `group`.
    pub fn group_name(&self, group: GroupId) -> &str {
        &self.groups[group.0 as usize]
    }

    /// Looks up a user by name without interning.
    pub fn find_user(&self, name: &str) -> Option<UserId> {
        self.user_index.get(name).copied()
    }

    /// Looks up a group by name without interning.
    pub fn find_group(&self, name: &str) -> Option<GroupId> {
        self.group_index.get(name).copied()
    }

    /// Number of interned users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Number of interned groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Iterates over all interned users.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.users.len() as u32).map(UserId)
    }

    /// Serialises the registry (used by workload trace files). Only the
    /// name tables and the user→group binding are written; the lookup
    /// indices are rebuilt on load.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj(vec![
            (
                "users",
                Json::Arr(self.users.iter().map(|u| Json::Str(u.clone())).collect()),
            ),
            (
                "groups",
                Json::Arr(self.groups.iter().map(|g| Json::Str(g.clone())).collect()),
            ),
            (
                "user_group",
                Json::Arr(
                    self.user_group
                        .iter()
                        .map(|g| Json::UInt(g.0 as u64))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a registry written by [`CredRegistry::to_json`], rebuilding
    /// the name→ID indices and validating the user→group binding.
    pub fn from_json(v: &crate::json::Json) -> Result<Self, String> {
        let str_list = |key: &str| -> Result<Vec<String>, String> {
            v.req_arr(key)?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("`{key}` contains a non-string"))
                })
                .collect()
        };
        let users = str_list("users")?;
        let groups = str_list("groups")?;
        let user_group = v
            .req_arr("user_group")?
            .iter()
            .map(|g| {
                let gid = g.as_u64().ok_or("`user_group` contains a non-integer")?;
                if gid >= groups.len() as u64 {
                    return Err(format!("group id {gid} out of range"));
                }
                Ok(GroupId(gid as u32))
            })
            .collect::<Result<Vec<GroupId>, String>>()?;
        if user_group.len() != users.len() {
            return Err(format!(
                "user_group has {} entries for {} users",
                user_group.len(),
                users.len()
            ));
        }
        let mut user_index = HashMap::new();
        for (i, name) in users.iter().enumerate() {
            if user_index.insert(name.clone(), UserId(i as u32)).is_some() {
                return Err(format!("duplicate user `{name}`"));
            }
        }
        let mut group_index = HashMap::new();
        for (i, name) in groups.iter().enumerate() {
            if group_index
                .insert(name.clone(), GroupId(i as u32))
                .is_some()
            {
                return Err(format!("duplicate group `{name}`"));
            }
        }
        Ok(CredRegistry {
            users,
            groups,
            user_group,
            user_index,
            group_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut reg = CredRegistry::new();
        let u1 = reg.user_in_group("user01", "group05");
        let u2 = reg.user_in_group("user02", "group05");
        let u1b = reg.user_in_group("user01", "group05");
        assert_eq!(u1, u1b);
        assert_ne!(u1, u2);
        assert_eq!(reg.group_of(u1), reg.group_of(u2));
        assert_eq!(reg.user_name(u1), "user01");
        assert_eq!(reg.group_name(reg.group_of(u1)), "group05");
    }

    #[test]
    fn default_group() {
        let mut reg = CredRegistry::new();
        let u = reg.user("alice");
        assert_eq!(reg.group_name(reg.group_of(u)), "users");
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn group_change_panics() {
        let mut reg = CredRegistry::new();
        reg.user_in_group("bob", "g1");
        reg.user_in_group("bob", "g2");
    }

    #[test]
    fn lookups() {
        let mut reg = CredRegistry::new();
        let u = reg.user_in_group("carol", "staff");
        assert_eq!(reg.find_user("carol"), Some(u));
        assert_eq!(reg.find_user("dave"), None);
        assert!(reg.find_group("staff").is_some());
        assert_eq!(reg.user_count(), 1);
        assert_eq!(reg.group_count(), 1);
        assert_eq!(reg.users().collect::<Vec<_>>(), vec![u]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(JobId(7).to_string(), "job.7");
        assert_eq!(NodeId(3).to_string(), "node003");
        assert_eq!(UserId(1).to_string(), "uid1");
        assert_eq!(GroupId(2).to_string(), "gid2");
    }
}
