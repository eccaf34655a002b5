//! Workload traces: serialise a generated workload to JSON and replay it.
//!
//! Lets experiments be pinned (a generated workload checked into a file
//! and replayed bit-exactly) and lets users feed their own job mixes to
//! the simulator without writing Rust.

use crate::esp::WorkloadItem;
use dynbatch_core::json::{model, parse, Json};
use dynbatch_core::CredRegistry;
use std::fs;
use std::io;
use std::path::Path;

/// A self-contained workload: submissions plus the credential registry
/// interning their user/group names.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Free-form description.
    pub description: String,
    /// The credential registry the items' IDs refer to.
    pub registry: CredRegistry,
    /// Timed submissions, in any order (the simulator sorts by time).
    pub items: Vec<WorkloadItem>,
}

impl Trace {
    /// Wraps a workload into a versioned trace.
    pub fn new(
        description: impl Into<String>,
        registry: CredRegistry,
        items: Vec<WorkloadItem>,
    ) -> Self {
        Trace {
            version: 1,
            description: description.into(),
            registry,
            items,
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        let items = self
            .items
            .iter()
            .map(|item| {
                Json::obj(vec![
                    ("at_ms", Json::UInt(item.at.as_millis())),
                    ("spec", model::spec_to_json(&item.spec)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("version", Json::UInt(self.version as u64)),
            ("description", Json::Str(self.description.clone())),
            ("registry", self.registry.to_json()),
            ("items", Json::Arr(items)),
        ])
        .to_string_pretty()
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = parse(json)?;
        let version = v.req_u64("version")?;
        if version != 1 {
            return Err(format!("unsupported trace version {version}"));
        }
        let description = v.req_str("description")?.to_owned();
        let registry = CredRegistry::from_json(v.req("registry")?)?;
        let items = v
            .req_arr("items")?
            .iter()
            .map(|item| {
                Ok(WorkloadItem {
                    at: item.req_time("at_ms")?,
                    spec: model::spec_from_json(item.req("spec")?)?,
                })
            })
            .collect::<Result<Vec<WorkloadItem>, String>>()?;
        for item in &items {
            item.spec.validate()?;
            let max_user = registry.user_count() as u32;
            if item.spec.user.0 >= max_user {
                return Err(format!("user {} not in registry", item.spec.user));
            }
        }
        Ok(Trace {
            version: version as u32,
            description,
            registry,
            items,
        })
    }

    /// Writes to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Reads from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Trace::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esp::{generate_esp, EspConfig};

    #[test]
    fn json_round_trip() {
        let mut reg = CredRegistry::new();
        let items = generate_esp(&EspConfig::paper_dynamic(), &mut reg);
        let trace = Trace::new("dynamic ESP", reg, items);
        let json = trace.to_json();
        let back = Trace::from_json(&json).expect("parse");
        assert_eq!(trace, back);
    }

    #[test]
    fn rejects_bad_version() {
        let mut reg = CredRegistry::new();
        let items = generate_esp(&EspConfig::paper_dynamic(), &mut reg);
        let mut trace = Trace::new("x", reg, items);
        trace.version = 9;
        let json = trace.to_json();
        assert!(Trace::from_json(&json).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Trace::from_json("{not json").is_err());
    }

    #[test]
    fn file_round_trip() {
        let mut reg = CredRegistry::new();
        let items = generate_esp(&EspConfig::paper_static(), &mut reg);
        let trace = Trace::new("static ESP", reg, items);
        let dir = std::env::temp_dir().join("dynbatch-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("esp.json");
        trace.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(trace, back);
        let _ = std::fs::remove_file(&path);
    }
}
