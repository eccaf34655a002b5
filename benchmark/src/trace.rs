//! The outside-in trace: spans recorded by the harness around calls into
//! each layer's public functions, kept in memory and written out at exit.
//!
//! A span is `{name, unit, start_ns, end_ns, parent}`. The layer is the
//! name up to its first `.` (`server.snapshot` belongs to `server`).
//! Children of a `sim.step` span are *re-executions*: the harness clones
//! the server and scheduler after the real step and times the cycle that
//! step ran on the clones, so such a child is linked to its parent but
//! lies after it in time. Self time is therefore computed from durations:
//! a span's own duration minus the durations of the spans that name it as
//! parent, floored at zero.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = u32;

/// "No parent".
pub const ROOT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    unit: u32,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// Spans plus the counts and samples taken at the same boundaries.
pub struct Recorder {
    t0: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Summed counters (`add`) and high-water marks (`max`).
    counts: BTreeMap<&'static str, f64>,
    /// Sampled values that are not durations (queue depths, byte sizes).
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The scheduler cycle is re-executed after every this-many-th
    /// simulator step recorded here.
    pub probe_every: u64,
}

impl Recorder {
    pub fn new(probe_every: u64) -> Self {
        Recorder {
            probe_every,
            t0: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Records a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        unit: u32,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
    ) -> SpanId {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            unit,
            start_ns,
            end_ns,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is set later by [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, unit: u32, parent: SpanId) -> SpanId {
        let now = self.now();
        self.span(name, unit, now, now, parent)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now();
    }

    pub fn add(&mut self, key: &'static str, by: f64) {
        *self.counts.entry(key).or_insert(0.0) += by;
    }

    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.counts.entry(key).or_insert(v);
        *e = e.max(v);
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.get(key).copied()
    }

    pub fn samples_of(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations, in microseconds and in recording order, of every span
    /// called `name`, grouped by unit (a unit's spans are contiguous).
    pub fn durations_us_by_unit(&self, name: &str) -> Vec<Vec<f64>> {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        let mut out: Vec<Vec<f64>> = Vec::new();
        let mut unit = None;
        for s in self.spans.iter().filter(|s| s.name as usize == id) {
            if unit != Some(s.unit) {
                unit = Some(s.unit);
                out.push(Vec::new());
            }
            let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
            out.last_mut().expect("pushed above").push(dur);
        }
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.durations_us_by_unit(name).concat()
    }

    /// Per-span self time in nanoseconds (see the module docs).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Where the time of the spans called `top` went: self time per span
    /// name over the `top` spans and all their descendants, and the summed
    /// duration of those `top` spans. With `only_probed`, a `top` span
    /// counts only if some span names it as parent (steps the harness
    /// re-executed); the rest carry no breakdown.
    pub fn breakdown(&self, top: &str, only_probed: bool) -> (BTreeMap<&'static str, f64>, f64) {
        let Some(top_id) = self.names.iter().position(|n| *n == top) else {
            return (BTreeMap::new(), 0.0);
        };
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                has_child[s.parent as usize] = true;
            }
        }
        // Parents are recorded before their children, so one forward pass
        // settles membership.
        let mut member = vec![false; self.spans.len()];
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name as usize == top_id && (!only_probed || has_child[i]) {
                member[i] = true;
                total += (s.end_ns - s.start_ns) as f64;
            } else if s.parent != ROOT && member[s.parent as usize] {
                member[i] = true;
            }
        }
        let own = self.self_ns();
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if member[i] {
                *by_name.entry(self.names[s.name as usize]).or_insert(0.0) += own[i] as f64;
            }
        }
        (by_name, total)
    }

    /// Writes the trace as JSON: a name table and one
    /// `[name, unit, start_ns, end_ns, parent]` row per span (`parent` is
    /// a row index, `-1` for none).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"columns\":[\"name\",\"unit\",\"start_ns\",\"end_ns\",\"parent\"],\"names\":["
        )?;
        for (i, n) in self.names.iter().enumerate() {
            write!(out, "{}\"{n}\"", if i == 0 { "" } else { "," })?;
        }
        write!(out, "],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            write!(
                out,
                "{}[{},{},{},{},{parent}]",
                if i == 0 { "\n" } else { ",\n" },
                s.name,
                s.unit,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
