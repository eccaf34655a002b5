//! How a unit or a client round is observed while it runs.

use crate::pace::Pacer;
use crate::trace::Recorder;

/// Where a traced stretch hangs its spans.
pub struct Tracing<'a> {
    pub rec: &'a mut Recorder,
    /// The unit (or `10_000 +` round) number its spans carry.
    pub unit: u32,
}

/// Timed as a whole, timed in paced laps (the gated runs), or traced span
/// by span.
pub enum Mode<'a> {
    Plain,
    Paced(&'a mut Pacer),
    Traced(Tracing<'a>),
}

impl<'a> Mode<'a> {
    pub fn traced(rec: &'a mut Recorder, unit: u32) -> Self {
        Mode::Traced(Tracing { rec, unit })
    }

    /// The pacer or the tracing, whichever this mode has.
    pub fn split(self) -> (Option<&'a mut Pacer>, Option<Tracing<'a>>) {
        match self {
            Mode::Plain => (None, None),
            Mode::Paced(p) => (Some(p), None),
            Mode::Traced(t) => (None, Some(t)),
        }
    }
}
