//! The binary wire codec: the one compact spelling of every value that
//! crosses the replication stream.
//!
//! The format is hand-rolled (no serde in this offline-built repo):
//!
//! * unsigned integers, ids, times and counts are LEB128 varints;
//! * `i64` is zigzag-mapped onto a varint;
//! * an enum variant, an `Option` and a `bool` is one tag byte;
//! * strings and vectors are a varint length followed by their items;
//! * `f64` is its `to_bits` value, eight little-endian bytes.
//!
//! The encoding is **canonical**: each value has exactly one spelling,
//! and [`Reader`] accepts only that one — shortest varints, `0`/`1` for
//! booleans and option tags, known variant tags, strictly ascending map
//! keys, no bytes after the value. So if `from_bytes(b)` yields `v`, then
//! `to_bytes(&v) == b`, and two encodings are byte-equal exactly when the
//! values are equal field by field (an `f64` by its bits, so NaN equals
//! itself). Replicas compare state through these bytes.
//!
//! Every value encodes to at least one byte. A decoder therefore refuses
//! any count or length larger than the bytes left before allocating
//! anything from it.

use crate::config::AllocPolicy;
use crate::exec::{ExecutionModel, Phase, PhasedModel, SpeedupModel};
use crate::ids::{GroupId, JobId, NodeId, QueueId, UserId};
use crate::job::{Job, JobClass, JobOutcome, JobSpec, JobState, MalleableRange};
use crate::time::{SimDuration, SimTime};

/// A value with a canonical binary encoding.
pub trait Wire: Sized {
    /// Appends the value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one value, leaving the reader just past it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, String>;
}

/// The encoding of `value`.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value that must fill `bytes` exactly: trailing bytes are an
/// error.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, String> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Appends `v` as an LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a length or count.
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

/// Appends one tag byte.
pub fn put_tag(out: &mut Vec<u8>, tag: u8) {
    out.push(tag);
}

/// A cursor over borrowed input that decodes canonical values.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn err(&self, what: &str) -> String {
        format!("byte {}: {what}", self.at)
    }

    /// Fails unless every byte was read.
    fn finish(&self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err(&format!("{} trailing bytes", self.remaining())))
        }
    }

    /// The next `n` bytes, borrowed.
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(self.err(&format!("{n} bytes wanted, {} left", self.remaining())));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A tag byte below `variants`.
    pub fn tag(&mut self, variants: u8, what: &str) -> Result<u8, String> {
        let tag = self.byte()?;
        if tag < variants {
            Ok(tag)
        } else {
            self.at -= 1;
            Err(self.err(&format!("unknown {what} tag {tag}")))
        }
    }

    /// A canonical (shortest-form) LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(self.err("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(self.err("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint that must fit a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.err(&format!("{v} exceeds u32")))
    }

    /// A count or length: refused when larger than the bytes left, since
    /// every item takes at least one.
    fn count(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(self.err(&format!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// A length-prefixed sequence.
    pub fn seq<T: Wire>(&mut self) -> Result<Vec<T>, String> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// A length-prefixed sequence whose keys, read by `key`, must be
    /// strictly ascending — the canonical order of a sorted map or set.
    pub fn ascending<T: Wire, K: Ord>(&mut self, key: impl Fn(&T) -> K) -> Result<Vec<T>, String> {
        let items: Vec<T> = self.seq()?;
        if items.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
            return Err(self.err("keys are not strictly ascending"));
        }
        Ok(items)
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        r.u64()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        r.u32()
    }
}

impl Wire for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, ((*self << 1) ^ (*self >> 63)) as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let z = r.u64()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        put_tag(out, u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(r.tag(2, "bool")? == 1)
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let bits = r.take(8)?.try_into().expect("eight bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let n = r.count()?;
        let bytes = r.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| r.err(&format!("string is not UTF-8: {e}")))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => put_tag(out, 0),
            Some(v) => {
                put_tag(out, 1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        match r.tag(2, "option")? {
            0 => Ok(None),
            _ => T::decode(r).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        r.seq()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// `Wire` for a newtype over an integer the codec already spells.
macro_rules! newtype_wire {
    ($($ty:ty => $inner:ty, $get:expr, $make:expr;)*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let get: fn(&$ty) -> $inner = $get;
                get(self).encode(out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
                let make: fn($inner) -> $ty = $make;
                <$inner>::decode(r).map(make)
            }
        }
    )*};
}

newtype_wire! {
    SimTime => u64, |t| t.as_millis(), SimTime::from_millis;
    SimDuration => u64, |d| d.as_millis(), SimDuration::from_millis;
    JobId => u64, |id| id.0, JobId;
    NodeId => u32, |id| id.0, NodeId;
    UserId => u32, |id| id.0, UserId;
    GroupId => u32, |id| id.0, GroupId;
    QueueId => u32, |id| id.0, QueueId;
}

/// `Wire` for a field-less enum: one tag byte per variant, in the listed
/// order. Encode is an exhaustive `match` (the local `Tag` enum numbers
/// the list), so a variant missing from the list fails to compile.
macro_rules! unit_enum_wire {
    ($($ty:ident: $($variant:ident),+;)*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                enum Tag { $($variant),+ }
                put_tag(out, match self { $($ty::$variant => Tag::$variant as u8),+ });
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
                const ALL: &[$ty] = &[$($ty::$variant),+];
                Ok(ALL[r.tag(ALL.len() as u8, stringify!($ty))? as usize])
            }
        }
    )*};
}

unit_enum_wire! {
    JobClass: Rigid, Moldable, Malleable, Evolving;
    JobState: Queued, Running, DynQueued, Completed, Cancelled;
    SpeedupModel: Interpolate, FullDet;
    AllocPolicy: Pack, Spread, NodeExclusive;
}

impl Wire for MalleableRange {
    fn encode(&self, out: &mut Vec<u8>) {
        self.min_cores.encode(out);
        self.max_cores.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(MalleableRange {
            min_cores: r.u32()?,
            max_cores: r.u32()?,
        })
    }
}

impl Wire for Phase {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cells.encode(out);
        self.cost_milli.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(Phase {
            cells: r.u64()?,
            cost_milli: r.u64()?,
        })
    }
}

impl Wire for ExecutionModel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ExecutionModel::Fixed { duration } => {
                put_tag(out, 0);
                duration.encode(out);
            }
            ExecutionModel::Evolving {
                set,
                det,
                extra_cores,
                request_points,
                speedup,
            } => {
                put_tag(out, 1);
                set.encode(out);
                det.encode(out);
                extra_cores.encode(out);
                request_points.encode(out);
                speedup.encode(out);
            }
            ExecutionModel::Phased(p) => {
                put_tag(out, 2);
                p.phases.encode(out);
                p.millis_per_cell_core.encode(out);
                p.threshold_cells_per_proc.encode(out);
                p.saturation_cells_per_proc.encode(out);
                p.extra_cores.encode(out);
            }
            ExecutionModel::WorkPool { work_core_millis } => {
                put_tag(out, 3);
                work_core_millis.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match r.tag(4, "execution model")? {
            0 => ExecutionModel::Fixed {
                duration: Wire::decode(r)?,
            },
            1 => ExecutionModel::Evolving {
                set: Wire::decode(r)?,
                det: Wire::decode(r)?,
                extra_cores: r.u32()?,
                request_points: r.seq()?,
                speedup: Wire::decode(r)?,
            },
            2 => ExecutionModel::Phased(PhasedModel {
                phases: r.seq()?,
                millis_per_cell_core: Wire::decode(r)?,
                threshold_cells_per_proc: r.u64()?,
                saturation_cells_per_proc: r.u64()?,
                extra_cores: r.u32()?,
            }),
            _ => ExecutionModel::WorkPool {
                work_core_millis: r.u64()?,
            },
        })
    }
}

impl Wire for JobSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.user.encode(out);
        self.group.encode(out);
        self.class.encode(out);
        self.cores.encode(out);
        self.walltime.encode(out);
        self.exec.encode(out);
        self.priority_boost.encode(out);
        self.suppress_backfill_while_queued.encode(out);
        self.malleable.encode(out);
        self.moldable.encode(out);
        self.dyn_timeout.encode(out);
        self.queue.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(JobSpec {
            name: Wire::decode(r)?,
            user: Wire::decode(r)?,
            group: Wire::decode(r)?,
            class: Wire::decode(r)?,
            cores: r.u32()?,
            walltime: Wire::decode(r)?,
            exec: Wire::decode(r)?,
            priority_boost: Wire::decode(r)?,
            suppress_backfill_while_queued: Wire::decode(r)?,
            malleable: Wire::decode(r)?,
            moldable: Wire::decode(r)?,
            dyn_timeout: Wire::decode(r)?,
            queue: Wire::decode(r)?,
        })
    }
}

impl Wire for Job {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.spec.encode(out);
        self.state.encode(out);
        self.submit_time.encode(out);
        self.start_time.encode(out);
        self.end_time.encode(out);
        self.cores_allocated.encode(out);
        self.dyn_requests.encode(out);
        self.dyn_grants.encode(out);
        self.backfilled.encode(out);
        self.reserved_extra.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(Job {
            id: Wire::decode(r)?,
            spec: Wire::decode(r)?,
            state: Wire::decode(r)?,
            submit_time: Wire::decode(r)?,
            start_time: Wire::decode(r)?,
            end_time: Wire::decode(r)?,
            cores_allocated: r.u32()?,
            dyn_requests: r.u32()?,
            dyn_grants: r.u32()?,
            backfilled: Wire::decode(r)?,
            reserved_extra: r.u32()?,
        })
    }
}

impl Wire for JobOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.name.encode(out);
        self.user.encode(out);
        self.class.encode(out);
        self.cores_requested.encode(out);
        self.cores_final.encode(out);
        self.submit_time.encode(out);
        self.start_time.encode(out);
        self.end_time.encode(out);
        self.dyn_requests.encode(out);
        self.dyn_grants.encode(out);
        self.backfilled.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(JobOutcome {
            id: Wire::decode(r)?,
            name: Wire::decode(r)?,
            user: Wire::decode(r)?,
            class: Wire::decode(r)?,
            cores_requested: r.u32()?,
            cores_final: r.u32()?,
            submit_time: Wire::decode(r)?,
            start_time: Wire::decode(r)?,
            end_time: Wire::decode(r)?,
            dyn_requests: r.u32()?,
            dyn_grants: r.u32()?,
            backfilled: Wire::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_are_leb128_and_shortest_form_only() {
        for (v, bytes) in [
            (0u64, vec![0x00]),
            (127, vec![0x7f]),
            (128, vec![0x80, 0x01]),
            (300, vec![0xac, 0x02]),
        ] {
            assert_eq!(to_bytes(&v), bytes);
            assert_eq!(from_bytes::<u64>(&bytes), Ok(v));
        }
        let max = to_bytes(&u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(from_bytes::<u64>(&max), Ok(u64::MAX));
        // Overlong spellings of 0 and 1, and an eleventh significant bit
        // in the tenth byte.
        for bad in [
            &[0x80, 0x00][..],
            &[0x81, 0x80, 0x00],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00,
            ],
        ] {
            assert!(from_bytes::<u64>(bad).is_err(), "{bad:?}");
        }
        assert!(from_bytes::<u32>(&to_bytes(&(u32::MAX as u64 + 1))).is_err());
    }

    #[test]
    fn zigzag_round_trips_the_extremes() {
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            assert_eq!(from_bytes::<i64>(&to_bytes(&v)), Ok(v));
        }
        assert_eq!(to_bytes(&-1i64), vec![0x01]);
        assert_eq!(to_bytes(&1i64), vec![0x02]);
    }

    #[test]
    fn floats_travel_by_bits() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let back: f64 = from_bytes(&to_bytes(&nan)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
        assert_eq!(to_bytes(&-0.0f64), (-0.0f64).to_bits().to_le_bytes());
    }

    #[test]
    fn tags_bools_and_options_are_strict() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u64>>(&[2, 0]).is_err());
        assert!(from_bytes::<JobState>(&[5]).is_err());
        assert_eq!(from_bytes::<JobState>(&[2]), Ok(JobState::DynQueued));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        let err = from_bytes::<u64>(&bytes).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    /// A count or a length is checked against the bytes left before
    /// anything is reserved for it: a count of 2⁶³ − 1 jobs would
    /// otherwise overflow `Vec::with_capacity`, a panic.
    #[test]
    fn counts_beyond_the_input_are_rejected_before_allocating() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX >> 1);
        let err = from_bytes::<Vec<Job>>(&bytes).unwrap_err();
        assert!(err.contains("exceeds the 0 bytes left"), "{err}");
        // One more item than bytes left, with every item one byte long.
        let err = from_bytes::<Vec<bool>>(&[3, 0, 1]).unwrap_err();
        assert!(err.contains("count 3 exceeds the 2 bytes left"), "{err}");
        let err = from_bytes::<String>(&[4, b'a', b'b']).unwrap_err();
        assert!(err.contains("count 4 exceeds the 2 bytes left"), "{err}");
    }

    #[test]
    fn ascending_refuses_duplicate_and_unsorted_keys() {
        let decode = |items: &[u64]| {
            let bytes = to_bytes(&items.to_vec());
            Reader::new(&bytes).ascending::<u64, u64>(|&k| k)
        };
        assert_eq!(decode(&[1, 2, 9]), Ok(vec![1, 2, 9]));
        assert!(decode(&[1, 1]).is_err());
        assert!(decode(&[2, 1]).is_err());
    }
}
