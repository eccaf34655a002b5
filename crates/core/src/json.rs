//! A minimal JSON value, parser and writer.
//!
//! The repo builds fully offline, so `serde`/`serde_json` are not
//! available; the few places that need JSON (workload trace files,
//! benchmark reports) use this module instead. Integers are kept exact
//! ([`Json::UInt`]/[`Json::Int`] hold the full 64-bit range — virtual
//! times use `u64::MAX` as a sentinel, which `f64` cannot represent),
//! object key order is preserved, and the writer emits the same
//! two-space pretty style `serde_json::to_string_pretty` did, keeping
//! existing trace files readable and diffs small.

use crate::time::SimTime;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact up to `u64::MAX`.
    UInt(u64),
    /// A negative integer, kept exact down to `i64::MIN`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a key, failing with a path-style message.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// A field that must be a non-negative integer.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("field `{key}` is not a non-negative integer"))
    }

    /// A field that must be a non-negative integer that fits a `u32`.
    pub fn req_u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.req_u64(key)?).map_err(|_| format!("field `{key}` exceeds u32"))
    }

    /// A field that must be a bool.
    pub fn req_bool(&self, key: &str) -> Result<bool, String> {
        self.req(key)?
            .as_bool()
            .ok_or_else(|| format!("field `{key}` is not a bool"))
    }

    /// A field that must be a string.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("field `{key}` is not a string"))
    }

    /// A field that must be an array.
    pub fn req_arr(&self, key: &str) -> Result<&[Json], String> {
        self.req(key)?
            .as_arr()
            .ok_or_else(|| format!("field `{key}` is not an array"))
    }

    /// A field holding an instant, in milliseconds.
    pub fn req_time(&self, key: &str) -> Result<SimTime, String> {
        Ok(SimTime::from_millis(self.req_u64(key)?))
    }

    /// An optional instant, in milliseconds: absent or `null` is `None`.
    pub fn opt_time(&self, key: &str) -> Result<Option<SimTime>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => self.req_time(key).map(Some),
        }
    }

    /// This value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            Json::Int(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    /// This value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::UInt(n) => i64::try_from(n).ok(),
            Json::Int(n) => Some(n),
            _ => None,
        }
    }

    /// This value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Int(n) => Some(n as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// This value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation (the `serde_json` pretty
    /// style this repo's trace files were written in).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // Mirror serde_json: always keep a fractional part so
                    // the value re-parses as a float.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the paired low one.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            s.push(c);
                            // hex4 leaves pos past the digits; skip the
                            // increment below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = Json::obj(vec![
            ("name", Json::Str("hello \"world\"\n".into())),
            ("max", Json::UInt(u64::MAX)),
            ("neg", Json::Int(-42)),
            ("pi", Json::Float(3.25)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("empty_list", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [v.to_string_pretty(), v.to_string_compact()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_max_survives_exactly() {
        let text = Json::UInt(u64::MAX).to_string_compact();
        assert_eq!(text, "18446744073709551615");
        assert_eq!(parse(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(parse(r#""aA\n\té""#).unwrap(), Json::Str("aA\n\té".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn pretty_matches_serde_style() {
        let v = Json::obj(vec![
            ("a", Json::UInt(1)),
            ("b", Json::Arr(vec![Json::Str("x".into())])),
        ]);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ]\n}"
        );
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "s": "t", "b": false, "f": 1.5, "neg": -7}"#).unwrap();
        assert_eq!(v.req("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("t"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-7));
        assert!(v.get("neg").unwrap().as_u64().is_none());
        assert!(v.req("missing").is_err());
        assert!(v.get("n").unwrap().get("x").is_none());
    }
}

/// JSON conversions for the model types that appear in workload traces
/// ([`crate::job::JobSpec`] and everything it contains). Kept here — next
/// to the [`Json`] value — so the format lives in one place; the trace
/// container itself is defined in `dynbatch-workload`.
pub mod model {
    use super::Json;
    use crate::exec::{ExecutionModel, Phase, PhasedModel, SpeedupModel};
    use crate::ids::{GroupId, JobId, QueueId, UserId};
    use crate::job::{Job, JobClass, JobOutcome, JobSpec, JobState, MalleableRange};
    use crate::time::{SimDuration, SimTime};

    fn class_name(class: JobClass) -> &'static str {
        match class {
            JobClass::Rigid => "rigid",
            JobClass::Moldable => "moldable",
            JobClass::Malleable => "malleable",
            JobClass::Evolving => "evolving",
        }
    }

    fn class_from_name(name: &str) -> Result<JobClass, String> {
        match name {
            "rigid" => Ok(JobClass::Rigid),
            "moldable" => Ok(JobClass::Moldable),
            "malleable" => Ok(JobClass::Malleable),
            "evolving" => Ok(JobClass::Evolving),
            other => Err(format!("unknown job class `{other}`")),
        }
    }

    fn range_to_json(r: MalleableRange) -> Json {
        Json::obj(vec![
            ("min_cores", Json::UInt(r.min_cores as u64)),
            ("max_cores", Json::UInt(r.max_cores as u64)),
        ])
    }

    fn range_from_json(v: &Json) -> Result<MalleableRange, String> {
        Ok(MalleableRange {
            min_cores: v.req_u32("min_cores")?,
            max_cores: v.req_u32("max_cores")?,
        })
    }

    /// Serialises an execution model as a `type`-tagged object.
    pub fn exec_to_json(exec: &ExecutionModel) -> Json {
        match exec {
            ExecutionModel::Fixed { duration } => Json::obj(vec![
                ("type", Json::Str("fixed".into())),
                ("duration_ms", Json::UInt(duration.as_millis())),
            ]),
            ExecutionModel::Evolving {
                set,
                det,
                extra_cores,
                request_points,
                speedup,
            } => Json::obj(vec![
                ("type", Json::Str("evolving".into())),
                ("set_ms", Json::UInt(set.as_millis())),
                ("det_ms", Json::UInt(det.as_millis())),
                ("extra_cores", Json::UInt(*extra_cores as u64)),
                (
                    "request_points",
                    Json::Arr(request_points.iter().map(|&p| Json::Float(p)).collect()),
                ),
                (
                    "speedup",
                    Json::Str(
                        match speedup {
                            SpeedupModel::Interpolate => "interpolate",
                            SpeedupModel::FullDet => "full_det",
                        }
                        .into(),
                    ),
                ),
            ]),
            ExecutionModel::Phased(p) => Json::obj(vec![
                ("type", Json::Str("phased".into())),
                (
                    "phases",
                    Json::Arr(
                        p.phases
                            .iter()
                            .map(|ph| {
                                Json::obj(vec![
                                    ("cells", Json::UInt(ph.cells)),
                                    ("cost_milli", Json::UInt(ph.cost_milli)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("millis_per_cell_core", Json::Float(p.millis_per_cell_core)),
                (
                    "threshold_cells_per_proc",
                    Json::UInt(p.threshold_cells_per_proc),
                ),
                (
                    "saturation_cells_per_proc",
                    Json::UInt(p.saturation_cells_per_proc),
                ),
                ("extra_cores", Json::UInt(p.extra_cores as u64)),
            ]),
            ExecutionModel::WorkPool { work_core_millis } => Json::obj(vec![
                ("type", Json::Str("work_pool".into())),
                ("work_core_millis", Json::UInt(*work_core_millis)),
            ]),
        }
    }

    /// Parses an execution model written by [`exec_to_json`].
    pub fn exec_from_json(v: &Json) -> Result<ExecutionModel, String> {
        match v.req_str("type")? {
            "fixed" => Ok(ExecutionModel::Fixed {
                duration: SimDuration::from_millis(v.req_u64("duration_ms")?),
            }),
            "evolving" => {
                let points = v
                    .req_arr("request_points")?
                    .iter()
                    .map(|p| {
                        p.as_f64()
                            .ok_or_else(|| "non-numeric request point".to_string())
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
                let speedup = match v.req_str("speedup")? {
                    "interpolate" => SpeedupModel::Interpolate,
                    "full_det" => SpeedupModel::FullDet,
                    other => return Err(format!("unknown speedup model `{other}`")),
                };
                Ok(ExecutionModel::Evolving {
                    set: SimDuration::from_millis(v.req_u64("set_ms")?),
                    det: SimDuration::from_millis(v.req_u64("det_ms")?),
                    extra_cores: v.req_u32("extra_cores")?,
                    request_points: points,
                    speedup,
                })
            }
            "phased" => {
                let phases = v
                    .req_arr("phases")?
                    .iter()
                    .map(|ph| {
                        Ok(Phase {
                            cells: ph.req_u64("cells")?,
                            cost_milli: ph.req_u64("cost_milli")?,
                        })
                    })
                    .collect::<Result<Vec<Phase>, String>>()?;
                Ok(ExecutionModel::Phased(PhasedModel {
                    phases,
                    millis_per_cell_core: v
                        .req("millis_per_cell_core")?
                        .as_f64()
                        .ok_or("`millis_per_cell_core` is not a number")?,
                    threshold_cells_per_proc: v.req_u64("threshold_cells_per_proc")?,
                    saturation_cells_per_proc: v.req_u64("saturation_cells_per_proc")?,
                    extra_cores: v.req_u32("extra_cores")?,
                }))
            }
            "work_pool" => Ok(ExecutionModel::WorkPool {
                work_core_millis: v.req_u64("work_core_millis")?,
            }),
            other => Err(format!("unknown execution model `{other}`")),
        }
    }

    /// Serialises a job spec.
    pub fn spec_to_json(spec: &JobSpec) -> Json {
        let opt_range = |r: Option<MalleableRange>| r.map(range_to_json).unwrap_or(Json::Null);
        Json::obj(vec![
            ("name", Json::Str(spec.name.clone())),
            ("user", Json::UInt(spec.user.0 as u64)),
            ("group", Json::UInt(spec.group.0 as u64)),
            ("class", Json::Str(class_name(spec.class).into())),
            ("cores", Json::UInt(spec.cores as u64)),
            ("walltime_ms", Json::UInt(spec.walltime.as_millis())),
            ("exec", exec_to_json(&spec.exec)),
            ("priority_boost", priority_to_json(spec.priority_boost)),
            (
                "suppress_backfill_while_queued",
                Json::Bool(spec.suppress_backfill_while_queued),
            ),
            ("malleable", opt_range(spec.malleable)),
            ("moldable", opt_range(spec.moldable)),
            (
                "dyn_timeout_ms",
                spec.dyn_timeout
                    .map(|d| Json::UInt(d.as_millis()))
                    .unwrap_or(Json::Null),
            ),
            (
                "queue",
                spec.queue
                    .map(|q| Json::UInt(q.0 as u64))
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    fn priority_to_json(boost: i64) -> Json {
        if boost >= 0 {
            Json::UInt(boost as u64)
        } else {
            Json::Int(boost)
        }
    }

    /// Parses a job spec written by [`spec_to_json`].
    pub fn spec_from_json(v: &Json) -> Result<JobSpec, String> {
        let opt_range = |key: &str| -> Result<Option<MalleableRange>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(r) => range_from_json(r).map(Some),
            }
        };
        let dyn_timeout = match v.get("dyn_timeout_ms") {
            None | Some(Json::Null) => None,
            Some(d) => Some(SimDuration::from_millis(
                d.as_u64().ok_or("`dyn_timeout_ms` is not an integer")?,
            )),
        };
        let queue = match v.get("queue") {
            None | Some(Json::Null) => None,
            Some(q) => Some(QueueId(
                u32::try_from(q.as_u64().ok_or("`queue` is not an integer")?)
                    .map_err(|_| "`queue` out of range".to_string())?,
            )),
        };
        Ok(JobSpec {
            name: v.req_str("name")?.to_owned(),
            user: UserId(v.req_u32("user")?),
            group: GroupId(v.req_u32("group")?),
            class: class_from_name(v.req_str("class")?)?,
            cores: v.req_u32("cores")?,
            walltime: SimDuration::from_millis(v.req_u64("walltime_ms")?),
            exec: exec_from_json(v.req("exec")?)?,
            priority_boost: v
                .req("priority_boost")?
                .as_i64()
                .ok_or("`priority_boost` is not an integer")?,
            suppress_backfill_while_queued: v.req_bool("suppress_backfill_while_queued")?,
            malleable: opt_range("malleable")?,
            moldable: opt_range("moldable")?,
            dyn_timeout,
            queue,
        })
    }

    fn state_name(state: JobState) -> &'static str {
        match state {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::DynQueued => "dyn_queued",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn state_from_name(name: &str) -> Result<JobState, String> {
        match name {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "dyn_queued" => Ok(JobState::DynQueued),
            "completed" => Ok(JobState::Completed),
            "cancelled" => Ok(JobState::Cancelled),
            other => Err(format!("unknown job state `{other}`")),
        }
    }

    fn opt_time_to_json(t: Option<SimTime>) -> Json {
        t.map(|t| Json::UInt(t.as_millis())).unwrap_or(Json::Null)
    }

    /// Serialises a server-side job record (spec + lifecycle bookkeeping) —
    /// the unit the write-ahead journal's snapshots are made of.
    pub fn job_to_json(job: &Job) -> Json {
        Json::obj(vec![
            ("id", Json::UInt(job.id.0)),
            ("spec", spec_to_json(&job.spec)),
            ("state", Json::Str(state_name(job.state).into())),
            ("submit_ms", Json::UInt(job.submit_time.as_millis())),
            ("start_ms", opt_time_to_json(job.start_time)),
            ("end_ms", opt_time_to_json(job.end_time)),
            ("cores_allocated", Json::UInt(job.cores_allocated as u64)),
            ("dyn_requests", Json::UInt(job.dyn_requests as u64)),
            ("dyn_grants", Json::UInt(job.dyn_grants as u64)),
            ("backfilled", Json::Bool(job.backfilled)),
            ("reserved_extra", Json::UInt(job.reserved_extra as u64)),
        ])
    }

    /// Parses a job written by [`job_to_json`].
    pub fn job_from_json(v: &Json) -> Result<Job, String> {
        Ok(Job {
            id: JobId(v.req_u64("id")?),
            spec: spec_from_json(v.req("spec")?)?,
            state: state_from_name(v.req_str("state")?)?,
            submit_time: v.req_time("submit_ms")?,
            start_time: v.opt_time("start_ms")?,
            end_time: v.opt_time("end_ms")?,
            cores_allocated: v.req_u32("cores_allocated")?,
            dyn_requests: v.req_u32("dyn_requests")?,
            dyn_grants: v.req_u32("dyn_grants")?,
            backfilled: v.req_bool("backfilled")?,
            reserved_extra: v.req_u32("reserved_extra")?,
        })
    }

    /// Serialises an accounting outcome. The crash-recovery suite compares
    /// accounting logs *textually*, so this is the canonical form.
    pub fn outcome_to_json(o: &JobOutcome) -> Json {
        Json::obj(vec![
            ("id", Json::UInt(o.id.0)),
            ("name", Json::Str(o.name.clone())),
            ("user", Json::UInt(o.user.0 as u64)),
            ("class", Json::Str(class_name(o.class).into())),
            ("cores_requested", Json::UInt(o.cores_requested as u64)),
            ("cores_final", Json::UInt(o.cores_final as u64)),
            ("submit_ms", Json::UInt(o.submit_time.as_millis())),
            ("start_ms", Json::UInt(o.start_time.as_millis())),
            ("end_ms", Json::UInt(o.end_time.as_millis())),
            ("dyn_requests", Json::UInt(o.dyn_requests as u64)),
            ("dyn_grants", Json::UInt(o.dyn_grants as u64)),
            ("backfilled", Json::Bool(o.backfilled)),
        ])
    }

    /// Parses an outcome written by [`outcome_to_json`].
    pub fn outcome_from_json(v: &Json) -> Result<JobOutcome, String> {
        Ok(JobOutcome {
            id: JobId(v.req_u64("id")?),
            name: v.req_str("name")?.to_owned(),
            user: UserId(v.req_u32("user")?),
            class: class_from_name(v.req_str("class")?)?,
            cores_requested: v.req_u32("cores_requested")?,
            cores_final: v.req_u32("cores_final")?,
            submit_time: v.req_time("submit_ms")?,
            start_time: v.req_time("start_ms")?,
            end_time: v.req_time("end_ms")?,
            dyn_requests: v.req_u32("dyn_requests")?,
            dyn_grants: v.req_u32("dyn_grants")?,
            backfilled: v.req_bool("backfilled")?,
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::ids::{GroupId, UserId};

        #[test]
        fn specs_round_trip() {
            let specs = vec![
                JobSpec::rigid("A", UserId(1), GroupId(2), 4, SimDuration::from_secs(267)),
                JobSpec::evolving(
                    "F",
                    UserId(5),
                    GroupId(1),
                    8,
                    ExecutionModel::esp_evolving(1846, 1230, 4),
                )
                .with_priority_boost(-3),
                JobSpec::malleable("m", UserId(0), GroupId(0), 16, 8, 32, 16_000),
                JobSpec::moldable("d", UserId(0), GroupId(0), 16, 8, 32, 16_000),
                JobSpec::evolving(
                    "ph",
                    UserId(2),
                    GroupId(0),
                    16,
                    ExecutionModel::Phased(PhasedModel {
                        phases: vec![Phase::new(16_000), Phase::new(64_000)],
                        millis_per_cell_core: 1.5,
                        threshold_cells_per_proc: 3000,
                        saturation_cells_per_proc: 1000,
                        extra_cores: 16,
                    }),
                ),
            ];
            for spec in specs {
                let text = spec_to_json(&spec).to_string_pretty();
                let parsed = super::super::parse(&text).unwrap();
                let back = spec_from_json(&parsed).unwrap();
                assert_eq!(spec, back, "{text}");
            }
        }

        #[test]
        fn jobs_and_outcomes_round_trip() {
            let spec = JobSpec::evolving(
                "F",
                UserId(5),
                GroupId(1),
                8,
                ExecutionModel::esp_evolving(1846, 1230, 4),
            );
            let mut job = Job::new(JobId(7), spec, SimTime::from_secs(3));
            for state in [
                JobState::Queued,
                JobState::Running,
                JobState::DynQueued,
                JobState::Completed,
                JobState::Cancelled,
            ] {
                job.state = state;
                job.start_time = state.is_active().then(|| SimTime::from_secs(10));
                job.cores_allocated = 12;
                job.dyn_requests = 2;
                job.dyn_grants = 1;
                job.backfilled = true;
                job.reserved_extra = 4;
                let text = job_to_json(&job).to_string_compact();
                let back = job_from_json(&super::super::parse(&text).unwrap()).unwrap();
                assert_eq!(job, back, "{text}");
            }

            let o = JobOutcome {
                id: JobId(7),
                name: "F".into(),
                user: UserId(5),
                class: JobClass::Evolving,
                cores_requested: 8,
                cores_final: 12,
                submit_time: SimTime::from_secs(3),
                start_time: SimTime::from_secs(10),
                end_time: SimTime::from_secs(500),
                dyn_requests: 2,
                dyn_grants: 1,
                backfilled: false,
            };
            let text = outcome_to_json(&o).to_string_compact();
            let back = outcome_from_json(&super::super::parse(&text).unwrap()).unwrap();
            assert_eq!(o, back);
        }

        #[test]
        fn rejects_malformed_specs() {
            let spec = JobSpec::rigid("A", UserId(1), GroupId(2), 4, SimDuration::from_secs(10));
            let mut j = spec_to_json(&spec);
            if let Json::Obj(pairs) = &mut j {
                for (k, v) in pairs.iter_mut() {
                    if k == "class" {
                        *v = Json::Str("weird".into());
                    }
                }
            }
            assert!(spec_from_json(&j).is_err());
        }
    }
}
