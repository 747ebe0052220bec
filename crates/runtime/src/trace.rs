//! Structured tracing: scoped spans and typed instant events, collected
//! thread-locally and exportable as JSONL or Chrome trace-event JSON.
//!
//! The [`crate::metrics`] ledger's tallies answer "how long did each phase
//! take, how many moves, what gains, in total"; this module answers "what
//! happened, when, on which thread" — per-level vertex counts, per-pass
//! move tallies, per-round conflict counts — at a resolution that can be
//! replayed in a timeline viewer. The design rules:
//!
//! * **Disabled by default, near-zero cost when off.** A single relaxed
//!   atomic load ([`enabled`]) guards every emission; the [`span!`] and
//!   [`event!`] macros do not even evaluate their field expressions when
//!   tracing is off. Partitioning results are identical either way — the
//!   tracer only observes.
//! * **No plumbing.** Events land in the same thread-local
//!   [`crate::metrics::Ledger`] as every tally; [`crate::pool`] forwards
//!   worker ledgers to the caller, so leaf code traces with no signature
//!   changes.
//! * **Deterministic content.** Event *payloads* are pure functions of the
//!   input and seed; only timestamps and thread ids vary between runs, so
//!   traces diff cleanly modulo timing fields.
//!
//! A span is a drop guard: `let _s = span!("refine_pass", level = lvl);`
//! emits a Begin now and the matching End when `_s` drops. Instant events
//! carry a point-in-time payload: `event!("uncoarsen_level", cut = cut)`.
//! Drivers drain with [`take_local`] and hand the buffer to a writer
//! ([`write_jsonl`] / [`write_chrome`]); [`validate_jsonl`] and
//! [`validate_chrome`] re-check a written trace's schema (used by the
//! `mcgp trace-check` subcommand and CI).

use crate::json::{Json, ToJson};
use crate::metrics::push_event;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when tracing is on. This is the fast path — a relaxed load — and
/// every emission helper checks it first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off process-wide. Also pins the timestamp epoch on
/// first enable so `ts_ns` starts near zero.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (process-wide, monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's stable trace id (dense, assigned on first use).
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// A typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'static str),
    /// A small vector of floats, e.g. per-constraint imbalances.
    F64s(Vec<f64>),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}
impl From<Vec<f64>> for FieldValue {
    fn from(v: Vec<f64>) -> Self {
        FieldValue::F64s(v)
    }
}
impl From<&[f64]> for FieldValue {
    fn from(v: &[f64]) -> Self {
        FieldValue::F64s(v.to_vec())
    }
}

impl ToJson for FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::U64(v) => Json::UInt(*v),
            FieldValue::I64(v) => Json::Int(*v),
            FieldValue::F64(v) => Json::Float(*v),
            FieldValue::Str(v) => Json::Str((*v).to_string()),
            FieldValue::F64s(v) => Json::Arr(v.iter().map(|&f| Json::Float(f)).collect()),
        }
    }
}

/// Event kind, mirroring the Chrome trace-event phases B/E/i.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span open.
    Begin,
    /// Span close.
    End,
    /// Point-in-time event.
    Instant,
}

impl EventKind {
    /// The Chrome trace-event `ph` letter.
    pub fn ph(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        }
    }
}

/// One trace event. Everything except `ts_ns` and `tid` is a deterministic
/// function of the partitioner's input.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Emitting thread's trace id.
    pub tid: u64,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Static event name (e.g. `"refine_pass"`).
    pub name: &'static str,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// The JSONL record form: `{"ts_ns":…,"tid":…,"ph":…,"name":…,…fields}`.
    pub fn to_jsonl_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = vec![
            ("ts_ns".into(), Json::UInt(self.ts_ns)),
            ("tid".into(), Json::UInt(self.tid)),
            ("ph".into(), Json::Str(self.kind.ph().to_string())),
            ("name".into(), Json::Str(self.name.to_string())),
        ];
        for (k, v) in &self.fields {
            obj.push(((*k).to_string(), v.to_json()));
        }
        Json::Obj(obj)
    }

    /// The Chrome trace-event form (`ts` in microseconds, `args` object).
    pub fn to_chrome_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str(self.name.to_string())),
            ("ph".into(), Json::Str(self.kind.ph().to_string())),
            ("ts".into(), Json::Float(self.ts_ns as f64 / 1000.0)),
            ("pid".into(), Json::UInt(0)),
            ("tid".into(), Json::UInt(self.tid)),
        ];
        if self.kind == EventKind::Instant {
            obj.push(("s".into(), Json::Str("t".to_string())));
        }
        if !self.fields.is_empty() {
            let args: Vec<(String, Json)> = self
                .fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.to_json()))
                .collect();
            obj.push(("args".into(), Json::Obj(args)));
        }
        Json::Obj(obj)
    }
}

/// Emits an instant event. Prefer the [`event!`] macro, which skips field
/// construction when tracing is off.
pub fn instant(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if !enabled() {
        return;
    }
    push_event(TraceEvent {
        ts_ns: now_ns(),
        tid: current_tid(),
        kind: EventKind::Instant,
        name,
        fields,
    });
}

/// A scoped span guard: Begin on construction, End on drop. When tracing is
/// disabled the guard is inert (though it may still publish a profiler
/// frame — see [`crate::profile`]).
#[must_use = "a span closes when dropped; binding it to _ closes it immediately"]
pub struct Span {
    name: &'static str,
    armed: bool,
    /// True when construction pushed a [`crate::profile`] frame; the drop
    /// pops exactly then, so pushes stay balanced even if profiling is
    /// toggled while the span is open.
    profiled: bool,
    end_fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// An inert span (used by the macros when both observers are off).
    pub fn disabled(name: &'static str) -> Span {
        Span {
            name,
            armed: false,
            profiled: false,
            end_fields: Vec::new(),
        }
    }

    /// Attaches a field to the span's End event (e.g. tallies known only at
    /// the end of the scope). No-op on an inert span.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.armed {
            self.end_fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.profiled {
            crate::profile::pop_frame();
        }
        if self.armed {
            // Emit the End unconditionally so B/E stay balanced even if
            // tracing was switched off while the span was open.
            push_event(TraceEvent {
                ts_ns: now_ns(),
                tid: current_tid(),
                kind: EventKind::End,
                name: self.name,
                fields: std::mem::take(&mut self.end_fields),
            });
        }
    }
}

/// Opens a span. Prefer the [`span!`] macro, which skips field construction
/// when neither tracing nor profiling is on. Publishes the span to the
/// [`crate::profile`] slot when profiling is enabled, independent of the
/// tracing flag.
pub fn span(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> Span {
    let profiled = crate::profile::enabled();
    if profiled {
        crate::profile::push_frame(name);
    }
    if !enabled() {
        let mut s = Span::disabled(name);
        s.profiled = profiled;
        return s;
    }
    push_event(TraceEvent {
        ts_ns: now_ns(),
        tid: current_tid(),
        kind: EventKind::Begin,
        name,
        fields,
    });
    Span {
        name,
        armed: true,
        profiled,
        end_fields: Vec::new(),
    }
}

/// Opens a scoped span: `let _s = span!("coarsen_level", level = lvl);`.
/// Field expressions are not evaluated unless tracing or profiling is
/// enabled (two relaxed loads on the all-off fast path).
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled() || $crate::profile::enabled() {
            $crate::trace::span(
                $name,
                ::std::vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
            )
        } else {
            $crate::trace::Span::disabled($name)
        }
    };
}

/// Emits an instant event: `event!("uncoarsen_level", cut = cut);`.
/// Field expressions are not evaluated when tracing is disabled.
#[macro_export]
macro_rules! event {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::instant(
                $name,
                ::std::vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
            );
        }
    };
}

/// Drains and returns the events of the current thread's ledger, leaving
/// its tallies in place.
pub fn take_local() -> Vec<TraceEvent> {
    crate::metrics::take_events()
}

/// Trace output format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line; round-trips through [`crate::json`].
    Jsonl,
    /// A Chrome trace-event JSON array, loadable in Perfetto / `chrome://tracing`.
    Chrome,
}

impl TraceFormat {
    /// Parses a CLI format name (`"jsonl"` / `"chrome"`).
    pub fn parse(s: &str) -> Option<TraceFormat> {
        match s {
            "jsonl" => Some(TraceFormat::Jsonl),
            "chrome" => Some(TraceFormat::Chrome),
            _ => None,
        }
    }
}

fn sorted(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    let mut refs: Vec<&TraceEvent> = events.iter().collect();
    // Stable by timestamp: equal-timestamp events keep emission order, so
    // B/E nesting within a thread survives the sort.
    refs.sort_by_key(|e| e.ts_ns);
    refs
}

/// Writes events as JSONL, sorted by timestamp.
pub fn write_jsonl<W: Write>(events: &[TraceEvent], mut w: W) -> io::Result<()> {
    for ev in sorted(events) {
        writeln!(w, "{}", ev.to_jsonl_json())?;
    }
    w.flush()
}

/// Writes events as a Chrome trace-event JSON array, sorted by timestamp.
pub fn write_chrome<W: Write>(events: &[TraceEvent], mut w: W) -> io::Result<()> {
    writeln!(w, "[")?;
    let refs = sorted(events);
    for (i, ev) in refs.iter().enumerate() {
        let comma = if i + 1 == refs.len() { "" } else { "," };
        writeln!(w, "{}{}", ev.to_chrome_json(), comma)?;
    }
    writeln!(w, "]")?;
    w.flush()
}

/// Writes events to `path` in `format`.
pub fn write_trace_file(
    events: &[TraceEvent],
    format: TraceFormat,
    path: &std::path::Path,
) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let w = std::io::BufWriter::new(file);
    match format {
        TraceFormat::Jsonl => write_jsonl(events, w),
        TraceFormat::Chrome => write_chrome(events, w),
    }
}

fn check_balance(
    stacks: &mut BTreeMap<u64, Vec<String>>,
    tid: u64,
    ph: &str,
    name: &str,
    line: usize,
) -> Result<(), String> {
    match ph {
        "B" => stacks.entry(tid).or_default().push(name.to_string()),
        "E" => {
            let top = stacks.entry(tid).or_default().pop();
            if top.as_deref() != Some(name) {
                return Err(format!(
                    "line {line}: E \"{name}\" on tid {tid} does not close {:?}",
                    top
                ));
            }
        }
        "i" => {}
        other => return Err(format!("line {line}: unknown ph {other:?}")),
    }
    Ok(())
}

fn finish_balance(stacks: BTreeMap<u64, Vec<String>>) -> Result<(), String> {
    for (tid, stack) in stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} unclosed span(s): {stack:?}", stack.len()));
        }
    }
    Ok(())
}

/// Validates a JSONL trace document: every line parses, carries the
/// required keys (`ts_ns`, `tid`, `ph`, `name`), timestamps are
/// non-decreasing, and every Begin is closed by a matching End on the same
/// thread. Returns the event count.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_ts = 0u64;
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let line_no = no + 1;
        let v = Json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let ts = match v.get("ts_ns") {
            Some(&Json::UInt(t)) => t,
            Some(&Json::Int(t)) if t >= 0 => t as u64,
            _ => return Err(format!("line {line_no}: missing/invalid ts_ns")),
        };
        let tid = v
            .get("tid")
            .and_then(|j| j.as_i64())
            .ok_or_else(|| format!("line {line_no}: missing/invalid tid"))? as u64;
        let ph = v
            .get("ph")
            .and_then(|j| j.as_str())
            .ok_or_else(|| format!("line {line_no}: missing/invalid ph"))?
            .to_string();
        let name = v
            .get("name")
            .and_then(|j| j.as_str())
            .ok_or_else(|| format!("line {line_no}: missing/invalid name"))?
            .to_string();
        if ts < last_ts {
            return Err(format!(
                "line {line_no}: timestamp {ts} goes backwards (previous {last_ts})"
            ));
        }
        last_ts = ts;
        check_balance(&mut stacks, tid, &ph, &name, line_no)?;
        count += 1;
    }
    finish_balance(stacks)?;
    Ok(count)
}

/// Validates a Chrome trace document: a JSON array of events each carrying
/// `name`, `ph`, `ts`, `pid`, `tid`, with non-decreasing `ts` and balanced
/// B/E pairs per thread. Returns the event count.
pub fn validate_chrome(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| format!("parse error: {e}"))?;
    let events = doc.as_arr().ok_or("top-level value is not an array")?;
    let mut last_ts = f64::NEG_INFINITY;
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let no = i + 1;
        let name = ev
            .get("name")
            .and_then(|j| j.as_str())
            .ok_or_else(|| format!("event {no}: missing name"))?
            .to_string();
        let ph = ev
            .get("ph")
            .and_then(|j| j.as_str())
            .ok_or_else(|| format!("event {no}: missing ph"))?
            .to_string();
        let ts = ev
            .get("ts")
            .and_then(|j| j.as_f64())
            .ok_or_else(|| format!("event {no}: missing ts"))?;
        ev.get("pid")
            .and_then(|j| j.as_i64())
            .ok_or_else(|| format!("event {no}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(|j| j.as_i64())
            .ok_or_else(|| format!("event {no}: missing tid"))? as u64;
        if ts < last_ts {
            return Err(format!("event {no}: ts {ts} goes backwards"));
        }
        last_ts = ts;
        check_balance(&mut stacks, tid, &ph, &name, no)?;
    }
    finish_balance(stacks)?;
    Ok(events.len())
}

/// Serialises tests that toggle the process-wide ENABLED flag (shared with
/// the metrics tests, which observe the same flag).
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_tracing<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
        let _g = test_lock();
        let _ = take_local();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        (out, take_local())
    }

    #[test]
    fn disabled_tracing_emits_nothing() {
        let _g = test_lock();
        set_enabled(false);
        let _ = take_local();
        {
            let mut s = crate::span!("outer", level = 3usize);
            s.record("cut", 10i64);
            crate::event!("point", x = 1.5);
        }
        assert!(take_local().is_empty());
    }

    #[test]
    fn span_emits_balanced_pair_with_fields() {
        let ((), events) = with_tracing(|| {
            let mut s = crate::span!("refine_pass", level = 2usize, pass = 0usize);
            s.record("moves", 17u64);
            crate::event!("uncoarsen_level", cut = 42i64, imbalance = vec![1.0, 1.25]);
        });
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].name, "refine_pass");
        assert_eq!(
            events[0].fields,
            vec![
                ("level", FieldValue::U64(2)),
                ("pass", FieldValue::U64(0)),
            ]
        );
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[1].fields[1].0, "imbalance");
        assert_eq!(events[2].kind, EventKind::End);
        assert_eq!(events[2].fields, vec![("moves", FieldValue::U64(17))]);
        assert!(events[0].ts_ns <= events[2].ts_ns);
        assert_eq!(events[0].tid, events[2].tid);
    }

    #[test]
    fn jsonl_roundtrip_validates() {
        let ((), events) = with_tracing(|| {
            let _outer = crate::span!("coarsen", nvtxs = 100usize);
            {
                let _inner = crate::span!("match_level", level = 0usize);
                crate::event!("pairs", n = 40usize);
            }
        });
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(validate_jsonl(&text).unwrap(), 5);
        // Every line parses back through the runtime JSON parser.
        for line in text.lines() {
            let v = Json::parse(line).unwrap();
            assert!(v.get("ts_ns").is_some());
            assert!(v.get("name").and_then(|j| j.as_str()).is_some());
        }
    }

    #[test]
    fn chrome_output_validates_and_has_required_keys() {
        let ((), events) = with_tracing(|| {
            let _s = crate::span!("initial", runs = 4usize);
            crate::event!("winner", cut = 9i64);
        });
        let mut buf = Vec::new();
        write_chrome(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(validate_chrome(&text).unwrap(), 3);
        let doc = Json::parse(&text).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("B"));
        assert!(arr[0].get("ts").unwrap().as_f64().is_some());
        assert_eq!(arr[1].get("s").unwrap().as_str(), Some("t"));
    }

    #[test]
    fn validate_rejects_unbalanced_and_backwards() {
        let unbalanced = "{\"ts_ns\":1,\"tid\":0,\"ph\":\"B\",\"name\":\"a\"}\n";
        assert!(validate_jsonl(unbalanced).unwrap_err().contains("unclosed"));
        let wrong_close = "{\"ts_ns\":1,\"tid\":0,\"ph\":\"B\",\"name\":\"a\"}\n\
                           {\"ts_ns\":2,\"tid\":0,\"ph\":\"E\",\"name\":\"b\"}\n";
        assert!(validate_jsonl(wrong_close).is_err());
        let backwards = "{\"ts_ns\":5,\"tid\":0,\"ph\":\"i\",\"name\":\"a\"}\n\
                         {\"ts_ns\":4,\"tid\":0,\"ph\":\"i\",\"name\":\"b\"}\n";
        assert!(validate_jsonl(backwards).unwrap_err().contains("backwards"));
    }

    #[test]
    fn merged_ledgers_preserve_foreign_tids() {
        let ((), events) = with_tracing(|| {
            let mut foreign = crate::metrics::Ledger::new();
            foreign.events.push(TraceEvent {
                ts_ns: 1,
                tid: 999,
                kind: EventKind::Instant,
                name: "from_worker",
                fields: vec![],
            });
            crate::metrics::merge_local(foreign);
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tid, 999);
    }

    #[test]
    fn format_parses() {
        assert_eq!(TraceFormat::parse("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::parse("xml"), None);
    }
}
