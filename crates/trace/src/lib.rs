#![warn(missing_docs)]

//! Zero-dependency structured tracing for the Denali pipeline.
//!
//! The paper's headline claims are timing *splits* — matching versus
//! satisfiability search, probe-by-probe refutation cost — so the
//! pipeline needs one coherent place to hang measurements. This crate
//! provides it:
//!
//! * **Hierarchical spans** — [`Tracer::span`] records an enter/exit
//!   pair with monotonic timestamps and a parent link (the enclosing
//!   span at enter time). [`Tracer::complete_span`] records a span
//!   retrospectively from a measured duration, which is how the server
//!   seals a request whose work ran on other threads.
//! * **Typed events** — [`Tracer::event`] records a named point-in-time
//!   fact carrying key/value [`Field`]s (per-axiom match counts,
//!   e-graph growth).
//! * **Sinks** — [`jsonl`] writes/parses the stable line-oriented
//!   schema documented in `docs/TRACING.md`; [`chrome`] exports the
//!   Chrome-trace/Perfetto JSON flavor for `chrome://tracing`;
//!   [`report`] renders per-phase / per-axiom / per-probe summary
//!   tables from a record stream.
//!
//! A disabled tracer (the default) is a single `Option` check per call
//! and allocates nothing; timing a span still works (the guard carries
//! its own [`Instant`]). A span's exit reads the clock once: the
//! milliseconds [`Span::finish`] returns and the exit record's
//! timestamp come from that one reading, so a caller that stores or
//! observes the returned value records the same measurement the trace
//! holds.
//!
//! Determinism contract: with tracing enabled, the record stream for a
//! given input is identical across runs *modulo timestamps* — compare
//! streams with [`normalized`], which zeroes `t_us`/`dur_us` and drops
//! fields whose key ends in `_ms`, `_us`, or `_ns`.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod chrome;
pub mod json;
pub mod jsonl;
pub mod report;

/// A typed field value attached to a span or event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned counter / gauge.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point measurement (milliseconds, ratios).
    F64(f64),
    /// Free-form text (names, outcomes).
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One key/value pair on a span or event.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// Field key. By convention, keys ending in `_ms`/`_us`/`_ns` are
    /// wall-clock measurements and are dropped by [`normalized`].
    pub key: &'static str,
    /// Field value.
    pub value: Value,
}

/// Builds a [`Field`] (sugar for struct-literal noise at call sites).
pub fn field(key: &'static str, value: impl Into<Value>) -> Field {
    Field {
        key,
        value: value.into(),
    }
}

/// One record of the trace stream.
///
/// The stream is strictly append-only and serially ordered: record
/// order is the order the serial control flow reached each point, which
/// is what makes traces diffable across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A span was entered.
    Begin {
        /// Span id, unique within the trace, assigned in record order.
        id: u64,
        /// Enclosing span at enter time.
        parent: Option<u64>,
        /// Span name (e.g. `"match"`, `"saturate.round"`).
        name: String,
        /// Microseconds since the trace epoch.
        t_us: u64,
        /// Fields known at enter time.
        fields: Vec<(String, Value)>,
    },
    /// A span was exited.
    End {
        /// Id of the matching [`Record::Begin`].
        id: u64,
        /// Microseconds since the trace epoch.
        t_us: u64,
        /// Fields computed during the span (counts, outcomes).
        fields: Vec<(String, Value)>,
    },
    /// A retrospective span: work measured elsewhere, logged when the
    /// serial control flow consumed it.
    Complete {
        /// Span id (same namespace as [`Record::Begin`] ids).
        id: u64,
        /// Enclosing span when recorded.
        parent: Option<u64>,
        /// Span name (`"serve.request"`).
        name: String,
        /// Start timestamp, microseconds since the trace epoch.
        t_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
        /// Fields.
        fields: Vec<(String, Value)>,
    },
    /// A point-in-time event.
    Event {
        /// Enclosing span when recorded.
        span: Option<u64>,
        /// Event name (e.g. `"ematch.axiom"`, `"egraph.stats"`).
        name: String,
        /// Microseconds since the trace epoch.
        t_us: u64,
        /// Fields.
        fields: Vec<(String, Value)>,
    },
}

impl Record {
    /// The record's name (`None` for [`Record::End`]).
    pub fn name(&self) -> Option<&str> {
        match self {
            Record::Begin { name, .. }
            | Record::Complete { name, .. }
            | Record::Event { name, .. } => Some(name),
            Record::End { .. } => None,
        }
    }

    /// The record's fields.
    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Record::Begin { fields, .. }
            | Record::End { fields, .. }
            | Record::Complete { fields, .. }
            | Record::Event { fields, .. } => fields,
        }
    }

    /// Looks up a field value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

#[derive(Default)]
struct State {
    records: Vec<Record>,
    stack: Vec<u64>,
    next_id: u64,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// A handle to one trace. Cheap to clone (an `Arc`), `Send + Sync`;
/// the disabled handle ([`Tracer::disabled`], also [`Default`]) makes
/// every recording call a no-op behind a single `Option` check.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// True if the `DENALI_TRACE` environment variable requests tracing
/// (set to anything but `0`/`false`/`off`).
pub fn env_enabled() -> bool {
    match std::env::var("DENALI_TRACE") {
        Ok(v) => !matches!(v.trim(), "" | "0" | "false" | "off"),
        Err(_) => false,
    }
}

impl Tracer {
    /// Creates an enabled tracer with its epoch at "now".
    pub fn new() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// The disabled tracer: every call is a no-op.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Enabled iff requested: [`Tracer::new`] when `on`, else disabled.
    pub fn when(on: bool) -> Tracer {
        if on {
            Tracer::new()
        } else {
            Tracer::disabled()
        }
    }

    /// True if records are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_us(inner: &Inner) -> u64 {
        Tracer::micros(inner, Instant::now())
    }

    fn micros(inner: &Inner, at: Instant) -> u64 {
        at.duration_since(inner.epoch).as_micros() as u64
    }

    /// Enters a span. The returned guard records the exit on
    /// [`Span::finish`] (or on drop) and always measures wall-clock,
    /// even when tracing is disabled.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_fields(name, Vec::new())
    }

    /// Enters a span carrying fields known at enter time.
    pub fn span_fields(&self, name: &'static str, fields: Vec<Field>) -> Span {
        let start = Instant::now();
        let id = self.inner.as_ref().map(|inner| {
            let t_us = Tracer::micros(inner, start);
            let mut st = inner.state.lock().expect("trace state poisoned");
            let id = st.next_id;
            st.next_id += 1;
            let parent = st.stack.last().copied();
            st.stack.push(id);
            st.records.push(Record::Begin {
                id,
                parent,
                name: name.to_owned(),
                t_us,
                fields: own_fields(fields),
            });
            id
        });
        Span {
            inner: self.inner.clone(),
            id,
            start,
            ended: false,
        }
    }

    /// Records an event under the current span. `fields` is a closure
    /// so the disabled path never builds the field vector.
    pub fn event(&self, name: &'static str, fields: impl FnOnce() -> Vec<Field>) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let t_us = Tracer::now_us(inner);
        let fields = own_fields(fields());
        let mut st = inner.state.lock().expect("trace state poisoned");
        let span = st.stack.last().copied();
        st.records.push(Record::Event {
            span,
            name: name.to_owned(),
            t_us,
            fields,
        });
    }

    /// Records a retrospective span of `dur_ms` milliseconds that ended
    /// `back_ms` milliseconds before "now", nested under the current
    /// span. Meant for work whose start and end were seen on different
    /// threads (a server request); work on one thread is a [`Span`].
    /// Returns the new span's id (`None` when disabled).
    pub fn complete_span(
        &self,
        name: &'static str,
        back_ms: f64,
        dur_ms: f64,
        fields: Vec<Field>,
    ) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let now = Tracer::now_us(inner);
        let dur_us = (dur_ms.max(0.0) * 1e3) as u64;
        let end_us = now.saturating_sub((back_ms.max(0.0) * 1e3) as u64);
        let t_us = end_us.saturating_sub(dur_us);
        let fields = own_fields(fields);
        let mut st = inner.state.lock().expect("trace state poisoned");
        let id = st.next_id;
        st.next_id += 1;
        let parent = st.stack.last().copied();
        st.records.push(Record::Complete {
            id,
            parent,
            name: name.to_owned(),
            t_us,
            dur_us,
            fields,
        });
        Some(id)
    }

    /// Snapshot of every record collected so far.
    pub fn records(&self) -> Vec<Record> {
        match self.inner.as_ref() {
            Some(inner) => inner
                .state
                .lock()
                .expect("trace state poisoned")
                .records
                .clone(),
            None => Vec::new(),
        }
    }

    /// Drains the collected records, leaving the tracer empty (span
    /// stack and id counter are preserved).
    pub fn take_records(&self) -> Vec<Record> {
        match self.inner.as_ref() {
            Some(inner) => {
                std::mem::take(&mut inner.state.lock().expect("trace state poisoned").records)
            }
            None => Vec::new(),
        }
    }
}

/// A recorded field with its key owned, as stored in [`Record`]s.
pub type OwnedField = (String, Value);

fn own_fields(fields: Vec<Field>) -> Vec<OwnedField> {
    fields
        .into_iter()
        .map(|f| (f.key.to_owned(), f.value))
        .collect()
}

/// Guard for an entered span. Exits (recording the `End`) on
/// [`Span::finish`]/[`Span::finish_fields`] or on drop; either way the
/// guard returns/measures the span's wall-clock milliseconds, which
/// works even on a disabled tracer — so one guard feeds the trace, a
/// caller's own timing field (`CompiledGma::match_ms`,
/// `ProbeStats::solve_ms`) and a histogram with one measurement.
pub struct Span {
    inner: Option<Arc<Inner>>,
    id: Option<u64>,
    start: Instant,
    ended: bool,
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("id", &self.id)
            .field("ended", &self.ended)
            .finish()
    }
}

impl Span {
    /// The span's id in the trace (`None` on a disabled tracer).
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Exits the span, returning its wall-clock milliseconds.
    pub fn finish(self) -> f64 {
        self.finish_fields(Vec::new())
    }

    /// Exits the span with end-time fields, returning milliseconds.
    pub fn finish_fields(mut self, fields: Vec<Field>) -> f64 {
        self.end(fields)
    }

    /// Records the exit and returns the span's milliseconds, both from
    /// one clock reading.
    fn end(&mut self, fields: Vec<Field>) -> f64 {
        self.ended = true;
        let now = Instant::now();
        let ms = now.duration_since(self.start).as_secs_f64() * 1e3;
        let (Some(inner), Some(id)) = (self.inner.as_ref(), self.id) else {
            return ms;
        };
        let t_us = Tracer::micros(inner, now);
        let fields = own_fields(fields);
        let mut st = inner.state.lock().expect("trace state poisoned");
        // Pop this span (and, defensively, anything left above it).
        while let Some(top) = st.stack.pop() {
            if top == id {
                break;
            }
        }
        st.records.push(Record::End { id, t_us, fields });
        ms
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.ended {
            self.end(Vec::new());
        }
    }
}

/// Strips everything wall-clock-dependent from a record stream:
/// `t_us`/`dur_us` become 0 and fields whose key ends in `_ms`, `_us`,
/// or `_ns` are dropped. Two runs of the same compilation must produce
/// identical normalized streams (the determinism contract).
pub fn normalized(records: &[Record]) -> Vec<Record> {
    fn keep(key: &str) -> bool {
        !(key.ends_with("_ms") || key.ends_with("_us") || key.ends_with("_ns"))
    }
    fn strip(fields: &[(String, Value)]) -> Vec<(String, Value)> {
        fields.iter().filter(|(k, _)| keep(k)).cloned().collect()
    }
    records
        .iter()
        .map(|r| match r {
            Record::Begin {
                id,
                parent,
                name,
                fields,
                ..
            } => Record::Begin {
                id: *id,
                parent: *parent,
                name: name.clone(),
                t_us: 0,
                fields: strip(fields),
            },
            Record::End { id, fields, .. } => Record::End {
                id: *id,
                t_us: 0,
                fields: strip(fields),
            },
            Record::Complete {
                id,
                parent,
                name,
                fields,
                ..
            } => Record::Complete {
                id: *id,
                parent: *parent,
                name: name.clone(),
                t_us: 0,
                dur_us: 0,
                fields: strip(fields),
            },
            Record::Event {
                span, name, fields, ..
            } => Record::Event {
                span: *span,
                name: name.clone(),
                t_us: 0,
                fields: strip(fields),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::disabled();
        let span = t.span("work");
        t.event("ev", || vec![field("k", 1u64)]);
        let ms = span.finish();
        assert!(ms >= 0.0);
        assert!(t.records().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn spans_nest_and_ids_are_sequential() {
        let t = Tracer::new();
        let outer = t.span("outer");
        let inner = t.span_fields("inner", vec![field("n", 3u64)]);
        t.event("tick", Vec::new);
        inner.finish_fields(vec![field("done", true)]);
        outer.finish();
        let records = t.records();
        assert_eq!(records.len(), 5);
        match &records[0] {
            Record::Begin {
                id, parent, name, ..
            } => {
                assert_eq!(*id, 0);
                assert_eq!(*parent, None);
                assert_eq!(name, "outer");
            }
            r => panic!("unexpected {r:?}"),
        }
        match &records[1] {
            Record::Begin {
                id, parent, name, ..
            } => {
                assert_eq!(*id, 1);
                assert_eq!(*parent, Some(0));
                assert_eq!(name, "inner");
            }
            r => panic!("unexpected {r:?}"),
        }
        match &records[2] {
            Record::Event { span, name, .. } => {
                assert_eq!(*span, Some(1));
                assert_eq!(name, "tick");
            }
            r => panic!("unexpected {r:?}"),
        }
        match &records[3] {
            Record::End { id, fields, .. } => {
                assert_eq!(*id, 1);
                assert_eq!(fields[0].0, "done");
            }
            r => panic!("unexpected {r:?}"),
        }
        match &records[4] {
            Record::End { id, .. } => assert_eq!(*id, 0),
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn dropping_a_span_ends_it() {
        let t = Tracer::new();
        {
            let _s = t.span("scoped");
        }
        let records = t.records();
        assert_eq!(records.len(), 2);
        assert!(matches!(records[1], Record::End { id: 0, .. }));
    }

    #[test]
    fn complete_spans_nest_under_the_current_span() {
        let t = Tracer::new();
        let server = t.span("serve");
        let request = t.complete_span("serve.request", 1.0, 5.0, vec![field("id", "1")]);
        server.finish();
        match &t.records()[1] {
            Record::Complete {
                id,
                parent,
                name,
                dur_us,
                ..
            } => {
                assert_eq!(Some(*id), request);
                assert_eq!(*parent, Some(0), "nests under the open span");
                assert_eq!(name, "serve.request");
                assert_eq!(*dur_us, 5000);
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn the_exit_record_holds_the_returned_milliseconds() {
        let t = Tracer::new();
        let span = t.span("work");
        std::thread::sleep(std::time::Duration::from_millis(3));
        let ms = span.finish();
        let records = t.records();
        let (Record::Begin { t_us: begin, .. }, Record::End { t_us: end, .. }) =
            (&records[0], &records[1])
        else {
            panic!("unexpected {records:?}");
        };
        // Both ends are whole microseconds since the epoch, so their
        // difference is the returned duration to within one.
        let traced_us = (end - begin) as f64;
        assert!(
            (traced_us - ms * 1e3).abs() <= 1.0,
            "{traced_us} us vs {ms} ms"
        );
    }

    #[test]
    fn normalization_zeroes_time_and_drops_timing_fields() {
        let t = Tracer::new();
        let s = t.span_fields("p", vec![field("solve_ms", 1.5), field("k", 4u32)]);
        s.finish();
        let norm = normalized(&t.records());
        match &norm[0] {
            Record::Begin { t_us, fields, .. } => {
                assert_eq!(*t_us, 0);
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].0, "k");
            }
            r => panic!("unexpected {r:?}"),
        }
    }
}
