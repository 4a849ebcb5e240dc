//! The metric registry: named families of counters, gauges, and
//! histograms with optional label sets.
//!
//! Registration (`counter`/`gauge`/`histogram` and their `_with` label
//! variants) is get-or-create behind one mutex and returns an
//! [`Arc`] handle — hot paths hold the handle and never touch the
//! registry again, so recording is lock-free. Families and label sets
//! are kept in [`BTreeMap`]s, which makes [`Registry::render`] emit the
//! Prometheus text exposition in one deterministic order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::Histogram;

/// A monotone counter: incremented where its event happens, and read
/// from there by every view (exposition, JSON bodies).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at 0 under racing subtractions is the
    /// caller's concern; this is a plain wrapping decrement).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a family holds (every sample of a family has one kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub(crate) fn exposition_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric family: a help string, a kind, and one sample per
/// rendered label set (`""` for the unlabeled sample).
pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: Kind,
    pub(crate) samples: BTreeMap<String, Metric>,
}

/// A collection of metric families. One registry per scope that must
/// render independently (the serve crate builds one per server so
/// parallel tests never share state); [`global`] is the process-wide
/// registry the core pipeline records into.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Family>>,
}

/// Valid Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Valid label name: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Renders a label set as it appears between `{}` in the exposition
/// (`key="value",…`), escaping `\`, `"`, and newlines in values.
pub(crate) fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        assert!(valid_label(k), "invalid label name {k:?}");
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn metric(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        kind: Kind,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let key = render_labels(labels);
        let mut inner = self.inner.lock().unwrap();
        let family = inner.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            kind,
            samples: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} already registered as a {}",
            family.kind.exposition_name()
        );
        family.samples.entry(key).or_insert_with(make).clone()
    }

    /// Gets or creates the unlabeled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// Gets or creates the counter `name` with the given label set.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        match self.metric(name, labels, help, Kind::Counter, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Gets or creates the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// Gets or creates the gauge `name` with the given label set.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        match self.metric(name, labels, help, Kind::Gauge, || {
            Metric::Gauge(Arc::new(Gauge::default()))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Gets or creates the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[], help)
    }

    /// Gets or creates the histogram `name` with the given label set.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<Histogram> {
        match self.metric(name, labels, help, Kind::Histogram, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4), families and label sets in lexicographic order.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, family) in inner.iter() {
            crate::expo::render_family(&mut out, name, family);
        }
        out
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry. The core pipeline records per-probe and
/// per-round timings here; the serve metrics endpoint appends its
/// rendering after the server's own registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_label_set() {
        let r = Registry::new();
        let a = r.counter_with("requests_total", &[("outcome", "ok")], "requests");
        let b = r.counter_with("requests_total", &[("outcome", "ok")], "requests");
        let c = r.counter_with("requests_total", &[("outcome", "error")], "requests");
        a.inc();
        b.add(2);
        c.inc();
        assert_eq!(a.get(), 3, "same label set shares one counter");
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("thing", "a counter");
        let _ = r.gauge("thing", "now a gauge");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        let r = Registry::new();
        let _ = r.counter("bad name", "spaces are not allowed");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(
            render_labels(&[("path", "a\\b\"c\nd")]),
            "path=\"a\\\\b\\\"c\\nd\""
        );
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let r = Registry::new();
        r.gauge("z_last", "last").set(1);
        r.counter("a_first", "first").inc();
        let text = r.render();
        let first = text.find("a_first").unwrap();
        let last = text.find("z_last").unwrap();
        assert!(first < last, "families render in name order");
        assert_eq!(text, r.render(), "rendering is stable");
    }
}
