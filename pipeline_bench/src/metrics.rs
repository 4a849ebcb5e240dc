//! Metric definitions, results and their JSON rendering.
//!
//! The two tables below define what the benchmark reports;
//! `BENCHMARK.json` at the repository root repeats them (a unit test
//! keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may get worse before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("compile_ms_geomean", "ms", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p95_ms", "ms", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("cycles_total", "cycles", Lower, 0.01),
    e2e("instructions_total", "count", Lower, 0.01),
    e2e("optimal_share", "fraction", Higher, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Reported by every traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("lang.prepare_ms", "ms", Lower),
    layer("serve.prepare_ms", "ms", Lower),
    layer("match.ms", "ms", Lower),
    layer("match.share", "fraction", Lower),
    layer("match.rounds", "count", Lower),
    layer("match.instances", "count", Lower),
    layer("match.scanned", "count", Lower),
    layer("match.skip_ratio", "fraction", Higher),
    layer("match.saturated_share", "fraction", Higher),
    layer("egraph.nodes", "count", Lower),
    layer("egraph.classes", "count", Lower),
    layer("egraph.bytes", "bytes", Lower),
    layer("enumerate.ms", "ms", Lower),
    layer("enumerate.candidates", "count", Lower),
    layer("search.ms", "ms", Lower),
    layer("search.share", "fraction", Lower),
    layer("search.probes", "count", Lower),
    layer("search.unsat_probes", "count", Lower),
    layer("sat.vars_max", "count", Lower),
    layer("sat.clauses_max", "count", Lower),
    layer("sat.conflicts", "count", Lower),
    layer("sat.decisions", "count", Lower),
    layer("sat.propagations", "count", Lower),
    layer("sat.solve_ms_reported", "ms", Lower),
    layer("sat.encode_ms_reported", "ms", Lower),
    layer("baseline.share", "fraction", Lower),
    layer("stoke.share", "fraction", Lower),
    layer("stoke.proposals", "count", Lower),
    layer("stoke.accept_ratio", "fraction", Higher),
    layer("stoke.improved_share", "fraction", Higher),
    layer("stoke.cycles_over_sat", "ratio", Lower),
    layer("serve.queue_ms_p50", "ms", Lower),
    layer("serve.queue_ms_p99", "ms", Lower),
    layer("serve.execute_ms_p50", "ms", Lower),
    layer("serve.execute_ms_p99", "ms", Lower),
    layer("serve.cache_ms_p50", "ms", Lower),
    layer("serve.coalesce_ms_p99", "ms", Lower),
    layer("serve.hit_ratio", "fraction", Higher),
    layer("serve.coalesce_ratio", "fraction", Higher),
    layer("serve.executions", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("gen.late_ms_p99", "ms", Lower),
    layer("gen.late_ms_max", "ms", Lower),
    layer("bench.layer_coverage", "fraction", Higher),
    layer("bench.trace_overhead_share", "fraction", Lower),
];

pub fn definition(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that are not tied to one attempt (a program that changed
    /// between passes, a layer decomposition that disagreed with the
    /// façade). Any of these makes the run incorrect.
    pub problems: Vec<String>,
    pub values: Values,
    /// Human-readable detail printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one attempt and whether it failed.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(e);
            }
        }
    }

    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(definition(name).is_some(), "undefined metric {name}");
        self.values.insert(name, value);
    }
}

fn write_number(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// The `metrics` object for the given definitions, in table order.
pub fn render_metrics(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut out = String::from("{");
    for (i, def) in defs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"value\":", def.name);
        write_number(
            &mut out,
            outcome.values.get(def.name).copied().unwrap_or(f64::NAN),
        );
        let _ = write!(out, ",\"unit\":\"{}\"}}", def.unit);
    }
    out.push('}');
    out
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`,
/// preceded by `extra` key/value text when given (the record form).
pub fn render_result(outcome: &Outcome, defs: &[MetricDef], extra: &str) -> String {
    format!(
        "{{{extra}\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        render_metrics(outcome, defs)
    )
}

/// Metric lines for a terminal, one per definition.
pub fn render_table(workload: &str, outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut out = String::new();
    for def in defs {
        let value = outcome.values.get(def.name).copied().unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{workload:<12} {:<28} {value:>14.4} {}",
            def.name, def.unit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_trace::json::{self, Json};

    /// `BENCHMARK.json` sits next to the benchmark's directory and must
    /// list the same workloads and metrics, with the same units,
    /// directions and bounds, as the tables the binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        let workloads: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (entry, def) in entries.iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or_default();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(field("better"), better, "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }
}
