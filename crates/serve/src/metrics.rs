//! The server's metric families: per-stage and per-outcome latency
//! histograms, the request/outcome counters, and the queue-depth gauge.
//!
//! Each [`Server`](crate::Server) owns one [`ServeMetrics`] with its own
//! [`Registry`] — servers must not share request latency or counts
//! (tests run several per process) — while the core pipeline's families
//! live in [`denali_metrics::global`]. The cache and the coalescer
//! register their own families in the same registry. `/metrics` renders
//! the registry and the `stats` body ([`ServeMetrics::stats_body`])
//! reads the same handles, so the two can never disagree about a tally.
//!
//! Every counter has exactly one home: a registry handle, incremented
//! on the request path where its event happens (lock-free, nanoseconds
//! per event).

use std::sync::Arc;
use std::time::Instant;

use denali_metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

/// The stages a pooled compile passes through; `total` spans admission
/// to response.
const STAGES: [&str; 6] = ["prepare", "queue", "cache", "coalesce", "execute", "total"];

/// The five terminal outcomes latency is classified by. `coalesced` is
/// an overlay — a coalesced request records under its outcome *and*
/// under `coalesced`.
const OUTCOMES: [&str; 5] = ["ok", "hit", "degraded", "error", "coalesced"];

/// One server's metric families and the handles its hot paths record
/// through.
pub struct ServeMetrics {
    registry: Registry,
    started: Instant,
    /// Time preparing a compile request (option merge, parse, lower,
    /// fingerprint), on the transports' reader thread before the
    /// request can be admitted; every compile line, preparation errors
    /// included.
    pub stage_prepare: Arc<Histogram>,
    /// Time from admission to the start of leader execution (pooled
    /// paths only; the synchronous test path has no queue).
    pub stage_queue: Arc<Histogram>,
    /// Time inside a result-cache lookup.
    pub stage_cache: Arc<Histogram>,
    /// A follower's wait for its leader's delivery.
    pub stage_coalesce: Arc<Histogram>,
    /// Time inside the compile pipeline (the SAT-probe ladder).
    pub stage_execute: Arc<Histogram>,
    /// Admission to rendered response, every request.
    pub stage_total: Arc<Histogram>,
    /// Jobs admitted to the pool but not yet started: the transports'
    /// pool counts its depth here.
    pub queue_depth: Arc<Gauge>,
    outcomes: [Arc<Histogram>; 5],
    /// Request lines received (including malformed ones).
    pub requests: Arc<Counter>,
    /// Compiles answered with a full (non-degraded) result.
    pub compiles_ok: Arc<Counter>,
    /// Compiles answered with a `degraded: true` baseline program.
    pub compiles_degraded: Arc<Counter>,
    /// Compiles answered with an error (parse/lower/search/...).
    pub compile_errors: Arc<Counter>,
    /// Pipeline executions actually started (cache hits and coalesced
    /// followers do *not* count — this is the denominator stampede
    /// tests assert on).
    pub executions: Arc<Counter>,
    /// Lines rejected before admission (malformed JSON, schema).
    pub protocol_errors: Arc<Counter>,
    /// Requests shed with a retryable `overload` error.
    pub overload_rejections: Arc<Counter>,
    /// Requests rejected because the server is shutting down
    /// (non-retryable `shutting_down` error).
    pub shutdown_rejections: Arc<Counter>,
    /// Compile jobs that panicked (the worker survives; the request is
    /// answered with an internal error).
    pub worker_panics: Arc<Counter>,
    /// Requests answered by replaying an in-flight leader's result.
    pub coalesced: Arc<Counter>,
    /// Followers whose own deadline expired before their leader
    /// finished (answered with their own degraded program).
    pub coalesced_expired: Arc<Counter>,
    /// Followers promoted to leader after their leader vanished.
    pub promotions: Arc<Counter>,
    /// Deadline-expired compiles answered with a simulator-verified
    /// stochastic program harvested from the anytime channel (a full
    /// `degraded: false` answer instead of the baseline fallback).
    pub stoke_harvests: Arc<Counter>,
    /// Compiles answered by the stochastic engine (full runs and
    /// harvests): the request asked for `engine: stochastic`, or `auto`
    /// fell back after the SAT budget was exhausted.
    pub stoke_compiles: Arc<Counter>,
    /// E-graph arena nodes saturated across all executions (cumulative
    /// over the GMAs of every non-cached compile).
    pub egraph_nodes: Arc<Counter>,
    /// E-graph storage payload bytes across all executions (arena +
    /// interned slices + class lists + memo; cumulative like
    /// `egraph_nodes`, so bytes ÷ nodes is a fleet-wide bytes/node).
    pub egraph_bytes: Arc<Counter>,
    uptime_seconds: Arc<Gauge>,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Builds the families in a fresh registry.
    pub fn new() -> ServeMetrics {
        let registry = Registry::new();
        let stage_help = "Per-stage request latency (microseconds)";
        let stage = |name: &str| {
            registry.histogram_with("denali_serve_stage_us", &[("stage", name)], stage_help)
        };
        let outcome_help = "Request latency by terminal outcome (microseconds)";
        let outcome = |name: &str| {
            registry.histogram_with(
                "denali_serve_outcome_us",
                &[("outcome", name)],
                outcome_help,
            )
        };
        let compiles = |tag: &str| {
            registry.counter_with(
                "denali_serve_compiles_total",
                &[("outcome", tag)],
                "Compile responses by outcome",
            )
        };
        ServeMetrics {
            started: Instant::now(),
            stage_prepare: stage(STAGES[0]),
            stage_queue: stage(STAGES[1]),
            stage_cache: stage(STAGES[2]),
            stage_coalesce: stage(STAGES[3]),
            stage_execute: stage(STAGES[4]),
            stage_total: stage(STAGES[5]),
            queue_depth: registry.gauge(
                "denali_serve_queue_depth",
                "Jobs admitted to the pool but not yet started",
            ),
            outcomes: OUTCOMES.map(outcome),
            requests: registry.counter(
                "denali_serve_requests_total",
                "Request lines received (including malformed ones)",
            ),
            compiles_ok: compiles("ok"),
            compiles_degraded: compiles("degraded"),
            compile_errors: compiles("error"),
            executions: registry.counter(
                "denali_serve_executions_total",
                "Pipeline executions actually started",
            ),
            protocol_errors: registry.counter(
                "denali_serve_protocol_errors_total",
                "Lines rejected before admission",
            ),
            overload_rejections: registry.counter(
                "denali_serve_overload_rejections_total",
                "Requests shed with a retryable overload error",
            ),
            shutdown_rejections: registry.counter(
                "denali_serve_shutdown_rejections_total",
                "Requests rejected during shutdown",
            ),
            worker_panics: registry.counter(
                "denali_serve_worker_panics_total",
                "Compile jobs that panicked",
            ),
            coalesced: registry.counter(
                "denali_serve_coalesced_total",
                "Requests answered by replaying an in-flight leader's result",
            ),
            coalesced_expired: registry.counter(
                "denali_serve_coalesced_expired_total",
                "Followers whose deadline expired before their leader finished",
            ),
            promotions: registry.counter(
                "denali_serve_promotions_total",
                "Followers promoted to leader after their leader vanished",
            ),
            stoke_harvests: registry.counter(
                "denali_serve_stoke_harvests_total",
                "Deadline expiries answered from the anytime channel",
            ),
            stoke_compiles: registry.counter(
                "denali_serve_stoke_compiles_total",
                "Compiles answered by the stochastic engine",
            ),
            egraph_nodes: registry.counter(
                "denali_serve_egraph_nodes_total",
                "E-graph nodes saturated across all executions",
            ),
            egraph_bytes: registry.counter(
                "denali_serve_egraph_bytes_total",
                "E-graph storage bytes across all executions",
            ),
            uptime_seconds: registry
                .gauge("denali_serve_uptime_seconds", "Seconds since server start"),
            registry,
        }
    }

    /// The registry every family of this server lives in (the cache and
    /// the coalescer register theirs here too).
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Milliseconds since the metrics (and so the server) were created.
    pub(crate) fn uptime_ms(&self) -> u128 {
        self.started.elapsed().as_millis()
    }

    /// Records a finished request: `total_us` into the total-stage
    /// histogram, the mapped outcome histogram, and — when the request
    /// was answered by coalescing — the `coalesced` overlay.
    pub fn observe_outcome(&self, outcome: &str, coalesced: bool, total_us: u64) {
        self.stage_total.observe(total_us);
        // Shed/panic tags (`overload`, `shutdown`, `panic`) classify as
        // errors: the client did not get a program. A harvested answer
        // is a full result (`degraded: false`), so it classifies as ok.
        let index = match outcome {
            "ok" | "harvested" => 0,
            "hit" => 1,
            "degraded" => 2,
            _ => 3,
        };
        self.outcomes[index].observe(total_us);
        if coalesced {
            self.outcomes[4].observe(total_us);
        }
    }

    /// Renders this server's families in the exposition format.
    pub fn render(&self) -> String {
        self.uptime_seconds.set(self.started.elapsed().as_secs());
        self.registry.render()
    }

    /// The `latency` section of the `stats` response (a JSON object
    /// value): p50/p90/p99/max per stage and per outcome, read from the
    /// same histograms `/metrics` exposes.
    pub fn latency_json(&self) -> String {
        let quantiles = |s: &HistogramSnapshot| {
            format!(
                "{{\"count\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                s.count(),
                s.quantile(0.5),
                s.quantile(0.9),
                s.quantile(0.99),
                s.max
            )
        };
        let stages = [
            &self.stage_prepare,
            &self.stage_queue,
            &self.stage_cache,
            &self.stage_coalesce,
            &self.stage_execute,
            &self.stage_total,
        ];
        let mut out = String::from("{\"stages\":{");
        for (i, (name, h)) in STAGES.iter().zip(stages).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", quantiles(&h.snapshot())));
        }
        out.push_str("},\"outcomes\":{");
        for (i, (name, h)) in OUTCOMES.iter().zip(&self.outcomes).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", quantiles(&h.snapshot())));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_trace::json::{self, Json};

    #[test]
    fn latency_json_is_valid_and_covers_every_stage_and_outcome() {
        let metrics = ServeMetrics::new();
        metrics.stage_execute.observe(1000);
        metrics.observe_outcome("ok", false, 1500);
        metrics.observe_outcome("hit", true, 20);
        let v = json::parse(&metrics.latency_json()).unwrap();
        let stages = v.get("stages").unwrap();
        for name in STAGES {
            assert!(stages.get(name).is_some(), "missing stage {name}");
        }
        let outcomes = v.get("outcomes").unwrap();
        for name in OUTCOMES {
            assert!(outcomes.get(name).is_some(), "missing outcome {name}");
        }
        assert_eq!(
            stages
                .get("total")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            outcomes
                .get("coalesced")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(1),
            "coalesced overlays the outcome histogram"
        );
    }

    #[test]
    fn rendered_exposition_passes_the_validator() {
        let metrics = ServeMetrics::new();
        metrics.observe_outcome("ok", false, 12345);
        metrics.stage_queue.observe(7);
        let cache = crate::Cache::new(1024, None, metrics.registry()).unwrap();
        cache.put("aa", "body");
        assert!(cache.get("aa").is_some());
        metrics.requests.inc();
        let text = metrics.render();
        denali_metrics::validate_exposition(&text).unwrap();
        assert!(text.contains("denali_serve_stage_us_bucket{stage=\"queue\""));
        assert!(text.contains("denali_serve_cache_hits_total 1"));
        assert!(text.contains("denali_serve_cache_entries 1"));
        assert!(text.contains("denali_serve_requests_total 1"));
    }
}
