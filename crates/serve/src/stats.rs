//! Server telemetry: lock-free counters plus the `stats` response body.
//!
//! Counters are plain relaxed [`AtomicU64`]s — they are monotone tallies
//! read for observability, not for synchronization, so torn cross-counter
//! snapshots (a request counted as received but not yet as completed)
//! are acceptable and documented in `docs/SERVER.md`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::cache::CacheSnapshot;
use crate::coalesce::CoalesceSnapshot;

/// Monotone request/outcome counters. One instance per server, shared
/// by reference across workers.
#[derive(Debug)]
pub struct Stats {
    /// Request lines received (including malformed ones).
    pub requests: AtomicU64,
    /// Compiles answered with a full (non-degraded) result.
    pub compiles_ok: AtomicU64,
    /// Compiles answered with a `degraded: true` baseline program.
    pub compiles_degraded: AtomicU64,
    /// Compiles answered with an error (parse/lower/search/...).
    pub compile_errors: AtomicU64,
    /// Lines rejected before admission (malformed JSON, schema).
    pub protocol_errors: AtomicU64,
    /// Requests shed with a retryable `overload` error.
    pub overload_rejections: AtomicU64,
    /// Requests rejected because the server is shutting down
    /// (non-retryable `shutting_down` error).
    pub shutdown_rejections: AtomicU64,
    /// Pipeline executions actually started (cache hits and coalesced
    /// followers do *not* count — this is the denominator stampede
    /// tests assert on).
    pub executions: AtomicU64,
    /// Requests answered by replaying an in-flight leader's result.
    pub coalesced: AtomicU64,
    /// Followers whose own deadline expired before their leader
    /// finished (answered with their own degraded program).
    pub coalesced_expired: AtomicU64,
    /// Followers promoted to leader after their leader vanished.
    pub promotions: AtomicU64,
    /// Compile jobs that panicked (the worker survives; the request is
    /// answered with an internal error).
    pub worker_panics: AtomicU64,
    /// E-graph arena nodes saturated across all executions (cumulative
    /// over the GMAs of every non-cached compile).
    pub egraph_nodes: AtomicU64,
    /// E-graph storage payload bytes across all executions (arena +
    /// interned slices + class lists + memo; cumulative like
    /// `egraph_nodes`, so bytes ÷ nodes is a fleet-wide bytes/node).
    pub egraph_bytes: AtomicU64,
    /// Deadline-expired compiles answered with a simulator-verified
    /// stochastic program harvested from the anytime channel (a full
    /// `degraded: false` answer instead of the baseline fallback).
    pub stoke_harvests: AtomicU64,
    /// Compiles answered by the stochastic engine (full runs, not
    /// harvests): the request asked for `engine: stochastic`, or
    /// `auto` fell back after the SAT budget was exhausted.
    pub stoke_compiles: AtomicU64,
    /// When the server was started.
    pub started: Instant,
}

impl Default for Stats {
    fn default() -> Stats {
        Stats {
            requests: AtomicU64::new(0),
            compiles_ok: AtomicU64::new(0),
            compiles_degraded: AtomicU64::new(0),
            compile_errors: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            overload_rejections: AtomicU64::new(0),
            shutdown_rejections: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            coalesced_expired: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            egraph_nodes: AtomicU64::new(0),
            egraph_bytes: AtomicU64::new(0),
            stoke_harvests: AtomicU64::new(0),
            stoke_compiles: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

impl Stats {
    /// Increments a counter (convenience for call sites).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the `stats` response body (everything after the echoed
    /// id). `queue_depth` comes from the pool, `cache` from the cache,
    /// `coalesce` from the coalescer, and `latency` is the pre-rendered
    /// JSON object from [`crate::metrics::ServeMetrics::latency_json`],
    /// so one body carries the full picture.
    ///
    /// Schema v2 = v1 plus the `schema` tag and the `latency` section;
    /// v3 = v2 plus the `stoke` section (anytime harvests and
    /// stochastic-engine compiles), both strictly additive; v4 = v3
    /// minus the `portfolio` section (SAT probes are no longer raced).
    /// The migration notes are in `docs/SERVER.md`.
    pub fn render_body(
        &self,
        queue_depth: u64,
        cache: &CacheSnapshot,
        coalesce: &CoalesceSnapshot,
        latency: &str,
    ) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            concat!(
                "\"status\":\"ok\",",
                "\"schema\":\"denali-serve-stats-v4\",",
                "\"uptime_ms\":{},",
                "\"requests\":{},",
                "\"compiles\":{{\"ok\":{},\"degraded\":{},\"error\":{}}},",
                "\"executions\":{},",
                "\"protocol_errors\":{},",
                "\"overload_rejections\":{},",
                "\"shutdown_rejections\":{},",
                "\"worker_panics\":{},",
                "\"queue_depth\":{},",
                "\"stoke\":{{\"harvests\":{},\"compiles\":{}}},",
                "\"egraph\":{{\"nodes\":{},\"bytes\":{},\"bytes_per_node\":{}}},",
                "\"coalesce\":{{\"coalesced\":{},\"expired\":{},\"promotions\":{},",
                "\"inflight\":{},\"waiting\":{}}},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"disk_hits\":{},\"disk_invalid\":{},",
                "\"evictions\":{},\"entries\":{},\"bytes\":{}}},",
                "\"latency\":{}"
            ),
            self.started.elapsed().as_millis(),
            load(&self.requests),
            load(&self.compiles_ok),
            load(&self.compiles_degraded),
            load(&self.compile_errors),
            load(&self.executions),
            load(&self.protocol_errors),
            load(&self.overload_rejections),
            load(&self.shutdown_rejections),
            load(&self.worker_panics),
            queue_depth,
            load(&self.stoke_harvests),
            load(&self.stoke_compiles),
            load(&self.egraph_nodes),
            load(&self.egraph_bytes),
            load(&self.egraph_bytes)
                .checked_div(load(&self.egraph_nodes))
                .unwrap_or(0),
            load(&self.coalesced),
            load(&self.coalesced_expired),
            load(&self.promotions),
            coalesce.inflight,
            coalesce.waiting,
            cache.hits,
            cache.misses,
            cache.disk_hits,
            cache.disk_invalid,
            cache.evictions,
            cache.entries,
            cache.bytes,
            latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{render_response, RequestId};
    use denali_trace::json::{self, Json};

    #[test]
    fn stats_body_is_valid_json_with_all_gauges() {
        let stats = Stats::default();
        Stats::bump(&stats.requests);
        Stats::bump(&stats.requests);
        Stats::bump(&stats.compiles_ok);
        Stats::bump(&stats.coalesced);
        Stats::bump(&stats.stoke_harvests);
        stats.egraph_nodes.fetch_add(10, Ordering::Relaxed);
        stats.egraph_bytes.fetch_add(720, Ordering::Relaxed);
        let cache = CacheSnapshot {
            hits: 3,
            misses: 1,
            disk_hits: 2,
            disk_invalid: 1,
            evictions: 0,
            entries: 1,
            bytes: 512,
        };
        let coalesce = CoalesceSnapshot {
            inflight: 2,
            waiting: 5,
        };
        let latency = crate::metrics::ServeMetrics::new().latency_json();
        let line = render_response(
            &RequestId::Num(9),
            &stats.render_body(4, &cache, &coalesce, &latency),
        );
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("denali-serve-stats-v4")
        );
        assert!(
            v.get("latency").and_then(|l| l.get("stages")).is_some(),
            "v2+ bodies carry the latency section"
        );
        let stoke = v.get("stoke").unwrap();
        assert_eq!(stoke.get("harvests").and_then(Json::as_u64), Some(1));
        assert_eq!(stoke.get("compiles").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("queue_depth").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("worker_panics").and_then(Json::as_u64), Some(0));
        assert!(
            v.get("portfolio").is_none(),
            "v4 drops the portfolio section"
        );
        let egraph = v.get("egraph").unwrap();
        assert_eq!(egraph.get("nodes").and_then(Json::as_u64), Some(10));
        assert_eq!(egraph.get("bytes").and_then(Json::as_u64), Some(720));
        assert_eq!(
            egraph.get("bytes_per_node").and_then(Json::as_u64),
            Some(72)
        );
        assert_eq!(v.get("shutdown_rejections").and_then(Json::as_u64), Some(0));
        let compiles = v.get("compiles").unwrap();
        assert_eq!(compiles.get("ok").and_then(Json::as_u64), Some(1));
        assert_eq!(compiles.get("degraded").and_then(Json::as_u64), Some(0));
        let co = v.get("coalesce").unwrap();
        assert_eq!(co.get("coalesced").and_then(Json::as_u64), Some(1));
        assert_eq!(co.get("inflight").and_then(Json::as_u64), Some(2));
        assert_eq!(co.get("waiting").and_then(Json::as_u64), Some(5));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3));
        assert_eq!(cache.get("disk_invalid").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("bytes").and_then(Json::as_u64), Some(512));
        assert!(v.get("uptime_ms").and_then(Json::as_u64).is_some());
    }
}
