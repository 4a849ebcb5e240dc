//! The `stats` response body, read from the server's registry handles.
//!
//! Every number in the body is a [`ServeMetrics`] counter or gauge (or a
//! cache/coalescer handle in the same registry) — the values `/metrics`
//! exposes, not copies. The counters are relaxed atomics: monotone
//! tallies read for observability, not for synchronization, so torn
//! cross-counter snapshots (a request counted as received but not yet
//! as completed) are acceptable and documented in `docs/SERVER.md`.

use crate::cache::CacheSnapshot;
use crate::coalesce::CoalesceSnapshot;
use crate::metrics::ServeMetrics;

impl ServeMetrics {
    /// Renders the `stats` response body (everything after the echoed
    /// id): this server's counters, the queue-depth gauge, `cache` from
    /// the cache, `coalesce` from the coalescer, and the `latency`
    /// section from [`ServeMetrics::latency_json`], so one body carries
    /// the full picture.
    ///
    /// Schema v2 = v1 plus the `schema` tag and the `latency` section;
    /// v3 = v2 plus the `stoke` section (anytime harvests and
    /// stochastic-engine compiles), both strictly additive; v4 = v3
    /// minus the `portfolio` section (SAT probes are no longer raced);
    /// v5 = v4 plus the `prepare` latency stage, strictly additive.
    /// The migration notes are in `docs/SERVER.md`.
    pub fn stats_body(&self, cache: &CacheSnapshot, coalesce: &CoalesceSnapshot) -> String {
        format!(
            concat!(
                "\"status\":\"ok\",",
                "\"schema\":\"denali-serve-stats-v5\",",
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
            self.uptime_ms(),
            self.requests.get(),
            self.compiles_ok.get(),
            self.compiles_degraded.get(),
            self.compile_errors.get(),
            self.executions.get(),
            self.protocol_errors.get(),
            self.overload_rejections.get(),
            self.shutdown_rejections.get(),
            self.worker_panics.get(),
            self.queue_depth.get(),
            self.stoke_harvests.get(),
            self.stoke_compiles.get(),
            self.egraph_nodes.get(),
            self.egraph_bytes.get(),
            self.egraph_bytes
                .get()
                .checked_div(self.egraph_nodes.get())
                .unwrap_or(0),
            self.coalesced.get(),
            self.coalesced_expired.get(),
            self.promotions.get(),
            coalesce.inflight,
            coalesce.waiting,
            cache.hits,
            cache.misses,
            cache.disk_hits,
            cache.disk_invalid,
            cache.evictions,
            cache.entries,
            cache.bytes,
            self.latency_json(),
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
        let metrics = ServeMetrics::new();
        metrics.requests.inc();
        metrics.requests.inc();
        metrics.compiles_ok.inc();
        metrics.coalesced.inc();
        metrics.stoke_harvests.inc();
        metrics.egraph_nodes.add(10);
        metrics.egraph_bytes.add(720);
        metrics.queue_depth.set(4);
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
        let line = render_response(&RequestId::Num(9), &metrics.stats_body(&cache, &coalesce));
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("denali-serve-stats-v5")
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
