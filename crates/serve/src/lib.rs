#![warn(missing_docs)]

//! The Denali compilation server.
//!
//! The paper frames Denali as a tool invoked repeatedly on small,
//! performance-critical kernels (§1, §6). That workload is exactly what
//! a persistent daemon wins at: axiom construction, process startup,
//! and — above all — re-solving GMAs the server has already seen can
//! all be amortized across requests. This crate turns the [`Denali`]
//! façade into such a daemon:
//!
//! * **Protocol** ([`protocol`]) — framed JSONL over stdio or TCP: one
//!   request object per line in, one response object per line out,
//!   correlated by `id`. See `docs/SERVER.md` for schema v1.
//! * **Content-addressed cache** ([`cache`]) — results are keyed by a
//!   canonical fingerprint over the lowered GMAs, the axiom set, and
//!   the output-affecting option subset ([`denali_core::fingerprint`]).
//!   An in-memory LRU with a byte budget fronts an optional on-disk
//!   tier that survives restarts. Cache hits return *byte-identical*
//!   response bodies to fresh compiles.
//! * **Bounded worker pool** ([`pool`]) — requests are admitted to a
//!   fixed-capacity queue served by a fixed set of workers;
//!   when the queue is full the server sheds load with a retryable
//!   `overload` error instead of stalling the connection (and with a
//!   non-retryable `shutting_down` error once the pool has closed).
//! * **Single-flight coalescing** ([`coalesce`]) — concurrent requests
//!   with the same fingerprint execute the pipeline once: the first
//!   becomes the leader and occupies a worker, the duplicates become
//!   followers that replay the leader's exact response bytes without
//!   consuming a worker or a queue slot. The cache dedups *completed*
//!   work; the coalescer closes the stampede window for *in-flight*
//!   work.
//! * **Deadlines and graceful degradation** ([`deadline`],
//!   [`server`]) — a request may carry `deadline_ms`; a watchdog arms
//!   the pipeline's [`CancelToken`](denali_par::CancelToken) so an
//!   expired search is abandoned mid-probe, and the server answers
//!   with the baseline rewrite program tagged `"degraded": true` — the
//!   client always gets *a* correct program.
//! * **Metrics** ([`metrics`]) — one registry per server holds every
//!   request/outcome counter, the cache and coalescer counters and
//!   gauges, queue depth, and per-stage (prepare, queue, cache,
//!   coalesce, execute, total) and per-outcome latency histograms. Each
//!   counter is incremented where its event happens; the registry
//!   renders the Prometheus text exposition for `denali serve
//!   --metrics-addr` (see `denali_metrics`).
//! * **Stats** ([`stats`]) — a `stats` request reads the same handles:
//!   counters, cache and coalescer gauges, queue depth, uptime, and
//!   (schema v2) per-stage/per-outcome latency quantiles. Every request
//!   runs under a `serve.request` trace span.
//! * **Flight recorder** ([`flight`]) — an always-on bounded ring of
//!   finished-request summaries (the `flight` request reads it back),
//!   deterministic 1-in-N trace sampling, and retroactive spooling of
//!   slow requests' full span trees to disk.
//!
//! [`Denali`]: denali_core::Denali

pub mod cache;
pub mod coalesce;
pub mod deadline;
pub mod flight;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod stats;

pub use cache::Cache;
pub use flight::{FlightEntry, FlightRecorder};
pub use metrics::ServeMetrics;
pub use server::{serve_listener, serve_stdio, serve_tcp, Server, ServerConfig};
