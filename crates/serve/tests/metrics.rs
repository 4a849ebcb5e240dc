//! Cross-checks between the server's observability surfaces: the
//! `stats` body, the `/metrics` exposition, the per-stage/per-outcome
//! latency histograms, and the flight recorder — and between the
//! histograms and the latency clients measure. Counters and histograms
//! are recorded at different points by different code — these tests pin
//! the invariants that keep them mutually consistent.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use denali_axioms::SaturationLimits;
use denali_core::Options;
use denali_metrics::RESOLUTION;
use denali_serve::pool::Pool;
use denali_serve::protocol::{self, Request};
use denali_serve::server::{serve_lines, serve_listener};
use denali_serve::{Server, ServerConfig};
use denali_trace::json::{self, Json};
use denali_trace::{jsonl, report};

const SOURCE: &str = r"(\procdecl f ((reg6 long)) long (:= (\res (+ (* reg6 4) 1))))";

fn fast_options() -> Options {
    Options {
        max_cycles: 8,
        saturation: SaturationLimits {
            max_iterations: 2,
            max_nodes: 400,
            max_instances_per_round: 100,
            max_structural_per_round: 20,
            max_structural_growth: 100,
            ..SaturationLimits::default()
        },
        ..Options::default()
    }
}

fn compile_line(id: &str, source: &str, extra: &str) -> String {
    let mut src = String::new();
    json::write_str(&mut src, source);
    format!(r#"{{"type":"compile","id":"{id}","source":{src}{extra}}}"#)
}

/// The value of the exposition sample `name` (with its label set, if
/// any), e.g. `denali_serve_compiles_total{outcome="ok"}`.
fn sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample {name} in:\n{text}"))
        .parse()
        .unwrap()
}

fn count(latency: &Json, section: &str, name: &str) -> u64 {
    latency
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(|e| e.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {section}.{name}.count"))
}

#[test]
fn stage_histograms_sum_consistently_with_the_stats_counters() {
    let server = Server::new(ServerConfig {
        base: fast_options(),
        ..ServerConfig::default()
    })
    .unwrap();

    // One of each terminal outcome. The expired deadline goes first:
    // deadlines are execution knobs outside the fingerprint, so once
    // the cache is warm the same source would be a hit instead.
    server
        .handle_line(&compile_line("c", SOURCE, r#","deadline_ms":0"#))
        .unwrap();
    server.handle_line(&compile_line("a", SOURCE, "")).unwrap();
    server.handle_line(&compile_line("b", SOURCE, "")).unwrap();
    server.handle_line(&compile_line("d", "((((", "")).unwrap();
    server.handle_line("not json").unwrap();

    let stats = server.handle_line(r#"{"type":"stats","id":1}"#).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(
        v.get("schema").and_then(Json::as_str),
        Some("denali-serve-stats-v5")
    );
    let latency = v.get("latency").expect("v5 stats carry latency");

    // Every compile response got exactly one total-latency observation,
    // and the outcome histograms partition it (coalesced is recorded in
    // addition to a terminal outcome, never instead of one).
    let total = count(latency, "stages", "total");
    let by_outcome = count(latency, "outcomes", "ok")
        + count(latency, "outcomes", "hit")
        + count(latency, "outcomes", "degraded")
        + count(latency, "outcomes", "error");
    assert_eq!(total, by_outcome, "outcomes partition total:\n{stats}");
    assert_eq!(total, 4, "four compile responses:\n{stats}");
    assert_eq!(count(latency, "outcomes", "ok"), 1);
    assert_eq!(count(latency, "outcomes", "hit"), 1);
    assert_eq!(count(latency, "outcomes", "degraded"), 1);
    assert_eq!(count(latency, "outcomes", "error"), 1);
    assert_eq!(count(latency, "outcomes", "coalesced"), 0);

    // The execute histogram counts exactly the pipeline executions the
    // stats counter claims (hits never execute).
    assert_eq!(
        count(latency, "stages", "execute"),
        v.get("executions").and_then(Json::as_u64).unwrap(),
        "execute histogram vs executions counter:\n{stats}"
    );

    // The cache-lookup histogram counts exactly hits + misses.
    let cache = server.cache().snapshot();
    assert_eq!(count(latency, "stages", "cache"), cache.hits + cache.misses);

    // Every compile line is prepared once, the one that fails to parse
    // included.
    assert_eq!(count(latency, "stages", "prepare"), total);

    // Direct histogram reads agree with the JSON (same snapshots).
    let metrics = server.metrics();
    assert_eq!(metrics.stage_total.snapshot().count(), total);
    // Quantiles are monotone at every stage. Only the pipeline-running
    // stages are guaranteed a >=1us duration — a cache lookup can
    // finish inside the sub-microsecond bucket on a fast machine.
    for stage in ["cache", "execute", "total"] {
        let e = latency.get("stages").and_then(|s| s.get(stage)).unwrap();
        let q = |k: &str| e.get(k).and_then(Json::as_u64).unwrap();
        assert!(q("p50_us") <= q("p90_us"), "{stage}");
        assert!(q("p90_us") <= q("p99_us"), "{stage}");
    }
    for stage in ["execute", "total"] {
        let e = latency.get("stages").and_then(|s| s.get(stage)).unwrap();
        let p99 = e.get("p99_us").and_then(Json::as_u64).unwrap();
        assert!(p99 >= 1, "{stage} saw a real duration");
        assert!(
            e.get("max_us").and_then(Json::as_u64).unwrap() >= 1,
            "{stage}"
        );
    }

    // The exposition over the same registry passes the validator, and
    // every counter and gauge in the stats body is its sample: both
    // read the same handles.
    let text = server.metrics_text();
    denali_metrics::validate_exposition(&text).unwrap();
    let field = |path: &str| {
        path.split('.')
            .try_fold(&v, |node, key| node.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing {path} in:\n{stats}"))
    };
    let pairs = [
        ("requests", "denali_serve_requests_total"),
        ("compiles.ok", "denali_serve_compiles_total{outcome=\"ok\"}"),
        (
            "compiles.degraded",
            "denali_serve_compiles_total{outcome=\"degraded\"}",
        ),
        (
            "compiles.error",
            "denali_serve_compiles_total{outcome=\"error\"}",
        ),
        ("executions", "denali_serve_executions_total"),
        ("protocol_errors", "denali_serve_protocol_errors_total"),
        (
            "overload_rejections",
            "denali_serve_overload_rejections_total",
        ),
        (
            "shutdown_rejections",
            "denali_serve_shutdown_rejections_total",
        ),
        ("worker_panics", "denali_serve_worker_panics_total"),
        ("queue_depth", "denali_serve_queue_depth"),
        ("stoke.harvests", "denali_serve_stoke_harvests_total"),
        ("stoke.compiles", "denali_serve_stoke_compiles_total"),
        ("egraph.nodes", "denali_serve_egraph_nodes_total"),
        ("egraph.bytes", "denali_serve_egraph_bytes_total"),
        ("coalesce.coalesced", "denali_serve_coalesced_total"),
        ("coalesce.expired", "denali_serve_coalesced_expired_total"),
        ("coalesce.promotions", "denali_serve_promotions_total"),
        ("coalesce.inflight", "denali_serve_coalesce_inflight"),
        ("coalesce.waiting", "denali_serve_coalesce_waiting"),
        ("cache.hits", "denali_serve_cache_hits_total"),
        ("cache.misses", "denali_serve_cache_misses_total"),
        ("cache.disk_hits", "denali_serve_cache_disk_hits_total"),
        (
            "cache.disk_invalid",
            "denali_serve_cache_disk_invalid_total",
        ),
        ("cache.evictions", "denali_serve_cache_evictions_total"),
        ("cache.entries", "denali_serve_cache_entries"),
        ("cache.bytes", "denali_serve_cache_bytes"),
    ];
    for (path, name) in pairs {
        assert_eq!(field(path), sample(&text, name), "{path} vs {name}");
    }
    // The sequence above, in counts: six request lines (four compiles,
    // the malformed line, the stats request itself), one execution that
    // fed the egraph counters.
    assert_eq!(field("requests"), 6);
    assert_eq!(field("protocol_errors"), 1);
    assert_eq!(field("compiles.degraded"), 1);
    assert!(field("egraph.nodes") > 0);
}

#[test]
fn preparation_is_a_stage_on_both_paths_and_its_errors_count_from_admission() {
    let server = Arc::new(
        Server::new(ServerConfig {
            base: fast_options(),
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let prepared = |server: &Server| server.metrics().stage_prepare.snapshot().count();

    // The pooled path: the reader thread prepares each compile line,
    // a miss, a coalesced or cached duplicate and a parse error alike;
    // pings and stats are not prepared.
    let input = [
        compile_line("a", SOURCE, ""),
        compile_line("b", SOURCE, ""),
        compile_line("bad", "((((", ""),
        r#"{"type":"ping","id":1}"#.to_owned(),
    ]
    .join("\n");
    let pool = Pool::new(1, 8);
    let out = Arc::new(Mutex::new(Vec::new()));
    serve_lines(&server, &pool, input.as_bytes(), &out).unwrap();
    drop(pool);
    server.drain_followers();
    assert_eq!(prepared(&server), 3);

    // The synchronous path prepares too.
    server.handle_line(&compile_line("c", SOURCE, "")).unwrap();
    assert_eq!(prepared(&server), 4);

    // A preparation error's total counts from its admission, not from
    // the moment preparation failed: admitted 50 ms ago, it reads at
    // least 50 ms.
    let Ok(Request::Compile(req)) = protocol::parse_request(&compile_line("late", "((((", ""))
    else {
        panic!("a compile request")
    };
    let response = server.handle_compile(&req, Instant::now() - Duration::from_millis(50));
    assert!(response.contains(r#""stage":"parse""#), "{response}");
    let entries = server.flight().entries();
    let late = entries.last().unwrap();
    assert_eq!(late.outcome, "error");
    assert!(late.total_us >= 50_000, "total {} us", late.total_us);
    assert_eq!(prepared(&server), 5);

    // The stats body and the exposition report the same stage.
    let stats = server.handle_line(r#"{"type":"stats","id":2}"#).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(count(v.get("latency").unwrap(), "stages", "prepare"), 5);
    let text = server.metrics_text();
    assert_eq!(
        sample(&text, r#"denali_serve_stage_us_count{stage="prepare"}"#),
        5
    );
}

/// The `q`-quantile of ascending `sorted` by nearest rank, the rank
/// the server's histogram quantiles read.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One load run for the quantile cross-check: 16 clients, each on its
/// own TCP connection, keep one request outstanding apiece against a
/// fresh one-worker server, so most of a request's latency is its wait
/// in the pool queue. Three requests in four are unique compiles; the
/// fourth is drawn from a 4-program hot set (a cache hit, or coalesced
/// onto its leader in flight). Client c sends its first request c ms
/// after the start, so no burst of requests waits to be read before
/// admission, where only the client would see it. Returns each
/// quantile's client-measured and server-reported value, in ms.
fn client_and_server_quantiles(quantiles: &[f64]) -> Vec<(f64, f64)> {
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 8;
    let server = Arc::new(
        Server::new(ServerConfig {
            base: fast_options(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_listener(&server, &listener);
        });
    }
    let start = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let sock = TcpStream::connect(addr).unwrap();
                sock.set_nodelay(true).unwrap();
                let mut reader = BufReader::new(sock.try_clone().unwrap());
                let mut writer = sock;
                // A ping answered means the server reads this connection,
                // so no timed request waits for the accept loop.
                writer.write_all(b"{\"type\":\"ping\",\"id\":0}\n").unwrap();
                reader.read_line(&mut String::new()).unwrap();
                start.wait();
                std::thread::sleep(Duration::from_millis(c as u64));
                let mut latencies_ms = Vec::with_capacity(PER_CLIENT);
                for n in 0..PER_CLIENT {
                    let i = n * CLIENTS + c;
                    let program = if i.is_multiple_of(4) { 1_000_000 + (i / 4) % 4 } else { i };
                    let source = format!(
                        r"(\procdecl f{program} ((reg6 long)) long (:= (\res (+ (* reg6 4) {program}))))"
                    );
                    let line = compile_line(&format!("r{i}"), &source, "") + "\n";
                    let sent = Instant::now();
                    writer.write_all(line.as_bytes()).unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    let v = json::parse(response.trim_end()).unwrap();
                    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{response}");
                }
                latencies_ms
            })
        })
        .collect();
    let mut client_ms: Vec<f64> = clients
        .into_iter()
        .flat_map(|client| client.join().unwrap())
        .collect();
    client_ms.sort_by(f64::total_cmp);
    let total = server.metrics().stage_total.snapshot();
    assert_eq!(total.count(), (CLIENTS * PER_CLIENT) as u64);
    quantiles
        .iter()
        .map(|&q| (nearest_rank(&client_ms, q), total.quantile(q) as f64 / 1e3))
        .collect()
}

#[test]
fn total_stage_quantiles_agree_with_client_measured_latency() {
    // The server times a request from admission to its response, the
    // client from its write to the response line: they differ by the
    // read of the request, two thread wake-ups and the histogram's
    // bucket rounding, so each of p50/p95/p99 must agree within one
    // bucket on either side plus a 3 ms allowance. On a shared host a
    // stalled CPU can hold the client's side of several requests for
    // longer than that, so a run may be repeated twice; a server that
    // misreports disagrees on every run.
    const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];
    const SLACK_MS: f64 = 3.0;
    let mut runs = Vec::new();
    for _ in 0..3 {
        let measured = client_and_server_quantiles(&QUANTILES);
        let agree = measured.iter().all(|&(client, server)| {
            (client - server).abs() <= 2.0 * RESOLUTION * client.max(server) + SLACK_MS
        });
        if agree {
            return;
        }
        runs.push(measured);
    }
    panic!("client vs server (ms) at {QUANTILES:?} disagree on every run: {runs:?}");
}

#[test]
fn flight_recorder_rings_samples_and_spools_without_trace_enabled() {
    let dir = std::env::temp_dir().join(format!("denali-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::new(ServerConfig {
        base: fast_options(), // note: base.trace is OFF
        flight_capacity: 8,
        slow_ms: Some(0), // every request is "slow"
        spool_dir: Some(dir.clone()),
        trace_sample: 1, // and every request is sampled
        ..ServerConfig::default()
    })
    .unwrap();

    server
        .handle_line(&compile_line("slow", SOURCE, ""))
        .unwrap();

    // The ring saw the request, with its sampled trace inline.
    let flight = server.handle_line(r#"{"type":"flight","id":9}"#).unwrap();
    let v = json::parse(&flight).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    let entries = v.get("flight").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 1);
    let entry = &entries[0];
    assert_eq!(entry.get("id").and_then(Json::as_str), Some("slow"));
    assert_eq!(entry.get("outcome").and_then(Json::as_str), Some("ok"));
    assert!(entry.get("total_us").and_then(Json::as_u64).unwrap() >= 1);
    let trace = entry.get("trace").and_then(Json::as_str).unwrap();

    // The spooled file exists and both it and the inline trace parse
    // back into a span tree whose report names the request — the whole
    // point: a full trace of a slow request with --trace off.
    assert_eq!(server.flight().spooled(), 1);
    let spooled = std::fs::read_to_string(dir.join("slow-1.jsonl")).unwrap();
    assert_eq!(spooled, trace, "ring and spool carry the same bytes");
    let records = jsonl::parse_records(&spooled).unwrap();
    assert!(records.len() > 1, "a real span tree, not just the seal");
    let rendered = report::render(&records);
    assert!(
        rendered.contains("serve requests: 1"),
        "trace-report summarizes it:\n{rendered}"
    );
    assert!(rendered.contains("ok"), "outcome visible:\n{rendered}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flight_ring_survives_requests_that_are_not_sampled() {
    let server = Server::new(ServerConfig {
        base: fast_options(),
        trace_sample: 2, // first sampled, second not
        ..ServerConfig::default()
    })
    .unwrap();
    server
        .handle_line(&compile_line("one", SOURCE, ""))
        .unwrap();
    server
        .handle_line(&compile_line("two", SOURCE, ""))
        .unwrap();
    let entries = server.flight().entries();
    assert_eq!(entries.len(), 2);
    assert!(entries[0].trace.is_some(), "request 1 sampled");
    assert!(entries[1].trace.is_none(), "request 2 not sampled");
    // Sampling never perturbs results: the unsampled warm hit replays
    // the sampled cold miss byte-for-byte (asserted via outcome here;
    // byte identity is pinned in tests/server.rs).
    assert_eq!(entries[0].outcome, "ok");
    assert_eq!(entries[1].outcome, "hit");
}
