//! End-to-end server behavior: the response-level guarantees. Each
//! test drives [`Server::handle_line`] (or [`serve_lines`] where
//! admission matters, and [`serve_listener`] where concurrent requests
//! each need a worker) with real request lines and asserts on the exact
//! response bytes.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier, Mutex};

use denali_axioms::SaturationLimits;
use denali_core::Options;
use denali_serve::pool::Pool;
use denali_serve::server::{serve_lines, serve_listener};
use denali_serve::{Server, ServerConfig};
use denali_trace::json::{self, Json};

/// A source cheap enough to compile in milliseconds.
const SOURCE: &str = r"(\procdecl f ((reg6 long)) long (:= (\res (+ (* reg6 4) 1))))";

/// A second distinct source (different fingerprint).
const SOURCE2: &str = r"(\procdecl g ((a long) (b long)) long (:= (\res (& (<< a 2) b))))";

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

fn test_server() -> Server {
    Server::new(ServerConfig {
        base: fast_options(),
        ..ServerConfig::default()
    })
    .unwrap()
}

fn compile_line(id: &str, source: &str, extra: &str) -> String {
    let mut src = String::new();
    json::write_str(&mut src, source);
    format!(r#"{{"type":"compile","id":"{id}","source":{src}{extra}}}"#)
}

#[test]
fn warm_hit_is_byte_identical_to_cold_miss() {
    let server = test_server();
    let line = compile_line("r", SOURCE, "");
    let cold = server.handle_line(&line).unwrap();
    let warm = server.handle_line(&line).unwrap();
    assert_eq!(cold, warm, "cache hit must replay the cold bytes");
    let snap = server.cache().snapshot();
    assert_eq!((snap.hits, snap.misses), (1, 1));

    // And the response is a real result.
    let v = json::parse(&cold).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(false));
    let gmas = v.get("gmas").and_then(Json::as_arr).unwrap();
    assert!(!gmas.is_empty());
    assert!(gmas[0].get("listing").and_then(Json::as_str).is_some());
}

#[test]
fn execution_knobs_share_a_cache_entry() {
    // trace / verbose do not affect results (the pipeline's
    // determinism contract), so they are not part of the fingerprint:
    // requests differing only there must share one cache entry.
    let server = test_server();
    let cold = server
        .handle_line(&compile_line("a", SOURCE, r#","options":{"trace":false}"#))
        .unwrap();
    let warm = server
        .handle_line(&compile_line(
            "a",
            SOURCE,
            r#","options":{"trace":true,"verbose":true}"#,
        ))
        .unwrap();
    assert_eq!(cold, warm);
    assert_eq!(server.cache().snapshot().hits, 1);

    // An output-affecting knob must NOT share the entry.
    let other = server
        .handle_line(&compile_line("a", SOURCE, r#","options":{"max_cycles":7}"#))
        .unwrap();
    let (a, b) = (json::parse(&warm).unwrap(), json::parse(&other).unwrap());
    assert_ne!(
        a.get("fingerprint").and_then(Json::as_str),
        b.get("fingerprint").and_then(Json::as_str)
    );
    assert_eq!(server.cache().snapshot().misses, 2);
}

#[test]
fn malformed_input_errors_and_the_server_keeps_serving() {
    let server = test_server();
    for bad in [
        "not json at all",
        "[1,2,3]",
        r#"{"type":"compile"}"#,
        r#"{"type":"compile","source":"x","surce":"y"}"#,
        &format!("{}{}", "[".repeat(100_000), "1"), // deep-nesting DoS
        r#"{"type":"compile","source":"(((((((((("}"#,
    ] {
        let resp = server.handle_line(bad).unwrap();
        let v = json::parse(&resp).unwrap();
        let status = v.get("status").and_then(Json::as_str);
        assert_eq!(status, Some("error"), "for input {bad:.40}");
    }
    // Still alive and correct afterwards.
    let ok = server
        .handle_line(&compile_line("after", SOURCE, ""))
        .unwrap();
    let v = json::parse(&ok).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
}

#[test]
fn a_request_may_lower_the_cycle_ceiling_but_not_raise_it() {
    // The search's formula grows with every budget the ladder reaches,
    // so the server's own ceiling (48 by default) bounds every request.
    let server = Server::new(ServerConfig::default()).unwrap();
    let resp = server
        .handle_line(&compile_line(
            "over",
            SOURCE,
            r#","options":{"max_cycles":49}"#,
        ))
        .unwrap();
    let v = json::parse(&resp).unwrap();
    assert_eq!(
        v.get("status").and_then(Json::as_str),
        Some("error"),
        "{resp}"
    );
    let error = v.get("error").unwrap();
    assert_eq!(error.get("stage").and_then(Json::as_str), Some("protocol"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("max_cycles"), "message: {message}");

    // Still serving, and the ceiling itself compiles.
    for k in [48, 8] {
        let ok = server
            .handle_line(&compile_line(
                "at",
                SOURCE,
                &format!(r#","options":{{"max_cycles":{k}}}"#),
            ))
            .unwrap();
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{ok}");
    }
}

#[test]
fn expired_deadline_degrades_to_a_valid_baseline_program() {
    let server = test_server();
    // deadline_ms 0 expires before the search can start.
    let resp = server
        .handle_line(&compile_line("d", SOURCE, r#","deadline_ms":0"#))
        .unwrap();
    let v = json::parse(&resp).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true));
    let gmas = v.get("gmas").and_then(Json::as_arr).unwrap();
    assert_eq!(gmas.len(), 1);
    let gma = &gmas[0];
    // The baseline claims no optimality certificate but is a real
    // scheduled program.
    assert_eq!(
        gma.get("refuted_below").and_then(Json::as_bool),
        Some(false)
    );
    assert!(gma.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    let listing = gma.get("listing").and_then(Json::as_str).unwrap();
    assert!(listing.contains("res"), "listing:\n{listing}");

    // Degraded results are never cached: the next, unhurried request
    // must compile for real (a miss, then a non-degraded answer).
    assert_eq!(server.cache().snapshot().entries, 0);
    let full = server.handle_line(&compile_line("d", SOURCE, "")).unwrap();
    let v = json::parse(&full).unwrap();
    assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(false));
    // Same fingerprint both times: degradation is per-request, the
    // program identity is not.
    assert_eq!(
        v.get("fingerprint").and_then(Json::as_str),
        json::parse(&resp)
            .unwrap()
            .get("fingerprint")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .as_deref()
    );
}

#[test]
fn expired_deadline_under_auto_engine_harvests_the_stochastic_best() {
    // The anytime channel end to end: byteswap4 under the DPLL solver
    // takes minutes to search, but matching plus the auto-engine's
    // stochastic prepass finish in a couple of seconds and publish a
    // verified 6-cycle candidate (the greedy baseline needs 7). A
    // deadline that expires mid-search must therefore harvest the
    // chain's best instead of degrading to the baseline. Two distinct
    // fixtures arrive at once over TCP, one per worker, so neither
    // queues: each deadline must be harvested on its own.
    let source = |i: usize| {
        format!(
            r"
(\procdecl byteswap4_{i} ((a long)) long
  (\var (r long 0)
    (\semi
      (:= ((\selectb r 0) (\selectb a 3)))
      (:= ((\selectb r 1) (\selectb a 2)))
      (:= ((\selectb r 2) (\selectb a 1)))
      (:= ((\selectb r 3) (\selectb a 0)))
      (:= (\res r)))))"
        )
    };
    let server = Arc::new(
        Server::new(ServerConfig {
            workers: 2,
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
    let release = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|i| {
            let line = compile_line(
                &format!("h{i}"),
                &source(i),
                r#","deadline_ms":8000,"options":{"solver":"dpll","engine":"auto"}"#,
            );
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).unwrap();
                release.wait();
                sock.write_all(format!("{line}\n").as_bytes()).unwrap();
                let mut response = String::new();
                BufReader::new(sock).read_line(&mut response).unwrap();
                response
            })
        })
        .collect();
    for client in clients {
        let resp = client.join().unwrap();
        let v = json::parse(resp.trim_end()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{resp}");
        // Harvested answers are real verified programs, not degraded
        // baselines — and the body says which engine produced them.
        assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("engine").and_then(Json::as_str), Some("stochastic"));
        let gmas = v.get("gmas").and_then(Json::as_arr).unwrap();
        assert_eq!(gmas.len(), 1);
        let gma = &gmas[0];
        // No optimality certificate — the chain cannot refute anything.
        assert_eq!(
            gma.get("refuted_below").and_then(Json::as_bool),
            Some(false)
        );
        // Strictly cheaper than the 7-cycle greedy baseline (the fixed
        // default seed finds 6; anything below 7 proves a real harvest).
        let cycles = gma.get("cycles").and_then(Json::as_u64).unwrap();
        assert!(cycles < 7, "harvest beat the baseline, got {cycles}");
    }

    // The stats surface records both harvests, and counts them as ok.
    let stats = server.handle_line(r#"{"type":"stats","id":1}"#).unwrap();
    let sv = json::parse(&stats).unwrap();
    let stoke = sv.get("stoke").expect("v3 stats carry a stoke section");
    assert_eq!(
        stoke.get("harvests").and_then(Json::as_u64),
        Some(2),
        "{stats}"
    );
    assert_eq!(stoke.get("compiles").and_then(Json::as_u64), Some(2));
    assert_eq!(
        sv.get("compiles")
            .and_then(|c| c.get("ok"))
            .and_then(Json::as_u64),
        Some(2)
    );
    // Distinct fixtures neither coalesce nor hit the cache.
    assert_eq!(sv.get("executions").and_then(Json::as_u64), Some(2));

    // Harvested bodies are never cached: the chain's answer carries no
    // optimality ladder, so an unhurried request must compile afresh.
    assert_eq!(server.cache().snapshot().entries, 0);
}

#[test]
fn class_budget_exhaustion_is_a_clean_match_error_not_a_panic() {
    // A class budget smaller than the goal terms themselves (2), or one
    // that runs out while the pow2 step adds `pow(2, 2)` beside the
    // constant 4 (5), must come back as a structured "match"-stage
    // error — not a worker panic masquerading as an internal error.
    for max_classes in [2, 5] {
        let mut base = fast_options();
        base.saturation.max_classes = max_classes;
        let server = Server::new(ServerConfig {
            base,
            ..ServerConfig::default()
        })
        .unwrap();
        let resp = server
            .handle_line(&compile_line("tiny", SOURCE, ""))
            .unwrap();
        let v = json::parse(&resp).unwrap();
        assert_eq!(
            v.get("status").and_then(Json::as_str),
            Some("error"),
            "max_classes {max_classes}: {resp}"
        );
        let error = v.get("error").unwrap();
        assert_eq!(error.get("stage").and_then(Json::as_str), Some("match"));
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("class budget"), "message: {message}");

        // The worker survived and panicked zero times.
        let stats = server.handle_line(r#"{"type":"stats","id":1}"#).unwrap();
        let v = json::parse(&stats).unwrap();
        assert_eq!(v.get("worker_panics").and_then(Json::as_u64), Some(0));
        assert_eq!(
            v.get("compiles")
                .and_then(|c| c.get("error"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}

#[test]
fn disk_tier_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("denali-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        base: fast_options(),
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let line = compile_line("x", SOURCE2, "");
    let cold = {
        let server = Server::new(config.clone()).unwrap();
        server.handle_line(&line).unwrap()
    };
    // "Restart": a fresh server over the same cache directory.
    let server = Server::new(config).unwrap();
    let warm = server.handle_line(&line).unwrap();
    assert_eq!(cold, warm, "disk tier must replay across restarts");
    let snap = server.cache().snapshot();
    assert_eq!((snap.hits, snap.disk_hits), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_with_a_retryable_error() {
    let server = Arc::new(test_server());
    // One worker, one queue slot — and both are occupied by jobs that
    // block until we release the gate, so the compile below must shed.
    let pool = Pool::new(1, 1);
    let gate = Arc::new(Mutex::new(()));
    let hold = gate.lock().unwrap();
    let g = Arc::clone(&gate);
    pool.try_submit(move || drop(g.lock().unwrap())).unwrap();
    // Wait until the worker has dequeued the blocker before filling
    // the single queue slot.
    while pool.depth() > 0 {
        std::thread::yield_now();
    }
    let g = Arc::clone(&gate);
    pool.try_submit(move || drop(g.lock().unwrap())).unwrap();

    let out = Arc::new(Mutex::new(Vec::<u8>::new()));
    let line = compile_line("shed", SOURCE, "");
    serve_lines(&server, &pool, line.as_bytes(), &out).unwrap();
    drop(hold);
    drop(pool);

    let written = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    let v = json::parse(written.trim()).unwrap();
    assert_eq!(v.get("id").and_then(Json::as_str), Some("shed"));
    assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
    let error = v.get("error").unwrap();
    assert_eq!(error.get("stage").and_then(Json::as_str), Some("overload"));
    assert_eq!(error.get("retryable").and_then(Json::as_bool), Some(true));
}

#[test]
fn ping_stats_and_eof_shutdown_over_a_transport() {
    let server = Arc::new(test_server());
    let pool = Pool::new(1, 8);
    let out = Arc::new(Mutex::new(Vec::<u8>::new()));
    let input = format!(
        "{}\n\n{}\n{}\n",
        r#"{"type":"ping","id":1}"#,
        compile_line("c", SOURCE, ""),
        r#"{"type":"stats","id":2}"#
    );
    // serve_lines returns at EOF; dropping the pool drains the compile.
    serve_lines(&server, &pool, input.as_bytes(), &out).unwrap();
    drop(pool);

    let written = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = written.lines().collect();
    assert_eq!(lines.len(), 3, "blank line elicits no response:\n{written}");
    // The ping is answered on the reader thread before the compile is
    // even dispatched, so it is deterministically first. The stats
    // response (also reader-thread) and the pooled compile response may
    // interleave — the protocol says correlate by id, so the test does.
    let pong = json::parse(lines[0]).unwrap();
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    assert_eq!(pong.get("id").and_then(Json::as_u64), Some(1));
    let rest: Vec<Json> = lines[1..].iter().map(|l| json::parse(l).unwrap()).collect();
    let stats = rest
        .iter()
        .find(|v| v.get("id").and_then(Json::as_u64) == Some(2))
        .expect("stats response");
    // All three requests were counted on the reader thread before the
    // stats body was rendered (the stats line came last).
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(3));
    assert!(stats.get("uptime_ms").and_then(Json::as_u64).is_some());
    let compile = rest
        .iter()
        .find(|v| v.get("id").and_then(Json::as_str) == Some("c"))
        .expect("compile response");
    assert_eq!(compile.get("status").and_then(Json::as_str), Some("ok"));
}

/// A transport that records every `write` call it receives.
struct RecordingWriter(Arc<Mutex<Vec<Vec<u8>>>>);

impl std::io::Write for RecordingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn each_response_line_is_one_write() {
    // A line and its newline in two writes make a TCP client wait for
    // its delayed ACK before the newline arrives.
    let server = Arc::new(test_server());
    let pool = Pool::new(1, 8);
    let writes = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::new(Mutex::new(RecordingWriter(Arc::clone(&writes))));
    let input = format!(
        "{}\n{}\nnot json\n{}\n",
        r#"{"type":"ping","id":1}"#,
        r#"{"type":"stats","id":2}"#,
        compile_line("c", SOURCE, ""),
    );
    serve_lines(&server, &pool, input.as_bytes(), &out).unwrap();
    drop(pool);

    let writes = writes.lock().unwrap();
    let sizes: Vec<usize> = writes.iter().map(Vec::len).collect();
    assert_eq!(
        writes.len(),
        4,
        "one write per response, got sizes {sizes:?}"
    );
    for write in writes.iter() {
        let text = std::str::from_utf8(write).unwrap();
        assert!(text.ends_with('\n'), "{text:?}");
        assert_eq!(text.matches('\n').count(), 1, "{text:?}");
        json::parse(text.trim_end()).unwrap();
    }
}
