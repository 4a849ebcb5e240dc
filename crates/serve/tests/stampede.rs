//! Stampede regression tests: the single-flight guarantees under
//! concurrent identical requests.
//!
//! The deterministic tests pin the leader/follower mechanics exactly
//! (a gate job occupies the pool's only worker, so the leader is
//! provably still in flight while every follower joins); the TCP test
//! then hammers the real transport with 64 concurrent sockets and
//! asserts the invariant that holds *regardless* of timing: exactly
//! one pipeline execution, every response byte-identical.

use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use denali_axioms::SaturationLimits;
use denali_core::Options;
use denali_serve::coalesce::{Coalescer, Delivery, Join, Wait};
use denali_serve::pool::Pool;
use denali_serve::server::{serve_lines, serve_listener};
use denali_serve::{Server, ServerConfig};
use denali_trace::json::{self, Json};
use denali_trace::Value;

/// A source cheap enough to compile in milliseconds.
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

fn test_server(trace: bool) -> Arc<Server> {
    let mut base = fast_options();
    base.trace = trace;
    Arc::new(
        Server::new(ServerConfig {
            base,
            ..ServerConfig::default()
        })
        .unwrap(),
    )
}

fn compile_line(id: &str, extra: &str) -> String {
    let mut src = String::new();
    json::write_str(&mut src, SOURCE);
    format!(r#"{{"type":"compile","id":"{id}","source":{src}{extra}}}"#)
}

fn stats(server: &Server) -> Json {
    let line = server.handle_line(r#"{"type":"stats","id":0}"#).unwrap();
    json::parse(&line).unwrap()
}

fn stat(v: &Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("no {path:?}: {v:?}"));
    }
    cur.as_u64().unwrap()
}

/// Polls until `cond` holds (10s cap), for conditions that become true
/// on other threads.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// 64 identical requests while the pool's only worker is provably busy:
/// one leader (queued), 63 followers — one execution, 64 byte-identical
/// bodies, and the stats/trace record all of it.
#[test]
fn sixty_four_identical_requests_execute_the_pipeline_once() {
    let server = test_server(true);
    let pool = Pool::new(1, 8);

    // Occupy the single worker so the leader cannot finish before the
    // followers join — the stampede is deterministic, not a race the
    // test usually wins.
    let gate = Arc::new(Mutex::new(()));
    let hold = gate.lock().unwrap();
    let g = Arc::clone(&gate);
    pool.try_submit(move || drop(g.lock().unwrap())).unwrap();
    while pool.depth() > 0 {
        std::thread::yield_now();
    }

    let input: String = (0..64)
        .map(|i| compile_line(&format!("s{i:02}"), "") + "\n")
        .collect();
    let out = Arc::new(Mutex::new(Vec::<u8>::new()));
    serve_lines(&server, &pool, input.as_bytes(), &out).unwrap();

    // All 64 are now in flight: 1 leader in the queue, 63 followers
    // waiting on it, zero queue slots consumed by followers.
    assert_eq!(pool.depth(), 1, "followers must not consume queue slots");
    let s = stats(&server);
    assert_eq!(stat(&s, &["coalesce", "waiting"]), 63);

    drop(hold); // release the gate: the leader compiles once
    drop(pool); // join the worker
    server.drain_followers(); // every follower response is flushed

    let written = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    let mut lines: Vec<&str> = written.lines().collect();
    lines.sort_unstable(); // ids are fixed-width, so this orders by id
    assert_eq!(lines.len(), 64, "every request is answered");
    // Byte-identical bodies: strip the (fixed-width) id prefix.
    let prefix_len = r#"{"v":1,"id":"s00","#.len();
    let leader_body = &lines[0][prefix_len..];
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!(r#"{{"v":1,"id":"s{i:02}","#)));
        assert_eq!(
            &line[prefix_len..],
            leader_body,
            "follower bodies replay the leader's bytes"
        );
    }
    let v = json::parse(lines[0]).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(false));

    // The counters tell the same story: one execution, one cache miss
    // (the leader's), 63 coalesced replays.
    let s = stats(&server);
    assert_eq!(stat(&s, &["executions"]), 1, "exactly one pipeline run");
    assert_eq!(stat(&s, &["coalesce", "coalesced"]), 63);
    assert_eq!(stat(&s, &["coalesce", "expired"]), 0);
    assert_eq!(stat(&s, &["coalesce", "promotions"]), 0);
    assert_eq!(stat(&s, &["compiles", "ok"]), 64);
    assert_eq!(stat(&s, &["cache", "misses"]), 1);
    assert_eq!(stat(&s, &["cache", "hits"]), 0);
    assert_eq!(stat(&s, &["coalesce", "waiting"]), 0);

    // And so do the serve.request trace spans: 64 of them, 63 tagged
    // coalesced.
    let spans: Vec<_> = server
        .tracer()
        .records()
        .into_iter()
        .filter(|r| r.name() == Some("serve.request"))
        .collect();
    assert_eq!(spans.len(), 64);
    let coalesced = spans
        .iter()
        .filter(|r| r.get("coalesced") == Some(&Value::Bool(true)))
        .count();
    assert_eq!(coalesced, 63);

    // A later identical request is a plain cache hit, byte-identical to
    // the leader's response (modulo id).
    let warm = server.handle_line(&compile_line("s00", "")).unwrap();
    assert_eq!(&warm[prefix_len..], leader_body);
}

/// A follower whose own deadline expires before the leader finishes
/// gets its own degraded answer at its deadline — it does not wait for
/// a leader that might beat *its* deadline but not the follower's.
#[test]
fn follower_deadline_expires_independently_of_its_leader() {
    let server = test_server(false);
    let pool = Pool::new(1, 8);

    let gate = Arc::new(Mutex::new(()));
    let hold = gate.lock().unwrap();
    let g = Arc::clone(&gate);
    pool.try_submit(move || drop(g.lock().unwrap())).unwrap();
    while pool.depth() > 0 {
        std::thread::yield_now();
    }

    // The leader has no deadline; the follower's is 30ms. While the
    // gate blocks the leader, the follower must degrade on schedule.
    let input = format!(
        "{}\n{}\n",
        compile_line("leader", ""),
        compile_line("follower", r#","deadline_ms":30"#)
    );
    let out = Arc::new(Mutex::new(Vec::<u8>::new()));
    serve_lines(&server, &pool, input.as_bytes(), &out).unwrap();

    // The follower answers (degraded) while the leader is still gated.
    eventually("follower's degraded response", || {
        !out.lock().unwrap().is_empty()
    });
    {
        let written = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let first = json::parse(written.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("id").and_then(Json::as_str),
            Some("follower"),
            "the gated leader cannot have answered yet"
        );
        assert_eq!(first.get("degraded").and_then(Json::as_bool), Some(true));
    }

    drop(hold);
    drop(pool);
    server.drain_followers();

    let written = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    let by_id = |id: &str| {
        written
            .lines()
            .map(|l| json::parse(l).unwrap())
            .find(|v| v.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}:\n{written}"))
    };
    // The leader still delivers the full (non-degraded) result.
    let leader = by_id("leader");
    assert_eq!(leader.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(leader.get("degraded").and_then(Json::as_bool), Some(false));
    // Same program identity on both answers.
    assert_eq!(
        leader.get("fingerprint").and_then(Json::as_str),
        by_id("follower").get("fingerprint").and_then(Json::as_str)
    );

    let s = stats(&server);
    assert_eq!(stat(&s, &["executions"]), 1);
    assert_eq!(stat(&s, &["coalesce", "expired"]), 1);
    assert_eq!(stat(&s, &["compiles", "degraded"]), 1);
    assert_eq!(stat(&s, &["compiles", "ok"]), 1);
}

/// A leader that panics mid-pipeline unwinds its guard inside the pool
/// worker (which survives via `catch_unwind`); one waiting follower is
/// promoted to re-execute, and other followers receive the promoted
/// leader's delivery.
#[test]
fn panicking_leader_promotes_a_follower_that_answers_the_rest() {
    let coalescer = Arc::new(Coalescer::new(&denali_metrics::Registry::new()));
    let pool = Pool::new(1, 4);

    let Join::Leader(guard) = coalescer.join("deadbeef") else {
        panic!("first join leads");
    };
    let followers: Vec<_> = (0..2)
        .map(|_| {
            let Join::Follower(f) = coalescer.join("deadbeef") else {
                panic!("duplicate joins follow");
            };
            f
        })
        .collect();
    let (tx, rx) = channel::<String>();
    let waiters: Vec<_> = followers
        .into_iter()
        .map(|f| {
            let tx = tx.clone();
            std::thread::spawn(move || match f.wait(None) {
                Wait::Promoted(g) => {
                    // The promoted follower re-executes; here the
                    // "pipeline" is a canned success.
                    g.complete(Delivery {
                        outcome: "ok",
                        body: "recovered".to_owned(),
                    });
                    tx.send("promoted".to_owned()).unwrap();
                }
                Wait::Delivered(d) => tx.send(d.body).unwrap(),
                Wait::Expired => tx.send("expired".to_owned()).unwrap(),
            })
        })
        .collect();

    // The leader's job panics with the guard in hand — exactly what a
    // pipeline bug does on a worker thread. The worker survives, the
    // unwind orphans the flight, and promotion takes over.
    pool.try_submit(move || {
        let _guard = guard;
        panic!("injected pipeline bug");
    })
    .unwrap();

    let mut outcomes: Vec<String> = (0..2).map(|_| rx.recv().unwrap()).collect();
    outcomes.sort();
    assert_eq!(outcomes, ["promoted", "recovered"]);
    for w in waiters {
        w.join().unwrap();
    }
    // The guard drops mid-unwind, so followers can finish before the
    // worker's catch_unwind returns and bumps the counter.
    eventually("the panic to be counted", || pool.panics() == 1);

    // The flight is fully retired: a fresh join leads a fresh flight.
    assert!(matches!(coalescer.join("deadbeef"), Join::Leader(_)));
    assert_eq!(coalescer.snapshot().waiting, 0);

    // And the pool worker is still alive to run the next job.
    let (tx, rx) = channel();
    pool.try_submit(move || tx.send(42u8).unwrap()).unwrap();
    assert_eq!(rx.recv().unwrap(), 42);
}

/// The ISSUE's acceptance shape: 64 concurrent identical requests over
/// real TCP sockets. Timing decides how many coalesce versus hit the
/// cache behind a completed leader, but the invariant is exact: one
/// pipeline execution, 64 byte-identical bodies.
#[test]
fn tcp_stampede_executes_the_pipeline_exactly_once() {
    let server = test_server(false);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_listener(&server, &listener);
        });
    }

    let clients: Vec<_> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut sock = std::net::TcpStream::connect(addr).expect("connect");
                let line = compile_line(&format!("t{i:02}"), "");
                writeln!(sock, "{line}").unwrap();
                sock.flush().unwrap();
                let mut reader = BufReader::new(sock);
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                response.trim_end().to_owned()
            })
        })
        .collect();
    let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let prefix_len = r#"{"v":1,"id":"t00","#.len();
    let body = &responses[0][prefix_len..];
    for (i, response) in responses.iter().enumerate() {
        assert!(response.starts_with(&format!(r#"{{"v":1,"id":"t{i:02}","#)));
        assert_eq!(&response[prefix_len..], body, "byte-identical responses");
    }
    let v = json::parse(&responses[0]).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));

    let s = stats(&server);
    assert_eq!(
        stat(&s, &["executions"]),
        1,
        "one pipeline run regardless of socket timing"
    );
    // Every non-leader either coalesced onto the flight or hit the
    // cache the leader populated before completing it.
    assert_eq!(
        stat(&s, &["coalesce", "coalesced"]) + stat(&s, &["cache", "hits"]),
        63
    );
    assert_eq!(stat(&s, &["cache", "misses"]), 1);
    assert_eq!(stat(&s, &["compiles", "ok"]), 64);
}
