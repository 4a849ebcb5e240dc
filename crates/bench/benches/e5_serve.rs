//! E5s: the serving layer — a cold-cache miss (full pipeline), a warm
//! cache hit (replayed bytes), and a degraded-deadline fallback
//! (baseline rewriter), all through [`Server::handle_line`] — the same
//! code path the stdio/TCP transports use, minus the admission pool.

use denali_bench::harness::Criterion;
use denali_bench::programs;
use denali_serve::{Server, ServerConfig};
use denali_trace::json;
use std::hint::black_box;

fn compile_line(source: &str, extra: &str) -> String {
    let mut src = String::new();
    json::write_str(&mut src, source);
    format!(r#"{{"type":"compile","id":"bench","source":{src}{extra}}}"#)
}

fn bench(c: &mut Criterion) {
    let line = compile_line(programs::FIGURE2, "");

    // Cold: a fresh server (empty cache) per iteration pays the full
    // parse / lower / saturate / search pipeline.
    c.bench_function("e5s/cold", |b| {
        b.iter(|| {
            let server = Server::new(ServerConfig::default()).unwrap();
            black_box(server.handle_line(&line).unwrap())
        })
    });

    // Warm: one server, prewarmed once; every iteration replays the
    // cached response bytes.
    let server = Server::new(ServerConfig::default()).unwrap();
    let cold = server.handle_line(&line).unwrap();
    c.bench_function("e5s/warm", |b| {
        b.iter(|| black_box(server.handle_line(&line).unwrap()))
    });
    assert_eq!(
        cold,
        server.handle_line(&line).unwrap(),
        "warm hit must replay the cold bytes"
    );

    // Degraded: an already-expired deadline, on a separate server so
    // the warm cache cannot answer first. Degraded results are never
    // cached, so every iteration runs the baseline fallback.
    let fallback = Server::new(ServerConfig::default()).unwrap();
    let late = compile_line(programs::FIGURE2, r#","deadline_ms":0"#);
    c.bench_function("e5s/degraded", |b| {
        b.iter(|| black_box(fallback.handle_line(&late).unwrap()))
    });
}

fn main() {
    bench(&mut Criterion::new());
}
