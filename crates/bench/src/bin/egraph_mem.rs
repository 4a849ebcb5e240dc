//! E2m: memory footprint of the e-graph's arena/SoA storage.
//!
//! Compiles the largest GMA fixtures and records, per fixture, the
//! saturated e-graph's nodes, classes, payload bytes and child-slice
//! sharing, plus the matching-phase wall time. It writes
//! `BENCH_egraph.json`, whose every column but the wall time CI diffs
//! against the committed file; `report e2m` prints the same numbers as
//! a table.

use std::time::Instant;

use denali_axioms::{math_axioms, saturate, SaturationLimits};
use denali_bench::{default_denali, programs};
use denali_egraph::{EGraph, MemoryStats};
use denali_term::{sexpr, Term};

struct Config {
    out: String,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_egraph.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => config.out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument: {other} (supported: --out <path>)"),
        }
    }
    config
}

struct Leg {
    name: &'static str,
    mem: MemoryStats,
    wall_ms: f64,
}

/// Compile a fixture and aggregate the saturated e-graph stats over
/// its GMAs (multi-GMA fixtures like checksum sum their graphs).
fn compile_leg(name: &'static str, source: &str) -> Leg {
    let denali = default_denali();
    let result = denali.compile_source(source).expect("fixture compiles");
    let mut mem = MemoryStats::default();
    let mut wall_ms = 0.0;
    for gma in &result.gmas {
        let m = gma.egraph_memory;
        mem.nodes += m.nodes;
        mem.classes += m.classes;
        mem.arena_bytes += m.arena_bytes;
        mem.slice_bytes += m.slice_bytes;
        mem.slice_entries += m.slice_entries;
        mem.slice_refs += m.slice_refs;
        mem.class_bytes += m.class_bytes;
        mem.memo_bytes += m.memo_bytes;
        mem.total_bytes += m.total_bytes;
        wall_ms += gma.match_ms;
    }
    Leg { name, mem, wall_ms }
}

/// The e2 saturation workhorse (a+b+c+d+e under the math axioms),
/// measured directly at the e-graph level: the wall time here is
/// comparable to `report e2s` and pins "saturation no slower".
fn chain_leg() -> Leg {
    let term = Term::from_sexpr(
        &sexpr::parse_one("(add64 a (add64 b (add64 c (add64 d e))))").unwrap(),
        &[],
    )
    .unwrap();
    let limits = SaturationLimits {
        max_iterations: 24,
        ..SaturationLimits::default()
    };
    let mut eg = EGraph::new();
    eg.add_term(&term).unwrap();
    let t = Instant::now();
    saturate(&mut eg, &math_axioms(), &limits).unwrap();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    Leg {
        name: "e2_chain",
        mem: eg.memory_stats(),
        wall_ms,
    }
}

fn push_leg(json: &mut String, leg: &Leg) {
    let m = &leg.mem;
    json.push_str(&format!(
        concat!(
            "{{\"name\":\"{}\",\"nodes\":{},\"classes\":{},",
            "\"total_bytes\":{},\"bytes_per_node\":{:.1},\"dedup_ratio\":{:.2},",
            "\"slice_entries\":{},\"slice_refs\":{},\"wall_ms\":{:.3}}}"
        ),
        leg.name,
        m.nodes,
        m.classes,
        m.total_bytes,
        m.bytes_per_node(),
        m.dedup_ratio(),
        m.slice_entries,
        m.slice_refs,
        leg.wall_ms,
    ));
}

fn main() {
    let config = parse_args();
    let legs = vec![
        chain_leg(),
        compile_leg("figure2", programs::FIGURE2),
        compile_leg("byteswap4", programs::BYTESWAP4),
        compile_leg("byteswap5", programs::BYTESWAP5),
        compile_leg("checksum", programs::CHECKSUM),
    ];

    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>8} {:>9}",
        "leg", "nodes", "classes", "bytes/node", "dedup", "wall ms"
    );
    for leg in &legs {
        let m = &leg.mem;
        println!(
            "{:<10} {:>8} {:>8} {:>12.1} {:>7.2}x {:>9.3}",
            leg.name,
            m.nodes,
            m.classes,
            m.bytes_per_node(),
            m.dedup_ratio(),
            leg.wall_ms,
        );
    }

    let mut json = String::from("{\"schema\":\"denali-egraph-mem-v3\",\"legs\":[");
    for (i, leg) in legs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        push_leg(&mut json, leg);
    }
    json.push_str("]}\n");
    std::fs::write(&config.out, &json).expect("write report");
    println!("wrote {}", config.out);
}
