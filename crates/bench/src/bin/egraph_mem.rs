//! E2m: memory footprint of the e-graph's arena/SoA storage.
//!
//! Compiles the largest GMA fixtures and records, per fixture, the
//! saturated e-graph's nodes, classes, payload bytes, child-slice
//! sharing, class-table bytes and congruence-repair work (unions, parent
//! walks, entries walked), plus the matching-phase wall time. It writes
//! `BENCH_egraph.json`, whose every column but the wall time CI diffs
//! against the committed file; `report e2m` prints the same numbers as
//! a table.

use denali_bench::{egraph_legs, EgraphLeg};

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

fn push_leg(json: &mut String, leg: &EgraphLeg) {
    let (m, c) = (&leg.mem, &leg.counts);
    json.push_str(&format!(
        concat!(
            "{{\"name\":\"{}\",\"nodes\":{},\"classes\":{},",
            "\"total_bytes\":{},\"bytes_per_node\":{:.1},\"dedup_ratio\":{:.2},",
            "\"slice_entries\":{},\"slice_refs\":{},\"class_table_bytes\":{},",
            "\"unions\":{},\"walks\":{},\"walked_parents\":{},\"wall_ms\":{:.3}}}"
        ),
        leg.name,
        m.nodes,
        m.classes,
        m.total_bytes,
        m.bytes_per_node(),
        m.dedup_ratio(),
        m.slice_entries,
        m.slice_refs,
        m.class_table_bytes,
        c.unions,
        c.walks,
        c.walked_parents,
        leg.wall_ms,
    ));
}

fn main() {
    let config = parse_args();
    let legs = egraph_legs();

    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>8} {:>8} {:>7} {:>9} {:>9}",
        "leg", "nodes", "classes", "bytes/node", "dedup", "unions", "walks", "walked", "wall ms"
    );
    for leg in &legs {
        let (m, c) = (&leg.mem, &leg.counts);
        println!(
            "{:<10} {:>8} {:>8} {:>12.1} {:>7.2}x {:>8} {:>7} {:>9} {:>9.3}",
            leg.name,
            m.nodes,
            m.classes,
            m.bytes_per_node(),
            m.dedup_ratio(),
            c.unions,
            c.walks,
            c.walked_parents,
            leg.wall_ms,
        );
    }

    let mut json = String::from("{\"schema\":\"denali-egraph-mem-v4\",\"legs\":[");
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
