//! Stochastic-engine bench: runs the MCMC chain on the simulator-
//! supported fixtures at the fixed default seed and records, per GMA,
//! the baseline and best verified cycle counts, the chain's proposal,
//! accept, restart, verification and widening counts, and the full
//! best-cost trajectory (proposal index, cycles). The chain is a pure function of
//! (machine, sketch, rules, seed), so the output is byte-deterministic
//! across runs — CI validates the committed `BENCH_stoke.json` against
//! a fresh run.
//!
//! The binary asserts the headline invariant itself: on at least one
//! fixture the chain strictly beats the greedy baseline (byteswap4:
//! 6 cycles vs 7 at the default seed).

use denali_bench::{default_denali, programs};

struct Config {
    out: String,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_stoke.json".to_owned(),
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

fn main() {
    let config = parse_args();
    let denali = default_denali();
    let fixtures = [
        ("figure2", programs::FIGURE2),
        ("byteswap4", programs::BYTESWAP4),
        ("byteswap5", programs::BYTESWAP5),
        ("dot4", programs::DOT4),
        ("wide", programs::WIDE),
        ("sel", programs::SEL),
    ];

    let mut json = String::from("{\"schema\":\"denali-stoke-bench-v2\",\"fixtures\":[");
    let mut improved_any = false;
    let mut first = true;
    println!(
        "{:<12} {:<20} {:>8} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "fixture",
        "gma",
        "baseline",
        "best",
        "proposals",
        "accepted",
        "verified",
        "widened",
        "improved"
    );
    for (name, source) in fixtures {
        let runs = denali.stoke_profile(source).expect("fixture profiles");
        assert!(!runs.is_empty(), "{name}: no simulator-supported GMA");
        for run in runs {
            println!(
                "{:<12} {:<20} {:>8} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9}",
                name,
                run.gma,
                run.baseline_cycles,
                run.best_cycles,
                run.proposals,
                run.accepted,
                run.verifications,
                run.widenings,
                run.improved,
            );
            assert!(
                run.best_cycles <= run.baseline_cycles,
                "{name}/{}: chain worse than its own starting point",
                run.gma
            );
            improved_any |= run.improved;
            if !first {
                json.push(',');
            }
            first = false;
            json.push_str(&format!(
                concat!(
                    "{{\"fixture\":\"{}\",\"gma\":\"{}\",",
                    "\"baseline_cycles\":{},\"best_cycles\":{},\"improved\":{},",
                    "\"proposals\":{},\"accepted\":{},\"restarts\":{},",
                    "\"verifications\":{},\"widenings\":{},\"trajectory\":["
                ),
                name,
                run.gma,
                run.baseline_cycles,
                run.best_cycles,
                run.improved,
                run.proposals,
                run.accepted,
                run.restarts,
                run.verifications,
                run.widenings,
            ));
            for (i, (proposal, cycles)) in run.trajectory.iter().enumerate() {
                if i > 0 {
                    json.push(',');
                }
                json.push_str(&format!("[{proposal},{cycles}]"));
            }
            json.push_str("]}");
        }
    }
    json.push_str("]}\n");

    assert!(
        improved_any,
        "the chain must beat the baseline on at least one fixture"
    );
    std::fs::write(&config.out, &json).expect("write report");
    println!("wrote {}", config.out);
}
