//! Each SAT probe and saturation round is measured once, by its span,
//! and that one measurement reaches the trace and the process-wide
//! histograms even when the compile does not succeed: a probe cut by a
//! cancellation is still a closed `probe` span, the probes of an
//! exhausted search are observed, and so are the rounds of a
//! stochastic-engine compile.
//!
//! The cases share one `#[test]`, so no other compile in this binary
//! touches the process-wide histograms while they read them.

use std::time::Duration;

use denali_core::{CompileError, Denali, EngineChoice, Options, SolverChoice};
use denali_par::CancelToken;
use denali_trace::{Record, Value};

const BYTESWAP4: &str = include_str!("../../../pipeline_bench/src/corpus/byteswap4.dnl");
const FIGURE2: &str = "(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))";

fn options(engine: EngineChoice, solver: SolverChoice, max_cycles: u32) -> Options {
    Options {
        engine,
        solver,
        max_cycles,
        trace: true,
        ..Options::default()
    }
}

/// The `_count` sample of a histogram family in the global registry's
/// exposition (0 before the family is registered).
fn count(family: &str) -> u64 {
    let prefix = format!("{family}_count ");
    denali_metrics::global()
        .render()
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |n| n.trim().parse().expect("a whole count"))
}

/// A closed `probe` span: its begin/end fields and whether it has an
/// `encode` and a `solve` child.
struct Probe {
    fields: Vec<(String, Value)>,
    encode: bool,
    solve: bool,
}

impl Probe {
    fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Every `probe` span of the trace, in order.
fn probes(records: &[Record]) -> Vec<Probe> {
    let mut ids = Vec::new();
    let mut probes: Vec<Probe> = Vec::new();
    for r in records {
        match r {
            Record::Begin {
                id, name, fields, ..
            } if name == "probe" => {
                ids.push(*id);
                probes.push(Probe {
                    fields: fields.clone(),
                    encode: false,
                    solve: false,
                });
            }
            Record::Begin {
                parent: Some(parent),
                name,
                ..
            } => {
                if let Some(i) = ids.iter().position(|id| id == parent) {
                    match name.as_str() {
                        "encode" => probes[i].encode = true,
                        "solve" => probes[i].solve = true,
                        _ => {}
                    }
                }
            }
            Record::End { id, fields, .. } => {
                if let Some(i) = ids.iter().position(|p| p == id) {
                    probes[i].fields.extend(fields.iter().cloned());
                }
            }
            _ => {}
        }
    }
    probes
}

fn outcome(probe: &Probe) -> Option<&str> {
    match probe.get("outcome") {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

#[test]
fn failed_and_stochastic_compiles_keep_their_measurements() {
    // Cancelled: DPLL needs well over 40 s for byteswap4's first probe,
    // so a cancellation raised about 200 ms after that probe's `solve`
    // span opens lands inside the solve.
    let denali = Denali::new(options(EngineChoice::Sat, SolverChoice::Dpll, 48));
    let token = CancelToken::new();
    let tracer = denali.tracer().clone();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            let solving = |r: &Record| r.name() == Some("solve");
            for _ in 0..6000 {
                if tracer.records().iter().any(solving) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(200));
            token.cancel();
        })
    };
    let err = denali
        .with_cancel(token)
        .compile_source(BYTESWAP4)
        .expect_err("the compile was cancelled");
    canceller.join().unwrap();
    assert_eq!(err.stage, CompileError::CANCELLED, "{err}");
    let traced = probes(&denali.tracer().records());
    let last = traced.last().expect("the cut probe is traced");
    assert_eq!(outcome(last), Some("interrupted"));
    assert!(
        last.encode && last.solve,
        "the cut probe keeps both children"
    );

    // Exhausted: the lower bound 4 is refuted and the ceiling is 4.
    let solves = count("denali_core_probe_solve_us");
    let denali = Denali::new(options(EngineChoice::Sat, SolverChoice::Cdcl, 4));
    let err = denali
        .compile_source(BYTESWAP4)
        .expect_err("no schedule within 4 cycles");
    assert_eq!(err.stage, "search", "{err}");
    let traced = probes(&denali.tracer().records());
    assert!(
        traced
            .iter()
            .any(|p| p.get("k") == Some(&Value::U64(4)) && outcome(p) == Some("unsat")),
        "the refuted K=4 probe is traced"
    );
    assert!(
        count("denali_core_probe_solve_us") > solves,
        "the failed search's probes are observed"
    );

    // Stochastic: every saturation round is observed once.
    let rounds = count("denali_core_saturate_round_us");
    let result = Denali::new(options(EngineChoice::Stochastic, SolverChoice::Cdcl, 48))
        .compile_source(FIGURE2)
        .expect("the stochastic engine compiles figure 2");
    let matched: usize = result.gmas.iter().map(|g| g.matcher.rounds.len()).sum();
    assert!(matched > 0);
    assert_eq!(
        count("denali_core_saturate_round_us") - rounds,
        matched as u64
    );
}
