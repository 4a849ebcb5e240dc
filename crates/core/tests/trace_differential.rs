//! Tracing must *observe* the pipeline, never perturb it.
//!
//! Two contracts are pinned here:
//!
//! 1. **No perturbation** — the compiled program, cycle count,
//!    certificate, and probe log are byte-identical with tracing on and
//!    off, under both solver backends.
//! 2. **Determinism** — with tracing on, the record stream for a given
//!    input is identical across runs under both solver backends, modulo
//!    timestamps (compared via [`denali_trace::normalized`]).
//!
//! Every option that reads an environment variable in
//! `Options::default()` (engine, trace) is pinned explicitly, so these
//! tests mean the same thing on every CI leg.

use denali_core::{CompileResult, Denali, EngineChoice, Options, SolverChoice};
use denali_trace::{jsonl, normalized, Record};

const FIGURE2: &str = "(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))";
/// mulq latency 7 then an add: 8 cycles, which is also the lower bound,
/// so the search grows the live encoding eight cycles, probes 8 and
/// then refutes 7 for the certificate.
const MULTI_PROBE: &str = "(\\procdecl f ((a long)) long (:= (\\res (+ (* a a) 1))))";

fn pinned(solver: SolverChoice, trace: bool) -> Options {
    Options {
        engine: EngineChoice::Sat,
        solver,
        trace,
        ..Options::default()
    }
}

/// Everything user-visible about a compilation, as one string.
fn fingerprint(result: &CompileResult) -> String {
    let mut out = String::new();
    for g in &result.gmas {
        out.push_str(&format!(
            "{}: cycles={} refuted={}\n",
            g.gma.name, g.cycles, g.refuted_below
        ));
        out.push_str(&g.program.listing(4));
        for p in &g.probes {
            out.push_str(&format!(
                "k={} sat={} vars={} clauses={}\n",
                p.k, p.satisfiable, p.vars, p.clauses
            ));
        }
    }
    out
}

#[test]
fn tracing_on_off_is_byte_identical() {
    for solver in [SolverChoice::Cdcl, SolverChoice::Dpll] {
        let off = Denali::new(pinned(solver, false))
            .compile_source(MULTI_PROBE)
            .unwrap();
        let traced = Denali::new(pinned(solver, true));
        let on = traced.compile_source(MULTI_PROBE).unwrap();
        assert!(traced.tracer().is_enabled());
        assert!(
            !traced.tracer().records().is_empty(),
            "enabled tracer collected nothing"
        );
        assert_eq!(
            fingerprint(&off),
            fingerprint(&on),
            "tracing perturbed the result under {solver:?}"
        );
    }
}

#[test]
fn trace_is_identical_across_runs() {
    for solver in [SolverChoice::Cdcl, SolverChoice::Dpll] {
        let run = || -> Vec<Record> {
            let denali = Denali::new(pinned(solver, true));
            denali.compile_source(MULTI_PROBE).unwrap();
            normalized(&denali.tracer().records())
        };
        assert_eq!(run(), run(), "same input, different trace under {solver:?}");
    }
}

#[test]
fn figure2_trace_matches_schema_golden() {
    let denali = Denali::new(pinned(SolverChoice::Cdcl, true));
    denali.compile_source(FIGURE2).unwrap();
    let records = normalized(&denali.tracer().records());
    // The span/event vocabulary documented in docs/TRACING.md.
    for name in [
        "gma",
        "match",
        "match.goals",
        "saturate.phase",
        "saturate.round",
        "egraph.stats",
        "ematch.chunk",
        "ematch.axiom",
        "enumerate",
        "search",
        "search.ascent",
        "search.decode",
        "probe",
        "encode",
        "solve",
    ] {
        assert!(
            records.iter().any(|r| r.name() == Some(name)),
            "trace is missing a {name} record"
        );
    }
    // Probes are live spans: no retrospective records, no events that
    // repeat a span's fields.
    for r in &records {
        assert!(!matches!(r, Record::Complete { .. }), "{r:?}");
        assert!(
            !matches!(r.name(), Some("sat.probe" | "encode.grow")),
            "{r:?}"
        );
    }

    let text = jsonl::to_string(&[], &records);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figure2_trace.jsonl");
    if std::env::var_os("DENALI_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with DENALI_REGEN_GOLDEN=1");
    assert_eq!(
        text, golden,
        "normalized figure2 trace drifted from the golden schema; \
         if the change is intentional, regenerate with DENALI_REGEN_GOLDEN=1 \
         and update docs/TRACING.md"
    );
}
