//! The search's one probe path: every probe of a search is answered by
//! one live `IncrementalEncoding`, and must have the outcome a fresh
//! CDCL solver gives on that budget's standalone `encode(k)` formula —
//! reuse may only change wall-clock and the size/reuse counters. The
//! solver choice must not change the program: CDCL and DPLL answer the
//! same probes and share one decode. The ladder starts at the proven
//! lower bound, which must never exceed the optimum, and must find what
//! a plain upward walk over fresh formulas finds. Also pins the
//! solver-identity invariant (one `Solver` for the whole search), the
//! typed budget exhaustion and the huge-`max_cycles` ascent regression.
//! The decode writes its formula straight into a solver, which must
//! take the steps a solver loaded from the formula's `Cnf` takes.

use denali_axioms::SaturationLimits;
use denali_core::encode::{encode, encode_into, true_launches, Rules};
use denali_core::extract::extract;
use denali_core::machine_terms::{enumerate_with_misses, Candidates};
use denali_core::matcher::{match_gma, Matched};
use denali_core::search::{search, SearchError, SearchOutcome, SearchParams};
use denali_core::{Denali, Options, SolverChoice};
use denali_lang::Gma;
use denali_par::CancelToken;
use denali_prng::{forall, Rng};
use denali_sat::{SolveResult, Solver};
use denali_term::Term;

const BYTESWAP4: &str = "
(\\procdecl byteswap4 ((a long)) long
  (\\var (r long 0)
    (\\semi
      (:= ((\\selectb r 0) (\\selectb a 3)))
      (:= ((\\selectb r 1) (\\selectb a 2)))
      (:= ((\\selectb r 2) (\\selectb a 1)))
      (:= ((\\selectb r 3) (\\selectb a 0)))
      (:= (\\res r)))))";

const FIGURE2: &str = "(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))";

const DOT4: &str = include_str!("../../../pipeline_bench/src/corpus/dot4.dnl");

/// The benchmark corpus, one program per file.
const CORPUS: &[(&str, &str)] = &[
    (
        "byteswap4",
        include_str!("../../../pipeline_bench/src/corpus/byteswap4.dnl"),
    ),
    (
        "byteswap5",
        include_str!("../../../pipeline_bench/src/corpus/byteswap5.dnl"),
    ),
    (
        "checksum",
        include_str!("../../../pipeline_bench/src/corpus/checksum.dnl"),
    ),
    ("dot4", DOT4),
    (
        "figure2",
        include_str!("../../../pipeline_bench/src/corpus/figure2.dnl"),
    ),
    (
        "lcp2",
        include_str!("../../../pipeline_bench/src/corpus/lcp2.dnl"),
    ),
    (
        "memcopy2_zero",
        include_str!("../../../pipeline_bench/src/corpus/memcopy2_zero.dnl"),
    ),
    (
        "memcopy5",
        include_str!("../../../pipeline_bench/src/corpus/memcopy5.dnl"),
    ),
    (
        "memcopy6",
        include_str!("../../../pipeline_bench/src/corpus/memcopy6.dnl"),
    ),
    (
        "memcopy7",
        include_str!("../../../pipeline_bench/src/corpus/memcopy7.dnl"),
    ),
    (
        "rowop",
        include_str!("../../../pipeline_bench/src/corpus/rowop.dnl"),
    ),
    (
        "rowop4",
        include_str!("../../../pipeline_bench/src/corpus/rowop4.dnl"),
    ),
    (
        "sel",
        include_str!("../../../pipeline_bench/src/corpus/sel.dnl"),
    ),
    (
        "wide",
        include_str!("../../../pipeline_bench/src/corpus/wide.dnl"),
    ),
];

fn options(solver: SolverChoice) -> Options {
    Options {
        solver,
        saturation: SaturationLimits {
            max_iterations: 6,
            max_nodes: 3_000,
            max_structural_per_round: 300,
            max_structural_growth: 800,
            ..SaturationLimits::default()
        },
        ..Options::default()
    }
}

/// One GMA's search inputs, matched and enumerated as the facade does.
struct SearchInputs {
    gma: Gma,
    matched: Matched,
    candidates: Candidates,
}

impl SearchInputs {
    fn search(&self, o: &Options, params: &SearchParams) -> Result<SearchOutcome, SearchError> {
        search(
            &self.gma,
            &self.matched,
            &self.candidates,
            &o.machine,
            &o.encode,
            params,
        )
    }

    fn rules<'a>(&'a self, o: &Options) -> Rules<'a> {
        Rules::new(&self.matched, &self.candidates, &o.machine, &o.encode)
    }
}

/// The search inputs of every GMA of `source` under `o`.
fn search_inputs(o: &Options, source: &str) -> Vec<SearchInputs> {
    let prepared = Denali::new(o.clone())
        .prepare_source(source)
        .expect("prepares");
    prepared
        .gmas
        .iter()
        .map(|gma| {
            let matched = match_gma(gma, &prepared.axioms, &o.saturation).expect("matches");
            let candidates = enumerate_with_misses(
                &matched,
                &o.machine,
                &gma.inputs(),
                o.load_latency,
                &gma.miss_addrs,
                o.miss_latency,
            )
            .expect("enumerates");
            SearchInputs {
                gma: gma.clone(),
                matched,
                candidates,
            }
        })
        .collect()
}

/// Runs the search for `source`'s first GMA and checks every probe
/// against a fresh CDCL solver on the standalone formula of its budget.
fn search_checked_against_fresh_solvers(source: &str) -> SearchOutcome {
    let o = options(SolverChoice::Cdcl);
    let inputs = &search_inputs(&o, source)[0];
    let outcome = inputs
        .search(&o, &SearchParams::default())
        .expect("search succeeds");
    let rules = inputs.rules(&o);
    for p in &outcome.probes {
        let mut fresh = encode(&rules, p.k).cnf.to_solver();
        let satisfiable = fresh.solve() == SolveResult::Sat;
        assert_eq!(p.satisfiable, satisfiable, "probe K={}", p.k);
    }
    outcome
}

/// Checks the lower bound against the search: it never exceeds the
/// optimum, the ladder starts there, and when it meets an optimum above
/// 1 the very next probe refutes the budget below.
fn check_bound(name: &str, o: &Options, inputs: &SearchInputs) {
    let bound = inputs.rules(o).lower_bound();
    let outcome = inputs
        .search(o, &SearchParams::default())
        .expect("search succeeds");
    if outcome.cycles == 0 {
        return; // the zero-launch identity path never probes
    }
    assert!(
        bound <= outcome.cycles,
        "{name}: bound {bound} above the optimum {}",
        outcome.cycles
    );
    assert_eq!(
        outcome.probes[0].k, bound,
        "{name}: the ladder starts at the bound"
    );
    if bound == outcome.cycles && bound > 1 {
        let log: Vec<(u32, bool)> = outcome
            .probes
            .iter()
            .map(|p| (p.k, p.satisfiable))
            .collect();
        assert_eq!(
            log,
            [(bound, true), (bound - 1, false)],
            "{name}: a satisfiable bound is followed by its refutation"
        );
    }
    assert!(outcome.refuted_below, "{name}: no certificate");
}

/// Checks the decode's two routes at the optimal budget: a solver
/// filled through `encode_into` and one loaded from `encode(..).cnf`
/// see the same launch map, take the same steps and find the same
/// model.
fn check_decode_routes(name: &str, o: &Options, inputs: &SearchInputs) {
    let outcome = inputs
        .search(o, &SearchParams::default())
        .expect("search succeeds");
    if outcome.cycles == 0 {
        return; // the zero-launch identity path never decodes a model
    }
    let rules = inputs.rules(o);
    let mut direct = Solver::new();
    let launches = encode_into(&rules, outcome.cycles, &mut direct);
    let encoding = encode(&rules, outcome.cycles);
    assert_eq!(launches, encoding.launches, "{name}: launch map");
    let mut loaded = encoding.cnf.to_solver();
    assert_eq!(direct.solve(), SolveResult::Sat, "{name}");
    assert_eq!(loaded.solve(), SolveResult::Sat, "{name}");
    assert_eq!(direct.stats(), loaded.stats(), "{name}: steps");
    assert_eq!(direct.model(), loaded.model(), "{name}: model");
}

/// The search's answer without the ladder: fresh `encode(k)` formulas
/// for k = 1, 2, ... until one is satisfiable, decoded the same way.
/// Returns the cycles, whether K-1 was refuted, and the listing.
fn reference_answer(o: &Options, inputs: &SearchInputs) -> (u32, bool, String) {
    let rules = inputs.rules(o);
    for k in 1..=SearchParams::default().max_cycles {
        let encoding = encode(&rules, k);
        let mut solver = encoding.cnf.to_solver();
        if solver.solve() == SolveResult::Sat {
            let launches = true_launches(&encoding.launches, solver.model().expect("model"));
            let program = extract(
                &inputs.gma,
                &inputs.matched,
                &inputs.candidates,
                &o.machine,
                k,
                &launches,
            )
            .expect("extracts");
            return (k, true, program.listing(4));
        }
    }
    panic!("no schedule within the default ceiling");
}

/// Everything the solver choice must not change: cycles, certificate,
/// listing, and the (budget, outcome) probe log. Formula sizes and
/// solver counters are deliberately excluded.
type Footprint = (u32, bool, String, Vec<(u32, bool)>);

fn footprint(source: &str, solver: SolverChoice) -> Footprint {
    let result = Denali::new(options(solver))
        .compile_source(source)
        .expect("pipeline succeeds");
    let compiled = &result.gmas[0];
    (
        compiled.cycles,
        compiled.refuted_below,
        compiled.program.listing(4),
        compiled
            .probes
            .iter()
            .map(|p| (p.k, p.satisfiable))
            .collect(),
    )
}

/// Random goal expressions over two inputs (the same shape as the
/// end-to-end property test, minus memory).
fn random_goal(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => Term::leaf("a"),
            1 => Term::leaf("b"),
            _ => Term::constant(rng.below(256)),
        };
    }
    let args = |rng: &mut Rng| vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)];
    match rng.below(8) {
        0 => Term::call("add64", args(rng)),
        1 => Term::call("sub64", args(rng)),
        2 => Term::call("and64", args(rng)),
        3 => Term::call("or64", args(rng)),
        4 => Term::call("xor64", args(rng)),
        5 => Term::call(
            "shl64",
            vec![random_goal(rng, depth - 1), Term::constant(rng.below(64))],
        ),
        6 => Term::call(
            "selectb",
            vec![random_goal(rng, depth - 1), Term::constant(rng.below(8))],
        ),
        _ => Term::call("cmpult", args(rng)),
    }
}

#[test]
fn incremental_probing_agrees_with_fresh_solvers() {
    forall("incremental_probing_agrees_with_fresh_solvers", 24, |rng| {
        let goal = random_goal(rng, 3);
        let source = format!("(procdecl f ((a long) (b long)) long (:= (res {goal})))");
        search_checked_against_fresh_solvers(&source);
    });
}

#[test]
fn incremental_probing_agrees_on_byteswap4() {
    // The deterministic workhorse: the bound (4) is refuted, then 5 is
    // satisfiable.
    let outcome = search_checked_against_fresh_solvers(BYTESWAP4);
    assert_eq!(outcome.cycles, 5, "byteswap4 is a 5-cycle program");
    assert!(outcome.probes.iter().any(|p| p.satisfiable));
    assert!(outcome.probes.iter().any(|p| !p.satisfiable));
}

#[test]
fn solver_choice_does_not_change_the_program() {
    // figure2's s4addq can issue on U0 or L0; both backends must print
    // the unit the canonical decode picks.
    let cdcl = footprint(FIGURE2, SolverChoice::Cdcl);
    assert_eq!(cdcl.0, 1);
    assert_eq!(cdcl, footprint(FIGURE2, SolverChoice::Dpll));
    forall("solver_choice_does_not_change_the_program", 24, |rng| {
        let goal = random_goal(rng, 3);
        let source = format!("(procdecl f ((a long) (b long)) long (:= (res {goal})))");
        let cdcl = footprint(&source, SolverChoice::Cdcl);
        let dpll = footprint(&source, SolverChoice::Dpll);
        assert_eq!(cdcl, dpll, "goal {goal}");
    });
}

#[test]
fn incremental_probes_share_one_solver() {
    // Every probe after the first must land on the same live solver:
    // the per-solver `solves` gauge counts straight up, and once the
    // solver has learned anything, later probes carry it over.
    // dot4 climbs past its bound and back down (9, 10, 12, 11).
    let result = Denali::new(options(SolverChoice::Cdcl))
        .compile_source(DOT4)
        .expect("pipeline succeeds");
    let compiled = &result.gmas[0];
    assert!(compiled.probes.len() >= 3, "dot4 needs several probes");
    let mut learned_so_far = 0;
    for (i, probe) in compiled.probes.iter().enumerate() {
        let stats = probe.solver.expect("CDCL probes carry solver stats");
        assert_eq!(
            stats.solves,
            (i + 1) as u64,
            "probe {i} ran on a different solver"
        );
        assert_eq!(
            stats.carried_learned, learned_so_far,
            "probe {i} should inherit exactly the clauses learned before it"
        );
        learned_so_far = stats.learned;
        // Cumulative live-solver sizes never shrink.
        assert_eq!(stats.vars as usize, probe.vars);
        if i > 0 {
            assert!(probe.vars >= compiled.probes[i - 1].vars);
            assert!(probe.clauses >= compiled.probes[i - 1].clauses);
        }
    }
    assert!(
        compiled.carried_clauses() > 0,
        "refuting 9 cycles must learn clauses that later probes reuse"
    );
}

#[test]
fn the_bound_never_exceeds_the_optimum() {
    forall("the_bound_never_exceeds_the_optimum", 24, |rng| {
        let goal = random_goal(rng, 3);
        let source = format!("(procdecl f ((a long) (b long)) long (:= (res {goal})))");
        let o = options(SolverChoice::Cdcl);
        for inputs in search_inputs(&o, &source) {
            check_bound(&format!("goal {goal}"), &o, &inputs);
        }
    });
    // Every corpus GMA, under the options the CLI uses.
    let o = Options::default();
    for &(name, source) in CORPUS {
        for inputs in search_inputs(&o, source) {
            check_bound(&format!("{name}/{}", inputs.gma.name), &o, &inputs);
        }
    }
}

#[test]
fn the_decode_routes_take_the_same_steps() {
    forall("the_decode_routes_take_the_same_steps", 24, |rng| {
        let goal = random_goal(rng, 3);
        let source = format!("(procdecl f ((a long) (b long)) long (:= (res {goal})))");
        let o = options(SolverChoice::Cdcl);
        for inputs in search_inputs(&o, &source) {
            check_decode_routes(&format!("goal {goal}"), &o, &inputs);
        }
    });
    // Every corpus GMA, under the options the CLI uses.
    let o = Options::default();
    for &(name, source) in CORPUS {
        for inputs in search_inputs(&o, source) {
            check_decode_routes(&format!("{name}/{}", inputs.gma.name), &o, &inputs);
        }
    }
}

#[test]
fn the_ladder_finds_what_an_upward_walk_finds() {
    forall("the_ladder_finds_what_an_upward_walk_finds", 24, |rng| {
        let goal = random_goal(rng, 2);
        let source = format!("(procdecl f ((a long) (b long)) long (:= (res {goal})))");
        let o = options(SolverChoice::Cdcl);
        for inputs in search_inputs(&o, &source) {
            let outcome = inputs
                .search(&o, &SearchParams::default())
                .expect("search succeeds");
            if outcome.cycles == 0 {
                continue; // the zero-launch identity path never probes
            }
            let got = (
                outcome.cycles,
                outcome.refuted_below,
                outcome.program.listing(4),
            );
            assert_eq!(got, reference_answer(&o, &inputs), "goal {goal}");
        }
    });
}

#[test]
fn budget_exhaustion_is_typed() {
    let o = options(SolverChoice::Cdcl);
    let limited = |max_cycles| SearchParams {
        max_cycles,
        ..SearchParams::default()
    };
    // a + b + 1 has bound 2: a ceiling of 1 is exhausted before any
    // probe.
    let chain = "(procdecl f ((a long) (b long)) long (:= (res (+ (+ a b) 1))))";
    let inputs = &search_inputs(&o, chain)[0];
    assert_eq!(inputs.rules(&o).lower_bound(), 2);
    let err = inputs
        .search(&o, &limited(1))
        .expect_err("no schedule within one cycle");
    assert!(err.exhausted && !err.cancelled, "{err}");
    // byteswap4 has bound 4 and optimum 5: a ceiling of 4 runs the
    // ladder out after refuting it.
    let inputs = &search_inputs(&o, BYTESWAP4)[0];
    assert_eq!(inputs.rules(&o).lower_bound(), 4);
    let err = inputs
        .search(&o, &limited(4))
        .expect_err("no schedule within four cycles");
    assert!(err.exhausted && !err.cancelled, "{err}");
    assert!(err.message.starts_with("no schedule within"), "{err}");
    // A raised cancellation is not exhaustion.
    let cancel = CancelToken::new();
    cancel.cancel();
    let params = SearchParams {
        cancel: Some(cancel),
        ..SearchParams::default()
    };
    let err = inputs.search(&o, &params).expect_err("cancelled");
    assert!(err.cancelled && !err.exhausted, "{err}");
}

#[test]
fn huge_cycle_ceiling_does_not_overflow_the_ascent() {
    // Regression: the doubling ascent used `k * 2`, which overflows in
    // debug builds once the budget passes 2^31. A ceiling of u32::MAX
    // must behave exactly like the default.
    let result = Denali::new(Options {
        max_cycles: u32::MAX,
        ..options(SolverChoice::Cdcl)
    })
    .compile_source(BYTESWAP4)
    .expect("pipeline succeeds");
    assert_eq!(result.gmas[0].cycles, 5);
    assert!(result.gmas[0].refuted_below);
}
