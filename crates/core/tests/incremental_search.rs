//! The search's one probe path: every probe of a search is answered by
//! one live `IncrementalEncoding`, and must have the outcome a fresh
//! CDCL solver gives on that budget's standalone `encode(k)` formula —
//! reuse may only change wall-clock and the size/reuse counters. The
//! solver choice must not change the program: CDCL and DPLL answer the
//! same probes and share one decode. Also pins the solver-identity
//! invariant (one `Solver` for the whole search) and the
//! huge-`max_cycles` ascent regression.

use denali_axioms::SaturationLimits;
use denali_core::encode::{encode, Rules};
use denali_core::machine_terms::enumerate_with_misses;
use denali_core::matcher::match_gma;
use denali_core::search::{search, SearchOutcome, SearchParams};
use denali_core::{Denali, Options, SolverChoice};
use denali_prng::{forall, Rng};
use denali_sat::SolveResult;
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

/// Runs the search for `source`'s first GMA and checks every probe
/// against a fresh CDCL solver on the standalone formula of its budget.
fn search_checked_against_fresh_solvers(source: &str) -> SearchOutcome {
    let denali = Denali::new(options(SolverChoice::Cdcl));
    let o = denali.options();
    let prepared = denali.prepare_source(source).expect("prepares");
    let gma = &prepared.gmas[0];
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
    let outcome = search(
        gma,
        &matched,
        &candidates,
        &o.machine,
        &o.encode,
        &SearchParams::default(),
    )
    .expect("search succeeds");
    let rules = Rules::new(&matched, &candidates, &o.machine, &o.encode);
    for p in &outcome.probes {
        let mut fresh = encode(&rules, p.k).cnf.to_solver();
        let satisfiable = fresh.solve() == SolveResult::Sat;
        assert_eq!(p.satisfiable, satisfiable, "probe K={}", p.k);
    }
    outcome
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
    // The deterministic multi-probe workhorse: a full up-then-down
    // ascent (SAT and UNSAT probes in both phases).
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
    let result = Denali::new(options(SolverChoice::Cdcl))
        .compile_source(BYTESWAP4)
        .expect("pipeline succeeds");
    let compiled = &result.gmas[0];
    assert!(compiled.probes.len() >= 3, "byteswap4 needs several probes");
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
        "refuting 4 cycles must learn clauses that later probes reuse"
    );
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
