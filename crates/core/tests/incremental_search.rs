//! Incremental-probing equivalence tests: assumption-based probing on
//! one persistent solver must report the same probe outcomes, cycle
//! count, certificate, and byte-identical program as fresh per-probe
//! solvers — reuse may only change wall-clock and the size/reuse
//! counters. Also pins the solver-identity invariant (one `Solver` for
//! the whole search, at any thread count) and the huge-`max_cycles`
//! ascent regression.

use denali_axioms::SaturationLimits;
use denali_core::{Denali, Options};
use denali_prng::{forall, Rng};
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

fn options(incremental: bool) -> Options {
    Options {
        incremental,
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

/// Everything the two probing strategies must agree on: cycles,
/// certificate, listing, and the (budget, outcome) probe log. Formula
/// sizes are deliberately excluded — incremental probes report the live
/// solver's cumulative size.
type Footprint = (u32, bool, String, Vec<(u32, bool)>);

fn footprint(source: &str, incremental: bool) -> Footprint {
    let result = Denali::new(options(incremental))
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
        let incremental = footprint(&source, true);
        let fresh = footprint(&source, false);
        assert_eq!(incremental, fresh, "goal {goal}");
    });
}

#[test]
fn incremental_probing_agrees_on_byteswap4() {
    // The deterministic multi-probe workhorse: a full up-then-down
    // ascent (SAT and UNSAT probes in both phases).
    let incremental = footprint(BYTESWAP4, true);
    let fresh = footprint(BYTESWAP4, false);
    assert_eq!(incremental.0, 5, "byteswap4 is a 5-cycle program");
    assert_eq!(incremental, fresh);
}

#[test]
fn incremental_probes_share_one_solver() {
    // Every probe after the first must land on the same live solver:
    // the per-solver `solves` gauge counts straight up, and once the
    // solver has learned anything, later probes carry it over.
    let result = Denali::new(options(true))
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

    // Fresh mode by contrast starts a new solver per probe.
    let fresh = Denali::new(options(false))
        .compile_source(BYTESWAP4)
        .expect("pipeline succeeds");
    assert_eq!(fresh.gmas[0].carried_clauses(), 0);
    for probe in &fresh.gmas[0].probes {
        assert_eq!(probe.solver.expect("CDCL stats").solves, 1);
    }
}

#[test]
fn huge_cycle_ceiling_does_not_overflow_the_ascent() {
    // Regression: the doubling ascent used `k * 2`, which overflows in
    // debug builds once the budget passes 2^31. A ceiling of u32::MAX
    // must behave exactly like the default.
    let result = Denali::new(Options {
        max_cycles: u32::MAX,
        ..options(true)
    })
    .compile_source(BYTESWAP4)
    .expect("pipeline succeeds");
    assert_eq!(result.gmas[0].cycles, 5);
    assert!(result.gmas[0].refuted_below);
}
