//! Differential equivalence of delta-driven and full re-matching:
//! saturation must apply the identical instance sequence — and therefore
//! build a byte-identical e-graph — whether each round re-matches the
//! whole e-graph or only the dirty cone.
//!
//! Class ids are assigned in insertion order, so the per-class Debug
//! snapshot pins not just the final shape but the *order* instances were
//! applied in; any divergence in the applied sequence shows up as
//! differently numbered classes.

use denali_axioms::{
    alpha_axioms, ia64_axioms, math_axioms, saturate, standard_axioms, Axiom, SaturationLimits,
    SaturationReport,
};
use denali_egraph::{ClassId, EGraph};
use denali_prng::{forall, Rng};
use denali_term::{sexpr, Term};

fn limits(delta: bool) -> SaturationLimits {
    SaturationLimits {
        max_iterations: 6,
        max_nodes: 3_000,
        max_structural_per_round: 300,
        max_structural_growth: 800,
        delta_match: delta,
        ..SaturationLimits::default()
    }
}

/// Full structural snapshot: every class id with its canonicalized node
/// list (sorted for stable comparison), plus node/class counts.
fn snapshot(eg: &EGraph) -> (Vec<String>, usize, usize) {
    let mut classes: Vec<String> = eg
        .classes()
        .iter()
        .map(|&c| format!("{c:?} -> {:?}", eg.nodes(c)))
        .collect();
    classes.sort();
    (classes, eg.num_nodes(), eg.num_classes())
}

fn run(
    term: &Term,
    axioms: &[Axiom],
    limits: &SaturationLimits,
) -> ((Vec<String>, usize, usize), ClassId, SaturationReport) {
    let mut eg = EGraph::new();
    let goal = eg.add_term(term).unwrap();
    let report = saturate(&mut eg, axioms, limits).unwrap();
    (snapshot(&eg), eg.find(goal), report)
}

fn assert_equivalent(
    term: &Term,
    axioms: &[Axiom],
    full: &SaturationLimits,
    delta: &SaturationLimits,
) {
    let (fsnap, fgoal, freport) = run(term, axioms, full);
    let (dsnap, dgoal, dreport) = run(term, axioms, delta);
    assert_eq!(fsnap, dsnap, "e-graph diverged for {term}");
    assert_eq!(fgoal, dgoal, "goal class diverged for {term}");
    assert_eq!(
        (freport.iterations, freport.instances, freport.saturated),
        (dreport.iterations, dreport.instances, dreport.saturated),
        "report diverged for {term}"
    );
    // Either mode accounts for the same per-round candidate universe
    // only on full rounds; globally, whatever delta skipped it must
    // never have needed: same instances, above.
    assert_eq!(freport.skipped_candidates, 0);
}

/// Random goal expressions over two inputs (the same shape as the
/// incremental-search property test).
fn random_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => Term::leaf("a"),
            1 => Term::leaf("b"),
            _ => Term::constant(rng.below(256)),
        };
    }
    let args = |rng: &mut Rng| vec![random_term(rng, depth - 1), random_term(rng, depth - 1)];
    match rng.below(8) {
        0 => Term::call("add64", args(rng)),
        1 => Term::call("sub64", args(rng)),
        2 => Term::call("and64", args(rng)),
        3 => Term::call("or64", args(rng)),
        4 => Term::call("xor64", args(rng)),
        5 => Term::call(
            "shl64",
            vec![random_term(rng, depth - 1), Term::constant(rng.below(64))],
        ),
        6 => Term::call(
            "selectb",
            vec![random_term(rng, depth - 1), Term::constant(rng.below(8))],
        ),
        _ => Term::call("cmpult", args(rng)),
    }
}

#[test]
fn delta_matches_full_on_random_terms() {
    let axioms = standard_axioms();
    forall("delta_matches_full_on_random_terms", 24, |rng| {
        let term = random_term(rng, 3);
        assert_equivalent(&term, &axioms, &limits(false), &limits(true));
    });
}

#[test]
fn delta_matches_full_across_builtin_axiom_sets() {
    let fixed = [
        "(add64 (mul64 reg6 4) 1)",
        "(add64 a (add64 b (add64 c (add64 d e))))",
        "(storeb (storeb 0 0 (selectb a 3)) 3 (selectb a 0))",
        "(select (store M p x) (add64 p 8))",
    ];
    let sets: [(&str, Vec<Axiom>); 4] = [
        ("math", math_axioms()),
        ("alpha", alpha_axioms()),
        ("ia64", ia64_axioms()),
        ("standard", standard_axioms()),
    ];
    for (name, axioms) in &sets {
        for src in fixed {
            let term = Term::from_sexpr(&sexpr::parse_one(src).unwrap(), &[]).unwrap();
            let (fsnap, _, freport) = run(&term, axioms, &limits(false));
            let (dsnap, _, dreport) = run(&term, axioms, &limits(true));
            assert_eq!(fsnap, dsnap, "axiom set {name}, term {src}");
            assert_eq!(freport.instances, dreport.instances, "{name}/{src}");
            assert_eq!(freport.iterations, dreport.iterations, "{name}/{src}");
        }
    }
}

#[test]
fn delta_matches_full_under_tight_budgets() {
    // Budget truncation discards matches mid-round; the delta path must
    // fall back to a full rescan to re-find them, keeping the applied
    // sequence identical.
    let axioms = standard_axioms();
    forall("delta_matches_full_under_tight_budgets", 12, |rng| {
        let term = random_term(rng, 3);
        let full = SaturationLimits {
            max_instances_per_round: 1 + rng.below(40) as usize,
            max_structural_per_round: 1 + rng.below(20) as usize,
            ..limits(false)
        };
        let delta = SaturationLimits {
            delta_match: true,
            ..full
        };
        assert_equivalent(&term, &axioms, &full, &delta);
    });
}

#[test]
fn instance_budget_filled_by_the_last_pattern_rescans_in_full() {
    // Round 1 applies F's two instances and fills the instance budget
    // inside the phase's last pattern. The round must count as
    // truncated: P's match on (p (f x)) only appears after F's
    // instances, and its root is not in the next round's cone.
    let pat = |s: &str| Term::from_sexpr(&sexpr::parse_one(s).unwrap(), &["a".into()]).unwrap();
    let axioms = [
        Axiom::equality("P", &["a"], pat("(p (g a))"), pat("(q a)")),
        Axiom::equality("Q", &["a"], pat("(q a)"), pat("(r (s a))")),
        Axiom::equality("F", &["a"], pat("(f a)"), pat("(g (t a))")),
    ];
    let run = |delta: bool| {
        let mut eg = EGraph::new();
        for term in ["(p (f x))", "(f y)", "(f z)"] {
            eg.add_term(&pat(term)).unwrap();
        }
        let limits = SaturationLimits {
            max_instances_per_round: 2,
            delta_match: delta,
            ..SaturationLimits::default()
        };
        let report = saturate(&mut eg, &axioms, &limits).unwrap();
        (snapshot(&eg), report.iterations, report.instances)
    };
    assert_eq!(run(false), run(true));
}
