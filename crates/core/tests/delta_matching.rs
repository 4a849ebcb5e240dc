//! End-to-end delta-matching equivalence: the whole pipeline — matching,
//! search, code generation — must produce byte-identical programs, cycle
//! counts, and probe logs whether saturation re-matches everything each
//! round or only the dirty cone. Delta matching may only change how much
//! work the matcher does, never what it finds.

use denali_axioms::SaturationLimits;
use denali_core::{Denali, Options};
use denali_prng::{forall, Rng};
use denali_term::Term;

fn options(delta: bool) -> Options {
    Options {
        saturation: SaturationLimits {
            max_iterations: 6,
            max_nodes: 3_000,
            max_structural_per_round: 300,
            max_structural_growth: 800,
            delta_match: delta,
            ..SaturationLimits::default()
        },
        ..Options::default()
    }
}

/// Everything the two matching strategies must agree on: cycles,
/// certificate, listing, probe log, and the matcher's node/class counts.
/// Candidate-scan counters are deliberately excluded — skipping
/// quiescent candidates is the whole point.
type Footprint = (u32, bool, String, Vec<(u32, bool)>, usize, usize);

fn footprint(source: &str, delta: bool) -> Footprint {
    let result = Denali::new(options(delta))
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
        compiled.matcher.nodes,
        compiled.matcher.classes,
    )
}

/// Random goal expressions over two inputs (the same shape as the
/// incremental-probing property test).
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
fn delta_matching_compiles_identical_programs() {
    forall("delta_matching_compiles_identical_programs", 12, |rng| {
        let goal = random_goal(rng, 3);
        let source = format!("(procdecl f ((a long) (b long)) long (:= (res {goal})))");
        let full = footprint(&source, false);
        let delta = footprint(&source, true);
        assert_eq!(full, delta, "goal {goal}");
    });
}
