//! The stochastic (MCMC) engine as a pipeline citizen: determinism at a
//! fixed seed across runs, the Figure 2 headline
//! result found without SAT, the auto-engine fallback when the cycle
//! budget is exhausted, `stoke_profile` running the chain the engine
//! runs, and the permanent cross-validation oracle — the chain must
//! never beat the SAT optimum it cannot certify.

use std::collections::HashMap;

use denali_arch::{validate, Machine, Simulator};
use denali_axioms::SaturationLimits;
use denali_core::{Denali, EngineChoice, Options};
use denali_prng::{forall, Rng};
use denali_term::value::Env;
use denali_term::{Symbol, Term};

const FIGURE2: &str = r"(\procdecl f ((reg6 long)) long (:= (\res (+ (* reg6 4) 1))))";

const BYTESWAP4: &str = r"
(\procdecl byteswap4 ((a long)) long
  (\var (r long 0)
    (\semi
      (:= ((\selectb r 0) (\selectb a 3)))
      (:= ((\selectb r 1) (\selectb a 2)))
      (:= ((\selectb r 2) (\selectb a 1)))
      (:= ((\selectb r 3) (\selectb a 0)))
      (:= (\res r)))))";

fn stochastic_options() -> Options {
    let mut options = Options {
        engine: EngineChoice::Stochastic,
        ..Options::default()
    };
    // A shorter chain keeps the test fast; determinism and correctness
    // must hold at any budget.
    options.stoke.iterations = 4_000;
    options
}

/// One stochastic compile, returning the rendered listing and cycles —
/// the whole observable result, so byte-comparing listings is the
/// determinism check.
fn stochastic_listing(source: &str) -> (String, u32) {
    let denali = Denali::new(stochastic_options());
    let result = denali.compile_source(source).expect("stochastic compiles");
    let compiled = &result.gmas[0];
    assert_eq!(compiled.engine, EngineChoice::Stochastic);
    assert!(
        !compiled.refuted_below,
        "the chain never claims an optimality certificate"
    );
    (compiled.program.listing(4), compiled.cycles)
}

#[test]
fn fixed_seed_runs_are_byte_identical_across_runs() {
    let (first, cycles) = stochastic_listing(BYTESWAP4);
    let (again, cycles_again) = stochastic_listing(BYTESWAP4);
    assert_eq!(first, again, "same seed, same bytes");
    assert_eq!(cycles, cycles_again);
}

#[test]
fn the_chain_finds_the_figure2_s4addq() {
    // The paper's headline: 4*reg6 + 1 is one s4addq, not sll + addq.
    // The e-graph mines the equivalence; the chain only has to apply it.
    let (listing, cycles) = stochastic_listing(FIGURE2);
    assert_eq!(cycles, 1, "listing:\n{listing}");
    assert!(listing.contains("s4addq"), "listing:\n{listing}");
}

#[test]
fn auto_falls_back_to_the_chain_when_the_cycle_budget_is_exhausted() {
    // a + b + 1 needs two dependent additions: no schedule within one
    // cycle exists, so the SAT ladder exhausts its budget. Under
    // `auto` that is not an error — the chain answers instead, with
    // anytime semantics (its result may exceed max_cycles).
    let source = r"(\procdecl f ((a long) (b long)) long (:= (\res (+ (+ a b) 1))))";
    let mut options = stochastic_options();
    options.engine = EngineChoice::Auto;
    options.max_cycles = 1;
    let denali = Denali::new(options);
    let result = denali.compile_source(source).expect("auto falls back");
    let compiled = &result.gmas[0];
    assert_eq!(compiled.engine, EngineChoice::Stochastic);
    assert!(compiled.cycles >= 2, "two dependent adds take two cycles");
    validate(&compiled.program, &denali.options().machine).expect("valid schedule");

    // Under `sat` the same budget is a hard error.
    let mut strict = stochastic_options();
    strict.engine = EngineChoice::Sat;
    strict.max_cycles = 1;
    let err = Denali::new(strict)
        .compile_source(source)
        .expect_err("sat engine reports budget exhaustion");
    assert!(
        err.message.starts_with("no schedule within"),
        "{}",
        err.message
    );
}

#[test]
fn stoke_profile_ends_where_the_stochastic_engine_does() {
    // `stoke_profile` (behind `stoke_bench` and `report e7s`) and the
    // engine both start the chain through one entry point; a profile
    // that ran another chain would report cycles no compile prints.
    let sources = [
        include_str!("../../../examples/figure2.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/dot4.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/wide.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/sel.dnl"),
    ];
    for machine in ["ev6", "ev6-unclustered", "ia64like", "single-issue"] {
        let denali = Denali::new(Options {
            machine: Machine::by_name(machine).unwrap(),
            engine: EngineChoice::Stochastic,
            ..Options::default()
        });
        for source in sources {
            let compiled = denali.compile_source(source).expect("stochastic compiles");
            let runs = denali.stoke_profile(source).expect("profile runs");
            assert_eq!(
                runs.len(),
                compiled.gmas.len(),
                "{machine}: one chain per GMA"
            );
            for gma in &compiled.gmas {
                assert_eq!(gma.engine, EngineChoice::Stochastic);
                let run = runs
                    .iter()
                    .find(|r| r.gma == gma.gma.name)
                    .unwrap_or_else(|| panic!("{machine}: no chain for {}", gma.gma.name));
                assert_eq!(
                    run.best_cycles, gma.cycles,
                    "{machine}: {}: stoke_profile and compile_source disagree",
                    gma.gma.name
                );
            }
        }
    }
}

/// Random pure-ALU goals over two inputs — the stochastic engine's
/// supported fragment (no memory, no guards).
fn random_goal(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => Term::leaf("a"),
            1 => Term::leaf("b"),
            _ => Term::constant(rng.below(256)),
        };
    }
    match rng.below(8) {
        0 => Term::call(
            "add64",
            vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)],
        ),
        1 => Term::call(
            "sub64",
            vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)],
        ),
        2 => Term::call(
            "and64",
            vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)],
        ),
        3 => Term::call(
            "or64",
            vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)],
        ),
        4 => Term::call(
            "xor64",
            vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)],
        ),
        5 => Term::call(
            "shl64",
            vec![random_goal(rng, depth - 1), Term::constant(rng.below(64))],
        ),
        6 => Term::call(
            "cmpult",
            vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)],
        ),
        _ => Term::call(
            "selectb",
            vec![random_goal(rng, depth - 1), Term::constant(rng.below(8))],
        ),
    }
}

fn saturation_budget() -> SaturationLimits {
    SaturationLimits {
        max_iterations: 6,
        max_nodes: 3_000,
        max_structural_per_round: 300,
        max_structural_growth: 800,
        ..SaturationLimits::default()
    }
}

/// Differentially check the chain's program against the reference
/// evaluator on independent random vectors (the chain's own verifier
/// draws from its seeded stream; these come from the forall's rng).
fn check_semantics(
    goal: &Term,
    program: &denali_arch::Program,
    machine: &denali_arch::Machine,
    rng: &mut Rng,
) {
    let sim = Simulator::new(machine);
    for _ in 0..8 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let mut env = Env::new();
        env.set_word("a", a);
        env.set_word("b", b);
        let expected = env.eval_word(goal).expect("reference evaluates");
        let mut inputs = Vec::new();
        for (name, value) in [("a", a), ("b", b)] {
            if program.input_reg(Symbol::intern(name)).is_some() {
                inputs.push((name, value));
            }
        }
        let outcome = sim
            .run_named(program, &inputs, HashMap::new())
            .expect("simulates");
        let res = program
            .output_reg(Symbol::intern("res"))
            .expect("result register");
        assert_eq!(
            outcome.regs[&res],
            expected,
            "goal {} a={:#x} b={:#x}\n{}",
            goal,
            a,
            b,
            program.listing(4)
        );
    }
}

#[test]
fn the_chain_never_unsoundly_beats_the_sat_optimum() {
    // The permanent differential oracle. SAT's optimum is optimal
    // *modulo the axiom set and saturation budget*: a semantically
    // degenerate goal (e.g. `cmpult x (xor a a)` is constantly zero)
    // can be legitimately beaten by the chain, whose verifier is
    // semantic (test vectors), not axiomatic. So the invariant is:
    // every chain result is semantically correct on independent
    // vectors; results strictly below the SAT optimum are rare; and
    // the chain usually matches the optimum. All three pinned loosely
    // enough to track real regressions, not seeds.
    let mut matched = 0u32;
    let mut beat = 0u32;
    let mut total = 0u32;
    forall("stochastic_vs_sat_optimum", 24, |rng| {
        let goal = random_goal(rng, 2);
        let source = format!("(procdecl f ((a long) (b long)) long (:= (res {goal})))");

        let sat = Denali::new(Options {
            saturation: saturation_budget(),
            ..Options::default()
        });
        let optimum = sat.compile_source(&source).expect("sat compiles").gmas[0].cycles;

        let run = || {
            let mut options = stochastic_options();
            options.saturation = saturation_budget();
            let denali = Denali::new(options);
            let result = denali.compile_source(&source).expect("chain compiles");
            let compiled = result.gmas.into_iter().next().unwrap();
            (compiled.program, compiled.cycles)
        };

        let (program, cycles) = run();
        let (again_program, again_cycles) = run();
        assert_eq!(
            program.listing(4),
            again_program.listing(4),
            "goal {goal}: the chain is not deterministic"
        );
        assert_eq!(cycles, again_cycles);
        check_semantics(&goal, &program, &denali_arch::Machine::ev6(), rng);

        total += 1;
        if cycles == optimum {
            matched += 1;
        } else if cycles < optimum {
            beat += 1;
        }
    });
    assert!(
        matched * 2 >= total,
        "chain matched the optimum on only {matched}/{total} goals"
    );
    // Depth-2 random goals are often degenerate (xor a a, sub a a, ...)
    // and the budgeted saturation above misses some collapses, so a
    // handful of legitimate beats is expected — 4/24 at this seed.
    assert!(
        beat * 4 <= total,
        "chain beat the axiomatic optimum on {beat}/{total} goals — \
         either the verifier regressed or the axiom set lost rules"
    );
}
