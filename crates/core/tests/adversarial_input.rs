//! Adversarial-input hardening: `compile_source` must return a
//! `CompileError` — never panic, hang, or abort — on arbitrarily
//! mutated, truncated, or garbage source text. The serve crate feeds
//! untrusted request bodies straight into this entry point, so any
//! panic path here is a remote crash.
//!
//! Failures replay with `DENALI_PROP_SEED=<seed>` (printed on failure).

use denali_axioms::SaturationLimits;
use denali_core::{Denali, EngineChoice, Options};
use denali_prng::{forall, Rng};

/// Valid seeds for mutation — near-misses are far better at finding
/// panic paths than uniformly random bytes, which parsing rejects
/// immediately.
const CORPUS: &[&str] = &[
    "(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))",
    "(\\procdecl g ((a long) (b long)) long (:= (\\res (& (<< a 2) b))))",
    "(\\procdecl h ((p long*)) long (:= (\\res (\\deref p))))",
    "(\\procdecl s ((p long*) (n long)) long
       (\\var (acc long 0)
         (\\do (\\unroll 2) (-> (<u acc n)
           (\\semi (:= (acc (+ acc (\\deref p)))) (:= (p (+ p 8))))))))",
    "(\\axiom (\\forall (x) (= (+ x 0) x)))
     (\\procdecl id ((x long)) long (:= (\\res (+ x 0))))",
];

/// Characters the mutator splices in: syntax we actually use, plus a
/// few classic troublemakers (NUL, high Unicode, backslash).
const SPLICE: &[&str] = &[
    "(",
    ")",
    "\\",
    ";",
    ":=",
    "0",
    "9999999999999999999999",
    "-1",
    "long",
    "\\res",
    "\\deref",
    "\\procdecl",
    "\\do",
    "\\unroll",
    "\u{0}",
    "\u{10FFFF}",
    "\n",
    " ",
];

fn mutate(rng: &mut Rng, source: &str) -> String {
    let mut text = source.to_owned();
    // 1–4 stacked mutations: truncate, splice, delete, duplicate.
    for _ in 0..rng.range(1, 5) {
        match rng.below(4) {
            0 => {
                // Truncate at a random char boundary.
                let cut = rng.below_usize(text.len() + 1);
                let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap();
                text.truncate(cut);
            }
            1 => {
                // Splice a token at a random char boundary.
                let at = rng.below_usize(text.len() + 1);
                let at = (0..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap();
                let token = *rng.choose(SPLICE);
                text.insert_str(at, token);
            }
            2 => {
                // Delete a random char.
                if let Some((at, c)) = text
                    .char_indices()
                    .nth(rng.below_usize(text.chars().count().max(1)))
                {
                    text.replace_range(at..at + c.len_utf8(), "");
                }
            }
            _ => {
                // Duplicate a random slice (grows nesting depth fast).
                if !text.is_empty() {
                    let a = rng.below_usize(text.len());
                    let b = rng.below_usize(text.len());
                    let (lo, hi) = (a.min(b), a.max(b));
                    let lo = (0..=lo).rev().find(|&i| text.is_char_boundary(i)).unwrap();
                    let hi = (lo..=hi).rev().find(|&i| text.is_char_boundary(i)).unwrap();
                    let slice = text[lo..hi].to_owned();
                    text.insert_str(hi, &slice);
                }
            }
        }
    }
    text
}

/// Tiny budgets so the (rare) still-valid mutants compile in
/// milliseconds instead of dominating the test.
fn tiny_denali() -> Denali {
    Denali::new(Options {
        max_cycles: 4,
        saturation: SaturationLimits {
            max_iterations: 2,
            max_nodes: 400,
            max_instances_per_round: 100,
            max_structural_per_round: 20,
            max_structural_growth: 100,
            ..SaturationLimits::default()
        },
        ..Options::default()
    })
}

#[test]
fn mutated_sources_never_panic() {
    let denali = tiny_denali();
    forall("compile-mutated-sources", 400, |rng| {
        let base = *rng.choose(CORPUS);
        let source = mutate(rng, base);
        // Ok or Err are both acceptable; a panic fails the property.
        let _ = denali.compile_source(&source);
    });
}

#[test]
fn garbage_bytes_never_panic() {
    let denali = tiny_denali();
    forall("compile-garbage-bytes", 300, |rng| {
        let len = rng.below_usize(200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let source = String::from_utf8_lossy(&bytes).into_owned();
        let _ = denali.compile_source(&source);
    });
}

#[test]
fn huge_load_latencies_are_a_search_error_not_an_overflow() {
    // A load from a computed address starts after its address is ready,
    // so its completion cycle is 1 + latency, which must not overflow at
    // u32::MAX (a panic in debug builds, a silent wrap in release). The
    // load can never complete, so the search runs out of budget.
    let cases = [
        (
            "(\\procdecl h ((p long*)) long (:= (\\res (\\deref (+ p 8)))))",
            Options {
                load_latency: Some(u32::MAX),
                ..Options::default()
            },
        ),
        (
            "(\\procdecl h ((p long*)) long (:= (\\res (\\derefm (+ p 8)))))",
            Options {
                miss_latency: u32::MAX,
                ..Options::default()
            },
        ),
    ];
    for (source, options) in cases {
        let err = Denali::new(Options {
            engine: EngineChoice::Sat,
            ..options
        })
        .compile_source(source)
        .expect_err("a load that never completes has no schedule");
        assert_eq!(err.stage, "search", "{source}: {}", err.message);
    }
}

#[test]
fn deep_nesting_is_an_error_not_an_abort() {
    let denali = tiny_denali();
    for source in [
        "(".repeat(100_000),
        format!("{}x{}", "(".repeat(50_000), ")".repeat(50_000)),
        format!(
            "(\\procdecl f ((x long)) long (:= (\\res {}x{})))",
            "(+ 1 ".repeat(5_000),
            ")".repeat(5_000)
        ),
    ] {
        let err = denali.compile_source(&source).unwrap_err();
        assert_eq!(err.stage, "parse");
    }
}

#[test]
fn pathological_unroll_is_an_error_not_a_hang() {
    let denali = tiny_denali();
    let err = denali
        .compile_source(
            "(\\procdecl f ((s long)) long
               (\\do (\\unroll 99999999) (-> (<u s 100) (:= (s (+ s 1))))))",
        )
        .unwrap_err();
    assert_eq!(err.stage, "parse");
}
