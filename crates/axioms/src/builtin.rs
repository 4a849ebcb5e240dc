//! The built-in axiom files: mathematical and Alpha-EV6 architectural
//! axioms.
//!
//! These play the role of the paper's `mathematical axioms` (44 axioms /
//! 127 lines) and `Alpha axioms` (275 axioms / 637 lines). Our sets are
//! smaller but cover everything the reproduced experiments exercise; each
//! axiom is verified against the operation semantics by the soundness
//! property tests in `tests/prop_soundness.rs`.

use std::sync::{Arc, OnceLock};

use denali_term::{Symbol, Term};

use crate::axiom::{Axiom, AxiomBody};
use crate::set::AxiomSet;

fn pat(s: &str, vars: &[&str]) -> Term {
    let vars: Vec<Symbol> = vars.iter().map(|v| Symbol::intern(v)).collect();
    Term::from_sexpr(
        &denali_term::sexpr::parse_one(s).expect("valid built-in pattern"),
        &vars,
    )
    .expect("valid built-in pattern")
}

fn eq(name: &str, vars: &[&str], lhs: &str, rhs: &str) -> Axiom {
    Axiom::equality(name, vars, pat(lhs, vars), pat(rhs, vars))
}

/// Like [`eq`] but triggered by *either* side (useful when both forms
/// should be discoverable from the other).
fn eq2(name: &str, vars: &[&str], lhs: &str, rhs: &str) -> Axiom {
    let rhs_pat = pat(rhs, vars);
    eq(name, vars, lhs, rhs).with_pattern(rhs_pat)
}

fn byte_ne(vs: &[u64]) -> bool {
    (vs[0] & 7) != (vs[1] & 7)
}

fn byte_eq(vs: &[u64]) -> bool {
    (vs[0] & 7) == (vs[1] & 7)
}

fn byte_nonzero(vs: &[u64]) -> bool {
    (vs[0] & 7) != 0
}

fn shift_in_range(vs: &[u64]) -> bool {
    vs[0] < 64
}

/// `count` is a legal shladd shift count (IA-64 allows 1..=4).
fn shladd_count(vs: &[u64]) -> bool {
    (1..=4).contains(&vs[0])
}

/// `m` is a low-bits mask `2^k - 1` with `k ≥ 1`, and the position is a
/// legal shift.
fn low_mask_and_pos(vs: &[u64]) -> bool {
    vs[0] < 64 && vs[1] >= 1 && vs[1].wrapping_add(1).is_power_of_two()
}

/// `m` is a low-bits mask `2^k - 1` with `k ≥ 1`.
fn low_mask(vs: &[u64]) -> bool {
    vs[0] >= 1 && vs[0].wrapping_add(1).is_power_of_two()
}

/// Both byte indices address whole 16-bit fields that do not overlap
/// (and do not hang off the top of the word).
fn words_disjoint(vs: &[u64]) -> bool {
    let i = vs[0] & 7;
    let j = vs[1] & 7;
    i <= 6 && j <= 6 && (i + 1 < j || j + 1 < i)
}

/// The mathematical axioms: facts about the arithmetic, bitwise, byte,
/// and array operations that hold on any target (paper §4).
pub fn math_axioms() -> Vec<Axiom> {
    let mut axioms = vec![
        // ---- 64-bit modular arithmetic ----
        eq("add64-comm", &["a", "b"], "(add64 a b)", "(add64 b a)"),
        eq2(
            "add64-assoc",
            &["a", "b", "c"],
            "(add64 a (add64 b c))",
            "(add64 (add64 a b) c)",
        )
        .structural(),
        eq("add64-id", &["a"], "(add64 a 0)", "a"),
        eq("add64-self", &["a"], "(add64 a a)", "(mul64 a 2)"),
        eq("sub64-id", &["a"], "(sub64 a 0)", "a"),
        eq("sub64-self", &["a"], "(sub64 a a)", "0"),
        eq("mul64-comm", &["a", "b"], "(mul64 a b)", "(mul64 b a)"),
        eq2(
            "mul64-assoc",
            &["a", "b", "c"],
            "(mul64 a (mul64 b c))",
            "(mul64 (mul64 a b) c)",
        )
        .structural(),
        eq("mul64-id", &["a"], "(mul64 a 1)", "a"),
        eq("mul64-zero", &["a"], "(mul64 a 0)", "0"),
        eq2(
            "mul64-pow2",
            &["k", "n"],
            "(mul64 k (pow 2 n))",
            "(shl64 k n)",
        )
        .with_condition(&["n"], "n < 64", shift_in_range),
        eq("pow-one", &["a"], "(pow a 1)", "a"),
        eq("pow-zero", &["a"], "(pow a 0)", "1"),
        // ---- bitwise algebra ----
        eq("and64-comm", &["a", "b"], "(and64 a b)", "(and64 b a)"),
        eq2(
            "and64-assoc",
            &["a", "b", "c"],
            "(and64 a (and64 b c))",
            "(and64 (and64 a b) c)",
        )
        .structural(),
        eq("and64-zero", &["a"], "(and64 a 0)", "0"),
        eq("and64-ones", &["a"], "(and64 a 0xffffffffffffffff)", "a"),
        eq("and64-self", &["a"], "(and64 a a)", "a"),
        eq("or64-comm", &["a", "b"], "(or64 a b)", "(or64 b a)"),
        eq2(
            "or64-assoc",
            &["a", "b", "c"],
            "(or64 a (or64 b c))",
            "(or64 (or64 a b) c)",
        )
        .structural(),
        eq("or64-id", &["a"], "(or64 a 0)", "a"),
        eq("or64-self", &["a"], "(or64 a a)", "a"),
        eq("xor64-comm", &["a", "b"], "(xor64 a b)", "(xor64 b a)"),
        eq("xor64-id", &["a"], "(xor64 a 0)", "a"),
        eq("xor64-self", &["a"], "(xor64 a a)", "0"),
        eq("not64-invol", &["a"], "(not64 (not64 a))", "a"),
        eq("shl64-zero", &["a"], "(shl64 a 0)", "a"),
        eq("shr64-zero", &["a"], "(shr64 a 0)", "a"),
        // ---- byte algebra (selectb / storeb) ----
        eq2(
            "selectb-shift",
            &["w", "i"],
            "(selectb w i)",
            "(and64 (shr64 w (mul64 8 i)) 255)",
        ),
        eq(
            "selectb-idem",
            &["w", "j"],
            "(selectb (selectb w j) 0)",
            "(selectb w j)",
        ),
        eq(
            "storeb-shift",
            &["w", "i", "x"],
            "(storeb w i x)",
            "(or64 (and64 w (not64 (shl64 255 (mul64 8 i)))) (shl64 (and64 x 255) (mul64 8 i)))",
        ),
        eq("castshort-def", &["a"], "(castshort a)", "(and64 a 65535)"),
        // ---- arrays (select / store) ----
        eq(
            "select-store-same",
            &["a", "i", "x"],
            "(select (store a i x) i)",
            "x",
        ),
    ];
    // The select-store clause: i = j  ∨  select(store(a,i,x), j) = select(a, j).
    axioms.push(Axiom {
        name: "select-store-other".to_owned(),
        vars: ["a", "i", "j", "x"]
            .iter()
            .map(|v| Symbol::intern(v))
            .collect(),
        patterns: vec![pat("(select (store a i x) j)", &["a", "i", "j", "x"])],
        body: AxiomBody::Clause(vec![
            (true, pat("i", &["i"]), pat("j", &["j"])),
            (
                true,
                pat("(select (store a i x) j)", &["a", "i", "j", "x"]),
                pat("(select a j)", &["a", "j"]),
            ),
        ]),
        condition: None,
        priority: crate::axiom::AxiomPriority::Defining,
    });
    axioms
}

/// The architectural axioms for our Alpha-EV6-like target: definitions of
/// machine operations in terms of the mathematical functions (paper §4:
/// "we usually use the same name for an instruction and for the function
/// that it computes").
pub fn alpha_axioms() -> Vec<Axiom> {
    vec![
        // ---- arithmetic bridges ----
        eq("addq-def", &["a", "b"], "(add64 a b)", "(addq a b)"),
        eq("subq-def", &["a", "b"], "(sub64 a b)", "(subq a b)"),
        eq("mulq-def", &["a", "b"], "(mul64 a b)", "(mulq a b)"),
        // ---- scaled add/subtract (the s4addl of Figure 2, in its
        // 64-bit form) ----
        eq(
            "s4addq-def",
            &["k", "n"],
            "(add64 (mul64 k 4) n)",
            "(s4addq k n)",
        ),
        eq(
            "s8addq-def",
            &["k", "n"],
            "(add64 (mul64 k 8) n)",
            "(s8addq k n)",
        ),
        eq(
            "s4subq-def",
            &["k", "n"],
            "(sub64 (mul64 k 4) n)",
            "(s4subq k n)",
        ),
        eq(
            "s8subq-def",
            &["k", "n"],
            "(sub64 (mul64 k 8) n)",
            "(s8subq k n)",
        ),
        // ---- bitwise bridges ----
        eq("and-def", &["a", "b"], "(and64 a b)", "(and a b)"),
        eq("bis-def", &["a", "b"], "(or64 a b)", "(bis a b)"),
        eq("xor-def", &["a", "b"], "(xor64 a b)", "(xor a b)"),
        eq("not-ornot", &["a"], "(not64 a)", "(ornot 0 a)"),
        eq("bic-def", &["a", "b"], "(and64 a (not64 b))", "(bic a b)"),
        eq(
            "ornot-def",
            &["a", "b"],
            "(or64 a (not64 b))",
            "(ornot a b)",
        ),
        eq("eqv-def", &["a", "b"], "(not64 (xor64 a b))", "(eqv a b)"),
        eq("sll-def", &["a", "b"], "(shl64 a b)", "(sll a b)"),
        eq("srl-def", &["a", "b"], "(shr64 a b)", "(srl a b)"),
        eq("sra-def", &["a", "b"], "(sar64 a b)", "(sra a b)"),
        // bis identities (machine-level, so byte-op chains simplify
        // without a round-trip through or64)
        eq("bis-id-r", &["a"], "(bis a 0)", "a"),
        eq("bis-id-l", &["a"], "(bis 0 a)", "a"),
        // ---- byte-manipulation instructions (paper §4's examples) ----
        // extbl(w, i) = selectb(w, i)
        eq2("extbl-def", &["w", "i"], "(selectb w i)", "(extbl w i)"),
        // insbl(w, i) = selectb(w, 0) << 8*i
        eq2(
            "insbl-def",
            &["w", "i"],
            "(insbl w i)",
            "(shl64 (selectb w 0) (mul64 8 i))",
        ),
        // insbl only reads the low byte of its operand.
        eq(
            "insbl-low-byte",
            &["w", "i"],
            "(insbl (selectb w 0) i)",
            "(insbl w i)",
        ),
        // mskbl(w, i) = storeb(w, i, 0); operationally a mask.
        eq2(
            "mskbl-def",
            &["w", "i"],
            "(mskbl w i)",
            "(and64 w (not64 (shl64 255 (mul64 8 i))))",
        ),
        eq("mskbl-storeb", &["w", "i"], "(storeb w i 0)", "(mskbl w i)"),
        // The decomposition that drives byte-swap code generation:
        // storeb(w,i,x) = bis(mskbl(w,i), insbl(x,i)).
        eq(
            "storeb-decompose",
            &["w", "i", "x"],
            "(storeb w i x)",
            "(bis (mskbl w i) (insbl x i))",
        ),
        // mskbl distributes over bis.
        eq(
            "mskbl-bis",
            &["u", "v", "i"],
            "(mskbl (bis u v) i)",
            "(bis (mskbl u i) (mskbl v i))",
        ),
        // Masking a byte an insert/extract did not populate is a no-op.
        eq(
            "mskbl-insbl-other",
            &["x", "j", "i"],
            "(mskbl (insbl x j) i)",
            "(insbl x j)",
        )
        .with_condition(&["i", "j"], "byte(i) != byte(j)", byte_ne),
        eq(
            "mskbl-insbl-same",
            &["x", "j", "i"],
            "(mskbl (insbl x j) i)",
            "0",
        )
        .with_condition(&["i", "j"], "byte(i) == byte(j)", byte_eq),
        eq(
            "mskbl-extbl",
            &["w", "j", "i"],
            "(mskbl (extbl w j) i)",
            "(extbl w j)",
        )
        .with_condition(&["i"], "byte(i) != 0", byte_nonzero),
        // 16-bit extract: extwl(w, i) = (w >> 8i) & 0xffff.
        eq2(
            "extwl-def",
            &["w", "i"],
            "(extwl w i)",
            "(and64 (shr64 w (mul64 8 i)) 65535)",
        ),
        // ---- 16-bit field algebra (selectw/storew are word-indexed;
        // the machine instructions are byte-indexed, hence the 2i) ----
        eq(
            "selectw-extwl",
            &["w", "i"],
            "(selectw w i)",
            "(extwl w (mul64 2 i))",
        ),
        eq(
            "storew-decompose",
            &["w", "i", "x"],
            "(storew w i x)",
            "(bis (mskwl w (mul64 2 i)) (inswl x (mul64 2 i)))",
        ),
        eq(
            "mskwl-bis",
            &["u", "v", "i"],
            "(mskwl (bis u v) i)",
            "(bis (mskwl u i) (mskwl v i))",
        ),
        eq(
            "mskwl-inswl-other",
            &["x", "j", "i"],
            "(mskwl (inswl x j) i)",
            "(inswl x j)",
        )
        .with_condition(&["i", "j"], "16-bit fields disjoint", words_disjoint),
        eq(
            "mskwl-extwl",
            &["w", "j", "i"],
            "(mskwl (extwl w j) i)",
            "(extwl w j)",
        )
        .with_condition(&["i"], "byte(i) != 0 and != 1", |vs| {
            (vs[0] & 7) > 1 && (vs[0] & 7) <= 6
        }),
        // inswl reads only the low 16 bits of its operand.
        eq(
            "inswl-low-word",
            &["x", "i"],
            "(inswl (castshort x) i)",
            "(inswl x i)",
        ),
        // Inserting at byte 0 is just the low-16-bit truncation.
        eq("inswl-zero", &["x"], "(inswl x 0)", "(castshort x)"),
        // extwl's result already fits 16 bits.
        eq(
            "castshort-extwl",
            &["w", "j"],
            "(castshort (extwl w j))",
            "(extwl w j)",
        ),
        // ---- zapnot / mask idioms ----
        eq("zapnot-byte", &["a"], "(and64 a 255)", "(zapnot a 1)"),
        eq("zapnot-word", &["a"], "(and64 a 65535)", "(zapnot a 3)"),
        eq(
            "zapnot-long",
            &["a"],
            "(and64 a 4294967295)",
            "(zapnot a 15)",
        ),
        eq("extbl-low", &["a"], "(and64 a 255)", "(extbl a 0)"),
        eq("extwl-low", &["a"], "(and64 a 65535)", "(extwl a 0)"),
        // ---- conditional move (if-then-else) ----
        eq(
            "cmovne-def",
            &["c", "a", "b"],
            "(ite c a b)",
            "(cmovne c a b)",
        ),
        eq(
            "cmoveq-def",
            &["c", "a", "b"],
            "(ite c a b)",
            "(cmoveq c b a)",
        ),
        // ---- sign extension ----
        eq("sextb-def", &["a"], "(sar64 (shl64 a 56) 56)", "(sextb a)"),
        eq("sextw-def", &["a"], "(sar64 (shl64 a 48) 48)", "(sextw a)"),
        // ---- 32-bit arithmetic ----
        eq(
            "addl-def",
            &["a", "b"],
            "(castint (add64 a b))",
            "(addl a b)",
        ),
        eq(
            "subl-def",
            &["a", "b"],
            "(castint (sub64 a b))",
            "(subl a b)",
        ),
        // ---- memory bridges ----
        eq("ldq-def", &["m", "p"], "(select m p)", "(ldq m p)"),
        eq("stq-def", &["m", "p", "x"], "(store m p x)", "(stq m p x)"),
    ]
}

/// The architectural axioms for the Itanium-flavored target (the
/// paper's in-progress port: "the changes will mostly be to the
/// axioms"). IA-64 has no byte-manipulation unit; its idioms are
/// shift-and-add (`shladd`), bit-field extract (`extr_u`), and deposit
/// (`dep_z`). The `log2` helper in the right-hand sides constant-folds
/// at instantiation time, turning matched masks into field widths.
pub fn ia64_axioms() -> Vec<Axiom> {
    vec![
        // ---- shared arithmetic/bitwise bridges ----
        eq("addq-def", &["a", "b"], "(add64 a b)", "(addq a b)"),
        eq("subq-def", &["a", "b"], "(sub64 a b)", "(subq a b)"),
        eq("mulq-def", &["a", "b"], "(mul64 a b)", "(mulq a b)"),
        eq("and-def", &["a", "b"], "(and64 a b)", "(and a b)"),
        eq("bis-def", &["a", "b"], "(or64 a b)", "(bis a b)"),
        eq("xor-def", &["a", "b"], "(xor64 a b)", "(xor a b)"),
        eq("not-ornot", &["a"], "(not64 a)", "(ornot 0 a)"),
        eq(
            "andcm-def",
            &["a", "b"],
            "(and64 a (not64 b))",
            "(andcm a b)",
        ),
        eq(
            "ornot-def",
            &["a", "b"],
            "(or64 a (not64 b))",
            "(ornot a b)",
        ),
        eq("sll-def", &["a", "b"], "(shl64 a b)", "(sll a b)"),
        eq("srl-def", &["a", "b"], "(shr64 a b)", "(srl a b)"),
        eq("sra-def", &["a", "b"], "(sar64 a b)", "(sra a b)"),
        eq("bis-id-r", &["a"], "(bis a 0)", "a"),
        eq("bis-id-l", &["a"], "(bis 0 a)", "a"),
        // ---- shift-and-add (subsumes the Alpha's s4addq/s8addq) ----
        eq(
            "shladd-def",
            &["a", "c", "b"],
            "(add64 (shl64 a c) b)",
            "(shladd a c b)",
        )
        .with_condition(&["c"], "1 <= c <= 4", shladd_count),
        // ---- bit-field extract: (w >> p) & (2^k - 1) ----
        eq(
            "extr-def",
            &["w", "p", "m"],
            "(and64 (shr64 w p) m)",
            "(extr_u w p (log2 (add64 m 1)))",
        )
        .with_condition(&["p", "m"], "p < 64, m = 2^k-1", low_mask_and_pos),
        // Extract at position 0 is a plain mask.
        eq(
            "extr-zero-def",
            &["w", "m"],
            "(and64 w m)",
            "(extr_u w 0 (log2 (add64 m 1)))",
        )
        .with_condition(&["m"], "m = 2^k-1", low_mask),
        // ---- bit-field deposit: (x & (2^k - 1)) << p ----
        eq(
            "dep-def",
            &["x", "p", "m"],
            "(shl64 (and64 x m) p)",
            "(dep_z x p (log2 (add64 m 1)))",
        )
        .with_condition(&["p", "m"], "p < 64, m = 2^k-1", low_mask_and_pos),
        // selectb/storeb reach machine form through the shift/mask math
        // axioms plus extr/dep; give selectb a direct route as well.
        eq(
            "selectb-extr",
            &["w", "i"],
            "(selectb w i)",
            "(extr_u w (mul64 8 i) 8)",
        ),
        // The Alpha's 16-bit extract, which a program may name: it reads
        // from bit 8·(i mod 8), and extr_u masks its position to 6 bits.
        eq(
            "extwl-extr",
            &["w", "i"],
            "(extwl w i)",
            "(extr_u w (mul64 8 i) 16)",
        ),
        // ---- conditional move and sign extension (same as Alpha) ----
        eq(
            "cmovne-def",
            &["c", "a", "b"],
            "(ite c a b)",
            "(cmovne c a b)",
        ),
        eq(
            "cmoveq-def",
            &["c", "a", "b"],
            "(ite c a b)",
            "(cmoveq c b a)",
        ),
        eq("sextb-def", &["a"], "(sar64 (shl64 a 56) 56)", "(sextb a)"),
        eq("sextw-def", &["a"], "(sar64 (shl64 a 48) 48)", "(sextw a)"),
        // ---- memory bridges ----
        eq("ldq-def", &["m", "p"], "(select m p)", "(ldq m p)"),
        eq("stq-def", &["m", "p", "x"], "(store m p x)", "(stq m p x)"),
    ]
}

/// The built-in axiom set for a machine, selected by its name:
/// `ia64like` gets the Itanium set, everything else (`ev6`,
/// `ev6-unclustered`, `single-issue`) the Alpha set — always after the
/// mathematical axioms. Each family's set is built on first use and
/// then shared for the life of the process: every call returns the
/// same [`Arc`].
pub fn axioms_for(machine_name: &str) -> Arc<AxiomSet> {
    static ALPHA: OnceLock<Arc<AxiomSet>> = OnceLock::new();
    static IA64: OnceLock<Arc<AxiomSet>> = OnceLock::new();
    let (set, architectural): (_, fn() -> Vec<Axiom>) = if machine_name.starts_with("ia64") {
        (&IA64, ia64_axioms)
    } else {
        (&ALPHA, alpha_axioms)
    };
    Arc::clone(set.get_or_init(|| {
        let mut axioms = math_axioms();
        axioms.extend(architectural());
        Arc::new(AxiomSet::new(axioms).expect("every built-in axiom fits a substitution"))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate::{saturate, SaturationLimits};
    use denali_egraph::EGraph;

    fn all_axioms() -> Arc<AxiomSet> {
        axioms_for("ev6")
    }

    #[test]
    fn axiom_names_are_unique() {
        let axioms = all_axioms();
        let axioms = axioms.axioms();
        for (i, a) in axioms.iter().enumerate() {
            for b in &axioms[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn patterns_bind_all_body_variables() {
        // Every trigger, not just one per axiom: a trigger that leaves a
        // body variable unbound would scan its candidates every round
        // and never fire.
        for machine in ["ev6", "ev6-unclustered", "ia64like", "single-issue"] {
            for axiom in axioms_for(machine).axioms() {
                for trigger in &axiom.patterns {
                    assert_eq!(
                        axiom.unbound_by(trigger),
                        None,
                        "{machine}: axiom {} trigger {trigger}",
                        axiom.name
                    );
                }
            }
        }
    }

    #[test]
    fn each_family_builds_its_set_once() {
        let ev6 = axioms_for("ev6");
        assert!(Arc::ptr_eq(&ev6, &axioms_for("ev6")));
        for alpha in ["ev6-unclustered", "single-issue"] {
            assert!(Arc::ptr_eq(&ev6, &axioms_for(alpha)), "{alpha}");
        }
        let ia64 = axioms_for("ia64like");
        assert!(Arc::ptr_eq(&ia64, &axioms_for("ia64like")));
        assert!(!Arc::ptr_eq(&ev6, &ia64));
        // The mathematical axioms first, then the architectural ones.
        let names = |axioms: &[Axiom]| axioms.iter().map(|a| a.name.clone()).collect::<Vec<_>>();
        let want = |architectural: Vec<Axiom>| names(&[math_axioms(), architectural].concat());
        assert_eq!(names(ev6.axioms()), want(alpha_axioms()));
        assert_eq!(names(ia64.axioms()), want(ia64_axioms()));
    }

    #[test]
    fn figure2_reaches_s4addq() {
        // The paper's Figure 2 walkthrough: reg6*4 + 1 must end up with
        // mul+add, shift+add, and s4addq ways.
        let mut eg = EGraph::new();
        let goal = eg.add_term(&pat("(add64 (mul64 reg6 4) 1)", &[])).unwrap();
        let mul = eg.lookup_term(&pat("(mul64 reg6 4)", &[])).unwrap();
        saturate(&mut eg, &all_axioms(), &SaturationLimits::default()).unwrap();
        let goal_ops = crate::saturate::class_ops(&eg, goal);
        assert!(goal_ops.contains(&"s4addq".to_owned()), "{goal_ops:?}");
        assert!(goal_ops.contains(&"addq".to_owned()), "{goal_ops:?}");
        let mul_ops = crate::saturate::class_ops(&eg, mul);
        assert!(mul_ops.contains(&"sll".to_owned()), "{mul_ops:?}");
        assert!(mul_ops.contains(&"mulq".to_owned()), "{mul_ops:?}");
    }

    #[test]
    fn five_term_sum_has_over_a_hundred_ways() {
        // §5: "more than a hundred different ways of computing
        // a + b + c + d + e".
        let mut eg = EGraph::new();
        let sum = eg
            .add_term(&pat("(add64 a (add64 b (add64 c (add64 d e))))", &[]))
            .unwrap();
        saturate(
            &mut eg,
            &AxiomSet::new(math_axioms()).unwrap(),
            &SaturationLimits {
                max_iterations: 24,
                max_nodes: 200_000,
                ..SaturationLimits::default()
            },
        )
        .unwrap();
        let ways = eg.count_ways(sum, 8);
        assert!(ways > 100, "only {ways} ways");
    }

    #[test]
    fn storeb_chain_discovers_insbl_extbl_bis() {
        // One byte store: storeb(0, 3, selectb(a, 0)) must become a
        // single insbl(a, 3).
        let mut eg = EGraph::new();
        let goal = eg
            .add_term(&pat("(storeb 0 3 (selectb a 0))", &[]))
            .unwrap();
        saturate(&mut eg, &all_axioms(), &SaturationLimits::default()).unwrap();
        let ops = crate::saturate::class_ops(&eg, goal);
        assert!(ops.contains(&"insbl".to_owned()), "{ops:?}");
        // And that insbl applies directly to `a`.
        let direct = eg.lookup_term(&pat("(insbl a 3)", &[])).unwrap();
        assert_eq!(eg.find(direct), eg.find(goal));
    }

    #[test]
    fn two_byte_store_chain_reduces() {
        // storeb(storeb(0, 0, selectb(a, 3)), 1, selectb(a, 2)):
        // the byteswap4 inner structure; must contain a bis of an extbl
        // and an insbl-of-extbl.
        let mut eg = EGraph::new();
        let goal = eg
            .add_term(&pat(
                "(storeb (storeb 0 0 (selectb a 3)) 1 (selectb a 2))",
                &[],
            ))
            .unwrap();
        saturate(&mut eg, &all_axioms(), &SaturationLimits::default()).unwrap();
        let ops = crate::saturate::class_ops(&eg, goal);
        assert!(ops.contains(&"bis".to_owned()), "{ops:?}");
        let extbl3 = eg.lookup_term(&pat("(extbl a 3)", &[])).unwrap();
        let inner = eg
            .lookup_term(&pat("(storeb 0 0 (selectb a 3))", &[]))
            .unwrap();
        assert_eq!(eg.find(inner), eg.find(extbl3), "inner store is one extbl");
    }
}
