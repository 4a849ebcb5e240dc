//! An axiom set: the axioms plus everything the matcher and the cache
//! key derive from them alone, worked out once when the set is built.

use std::fmt::{self, Write};

use denali_egraph::EGraphError;

use crate::axiom::{Axiom, AxiomBody, AxiomPriority};
use crate::saturate::{AxiomPlan, PhasePlan};

/// The axioms one compilation matches with, in order, and what
/// [`saturate`](crate::saturate) and the cache key read from them:
///
/// * per axiom, its variable table and the slots of its side
///   condition's variables;
/// * per saturation phase, its members (phase 1 every non-structural
///   axiom, phase 2 the structural ones and those whose right-hand side
///   is one operator over variables and constants) and its triggers,
///   each with its candidate list and whether it can fire;
/// * the key text ([`AxiomSet::key_text`]).
///
/// All of it is worked out by [`AxiomSet::new`], so saturating a GMA
/// plans nothing. The set owns everything it holds (`Send + Sync`), so
/// one set can be shared by every GMA and thread: each machine family's
/// built-in set is one process-wide value ([`axioms_for`](crate::axioms_for)).
pub struct AxiomSet {
    axioms: Vec<Axiom>,
    /// One per axiom.
    plans: Vec<AxiomPlan>,
    /// Phase 1, then phase 2.
    phases: [PhasePlan; 2],
    key_text: String,
}

impl AxiomSet {
    /// Builds the set: plans both saturation phases and renders the key
    /// text.
    ///
    /// # Errors
    ///
    /// A `TooManyVariables` error if an axiom, or its side condition,
    /// has more variables than a [`denali_egraph::Subst`] has slots.
    /// Only a programmatic axiom can: a parsed one with too many
    /// variables is a [`ParseAxiomError`](crate::ParseAxiomError).
    pub fn new(axioms: Vec<Axiom>) -> Result<AxiomSet, EGraphError> {
        let plans = axioms
            .iter()
            .map(AxiomPlan::new)
            .collect::<Result<Vec<_>, _>>()?;
        let phases = PhasePlan::both(&axioms, &plans);
        let mut key_text = String::new();
        for axiom in &axioms {
            write_key(&mut key_text, axiom);
        }
        Ok(AxiomSet {
            axioms,
            plans,
            phases,
            key_text,
        })
    }

    /// The axioms, in the order they were given.
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// How many axioms the set holds.
    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    /// True if the set holds no axiom.
    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }

    /// The set's part of a compilation's cache key: every axiom in
    /// order, each as `label=value;` fields — `axiom=` its name, one
    /// `var=` per declared variable, one `pat=` per trigger, the body
    /// (`eq.l=`/`eq.r=`, `ne.l=`/`ne.r=`, or per clause literal `lit=`
    /// `+`/`-`, `lit.l=`, `lit.r=`), `cond=` the side condition's
    /// description or `-`, and `priority=` `defining` or `structural`.
    /// Terms are written as their `Display` text.
    pub fn key_text(&self) -> &str {
        &self.key_text
    }

    /// The plan of axiom `i`.
    pub(crate) fn plan(&self, i: usize) -> &AxiomPlan {
        &self.plans[i]
    }

    /// The plans of saturation phases 1 and 2.
    pub(crate) fn phases(&self) -> &[PhasePlan; 2] {
        &self.phases
    }
}

impl fmt::Debug for AxiomSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AxiomSet")
            .field("axioms", &self.axioms)
            .finish_non_exhaustive()
    }
}

/// Appends `axiom`'s fields of the key text (see
/// [`AxiomSet::key_text`]).
fn write_key(out: &mut String, axiom: &Axiom) {
    let mut field = |label: &str, value: &dyn fmt::Display| {
        write!(out, "{label}={value};").expect("writing to a String cannot fail");
    };
    field("axiom", &axiom.name);
    for var in &axiom.vars {
        field("var", var);
    }
    for pattern in &axiom.patterns {
        field("pat", pattern);
    }
    match &axiom.body {
        AxiomBody::Equal(l, r) => {
            field("eq.l", l);
            field("eq.r", r);
        }
        AxiomBody::Distinct(l, r) => {
            field("ne.l", l);
            field("ne.r", r);
        }
        AxiomBody::Clause(lits) => {
            for (positive, l, r) in lits {
                field("lit", if *positive { &"+" } else { &"-" });
                field("lit.l", l);
                field("lit.r", r);
            }
        }
    }
    // A side condition's predicate is a function pointer; its
    // description is the stable identity (each built-in condition has a
    // distinct one).
    match &axiom.condition {
        Some(c) => field("cond", &c.description),
        None => field("cond", &"-"),
    }
    let priority = match axiom.priority {
        AxiomPriority::Defining => "defining",
        AxiomPriority::Structural => "structural",
    };
    field("priority", &priority);
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_egraph::EGraphErrorKind;
    use denali_term::{sexpr, Symbol, Term};

    fn pat(s: &str, vars: &[&str]) -> Term {
        let vars: Vec<Symbol> = vars.iter().map(|v| Symbol::intern(v)).collect();
        Term::from_sexpr(&sexpr::parse_one(s).unwrap(), &vars).unwrap()
    }

    #[test]
    fn a_nine_variable_axiom_is_a_typed_error() {
        let vars = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
        let wide = Axiom::equality(
            "f9-g9",
            &vars,
            pat("(f9 a b c d e f g h i)", &vars),
            pat("(g9 a b c d e f g h i)", &vars),
        );
        let err = AxiomSet::new(vec![wide]).unwrap_err();
        assert_eq!(err.kind(), EGraphErrorKind::TooManyVariables);
        assert!(err.to_string().contains("f9-g9"), "{err}");
    }

    #[test]
    fn the_key_text_renders_every_field_in_order() {
        let comm = Axiom::equality(
            "f-comm",
            &["a", "b"],
            pat("(f a b)", &["a", "b"]),
            pat("(f b a)", &["a", "b"]),
        )
        .structural();
        let clause = Axiom::parse_sexpr(
            &sexpr::parse_one("(axiom (forall (x y) (pats (h x y)) (or (eq x y) (ne x (g y)))))")
                .unwrap(),
            "h-clause",
        )
        .unwrap();
        let cond = Axiom::equality("k-id", &["k"], pat("(k k)", &["k"]), pat("k", &["k"]))
            .with_condition(&["k"], "k < 8", |vs| vs[0] < 8);
        let set = AxiomSet::new(vec![comm, clause, cond]).unwrap();
        assert_eq!(
            set.key_text(),
            concat!(
                "axiom=f-comm;var=a;var=b;pat=(f ?a ?b);eq.l=(f ?a ?b);eq.r=(f ?b ?a);",
                "cond=-;priority=structural;",
                "axiom=h-clause;var=x;var=y;pat=(h ?x ?y);lit=+;lit.l=?x;lit.r=?y;",
                "lit=-;lit.l=?x;lit.r=(g ?y);cond=-;priority=defining;",
                "axiom=k-id;var=k;pat=(k ?k);eq.l=(k ?k);eq.r=?k;cond=k < 8;priority=defining;",
            )
        );
    }

    #[test]
    fn a_set_is_shared_across_threads() {
        fn shareable<T: Send + Sync>() {}
        shareable::<AxiomSet>();
    }

    #[test]
    fn the_phases_split_the_set_by_priority_and_right_hand_side() {
        // Phase 1 skips the structural axiom; phase 2 skips the
        // expansion, whose right-hand side nests an operator.
        let set = AxiomSet::new(vec![
            Axiom::equality(
                "comm",
                &["a", "b"],
                pat("(f a b)", &["a", "b"]),
                pat("(f b a)", &["a", "b"]),
            )
            .structural(),
            Axiom::equality(
                "bridge",
                &["a"],
                pat("(g a)", &["a"]),
                pat("(h a 1)", &["a"]),
            ),
            Axiom::equality(
                "expand",
                &["a"],
                pat("(g a)", &["a"]),
                pat("(h (h a 1) 1)", &["a"]),
            ),
        ])
        .unwrap();
        let [phase1, phase2] = set.phases();
        assert_eq!(phase1.members, [1, 2]);
        assert_eq!(phase2.members, [0, 1]);
    }
}
