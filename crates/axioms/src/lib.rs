#![warn(missing_docs)]

//! Axioms and the matching (saturation) engine.
//!
//! The paper (§4) distinguishes *mathematical axioms* ("facts about
//! functions and relations that would be useful in describing many
//! different target architectures") from *architectural axioms* ("define
//! or describe operations relevant to a particular target architecture"),
//! plus *program-specific axioms* embedded in Denali source programs.
//!
//! This crate provides:
//!
//! * [`Axiom`] — quantified equalities, distinctions, and clauses with
//!   explicit trigger patterns (the paper's `pats`) and optional side
//!   conditions over matched constants,
//! * parsing of the paper's LISP-like axiom syntax
//!   ([`Axiom::parse_sexpr`]),
//! * [`AxiomSet`] — the axioms one compilation matches with, plus what
//!   the matcher and the serve cache key derive from them alone (each
//!   axiom's variable table, each saturation phase's members and
//!   triggers, the key text), worked out once when the set is built,
//! * the built-in axioms: [`math_axioms`], [`alpha_axioms`] and
//!   [`ia64_axioms`], and [`axioms_for`], which hands out a machine
//!   family's built-in set — built on first use, then shared by the
//!   whole process,
//! * [`saturate`] — the matching phase of Figure 1: repeatedly
//!   instantiate relevant axioms in the e-graph until quiescence (or a
//!   budget is exhausted; the paper's "heuristics that are designed to
//!   keep the matcher from running forever").
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use denali_axioms::{axioms_for, saturate, Axiom, AxiomSet, SaturationLimits};
//! use denali_egraph::EGraph;
//! use denali_term::{sexpr, Term};
//!
//! // Figure 2: saturate reg6*4 + 1 and find the s4addq way.
//! let mut eg = EGraph::new();
//! let goal = eg.add_term(&Term::call("add64", vec![
//!     Term::call("mul64", vec![Term::leaf("reg6"), Term::constant(4)]),
//!     Term::constant(1),
//! ])).unwrap();
//! let ev6 = axioms_for("ev6"); // the Alpha set, shared by the process
//! assert!(Arc::ptr_eq(&ev6, &axioms_for("ev6-unclustered")));
//! saturate(&mut eg, &ev6, &SaturationLimits::default()).unwrap();
//! let ops: Vec<_> = eg.nodes(goal).iter().filter_map(|n| n.sym()).collect();
//! assert!(ops.iter().any(|s| s.as_str() == "s4addq"));
//!
//! // A program's own axiom goes after the built-ins, in a set of its own.
//! let form = sexpr::parse_one(
//!     "(axiom (forall (a b) (eq (carry a b) (cmpult (add64 a b) a))))",
//! ).unwrap();
//! let mut axioms = ev6.axioms().to_vec();
//! axioms.push(Axiom::parse_sexpr(&form, "carry-def").unwrap());
//! let with_carry = AxiomSet::new(axioms).unwrap();
//! assert_eq!(with_carry.len(), ev6.len() + 1);
//! // Its cache-key text is the built-ins' followed by its own axiom's.
//! assert!(with_carry.key_text().starts_with(ev6.key_text()));
//! assert!(with_carry.key_text().ends_with(
//!     "eq.r=(cmpult (add64 ?a ?b) ?a);cond=-;priority=defining;"
//! ));
//! ```

mod axiom;
mod builtin;
mod saturate;
mod set;

pub use axiom::AxiomPriority;
pub use axiom::{Axiom, AxiomBody, ParseAxiomError, SideCondition};
pub use builtin::{alpha_axioms, axioms_for, ia64_axioms, math_axioms};
pub use saturate::{
    class_ops, saturate, saturate_traced, RoundStats, SaturationLimits, SaturationReport,
};
pub use set::AxiomSet;
