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
//! * the built-in axiom sets: [`math_axioms`] and [`alpha_axioms`],
//! * [`saturate`] — the matching phase of Figure 1: repeatedly
//!   instantiate relevant axioms in the e-graph until quiescence (or a
//!   budget is exhausted; the paper's "heuristics that are designed to
//!   keep the matcher from running forever").
//!
//! # Example
//!
//! ```
//! use denali_axioms::{alpha_axioms, math_axioms, saturate, SaturationLimits};
//! use denali_egraph::EGraph;
//! use denali_term::Term;
//!
//! // Figure 2: saturate reg6*4 + 1 and find the s4addq way.
//! let mut eg = EGraph::new();
//! let goal = eg.add_term(&Term::call("add64", vec![
//!     Term::call("mul64", vec![Term::leaf("reg6"), Term::constant(4)]),
//!     Term::constant(1),
//! ])).unwrap();
//! let mut axioms = math_axioms();
//! axioms.extend(alpha_axioms());
//! saturate(&mut eg, &axioms, &SaturationLimits::default()).unwrap();
//! let ops: Vec<_> = eg.nodes(goal).iter().filter_map(|n| n.sym()).collect();
//! assert!(ops.iter().any(|s| s.as_str() == "s4addq"));
//! ```

mod axiom;
mod builtin;
mod saturate;

pub use axiom::AxiomPriority;
pub use axiom::{Axiom, AxiomBody, ParseAxiomError, SideCondition};
pub use builtin::{alpha_axioms, axioms_for, ia64_axioms, math_axioms};
pub use saturate::{
    class_ops, saturate, saturate_traced, RoundStats, SaturationLimits, SaturationReport,
};
