#![warn(missing_docs)]

//! A from-scratch CDCL SAT solver.
//!
//! The Denali paper uses the CHAFF solver and stresses that "the
//! architecture of Denali separates this solver so effectively from the
//! rest of the code generator that we can easily substitute the current
//! champion satisfiability solver". This crate plays CHAFF's role: a
//! conflict-driven clause-learning solver with two-watched-literal
//! propagation, VSIDS branching, first-UIP clause learning with
//! minimization, phase saving, Luby restarts, and LBD-based learned-clause
//! reduction.
//!
//! A deliberately naive DPLL solver ([`dpll`]) is included both for
//! differential testing and to reproduce the paper's point that the SAT
//! engine is swappable (see the solver-substitution benchmark).
//!
//! # Example
//!
//! ```
//! use denali_sat::{Solver, Lit, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause([Lit::pos(a), Lit::pos(b)]);
//! solver.add_clause([Lit::neg(a)]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert!(solver.model().unwrap()[b.index()]);
//! ```

pub mod backend;
pub mod dimacs;
pub mod dpll;
mod heap;
mod lit;
mod sink;
mod solver;

pub use backend::{DpllSolver, SolverBackend};
pub use lit::{Lit, Var};
pub use sink::ClauseSink;
pub use solver::{SolveResult, Solver, SolverStats};
