#![warn(missing_docs)]

//! The Denali code generator: matching + satisfiability search.
//!
//! This crate implements the "crucial inner subroutine" of the paper's
//! Figure 1, which translates a single guarded multi-assignment into
//! near-optimal machine code in two phases:
//!
//! 1. **Matching** ([`matcher`]) — the GMA's goal terms are loaded into
//!    an E-graph, which is saturated with the mathematical,
//!    architectural, and program-specific axioms until it "represents all
//!    possible ways of computing the terms" (§5–6).
//! 2. **Satisfiability search** ([`encode`], [`search`]) — for a cycle
//!    budget `K`, a propositional formula is generated whose models are
//!    exactly the legal `K`-cycle schedules (launch variables `L(i, T)`,
//!    availability variables `B(i, Q)` per cluster, plus the §7
//!    constraints: multiple issue, guard-before-unsafe-operations, and
//!    memory ordering). A SAT solver refutes the budget or yields a
//!    schedule; a search over `K` finds the smallest feasible budget and
//!    [`extract`] decodes the winning model into assembly, which is then
//!    re-validated and ready for simulation.
//!
//! The [`Denali`] façade runs the whole pipeline from source text.
//!
//! # Example
//!
//! ```
//! use denali_core::{Denali, Options};
//!
//! let denali = Denali::new(Options::default());
//! let result = denali
//!     .compile_source("(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))")
//!     .expect("compilation succeeds");
//! // Figure 2: reg6*4 + 1 is a single s4addq, so one cycle suffices.
//! assert_eq!(result.gmas[0].program.cycles(), 1);
//! ```

pub mod encode;
pub mod extract;
pub mod fingerprint;
pub mod machine_terms;
pub mod matcher;
pub mod search;

pub mod engine;

mod facade;

pub use engine::{AnytimeBest, AnytimeSlot, EngineChoice, StokeKnobs};
pub use facade::{
    CompileError, CompileResult, CompiledGma, Denali, Options, Prepared, SolverChoice, StokeRun,
};
pub use search::{DimacsDump, ProbeStats, SearchError, SearchOutcome, SearchParams};
