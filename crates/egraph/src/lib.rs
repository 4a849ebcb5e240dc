#![warn(missing_docs)]

//! The E-graph: Denali's representation of *all* the ways to compute a
//! set of goal terms.
//!
//! From the paper (§5): "An E-graph is a conventional term DAG augmented
//! with an equivalence relation on the nodes of the DAG; two nodes are
//! equivalent if the terms they represent are identical in value. [...]
//! Thus an E-graph of size O(n) can represent Θ(2^n) distinct ways of
//! computing a term of size n."
//!
//! This crate provides:
//!
//! * [`EGraph`] — hash-consed e-nodes, a union-find over equivalence
//!   classes, and congruence closure (the Downey–Sethi–Tarjan invariant
//!   maintained with a repair worklist),
//! * e-matching ([`ematch`]) — matching axiom patterns *modulo the
//!   equivalence relation*, the operation that lets Denali find
//!   `k * 2**n` inside `reg6 * 4`,
//! * *distinctions* — pairs of classes constrained to be uncombinable
//!   (the paper's `T ≠ U` facts),
//! * *clauses* — disjunctions of equality/distinction literals whose
//!   untenable literals are deleted until a surviving unit literal is
//!   asserted (the select/store example of §5),
//! * analyses — constant folding through the operation semantics (this
//!   is how the fact `4 = 2**2` becomes discoverable) and a base+offset
//!   analysis that proves disequalities like `p ≠ p + 8`,
//! * [`EGraph::count_ways`] — counting the distinct computations the
//!   graph represents (the paper's "more than a hundred different ways
//!   of computing a + b + c + d + e"),
//! * [`SeededMap`] / [`SeededSet`] — hash maps keyed by a per-process
//!   seeded multiply hasher, used on the hashcons, congruence repair
//!   and match dedup paths.
//!
//! # Example
//!
//! ```
//! use denali_egraph::EGraph;
//! use denali_term::Term;
//!
//! let mut eg = EGraph::new();
//! let four = eg.add_term(&Term::constant(4)).unwrap();
//! let pow = eg.add_term(&Term::call("pow", vec![Term::constant(2), Term::constant(2)])).unwrap();
//! eg.rebuild().unwrap();
//! // Constant folding discovered 2**2 = 4 on its own.
//! assert_eq!(eg.find(four), eg.find(pow));
//! ```

mod egraph;
mod ematch;
mod hash;
mod ways;

pub use egraph::{
    ClassId, EGraph, EGraphError, EGraphErrorKind, ENode, EqLiteral, MemoryStats, NodeId, OpCounts,
    SliceId,
};
pub use ematch::{
    candidates, ematch, ematch_classes, ematch_classes_with, ematch_in_class, index_key, Subst,
};
pub use hash::{SeededHasher, SeededMap, SeededSet, SeededState};
