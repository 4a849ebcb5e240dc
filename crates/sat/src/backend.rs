//! Pluggable solver backends.
//!
//! The paper stresses that Denali's architecture "separates this solver
//! so effectively from the rest of the code generator that we can easily
//! substitute the current champion satisfiability solver". This module
//! is that seam made explicit: [`SolverBackend`] captures the interface
//! the search layer needs (incremental variable/clause creation through
//! its [`ClauseSink`] supertrait, assumption solving, interrupts,
//! model/failed-assumption extraction, work counters), and both engines
//! in this crate implement it — the CDCL [`Solver`] natively, and the
//! naive DPLL engine through the [`DpllSolver`] adapter. The code
//! generator's live encoding (`denali_core::encode::IncrementalEncoding`)
//! is generic over this trait, so every probe of a search, under either
//! engine, goes through it. A conformance suite in
//! `tests/backend_conformance.rs` runs the same scenarios against both.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::dpll::{self, DpllResult};
use crate::lit::{Lit, Var};
use crate::sink::ClauseSink;
use crate::solver::{SolveResult, Solver, SolverStats};

/// The solving interface the search's probes are written against: the
/// seam where one SAT engine substitutes for another.
///
/// Contract notes, pinned by the conformance suite:
/// - [`SolverBackend::solve_under`] with an empty slice is
///   [`SolverBackend::solve`].
/// - After an UNSAT-under-assumptions verdict,
///   [`SolverBackend::failed_assumptions`] is a subset of the assumption
///   slice (backends may over-approximate up to the full slice, never
///   invent literals).
/// - After a SAT verdict, [`SolverBackend::model_value`] is `Some` for
///   every variable created before the solve and the assignment
///   satisfies every added clause and assumption.
/// - A raised interrupt flag turns an in-flight solve into
///   [`SolveResult::Interrupted`] and leaves the backend reusable.
pub trait SolverBackend: ClauseSink {
    /// Solves the current clause set.
    fn solve(&mut self) -> SolveResult;
    /// Solves the current clause set under temporary assumptions.
    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult;
    /// Installs a cancellation flag checked during solves.
    fn set_interrupt(&mut self, flag: Arc<AtomicBool>);
    /// The last model's value for `var`, or `None` without a model.
    fn model_value(&self, var: Var) -> Option<bool>;
    /// After UNSAT under assumptions: the assumptions the refutation
    /// depended on.
    fn failed_assumptions(&self) -> &[Lit];
    /// Work counters for the lifetime of this backend.
    fn stats(&self) -> SolverStats;
}

impl SolverBackend for Solver {
    fn solve(&mut self) -> SolveResult {
        Solver::solve(self)
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        Solver::solve_under(self, assumptions)
    }

    fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        Solver::set_interrupt(self, flag);
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        Solver::model_value(self, var)
    }

    fn failed_assumptions(&self) -> &[Lit] {
        Solver::failed_assumptions(self)
    }

    fn stats(&self) -> SolverStats {
        Solver::stats(self)
    }
}

/// [`SolverBackend`] adapter over the naive [`dpll`] engine.
///
/// The DPLL solver is a pure function over a clause list, so this
/// wrapper owns the incremental state: it stores clauses as they are
/// added and re-solves from scratch on every call, with assumptions
/// appended as temporary unit clauses. `failed_assumptions` reports the
/// whole assumption slice (a valid over-approximation — DPLL performs no
/// conflict analysis to narrow it). Search counters in
/// [`SolverStats`] stay zero; only the instance gauges (`vars`,
/// `clauses`, `solves`) are tracked.
#[derive(Clone, Default, Debug)]
pub struct DpllSolver {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    model: Option<Vec<bool>>,
    failed: Vec<Lit>,
    interrupt: Option<Arc<AtomicBool>>,
    stats: SolverStats,
}

impl DpllSolver {
    /// Creates an empty solver.
    pub fn new() -> DpllSolver {
        DpllSolver::default()
    }
}

impl ClauseSink for DpllSolver {
    fn new_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars);
        self.num_vars += 1;
        self.stats.vars = self.num_vars as u64;
        var
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        for l in lits {
            assert!(
                l.var().index() < self.num_vars,
                "unknown variable in clause"
            );
        }
        self.clauses.push(lits.to_vec());
        self.stats.clauses += 1;
    }
}

impl SolverBackend for DpllSolver {
    fn solve(&mut self) -> SolveResult {
        self.solve_under(&[])
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        for a in assumptions {
            assert!(
                a.var().index() < self.num_vars,
                "unknown variable in assumption"
            );
        }
        self.stats.solves += 1;
        self.model = None;
        self.failed.clear();
        let mut clauses = self.clauses.clone();
        clauses.extend(assumptions.iter().map(|&a| vec![a]));
        match dpll::solve_interruptible(self.num_vars, &clauses, self.interrupt.as_deref()) {
            DpllResult::Sat(model) => {
                self.model = Some(model);
                SolveResult::Sat
            }
            DpllResult::Unsat => {
                self.failed = assumptions.to_vec();
                SolveResult::Unsat
            }
            DpllResult::Interrupted => SolveResult::Interrupted,
        }
    }

    fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        self.model
            .as_ref()
            .and_then(|m| m.get(var.index()).copied())
    }

    fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }
}
