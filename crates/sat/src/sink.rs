//! Where an encoder writes a formula.
//!
//! An encoder that only creates variables and adds clauses can write
//! into a [`Cnf`] (to dump it as DIMACS, measure it or load it later)
//! or straight into a [`Solver`], with the same calls in the same
//! order. Loading the [`Cnf`] with [`Cnf::to_solver`] then gives a
//! solver that takes the same steps as the one filled directly: both
//! see the same clauses in the same order, and at decision level zero
//! adding a clause never depends on variables created after it.

use crate::dimacs::Cnf;
use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// A formula under construction: fresh variables, numbered densely from
/// zero, and clauses over them. Every [`SolverBackend`] is one.
///
/// [`SolverBackend`]: crate::SolverBackend
pub trait ClauseSink {
    /// Creates a fresh variable.
    fn new_var(&mut self) -> Var;
    /// Adds a clause over existing variables.
    fn add_clause(&mut self, lits: &[Lit]);
}

impl ClauseSink for Cnf {
    fn new_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars);
        self.num_vars += 1;
        var
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        Solver::add_clause(self, lits.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    /// A small formula written through `sink`: an implication chain
    /// with a unit, a ternary clause and a clause over a variable
    /// created after the unit.
    fn write(sink: &mut impl ClauseSink) {
        let a = sink.new_var();
        let b = sink.new_var();
        sink.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        sink.add_clause(&[Lit::pos(a)]);
        let c = sink.new_var();
        sink.add_clause(&[Lit::neg(b), Lit::neg(c), Lit::pos(a)]);
        sink.add_clause(&[Lit::pos(c), Lit::neg(b)]);
    }

    #[test]
    fn direct_and_loaded_solvers_agree() {
        let mut cnf = Cnf::new();
        write(&mut cnf);
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 4);
        let mut direct = Solver::new();
        write(&mut direct);
        let mut loaded = cnf.to_solver();
        assert_eq!(direct.solve(), SolveResult::Sat);
        assert_eq!(loaded.solve(), SolveResult::Sat);
        assert_eq!(direct.stats(), loaded.stats());
        assert_eq!(direct.model(), loaded.model());
    }
}
