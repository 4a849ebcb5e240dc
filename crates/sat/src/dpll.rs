//! A deliberately simple DPLL solver.
//!
//! This is the "previous solver" in the paper's solver-substitution
//! story and the oracle for differential testing of the CDCL engine. It
//! does unit propagation and chronological backtracking, nothing else, so
//! it is easy to audit but exponential in practice.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::lit::{Lit, Var};

/// Result of a [`solve`] call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DpllResult {
    /// Satisfiable, with a witness assignment indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The solve was abandoned because the interrupt flag passed to
    /// [`solve_interruptible`] was raised. The answer is unknown.
    Interrupted,
}

impl DpllResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, DpllResult::Sat(_))
    }
}

/// Solves a CNF formula over `num_vars` variables by DPLL.
///
/// Clauses use the same [`Lit`] representation as the CDCL solver.
///
/// # Panics
///
/// Panics if a literal mentions a variable `>= num_vars`.
pub fn solve(num_vars: usize, clauses: &[Vec<Lit>]) -> DpllResult {
    solve_interruptible(num_vars, clauses, None)
}

/// As [`solve`], but checks `interrupt` every 1024 clause evaluations
/// (the same checkpoint cadence as the CDCL solver) and returns
/// [`DpllResult::Interrupted`] once the flag is raised — so a probe
/// past its deadline stops promptly instead of running to completion.
///
/// # Panics
///
/// Panics if a literal mentions a variable `>= num_vars`.
pub fn solve_interruptible(
    num_vars: usize,
    clauses: &[Vec<Lit>],
    interrupt: Option<&AtomicBool>,
) -> DpllResult {
    for c in clauses {
        for l in c {
            assert!(l.var().index() < num_vars, "literal out of range");
        }
    }
    let mut assignment: Vec<Option<bool>> = vec![None; num_vars];
    let mut steps = 0u32;
    match search(clauses, &mut assignment, interrupt, &mut steps) {
        Some(true) => DpllResult::Sat(assignment.into_iter().map(|a| a.unwrap_or(false)).collect()),
        Some(false) => DpllResult::Unsat,
        None => DpllResult::Interrupted,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ClauseState {
    Satisfied,
    Conflict,
    Unit(Lit),
    Open,
}

fn clause_state(clause: &[Lit], assignment: &[Option<bool>]) -> ClauseState {
    let mut unassigned = None;
    let mut unassigned_count = 0;
    for &l in clause {
        match assignment[l.var().index()] {
            Some(v) if v == l.is_pos() => return ClauseState::Satisfied,
            Some(_) => {}
            None => {
                unassigned = Some(l);
                unassigned_count += 1;
            }
        }
    }
    match unassigned_count {
        0 => ClauseState::Conflict,
        1 => ClauseState::Unit(unassigned.expect("one unassigned literal")),
        _ => ClauseState::Open,
    }
}

/// One DPLL node. `Some(sat?)` is an answer; `None` means the interrupt
/// flag was observed raised at a checkpoint and the search is abandoned
/// (partial assignments are not unwound — the caller discards them).
fn search(
    clauses: &[Vec<Lit>],
    assignment: &mut Vec<Option<bool>>,
    interrupt: Option<&AtomicBool>,
    steps: &mut u32,
) -> Option<bool> {
    // Unit propagation to fixpoint.
    let mut propagated: Vec<Var> = Vec::new();
    loop {
        let mut changed = false;
        for clause in clauses {
            // Cancellation checkpoint, amortized exactly like the CDCL
            // solver's: one relaxed load every 1024 clause evaluations.
            *steps += 1;
            if *steps >= 1024 {
                *steps = 0;
                if interrupt.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                    return None;
                }
            }
            match clause_state(clause, assignment) {
                ClauseState::Conflict => {
                    for &v in &propagated {
                        assignment[v.index()] = None;
                    }
                    return Some(false);
                }
                ClauseState::Unit(l) => {
                    assignment[l.var().index()] = Some(l.is_pos());
                    propagated.push(l.var());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    // Pick an unassigned variable; if none, the formula is satisfied
    // (every clause is Satisfied or vacuously Open with no unassigned —
    // impossible — so check explicitly).
    let branch = assignment.iter().position(|a| a.is_none());
    match branch {
        None => Some(true),
        Some(v) => {
            for value in [true, false] {
                assignment[v] = Some(value);
                match search(clauses, assignment, interrupt, steps) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
                assignment[v] = None;
            }
            for &v in &propagated {
                assignment[v.index()] = None;
            }
            Some(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var::from_index(i)
    }

    #[test]
    fn trivial_cases() {
        assert!(solve(0, &[]).is_sat());
        assert_eq!(solve(1, &[vec![]]), DpllResult::Unsat);
        assert!(solve(1, &[vec![Lit::pos(v(0))]]).is_sat());
        assert_eq!(
            solve(1, &[vec![Lit::pos(v(0))], vec![Lit::neg(v(0))]]),
            DpllResult::Unsat
        );
    }

    #[test]
    fn model_is_returned() {
        let r = solve(
            2,
            &[vec![Lit::pos(v(0)), Lit::pos(v(1))], vec![Lit::neg(v(0))]],
        );
        match r {
            DpllResult::Sat(m) => {
                assert!(!m[0]);
                assert!(m[1]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    fn pigeonhole(holes: usize) -> (usize, Vec<Vec<Lit>>) {
        let pigeons = holes + 1;
        let mut clauses = Vec::new();
        let var = |p: usize, h: usize| v(p * holes + h);
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        (pigeons * holes, clauses)
    }

    #[test]
    fn small_pigeonhole_unsat() {
        let (nv, clauses) = pigeonhole(2);
        assert_eq!(solve(nv, &clauses), DpllResult::Unsat);
    }

    #[test]
    fn raised_interrupt_abandons_solve() {
        let (nv, clauses) = pigeonhole(6);
        let flag = AtomicBool::new(true);
        assert_eq!(
            solve_interruptible(nv, &clauses, Some(&flag)),
            DpllResult::Interrupted
        );
        // Lowering the flag lets the same instance finish.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(
            solve_interruptible(nv, &clauses, Some(&flag)),
            DpllResult::Unsat
        );
    }

    #[test]
    fn unraised_interrupt_changes_nothing() {
        let (nv, clauses) = pigeonhole(3);
        let flag = AtomicBool::new(false);
        assert_eq!(
            solve_interruptible(nv, &clauses, Some(&flag)),
            DpllResult::Unsat
        );
    }
}
