//! DIMACS CNF reading and writing.
//!
//! Denali's constraint generator can dump its SAT problems in the
//! standard DIMACS format so they can be compared with, or shipped to,
//! external solvers (the paper reports the DIMACS-style sizes of the
//! byteswap4 problems: 1639 variables / 4613 clauses for the 4-cycle
//! refutation up to 9203 / 26415 for the 8-cycle budget).

use std::fmt::Write as _;

use crate::lit::Lit;
use crate::solver::Solver;

/// A CNF formula in clausal form.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Cnf {
    /// Number of variables (variables are `0..num_vars`).
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Loads this formula into a fresh [`Solver`].
    pub fn to_solver(&self) -> Solver {
        let mut solver = Solver::new();
        solver.reserve_vars(self.num_vars);
        for c in &self.clauses {
            solver.add_clause(c.iter().copied());
        }
        solver
    }

    /// Renders the formula in DIMACS CNF format.
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }
}

/// Parses DIMACS CNF text.
///
/// # Errors
///
/// Returns a message for a missing/malformed problem line, literals out
/// of range, or clauses not terminated by `0`.
pub fn parse(text: &str) -> Result<Cnf, String> {
    let mut num_vars = None;
    let mut declared_clauses = 0usize;
    let mut clauses = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(format!("malformed problem line: {line}"));
            }
            num_vars = Some(
                parts[1]
                    .parse::<usize>()
                    .map_err(|e| format!("bad variable count: {e}"))?,
            );
            declared_clauses = parts[2]
                .parse::<usize>()
                .map_err(|e| format!("bad clause count: {e}"))?;
            continue;
        }
        let nv = num_vars.ok_or("clause before problem line")?;
        for tok in line.split_whitespace() {
            let value: i64 = tok.parse().map_err(|e| format!("bad literal {tok}: {e}"))?;
            if value == 0 {
                clauses.push(std::mem::take(&mut current));
            } else {
                let lit = Lit::from_dimacs(value).expect("nonzero");
                if lit.var().index() >= nv {
                    return Err(format!("literal {value} out of range (p cnf {nv} ..)"));
                }
                current.push(lit);
            }
        }
    }
    if !current.is_empty() {
        return Err("last clause not terminated by 0".to_owned());
    }
    let num_vars = num_vars.ok_or("missing problem line")?;
    if clauses.len() != declared_clauses {
        return Err(format!(
            "problem line declares {declared_clauses} clauses, found {}",
            clauses.len()
        ));
    }
    Ok(Cnf { num_vars, clauses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;
    use crate::SolveResult;

    #[test]
    fn round_trips() {
        let v0 = Var::from_index(0);
        let v1 = Var::from_index(1);
        let cnf = Cnf {
            num_vars: 2,
            clauses: vec![vec![Lit::pos(v0), Lit::neg(v1)], vec![Lit::pos(v1)]],
        };
        let text = cnf.to_dimacs();
        assert!(text.starts_with("p cnf 2 2"));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, cnf);
    }

    #[test]
    fn parses_comments_and_multi_clause_lines() {
        let cnf = parse("c header\np cnf 3 2\n1 -2 0 2 3 0\n").unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.clauses[0].len(), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("1 2 0").is_err());
        assert!(parse("p cnf x 1\n1 0").is_err());
        assert!(parse("p cnf 1 1\n2 0").is_err());
        assert!(parse("p cnf 1 2\n1 0").is_err());
        assert!(parse("p cnf 1 1\n1").is_err());
    }

    #[test]
    fn to_solver_solves() {
        let cnf = parse("p cnf 2 2\n1 2 0\n-1 0\n").unwrap();
        let mut s = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap()[1]);
    }
}
