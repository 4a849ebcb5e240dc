//! `SolverBackend` conformance suite.
//!
//! Every scenario runs against both engines — the CDCL [`Solver`] and
//! the DPLL adapter — through the trait object interface, so the search
//! layer can treat backends as interchangeable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use denali_sat::{DpllSolver, Lit, SolveResult, Solver, SolverBackend, Var};

/// Runs `scenario` against every backend implementation.
fn for_each_backend(mut scenario: impl FnMut(&mut dyn SolverBackend, &str)) {
    scenario(&mut Solver::new(), "cdcl");
    scenario(&mut DpllSolver::new(), "dpll");
}

fn vars(s: &mut dyn SolverBackend, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

/// holes+1 pigeons into `holes` holes: UNSAT, with real search.
fn add_pigeonhole(s: &mut dyn SolverBackend, holes: usize) {
    let pigeons = holes + 1;
    let v: Vec<Vec<Var>> = (0..pigeons).map(|_| vars(s, holes)).collect();
    for row in &v {
        let row: Vec<Lit> = row.iter().map(|&x| Lit::pos(x)).collect();
        s.add_clause(&row);
    }
    for h in 0..holes {
        for (p1, first) in v.iter().enumerate() {
            for second in &v[p1 + 1..] {
                s.add_clause(&[Lit::neg(first[h]), Lit::neg(second[h])]);
            }
        }
    }
}

#[test]
fn empty_problem_is_sat() {
    for_each_backend(|s, name| {
        assert_eq!(s.solve(), SolveResult::Sat, "{name}");
    });
}

#[test]
fn units_force_the_model() {
    for_each_backend(|s, name| {
        let v = vars(s, 2);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[1])]);
        assert_eq!(s.solve(), SolveResult::Sat, "{name}");
        assert_eq!(s.model_value(v[0]), Some(true), "{name}");
        assert_eq!(s.model_value(v[1]), Some(false), "{name}");
    });
}

#[test]
fn model_satisfies_every_clause() {
    for_each_backend(|s, name| {
        let v = vars(s, 4);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(v[0]), Lit::pos(v[1])],
            vec![Lit::neg(v[0]), Lit::pos(v[2])],
            vec![Lit::neg(v[1]), Lit::neg(v[2]), Lit::pos(v[3])],
            vec![Lit::neg(v[3]), Lit::neg(v[0])],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat, "{name}");
        for c in &clauses {
            assert!(
                c.iter().any(|l| s.model_value(l.var()) == Some(l.is_pos())),
                "{name}: model violates {c:?}"
            );
        }
    });
}

#[test]
fn pigeonhole_is_unsat() {
    for_each_backend(|s, name| {
        add_pigeonhole(s, 3);
        assert_eq!(s.solve(), SolveResult::Unsat, "{name}");
    });
}

#[test]
fn solve_under_honors_assumptions_and_is_temporary() {
    for_each_backend(|s, name| {
        let v = vars(s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        assert_eq!(
            s.solve_under(&[Lit::neg(v[0]), Lit::neg(v[2])]),
            SolveResult::Sat,
            "{name}"
        );
        assert_eq!(s.model_value(v[0]), Some(false), "{name}");
        assert_eq!(s.model_value(v[1]), Some(true), "{name}");
        assert_eq!(s.model_value(v[2]), Some(false), "{name}");
        // The assumptions do not persist: the opposite set works next.
        assert_eq!(s.solve_under(&[Lit::neg(v[1])]), SolveResult::Sat, "{name}");
    });
}

#[test]
fn failed_assumptions_are_a_subset_and_solver_stays_usable() {
    for_each_backend(|s, name| {
        let v = vars(s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        let assumptions = [Lit::neg(v[0]), Lit::neg(v[1])];
        assert_eq!(s.solve_under(&assumptions), SolveResult::Unsat, "{name}");
        for f in s.failed_assumptions() {
            assert!(assumptions.contains(f), "{name}: {f:?} never assumed");
        }
        // UNSAT under assumptions must not poison the instance.
        assert_eq!(s.solve(), SolveResult::Sat, "{name}");
        assert_eq!(s.solve_under(&[Lit::neg(v[0])]), SolveResult::Sat, "{name}");
        assert_eq!(s.model_value(v[1]), Some(true), "{name}");
    });
}

#[test]
fn raised_interrupt_abandons_and_backend_recovers() {
    for_each_backend(|s, name| {
        add_pigeonhole(s, 6);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Arc::clone(&flag));
        assert_eq!(s.solve(), SolveResult::Interrupted, "{name}");
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Unsat, "{name}");
    });
}

#[test]
fn stats_track_instance_gauges() {
    for_each_backend(|s, name| {
        let v = vars(s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        s.solve();
        s.solve();
        let stats = s.stats();
        assert_eq!(stats.vars, 3, "{name}");
        assert_eq!(stats.clauses, 2, "{name}");
        assert_eq!(stats.solves, 2, "{name}");
    });
}

#[test]
fn backends_agree_on_random_instances() {
    // Differential check through the trait: both engines must return the
    // same verdict on deterministic random 3-SAT instances.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..16 {
        let n = 12;
        let m = 48;
        let clauses: Vec<Vec<Lit>> = (0..m)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let v = Var::from_index((rand() % n as u64) as usize);
                        Lit::new(v, rand() % 2 == 0)
                    })
                    .collect()
            })
            .collect();
        let mut verdicts = Vec::new();
        for_each_backend(|s, name| {
            vars(s, n);
            for c in &clauses {
                s.add_clause(c);
            }
            verdicts.push((name.to_owned(), s.solve()));
        });
        let (_, first) = &verdicts[0];
        for (name, verdict) in &verdicts {
            assert_eq!(verdict, first, "round {round}: {name} disagrees");
        }
    }
}
