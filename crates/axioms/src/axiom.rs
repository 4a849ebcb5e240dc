//! The axiom representation and the paper's LISP-like axiom syntax.

use std::fmt;

use denali_egraph::Subst;
use denali_term::{Op, Sexpr, Symbol, Term};

/// What an axiom asserts once instantiated.
#[derive(Clone, Debug)]
pub enum AxiomBody {
    /// `lhs = rhs`: instantiate both sides and merge their classes.
    Equal(Term, Term),
    /// `lhs ≠ rhs`: instantiate both sides and constrain their classes
    /// to be uncombinable.
    Distinct(Term, Term),
    /// A disjunction of equality (`true`) / distinction (`false`)
    /// literals, recorded in the e-graph for deferred unit assertion.
    Clause(Vec<(bool, Term, Term)>),
}

/// A predicate over the constant values bound to pattern variables.
///
/// Side conditions implement, for ground constants, facts that would
/// otherwise need clause plumbing: e.g. the byte-index disequality `i ≠ j`
/// guarding `mskbl(insbl(x, j), i) = insbl(x, j)`.
#[derive(Clone)]
pub struct SideCondition {
    /// Variables whose classes must have known constant values.
    pub vars: Vec<Symbol>,
    /// Predicate applied to the constants, in `vars` order.
    pub pred: fn(&[u64]) -> bool,
    /// Human-readable description for diagnostics.
    pub description: &'static str,
}

impl fmt::Debug for SideCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SideCondition({})", self.description)
    }
}

/// How eagerly the matcher should instantiate an axiom.
///
/// *Defining* axioms give meaning to operations (architectural
/// definitions, algebraic identities with a clear direction) and are
/// instantiated freely. *Structural* axioms (commutativity,
/// associativity) permute and regroup existing terms; unchecked they
/// make saturation diverge, so the engine budgets them per round — one
/// of the paper's "heuristics that are designed to keep the matcher
/// from running forever".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AxiomPriority {
    /// Instantiate freely.
    #[default]
    Defining,
    /// Instantiate under the per-round structural budget.
    Structural,
}

/// A quantified fact used by the matcher.
///
/// `patterns` are the triggers (the paper's `pats`): the matcher looks
/// for instances of each pattern in the e-graph, and every match that
/// binds all the axiom's variables (and passes the side condition)
/// produces an instantiation of the body.
#[derive(Clone, Debug)]
pub struct Axiom {
    /// Diagnostic name (e.g. `"add64-comm"`).
    pub name: String,
    /// The quantified variables.
    pub vars: Vec<Symbol>,
    /// Trigger patterns.
    pub patterns: Vec<Term>,
    /// The asserted fact.
    pub body: AxiomBody,
    /// Optional constraint on matched constants.
    pub condition: Option<SideCondition>,
    /// Instantiation priority.
    pub priority: AxiomPriority,
}

impl Axiom {
    /// Builds an unconditional equality axiom with the left-hand side as
    /// its trigger pattern.
    pub fn equality(name: &str, vars: &[&str], lhs: Term, rhs: Term) -> Axiom {
        Axiom {
            name: name.to_owned(),
            vars: vars.iter().map(|v| Symbol::intern(v)).collect(),
            patterns: vec![lhs.clone()],
            body: AxiomBody::Equal(lhs, rhs),
            condition: None,
            priority: AxiomPriority::Defining,
        }
    }

    /// Marks the axiom as structural (budgeted instantiation).
    pub fn structural(mut self) -> Axiom {
        self.priority = AxiomPriority::Structural;
        self
    }

    /// Adds a side condition.
    pub fn with_condition(
        mut self,
        vars: &[&str],
        description: &'static str,
        pred: fn(&[u64]) -> bool,
    ) -> Axiom {
        self.condition = Some(SideCondition {
            vars: vars.iter().map(|v| Symbol::intern(v)).collect(),
            pred,
            description,
        });
        self
    }

    /// Adds an extra trigger pattern.
    pub fn with_pattern(mut self, pattern: Term) -> Axiom {
        self.patterns.push(pattern);
        self
    }

    /// Every variable mentioned by the body.
    pub fn body_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for term in self.body_terms() {
            for_each_var(term, &mut |v| {
                if !out.contains(&v) {
                    out.push(v);
                }
            });
        }
        out
    }

    /// The terms of the body: both sides of each literal, in order.
    pub(crate) fn body_terms(&self) -> impl Iterator<Item = &Term> {
        let (pair, lits) = match &self.body {
            AxiomBody::Equal(l, r) | AxiomBody::Distinct(l, r) => (Some([l, r]), &[][..]),
            AxiomBody::Clause(lits) => (None, &lits[..]),
        };
        let lits = lits.iter().flat_map(|(_, l, r)| [l, r]);
        pair.into_iter().flatten().chain(lits)
    }

    /// The axiom's variables, numbered: slot `i` of a match's [`Subst`]
    /// binds entry `i`. [`Axiom::vars`] come first, then any other
    /// variable a trigger or the body uses (a programmatic axiom need not
    /// list them all), in order of first use.
    pub(crate) fn var_table(&self) -> Vec<Symbol> {
        let mut table = self.vars.clone();
        for term in self.patterns.iter().chain(self.body_terms()) {
            for_each_var(term, &mut |v| {
                if !table.contains(&v) {
                    table.push(v);
                }
            });
        }
        table
    }

    /// The first body variable that `trigger` does not bind, if any.
    /// Every match of such a trigger leaves that variable unbound, so
    /// the trigger can never instantiate the body.
    pub(crate) fn unbound_by(&self, trigger: &Term) -> Option<Symbol> {
        let bound = trigger.vars();
        self.body_vars().into_iter().find(|v| !bound.contains(v))
    }

    /// Parses an axiom from the paper's LISP-like syntax:
    ///
    /// ```text
    /// (\axiom (forall (a b) (pats (carry a b))
    ///   (eq (carry a b) (\cmpult (\add64 a b) a))))
    /// ```
    ///
    /// The `pats` group is optional (the left-hand side of the body's
    /// first literal is used by default), as is the quantifier (ground
    /// axioms are allowed). The body may be `(eq l r)`, `(ne l r)`, or
    /// `(or literal...)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAxiomError`] on malformed input, for a `forall` of
    /// more than [`Subst::CAPACITY`] variables, and for a trigger, given
    /// or defaulted, that does not bind every variable of the body (it
    /// could never fire).
    pub fn parse_sexpr(form: &Sexpr, name: &str) -> Result<Axiom, ParseAxiomError> {
        let form = form.strip_backslashes();
        let items = form
            .as_list()
            .ok_or_else(|| ParseAxiomError::new("axiom must be a list"))?;
        // Accept both `(axiom ...)` and the bare `...` payload.
        let payload: &[Sexpr] = match items.first() {
            Some(head) if head.is_keyword("axiom") => &items[1..],
            _ => items,
        };
        let [body] = payload else {
            return Err(ParseAxiomError::new(format!(
                "axiom must contain exactly one form, found {}",
                payload.len()
            )));
        };

        let (vars, pats, body_form) = match body.as_list() {
            Some(parts) if parts.first().is_some_and(|h| h.is_keyword("forall")) => {
                let [_, var_list, rest @ ..] = parts else {
                    return Err(ParseAxiomError::new("malformed forall"));
                };
                let vars = var_list
                    .as_list()
                    .ok_or_else(|| ParseAxiomError::new("forall variables must be a list"))?
                    .iter()
                    .map(|v| {
                        v.as_atom()
                            .map(Symbol::intern)
                            .ok_or_else(|| ParseAxiomError::new("variable must be an atom"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if vars.len() > Subst::CAPACITY {
                    return Err(ParseAxiomError::new(format!(
                        "forall declares {} variables; an axiom may have at most {}",
                        vars.len(),
                        Subst::CAPACITY
                    )));
                }
                match rest {
                    [pats_form, body_form]
                        if pats_form
                            .as_list()
                            .and_then(|l| l.first())
                            .is_some_and(|h| h.is_keyword("pats")) =>
                    {
                        let pats = pats_form.as_list().expect("checked")[1..]
                            .iter()
                            .map(|p| Term::from_sexpr(p, &vars))
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(ParseAxiomError::new)?;
                        (vars, pats, body_form)
                    }
                    [body_form] => (vars, Vec::new(), body_form),
                    _ => return Err(ParseAxiomError::new("malformed forall body")),
                }
            }
            _ => (Vec::new(), Vec::new(), body),
        };

        let body = parse_body(body_form, &vars)?;
        let mut patterns = pats;
        if patterns.is_empty() {
            // Default trigger: the left-hand side of the first literal.
            let default = match &body {
                AxiomBody::Equal(l, _) | AxiomBody::Distinct(l, _) => l.clone(),
                AxiomBody::Clause(lits) => lits
                    .first()
                    .ok_or_else(|| ParseAxiomError::new("empty clause"))?
                    .1
                    .clone(),
            };
            patterns.push(default);
        }
        let axiom = Axiom {
            name: name.to_owned(),
            vars,
            patterns,
            body,
            condition: None,
            priority: AxiomPriority::Defining,
        };
        for trigger in &axiom.patterns {
            if let Some(var) = axiom.unbound_by(trigger) {
                return Err(ParseAxiomError::new(format!(
                    "trigger {trigger} does not bind ?{var}, so it could never fire; \
                     give a (pats ...) that binds every variable of the body"
                )));
            }
        }
        Ok(axiom)
    }
}

/// Calls `f` on each variable occurrence of `term`, in preorder.
pub(crate) fn for_each_var(term: &Term, f: &mut impl FnMut(Symbol)) {
    if let Op::Var(v) = term.op() {
        f(v);
    }
    for arg in term.args() {
        for_each_var(arg, f);
    }
}

fn parse_body(form: &Sexpr, vars: &[Symbol]) -> Result<AxiomBody, ParseAxiomError> {
    let items = form
        .as_list()
        .ok_or_else(|| ParseAxiomError::new("axiom body must be a list"))?;
    let head = items
        .first()
        .and_then(Sexpr::as_atom)
        .ok_or_else(|| ParseAxiomError::new("axiom body must start with eq/ne/or"))?;
    let terms = |rest: &[Sexpr]| -> Result<Vec<Term>, ParseAxiomError> {
        rest.iter()
            .map(|s| Term::from_sexpr(s, vars).map_err(ParseAxiomError::new))
            .collect()
    };
    match head {
        "eq" | "ne" => {
            let ts = terms(&items[1..])?;
            let [l, r] = ts.as_slice() else {
                return Err(ParseAxiomError::new(format!("{head} needs two terms")));
            };
            Ok(if head == "eq" {
                AxiomBody::Equal(l.clone(), r.clone())
            } else {
                AxiomBody::Distinct(l.clone(), r.clone())
            })
        }
        "or" => {
            let mut lits = Vec::new();
            for lit in &items[1..] {
                let parts = lit
                    .as_list()
                    .ok_or_else(|| ParseAxiomError::new("clause literal must be a list"))?;
                let lhead = parts
                    .first()
                    .and_then(Sexpr::as_atom)
                    .ok_or_else(|| ParseAxiomError::new("literal must start with eq/ne"))?;
                let ts = terms(&parts[1..])?;
                let [l, r] = ts.as_slice() else {
                    return Err(ParseAxiomError::new("literal needs two terms"));
                };
                match lhead {
                    "eq" => lits.push((true, l.clone(), r.clone())),
                    "ne" => lits.push((false, l.clone(), r.clone())),
                    other => {
                        return Err(ParseAxiomError::new(format!(
                            "unknown literal head {other}"
                        )))
                    }
                }
            }
            Ok(AxiomBody::Clause(lits))
        }
        other => Err(ParseAxiomError::new(format!("unknown axiom body {other}"))),
    }
}

/// Axiom syntax error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseAxiomError {
    message: String,
}

impl ParseAxiomError {
    fn new(message: impl Into<String>) -> ParseAxiomError {
        ParseAxiomError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseAxiomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseAxiomError {}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_term::sexpr;

    fn parse(text: &str) -> Axiom {
        Axiom::parse_sexpr(&sexpr::parse_one(text).unwrap(), "test").unwrap()
    }

    #[test]
    fn parses_figure6_carry_axiom() {
        let ax = parse(
            "(\\axiom (forall (a b) (pats (carry a b))
               (eq (carry a b) (\\cmpult (\\add64 a b) a))))",
        );
        assert_eq!(ax.vars.len(), 2);
        assert_eq!(ax.patterns.len(), 1);
        assert_eq!(ax.patterns[0].to_string(), "(carry ?a ?b)");
        match &ax.body {
            AxiomBody::Equal(l, r) => {
                assert_eq!(l.to_string(), "(carry ?a ?b)");
                assert_eq!(r.to_string(), "(cmpult (add64 ?a ?b) ?a)");
            }
            other => panic!("expected equality, got {other:?}"),
        }
    }

    #[test]
    fn default_pattern_is_lhs() {
        let ax = parse("(axiom (forall (a b) (eq (add a b) (add b a))))");
        assert_eq!(ax.patterns.len(), 1);
        assert_eq!(ax.patterns[0].to_string(), "(add ?a ?b)");
    }

    #[test]
    fn parses_ground_axiom() {
        let ax = parse("(axiom (eq (f x) (g x)))");
        assert!(ax.vars.is_empty());
        assert!(!ax.patterns[0].has_vars());
    }

    #[test]
    fn parses_clause_and_distinction() {
        let ax = parse(
            "(axiom (forall (a i j x)
               (pats (select (store a i x) j))
               (or (eq i j)
                   (eq (select (store a i x) j) (select a j)))))",
        );
        match &ax.body {
            AxiomBody::Clause(lits) => {
                assert_eq!(lits.len(), 2);
                assert!(lits[0].0);
            }
            other => panic!("expected clause, got {other:?}"),
        }
        let ne = parse("(axiom (forall (x) (ne (f x) (g x))))");
        assert!(matches!(ne.body, AxiomBody::Distinct(_, _)));
    }

    #[test]
    fn rejects_malformed_axioms() {
        let bad = [
            "(axiom)",
            "(axiom (zz a b))",
            "(axiom (eq a))",
            "(axiom (forall x (eq a b)))",
        ];
        for text in bad {
            let form = sexpr::parse_one(text).unwrap();
            assert!(Axiom::parse_sexpr(&form, "bad").is_err(), "{text}");
        }
    }

    #[test]
    fn body_vars_collects_from_all_literals() {
        let ax = parse("(axiom (forall (a b c) (pats (h a b c)) (or (eq a b) (ne b c))))");
        assert_eq!(ax.body_vars().len(), 3);
    }

    #[test]
    fn rejects_triggers_that_leave_a_body_variable_unbound() {
        // Defaulted triggers (the first literal's left side) and given
        // ones alike: each error names the trigger and the variable.
        let cases = [
            (
                "(axiom (forall (a b c) (or (eq a b) (ne b c))))",
                "?a",
                "?b",
            ),
            ("(axiom (forall (a b) (eq a (f a b))))", "?a", "?b"),
            (
                "(axiom (forall (x y) (pats (f (g x) y) (g x)) (eq (f (g x) y) x)))",
                "(g ?x)",
                "?y",
            ),
        ];
        for (text, trigger, var) in cases {
            let form = sexpr::parse_one(text).unwrap();
            let err = Axiom::parse_sexpr(&form, "bad").unwrap_err().to_string();
            assert!(
                err.contains(&format!("trigger {trigger} ")) && err.contains(var),
                "{text}: {err}"
            );
        }
        // A trigger that binds the whole body is accepted, even a bare
        // variable.
        parse("(axiom (forall (x y) (pats (f (g x) y)) (eq (f (g x) y) x)))");
        parse("(axiom (forall (a) (eq a (g a))))");
    }

    #[test]
    fn a_forall_holds_at_most_a_substitutions_worth_of_variables() {
        let eight = parse("(axiom (forall (a b c d e f g h) (eq (f8 a b c d e f g h) a)))");
        assert_eq!(eight.var_table().len(), Subst::CAPACITY);
        let nine = "(axiom (forall (a b c d e f g h i) (eq (f9 a b c d e f g h i) a)))";
        let err = Axiom::parse_sexpr(&sexpr::parse_one(nine).unwrap(), "nine").unwrap_err();
        assert!(err.to_string().contains("9 variables"), "{err}");
    }

    #[test]
    fn the_variable_table_lists_declared_variables_then_the_rest() {
        // A programmatic axiom may use variables it does not declare.
        let ax = Axiom::equality(
            "t",
            &["y"],
            Term::call("f", vec![Term::var("x"), Term::var("y")]),
            Term::call("g", vec![Term::var("z")]),
        );
        let names: Vec<String> = ax.var_table().iter().map(|v| v.to_string()).collect();
        assert_eq!(names, ["y", "x", "z"]);
    }

    #[test]
    fn builder_helpers() {
        let ax = Axiom::equality(
            "t",
            &["x"],
            Term::call("f", vec![Term::var("x")]),
            Term::var("x"),
        )
        .with_pattern(Term::var("x"))
        .with_condition(&["x"], "x != 0", |vs| vs[0] != 0);
        assert_eq!(ax.patterns.len(), 2);
        assert!(ax.condition.is_some());
        assert!(!format!("{ax:?}").is_empty());
    }
}
