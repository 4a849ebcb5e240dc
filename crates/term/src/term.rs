//! Immutable first-order terms.

use std::fmt;
use std::sync::Arc;

use crate::sexpr::Sexpr;
use crate::symbol::Symbol;

/// The head of a term: a function/leaf symbol, a 64-bit constant, or a
/// pattern variable.
///
/// Pattern variables only appear inside axiom patterns; ground terms (the
/// things the E-graph stores) never contain them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// An interned function or leaf symbol (`add64`, `reg6`, `M`, ...).
    Sym(Symbol),
    /// A 64-bit literal constant.
    Const(u64),
    /// A universally quantified pattern variable.
    Var(Symbol),
}

impl Op {
    /// Returns the symbol if this op is a function/leaf symbol.
    pub fn as_sym(self) -> Option<Symbol> {
        match self {
            Op::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the constant value if this op is a constant.
    pub fn as_const(self) -> Option<u64> {
        match self {
            Op::Const(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Sym(s) => write!(f, "{s}"),
            Op::Const(c) => write!(f, "{c}"),
            Op::Var(v) => write!(f, "?{v}"),
        }
    }
}

#[derive(PartialEq, Eq, Hash, Debug)]
struct TermNode {
    op: Op,
    args: Vec<Term>,
}

/// An immutable term: an [`Op`] applied to zero or more argument terms.
///
/// Terms are atomically reference-counted trees; cloning is O(1),
/// sharing across threads is free (the server's workers share one
/// configuration and its axioms), and equality and hashing are
/// structural.
///
/// # Example
///
/// ```
/// use denali_term::Term;
/// let t = Term::call("mul64", vec![Term::var("x"), Term::constant(4)]);
/// assert_eq!(t.args().len(), 2);
/// assert_eq!(t.to_string(), "(mul64 ?x 4)");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Term(Arc<TermNode>);

impl Term {
    /// Creates a term from an op and arguments.
    pub fn new(op: Op, args: Vec<Term>) -> Term {
        Term(Arc::new(TermNode { op, args }))
    }

    /// Creates a nullary leaf term from a symbol (a register, memory, or
    /// other input name).
    pub fn leaf(sym: impl Into<Symbol>) -> Term {
        Term::new(Op::Sym(sym.into()), Vec::new())
    }

    /// Creates a constant term.
    pub fn constant(value: u64) -> Term {
        Term::new(Op::Const(value), Vec::new())
    }

    /// Creates a pattern variable term.
    pub fn var(name: impl Into<Symbol>) -> Term {
        Term::new(Op::Var(name.into()), Vec::new())
    }

    /// Creates an application of the named function to `args`.
    pub fn call(name: impl Into<Symbol>, args: Vec<Term>) -> Term {
        Term::new(Op::Sym(name.into()), args)
    }

    /// The head operator.
    pub fn op(&self) -> Op {
        self.0.op
    }

    /// The argument subterms.
    pub fn args(&self) -> &[Term] {
        &self.0.args
    }

    /// Returns the constant value if this term is a literal constant.
    pub fn as_const(&self) -> Option<u64> {
        self.0.op.as_const()
    }

    /// True if this term or any subterm is a pattern variable.
    pub fn has_vars(&self) -> bool {
        matches!(self.0.op, Op::Var(_)) || self.0.args.iter().any(Term::has_vars)
    }

    /// Collects the distinct pattern variables in preorder.
    pub fn vars(&self) -> Vec<Symbol> {
        fn go(t: &Term, out: &mut Vec<Symbol>) {
            if let Op::Var(v) = t.op() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            for a in t.args() {
                go(a, out);
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    /// Substitutes pattern variables using `lookup`; variables for which
    /// `lookup` returns `None` are left in place.
    pub fn substitute(&self, lookup: &impl Fn(Symbol) -> Option<Term>) -> Term {
        match self.op() {
            Op::Var(v) => lookup(v).unwrap_or_else(|| self.clone()),
            op => {
                let args = self.args().iter().map(|a| a.substitute(lookup)).collect();
                Term::new(op, args)
            }
        }
    }

    /// Number of nodes in the term tree.
    pub fn size(&self) -> usize {
        1 + self.args().iter().map(Term::size).sum::<usize>()
    }

    /// Parses a term from an s-expression.
    ///
    /// Atoms that parse as integers become constants; atoms listed in
    /// `vars` become pattern variables; other atoms become leaf symbols.
    /// A list `(f a b ...)` becomes an application of `f`.
    ///
    /// # Errors
    ///
    /// Returns a message if the s-expression has an empty list or a
    /// non-atom head.
    pub fn from_sexpr(sexpr: &Sexpr, vars: &[Symbol]) -> Result<Term, String> {
        match sexpr {
            Sexpr::Atom(a) => {
                if let Some(c) = parse_integer(a) {
                    Ok(Term::constant(c))
                } else {
                    let sym = Symbol::intern(a);
                    if vars.contains(&sym) {
                        Ok(Term::var(sym))
                    } else {
                        Ok(Term::leaf(sym))
                    }
                }
            }
            Sexpr::List(items) => {
                let (head, rest) = items
                    .split_first()
                    .ok_or_else(|| "empty list is not a term".to_owned())?;
                let Sexpr::Atom(name) = head else {
                    return Err(format!("term head must be an atom, got {head}"));
                };
                let args = rest
                    .iter()
                    .map(|s| Term::from_sexpr(s, vars))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Term::call(Symbol::intern(name), args))
            }
        }
    }
}

/// Parses a decimal (`42`, `-8`) or hexadecimal (`0xff`) integer atom into
/// its two's-complement 64-bit value.
pub fn parse_integer(atom: &str) -> Option<u64> {
    if let Some(hex) = atom.strip_prefix("0x").or_else(|| atom.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).ok();
    }
    if let Some(rest) = atom.strip_prefix('-') {
        if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        return rest.parse::<i64>().ok().map(|v| (-v) as u64);
    }
    if atom.is_empty() || !atom.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    atom.parse::<u64>().ok()
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.args().is_empty() {
            write!(f, "{}", self.op())
        } else {
            write!(f, "({}", self.op())?;
            for a in self.args() {
                write!(f, " {a}")?;
            }
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goal() -> Term {
        // reg6*4 + 1 from the paper's Figure 2.
        Term::call(
            "add64",
            vec![
                Term::call("mul64", vec![Term::leaf("reg6"), Term::constant(4)]),
                Term::constant(1),
            ],
        )
    }

    #[test]
    fn display_round_trip_shape() {
        assert_eq!(goal().to_string(), "(add64 (mul64 reg6 4) 1)");
    }

    #[test]
    fn structural_equality() {
        assert_eq!(goal(), goal());
        assert_ne!(goal(), Term::constant(1));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(goal().size(), 5);
        assert_eq!(Term::constant(3).size(), 1);
    }

    #[test]
    fn vars_collects_in_preorder_without_dups() {
        let t = Term::call(
            "f",
            vec![
                Term::var("x"),
                Term::call("g", vec![Term::var("y"), Term::var("x")]),
            ],
        );
        let vs = t.vars();
        assert_eq!(vs, vec![Symbol::intern("x"), Symbol::intern("y")]);
        assert!(t.has_vars());
        assert!(!goal().has_vars());
    }

    #[test]
    fn substitute_replaces_vars_only() {
        let pat = Term::call("mul64", vec![Term::var("k"), Term::constant(4)]);
        let inst = pat.substitute(&|v| (v == Symbol::intern("k")).then(|| Term::leaf("reg6")));
        assert_eq!(inst.to_string(), "(mul64 reg6 4)");
        assert!(!inst.has_vars());
    }

    #[test]
    fn from_sexpr_parses_constants_vars_and_calls() {
        let s = crate::sexpr::parse("(add64 (mul64 k 4) 0xff)").unwrap();
        let k = Symbol::intern("k");
        let t = Term::from_sexpr(&s[0], &[k]).unwrap();
        assert_eq!(t.to_string(), "(add64 (mul64 ?k 4) 255)");
    }

    #[test]
    fn from_sexpr_rejects_empty_list() {
        let s = crate::sexpr::parse("()").unwrap();
        assert!(Term::from_sexpr(&s[0], &[]).is_err());
    }

    #[test]
    fn parse_integer_handles_negative_and_hex() {
        assert_eq!(parse_integer("42"), Some(42));
        assert_eq!(parse_integer("-1"), Some(u64::MAX));
        assert_eq!(parse_integer("0xFF"), Some(255));
        assert_eq!(parse_integer("x"), None);
        assert_eq!(parse_integer("1e3"), None);
        assert_eq!(parse_integer("-"), None);
    }
}
