//! E-matching: matching axiom patterns against the E-graph *modulo the
//! equivalence relation*.
//!
//! The paper (§5): "An ordinary matcher would fail to match the pattern
//! `k * 2**n` against the term-DAG node `reg6*4` because the node
//! labelled 4 is not of the form `2**n`, but an E-graph matcher will
//! search the equivalence class and find the node `2**2` and the match
//! will succeed."
//!
//! [`ematch`] scans every top-level candidate class; [`ematch_classes`]
//! and [`ematch_classes_with`] take the root classes from the caller
//! (saturation passes a pattern's [`candidates`]) and still search full
//! equivalence classes below the root. [`ematch_classes_with`] streams
//! its matches and stops when the caller says so.
//!
//! The matcher walks a stack of (pattern, class) goals depth first,
//! binding one [`Subst`] in place and undoing each binding on the way
//! back. A pattern's variables are numbered by a table the caller
//! passes (`vars`): slot `i` of every substitution binds `vars[i]`, so a
//! match is a fixed-size `Copy` value and no match allocates.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

use denali_term::{Op, Symbol, Term};

use crate::egraph::{ClassId, EGraph};
use crate::hash::SeededSet;

/// A substitution from numbered pattern variables to equivalence
/// classes.
///
/// Slot `i` binds the `i`-th variable of the table the match was made
/// with (for an axiom, its variable table). The value is a fixed array
/// of [`Subst::CAPACITY`] class ids plus a mask of the bound slots, 36
/// bytes in all, and copying it is a plain copy: it holds no symbols and
/// owns no heap memory. Unbound slots always hold class 0, so equal
/// bindings are equal values, and a substitution hashes as the 64-bit
/// words up to its last bound slot.
/// Every class the matcher binds is canonical in the e-graph it matched,
/// so a match is also its own dedup key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Subst {
    slots: [ClassId; Subst::CAPACITY],
    bound: u8,
}

impl Subst {
    /// Slots per substitution: the most variables one variable table
    /// may number. Every axiom in this repository has at most four.
    pub const CAPACITY: usize = 8;

    /// Creates an empty substitution.
    pub fn new() -> Subst {
        Subst {
            slots: [ClassId(0); Subst::CAPACITY],
            bound: 0,
        }
    }

    /// The class bound to `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<ClassId> {
        (slot < Subst::CAPACITY && self.bound & (1 << slot) != 0).then(|| self.slots[slot])
    }

    /// Binds `slot` to `class` (overwriting any existing binding).
    ///
    /// # Panics
    ///
    /// If `slot` is not below [`Subst::CAPACITY`].
    pub fn insert(&mut self, slot: usize, class: ClassId) {
        self.slots[slot] = class;
        self.bound |= 1 << slot;
    }

    /// Unbinds `slot`: the matcher's backtracking step.
    fn remove(&mut self, slot: usize) {
        self.slots[slot] = ClassId(0);
        self.bound &= !(1 << slot);
    }

    /// The bound slots and their classes, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, ClassId)> + '_ {
        (0..Subst::CAPACITY).filter_map(|slot| self.get(slot).map(|class| (slot, class)))
    }

    /// Number of bound slots.
    pub fn len(&self) -> usize {
        self.bound.count_ones() as usize
    }

    /// True if no slot is bound.
    pub fn is_empty(&self) -> bool {
        self.bound == 0
    }
}

impl Default for Subst {
    fn default() -> Subst {
        Subst::new()
    }
}

impl Hash for Subst {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Two slots per word, up to the last bound slot: the slots past
        // it hold class 0 in every equal value, and equality still
        // compares the mask.
        let used = Subst::CAPACITY - self.bound.leading_zeros() as usize;
        for pair in self.slots[..used.next_multiple_of(2)].chunks_exact(2) {
            state.write_u64(u64::from(pair[0].0) | u64::from(pair[1].0) << 32);
        }
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The slot that binds `var` under the table `vars`: its position there,
/// if that is below [`Subst::CAPACITY`].
pub(crate) fn slot(vars: &[Symbol], var: Symbol) -> Option<usize> {
    vars.iter().take(Subst::CAPACITY).position(|&v| v == var)
}

/// The top-level candidate classes for `pattern`, in sorted order.
///
/// Patterns headed by a symbol with arguments can only match classes
/// containing a node with that symbol (the operator index, see
/// [`index_key`]); other patterns (variables, constants, leaf symbols)
/// may match any class.
pub fn candidates(egraph: &EGraph, pattern: &Term) -> Vec<ClassId> {
    match index_key(pattern) {
        Some(sym) => egraph.classes_with_op(sym),
        None => egraph.classes(),
    }
}

/// The operator whose index lists `pattern`'s candidates: its head
/// symbol if it has arguments, `None` when every class is a candidate.
/// Patterns with the same key have the same [`candidates`].
pub fn index_key(pattern: &Term) -> Option<Symbol> {
    match pattern.op() {
        Op::Sym(sym) if !pattern.args().is_empty() => Some(sym),
        _ => None,
    }
}

/// Matches `pattern` anywhere in the e-graph.
///
/// Returns `(class, substitution)` pairs: the class the pattern's root
/// matched, and the variable bindings, slot `i` binding `vars[i]`.
/// Results are canonicalized and deduplicated, in candidate (sorted
/// class) order.
///
/// Patterns are [`Term`]s whose [`Op::Var`] leaves are the quantified
/// variables; a variable without a slot in `vars` (missing from its
/// first [`Subst::CAPACITY`] entries) matches nothing. Constant leaves
/// match any class whose known constant value equals the literal (so a
/// pattern `4` matches a class containing `pow(2, 2)` even if the
/// literal `4` node was added separately).
pub fn ematch(egraph: &EGraph, pattern: &Term, vars: &[Symbol]) -> Vec<(ClassId, Subst)> {
    ematch_classes(egraph, pattern, vars, &candidates(egraph, pattern))
}

/// Matches `pattern` with its root in each of `classes`, in the given
/// order. Callers pass canonical, deduplicated ids (e.g. a slice of
/// [`candidates`]); results are deduplicated per class.
pub fn ematch_classes(
    egraph: &EGraph,
    pattern: &Term,
    vars: &[Symbol],
    classes: &[ClassId],
) -> Vec<(ClassId, Subst)> {
    let mut out = Vec::new();
    let _ = ematch_classes_with(egraph, pattern, vars, classes, |class, subst| {
        out.push((class, subst));
        ControlFlow::Continue(())
    });
    out
}

/// Streams what [`ematch_classes`] returns, in the same order, to `f`
/// with each match's root class. One class is matched at a time and its
/// substitutions deduplicated before they are passed on. Stops, and
/// returns the break, as soon as `f` breaks; later classes are not
/// matched. The goal stack, the class's substitutions and the dedup set
/// are reused from class to class, so a class allocates nothing once
/// they have grown to its size.
pub fn ematch_classes_with(
    egraph: &EGraph,
    pattern: &Term,
    vars: &[Symbol],
    classes: &[ClassId],
    mut f: impl FnMut(ClassId, Subst) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut goals = Vec::new();
    let mut substs = Vec::new();
    let mut seen = SeededSet::default();
    for &class in classes {
        substs.clear();
        match_class(egraph, pattern, vars, class, &mut goals, &mut substs);
        dedup_keep_order(&mut substs, &mut seen);
        for &subst in &substs {
            f(class, subst)?;
        }
    }
    ControlFlow::Continue(())
}

/// Matches `pattern` against the members of one equivalence class.
pub fn ematch_in_class(
    egraph: &EGraph,
    pattern: &Term,
    vars: &[Symbol],
    class: ClassId,
) -> Vec<Subst> {
    let mut out = Vec::new();
    match_class(egraph, pattern, vars, class, &mut Vec::new(), &mut out);
    out
}

/// Appends to `out` every way `pattern` matches with its root in
/// `class`, using `goals` (empty, and left empty) as the goal stack.
fn match_class<'p>(
    egraph: &EGraph,
    pattern: &'p Term,
    vars: &[Symbol],
    class: ClassId,
    goals: &mut Vec<(&'p Term, ClassId)>,
    out: &mut Vec<Subst>,
) {
    goals.push((pattern, class));
    match_goals(egraph, vars, goals, &mut Subst::new(), &mut |subst| {
        out.push(*subst);
    });
    goals.pop();
}

/// Depth-first e-matching. Pops the top (pattern, class) goal, and for
/// each way it matches under `subst` solves the goals left below it;
/// `emit` sees `subst` once per way all of them match. A node's
/// children are pushed last to first, so the first child is solved
/// first: matches come out ordered by the node walked in each class and
/// then by the earlier children's matches, the order of threading a
/// list of substitutions through the children left to right. `goals`
/// and `subst` are as they were when this returns.
fn match_goals(
    egraph: &EGraph,
    vars: &[Symbol],
    goals: &mut Vec<(&Term, ClassId)>,
    subst: &mut Subst,
    emit: &mut impl FnMut(&Subst),
) {
    let Some((pattern, stored)) = goals.pop() else {
        emit(subst);
        return;
    };
    // Stored child ids may be stale between rebuilds.
    let class = egraph.find(stored);
    match pattern.op() {
        Op::Var(v) => {
            // A variable without a slot matches nothing.
            if let Some(i) = slot(vars, v) {
                match subst.get(i) {
                    Some(bound) => {
                        if egraph.find(bound) == class {
                            match_goals(egraph, vars, goals, subst, emit);
                        }
                    }
                    None => {
                        subst.insert(i, class);
                        match_goals(egraph, vars, goals, subst, emit);
                        subst.remove(i);
                    }
                }
            }
        }
        Op::Const(c) => {
            // A constant pattern matches via the constant analysis, so
            // classes folded to the value match even without a literal
            // node.
            if egraph.constant(class) == Some(c) {
                match_goals(egraph, vars, goals, subst, emit);
            }
        }
        Op::Sym(sym) => {
            // Walk the arena directly: no owned `ENode`s are built.
            let args = pattern.args();
            for &nid in egraph.class_node_ids(class) {
                if egraph.node_op(nid) != Op::Sym(sym) {
                    continue;
                }
                let children = egraph.node_children(nid);
                if children.len() != args.len() {
                    continue;
                }
                let below = goals.len();
                goals.extend(args.iter().zip(children.iter().copied()).rev());
                match_goals(egraph, vars, goals, subst, emit);
                goals.truncate(below);
            }
        }
    }
    goals.push((pattern, stored));
}

/// Removes duplicate substitutions, keeping first occurrences in order.
/// Equal bindings are equal values, so plain equality is the dedup key.
/// One class of a structural phase can yield tens of thousands of
/// substitutions, so a hash set keeps the pass linear; `seen` is that
/// set, kept by the caller so that its table is reused.
fn dedup_keep_order(substs: &mut Vec<Subst>, seen: &mut SeededSet<Subst>) {
    seen.clear();
    substs.retain(|&subst| seen.insert(subst));
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_prng::Rng;
    use denali_term::sexpr;

    fn t(s: &str, vars: &[&str]) -> Term {
        Term::from_sexpr(&sexpr::parse_one(s).unwrap(), &syms(vars)).unwrap()
    }

    fn syms(vars: &[&str]) -> Vec<Symbol> {
        vars.iter().map(|v| Symbol::intern(v)).collect()
    }

    /// [`ematch`] with the pattern's own variables, in preorder, as the
    /// table.
    fn ematch_own(egraph: &EGraph, pattern: &Term) -> Vec<(ClassId, Subst)> {
        ematch(egraph, pattern, &pattern.vars())
    }

    /// The original quadratic dedup, kept as the oracle for
    /// [`dedup_keep_order`].
    fn dedup_oracle(substs: &mut Vec<Subst>) {
        let mut i = 1;
        while i < substs.len() {
            if substs[..i].contains(&substs[i]) {
                substs.remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn assert_dedup_matches_oracle(substs: &[Subst]) {
        let mut expected = substs.to_vec();
        dedup_oracle(&mut expected);
        let mut got = substs.to_vec();
        dedup_keep_order(&mut got, &mut SeededSet::default());
        assert_eq!(got, expected, "input: {substs:?}");
    }

    #[test]
    fn dedup_keeps_first_occurrences_in_order() {
        // Distinct substitutions over two variables and eight classes.
        let mut eg = EGraph::new();
        let classes: Vec<ClassId> = (0..8)
            .map(|i| eg.add_term(&t(&format!("x{i}"), &[])).unwrap())
            .collect();
        let pool: Vec<Subst> = classes
            .iter()
            .flat_map(|&x| classes.iter().map(move |&y| (x, y)))
            .map(|(x, y)| {
                let mut s = Subst::new();
                s.insert(0, x);
                s.insert(1, y);
                s
            })
            .collect();
        let mut rng = Rng::new(15);
        for len in [0, 1, 2, 5, 16, 17, 40, 200] {
            let distinct: Vec<Subst> = (0..len)
                .map(|_| pool[rng.below(pool.len() as u64) as usize])
                .collect();
            assert_dedup_matches_oracle(&distinct);
            if len == 0 {
                continue;
            }
            // Duplicates at the start, at the end, and in runs.
            let mut at_start = vec![distinct[len - 1]; 3];
            at_start.extend(distinct.iter().copied());
            assert_dedup_matches_oracle(&at_start);
            let mut at_end = distinct.clone();
            at_end.extend(distinct[..len.min(3)].iter().copied());
            assert_dedup_matches_oracle(&at_end);
            let runs: Vec<Subst> = distinct
                .iter()
                .flat_map(|&s| std::iter::repeat_n(s, 1 + rng.below(3) as usize))
                .collect();
            assert_dedup_matches_oracle(&runs);
        }
    }

    #[test]
    fn dedup_matches_oracle_on_a_class_before_rebuild() {
        // One class holding h(x0) .. h(x23), with x0 = x12, x1 = x13, ...
        // merged but not rebuilt: the pattern (h v) yields 24
        // substitutions, and the pairs of congruent nodes yield equal
        // (non-adjacent) ones once v is canonicalized.
        let mut eg = EGraph::new();
        let n = 24;
        let hs: Vec<ClassId> = (0..n)
            .map(|i| eg.add_term(&t(&format!("(h x{i})"), &[])).unwrap())
            .collect();
        for pair in hs.windows(2) {
            eg.union(pair[0], pair[1]).unwrap();
        }
        for i in 0..n / 2 {
            let x = eg.lookup_term(&t(&format!("x{i}"), &[])).unwrap();
            let y = eg.lookup_term(&t(&format!("x{}", i + n / 2), &[])).unwrap();
            eg.union(x, y).unwrap();
        }
        let substs = ematch_in_class(&eg, &t("(h v)", &["v"]), &syms(&["v"]), hs[0]);
        assert_eq!(substs.len(), n);
        assert_dedup_matches_oracle(&substs);
        let mut deduped = substs.clone();
        dedup_keep_order(&mut deduped, &mut SeededSet::default());
        assert_eq!(deduped.len(), n / 2, "congruent pairs collapse");
    }

    #[test]
    fn matches_ground_pattern() {
        let mut eg = EGraph::new();
        let c = eg.add_term(&t("(add64 x y)", &[])).unwrap();
        let matches = ematch_own(&eg, &t("(add64 x y)", &[]));
        assert_eq!(matches.len(), 1);
        assert_eq!(eg.find(matches[0].0), eg.find(c));
    }

    #[test]
    fn binds_variables() {
        let mut eg = EGraph::new();
        eg.add_term(&t("(add64 x y)", &[])).unwrap();
        // Slots follow the table, not the pattern: b is slot 0.
        let matches = ematch(&eg, &t("(add64 a b)", &["a", "b"]), &syms(&["b", "a"]));
        assert_eq!(matches.len(), 1);
        let subst = &matches[0].1;
        let x = eg.lookup_term(&t("x", &[])).unwrap();
        let y = eg.lookup_term(&t("y", &[])).unwrap();
        assert_eq!(subst.get(1), Some(x));
        assert_eq!(subst.get(0), Some(y));
        assert_eq!(subst.len(), 2);
    }

    #[test]
    fn nonlinear_patterns_require_equal_classes() {
        let mut eg = EGraph::new();
        eg.add_term(&t("(add64 x y)", &[])).unwrap();
        let doubled = t("(add64 a a)", &["a"]);
        assert!(ematch_own(&eg, &doubled).is_empty());
        // After x = y the nonlinear pattern matches.
        let x = eg.lookup_term(&t("x", &[])).unwrap();
        let y = eg.lookup_term(&t("y", &[])).unwrap();
        eg.union(x, y).unwrap();
        eg.rebuild().unwrap();
        assert_eq!(ematch_own(&eg, &doubled).len(), 1);
    }

    #[test]
    fn matches_modulo_equivalence_like_figure2() {
        // The paper's key example: pattern (mul64 ?k (pow 2 ?n)) matches
        // reg6 * 4 because 4's class also contains pow(2, 2).
        let mut eg = EGraph::new();
        let mul = eg.add_term(&t("(mul64 reg6 4)", &[])).unwrap();
        let pattern = t("(mul64 k (pow 2 n))", &["k", "n"]);
        let vars = syms(&["k", "n"]);
        assert!(ematch(&eg, &pattern, &vars).is_empty(), "no pow node yet");
        eg.add_term(&t("(pow 2 2)", &[])).unwrap(); // folds into 4's class
        eg.rebuild().unwrap();
        let matches = ematch(&eg, &pattern, &vars);
        assert_eq!(matches.len(), 1);
        let (class, subst) = &matches[0];
        assert_eq!(eg.find(*class), eg.find(mul));
        let reg6 = eg.lookup_term(&t("reg6", &[])).unwrap();
        let two = eg.lookup_term(&Term::constant(2)).unwrap();
        assert_eq!(eg.find(subst.get(0).unwrap()), eg.find(reg6));
        assert_eq!(eg.find(subst.get(1).unwrap()), eg.find(two));
    }

    #[test]
    fn constant_pattern_matches_folded_class() {
        let mut eg = EGraph::new();
        eg.add_term(&t("(pow 2 3)", &[])).unwrap();
        let matches = ematch_own(&eg, &Term::constant(8));
        assert_eq!(matches.len(), 1);
        assert!(ematch_own(&eg, &Term::constant(9)).is_empty());
    }

    #[test]
    fn multiple_matches_in_one_class() {
        // add64(a, b) and add64(b, a) in the same class give two
        // substitutions for pattern add64(?x, ?y) on that class.
        let mut eg = EGraph::new();
        let ab = eg.add_term(&t("(add64 a b)", &[])).unwrap();
        let ba = eg.add_term(&t("(add64 b a)", &[])).unwrap();
        eg.union(ab, ba).unwrap();
        eg.rebuild().unwrap();
        let matches = ematch_in_class(&eg, &t("(add64 x y)", &["x", "y"]), &syms(&["x", "y"]), ab);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn arity_must_match() {
        let mut eg = EGraph::new();
        eg.add_term(&t("(f x)", &[])).unwrap();
        assert!(ematch_own(&eg, &t("(f a b)", &["a", "b"])).is_empty());
    }

    #[test]
    fn deduplicates_equivalent_matches() {
        let mut eg = EGraph::new();
        // f(x) added twice — hashconsed, so one node, one match.
        eg.add_term(&t("(f x)", &[])).unwrap();
        eg.add_term(&t("(f x)", &[])).unwrap();
        let matches = ematch_own(&eg, &t("(f a)", &["a"]));
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn deduplicates_matches_reached_through_different_nodes() {
        // Class of f(x)/f(y) with x = y: pattern (g (f ?a)) reaches the
        // binding a -> x through both (pre-canonicalization) nodes; one
        // substitution must survive.
        let mut eg = EGraph::new();
        eg.add_term(&t("(g (f x))", &[])).unwrap();
        eg.add_term(&t("(g (f y))", &[])).unwrap();
        let x = eg.lookup_term(&t("x", &[])).unwrap();
        let y = eg.lookup_term(&t("y", &[])).unwrap();
        eg.union(x, y).unwrap();
        eg.rebuild().unwrap();
        let matches = ematch_own(&eg, &t("(g (f a))", &["a"]));
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn subst_binds_numbered_slots_and_overwrites() {
        let mut s = Subst::new();
        let mut eg = EGraph::new();
        let x = eg.add_term(&t("x", &[])).unwrap();
        let y = eg.add_term(&t("y", &[])).unwrap();
        s.insert(5, x);
        s.insert(0, y);
        assert_eq!(s.len(), 2);
        assert_eq!((s.get(0), s.get(1), s.get(5)), (Some(y), None, Some(x)));
        assert_eq!(s.get(Subst::CAPACITY), None, "no slot past the capacity");
        assert_eq!(s.iter().collect::<Vec<_>>(), [(0, y), (5, x)]);
        s.insert(5, y);
        assert_eq!(s.get(5), Some(y));
        assert_eq!(s.len(), 2);
        // Unbinding leaves the value a fresh binding of the rest would
        // have, so equal bindings stay equal and hash alike.
        let mut fresh = Subst::new();
        fresh.insert(0, y);
        s.remove(5);
        assert_eq!(s, fresh);
        let state = crate::hash::SeededState::default();
        use std::hash::BuildHasher;
        assert_eq!(state.hash_one(s), state.hash_one(fresh));
        assert_eq!(format!("{s:?}"), format!("{{0: {y:?}}}"));
        assert!(Subst::new().is_empty());
        assert_eq!(std::mem::size_of::<Subst>(), 36);
    }

    #[test]
    fn a_variable_without_a_slot_matches_nothing() {
        let mut eg = EGraph::new();
        eg.add_term(&t("(f x y)", &[])).unwrap();
        let pattern = t("(f a b)", &["a", "b"]);
        assert!(ematch(&eg, &pattern, &syms(&["a"])).is_empty());
        // Only the first CAPACITY entries of a table number slots.
        let mut long = syms(&["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"]);
        long.extend(syms(&["a", "b"]));
        assert!(ematch(&eg, &pattern, &long).is_empty());
        long.drain(..2);
        assert_eq!(ematch(&eg, &pattern, &long).len(), 1);
    }

    #[test]
    fn given_roots_are_matched_through_the_classes_below() {
        let mut eg = EGraph::new();
        let mul = eg.add_term(&t("(mul64 reg6 4)", &[])).unwrap();
        eg.add_term(&t("(pow 2 2)", &[])).unwrap();
        eg.rebuild().unwrap();
        let pattern = t("(mul64 k (pow 2 n))", &["k", "n"]);
        let vars = pattern.vars();
        // The root is given: the match is found even though the
        // (pow 2 2) evidence sits below it, in the class of 4.
        let matches = ematch_classes(&eg, &pattern, &vars, &[eg.find(mul)]);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches, ematch(&eg, &pattern, &vars));
        // No roots given: nothing is scanned.
        assert!(ematch_classes(&eg, &pattern, &vars, &[]).is_empty());
    }

    #[test]
    fn streaming_stops_where_the_caller_breaks() {
        let mut eg = EGraph::new();
        for i in 0..6 {
            eg.add_term(&t(&format!("(f x{i})"), &[])).unwrap();
        }
        let pattern = t("(f a)", &["a"]);
        let vars = pattern.vars();
        let cands = candidates(&eg, &pattern);
        let all = ematch_classes(&eg, &pattern, &vars, &cands);
        assert_eq!(all.len(), 6);
        let mut seen = Vec::new();
        let flow = ematch_classes_with(&eg, &pattern, &vars, &cands, |class, subst| {
            seen.push((class, subst));
            if seen.len() == 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, all[..4]);
    }

    /// The matcher before the depth-first walk, kept as the order oracle
    /// for [`match_goals`]: it threads a list of substitutions through a
    /// node's children left to right.
    fn match_class_oracle(
        egraph: &EGraph,
        pattern: &Term,
        vars: &[Symbol],
        class: ClassId,
        subst: Subst,
        out: &mut Vec<Subst>,
    ) {
        match pattern.op() {
            Op::Var(v) => {
                let slot = vars.iter().position(|&w| w == v).unwrap();
                match subst.get(slot) {
                    Some(bound) => {
                        if egraph.find(bound) == class {
                            out.push(subst);
                        }
                    }
                    None => {
                        let mut subst = subst;
                        subst.insert(slot, class);
                        out.push(subst);
                    }
                }
            }
            Op::Const(c) => {
                if egraph.constant(class) == Some(c) {
                    out.push(subst);
                }
            }
            Op::Sym(sym) => {
                for &nid in egraph.class_node_ids(class) {
                    if egraph.node_op(nid) != Op::Sym(sym) {
                        continue;
                    }
                    let children = egraph.node_children(nid);
                    if children.len() != pattern.args().len() {
                        continue;
                    }
                    let mut partial = vec![subst];
                    for (child_pat, &child_class) in pattern.args().iter().zip(children) {
                        let mut next = Vec::new();
                        for s in partial {
                            match_class_oracle(
                                egraph,
                                child_pat,
                                vars,
                                egraph.find(child_class),
                                s,
                                &mut next,
                            );
                        }
                        partial = next;
                        if partial.is_empty() {
                            break;
                        }
                    }
                    out.extend(partial);
                }
            }
        }
    }

    /// Operators of the random e-graphs and patterns: `f` appears at
    /// two arities so that arity mismatches occur.
    const OPS: [(&str, usize); 3] = [("f", 1), ("f", 2), ("g", 2)];

    fn random_term(rng: &mut Rng, depth: usize, leaf: &mut dyn FnMut(&mut Rng) -> Term) -> Term {
        if depth == 0 || rng.below(3) == 0 {
            return leaf(rng);
        }
        let (op, arity) = OPS[rng.below(OPS.len() as u64) as usize];
        let args = (0..arity)
            .map(|_| random_term(rng, depth - 1, leaf))
            .collect();
        Term::call(op, args)
    }

    /// An e-graph of random ground terms over few leaves, with random
    /// unions, and every class id it handed out. Only some unions are
    /// followed by a rebuild, so nodes keep stale child ids and classes
    /// hold congruent duplicates.
    fn random_egraph(rng: &mut Rng) -> (EGraph, Vec<ClassId>) {
        let mut eg = EGraph::new();
        let mut ground = |rng: &mut Rng| match rng.below(3) {
            0 => Term::constant(rng.below(3)),
            _ => Term::leaf(format!("x{}", rng.below(3))),
        };
        for _ in 0..2 + rng.below(16) {
            eg.add_term(&random_term(rng, 3, &mut ground)).unwrap();
        }
        let ids = eg.classes();
        for _ in 0..rng.below(24) {
            let classes = eg.classes();
            let a = classes[rng.below(classes.len() as u64) as usize];
            let b = classes[rng.below(classes.len() as u64) as usize];
            // Two constants never meet, so no union is a contradiction.
            if eg.constant(a).is_some() && eg.constant(b).is_some() {
                continue;
            }
            eg.union(a, b).unwrap();
            if rng.below(2) == 0 {
                // Congruence may still equate two constants; the
                // matchers only read what is left.
                let _ = eg.rebuild();
            }
        }
        (eg, ids)
    }

    /// Patterns with repeated (non-linear) variables, constant and
    /// ground leaves, and nested operators.
    fn random_pattern(rng: &mut Rng) -> Term {
        let vars: Vec<Symbol> = ["a", "b", "c"].iter().map(|v| Symbol::intern(v)).collect();
        let mut leaf = |rng: &mut Rng| match rng.below(6) {
            0 => Term::constant(rng.below(3)),
            1 => Term::leaf(format!("x{}", rng.below(3))),
            _ => Term::var(vars[rng.below(vars.len() as u64) as usize]),
        };
        random_term(rng, 3, &mut leaf)
    }

    #[test]
    fn depth_first_walk_matches_the_threading_oracle_in_order() {
        denali_prng::forall(
            "depth_first_walk_matches_the_threading_oracle_in_order",
            1000,
            |rng| {
                let (eg, ids) = random_egraph(rng);
                // Slots in another order than the pattern's own.
                let vars = syms(&["c", "a", "b"]);
                for _ in 0..8 {
                    let pattern = random_pattern(rng);
                    for &class in &ids {
                        let mut expected = Vec::new();
                        match_class_oracle(
                            &eg,
                            &pattern,
                            &vars,
                            eg.find(class),
                            Subst::new(),
                            &mut expected,
                        );
                        let got = ematch_in_class(&eg, &pattern, &vars, class);
                        assert_eq!(got, expected, "pattern {pattern}, class {class:?}");
                    }
                }
            },
        );
    }
}
