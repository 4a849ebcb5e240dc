//! The CDCL solver.
//!
//! # Binary clauses
//!
//! Most clauses of the code generator's formulas have two literals. A
//! watcher of a binary clause carries a tag, and its blocker is always
//! the clause's other literal, so `propagate` settles it from the
//! watcher alone: the blocker is true (satisfied), undefined (implied,
//! with the clause as its reason) or false (a conflict). It never reads
//! the clause arena for it, and it never rewrites the clause's literal
//! order, which the propagation of a longer clause does to keep its
//! watched pair in positions 0 and 1 and its implied literal in
//! position 0.
//!
//! The readers of clause literals follow from that. A binary conflict
//! reaches `analyze` as the pair (blocker, watched literal), which is
//! the order a rewrite to positions 0 and 1 would leave: the order in
//! which `analyze` bumps and learns those literals, and so every later
//! step, depends on it. `analyze` and `analyze_final` skip a reason's
//! implied variable rather than its position 0, because a binary reason
//! may hold its implied literal in either position. `reduce_learned`
//! tags the watchers it rebuilds. `pinned_instances_take_the_same_steps`
//! pins the counters of three solves, recorded when binary clauses were
//! propagated through the arena.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::heap::VarHeap;
use crate::lit::{Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model`].
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The solve was abandoned because the interrupt flag installed with
    /// [`Solver::set_interrupt`] was raised. The answer is unknown; the
    /// solver remains usable (state is reset to decision level zero) and
    /// a later [`Solver::solve`] may be attempted.
    Interrupted,
}

/// Counters describing the work a solve performed.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SolverStats {
    /// Number of decision variables assigned by branching.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses currently retained.
    pub learned: u64,
    /// Number of problem variables.
    pub vars: u64,
    /// Number of problem (non-learned) clauses added.
    pub clauses: u64,
    /// Number of [`Solver::solve`] / [`Solver::solve_under`] calls made
    /// on this solver so far.
    pub solves: u64,
    /// Learned clauses retained from *previous* solve calls when the
    /// most recent call started — the incremental-reuse payoff.
    pub carried_learned: u64,
    /// Variables whose VSIDS activity was non-zero when the most recent
    /// solve call started (branching heat carried across calls).
    pub carried_activity: u64,
}

impl SolverStats {
    /// The work performed since `before` was captured: monotone work
    /// counters are subtracted, while gauges describing current solver
    /// state (`learned`, `vars`, `clauses`, `solves`, `carried_*`) are
    /// reported as-is.
    #[must_use]
    pub fn since(&self, before: SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions - before.decisions,
            propagations: self.propagations - before.propagations,
            conflicts: self.conflicts - before.conflicts,
            restarts: self.restarts - before.restarts,
            ..*self
        }
    }
}

/// Restart limits are the Luby sequence times this many conflicts (the
/// classic MiniSat-style base).
const RESTART_MULT: u64 = 100;
/// The branching polarity a fresh variable starts with.
const INIT_POLARITY: bool = false;
/// VSIDS decay factor: each conflict divides the activity increment by
/// this. Backtracking always saves the erased assignment as the next
/// branching polarity (phase saving).
const VAR_DECAY: f64 = 0.95;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Assign {
    True,
    False,
    Undef,
}

/// A clause's header: its literals are `lits[start..start + len]` of
/// the solver's one literal arena. Deleted clauses keep their arena
/// slot (there is no compaction), so a [`ClauseRef`] never moves.
#[derive(Clone, Copy, Debug)]
struct Clause {
    start: u32,
    len: u32,
    learned: bool,
    deleted: bool,
    lbd: u32,
}

impl Clause {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

type ClauseRef = u32;
const NO_REASON: ClauseRef = u32::MAX;
/// The tag bit of [`Watcher::tagged`]; clause references stay below it.
const BINARY: u32 = 1 << 31;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// The clause's reference, with [`BINARY`] set when it has two
    /// literals.
    tagged: u32,
    /// A literal of the clause other than the watched one; if it is
    /// already true the clause is satisfied and the watcher untouched.
    /// A binary clause's blocker is its other literal.
    blocker: Lit,
}

impl Watcher {
    fn new(clause: ClauseRef, blocker: Lit, binary: bool) -> Watcher {
        Watcher {
            tagged: if binary { clause | BINARY } else { clause },
            blocker,
        }
    }

    fn clause(self) -> ClauseRef {
        self.tagged & !BINARY
    }

    fn is_binary(self) -> bool {
        self.tagged & BINARY != 0
    }
}

/// Watchers a list holds before it allocates.
const INLINE_WATCHERS: usize = 2;

/// One literal's watchers, in the order they were added. Most literals
/// of the code generator's formulas watch at most two clauses, so the
/// first [`INLINE_WATCHERS`] live in the list itself and a list
/// allocates only when it outgrows them; otherwise it behaves as a
/// `Vec` (push appends, truncate keeps a prefix).
#[derive(Clone, Debug)]
enum WatchList {
    /// `len` watchers in use, at the front.
    Inline(u8, [Watcher; INLINE_WATCHERS]),
    Heap(Vec<Watcher>),
}

impl Default for WatchList {
    fn default() -> WatchList {
        let unused = Watcher::new(0, Lit::pos(Var::from_index(0)), false);
        WatchList::Inline(0, [unused; INLINE_WATCHERS])
    }
}

impl WatchList {
    fn as_mut_slice(&mut self) -> &mut [Watcher] {
        match self {
            WatchList::Inline(len, items) => &mut items[..usize::from(*len)],
            WatchList::Heap(items) => items,
        }
    }

    fn push(&mut self, watcher: Watcher) {
        match self {
            WatchList::Inline(len, items) if usize::from(*len) < INLINE_WATCHERS => {
                items[usize::from(*len)] = watcher;
                *len += 1;
            }
            WatchList::Inline(_, items) => {
                let mut spilled = Vec::with_capacity(2 * INLINE_WATCHERS);
                spilled.extend_from_slice(items);
                spilled.push(watcher);
                *self = WatchList::Heap(spilled);
            }
            WatchList::Heap(items) => items.push(watcher),
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            WatchList::Inline(len, _) => {
                if n < usize::from(*len) {
                    *len = n as u8;
                }
            }
            WatchList::Heap(items) => items.truncate(n),
        }
    }
}

/// What `propagate` found false. A binary conflict is the pair
/// (blocker, watched literal), read without the clause arena.
#[derive(Clone, Copy, Debug)]
enum Conflict {
    Clause(ClauseRef),
    Binary(Lit, Lit),
}

/// A conflict-driven clause-learning SAT solver.
///
/// See the [crate docs](crate) for an example.
#[derive(Clone, Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back, in [`ClauseRef`] order.
    lits: Vec<Lit>,
    /// Reused by [`Solver::add_clause`] to sort and simplify a clause.
    clause_buf: Vec<Lit>,
    watches: Vec<WatchList>,
    /// Every literal's value, indexed by [`Lit::index`]: a variable's
    /// two literals are set and cleared together, so reading a
    /// literal's value is one load.
    values: Vec<Assign>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    seen: Vec<bool>,
    /// False once an empty clause has been derived; the instance is
    /// permanently unsatisfiable.
    ok: bool,
    model: Option<Vec<bool>>,
    /// Populated by [`Solver::solve_under`] when the instance is
    /// unsatisfiable only under the given assumptions: the subset of
    /// assumptions the final conflict depends on.
    failed_assumptions: Vec<Lit>,
    stats: SolverStats,
    reduce_threshold: usize,
    /// Raised by another thread to abandon an in-flight solve (a
    /// deadline or shutdown cancelling the search).
    interrupt: Option<Arc<AtomicBool>>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            lits: Vec::new(),
            clause_buf: Vec::new(),
            watches: Vec::new(),
            values: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::default(),
            seen: Vec::new(),
            ok: true,
            model: None,
            failed_assumptions: Vec::new(),
            stats: SolverStats::default(),
            reduce_threshold: 4000,
            interrupt: None,
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of problem clauses added (excluding learned clauses and
    /// clauses simplified away at add time).
    pub fn num_clauses(&self) -> usize {
        self.stats.clauses as usize
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars());
        self.values.extend([Assign::Undef; 2]);
        self.polarity.push(INIT_POLARITY);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(WatchList::default());
        self.watches.push(WatchList::default());
        self.order.grow(self.num_vars());
        self.order.insert(var, &self.activity);
        self.stats.vars = self.num_vars() as u64;
        var
    }

    /// Ensures at least `n` variables exist, creating the missing ones.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Installs a cancellation flag checked periodically during
    /// [`Solver::solve`]; once the flag is raised, the solve returns
    /// [`SolveResult::Interrupted`] at its next checkpoint.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    fn value(&self, lit: Lit) -> Assign {
        self.values[lit.index()]
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Duplicate literals are removed and tautologies ignored. Adding the
    /// empty clause (or a clause falsified at level zero) makes the
    /// instance permanently unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal mentions a variable that was never created,
    /// or if called mid-search (clauses may only be added at decision
    /// level zero).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        assert_eq!(
            self.trail_lim.len(),
            0,
            "clauses may only be added at decision level zero"
        );
        if !self.ok {
            return;
        }
        let mut buf = std::mem::take(&mut self.clause_buf);
        buf.clear();
        buf.extend(lits);
        self.add_buffered(&mut buf);
        self.clause_buf = buf;
    }

    /// [`Solver::add_clause`] on a scratch buffer it may reorder.
    fn add_buffered(&mut self, lits: &mut Vec<Lit>) {
        for &l in lits.iter() {
            assert!(
                l.var().index() < self.num_vars(),
                "unknown variable in clause"
            );
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology / level-zero simplification: a clause holding both
        // l and !l, or a literal already true at level 0, is dropped;
        // literals already false at level 0 are removed.
        let satisfied = lits.iter().any(|&l| {
            self.value(l) == Assign::True || (l.is_pos() && lits.binary_search(&!l).is_ok())
        });
        if satisfied {
            return;
        }
        lits.retain(|&l| self.value(l) == Assign::Undef);
        self.stats.clauses += 1;
        match lits.len() {
            0 => {
                self.ok = false;
            }
            1 => {
                self.enqueue(lits[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.attach_clause(lits, false, 0);
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learned: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = u32::try_from(self.clauses.len())
            .ok()
            .filter(|&c| c < BINARY)
            .expect("clause arena overflow");
        let start = u32::try_from(self.lits.len()).expect("literal arena overflow");
        let len = u32::try_from(lits.len()).expect("clause length overflow");
        start.checked_add(len).expect("literal arena overflow");
        let binary = len == 2;
        self.watches[lits[0].index()].push(Watcher::new(cref, lits[1], binary));
        self.watches[lits[1].index()].push(Watcher::new(cref, lits[0], binary));
        self.lits.extend_from_slice(lits);
        self.clauses.push(Clause {
            start,
            len,
            learned,
            deleted: false,
            lbd,
        });
        cref
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.value(lit), Assign::Undef);
        let v = lit.var().index();
        self.values[lit.index()] = Assign::True;
        self.values[(!lit).index()] = Assign::False;
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut list = std::mem::take(&mut self.watches[false_lit.index()]);
            let watchers = list.as_mut_slice();
            let mut kept = 0;
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                let blocker = self.value(w.blocker);
                if blocker == Assign::True {
                    watchers[kept] = w;
                    kept += 1;
                    continue;
                }
                // The clause is unit on `unit`, or conflicting if that
                // literal is false too. A binary clause is, on its
                // blocker.
                let (unit, found) = if w.is_binary() {
                    watchers[kept] = w;
                    kept += 1;
                    let found = (blocker == Assign::False)
                        .then_some(Conflict::Binary(w.blocker, false_lit));
                    (w.blocker, found)
                } else {
                    let clause = self.clauses[w.clause() as usize];
                    debug_assert!(!clause.deleted);
                    let lits = clause.range();
                    let (c0, c1) = (lits.start, lits.start + 1);
                    if self.lits[c0] == false_lit {
                        self.lits.swap(c0, c1);
                    }
                    debug_assert_eq!(self.lits[c1], false_lit);
                    let first = self.lits[c0];
                    let watcher = Watcher::new(w.clause(), first, false);
                    if first != w.blocker && self.value(first) == Assign::True {
                        watchers[kept] = watcher;
                        kept += 1;
                        continue;
                    }
                    // Look for a non-false literal to watch instead.
                    for k in c1 + 1..lits.end {
                        let candidate = self.lits[k];
                        if self.value(candidate) != Assign::False {
                            self.lits.swap(c1, k);
                            self.watches[candidate.index()].push(watcher);
                            continue 'watchers;
                        }
                    }
                    // Keep watching false_lit.
                    watchers[kept] = watcher;
                    kept += 1;
                    let found = (self.value(first) == Assign::False)
                        .then_some(Conflict::Clause(w.clause()));
                    (first, found)
                };
                if found.is_some() {
                    // Conflict: keep the remaining watchers and stop.
                    while i < watchers.len() {
                        watchers[kept] = watchers[i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = found;
                } else {
                    self.enqueue(unit, w.clause());
                }
            }
            list.truncate(kept);
            self.watches[false_lit.index()] = list;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rescaled();
        }
        self.order.increased(var, &self.activity);
    }

    /// One literal of a clause `analyze` resolves on: marks and bumps
    /// its variable once, counting it when it is of the current level
    /// and adding it to the learned clause when it is of a lower one.
    fn analyze_lit(&mut self, q: Lit, counter: &mut usize, learnt: &mut Vec<Lit>) {
        let v = q.var();
        if !self.seen[v.index()] && self.level[v.index()] > 0 {
            self.seen[v.index()] = true;
            self.bump_var(v);
            if self.level[v.index()] >= self.decision_level() {
                *counter += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var::from_index(0))]; // placeholder for UIP
        let mut counter = 0usize;
        let mut index = self.trail.len();

        // Clauses are read in place: bumping activity never touches the
        // literal arena.
        match conflict {
            Conflict::Binary(blocker, watched) => {
                self.analyze_lit(blocker, &mut counter, &mut learnt);
                self.analyze_lit(watched, &mut counter, &mut learnt);
            }
            Conflict::Clause(cref) => {
                for i in self.clauses[cref as usize].range() {
                    self.analyze_lit(self.lits[i], &mut counter, &mut learnt);
                }
            }
        }
        loop {
            // Select next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            let reason = self.reason[pl.var().index()];
            debug_assert_ne!(reason, NO_REASON);
            // A binary reason may hold `pl` in either position.
            for i in self.clauses[reason as usize].range() {
                let q = self.lits[i];
                if q.var() != pl.var() {
                    self.analyze_lit(q, &mut counter, &mut learnt);
                }
            }
        }

        // Conflict-clause minimization: drop a literal whose reason's
        // antecedents are all already in the clause (non-recursive check).
        let retained: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.literal_redundant(l))
            .collect();
        let mut minimized = vec![learnt[0]];
        minimized.extend(retained);

        // Compute backtrack level (second-highest decision level) and
        // move a literal of that level to position 1.
        let backtrack_level = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };

        // Clear seen flags for the literals we kept.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (minimized, backtrack_level)
    }

    fn literal_redundant(&self, lit: Lit) -> bool {
        let reason = self.reason[lit.var().index()];
        if reason == NO_REASON {
            return false;
        }
        let lits = self.clauses[reason as usize].range();
        self.lits[lits].iter().all(|&q| {
            q.var() == lit.var() || self.seen[q.var().index()] || self.level[q.var().index()] == 0
        })
    }

    fn lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let new_len = self.trail_lim[level as usize];
        for &lit in &self.trail[new_len..] {
            let v = lit.var();
            self.values[lit.index()] = Assign::Undef;
            self.values[(!lit).index()] = Assign::Undef;
            self.polarity[v.index()] = lit.is_pos();
            self.reason[v.index()] = NO_REASON;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(new_len);
        self.trail_lim.truncate(level as usize);
        self.qhead = new_len;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.value(Lit::pos(v)) == Assign::Undef {
                return Some(v);
            }
        }
        None
    }

    fn reduce_learned(&mut self) {
        // Retain learned clauses with good (small) LBD; delete the worst
        // half of the rest, except clauses locked as reasons.
        let mut candidates: Vec<(u32, ClauseRef)> = Vec::new();
        for (i, c) in self.clauses.iter().enumerate() {
            if c.learned && !c.deleted && c.lbd > 2 {
                candidates.push((c.lbd, i as ClauseRef));
            }
        }
        candidates.sort_unstable_by_key(|&(lbd, _)| std::cmp::Reverse(lbd));
        // One pass over the trail marks every clause currently used as a
        // propagation reason (the old per-clause trail scan was
        // O(clauses × trail) at every reduction).
        let mut locked = vec![false; self.clauses.len()];
        for &l in &self.trail {
            let r = self.reason[l.var().index()];
            if r != NO_REASON {
                locked[r as usize] = true;
            }
        }
        debug_assert_eq!(
            locked,
            self.clauses
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    self.trail
                        .iter()
                        .any(|&l| self.reason[l.var().index()] == i as ClauseRef)
                })
                .collect::<Vec<bool>>(),
            "one-pass locked set must match the brute-force scan"
        );
        for &(_, cref) in candidates.iter().take(candidates.len() / 2) {
            if !locked[cref as usize] {
                self.clauses[cref as usize].deleted = true;
            }
        }
        // Rebuild watch lists without deleted clauses.
        for w in &mut self.watches {
            w.truncate(0);
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if !c.deleted {
                debug_assert!(c.len >= 2);
                let (l0, l1) = (self.lits[c.start as usize], self.lits[c.start as usize + 1]);
                let binary = c.len == 2;
                self.watches[l0.index()].push(Watcher::new(i as ClauseRef, l1, binary));
                self.watches[l1.index()].push(Watcher::new(i as ClauseRef, l0, binary));
            }
        }
        self.stats.learned = self
            .clauses
            .iter()
            .filter(|c| c.learned && !c.deleted)
            .count() as u64;
        self.reduce_threshold += 1000;
    }

    /// Solves the current clause set.
    ///
    /// Returns [`SolveResult::Sat`] and records a model, or
    /// [`SolveResult::Unsat`]. The solver can be reused afterwards (state
    /// is reset to decision level zero), including adding more clauses.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_under(&[])
    }

    /// Solves the current clause set under `assumptions`.
    ///
    /// Each assumption literal is enqueued as a pseudo-decision before
    /// ordinary branching, so [`SolveResult::Unsat`] here means
    /// "unsatisfiable *under the assumptions*" — unlike a plain
    /// [`Solver::solve`] refutation it does **not** poison the solver,
    /// and [`Solver::failed_assumptions`] reports the subset of
    /// assumptions the final conflict depended on. Learned clauses,
    /// variable activity, and saved polarities persist across calls,
    /// which is the point: a sequence of closely related queries (the
    /// cycle-budget probes) shares one solver instead of starting cold.
    ///
    /// # Panics
    ///
    /// Panics if an assumption mentions a variable that was never
    /// created.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        for &a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "unknown variable in assumption"
            );
        }
        self.stats.solves += 1;
        self.stats.carried_learned = self.stats.learned;
        self.stats.carried_activity = self.activity.iter().filter(|&&a| a > 0.0).count() as u64;
        self.failed_assumptions.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.model = None;
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }

        // The restart schedule is indexed per *call*, not by the
        // lifetime `stats.restarts` counter: a persistent incremental
        // solver would otherwise begin its 30th probe deep in the Luby
        // sequence with an enormous first restart limit, never
        // restarting on the queries where restarts matter most.
        let mut conflicts_since_restart = 0u64;
        let mut restarts_this_call = 0u64;
        let mut restart_limit = luby(restarts_this_call + 1) * RESTART_MULT;
        let mut since_interrupt_check = 0u32;

        loop {
            // Cancellation checkpoint: cheap enough to amortize (one
            // relaxed atomic load every 1024 steps), frequent enough that
            // a deadline stops the solve promptly.
            since_interrupt_check += 1;
            if since_interrupt_check >= 1024 {
                since_interrupt_check = 0;
                if self.interrupted() {
                    self.backtrack_to(0);
                    return SolveResult::Interrupted;
                }
            }
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    let (learnt, backtrack_level) = self.analyze(conflict);
                    self.backtrack_to(backtrack_level);
                    let asserting = learnt[0];
                    if learnt.len() == 1 {
                        self.enqueue(asserting, NO_REASON);
                    } else {
                        let lbd = self.lbd(&learnt);
                        let cref = self.attach_clause(&learnt, true, lbd);
                        self.stats.learned += 1;
                        self.enqueue(asserting, cref);
                    }
                    self.decay_activities();
                }
                None => {
                    if conflicts_since_restart >= restart_limit {
                        self.stats.restarts += 1;
                        restarts_this_call += 1;
                        conflicts_since_restart = 0;
                        restart_limit = luby(restarts_this_call + 1) * RESTART_MULT;
                        self.backtrack_to(0);
                        continue;
                    }
                    if self.stats.learned as usize > self.reduce_threshold {
                        self.backtrack_to(0);
                        self.reduce_learned();
                        continue;
                    }
                    // Re-establish pending assumptions (a restart or a
                    // deep backjump may have unassigned them) before any
                    // ordinary branching.
                    let mut next_assumption = None;
                    while (self.decision_level() as usize) < assumptions.len() {
                        let p = assumptions[self.decision_level() as usize];
                        match self.value(p) {
                            // Already implied: open a dummy level so the
                            // level index keeps tracking the assumption
                            // index.
                            Assign::True => self.trail_lim.push(self.trail.len()),
                            Assign::False => {
                                // The clause set refutes this assumption
                                // given the earlier ones: UNSAT under
                                // assumptions, but the solver stays ok.
                                self.analyze_final(p);
                                self.backtrack_to(0);
                                return SolveResult::Unsat;
                            }
                            Assign::Undef => {
                                next_assumption = Some(p);
                                break;
                            }
                        }
                    }
                    match next_assumption {
                        Some(p) => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, NO_REASON);
                        }
                        None => match self.pick_branch_var() {
                            None => {
                                // All variables assigned: a model.
                                let model = self
                                    .values
                                    .iter()
                                    .step_by(2)
                                    .map(|&a| a == Assign::True)
                                    .collect();
                                self.model = Some(model);
                                self.backtrack_to(0);
                                return SolveResult::Sat;
                            }
                            Some(v) => {
                                self.stats.decisions += 1;
                                self.trail_lim.push(self.trail.len());
                                let lit = Lit::new(v, self.polarity[v.index()]);
                                self.enqueue(lit, NO_REASON);
                            }
                        },
                    }
                }
            }
        }
    }

    /// Final-conflict analysis: the assumption `p` is falsified by
    /// propagation from earlier assumptions (and the clause set).
    /// Collects into `failed_assumptions` the subset of assumptions the
    /// falsification depends on, by walking the trail from the reason of
    /// `¬p` back to the pseudo-decisions.
    fn analyze_final(&mut self, p: Lit) {
        self.failed_assumptions.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            if !self.seen[v.index()] {
                continue;
            }
            let reason = self.reason[v.index()];
            if reason == NO_REASON {
                // A pseudo-decision, i.e. one of the assumptions.
                debug_assert!(self.level[v.index()] > 0);
                self.failed_assumptions.push(lit);
            } else {
                // A binary reason may hold `lit` in either position.
                for &q in &self.lits[self.clauses[reason as usize].range()] {
                    if q.var() != v && self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    /// After [`Solver::solve_under`] returns [`SolveResult::Unsat`]
    /// without the clause set itself being unsatisfiable: the subset of
    /// the assumptions that the refutation depended on. Empty after a
    /// plain refutation, a SAT result, or an interrupt.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed_assumptions
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// The satisfying assignment found by the last successful
    /// [`Solver::solve`], indexed by [`Var::index`].
    pub fn model(&self) -> Option<&[bool]> {
        self.model.as_deref()
    }

    /// The model value of one variable, or `None` when no model is
    /// available (last solve was UNSAT/interrupted, or `var` was created
    /// after it).
    pub fn model_value(&self, var: Var) -> Option<bool> {
        self.model
            .as_ref()
            .and_then(|m| m.get(var.index()).copied())
    }

    /// Work counters for the lifetime of this solver.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed.
fn luby(mut i: u64) -> u64 {
    loop {
        // Smallest k with 2^k - 1 >= i.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1 << (k - 1);
        }
        // i falls in the repeated prefix of the next block.
        i -= (1 << (k - 1)) - 1;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn empty_problem_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model().unwrap().len(), 0);
    }

    #[test]
    fn unit_clauses_force_assignment() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([Lit::pos(v[0])]);
        s.add_clause([Lit::neg(v[1])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model().unwrap();
        assert!(m[0]);
        assert!(!m[1]);
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v)]);
        s.add_clause([Lit::neg(v)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Solver stays unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause([]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v), Lit::neg(v)]);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn simple_implication_chain() {
        // a, a->b, b->c, c->d : all true.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([Lit::pos(v[0])]);
        for i in 0..3 {
            s.add_clause([Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap().iter().all(|&b| b));
    }

    fn pigeonhole(holes: usize) -> (Solver, Vec<Vec<Var>>) {
        // holes+1 pigeons into `holes` holes: unsat.
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let vars: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..pigeons {
            s.add_clause(vars[p].iter().map(|&v| Lit::pos(v)));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([Lit::neg(vars[p1][h]), Lit::neg(vars[p2][h])]);
                }
            }
        }
        (s, vars)
    }

    #[test]
    fn pigeonhole_principle_is_unsat() {
        for holes in 2..=5 {
            let (mut s, _) = pigeonhole(holes);
            assert_eq!(s.solve(), SolveResult::Unsat, "PHP({holes})");
        }
    }

    #[test]
    fn exactly_fitting_pigeons_is_sat() {
        // 4 pigeons, 4 holes (drop the last pigeon from PHP(4)).
        let holes = 4;
        let mut s = Solver::new();
        let vars: Vec<Vec<Var>> = (0..holes)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..holes {
            s.add_clause(vars[p].iter().map(|&v| Lit::pos(v)));
        }
        for h in 0..holes {
            for p1 in 0..holes {
                for p2 in (p1 + 1)..holes {
                    s.add_clause([Lit::neg(vars[p1][h]), Lit::neg(vars[p2][h])]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        // Verify the model is a valid assignment of pigeons to holes.
        let m = s.model().unwrap().to_vec();
        for p in 0..holes {
            assert!(vars[p].iter().any(|v| m[v.index()]));
        }
    }

    #[test]
    fn model_satisfies_all_clauses_on_random_instance() {
        // Deterministic xorshift-based random 3-SAT near the threshold.
        let mut state = 0x12345678u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..20 {
            let n = 30;
            let m = 100;
            let mut s = Solver::new();
            let vars = lits(&mut s, n);
            let mut clause_set = Vec::new();
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = vars[(rand() % n as u64) as usize];
                    c.push(Lit::new(v, rand() % 2 == 0));
                }
                clause_set.push(c.clone());
                s.add_clause(c);
            }
            if s.solve() == SolveResult::Sat {
                let model = s.model().unwrap();
                for c in &clause_set {
                    assert!(
                        c.iter().any(|l| model[l.var().index()] == l.is_pos()),
                        "model violates clause {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn solver_is_reusable_and_monotone() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([Lit::neg(v[0])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap()[v[1].index()]);
        s.add_clause([Lit::neg(v[1])]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn stats_are_populated() {
        let (mut s, _) = pigeonhole(4);
        s.solve();
        let stats = s.stats();
        assert!(stats.conflicts > 0);
        assert!(stats.decisions > 0);
        assert!(stats.propagations > 0);
        assert_eq!(stats.vars, 20);
    }

    #[test]
    fn raised_interrupt_abandons_solve() {
        let (mut s, _) = pigeonhole(6);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Arc::clone(&flag));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        // The solver stays usable: lower the flag and finish the solve.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unraised_interrupt_changes_nothing() {
        let (mut s, _) = pigeonhole(4);
        s.set_interrupt(Arc::new(AtomicBool::new(false)));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unsat_under_assumptions_leaves_solver_usable() {
        // (a | b), assume !a & !b: UNSAT under assumptions, but the
        // instance itself stays satisfiable and the solver stays ok.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(
            s.solve_under(&[Lit::neg(v[0]), Lit::neg(v[1])]),
            SolveResult::Unsat
        );
        assert!(!s.failed_assumptions().is_empty());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.failed_assumptions().is_empty());
        // And a satisfiable assumption set works after the failed one.
        assert_eq!(s.solve_under(&[Lit::neg(v[0])]), SolveResult::Sat);
        assert!(s.model().unwrap()[v[1].index()]);
    }

    #[test]
    fn failed_assumptions_are_a_relevant_subset() {
        // x0, assume [x5 (irrelevant), !x0]: only !x0 conflicts.
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        s.add_clause([Lit::pos(v[0])]);
        let assumptions = [Lit::pos(v[5]), Lit::neg(v[0])];
        assert_eq!(s.solve_under(&assumptions), SolveResult::Unsat);
        for &f in s.failed_assumptions() {
            assert!(assumptions.contains(&f), "{f:?} was never assumed");
        }
        assert!(s.failed_assumptions().contains(&Lit::neg(v[0])));
        assert!(!s.failed_assumptions().contains(&Lit::pos(v[5])));
    }

    #[test]
    fn contradictory_assumptions_are_unsat_but_recoverable() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert_eq!(
            s.solve_under(&[Lit::pos(v), Lit::neg(v)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn sat_under_assumptions_honors_them() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        assert_eq!(
            s.solve_under(&[Lit::neg(v[0]), Lit::neg(v[2])]),
            SolveResult::Sat
        );
        let m = s.model().unwrap();
        assert!(!m[v[0].index()] && m[v[1].index()] && !m[v[2].index()]);
    }

    #[test]
    fn real_unsat_still_poisons_under_assumptions() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v)]);
        s.add_clause([Lit::neg(v)]);
        assert_eq!(s.solve_under(&[Lit::pos(v)]), SolveResult::Unsat);
        assert!(s.failed_assumptions().is_empty(), "not assumption-caused");
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn reuse_stats_track_carried_work() {
        // 4 pigeons in 4 holes is SAT but needs real search: the second
        // solve starts with learned clauses and warm activity.
        let holes = 4;
        let mut s = Solver::new();
        let vars: Vec<Vec<Var>> = (0..holes)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..holes {
            s.add_clause(vars[p].iter().map(|&v| Lit::pos(v)));
        }
        for h in 0..holes {
            for p1 in 0..holes {
                for p2 in (p1 + 1)..holes {
                    s.add_clause([Lit::neg(vars[p1][h]), Lit::neg(vars[p2][h])]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().solves, 1);
        assert_eq!(s.stats().carried_learned, 0);
        assert_eq!(s.stats().carried_activity, 0);
        // Block models until the solver has had to learn something.
        let mut rounds = 0;
        while s.stats().conflicts == 0 {
            assert_eq!(s.solve(), SolveResult::Sat);
            let m = s.model().unwrap().to_vec();
            let blocking: Vec<Lit> = (0..s.num_vars())
                .map(|i| Lit::new(Var::from_index(i), !m[i]))
                .collect();
            s.add_clause(blocking);
            rounds += 1;
            assert!(rounds < 64, "PHP-sat(4) ran out of models conflict-free");
        }
        let first = s.stats();
        s.solve();
        let second = s.stats();
        assert_eq!(second.solves, first.solves + 1);
        assert_eq!(second.carried_learned, first.learned);
        assert!(second.carried_activity > 0, "activity should carry over");
        let delta = second.since(first);
        assert_eq!(delta.solves, second.solves, "gauges pass through");
        assert!(delta.conflicts <= second.conflicts);
    }

    #[test]
    fn fresh_solve_under_restarts_at_the_base_limit() {
        // Regression test for the Luby drift bug: the restart limit was
        // seeded from the solver-lifetime `stats.restarts`, so a
        // long-lived incremental solver started each new call deep in
        // the Luby sequence. Simulate that history, then check the next
        // call still restarts eagerly.
        let (mut s, _) = pigeonhole(6);
        s.stats.restarts = (1 << 20) - 2;
        let before = s.stats();
        assert_eq!(s.solve(), SolveResult::Unsat);
        let delta = s.stats().since(before);
        assert!(
            delta.conflicts > 100,
            "test instance too easy to exercise restarts ({} conflicts)",
            delta.conflicts
        );
        // Under the bug the first limit would be luby(2^20 - 1) * 100 =
        // 2^19 * 100 conflicts — unreachable here, so no restart fires.
        assert!(
            delta.restarts >= 1,
            "first restart of a fresh call must fire at the base limit"
        );
    }

    #[test]
    fn default_solver_is_a_working_solver() {
        // Regression: a derived `Default` built a solver with `ok: false`
        // and a zero activity increment, which refuted every formula.
        let mut s = Solver::default();
        let v = s.new_var();
        s.add_clause([Lit::pos(v)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v), Some(true));
        let (mut s, _) = pigeonhole(4);
        let mut d = Solver::default();
        d.reserve_vars(s.num_vars());
        for &c in &s.clauses {
            d.add_clause(s.lits[c.range()].iter().copied());
        }
        assert_eq!(d.solve(), s.solve());
        assert_eq!(d.stats(), s.stats(), "default and new solve identically");
    }

    #[test]
    fn forced_reductions_are_deterministic_and_sound() {
        // Drive `reduce_learned` hard (threshold 8 instead of 4000) and
        // check the verdict is still right and two identical runs do
        // identical work — the one-pass locked-clause computation must
        // not change which clauses survive a reduction.
        let run = || {
            let (mut s, _) = pigeonhole(5);
            s.reduce_threshold = 8;
            let result = s.solve();
            (result, s.stats())
        };
        let (r1, stats1) = run();
        let (r2, stats2) = run();
        assert_eq!(r1, SolveResult::Unsat);
        assert_eq!(r1, r2);
        assert_eq!(stats1, stats2, "reductions must behave identically");
        assert!(stats1.conflicts > 8, "instance must actually reduce");
    }

    /// The work counters that fix a solve's path.
    fn steps(s: &Solver) -> [u64; 5] {
        let st = s.stats();
        [
            st.decisions,
            st.propagations,
            st.conflicts,
            st.restarts,
            st.learned,
        ]
    }

    /// Three-colouring of a random graph (`n` vertices, `edges` random
    /// edges, xorshift `seed`) where a colour is chosen by setting its
    /// variable false, the default branching polarity. Every "not both"
    /// constraint, within a vertex and across an edge, is spelt through
    /// a gadget: `chosen(p) ∧ chosen(q) ⇒ g ⇒ h ⇒ ¬chosen(q)`. Deciding
    /// `p` and then `q` derives `g` from a ternary reason that holds the
    /// one lower-level literal, and `h` conflicts with `q` on a binary
    /// clause, so most conflicts are binary and most learned clauses are
    /// `(¬chosen(p) ∨ ¬chosen(q))`. The gadget variables come first, so
    /// the colour variables sit at the end of the branching order.
    fn gadget_colouring(n: usize, edges: usize, seed: u64) -> Solver {
        let mut state = seed;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pairs = Vec::new();
        for v in 0..n {
            pairs.extend([(v, 0, v, 1), (v, 0, v, 2), (v, 1, v, 2)]);
        }
        for _ in 0..edges {
            let u = (rand() % n as u64) as usize;
            let w = (rand() % n as u64) as usize;
            if u != w {
                pairs.extend((0..3).map(|c| (u, c, w, c)));
            }
        }
        let mut s = Solver::new();
        let gadgets: Vec<(Var, Var)> = pairs.iter().map(|_| (s.new_var(), s.new_var())).collect();
        let colour: Vec<Vec<Var>> = (0..n).map(|_| lits(&mut s, 3)).collect();
        for vars in &colour {
            s.add_clause(vars.iter().map(|&v| Lit::neg(v)));
        }
        for (&(v, a, w, b), &(g, h)) in pairs.iter().zip(&gadgets) {
            let (p, q) = (colour[v][a], colour[w][b]);
            s.add_clause([Lit::pos(p), Lit::pos(q), Lit::pos(g)]);
            s.add_clause([Lit::neg(g), Lit::pos(h)]);
            s.add_clause([Lit::pos(q), Lit::neg(h)]);
        }
        s
    }

    #[test]
    fn pinned_instances_take_the_same_steps() {
        // Exact counters (decisions, propagations, conflicts, restarts,
        // learned) of three fixed solves, recorded when every clause
        // still owned its own literal vector (the colouring: when a
        // binary clause was still read from the arena). Neither the
        // clause storage nor the propagation of binary clauses may
        // change a single step: watch order, literal order and clause
        // references decide which literal propagates next. PHP(6) runs
        // several restarts; PHP(7) with a reduction threshold of 50 runs
        // `reduce_learned` more than once; the gadget colouring's
        // conflicts and learned clauses are mostly binary (an
        // instrumented build counted 500 of 603 conflicts on binary
        // clauses and 352 of 596 learned clauses binary), and it runs
        // `reduce_learned` with binary clauses on every watch list.
        let (mut s, _) = pigeonhole(6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(steps(&s), [741, 7921, 631, 5, 627]);
        let (mut s, _) = pigeonhole(7);
        s.reduce_threshold = 50;
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(steps(&s), [6059, 68393, 4943, 26, 1838]);
        assert!(
            s.reduce_threshold > 1050,
            "reduce_learned ran at least twice"
        );
        let mut s = gadget_colouring(100, 235, 0x9E37_79B9_7F4A_7C15);
        s.reduce_threshold = 30;
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(steps(&s), [17101, 112594, 603, 5, 595]);
        assert!(s.reduce_threshold > 30, "reduce_learned ran");
        let learned: Vec<u32> = s
            .clauses
            .iter()
            .filter(|c| c.learned)
            .map(|c| c.len)
            .collect();
        let binary = learned.iter().filter(|&&len| len == 2).count();
        assert!(
            2 * binary > learned.len(),
            "{binary} of {} learned clauses are binary",
            learned.len()
        );
    }

    #[test]
    fn model_value_reads_the_model() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([Lit::pos(v[0])]);
        s.add_clause([Lit::neg(v[1])]);
        assert_eq!(s.model_value(v[0]), None, "no model before solving");
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
        assert_eq!(s.model_value(v[1]), Some(false));
        let late = s.new_var();
        assert_eq!(s.model_value(late), None, "created after the model");
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, expected);
    }
}
