//! The constraint generator: candidates + cycle budget → CNF.
//!
//! Implements §6's encoding, generalized from the single-issue
//! presentation to the real EV6 shape (quad issue, unit restrictions,
//! clusters), plus the §7 constraints (guard-before-unsafe-operations
//! and memory ordering):
//!
//! * `L(T, i, u)` — candidate `T` is **launched** at cycle `i` on unit
//!   `u` (the paper's `L(i, T)`, refined by unit),
//! * `B(Q, i, c)` — the value of class `Q` has been computed **by** the
//!   end of cycle `i` and is usable on cluster `c` (the paper's
//!   `B(i, Q)`, refined by cluster to model the EV6's cross-cluster
//!   bypass delay).
//!
//! The paper's five condition families map to:
//! 1. launch/completion wiring — folded into the `B` ladder clauses
//!    (a launch at `j` completes at `j + λ - 1`),
//! 2. arguments available before launch — `L(T,i,u) ⇒ B(Q, i-1, cluster(u))`,
//! 3. `B` holds iff some member term completed in time — the ladder
//!    `B(Q,i,c) ⇔ B(Q,i-1,c) ∨ {launches completing at i on c}`,
//! 4. issue exclusivity — at most one launch per `(cycle, unit)` slot,
//! 5. goals computed within budget — `∨_c B(G, K-1, c)` per goal class.
//!
//! [`Rules`] derives these families once per search. Two encoders emit
//! clauses from it: [`encode`] builds the standalone formula for one
//! budget (the canonical decode, DIMACS dumps), and
//! [`IncrementalEncoding`] grows one live formula that answers every
//! probe of the search.

use std::collections::HashMap;
use std::ops::RangeInclusive;

use denali_arch::{Machine, Unit};
use denali_egraph::ClassId;
use denali_sat::dimacs::Cnf;
use denali_sat::{ClauseSink, Lit, SolveResult, SolverBackend, SolverStats, Var};

use crate::machine_terms::{CandidateKind, Candidates};
use crate::matcher::Matched;

/// Encoding options (§7 behaviors).
#[derive(Clone, Copy, Debug)]
pub struct EncodeOptions {
    /// If false, loads are unsafe to speculate and must wait for the
    /// guard like stores do. The default matches the paper's checksum
    /// experiment, which speculates next-iteration loads.
    pub speculate_loads: bool,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            speculate_loads: true,
        }
    }
}

/// A launch variable's coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LaunchCoord {
    /// Candidate index into [`Candidates::list`].
    pub candidate: usize,
    /// Issue cycle.
    pub cycle: u32,
    /// Functional unit.
    pub unit: Unit,
}

/// Issue slots per cycle: one per [`Unit`], indexed `unit as usize`,
/// which is `Unit`'s order.
const UNITS: usize = Unit::ALL.len();

/// A memory-order rule (§7) between two memory candidates whose
/// addresses may alias: launching `first` at cycle `a` and `second` at
/// cycle `b` is forbidden when `a > b` (`strict`: a load must not issue
/// after a store it may alias) or when `a ≥ b` (an earlier store level
/// must issue strictly before a later one).
#[derive(Clone, Copy, Debug)]
struct OrderPair {
    first: usize,
    second: usize,
    strict: bool,
}

impl OrderPair {
    fn forbids(&self, a: u32, b: u32) -> bool {
        if self.strict {
            a > b
        } else {
            a >= b
        }
    }
}

/// The §6/§7 rules of one search, derived once from the candidates and
/// shared by both encoders. Each encoder keeps its own variable and
/// clause order; these rules fix what the clauses say: the launch
/// window, the readiness classes, the completion events, one ladder
/// rung and the memory-order pairs. The critical path behind the launch
/// windows also gives the search its lower bound.
pub struct Rules<'a> {
    candidates: &'a Candidates,
    /// Clusters the schedule models (1 when the machine has none).
    clusters: usize,
    /// Cross-cluster bypass delay.
    delay: u32,
    /// Per candidate: the canonical class its value lands in (`None`
    /// for stores, which produce no register value). Only the window
    /// oracle reads it; the encoders read `value_slot`.
    #[cfg(test)]
    value: Vec<Option<ClassId>>,
    /// Per candidate: the canonical register arguments that are not
    /// inputs. Only the window oracle reads it; the encoders read
    /// `ready_slots`.
    #[cfg(test)]
    deps: Vec<Vec<ClassId>>,
    /// Memory-order pairs, in emission order.
    order_pairs: Vec<OrderPair>,
    /// Per candidate: the earliest cycle its register arguments could
    /// all be usable, by the critical path (`None` if one never is).
    args_ready: Vec<Option<u32>>,
    /// No schedule fits in fewer cycles than this (see
    /// [`Rules::lower_bound`]).
    lower_bound: u32,
    /// The number of classes that get an availability ladder: every
    /// needed class that is not an input (inputs are available
    /// everywhere from cycle 0). Each has a ladder slot, its position
    /// among them, and a cycle's ladder cells are numbered slot-major,
    /// cluster-minor (see [`Rules::cell`]).
    slots: usize,
    /// Per candidate: the ladder slots a launch waits for, its
    /// register arguments and then its guard.
    ready_slots: Vec<Vec<usize>>,
    /// Per candidate: the ladder slot its value lands in (`None` for a
    /// store or a value no ladder reads).
    value_slot: Vec<Option<usize>>,
    /// The ladder slot of every goal class that is not an input, in goal
    /// order.
    goal_slots: Vec<usize>,
    /// Per candidate: its store level (`None` unless it is a store).
    level_of: Vec<Option<usize>>,
}

impl<'a> Rules<'a> {
    /// Derives the rules for scheduling `candidates` on `machine`.
    pub fn new(
        matched: &Matched,
        candidates: &'a Candidates,
        machine: &Machine,
        options: &EncodeOptions,
    ) -> Rules<'a> {
        let eg = &matched.egraph;
        // A class the schedule must produce: canonical, or `None` for an
        // input (available everywhere from cycle 0).
        let pending = |c: ClassId| Some(eg.find(c)).filter(|&c| !candidates.is_available(c));
        let guard_class = candidates.guard_class.and_then(pending);
        let mut value = Vec::with_capacity(candidates.list.len());
        let mut deps = Vec::with_capacity(candidates.list.len());
        let mut guard = Vec::with_capacity(candidates.list.len());
        for cand in &candidates.list {
            let unsafe_op = match cand.kind {
                CandidateKind::Store { .. } => true,
                CandidateKind::Load { .. } => !options.speculate_loads,
                _ => false,
            };
            let is_store = matches!(cand.kind, CandidateKind::Store { .. });
            value.push((!is_store).then(|| eg.find(cand.class)));
            deps.push(
                cand.register_deps()
                    .into_iter()
                    .filter_map(pending)
                    .collect(),
            );
            guard.push(guard_class.filter(|_| unsafe_op));
        }

        let addr_of = |t: usize| -> ClassId {
            match candidates.list[t].kind {
                CandidateKind::Load { addr, .. } | CandidateKind::Store { addr, .. } => addr,
                _ => unreachable!("memory candidate"),
            }
        };
        let may_alias = |a: usize, b: usize| !eg.provably_distinct(addr_of(a), addr_of(b));
        let store_cands: Vec<usize> = candidates.store_levels.iter().flatten().copied().collect();
        let mut order_pairs = Vec::new();
        for &l in &candidates.loads() {
            for &s in &store_cands {
                if may_alias(l, s) {
                    order_pairs.push(OrderPair {
                        first: l,
                        second: s,
                        strict: true,
                    });
                }
            }
        }
        for (li, level_a) in candidates.store_levels.iter().enumerate() {
            for level_b in &candidates.store_levels[li + 1..] {
                for &s1 in level_a {
                    for &s2 in level_b {
                        if may_alias(s1, s2) {
                            order_pairs.push(OrderPair {
                                first: s1,
                                second: s2,
                                strict: false,
                            });
                        }
                    }
                }
            }
        }

        let usable = critical_path(candidates, &value, &deps);
        let args_ready = deps.iter().map(|d| ready_at(&usable, d)).collect();
        // Every non-input goal must be usable by the end of the budget,
        // and every store level needs one store that completes within
        // it, launched once its arguments and guard are ready.
        let goals = candidates
            .goal_classes
            .iter()
            .filter_map(|&g| pending(g))
            .map(|g| usable.get(&g).copied().unwrap_or(u32::MAX));
        let levels = candidates.store_levels.iter().map(|level| {
            level
                .iter()
                .filter_map(|&t| {
                    let start = ready_at(&usable, deps[t].iter().chain(&guard[t]))?;
                    Some(start.saturating_add(candidates.list[t].latency))
                })
                .min()
                .unwrap_or(u32::MAX)
        });
        let lower_bound = goals.chain(levels).fold(1, u32::max);

        let slot_of: HashMap<ClassId, usize> = candidates
            .needed_classes
            .iter()
            .copied()
            .filter(|&q| !candidates.is_available(q))
            .enumerate()
            .map(|(s, q)| (q, s))
            .collect();
        let slot = |q: &ClassId| *slot_of.get(q).expect("a needed class has a ladder");
        let ready_slots = deps
            .iter()
            .zip(&guard)
            .map(|(d, g)| d.iter().chain(g).map(slot).collect())
            .collect();
        let value_slot = value
            .iter()
            .map(|v| v.and_then(|q| slot_of.get(&q).copied()))
            .collect();
        let goal_slots = candidates
            .goal_classes
            .iter()
            .filter(|&&g| !candidates.is_available(g))
            .map(slot)
            .collect();
        let mut level_of = vec![None; candidates.list.len()];
        for (li, level) in candidates.store_levels.iter().enumerate() {
            for &t in level {
                level_of[t] = Some(li);
            }
        }

        Rules {
            candidates,
            clusters: machine.num_clusters(),
            delay: machine.cluster_delay(),
            #[cfg(test)]
            value,
            #[cfg(test)]
            deps,
            order_pairs,
            args_ready,
            lower_bound,
            slots: slot_of.len(),
            ready_slots,
            value_slot,
            goal_slots,
            level_of,
        }
    }

    /// A budget no schedule can beat: the largest of each non-input
    /// goal's critical path and each store level's cheapest store
    /// (ready cycle plus latency). It ignores issue slots, units and the
    /// cluster delay, so every budget below it is infeasible. At least
    /// 1; `u32::MAX` when a goal or a store level can never be computed.
    pub fn lower_bound(&self) -> u32 {
        self.lower_bound
    }

    fn cluster_of(&self, unit: Unit) -> usize {
        if self.clusters == 1 {
            0
        } else {
            unit.cluster()
        }
    }

    /// Ladder cells per cycle: one per (ladder slot, cluster).
    fn rungs(&self) -> usize {
        self.slots * self.clusters
    }

    /// The index of ladder cell `B(slot, cycle, cluster)` in a table of
    /// whole cycles, cycle-major, so a table grows by appending a cycle.
    fn cell(&self, slot: usize, cycle: u32, cluster: usize) -> usize {
        cycle as usize * self.rungs() + slot * self.clusters + cluster
    }

    /// The critical path recomputed for one budget `k`, capped just past
    /// its horizon: the oracle for [`Rules::launch_windows`], which reads
    /// the uncapped table built once in [`Rules::new`].
    #[cfg(test)]
    fn earliest_completion(&self, k: u32) -> HashMap<ClassId, u32> {
        let horizon = k.saturating_add(1);
        let mut usable: HashMap<ClassId, u32> = HashMap::new();
        loop {
            let mut changed = false;
            for (t, cand) in self.candidates.list.iter().enumerate() {
                let Some(class) = self.value[t] else {
                    continue;
                };
                let mut start = 0u32;
                let mut feasible = true;
                for dep in &self.deps[t] {
                    match usable.get(dep) {
                        Some(&e) if e <= horizon => start = start.max(e),
                        _ => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if !feasible {
                    continue;
                }
                let finish = start
                    .saturating_add(cand.latency)
                    .min(horizon.saturating_add(1));
                let entry = usable.entry(class).or_insert(u32::MAX);
                if finish < *entry {
                    *entry = finish;
                    changed = true;
                }
            }
            if !changed {
                return usable;
            }
        }
    }

    /// Every candidate's launch window at budget `k`: from the earliest
    /// cycle its register arguments could be ready (same-cluster best
    /// case) to the last cycle at which it still completes within `k`.
    /// `None` if it cannot launch at all.
    fn launch_windows(&self, k: u32) -> Vec<Option<RangeInclusive<u32>>> {
        let list = &self.candidates.list;
        list.iter()
            .zip(&self.args_ready)
            .map(|(cand, &ready)| {
                let start = ready?; // never computable
                let last = k.checked_sub(cand.latency)?; // too slow for `k`
                (start <= last).then_some(start..=last)
            })
            .collect()
    }

    /// The cycle in which launch `at` completes.
    fn completion(&self, at: &LaunchCoord) -> u32 {
        at.cycle + self.candidates.list[at.candidate].latency - 1
    }

    /// Where launch `at` makes its value usable, as `(ladder slot,
    /// cycle, cluster)`: on its own cluster in its completion cycle, and
    /// on the other cluster `cluster_delay` cycles later. Stores produce
    /// no register value, and a value no ladder reads makes no event.
    fn events(&self, at: &LaunchCoord) -> impl Iterator<Item = (usize, u32, usize)> {
        let complete = self.completion(at);
        let own = self.cluster_of(at.unit);
        let slot = self.value_slot[at.candidate];
        let cross = slot
            .filter(|_| self.clusters > 1)
            .map(|s| (s, complete + self.delay, 1 - own));
        slot.map(|s| (s, complete, own)).into_iter().chain(cross)
    }

    /// Argument readiness (family 2, plus §7's guard before unsafe
    /// operations): launch `var` at `at` needs each readiness class on
    /// its cluster by the end of the previous cycle, so a launch at
    /// cycle 0 that needs any is impossible. `avail` holds the `B`
    /// variables by [`Rules::cell`].
    fn readiness(&self, var: Var, at: &LaunchCoord, avail: &[Var], mut clause: impl FnMut(&[Lit])) {
        for &slot in &self.ready_slots[at.candidate] {
            if at.cycle == 0 {
                clause(&[Lit::neg(var)]);
                break;
            }
            let bvar = avail[self.cell(slot, at.cycle - 1, self.cluster_of(at.unit))];
            clause(&[Lit::neg(var), Lit::pos(bvar)]);
        }
    }

    /// One availability-ladder rung (families 1 and 3): `B(Q,i,c) ⇔
    /// B(Q,i-1,c) ∨ events`, where `b` is `B(Q,i,c)`, `prev` is
    /// `B(Q,i-1,c)` (absent at cycle 0) and `events` are the launches
    /// completing into `(Q,i,c)`. The long clause is built in
    /// `forward`, a buffer the caller reuses across rungs.
    fn ladder_rung(
        b: Var,
        prev: Option<Var>,
        events: &[Lit],
        forward: &mut Vec<Lit>,
        mut clause: impl FnMut(&[Lit]),
    ) {
        // B(i) -> B(i-1) ∨ events
        forward.clear();
        forward.push(Lit::neg(b));
        forward.extend(prev.map(Lit::pos));
        forward.extend_from_slice(events);
        clause(forward);
        // B(i-1) -> B(i); event -> B(i)
        if let Some(p) = prev {
            clause(&[Lit::neg(p), Lit::pos(b)]);
        }
        for &e in events {
            clause(&[!e, Lit::pos(b)]);
        }
    }
}

/// The critical path: for each class some candidate can compute, the
/// earliest cycle a consumer could launch with its value, counted from
/// the inputs (usable at cycle 0) with saturating adds. It ignores issue
/// slots, units and the cluster delay. A class no candidate can ever
/// compute is absent.
fn critical_path(
    candidates: &Candidates,
    value: &[Option<ClassId>],
    deps: &[Vec<ClassId>],
) -> HashMap<ClassId, u32> {
    let mut usable: HashMap<ClassId, u32> = HashMap::new();
    loop {
        let mut changed = false;
        for (t, cand) in candidates.list.iter().enumerate() {
            let Some(class) = value[t] else {
                continue;
            };
            let Some(start) = ready_at(&usable, &deps[t]) else {
                continue;
            };
            let finish = start.saturating_add(cand.latency);
            let entry = usable.entry(class).or_insert(u32::MAX);
            if finish < *entry {
                *entry = finish;
                changed = true;
            }
        }
        if !changed {
            return usable;
        }
    }
}

/// The earliest cycle at which every class of `classes` is usable, by
/// the critical path `usable`; `None` if one of them never is.
fn ready_at<'c>(
    usable: &HashMap<ClassId, u32>,
    classes: impl IntoIterator<Item = &'c ClassId>,
) -> Option<u32> {
    classes
        .into_iter()
        .try_fold(0u32, |start, class| Some(start.max(*usable.get(class)?)))
}

/// The CNF for one cycle budget, with the launch map needed to decode a
/// model.
#[derive(Clone, Debug)]
pub struct Encoding {
    /// The formula.
    pub cnf: Cnf,
    /// Launch variable coordinates, indexed by SAT variable order
    /// (launch variables come first).
    pub launches: Vec<LaunchCoord>,
}

impl Encoding {
    /// Number of SAT variables.
    pub fn num_vars(&self) -> usize {
        self.cnf.num_vars
    }

    /// Number of CNF clauses.
    pub fn num_clauses(&self) -> usize {
        self.cnf.clauses.len()
    }
}

/// Decodes a model into the set of true launches, given the launch map
/// of [`encode_into`] or [`Encoding::launches`] (launch variables come
/// first, in map order).
pub fn true_launches(launches: &[LaunchCoord], model: &[bool]) -> Vec<LaunchCoord> {
    launches
        .iter()
        .zip(model)
        .filter(|&(_, &on)| on)
        .map(|(&c, _)| c)
        .collect()
}

/// At-most-one over `lits`: pairwise for small sets, the sequential
/// (ladder) encoding for larger ones (3n clauses and n−1 auxiliary
/// variables instead of n²/2 clauses).
fn at_most_one(sink: &mut impl ClauseSink, lits: &[Lit]) {
    if lits.len() <= 4 {
        for (i, &a) in lits.iter().enumerate() {
            for &b in &lits[i + 1..] {
                sink.add_clause(&[!a, !b]);
            }
        }
        return;
    }
    // s_i = "some literal among lits[..=i] is true".
    let mut prev: Option<Var> = None;
    for (i, &x) in lits.iter().enumerate() {
        if i + 1 == lits.len() {
            if let Some(s) = prev {
                sink.add_clause(&[!x, Lit::neg(s)]);
            }
            break;
        }
        let s = sink.new_var();
        sink.add_clause(&[!x, Lit::pos(s)]);
        if let Some(p) = prev {
            sink.add_clause(&[Lit::neg(p), Lit::pos(s)]);
            sink.add_clause(&[!x, Lit::neg(p)]);
        }
        prev = Some(s);
    }
}

/// Generates the CNF asserting "a legal `k`-cycle schedule computing the
/// goals exists". Unsatisfiability of this formula is the paper's
/// conjecture that no `k`-cycle program exists.
pub fn encode(rules: &Rules, k: u32) -> Encoding {
    let mut cnf = Cnf::new();
    let launches = encode_into(rules, k, &mut cnf);
    Encoding { cnf, launches }
}

/// Writes [`encode`]'s formula for budget `k` into `sink`, variable by
/// variable and clause by clause in the same order, and returns the
/// launch map: launch variable `v` is `launches[v]`. The canonical decode
/// writes straight into a fresh solver, which then takes the steps it
/// would take on `encode(rules, k).cnf.to_solver()`.
pub fn encode_into(rules: &Rules, k: u32, sink: &mut impl ClauseSink) -> Vec<LaunchCoord> {
    let candidates = rules.candidates;
    let clusters = rules.clusters;

    // ---- Launch variables ----
    let mut launches: Vec<LaunchCoord> = Vec::new();
    for (t, window) in rules.launch_windows(k).into_iter().enumerate() {
        for cycle in window.into_iter().flatten() {
            for &unit in &candidates.list[t].units {
                let var = sink.new_var();
                debug_assert_eq!(var.index(), launches.len());
                launches.push(LaunchCoord {
                    candidate: t,
                    cycle,
                    unit,
                });
            }
        }
    }
    let launch_lit = |v: usize| Lit::pos(Var::from_index(v));

    // ---- Availability variables (B ladder), by ladder cell ----
    let mut avail = vec![Var::from_index(0); k as usize * rules.rungs()];
    for slot in 0..rules.slots {
        for cycle in 0..k {
            for cluster in 0..clusters {
                avail[rules.cell(slot, cycle, cluster)] = sink.new_var();
            }
        }
    }

    // Completion events within the budget, by ladder cell.
    let mut completions: Vec<Vec<Lit>> = vec![Vec::new(); avail.len()];
    for (v, at) in launches.iter().enumerate() {
        for (slot, cycle, cluster) in rules.events(at).filter(|&(_, cycle, _)| cycle < k) {
            completions[rules.cell(slot, cycle, cluster)].push(launch_lit(v));
        }
    }

    // Ladder clauses.
    let mut forward = Vec::new();
    for slot in 0..rules.slots {
        for cycle in 0..k {
            for cluster in 0..clusters {
                let cell = rules.cell(slot, cycle, cluster);
                let prev = cycle
                    .checked_sub(1)
                    .map(|i| avail[rules.cell(slot, i, cluster)]);
                Rules::ladder_rung(avail[cell], prev, &completions[cell], &mut forward, |c| {
                    sink.add_clause(c)
                });
            }
        }
    }

    // ---- Argument readiness ----
    for (v, at) in launches.iter().enumerate() {
        rules.readiness(Var::from_index(v), at, &avail, |c| sink.add_clause(c));
    }

    // ---- Issue exclusivity: at most one launch per (cycle, unit) ----
    let mut slots: Vec<Vec<Lit>> = vec![Vec::new(); k as usize * UNITS];
    for (v, coord) in launches.iter().enumerate() {
        slots[coord.cycle as usize * UNITS + coord.unit as usize].push(launch_lit(v));
    }
    for lits in &slots {
        at_most_one(sink, lits);
    }

    // ---- Goals ----
    for &slot in &rules.goal_slots {
        let clause: Vec<Lit> = (0..clusters)
            .map(|cluster| Lit::pos(avail[rules.cell(slot, k - 1, cluster)]))
            .collect();
        sink.add_clause(&clause);
    }

    // ---- Stores: exactly one launch per chain level ----
    let mut level_lits: Vec<Vec<Lit>> = vec![Vec::new(); candidates.store_levels.len()];
    for (v, coord) in launches.iter().enumerate() {
        if let Some(li) = rules.level_of[coord.candidate] {
            level_lits[li].push(launch_lit(v));
        }
    }
    for lits in &level_lits {
        sink.add_clause(lits);
        at_most_one(sink, lits);
    }

    // ---- Memory ordering (§7) ----
    let mut by_candidate: Vec<Vec<(Var, u32)>> = vec![Vec::new(); candidates.list.len()];
    for (v, at) in launches.iter().enumerate() {
        by_candidate[at.candidate].push((Var::from_index(v), at.cycle));
    }
    for pair in &rules.order_pairs {
        for &(va, ca) in &by_candidate[pair.first] {
            for &(vb, cb) in &by_candidate[pair.second] {
                if pair.forbids(ca, cb) {
                    sink.add_clause(&[Lit::neg(va), Lit::neg(vb)]);
                }
            }
        }
    }

    launches
}

/// The budget-*monotone* form of the [`encode`] formula, held inside one
/// persistent [`SolverBackend`] so a sequence of cycle-budget probes
/// shares whatever the backend keeps between solves (the CDCL solver:
/// learned clauses, variable activity, and saved polarities).
///
/// The trick is standard incremental BMC: variables and clauses cover
/// cycles `0..horizon`, and every launch `L` completing at cycle `e`
/// carries an *activation* clause `L ⇒ active[e]`. Probing budget `K ≤
/// horizon` is then [`SolverBackend::solve_under`] with assumptions
/// `¬active[K..horizon]` (no launch may complete at or after cycle `K`),
/// `goal_ok[K-1]` (every goal available by the end of cycle `K-1`), and
/// `¬frontier` (the current store at-least-one clauses are in force).
/// The horizon grows one cycle at a time, and growing only ever *adds*
/// variables and clauses — the §6 constraint families are emitted so
/// that earlier clauses never need a literal that does not exist yet:
///
/// * availability ladders are emitted cycle by cycle, with completion
///   events buffered until their cycle's ladder clause is written (new
///   launches always complete in the new cycle, so emitted ladders never
///   miss an event);
/// * at-most-one constraints (issue slots, store levels) use extendable
///   sequential chains with one commander variable per literal;
/// * store at-least-one clauses, the only non-monotone family, are
///   re-emitted per cycle behind a fresh `frontier` guard literal
///   (stale guards are left free, making the old clauses vacuous).
///
/// The probe answers are identical to solving [`encode`]'s fresh
/// formula at each budget; only solver statistics and formula sizes
/// differ (they are cumulative here). The encoding keeps no clock: the
/// search times [`IncrementalEncoding::grow_to`] and
/// [`IncrementalEncoding::solve`] in its own trace spans.
pub struct IncrementalEncoding<'a, B> {
    rules: &'a Rules<'a>,
    solver: B,
    horizon: u32,
    /// Launches created so far, per candidate: `(var, cycle)`.
    by_candidate: Vec<Vec<(Var, u32)>>,
    /// `B` variables of every emitted cycle, by [`Rules::cell`].
    avail: Vec<Var>,
    /// Completion events buffered for not-yet-emitted ladder cycles, by
    /// [`Rules::cell`]; a cell is emptied when its cycle is emitted.
    events: Vec<Vec<Lit>>,
    /// Activation literal per completion cycle (`0..horizon`).
    active: Vec<Var>,
    /// `goal_ok[i]` ⇒ every goal class is available by end of cycle `i`.
    goal_ok: Vec<Var>,
    /// Sequential at-most-one chain head per `(cycle, unit)` issue slot,
    /// at `cycle * UNITS + unit`.
    slot_chain: Vec<Option<Var>>,
    /// Sequential at-most-one chain head per store level.
    level_chain: Vec<Option<Var>>,
    /// Every launch literal per store level (for at-least-one).
    level_lits: Vec<Vec<Lit>>,
    /// Guard literal of the current store at-least-one clauses.
    frontier: Option<Var>,
}

impl<'a, B: SolverBackend> IncrementalEncoding<'a, B> {
    /// Creates an empty encoding (horizon 0) of `rules` on an empty
    /// `solver`; [`IncrementalEncoding::grow_to`] grows it.
    pub fn new(rules: &'a Rules<'a>, solver: B) -> IncrementalEncoding<'a, B> {
        let candidates = rules.candidates;
        IncrementalEncoding {
            rules,
            solver,
            horizon: 0,
            by_candidate: vec![Vec::new(); candidates.list.len()],
            avail: Vec::new(),
            events: Vec::new(),
            active: Vec::new(),
            goal_ok: Vec::new(),
            slot_chain: Vec::new(),
            level_chain: vec![None; candidates.store_levels.len()],
            level_lits: vec![Vec::new(); candidates.store_levels.len()],
            frontier: None,
        }
    }

    /// Installs a shared interrupt flag on the persistent solver. Once
    /// the flag is raised, the in-flight [`IncrementalEncoding::solve`]
    /// (and any later one) returns [`SolveResult::Interrupted`] at the
    /// solver's next checkpoint instead of an answer. Used by request
    /// deadlines to abandon a search mid-probe.
    pub fn set_interrupt(&mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
        self.solver.set_interrupt(flag);
    }

    /// Grows the encoded horizon by one cycle, adding that cycle's
    /// variables and clauses to the live solver.
    fn grow(&mut self) {
        let cycle = self.horizon;
        let new_h = cycle + 1;
        let rules = self.rules;
        let candidates = rules.candidates;
        let clusters = rules.clusters;

        // Availability and activation variables for the new cycle, in
        // ladder-cell order.
        for _ in 0..rules.rungs() {
            let var = self.solver.new_var();
            self.avail.push(var);
        }
        let var = self.solver.new_var();
        self.active.push(var);
        self.slot_chain.resize(new_h as usize * UNITS, None);

        // Goal-deadline guard: goal_ok[cycle] ⇒ ∨_c B(goal, cycle, c).
        let ok = self.solver.new_var();
        for &slot in &rules.goal_slots {
            let mut clause = vec![Lit::neg(ok)];
            for cluster in 0..clusters {
                clause.push(Lit::pos(self.avail[rules.cell(slot, cycle, cluster)]));
            }
            self.solver.add_clause(&clause);
        }
        self.goal_ok.push(ok);

        // New launches: exactly the launch set [`encode`] would build at
        // budget `new_h`, minus what already exists. A window's start
        // does not depend on the budget and one more cycle moves its end
        // up by one, so the new launches are the last cycle of each
        // window — and they all complete in the new cycle, which keeps
        // the already-emitted ladder clauses complete.
        let mut new_launches: Vec<(Var, LaunchCoord)> = Vec::new();
        for (t, window) in rules.launch_windows(new_h).into_iter().enumerate() {
            let Some(window) = window else {
                continue;
            };
            for &unit in &candidates.list[t].units {
                let var = self.solver.new_var();
                new_launches.push((
                    var,
                    LaunchCoord {
                        candidate: t,
                        cycle: *window.end(),
                        unit,
                    },
                ));
            }
        }

        // Per-launch clauses: activation, completion events, argument
        // readiness, issue-slot and store-level at-most-one chains.
        for &(var, coord) in &new_launches {
            let completion = rules.completion(&coord);
            debug_assert_eq!(completion, cycle, "a new launch completes in the new cycle");
            self.solver
                .add_clause(&[Lit::neg(var), Lit::pos(self.active[completion as usize])]);

            for (slot, at, cluster) in rules.events(&coord) {
                let cell = rules.cell(slot, at, cluster);
                if cell >= self.events.len() {
                    // Grow by whole cycles.
                    self.events
                        .resize((at as usize + 1) * rules.rungs(), Vec::new());
                }
                self.events[cell].push(Lit::pos(var));
            }

            let solver = &mut self.solver;
            rules.readiness(var, &coord, &self.avail, |c| solver.add_clause(c));

            let issue_slot = coord.cycle as usize * UNITS + coord.unit as usize;
            let head = self.chain_link(var, self.slot_chain[issue_slot]);
            self.slot_chain[issue_slot] = Some(head);

            if let Some(li) = rules.level_of[coord.candidate] {
                self.level_lits[li].push(Lit::pos(var));
                let head = self.chain_link(var, self.level_chain[li]);
                self.level_chain[li] = Some(head);
            }
        }

        // Memory-ordering conflicts touching a new launch.
        for pair in &rules.order_pairs {
            let new_of = |t: usize| {
                new_launches
                    .iter()
                    .filter(move |(_, c)| c.candidate == t)
                    .map(|&(v, c)| (v, c.cycle))
            };
            for (va, ca) in new_of(pair.first) {
                let old_b = self.by_candidate[pair.second].iter().copied();
                for (vb, cb) in old_b.chain(new_of(pair.second)) {
                    if pair.forbids(ca, cb) {
                        self.solver.add_clause(&[Lit::neg(va), Lit::neg(vb)]);
                    }
                }
            }
            for &(va, ca) in &self.by_candidate[pair.first] {
                for (vb, cb) in new_of(pair.second) {
                    if pair.forbids(ca, cb) {
                        self.solver.add_clause(&[Lit::neg(va), Lit::neg(vb)]);
                    }
                }
            }
        }
        for &(var, coord) in &new_launches {
            self.by_candidate[coord.candidate].push((var, coord.cycle));
        }

        // Ladder clauses for the new cycle, consuming buffered events.
        let mut forward = Vec::new();
        for slot in 0..rules.slots {
            for cluster in 0..clusters {
                let cell = rules.cell(slot, cycle, cluster);
                let prev = cycle
                    .checked_sub(1)
                    .map(|i| self.avail[rules.cell(slot, i, cluster)]);
                let events = self
                    .events
                    .get_mut(cell)
                    .map(std::mem::take)
                    .unwrap_or_default();
                let solver = &mut self.solver;
                Rules::ladder_rung(self.avail[cell], prev, &events, &mut forward, |c| {
                    solver.add_clause(c)
                });
            }
        }

        // Store at-least-one, re-emitted over the grown launch sets
        // behind a fresh guard; the previous guard is left free, which
        // makes its clauses vacuous.
        if !candidates.store_levels.is_empty() {
            let f = self.solver.new_var();
            for lits in &self.level_lits {
                let mut clause = lits.clone();
                clause.push(Lit::pos(f));
                self.solver.add_clause(&clause);
            }
            self.frontier = Some(f);
        }

        self.horizon = new_h;
    }

    /// Extends a sequential at-most-one chain with launch `var`:
    /// `head ⇐ var ∨ prev` and `var ⇒ ¬prev`. Returns the new head.
    fn chain_link(&mut self, var: Var, prev: Option<Var>) -> Var {
        let head = self.solver.new_var();
        if let Some(p) = prev {
            self.solver.add_clause(&[Lit::neg(var), Lit::neg(p)]);
            self.solver.add_clause(&[Lit::neg(p), Lit::pos(head)]);
        }
        self.solver.add_clause(&[Lit::neg(var), Lit::pos(head)]);
        head
    }

    /// Grows the encoded horizon to at least `k` cycles, one cycle at a
    /// time, and returns the horizon it had before. Growing only adds
    /// variables and clauses to the live solver.
    ///
    /// One cycle at a time keeps the live formula at horizon `h` the
    /// same whichever budgets were probed first. A jump over several
    /// cycles at once would number the variables class by class instead
    /// of cycle by cycle, and a backend that branches in variable order
    /// (DPLL) is very sensitive to that.
    pub fn grow_to(&mut self, k: u32) -> u32 {
        let from = self.horizon;
        while self.horizon < k {
            self.grow();
        }
        from
    }

    /// Asks whether a `k`-cycle schedule exists, reusing the live
    /// solver. The budget restriction is pure assumptions, so the answer
    /// matches a fresh [`encode`] at `k`. Returns
    /// [`SolveResult::Interrupted`] once an installed interrupt flag is
    /// raised.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (the zero-launch case never probes) or if `k`
    /// lies beyond the horizon ([`IncrementalEncoding::grow_to`] first).
    pub fn solve(&mut self, k: u32) -> SolveResult {
        assert!(k >= 1, "budgets start at one cycle");
        assert!(k <= self.horizon, "budget {k} beyond the horizon");
        let mut assumptions: Vec<Lit> = (k..self.horizon)
            .map(|e| Lit::neg(self.active[e as usize]))
            .collect();
        assumptions.push(Lit::pos(self.goal_ok[(k - 1) as usize]));
        if let Some(f) = self.frontier {
            assumptions.push(Lit::neg(f));
        }
        self.solver.solve_under(&assumptions)
    }

    /// The live solver's counters: the `vars`/`clauses` sizes are
    /// cumulative across budgets, the work counters across solves.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_terms::{enumerate, enumerate_with_misses};
    use crate::matcher::match_gma;
    use crate::{Denali, Options};
    use denali_axioms::SaturationLimits;
    use denali_lang::{lower_proc, parse_program};
    use denali_prng::{forall, Rng};
    use denali_sat::SolveResult;
    use denali_term::Term;

    fn pipeline(text: &str) -> (Matched, Candidates) {
        let p = parse_program(text).unwrap();
        let gma = lower_proc(&p.procs[0]).unwrap().remove(0);
        let matched = match_gma(
            &gma,
            &denali_axioms::standard_axioms(),
            &SaturationLimits::default(),
        )
        .unwrap();
        let inputs = gma.inputs();
        let cands = enumerate(&matched, &Machine::ev6(), &inputs, None).unwrap();
        (matched, cands)
    }

    fn solve_at(matched: &Matched, cands: &Candidates, machine: &Machine, k: u32) -> SolveResult {
        let rules = Rules::new(matched, cands, machine, &EncodeOptions::default());
        let enc = encode(&rules, k);
        let mut solver = enc.cnf.to_solver();
        solver.solve()
    }

    #[test]
    fn figure2_is_one_cycle() {
        let (matched, cands) =
            pipeline("(procdecl f ((reg6 long)) long (:= (res (+ (* reg6 4) 1))))");
        let m = Machine::ev6();
        assert_eq!(solve_at(&matched, &cands, &m, 1), SolveResult::Sat);
    }

    #[test]
    fn dependent_adds_need_two_cycles() {
        // (a + b) + c: two dependent adds.
        let (matched, cands) =
            pipeline("(procdecl f ((a long) (b long) (c long)) long (:= (res (+ (+ a b) c))))");
        let m = Machine::ev6();
        assert_eq!(solve_at(&matched, &cands, &m, 1), SolveResult::Unsat);
        assert_eq!(solve_at(&matched, &cands, &m, 2), SolveResult::Sat);
    }

    #[test]
    fn multiply_latency_dominates() {
        let (matched, cands) = pipeline("(procdecl f ((a long)) long (:= (res (+ (* a a) 1))))");
        let m = Machine::ev6();
        // mulq latency 7, then the add: 8 cycles; 7 is impossible.
        assert_eq!(solve_at(&matched, &cands, &m, 7), SolveResult::Unsat);
        assert_eq!(solve_at(&matched, &cands, &m, 8), SolveResult::Sat);
    }

    #[test]
    fn issue_width_constrains_parallelism() {
        // Four independent ops combined with xors (no associativity
        // axioms, so no AC blowup) on a single-issue machine need more
        // cycles than on the quad-issue EV6.
        let text = "(procdecl f ((a long) (b long)) long
            (:= (res (^ (^ (+ a 1) (- a 2)) (^ (& b 3) (| b 4))))))";
        let p = parse_program(text).unwrap();
        let gma = lower_proc(&p.procs[0]).unwrap().remove(0);
        let limits = SaturationLimits {
            max_iterations: 8,
            max_nodes: 4_000,
            ..SaturationLimits::default()
        };
        let matched = match_gma(&gma, &denali_axioms::standard_axioms(), &limits).unwrap();
        let quad = Machine::ev6();
        let single = Machine::single_issue();
        let cands_quad = enumerate(&matched, &quad, &gma.inputs(), None).unwrap();
        let cands_single = enumerate(&matched, &single, &gma.inputs(), None).unwrap();
        // Quad issue with clusters: the final xor's two operands are
        // produced on different clusters, so one pays the bypass delay;
        // 3 cycles is impossible but 4 works.
        assert_eq!(
            solve_at(&matched, &cands_quad, &quad, 3),
            SolveResult::Unsat
        );
        assert_eq!(solve_at(&matched, &cands_quad, &quad, 4), SolveResult::Sat);
        // Without the cluster penalty, 3 cycles suffice.
        let flat = Machine::ev6_unclustered();
        let cands_flat = enumerate(&matched, &flat, &gma.inputs(), None).unwrap();
        assert_eq!(solve_at(&matched, &cands_flat, &flat, 3), SolveResult::Sat);
        // Single issue needs at least 7 instructions, so 7 cycles.
        assert_eq!(
            solve_at(&matched, &cands_single, &single, 6),
            SolveResult::Unsat
        );
        assert_eq!(
            solve_at(&matched, &cands_single, &single, 7),
            SolveResult::Sat
        );
    }

    #[test]
    fn load_latency_is_respected() {
        let (matched, cands) = pipeline("(procdecl f ((p long*)) long (:= (res (+ (deref p) 1))))");
        let m = Machine::ev6();
        // ldq (3 cycles) + addq (1): 4 cycles minimum.
        assert_eq!(solve_at(&matched, &cands, &m, 3), SolveResult::Unsat);
        assert_eq!(solve_at(&matched, &cands, &m, 4), SolveResult::Sat);
    }

    #[test]
    fn guard_orders_stores() {
        // A guarded store cannot launch before the guard is computed.
        let (matched, cands) = pipeline(
            "(procdecl f ((p long*) (q long*) (x long)) long
               (do (-> (<u p q) (:= ((deref p) x)))))",
        );
        let m = Machine::ev6();
        // Guard (1 cycle) then store: 2 cycles minimum.
        assert_eq!(solve_at(&matched, &cands, &m, 1), SolveResult::Unsat);
        assert_eq!(solve_at(&matched, &cands, &m, 2), SolveResult::Sat);
    }

    #[test]
    fn encoding_sizes_grow_with_k() {
        let (matched, cands) = pipeline("(procdecl f ((a long)) long (:= (res (+ (* a 4) 1))))");
        let m = Machine::ev6();
        let rules = Rules::new(&matched, &cands, &m, &EncodeOptions::default());
        let e4 = encode(&rules, 4);
        let e8 = encode(&rules, 8);
        assert!(e8.num_vars() > e4.num_vars());
        assert!(e8.num_clauses() > e4.num_clauses());
    }

    /// The launch windows read from the capped per-budget fixpoint.
    fn oracle_windows(rules: &Rules, k: u32) -> Vec<Option<RangeInclusive<u32>>> {
        let earliest = rules.earliest_completion(k);
        let list = &rules.candidates.list;
        (0..list.len())
            .map(|t| {
                let latency = list[t].latency;
                if latency > k {
                    return None;
                }
                let mut start = 0u32;
                for dep in &rules.deps[t] {
                    start = start.max(*earliest.get(dep)?);
                }
                (start <= k && latency <= k - start).then(|| start..=k - latency)
            })
            .collect()
    }

    /// Checks every GMA of `source`: the windows read from the one
    /// critical-path table equal the capped oracle's for K in 1..=24.
    fn check_windows(options: &Options, source: &str) {
        let prepared = Denali::new(options.clone())
            .prepare_source(source)
            .expect("prepares");
        for gma in &prepared.gmas {
            let matched = match_gma(gma, &prepared.axioms, &options.saturation).expect("matches");
            let cands = enumerate_with_misses(
                &matched,
                &options.machine,
                &gma.inputs(),
                options.load_latency,
                &gma.miss_addrs,
                options.miss_latency,
            )
            .expect("enumerates");
            let rules = Rules::new(&matched, &cands, &options.machine, &options.encode);
            for k in 1..=24 {
                assert_eq!(
                    rules.launch_windows(k),
                    oracle_windows(&rules, k),
                    "{} at K={k}",
                    gma.name
                );
            }
        }
    }

    fn random_goal(rng: &mut Rng, depth: usize) -> Term {
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(3) {
                0 => Term::leaf("a"),
                1 => Term::leaf("b"),
                _ => Term::constant(rng.below(256)),
            };
        }
        let op = ["add64", "sub64", "and64", "or64", "xor64", "cmpult"][rng.below_usize(6)];
        match rng.below(3) {
            0 => Term::call(
                "selectb",
                vec![random_goal(rng, depth - 1), Term::constant(rng.below(8))],
            ),
            _ => Term::call(
                op,
                vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)],
            ),
        }
    }

    #[test]
    fn launch_windows_match_the_capped_fixpoint() {
        let small = Options {
            saturation: SaturationLimits {
                max_iterations: 6,
                max_nodes: 3_000,
                ..SaturationLimits::default()
            },
            ..Options::default()
        };
        forall("launch_windows_match_the_capped_fixpoint", 24, |rng| {
            let goal = random_goal(rng, 3);
            check_windows(
                &small,
                &format!("(procdecl f ((a long) (b long)) long (:= (res {goal})))"),
            );
        });
        // Every corpus GMA, with the loads of the memory-heavy ones both
        // speculated and guarded.
        let guarded = Options {
            encode: EncodeOptions {
                speculate_loads: false,
            },
            ..Options::default()
        };
        for source in CORPUS {
            check_windows(&Options::default(), source);
            check_windows(&guarded, source);
        }
    }

    const CORPUS: &[&str] = &[
        include_str!("../../../pipeline_bench/src/corpus/byteswap4.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/byteswap5.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/checksum.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/dot4.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/figure2.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/lcp2.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/memcopy2_zero.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/memcopy5.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/memcopy6.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/memcopy7.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/rowop.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/rowop4.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/sel.dnl"),
        include_str!("../../../pipeline_bench/src/corpus/wide.dnl"),
    ];

    #[test]
    fn identity_goal_needs_no_instructions() {
        let (matched, cands) = pipeline("(procdecl f ((a long)) long (:= (res a)))");
        let m = Machine::ev6();
        // K = 1 trivially SAT (no launches needed at all).
        assert_eq!(solve_at(&matched, &cands, &m, 1), SolveResult::Sat);
    }
}
