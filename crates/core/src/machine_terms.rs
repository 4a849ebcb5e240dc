//! Machine-term enumeration: the schedulable candidates of a saturated
//! E-graph.
//!
//! "We define a term (that is, a node of the E-graph) to be a machine
//! term if it is an application of a machine operation. [...] The
//! arguments to a machine term need not themselves be machine terms."
//! (§6). This module walks the cone of the goal classes, turning machine
//! e-nodes into [`Candidate`]s the SAT encoding can schedule, handling
//! the operand-legality details the paper leaves implicit:
//!
//! * the Alpha's 8-bit literal field (a small constant used as a second
//!   source needs no register),
//! * constant materialization (`ldiq` pseudo-instructions for constants
//!   that do need a register),
//! * folding address arithmetic into the 16-bit displacement field of
//!   loads and stores.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use denali_arch::{Machine, Unit};
use denali_egraph::{ClassId, EGraph};
use denali_term::{ops, Op, OpKind, Symbol, Term};

use crate::matcher::Matched;

/// A register-or-literal argument of a candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArgSpec {
    /// The value of this equivalence class, in a register.
    Class(ClassId),
    /// An immediate literal (fits the instruction's literal field).
    Literal(u64),
}

/// What kind of instruction a candidate is.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CandidateKind {
    /// Register-to-register operation.
    Alu,
    /// Constant materialization (`ldiq value, $d`).
    LoadImm(u64),
    /// Memory load: `ldq $d, disp($base)`.
    Load {
        /// Class of the base address register.
        base: ClassId,
        /// Displacement folded into the instruction.
        disp: u64,
        /// Class of the full address (for alias reasoning).
        addr: ClassId,
    },
    /// Memory store: `stq $value, disp($base)`, realizing one level of
    /// the GMA's store chain.
    Store {
        /// Index in the store chain (0 = innermost / first store).
        level: usize,
        /// Class of the stored value.
        value: ClassId,
        /// Class of the base address register.
        base: ClassId,
        /// Displacement.
        disp: u64,
        /// Class of the full address.
        addr: ClassId,
    },
}

/// One schedulable instruction candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Opcode.
    pub op: Symbol,
    /// Canonical class of the computed value (for stores, the class of
    /// the memory term after this store level).
    pub class: ClassId,
    /// Argument specs (registers and literals), excluding memory.
    pub args: Vec<ArgSpec>,
    /// Candidate kind.
    pub kind: CandidateKind,
    /// Units the opcode may issue on.
    pub units: Vec<Unit>,
    /// Result latency.
    pub latency: u32,
}

impl Candidate {
    /// The class dependencies that must be in registers before launch.
    pub fn register_deps(&self) -> Vec<ClassId> {
        self.args
            .iter()
            .filter_map(|a| match a {
                ArgSpec::Class(c) => Some(*c),
                ArgSpec::Literal(_) => None,
            })
            .collect()
    }
}

/// The complete candidate set for one GMA.
#[derive(Clone, Default, Debug)]
pub struct Candidates {
    /// All candidates.
    pub list: Vec<Candidate>,
    /// Classes available in registers at cycle 0 (the GMA's inputs).
    pub inputs: HashMap<ClassId, Symbol>,
    /// Value-producing candidate indices per canonical class.
    pub by_class: HashMap<ClassId, Vec<usize>>,
    /// Store candidate indices grouped by chain level.
    pub store_levels: Vec<Vec<usize>>,
    /// Classes that need availability (`B`) variables.
    pub needed_classes: Vec<ClassId>,
    /// Value goal classes (guard + register targets), canonical.
    pub goal_classes: Vec<ClassId>,
    /// Class of the guard, if any (canonical).
    pub guard_class: Option<ClassId>,
}

impl Candidates {
    /// True if `class` is available at cycle 0 without any instruction.
    pub fn is_available(&self, class: ClassId) -> bool {
        self.inputs.contains_key(&class)
    }

    /// Load candidate indices.
    pub fn loads(&self) -> Vec<usize> {
        self.list
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.kind, CandidateKind::Load { .. }))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Candidate-enumeration failure: some goal cannot be computed by any
/// machine instruction sequence (e.g. an uninterpreted operation with no
/// defining axiom).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EnumerateError {
    /// Explanation, including the offending class's operators.
    pub message: String,
}

impl fmt::Display for EnumerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EnumerateError {}

/// Positions where an instruction accepts a small literal.
fn literal_positions(op: &str, arity: usize) -> &'static [usize] {
    match (op, arity) {
        // Unary ops take a register.
        (_, 1) => &[],
        // cmov: test register, literal-capable value, old value.
        ("cmoveq" | "cmovne", 3) => &[1],
        // IA-64 shladd: the shift count is an immediate.
        ("shladd", 3) => &[1],
        // IA-64 field ops: position and length are immediates.
        ("extr_u" | "dep_z", 3) => &[1, 2],
        // Ordinary two-source ALU ops: literal in the second source.
        (_, 2) => &[1],
        _ => &[],
    }
}

/// Positions that *must* be literals (immediate-only encodings).
fn required_literal_positions(op: &str) -> &'static [usize] {
    match op {
        "shladd" => &[1],
        "extr_u" | "dep_z" => &[1, 2],
        _ => &[],
    }
}

/// Enumerates the candidates for a matched GMA.
///
/// `input_names` are the GMA's free inputs (each is a leaf term whose
/// class is available at cycle 0).
///
/// # Errors
///
/// Fails if a goal class (or any class every candidate path depends on)
/// has no computable realization.
pub fn enumerate(
    matched: &Matched,
    machine: &Machine,
    input_names: &[Symbol],
    load_latency: Option<u32>,
) -> Result<Candidates, EnumerateError> {
    enumerate_with_misses(matched, machine, input_names, load_latency, &[], 0)
}

/// [`enumerate`] with cache-miss annotations (§6): loads whose address
/// class matches one of `miss_addrs` get `miss_latency` instead of the
/// hit latency.
pub fn enumerate_with_misses(
    matched: &Matched,
    machine: &Machine,
    input_names: &[Symbol],
    load_latency: Option<u32>,
    miss_addrs: &[denali_term::Term],
    miss_latency: u32,
) -> Result<Candidates, EnumerateError> {
    let eg = &matched.egraph;
    let mut out = Candidates::default();
    let miss_classes: Vec<ClassId> = miss_addrs
        .iter()
        .filter_map(|a| eg.lookup_term(a))
        .map(|c| eg.find(c))
        .collect();

    // Input classes.
    let mem_sym = Symbol::intern("M");
    for &name in input_names {
        if name == mem_sym {
            continue;
        }
        if let Some(class) = eg.lookup_term(&Term::leaf(name)) {
            out.inputs.insert(eg.find(class), name);
        }
    }
    let mem_class = eg.lookup_term(&Term::leaf(mem_sym)).map(|c| eg.find(c));

    // Goal classes.
    out.guard_class = matched.guard.map(|c| eg.find(c));
    out.goal_classes = matched.value_goal_classes();

    // BFS over the cone of the goals, generating candidates.
    let mut queue: VecDeque<ClassId> = out.goal_classes.iter().copied().collect();
    let mut visited: HashSet<ClassId> = HashSet::new();
    let enqueue = |q: ClassId, queue: &mut VecDeque<ClassId>, visited: &HashSet<ClassId>| {
        if !visited.contains(&q) {
            queue.push_back(q);
        }
    };

    // Seed the queue with the store chain's value/address classes too.
    let store_chain = mem_chain(matched, eg, mem_class);
    for level in &store_chain {
        enqueue(level.value, &mut queue, &visited);
        enqueue(level.addr, &mut queue, &visited);
    }

    while let Some(class) = queue.pop_front() {
        let class = eg.find(class);
        if !visited.insert(class) {
            continue;
        }
        // Goal classes need a register even when they are constants, so
        // only non-goal inputs terminate the walk.
        let is_goal = out.goal_classes.contains(&class);
        if out.inputs.contains_key(&class) && !is_goal {
            continue;
        }
        // Constant: materialization candidate.
        if let Some(value) = eg.constant(class) {
            out.add_candidate(Candidate {
                op: Symbol::intern("ldiq"),
                class,
                args: vec![ArgSpec::Literal(value)],
                kind: CandidateKind::LoadImm(value),
                units: machine
                    .info(Symbol::intern("ldiq"))
                    .expect("ldiq is an instruction")
                    .units
                    .clone(),
                latency: 1,
            });
            continue;
        }
        for &nid in eg.class_node_ids(class) {
            let Some(op) = eg.node_op(nid).as_sym() else {
                continue;
            };
            let children = eg.node_children(nid);
            let name = op.as_str();
            if name == "stq" {
                continue; // handled through the store chain
            }
            if name == "ldq" {
                // Load from the *initial* memory only; loads from a
                // stored memory are resolved by the select/store axioms
                // or are unschedulable (ambiguous aliasing).
                let node_mem = eg.find(children[0]);
                if Some(node_mem) != mem_class {
                    continue;
                }
                let addr = eg.find(children[1]);
                let info = machine.info(op).expect("ldq is an instruction");
                let latency = if miss_classes.contains(&addr) {
                    miss_latency
                } else {
                    load_latency.unwrap_or(info.latency)
                };
                for (base, disp) in address_choices(eg, addr, machine) {
                    out.add_candidate(Candidate {
                        op,
                        class,
                        args: vec![ArgSpec::Class(base)],
                        kind: CandidateKind::Load { base, disp, addr },
                        units: info.units.clone(),
                        latency,
                    });
                    enqueue(base, &mut queue, &visited);
                }
                continue;
            }
            let Some(info) = machine.info(op) else {
                continue;
            };
            // Ordinary register-to-register machine operation.
            if ops::info(op).map(|i| i.kind) == Some(OpKind::MachineMemory) {
                continue;
            }
            let literal_pos = literal_positions(name, children.len());
            let required = required_literal_positions(name);
            let mut args = Vec::with_capacity(children.len());
            let mut legal = true;
            for (pos, &child) in children.iter().enumerate() {
                let child = eg.find(child);
                let literal = eg
                    .constant(child)
                    .filter(|&v| literal_pos.contains(&pos) && machine.fits_alu_literal(v));
                match literal {
                    Some(v) => args.push(ArgSpec::Literal(v)),
                    None if required.contains(&pos) => {
                        // Immediate-only encoding with no usable constant.
                        legal = false;
                        break;
                    }
                    None => {
                        args.push(ArgSpec::Class(child));
                        enqueue(child, &mut queue, &visited);
                    }
                }
            }
            if !legal {
                continue;
            }
            out.add_candidate(Candidate {
                op,
                class,
                args,
                kind: CandidateKind::Alu,
                units: info.units.clone(),
                latency: info.latency,
            });
        }
    }

    // Store candidates per chain level.
    for (level_idx, level) in store_chain.iter().enumerate() {
        let info = machine
            .info(Symbol::intern("stq"))
            .expect("stq is an instruction");
        let mut level_cands = Vec::new();
        for (base, disp) in address_choices(eg, level.addr, machine) {
            let idx = out.list.len();
            out.list.push(Candidate {
                op: Symbol::intern("stq"),
                class: level.class,
                args: vec![ArgSpec::Class(level.value), ArgSpec::Class(base)],
                kind: CandidateKind::Store {
                    level: level_idx,
                    value: level.value,
                    base,
                    disp,
                    addr: level.addr,
                },
                units: info.units.clone(),
                latency: info.latency,
            });
            level_cands.push(idx);
        }
        out.store_levels.push(level_cands);
    }

    // Needed classes: every register dependency plus the value goals.
    let mut needed: Vec<ClassId> = Vec::new();
    let push_needed = |c: ClassId, needed: &mut Vec<ClassId>| {
        if !needed.contains(&c) {
            needed.push(c);
        }
    };
    for goal in &out.goal_classes {
        push_needed(*goal, &mut needed);
    }
    for cand in &out.list {
        for dep in cand.register_deps() {
            push_needed(dep, &mut needed);
        }
    }
    out.needed_classes = needed;

    // Computability fixpoint; prune dead candidates and detect
    // unschedulable goals.
    out.prune(eg)?;
    Ok(out)
}

struct StoreLevel {
    /// Class of the memory term after this store.
    class: ClassId,
    value: ClassId,
    addr: ClassId,
}

/// Walks the GMA's memory chain term from the innermost store outward,
/// resolving each level's value/address classes. Levels that collapse to
/// the previous memory (a store the axioms proved redundant) are
/// dropped.
fn mem_chain(matched: &Matched, eg: &EGraph, mem_class: Option<ClassId>) -> Vec<StoreLevel> {
    let Some(term) = &matched.mem_term else {
        return Vec::new();
    };
    // Collect store(...) terms from outermost to innermost, then reverse.
    let mut levels_outer_first = Vec::new();
    let mut cursor = term;
    loop {
        match cursor.op() {
            Op::Sym(s) if s.as_str() == "store" => {
                levels_outer_first.push(cursor.clone());
                cursor = &cursor.args()[0];
            }
            _ => break,
        }
    }
    let mut prev_class = mem_class;
    let mut out = Vec::new();
    for term in levels_outer_first.iter().rev() {
        let Some(class) = eg.lookup_term(term) else {
            continue;
        };
        let class = eg.find(class);
        if Some(class) == prev_class {
            // This store is a no-op (e.g. store(a, i, select(a, i))).
            continue;
        }
        let addr = eg.lookup_term(&term.args()[1]).map(|c| eg.find(c));
        let value = eg.lookup_term(&term.args()[2]).map(|c| eg.find(c));
        if let (Some(addr), Some(value)) = (addr, value) {
            out.push(StoreLevel { class, value, addr });
        }
        prev_class = Some(class);
    }
    out
}

/// The usable `(base, displacement)` decompositions of an address class.
fn address_choices(eg: &EGraph, addr: ClassId, machine: &Machine) -> Vec<(ClassId, u64)> {
    let mut choices: Vec<(ClassId, u64)> = Vec::new();
    for (base, disp) in eg.address_decompositions(addr) {
        if machine.fits_displacement(disp) && !choices.contains(&(base, disp)) {
            // A base that is itself a small literal would still need a
            // register; keep it (the ldiq candidate covers it).
            choices.push((base, disp));
        }
    }
    choices
}

impl Candidates {
    fn add_candidate(&mut self, cand: Candidate) {
        let class = cand.class;
        let idx = self.list.len();
        let is_store = matches!(cand.kind, CandidateKind::Store { .. });
        self.list.push(cand);
        if !is_store {
            self.by_class.entry(class).or_default().push(idx);
        }
    }

    /// Fixpoint computability check; removes candidates that can never
    /// launch and errors if a goal (or store input) is uncomputable.
    fn prune(&mut self, eg: &EGraph) -> Result<(), EnumerateError> {
        let mut computable: HashSet<ClassId> = self.inputs.keys().copied().collect();
        loop {
            let mut changed = false;
            for cand in &self.list {
                if matches!(cand.kind, CandidateKind::Store { .. }) {
                    continue;
                }
                if computable.contains(&cand.class) {
                    continue;
                }
                if cand.register_deps().iter().all(|d| computable.contains(d)) {
                    computable.insert(cand.class);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let describe = |c: ClassId| -> String {
            let ops: Vec<String> = eg
                .class_node_ids(c)
                .iter()
                .map(|&nid| format!("{}", eg.node_op(nid)))
                .collect();
            format!("{c} [{}]", ops.join(", "))
        };
        for goal in &self.goal_classes {
            if !computable.contains(goal) {
                return Err(EnumerateError {
                    message: format!(
                        "goal class {} has no machine realization; \
                         add defining axioms for its operations",
                        describe(*goal)
                    ),
                });
            }
        }
        for level in &self.store_levels {
            let ok = level.iter().any(|&i| {
                self.list[i]
                    .register_deps()
                    .iter()
                    .all(|d| computable.contains(d))
            });
            if !ok {
                return Err(EnumerateError {
                    message: "a store level has no computable address/value".to_owned(),
                });
            }
        }
        // Prune candidates with uncomputable dependencies.
        let keep: Vec<bool> = self
            .list
            .iter()
            .map(|c| c.register_deps().iter().all(|d| computable.contains(d)))
            .collect();
        let mut remap: HashMap<usize, usize> = HashMap::new();
        let mut new_list = Vec::new();
        for (i, cand) in self.list.drain(..).enumerate() {
            if keep[i] {
                remap.insert(i, new_list.len());
                new_list.push(cand);
            }
        }
        self.list = new_list;
        for indices in self.by_class.values_mut() {
            *indices = indices
                .iter()
                .filter_map(|i| remap.get(i).copied())
                .collect();
        }
        self.by_class.retain(|_, v| !v.is_empty());
        for level in &mut self.store_levels {
            *level = level.iter().filter_map(|i| remap.get(i).copied()).collect();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_gma;
    use denali_axioms::SaturationLimits;
    use denali_lang::{lower_proc, parse_program};

    fn candidates_for(text: &str) -> (Matched, Candidates) {
        let p = parse_program(text).unwrap();
        let gma = lower_proc(&p.procs[0]).unwrap().remove(0);
        let matched = match_gma(
            &gma,
            &denali_axioms::axioms_for("ev6"),
            &SaturationLimits::default(),
        )
        .unwrap();
        let inputs = gma.inputs();
        let cands = enumerate(&matched, &Machine::ev6(), &inputs, None).unwrap();
        (matched, cands)
    }

    #[test]
    fn figure2_candidates_include_s4addq() {
        let (matched, cands) =
            candidates_for("(procdecl f ((reg6 long)) long (:= (res (+ (* reg6 4) 1))))");
        let goal = matched.egraph.find(matched.assigns[0]);
        let ops: Vec<&str> = cands.by_class[&goal]
            .iter()
            .map(|&i| cands.list[i].op.as_str())
            .collect();
        assert!(ops.contains(&"s4addq"), "{ops:?}");
        assert!(ops.contains(&"addq"), "{ops:?}");
        // s4addq's second argument is the literal 1.
        let s4 = cands.by_class[&goal]
            .iter()
            .map(|&i| &cands.list[i])
            .find(|c| c.op.as_str() == "s4addq")
            .unwrap();
        assert_eq!(s4.args.len(), 2);
        assert!(matches!(s4.args[1], ArgSpec::Literal(1)));
        assert!(matches!(s4.args[0], ArgSpec::Class(_)));
    }

    #[test]
    fn large_constants_get_ldiq_candidates() {
        let (matched, cands) =
            candidates_for("(procdecl f ((a long)) long (:= (res (& a 65535))))");
        // 65535 exceeds the literal field; zapnot/extwl avoid it, but the
        // plain `and` path needs a materialized constant.
        let has_ldiq = cands
            .list
            .iter()
            .any(|c| matches!(c.kind, CandidateKind::LoadImm(65535)));
        assert!(has_ldiq, "{:?}", cands.list);
        let goal = matched.egraph.find(matched.assigns[0]);
        let ops: Vec<&str> = cands.by_class[&goal]
            .iter()
            .map(|&i| cands.list[i].op.as_str())
            .collect();
        assert!(ops.contains(&"zapnot"), "{ops:?}");
        assert!(ops.contains(&"extwl"), "{ops:?}");
    }

    #[test]
    fn loads_fold_displacements() {
        let (_, cands) = candidates_for("(procdecl f ((p long*)) long (:= (res (deref (+ p 8)))))");
        let loads: Vec<&Candidate> = cands
            .list
            .iter()
            .filter(|c| matches!(c.kind, CandidateKind::Load { .. }))
            .collect();
        assert!(!loads.is_empty());
        assert!(
            loads
                .iter()
                .any(|c| matches!(c.kind, CandidateKind::Load { disp: 8, .. })),
            "{loads:?}"
        );
    }

    #[test]
    fn store_chain_levels_are_found() {
        let (_, cands) = candidates_for(
            "(procdecl f ((p long*) (x long) (y long)) long
               (semi
                 (:= ((deref p) x))
                 (:= ((deref (+ p 8)) y))
                 (:= (res x))))",
        );
        assert_eq!(cands.store_levels.len(), 2);
        assert!(cands.store_levels.iter().all(|l| !l.is_empty()));
    }

    #[test]
    fn uninterpreted_goal_is_rejected() {
        let p = parse_program("(procdecl f ((a long)) long (:= (res (mystery a))))").unwrap();
        let gma = lower_proc(&p.procs[0]).unwrap().remove(0);
        let matched = match_gma(
            &gma,
            &denali_axioms::axioms_for("ev6"),
            &SaturationLimits::default(),
        )
        .unwrap();
        let inputs = gma.inputs();
        let err = enumerate(&matched, &Machine::ev6(), &inputs, None).unwrap_err();
        assert!(err.to_string().contains("no machine realization"));
    }

    #[test]
    fn goal_constant_still_needs_a_register() {
        let (matched, cands) = candidates_for("(procdecl f ((a long)) long (:= (res 7)))");
        let goal = matched.egraph.find(matched.assigns[0]);
        assert!(!cands.is_available(goal));
        let ops: Vec<&str> = cands.by_class[&goal]
            .iter()
            .map(|&i| cands.list[i].op.as_str())
            .collect();
        assert!(ops.contains(&"ldiq"), "{ops:?}");
    }

    #[test]
    fn load_latency_override_applies() {
        let p = parse_program("(procdecl f ((p long*)) long (:= (res (deref p))))").unwrap();
        let gma = lower_proc(&p.procs[0]).unwrap().remove(0);
        let matched = match_gma(
            &gma,
            &denali_axioms::axioms_for("ev6"),
            &SaturationLimits::default(),
        )
        .unwrap();
        let inputs = gma.inputs();
        let cands = enumerate(&matched, &Machine::ev6(), &inputs, Some(12)).unwrap();
        let load = cands
            .list
            .iter()
            .find(|c| matches!(c.kind, CandidateKind::Load { .. }))
            .unwrap();
        assert_eq!(load.latency, 12);
    }
}
