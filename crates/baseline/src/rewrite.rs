//! A conventional code generator: bottom-up rewriting plus greedy list
//! scheduling.
//!
//! This is the stand-in for the production C compiler of §8 ("with some
//! effort, we were able to coax the production C compiler to tie this
//! result"). It does what a good conventional compiler does — canonical
//! strength reduction, constant folding, common-subexpression sharing,
//! and a greedy critical-path list schedule on the machine model — but
//! commits to one rewrite per node instead of exploring all equivalent
//! forms, which is precisely the weakness the paper's E-graph approach
//! removes (§5's "thorny problems for rewriting engines").

use std::collections::HashMap;
use std::fmt;

use denali_arch::{Instr, Machine, Operand, Program, Reg, Unit};
use denali_lang::Gma;
use denali_term::{ops, Op, Symbol, Term};

/// Rewriting/scheduling failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RewriteError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RewriteError {}

fn err(message: impl Into<String>) -> RewriteError {
    RewriteError {
        message: message.into(),
    }
}

type NodeId = usize;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Node {
    Input(Symbol),
    Const(u64),
    /// Machine operation over nodes; the bool per operand marks a
    /// literal immediate (stored as a Const node that needs no register).
    Op(Symbol, Vec<NodeId>),
    Load {
        base: NodeId,
        disp: u64,
    },
    Store {
        value: NodeId,
        base: NodeId,
        disp: u64,
    },
}

#[derive(Default)]
struct Dag {
    nodes: Vec<Node>,
    memo: HashMap<Term, NodeId>,
    hashcons: HashMap<Node, NodeId>,
}

impl Dag {
    fn add(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.hashcons.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        self.hashcons.insert(node, id);
        id
    }

    fn constant_of(&self, id: NodeId) -> Option<u64> {
        match self.nodes[id] {
            Node::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Bitmask of bytes (bit `i` = byte `i`) statically known to be zero
    /// — the value-range analysis a conventional compiler uses to drop
    /// redundant byte masks.
    fn zero_bytes(&self, id: NodeId) -> u8 {
        match &self.nodes[id] {
            Node::Const(c) => {
                let mut mask = 0u8;
                for byte in 0..8 {
                    if (c >> (8 * byte)) & 0xff == 0 {
                        mask |= 1 << byte;
                    }
                }
                mask
            }
            Node::Op(op, args) => match op.as_str() {
                "and" => self.zero_bytes(args[0]) | self.zero_bytes(args[1]),
                "bis" => self.zero_bytes(args[0]) & self.zero_bytes(args[1]),
                "zapnot" => match self.constant_of(args[1]) {
                    Some(m) => self.zero_bytes(args[0]) | !(m as u8),
                    None => 0,
                },
                // extbl leaves only byte 0 possibly nonzero.
                "extbl" => 0b1111_1110,
                "sll" => match self.constant_of(args[1]) {
                    Some(n) if n % 8 == 0 && n < 64 => {
                        let k = (n / 8) as u8;
                        // Low k bytes become zero; the rest shift up.
                        (self.zero_bytes(args[0]) << k) | ((1u8 << k) - 1)
                    }
                    _ => 0,
                },
                "srl" => match self.constant_of(args[1]) {
                    Some(n) if n % 8 == 0 && n < 64 => {
                        let k = (n / 8) as u32;
                        // High k bytes become zero; the rest shift down.
                        (self.zero_bytes(args[0]) >> k) | !(0xffu8 >> k)
                    }
                    _ => 0,
                },
                _ => 0,
            },
            _ => 0,
        }
    }
}

/// Deterministic bottom-up rewriting of a goal term into machine nodes.
fn rewrite(dag: &mut Dag, term: &Term) -> Result<NodeId, RewriteError> {
    if let Some(&id) = dag.memo.get(term) {
        return Ok(id);
    }
    let id = rewrite_uncached(dag, term)?;
    dag.memo.insert(term.clone(), id);
    Ok(id)
}

fn rewrite_uncached(dag: &mut Dag, term: &Term) -> Result<NodeId, RewriteError> {
    let op = match term.op() {
        Op::Const(c) => return Ok(dag.add(Node::Const(c))),
        Op::Var(v) => return Err(err(format!("pattern variable ?{v} in goal"))),
        Op::Sym(s) => s,
    };
    if term.args().is_empty() {
        return Ok(dag.add(Node::Input(op)));
    }
    let name = op.as_str();

    // Memory operations.
    if name == "select" || name == "ldq" {
        let (base, disp) = rewrite_address(dag, &term.args()[1])?;
        return Ok(dag.add(Node::Load { base, disp }));
    }
    if name == "store" || name == "stq" {
        let value = rewrite(dag, &term.args()[2])?;
        let (base, disp) = rewrite_address(dag, &term.args()[1])?;
        // The memory argument chain is preserved by scheduling order.
        rewrite(dag, &term.args()[0])?;
        return Ok(dag.add(Node::Store { value, base, disp }));
    }

    let args = term
        .args()
        .iter()
        .map(|a| rewrite(dag, a))
        .collect::<Result<Vec<_>, _>>()?;

    // Constant folding.
    let const_args: Option<Vec<u64>> = args.iter().map(|&a| dag.constant_of(a)).collect();
    if let Some(vals) = const_args {
        if let Some(v) = ops::eval(op, &vals) {
            return Ok(dag.add(Node::Const(v)));
        }
    }

    // Strength reduction and canonical instruction selection.
    let emit = |dag: &mut Dag, opname: &str, operands: Vec<NodeId>| {
        dag.add(Node::Op(Symbol::intern(opname), operands))
    };
    let node = match name {
        "add64" => emit(dag, "addq", args),
        "sub64" => emit(dag, "subq", args),
        "mul64" => {
            let rhs = dag.constant_of(args[1]);
            match rhs {
                Some(0) => dag.add(Node::Const(0)),
                Some(1) => args[0],
                Some(c) if c.is_power_of_two() => {
                    let shift = dag.add(Node::Const(c.trailing_zeros().into()));
                    emit(dag, "sll", vec![args[0], shift])
                }
                _ => emit(dag, "mulq", args),
            }
        }
        "and64" => rewrite_mask(dag, args[0], args[1]),
        "or64" => emit(dag, "bis", args),
        "xor64" => emit(dag, "xor", args),
        "not64" => {
            let zero = dag.add(Node::Const(0));
            emit(dag, "ornot", vec![zero, args[0]])
        }
        "shl64" => emit(dag, "sll", args),
        "shr64" => emit(dag, "srl", args),
        "sar64" => emit(dag, "sra", args),
        "neg64" => {
            let zero = dag.add(Node::Const(0));
            emit(dag, "subq", vec![zero, args[0]])
        }
        // C-style byte access: shift then mask.
        "selectb" => {
            let i = dag
                .constant_of(args[1])
                .ok_or_else(|| err("selectb with non-constant index"))?;
            let shifted = if (i & 7) == 0 {
                args[0]
            } else {
                let amount = dag.add(Node::Const(8 * (i & 7)));
                emit(dag, "srl", vec![args[0], amount])
            };
            let mask = dag.add(Node::Const(0xff));
            emit(dag, "and", vec![shifted, mask])
        }
        "storeb" => {
            let i = dag
                .constant_of(args[1])
                .ok_or_else(|| err("storeb with non-constant index"))?
                & 7;
            let low = if dag.zero_bytes(args[2]) & 0b1111_1110 == 0b1111_1110 {
                args[2] // already a single byte
            } else {
                let mask = dag.add(Node::Const(0xff));
                emit(dag, "and", vec![args[2], mask])
            };
            let positioned = if i == 0 {
                low
            } else {
                let amount = dag.add(Node::Const(8 * i));
                emit(dag, "sll", vec![low, amount])
            };
            match dag.constant_of(args[0]) {
                Some(0) => positioned,
                // If byte i of w is already known zero (a partially
                // assembled byte puzzle), the mask is redundant.
                _ if dag.zero_bytes(args[0]) & (1 << i) != 0 => {
                    emit(dag, "bis", vec![args[0], positioned])
                }
                _ => {
                    let keep_mask = dag.add(Node::Const(!(0xffu64 << (8 * i))));
                    let kept = rewrite_mask(dag, args[0], keep_mask);
                    emit(dag, "bis", vec![kept, positioned])
                }
            }
        }
        "castshort" => {
            let mask = dag.add(Node::Const(3));
            emit(dag, "zapnot", vec![args[0], mask])
        }
        "castint" => {
            let zero = dag.add(Node::Const(0));
            emit(dag, "addl", vec![args[0], zero])
        }
        "selectw" => {
            let i = dag
                .constant_of(args[1])
                .ok_or_else(|| err("selectw with non-constant index"))?;
            let byte = dag.add(Node::Const(2 * (i & 3)));
            emit(dag, "extwl", vec![args[0], byte])
        }
        "pow" => return Err(err("pow with non-constant operands")),
        // Anything already a machine instruction passes through.
        _ if ops::is_machine(op) => dag.add(Node::Op(op, args)),
        other => return Err(err(format!("no rewrite for operation {other}"))),
    };
    Ok(node)
}

/// `and` with mask idioms: zapnot for byte masks, plain and otherwise.
fn rewrite_mask(dag: &mut Dag, value: NodeId, mask: NodeId) -> NodeId {
    if let Some(m) = dag.constant_of(mask) {
        // Is the mask a whole-bytes mask? Then zapnot is one instruction
        // with a small literal.
        let mut byte_mask = 0u64;
        let mut whole_bytes = true;
        for byte in 0..8 {
            match (m >> (8 * byte)) & 0xff {
                0xff => byte_mask |= 1 << byte,
                0 => {}
                _ => {
                    whole_bytes = false;
                    break;
                }
            }
        }
        if whole_bytes && m > 255 {
            let zap = dag.add(Node::Const(byte_mask));
            return dag.add(Node::Op(Symbol::intern("zapnot"), vec![value, zap]));
        }
    }
    dag.add(Node::Op(Symbol::intern("and"), vec![value, mask]))
}

fn rewrite_address(dag: &mut Dag, addr: &Term) -> Result<(NodeId, u64), RewriteError> {
    // Fold add64(base, const) into the displacement field.
    if let Op::Sym(s) = addr.op() {
        if matches!(s.as_str(), "add64" | "addq") && addr.args().len() == 2 {
            if let Some(d) = addr.args()[1].as_const() {
                if (d as i64) >= -32768 && (d as i64) <= 32767 {
                    let base = rewrite(dag, &addr.args()[0])?;
                    return Ok((base, d));
                }
            }
        }
    }
    Ok((rewrite(dag, addr)?, 0))
}

/// Reassociation: flattens chains of an associative commutative machine
/// op and rebuilds them as balanced trees (a standard ILP-enabling pass
/// in conventional compilers).
fn reassociate(dag: &mut Dag, id: NodeId) -> NodeId {
    let node = dag.nodes[id].clone();
    match node {
        Node::Op(op, args) if matches!(op.as_str(), "bis" | "xor" | "and" | "addq") => {
            // Collect the maximal same-op chain.
            let mut leaves = Vec::new();
            flatten(dag, id, op, &mut leaves);
            if leaves.len() <= 2 {
                let rebuilt: Vec<NodeId> = args.iter().map(|&a| reassociate(dag, a)).collect();
                return dag.add(Node::Op(op, rebuilt));
            }
            let mut level: Vec<NodeId> = leaves.into_iter().map(|l| reassociate(dag, l)).collect();
            while level.len() > 1 {
                let mut next = Vec::new();
                for pair in level.chunks(2) {
                    match pair {
                        [a, b] => next.push(dag.add(Node::Op(op, vec![*a, *b]))),
                        [a] => next.push(*a),
                        _ => unreachable!(),
                    }
                }
                level = next;
            }
            level[0]
        }
        Node::Op(op, args) => {
            let rebuilt: Vec<NodeId> = args.iter().map(|&a| reassociate(dag, a)).collect();
            dag.add(Node::Op(op, rebuilt))
        }
        Node::Load { .. } | Node::Store { .. } | Node::Input(_) | Node::Const(_) => id,
    }
}

fn flatten(dag: &Dag, id: NodeId, op: Symbol, out: &mut Vec<NodeId>) {
    match &dag.nodes[id] {
        Node::Op(o, args) if *o == op && args.len() == 2 => {
            flatten(dag, args[0], op, out);
            flatten(dag, args[1], op, out);
        }
        _ => out.push(id),
    }
}

/// A schedule: placed nodes, register assignments, and input bindings.
type Schedule = (
    Vec<(NodeId, u32, Unit)>,
    HashMap<NodeId, Reg>,
    Vec<(Symbol, Reg)>,
);

/// Greedy critical-path list scheduling of the DAG on `machine`.
fn schedule(dag: &Dag, roots: &[NodeId], machine: &Machine) -> Result<Schedule, RewriteError> {
    // Which const nodes need registers (used outside a literal slot)?
    let mut needs_reg: Vec<bool> = vec![false; dag.nodes.len()];
    let mut schedulable: Vec<bool> = vec![false; dag.nodes.len()];
    for (id, node) in dag.nodes.iter().enumerate() {
        match node {
            Node::Input(_) => {}
            Node::Const(_) => {}
            Node::Op(op, args) => {
                schedulable[id] = true;
                for (pos, &a) in args.iter().enumerate() {
                    if let Node::Const(c) = dag.nodes[a] {
                        let literal_ok = pos == 1 && machine.fits_alu_literal(c);
                        if !literal_ok {
                            needs_reg[a] = true;
                        }
                    }
                }
                let _ = op;
            }
            Node::Load { base, .. } => {
                schedulable[id] = true;
                if matches!(dag.nodes[*base], Node::Const(_)) {
                    needs_reg[*base] = true;
                }
            }
            Node::Store { value, base, .. } => {
                schedulable[id] = true;
                for &a in [value, base] {
                    if matches!(dag.nodes[a], Node::Const(_)) {
                        needs_reg[a] = true;
                    }
                }
            }
        }
    }
    for (id, node) in dag.nodes.iter().enumerate() {
        if let Node::Const(_) = node {
            if needs_reg[id] {
                schedulable[id] = true;
            }
        }
    }
    for &root in roots {
        // A root that is a bare constant needs a register.
        if let Node::Const(_) = dag.nodes[root] {
            needs_reg[root] = true;
            schedulable[root] = true;
        }
    }

    // Only nodes reachable from the roots (and stores, which are always
    // live) are emitted; reassociation can orphan intermediate nodes.
    let mut reachable = vec![false; dag.nodes.len()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    for (id, node) in dag.nodes.iter().enumerate() {
        if matches!(node, Node::Store { .. }) {
            stack.push(id);
        }
    }
    while let Some(id) = stack.pop() {
        if reachable[id] {
            continue;
        }
        reachable[id] = true;
        match &dag.nodes[id] {
            Node::Op(_, args) => stack.extend(args.iter().copied()),
            Node::Load { base, .. } => stack.push(*base),
            Node::Store { value, base, .. } => {
                stack.push(*value);
                stack.push(*base);
            }
            _ => {}
        }
    }
    for id in 0..dag.nodes.len() {
        if !reachable[id] {
            schedulable[id] = false;
        }
    }

    let opcode = |id: NodeId| -> Symbol {
        match &dag.nodes[id] {
            Node::Op(op, _) => *op,
            Node::Load { .. } => Symbol::intern("ldq"),
            Node::Store { .. } => Symbol::intern("stq"),
            Node::Const(_) => Symbol::intern("ldiq"),
            Node::Input(_) => unreachable!("inputs are not scheduled"),
        }
    };
    let register_deps = |id: NodeId| -> Vec<NodeId> {
        match &dag.nodes[id] {
            Node::Op(_, args) => args
                .iter()
                .copied()
                .filter(|&a| match dag.nodes[a] {
                    Node::Const(_) => needs_reg[a],
                    Node::Input(_) => false,
                    _ => true,
                })
                .collect(),
            Node::Load { base, .. } => [*base]
                .iter()
                .copied()
                .filter(|&a| {
                    !matches!(dag.nodes[a], Node::Input(_) | Node::Const(_)) || needs_reg[a]
                })
                .collect(),
            Node::Store { value, base, .. } => [*value, *base]
                .iter()
                .copied()
                .filter(|&a| {
                    !matches!(dag.nodes[a], Node::Input(_) | Node::Const(_)) || needs_reg[a]
                })
                .collect(),
            _ => Vec::new(),
        }
    };

    // Priorities: height of the node in the DAG (critical path length).
    let mut height: Vec<u32> = vec![0; dag.nodes.len()];
    for id in (0..dag.nodes.len()).rev() {
        // nodes are created bottom-up, so process top-down for heights:
        // actually compute by fixpoint below.
        let _ = id;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..dag.nodes.len() {
            if !schedulable[id] {
                continue;
            }
            let lat = machine.info(opcode(id)).map(|i| i.latency).unwrap_or(1);
            for dep in register_deps(id) {
                let h = height[id] + lat;
                if height[dep] < h {
                    height[dep] = h;
                    changed = true;
                }
            }
        }
    }

    // Greedy list scheduling.
    let mut placed: HashMap<NodeId, (u32, Unit)> = HashMap::new();
    let mut remaining: Vec<NodeId> = (0..dag.nodes.len()).filter(|&i| schedulable[i]).collect();
    let loads: Vec<NodeId> = remaining
        .iter()
        .copied()
        .filter(|&i| matches!(dag.nodes[i], Node::Load { .. }))
        .collect();
    let mut cycle = 0u32;
    let max_cycles = 4 * dag.nodes.len() as u32 + 16;
    while !remaining.is_empty() {
        if cycle > max_cycles {
            return Err(err("list scheduler failed to converge"));
        }
        let mut used_units: Vec<Unit> = Vec::new();
        // Ready nodes, highest first.
        let mut ready: Vec<NodeId> = remaining
            .iter()
            .copied()
            .filter(|&id| register_deps(id).iter().all(|d| placed.contains_key(d)))
            .collect();
        ready.sort_by_key(|&id| std::cmp::Reverse(height[id]));
        for id in ready {
            if used_units.len() >= machine.issue_width() {
                break;
            }
            // Stores wait until every load is placed (loads read the
            // GMA pre-state) and issue no earlier than the last load.
            if matches!(dag.nodes[id], Node::Store { .. }) {
                if !loads.iter().all(|l| placed.contains_key(l)) {
                    continue;
                }
                if loads.iter().any(|l| placed[l].0 > cycle) {
                    continue;
                }
            }
            let info = machine
                .info(opcode(id))
                .ok_or_else(|| err(format!("unknown opcode {}", opcode(id))))?;
            let unit = info.units.iter().copied().find(|u| {
                if used_units.contains(u) {
                    return false;
                }
                // All register deps available on this unit's cluster.
                register_deps(id).iter().all(|d| {
                    let (dc, du) = placed[d];
                    let lat = machine.info(opcode(*d)).map(|i| i.latency).unwrap_or(1);
                    let mut avail = dc + lat;
                    if machine.num_clusters() > 1 && du.cluster() != u.cluster() {
                        avail += machine.cluster_delay();
                    }
                    avail <= cycle
                })
            });
            if let Some(unit) = unit {
                placed.insert(id, (cycle, unit));
                used_units.push(unit);
            }
        }
        remaining.retain(|id| !placed.contains_key(id));
        cycle += 1;
    }

    // Register assignment.
    let mut regs: HashMap<NodeId, Reg> = HashMap::new();
    let mut inputs: Vec<(Symbol, Reg)> = Vec::new();
    let mut next = 0u32;
    for (id, node) in dag.nodes.iter().enumerate() {
        if let Node::Input(name) = node {
            let reg = Reg(next);
            next += 1;
            regs.insert(id, reg);
            inputs.push((*name, reg));
        }
    }
    let mut order: Vec<(NodeId, u32, Unit)> =
        placed.iter().map(|(&id, &(c, u))| (id, c, u)).collect();
    order.sort_by_key(|&(_, c, u)| (c, u));
    for &(id, _, _) in &order {
        if !matches!(dag.nodes[id], Node::Store { .. }) {
            let reg = Reg(next);
            next += 1;
            regs.insert(id, reg);
        }
    }
    Ok((order, regs, inputs))
}

/// Compiles a GMA with the conventional rewriting pipeline.
///
/// # Errors
///
/// Fails on operations with no deterministic rewrite (program-specific
/// uninterpreted operations) or scheduler failure.
pub fn rewrite_compile(gma: &Gma, machine: &Machine) -> Result<Program, RewriteError> {
    let mut dag = Dag::default();
    let mut goal_roots: Vec<(Symbol, NodeId)> = Vec::new();
    if let Some(g) = &gma.guard {
        goal_roots.push((Symbol::intern("guard"), rewrite(&mut dag, g)?));
    }
    for (name, term) in &gma.assigns {
        goal_roots.push((*name, rewrite(&mut dag, term)?));
    }
    if let Some(mem) = &gma.mem {
        rewrite(&mut dag, mem)?;
    }
    for (_, root) in goal_roots.iter_mut() {
        *root = reassociate(&mut dag, *root);
    }
    let roots: Vec<NodeId> = goal_roots.iter().map(|&(_, r)| r).collect();
    let (order, regs, inputs) = schedule(&dag, &roots, machine)?;

    let mut instrs = Vec::new();
    for &(id, cycle, unit) in &order {
        let (op, operands, dest) = match &dag.nodes[id] {
            Node::Const(c) => (
                Symbol::intern("ldiq"),
                vec![Operand::Imm(*c)],
                Some(regs[&id]),
            ),
            Node::Op(op, args) => {
                let mut operands = Vec::new();
                for (pos, &a) in args.iter().enumerate() {
                    match dag.nodes[a] {
                        Node::Const(c)
                            if pos == 1
                                && machine.fits_alu_literal(c)
                                && !regs.contains_key(&a) =>
                        {
                            operands.push(Operand::Imm(c));
                        }
                        _ => operands.push(Operand::Reg(regs[&a])),
                    }
                }
                (*op, operands, Some(regs[&id]))
            }
            Node::Load { base, disp } => (
                Symbol::intern("ldq"),
                vec![Operand::Reg(regs[base]), Operand::Imm(*disp)],
                Some(regs[&id]),
            ),
            Node::Store { value, base, disp } => (
                Symbol::intern("stq"),
                vec![
                    Operand::Reg(regs[value]),
                    Operand::Reg(regs[base]),
                    Operand::Imm(*disp),
                ],
                None,
            ),
            Node::Input(_) => continue,
        };
        instrs.push(Instr {
            op,
            operands,
            dest,
            cycle,
            unit,
            comment: String::new(),
        });
    }

    let outputs: Vec<(Symbol, Reg)> = goal_roots
        .iter()
        .map(|&(name, root)| (name, regs[&root]))
        .collect();

    let program = Program {
        instrs,
        inputs,
        outputs,
        name: format!("{}_rewrite", gma.name),
        reg_reuse: false,
    };
    denali_arch::validate(&program, machine).map_err(|e| {
        err(format!(
            "rewrite baseline produced an invalid schedule:\n{e}"
        ))
    })?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_lang::{lower_proc, parse_program};
    use std::collections::HashMap as Map;

    fn compile(src: &str) -> (Gma, Program) {
        let p = parse_program(src).unwrap();
        let gma = lower_proc(&p.procs[0]).unwrap().remove(0);
        let program = rewrite_compile(&gma, &Machine::ev6()).unwrap();
        (gma, program)
    }

    #[test]
    fn figure2_without_egraph_misses_s4addq() {
        // A rewriting engine commits to mul->shift and add: 2 cycles,
        // 2 instructions (where Denali finds the 1-cycle s4addq).
        let (_, program) = compile("(procdecl f ((reg6 long)) long (:= (res (+ (* reg6 4) 1))))");
        assert_eq!(program.len(), 2);
        assert_eq!(program.cycles(), 2);
        let ops: Vec<&str> = program.instrs.iter().map(|i| i.op.as_str()).collect();
        assert!(ops.contains(&"sll"));
        assert!(ops.contains(&"addq"));
    }

    #[test]
    fn byteswap_is_correct_if_slower() {
        let src = "(procdecl bs ((a long)) long
          (var (r long 0)
            (semi
              (:= ((selectb r 0) (selectb a 3)))
              (:= ((selectb r 1) (selectb a 2)))
              (:= ((selectb r 2) (selectb a 1)))
              (:= ((selectb r 3) (selectb a 0)))
              (:= (res r)))))";
        let (gma, program) = compile(src);
        // Differential check against the reference semantics.
        let machine = Machine::ev6();
        let sim = denali_arch::Simulator::new(&machine);
        for a in [0u64, 0x1122_3344, u64::MAX, 0x0102_0304_0506_0708] {
            let mut env = denali_term::value::Env::new();
            env.set_word("a", a);
            let expected = gma.evaluate(&env).unwrap().assigns[0].1;
            let out = sim.run_named(&program, &[("a", a)], Map::new()).unwrap();
            let reg = program.output_reg(Symbol::intern("res")).unwrap();
            assert_eq!(out.regs[&reg], expected, "a={a:#x}\n{}", program.listing(4));
        }
    }

    #[test]
    fn constant_folding_happens() {
        let (_, program) = compile("(procdecl f ((a long)) long (:= (res (+ a (* 3 4)))))");
        // 3*4 folds to 12, which fits the literal field: one addq.
        assert_eq!(program.len(), 1);
        assert_eq!(program.instrs[0].op.as_str(), "addq");
    }

    #[test]
    fn large_masks_use_zapnot() {
        let (_, program) = compile("(procdecl f ((a long)) long (:= (res (& a 65535))))");
        assert_eq!(program.len(), 1);
        assert_eq!(program.instrs[0].op.as_str(), "zapnot");
    }

    #[test]
    fn memory_roundtrip() {
        let (gma, program) = compile(
            "(procdecl st ((p long*) (x long)) long
               (semi (:= ((deref (+ p 8)) (+ x 1))) (:= (res x))))",
        );
        let machine = Machine::ev6();
        let sim = denali_arch::Simulator::new(&machine);
        let out = sim
            .run_named(&program, &[("p", 100), ("x", 41)], Map::new())
            .unwrap();
        assert_eq!(out.memory[&108], 42);
        let mut env = denali_term::value::Env::new();
        env.set_word("p", 100).set_word("x", 41);
        env.set_mem("M", Map::new());
        let expected = gma.evaluate(&env).unwrap();
        assert_eq!(expected.memory.unwrap()[&108], 42);
    }

    #[test]
    fn guard_is_computed() {
        let (_, program) = compile(
            "(procdecl f ((p long*) (r long*)) long
               (do (-> (<u p r) (:= (p (+ p 8))))))",
        );
        assert!(program.output_reg(Symbol::intern("guard")).is_some());
        let ops: Vec<&str> = program.instrs.iter().map(|i| i.op.as_str()).collect();
        assert!(ops.contains(&"cmpult"));
    }

    #[test]
    fn uninterpreted_ops_are_rejected() {
        let p = parse_program("(procdecl f ((a long)) long (:= (res (carry a a))))").unwrap();
        let gma = lower_proc(&p.procs[0]).unwrap().remove(0);
        assert!(rewrite_compile(&gma, &Machine::ev6()).is_err());
    }

    #[test]
    fn degraded_program_is_valid_machine_code() {
        let (_, program) =
            compile("(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))");
        denali_arch::validate(&program, &Machine::ev6()).unwrap();
        assert!(!program.is_empty());
    }

    #[test]
    fn degraded_matches_the_gma_semantics() {
        let (_, program) =
            compile("(\\procdecl f ((a long) (b long)) long (:= (\\res (& (<< a 2) b))))");
        // Spot-check a few input vectors in the simulator.
        let machine = Machine::ev6();
        let sim = denali_arch::Simulator::new(&machine);
        for (a, b) in [(0u64, 0u64), (1, u64::MAX), (0x1234_5678, 0xff00)] {
            let out = sim
                .run_named(&program, &[("a", a), ("b", b)], Map::new())
                .unwrap();
            let res_reg = program.output_reg(Symbol::intern("res")).unwrap();
            let expect = (a << 2) & b;
            assert_eq!(
                out.regs.get(&res_reg).copied(),
                Some(expect),
                "a={a:#x} b={b:#x}"
            );
        }
    }
}
