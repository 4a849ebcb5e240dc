//! Stochastic (MCMC) superoptimization: Denali's second engine.
//!
//! The SAT search is provably optimal but its CNF blows up on large
//! GMAs. Following "Stochastic Superoptimization" (Schkufza, Sharma &
//! Aiken), this crate runs a Metropolis–Hastings chain over *sketches*
//! — straight-line dataflow programs in single-assignment cell form —
//! scoring each proposal by correctness on test vectors plus a
//! schedule-length/latency cost, and keeping the best *verified*
//! candidate seen so far as an anytime answer.
//!
//! Determinism contract: a chain is a pure function of
//! `(machine, sketch, rules, config.seed)`. All randomness flows
//! through one [`denali_prng::Rng`] (SplitMix64), the chain never
//! consults wall-clock time or thread identity, and proposals are
//! evaluated single-threaded, so fixed-seed runs are byte-identical
//! across repetitions.
//!
//! Candidates that beat the incumbent are never trusted on the chain's
//! own test vectors alone: they must pass [`denali_arch::validate`] and
//! a [`denali_arch::Simulator`] run on fresh oracle-generated vectors
//! (counterexamples are *widened* into the test set) before they are
//! published through the anytime callback.

use std::sync::OnceLock;
use std::time::Instant;

use denali_arch::{validate, Instr, Machine, Operand, Program, Reg, Simulator, Unit};
use denali_metrics::{Counter, Gauge, Histogram};
use denali_par::CancelToken;
use denali_prng::Rng;
use denali_term::{ops, Symbol};
use denali_trace::{field, Tracer};

/// A value reference inside a [`Sketch`]: a procedure input, the result
/// of an earlier cell, or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValRef {
    /// The i-th procedure input.
    Input(usize),
    /// The result of cell `i` (always an earlier cell).
    Cell(usize),
    /// A literal word.
    Imm(u64),
}

/// One cell of a sketch: an opcode applied to value references.
///
/// Two opcodes are special: `mov` is a one-argument passthrough (the
/// "deleted instruction" encoding — mov cells are resolved away and
/// never emitted), and `ldiq` materializes its single immediate
/// argument into a register.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Opcode (an instruction symbol of the machine, or `mov`).
    pub op: Symbol,
    /// Arguments; every [`ValRef::Cell`] points strictly earlier.
    pub args: Vec<ValRef>,
}

/// A rewrite-to-equivalent move mined from the saturated e-graph:
/// "cell `cell` may instead compute `op(args)`" — the e-graph proved
/// the two denotations equal, so installing the rule preserves
/// semantics (and the test vectors re-check it anyway).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EquivRule {
    /// Index of the cell the rule may replace.
    pub cell: usize,
    /// Replacement opcode.
    pub op: Symbol,
    /// Replacement arguments (all strictly earlier than `cell`).
    pub args: Vec<ValRef>,
}

/// A straight-line dataflow program in single-assignment cell form —
/// the state space the Metropolis chain walks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sketch {
    /// Procedure inputs (name, entry register), in program order.
    pub inputs: Vec<(Symbol, Reg)>,
    /// Cells in dependency order.
    pub cells: Vec<Cell>,
    /// Output name → value reference.
    pub outputs: Vec<(Symbol, ValRef)>,
    /// Procedure name (carried into emitted programs).
    pub name: String,
}

fn mov_sym() -> Symbol {
    Symbol::intern("mov")
}

fn ldiq_sym() -> Symbol {
    Symbol::intern("ldiq")
}

fn unit_rank(u: Unit) -> u8 {
    match u {
        Unit::U0 => 0,
        Unit::U1 => 1,
        Unit::L0 => 2,
        Unit::L1 => 3,
    }
}

/// True if an immediate is legal at operand position `pos` of `op`
/// (mirrors the rules `denali_arch::validate` enforces for ALU ops).
/// Exposed so equivalence-rule miners can pre-filter constants.
pub fn imm_ok(machine: &Machine, op: Symbol, pos: usize, value: u64) -> bool {
    match op.as_str() {
        "ldiq" => pos == 0,
        "extr_u" | "dep_z" => (pos == 1 || pos == 2) && machine.fits_alu_literal(value),
        _ => pos == 1 && machine.fits_alu_literal(value),
    }
}

impl Sketch {
    /// Converts a scheduled program (typically the baseline rewrite
    /// output) into a sketch, padded with passthrough cells up to
    /// `max_cells` so the chain has headroom to grow candidates.
    ///
    /// Returns `None` for programs this engine cannot search: memory
    /// operations (`ldq`/`stq`) or opcodes without executable
    /// semantics in `denali_term::ops`.
    pub fn from_program(program: &Program, machine: &Machine, max_cells: usize) -> Option<Sketch> {
        let mov = mov_sym();
        let ldiq = ldiq_sym();
        let mut instrs: Vec<&Instr> = program.instrs.iter().collect();
        instrs.sort_by_key(|i| (i.cycle, unit_rank(i.unit)));

        let mut cells: Vec<Cell> = Vec::with_capacity(instrs.len());
        let mut reg_map: Vec<(Reg, ValRef)> = program
            .inputs
            .iter()
            .enumerate()
            .map(|(i, &(_, r))| (r, ValRef::Input(i)))
            .collect();
        let lookup = |map: &[(Reg, ValRef)], r: Reg| -> Option<ValRef> {
            map.iter().rev().find(|&&(m, _)| m == r).map(|&(_, v)| v)
        };

        for instr in instrs {
            let name = instr.op.as_str();
            if name == "ldq" || name == "stq" || !machine.is_instruction(instr.op) {
                return None;
            }
            if instr.op != mov
                && instr.op != ldiq
                && ops::info(instr.op).is_none_or(|i| i.eval.is_none())
            {
                return None;
            }
            let args: Vec<ValRef> = if instr.op == ldiq {
                match instr.operands.first()? {
                    Operand::Imm(v) => vec![ValRef::Imm(*v)],
                    Operand::Reg(_) => return None,
                }
            } else {
                instr
                    .operands
                    .iter()
                    .map(|o| match o {
                        Operand::Imm(v) => Some(ValRef::Imm(*v)),
                        Operand::Reg(r) => lookup(&reg_map, *r),
                    })
                    .collect::<Option<_>>()?
            };
            let idx = cells.len();
            cells.push(Cell { op: instr.op, args });
            let dest = instr.dest?;
            reg_map.push((dest, ValRef::Cell(idx)));
        }

        let outputs: Vec<(Symbol, ValRef)> = program
            .outputs
            .iter()
            .map(|&(n, r)| lookup(&reg_map, r).map(|v| (n, v)))
            .collect::<Option<_>>()?;

        let mut sketch = Sketch {
            inputs: program.inputs.clone(),
            cells,
            outputs,
            name: program.name.clone(),
        };
        sketch.pad(max_cells);
        Some(sketch)
    }

    /// Interleaves passthrough (`mov`) cells so the chain can insert
    /// instructions anywhere, not only at the tail.
    fn pad(&mut self, max_cells: usize) {
        let n = self.cells.len();
        let target = (n * 2 + 6).min(max_cells.max(n));
        let mut pads = target.saturating_sub(n);
        if pads == 0 {
            return;
        }
        let filler = if self.inputs.is_empty() {
            ValRef::Imm(0)
        } else {
            ValRef::Input(0)
        };
        let mov = mov_sym();
        let mut remap: Vec<usize> = Vec::with_capacity(n);
        let mut padded: Vec<Cell> = Vec::with_capacity(target);
        for (i, cell) in self.cells.drain(..).enumerate() {
            remap.push(padded.len());
            padded.push(cell);
            if pads > 0 && i % 2 == 1 {
                padded.push(Cell {
                    op: mov,
                    args: vec![filler],
                });
                pads -= 1;
            }
        }
        for _ in 0..pads {
            padded.push(Cell {
                op: mov,
                args: vec![filler],
            });
        }
        let fix = |v: ValRef| match v {
            ValRef::Cell(i) => ValRef::Cell(remap[i]),
            other => other,
        };
        for cell in &mut padded {
            for a in &mut cell.args {
                *a = fix(*a);
            }
        }
        for (_, v) in &mut self.outputs {
            *v = fix(*v);
        }
        self.cells = padded;
    }

    /// Follows `mov` chains to the underlying value.
    fn resolve(&self, mut v: ValRef) -> ValRef {
        let mov = mov_sym();
        loop {
            match v {
                ValRef::Cell(i) if self.cells[i].op == mov => v = self.cells[i].args[0],
                other => return other,
            }
        }
    }

    /// Evaluates the sketch on one input vector, returning the output
    /// values in `outputs` order. `None` if some opcode has no
    /// executable semantics for its argument count.
    pub fn eval(&self, input_vals: &[u64]) -> Option<Vec<u64>> {
        let mov = mov_sym();
        let ldiq = ldiq_sym();
        let mut vals: Vec<u64> = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let arg = |v: &ValRef| -> u64 {
                match *v {
                    ValRef::Input(i) => input_vals[i],
                    ValRef::Cell(j) => vals[j],
                    ValRef::Imm(k) => k,
                }
            };
            let value = if cell.op == mov || cell.op == ldiq {
                arg(&cell.args[0])
            } else {
                let args: Vec<u64> = cell.args.iter().map(arg).collect();
                ops::eval(cell.op, &args)?
            };
            vals.push(value);
        }
        Some(
            self.outputs
                .iter()
                .map(|(_, v)| match *v {
                    ValRef::Input(i) => input_vals[i],
                    ValRef::Cell(j) => vals[j],
                    ValRef::Imm(k) => k,
                })
                .collect(),
        )
    }

    /// The emitted (non-`mov`) cells reachable from the outputs, in
    /// ascending index order.
    fn live_cells(&self) -> Vec<usize> {
        let mut live = vec![false; self.cells.len()];
        let mut stack: Vec<ValRef> = self.outputs.iter().map(|&(_, v)| v).collect();
        while let Some(v) = stack.pop() {
            if let ValRef::Cell(i) = self.resolve(v) {
                if !live[i] {
                    live[i] = true;
                    stack.extend(self.cells[i].args.iter().copied());
                }
            }
        }
        (0..self.cells.len()).filter(|&i| live[i]).collect()
    }

    /// Sum of instruction latencies over the live cells — the perf
    /// proxy used while a candidate is still incorrect or
    /// unschedulable.
    fn latency_sum(&self, machine: &Machine) -> u64 {
        self.live_cells()
            .iter()
            .map(|&i| {
                machine
                    .info(self.cells[i].op)
                    .map(|info| u64::from(info.latency))
                    .unwrap_or(8)
            })
            .sum()
    }

    /// Greedy cluster-aware list scheduling of the live cells into a
    /// validated [`Program`]. `None` when the sketch is not emittable
    /// (immediate in an illegal operand position, an output that
    /// resolves to a bare immediate, or no unit can ever issue a cell).
    pub fn to_program(&self, machine: &Machine) -> Option<Program> {
        let live = self.live_cells();
        for &(_, v) in &self.outputs {
            if matches!(self.resolve(v), ValRef::Imm(_)) {
                return None;
            }
        }
        // Dense order index for live cells, and resolved args up front.
        let mut order = vec![usize::MAX; self.cells.len()];
        for (k, &i) in live.iter().enumerate() {
            order[i] = k;
        }
        let resolved: Vec<Vec<ValRef>> = live
            .iter()
            .map(|&i| {
                self.cells[i]
                    .args
                    .iter()
                    .map(|&a| self.resolve(a))
                    .collect()
            })
            .collect();
        for (k, &i) in live.iter().enumerate() {
            let op = self.cells[i].op;
            machine.info(op)?;
            for (pos, arg) in resolved[k].iter().enumerate() {
                if let ValRef::Imm(v) = arg {
                    if !imm_ok(machine, op, pos, *v) {
                        return None;
                    }
                }
            }
        }

        // Register assignment: inputs keep their entry registers; live
        // cells get fresh registers above them.
        let base = self.inputs.iter().map(|&(_, r)| r.0 + 1).max().unwrap_or(1);
        let cell_reg = |k: usize| Reg(base + k as u32);
        let ref_reg = |v: ValRef| -> Reg {
            match v {
                ValRef::Input(i) => self.inputs[i].1,
                ValRef::Cell(i) => cell_reg(order[i]),
                ValRef::Imm(_) => unreachable!("imm refs are emitted as Operand::Imm"),
            }
        };

        // Greedy placement: earliest cycle, units in table order.
        let width = machine.issue_width();
        let mut placed: Vec<Option<(u32, Unit)>> = vec![None; live.len()];
        let mut remaining: Vec<usize> = (0..live.len()).collect();
        let mut cycle: u32 = 0;
        let bound = (live.len() as u32 + 2) * 16 + 64;
        while !remaining.is_empty() {
            if cycle > bound {
                return None;
            }
            let mut used: Vec<Unit> = Vec::with_capacity(width);
            let mut k = 0;
            while k < remaining.len() && used.len() < width {
                let c = remaining[k];
                let info = machine.info(self.cells[live[c]].op).expect("checked above");
                let mut chosen = None;
                'units: for &u in &info.units {
                    if used.contains(&u) {
                        continue;
                    }
                    for arg in &resolved[c] {
                        if let ValRef::Cell(p) = arg {
                            let Some((pc, pu)) = placed[order[*p]] else {
                                continue 'units;
                            };
                            let plat = machine
                                .info(self.cells[*p].op)
                                .expect("checked above")
                                .latency;
                            let mut ready = pc + plat;
                            if pu.cluster() != u.cluster() {
                                ready += machine.cluster_delay();
                            }
                            if ready > cycle {
                                continue 'units;
                            }
                        }
                    }
                    chosen = Some(u);
                    break;
                }
                if let Some(u) = chosen {
                    placed[c] = Some((cycle, u));
                    used.push(u);
                    remaining.remove(k);
                } else {
                    k += 1;
                }
            }
            cycle += 1;
        }

        let mut instrs: Vec<Instr> = live
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let (cycle, unit) = placed[k].expect("all live cells placed");
                Instr {
                    op: self.cells[i].op,
                    operands: resolved[k]
                        .iter()
                        .map(|&a| match a {
                            ValRef::Imm(v) => Operand::Imm(v),
                            other => Operand::Reg(ref_reg(other)),
                        })
                        .collect(),
                    dest: Some(cell_reg(k)),
                    cycle,
                    unit,
                    comment: String::new(),
                }
            })
            .collect();
        instrs.sort_by_key(|i| (i.cycle, unit_rank(i.unit)));

        Some(Program {
            instrs,
            inputs: self.inputs.clone(),
            outputs: self
                .outputs
                .iter()
                .map(|&(n, v)| (n, ref_reg(self.resolve(v))))
                .collect(),
            name: self.name.clone(),
            reg_reuse: false,
        })
    }
}

/// Chain tuning knobs. Everything here is excluded from the request
/// fingerprint: the engine *choice* affects output, the chain schedule
/// does not change what a result claims to be (any verified result is
/// correct), so knobs may vary between runs without poisoning caches —
/// except that `seed` changes which result is found, which is why
/// cached serve entries are only written for complete, deterministic
/// runs keyed by the default config.
#[derive(Clone, Debug)]
pub struct StokeConfig {
    /// SplitMix64 chain seed.
    pub seed: u64,
    /// Proposals to evaluate before giving up.
    pub iterations: u64,
    /// Inverse temperature for the Metropolis acceptance test.
    pub beta: f64,
    /// Proposals without improvement before restarting from the best.
    pub restart_after: u64,
    /// Test vectors scored on every proposal.
    pub vectors: usize,
    /// Fresh oracle vectors drawn to verify a would-be best candidate.
    pub verify_vectors: usize,
    /// Sketch size ceiling (cells including passthrough padding).
    pub max_cells: usize,
}

impl Default for StokeConfig {
    fn default() -> StokeConfig {
        StokeConfig {
            seed: 0x5EED_CAFE_D15C_0B01,
            iterations: 20_000,
            beta: 0.25,
            restart_after: 4_000,
            vectors: 8,
            verify_vectors: 32,
            max_cells: 48,
        }
    }
}

/// What one chain run produced.
#[derive(Clone, Debug)]
pub struct StokeOutcome {
    /// Best verified program (the baseline itself when nothing beat it).
    pub best_program: Program,
    /// Schedule length of `best_program`.
    pub best_cycles: u32,
    /// Schedule length of the baseline the chain started from.
    pub baseline_cycles: u32,
    /// True when `best_cycles < baseline_cycles`.
    pub improved: bool,
    /// False when the goal could not be searched (oracle failures) and
    /// the baseline was returned untouched.
    pub supported: bool,
    /// Proposals evaluated.
    pub proposals: u64,
    /// Proposals accepted by the Metropolis test.
    pub accepted: u64,
    /// Chain restarts (resets to the best-so-far state).
    pub restarts: u64,
    /// Candidates sent through full simulator verification.
    pub verifications: u64,
    /// Counterexample vectors widened into the test set.
    pub widenings: u64,
    /// True when the chain stopped on a cancellation signal.
    pub cancelled: bool,
    /// Verified best-cost trajectory: (proposal index, cycles), starting
    /// at (0, baseline) — deterministic at a fixed seed.
    pub trajectory: Vec<(u64, u32)>,
}

impl StokeOutcome {
    fn baseline_only(baseline: &Program, supported: bool) -> StokeOutcome {
        let cycles = baseline.cycles();
        StokeOutcome {
            best_program: baseline.clone(),
            best_cycles: cycles,
            baseline_cycles: cycles,
            improved: false,
            supported,
            proposals: 0,
            accepted: 0,
            restarts: 0,
            verifications: 0,
            widenings: 0,
            cancelled: false,
            trajectory: vec![(0, cycles)],
        }
    }
}

/// Aggregated chain telemetry (one static handle, like the pipeline
/// metrics in `denali-core`).
struct StokeMetrics {
    proposals: std::sync::Arc<Counter>,
    accepted: std::sync::Arc<Counter>,
    restarts: std::sync::Arc<Counter>,
    verifications: std::sync::Arc<Counter>,
    improvements: std::sync::Arc<Counter>,
    best_cycles: std::sync::Arc<Gauge>,
    chain_us: std::sync::Arc<Histogram>,
}

fn stoke_metrics() -> &'static StokeMetrics {
    static METRICS: OnceLock<StokeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = denali_metrics::global();
        StokeMetrics {
            proposals: reg.counter(
                "denali_stoke_proposals_total",
                "MCMC proposals evaluated across all chains",
            ),
            accepted: reg.counter(
                "denali_stoke_accepted_total",
                "MCMC proposals accepted by the Metropolis test",
            ),
            restarts: reg.counter(
                "denali_stoke_restarts_total",
                "chain restarts to the best-so-far state",
            ),
            verifications: reg.counter(
                "denali_stoke_verifications_total",
                "candidates sent through simulator verification",
            ),
            improvements: reg.counter(
                "denali_stoke_improvements_total",
                "verified candidates that beat the incumbent",
            ),
            best_cycles: reg.gauge(
                "denali_stoke_best_cycles",
                "cycles of the most recent verified best candidate",
            ),
            chain_us: reg.histogram(
                "denali_stoke_chain_us",
                "wall time of one full chain run (microseconds)",
            ),
        }
    })
}

/// The opcode/literal pool proposals draw from, built once per chain
/// from the machine table intersected with executable semantics.
struct MovePool {
    /// `(op, arity)` in deterministic registry order; `mov`/`ldiq`
    /// excluded (they have dedicated move kinds).
    ops: Vec<(Symbol, usize)>,
    /// Literal candidates for immediate operands.
    literals: Vec<u64>,
}

impl MovePool {
    fn new(machine: &Machine, rules: &[EquivRule]) -> MovePool {
        let mov = mov_sym();
        let ldiq = ldiq_sym();
        let mut ops: Vec<(Symbol, usize)> = ops::all()
            .filter(|info| {
                let sym = Symbol::intern(info.name);
                info.eval.is_some()
                    && machine.is_instruction(sym)
                    && sym != mov
                    && sym != ldiq
                    && info.name != "ldq"
                    && info.name != "stq"
            })
            .map(|info| (Symbol::intern(info.name), info.arity))
            .collect();
        ops.sort_by_key(|&(s, _)| s.as_str().to_owned());
        let mut literals: Vec<u64> = vec![0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 255];
        for rule in rules {
            for arg in &rule.args {
                if let ValRef::Imm(v) = arg {
                    if machine.fits_alu_literal(*v) && !literals.contains(v) {
                        literals.push(*v);
                    }
                }
            }
        }
        MovePool { ops, literals }
    }
}

/// Undo record for one proposal.
enum Undo {
    Cell(usize, Cell),
    Output(usize, ValRef),
}

fn apply_undo(sketch: &mut Sketch, undo: Undo) {
    match undo {
        Undo::Cell(i, cell) => sketch.cells[i] = cell,
        Undo::Output(i, v) => sketch.outputs[i].1 = v,
    }
}

/// A random non-immediate reference legal at cell `idx` (or at an
/// output when `idx == cells.len()`).
fn random_value_ref(rng: &mut Rng, sketch: &Sketch, idx: usize) -> ValRef {
    let n_inputs = sketch.inputs.len();
    if idx == 0 && n_inputs == 0 {
        return ValRef::Imm(0);
    }
    if idx > 0 && (n_inputs == 0 || rng.next_bool()) {
        ValRef::Cell(rng.below_usize(idx))
    } else {
        ValRef::Input(rng.below_usize(n_inputs.max(1)))
    }
}

/// A random argument for position `pos` of `op` at cell `idx`,
/// occasionally an immediate when the position allows one.
fn random_arg(
    rng: &mut Rng,
    sketch: &Sketch,
    machine: &Machine,
    pool: &MovePool,
    idx: usize,
    op: Symbol,
    pos: usize,
) -> ValRef {
    if pos == 1 && op != ldiq_sym() && rng.below(4) == 0 {
        let v = *rng.choose(&pool.literals);
        if imm_ok(machine, op, pos, v) {
            return ValRef::Imm(v);
        }
    }
    random_value_ref(rng, sketch, idx)
}

/// Mutates `sketch` with one random move; returns the undo record, or
/// `None` when the drawn move was a no-op.
fn propose(
    rng: &mut Rng,
    sketch: &mut Sketch,
    machine: &Machine,
    pool: &MovePool,
    rules: &[EquivRule],
) -> Option<Undo> {
    let mov = mov_sym();
    let ldiq = ldiq_sym();
    let n = sketch.cells.len();
    let kind = rng.below(16);
    match kind {
        // Rewrite-to-equivalent: install a mined rule verbatim.
        0..=4 if !rules.is_empty() => {
            let rule = rng.choose(rules);
            let old = sketch.cells[rule.cell].clone();
            let new = Cell {
                op: rule.op,
                args: rule.args.clone(),
            };
            if old == new {
                return None;
            }
            sketch.cells[rule.cell] = new;
            Some(Undo::Cell(rule.cell, old))
        }
        // Opcode swap: keep the arguments, change the operation.
        0..=6 => {
            let i = rng.below_usize(n);
            let cell = &sketch.cells[i];
            if cell.op == mov || cell.op == ldiq {
                return None;
            }
            let arity = cell.args.len();
            let same: Vec<Symbol> = pool
                .ops
                .iter()
                .filter(|&&(s, a)| a == arity && s != cell.op)
                .map(|&(s, _)| s)
                .collect();
            if same.is_empty() {
                return None;
            }
            let new_op = *rng.choose(&same);
            if let Some(ValRef::Imm(v)) = cell.args.get(1) {
                if !imm_ok(machine, new_op, 1, *v) {
                    return None;
                }
            }
            let old = sketch.cells[i].clone();
            sketch.cells[i].op = new_op;
            Some(Undo::Cell(i, old))
        }
        // Operand swap: change one argument.
        7..=9 => {
            let i = rng.below_usize(n);
            let old = sketch.cells[i].clone();
            let op = old.op;
            if op == ldiq {
                let v = *rng.choose(&pool.literals);
                if old.args[0] == ValRef::Imm(v) {
                    return None;
                }
                sketch.cells[i].args[0] = ValRef::Imm(v);
                return Some(Undo::Cell(i, old));
            }
            let pos = rng.below_usize(old.args.len());
            let arg = random_arg(rng, sketch, machine, pool, i, op, pos);
            if sketch.cells[i].args[pos] == arg {
                return None;
            }
            sketch.cells[i].args[pos] = arg;
            Some(Undo::Cell(i, old))
        }
        // Instruction replace: a fresh opcode with fresh arguments.
        10..=12 => {
            let i = rng.below_usize(n);
            if pool.ops.is_empty() {
                return None;
            }
            let (op, arity) = *rng.choose(&pool.ops);
            let args = (0..arity)
                .map(|pos| random_arg(rng, sketch, machine, pool, i, op, pos))
                .collect();
            let old = sketch.cells[i].clone();
            sketch.cells[i] = Cell { op, args };
            Some(Undo::Cell(i, old))
        }
        // Instruction delete: collapse a cell to a passthrough.
        13 => {
            let i = rng.below_usize(n);
            let old = sketch.cells[i].clone();
            let new = Cell {
                op: mov,
                args: vec![random_value_ref(rng, sketch, i)],
            };
            if old == new {
                return None;
            }
            sketch.cells[i] = new;
            Some(Undo::Cell(i, old))
        }
        // Retarget an output.
        _ => {
            let o = rng.below_usize(sketch.outputs.len());
            let v = random_value_ref(rng, sketch, n);
            if sketch.outputs[o].1 == v {
                return None;
            }
            let old = sketch.outputs[o].1;
            sketch.outputs[o].1 = v;
            Some(Undo::Output(o, old))
        }
    }
}

/// One scored chain state.
enum Scored {
    /// Opcode with no semantics for its arguments (reject outright).
    Invalid,
    /// Wrong on at least one test vector, or correct but unschedulable.
    Pending { cost: u64 },
    /// Correct on all vectors and schedulable.
    Correct { cost: u64, program: Program },
}

impl Scored {
    fn cost(&self) -> u64 {
        match self {
            Scored::Invalid => u64::MAX,
            Scored::Pending { cost } | Scored::Correct { cost, .. } => *cost,
        }
    }
}

/// Weight of one wrong output bit relative to one cycle of latency.
const WRONG_BIT_COST: u64 = 2;

fn score(sketch: &Sketch, machine: &Machine, vectors: &[(Vec<u64>, Vec<u64>)]) -> Scored {
    let mut wrong_bits: u64 = 0;
    for (inputs, expected) in vectors {
        let Some(actual) = sketch.eval(inputs) else {
            return Scored::Invalid;
        };
        for (a, e) in actual.iter().zip(expected) {
            wrong_bits += u64::from((a ^ e).count_ones());
        }
    }
    if wrong_bits > 0 {
        return Scored::Pending {
            cost: wrong_bits * WRONG_BIT_COST + sketch.latency_sum(machine),
        };
    }
    match sketch.to_program(machine) {
        Some(program) => Scored::Correct {
            cost: u64::from(program.cycles()),
            program,
        },
        None => Scored::Pending {
            cost: sketch.latency_sum(machine) + 8,
        },
    }
}

fn random_input(rng: &mut Rng) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => 0x0123_4567_89AB_CDEF,
        4 => u64::from(rng.next_u64() as u8),
        _ => rng.next_u64(),
    }
}

fn uniform_f64(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Simulates `program` on one vector and returns the outputs in
/// `sketch.outputs` order.
fn simulate(
    sim: &Simulator<'_>,
    sketch: &Sketch,
    program: &Program,
    inputs: &[u64],
) -> Option<Vec<u64>> {
    let regs: std::collections::HashMap<Reg, u64> = sketch
        .inputs
        .iter()
        .zip(inputs)
        .map(|(&(_, r), &v)| (r, v))
        .collect();
    let out = sim
        .run(program, &regs, std::collections::HashMap::new())
        .ok()?;
    sketch
        .outputs
        .iter()
        .map(|&(n, _)| {
            program
                .output_reg(n)
                .and_then(|r| out.regs.get(&r).copied())
        })
        .collect()
}

enum Verdict {
    Pass,
    /// A fresh oracle vector disagreed; widen it into the test set.
    Widen(Vec<u64>, Vec<u64>),
    Fail,
}

/// Full verification of a would-be best candidate: structural
/// validation, simulation on the chain's own vectors, then simulation
/// on fresh oracle vectors (suspicion widening).
#[allow(clippy::too_many_arguments)]
fn verify(
    machine: &Machine,
    sketch: &Sketch,
    program: &Program,
    vectors: &[(Vec<u64>, Vec<u64>)],
    oracle: &mut dyn FnMut(&[u64]) -> Option<Vec<u64>>,
    rng: &mut Rng,
    n_inputs: usize,
    fresh: usize,
) -> Verdict {
    if validate(program, machine).is_err() {
        return Verdict::Fail;
    }
    let sim = Simulator::new(machine);
    for (inputs, expected) in vectors {
        match simulate(&sim, sketch, program, inputs) {
            Some(actual) if &actual == expected => {}
            _ => return Verdict::Fail,
        }
    }
    for _ in 0..fresh {
        let inputs: Vec<u64> = (0..n_inputs).map(|_| random_input(rng)).collect();
        let Some(expected) = oracle(&inputs) else {
            return Verdict::Fail;
        };
        match simulate(&sim, sketch, program, &inputs) {
            Some(actual) if actual == expected => {}
            _ => return Verdict::Widen(inputs, expected),
        }
    }
    Verdict::Pass
}

/// Runs one Metropolis chain over `sketch`, reporting verified
/// improvements through `on_best` as they are found (the anytime
/// channel) and returning the full outcome.
///
/// `oracle` maps an input vector (in `sketch.inputs` order) to the
/// goal's output values (in `sketch.outputs` order); `None` marks the
/// goal as unsupported and returns the baseline untouched.
#[allow(clippy::too_many_arguments)]
pub fn optimize(
    machine: &Machine,
    sketch: &Sketch,
    baseline: &Program,
    oracle: &mut dyn FnMut(&[u64]) -> Option<Vec<u64>>,
    rules: &[EquivRule],
    config: &StokeConfig,
    cancel: Option<&CancelToken>,
    tracer: &Tracer,
    on_best: &mut dyn FnMut(&Program, u32),
) -> StokeOutcome {
    let started = Instant::now();
    let mut rng = Rng::new(config.seed);
    let n_inputs = sketch.inputs.len();

    // Seed the test-vector set from the oracle.
    let mut vectors: Vec<(Vec<u64>, Vec<u64>)> = Vec::with_capacity(config.vectors);
    for _ in 0..config.vectors.max(1) {
        let inputs: Vec<u64> = (0..n_inputs).map(|_| random_input(&mut rng)).collect();
        match oracle(&inputs) {
            Some(outputs) => vectors.push((inputs, outputs)),
            None => return StokeOutcome::baseline_only(baseline, false),
        }
    }

    let baseline_cycles = baseline.cycles();
    let pool = MovePool::new(machine, rules);
    let mut cur = sketch.clone();
    let mut cur_score = score(&cur, machine, &vectors);
    // The starting sketch mirrors the baseline program; if it does not
    // score as correct the conversion is unsound for this goal — fall
    // back to the baseline rather than search a broken space.
    if !matches!(cur_score, Scored::Correct { .. }) {
        return StokeOutcome::baseline_only(baseline, false);
    }

    tracer.event("stoke.start", || {
        vec![
            field("name", sketch.name.clone()),
            field("seed", config.seed),
            field("cells", sketch.cells.len()),
            field("iterations", config.iterations),
            field("baseline_cycles", baseline_cycles),
        ]
    });

    let mut out = StokeOutcome::baseline_only(baseline, true);
    let mut best_sketch = cur.clone();
    let mut since_improve: u64 = 0;

    // The greedy rescheduling of the baseline sketch can itself beat
    // the baseline program; treat it as proposal 0's candidate.
    if let Scored::Correct { ref program, cost } = cur_score {
        let cycles = cost as u32;
        if cycles < out.best_cycles {
            out.verifications += 1;
            let program = program.clone();
            match verify(
                machine,
                &cur,
                &program,
                &vectors,
                oracle,
                &mut rng,
                n_inputs,
                config.verify_vectors,
            ) {
                Verdict::Pass => {
                    out.best_program = program.clone();
                    out.best_cycles = cycles;
                    out.trajectory.push((0, cycles));
                    best_sketch = cur.clone();
                    on_best(&program, cycles);
                }
                Verdict::Widen(i, o) => {
                    vectors.push((i, o));
                    out.widenings += 1;
                    cur_score = score(&cur, machine, &vectors);
                }
                Verdict::Fail => {}
            }
        }
    }

    for p in 1..=config.iterations {
        if p % 64 == 0 && cancel.is_some_and(CancelToken::is_cancelled) {
            out.cancelled = true;
            break;
        }
        out.proposals = p;
        since_improve += 1;
        let Some(undo) = propose(&mut rng, &mut cur, machine, &pool, rules) else {
            continue;
        };
        let new_score = score(&cur, machine, &vectors);
        let delta = new_score.cost() as f64 - cur_score.cost() as f64;
        let accept = !matches!(new_score, Scored::Invalid)
            && (delta <= 0.0 || uniform_f64(&mut rng) < (-config.beta * delta).exp());
        if !accept {
            apply_undo(&mut cur, undo);
            continue;
        }
        out.accepted += 1;
        let mut rescore = false;
        if let Scored::Correct { ref program, cost } = new_score {
            let cycles = cost as u32;
            if cycles < out.best_cycles {
                out.verifications += 1;
                let program = program.clone();
                match verify(
                    machine,
                    &cur,
                    &program,
                    &vectors,
                    oracle,
                    &mut rng,
                    n_inputs,
                    config.verify_vectors,
                ) {
                    Verdict::Pass => {
                        out.best_program = program.clone();
                        out.best_cycles = cycles;
                        out.trajectory.push((p, cycles));
                        best_sketch = cur.clone();
                        since_improve = 0;
                        on_best(&program, cycles);
                        tracer.event("stoke.best", || {
                            vec![field("proposal", p), field("cycles", cycles)]
                        });
                    }
                    Verdict::Widen(i, o) => {
                        vectors.push((i, o));
                        out.widenings += 1;
                        rescore = true;
                    }
                    Verdict::Fail => {}
                }
            }
        }
        cur_score = if rescore {
            score(&cur, machine, &vectors)
        } else {
            new_score
        };
        if since_improve >= config.restart_after {
            cur = best_sketch.clone();
            cur_score = score(&cur, machine, &vectors);
            out.restarts += 1;
            since_improve = 0;
        }
    }

    out.improved = out.best_cycles < baseline_cycles;
    tracer.event("stoke.done", || {
        vec![
            field("proposals", out.proposals),
            field("accepted", out.accepted),
            field("restarts", out.restarts),
            field("best_cycles", out.best_cycles),
            field("improved", out.improved),
        ]
    });
    let m = stoke_metrics();
    m.proposals.add(out.proposals);
    m.accepted.add(out.accepted);
    m.restarts.add(out.restarts);
    m.verifications.add(out.verifications);
    if out.improved {
        m.improvements.inc();
    }
    m.best_cycles.set(u64::from(out.best_cycles));
    m.chain_us
        .observe(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// The baseline shape for figure 2's `reg6*4 + 1`: sll + addq.
    fn figure2_baseline() -> Program {
        Program {
            instrs: vec![
                Instr {
                    op: sym("sll"),
                    operands: vec![Operand::Reg(Reg(6)), Operand::Imm(2)],
                    dest: Some(Reg(7)),
                    cycle: 0,
                    unit: Unit::U0,
                    comment: String::new(),
                },
                Instr {
                    op: sym("addq"),
                    operands: vec![Operand::Reg(Reg(7)), Operand::Imm(1)],
                    dest: Some(Reg(8)),
                    cycle: 1,
                    unit: Unit::U0,
                    comment: String::new(),
                },
            ],
            inputs: vec![(sym("reg6"), Reg(6))],
            outputs: vec![(sym("res"), Reg(8))],
            name: "figure2".to_owned(),
            reg_reuse: false,
        }
    }

    fn figure2_oracle(inputs: &[u64]) -> Option<Vec<u64>> {
        Some(vec![inputs[0].wrapping_mul(4).wrapping_add(1)])
    }

    #[test]
    fn sketch_round_trips_the_baseline() {
        let machine = Machine::ev6();
        let baseline = figure2_baseline();
        let sketch = Sketch::from_program(&baseline, &machine, 48).unwrap();
        assert!(sketch.cells.len() >= 2, "padded sketch keeps real cells");
        // The sketch computes the same function.
        for x in [0u64, 1, 7, u64::MAX] {
            assert_eq!(sketch.eval(&[x]).unwrap(), vec![x.wrapping_mul(4) + 1]);
        }
        // And schedules back into a valid program.
        let p = sketch.to_program(&machine).unwrap();
        validate(&p, &machine).unwrap();
        let sim = Simulator::new(&machine);
        let out = sim
            .run(&p, &HashMap::from([(Reg(6), 10u64)]), HashMap::new())
            .unwrap();
        let res = p.output_reg(sym("res")).unwrap();
        assert_eq!(out.regs[&res], 41);
    }

    #[test]
    fn memory_programs_are_unsupported() {
        let machine = Machine::ev6();
        let p = Program {
            instrs: vec![Instr {
                op: sym("ldq"),
                operands: vec![Operand::Reg(Reg(1)), Operand::Imm(0)],
                dest: Some(Reg(2)),
                cycle: 0,
                unit: Unit::L0,
                comment: String::new(),
            }],
            inputs: vec![(sym("p"), Reg(1))],
            outputs: vec![(sym("r"), Reg(2))],
            name: "load".to_owned(),
            reg_reuse: false,
        };
        assert!(Sketch::from_program(&p, &machine, 48).is_none());
    }

    #[test]
    fn equiv_rule_lets_the_chain_find_s4addq() {
        let machine = Machine::ev6();
        let baseline = figure2_baseline();
        let sketch = Sketch::from_program(&baseline, &machine, 48).unwrap();
        // Mined rule: cell 1 (the addq) may be computed as
        // s4addq(input0, 1) directly.
        let rules = vec![EquivRule {
            cell: 1,
            op: sym("s4addq"),
            args: vec![ValRef::Input(0), ValRef::Imm(1)],
        }];
        let config = StokeConfig {
            iterations: 4_000,
            ..StokeConfig::default()
        };
        let mut best_seen = Vec::new();
        let out = optimize(
            &machine,
            &sketch,
            &baseline,
            &mut figure2_oracle,
            &rules,
            &config,
            None,
            &Tracer::disabled(),
            &mut |p, c| best_seen.push((p.clone(), c)),
        );
        assert!(out.supported);
        assert!(out.improved, "chain should find the 1-cycle s4addq form");
        assert_eq!(out.best_cycles, 1);
        assert!(out.best_cycles < out.baseline_cycles);
        assert!(!best_seen.is_empty(), "anytime channel published the best");
        validate(&out.best_program, &machine).unwrap();
        // The published program really computes 4x+1.
        let sim = Simulator::new(&machine);
        let res = out.best_program.output_reg(sym("res")).unwrap();
        for x in [0u64, 3, 255, u64::MAX] {
            let out_regs = sim
                .run(
                    &out.best_program,
                    &HashMap::from([(Reg(6), x)]),
                    HashMap::new(),
                )
                .unwrap();
            assert_eq!(out_regs.regs[&res], x.wrapping_mul(4).wrapping_add(1));
        }
    }

    #[test]
    fn fixed_seed_runs_are_identical() {
        let machine = Machine::ev6();
        let baseline = figure2_baseline();
        let sketch = Sketch::from_program(&baseline, &machine, 48).unwrap();
        let config = StokeConfig {
            iterations: 2_000,
            ..StokeConfig::default()
        };
        let run = || {
            optimize(
                &machine,
                &sketch,
                &baseline,
                &mut figure2_oracle,
                &[],
                &config,
                None,
                &Tracer::disabled(),
                &mut |_, _| {},
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_program.listing(4), b.best_program.listing(4));
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.proposals, b.proposals);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.restarts, b.restarts);
    }

    #[test]
    fn oracle_failure_falls_back_to_baseline() {
        let machine = Machine::ev6();
        let baseline = figure2_baseline();
        let sketch = Sketch::from_program(&baseline, &machine, 48).unwrap();
        let out = optimize(
            &machine,
            &sketch,
            &baseline,
            &mut |_| None,
            &[],
            &StokeConfig::default(),
            None,
            &Tracer::disabled(),
            &mut |_, _| {},
        );
        assert!(!out.supported);
        assert!(!out.improved);
        assert_eq!(out.best_cycles, out.baseline_cycles);
    }

    #[test]
    fn cancellation_stops_the_chain() {
        let machine = Machine::ev6();
        let baseline = figure2_baseline();
        let sketch = Sketch::from_program(&baseline, &machine, 48).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let out = optimize(
            &machine,
            &sketch,
            &baseline,
            &mut figure2_oracle,
            &[],
            &StokeConfig::default(),
            Some(&token),
            &Tracer::disabled(),
            &mut |_, _| {},
        );
        assert!(out.cancelled);
        assert!(out.proposals < StokeConfig::default().iterations);
    }
}
