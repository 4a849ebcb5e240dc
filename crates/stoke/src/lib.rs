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

/// The opcodes the chain treats specially, interned once per process.
struct Syms {
    mov: Symbol,
    ldiq: Symbol,
    extr_u: Symbol,
    dep_z: Symbol,
}

fn syms() -> &'static Syms {
    static SYMS: OnceLock<Syms> = OnceLock::new();
    SYMS.get_or_init(|| Syms {
        mov: Symbol::intern("mov"),
        ldiq: Symbol::intern("ldiq"),
        extr_u: Symbol::intern("extr_u"),
        dep_z: Symbol::intern("dep_z"),
    })
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
    let s = syms();
    if op == s.ldiq {
        pos == 0
    } else if op == s.extr_u || op == s.dep_z {
        (pos == 1 || pos == 2) && machine.fits_alu_literal(value)
    } else {
        pos == 1 && machine.fits_alu_literal(value)
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
        let Syms { mov, ldiq, .. } = *syms();
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
        let mov = syms().mov;
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

    /// Greedy cluster-aware list scheduling of the live cells into a
    /// validated [`Program`]. `None` when the sketch is not emittable
    /// (immediate in an illegal operand position, an output that
    /// resolves to a bare immediate, or no unit can ever issue a cell).
    pub fn to_program(&self, machine: &Machine) -> Option<Program> {
        let mut scorer = Scorer::new(machine, self.cells.iter().map(|c| c.op));
        scorer.live(self);
        scorer.place()?;
        Some(scorer.emit(self))
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
    /// Proposals that edited a cell no output reaches, settled at the
    /// current score (or `Invalid`) without scoring.
    pub settled: u64,
    /// Wrong proposals rejected before their last test vector, once
    /// their cost was bound to fail the Metropolis test.
    pub stopped: u64,
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
            settled: 0,
            stopped: 0,
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
        let Syms { mov, ldiq, .. } = *syms();
        let mut ops: Vec<(Symbol, usize)> = ops::all()
            .filter(|info| info.eval.is_some() && info.name != "ldq" && info.name != "stq")
            .map(|info| (Symbol::intern(info.name), info.arity))
            .filter(|&(sym, _)| machine.is_instruction(sym) && sym != mov && sym != ldiq)
            .collect();
        ops.sort_by_cached_key(|&(s, _)| s.as_str());
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

/// Most arguments an evaluator in `denali_term::ops` takes.
const MAX_ARITY: usize = 3;

/// Word semantics of `mov` and `ldiq`: the first argument.
fn first(args: &[u64]) -> u64 {
    args[0]
}

/// What scoring needs to know about one opcode.
#[derive(Clone, Copy)]
struct OpFacts<'m> {
    /// Word semantics ([`first`] for `mov` and `ldiq`); `None` when the
    /// opcode has none.
    eval: Option<fn(&[u64]) -> u64>,
    /// The argument count `eval` requires; `None` for `mov` and `ldiq`,
    /// which read only their first argument.
    arity: Option<usize>,
    /// Result latency; `None` when the opcode is not an instruction of
    /// the machine.
    latency: Option<u32>,
    /// Units that can issue the opcode.
    units: &'m [Unit],
}

impl OpFacts<'_> {
    const UNKNOWN: OpFacts<'static> = OpFacts {
        eval: None,
        arity: None,
        latency: None,
        units: &[],
    };
}

/// [`OpFacts`] for every opcode a chain can write, indexed by
/// [`Symbol::index`], so scoring never goes through `ops`' or the
/// machine's hash maps.
struct OpTable<'m> {
    facts: Vec<OpFacts<'m>>,
}

impl<'m> OpTable<'m> {
    /// The table for `ops` (plus `mov` and `ldiq`) on `machine`.
    fn new(machine: &'m Machine, ops: impl IntoIterator<Item = Symbol>) -> OpTable<'m> {
        let Syms { mov, ldiq, .. } = *syms();
        let mut facts: Vec<OpFacts<'m>> = Vec::new();
        for op in ops.into_iter().chain([mov, ldiq]) {
            if facts.len() <= op.index() {
                facts.resize(op.index() + 1, OpFacts::UNKNOWN);
            }
            let (eval, arity) = if op == mov || op == ldiq {
                (Some(first as fn(&[u64]) -> u64), None)
            } else {
                ops::info(op).map_or((None, None), |i| (i.eval, Some(i.arity)))
            };
            let info = machine.info(op);
            facts[op.index()] = OpFacts {
                eval,
                arity,
                latency: info.map(|i| i.latency),
                units: info.map_or(&[], |i| &i.units),
            };
        }
        OpTable { facts }
    }

    fn get(&self, op: Symbol) -> OpFacts<'m> {
        self.facts
            .get(op.index())
            .copied()
            .unwrap_or(OpFacts::UNKNOWN)
    }
}

/// A live cell's argument with `mov` chains resolved away: a procedure
/// input, the value of an earlier live cell (by its position in the
/// live order), or an immediate.
#[derive(Clone, Copy)]
enum Src {
    Input(usize),
    Slot(usize),
    Imm(u64),
}

/// One live (emitted) cell of the last scored sketch.
#[derive(Clone, Copy)]
struct Slot<'m> {
    op: Symbol,
    facts: OpFacts<'m>,
    /// Its arguments are `Scorer::args[start..end]`.
    start: usize,
    end: usize,
}

/// Marks in [`Scorer::slot_of`]: `LIVE` while the live set is being
/// found, and `MOV` on the `mov` cells the walk resolved through.
const DEAD: usize = usize::MAX;
const LIVE: usize = usize::MAX - 1;
const MOV: usize = usize::MAX - 2;

/// Scores sketches for one chain. Each proposal's live cells, their
/// resolved arguments, their values and their placement go into
/// buffers that are reused from one proposal to the next.
struct Scorer<'m> {
    machine: &'m Machine,
    table: OpTable<'m>,
    /// Cell index → its slot, or [`MOV`] or [`DEAD`].
    slot_of: Vec<usize>,
    /// Work list of the liveness walk.
    stack: Vec<ValRef>,
    /// The live cells in ascending cell order.
    slots: Vec<Slot<'m>>,
    /// The slots' resolved arguments, back to back.
    args: Vec<Src>,
    /// The outputs, resolved.
    outputs: Vec<Src>,
    /// Each slot's value on the current vector.
    vals: Vec<u64>,
    /// Each slot's (cycle, unit) after a successful [`Scorer::place`].
    placed: Vec<Option<(u32, Unit)>>,
    /// Slots not yet placed, in slot order.
    remaining: Vec<usize>,
}

impl<'m> Scorer<'m> {
    /// A scorer for sketches whose opcodes are all among `ops`, `mov`
    /// and `ldiq`.
    fn new(machine: &'m Machine, ops: impl IntoIterator<Item = Symbol>) -> Scorer<'m> {
        Scorer {
            machine,
            table: OpTable::new(machine, ops),
            slot_of: Vec::new(),
            stack: Vec::new(),
            slots: Vec::new(),
            args: Vec::new(),
            outputs: Vec::new(),
            vals: Vec::new(),
            placed: Vec::new(),
            remaining: Vec::new(),
        }
    }

    /// The scorer of a chain from `sketch` whose moves draw from
    /// `rules` and `pool`.
    fn for_chain(
        machine: &'m Machine,
        sketch: &Sketch,
        rules: &[EquivRule],
        pool: &MovePool,
    ) -> Scorer<'m> {
        let ops = (sketch.cells.iter().map(|c| c.op))
            .chain(rules.iter().map(|r| r.op))
            .chain(pool.ops.iter().map(|&(op, _)| op));
        Scorer::new(machine, ops)
    }

    /// Scores `sketch` in full: every cell checked, every vector
    /// evaluated.
    fn score(&mut self, sketch: &Sketch, vectors: &[(Vec<u64>, Vec<u64>)]) -> Scored {
        if !sketch.cells.iter().all(|cell| self.valid(cell)) {
            return Scored::Invalid;
        }
        self.live(sketch);
        let wrong_bits = vectors
            .iter()
            .map(|(inputs, expected)| self.wrong_bits(inputs, expected))
            .sum();
        self.finish(wrong_bits, self.latency_sum())
    }

    /// Scores a proposal and runs the Metropolis test on it against the
    /// current state's cost `cur`, doing only the work that decides it.
    /// The proposal changed at most the cell `edited` of a valid state,
    /// so that is the only cell checked.
    ///
    /// After each vector that leaves `w > 0` wrong bits, the final cost
    /// is at least `b = 2·w + latency_sum`. Once `b > cur` the proposal
    /// costs more than the current state, so the test will draw its
    /// uniform `u`: it is drawn there, once, at the place in `rng`'s
    /// stream where scoring in full would have drawn it. Evaluation
    /// stops as soon as `u >= exp(-beta·(b - cur))`, since the final
    /// cost can only fail the test by more; a finished evaluation
    /// reuses the drawn `u`. A correct sketch never stops early: its
    /// cost is its cycle count, which `latency_sum` does not bound.
    fn trial(
        &mut self,
        sketch: &Sketch,
        edited: Option<usize>,
        vectors: &[(Vec<u64>, Vec<u64>)],
        cur: u64,
        beta: f64,
        rng: &mut Rng,
    ) -> Trial {
        if edited.is_some_and(|i| !self.valid(&sketch.cells[i])) {
            return Trial::Rejected;
        }
        self.live(sketch);
        let latency = self.latency_sum();
        let mut wrong_bits = 0;
        let mut u = None;
        for (k, (inputs, expected)) in vectors.iter().enumerate() {
            wrong_bits += self.wrong_bits(inputs, expected);
            let bound = wrong_bits * WRONG_BIT_COST + latency;
            if wrong_bits == 0 || bound <= cur {
                continue;
            }
            let u = *u.get_or_insert_with(|| uniform_f64(rng));
            if u >= (-beta * (bound as f64 - cur as f64)).exp() {
                return if k + 1 < vectors.len() {
                    Trial::Stopped
                } else {
                    Trial::Rejected
                };
            }
        }
        let scored = self.finish(wrong_bits, latency);
        if metropolis(scored, cur, beta, || u.unwrap_or_else(|| uniform_f64(rng))) {
            Trial::Accepted(scored)
        } else {
            Trial::Rejected
        }
    }

    /// The score of the live cells once evaluated: a wrong sketch costs
    /// its wrong bits plus `latency`, their latency sum; a correct one
    /// its placed cycle count.
    fn finish(&mut self, wrong_bits: u64, latency: u64) -> Scored {
        if wrong_bits > 0 {
            return Scored::Pending {
                cost: wrong_bits * WRONG_BIT_COST + latency,
            };
        }
        match self.place() {
            Some(cycles) => Scored::Correct {
                cost: u64::from(cycles),
            },
            None => Scored::Pending { cost: latency + 8 },
        }
    }

    /// True when `cell`'s opcode has executable semantics for its
    /// argument count. That does not depend on the input vector.
    fn valid(&self, cell: &Cell) -> bool {
        let facts = self.table.get(cell.op);
        facts.eval.is_some() && facts.arity.is_none_or(|a| a == cell.args.len())
    }

    /// Finds the emitted (non-`mov`) cells reachable from the outputs,
    /// marks the `mov` cells on the way as [`MOV`], and resolves the
    /// live cells' arguments and the outputs through `mov` chains.
    fn live(&mut self, sketch: &Sketch) {
        let mov = syms().mov;
        let resolve = |mut v: ValRef| loop {
            match v {
                ValRef::Cell(i) if sketch.cells[i].op == mov => v = sketch.cells[i].args[0],
                other => return other,
            }
        };
        let src = |v: ValRef, slot_of: &[usize]| match resolve(v) {
            ValRef::Input(j) => Src::Input(j),
            ValRef::Cell(j) => Src::Slot(slot_of[j]),
            ValRef::Imm(v) => Src::Imm(v),
        };
        self.slot_of.clear();
        self.slot_of.resize(sketch.cells.len(), DEAD);
        self.stack.clear();
        self.stack.extend(sketch.outputs.iter().map(|&(_, v)| v));
        while let Some(mut v) = self.stack.pop() {
            while let ValRef::Cell(i) = v {
                if self.slot_of[i] != DEAD {
                    break;
                }
                let cell = &sketch.cells[i];
                if cell.op == mov {
                    self.slot_of[i] = MOV;
                    v = cell.args[0];
                } else {
                    self.slot_of[i] = LIVE;
                    self.stack.extend_from_slice(&cell.args);
                    break;
                }
            }
        }
        self.slots.clear();
        self.args.clear();
        for (i, cell) in sketch.cells.iter().enumerate() {
            if self.slot_of[i] != LIVE {
                continue;
            }
            self.slot_of[i] = self.slots.len();
            let start = self.args.len();
            for &a in &cell.args {
                self.args.push(src(a, &self.slot_of));
            }
            self.slots.push(Slot {
                op: cell.op,
                facts: self.table.get(cell.op),
                start,
                end: self.args.len(),
            });
        }
        self.outputs.clear();
        for &(_, v) in &sketch.outputs {
            self.outputs.push(src(v, &self.slot_of));
        }
        self.vals.resize(self.slots.len(), 0);
    }

    /// Sets `reached[i]` for each cell the last [`Scorer::live`] walk
    /// reached: the live cells and the `mov` cells they or the outputs
    /// read through.
    fn reached(&self, reached: &mut Vec<bool>) {
        reached.clear();
        reached.extend(self.slot_of.iter().map(|&s| s != DEAD));
    }

    /// Wrong output bits on one vector, evaluating the live cells only.
    /// Every evaluator is total, so a dead cell cannot change an output.
    fn wrong_bits(&mut self, inputs: &[u64], expected: &[u64]) -> u64 {
        let (slots, args, vals) = (&self.slots, &self.args, &mut self.vals);
        let value = |vals: &[u64], src: Src| match src {
            Src::Input(i) => inputs[i],
            Src::Slot(k) => vals[k],
            Src::Imm(v) => v,
        };
        for (k, slot) in slots.iter().enumerate() {
            let eval = slot.facts.eval.expect("scored sketches are valid");
            let mut a = [0u64; MAX_ARITY];
            let n = (slot.end - slot.start).min(MAX_ARITY);
            for (x, &src) in a.iter_mut().zip(&args[slot.start..slot.end]) {
                *x = value(vals, src);
            }
            vals[k] = eval(&a[..n]);
        }
        self.outputs
            .iter()
            .zip(expected)
            .map(|(&src, e)| u64::from((value(vals, src) ^ e).count_ones()))
            .sum()
    }

    /// Sum of instruction latencies over the live cells — the perf
    /// proxy used while a candidate is still incorrect or
    /// unschedulable.
    fn latency_sum(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.facts.latency.map_or(8, u64::from))
            .sum()
    }

    /// Greedy cluster-aware list scheduling of the live cells: earliest
    /// cycle, units in table order. Returns the schedule length, or
    /// `None` when the sketch is not emittable (an opcode that is not
    /// an instruction, an immediate in an illegal operand position, an
    /// output that resolves to a bare immediate, or a cell no unit can
    /// ever issue).
    fn place(&mut self) -> Option<u32> {
        if self.outputs.iter().any(|s| matches!(s, Src::Imm(_))) {
            return None;
        }
        for slot in &self.slots {
            slot.facts.latency?;
            for (pos, &src) in self.args[slot.start..slot.end].iter().enumerate() {
                if let Src::Imm(v) = src {
                    if !imm_ok(self.machine, slot.op, pos, v) {
                        return None;
                    }
                }
            }
        }
        let n = self.slots.len();
        let width = self.machine.issue_width();
        let cluster_delay = self.machine.cluster_delay();
        self.placed.clear();
        self.placed.resize(n, None);
        self.remaining.clear();
        self.remaining.extend(0..n);
        let bound = (n as u32 + 2) * 16 + 64;
        let mut cycle: u32 = 0;
        let mut cycles: u32 = 0;
        while !self.remaining.is_empty() {
            if cycle > bound {
                return None;
            }
            // Units issued this cycle, one bit per `unit_rank`.
            let mut used: u8 = 0;
            let mut issued = 0;
            let mut k = 0;
            while k < self.remaining.len() && issued < width {
                let c = self.remaining[k];
                let slot = &self.slots[c];
                let args = &self.args[slot.start..slot.end];
                let ready = |u: Unit| {
                    args.iter().all(|&src| {
                        let Src::Slot(p) = src else {
                            return true;
                        };
                        let Some((pc, pu)) = self.placed[p] else {
                            return false;
                        };
                        let latency = self.slots[p].facts.latency.expect("checked above");
                        let delay = if pu.cluster() == u.cluster() {
                            0
                        } else {
                            cluster_delay
                        };
                        pc + latency + delay <= cycle
                    })
                };
                let chosen = slot
                    .facts
                    .units
                    .iter()
                    .copied()
                    .find(|&u| used & (1 << unit_rank(u)) == 0 && ready(u));
                if let Some(u) = chosen {
                    self.placed[c] = Some((cycle, u));
                    used |= 1 << unit_rank(u);
                    issued += 1;
                    cycles = cycle + 1;
                    self.remaining.remove(k);
                } else {
                    k += 1;
                }
            }
            cycle += 1;
        }
        Some(cycles)
    }

    /// The [`Program`] of the last placement: `sketch` must be the
    /// sketch last scored, and [`Scorer::place`] must have succeeded on
    /// it.
    fn emit(&self, sketch: &Sketch) -> Program {
        // Inputs keep their entry registers; live cells get fresh
        // registers above them.
        let base = sketch
            .inputs
            .iter()
            .map(|&(_, r)| r.0 + 1)
            .max()
            .unwrap_or(1);
        let reg = |src: Src| match src {
            Src::Input(i) => sketch.inputs[i].1,
            Src::Slot(k) => Reg(base + k as u32),
            Src::Imm(_) => unreachable!("imm refs are emitted as Operand::Imm"),
        };
        let mut instrs: Vec<Instr> = self
            .slots
            .iter()
            .enumerate()
            .map(|(k, slot)| {
                let (cycle, unit) = self.placed[k].expect("all live cells placed");
                Instr {
                    op: slot.op,
                    operands: self.args[slot.start..slot.end]
                        .iter()
                        .map(|&src| match src {
                            Src::Imm(v) => Operand::Imm(v),
                            other => Operand::Reg(reg(other)),
                        })
                        .collect(),
                    dest: Some(Reg(base + k as u32)),
                    cycle,
                    unit,
                    comment: String::new(),
                }
            })
            .collect();
        instrs.sort_by_key(|i| (i.cycle, unit_rank(i.unit)));
        Program {
            instrs,
            inputs: sketch.inputs.clone(),
            outputs: sketch
                .outputs
                .iter()
                .zip(&self.outputs)
                .map(|(&(name, _), &src)| (name, reg(src)))
                .collect(),
            name: sketch.name.clone(),
            reg_reuse: false,
        }
    }
}

/// Undo record for one proposal.
enum Undo {
    /// The whole cell was swapped with the spare cell, which now holds
    /// the old one.
    Cell(usize),
    /// A cell's old opcode.
    Op(usize, Symbol),
    /// A cell's old argument at a position.
    Arg(usize, usize, ValRef),
    /// An output's old value reference.
    Output(usize, ValRef),
}

impl Undo {
    /// The one cell the move edited; `None` for an output retarget.
    fn cell(&self) -> Option<usize> {
        match *self {
            Undo::Cell(i) | Undo::Op(i, _) | Undo::Arg(i, _, _) => Some(i),
            Undo::Output(..) => None,
        }
    }
}

fn apply_undo(sketch: &mut Sketch, spare: &mut Cell, undo: Undo) {
    match undo {
        Undo::Cell(i) => std::mem::swap(&mut sketch.cells[i], spare),
        Undo::Op(i, op) => sketch.cells[i].op = op,
        Undo::Arg(i, pos, v) => sketch.cells[i].args[pos] = v,
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
    if pos == 1 && op != syms().ldiq && rng.below(4) == 0 {
        let v = *rng.choose(&pool.literals);
        if imm_ok(machine, op, pos, v) {
            return ValRef::Imm(v);
        }
    }
    random_value_ref(rng, sketch, idx)
}

/// Mutates `sketch` with one random move; returns the undo record, or
/// `None` when the drawn move was a no-op. A move that rewrites a whole
/// cell builds the new cell in `spare` and swaps it in, so no proposal
/// allocates once `spare` has grown to the widest cell.
fn propose(
    rng: &mut Rng,
    sketch: &mut Sketch,
    spare: &mut Cell,
    machine: &Machine,
    pool: &MovePool,
    rules: &[EquivRule],
) -> Option<Undo> {
    let Syms { mov, ldiq, .. } = *syms();
    let n = sketch.cells.len();
    let kind = rng.below(16);
    match kind {
        // Rewrite-to-equivalent: install a mined rule verbatim.
        0..=4 if !rules.is_empty() => {
            let rule = rng.choose(rules);
            let old = &sketch.cells[rule.cell];
            if old.op == rule.op && old.args == rule.args {
                return None;
            }
            spare.op = rule.op;
            spare.args.clear();
            spare.args.extend_from_slice(&rule.args);
            std::mem::swap(&mut sketch.cells[rule.cell], spare);
            Some(Undo::Cell(rule.cell))
        }
        // Opcode swap: keep the arguments, change the operation.
        0..=6 => {
            let i = rng.below_usize(n);
            let cell = &sketch.cells[i];
            if cell.op == mov || cell.op == ldiq {
                return None;
            }
            let arity = cell.args.len();
            let same = |&&(s, a): &&(Symbol, usize)| a == arity && s != cell.op;
            let count = pool.ops.iter().filter(same).count();
            if count == 0 {
                return None;
            }
            let pick = rng.below_usize(count);
            let (new_op, _) = *pool
                .ops
                .iter()
                .filter(same)
                .nth(pick)
                .expect("pick is below the count");
            if let Some(ValRef::Imm(v)) = cell.args.get(1) {
                if !imm_ok(machine, new_op, 1, *v) {
                    return None;
                }
            }
            let old = std::mem::replace(&mut sketch.cells[i].op, new_op);
            Some(Undo::Op(i, old))
        }
        // Operand swap: change one argument.
        7..=9 => {
            let i = rng.below_usize(n);
            let op = sketch.cells[i].op;
            if op == ldiq {
                let v = ValRef::Imm(*rng.choose(&pool.literals));
                if sketch.cells[i].args[0] == v {
                    return None;
                }
                let old = std::mem::replace(&mut sketch.cells[i].args[0], v);
                return Some(Undo::Arg(i, 0, old));
            }
            let pos = rng.below_usize(sketch.cells[i].args.len());
            let arg = random_arg(rng, sketch, machine, pool, i, op, pos);
            if sketch.cells[i].args[pos] == arg {
                return None;
            }
            let old = std::mem::replace(&mut sketch.cells[i].args[pos], arg);
            Some(Undo::Arg(i, pos, old))
        }
        // Instruction replace: a fresh opcode with fresh arguments.
        10..=12 => {
            let i = rng.below_usize(n);
            if pool.ops.is_empty() {
                return None;
            }
            let (op, arity) = *rng.choose(&pool.ops);
            spare.op = op;
            spare.args.clear();
            for pos in 0..arity {
                let arg = random_arg(rng, sketch, machine, pool, i, op, pos);
                spare.args.push(arg);
            }
            std::mem::swap(&mut sketch.cells[i], spare);
            Some(Undo::Cell(i))
        }
        // Instruction delete: collapse a cell to a passthrough.
        13 => {
            let i = rng.below_usize(n);
            let v = random_value_ref(rng, sketch, i);
            let old = &sketch.cells[i];
            if old.op == mov && old.args == [v] {
                return None;
            }
            spare.op = mov;
            spare.args.clear();
            spare.args.push(v);
            std::mem::swap(&mut sketch.cells[i], spare);
            Some(Undo::Cell(i))
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scored {
    /// Opcode with no semantics for its arguments (reject outright).
    Invalid,
    /// Wrong on at least one test vector, or correct but unschedulable.
    Pending { cost: u64 },
    /// Correct on all vectors and schedulable in `cost` cycles.
    Correct { cost: u64 },
}

impl Scored {
    fn cost(&self) -> u64 {
        match self {
            Scored::Invalid => u64::MAX,
            Scored::Pending { cost } | Scored::Correct { cost } => *cost,
        }
    }
}

/// How the Metropolis test went on one proposal.
enum Trial {
    /// Accepted, with the proposal's score.
    Accepted(Scored),
    /// Rejected once scored in full, or invalid.
    Rejected,
    /// Rejected before its last vector.
    Stopped,
}

/// The Metropolis test of a proposal scored `new` from a state that
/// costs `cur`: an invalid proposal fails, one that costs no more
/// passes, and a costlier one passes when the uniform `u()` falls below
/// `exp(-beta·delta)`. `u` is called only in that last case.
fn metropolis(new: Scored, cur: u64, beta: f64, u: impl FnOnce() -> f64) -> bool {
    let delta = new.cost() as f64 - cur as f64;
    new != Scored::Invalid && (delta <= 0.0 || u() < (-beta * delta).exp())
}

/// Weight of one wrong output bit relative to one cycle of latency.
const WRONG_BIT_COST: u64 = 2;

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

/// One Metropolis chain between proposals.
struct Chain<'m, 'c> {
    machine: &'m Machine,
    config: &'c StokeConfig,
    rules: &'c [EquivRule],
    pool: MovePool,
    scorer: Scorer<'m>,
    rng: Rng,
    vectors: Vec<(Vec<u64>, Vec<u64>)>,
    cur: Sketch,
    /// The score of `cur` on `vectors`; never `Invalid`.
    cur_score: Scored,
    /// `reached[i]`: an output of `cur` reaches cell `i`, possibly
    /// through `mov` cells (which count as reached).
    reached: Vec<bool>,
    spare: Cell,
    best_sketch: Sketch,
    since_improve: u64,
    out: StokeOutcome,
}

impl<'m, 'c> Chain<'m, 'c> {
    /// A chain at `sketch`, scored on test vectors seeded from
    /// `oracle`. `None` when the oracle fails, or when the starting
    /// sketch, which mirrors the baseline program, does not score as
    /// correct: the conversion is then unsound for this goal, and the
    /// baseline is the answer rather than a search of a broken space.
    fn new(
        machine: &'m Machine,
        sketch: &Sketch,
        baseline: &Program,
        oracle: &mut dyn FnMut(&[u64]) -> Option<Vec<u64>>,
        rules: &'c [EquivRule],
        config: &'c StokeConfig,
    ) -> Option<Chain<'m, 'c>> {
        let mut rng = Rng::new(config.seed);
        let mut vectors: Vec<(Vec<u64>, Vec<u64>)> = Vec::with_capacity(config.vectors);
        for _ in 0..config.vectors.max(1) {
            let inputs: Vec<u64> = (0..sketch.inputs.len())
                .map(|_| random_input(&mut rng))
                .collect();
            let outputs = oracle(&inputs)?;
            vectors.push((inputs, outputs));
        }
        let pool = MovePool::new(machine, rules);
        let scorer = Scorer::for_chain(machine, sketch, rules, &pool);
        let mut chain = Chain {
            machine,
            config,
            rules,
            pool,
            scorer,
            rng,
            vectors,
            cur: sketch.clone(),
            cur_score: Scored::Invalid,
            reached: Vec::new(),
            spare: Cell {
                op: syms().mov,
                args: Vec::new(),
            },
            best_sketch: sketch.clone(),
            since_improve: 0,
            out: StokeOutcome::baseline_only(baseline, true),
        };
        chain.rescore();
        matches!(chain.cur_score, Scored::Correct { .. }).then_some(chain)
    }

    /// Scores `cur` in full and takes the cells it reaches.
    fn rescore(&mut self) {
        self.cur_score = self.scorer.score(&self.cur, &self.vectors);
        self.scorer.reached(&mut self.reached);
    }

    /// Makes proposal `p`: one random move, kept if the Metropolis test
    /// accepts it and undone otherwise.
    fn step(
        &mut self,
        p: u64,
        oracle: &mut dyn FnMut(&[u64]) -> Option<Vec<u64>>,
        tracer: &Tracer,
        on_best: &mut dyn FnMut(&Program, u32),
    ) {
        let Some(undo) = self.draw_move(p) else {
            return;
        };
        match self.decide(&undo) {
            Some(score) => self.accept(p, score, oracle, tracer, on_best),
            None => apply_undo(&mut self.cur, &mut self.spare, undo),
        }
    }

    /// Counts proposal `p` and applies one random move to `cur`;
    /// `None` when the drawn move was a no-op.
    fn draw_move(&mut self, p: u64) -> Option<Undo> {
        self.out.proposals = p;
        self.since_improve += 1;
        propose(
            &mut self.rng,
            &mut self.cur,
            &mut self.spare,
            self.machine,
            &self.pool,
            self.rules,
        )
    }

    /// Decides the proposal `undo` records with the least work that
    /// decides it; returns its score when the Metropolis test accepts
    /// it.
    ///
    /// An edit to a cell no output reaches changes no output and no
    /// placement, so it is settled without scoring: it scores what the
    /// current state scores, or `Invalid` when the new cell has no
    /// semantics. The reached cells stay those of `cur`, since the
    /// edited cell was not one of them. The exception is a current
    /// state that is correct below the best cycles (its verification
    /// failed): accepting the edit verifies it again, which needs the
    /// scorer's placement of the new state, so it is scored in full.
    fn decide(&mut self, undo: &Undo) -> Option<Scored> {
        let edited = undo.cell();
        let below_best = matches!(self.cur_score,
            Scored::Correct { cost } if cost < u64::from(self.out.best_cycles));
        if let Some(i) = edited.filter(|&i| !self.reached[i] && !below_best) {
            self.out.settled += 1;
            return self
                .scorer
                .valid(&self.cur.cells[i])
                .then_some(self.cur_score);
        }
        let trial = self.scorer.trial(
            &self.cur,
            edited,
            &self.vectors,
            self.cur_score.cost(),
            self.config.beta,
            &mut self.rng,
        );
        match trial {
            Trial::Accepted(score) => {
                self.scorer.reached(&mut self.reached);
                Some(score)
            }
            Trial::Rejected => None,
            Trial::Stopped => {
                self.out.stopped += 1;
                None
            }
        }
    }

    /// Moves to the accepted proposal `p` scored `score`, verifies it
    /// if it beats the best, and restarts from the best once no
    /// improvement has come for `restart_after` proposals.
    fn accept(
        &mut self,
        p: u64,
        score: Scored,
        oracle: &mut dyn FnMut(&[u64]) -> Option<Vec<u64>>,
        tracer: &Tracer,
        on_best: &mut dyn FnMut(&Program, u32),
    ) {
        self.out.accepted += 1;
        self.cur_score = score;
        if let Some(cycles) = self.verify_current(p, oracle, on_best) {
            tracer.event("stoke.best", || {
                vec![field("proposal", p), field("cycles", cycles)]
            });
        }
        if self.since_improve >= self.config.restart_after {
            self.cur = self.best_sketch.clone();
            self.rescore();
            self.out.restarts += 1;
            self.since_improve = 0;
        }
    }

    /// Sends `cur` through [`verify`] when it is correct below the best
    /// cycles, from the scorer's placement of it. Returns the cycles of
    /// a verified new best.
    fn verify_current(
        &mut self,
        p: u64,
        oracle: &mut dyn FnMut(&[u64]) -> Option<Vec<u64>>,
        on_best: &mut dyn FnMut(&Program, u32),
    ) -> Option<u32> {
        let Scored::Correct { cost } = self.cur_score else {
            return None;
        };
        let cycles = cost as u32;
        if cycles >= self.out.best_cycles {
            return None;
        }
        self.out.verifications += 1;
        let program = self.scorer.emit(&self.cur);
        match verify(
            self.machine,
            &self.cur,
            &program,
            &self.vectors,
            oracle,
            &mut self.rng,
            self.cur.inputs.len(),
            self.config.verify_vectors,
        ) {
            Verdict::Pass => {
                on_best(&program, cycles);
                self.out.best_program = program;
                self.out.best_cycles = cycles;
                self.out.trajectory.push((p, cycles));
                self.best_sketch = self.cur.clone();
                self.since_improve = 0;
                return Some(cycles);
            }
            Verdict::Widen(inputs, expected) => {
                self.vectors.push((inputs, expected));
                self.out.widenings += 1;
                self.rescore();
            }
            Verdict::Fail => {}
        }
        None
    }
}

#[cfg(test)]
impl Chain<'_, '_> {
    /// [`Chain::step`] as it was before proposals were settled or
    /// stopped: every proposal scored in full, every cell checked, and
    /// the uniform drawn after scoring.
    fn step_in_full(
        &mut self,
        p: u64,
        oracle: &mut dyn FnMut(&[u64]) -> Option<Vec<u64>>,
        tracer: &Tracer,
        on_best: &mut dyn FnMut(&Program, u32),
    ) {
        let Some(undo) = self.draw_move(p) else {
            return;
        };
        let score = self.scorer.score(&self.cur, &self.vectors);
        let cur = self.cur_score.cost();
        if metropolis(score, cur, self.config.beta, || uniform_f64(&mut self.rng)) {
            self.accept(p, score, oracle, tracer, on_best);
        } else {
            apply_undo(&mut self.cur, &mut self.spare, undo);
        }
    }
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
    let Some(mut chain) = Chain::new(machine, sketch, baseline, oracle, rules, config) else {
        return StokeOutcome::baseline_only(baseline, false);
    };
    let baseline_cycles = chain.out.baseline_cycles;
    tracer.event("stoke.start", || {
        vec![
            field("name", sketch.name.clone()),
            field("seed", config.seed),
            field("cells", sketch.cells.len()),
            field("iterations", config.iterations),
            field("baseline_cycles", baseline_cycles),
        ]
    });

    // The greedy rescheduling of the baseline sketch can itself beat
    // the baseline program; treat it as proposal 0's candidate.
    chain.verify_current(0, oracle, on_best);
    for p in 1..=config.iterations {
        if p % 64 == 0 && cancel.is_some_and(CancelToken::is_cancelled) {
            chain.out.cancelled = true;
            break;
        }
        chain.step(p, oracle, tracer, on_best);
    }

    let mut out = chain.out;
    out.improved = out.best_cycles < baseline_cycles;
    tracer.event("stoke.done", || {
        vec![
            field("proposals", out.proposals),
            field("accepted", out.accepted),
            field("restarts", out.restarts),
            field("verifications", out.verifications),
            field("widenings", out.widenings),
            field("settled", out.settled),
            field("stopped", out.stopped),
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

    /// `wide`'s subtraction tree over 8 inputs as a greedy schedule:
    /// seven cells, which pad to a 20-cell sketch.
    fn wide_baseline() -> Program {
        let units = [Unit::U0, Unit::U1, Unit::L0, Unit::L1];
        let sub = |a: u32, b: u32, dest: u32, cycle: u32, unit: Unit| Instr {
            op: sym("subq"),
            operands: vec![Operand::Reg(Reg(a)), Operand::Reg(Reg(b))],
            dest: Some(Reg(dest)),
            cycle,
            unit,
            comment: String::new(),
        };
        Program {
            instrs: vec![
                sub(1, 2, 9, 0, units[0]),
                sub(3, 4, 10, 0, units[1]),
                sub(5, 6, 11, 0, units[2]),
                sub(7, 8, 12, 0, units[3]),
                sub(9, 10, 13, 1, units[0]),
                sub(11, 12, 14, 1, units[1]),
                sub(13, 14, 15, 2, units[0]),
            ],
            inputs: ["a", "b", "c", "d", "e", "f", "g", "h"]
                .iter()
                .zip(1..)
                .map(|(&n, r)| (sym(n), Reg(r)))
                .collect(),
            outputs: vec![(sym("res"), Reg(15))],
            name: "wide".to_owned(),
            reg_reuse: false,
        }
    }

    fn wide_oracle(x: &[u64]) -> Option<Vec<u64>> {
        let s = |a: u64, b: u64| a.wrapping_sub(b);
        Some(vec![s(
            s(s(x[0], x[1]), s(x[2], x[3])),
            s(s(x[4], x[5]), s(x[6], x[7])),
        )])
    }

    /// `program` with one instruction per cycle, in its order: a
    /// baseline the greedy placement of its sketch beats.
    fn serial(mut program: Program) -> Program {
        for (cycle, instr) in (0..).zip(&mut program.instrs) {
            instr.cycle = cycle;
            instr.unit = Unit::U0;
        }
        program
    }

    /// Mined-looking rules for figure2's sketch: one that finds the
    /// 1-cycle `s4addq`, one on padding and one without semantics.
    fn figure2_rules() -> Vec<EquivRule> {
        vec![
            EquivRule {
                cell: 1,
                op: sym("s4addq"),
                args: vec![ValRef::Input(0), ValRef::Imm(1)],
            },
            EquivRule {
                cell: 2,
                op: sym("ldiq"),
                args: vec![ValRef::Imm(300)],
            },
            // No semantics: installing it makes the sketch invalid.
            EquivRule {
                cell: 2,
                op: sym("carry"),
                args: vec![ValRef::Input(0), ValRef::Input(0)],
            },
        ]
    }

    /// Rules for wide's sketch, whose cells after padding are t1 t2 mov
    /// t3 t4 mov t5 t6 mov t7 and ten more movs.
    fn wide_rules() -> Vec<EquivRule> {
        vec![
            EquivRule {
                cell: 2,
                op: sym("ldiq"),
                args: vec![ValRef::Imm(0x1234_5678)],
            },
            EquivRule {
                cell: 3,
                op: sym("addq"),
                args: vec![ValRef::Input(4), ValRef::Imm(7)],
            },
            EquivRule {
                cell: 9,
                op: sym("mulq"),
                args: vec![ValRef::Cell(6), ValRef::Cell(7)],
            },
            // The wrong arity: installing it makes the sketch invalid.
            EquivRule {
                cell: 5,
                op: sym("addq"),
                args: vec![ValRef::Input(0)],
            },
        ]
    }

    // Reference scoring for the differential tests: every cell, live or
    // dead, evaluated through `ops::eval` on every vector, and the
    // liveness walk redone for each latency sum. `Scorer` must agree
    // with it on every sketch.

    fn reference_resolve(sketch: &Sketch, mut v: ValRef) -> ValRef {
        loop {
            match v {
                ValRef::Cell(i) if sketch.cells[i].op == sym("mov") => v = sketch.cells[i].args[0],
                other => return other,
            }
        }
    }

    fn reference_eval(sketch: &Sketch, input_vals: &[u64]) -> Option<Vec<u64>> {
        let mut vals: Vec<u64> = Vec::with_capacity(sketch.cells.len());
        for cell in &sketch.cells {
            let arg = |v: &ValRef| -> u64 {
                match *v {
                    ValRef::Input(i) => input_vals[i],
                    ValRef::Cell(j) => vals[j],
                    ValRef::Imm(k) => k,
                }
            };
            let value = if cell.op == sym("mov") || cell.op == sym("ldiq") {
                arg(&cell.args[0])
            } else {
                let args: Vec<u64> = cell.args.iter().map(arg).collect();
                ops::eval(cell.op, &args)?
            };
            vals.push(value);
        }
        Some(
            sketch
                .outputs
                .iter()
                .map(|(_, v)| match *v {
                    ValRef::Input(i) => input_vals[i],
                    ValRef::Cell(j) => vals[j],
                    ValRef::Imm(k) => k,
                })
                .collect(),
        )
    }

    fn reference_latency_sum(sketch: &Sketch, machine: &Machine) -> u64 {
        let mut live = vec![false; sketch.cells.len()];
        let mut stack: Vec<ValRef> = sketch.outputs.iter().map(|&(_, v)| v).collect();
        while let Some(v) = stack.pop() {
            if let ValRef::Cell(i) = reference_resolve(sketch, v) {
                if !live[i] {
                    live[i] = true;
                    stack.extend(sketch.cells[i].args.iter().copied());
                }
            }
        }
        (0..sketch.cells.len())
            .filter(|&i| live[i])
            .map(|i| {
                machine
                    .info(sketch.cells[i].op)
                    .map(|info| u64::from(info.latency))
                    .unwrap_or(8)
            })
            .sum()
    }

    fn reference_score(
        sketch: &Sketch,
        machine: &Machine,
        vectors: &[(Vec<u64>, Vec<u64>)],
    ) -> Scored {
        let mut wrong_bits: u64 = 0;
        for (inputs, expected) in vectors {
            let Some(actual) = reference_eval(sketch, inputs) else {
                return Scored::Invalid;
            };
            for (a, e) in actual.iter().zip(expected) {
                wrong_bits += u64::from((a ^ e).count_ones());
            }
        }
        if wrong_bits > 0 {
            return Scored::Pending {
                cost: wrong_bits * WRONG_BIT_COST + reference_latency_sum(sketch, machine),
            };
        }
        match sketch.to_program(machine) {
            Some(program) => Scored::Correct {
                cost: u64::from(program.cycles()),
            },
            None => Scored::Pending {
                cost: reference_latency_sum(sketch, machine) + 8,
            },
        }
    }

    fn test_vectors(
        rng: &mut Rng,
        n_inputs: usize,
        oracle: fn(&[u64]) -> Option<Vec<u64>>,
    ) -> Vec<(Vec<u64>, Vec<u64>)> {
        (0..8)
            .map(|_| {
                let inputs: Vec<u64> = (0..n_inputs).map(|_| random_input(rng)).collect();
                let outputs = oracle(&inputs).expect("total oracle");
                (inputs, outputs)
            })
            .collect()
    }

    /// Scores `sketch` with a fresh scorer and checks it against the
    /// reference.
    fn assert_scores_like_reference(
        machine: &Machine,
        sketch: &Sketch,
        vectors: &[(Vec<u64>, Vec<u64>)],
    ) -> Scored {
        let mut scorer = Scorer::new(machine, sketch.cells.iter().map(|c| c.op));
        let scored = scorer.score(sketch, vectors);
        assert_eq!(
            scored,
            reference_score(sketch, machine, vectors),
            "{sketch:?}"
        );
        scored
    }

    /// Walks a Metropolis chain from `sketch` and, at every proposal,
    /// checks the chain's scorer (buffers reused across proposals)
    /// against the reference. Returns how often each kind of score
    /// came up: invalid, pending, correct.
    fn differential_chain(
        machine: &Machine,
        sketch: &Sketch,
        rules: &[EquivRule],
        oracle: fn(&[u64]) -> Option<Vec<u64>>,
        seed: u64,
    ) -> [u64; 3] {
        let mut rng = Rng::new(seed);
        let vectors = test_vectors(&mut rng, sketch.inputs.len(), oracle);
        let pool = MovePool::new(machine, rules);
        let mut scorer = Scorer::for_chain(machine, sketch, rules, &pool);
        let mut cur = sketch.clone();
        let mut spare = Cell {
            op: sym("mov"),
            args: Vec::new(),
        };
        let mut cur_cost = scorer.score(&cur, &vectors).cost();
        let mut seen = [0u64; 3];
        for p in 0..3_000 {
            let Some(undo) = propose(&mut rng, &mut cur, &mut spare, machine, &pool, rules) else {
                continue;
            };
            let scored = scorer.score(&cur, &vectors);
            let reference = reference_score(&cur, machine, &vectors);
            assert_eq!(scored, reference, "seed {seed:#x}, proposal {p}: {cur:?}");
            match scored {
                Scored::Invalid => seen[0] += 1,
                Scored::Pending { .. } => seen[1] += 1,
                Scored::Correct { cost } => {
                    seen[2] += 1;
                    let emitted = scorer.emit(&cur);
                    let fresh = cur.to_program(machine).expect("correct sketches emit");
                    assert_eq!(format!("{emitted:?}"), format!("{fresh:?}"));
                    assert_eq!(u64::from(emitted.cycles()), cost);
                    validate(&emitted, machine).unwrap();
                }
            }
            if metropolis(scored, cur_cost, 0.25, || uniform_f64(&mut rng)) {
                cur_cost = scored.cost();
            } else {
                apply_undo(&mut cur, &mut spare, undo);
            }
        }
        seen
    }

    #[test]
    fn sketch_round_trips_the_baseline() {
        let machine = Machine::ev6();
        let baseline = figure2_baseline();
        let sketch = Sketch::from_program(&baseline, &machine, 48).unwrap();
        assert!(sketch.cells.len() >= 2, "padded sketch keeps real cells");
        // The sketch computes the same function.
        for x in [0u64, 1, 7, u64::MAX] {
            assert_eq!(
                reference_eval(&sketch, &[x]).unwrap(),
                vec![x.wrapping_mul(4) + 1]
            );
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

    #[test]
    fn every_evaluator_fits_the_argument_array() {
        for info in ops::all().filter(|i| i.eval.is_some()) {
            assert!(
                info.arity <= MAX_ARITY,
                "{} takes {}",
                info.name,
                info.arity
            );
        }
    }

    #[test]
    fn chain_scores_match_the_reference_at_every_proposal() {
        let (figure2_rules, wide_rules) = (figure2_rules(), wide_rules());
        let mut seen = [0u64; 3];
        for machine in [Machine::ev6(), Machine::ia64like(), Machine::single_issue()] {
            let figure2 = Sketch::from_program(&figure2_baseline(), &machine, 48).unwrap();
            let wide = Sketch::from_program(&wide_baseline(), &machine, 48).unwrap();
            assert_eq!(wide.cells.len(), 20);
            for seed in [1, 0x5EED_CAFE_D15C_0B01, 0xDEAD_BEEF] {
                for (sketch, rules, oracle) in [
                    (
                        &figure2,
                        &[][..],
                        figure2_oracle as fn(&[u64]) -> Option<Vec<u64>>,
                    ),
                    (&figure2, &figure2_rules[..], figure2_oracle),
                    (&wide, &[][..], wide_oracle),
                    (&wide, &wide_rules[..], wide_oracle),
                ] {
                    let counts = differential_chain(&machine, sketch, rules, oracle, seed);
                    for (total, n) in seen.iter_mut().zip(counts) {
                        *total += n;
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "every kind of score came up: {seen:?}"
        );
    }

    #[test]
    fn a_dead_cell_without_semantics_is_invalid() {
        let machine = Machine::ev6();
        let sketch = Sketch::from_program(&figure2_baseline(), &machine, 48).unwrap();
        let vectors = test_vectors(&mut Rng::new(7), 1, figure2_oracle);
        assert!(matches!(
            assert_scores_like_reference(&machine, &sketch, &vectors),
            Scored::Correct { cost: 2 }
        ));
        // Cell 2 is padding, so none of these is live.
        for dead in [
            Cell {
                op: sym("ldq"),
                args: vec![ValRef::Input(0), ValRef::Imm(0)],
            },
            Cell {
                op: sym("carry"),
                args: vec![ValRef::Input(0), ValRef::Input(0)],
            },
            Cell {
                op: sym("addq"),
                args: vec![ValRef::Input(0)],
            },
        ] {
            let mut broken = sketch.clone();
            broken.cells[2] = dead;
            assert_eq!(
                assert_scores_like_reference(&machine, &broken, &vectors),
                Scored::Invalid
            );
        }
    }

    #[test]
    fn an_output_that_resolves_to_an_immediate_is_pending() {
        let machine = Machine::ev6();
        let sketch = Sketch {
            inputs: vec![(sym("x"), Reg(1))],
            cells: vec![
                Cell {
                    op: sym("mov"),
                    args: vec![ValRef::Imm(5)],
                },
                Cell {
                    op: sym("mov"),
                    args: vec![ValRef::Cell(0)],
                },
            ],
            outputs: vec![(sym("res"), ValRef::Cell(1))],
            name: "five".to_owned(),
        };
        let right = vec![(vec![9], vec![5])];
        let wrong = vec![(vec![9], vec![4])];
        assert_eq!(
            assert_scores_like_reference(&machine, &sketch, &right),
            Scored::Pending { cost: 8 }
        );
        // 4 ^ 5 differs in one bit.
        assert_eq!(
            assert_scores_like_reference(&machine, &sketch, &wrong),
            Scored::Pending { cost: 2 }
        );
        assert!(sketch.to_program(&machine).is_none());
    }

    #[test]
    fn an_unschedulable_cell_is_pending() {
        let machine = Machine::ia64like();
        let cell = |op: &str, args: Vec<ValRef>| Sketch {
            inputs: vec![(sym("x"), Reg(1))],
            cells: vec![Cell { op: sym(op), args }],
            outputs: vec![(sym("res"), ValRef::Cell(0))],
            name: "one".to_owned(),
        };
        let vectors = |f: fn(u64) -> u64| vec![(vec![0x1234], vec![f(0x1234)])];
        // An immediate in the first operand of an ALU op.
        let imm_first = cell("addq", vec![ValRef::Imm(3), ValRef::Input(0)]);
        assert_eq!(
            assert_scores_like_reference(&machine, &imm_first, &vectors(|x| x + 3)),
            Scored::Pending { cost: 1 + 8 }
        );
        // An opcode with semantics that is not an ia64like instruction.
        let alpha_only = cell("extbl", vec![ValRef::Input(0), ValRef::Imm(1)]);
        assert_eq!(
            assert_scores_like_reference(&machine, &alpha_only, &vectors(|x| (x >> 8) & 0xff)),
            Scored::Pending { cost: 8 + 8 }
        );
        // The same cells are schedulable once legal.
        let legal = cell("addq", vec![ValRef::Input(0), ValRef::Imm(3)]);
        assert_eq!(
            assert_scores_like_reference(&machine, &legal, &vectors(|x| x + 3)),
            Scored::Correct { cost: 1 }
        );
        assert!(imm_first.to_program(&machine).is_none());
        assert!(alpha_only.to_program(&machine).is_none());
    }

    #[test]
    fn greedy_placement_of_wide_per_machine() {
        // Earliest cycle, units in table order; on ev6 an operand from
        // the other cluster arrives a cycle late.
        for (machine, cycles) in [
            (Machine::ev6(), 5),
            (Machine::ev6_unclustered(), 3),
            (Machine::ia64like(), 3),
            (Machine::single_issue(), 7),
        ] {
            let sketch = Sketch::from_program(&wide_baseline(), &machine, 48).unwrap();
            let program = sketch.to_program(&machine).unwrap();
            validate(&program, &machine).unwrap();
            assert_eq!(program.cycles(), cycles, "{}", machine.name());
        }
        let machine = Machine::ev6();
        let sketch = Sketch::from_program(&wide_baseline(), &machine, 48).unwrap();
        let placed: Vec<(u32, Unit)> = sketch
            .to_program(&machine)
            .unwrap()
            .instrs
            .iter()
            .map(|i| (i.cycle, i.unit))
            .collect();
        let (u0, u1, l0, l1) = (Unit::U0, Unit::U1, Unit::L0, Unit::L1);
        assert_eq!(
            placed,
            [
                (0, u0),
                (0, u1),
                (0, l0),
                (0, l1),
                (2, u0),
                (2, u1),
                (4, u0)
            ]
        );
    }

    #[test]
    fn a_reused_scorer_places_like_a_fresh_one() {
        let machine = Machine::ev6();
        let x = ValRef::Input(0);
        let cell = |op: &str, args: Vec<ValRef>| Cell { op: sym(op), args };
        let sketch = |cells: Vec<Cell>, outputs: &[usize]| Sketch {
            inputs: vec![(sym("x"), Reg(1))],
            cells,
            outputs: outputs
                .iter()
                .map(|&i| (sym(&format!("r{i}")), ValRef::Cell(i)))
                .collect(),
            name: "reuse".to_owned(),
        };
        // Three independent cells, all placed in cycle 0 ...
        let shallow = sketch(
            vec![
                cell("addq", vec![x, x]),
                cell("addq", vec![x, ValRef::Imm(1)]),
                cell("addq", vec![x, ValRef::Imm(2)]),
            ],
            &[0, 1, 2],
        );
        // ... then a chain behind a 7-cycle multiply, whose later cells
        // must not be placed from what is left of the first placement.
        let deep = sketch(
            vec![
                cell("mulq", vec![x, x]),
                cell("addq", vec![ValRef::Cell(0), x]),
                cell("addq", vec![ValRef::Cell(1), x]),
            ],
            &[2],
        );
        let vectors = |s: &Sketch| vec![(vec![3], reference_eval(s, &[3]).unwrap())];
        let mut scorer = Scorer::new(&machine, [sym("addq"), sym("mulq")]);
        assert_eq!(
            scorer.score(&shallow, &vectors(&shallow)),
            Scored::Correct { cost: 1 }
        );
        let fresh = deep.to_program(&machine).unwrap();
        assert_eq!(
            scorer.score(&deep, &vectors(&deep)),
            Scored::Correct {
                cost: u64::from(fresh.cycles())
            }
        );
        assert_eq!(format!("{:?}", scorer.emit(&deep)), format!("{fresh:?}"));
    }

    /// `oracle`, answering only the first `seeds` inputs it is asked
    /// (the chain's seed vectors) and those inputs again. A fresh
    /// verification vector is almost never one of them, so verification
    /// fails and leaves the chain correct below its best cycles.
    fn seed_only(
        oracle: fn(&[u64]) -> Option<Vec<u64>>,
        seeds: usize,
    ) -> impl FnMut(&[u64]) -> Option<Vec<u64>> {
        let mut answered: Vec<Vec<u64>> = Vec::new();
        move |inputs| {
            if answered.len() < seeds {
                answered.push(inputs.to_vec());
            } else if !answered.iter().any(|a| a == inputs) {
                return None;
            }
            oracle(inputs)
        }
    }

    type Oracle = dyn FnMut(&[u64]) -> Option<Vec<u64>>;

    /// What the lockstep chains came across, summed.
    #[derive(Default, Debug)]
    struct Coverage {
        settled: u64,
        stopped: u64,
        verifications: u64,
        widenings: u64,
        restarts: u64,
        /// Proposals made from a state correct below the best cycles.
        below_best: u64,
    }

    /// Walks [`Chain::step`] beside [`Chain::step_in_full`] and checks,
    /// at every proposal, that both accepted the same proposals, stand
    /// at the same state and score and at the same place in their
    /// random streams, and have verified, widened and restarted alike.
    /// The chains score on `vectors` seed vectors; `only_seeds` makes
    /// their oracle [`seed_only`].
    #[allow(clippy::too_many_arguments)]
    fn lockstep(
        machine: &Machine,
        sketch: &Sketch,
        baseline: &Program,
        rules: &[EquivRule],
        oracle: fn(&[u64]) -> Option<Vec<u64>>,
        (vectors, only_seeds): (usize, bool),
        seed: u64,
        seen: &mut Coverage,
    ) {
        let config = StokeConfig {
            seed,
            iterations: 3_000,
            restart_after: 700,
            vectors,
            ..StokeConfig::default()
        };
        let oracle = || -> Box<Oracle> {
            if only_seeds {
                Box::new(seed_only(oracle, config.vectors))
            } else {
                Box::new(oracle)
            }
        };
        let (mut oracle_a, mut oracle_b) = (oracle(), oracle());
        let start = |oracle: &mut Oracle| {
            let mut chain = Chain::new(machine, sketch, baseline, oracle, rules, &config)
                .expect("the sketch scores as correct");
            chain.verify_current(0, oracle, &mut |_, _| {});
            chain
        };
        let mut a = start(&mut *oracle_a);
        let mut b = start(&mut *oracle_b);
        let tracer = Tracer::disabled();
        let counts = |c: &Chain| {
            let o = &c.out;
            (o.accepted, o.verifications, o.widenings, o.restarts)
        };
        for p in 1..=config.iterations {
            let best = u64::from(b.out.best_cycles);
            seen.below_best += u64::from(matches!(b.cur_score,
                Scored::Correct { cost } if cost < best));
            a.step(p, &mut *oracle_a, &tracer, &mut |_, _| {});
            b.step_in_full(p, &mut *oracle_b, &tracer, &mut |_, _| {});
            let at = format!(
                "{} on {}, {} rules, {vectors} vectors, only seeds {only_seeds}, \
                 seed {seed:#x}, proposal {p}",
                sketch.name,
                machine.name(),
                rules.len(),
            );
            assert_eq!(counts(&a), counts(&b), "{at}");
            assert_eq!(a.cur_score, b.cur_score, "{at}");
            assert_eq!(a.rng.clone().next_u64(), b.rng.clone().next_u64(), "{at}");
            assert_eq!(a.cur, b.cur, "{at}");
        }
        assert_eq!(a.out.trajectory, b.out.trajectory);
        assert_eq!(a.out.best_program.listing(4), b.out.best_program.listing(4));
        assert_eq!((b.out.settled, b.out.stopped), (0, 0));
        seen.settled += a.out.settled;
        seen.stopped += a.out.stopped;
        seen.verifications += a.out.verifications;
        seen.widenings += a.out.widenings;
        seen.restarts += a.out.restarts;
    }

    #[test]
    fn the_chain_steps_like_the_old_loop() {
        let (figure2_rules, wide_rules) = (figure2_rules(), wide_rules());
        let mut seen = Coverage::default();
        for machine in [Machine::ev6(), Machine::ia64like(), Machine::single_issue()] {
            // wide's serial baseline takes 7 cycles, so the greedy
            // placement of its sketch goes to verification at once.
            let wide_baseline = serial(wide_baseline());
            let fixtures = [
                (
                    figure2_baseline(),
                    &figure2_rules,
                    figure2_oracle as fn(&[u64]) -> _,
                ),
                (wide_baseline, &wide_rules, wide_oracle),
            ];
            for (baseline, all_rules, oracle) in &fixtures {
                let sketch = Sketch::from_program(baseline, &machine, 48).unwrap();
                for seed in [1, 0x5EED_CAFE_D15C_0B01, 0xDEAD_BEEF] {
                    for rules in [&[][..], &all_rules[..]] {
                        // One vector lets wrong candidates through to
                        // verification, which widens the vectors.
                        for variant in [(8, false), (8, true), (1, false)] {
                            lockstep(
                                &machine, &sketch, baseline, rules, *oracle, variant, seed,
                                &mut seen,
                            );
                        }
                    }
                }
            }
        }
        eprintln!("{seen:?}");
        assert!(seen.settled > 1_000 && seen.stopped > 1_000, "{seen:?}");
        assert!(seen.verifications > 0 && seen.widenings > 0, "{seen:?}");
        assert!(seen.restarts > 0, "{seen:?}");
        assert!(seen.below_best > 1_000, "{seen:?}");
    }
}
