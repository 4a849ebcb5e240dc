#![warn(missing_docs)]

//! Shared fixtures and helpers for the Denali experiment binaries.
//!
//! Each experiment from the paper's evaluation (see `EXPERIMENTS.md`)
//! has its program source here, plus helpers to run the pipeline,
//! validate results against the reference semantics, and produce the
//! paper-versus-measured rows the `report` binary prints.

pub mod programs {
    //! The test programs of the paper's §8 (adapted to this
    //! reproduction's concrete syntax). Those in the pipeline
    //! benchmark's corpus are read from its files, so there is one copy
    //! of each.

    /// Figure 2's walkthrough term as a one-line procedure.
    pub const FIGURE2: &str = "(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))";

    /// Figure 3: the 4-byte swap challenge problem.
    pub const BYTESWAP4: &str = include_str!("../../../pipeline_bench/src/corpus/byteswap4.dnl");

    /// The 5-byte swap (Denali beats the C compiler by one cycle, §8).
    pub const BYTESWAP5: &str = include_str!("../../../pipeline_bench/src/corpus/byteswap5.dnl");

    /// Figure 6: the packet-checksum routine — 4x-unrolled,
    /// software-pipelined by hand with the `v1..v4` temporaries, using
    /// the program-specific `add`/`carry` axioms.
    pub const CHECKSUM: &str = include_str!("../../../pipeline_bench/src/corpus/checksum.dnl");

    /// The checksum with four accumulators but NO hand pipelining — the
    /// input a programmer would naturally write. Compile with
    /// `Options { pipeline_loads: true, .. }` to let the mechanized
    /// Figure 6 transformation recover the hand-pipelined schedule.
    pub const CHECKSUM_AUTO: &str = r"
(\opdecl carry (long long) long)
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) a))))
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) b))))
(\opdecl add (long long) long)
(\axiom (forall (a b) (pats (add a b)) (eq (add a b) (add b a))))
(\axiom (forall (a b)
  (pats (add a b))
  (eq (add a b) (\add64 (\add64 a b) (carry a b)))))
(\procdecl checksum_auto ((ptr long*) (ptrend long*)) long
  (\var (sum1 long 0) (\var (sum2 long 0)
  (\var (sum3 long 0) (\var (sum4 long 0)
  (\do (-> (<u ptr ptrend)
    (\semi
      (:= (sum1 (add sum1 (\deref ptr)))
          (sum2 (add sum2 (\deref (+ ptr 8))))
          (sum3 (add sum3 (\deref (+ ptr 16))))
          (sum4 (add sum4 (\deref (+ ptr 24)))))
      (:= (ptr (+ ptr 32)))))))))))";

    /// A serial (not unrolled, not pipelined) checksum loop body, for
    /// the E7 comparison: what the inner loop costs without the paper's
    /// three techniques.
    pub const CHECKSUM_SERIAL: &str = r"
(\opdecl carry (long long) long)
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) a))))
(\opdecl add (long long) long)
(\axiom (forall (a b)
  (pats (add a b))
  (eq (add a b) (\add64 (\add64 a b) (carry a b)))))
(\procdecl checksum_serial ((ptr long*) (ptrend long*)) long
  (\var (sum long 0)
    (\do (-> (<u ptr ptrend)
      (\semi
        (:= (sum (add sum (\deref ptr))))
        (:= (ptr (+ ptr 8))))))))";

    /// The `rowop` matrix routine mentioned in §8: one element of
    /// `row_p += c * row_q` per iteration.
    pub const ROWOP: &str = include_str!("../../../pipeline_bench/src/corpus/rowop.dnl");

    /// Halfword swap: exchange the two 16-bit fields of a 32-bit value
    /// (a natural sibling of the byte-swap problems, exercising the
    /// inswl/mskwl/extwl field algebra).
    pub const WORDSWAP32: &str = "
(\\procdecl wordswap32 ((a long)) long
  (:= (\\res (\\storew (\\storew 0 0 (\\selectw a 1)) 1 (\\selectw a 0)))))";

    /// The least common power of two of two registers (§8): the largest
    /// power of two dividing both, i.e. the lowest set bit of `a | b`.
    pub const LCP2: &str = include_str!("../../../pipeline_bench/src/corpus/lcp2.dnl");

    /// A 4-term dot product: four multiplies feeding an add tree (the
    /// `pipeline_bench` corpus's `dot4`).
    pub const DOT4: &str = include_str!("../../../pipeline_bench/src/corpus/dot4.dnl");

    /// A balanced subtraction tree over 8 inputs (the `pipeline_bench`
    /// corpus's `wide`).
    pub const WIDE: &str = include_str!("../../../pipeline_bench/src/corpus/wide.dnl");

    /// A mix of and/or/xor/sub over 4 inputs (the `pipeline_bench`
    /// corpus's `sel`).
    pub const SEL: &str = include_str!("../../../pipeline_bench/src/corpus/sel.dnl");
}

use std::collections::HashMap;
use std::time::Instant;

use denali_arch::Simulator;
use denali_axioms::{math_axioms, saturate, AxiomSet, SaturationLimits};
use denali_core::{CompileResult, CompiledGma, Denali, Options};
use denali_egraph::{EGraph, MemoryStats, OpCounts};
use denali_term::value::Env;
use denali_term::{sexpr, Symbol, Term};

/// Compiles a fixture and differentially validates every GMA of it by
/// simulation against the reference semantics on the given inputs.
///
/// # Panics
///
/// Panics on any compilation, simulation, or mismatch failure — these
/// are harness invariants, not measurable outcomes.
pub fn compile_checked(
    denali: &Denali,
    source: &str,
    input_values: &[(&str, u64)],
    memory: &HashMap<u64, u64>,
) -> CompileResult {
    let result = denali.compile_source(source).expect("fixture compiles");
    for compiled in &result.gmas {
        check_compiled(denali, compiled, input_values, memory);
    }
    result
}

/// Differentially validates one compiled GMA on one input valuation.
///
/// # Panics
///
/// Panics on simulation failure or output mismatch.
pub fn check_compiled(
    denali: &Denali,
    compiled: &CompiledGma,
    input_values: &[(&str, u64)],
    memory: &HashMap<u64, u64>,
) {
    let program = &compiled.program;
    let mut env = Env::new();
    // Loop-carried variables and other inputs the caller did not name
    // get deterministic pseudo-random values derived from their names.
    let mut all_inputs: Vec<(String, u64)> = Vec::new();
    for input in compiled.gma.inputs() {
        let name = input.as_str();
        let value = input_values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| {
                name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
                })
            });
        all_inputs.push((name.to_owned(), value));
    }
    for (name, value) in &all_inputs {
        env.set_word(name.as_str(), *value);
    }
    env.set_mem("M", memory.clone());
    // Program-specific ops used by the fixtures.
    env.define_op("add", |a| {
        let s = a[0].wrapping_add(a[1]);
        s.wrapping_add(u64::from(s < a[0]))
    });
    env.define_op("carry", |a| u64::from(a[0].wrapping_add(a[1]) < a[0]));
    let expected = compiled.gma.evaluate(&env).expect("reference evaluates");

    let sim = Simulator::new(&denali.options().machine);
    let needed: Vec<(&str, u64)> = all_inputs
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .filter(|(name, _)| program.input_reg(Symbol::intern(name)).is_some())
        .collect();
    let outcome = sim
        .run_named(program, &needed, memory.clone())
        .expect("program simulates");
    for (name, want) in &expected.assigns {
        let reg = program
            .output_reg(*name)
            .unwrap_or_else(|| panic!("no output register for {name}"));
        assert_eq!(
            outcome.regs[&reg],
            *want,
            "{}: output {name} mismatch\n{}",
            compiled.gma.name,
            program.listing(4)
        );
    }
    if let Some(guard) = expected.guard {
        let reg = program
            .output_reg(Symbol::intern("guard"))
            .expect("guard register");
        assert_eq!(outcome.regs[&reg], guard, "guard mismatch");
    }
    if let Some(mem) = &expected.memory {
        for (addr, want) in mem {
            assert_eq!(
                outcome.memory.get(addr).copied().unwrap_or(0),
                *want,
                "memory[{addr:#x}] mismatch\n{}",
                program.listing(4)
            );
        }
    }
}

/// Default pipeline used by the experiment binaries.
pub fn default_denali() -> Denali {
    Denali::new(Options::default())
}

/// One leg of E2m (`egraph_mem`, `report e2m`): a saturated e-graph,
/// summed over the GMAs of a multi-GMA fixture like checksum.
pub struct EgraphLeg {
    /// The leg's name (`e2_chain` or the fixture's).
    pub name: &'static str,
    /// Memory accounting of the saturated e-graph.
    pub mem: MemoryStats,
    /// Operation counters of the saturated e-graph.
    pub counts: OpCounts,
    /// Wall milliseconds of the matching phase.
    pub wall_ms: f64,
}

/// The E2m legs, in report order: the e2 saturation workhorse, then
/// figure2, byteswap4, byteswap5 and checksum through the default
/// pipeline.
pub fn egraph_legs() -> Vec<EgraphLeg> {
    vec![
        chain_leg(),
        compile_leg("figure2", programs::FIGURE2),
        compile_leg("byteswap4", programs::BYTESWAP4),
        compile_leg("byteswap5", programs::BYTESWAP5),
        compile_leg("checksum", programs::CHECKSUM),
    ]
}

/// Compiles a fixture and sums the saturated e-graph stats over its
/// GMAs.
fn compile_leg(name: &'static str, source: &str) -> EgraphLeg {
    let result = default_denali()
        .compile_source(source)
        .expect("fixture compiles");
    let mut leg = EgraphLeg {
        name,
        mem: MemoryStats::default(),
        counts: OpCounts::default(),
        wall_ms: 0.0,
    };
    for gma in &result.gmas {
        leg.mem = add_memory(leg.mem, gma.egraph_memory);
        leg.counts = add_counts(leg.counts, gma.egraph_counts);
        leg.wall_ms += gma.match_ms;
    }
    leg
}

/// The e2 saturation workhorse (a+b+c+d+e under the math axioms),
/// saturated directly at the e-graph level with up to 24 rounds.
fn chain_leg() -> EgraphLeg {
    let term = Term::from_sexpr(
        &sexpr::parse_one("(add64 a (add64 b (add64 c (add64 d e))))").unwrap(),
        &[],
    )
    .unwrap();
    let limits = SaturationLimits {
        max_iterations: 24,
        ..SaturationLimits::default()
    };
    let axioms = AxiomSet::new(math_axioms()).unwrap();
    let mut eg = EGraph::new();
    eg.add_term(&term).unwrap();
    let start = Instant::now();
    saturate(&mut eg, &axioms, &limits).unwrap();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    EgraphLeg {
        name: "e2_chain",
        mem: eg.memory_stats(),
        counts: eg.op_counts(),
        wall_ms,
    }
}

fn add_memory(a: MemoryStats, b: MemoryStats) -> MemoryStats {
    MemoryStats {
        nodes: a.nodes + b.nodes,
        classes: a.classes + b.classes,
        arena_bytes: a.arena_bytes + b.arena_bytes,
        slice_bytes: a.slice_bytes + b.slice_bytes,
        slice_entries: a.slice_entries + b.slice_entries,
        slice_refs: a.slice_refs + b.slice_refs,
        class_bytes: a.class_bytes + b.class_bytes,
        memo_bytes: a.memo_bytes + b.memo_bytes,
        total_bytes: a.total_bytes + b.total_bytes,
        class_table_bytes: a.class_table_bytes + b.class_table_bytes,
    }
}

fn add_counts(a: OpCounts, b: OpCounts) -> OpCounts {
    OpCounts {
        adds: a.adds + b.adds,
        hits: a.hits + b.hits,
        new_nodes: a.new_nodes + b.new_nodes,
        unions: a.unions + b.unions,
        congruence_unions: a.congruence_unions + b.congruence_unions,
        folds: a.folds + b.folds,
        rebuilds: a.rebuilds + b.rebuilds,
        walks: a.walks + b.walks,
        walked_parents: a.walked_parents + b.walked_parents,
    }
}
