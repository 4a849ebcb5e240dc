//! Regenerates every experiment of the paper's evaluation and prints
//! paper-versus-measured rows (the source of `EXPERIMENTS.md`).
//!
//! Run with `cargo run --release -p denali-bench --bin report`.
//! Pass experiment ids (`e1 e3 ...`) to run a subset.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use denali_arch::Machine;
use denali_axioms::{axioms_for, math_axioms, saturate, AxiomSet, SaturationLimits};
use denali_baseline::{brute_search, rewrite_compile, BruteConfig};
use denali_bench::{compile_checked, default_denali, egraph_legs, programs};
use denali_core::encode::{encode, Rules};
use denali_core::machine_terms::enumerate_with_misses;
use denali_core::matcher::match_gma;
use denali_core::{Denali, Options, SolverChoice};
use denali_egraph::EGraph;
use denali_lang::{lower_proc, parse_program};
use denali_sat::SolveResult;
use denali_term::Term;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    println!("Denali reproduction — experiment report");
    println!("=======================================\n");
    if want("e1") {
        e1_matching();
    }
    if want("e2") {
        e2_ac_ways();
    }
    if want("e2m") {
        e2_memory();
    }
    if want("e3") {
        e3_byteswap4();
    }
    if want("e4") {
        e4_sat_sizes();
    }
    if want("e5") {
        e5_byteswap5();
    }
    if want("e5s") {
        e5_serve();
    }
    if want("e6") {
        e6_bruteforce();
    }
    if want("e7") {
        e7_checksum();
    }
    if want("e7s") {
        e7s_stochastic();
    }
    if want("e8") {
        e8_extras();
    }
    if want("a1") {
        a1_ablations();
    }
    if want("r1") {
        r1_retargeting();
    }
}

fn header(id: &str, title: &str, paper: &str) {
    println!("--- {id}: {title}");
    println!("    paper: {paper}");
}

/// E1 (Figure 2): matching discovers mul+add, shift+add, and s4addq ways
/// of computing reg6*4 + 1.
fn e1_matching() {
    header(
        "E1",
        "Figure 2 matching walkthrough",
        "E-graph ends with multiply-add, shift-add, and s4addl ways of reg6*4+1",
    );
    let mut eg = EGraph::new();
    let goal = eg
        .add_term(&Term::call(
            "add64",
            vec![
                Term::call("mul64", vec![Term::leaf("reg6"), Term::constant(4)]),
                Term::constant(1),
            ],
        ))
        .unwrap();
    let mul = eg
        .lookup_term(&Term::call(
            "mul64",
            vec![Term::leaf("reg6"), Term::constant(4)],
        ))
        .unwrap();
    let report = saturate(&mut eg, &axioms_for("ev6"), &SaturationLimits::default()).unwrap();
    let goal_ops = denali_axioms::class_ops(&eg, goal);
    let mul_ops = denali_axioms::class_ops(&eg, mul);
    println!(
        "    measured: goal class ops = {goal_ops:?}\n              mul class ops = {mul_ops:?}"
    );
    println!(
        "              pow(2,2) in 4's class: {}",
        eg.lookup_term(&Term::call(
            "pow",
            vec![Term::constant(2), Term::constant(2)]
        ))
        .map(|c| eg.find(c) == eg.find(eg.constant_class(4).unwrap()))
        .unwrap_or(false)
    );
    println!(
        "              ways of computing the goal (depth 6): {}",
        eg.count_ways(goal, 6)
    );
    println!(
        "              e-graph: {} nodes, {} classes, saturated={}\n",
        report.nodes, report.classes, report.saturated
    );
}

/// E2 (§5): a+b+c+d+e has "more than a hundred different ways".
fn e2_ac_ways() {
    header(
        "E2",
        "AC ways of a+b+c+d+e",
        "matcher finds more than a hundred different ways",
    );
    let mut eg = EGraph::new();
    let sum = eg
        .add_term(
            &Term::from_sexpr(
                &denali_term::sexpr::parse_one("(add64 a (add64 b (add64 c (add64 d e))))")
                    .unwrap(),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
    let limits = SaturationLimits {
        max_iterations: 24,
        ..SaturationLimits::default()
    };
    let axioms = AxiomSet::new(math_axioms()).unwrap();
    let t = Instant::now();
    let report = saturate(&mut eg, &axioms, &limits).unwrap();
    let ways = eg.count_ways(sum, 8);
    println!(
        "    measured: {ways} ways (depth 8), {} nodes, {} classes, {:?}\n",
        report.nodes,
        report.classes,
        t.elapsed()
    );
}

/// E2m (not in the paper): arena/SoA storage footprint — bytes per
/// e-graph node under the interned-slice arena, on the saturated
/// benchmark fixtures. The same legs as the `egraph_mem` binary, which
/// writes `BENCH_egraph.json`.
fn e2_memory() {
    header(
        "E2m",
        "e-graph memory footprint (arena/SoA)",
        "(not in the paper) payload bytes per node, child-slice sharing and repair walks",
    );
    println!(
        "    measured: leg         nodes  classes  bytes/node  dedup  table KB  unions  walks   walked"
    );
    for leg in egraph_legs() {
        let (m, c) = (&leg.mem, &leg.counts);
        println!(
            "              {:<10} {:>6} {:>8} {:>11.1} {:>5.2}x {:>9.1} {:>7} {:>6} {:>8}",
            leg.name,
            m.nodes,
            m.classes,
            m.bytes_per_node(),
            m.dedup_ratio(),
            m.class_table_bytes as f64 / 1e3,
            c.unions,
            c.walks,
            c.walked_parents,
        );
    }
    println!();
}

/// E3 (§8, Figure 4): byteswap4 — 5-cycle EV6 program; ~1 minute total
/// with <0.3 s in the SAT solver.
fn e3_byteswap4() {
    header(
        "E3",
        "byteswap4 code generation",
        "5 cycles (optimal to the authors' knowledge); ~1 min total, <0.3 s SAT",
    );
    let denali = default_denali();
    let t = Instant::now();
    let result = compile_checked(
        &denali,
        programs::BYTESWAP4,
        &[("a", 0x11223344)],
        &HashMap::new(),
    );
    let total = t.elapsed();
    let compiled = &result.gmas[0];
    println!(
        "    measured: {} cycles ({}), {} instructions, total {total:.2?}, match {:.2} s, SAT {:.3} s",
        compiled.cycles,
        if compiled.refuted_below {
            "K-1 refuted"
        } else {
            "no refutation"
        },
        compiled.program.len(),
        compiled.match_ms / 1e3,
        compiled.solver_ms() / 1e3,
    );
    println!("{}", indent(&compiled.program.listing(4), 4));
}

/// E4 (§8): SAT problem sizes for byteswap4 across cycle budgets.
fn e4_sat_sizes() {
    header(
        "E4",
        "byteswap4 SAT problem sizes",
        "1639 vars / 4613 clauses at the 4-cycle refutation up to 9203 / 26415 at 8 cycles",
    );
    // The search answers every probe on one live solver, so its probe
    // log reports cumulative sizes, and it starts at the lower bound, so
    // it probes only K=4 and 5. The per-budget table encodes each of the
    // paper's budgets, 4 to 8, standalone and solves it on a fresh
    // solver.
    let denali = default_denali();
    let result = denali
        .compile_source(programs::BYTESWAP4)
        .expect("compiles");
    let compiled = &result.gmas[0];
    let prepared = denali
        .prepare_source(programs::BYTESWAP4)
        .expect("prepares");
    let o = denali.options();
    let gma = &prepared.gmas[0];
    let matched = match_gma(gma, &prepared.axioms, &o.saturation).expect("matches");
    let candidates = enumerate_with_misses(
        &matched,
        &o.machine,
        &gma.inputs(),
        o.load_latency,
        &gma.miss_addrs,
        o.miss_latency,
    )
    .expect("enumerates");
    let rules = Rules::new(&matched, &candidates, &o.machine, &o.encode);
    for k in 4..=8 {
        let encoding = encode(&rules, k);
        let mut solver = encoding.cnf.to_solver();
        let t = Instant::now();
        let satisfiable = solver.solve() == SolveResult::Sat;
        println!(
            "    measured: K={k}: {:6} vars, {:7} clauses -> {}  ({:.1} ms solve)",
            encoding.num_vars(),
            encoding.num_clauses(),
            if satisfiable { "SAT" } else { "UNSAT" },
            t.elapsed().as_secs_f64() * 1e3
        );
    }

    // The search itself: probe order, with learned clauses carried into
    // each probe from its predecessors.
    println!("    live solver (probe order):");
    for p in &compiled.probes {
        let carried = p.solver.map_or(0, |s| s.carried_learned);
        println!(
            "    measured: K={}: -> {:5}  carrying {:4} learned clauses  ({:.1} ms solve)",
            p.k,
            if p.satisfiable { "SAT" } else { "UNSAT" },
            carried,
            p.solve_ms
        );
    }
    println!(
        "    measured: {} learned clauses reused across {} probes",
        compiled.carried_clauses(),
        compiled.probes.len()
    );

    println!();
}

/// E5 (§8): byteswap5 — Denali one cycle better than the C compiler.
fn e5_byteswap5() {
    header(
        "E5",
        "byteswap5 vs conventional compiler",
        "Denali does one cycle better than the production C compiler",
    );
    let denali = default_denali();
    let result = compile_checked(
        &denali,
        programs::BYTESWAP5,
        &[("a", 0x1122334455)],
        &HashMap::new(),
    );
    let ours = &result.gmas[0];

    // The conventional baseline on the same GMA.
    let program = parse_program(programs::BYTESWAP5).unwrap();
    let gma = lower_proc(&program.procs[0]).unwrap().remove(0);
    let machine = Machine::ev6();
    let baseline = rewrite_compile(&gma, &machine).expect("baseline compiles");
    println!(
        "    measured: Denali {} cycles / {} instrs;  rewriting compiler {} cycles / {} instrs  (Δ = {} cycles)",
        ours.cycles,
        ours.program.len(),
        baseline.cycles(),
        baseline.len(),
        baseline.cycles() as i64 - ours.cycles as i64,
    );
    // byteswap4 comparison too (paper: the C compiler *ties* 5 cycles
    // given helpful shift/or input).
    let result4 = denali
        .compile_source(programs::BYTESWAP4)
        .expect("compiles");
    let program4 = parse_program(programs::BYTESWAP4).unwrap();
    let gma4 = lower_proc(&program4.procs[0]).unwrap().remove(0);
    let baseline4 = rewrite_compile(&gma4, &machine).expect("baseline compiles");
    println!(
        "              byteswap4: Denali {} cycles; rewriting compiler {} cycles\n",
        result4.gmas[0].cycles,
        baseline4.cycles(),
    );
}

/// E5s (not in the paper): the serving layer — cold-miss compile vs
/// warm cache hit vs degraded-deadline fallback, over the example GMAs.
fn e5_serve() {
    use denali_serve::{Server, ServerConfig};
    header(
        "E5s",
        "compilation server: cold / warm / degraded",
        "persistent server amortizes the paper's repeated-invocation workload (§1, §6)",
    );
    let config = ServerConfig::default();
    let server = Server::new(config.clone()).unwrap();
    // Degraded requests go to a second server so the first one's warm
    // cache cannot answer them (a hit satisfies any deadline).
    let fallback = Server::new(config).unwrap();
    let compile_line = |source: &str, extra: &str| {
        let mut src = String::new();
        denali_trace::json::write_str(&mut src, source);
        format!(r#"{{"type":"compile","id":"r","source":{src}{extra}}}"#)
    };
    let timed = |server: &Server, line: &str| {
        let t = Instant::now();
        let response = server.handle_line(line).expect("response");
        (response, t.elapsed())
    };
    println!(
        "    measured: program        cold ms   warm ms   degraded ms   warm==cold   cold/warm"
    );
    for (name, source) in [
        ("figure2", programs::FIGURE2),
        ("wordswap32", programs::WORDSWAP32),
        ("lcp2", programs::LCP2),
    ] {
        let line = compile_line(source, "");
        let (cold, cold_t) = timed(&server, &line);
        let (warm, warm_t) = timed(&server, &line);
        let late = compile_line(source, r#","deadline_ms":0"#);
        let (_degraded, degraded_t) = timed(&fallback, &late);
        println!(
            "              {name:<12} {:>8.1}  {:>8.3}  {:>12.3}   {:<10}  {:>8.0}x",
            cold_t.as_secs_f64() * 1e3,
            warm_t.as_secs_f64() * 1e3,
            degraded_t.as_secs_f64() * 1e3,
            cold == warm,
            cold_t.as_secs_f64() / warm_t.as_secs_f64().max(1e-9),
        );
    }
    let snap = server.cache().snapshot();
    println!(
        "              cache: {} hits / {} misses, {} entries, {} bytes resident\n",
        snap.hits, snap.misses, snap.entries, snap.bytes
    );
}

/// E6 (§8): brute-force superoptimizer scaling vs Denali's goal-directed
/// search.
fn e6_bruteforce() {
    header(
        "E6",
        "brute force vs goal-directed search",
        "GNU superoptimizer: 5-instruction sequences OK, longer took days; Denali: 31 instrs in ~4 h",
    );
    // Targets of increasing optimal length.
    type Target = (&'static str, usize, Box<dyn Fn(&[u64]) -> u64>);
    let targets: Vec<Target> = vec![
        ("x+x", 1, Box::new(|i: &[u64]| i[0].wrapping_add(i[0]))),
        ("(x&255)<<8", 2, Box::new(|i: &[u64]| (i[0] & 0xff) << 8)),
        (
            "byte0->3 | byte3->0",
            3,
            Box::new(|i: &[u64]| ((i[0] & 0xff) << 24) | ((i[0] >> 24) & 0xff)),
        ),
        (
            "swap bytes 0,1",
            4,
            Box::new(|i: &[u64]| (i[0] & !0xffffu64) | ((i[0] & 0xff) << 8) | ((i[0] >> 8) & 0xff)),
        ),
    ];
    for (name, hint, target) in &targets {
        let config = BruteConfig {
            max_len: *hint,
            timeout: Duration::from_secs(120),
            ..BruteConfig::default()
        };
        let t = Instant::now();
        let (found, stats) = brute_search(target.as_ref(), 1, &config);
        println!(
            "    measured: brute force {:22} len<={hint}: {} in {:?} ({} sequences, timed_out={})",
            name,
            found
                .map(|p| format!("found {} instrs", p.len()))
                .unwrap_or_else(|| "NOT FOUND".into()),
            t.elapsed(),
            stats.sequences_tested,
            stats.timed_out,
        );
    }
    // Denali on byteswap4 (9 machine instructions) for contrast.
    let denali = default_denali();
    let t = Instant::now();
    let result = denali.compile_source(programs::BYTESWAP4).unwrap();
    println!(
        "    measured: Denali byteswap4 ({} instrs): {:?} — goal-directed search does not enumerate sequences\n",
        result.gmas[0].program.len(),
        t.elapsed()
    );
}

/// E7 (§8, Figures 5-6): the checksum inner loop.
fn e7_checksum() {
    header(
        "E7",
        "checksum inner loop",
        "10 cycles and 31 instructions for the 4x-unrolled pipelined body (~4 h generation)",
    );
    let denali = default_denali();
    let memory: HashMap<u64, u64> = (0..16u64).map(|i| (64 + 8 * i, 0x1111 * (i + 1))).collect();
    let t = Instant::now();
    let result = compile_checked(
        &denali,
        programs::CHECKSUM,
        &[("ptr", 64), ("ptrend", 128)],
        &memory,
    );
    let total = t.elapsed();
    let body = result
        .gmas
        .iter()
        .find(|g| g.gma.name.contains("loop"))
        .expect("loop GMA");
    println!(
        "    measured: unrolled+pipelined loop body: {} cycles, {} instructions (total pipeline {total:.2?})",
        body.cycles,
        body.program.len()
    );
    let serial = compile_checked(
        &denali,
        programs::CHECKSUM_SERIAL,
        &[("ptr", 64), ("ptrend", 128)],
        &memory,
    );
    let serial_body = serial
        .gmas
        .iter()
        .find(|g| g.gma.name.contains("loop"))
        .expect("loop GMA");
    let per4_unrolled = body.cycles as f64 / 4.0;
    let per4_serial = serial_body.cycles as f64;
    println!(
        "              serial body: {} cycles per element vs {:.2} cycles per element unrolled+pipelined ({:.1}x)",
        serial_body.cycles,
        per4_unrolled,
        per4_serial / per4_unrolled
    );
    // Extension: the paper's unimplemented software-pipelining design,
    // mechanized. The natural (non-pipelined) source recovers the
    // hand-pipelined schedule automatically.
    for (label, pipeline) in [
        ("natural source, no pipelining", false),
        ("with automatic pipelining", true),
    ] {
        let denali = Denali::new(Options {
            pipeline_loads: pipeline,
            ..Options::default()
        });
        let result = denali
            .compile_source(programs::CHECKSUM_AUTO)
            .expect("compiles");
        let auto_body = result
            .gmas
            .iter()
            .find(|g| g.gma.guard.is_some())
            .expect("loop body");
        println!(
            "              {label}: {} cycles, {} instructions",
            auto_body.cycles,
            auto_body.program.len()
        );
    }
    println!("{}", indent(&body.program.listing(4), 4));
}

/// E7s (extension, no paper counterpart): the stochastic MCMC second
/// engine on the simulator-supported fixtures, against the greedy
/// rewrite baseline it starts from. The checksum loops of E7 carry
/// guarded memory traffic the chain cannot simulate, so the engine
/// sits those out (`--engine auto` falls back to SAT there); these
/// fixtures pin what it does on its supported fragment.
fn e7s_stochastic() {
    header(
        "E7s",
        "stochastic second engine",
        "(extension) STOKE-style MCMC: verified best vs the greedy baseline",
    );
    let denali = default_denali();
    println!(
        "    {:<20} {:>8} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "gma",
        "baseline",
        "best",
        "proposals",
        "accepted",
        "restarts",
        "verified",
        "widened",
        "improved"
    );
    for source in [
        programs::FIGURE2,
        programs::BYTESWAP4,
        programs::BYTESWAP5,
        programs::DOT4,
        programs::WIDE,
        programs::SEL,
    ] {
        for run in denali.stoke_profile(source).expect("chain profiles") {
            println!(
                "    {:<20} {:>8} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
                run.gma,
                run.baseline_cycles,
                run.best_cycles,
                run.proposals,
                run.accepted,
                run.restarts,
                run.verifications,
                run.widenings,
                run.improved,
            );
        }
    }
    println!();
}

/// E8 (§8): the additional tests — rowop and least common power of 2.
fn e8_extras() {
    header(
        "E8",
        "additional tests (rowop, lcp2)",
        "Denali handles the rowop matrix routine and the least-common-power-of-2 problem",
    );
    let denali = default_denali();
    let memory: HashMap<u64, u64> = (0..16u64).map(|i| (64 + 8 * i, 7 * (i + 1))).collect();
    let rowop = compile_checked(
        &denali,
        programs::ROWOP,
        &[("p", 64), ("q", 128), ("r", 1024), ("c", 3)],
        &memory,
    );
    let body = rowop.main();
    println!(
        "    measured: rowop loop body: {} cycles, {} instructions (mulq latency dominates)",
        body.cycles,
        body.program.len()
    );
    let lcp2 = compile_checked(
        &denali,
        programs::LCP2,
        &[("a", 48), ("b", 80)],
        &HashMap::new(),
    );
    println!(
        "    measured: lcp2: {} cycles, {} instructions",
        lcp2.gmas[0].cycles,
        lcp2.gmas[0].program.len()
    );
    // Solver-substitution check (the paper swapped SAT solvers freely):
    // the DPLL engine answers the same probes, and the winner is decoded
    // the same way, so it must print the CDCL program.
    let dpll = Denali::new(Options {
        solver: SolverChoice::Dpll,
        ..Options::default()
    });
    let via_dpll = dpll.compile_source(programs::LCP2).unwrap();
    let same = via_dpll.gmas[0].program.listing(4) == lcp2.gmas[0].program.listing(4);
    println!(
        "              solver substitution: DPLL engine also finds {} cycles ({})\n",
        via_dpll.gmas[0].cycles,
        if same {
            "same program"
        } else {
            "DIFFERENT program"
        }
    );
}

/// A1: ablations of this reproduction's design choices — the matcher's
/// structural budget (the main "near-optimal" knob) and the machine
/// model's cluster penalty.
fn a1_ablations() {
    header(
        "A1",
        "ablations (not in the paper)",
        "sensitivity of byteswap4 to the matcher budget and the cluster model",
    );
    for growth in [500usize, 1000, 2000, 4000, 8000] {
        let denali = Denali::new(Options {
            saturation: denali_axioms::SaturationLimits {
                max_structural_growth: growth,
                ..denali_axioms::SaturationLimits::default()
            },
            ..Options::default()
        });
        let t = Instant::now();
        match denali.compile_source(programs::BYTESWAP4) {
            Ok(result) => {
                let c = &result.gmas[0];
                println!(
                    "    measured: structural growth {growth:5}: {} cycles, {} instrs, e-graph {} nodes, {:?}",
                    c.cycles,
                    c.program.len(),
                    c.matcher.nodes,
                    t.elapsed()
                );
            }
            Err(e) => println!("    measured: structural growth {growth:5}: FAILED ({e})"),
        }
    }
    for (name, machine) in [
        ("ev6 (clustered)", Machine::ev6()),
        ("ev6-unclustered", Machine::ev6_unclustered()),
        ("single-issue", Machine::single_issue()),
    ] {
        let denali = Denali::new(Options {
            machine,
            ..Options::default()
        });
        let result = denali
            .compile_source(programs::BYTESWAP4)
            .expect("compiles");
        let c = &result.gmas[0];
        println!(
            "    measured: {name:18}: {} cycles, {} instructions",
            c.cycles,
            c.program.len()
        );
    }
    println!();
}

/// R1: retargeting (the paper's in-progress Itanium port: "the changes
/// will mostly be to the axioms").
fn r1_retargeting() {
    header(
        "R1",
        "retargeting to an Itanium-flavored machine (paper §1.1)",
        "porting requires a new machine description and (mostly) new axioms",
    );
    for (name, machine) in [("ev6", Machine::ev6()), ("ia64like", Machine::ia64like())] {
        let denali = Denali::new(Options {
            machine,
            ..Options::default()
        });
        for (label, src) in [
            (
                "figure2 (a*4+b)",
                r"(\procdecl f ((a long) (b long)) long (:= (\res (+ (* a 4) b))))",
            ),
            ("byteswap4", programs::BYTESWAP4),
            ("lcp2", programs::LCP2),
        ] {
            let result = denali.compile_source(src).expect("compiles");
            let c = &result.gmas[0];
            let ops: Vec<&str> = c.program.instrs.iter().map(|i| i.op.as_str()).collect();
            println!(
                "    measured: {name:8} {label:16}: {} cycles, {:2} instrs  ops={ops:?}",
                c.cycles,
                c.program.len()
            );
        }
    }
    println!();
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
