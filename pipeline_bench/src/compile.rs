//! The compile workloads (`match-heavy`, `search-heavy`, `stochastic`)
//! and the layer-by-layer decomposition every traced run uses.

use std::hint::black_box;
use std::time::{Duration, Instant};

use denali_core::machine_terms::enumerate_with_misses;
use denali_core::matcher::{match_gma, Matched};
use denali_core::search::{search, SearchParams};
use denali_core::{CompileResult, Denali, EngineChoice};
use denali_trace::{field, Tracer};

use crate::check::check_program;
use crate::corpus::{Fixture, FIGURE2};
use crate::metrics::{Outcome, Values};
use crate::serve::{self, compile_line, Harness, Request};
use crate::speed::Speedometer;
use crate::stats::{geomean, median, percentile, Rng};
use crate::{options, peak_rss_mb, salt, timed_setup, DRAIN};

/// A closed-loop compile workload: one thread compiles the fixtures
/// back to back, each pass in a seeded order.
pub struct Spec {
    pub fixtures: &'static [Fixture],
    pub engine: EngineChoice,
}

const ORDER_TAG: u64 = 0x200;

struct Setup {
    denali: Denali,
    sources: Vec<String>,
}

/// Salts the procedure names, readies the pipeline, checks every input
/// parses and lowers, and compiles Figure 2 once to warm up.
fn set_up(spec: &Spec, seed: u64) -> Result<Setup, String> {
    let salt = salt(seed);
    let denali = Denali::new(options(spec.engine));
    let sources: Vec<String> = spec.fixtures.iter().map(|f| f.salted(&salt)).collect();
    for source in &sources {
        denali.prepare_source(source).map_err(|e| e.to_string())?;
    }
    denali
        .compile_source(&FIGURE2.salted(&salt))
        .map_err(|e| format!("warm-up compile: {e}"))?;
    Ok(Setup { denali, sources })
}

fn program_text(result: &CompileResult) -> String {
    result
        .gmas
        .iter()
        .map(|g| format!("{:?}", g.program))
        .collect()
}

/// Every GMA of `result` passes the check, and the programs are the
/// same bytes as the first compile of the same fixture.
fn verify(
    denali: &Denali,
    result: &CompileResult,
    first: Option<&CompileResult>,
    seed: u64,
) -> Result<(), String> {
    let machine = &denali.options().machine;
    for gma in &result.gmas {
        check_program(machine, &gma.gma, &gma.program, seed)?;
    }
    match first {
        Some(first) if program_text(first) != program_text(result) => Err(format!(
            "{}: program changed between passes",
            result.gmas[0].gma.name
        )),
        _ => Ok(()),
    }
}

/// Cycles, instructions and the number of GMAs known to be optimal.
pub(crate) fn quality(results: &[CompileResult], sat: Option<&[CompileResult]>, out: &mut Outcome) {
    let gmas = || results.iter().flat_map(|r| &r.gmas);
    let mut optimal = 0;
    match sat {
        None => optimal = gmas().filter(|g| g.refuted_below).count(),
        Some(sat) => {
            for (g, s) in gmas().zip(sat.iter().flat_map(|r| &r.gmas)) {
                if s.refuted_below && g.cycles < s.cycles {
                    out.problem(format!("{}: stochastic beat a proven optimum", g.gma.name));
                }
                optimal += usize::from(s.refuted_below && g.cycles == s.cycles);
            }
        }
    }
    out.set("cycles_total", gmas().map(|g| f64::from(g.cycles)).sum());
    out.set(
        "instructions_total",
        gmas().map(|g| g.program.len() as f64).sum(),
    );
    out.set(
        "optimal_share",
        optimal as f64 / gmas().count().max(1) as f64,
    );
}

/// SAT-engine compiles of the same sources: the optimum the stochastic
/// engine's output is compared with.
fn sat_reference(sources: &[String], seed: u64, out: &mut Outcome) -> Vec<CompileResult> {
    let denali = Denali::new(options(EngineChoice::Sat));
    let mut results = Vec::new();
    for source in sources {
        match denali.compile_source(source) {
            Ok(result) => {
                if let Err(e) = verify(&denali, &result, None, seed) {
                    out.problem(format!("SAT reference: {e}"));
                }
                results.push(result);
            }
            Err(e) => out.problem(format!("SAT reference: {e}")),
        }
    }
    results
}

/// The timing metrics of a compile workload from each fixture's compile
/// times. Every latency is a fixture's median: the corpus is fixed and
/// each compile deterministic, so the spread of one fixture's times is
/// the host's, while the spread across fixtures is the workload's.
fn timing_metrics(times: &[Vec<f64>]) -> [(&'static str, f64); 4] {
    let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    [
        ("compile_ms_geomean", geomean(&medians)),
        ("latency_p50_ms", percentile(&medians, 0.5)),
        ("latency_p95_ms", percentile(&medians, 0.95)),
        (
            "throughput_rps",
            medians.len() as f64 / (medians.iter().sum::<f64>() / 1e3),
        ),
    ]
}

/// The untraced run: compile every fixture once per pass, in a seeded
/// order, until `seconds` have passed, checking every result.
pub fn run(spec: &Spec, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut meter = Speedometer::new();
    let (setup, setup_s) = timed_setup(&mut meter, &mut out.notes, || set_up(spec, seed))?;
    let n = spec.fixtures.len();
    // Per fixture: milliseconds at the reference speed, and wall time.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut wall: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut first: Vec<Option<CompileResult>> = vec![None; n];
    let mut order: Vec<usize> = (0..n).collect();
    let deadline = Instant::now() + seconds;
    for pass in 0.. {
        Rng::stream(seed, ORDER_TAG + pass).shuffle(&mut order);
        for &i in &order {
            let timed = meter.time(|| setup.denali.compile_source(black_box(&setup.sources[i])));
            times[i].push(timed.ms);
            wall[i].push(timed.wall_ms);
            out.attempt(match timed.value {
                Ok(result) => {
                    let verdict = verify(&setup.denali, &result, first[i].as_ref(), seed);
                    first[i].get_or_insert(result);
                    verdict
                }
                Err(e) => Err(format!("{}: {e}", spec.fixtures[i].name)),
            });
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if first.iter().any(Option::is_none) {
        out.problem("a fixture never compiled".to_owned());
        return Ok(out);
    }
    let results: Vec<CompileResult> = first.into_iter().flatten().collect();
    let sat = (spec.engine == EngineChoice::Stochastic)
        .then(|| sat_reference(&setup.sources, seed, &mut out));
    quality(&results, sat.as_deref(), &mut out);

    out.set("setup_s", setup_s);
    for (name, value) in timing_metrics(&times) {
        out.set(name, value);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    let scaled: f64 = times.iter().flatten().sum();
    out.notes.push(format!(
        "host at {:.3}x the reference speed over the compiles; in wall time:{}",
        scaled / wall.iter().flatten().sum::<f64>(),
        timing_metrics(&wall)
            .iter()
            .map(|(name, value)| format!(" {name} {value:.4}"))
            .collect::<String>()
    ));
    for (((fixture, t), w), result) in spec.fixtures.iter().zip(&times).zip(&wall).zip(&results) {
        let cycles: u32 = result.gmas.iter().map(|g| g.cycles).sum();
        out.notes.push(format!(
            "{:<14} median {:>10.3} ms ({:>10.3} ms wall) over {:>4} compiles, {cycles} cycles",
            fixture.name,
            median(t),
            median(w),
            t.len()
        ));
    }
    Ok(out)
}

/// Layer times and counts of one traced pass, summed over its fixtures.
#[derive(Default)]
struct Layers {
    /// `compile_source` wall time of the workload's own engine.
    compile_ms: f64,
    /// Wall time of the layer-by-layer calls on the same fixtures.
    decomposed_ms: f64,
    prepare_ms: f64,
    serve_prepare_ms: f64,
    match_ms: f64,
    enumerate_ms: f64,
    search_ms: f64,
    baseline_ms: f64,
    stoke_ms: f64,
    gmas: u64,
    rounds: u64,
    instances: u64,
    scanned: u64,
    skipped: u64,
    saturated: u64,
    nodes: u64,
    classes: u64,
    bytes_max: u64,
    candidates: u64,
    probes: u64,
    unsat_probes: u64,
    vars_max: u64,
    clauses_max: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    solve_ms_reported: f64,
    encode_ms_reported: f64,
    chains: u64,
    proposals: u64,
    accepted: u64,
    improved: u64,
    emitted_cycles: u64,
    sat_cycles: u64,
}

impl Layers {
    /// Counts one GMA's matching work and e-graph.
    fn count_match(&mut self, matched: &Matched) {
        let report = &matched.report;
        let memory = matched.egraph.memory_stats();
        self.gmas += 1;
        self.rounds += report.rounds.len() as u64;
        self.instances += report.instances as u64;
        self.scanned += report.scanned_candidates as u64;
        self.skipped += report.skipped_candidates as u64;
        self.saturated += u64::from(report.saturated);
        self.nodes += memory.nodes;
        self.classes += memory.classes;
        self.bytes_max = self.bytes_max.max(memory.total_bytes);
    }

    /// Adds another fixture's layers of the same engine.
    fn add(&mut self, o: &Layers) {
        self.compile_ms += o.compile_ms;
        self.decomposed_ms += o.decomposed_ms;
        self.prepare_ms += o.prepare_ms;
        self.serve_prepare_ms += o.serve_prepare_ms;
        self.match_ms += o.match_ms;
        self.baseline_ms += o.baseline_ms;
        self.stoke_ms += o.stoke_ms;
        self.gmas += o.gmas;
        self.rounds += o.rounds;
        self.instances += o.instances;
        self.scanned += o.scanned;
        self.skipped += o.skipped;
        self.saturated += o.saturated;
        self.nodes += o.nodes;
        self.classes += o.classes;
        self.bytes_max = self.bytes_max.max(o.bytes_max);
        self.chains += o.chains;
        self.proposals += o.proposals;
        self.accepted += o.accepted;
        self.improved += o.improved;
        self.emitted_cycles += o.emitted_cycles;
        self.add_search(o);
    }

    /// Adds the enumerate/search/SAT part of `o` only: how the
    /// stochastic workload takes its SAT reference.
    fn add_search(&mut self, o: &Layers) {
        self.enumerate_ms += o.enumerate_ms;
        self.search_ms += o.search_ms;
        self.candidates += o.candidates;
        self.probes += o.probes;
        self.unsat_probes += o.unsat_probes;
        self.vars_max = self.vars_max.max(o.vars_max);
        self.clauses_max = self.clauses_max.max(o.clauses_max);
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.solve_ms_reported += o.solve_ms_reported;
        self.encode_ms_reported += o.encode_ms_reported;
        self.sat_cycles += o.sat_cycles;
    }

    fn values(&self, engine: EngineChoice) -> Values {
        let share = |ms: f64| ms / self.compile_ms;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let sat_path = engine != EngineChoice::Stochastic;
        let own_layers = self.prepare_ms
            + self.match_ms
            + self.baseline_ms
            + self.stoke_ms
            + if sat_path {
                self.enumerate_ms + self.search_ms
            } else {
                0.0
            };
        Values::from([
            ("lang.prepare_ms", self.prepare_ms),
            ("serve.prepare_ms", self.serve_prepare_ms),
            ("match.ms", self.match_ms),
            ("match.share", share(self.match_ms)),
            ("match.rounds", self.rounds as f64),
            ("match.instances", self.instances as f64),
            ("match.scanned", self.scanned as f64),
            (
                "match.skip_ratio",
                ratio(self.skipped, self.scanned + self.skipped),
            ),
            ("match.saturated_share", ratio(self.saturated, self.gmas)),
            ("egraph.nodes", self.nodes as f64),
            ("egraph.classes", self.classes as f64),
            ("egraph.bytes", self.bytes_max as f64),
            ("enumerate.ms", self.enumerate_ms),
            ("enumerate.candidates", self.candidates as f64),
            ("search.ms", self.search_ms),
            (
                "search.share",
                if sat_path { share(self.search_ms) } else { 0.0 },
            ),
            ("search.probes", self.probes as f64),
            ("search.unsat_probes", self.unsat_probes as f64),
            ("sat.vars_max", self.vars_max as f64),
            ("sat.clauses_max", self.clauses_max as f64),
            ("sat.conflicts", self.conflicts as f64),
            ("sat.decisions", self.decisions as f64),
            ("sat.propagations", self.propagations as f64),
            ("sat.solve_ms_reported", self.solve_ms_reported),
            ("sat.encode_ms_reported", self.encode_ms_reported),
            ("baseline.share", share(self.baseline_ms)),
            ("stoke.share", share(self.stoke_ms)),
            ("stoke.proposals", self.proposals as f64),
            ("stoke.accept_ratio", ratio(self.accepted, self.proposals)),
            ("stoke.improved_share", ratio(self.improved, self.chains)),
            (
                "stoke.cycles_over_sat",
                ratio(self.emitted_cycles, self.sat_cycles),
            ),
            ("bench.layer_coverage", share(own_layers)),
            (
                "bench.trace_overhead_share",
                share(self.decomposed_ms) - 1.0,
            ),
        ])
    }
}

/// The SAT pipeline of one fixture, one layer at a time, each call
/// inside its own `bench.*` span; the programs assembled from the
/// separate calls must be byte-identical to `compile_source`'s.
fn decompose_sat(
    denali: &Denali,
    source: &str,
    tracer: &Tracer,
) -> Result<(Layers, CompileResult), String> {
    let mut l = Layers::default();
    let span = tracer.span("bench.compile");
    let reference = denali.compile_source(source);
    l.compile_ms = span.finish();
    let reference = reference.map_err(|e| e.to_string())?;

    let decomposed = tracer.span("bench.layers");
    let span = tracer.span("bench.prepare");
    let prepared = denali.prepare_source(source);
    l.prepare_ms = span.finish();
    let prepared = prepared.map_err(|e| e.to_string())?;
    let o = denali.options();
    let params = SearchParams {
        solver: o.solver,
        max_cycles: o.max_cycles,
        threads: o.threads,
        incremental: o.incremental,
        dump: None,
        portfolio: o.portfolio,
        cancel: None,
    };
    for (gma, want) in prepared.gmas.iter().zip(&reference.gmas) {
        // Named like the pipeline's own per-GMA span, so that
        // `denali trace-report` sums the layer spans under it.
        let gma_span = tracer.span_fields("gma", vec![field("name", gma.name.clone())]);
        let span = tracer.span("bench.match");
        let matched = match_gma(gma, &prepared.axioms, &o.saturation);
        l.match_ms += span.finish();
        let matched = matched.map_err(|e| format!("{}: match: {e}", gma.name))?;
        let span = tracer.span("bench.enumerate");
        let candidates = enumerate_with_misses(
            &matched,
            &o.machine,
            &gma.inputs(),
            o.load_latency,
            &gma.miss_addrs,
            o.miss_latency,
        );
        l.enumerate_ms += span.finish();
        let candidates =
            candidates.map_err(|e| format!("{}: enumerate: {}", gma.name, e.message))?;
        let span = tracer.span("bench.search");
        let outcome = search(gma, &matched, &candidates, &o.machine, &o.encode, &params);
        l.search_ms += span.finish();
        gma_span.finish();
        let outcome = outcome.map_err(|e| format!("{}: search: {e}", gma.name))?;
        if format!("{:?}", outcome.program) != format!("{:?}", want.program) {
            return Err(format!(
                "{}: the layer-by-layer program differs from compile_source's",
                gma.name
            ));
        }

        l.count_match(&matched);
        l.candidates += candidates.list.len() as u64;
        for probe in &outcome.probes {
            l.probes += 1;
            l.unsat_probes += u64::from(!probe.satisfiable);
            l.vars_max = l.vars_max.max(probe.vars as u64);
            l.clauses_max = l.clauses_max.max(probe.clauses as u64);
            l.solve_ms_reported += probe.solve_ms;
            l.encode_ms_reported += probe.encode_ms;
            if let Some(s) = &probe.solver {
                l.conflicts += s.conflicts;
                l.decisions += s.decisions;
                l.propagations += s.propagations;
            }
        }
        l.emitted_cycles += u64::from(outcome.cycles);
        l.sat_cycles += u64::from(outcome.cycles);
    }
    l.decomposed_ms = decomposed.finish();
    l.serve_prepare_ms = serve_prepare(denali, source, tracer);
    Ok((l, reference))
}

/// What the server's reader thread does per request before a worker
/// sees it: prepare and fingerprint.
fn serve_prepare(denali: &Denali, source: &str, tracer: &Tracer) -> f64 {
    let span = tracer.span("bench.serve_prepare");
    let fingerprint = denali
        .prepare_source(source)
        .map(|p| denali.fingerprint(&p));
    black_box(fingerprint.ok());
    span.finish()
}

/// The stochastic pipeline of one fixture. Its chain entry point is
/// private to `denali-core`, so the chain is timed through
/// [`Denali::stoke_profile`] (which reruns preparation, matching and the
/// baseline) and `stoke` is that time minus the separately timed calls.
fn decompose_stochastic(
    denali: &Denali,
    source: &str,
    tracer: &Tracer,
) -> Result<(Layers, CompileResult), String> {
    let mut l = Layers::default();
    let span = tracer.span("bench.compile");
    let reference = denali.compile_source(source);
    l.compile_ms = span.finish();
    let reference = reference.map_err(|e| e.to_string())?;

    let decomposed = tracer.span("bench.layers");
    let span = tracer.span("bench.prepare");
    let prepared = denali.prepare_source(source);
    l.prepare_ms = span.finish();
    let prepared = prepared.map_err(|e| e.to_string())?;
    let o = denali.options();
    for gma in &prepared.gmas {
        let gma_span = tracer.span_fields("gma", vec![field("name", gma.name.clone())]);
        let span = tracer.span("bench.match");
        let matched = match_gma(gma, &prepared.axioms, &o.saturation);
        l.match_ms += span.finish();
        let matched = matched.map_err(|e| format!("{}: match: {e}", gma.name))?;
        let span = tracer.span("bench.baseline");
        let baseline = denali_baseline::rewrite_compile(gma, &o.machine);
        l.baseline_ms += span.finish();
        gma_span.finish();
        baseline.map_err(|e| format!("{}: baseline: {e}", gma.name))?;
        l.count_match(&matched);
    }
    let span = tracer.span("bench.stoke_profile");
    let runs = denali.stoke_profile(source);
    let profile_ms = span.finish();
    let runs = runs.map_err(|e| e.to_string())?;
    l.stoke_ms = (profile_ms - l.prepare_ms - l.match_ms - l.baseline_ms).max(0.0);
    l.decomposed_ms = decomposed.finish();
    for run in &runs {
        let emitted = reference.gmas.iter().find(|g| g.gma.name == run.gma);
        if emitted.map(|g| g.cycles) != Some(run.best_cycles) {
            return Err(format!(
                "{}: stoke_profile and compile_source disagree",
                run.gma
            ));
        }
        l.chains += 1;
        l.proposals += run.proposals;
        l.accepted += run.accepted;
        l.improved += u64::from(run.improved);
    }
    l.emitted_cycles = reference.gmas.iter().map(|g| u64::from(g.cycles)).sum();
    l.serve_prepare_ms = serve_prepare(denali, source, tracer);
    Ok((l, reference))
}

/// Traced passes over `sources` until `seconds` have passed (at least
/// one). Per-layer values are the median over passes; returns the first
/// pass's `compile_source` results.
pub fn traced_passes(
    engine: EngineChoice,
    sources: &[String],
    seed: u64,
    seconds: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<CompileResult> {
    let denali = Denali::new(options(engine));
    let sat = Denali::new(options(EngineChoice::Sat));
    let mut passes: Vec<Values> = Vec::new();
    let mut references: Vec<Option<CompileResult>> = vec![None; sources.len()];
    let mut order: Vec<usize> = (0..sources.len()).collect();
    let deadline = Instant::now() + seconds;
    for pass in 0u64.. {
        let pass_span = tracer.span_fields("bench.pass", vec![field("pass", pass)]);
        Rng::stream(seed, ORDER_TAG + pass).shuffle(&mut order);
        let mut layers = Layers::default();
        for &i in &order {
            let span = tracer.span_fields("bench.fixture", vec![field("source", i)]);
            let result = if engine == EngineChoice::Stochastic {
                decompose_stochastic(&denali, &sources[i], tracer).and_then(|(own, reference)| {
                    let (sat_layers, _) = decompose_sat(&sat, &sources[i], tracer)?;
                    layers.add(&own);
                    layers.add_search(&sat_layers);
                    Ok(reference)
                })
            } else {
                decompose_sat(&denali, &sources[i], tracer).map(|(own, reference)| {
                    layers.add(&own);
                    reference
                })
            };
            span.finish();
            out.attempt(result.and_then(|reference| {
                let verdict = verify(&denali, &reference, references[i].as_ref(), seed);
                references[i].get_or_insert(reference);
                verdict
            }));
        }
        pass_span.finish();
        passes.push(layers.values(engine));
        if Instant::now() >= deadline {
            break;
        }
    }
    for (name, _) in passes[0].iter() {
        let values: Vec<f64> = passes.iter().map(|p| p[name]).collect();
        out.set(name, median(&values));
    }
    out.notes.push(format!("{} traced passes", passes.len()));
    references.into_iter().flatten().collect()
}

/// The traced run of a compile workload: the layer-by-layer passes, then
/// the serve layer on the same programs (each sent twice at one instant,
/// so the second copy coalesces onto the first).
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: Duration,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let setup = set_up(spec, seed)?;
    let mut out = Outcome::default();
    let references = traced_passes(spec.engine, &setup.sources, seed, seconds, tracer, &mut out);
    if references.len() != setup.sources.len() {
        out.problem("a fixture failed its traced pass".to_owned());
        return Ok(out);
    }

    let harness = Harness::start(options(spec.engine)).map_err(|e| format!("server start: {e}"))?;
    let requests: Vec<Request> = (0..setup.sources.len() as u64 * 2)
        .map(|id| Request {
            at: Duration::ZERO,
            id,
            line: compile_line(id, &setup.sources[id as usize / 2]),
        })
        .collect();
    let before = harness.snapshot();
    let phase = serve::run_phase(&harness.client, &requests, serve::Pace::Open, DRAIN);
    let after = harness.snapshot();
    drop(harness);
    let phase = phase.map_err(|e| format!("serve phase: {e}"))?;
    for (i, reply) in phase.replies.iter().enumerate() {
        let want = &references[i / 2];
        out.attempt(match reply.body.as_deref().map(serve::parse_response) {
            Some(Ok(served))
                if served.len() == want.gmas.len()
                    && served.iter().zip(&want.gmas).all(|(s, w)| {
                        s.name == w.gma.name
                            && s.cycles == u64::from(w.cycles)
                            && s.instructions == w.program.len() as u64
                    }) =>
            {
                Ok(())
            }
            Some(Ok(_)) => Err(format!(
                "request {i}: served program differs from compile_source's"
            )),
            Some(Err(e)) => Err(format!("request {i}: {e:?}")),
            None => Err(format!("request {i}: no response")),
        });
    }
    serve::layer_metrics(&before, &after, &phase.replies, &mut out);
    Ok(out)
}
