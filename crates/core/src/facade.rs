//! The end-to-end Denali pipeline.

use std::fmt;
use std::sync::Arc;

use denali_arch::Machine;
use denali_axioms::{Axiom, AxiomSet, SaturationLimits, SaturationReport};
use denali_lang::{lower_proc, parse_program, Gma, SourceProgram};
use denali_par::CancelToken;

use denali_trace::{field, Span, Tracer};

use crate::encode::EncodeOptions;
use crate::engine::{env_engine, AnytimeSlot, EngineChoice, StokeKnobs};
use crate::matcher::{match_gma_traced, Matched};
use crate::search::{search_traced, ProbeStats, SearchOutcome, SearchParams};

pub use crate::search::SolverChoice;

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// Target machine description.
    pub machine: Machine,
    /// Matcher budgets.
    pub saturation: SaturationLimits,
    /// Encoding behaviors (§7).
    pub encode: EncodeOptions,
    /// SAT engine answering the search's probes. Either engine prints
    /// the same program: the winner is always decoded by one canonical
    /// CDCL re-solve.
    pub solver: SolverChoice,
    /// Give up if no schedule exists within this many cycles.
    pub max_cycles: u32,
    /// Extra axioms applied to every GMA (beyond the built-ins and the
    /// program's own axioms).
    pub extra_axioms: Vec<Axiom>,
    /// Override the default load latency (the paper's memory-latency
    /// annotations from profiling).
    pub load_latency: Option<u32>,
    /// Latency charged to loads annotated `\derefm` (likely cache
    /// misses).
    pub miss_latency: u32,
    /// If set, the standalone formula of every probed budget is written
    /// to this directory in DIMACS format (`<gma>_k<K>.cnf`), for
    /// comparison with external solvers.
    pub dump_dimacs: Option<std::path::PathBuf>,
    /// Automatically software-pipeline loop loads (the Figure 6 hand
    /// transformation, mechanized; the paper's unimplemented design).
    pub pipeline_loads: bool,
    /// An execution hint with no effect: the pipeline is serial.
    /// Kept so existing callers still build; never part of the
    /// compilation fingerprint.
    pub threads: usize,
    /// An execution hint with no effect: every search answers its
    /// probes on one live encoding, whichever solver backs it. Kept so
    /// existing callers still build; never part of the compilation
    /// fingerprint.
    pub incremental: bool,
    /// An execution hint with no effect: SAT probes are never raced.
    /// Kept so existing callers still build; never part of the
    /// compilation fingerprint.
    pub portfolio: usize,
    /// Collect a structured trace of the pipeline (hierarchical spans
    /// and events; see `docs/TRACING.md`). Tracing never perturbs
    /// results — it only records them — and disabled tracing costs one
    /// pointer check per instrumentation point. Defaults to the
    /// `DENALI_TRACE` environment variable, else off.
    pub trace: bool,
    /// External cancellation (request deadlines, server shutdown).
    /// When the token is raised, the pipeline stops at the next phase
    /// boundary — or mid-probe inside the SAT search — and reports a
    /// [`CompileError`] whose [`CompileError::is_cancelled`] is true.
    /// Never part of the compilation fingerprint.
    pub cancel: Option<CancelToken>,
    /// Which optimizer answers compiles: the SAT search (`sat`, the
    /// default), the stochastic MCMC engine (`stochastic`), or SAT
    /// with a stochastic anytime prepass and budget-exhaustion
    /// fallback (`auto`). Output-affecting, so part of the
    /// fingerprint. Defaults to the `DENALI_ENGINE` environment
    /// variable, else `sat`.
    pub engine: EngineChoice,
    /// Stochastic-chain scheduling knobs (seed and proposal budget).
    /// Excluded from the fingerprint, like `incremental`.
    pub stoke: StokeKnobs,
    /// The anytime channel: when set, verified stochastic candidates
    /// that beat the baseline are published here as they are found,
    /// so a deadline-cancelled compile still leaves a harvestable
    /// result. Never part of the fingerprint.
    pub anytime: Option<AnytimeSlot>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            machine: Machine::ev6(),
            saturation: SaturationLimits::default(),
            encode: EncodeOptions::default(),
            solver: SolverChoice::Cdcl,
            max_cycles: 48,
            extra_axioms: Vec::new(),
            load_latency: None,
            miss_latency: 20,
            dump_dimacs: None,
            pipeline_loads: false,
            threads: 1,
            incremental: true,
            portfolio: 0,
            trace: denali_trace::env_enabled(),
            cancel: None,
            engine: env_engine(),
            stoke: StokeKnobs::default(),
            anytime: None,
        }
    }
}

/// Code generation for one GMA, with full diagnostics.
#[derive(Clone, Debug)]
pub struct CompiledGma {
    /// The GMA that was compiled.
    pub gma: Gma,
    /// The generated (validated) program.
    pub program: denali_arch::Program,
    /// Optimal cycle count found.
    pub cycles: u32,
    /// True if `cycles - 1` was refuted.
    pub refuted_below: bool,
    /// Matching-phase report.
    pub matcher: SaturationReport,
    /// Every SAT probe (budget, size, outcome, time).
    pub probes: Vec<ProbeStats>,
    /// Wall-clock milliseconds in the matching phase.
    pub match_ms: f64,
    /// Total wall-clock milliseconds in encoding + solving (for the
    /// stochastic engine: in the chain). The full phase split is in the
    /// trace's `gma` span children (`denali_trace::report::phase_line`).
    pub search_ms: f64,
    /// Memory accounting of the saturated e-graph (arena/SoA storage).
    /// Diagnostic only: not part of the fingerprint or the response
    /// payload, but aggregated into the serve `stats` gauges.
    pub egraph_memory: denali_egraph::MemoryStats,
    /// The saturated e-graph's operation counters (nodes added, unions,
    /// congruence-repair walks), read with `egraph_memory`. Diagnostic
    /// only, like `egraph_memory`.
    pub egraph_counts: denali_egraph::OpCounts,
    /// Which engine produced `program`: [`EngineChoice::Sat`] (probes
    /// carry the optimality ladder) or [`EngineChoice::Stochastic`]
    /// (no optimality claim; `refuted_below` is always false). `Auto`
    /// never appears here — it resolves to whichever engine answered.
    pub engine: EngineChoice,
}

impl CompiledGma {
    /// Total milliseconds spent inside the SAT solver.
    pub fn solver_ms(&self) -> f64 {
        self.probes.iter().map(|p| p.solve_ms).sum()
    }

    /// Learned clauses carried into probes from earlier probes on the
    /// search's live solver — nonzero only under CDCL, and only once it
    /// learned something worth carrying.
    pub fn carried_clauses(&self) -> u64 {
        self.probes
            .iter()
            .filter_map(|p| p.solver.as_ref())
            .map(|s| s.carried_learned)
            .sum()
    }
}

/// Result of compiling a source file (one entry per GMA of the chosen
/// procedure).
#[derive(Clone, Debug)]
pub struct CompileResult {
    /// Compiled GMAs, in program order.
    pub gmas: Vec<CompiledGma>,
}

impl CompileResult {
    /// The largest compiled GMA (typically the inner loop) — a
    /// convenience for single-kernel programs.
    pub fn main(&self) -> &CompiledGma {
        self.gmas
            .iter()
            .max_by_key(|g| g.program.len())
            .expect("at least one GMA")
    }
}

/// Pipeline failure.
#[derive(Clone, Debug)]
pub struct CompileError {
    /// Which stage failed.
    pub stage: &'static str,
    /// Explanation.
    pub message: String,
}

impl CompileError {
    /// The stage name reported when [`Options::cancel`] stopped the
    /// pipeline.
    pub const CANCELLED: &'static str = "cancelled";

    /// True if this error reports external cancellation (a deadline or
    /// shutdown), not a genuine failure. Cancelled compilations are the
    /// server's cue to fall back to the baseline (degraded) program.
    pub fn is_cancelled(&self) -> bool {
        self.stage == CompileError::CANCELLED
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.stage, self.message)
    }
}

impl std::error::Error for CompileError {}

fn stage_err<E: fmt::Display>(stage: &'static str) -> impl Fn(E) -> CompileError {
    move |e| CompileError {
        stage,
        message: e.to_string(),
    }
}

/// A procedure readied for compilation: parsed, lowered to GMAs, with
/// its axiom set in hand and loop loads pipelined when
/// [`Options::pipeline_loads`] is set. The set is the machine's shared
/// built-in set ([`denali_axioms::axioms_for`]) unless
/// [`Options::extra_axioms`] or the program's own axiom forms add to
/// it; then it is a set of its own, the built-ins followed by the extra
/// axioms and then the program's, built once for the procedure and
/// shared by its GMAs.
///
/// This is the front half of [`Denali::compile_proc`], split out so a
/// caller can [`Denali::fingerprint`] the work before paying for it —
/// the basis of the serve crate's content-addressed result cache.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The procedure's name.
    pub name: String,
    /// The lowered GMAs, in program order.
    pub gmas: Vec<Gma>,
    /// Every axiom the matcher will use, with its plans and key text.
    pub axioms: Arc<AxiomSet>,
}

/// The Denali superoptimizer façade.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct Denali {
    options: Options,
    tracer: Tracer,
}

impl Default for Denali {
    fn default() -> Denali {
        // Through `new` so the tracer honors `Options::trace` (which
        // reads `DENALI_TRACE` by default).
        Denali::new(Options::default())
    }
}

impl Denali {
    /// Creates a pipeline with the given options. An enabled tracer is
    /// created iff [`Options::trace`] is set.
    pub fn new(options: Options) -> Denali {
        let tracer = Tracer::when(options.trace);
        Denali { options, tracer }
    }

    /// The configured options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// A pipeline identical to this one for a single run: cancellable
    /// via `cancel`, publishing verified stochastic candidates into
    /// `anytime` as they are found, and recording into `tracer` when
    /// one is given, else into this façade's tracer (so records from
    /// both accumulate in one place). The server makes one per
    /// execution: preparation runs uncancellable on the shared façade,
    /// and each admitted compile gets its own deadline-armed token,
    /// under `auto` a fresh slot whose best verified program a deadline
    /// expiry can answer with, and when sampled a private *capture*
    /// tracer. Tracing only records, so the program is the same with or
    /// without one.
    #[must_use]
    pub fn with_run(
        &self,
        cancel: CancelToken,
        anytime: Option<AnytimeSlot>,
        tracer: Option<Tracer>,
    ) -> Denali {
        let mut options = self.options.clone();
        options.cancel = Some(cancel);
        options.anytime = anytime;
        if let Some(tracer) = &tracer {
            options.trace = tracer.is_enabled();
        }
        let tracer = tracer.unwrap_or_else(|| self.tracer.clone());
        Denali { options, tracer }
    }

    /// Fails with a `cancelled`-stage error if [`Options::cancel`] has
    /// been raised.
    fn check_cancelled(&self) -> Result<(), CompileError> {
        if self
            .options
            .cancel
            .as_ref()
            .is_some_and(|c| c.is_cancelled())
        {
            return Err(CompileError {
                stage: CompileError::CANCELLED,
                message: "compilation cancelled".to_owned(),
            });
        }
        Ok(())
    }

    /// The pipeline's tracer: records accumulate across every
    /// compilation this façade runs (including failed ones, which is
    /// how error paths still get a trace). Disabled unless
    /// [`Options::trace`] was set.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Compiles the first procedure of `source`.
    ///
    /// # Errors
    ///
    /// Reports the failing stage: parsing, axiom parsing, lowering,
    /// matching, enumeration, or search.
    pub fn compile_source(&self, source: &str) -> Result<CompileResult, CompileError> {
        let prepared = self.prepare_source(source)?;
        self.compile_prepared(&prepared)
    }

    /// Compiles the named procedure of an already-parsed program.
    ///
    /// # Errors
    ///
    /// As [`Denali::compile_source`].
    pub fn compile_proc(
        &self,
        program: &SourceProgram,
        name: &str,
    ) -> Result<CompileResult, CompileError> {
        let prepared = self.prepare_proc(program, name)?;
        self.compile_prepared(&prepared)
    }

    /// Runs the front half of [`Denali::compile_source`] — parsing,
    /// axiom assembly, lowering, load pipelining — without entering the
    /// match/search phases.
    ///
    /// # Errors
    ///
    /// Reports the failing stage: parsing, axioms (a form that does not
    /// parse, or an extra axiom with more variables than a match can
    /// bind), or lowering.
    pub fn prepare_source(&self, source: &str) -> Result<Prepared, CompileError> {
        let program = parse_program(source).map_err(stage_err("parse"))?;
        let first = program
            .procs
            .first()
            .ok_or_else(|| CompileError {
                stage: "parse",
                message: "source contains no procedures".to_owned(),
            })?
            .name;
        self.prepare_proc(&program, first.as_str())
    }

    /// [`Denali::prepare_source`] for the named procedure of an
    /// already-parsed program.
    ///
    /// # Errors
    ///
    /// As [`Denali::prepare_source`].
    pub fn prepare_proc(
        &self,
        program: &SourceProgram,
        name: &str,
    ) -> Result<Prepared, CompileError> {
        let proc = program.proc(name).ok_or_else(|| CompileError {
            stage: "parse",
            message: format!("no procedure named {name}"),
        })?;
        let builtins = denali_axioms::axioms_for(self.options.machine.name());
        let axioms = if self.options.extra_axioms.is_empty() && program.axiom_forms.is_empty() {
            builtins
        } else {
            let mut axioms = builtins.axioms().to_vec();
            axioms.extend(self.options.extra_axioms.iter().cloned());
            for (i, form) in program.axiom_forms.iter().enumerate() {
                axioms.push(
                    Axiom::parse_sexpr(form, &format!("{name}-axiom-{i}"))
                        .map_err(stage_err("axiom"))?,
                );
            }
            Arc::new(AxiomSet::new(axioms).map_err(stage_err("axiom"))?)
        };
        let mut gmas = lower_proc(proc).map_err(stage_err("lower"))?;
        if self.options.pipeline_loads {
            // Transform every loop body, pairing it with the preceding
            // unguarded GMA (its prologue) when present.
            for i in 0..gmas.len() {
                if gmas[i].guard.is_none() {
                    continue;
                }
                let prologue_idx = (i > 0 && gmas[i - 1].guard.is_none()).then(|| i - 1);
                let prologue = prologue_idx.map(|j| gmas[j].clone());
                if let Some((new_prologue, new_body)) =
                    denali_lang::pipeline_loads(prologue.as_ref(), &gmas[i])
                {
                    gmas[i] = new_body;
                    match prologue_idx {
                        Some(j) => gmas[j] = new_prologue,
                        None => gmas.insert(i, new_prologue),
                    }
                }
            }
        }
        if gmas.is_empty() {
            return Err(CompileError {
                stage: "lower",
                message: format!("procedure {name} has no effect (no GMAs)"),
            });
        }
        Ok(Prepared {
            name: name.to_owned(),
            gmas,
            axioms,
        })
    }

    /// Runs the back half of [`Denali::compile_source`]: the
    /// match/enumerate/search pipeline over every prepared GMA.
    ///
    /// # Errors
    ///
    /// Reports the failing stage: matching, enumeration, search, or
    /// cancellation.
    pub fn compile_prepared(&self, prepared: &Prepared) -> Result<CompileResult, CompileError> {
        let compiled = prepared
            .gmas
            .iter()
            .map(|gma| self.compile_gma(gma.clone(), &prepared.axioms))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompileResult { gmas: compiled })
    }

    /// The content-addressed cache key for compiling `prepared` under
    /// this façade's options: a 128-bit hex digest over the lowered
    /// GMAs, the axiom set, and the output-affecting option subset (see
    /// [`crate::fingerprint`] for what is excluded and why).
    pub fn fingerprint(&self, prepared: &Prepared) -> String {
        crate::fingerprint::fingerprint(&prepared.gmas, &prepared.axioms, &self.options)
    }

    /// Runs the crucial inner subroutine (Figure 1) on a single GMA.
    ///
    /// # Errors
    ///
    /// As [`Denali::compile_source`].
    pub fn compile_gma(&self, gma: Gma, axioms: &AxiomSet) -> Result<CompiledGma, CompileError> {
        self.check_cancelled()?;
        let tracer = &self.tracer;
        // One root span per GMA; its phase children are the trace's
        // phase split (`report::phase_line`), and `match_ms`/`search_ms`
        // are read off the same guards. Each phase span is finished
        // *before* `?` propagates its error, so failed compilations
        // still trace their phases.
        let gma_span = tracer.span_fields("gma", vec![field("name", gma.name.clone())]);

        let span = tracer.span("match");
        let matched = match_gma_traced(&gma, axioms, &self.options.saturation, tracer);
        let match_ms = span.finish();
        let matched = matched.map_err(stage_err("match"))?;
        // Each round's time is its `saturate.round` span's; observed here,
        // once, whichever engine answers.
        for round in &matched.report.rounds {
            pipeline_metrics().round_us.observe_ms(round.ms);
        }
        // Phase boundary: a deadline raised during matching stops here
        // rather than entering enumeration (saturation itself is
        // bounded by its budgets, so this check is reached promptly).
        self.check_cancelled()?;

        // Engine dispatch. The stochastic engine answers directly from
        // the saturated e-graph (equivalence mining) and never enters
        // the SAT search; `auto` first runs a bounded anytime prepass
        // so a deadline-cancelled SAT compile still leaves verified
        // candidates in the anytime slot.
        if self.options.engine == EngineChoice::Stochastic {
            return self.compile_gma_stochastic(gma, matched, match_ms, gma_span);
        }
        if self.options.engine == EngineChoice::Auto && self.options.anytime.is_some() {
            if let Ok(baseline) = denali_baseline::rewrite_compile(&gma, &self.options.machine) {
                let span = tracer.span("stoke.prepass");
                self.run_chain(&gma, &matched, &baseline, AUTO_PREPASS_ITERATIONS);
                span.finish();
            }
            self.check_cancelled()?;
        }

        let inputs = gma.inputs();
        let span = tracer.span("enumerate");
        let candidates = crate::machine_terms::enumerate_with_misses(
            &matched,
            &self.options.machine,
            &inputs,
            self.options.load_latency,
            &gma.miss_addrs,
            self.options.miss_latency,
        );
        let enumerate_fields = match &candidates {
            Ok(c) => vec![field("candidates", c.list.len())],
            Err(_) => Vec::new(),
        };
        span.finish_fields(enumerate_fields);
        let candidates = candidates.map_err(stage_err("enumerate"))?;

        let params = SearchParams {
            solver: self.options.solver,
            max_cycles: self.options.max_cycles,
            threads: self.options.threads,
            incremental: self.options.incremental,
            dump: self
                .options
                .dump_dimacs
                .as_ref()
                .map(|dir| crate::search::DimacsDump {
                    directory: dir.clone(),
                    label: gma.name.clone(),
                }),
            portfolio: self.options.portfolio,
            cancel: self.options.cancel.clone(),
        };
        let span = tracer.span("search");
        let outcome = search_traced(
            &gma,
            &matched,
            &candidates,
            &self.options.machine,
            &self.options.encode,
            &params,
            tracer,
        );
        let search_ms = span.finish();
        let outcome: SearchOutcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) if e.cancelled => {
                return Err(CompileError {
                    stage: CompileError::CANCELLED,
                    message: e.message,
                })
            }
            Err(e) if self.options.engine == EngineChoice::Auto && e.exhausted => {
                // The SAT probe ladder exhausted its cycle budget:
                // fall back to a full stochastic run. Anytime
                // semantics — the verified result is returned even
                // when it is longer than `max_cycles`.
                tracer.event("stoke.fallback", || {
                    vec![field("reason", e.message.clone())]
                });
                return self.compile_gma_stochastic(gma, matched, match_ms, gma_span);
            }
            Err(e) => {
                return Err(CompileError {
                    stage: "search",
                    message: e.message,
                })
            }
        };

        gma_span.finish_fields(vec![
            field("cycles", outcome.cycles),
            field("refuted_below", outcome.refuted_below),
            field("probes", outcome.probes.len()),
        ]);
        Ok(compiled_gma(
            gma,
            matched,
            outcome,
            EngineChoice::Sat,
            match_ms,
            search_ms,
        ))
    }

    /// The stochastic-engine tail of [`Denali::compile_gma`]: baseline
    /// rewrite → sketch conversion → equivalence-move mining from the
    /// saturated e-graph → Metropolis chain, with verified
    /// improvements published on the anytime channel along the way.
    fn compile_gma_stochastic(
        &self,
        gma: Gma,
        matched: Matched,
        match_ms: f64,
        gma_span: Span,
    ) -> Result<CompiledGma, CompileError> {
        let baseline = denali_baseline::rewrite_compile(&gma, &self.options.machine)
            .map_err(stage_err("baseline"))?;
        let span = self.tracer.span("stoke");
        let outcome = self.run_chain(&gma, &matched, &baseline, self.options.stoke.iterations);
        let search_ms = span.finish();
        let (program, cycles) = match outcome {
            Some(out) if out.cancelled => {
                gma_span.finish_fields(vec![
                    field("engine", "stochastic"),
                    field("cancelled", true),
                ]);
                return Err(CompileError {
                    stage: CompileError::CANCELLED,
                    message: "stochastic search cancelled".to_owned(),
                });
            }
            Some(out) => (out.best_program, out.best_cycles),
            // Outside the engine's fragment (guards, memory,
            // uninterpreted operations): the baseline program *is* the
            // stochastic answer — total, verified by construction, no
            // optimality claim either way.
            None => {
                let cycles = baseline.cycles();
                (baseline, cycles)
            }
        };
        gma_span.finish_fields(vec![field("cycles", cycles), field("engine", "stochastic")]);
        let outcome = SearchOutcome {
            program,
            cycles,
            refuted_below: false,
            probes: Vec::new(),
        };
        Ok(compiled_gma(
            gma,
            matched,
            outcome,
            EngineChoice::Stochastic,
            match_ms,
            search_ms,
        ))
    }

    /// Profiles the stochastic engine on every supported GMA of
    /// `source`: one full chain per GMA with mined equivalence moves,
    /// returning the best-cost trajectory and chain statistics. Used
    /// by the `stoke_bench` artifact and the `report e7s` table; fully
    /// deterministic at a fixed [`StokeKnobs::seed`].
    ///
    /// # Errors
    ///
    /// Reports preparation failures (parse/axiom/lower), match-phase
    /// failures, and baseline rewrite failures.
    pub fn stoke_profile(&self, source: &str) -> Result<Vec<StokeRun>, CompileError> {
        let prepared = self.prepare_source(source)?;
        let mut runs = Vec::new();
        for gma in &prepared.gmas {
            if !crate::engine::stoke_supported(gma) {
                continue;
            }
            let matched = match_gma_traced(
                gma,
                &prepared.axioms,
                &self.options.saturation,
                &self.tracer,
            )
            .map_err(stage_err("match"))?;
            let baseline = denali_baseline::rewrite_compile(gma, &self.options.machine)
                .map_err(stage_err("baseline"))?;
            let Some(outcome) =
                self.run_chain(gma, &matched, &baseline, self.options.stoke.iterations)
            else {
                continue;
            };
            runs.push(StokeRun {
                gma: gma.name.clone(),
                baseline_cycles: outcome.baseline_cycles,
                best_cycles: outcome.best_cycles,
                improved: outcome.improved,
                proposals: outcome.proposals,
                accepted: outcome.accepted,
                restarts: outcome.restarts,
                verifications: outcome.verifications,
                widenings: outcome.widenings,
                trajectory: outcome.trajectory,
            });
        }
        Ok(runs)
    }
}

/// Proposal budget of the bounded anytime chain `auto` runs before the
/// SAT search, so a deadline that cancels the search still leaves
/// verified candidates to answer with.
const AUTO_PREPASS_ITERATIONS: u64 = 6_000;

/// Fills a [`CompiledGma`] from a finished compile, whichever engine
/// answered, and records it in the process-wide metrics.
fn compiled_gma(
    gma: Gma,
    matched: Matched,
    outcome: SearchOutcome,
    engine: EngineChoice,
    match_ms: f64,
    search_ms: f64,
) -> CompiledGma {
    let egraph_memory = matched.egraph.memory_stats();
    // Observability only: the process-wide registry sees every
    // completed compile regardless of caller (CLI, tests, server).
    // Recording is nanoseconds per event and never part of the
    // fingerprint or the result.
    let metrics = pipeline_metrics();
    metrics.compiles.inc();
    metrics.egraph_nodes.set(egraph_memory.nodes);
    metrics.egraph_bytes.set(egraph_memory.total_bytes);
    CompiledGma {
        gma,
        program: outcome.program,
        cycles: outcome.cycles,
        refuted_below: outcome.refuted_below,
        matcher: matched.report,
        probes: outcome.probes,
        match_ms,
        search_ms,
        egraph_memory,
        egraph_counts: matched.egraph.op_counts(),
        engine,
    }
}

/// One stochastic chain profile (see [`Denali::stoke_profile`]).
#[derive(Clone, Debug)]
pub struct StokeRun {
    /// GMA name.
    pub gma: String,
    /// Baseline rewrite schedule length.
    pub baseline_cycles: u32,
    /// Best verified schedule length the chain found.
    pub best_cycles: u32,
    /// True when `best_cycles < baseline_cycles`.
    pub improved: bool,
    /// Proposals evaluated.
    pub proposals: u64,
    /// Proposals accepted.
    pub accepted: u64,
    /// Chain restarts.
    pub restarts: u64,
    /// Candidates sent through simulator verification.
    pub verifications: u64,
    /// Counterexample vectors widened into the test set.
    pub widenings: u64,
    /// Verified best-cost trajectory: (proposal index, cycles).
    pub trajectory: Vec<(u64, u32)>,
}

/// Process-wide pipeline metric handles, resolved once. The handles are
/// `Arc`s into [`denali_metrics::global`], so recording never touches
/// the registry lock. Each value is observed where it is measured: the
/// probe times in the search's probe spans, the round times right after
/// matching, the rest per compiled GMA.
pub(crate) struct PipelineMetrics {
    compiles: std::sync::Arc<denali_metrics::Counter>,
    pub(crate) solve_us: std::sync::Arc<denali_metrics::Histogram>,
    pub(crate) encode_us: std::sync::Arc<denali_metrics::Histogram>,
    round_us: std::sync::Arc<denali_metrics::Histogram>,
    egraph_nodes: std::sync::Arc<denali_metrics::Gauge>,
    egraph_bytes: std::sync::Arc<denali_metrics::Gauge>,
}

pub(crate) fn pipeline_metrics() -> &'static PipelineMetrics {
    static METRICS: std::sync::OnceLock<PipelineMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = denali_metrics::global();
        PipelineMetrics {
            compiles: registry.counter(
                "denali_core_gma_compiles_total",
                "GMA compilations completed by the pipeline",
            ),
            solve_us: registry.histogram(
                "denali_core_probe_solve_us",
                "SAT probe solve time (microseconds)",
            ),
            encode_us: registry.histogram(
                "denali_core_probe_encode_us",
                "SAT probe constraint-generation time (microseconds)",
            ),
            round_us: registry.histogram(
                "denali_core_saturate_round_us",
                "Saturation round duration (microseconds)",
            ),
            egraph_nodes: registry.gauge(
                "denali_egraph_nodes",
                "Arena e-nodes of the most recently compiled GMA",
            ),
            egraph_bytes: registry.gauge(
                "denali_egraph_bytes",
                "E-graph storage payload bytes of the most recently compiled GMA",
            ),
        }
    })
}
