//! The cycle-budget search.
//!
//! §1.3: "Continuing with binary search, we eventually find, for some K,
//! a K-cycle program that computes P, together with a proof that K−1
//! cycles are insufficient: that is, an optimal program". The search
//! records the size and outcome of every SAT problem (the paper reports
//! these sizes for byteswap4 in §8).
//!
//! # The ladder
//!
//! [`Rules::lower_bound`] proves that no schedule beats the critical
//! path of any goal or the cheapest store of any store level, so the
//! ladder starts there, at `lb`, and climbs by doubling steps: `lb`,
//! `lb + 1`, `lb + 3`, `lb + 7`, … clamped at
//! [`SearchParams::max_cycles`], up to the first satisfiable budget. A
//! binary search then closes the gap to the largest refuted budget.
//! When `lb` itself is satisfiable and above 1, the search still probes
//! `lb − 1`, so the optimality certificate is a SAT refutation and not
//! the bound's word; a satisfiable answer there is an internal error. A
//! bound above the ceiling exhausts the budget without a probe.
//! checksum's last GMA, for example, has bound 12 and probes 12 and 13;
//! with `lb = 1` the ladder is the plain doubling 1, 2, 4, 8, ….
//!
//! # One probe path, one decode
//!
//! The probes are a sequence of closely related SAT problems — the
//! encodings differ only in the cycle budget — so every probe goes to
//! one [`IncrementalEncoding`]: it grows the encoded horizon one cycle
//! at a time during the ascent and restricts it back down per probe with
//! assumption literals. Growing cycle by cycle keeps the live formula at
//! a given horizon independent of the budgets probed before, which a
//! backend that branches in variable order (DPLL) depends on. The
//! encoding talks to its solver only through [`SolverBackend`], which is
//! this search's seam for the paper's solver substitution (§1.4):
//! [`SolverChoice::Cdcl`] plugs in the CDCL [`Solver`], whose learned
//! clauses, variable activity and saved polarities carry over between
//! budgets, and [`SolverChoice::Dpll`] the [`DpllSolver`] adapter.
//!
//! Whichever backend answered, the winning budget is decoded the same
//! way: one canonical re-solve of its standalone [`encode`] formula on a
//! fresh CDCL solver. The solver choice therefore changes the probe
//! counters and the wall-clock, never the program. DIMACS dumps write
//! the same standalone formula for each probed budget.

use std::fmt;

use denali_arch::{Machine, Program};
use denali_lang::Gma;
use denali_par::CancelToken;
use denali_sat::{DpllSolver, SolveResult, Solver, SolverBackend, SolverStats};
use denali_trace::{field, Tracer};

use crate::encode::{
    encode, encode_into, true_launches, EncodeOptions, IncrementalEncoding, Rules,
};
use crate::extract::extract;
use crate::facade::pipeline_metrics;
use crate::machine_terms::Candidates;
use crate::matcher::Matched;

/// Which SAT engine answers the probes (the paper's point that the
/// solver is swappable: CHAFF vs its predecessors).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverChoice {
    /// The CDCL solver (CHAFF's stand-in).
    #[default]
    Cdcl,
    /// The naive DPLL solver (the "previous solver").
    Dpll,
}

impl SolverChoice {
    /// Parses `cdcl` / `dpll` (exactly; these are also the canonical
    /// names).
    pub fn parse(s: &str) -> Option<SolverChoice> {
        match s {
            "cdcl" => Some(SolverChoice::Cdcl),
            "dpll" => Some(SolverChoice::Dpll),
            _ => None,
        }
    }

    /// Canonical name (what fingerprints carry).
    pub fn as_str(self) -> &'static str {
        match self {
            SolverChoice::Cdcl => "cdcl",
            SolverChoice::Dpll => "dpll",
        }
    }
}

/// One SAT probe of the search.
#[derive(Clone, Copy, Debug)]
pub struct ProbeStats {
    /// Cycle budget tested.
    pub k: u32,
    /// SAT variables in the live solver when the probe ran (cumulative
    /// across the search's budgets).
    pub vars: usize,
    /// Problem clauses in the live solver (cumulative, like `vars`).
    pub clauses: usize,
    /// Whether a schedule exists within `k` cycles.
    pub satisfiable: bool,
    /// Wall-clock milliseconds in the solver.
    pub solve_ms: f64,
    /// Wall-clock milliseconds generating the constraints.
    pub encode_ms: f64,
    /// CDCL search counters for this probe (`None` under DPLL). The
    /// work counters are per-probe deltas and the
    /// `solves`/`carried_learned`/`carried_activity` gauges show the
    /// solver reuse.
    pub solver: Option<SolverStats>,
}

impl fmt::Display for ProbeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "K={}: {} vars, {} clauses, {} ({:.1} ms solve)",
            self.k,
            self.vars,
            self.clauses,
            if self.satisfiable { "SAT" } else { "UNSAT" },
            self.solve_ms
        )?;
        if let Some(s) = &self.solver {
            write!(
                f,
                " [{} decisions, {} conflicts, {} restarts",
                s.decisions, s.conflicts, s.restarts
            )?;
            if s.solves > 1 {
                write!(
                    f,
                    ", carried {} learned / {} warm vars",
                    s.carried_learned, s.carried_activity
                )?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// The search result: the optimal program found plus the probe log.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The decoded program at the smallest satisfiable budget.
    pub program: Program,
    /// The optimal cycle count.
    pub cycles: u32,
    /// True if `cycles - 1` was refuted (the optimality certificate):
    /// either a probe at `cycles - 1` returned UNSAT, or `cycles == 1`
    /// and the GMA requires launches (zero cycles is vacuously
    /// insufficient). The zero-launch identity path reports `false` —
    /// nothing was refuted there.
    pub refuted_below: bool,
    /// Every probe performed, in order.
    pub probes: Vec<ProbeStats>,
}

/// Search failure.
#[derive(Clone, Debug)]
pub struct SearchError {
    /// Explanation.
    pub message: String,
    /// True if the search stopped because [`SearchParams::cancel`] was
    /// raised (a deadline or shutdown), not because it failed.
    pub cancelled: bool,
    /// True if no schedule exists within [`SearchParams::max_cycles`]:
    /// the ladder refuted the ceiling, or the lower bound already lies
    /// above it and nothing was probed.
    pub exhausted: bool,
}

impl SearchError {
    fn new(message: String) -> SearchError {
        SearchError {
            message,
            cancelled: false,
            exhausted: false,
        }
    }

    fn cancelled() -> SearchError {
        SearchError {
            message: "search cancelled".to_owned(),
            cancelled: true,
            exhausted: false,
        }
    }

    fn exhausted(max_cycles: u32) -> SearchError {
        SearchError {
            message: format!("no schedule within {max_cycles} cycles"),
            cancelled: false,
            exhausted: true,
        }
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SearchError {}

/// Where to dump each probe's CNF in DIMACS format.
#[derive(Clone, Debug)]
pub struct DimacsDump {
    /// Target directory (created if missing).
    pub directory: std::path::PathBuf,
    /// File-name prefix (the GMA name).
    pub label: String,
}

/// How the search runs: engine, budget ceiling, probe path, dumps.
#[derive(Clone, Debug)]
pub struct SearchParams {
    /// SAT engine answering the probes.
    pub solver: SolverChoice,
    /// Give up if no schedule exists within this many cycles.
    pub max_cycles: u32,
    /// An execution hint with no effect: the probe search is serial.
    /// Kept so existing callers still build.
    pub threads: usize,
    /// An execution hint with no effect: every search probes one live
    /// encoding. Kept so existing callers still build.
    pub incremental: bool,
    /// If set, the standalone [`encode`] formula of every probed budget
    /// is written here in DIMACS format (`<label>_k<K>.cnf`).
    pub dump: Option<DimacsDump>,
    /// An execution hint with no effect. Kept so existing callers still
    /// build.
    pub portfolio: usize,
    /// External cancellation (deadlines, shutdown). When raised, the
    /// search stops at the next budget boundary — or mid-probe, at the
    /// solver's next checkpoint — and returns a [`SearchError`] with
    /// `cancelled` set. `None` means the search runs to completion.
    pub cancel: Option<CancelToken>,
}

impl Default for SearchParams {
    fn default() -> SearchParams {
        SearchParams {
            solver: SolverChoice::default(),
            max_cycles: 48,
            threads: 1,
            incremental: true,
            dump: None,
            portfolio: 0,
            cancel: None,
        }
    }
}

/// The ascent's next budget after `k`, `step` cycles up, clamped at the
/// cycle ceiling (`max_cycles` may be near `u32::MAX`; a plain add
/// overflows in debug builds).
fn next_budget(k: u32, step: u32, max_cycles: u32) -> u32 {
    k.saturating_add(step).min(max_cycles.max(1))
}

/// Finds the smallest cycle budget with a legal schedule and decodes it.
///
/// # Errors
///
/// Fails if no schedule exists within `params.max_cycles`, if a
/// requested DIMACS dump cannot be written, or on a decoding error
/// (which indicates an internal bug).
pub fn search(
    gma: &Gma,
    matched: &Matched,
    candidates: &Candidates,
    machine: &Machine,
    options: &EncodeOptions,
    params: &SearchParams,
) -> Result<SearchOutcome, SearchError> {
    search_traced(
        gma,
        matched,
        candidates,
        machine,
        options,
        params,
        &Tracer::disabled(),
    )
}

/// [`search`] with structured tracing: ascent/binary/decode spans and
/// one `probe` span (with `encode`/`solve` children) per probe, in
/// search order.
pub fn search_traced(
    gma: &Gma,
    matched: &Matched,
    candidates: &Candidates,
    machine: &Machine,
    options: &EncodeOptions,
    params: &SearchParams,
    tracer: &Tracer,
) -> Result<SearchOutcome, SearchError> {
    // A trivial case first: no launches needed at all (identity GMA) —
    // nothing to schedule, nothing to probe. No budget was refuted
    // here, so no optimality certificate is claimed.
    if candidates
        .goal_classes
        .iter()
        .all(|&g| candidates.is_available(g))
        && candidates.store_levels.is_empty()
    {
        tracer.event("search.identity", Vec::new);
        let program = extract(gma, matched, candidates, machine, 0, &[])
            .map_err(|e| SearchError::new(e.to_string()))?;
        return Ok(SearchOutcome {
            program,
            cycles: 0,
            refuted_below: false,
            probes: Vec::new(),
        });
    }

    let rules = Rules::new(matched, candidates, machine, options);
    let (best_k, probes) = match params.solver {
        SolverChoice::Cdcl => probe_ladder(&rules, Solver::new(), params, tracer)?,
        SolverChoice::Dpll => probe_ladder(&rules, DpllSolver::new(), params, tracer)?,
    };

    // The optimality certificate: K-1 was actually refuted, or K == 1
    // and launches are required (zero cycles is vacuously infeasible —
    // the zero-launch case was handled above).
    let refuted_below = best_k == 1 || probes.iter().any(|p| p.k + 1 == best_k && !p.satisfiable);

    // Decode the winner by one canonical re-solve of its standalone
    // formula on a fresh CDCL solver, whichever backend probed: the
    // solver is deterministic, so the program depends only on the
    // budget. The formula is written straight into the solver, which
    // takes the steps it would take on `encode(best_k)` loaded from a
    // `Cnf`.
    let decode = tracer.span_fields("search.decode", vec![field("cycles", best_k)]);
    let mut solver = Solver::new();
    let launch_map = encode_into(&rules, best_k, &mut solver);
    let launches = match solver.solve() {
        SolveResult::Sat => true_launches(&launch_map, solver.model().expect("sat model")),
        _ => {
            return Err(SearchError::new(format!(
                "internal: budget {best_k} satisfiable under assumptions \
                 but unsatisfiable standalone"
            )))
        }
    };
    let program = extract(gma, matched, candidates, machine, best_k, &launches)
        .map_err(|e| SearchError::new(e.to_string()))?;
    let work = solver.stats();
    decode.finish_fields(vec![
        field("launches", launches.len()),
        field("vars", work.vars),
        field("clauses", work.clauses),
        field("decisions", work.decisions),
        field("conflicts", work.conflicts),
        field("propagations", work.propagations),
    ]);
    Ok(SearchOutcome {
        program,
        cycles: best_k,
        refuted_below,
        probes,
    })
}

/// Runs the probe ladder on one live encoding of `rules` over `backend`:
/// an ascent from the lower bound to the first satisfiable budget, then
/// binary search below it. Returns the smallest satisfiable budget and
/// the probe log.
///
/// Each probe is timed once, by its spans: a `probe` span (begin field
/// `k`) around an `encode` span that grows the live encoding and a
/// `solve` span. The milliseconds those two spans return fill
/// [`ProbeStats`] and the process-wide probe histograms, so an
/// interrupted probe is traced and observed before the search returns,
/// and the probes of a failed search count too. A completed probe is
/// then logged and (optionally) dumped.
fn probe_ladder<B: SolverBackend>(
    rules: &Rules,
    backend: B,
    params: &SearchParams,
    tracer: &Tracer,
) -> Result<(u32, Vec<ProbeStats>), SearchError> {
    let mut live = IncrementalEncoding::new(rules, backend);
    if let Some(token) = &params.cancel {
        live.set_interrupt(token.handle());
    }
    let metrics = pipeline_metrics();
    let mut probes = Vec::new();
    let mut probe = |k: u32| -> Result<bool, SearchError> {
        let span = tracer.span_fields("probe", vec![field("k", k)]);

        let encode_span = tracer.span("encode");
        let before = live.stats();
        let from = live.grow_to(k);
        let sizes = live.stats();
        let mut fields = vec![field("vars", sizes.vars), field("clauses", sizes.clauses)];
        if from < k {
            fields.extend([
                field("from", from),
                field("to", k),
                field("new_vars", sizes.vars - before.vars),
                field("new_clauses", sizes.clauses - before.clauses),
            ]);
        }
        let encode_ms = encode_span.finish_fields(fields);
        metrics.encode_us.observe_ms(encode_ms);

        let solve_span = tracer.span("solve");
        let result = live.solve(k);
        let solve_ms = solve_span.finish();
        metrics.solve_us.observe_ms(solve_ms);

        // Per-probe work deltas; DPLL keeps no search counters.
        let work = (params.solver == SolverChoice::Cdcl).then(|| live.stats().since(sizes));
        let outcome = match result {
            SolveResult::Sat => "sat",
            SolveResult::Unsat => "unsat",
            // Only possible once the cancel token was raised.
            SolveResult::Interrupted => "interrupted",
        };
        let mut fields = vec![field("outcome", outcome)];
        if let Some(s) = &work {
            fields.extend([
                field("decisions", s.decisions),
                field("propagations", s.propagations),
                field("conflicts", s.conflicts),
                field("restarts", s.restarts),
                field("learned", s.learned),
                field("solves", s.solves),
                field("carried_learned", s.carried_learned),
                field("carried_activity", s.carried_activity),
            ]);
        }
        span.finish_fields(fields);
        if result == SolveResult::Interrupted {
            return Err(SearchError::cancelled());
        }

        let stats = ProbeStats {
            k,
            vars: sizes.vars as usize,
            clauses: sizes.clauses as usize,
            satisfiable: result == SolveResult::Sat,
            solve_ms,
            encode_ms,
            solver: work,
        };
        if let Some(dump) = &params.dump {
            write_dump(dump, k, &encode(rules, k).cnf.to_dimacs())?;
        }
        probes.push(stats);
        Ok(stats.satisfiable)
    };
    let cancelled = || params.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let max_cycles = params.max_cycles;

    // Ascent from the lower bound to the first satisfiable budget, in
    // steps of 1, 2, 4, ...
    let lower_bound = rules.lower_bound();
    let ascent = tracer.span_fields("search.ascent", vec![field("lower_bound", lower_bound)]);
    let mut k = lower_bound;
    let mut step = 1u32;
    let mut max_unsat = 0u32;
    loop {
        if cancelled() {
            return Err(SearchError::cancelled());
        }
        if k > max_cycles {
            return Err(SearchError::exhausted(max_cycles));
        }
        let next = next_budget(k, step, max_cycles);
        if probe(k)? {
            break;
        }
        max_unsat = k;
        if next == k {
            return Err(SearchError::exhausted(max_cycles));
        }
        k = next;
        step = step.saturating_mul(2);
    }
    let mut best_k = k;
    // The bound already proves `lb - 1` infeasible; refute it with a
    // probe anyway, so the certificate is a SAT refutation.
    if best_k == lower_bound && lower_bound > 1 {
        if cancelled() {
            return Err(SearchError::cancelled());
        }
        if probe(lower_bound - 1)? {
            return Err(SearchError::new(format!(
                "internal: budget {} is satisfiable below the lower bound {lower_bound}",
                lower_bound - 1
            )));
        }
        max_unsat = lower_bound - 1;
    }
    ascent.finish_fields(vec![
        field("first_sat", best_k),
        field("max_unsat", max_unsat),
    ]);

    // Binary search in (max_unsat, best_k).
    let binary = tracer.span_fields(
        "search.binary",
        vec![field("lo", max_unsat), field("hi", best_k)],
    );
    while best_k - max_unsat > 1 {
        if cancelled() {
            // A winner exists, but returning it would make the probe
            // log deadline-dependent; the caller degrades instead.
            return Err(SearchError::cancelled());
        }
        let mid = max_unsat + (best_k - max_unsat) / 2;
        if probe(mid)? {
            best_k = mid;
        } else {
            max_unsat = mid;
        }
    }
    binary.finish_fields(vec![field("cycles", best_k)]);
    Ok((best_k, probes))
}

/// Writes one budget's standalone formula as `<label>_k<K>.cnf`. A dump
/// failure is a hard error — a silently missing CNF defeats the point of
/// dumping.
fn write_dump(dump: &DimacsDump, k: u32, dimacs: &str) -> Result<(), SearchError> {
    std::fs::create_dir_all(&dump.directory).map_err(|e| {
        SearchError::new(format!(
            "cannot create DIMACS dump directory {}: {e}",
            dump.directory.display()
        ))
    })?;
    let path = dump.directory.join(format!("{}_k{}.cnf", dump.label, k));
    std::fs::write(&path, dimacs)
        .map_err(|e| SearchError::new(format!("cannot write DIMACS dump {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_choice_parses_exactly_its_names() {
        for s in [SolverChoice::Cdcl, SolverChoice::Dpll] {
            assert_eq!(SolverChoice::parse(s.as_str()), Some(s));
        }
        assert_eq!(SolverChoice::parse("CDCL"), None);
        assert_eq!(SolverChoice::parse(" dpll"), None);
        assert_eq!(SolverChoice::parse("sat"), None);
    }

    #[test]
    fn next_budget_steps_then_clamps() {
        assert_eq!(next_budget(1, 1, 48), 2);
        assert_eq!(next_budget(2, 2, 48), 4);
        assert_eq!(next_budget(12, 1, 48), 13);
        assert_eq!(next_budget(13, 2, 48), 15);
        assert_eq!(next_budget(32, 32, 48), 48);
        assert_eq!(next_budget(48, 64, 48), 48);
    }

    #[test]
    fn next_budget_survives_huge_ceilings() {
        // Regression: near a u32::MAX ceiling the ascent must clamp,
        // not overflow (debug builds panic on overflow).
        assert_eq!(next_budget(1 << 31, 1 << 31, u32::MAX), u32::MAX);
        assert_eq!(next_budget(u32::MAX, u32::MAX, u32::MAX), u32::MAX);
        assert_eq!(next_budget(3 << 30, 1 << 31, u32::MAX - 1), u32::MAX - 1);
        assert_eq!(next_budget(1, 1, 0), 1);
    }
}
