//! The cycle-budget search.
//!
//! §1.3: "Continuing with binary search, we eventually find, for some K,
//! a K-cycle program that computes P, together with a proof that K−1
//! cycles are insufficient: that is, an optimal program". We probe
//! upward from K = 1, doubling the budget until the first satisfiable
//! one, then binary-search the gap, recording the size and outcome of
//! every SAT problem (the paper reports these sizes for byteswap4 in
//! §8). checksum's last GMA, for example, probes 1, 2, 4, 8, 16, 12, 14
//! and 13. No lower bound is used yet: starting the ladder at the
//! critical path over the goal classes is an open ROADMAP item
//! ("Search: start the ladder at a proven lower bound").
//!
//! # One serial probe path
//!
//! The probes are a sequence of closely related SAT problems — the
//! encodings differ only in the cycle budget — so CDCL searches probe
//! *incrementally* by default ([`SearchParams::incremental`]): one
//! [`IncrementalEncoding`] holds a persistent solver, growing the
//! encoded horizon during geometric ascent and restricting it back down
//! per probe with assumption literals, so learned clauses, variable
//! activity, and saved polarities carry over between budgets. The
//! winning budget is then decoded by one canonical fresh re-solve of its
//! standalone encoding.
//!
//! A fresh solver per probe remains where it is needed: under DPLL
//! (which has no assumption interface), for DIMACS dumps (which want one
//! standalone CNF per probe), and on the `incremental: false` reference
//! path the incremental one is checked against. The probe log's
//! (K, SAT/UNSAT) sequence, the chosen cycle count, the optimality
//! certificate, and the decoded program are identical on both; only
//! formula sizes and solver counters differ (they are cumulative for the
//! live solver).

use std::fmt;
use std::time::Instant;

use denali_arch::{Machine, Program};
use denali_lang::Gma;
use denali_par::CancelToken;
use denali_sat::dimacs::Cnf;
use denali_sat::{dpll, SolveResult, SolverStats};
use denali_trace::{field, Tracer};

use crate::encode::{encode, EncodeOptions, IncrementalEncoding, LaunchCoord};
use crate::extract::extract;
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

/// One SAT probe of the search.
#[derive(Clone, Copy, Debug)]
pub struct ProbeStats {
    /// Cycle budget tested.
    pub k: u32,
    /// SAT variables in the probe's formula. Fresh probes report their
    /// own encoding's size; incremental probes report the live solver's
    /// cumulative size.
    pub vars: usize,
    /// CNF clauses in the probe's formula (cumulative for incremental
    /// probes, like `vars`).
    pub clauses: usize,
    /// Whether a schedule exists within `k` cycles.
    pub satisfiable: bool,
    /// Wall-clock milliseconds in the solver.
    pub solve_ms: f64,
    /// Wall-clock milliseconds generating the constraints.
    pub encode_ms: f64,
    /// CDCL search counters for this probe (`None` under DPLL). In
    /// incremental mode the work counters are per-probe deltas and the
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
}

impl SearchError {
    fn new(message: String) -> SearchError {
        SearchError {
            message,
            cancelled: false,
        }
    }

    fn cancelled() -> SearchError {
        SearchError {
            message: "search cancelled".to_owned(),
            cancelled: true,
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
    /// Reuse one persistent CDCL solver across budgets via assumption
    /// probing (the default). `false` selects the fresh-solver-per-probe
    /// reference path. DPLL searches and DIMACS dumps always probe
    /// fresh — DPLL has no assumption interface, and dumps want one
    /// standalone CNF per probe. The probe outcomes, cycle count,
    /// certificate, and decoded program are identical either way.
    pub incremental: bool,
    /// If set, every probe's CNF is written here in DIMACS format
    /// (`<label>_k<K>.cnf`). A dump disables incremental probing (see
    /// [`SearchParams::incremental`]).
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

/// A completed probe: its log entry plus the artifacts needed to decode
/// or dump it.
struct ProbeRun {
    stats: ProbeStats,
    /// The model's true launches when satisfiable. Fresh probes decode
    /// their own model; incremental probes leave this `None` and the
    /// winner is decoded by one canonical fresh re-solve.
    launches: Option<Vec<LaunchCoord>>,
    /// The probe's standalone formula, kept for DIMACS dumps (fresh
    /// probes only).
    cnf: Option<Cnf>,
}

/// The probe engine for the whole search: the persistent incremental
/// CDCL solver, or a fresh solver per probe. Probes run strictly in
/// search order; each is logged, traced and (optionally) dumped as it
/// completes.
struct Prober<'a> {
    matched: &'a Matched,
    candidates: &'a Candidates,
    machine: &'a Machine,
    options: &'a EncodeOptions,
    solver: SolverChoice,
    /// The live encoding when probing incrementally. Boxed: it holds
    /// the whole persistent solver.
    incremental: Option<Box<IncrementalEncoding<'a>>>,
    dump: Option<&'a DimacsDump>,
    /// External cancellation, threaded into every fresh solver so a
    /// deadline can abandon it mid-probe.
    cancel: Option<&'a CancelToken>,
    probes: Vec<ProbeStats>,
}

impl Prober<'_> {
    /// Probes budget `k`, then logs, traces and dumps it.
    fn probe(&mut self, k: u32, tracer: &Tracer) -> Result<ProbeRun, SearchError> {
        let run = match &mut self.incremental {
            Some(inc) => {
                let p = inc.probe_traced(k, tracer);
                if p.interrupted {
                    return Err(SearchError::cancelled());
                }
                ProbeRun {
                    stats: ProbeStats {
                        k,
                        vars: p.vars,
                        clauses: p.clauses,
                        satisfiable: p.satisfiable,
                        solve_ms: p.solve_ms,
                        encode_ms: p.encode_ms,
                        solver: Some(p.stats),
                    },
                    launches: None,
                    cnf: None,
                }
            }
            None => self.probe_fresh(k)?,
        };
        // A dump failure is a hard error — a silently missing CNF
        // defeats the point of dumping.
        if let Some(dump) = self.dump {
            std::fs::create_dir_all(&dump.directory).map_err(|e| {
                SearchError::new(format!(
                    "cannot create DIMACS dump directory {}: {e}",
                    dump.directory.display()
                ))
            })?;
            let path = dump
                .directory
                .join(format!("{}_k{}.cnf", dump.label, run.stats.k));
            let cnf = run.cnf.as_ref().expect("fresh probes keep their CNF");
            std::fs::write(&path, cnf.to_dimacs()).map_err(|e| {
                SearchError::new(format!("cannot write DIMACS dump {}: {e}", path.display()))
            })?;
        }
        self.probes.push(run.stats);
        emit_probe_trace(tracer, &run.stats);
        Ok(run)
    }

    /// Encodes budget `k` standalone and solves it with a fresh solver.
    fn probe_fresh(&self, k: u32) -> Result<ProbeRun, SearchError> {
        let encode_start = Instant::now();
        let encoding = encode(self.matched, self.candidates, self.machine, k, self.options);
        let encode_ms = encode_start.elapsed().as_secs_f64() * 1e3;
        let solve_start = Instant::now();
        let (satisfiable, model, solver_stats) = match self.solver {
            SolverChoice::Cdcl => {
                let mut s = encoding.cnf.to_solver();
                if let Some(token) = self.cancel {
                    s.set_interrupt(token.handle());
                }
                match s.solve() {
                    SolveResult::Sat => (
                        true,
                        Some(s.model().expect("sat model").to_vec()),
                        Some(s.stats()),
                    ),
                    SolveResult::Unsat => (false, None, Some(s.stats())),
                    SolveResult::Interrupted => return Err(SearchError::cancelled()),
                }
            }
            SolverChoice::Dpll => {
                let flag = self.cancel.map(|token| token.handle());
                match dpll::solve_interruptible(
                    encoding.cnf.num_vars,
                    &encoding.cnf.clauses,
                    flag.as_deref(),
                ) {
                    dpll::DpllResult::Sat(m) => (true, Some(m), None),
                    dpll::DpllResult::Unsat => (false, None, None),
                    dpll::DpllResult::Interrupted => return Err(SearchError::cancelled()),
                }
            }
        };
        let solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;
        let launches = model.map(|m| encoding.true_launches(&m));
        Ok(ProbeRun {
            stats: ProbeStats {
                k,
                vars: encoding.num_vars(),
                clauses: encoding.num_clauses(),
                satisfiable,
                solve_ms,
                encode_ms,
                solver: solver_stats,
            },
            launches,
            cnf: Some(encoding.cnf),
        })
    }
}

/// Logs one probe as a retrospective `probe` span (with nested `encode`
/// and `solve` children) plus a `sat.probe` event carrying the full
/// counter set.
fn emit_probe_trace(tracer: &Tracer, stats: &ProbeStats) {
    if !tracer.is_enabled() {
        return;
    }
    let outcome = if stats.satisfiable { "sat" } else { "unsat" };
    let probe_id = tracer.complete_span(
        "probe",
        None,
        0.0,
        stats.encode_ms + stats.solve_ms,
        vec![field("k", stats.k), field("outcome", outcome)],
    );
    tracer.complete_span(
        "encode",
        probe_id,
        stats.solve_ms,
        stats.encode_ms,
        vec![field("vars", stats.vars), field("clauses", stats.clauses)],
    );
    tracer.complete_span("solve", probe_id, 0.0, stats.solve_ms, Vec::new());
    tracer.event("sat.probe", || {
        let mut fields = vec![
            field("k", stats.k),
            field("outcome", outcome),
            field("vars", stats.vars),
            field("clauses", stats.clauses),
            field("encode_ms", stats.encode_ms),
            field("solve_ms", stats.solve_ms),
        ];
        if let Some(s) = &stats.solver {
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
        fields
    });
}

/// The next budget of the geometric ascent: doubles, saturating at the
/// cycle ceiling (`max_cycles` may be near `u32::MAX`; plain `k * 2`
/// overflows in debug builds).
fn next_budget(k: u32, max_cycles: u32) -> u32 {
    k.saturating_mul(2).min(max_cycles.max(1))
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

/// [`search`] with structured tracing: ascent/binary/decode spans, one
/// retrospective `probe` span (with `encode`/`solve` children) plus a
/// `sat.probe` event per probe, in search order.
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

    let incremental = (params.incremental
        && params.solver == SolverChoice::Cdcl
        && params.dump.is_none())
    .then(|| {
        let mut inc = Box::new(IncrementalEncoding::new(
            matched, candidates, machine, options,
        ));
        if let Some(token) = &params.cancel {
            inc.set_interrupt(token.handle());
        }
        inc
    });
    let mut prober = Prober {
        matched,
        candidates,
        machine,
        options,
        solver: params.solver,
        incremental,
        dump: params.dump.as_ref(),
        cancel: params.cancel.as_ref(),
        probes: Vec::new(),
    };
    let max_cycles = params.max_cycles;

    // Geometric ascent to the first satisfiable budget.
    let ascent = tracer.span("search.ascent");
    let mut k = 1u32;
    let mut max_unsat = 0u32;
    let mut best: ProbeRun;
    loop {
        if params.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            return Err(SearchError::cancelled());
        }
        if k > max_cycles {
            return Err(SearchError::new(format!(
                "no schedule within {max_cycles} cycles"
            )));
        }
        let next = next_budget(k, max_cycles);
        let run = prober.probe(k, tracer)?;
        if run.stats.satisfiable {
            best = run;
            break;
        }
        max_unsat = k;
        if next == k {
            return Err(SearchError::new(format!(
                "no schedule within {max_cycles} cycles"
            )));
        }
        k = next;
    }
    let mut best_k = best.stats.k;
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
        if params.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            // A winner exists, but returning it would make the probe
            // log deadline-dependent; the caller degrades instead.
            return Err(SearchError::cancelled());
        }
        let mid = max_unsat + (best_k - max_unsat) / 2;
        let run = prober.probe(mid, tracer)?;
        if run.stats.satisfiable {
            best = run;
            best_k = mid;
        } else {
            max_unsat = mid;
        }
    }
    binary.finish_fields(vec![field("cycles", best_k)]);

    // The optimality certificate: K-1 was actually refuted, or K == 1
    // and launches are required (zero cycles is vacuously infeasible —
    // the zero-launch case was handled above).
    let refuted_below = best_k == 1
        || prober
            .probes
            .iter()
            .any(|p| p.k + 1 == best_k && !p.satisfiable);

    // Decode the winner. Fresh probes carry their own model's launches;
    // the incremental engine instead re-solves the winning budget's
    // standalone encoding once — both solvers are deterministic, so
    // this decodes the exact program fresh-solver mode would.
    let decode = tracer.span_fields("search.decode", vec![field("cycles", best_k)]);
    let launches = match best.launches.take() {
        Some(launches) => launches,
        None => {
            let encoding = encode(matched, candidates, machine, best_k, options);
            let mut solver = encoding.cnf.to_solver();
            match solver.solve() {
                SolveResult::Sat => encoding.true_launches(solver.model().expect("sat model")),
                _ => {
                    return Err(SearchError::new(format!(
                        "internal: budget {best_k} satisfiable under assumptions \
                         but unsatisfiable standalone"
                    )))
                }
            }
        }
    };
    let program = extract(gma, matched, candidates, machine, best_k, &launches)
        .map_err(|e| SearchError::new(e.to_string()))?;
    decode.finish_fields(vec![field("launches", launches.len())]);
    Ok(SearchOutcome {
        program,
        cycles: best_k,
        refuted_below,
        probes: prober.probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_budget_doubles_then_clamps() {
        assert_eq!(next_budget(1, 48), 2);
        assert_eq!(next_budget(2, 48), 4);
        assert_eq!(next_budget(32, 48), 48);
        assert_eq!(next_budget(48, 48), 48);
    }

    #[test]
    fn next_budget_survives_huge_ceilings() {
        // Regression: `k * 2` overflowed in debug builds once the
        // ascent passed 2^31 on a near-u32::MAX ceiling.
        assert_eq!(next_budget(1 << 31, u32::MAX), u32::MAX);
        assert_eq!(next_budget(u32::MAX, u32::MAX), u32::MAX);
        assert_eq!(next_budget(3 << 30, u32::MAX - 1), u32::MAX - 1);
        assert_eq!(next_budget(1, 0), 1);
    }
}
