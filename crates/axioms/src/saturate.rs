//! The matching phase: saturate an e-graph with axiom instances.
//!
//! "The matcher repeatedly transforms the E-graph by instantiating a
//! relevant axiom and asserting the instance in the E-graph. This is
//! repeated until a quiescent state is reached in which the E-graph
//! records all relevant instances of axioms." (§5)
//!
//! # Rounds
//!
//! Every round of a phase does the same thing: it adds the power-of-two
//! facts for every constant class, e-matches every pattern against all
//! of its top-level candidates, replays the matches against the
//! per-axiom `applied` sets and the round's budgets, applies what
//! survives and rebuilds. A round that changes nothing ends the phase
//! as saturated; since that round was itself a full match, quiescence
//! is certified against the whole e-graph.

use std::collections::HashSet;
use std::hash::Hash;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use denali_egraph::{
    candidates, ematch_classes_with, index_key, ClassId, EGraph, EGraphError, EqLiteral, SeededSet,
    Subst,
};
use denali_term::{Op, Symbol, Term};
use denali_trace::{field, Tracer};

use crate::axiom::{for_each_var, Axiom, AxiomBody, AxiomPriority};

/// Budgets that keep the matcher from running forever (the paper's
/// caveat: heuristics may stop it before true quiescence, which is one
/// reason Denali's output is "near-optimal" rather than "optimal").
#[derive(Clone, Copy, Debug)]
pub struct SaturationLimits {
    /// Maximum number of match-apply rounds.
    pub max_iterations: usize,
    /// Stop once the e-graph holds this many e-nodes.
    pub max_nodes: usize,
    /// Maximum axiom instances applied per round.
    pub max_instances_per_round: usize,
    /// Maximum *structural* (commutativity/associativity) instances
    /// applied per round; these regroup terms without adding meaning and
    /// are the main driver of saturation divergence.
    pub max_structural_per_round: usize,
    /// Node-growth allowance for the structural (AC-closure) phase,
    /// beyond the size the semantic phase reached. The AC closure of a
    /// mixed-decomposition e-graph is astronomically large; this is the
    /// principal "stop the matcher" heuristic and the main reason output
    /// is "near-optimal" rather than "optimal".
    pub max_structural_growth: usize,
    /// Hard ceiling on the number of e-classes the e-graph may allocate
    /// (see [`denali_egraph::EGraph::set_class_capacity`]). Unlike
    /// `max_nodes` — a soft budget checked between rounds — this is
    /// enforced on every allocation and turns exhaustion into a clean
    /// `TooManyClasses` error instead of aborting the process. The
    /// default is the e-graph's structural ceiling (`u32::MAX` class
    /// ids), i.e. effectively unlimited.
    pub max_classes: usize,
}

impl Default for SaturationLimits {
    fn default() -> SaturationLimits {
        SaturationLimits {
            max_iterations: 16,
            max_nodes: 20_000,
            max_instances_per_round: 10_000,
            max_structural_per_round: 1500,
            max_structural_growth: 4000,
            max_classes: u32::MAX as usize,
        }
    }
}

/// Counters and timing for one match-apply round.
#[derive(Clone, Copy, Default, Debug)]
pub struct RoundStats {
    /// Top-level candidate classes e-matched (summed over every axiom
    /// pattern).
    pub scanned: usize,
    /// Axiom instances applied this round.
    pub instances: usize,
    /// Wall-clock time for the round, in milliseconds: what its
    /// `saturate.round` span's `finish` returned.
    pub ms: f64,
}

/// What the saturation run did.
#[derive(Clone, Default, Debug)]
pub struct SaturationReport {
    /// Rounds executed.
    pub iterations: usize,
    /// Axiom instances asserted.
    pub instances: usize,
    /// True if a quiescent state was reached within the budgets.
    pub saturated: bool,
    /// Final e-node count.
    pub nodes: usize,
    /// Final class count.
    pub classes: usize,
    /// Total top-level candidate classes e-matched across all rounds.
    pub scanned_candidates: usize,
    /// Always 0: every round scans every candidate. Kept because
    /// `pipeline_bench` reads it for `match.skip_ratio`.
    pub skipped_candidates: usize,
    /// Per-round telemetry, one entry per iteration, in execution order.
    pub rounds: Vec<RoundStats>,
}

impl SaturationReport {
    fn absorb(&mut self, other: SaturationReport) {
        self.iterations += other.iterations;
        self.instances += other.instances;
        self.saturated &= other.saturated;
        self.nodes = other.nodes;
        self.classes = other.classes;
        self.scanned_candidates += other.scanned_candidates;
        self.rounds.extend(other.rounds);
    }
}

/// True if the axiom's equality right-hand side introduces at most one
/// new node (an operator applied directly to bound variables and
/// constants). Such axioms cannot cascade: applying them to a class adds
/// a bounded number of nodes.
fn simple_rhs(axiom: &Axiom) -> bool {
    match &axiom.body {
        AxiomBody::Equal(_, rhs) => rhs.args().iter().all(|a| a.args().is_empty()),
        _ => false,
    }
}

/// Saturates `egraph` with instances of `axioms` until quiescence or
/// until a budget in `limits` is exhausted.
///
/// Saturation runs in two phases, which is how this reproduction
/// realizes the paper's "heuristics that are designed to keep the
/// matcher from running forever":
///
/// 1. **Semantic phase** — every non-structural axiom (definitions,
///    expansions, simplifications) runs to quiescence on the original
///    term structure.
/// 2. **Structural phase** — commutativity/associativity instances plus
///    the *simple* defining axioms (those whose right-hand side is a
///    single operator over bound variables, e.g. the `or64 → bis`
///    bridges) compute the AC closure. Excluding the expansion axioms
///    here prevents the cascade where every new regrouping re-triggers
///    mask/shift expansions of its subterms.
///
/// # Errors
///
/// Propagates contradictions from the e-graph (which indicate an unsound
/// axiom set).
pub fn saturate(
    egraph: &mut EGraph,
    axioms: &[Axiom],
    limits: &SaturationLimits,
) -> Result<SaturationReport, EGraphError> {
    saturate_traced(egraph, axioms, limits, &Tracer::disabled())
}

/// [`saturate`] with structured tracing: per-phase and per-round spans,
/// `egraph.stats` / `ematch.axiom` / `ematch.chunk` events. With a
/// disabled tracer this *is* [`saturate`] — the applied instance
/// sequence is identical either way (tracing only observes).
///
/// # Errors
///
/// As [`saturate`].
pub fn saturate_traced(
    egraph: &mut EGraph,
    axioms: &[Axiom],
    limits: &SaturationLimits,
    tracer: &Tracer,
) -> Result<SaturationReport, EGraphError> {
    let phase1: Vec<&Axiom> = axioms
        .iter()
        .filter(|a| a.priority != AxiomPriority::Structural)
        .collect();
    let phase2: Vec<&Axiom> = axioms
        .iter()
        .filter(|a| a.priority == AxiomPriority::Structural || simple_rhs(a))
        .collect();
    let mut report = saturate_phase(egraph, &phase1, limits, tracer, 1)?;
    let phase2_limits = SaturationLimits {
        max_iterations: limits.max_iterations.min(8),
        max_nodes: limits
            .max_nodes
            .min(egraph.num_nodes() + limits.max_structural_growth),
        ..*limits
    };
    let r2 = saturate_phase(egraph, &phase2, &phase2_limits, tracer, 2)?;
    report.absorb(r2);
    Ok(report)
}

/// What is static about one axiom during a phase.
struct AxiomPlan {
    /// The axiom's variable table ([`Axiom::var_table`]): slot `i` of
    /// each of its matches binds `vars[i]`.
    vars: Vec<Symbol>,
    /// The slots of its side condition's variables, in the condition's
    /// order (empty without a condition; only a firing trigger's
    /// matches read it).
    condition: Vec<usize>,
}

/// One trigger of a phase's work list.
struct Trigger<'a> {
    /// Index of its axiom in the phase.
    axiom: usize,
    pattern: &'a Term,
    /// Index of its candidate list among the round's lists, one per
    /// distinct [`index_key`].
    head: usize,
    /// False when no match of the trigger can instantiate its axiom,
    /// because the trigger leaves a body variable or a side-condition
    /// variable unbound. Such a trigger is never matched; its matches
    /// would all be dropped.
    fires: bool,
}

/// A phase's axioms and what the matcher works out about them once.
struct PhasePlan<'a> {
    axioms: &'a [&'a Axiom],
    /// One per axiom.
    axiom_plans: Vec<AxiomPlan>,
    /// Every trigger of every axiom, in axiom order.
    triggers: Vec<Trigger<'a>>,
    /// One pattern per distinct [`index_key`] among the triggers: each
    /// round computes the candidates of these.
    heads: Vec<&'a Term>,
}

impl<'a> PhasePlan<'a> {
    /// Numbers every axiom's variables and lists every trigger with its
    /// candidate list and whether it can fire.
    ///
    /// # Errors
    ///
    /// A `TooManyVariables` error if an axiom, or its side condition,
    /// has more variables than a [`Subst`] has slots.
    fn new(axioms: &'a [&'a Axiom]) -> Result<PhasePlan<'a>, EGraphError> {
        let mut axiom_plans = Vec::with_capacity(axioms.len());
        // Per axiom, the slots a trigger must bind to fire: every body
        // and side-condition variable's. `None` when a condition
        // variable appears in no term, so no trigger binds it.
        let mut needed = Vec::with_capacity(axioms.len());
        for axiom in axioms {
            let vars = axiom.var_table();
            if vars.len() > Subst::CAPACITY {
                let owner = format!("axiom {}", axiom.name);
                return Err(EGraphError::too_many_variables(&owner, vars.len()));
            }
            let cond_vars = axiom.condition.as_ref().map_or(&[][..], |c| &c.vars[..]);
            if cond_vars.len() > Subst::CAPACITY {
                let owner = format!("the side condition of axiom {}", axiom.name);
                return Err(EGraphError::too_many_variables(&owner, cond_vars.len()));
            }
            let mut slots = axiom.body_terms().fold(0, |m, t| m | slot_mask(t, &vars));
            let mut condition = Vec::with_capacity(cond_vars.len());
            let mut bindable = true;
            for &v in cond_vars {
                match vars.iter().position(|&w| w == v) {
                    Some(slot) => {
                        condition.push(slot);
                        slots |= 1 << slot;
                    }
                    None => bindable = false,
                }
            }
            needed.push(bindable.then_some(slots));
            axiom_plans.push(AxiomPlan { vars, condition });
        }
        let mut heads: Vec<&Term> = Vec::new();
        let mut triggers = Vec::new();
        for (axiom_idx, axiom) in axioms.iter().enumerate() {
            for pattern in &axiom.patterns {
                let key = index_key(pattern);
                let head = match heads.iter().position(|h| index_key(h) == key) {
                    Some(head) => head,
                    None => {
                        heads.push(pattern);
                        heads.len() - 1
                    }
                };
                let bound = slot_mask(pattern, &axiom_plans[axiom_idx].vars);
                let fires = needed[axiom_idx].is_some_and(|slots| slots & !bound == 0);
                triggers.push(Trigger {
                    axiom: axiom_idx,
                    pattern,
                    head,
                    fires,
                });
            }
        }
        Ok(PhasePlan {
            axioms,
            axiom_plans,
            triggers,
            heads,
        })
    }
}

/// The slots `term`'s variables take in the table `vars`, as a mask.
/// Every variable of an axiom's terms is in its table.
fn slot_mask(term: &Term, vars: &[Symbol]) -> u8 {
    let mut mask = 0;
    for_each_var(term, &mut |v| {
        if let Some(slot) = vars.iter().position(|&w| w == v) {
            mask |= 1 << slot;
        }
    });
    mask
}

fn saturate_phase(
    egraph: &mut EGraph,
    axioms: &[&Axiom],
    limits: &SaturationLimits,
    tracer: &Tracer,
    phase: u64,
) -> Result<SaturationReport, EGraphError> {
    let plan = PhasePlan::new(axioms)?;
    let phase_span = tracer.span_fields(
        "saturate.phase",
        vec![field("phase", phase), field("axioms", axioms.len())],
    );
    let mut report = SaturationReport::default();
    // Each axiom's applied instances. Every class a match binds is
    // canonical in the e-graph it was matched in, so a match is its own
    // dedup key.
    let mut applied: Vec<SeededSet<Subst>> = vec![SeededSet::default(); axioms.len()];
    let mut pow2_done: HashSet<u64> = HashSet::new();

    egraph.rebuild()?;

    for _ in 0..limits.max_iterations {
        report.iterations += 1;
        let mut stats = RoundStats::default();
        let round_span = tracer.span_fields(
            "saturate.round",
            vec![field("round", report.iterations), field("phase", phase)],
        );
        let ops_before = egraph.op_counts();
        let mut rebuild_time = Duration::ZERO;
        let mut any_change = false;

        // Dynamic constant facts: for every constant class holding a
        // power of two, record c = pow(2, log2 c) so patterns like
        // k * 2**n can match literal constants; for byte-shift amounts
        // (multiples of 8 below 64) record c = 8 * (c/8) so the
        // byte-instruction definitions (insbl = selectb << 8*i) can
        // match literal shift counts. Each constant is handled once per
        // phase, in canonical class-id order. This is the paper's
        // `4 = 2**2` step in Figure 2.
        let constants: Vec<u64> = egraph
            .classes()
            .iter()
            .filter_map(|&c| egraph.constant(c))
            .collect();
        for c in constants {
            if !pow2_done.insert(c) {
                continue;
            }
            if c.is_power_of_two() && c >= 2 {
                let k = c.trailing_zeros() as u64;
                let pow = Term::call("pow", vec![Term::constant(2), Term::constant(k)]);
                // Adding the term folds it into c's class eagerly.
                egraph.add_term(&pow)?;
                any_change = true;
            }
            if c % 8 == 0 && c < 64 {
                let shift = Term::call("mul64", vec![Term::constant(8), Term::constant(c / 8)]);
                egraph.add_term(&shift)?;
                any_change = true;
            }
        }
        timed_rebuild(egraph, &mut rebuild_time)?;

        let (instances, truncated, replay_time) =
            match_and_replay(egraph, &plan, limits, &mut applied, &mut stats, tracer);
        stats.instances = instances.len();
        let apply_start = Instant::now();
        apply_instances(egraph, &plan, instances, &mut report)?;
        let apply_time = apply_start.elapsed();
        if stats.instances > 0 {
            any_change = true;
        }
        timed_rebuild(egraph, &mut rebuild_time)?;

        report.scanned_candidates += stats.scanned;
        emit_egraph_stats(egraph, ops_before, rebuild_time, tracer);
        stats.ms = round_span.finish_fields(vec![
            field("scanned", stats.scanned),
            field("instances", stats.instances),
            field("truncated", truncated),
            field("replay_us", replay_time.as_micros() as u64),
            field("apply_us", apply_time.as_micros() as u64),
        ]);
        report.rounds.push(stats);

        if !any_change {
            report.saturated = true;
            break;
        }
        if egraph.num_nodes() >= limits.max_nodes {
            break;
        }
    }

    report.nodes = egraph.num_nodes();
    report.classes = egraph.num_classes();
    phase_span.finish_fields(vec![
        field("iterations", report.iterations),
        field("instances", report.instances),
        field("saturated", report.saturated),
        field("nodes", report.nodes),
        field("classes", report.classes),
    ]);
    Ok(report)
}

/// Runs [`EGraph::rebuild`] and adds its wall time to `spent`.
fn timed_rebuild(egraph: &mut EGraph, spent: &mut Duration) -> Result<(), EGraphError> {
    let start = Instant::now();
    let result = egraph.rebuild();
    *spent += start.elapsed();
    result
}

/// Emits the per-round `egraph.stats` event: what the e-graph did since
/// `before` (deltas) and how long the round's rebuilds took, plus its
/// current size (gauges).
fn emit_egraph_stats(
    egraph: &EGraph,
    before: denali_egraph::OpCounts,
    rebuild_time: Duration,
    tracer: &Tracer,
) {
    tracer.event("egraph.stats", || {
        let d = egraph.op_counts().since(before);
        let mem = egraph.memory_stats();
        vec![
            field("adds", d.adds),
            field("hits", d.hits),
            field("new_nodes", d.new_nodes),
            field("unions", d.unions),
            field("congruence_unions", d.congruence_unions),
            field("folds", d.folds),
            field("rebuilds", d.rebuilds),
            field("walks", d.walks),
            field("walked_parents", d.walked_parents),
            field("rebuild_us", rebuild_time.as_micros() as u64),
            field("nodes", egraph.num_nodes()),
            field("classes", egraph.num_classes()),
            // Memory gauges for the arena/SoA storage: payload bytes,
            // so the values are deterministic for a given graph shape.
            field("arena_bytes", mem.arena_bytes),
            field("slice_bytes", mem.slice_bytes),
            field("slice_entries", mem.slice_entries),
            field("mem_bytes", mem.total_bytes),
            field("bytes_per_node", mem.bytes_per_node().round() as u64),
        ]
    });
}

/// One match pass plus the serial replay: e-matches every trigger, then
/// deduplicates and budgets the matches in axiom order. Returns the
/// instances to apply, whether any budget truncated work (the next
/// round's match finds the discarded matches again) and how long the
/// replay took.
fn match_and_replay(
    egraph: &EGraph,
    plan: &PhasePlan,
    limits: &SaturationLimits,
    applied: &mut [SeededSet<Subst>],
    stats: &mut RoundStats,
    tracer: &Tracer,
) -> (Vec<(usize, Subst)>, bool, Duration) {
    let axioms = plan.axioms;
    // Per-axiom trace counters, accumulated alongside the round stats
    // and emitted as `ematch.axiom` events after the serial replay.
    let mut axiom_scanned = vec![0u64; axioms.len()];
    let mut axiom_matches = vec![0u64; axioms.len()];
    // Triggers with the same index key share one candidate list.
    let head_candidates: Vec<Vec<ClassId>> = plan
        .heads
        .iter()
        .map(|pattern| candidates(egraph, pattern))
        .collect();

    // Collect this round's matches, one trigger at a time in work
    // order. The e-graph is only read here: side-condition filtering
    // needs no mutation, and the stateful parts are replayed below.
    let mut per_pattern: Vec<Vec<Subst>> = Vec::with_capacity(plan.triggers.len());
    // A structural axiom's patterns feed one queue. The replay's
    // round-robin takes a prefix of it holding at most
    // `max_structural_per_round` distinct keys not yet in `applied`, so
    // a structural pattern keeps only such entries and its stream stops
    // once the axiom's queue holds one distinct key more than that. The
    // round-robin's prefix ends before that entry, which still marks the
    // round truncated. Only the round-robin writes a structural axiom's
    // `applied` set, so it reads here as it will there. `queued` holds
    // the distinct keys of the current structural axiom's queue.
    let mut queued: SeededSet<Subst> = SeededSet::default();
    for (pi, trigger) in plan.triggers.iter().enumerate() {
        let axiom_idx = trigger.axiom;
        let cands = &head_candidates[trigger.head];
        stats.scanned += cands.len();
        axiom_scanned[axiom_idx] += cands.len() as u64;

        let match_start = Instant::now();
        let axiom = &axioms[axiom_idx];
        let axiom_plan = &plan.axiom_plans[axiom_idx];
        let structural = axiom.priority == AxiomPriority::Structural;
        if pi == 0 || plan.triggers[pi - 1].axiom != axiom_idx {
            queued.clear();
        }
        let full = |queued: &SeededSet<Subst>| queued.len() > limits.max_structural_per_round;
        let mut enumerated = 0u64;
        let mut out = Vec::new();
        if trigger.fires && !(structural && full(&queued)) {
            let _ = ematch_classes_with(
                egraph,
                trigger.pattern,
                &axiom_plan.vars,
                cands,
                |_, subst| {
                    if !admits(egraph, axiom, &axiom_plan.condition, &subst) {
                        return ControlFlow::Continue(());
                    }
                    enumerated += 1;
                    if structural {
                        if applied[axiom_idx].contains(&subst) {
                            return ControlFlow::Continue(());
                        }
                        queued.insert(subst);
                    }
                    out.push(subst);
                    if structural && full(&queued) {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
        }
        if !cands.is_empty() {
            tracer.event("ematch.chunk", || {
                vec![
                    field("axiom", axiom.name.clone()),
                    field("pattern", pi),
                    field("candidates", cands.len()),
                    field("matches", enumerated),
                    field("match_us", match_start.elapsed().as_micros() as u64),
                ]
            });
        }
        axiom_matches[axiom_idx] += enumerated;
        per_pattern.push(out);
    }

    #[cfg(test)]
    let oracle = tests::replay_everything(egraph, plan, limits, applied);
    let replay_start = Instant::now();
    let (instances, truncated, axiom_applied) = replay(axioms, limits, per_pattern, applied);
    let replay_time = replay_start.elapsed();
    #[cfg(test)]
    tests::assert_round_matches_oracle(oracle, plan, &instances, truncated, applied);
    // Per-axiom round summary, in axiom order (quiet axioms omitted).
    for (i, axiom) in axioms.iter().enumerate() {
        if axiom_scanned[i] == 0 && axiom_matches[i] == 0 && axiom_applied[i] == 0 {
            continue;
        }
        tracer.event("ematch.axiom", || {
            vec![
                field("axiom", axiom.name.clone()),
                field("scanned", axiom_scanned[i]),
                field("matches", axiom_matches[i]),
                field("applied", axiom_applied[i]),
            ]
        });
    }
    (instances, truncated, replay_time)
}

/// True if the constants `subst` binds pass `axiom`'s side condition,
/// if it has one; `condition` holds the slots of its variables. Only a
/// firing trigger's matches get here, so every one of those slots is
/// bound.
fn admits(egraph: &EGraph, axiom: &Axiom, condition: &[usize], subst: &Subst) -> bool {
    let Some(cond) = &axiom.condition else {
        return true;
    };
    let mut values = [0u64; Subst::CAPACITY];
    for (value, &slot) in values.iter_mut().zip(condition) {
        match subst.get(slot).and_then(|class| egraph.constant(class)) {
            Some(constant) => *value = constant,
            None => return false,
        }
    }
    (cond.pred)(&values[..condition.len()])
}

/// The serial replay of one round's matches, `per_pattern` in work
/// order: budget accounting and deduplication in axiom order.
/// Structural (associativity-style) instances are budgeted and shared
/// fairly across axioms so they cannot starve each other or blow the
/// e-graph up. Returns the instances to apply, whether a budget
/// truncated work, and the instances applied per axiom. A match is its
/// own key (`S` is [`Subst`]; the tests replay the substitutions of
/// the matcher before numbered slots through the same code).
fn replay<S: Clone + Eq + Hash>(
    axioms: &[&Axiom],
    limits: &SaturationLimits,
    per_pattern: Vec<Vec<S>>,
    applied: &mut [SeededSet<S>],
) -> (Vec<(usize, S)>, bool, Vec<u64>) {
    let mut axiom_applied = vec![0u64; axioms.len()];
    let mut truncated = false;
    let mut instances: Vec<(usize, S)> = Vec::new();
    let mut structural_queues: Vec<Vec<(usize, S)>> = Vec::new();
    let mut results = per_pattern.into_iter();
    'axioms: for (i, axiom) in axioms.iter().enumerate() {
        let is_structural = axiom.priority == AxiomPriority::Structural;
        let mut queue = Vec::new();
        for _ in &axiom.patterns {
            let pattern_matches = results.next().expect("one result per pattern");
            if instances.len() >= limits.max_instances_per_round {
                truncated = true;
                break 'axioms;
            }
            for subst in pattern_matches {
                if applied[i].contains(&subst) {
                    continue;
                }
                if is_structural {
                    queue.push((i, subst));
                    // Deduplication happens when the instance is
                    // actually taken from the queue below.
                    continue;
                }
                applied[i].insert(subst.clone());
                axiom_applied[i] += 1;
                instances.push((i, subst));
                if instances.len() >= limits.max_instances_per_round {
                    truncated = true;
                    break;
                }
            }
        }
        if !queue.is_empty() {
            structural_queues.push(queue);
        }
    }
    // Round-robin the structural budget across axioms. Each entry is
    // its own key, so the round-robin builds none.
    let mut budget = limits.max_structural_per_round;
    let mut cursors = vec![0usize; structural_queues.len()];
    while budget > 0 {
        let mut advanced = false;
        for (q, queue) in structural_queues.iter().enumerate() {
            if budget == 0 {
                break;
            }
            if let Some((i, subst)) = queue.get(cursors[q]) {
                cursors[q] += 1;
                advanced = true;
                if applied[*i].insert(subst.clone()) {
                    axiom_applied[*i] += 1;
                    instances.push((*i, subst.clone()));
                    budget -= 1;
                }
            }
        }
        if !advanced {
            break;
        }
    }
    if cursors
        .iter()
        .zip(&structural_queues)
        .any(|(&c, q)| c < q.len())
    {
        truncated = true;
    }
    (instances, truncated, axiom_applied)
}

/// Asserts a batch of axiom instances into the e-graph.
fn apply_instances(
    egraph: &mut EGraph,
    plan: &PhasePlan,
    instances: Vec<(usize, Subst)>,
    report: &mut SaturationReport,
) -> Result<(), EGraphError> {
    for (i, subst) in instances {
        let axiom = &plan.axioms[i];
        let vars = &plan.axiom_plans[i].vars;
        match &axiom.body {
            AxiomBody::Equal(lhs, rhs) => {
                let l = egraph.add_instantiation(lhs, vars, &subst)?;
                let r = egraph.add_instantiation(rhs, vars, &subst)?;
                egraph
                    .union(l, r)
                    .map_err(|e| EGraphError::from_message(format!("axiom {}: {e}", axiom.name)))?;
            }
            AxiomBody::Distinct(lhs, rhs) => {
                let l = egraph.add_instantiation(lhs, vars, &subst)?;
                let r = egraph.add_instantiation(rhs, vars, &subst)?;
                egraph
                    .assert_distinct(l, r)
                    .map_err(|e| EGraphError::from_message(format!("axiom {}: {e}", axiom.name)))?;
            }
            AxiomBody::Clause(lits) => {
                let mut literals = Vec::with_capacity(lits.len());
                for (is_eq, lhs, rhs) in lits {
                    let l = egraph.add_instantiation(lhs, vars, &subst)?;
                    let r = egraph.add_instantiation(rhs, vars, &subst)?;
                    literals.push(if *is_eq {
                        EqLiteral::Eq(l, r)
                    } else {
                        EqLiteral::Ne(l, r)
                    });
                }
                egraph.add_clause(literals);
            }
        }
        report.instances += 1;
    }
    Ok(())
}

/// Helper used by the Figure 2 walkthrough in tests and examples: the
/// operator symbols appearing in a class.
pub fn class_ops(egraph: &EGraph, class: ClassId) -> Vec<String> {
    egraph
        .class_node_ids(class)
        .iter()
        .filter_map(|&nid| match egraph.node_op(nid) {
            Op::Sym(s) => Some(s.to_string()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axiom::Axiom;
    use denali_egraph::EGraphErrorKind;
    use denali_prng::{forall, Rng};
    use denali_trace::{Record, Value};

    /// A substitution as the matcher kept it before numbered slots: its
    /// bindings sorted by variable. Canonicalized, it is also its key.
    type OldSubst = Vec<(Symbol, ClassId)>;

    /// What one round's replay produced, in the representation before
    /// numbered slots: the instances to apply, the truncation flag and
    /// every axiom's `applied` set afterwards.
    type Round = (Vec<(usize, OldSubst)>, bool, Vec<SeededSet<OldSubst>>);

    /// `subst` with each slot's class bound to its variable in `vars`.
    fn old_subst(subst: &Subst, vars: &[Symbol]) -> OldSubst {
        let mut bindings: OldSubst = subst.iter().map(|(slot, c)| (vars[slot], c)).collect();
        bindings.sort_unstable();
        bindings
    }

    /// The depth-first walk as it bound symbol-keyed substitutions
    /// before numbered slots.
    fn old_match_goals(
        egraph: &EGraph,
        goals: &mut Vec<(&Term, ClassId)>,
        subst: &mut OldSubst,
        emit: &mut impl FnMut(&OldSubst),
    ) {
        let Some((pattern, stored)) = goals.pop() else {
            emit(subst);
            return;
        };
        let class = egraph.find(stored);
        match pattern.op() {
            Op::Var(v) => match subst.binary_search_by_key(&v, |&(w, _)| w) {
                Ok(i) => {
                    if egraph.find(subst[i].1) == class {
                        old_match_goals(egraph, goals, subst, emit);
                    }
                }
                Err(i) => {
                    subst.insert(i, (v, class));
                    old_match_goals(egraph, goals, subst, emit);
                    subst.remove(i);
                }
            },
            Op::Const(c) => {
                if egraph.constant(class) == Some(c) {
                    old_match_goals(egraph, goals, subst, emit);
                }
            }
            Op::Sym(sym) => {
                let args = pattern.args();
                for &nid in egraph.class_node_ids(class) {
                    let children = egraph.node_children(nid);
                    if egraph.node_op(nid) != Op::Sym(sym) || children.len() != args.len() {
                        continue;
                    }
                    let below = goals.len();
                    goals.extend(args.iter().zip(children.iter().copied()).rev());
                    old_match_goals(egraph, goals, subst, emit);
                    goals.truncate(below);
                }
            }
        }
        goals.push((pattern, stored));
    }

    /// The old matcher over `classes`: each class's substitutions,
    /// deduplicated keeping first occurrences.
    fn old_ematch(egraph: &EGraph, pattern: &Term, classes: &[ClassId]) -> Vec<OldSubst> {
        let mut out = Vec::new();
        for &class in classes {
            let mut substs = Vec::new();
            old_match_goals(
                egraph,
                &mut vec![(pattern, class)],
                &mut Vec::new(),
                &mut |s: &OldSubst| substs.push(s.clone()),
            );
            let mut seen = HashSet::new();
            out.extend(substs.into_iter().filter(|s| seen.insert(s.clone())));
        }
        out
    }

    /// The old per-match test: every body variable bound, and the
    /// side condition passed.
    fn old_admits(egraph: &EGraph, axiom: &Axiom, subst: &OldSubst) -> bool {
        let get = |v: Symbol| {
            subst
                .binary_search_by_key(&v, |&(w, _)| w)
                .ok()
                .map(|i| subst[i].1)
        };
        if !axiom.body_vars().iter().all(|&v| get(v).is_some()) {
            return false;
        }
        let Some(cond) = &axiom.condition else {
            return true;
        };
        let values: Option<Vec<u64>> = cond
            .vars
            .iter()
            .map(|&v| get(v).and_then(|c| egraph.constant(c)))
            .collect();
        values.is_some_and(|vs| (cond.pred)(&vs))
    }

    /// The match pass before streaming and before numbered slots, kept
    /// as the oracle for both: every pattern's matches are enumerated in
    /// full with symbol-keyed substitutions, filtered and keyed match by
    /// match as before, then replayed from the round's `applied` sets
    /// mapped back through each axiom's variable table.
    pub(super) fn replay_everything(
        egraph: &EGraph,
        plan: &PhasePlan,
        limits: &SaturationLimits,
        applied: &[SeededSet<Subst>],
    ) -> Round {
        let mut applied = old_applied(plan, applied);
        let per_pattern = plan
            .triggers
            .iter()
            .map(|trigger| {
                let axiom = &plan.axioms[trigger.axiom];
                let cands = candidates(egraph, trigger.pattern);
                old_ematch(egraph, trigger.pattern, &cands)
                    .into_iter()
                    .filter(|s| old_admits(egraph, axiom, s))
                    .map(|s| s.into_iter().map(|(v, c)| (v, egraph.find(c))).collect())
                    .collect()
            })
            .collect();
        let (instances, truncated, _) = replay(plan.axioms, limits, per_pattern, &mut applied);
        (instances, truncated, applied)
    }

    fn old_applied(plan: &PhasePlan, applied: &[SeededSet<Subst>]) -> Vec<SeededSet<OldSubst>> {
        applied
            .iter()
            .zip(&plan.axiom_plans)
            .map(|(set, plan)| set.iter().map(|s| old_subst(s, &plan.vars)).collect())
            .collect()
    }

    /// Every round of every saturation these unit tests run checks the
    /// streamed round, mapped back through each axiom's variable table,
    /// against [`replay_everything`].
    pub(super) fn assert_round_matches_oracle(
        oracle: Round,
        plan: &PhasePlan,
        instances: &[(usize, Subst)],
        truncated: bool,
        applied: &[SeededSet<Subst>],
    ) {
        let instances: Vec<(usize, OldSubst)> = instances
            .iter()
            .map(|&(i, subst)| (i, old_subst(&subst, &plan.axiom_plans[i].vars)))
            .collect();
        assert_eq!(oracle.0, instances, "applied instance sequence");
        assert_eq!(oracle.1, truncated, "truncated flag");
        assert!(oracle.2 == old_applied(plan, applied), "applied sets");
    }

    /// Limits whose structural budget is small enough that most
    /// structural rounds are truncated; some runs also get a small
    /// instance budget.
    fn small_budgets(rng: &mut Rng) -> SaturationLimits {
        SaturationLimits {
            max_structural_per_round: rng.below(40) as usize,
            max_instances_per_round: if rng.below(4) == 0 {
                1 + rng.below(300) as usize
            } else {
                SaturationLimits::default().max_instances_per_round
            },
            ..SaturationLimits::default()
        }
    }

    /// Saturates the goal terms of one GMA, as the matching phase does,
    /// and returns how many of its rounds were truncated.
    fn saturate_goals(goals: &[Term], axioms: &[Axiom], limits: &SaturationLimits) -> usize {
        let mut eg = EGraph::new();
        for goal in goals {
            eg.add_term(goal).unwrap();
        }
        let tracer = Tracer::new();
        saturate_traced(&mut eg, axioms, limits, &tracer).unwrap();
        tracer
            .records()
            .iter()
            .filter(|r| {
                matches!(r, Record::End { .. }) && r.get("truncated") == Some(&Value::Bool(true))
            })
            .count()
    }

    /// Random goal expressions over two inputs.
    fn random_goal(rng: &mut Rng, depth: usize) -> Term {
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(3) {
                0 => Term::leaf("a"),
                1 => Term::leaf("b"),
                _ => Term::constant(rng.below(256)),
            };
        }
        let args = |rng: &mut Rng| vec![random_goal(rng, depth - 1), random_goal(rng, depth - 1)];
        match rng.below(7) {
            0 => Term::call("add64", args(rng)),
            1 => Term::call("sub64", args(rng)),
            2 => Term::call("and64", args(rng)),
            3 => Term::call("or64", args(rng)),
            4 => Term::call("xor64", args(rng)),
            5 => Term::call(
                "shl64",
                vec![random_goal(rng, depth - 1), Term::constant(rng.below(64))],
            ),
            _ => Term::call(
                "selectb",
                vec![random_goal(rng, depth - 1), Term::constant(rng.below(8))],
            ),
        }
    }

    #[test]
    fn streamed_rounds_match_the_oracle_on_random_gmas() {
        let axioms = crate::builtin::axioms_for("ev6");
        let mut truncated = 0;
        forall(
            "streamed_rounds_match_the_oracle_on_random_gmas",
            16,
            |rng| {
                // A GMA's goals: up to three assignments and maybe a guard.
                let mut goals: Vec<Term> =
                    (0..1 + rng.below(3)).map(|_| random_goal(rng, 3)).collect();
                if rng.below(3) == 0 {
                    goals.push(Term::call(
                        "cmpult",
                        vec![random_goal(rng, 2), random_goal(rng, 2)],
                    ));
                }
                truncated += saturate_goals(&goals, &axioms, &small_budgets(rng));
            },
        );
        assert!(truncated > 0, "no round was truncated");
    }

    #[test]
    fn streamed_rounds_match_the_oracle_on_the_corpus() {
        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../pipeline_bench/src/corpus"
        );
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no corpus under {dir}");
        let mut rng = Rng::new(21);
        let mut truncated = 0;
        for file in &files {
            let source = std::fs::read_to_string(file).unwrap();
            let program = denali_lang::parse_program(&source).unwrap();
            let mut axioms = crate::builtin::axioms_for("ev6");
            for (i, form) in program.axiom_forms.iter().enumerate() {
                axioms.push(Axiom::parse_sexpr(form, &format!("axiom-{i}")).unwrap());
            }
            for proc in &program.procs {
                for gma in denali_lang::lower_proc(proc).unwrap() {
                    let goals: Vec<Term> = gma
                        .guard
                        .iter()
                        .chain(gma.assigns.iter().map(|(_, t)| t))
                        .chain(&gma.mem)
                        .cloned()
                        .collect();
                    truncated += saturate_goals(&goals, &axioms, &small_budgets(&mut rng));
                }
            }
        }
        assert!(truncated > 0, "no round was truncated");
    }

    fn pat(s: &str, vars: &[&str]) -> Term {
        let vars: Vec<Symbol> = vars.iter().map(|v| Symbol::intern(v)).collect();
        Term::from_sexpr(&denali_term::sexpr::parse_one(s).unwrap(), &vars).unwrap()
    }

    #[test]
    fn commutativity_doubles_the_class() {
        let mut eg = EGraph::new();
        let sum = eg.add_term(&pat("(add64 x y)", &[])).unwrap();
        let comm = Axiom::equality(
            "add64-comm",
            &["a", "b"],
            pat("(add64 a b)", &["a", "b"]),
            pat("(add64 b a)", &["a", "b"]),
        );
        let report = saturate(&mut eg, &[comm], &SaturationLimits::default()).unwrap();
        assert!(report.saturated);
        assert!(report.instances >= 1);
        assert_eq!(eg.nodes(sum).len(), 2);
    }

    #[test]
    fn side_conditions_gate_instantiation() {
        // f(x, c) = x only when c is the constant zero.
        let mut eg = EGraph::new();
        let keep = eg.add_term(&pat("(f x 1)", &[])).unwrap();
        let fold = eg.add_term(&pat("(f x 0)", &[])).unwrap();
        let x = eg.add_term(&pat("x", &[])).unwrap();
        let ax = Axiom::equality(
            "f-zero",
            &["a", "c"],
            pat("(f a c)", &["a", "c"]),
            pat("a", &["a"]),
        )
        .with_condition(&["c"], "c == 0", |vs| vs[0] == 0);
        saturate(&mut eg, &[ax], &SaturationLimits::default()).unwrap();
        assert_eq!(eg.find(fold), eg.find(x));
        assert_ne!(eg.find(keep), eg.find(x));
    }

    #[test]
    fn pow2_facts_enable_shift_discovery() {
        let mut eg = EGraph::new();
        let mul = eg.add_term(&pat("(mul64 reg6 4)", &[])).unwrap();
        let shift_ax = Axiom::equality(
            "mul64-pow2",
            &["k", "n"],
            pat("(mul64 k (pow 2 n))", &["k", "n"]),
            pat("(shl64 k n)", &["k", "n"]),
        )
        .with_condition(&["n"], "n < 64", |vs| vs[0] < 64);
        saturate(&mut eg, &[shift_ax], &SaturationLimits::default()).unwrap();
        let ops = class_ops(&eg, mul);
        assert!(ops.contains(&"shl64".to_owned()), "ops: {ops:?}");
    }

    #[test]
    fn quiescence_is_reached_and_reported() {
        let mut eg = EGraph::new();
        eg.add_term(&pat("(add64 a (add64 b c))", &[])).unwrap();
        let axioms = crate::builtin::math_axioms();
        let report = saturate(&mut eg, &axioms, &SaturationLimits::default()).unwrap();
        assert!(report.saturated, "report: {report:?}");
        assert_eq!(
            report.rounds.len(),
            report.iterations,
            "one entry per round"
        );
    }

    #[test]
    fn node_budget_stops_runaway_saturation() {
        // Associativity+commutativity over an 8-term sum explodes; a tiny
        // node budget must stop it without error.
        let mut eg = EGraph::new();
        let mut term = pat("a0", &[]);
        for i in 1..8 {
            term = Term::call("add64", vec![term, Term::leaf(format!("a{i}"))]);
        }
        eg.add_term(&term).unwrap();
        let limits = SaturationLimits {
            max_nodes: 200,
            ..SaturationLimits::default()
        };
        let report = saturate(&mut eg, &crate::builtin::math_axioms(), &limits).unwrap();
        assert!(!report.saturated);
    }

    #[test]
    fn an_instance_budget_filled_in_the_last_pattern_truncates_the_round() {
        // F, the phase's last axiom, fills the budget of two instances
        // with its own two matches; the round's span must say truncated.
        let axioms = [
            Axiom::equality("P", &["a"], pat("(p (g a))", &["a"]), pat("(q a)", &["a"])),
            Axiom::equality("F", &["a"], pat("(f a)", &["a"]), pat("(g (t a))", &["a"])),
        ];
        let limits = SaturationLimits {
            max_instances_per_round: 2,
            ..SaturationLimits::default()
        };
        let goals = [pat("(f y)", &[]), pat("(f z)", &[])];
        assert_eq!(saturate_goals(&goals, &axioms, &limits), 1);
    }

    #[test]
    fn clause_axiom_reaches_unit_assertion() {
        // select(store(M, p, x), p+8): the select-store axiom's clause
        // must fire and equate with select(M, p+8).
        let mut eg = EGraph::new();
        let loaded = eg
            .add_term(&pat("(select (store M p x) (add64 p 8))", &[]))
            .unwrap();
        let direct = eg.add_term(&pat("(select M (add64 p 8))", &[])).unwrap();
        assert_ne!(eg.find(loaded), eg.find(direct));
        saturate(
            &mut eg,
            &crate::builtin::math_axioms(),
            &SaturationLimits::default(),
        )
        .unwrap();
        assert_eq!(eg.find(loaded), eg.find(direct));
    }

    #[test]
    fn triggers_that_leave_a_variable_unbound_are_not_matched() {
        // A programmatic axiom may carry such triggers (a parsed one may
        // not). (h a) leaves the body's b unbound and (f a) the side
        // condition's k: both have candidates, neither is matched, and
        // the round's oracle, which still tests every match, agrees.
        let axioms = [
            Axiom::equality("C", &["a", "k"], pat("(f a)", &["a"]), pat("(g a)", &["a"]))
                .with_pattern(pat("(p a k)", &["a", "k"]))
                .with_condition(&["k"], "k == 1", |vs| vs[0] == 1),
            Axiom::equality(
                "B",
                &["a", "b"],
                pat("(q a b)", &["a", "b"]),
                pat("(r a)", &["a"]),
            )
            .with_pattern(pat("(h a)", &["a"])),
        ];
        let mut eg = EGraph::new();
        let goals = ["(f x)", "(p x 1)", "(h x)", "(q x y)", "(g x)", "(r x)"];
        let ids: Vec<ClassId> = goals
            .iter()
            .map(|g| eg.add_term(&pat(g, &[])).unwrap())
            .collect();
        let tracer = Tracer::new();
        saturate_traced(&mut eg, &axioms, &SaturationLimits::default(), &tracer).unwrap();
        assert_eq!(
            eg.find(ids[0]),
            eg.find(ids[4]),
            "f(x) = g(x) through (p a k)"
        );
        assert_eq!(
            eg.find(ids[3]),
            eg.find(ids[5]),
            "q(x, y) = r(x) through (q a b)"
        );
        for record in tracer.records() {
            if let Record::Event { name, .. } = &record {
                // Patterns 0 and 3 of the work list: (f a) and (h a).
                let pattern = record.get("pattern");
                if name == "ematch.chunk" && matches!(pattern, Some(Value::U64(0 | 3))) {
                    assert_eq!(record.get("matches"), Some(&Value::U64(0)), "{record:?}");
                }
            }
        }
    }

    #[test]
    fn an_eight_variable_axiom_saturates_as_the_oracle_does() {
        // Rotating eight arguments: the orbit of (f8 x0 .. x7) is eight
        // nodes in one class, one instance per node in each phase (the
        // right side is one operator over variables, so the structural
        // phase runs the axiom again). Every round is checked against
        // the oracle, which binds by symbol.
        let vars = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let rot = Axiom::equality(
            "rot8",
            &vars,
            pat("(f8 a b c d e f g h)", &vars),
            pat("(f8 b c d e f g h a)", &vars),
        );
        let mut eg = EGraph::new();
        let goal = eg
            .add_term(&pat("(f8 x0 x1 x2 x3 x4 x5 x6 x7)", &[]))
            .unwrap();
        let report = saturate(&mut eg, &[rot], &SaturationLimits::default()).unwrap();
        assert!(report.saturated);
        assert_eq!(report.instances, 16);
        assert_eq!(eg.nodes(goal).len(), 8);
    }

    #[test]
    fn a_nine_variable_axiom_is_a_typed_error() {
        let vars = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
        let wide = Axiom::equality(
            "f9-g9",
            &vars,
            pat("(f9 a b c d e f g h i)", &vars),
            pat("(g9 a b c d e f g h i)", &vars),
        );
        let mut eg = EGraph::new();
        eg.add_term(&pat("(f9 x x x x x x x x x)", &[])).unwrap();
        let err = saturate(&mut eg, &[wide], &SaturationLimits::default()).unwrap_err();
        assert_eq!(err.kind(), EGraphErrorKind::TooManyVariables);
        assert!(err.to_string().contains("f9-g9"), "{err}");
    }

    #[test]
    fn each_pattern_is_one_ematch_chunk_per_round() {
        // 100 candidate roots for one pattern: the round e-matches them
        // in one pass and records one event with the full count.
        let mut eg = EGraph::new();
        for i in 0..100 {
            eg.add_term(&Term::call("f", vec![Term::leaf(format!("x{i}"))]))
                .unwrap();
        }
        let ax = Axiom::equality("f-g", &["a"], pat("(f a)", &["a"]), pat("(g a)", &["a"]));
        let tracer = Tracer::new();
        saturate_traced(&mut eg, &[ax], &SaturationLimits::default(), &tracer).unwrap();
        let records = tracer.records();
        let first_round = records
            .iter()
            .find_map(|r| match r {
                Record::Begin { id, name, .. } if name == "saturate.round" => Some(*id),
                _ => None,
            })
            .unwrap();
        let chunks: Vec<&Record> = records
            .iter()
            .filter(|r| {
                matches!(r, Record::Event { span: Some(s), name, .. }
                    if *s == first_round && name == "ematch.chunk")
            })
            .collect();
        assert_eq!(chunks.len(), 1, "{chunks:?}");
        assert_eq!(chunks[0].get("candidates"), Some(&Value::U64(100)));
        assert_eq!(chunks[0].get("matches"), Some(&Value::U64(100)));
    }
}
