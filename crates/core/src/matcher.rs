//! The matching phase: GMA goals → saturated E-graph.

use denali_axioms::{saturate_traced, Axiom, SaturationLimits, SaturationReport};
use denali_egraph::{ClassId, EGraph, EGraphError};
use denali_lang::Gma;
use denali_term::Term;
use denali_trace::{field, Tracer};

/// The saturated e-graph for a GMA, with its goal classes identified.
#[derive(Clone, Debug)]
pub struct Matched {
    /// The quiescent e-graph.
    pub egraph: EGraph,
    /// Class of the guard term, if the GMA is guarded.
    pub guard: Option<ClassId>,
    /// Classes of the register-target values, in GMA order.
    pub assigns: Vec<ClassId>,
    /// Class of the memory chain term, if the GMA stores.
    pub mem: Option<ClassId>,
    /// The memory chain term itself (needed to walk the store levels).
    pub mem_term: Option<Term>,
    /// Saturation statistics.
    pub report: SaturationReport,
}

impl Matched {
    /// All distinct canonical goal classes (guard + assigns; the memory
    /// chain is handled through its store levels, not as a value class).
    pub fn value_goal_classes(&self) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut push = |c: ClassId| {
            let c = self.egraph.find(c);
            if !out.contains(&c) {
                out.push(c);
            }
        };
        if let Some(g) = self.guard {
            push(g);
        }
        for &a in &self.assigns {
            push(a);
        }
        out
    }
}

/// Runs the matching phase of Figure 1: builds the initial e-graph from
/// the GMA's goal expressions and saturates it with `axioms` (the
/// target's axiom set — see [`denali_axioms::axioms_for`] — plus any
/// program-specific axioms).
///
/// # Errors
///
/// Propagates e-graph contradictions (unsound axioms).
pub fn match_gma(
    gma: &Gma,
    axioms: &[Axiom],
    limits: &SaturationLimits,
) -> Result<Matched, EGraphError> {
    match_gma_traced(gma, axioms, limits, &Tracer::disabled())
}

/// [`match_gma`] with structured tracing: goal-term loading is logged
/// as a `match.goals` event and the saturation rounds record their own
/// spans (see [`denali_axioms::saturate_traced`]).
///
/// # Errors
///
/// Propagates e-graph contradictions (unsound axioms).
pub fn match_gma_traced(
    gma: &Gma,
    axioms: &[Axiom],
    limits: &SaturationLimits,
    tracer: &Tracer,
) -> Result<Matched, EGraphError> {
    let mut egraph = EGraph::new();
    egraph.set_class_capacity(limits.max_classes);
    let guard = gma.guard.as_ref().map(|g| egraph.add_term(g)).transpose()?;
    let assigns = gma
        .assigns
        .iter()
        .map(|(_, t)| egraph.add_term(t))
        .collect::<Result<Vec<_>, _>>()?;
    let mem = gma.mem.as_ref().map(|m| egraph.add_term(m)).transpose()?;
    tracer.event("match.goals", || {
        vec![
            field("guarded", guard.is_some()),
            field("assigns", assigns.len()),
            field("mem", mem.is_some()),
            field("nodes", egraph.num_nodes()),
            field("classes", egraph.num_classes()),
        ]
    });

    let report = saturate_traced(&mut egraph, axioms, limits, tracer)?;

    Ok(Matched {
        guard: guard.map(|c| egraph.find(c)),
        assigns: assigns.iter().map(|&c| egraph.find(c)).collect(),
        mem: mem.map(|c| egraph.find(c)),
        mem_term: gma.mem.clone(),
        egraph,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_lang::{lower_proc, parse_program};

    fn gma_of(text: &str) -> Gma {
        let p = parse_program(text).unwrap();
        lower_proc(&p.procs[0]).unwrap().remove(0)
    }

    #[test]
    fn figure2_matching() {
        let gma = gma_of("(procdecl f ((reg6 long)) long (:= (res (+ (* reg6 4) 1))))");
        let m = match_gma(
            &gma,
            &denali_axioms::axioms_for("ev6"),
            &SaturationLimits::default(),
        )
        .unwrap();
        assert!(m.report.saturated);
        assert_eq!(m.assigns.len(), 1);
        let ops: Vec<String> = m
            .egraph
            .nodes(m.assigns[0])
            .iter()
            .filter_map(|n| n.sym().map(|s| s.to_string()))
            .collect();
        assert!(ops.contains(&"s4addq".to_owned()), "{ops:?}");
        assert_eq!(m.value_goal_classes().len(), 1);
    }

    #[test]
    fn guarded_gma_has_guard_class() {
        let gma = gma_of(
            "(procdecl f ((p long*) (q long*)) long
               (do (-> (<u p q) (:= (p (+ p 8))))))",
        );
        let m = match_gma(
            &gma,
            &denali_axioms::axioms_for("ev6"),
            &SaturationLimits::default(),
        )
        .unwrap();
        assert!(m.guard.is_some());
        assert!(m.value_goal_classes().len() >= 2);
    }

    #[test]
    fn program_axioms_extend_matching() {
        // Without the carry axioms, `carry` has no machine realization;
        // with them it becomes cmpult(add64(a,b), a).
        let gma = gma_of("(procdecl f ((a long) (b long)) long (:= (res (carry a b))))");
        let m_without = match_gma(
            &gma,
            &denali_axioms::axioms_for("ev6"),
            &SaturationLimits::default(),
        )
        .unwrap();
        let ops: Vec<String> = m_without
            .egraph
            .nodes(m_without.assigns[0])
            .iter()
            .filter_map(|n| n.sym().map(|s| s.to_string()))
            .collect();
        assert_eq!(ops, vec!["carry".to_owned()]);

        let axiom_form = denali_term::sexpr::parse_one(
            "(axiom (forall (a b) (eq (carry a b) (cmpult (add64 a b) a))))",
        )
        .unwrap();
        let axiom = Axiom::parse_sexpr(&axiom_form, "carry-def").unwrap();
        let mut axioms = denali_axioms::axioms_for("ev6");
        axioms.push(axiom);
        let m_with = match_gma(&gma, &axioms, &SaturationLimits::default()).unwrap();
        let ops: Vec<String> = m_with
            .egraph
            .nodes(m_with.assigns[0])
            .iter()
            .filter_map(|n| n.sym().map(|s| s.to_string()))
            .collect();
        assert!(ops.contains(&"cmpult".to_owned()), "{ops:?}");
    }
}
