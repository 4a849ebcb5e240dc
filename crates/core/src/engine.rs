//! Engine selection and the stochastic (MCMC) second optimizer.
//!
//! The SAT search is provably optimal but its CNF blows up on large
//! GMAs; the stochastic engine (`denali-stoke`) trades the optimality
//! proof for an anytime search that always has a *verified* answer in
//! hand. This module wires the chain into the pipeline: engine choice
//! (`--engine sat|stochastic|auto`, `DENALI_ENGINE`), equivalence-move
//! mining from the saturated e-graph, the goal-semantics oracle the
//! chain verifies against, the anytime slot the serve deadline
//! watchdog harvests when a request expires mid-compile, and the one
//! entry point every chain starts from ([`Denali::run_chain`]). The
//! chain's seed and proposal budget are [`StokeKnobs`] on the options,
//! never read from the environment.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use denali_arch::{Machine, Program};
use denali_lang::Gma;
use denali_stoke::{EquivRule, Sketch, StokeConfig, StokeOutcome, ValRef};
use denali_term::value::Env;
use denali_term::{ops, Op, Symbol, Term};

use crate::facade::Denali;
use crate::matcher::Matched;

/// Which optimizer answers a compile.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineChoice {
    /// The SAT cycle-budget search (provably optimal; the default).
    #[default]
    Sat,
    /// The stochastic (MCMC) engine only: skip SAT entirely.
    Stochastic,
    /// SAT with a stochastic safety net: an anytime prepass publishes
    /// verified candidates for deadline harvesting, and a SAT budget
    /// exhaustion ("no schedule within N cycles") falls back to a full
    /// stochastic run instead of failing.
    Auto,
}

impl EngineChoice {
    /// Parses `sat` / `stochastic` / `auto` (case-insensitive).
    pub fn parse(s: &str) -> Option<EngineChoice> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sat" => Some(EngineChoice::Sat),
            "stochastic" | "stoke" | "mcmc" => Some(EngineChoice::Stochastic),
            "auto" => Some(EngineChoice::Auto),
            _ => None,
        }
    }

    /// Canonical name (what fingerprints and response bodies carry).
    pub fn as_str(self) -> &'static str {
        match self {
            EngineChoice::Sat => "sat",
            EngineChoice::Stochastic => "stochastic",
            EngineChoice::Auto => "auto",
        }
    }
}

impl std::fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `DENALI_ENGINE` (`sat`/`stochastic`/`auto`), defaulting to `sat`.
pub fn env_engine() -> EngineChoice {
    std::env::var("DENALI_ENGINE")
        .ok()
        .and_then(|v| EngineChoice::parse(&v))
        .unwrap_or(EngineChoice::Sat)
}

/// Chain scheduling knobs, defaulting to [`StokeConfig`]'s values. No
/// request, flag or environment variable sets them, so they are
/// excluded from the compilation fingerprint (pinned by the
/// fingerprint tests).
#[derive(Clone, Copy, Debug)]
pub struct StokeKnobs {
    /// Chain seed.
    pub seed: u64,
    /// Proposal budget for a full stochastic run.
    pub iterations: u64,
}

impl Default for StokeKnobs {
    fn default() -> StokeKnobs {
        let defaults = StokeConfig::default();
        StokeKnobs {
            seed: defaults.seed,
            iterations: defaults.iterations,
        }
    }
}

/// A verified best-so-far candidate published on the anytime channel.
#[derive(Clone, Debug)]
pub struct AnytimeBest {
    /// The simulator-verified, validation-clean program.
    pub program: Program,
    /// Its schedule length.
    pub cycles: u32,
    /// Schedule length of the baseline rewrite it beats.
    pub baseline_cycles: u32,
}

/// The anytime channel: per-GMA verified best candidates, keyed by GMA
/// name. The compile pipeline publishes into the slot as the chain
/// improves; the serve deadline watchdog snapshots it when a request
/// expires so the response carries the best verified program instead
/// of the baseline.
#[derive(Clone, Default, Debug)]
pub struct AnytimeSlot {
    inner: Arc<Mutex<HashMap<String, AnytimeBest>>>,
}

impl AnytimeSlot {
    /// Creates an empty slot.
    pub fn new() -> AnytimeSlot {
        AnytimeSlot::default()
    }

    /// Records `best` for `name` if it is the first candidate or beats
    /// the recorded one.
    pub fn publish(&self, name: &str, best: AnytimeBest) {
        let mut map = self.inner.lock().expect("anytime slot poisoned");
        match map.get(name) {
            Some(prev) if prev.cycles <= best.cycles => {}
            _ => {
                map.insert(name.to_owned(), best);
            }
        }
    }

    /// The best candidate recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<AnytimeBest> {
        self.inner
            .lock()
            .expect("anytime slot poisoned")
            .get(name)
            .cloned()
    }
}

/// True when the stochastic engine can search this goal: straight-line
/// (no guard), register-only (no memory), and every operation has
/// executable semantics (checked again during sketch conversion).
pub(crate) fn stoke_supported(gma: &Gma) -> bool {
    gma.guard.is_none() && !gma.touches_memory()
}

/// Builds the goal-semantics oracle for `gma`: maps an input vector
/// (in `inputs` order) to the goal's outputs (in `outputs` order) via
/// term evaluation — independent of any generated program, so chain
/// candidates are checked against what the source *means*.
pub(crate) fn gma_oracle<'g>(
    gma: &'g Gma,
    inputs: Vec<Symbol>,
    outputs: Vec<Symbol>,
) -> impl FnMut(&[u64]) -> Option<Vec<u64>> + 'g {
    move |vals: &[u64]| {
        let mut env = Env::new();
        for (sym, v) in inputs.iter().zip(vals) {
            env.set_word(*sym, *v);
        }
        let eval = gma.evaluate(&env).ok()?;
        outputs
            .iter()
            .map(|want| {
                eval.assigns
                    .iter()
                    .find(|(name, _)| name == want)
                    .map(|&(_, v)| v)
            })
            .collect()
    }
}

/// Ceiling on mined rules per chain (deterministic prefix is kept).
const MAX_RULES: usize = 512;

/// Mines rewrite-to-equivalent moves from the saturated e-graph: for
/// each sketch cell, look up its denotation's class and turn every
/// machine-executable e-node of that class whose children are already
/// available as sketch values into an [`EquivRule`]. Read-only on the
/// e-graph; resolution is deterministic (cells ascending, class node
/// lists in arena order).
pub(crate) fn mine_equiv_rules(
    matched: &Matched,
    machine: &Machine,
    sketch: &Sketch,
) -> Vec<EquivRule> {
    let egraph = &matched.egraph;
    let mov = Symbol::intern("mov");
    let ldiq = Symbol::intern("ldiq");

    // Denotation term per cell (None when a cell mixes into territory
    // the e-graph never saw — pads referencing pads are fine, they
    // resolve through the mov chain).
    let mut terms: Vec<Option<Term>> = Vec::with_capacity(sketch.cells.len());
    let input_term = |i: usize| Term::leaf(sketch.inputs[i].0);
    for cell in &sketch.cells {
        let arg_term = |v: &ValRef| -> Option<Term> {
            match *v {
                ValRef::Input(i) => Some(input_term(i)),
                ValRef::Cell(j) => terms[j].clone(),
                ValRef::Imm(k) => Some(Term::constant(k)),
            }
        };
        let term = if cell.op == mov {
            arg_term(&cell.args[0])
        } else if cell.op == ldiq {
            match cell.args[0] {
                ValRef::Imm(v) => Some(Term::constant(v)),
                _ => None,
            }
        } else {
            cell.args
                .iter()
                .map(arg_term)
                .collect::<Option<Vec<_>>>()
                .map(|args| Term::new(Op::Sym(cell.op), args))
        };
        terms.push(term);
    }

    // Canonical class → earliest sketch value computing it.
    let mut by_class: HashMap<denali_egraph::ClassId, ValRef> = HashMap::new();
    for (i, &(sym, _)) in sketch.inputs.iter().enumerate() {
        if let Some(class) = egraph.lookup_term(&Term::leaf(sym)) {
            by_class
                .entry(egraph.find(class))
                .or_insert(ValRef::Input(i));
        }
    }

    let mut rules: Vec<EquivRule> = Vec::new();
    for (i, cell) in sketch.cells.iter().enumerate() {
        let class = terms[i]
            .as_ref()
            .and_then(|t| egraph.lookup_term(t))
            .map(|c| egraph.find(c));
        let Some(class) = class else {
            continue;
        };
        // Constant classes become ldiq materializations.
        if let Some(v) = egraph.constant(class) {
            let rule = EquivRule {
                cell: i,
                op: ldiq,
                args: vec![ValRef::Imm(v)],
            };
            let is_noop = cell.op == rule.op && cell.args == rule.args;
            if !is_noop && !rules.contains(&rule) {
                rules.push(rule);
            }
        }
        for &node in egraph.class_node_ids(class) {
            if rules.len() >= MAX_RULES {
                break;
            }
            let Op::Sym(op) = egraph.node_op(node) else {
                continue;
            };
            let name = op.as_str();
            if !machine.is_instruction(op)
                || name == "ldq"
                || name == "stq"
                || name == "mov"
                || name == "ldiq"
                || ops::info(op).is_none_or(|info| info.eval.is_none())
            {
                continue;
            }
            let args: Option<Vec<ValRef>> = egraph
                .node_children(node)
                .iter()
                .enumerate()
                .map(|(pos, &child)| {
                    let child = egraph.find(child);
                    match by_class.get(&child) {
                        Some(&v @ ValRef::Input(_)) => Some(v),
                        Some(&v @ ValRef::Cell(j)) if j < i => Some(v),
                        _ => egraph
                            .constant(child)
                            .filter(|&v| denali_stoke::imm_ok(machine, op, pos, v))
                            .map(ValRef::Imm),
                    }
                })
                .collect();
            let Some(args) = args else {
                continue;
            };
            if cell.op == op && cell.args == args {
                continue; // identity: the cell already computes this
            }
            let rule = EquivRule { cell: i, op, args };
            if !rules.contains(&rule) {
                rules.push(rule);
            }
        }
        by_class.entry(class).or_insert(ValRef::Cell(i));
        if rules.len() >= MAX_RULES {
            break;
        }
    }
    rules
}

impl Denali {
    /// One stochastic search over a single GMA, starting from its
    /// `baseline` rewrite with `iterations` proposals, the moves mined
    /// from `matched`, and the machine, seed, cancel token, tracer and
    /// anytime slot of this façade. Returns `None` when the goal is
    /// outside the engine's fragment (the caller then falls back to the
    /// baseline program untouched).
    pub(crate) fn run_chain(
        &self,
        gma: &Gma,
        matched: &Matched,
        baseline: &Program,
        iterations: u64,
    ) -> Option<StokeOutcome> {
        if !stoke_supported(gma) {
            return None;
        }
        let options = self.options();
        let machine = &options.machine;
        let config = StokeConfig {
            seed: options.stoke.seed,
            iterations,
            ..StokeConfig::default()
        };
        let sketch = Sketch::from_program(baseline, machine, config.max_cells)?;
        let rules = mine_equiv_rules(matched, machine, &sketch);
        let input_syms: Vec<Symbol> = sketch.inputs.iter().map(|&(s, _)| s).collect();
        let output_syms: Vec<Symbol> = sketch.outputs.iter().map(|&(s, _)| s).collect();
        let mut oracle = gma_oracle(gma, input_syms, output_syms);
        let baseline_cycles = baseline.cycles();
        let mut on_best = |program: &Program, cycles: u32| {
            if let Some(slot) = &options.anytime {
                if cycles < baseline_cycles {
                    slot.publish(
                        &gma.name,
                        AnytimeBest {
                            program: program.clone(),
                            cycles,
                            baseline_cycles,
                        },
                    );
                }
            }
        };
        Some(denali_stoke::optimize(
            machine,
            &sketch,
            baseline,
            &mut oracle,
            &rules,
            &config,
            options.cancel.as_ref(),
            self.tracer(),
            &mut on_best,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_choice_parses_and_round_trips() {
        assert_eq!(EngineChoice::parse("sat"), Some(EngineChoice::Sat));
        assert_eq!(EngineChoice::parse("SAT"), Some(EngineChoice::Sat));
        assert_eq!(
            EngineChoice::parse("stochastic"),
            Some(EngineChoice::Stochastic)
        );
        assert_eq!(EngineChoice::parse(" auto "), Some(EngineChoice::Auto));
        assert_eq!(EngineChoice::parse("dpll"), None);
        for e in [
            EngineChoice::Sat,
            EngineChoice::Stochastic,
            EngineChoice::Auto,
        ] {
            assert_eq!(EngineChoice::parse(e.as_str()), Some(e));
        }
    }

    #[test]
    fn anytime_slot_keeps_the_cheapest() {
        let slot = AnytimeSlot::new();
        let program = Program::default();
        slot.publish(
            "g",
            AnytimeBest {
                program: program.clone(),
                cycles: 5,
                baseline_cycles: 9,
            },
        );
        slot.publish(
            "g",
            AnytimeBest {
                program: program.clone(),
                cycles: 7,
                baseline_cycles: 9,
            },
        );
        assert_eq!(slot.get("g").unwrap().cycles, 5, "worse never overwrites");
        slot.publish(
            "g",
            AnytimeBest {
                program,
                cycles: 3,
                baseline_cycles: 9,
            },
        );
        assert_eq!(slot.get("g").unwrap().cycles, 3);
        assert!(slot.get("other").is_none());
    }
}
