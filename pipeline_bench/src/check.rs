//! The correctness check every emitted program passes before it counts.
//!
//! Unlike the panicking harness helpers in `denali-bench`, a failed
//! check is returned, so the benchmark can count it against the number
//! of attempts and still report every metric.

use std::collections::HashMap;

use denali_arch::{validate, Machine, Program, Simulator};
use denali_lang::Gma;
use denali_term::value::Env;
use denali_term::Symbol;

use crate::stats::Rng;

/// Input vectors simulated per program.
const VECTORS: u64 = 8;

/// Memory-touching programs get their pointer inputs inside this
/// window of initialised words, so loads read data and stores land
/// where the reference semantics can see them.
const WINDOW_BASE: u64 = 0x1000;
const WINDOW_WORDS: u64 = 128;

/// Checks `program` against the structural rules of `machine`, then
/// simulates it on [`VECTORS`] seeded input vectors and compares every
/// register output, the guard and the final memory with what
/// [`Gma::evaluate`] computes from the source.
pub fn check_program(
    machine: &Machine,
    gma: &Gma,
    program: &Program,
    seed: u64,
) -> Result<(), String> {
    validate(program, machine).map_err(|e| format!("{}: {e}", gma.name))?;
    let touches_memory = gma.touches_memory();
    let inputs = gma.inputs();
    let simulator = Simulator::new(machine);
    for vector in 0..VECTORS {
        let mut rng = Rng::stream(seed, vector);
        let memory: HashMap<u64, u64> = if touches_memory {
            (0..WINDOW_WORDS)
                .map(|w| (WINDOW_BASE + 8 * w, rng.next_u64()))
                .collect()
        } else {
            HashMap::new()
        };
        let values: Vec<(Symbol, u64)> = inputs
            .iter()
            .map(|&name| {
                let value = if touches_memory {
                    WINDOW_BASE + 8 * rng.below(WINDOW_WORDS / 2)
                } else {
                    rng.next_u64()
                };
                (name, value)
            })
            .collect();

        let mut env = Env::new();
        for &(name, value) in &values {
            env.set_word(name, value);
        }
        env.set_mem("M", memory.clone());
        // The semantics of the checksum's program-specific operations.
        env.define_op("add", |a| {
            let s = a[0].wrapping_add(a[1]);
            s.wrapping_add(u64::from(s < a[0]))
        });
        env.define_op("carry", |a| u64::from(a[0].wrapping_add(a[1]) < a[0]));
        let expected = gma
            .evaluate(&env)
            .map_err(|e| format!("{}: reference evaluation failed: {e}", gma.name))?;

        let named: Vec<(&str, u64)> = values
            .iter()
            .filter(|(name, _)| program.input_reg(*name).is_some())
            .map(|&(name, value)| (name.as_str(), value))
            .collect();
        let outcome = simulator
            .run_named(program, &named, memory.clone())
            .map_err(|e| format!("{}: simulation failed: {e}", gma.name))?;

        let guard = expected.guard.map(|g| (Symbol::intern("guard"), g));
        for (name, want) in expected.assigns.iter().copied().chain(guard) {
            let got = program
                .output_reg(name)
                .and_then(|reg| outcome.regs.get(&reg).copied());
            if got != Some(want) {
                return Err(format!(
                    "{}: vector {vector}: output {name} is {got:?}, expected {want:#x}",
                    gma.name
                ));
            }
        }
        let want_memory = expected.memory.unwrap_or(memory);
        let addresses = want_memory.keys().chain(outcome.memory.keys());
        for &address in addresses {
            let want = want_memory.get(&address).copied().unwrap_or(0);
            let got = outcome.memory.get(&address).copied().unwrap_or(0);
            if want != got {
                return Err(format!(
                    "{}: vector {vector}: memory[{address:#x}] is {got:#x}, expected {want:#x}",
                    gma.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_arch::Operand;
    use denali_core::{Denali, EngineChoice};

    fn compiled(source: &str) -> denali_core::CompileResult {
        Denali::new(crate::options(EngineChoice::Sat))
            .compile_source(source)
            .expect("fixture compiles")
    }

    #[test]
    fn emitted_programs_pass() {
        let machine = Machine::ev6();
        for fixture in [
            crate::corpus::FIGURE2,
            crate::corpus::ROWOP,
            crate::corpus::DOT4,
        ] {
            for gma in compiled(fixture.source).gmas {
                check_program(&machine, &gma.gma, &gma.program, 1)
                    .unwrap_or_else(|e| panic!("{}: {e}", fixture.name));
            }
        }
    }

    #[test]
    fn one_corrupted_instruction_is_counted_as_failed() {
        let machine = Machine::ev6();
        let result = compiled(crate::corpus::FIGURE2.source);
        let gma = &result.gmas[0];
        // Figure 2 is `s4addq reg6, 1`: bumping the literal keeps the
        // schedule legal, so only the simulation can catch it.
        let mut program = gma.program.clone();
        let instr = &mut program.instrs[0];
        instr.operands = instr
            .operands
            .iter()
            .map(|&op| match op {
                Operand::Imm(v) => Operand::Imm(v + 1),
                other => other,
            })
            .collect();
        let err = check_program(&machine, &gma.gma, &program, 1).unwrap_err();
        assert!(err.contains("output"), "{err}");

        // A memory program whose store address is corrupted fails on
        // memory, not on a register.
        let result = compiled(crate::corpus::ROWOP.source);
        let gma = &result.gmas[0];
        let mut program = gma.program.clone();
        let store = program
            .instrs
            .iter_mut()
            .find(|i| i.op.as_str() == "stq")
            .expect("rowop stores");
        store.operands[2] = Operand::Imm(8);
        let err = check_program(&machine, &gma.gma, &program, 1).unwrap_err();
        assert!(err.contains("memory"), "{err}");
    }
}
