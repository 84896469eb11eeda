//! An independent jumping-refinement checker.
//!
//! Given a program and a completed MSSP run (with commit tracing enabled),
//! [`check_refinement`] re-executes the sequential machine and verifies
//! the formal claim end to end:
//!
//! 1. every commit-point PC appears in the sequential PC trace, in order
//!    (the "jumps" of the jumping refinement land only on real sequential
//!    states), and
//! 2. the final architected state equals the sequential final state on
//!    every register and every word of memory either execution touched.
//!
//! The checker is deliberately independent of the engine's internals — it
//! consumes only the public [`MsspRun`] — so it can serve as an oracle
//! when modifying the engine.

use std::fmt;

use mssp_isa::{Program, Reg};
use mssp_machine::SeqMachine;

use crate::MsspRun;

/// A refinement violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefinementError {
    /// The run carried no commit trace (enable it with
    /// [`crate::Engine::enable_commit_trace`]).
    NoTrace,
    /// A commit-point PC was not found in (the remainder of) the
    /// sequential trace.
    CommitOutOfOrder {
        /// Index within the commit trace.
        index: usize,
        /// The offending PC.
        pc: u64,
    },
    /// A register differs between the final states.
    RegisterMismatch {
        /// The register.
        reg: Reg,
        /// MSSP's committed value.
        mssp: u64,
        /// The sequential machine's value.
        seq: u64,
    },
    /// A memory word differs between the final states.
    MemoryMismatch {
        /// Word index (byte address / 8).
        widx: u64,
        /// MSSP's committed value.
        mssp: u64,
        /// The sequential machine's value.
        seq: u64,
    },
    /// The sequential machine faulted (the program itself is broken).
    SeqFault(String),
}

impl fmt::Display for RefinementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefinementError::NoTrace => write!(f, "run has no commit trace"),
            RefinementError::CommitOutOfOrder { index, pc } => {
                write!(f, "commit #{index} at {pc:#x} breaks sequential order")
            }
            RefinementError::RegisterMismatch { reg, mssp, seq } => {
                write!(f, "register {reg}: mssp {mssp:#x} != seq {seq:#x}")
            }
            RefinementError::MemoryMismatch { widx, mssp, seq } => {
                write!(
                    f,
                    "memory word {:#x}: mssp {mssp:#x} != seq {seq:#x}",
                    widx << 3
                )
            }
            RefinementError::SeqFault(e) => write!(f, "sequential machine faulted: {e}"),
        }
    }
}

impl std::error::Error for RefinementError {}

/// Verifies that `run` is a jumping refinement of the sequential execution
/// of `program`. See the `refinement` module documentation.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_refinement(program: &Program, run: &MsspRun) -> Result<(), RefinementError> {
    let trace = run
        .commit_trace
        .as_deref()
        .ok_or(RefinementError::NoTrace)?;

    // Build the sequential PC trace and final state.
    let mut seq_pcs = vec![program.entry()];
    let mut machine = SeqMachine::boot(program);
    loop {
        let info = machine
            .step()
            .map_err(|e| RefinementError::SeqFault(e.to_string()))?;
        if info.halted {
            seq_pcs.push(info.pc);
            break;
        }
        seq_pcs.push(info.next_pc);
    }

    // 1. Ordered-subsequence check.
    let mut pos = 0usize;
    for (index, &pc) in trace.iter().enumerate() {
        match seq_pcs[pos..].iter().position(|&s| s == pc) {
            Some(off) => pos += off,
            None => return Err(RefinementError::CommitOutOfOrder { index, pc }),
        }
    }

    // 2. Final-state equality: registers...
    let seq_state = machine.state();
    for reg in Reg::all() {
        let (m, s) = (run.state.reg(reg), seq_state.reg(reg));
        if m != s {
            return Err(RefinementError::RegisterMismatch {
                reg,
                mssp: m,
                seq: s,
            });
        }
    }
    // ...and every memory word either side touched.
    let words: std::collections::BTreeSet<u64> = run
        .state
        .mem()
        .iter_words()
        .map(|(w, _)| w)
        .chain(seq_state.mem().iter_words().map(|(w, _)| w))
        .collect();
    for widx in words {
        let (m, s) = (run.state.load_word(widx), seq_state.load_word(widx));
        if m != s {
            return Err(RefinementError::MemoryMismatch {
                widx,
                mssp: m,
                seq: s,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, UnitCost};
    use mssp_analysis::Profile;
    use mssp_distill::{distill, DistillConfig};
    use mssp_isa::asm::assemble;

    fn fixture() -> (Program, mssp_distill::Distilled) {
        let p = assemble(
            "main:  addi s0, zero, 150
             loop:  add  s1, s1, s0
                    sd   s1, -8(sp)
                    addi s0, s0, -1
                    bnez s0, loop
                    halt",
        )
        .unwrap();
        let profile = Profile::collect(&p, u64::MAX).unwrap();
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        (p, d)
    }

    #[test]
    fn honest_run_passes() {
        let (p, d) = fixture();
        let mut engine = Engine::new(&p, &d, EngineConfig::default(), UnitCost);
        engine.enable_commit_trace();
        let run = engine.run().unwrap();
        check_refinement(&p, &run).unwrap();
    }

    #[test]
    fn missing_trace_is_reported() {
        let (p, d) = fixture();
        let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
            .run()
            .unwrap();
        assert_eq!(check_refinement(&p, &run), Err(RefinementError::NoTrace));
    }

    #[test]
    fn corrupted_state_is_caught() {
        let (p, d) = fixture();
        let mut engine = Engine::new(&p, &d, EngineConfig::default(), UnitCost);
        engine.enable_commit_trace();
        let mut run = engine.run().unwrap();
        // Sabotage the final state: the checker must notice.
        let v = run.state.reg(Reg::S1);
        run.state.set_reg(Reg::S1, v ^ 1);
        assert!(matches!(
            check_refinement(&p, &run),
            Err(RefinementError::RegisterMismatch { reg, .. }) if reg == Reg::S1
        ));
    }

    #[test]
    fn corrupted_memory_is_caught() {
        let (p, d) = fixture();
        let mut engine = Engine::new(&p, &d, EngineConfig::default(), UnitCost);
        engine.enable_commit_trace();
        let mut run = engine.run().unwrap();
        let widx = (mssp_isa::STACK_TOP - 8) >> 3;
        let v = run.state.load_word(widx);
        run.state.store_word(widx, v.wrapping_add(7));
        assert!(matches!(
            check_refinement(&p, &run),
            Err(RefinementError::MemoryMismatch { .. })
        ));
    }

    #[test]
    fn forged_trace_is_caught() {
        let (p, d) = fixture();
        let mut engine = Engine::new(&p, &d, EngineConfig::default(), UnitCost);
        engine.enable_commit_trace();
        let mut run = engine.run().unwrap();
        // Insert a PC that the sequential machine never reaches after the
        // halt (out-of-order by construction).
        if let Some(trace) = &mut run.commit_trace {
            trace.push(p.entry());
        }
        assert!(matches!(
            check_refinement(&p, &run),
            Err(RefinementError::CommitOutOfOrder { .. })
        ));
    }
}
