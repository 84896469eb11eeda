//! An independent jumping-refinement checker.
//!
//! Given a program, the architected PCs at a run's commit points (what an
//! [`crate::Observer`] sees as [`crate::Event::commit_pc`]) and the run's
//! final state, [`check_refinement`] re-executes the sequential machine
//! and verifies the formal claim end to end:
//!
//! 1. the commit points are a strictly increasing subsequence of the
//!    sequential PC trace: each lands on a real sequential state, after
//!    the one the previous commit landed on (the "jumps" of the jumping
//!    refinement move forward only), and
//! 2. the final architected state equals the sequential final state on
//!    every register and every word of memory either execution touched.
//!
//! The checker is deliberately independent of the engine's internals — it
//! consumes only what a run reports — so it can serve as an oracle when
//! modifying the engine. It is the one subsequence check of the
//! workspace.

use std::fmt;

use mssp_isa::{Program, Reg};
use mssp_machine::{MachineState, SeqMachine};

/// A refinement violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefinementError {
    /// A commit-point PC was not found in the sequential trace after the
    /// state the previous commit point landed on.
    CommitOutOfOrder {
        /// Index within the commit points.
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

/// Verifies that a run which committed at `commits` and ended in `state`
/// is a jumping refinement of the sequential execution of `program`. See
/// the `refinement` module documentation.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_refinement(
    program: &Program,
    commits: &[u64],
    state: &MachineState,
) -> Result<(), RefinementError> {
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

    // 1. Strictly ordered subsequence: each commit advances.
    let mut pos = 0usize;
    for (index, &pc) in commits.iter().enumerate() {
        match seq_pcs[pos..].iter().position(|&s| s == pc) {
            Some(off) => pos += off + 1,
            None => return Err(RefinementError::CommitOutOfOrder { index, pc }),
        }
    }

    // 2. Final-state equality: registers...
    let seq_state = machine.state();
    for reg in Reg::all() {
        let (m, s) = (state.reg(reg), seq_state.reg(reg));
        if m != s {
            return Err(RefinementError::RegisterMismatch {
                reg,
                mssp: m,
                seq: s,
            });
        }
    }
    // ...and every memory word either side touched.
    let words: std::collections::BTreeSet<u64> = state
        .mem()
        .iter_words()
        .map(|(w, _)| w)
        .chain(seq_state.mem().iter_words().map(|(w, _)| w))
        .collect();
    for widx in words {
        let (m, s) = (state.load_word(widx), seq_state.load_word(widx));
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
    use crate::{Engine, EngineConfig, Event, UnitCost};
    use mssp_analysis::Profile;
    use mssp_distill::{distill, DistillConfig};
    use mssp_isa::asm::assemble;

    /// A program, the commit points of an honest run of it and that
    /// run's final state.
    fn honest() -> (Program, Vec<u64>, MachineState) {
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
        let mut commits = Vec::new();
        let observer = |_: u64, event: Event<'_>| commits.extend(event.commit_pc());
        let run = Engine::observed(&p, &d, EngineConfig::default(), UnitCost, observer)
            .run()
            .unwrap();
        (p, commits, run.state)
    }

    #[test]
    fn honest_run_passes() {
        let (p, commits, state) = honest();
        assert!(commits.len() > 2, "{commits:?}");
        check_refinement(&p, &commits, &state).unwrap();
    }

    #[test]
    fn corrupted_state_is_caught() {
        let (p, commits, mut state) = honest();
        // Sabotage the final state: the checker must notice.
        let v = state.reg(Reg::S1);
        state.set_reg(Reg::S1, v ^ 1);
        assert!(matches!(
            check_refinement(&p, &commits, &state),
            Err(RefinementError::RegisterMismatch { reg, .. }) if reg == Reg::S1
        ));
    }

    #[test]
    fn corrupted_memory_is_caught() {
        let (p, commits, mut state) = honest();
        let widx = (mssp_isa::STACK_TOP - 8) >> 3;
        let v = state.load_word(widx);
        state.store_word(widx, v.wrapping_add(7));
        assert!(matches!(
            check_refinement(&p, &commits, &state),
            Err(RefinementError::MemoryMismatch { .. })
        ));
    }

    #[test]
    fn forged_trace_is_caught() {
        let (p, mut commits, state) = honest();
        // Insert a PC that the sequential machine never reaches after the
        // halt (out-of-order by construction).
        commits.push(p.entry());
        assert!(matches!(
            check_refinement(&p, &commits, &state),
            Err(RefinementError::CommitOutOfOrder { .. })
        ));
    }

    #[test]
    fn a_stuttering_trace_is_caught() {
        let (p, mut commits, state) = honest();
        // The sequential run is at the entry once; two commit points
        // there are one more than it reaches.
        commits.splice(0..0, [p.entry(), p.entry()]);
        assert_eq!(
            check_refinement(&p, &commits, &state),
            Err(RefinementError::CommitOutOfOrder {
                index: 1,
                pc: p.entry()
            })
        );
    }
}
