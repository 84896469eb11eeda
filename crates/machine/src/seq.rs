//! The sequential reference machine — the paper's `SEQ` model.
//!
//! `SEQ` is the specification MSSP must be equivalent to: executing `n`
//! instructions from state `S` yields `seq(S, n)`. This module provides
//! both an ergonomic machine wrapper ([`SeqMachine`]) and the formal
//! functions [`seq_n`] and [`cumulative_writes`] (`Δ(S, n)`) used by the
//! equivalence tests.

use std::fmt;

use mssp_isa::Program;

use crate::{step, Delta, Fault, MachineState, Recording, StepInfo};

/// Why a sequential run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `halt`.
    Halted,
    /// The step limit was reached first.
    StepLimit,
}

/// Summary of a completed sequential run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Error from a sequential run: the machine faulted.
///
/// A fault in `SEQ` indicates a malformed program (the reference semantics
/// are total otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqError {
    /// The fault encountered.
    pub fault: Fault,
    /// Instructions retired before the fault.
    pub instructions: u64,
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sequential machine faulted after {} instructions: {}",
            self.instructions, self.fault
        )
    }
}

impl std::error::Error for SeqError {}

/// Error from [`SeqMachine::run_to_halt`]: the program either faulted or
/// exhausted its step budget without executing `halt`.
///
/// This is the typed replacement for the old "run N steps then panic"
/// pattern in test helpers: callers that *require* termination get a
/// value they can propagate or assert on instead of a panic deep in
/// library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltError {
    /// The machine faulted (a malformed program).
    Fault(SeqError),
    /// The step budget ran out before `halt`.
    DidNotHalt {
        /// Instructions retired within the budget.
        instructions: u64,
    },
}

impl fmt::Display for HaltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaltError::Fault(e) => write!(f, "{e}"),
            HaltError::DidNotHalt { instructions } => {
                write!(f, "program did not halt within {instructions} instructions")
            }
        }
    }
}

impl std::error::Error for HaltError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HaltError::Fault(e) => Some(e),
            HaltError::DidNotHalt { .. } => None,
        }
    }
}

/// A sequential machine: a [`MachineState`] bound to a [`Program`].
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_isa::Reg;
/// use mssp_machine::SeqMachine;
///
/// let p = assemble(
///     "main: addi a0, zero, 4
///      loop: addi a0, a0, -1
///            bnez a0, loop
///            halt",
/// ).unwrap();
/// let mut m = SeqMachine::boot(&p);
/// let summary = m.run(1_000).unwrap();
/// assert_eq!(m.state().reg(Reg::A0), 0);
/// assert_eq!(summary.instructions, 1 + 4 * 2); // halt itself does not retire
/// ```
#[derive(Debug, Clone)]
pub struct SeqMachine<'p> {
    program: &'p Program,
    state: MachineState,
    instructions: u64,
    halted: bool,
}

impl<'p> SeqMachine<'p> {
    /// Creates a machine booted at the program's entry point.
    #[must_use]
    pub fn boot(program: &'p Program) -> SeqMachine<'p> {
        SeqMachine {
            program,
            state: MachineState::boot(program),
            instructions: 0,
            halted: false,
        }
    }

    /// Creates a machine resuming from an arbitrary state (the state's PC
    /// is used as-is).
    #[must_use]
    pub fn resume(program: &'p Program, state: MachineState) -> SeqMachine<'p> {
        SeqMachine {
            program,
            state,
            instructions: 0,
            halted: false,
        }
    }

    /// The current machine state.
    #[must_use]
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Consumes the machine, returning its state.
    #[must_use]
    pub fn into_state(self) -> MachineState {
        self.state
    }

    /// Dynamic instructions retired so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Whether the program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Executes one instruction.
    ///
    /// Each call reads and writes the PC and the counters through `self`;
    /// to run many instructions, use [`SeqMachine::run_observed`], which
    /// keeps them in locals.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults. Stepping a halted machine is a no-op
    /// returning the halt info again.
    #[inline]
    pub fn step(&mut self) -> Result<StepInfo, Fault> {
        let mut pc = self.state.pc();
        let info = advance(
            &mut self.state,
            self.program,
            &mut pc,
            &mut self.instructions,
        )?;
        self.state.set_pc(pc);
        self.halted |= info.halted;
        Ok(info)
    }

    /// Runs until `halt` or until `max_steps` instructions retire.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError`] if the machine faults.
    pub fn run(&mut self, max_steps: u64) -> Result<RunSummary, SeqError> {
        self.run_observed(max_steps, |_| {})
    }

    /// Runs until `halt`, treating failure to halt within `max_steps` as
    /// an error — for callers that require termination.
    ///
    /// # Errors
    ///
    /// Returns [`HaltError::Fault`] if the machine faults and
    /// [`HaltError::DidNotHalt`] if the budget runs out first.
    pub fn run_to_halt(&mut self, max_steps: u64) -> Result<RunSummary, HaltError> {
        let summary = self.run(max_steps).map_err(HaltError::Fault)?;
        match summary.stop {
            StopReason::Halted => Ok(summary),
            StopReason::StepLimit => Err(HaltError::DidNotHalt {
                instructions: summary.instructions,
            }),
        }
    }

    /// Runs like [`SeqMachine::run`], invoking `observer` after every
    /// retired instruction — the hook the profiler and characterization
    /// experiments use — and once more on the `halt` itself.
    ///
    /// The result is exactly that of calling [`SeqMachine::step`] in a
    /// loop, but the loop steps the interpreter itself: the PC and the
    /// retired count live in locals, and `self` learns them once, when
    /// the run halts, faults or reaches `max_steps`.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError`] if the machine faults.
    pub fn run_observed(
        &mut self,
        max_steps: u64,
        mut observer: impl FnMut(&StepInfo),
    ) -> Result<RunSummary, SeqError> {
        let start = self.instructions;
        let mut pc = self.state.pc();
        let mut retired = start;
        let mut halted = self.halted;
        let mut fault = None;
        while !halted && retired - start < max_steps {
            match advance(&mut self.state, self.program, &mut pc, &mut retired) {
                Ok(info) => {
                    observer(&info);
                    halted = info.halted;
                }
                Err(f) => {
                    fault = Some(f);
                    break;
                }
            }
        }
        self.state.set_pc(pc);
        self.instructions = retired;
        self.halted = halted;
        if let Some(fault) = fault {
            return Err(SeqError {
                fault,
                instructions: retired,
            });
        }
        Ok(RunSummary {
            instructions: retired - start,
            stop: if halted {
                StopReason::Halted
            } else {
                StopReason::StepLimit
            },
        })
    }
}

/// One sequential step and its bookkeeping, shared by
/// [`SeqMachine::step`] and the [`SeqMachine::run_observed`] loop: the
/// instruction at `*pc` executes, `*pc` moves on, and `*retired` counts
/// it unless it was the `halt`. A fault changes nothing.
// Inlined so the loop keeps `pc` and `retired` in registers: out of line,
// the `StepInfo` makes the round trip through memory that `exec::step`'s
// own inlining exists to avoid.
#[inline(always)]
fn advance(
    state: &mut MachineState,
    program: &Program,
    pc: &mut u64,
    retired: &mut u64,
) -> Result<StepInfo, Fault> {
    let info = step(state, program, *pc)?;
    *pc = info.next_pc;
    if !info.halted {
        *retired += 1;
    }
    Ok(info)
}

/// The formal `seq(S, n)`: the state after executing `n` instructions from
/// `S`. Executing past a `halt` is a fixpoint (the state stops changing),
/// mirroring the model's treatment of `seq` as total.
///
/// # Errors
///
/// Returns the fault if execution leaves the text segment.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_machine::{seq_n, MachineState};
///
/// let p = assemble("main: addi a0, a0, 1\n j main").unwrap();
/// let s0 = MachineState::boot(&p);
/// let s4 = seq_n(&p, s0.clone(), 4).unwrap();
/// assert_eq!(s4.reg(mssp_isa::Reg::A0), 2); // two addi + two jumps
/// ```
pub fn seq_n(program: &Program, state: MachineState, n: u64) -> Result<MachineState, Fault> {
    let mut m = SeqMachine::resume(program, state);
    for _ in 0..n {
        if m.halted() {
            break;
        }
        m.step()?;
    }
    Ok(m.into_state())
}

/// The formal cumulative-writes function `Δ(S, n)`: every cell written in
/// the first `n` steps from `S`, with its final value. PC is included as a
/// written cell on every step, mirroring the model where the program
/// counter is part of machine state.
///
/// # Errors
///
/// Returns the fault if execution leaves the text segment.
pub fn cumulative_writes(
    program: &Program,
    mut state: MachineState,
    n: u64,
) -> Result<Delta, Fault> {
    let mut writes = Delta::new();
    for _ in 0..n {
        let pc = state.pc();
        let info = {
            let mut rec = Recording::new(&mut state);
            let info = step(&mut rec, program, pc)?;
            writes.superimpose_in_place(rec.writes());
            info
        };
        if info.halted {
            break;
        }
        state.set_pc(info.next_pc);
        writes.set(crate::Cell::Pc, info.next_pc);
    }
    Ok(writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;

    #[test]
    fn run_to_halt_counts_instructions() {
        let p = assemble("main: addi a0, zero, 3\n addi a1, zero, 4\n halt").unwrap();
        let mut m = SeqMachine::boot(&p);
        let summary = m.run(100).unwrap();
        assert_eq!(summary.instructions, 2);
        assert_eq!(summary.stop, StopReason::Halted);
        assert!(m.halted());
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let p = assemble("main: j main").unwrap();
        let mut m = SeqMachine::boot(&p);
        let summary = m.run(50).unwrap();
        assert_eq!(summary.instructions, 50);
        assert_eq!(summary.stop, StopReason::StepLimit);
        assert!(!m.halted());
    }

    #[test]
    fn run_resumes_after_step_limit() {
        let p = assemble(
            "main: addi a0, zero, 6
             loop: addi a0, a0, -1
                   bnez a0, loop
                   halt",
        )
        .unwrap();
        let mut m = SeqMachine::boot(&p);
        let _ = m.run(3).unwrap();
        let _ = m.run(1_000).unwrap();
        assert!(m.halted());
        assert_eq!(m.state().reg(Reg::A0), 0);
    }

    #[test]
    fn lemma3_seq_equals_superimposed_cumulative_writes() {
        // seq(S, n) = S ← Δ(S, n) for a range of n.
        let p = assemble(
            "main: addi a0, zero, 8
                   li   a2, 0x300000
             loop: sd   a0, 0(a2)
                   addi a2, a2, 8
                   addi a0, a0, -1
                   bnez a0, loop
                   halt",
        )
        .unwrap();
        let s0 = MachineState::boot(&p);
        for n in [0u64, 1, 2, 5, 13, 100] {
            let direct = seq_n(&p, s0.clone(), n).unwrap();
            let delta = cumulative_writes(&p, s0.clone(), n).unwrap();
            let mut via_delta = s0.clone();
            via_delta.apply(&delta);
            assert_eq!(direct, via_delta, "Lemma 3 violated at n={n}");
        }
    }

    #[test]
    fn observer_sees_every_instruction() {
        let p = assemble("main: addi a0, zero, 2\n addi a0, a0, 2\n halt").unwrap();
        let mut m = SeqMachine::boot(&p);
        let mut pcs = Vec::new();
        m.run_observed(100, |info| pcs.push(info.pc)).unwrap();
        // Two instructions plus the halt observation.
        assert_eq!(pcs.len(), 3);
        assert_eq!(pcs[0], p.entry());
    }

    #[test]
    fn run_to_halt_reports_non_termination_as_typed_error() {
        let p = assemble("main: j main").unwrap();
        let mut m = SeqMachine::boot(&p);
        assert_eq!(
            m.run_to_halt(25),
            Err(HaltError::DidNotHalt { instructions: 25 })
        );
    }

    #[test]
    fn run_to_halt_propagates_faults_as_typed_error() {
        let p = assemble("main: li a0, 0x900000\n jalr ra, 0(a0)\n halt").unwrap();
        let mut m = SeqMachine::boot(&p);
        match m.run_to_halt(100) {
            Err(HaltError::Fault(e)) => assert_eq!(e.fault, Fault::IllegalPc(0x900000)),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn run_to_halt_succeeds_on_terminating_programs() {
        let p = assemble("main: addi a0, zero, 3\n halt").unwrap();
        let mut m = SeqMachine::boot(&p);
        let summary = m.run_to_halt(100).unwrap();
        assert_eq!(summary.stop, StopReason::Halted);
    }

    #[test]
    fn fault_is_reported_with_progress() {
        // jalr to a wild address.
        let p = assemble("main: li a0, 0x900000\n jalr ra, 0(a0)\n halt").unwrap();
        let mut m = SeqMachine::boot(&p);
        let err = m.run(100).unwrap_err();
        assert_eq!(err.fault, Fault::IllegalPc(0x900000));
    }
}
