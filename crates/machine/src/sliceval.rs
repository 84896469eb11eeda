//! Straight-line slice evaluation.
//!
//! Spawn guards (see `mssp-distill`) are tiny straight-line programs the
//! master evaluates against its checkpoint view at spawn time; each ends
//! in the guarded branch, whose outcome the caller wants. This evaluator
//! runs such a program from a seeded register file, and also stops at
//! `halt`, which a hostile guard may contain. Loads read through the
//! caller-supplied `load` view (the master's spawn-time memory), stores
//! are discarded — the `slice-unsound` lint only admits slices whose
//! reads are spawn-available. A slice that
//! nevertheless faults or fails to terminate inside the step budget
//! simply yields `None`; slice results only ever steer performance, so
//! "no answer" is always an acceptable answer.

use mssp_isa::{Program, Reg, NUM_REGS};

use crate::exec::step;
use crate::Storage;

/// Result of evaluating one slice program to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceEval {
    /// Outcome of the final executed instruction when it was a
    /// conditional branch, `None` when the program ran to `halt`.
    pub taken: Option<bool>,
    regs: [u64; NUM_REGS],
}

impl SliceEval {
    /// The final value of `r`.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }
}

/// A register file over a read-only memory view; stores are discarded.
struct SliceStorage<F> {
    regs: [u64; NUM_REGS],
    load: F,
}

impl<F: FnMut(u64) -> u64> Storage for SliceStorage<F> {
    fn read_reg(&mut self, r: Reg) -> u64 {
        self.regs[r.index()]
    }
    fn write_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }
    fn load_word(&mut self, widx: u64) -> u64 {
        (self.load)(widx)
    }
    fn store_word(&mut self, _widx: u64, _value: u64) {}
}

/// Evaluates a slice program from its entry with the given register
/// seeds, stopping at `halt` or at the first conditional branch
/// (inclusive — its outcome is reported, its target never followed).
/// `load` answers word-indexed memory reads; pass `|_| 0` for slices
/// known to be register-only.
///
/// Returns `None` if the program faults or exceeds `max_steps`.
#[must_use]
pub fn eval_slice(
    program: &Program,
    inputs: &[(Reg, u64)],
    max_steps: u64,
    load: impl FnMut(u64) -> u64,
) -> Option<SliceEval> {
    let mut storage = SliceStorage {
        regs: [0; NUM_REGS],
        load,
    };
    for &(r, v) in inputs {
        storage.write_reg(r, v);
    }
    let mut pc = program.entry();
    for _ in 0..max_steps {
        let info = step(&mut storage, program, pc).ok()?;
        if info.halted || info.taken.is_some() {
            return Some(SliceEval {
                taken: info.taken,
                regs: storage.regs,
            });
        }
        pc = info.next_pc;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::{AluOp, Cond, ImmOp, Instr, LoadOp};

    #[test]
    fn guard_slice_reports_branch_outcome() {
        // addi t0, t0, 1; blt t0, s4, ...
        let p = Program::from_instrs(vec![
            Instr::AluImm(ImmOp::Addi, Reg::T0, Reg::T0, 1),
            Instr::Branch(Cond::Blt, Reg::T0, Reg::S4, -4),
        ]);
        let taken = eval_slice(&p, &[(Reg::T0, 5), (Reg::S4, 10)], 8, |_| 0)
            .unwrap()
            .taken;
        assert_eq!(taken, Some(true));
        let taken = eval_slice(&p, &[(Reg::T0, 9), (Reg::S4, 10)], 8, |_| 0)
            .unwrap()
            .taken;
        assert_eq!(taken, Some(false));
    }

    #[test]
    fn halt_ends_the_slice_and_exposes_registers() {
        let p = Program::from_instrs(vec![
            Instr::Alu(AluOp::Add, Reg::A0, Reg::T0, Reg::T1),
            Instr::Halt,
        ]);
        let eval = eval_slice(&p, &[(Reg::T0, 40), (Reg::T1, 2)], 8, |_| 0).unwrap();
        assert_eq!(eval.taken, None);
        assert_eq!(eval.reg(Reg::A0), 42);
    }

    #[test]
    fn loads_read_through_the_supplied_view() {
        // ld t0, 0(t0); bne t0, zero — one step of a pointer chase.
        let p = Program::from_instrs(vec![
            Instr::Load(LoadOp::Ld, Reg::T0, Reg::T0, 0),
            Instr::Branch(Cond::Bne, Reg::T0, Reg::ZERO, -4),
        ]);
        let eval = eval_slice(
            &p,
            &[(Reg::T0, 64)],
            8,
            |widx| {
                if widx == 8 {
                    128
                } else {
                    0
                }
            },
        )
        .unwrap();
        assert_eq!(eval.reg(Reg::T0), 128);
        assert_eq!(eval.taken, Some(true));
        // A chain that ends: the load answers zero.
        let eval = eval_slice(&p, &[(Reg::T0, 24)], 8, |_| 0).unwrap();
        assert_eq!(eval.taken, Some(false));
    }

    #[test]
    fn budget_exhaustion_and_faults_yield_none() {
        let p = Program::from_instrs(vec![
            Instr::AluImm(ImmOp::Addi, Reg::T0, Reg::T0, 1),
            Instr::AluImm(ImmOp::Addi, Reg::T1, Reg::T1, 1),
            Instr::Halt,
        ]);
        assert!(eval_slice(&p, &[], 2, |_| 0).is_none());
        assert!(eval_slice(&p, &[], 3, |_| 0).is_some());
    }
}
