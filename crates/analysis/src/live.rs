//! Register liveness analysis.
//!
//! Backward may-liveness over the CFG, used by the distiller's dead-code
//! elimination: an instruction writing a register that is dead at that
//! point (and performing no store or control transfer) can be removed from
//! the distilled program without changing the values the master predicts
//! for any live-in.
//!
//! Indirect jumps have unknown successors, so every register is
//! conservatively live across them; likewise `halt` treats every register
//! as live-out, because the whole final register file is the program's
//! observable result.

use mssp_isa::{Instr, Program, Reg, NUM_REGS};

use crate::dataflow::{Analysis, DataflowResults, Direction};
use crate::Cfg;

/// A set of registers, represented as a 32-bit mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegSet(u32);

impl RegSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> RegSet {
        RegSet(0)
    }

    /// The set of all registers.
    #[must_use]
    pub fn all() -> RegSet {
        RegSet(u32::MAX)
    }

    /// Inserts a register.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Removes a register.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.index());
    }

    /// Whether `r` is in the set.
    #[must_use]
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Number of registers in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the registers in the set, in index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        (0..NUM_REGS as u8).filter_map(move |i| {
            if self.0 & (1 << i) != 0 {
                Some(Reg::new(i))
            } else {
                None
            }
        })
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::empty();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

/// Per-program-point liveness: for each instruction address, the set of
/// registers live *after* it executes.
///
/// # Examples
///
/// ```
/// use mssp_isa::asm::assemble;
/// use mssp_isa::Reg;
/// use mssp_analysis::{Cfg, Liveness};
///
/// let p = assemble(
///     "main: addi a0, zero, 1   ; a0 dead after: overwritten next
///            addi a0, zero, 2
///            halt",
/// ).unwrap();
/// let live = Liveness::compute(&p, &Cfg::build(&p));
/// assert!(!live.live_out(p.entry()).contains(Reg::A0));
/// ```
#[derive(Debug, Clone)]
pub struct Liveness {
    results: DataflowResults<RegSet>,
}

/// May-liveness as a [`Analysis`] instance: backward, union join, all-live
/// at `Halt`/`Indirect` exits.
struct LiveAnalysis;

impl Analysis for LiveAnalysis {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn init(&self) -> RegSet {
        RegSet::empty()
    }

    fn boundary(&self) -> RegSet {
        RegSet::all()
    }

    fn join(&self, into: &mut RegSet, other: &RegSet) -> bool {
        let merged = into.union(*other);
        let changed = merged != *into;
        *into = merged;
        changed
    }

    fn transfer(&self, _pc: u64, instr: Instr, live: &mut RegSet) {
        if let Some(rd) = instr.def_reg() {
            live.remove(rd);
        }
        for r in instr.use_regs().into_iter().flatten() {
            if !r.is_zero() {
                live.insert(r);
            }
        }
    }
}

impl Liveness {
    /// Computes backward liveness over `cfg`, the CFG of `program`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not `program`'s CFG.
    #[must_use]
    pub fn compute(program: &Program, cfg: &Cfg) -> Liveness {
        Liveness {
            results: DataflowResults::compute(program, cfg, &LiveAnalysis),
        }
    }

    /// The registers live immediately *before* the instruction at `pc` —
    /// i.e. the registers that may be read before being written from `pc`
    /// onward. This is exactly the set of register live-ins a speculative
    /// task starting at `pc` can have, which the MSSP distiller must keep
    /// the master able to predict.
    ///
    /// Returns the conservative all-live set for unanalyzed addresses.
    #[must_use]
    pub fn live_in(&self, pc: u64) -> RegSet {
        self.results.before(pc).copied().unwrap_or_else(RegSet::all)
    }

    /// The registers live immediately after the instruction at `pc`.
    ///
    /// Returns the conservative all-live set for addresses outside the
    /// analyzed text.
    #[must_use]
    pub fn live_out(&self, pc: u64) -> RegSet {
        self.results.after(pc).copied().unwrap_or_else(RegSet::all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::asm::assemble;

    fn live_of(src: &str) -> (mssp_isa::Program, Liveness) {
        let p = assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        let l = Liveness::compute(&p, &cfg);
        (p, l)
    }

    /// Whether the write performed by the instruction at `pc` (if any) is
    /// dead — its destination is not live out.
    fn write_is_dead(l: &Liveness, program: &Program, pc: u64) -> bool {
        match program.fetch(pc).and_then(|i| i.def_reg()) {
            Some(rd) => !l.live_out(pc).contains(rd),
            None => false,
        }
    }

    #[test]
    fn regset_operations() {
        let mut s = RegSet::empty();
        assert!(s.is_empty());
        s.insert(Reg::A0);
        s.insert(Reg::T3);
        assert!(s.contains(Reg::A0) && s.contains(Reg::T3));
        assert_eq!(s.len(), 2);
        s.remove(Reg::A0);
        assert!(!s.contains(Reg::A0));
        let collected: Vec<Reg> = s.iter().collect();
        assert_eq!(collected, vec![Reg::T3]);
    }

    #[test]
    fn overwritten_register_is_dead() {
        let (p, l) = live_of(
            "main: addi a0, zero, 1
                   addi a0, zero, 2
                   halt",
        );
        assert!(write_is_dead(&l, &p, p.entry()));
        // The second write is live (halt keeps all registers live).
        assert!(!write_is_dead(&l, &p, p.entry() + 4));
    }

    #[test]
    fn value_used_in_branch_is_live() {
        let (p, l) = live_of(
            "main: addi a0, zero, 1
                   beqz a0, main
                   halt",
        );
        assert!(l.live_out(p.entry()).contains(Reg::A0));
        assert!(!write_is_dead(&l, &p, p.entry()));
    }

    #[test]
    fn liveness_flows_around_loops() {
        let (p, l) = live_of(
            "main: addi a1, zero, 5
             loop: addi a0, a0, 1
                   addi a1, a1, -1
                   bnez a1, loop
                   halt",
        );
        // a1 written at entry is consumed by the loop.
        assert!(l.live_out(p.entry()).contains(Reg::A1));
        // Inside the loop, a1 stays live across the back edge.
        let loop_pc = p.symbol("loop").unwrap();
        assert!(l.live_out(loop_pc).contains(Reg::A1));
    }

    #[test]
    fn halt_keeps_all_registers_live() {
        let (p, l) = live_of("main: addi t5, zero, 1\n halt");
        // t5 is never read again but remains observable machine state.
        assert!(l.live_out(p.entry()).contains(Reg::T5));
        assert!(!write_is_dead(&l, &p, p.entry()));
    }

    #[test]
    fn indirect_jump_is_a_barrier() {
        let (p, l) = live_of(
            "main: addi t0, zero, 9
                   jalr zero, 0(ra)
                   halt",
        );
        assert!(l.live_out(p.entry()).contains(Reg::T0));
    }

    #[test]
    fn stores_never_dead() {
        let (p, l) = live_of("main: sd a0, 0(sp)\n halt");
        assert!(!write_is_dead(&l, &p, p.entry()));
    }
}
