//! A per-core latency pipeline model.
//!
//! Each core of the simulated CMP — master, slaves, and the baseline
//! uniprocessor — is an in-order core with private L1 instruction and data
//! caches and a gshare branch predictor, backed by a shared L2 (owned by
//! the system model, accessed through a callback). The per-instruction
//! cost is:
//!
//! ```text
//! cost = op_latency
//!      + fetch penalty (L1I miss → L2/memory)
//!      + data penalty  (L1D miss → L2/memory, loads and stores)
//!      + branch misprediction penalty
//! ```
//!
//! It deliberately omits superscalar overlap: both the MSSP configuration
//! and the baseline use the same core model, so the paper's *relative*
//! results (speedups, crossovers) are preserved while the model stays
//! small enough to verify.

use mssp_isa::{AluOp, Instr};
use mssp_machine::StepInfo;

use crate::{BranchStats, Btb, Cache, CacheConfig, CacheStats, Gshare};

// The reference core's instruction and penalty latencies, in cycles.

/// Simple ALU / branch / store issue latency.
const ALU: u64 = 1;
/// Multiply latency.
const MUL: u64 = 3;
/// Divide/remainder latency.
const DIV: u64 = 16;
/// Load-use latency on an L1 hit.
const LOAD_L1: u64 = 2;
/// Additional penalty for an L1 miss that hits in L2.
const L2_HIT: u64 = 10;
/// Additional penalty for an L2 miss (memory access).
const MEM: u64 = 80;
/// Pipeline refill penalty for a mispredicted branch.
const MISPREDICT: u64 = 8;

/// Aggregated core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions costed.
    pub instructions: u64,
    /// Total cycles charged.
    pub cycles: u64,
    /// L1I stats.
    pub l1i: CacheStats,
    /// L1D stats.
    pub l1d: CacheStats,
    /// Branch predictor stats.
    pub branches: BranchStats,
}

impl CoreStats {
    /// Cycles per instruction (0 if nothing executed).
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// One in-order core of the reference CMP: private L1s with
/// [`CacheConfig::l1_default`]'s geometry and a gshare branch predictor.
///
/// The shared L2 is external: [`CorePipe::instr_cost`] takes a callback
/// invoked on each L1 miss; it must return `true` if the line hit in L2.
///
/// # Examples
///
/// ```
/// use mssp_sim::CorePipe;
/// use mssp_isa::{AluOp, Instr};
/// use mssp_machine::StepInfo;
///
/// let mut core = CorePipe::default();
/// let info = StepInfo {
///     pc: 0x1000,
///     instr: Instr::nop(),
///     next_pc: 0x1004,
///     halted: false,
///     taken: None,
///     mem: None,
/// };
/// let first = core.instr_cost(&info, &mut |_addr| true);
/// let second = core.instr_cost(&info, &mut |_addr| true);
/// assert!(first > second); // cold I-cache miss the first time
/// ```
#[derive(Debug, Clone)]
pub struct CorePipe {
    l1i: Cache,
    l1d: Cache,
    bp: Gshare,
    btb: Btb,
    stats: CoreStats,
}

impl Default for CorePipe {
    /// A cold core.
    fn default() -> CorePipe {
        CorePipe {
            l1i: Cache::new(CacheConfig::l1_default()),
            l1d: Cache::new(CacheConfig::l1_default()),
            bp: Gshare::new(),
            btb: Btb::new(512),
            stats: CoreStats::default(),
        }
    }
}

impl CorePipe {
    /// The cost in cycles of executing `info` on this core. `l2` is
    /// invoked for every L1 miss (instruction or data) with the missing
    /// address and must return whether it hit in the shared L2.
    #[inline]
    pub fn instr_cost(&mut self, info: &StepInfo, mut l2: impl FnMut(u64) -> bool) -> u64 {
        let mut penalty = 0;
        // Instruction fetch.
        if !self.l1i.access(info.pc) {
            penalty += if l2(info.pc) { L2_HIT } else { L2_HIT + MEM };
        }
        // Data access.
        if let Some(mem) = info.mem {
            if !self.l1d.access(mem.addr) {
                penalty += if l2(mem.addr) { L2_HIT } else { L2_HIT + MEM };
            }
        }
        self.charge(info, penalty)
    }

    /// [`CorePipe::instr_cost`] of `info`, with its effects, if both its
    /// fetch and its data access hit in the L1s, so it reads nothing
    /// beyond this core; `None`, with no effect, if either would reach
    /// the L2. Each L1 looks the line up once: the hit `find` returns is
    /// the one `take` applies.
    #[inline(always)]
    pub fn private_cost(&mut self, info: &StepInfo) -> Option<u64> {
        let fetch = self.l1i.find(info.pc)?;
        let data = match info.mem {
            None => None,
            Some(mem) => Some(self.l1d.find(mem.addr)?),
        };
        self.l1i.take(fetch);
        if let Some(data) = data {
            self.l1d.take(data);
        }
        Some(self.charge(info, 0))
    }

    /// Charges `info` on top of `penalty` cycles of L1 misses: its op
    /// latency, and a misprediction for a wrong branch direction or
    /// indirect-jump target, training both predictors. Counts the
    /// instruction and returns its cost.
    #[inline(always)]
    fn charge(&mut self, info: &StepInfo, penalty: u64) -> u64 {
        let mut cost = penalty
            + match info.instr {
                Instr::Alu(AluOp::Mul, ..) => MUL,
                Instr::Alu(AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu, ..) => DIV,
                Instr::Load(..) => LOAD_L1,
                _ => ALU,
            };
        // Branch direction prediction.
        if let Some(taken) = info.taken {
            if !self.bp.predict_and_update(info.pc, taken) {
                cost += MISPREDICT;
            }
        }
        // Indirect-jump target prediction (BTB).
        if info.instr.is_indirect_jump() && !self.btb.predict_and_update(info.pc, info.next_pc) {
            cost += MISPREDICT;
        }
        self.stats.instructions += 1;
        self.stats.cycles += cost;
        cost
    }

    /// Squash: discard speculative L1 state (predictor history survives —
    /// it is not architectural).
    pub fn squash(&mut self) {
        self.l1i.invalidate_all();
        self.l1d.invalidate_all();
    }

    /// Aggregated counters (cache/branch stats are snapshots of the
    /// underlying structures).
    #[must_use]
    pub fn stats(&self) -> CoreStats {
        CoreStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            branches: self.bp.stats(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::{Cond, LoadOp, Reg};
    use std::ops::Range;

    fn info(pc: u64, instr: Instr) -> StepInfo {
        StepInfo {
            pc,
            instr,
            next_pc: pc + 4,
            halted: false,
            taken: None,
            mem: None,
        }
    }

    #[test]
    fn warm_alu_costs_base_latency() {
        let mut core = CorePipe::default();
        let i = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&i, &mut |_| true);
        assert_eq!(core.instr_cost(&i, &mut |_| true), 1);
    }

    #[test]
    fn div_costs_more_than_alu() {
        let mut core = CorePipe::default();
        let warm = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&warm, &mut |_| true);
        let div = info(0x1000, Instr::Alu(AluOp::Div, Reg::A0, Reg::A1, Reg::A2));
        let alu = core.instr_cost(&warm, &mut |_| true);
        let d = core.instr_cost(&div, &mut |_| true);
        assert!(d > alu);
    }

    #[test]
    fn load_miss_hierarchy_costs_stack() {
        let mut core = CorePipe::default();
        let warm = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&warm, &mut |_| true);
        let mut load = info(0x1000, Instr::Load(LoadOp::Ld, Reg::A0, Reg::A1, 0));
        load.mem = Some(mssp_machine::MemAccess {
            addr: 0x5_0000,
            bytes: 8,
            is_store: false,
        });
        // L1 miss + L2 hit.
        let c1 = core.instr_cost(&load, &mut |_| true);
        assert_eq!(c1, LOAD_L1 + L2_HIT);
        // Now warm in L1.
        let c2 = core.instr_cost(&load, &mut |_| true);
        assert_eq!(c2, LOAD_L1);
        // A different, L2-missing address pays the full memory latency.
        load.mem = Some(mssp_machine::MemAccess {
            addr: 0x9_0000,
            bytes: 8,
            is_store: false,
        });
        let c3 = core.instr_cost(&load, &mut |_| false);
        assert_eq!(c3, LOAD_L1 + L2_HIT + MEM);
    }

    #[test]
    fn mispredicted_branch_pays_penalty() {
        let mut core = CorePipe::default();
        let warm = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&warm, &mut |_| true);
        let mut br = info(0x1000, Instr::Branch(Cond::Beq, Reg::A0, Reg::A1, 8));
        br.taken = Some(true);
        // Cold counters predict not-taken: first taken branch mispredicts.
        let c = core.instr_cost(&br, &mut |_| true);
        assert_eq!(c, ALU + MISPREDICT);
        // Trained once the global history saturates.
        for _ in 0..32 {
            let _ = core.instr_cost(&br, &mut |_| true);
        }
        let c = core.instr_cost(&br, &mut |_| true);
        assert_eq!(c, ALU);
    }

    #[test]
    fn squash_invalidates_l1_but_not_training() {
        let mut core = CorePipe::default();
        let i = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&i, &mut |_| true);
        assert_eq!(core.instr_cost(&i, &mut |_| true), 1);
        core.squash();
        // Fetch misses again after the squash.
        let c = core.instr_cost(&i, &mut |_| true);
        assert_eq!(c, ALU + L2_HIT);
    }

    /// On a seeded stream of fetches, loads, stores and branches over a
    /// few lines, with squashes interleaved, `private_cost` either prices
    /// an instruction exactly as `instr_cost` does without consulting the
    /// L2, or declines and changes nothing. After the stream, a core that
    /// priced every instruction with `instr_cost` holds the same lines in
    /// the same LRU order in both L1s: a hit applied differently from
    /// `access` shows there even before it moves a counter.
    #[test]
    fn private_cost_is_instr_cost_without_the_l2() {
        const CODE: Range<u64> = 0x1000..0x1000 + (4 << 12);
        const DATA: Range<u64> = 0x8_0000..0x8_0000 + (1 << 15);
        let mut rng = mssp_testkit::Rng::new(0xC0E);
        let mut core = CorePipe::default();
        let mut in_order = CorePipe::default();
        let (mut private, mut declined) = (0, 0);
        for _ in 0..20_000 {
            let pc = CODE.start + rng.gen_range(0, 1 << 12) * 4;
            let mut i = info(pc, Instr::nop());
            match rng.gen_range(0, 4) {
                0 => {
                    i.instr = Instr::Load(LoadOp::Ld, Reg::A0, Reg::A1, 0);
                    i.mem = Some(mssp_machine::MemAccess {
                        addr: DATA.start + rng.gen_range(0, DATA.end - DATA.start),
                        bytes: 8,
                        is_store: rng.gen_bool(1, 2),
                    });
                }
                1 => {
                    i.instr = Instr::Branch(Cond::Beq, Reg::A0, Reg::A1, 8);
                    i.taken = Some(rng.gen_bool(1, 2));
                }
                2 if rng.gen_bool(1, 200) => {
                    core.squash();
                    in_order.squash();
                }
                _ => {}
            }
            let mut reference = core.clone();
            let mut reads = 0;
            let expected = reference.instr_cost(&i, |_| {
                reads += 1;
                true
            });
            let before = core.stats();
            match core.private_cost(&i) {
                Some(cost) => {
                    assert_eq!((cost, reads), (expected, 0), "{i:?}");
                    private += 1;
                }
                None => {
                    assert!(reads > 0, "{i:?} declined without an L2 read");
                    assert_eq!(core.stats(), before, "{i:?} declined with effects");
                    assert_eq!(core.instr_cost(&i, |_| true), expected, "{i:?}");
                    declined += 1;
                }
            }
            assert_eq!(core.stats(), reference.stats());
            assert_eq!(in_order.instr_cost(&i, |_| true), expected, "{i:?}");
        }
        assert!(private > 1000 && declined > 1000, "{private} / {declined}");
        assert_same_lru(&mut core.l1i, &mut in_order.l1i, CODE);
        assert_same_lru(&mut core.l1d, &mut in_order.l1d, DATA);
        assert_eq!(core.stats(), in_order.stats());
    }

    /// `a` and `b`, two L1s, hold the same lines of `window` in the same
    /// LRU order. Residency is read with `find`, line by line; the order
    /// by one new line per set, which evicts each set's LRU way, and a
    /// second read.
    fn assert_same_lru(a: &mut Cache, b: &mut Cache, window: Range<u64>) {
        let l1 = CacheConfig::l1_default();
        let line = l1.line_bytes as u64;
        let resident = |c: &Cache| -> Vec<bool> {
            window
                .clone()
                .step_by(l1.line_bytes)
                .map(|addr| c.find(addr).is_some())
                .collect()
        };
        assert_eq!(resident(a), resident(b), "residency in {window:x?}");
        // Line `2^24 + set` maps to `set`, and lies outside both windows.
        for set in 0..(l1.size_bytes / l1.line_bytes / l1.ways) as u64 {
            let conflict = ((1 << 24) + set) * line;
            assert_eq!(a.access(conflict), b.access(conflict));
        }
        assert_eq!(resident(a), resident(b), "LRU order in {window:x?}");
    }

    #[test]
    fn cpi_reported() {
        let mut core = CorePipe::default();
        let i = info(0x1000, Instr::nop());
        for _ in 0..100 {
            let _ = core.instr_cost(&i, &mut |_| true);
        }
        let s = core.stats();
        assert_eq!(s.instructions, 100);
        assert!(s.cpi() >= 1.0);
    }
}
