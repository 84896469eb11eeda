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

use mssp_isa::Instr;
use mssp_machine::StepInfo;

use crate::{BranchStats, Btb, Cache, CacheConfig, CacheStats, Gshare, GshareConfig};

/// Instruction and penalty latencies, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Simple ALU / branch / store issue latency.
    pub alu: u64,
    /// Multiply latency.
    pub mul: u64,
    /// Divide/remainder latency.
    pub div: u64,
    /// Load-use latency on an L1 hit.
    pub load_l1: u64,
    /// Additional penalty for an L1 miss that hits in L2.
    pub l2_hit: u64,
    /// Additional penalty for an L2 miss (memory access).
    pub mem: u64,
    /// Pipeline refill penalty for a mispredicted branch.
    pub mispredict: u64,
}

impl Default for LatencyConfig {
    fn default() -> LatencyConfig {
        LatencyConfig {
            alu: 1,
            mul: 3,
            div: 16,
            load_l1: 2,
            l2_hit: 10,
            mem: 80,
            mispredict: 8,
        }
    }
}

/// Per-core cache/predictor geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Branch predictor.
    pub bp: GshareConfig,
    /// Latencies.
    pub lat: LatencyConfig,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            l1i: CacheConfig::l1_default(),
            l1d: CacheConfig::l1_default(),
            bp: GshareConfig::default(),
            lat: LatencyConfig::default(),
        }
    }
}

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

/// One in-order core with private L1s and a branch predictor.
///
/// The shared L2 is external: [`CorePipe::instr_cost`] takes a callback
/// invoked on each L1 miss; it must return `true` if the line hit in L2.
///
/// # Examples
///
/// ```
/// use mssp_sim::{CoreConfig, CorePipe};
/// use mssp_isa::Instr;
/// use mssp_machine::StepInfo;
///
/// let mut core = CorePipe::new(CoreConfig::default());
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
    config: CoreConfig,
    l1i: Cache,
    l1d: Cache,
    bp: Gshare,
    btb: Btb,
    stats: CoreStats,
}

impl CorePipe {
    /// Creates a cold core.
    #[must_use]
    pub fn new(config: CoreConfig) -> CorePipe {
        CorePipe {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            bp: Gshare::new(config.bp),
            btb: Btb::new(512),
            stats: CoreStats::default(),
        }
    }

    /// The cost in cycles of executing `info` on this core. `l2` is
    /// invoked for every L1 miss (instruction or data) with the missing
    /// address and must return whether it hit in the shared L2.
    #[inline]
    pub fn instr_cost(&mut self, info: &StepInfo, mut l2: impl FnMut(u64) -> bool) -> u64 {
        let lat = &self.config.lat;
        let mut cost = match info.instr {
            Instr::Mul(..) => lat.mul,
            Instr::Div(..) | Instr::Divu(..) | Instr::Rem(..) | Instr::Remu(..) => lat.div,
            i if i.is_load() => lat.load_l1,
            _ => lat.alu,
        };
        // Instruction fetch.
        if !self.l1i.access(info.pc) {
            cost += if l2(info.pc) {
                lat.l2_hit
            } else {
                lat.l2_hit + lat.mem
            };
        }
        // Data access.
        if let Some(mem) = info.mem {
            if !self.l1d.access(mem.addr) {
                cost += if l2(mem.addr) {
                    lat.l2_hit
                } else {
                    lat.l2_hit + lat.mem
                };
            }
        }
        // Branch direction prediction.
        if let Some(taken) = info.taken {
            if !self.bp.predict_and_update(info.pc, taken) {
                cost += lat.mispredict;
            }
        }
        // Indirect-jump target prediction (BTB).
        if info.instr.is_indirect_jump() && !self.btb.predict_and_update(info.pc, info.next_pc) {
            cost += lat.mispredict;
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
    use mssp_isa::Reg;

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
        let mut core = CorePipe::new(CoreConfig::default());
        let i = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&i, &mut |_| true);
        assert_eq!(core.instr_cost(&i, &mut |_| true), 1);
    }

    #[test]
    fn div_costs_more_than_alu() {
        let mut core = CorePipe::new(CoreConfig::default());
        let warm = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&warm, &mut |_| true);
        let div = info(0x1000, Instr::Div(Reg::A0, Reg::A1, Reg::A2));
        let alu = core.instr_cost(&warm, &mut |_| true);
        let d = core.instr_cost(&div, &mut |_| true);
        assert!(d > alu);
    }

    #[test]
    fn load_miss_hierarchy_costs_stack() {
        let cfg = CoreConfig::default();
        let mut core = CorePipe::new(cfg);
        let warm = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&warm, &mut |_| true);
        let mut load = info(0x1000, Instr::Ld(Reg::A0, Reg::A1, 0));
        load.mem = Some(mssp_machine::MemAccess {
            addr: 0x5_0000,
            bytes: 8,
            is_store: false,
        });
        // L1 miss + L2 hit.
        let c1 = core.instr_cost(&load, &mut |_| true);
        assert_eq!(c1, cfg.lat.load_l1 + cfg.lat.l2_hit);
        // Now warm in L1.
        let c2 = core.instr_cost(&load, &mut |_| true);
        assert_eq!(c2, cfg.lat.load_l1);
        // A different, L2-missing address pays the full memory latency.
        load.mem = Some(mssp_machine::MemAccess {
            addr: 0x9_0000,
            bytes: 8,
            is_store: false,
        });
        let c3 = core.instr_cost(&load, &mut |_| false);
        assert_eq!(c3, cfg.lat.load_l1 + cfg.lat.l2_hit + cfg.lat.mem);
    }

    #[test]
    fn mispredicted_branch_pays_penalty() {
        let cfg = CoreConfig::default();
        let mut core = CorePipe::new(cfg);
        let warm = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&warm, &mut |_| true);
        let mut br = info(0x1000, Instr::Beq(Reg::A0, Reg::A1, 8));
        br.taken = Some(true);
        // Cold counters predict not-taken: first taken branch mispredicts.
        let c = core.instr_cost(&br, &mut |_| true);
        assert_eq!(c, cfg.lat.alu + cfg.lat.mispredict);
        // Trained once the global history saturates.
        for _ in 0..32 {
            let _ = core.instr_cost(&br, &mut |_| true);
        }
        let c = core.instr_cost(&br, &mut |_| true);
        assert_eq!(c, cfg.lat.alu);
    }

    #[test]
    fn squash_invalidates_l1_but_not_training() {
        let cfg = CoreConfig::default();
        let mut core = CorePipe::new(cfg);
        let i = info(0x1000, Instr::nop());
        let _ = core.instr_cost(&i, &mut |_| true);
        assert_eq!(core.instr_cost(&i, &mut |_| true), 1);
        core.squash();
        // Fetch misses again after the squash.
        let c = core.instr_cost(&i, &mut |_| true);
        assert_eq!(c, cfg.lat.alu + cfg.lat.l2_hit);
    }

    #[test]
    fn cpi_reported() {
        let mut core = CorePipe::new(CoreConfig::default());
        let i = info(0x1000, Instr::nop());
        for _ in 0..100 {
            let _ = core.instr_cost(&i, &mut |_| true);
        }
        let s = core.stats();
        assert_eq!(s.instructions, 100);
        assert!(s.cpi() >= 1.0);
    }
}
