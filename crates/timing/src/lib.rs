//! # mssp-timing
//!
//! The CMP timing model for MSSP and its baseline:
//!
//! * [`CmpCost`] — a [`CostModel`] giving the master and every slave an
//!   in-order core with private L1s and a branch predictor, all backed by
//!   one shared L2, plus checkpoint/dispatch/verify/commit/squash
//!   overheads.
//! * [`run_baseline`] — the comparison point: the *same* core model
//!   executing the original program sequentially (the paper compares MSSP
//!   on N cores against one of those cores running the unmodified binary).
//! * [`run_mssp`] — a full MSSP timing run; returns cycles, engine
//!   statistics and per-core microarchitectural counters.
//!
//! Absolute cycle counts are a model, not a prediction of the paper's
//! testbed; the experiments compare *relative* numbers (speedups, trends),
//! which is what the reproduction targets.
//!
//! ## Quick start
//!
//! ```
//! use mssp_isa::asm::assemble;
//! use mssp_analysis::Profile;
//! use mssp_distill::{distill, DistillConfig};
//! use mssp_timing::{run_baseline, run_mssp, TimingConfig};
//!
//! let p = assemble(
//!     "main: addi s0, zero, 500
//!      loop: add  s1, s1, s0
//!            addi s0, s0, -1
//!            bnez s0, loop
//!            halt",
//! ).unwrap();
//! let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
//! let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
//!
//! let cfg = TimingConfig::default();
//! let base = run_baseline(&p, &cfg, u64::MAX).unwrap();
//! let mssp = run_mssp(&p, &d, &cfg).unwrap();
//! assert_eq!(base.state.reg(mssp_isa::Reg::S1), mssp.run.state.reg(mssp_isa::Reg::S1));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mssp_core::{CoreRole, CostModel, Engine, EngineConfig, EngineError, MsspRun};
use mssp_distill::Distilled;
use mssp_isa::Program;
use mssp_machine::{MachineState, SeqError, SeqMachine, StepInfo};
use mssp_sim::{Cache, CacheConfig, CorePipe, CoreStats};

/// MSSP-specific protocol overheads, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadConfig {
    /// Master-side cost of taking a checkpoint.
    pub spawn: u64,
    /// Checkpoint transfer latency to a slave (plus a per-cell component).
    pub dispatch: u64,
    /// Fixed verify cost per task.
    pub verify_base: u64,
    /// Fixed commit cost per task.
    pub commit_base: u64,
    /// Live-in/live-out cells processed per verify/commit/dispatch cycle.
    pub cells_per_cycle: u64,
    /// Pipeline-flush penalty on squash.
    pub squash: u64,
}

impl Default for OverheadConfig {
    fn default() -> OverheadConfig {
        OverheadConfig {
            spawn: 8,
            dispatch: 16,
            verify_base: 4,
            commit_base: 4,
            cells_per_cycle: 4,
            squash: 16,
        }
    }
}

/// What varies between timing runs of the simulated CMP. The cores and
/// the shared L2 are the reference machine's and take no settings: every
/// core is a [`CorePipe`], and the L2 has [`CacheConfig::l2_default`]'s
/// geometry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingConfig {
    /// Protocol overheads.
    pub overhead: OverheadConfig,
    /// Engine parameters (slave count etc.).
    pub engine: EngineConfig,
}

/// The CMP cost model: one [`CorePipe`] per core, a shared L2, and the
/// protocol overheads.
#[derive(Debug)]
pub struct CmpCost {
    master: CorePipe,
    slaves: Vec<CorePipe>,
    l2: Cache,
    overhead: OverheadConfig,
}

impl CmpCost {
    /// Creates a cold CMP with the configured number of slave cores, and
    /// one if the configuration asks for none: a slave or recovery role
    /// always has a core to run on.
    #[must_use]
    pub fn new(config: &TimingConfig) -> CmpCost {
        CmpCost {
            master: CorePipe::default(),
            slaves: (0..config.engine.num_slaves.max(1))
                .map(|_| CorePipe::default())
                .collect(),
            l2: Cache::new(CacheConfig::l2_default()),
            overhead: config.overhead,
        }
    }

    /// Per-core statistics: `(master, slaves)`.
    #[must_use]
    pub fn core_stats(&self) -> (CoreStats, Vec<CoreStats>) {
        (
            self.master.stats(),
            self.slaves.iter().map(CorePipe::stats).collect(),
        )
    }

    fn cells_cost(&self, base: u64, cells: usize) -> u64 {
        base + cells as u64 / self.overhead.cells_per_cycle.max(1)
    }

    /// The core `role` runs on. The engine numbers slaves below the
    /// configured count; a role past it wraps around, onto a core another
    /// slave uses too. `private_instr_cost` then misses that sharing, so a
    /// run configures the engine and the model with one slave count, as
    /// [`run_mssp`] does.
    #[inline(always)]
    fn core<'a>(
        master: &'a mut CorePipe,
        slaves: &'a mut [CorePipe],
        role: CoreRole,
    ) -> &'a mut CorePipe {
        match role {
            CoreRole::Master => master,
            CoreRole::Slave(i) | CoreRole::Recovery(i) => {
                let n = slaves.len();
                &mut slaves[if i < n { i } else { i % n }]
            }
        }
    }
}

impl CostModel for CmpCost {
    #[inline]
    fn instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> u64 {
        let l2 = &mut self.l2;
        Self::core(&mut self.master, &mut self.slaves, role)
            .instr_cost(info, |addr| l2.access(addr))
    }

    /// The core's own cost when its L1s serve both the fetch and the data
    /// access: only an L1 miss reads the shared L2. Always inlined: the
    /// engine's bursts call it once per simulated instruction.
    #[inline(always)]
    fn private_instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> Option<u64> {
        Self::core(&mut self.master, &mut self.slaves, role).private_cost(info)
    }

    fn spawn_overhead(&mut self, _cells: usize) -> u64 {
        self.overhead.spawn
    }

    fn dispatch_latency(&mut self, cells: usize) -> u64 {
        self.cells_cost(self.overhead.dispatch, cells)
    }

    fn verify_cost(&mut self, live_ins: usize) -> u64 {
        self.cells_cost(self.overhead.verify_base, live_ins)
    }

    fn commit_cost(&mut self, live_outs: usize) -> u64 {
        self.cells_cost(self.overhead.commit_base, live_outs)
    }

    fn squash_penalty(&mut self) -> u64 {
        self.overhead.squash
    }

    fn on_squash(&mut self, role: CoreRole) {
        Self::core(&mut self.master, &mut self.slaves, role).squash();
    }
}

/// Result of a baseline (sequential uniprocessor) timing run.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Total cycles.
    pub cycles: u64,
    /// Dynamic instructions retired.
    pub instructions: u64,
    /// Final machine state.
    pub state: MachineState,
    /// Core counters.
    pub core: CoreStats,
}

impl BaselineRun {
    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// Runs the original program on one baseline core (private L1s backed by
/// an L2 of the shared L2's geometry). The baseline is the reference
/// uniprocessor, so nothing in `_config` changes it; callers pass the
/// configuration of the MSSP run they compare against.
///
/// # Errors
///
/// Propagates sequential-machine faults (malformed program).
pub fn run_baseline(
    program: &Program,
    _config: &TimingConfig,
    max_steps: u64,
) -> Result<BaselineRun, SeqError> {
    let mut core = CorePipe::default();
    let mut l2 = Cache::new(CacheConfig::l2_default());
    let mut machine = SeqMachine::boot(program);
    let mut cycles: u64 = 0;
    machine.run_observed(max_steps, |info| {
        if !info.halted {
            cycles += core.instr_cost(info, |addr| l2.access(addr));
        }
    })?;
    Ok(BaselineRun {
        cycles,
        instructions: machine.instructions(),
        core: core.stats(),
        state: machine.into_state(),
    })
}

/// Result of an MSSP timing run.
#[derive(Debug, Clone)]
pub struct TimingRun {
    /// The engine-level result (cycles, state, statistics).
    pub run: MsspRun,
    /// Master core counters.
    pub master_core: CoreStats,
    /// Per-slave core counters.
    pub slave_cores: Vec<CoreStats>,
}

/// Runs the MSSP machine under the detailed CMP cost model.
///
/// # Errors
///
/// Propagates engine errors: [`EngineError::Budget`] when the run spends
/// its instruction budget, [`EngineError::RecoveryFault`] when the
/// original program faults.
pub fn run_mssp(
    program: &Program,
    distilled: &Distilled,
    config: &TimingConfig,
) -> Result<TimingRun, EngineError> {
    run_mssp_with_setup(program, distilled, config, |_| {})
}

/// Like [`run_mssp`] but hands the constructed [`Engine`] to `setup`
/// before running it, so callers can switch on what the plain entry
/// point leaves off (the adaptive loop).
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_mssp_with_setup(
    program: &Program,
    distilled: &Distilled,
    config: &TimingConfig,
    setup: impl FnOnce(&mut Engine<'_, CmpCost>),
) -> Result<TimingRun, EngineError> {
    let cost = CmpCost::new(config);
    let mut engine = Engine::new(program, distilled, config.engine, cost);
    setup(&mut engine);
    let (run, cost) = engine.run_returning_cost()?;
    let (master_core, slave_cores) = cost.core_stats();
    Ok(TimingRun {
        run,
        master_core,
        slave_cores,
    })
}

/// Speedup of an MSSP run relative to the baseline.
#[must_use]
pub fn speedup(baseline_cycles: u64, mssp_cycles: u64) -> f64 {
    if mssp_cycles == 0 {
        0.0
    } else {
        baseline_cycles as f64 / mssp_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_analysis::Profile;
    use mssp_distill::{distill, DistillConfig, DistillLevel};
    use mssp_isa::asm::assemble;
    use mssp_isa::Reg;

    /// A loop with a cold path (taken every 64th iteration in training
    /// and at run time) — distills well and parallelizes well.
    const BIASED: &str = "
        main:  addi s0, zero, 4000
        loop:  andi t0, s0, 63
               beqz t0, rare
               addi s1, s1, 1
        next:  addi t1, s1, 7
               mul  t2, t1, t1
               addi s0, s0, -1
               bnez s0, loop
               halt
        rare:  addi s1, s1, 3
               j next";

    fn setup(level: DistillLevel) -> (Program, Distilled) {
        let p = assemble(BIASED).unwrap();
        let prof = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let cfg = DistillConfig {
            target_task_size: 200,
            ..DistillConfig::at_level(level)
        };
        let d = distill(&p, &prof, &cfg).unwrap();
        (p, d)
    }

    #[test]
    fn timing_preserves_architected_state() {
        let (p, d) = setup(DistillLevel::Aggressive);
        let cfg = TimingConfig::default();
        let base = run_baseline(&p, &cfg, u64::MAX).unwrap();
        let mssp = run_mssp(&p, &d, &cfg).unwrap();
        assert_eq!(base.state.reg(Reg::S1), mssp.run.state.reg(Reg::S1));
    }

    #[test]
    fn baseline_cpi_is_plausible() {
        let (p, _) = setup(DistillLevel::None);
        let base = run_baseline(&p, &TimingConfig::default(), u64::MAX).unwrap();
        let cpi = base.cpi();
        assert!((1.0..10.0).contains(&cpi), "cpi {cpi}");
    }

    #[test]
    fn mssp_with_slaves_beats_one_slave() {
        let (p, d) = setup(DistillLevel::Aggressive);
        let mut cfg = TimingConfig::default();
        cfg.engine.num_slaves = 1;
        let one = run_mssp(&p, &d, &cfg).unwrap();
        cfg.engine.num_slaves = 7;
        let many = run_mssp(&p, &d, &cfg).unwrap();
        assert!(
            many.run.cycles < one.run.cycles,
            "7 slaves {} vs 1 slave {}",
            many.run.cycles,
            one.run.cycles
        );
    }

    #[test]
    fn core_stats_populated() {
        let (p, d) = setup(DistillLevel::Aggressive);
        let cfg = TimingConfig::default();
        let mssp = run_mssp(&p, &d, &cfg).unwrap();
        assert!(mssp.master_core.instructions > 0);
        assert!(mssp.slave_cores.iter().any(|s| s.instructions > 0));
    }

    /// Zero slaves in the configuration still leave a slave core: every
    /// role prices, privately too, and squashes without a panic.
    #[test]
    fn zero_slaves_still_price_every_role() {
        let mut cfg = TimingConfig::default();
        cfg.engine.num_slaves = 0;
        let mut cost = CmpCost::new(&cfg);
        let info = StepInfo {
            pc: 0x1000,
            instr: mssp_isa::Instr::nop(),
            next_pc: 0x1004,
            halted: false,
            taken: None,
            mem: None,
        };
        for role in [CoreRole::Master, CoreRole::Slave(0), CoreRole::Recovery(3)] {
            assert!(cost.instr_cost(role, &info) > 0, "{role:?}");
            assert_eq!(cost.private_instr_cost(role, &info), Some(1), "{role:?}");
            cost.on_squash(role);
        }
        assert_eq!(cost.core_stats().1.len(), 1);
    }

    #[test]
    fn speedup_helper() {
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
        assert_eq!(speedup(100, 0), 0.0);
    }
}
