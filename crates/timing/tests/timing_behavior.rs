//! Timing-model behaviour tests: the CMP cost model must respond to its
//! inputs in the physically sensible direction.

use mssp_analysis::Profile;
use mssp_core::{CoreRole, CostModel};
use mssp_distill::{distill, DistillConfig};
use mssp_isa::asm::assemble;
use mssp_isa::{Instr, Program, Reg, HEAP_BASE};
use mssp_machine::StepInfo;
use mssp_timing::{run_baseline, run_mssp, speedup, CmpCost, OverheadConfig, TimingConfig};

fn fixture() -> (Program, mssp_distill::Distilled) {
    let p = assemble(
        "main:  addi s0, zero, 3000
         loop:  mul  t0, s0, s0
                add  s1, s1, t0
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

/// Loads one word from each 64-byte line of a 64 KiB heap region, four
/// times over, in `chunks` equal chunks: each chunk is swept four times
/// before the next one starts. Every chunking makes the same 4096 loads
/// of the same 1024 lines; only the reuse distance differs.
fn strided_loads(chunks: u32) -> Program {
    let lines = 1024 / chunks;
    assemble(&format!(
        "main:  li   s2, {HEAP_BASE}
                addi s3, zero, {chunks}
         chunk: addi s0, zero, 4
         sweep: addi t1, s2, 0
                addi t2, zero, {lines}
         line:  ld   t0, 0(t1)
                add  s1, s1, t0
                addi t1, t1, 64
                addi t2, t2, -1
                bnez t2, line
                addi s0, s0, -1
                bnez s0, sweep
                addi s2, t1, 0
                addi s3, s3, -1
                bnez s3, chunk
                halt"
    ))
    .unwrap()
}

#[test]
fn a_working_set_past_the_l1d_slows_the_baseline() {
    let tcfg = TimingConfig::default();
    // 8 KiB chunks fit the 16 KiB L1D while they are reused; one 64 KiB
    // sweep does not, so only its reuses miss.
    let fits = run_baseline(&strided_loads(8), &tcfg, u64::MAX).unwrap();
    let spills = run_baseline(&strided_loads(1), &tcfg, u64::MAX).unwrap();
    assert!(
        spills.core.l1d.misses > fits.core.l1d.misses,
        "L1D misses: {} spilling vs {} fitting",
        spills.core.l1d.misses,
        fits.core.l1d.misses
    );
    assert!(
        spills.cpi() > fits.cpi(),
        "CPI: {:.2} spilling vs {:.2} fitting",
        spills.cpi(),
        fits.cpi()
    );
}

#[test]
fn higher_overheads_never_speed_mssp_up() {
    let (p, d) = fixture();
    let cheap = TimingConfig::default();
    let pricey = TimingConfig {
        overhead: OverheadConfig {
            spawn: 100,
            dispatch: 200,
            verify_base: 100,
            commit_base: 100,
            cells_per_cycle: 1,
            squash: 400,
        },
        ..TimingConfig::default()
    };
    let a = run_mssp(&p, &d, &cheap).unwrap();
    let b = run_mssp(&p, &d, &pricey).unwrap();
    assert!(b.run.cycles >= a.run.cycles);
    assert_eq!(
        a.run.state.reg(Reg::S1),
        b.run.state.reg(Reg::S1),
        "overheads must never change results"
    );
}

#[test]
fn per_cell_costs_scale_with_set_sizes() {
    let mut cost = CmpCost::new(&TimingConfig::default());
    assert!(cost.verify_cost(400) > cost.verify_cost(4));
    assert!(cost.commit_cost(400) > cost.commit_cost(4));
    assert!(cost.dispatch_latency(400) > cost.dispatch_latency(0));
}

fn nop_at_0x1000() -> StepInfo {
    StepInfo {
        pc: 0x1000,
        instr: Instr::nop(),
        next_pc: 0x1004,
        halted: false,
        taken: None,
        mem: None,
    }
}

#[test]
fn squash_cools_the_right_core() {
    let mut cost = CmpCost::new(&TimingConfig::default());
    let info = nop_at_0x1000();
    // Warm slaves 2 and 3.
    let cold = cost.instr_cost(CoreRole::Slave(2), &info);
    let warm = cost.instr_cost(CoreRole::Slave(2), &info);
    assert!(cold > warm);
    assert!(cost.instr_cost(CoreRole::Slave(3), &info) > warm);
    assert_eq!(cost.instr_cost(CoreRole::Slave(3), &info), warm);
    // Squash slave 2: it refetches; slave 3 is unaffected by that squash.
    cost.on_squash(CoreRole::Slave(2));
    let refetch = cost.instr_cost(CoreRole::Slave(2), &info);
    assert!(refetch > warm);
    assert_eq!(cost.instr_cost(CoreRole::Slave(3), &info), warm);
}

#[test]
fn master_squash_leaves_slaves_warm() {
    let mut cost = CmpCost::new(&TimingConfig::default());
    let info = nop_at_0x1000();
    for role in [CoreRole::Master, CoreRole::Slave(0), CoreRole::Slave(1)] {
        let _ = cost.instr_cost(role, &info);
    }
    let warm = cost.instr_cost(CoreRole::Master, &info);
    cost.on_squash(CoreRole::Master);
    assert!(cost.instr_cost(CoreRole::Master, &info) > warm);
    assert_eq!(cost.instr_cost(CoreRole::Slave(0), &info), warm);
    assert_eq!(cost.instr_cost(CoreRole::Slave(1), &info), warm);
}

#[test]
fn identical_cores_make_master_and_baseline_cpi_comparable() {
    let (p, d) = fixture();
    let tcfg = TimingConfig::default();
    let base = run_baseline(&p, &tcfg, u64::MAX).unwrap();
    let mssp = run_mssp(&p, &d, &tcfg).unwrap();
    let master_cpi = mssp.master_core.cpi();
    assert!(
        (master_cpi - base.cpi()).abs() < 1.5,
        "same core model should give similar CPI: master {master_cpi:.2} vs base {:.2}",
        base.cpi()
    );
}

#[test]
fn speedup_is_reported_against_cycles() {
    let (p, d) = fixture();
    let tcfg = TimingConfig::default();
    let base = run_baseline(&p, &tcfg, u64::MAX).unwrap();
    let mssp = run_mssp(&p, &d, &tcfg).unwrap();
    let s = speedup(base.cycles, mssp.run.cycles);
    assert!(s > 0.3 && s < 10.0, "implausible speedup {s}");
}

#[test]
fn baseline_is_deterministic() {
    let p = fixture().0;
    let tcfg = TimingConfig::default();
    let a = run_baseline(&p, &tcfg, u64::MAX).unwrap();
    let b = run_baseline(&p, &tcfg, u64::MAX).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.state, b.state);
}

#[test]
fn mssp_timing_is_deterministic() {
    let (p, d) = fixture();
    let tcfg = TimingConfig::default();
    let a = run_mssp(&p, &d, &tcfg).unwrap();
    let b = run_mssp(&p, &d, &tcfg).unwrap();
    assert_eq!(a.run.cycles, b.run.cycles);
    assert_eq!(a.run.stats, b.run.stats);
}
