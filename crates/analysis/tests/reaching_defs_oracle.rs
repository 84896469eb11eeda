//! `ReachingDefs` against a brute-force oracle, on the original and the
//! distilled program of every bundled workload.
//!
//! The oracle searches forward from each definition site along the
//! `Cfg`'s edges until the register is redefined, and from the start of
//! the entry block and of every block with no predecessor for the values
//! that come from outside the analyzed code. At every PC and for every
//! register, `defs_before` must list exactly the sites the search reaches,
//! in ascending order, and `external_before` must hold exactly the
//! registers an outside value reaches.

use std::collections::BTreeSet;

use mssp_analysis::{Cfg, Profile, ReachingDefs};
use mssp_distill::{distill, DistillConfig};
use mssp_isa::{Program, Reg, INSTR_BYTES, NUM_REGS};
use mssp_workloads::{phase_workloads, workloads};

/// Small enough for a debug build; every bundled workload halts at it.
const SCALE: u64 = 1_000;

/// What reaches the point before each slot: per slot and register, the
/// definition sites, and whether an outside value does.
struct Oracle {
    sites: Vec<[BTreeSet<u64>; NUM_REGS]>,
    external: Vec<[bool; NUM_REGS]>,
}

impl Oracle {
    fn build(program: &Program, cfg: &Cfg) -> Oracle {
        let n = program.len();
        let mut oracle = Oracle {
            sites: (0..n)
                .map(|_| std::array::from_fn(|_| BTreeSet::new()))
                .collect(),
            external: vec![[false; NUM_REGS]; n],
        };
        let blocks = cfg.blocks().len();
        let mut sourceless = vec![true; blocks];
        for b in 0..blocks {
            for s in cfg.successors(b) {
                sourceless[s] = false;
            }
        }
        let seeds: Vec<usize> = (0..blocks)
            .filter(|&b| sourceless[b] || b == cfg.entry())
            .collect();
        for r in (0..NUM_REGS as u8).map(Reg::new) {
            for &b in &seeds {
                let start = (b, cfg.blocks()[b].start);
                walk(cfg, program, start, r, &mut |slot| {
                    oracle.external[slot][r.index()] = true;
                });
            }
        }
        for (def, instr) in program.iter_pcs() {
            let Some(r) = instr.def_reg() else { continue };
            let block = cfg.block_containing(def).unwrap();
            walk(cfg, program, (block, def + INSTR_BYTES), r, &mut |slot| {
                oracle.sites[slot][r.index()].insert(def);
            });
        }
        oracle
    }
}

/// Calls `reach` with the slot of every instruction a value of `r` held
/// at `from`, a point in block `first` (possibly its end), flows to before
/// it is redefined, following fall-through within a block and the `Cfg`'s
/// edges out of it.
fn walk(
    cfg: &Cfg,
    program: &Program,
    (first, from): (usize, u64),
    r: Reg,
    reach: &mut impl FnMut(usize),
) {
    let mut entered = vec![false; cfg.blocks().len()];
    entered[first] = from == cfg.blocks()[first].start;
    let mut work = vec![(first, from)];
    while let Some((b, mut pc)) = work.pop() {
        let block = &cfg.blocks()[b];
        let mut killed = false;
        while pc < block.end {
            reach(program.index_of_pc(pc).unwrap());
            if program.fetch(pc).unwrap().def_reg() == Some(r) {
                killed = true;
                break;
            }
            pc += INSTR_BYTES;
        }
        if !killed {
            for s in cfg.successors(b) {
                if !entered[s] {
                    entered[s] = true;
                    work.push((s, cfg.blocks()[s].start));
                }
            }
        }
    }
}

fn check(name: &str, program: &Program) {
    let cfg = Cfg::build(program);
    let defs = ReachingDefs::compute(program, &cfg);
    let oracle = Oracle::build(program, &cfg);
    for (slot, (pc, _)) in program.iter_pcs().enumerate() {
        let external = defs.external_before(pc);
        for r in (0..NUM_REGS as u8).map(Reg::new) {
            let got: Vec<u64> = defs.defs_before(pc, r).collect();
            let want: Vec<u64> = oracle.sites[slot][r.index()].iter().copied().collect();
            assert_eq!(got, want, "{name}: defs of {r} before {pc:#x}");
            assert_eq!(
                defs.has_instr_def_before(pc, r),
                !want.is_empty(),
                "{name}: {r} before {pc:#x}"
            );
            assert_eq!(
                external.contains(r),
                oracle.external[slot][r.index()],
                "{name}: external {r} before {pc:#x}"
            );
        }
    }
}

#[test]
fn reaching_defs_match_the_oracle_on_every_bundled_workload() {
    let bundled = workloads().iter().map(|w| (w.name, w.program(SCALE)));
    let phased = phase_workloads()
        .iter()
        .map(|w| (w.name, w.phase_program(SCALE, SCALE)));
    for (name, program) in bundled.chain(phased) {
        let profile = Profile::collect(&program, Profile::UNBOUNDED).expect("workload halts");
        let d = distill(&program, &profile, &DistillConfig::default()).expect("workload distills");
        check(name, &program);
        check(&format!("{name} distilled"), d.program());
    }
}

#[test]
fn a_link_register_reaches_the_call_target_not_the_return_site() {
    let program = mssp_isa::asm::assemble(
        "main: call f
               halt
         f:    addi a0, a0, 1
               ret",
    )
    .unwrap();
    check("call", &program);
    let defs = ReachingDefs::compute(&program, &Cfg::build(&program));
    let f = program.symbol("f").unwrap();
    let sites: Vec<u64> = defs.defs_before(f, Reg::RA).collect();
    assert_eq!(sites, vec![program.entry()]);
    assert!(!defs.has_instr_def_before(program.entry() + INSTR_BYTES, Reg::RA));
}

#[test]
fn unanalyzed_addresses_have_only_outside_values() {
    let program = workloads()[0].program(SCALE);
    let defs = ReachingDefs::compute(&program, &Cfg::build(&program));
    for pc in [program.text_end(), program.text_base() + 2, 0] {
        assert_eq!(defs.defs_before(pc, Reg::A0).count(), 0);
        assert!(!defs.has_instr_def_before(pc, Reg::A0));
        assert_eq!(defs.external_before(pc).len(), NUM_REGS);
    }
}
