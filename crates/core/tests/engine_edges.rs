//! Engine edge-path tests: overrun, fault, master run-ahead, the
//! instruction budget, diagnostics APIs — the squash/recovery machinery under hostile
//! configurations.

use std::collections::{BTreeMap, BTreeSet};

use mssp_analysis::Profile;
use mssp_core::{
    Engine, EngineConfig, EngineError, Event, Observer, SquashReason, SquashSample, UnitCost,
};
use mssp_distill::{distill, DistillConfig, Distilled};
use mssp_isa::asm::assemble;
use mssp_isa::{Program, Reg};
use mssp_machine::SeqMachine;

const SUM: &str = "
    main: addi s0, zero, 120
    loop: add  s1, s1, s0
          addi s0, s0, -1
          bnez s0, loop
          halt";

fn seq_s1(p: &Program) -> u64 {
    let mut m = SeqMachine::boot(p);
    m.run(u64::MAX).unwrap();
    m.state().reg(Reg::S1)
}

fn honest(p: &Program) -> Distilled {
    let profile = Profile::collect(p, u64::MAX).unwrap();
    distill(p, &profile, &DistillConfig::default()).unwrap()
}

/// A master lying about `s1` at every loop boundary.
fn liar(p: &Program) -> Distilled {
    let liar = assemble(
        "main: addi s1, zero, 9999
         spin: addi s1, s1, 9999
               j spin",
    )
    .unwrap();
    let loop_pc = p.symbol("loop").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), liar.entry());
    map.insert(loop_pc, liar.symbol("spin").unwrap());
    Distilled::from_parts(liar, BTreeSet::from([loop_pc]), map)
}

#[test]
fn tiny_task_cap_forces_overruns_but_stays_correct() {
    let p = assemble(SUM).unwrap();
    let d = honest(&p);
    let cfg = EngineConfig {
        max_task_instrs: 4, // absurdly small: every multi-crossing task overruns
        ..EngineConfig::default()
    };
    let run = Engine::new(&p, &d, cfg, UnitCost).run().unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
}

#[test]
fn master_runahead_cap_marks_master_lost_but_stays_correct() {
    let p = assemble(SUM).unwrap();
    // A master that spins without ever crossing a boundary.
    let spin = assemble("main: j main").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), spin.entry());
    let d = Distilled::from_parts(spin, BTreeSet::from([p.entry() + 4]), map);
    let cfg = EngineConfig {
        master_runahead: 100,
        ..EngineConfig::default()
    };
    let run = Engine::new(&p, &d, cfg, UnitCost).run().unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
    // Work flowed through starvation recovery (spin master spawned one
    // task at entry; everything after came from recovery segments).
    assert!(run.stats.recovery_instructions > 0);
}

#[test]
fn a_boundary_free_loop_spends_the_budget_in_recovery() {
    // A program that loops forever with no boundary: only the budget ends
    // its one recovery segment, and the segment commits at the budget.
    let p = assemble("main: j main").unwrap();
    let dead = assemble("main: halt").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), dead.entry());
    let d = Distilled::from_parts(dead, BTreeSet::new(), map);
    let cfg = EngineConfig {
        max_instrs: 1_000,
        max_task_instrs: 100,
        ..EngineConfig::default()
    };
    let err = Engine::new(&p, &d, cfg, UnitCost).run().unwrap_err();
    let EngineError::Budget { retired, state } = err else {
        panic!("{err}");
    };
    assert_eq!((retired, state.pc()), (1_000, p.entry()));
}

#[test]
fn wild_jump_in_original_program_faults_recovery() {
    // The original program itself jumps outside the text segment: that is
    // a genuine program error and must surface as RecoveryFault, not hang.
    let p = assemble("main: li t0, 0x40000\n jalr zero, 0(t0)\n halt").unwrap();
    let dead = assemble("main: halt").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), dead.entry());
    let d = Distilled::from_parts(dead, BTreeSet::new(), map);
    let err = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap_err();
    assert!(matches!(err, EngineError::RecoveryFault(_)));
}

#[test]
fn mismatch_samples_capture_failing_cells() {
    let p = assemble(SUM).unwrap();
    let d = liar(&p);
    let mut samples = Vec::new();
    let observer = |_: u64, event: Event<'_>| match event {
        Event::Squash(s) if s.reason == SquashReason::LiveInMismatch => samples.push(s.clone()),
        _ => {}
    };
    let run = Engine::observed(&p, &d, EngineConfig::default(), UnitCost, observer)
        .run()
        .unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
    assert!(!samples.is_empty(), "lying master must produce samples");
    // The mismatching cell is s1 with the liar's arithmetic progression.
    assert!(samples[0]
        .cells
        .iter()
        .any(|(c, _, _)| matches!(c, mssp_machine::Cell::Reg(r) if *r == Reg::S1)));
}

#[test]
fn an_observer_that_wants_no_cells_gets_empty_samples() {
    struct LiveInSquashes<'a>(&'a mut u64);
    impl Observer for LiveInSquashes<'_> {
        const WANTS_CELLS: bool = false;

        fn event(&mut self, _: u64, event: Event<'_>) {
            if let Event::Squash(s) = event {
                assert!(s.cells.is_empty(), "{s:?}");
                *self.0 += u64::from(s.reason == SquashReason::LiveInMismatch);
            }
        }
    }
    let p = assemble(SUM).unwrap();
    let d = liar(&p);
    let mut seen = 0;
    let observer = LiveInSquashes(&mut seen);
    let run = Engine::observed(&p, &d, EngineConfig::default(), UnitCost, observer)
        .run()
        .unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
    assert!(seen > 0);
    assert_eq!(seen, run.stats.squashes_live_in);
}

#[test]
fn task_size_trace_sums_to_committed_instructions() {
    let p = assemble(SUM).unwrap();
    let d = honest(&p);
    let (mut from_tasks, mut from_recovery) = (0, 0);
    let observer = |_: u64, event: Event<'_>| match event {
        Event::Commit { instructions, .. } => from_tasks += instructions,
        Event::Recovery { instructions, .. } => from_recovery += instructions,
        Event::Squash(_) => {}
    };
    let run = Engine::observed(&p, &d, EngineConfig::default(), UnitCost, observer)
        .run()
        .unwrap();
    assert!(from_tasks > 0);
    assert_eq!(from_recovery, run.stats.recovery_instructions);
    assert_eq!(from_tasks + from_recovery, run.stats.committed_instructions);
}

#[test]
fn stats_helper_functions() {
    let p = assemble(SUM).unwrap();
    let d = honest(&p);
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    let s = run.stats;
    assert_eq!(
        s.squash_events(),
        s.squashes_wrong_path + s.squashes_live_in + s.squashes_overrun + s.squashes_fault
    );
    assert!(s.waste_fraction() >= 0.0 && s.waste_fraction() <= 1.0);
    assert!(s.recovery_fraction() >= 0.0 && s.recovery_fraction() <= 1.0);
}

#[test]
fn single_instruction_program() {
    let p = assemble("main: halt").unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    assert_eq!(run.stats.committed_instructions, 0);
}

#[test]
fn boundary_on_entry_pc_is_harmless() {
    let p = assemble(SUM).unwrap();
    let dead = assemble("main: halt").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), dead.entry());
    // Entry itself is a boundary: the first task must still make progress.
    let d = Distilled::from_parts(dead, BTreeSet::from([p.entry()]), map);
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
}

#[test]
fn word_granular_mode_is_correct_but_squashier() {
    // Byte-writing loop where adjacent tasks share words.
    let p = assemble(
        "main:  li   s2, 0x300000
                addi s0, zero, 2000
         loop:  andi t0, s0, 127
                add  t1, s2, s0
                sb   t0, 0(t1)
                add  s1, s1, t0
                addi s0, s0, -1
                bnez s0, loop
                halt",
    )
    .unwrap();
    let profile = Profile::collect(&p, u64::MAX).unwrap();
    let dcfg = DistillConfig {
        target_task_size: 24,
        ..DistillConfig::default()
    };
    let d = distill(&p, &profile, &dcfg).unwrap();
    let byte_cfg = EngineConfig::default();
    let word_cfg = EngineConfig {
        word_granular_live_ins: true,
        ..EngineConfig::default()
    };
    let byte_run = Engine::new(&p, &d, byte_cfg, UnitCost).run().unwrap();
    let word_run = Engine::new(&p, &d, word_cfg, UnitCost).run().unwrap();
    // Both are CORRECT — granularity is a performance knob only.
    assert_eq!(byte_run.state.reg(Reg::S1), seq_s1(&p));
    assert_eq!(word_run.state.reg(Reg::S1), seq_s1(&p));
    // But word granularity false-shares.
    assert!(
        word_run.stats.squash_events() > byte_run.stats.squash_events(),
        "word {} vs byte {}",
        word_run.stats.squash_events(),
        byte_run.stats.squash_events()
    );
}

#[test]
fn throttling_reduces_wasted_work_under_a_bad_master() {
    let p = assemble(SUM).unwrap();
    // A liar master spawning wrong predictions at the loop boundary.
    let liar = assemble(
        "main: addi s1, zero, 77
         spin: addi s1, s1, 77
               j spin",
    )
    .unwrap();
    let loop_pc = p.symbol("loop").unwrap();
    let mut map = BTreeMap::new();
    map.insert(p.entry(), liar.entry());
    map.insert(loop_pc, liar.symbol("spin").unwrap());
    let d = Distilled::from_parts(liar, BTreeSet::from([loop_pc]), map);
    let plain = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    let throttled_cfg = EngineConfig {
        throttle_threshold: 2,
        throttle_window: 16,
        throttle_duration: 8,
        ..EngineConfig::default()
    };
    let throttled = Engine::new(&p, &d, throttled_cfg, UnitCost).run().unwrap();
    assert_eq!(plain.state.reg(Reg::S1), seq_s1(&p));
    assert_eq!(throttled.state.reg(Reg::S1), seq_s1(&p));
    assert!(throttled.stats.throttle_events > 0);
    assert!(
        throttled.stats.wasted_slave_instructions < plain.stats.wasted_slave_instructions,
        "throttled waste {} vs plain {}",
        throttled.stats.wasted_slave_instructions,
        plain.stats.wasted_slave_instructions
    );
}

// ---- scheduler edges ------------------------------------------------------

#[test]
fn the_observer_sees_every_squash() {
    let p = assemble(&SUM.replace("120", "4000")).unwrap();
    let d = liar(&p);
    // The first `cap` squashes, as a capped reader keeps them.
    let samples = |cap: usize| {
        let mut samples: Vec<SquashSample> = Vec::new();
        let observer = |_: u64, event: Event<'_>| match event {
            Event::Squash(s) if samples.len() < cap => samples.push(s.clone()),
            _ => {}
        };
        let run = Engine::observed(&p, &d, EngineConfig::default(), UnitCost, observer)
            .run()
            .unwrap();
        assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
        (samples, run.stats.squash_events())
    };
    let (all, events) = samples(usize::MAX);
    assert!(events > 1500, "{events} squashes");
    assert_eq!(all.len() as u64, events);
    for cap in [0, 3, 1500] {
        assert_eq!(samples(cap).0, all[..cap], "cap {cap}");
    }
}

#[test]
fn a_master_that_starts_lost_is_carried_by_starvation_recovery() {
    let p = assemble(SUM).unwrap();
    // No PC has a distilled image: the master is lost from boot and after
    // every restart, nothing is ever spawned, and every instant the
    // scheduler finds nobody with a wake-up time.
    let dead = assemble("main: halt").unwrap();
    let d = Distilled::from_parts(dead, honest(&p).boundaries().clone(), BTreeMap::new());
    let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
        .run()
        .unwrap();
    assert_eq!(run.state.reg(Reg::S1), seq_s1(&p));
    assert_eq!(run.stats.spawned_tasks, 0);
    assert!(run.stats.recovery_segments > 1);
    assert_eq!(
        run.stats.recovery_instructions,
        run.stats.committed_instructions
    );
    // One cycle per instruction, `halt` ending the run in the instant it
    // issues; a segment starts in the instant its predecessor's last
    // instruction issued, so each segment boundary overlaps one cycle.
    assert_eq!(
        run.cycles,
        run.stats.committed_instructions - (run.stats.recovery_segments - 1)
    );
    // Recorded at d303e1a.
    assert_eq!(run.cycles, 241);
}

#[test]
fn a_commit_wakes_the_stalled_master_in_the_same_instant() {
    // One slave, free verify and commit, and a master that always reaches
    // the next boundary before the slave finishes: every spawn but the
    // first waits for the commit that frees the slave. If the commit, the
    // spawn and the task's first instruction share an instant, the slave
    // never idles and the run takes one cycle per instruction (plus
    // `halt`); a scheduler that wakes the master one instant late loses a
    // cycle per task.
    let p = mssp_workloads::Workload::by_name("gap_like")
        .unwrap()
        .program(120);
    let d = honest(&p);
    let cfg = EngineConfig {
        num_slaves: 1,
        ..EngineConfig::default()
    };
    let run = Engine::new(&p, &d, cfg, UnitCost).run().unwrap();
    assert!(run.stats.committed_tasks > 10, "{:?}", run.stats);
    assert_eq!(run.stats.squash_events(), 0);
    assert_eq!(run.stats.recovery_segments, 0);
    assert_eq!(run.cycles, run.stats.committed_instructions + 1);
}

/// Counts the instructions priced, through a handle that outlives the
/// engine; costs cycle through 1, 2, 3 so instants are uneven.
struct Counting(std::rc::Rc<std::cell::Cell<u64>>);

impl mssp_core::CostModel for Counting {
    fn instr_cost(&mut self, _role: mssp_core::CoreRole, _info: &mssp_machine::StepInfo) -> u64 {
        self.0.set(self.0.get() + 1);
        1 + self.0.get() % 3
    }
}

/// A budget stops the run at the task commit that spends it: the cut
/// run saw every commit the full run saw up to that one, and priced
/// exactly the instructions the full run had priced when it made it.
#[test]
fn the_budget_stops_the_run_at_its_commit() {
    let p = mssp_workloads::Workload::by_name("gap_like")
        .unwrap()
        .program(120);
    let d = honest(&p);
    let priced = std::rc::Rc::new(std::cell::Cell::new(0));
    // Every commit point: the instructions retired and priced by then.
    let run = |max_instrs: u64| {
        priced.set(0);
        let cfg = EngineConfig {
            num_slaves: 2,
            max_instrs,
            ..EngineConfig::default()
        };
        let (mut retired, mut commits) = (0, Vec::new());
        let observer = |_at: u64, event: Event<'_>| {
            assert!(!matches!(event, Event::Recovery { .. }), "{event:?}");
            if let Event::Commit { instructions, .. } = event {
                retired += instructions;
                commits.push((retired, priced.get()));
            }
        };
        let outcome = Engine::observed(&p, &d, cfg, Counting(priced.clone()), observer).run();
        (outcome.map(|run| run.cycles), commits)
    };
    let (full, commits) = run(u64::MAX);
    full.unwrap();
    assert!(commits.len() > 10, "{commits:?}");
    for (i, &(retired, priced_then)) in commits.iter().enumerate().skip(1) {
        let before = commits[i - 1].0;
        for max_instrs in [before + 1, retired] {
            let (cut, seen) = run(max_instrs);
            // The last commit, which halts the program, is cut alike.
            let err = cut.unwrap_err();
            assert!(matches!(err, EngineError::Budget { retired: r, .. } if r == retired));
            assert_eq!(seen, commits[..=i], "within {max_instrs}");
            assert_eq!(priced.get(), priced_then, "within {max_instrs}");
        }
    }
}

#[test]
fn any_slave_count_reaches_the_sequential_state() {
    let p = mssp_workloads::Workload::by_name("gap_like")
        .unwrap()
        .program(200);
    let d = honest(&p);
    let mut seq = SeqMachine::boot(&p);
    seq.run(u64::MAX).unwrap();
    // 70: past any word-sized bitmask a scheduler might keep of its slaves.
    for num_slaves in [1, 70] {
        let cfg = EngineConfig {
            num_slaves,
            ..EngineConfig::default()
        };
        let run = Engine::new(&p, &d, cfg, UnitCost).run().unwrap();
        for r in Reg::all() {
            assert_eq!(run.state.reg(r), seq.state().reg(r), "{r} x{num_slaves}");
        }
        assert_eq!(run.stats.committed_instructions, seq.instructions());
    }
}
