//! Adversarial-master fuzzing: the committed architected state must be
//! independent of the master program — arbitrary code, arbitrary boundary
//! maps, arbitrary boundary sets. This is the paper's decoupling theorem
//! under fire: the fast path can be *anything* and only performance moves.
//!
//! Seeded with `mssp-testkit` (no crate registry in the build
//! environment); a failing case prints its seed for replay.

use std::collections::{BTreeMap, BTreeSet};

use mssp::core::{EngineError, ThreadedError};
use mssp::prelude::*;
use mssp_testkit::{check, Rng};

fn reference() -> (Program, u64, u64) {
    let p = assemble(
        "main:  addi s0, zero, 300
                li   s2, 0x280000
         loop:  add  s1, s1, s0
                sd   s1, 0(s2)
                addi s2, s2, 8
                andi t0, s0, 3
                beqz t0, bump
         back:  addi s0, s0, -1
                bnez s0, loop
                halt
         bump:  addi s1, s1, 11
                j    back",
    )
    .unwrap();
    let mut m = SeqMachine::boot(&p);
    m.run(u64::MAX).unwrap();
    let s1 = m.state().reg(Reg::S1);
    let loop_pc = p.symbol("loop").unwrap();
    (p, s1, loop_pc)
}

/// A random "master" program: arbitrary ALU/branch soup ending in a
/// spin loop (so it keeps producing garbage predictions forever).
fn arb_master(rng: &mut Rng) -> String {
    let n = rng.gen_range(1, 16);
    let mut src = String::from("main:\n");
    for i in 0..n {
        let op = rng.gen_range(0, 5);
        let reg = rng.gen_range(0, 8);
        let imm = rng.gen_range(0, 1000) as i64 - 500;
        let r = reg + 4;
        match op {
            0 => src.push_str(&format!("  addi r{r}, r{r}, {imm}\n")),
            1 => src.push_str(&format!("  xor  r{r}, r{r}, r{}\n", (reg + 1) % 8 + 4)),
            2 => src.push_str(&format!(
                "  li   t0, {}\n  sd   r{r}, 0(t0)\n",
                0x280000 + (imm.unsigned_abs() % 512) * 8
            )),
            3 => src.push_str(&format!("  mul  r{r}, r{r}, r{}\n", (reg + 3) % 8 + 4)),
            _ => src.push_str(&format!(
                "  andi t1, r{r}, 7\n  beqz t1, sk{i}\n  addi r{r}, r{r}, 1\nsk{i}:\n"
            )),
        }
    }
    src.push_str("spin: addi a7, a7, 1\n  j spin\n");
    src
}

#[test]
fn any_master_any_boundaries_commits_correct_state() {
    check(0xADD5_0001, 40, |rng| {
        let master_src = arb_master(rng);
        let map_loop = rng.gen_bool(1, 2);
        let slaves = rng.gen_index(1, 6);

        let (p, expected, loop_pc) = reference();
        let master = assemble(&master_src).expect("master assembles");
        let mut map = BTreeMap::new();
        map.insert(p.entry(), master.entry());
        let mut boundaries = BTreeSet::from([loop_pc]);
        if map_loop {
            // Map the boundary into the master's spin loop so it spawns
            // garbage tasks forever.
            map.insert(loop_pc, master.symbol("spin").expect("label"));
        } else {
            // Master never spawns at the boundary; starvation recovery
            // must carry the program.
            boundaries.insert(p.symbol("back").expect("label"));
        }
        let d = Distilled::from_parts(master, boundaries, map);
        let cfg = EngineConfig {
            num_slaves: slaves,
            ..EngineConfig::default()
        };
        let run = Engine::new(&p, &d, cfg, UnitCost)
            .run()
            .expect("terminates");
        assert_eq!(run.state.reg(Reg::S1), expected);
    });
}

#[test]
fn random_boundary_sets_are_harmless() {
    check(0xADD5_0002, 40, |rng| {
        let extra_n = rng.gen_range(0, 12);
        let extra: BTreeSet<u64> = (0..extra_n).map(|_| rng.gen_range(0, 200)).collect();
        let n = rng.gen_range(1, 32);

        let (p, expected, loop_pc) = reference();
        // Random boundary PCs across the text (some valid, some mid-block).
        let mut boundaries: BTreeSet<u64> =
            extra.into_iter().map(|i| p.text_base() + i * 4).collect();
        boundaries.insert(loop_pc);
        let dead = assemble("main: halt").unwrap();
        let mut map = BTreeMap::new();
        map.insert(p.entry(), dead.entry());
        let d = Distilled::from_parts(dead, boundaries, map).with_crossings_per_task(n);
        let run = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
            .run()
            .expect("terminates");
        assert_eq!(run.state.reg(Reg::S1), expected);
    });
}

/// An original program that never halts, and its boundaries: ROADMAP item
/// 14's countdown from zero, whose loop head is a boundary, or `main: j
/// main`, which has none, so that only the budget ends its recovery.
fn endless(rng: &mut Rng) -> (Program, BTreeSet<u64>) {
    if rng.gen_bool(1, 2) {
        return (assemble("main: j main").unwrap(), BTreeSet::new());
    }
    let p = assemble(
        "main: addi s0, zero, 0
         loop: addi s1, s1, 1
               addi s0, s0, -1
               bnez s0, loop
               halt",
    )
    .unwrap();
    let boundaries = BTreeSet::from([p.symbol("loop").unwrap()]);
    (p, boundaries)
}

/// Whatever the master, a program that never halts returns the budget
/// error under both drivers, in `SeqMachine`'s state after exactly the
/// instructions the run reports.
#[test]
fn any_master_on_a_program_that_never_halts_spends_the_budget() {
    const BUDGET: u64 = 20_000;
    check(0xADD5_0003, 24, |rng| {
        let master = assemble(&arb_master(rng)).expect("master assembles");
        let (p, boundaries) = endless(rng);
        let mut map = BTreeMap::from([(p.entry(), master.entry())]);
        for &b in &boundaries {
            map.insert(b, master.symbol("spin").expect("label"));
        }
        let d = Distilled::from_parts(master, boundaries, map);
        let cfg = EngineConfig {
            num_slaves: rng.gen_index(0, 5),
            max_instrs: BUDGET,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&p, &d, cfg, UnitCost).run().map(|_| ());
        let threaded = match run_threaded(&p, &d, cfg) {
            Err(ThreadedError::Engine(e)) => e,
            other => panic!("threaded: {:?}", other.map(|_| ())),
        };
        for err in [engine.unwrap_err(), threaded] {
            let EngineError::Budget { retired, state } = err else {
                panic!("expected the budget error, got: {err}");
            };
            assert!((BUDGET..BUDGET + cfg.max_task_instrs).contains(&retired));
            let mut seq = SeqMachine::boot(&p);
            seq.run(retired).unwrap();
            assert!(*state == *seq.state(), "state at {retired}");
        }
    });
}

/// Spawn guards no distiller would emit: one that never vetoes over a
/// window of 2^40 crossings, and one that declares 20,000 copies of one
/// fed-back input. The master caps what it probes, so every executor
/// still ends in `SeqMachine`'s state, and promptly: the runs go on a
/// thread, and a run still going after 10 s fails the test instead of
/// hanging it.
#[test]
fn hostile_spawn_guards_cannot_stall_the_master() {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let (p, _, _) = reference();
        let mut seq = SeqMachine::boot(&p);
        seq.run(u64::MAX).unwrap();
        let profile = Profile::collect(&p, Profile::UNBOUNDED).unwrap();
        let d = distill(&p, &profile, &DistillConfig::default()).unwrap();
        let always_taken = mssp::distill::Slice {
            asserted_taken: true,
            program: assemble("main: beq zero, zero, main").unwrap(),
            inputs: Vec::new(),
            window: 1 << 40,
            home_pc: p.entry(),
        };
        let many_inputs = mssp::distill::Slice {
            program: assemble("main: addi t0, t0, 1\n beq zero, zero, main").unwrap(),
            inputs: vec![(Reg::T0, 0); 20_000],
            window: mssp::distill::MAX_GUARD_WINDOW,
            ..always_taken.clone()
        };
        // The same guard asserted the other way vetoes: the master does
        // evaluate what is attached.
        let vetoing = mssp::distill::Slice {
            asserted_taken: false,
            ..always_taken.clone()
        };
        for guard in [always_taken, many_inputs, vetoing] {
            let slices = d.boundaries().iter().map(|&b| (b, vec![guard.clone()]));
            let d = d.clone().with_slices(slices.collect());
            let engine = Engine::new(&p, &d, EngineConfig::default(), UnitCost)
                .run()
                .unwrap();
            let timed = run_mssp(&p, &d, &TimingConfig::default()).unwrap().run;
            let vetoes = engine.stats.spawn_vetoes;
            assert_eq!(vetoes > 0, !guard.asserted_taken, "{:?}", engine.stats);
            assert!(engine.state == *seq.state());
            assert!(timed.state == *seq.state());
            for num_slaves in [1, 2] {
                let cfg = EngineConfig {
                    num_slaves,
                    ..EngineConfig::default()
                };
                let threaded = run_threaded(&p, &d, cfg).unwrap();
                assert!(threaded.state == *seq.state());
            }
        }
        tx.send(()).unwrap();
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Err(RecvTimeoutError::Timeout) => panic!("a hostile spawn guard held a run past 10 s"),
        _ => worker.join().expect("every run ends in SeqMachine's state"),
    }
}
